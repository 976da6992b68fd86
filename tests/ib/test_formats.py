"""Unit + property tests for IB wire formats and registration."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import RegistrationError, VerbsError
from repro.ib import (
    Cqe,
    IbOpcode,
    MrTable,
    WcOpcode,
    WcStatus,
    Wqe,
    WQE_BYTES,
    poll_cq_instruction_cost,
    post_send_instruction_cost,
    post_send_instruction_cost_static_optimized,
)
from repro.memory import AddressRange


def wqe(**kw):
    defaults = dict(opcode=IbOpcode.RDMA_WRITE, wr_id=7, local_addr=0x1000,
                    lkey=0xC0DE, length=256, remote_addr=0x2000, rkey=0xC0DF)
    defaults.update(kw)
    return Wqe(**defaults)


def test_wqe_is_64_bytes():
    assert len(wqe().encode()) == WQE_BYTES == 64


def test_wqe_roundtrip():
    w = wqe(opcode=IbOpcode.SEND, immediate=0xABCD)
    assert Wqe.decode(w.encode()) == w


def test_wqe_is_big_endian():
    w = wqe(length=0x01020304)
    raw = w.encode()
    # length sits in the low 32 bits of big-endian word 0.
    assert raw[4:8] == bytes([0x01, 0x02, 0x03, 0x04])


def test_wqe_reserved_byte_packs_as_zero_and_decode_ignores_it():
    raw = bytearray(wqe().encode())
    assert raw[1] == 0                  # bits 48-55 of word 0
    raw[1] = 0x03
    assert Wqe.decode(bytes(raw)) == wqe()


def test_wqe_validation():
    with pytest.raises(VerbsError):
        wqe(length=0)
    with pytest.raises(VerbsError):
        wqe(length=1 << 32)
    with pytest.raises(VerbsError):
        wqe(rkey=1 << 32)


def test_wqe_bad_opcode():
    raw = bytearray(wqe().encode())
    raw[0] = 0xEE
    with pytest.raises(VerbsError):
        Wqe.decode(bytes(raw))


@given(
    opcode=st.sampled_from([IbOpcode.RDMA_WRITE, IbOpcode.RDMA_WRITE_WITH_IMM,
                            IbOpcode.SEND, IbOpcode.RDMA_READ, IbOpcode.RECV]),
    wr_id=st.integers(0, 2**64 - 1),
    local=st.integers(0, 2**48),
    remote=st.integers(0, 2**48),
    lkey=st.integers(0, 2**32 - 1),
    rkey=st.integers(0, 2**32 - 1),
    length=st.integers(1, 2**32 - 1),
    imm=st.integers(0, 2**32 - 1),
)
def test_property_wqe_roundtrip(opcode, wr_id, local, remote, lkey, rkey,
                                length, imm):
    w = Wqe(opcode=opcode, wr_id=wr_id, local_addr=local, lkey=lkey,
            length=length, remote_addr=remote, rkey=rkey, immediate=imm)
    assert Wqe.decode(w.encode()) == w


def test_instruction_costs_match_paper():
    """§V-B3: 442 instructions to post a WR, 283 for a successful poll."""
    assert post_send_instruction_cost() == 442
    assert poll_cq_instruction_cost() == 283
    assert post_send_instruction_cost_static_optimized() < 442


# --- CQE ----------------------------------------------------------------------

def test_cqe_roundtrip():
    c = Cqe(wr_id=11, opcode=WcOpcode.RECV_RDMA_WITH_IMM,
            status=WcStatus.SUCCESS, qp_num=9, byte_len=4096, immediate=0xFE)
    assert Cqe.decode(c.encode()) == c


def test_cqe_valid_bit():
    c = Cqe(wr_id=1, opcode=WcOpcode.SEND, status=WcStatus.SUCCESS,
            qp_num=2, byte_len=8)
    word1 = int.from_bytes(c.encode()[8:16], "big")
    assert Cqe.is_valid_word(word1)
    assert not Cqe.is_valid_word(0)
    with pytest.raises(VerbsError):
        Cqe.decode(b"\x00" * 32)


@given(
    wr_id=st.integers(0, 2**64 - 1),
    opcode=st.sampled_from(list(WcOpcode)),
    status=st.sampled_from(list(WcStatus)),
    qp_num=st.integers(0, 2**24 - 1),
    blen=st.integers(0, 2**32 - 1),
)
def test_property_cqe_roundtrip(wr_id, opcode, status, qp_num, blen):
    c = Cqe(wr_id, opcode, status, qp_num, blen)
    assert Cqe.decode(c.encode()) == c


# --- MR table ----------------------------------------------------------------------

def test_mr_register_and_validate():
    t = MrTable()
    mr = t.register(AddressRange(0x1000, 4096))
    assert mr.lkey != mr.rkey
    t.validate_local(mr.lkey, 0x1000, 4096)
    t.validate_remote(mr.rkey, 0x1800, 8)


def test_mr_bad_key_rejected():
    t = MrTable()
    t.register(AddressRange(0x1000, 4096))
    with pytest.raises(RegistrationError):
        t.validate_local(0xDEAD, 0x1000, 8)
    with pytest.raises(RegistrationError):
        t.validate_remote(0xDEAD, 0x1000, 8)


def test_mr_out_of_bounds_rejected():
    t = MrTable()
    mr = t.register(AddressRange(0x1000, 4096))
    with pytest.raises(RegistrationError):
        t.validate_local(mr.lkey, 0x1000, 8192)
    with pytest.raises(RegistrationError):
        t.validate_remote(mr.rkey, 0x0F00, 8)


def test_mr_lkey_not_usable_as_rkey():
    t = MrTable()
    mr = t.register(AddressRange(0x1000, 4096))
    with pytest.raises(RegistrationError):
        t.validate_remote(mr.lkey, 0x1000, 8)


def test_mr_keys_unique_across_registrations():
    t = MrTable()
    keys = set()
    for i in range(10):
        mr = t.register(AddressRange(0x1000 + i * 0x10000, 4096))
        keys.add(mr.lkey)
        keys.add(mr.rkey)
    assert len(keys) == 20
