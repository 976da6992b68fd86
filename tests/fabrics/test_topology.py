"""Topology builders: deterministic shapes, validated parameters."""

import pytest

from repro.errors import ConfigError, NetworkError
from repro.fabrics import build_topology, dragonfly, fat_tree, torus
from repro.fabrics.topology import TOPOLOGY_KINDS, FabricConfig


def test_topology_kinds_cover_the_builders():
    assert set(TOPOLOGY_KINDS) == {"dragonfly", "fat-tree", "torus"}


@pytest.mark.parametrize("kind", TOPOLOGY_KINDS)
@pytest.mark.parametrize("n", [16, 64])
def test_builders_are_deterministic(kind, n):
    a = build_topology(kind, n)
    b = build_topology(kind, n)
    assert a.n == b.n == n
    assert a.edges == b.edges
    assert a.switches == b.switches


def test_fat_tree_rejects_non_pow2():
    with pytest.raises(NetworkError):
        fat_tree(24)
    with pytest.raises(NetworkError):
        fat_tree(4)            # below the minimum pod shape


def test_fat_tree_hosts_attach_through_leaves():
    topo = fat_tree(16)
    assert sorted(topo.attach) == list(range(16))
    assert all(s in topo.switches for s in topo.attach.values())


def test_torus_dims_multiply_to_n():
    topo = torus(64)
    prod = 1
    for d in topo.dims:
        prod *= d
    assert prod == 64
    assert not topo.switches   # hosts are the routers


def test_torus_rejects_bad_dims():
    with pytest.raises(NetworkError):
        torus(12, dims=(5, 2))


def test_dragonfly_groups_scale_with_n():
    small, large = dragonfly(16), dragonfly(64)
    assert large.groups >= small.groups >= 2
    assert large.n == 64


def test_unknown_kind_is_an_error():
    with pytest.raises(NetworkError):
        build_topology("hypercube", 16)


@pytest.mark.parametrize("bad", [dict(credits=0), dict(vcs=0),
                                 dict(bandwidth=0.0),
                                 dict(global_latency=-1e-9),
                                 dict(core_forward=-1e-9)])
def test_fabric_config_rejects_bad_values_at_construction(bad):
    with pytest.raises(ConfigError, match="bad fabric config"):
        FabricConfig(**bad)


def test_fabric_config_accepts_infinite_buffers():
    assert FabricConfig(credits=None).link_config("edge").credits is None
