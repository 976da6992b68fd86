"""The Address Translation Unit and Network Logical Addresses.

EXTOLL's RMA unit addresses memory through a global space of Network Logical
Addresses (NLAs).  Registering a memory region with the ATU yields an NLA
range; put/get descriptors carry NLAs, and the NIC translates them back to
node-physical addresses on access (§III-A, §III-B).

The paper's GPU extension is a driver patch that lets the ATU translate
*MMIO/BAR1* addresses — i.e. GPU memory exposed through GPUDirect — into
NLAs as well (§III-C); here any physical range present in the node's address
map can be registered, which models exactly that patched behaviour.
"""

from __future__ import annotations

from ..errors import RegistrationError
from ..memory import AddressRange, TranslationTable

# NLAs live in their own space; this base keeps them visibly distinct from
# physical addresses in traces and dumps.
NLA_BASE = 0x6000_0000_0000
NLA_PAGE = 4096


class Atu:
    """Per-NIC registration table: NLA range <-> physical range."""

    def __init__(self, name: str = "atu") -> None:
        self.name = name
        self._table = TranslationTable(name)
        self._next_nla = NLA_BASE
        self.registrations = 0

    def register(self, phys: AddressRange) -> AddressRange:
        """Register a physical range; returns its NLA window.

        Ranges are rounded up to NLA pages, as the real ATU is page-granular.
        """
        if phys.size <= 0:
            raise RegistrationError(f"cannot register empty range {phys}")
        pages = (phys.size + NLA_PAGE - 1) // NLA_PAGE
        nla = AddressRange(self._next_nla, pages * NLA_PAGE)
        self._next_nla += (pages + 1) * NLA_PAGE  # guard page between windows
        # Only phys.size bytes are backed; the tail of the last page is not
        # accessible (translate() bounds to the true physical size).
        self._table.map(AddressRange(nla.base, phys.size), phys.base)
        self.registrations += 1
        return AddressRange(nla.base, phys.size)

    def translate(self, nla: int, length: int = 1) -> int:
        """NLA -> node-physical address; raises TranslationError on a miss,
        which the hardware would surface as an RMA error notification."""
        return self._table.translate(nla, length)
