"""PCIe fabric model: links, root-complex routing, peer-to-peer, DMA."""

from .dma import DmaConfig, DmaEngine
from .link import PcieLink, PcieLinkConfig
from .switch import FabricConfig, PcieFabric, PciePort
from .tlp import TLP_OVERHEAD_BYTES, Tlp, TlpKind

__all__ = [
    "DmaConfig",
    "DmaEngine",
    "PcieLink",
    "PcieLinkConfig",
    "FabricConfig",
    "PcieFabric",
    "PciePort",
    "Tlp",
    "TlpKind",
    "TLP_OVERHEAD_BYTES",
]
