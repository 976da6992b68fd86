"""The communication configurations evaluated in the paper (§V)."""

from __future__ import annotations

import enum


class ExtollMode(enum.Enum):
    """EXTOLL latency/bandwidth configurations (Fig. 1)."""

    DIRECT = "dev2dev-direct"              # GPU posts, GPU polls notifications
    POLL_ON_GPU = "dev2dev-pollOnGPU"      # GPU posts, polls last element in device mem
    ASSISTED = "dev2dev-assisted"          # GPU triggers a CPU proxy via a flag
    HOST_CONTROLLED = "dev2dev-hostControlled"  # CPU controls everything


class IbMode(enum.Enum):
    """InfiniBand latency/bandwidth configurations (Fig. 4)."""

    BUF_ON_GPU = "dev2dev-bufOnGPU"        # GPU controls; WQ/CQ rings in GPU memory
    BUF_ON_HOST = "dev2dev-bufOnHost"      # GPU controls; rings in host memory
    ASSISTED = "dev2dev-assisted"          # CPU proxy runs the verbs; rings in host memory
    HOST_CONTROLLED = "dev2dev-hostControlled"  # CPU controls; rings in host memory

    @property
    def ring_location(self) -> str:
        """Where the mode's WQ/CQ rings live, as ``setup_ib_connection``'s
        ``buffer_location``: GPU memory for bufOnGPU only."""
        return "gpu" if self is IbMode.BUF_ON_GPU else "host"


class RateMethod(enum.Enum):
    """Message-rate methods (Figs. 2 and 5)."""

    BLOCKS = "dev2dev-blocks"              # one CUDA block per connection
    KERNELS = "dev2dev-kernels"            # one single-block kernel per stream
    ASSISTED = "dev2dev-assisted"          # one CPU proxy serves all blocks
    HOST_CONTROLLED = "dev2dev-hostControlled"
