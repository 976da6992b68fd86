"""Per-figure/table experiment drivers, ablations, and report rendering."""

from .ablations import (
    AblationResult,
    ablate_asic_nic,
    ablate_connection_sharing,
    ablate_endianness_conversion,
    ablate_future_interface,
    ablate_notification_placement,
    ablate_p2p_pathology,
)
from .figures import (
    BANDWIDTH_SIZES,
    CONNECTION_COUNTS,
    FIG3_SIZES,
    LATENCY_SIZES,
    fig1a_extoll_latency,
    fig1b_extoll_bandwidth,
    fig2_extoll_message_rate,
    fig3_polling_ratio,
    fig4a_ib_latency,
    fig4b_ib_bandwidth,
    fig5_ib_message_rate,
)
from .tables import (
    PAPER_SINGLE_OP,
    PAPER_TABLE1,
    PAPER_TABLE2,
    single_op_costs,
    table1_extoll_polling,
    table2_ib_buffers,
)

__all__ = [
    "AblationResult",
    "ablate_asic_nic",
    "ablate_future_interface",
    "ablate_connection_sharing",
    "ablate_endianness_conversion",
    "ablate_notification_placement",
    "ablate_p2p_pathology",
    "fig1a_extoll_latency",
    "fig1b_extoll_bandwidth",
    "fig2_extoll_message_rate",
    "fig3_polling_ratio",
    "fig4a_ib_latency",
    "fig4b_ib_bandwidth",
    "fig5_ib_message_rate",
    "LATENCY_SIZES",
    "BANDWIDTH_SIZES",
    "FIG3_SIZES",
    "CONNECTION_COUNTS",
    "table1_extoll_polling",
    "table2_ib_buffers",
    "single_op_costs",
    "PAPER_TABLE1",
    "PAPER_TABLE2",
    "PAPER_SINGLE_OP",
]
