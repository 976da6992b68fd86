"""The paper's contribution: GPU-resident put/get APIs on two NICs, the four
control configurations per fabric, and the microbenchmark programs that
evaluate them."""

from .bandwidth import default_message_count, run_extoll_bandwidth, run_ib_bandwidth
from .counters import (
    measure_extoll_polling_counters,
    measure_ib_buffer_counters,
    measure_single_op_instructions,
)
from .future import gpu_rma_post_wide, run_future_extoll_pingpong
from .msglib import (
    Channel,
    ChannelEnd,
    create_channel,
    create_channel_between,
    gpu_recv,
    gpu_recv_ready,
    gpu_send,
)
from .gpu_rma import (
    GpuNotificationCursor,
    gpu_rma_post,
    gpu_rma_wait_notification,
)
from .gpu_verbs import (
    GpuCqConsumer,
    gpu_poll_cq,
    gpu_post_recv,
    gpu_post_send,
    gpu_wait_cq,
)
from .message_rate import run_extoll_message_rate, run_ib_message_rate
from .modes import ExtollMode, FabricKind, IbMode, RateMethod
from .pingpong import run_extoll_pingpong, run_ib_pingpong
from .results import (
    BandwidthPoint,
    CounterReport,
    LatencyPoint,
    RatePoint,
    Series,
    render_bandwidth_table,
    render_counter_table,
    render_latency_table,
    render_rate_table,
)
from .setup import (
    ExtollConnection,
    ExtollEnd,
    IbConnection,
    IbEnd,
    setup_extoll_connection,
    setup_extoll_connections,
    setup_ib_connection,
    setup_ib_connections,
)

__all__ = [
    "ExtollMode", "IbMode", "RateMethod", "FabricKind",
    "gpu_rma_post_wide", "run_future_extoll_pingpong",
    "Channel", "ChannelEnd", "create_channel", "create_channel_between",
    "gpu_send", "gpu_recv", "gpu_recv_ready",
    "GpuNotificationCursor", "gpu_rma_post", "gpu_rma_wait_notification",
    "GpuCqConsumer", "gpu_post_send", "gpu_post_recv", "gpu_poll_cq",
    "gpu_wait_cq",
    "run_extoll_pingpong", "run_ib_pingpong",
    "run_extoll_bandwidth", "run_ib_bandwidth", "default_message_count",
    "run_extoll_message_rate", "run_ib_message_rate",
    "measure_extoll_polling_counters", "measure_ib_buffer_counters",
    "measure_single_op_instructions",
    "LatencyPoint", "BandwidthPoint", "RatePoint", "Series", "CounterReport",
    "render_latency_table", "render_bandwidth_table", "render_rate_table",
    "render_counter_table",
    "ExtollConnection", "ExtollEnd", "IbConnection", "IbEnd",
    "setup_extoll_connection", "setup_extoll_connections",
    "setup_ib_connection", "setup_ib_connections",
]
