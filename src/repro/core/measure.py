"""One testbed per measurement.

The paper's §V compares control modes on one fixed testbed per fabric, so
between two curves of Figs. 1–5 only the mode may differ.  These
functions are the one place that builds that testbed for a point, and the
mode alone picks the fabric, the queue or ring placement, the buffer and
the driver.

Every testbed is built in one order: cluster, connection(s),
``on_setup(cluster)``, driver.  The order fixes the event sequence
numbers that break ties; ``on_setup`` is the hook for observers that must
watch model objects (a telemetry plane) or read them afterwards (the
NIC's counters).  Every connection buffer is :func:`buffer_bytes` of the
message size: no modeled number depends on it, but trace attributes carry
buffer addresses.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..cluster import build_extoll_cluster, build_ib_cluster
from ..errors import ConfigError
from ..units import KIB
from .bandwidth import run_extoll_bandwidth, run_ib_bandwidth
from .message_rate import (
    MESSAGE_BYTES,
    run_extoll_message_rate,
    run_ib_message_rate,
)
from .modes import ExtollMode, IbMode, RateMethod
from .pingpong import run_extoll_pingpong, run_ib_pingpong
from .results import BandwidthPoint, LatencyPoint, RatePoint
from .setup import (
    setup_extoll_connection,
    setup_extoll_connections,
    setup_ib_connection,
    setup_ib_connections,
)

#: The smallest connection buffer a testbed gets.
MIN_BUFFER_BYTES = 64 * KIB


def buffer_bytes(size: int) -> int:
    """The send and receive buffer of a connection carrying ``size``-byte
    messages."""
    return max(size, MIN_BUFFER_BYTES)


def pingpong_modes(fabric: str) -> Tuple[str, ...]:
    """Every ping-pong mode name on ``fabric``: the paper's four, plus the
    offload engine's two on EXTOLL."""
    from ..engine import PINGPONG_CONFIGS

    _check_fabric(fabric)
    if fabric == "ib":
        return tuple(m.value for m in IbMode)
    return tuple(m.value for m in ExtollMode) + tuple(PINGPONG_CONFIGS)


def pingpong_mode(fabric: str, name: str):
    """The ping-pong mode called ``name`` on ``fabric``."""
    from ..engine import PINGPONG_CONFIGS

    valid = pingpong_modes(fabric)
    if name not in valid:
        raise ConfigError(f"unknown {fabric} mode {name!r} "
                          f"(choose from: {', '.join(valid)})")
    if fabric == "ib":
        return IbMode(name)
    return PINGPONG_CONFIGS.get(name) or ExtollMode(name)


def measure_pingpong(mode, size: int, iterations: int = 30, warmup: int = 3,
                     *, sim=None, node_config=None, nic_config=None,
                     on_setup=None) -> LatencyPoint:
    """One ping-pong point at ``size`` bytes.  ``mode`` is an
    :class:`ExtollMode`, an :class:`IbMode` (rings at
    ``mode.ring_location``) or an :class:`~repro.engine.EngineConfig`
    (the offload engine, on EXTOLL)."""
    from ..engine import EngineConfig, run_engine_pingpong

    if not isinstance(mode, (ExtollMode, IbMode, EngineConfig)):
        raise ConfigError(f"{mode!r} is not a ping-pong mode")
    cluster, conn = _testbed(mode, size, sim, node_config, nic_config,
                             on_setup)
    if isinstance(mode, EngineConfig):
        return run_engine_pingpong(cluster, conn, size, iterations, warmup,
                                   config=mode)
    run = run_ib_pingpong if isinstance(mode, IbMode) else run_extoll_pingpong
    return run(cluster, conn, mode, size, iterations, warmup)


def measure_bandwidth(mode, size: int, count: Optional[int] = None, *,
                      node_config=None) -> BandwidthPoint:
    """One streaming-bandwidth point of an :class:`ExtollMode` or an
    :class:`IbMode` at ``size`` bytes."""
    if not isinstance(mode, (ExtollMode, IbMode)):
        raise ConfigError(f"{mode!r} is not a bandwidth mode")
    cluster, conn = _testbed(mode, size, None, node_config, None, None)
    run = (run_ib_bandwidth if isinstance(mode, IbMode)
           else run_extoll_bandwidth)
    return run(cluster, conn, mode, size, count=count)


def measure_message_rate(method, connections: int, per_connection: int,
                         fabric: str = "extoll", *, sim=None, stats=None,
                         on_setup=None) -> RatePoint:
    """One message-rate point over ``connections`` connections.
    ``method`` is a :class:`RateMethod` or an
    :class:`~repro.engine.EngineConfig`, which runs the engine proxy on
    EXTOLL and fills ``stats`` when one is given.  On InfiniBand, blocks
    and kernels get rings in GPU memory and every other method host
    memory (Fig. 5)."""
    from ..engine import EngineConfig, run_engine_message_rate

    _check_fabric(fabric)
    engine = isinstance(method, EngineConfig)
    if not engine and not isinstance(method, RateMethod):
        raise ConfigError(f"{method!r} is not a message-rate method")
    if engine and fabric == "ib":
        raise ConfigError("the engine message rate runs on EXTOLL only")
    if stats is not None and not engine:
        raise ConfigError(f"{method.value} keeps no engine stats")
    buf = buffer_bytes(MESSAGE_BYTES)
    if fabric == "ib":
        location = ("gpu" if method in (RateMethod.BLOCKS, RateMethod.KERNELS)
                    else "host")
        cluster = build_ib_cluster(sim=sim)
        conns = setup_ib_connections(cluster, buf, connections, location)
    else:
        cluster = build_extoll_cluster(sim=sim)
        conns = setup_extoll_connections(cluster, buf, connections)
    if on_setup is not None:
        on_setup(cluster)
    if engine:
        return run_engine_message_rate(cluster, conns, method,
                                       per_connection, stats=stats)[0]
    run = run_ib_message_rate if fabric == "ib" else run_extoll_message_rate
    return run(cluster, conns, method, per_connection)


def _check_fabric(fabric: str) -> None:
    if fabric not in ("extoll", "ib"):
        raise ConfigError(f"unknown fabric {fabric!r} "
                          f"(choose from: extoll, ib)")


def _testbed(mode, size, sim, node_config, nic_config, on_setup):
    """The two-node cluster of ``mode``'s fabric and one connection for
    ``size``-byte messages, handed to ``on_setup`` once wired."""
    buf = buffer_bytes(size)
    if isinstance(mode, IbMode):
        cluster = build_ib_cluster(node_config, nic_config, sim=sim)
        conn = setup_ib_connection(cluster, buf, mode.ring_location)
    else:
        cluster = build_extoll_cluster(node_config, nic_config, sim=sim)
        conn = setup_extoll_connection(cluster, buf)
    if on_setup is not None:
        on_setup(cluster)
    return cluster, conn
