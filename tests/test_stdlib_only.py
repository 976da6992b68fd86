"""The simulator runs on the Python standard library alone.

numpy stays a test and example dependency (``pip install -e ".[test]"``);
importing the simulator and running a paper measurement must not load it.
The check runs in a fresh interpreter, because this test process may
already have imported numpy for other tests.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROGRAM = """
import sys

from repro import build_extoll_cluster
from repro.core import ExtollMode, measure_pingpong
from repro.units import KIB

cluster = build_extoll_cluster()
host = cluster.nodes[0].host_mem
host.write_u64(host.range.base, 0x1122334455667788)
assert host.read_u64(host.range.base) == 0x1122334455667788
# 64 KiB messages cross several DMA chunks, so the payload path runs too.
point = measure_pingpong(ExtollMode.DIRECT, 64 * KIB, iterations=2, warmup=1)
assert point.latency > 0
print(sorted(name for name in sys.modules if name.split(".")[0] == "numpy"))
"""


def test_simulator_runs_without_numpy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", PROGRAM], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
