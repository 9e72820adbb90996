"""A fresh process that sets up one workload, then reports "ready".

``run.py`` times these from launch to the "ready" line for ``setup_s``:
interpreter start, importing ``repro``, building the specs or the
campaign, and constructing the executor and cache.

Usage: ``python3 perfbench/setup_probe.py <workload> <seed> <workdir>``
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import prepare  # noqa: E402

prepare(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
sys.stdout.write("ready\n")
sys.stdout.flush()
