"""Import boundaries: a package loads only the modules a caller uses.

Package ``__init__`` files re-export lazily, so ``import repro`` loads
no subpackage, and running one spec loads the simulator stack but none
of the orchestration layers (dispatch, observability, campaigns,
analysis, the chip model, resilience, benchmarks) or the stdlib HTTP
client they pull in.
"""

import json
import os
import subprocess
import sys

_PROBE = """
import json, sys
import repro
root = sorted(name for name in sys.modules if name.startswith("repro."))
from repro.network.config import SimulationConfig
from repro.runtime.spec import RunSpec, execute_spec
execute_spec(RunSpec(topology="mesh_x1", workload="uniform", rate=0.02,
                     config=SimulationConfig(frame_cycles=2000),
                     cycles=200, warmup=50))
print(json.dumps({"root": root, "spec": sorted(sys.modules)}))
"""

#: Packages and modules a plain spec run must never import.
_UNUSED = (
    "repro.dispatch",
    "repro.obs",
    "repro.campaign",
    "repro.analysis",
    "repro.core",
    "repro.resilience",
    "repro.runtime.bench",
    "http.client",
    "urllib.request",
)


def _fresh_process_modules() -> dict:
    src_dir = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(src_dir)
    out = subprocess.run(
        [sys.executable, "-c", _PROBE], capture_output=True, text=True,
        env=env, check=True,
    )
    return json.loads(out.stdout)


def test_import_boundaries():
    modules = _fresh_process_modules()
    subpackages = [name for name in modules["root"] if name != "repro._lazy"]
    assert subpackages == []
    loaded = set(modules["spec"])
    assert "repro.network.engine" in loaded
    leaked = sorted(
        name for name in loaded
        for unused in _UNUSED
        if name == unused or name.startswith(unused + ".")
    )
    assert leaked == []
