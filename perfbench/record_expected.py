"""Re-record ``expected/seed1.json``, the oracle for the default seed.

Engine expectations come from the frozen golden engine; campaign rows
from a serial, uncached run of the smoke campaign.  Run it only after
an intentional behaviour change (which also re-records
``CAMPAIGN_baseline.json``)::

    python3 perfbench/record_expected.py
"""

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads as wl  # noqa: E402


def main() -> None:
    data = {
        "pvc_adversarial": wl.derive_expected("pvc_adversarial", wl.DEFAULT_SEED, None)
    }
    with tempfile.TemporaryDirectory() as scratch:
        data["smoke_campaign"] = wl.derive_expected(
            "campaign_cold", wl.DEFAULT_SEED, Path(scratch)
        )
    wl.EXPECTED_FILE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {wl.EXPECTED_FILE}")


if __name__ == "__main__":
    main()
