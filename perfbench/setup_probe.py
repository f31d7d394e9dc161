"""Import moecast and build one walk-forward workload's inputs, then exit.

Usage: ``python3 perfbench/setup_probe.py WORKLOAD SEED``.  ``run.py`` times
this process from the outside as the workload's set-up.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

if __name__ == "__main__":
    workloads.wf_inputs(workloads.WF_SPECS[sys.argv[1]], int(sys.argv[2]))
