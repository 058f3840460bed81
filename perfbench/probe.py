"""Set-up probe: a fresh interpreter imports polydisc and makes one warm-up
call into each entry point a workload uses, then exits.

    python3 perfbench/probe.py <workload>

run.py times this whole process from start to exit; that wall time is the
workload's set-up cost.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import WORKLOADS, warm_up  # noqa: E402

if __name__ == "__main__":
    warm_up(WORKLOADS[sys.argv[1]])
