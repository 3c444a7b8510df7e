"""Fresh-process set-up probe behind setup_s.

Imports cvbounds (or cvbounds.cli for the cli workload) and builds the
named workload's configs and plans once, then exits. run.py times whole
runs of this script; run it from a checkout root with PYTHONPATH=src:

    python3 perfbench/setup_probe.py grid
"""

import sys

import workloads

workloads.make(sys.argv[1]).ready()
