"""Print the seconds a fresh process takes to import eulerreach and build the
inputs of one workload: its system, threshold ladder or CLI configuration.

Run from the repository root:  python3 perfbench/setup_probe.py <workload> <seed>
The time also covers the benchmark's own imports and numpy's, as a user's
first import of eulerreach would.
"""

import time

start = time.perf_counter()

import sys
from pathlib import Path

import workloads

er = workloads.import_package(Path.cwd())
workloads.build(er, sys.argv[1], int(sys.argv[2]))
print(time.perf_counter() - start)
