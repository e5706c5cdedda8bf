"""Time one workload's set-up in a fresh interpreter.

Prints the seconds from before `import riccisym` until the workload's
inputs are parsed into tensors (or CLI configs).  Run by bench/run.py:

    python3 bench/setup_probe.py <src dir> <workload> <work dir>
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])

import workloads  # noqa: E402  (imports riccisym)

workloads.build(sys.argv[2], workloads.Path(sys.argv[3]))
print(repr(time.perf_counter() - t0))
