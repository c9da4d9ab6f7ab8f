"""Cold start: import qrev and complete the first request of every workload.

``run.py`` times this script as a fresh process to report ``setup_s``. Run it
from the repository root with ``src`` on PYTHONPATH:

    PYTHONPATH=src python3 perfbench/coldstart.py SEED
"""

import os
import shutil
import sys

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    seed = int(sys.argv[1])
    workdir = os.path.join(ROOT, ".bench_out", f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        for name in workloads.WORKLOADS:
            workload = workloads.make(name, workdir)
            workload.run(workload.prepare(seed, 0))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
