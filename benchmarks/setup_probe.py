"""One benchmark set-up in a fresh interpreter: imports, data generation, CSV write.

    python3 benchmarks/setup_probe.py N SEED CSV_PATH

``run.py`` times this process from start to exit to get ``setup_s``.
"""

import sys
from pathlib import Path

import env

env.pin_blas_threads()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import graphcoupling.cli  # noqa: E402,F401  the entry point every fit goes through
from workloads import write_dataset  # noqa: E402

if __name__ == "__main__":
    n, seed, path = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
    write_dataset(path, n, seed)
