"""BLAS thread pinning and the environment record kept with every result.

Import this module, and call :func:`pin_blas_threads`, before numpy is
imported anywhere in the process: OpenBLAS reads its thread count once,
when it is loaded.
"""

import os
import platform
import subprocess
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads() -> int:
    """Cap the BLAS thread count at the number of usable cores.

    An explicit OPENBLAS_NUM_THREADS below that is kept.  Child processes
    inherit the setting.
    """
    cores = nproc()
    try:
        wanted = int(os.environ.get("OPENBLAS_NUM_THREADS", cores))
    except ValueError:
        wanted = cores
    threads = max(1, min(cores, wanted))
    for name in THREAD_VARS:
        os.environ[name] = str(threads)
    return threads


def _getconf(name: str):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True,
                             timeout=10, check=True).stdout.strip()
        return int(out)
    except (OSError, subprocess.SubprocessError, ValueError):
        return None


def _git_commit(root: Path):
    """Commit of a git checkout at ``root``, read from its files; None elsewhere."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "git_commit": _git_commit(root),
    }
