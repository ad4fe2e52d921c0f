"""Environment manifest printed with every benchmark run."""

from __future__ import annotations

import ctypes
import os
import platform
import re
import subprocess

_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads")


def _blas_threads() -> dict:
    """Thread count of every OpenBLAS loaded into this process, asked of the
    library itself (numpy and scipy may each bundle one)."""
    found = {}
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({m.group(1) for m in re.finditer(r"(/\S*openblas\S*\.so\S*)", fh.read())})
    except OSError:
        return found
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in _THREAD_QUERIES:
            query = getattr(lib, name, None)
            if query is not None:
                query.restype = ctypes.c_int
                found[os.path.basename(path)] = int(query())
                break
    return found


def _git_revision(root: str) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        done = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def manifest(root: str) -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  loads scipy's BLAS

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                 "MKL_NUM_THREADS") if k in os.environ},
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "git_revision": _git_revision(root),
    }
