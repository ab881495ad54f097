"""Process environment of a benchmark run: library path, BLAS threads, record.

Nothing here imports numpy at module level, because the BLAS thread
variables must be set before numpy is first imported.
"""

from __future__ import annotations

import ctypes
import importlib
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: the library's per-pair matrices are small, and a
# second thread makes timings depend on the load of a second core.
BLAS_THREADS = 1
LAYERS = (
    "algebra",
    "games",
    "builtins",
    "rigidity",
    "cooklevin",
    "transform",
    "optimize",
    "ncpo",
    "serialize",
    "cli",
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def load_syncgames():
    """Import ``syncgames`` and its layer modules from ``ROOT/src``.

    Sets every BLAS thread variable to one, whatever the caller set, and
    removes ``SYNCGAMES_THREADS``, so the library runs its serial path
    with the single BLAS thread that ``games.value`` asks for through
    ``threadpool_limits(limits=1)`` (a no-op when threadpoolctl is
    missing).  Exits with status 2 when the source tree is missing,
    rather than picking up some other installed copy.
    """
    package_dir = SRC / "syncgames"
    if not (package_dir / "__init__.py").is_file():
        print(f"error: no syncgames sources at {package_dir}", file=sys.stderr)
        raise SystemExit(2)
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("SYNCGAMES_THREADS", None)
    sys.path.insert(0, str(SRC))
    sg = importlib.import_module("syncgames")
    if Path(sg.__file__).resolve().parent != package_dir.resolve():
        print(f"error: imported syncgames from {sg.__file__}, not {package_dir}", file=sys.stderr)
        raise SystemExit(2)
    for name in LAYERS:
        importlib.import_module(f"syncgames.{name}")
    return sg


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed=None) -> dict:
    """What a result depends on besides the code: machine, versions, seed."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        import threadpoolctl  # noqa: F401

        threadpoolctl_imports = True
    except ImportError:
        threadpoolctl_imports = False
    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "blas_thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        # without threadpoolctl, threadpool_limits(limits=1) in games.value
        # is a no-op and value() runs with every BLAS thread
        "threadpoolctl_imports": threadpoolctl_imports,
        "syncgames_threads": os.environ.get("SYNCGAMES_THREADS"),
        "seed": seed,
    }
