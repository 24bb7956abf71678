"""Process environment and the per-run record.

Every process the benchmark starts gets :func:`child_env`: the source
tree on ``PYTHONPATH``, every BLAS thread pool pinned to one thread,
the program's opt-in disk cache off unless a workload names a cache
directory, and git kept from searching above the checkout.
:func:`run_record` stamps a run with what two runs must share before
their numbers are compared.
"""

from __future__ import annotations

import os
import pathlib
import platform

#: Thread-count variables of the BLAS/OpenMP runtimes numpy may use.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

#: Environment variables that would turn the program's disk cache on.
CACHE_VARS = ("REPRO_CACHE", "REPRO_CACHE_DIR")


def pin_blas(environ) -> None:
    """Pin every BLAS thread pool in ``environ`` to one thread."""
    for name in BLAS_THREAD_VARS:
        environ[name] = "1"


def child_env(root: pathlib.Path, cache_dir: pathlib.Path | None = None
              ) -> dict[str, str]:
    """Environment for a process started from checkout ``root``."""
    env = dict(os.environ)
    for name in CACHE_VARS:
        env.pop(name, None)
    if cache_dir is not None:
        env["REPRO_CACHE_DIR"] = str(cache_dir)
    pin_blas(env)
    src = str(root / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    env["GIT_CEILING_DIRECTORIES"] = str(root.resolve().parent)
    return env


def run_record(root: pathlib.Path) -> dict:
    """Machine and code identity of a run (imports the program)."""
    import numpy
    import scipy

    from repro.analysis.manifest import current_git_sha
    from repro.cache import model_schema_hash

    blas = "unknown"
    try:
        config = numpy.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "blas": blas,
        "blas_threads": {name: os.environ.get(name)
                         for name in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": current_git_sha(root),
        "schema_hash": model_schema_hash(),
    }
