"""frustumbox: automatic 3D box annotation from 2D boxes and LiDAR frustums."""

import os
import sys

# Reproducibility contract: identical inputs and seeds give bit-identical
# results, and permuting a batch permutes outputs bit-exactly. Multithreaded
# BLAS can split reductions differently depending on system load, which
# silently breaks both guarantees, so the pools this process uses are pinned
# to one thread. Desk-scale matrices gain essentially nothing from more.
# The variables only reach a BLAS loaded after this point; one that numpy
# already loaded is pinned through its own entry points below.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")


def _pin_openblas():
    """Set every loaded OpenBLAS to one thread through ctypes.

    Returns True when each one then reports a single thread.
    """
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.rsplit("/", 1)[-1]})
    except OSError:
        return False
    pinned = 0
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            return False
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            setter = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if setter is not None and getter is not None:
                break
        else:
            return False
        setter.argtypes, setter.restype = [ctypes.c_int], None
        getter.argtypes, getter.restype = [], ctypes.c_int
        setter(1)
        if getter() != 1:
            return False
        pinned += 1
    return pinned > 0


def _pin_blas():
    """Pin the BLAS numpy uses to one thread; True when that is confirmed."""
    import numpy  # noqa: F401 - loads the BLAS library before it is pinned

    try:
        from threadpoolctl import threadpool_info, threadpool_limits
    except ImportError:
        return _pin_openblas()
    threadpool_limits(limits=1, user_api="blas")
    pools = [p for p in threadpool_info() if p["user_api"] == "blas"]
    return bool(pools) and all(p["num_threads"] == 1 for p in pools)


# True when the BLAS thread pool is confirmed at one thread.
BLAS_SINGLE_THREAD = _pin_blas()
if not BLAS_SINGLE_THREAD:
    print("warning: frustumbox could not confirm a single BLAS thread; reruns and "
          "batch permutations may differ at the last bit", file=sys.stderr)

__version__ = "0.1.0"
