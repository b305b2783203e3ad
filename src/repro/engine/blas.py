"""One BLAS thread per pool worker.

numpy and scipy ship OpenBLAS, which starts one thread per core.  A
process pool of ``workers`` processes would then run ``workers`` times
that many BLAS threads (``eigvalsh`` in graph-feature extraction) on the
same cores.  The extraction pool in :mod:`repro.engine.scan` calls
:func:`limit_blas_threads` when a worker starts, so parallelism comes
from the workers alone.

A forked worker inherits an OpenBLAS that read ``OPENBLAS_NUM_THREADS``
when the parent loaded it, so setting the variable in the worker changes
nothing; the thread count is set through OpenBLAS's own C entry point
instead.  The loaded libraries are looked up in ``/proc/self/maps`` on
every call, so the module keeps no state.
"""

from __future__ import annotations

import ctypes
import os
from typing import Any, List, Optional

#: Symbol decorations of the OpenBLAS builds in circulation: the plain
#: library, 64-bit-integer builds (``64_`` / ``_64`` suffix) and the
#: ``scipy_``-prefixed builds bundled in numpy and scipy wheels.
_SYMBOL_PREFIXES = ("", "scipy_")
_SYMBOL_SUFFIXES = ("", "64_", "_64")


def loaded_openblas(maps: str = "/proc/self/maps") -> List[ctypes.CDLL]:
    """Handles on the OpenBLAS libraries already loaded in this process.

    ``maps`` is the process memory map to read; an unreadable map yields
    an empty list.  Libraries are opened with ``RTLD_NOLOAD``, so a
    library that is not loaded already is never loaded.
    """
    try:
        with open(maps, encoding="utf-8", errors="replace") as handle:
            lines = handle.read().splitlines()
    except OSError:
        return []
    paths: List[str] = []
    for line in lines:
        fields = line.split(None, 5)
        if len(fields) == 6 and "openblas" in os.path.basename(fields[5]).lower():
            if fields[5] not in paths:
                paths.append(fields[5])
    libraries = []
    for path in paths:
        try:
            libraries.append(ctypes.CDLL(path, mode=os.RTLD_NOLOAD))
        except OSError:
            continue
    return libraries


def openblas_function(library: ctypes.CDLL, name: str) -> Optional[Any]:
    """``library``'s ``openblas_<name>`` entry point under any decoration."""
    for prefix in _SYMBOL_PREFIXES:
        for suffix in _SYMBOL_SUFFIXES:
            try:
                return getattr(library, f"{prefix}openblas_{name}{suffix}")
            except AttributeError:
                continue
    return None


def limit_blas_threads(maps: str = "/proc/self/maps") -> None:
    """Set every OpenBLAS loaded in the calling process to one thread.

    The worker initializer of both extraction process pools.  Does nothing
    where no OpenBLAS is loaded or ``maps`` cannot be read.
    """
    for library in loaded_openblas(maps):
        setter = openblas_function(library, "set_num_threads")
        if setter is not None:
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            setter(1)
