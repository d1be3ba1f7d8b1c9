"""One BLAS thread per process while Monte Carlo work runs.

The statistics kernels multiply small blocks (m=2 response columns on the
power protocol), where OpenBLAS's own threads cost more than they save, and
pool workers that each start a full set of BLAS threads oversubscribe the
cores.  ``one_thread`` therefore caps every OpenBLAS copy that the NumPy and
SciPy wheels vendor at one thread and restores the previous counts on exit;
parallelism comes only from the worker pool.

The copies are found by their exported setter/getter pairs, called through
ctypes: NumPy's 64-bit-integer build exports ``scipy_openblas_*64_``,
SciPy's the unsuffixed names.  A BLAS without these symbols (MKL,
Accelerate, a system OpenBLAS) is left alone: ``managed()`` is then False.
The libraries are looked up on first use, not at import.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from functools import cache
from pathlib import Path

import numpy as np
import scipy

_PAIRS = (("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
          ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"))


def _vendored_libraries() -> list[Path]:
    """OpenBLAS files shipped inside the NumPy and SciPy wheels: ``<pkg>.libs``
    beside the package (Linux, Windows) or ``<pkg>/.dylibs`` (macOS)."""
    found = []
    for pkg in (np, scipy):
        root = Path(pkg.__file__).resolve().parent
        for d in (root.parent / f"{root.name}.libs", root / ".dylibs"):
            if d.is_dir():
                found += sorted(d.glob("*openblas*"))
    return found


@cache
def _thread_controls() -> tuple:
    """(setter, getter) per OpenBLAS copy that exports one of ``_PAIRS``."""
    controls = []
    for path in _vendored_libraries():
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for set_name, get_name in _PAIRS:
            setter, getter = getattr(lib, set_name, None), getattr(lib, get_name, None)
            if setter is not None and getter is not None:
                controls.append((setter, getter))
                break
    return tuple(controls)


def managed() -> bool:
    """Whether ``one_thread`` can set the BLAS thread count here."""
    return bool(_thread_controls())


def thread_counts() -> tuple[int, ...]:
    """Current thread count of each managed OpenBLAS copy (empty if none)."""
    return tuple(get() for _, get in _thread_controls())


@contextmanager
def one_thread():
    """Run the block with every managed OpenBLAS copy at one thread."""
    controls = _thread_controls()
    before = [get() for _, get in controls]
    for setter, _ in controls:
        setter(1)
    try:
        yield
    finally:
        for (setter, _), n in zip(controls, before):
            setter(n)
