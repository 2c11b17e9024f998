"""Shared set-up for the benchmark scripts: thread caps and the import path.

The benchmark runs from the root of a source checkout and imports the
package from ``src/`` there, never from an installed copy, so the numbers
always belong to the tree being measured.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class SourceMissing(RuntimeError):
    """The checkout holds no ``src/dynmask`` package to measure."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> dict:
    """Keep every BLAS pool at most `nproc` threads; call before numpy loads."""
    cap = nproc()
    for var in BLAS_VARS:
        try:
            value = int(os.environ.get(var, cap))
        except ValueError:
            value = cap
        os.environ[var] = str(min(max(value, 1), cap))
    return {var: os.environ[var] for var in BLAS_VARS}


def import_dynmask():
    """Import the package, with its CLI, from this checkout's ``src/``."""
    if not (SRC / "dynmask" / "__init__.py").is_file():
        raise SourceMissing(f"no package source at {SRC / 'dynmask'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import dynmask
    import dynmask.cli  # loads every module the commands use
    if Path(dynmask.__file__).resolve().parent != SRC / "dynmask":
        raise SourceMissing(f"dynmask imported from {dynmask.__file__}, "
                            f"not from {SRC}")
    return dynmask
