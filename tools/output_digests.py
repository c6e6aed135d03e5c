"""Print where isowrist's output digests hold, then the SHA-256 digests that pin it, one "<name> <value>" line each.

Run from a checkout, against the package tree on PYTHONPATH:

    PYTHONPATH=src python3 tools/output_digests.py

Two trees with equal digests give the same verify results and the same
oracle bits on the recipes below.  A change that claims "same output"
quotes both lines from each side.  The oracle hunts make it slow (about
22 s on 2 vCPUs), so the test suite runs only run_checks_digest (about
2 s) and pins its value.

The digests follow the BLAS kernel and numpy's SIMD code paths, so the
first lines say which ones ran:

- numpy: the numpy version;
- openblas-core and openblas-config: the core and build configuration of
  the OpenBLAS bundled with numpy, "unknown" where its symbols are not
  found;
- simd-dispatch: numpy's dispatch targets enabled on this CPU.

The digests:

- run-checks: the UTF-8 of repr(run_checks(0, s)) for s = 0..99, then of
  repr(run_checks(20000, 0)), concatenated with no separator.
- oracle-bits: for s = 0..99, the roots of oracle_root_hunt(20000, s) as
  <f8 bytes, then its iterations as <i8 bytes.
"""

import ctypes
import hashlib

import numpy as np

try:
    from numpy._core import _multiarray_umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath

from isowrist.checks import run_checks
from isowrist.solver import oracle_root_hunt

SEEDS = range(100)
ORACLE_STARTS = 20000


def _openblas_string(symbol: str) -> str:
    """The string an OpenBLAS getter of numpy's bundled library returns, or "unknown" where it has no such symbol.

    The library is a dependency of numpy's core extension, so a symbol
    lookup on that extension finds it.
    """
    getter = getattr(ctypes.CDLL(_multiarray_umath.__file__), symbol, None)
    if getter is None:
        return "unknown"
    getter.argtypes = []
    getter.restype = ctypes.c_char_p
    return getter().decode("ascii", "replace")


def kernel_lines() -> list:
    """The lines that say where the digests hold: numpy version, OpenBLAS core and config, SIMD dispatch targets."""
    features = _multiarray_umath.__cpu_features__
    targets = [name for name in _multiarray_umath.__cpu_dispatch__ if features.get(name)]
    return [
        f"numpy {np.__version__}",
        f"openblas-core {_openblas_string('scipy_openblas_get_corename64_')}",
        f"openblas-config {_openblas_string('scipy_openblas_get_config64_')}",
        f"simd-dispatch {' '.join(targets) or 'none'}",
    ]


def run_checks_digest() -> str:
    digest = hashlib.sha256()
    for seed in SEEDS:
        digest.update(repr(run_checks(0, seed)).encode("utf-8"))
    digest.update(repr(run_checks(ORACLE_STARTS, 0)).encode("utf-8"))
    return digest.hexdigest()


def oracle_bits_digest() -> str:
    digest = hashlib.sha256()
    for seed in SEEDS:
        report = oracle_root_hunt(ORACLE_STARTS, seed)
        digest.update(report.roots.astype("<f8").tobytes())
        digest.update(report.iterations.astype("<i8").tobytes())
    return digest.hexdigest()


def main() -> None:
    for line in kernel_lines():
        print(line, flush=True)
    print("run-checks", run_checks_digest(), flush=True)
    print("oracle-bits", oracle_bits_digest(), flush=True)


if __name__ == "__main__":
    main()
