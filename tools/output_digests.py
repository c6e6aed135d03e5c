"""Print the SHA-256 digests that pin isowrist's output, one "<name> <hex>" line each.

Run from a checkout, against the package tree on PYTHONPATH:

    PYTHONPATH=src python3 tools/output_digests.py

Two trees with equal digests give the same verify results and the same
oracle bits on the recipes below.  A change that claims "same output"
quotes both lines from each side.  The oracle hunts make it slow (about
22 s on 2 vCPUs), so the test suite runs only run_checks_digest (about
2 s) and pins its value.

- run-checks: the UTF-8 of repr(run_checks(0, s)) for s = 0..99, then of
  repr(run_checks(20000, 0)), concatenated with no separator.
- oracle-bits: for s = 0..99, the roots of oracle_root_hunt(20000, s) as
  <f8 bytes, then its iterations as <i8 bytes.
"""

import hashlib

from isowrist.checks import run_checks
from isowrist.solver import oracle_root_hunt

SEEDS = range(100)
ORACLE_STARTS = 20000


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
    print("run-checks", run_checks_digest(), flush=True)
    print("oracle-bits", oracle_bits_digest(), flush=True)


if __name__ == "__main__":
    main()
