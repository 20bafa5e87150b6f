"""The kernel-keyed golden digests of ``tests/test_golden_outputs.py``, taken afresh.

    python3 tests/golden_digests.py TABLE [ROW ...] [--coretype NAME ...]

TABLE is one of that module's ``KEYED`` tables: GOLDEN_VERIFY, GOLDEN_SWEEPS, GOLDEN_SCATTER,
GOLDEN_BOUNDS, GOLDEN_JN or GOLDEN_SAMPLE.  For each named row, or every row of TABLE if none
is named, it prints one line ``ROW KERNEL DIGEST ...``: the OpenBLAS kernel that ran
(``conftest.blas_kernel``) and the sha256 of each output the row pins, in the row's order.
Each row runs serially in its own temporary directory.  Without --coretype the rows run in
this interpreter; with it, in one fresh interpreter per NAME, with ``OPENBLAS_CORETYPE=NAME``
(OpenBLAS may map a NAME to another kernel: this build runs Zen as Haswell).  pytest does not
collect this file (no ``test_`` prefix).
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(1, str(Path(__file__).resolve().parent.parent / "src"))

from conftest import blas_kernel  # noqa: E402  (src/ must be on sys.path first)
from test_golden_outputs import KEYED, digest  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("table", choices=sorted(KEYED))
    parser.add_argument("rows", nargs="*", metavar="ROW")
    parser.add_argument("--coretype", nargs="+", default=[], metavar="NAME")
    args = parser.parse_args()
    table, run = KEYED[args.table]
    ids = [row.id for row in table]
    for row in args.rows:
        if row not in ids:
            parser.error(f"{args.table} has no row {row!r}; its rows are {', '.join(ids)}")
    for name in args.coretype:  # each kernel in a fresh interpreter, which prints its lines
        subprocess.run([sys.executable, __file__, args.table, *args.rows],
                       env={**os.environ, "OPENBLAS_CORETYPE": name}, check=True)
    if args.coretype:
        return 0
    os.environ["BELLBOUND_THREADS"] = "1"
    for row in table:
        if args.rows and row.id not in args.rows:
            continue
        with tempfile.TemporaryDirectory() as directory:
            os.chdir(directory)
            outputs = run(*row.values[:-1])
            os.chdir(Path(__file__).parent)
        outputs = outputs if isinstance(outputs, tuple) else (outputs,)
        print(row.id, blas_kernel(), *map(digest, outputs), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
