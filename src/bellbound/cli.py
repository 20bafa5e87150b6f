"""Command-line front end; one subcommand per library operation.

Exit codes: 0 success, 1 domain error (one-line diagnostic on stderr; one
line per theorem violation of ``sweep`` or per oracle gap beyond
``ORACLE_TOL`` of ``verify``), 2 usage error (argparse).  Every number is
printed with repr so re-parsing the output reproduces the value bit-for-bit.
Each handler imports the modules it runs, so a call loads no other one.
"""

from __future__ import annotations

import argparse
import contextlib
import re
import sys

import numpy as np

from . import schmidt_state
from .errors import BellboundError, InvalidDimensionError, InvariantError, integer_arg
from .tolerances import MIN_GRID_POINTS, ORACLE_TOL

__all__ = ["main", "run", "build_parser"]


_SIGNED_VALUE = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


class _ArgumentParser(argparse.ArgumentParser):
    """Argument parser that reads a token opening with a signed number as a value.

    Stock argparse classifies a token such as ``-1,1;1,1`` as an unknown
    option, so ``--matrix -1,1;1,1`` would end in "expected one argument".
    No option of this CLI starts with ``-`` followed by a digit, ``inf`` or
    ``nan``.
    """

    def _parse_optional(self, arg_string):
        if _SIGNED_VALUE.match(arg_string):
            return None
        return super()._parse_optional(arg_string)


def _coeffs_flag(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--coeffs expects comma-separated reals, got {text!r}"
        ) from None


def _matrix_flag(text: str):
    from .bell_operators import BellCoefficientMatrix

    try:
        rows = [[float(tok) for tok in row.split(",")] for row in text.split(";")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--matrix expects ';'-separated rows of comma-separated reals, got {text!r}"
        ) from None
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise argparse.ArgumentTypeError(f"--matrix must be square, got {text!r}")
    try:
        return BellCoefficientMatrix(np.array(rows))
    except InvariantError as exc:
        raise argparse.ArgumentTypeError(f"--matrix {exc}, got {text!r}") from None


def _int_flag(*bounds: int):
    """Argparse type: the flag's text as an int through ``integer_arg(..., *bounds)``,
    whose error argparse reports as a usage error (exit 2)."""

    def parse(text: str) -> int:
        with contextlib.suppress(ValueError):  # text that is no integer stays text
            text = int(text)
        try:
            return integer_arg("value", text, *bounds)
        except InvalidDimensionError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _dims_flag(text: str) -> tuple[int, ...]:
    dims = tuple(map(_int_flag(1), text.split(",")))
    if len(set(dims)) != len(dims):
        raise argparse.ArgumentTypeError(f"--dims entries must be distinct, got {text!r}")
    return dims


def _second_dim(args) -> int:
    """``--n``, which defaults to ``--m``; below ``--m`` it is a usage error."""
    n = args.n if args.n is not None else args.m
    if n < args.m:
        raise argparse.ArgumentTypeError(f"--n must be >= --m, got n={n} < m={args.m}")
    return n


def _cmd_concurrence(args) -> int:
    s = schmidt_state.new_schmidt(args.coeffs)
    print(f"coeffs = {s.to_json()}")
    print(f"concurrence = {schmidt_state.concurrence(s)!r}")
    return 0


def _cmd_bell(args) -> int:
    from . import bounds

    s = schmidt_state.new_schmidt(args.coeffs)
    print(f"coeffs = {s.to_json()}")
    print(f"k = {bounds.k_value(s)!r}")
    print(f"gamma = {bounds.gamma_value(s)!r}")
    print(f"theta_star = {bounds.theta_star(s)!r}")
    print(f"bell_value = {bounds.bell_value_formula(s)!r}")
    return 0


def _cmd_bounds(args) -> int:
    from . import bounds

    s = schmidt_state.new_schmidt(args.coeffs)
    print(bounds.bound_report(s).to_json())
    return 0


def _cmd_jn(args) -> int:
    from . import bounds

    print(repr(bounds.classical_bound(args.matrix)))
    return 0


def _cmd_sample(args) -> int:
    n = _second_dim(args)  # checked for either measure, though only Haar draws on n
    rng = (np.random.default_rng(args.seed) if args.index is None
           else schmidt_state.substream(args.seed, args.m, args.index))
    if args.measure == "haar":
        s = schmidt_state.sample_haar(args.m, n, rng)
    else:
        s = schmidt_state.sample_simplex(args.m, rng)
    print(s.to_json())
    return 0


def _cmd_sweep(args) -> int:
    from . import harness

    config = harness.ExperimentConfig(dims=args.dims, samples=args.samples, seed=args.seed,
                                      measure=args.measure, second_dim_offset=args.offset,
                                      output_path=args.out)
    summary = harness.run_sweep(config)
    print(f"measure = {summary.measure}")
    print(f"seed = {summary.seed}")
    print(f"samples_per_dim = {summary.samples_per_dim}")
    print(f"records_written = {summary.records_written}")
    for d in summary.per_dim:
        print(
            f"m={d.m} n={d.n} samples={d.samples}"
            f" min_theorem1_margin={d.min_theorem1_margin!r}"
            f" min_theorem2_margin={d.min_theorem2_margin!r}"
            f" max_concurrence={d.max_concurrence!r}"
            f" violations={d.violations}"
        )
    print(f"violations = {len(summary.violations)}")
    print(f"out = {args.out}")
    if summary.violations:
        for v in summary.violations:
            print(
                f"error: TheoremViolation: m={v.m} index={v.index} {v.check}"
                f" margin={v.margin!r}",
                file=sys.stderr,
            )
        return 1
    return 0


def _cmd_verify(args) -> int:
    from . import harness

    config = harness.ExperimentConfig(dims=(args.m,), samples=args.samples, seed=args.seed,
                                      measure=args.measure,
                                      second_dim_offset=_second_dim(args) - args.m)
    summary = harness.verify_oracle(config, grid_points=args.grid)
    print(f"measure = {summary.measure}")
    print(f"seed = {summary.seed}")
    print(f"samples_per_dim = {summary.samples_per_dim}")
    print(f"grid_points = {summary.grid_points}")
    for d in summary.per_dim:
        print(f"m={d.m} n={d.n} samples={d.samples} max_gap={d.max_gap!r}")
    print(f"max_gap = {summary.max_gap!r}")
    gaps = [d for d in summary.per_dim if not d.max_gap <= ORACLE_TOL]
    for d in gaps:
        print(f"error: OracleGap: m={d.m} n={d.n} max_gap={d.max_gap!r}", file=sys.stderr)
    return 1 if gaps else 0


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="bellbound",
        description="Bell values and concurrence bounds for bipartite pure states.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("concurrence", help="concurrence of a coefficient vector")
    p.add_argument("--coeffs", type=_coeffs_flag, required=True,
                   help="comma-separated amplitudes, e.g. 0.8,0.6")
    p.set_defaults(func=_cmd_concurrence)

    p = sub.add_parser("bell", help="closed-form Bell value and its parameters")
    p.add_argument("--coeffs", type=_coeffs_flag, required=True)
    p.set_defaults(func=_cmd_bell)

    p = sub.add_parser("bounds", help="full bound report as JSON")
    p.add_argument("--coeffs", type=_coeffs_flag, required=True)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("jn", help="exhaustive classical bound of a coefficient matrix")
    p.add_argument("--matrix", type=_matrix_flag, required=True,
                   help="rows separated by ';', entries by ',', e.g. 1,1;1,-1")
    p.set_defaults(func=_cmd_jn)

    p = sub.add_parser("sample", help="draw one random state")
    p.add_argument("--m", type=_int_flag(1), required=True)
    p.add_argument("--n", type=_int_flag(1), default=None)
    p.add_argument("--seed", type=_int_flag(0, 2**64), required=True)
    p.add_argument("--measure", choices=schmidt_state.MEASURES, default="haar")
    p.add_argument("--index", type=_int_flag(0), default=None,
                   help="replay sweep record INDEX of (seed, m); for a Haar sweep "
                        "pass --n as m plus its --offset")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("sweep", help="Monte-Carlo theorem sweep to JSONL")
    p.add_argument("--dims", type=_dims_flag, required=True,
                   help="comma-separated m values, e.g. 2,4,6")
    p.add_argument("--samples", type=_int_flag(1), required=True)
    p.add_argument("--seed", type=_int_flag(0, 2**64), required=True)
    p.add_argument("--measure", choices=schmidt_state.MEASURES, default="haar")
    p.add_argument("--out", required=True, help="JSONL output path")
    p.add_argument("--offset", type=_int_flag(0), default=0,
                   help="n = m + offset for the second factor (default 0)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify", help="closed formula vs dense grid oracle")
    p.add_argument("--m", type=_int_flag(1), required=True)
    p.add_argument("--n", type=_int_flag(1), default=None)
    p.add_argument("--samples", type=_int_flag(1), required=True)
    p.add_argument("--grid", type=_int_flag(MIN_GRID_POINTS), default=720)
    p.add_argument("--seed", type=_int_flag(0, 2**64), required=True)
    p.add_argument("--measure", choices=schmidt_state.MEASURES, default="haar")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except argparse.ArgumentTypeError as exc:
        parser.error(str(exc))  # exits 2
    except BellboundError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    """Console-script entry point."""
    raise SystemExit(main())
