"""Command-line front end; one subcommand per library operation.

Exit codes: 0 success, 1 domain error (one-line diagnostic on stderr; one
line per kept theorem violation of ``sweep`` or per oracle gap beyond
``ORACLE_TOL`` of ``verify``), 2 usage error (argparse), 128 + N on signal N.
Every number is printed in shortest round-trip form, so re-parsing the output
reproduces it bit-for-bit.  Each handler imports the modules it runs, so a call loads no other one.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import os
import re
import signal
import sys

import numpy as np

from . import schmidt_state
from .errors import BellboundError, InvalidDimensionError, InvariantError, integer_arg
from .tolerances import MIN_GRID_POINTS, ORACLE_TOL

__all__ = ["main", "run", "build_parser"]


# "-" and a digit, ".", "inf" or "nan" opens a value (``--matrix -1,1;1,1``): argparse asks
# _negative_number_matcher once no option matches a token, and no option here opens so
_SIGNED_VALUE = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


def _coeffs_flag(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--coeffs expects comma-separated reals, got {text!r}"
        ) from None


def _matrix_flag(text: str):
    from .bounds import BellCoefficientMatrix

    try:
        rows = [[float(tok) for tok in row.split(",")] for row in text.split(";")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--matrix expects ';'-separated rows of comma-separated reals, got {text!r}"
        ) from None
    if any(len(row) != len(rows) for row in rows):
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
        args.parser.error(f"--n must be >= --m, got n={n} < m={args.m}")  # exits 2
    return n


def _report(**values) -> None:
    """One ``name = value`` line per keyword; ``str`` prints a NumPy scalar's digits."""
    for name, value in values.items():
        print(f"{name} = {value}")


def _cmd_concurrence(args) -> int:
    s = schmidt_state.new_schmidt(args.coeffs)
    _report(coeffs=s.to_json(), concurrence=schmidt_state.concurrence(s))
    return 0


def _cmd_bell(args) -> int:
    from . import bounds

    s = schmidt_state.new_schmidt(args.coeffs)
    _report(coeffs=s.to_json(), k=bounds.k_value(s), gamma=bounds.gamma_value(s),
            theta_star=bounds.theta_star(s), bell_value=bounds.bell_value_formula(s))
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
    _report(measure=config.measure, seed=config.seed, samples_per_dim=config.samples,
            records_written=summary.records_written)
    for d in summary.per_dim:
        print(
            f"m={d.m} n={d.n} samples={d.samples}"
            f" min_theorem1_margin={d.min_theorem1_margin!r}"
            f" min_theorem2_margin={d.min_theorem2_margin!r}"
            f" max_concurrence={d.max_concurrence!r}"
            f" violations={d.violations}"
        )
    total = sum(d.violations for d in summary.per_dim)
    _report(violations=total, out=config.output_path)
    for v in summary.violations:
        print(
            f"error: TheoremViolation: m={v.m} index={v.index} {v.check}"
            f" margin={v.margin!r}",
            file=sys.stderr,
        )
    if total > len(summary.violations):  # the summary keeps the first harness.MAX_VIOLATIONS
        print(f"error: TheoremViolation: {total - len(summary.violations)} more, not listed",
              file=sys.stderr)
    return 1 if summary.violations else 0


def _cmd_verify(args) -> int:
    from . import harness

    config = harness.ExperimentConfig(dims=(args.m,), samples=args.samples, seed=args.seed,
                                      measure=args.measure,
                                      second_dim_offset=_second_dim(args) - args.m)
    summary = harness.verify_oracle(config, grid_points=args.grid)
    _report(measure=config.measure, seed=config.seed, samples_per_dim=config.samples,
            grid_points=args.grid)
    for d in summary.per_dim:
        print(f"m={d.m} n={d.n} samples={d.samples} max_gap={d.max_gap!r}")
    _report(max_gap=summary.max_gap)
    gaps = [d for d in summary.per_dim if not d.max_gap <= ORACLE_TOL]
    for d in gaps:
        print(f"error: OracleGap: m={d.m} n={d.n} max_gap={d.max_gap!r}", file=sys.stderr)
    return 1 if gaps else 0


# every flag once, as its add_argument keywords
_FLAGS = {
    "--coeffs": dict(type=_coeffs_flag, required=True,
                     help="comma-separated amplitudes, e.g. 0.8,0.6"),
    "--matrix": dict(type=_matrix_flag, required=True,
                     help="rows separated by ';', entries by ',', e.g. 1,1;1,-1"),
    "--m": dict(type=_int_flag(1), required=True),
    "--n": dict(type=_int_flag(1), default=None),
    "--dims": dict(type=_dims_flag, required=True, help="comma-separated m values, e.g. 2,4,6"),
    "--samples": dict(type=_int_flag(1), required=True),
    "--grid": dict(type=_int_flag(MIN_GRID_POINTS), default=720),
    "--seed": dict(type=_int_flag(0, 2**64), required=True),
    "--measure": dict(choices=schmidt_state.MEASURES, default="haar"),
    "--index": dict(type=_int_flag(0), default=None, help="replay sweep record INDEX of "
                    "(seed, m); for a Haar sweep pass --n as m plus its --offset"),
    "--out": dict(required=True, help="JSONL output path"),
    "--offset": dict(type=_int_flag(0), default=0,
                     help="n = m + offset for the second factor (default 0)"),
}

# each subcommand: its help, its handler and its flags in the order its usage lists them
_SUBCOMMANDS = {
    "concurrence": ("concurrence of a coefficient vector", _cmd_concurrence, "--coeffs"),
    "bell": ("closed-form Bell value and its parameters", _cmd_bell, "--coeffs"),
    "bounds": ("full bound report as JSON", _cmd_bounds, "--coeffs"),
    "jn": ("exhaustive classical bound of a coefficient matrix", _cmd_jn, "--matrix"),
    "sample": ("draw one random state", _cmd_sample, "--m --n --seed --measure --index"),
    "sweep": ("Monte-Carlo theorem sweep to JSONL", _cmd_sweep,
              "--dims --samples --seed --measure --out --offset"),
    "verify": ("closed formula vs dense grid oracle", _cmd_verify,
               "--m --n --samples --grid --seed --measure"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellbound",
        description="Bell values and concurrence bounds for bipartite pure states.",
    )
    parser._negative_number_matcher = _SIGNED_VALUE  # "bellbound -inf": an invalid choice
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (text, handler, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=text)
        p._negative_number_matcher = _SIGNED_VALUE
        for flag in flags.split():
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=handler, parser=p)
    return parser


def main(argv=None) -> int:
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:  # reported, as every usage error of a subcommand is, by its own parser
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        return args.func(args)
    except BellboundError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # named as the builtin: NumPy raises a private subclass
        print(f"error: MemoryError: {exc}", file=sys.stderr)
        return 1


def _interrupt(signum, frame):  # run()'s SIGTERM and SIGHUP handler; main() installs none
    raise KeyboardInterrupt(signum)  # as Ctrl-C: no work body's `except Exception` catches it


def run() -> None:
    """Console-script entry point; the frozen collector leaves teardown nothing to scan."""
    for signum in (signal.SIGTERM, getattr(signal, "SIGHUP", signal.SIGTERM)):  # none on Windows
        if signal.getsignal(signum) == signal.SIG_DFL:  # an ignored one (nohup) stays ignored
            signal.signal(signum, _interrupt)
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError as exc:  # a closed stdout: teardown's flush goes to os.devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: IoFailureError: cannot write standard output: {exc}", file=sys.stderr)
        code = 1
    except KeyboardInterrupt as exc:  # Ctrl-C, or SIGTERM / SIGHUP through _interrupt
        signum = signal.Signals(exc.args[0] if exc.args else signal.SIGINT)
        print(f"error: Interrupted: {signum.name}", file=sys.stderr)
        code = 128 + signum
    gc.freeze()  # never in main(): in-process callers keep their own collector
    raise SystemExit(code)
