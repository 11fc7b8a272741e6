"""Command-line front end: rate reports, sweeps, and verification runs.

Exit codes: 0 success, 1 check failure, 2 usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import errno
import functools
import io
import os
import sys
from fractions import Fraction

from .bounds import UpperBounds, gaussian_upper_bounds, upper_bounds
from .errors import ParameterError
from .gaussian import GaussianParams, correspondence, gaussian_rate, to_fraction
from .ldm import ChannelParams
from .scheme import CaseTag, r_achievable
from .sweep import (DEFAULT_LOG_SNR1, DET_AXES, GAUSS_AXES, SweepSpec, format_number,
                    run_sweep, write_csv, write_svg)
from .verify import SCHEME_CHECK_CAP, run_verification

def _rational(text: str) -> Fraction:
    try:
        return to_fraction(text)
    except ParameterError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _int(text: str) -> int:
    # int() reads 1_0 as 10; like the rational flags, an int flag refuses it
    try:
        if "_" not in text:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _add_det_flags(sub: argparse.ArgumentParser, required: bool) -> None:
    sub.add_argument("--n11", type=_int, required=required, help="direct gain, bit levels")
    sub.add_argument("--n21", type=_int, required=required,
                     help="helper gain at the legitimate receiver")
    sub.add_argument("--n2", type=_int, required=required, help="common gain at the eavesdropper")


def _add_gauss_flags(sub: argparse.ArgumentParser, required: bool,
                     log_snr1: Fraction | None) -> None:
    sub.add_argument("--log-snr1", type=_rational, dest="log_snr1", default=log_snr1,
                     help="log2 SNR of the direct link (Gaussian family)")
    sub.add_argument("--beta1", type=_rational, required=required, help="helper SNR exponent")
    sub.add_argument("--beta2", type=_rational, required=required,
                     help="eavesdropper SNR exponent")
    sub.add_argument("--const-c", type=_rational, dest="const_c",
                     help="constant-gap term added to Gaussian bounds (default 0)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``wth`` parser, built once per process and shared by every ``main``
    call: parsing leaves it unchanged.  Callers must not modify it.  Its
    ``commands`` attribute maps each subcommand name to its parser."""
    parser = argparse.ArgumentParser(
        prog="wth",
        description="Secrecy rates, converse bounds, and exact scheme verification "
                    "for the deterministic wiretap channel with a helper.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    rates = sub.add_parser("rates", help="rate and bound report of a deterministic instance")
    _add_det_flags(rates, required=True)
    rates.set_defaults(run=_cmd_rates)

    gauss = sub.add_parser("gaussian", help="rate and bound report of a Gaussian instance")
    _add_gauss_flags(gauss, required=True, log_snr1=DEFAULT_LOG_SNR1)
    gauss.set_defaults(run=_cmd_gaussian)

    sweep = sub.add_parser("sweep", help="sweep one parameter and write CSV or SVG")
    sweep.add_argument("--axis", required=True, choices=DET_AXES + GAUSS_AXES)
    sweep.add_argument("--start", type=_rational, required=True)
    sweep.add_argument("--stop", type=_rational, required=True)
    sweep.add_argument("--step", type=_rational, required=True)
    _add_det_flags(sweep, required=False)
    # no default: ``run_sweep`` must tell a given --log-snr1 from none
    _add_gauss_flags(sweep, required=False, log_snr1=None)
    sweep.add_argument("--out", default="-", help="output path, '-' for stdout")
    sweep.add_argument("--format", choices=("csv", "svg"), default="csv")
    sweep.add_argument("--asymptotic", action="store_true",
                       help="report the deterministic normalized rate under the "
                            "integer correspondence instead of the finite-SNR one")
    sweep.set_defaults(run=_cmd_sweep)

    verify = sub.add_parser("verify", help="run the exact checks over a parameter grid")
    verify.add_argument("--max-q", type=_int, dest="max_q", default=8,
                        help=f"grid cap, at most {SCHEME_CHECK_CAP} (default %(default)s)")
    verify.add_argument("--oracle", action="store_true",
                        help="also run the exact allocation oracle")
    verify.add_argument("--seed", type=_int, default=0)
    verify.set_defaults(run=_cmd_verify)
    return parser


def _stdout() -> io.TextIOBase:
    if sys.stdout is None:  # fd 1 was closed at start: fail as a write to it would
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    return sys.stdout


def _named(t: tuple) -> str:
    return " ".join(f"{name}={format_number(v)}" for name, v in zip(t._fields, t))


def _write_report(header: list[str], case: CaseTag, singular_note: str, ub: UpperBounds,
                  fields: list[tuple[str, object]]) -> int:
    """Write a rate report in one write: header, case (and note if singular), fields, bounds
    and whether field r_ach meets the least; text as given, numbers by ``format_number``."""
    lines = [*header, f"case: {case.value}"]
    if case is CaseTag.SINGULAR:
        lines.append(f"note: {singular_note}; only the private rate is reported")
    fields = [*fields, *zip(UpperBounds._fields, ub), ("min_ub", ub.min_ub),
              ("tight", "yes" if dict(fields)["r_ach"] == ub.min_ub else "no")]
    lines += [f"{name}: {v if isinstance(v, str) else format_number(v)}" for name, v in fields]
    _stdout().write("\n".join(lines) + "\n")
    return 0


def _cmd_rates(args: argparse.Namespace) -> int:
    p = ChannelParams(args.n11, args.n21, args.n2)
    br = r_achievable(p)
    return _write_report(
        ["family: deterministic", f"n11={p.n11} n21={p.n21} n2={p.n2} (q={p.q}, delta={p.delta})"],
        br.case_tag, "equal direct and helper gains admit no alignment scheme", upper_bounds(p),
        [("r_private", br.r_private), ("r_common", br.r_common), ("r_ach", br.r_ach)])


def _cmd_gaussian(args: argparse.Namespace) -> int:
    g = GaussianParams(args.log_snr1, args.beta1, args.beta2)
    # the bounds check --const-c before the odd-level sum, which can take seconds
    cp = correspondence(g)
    ub = gaussian_upper_bounds(cp, args.const_c or 0)
    gb = gaussian_rate(g)
    fields = [("r_private", gb.r_private), ("r_common", gb.r_common), ("r_gross", gb.r_gross),
              ("level_penalty", gb.d), ("r_ach", gb.r_ach), ("normalized", gb.normalized)]
    if gb.r_common_sum is not None:
        fields.append(("r_common_sum", f"{gb.r_common_sum:.6f}"))
    fields.append(("correspondence", _named(cp)))
    return _write_report(["family: gaussian", _named(g)], gb.case_tag,
                         "beta1 = 1 leaves no scale offset to align against", ub, fields)


def _cmd_sweep(args: argparse.Namespace) -> int:
    fixed = {a: v for a in DET_AXES + GAUSS_AXES if (v := getattr(args, a)) is not None}
    spec = SweepSpec(args.axis, args.start, args.stop, args.step, fixed,
                     args.log_snr1, args.const_c, args.asymptotic)
    # opened before any row is built, so that a bad path fails at once; "a" truncates
    # nothing, and a file created here is removed again on a usage error
    created = args.out != "-" and not os.path.lexists(args.out)
    try:
        fh = sys.stdout if args.out == "-" else open(args.out, "a", newline="")
    except OSError as exc:
        print(f"cannot open output: {exc}", file=sys.stderr)
        return 3
    try:
        rows, text = run_sweep(spec), io.StringIO()
        if args.format == "csv":
            write_csv(rows, text)
        else:
            write_svg(rows, text, axis_label=args.axis)
        if fh is not sys.stdout and os.path.isfile(args.out):
            fh.truncate(0)
        (fh or _stdout()).write(text.getvalue())  # fh is None: stdout, closed at start
    except ParameterError:
        if created:
            os.remove(args.out)
        raise
    finally:
        if fh is not sys.stdout:
            fh.close()  # flushes: a failed write raises an OSError, which ``main`` reports
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    run = run_verification(args.max_q, with_oracle=args.oracle, seed=args.seed)
    lines = [f"instances checked: {run.instances} (q <= {args.max_q})",
             f"schemes built and verified: {run.schemes_checked}"]
    if args.oracle:
        lines.append(f"oracle searches: {run.oracle_checked}")
    if run.singular_instances:
        lines.append(f"finding: {run.singular_instances} singular instances (n11 == n21): "
                     "no alignment scheme; private-only rate reported")
    if run.oracle_gaps:
        # the wording predates the closed-form oracle; scripts match it, so it stays
        shown = "; ".join(f"{g.params}: oracle reaches {g.oracle_rate}, formula gives "
                          f"{g.formula_rate}" for g in run.oracle_gaps[:10])
        lines.append(f"finding: {len(run.oracle_gaps)} instances where the exhaustive oracle "
                     f"beats the partition formula (bit-level granularity): {shown}")
    lines += [f"FAIL: {line}" for line in run.failures]
    lines.append("result: " + ("ok" if run.ok else "FAILED"))
    _stdout().write("\n".join(lines) + "\n")
    return 0 if run.ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    # A named subcommand parses its flags once, with its own parser; anything else,
    # or a token left over, takes the full pass, so errors and help stay argparse's.
    sub = parser.commands.get(argv[0]) if argv else None
    args, rest = sub.parse_known_args(argv[1:]) if sub else (None, None)
    if sub is None or rest:
        args = parser.parse_args(argv)
        sub = parser.commands[args.command]  # a subparser's namespace has no command
    try:  # errors found after parsing print the subcommand's usage, as argparse's own do
        code = args.run(args)
        if sys.stdout:  # None when the process started with fd 1 closed
            sys.stdout.flush()  # so that a failed write to stdout shows here
        return code
    except ParameterError as exc:
        sub.error(str(exc))
    except OSError as exc:  # stdout or --out could not be written
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    if (code := main()) == 3:  # stdout's unwritten bytes would fail again at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
    sys.exit(code)


if __name__ == "__main__":
    entry()
