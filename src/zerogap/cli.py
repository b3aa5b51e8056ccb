"""Command-line interface.

Subcommands: eval-extremal, certify-gap, min-ell, scan-region,
verify-example, coefficients.  Exit codes: 0 success, 1 domain/usage
errors, 2 accuracy failures, 3 incomplete local data.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Tuple

import numpy as np

from .certification import certify_gap, min_ell_over_mu
from .errors import (
    AccuracyError,
    DomainError,
    IncompletenessError,
    SchemaError,
    ValidationError,
)
from .explicit_formula import CONVENTIONS, PRIME_FREE_RADIUS, verify
from .extremal import beurling, fejer, fourier_at, selberg_minorant, windowed_fejer
from .lfunctions import (
    _factorize,
    bundled_example_path,
    c_coefficients,
    load_lfunction,
)
from .region_scan import _MAX_ROWS, scan_region, scan_to_csv

DEFAULT_LENGTH = 5.0 / PRIME_FREE_RADIUS
# samples evaluated per call in an eval-extremal listing, so that its peak
# memory follows the printed text, not the evaluation's temporaries
# (region_scan._MAX_ROWS)
_EVAL_BLOCK = 1 << 10


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 means accuracy here
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fmt(x: float) -> str:
    return f"{x + 0.0:.10g}"  # +0.0 folds -0.0 into 0


def _build_test_function(args, *, for_fourier: bool):
    kind = args.kind
    if kind == "beurling":
        if for_fourier:
            raise DomainError(
                "the sign-function approximant is not integrable; "
                "--fourier needs one of selberg, fejer, windowed-fejer"
            )
        return None
    if kind == "selberg":
        if args.length is not None:
            half = args.length / 2.0
            return selberg_minorant(-half, half, args.delta)
        if args.alpha is not None and args.beta is not None:
            return selberg_minorant(args.alpha, args.beta, args.delta)
        raise DomainError("selberg needs --length or both --alpha and --beta")
    if kind == "fejer":
        return fejer(args.delta)
    return windowed_fejer(args.t0, args.delta)


def _cmd_eval_extremal(args) -> Tuple[str, int]:
    if not 1 <= args.samples <= _MAX_ROWS:
        raise DomainError(f"--samples must lie in [1, {_MAX_ROWS}]")
    if not -np.inf < args.from_ <= args.to < np.inf:
        raise DomainError("--from and --to must be finite, --to not below --from")
    xs = np.linspace(args.from_, args.to, args.samples)
    f = _build_test_function(args, for_fourier=args.fourier)
    text = _listing("x,value", xs, beurling if f is None else f.value)
    if args.fourier:
        text += _listing("x,fhat", xs, lambda x: fourier_at(f, x))
    return text, 0


def _listing(header: str, xs: np.ndarray, func) -> str:
    # func is elementwise, so evaluating it on _EVAL_BLOCK samples at a time
    # prints the same bytes as one call on all of them
    chunks = [header + "\n"]
    for i in range(0, len(xs), _EVAL_BLOCK):
        block = xs[i:i + _EVAL_BLOCK]
        chunks.append("".join(f"{_fmt(x)},{_fmt(v)}\n" for x, v in zip(block, func(block))))
    return "".join(chunks)


def _cmd_certify_gap(args) -> Tuple[str, int]:
    cert = certify_gap(
        args.degree,
        args.length,
        args.delta,
        re_max=args.re_max,
        im_max=args.im_max,
        step=args.step,
        convention=args.convention,
    )
    return json.dumps(cert.to_dict(), indent=2) + "\n", 0


def _cmd_min_ell(args) -> Tuple[str, int]:
    half = args.length / 2.0
    f = selberg_minorant(-half, half, args.delta)
    res = min_ell_over_mu(
        f, args.re_max, args.im_max, args.step, convention=args.convention
    )
    out = {
        "min_ell": res.value,
        "argmin": {"re": res.argmin.real, "im": res.argmin.imag},
        "window_length": args.length,
        "delta": args.delta,
        "search_domain": res.domain.to_dict(),
    }
    return json.dumps(out, indent=2) + "\n", 0


def _cmd_scan_region(args) -> Tuple[str, int]:
    rows = scan_region(
        args.nu_max,
        args.step,
        t0=args.t0,
        delta=args.delta,
        conductor=args.conductor,
        convention=args.convention,
    )
    csv = scan_to_csv(
        rows,
        t0=args.t0,
        delta=args.delta,
        conductor=args.conductor,
        step=args.step,
        convention=args.convention,
    )
    return csv, 0


def _cmd_verify_example(args) -> Tuple[str, int]:
    path = args.data if args.data is not None else bundled_example_path()
    data = load_lfunction(path)
    half = args.length / 2.0
    f = selberg_minorant(-half, half, args.delta)
    rep = verify(data, f, convention=args.convention, tol=args.tol)
    ok = abs(rep.residual) <= rep.tail_bound + rep.tolerance_budget
    text = json.dumps(rep.to_dict(), indent=2) + "\n"
    text += f"consistency: {'PASS' if ok else 'FAIL'}\n"
    return text, 0 if ok else 2


def _cmd_coefficients(args) -> Tuple[str, int]:
    path = args.data if args.data is not None else bundled_example_path()
    data = load_lfunction(path)
    coeffs = c_coefficients(data, args.max_n, skip_gaps=args.skip_gaps)
    # the listing ends at the last n with a value: past it the data supports
    # no prime power, and factorizing every n up to --max-n would take longer
    # than the coefficients themselves
    last = max(coeffs.values, default=1)
    if last < args.max_n:
        print(f"note: listing stops at n = {last}, the last n with a coefficient; "
              f"n = {last + 1} to {args.max_n} are not listed", file=sys.stderr)
    lines = ["n,re,im"]
    for n in range(2, last + 1):
        if n in coeffs.values:
            c = coeffs.values[n]
            lines.append(f"{n},{_fmt(c.real)},{_fmt(c.imag)}")
        elif len(_factorize(n)) > 1:
            lines.append(f"{n},0,0")  # supported on prime powers only
        # prime powers absent under --skip-gaps are omitted, not zeroed
    return "\n".join(lines) + "\n", 0


def _add_common_grid(p) -> None:
    p.add_argument("--re-max", type=float, default=50.0,
                   help="search bound for Re mu (default 50)")
    p.add_argument("--im-max", type=float, default=200.0,
                   help="search bound for Im mu (default 200)")
    p.add_argument("--step", type=float, default=0.25,
                   help="grid step in both directions (default 0.25)")
    p.add_argument("--convention", choices=CONVENTIONS,
                   default="halved", help="Gamma-factor normalization")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="zerogap",
        description="Universal zero-gap certificates and spectral-parameter scans "
                    "via the explicit formula with extremal test functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("eval-extremal", help="tabulate a test function (and transform)")
    p.add_argument("--kind", required=True,
                   choices=("beurling", "selberg", "fejer", "windowed-fejer"))
    p.add_argument("--from", dest="from_", type=float, required=True)
    p.add_argument("--to", type=float, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--delta", type=float, default=PRIME_FREE_RADIUS,
                   help="transform bandwidth (default log2/(2 pi))")
    p.add_argument("--length", type=float, default=None,
                   help="selberg: symmetric window length")
    p.add_argument("--alpha", type=float, default=None, help="selberg: window start")
    p.add_argument("--beta", type=float, default=None, help="selberg: window end")
    p.add_argument("--t0", type=float, default=14.13,
                   help="windowed-fejer: positivity radius (default 14.13)")
    p.add_argument("--fourier", action="store_true",
                   help="append a second x,fhat block")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_eval_extremal)

    p = sub.add_parser("certify-gap", help="grid-certify a universal gap bound")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--length", type=float, required=True, help="window length")
    p.add_argument("--delta", type=float, default=PRIME_FREE_RADIUS)
    _add_common_grid(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_certify_gap)

    p = sub.add_parser("min-ell", help="minimize the archimedean term over mu")
    p.add_argument("--length", type=float, required=True, help="window length")
    p.add_argument("--delta", type=float, default=PRIME_FREE_RADIUS)
    _add_common_grid(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_min_ell)

    p = sub.add_parser("scan-region", help="classify spectral parameters on a grid")
    p.add_argument("--nu-max", type=float, default=16.0)
    p.add_argument("--step", type=float, default=0.5)
    p.add_argument("--t0", type=float, default=14.13)
    p.add_argument("--delta", type=float, default=PRIME_FREE_RADIUS)
    p.add_argument("--conductor", type=float, default=1.0, help="assumed Q >= 1")
    p.add_argument("--convention", choices=CONVENTIONS, default="halved")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_scan_region)

    p = sub.add_parser("verify-example", help="explicit-formula consistency report")
    p.add_argument("--data", default=None, help="L-function JSON file (default: bundled)")
    p.add_argument("--length", type=float, default=DEFAULT_LENGTH)
    p.add_argument("--delta", type=float, default=PRIME_FREE_RADIUS)
    p.add_argument("--convention", choices=CONVENTIONS, default="halved")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify_example)

    p = sub.add_parser("coefficients", help="log-derivative coefficients c(n)")
    p.add_argument("--max-n", type=int, default=7)
    p.add_argument("--data", default=None, help="L-function JSON file (default: bundled)")
    p.add_argument("--skip-gaps", action="store_true",
                   help="omit prime powers whose local data is missing instead "
                        "of failing")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_coefficients)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        text, code = args.func(args)
    except (DomainError, ValidationError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AccuracyError as exc:
        print(f"accuracy failure: {exc}", file=sys.stderr)
        return 2
    except IncompletenessError as exc:
        print(f"incomplete data: {exc}", file=sys.stderr)
        if isinstance(exc.gaps, range):
            print(f"missing n: every n from {exc.gaps[0]} to {exc.gaps[-1]}", file=sys.stderr)
        elif exc.gaps:
            print(f"missing n: {exc.gaps}", file=sys.stderr)
        return 3
    if args.out is not None:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
