"""Command-line surface.

Every subcommand prints a single structured record (JSON by default,
flat CSV with ``--csv``) to stdout and exits 0.  Domain failures from the
library map to an error record and exit code 1; argparse usage errors
exit 2.  Exact quantities are serialized losslessly ("24024", "23/72");
approximate ones as decimal strings with an explicit err_estimate.
Records carry no timing by default so identical invocations produce
byte-identical output; pass ``--timing`` to add elapsed_ms.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import re
import sys
import time
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import DomainError, LfmomentsError, brief
from .exact_moments import SymmetryClass, log_power, moment_factored
from .numeric_core import decimal_string, is_prime

if __name__ != "__main__":
    # Imported as the module lfmoments.cli (the lfmoments script, tests,
    # long-lived callers): load every layer now, so that no call pays an
    # import.  A one-shot ``python -m lfmoments.cli`` run skips this and
    # each handler imports the layers its command calls, so the exact
    # commands start without mpmath.
    from . import (  # noqa: F401
        analytic_moments, euler_products, mollifier, padic_valuation, self_similar,
    )

if TYPE_CHECKING:
    from .precision import RealApprox

_DISPLAY_DIGITS = 25


def _sym(label: str) -> SymmetryClass:
    try:
        return SymmetryClass.parse(label)
    except LfmomentsError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


# Fraction("1e10000000") spends seconds building 10**10000000 before any
# check can run, so a literal's decimal exponent is bounded first
_MAX_DECIMAL_EXPONENT = 500_000
_EXPONENT = re.compile(r"e([-+]?[\d_]+)\s*\Z", re.IGNORECASE)
# an echoed rational whose numerator or denominator passes CPython's default
# int-to-str limit of 4300 digits is named by its width instead
_ECHO_MAX = 10**4300


def _fraction(text: str) -> Fraction:
    try:
        exponent = _EXPONENT.search(text)
        if exponent and abs(int(exponent[1])) > _MAX_DECIMAL_EXPONENT:
            raise argparse.ArgumentTypeError(
                f"decimal exponent beyond +-{_MAX_DECIMAL_EXPONENT}: {text!r}"
            )
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _positive_prime(text: str) -> int:
    value = int(text)
    try:
        prime = is_prime(value)
    except LfmomentsError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if not prime:
        raise argparse.ArgumentTypeError(f"{value} is not prime")
    return value


def _coeff_list(text: str):
    return [_fraction(piece) for piece in text.split(",") if piece.strip() != ""]


def _echo(value):
    """An input as records show it: exact rationals in decimal, floats by repr."""
    if isinstance(value, SymmetryClass):
        return value.value
    if isinstance(value, Fraction):
        if abs(value.numerator) >= _ECHO_MAX or value.denominator >= _ECHO_MAX:
            return brief(value)
        return decimal_string(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, list):
        return [_echo(item) for item in value]
    return value


def _err_text(result: RealApprox) -> str:
    return f"{result.err_estimate:.3e}"


def _approx_record(record: dict, result: RealApprox, digits: int = _DISPLAY_DIGITS):
    record["result"] = result.digits(digits)
    record["err_estimate"] = _err_text(result)
    record["precision_bits"] = result.precision_bits
    return record


# --- subcommand handlers ----------------------------------------------------
# Each returns its record's fields; main echoes the inputs the parser names.


def _cmd_gk(args) -> dict:
    if args.k == 0:
        return {"result": "1",
                "note": "k = 0 is the empty product; every class gives 1"}
    factored = moment_factored(args.sym, args.k)
    record = {
        "result": factored.decimal_string(),
        "log_power": decimal_string(log_power(args.sym, args.k)),
    }
    if args.factor:
        record["factorization"] = {
            str(p): e for p, e in sorted(factored.exponents.items())
        }
    return record


def _cmd_vp(args) -> dict:
    from . import padic_valuation

    return {"result": decimal_string(padic_valuation.valuation(args.sym, args.p, args.k))}


def _cmd_cp(args) -> dict:
    from . import self_similar

    if args.eps is not None:
        approx = self_similar.density_numeric(args.p, args.x, eps=args.eps)
        return _approx_record({}, approx)
    return {"result": decimal_string(self_similar.density_exact(args.p, args.x))}


def _cmd_cp_plot(args) -> dict:
    if not (args.csv_path or args.svg_path):
        raise DomainError("nothing to write: pass --svg PATH and/or --csv PATH")
    from . import self_similar

    points = self_similar.sample_density(
        args.p, args.x_min, args.x_max, args.n, eps=args.eps
    )
    written = []
    if args.csv_path:
        with open(args.csv_path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["x", "cp"])
            writer.writerows(points)
        written.append(args.csv_path)
    if args.svg_path:
        span = f"[{decimal_string(args.x_min)}, {decimal_string(args.x_max)}]"
        with open(args.svg_path, "w") as handle:
            handle.write(_polyline_svg(points, f"c_{args.p} on {span}"))
        written.append(args.svg_path)
    return {"result": written, "points": len(points)}


def _cmd_classify(args) -> dict:
    from . import self_similar

    point_class = self_similar.classify_point(args.p, args.a, args.b)
    if isinstance(point_class, self_similar.SelfSimilar):
        return {"result": "self-similar", "period": str(point_class.period)}
    if isinstance(point_class, self_similar.Cusp):
        return {"result": "cusp"}
    return {"result": "vertical-tangent"}


def _cmd_glambda(args) -> dict:
    from . import analytic_moments

    lam = getattr(args, "lambda")
    if args.limit:
        approx = analytic_moments.moment_by_limit(
            args.sym, lam, target_digits=args.digits
        )
    else:
        approx = analytic_moments.moment_closed_form(args.sym, lam)
    record = {"inputs": {"route": "limit" if args.limit else "closed"}}
    return _approx_record(record, approx, digits=args.digits + 2)


def _cmd_ghalf(args) -> dict:
    from . import analytic_moments

    return _approx_record({}, analytic_moments.half_moment_unitary())


def _cmd_ak(args) -> dict:
    from . import euler_products

    ak, _ = euler_products._family_factor(args.family, args.k, args.cutoff)
    return _approx_record({}, ak)


def _cmd_assemble(args) -> dict:
    from . import euler_products

    family = euler_products.FamilyDescriptor(
        sym=args.sym, conductor_exponent=args.A, label="cli"
    )
    record = {}
    if args.ak is not None:
        ak = args.ak
    else:
        ak, label = euler_products._family_factor(args.sym, args.k, args.cutoff)
        if label is None:
            record["note"] = (
                "no built-in arithmetic factor for the orthogonal family; "
                "used a_k = 1 (override with --ak)"
            )
        else:
            record["ak_source"] = f"{label} product, cutoff {args.cutoff}"
    shape = euler_products.assemble_mean_value(family, args.k, ak)
    record["result"] = shape.coefficient.digits(_DISPLAY_DIGITS)
    record["err_estimate"] = _err_text(shape.coefficient)
    record["log_power"] = str(shape.log_power)
    record["log_argument_exponent"] = decimal_string(shape.log_argument_exponent)
    return record


def _cmd_mollify(args) -> dict:
    from . import mollifier

    poly = mollifier.mean_square(args.sym, args.P, args.Q)
    record = {
        "result": poly.format(),
        "theta_validity": decimal_string(mollifier.THETA_VALIDITY[args.sym]),
    }
    if args.theta is not None:
        record["value_at_theta"] = decimal_string(poly.evaluate(args.theta))
    return record


def _cmd_asym(args) -> dict:
    import mpmath as mp

    from . import analytic_moments, precision

    approx = analytic_moments.log_moment_asymptotic(args.sym, args.k)
    with precision.working_precision(approx.precision_bits) as bits:
        exact = mp.log(analytic_moments.moment_closed_form(args.sym, args.k, bits).value)
        return {
            "result": approx.digits(_DISPLAY_DIGITS),
            "err_estimate": _err_text(approx),
            "log_gk_exact": mp.nstr(exact, _DISPLAY_DIGITS),
            "abs_error": mp.nstr(abs(exact - approx.value), 3),
        }


def _cmd_poles(args) -> dict:
    from . import analytic_moments

    order = analytic_moments.pole_order(args.sym, args.k)
    return {
        "inputs": {"at": decimal_string(Fraction(1, 2) - args.k)},
        "result": decimal_string(order),
    }


def _cmd_window(args) -> dict:
    from . import padic_valuation

    return {"result": padic_valuation.zero_valuation_window(args.sym, args.p, args.k)}


# --- plumbing ----------------------------------------------------------------


def _polyline_svg(points, title: str) -> str:
    """Minimal standalone SVG: one polyline plus a framed plot area."""
    width, height, margin = 800, 500, 45
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def sx(x):
        return margin + (x - x_lo) / x_span * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y_lo) / y_span * (height - 2 * margin)

    path = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in points)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
        f'<rect width="{width}" height="{height}" fill="white"/>\n'
        f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
        f'height="{height - 2 * margin}" fill="none" stroke="#888"/>\n'
        f'<text x="{width / 2:.0f}" y="{margin - 12}" text-anchor="middle" '
        f'font-family="monospace" font-size="14">{title}</text>\n'
        f'<text x="{margin}" y="{height - margin + 18}" font-family="monospace" '
        f'font-size="11">{x_lo:.6g}</text>\n'
        f'<text x="{width - margin}" y="{height - margin + 18}" text-anchor="end" '
        f'font-family="monospace" font-size="11">{x_hi:.6g}</text>\n'
        f'<text x="{margin - 4}" y="{height - margin}" text-anchor="end" '
        f'font-family="monospace" font-size="11">{y_lo:.6g}</text>\n'
        f'<text x="{margin - 4}" y="{margin + 4}" text-anchor="end" '
        f'font-family="monospace" font-size="11">{y_hi:.6g}</text>\n'
        f'<polyline fill="none" stroke="#1f4e8c" stroke-width="1" points="{path}"/>\n'
        f"</svg>\n"
    )


def _flatten(record: dict, prefix: str = "") -> dict:
    flat = {}
    for key, value in record.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{name}."))
        elif isinstance(value, list):
            flat[name] = ";".join(str(v) for v in value)
        else:
            flat[name] = value
    return flat


def _emit(record: dict, as_csv: bool) -> None:
    if as_csv:
        flat = _flatten(record)
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(flat.keys())
        writer.writerow(flat.values())
        sys.stdout.write(buffer.getvalue())
    else:
        sys.stdout.write(json.dumps(record, indent=2) + "\n")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--csv", action="store_true",
                        help="flat CSV output instead of JSON")
    common.add_argument("--timing", action="store_true",
                        help="include elapsed_ms in the record")

    parser = argparse.ArgumentParser(
        prog="lfmoments",
        description="Moment constants, valuations, and mean-value shapes "
        "for the three symmetry classes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gk", parents=[common], help="exact moment constant")
    p.add_argument("sym", type=_sym)
    p.add_argument("k", type=int)
    p.add_argument("--factor", action="store_true", help="include the prime factorization")
    p.set_defaults(handler=_cmd_gk, echo=("sym", "k"))

    p = sub.add_parser("vp", parents=[common], help="p-adic valuation of a moment constant")
    p.add_argument("sym", type=_sym)
    p.add_argument("p", type=_positive_prime)
    p.add_argument("k", type=int)
    p.set_defaults(handler=_cmd_vp, echo=("sym", "p", "k"))

    p = sub.add_parser("window", parents=[common],
                       help="is the valuation zero by the window test")
    p.add_argument("sym", type=_sym)
    p.add_argument("p", type=_positive_prime)
    p.add_argument("k", type=int)
    p.set_defaults(handler=_cmd_window, echo=("sym", "p", "k"))

    p = sub.add_parser("cp", parents=[common], help="self-similar valuation density")
    p.add_argument("p", type=_positive_prime)
    p.add_argument("x", type=_fraction)
    p.add_argument("--eps", type=float, default=None,
                   help="numeric evaluation to this tolerance, not exact")
    p.set_defaults(handler=_cmd_cp, echo=("p", "x", "eps"))

    # no [common] parent here: --csv takes a PATH for this subcommand,
    # which would collide with the global boolean output flag
    p = sub.add_parser("cp-plot",
                       help="sample the density and write CSV/SVG")
    p.add_argument("p", type=_positive_prime)
    p.add_argument("x_min", type=_fraction)
    p.add_argument("x_max", type=_fraction)
    p.add_argument("n", type=int)
    p.add_argument("--svg", dest="svg_path", default=None, metavar="PATH")
    p.add_argument("--csv", dest="csv_path", default=None, metavar="PATH")
    p.add_argument("--eps", type=float, default=1e-9)
    p.add_argument("--timing", action="store_true")
    p.set_defaults(handler=_cmd_cp_plot, csv=False, echo=("p", "x_min", "x_max", "n"))

    p = sub.add_parser("classify", parents=[common],
                       help="local class of the density graph at a/b")
    p.add_argument("p", type=_positive_prime)
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.set_defaults(handler=_cmd_classify, echo=("p", "a", "b"))

    p = sub.add_parser("glambda", parents=[common],
                       help="moment constant at real degree")
    p.add_argument("sym", type=_sym)
    p.add_argument("lambda", type=_fraction,
                   help="real degree, e.g. 1/2 or -3.5; put -- before a "
                   "negative fraction: glambda U -- -7/3")
    p.add_argument("--limit", action="store_true",
                   help="extrapolated defining limit instead of the closed form")
    p.add_argument("--digits", type=int, default=12,
                   help="target digits for the limit route")
    p.set_defaults(handler=_cmd_glambda, echo=("sym", "lambda"))

    p = sub.add_parser("ghalf", parents=[common],
                       help="the degree-1/2 unitary constant")
    p.set_defaults(handler=_cmd_ghalf, echo=())

    p = sub.add_parser("ak", parents=[common], help="arithmetic factor")
    p.add_argument("family", choices=("zeta", "spquad"))
    p.add_argument("k", type=_fraction)
    p.add_argument("--cutoff", type=int, default=100_000)
    p.set_defaults(handler=_cmd_ak, echo=("family", "k", "cutoff"))

    p = sub.add_parser("assemble", parents=[common],
                       help="leading mean-value term for a family")
    p.add_argument("sym", type=_sym)
    p.add_argument("A", type=_fraction)
    p.add_argument("k", type=int)
    p.add_argument("--ak", type=_fraction, default=None,
                   help="arithmetic factor override")
    p.add_argument("--cutoff", type=int, default=10_000,
                   help="prime cutoff when computing the built-in factor")
    p.set_defaults(handler=_cmd_assemble, echo=("sym", "A", "k", "ak"))

    p = sub.add_parser("mollify", parents=[common],
                       help="mollified mean-square as a Laurent polynomial")
    p.add_argument("sym", type=_sym)
    p.add_argument("--P", type=_coeff_list, required=True,
                   help="comma-separated coefficients, constant first")
    p.add_argument("--Q", type=_coeff_list, required=True)
    p.add_argument("--theta", type=_fraction, default=None,
                   help="also evaluate at this theta")
    p.set_defaults(handler=_cmd_mollify, echo=("sym", "P", "Q", "theta"))

    p = sub.add_parser("asym", parents=[common],
                       help="large-k expansion of log g_k")
    p.add_argument("sym", type=_sym)
    p.add_argument("k", type=int)
    p.set_defaults(handler=_cmd_asym, echo=("sym", "k"))

    p = sub.add_parser("poles", parents=[common],
                       help="pole order at degree 1/2 - k")
    p.add_argument("sym", type=_sym)
    p.add_argument("k", type=int)
    p.set_defaults(handler=_cmd_poles, echo=("sym", "k"))

    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # the 13-subcommand tree takes ~2.5 ms to build and parse_args ~0.04 ms
    # (2-vCPU x86-64), so a process that calls main repeatedly builds it
    # once; parse_args leaves the parser unchanged
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    started = time.perf_counter()
    try:
        fields = args.handler(args)
    except LfmomentsError as exc:
        error_record = {
            "command": args.command,
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        _emit(error_record, args.csv)
        return 1
    # inputs are echoed once the result is in: an error record carries none,
    # so a refused huge input is never written back
    given = vars(args)
    inputs = {key: _echo(given[key]) for key in args.echo if given[key] is not None}
    inputs.update(fields.pop("inputs", {}))
    record = {"command": args.command, "inputs": inputs, **fields}
    if args.timing:
        record["elapsed_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
    _emit(record, args.csv)
    return 0


if __name__ == "__main__":
    sys.exit(main())
