"""The three workloads: seeded request rounds and the check for each request.

A workload is an endless sequence of rounds. Every round has the same
shape (the same cells: command, class and size stratum); the seed moves the
sizes within their strata, picks primes, fractions and polynomials, and
shuffles the order. So every seed gives different inputs but the same cost
profile, which keeps medians and tails comparable between seeds. A run
measures whole rounds.

Each request carries a check. A check returns ``(ok, digits, why)``:
``digits`` is the number of correct significant digits of an approximate
result (None for exact ones). Checks run outside every timed interval.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import mpmath as mp

import oracle

CLASSES = ("U", "O", "Sp")
LOG10_2 = math.log10(2)
CLI_DIGITS = 25
OUT_DIR = ".bench_out"


@dataclass
class Request:
    kind: str  # "cli": payload is argv; "lib": payload is [function, *args]
    payload: list
    check: Callable[[dict], tuple]
    layer: Optional[str] = None  # layer credited with the result's digits


def fs(x) -> str:
    """A rational as the CLI serializes it."""
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else str(x)


def dump(record: dict) -> str:
    return json.dumps(record, indent=2) + "\n"


def _ok(digits=None):
    return True, digits, ""


def _bad(why: str):
    return False, None, why


def _record(resp: dict, rc: int = 0):
    """The parsed JSON record, if the response is one, re-serialized exactly."""
    if resp.get("rc") != rc:
        return None
    try:
        record = json.loads(resp["out"])
    except ValueError:
        return None
    return record if dump(record) == resp["out"] else None


def _within(value, err, reference, shown=None) -> bool:
    """|value - reference| <= err, plus the rounding of a ``shown``-digit print."""
    with mp.workprec(4096):
        gap = abs(oracle.to_mpf(value) - oracle.to_mpf(reference))
        slack = mp.mpf(err)
        if shown is not None:
            slack += abs(oracle.to_mpf(reference)) * mp.mpf(10) ** (1 - shown)
        return gap <= slack


def _approx_fields(record: dict, expected: dict, approx_keys) -> bool:
    """Same keys in the same order, and every exact field equal."""
    if list(record) != list(expected):
        return False
    return all(record[k] == v for k, v in expected.items() if k not in approx_keys)


# --- references needing the library (approximate values only) ---------------


@functools.lru_cache(maxsize=None)
def _lib():
    import lfmoments

    return lfmoments


def ref_bits(bits: int) -> int:
    """Recompute at double precision; +64 bits above 256, where doubling
    would cost several times the request."""
    return 2 * bits if bits <= 256 else bits + 64


def ref_closed(sym: str, lam: Fraction, bits: int):
    """g at degree lam: the exact integer, the half-degree constant, or the
    closed form recomputed at higher precision."""
    L = _lib()
    if lam.denominator == 1 and lam >= 1:
        return mp.mpf(oracle.integer(sym, int(lam)))
    if sym == "U" and lam == Fraction(1, 2):
        return L.half_moment_unitary(ref_bits(bits)).value
    return ref_closed_form(sym, lam, bits)


@functools.lru_cache(maxsize=None)
def ref_closed_form(sym: str, lam: Fraction, bits: int):
    L = _lib()
    return L.moment_closed_form(L.SymmetryClass.parse(sym), lam, ref_bits(bits)).value


def ref_limit(sym: str, lam: Fraction):
    """The closed form as the reference of the limit route; its results
    carry at most about 20 digits, so 128 bits are plenty."""
    L = _lib()
    return L.moment_closed_form(L.SymmetryClass.parse(sym), lam, 128)


def ref_euler(family: str, k: Fraction):
    if family == "zeta" and k == 1:
        return mp.mpf(1)
    if family == "zeta" and k == 2:
        with mp.workdps(60):
            return 6 / mp.pi**2
    return oracle.euler_reference(family, k)


def ref_assemble(sym: str, k: int, ak):
    """g_k / B(k)! * a_k, with a_k a Fraction or an mpf."""
    g = oracle.integer(sym, k)
    with mp.workprec(4096):
        if isinstance(ak, (int, Fraction)):
            ak = mp.mpf(Fraction(ak).numerator) / Fraction(ak).denominator
        return mp.mpf(g) / mp.factorial(oracle.log_power(sym, k)) * ak


def ref_logsum(kind: str, n: int, bits: int):
    with mp.workprec(ref_bits(bits)):
        if kind == "log_j":
            return mp.loggamma(n + 1)
        terms = {
            "log_odd": lambda j: mp.log(2 * j - 1),
            "j_log_j": lambda j: j * mp.log(j),
            "j_log_odd": lambda j: j * mp.log(2 * j - 1),
        }[kind]
        return mp.fsum(terms(j) for j in range(1, n + 1))


def _mpf(encoded: dict):
    with mp.workprec(encoded["bits"] + 128):
        return mp.mpf((int(encoded["man"]), encoded["exp"]))


def _cap(bits: int, shown=None) -> float:
    cap = bits * LOG10_2
    return cap if shown is None else min(cap, shown)


ERR_MISS = "err_estimate miss"


def _limit_outcome(value, err, closed, digits: int, cap: float, shown=None):
    """The limit route must reach the ``digits`` it was asked for, against
    the closed form. Its err_estimate (the last Richardson gap) undercovers
    on about 0.2% of inputs; such a result passes with the note
    ``ERR_MISS`` so that the miss is counted, not hidden."""
    if not _within(value, closed.err_estimate, closed.value, digits + 1):
        return _bad("limit misses its target digits")
    covered = _within(value, float(err) + closed.err_estimate, closed.value, shown)
    note = "" if covered else ERR_MISS
    return True, oracle.correct_digits(value, closed.value, cap), note



# --- CLI requests ----------------------------------------------------------


def cli_exact(argv, expected: dict) -> Request:
    want = dump(expected)
    def check(r):
        if r.get("rc") != 0 or r.get("out") != want:
            return _bad("record differs")
        return _ok()

    return Request("cli", argv, check)


def cli_domain_error(argv, etype: str) -> Request:
    def check(r):
        rec = _record(r, rc=1)
        if (
            rec is None
            or list(rec) != ["command", "error"]
            or rec["command"] != argv[0]
            or list(rec["error"]) != ["type", "message"]
            or rec["error"]["type"] != etype
            or not rec["error"]["message"]
        ):
            return _bad(f"expected a {etype} record with exit 1")
        return _ok()

    return Request("cli", argv, check)


def cli_usage_error(argv) -> Request:
    def check(r):
        if r.get("rc") != 2 or r.get("out") != "" or "usage:" not in r.get("err", ""):
            return _bad("expected a usage error with exit 2")
        return _ok()

    return Request("cli", argv, check)


def cli_gk(sym: str, k: int, factor: bool) -> Request:
    argv = ["gk", sym, str(k)] + (["--factor"] if factor else [])

    def check(r):
        rec = _record(r)
        if rec is None or not oracle.decimal_matches(str(rec.get("result")), sym, k):
            return _bad("g_k value")
        expected = {
            "command": "gk",
            "inputs": {"sym": sym, "k": k},
            "result": rec["result"],
            "log_power": str(oracle.log_power(sym, k)),
        }
        if factor:
            expected["factorization"] = {str(p): e for p, e in oracle.exponents(sym, k)}
        return _ok() if dump(expected) == r["out"] else _bad("record differs")

    return Request("cli", argv, check)


def cli_vp(sym: str, p: int, k: int) -> Request:
    return cli_exact(
        ["vp", sym, str(p), str(k)],
        {
            "command": "vp",
            "inputs": {"sym": sym, "p": p, "k": k},
            "result": str(oracle.valuation(sym, p, k)),
        },
    )


def cli_window(sym: str, p: int, k: int) -> Request:
    return cli_exact(
        ["window", sym, str(p), str(k)],
        {
            "command": "window",
            "inputs": {"sym": sym, "p": p, "k": k},
            "result": oracle.valuation(sym, p, k) == 0,
        },
    )


def cli_cp(p: int, x: Fraction) -> Request:
    return cli_exact(
        ["cp", str(p), fs(x)],
        {"command": "cp", "inputs": {"p": p, "x": fs(x)}, "result": fs(oracle.density(p, x))},
    )


def cli_cp_numeric(p: int, x: Fraction, eps: float) -> Request:
    expected = {
        "command": "cp",
        "inputs": {"p": p, "x": fs(x), "eps": repr(eps)},
        "result": None,
        "err_estimate": f"{eps:.3e}",
        "precision_bits": 128,
    }

    def check(r):
        rec = _record(r)
        if rec is None or not _approx_fields(rec, expected, ("result",)):
            return _bad("record differs")
        ref = oracle.density(p, x)
        if not _within(rec["result"], eps, ref, CLI_DIGITS):
            return _bad("outside err_estimate")
        return _ok(oracle.correct_digits(rec["result"], ref, _cap(128, CLI_DIGITS)))

    return Request("cli", ["cp", str(p), fs(x), "--eps", repr(eps)], check, "self_similar")


def cli_cp_plot(p: int, lo: int, hi: int, n: int) -> Request:
    path = os.path.join(OUT_DIR, "cp_plot.csv")
    expected = {
        "command": "cp-plot",
        "inputs": {"p": p, "x_min": str(lo), "x_max": str(hi), "n": n},
        "result": [path],
        "points": n,
    }
    want = dump(expected)

    def check(r):
        if r.get("rc") != 0 or r.get("out") != want:
            return _bad("record differs")
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        if rows[0] != ["x", "cp"] or len(rows) != n + 1:
            return _bad("csv shape")
        step = Fraction(hi - lo, n - 1)
        for i, (xs, ys) in enumerate(rows[1:]):
            xi = lo + i * step
            if xs != repr(float(xi)) or abs(float(ys) - oracle.density(p, xi)) > 1e-9 + 1e-15:
                return _bad(f"csv row {i}")
        return _ok()

    return Request("cli", ["cp-plot", str(p), str(lo), str(hi), str(n), "--csv", path], check)


def cli_classify(p: int, a: int, b: int) -> Request:
    result, period = oracle.classify(p, a, b)
    expected = {"command": "classify", "inputs": {"p": p, "a": a, "b": b}, "result": result}
    if period is not None:
        expected["period"] = str(period)
    return cli_exact(["classify", str(p), str(a), str(b)], expected)


def _cli_approx(argv, expected, reference, shown, layer, err_key="err_estimate"):
    """An approximate record: exact fields equal, result within err_estimate."""

    def check(r):
        rec = _record(r)
        if rec is None or not _approx_fields(rec, expected, ("result", err_key)):
            return _bad("record differs")
        ref = reference()
        if not _within(rec["result"], rec[err_key], ref, shown):
            return _bad("outside err_estimate")
        return _ok(oracle.correct_digits(rec["result"], ref, _cap(256, shown)))

    return Request("cli", argv, check, layer)


def cli_glambda(sym: str, lam: Fraction, limit: bool, digits: int = 12) -> Request:
    flags = ["--limit", "--digits", str(digits)] if limit else []
    # "--" ends the options, so that a negative degree reads as a value
    argv = ["glambda", *flags, sym] + (["--"] if lam < 0 else []) + [fs(lam)]
    expected = {
        "command": "glambda",
        "inputs": {"sym": sym, "lambda": fs(lam), "route": "limit" if limit else "closed"},
        "result": None,
        "err_estimate": None,
        "precision_bits": 256,
    }
    if not limit:
        return _cli_approx(
            argv, expected, lambda: ref_closed(sym, lam, 256), digits + 2, "analytic_moments"
        )

    def check(r):
        rec = _record(r)
        if rec is None or not _approx_fields(rec, expected, ("result", "err_estimate")):
            return _bad("record differs")
        closed = ref_limit(sym, lam)
        # the printed digits + 2 add their rounding to the target
        return _limit_outcome(
            rec["result"], rec["err_estimate"], closed, digits, digits + 2, shown=digits + 2
        )

    return Request("cli", argv, check, "analytic_moments")


def cli_ghalf() -> Request:
    expected = {
        "command": "ghalf",
        "inputs": {},
        "result": None,
        "err_estimate": None,
        "precision_bits": 256,
    }
    reference = lambda: ref_closed_form("U", Fraction(1, 2), 256)  # noqa: E731
    return _cli_approx(["ghalf"], expected, reference, CLI_DIGITS, "analytic_moments")


def cli_ak(family: str, k: Fraction, cutoff: int) -> Request:
    expected = {
        "command": "ak",
        "inputs": {"family": family, "k": fs(k), "cutoff": cutoff},
        "result": None,
        "err_estimate": None,
        "precision_bits": 256,
    }
    return _cli_approx(
        ["ak", family, fs(k), "--cutoff", str(cutoff)],
        expected,
        lambda: ref_euler(family, k),
        CLI_DIGITS,
        "euler_products",
    )


def cli_assemble(sym: str, a: Fraction, k: int, cutoff: int = None, ak: Fraction = None) -> Request:
    argv = ["assemble", sym, fs(a), str(k)]
    expected = {"command": "assemble", "inputs": {"sym": sym, "A": fs(a), "k": k}}
    if ak is not None:
        argv += ["--ak", fs(ak)]
        expected["inputs"]["ak"] = fs(ak)
        factor = lambda: ak  # noqa: E731
    else:
        argv += ["--cutoff", str(cutoff)]
        if sym == "U":
            expected["ak_source"] = f"zeta-family product, cutoff {cutoff}"
            factor = lambda: ref_euler("zeta", Fraction(k))  # noqa: E731
        elif sym == "Sp":
            expected["ak_source"] = f"quadratic-family product, cutoff {cutoff}"
            factor = lambda: ref_euler("spquad", Fraction(k))  # noqa: E731
        else:
            expected["note"] = (
                "no built-in arithmetic factor for the orthogonal family; "
                "used a_k = 1 (override with --ak)"
            )
            factor = lambda: 1  # noqa: E731
    expected.update(
        result=None,
        err_estimate=None,
        log_power=str(oracle.log_power(sym, k)),
        log_argument_exponent=fs(a),
    )
    return _cli_approx(
        argv, expected, lambda: ref_assemble(sym, k, factor()), CLI_DIGITS, "euler_products"
    )


def cli_mollify(sym: str, pc, qc, theta: Fraction = None) -> Request:
    argv = ["mollify", sym, "--P=" + ",".join(map(fs, pc)), "--Q=" + ",".join(map(fs, qc))]
    poly = oracle.mean_square(sym, pc, qc)
    if isinstance(poly, str):
        return cli_domain_error(argv, poly)
    expected = {
        "command": "mollify",
        "inputs": {"sym": sym, "P": [fs(c) for c in pc], "Q": [fs(c) for c in qc]},
        "result": oracle.format_laurent(poly),
        "theta_validity": "4/7" if sym == "U" else "1",
    }
    if theta is not None:
        argv += ["--theta", fs(theta)]
        expected["inputs"]["theta"] = fs(theta)
        expected["value_at_theta"] = fs(sum(c * theta**t for t, c in poly.items()))
    return cli_exact(argv, expected)


def cli_asym(sym: str, k: int) -> Request:
    expected = {
        "command": "asym",
        "inputs": {"sym": sym, "k": k},
        "result": None,
        "err_estimate": None,
        "log_gk_exact": None,
        "abs_error": None,
    }

    def check(r):
        rec = _record(r)
        approx = ("result", "err_estimate", "log_gk_exact", "abs_error")
        if rec is None or not _approx_fields(rec, expected, approx):
            return _bad("record differs")
        ref = oracle.log_g(sym, k)
        if not _within(rec["log_gk_exact"], 0, ref, CLI_DIGITS):
            return _bad("log g_k")
        if not _within(rec["result"], rec["err_estimate"], ref, CLI_DIGITS):
            return _bad("asymptotic outside err_estimate")
        gap = abs(mp.mpf(rec["result"]) - ref)
        if not _within(rec["abs_error"], 0, gap, 3):
            return _bad("abs_error")
        return _ok(oracle.correct_digits(rec["log_gk_exact"], ref, _cap(256, CLI_DIGITS)))

    return Request("cli", ["asym", sym, str(k)], check)


POLE_ORDER = {"U": lambda k: 2 * k - 1, "O": lambda k: k, "Sp": lambda k: k - 1}


def cli_poles(sym: str, k: int) -> Request:
    return cli_exact(
        ["poles", sym, str(k)],
        {
            "command": "poles",
            "inputs": {"sym": sym, "k": k, "at": fs(Fraction(1, 2) - k)},
            "result": str(POLE_ORDER[sym](k)),
        },
    )


# --- library requests ------------------------------------------------------


def _lib_approx(payload, reference, layer, bits):
    def check(r):
        if "value" not in r:
            return _bad(f"raised {r.get('error')}")
        v = r["value"]
        ref = reference()
        if not _within(_mpf(v), v["err"], ref):
            return _bad("outside err_estimate")
        return _ok(oracle.correct_digits(_mpf(v), ref, _cap(bits)))

    return Request("lib", payload, check, layer)


def lib_closed(sym: str, lam: Fraction, bits: int) -> Request:
    return _lib_approx(
        ["closed", sym, fs(lam), bits], lambda: ref_closed(sym, lam, bits), "analytic_moments", bits
    )


def lib_limit(sym: str, lam: Fraction, digits: int, bits: int) -> Request:
    def check(r):
        if "value" not in r:
            return _bad(f"raised {r.get('error')}")
        return _limit_outcome(
            _mpf(r["value"]), r["value"]["err"], ref_limit(sym, lam), digits, _cap(bits)
        )

    return Request("lib", ["limit", sym, fs(lam), digits, bits], check, "analytic_moments")


def lib_barnes(z: Fraction, bits: int) -> Request:
    def reference():
        with mp.workprec(bits + 64):
            return mp.barnesg(mp.mpf(z.numerator) / z.denominator)

    return _lib_approx(["barnes", fs(z), bits], reference, "analytic_moments", bits)


def lib_half(bits: int) -> Request:
    return _lib_approx(
        ["half", bits], lambda: ref_closed_form("U", Fraction(1, 2), bits), "analytic_moments", bits
    )


def lib_poles(sym: str, k: int, bits: int) -> Request:
    want = POLE_ORDER[sym](k)
    return Request(
        "lib",
        ["poles", sym, k, bits],
        lambda r: _ok() if r.get("value") == want else _bad(f"pole order {r.get('value')}"),
    )


def lib_logsum(kind: str, n: int, bits: int) -> Request:
    def check(r):
        if "value" not in r:
            return _bad(f"raised {r.get('error')}")
        exact, asym = r["value"]
        ref = ref_logsum(kind, n, bits)
        if not _within(_mpf(exact), exact["err"], ref):
            return _bad("exact sum outside err_estimate")
        if not _within(_mpf(asym), asym["err"], ref):
            return _bad("expansion outside err_estimate")
        return _ok(oracle.correct_digits(_mpf(exact), ref, _cap(bits)))

    return Request("lib", ["logsum", kind, n, bits], check, "analytic_moments")


def lib_assemble(sym: str, a: Fraction, k: int, ak: Fraction) -> Request:
    def check(r):
        if "value" not in r:
            return _bad(f"raised {r.get('error')}")
        v = r["value"]
        if v["log_power"] != oracle.log_power(sym, k) or v["log_argument_exponent"] != str(a):
            return _bad("shape fields")
        ref = ref_assemble(sym, k, ak)
        c = v["coefficient"]
        if not _within(_mpf(c), c["err"], ref):
            return _bad("outside err_estimate")
        return _ok(oracle.correct_digits(_mpf(c), ref, _cap(c["bits"])))

    return Request("lib", ["assemble", sym, fs(a), k, fs(ak)], check, "euler_products")


def lib_euler(family: str, k: Fraction, cutoff: int, bits: int) -> Request:
    arg = fs(k) if family == "zeta" else int(k)
    return _lib_approx(
        [family, arg, cutoff, bits], lambda: ref_euler(family, k), "euler_products", bits
    )


# --- input generators --------------------------------------------------------


def _odd_primes(lo: float, hi: float):
    return [p for p in oracle.primes_up_to(int(hi)) if p > lo and p > 2]


def regime_prime(rng, sym: str, k: int):
    """An odd prime with p^2 > B(k) > p, near k where the window lies."""
    b = oracle.log_power(sym, k)
    pool = [p for p in _odd_primes(math.isqrt(b), min(b - 1, 3 * k)) if p * p > b]
    return rng.choice(pool) if pool else None


def density_point(rng, p: int, order_lo: int, order_hi: int) -> Fraction:
    """a/b with b prime and ord_b(p) in [order_lo, order_hi]."""
    while True:
        b = rng.randint(order_lo + 1, 3 * order_hi)
        if b == p or not oracle.is_prime(b):
            continue
        if order_lo <= oracle.order(p, b) <= order_hi:
            a = rng.randint(1, 3 * b)
            if a % b:
                return Fraction(a, b)


def polynomials(rng, sym: str):
    """Random P (P(0) = 0) and Q of degree <= 6; Q even or odd off U."""

    def coeff():
        return Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 3)))

    pc = [Fraction(0)]
    while not any(pc):
        pc = [Fraction(0)] + [coeff() for _ in range(rng.randint(1, 6))]
    parity = rng.randint(0, 1)
    qc = [Fraction(0)]
    while not any(qc):
        qc = [coeff() for _ in range(rng.randint(1, 7))]
        if sym != "U":
            qc = [c if i % 2 == parity else Fraction(0) for i, c in enumerate(qc)]
    return pc, qc


def prime_near(rng, n: int) -> int:
    n = rng.randint(n, n + 10**6)
    while not oracle.is_prime(n):
        n += 1
    return n


def composite_near(rng, n: int) -> int:
    """A product of two primes near sqrt(n): trial division runs to the end."""
    root = math.isqrt(n)
    return prime_near(rng, root) * prime_near(rng, root)


def _stratified(rng, m: int):
    """Draws u in [0, 1) such that every block of m draws puts one in each
    of m equal strata, in a seeded order."""
    while True:
        for stratum in rng.sample(range(m), m):
            yield (stratum + rng.random()) / m


def _near_integer(x: Fraction) -> bool:
    return abs(x - round(x)) < Fraction(1, 100)


def degree(u: float, lo: float, hi: float) -> Fraction:
    """A degree on a 1/1000 grid, at least 1e-2 from every pole 1/2 - k."""
    lam = Fraction(round((lo + u * (hi - lo)) * 1000), 1000)
    while lam < 0 and _near_integer(lam - Fraction(1, 2)):
        lam += Fraction(2, 100)
    return lam


def g_argument(u: float, lo: float, hi: float) -> Fraction:
    """A Barnes G argument on a 1/1000 grid, at least 1e-2 from its zeros."""
    z = Fraction(round((lo + u * (hi - lo)) * 1000), 1000)
    while z < Fraction(1, 100) and _near_integer(z):
        z += Fraction(2, 100)
    return z


def _strata_offsets(rng, centers):
    """Per center, the offsets of successive rounds: -w, 0 and +w (w about
    3% of the center) in a seeded order, plus a seeded +-1. Every three
    rounds cover each stratum the same way, so the cost profile of a run
    does not depend on the seed."""
    orders = {c: rng.sample((-1, 0, 1), 3) for c in centers}
    for r in range(10**9):
        yield {c: orders[c][r % 3] * max(2, c // 30) + rng.randint(-1, 1) for c in centers}


# --- workloads ---------------------------------------------------------------


def cli_cold(rng):
    """One fresh ``python -m lfmoments.cli`` per request; small sizes."""
    zeta_ks = [Fraction(1), Fraction(2), Fraction(3)]
    sp_ks = [1, 2, 3]
    domain_errors = [
        (["glambda", "U", "--", "-1/2"], "PoleError"),
        (["window", "U", "101", "5"], "OutOfRegime"),
        (["window", "Sp", "7", "5"], "UnsupportedClass"),
        (["mollify", "U", "--P=1,1", "--Q=1"], "ConstraintError"),
        (["classify", "3", "1", "6"], "PreconditionError"),
        (["cp-plot", "3", "1", "2", "5"], "DomainError"),
        (["ak", "spquad", "1/2"], "LfmomentsError"),
    ]
    usage_errors = [["gk", "X", "3"], ["vp", "U", "4", "3"], ["ak", "foo", "2"], ["cp", "5", "abc"]]
    big_primes = [prime_near(rng, 10**12) for _ in range(3)]
    big_composites = [composite_near(rng, 10**12) for _ in range(2)]
    offset = rng.randrange(12)
    for i in range(offset, 10**9):
        sym = CLASSES[i % 3]
        k = rng.randint(2, 60)
        b = oracle.log_power(sym, k)
        window_sym, window_k = ("O", k + 1) if sym == "Sp" else (sym, k)
        window_p = regime_prime(rng, window_sym, window_k)
        if window_p is None:
            window_sym, window_k = "U", k
            window_p = regime_prime(rng, "U", k)
        p = rng.choice((3, 5, 7))
        x = density_point(rng, p, 5, 60)
        lo = rng.randint(1, 4)
        pc, qc = polynomials(rng, sym)
        reqs = [
            cli_gk(sym, k, False),
            cli_gk(sym, rng.randint(2, 60), True),
            cli_vp(sym, rng.choice([2] + _odd_primes(2, b)), k),
            cli_window(window_sym, window_p, window_k),
            cli_cp(p, x),
            cli_cp_numeric(rng.choice((3, 5, 7)), density_point(rng, 3, 5, 40), 1e-9),
            cli_cp_plot(
                rng.choice((3, 5)), lo, lo + rng.randint(1, 8), rng.choice((11, 21, 25, 31))
            ),
            cli_classify(p, x.numerator, x.denominator),
            cli_glambda(sym, degree(rng.random(), -0.45, 5), False),
            cli_glambda(
                CLASSES[(i + 1) % 3], degree(rng.random(), -0.45, 3), True, rng.randint(8, 12)
            ),
            cli_ghalf(),
            cli_ak("zeta", zeta_ks[i % 3], 1000),
            cli_ak("spquad", Fraction(sp_ks[(i + 1) % 3]), 1000),
            cli_assemble(
                CLASSES[(i + 2) % 3],
                Fraction(rng.randint(1, 4), rng.randint(1, 3)),
                1 + i % 3,
                1000,
            ),
            cli_mollify(sym, pc, qc, Fraction(rng.randint(1, 9), 10) if i % 2 else None),
            cli_asym(sym, rng.randint(2, 60)),
            cli_poles(sym, rng.randint(1, 3)),
            cli_vp(sym, rng.choice(big_primes), k),
            cli_cp(rng.choice(big_primes), density_point(rng, 7, 5, 30)),
            cli_usage_error(["vp", sym, str(rng.choice(big_composites)), str(k)]),
            cli_domain_error(*domain_errors[i % len(domain_errors)]),
            cli_usage_error(usage_errors[i % len(usage_errors)]),
        ]
        rng.shuffle(reqs)
        yield reqs


# centers of the k strata of exact_sweep, per class; denser at small k
EXACT_K = (6, 22, 45, 74, 107, 143, 184, 227)
# multiplicative-order strata of the exact densities
DENSITY_ORDERS = ((20, 40), (120, 180), (600, 800), (2300, 2500))


def exact_group(rng, sym: str, k: int):
    """The requests that share one (class, k)."""
    b = oracle.log_power(sym, k)
    group = [cli_gk(sym, k, False), cli_gk(sym, k, True), cli_vp(sym, 2, k)]
    odd = _odd_primes(2, b)
    if odd:
        group.append(cli_vp(sym, rng.choice(odd), k))
    window_sym, window_k = ("O", k + 1) if sym == "Sp" else (sym, k)
    p = regime_prime(rng, window_sym, window_k)
    if p:
        group.append(cli_window(window_sym, p, window_k))
    group.append(cli_asym(sym, k))
    return group


def exact_sweep(rng):
    """Warm in-process ``cli.main`` calls on the exact engines."""
    offsets = {sym: _strata_offsets(rng, EXACT_K) for sym in CLASSES}
    while True:
        items = []
        for sym in CLASSES:
            shift = next(offsets[sym])
            items += [exact_group(rng, sym, min(250, c + shift[c])) for c in EXACT_K]
        for lo, hi in DENSITY_ORDERS:
            p = rng.choice((3, 5, 7))
            items.append([cli_cp(p, density_point(rng, p, lo, hi))])
        for lo, hi in DENSITY_ORDERS[:2]:
            p = rng.choice((3, 5, 7))
            x = density_point(rng, p, lo, hi)
            items.append([cli_classify(p, x.numerator, x.denominator)])
        for sym in rng.sample(CLASSES, 2):
            pc, qc = polynomials(rng, sym)
            items.append([cli_mollify(sym, pc, qc, Fraction(rng.randint(1, 9), 10))])
        for k_lo, k_hi in ((2, 60), (60, 120)):
            items.append(
                [
                    cli_assemble(
                        rng.choice(CLASSES),
                        Fraction(rng.randint(1, 4), rng.randint(1, 3)),
                        rng.randint(k_lo, k_hi),
                        ak=Fraction(rng.randint(1, 99), rng.randint(1, 99)),
                    )
                ]
            )
        rng.shuffle(items)
        yield [req for item in items for req in item]


# (family, k, cutoff, bits) of the Euler products: each cell keeps one
# precision, so every round has the same cost profile
EULER_CELLS = tuple(
    (family, Fraction(k), cutoff, bits)
    for family, cutoffs in (
        ("zeta", ((1000, 256), (10000, 128))),
        ("spquad", ((1000, 128), (10000, 256))),
    )
    for k in (1, 2, 3)
    for cutoff, bits in cutoffs
)
BITS = (128, 256, 1024)


APPROX_STRATA = 6
SUM_KINDS = ("log_j", "log_odd", "j_log_j", "j_log_odd")


def approx_sweep(rng):
    """Warm in-process library calls at explicit precision."""
    draws = {}

    def u(cell) -> float:
        return next(draws.setdefault(cell, _stratified(rng, APPROX_STRATA)))

    for i in range(rng.randrange(3), 10**9):
        sym = lambda j: CLASSES[(i + j) % 3]  # noqa: E731
        bits = lambda j: BITS[(i + j) % 3]  # noqa: E731
        reqs = [
            lib_closed(sym(j), degree(u(("closed", j)), -3.5, 6), BITS[j % 3]) for j in range(8)
        ]
        reqs += [
            lib_limit(
                sym(j), degree(u(("limit", j)), -0.45, 3.5), 8 + int(9 * u(("digits", j))), BITS[j]
            )
            for j in range(3)
        ]
        reqs += [lib_barnes(g_argument(u(("barnes", j)), -3.5, 8), BITS[j % 3]) for j in range(4)]
        reqs += [
            lib_logsum(SUM_KINDS[(2 * i + j) % 4], round(10 * 300 ** u(("logsum", j))), bits(j))
            for j in range(2)
        ]
        reqs += [
            lib_closed(sym(1), Fraction(1 + int(5 * u("integer"))), bits(1)),
            lib_closed("U", Fraction(1, 2), bits(2)),
            lib_poles(sym(0), 1 + i % 3, BITS[i % 2]),
            lib_half(bits(0)),
            lib_assemble(
                sym(2),
                Fraction(rng.randint(1, 4), rng.randint(1, 3)),
                1 + int(12 * u("assemble")),
                Fraction(rng.randint(1, 99), rng.randint(1, 99)),
            ),
        ]
        reqs += [lib_euler(*cell) for cell in EULER_CELLS]
        rng.shuffle(reqs)
        yield reqs

WORKLOADS = {"cli_cold": cli_cold, "exact_sweep": exact_sweep, "approx_sweep": approx_sweep}

# A run is a whole number of rounds fixed by --seconds, so that both sides
# of a comparison do the same work: ROUNDS_PER_30S rounds for 30 seconds,
# scaled and rounded to a multiple of the stratum count that keeps the
# strata balanced. At the commit that added the benchmark, on a 2-vCPU
# x86-64 VM, 30 seconds give about 30 s (cli_cold), 20 s (exact_sweep) and
# 28 s (approx_sweep) of request time; exact_sweep is kept short because
# its runs also pay the most for checks.
ROUNDS_PER_30S = {"cli_cold": 7, "exact_sweep": 3, "approx_sweep": 12}
STRATA = {"cli_cold": 1, "exact_sweep": 3, "approx_sweep": APPROX_STRATA}


def rounds_per_run(name: str, seconds: float) -> int:
    blocks = round(seconds / 30 * ROUNDS_PER_30S[name] / STRATA[name])
    return STRATA[name] * max(1, blocks)
