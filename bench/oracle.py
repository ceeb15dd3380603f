"""Independent reference values for the benchmark's output checks.

Nothing here imports ``lfmoments``: every exact reference is rebuilt from
the defining formulas, so a wrong record cannot be confirmed by the code
that produced it.

* ``exponents`` gives v_p(g_k) for every prime through Legendre's formula
  applied to the all-factorial form of g_k.
* ``decimal_matches`` checks a decimal string against a factored integer
  modulo three Mersenne primes plus its length, in linear time.
* ``density`` and ``classify`` evaluate c_p(x) and the local class of its
  graph with integer accumulation.
* ``mean_square`` expands the mollifier double integrals as bivariate
  polynomials and integrates monomials.
* ``euler_reference`` is a prime-zeta accelerated Euler product (H. Cohen,
  "High precision computation of Hardy-Littlewood constants", 1998). It is
  a test oracle only.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import mpmath as mp

_MODULI = (2**61 - 1, 2**89 - 1, 2**107 - 1)
_CHUNK = 19


def log_power(sym: str, k: int) -> int:
    if sym == "U":
        return k * k
    if sym == "O":
        return k * (k - 1) // 2
    return k * (k + 1) // 2


@functools.lru_cache(maxsize=8)
def primes_up_to(n: int) -> tuple:
    if n < 2:
        return ()
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return tuple(i for i, f in enumerate(flags) if f)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _factorial_form(sym: str, k: int):
    """g_k = B! * 2^two * prod(num factorials) / prod(den factorials)."""
    b = log_power(sym, k)
    if sym == "U":
        return b, 0, [(j, 2) for j in range(1, k)], list(range(1, 2 * k))
    if sym == "O":
        return b, b + k - 1, [(j, 1) for j in range(1, k)], [2 * j for j in range(1, k)]
    return b, b, [(j, 1) for j in range(1, k + 1)], [2 * j for j in range(1, k + 1)]


def _v_factorial(n: int, p: int) -> int:
    total = 0
    while n:
        n //= p
        total += n
    return total


@functools.lru_cache(maxsize=64)
def exponents(sym: str, k: int) -> tuple:
    """((p, v_p(g_k)), ...) for the primes dividing g_k, ascending."""
    b, two, num, den = _factorial_form(sym, k)
    small = max([j for j, _ in num] + den + [1])
    out = []
    for p in primes_up_to(max(b, small)):
        e = _v_factorial(b, p) + (two if p == 2 else 0)
        if p <= small:
            e += sum(m * _v_factorial(j, p) for j, m in num)
            e -= sum(_v_factorial(j, p) for j in den)
        if e < 0:
            raise AssertionError(f"negative exponent of {p} in g_{k} {sym}")
        if e:
            out.append((p, e))
    return tuple(out)


def valuation(sym: str, p: int, k: int) -> int:
    return dict(exponents(sym, k)).get(p, 0)


def integer(sym: str, k: int) -> int:
    """g_k itself, by a product tree over the prime powers."""
    layer = [p**e for p, e in exponents(sym, k)] or [1]
    while len(layer) > 1:
        layer = [math.prod(layer[i : i + 2]) for i in range(0, len(layer), 2)]
    return layer[0]


def decimal_matches(text: str, sym: str, k: int) -> bool:
    """Whether ``text`` is the decimal expansion of g_k."""
    if not text.isdigit() or text.startswith("0"):
        return False
    exps = exponents(sym, k)
    log10 = math.fsum(e * math.log10(p) for p, e in exps)
    frac = log10 - math.floor(log10)
    if min(frac, 1 - frac) > 1e-6 and len(text) != math.floor(log10) + 1:
        return False
    for modulus in _MODULI:
        want = 1
        for p, e in exps:
            want = want * pow(p, e, modulus) % modulus
        got = 0
        for i in range(0, len(text), _CHUNK):
            chunk = text[i : i + _CHUNK]
            got = (got * 10 ** len(chunk) + int(chunk)) % modulus
        if got != want:
            return False
    return True


def log_g(sym: str, k: int, bits: int = 160) -> mp.mpf:
    with mp.workprec(bits):
        return mp.fsum(e * mp.log(p) for p, e in exponents(sym, k))


# --- densities ---------------------------------------------------------------


def _abs_least(n: int, b: int) -> int:
    r = n % b
    return r - b if 2 * r > b else r


def order(p: int, b: int) -> int:
    if b == 1:
        return 1
    r, t = 1, p % b
    while t != 1:
        t = t * p % b
        r += 1
    return r


def density(p: int, x: Fraction) -> Fraction:
    """c_p(x) = x^-1 sum_l p^-l ||p^l x||^2 as an exact rational."""
    while x.denominator % p == 0:
        x *= p
    a, b = x.numerator, x.denominator
    # l = -m < 0: exact terms while x/p^m > 1/2, then ||x/p^m|| = x/p^m
    negative = Fraction(0)
    m = 1
    while 2 * a > b * p**m:
        y = x / p**m
        d = min(y - math.floor(y), math.ceil(y) - y)
        negative += p**m * d * d
        m += 1
    negative += x * x * p / ((p - 1) * p**m)
    # l >= 0: residues of a p^l mod b repeat with period r = ord_b(p)
    r = order(p, b)
    acc = 0
    t = a % b
    for _ in range(r):
        acc = acc * p + _abs_least(t, b) ** 2
        t = t * p % b
    positive = Fraction(acc * p, b * b * (p**r - 1))
    return (negative + positive) / x


def classify(p: int, a: int, b: int):
    """("self-similar", period) | ("cusp", None) | ("vertical-tangent", None)."""
    x = Fraction(a, b)
    a, b = x.numerator, x.denominator
    r = order(p, b)
    s = sum(_abs_least(a * pow(p, i, b), b) for i in range(r))
    if s == 0:
        return "self-similar", r
    return ("cusp", None) if b == 2 else ("vertical-tangent", None)


# --- mollifier ---------------------------------------------------------------


def _deriv(c):
    return [i * c[i] for i in range(1, len(c))]


def _eval(c, x):
    return sum(ci * x**i for i, ci in enumerate(c))


def _square_integral(terms):
    """int_0^1 int_0^1 (sum theta^t f(x) g(y))^2 dx dy, by theta power.

    ``terms`` is a list of (t, f, g) with f, g coefficient lists.
    """
    out = {}
    for t1, f1, g1 in terms:
        for t2, f2, g2 in terms:
            value = sum(
                a * c * Fraction(1, i + j + 1) * b * d * Fraction(1, u + v + 1)
                for i, a in enumerate(f1)
                for j, c in enumerate(f2)
                for u, b in enumerate(g1)
                for v, d in enumerate(g2)
            )
            out[t1 + t2] = out.get(t1 + t2, Fraction(0)) + value
    return out


def mean_square(sym: str, pc, qc):
    """{theta power: coefficient} of the mollified mean square, or the
    name of the error the definition requires."""
    pc = [Fraction(c) for c in pc]
    qc = [Fraction(c) for c in qc]
    if pc and pc[0] != 0:
        return "ConstraintError"
    if sym == "U":
        raw = _square_integral([(0, _deriv(pc), qc), (1, pc, _deriv(qc))])
        poly = {t - 1: v for t, v in raw.items()}
        poly[0] = poly.get(0, 0) + _eval(pc, 1) ** 2 * _eval(qc, 0) ** 2
        return {t: v for t, v in poly.items() if v}
    even = all(c == 0 for c in qc[1::2])
    odd = all(c == 0 for c in qc[0::2])
    if not (even or odd):
        return "ConstraintError"
    if sym == "Sp":
        if odd:
            return {}
        g = [Fraction(0)] + [c / (i + 1) for i, c in enumerate(qc)]
    else:
        g = qc
    boundary = {0: _eval(pc, 1) * _eval(_deriv(g), 1), -1: _eval(_deriv(pc), 1) * _eval(g, 1)}
    poly = {}
    for t1, v1 in boundary.items():
        for t2, v2 in boundary.items():
            poly[t1 + t2] = poly.get(t1 + t2, 0) + v1 * v2
    raw = _square_integral(
        [(-1, _deriv(_deriv(pc)), g), (1, [-c for c in pc], _deriv(_deriv(g)))]
    )
    for t, v in raw.items():
        poly[t - 1] = poly.get(t - 1, 0) + v
    return {t: v for t, v in poly.items() if v}


def format_laurent(poly: dict) -> str:
    if not poly:
        return "0"
    pieces = []
    for power in sorted(poly, reverse=True):
        c = poly[power]
        mag = abs(c)
        if power == 0:
            body = str(mag)
        else:
            var = "theta" if power == 1 else f"theta^{power}"
            body = var if mag == 1 else f"{mag}*{var}"
        if not pieces:
            pieces.append(f"-{body}" if c < 0 else body)
        else:
            pieces.append(f"- {body}" if c < 0 else f"+ {body}")
    return " ".join(pieces)


# --- Euler products ----------------------------------------------------------

_EXACT_PRIMES = 100
_SERIES_TERMS = 40


def _log_series(f):
    """Coefficients of log F from those of F (F(0) = 1)."""
    n_max = len(f)
    logs = [mp.mpf(0)] * n_max
    for n in range(1, n_max):
        acc = n * f[n]
        for j in range(1, n):
            acc -= j * logs[j] * f[n - j]
        logs[n] = acc / n
    return logs


def _local_series(family: str, k, n_max: int):
    """Taylor coefficients in x = 1/p of the local factor F_p."""
    if family == "zeta":
        k = mp.mpf(k)
        hyp, d = [], mp.mpf(1)
        for j in range(n_max):
            hyp.append(d * d)
            d = d * (k + j) / (j + 1)
        power = mp.mpf(k * k)
    else:
        hyp = [mp.mpf(math.comb(k + 2 * m - 1, 2 * m)) for m in range(n_max)]
        hyp[1] += 1
        # (avg + x) / (1 + x): divide by 1 + x
        for j in range(1, n_max):
            hyp[j] -= hyp[j - 1]
        power = mp.mpf(k * (k + 1) // 2)
    binom, c = [], mp.mpf(1)
    for j in range(n_max):
        binom.append(c)
        c = c * (j - power) / (j + 1)
    return [mp.fsum(hyp[i] * binom[n - i] for i in range(n + 1)) for n in range(n_max)]


def _local_value(family: str, k, p: int):
    x = mp.mpf(1) / p
    if family == "zeta":
        k = mp.mpf(k)
        return (1 - x) ** (k * k) * mp.hyp2f1(k, k, 1, x)
    root = mp.sqrt(x)
    avg = ((1 + root) ** -k + (1 - root) ** -k) / 2
    return (1 - x) ** (k * (k + 1) // 2) * (avg + x) / (1 + x)


@functools.lru_cache(maxsize=None)
def euler_reference(family: str, k: Fraction, dps: int = 40) -> mp.mpf:
    """prod_p F_p: exact over p <= 100, prime zeta series beyond."""
    with mp.workdps(dps + 15):
        kk = mp.mpf(k.numerator) / k.denominator if family == "zeta" else int(k)
        small = primes_up_to(_EXACT_PRIMES)
        head = mp.fsum(mp.log(_local_value(family, kk, p)) for p in small)
        logs = _log_series(_local_series(family, kk, _SERIES_TERMS))
        if abs(logs[1]) > mp.mpf(10) ** (-dps):
            raise AssertionError("local factor is not 1 + O(p^-2)")
        tail = mp.fsum(
            logs[m] * (mp.primezeta(m) - mp.fsum(mp.mpf(p) ** -m for p in small))
            for m in range(2, _SERIES_TERMS)
        )
        return +mp.exp(head + tail)


# --- accuracy ----------------------------------------------------------------


def to_mpf(x):
    """A printed decimal, int, Fraction or mpf at the current precision."""
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)


def correct_digits(value, reference, cap: float) -> float:
    """Correct significant digits of ``value``, at most ``cap``."""
    with mp.workprec(max(mp.mp.prec, 4096)):
        gap = abs(to_mpf(value) - to_mpf(reference))
        scale = abs(to_mpf(reference))
        if gap == 0 or scale == 0:
            return float(cap)
        return min(float(cap), float(-mp.log10(gap / scale)))
