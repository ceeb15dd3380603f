"""Moment constants at non-integer degree.

The exact integers of :mod:`lfmoments.exact_moments` interpolate to an
analytic function of the degree parameter.  This module evaluates that
function two independent ways:

* as the large-matrix limit of finite products of Gamma-function ratios,
  accelerated by Richardson extrapolation (``moment_by_limit``), and
* in closed form through the Barnes G-function (``moment_closed_form``):
  one formula each for U and O, Sp as the shifted O value
  g_Sp(lambda) = 2^-lambda g_O(lambda + 1), one G value per closed form.

It also houses the supporting pieces those routes need: a first-party
Barnes G (a fixed-point log-G series on one exact Bernoulli table, shifted
through the integer product kernel of the limit ladder), Gamma from 1000
bits on (a log-Gamma series in the same pass, where mpmath would build a
Gamma table for each working precision), the three
analytic constants the formulas read (log 2, zeta'(0) and zeta'(-1) from
the superfactorial, cached per precision), the unitary constant at degree
1/2, the pole orders counted from the zeros of Barnes G, and the
large-degree asymptotic expansions of ``log g_k`` together with the
partial-sum expansions they rest on.

Convention fixed here (and validated by the integer cross-checks in the
test suite): reported moment values include the ``Gamma(1 + B(lambda))``
factor, so they agree with the exact integers at integer degree.  The bare
ratio (which is what has poles of the advertised orders) is exposed
separately as ``moment_ratio_closed_form``; the closed forms divide by
Barnes G directly (the double gamma function is its reciprocal).

The orthogonal-class limit product carries an extra factor 1/2 relative
to a naive transcription; without it the product reproduces twice every
integer moment.  The closed form independently produces the same halved
normalization, so the two routes agree everywhere, not just at integers.
"""

from __future__ import annotations

import functools
import math
import threading
from fractions import Fraction
from itertools import compress, count

import mpmath as mp

from .errors import DomainError, NoConvergence, PoleError, WorkBudget, brief, require_int
from .exact_moments import SymmetryClass, log_power, require_class
from .numeric_core import _balanced_product, primes_up_to
from .precision import RealApprox, _ratio_to_mpf, approx, to_fraction, to_mpf, working_precision

_POLE_RADIUS = mp.mpf("1e-8")
_LADDER_START = 32
# the largest N of the limit ladder and the longest shift of Barnes G
_LADDER_MAX_N = 1 << 20
# bits of _RunningProduct above the working precision: m ladder steps
# cost m(m + 3) of its ulps, and m <= 2 _LADDER_MAX_N + 1
_KERNEL_GUARD = 64
# bits of the limit ladder above its target digits' (_ladder_bits derives it)
_LADDER_GUARD = 112
# the ladder charges its kernel steps to a WorkBudget of 3 s before each rung,
# (w + 832)^2 / 1536 + r (w + 2^10) / 2^8 ns a step on a w-bit term and
# r-bit ratio ints: timed (best of 12) at 0.5-0.8 us for w = 192 and 50-56 us
# for w = 8304 at small r, and up to the second term more for r = 22 to 4239
# (2-vCPU x86-64, CPython 3.11, no gmpy2)
_LADDER_WORK_NS = 3 * 10**9


# ---------------------------------------------------------------------------
# analytic constants


@functools.lru_cache(maxsize=None)
def _constants(prec: int):
    """(log 2, zeta'(0), zeta'(-1)) for the closed forms and asymptotics,
    at the mpmath working precision prec."""
    with mp.workprec(prec):
        log_2 = mp.log(2)
        zp0 = -mp.log(2 * mp.pi) / 2
        # zeta'(-1) = log G(n + 1) minus the log-G series at z = n + 1 (past
        # the series threshold) without its zeta'(-1) term; the superfactorial
        # G(n + 1) = 1! 2! ... (n-1)! runs in the kernel, term i! with ratio i + 1
        n = math.ceil(_series_threshold()) - 1
        superfactorial = _RunningProduct(mp.mpf(1), lambda i: (i + 1, 1)).advance(n - 1)
        zpm1 = mp.log(superfactorial) - _log_g_gamma(n, 1, 0, gamma=False)[0]
        return log_2, zp0, zpm1


# ---------------------------------------------------------------------------
# Barnes G

# B_2, B_4, ... as Fractions, shared by every precision, and the last column
# of the tangent-number triangle that extends it
_BERNOULLI: list = [Fraction(1, 6)]
_TANGENT_COLUMN: list = [1]
# fixed-point width -> floor(2^width B_{2k+2} / (4k(k+1))) for k = 1, 2, ...
_LOG_G_COEFFS: dict = {}
# fixed-point width -> floor(2^width B_2k / (2k(2k-1))) for k = 1, 2, ...
_LOG_GAMMA_COEFFS: dict = {}
# the tables above grow only under this lock
_TABLE_LOCK = threading.Lock()
# from 1000 bits on, mpmath keys its Gamma Taylor table on the exact working
# precision, so the first mp.gamma at each such width builds its own (88 ms
# at 1072 bits, 0.73 s at 2096, 6.7 s at 4144); below, the widths share
# tables rounded up to 10 or 30 bits (6 ms cold and 24 us warm at 304 bits).
# From here up Gamma comes from _log_g_gamma, below it from mp.gamma
_GAMMA_TABLE_BITS = 1000
# the widest p of y = p/q that the log-series Horner divides by exactly, and
# of the rising factorials _gamma multiplies out exactly; only an mpf's
# binary ratio is wider.  200 Horner steps at 1072 bits took 3.1 ms exact
# against 0.86 ms on u for a 1072-bit p, and 0.21 against 0.86 ms for p =
# 1000; the exact (x)_n took 9.4 ms at 1072 bits and 637 ms at 4144 against
# 1.3 and 17 ms as mpf factors for an mpf's ratio, and 0.036 and 0.12 ms
# against 1.2 and 14 ms for x = 58/9
_NARROW_BITS = 64


def _bernoulli_table(count: int) -> list:
    """[B_2, B_4, ...] with at least ``count`` entries.

    B_2n = (-1)^(n-1) 2n T_n / (4^n (4^n - 1)), with the tangent numbers
    T_n from Brent and Harvey's integer recurrence taken column by column:
    column n holds T_n after each pass, and column n + 1 needs only column
    n, so the table grows one entry at a time without a rebuild.
    """
    while len(_BERNOULLI) < count:
        n = len(_BERNOULLI) + 1
        prev = _TANGENT_COLUMN
        column = [(n - 1) * prev[0]]
        for k in range(2, n):
            column.append((n - k) * prev[k - 1] + (n - k + 2) * column[-1])
        column.append(2 * column[-1])
        _TANGENT_COLUMN[:] = column
        _BERNOULLI.append(
            Fraction((-1) ** (n - 1) * 2 * n * column[-1], 4**n * (4**n - 1))
        )
    return _BERNOULLI


def _coefficients(cache: dict, width: int, count: int) -> list:
    """The first ``count`` (or more) fixed-point coefficients of the log-G
    (cache _LOG_G_COEFFS) or log-Gamma (_LOG_GAMMA_COEFFS) series."""
    with _TABLE_LOCK:
        coeffs = cache.setdefault(width, [])
        bernoulli = _bernoulli_table(count + 1)
        for k in range(len(coeffs) + 1, count + 1):
            if cache is _LOG_G_COEFFS:
                b, d = bernoulli[k], 4 * k * (k + 1)  # B_{2k+2}
            else:
                b, d = bernoulli[k - 1], 2 * k * (2 * k - 1)  # B_2k
            coeffs.append((b.numerator << width) // (b.denominator * d))
    return coeffs


def _series_threshold() -> float:
    """Smallest z at which the log-G series reaches the working precision."""
    return max(mp.mp.prec / 8 + 17, 33)


def _log_g_gamma(p: int, q: int, zpm1, gamma: bool) -> tuple:
    """(log G(y + 1), log Gamma(y + 1)) at the exact rational y = p/q > 0,
    y + 1 at or past the series threshold; the first is None when zpm1 is
    None, the second when not ``gamma``.

    log G(y+1) = zeta'(-1) + (y/2) log 2pi + (y^2/2 - 1/12) log y - (3/4) y^2
                 + sum_{k>=1} c_k / y^{2k},       c_k = B_{2k+2} / (4k(k+1)),
    log Gamma(y+1) = (y + 1/2) log y - y + (1/2) log 2pi
                 + sum_{k>=1} d_k / y^{2k-1},     d_k = B_2k / (2k(2k-1)).
    Each sum keeps K terms, K the first k whose term falls below
    2^-(prec + 8) of its total, judged from the bit lengths of the
    fixed-point coefficients, and runs in W = prec + 32 bit fixed point by
    Horner from K down in powers of r = q^2/p^2: a step adds the next
    coefficient, multiplies by q^2 and floor-divides by p^2 (for p wider
    than _NARROW_BITS, multiplies by u = floor(2^W r) and shifts right by
    W).  A step rounds down by under 1 ulp (2^-W) and carries the error
    before it times r <= 1/1024 (y >= 32), each coefficient is floored
    within 1 ulp, and u's own rounding adds under 1/12 ulp in all, so each
    sum is within 2 ulps of its K terms.
    The terms fall until k ~ pi y, where they are near e^(-2 pi y) ~
    2^(-9.06 y); every caller has y >= prec/8 + 16 (_series_threshold), so
    the cutoff stops the sum while they still fall, near k ~ 1.7 y.
    """
    width = mp.mp.prec + 32
    y = _ratio_to_mpf(p, q)
    log_y, log_2pi = mp.log(y), mp.log(2 * mp.pi)
    log2_y = math.log2(p) - math.log2(q)
    p2, q2 = p * p, q * q
    u = (q2 << width) // p2 if p.bit_length() > _NARROW_BITS else None

    def horner(cache, total, odd):
        # sum_{k=1..K} coeffs[k] r^(k - odd/2) at 2^-W: term k has about
        # bitlen(coeffs[k]) - (2k - odd) log2 y bits there, and is under
        # 2^-(prec + 8) max(|total|, 1) once that is under cutoff
        cutoff = width - mp.mp.prec - 8 + max(mp.mag(total) - 1, 0)
        coeffs = cache.get(width, [])
        for k in count(1):
            if k > len(coeffs):
                coeffs = _coefficients(cache, width, k)
            if coeffs[k - 1].bit_length() - (2 * k - odd) * log2_y < cutoff:
                break
        first, acc = (coeffs[0], 0) if odd else (0, 0)
        rest = coeffs[odd:k]
        if u is None:
            for c in reversed(rest):
                acc = (acc + c) * q2 // p2
        else:
            for c in reversed(rest):
                acc = (acc + c) * u >> width
        # odd: (d_1 + sum_{k>=2} d_k r^(k-1)) / y
        return total + mp.mpf(((first + acc) * q // p if odd else acc, -width))

    log_g = log_gamma = None
    if zpm1 is not None:
        log_g = horner(_LOG_G_COEFFS, zpm1 + y / 2 * log_2pi
                       + (y * y / 2 - mp.mpf(1) / 12) * log_y - 3 * y * y / 4, 0)
    if gamma:
        log_gamma = horner(_LOG_GAMMA_COEFFS, (y + 0.5) * log_y - y + log_2pi / 2, 1)
    return log_g, log_gamma


def _exact_ratio(z) -> tuple:
    """(a, b) with a/b = z: an int's or Fraction's own when b is no wider
    than the working precision, otherwise the binary ratio of z rounded to
    it (at 1072 bits a 150-step shift took 0.83 ms on such a ratio, whose
    denominator is about 2^prec, against 0.30 ms on lambda + 1/2's ints)."""
    if isinstance(z, (int, Fraction)) and z.denominator.bit_length() <= mp.mp.prec:
        return z.numerator, z.denominator
    return to_fraction(to_mpf(z)).as_integer_ratio()


def _barnes_g_raw(z, zpm1: mp.mpf) -> tuple:
    """(G(z), Gamma(z)) at working precision; caller guards nonpositive integers.

    z = a/b (_exact_ratio; an mpf or an exact Fraction) is shifted up by
    n >= 0 steps to x = z + n at or past the series threshold, where one
    _log_g_gamma pass on y = x - 1 = (a + (n - 1) b)/b gives log G(x) and
    log Gamma(x).  Then G(z) = G(x) / prod_{i<n} Gamma(z + i), and
    prod_{i<n} Gamma(z + i) = Gamma(z)^n prod_{i=1}^{n-1} (z)_i, whose
    rising factorials run in _RunningProduct on a/b exactly; its last term
    is (z)_n, so Gamma(z) = Gamma(x) / (z)_n.  A shifted z below
    _GAMMA_TABLE_BITS takes Gamma(z) from mp.gamma instead.  The cost is
    linear in n, and the kernel's rounding bound holds for n up to
    _LADDER_MAX_N; a longer shift is a DomainError, raised before any work.
    """
    zv = to_mpf(z)
    n = max(0, int(mp.ceil(_series_threshold() - zv)))
    if n > _LADDER_MAX_N:
        raise DomainError(
            f"Barnes G at {mp.nstr(zv, 15)} needs a shift of more than "
            f"{_LADDER_MAX_N} steps, the cost bound"
        )
    a, b = _exact_ratio(z)
    series_gamma = n == 0 or mp.mp.prec >= _GAMMA_TABLE_BITS
    log_g, log_gamma = _log_g_gamma(a + (n - 1) * b, b, zpm1, series_gamma)
    product = rising = mp.mpf(1)
    if n:
        kernel = _RunningProduct(zv, lambda i: (a + i * b, b))
        product, rising = kernel.advance(n - 1), kernel.term()
    gamma = mp.gamma(zv) if log_gamma is None else mp.exp(log_gamma) / rising
    return mp.exp(log_g) / (gamma**n * product), gamma


def _gamma(x: Fraction) -> mp.mpf:
    """Gamma(x) for a rational x > 0 at the working precision.

    Below _GAMMA_TABLE_BITS it is mp.gamma's.  From there up x = a/b
    (_exact_ratio) is shifted n >= 0 steps to x + n at or past the series
    threshold, Gamma(x) = Gamma(x + n) / (x)_n, with Gamma(x + n) from
    _log_g_gamma and (x)_n = prod_{i<n} (a + ib) / b^n multiplied out
    exactly, or for a + (n - 1) b wider than _NARROW_BITS as n rounded mpf
    factors (within n ulps).
    """
    if mp.mp.prec < _GAMMA_TABLE_BITS:
        return mp.gamma(to_mpf(x))
    a, b = _exact_ratio(x)
    n = max(0, int(mp.ceil(_series_threshold() - to_mpf(x))))
    p = a + (n - 1) * b
    _, log_gamma = _log_g_gamma(p, b, None, gamma=True)
    if p.bit_length() <= _NARROW_BITS:
        rising = _ratio_to_mpf(_balanced_product(list(range(a, a + n * b, b))), b**n)
    else:
        xv = to_mpf(x)
        rising = mp.fprod(xv + i for i in range(n))
    return mp.exp(log_gamma) / rising


def barnes_g(z, precision_bits=None) -> RealApprox:
    """Barnes G-function, normalized by G(1) = G(2) = 1, G(z+1) = Gamma(z) G(z).

    Computed by shifting z up n steps into the asymptotic regime of the
    log-G series, G(z) = G(z + n) / (Gamma(z)^n prod_{i=1}^{n-1} (z)_i),
    so one Gamma value and a running rising factorial replace the n Gamma
    factors; from 1000 bits on Gamma(z) comes from the same series pass
    (_barnes_g_raw).  Nonpositive integers are zeros of G; they are
    rejected so that the reciprocal is well defined everywhere we accept
    input.  The
    cost grows linearly with n, so z below about -2^20 (a shift past
    _LADDER_MAX_N) is a DomainError.  log G(z) has size about
    z^2 log|z| / 2, so G runs at the closed forms' _degree_guard more bits
    and is refused past |z| = 2.2e42 as they are.
    """
    with working_precision(precision_bits) as bits:
        with mp.workprec(mp.mp.prec + _degree_guard(to_mpf(z))):
            zv = to_mpf(z)
            if zv <= 0 and mp.isint(zv):
                raise PoleError(f"1/G has a pole at the nonpositive integer {zv}")
            value, _ = _barnes_g_raw(to_fraction(z), _constants(mp.mp.prec)[2])
        return approx(+value, bits)


# ---------------------------------------------------------------------------
# closed forms


def _pole_order(sym: SymmetryClass, k: int) -> int:
    """Order of the ratio's pole at degree 1/2 - k; not positive where it is regular.

    At z = lambda + 1/2 = 1 - k (k >= 1) G has a zero of order k and Gamma
    a simple pole, so U, which divides by Gamma(z) G(z)^2, has order
    2k - 1, and O, which divides by G(z), order k.  Sp is the O value at
    lambda + 1: order k - 1.  For k < 1 every class gives 0 or less.
    """
    if require_class(sym) is SymmetryClass.U:
        return 2 * k - 1
    return k if sym is SymmetryClass.O else k - 1


def _check_pole(sym: SymmetryClass, lam: mp.mpf) -> None:
    """Reject lam within 1e-8 of a pole 1/2 - k."""
    k = int(mp.nint(0.5 - lam))
    location = mp.mpf(0.5) - k
    if _pole_order(sym, k) > 0 and abs(lam - location) < _POLE_RADIUS:
        raise PoleError(
            f"{sym.value} moment has a pole at degree {mp.nstr(location, 8)}; "
            "requested point is within 1e-8 of it"
        )


def _ratio_closed_raw(sym: SymmetryClass, lam, c: tuple) -> mp.mpf:
    """g_lambda / Gamma(1 + B(lambda)) via one Barnes G value.

    U and O each have one log-prefactor formula; Sp is the shifted O value
    g_Sp(lambda) = 2^-lambda g_O(lambda + 1), whose log power B_O(lambda + 1)
    equals B_Sp(lambda).  U needs G(lambda + 1/2) G(lambda + 3/2), and
    G(z + 1) = Gamma(z) G(z) turns that into Gamma(lambda + 1/2) G(lambda + 1/2)^2,
    both from one _barnes_g_raw.  ``lam`` is an mpf or an exact Fraction,
    which G's argument keeps.
    ``c`` is ``_constants(mp.mp.prec)``.
    """
    if sym is SymmetryClass.Sp:
        return _ratio_closed_raw(SymmetryClass.O, lam + 1, c) / mp.power(2, to_mpf(lam))
    ln2, zp0, zpm1 = c
    g, gamma = _barnes_g_raw(lam + Fraction(1, 2), zpm1)
    lam = to_mpf(lam)
    if sym is SymmetryClass.U:
        log_pref = ln2 / 12 + 3 * zpm1 - 2 * lam * zp0 - 2 * lam * lam * ln2
        return mp.exp(log_pref) / (gamma * g * g)
    log_pref = (
        -mp.mpf(17) / 24 * ln2
        + mp.mpf(3) / 2 * zpm1
        + zp0 / 2
        - lam * zp0
        + lam * ln2
        - lam * lam / 2 * ln2
    )
    return mp.exp(log_pref) / g


# the most bits _degree_guard adds, so x^2 log|x| < 2^288 and
# |x| < 2.2 * 10^42; a larger argument is refused, as its guard would grow
# without bound (uncapped, U at 10^1000 took 2.3 s and at 10^2000 17 s)
_MAX_DEGREE_GUARD = 256


def _degree_guard(x: mp.mpf) -> int:
    """Bits Barnes G adds at argument x and the closed forms at degree x,
    whose log G, exp(log_pref) and Gamma(1 + B) have size about
    x^2 log|x|: its bits past 32, in multiples of 32 to keep the
    per-precision caches few."""
    if mp.mag(x) <= 14:  # |x| <= 2^14: x^2 log|x| < 2^32
        return 0
    with mp.workprec(53):
        size = mp.mag(x * x * mp.log(abs(x)))
    if size > _MAX_DEGREE_GUARD + 32:
        raise DomainError(
            f"an argument near 2^{mp.mag(x)} passes the cost bound of Barnes G and the "
            f"closed forms (x^2 log|x| < 2^288, so |x| < 2.2 * 10^42)"
        )
    return max(0, -(-size // 32) - 1) * 32


def _closed_form(sym: SymmetryClass, lam, precision_bits, with_gamma: bool) -> RealApprox:
    """The ratio closed form, times Gamma(1 + B) with_gamma, at _degree_guard more bits."""
    with working_precision(precision_bits) as bits:
        with mp.workprec(mp.mp.prec + _degree_guard(to_mpf(lam))):
            _check_pole(sym, to_mpf(lam))
            exact = to_fraction(lam)
            value = _ratio_closed_raw(sym, exact, _constants(mp.mp.prec))
            if with_gamma:
                value = _gamma(1 + log_power(sym, exact)) * value
        return approx(+value, bits)


def moment_ratio_closed_form(sym: SymmetryClass, lam, precision_bits=None) -> RealApprox:
    """Closed form for the moment constant divided by Gamma(1 + B(lambda)).

    This is the analytic object whose poles sit at half-integers below
    1/2, of the orders ``pole_order`` gives.  DomainError past
    |lambda| = 2.2e42, where _degree_guard would pass its cap.
    """
    return _closed_form(sym, lam, precision_bits, with_gamma=False)


def moment_closed_form(sym: SymmetryClass, lam, precision_bits=None) -> RealApprox:
    """Moment constant at real degree, Barnes-G closed form.

    Includes the Gamma(1 + B(lambda)) factor, so integer degrees
    reproduce the exact integer constants.  DomainError past
    |lambda| = 2.2e42, as for the ratio.
    """
    return _closed_form(sym, lam, precision_bits, with_gamma=True)


# ---------------------------------------------------------------------------
# defining limits


class _RunningProduct:
    """prod_{i=1..m} term_i, advanced monotonically, in integers.

    term_{j+1} = term_j * num / den with ``ratio(j) = (num, den)``, ints
    with den > 0, so terms may change sign.  Term and product are integer
    mantissas of W = mp.prec + _KERNEL_GUARD bits (mp.prec at construction)
    with binary exponents.  A step shifts the term to W bits, multiplies it
    into the product and shifts that to W bits, then multiplies the term by
    num and floor-divides it by den, each step rounding toward minus
    infinity by about 2 ulps: after m steps the term is within about 2m ulps
    and the product within m(m + 3).
    """

    def __init__(self, first_term: mp.mpf, ratio):
        self._ratio = ratio
        self._width = mp.mp.prec + _KERNEL_GUARD
        sign, man, exp, _ = first_term._mpf_
        # step count, term mantissa and exponent, product mantissa and exponent
        self._state = (0, -man if sign else man, exp, 1, 0)

    def term(self) -> mp.mpf:
        """The next term: term_{m+1} after m steps."""
        _, t, t_exp, _, _ = self._state
        return mp.mpf((t, t_exp))

    def advance(self, m_target: int) -> mp.mpf:
        width, ratio = self._width, self._ratio
        m, t, t_exp, v, v_exp = self._state
        while m < m_target:
            shift = t.bit_length() - width
            t = t >> shift if shift > 0 else t << -shift
            t_exp += shift
            v *= t
            shift = v.bit_length() - width
            v >>= shift
            v_exp += t_exp + shift
            m += 1
            num, den = ratio(m)
            t = t * num // den
        self._state = m, t, t_exp, v, v_exp
        return mp.mpf((v, v_exp))


def _limit_state(sym: SymmetryClass, lam: mp.mpf, exact: Fraction):
    """Build an f(N) evaluator for the finite-N product of the given class.

    O and Sp share one product.  With the half-shift h = -1/2 (O) or +1/2
    (Sp) and Q(M) = prod_{m<=M} Gamma(m)/Gamma(m+lam),
    f(N) = c N^-B 4^(N lam) Q(2N + 2h)/Q(N + 2h) prod_{j<=N} Gamma(j+h+lam)/Gamma(j+h),
    where c = 1/2 for O and 1 for Sp.  With lam = a/b exact, every ladder
    ratio is a ratio of integers, so the products run in _RunningProduct,
    and their first terms are _gamma values at exact arguments.
    """
    a, b = exact.numerator, exact.denominator
    b_exp = log_power(sym, lam)
    if sym is SymmetryClass.U:
        prod = _RunningProduct(
            _gamma(1 + 2 * exact) / _gamma(1 + exact) ** 2,
            lambda j: (j * (j * b + 2 * a) * b, (j * b + a) ** 2),
        )
        return lambda n: mp.power(n, -b_exp) * prod.advance(n)
    orthogonal = sym is SymmetryClass.O
    h = Fraction(-1 if orthogonal else 1, 2)
    shift = -1 if orthogonal else 1  # 2h
    q = _RunningProduct(1 / _gamma(1 + exact), lambda m: (m * b, m * b + a))
    r = _RunningProduct(
        _gamma(1 + h + exact) / _gamma(1 + h),
        lambda j: ((2 * j + shift) * b + 2 * a, (2 * j + shift) * b),
    )

    def f(n: int) -> mp.mpf:
        q_low = q.advance(n + shift)
        q_high = q.advance(2 * n + shift)
        value = (
            mp.power(n, -b_exp)
            * mp.power(2, 2 * n * lam)
            * (q_high / q_low)
            * r.advance(n)
        )
        # halving is exact, so this equals the product with 1/2 taken first
        return value / 2 if orthogonal else value

    return f


def _richardson_top(values) -> mp.mpf:
    """Neville extrapolation to N -> infinity assuming a 1/N error ladder.

    ``values[i]`` is f at N_0 * 2^i; successive levels cancel 1/N^m.
    """
    row = list(values)
    for m in range(1, len(values)):
        factor = mp.mpf(2**m - 1)
        row = [
            row[i + 1] + (row[i + 1] - row[i]) / factor
            for i in range(len(row) - 1)
        ]
    return row[0]


def _ladder_bits(target_digits: int, lam: mp.mpf) -> int:
    """The limit ladder's width for D = target_digits at degree lam:
    D log2 10 + mag(lam) + G bits, G = _LADDER_GUARD = 112, in multiples of
    32 (for few mpmath caches) and at most the working precision.  G holds
    the 28 bits the rounding loses (Richardson's levels under 4, the exponent
    of 4^(N lam) log2(2N) <= 21 past mag(lam), the steps of f(N) about 3),
    66 (2^-66 < 1e-20) that keep the value within 1e-20 of the last gap, so
    that the stopping test and err_estimate are the working precision's,
    and 18 for a ladder that stops past its target (the gap fell up to 5.8
    digits below it on the tests' 240-input grid)."""
    need = math.ceil(target_digits * math.log2(10)) + _LADDER_GUARD + max(0, mp.mag(lam))
    return min(mp.mp.prec, -(-need // 32) * 32)


def _ladder_ns(sym: SymmetryClass, exact: Fraction, n: int) -> int:
    """The charge of the kernel steps to N = n at lam = a/b: U's n steps on
    ratios of about 2r bits, O's and Sp's 3n + 1 on r bits, r = bits(2nb + |a|)."""
    width = mp.mp.prec + _KERNEL_GUARD
    r = (2 * n * exact.denominator + abs(exact.numerator)).bit_length()
    steps, r = (n, 2 * r) if sym is SymmetryClass.U else (3 * n + 1, r)
    return steps * ((width + 832) ** 2 // 1536 + r * (width + 1024) // 256)


def moment_by_limit(
    sym: SymmetryClass, lam, target_digits: int = 8, precision_bits=None
) -> RealApprox:
    """Moment constant from its defining large-N limit.

    Evaluates the finite-N Gamma-ratio product, in integers on the exact
    rational lam, on the doubling ladder N = 32, 64, ... and
    Richardson-extrapolates (leading error c/N, with higher powers
    cancelled level by level) until two successive extrapolants agree to
    ``target_digits`` significant digits, at most what the precision carries.

    The ladder runs at the width ``target_digits`` needs, so its cost
    follows them; ``precision_bits`` sets only the digit cap and the
    err_estimate floor.  A ladder past 3 s of estimated kernel steps is a
    DomainError ("cost bound"), raised before the rung that would pass it.
    """
    with working_precision(precision_bits) as bits:
        require_int("target_digits", target_digits, 1, int(bits * math.log10(2)))
        lam_v = to_mpf(lam)
        _check_pole(sym, lam_v)
        if lam_v < -0.5:
            raise DomainError(
                "the limit products are used only for degree >= -1/2; "
                "use moment_closed_form below that"
            )
        # none from 40 to 10^80 stabilized by the last N, even to 1 digit, and
        # at 10^400 a ladder ratio rounded the term to 0 (a ValueError)
        if lam_v > _LADDER_MAX_N:
            raise DomainError(
                f"the limit products are used only for degree <= {_LADDER_MAX_N}, "
                "their last N; use moment_closed_form above that"
            )
        exact = to_fraction(lam)
        with mp.workprec(_ladder_bits(target_digits, lam_v)):
            gamma_factor = _gamma(1 + log_power(sym, exact))
            f = _limit_state(sym, lam_v, exact)
            tol = mp.mpf(10) ** (-target_digits)
            values = []
            best_prev = None
            budget = WorkBudget(_LADDER_WORK_NS)
            n = _LADDER_START
            while n <= _LADDER_MAX_N:
                budget.spend(_ladder_ns(sym, exact, n) - budget.spent, lambda: (
                    f"the limit product for {sym.value} at degree {mp.nstr(lam_v, 15)} passes "
                    f"the cost bound of the ladder before N = {n}: over 3 s of estimated work"))
                values.append(f(n))
                if len(values) >= 2:
                    best = _richardson_top(values)
                    if best_prev is not None:
                        err = abs(best - best_prev)
                        # relative test: the raw extrapolant is g / Gamma(1+B),
                        # which is tiny for large degrees, so an absolute floor
                        # here would declare convergence far too early
                        scale = abs(best) if best != 0 else mp.mpf(1)
                        if err <= tol * scale:
                            return approx(gamma_factor * best, bits, err=abs(gamma_factor) * err)
                    best_prev = best
                n *= 2
        raise NoConvergence(
            f"limit product for {sym.value} at degree {mp.nstr(lam_v, 15)} did not "
            f"stabilize to {target_digits} digits by N = {_LADDER_MAX_N}"
        )


# ---------------------------------------------------------------------------
# special values and pole orders


def half_moment_unitary(precision_bits=None) -> RealApprox:
    """The unitary moment constant at degree 1/2: the U closed form there."""
    return moment_closed_form(SymmetryClass.U, Fraction(1, 2), precision_bits)


def pole_order(sym: SymmetryClass, k: int, precision_bits=None) -> int:
    """Order of the pole of the moment ratio at degree 1/2 - k (0: regular).

    2k - 1 for U, k for O and k - 1 for Sp, counted from the zeros of
    Barnes G (see ``_pole_order``).  The order is exact at any precision;
    ``precision_bits`` is only range-checked.
    """
    with working_precision(precision_bits):
        return _pole_order(sym, require_int("k", k, 1))


# ---------------------------------------------------------------------------
# asymptotic expansions


def log_moment_asymptotic(sym: SymmetryClass, k: int, precision_bits=None) -> RealApprox:
    """Expanded large-k approximation of log g_k.

    O and Sp share one expression with s = +1 (O) or -1 (Sp):
    k^2 log k / 2 + (1/4 - log 2) k^2 - s k log k / 2 + s (3/2 log 2 - 1/2) k
    + 23/24 log k - (23 + 6s)/24 log 2 + 1/4 - zeta'(0) + zeta'(-1)/2.
    The remainder log g_k - value is 73/(960 k^2) + O(1/k^4) for U,
    -7/(16k) + O(1/k^2) for O and +7/(16k) + O(1/k^2) for Sp;
    err_estimate is 1/k^2 for U and 1/k for O and Sp.
    """
    require_int("k", k, 2)
    with working_precision(precision_bits) as bits:
        ln2, zp0, zpm1 = _constants(mp.mp.prec)
        kk = mp.mpf(k)
        log_k = mp.log(kk)
        if require_class(sym) is SymmetryClass.U:
            value = (
                kk * kk * log_k
                + (0.5 - 2 * ln2) * kk * kk
                + mp.mpf(11) / 12 * log_k
                + ln2 / 12
                - zp0
                + zpm1
            )
            err = 1 / (kk * kk)
        else:
            s = 1 if sym is SymmetryClass.O else -1
            value = (
                kk * kk * log_k / 2
                + (0.25 - ln2) * kk * kk
                - s * kk * log_k / 2
                + s * (mp.mpf(3) / 2 * ln2 - 0.5) * kk
                + mp.mpf(23) / 24 * log_k
                - mp.mpf(23 + 6 * s) / 24 * ln2
                + 0.25
                - zp0
                + zpm1 / 2
            )
            err = 1 / kk
        return approx(value, bits, err=err)


_SUM_KINDS = ("log_j", "log_odd", "j_log_j", "j_log_odd")
# log_sum_asymptotics answers up to this n; there the slowest kind,
# j_log_odd, took 0.7-0.8 s at 1024 bits (2-vCPU x86-64, CPython 3.11)
_LOG_SUM_MAX_N = 300_000


def _prime_weights(kind: str, n: int):
    """(primes, weights) with the sum of ``kind`` over j <= n equal to
    sum_p w_p log p.

    Each prime power q = p^e adds one closed form to w_p: floor(n/q)
    (log_j), the number M of odd multiples of q below 2n (log_odd, odd p
    only), q M(M+1)/2 with M = floor(n/q) (j_log_j) and (q M^2 + M)/2
    (j_log_odd, the j with q | 2j - 1 are (q(2i - 1) + 1)/2 for i <= M).
    """
    odd = kind in ("log_odd", "j_log_odd")
    top = 2 * n - 1 if odd else n
    primes = primes_up_to(top)[1:] if odd else primes_up_to(top)
    weights = []
    for p in primes:
        w = 0
        q = p
        while q <= top:
            m = (top // q + 1) // 2 if odd else top // q
            if kind == "j_log_j":
                w += q * m * (m + 1) // 2
            elif kind == "j_log_odd":
                w += (q * m * m + m) // 2
            else:
                w += m
            q *= p
        weights.append(w)
    return primes, weights


def _exact_log_sum(kind: str, n: int) -> mp.mpf:
    """sum_p w_p log p as sum_i 2^i log P_i, one log per bit slice.

    P_i is the product, by a balanced tree, of the primes whose weight
    has bit i set.  Every term is positive, so the sum is within a few
    ulps of the working precision.
    """
    primes, weights = _prime_weights(kind, n)
    # not numeric_core._sliced_product: these weights are mostly distinct,
    # so grouping the primes by weight first only adds work
    terms = []
    for i in range(max(weights, default=0).bit_length()):
        sliced = compress(primes, [w >> i & 1 for w in weights])
        terms.append(mp.ldexp(mp.log(_balanced_product(list(sliced))), i))
    return mp.fsum(terms)


def log_sum_asymptotics(kind: str, n: int, precision_bits=None):
    """Partial log-sums next to their asymptotic expansions.

    Returns ``(exact, asymptotic)`` where exact is the finite sum and
    asymptotic the expansion used by the large-k moment formulas.
    Kinds: ``log_j`` sums log j, ``log_odd`` sums log(2j-1), ``j_log_j``
    sums j log j, ``j_log_odd`` sums j log(2j-1), all over 1 <= j <= n.

    The finite sum is regrouped by prime, sum_p w_p log p with exact
    integer weights w_p, and split into the bits of the weights,
    sum_i 2^i log P_i with P_i the product of the primes whose weight has
    bit i set: about 2 log2 n logarithms instead of n.  All terms are
    positive, so the sum is within a few ulps of the working precision,
    far inside the err_estimate floor 2^(8 - bits) relative.  The cost
    bound is n <= 300000 (under a second for every kind at 1024 bits);
    a larger n is a DomainError, raised before any sieve is built.
    """
    if kind not in _SUM_KINDS:
        raise DomainError(f"unknown sum kind {brief(kind)}; expected one of {_SUM_KINDS}")
    if require_int("n", n, 1) > _LOG_SUM_MAX_N:
        raise DomainError(
            f"n is above the log-sum cost bound {_LOG_SUM_MAX_N}, got {brief(n)}"
        )
    with working_precision(precision_bits) as bits:
        ln2, zp0, zpm1 = _constants(mp.mp.prec)
        nn = mp.mpf(n)
        log_n = mp.log(nn)
        log_2n = log_n + ln2
        if kind == "log_j":
            asym = nn * log_n - nn + log_n / 2 - zp0 + 1 / (12 * nn)
            err = mp.mpf(1) / (nn * nn)
        elif kind == "log_odd":
            asym = nn * log_2n - nn + ln2 / 2 - 1 / (24 * nn)
            err = mp.mpf(1) / (nn * nn)
        elif kind == "j_log_j":
            asym = (
                nn * nn * log_n / 2
                - nn * nn / 4
                + nn * log_n / 2
                + log_n / 12
                + mp.mpf(1) / 12
                - zpm1
            )
            err = mp.mpf(1) / nn
        else:
            asym = (
                nn * nn * log_2n / 2
                - nn * nn / 4
                + nn * log_2n / 2
                - nn / 2
                - log_n / 24
                + mp.mpf(7) / 24 * ln2
                - mp.mpf(1) / 24
                + zpm1 / 2
            )
            err = mp.mpf(1) / nn
        return (
            approx(_exact_log_sum(kind, n), bits),
            approx(asym, bits, err=err),
        )
