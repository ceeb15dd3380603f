"""Arithmetic factors: Euler products over primes.

Two products are implemented: the one attached to the zeta family (whose
local factors are built from the generalized divisor coefficients d_k)
and the one attached to the quadratic-character symplectic family.  Both
are truncated at a prime cutoff with an observable error estimate, and
both take the shape (prod_p (1 - 1/p))^alpha * prod_p S(1/p) with a power
series S whose coefficients do not depend on p; one fixed-point kernel,
_euler_products, evaluates that shape for either family, once _check_cost
has bounded its work from k, the cutoff and the precision alone.

``assemble_mean_value`` combines an arithmetic factor with the moment
constant over Gamma(1 + B(k)), read from the Barnes-G closed form
(``moment_ratio_closed_form``), into the leading-term shape
coefficient * (log Q^A)^{B(k)}; no huge integer is built.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import count

import mpmath as mp

from .analytic_moments import moment_ratio_closed_form
from .errors import DomainError, require_int, require_rational
from .exact_moments import SymmetryClass, _checked_log_power, require_class
from .numeric_core import primes_up_to
from .precision import RealApprox, approx, to_fraction, to_mpf, working_precision

__all__ = [
    "zeta_arithmetic_factor",
    "sp_quadratic_arithmetic_factor",
    "FamilyDescriptor",
    "MeanValueShape",
    "assemble_mean_value",
]

_MIN_CUTOFF = 100
# estimated nanoseconds the products may take, from the steps and widths
# _series_steps bounds.  On a 2-vCPU x86-64, CPython 3.11, no gmpy2:
#   input                             estimate  time
#   zeta 1/2, cutoff 10^6, 256 bits   2.8 s     0.8-1.1 s  accepted
#   zeta 1, cutoff 10^7, 64 bits      1.4 s     1.3 s      accepted
#   spquad 1000, cutoff 10^3          2.2 s     0.25 s     accepted
#   zeta 1/2, cutoff 10^6, 512 bits   10 s      3.5-4.1 s  refused
#   zeta 1/2, cutoff 10^4, 4096 bits  29 s      15 s       refused
#   spquad 3000, cutoff 10^4          240 s     4.5 s      refused
#   zeta 20001/2, cutoff 10^5         1.5e4 s   16.6 s     refused
_MAX_WORK_NS = 3 * 10**9


def _series_steps(k: Fraction, prime_cutoff: int, bits: int):
    """Upper bounds on the kernel's steps over the primes up to prime_cutoff
    (two a prime for the running products, the rest in the series), on the
    bit width of their ints and on the series ratios, computed once.

    Primes <= x number below 1.25506 x / ln x (Rosser and Schoenfeld, 1962),
    so below 2x / (b - 1) for the bit length b of x.  At integer k >= 0 the
    series takes at most k + 2 steps a prime: Sp's Horner over k + 2
    coefficients of at most k bits, or zeta's polynomial of at most k terms.
    Otherwise zeta's series at a = min(k, 1 - k) has |(a)_j / j!| <= 2^A,
    A = ceil(max(0, -a)), so its terms at p fall below 2^-(bits + 16) once
    j log2 p > T = 2A + bits + 16: within T / log2 p + 1 steps, counted as
    at p = 2 up to 2^h <= sqrt(prime_cutoff) and as at p = 2^h above.  k
    and A are capped at _MAX_WORK_NS, where one prime alone passes the bound.
    """
    def primes(x):
        return 2 * x // (x.bit_length() - 1)

    big = min(max(0, math.ceil(-min(k, 1 - k))), _MAX_WORK_NS)
    if k.denominator == 1:
        ratios = min(k.numerator, _MAX_WORK_NS) + 2
        steps = primes(prime_cutoff) * (ratios + 2)
    else:
        ratios = 2 * big + bits + 17
        h = (prime_cutoff.bit_length() - 1) // 2
        steps = primes(1 << h) * ratios + primes(prime_cutoff) * (ratios // h + 3)
    return steps, mp.mp.prec + 32 + 2 * big + 2, ratios


def _check_cost(k, prime_cutoff, bits: int) -> Fraction:
    """k as an exact rational (``to_fraction``), once k > -1/2, the cutoff
    is an int >= _MIN_CUTOFF and the products' work at these bits is within
    _MAX_WORK_NS; DomainError otherwise.  Runs before any sieve or table."""
    require_int("prime_cutoff", prime_cutoff, _MIN_CUTOFF)
    k = to_fraction(k)
    if k <= Fraction(-1, 2):
        raise DomainError("the product is defined only for k > -1/2")
    steps, width, ratios = _series_steps(k, prime_cutoff, bits)
    # a step multiplies and divides w-bit ints in about w (w + 2048) / 1024
    # ns; each ratio squares ints the size of k's numerator or denominator
    table = width + 2 * max(k.numerator.bit_length(), k.denominator.bit_length())
    work = steps * width * (width + 2048) + ratios * table * (table + 2048)
    if work >> 10 > _MAX_WORK_NS:
        raise DomainError(
            f"k, prime_cutoff and {bits} bits pass the cost bound of the Euler "
            f"products: over {_MAX_WORK_NS // 10**9} s of estimated work"
        )
    return k


def _euler_products(primes, alpha, make_local, ends) -> list:
    """(prod_{p in P} (1 - 1/p))^alpha * prod_{p in P} L(p) for each prefix
    P = primes[:end], end in the increasing list ``ends``; L(p) is S(1/p),
    times p / (p + 1) for the Sp family.

    Both running products are Python ints with W = mp.prec + 32 fraction
    bits; ``make_local(W)`` gives the function p -> L(p) * 2^W, within a
    few ulps.  Neither product comes near zero (the base is about
    e^-gamma / log p_max, the series stays above 2/3), so each step, which
    rounds down by under one ulp, costs O(log p_max) ulps relative: for n
    primes the result is within (1 + alpha) n log(p_max) 2^-W relative,
    below the guard bits.  Each prefix is converted to mpf once, and its
    alpha power taken once, with mp.power at W bits.
    """
    width = mp.mp.prec + 32
    local = make_local(width)
    base = series = 1 << width
    prefixes = []
    start = 0
    for end in ends:
        for p in primes[start:end]:
            base -= base // p
            series = series * local(p) >> width
        prefixes.append((base, series))
        start = end
    with mp.workprec(width):
        alpha = to_mpf(alpha)
        values = [
            mp.power(mp.ldexp(b, -width), alpha) * mp.ldexp(s, -width)
            for b, s in prefixes
        ]
    return [+value for value in values]


def _zeta_local(a: Fraction, bits: int, width: int):
    """p -> 2F1(a, a; 1; 1/p) * 2^width, the series sum_j ((a)_j / j!)^2 p^-j.

    Each term comes from the previous one by the ratio ((a + j - 1) / j)^2,
    held to width bits and shared by every prime, as
    term * ratio // (p << width), so every term keeps its error relative to
    itself and a sum of J terms is within J + J^2 ulps of total * 2^-width
    (a fixed-width table of the coefficients would not: they span 2^193 at
    k = 100).  The sum stops at its first term below 2^-(bits + 16), past
    the peak since the terms are unimodal.  Only the smallest prime extends
    the ratios: a larger p stops no later.
    """
    num, den = a.numerator, a.denominator
    eps = 1 << (width - bits - 16)
    ratios = []

    def local(p: int) -> int:
        total = term = 1 << width
        scale = p << width
        for ratio in ratios:
            term = term * ratio // scale
            total += term
            if term < eps:
                return total
        for j in count(len(ratios) + 1):
            ratio = ((num + (j - 1) * den) ** 2 << width) // (j * den) ** 2
            ratios.append(ratio)
            term = term * ratio // scale
            total += term
            if term < eps:
                return total

    return local


def _zeta_product(k: Fraction, primes, bits: int) -> mp.mpf:
    """prod over primes of (1 - 1/p)^{k^2} 2F1(k, k; 1; 1/p) at working precision.

    Euler's transformation (1-x)^{k^2} 2F1(k,k;1;x) = (1-x)^{(k-1)^2}
    2F1(1-k,1-k;1;x) makes each factor symmetric under k -> 1-k; it is
    summed at a = min(k, 1-k) <= 1/2, whose coefficients ((a)_j / j!)^2 do
    not depend on p and vanish from j = k on for integer k >= 1.  That is
    the kernel's shape with alpha = a^2 and S = 2F1(a, a; 1; x).
    """
    a = min(k, 1 - k)
    make_local = partial(_zeta_local, a, bits)
    return _euler_products(primes, a * a, make_local, [len(primes)])[0]


# precision of P(2) and of the partial sums of p^-2 in the tail bound
_TAIL_BITS = 128


@lru_cache(maxsize=None)
def _prime_zeta_2() -> mp.mpf:
    # sum_p p^-2 once, at _TAIL_BITS: the tail it yields is used as a float
    with mp.workprec(_TAIL_BITS):
        return mp.primezeta(2)


def _tail_coefficient(k_mp: mp.mpf) -> mp.mpf:
    # log of a local factor is -k^2 (k-1)^2 / (4 p^2) + O(p^-3).
    return abs(k_mp * k_mp * (k_mp - 1) ** 2 / 4)


def zeta_arithmetic_factor(
    k, prime_cutoff: int = 100_000, precision_bits=None
) -> RealApprox:
    """Arithmetic constant of the zeta family, truncated over p <= cutoff.

    The local factor at p is (1 - 1/p)^{k^2} sum_j d_k(p^j)^2 p^{-j}
    = (1 - 1/p)^{k^2} 2F1(k, k; 1; 1/p).  By Euler's transformation it
    equals (1 - 1/p)^{a^2} 2F1(a, a; 1; 1/p) with a = min(k, 1-k): the
    common shape (prod (1 - 1/p))^alpha prod S(1/p) with alpha = a^2 and
    S = 2F1(a, a; 1; x).  The fixed-point kernel evaluates it at W = working
    precision + 32 bits, the series by ratios shared by every prime, the
    power once; for n primes the rounding stays within
    (1 + a^2) n log(cutoff) 2^-W relative, far below the working-precision
    floor.  The reported err_estimate is the truncated-tail bound (the
    local-factor logs decay like k^2(k-1)^2/(4p^2), summed with the exact
    prime zeta tail), never less than the working-precision floor.
    """
    with working_precision(precision_bits) as bits:
        k = _check_cost(k, prime_cutoff, bits)
        primes = primes_up_to(prime_cutoff)
        product = _zeta_product(k, primes, bits)
        # each p^-2 rounded down by < 2^-_TAIL_BITS; the tail P(2) - sum,
        # about 1/(cutoff log cutoff), keeps ~100 bits for cutoffs below
        # 10^8, far more than the float err_estimate it feeds
        inv_square_sum = sum((1 << _TAIL_BITS) // (p * p) for p in primes)
        tail = _prime_zeta_2() - mp.ldexp(inv_square_sum, -_TAIL_BITS)
        err = abs(product) * _tail_coefficient(to_mpf(k)) * tail
        return approx(product, bits, err=err)


def _sp_shape(k: int):
    """alpha = k(k-1)/2 and the integer coefficients of
    S(y) = sum_m C(k, 2m) y^m + y (1-y)^k, constant term first.

    The Sp local factor at y = 1/p is (1-y)^alpha S(y) / (1+y): S(y) is
    the even part of (1 -+ p^{-1/2})^{-k}, times (1-y)^k, plus y (1-y)^k.
    """
    coeffs = [math.comb(k, 2 * m) for m in range(k // 2 + 1)]
    coeffs += [0] * (k + 2 - len(coeffs))
    for j in range(k + 1):
        coeffs[j + 1] += (-1) ** j * math.comb(k, j)
    return k * (k - 1) // 2, coeffs


def _sp_local(coeffs, width: int):
    """p -> S(1/p) p / (p + 1) * 2^width, by Horner with exact integer
    coefficients and floor divisions by p: under one ulp per step, each
    shrunk by the later divisions, so under 2 ulps in all even where the
    signs of the coefficients cancel; one more for p / (p + 1)."""
    shifted = [c << width for c in reversed(coeffs)]

    def local(p: int) -> int:
        value = 0
        for c in shifted:
            value = value // p + c
        return value * p // (p + 1)

    return local


def sp_quadratic_arithmetic_factor(
    k: int, prime_cutoff: int = 100_000, precision_bits=None
) -> RealApprox:
    """Arithmetic constant of the quadratic symplectic family.

    Product over p <= cutoff of
    (1-1/p)^{k(k+1)/2} * (((1+p^{-1/2})^{-k} + (1-p^{-1/2})^{-k})/2 + 1/p)
    / (1 + 1/p): the common shape (prod (1 - 1/p))^alpha prod S(1/p),
    times prod p/(p+1), with alpha = k(k-1)/2 and the integer polynomial S
    of _sp_shape.  The fixed-point kernel evaluates it at W = working
    precision + 32 bits, S by Horner (under 3 ulps of 2^-W per prime), the
    power once; for n primes the rounding stays within
    (1 + alpha) n log(cutoff) 2^-W relative.  The err_estimate is the gap
    to the partial product over p <= cutoff/2, the same scale a
    cutoff-doubling test would see.
    """
    with working_precision(precision_bits) as bits:
        _check_cost(require_int("k", k, 1), prime_cutoff, bits)
        primes = primes_up_to(prime_cutoff)
        alpha, coeffs = _sp_shape(k)
        half = bisect_right(primes, prime_cutoff // 2)
        partial_product, product = _euler_products(
            primes, alpha, partial(_sp_local, coeffs), [half, len(primes)]
        )
        return approx(product, bits, err=abs(product - partial_product))


@dataclass(frozen=True)
class FamilyDescriptor:
    """An L-function family: symmetry class, conductor exponent, name.

    ``conductor_exponent`` is the degree to which the ordering parameter
    enters the functional equation; it only scales the logarithm inside
    the mean-value shape.  The arithmetic factor is supplied by the
    caller, since it is family-specific beyond these fields.
    """

    sym: SymmetryClass
    conductor_exponent: Fraction
    label: str

    def __post_init__(self):
        require_class(self.sym)
        exponent = require_rational("conductor exponent", self.conductor_exponent)
        if exponent <= 0:
            raise DomainError("conductor exponent must be positive")
        object.__setattr__(self, "conductor_exponent", exponent)


@dataclass(frozen=True)
class MeanValueShape:
    """Leading term coefficient * (A log Q)^{log_power} of a mean value."""

    coefficient: RealApprox
    log_power: int
    log_argument_exponent: Fraction


def assemble_mean_value(family: FamilyDescriptor, k: int, ak) -> MeanValueShape:
    """Leading-term shape of the k-th moment of a family.

    coefficient = a_k * g_k / B(k)!, the ratio g_k / B(k)! read from
    moment_ratio_closed_form at the working precision; k is an int with
    B(k) within the exact constants' bound, as for moment_factored.  The
    caller-provided arithmetic factor may be a RealApprox, an int, a
    Fraction or a float.  The err_estimate is the ratio times a_k's, never
    below the working-precision floor, which covers the ratio's own
    ulp-level rounding (below 1e-9 of the floor up to the B(k) edge).
    """
    b_exp = _checked_log_power(family.sym, k)
    given_bits = ak.precision_bits if isinstance(ak, RealApprox) else None
    with working_precision(given_bits) as bits:
        if not isinstance(ak, RealApprox):
            ak = approx(to_mpf(ak), bits)
        ratio = moment_ratio_closed_form(family.sym, k, bits).value
        coeff = approx(ratio * ak.value, bits, err=ratio * mp.mpf(ak.err_estimate))
    return MeanValueShape(
        coefficient=coeff,
        log_power=b_exp,
        log_argument_exponent=family.conductor_exponent,
    )
