"""Arithmetic factors: Euler products over primes.

Each built-in family is one row of _FAMILIES: the zeta family (local
factors from the generalized divisor coefficients d_k) and the
quadratic-character symplectic family.  Both products are truncated at a
prime cutoff with an observable error estimate and take the shape
(prod_p (1 - 1/p))^alpha * prod_p S(1/p), with a power series S whose
coefficients do not depend on p: _arithmetic_factor runs the shared setup,
the row's body builds S, the fixed-point kernel _euler_products evaluates
the shape, and each request charges its steps to one WorkBudget.

``assemble_mean_value`` combines an arithmetic factor with the moment
constant over Gamma(1 + B(k)), read from the Barnes-G closed form
(``moment_ratio_closed_form``), into the leading-term shape
coefficient * (log Q^A)^{B(k)}; no huge integer is built.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import count

import mpmath as mp

from .analytic_moments import moment_ratio_closed_form
from .errors import DomainError, LfmomentsError, WorkBudget, require_int, require_rational
from .exact_moments import SymmetryClass, _checked_log_power, require_class
from .numeric_core import primes_up_to
from .precision import RealApprox, approx, to_fraction, to_mpf, working_precision

_MIN_CUTOFF = 100
# The products charge one WorkBudget of _MAX_WORK_NS for the steps they
# take, each at a charge in ns set by timing it (2-vCPU x86-64, CPython
# 3.11.7, no gmpy2; the README has inputs charged, then timed):
#   the sieve to x                                      16 x
#   a zeta term or running-product step, w by r bits    _step_ns(w, r)
#   a zeta series ratio of r bits                        r (r + 2048) / 1024
#   an Sp Horner step, one single-limb division, w bits  9 (w + 512) / 32
# Sp's binomial row, built by recurrence, is not charged: it costs about
# one prime's Horner pass (0.5 against 0.6 ms at k = 1000, 150 against
# 120 ms at 20000), and every request has at least 25 primes.
_MAX_WORK_NS = 3 * 10**9
_REFUSAL = ("k, prime_cutoff and {} bits pass the cost bound of the Euler products: "
            "over 3 s of estimated work").format


def _step_ns(width: int, other: int) -> int:
    return (width + 256) * (other + 256) >> 8


def _check_cost(k, prime_cutoff, bits: int):
    """(k as an exact rational, the request's WorkBudget charged the sieve
    and two running-product steps a prime) once k > -1/2 and the cutoff is
    an int >= _MIN_CUTOFF.  Primes <= x number below 1.25506 x / ln x
    (Rosser and Schoenfeld, 1962), so below 2x / (b - 1), b = x.bit_length()."""
    require_int("prime_cutoff", prime_cutoff, _MIN_CUTOFF)
    k = to_fraction(k)
    if k <= Fraction(-1, 2):
        raise DomainError("the product is defined only for k > -1/2")
    width = mp.mp.prec + 32
    primes = 2 * prime_cutoff // (prime_cutoff.bit_length() - 1)
    budget = WorkBudget(_MAX_WORK_NS)
    budget.spend(16 * prime_cutoff + 2 * primes * _step_ns(width, width), _REFUSAL, bits)
    return k, budget


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


def _zeta_local(a: Fraction, bits: int, budget: WorkBudget, width: int):
    """p -> 2F1(a, a; 1; 1/p) * 2^width, the series sum_j ((a)_j / j!)^2 p^-j.

    Each term comes from the previous one by the ratio ((a + j - 1) / j)^2,
    held to width bits and shared by every prime, as
    term * ratio // (p << width), so every term keeps its error relative to
    itself and a sum of J terms is within J + J^2 ulps of total * 2^-width
    (a fixed-width table of the coefficients would not: they span 2^193 at
    k = 100).  The sum stops at its first term below 2^-(bits + 16), past
    the peak since the terms are unimodal.  Only the smallest prime extends
    the ratios: a larger p stops no later.  A new ratio and its term are
    charged to budget before they are computed, a prime's shared-ratio terms
    after, at the width of its sum, which bounds theirs (they are positive).
    """
    num, den = a.numerator, a.denominator
    one, eps = 1 << width, 1 << (width - bits - 16)
    ratios = []
    # ratios square ints of k's width into table bits; a term of a w-bit sum
    # costs _step_ns(w, table), and a sum below wide has width + 1 bits
    table = width + 2 * max(num.bit_length(), den.bit_length())
    ratio_ns = table * (table + 2048) >> 10
    wide, narrow = 1 << (width + 1), _step_ns(width + 1, table)

    def local(p: int) -> int:
        total = term = one
        scale = p << width
        shared = iter(ratios)
        for ratio in shared:
            term = term * ratio // scale
            total += term
            if term < eps:
                break
        # budget.spend, inlined: the call took k = 1 from 0.3 to 0.7 us a prime
        budget.spent += (len(ratios) - shared.__length_hint__()) * (
            narrow if total < wide else _step_ns(total.bit_length(), table))
        if budget.spent > budget.limit:
            raise DomainError(_REFUSAL(bits))
        if term < eps:
            return total
        for j in count(len(ratios) + 1):
            budget.spend(ratio_ns + _step_ns(total.bit_length(), table), _REFUSAL, bits)
            ratio = ((num + (j - 1) * den) ** 2 << width) // (j * den) ** 2
            ratios.append(ratio)
            term = term * ratio // scale
            total += term
            if term < eps:
                return total

    return local


# precision of P(2) and of the partial sums of p^-2 in the tail bound
_TAIL_BITS = 128


@lru_cache(maxsize=None)
def _prime_zeta_2() -> mp.mpf:
    # sum_p p^-2 once, at _TAIL_BITS: the tail it yields is used as a float
    with mp.workprec(_TAIL_BITS):
        return mp.primezeta(2)


def _zeta_factor(k: Fraction, primes, bits: int, budget: WorkBudget, cutoff: int):
    """The zeta product and its tail bound.  Euler's transformation
    (1-x)^{k^2} 2F1(k,k;1;x) = (1-x)^{(k-1)^2} 2F1(1-k,1-k;1;x) makes each
    factor symmetric under k -> 1-k; it is summed at a = min(k, 1-k) <= 1/2,
    whose coefficients ((a)_j / j!)^2 do not depend on p and vanish from
    j = k on for integer k >= 1: the kernel's shape with alpha = a^2 and
    S = 2F1(a, a; 1; x)."""
    a = k if 2 * k <= 1 else 1 - k  # min(k, 1 - k), forming 1 - k only if needed
    make_local = partial(_zeta_local, a, bits, budget)
    product = _euler_products(primes, a * a, make_local, [len(primes)])[0]
    # each p^-2 rounded down by < 2^-_TAIL_BITS; the tail P(2) - sum, about
    # 1/(cutoff log cutoff), keeps ~100 bits below 10^8, past the float it feeds
    inv_square_sum = sum((1 << _TAIL_BITS) // (p * p) for p in primes)
    tail = _prime_zeta_2() - mp.ldexp(inv_square_sum, -_TAIL_BITS)
    k = to_mpf(k)
    return product, abs(product) * abs(k * k * (k - 1) ** 2 / 4) * tail


def zeta_arithmetic_factor(
    k, prime_cutoff: int = 100_000, precision_bits=None
) -> RealApprox:
    """Arithmetic constant of the zeta family, truncated over p <= cutoff.

    The local factor at p is (1 - 1/p)^{k^2} sum_j d_k(p^j)^2 p^{-j}
    = (1 - 1/p)^{k^2} 2F1(k, k; 1; 1/p), evaluated as _zeta_factor says
    within the kernel's rounding bound, far below the working-precision
    floor; a series that runs long is a DomainError once its terms pass
    the cost bound.  The reported err_estimate is the truncated-tail bound
    (the local-factor logs decay like k^2(k-1)^2/(4p^2), summed with the
    exact prime zeta tail), never less than the working-precision floor.
    """
    return _arithmetic_factor("zeta", k, prime_cutoff, precision_bits)


def _sp_shape(k: int):
    """alpha = k(k-1)/2 and the integer coefficients of
    S(y) = sum_m C(k, 2m) y^m + y (1-y)^k, constant term first.

    The Sp local factor at y = 1/p is (1-y)^alpha S(y) / (1+y): S(y) is
    the even part of (1 -+ p^{-1/2})^{-k}, times (1-y)^k, plus y (1-y)^k.
    """
    row = [1]  # C(k, j), each from the one before
    for j in range(k):
        row.append(row[-1] * (k - j) // (j + 1))
    coeffs = row[::2]
    coeffs += [0] * (k + 2 - len(coeffs))
    for j, c in enumerate(row):
        coeffs[j + 1] += -c if j & 1 else c
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


def _sp_factor(k: Fraction, primes, bits: int, budget: WorkBudget, cutoff: int):
    """The Sp product and its gap to the partial product over p <= cutoff/2."""
    k = int(k)
    width = mp.mp.prec + 32 + k + 2
    budget.spend(len(primes) * (k + 2) * (9 * (width + 512) >> 5), _REFUSAL, bits)
    alpha, coeffs = _sp_shape(k)
    ends = [bisect_right(primes, cutoff // 2), len(primes)]
    half, full = _euler_products(primes, alpha, partial(_sp_local, coeffs), ends)
    return full, abs(full - half)


def sp_quadratic_arithmetic_factor(
    k: int, prime_cutoff: int = 100_000, precision_bits=None
) -> RealApprox:
    """Arithmetic constant of the quadratic symplectic family.

    Product over p <= cutoff of
    (1-1/p)^{k(k+1)/2} * (((1+p^{-1/2})^{-k} + (1-p^{-1/2})^{-k})/2 + 1/p)
    / (1 + 1/p): the kernel's shape (prod (1 - 1/p))^alpha prod S(1/p),
    times prod p/(p+1), with alpha = k(k-1)/2 and the integer polynomial S
    of _sp_shape, by Horner (_sp_local).  The err_estimate is the gap to
    the partial product over p <= cutoff/2, the same scale a
    cutoff-doubling test would see.
    """
    return _arithmetic_factor("spquad", k, prime_cutoff, precision_bits)


# The built-in families by ak name: the symmetry class, the ak_source label
# of assemble records, whether k must be a positive integer, and the body
# taking (k, primes, bits, budget, cutoff) to the product and its error.
_Family = namedtuple("_Family", "sym source integer_k body")
_FAMILIES = {
    "zeta": _Family(SymmetryClass.U, "zeta-family", False, _zeta_factor),
    "spquad": _Family(SymmetryClass.Sp, "quadratic-family", True, _sp_factor),
}


def _arithmetic_factor(name: str, k, prime_cutoff, precision_bits) -> RealApprox:
    """The family's a_k: the setup every row shares (the working precision,
    k and the cutoff checked, the sieve charged and built), then its body."""
    family = _FAMILIES[name]
    with working_precision(precision_bits) as bits:
        if family.integer_k:
            require_int("k", k, 1)
        k, budget = _check_cost(k, prime_cutoff, bits)
        primes = primes_up_to(prime_cutoff)
        product, err = family.body(k, primes, bits, budget, prime_cutoff)
        return approx(product, bits, err=err)


def _family_factor(key, k, prime_cutoff: int):
    """(a_k, its ak_source label) from the family named key, or from the
    family of the SymmetryClass key; (1, None) for a class with no family."""
    for name, family in _FAMILIES.items():
        if key in (name, family.sym):
            if family.integer_k and k.denominator != 1:
                raise LfmomentsError(f"the {family.source} product needs integer k")
            k = k.numerator if family.integer_k else k
            return _arithmetic_factor(name, k, prime_cutoff, None), family.source
    return Fraction(1), None


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
