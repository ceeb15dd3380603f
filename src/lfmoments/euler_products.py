"""Arithmetic factors: Euler products over primes.

Two products are implemented: the one attached to the zeta family (whose
local factors are built from the generalized divisor coefficients d_k)
and the one attached to the quadratic-character symplectic family.  Both
are truncated at a prime cutoff with an observable error estimate.

``assemble_mean_value`` combines an arithmetic factor with the exact
moment constant into the leading-term shape
coefficient * (log Q^A)^{B(k)}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .errors import DivergentInner, DomainError
from .exact_moments import SymmetryClass, log_power, moment_constant
from .numeric_core import factorial, is_prime, primes_up_to
from .precision import RealApprox, approx, to_mpf, working_precision

__all__ = [
    "divisor_coefficient",
    "zeta_local_factor",
    "zeta_arithmetic_factor",
    "sp_local_factor",
    "sp_quadratic_arithmetic_factor",
    "FamilyDescriptor",
    "MeanValueShape",
    "assemble_mean_value",
]

_INNER_BUDGET = 100_000


def divisor_coefficient(k, j: int):
    """The multiplicative coefficient d_k at a prime power with exponent j.

    Equals gamma(k+j)/(gamma(k) j!); the prime itself never enters.  For
    integer k >= 1 this is the exact binomial C(k+j-1, j); for other real
    k > -1/2 the rising product (k)(k+1)...(k+j-1)/j! is evaluated in
    floating point.
    """
    if j < 0:
        raise DomainError("prime-power exponent j must be nonnegative")
    if isinstance(k, int):
        if k >= 1:
            return math.comb(k + j - 1, j)
        if k == 0:
            return 1 if j == 0 else 0
    kf = float(k)
    if kf <= -0.5:
        raise DomainError("divisor coefficients are used only for k > -1/2")
    value = 1.0
    for i in range(j):
        value *= (kf + i) / (i + 1)
    return value


def _check_prime(p) -> None:
    if not isinstance(p, int) or not is_prime(p):
        raise DomainError(f"p must be a prime >= 2, got {p!r}")


def _divergent(p: int, eps: mp.mpf) -> DivergentInner:
    return DivergentInner(
        f"local sum at p={p} did not fall below {mp.nstr(eps, 3)} "
        f"within {_INNER_BUDGET} terms"
    )


def _zeta_product(k_mp: mp.mpf, primes, bits: int) -> mp.mpf:
    """prod over primes of (1 - 1/p)^{k^2} 2F1(k, k; 1; 1/p) at working precision.

    Euler's transformation (1-x)^{k^2} 2F1(k,k;1;x) = (1-x)^{(k-1)^2}
    2F1(1-k,1-k;1;x) makes each factor symmetric under k -> 1-k; it is
    summed at a = min(k, 1-k) <= 1/2, whose coefficients ((a)_j / j!)^2 do
    not depend on p and vanish from j = k on for integer k >= 1.  The power
    is taken once, as (prod (1 - 1/p))^{a^2}.  A series stops at its first
    term below 2^-(bits + 16), past the peak since the terms are unimodal.
    """
    eps = mp.ldexp(1, -(bits + 16))
    a = min(k_mp, 1 - k_mp)
    s = 1 / mp.sqrt(primes[0])
    # the terms at the smallest prime rise while j < (-a s - 1) / (1 + s)
    if -a * s - 1 > _INNER_BUDGET * (1 + s):
        raise _divergent(primes[0], eps)
    coeffs = [mp.mpf(1)]
    root = mp.mpf(1)
    series = mp.mpf(1)
    base = mp.mpf(1)
    for p in primes:
        x = 1 / mp.mpf(p)
        total = xp = mp.mpf(1)
        for j in range(1, _INNER_BUDGET + 1):
            if j == len(coeffs):
                root = root * (a + j - 1) / j
                coeffs.append(root * root)
            xp *= x
            term = coeffs[j] * xp
            total += term
            if term < eps:
                break
        else:
            raise _divergent(p, eps)
        series *= total
        base *= 1 - x
    return mp.power(base, a * a) * series


def zeta_local_factor(k, p: int, precision_bits=None) -> RealApprox:
    """A single local factor (1 - 1/p)^{k^2} 2F1(k, k; 1; 1/p) of the
    zeta-family constant, summed as in zeta_arithmetic_factor: by Euler's
    transformation, (1 - 1/p)^{a^2} 2F1(a, a; 1; 1/p) with a = min(k, 1-k).
    """
    _check_prime(p)
    with working_precision(precision_bits) as bits:
        k_mp = to_mpf(k)
        if k_mp <= mp.mpf("-0.5"):
            raise DomainError("the product is defined only for k > -1/2")
        return approx(_zeta_product(k_mp, [p], bits), bits)


def _tail_coefficient(k_mp: mp.mpf) -> mp.mpf:
    # log of a local factor is -k^2 (k-1)^2 / (4 p^2) + O(p^-3).
    return abs(k_mp * k_mp * (k_mp - 1) ** 2 / 4)


def zeta_arithmetic_factor(
    k, prime_cutoff: int = 100_000, precision_bits=None
) -> RealApprox:
    """Arithmetic constant of the zeta family, truncated over p <= cutoff.

    The local factor at p is (1 - 1/p)^{k^2} sum_j d_k(p^j)^2 p^{-j}
    = (1 - 1/p)^{k^2} 2F1(k, k; 1; 1/p).  By Euler's transformation it
    equals (1 - 1/p)^{a^2} 2F1(a, a; 1; 1/p) with a = min(k, 1-k); the
    coefficients ((a)_j / j!)^2 are computed once for all primes, and the
    power once, as (prod_{p <= cutoff} (1 - 1/p))^{a^2}.  The reported
    err_estimate is the truncated-tail bound (the local-factor logs decay
    like k^2(k-1)^2/(4p^2), summed with the exact prime zeta tail), never
    less than the working-precision floor.
    """
    if prime_cutoff < 100:
        raise DomainError("prime_cutoff must be at least 100")
    with working_precision(precision_bits) as bits:
        k_mp = to_mpf(k)
        if k_mp <= mp.mpf("-0.5"):
            raise DomainError("the product is defined only for k > -1/2")
        primes = primes_up_to(prime_cutoff)
        product = _zeta_product(k_mp, primes, bits)
        # sum of p^-2 in fixed point, each term rounded down by < 2^-(bits + 64)
        scale = bits + 64
        inv_square_sum = mp.ldexp(sum((1 << scale) // (p * p) for p in primes), -scale)
        tail = mp.primezeta(2) - inv_square_sum
        return approx(product, bits, err=abs(product) * _tail_coefficient(k_mp) * tail)


def _sp_local(k: int, y):
    """The Sp local factor at y = 1/p in rational form,
    (1-y)^{B-k} (sum_m C(k, 2m) y^m + y (1-y)^k) / (1+y) with B = k(k+1)/2.

    The sum is the even part of (1 -+ p^{-1/2})^{-k}, times (1-y)^k.  Exact
    for a Fraction y, at working precision for an mpf y.
    """
    even = 0
    for m in range(k // 2, -1, -1):
        even = even * y + math.comb(k, 2 * m)
    return (1 - y) ** (k * (k - 1) // 2) * (even + y * (1 - y) ** k) / (1 + y)


def sp_local_factor(k: int, p: int) -> Fraction:
    """Exact local factor of the symplectic quadratic-family product.

    The average over the two square-root signs is even in p^{-1/2}, hence
    rational in 1/p; integer k therefore admits exact evaluation.  At
    k = 1 this simplifies to 1 - 1/(p^2 + p).
    """
    if not isinstance(k, int) or k < 1:
        raise DomainError("exact local factors need a positive integer k")
    _check_prime(p)
    return _sp_local(k, Fraction(1, p))


def sp_quadratic_arithmetic_factor(
    k: int, prime_cutoff: int = 100_000, precision_bits=None
) -> RealApprox:
    """Arithmetic constant of the quadratic symplectic family.

    Product over p <= cutoff of
    (1-1/p)^{k(k+1)/2} * (((1+p^{-1/2})^{-k} + (1-p^{-1/2})^{-k})/2 + 1/p)
    / (1 + 1/p), each factor evaluated in rational form (see sp_local_factor).
    The err_estimate compares against the half-cutoff partial product, the
    same scale a cutoff-doubling test would see.
    """
    if not isinstance(k, int) or k < 1:
        raise DomainError("k must be a positive integer")
    if prime_cutoff < 100:
        raise DomainError("prime_cutoff must be at least 100")
    with working_precision(precision_bits) as bits:
        product = mp.mpf(1)
        half_checkpoint = None
        half_bound = prime_cutoff // 2
        for p in primes_up_to(prime_cutoff):
            if half_checkpoint is None and p > half_bound:
                half_checkpoint = product
            product *= _sp_local(k, 1 / mp.mpf(p))
        if half_checkpoint is None:
            half_checkpoint = product
        return approx(product, bits, err=abs(product - half_checkpoint))


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
        object.__setattr__(
            self, "conductor_exponent", Fraction(self.conductor_exponent)
        )
        if self.conductor_exponent <= 0:
            raise DomainError("conductor exponent must be positive")


@dataclass(frozen=True)
class MeanValueShape:
    """Leading term coefficient * (A log Q)^{log_power} of a mean value."""

    coefficient: RealApprox
    log_power: int
    log_argument_exponent: Fraction


def assemble_mean_value(family: FamilyDescriptor, k: int, ak) -> MeanValueShape:
    """Leading-term shape of the k-th moment of a family.

    coefficient = g_k * a_k / B(k)! with the exact integer g_k; the
    caller-provided arithmetic factor may be a RealApprox, a Fraction, or
    a float.
    """
    if not isinstance(k, int) or k < 1:
        raise DomainError("k must be a positive integer")
    g = moment_constant(family.sym, k)
    b_exp = log_power(family.sym, k)
    given_bits = ak.precision_bits if isinstance(ak, RealApprox) else None
    with working_precision(given_bits) as bits:
        if not isinstance(ak, RealApprox):
            ak = approx(to_mpf(ak), bits)
        scale = mp.mpf(g) / mp.mpf(factorial(b_exp))
        coeff = approx(scale * ak.value, bits, err=scale * mp.mpf(ak.err_estimate))
    return MeanValueShape(
        coefficient=coeff,
        log_power=b_exp,
        log_argument_exponent=family.conductor_exponent,
    )
