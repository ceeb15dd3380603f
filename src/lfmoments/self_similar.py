"""The limiting valuation density c_p and its local geometry.

c_p(x) = x^{-1} * sum over all integers ell of p^{-ell} * ||p^ell x||^2,
where ||y|| is the distance from y to the nearest integer.  For rational x
the two tails are exact geometric series and the middle is a finite exact
sum, so c_p(x) is an explicit rational number.  The function satisfies
c_p(px) = c_p(x), c_2 is identically 1, and as p grows c_p(x) approaches
||x||/x pointwise.

Local behavior at a rational point a/b (p not dividing b) is controlled by
the absolute least residues of a, ap, ap^2, ... modulo b: with r the
multiplicative order of p mod b and S the sum of those r residues, the graph
near a/b is self-similar when S = 0, has a cusp when S != 0 and b = 2, and
has a vertical tangent otherwise.

Large valuations track this density: v_p(g_{k,U}) ~ k*c_p(x) and
v_p(g_{k,O}) ~ v_p(g_{k,Sp}) ~ (k/2)*c_p(x) along k = floor(p^j x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple, Union

from .errors import DomainError, PreconditionError
from .numeric_core import abs_least_residue, check_prime
from .precision import RealApprox, approx, to_mpf, working_precision


@dataclass(frozen=True)
class SelfSimilar:
    period: int


@dataclass(frozen=True)
class Cusp:
    pass


@dataclass(frozen=True)
class VerticalTangent:
    pass


PointClass = Union[SelfSimilar, Cusp, VerticalTangent]


def _as_positive_fraction(x) -> Fraction:
    try:
        fx = Fraction(x)
    except (ValueError, OverflowError) as exc:  # NaN, infinities
        raise DomainError(f"density needs a finite x, got {x!r}") from exc
    if fx <= 0:
        raise DomainError(f"density is defined for x > 0, got {x!r}")
    return fx


def _nearest_int_distance(y: Fraction) -> Fraction:
    f = y - math.floor(y)
    return min(f, 1 - f)


# cap on r * p.bit_length() for an orbit of length r: the period sum in
# density_exact is an integer of about that many bits (at the cap, p = 3
# and r = 131070, _period_sum takes 0.06 s and density_exact 0.23 s on a
# 2-vCPU x86-64 VM)
_ORBIT_BIT_BUDGET = 1 << 18


def _orbit_residues(p: int, a: int, b: int) -> List[int]:
    """Absolute least residues of a, ap, ap^2, ... mod b, one period.

    With gcd(a, b) = 1 and a prime p not dividing b (both callers ensure
    it) the orbit returns to a mod b after exactly the multiplicative order
    r of p mod b.  Raises DomainError, during the walk, once
    r * p.bit_length() would pass _ORBIT_BIT_BUDGET.
    """
    max_len = _ORBIT_BIT_BUDGET // p.bit_length()
    residues = []
    start = t = a % b
    while True:
        residues.append(abs_least_residue(t, b))
        t = t * p % b
        if t == start:
            return residues
        if len(residues) == max_len:
            raise DomainError(
                f"the orbit of {p} mod {b} is longer than {max_len} steps "
                f"(r * p.bit_length() is capped at {_ORBIT_BIT_BUDGET})"
            )


def _period_sum(p: int, squares: List[int]) -> Tuple[int, int]:
    """(sum_i squares[i] p^(r-1-i), p^r) for r = len(squares), split at the
    midpoint, num(L) p^len(R) + num(R), down to Horner on short runs."""
    if len(squares) <= 64:
        num = 0
        for sq in squares:
            num = num * p + sq
        return num, p ** len(squares)
    mid = len(squares) // 2
    left, p_left = _period_sum(p, squares[:mid])
    right, p_right = _period_sum(p, squares[mid:])
    return left * p_right + right, p_left * p_right


def _negative_side(p: int, fx: Fraction) -> Fraction:
    """The ell <= -1 part of the sum, exactly: terms p^m ||x / p^m||^2 for
    m >= 1; once x / p^m <= 1/2 the terms are x^2 / p^m, a geometric tail."""
    total = Fraction(0)
    m = 1
    while fx / p**m > Fraction(1, 2):
        d = _nearest_int_distance(fx / p**m)
        total += p**m * d * d
        m += 1
    return total + fx * fx * Fraction(p, (p - 1) * p**m)


def density_exact(p: int, x) -> Fraction:
    """c_p(x) as an exact rational, for rational x > 0.

    Reduces via c_p(x) = c_p(px) until the denominator is coprime to p,
    then sums: the small-argument side is a geometric series, the
    large-argument side is periodic in the residues of numerator*p^ell
    and sums to a finite rational combination of geometric series.
    """
    check_prime(p)
    fx = _as_positive_fraction(x)
    while fx.denominator % p == 0:
        fx *= p
    a, b = fx.numerator, fx.denominator

    total = _negative_side(p, fx)

    # ell >= 0: ||p^ell x|| = |[[a p^ell mod b]]| / b, purely periodic with
    # period r, the multiplicative order of p mod b.  The period sums
    # res_i^2 / (b^2 p^i) for i < r; with num = sum_i res_i^2 p^(r-1-i) and
    # the factor p^r / (p^r - 1) for all periods, that is num p / (b^2 (p^r - 1)).
    num, p_r = _period_sum(p, [res * res for res in _orbit_residues(p, a, b)])
    total += Fraction(num * p, b * b * (p_r - 1))

    return total / fx


def density_numeric(p: int, x, eps: float = 1e-9) -> RealApprox:
    """c_p(x) by truncated summation, independent of density_exact's
    period sum.

    Floating-point x is treated as the exact binary rational it stores.
    The negative side is density_exact's; the positive side is summed
    term by term and truncated once its worst-case tail (||.|| <= 1/2)
    drops below eps/2.
    """
    check_prime(p)
    if not 0 < eps < math.inf:  # also false for NaN
        raise DomainError(f"eps must be positive and finite, got {eps}")
    fx = _as_positive_fraction(x)

    total = _negative_side(p, fx)

    # positive side: stop when (1/4) * sum_{l>L} p^-l < eps/2 * x
    tail_budget = Fraction(eps) / 2 * fx
    ell = 0
    while True:
        d = _nearest_int_distance(fx * p**ell)
        total += d * d / Fraction(p**ell)
        ell += 1
        worst_tail = Fraction(1, 4) * Fraction(p, (p - 1) * p**ell)
        if worst_tail < tail_budget:
            break

    value = total / fx
    # bits enough that the rounding floor |value| 2^(8 - bits) of approx
    # stays below eps; 2^magnitude > |value|
    magnitude = value.numerator.bit_length() - value.denominator.bit_length() + 1
    bits = max(128, math.ceil(-math.log2(eps)) + max(magnitude, 0) + 9)
    with working_precision(bits):
        return approx(to_mpf(value), bits, err=eps)


def classify_point(p: int, a: int, b: int) -> PointClass:
    """Local class of the graph of c_p at x = a/b.

    a/b is reduced first; if p still divides the denominator the caller
    must rescale by a power of p (the graph repeats under x -> px).
    """
    check_prime(p)
    if a < 1 or b < 1:
        raise DomainError("need a positive rational a/b")
    fx = Fraction(a, b)
    if fx.denominator % p == 0:
        raise PreconditionError(
            f"denominator of {fx} shares a factor with p = {p}; rescale by p first"
        )
    residues = _orbit_residues(p, fx.numerator, fx.denominator)
    if sum(residues) == 0:
        return SelfSimilar(period=len(residues))
    if fx.denominator == 2:
        return Cusp()
    return VerticalTangent()


# sample_density answers up to this n; a point cost about 0.6 ms, so
# n = 10^4 took 6.4 s (2-vCPU x86-64, CPython 3.11)
_MAX_SAMPLES = 10_000


def sample_density(
    p: int, x_min, x_max, n: int, eps: float = 1e-9
) -> List[Tuple[float, float]]:
    """n uniformly spaced samples of c_p over [x_min, x_max], 2 <= n <= 10^4."""
    if not 2 <= n <= _MAX_SAMPLES:
        raise DomainError(f"need 2 to {_MAX_SAMPLES} sample points, got {n}")
    lo = _as_positive_fraction(x_min)
    hi = _as_positive_fraction(x_max)
    if hi <= lo:
        raise DomainError("need x_max > x_min > 0")
    step = (hi - lo) / (n - 1)
    out = []
    for i in range(n):
        xi = lo + i * step
        out.append((float(xi), float(density_numeric(p, xi, eps).value)))
    return out
