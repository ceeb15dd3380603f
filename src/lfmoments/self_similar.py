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

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator, List, Tuple, Union

from .errors import DomainError, PreconditionError, WorkBudget, brief, require_int, require_rational
from .numeric_core import check_prime

if TYPE_CHECKING:
    from .precision import RealApprox


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
    fx = require_rational("x", x)
    if fx <= 0:
        # the sign, not the value: a huge x has no repr under the int-to-str limit
        raise DomainError(f"density is defined for x > 0, got {'0' if fx == 0 else 'x < 0'}")
    return fx


# cap on the residue walks of one request (a density, or a whole sample),
# 2^43 units to 1.1 s: a step reduces and squares ints of the modulus'
# width w, charged 3 w (w + 2^11); a positive-side step took 1.0, 6.4, 91
# and 900 us at w = 1000, 3300, 16600 and 66000, that is 2.7, 2.9, 2.4 and
# 1.6 w (w + 2^11) units (2-vCPU x86-64, CPython 3.11).  Below 2^10 bits a
# step's fixed 0.3-0.8 us dominates, so w is taken as at least 2^10.
_WALK_BUDGET = 1 << 43


def _walk_charge(steps: int, modulus: int) -> int:
    width = max(modulus.bit_length(), 1 << 10)
    return 3 * steps * width * (width + (1 << 11))


def _walk_refusal(budget: WorkBudget, steps: int, modulus: int) -> str:
    share = budget.spent * 100 // budget.limit
    after = f" after earlier walks spent {share}% of it" if share else ""
    return (
        f"a walk of {steps} or more residues modulo a {modulus.bit_length()}"
        f"-bit number passes the cost bound{after} "
        f"(3 * steps * w * (w + 2^11), w >= 2^10, summed over the walks, <= 2^43)"
    )


# cap on r * p.bit_length() for an orbit of length r: the period sum in
# density_exact is an integer of about that many bits (at the cap, p = 3
# and r = 131070, _period_sum takes 0.06 s and density_exact 0.23 s on a
# 2-vCPU x86-64 VM)
_ORBIT_BIT_BUDGET = 1 << 18


def _residue_walk(p: int, a: int, b: int) -> Iterator[int]:
    """Absolute least residues of a, ap, ap^2, ... mod b, without end."""
    half = b >> 1  # t <= b/2 exactly when t <= half
    t = a % b
    while True:
        yield t if t <= half else t - b
        t = t * p % b


def _orbit_residues(p: int, a: int, b: int, budget: WorkBudget) -> List[int]:
    """Absolute least residues of a, ap, ap^2, ... mod b, one period.

    With gcd(a, b) = 1 and a prime p not dividing b (both callers ensure
    it) the orbit returns to a mod b after exactly the multiplicative order
    r of p mod b.  Raises DomainError, during the walk, once r would pass
    _ORBIT_BIT_BUDGET // p.bit_length() or what is left of budget at b's
    width; the r steps walked are spent from budget.
    """
    step = _walk_charge(1, b)
    max_len = min(_ORBIT_BIT_BUDGET // p.bit_length(), (budget.limit - budget.spent) // step)
    residues = []
    for res in _residue_walk(p, a, b):
        if residues and res == residues[0]:
            budget.spent += len(residues) * step  # within max_len, so within budget
            return residues
        if len(residues) == max_len:
            break
        residues.append(res)
    raise DomainError(
        f"the orbit of {p} mod {brief(b)} is longer than {max_len} steps "
        f"(r * p.bit_length() <= 2^18, 3 * r * w * (w + 2^11) <= 2^43, w >= 2^10)"
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


def _negative_side(p: int, a: int, b: int, budget: WorkBudget) -> Fraction:
    """The ell <= -1 part of the sum at x = a/b, exactly: r_m^2 / (b^2 p^m)
    for 1 <= m < M, r_m the absolute least residue of a mod b p^m (taken
    from r_(m+1), largest modulus first) and M the least m with
    2a <= b p^m, then the geometric tail x^2 p / ((p - 1) p^M).  The walk
    is charged to budget."""
    # every modulus stays below 2a: up to this many steps no check can fail
    safe = (budget.limit - budget.spent) // _walk_charge(1, 2 * a)
    steps, modulus = 0, b
    while 2 * a > modulus * p:
        steps += 1
        modulus *= p
        if steps > safe:
            budget.check(_walk_charge(steps, modulus), _walk_refusal, budget, steps, modulus)
    budget.spend(_walk_charge(steps, modulus), _walk_refusal, budget, steps, modulus)
    squares, r = [], a
    for _ in range(steps):
        # the absolute least residue, inlined: r and modulus are the walk's ints
        r %= modulus
        if 2 * r > modulus:
            r -= modulus
        squares.append(r * r)
        modulus //= p
    # sum_m r_m^2 / (b^2 p^m) = num / (b^2 p^(M-1)), and the tail is
    # a^2 / (b^2 (p - 1) p^(M-1))
    num, p_steps = _period_sum(p, squares[::-1])
    return Fraction(num * (p - 1) + a * a, b * b * (p - 1) * p_steps)


def density_exact(p: int, x) -> Fraction:
    """c_p(x) as an exact rational, for rational x > 0.

    Reduces via c_p(x) = c_p(px) until the denominator is coprime to p,
    then sums: the small-argument side is a geometric series, the
    large-argument side is periodic in the residues of numerator*p^ell
    and sums to a finite rational combination of geometric series.  The
    orbit and the negative side's walk share one walk budget.
    """
    check_prime(p)
    fx = _as_positive_fraction(x)
    a, b = fx.numerator, fx.denominator
    if b % p == 0 and b.bit_length() <= _ORBIT_BIT_BUDGET:
        # p^v divides b for v < b.bit_length() / (p.bit_length() - 1); a
        # wider b keeps it, so its orbit never closes and the walk refuses it
        b //= math.gcd(b, p ** (b.bit_length() // (p.bit_length() - 1)))

    # ell >= 0: ||p^ell x|| = |[[a p^ell mod b]]| / b, purely periodic with
    # period r, the multiplicative order of p mod b.  The period sums
    # res_i^2 / (b^2 p^i) for i < r; with num = sum_i res_i^2 p^(r-1-i) and
    # the factor p^r / (p^r - 1) for all periods, that is num p / (b^2 (p^r - 1)).
    budget = WorkBudget(_WALK_BUDGET)
    num, p_r = _period_sum(p, [res * res for res in _orbit_residues(p, a, b, budget)])
    total = _negative_side(p, a, b, budget) + Fraction(num * p, b * b * (p_r - 1))
    return total * b / a


def density_numeric(p: int, x, eps: float = 1e-9) -> RealApprox:
    """c_p(x) by truncated summation, to within eps.

    Floating-point x is treated as the exact binary rational it stores.
    The negative side is density_exact's; the positive side is the first
    L terms of the same residue walk, L the least with the worst-case tail
    (||.|| <= 1/2) below eps/2.  Both walks share one walk budget.
    """
    check_prime(p)
    fe = _checked_eps(eps)
    value = _density_numeric(p, _as_positive_fraction(x), fe, WorkBudget(_WALK_BUDGET))
    # bits enough that the rounding floor |value| 2^(8 - bits) of approx
    # stays below eps; 2^magnitude > |value|
    magnitude = value.numerator.bit_length() - value.denominator.bit_length() + 1
    bits = max(128, _neg_log2_ceil(fe) + max(magnitude, 0) + 9)
    # the one user of precision, imported here so the exact densities load no mpmath
    from .precision import MAX_PRECISION_BITS, approx, to_mpf, working_precision

    if bits > MAX_PRECISION_BITS:
        raise DomainError(
            f"eps asks for {bits} bits, past the {MAX_PRECISION_BITS}-bit precision "
            f"ceiling, got {brief(eps)}"
        )
    with working_precision(bits):
        return approx(to_mpf(value), bits, err=to_mpf(fe))


def _checked_eps(eps) -> Fraction:
    """eps as an exact positive Fraction; DomainError otherwise."""
    fe = require_rational("eps", eps)
    if fe <= 0:
        raise DomainError(f"eps must be positive, got {brief(eps)}")
    return fe


def _neg_log2_ceil(eps: Fraction) -> int:
    """ceil(-log2 eps): through math.log2 for a float eps, as it always was,
    so that its bits stay the same (log2 rounds the float just below a power
    of two to the integer); exactly for any other, whose float may be 0.0."""
    try:
        if float(eps) == eps:
            return math.ceil(-math.log2(eps))
    except OverflowError:
        pass
    n, d = eps.numerator, eps.denominator
    m = d.bit_length() - n.bit_length()  # the answer or one less
    return m + (n << m < d if m >= 0 else n < d << -m)


def _density_numeric(p: int, fx: Fraction, eps: Fraction, budget: WorkBudget) -> Fraction:
    """density_numeric's truncated sum, exactly, at a checked p, x and eps,
    its walks charged to budget."""
    a, b = fx.numerator, fx.denominator

    # L >= 1 with (1/4) sum_{l>=L} p^-l < eps/2 * x, that is
    # p e_d b < 2 (p - 1) e_n a p^L for eps = e_n / e_d
    e_n, e_d = eps.numerator, eps.denominator
    steps, bound, target = 1, 2 * (p - 1) * e_n * a * p, p * e_d * b
    while bound <= target:
        steps += 1
        bound *= p
        budget.check(_walk_charge(steps, b), _walk_refusal, budget, steps, b)
    budget.spend(_walk_charge(steps, b), _walk_refusal, budget, steps, b)
    prefix = itertools.islice(_residue_walk(p, a, b), steps)
    num, p_steps = _period_sum(p, [res * res for res in prefix])
    return (_negative_side(p, a, b, budget) + Fraction(num * p, b * b * p_steps)) / fx


def classify_point(p: int, a: int, b: int) -> PointClass:
    """Local class of the graph of c_p at x = a/b.

    a/b is reduced first; if p still divides the denominator the caller
    must rescale by a power of p (the graph repeats under x -> px).
    """
    check_prime(p)
    fx = Fraction(require_int("a", a, 1), require_int("b", b, 1))
    if fx.denominator % p == 0:
        raise PreconditionError(
            f"denominator of {fx} shares a factor with p = {p}; rescale by p first"
        )
    residues = _orbit_residues(p, fx.numerator, fx.denominator, WorkBudget(_WALK_BUDGET))
    if sum(residues) == 0:
        return SelfSimilar(period=len(residues))
    if fx.denominator == 2:
        return Cusp()
    return VerticalTangent()


# sample_density answers up to this n; a point at eps = 1e-9 costs
# 0.02-0.05 ms for p = 2, 3, 5 or 101, so n = 10^4 took 0.16-0.46 s (2-vCPU
# x86-64, CPython 3.11)
_MAX_SAMPLES = 10_000
# w (w + 2^11) units charged per point at denominator width w for its exact
# arithmetic: at 2^43 units to 1.1 s it took 150 of them at w = 1000, 97 at
# 3300, 89 at 16600 and 116 at 184000, the widest where a sample fits
_POINT_UNITS = 160


def _point_refusal(n: int, width: int) -> str:
    return (f"the exact arithmetic of {n} points with denominators of up to {width} bits "
            f"passes the cost bound ({_POINT_UNITS} n w (w + 2^11) <= 2^43)")


def sample_density(
    p: int, x_min, x_max, n: int, eps: float = 1e-9
) -> List[Tuple[float, float]]:
    """n uniformly spaced samples of c_p over [x_min, x_max], 2 <= n <= 10^4.

    The points share one walk budget: their exact arithmetic is charged
    before the first point, their walks as they run, so a sample of wide or
    far points is refused once it passes the budget, not after minutes.
    """
    require_int("the number of sample points n", n, 2, _MAX_SAMPLES)
    check_prime(p)
    eps = _checked_eps(eps)
    lo = _as_positive_fraction(x_min)
    hi = _as_positive_fraction(x_max)
    if hi <= lo:
        raise DomainError("need x_max > x_min > 0")
    if hi >= 2**1023:
        raise DomainError("need x_max < 2^1023: the samples are floats")
    step = (hi - lo) / (n - 1)
    budget = WorkBudget(_WALK_BUDGET)
    # every point's denominator divides lcm(den(lo), den(step))
    width = math.lcm(lo.denominator, step.denominator).bit_length()
    budget.spend(_POINT_UNITS * n * width * (width + (1 << 11)), _point_refusal, n, width)
    points = (lo + i * step for i in range(n))
    return [(float(xi), float(_density_numeric(p, xi, eps, budget))) for xi in points]
