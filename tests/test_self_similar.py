"""Valuation density c_p: exact rational values, classification, limits."""

import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfmoments import (
    Cusp,
    DomainError,
    PreconditionError,
    SelfSimilar,
    VerticalTangent,
    classify_point,
    density_exact,
    density_numeric,
    sample_density,
)
from lfmoments import self_similar


def test_exact_examples():
    assert density_exact(5, Fraction(3, 13)) == Fraction(23, 72)
    assert density_exact(3, 1) == Fraction(1, 2)


def test_base_two_is_constant_one():
    for x in (Fraction(3, 13), Fraction(1, 7), Fraction(355, 113), 1, 2, Fraction(9, 8)):
        assert density_exact(2, x) == 1


def test_rejects_nonpositive():
    with pytest.raises(DomainError):
        density_exact(3, 0)
    with pytest.raises(DomainError):
        density_numeric(5, -2.0)


def test_numeric_matches_exact():
    for p, x, eps in ((3, 8.0, 1e-10), (2, 0.37, 1e-8), (5, Fraction(3, 13), 1e-12)):
        approx = density_numeric(p, x, eps=eps)
        exact = density_exact(p, Fraction(x))
        assert abs(float(approx) - float(exact)) <= eps


@pytest.mark.parametrize("eps", [1e-100, 1e-300])
def test_numeric_meets_eps_far_below_the_128_bit_floor(eps):
    # the conversion is sized from eps; at a fixed 128 bits err_estimate
    # stayed near 4e-37
    for p, x in ((3, Fraction(1, 3)), (2, Fraction(1, 1000)), (5, Fraction(3, 13)), (7, 0.375)):
        got = density_numeric(p, x, eps=eps)
        exact = density_exact(p, Fraction(x))
        assert got.err_estimate == eps
        with mp.workprec(4000):
            gap = abs(got.value - mp.mpf(exact.numerator) / exact.denominator)
        assert gap <= eps


def test_numeric_keeps_128_bits_for_moderate_eps():
    assert density_numeric(3, Fraction(1, 3), eps=1e-9).precision_bits == 128


rational = st.fractions(
    min_value=Fraction(1, 400), max_value=400, max_denominator=400
)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@given(x=rational)
@settings(max_examples=200, deadline=None)
def test_scaling_invariance(p, x):
    assert density_exact(p, x) == density_exact(p, p * x)


@given(x=rational, p=st.sampled_from([3, 5, 7, 11]))
@settings(max_examples=60, deadline=None)
def test_numeric_agrees_with_exact(x, p):
    eps = 1e-9
    assert abs(float(density_numeric(p, x, eps=eps)) - float(density_exact(p, x))) <= eps


def test_classification_examples():
    got = classify_point(5, 3, 13)
    assert got == SelfSimilar(period=4)
    assert classify_point(3, 1, 2) == Cusp()
    assert classify_point(7, 3, 1) == SelfSimilar(period=1)


def test_classification_vertical_tangent():
    # 3 has order 5 mod 11 and the signed residues of 3*3^j do not cancel
    assert classify_point(3, 3, 11) == VerticalTangent()


def test_orbit_walks_reject_composite_p():
    # a composite p sharing a factor with b has no purely periodic orbit;
    # both walks refuse it before they start
    with pytest.raises(DomainError):
        classify_point(4, 1, 6)
    with pytest.raises(DomainError):
        density_exact(4, Fraction(1, 6))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_eps_and_x_are_domain_errors(bad):
    # NaN slipped past the eps <= 0 check, and Fraction(nan) or
    # Fraction(inf) raised ValueError or OverflowError
    with pytest.raises(DomainError):
        density_numeric(3, Fraction(1, 3), eps=bad)
    with pytest.raises(DomainError):
        sample_density(3, Fraction(1, 5), 8, 10, eps=bad)
    with pytest.raises(DomainError):
        density_numeric(3, bad)
    with pytest.raises(DomainError):
        density_exact(3, bad)


def test_orbit_beyond_the_cost_budget_is_an_error():
    # 3 has order 131128 mod the prime 131129, just past 2^18 / 2 steps;
    # density_exact used to build the ~260k-bit period sum (over a second)
    # and grows quadratically from there: 1/1000000007 never finished
    with pytest.raises(DomainError):
        density_exact(3, Fraction(1, 131129))
    with pytest.raises(DomainError):
        classify_point(3, 1, 131129)


def test_orbit_budget_boundary(monkeypatch):
    # budget 12 bits admits orbits of up to 6 steps for p = 3 (2 bits):
    # the order of 3 is 6 mod 7 and 16 mod 17
    monkeypatch.setattr(self_similar, "_ORBIT_BIT_BUDGET", 12)
    assert classify_point(3, 1, 7) == SelfSimilar(period=6)
    assert density_exact(3, Fraction(1, 7)) > 0
    with pytest.raises(DomainError):
        classify_point(3, 1, 17)
    with pytest.raises(DomainError):
        density_exact(3, Fraction(1, 17))


def _horner_period_sum(p, squares):
    # the period sum by Horner on one growing integer, quadratic in r
    num = 0
    for sq in squares:
        num = num * p + sq
    return num


@pytest.mark.parametrize("p", [3, 5, 7])
def test_period_sum_split_matches_horner(p):
    rng = random.Random(p)
    lengths = [*range(1, 200), *rng.sample(range(200, 5000), 25), 5000]
    for r in lengths:
        half_b = rng.randrange(1, 10**6)
        squares = [rng.randrange(half_b + 1) ** 2 for _ in range(r)]
        assert self_similar._period_sum(p, squares) == (
            _horner_period_sum(p, squares),
            p**r,
        ), r


def test_density_exact_matches_the_horner_period_sum(monkeypatch):
    # density_exact with the split against density_exact with Horner
    # (orbit lengths 1, 4, 252, 1366 and 6006)
    cases = [
        (3, Fraction(1, 2)),
        (5, Fraction(3, 13)),
        (7, Fraction(2, 1009)),
        (3, Fraction(1, 4099)),
        (5, Fraction(7, 6007)),
    ]
    got = [density_exact(p, x) for p, x in cases]
    monkeypatch.setattr(
        self_similar, "_period_sum", lambda p, sq: (_horner_period_sum(p, sq), p ** len(sq))
    )
    assert got == [density_exact(p, x) for p, x in cases]


# every density-layer entry point that takes p, as a function of it
PRIME_ARGUMENT = {
    "density_exact": lambda p: density_exact(p, Fraction(1, 3)),
    "density_numeric": lambda p: density_numeric(p, Fraction(1, 3)),
    "classify_point": lambda p: classify_point(p, 1, 7),
}


@pytest.mark.parametrize("p", [0, 1, 4, 9, 91, 3.0])
@pytest.mark.parametrize("name", sorted(PRIME_ARGUMENT))
def test_density_layer_rejects_non_primes(name, p):
    # density_exact(4, 1/3) used to answer 5/9, as if 4 were prime
    with pytest.raises(DomainError):
        PRIME_ARGUMENT[name](p)


def test_classification_requires_reduced_denominator():
    with pytest.raises(PreconditionError):
        classify_point(5, 3, 10)
    # shared numerator factors are fine: 10/13 and 2/13 share the same orbit
    assert classify_point(5, 10, 13) == classify_point(5, 2, 13)


@given(p=st.sampled_from([3, 5, 7, 11, 13]), a=st.integers(min_value=1, max_value=200))
@settings(max_examples=120)
def test_integers_are_self_similar(p, a):
    got = classify_point(p, a, 1)
    assert isinstance(got, SelfSimilar)
    assert got.period == 1


@given(p=st.sampled_from([3, 5, 7, 11, 13]), a=st.integers(min_value=1, max_value=199))
@settings(max_examples=120)
def test_half_integers_are_cusps(p, a):
    if a % 2 == 1 and a % p != 0:
        assert classify_point(p, a, 2) == Cusp()


def test_sample_density_grid():
    pts = sample_density(3, 1.0, 3.0, 3)
    assert [x for x, _ in pts] == [1.0, 2.0, 3.0]
    # c_3(1) = c_3(3) = 1/2 by the scaling relation
    assert abs(pts[0][1] - 0.5) < 1e-9
    assert abs(pts[2][1] - 0.5) < 1e-9

    flat = sample_density(2, 0.1, 2.0, 5)
    assert all(abs(y - 1.0) < 1e-9 for _, y in flat)

    lo = Fraction(3, 13) - Fraction(1, 625)
    hi = Fraction(3, 13) + Fraction(1, 625)
    window = sample_density(5, lo, hi, 101, eps=1e-10)
    assert abs(window[50][1] - 23 / 72) < 1e-9


@pytest.mark.parametrize("n", [1, self_similar._MAX_SAMPLES + 1, 10**9])
def test_sample_count_beyond_the_cost_bound_is_an_error(monkeypatch, n):
    # a point costs about 0.6 ms, so n = 10^9 would run for days; the count
    # is checked before any point is sampled
    def no_density(*args, **kwargs):
        raise AssertionError("a point was sampled")

    monkeypatch.setattr(self_similar, "density_numeric", no_density)
    with pytest.raises(DomainError, match="sample points"):
        sample_density(3, 1, 2, n)


def test_large_p_approaches_norm_square():
    def sup_gap(p):
        worst = 0.0
        x = Fraction(1, 10)
        step = Fraction(1, 25)
        while x <= 10:
            target = float(min(x - math.floor(x), math.ceil(x) - x) ** 2 / x)
            worst = max(worst, abs(float(density_exact(p, x)) - target))
            x += step
        return worst

    assert sup_gap(101) < sup_gap(11)


def test_numeric_self_similarity_increments():
    # increments rescaled by p^m repeat with the classified period
    p, a, b = 5, 3, 13
    r = classify_point(p, a, b).period
    base = Fraction(a, b)
    c0 = density_exact(p, base)
    for m in (3, 4):
        for xs in (Fraction(1, 3), Fraction(2, 3), 1):
            h1 = Fraction(xs, p**m)
            h2 = Fraction(xs, p ** (m + r))
            d1 = (density_exact(p, base + h1) - c0) / h1
            d2 = (density_exact(p, base + h2) - c0) / h2
            assert abs(float(d1 - d2)) < 10 * p ** (-m)
