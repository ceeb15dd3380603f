"""Valuation density c_p: exact rational values, classification, limits."""

import math
import random
import sys
import time
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
from lfmoments.errors import WorkBudget
from lfmoments.precision import approx, to_mpf, working_precision


# --- the term-by-term sum, one Fraction a term: the oracle for both routes


def _nearest_int_distance(y: Fraction) -> Fraction:
    f = y - math.floor(y)
    return min(f, 1 - f)


def _negative_side_by_terms(p, fx):
    # p^m ||x / p^m||^2 for m >= 1 until x / p^m <= 1/2, then the
    # geometric tail x^2 / p^m
    total = Fraction(0)
    m = 1
    while fx / p**m > Fraction(1, 2):
        d = _nearest_int_distance(fx / p**m)
        total += p**m * d * d
        m += 1
    return total + fx * fx * Fraction(p, (p - 1) * p**m)


def _density_by_terms(p, x):
    fx = Fraction(x)
    while fx.denominator % p == 0:
        fx *= p
    # ell >= 0: one period of ||p^ell x||, r the order of p mod the
    # denominator, and all periods by the factor p^r / (p^r - 1)
    # (None past 300 terms: the sum is quadratic in r)
    squares = []
    start = y = fx - math.floor(fx)
    while not squares or y != start:
        if len(squares) == 300:
            return None
        squares.append(_nearest_int_distance(y) ** 2)
        y = y * p - math.floor(y * p)
    r = len(squares)
    period = sum(sq * p ** (r - i) for i, sq in enumerate(squares)) / (p**r - 1)
    return (_negative_side_by_terms(p, fx) + period) / fx


def _density_numeric_by_terms(p, x, eps):
    # terms ell = 0, 1, ... until the worst-case tail (||.|| <= 1/2) is
    # below eps/2, rounded at max(128, -log2 eps + 9 + log2 of the value) bits
    fx = Fraction(x)
    total = _negative_side_by_terms(p, fx)
    tail_budget = Fraction(eps) / 2 * fx
    ell = 0
    while True:
        d = _nearest_int_distance(fx * p**ell)
        total += d * d / Fraction(p**ell)
        ell += 1
        if Fraction(1, 4) * Fraction(p, (p - 1) * p**ell) < tail_budget:
            break
    value = total / fx
    magnitude = value.numerator.bit_length() - value.denominator.bit_length() + 1
    bits = max(128, math.ceil(-math.log2(eps)) + max(magnitude, 0) + 9)
    with working_precision(bits):
        return approx(to_mpf(value), bits, err=eps)


PRIMES = [2, 3, 5, 7, 101, 999_999_999_989]


@st.composite
def density_points(draw):
    """(p, x): x a float, p | b, x > p^3, x < 1/(2p) or a plain rational."""
    p = draw(st.sampled_from(PRIMES))
    small = st.integers(min_value=1, max_value=10**6)
    kind = draw(st.sampled_from(["float", "p|b", "large", "tiny", "rational"]))
    if kind == "float":
        return p, draw(st.floats(min_value=1e-6, max_value=1e6))
    if kind == "p|b":
        denominator = p ** draw(st.integers(1, 5)) * draw(st.integers(1, 50))
        return p, Fraction(draw(small), denominator)
    if kind == "large":
        return p, p**3 + Fraction(draw(small), draw(st.integers(1, 50)))
    if kind == "tiny":
        return p, Fraction(1, 2 * p + draw(small))
    return p, Fraction(draw(small), draw(st.integers(1, 500)))


@given(point=density_points())
@settings(max_examples=300, deadline=None)
def test_density_exact_matches_the_term_by_term_sum(point):
    p, x = point
    want = _density_by_terms(p, x)
    if want is not None:
        assert density_exact(p, x) == want
    fx = Fraction(x)
    assert self_similar._negative_side(
        p, fx.numerator, fx.denominator, WorkBudget(1 << 43)
    ) == _negative_side_by_terms(p, fx)


@given(
    point=density_points(),
    eps=st.sampled_from([0.5, 1e-3, 1e-9, 2.5e-17, 1e-40, 1e-300]),
)
@settings(max_examples=300, deadline=None)
def test_density_numeric_matches_the_term_by_term_sum(point, eps):
    p, x = point
    got = density_numeric(p, x, eps=eps)
    want = _density_numeric_by_terms(p, x, eps)
    assert got.value._mpf_ == want.value._mpf_
    assert got.precision_bits == want.precision_bits
    assert got.err_estimate == want.err_estimate


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


def test_nonpositive_x_is_named_by_its_sign():
    # repr(x) would pass the default int-to-str limit and raise ValueError
    x = -Fraction(1, 10**300000)
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for route in (
            lambda: density_exact(3, x),
            lambda: density_numeric(3, x),
            lambda: sample_density(3, x, 1, 10),
        ):
            with pytest.raises(DomainError, match="got x < 0") as info:
                route()
            assert len(str(info.value)) < 200
    finally:
        sys.set_int_max_str_digits(before)


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


def _float_eps_grid():
    """Positive floats from 8.99e307 down to 5e-324: the powers of ten and
    of two, and the floats next to each power of two."""
    grid = {10.0**-j for j in range(-308, 324)} | {5e-324}
    for j in range(-1023, 1075):
        two = math.ldexp(1.0, -j)
        grid |= {two, math.nextafter(two, 0), math.nextafter(two, math.inf)}
    return sorted(grid - {0.0, math.inf})


def _least_doubling(eps: Fraction) -> int:
    """The least m with eps 2^m >= 1, that is ceil(-log2 eps), by search."""
    m = eps.denominator.bit_length() - eps.numerator.bit_length() - 2
    while Fraction(2) ** m * eps < 1:
        m += 1
    return m


def test_eps_bits_of_every_float_are_math_log2s():
    # density_numeric sized its precision from math.log2(eps); read from
    # the exact rational, the float just below a power of two would gain a
    # bit (log2 rounds it to the integer), and so would its cp --eps record
    grid = _float_eps_grid()
    moved = 0
    for eps in grid:
        want = math.ceil(-math.log2(eps))
        assert self_similar._neg_log2_ceil(Fraction(eps)) == want, eps
        moved += _least_doubling(Fraction(eps)) != want
    assert moved > 1000


@pytest.mark.parametrize("eps", [
    Fraction(1, 10**4000), Fraction(1, 3 * 2**2000), Fraction(2**2000 - 1, 2**4000),
    Fraction(10**400 + 1), Fraction(2**1100 + 1, 2**1100), Fraction(1, 3), Fraction(2, 3),
])
def test_eps_bits_of_a_rational_no_float_holds_are_exact(eps):
    # float(eps) is 0.0, overflows or rounds: the bits come from integers
    assert self_similar._neg_log2_ceil(eps) == _least_doubling(eps)


def test_density_numeric_keeps_its_bits_down_to_the_least_float():
    grid = _float_eps_grid()
    for eps in grid[::97] + [5e-324, math.nextafter(2.0**-200, 0), 1e-9]:
        got = density_numeric(3, Fraction(2, 7), eps=eps)
        want = _density_numeric_by_terms(3, Fraction(2, 7), eps)
        assert got.value._mpf_ == want.value._mpf_, eps
        assert got.precision_bits == want.precision_bits, eps
        assert got.err_estimate == want.err_estimate, eps


def test_an_eps_past_the_precision_ceiling_is_refused_by_name():
    # 2^-8305 < eps asks for 8314 bits; the refusal named precision_bits,
    # which the caller never passed.  2^-6644 < 10^-2000 still answers
    with pytest.raises(DomainError, match=r"^eps asks for 8314 bits, past the 8192-bit") as exc:
        density_numeric(3, Fraction(1, 3), eps=Fraction(1, 10**2500))
    assert "precision_bits" not in str(exc.value)
    assert density_numeric(3, Fraction(1, 3), eps=Fraction(1, 10**2000)).precision_bits == 6653


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


def test_walk_budget_boundary(monkeypatch):
    # x = 10^40, p = 3: the orbit mod 1 is one residue of 1 bit, and the
    # negative side walks 84 residues below a 134-bit modulus; a modulus
    # narrower than 2^10 bits is charged as one of 2^10 bits
    step = 3 * 2**10 * (2**10 + 2**11)
    charge = step + 84 * step
    monkeypatch.setattr(self_similar, "_WALK_BUDGET", charge)
    assert density_exact(3, 10**40) == Fraction(
        1178761568923274751330436742372275137647, 2 * 10**39
    )
    monkeypatch.setattr(self_similar, "_WALK_BUDGET", charge - 1)
    with pytest.raises(DomainError, match="cost bound"):
        density_exact(3, 10**40)
    # x = 1/21, eps = 1e-9: the prefix is 22 residues mod 21 (5 bits)
    charge = 22 * step
    monkeypatch.setattr(self_similar, "_WALK_BUDGET", charge)
    density_numeric(3, Fraction(1, 21))
    monkeypatch.setattr(self_similar, "_WALK_BUDGET", charge - 1)
    with pytest.raises(DomainError, match="cost bound"):
        density_numeric(3, Fraction(1, 21))


def test_density_exact_charges_both_walks_to_one_budget(monkeypatch):
    # x = 10^6 / 7, p = 3: the orbit of 3 mod 7 is 6 residues of 3 bits,
    # then the negative side walks below moduli up to 21 bits; a request
    # whose budget covers each walk alone but not both is refused
    orbit = 6 * 3 * 2**10 * (2**10 + 2**11)
    side = WorkBudget(1 << 43)
    self_similar._negative_side(3, 10**6, 7, side)
    want = density_exact(3, Fraction(10**6, 7))
    monkeypatch.setattr(self_similar, "_WALK_BUDGET", orbit + side.spent)
    assert density_exact(3, Fraction(10**6, 7)) == want
    monkeypatch.setattr(self_similar, "_WALK_BUDGET", orbit + side.spent - 1)
    with pytest.raises(DomainError, match="after earlier walks spent 35% of it"):
        density_exact(3, Fraction(10**6, 7))
    # classify_point walks the orbit alone, on a budget of its own
    monkeypatch.setattr(self_similar, "_WALK_BUDGET", orbit)
    assert classify_point(3, 10**6, 7) == classify_point(3, 1, 7)
    monkeypatch.setattr(self_similar, "_WALK_BUDGET", orbit - 1)
    with pytest.raises(DomainError, match="the orbit of 3 mod 7 is longer than 5 steps"):
        classify_point(3, 10**6, 7)


def test_sample_points_charge_their_exact_arithmetic(monkeypatch):
    # 10^4 points whose denominators divide lcm(10^5000, den(step)), 16610
    # bits, charge 160 * 10^4 * w * (w + 2^11) before the first: refused at
    # once (their walks alone took 1.8-2.7 s to pass the budget)
    with pytest.raises(DomainError, match="of 10000 points .* to 16610 bits passes the cost bound"):
        sample_density(3, Fraction(1, 10**5000), 1, 10**4)
    # at 10^-300 the bound is 997 bits, den(step)'s, and the charge and the
    # walks fit; adding both denominators' widths (1994) refused it
    assert len(sample_density(3, Fraction(1, 10**300), 1, 10**4)) == 10**4
    # lo = 1/3 and step = 1/3: w = 2 for each of 3 points, on top of which
    # come the walks, 58 steps charged as 2^10-bit ones
    charge = self_similar._POINT_UNITS * 3 * 2 * (2 + 2**11)
    monkeypatch.setattr(self_similar, "_WALK_BUDGET", charge - 1)
    with pytest.raises(DomainError, match="exact arithmetic"):
        sample_density(3, Fraction(1, 3), 1, 3)
    walks = 58 * 3 * 2**10 * (2**10 + 2**11)
    monkeypatch.setattr(self_similar, "_WALK_BUDGET", charge + walks)
    assert len(sample_density(3, Fraction(1, 3), 1, 3)) == 3
    monkeypatch.setattr(self_similar, "_WALK_BUDGET", charge + walks - 1)
    with pytest.raises(DomainError, match="a walk of"):
        sample_density(3, Fraction(1, 3), 1, 3)


def test_sample_points_share_one_walk_budget():
    # each point near 10^307 walks ~1000 residues below a ~1000-bit
    # modulus, within the budget alone; 10^4 of them took 17 s before the
    # sample was charged as a whole
    density_numeric(2, 10**307)
    with pytest.raises(DomainError, match="cost bound after earlier walks"):
        sample_density(2, 10**300, 10**307, 10**4)
    assert len(sample_density(3, 1, 9, 10**4)) == 10**4


@pytest.mark.parametrize(
    "route, p, x",
    [
        (density_exact, 3, Fraction(10**20000)),  # 41918 residues, 66k bits wide
        (density_numeric, 3, Fraction(10**20000)),
        (density_numeric, 3, Fraction(1, 10**20000)),  # 41937 residues mod 10^20000
        (density_exact, 5, Fraction(1, 10**20000)),  # the orbit of 5 mod 2^20000
    ],
)
def test_walks_past_the_cost_bound_are_refused_at_once(route, p, x):
    # the first three took 21-26 s as residue walks, longer by Fractions;
    # the orbit stops after the 12086 steps its width allows
    started = time.perf_counter()
    with pytest.raises(DomainError):
        route(p, x)
    assert time.perf_counter() - started < 1.0


def test_denominators_divide_out_p_at_once():
    # one division by a gcd; the Fraction loop x *= p took a gcd per factor
    assert density_exact(2, Fraction(1, 2**262000)) == 1
    assert density_exact(3, Fraction(7, 2 * 3**150000)) == density_exact(3, 3.5)
    assert density_exact(5, Fraction(3, 13 * 5**3)) == Fraction(23, 72)
    # past 2^18 bits b keeps p, and its orbit walk stops at once
    started = time.perf_counter()
    with pytest.raises(DomainError, match="mod an integer of 262201 bits"):
        density_exact(2, Fraction(1, 2**262200))
    assert time.perf_counter() - started < 1.0


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


@pytest.mark.parametrize("x_min, x_max", [(2, 1), (1, 1), (Fraction(1, 3), Fraction(2, 6))])
def test_sample_interval_must_be_increasing(x_min, x_max):
    with pytest.raises(DomainError, match="need x_max > x_min > 0"):
        sample_density(3, x_min, x_max, 3)


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
    # a point costs about 0.08 ms, so n = 10^9 would run for a day; the
    # count is checked before any point is sampled
    def no_density(*args, **kwargs):
        raise AssertionError("a point was sampled")

    monkeypatch.setattr(self_similar, "density_numeric", no_density)
    with pytest.raises(DomainError, match="sample points"):
        sample_density(3, 1, 2, n)


def test_samples_past_the_float_range_are_an_error():
    # float(x) raised OverflowError for x_max = 10^400
    with pytest.raises(DomainError, match="floats"):
        sample_density(3, 10**400, 2 * 10**400, 3)
    assert sample_density(3, 2**1022, 2**1022 + 1, 2)[0][0] == 2.0**1022


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
