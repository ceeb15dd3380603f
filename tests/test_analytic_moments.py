"""Analytic continuation in the order parameter: limits, closed forms, poles."""

import bisect
import functools
import itertools
import math
import os
import random
import subprocess
import sys
import threading
from fractions import Fraction
from functools import partial

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfmoments import (
    DomainError,
    LfmomentsError,
    NoConvergence,
    PoleError,
    SymmetryClass,
    barnes_g,
    half_moment_unitary,
    log_moment_asymptotic,
    log_power,
    moment_by_limit,
    moment_closed_form,
    moment_constant,
    moment_factored,
    moment_ratio_closed_form,
    pole_order,
)
from lfmoments import analytic_moments
from lfmoments.analytic_moments import _SUM_KINDS, log_sum_asymptotics
from lfmoments.precision import (
    GUARD_BITS,
    MAX_PRECISION_BITS,
    MIN_PRECISION_BITS,
    to_fraction,
    to_mpf,
    working_precision,
)

U, O, SP = SymmetryClass.U, SymmetryClass.O, SymmetryClass.Sp


def rel_gap(got, expect) -> float:
    with mp.workprec(300):
        return float(abs(mp.mpf(got) - mp.mpf(expect)) / abs(mp.mpf(expect)))


# ---------------------------------------------------------------- constants


def _zeta_prime_minus1(bits: int) -> mp.mpf:
    with working_precision(bits):
        return analytic_moments._constants(mp.mp.prec)[2]


def test_glaisher_identity_ties_the_bundle_together():
    # log A = 1/12 - zeta'(-1) must equal (gamma + log 2pi)/12 - zeta'(2)/(2 pi^2),
    # with gamma, log 2pi and zeta'(2) from mpmath
    zpm1 = _zeta_prime_minus1(256)
    with mp.workprec(256):
        left = mp.mpf(1) / 12 - zpm1
        right = (mp.euler + mp.log(2 * mp.pi)) / 12 - mp.zeta(
            2, derivative=1
        ) / (2 * mp.pi**2)
        assert abs(left - right) < mp.mpf(2) ** -200


@pytest.mark.parametrize("bits", [128, 256, 1024])
def test_zeta_prime_minus1_matches_glaisher(bits):
    # zeta'(-1) comes from the superfactorial G(n + 1) and the log-G series;
    # mpmath's Glaisher constant gives 1/12 - log A
    got = _zeta_prime_minus1(bits)
    with mp.workprec(bits + 64):
        want = mp.mpf(1) / 12 - mp.log(mp.glaisher)
        assert abs(got - want) < abs(want) * mp.mpf(2) ** -(bits + 16)


# ----------------------------------------------------------------- barnes G


def test_barnes_small_values():
    for z, want in ((1, 1), (2, 1), (3, 1), (4, 2), (5, 12)):
        assert rel_gap(barnes_g(z).value, want) < 1e-70


def test_barnes_against_reference_implementation():
    with mp.workdps(90):
        for z in ("0.25", "0.8", "1.3", "2.75", "5.5", "10.2", "33.7", "0.5"):
            ours = barnes_g(Fraction(z))
            want = mp.barnesg(mp.mpf(z))
            assert rel_gap(ours.value, want) < 1e-60, z


@given(st.floats(min_value=0.05, max_value=10, allow_nan=False))
@settings(max_examples=80, deadline=None)
def test_barnes_recursion(z):
    with mp.workprec(256):
        zv = mp.mpf(z)
        lhs = barnes_g(zv + 1).value
        rhs = mp.gamma(zv) * barnes_g(zv).value
        assert abs(lhs - rhs) <= abs(rhs) * mp.mpf(2) ** -180


def _mpf_log_barnes_g_large(z: mp.mpf, zpm1: mp.mpf) -> mp.mpf:
    """log G(z) by the asymptotic series in mpf arithmetic, one mpmath
    Bernoulli number and one division per term: the reference for the
    fixed-point log-G series of analytic_moments._log_g_gamma."""
    y = z - 1
    log_y = mp.log(y)
    total = (
        zpm1
        + y / 2 * mp.log(2 * mp.pi)
        + (y * y / 2 - mp.mpf(1) / 12) * log_y
        - 3 * y * y / 4
    )
    y2 = y * y
    power = y2
    tol = mp.mpf(2) ** (-(mp.mp.prec + 8))
    scale = max(abs(total), mp.mpf(1))
    prev_size = mp.inf
    for k in itertools.count(1):
        term = mp.bernoulli(2 * k + 2) / (4 * k * (k + 1) * power)
        size = abs(term)
        if size > prev_size:
            break
        total += term
        if size < tol * scale:
            break
        prev_size = size
        power *= y2
    return total


def _mpf_log_gamma_large(z: mp.mpf) -> mp.mpf:
    """log Gamma(z) by Stirling's series in mpf arithmetic with mpmath's
    Bernoulli numbers: the reference for the fixed-point log-Gamma series of
    analytic_moments._log_g_gamma."""
    y = z - 1
    total = (y + mp.mpf(1) / 2) * mp.log(y) - y + mp.log(2 * mp.pi) / 2
    y2 = y * y
    power = y
    tol = mp.mpf(2) ** (-(mp.mp.prec + 8))
    scale = max(abs(total), mp.mpf(1))
    prev_size = mp.inf
    for k in itertools.count(1):
        term = mp.bernoulli(2 * k) / (2 * k * (2 * k - 1) * power)
        size = abs(term)
        if size > prev_size:
            break
        total += term
        if size < tol * scale:
            break
        prev_size = size
        power *= y2
    return total


def _per_step_barnes_g(z: mp.mpf, zpm1: mp.mpf) -> mp.mpf:
    # G(z) = G(z + n) / prod_{i<n} Gamma(z + i) with one Gamma call per step
    # and the mpf series, at the library's shift n
    threshold = max(mp.mp.prec / 8 + 17, 33)
    n = int(mp.ceil(threshold - z))
    large = mp.exp(_mpf_log_barnes_g_large(z + n, zpm1))
    return large / mp.fprod(mp.gamma(z + i) for i in range(n))


def _off_zeros(rng: random.Random) -> float:
    # z in [-3.5, 8] at least 1e-2 from the zeros 0, -1, -2, -3
    while True:
        z = rng.uniform(-3.5, 8)
        if z > 0.01 or abs(z - round(z)) >= 0.01:
            return z


@pytest.mark.parametrize("bits, cases", [(128, 20), (256, 20), (1024, 6)])
def test_barnes_shift_matches_per_step_gamma_product(bits, cases):
    rng = random.Random(bits)
    zpm1 = _zeta_prime_minus1(bits)
    with working_precision(bits):
        for _ in range(cases):
            z = mp.mpf(_off_zeros(rng))
            want = _per_step_barnes_g(z, zpm1)
            got, gamma = analytic_moments._barnes_g_raw(z, zpm1)
            assert abs(got - want) < abs(want) * mp.mpf(2) ** -(bits + 16), z
            assert abs(gamma - mp.gamma(z)) < abs(gamma) * mp.mpf(2) ** -(bits + 16), z


def test_barnes_shift_matches_per_step_gamma_product_at_4096_bits():
    # zeta'(-1) enters both routes as the same factor of G(z + n), so the
    # 1024-bit value serves (a cold 4096-bit one extends the Bernoulli
    # table to ~860 entries, about 0.8 s); half-integer z keeps the
    # per-step Gamma calls cheap
    zpm1 = _zeta_prime_minus1(1024)
    with working_precision(4096):
        for z in (mp.mpf(-5) / 2, mp.mpf(7) / 2):
            want = _per_step_barnes_g(z, zpm1)
            got, gamma = analytic_moments._barnes_g_raw(z, zpm1)
            assert abs(got - want) < abs(want) * mp.mpf(2) ** -(4096 + 16), z
            assert abs(gamma - mp.gamma(z)) < abs(gamma) * mp.mpf(2) ** -(4096 + 16), z


def test_barnes_g_reaches_the_floor_above_2300_bits():
    # G(5) = 1! 2! 3! = 12.  At 2304 bits the shifted argument needs ~420
    # terms of the log-G series
    g = barnes_g(5, precision_bits=2304)
    with mp.workprec(2400):
        assert abs(g.value - 12) < 12 * mp.mpf(2) ** (8 - 2304)


def _superfactorial(n: int) -> int:
    # G(n + 1) = 0! 1! ... (n - 1)!
    return math.prod(math.factorial(j) for j in range(n))


@pytest.mark.parametrize("bits", [128, 256, 1024])
def test_barnes_g_is_the_superfactorial_at_integers(bits):
    with working_precision(bits):
        threshold = int(analytic_moments._series_threshold())
    # the shifted route below the series threshold, the direct one above
    for n in (1, 4, 11, threshold - 3, threshold - 1, threshold + 1, threshold + 40):
        g = barnes_g(n + 1, precision_bits=bits)
        want = _superfactorial(n)
        with mp.workprec(bits + 64):
            assert abs(g.value - want) <= want * mp.mpf(2) ** -(bits + 8), n
            assert abs(g.value - want) <= g.err_estimate, n


def test_barnes_g_matches_mpmath_at_1024_bits():
    bits = 1024
    for z in ("-3.37", "-0.5", "0.25", "2.37", "7.75", "150.5"):
        g = barnes_g(Fraction(z), precision_bits=bits)
        with mp.workprec(bits + 64):
            want = mp.barnesg(mp.mpf(Fraction(z).numerator) / Fraction(z).denominator)
            assert abs(g.value - want) <= abs(want) * mp.mpf(2) ** (8 - bits), z


def test_bernoulli_table_matches_mpmath_up_to_b400():
    table = analytic_moments._bernoulli_table(200)
    assert table[:200] == [Fraction(*mp.bernfrac(2 * m)) for m in range(1, 201)]
    # the fixed-point series coefficients are floor(2^W B_{2k+2} / (4k(k+1)))
    width = 300
    coeffs = analytic_moments._coefficients(analytic_moments._LOG_G_COEFFS, width, 50)
    for k in range(1, 51):
        exact = table[k] / (4 * k * (k + 1)) * 2**width
        assert coeffs[k - 1] == math.floor(exact), k


def test_log_g_tables_grow_safely_from_threads(monkeypatch):
    # six threads extend cold tables, log-G and log-Gamma in turn, to
    # different lengths at once; a lost or doubled append would misplace
    # every later coefficient
    monkeypatch.setattr(analytic_moments, "_BERNOULLI", [Fraction(1, 6)])
    monkeypatch.setattr(analytic_moments, "_TANGENT_COLUMN", [1])
    monkeypatch.setattr(analytic_moments, "_LOG_G_COEFFS", {})
    monkeypatch.setattr(analytic_moments, "_LOG_GAMMA_COEFFS", {})
    caches = (analytic_moments._LOG_G_COEFFS, analytic_moments._LOG_GAMMA_COEFFS)
    width, counts = 200, [20 + 15 * i for i in range(6)]
    threads = [
        threading.Thread(target=analytic_moments._coefficients, args=(caches[i % 2], width, c))
        for i, c in enumerate(counts)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    table = analytic_moments._BERNOULLI
    assert table == [Fraction(*mp.bernfrac(2 * m)) for m in range(1, len(table) + 1)]
    log_g, log_gamma = (cache[width] for cache in caches)
    assert (len(log_g), len(log_gamma)) == (max(counts[::2]), max(counts[1::2]))
    for k, c in enumerate(log_g, start=1):
        assert c == math.floor(table[k] / (4 * k * (k + 1)) * 2**width), k
    for k, c in enumerate(log_gamma, start=1):
        assert c == math.floor(table[k - 1] / (2 * k * (2 * k - 1)) * 2**width), k


@pytest.mark.parametrize("bits", [128, 256, 1024, 2304])
def test_fixed_point_log_g_series_matches_the_mpf_series(bits):
    # at and above the series threshold both stop within 2^-(prec + 8) of
    # the sum, prec = bits + 48, and round the total at prec bits; 2^700
    # leaves no term above 2^-W.  y = z - 1 is exact: 7/3 past the threshold
    # keeps the Horner's exact steps, 2^700 - 1 takes its u steps
    with working_precision(bits):
        threshold = Fraction(analytic_moments._series_threshold())
        for z in (threshold, threshold + Fraction(7, 3), 10**6, 2**700):
            y = Fraction(z) - 1
            got_g, got_gamma = analytic_moments._log_g_gamma(y.numerator, y.denominator, 0, True)
            want_g = _mpf_log_barnes_g_large(to_mpf(z), 0)
            want_gamma = _mpf_log_gamma_large(to_mpf(z))
            assert abs(got_g - want_g) <= abs(want_g) * mp.mpf(2) ** -(bits + 44), z
            assert abs(got_gamma - want_gamma) <= abs(want_gamma) * mp.mpf(2) ** -(bits + 44), z


@pytest.mark.parametrize("odd", [0, 1], ids=["log_g", "log_gamma"])
def test_log_g_series_stops_at_its_cutoff_while_the_terms_still_fall(odd):
    # each series of _log_g_gamma stops at the first k whose term 2^size,
    # with size = bitlen(floor(2^W c_k)) - (2k - odd) log2 y, is under
    # 2^cutoff (odd = 0: log G, c_k = B_{2k+2} / (4k(k+1)); odd = 1: log
    # Gamma, c_k = B_2k / (2k(2k-1))), and it has no stop for terms that
    # grow (past k ~ pi y).  Replayed at z = the
    # series threshold for every working precision, bits + GUARD_BITS plus
    # any degree guard: the sum stops while the next term still falls.  The
    # cutoff here is W - prec - 8, without the total's magnitude, which only
    # stops the sum sooner.  bitlen(floor(2^W c_k)) = W + 1 + floor(log2 |c_k|)
    # with |B_2n| = 2 (2n)! zeta(2n) / (2 pi)^2n, checked on the table below
    def floor_log2(k):
        n = k + 1 - odd
        zeta = math.fsum(m ** (-2.0 * n) for m in range(1, 100))
        log_b = (math.log(2) + math.lgamma(2 * n + 1) + math.log(zeta)
                 - 2 * n * math.log(2 * math.pi))
        divisor = 2 * k * (2 * k - 1) if odd else 4 * k * (k + 1)
        return math.floor(log_b / math.log(2) - math.log2(divisor))

    logs = [floor_log2(k) for k in range(1, 3600)]
    width = 300
    cache = analytic_moments._LOG_GAMMA_COEFFS if odd else analytic_moments._LOG_G_COEFFS
    coeffs = analytic_moments._coefficients(cache, width, 200)
    assert [c.bit_length() - width - 1 for c in coeffs[:200]] == logs[:200]
    # term k + 2 is larger than term k + 1 exactly when steps[k] > 2 log2 y
    steps = [b - a for a, b in zip(logs, logs[1:])]
    peaks = list(itertools.accumulate(steps, max))
    lowest = MIN_PRECISION_BITS + GUARD_BITS
    highest = MAX_PRECISION_BITS + GUARD_BITS + analytic_moments._MAX_DEGREE_GUARD
    for prec in range(lowest, highest + 1):
        log2_y = math.log2(max(prec / 8 + 17, 33) - 1)
        first_rise = bisect.bisect_right(peaks, 2 * log2_y) + 2
        assert first_rise <= len(logs), prec
        # the terms fall up to first_rise - 1, so the sum must stop by
        # first_rise - 2
        k = first_rise - 2
        assert logs[k - 1] + 1 - (2 * k - odd) * log2_y < -prec - 8, prec


def test_barnes_g_and_constants_skip_mpmath_bernoulli_and_glaisher(monkeypatch):
    calls = []
    bernoulli, glaisher_value = mp.bernoulli, mp.glaisher

    def counting_bernoulli(n):
        calls.append("bernoulli")
        return bernoulli(n)

    class CountingGlaisher:
        # mpmath reads a constant through its _mpf_ attribute
        def __getattr__(self, name):
            calls.append("glaisher")
            return getattr(glaisher_value, name)

    glaisher = CountingGlaisher()
    monkeypatch.setattr(mp, "bernoulli", counting_bernoulli)
    monkeypatch.setattr(mp, "glaisher", glaisher)
    # cold constants and a cold Bernoulli table
    monkeypatch.setattr(analytic_moments, "_BERNOULLI", [Fraction(1, 6)])
    monkeypatch.setattr(analytic_moments, "_TANGENT_COLUMN", [1])
    monkeypatch.setattr(analytic_moments, "_LOG_G_COEFFS", {})
    monkeypatch.setattr(
        analytic_moments,
        "_constants",
        functools.lru_cache(maxsize=None)(analytic_moments._constants.__wrapped__),
    )
    for bits in (128, 1024):
        _zeta_prime_minus1(bits)
        for z in (Fraction(-7, 3), Fraction(1, 3), 5, 200):
            barnes_g(z, precision_bits=bits)
    assert calls == []
    assert len(analytic_moments._BERNOULLI) > 100
    # the counters do see a use
    mp.bernoulli(4)
    with mp.workprec(64):
        mp.log(glaisher)
    assert calls[0] == "bernoulli" and "glaisher" in calls


@pytest.mark.parametrize("bits, shifted_calls", [(256, 1), (1024, 0)])
def test_barnes_g_makes_one_gamma_call(monkeypatch, bits, shifted_calls):
    # a shifted z needs Gamma(z): one mp.gamma call below 1000 bits, where
    # mpmath's Gamma tables are shared, and none from there up, where the
    # log-G pass gives it; an unshifted z needs none
    _zeta_prime_minus1(bits)
    calls = []
    gamma = mp.gamma

    def counting_gamma(x):
        calls.append(x)
        return gamma(x)

    monkeypatch.setattr(mp, "gamma", counting_gamma)
    for z in (Fraction(-7, 3), Fraction(1, 3), Fraction(31, 4)):
        calls.clear()
        barnes_g(z, precision_bits=bits)
        assert len(calls) == shifted_calls, z
    calls.clear()
    barnes_g(200, precision_bits=bits)
    assert calls == []


def test_barnes_pole_guard():
    for z in (0, -1, -3):
        with pytest.raises(PoleError):
            barnes_g(z)


# a degree 10^9 below zero
FAR_SHIFTS = {
    "barnes_g": lambda: barnes_g(-(10**9) - Fraction(1, 3)),
    **{
        f"closed_{sym.value}": partial(moment_closed_form, sym, -(10**9) - Fraction(1, 3))
        for sym in SymmetryClass
    },
}


@pytest.mark.parametrize("route", sorted(FAR_SHIFTS))
def test_barnes_shift_beyond_the_cost_bound_is_an_error(monkeypatch, route):
    # the shift costs time linear in its length (barnes_g(-100000.33) took
    # 0.3 s); past _LADDER_MAX_N steps it is refused before the kernel starts.
    # The constants are warmed at barnes_g's precision and at the closed
    # forms', which add bits at this degree
    with working_precision(256):
        for guard in (0, analytic_moments._degree_guard(mp.mpf(-(10**9)))):
            analytic_moments._constants(mp.mp.prec + guard)

    def no_kernel(*args):
        raise AssertionError("shift kernel started")

    monkeypatch.setattr(analytic_moments, "_RunningProduct", no_kernel)
    with pytest.raises(DomainError, match="cost bound"):
        FAR_SHIFTS[route]()


def test_barnes_shift_bound_admits_exactly_ladder_max_n_steps(monkeypatch):
    z = Fraction(-119, 2)
    with working_precision(256):
        n = int(mp.ceil(analytic_moments._series_threshold() - to_mpf(z)))
        want = _per_step_barnes_g(to_mpf(z), analytic_moments._constants(mp.mp.prec)[2])
    monkeypatch.setattr(analytic_moments, "_LADDER_MAX_N", n)
    got = barnes_g(z, 256)
    assert abs(got.value - want) <= got.err_estimate
    monkeypatch.setattr(analytic_moments, "_LADDER_MAX_N", n - 1)
    with pytest.raises(DomainError, match="cost bound"):
        barnes_g(z, 256)


@pytest.mark.parametrize("bits", [64, 128])
def test_barnes_g_keeps_its_floor_at_large_z(bits):
    # log G(z) has size z^2 log(z) / 2, so G runs at the closed forms' degree
    # guard; without it barnes_g(10^8 + 1/3, 64) was off by 2.3 times this
    # floor and barnes_g(10^12 + 1/3, 64) by 1.5 * 10^8 times
    for z in (10**4 + Fraction(1, 3), 10**8 + Fraction(1, 3), 10**12 + Fraction(1, 3)):
        got = barnes_g(z, bits).value
        ref = barnes_g(z, 256).value
        with mp.workprec(256):
            assert abs(got - ref) <= abs(got) * mp.mpf(2) ** (8 - bits), z
    for z in (10**43, -(10**43) - Fraction(1, 3)):
        with pytest.raises(DomainError, match="cost bound"):
            barnes_g(z, bits)


def test_barnes_shift_runs_on_the_exact_ratio_where_it_is_narrow(monkeypatch):
    # an exact argument's small ints, not the rounded mpf's 2^prec-wide
    # denominator; but the rounding where the exact one is wider still
    cases = [
        (partial(moment_closed_form, U, Fraction(1, 3), 1024), (11, 6)),  # z = 5/6
        (partial(barnes_g, Fraction(-7, 3), 1024), (-4, 3)),
        (partial(barnes_g, Fraction(10**400 + 1, 3 * 10**400), 256), None),
    ]
    for call, _ in cases:
        call()  # warms the constants, whose superfactorial also runs the kernel
    ratios = []
    kernel = analytic_moments._RunningProduct

    def recording_kernel(first, ratio):
        ratios.append(ratio(1))
        return kernel(first, ratio)

    monkeypatch.setattr(analytic_moments, "_RunningProduct", recording_kernel)
    for call, want in cases:
        ratios.clear()
        call()
        if want:
            assert ratios == [want]
        else:
            (num, den), = ratios
            assert den.bit_length() < 400 < (3 * 10**400).bit_length()


# ------------------------------------------------------------- closed forms


@pytest.mark.parametrize("sym", list(SymmetryClass))
def test_closed_form_reproduces_integers(sym):
    for k in range(1, 7):
        got = moment_closed_form(sym, k)
        assert rel_gap(got.value, moment_constant(sym, k)) < 1e-50, (sym, k)


# The class formulas the library no longer carries, kept as oracles with
# mpmath's own G and zeta derivatives: U with two G values, O, and Sp with
# its own log-prefactor over G(lam + 3/2).  The library builds Sp from O by
# the shift and folds U's second G value with G(z + 1) = Gamma(z) G(z).


def _oracle_ratio(sym, lam) -> mp.mpf:
    lam = mp.mpf(lam.numerator) / lam.denominator
    ln2 = mp.log(2)
    zp0 = mp.zeta(0, derivative=1)
    zpm1 = mp.zeta(-1, derivative=1)
    half = mp.mpf(1) / 2
    if sym is U:
        log_pref = ln2 / 12 + 3 * zpm1 - 2 * lam * zp0 - 2 * lam**2 * ln2
        return mp.exp(log_pref) / (mp.barnesg(lam + half) * mp.barnesg(lam + 3 * half))
    if sym is O:
        log_pref = (
            -mp.mpf(17) / 24 * ln2 + mp.mpf(3) / 2 * zpm1 + half * zp0
            - lam * zp0 + lam * ln2 - lam**2 / 2 * ln2
        )
        return mp.exp(log_pref) / mp.barnesg(lam + half)
    log_pref = (
        -mp.mpf(5) / 24 * ln2 + mp.mpf(3) / 2 * zpm1 - half * zp0
        - lam * zp0 - lam * ln2 - lam**2 / 2 * ln2
    )
    return mp.exp(log_pref) / mp.barnesg(lam + 3 * half)


@pytest.mark.parametrize("sym", list(SymmetryClass))
def test_ratio_matches_class_formula_oracle(sym):
    with mp.workprec(256):
        for lam in (Fraction(-337, 100), Fraction(-7, 10), Fraction(-1, 4), Fraction(3, 10),
                    Fraction(22, 10), Fraction(59, 10)):
            got = moment_ratio_closed_form(sym, lam).value
            want = _oracle_ratio(sym, lam)
            assert abs(got - want) < abs(want) * 1e-60, (sym, lam)


def test_cross_type_product_identity():
    # ratio_O(lam) * ratio_Sp(lam) = 2^(lam^2 - 1) * ratio_U(lam), the library's
    # O and Sp against the two-G unitary oracle
    with mp.workprec(256):
        for lam in (Fraction(3, 10), Fraction(9, 10), Fraction(14, 10), Fraction(22, 10)):
            left = moment_ratio_closed_form(O, lam).value * moment_ratio_closed_form(
                SP, lam
            ).value
            right = mp.mpf(2) ** (mp.mpf(lam.numerator) ** 2 / lam.denominator**2 - 1)
            right *= _oracle_ratio(U, lam)
            assert abs(left - right) < abs(right) * 1e-40, lam


def test_shift_identity_off_integers():
    # g_O(lam + 1) = 2^lam g_Sp(lam), the library's O against the Sp oracle
    with mp.workprec(256):
        for lam in (Fraction(1, 2), Fraction(3, 2), Fraction(5, 2)):
            left = moment_closed_form(O, lam + 1).value
            b = lam * (lam + 1) / 2
            sp = mp.gamma(1 + mp.mpf(b.numerator) / b.denominator) * _oracle_ratio(SP, lam)
            right = mp.mpf(2) ** mp.mpf(float(lam)) * sp
            assert abs(left - right) < abs(right) * 1e-40, lam


@pytest.mark.parametrize("sym", list(SymmetryClass))
def test_closed_form_evaluates_barnes_g_once(sym, monkeypatch):
    calls = []
    barnes_g_raw = analytic_moments._barnes_g_raw

    def counting_barnes_g_raw(z, zpm1):
        calls.append(z)
        return barnes_g_raw(z, zpm1)

    monkeypatch.setattr(analytic_moments, "_barnes_g_raw", counting_barnes_g_raw)
    for lam in (Fraction(-7, 3), Fraction(-1, 4), Fraction(1, 3), 2, Fraction(31, 4)):
        calls.clear()
        moment_closed_form(sym, lam)
        assert len(calls) == 1, (sym, lam)


def _off_poles(sym, rng: random.Random) -> Fraction:
    # lambda in [-3.5, 6] at least 1e-2 from the poles 1/2 - k
    first = 2 if sym is SP else 1
    while True:
        lam = Fraction(rng.randrange(-3500, 6001), 1000)
        k = round(Fraction(1, 2) - lam)
        if k < first or abs(lam - (Fraction(1, 2) - k)) >= Fraction(1, 100):
            return lam


@pytest.mark.parametrize("bits, cases", [(128, 8), (256, 8), (1024, 1)])
@pytest.mark.parametrize("sym", list(SymmetryClass))
def test_closed_form_err_estimate_covers_twice_the_precision(sym, bits, cases):
    rng = random.Random(bits)
    for _ in range(cases):
        lam = _off_poles(sym, rng)
        got = moment_closed_form(sym, lam, precision_bits=bits)
        want = moment_closed_form(sym, lam, precision_bits=2 * bits)
        with mp.workprec(2 * bits):
            assert abs(got.value - want.value) <= got.err_estimate, (sym, lam)


def _series_gamma_grid(bits: int):
    # seeded degrees in [-3.5, 6] off the poles, a large and a long-denominator
    # degree, a float and an mpf as wide as the working precision
    rng = random.Random(f"series-gamma/{bits}")
    with mp.workprec(bits + GUARD_BITS):
        wide = -mp.mpf(7) / 3
    for sym in SymmetryClass:
        lams = [_off_poles(sym, rng) for _ in range(3)]
        yield from ((sym, lam) for lam in lams)
        yield from ((sym, lam) for lam in (
            Fraction(10**6 + 1, 3), Fraction(10**40 + 7, 3 * 10**40), 2.3, wide))


@pytest.mark.parametrize("bits", [1024, 2048, 4096])
def test_series_gamma_matches_the_mp_gamma_route(bits, monkeypatch):
    # from 1000 bits on every Gamma of the closed forms (in G's shift, U's
    # Gamma(lambda + 1/2) and Gamma(1 + B)) comes from _log_g_gamma; the
    # oracle is the same route with mp.gamma, at 64 bits more.  The bound is
    # 1e-9 of the err_estimate floor |value| 2^(8 - bits), which a float
    # cannot hold at these widths.  Building mpmath's Gamma table for the
    # 4096-bit oracle takes about 6 s, once per process
    cases = list(_series_gamma_grid(bits))
    got = [moment_closed_form(sym, lam, bits) for sym, lam in cases]
    monkeypatch.setattr(analytic_moments, "_GAMMA_TABLE_BITS", math.inf)
    for (sym, lam), value in zip(cases, got):
        want = moment_closed_form(sym, lam, bits + 64).value
        with mp.workprec(bits + 128):
            floor = abs(want) * mp.mpf(2) ** (8 - bits)
            assert abs(value.value - want) <= 1e-9 * floor, (sym, lam)


@pytest.mark.parametrize("bits", [64, 256, 1024])
@pytest.mark.parametrize("sym", list(SymmetryClass))
@pytest.mark.parametrize("degree", [10**8, 10**9, 10**12], ids=["1e8+1/3", "1e9+1/3", "1e12+1/3"])
def test_closed_forms_keep_their_floor_at_huge_degree(degree, sym, bits):
    # exp(log_pref), log G and Gamma(1 + B) have size about lam^2 log lam:
    # without bits added for it the gap to a recomputation passed the floor
    # 2^(8 - bits) by 2.3 times at 10^8 and 6 * 10^8 times at 10^12
    lam = degree + Fraction(1, 3)
    for closed_form in (moment_ratio_closed_form, moment_closed_form):
        got = closed_form(sym, lam, bits).value
        ref = closed_form(sym, lam, 2 * bits + 64).value
        with mp.workprec(2 * bits + 64):
            assert abs(got - ref) <= abs(got) * mp.mpf(2) ** (8 - bits), closed_form


def test_closed_form_degree_guard_is_capped():
    # the guard reaches its cap at 10^38 and answers up to 2.2 * 10^42; past
    # that the closed forms are refused, since U at 10^2000 would run at
    # about 13000 more bits (17 s) and capped it would keep no correct bit
    assert analytic_moments._degree_guard(mp.mpf(10**38)) == analytic_moments._MAX_DEGREE_GUARD
    for closed_form in (moment_ratio_closed_form, moment_closed_form):
        for sym in SymmetryClass:
            got = closed_form(sym, 2 * 10**42, 64).value
            ref = closed_form(sym, 2 * 10**42, 192).value
            with mp.workprec(192):
                assert abs(got - ref) <= abs(got) * mp.mpf(2) ** (8 - 64), (closed_form, sym)
            for degree in (3 * 10**42, 10**2000, -(10**2000) - Fraction(1, 3)):
                with pytest.raises(DomainError, match="cost bound"):
                    closed_form(sym, degree)


def test_err_estimate_past_the_float_range_is_infinite():
    # g_U(200) is about 1.4 * 10^76647, so its floor |v| 2^(8 - bits) has
    # no float: approx reports inf (the value itself is still exact there)
    got = moment_closed_form(U, 200)
    assert got.err_estimate == math.inf
    with mp.workprec(got.precision_bits + 64):
        want = moment_constant(U, 200)
        assert abs(got.value - want) <= abs(want) * mp.mpf(2) ** (8 - got.precision_bits)


def test_closed_form_pole_guards():
    with pytest.raises(PoleError):
        moment_closed_form(U, Fraction(-1, 2))
    with pytest.raises(PoleError):
        moment_closed_form(O, Fraction(-1, 2))
    with pytest.raises(PoleError):
        moment_closed_form(SP, Fraction(-3, 2))


def test_symplectic_regular_at_minus_half():
    # Sp has pole order k-1, so the k=1 point is regular
    got = moment_closed_form(SP, Fraction(-1, 2))
    assert abs(float(got) - 0.9543274015) < 1e-9


def test_ratio_never_vanishes_on_grid():
    lam = Fraction(-2, 5)
    while lam <= 4:
        for sym in SymmetryClass:
            assert abs(moment_ratio_closed_form(sym, lam).value) > 1e-30
        lam += Fraction(1, 10)


def test_half_moment_digits_and_range():
    h = half_moment_unitary()
    assert h.digits(25).startswith("1.0362329154")
    assert 1 <= float(h) <= 16 / 15
    # oracles: the U closed form at 1/2, where G(1) = G(2) = 1, is
    # Gamma(5/4) 2^(1/12) pi^(1/2) exp(3 zeta'(-1)); through the Glaisher
    # relation it is Gamma(5/4) pi^(1/4) 2^(-1/6) exp((zeta'(2)/zeta(2) - gamma + 1)/4);
    # zeta'(-1) and zeta'(2) from mpmath
    with mp.workprec(300):
        gamma_54 = mp.gamma(mp.mpf(5) / 4)
        wants = (
            gamma_54
            * mp.mpf(2) ** (mp.mpf(1) / 12)
            * mp.sqrt(mp.pi)
            * mp.exp(3 * mp.zeta(-1, derivative=1)),
            gamma_54
            * mp.pi ** (mp.mpf(1) / 4)
            * mp.mpf(2) ** (-mp.mpf(1) / 6)
            * mp.exp((mp.zeta(2, derivative=1) / mp.zeta(2) - mp.euler + 1) / 4),
        )
        for want in wants:
            assert abs(h.value - want) <= h.err_estimate
            assert rel_gap(h.value, want) < 1e-70


# -------------------------------------------------------------- limit route


@pytest.mark.parametrize("sym", list(SymmetryClass))
def test_limit_matches_closed_form(sym):
    for lam in (Fraction(1, 2), 1, Fraction(17, 10)):
        got = moment_by_limit(sym, lam, target_digits=10)
        want = moment_closed_form(sym, lam)
        assert rel_gap(got.value, want.value) < 1e-8, (sym, lam)


def test_limit_err_estimate_covers_gap():
    got = moment_by_limit(O, Fraction(5, 2), target_digits=9)
    want = moment_closed_form(O, Fraction(5, 2))
    gap = abs(float(got) - float(want))
    assert gap <= max(got.err_estimate * 10, 1e-9)


@pytest.mark.parametrize("sym", list(SymmetryClass))
def test_limit_reads_a_negative_float_degree_with_its_sign(sym):
    # -0.25 used to run the ladder on +1/4 while the rest used -1/4, so the
    # extrapolants never settled; the float is the exact binary -1/4
    got = moment_by_limit(sym, -0.25, 10, 128)
    assert got.value == moment_by_limit(sym, Fraction(-1, 4), 10, 128).value
    assert abs(got.value - moment_closed_form(sym, Fraction(-1, 4), 128).value) <= got.err_estimate


def test_limit_domain_and_pole_guards():
    with pytest.raises(DomainError):
        moment_by_limit(U, -0.6)
    with pytest.raises(PoleError):
        moment_by_limit(U, Fraction(-1, 2))


# ------------------------------------------- limit ladder: the mpf oracle


class _MpfRunningProduct:
    """prod_{i=1..m} term_i in mpf arithmetic, one rounded step at a time:
    the reference for the integer kernel analytic_moments._RunningProduct."""

    def __init__(self, first_term, ratio):
        self._ratio = ratio
        self._m = 0
        self._next_term = first_term
        self._value = mp.mpf(1)

    def advance(self, m_target):
        while self._m < m_target:
            self._value *= self._next_term
            self._m += 1
            self._next_term = self._next_term * self._ratio(self._m)
        assert self._m == m_target
        return self._value


def _mpf_limit_state(sym, lam, exact):
    """f(N) of analytic_moments._limit_state with mpf ratios in the rounded
    lam; ``exact`` is ignored."""
    b_exp = log_power(sym, lam)
    if sym is U:
        prod = _MpfRunningProduct(
            mp.gamma(1 + 2 * lam) / mp.gamma(1 + lam) ** 2,
            lambda j: j * (j + 2 * lam) / (j + lam) ** 2,
        )
        return lambda n: mp.power(n, -b_exp) * prod.advance(n)
    h = mp.mpf(-0.5) if sym is O else mp.mpf(0.5)
    shift = -1 if sym is O else 1
    q = _MpfRunningProduct(1 / mp.gamma(1 + lam), lambda m: m / (m + lam))
    r = _MpfRunningProduct(
        mp.gamma(1 + h + lam) / mp.gamma(1 + h), lambda j: (j + h + lam) / (j + h)
    )

    def f(n):
        q_low = q.advance(n + shift)
        value = (
            mp.power(n, -b_exp)
            * mp.power(2, 2 * n * lam)
            * (q.advance(2 * n + shift) / q_low)
            * r.advance(n)
        )
        return value / 2 if sym is O else value

    return f


def _limit_or_error(sym, lam, digits, bits):
    try:
        return moment_by_limit(sym, lam, digits, bits)
    except LfmomentsError as exc:
        return type(exc)


def _with_1024_bits(x):
    with mp.workprec(1024):
        return mp.mpf(x.numerator) / x.denominator


# lam near -1/2, at -1/2 (a pole for U and O), moderate and large, a float,
# an mpf of 1024 bits; (digits, bits) pairs of the benchmark's range
LADDER_GRID = [
    (Fraction(-4999, 10000), 8, 128),
    (Fraction(-1, 2), 8, 128),
    (Fraction(1, 3), 13, 256),
    (Fraction(7, 4), 16, 1024),
    (6, 8, 128),
    (0.3, 12, 256),
    (_with_1024_bits(Fraction(7, 3)), 8, 256),
]


def _at_full_width(limit_state, prec):
    """limit_state with its Gamma seeds and every f(N) run at prec bits."""

    def state(sym, lam, exact):
        with mp.workprec(prec):
            f = limit_state(sym, lam, exact)

        def f_at_prec(n):
            with mp.workprec(prec):
                return f(n)

        return f_at_prec

    return state


# bits the ladder's value may lose against its precision, as _ladder_bits
# counts them: Richardson's levels amplify by under 2^4, the exponent of
# 4^(N lam) loses log2(2N) <= 21 bits past the mag(lam) that _ladder_bits
# adds, and the steps of f(N) about 3; the most measured on LADDER_GRID is
# 20.9 (U at -4999/10000, 8 digits, 128 bits)
_LADDER_LOSS_BITS = 28


@pytest.mark.parametrize("sym", list(SymmetryClass))
def test_integer_ladder_matches_mpf_oracle(sym, monkeypatch):
    got = [_limit_or_error(sym, *case) for case in LADDER_GRID]
    for case, g in zip(LADDER_GRID, got):
        lam, digits, bits = case
        # the oracle's f(N) at the caller's working precision, so that the
        # oracle is the more accurate side
        monkeypatch.setattr(
            analytic_moments, "_limit_state",
            _at_full_width(_mpf_limit_state, bits + GUARD_BITS),
        )
        w = _limit_or_error(sym, *case)
        if isinstance(w, type):
            assert g is w, case
            continue
        with mp.workprec(bits + GUARD_BITS):
            ladder_bits = analytic_moments._ladder_bits(digits, to_mpf(lam))
        # same ladder length and the same last Richardson gap; the values
        # agree to the ladder's precision, far inside err_estimate
        assert g.err_estimate == w.err_estimate, case
        loss = mp.mpf(2) ** (_LADDER_LOSS_BITS - ladder_bits)
        assert abs(g.value - w.value) <= abs(w.value) * loss, case
        assert abs(g.value - w.value) <= 1e-20 * g.err_estimate, case


def _width_grid(count=240, seed=39):
    """(sym, lam, digits, bits): lam from -0.4999 to 6, a tenth of them
    within 10^-3 of -1/2, digits from 1 to 30 (at most what bits carry)."""
    rng = random.Random(seed)
    cases = []
    for i in range(count):
        bits = rng.choice([64, 128, 256, 1024])
        digits = rng.randint(1, min(30, int(bits * math.log10(2))))
        if i % 10 == 0:
            lam = Fraction(-1, 2) + Fraction(1, rng.choice([10**3, 10**4, 10**5]))
        else:
            lam = Fraction(rng.randint(-4999, 60000), 10000)
        cases.append((list(SymmetryClass)[i % 3], lam, digits, bits))
    return cases


def test_ladder_at_its_width_matches_the_ladder_at_the_working_precision(monkeypatch):
    grid = _width_grid()
    got = [_limit_or_error(*case) for case in grid]
    monkeypatch.setattr(analytic_moments, "_ladder_bits", lambda digits, lam: mp.mp.prec)
    # the cost bound is charged at the ladder's width: the reference has none
    monkeypatch.setattr(analytic_moments, "_LADDER_WORK_NS", math.inf)
    for case, g in zip(grid, got):
        w = _limit_or_error(*case)
        if isinstance(w, type):
            assert g is w, case
            continue
        assert g.err_estimate == w.err_estimate, case
        assert abs(g.value - w.value) <= 1e-20 * g.err_estimate, case


_NO_GAMMA_TABLE = """
import math
from fractions import Fraction
from mpmath.libmp import gammazeta
from lfmoments import (NoConvergence, SymmetryClass as S, analytic_moments as am, barnes_g,
                       half_moment_unitary, moment_by_limit, moment_closed_form)

def check(route, call):
    try:
        call()
    except NoConvergence:
        pass
    print(route, max(gammazeta.gamma_taylor_cache, default=0))

# the ladder of 12 digits needs 160 bits
check("ladder-12-digits", lambda: moment_by_limit(S.O, Fraction(5, 2), 12, 4096))
for bits in (1024, 2048, 4096):
    check(f"closed-{bits}", lambda: moment_closed_form(S.U, Fraction(7, 3), bits))
    check(f"barnes-{bits}", lambda: barnes_g(Fraction(-7, 3), bits))
    check(f"half-{bits}", lambda: half_moment_unitary(bits))
# a ladder at its full width computes its Gamma seeds, then stops at N = 64
am._LADDER_MAX_N = 64
for bits in (1024, 2048, 4096):
    for sym in S:
        digits = int(bits * math.log10(2))
        check(f"ladder-{sym.value}-{bits}", lambda: moment_by_limit(sym, Fraction(7, 3), digits, bits))
"""


def test_limit_ladder_builds_no_gamma_table_at_the_working_precision():
    # mpmath keys its Gamma Taylor tables by the exact precision from 1000
    # bits on, and a 4096-bit table took 6.8 s to build; the closed forms,
    # Barnes G and the ladder's seeds take Gamma from the log-G pass there
    proc = subprocess.run([sys.executable, "-c", _NO_GAMMA_TABLE], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(analytic_moments.__file__))})
    assert proc.returncode == 0, proc.stderr
    lines = [line.split() for line in proc.stdout.splitlines()]
    assert len(lines) == 1 + 3 * 6
    for route, key in lines:
        assert int(key) < 1000, route


def _full_ladder_ns(sym, lam, digits, bits, n=1 << 20):
    with mp.workprec(bits + GUARD_BITS):
        with mp.workprec(analytic_moments._ladder_bits(digits, to_mpf(lam))):
            return analytic_moments._ladder_ns(sym, Fraction(lam), n)


# the edges of the cost bound at a ladder that runs to its last N: the
# charge of its last rung passes 3 s from these digits on
@pytest.mark.parametrize("sym, lam, digits, bits", [
    (O, 20, 33, 256), (SP, Fraction(1, 3), 34, 256), (U, 20, 283, 1024),
])
def test_limit_cost_bound_edges(sym, lam, digits, bits):
    limit = analytic_moments._LADDER_WORK_NS
    assert _full_ladder_ns(sym, lam, digits - 1, bits) <= limit < _full_ladder_ns(sym, lam, digits, bits)


def test_limit_ladder_is_refused_before_the_rung_past_its_budget(monkeypatch):
    # glambda --limit O 20 at 256 bits runs to its last N and is charged
    # under 3 s: it still ends in NoConvergence
    assert _full_ladder_ns(O, 20, 12, 256) <= analytic_moments._LADDER_WORK_NS
    monkeypatch.setattr(analytic_moments, "_LADDER_WORK_NS", _full_ladder_ns(O, 20, 12, 256, 64))
    with pytest.raises(DomainError, match="O at degree 20.0 passes the cost bound of the ladder before N = 128"):
        moment_by_limit(O, 20, 12, 256)


@pytest.mark.parametrize("sym", list(SymmetryClass))
def test_integer_ladder_fails_like_the_oracle_at_a_low_cap(sym, monkeypatch):
    monkeypatch.setattr(analytic_moments, "_LADDER_MAX_N", 1 << 9)
    cases = [(6, 8, 128), (Fraction(1, 3), 16, 128), (Fraction(-3, 5), 8, 128)]
    got = [_limit_or_error(sym, *case) for case in cases]
    monkeypatch.setattr(analytic_moments, "_limit_state", _mpf_limit_state)
    want = [_limit_or_error(sym, *case) for case in cases]
    assert got == want
    assert got[0] is NoConvergence and got[2] is DomainError


@pytest.mark.parametrize("lam", [2**20 + 1, Fraction(10**400), Fraction(3 * 10**80, 7)])
def test_limit_route_refuses_a_degree_past_its_last_n(lam):
    # at 10^400 a ladder ratio rounded the term to 0 and the product's
    # shift went negative (a ValueError); from 40 up none stabilized anyway
    for sym in SymmetryClass:
        with pytest.raises(DomainError, match="degree <= 1048576"):
            moment_by_limit(sym, lam, target_digits=1)


def test_limit_failure_names_the_degree_in_15_digits(monkeypatch):
    # the message printed lambda at the working precision, ~320 digits here
    monkeypatch.setattr(analytic_moments, "_LADDER_MAX_N", 1 << 6)
    with pytest.raises(NoConvergence) as info:
        moment_by_limit(U, Fraction(1, 3), target_digits=300, precision_bits=1024)
    assert "degree 0.333333333333333 did not" in str(info.value)
    assert len(str(info.value)) < 200


@pytest.mark.parametrize("bits, most", [(64, 19), (128, 38), (256, 77), (8192, 2466)])
def test_target_digits_stop_at_what_the_precision_carries(bits, most):
    # refused before any ladder step; moment_by_limit(U, 1, target_digits=10**5000)
    # ran for 27 s
    with pytest.raises(DomainError, match=f"at least 1 and at most {most}, got {most + 1}"):
        moment_by_limit(U, 1, target_digits=most + 1, precision_bits=bits)
    with pytest.raises(DomainError, match="at least 1"):
        moment_by_limit(U, 1, target_digits=0, precision_bits=bits)


def test_running_product_keeps_the_sign_of_its_terms():
    # the rising factorials (z)_i of z = -3.37 change sign up to i = 4, and
    # the shift of Barnes G multiplies 36 of them: the kernel against the
    # mpf oracle and the sign of the exact rational product
    z_exact = Fraction(-337, 100)
    bits = 128
    with working_precision(bits):
        z = mp.mpf(z_exact.numerator) / z_exact.denominator
        exact = to_fraction(z)
        a, b = exact.numerator, exact.denominator
        kernel = analytic_moments._RunningProduct(z, lambda i: (a + i * b, b))
        oracle = _MpfRunningProduct(z, lambda i: z + i)
        rising = product = Fraction(1)
        for m in range(1, 37):
            rising *= exact + (m - 1)
            product *= rising
            got, want = kernel.advance(m), oracle.advance(m)
            assert (got < 0) == (want < 0) == (product < 0), m
            assert abs(got - want) <= abs(want) * mp.mpf(2) ** -(bits + 16), m
    with mp.workprec(64):
        assert analytic_moments._RunningProduct(mp.mpf(-3.5), None).advance(0) == 1
        negative = analytic_moments._RunningProduct(mp.mpf(-3.5), lambda i: (-2, 1))
        assert negative.advance(1) == mp.mpf(-3.5)
        assert negative.advance(2) == mp.mpf(-3.5) * 7


def test_running_product_stays_within_its_rounding_bound():
    # term_1 = 3/8 and term_{j+1} = term_j (3j + 1)/(5j + 2) are rational,
    # so the exact product is num/den; after m steps the W-bit kernel is
    # within m(m + 3) ulps of it
    width = 100
    with mp.workprec(width - analytic_moments._KERNEL_GUARD):
        kernel = analytic_moments._RunningProduct(
            mp.mpf(0.375), lambda j: (3 * j + 1, 5 * j + 2)
        )
    num, den, term_num, term_den = 1, 1, 3, 8
    m = 0
    for target in (1, 7, 100, 300):
        while m < target:
            num, den = num * term_num, den * term_den
            m += 1
            term_num, term_den = term_num * (3 * m + 1), term_den * (5 * m + 2)
        with mp.workprec(width):
            man, exp = kernel.advance(target).man_exp
        # |man 2^exp - num/den| <= m(m + 3) 2^-width num/den, times den 2^-exp
        gap = abs(man * den - (num << -exp))
        assert gap << width <= m * (m + 3) * num << -exp, m


# -------------------------------------------------------------- pole orders


# distances from a pole at which the probe samples the ratio, close enough
# that the next Laurent term does not bend the log-log fit (at 1e-2 it does
# from k = 10 on, at 1e-4 ... 1e-6 from k = 425 on)
_PROBE_RADII = (1e-7, 1e-8, 1e-9)


def _probed_pole_order(sym, k: int) -> int:
    """The pole order at 1/2 - k read off the closed form: the negated
    least-squares slope of log|ratio| against log(radius)."""
    with working_precision(None) as bits:
        c = analytic_moments._constants(mp.mp.prec)
        lam0 = mp.mpf("0.5") - k
        xs = [mp.log(mp.mpf(r)) for r in _PROBE_RADII]
        ys = [
            mp.log(abs(analytic_moments._ratio_closed_raw(sym, lam0 + mp.mpf(r), c)))
            for r in _PROBE_RADII
        ]
        m = len(xs)
        x_mean = mp.fsum(xs) / m
        y_mean = mp.fsum(ys) / m
        slope = mp.fsum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys)) / mp.fsum(
            (x - x_mean) ** 2 for x in xs
        )
        intercept = y_mean - slope * x_mean
        residual = mp.sqrt(
            mp.fsum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys)) / m
        )
        assert residual <= mp.mpf("0.1"), f"{sym.value} k = {k}: not a clean power law"
        return int(mp.nint(-slope))


def test_pole_orders():
    # the pole of the ratio at degree 1/2 - k has order 2k - 1 (U), k (O)
    # and k - 1 (Sp), as the closed form shows near the pole
    for k in [*range(1, 31), 50, 100, 200, 1000]:
        for sym, want in ((U, 2 * k - 1), (O, k), (SP, k - 1)):
            assert pole_order(sym, k) == want == _probed_pole_order(sym, k), (sym, k)


def test_pole_order_evaluates_no_barnes_g(monkeypatch):
    # the order is counted from G's zeros: no G value, no shift kernel and no
    # Gamma, so k = 5 * 10^5 (where no numeric fit reads the order) and k
    # past the shift's cost bound answer at once
    def refused(*args):
        raise AssertionError("pole_order evaluated a function")

    for name in ("_barnes_g_raw", "_RunningProduct"):
        monkeypatch.setattr(analytic_moments, name, refused)
    monkeypatch.setattr(mp, "gamma", refused)
    for k in (500_000, 10**7, 10**4300 - 1):
        assert pole_order(U, k) == 2 * k - 1
        assert pole_order(O, k) == k
        assert pole_order(SP, k, precision_bits=128) == k - 1


@pytest.mark.parametrize("k", [0, -1, 2.0, Fraction(3), "2"])
def test_pole_order_needs_a_positive_integer(k):
    with pytest.raises(DomainError):
        pole_order(U, k)


# -------------------------------------------------------------- asymptotics


def _asym_abs_err(sym, k):
    with mp.workprec(300):
        exact = mp.log(mp.mpf(moment_constant(sym, k)))
        return float(abs(exact - log_moment_asymptotic(sym, k).value))


def test_asymptotic_error_decay_rates():
    # U remainder is O(1/k^2): none of its Stirling and Barnes G series
    # has an odd power of 1/k, so halving k quarters the error; O and Sp
    # keep genuine 1/k tails
    for sym, lo, hi in ((U, 3.5, 4.5), (O, 1.8, 2.2), (SP, 1.8, 2.2)):
        e50 = _asym_abs_err(sym, 50)
        e100 = _asym_abs_err(sym, 100)
        assert e100 < e50
        assert lo <= e50 / e100 <= hi, (sym, e50 / e100)


@pytest.mark.parametrize("sym", list(SymmetryClass))
def test_asymptotic_absolute_error_at_80(sym):
    assert _asym_abs_err(sym, 80) < 0.01


def test_asymptotic_err_estimate_fits_the_remainder():
    # the largest |remainder| k^2 for U is 0.076 (k = 2), |remainder| k for
    # O and Sp 0.446 (O, k = 3): err_estimate, 1/k^2 for U and 1/k for O
    # and Sp, covers the remainder and is within a factor of 20 of it
    for sym in SymmetryClass:
        for k in range(2, 301):
            exponents = moment_factored(sym, k).exponents.items()
            exact = math.fsum(e * math.log(p) for p, e in exponents)
            approx = log_moment_asymptotic(sym, k)
            remainder = abs(exact - float(approx.value))
            assert remainder < approx.err_estimate < 20 * remainder, (sym, k)


def test_asymptotic_rejects_small_k():
    with pytest.raises(DomainError):
        log_moment_asymptotic(U, 1)


# --------------------------------------------------------------- sum recipes


def test_sum_kinds_registry():
    assert _SUM_KINDS == ("log_j", "log_odd", "j_log_j", "j_log_odd")


def test_log_sum_examples():
    exact, asym = log_sum_asymptotics("log_j", 1000)
    assert abs(float(exact) - float(asym)) < 1e-6
    exact, asym = log_sum_asymptotics("j_log_odd", 1000)
    assert abs(float(exact) - float(asym)) < 1e-2
    exact, asym = log_sum_asymptotics("log_j", 1)
    assert float(exact) == 0
    assert abs(float(exact) - float(asym)) < 0.01


@pytest.mark.parametrize("kind", _SUM_KINDS)
def test_log_sum_error_shrinks(kind):
    def gap(n):
        exact, asym = log_sum_asymptotics(kind, n)
        return abs(float(exact) - float(asym))

    assert gap(2000) < gap(200)


def test_log_sum_rejects_unknown_kind():
    with pytest.raises(DomainError):
        log_sum_asymptotics("log_squares", 10)


def _direct_log_sum(kind, n):
    """The sum term by term at the working precision (oracle)."""
    term = {
        "log_j": lambda j: mp.log(j),
        "log_odd": lambda j: mp.log(2 * j - 1),
        "j_log_j": lambda j: j * mp.log(j),
        "j_log_odd": lambda j: j * mp.log(2 * j - 1),
    }[kind]
    return mp.fsum(term(j) for j in range(1, n + 1))


@pytest.mark.parametrize("bits", [128, 256, 1024])
@pytest.mark.parametrize("kind", _SUM_KINDS)
def test_log_sum_matches_term_by_term_oracle(kind, bits):
    for n in (1, 2, 3, 4, 8, 9, 25, 27, 97, 128, 300, 1000, 3000):
        exact, _ = log_sum_asymptotics(kind, n, bits)
        with mp.workprec(bits + 64):
            expect = _direct_log_sum(kind, n)
            gap = abs(exact.value - expect)
            assert gap <= exact.err_estimate, (n, gap)
            assert gap <= abs(expect) * mp.mpf(2) ** -(bits + 16), (n, gap)


def _valuation(m, p):
    e = 0
    while m % p == 0:
        m //= p
        e += 1
    return e


@pytest.mark.parametrize("kind", _SUM_KINDS)
def test_log_sum_prime_weights_are_exact(kind):
    # w_p = sum_j f(j) v_p(g(j)), with f(j) = 1 or j and g(j) = j or 2j - 1
    f = (lambda j: j) if kind.startswith("j_") else (lambda j: 1)
    g = (lambda j: 2 * j - 1) if kind.endswith("odd") else (lambda j: j)
    for n in range(1, 201):
        primes, weights = analytic_moments._prime_weights(kind, n)
        top = g(n)
        expect = {
            p: sum(f(j) * _valuation(g(j), p) for j in range(1, n + 1))
            for p in range(2, top + 1)
            if all(p % d for d in range(2, math.isqrt(p) + 1))
        }
        expect = {p: w for p, w in expect.items() if w}
        assert dict(zip(primes, weights)) == expect, n


@pytest.mark.parametrize("kind", _SUM_KINDS)
def test_log_sum_takes_one_log_per_bit_slice(kind, monkeypatch):
    n = 3000
    _, weights = analytic_moments._prime_weights(kind, n)
    calls = []
    log = mp.log
    monkeypatch.setattr(analytic_moments.mp, "log", lambda x: calls.append(x) or log(x))
    with working_precision(256):
        analytic_moments._exact_log_sum(kind, n)
    assert len(calls) == max(weights).bit_length()
    assert len(calls) <= 2 * math.log2(n) + 2


def test_log_sum_cost_bound(monkeypatch):
    # the bound is checked before any sieve is built
    def no_sieve(limit):
        raise AssertionError(f"sieve to {limit} built")

    monkeypatch.setattr(analytic_moments, "primes_up_to", no_sieve)
    bound = analytic_moments._LOG_SUM_MAX_N
    for kind in _SUM_KINDS:
        with pytest.raises(DomainError, match="cost bound"):
            log_sum_asymptotics(kind, bound + 1, 1024)
        with pytest.raises(DomainError, match="cost bound"):
            log_sum_asymptotics(kind, 10**9, 1024)
