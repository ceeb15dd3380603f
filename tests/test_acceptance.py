"""Acceptance sweep: one test per shipping criterion, one line each under -v,
and the paper's v_p(g_k) ~ k c_p(x) check through valuation_density_ratios.

Every test here is self-contained and re-derives its own expected values or
carries them frozen inline.
"""

import math
import random
import time
from fractions import Fraction

import mpmath as mp

from lfmoments import (
    FamilyDescriptor,
    LaurentPolynomial,
    RationalPolynomial,
    SymmetryClass,
    assemble_mean_value,
    density_exact,
    density_numeric,
    half_moment_unitary,
    log_moment_asymptotic,
    log_power,
    mean_square,
    moment_by_limit,
    moment_closed_form,
    moment_constant,
    moment_factored,
    moment_ratio_closed_form,
    pole_order,
    primes_up_to,
    valuation,
    zero_valuation_window,
    zeta_arithmetic_factor,
)
from lfmoments.analytic_moments import log_sum_asymptotics

U, O, SP = SymmetryClass.U, SymmetryClass.O, SymmetryClass.Sp


def test_c01_exact_moment_tables():
    start = time.perf_counter()
    assert [moment_constant(U, k) for k in range(1, 5)] == [1, 2, 42, 24024]
    assert [moment_constant(O, k) for k in range(1, 5)] == [1, 2, 8, 128]
    assert [moment_constant(SP, k) for k in range(1, 5)] == [1, 2, 16, 768]
    assert time.perf_counter() - start < 1.0


def test_c02_hundredth_unitary_constant_factorization():
    start = time.perf_counter()
    fac = moment_factored(U, 100)
    # the reconstructed product pins the factorization to the exact integer,
    # so each exponent below is forced, not a convention
    assert fac.value() == moment_constant(U, 100)
    displayed = {
        2: 95, 3: 65, 5: 24, 7: 33, 11: 10, 13: 33, 17: 36, 19: 29, 23: 20,
        29: 16, 31: 11, 37: 10, 41: 12, 43: 9, 47: 4, 53: 3, 59: 7, 61: 9,
        67: 18, 71: 12, 73: 10, 79: 6, 83: 4, 89: 2, 97: 1, 113: 1,
        127: 5, 131: 7, 137: 9, 139: 10, 149: 16, 151: 17, 157: 20, 163: 24,
        167: 26, 173: 30, 179: 34, 181: 36, 191: 43, 193: 44, 197: 47,
        # 199 carries 49, not the oft-quoted 47 (which just repeats the 197
        # entry): the reconstruction above forces it, and the closed-form
        # valuation route agrees.
        199: 49,
        211: 47, 223: 44,
    }
    for p, e in displayed.items():
        assert fac.exponents.get(p, 0) == e, (p, e, fac.exponents.get(p, 0))
    assert valuation(U, 199, 100) == 49
    assert max(fac.exponents) == 9973
    assert time.perf_counter() - start < 5.0


def test_c03_closed_valuation_matches_factor_oracle():
    start = time.perf_counter()
    mismatches = []
    checked = 0
    for sym in (U, O, SP):
        for k in range(1, 61):
            exponents = moment_factored(sym, k).exponents
            for p in primes_up_to(log_power(sym, k)):
                checked += 1
                if valuation(sym, p, k) != exponents.get(p, 0):
                    mismatches.append((sym, p, k))
    assert checked > 20_000
    assert mismatches == []
    assert time.perf_counter() - start < 30.0


def test_c04_zero_window_equivalence():
    mismatches = []
    checked = 0
    for sym in (U, O):
        for k in range(1, 301):
            b = log_power(sym, k)
            for p in primes_up_to(b - 1):
                if p == 2 or p * p <= b:
                    continue  # regime is sqrt(B) < p < B, odd p
                checked += 1
                if zero_valuation_window(sym, p, k) != (valuation(sym, p, k) == 0):
                    mismatches.append((sym, p, k))
    assert checked > 1_000_000
    assert mismatches == []


def test_c05_density_values():
    assert density_exact(5, Fraction(3, 13)) == Fraction(23, 72)

    rng = random.Random(20260815)
    for _ in range(100):
        x = Fraction(rng.randint(1, 500), rng.randint(1, 500))
        assert density_exact(2, x) == 1, x
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7, 11])
        x = Fraction(rng.randint(1, 400), rng.randint(1, 400))
        assert density_exact(p, p * x) == density_exact(p, x), (p, x)
    for _ in range(100):
        p = rng.choice([2, 3, 5, 7])
        x = Fraction(rng.randint(1, 200), rng.randint(1, 200))
        got = density_numeric(p, x, eps=1e-12)
        assert abs(float(got) - float(density_exact(p, x))) < 1e-11, (p, x)


def valuation_density_ratios(p: int, x, j: int) -> dict:
    """Actual valuations over the density prediction at k = floor(p^j x):
    v / (k c) for U and v / ((k/2) c) for O and Sp.  The paper's
    v_p(g_k) ~ k c_p(x) puts each ratio near 1, off by O(log k)/k relative."""
    k = math.floor(Fraction(x) * p**j)
    c = density_exact(p, x)
    return {
        "k": k,
        "U": float(Fraction(valuation(U, p, k)) / (k * c)),
        "O": float(Fraction(2 * valuation(O, p, k)) / (k * c)),
        "Sp": float(Fraction(2 * valuation(SP, p, k)) / (k * c)),
    }


def test_density_ratio_examples():
    ratios = valuation_density_ratios(3, 1, 7)
    for sym in ("U", "O", "Sp"):
        assert abs(ratios[sym] - 1) < 0.05
    ratios5 = valuation_density_ratios(5, Fraction(3, 13), 6)
    for sym in ("U", "O", "Sp"):
        assert abs(ratios5[sym] - 1) < 0.1


def test_density_ratio_monotone():
    prev = None
    for j in range(4, 9):
        r = valuation_density_ratios(3, 1, j)["U"]
        if prev is not None:
            assert abs(r - 1) <= abs(prev - 1)
        prev = r


def test_c06_density_ratio_convergence():
    gaps = []
    for j in range(4, 8):
        ratio = valuation_density_ratios(3, 1, j)["U"]
        gaps.append(abs(ratio - 1))
    assert gaps == sorted(gaps, reverse=True), gaps
    assert gaps[-1] < 0.05, gaps[-1]


def test_c07_half_moment_digits():
    start = time.perf_counter()
    h = half_moment_unitary()
    assert h.digits(25).startswith("1.0362329154")
    assert 1 <= float(h) <= Fraction(16, 15)
    lim = moment_by_limit(U, Fraction(1, 2), target_digits=8)
    assert abs(float(lim) - float(h)) < float(h) * 1e-6
    assert time.perf_counter() - start < 10.0


def test_c08_closed_form_vs_limit():
    points = (Fraction(1, 2), 1, Fraction(17, 10), Fraction(5, 2))
    with mp.workprec(256):
        for sym in (U, O, SP):
            for lam in points:
                closed = moment_closed_form(sym, lam)
                lim = moment_by_limit(sym, lam, target_digits=10)
                gap = abs(lim.value - closed.value) / abs(closed.value)
                assert gap < 1e-8, (sym, lam, float(gap))
        for sym in (U, O, SP):
            for k in range(1, 6):
                exact = moment_constant(sym, k)
                for route in (moment_closed_form, moment_by_limit):
                    got = route(sym, k)
                    assert abs(got.value - exact) < exact * 1e-8, (sym, k, route)
        # ratio_O * ratio_Sp = 2^(lam^2 - 1) * ratio_U
        for lam in (Fraction(3, 10), Fraction(9, 10), Fraction(14, 10), Fraction(22, 10)):
            left = (
                moment_ratio_closed_form(O, lam).value
                * moment_ratio_closed_form(SP, lam).value
            )
            right = mp.mpf(2) ** (mp.mpf(lam.numerator) ** 2 / lam.denominator**2 - 1)
            right *= moment_ratio_closed_form(U, lam).value
            assert abs(left - right) < abs(right) * 1e-10, lam


def test_c09_pole_orders():
    assert [pole_order(U, k) for k in (1, 2)] == [1, 3]
    assert [pole_order(O, k) for k in (1, 2)] == [1, 2]
    assert [pole_order(SP, k) for k in (1, 2)] == [0, 1]


def _log_asym_gap(sym, k):
    """Signed remainder log g_k - expansion, and the expansion's err_estimate."""
    with mp.workprec(300):
        exact = mp.log(mp.mpf(moment_constant(sym, k)))
        approx = log_moment_asymptotic(sym, k)
        return float(exact - approx.value), approx.err_estimate


def test_c10_asymptotic_error_decay():
    exact, asym = log_sum_asymptotics("log_j", 1000)
    assert abs(float(exact) - float(asym)) < 1e-6
    exact, asym = log_sum_asymptotics("j_log_odd", 1000)
    assert abs(float(exact) - float(asym)) < 1e-2
    exact, asym = log_sum_asymptotics("log_j", 1)
    assert float(exact) == 0
    assert abs(float(exact) - float(asym)) < 0.01

    # The expansion's error falls at the rate of its first omitted term,
    # c / k^p, so halving k multiplies it by 2^p.  The remainders follow
    # from Stirling's series for log Gamma and the Barnes series
    #   log G(1+z) ~ z^2/2 log z - 3z^2/4 + z/2 log 2pi - log z / 12
    #                + zeta'(-1) - 1/(240 z^2) + ...      (the B_4/(8z^2) term)
    # U: log g_k = log Gamma(k^2+1) + 2 log G(k+1) - log G(2k+1).  None of
    #    these series has an odd power of 1/k, so there is no 1/k term; the
    #    remainder is (1/12 - 2/240 + 1/960)/k^2 = 73/(960 k^2) + O(1/k^4),
    #    and p = 2.
    # O, Sp: the duplication formula splits prod Gamma(2j+1) into G(k),
    #    G(k+1/2) and Gamma(k) pieces; with log G(3/2) = log 2/24 + log pi/4
    #    + (3/2) zeta'(-1) the constant term vanishes and the remainder is
    #    -7/(16k) - 29/(640 k^2) for O and +7/(16k) - 29/(640 k^2) for Sp,
    #    so p = 1.
    # Each ratio window is 2^p +- 25%; the leading coefficients are exact
    # rationals, checked at k = 100 to 1%.
    leading = {
        U: (2, Fraction(73, 960)),
        O: (1, Fraction(-7, 16)),
        SP: (1, Fraction(7, 16)),
    }
    for sym, (p, coeff) in leading.items():
        gap50, err50 = _log_asym_gap(sym, 50)
        gap100, err100 = _log_asym_gap(sym, 100)
        assert abs(gap100) < abs(gap50), sym
        ratio = gap50 / gap100
        assert 0.75 * 2**p <= ratio <= 1.25 * 2**p, (sym, ratio)
        scaled = 100**p * gap100
        assert abs(scaled - float(coeff)) <= 0.01 * abs(float(coeff)), (sym, scaled)
        assert abs(gap50) <= err50 and abs(gap100) <= err100, (sym, gap50, gap100)


def test_c11_euler_products_and_assembly():
    start = time.perf_counter()
    a1 = zeta_arithmetic_factor(1)
    assert abs(float(a1) - 1) < 1e-10
    a2 = zeta_arithmetic_factor(2, prime_cutoff=100_000)
    with mp.workprec(256):
        assert abs(float(a2.value - 6 / mp.pi**2)) < 1e-6
    fam = FamilyDescriptor(sym=U, conductor_exponent=1, label="zeta")
    shape = assemble_mean_value(fam, 2, a2)
    assert shape.log_power == 4
    with mp.workprec(256):
        assert abs(float(shape.coefficient.value - 1 / (2 * mp.pi**2))) < 1e-6
    assert time.perf_counter() - start < 30.0


def test_c12_mollifier_identities():
    start = time.perf_counter()
    x = RationalPolynomial((0, 1))
    one = RationalPolynomial((1,))

    def lp(mapping):
        return LaurentPolynomial({k: Fraction(v) for k, v in mapping.items()})

    assert mean_square(U, x, one) == lp({0: 1, -1: 1})
    assert mean_square(O, x, one) == lp({-2: 1})
    assert mean_square(SP, x, one) == lp({0: 1, -1: 2, -2: 1})

    rng = random.Random(7)
    for _ in range(50):
        p = RationalPolynomial(
            [0] + [rng.randint(-6, 6) for _ in range(rng.randint(1, 4))]
        )
        odd_coeffs = []
        for _ in range(rng.randint(1, 3)):
            odd_coeffs += [0, rng.randint(-6, 6)]
        q = RationalPolynomial(odd_coeffs)
        assert mean_square(SP, p, q.derivative()) == mean_square(O, p, q), (p, q)
    assert time.perf_counter() - start < 5.0
