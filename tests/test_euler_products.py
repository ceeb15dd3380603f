"""Arithmetic factors: local factors, truncated products, mean-value shapes."""

import math
import sys
import threading
import time
from collections import Counter, OrderedDict
from fractions import Fraction
from functools import lru_cache, partial

import mpmath as mp
import pytest
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st

from lfmoments import (
    DomainError,
    FactoredInteger,
    FamilyDescriptor,
    RealApprox,
    SymmetryClass,
    assemble_mean_value,
    log_power,
    moment_factored,
    primes_up_to,
    sp_quadratic_arithmetic_factor,
    zeta_arithmetic_factor,
)
from lfmoments import euler_products
from lfmoments.euler_products import (
    _MIN_CUTOFF,
    _check_cost,
    _euler_products,
    _family_factor,
    _sp_local,
    _sp_shape,
    _step_ns,
    _term_ns,
    _zeta_local,
)
from lfmoments.errors import WorkBudget, brief
from lfmoments.numeric_core import check_prime
from lfmoments.precision import GUARD_BITS, approx, to_fraction, working_precision

U, O, SP = SymmetryClass.U, SymmetryClass.O, SymmetryClass.Sp


# ------------------------------------------------------------- local factors


def zeta_local_factor(k, p: int, precision_bits=None):
    """One local factor (1 - 1/p)^{k^2} 2F1(k, k; 1; 1/p): the kernel's
    product over the single prime p, with k checked as for the primes up to
    the least cutoff."""
    with working_precision(precision_bits) as bits:
        k, budget = _check_cost(k, _MIN_CUTOFF, bits)
        a = min(k, 1 - k)
        make_local = partial(_zeta_local, a, bits, budget)
        return approx(_euler_products([p], a * a, make_local, [1])[0], bits)


def sp_local_factor(k: int, p: int) -> Fraction:
    """Exact local factor of the symplectic quadratic-family product.

    The average over the two square-root signs is even in p^{-1/2}, hence
    rational in 1/p; integer k therefore admits exact evaluation.  At
    k = 1 this simplifies to 1 - 1/(p^2 + p).
    """
    if not isinstance(k, int) or k < 1:
        raise DomainError("exact local factors need a positive integer k")
    check_prime(p)
    alpha, coeffs = k * (k - 1) // 2, _sp_shape(k)
    y = Fraction(1, p)
    series = Fraction(0)
    for c in reversed(coeffs):
        series = series * y + c
    return (1 - y) ** alpha * series / (1 + y)


@pytest.mark.parametrize("p", [2, 3, 5, 97])
def test_local_factor_telescopes_at_k_one(p):
    got = zeta_local_factor(1, p)
    assert abs(float(got.value - 1)) < 1e-60


@pytest.mark.parametrize("p", [2, 3, 5, 97])
def test_local_factor_k_two_closed_form(p):
    got = zeta_local_factor(2, p)
    with mp.workprec(300):
        want = 1 - mp.mpf(1) / (p * p)
        assert abs(got.value - want) < 1e-60


def _term_by_term_local_factor(k, p: int) -> mp.mpf:
    # (1 - 1/p)^{k^2} sum_j d_k(p^j)^2 p^{-j}, the defining series summed term
    # by term at order k itself, without Euler's transformation, until a
    # term past the peak drops below the working precision
    eps = mp.ldexp(1, -mp.mp.prec - 8)
    x = 1 / mp.mpf(p)
    d = total = xp = term = mp.mpf(1)
    j = 0
    while term >= eps or j <= abs(k):
        j += 1
        d = d * (k + j - 1) / j
        xp *= x
        term = d * d * xp
        total += term
    return mp.power(1 - x, k * k) * total


@pytest.mark.parametrize("bits", [128, 256, 1024])
@pytest.mark.parametrize(
    "k",
    [0, Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), 1, 2, Fraction(5, 2), 3, 7],
)
def test_zeta_local_factor_matches_hypergeometric_series(k, bits):
    for p in (2, 3, 5, 97, 10007):
        got = zeta_local_factor(k, p, precision_bits=bits)
        with mp.workprec(2 * bits):
            k_mp = mp.mpf(Fraction(k).numerator) / Fraction(k).denominator
            x = 1 / mp.mpf(p)
            want = (1 - x) ** (k_mp * k_mp) * mp.hyp2f1(k_mp, k_mp, 1, x)
            assert abs(got.value - want) <= got.err_estimate, (k, p, bits)


def test_local_factor_rejects_low_k():
    with pytest.raises(DomainError):
        zeta_local_factor(-0.5, 3)


# ---------------------------------------------------------- zeta-family a_k


def test_ak_zeta_trivial_orders():
    assert abs(float(zeta_arithmetic_factor(0, prime_cutoff=500).value) - 1) < 1e-30
    assert abs(float(zeta_arithmetic_factor(1, prime_cutoff=500).value) - 1) < 1e-30


def test_ak_zeta_second_moment_constant():
    got = zeta_arithmetic_factor(2, prime_cutoff=10_000)
    with mp.workprec(256):
        gap = abs(got.value - 6 / mp.pi**2)
    assert float(gap) < 1e-4
    assert float(gap) <= got.err_estimate


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_ak_zeta_cutoff_doubling_within_reported_error(k):
    lo = zeta_arithmetic_factor(k, prime_cutoff=10_000)
    hi = zeta_arithmetic_factor(k, prime_cutoff=20_000)
    assert abs(float(lo.value - hi.value)) <= lo.err_estimate


def test_ak_zeta_order_symmetry():
    # a_k = a_{1-k} holds factor by factor, so truncation cancels exactly
    lo = zeta_arithmetic_factor(0.25, prime_cutoff=2_000)
    hi = zeta_arithmetic_factor(0.75, prime_cutoff=2_000)
    assert abs(float(lo.value - hi.value)) < 1e-30


def test_ak_zeta_reads_a_fractional_order_exactly():
    # Fraction(1, 3) is 1/3 at working precision, not the nearest double
    with mp.workprec(400):
        third = mp.mpf(1) / 3
    for factor, args in ((zeta_local_factor, (3,)), (zeta_arithmetic_factor, (500,))):
        got = factor(Fraction(1, 3), *args).value
        assert abs(got - factor(third, *args).value) < 1e-70
        assert abs(got - factor(1 / 3, *args).value) > 1e-25


def test_ak_zeta_reads_a_negative_float_order_with_its_sign():
    # -0.25 used to be read as +0.25: the mpf mantissa is unsigned
    got = zeta_arithmetic_factor(-0.25, prime_cutoff=500)
    want = zeta_arithmetic_factor(Fraction(-1, 4), prime_cutoff=500)
    assert got.value == want.value


def test_zeta_ak_matches_exact_local_factors():
    # for integer k the transformed factor is the polynomial
    # (1 - 1/p)^{(k-1)^2} sum_j C(k-1, j)^2 p^{-j}, exact in Fractions
    for k in (1, 2, 3, 4):
        got = zeta_arithmetic_factor(k, prime_cutoff=200, precision_bits=128)
        want = math.prod(
            (1 - Fraction(1, p)) ** ((k - 1) ** 2)
            * sum(Fraction(math.comb(k - 1, j) ** 2, p**j) for j in range(k))
            for p in primes_up_to(200)
        )
        with mp.workprec(300):
            gap = abs(got.value - mp.mpf(want.numerator) / want.denominator)
            assert gap < mp.mpf(2) ** -110, k


def test_zeta_ak_matches_term_by_term_product():
    # non-integer orders: the hoisted power and the shared coefficients
    # against the defining series, summed prime by prime at twice the bits
    for k in (Fraction(1, 3), Fraction(1, 2), Fraction(5, 2), Fraction(-1, 4)):
        got = zeta_arithmetic_factor(k, prime_cutoff=200, precision_bits=128)
        with mp.workprec(256):
            k_mp = mp.mpf(k.numerator) / k.denominator
            want = mp.fprod(
                _term_by_term_local_factor(k_mp, p) for p in primes_up_to(200)
            )
            assert abs(got.value - want) < mp.mpf(2) ** -110 * want, k


def test_zeta_huge_order_is_beyond_the_cost_bound(monkeypatch):
    # about 10^400 series steps a prime, each wider than the last: refused
    # once they have spent the budget, a tenth of it here (the calibration
    # rows run the real one)
    monkeypatch.setattr(euler_products, "_MAX_WORK_NS", 3 * 10**8)
    with pytest.raises(DomainError, match="cost bound"):
        zeta_arithmetic_factor(Fraction(10**400), prime_cutoff=100)


def test_ak_zeta_rejects_small_cutoff():
    with pytest.raises(DomainError):
        zeta_arithmetic_factor(2, prime_cutoff=50)


@pytest.mark.parametrize("cutoff", [10**8, 10**9, 10**400, 1000.0, "1000"])
@pytest.mark.parametrize("product", [zeta_arithmetic_factor, sp_quadratic_arithmetic_factor])
def test_prime_cutoff_beyond_the_cost_bound_is_an_error(monkeypatch, product, cutoff):
    # primes_up_to(10^9) would build a 1 GB sieve; the cutoff is checked
    # before any sieve is built
    def no_sieve(limit):
        raise AssertionError(f"sieve to {limit} built")

    monkeypatch.setattr(euler_products, "primes_up_to", no_sieve)
    with pytest.raises(DomainError, match="prime_cutoff"):
        product(2, prime_cutoff=cutoff)


# the rows of the README's table, run against the real budget, and a k
# whose first series ratio alone passes it: the five accepted rows after the
# third were refused by the up-front estimate the charges replaced, and the
# last accepted one by the kernel's work over every prime, which the table
# of prime power sums replaced
@pytest.mark.parametrize(
    "product, k, cutoff, bits, accepted",
    [
        (zeta_arithmetic_factor, Fraction(1, 2), 10**6, 256, True),
        (zeta_arithmetic_factor, 1, 10**7, 64, True),
        (sp_quadratic_arithmetic_factor, 1000, 1000, 256, True),
        (zeta_arithmetic_factor, 1000, 10**4, 256, True),
        (zeta_arithmetic_factor, 2000, 10**4, 256, True),
        (zeta_arithmetic_factor, 200, 10**5, 256, True),
        (sp_quadratic_arithmetic_factor, 1000, 10**4, 256, True),
        (sp_quadratic_arithmetic_factor, 2000, 1000, 256, True),
        (zeta_arithmetic_factor, Fraction(1, 2), 10**6, 512, True),
        (zeta_arithmetic_factor, 2, 10**4, 2048, True),
        (zeta_arithmetic_factor, 2, 1000, 4096, True),
        (sp_quadratic_arithmetic_factor, 3, 10**4, 4096, True),
        (sp_quadratic_arithmetic_factor, 3000, 10**4, 256, False),
        (zeta_arithmetic_factor, Fraction(1, 2), 10**4, 4096, False),
        (zeta_arithmetic_factor, Fraction(20001, 2), 10**5, 256, False),
        (zeta_arithmetic_factor, Fraction(1, 10**300000), 100, 256, False),
    ],
    ids=lambda v: getattr(v, "__name__", brief(v)),
)
def test_cost_bound_keeps_its_calibration_rows(product, k, cutoff, bits, accepted):
    if accepted:
        product(k, prime_cutoff=cutoff, precision_bits=bits)
    else:
        with pytest.raises(DomainError, match="cost bound"):
            product(k, prime_cutoff=cutoff, precision_bits=bits)


# wide sums at the least cutoff, integer k for either family, a long
# series over many primes; the last three have a tail past P0, and both
# integer shapes and a rational one
@pytest.mark.parametrize(
    "product, k, cutoff, bits",
    [
        (zeta_arithmetic_factor, Fraction(4601, 2), 100, 128),
        (zeta_arithmetic_factor, 1000, 1000, 256),
        (sp_quadratic_arithmetic_factor, 1000, 1000, 256),
        (zeta_arithmetic_factor, Fraction(1, 3), 10**5, 512),
        (zeta_arithmetic_factor, 3, 10**4, 128),
        (sp_quadratic_arithmetic_factor, 3, 10**4, 256),
    ],
    ids=lambda v: getattr(v, "__name__", str(v)),
)
def test_charged_steps_are_the_steps_the_kernel_takes(monkeypatch, product, k, cutoff, bits):
    # every head step floor-divides by a prime p (a running product or an
    # Sp Horner step) or by p << W (a zeta term), and every table term by p:
    # ints that record those divisions see each step.  The budget holds
    # _check_cost's sieve and running products over every prime, the
    # charges of exactly the head's local steps and the table's terms, and
    # the tail series' charge
    divisions, terms, budgets, limits = Counter(), [], [], []

    class Shifted(int):
        def __rfloordiv__(self, other):
            terms[-1].append(other // int(self))
            return terms[-1][-1]

    class Prime(int):
        def __lshift__(self, shift):
            terms.append([])
            return Shifted(int(self) << shift)

        def __rfloordiv__(self, other):
            divisions[int(self)] += 1
            return other // int(self)

    def recording(*args):
        k, budget = check_cost(*args)
        budgets.append((budget, budget.spent))
        return k, budget

    def sieve(limit):
        limits.append(limit)
        return [Prime(p) for p in primes_up_to(limit)]

    check_cost = euler_products._check_cost
    monkeypatch.setattr(euler_products, "_check_cost", recording)
    monkeypatch.setattr(euler_products, "primes_up_to", sieve)
    # the table over (128, cutoff] asked for before, so a tail builds it
    asked = OrderedDict.fromkeys([(7, cutoff, bits + GUARD_BITS)])
    monkeypatch.setattr(euler_products, "_TABLES", asked)
    product(k, prime_cutoff=cutoff, precision_bits=bits)
    [(budget, before)] = budgets
    width = bits + GUARD_BITS + 32
    estimate = 2 * cutoff // (cutoff.bit_length() - 1)
    assert before == 16 * cutoff + 2 * estimate * _step_ns(width, width)
    head = primes_up_to(limits[0])
    charged = 0
    if limits[0] < cutoff:
        # the tail: one table, each of its terms one division by its prime
        [table] = [t for t in euler_products._TABLES.values() if t]
        assert limits == [limits[0], cutoff] and limits[0].bit_count() == 1
        tail = [p for p in primes_up_to(cutoff) if p > limits[0]]
        steps = sum(divisions.pop(p) for p in tail)
        assert 2 * len(tail) <= steps and table.charge == steps * _term_ns(bits + GUARD_BITS)
        assert table.charge <= table.bound < 1.2 * table.charge
        if product is zeta_arithmetic_factor:
            shape = euler_products._tail_shape("zeta", min(Fraction(k), 1 - Fraction(k)))
        else:
            shape = euler_products._tail_shape("spquad", k)
        s = limits[0].bit_length() - 1
        columns = -(-(bits + GUARD_BITS + s + 3) // (s - shape.root_bits))
        ends = 1 if product is zeta_arithmetic_factor else 2
        key = min(Fraction(k), 1 - Fraction(k)) if product is zeta_arithmetic_factor else k
        name = "zeta" if product is zeta_arithmetic_factor else "spquad"
        shift = 0 if shape.poly else bits + GUARD_BITS + s + 8
        series = euler_products._series_ns(name, key, columns, shift, ends, bits + GUARD_BITS + s)
        charged += table.charge + series
    else:
        assert limits == [cutoff]
    if product is sp_quadratic_arithmetic_factor:
        # one running-product division and k + 2 Horner steps a head prime
        assert divisions == Counter({p: k + 3 for p in head})
        step = 9 * (width + k + 2 + 512) >> 5
        assert budget.spent - before == charged + len(head) * (k + 2) * step
        return
    # zeta: a prime's terms from the shared ratios at the width of its sum,
    # each new ratio and its term at the width of the sum so far
    assert divisions == Counter(head) and len(terms) == len(head)
    a = min(Fraction(k), 1 - Fraction(k))
    ratio = width + 2 * max(a.numerator.bit_length(), a.denominator.bit_length())
    series = shared = 0
    for quotients in terms:
        total = (1 << width) + sum(quotients[:shared])
        series += len(quotients[:shared]) * _step_ns(total.bit_length(), ratio)
        for quotient in quotients[shared:]:
            series += (ratio * (ratio + 2048) >> 10) + _step_ns(total.bit_length(), ratio)
            total += quotient
        shared = max(shared, len(quotients))
    assert budget.spent - before == charged + series and series > 0


@pytest.mark.parametrize("dear", ["past the budget", "dearer than the kernel"])
@pytest.mark.parametrize("product, k", [(zeta_arithmetic_factor, 3), (sp_quadratic_arithmetic_factor, 3),
                                        (zeta_arithmetic_factor, Fraction(1, 3))])
def test_a_dear_table_runs_the_kernel_over_every_prime(monkeypatch, product, k, dear):
    # a table term charged past the budget, or a table asked for before
    # whose charge passes the kernel's over its primes: the kernel runs on
    # over the tail primes, builds no table and is charged what the kernel
    # over every prime is (the zeta series' terms are charged as they run)
    kernel = WorkBudget(10**18 if dear == "past the budget" else 10**30)
    monkeypatch.setattr(euler_products, "_TABLES", OrderedDict())
    monkeypatch.setattr(euler_products, "_check_cost", lambda *args: (to_fraction(args[0]), kernel))
    monkeypatch.setattr(euler_products, "_term_ns", lambda width: 10**18)
    got = product(k, prime_cutoff=5000, precision_bits=128)
    assert list(euler_products._TABLES.values()) == [None]
    with working_precision(128):
        want = _kernel_oracle("zeta" if product is zeta_arithmetic_factor else "spquad",
                              Fraction(k), 5000)
        assert abs(got.value - want) <= mp.ldexp(abs(want), -(128 + 16))
    if product is sp_quadratic_arithmetic_factor:
        step = 9 * (128 + GUARD_BITS + 32 + k + 2 + 512) >> 5
        assert kernel.spent == len(primes_up_to(5000)) * (k + 2) * step
    # asked for again, the table is built only where it fits the budget
    product(k, prime_cutoff=5000, precision_bits=128)
    assert any(euler_products._TABLES.values()) == (dear == "dearer than the kernel")


@pytest.mark.parametrize("bits", [128, 4096])
def test_a_first_request_takes_the_route_cheaper_by_charge(monkeypatch, bits):
    # an integer shape's table charges more than the kernel's steps over
    # its primes, so its first request runs the kernel and the next builds
    # the table; zeta at a rational k sums a long series at every prime, so
    # its first request builds the table
    monkeypatch.setattr(euler_products, "_TABLES", OrderedDict())
    first = sp_quadratic_arithmetic_factor(3, prime_cutoff=5000, precision_bits=bits)
    assert list(euler_products._TABLES.values()) == [None]
    again = sp_quadratic_arithmetic_factor(3, prime_cutoff=5000, precision_bits=bits)
    [table] = euler_products._TABLES.values()
    assert table and abs(again.value - first.value) <= mp.ldexp(abs(first.value), -(bits + 15))
    monkeypatch.setattr(euler_products, "_TABLES", OrderedDict())
    zeta_arithmetic_factor(Fraction(1, 2), prime_cutoff=5000, precision_bits=128)
    [table] = euler_products._TABLES.values()
    assert table


# ------------------------------------------------------- Sp quadratic family


@pytest.mark.parametrize("k", [*range(1, 12), 500])
def test_sp_shape_is_the_binomial_formula(k):
    # the row is built by C(k, j + 1) = C(k, j)(k - j)/(j + 1)
    coeffs = [math.comb(k, 2 * m) for m in range(k // 2 + 1)]
    coeffs += [0] * (k + 2 - len(coeffs))
    for j in range(k + 1):
        coeffs[j + 1] += (-1) ** j * math.comb(k, j)
    assert _sp_shape(k) == coeffs


def test_sp_local_factor_k_one_closed_form():
    for p in (3, 5, 7):
        assert sp_local_factor(1, p) == 1 - Fraction(1, p * p + p)


@pytest.mark.parametrize("p", [0, 1, 4, 9, 91, 3.0])
def test_sp_local_factor_rejects_non_primes(p):
    with pytest.raises(DomainError):
        sp_local_factor(1, p)


def test_sp_local_factor_matches_surd_expression():
    # rational even-part route vs direct evaluation with sqrt(p)
    with mp.workprec(300):
        for k in (1, 2, 3):
            for p in (3, 5, 7):
                u = 1 / mp.sqrt(p)
                direct = (
                    (1 - mp.mpf(1) / p) ** (k * (k + 1) // 2)
                    * (((1 + u) ** -k + (1 - u) ** -k) / 2 + mp.mpf(1) / p)
                    / (1 + mp.mpf(1) / p)
                )
                exact = sp_local_factor(k, p)
                got = mp.mpf(exact.numerator) / exact.denominator
                assert abs(got - direct) < 1e-70, (k, p)


def test_sp_ak_matches_exact_local_factors():
    # the working-precision product against the exact rational factors
    for k in (1, 2, 3):
        got = sp_quadratic_arithmetic_factor(k, prime_cutoff=200, precision_bits=128)
        want = math.prod(sp_local_factor(k, p) for p in primes_up_to(200))
        with mp.workprec(300):
            gap = abs(got.value - mp.mpf(want.numerator) / want.denominator)
            assert gap < mp.mpf(2) ** -110, k


def test_sp_ak_value_and_stability():
    a1 = sp_quadratic_arithmetic_factor(1, prime_cutoff=20_000)
    assert abs(float(a1) - 0.7044427661) < 1e-5
    a1_hi = sp_quadratic_arithmetic_factor(1, prime_cutoff=40_000)
    assert abs(float(a1.value - a1_hi.value)) <= a1.err_estimate


def test_sp_ak_rejects_bad_k():
    with pytest.raises(DomainError):
        sp_quadratic_arithmetic_factor(0)


# ------------------------------------------- fixed-point kernel vs mpf loops


def _mpf_zeta_product(k: Fraction, primes, bits: int) -> mp.mpf:
    # the zeta product with an mpf loop per prime at the ambient precision,
    # truncated like the kernel: each series at a = min(k, 1 - k) stops at
    # its first term below 2^-(bits + 16); the a^2 power is taken once
    eps = mp.ldexp(1, -(bits + 16))
    k_mp = mp.mpf(k.numerator) / k.denominator
    a = min(k_mp, 1 - k_mp)
    coeffs = [mp.mpf(1)]
    root = series = base = mp.mpf(1)
    for p in primes:
        x = 1 / mp.mpf(p)
        total = xp = mp.mpf(1)
        for j in range(1, 100_000):
            if j == len(coeffs):
                root = root * (a + j - 1) / j
                coeffs.append(root * root)
            xp *= x
            term = coeffs[j] * xp
            total += term
            if term < eps:
                break
        series *= total
        base *= 1 - x
    return mp.power(base, a * a) * series


def _mpf_sp_product(k: int, primes) -> mp.mpf:
    # the Sp product with an mpf loop per prime at the ambient precision:
    # (1-y)^{k(k-1)/2} (sum_m C(k, 2m) y^m + y (1-y)^k) / (1+y) at y = 1/p
    product = mp.mpf(1)
    for p in primes:
        y = 1 / mp.mpf(p)
        even = 0
        for m in range(k // 2, -1, -1):
            even = even * y + math.comb(k, 2 * m)
        product *= (1 - y) ** (k * (k - 1) // 2) * (even + y * (1 - y) ** k) / (1 + y)
    return product


# (cutoff, bits): every precision at cutoff 1e3, and 1e4 primes at 128 bits
KERNEL_CELLS = [(1000, 128), (1000, 256), (1000, 1024), (10_000, 128)]


@pytest.mark.parametrize("cutoff, bits", KERNEL_CELLS)
@pytest.mark.parametrize(
    "k",
    [1, 2, 3, Fraction(1, 2), Fraction(1, 3), Fraction(61, 2), 30, 60, 100],
    ids=str,
)
def test_zeta_kernel_matches_mpf_oracle(k, cutoff, bits):
    # k = 100 has coefficients ((a)_j / j!)^2 up to 2^193 beside c_0 = 1
    got = zeta_arithmetic_factor(k, prime_cutoff=cutoff, precision_bits=bits)
    with mp.workprec(bits + 128):
        want = _mpf_zeta_product(Fraction(k), primes_up_to(cutoff), bits)
        assert abs(got.value - want) < mp.ldexp(want, -(bits + 16))


@pytest.mark.parametrize(
    "k, cutoff, bits",
    [
        (k, cutoff, bits)
        for k in (1, 2, 3, 20, 200)
        for cutoff, bits in KERNEL_CELLS
        if k < 200 or cutoff < 10_000  # the k = 200 oracle takes ~1 s at 1e4
    ],
)
def test_sp_kernel_matches_mpf_oracle(k, cutoff, bits):
    got = sp_quadratic_arithmetic_factor(k, prime_cutoff=cutoff, precision_bits=bits)
    with mp.workprec(bits + 128):
        want = _mpf_sp_product(k, primes_up_to(cutoff))
        assert abs(got.value - want) < mp.ldexp(want, -(bits + 16))


@pytest.mark.parametrize("cutoff", [100, 1000, 10_000])
def test_sp_err_estimate_is_the_gap_to_the_half_cutoff_product(cutoff):
    primes = primes_up_to(cutoff)
    half = [p for p in primes if p <= cutoff // 2]
    for k in (1, 3, 20):
        got = sp_quadratic_arithmetic_factor(k, prime_cutoff=cutoff)
        bits = got.precision_bits
        with mp.workprec(bits + 128):
            gap = abs(_mpf_sp_product(k, primes) - _mpf_sp_product(k, half))
            floor = abs(got.value) * mp.ldexp(1, 8 - bits)
            # equal up to the float rounding of err_estimate and the floor
            assert abs(got.err_estimate - gap) <= gap * 2**-52 + floor, (k, cutoff)


def test_kernel_prefix_past_the_last_prime_is_the_full_product():
    # a cutoff with no prime in (X/2, X] would make the half-cutoff product
    # the full one; by Bertrand's postulate no X >= 100 is such a cutoff, so
    # the kernel is asked directly, with both prefixes ending at the last prime
    primes = primes_up_to(100)
    alpha, coeffs = 3, _sp_shape(3)
    with working_precision(128):
        half, full = _euler_products(
            primes, alpha, partial(_sp_local, coeffs), [len(primes), len(primes)]
        )
        assert half == full
        want = math.prod(sp_local_factor(3, p) for p in primes)
        assert abs(full - mp.mpf(want.numerator) / want.denominator) < mp.ldexp(full, -144)


# ------------------------------------------------ head, tail and the table


def _kernel_oracle(name: str, k: Fraction, cutoff: int) -> mp.mpf:
    """The product by the kernel over every prime up to the cutoff, at the
    ambient working precision: the route before the table, kept as oracle."""
    primes = primes_up_to(cutoff)
    if name == "zeta":
        a = min(k, 1 - k)
        bits = mp.mp.prec - GUARD_BITS
        make_local = partial(_zeta_local, a, bits, WorkBudget(10**18))
        return _euler_products(primes, a * a, make_local, [len(primes)])[0]
    k = int(k)
    alpha, coeffs = k * (k - 1) // 2, _sp_shape(k)
    return _euler_products(primes, alpha, partial(_sp_local, coeffs), [len(primes)])[0]


_FACTORS = {"zeta": zeta_arithmetic_factor, "spquad": sp_quadratic_arithmetic_factor}


@st.composite
def _euler_requests(draw):
    name = draw(st.sampled_from(["zeta", "spquad"]))
    if name == "spquad" or draw(st.booleans()):
        k = Fraction(draw(st.integers(1 if name == "spquad" else 0, 8)))
    else:
        den = draw(st.integers(2, 9))
        k = Fraction(draw(st.integers(-den // 2 + 1, 5 * den)), den)
    cutoff = int(10 ** draw(st.floats(2, 5)))
    bits = draw(st.sampled_from([64, 128, 256, 512, 1024]))
    assume(cutoff * bits <= 2 * 10**7)
    return name, k, cutoff, bits


@seed(34)
@settings(max_examples=60, deadline=None)
@given(_euler_requests())
@example(("zeta", Fraction(1, 2), 10**5, 128))
@example(("zeta", Fraction(61, 2), 50_000, 256))
@example(("zeta", Fraction(-1, 4), 3000, 1024))
@example(("zeta", Fraction(7, 3), 20_000, 512))
@example(("spquad", Fraction(3), 10**5, 64))
def test_head_and_tail_match_the_kernel_over_every_prime(request):
    # the derived bound of _truncated_products, 2^-(bits + 16) relative,
    # plus the oracle's own: its zeta series stop at a term below
    # 2^-(bits + 16), so each prime's factor is low by under
    # 2^-(bits + 16) / (p - 1), under 2^-(bits + 16) in all past P0 = 128;
    # and within the working-precision radius of the same route 64 bits up
    name, k, cutoff, bits = request
    arg = k if name == "zeta" else int(k)
    # (a first request may run the kernel, cheaper by charge: the second
    # reads the table, so both are checked)
    product = _FACTORS[name]
    first = product(arg, prime_cutoff=cutoff, precision_bits=bits)
    got = product(arg, prime_cutoff=cutoff, precision_bits=bits)
    product(arg, prime_cutoff=cutoff, precision_bits=bits + 64)
    finer = product(arg, prime_cutoff=cutoff, precision_bits=bits + 64)
    with working_precision(bits):
        want = _kernel_oracle(name, k, cutoff)
    with mp.workprec(bits + 256):
        for value in (first.value, got.value):
            assert abs(value - want) <= mp.ldexp(abs(want), -(bits + 15)), request
        assert abs(got.value - finer.value) <= mp.ldexp(abs(got.value), 8 - bits), request


def test_series_root_bits_past_the_least_root_bits(monkeypatch):
    # zeta at k = 21/2 sums at a = -19/2: the least root bits of a^2 give
    # 7, but there the series' sum passes 3/4, so its root bits are 8 and
    # P0 moves from 2^11 to 2^12; a cutoff of 20000 leaves a tail past P0
    a = Fraction(-19, 2)
    assert euler_products._least_root_bits(a * a) == 7
    assert euler_products._series_root_bits(a) == 8
    monkeypatch.setattr(euler_products, "_TABLES", OrderedDict())
    first = zeta_arithmetic_factor(Fraction(21, 2), 20000, 128)
    got = zeta_arithmetic_factor(Fraction(21, 2), 20000, 128)
    [(key, table)] = euler_products._TABLES.items()
    assert key[:2] == (12, 20000) and table.e == 8
    with working_precision(128):
        want = _kernel_oracle("zeta", Fraction(21, 2), 20000)
    with mp.workprec(128 + 256):
        for value in (first.value, got.value):
            assert abs(value - want) <= mp.ldexp(abs(want), -(128 + 15))


def test_one_table_serves_every_k_and_both_families(monkeypatch):
    # a table is built once per (P0, cutoff, width): every shape with root
    # bits up to 3 shares P0 = 128, each new width or cutoff builds one
    # more, a larger P0 one more; a key's first request builds it when it
    # is cheaper by charge than the kernel (zeta at a rational k), else its
    # second does.  A kept table gives the same products as a fresh one,
    # and no more than _MAX_TABLES tables and keys asked for are kept
    builds = []
    table = euler_products._Table

    def build(*fields):
        builds.append(fields[:2])
        return table(*fields)

    monkeypatch.setattr(euler_products, "_Table", build)
    monkeypatch.setattr(euler_products, "_TABLES", OrderedDict())
    orders = [("zeta", Fraction(j, 6)) for j in (-2, 1, 3, 6, 9, 12, 18)]
    orders += [("spquad", k) for k in (1, 2, 3)]
    first = [_FACTORS[name](k, 5000, 128) for name, k in orders]
    assert len(builds) == 1 and list(euler_products._TABLES) == [(7, 5000, 128 + GUARD_BITS)]
    again = [_FACTORS[name](k, 5000, 128) for name, k in reversed(orders)][::-1]
    assert again == first and len(builds) == 1
    for _ in range(2):
        _FACTORS["zeta"](2, 5000, 256)
        _FACTORS["spquad"](3, 6000, 128)
    assert len(builds) == 3
    # zeta k = 5 (sum_j C(4, j)^2 y^j) has root bits 5: its head runs to 512
    for _ in range(2):
        _FACTORS["zeta"](5, 5000, 128)
    assert len(builds) == 4 and list(euler_products._TABLES)[-1][0] == 9
    monkeypatch.setattr(euler_products, "_TABLES", OrderedDict())
    assert [_FACTORS[name](k, 5000, 128) for name, k in orders] == first
    for cutoff in range(1000, 1000 + 2 * euler_products._MAX_TABLES):
        _FACTORS["zeta"](Fraction(1, 2), cutoff, 64)
    assert len(euler_products._TABLES) == euler_products._MAX_TABLES


@pytest.mark.parametrize("name", ["zeta", "spquad"])
@pytest.mark.parametrize("k", range(1, 31))
def test_log_coefficients_of_integer_shapes(name, k):
    # m l_m from Newton's identity against log of the exact local factor,
    # expanded with mpmath's Taylor series; l_1 = 0 for both rows
    columns, key = 12, 1 - k if name == "zeta" else k
    alpha, flip = (key * key, 0) if name == "zeta" else (k * (k - 1) // 2, 1)
    c = euler_products._log_coefficients(name, key, alpha, flip, columns, 0)
    q = euler_products._tail_shape(name, key).poly
    with mp.workprec(512):
        shape = lambda y: (1 - y) ** alpha * mp.polyval(q[::-1], y) / (1 + y) ** flip
        logs = mp.taylor(lambda y: mp.log(shape(y)), 0, columns - 1)
        for m in range(1, columns):
            assert abs(c[m] - m * logs[m]) < mp.mpf(2) ** -400 * (1 + abs(c[m])), (m, c[m])
    assert c[1] == 0


def test_table_cache_is_shared_safely_by_threads(monkeypatch):
    # six threads ask for more tables than are kept, each twice, at once: a
    # table dropped between its lookup and its move to the end would raise,
    # two builds of one table would overlap in its sieve, and a kept table
    # changed would give sums unlike a table built alone
    monkeypatch.setattr(euler_products, "_TABLES", OrderedDict())
    cutoffs = [1000 + 50 * i for i in range(euler_products._MAX_TABLES + 4)]
    alone = {c: euler_products._power_sum_table(7, c, 96, WorkBudget(10**12), 48, 0, 10**9)[0]
             for c in cutoffs}
    euler_products._TABLES.clear()
    errors, got, active, overlaps = [], [], Counter(), []

    def sieve(limit):
        active[limit] += 1
        overlaps.extend([limit] * (active[limit] > 1))
        time.sleep(0.001)
        active[limit] -= 1
        return primes_up_to(limit)

    def ask(order):
        try:
            for c in order * 2:
                table, _ = euler_products._power_sum_table(7, c, 96, WorkBudget(10**12), 48, 0, 10**9)
                got.append((c, table))
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    monkeypatch.setattr(euler_products, "primes_up_to", sieve)
    threads = [threading.Thread(target=ask, args=(cutoffs[i:] + cutoffs[:i],)) for i in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and not overlaps and not any(t.is_alive() for t in threads)
    assert len(got) == 12 * len(cutoffs)
    assert all(table[:2] == alone[c][:2] for c, table in got)
    assert len(euler_products._TABLES) == euler_products._MAX_TABLES


def test_a_shape_of_ones_builds_no_table(monkeypatch):
    # zeta at k = 0 and 1 has every local factor 1: no log coefficient is
    # nonzero, so no sieve runs past the head and no table is built
    limits = []
    monkeypatch.setattr(euler_products, "_TABLES", OrderedDict())
    monkeypatch.setattr(euler_products, "primes_up_to", lambda n: limits.append(n) or primes_up_to(n))
    for k in (0, 1):
        got = zeta_arithmetic_factor(k, prime_cutoff=10**7, precision_bits=64)
        assert got.value == 1
    assert limits == [128, 128] and not euler_products._TABLES


def test_prime_zeta_two_is_its_floor_at_128_bits():
    with mp.workprec(256):
        assert euler_products._PRIME_ZETA_2 == int(mp.floor(mp.ldexp(mp.primezeta(2), 128)))


# ------------------------------------------------------------ family table


@pytest.mark.parametrize(
    "name, sym, k, product",
    [("zeta", U, Fraction(1, 3), zeta_arithmetic_factor),
     ("spquad", SP, Fraction(3), sp_quadratic_arithmetic_factor)],
)
def test_a_family_row_is_found_by_name_and_by_class(name, sym, k, product):
    want = product(k.numerator if k.denominator == 1 else k, prime_cutoff=500)
    for key in (name, sym):
        got, source = _family_factor(key, k, 500)
        assert got == want
        assert source == euler_products._FAMILIES[name].source
    # a class with no row reads a_k = 1
    assert _family_factor(O, k, 500) == (1, None)


# ------------------------------------------------------------------ assembly


def test_family_descriptor_coerces_and_validates():
    fam = FamilyDescriptor(sym=SP, conductor_exponent="1/2", label="quadratic")
    assert fam.conductor_exponent == Fraction(1, 2)
    with pytest.raises(DomainError):
        FamilyDescriptor(sym=U, conductor_exponent=0, label="bad")


@pytest.mark.parametrize("exponent", [math.nan, math.inf, -math.inf, "nan", "inf"])
def test_family_descriptor_rejects_non_finite_exponents(exponent):
    # Fraction raised a bare ValueError or OverflowError here
    with pytest.raises(DomainError, match="finite"):
        FamilyDescriptor(sym=U, conductor_exponent=exponent, label="bad")


def test_assemble_second_moment_classical_shape():
    fam = FamilyDescriptor(sym=U, conductor_exponent=1, label="zeta")
    with mp.workprec(256):
        a2 = RealApprox(value=6 / mp.pi**2, precision_bits=256, err_estimate=1e-70)
    shape = assemble_mean_value(fam, 2, a2)
    assert shape.log_power == 4
    assert shape.log_argument_exponent == 1
    with mp.workprec(256):
        want = 1 / (2 * mp.pi**2)
        assert abs(shape.coefficient.value - want) < 1e-60


def test_assemble_first_moment_is_unit():
    fam = FamilyDescriptor(sym=U, conductor_exponent=1, label="zeta")
    shape = assemble_mean_value(fam, 1, Fraction(1))
    assert shape.log_power == 1
    assert abs(float(shape.coefficient) - 1) < 1e-60


def test_assemble_sp_first_moment_passes_ak_through():
    fam = FamilyDescriptor(sym=SP, conductor_exponent=Fraction(1, 2), label="quadratic")
    ak = sp_quadratic_arithmetic_factor(1, prime_cutoff=2_000)
    shape = assemble_mean_value(fam, 1, ak)
    # g_1 = 1 and B_Sp(1) = 1, so the coefficient is a_1 itself
    assert shape.log_power == 1
    assert shape.log_argument_exponent == Fraction(1, 2)
    assert float(shape.coefficient) == pytest.approx(float(ak), rel=1e-25)


def test_assemble_rejects_bad_k():
    fam = FamilyDescriptor(sym=U, conductor_exponent=1, label="zeta")
    with pytest.raises(DomainError):
        assemble_mean_value(fam, 0, 1)


def _v_factorial(n: int, p: int) -> int:
    """v_p(n!) by Legendre's formula."""
    e = 0
    while n:
        n //= p
        e += n
    return e


def _ratio_exponents(sym, k: int) -> dict:
    """g_k / B(k)! as {p: e}: the Legendre engine's exponents of g_k minus
    v_p(B!), the oracle of the closed-form ratio that assemble_mean_value
    reads."""
    b = log_power(sym, k)
    exps = dict(moment_factored(sym, k).exponents)
    for p in primes_up_to(b):
        exps[p] = exps.get(p, 0) - _v_factorial(b, p)
    return exps


@lru_cache(maxsize=None)
def _exact_ratio(sym, k: int):
    """g_k / B(k)! exactly, as (odd numerator, odd denominator, power of 2)."""
    exps = _ratio_exponents(sym, k)
    two = exps.pop(2, 0)
    numer = FactoredInteger({p: e for p, e in exps.items() if e > 0}).value()
    denom = FactoredInteger({p: -e for p, e in exps.items() if e < 0}).value()
    return numer, denom, two


@pytest.mark.parametrize("bits", [64, 128, 256, 1024])
@pytest.mark.parametrize("k", [*range(1, 13), 30, 60, 120, 250])
@pytest.mark.parametrize("sym", list(SymmetryClass))
def test_assemble_coefficient_is_within_its_radius_of_the_exact_ratio(monkeypatch, sym, k, bits):
    monkeypatch.setenv("LFMOMENTS_PRECISION", str(bits))
    shape = assemble_mean_value(FamilyDescriptor(sym, 1, "test"), k, Fraction(3, 7))
    coeff = shape.coefficient
    assert coeff.precision_bits == bits and shape.log_power == log_power(sym, k)
    numer, denom, two = _exact_ratio(sym, k)
    with mp.workprec(2 * bits + 128):
        want = mp.ldexp(mp.mpf(3 * numer) / (7 * denom), two)
        # the float err_estimate underflows to 0.0 below ~4.5e-234; the
        # working-precision floor it stands for is |value| 2^(8 - bits)
        floor = abs(coeff.value) * mp.ldexp(1, 8 - bits)
        assert abs(coeff.value - want) <= max(mp.mpf(coeff.err_estimate), floor)


_ORACLE_BITS = 2 * 1024 + 64


@lru_cache(maxsize=None)
def _log_exact_ratio(sym, k: int) -> mp.mpf:
    """log(g_k / B(k)!) as the sum of e log p over its exponents, for k
    where the exact ratio's parts run to millions of bits."""
    with mp.workprec(_ORACLE_BITS):
        return mp.fsum(e * mp.log(p) for p, e in _ratio_exponents(sym, k).items() if e)


@pytest.mark.parametrize("bits", [64, 256, 1024])
@pytest.mark.parametrize("sym, k", [(U, 2000), (O, 2828), (SP, 2827)])
def test_assemble_coefficient_at_the_log_power_edge(monkeypatch, sym, k, bits):
    # B(k) ~ 4e6: log_pref and log G(k + 1/2) are ~2^24, so exp() spends
    # ~24 of the guard bits; the ratio is ~e^-3e7, below every float
    monkeypatch.setenv("LFMOMENTS_PRECISION", str(bits))
    coeff = assemble_mean_value(FamilyDescriptor(sym, 1, "test"), k, Fraction(3, 7)).coefficient
    assert coeff.precision_bits == bits and coeff.value > 0
    with mp.workprec(_ORACLE_BITS):
        log_want = _log_exact_ratio(sym, k) + mp.log(mp.mpf(3) / 7)
        # |want - value| = |value| |exp(log want - log value) - 1|
        gap = coeff.value * abs(mp.expm1(log_want - mp.log(coeff.value)))
        floor = coeff.value * mp.ldexp(1, 8 - bits)
        assert gap <= max(mp.mpf(coeff.err_estimate), floor)
