"""Valuations of the moment constants, the paper's closed per-level terms
as their oracle, and the zero windows."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfmoments import (
    DomainError,
    OutOfRegime,
    SymmetryClass,
    UnsupportedClass,
    log_power,
    moment_constant_factorial_form,
    primes_up_to,
    valuation,
    zero_valuation_window,
)
from lfmoments import padic_valuation
from lfmoments.exact_moments import _legendre_exponents

U, O, SP = SymmetryClass.U, SymmetryClass.O, SymmetryClass.Sp

ODD_PRIMES = primes_up_to(997)[1:]


def half_floor_bracket(x) -> int:
    """floor((floor(x) + 1) / 2): for x >= 0 the number of odd integers in
    [1, x], the floor of the valuation formulas for odd double factorials."""
    fl = x if isinstance(x, int) else math.floor(x)
    return (fl + 1) // 2


def valuation_term(sym, p: int, ell: int, k: int) -> int:
    """The paper's closed level-ell summand of v_p for the U or O constant
    at an odd prime p: a nonnegative integer, and the sum over ell >= 1
    is the full valuation."""
    if sym is SP or p == 2:
        raise UnsupportedClass("closed valuation terms cover U and O at odd primes")
    q = p**ell
    if sym is U:
        a = (k - 1) // q
        b = (2 * k - 1) // q
        doubled = (
            2 * (k * k // q)
            + 2 * (2 * k - q) * a
            + (q - 4 * k) * b
            - 2 * q * a * a
            + q * b * b
        )
    else:
        m = half_floor_bracket((2 * k - 3) // q)
        doubled = 2 * (k * (k - 1) // 2 // q) - (2 * k - 1) * m + q * m * m
    assert doubled % 2 == 0, ("half-integer valuation term", sym, p, ell, k)
    return doubled // 2


def test_half_floor_bracket_values():
    assert half_floor_bracket(5) == 3
    assert half_floor_bracket(4) == 2
    assert half_floor_bracket(0) == 0


def test_half_floor_bracket_fractions():
    assert half_floor_bracket(Fraction(7, 2)) == 2
    assert half_floor_bracket(Fraction(-1, 2)) == 0


@given(st.integers(min_value=-500, max_value=500))
def test_half_floor_bracket_odd_identity(n):
    # on odd integers the bracket is exactly (n+1)/2
    m = 2 * n + 1
    assert half_floor_bracket(m) == (m + 1) // 2


@given(st.integers(min_value=-300, max_value=300))
def test_half_floor_bracket_nondecreasing(n):
    assert half_floor_bracket(n) <= half_floor_bracket(n + 1)





def test_term_examples():
    # 42 = 2*3*7: the level-2 term carries the whole 3-adic valuation
    assert valuation_term(U, 3, 2, 3) == 1
    assert valuation_term(U, 3, 1, 3) == 0
    # 128 = 2^7 has no 3-part
    assert valuation_term(O, 3, 1, 4) == 0


def test_term_vanishes_above_square():
    assert valuation_term(U, 7, 3, 10) == 0  # 343 > 100
    assert valuation_term(O, 11, 2, 9) == 0  # 121 > 81
    assert valuation_term(U, 997, 1, 31) == 0


def test_term_unsupported_cases():
    with pytest.raises(UnsupportedClass):
        valuation_term(SP, 3, 1, 4)
    with pytest.raises(UnsupportedClass):
        valuation_term(U, 2, 1, 4)


@given(
    sym=st.sampled_from([U, O]),
    p=st.sampled_from(ODD_PRIMES),
    ell=st.integers(min_value=1, max_value=6),
    k=st.integers(min_value=1, max_value=500),
)
@settings(max_examples=400)
def test_term_nonnegative(sym, p, ell, k):
    assert valuation_term(sym, p, ell, k) >= 0


def test_valuation_examples():
    assert valuation(U, 3, 100) == 65
    assert valuation(U, 2, 100) == 95
    assert valuation(U, 5, 3) == 0


@pytest.mark.parametrize("sym", list(SymmetryClass))
def test_valuation_matches_factor_oracle(sym):
    for k in range(1, 26):
        g = moment_constant_factorial_form(sym, k)
        for p in primes_up_to(max(2, log_power(sym, k))):
            v, rest = 0, g
            while rest % p == 0:
                rest //= p
                v += 1
            assert valuation(sym, p, k) == v, (sym, p, k)


def _legendre(n, p):
    """v_p(n!) by Legendre's formula."""
    v = 0
    while n:
        n //= p
        v += n
    return v


def _factorial_form_valuation(sym, p, k):
    """v_p of the all-factorial form, one factorial at a time."""
    b = log_power(sym, k)
    if sym is U:
        return (
            _legendre(b, p)
            + 2 * sum(_legendre(j, p) for j in range(1, k))
            - sum(_legendre(j, p) for j in range(1, 2 * k))
        )
    m, twos = (k - 1, b + k - 1) if sym is O else (k, b)
    return (
        (twos if p == 2 else 0)
        + _legendre(b, p)
        + sum(_legendre(j, p) - _legendre(2 * j, p) for j in range(1, m + 1))
    )


@pytest.mark.parametrize("sym", list(SymmetryClass))
def test_valuation_matches_legendre_on_factorial_form(sym):
    # k = 150 reaches prime powers above 10^4 in every class
    for k in [*range(1, 61), 150]:
        g = moment_constant_factorial_form(sym, k)
        for p in primes_up_to(max(2, log_power(sym, k))):
            v = valuation(sym, p, k)
            assert v == _factorial_form_valuation(sym, p, k), (sym, p, k)
            q, r = divmod(g, p**v)
            assert r == 0 and q % p != 0, (sym, p, k)
    # at k = 250 and 400 the engine's per-level loop stops at 2k and the
    # primes in (2k, B] take B // p: every prime up to 4k, then a stride,
    # the top of the range and the first primes past B
    for k in (250, 400):
        b = log_power(sym, k)
        primes = primes_up_to(b + 100)
        split = primes.index(next(p for p in primes if p > 4 * k))
        above = [p for p in primes if p > b]
        sample = primes[:split] + primes[split::37] + primes[-len(above) - 5 :]
        for p in sample:
            v = valuation(sym, p, k)
            assert v == _factorial_form_valuation(sym, p, k), (sym, p, k)
        assert all(valuation(sym, p, k) == 0 for p in above)


@pytest.mark.parametrize("sym", list(SymmetryClass))
def test_valuation_past_log_power_is_zero(sym):
    # a single prime above B(k) gets no exponent, not a zero entry
    for k, p in ((1, 2), (3, 11), (10, 101), (100, 10007)):
        assert p > log_power(sym, k)
        assert valuation(sym, p, k) == 0
        assert _legendre_exponents(sym, k, [p]) == {}


@pytest.mark.parametrize("sym", [U, O])
def test_closed_terms_sum_to_valuation(sym):
    for k in range(1, 61):
        for p in ODD_PRIMES:
            if p > log_power(sym, k):
                break
            terms = 0
            ell = 1
            while p**ell <= k * k:
                terms += valuation_term(sym, p, ell, k)
                ell += 1
            assert terms == valuation(sym, p, k), (sym, p, k)


def test_symplectic_shift_in_valuations():
    # v_p(g_{k,Sp}) = v_p(g_{k+1,O}) minus k twos
    for k in (3, 7, 12, 20):
        for p in (2, 3, 5, 7, 11):
            expect = valuation(O, p, k + 1) - (k if p == 2 else 0)
            assert valuation(SP, p, k) == expect


def test_window_examples():
    assert zero_valuation_window(U, 101, 100) is True
    assert zero_valuation_window(U, 113, 100) is False
    assert zero_valuation_window(U, 103, 100) is True


def test_window_out_of_regime():
    with pytest.raises(OutOfRegime):
        zero_valuation_window(U, 10007, 100)  # p > B(k)
    with pytest.raises(OutOfRegime):
        zero_valuation_window(U, 3, 100)  # p^2 <= B(k)
    with pytest.raises(UnsupportedClass):
        zero_valuation_window(SP, 101, 100)


def test_window_rejects_two():
    # O, k = 3 puts p = 2 in the regime (4 > B = 3 > 2), yet v_2(g_3) = 3:
    # the criterion is for odd primes only
    assert valuation(O, 2, 3) == 3
    with pytest.raises(UnsupportedClass):
        zero_valuation_window(O, 2, 3)
    with pytest.raises(UnsupportedClass):
        zero_valuation_window(U, 2, 2)


@pytest.mark.parametrize("p", [0, 1, 4, 9, 91, 3.0])
def test_valuation_rejects_non_primes(p):
    # valuation(U, 4, 10) used to answer 4, as if 4 were prime
    for sym in (U, O, SP):
        with pytest.raises(DomainError):
            valuation(sym, p, 10)


@pytest.mark.parametrize("p", [0, 1, 4, 9, 91, 3.0])
def test_window_rejects_non_primes(p):
    for sym in (U, O):
        with pytest.raises(DomainError):
            zero_valuation_window(sym, p, 10)


@pytest.mark.parametrize("k", [0, -3, 2.5, 3.0, "3"])
def test_orders_must_be_positive_integers(k):
    # a non-integer order is a DomainError here as in moment_factored
    with pytest.raises(DomainError):
        valuation(U, 3, k)
    with pytest.raises(DomainError):
        zero_valuation_window(U, 5, k)


@pytest.mark.parametrize("sym", [U, O])
def test_window_matches_vanishing(sym):
    for k in range(2, 121):
        B = log_power(sym, k)
        for p in ODD_PRIMES:
            if p * p <= B or p >= B:
                continue
            assert zero_valuation_window(sym, p, k) == (valuation(sym, p, k) == 0)


def test_unitary_window_interval_forces_zero():
    # k < p < k + sqrt(p) kills the valuation outright
    for k in range(1, 121):
        for p in ODD_PRIMES:
            if k < p and (p - k) ** 2 < p:
                assert valuation(U, p, k) == 0, (p, k)


def test_valuation_past_the_cost_bound_is_refused_before_any_work(monkeypatch):
    # 10^1500 took ~0.9 s at p = 2, and the time grows faster than the
    # square of k's width; 2^4096 is the first k refused
    calls = []

    def engine(sym, k, primes):
        calls.append(k)
        return {}

    monkeypatch.setattr(padic_valuation, "_legendre_exponents", engine)
    for k in (2**4096, 10**1500, 10**4299):
        with pytest.raises(DomainError, match="cost bound"):
            valuation(U, 2, k)
    assert valuation(U, 2, 2**4096 - 1) == 0
    assert calls == [2**4096 - 1]
