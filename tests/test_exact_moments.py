"""Exact integer moment constants and their factored forms."""

from fractions import Fraction
from math import prod

import pytest

from lfmoments import (
    DomainError,
    SymmetryClass,
    is_prime,
    log_power,
    moment_constant,
    moment_constant_factorial_form,
    moment_factored,
    primes_up_to,
)
from lfmoments import exact_moments

U, O, SP = SymmetryClass.U, SymmetryClass.O, SymmetryClass.Sp

KNOWN = {
    U: {1: 1, 2: 2, 3: 42, 4: 24024},
    O: {1: 1, 2: 2, 3: 8, 4: 128},
    SP: {1: 1, 2: 2, 3: 16, 4: 768},
}


def test_symmetry_class_parse():
    assert SymmetryClass.parse("U") is U
    assert SymmetryClass.parse("o") is O
    assert SymmetryClass.parse("sp") is SP
    assert SymmetryClass.parse("Sp") is SP
    with pytest.raises(DomainError):
        SymmetryClass.parse("GL")


def test_log_power_values():
    assert log_power(U, 3) == 9
    assert log_power(O, 4) == 6
    assert log_power(SP, 4) == 10


def test_log_power_accepts_rationals():
    from fractions import Fraction

    assert log_power(U, Fraction(1, 2)) == Fraction(1, 4)
    assert log_power(O, Fraction(1, 2)) == Fraction(-1, 8)
    assert log_power(SP, Fraction(1, 2)) == Fraction(3, 8)


@pytest.mark.parametrize("sym", list(SymmetryClass))
def test_known_table(sym):
    for k, expected in KNOWN[sym].items():
        assert moment_constant(sym, k) == expected


def test_rejects_nonpositive_k():
    with pytest.raises(DomainError):
        moment_constant(U, 0)
    with pytest.raises(DomainError):
        moment_constant(O, -3)


@pytest.mark.parametrize("sym", list(SymmetryClass))
def test_two_product_forms_agree(sym):
    for k in range(1, 61):
        assert moment_constant(sym, k) == moment_constant_factorial_form(sym, k)


def test_orthogonal_symplectic_shift():
    # the (k+1)-st orthogonal constant is 2^k times the k-th symplectic one
    for k in range(1, 61):
        assert moment_constant(O, k + 1) == 2**k * moment_constant(SP, k)


@pytest.mark.parametrize("sym", list(SymmetryClass))
def test_positivity_and_unit_start(sym):
    assert moment_constant(sym, 1) == 1
    for k in range(1, 30):
        assert moment_constant(sym, k) >= 1


@pytest.mark.parametrize("sym, k", [(U, 2001), (O, 2829), (SP, 2828), (U, 100000)])
def test_factored_past_the_cost_bound_is_refused_before_the_sieve(monkeypatch, sym, k):
    # B(k) > 4 * 10**6 in each case; U 100000 would sieve to 10**10
    def no_sieve(limit):
        raise AssertionError(f"sieved to {limit}")

    monkeypatch.setattr(exact_moments, "primes_up_to", no_sieve)
    with pytest.raises(DomainError, match="cost bound"):
        moment_factored(sym, k)


@pytest.mark.parametrize("warm, bad", [(1, True), (3, 3.0), (3, Fraction(3))])
def test_cached_constant_does_not_answer_a_non_integer_k(warm, bad):
    # lru_cache keys True, 3.0 and Fraction(3) as 1 and 3: the checks of
    # moment_factored run before its cache is consulted
    moment_factored(U, warm)
    with pytest.raises(DomainError):
        moment_factored(U, bad)


def test_factored_cache_keeps_the_most_recent_constant_only():
    exact_moments._factored.cache_clear()
    first = moment_factored(U, 40)
    assert moment_factored(U, 40) is first
    for sym in SymmetryClass:
        for k in (5, 40, 5):
            moment_factored(sym, k)
            assert exact_moments._factored.cache_info().currsize == 1
    assert moment_factored(U, 40) is not first
    assert moment_factored(U, 40) == first


def test_factored_examples():
    assert moment_factored(U, 3).exponents == {2: 1, 3: 1, 7: 1}
    assert moment_factored(O, 1).exponents == {}


def test_factored_u100_display():
    f = moment_factored(U, 100)
    assert f.exponents[2] == 95
    assert f.exponents[3] == 65
    assert f.exponents[5] == 24
    assert f.exponents[7] == 33
    assert max(f.exponents) == 9973


@pytest.mark.parametrize("sym", list(SymmetryClass))
def test_factored_matches_direct_factorization(sym):
    # a product of primes equal to the integer is its factorization
    for k in (1, 2, 3, 5, 8, 12, 17):
        exponents = moment_factored(sym, k).exponents
        assert prod(p**e for p, e in exponents.items()) == (
            moment_constant_factorial_form(sym, k)
        )
        assert all(is_prime(p) for p in exponents)
    # at k = 250 and 400 most primes lie in (2k, B], past the Legendre
    # engine's per-level loop; the product times the factorial form's
    # denominator is its numerator (the division alone takes seconds)
    for k in (250, 400):
        f = moment_factored(sym, k)
        numer, denom = exact_moments._factorial_form(sym, k)
        assert f.value() * denom == numer, (sym, k)
        assert all(is_prime(p) for p in f.exponents)


@pytest.mark.parametrize("sym", list(SymmetryClass))
def test_primes_beyond_log_power_never_divide(sym):
    # lone exception: the orthogonal k=2 constant is 2 while B(2)=1,
    # so the "no prime above B(k)" rule skips that one point
    for k in range(1, 41):
        if sym is O and k == 2:
            continue
        rest = moment_constant_factorial_form(sym, k)
        for p in primes_up_to(log_power(sym, k)):
            while rest % p == 0:
                rest //= p
        assert rest == 1, (sym, k, rest)
    assert moment_constant(O, 2) == 2 and log_power(O, 2) == 1
