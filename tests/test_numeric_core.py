"""Integer helpers: primes, factored integers."""

import copy
import dataclasses
import math
import pickle
import sys
from fractions import Fraction
from functools import partial
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lfmoments import (
    DomainError,
    FactoredInteger,
    decimal_string,
    is_prime,
    moment_constant_factorial_form,
    moment_factored,
    primes_up_to,
    SymmetryClass,
)
from lfmoments import FamilyDescriptor, analytic_moments, assemble_mean_value, exact_moments
from lfmoments.euler_products import _check_cost
from lfmoments.numeric_core import _MAX_SIEVE_LIMIT, check_prime
from lfmoments.precision import working_precision


def test_primes_up_to():
    assert primes_up_to(1) == []
    assert primes_up_to(2) == [2]
    assert primes_up_to(20) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert primes_up_to(-10**5000) == []


# the last k whose B(k) is within _MAX_LOG_POWER, per class
_LOG_POWER_EDGE = {SymmetryClass.U: 2000, SymmetryClass.O: 2828, SymmetryClass.Sp: 2827}


def test_sieve_and_log_power_bounds_cover_every_internal_caller():
    # B(k) sizes the exact constants' sieve; the log sums sieve to 2n - 1;
    # the Euler products sieve to their cutoff
    assert exact_moments._MAX_LOG_POWER <= _MAX_SIEVE_LIMIT
    assert 2 * analytic_moments._LOG_SUM_MAX_N - 1 <= _MAX_SIEVE_LIMIT
    # the charge before the sieve admits its largest cutoff at 64 bits (by
    # bisection); every k with a sieve at 2^25 is refused before it
    with working_precision(64) as bits:
        assert _check_cost(0, 24_965_327, bits)[0] == 0
        with pytest.raises(DomainError, match="cost bound"):
            _check_cost(0, 24_965_328, bits)
        for k in (0, 1, Fraction(1, 2), Fraction(-2, 5)):
            with pytest.raises(DomainError, match="cost bound"):
                _check_cost(k, _MAX_SIEVE_LIMIT, bits)
    with pytest.raises(DomainError, match=f"at most {_MAX_SIEVE_LIMIT}, got {_MAX_SIEVE_LIMIT + 1}"):
        primes_up_to(_MAX_SIEVE_LIMIT + 1)


@pytest.mark.parametrize("sym", list(SymmetryClass))
def test_one_log_power_bound_serves_every_integer_k_constant(sym):
    # _checked_log_power is the one domain of the factorization, the
    # factorial-form oracle and the mean-value shape: each admits the edge
    # k and refuses the next one before any sieve or factorial
    edge = _LOG_POWER_EDGE[sym]
    bound = exact_moments._MAX_LOG_POWER
    assert exact_moments._checked_log_power(sym, edge) == exact_moments.log_power(sym, edge)
    assert exact_moments.log_power(sym, edge) <= bound < exact_moments.log_power(sym, edge + 1)
    family = FamilyDescriptor(sym, 1, "test")
    for call in (
        partial(exact_moments._checked_log_power, sym),
        partial(moment_factored, sym),
        partial(moment_constant_factorial_form, sym),
        lambda k: assemble_mean_value(family, k, 1),
    ):
        with pytest.raises(DomainError, match=f"B\\(k\\) > {bound}"):
            call(edge + 1)


def test_is_prime_agrees_with_sieve():
    # Miller-Rabin against the odd-only sieve: every limit below 200 (each
    # parity and square boundary of a small sieve), 0..5000, and the 5000
    # numbers up to the prime 10^6 + 3
    for limit in range(200):
        assert primes_up_to(limit) == [n for n in range(limit + 1) if is_prime(n)]
    assert primes_up_to(5000) == [n for n in range(5001) if is_prime(n)]
    high = 10**6 + 3
    tail = [n for n in range(high - 5000, high + 1) if is_prime(n)]
    primes = primes_up_to(high)
    assert primes[-len(tail) :] == tail
    assert primes[-len(tail) - 1] < high - 5000


def _strong_probable_prime(n, a):
    s = ((n - 1) & (1 - n)).bit_length() - 1
    x = pow(a, (n - 1) >> s, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


CARMICHAEL = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,
              321197185, 5394826801, 232250619601, 9746347772161]
STRONG_PSEUDOPRIMES_BASE_2 = [2047, 3277, 4033, 4681, 8321, 15841, 29341,
                              42799, 49141, 52633, 65281, 74665, 80581, 85489]
# the least strong pseudoprimes to the first 12 and 13 prime bases
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def test_is_prime_rejects_pseudoprimes():
    for n in CARMICHAEL:
        assert all(pow(a, n - 1, n) == 1 for a in (2, 5, 17) if n % a), n
        assert not is_prime(n), n
    for n in STRONG_PSEUDOPRIMES_BASE_2:
        assert _strong_probable_prime(n, 2), n
        assert not is_prime(n), n
    assert all(_strong_probable_prime(PSI_12, a)
               for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))
    assert not is_prime(PSI_12)


def test_is_prime_near_large_powers_of_ten():
    primes = {10**12 - 11, 10**12 + 39, 10**12 + 61, 10**12 + 63,
              10**18 - 11, 10**18 + 3, 10**18 + 9, 10**18 + 31}
    # composites with known factors: prime squares, semiprimes, 10^18 + 1
    composites = {999983**2, 999983 * 1000003, (10**9 + 7) ** 2,
                  (10**9 + 7) * (10**9 + 9), 101 * 9901 * 999999000001}
    for n in primes:
        assert is_prime(n), n
    for n in composites:
        assert not is_prime(n), n
    for base in (10**12, 10**18):
        for n in range(base - 12, base + 64):
            if n not in primes:
                assert not is_prime(n), n


def test_is_prime_refuses_beyond_deterministic_range():
    assert not is_prime(PSI_13 - 1)  # even
    with pytest.raises(DomainError):
        is_prime(PSI_13)
    with pytest.raises(DomainError):
        is_prime(10**30 + 57)


def test_check_prime_agrees_with_is_prime():
    # the sieve below 2^16, Miller-Rabin above it
    around_limit = range(2**16 - 100, 2**16 + 100)
    for n in [*range(-3, 3000), *around_limit, *STRONG_PSEUDOPRIMES_BASE_2]:
        if is_prime(n):
            check_prime(n)
        else:
            with pytest.raises(DomainError):
                check_prime(n)
    for p in (3.0, Fraction(3), "3", None):
        with pytest.raises(DomainError):
            check_prime(p)


@given(st.one_of(
    st.sampled_from([0, 1, -1, 10**1233, 10**1234, 10**5000, 10**5000 - 1]),
    st.integers(min_value=4090, max_value=4200).map(lambda b: 2**b - 1),
    st.integers(min_value=-(2**20000), max_value=2**20000),
    st.integers(min_value=0, max_value=2**4096 + 2**100),
))
@settings(max_examples=300)
def test_decimal_string_matches_str(n):
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # str(n) is the reference at any length
    try:
        expected = str(n)
    finally:
        sys.set_int_max_str_digits(before)
    assert decimal_string(n) == expected


def test_decimal_string_ignores_int_str_limit():
    g = 3**20000  # 9543 digits, past CPython's default 4300-digit limit
    text = decimal_string(g)
    assert len(text) == 9543
    assert int(text[-12:]) == g % 10**12


def test_factored_integer_accessors():
    f = moment_factored(SymmetryClass.U, 4)
    assert f.value() == 24024
    assert max(f.exponents) == 13
    assert f.exponents[7] == 1
    assert 5 not in f.exponents
    assert f == FactoredInteger({13: 1, 11: 1, 7: 1, 3: 1, 2: 3})


def test_factored_integer_is_immutable():
    # moment_factored hands one cached instance to every caller
    exponents = {2: 3, 3: 1}
    f = FactoredInteger(exponents)
    exponents[2] = 5
    exponents[5] = 1
    assert f.exponents == {2: 3, 3: 1} and f.value() == 24
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.exponents = {2: 5}
    with pytest.raises(TypeError):
        f.exponents[2] = 5
    with pytest.raises(TypeError):
        del f.exponents[3]
    assert f.exponents == {2: 3, 3: 1}
    for twin in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
        assert twin == f and isinstance(twin.exponents, MappingProxyType)


@pytest.mark.parametrize("exponents", [
    {4: 1, 2: -1}, {2: 0}, {2: 1.5}, {"a": 1}, {1: 1}, {0: 2}, {-3: 1},
    {True: 1}, {2: True}, {2.0: 1}, {2: Fraction(2)}, {3: 1, 2: None},
], ids=repr)
def test_factored_integer_refuses_a_bad_mapping(exponents):
    # {4: 1, 2: -1} gave value() 2.0 but decimal_string() "8", and
    # {2: 1.5} and {"a": 1} ended in AttributeError or TypeError
    with pytest.raises(DomainError, match="integers >= 2 to integer exponents >= 1"):
        FactoredInteger(exponents)


def test_factored_integer_leaves_primality_to_its_caller():
    f = FactoredInteger({4: 1, 2: 1})
    assert f.value() == 8 and f.decimal_string() == "8"
    assert FactoredInteger({}).value() == 1


def test_factored_decimal_string_is_built_once():
    f = moment_factored(SymmetryClass.U, 60)
    text = f.decimal_string()
    assert f.decimal_string() is text
    # the cached text is neither a field nor part of equality or repr
    assert f == FactoredInteger(dict(f.exponents))
    assert text not in repr(f)
    assert [field.name for field in dataclasses.fields(f)] == ["exponents"]


@given(st.dictionaries(st.sampled_from(primes_up_to(100)),
                       st.integers(min_value=1, max_value=40), max_size=12))
@settings(max_examples=300)
def test_factor_roundtrip(exponents):
    # the balanced product tree of value() against a plain running product
    f = FactoredInteger(exponents)
    assert f.value() == math.prod(p**e for p, e in exponents.items())


@pytest.mark.parametrize("sym", list(SymmetryClass))
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8])
def test_factor_roundtrip_on_moment_constants(sym, k):
    f = moment_factored(sym, k)
    assert f.value() == moment_constant_factorial_form(sym, k)
    assert all(is_prime(p) for p in f.exponents)


@pytest.fixture
def int_str_limit_lifted():
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # str(n) is the reference at any length
    yield
    sys.set_int_max_str_digits(before)


@pytest.mark.parametrize("sym", list(SymmetryClass))
def test_factored_decimal_string_matches_str_of_value(sym, int_str_limit_lifted):
    # every k up to 120, then a stride up to k = 260, where g_U has 137,235
    # digits; str() is quadratic, so the stride keeps the test to seconds
    for k in sorted({*range(1, 121), *range(130, 261, 26)}):
        f = moment_factored(sym, k)
        assert f.decimal_string() == str(f.value()), (sym, k)


@given(st.one_of(
    st.dictionaries(st.sampled_from(primes_up_to(200)),
                    st.integers(min_value=1, max_value=2**12), max_size=10),
    st.dictionaries(st.sampled_from(primes_up_to(5000)),
                    st.integers(min_value=1, max_value=40), max_size=300),
))
@example({})
@example({2: 2**20})
@example({7919: 3, 2: 5, 101: 3, 3: 1, 65521: 5})  # keys not ascending
# one exponent group of 600 17-bit primes: three slices of 240
@example(dict.fromkeys(primes_up_to(70000)[-600:], 3))
@settings(max_examples=100, deadline=None)
def test_factored_decimal_string_matches_the_binary_route(exponents):
    # decimal_string(value()) converts the binary integer, itself checked
    # against str above; {2: 2**20} would take str() seconds
    f = FactoredInteger(exponents)
    assert f.decimal_string() == decimal_string(f.value())
