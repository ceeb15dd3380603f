"""Exact integer moment constants for the three classical symmetry types.

For a symmetry type (unitary U, orthogonal O, symplectic Sp) and a positive
integer k, the leading-order moment constant is a positive integer.  The
first few values per class are

    U:  1, 2, 42, 24024, ...
    O:  1, 2, 8, 128, ...
    Sp: 1, 2, 16, 768, ...

The log-power B(k) (k^2, k(k-1)/2 or k(k+1)/2) is the exponent of the
logarithm in the associated mean value, and the constants are normalized so
the mean value carries a 1/Gamma(1+B(k)) alongside.

Each constant is a ratio of factorials, so one engine applies Legendre's
formula to that all-factorial form and yields the exponent of every prime
without building g_k: level by level for the primes up to 2k, and B // p
for the primes above 2k, which have one level.  The factorization, the
valuations, the integer and its decimal string (both from the primes
grouped by exponent, FactoredInteger.value and decimal_string) come from it;
moment_constant_factorial_form, by exact division, is the independent test
oracle.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from math import factorial

from .errors import DomainError, IntegralityViolation, brief, require_int
from .numeric_core import FactoredInteger, _balanced_product, primes_up_to


class SymmetryClass(enum.Enum):
    U = "U"
    O = "O"
    Sp = "Sp"

    @classmethod
    def parse(cls, label: str) -> "SymmetryClass":
        key = label.strip().lower()
        table = {"u": cls.U, "o": cls.O, "sp": cls.Sp}
        if key not in table:
            raise DomainError(f"unknown symmetry class {label!r} (want U, O or Sp)")
        return table[key]


def require_class(sym) -> SymmetryClass:
    """sym, once it is a SymmetryClass member (by isinstance: on Python 3.12
    "U" in SymmetryClass is true); DomainError otherwise."""
    if not isinstance(sym, SymmetryClass):
        raise DomainError(f"sym must be SymmetryClass.U, O or Sp, got {brief(sym)}")
    return sym


def log_power(sym: SymmetryClass, k):
    """B(k): the exponent of log in the mean value.

    Exact for int and Fraction inputs, generic arithmetic otherwise
    (floats, mpf).
    """
    if require_class(sym) is SymmetryClass.U:
        return k * k
    twice = k * (k - 1) if sym is SymmetryClass.O else k * (k + 1)
    return twice // 2 if isinstance(k, int) else twice / 2


def moment_constant(sym: SymmetryClass, k: int) -> int:
    """The exact integer moment constant, multiplied out from its
    factorization (see moment_factored and FactoredInteger.value)."""
    return moment_factored(sym, k).value()


def _factorial_form(sym: SymmetryClass, k: int) -> tuple:
    """(numerator, denominator) of the all-factorial form of the constant,
    once _checked_log_power admits k."""

    def factorials(js):
        return _balanced_product([factorial(j) for j in js])

    b = _checked_log_power(sym, k)
    if sym is SymmetryClass.U:
        numer = factorial(b) * factorials(range(1, k)) ** 2
        denom = factorials(range(1, 2 * k))
    elif sym is SymmetryClass.O:
        numer = factorial(b) * 2 ** (b + k - 1) * factorials(range(1, k))
        denom = factorials(range(2, 2 * k - 1, 2))
    else:
        numer = factorial(b) * 2**b * factorials(range(1, k + 1))
        denom = factorials(range(2, 2 * k + 1, 2))
    return numer, denom


def moment_constant_factorial_form(sym: SymmetryClass, k: int) -> int:
    """The same integer by exact division of the all-factorial products.

    The independent test oracle for the Legendre engine; tests require it
    to agree with moment_constant everywhere.
    """
    g, rem = divmod(*_factorial_form(sym, k))
    if rem:
        raise IntegralityViolation(
            f"factorial-form moment constant for {sym.value}, k={k} is not integral"
        )
    return g


def _floor_sum(m: int, q: int) -> int:
    """sum_{j=0}^{m} floor(j/q), in closed form."""
    a = m // q
    return q * a * (a - 1) // 2 + a * (m - q * a + 1)


def _legendre_exponents(sym: SymmetryClass, k: int, primes) -> dict:
    """{p: exponent of p in the moment constant} for the given primes, zeros dropped.

    Legendre's formula, one level q = p^i at a time, applied to the
    all-factorial form that moment_constant_factorial_form multiplies out.
    A product of j! over j <= m contributes _floor_sum(m, q) per level; for
    (2j)!, floor(2j/q) = floor(j/q) + floor((j + (q-1)/2)/q) when q is odd
    and floor(j/(q/2)) when q is even.  A prime p > 2k has p^2 > 4k^2 >= top,
    so only the level q = p, where every floor sum is 0 (they need
    q <= 2k - 1): its exponent is B // p, with no level loop.
    """
    b = log_power(sym, k)
    m = k - 1 if sym is SymmetryClass.O else k
    cut = 2 * k
    top = max(b, cut)
    exps = {}
    for p in primes:
        if p > cut:
            e = b // p
        else:
            e = 0
            if p == 2 and sym is not SymmetryClass.U:
                e = b + k - 1 if sym is SymmetryClass.O else b
            q = p
            while q <= top:
                e += b // q
                if sym is SymmetryClass.U:
                    e += 2 * _floor_sum(k - 1, q) - _floor_sum(2 * k - 1, q)
                elif q % 2:
                    e -= _floor_sum(m + q // 2, q)  # the floor(j/q) parts cancel
                else:
                    e += _floor_sum(m, q) - _floor_sum(m, q // 2)
                q *= p
            if e < 0:
                raise IntegralityViolation(
                    f"moment constant for {sym.value}, k={k} has a negative "
                    f"power of {p}"
                )
        if e:
            exps[p] = e
    return exps


# the cost bound on B(k), the sieve limit: at 4 * 10**6 (U k = 2000, O and
# Sp k ~ 2828) g_k has ~1.2 * 10**7 digits, which gk prints in ~5 s and
# ~90 MB; gk U 100000 would otherwise allocate a 10 GB sieve
_MAX_LOG_POWER = 4_000_000


def _checked_log_power(sym: SymmetryClass, k: int) -> int:
    """B(k), once sym is a class, k an int >= 1 and B(k) <= _MAX_LOG_POWER;
    DomainError otherwise.  The one domain of every integer-k moment
    constant: moment_factored, the factorial form and assemble_mean_value."""
    b = log_power(sym, require_int("k", k, 1))
    if b > _MAX_LOG_POWER:
        raise DomainError(
            f"k passes the cost bound of the exact constants: "
            f"B(k) > {_MAX_LOG_POWER}"
        )
    return b


def moment_factored(sym: SymmetryClass, k: int) -> FactoredInteger:
    """Exact prime factorization of the moment constant, by Legendre's formula.

    No prime above max(2, B(k)) divides the constant (2 is the exception
    to B: g_O(2) = 2 while B = 1).  The integer itself is never built.
    B(k) past _MAX_LOG_POWER is a DomainError, raised before the sieve.
    The most recent constant is kept (see _factored), so a request for the
    same (sym, k) right after it reuses its exponents and decimal string.
    """
    _checked_log_power(sym, k)
    return _factored(sym, k)


# one entry: gk and gk --factor ask for the same constant back to back, and
# at the cost bound one FactoredInteger holds a ~1.2 * 10**7-digit string.
# Only moment_factored calls it, after its checks: the cache would take
# True, 3.0 or Fraction(3) as the key 1 or 3
@lru_cache(maxsize=1)
def _factored(sym: SymmetryClass, k: int) -> FactoredInteger:
    primes = primes_up_to(max(2, log_power(sym, k)))
    return FactoredInteger(_legendre_exponents(sym, k, primes))
