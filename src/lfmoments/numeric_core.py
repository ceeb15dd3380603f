"""Exact integer and rational primitives used by everything else.

All arithmetic here is exact: Python ints, fractions.Fraction, and decimal
in a context that traps any rounding.  Primes come from a bytearray sieve
over the odd numbers; a FactoredInteger builds its integer and its decimal
string from one routine over its primes grouped by exponent.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import compress, groupby
from operator import itemgetter, mul
from types import MappingProxyType
from typing import Dict, List, Mapping, Union

from .errors import DomainError, brief, require_int

Rational = Union[int, Fraction]


def abs_least_residue(n: int, b: int) -> int:
    """The representative of n mod b lying in (-b/2, b/2]."""
    r = require_int("n", n, None) % require_int("b", b, 1)
    if 2 * r > b:
        r -= b
    return r


def _odd_sieve(limit: int) -> bytearray:
    """Flags for the odd numbers 1, 3, ..., <= limit: flag i is 1 exactly
    when 2i + 1 is prime.  Half the memory and work of a sieve over all n."""
    size = (limit + 1) // 2
    sieve = bytearray([1]) * size
    sieve[0] = 0
    for i in range(1, (math.isqrt(limit) + 1) // 2):
        if sieve[i]:
            p = 2 * i + 1
            start = p * p // 2  # the flag of p^2; the step p skips its even multiples
            sieve[start::p] = bytearray((size - 1 - start) // p + 1)
    return sieve


# above every internal limit: B(k) <= 4 * 10**6, the log sums' 2n - 1 and
# the largest cutoff the Euler products admit before the sieve, 24965327
_MAX_SIEVE_LIMIT = 1 << 25


def primes_up_to(limit: int) -> List[int]:
    """All primes <= limit ([] below 2; limit <= 2^25), by an odd-only sieve."""
    if require_int("limit", limit, None, _MAX_SIEVE_LIMIT) < 2:
        return []
    return [2, *compress(range(1, limit + 1, 2), _odd_sieve(limit))]


# the thirteen prime bases 2..41, and the least strong pseudoprime to all of
# them (Sorenson and Webster, 2017): below it Miller-Rabin is deterministic
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test, exact for n < 3.317 * 10^24.

    Larger n raise DomainError instead of returning an unproven answer.
    """
    if require_int("n", n, None) < 2:
        return False
    if n >= _MILLER_RABIN_LIMIT:
        raise DomainError(
            f"beyond the deterministic primality range (n < {_MILLER_RABIN_LIMIT})"
        )
    for a in _MILLER_RABIN_BASES:
        if n % a == 0:
            return n == a
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_SMALL_PRIME_LIMIT = 1 << 16


@lru_cache(maxsize=1)
def _small_prime_flags() -> bytes:
    """Flags for 0..2^16, 1 exactly at the primes (64 KiB)."""
    flags = bytearray(_SMALL_PRIME_LIMIT + 1)
    flags[1::2] = _odd_sieve(_SMALL_PRIME_LIMIT)
    flags[2] = 1
    return bytes(flags)


def check_prime(p) -> None:
    """Raise DomainError unless p is an int and a prime.

    A p up to 2^16 is looked up in a sieve built once (64 KiB), so that
    valuation sweeps stay cheap; larger p go through is_prime.
    """
    require_int("p", p, 2)
    if not (_small_prime_flags()[p] if p <= _SMALL_PRIME_LIMIT else is_prime(p)):
        raise DomainError(f"p must be a prime >= 2, got {brief(p)}")


def _balanced_product(factors: list, multiply=mul):
    """The product of a list as a balanced tree, so that the large products
    are sub-quadratic multiplications of near-equal halves; 1 when empty."""
    while len(factors) > 1:
        paired = list(map(multiply, factors[::2], factors[1::2]))
        factors = paired + factors[len(paired) * 2 :]
    return factors[0] if factors else 1


@dataclass(frozen=True)
class FactoredInteger:
    """A positive integer held as {prime: exponent}; exponents >= 1.

    Immutable: exponents is a read-only view of a private copy of the
    mapping it was built from, so a shared instance cannot be changed.
    Keys must be ints >= 2 and exponents ints >= 1 (bool is neither),
    else DomainError; primality is the caller's to ensure.
    """

    exponents: Mapping[int, int] = field(default_factory=dict)

    def __post_init__(self):
        exponents = dict(self.exponents)
        # whole-mapping checks: a require_int per item cost more than the
        # Legendre engine at U k = 250
        if exponents and not (
            set(map(type, exponents)) == {int} == set(map(type, exponents.values()))
            and min(exponents) >= 2 and min(exponents.values()) >= 1
        ):
            raise DomainError(
                "a FactoredInteger maps integers >= 2 to integer exponents >= 1"
            )
        object.__setattr__(self, "exponents", MappingProxyType(exponents))

    def __reduce__(self):
        # a mappingproxy cannot be pickled or deep-copied; its dict can
        return FactoredInteger, (dict(self.exponents),)

    def value(self) -> int:
        """The integer, from the same bit slices as its decimal string."""
        return _sliced_product(self.exponents, int, mul)

    def decimal_string(self) -> str:
        """str(self.value()), built once per instance in exact decimal
        arithmetic (sub-quadratic products, a linear str()), without the
        binary integer or its base conversion."""
        return self._decimal_text

    @cached_property
    def _decimal_text(self) -> str:
        ctx = _exact_decimal_context()
        return str(_sliced_product(self.exponents, decimal.Decimal, ctx.multiply))


def _sliced_product(exponents: Mapping[int, int], leaf, multiply):
    """prod p**e over {p: e}, as prod_i P_i^(2^i) with P_i the product of
    the primes whose exponent has bit i set.

    The primes are grouped by exponent once and each group multiplied out
    once: math.prod over slices of at most _DECIMAL_LEAF_BITS bits, one
    leaf (int or Decimal) per slice, then a product tree under multiply.
    From the top bit down the accumulator is squared and multiplied by the
    tree of the groups whose exponent has that bit set, so the large
    products are squarings instead of a tree over the prime powers.
    """
    groups: Dict[int, List[int]] = {}
    # g_k's exponents come in runs (B // p above the Legendre cut)
    for e, run in groupby(exponents.items(), itemgetter(1)):
        groups.setdefault(e, []).extend(map(itemgetter(0), run))
    products = {}
    for e, primes in groups.items():
        step = max(1, _DECIMAL_LEAF_BITS // max(primes).bit_length())
        products[e] = _balanced_product(
            [leaf(math.prod(primes[i : i + step])) for i in range(0, len(primes), step)],
            multiply,
        )
    acc = leaf(1)
    for i in reversed(range(max(groups, default=0).bit_length())):
        acc = multiply(acc, acc)
        factors = [d for e, d in products.items() if e >> i & 1]
        acc = multiply(acc, _balanced_product(factors, multiply))
    return acc


_DECIMAL_LEAF_BITS = 4096


def _exact_decimal_context() -> decimal.Context:
    """A decimal context whose arithmetic on integers never rounds."""
    return decimal.Context(
        prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact]
    )


def decimal_string(n: Rational) -> str:
    """str(n) for an int or Fraction, sub-quadratic and free of the int-to-str limit.

    Splits an integer at powers of two and recombines the halves exactly in
    decimal arithmetic, whose multiplication is sub-quadratic; pieces of at
    most 4096 bits convert directly.
    """
    if isinstance(n, Fraction):
        text = decimal_string(n.numerator)
        return text if n.denominator == 1 else f"{text}/{decimal_string(n.denominator)}"
    if require_int("n", n, None).bit_length() <= _DECIMAL_LEAF_BITS:
        return str(n)
    if n < 0:
        return "-" + decimal_string(-n)
    ctx = _exact_decimal_context()
    # powers[i] = 2**(4096 * 2**i), one per split level
    powers = [decimal.Decimal(1 << _DECIMAL_LEAF_BITS)]
    while _DECIMAL_LEAF_BITS << len(powers) < n.bit_length():
        powers.append(ctx.multiply(powers[-1], powers[-1]))

    def convert(m: int, level: int):
        # m < 2**(4096 * 2**level)
        if level == 0:
            return decimal.Decimal(m)
        half = _DECIMAL_LEAF_BITS << (level - 1)
        high = convert(m >> half, level - 1)
        low = convert(m & ((1 << half) - 1), level - 1)
        return ctx.add(ctx.multiply(high, powers[level - 1]), low)

    return str(convert(n, len(powers)))
