"""Exact integer and rational primitives used by everything else.

All arithmetic here is exact: Python ints, fractions.Fraction, and decimal
in a context that traps any rounding.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from typing import Dict, List, Union

from .errors import DomainError

Rational = Union[int, Fraction]


def factorial(n: int) -> int:
    if n < 0:
        raise DomainError(f"factorial of negative integer {n}")
    return math.factorial(n)


def abs_least_residue(n: int, b: int) -> int:
    """The representative of n mod b lying in (-b/2, b/2]."""
    if b < 1:
        raise DomainError(f"modulus must be positive, got {b}")
    r = n % b
    if 2 * r > b:
        r -= b
    return r


def _sieve(limit: int) -> bytearray:
    """Flags for 0..limit (limit >= 1): 1 exactly at the primes."""
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray((limit - p * p) // p + 1)
    return sieve


def primes_up_to(limit: int) -> List[int]:
    """All primes <= limit, by a bytearray sieve."""
    if limit < 2:
        return []
    return list(compress(range(limit + 1), _sieve(limit)))


# the thirteen prime bases 2..41, and the least strong pseudoprime to all of
# them (Sorenson and Webster, 2017): below it Miller-Rabin is deterministic
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test, exact for n < 3.317 * 10^24.

    Larger n raise DomainError instead of returning an unproven answer.
    """
    if n < 2:
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
    return bytes(_sieve(_SMALL_PRIME_LIMIT))


def check_prime(p) -> None:
    """Raise DomainError unless p is an int and a prime.

    A p up to 2^16 is looked up in a sieve built once (64 KiB), so that
    valuation sweeps stay cheap; larger p go through is_prime.
    """
    if not isinstance(p, int) or not (
        _small_prime_flags()[p] if 0 <= p <= _SMALL_PRIME_LIMIT else is_prime(p)
    ):
        raise DomainError(f"p must be a prime >= 2, got {p!r}")


@dataclass
class FactoredInteger:
    """A positive integer held as {prime: exponent}; exponents >= 1."""

    exponents: Dict[int, int] = field(default_factory=dict)

    def value(self) -> int:
        """The integer, as a balanced product tree over the prime powers."""
        factors = [p**e for p, e in self.exponents.items()]
        while len(factors) > 1:
            factors = [math.prod(factors[i : i + 2]) for i in range(0, len(factors), 2)]
        return factors[0] if factors else 1

    def decimal_string(self) -> str:
        """str(self.value()), built in decimal without the binary integer.

        The integer is prod_i P_i^(2^i), where P_i is the product of the
        primes whose exponent has bit i set: from the top bit down, square
        and multiply by a decimal product tree over P_i's primes.  Decimal
        multiplication is sub-quadratic and its str() is linear, so this
        skips both the binary product tree and the base conversion.  Values
        up to _FACTORED_DIRECT_BITS take the binary route, faster there.
        """
        items = self.exponents.items()
        if sum(e * math.log2(p) for p, e in items) <= _FACTORED_DIRECT_BITS:
            return decimal_string(self.value())
        ctx = _exact_decimal_context()
        acc = decimal.Decimal(1)
        for i in reversed(range(max(self.exponents.values()).bit_length())):
            factors = [decimal.Decimal(p) for p, e in items if e >> i & 1]
            while len(factors) > 1:
                paired = list(map(ctx.multiply, factors[::2], factors[1::2]))
                factors = paired + factors[len(paired) * 2 :]
            acc = ctx.multiply(acc, acc)
            if factors:
                acc = ctx.multiply(acc, factors[0])
        return str(acc)


# where the two routes cross for g_k of all three classes: 0.7-1.0 ms each
# at 2^14 bits (U k = 60, O and Sp k = 80; measured on a 2-vCPU x86-64)
_FACTORED_DIRECT_BITS = 1 << 14
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
    if n.bit_length() <= _DECIMAL_LEAF_BITS:
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
