"""Precision policy: explicit-precision real values.

All approximate results carry the precision they were computed at and a
heuristic error estimate.  Every approximate routine resolves its
precision, checks the 64-bit floor and the 8192-bit ceiling and adds the
guard bits through ``working_precision``, and wraps its result with
``approx``, so nothing in the package mutates mpmath's global precision.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .errors import DomainError, brief, require_int

DEFAULT_PRECISION_BITS = 256
MIN_PRECISION_BITS = 64
# cold on 2 vCPUs, every route took 6-15 s at 8192 bits, as at 4096 bits;
# ghalf took 102 s at 16384 bits
MAX_PRECISION_BITS = 8192
# extra working bits on top of the requested precision
GUARD_BITS = 48

# Optional override, a decimal bit count, e.g. LFMOMENTS_PRECISION=384.
_ENV_VAR = "LFMOMENTS_PRECISION"


@dataclass(frozen=True)
class RealApprox:
    """A real number with its working precision and an error estimate.

    ``err_estimate`` is a heuristic bound on the absolute error, not a
    certified enclosure.
    """

    value: mpmath.mpf
    precision_bits: int
    err_estimate: float

    def __float__(self) -> float:
        return float(self.value)

    def digits(self, n: int = 15) -> str:
        with mpmath.workprec(max(self.precision_bits, 53)):
            return mpmath.nstr(self.value, n)


@contextmanager
def working_precision(precision_bits=None):
    """Run the block at the requested precision plus GUARD_BITS; yields the
    requested bit count, an int from MIN_PRECISION_BITS to MAX_PRECISION_BITS.
    ``None`` is LFMOMENTS_PRECISION's int if that is at least 64, else 256."""
    bits = precision_bits
    if bits is None:
        try:
            bits = int(os.environ.get(_ENV_VAR, DEFAULT_PRECISION_BITS))
        except ValueError:
            bits = DEFAULT_PRECISION_BITS
        if bits < MIN_PRECISION_BITS:
            bits = DEFAULT_PRECISION_BITS
    bits = require_int("precision_bits", bits, MIN_PRECISION_BITS, MAX_PRECISION_BITS)
    with mpmath.workprec(bits + GUARD_BITS):
        yield bits


def to_mpf(x) -> mpmath.mpf:
    """A finite real input as an mpf at the working precision.

    An int or Fraction is rounded once; anything else goes through
    mpmathify.  A bool or a non-numeric input is a DomainError.
    """
    if isinstance(x, bool):
        raise DomainError(f"real parameters must be numbers, got {x!r}")
    if isinstance(x, (int, Fraction)):
        return _ratio_to_mpf(x.numerator, x.denominator)
    try:
        value = x.value if isinstance(x, RealApprox) else mpmath.mpmathify(x)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"real parameters must be numbers, got {brief(x)}") from exc
    if isinstance(value, mpmath.mpc):
        raise DomainError("complex degree parameters are not supported here")
    if not mpmath.isfinite(value):
        raise DomainError(f"real parameters must be finite, got {value}")
    return value


def _ratio_to_mpf(p: int, q: int) -> mpmath.mpf:
    """p / q (q >= 1) rounded once to the working precision.

    No part reaches mpf whole: mpf(n) stores n exactly, stripping its
    trailing zero bits 8 at a time (seconds for 10**500000).  Instead the
    integer quotient is taken to at least prec + 1 bits, a sticky bit
    below it records a nonzero remainder, an exact quotient sheds its
    trailing zero bits in one shift, and mpf rounds that to nearest.
    """
    shift = mpmath.mp.prec + 2 - p.bit_length() + q.bit_length()
    n = abs(p)
    man, rem = divmod(n << shift, q) if shift >= 0 else divmod(n, q << -shift)
    man = man << 1 | (rem != 0)
    zeros = max(0, (man & -man).bit_length() - 1)
    man >>= zeros
    return mpmath.mpf((-man if p < 0 else man, zeros - shift - 1))


def to_fraction(x) -> Fraction:
    """A finite real input exactly: an int or Fraction as given, anything
    else (a bool is refused) as the binary value of its mpf at the working
    precision."""
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return Fraction(x)
    sign, man, exp, _ = to_mpf(x)._mpf_
    return Fraction(-man if sign else man) * Fraction(2) ** exp


def approx(value: mpmath.mpf, bits: int, err=None) -> RealApprox:
    """Wrap a result computed inside ``working_precision(bits)``.

    The error estimate is ``err`` (the method's own error: a truncated
    tail, an extrapolation gap, a remainder) but never less than the
    working-precision floor ``|value| * 2^(8 - bits)``.
    """
    floor = abs(value) * mpmath.mpf(2) ** (8 - bits)
    if err is None or err < floor:
        err = floor
    try:
        err_f = float(err)
    except OverflowError:
        err_f = float("inf")
    # no unary plus here: it would re-round value at the ambient global
    # precision, which is 53 bits whenever the caller sits outside workprec
    return RealApprox(value=value, precision_bits=bits, err_estimate=err_f)
