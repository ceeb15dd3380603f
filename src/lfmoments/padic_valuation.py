"""p-adic valuations of the exact moment constants, and the zero windows.

valuation(sym, p, k) is the Legendre exponent engine of exact_moments: one
closed sum per level q = p^ell over the all-factorial form, for every prime
(2 included) and every class, without building the constant.  The paper's
closed per-level terms for U and O at odd primes, nonnegative integers
built from floor divisions, sum to the same valuation; the test suite keeps
them as its oracle.  The zero-window criterion covers U and O at odd primes.
"""

from __future__ import annotations

from .errors import DomainError, OutOfRegime, UnsupportedClass, require_int
from .exact_moments import SymmetryClass, _legendre_exponents, log_power, require_class
from .numeric_core import check_prime


# the cost bound on k: Legendre's sum walks ~log_p(k^2) levels of big-int
# divisions, so the time grows faster than the square of k's width; k < 2^4096
# (1233 digits) answers in at most ~0.6 s for p = 2 or 3, where 2^6644
# took ~2 s (every class, 2-vCPU x86-64, CPython 3.11)
_MAX_VALUATION_K_BITS = 4096


def valuation(sym: SymmetryClass, p: int, k: int) -> int:
    """v_p of the exact moment constant, for every prime p and class.

    Legendre's formula on the all-factorial form; the constant itself is
    never built.  k >= 2^_MAX_VALUATION_K_BITS is a DomainError, raised
    before any work.
    """
    if require_int("k", k, 1).bit_length() > _MAX_VALUATION_K_BITS:
        raise DomainError(
            f"k passes the cost bound of the valuations: "
            f"k >= 2^{_MAX_VALUATION_K_BITS}"
        )
    check_prime(p)
    return _legendre_exponents(sym, k, [p]).get(p, 0)


def zero_valuation_window(sym: SymmetryClass, p: int, k: int) -> bool:
    """Whether v_p vanishes, by the window criterion (odd p, regime p^2 > B(k) > p).

    U window:  k < p < k + sqrt(p)
    O window:  k - sqrt(k+p) < p < k + sqrt(k+p)

    Outside the regime (p >= B(k), where the valuation is trivially zero, or
    p^2 <= B(k), where it is always positive) raises OutOfRegime.
    """
    if require_class(sym) is SymmetryClass.Sp:
        raise UnsupportedClass(
            "window criterion covers U and O; use the O window at k+1 for Sp"
        )
    check_prime(p)
    if p == 2:
        raise UnsupportedClass(f"the window criteria need an odd prime, got {p}")
    b = log_power(sym, require_int("k", k, 1))
    if p >= b:
        raise OutOfRegime(f"p={p} >= B(k)={b}: valuation is trivially zero there")
    if p * p <= b:
        raise OutOfRegime(
            f"p={p} has p^2 = {p * p} <= B(k): valuation is always positive"
        )
    d = p - k
    if sym is SymmetryClass.U:
        return p > k and d * d < p
    return d * d < k + p
