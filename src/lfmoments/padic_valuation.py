"""p-adic valuations of the exact moment constants, and the zero windows.

valuation(sym, p, k) is the Legendre exponent engine of exact_moments: one
closed sum per level q = p^ell over the all-factorial form, for every prime
(2 included) and every class, without building the constant.  For the U and
O constants at an odd prime the level-ell summand equals the paper's closed
per-level term, valuation_term, a nonnegative integer built from floor
divisions.  The zero-window criterion covers U and O at odd primes.
"""

from __future__ import annotations

from .errors import DomainError, IntegralityViolation, OutOfRegime, UnsupportedClass
from .exact_moments import SymmetryClass, _check_k, _legendre_exponents, log_power
from .numeric_core import check_prime, half_floor_bracket


def _check_odd_prime(p: int, what: str) -> None:
    check_prime(p)
    if p == 2:
        raise UnsupportedClass(f"{what} need an odd prime, got {p}")


def valuation_term(sym: SymmetryClass, p: int, ell: int, k: int) -> int:
    """The level-ell summand of v_p for the U or O constant (odd p only).

    Every term is a nonnegative integer; the sum over ell >= 1 (finitely
    many terms are nonzero) is the full valuation.
    """
    if sym is SymmetryClass.Sp:
        raise UnsupportedClass("symplectic valuations reduce to the O case at k+1")
    if sym not in (SymmetryClass.U, SymmetryClass.O):
        raise UnsupportedClass(f"no closed valuation term for {sym!r}")
    _check_odd_prime(p, "closed valuation terms")
    if ell < 1:
        raise DomainError(f"level must be >= 1, got {ell}")
    _check_k(k)
    q = p**ell
    if sym is SymmetryClass.U:
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
    if doubled % 2:
        raise IntegralityViolation(
            f"half-integer valuation term at {sym.value}, p={p}, ell={ell}, k={k}"
        )
    return doubled // 2


def valuation(sym: SymmetryClass, p: int, k: int) -> int:
    """v_p of the exact moment constant, for every prime p and class.

    Legendre's formula on the all-factorial form; the constant itself is
    never built.  For U and O at odd p the level-ell summand is
    valuation_term(sym, p, ell, k).
    """
    _check_k(k)
    check_prime(p)
    return _legendre_exponents(sym, k, [p]).get(p, 0)


def zero_valuation_window(sym: SymmetryClass, p: int, k: int) -> bool:
    """Whether v_p vanishes, by the window criterion (odd p, regime p^2 > B(k) > p).

    U window:  k < p < k + sqrt(p)
    O window:  k - sqrt(k+p) < p < k + sqrt(k+p)

    Outside the regime (p >= B(k), where the valuation is trivially zero, or
    p^2 <= B(k), where it is always positive) raises OutOfRegime.
    """
    if sym is SymmetryClass.Sp:
        raise UnsupportedClass(
            "window criterion covers U and O; use the O window at k+1 for Sp"
        )
    if sym not in (SymmetryClass.U, SymmetryClass.O):
        raise UnsupportedClass(f"no window criterion for {sym!r}")
    _check_odd_prime(p, "the window criteria")
    _check_k(k)
    b = log_power(sym, k)
    if p >= b:
        raise OutOfRegime(f"p={p} >= B(k)={b}: valuation is trivially zero there")
    if p * p <= b:
        raise OutOfRegime(f"p={p} has p^2 <= B(k)={b}: valuation is always positive")
    d = p - k
    if sym is SymmetryClass.U:
        return p > k and d * d < p
    return d * d < k + p
