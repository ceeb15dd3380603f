"""Mollified mean-square functionals, evaluated exactly.

The three smoothed second-moment functionals take two polynomial inputs
(the mollifier weight P, which must vanish at 0, and the shape Q) and
produce a Laurent polynomial in the length parameter theta with rational
coefficients.  Everything here is exact Fraction arithmetic; there is no
floating point anywhere in this module.

The orthogonal and symplectic functionals share one skeleton: a boundary
square plus a separable double integral of a square.  The symplectic
case runs it on the antiderivative of Q, which is also what makes
``mean_square(Sp, P, Q') == mean_square(O, P, Q)`` an exact identity for
odd Q.  Both are implemented verbatim for either parity of Q; no formula is
available for mixed parity, so that input is rejected rather than
decomposed.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    ConstraintError, DomainError, brief, require_int, require_mapping, require_rational,
)
from .exact_moments import SymmetryClass, require_class
from .numeric_core import decimal_string

# Advisory validity windows for the length parameter; results are exact
# identities on the displayed main terms and are not clipped to these.
THETA_VALIDITY = {
    SymmetryClass.U: Fraction(4, 7),
    SymmetryClass.O: Fraction(1),
    SymmetryClass.Sp: Fraction(1),
}


class RationalPolynomial:
    """Polynomial with exact rational coefficients, ascending order."""

    __slots__ = ("coeffs",)

    def __init__(self, coefficients=()):
        if not hasattr(coefficients, "__iter__"):
            raise DomainError(f"coefficients must be a sequence, got {brief(coefficients)}")
        cs = [require_rational("a coefficient", c) for c in coefficients]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        # -1 for the zero polynomial
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x) -> Fraction:
        x = require_rational("x", x)
        total = Fraction(0)
        for c in reversed(self.coeffs):
            total = total * x + c
        return total

    def derivative(self) -> "RationalPolynomial":
        return RationalPolynomial(
            i * c for i, c in enumerate(self.coeffs) if i >= 1
        )

    def antiderivative(self) -> "RationalPolynomial":
        """The primitive vanishing at 0."""
        return RationalPolynomial(
            [Fraction(0)] + [c / (i + 1) for i, c in enumerate(self.coeffs)]
        )

    def integral_unit(self) -> Fraction:
        """Definite integral over [0, 1]."""
        return sum(
            (c / (i + 1) for i, c in enumerate(self.coeffs)), Fraction(0)
        )

    def __add__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return RationalPolynomial(
            [x + y for x, y in zip(a, b)] + list(a[len(b):])
        )

    def __mul__(self, other):
        if isinstance(other, RationalPolynomial):
            if self.is_zero() or other.is_zero():
                return RationalPolynomial()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return RationalPolynomial(out)
        scalar = require_rational("a scalar", other)
        return RationalPolynomial(scalar * c for c in self.coeffs)

    __rmul__ = __mul__

    def is_even(self) -> bool:
        return all(c == 0 for c in self.coeffs[1::2])

    def is_odd(self) -> bool:
        return all(c == 0 for c in self.coeffs[0::2])

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"RationalPolynomial({list(self.coeffs)!r})"


class LaurentPolynomial:
    """Finite Laurent polynomial in theta with rational coefficients, from
    a mapping of powers to coefficients (None: the zero polynomial)."""

    __slots__ = ("coeffs",)

    def __init__(self, mapping=None):
        coeffs = {}
        if mapping is not None:
            for power, c in require_mapping("a LaurentPolynomial", mapping).items():
                power = require_int("a power of theta", power, None)
                c = require_rational("a coefficient", c)
                if c != 0:
                    coeffs[power] = c
        self.coeffs = dict(sorted(coeffs.items(), reverse=True))

    def is_zero(self) -> bool:
        return not self.coeffs

    def powers(self):
        return tuple(self.coeffs)

    def __getitem__(self, power: int) -> Fraction:
        return self.coeffs.get(power, Fraction(0))

    def evaluate(self, theta) -> Fraction:
        theta = require_rational("theta", theta)
        if theta <= 0:
            raise DomainError("theta must be positive")
        return sum(
            (c * theta**p for p, c in self.coeffs.items()), Fraction(0)
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(tuple(self.coeffs.items()))

    def format(self) -> str:
        """Render like ``1 + 2*theta^-1 + theta^-2`` (descending powers)."""
        if not self.coeffs:
            return "0"
        pieces = []
        for power in sorted(self.coeffs, reverse=True):
            c = self.coeffs[power]
            mag = -c if c < 0 else c
            if power == 0:
                body = decimal_string(mag)
            else:
                var = "theta" if power == 1 else f"theta^{power}"
                body = var if mag == 1 else f"{decimal_string(mag)}*{var}"
            if not pieces:
                pieces.append(f"-{body}" if c < 0 else body)
            else:
                pieces.append(f"- {body}" if c < 0 else f"+ {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"LaurentPolynomial({self.format()!r})"


def _boundary_plus_integral(
    p: RationalPolynomial, g: RationalPolynomial
) -> LaurentPolynomial:
    """(P(1)g'(1) + theta^-1 P'(1)g(1))^2
    + theta^-1 int int (theta^-1 P''(x)g(y) - theta P(x)g''(y))^2."""
    dp, ddp = p.derivative(), p.derivative().derivative()
    dg, ddg = g.derivative(), g.derivative().derivative()
    a, b = p(1) * dg(1), dp(1) * g(1)
    return LaurentPolynomial(
        {
            0: a * a,
            -1: 2 * a * b - 2 * (ddp * p).integral_unit() * (g * ddg).integral_unit(),
            -2: b * b,
            -3: (ddp * ddp).integral_unit() * (g * g).integral_unit(),
            1: (p * p).integral_unit() * (ddg * ddg).integral_unit(),
        }
    )


def mean_square(sym: SymmetryClass, p, q) -> LaurentPolynomial:
    """The mollified mean square of class sym, weight P and shape Q.

    U: P(1)^2 Q(0)^2 + theta^-1 * int int (P'(x)Q(y) + theta P(x)Q'(y))^2.
    O: the boundary square plus the double integral on Q, which must be
    even or odd.  Sp: the same on the antiderivative of Q (vanishing at
    0); it vanishes identically for odd Q.
    """
    sym = require_class(sym)
    p, q = (x if isinstance(x, RationalPolynomial) else RationalPolynomial(x) for x in (p, q))
    if p(0) != 0:
        raise ConstraintError("the mollifier weight P must satisfy P(0) = 0")
    if sym is SymmetryClass.U:
        dp, dq = p.derivative(), q.derivative()
        return LaurentPolynomial(
            {
                -1: (dp * dp).integral_unit() * (q * q).integral_unit(),
                0: p(1) ** 2 * q(0) ** 2
                + 2 * (dp * p).integral_unit() * (q * dq).integral_unit(),
                1: (p * p).integral_unit() * (dq * dq).integral_unit(),
            }
        )
    even = q.is_even()
    if not even and not q.is_odd():
        raise ConstraintError(
            "Q must be an even or odd polynomial; mixed parity has no formula here"
        )
    if sym is SymmetryClass.O:
        return _boundary_plus_integral(p, q)
    if not even:
        return LaurentPolynomial()
    return _boundary_plus_integral(p, q.antiderivative())
