"""Exact mollified mean-square functionals as Laurent polynomials in theta."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfmoments import (
    ConstraintError,
    DomainError,
    LaurentPolynomial,
    RationalPolynomial,
    SymmetryClass,
    THETA_VALIDITY,
    m_orthogonal,
    m_symplectic,
    m_unitary,
    mean_square,
)

X = RationalPolynomial((0, 1))  # P(x) = x
X2 = RationalPolynomial((0, 0, 1))  # P(x) = x^2
ONE = RationalPolynomial((1,))
Y = RationalPolynomial((0, 1))


def L(**powers):
    return LaurentPolynomial({int(k): Fraction(v) for k, v in powers.items()})


def lp(mapping):
    return LaurentPolynomial({k: Fraction(v) for k, v in mapping.items()})


# ------------------------------------------------------------ polynomial ops


def test_polynomial_basics():
    p = RationalPolynomial((0, Fraction(1, 2), 1))
    assert p(2) == Fraction(5)
    assert p.degree == 2
    assert p.derivative() == RationalPolynomial((Fraction(1, 2), 2))
    assert p.antiderivative()(1) == Fraction(1, 4) + Fraction(1, 3)
    assert p.integral_unit() == Fraction(7, 12)


def test_polynomial_parity():
    assert RationalPolynomial((1, 0, 3)).is_even()
    assert RationalPolynomial((0, 2, 0, 5)).is_odd()
    assert RationalPolynomial(()).is_even() and RationalPolynomial(()).is_odd()
    mixed = RationalPolynomial((1, 1))
    assert not mixed.is_even() and not mixed.is_odd()


def test_polynomial_algebra():
    assert X * X == X2
    assert X + X == 2 * X
    assert (X2 * ONE).degree == 2
    # the longer operand on either side
    assert ONE + X2 == X2 + ONE == RationalPolynomial((1, 0, 1))


def test_polynomials_hash_and_repr_by_their_coefficients():
    half = RationalPolynomial((0, Fraction(1, 2)))
    assert hash(half) == hash(RationalPolynomial([0, Fraction(1, 2), 0]))
    assert len({X, Y, X2}) == 2
    assert repr(half) == "RationalPolynomial([Fraction(0, 1), Fraction(1, 2)])"
    laurent = lp({0: 1, -2: Fraction(-3, 2)})
    assert hash(laurent) == hash(lp({-2: Fraction(-3, 2), 0: 1, 1: 0}))
    assert len({laurent, lp({0: 1, -2: Fraction(-3, 2)}), lp({0: 1})}) == 2
    assert repr(laurent) == "LaurentPolynomial('1 - 3/2*theta^-2')"


# ------------------------------------------------------------- the examples


def test_unitary_examples():
    assert m_unitary(X, ONE) == lp({0: 1, -1: 1})
    assert m_unitary(X2, ONE) == lp({0: 1, -1: Fraction(4, 3)})
    assert m_unitary(RationalPolynomial(()), ONE).is_zero()


def test_orthogonal_examples():
    assert m_orthogonal(X, ONE) == lp({-2: 1})
    assert m_orthogonal(X, Y) == lp({0: 1, -1: 2, -2: 1})
    assert m_orthogonal(X2, ONE) == lp({-2: 4, -3: 4})


def test_symplectic_examples():
    assert m_symplectic(X, ONE) == lp({0: 1, -1: 2, -2: 1})
    assert m_symplectic(X, Y).is_zero()
    # (1 + 2/theta)^2 + (4/3)/theta^3; the boundary term carries P'(1) = 2
    assert m_symplectic(X2, ONE) == lp({0: 1, -1: 4, -2: 4, -3: Fraction(4, 3)})


def test_mean_square_dispatch():
    assert mean_square(SymmetryClass.U, X, ONE) == m_unitary(X, ONE)
    assert mean_square(SymmetryClass.O, X, ONE) == m_orthogonal(X, ONE)
    assert mean_square(SymmetryClass.Sp, X, ONE) == m_symplectic(X, ONE)


def test_coefficient_sequences_are_accepted():
    assert m_unitary([0, 1], [1]) == m_unitary(X, ONE)


# ---------------------------------------------------------------- contracts


def test_weight_constraint():
    bad = RationalPolynomial((1, 1))  # P(0) = 1
    for fn in (m_unitary, m_orthogonal, m_symplectic):
        with pytest.raises(ConstraintError):
            fn(bad, ONE)


def test_parity_constraint_for_o_and_sp():
    mixed = RationalPolynomial((1, 1))
    with pytest.raises(ConstraintError):
        m_orthogonal(X, mixed)
    with pytest.raises(ConstraintError):
        m_symplectic(X, mixed)
    # the unitary functional has no parity condition
    m_unitary(X, mixed)


def test_theta_validity_advisory():
    assert THETA_VALIDITY[SymmetryClass.U] == Fraction(4, 7)
    assert THETA_VALIDITY[SymmetryClass.O] == 1
    assert THETA_VALIDITY[SymmetryClass.Sp] == 1


# ------------------------------------------------------------- evaluation


def test_evaluate_examples():
    assert lp({0: 1, -1: 1}).evaluate(Fraction(1, 2)) == 3
    assert lp({-2: 1}).evaluate(Fraction(4, 7)) == Fraction(49, 16)
    assert LaurentPolynomial({}).evaluate(Fraction(3, 4)) == 0


def test_evaluate_rejects_nonpositive_theta():
    with pytest.raises(DomainError):
        lp({-1: 1}).evaluate(0)
    with pytest.raises(DomainError):
        lp({-1: 1}).evaluate(Fraction(-1, 2))


# ---------------------------------------------------------- property checks


def coeffs(draw_ints):
    return st.lists(draw_ints, min_size=1, max_size=5).map(
        lambda cs: [Fraction(c) for c in cs]
    )


small_ints = st.integers(min_value=-6, max_value=6)


@st.composite
def weight_poly(draw):
    cs = draw(st.lists(small_ints, min_size=1, max_size=5))
    return RationalPolynomial([0] + cs)


@st.composite
def odd_poly(draw):
    cs = draw(st.lists(small_ints, min_size=1, max_size=3))
    out = []
    for c in cs:
        out += [0, c]
    return RationalPolynomial(out)


@given(p=weight_poly(), q=odd_poly())
@settings(max_examples=80)
def test_sp_from_o_by_differentiating_q(p, q):
    assert m_symplectic(p, q.derivative()) == m_orthogonal(p, q)


@given(p=weight_poly(), c=st.integers(min_value=-5, max_value=5))
@settings(max_examples=60)
def test_scaling_is_quadratic(p, c):
    base = m_unitary(p, ONE)
    scaled = m_unitary(c * p, ONE)
    want = LaurentPolynomial(
        {k: Fraction(c * c) * base[k] for k in base.powers()}
    )
    assert scaled == want


@given(
    p=weight_poly(),
    theta=st.fractions(min_value=Fraction(1, 100), max_value=1, max_denominator=100),
)
@settings(max_examples=80)
def test_unitary_values_are_nonnegative(p, theta):
    # square plus integrals of squares
    assert m_unitary(p, ONE).evaluate(theta) >= 0


@given(p=weight_poly(), q=odd_poly())
@settings(max_examples=40)
def test_odd_q_kills_symplectic(p, q):
    assert m_symplectic(p, q).is_zero()


# ------------------------------------------------------------------- format


def test_format_examples():
    assert lp({0: 1, -1: 2, -2: 1}).format() == "1 + 2*theta^-1 + theta^-2"
    assert lp({1: 1, 0: -2}).format() == "theta - 2"
    assert LaurentPolynomial({}).format() == "0"

