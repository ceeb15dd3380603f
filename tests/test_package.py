"""The package's public surface."""

import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from functools import partial

import pytest

import lfmoments
from lfmoments import DomainError, LfmomentsError, SymmetryClass
from lfmoments.analytic_moments import log_sum_asymptotics
from lfmoments.numeric_core import check_prime

U = SymmetryClass.U


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from lfmoments import *", namespace)  # a stale name raises here
    assert set(lfmoments.__all__) <= namespace.keys()
    assert len(set(lfmoments.__all__)) == len(lfmoments.__all__)


def test_bare_import_loads_no_layer():
    code = ("import sys, lfmoments; "
            "print(sorted(m for m in sys.modules if m.startswith('lfmoments.') or m == 'mpmath'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.path.dirname(lfmoments.__path__[0])})
    assert proc.stdout.strip() == "[]", proc.stderr


def test_public_surface_is_the_listed_names():
    # a new public name is added here on purpose, with a caller outside the tests
    assert sorted(lfmoments.__all__) == [
        "ConstraintError", "Cusp", "DomainError", "FactoredInteger", "FamilyDescriptor",
        "IntegralityViolation", "LaurentPolynomial", "LfmomentsError", "MeanValueShape",
        "NoConvergence", "OutOfRegime", "PoleError", "PreconditionError",
        "RationalPolynomial", "RealApprox", "SelfSimilar", "SymmetryClass",
        "THETA_VALIDITY", "UnsupportedClass", "VerticalTangent", "__version__",
        "assemble_mean_value", "barnes_g", "classify_point", "decimal_string",
        "density_exact", "density_numeric", "half_moment_unitary", "is_prime",
        "log_moment_asymptotic", "log_power", "mean_square", "moment_by_limit",
        "moment_closed_form", "moment_constant", "moment_constant_factorial_form",
        "moment_factored", "moment_ratio_closed_form", "pole_order", "primes_up_to",
        "sample_density", "sp_quadratic_arithmetic_factor", "valuation",
        "zero_valuation_window", "zeta_arithmetic_factor",
    ]


def test_lazy_namespace_resolves_every_public_name():
    listed = dir(lfmoments)
    for name in lfmoments.__all__:
        assert getattr(lfmoments, name) is not None
        assert name in listed
    assert lfmoments.moment_closed_form.__module__ == "lfmoments.analytic_moments"
    with pytest.raises(AttributeError, match="no_such_name"):
        lfmoments.no_such_name


_HUGE = 10**5000  # past CPython's default 4300-digit int-to-str limit


@pytest.fixture
def default_int_str_limit():
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(before)


# one call per integer, class or precision slot of a public callable, the
# other arguments valid; each takes the hostile value as its last argument
_FAMILY = lfmoments.FamilyDescriptor(U, 1, "test")
_INT_SLOTS = {
    "primes_up_to.limit": lfmoments.primes_up_to,
    "is_prime.n": lfmoments.is_prime,
    "decimal_string.n": lfmoments.decimal_string,
    "FactoredInteger.prime": lambda v: lfmoments.FactoredInteger({v: 1}),
    "FactoredInteger.exponent": lambda v: lfmoments.FactoredInteger({2: v}),
    "moment_constant.k": partial(lfmoments.moment_constant, U),
    "moment_constant_factorial_form.k": partial(lfmoments.moment_constant_factorial_form, U),
    "moment_factored.k": partial(lfmoments.moment_factored, U),
    "valuation.p": lambda v: lfmoments.valuation(U, v, 5),
    "valuation.k": partial(lfmoments.valuation, U, 3),
    "zero_valuation_window.p": lambda v: lfmoments.zero_valuation_window(U, v, 10),
    "zero_valuation_window.k": partial(lfmoments.zero_valuation_window, U, 11),
    "density_exact.p": lambda v: lfmoments.density_exact(v, Fraction(1, 3)),
    "density_numeric.p": lambda v: lfmoments.density_numeric(v, Fraction(1, 3)),
    "classify_point.p": lambda v: lfmoments.classify_point(v, 1, 7),
    "classify_point.a": lambda v: lfmoments.classify_point(3, v, 7),
    "classify_point.b": partial(lfmoments.classify_point, 3, 1),
    "sample_density.p": lambda v: lfmoments.sample_density(v, 1, 2, 3),
    "sample_density.n": partial(lfmoments.sample_density, 3, 1, 2),
    "moment_by_limit.target_digits": lambda v: lfmoments.moment_by_limit(U, 1, v),
    "pole_order.k": partial(lfmoments.pole_order, U),
    "log_moment_asymptotic.k": partial(lfmoments.log_moment_asymptotic, U),
    "log_sum_asymptotics.n": partial(log_sum_asymptotics, "log_j"),
    "zeta_arithmetic_factor.prime_cutoff": partial(lfmoments.zeta_arithmetic_factor, 2),
    "sp_quadratic_arithmetic_factor.k": lfmoments.sp_quadratic_arithmetic_factor,
    "sp_quadratic_arithmetic_factor.prime_cutoff":
        partial(lfmoments.sp_quadratic_arithmetic_factor, 2),
    "assemble_mean_value.k": lambda v: lfmoments.assemble_mean_value(_FAMILY, v, 1),
    "barnes_g.precision_bits": partial(lfmoments.barnes_g, 1),
    "moment_ratio_closed_form.precision_bits":
        partial(lfmoments.moment_ratio_closed_form, U, 1),
    "moment_closed_form.precision_bits": partial(lfmoments.moment_closed_form, U, 1),
    "moment_by_limit.precision_bits": partial(lfmoments.moment_by_limit, U, 1, 8),
    "half_moment_unitary.precision_bits": lfmoments.half_moment_unitary,
    "pole_order.precision_bits": partial(lfmoments.pole_order, U, 1),
    "log_moment_asymptotic.precision_bits": partial(lfmoments.log_moment_asymptotic, U, 2),
    "log_sum_asymptotics.precision_bits": partial(log_sum_asymptotics, "log_j", 2),
    "zeta_arithmetic_factor.precision_bits":
        partial(lfmoments.zeta_arithmetic_factor, 2, 100),
    "sp_quadratic_arithmetic_factor.precision_bits":
        partial(lfmoments.sp_quadratic_arithmetic_factor, 2, 100),
    "LaurentPolynomial.power": lambda v: lfmoments.LaurentPolynomial({v: 1}),
}
_CLASS_SLOTS = {
    "log_power.sym": lambda v: lfmoments.log_power(v, 3),
    "moment_constant.sym": lambda v: lfmoments.moment_constant(v, 3),
    "moment_constant_factorial_form.sym": lambda v: lfmoments.moment_constant_factorial_form(v, 3),
    "moment_factored.sym": lambda v: lfmoments.moment_factored(v, 3),
    "valuation.sym": lambda v: lfmoments.valuation(v, 2, 3),
    "zero_valuation_window.sym": lambda v: lfmoments.zero_valuation_window(v, 11, 10),
    "moment_ratio_closed_form.sym": lambda v: lfmoments.moment_ratio_closed_form(v, 3),
    "moment_closed_form.sym": lambda v: lfmoments.moment_closed_form(v, 3),
    "moment_by_limit.sym": lambda v: lfmoments.moment_by_limit(v, 3),
    "pole_order.sym": lambda v: lfmoments.pole_order(v, 3),
    "log_moment_asymptotic.sym": lambda v: lfmoments.log_moment_asymptotic(v, 3),
    "mean_square.sym": lambda v: lfmoments.mean_square(v, [0, 1], [1]),
    "FamilyDescriptor.sym": lambda v: lfmoments.FamilyDescriptor(v, 1, "test"),
    # slots that take a structure none of these values is: a label, a
    # family, a coefficient sequence
    "SymmetryClass.parse.label": SymmetryClass.parse,
    "assemble_mean_value.family": lambda v: lfmoments.assemble_mean_value(v, 2, 1),
    "RationalPolynomial.coefficients": lfmoments.RationalPolynomial,
    "mean_square.P_sequence": lambda v: lfmoments.mean_square(U, v, [1]),
    "FactoredInteger.exponents": lfmoments.FactoredInteger,
    "LaurentPolynomial.mapping": lfmoments.LaurentPolynomial,
}
# one call per exact-rational slot (require_rational) and per slot that
# to_mpf reads, the other arguments valid
_POLY = lfmoments.RationalPolynomial([0, 1])
_RATIONAL_SLOTS = {
    "FamilyDescriptor.conductor_exponent": lambda v: lfmoments.FamilyDescriptor(U, v, "test"),
    "RationalPolynomial.coefficient": lambda v: lfmoments.RationalPolynomial([0, v]),
    "RationalPolynomial.x": _POLY,
    "RationalPolynomial.scalar": lambda v: _POLY * v,
    "LaurentPolynomial.coefficient": lambda v: lfmoments.LaurentPolynomial({1: v}),
    "LaurentPolynomial.theta": lfmoments.LaurentPolynomial({1: 1}).evaluate,
    "mean_square.P": lambda v: lfmoments.mean_square(U, [0, v], [1]),
    "mean_square.Q": lambda v: lfmoments.mean_square(U, [0, 1], [v]),
    "density_exact.x": partial(lfmoments.density_exact, 3),
    "density_numeric.x": partial(lfmoments.density_numeric, 3),
    "density_numeric.eps": partial(lfmoments.density_numeric, 3, Fraction(1, 3)),
    "sample_density.eps": partial(lfmoments.sample_density, 3, 1, 2, 3),
    "assemble_mean_value.ak": partial(lfmoments.assemble_mean_value, _FAMILY, 2),
    "barnes_g.z": lfmoments.barnes_g,
    "zeta_arithmetic_factor.k": lambda v: lfmoments.zeta_arithmetic_factor(v, 100),
}
# a message names a long text by its start and length, as brief does
_LONG_TEXT = "x" * 1000
_NOT_RATIONALS = {
    "True": True, "False": False, "nan": math.nan, "inf": math.inf, "-inf": -math.inf,
    "text": "x", "None": None, "long_text": _LONG_TEXT,
}
_NOT_INTS = {
    "True": True, "False": False, "1.5": 1.5, "nan": math.nan, "inf": math.inf,
    "-inf": -math.inf, "str": "2", "7/2": Fraction(7, 2), "1/huge": Fraction(1, _HUGE),
    "long_text": _LONG_TEXT,
}
_NOT_CLASSES = {"str": "U", "None": None, "0": 0, "long_text": _LONG_TEXT}
# valid rationals far past a float's range and precision: each rational
# slot answers them or raises a toolkit error of its own
_LONG_RATIONALS = {
    "1/long": Fraction(1, 10**4000), "1+1/long": Fraction(10**4000 + 1, 10**4000),
    "-huge": -_HUGE,
}
# the slots where a 5000-digit int is a valid input: the call answers, or
# raises a toolkit error of its own (OutOfRegime, past the window's regime)
_HUGE_ANSWERS = {
    ("primes_up_to.limit", -_HUGE), ("FactoredInteger.prime", _HUGE),
    ("FactoredInteger.exponent", _HUGE),
    ("is_prime.n", -_HUGE), ("decimal_string.n", _HUGE), ("decimal_string.n", -_HUGE),
    ("zero_valuation_window.k", _HUGE), ("classify_point.a", _HUGE),
    ("pole_order.k", _HUGE), ("log_moment_asymptotic.k", _HUGE),
    ("LaurentPolynomial.power", _HUGE), ("LaurentPolynomial.power", -_HUGE),
}


def _hostile_calls():
    for slot, call in _INT_SLOTS.items():
        for name, value in _NOT_INTS.items():
            if slot == "decimal_string.n" and isinstance(value, Fraction):
                continue  # decimal_string takes Fractions
            yield pytest.param(partial(call, value), False, id=f"{slot}-{name}")
        for name, value in (("huge", _HUGE), ("-huge", -_HUGE)):
            answers = (slot, value) in _HUGE_ANSWERS
            yield pytest.param(partial(call, value), answers, id=f"{slot}-{name}")
    for slot, call in _RATIONAL_SLOTS.items():
        for name, value in _NOT_RATIONALS.items():
            yield pytest.param(partial(call, value), False, id=f"{slot}-{name}")
        for name, value in _LONG_RATIONALS.items():
            yield pytest.param(partial(call, value), True, id=f"{slot}-{name}")
    for slot, call in _CLASS_SLOTS.items():
        for name, value in _NOT_CLASSES.items():
            if slot == "SymmetryClass.parse.label" and value == "U":
                continue  # parse takes the text of a class
            if slot == "LaurentPolynomial.mapping" and value is None:
                continue  # None is the zero polynomial
            yield pytest.param(partial(call, value), False, id=f"{slot}-{name}")


@pytest.mark.parametrize(
    "call, answers",
    [
        pytest.param(lambda: lfmoments.moment_constant(U, -_HUGE), False, id="moment_constant"),
        pytest.param(lambda: lfmoments.moment_factored(U, -_HUGE), False, id="moment_factored"),
        pytest.param(lambda: lfmoments.valuation(U, 3, -_HUGE), False, id="valuation"),
        pytest.param(lambda: lfmoments.valuation(U, 3, _HUGE), False, id="valuation_cost"),
        pytest.param(lambda: lfmoments.sample_density(3, 1, 2, _HUGE), False,
                     id="sample_density"),
        pytest.param(lambda: lfmoments.zeta_arithmetic_factor(2, prime_cutoff=-_HUGE), False,
                     id="zeta_arithmetic_factor"),
        pytest.param(lambda: log_sum_asymptotics("log_j", _HUGE), False,
                     id="log_sum_asymptotics"),
        pytest.param(lambda: check_prime(-_HUGE), False, id="check_prime"),
        pytest.param(lambda: lfmoments.moment_constant(U, True), False,
                     id="moment_constant_bool"),
        pytest.param(lambda: lfmoments.valuation(U, 3, True), False, id="valuation_bool"),
        *_hostile_calls(),
    ],
)
def test_huge_or_boolean_arguments_raise_only_domain_error(default_int_str_limit, call, answers):
    # each message states its bound; formatting a 5000-digit argument into
    # it raised ValueError, moment_constant(U, True) returned 1 and
    # moment_constant("U", 3) returned Sp's g_3.  No result is repr'd:
    # mpmath's repr of barnes_g(10**5000) took minutes
    start = time.perf_counter()
    try:
        call()
    except DomainError as exc:
        assert len(str(exc)) < 200
    except LfmomentsError as exc:
        assert answers, exc
        assert len(str(exc)) < 200
    else:
        assert answers, "a hostile argument was accepted"
    assert time.perf_counter() - start < 2


# the public callables with no slot row, and why
_NO_SLOT_ROWS = (
    (("LfmomentsError", "DomainError", "PreconditionError", "IntegralityViolation",
      "UnsupportedClass", "OutOfRegime", "PoleError", "NoConvergence", "ConstraintError"),
     "an exception class takes any message"),
    (("RealApprox",), "a result record, built by the approximate routines from checked values"),
    (("SelfSimilar", "Cusp", "VerticalTangent"), "classify_point's answers"),
    (("MeanValueShape",), "assemble_mean_value's answer"),
)


def test_every_public_callable_has_a_slot_row():
    rows = {slot.split(".")[0] for table in (_INT_SLOTS, _CLASS_SLOTS, _RATIONAL_SLOTS)
            for slot in table}
    exempt = {name for names, _ in _NO_SLOT_ROWS for name in names}
    public = {name for name in lfmoments.__all__ if callable(getattr(lfmoments, name))}
    assert exempt <= public and not exempt & rows
    assert public - exempt <= rows, public - exempt - rows
