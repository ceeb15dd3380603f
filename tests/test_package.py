"""The package's public surface."""

import sys

import pytest

import lfmoments
from lfmoments import DomainError, SymmetryClass
from lfmoments.numeric_core import check_prime

U = SymmetryClass.U


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from lfmoments import *", namespace)  # a stale name raises here
    assert set(lfmoments.__all__) <= namespace.keys()
    assert len(set(lfmoments.__all__)) == len(lfmoments.__all__)


_HUGE = 10**5000  # past CPython's default 4300-digit int-to-str limit


@pytest.fixture
def default_int_str_limit():
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(before)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: lfmoments.moment_constant(U, -_HUGE), id="moment_constant"),
        pytest.param(lambda: lfmoments.moment_factored(U, -_HUGE), id="moment_factored"),
        pytest.param(lambda: lfmoments.valuation(U, 3, -_HUGE), id="valuation"),
        pytest.param(lambda: lfmoments.valuation(U, 3, _HUGE), id="valuation_cost"),
        pytest.param(lambda: lfmoments.factorial(-_HUGE), id="factorial"),
        pytest.param(lambda: lfmoments.sample_density(3, 1, 2, _HUGE), id="sample_density"),
        pytest.param(lambda: lfmoments.zeta_arithmetic_factor(2, prime_cutoff=-_HUGE),
                     id="zeta_arithmetic_factor"),
        pytest.param(lambda: lfmoments.log_sum_asymptotics("log_j", _HUGE), id="log_sum_asymptotics"),
        pytest.param(lambda: check_prime(-_HUGE), id="check_prime"),
        pytest.param(lambda: lfmoments.abs_least_residue(3, -_HUGE), id="abs_least_residue"),
        pytest.param(lambda: lfmoments.moment_constant(U, True), id="moment_constant_bool"),
        pytest.param(lambda: lfmoments.valuation(U, 3, True), id="valuation_bool"),
    ],
)
def test_huge_or_boolean_arguments_raise_only_domain_error(default_int_str_limit, call):
    # each message states its bound; formatting a 5000-digit argument into
    # it raised ValueError, and moment_constant(U, True) returned 1
    with pytest.raises(DomainError) as info:
        call()
    assert len(str(info.value)) < 200
