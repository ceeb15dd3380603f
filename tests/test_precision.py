"""Precision policy: defaults, env override, the 64-bit floor, RealApprox."""

import math
import time
from fractions import Fraction

import mpmath as mp
import pytest

from lfmoments import (
    DomainError,
    FamilyDescriptor,
    RealApprox,
    SymmetryClass,
    assemble_mean_value,
    barnes_g,
    default_precision,
    half_moment_unitary,
    log_moment_asymptotic,
    log_sum_asymptotics,
    moment_by_limit,
    moment_closed_form,
    moment_ratio_closed_form,
    pole_order,
    sp_quadratic_arithmetic_factor,
    zeta_arithmetic_factor,
)
from lfmoments.precision import (
    DEFAULT_PRECISION_BITS,
    GUARD_BITS,
    MAX_PRECISION_BITS,
    MIN_PRECISION_BITS,
    approx,
    to_fraction,
    to_mpf,
    working_precision,
)

U, SP = SymmetryClass.U, SymmetryClass.Sp
HALF = Fraction(1, 2)


def _assemble(bits):
    # assemble_mean_value runs at the precision of the RealApprox it is given
    with mp.workprec(bits):
        ak = RealApprox(value=mp.mpf(1) / 3, precision_bits=bits, err_estimate=1e-15)
    fam = FamilyDescriptor(sym=U, conductor_exponent=1, label="zeta")
    return assemble_mean_value(fam, 2, ak).coefficient


# every public approximate entry point, as a function of precision_bits
ENTRY_POINTS = {
    "assemble_mean_value": _assemble,
    "barnes_g": lambda b: barnes_g(HALF, precision_bits=b),
    "moment_closed_form": lambda b: moment_closed_form(U, HALF, precision_bits=b),
    "moment_ratio_closed_form": lambda b: moment_ratio_closed_form(
        U, HALF, precision_bits=b
    ),
    "moment_by_limit": lambda b: moment_by_limit(
        U, HALF, target_digits=6, precision_bits=b
    ),
    "half_moment_unitary": lambda b: half_moment_unitary(precision_bits=b),
    "pole_order": lambda b: pole_order(SP, 1, precision_bits=b),
    "log_moment_asymptotic": lambda b: log_moment_asymptotic(U, 10, precision_bits=b),
    "log_sum_asymptotics": lambda b: log_sum_asymptotics("log_j", 10, precision_bits=b),
    "zeta_arithmetic_factor": lambda b: zeta_arithmetic_factor(
        2, prime_cutoff=100, precision_bits=b
    ),
    "sp_quadratic_arithmetic_factor": lambda b: sp_quadratic_arithmetic_factor(
        1, prime_cutoff=100, precision_bits=b
    ),
}


# every entry point of ENTRY_POINTS that takes a number, as a function of it
NUMERIC_ARGUMENT = {
    "assemble_mean_value": lambda x: assemble_mean_value(
        FamilyDescriptor(sym=U, conductor_exponent=1, label="zeta"), 2, x
    ),
    "barnes_g": barnes_g,
    "moment_closed_form": lambda x: moment_closed_form(U, x),
    "moment_ratio_closed_form": lambda x: moment_ratio_closed_form(U, x),
    "moment_by_limit": lambda x: moment_by_limit(U, x),
    "pole_order": lambda x: pole_order(SP, x),
    "log_moment_asymptotic": lambda x: log_moment_asymptotic(U, x),
    "log_sum_asymptotics": lambda x: log_sum_asymptotics("log_j", x),
    "zeta_arithmetic_factor": lambda x: zeta_arithmetic_factor(x, prime_cutoff=100),
    "sp_quadratic_arithmetic_factor": lambda x: sp_quadratic_arithmetic_factor(
        x, prime_cutoff=100
    ),
}


def test_numeric_arguments_cover_the_entry_points():
    no_argument = {"half_moment_unitary"}
    assert set(NUMERIC_ARGUMENT) | no_argument == set(ENTRY_POINTS)


@pytest.mark.parametrize("name", sorted(NUMERIC_ARGUMENT))
def test_non_finite_arguments_are_domain_errors(name):
    for x in (math.nan, math.inf, -math.inf, mp.nan, mp.inf, -mp.inf, "nan"):
        with pytest.raises(DomainError):
            NUMERIC_ARGUMENT[name](x)


def test_to_mpf_rejects_non_finite_values():
    with working_precision(128):
        for x in (math.nan, math.inf, mp.ninf, "inf"):
            with pytest.raises(DomainError):
                to_mpf(x)
        # non-numeric input raised TypeError from mpmathify
        for x in ("x", "", None, [1], True, False, object()):
            with pytest.raises(DomainError, match="must be numbers"):
                to_mpf(x)
        with pytest.raises(DomainError):
            to_mpf(RealApprox(value=mp.nan, precision_bits=128, err_estimate=0.0))
        assert to_mpf(Fraction(10**400)) == mp.mpf(10) ** 400
        for x in (mp.mpc(1, 2), 1 + 2j):
            with pytest.raises(DomainError, match="complex degree parameters"):
                to_mpf(x)


def _correctly_rounded(value: mp.mpf, x: Fraction, prec: int) -> bool:
    """value has at most prec bits and lies within half an ulp of x: in
    ints, |man 2^exp - a/b| <= 2^half for x = a/b, scaled by b 2^-low."""
    sign, man, exp, bc = value._mpf_
    a, b = x.numerator, x.denominator
    half = exp + bc - prec - 1
    low = min(half, 0)
    gap = ((-man if sign else man) * b << (exp - low)) - (a << -low)
    return bc <= prec and abs(gap) <= b << (half - low)


@pytest.mark.parametrize("bits", [64, 256, 1024])
def test_to_mpf_rounds_wide_parts_once_from_their_top_bits(bits):
    # mpf(10**500000) stores the int exactly first and strips its 500000
    # trailing zero bits 8 at a time: to_mpf(1/10**500000) took 4.3 s
    with working_precision(bits):
        prec = mp.mp.prec
        cases = [
            10**500000, -(10**5000) - 1, Fraction(1, 10**500000),
            Fraction(-(3**7000), 2**9000 + 1), Fraction(2**4000 + 1, 2**4000),
            Fraction(1, 3 << 5000), Fraction(10**400, 3), Fraction(7, 10**400),
            # ties and near-ties one and two bits past the precision
            (1 << prec) + 1, (1 << (prec + 1)) + 3, -((1 << (prec + 1)) - 1),
            Fraction((1 << prec) + 1, 1 << 700), Fraction(1, (1 << prec) + 1),
        ]
        for x in cases:
            start = time.perf_counter()
            value = to_mpf(x)
            assert time.perf_counter() - start < 0.5
            assert _correctly_rounded(value, Fraction(x), prec), x
        # narrow parts give the bits of mpf's own correctly rounded division
        assert to_mpf(Fraction(3, 7)) == mp.mpf(3) / mp.mpf(7)
        assert to_mpf(-(2**prec - 1)) == -(2**prec - 1)
        assert to_mpf(0) == 0 and to_mpf(Fraction(0, 7)) == 0
        for p, q in [(1, 3), (-5, 11), (2**prec - 1, 3**40), (12, 1), (96, 64)]:
            exact = mp.mpf(p) / mp.mpf(q)
            assert to_mpf(Fraction(p, q))._mpf_ == exact._mpf_, (p, q)


def test_to_fraction_keeps_the_sign_and_every_bit():
    # an mpf stores an unsigned mantissa; the sign sits in _mpf_ alone
    with working_precision(128):
        assert to_fraction(-3.5) == Fraction(-7, 2)
        assert to_fraction(mp.mpf("-0.1")) == to_fraction(mp.mpf("0.1")) * -1
        assert to_fraction(0.0) == 0
        assert to_fraction(2.0**70) == 2**70
        assert to_fraction(Fraction(-1, 3)) == Fraction(-1, 3)
        # to_mpf refuses a bool; zeta_arithmetic_factor(True) read k = 1
        with pytest.raises(DomainError, match="must be numbers"):
            to_fraction(True)
        third = to_fraction(mp.mpf(1) / 3)
        assert third.denominator == 2 ** (128 + GUARD_BITS + 1)
        assert abs(third - Fraction(1, 3)) < Fraction(1, 2 ** (128 + GUARD_BITS))


def test_default_precision_without_env(monkeypatch):
    monkeypatch.delenv("LFMOMENTS_PRECISION", raising=False)
    assert default_precision() == DEFAULT_PRECISION_BITS == 256


def test_env_override(monkeypatch):
    monkeypatch.setenv("LFMOMENTS_PRECISION", "384")
    assert default_precision() == 384
    monkeypatch.setenv("LFMOMENTS_PRECISION", "64")
    assert default_precision() == MIN_PRECISION_BITS


def test_env_garbage_and_tiny_values_fall_back(monkeypatch):
    monkeypatch.setenv("LFMOMENTS_PRECISION", "lots")
    assert default_precision() == DEFAULT_PRECISION_BITS
    monkeypatch.setenv("LFMOMENTS_PRECISION", "4")
    assert default_precision() == DEFAULT_PRECISION_BITS
    monkeypatch.setenv("LFMOMENTS_PRECISION", "63")
    assert default_precision() == DEFAULT_PRECISION_BITS


def test_real_approx_fields_and_float():
    with mp.workprec(128):
        x = RealApprox(value=mp.mpf(3) / 7, precision_bits=128, err_estimate=1e-30)
    assert abs(float(x) - 3 / 7) < 1e-15
    assert x.precision_bits == 128


def test_digits_renders_at_full_precision():
    got = half_moment_unitary(precision_bits=192)
    # 15 significant digits by default, more on request
    assert got.digits().startswith("1.0362329154")
    assert len(got.digits(40)) > len(got.digits())


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_every_approximate_routine_enforces_the_floor(name):
    call = ENTRY_POINTS[name]
    with pytest.raises(DomainError):
        call(MIN_PRECISION_BITS - 1)
    with pytest.raises(DomainError, match="at most"):
        call(MAX_PRECISION_BITS + 1)
    got = call(MIN_PRECISION_BITS)
    if hasattr(got, "precision_bits"):
        assert got.precision_bits == MIN_PRECISION_BITS


def test_results_do_not_leak_global_precision():
    # one test over every entry point, on the answering and the error path
    before = mp.mp.prec
    for name, call in sorted(ENTRY_POINTS.items()):
        call(512)
        assert mp.mp.prec == before, name
        with pytest.raises(DomainError):
            call(MIN_PRECISION_BITS - 1)
        assert mp.mp.prec == before, name


def test_working_precision_adds_the_guard_and_yields_the_request(monkeypatch):
    monkeypatch.delenv("LFMOMENTS_PRECISION", raising=False)
    before = mp.mp.prec
    with working_precision(None) as bits:
        assert bits == DEFAULT_PRECISION_BITS
        assert mp.mp.prec == bits + GUARD_BITS
    with working_precision(100) as bits:
        assert bits == 100
        assert mp.mp.prec == bits + GUARD_BITS
    assert mp.mp.prec == before


def test_approx_never_reports_less_than_the_floor():
    with working_precision(128) as bits:
        third = to_mpf(Fraction(1, 3))
        floor = approx(third, bits).err_estimate
        assert floor == pytest.approx(float(third) * 2.0 ** (8 - 128))
        assert approx(third, bits, err=0).err_estimate == floor
        assert approx(third, bits, err=mp.mpf("1e-5")).err_estimate == 1e-5
        assert third == mp.mpf(1) / 3
