"""Command-line surface: records, exit codes, files, determinism."""

import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfmoments import (
    density_exact,
    log_moment_asymptotic,
    mean_square,
    moment_closed_form,
    moment_constant,
    sample_density,
    SymmetryClass,
    zeta_arithmetic_factor,
)
from lfmoments import cli, euler_products, exact_moments
from lfmoments.cli import main
from lfmoments.precision import working_precision


# the limit a plain process runs under, read before the fixture lifts it
_DEFAULT_INT_STR_LIMIT = sys.get_int_max_str_digits()


@pytest.fixture(autouse=True)
def int_str_limit():
    """Lift CPython's int-parsing limit on the test side only.

    Some records carry integers longer than the default 4300 digits, which
    the tests read back with int(); cli.main itself must neither need nor
    change the setting.  Yields the limit that was in force.
    """
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield before
    sys.set_int_max_str_digits(before)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


# ------------------------------------------------------------- spec examples


def test_gk_example(capsys):
    code, rec = run_json(capsys, "gk", "U", "4")
    assert code == 0
    assert rec["result"] == "24024"


def test_cp_example(capsys):
    code, rec = run_json(capsys, "cp", "5", "3/13")
    assert code == 0
    assert rec["result"] == "23/72"


def test_mollify_example(capsys):
    code, rec = run_json(capsys, "mollify", "Sp", "--P", "0,1", "--Q", "1")
    assert code == 0
    assert rec["result"] == "1 + 2*theta^-1 + theta^-2"


# ---------------------------------------------------------------- exit codes


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["vp", "U", "4", "100"])  # 4 is not prime
    assert exc.value.code == 2


def test_prime_beyond_deterministic_range_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["vp", "U", "3317044064679887385961981", "10"])
    assert exc.value.code == 2
    assert "deterministic primality range" in capsys.readouterr().err


def test_window_at_two_is_an_error_record(capsys):
    # v_2(g_3) = 3 for O, so the odd-prime criterion must not answer
    code, rec = run_json(capsys, "window", "O", "2", "3")
    assert code == 1
    assert rec["error"]["type"] == "UnsupportedClass"


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_domain_error_record_exits_one(capsys):
    code, rec = run_json(capsys, "glambda", "U", "-0.5")
    assert code == 1
    assert rec["error"]["type"] == "PoleError"
    assert "pole" in rec["error"]["message"]


def test_spquad_requires_integer_order(capsys):
    code, rec = run_json(capsys, "ak", "spquad", "3/2", "--cutoff", "500")
    assert code == 1
    assert rec["error"] == {
        "type": "LfmomentsError",
        "message": "the quadratic-family product needs integer k",
    }


def test_ak_family_choices_are_the_family_table():
    # the parser names the families as a literal, so that building it
    # imports no mpmath; the literal is the table's keys, in its order
    [sub] = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    [family] = [a for a in sub.choices["ak"]._actions if a.dest == "family"]
    assert tuple(family.choices) == tuple(euler_products._FAMILIES)


_RATIONAL = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 6))


@st.composite
def family_argv(draw):
    """ak or assemble argv with options first, then -- and the positionals,
    so that a negative k or A reads as a number."""
    options = [f"--cutoff={draw(st.integers(100, 2000))}"]
    if draw(st.booleans()):
        head = ["ak"]
        positionals = [draw(st.sampled_from(["zeta", "spquad"])), draw(_RATIONAL)]
    else:
        head = ["assemble"]
        k = draw(st.one_of(st.integers(-3, 30), _RATIONAL))
        positionals = [draw(st.sampled_from(["U", "O", "Sp"])), draw(_RATIONAL), k]
        ak = draw(st.one_of(st.none(), _RATIONAL))
        options += [] if ak is None else [f"--ak={ak}"]
    return head + options + ["--"] + [str(item) for item in positionals]


@given(argv=family_argv())
@settings(max_examples=50, deadline=None)
def test_family_commands_give_a_record_or_a_usage_error(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    if code == 2:  # argparse: assemble's k is an int
        assert out.getvalue() == "" and "usage:" in err.getvalue()
        return
    rec = json.loads(out.getvalue())
    assert rec["command"] == argv[0]
    if code == 0:
        assert {"result", "err_estimate"} <= set(rec)
    else:
        assert code == 1 and set(rec) == {"command", "error"}


# odd arguments: signs, overflowing and non-finite decimals, non-numbers,
# and integers and denominators at CPython's 4300-digit int-to-str limit
_HUGE = "1" + "0" * 4299
_ODD = st.sampled_from([
    "0", "-1", "-7/3", "-1/2", "1e400", "-1e400", "1e-400", "nan", "NaN", "inf",
    "-inf", "1/0", "x", "", _HUGE, "-" + _HUGE, _HUGE + "1", "1/" + _HUGE,
    "3/" + "7" * 400, "2/" + "3" * 60,
])
_SMALL_INT = st.integers(-2, 30).map(str)
_SMALL_RATIONAL = _RATIONAL.map(str)
_INT = st.one_of(_SMALL_INT, _ODD)
_NUMBER = st.one_of(_SMALL_INT, _SMALL_RATIONAL, _ODD)
_PRIME = st.one_of(st.sampled_from(["2", "3", "5", "7", "101", "4", "1"]), _ODD)
_SYM = st.sampled_from(["U", "O", "Sp", "sp", "X"])
_COEFFS = st.lists(st.one_of(_SMALL_INT, _SMALL_RATIONAL, _ODD), min_size=1, max_size=3).map(",".join)
_CUTOFF = st.one_of(st.sampled_from(["100", "1000"]), _ODD)


def _option(draw, name, values):
    return [f"{name}={draw(values)}"] if draw(st.booleans()) else []


@st.composite
def cli_argv(draw, out_dir):
    """argv for one of the 13 subcommands: options first, then (mostly) --
    and the positionals, so that a negative number reads as one."""
    command = draw(st.sampled_from(sorted(cli._parser()._subparsers._group_actions[0].choices)))
    options = ["--timing"] if draw(st.booleans()) else []
    if command in ("gk", "poles", "asym"):
        positionals = [draw(_SYM), draw(_INT)]
        options += ["--factor"] if command == "gk" and draw(st.booleans()) else []
    elif command in ("vp", "window"):
        positionals = [draw(_SYM), draw(_PRIME), draw(_INT)]
    elif command == "cp":
        positionals = [draw(_PRIME), draw(_NUMBER)]
        options += _option(draw, "--eps", st.sampled_from(["1e-9", "1e-300", "0", "nan", "-inf"]))
    elif command == "cp-plot":
        options = []  # cp-plot has no --timing
        positionals = [draw(_PRIME), draw(_NUMBER), draw(_NUMBER), draw(_INT)]
        options += [f"--csv={out_dir}/points.csv"] if draw(st.booleans()) else []
        options += [f"--svg={out_dir}/points.svg"] if draw(st.booleans()) else []
    elif command == "classify":
        positionals = [draw(_PRIME), draw(_INT), draw(_INT)]
    elif command == "glambda":
        positionals = [draw(_SYM), draw(_NUMBER)]
        if draw(st.booleans()):
            options += ["--limit"] + _option(draw, "--digits", st.one_of(_ODD, st.sampled_from(["4", "12"])))
    elif command == "ghalf":
        positionals = []
    elif command == "ak":
        positionals = [draw(st.sampled_from(["zeta", "spquad", "foo"])), draw(_NUMBER)]
        options += _option(draw, "--cutoff", _CUTOFF)
    elif command == "assemble":
        positionals = [draw(_SYM), draw(_NUMBER), draw(_INT)]
        options += _option(draw, "--ak", _NUMBER) + _option(draw, "--cutoff", _CUTOFF)
    else:
        assert command == "mollify"
        positionals = [draw(_SYM)]
        options += [f"--P={draw(_COEFFS)}", f"--Q={draw(_COEFFS)}"]
        options += _option(draw, "--theta", _NUMBER)
    separator = ["--"] if positionals and draw(st.booleans()) else []
    return [command] + options + separator + positionals


# seconds one call may take: every input above is under a stated cost
# bound of at most 3 s of estimated work (the limit ladder and the Euler
# products 3 s, the density walks 2^43 units, about 1.1 s), timed on a quiet
# 2-vCPU x86-64 host; the slowest, the ladder run to its last N at degrees
# 19-30, took 2.2-2.5 s there and 4.2 s while the host was busy, so the cap
# is about three times the bound
_CALL_CAP_S = 10.0


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_any_command_gives_one_record_or_a_usage_error(data):
    with tempfile.TemporaryDirectory() as out_dir:
        argv = data.draw(cli_argv(out_dir), label="argv")
        out, err = io.StringIO(), io.StringIO()
        sys.set_int_max_str_digits(_DEFAULT_INT_STR_LIMIT)
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
        finally:
            elapsed = time.perf_counter() - started
            sys.set_int_max_str_digits(0)
    assert elapsed < _CALL_CAP_S
    if code == 2:
        assert out.getvalue() == "" and "usage:" in err.getvalue()
        return
    text = out.getvalue()
    rec = json.loads(text)
    assert text == json.dumps(rec, indent=2) + "\n"
    assert rec["command"] == argv[0]
    if code == 0:
        assert "result" in rec and "error" not in rec
    else:
        assert code == 1
        assert set(rec) == {"command", "error"} and set(rec["error"]) == {"type", "message"}


# ------------------------------------------------------------------ records


def test_gk_factor_round_trip(capsys):
    code, rec = run_json(capsys, "gk", "U", "4", "--factor")
    assert code == 0
    assert int(rec["result"]) == moment_constant(SymmetryClass.U, 4)
    assert {int(p): e for p, e in rec["factorization"].items()} == {
        2: 3, 3: 1, 7: 1, 11: 1, 13: 1,
    }


def test_gk_survives_huge_constants(capsys):
    # k = 100 gives a 16154-digit integer, past the default int-to-str guard
    code, rec = run_json(capsys, "gk", "U", "100", "--factor")
    assert code == 0
    assert len(rec["result"]) > 16_000
    assert rec["factorization"]["199"] == 49
    assert int(rec["result"]) == moment_constant(SymmetryClass.U, 100)


def test_main_leaves_int_str_limit_alone(capsys, int_str_limit):
    sys.set_int_max_str_digits(int_str_limit)
    code, rec = run_json(capsys, "gk", "U", "100")
    assert code == 0
    assert sys.get_int_max_str_digits() == int_str_limit
    assert len(rec["result"]) == 16154


def test_gk_zero_gets_a_note(capsys):
    code, rec = run_json(capsys, "gk", "U", "0")
    assert code == 0
    assert rec["result"] == "1"
    assert "empty product" in rec["note"]


def test_gk_factor_runs_the_engine_once(capsys, monkeypatch):
    exact_moments._factored.cache_clear()  # an earlier test may have left (U, 30)
    calls = []
    engine = exact_moments._legendre_exponents

    def counting_engine(sym, k, primes):
        calls.append(k)
        return engine(sym, k, primes)

    monkeypatch.setattr(exact_moments, "_legendre_exponents", counting_engine)
    code, rec = run_json(capsys, "gk", "U", "30", "--factor")
    assert code == 0
    assert calls == [30]
    assert int(rec["result"]) == moment_constant(SymmetryClass.U, 30)


def _fresh(*args) -> subprocess.CompletedProcess:
    """``python ARGS`` in a new process that imports this checkout's lfmoments."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def test_warm_gk_records_match_a_fresh_process(capsys):
    # gk and gk --factor share the most recent g_k in a warm process; each
    # record must be the bytes a fresh process prints for it
    calls = [["gk", "U", "227"], ["gk", "U", "227", "--factor"]]
    fresh = [_fresh("-m", "lfmoments.cli", *argv).stdout.encode() for argv in calls]
    exact_moments._factored.cache_clear()
    warm = [run(capsys, *argv) for argv in calls * 2]
    assert [(code, out.encode()) for code, out in warm] == [(0, out) for out in fresh * 2]
    assert exact_moments._factored.cache_info()[:2] == (3, 1)  # hits, misses


# a one-shot python -m lfmoments.cli run, which prints the lfmoments and
# mpmath entries of sys.modules at exit on its last line of stderr.
# -X importtime would miss a layer that the lazy namespace loads through
# importlib.import_module: it logs no line for the module so loaded
_SCRIPT_RUN = (
    "import atexit, runpy, sys\n"
    "atexit.register(lambda: print(*sorted(m for m in sys.modules if m == 'mpmath'"
    " or m.split('.')[0] == 'lfmoments'), file=sys.stderr))\n"
    "runpy.run_module('lfmoments.cli', run_name='__main__', alter_sys=True)\n"
)
# what every script run loads: the package and the parser's layers
_PARSER_LAYERS = {
    "lfmoments", "lfmoments.errors", "lfmoments.exact_moments", "lfmoments.numeric_core",
}
# what the approximate commands load beyond them
_ANALYTIC = {"mpmath", "lfmoments.precision", "lfmoments.analytic_moments"}
_EULER = _ANALYTIC | {"lfmoments.euler_products"}


# each command, a usage error and a domain error, and the layers it loads
_SCRIPT_RUNS = [
    (["gk", "U", "5"], set()),
    (["vp", "Sp", "3", "40"], {"lfmoments.padic_valuation"}),
    (["window", "O", "29", "20"], {"lfmoments.padic_valuation"}),
    (["cp", "5", "3/13"], {"lfmoments.self_similar"}),
    (["cp-plot", "3", "1", "2", "11", "--csv", "{tmp}/cp.csv"], {"lfmoments.self_similar"}),
    (["classify", "5", "3", "13"], {"lfmoments.self_similar"}),
    (["mollify", "O", "--P", "0,1/2,1/2", "--Q", "1,0,-1", "--theta", "3/4"],
     {"lfmoments.mollifier"}),
    (["gk", "X", "3"], set()),  # usage error, exit 2
    (["ak", "foo", "2"], set()),  # usage error, exit 2
    (["window", "U", "101", "5"], {"lfmoments.padic_valuation"}),  # domain error, exit 1
    (["cp", "5", "3/13", "--eps", "1e-6"],
     {"lfmoments.self_similar", "lfmoments.precision", "mpmath"}),
    (["glambda", "U", "7/3"], _ANALYTIC),
    (["ghalf"], _ANALYTIC),
    (["asym", "U", "10"], _ANALYTIC),
    (["poles", "U", "10"], _ANALYTIC),
    (["ak", "zeta", "2", "--cutoff", "200"], _EULER),
    (["assemble", "U", "1", "2", "--ak", "1"], _EULER),
]


@pytest.mark.parametrize(
    "argv, layers", _SCRIPT_RUNS, ids=[" ".join(argv) for argv, _ in _SCRIPT_RUNS]
)
def test_a_script_run_loads_only_its_command_layers(capsys, tmp_path, argv, layers):
    # python -m lfmoments.cli preloads no layer: a command loads the layers
    # it calls, so the exact commands and the usage errors load no mpmath
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    proc = _fresh("-c", _SCRIPT_RUN, *argv)
    loaded = set(proc.stderr.splitlines()[-1].split())
    assert loaded == _PARSER_LAYERS | layers
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert (proc.returncode, proc.stdout) == (code, capsys.readouterr().out)


def test_importing_the_cli_module_loads_every_layer():
    # long-lived callers import lfmoments.cli once and pay no import per call
    proc = _fresh("-c", "import sys, lfmoments.cli; print(' '.join(sorted(sys.modules)))")
    loaded = set(proc.stdout.split())
    layers = {f"lfmoments.{name}" for name in (
        "numeric_core", "exact_moments", "padic_valuation", "self_similar",
        "analytic_moments", "euler_products", "mollifier", "errors",
    )}
    assert layers | _EULER <= loaded


def test_vp_record(capsys):
    code, rec = run_json(capsys, "vp", "U", "3", "100")
    assert code == 0
    assert rec["result"] == "65"


def test_cp_value_round_trip(capsys):
    code, rec = run_json(capsys, "cp", "3", "7/5")
    assert code == 0
    assert Fraction(rec["result"]) == density_exact(3, Fraction(7, 5))


@pytest.mark.parametrize("eps", ["nan", "inf", "-inf"])
def test_cp_non_finite_eps_is_an_error_record(capsys, tmp_path, eps):
    code, rec = run_json(capsys, "cp", "3", "1/3", f"--eps={eps}")
    assert code == 1
    assert rec["error"]["type"] == "DomainError"
    code, rec = run_json(capsys, "cp-plot", "3", "0.2", "8", "5", f"--eps={eps}",
                         "--csv", str(tmp_path / "points.csv"))
    assert code == 1
    assert rec["error"]["type"] == "DomainError"


def test_cp_orbit_beyond_the_cost_budget_is_an_error_record(capsys):
    # the order of 3 mod 131129 is 131128, just past the budget; the walk
    # stops there, where cp 3 1/1000000007 (order 500000003) used to hang
    for argv in (("cp", "3", "1/131129"), ("classify", "3", "1", "131129")):
        code, rec = run_json(capsys, *argv)
        assert code == 1
        assert rec["error"]["type"] == "DomainError"


_HUGE_K = str(10**3999)


@pytest.mark.parametrize(
    "argv",
    [
        ("gk", "U", _HUGE_K),
        ("gk", "O", _HUGE_K),
        ("vp", "U", "2", str(10**4298)),
        ("window", "U", "101", _HUGE_K),
        ("assemble", "U", "1", _HUGE_K, "--ak", "1"),
        ("cp", "5", "1e-20000"),
        ("cp", "2", "1e-20000"),
        ("cp", "3", "1e-300000"),
        ("cp", "3", "--", "-1e-300000"),
        ("cp", "3", "--", "-1e-5000"),
        ("cp-plot", "3", "--svg", "unwritten.svg", "--", "-1e-5000", "1", "10"),
    ],
    ids=lambda argv: " ".join(a if len(a) < 20 else "<4000 digits>" for a in argv),
)
def test_errors_state_bounds_not_huge_integers(capsys, int_str_limit, argv):
    # each message printed B(k) = k^2, the orbit's modulus or the refused x,
    # most of them past the default int-to-str limit, which ended in a
    # ValueError traceback
    sys.set_int_max_str_digits(int_str_limit)
    code, rec = run_json(capsys, *argv)
    assert code == 1
    assert set(rec) == {"command", "error"}
    assert len(rec["error"]["message"]) < 200


@pytest.mark.parametrize(
    "argv",
    [
        ("ak", "zeta", "1e-500000", "--cutoff", "100"),
        ("assemble", "U", "1/3", "2", "--cutoff", "1000000000"),
        ("glambda", "U", "--", "-1000000001/3"),
        ("cp", "3", "1e20000"),
        ("cp", "3", "1e-20000", "--eps", "1e-9"),
    ],
)
def test_refused_input_is_never_echoed(capsys, monkeypatch, argv):
    # writing a huge input back (ak zeta 1e-500000: 0.42 s) came before
    # the check that refuses it
    def no_echo(value):
        raise AssertionError("an input was echoed")

    monkeypatch.setattr(cli, "decimal_string", no_echo)
    code, rec = run_json(capsys, *argv)
    assert code == 1
    assert rec["error"]["type"] == "DomainError"


def test_classify_record(capsys):
    code, rec = run_json(capsys, "classify", "5", "3", "13")
    assert code == 0
    assert rec["result"] == "self-similar"
    assert rec["period"] == "4"


def test_classify_vertical_tangent_record(capsys):
    # the orbit of 3 mod 11 is 3, -2, 5, 4, 1: its sum is 11, not 0, and 11 != 2
    code, rec = run_json(capsys, "classify", "3", "3", "11")
    assert code == 0
    assert rec["result"] == "vertical-tangent"
    assert "period" not in rec


def test_cp_non_rational_argument_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cp", "5", "abc"])
    assert exc.value.code == 2
    assert "not a rational number: 'abc'" in capsys.readouterr().err


def test_glambda_matches_library(capsys):
    code, rec = run_json(capsys, "glambda", "O", "5/2")
    assert code == 0
    want = float(moment_closed_form(SymmetryClass.O, Fraction(5, 2)))
    assert float(rec["result"]) == pytest.approx(want, rel=1e-12)


def test_glambda_limit_route(capsys):
    code, rec = run_json(capsys, "glambda", "O", "2.5", "--limit", "--digits", "8")
    assert code == 0
    want = float(moment_closed_form(SymmetryClass.O, Fraction(5, 2)))
    assert float(rec["result"]) == pytest.approx(want, rel=1e-7)


def test_ghalf_digits(capsys):
    code, rec = run_json(capsys, "ghalf")
    assert code == 0
    assert rec["result"].startswith("1.0362329154")


def test_ak_zeta_record(capsys):
    code, rec = run_json(capsys, "ak", "zeta", "1", "--cutoff", "500")
    assert code == 0
    assert float(rec["result"]) == pytest.approx(1.0, abs=1e-12)


def test_ak_zeta_fractional_order_matches_library(capsys):
    code, rec = run_json(capsys, "ak", "zeta", "1/3", "--cutoff", "1000")
    assert code == 0
    want = zeta_arithmetic_factor(Fraction(1, 3), prime_cutoff=1000)
    assert rec["result"] == want.digits(25)


def test_ak_zeta_huge_order_is_an_error_record(monkeypatch, capsys):
    # its series runs until it has spent the budget: a tenth of it is enough
    monkeypatch.setattr(euler_products, "_MAX_WORK_NS", 3 * 10**8)
    code, rec = run_json(capsys, "ak", "zeta", "1e400", "--cutoff", "100")
    assert code == 1
    assert rec["error"]["type"] == "DomainError"
    assert "cost bound" in rec["error"]["message"]


@pytest.mark.parametrize("sym, source", [
    ("U", "zeta-family product, cutoff 1000"),
    ("Sp", "quadratic-family product, cutoff 1000"),
])
def test_assemble_names_its_built_in_factor(capsys, sym, source):
    code, rec = run_json(capsys, "assemble", sym, "1", "2", "--cutoff", "1000")
    assert code == 0
    assert rec["ak_source"] == source
    assert "note" not in rec


def test_assemble_orthogonal_notes_missing_factor(capsys):
    code, rec = run_json(capsys, "assemble", "O", "1", "2")
    assert code == 0
    assert "a_k = 1" in rec["note"]
    assert rec["log_power"] == "1"


def test_a_rational_past_the_int_to_str_limit_is_echoed_by_its_width(capsys):
    # a 500001-digit denominator is named by its width, not written out
    code, rec = run_json(capsys, "assemble", "U", "1", "2", "--ak", "1e-500000")
    assert code == 0
    assert rec["inputs"]["ak"] == "a fraction of 1660965 bits"
    # 4300 digits, CPython's default limit, are echoed in decimal
    assert cli._echo(Fraction(-(10**4300 - 1), 7)) == "-" + "9" * 4300 + "/7"
    assert cli._echo(Fraction(1, 10**4300)) == "a fraction of 14285 bits"
    assert cli._echo(Fraction(-(10**4300))) == "a negative fraction of 14285 bits"
    # the conductor exponent A is echoed and printed as log_argument_exponent
    # by the one rule
    code, out = run(capsys, "assemble", "U", "1e-500000", "2", "--ak", "1")
    assert code == 0 and len(out) < 1000
    rec = json.loads(out)
    assert rec["inputs"]["A"] == rec["log_argument_exponent"] == "a fraction of 1660965 bits"


@pytest.mark.parametrize(
    "argv",
    [("Sp", "1", "20000", "--cutoff", "100"), ("U", "1", "2500"), ("U", "1", "2500", "--cutoff", "50")],
)
def test_assemble_checks_the_log_power_before_it_builds_a_k(monkeypatch, capsys, argv):
    # a k past the exact constants' bound is refused before any Euler
    # product: the B(k) message wins over the cutoff's too
    def no_product(*args):
        raise AssertionError(f"a_k built for {args}")

    monkeypatch.setattr(euler_products, "_family_factor", no_product)
    code, rec = run_json(capsys, "assemble", *argv)
    assert code == 1
    assert rec["error"]["type"] == "DomainError"
    assert "B(k) > 4000000" in rec["error"]["message"]


def test_assemble_override(capsys):
    code, rec = run_json(capsys, "assemble", "O", "1", "2", "--ak", "1/2")
    assert code == 0
    assert float(rec["result"]) == pytest.approx(1.0)


def test_assemble_at_u_1000_answers_from_the_closed_form_ratio(capsys):
    # the coefficient no longer multiplies out the 2.6-million-digit g_k
    # and 10^6!: this request took 77 s cold; its log10 is checked against
    # the factorization and log Gamma(B + 1) in floats
    started = time.perf_counter()
    code, rec = run_json(capsys, "assemble", "U", "1", "1000", "--ak", "1")
    assert time.perf_counter() - started < 2.0
    assert code == 0 and rec["log_power"] == "1000000"
    exponents = exact_moments.moment_factored(SymmetryClass.U, 1000).exponents
    log_ratio = math.fsum(e * math.log(p) for p, e in exponents.items()) - math.lgamma(10**6 + 1)
    mantissa, exponent = rec["result"].split("e")
    assert abs(math.log10(float(mantissa)) + int(exponent) - log_ratio / math.log(10)) < 1e-6


def test_poles_record(capsys):
    code, rec = run_json(capsys, "poles", "Sp", "1")
    assert code == 0
    assert rec["inputs"]["at"] == "-1/2"
    assert rec["result"] == "0"


@pytest.mark.parametrize(
    "sym, k, want",
    [
        ("U", 1000, 1999),
        # near the pole at k = 5 * 10^5 the closed form is no clean power
        # law in the distance, so no numeric fit reads the order there
        ("O", 500_000, 500_000),
        ("U", 500_000, 999_999),
        # past the Barnes G shift's cost bound
        ("U", 10_000_000, 19_999_999),
    ],
)
def test_poles_record_at_large_k(capsys, sym, k, want):
    code, rec = run_json(capsys, "poles", sym, str(k))
    assert code == 0
    assert rec["inputs"]["at"] == f"{1 - 2 * k}/2"
    assert rec["result"] == str(want)


def test_poles_at_the_largest_k_argparse_reads(capsys, int_str_limit):
    # int() reads k = 10^4300 - 1 under the default limit; 2k - 1 has 4301
    # digits, one past what str() writes
    sys.set_int_max_str_digits(int_str_limit)
    k = 10**4300 - 1
    code, rec = run_json(capsys, "poles", "U", str(k))
    assert code == 0
    sys.set_int_max_str_digits(0)
    assert rec["result"] == str(2 * k - 1)
    assert len(rec["result"]) == 4301


def test_asym_record(capsys):
    code, rec = run_json(capsys, "asym", "U", "50")
    assert code == 0
    assert float(rec["abs_error"]) < 1e-3
    assert rec["err_estimate"] == "4.000e-04"  # 1/k^2: U's remainder is 73/(960 k^2)


def _log_gk_legendre(sym, k):
    """log g_k = sum e_p log p over the Legendre exponents of g_k, with one
    logarithm per distinct exponent; the oracle for asym's log_gk_exact."""
    primes_by_exponent = {}
    for p, e in exact_moments.moment_factored(sym, k).exponents.items():
        primes_by_exponent.setdefault(e, []).append(p)
    return mp.fsum(e * mp.log(mp.fprod(ps)) for e, ps in primes_by_exponent.items())


@pytest.mark.parametrize("sym", ["U", "O", "Sp"])
def test_asym_log_gk_matches_legendre_sum(capsys, sym):
    for k in (2, 3, 10, 57, 250, 1000, 2000):
        code, rec = run_json(capsys, "asym", sym, str(k))
        assert code == 0
        approx = log_moment_asymptotic(SymmetryClass.parse(sym), k)
        with working_precision(approx.precision_bits):
            exact = _log_gk_legendre(SymmetryClass.parse(sym), k)
            assert rec["log_gk_exact"] == mp.nstr(exact, 25), k
            assert rec["abs_error"] == mp.nstr(abs(exact - approx.value), 3), k


@pytest.mark.parametrize(
    "sym, remainder",
    [("U", lambda k: 73 / (960 * k * k)), ("O", lambda k: 7 / (16 * k)),
     ("Sp", lambda k: 7 / (16 * k))],
)
def test_asym_above_2000_carries_log_gk(capsys, sym, remainder):
    # the gap is the remainder of the expansion that c10 pins
    code, rec = run_json(capsys, "asym", sym, "100000")
    assert code == 0
    assert list(rec) == [
        "command", "inputs", "result", "err_estimate", "log_gk_exact", "abs_error"
    ]
    assert float(rec["abs_error"]) == pytest.approx(remainder(100_000), rel=0.01)


def test_mollify_evaluates_at_theta(capsys):
    code, rec = run_json(capsys, "mollify", "Sp", "--P", "0,1", "--Q", "1",
                         "--theta", "1/2")
    assert code == 0
    assert rec["value_at_theta"] == "9"
    assert rec["theta_validity"] == "1"


def test_mollify_with_long_coefficients(capsys, int_str_limit):
    # squared coefficients pass CPython's default int-to-str limit
    big = "7" * 3000
    sys.set_int_max_str_digits(int_str_limit)
    code, rec = run_json(capsys, "mollify", "U", "--P", f"0,{big}", "--Q", "1")
    assert code == 0
    sys.set_int_max_str_digits(0)
    want = mean_square(SymmetryClass.U, [Fraction(0), Fraction(big)], [Fraction(1)])
    assert rec["result"] == want.format()


# ------------------------------------------------------------ output formats


def test_csv_output_is_one_row(capsys):
    code, out = run(capsys, "gk", "U", "4", "--csv")
    assert code == 0
    header, row = out.strip().split("\n")
    assert header.split(",")[0] == "command"
    assert "24024" in row


def test_csv_output_joins_a_list_field(capsys):
    # --P 0,1 is the list [0, 1], flattened to one field as "0;1"
    code, out = run(capsys, "mollify", "U", "--P", "0,1", "--Q", "1", "--csv")
    assert code == 0
    assert out.splitlines() == [
        "command,inputs.sym,inputs.P,inputs.Q,result,theta_validity",
        "mollify,U,0;1,1,1 + theta^-1,4/7",
    ]


_JSON_TEXT = st.text(
    st.one_of(st.sampled_from('"\\/\n\t\x00\x1f\x7f\u00e9\u2028\U0001f600'), st.characters()),
    max_size=6,
)
_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**4000), 10**4000),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
    _JSON_TEXT,
)
# every key type json.dumps accepts: it writes int, float, bool and None keys
# as strings
_JSON_KEYS = st.one_of(
    _JSON_TEXT, st.integers(-(10**30), 10**30), st.floats(), st.booleans(), st.none()
)


def _json_like(depth: int):
    """Scalars, and lists, tuples and dicts nested up to depth levels."""
    if depth == 0:
        return _JSON_SCALARS
    inner = _json_like(depth - 1)
    return st.one_of(
        _JSON_SCALARS,
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_JSON_KEYS, inner, max_size=4),
    )


@given(value=_json_like(4))
@settings(max_examples=300, deadline=None)
def test_json_text_is_json_dumps_with_indent(value):
    assert cli._json_text(value) == json.dumps(value, indent=2)


def test_timing_flag_adds_elapsed(capsys):
    code, rec = run_json(capsys, "gk", "U", "4", "--timing")
    assert code == 0
    assert "elapsed_ms" in rec


def test_shared_parser_records_match_a_fresh_parser(tmp_path, capsys, monkeypatch):
    # main parses with one parser per process; a run of calls through it,
    # usage error and cp-plot's --csv PATH included, must print what a
    # parser built for each call prints
    path = tmp_path / "points.csv"
    calls = [
        ["gk", "U", "frog"],
        ["cp-plot", "3", "1/5", "4/5", "7", "--csv", str(path)],
        ["gk", "U", "4", "--csv"],
        ["gk", "Sp", "7", "--factor"],
    ]

    def run_all():
        results = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results, path.read_bytes()

    cli._parser.cache_clear()
    shared = run_all()
    assert cli._parser.cache_info().misses == 1
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = run_all()
    assert [code for code, _, _ in shared[0]] == [2, 0, 0, 0]
    assert shared == fresh


@pytest.mark.parametrize("literal", ["1e10000000", "1E-10000000", "-3.5e+500001"])
def test_huge_decimal_exponent_is_a_usage_error(capsys, literal):
    # Fraction would build the integer 10**exponent first, for seconds
    started = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["ak", "zeta", "--cutoff", "100", "--", literal])
    assert exc.value.code == 2
    assert time.perf_counter() - started < 1.0
    assert "decimal exponent" in capsys.readouterr().err


def test_determinism(capsys):
    _, first = run(capsys, "glambda", "Sp", "1.7")
    _, second = run(capsys, "glambda", "Sp", "1.7")
    assert first == second


# -------------------------------------------------------------------- files


def test_cp_plot_writes_both_files(tmp_path, capsys):
    svg = tmp_path / "plot.svg"
    csv = tmp_path / "points.csv"
    code, rec = run_json(capsys, "cp-plot", "3", "0.2", "8", "200",
                         "--svg", str(svg), "--csv", str(csv))
    assert code == 0
    assert rec["points"] == 200

    lines = csv.read_text().strip().split("\n")
    assert lines[0] == "x,cp"
    assert len(lines) == 201

    text = svg.read_text()
    assert text.startswith("<svg")
    assert "<polyline" in text


def test_cp_plot_polyline_tracks_samples(tmp_path, capsys):
    svg = tmp_path / "plot.svg"
    code, _ = run_json(capsys, "cp-plot", "3", "0.2", "8", "120",
                       "--svg", str(svg))
    assert code == 0
    match = re.search(r'<polyline[^>]*points="([^"]+)"', svg.read_text())
    assert match
    pairs = [tuple(map(float, chunk.split(","))) for chunk in match.group(1).split()]
    assert len(pairs) == 120
    ys = [y for _, y in pairs]
    values = [v for _, v in sample_density(3, Fraction(1, 5), 8, 120)]
    # invert the (downward-growing) pixel map and compare every ordinate
    lo, hi = min(values), max(values)
    for y_pix, want in zip(ys, values):
        got = lo + (455 - y_pix) / 410 * (hi - lo)
        assert abs(got - want) <= (hi - lo) / 200


def test_cp_plot_requires_a_destination(capsys):
    code, rec = run_json(capsys, "cp-plot", "3", "0.2", "8", "50")
    assert code == 1
    assert "error" in rec


@pytest.mark.parametrize(
    "argv",
    [
        ("glambda", "U", "--", "-1000000000"),
        ("glambda", "Sp", "--", "-7000001/3"),
        ("ak", "zeta", "2", "--cutoff", "1000000000"),
        ("ak", "spquad", "2", "--cutoff", "1000000000"),
        ("assemble", "U", "1", "2", "--cutoff", "1000000000"),
        ("ak", "zeta", "200001/2", "--cutoff", "100"),
        ("ak", "spquad", "100000", "--cutoff", "100"),
        ("ak", "zeta", "20001/2"),
        ("ak", "spquad", "3000", "--cutoff", "10000"),
        ("ak", "zeta", "1e-300000", "--cutoff", "100"),
        ("gk", "U", "100000"),
        ("cp", "3", "1e20000"),
        ("cp", "3", "1e-20000", "--eps", "1e-9"),
        ("vp", "U", "2", str(10**4298)),
    ],
)
def test_cost_bounds_are_error_records(monkeypatch, capsys, argv):
    # each of these used to run for seconds to hours or to exhaust memory;
    # a long zeta series is refused once it has spent the Euler budget, so
    # a tenth of it (the real one is run in test_euler_products) keeps these
    # refusals short
    monkeypatch.setattr(euler_products, "_MAX_WORK_NS", 3 * 10**8)
    code, rec = run_json(capsys, *argv)
    assert code == 1
    assert rec["error"]["type"] == "DomainError"
    assert re.search("cost bound|prime_cutoff", rec["error"]["message"])


@pytest.mark.parametrize(
    "bits, argv",
    [("16384", ("ghalf",)), ("1024", ("ak", "zeta", "1/2", "--cutoff", "1000000"))],
)
def test_precision_from_the_environment_beyond_a_bound_is_an_error_record(
    monkeypatch, capsys, bits, argv
):
    # past the precision ceiling, and past the Euler cost bound at 1024 bits
    # (a tenth of it: the series runs until it has spent the budget)
    monkeypatch.setenv("LFMOMENTS_PRECISION", bits)
    monkeypatch.setattr(euler_products, "_MAX_WORK_NS", 3 * 10**8)
    code, rec = run_json(capsys, *argv)
    assert code == 1
    assert rec["error"]["type"] == "DomainError"


def test_cp_plot_sample_count_beyond_the_cost_bound_is_an_error_record(tmp_path, capsys):
    path = tmp_path / "points.csv"
    code, rec = run_json(capsys, "cp-plot", "3", "1", "2", "1000000000", "--csv", str(path))
    assert code == 1
    assert rec["error"]["type"] == "DomainError"
    assert not path.exists()
