"""Self-tests of the benchmark: its oracles, its checks and its workloads.

    python3 -m pytest bench/test_bench.py -q

They live outside the repository's test paths, so the package's own test
run is unaffected. The traced tests run one round of each workload.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction

import mpmath as mp
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads as w  # noqa: E402
import child  # noqa: E402
from lfmoments import (  # noqa: E402
    SymmetryClass,
    moment_by_limit,
    moment_closed_form,
    moment_constant_factorial_form,
    zero_valuation_window,
    zeta_arithmetic_factor,
)
from lfmoments import cli  # noqa: E402


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)
    os.makedirs(w.OUT_DIR, exist_ok=True)
    sys.set_int_max_str_digits(0)


def respond(request) -> dict:
    """Run a CLI request in-process, as the warm worker does."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(request.payload))
        except SystemExit as exc:
            rc = exc.code
    return {"rc": rc, "out": out.getvalue(), "err": err.getvalue(), "dt": 0.0}


@pytest.mark.parametrize("sym", ["U", "O", "Sp"])
def test_legendre_oracle_matches_factorial_form(sym):
    for k in range(1, 26):
        assert oracle.integer(sym, k) == moment_constant_factorial_form(
            SymmetryClass.parse(sym), k
        )


def test_euler_reference_reproduces_known_products():
    with mp.workdps(40):
        assert abs(oracle.euler_reference("zeta", Fraction(2)) - 6 / mp.pi**2) < mp.mpf(10) ** -35
        assert abs(oracle.euler_reference("zeta", Fraction(1)) - 1) < mp.mpf(10) ** -35


def _sample_requests():
    rng = random.Random(5)
    pc, qc = w.polynomials(rng, "O")
    return [
        w.cli_gk("U", 30, True),
        w.cli_vp("Sp", 2, 40),
        w.cli_window("U", 37, 31),
        w.cli_cp(7, Fraction(1234, 4567)),
        w.cli_cp_numeric(3, Fraction(5, 13), 1e-9),
        w.cli_classify(5, 3, 13),
        w.cli_mollify("O", pc, qc, Fraction(1, 2)),
        w.cli_asym("O", 40),
        w.cli_poles("U", 2),
        w.cli_glambda("Sp", Fraction(-69, 200), False),
        w.cli_ak("spquad", Fraction(2), 1000),
        w.cli_assemble("U", Fraction(1, 2), 2, 1000),
        w.cli_assemble("O", Fraction(3), 7, ak=Fraction(5, 7)),
    ]


def _corrupt(out: str) -> str:
    """Change the last digit of the output to another digit."""
    i = max(i for i, ch in enumerate(out) if ch.isdigit())
    return out[:i] + str((int(out[i]) + 1) % 10) + out[i + 1 :]


@pytest.mark.parametrize("request_", _sample_requests(), ids=lambda r: " ".join(r.payload[:2]))
def test_check_accepts_true_record_and_catches_corruption(request_):
    response = respond(request_)
    ok, _, why = request_.check(response)
    assert ok, why
    bad = dict(response, out=_corrupt(response["out"]))
    assert not request_.check(bad)[0]


def test_corrupted_record_counts_as_failed():
    request_ = w.cli_gk("Sp", 12, False)
    good = respond(request_)
    bad = dict(good, out=good["out"].replace('"result": "', '"result": "1', 1))
    tally = run.Tally()
    tally.add(request_, good)
    tally.add(request_, bad)
    assert len(tally.latencies) == 2 and len(tally.failed) == 1


def test_error_records_are_checked():
    assert w.cli_domain_error(["glambda", "U", "--", "-1/2"], "PoleError").check(
        respond(w.Request("cli", ["glambda", "U", "--", "-1/2"], None))
    )[0]
    usage = w.cli_usage_error(["vp", "U", "4", "3"])
    assert usage.check(respond(usage))[0]
    assert not usage.check({"rc": 0, "out": "{}\n", "err": ""})[0]


@pytest.mark.parametrize("name", sorted(run.STRESSED))
def test_dominant_layer_is_one_the_workload_stresses(name, monkeypatch):
    monkeypatch.setattr(run, "MIN_SAMPLES", 1)
    result = run.measure_traced(name, seed=3, seconds=0.1)
    assert not result["failures"]
    assert result["dominant_ok"], result["dominant"]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        per_layer = [m["name"] for m in json.load(handle)["per_layer"]]
    assert sorted(result["metrics"]) == sorted(per_layer)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli_cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# Known defects that keep inputs out of the workloads (see README.md).


@pytest.mark.xfail(strict=True, reason="err_estimate undercovers the truncation error at k = 1/2")
@pytest.mark.parametrize("cutoff", [1000, 10000])
def test_zeta_factor_err_estimate_covers_half_degree(cutoff):
    got = zeta_arithmetic_factor(0.5, cutoff, precision_bits=128)
    ref = oracle.euler_reference("zeta", Fraction(1, 2))
    assert abs(got.value - ref) <= got.err_estimate


@pytest.mark.xfail(strict=True, reason="the window criterion misreads p = 2")
def test_window_criterion_at_two():
    assert zero_valuation_window(SymmetryClass.O, 2, 3) == (oracle.valuation("O", 2, 3) == 0)


@pytest.mark.xfail(strict=True, reason="the last Richardson gap undercovers on ~0.2% of inputs")
def test_limit_err_estimate_covers_gap_to_closed_form():
    lam = Fraction(-3, 500)
    got = moment_by_limit(SymmetryClass.Sp, lam, 8, 128)
    ref = moment_closed_form(SymmetryClass.Sp, lam, 128)
    assert abs(got.value - ref.value) <= got.err_estimate + ref.err_estimate


def test_limit_err_miss_passes_within_target_and_is_counted():
    request_ = w.lib_limit("Sp", Fraction(-3, 500), 8, 128)
    value = moment_by_limit(SymmetryClass.Sp, Fraction(-3, 500), 8, 128)
    response = {"value": child._encode(value), "dt": 0.0}
    tally = run.Tally()
    tally.add(request_, response)
    assert not tally.failed and tally.err_misses == [request_.payload]


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [m["name"] for m in spec["end_to_end"]] == run.GATED
    assert sorted(x["name"] for x in spec["workloads"]) == sorted(w.WORKLOADS)
