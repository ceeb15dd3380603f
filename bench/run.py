"""Benchmark of lfmoments: three seeded closed-loop workloads with one client.

Run from the root of a checkout:

    python3 bench/run.py --workload exact_sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1          # all three workloads in turn

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a separate
run that gives the per-layer metrics from spans (see spans.py). Every output
is checked outside the timed intervals. The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the exit
code is 1 if any check failed. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import selectors
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import mpmath as mp

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans  # noqa: E402
from workloads import ERR_MISS, OUT_DIR, WORKLOADS, rounds_per_run  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
SETUP_REPEATS = 9
PROBE_REPEATS = 5
MIN_SAMPLES = 100  # so that p90 has at least ten samples beyond it
REQUEST_TIMEOUT = 30.0
WALL_LIMIT = 120.0  # stop early rather than overrun the run's time cap

END_TO_END = {
    "req_p50_ms": "ms",
    "req_p90_ms": "ms",
    "req_per_s": "1/s",
    "failed_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "correct_digits_min": "digits",
    "ms_per_correct_digit": "ms",
}
# BENCHMARK.json gates only metrics that are never 0; failed_frac is 0 on a
# healthy run, so it is printed and returned as "failed" instead
GATED = [m for m in END_TO_END if m != "failed_frac"]

# the layers each workload was built to stress (checked by test_bench.py)
STRESSED = {
    "cli_cold": ("cli.start",),
    "exact_sweep": ("exact_moments", "padic_valuation", "cli"),
    "approx_sweep": ("analytic_moments", "euler_products"),
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Worker:
    """A warm ``child.py serve`` process; ``setup_s`` is spawn to ready."""

    def __init__(self, workload: str, trace_out: str | None = None):
        start = perf_counter()
        cmd = [sys.executable, CHILD, "serve", workload] + ([trace_out] if trace_out else [])
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(), text=True
        )
        self._selector = selectors.DefaultSelector()
        self._selector.register(self.proc.stdout, selectors.EVENT_READ)
        try:
            if self._read() != {"ready": True}:
                raise RuntimeError(f"{workload} worker did not start")
        except BaseException:
            self.kill()
            raise
        self.setup_s = perf_counter() - start

    def _read(self) -> dict:
        if not self._selector.select(REQUEST_TIMEOUT):
            self.kill()
            raise TimeoutError("worker did not answer")
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("worker exited")
        return json.loads(line)

    def call(self, request_id: int, kind: str, payload) -> dict:
        line = json.dumps({"id": request_id, "kind": kind, "payload": payload})
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        """Ask the worker to exit (it writes its spans), then reap it."""
        try:
            self.proc.stdin.write('{"kind": "exit"}\n')
            self.proc.stdin.flush()
            self._read()
            self.proc.wait(timeout=REQUEST_TIMEOUT)
        except (OSError, RuntimeError, TimeoutError, subprocess.TimeoutExpired):
            pass  # a dead or stuck worker; its requests already count as failed
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._selector.close()


def run_cold(argv, trace_out: str | None = None) -> dict:
    """One fresh process per request, from spawn to output in hand."""
    if trace_out:
        cmd = [sys.executable, CHILD, "cli", trace_out, *argv]
    else:
        cmd = [sys.executable, "-m", "lfmoments.cli", *argv]
    start = perf_counter()
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env=child_env(), timeout=REQUEST_TIMEOUT
        )
    except subprocess.TimeoutExpired:
        return {"rc": "timeout", "out": "", "err": "", "dt": perf_counter() - start}
    dt = perf_counter() - start
    return {"rc": proc.returncode, "out": proc.stdout, "err": proc.stderr, "dt": dt}


def probe_ms(code: str) -> float:
    """Median wall time of a fresh ``python -c code``, in ms."""
    times = []
    for _ in range(PROBE_REPEATS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=child_env(), check=True)
        times.append(perf_counter() - start)
    return 1000.0 * statistics.median(times)


def header() -> dict:
    try:
        import mpmath

        mpmath_version = mpmath.__version__
    except ImportError:
        mpmath_version = None
    try:
        import gmpy2  # noqa: F401

        gmpy2_present = True
    except ImportError:
        gmpy2_present = False
    src = os.path.join("src", "lfmoments")
    src_loc = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as handle:
                src_loc += sum(1 for _ in handle)
    return {
        "python": platform.python_version(),
        "mpmath": mpmath_version,
        "gmpy2": gmpy2_present,
        "nproc": os.cpu_count(),
        "commit": commit(),
        "src_loc": src_loc,
    }


def commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(".git", "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(".git", ref)
        if os.path.exists(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(".git", "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Tally:
    """Latencies, check outcomes and correct digits of one side of a run."""

    def __init__(self):
        self.latencies = []
        self.failed = []
        self.digits = []  # (digits, seconds, layer)
        self.out_bytes = 0
        self.err_misses = []  # passed, but outside their own err_estimate

    def add(self, request, response: dict) -> None:
        self.latencies.append(response["dt"])
        self.out_bytes += len(response.get("out", "").encode())
        try:
            ok, digits, why = request.check(response)
        except Exception:
            ok, digits, why = False, None, traceback.format_exc(limit=1).strip()
        if not ok:
            self.failed.append((request.payload, why, response.get("err", "")[-400:]))
            return
        if why == ERR_MISS:
            self.err_misses.append(request.payload)
        if digits is not None:
            self.digits.append((digits, response["dt"], request.layer))

    @property
    def seconds(self) -> float:
        return sum(self.latencies)


def _execute(name: str, worker, request, request_id: int, trace_out=None) -> dict:
    if name == "cli_cold":
        return run_cold(request.payload, trace_out)
    try:
        return worker.call(request_id, request.kind, request.payload)
    except (OSError, RuntimeError, TimeoutError) as exc:
        return {"rc": "worker", "out": "", "err": str(exc), "dt": REQUEST_TIMEOUT}


def percentile(ordered, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile of sorted samples: a
    beta-weighted average of all order statistics. A single order statistic
    jumps between the cost clusters of a mixed workload; this does not."""
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    with mp.workdps(20):
        cdf = [mp.betainc(a, b, 0, mp.mpf(i) / n, regularized=True) for i in range(n + 1)]
    return sum(float(cdf[i + 1] - cdf[i]) * x for i, x in enumerate(ordered))


def _digits_metrics(digits) -> tuple:
    total = sum(d for d, _, _ in digits)
    return (
        min(d for d, _, _ in digits) if digits else 0.0,
        1000.0 * sum(s for _, s, _ in digits) / total if total else 0.0,
    )


def measure(name: str, seed: int, seconds: float) -> dict:
    """An untraced run: the end-to-end metrics."""
    rounds = WORKLOADS[name](random.Random(f"{name}/{seed}"))
    setups = []
    worker = None
    for i in range(SETUP_REPEATS):
        candidate = Worker(name)
        setups.append(candidate.setup_s)
        if name != "cli_cold" and i == SETUP_REPEATS - 1:
            worker = candidate
        else:
            candidate.close()
    tally = Tally()
    wall = perf_counter()
    todo = rounds_per_run(name, seconds)
    try:
        while todo > 0 or len(tally.latencies) < MIN_SAMPLES:
            todo -= 1
            for request in next(rounds):
                if perf_counter() - wall > WALL_LIMIT:
                    break
                tally.add(request, _execute(name, worker, request, len(tally.latencies)))
            if perf_counter() - wall > WALL_LIMIT:
                break
    finally:
        if worker:
            worker.close()
    lat = sorted(tally.latencies)
    n = len(lat)
    p90 = percentile(lat, 0.9)
    digits_min, ms_per_digit = _digits_metrics(tally.digits)
    values = {
        "req_p50_ms": 1000.0 * percentile(lat, 0.5),
        "req_p90_ms": 1000.0 * p90,
        "req_per_s": n / tally.seconds,
        "failed_frac": len(tally.failed) / n,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "correct_digits_min": digits_min,
        "ms_per_correct_digit": ms_per_digit,
    }
    samples = {
        "req_p50_ms": n,
        "req_p90_ms": sum(1 for x in lat if x > p90),
        "req_per_s": n,
        "failed_frac": n,
        "setup_s": len(setups),
        "peak_rss_mb": 1,
        "correct_digits_min": len(tally.digits),
        "ms_per_correct_digit": len(tally.digits),
    }
    metrics = {m: (values[m], END_TO_END[m], samples[m]) for m in END_TO_END}
    return {
        "attempted": n,
        "failures": tally.failed,
        "metrics": metrics,
        "err_misses": tally.err_misses,
    }


def _take_cold_spans(path: str, request_id: int, recorded: list) -> float:
    """Move one cold request's spans into ``recorded``; returns the time
    they cover at top level (cli.main), the rest being process start."""
    if not os.path.exists(path):
        return 0.0
    child = spans.load(path)
    os.remove(path)
    offset = len(recorded)
    for span in child:
        span[3] = span[3] + offset if span[3] >= 0 else -1
        span[4] = request_id
    recorded.extend(child)
    return spans.root_time(child)


def measure_traced(name: str, seed: int, seconds: float) -> dict:
    """A traced run: every request runs untraced and traced, alternately
    first; the per-layer metrics come from the traced side's spans."""
    rounds = WORKLOADS[name](random.Random(f"{name}/{seed}"))
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_out = os.path.join(OUT_DIR, f"spans-{name}.json")
    cold_out = os.path.join(OUT_DIR, "spans-cli_cold-request.json")
    plain, traced = Tally(), Tally()
    recorded = []
    start_s = 0.0
    workers = (None, None) if name == "cli_cold" else (Worker(name), Worker(name, trace_out))
    wall = perf_counter()
    todo = rounds_per_run(name, seconds / 2)  # each request runs twice
    try:
        while todo > 0 or len(traced.latencies) < MIN_SAMPLES:
            todo -= 1
            if perf_counter() - wall > WALL_LIMIT:
                break
            for request in next(rounds):
                if perf_counter() - wall > WALL_LIMIT:
                    break
                rid = len(traced.latencies)
                sides = [(plain, workers[0], False), (traced, workers[1], True)]
                for tally, worker, tracing in sides[:: 1 if rid % 2 else -1]:
                    if tracing and name == "cli_cold":
                        response = _execute(name, None, request, rid, cold_out)
                        start_s += response["dt"] - _take_cold_spans(cold_out, rid, recorded)
                    else:
                        response = _execute(name, worker, request, rid)
                    tally.add(request, response)
    finally:
        for worker in workers:
            if worker:
                worker.close()
    if name == "cli_cold":
        with open(trace_out, "w") as handle:
            json.dump(recorded, handle)
    else:
        recorded = spans.load(trace_out)
    agg = spans.aggregate(recorded)
    wall_s = traced.seconds
    values = {}
    for layer in spans.LAYERS:
        values[f"{layer}.calls"] = (agg[f"{layer}.calls"], "count")
        values[f"{layer}.self_s"] = (agg[f"{layer}.self_s"], "s")
        values[f"{layer}.share"] = (agg[f"{layer}.self_s"] / wall_s, "ratio")
        values[f"{layer}.failed"] = (agg[f"{layer}.failed"], "count")
    interp = probe_ms("pass")
    values["cli.interp_ms"] = (interp, "ms")
    values["cli.import_ms"] = (probe_ms("import lfmoments.cli") - interp, "ms")
    values["cli.import_mpmath_ms"] = (probe_ms("import mpmath") - interp, "ms")
    values["cli.out_bytes"] = (traced.out_bytes, "bytes")
    values["cli.start_s"] = (start_s, "s")
    values["cli.start_share"] = (start_s / wall_s, "ratio")
    values["exact_moments.out_digits"] = (agg["exact_moments.out_digits"], "digits")
    values["padic_valuation.p2_calls"] = (agg["padic_valuation.p2_calls"], "count")
    values["padic_valuation.p2_self_s"] = (agg["padic_valuation.p2_self_s"], "s")
    values["numeric_core.is_prime_s"] = (agg["numeric_core.is_prime_s"], "s")
    for layer in ("analytic_moments", "euler_products"):
        mine = [d for d in plain.digits if d[2] == layer]
        digits_min, ms_per_digit = _digits_metrics(mine)
        values[f"{layer}.correct_digits"] = (digits_min, "digits")
        values[f"{layer}.ms_per_digit"] = (ms_per_digit, "ms")
    misses = plain.err_misses + traced.err_misses
    values["analytic_moments.err_misses"] = (len(misses), "count")
    values["trace.overhead_frac"] = (traced.seconds / plain.seconds - 1.0, "ratio")
    shares = {layer: values[f"{layer}.share"][0] for layer in spans.LAYERS}
    shares["cli.start"] = values["cli.start_share"][0]
    dominant = max(shares, key=shares.get)
    n = len(plain.latencies) + len(traced.latencies)
    metrics = {m: (v, unit, len(traced.latencies)) for m, (v, unit) in values.items()}
    return {
        "attempted": n,
        "failures": plain.failed + traced.failed,
        "metrics": metrics,
        "dominant": dominant,
        "dominant_ok": dominant in STRESSED[name],
        "err_misses": misses,
    }


def report(name: str, result: dict, head: dict) -> None:
    print(f"# workload {name}  attempted {result['attempted']}  failed {len(result['failures'])}")
    print("# header " + json.dumps(head))
    for metric, (value, unit, samples) in result["metrics"].items():
        print(f"{name:13s} {metric:34s} {value:14.6g} {unit:7s} n={samples}")
    if "dominant" in result:
        verdict = "ok" if result["dominant_ok"] else "NOT one the workload stresses"
        print(f"# dominant layer: {result['dominant']} ({verdict})")
    for payload in result["err_misses"]:
        print(f"# err_estimate miss (limit route within its target digits) {payload!r}")
    for payload, why, err in result["failures"][:20]:
        print(f"# FAILED {payload!r}: {why} {err}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.exists(os.path.join("src", "lfmoments", "cli.py")):
        print("bench/run.py: run it from the root of an lfmoments checkout", file=sys.stderr)
        return 2
    sys.set_int_max_str_digits(0)
    sys.path.insert(0, os.path.abspath("src"))  # references that recompute
    os.makedirs(OUT_DIR, exist_ok=True)
    head = header()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        measure_run = measure_traced if args.trace else measure
        result = measure_run(name, args.seed, args.seconds)
        report(name, result, head)
        with open(os.path.join(OUT_DIR, f"result-{name}-trace{args.trace}.json"), "w") as handle:
            record = {"workload": name, "seed": args.seed, "header": head, **result}
            json.dump(record, handle, indent=1)
        correct &= not result["failures"]
        attempted += result["attempted"]
        failed += len(result["failures"])
        wanted = GATED if not args.trace else list(result["metrics"])
        prefix = "" if len(names) == 1 else f"{name}."
        for m in wanted:
            value, unit, _ = result["metrics"][m]
            metrics[prefix + m] = {"value": value, "unit": unit}
    summary = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
