"""Processes the benchmark starts; run with ``PYTHONPATH=src``.

``child.py serve WORKLOAD [TRACE_OUT]``
    A warm worker. It imports what WORKLOAD uses, warms up, prints one
    ``{"ready": true}`` line, then answers one JSON request per stdin line
    with one JSON response line. Only the call itself is timed; encoding
    the result happens after the clock stops. With TRACE_OUT it records
    spans and writes them there on exit.

``child.py cli TRACE_OUT ARG...``
    The traced form of ``python -m lfmoments.cli ARG...`` for cli_cold. It
    installs the span wrappers before it imports ``lfmoments.cli``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import traceback
from fractions import Fraction
from time import perf_counter


def _load(trace: bool):
    """Import lfmoments (and its cli), wrapping the layers first if tracing."""
    recorder = None
    if trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import spans

        recorder = spans.Recorder()
    import lfmoments  # noqa: F401  (every layer but cli)

    if recorder:
        recorder.install()
    import lfmoments.cli

    if recorder:
        recorder.install()
    return recorder


def _run_cli(argv):
    from lfmoments import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            rc = "exception"
            err.write(traceback.format_exc())
    return {"rc": rc, "out": out.getvalue(), "err": err.getvalue()}


def _library():
    from lfmoments import analytic_moments as am
    from lfmoments import euler_products as ep
    from lfmoments.exact_moments import SymmetryClass as S

    sym = S.parse
    return {
        "closed": lambda s, lam, bits: am.moment_closed_form(sym(s), Fraction(lam), bits),
        "limit": lambda s, lam, digits, bits: am.moment_by_limit(
            sym(s), Fraction(lam), digits, bits
        ),
        "barnes": lambda z, bits: am.barnes_g(Fraction(z), bits),
        "poles": lambda s, k, bits: am.pole_order(sym(s), k, precision_bits=bits),
        "logsum": lambda kind, n, bits: am.log_sum_asymptotics(kind, n, bits),
        "half": lambda bits: am.half_moment_unitary(bits),
        "assemble": lambda s, a, k, ak: ep.assemble_mean_value(
            ep.FamilyDescriptor(sym(s), Fraction(a), "bench"), k, Fraction(ak)
        ),
        "zeta": lambda k, cutoff, bits: ep.zeta_arithmetic_factor(
            float(Fraction(k)), cutoff, precision_bits=bits
        ),
        "spquad": lambda k, cutoff, bits: ep.sp_quadratic_arithmetic_factor(
            k, cutoff, precision_bits=bits
        ),
    }


def _encode(value):
    """JSON form of a library result; mpf values travel exactly."""
    from lfmoments import RealApprox
    from lfmoments.euler_products import MeanValueShape

    if isinstance(value, RealApprox):
        sign, man, exp, _ = value.value._mpf_
        return {
            "man": str(-int(man) if sign else int(man)),
            "exp": exp,
            "bits": value.precision_bits,
            "err": value.err_estimate,
        }
    if isinstance(value, MeanValueShape):
        return {
            "coefficient": _encode(value.coefficient),
            "log_power": value.log_power,
            "log_argument_exponent": str(value.log_argument_exponent),
        }
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    return value


def serve(workload: str, trace_out: str | None) -> None:
    recorder = _load(trace_out is not None)
    library = _library() if workload == "approx_sweep" else None
    if workload == "exact_sweep":
        _run_cli(["gk", "U", "2"])
    elif library:
        library["barnes"]("3/2", 128)
    if recorder:
        recorder.clear()
    reply = sys.stdout
    reply.write('{"ready": true}\n')
    reply.flush()
    for line in sys.stdin:
        request = json.loads(line)
        if request["kind"] == "exit":
            break
        if recorder:
            recorder.request = request["id"]
        if request["kind"] == "cli":
            start = perf_counter()
            response = _run_cli(request["payload"])
            response["dt"] = perf_counter() - start
        else:
            fn, *args = request["payload"]
            start = perf_counter()
            try:
                value = library[fn](*args)
                dt = perf_counter() - start
                response = {"value": _encode(value)}
            except Exception as exc:
                dt = perf_counter() - start
                response = {"error": type(exc).__name__, "message": str(exc)}
            response["dt"] = dt
        response["id"] = request["id"]
        reply.write(json.dumps(response) + "\n")
        reply.flush()
    if recorder:
        recorder.dump(trace_out)
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reply.write(json.dumps({"exit": True, "maxrss_kb": maxrss}) + "\n")
    reply.flush()


def cold_cli(trace_out: str, argv) -> int:
    recorder = _load(True)
    from lfmoments import cli

    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code
    finally:
        recorder.dump(trace_out)


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "serve":
        serve(sys.argv[2], sys.argv[3] if len(sys.argv) > 3 else None)
    elif mode == "cli":
        sys.exit(cold_cli(sys.argv[2], sys.argv[3:]))
    else:
        sys.exit(f"unknown mode {mode!r}")
