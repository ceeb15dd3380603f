"""Spans around calls into each layer of ``lfmoments``, recorded from outside.

``Recorder.install`` replaces every public function of every layer module
at every binding site (``cli.moment_constant``, ``padic_valuation.
moment_constant``, ``self_similar.valuation``, ...), so calls within a
module and calls across modules both nest. Generator functions are left
alone, because a span around one would close before its work runs.

A span is ``[name, start, end, parent, request, failed, tag]``; spans stay
in memory until ``dump`` writes them out. ``aggregate`` turns a list of
spans into per-layer counts and self times, where a span's self time is its
duration minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
from time import perf_counter

LAYERS = (
    "numeric_core",
    "exact_moments",
    "padic_valuation",
    "self_similar",
    "analytic_moments",
    "euler_products",
    "mollifier",
    "cli",
)

_LOG10_2 = math.log10(2)


def _tag_p2(args, kwargs, result):
    p = args[1] if len(args) > 1 else kwargs.get("p")
    return "p2" if p == 2 else None


def _tag_digits(args, kwargs, result):
    return int(result.bit_length() * _LOG10_2) + 1 if isinstance(result, int) else None


_TAGS = {
    "padic_valuation.valuation": _tag_p2,
    "exact_moments.moment_constant": _tag_digits,
    "exact_moments.moment_constant_factorial_form": _tag_digits,
}


class Recorder:
    def __init__(self):
        self.spans = []
        self.request = None
        self._stack = []
        self._wrappers = {}

    def _wrap(self, layer: str, fn):
        name = f"{layer}.{fn.__name__}"
        tag = _TAGS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            failed = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = perf_counter()
                stack.pop()
                label = tag(args, kwargs, result) if tag and not failed else None
                spans[index] = [name, start, end, parent, self.request, failed, label]

        return traced

    def install(self) -> None:
        """Wrap the layers' public functions in every loaded lfmoments module."""
        for layer in LAYERS:
            module = sys.modules.get(f"lfmoments.{layer}")
            if module is None:
                continue
            for fname, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not fname.startswith("_")
                    and not inspect.isgeneratorfunction(obj)
                    and obj not in self._wrappers
                    and obj not in self._wrappers.values()
                ):
                    self._wrappers[obj] = self._wrap(layer, obj)
        for mname, module in list(sys.modules.items()):
            if mname != "lfmoments" and not mname.startswith("lfmoments."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in self._wrappers:
                    setattr(module, attr, self._wrappers[obj])

    def clear(self) -> None:
        self.spans.clear()

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump([s for s in self.spans if s is not None], handle)


def load(path: str) -> list:
    with open(path) as handle:
        return json.load(handle)


def aggregate(spans: list) -> dict:
    """Per-layer calls, self seconds and failures, plus the named counters."""
    child = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {f"{layer}.{field}": 0 for layer in LAYERS for field in ("calls", "self_s", "failed")}
    out.update(
        {
            "padic_valuation.p2_calls": 0,
            "padic_valuation.p2_self_s": 0.0,
            "numeric_core.is_prime_s": 0.0,
            "exact_moments.out_digits": 0,
        }
    )
    for (name, start, end, parent, request, failed, tag), inner in zip(spans, child):
        layer = name.split(".", 1)[0]
        self_s = end - start - inner
        out[f"{layer}.calls"] += 1
        out[f"{layer}.self_s"] += self_s
        out[f"{layer}.failed"] += int(failed)
        if tag == "p2":
            out["padic_valuation.p2_calls"] += 1
            out["padic_valuation.p2_self_s"] += self_s
        elif isinstance(tag, int):
            out["exact_moments.out_digits"] += tag
        if name == "numeric_core.is_prime":
            out["numeric_core.is_prime_s"] += self_s
    return out


def root_time(spans: list, name: str = "cli.main") -> float:
    """Total duration of the top-level spans called ``name``."""
    return sum(end - start for n, start, end, parent, *_ in spans if parent < 0 and n == name)
