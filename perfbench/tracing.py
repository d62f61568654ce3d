"""Spans around the calls through which the harness enters each layer.

The wrappers are installed from the benchmark's own files: every module of
the package that holds one of the functions below gets the wrapped version
in its place, and methods are replaced on their class.  Spans carry a name,
start, end, parent link and self time, and stay in memory until the run
writes them out.  Each span also records, from ``tracemalloc``, the peak
traced memory above what was allocated when it opened.
"""
from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc

MB = 2**20

# (span name, module, attribute); a class name in the attribute marks a method
LAYER_FUNCTIONS = [
    ("operators.norm", "operators", "SmoothingKernel.norm"),
    (
        "operators.twisted_invariance_defect",
        "operators",
        "SmoothingKernel.twisted_invariance_defect",
    ),
    ("operators.trace_tau", "operators", "trace_tau"),
    ("pairing.pair_cocycle", "pairing", "pair_cocycle"),
    ("parametrix.index_idempotent", "parametrix", "index_idempotent"),
    ("parametrix.analytic_index", "parametrix", "analytic_index"),
    ("topindex.symbol_class", "topindex", "symbol_class_dolbeault"),
    ("topindex.symbol_class", "topindex", "symbol_class_multiplier"),
    ("topindex.topological_index", "topindex", "topological_index"),
    ("topindex.half_shift_quotient_index", "topindex", "half_shift_quotient_index"),
    ("topindex.family_index_orbifold", "topindex", "family_index_orbifold"),
    ("harness.save_coefficients", "harness", "save_coefficients"),
    ("harness.load_coefficients", "harness", "load_coefficients"),
    ("harness.load_scenario", "harness", "load_scenario"),
    ("harness.run_scenario", "harness", "run_scenario"),
    ("harness.run_suite", "harness", "run_suite"),
    ("dolbeault.dolbeault_family", "dolbeault", "dolbeault_family"),
    ("density.compute_cutoff", "density", "compute_cutoff"),
    ("symbols.quantize", "symbols", "quantize"),
]


def _kernel_bytes(idem) -> int:
    return sum(m.nbytes for m in idem.skernel.mats)


# span name -> function of the returned value giving the bytes it holds
RESULT_BYTES = {"parametrix.index_idempotent": _kernel_bytes}


class Tracer:
    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[dict] = []
        self._open: list[dict] = []

    def _enter(self, name: str) -> dict:
        # tracemalloc keeps one peak; before resetting it for the new span,
        # fold it into the running absolute peak of the span that encloses it
        _, peak = tracemalloc.get_traced_memory()
        if self._open:
            outer = self._open[-1]
            outer["_peak"] = max(outer["_peak"], peak)
        tracemalloc.reset_peak()
        current, _ = tracemalloc.get_traced_memory()
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1]["id"] if self._open else None,
            "start": time.perf_counter() - self.origin,
            "_base": current,
            "_peak": current,
            "_child_s": 0.0,
        }
        self.spans.append(span)
        self._open.append(span)
        return span

    def _exit(self, span: dict) -> None:
        span["end"] = time.perf_counter() - self.origin
        _, peak = tracemalloc.get_traced_memory()
        peak = max(span.pop("_peak"), peak)
        span["peak_bytes"] = peak - span.pop("_base")
        duration = span["end"] - span["start"]
        span["self_s"] = duration - span.pop("_child_s")
        self._open.pop()
        if self._open:
            outer = self._open[-1]
            outer["_child_s"] += duration
            outer["_peak"] = max(outer["_peak"], peak)

    def wrap(self, name: str, fn):
        measure = RESULT_BYTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if measure is not None:
                span["result_bytes"] = measure(result)
            return result

        return traced

    def summary(self) -> dict:
        """Per span name: calls, inclusive and self seconds, peak and result bytes."""
        out: dict[str, dict] = {}
        for span in self.spans:
            agg = out.setdefault(
                span["name"],
                {"calls": 0, "total_s": 0.0, "self_s": 0.0, "peak_mb": 0.0, "result_mb": 0.0},
            )
            agg["calls"] += 1
            agg["total_s"] += span["end"] - span["start"]
            agg["self_s"] += span["self_s"]
            agg["peak_mb"] = max(agg["peak_mb"], span["peak_bytes"] / MB)
            agg["result_mb"] += span.get("result_bytes", 0) / MB
        return out

    def write(self, path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(extra, layers=self.summary(), spans=self.spans)
        path.write_text(json.dumps(doc, indent=1) + "\n")


def install(package: str, checks: dict) -> Tracer:
    """Wrap the layer entry points of ``package`` and each property check.

    Every module of the package that bound one of the functions by name gets
    the wrapper, so calls from any layer are traced once.
    """
    tracer = Tracer()
    modules = [m for n, m in list(sys.modules.items()) if n.startswith(package + ".")]
    for name, module, attr in LAYER_FUNCTIONS:
        owner = sys.modules[f"{package}.{module}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, tracer.wrap(name, getattr(cls, meth)))
            continue
        original = getattr(owner, attr)
        wrapped = tracer.wrap(name, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
    for check_name, fn in list(checks.items()):
        checks[check_name] = tracer.wrap(f"harness.check.{check_name}", fn)
    tracemalloc.start()
    return tracer
