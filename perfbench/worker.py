"""In-process child of the benchmark: library throughput, or the traced run.

    python perfbench/worker.py serve SPEC_JSON
    python perfbench/worker.py trace SPEC_JSON BUDGET_S OUT_JSON SPANS_JSON

``serve`` times ``arcplate.run_sweep`` on the workload's SweepConfig in a warm
process, one sweep per request, so that the benchmark can interleave them
with its command-line invocations. ``trace`` times the microbenchmarks, then
alternates untraced and traced calls of ``arcplate.cli.main`` with the
workload's arguments. Tracing
patches each layer's public functions where the caller looks them up and
records one span per call (name, start, end, parent) in memory; the spans
of the last traced call are written once, at the end. Nothing is wrapped per integrand point: that
tripled the sweep time, so pointwise geometry cost comes from a
microbenchmark instead. A patch target that no longer exists marks its layer
absent rather than failing the run.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import statistics
import sys
import time
from pathlib import Path

import stats
import workloads

MIN_PAIRS = 2


def _versions() -> dict:
    import arcplate

    numpy = sys.modules.get("numpy")
    return {
        "arcplate": getattr(arcplate, "__version__", "unknown"),
        "numpy": getattr(numpy, "__version__", "not imported"),
    }


def build_config(spec: dict):
    import arcplate

    def model(token: str):
        if token == "pfa":
            return arcplate.PFA
        if token == "ntlo":
            return arcplate.NTLO
        return arcplate.scaled_ntlo(float(token.split(":", 1)[1]))

    materials = [arcplate.material_by_name(name) for name in spec["builtin_materials"]]
    materials += [
        arcplate.Material(e["name"], youngs_modulus=e["youngs_modulus_pa"],
                          poisson_ratio=e["poisson_ratio"])
        for e in spec["file_materials"]
    ]
    return arcplate.SweepConfig(
        gap_min=spec["gap_min"], gap_max=spec["gap_max"], points=spec["points"],
        radius=spec["radius"], half_span=spec["half_span"],
        materials=tuple(materials), models=tuple(model(t) for t in spec["models"]),
    ), model(spec["reference_model"])


def sampled_rows(table, config, ref_model, indices) -> list[list[float]]:
    """[gap, energy per model..., reference-model thickness per material...]."""
    out = []
    for i in indices:
        row = table.rows[i]
        out.append(
            [row.gap]
            + [row.energies[m.key] for m in config.models]
            + [row.thickness[(mat.name, ref_model.key)] for mat in config.materials]
        )
    return out


def serve(spec: dict) -> None:
    """Answer each "sweep" line on stdin with the seconds of one timed run_sweep.

    Any other line ends the loop; a last line of JSON then reports the rows
    sampled from the first timed sweep and how many later sweeps differed.
    """
    import arcplate

    replies, sys.stdout = sys.stdout, sys.stderr  # nothing arcplate prints can garble replies
    config, ref_model = build_config(spec)
    arcplate.run_sweep(config)  # warm-up: imports and lazy set-up are paid once
    print("ready", file=replies, flush=True)
    first, mismatched, rows = None, 0, 0
    for line in sys.stdin:
        if line.strip() != "sweep":
            break
        start = time.perf_counter()
        table = arcplate.run_sweep(config)
        elapsed = time.perf_counter() - start
        rows = len(table.rows)
        sample = sampled_rows(table, config, ref_model, spec["sample_rows"])
        if first is None:
            first = sample
        elif sample != first:
            mismatched += 1
        print(repr(elapsed), file=replies, flush=True)
    print(json.dumps({"rows": rows, "sample": first, "mismatched": mismatched,
                      "versions": _versions()}), file=replies, flush=True)


class Tracer:
    """Spans kept in memory: (id, request, name, parent, start, end, evals, rel_err)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.request = 0

    def wrap(self, name, fn, quadrature=False):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (span_id, self.request, name, parent, start, end, None, None)
            if quadrature:
                rel = result.error_estimate / abs(result.value) if result.value else 0.0
                spans[span_id] = spans[span_id][:6] + (result.evaluations, rel)
            return result

        return traced


# (module, attribute, span name, layer); attribute "A.b" patches method b of class A.
PATCHES = (
    ("arcplate.cli", "run_sweep", "analysis.run_sweep", "analysis"),
    ("arcplate.analysis", "arc_energy", "casimir.arc_energy", "casimir"),
    ("arcplate.casimir", "integrate", "quadrature.integrate", "quadrature"),
    ("arcplate.analysis", "critical_thickness", "analysis.critical_thickness", "analysis"),
    ("arcplate.analysis", "ArcGeometry", "geometry.construct", "geometry"),
    ("arcplate.geometry", "ArcGeometry.arc_length", "geometry.arc_length", "geometry"),
)


def _resolve(module_name: str, attr: str):
    """(owner object, attribute name, current value) or None when missing."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, last, None)
    return None if value is None else (owner, last, value)


@contextlib.contextmanager
def patched(tracer: Tracer):
    saved = []
    try:
        for module_name, attr, span, _ in PATCHES:
            found = _resolve(module_name, attr)
            if found is None:
                continue
            owner, last, value = found
            saved.append((owner, last, value))
            quadrature = span == "quadrature.integrate"
            setattr(owner, last, tracer.wrap(span, value, quadrature=quadrature))
        yield
    finally:
        for owner, last, value in reversed(saved):
            setattr(owner, last, value)


def absent_layers() -> list[str]:
    missing = {layer for m, a, _, layer in PATCHES if _resolve(m, a) is None}
    if _resolve("arcplate.cli", "main") is None:
        missing.add("cli")
    return sorted(missing)


def request_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer figures of one traced cli.main call."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        children.setdefault(s[3], []).append((s[4], s[5]))

    def own(s):
        return stats.self_time(s[4], s[5], children.get(s[0], ()))

    by_name: dict[str, list[tuple]] = {}
    for s in spans:
        by_name.setdefault(s[2], []).append(s)

    def total(name, fn):
        return sum(fn(s) for s in by_name.get(name, ()))

    def duration(s):
        return s[5] - s[4]

    quad = by_name.get("quadrature.integrate", [])
    evals = sum(s[6] for s in quad)
    return {
        "cli.main_self_s": total("cli.main", own),
        "analysis.run_sweep_s": total("analysis.run_sweep", duration),
        "analysis.run_sweep_self_s": total("analysis.run_sweep", own),
        "analysis.critical_thickness_calls": len(by_name.get("analysis.critical_thickness", [])),
        "analysis.critical_thickness_s": total("analysis.critical_thickness", duration),
        "casimir.arc_energy_calls": len(by_name.get("casimir.arc_energy", [])),
        "casimir.arc_energy_self_s": total("casimir.arc_energy", own),
        "quadrature.integrate_calls": len(quad),
        "quadrature.integrate_s": total("quadrature.integrate", duration),
        "quadrature.evals": evals,
        "quadrature.evals_per_integral": evals / len(quad) if quad else 0.0,
        "quadrature.max_rel_error_estimate": max((s[7] for s in quad), default=0.0),
        "geometry.construct_calls": len(by_name.get("geometry.construct", [])),
        "geometry.construct_s": total("geometry.construct", duration),
        "geometry.arc_length_s": total("geometry.arc_length", duration),
    }


def _per_call_us(fn, target_s: float = 0.05, batches: int = 5) -> float:
    """Median over batches of the time per call, in microseconds."""
    calls = 1
    while True:
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        if time.perf_counter() - start >= target_s / 4 or calls >= 1 << 20:
            break
        calls *= 2
    per_call = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        per_call.append((time.perf_counter() - start) / calls)
    return statistics.median(per_call) * 1e6


MICRO_GAPS = (  # None: 1.01 times the sagitta
    ("gap-0.1um", 0.1e-6), ("gap-0.5um", 0.5e-6), ("gap-1um", 1e-6), ("gap-1.01sag", None),
)


def microbenchmarks(spec: dict) -> dict[str, float]:
    import arcplate

    out = {}
    radius, half_span = spec["radius"], spec["half_span"]
    sag = workloads.sagitta()
    if hasattr(arcplate, "arc_energy") and hasattr(arcplate, "NTLO"):
        for label, gap in MICRO_GAPS:
            geom = arcplate.ArcGeometry(radius=radius, half_span=half_span,
                                        gap=sag * 1.01 if gap is None else gap)
            out[f"casimir.arc_energy_us.{label}"] = _per_call_us(
                lambda: arcplate.arc_energy(geom, arcplate.NTLO))
    geom = arcplate.ArcGeometry(radius=radius, half_span=half_span, gap=0.1e-6)
    if hasattr(geom, "separation") and hasattr(geom, "slope"):
        y = 0.5 * half_span

        def pointwise():
            geom.separation(y)
            geom.slope(y)

        out["geometry.pointwise_us"] = _per_call_us(pointwise)
    return out


def run_trace(spec: dict, budget: float, spans_path: str) -> dict:
    deadline = time.perf_counter() + budget
    import arcplate.cli

    micro = microbenchmarks(spec)
    argv, csv_path = spec["cli_args"], Path(spec["csv_path"])
    tracer = Tracer()
    per_request, overhead, exit_codes, digests = [], [], [], []

    def call(traced: bool) -> float:
        sink = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            if traced:
                with patched(tracer):
                    code = tracer.wrap("cli.main", arcplate.cli.main)(argv)
            else:
                code = arcplate.cli.main(argv)
        elapsed = time.perf_counter() - start
        exit_codes.append(code)
        digests.append(hashlib.sha256(csv_path.read_bytes()).hexdigest() if code == 0 else "")
        return elapsed

    loop_start = time.perf_counter()
    while True:
        now = time.perf_counter()
        pair_s = (now - loop_start) / max(1, len(overhead))
        if len(overhead) >= MIN_PAIRS and now + pair_s > deadline:
            break  # the next pair would end past the budget
        untraced = call(False)
        tracer.request += 1
        first = len(tracer.spans)
        traced = call(True)
        overhead.append(traced - untraced)
        per_request.append(request_metrics(tracer.spans[first:]))

    metrics = {name: statistics.median([r[name] for r in per_request]) for name in per_request[0]}
    metrics.update(micro)
    metrics["trace.overhead_s"] = statistics.median(overhead)
    Path(spans_path).write_text(json.dumps({  # the last traced call; all of them run to MBs
        "fields": ["id", "request", "name", "parent", "start_s", "end_s", "evaluations",
                   "rel_error_estimate"],
        "spans": tracer.spans[first:],
    }))
    return {"metrics": metrics, "absent": absent_layers(), "exit_codes": exit_codes,
            "csv_sha256": digests, "overhead_s": overhead, "versions": _versions()}


def main(argv: list[str]) -> int:
    mode, spec = argv[0], json.loads(Path(argv[1]).read_text())
    if mode == "serve":
        serve(spec)
    elif mode == "trace":
        budget, out_path, spans_path = argv[2:5]
        result = run_trace(spec, float(budget), spans_path)
        Path(out_path).write_text(json.dumps(result))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
