"""arcplate benchmark: one closed-loop client, one workload per run.

    python3 perfbench/run.py --workload default-sweep --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 40

Run from the root of a source tree (the directory holding src/arcplate).
With --trace 0 the run measures what a user sees: fresh-interpreter
``python -m arcplate sweep --out ...`` invocations one after another, the
import of ``arcplate.cli`` in a fresh interpreter, and ``run_sweep`` in a warm
process. With --trace 1 it measures the layers instead, in a separate traced
in-process run. Every output is checked against a 34-digit mpmath reference
computed here, and every invocation's CSV against the first one's bytes. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it list every metric with its
unit and the provenance of the run. Raw samples, provenance and the trace's
spans are written under .perfbench_out/ in the source tree. See
perfbench/README.md for the workloads and the layer-to-metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import stats
from reference import Reference, rel_dev
from workloads import HALF_SPAN, RADIUS, REFERENCE_MODEL, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKER = Path(__file__).resolve().parent / "worker.py"
PY = sys.executable

ORACLE_RTOL = 1e-6  # the acceptance suite's oracle tolerance
IMPORTTIME_PROBES = 5
MIN_INVOCATIONS = stats.TAIL_BEYOND + 1  # so wall_s_tail has a percentile to report
CHILD_TIMEOUT_S = 60
STOP_STARTING_AFTER_S = 120  # keeps a slow machine inside the 180 s limit

END_TO_END_UNITS = {
    "wall_s": "s", "wall_s_tail": "s", "sweep_rows_per_s": "rows/s", "setup_s": "s",
    "peak_rss_mb": "MB", "max_rel_err": "ratio", "ok_frac": "ratio",
}
PER_LAYER_UNITS = {
    "quadrature.evals": "count", "quadrature.evals_per_integral": "count",
    "quadrature.integrate_calls": "count", "quadrature.integrate_s": "s",
    "quadrature.max_rel_error_estimate": "ratio",
    "geometry.pointwise_us": "us", "geometry.construct_calls": "count",
    "geometry.construct_s": "s", "geometry.arc_length_s": "s",
    "casimir.arc_energy_calls": "count", "casimir.arc_energy_self_s": "s",
    "casimir.arc_energy_us.gap-0.1um": "us", "casimir.arc_energy_us.gap-0.5um": "us",
    "casimir.arc_energy_us.gap-1um": "us", "casimir.arc_energy_us.gap-1.01sag": "us",
    "analysis.run_sweep_s": "s", "analysis.run_sweep_self_s": "s",
    "analysis.critical_thickness_calls": "count", "analysis.critical_thickness_s": "s",
    "cli.main_self_s": "s", "cli.bytes_out": "bytes",
    "import.numpy_s": "s", "import.arcplate_s": "s",
    "elasticity.material_warnings": "count", "trace.overhead_s": "s",
}


@dataclass
class Child:
    code: int
    seconds: float
    max_rss_mb: float
    stderr: bytes


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], workdir: Path, timeout: float = CHILD_TIMEOUT_S) -> Child:
    """Run one child to completion; wall time from spawn to reap, max RSS from wait4."""
    err_path = workdir / "child.stderr"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err,
                                env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, seconds, usage.ru_maxrss / 1024.0, err_path.read_bytes())


def check_values(values: list[float], wl: Workload, ref: Reference) -> float:
    """Largest relative deviation of [gap, energies..., thicknesses...] from the reference."""
    gap, energies = values[0], values[1:1 + len(wl.models)]
    thicknesses = values[1 + len(wl.models):]
    worst = 0.0
    for value, (_, kappa) in zip(energies, wl.models):
        worst = max(worst, rel_dev(value, ref.energy(gap, kappa)))
    u_ref = ref.energy(gap, REFERENCE_MODEL[1])
    for value, (_, e_pa, nu) in zip(thicknesses, wl.materials):
        worst = max(worst, rel_dev(value, ref.thickness(u_ref, e_pa, nu)))
    return worst


def check_csv(text: str, wl: Workload, ref: Reference) -> tuple[list[str], float]:
    """(problems, largest relative deviation over the sampled rows)."""
    lines = text.splitlines()
    header = lines[0].split(",") if lines else []
    width = 1 + len(wl.models) + len(wl.materials) + 1  # gap, u_*, t_max_*, delta
    if len(lines) != wl.points + 1 or len(header) != width:
        return [f"CSV has {len(lines) - 1} rows and {len(header)} columns, "
                f"expected {wl.points} and {width}"], 0.0
    worst = 0.0
    for i in wl.sample_rows():
        cells = [float(c) for c in lines[1 + i].split(",")]
        worst = max(worst, check_values(cells[:width - 1], wl, ref))
    problems = [f"sampled row off by {worst:.3g} > {ORACLE_RTOL:g}"] if worst > ORACLE_RTOL else []
    return problems, worst


class LibraryWorker:
    """A warm child running one arcplate.run_sweep per request (worker.py serve)."""

    def __init__(self, spec: dict, workdir: Path):
        spec_path = workdir / "serve.spec.json"
        spec_path.write_text(json.dumps(spec))
        self._stderr = open(workdir / "serve.stderr", "wb")
        self.proc = subprocess.Popen(
            [PY, str(WORKER), "serve", str(spec_path)], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=self._stderr, env=child_env(), cwd=ROOT, text=True,
        )
        self.alive = True
        self._ask("")  # returns once the warm-up sweep is done, so it overlaps no timing

    def _ask(self, request: str) -> str:
        watchdog = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        watchdog.start()
        try:
            if request:
                self.proc.stdin.write(request + "\n")
                self.proc.stdin.flush()
            answer = self.proc.stdout.readline()
        except BrokenPipeError:
            answer = ""
        finally:
            watchdog.cancel()
        self.alive = bool(answer)
        return answer

    def sweep(self) -> float | None:
        """Seconds of one timed run_sweep, or None once the worker has failed."""
        try:
            return float(self._ask("sweep"))
        except ValueError:
            self.alive = False
            return None

    def close(self) -> dict | None:
        """The worker's final report; the worker has exited when this returns."""
        answer = self._ask("done") if self.alive else ""
        if not answer:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout, self._stderr):
            stream.close()
        if self.proc.returncode != 0 or not answer:
            print(f"library worker failed: exit {self.proc.returncode}", file=sys.stderr)
            return None
        return json.loads(answer)


def run_trace_worker(spec: dict, budget: float, workdir: Path, spans_path: Path) -> dict | None:
    spec_path, out_path = workdir / "trace.spec.json", workdir / "trace.out.json"
    spec_path.write_text(json.dumps(spec))
    try:
        done = subprocess.run(
            [PY, str(WORKER), "trace", str(spec_path), str(budget), str(out_path), str(spans_path)],
            env=child_env(), cwd=ROOT, capture_output=True, timeout=budget + CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print("trace worker timed out", file=sys.stderr)
        return None
    if done.returncode != 0:
        sys.stderr.write(done.stderr.decode(errors="replace")[-4000:])
        return None
    return json.loads(out_path.read_text())


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(wl: Workload, args, cli_argv: list[str], versions: dict) -> dict:
    return {
        "workload": wl.name, "seed": wl.seed, "seconds": args.seconds, "trace": args.trace,
        "argv": cli_argv, "arcplate": versions.get("arcplate", "unknown"),
        "python": platform.python_version(), "numpy": versions.get("numpy", "unknown"),
        "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
        "platform": platform.platform(), "git_commit": git_commit(),
        "src_sha256": src_digest(), "started_utc": datetime.now(timezone.utc).isoformat(),
    }


def end_to_end(wl: Workload, seconds: float, workdir: Path, cli_argv: list[str]) -> dict:
    """Rounds until --seconds, each one CLI invocation, one fresh import and one
    warm run_sweep. Interleaving spreads every metric's samples over the whole
    run, so a slow spell on a shared machine shifts them all a little instead
    of one of them a lot."""
    start = time.perf_counter()
    deadline = start + seconds
    import_argv = [PY, "-c", "import arcplate.cli"]
    run_child(import_argv, workdir)  # untimed: fills __pycache__, which users pay once
    library = LibraryWorker(wl.library_spec(), workdir)

    calls: list[Child] = []
    probes: list[Child] = []
    sweeps: list[float] = []
    digests: list[str] = []
    texts: dict[str, str] = {}
    csv_path = workdir / "sweep.csv"
    sidecar = workdir / "sweep.meta.json"
    loop_start = time.perf_counter()
    try:
        while True:
            now = time.perf_counter()
            round_s = (now - loop_start) / max(1, len(calls))
            if now - start > STOP_STARTING_AFTER_S:
                break
            if len(calls) >= MIN_INVOCATIONS and now + round_s > deadline:
                break  # the next round would end past --seconds
            for stale in (csv_path, sidecar):
                stale.unlink(missing_ok=True)
            call = run_child(cli_argv, workdir)
            calls.append(call)
            data = csv_path.read_bytes() if call.code == 0 and csv_path.exists() else b""
            digest = hashlib.sha256(data).hexdigest()
            texts.setdefault(digest, data.decode())
            digests.append(digest)
            probes.append(run_child(import_argv, workdir))
            if library.alive:
                elapsed = library.sweep()
                if elapsed is not None:
                    sweeps.append(elapsed)
    finally:
        lib_result = library.close()

    ref = Reference(RADIUS, HALF_SPAN)
    verdict = {d: check_csv(t, wl, ref) if t else (["no CSV"], 0.0) for d, t in texts.items()}
    problems: list[str] = []
    failed = 0
    for call, digest in zip(calls, digests):
        bad = call.code != 0 or digest != digests[0] or verdict[digest][0]
        failed += bool(bad)
        if call.code != 0:
            problems.append(f"exit {call.code}: {call.stderr.decode(errors='replace')[-300:]}")
    if any(d != digests[0] for d in digests):
        problems.append("CSV bytes differ between invocations of one seed")
    for found, _ in verdict.values():
        problems += found
    attempted = len(calls) + len(probes)
    failed += sum(p.code != 0 for p in probes)

    rows_per_s = 0.0
    if lib_result is None or not sweeps:
        problems.append("library run failed")
        attempted += 1
        failed += 1
    else:
        lib_worst = max(check_values(v, wl, ref) for v in lib_result["sample"])
        lib_bad = lib_worst > ORACLE_RTOL or lib_result["rows"] != wl.points
        attempted += len(sweeps)
        failed += len(sweeps) if lib_bad else lib_result["mismatched"]
        if lib_bad or lib_result["mismatched"]:
            problems.append(f"library rows off by {lib_worst:.3g} or not deterministic")
        rows_per_s = lib_result["rows"] / statistics.median(sweeps)

    walls = [c.seconds for c in calls]
    tail, pct, beyond = stats.tail(walls)
    metrics = {
        "wall_s": statistics.median(walls),
        "wall_s_tail": tail,
        "sweep_rows_per_s": rows_per_s,
        "setup_s": statistics.median([p.seconds for p in probes]),
        "peak_rss_mb": statistics.median([c.max_rss_mb for c in calls]),
        "max_rel_err": max(w for _, w in verdict.values()),
        "ok_frac": (attempted - failed) / attempted,
    }
    notes = {
        "wall_s": f"median of {len(walls)} invocations",
        "wall_s_tail": f"p{pct:.1f} of {len(walls)} invocations, {beyond} beyond it",
        "sweep_rows_per_s": f"{wl.points} rows / median of "
                            f"{len(sweeps)} warm run_sweep calls",
        "setup_s": f"median of {len(probes)} fresh imports of arcplate.cli",
        "peak_rss_mb": "median over invocations of the child's ru_maxrss",
        "max_rel_err": f"over {len(wl.sample_rows())} sampled CSV rows vs 34-digit mpmath",
        "ok_frac": f"1 - fail_frac; fail_frac = {failed}/{attempted} = {failed / attempted:g}",
    }
    samples = {"wall_s": walls, "setup_s": [p.seconds for p in probes],
               "peak_rss_mb": [c.max_rss_mb for c in calls],
               "run_sweep_s": sweeps}
    return {"metrics": metrics, "notes": notes, "attempted": attempted, "failed": failed,
            "problems": problems, "samples": samples,
            "versions": lib_result["versions"] if lib_result else {}}


def import_split(workdir: Path) -> tuple[float, float]:
    """Median (numpy, arcplate-without-numpy) cumulative import seconds from -X importtime."""
    numpy_s, arcplate_s = [], []
    for _ in range(IMPORTTIME_PROBES):
        child = run_child([PY, "-X", "importtime", "-c", "import arcplate.cli"], workdir)
        numpy_us = package_us = 0
        for line in child.stderr.decode(errors="replace").splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, raw_name = line[12:].split("|")
            name, cumulative = raw_name.strip(), cumulative.strip()
            if not cumulative.isdigit():
                continue
            if name == "numpy":
                numpy_us += int(cumulative)
            elif name.split(".")[0] == "arcplate" and raw_name.startswith(" " + name):
                package_us += int(cumulative)  # top level only: it includes its children
        numpy_s.append(numpy_us / 1e6)
        arcplate_s.append((package_us - numpy_us) / 1e6)
    return statistics.median(numpy_s), statistics.median(arcplate_s)


def per_layer(wl: Workload, seconds: float, workdir: Path, cli_argv: list[str],
              spans_path: Path) -> dict:
    start = time.perf_counter()
    run_child([PY, "-c", "import arcplate.cli"], workdir)  # fills __pycache__
    numpy_s, arcplate_s = import_split(workdir)
    csv_path = workdir / "sweep.csv"
    call = run_child(cli_argv, workdir)
    ref = Reference(RADIUS, HALF_SPAN)
    text = csv_path.read_text() if call.code == 0 and csv_path.exists() else ""
    problems, _ = check_csv(text, wl, ref) if text else ([f"exit {call.code}"], 0.0)
    digest = hashlib.sha256(text.encode()).hexdigest()
    bytes_out = sum(p.stat().st_size for p in (csv_path, workdir / "sweep.meta.json")
                    if p.exists())
    stderr = call.stderr.decode(errors="replace")
    warnings = sum("MaterialWarning" in line for line in stderr.splitlines())

    inproc_csv = workdir / "inproc.csv"
    spec = wl.library_spec()
    spec["cli_args"] = cli_argv[3:-1] + [str(inproc_csv)]  # drop "python -m arcplate"
    spec["csv_path"] = str(inproc_csv)
    budget = max(1.0, seconds - (time.perf_counter() - start))
    traced = run_trace_worker(spec, budget, workdir, spans_path)

    attempted, failed = 1 + IMPORTTIME_PROBES, bool(problems)
    metrics = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    absent: list[str] = []
    if traced is None:
        problems.append("traced run failed")
        attempted += 1
        failed += 1
    else:
        metrics.update(traced["metrics"])
        absent = traced["absent"]
        for code, d in zip(traced["exit_codes"], traced["csv_sha256"]):
            attempted += 1
            if code != 0 or d != digest:
                failed += 1
                problems.append(f"in-process main exit {code}, CSV differs: {d != digest}")
    metrics.update({"import.numpy_s": numpy_s, "import.arcplate_s": arcplate_s,
                    "cli.bytes_out": bytes_out, "elasticity.material_warnings": warnings})
    notes = {name: "layer absent: patch target missing" for name in metrics
             if name.split(".")[0] in absent}
    return {"metrics": metrics, "notes": notes, "attempted": attempted, "failed": int(failed),
            "problems": problems, "absent": absent,
            "samples": {"overhead_s": traced["overhead_s"] if traced else []},
            "versions": traced["versions"] if traced else {}}


def run_once(args, name: str) -> dict:
    wl = WORKLOADS[name](args.seed)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        materials_path = None
        if wl.materials_file:
            materials_path = workdir / "materials.json"
            materials_path.write_text(wl.materials_json())
        cli_argv = [PY, "-m", "arcplate",
                    *wl.cli_args(str(workdir / "sweep.csv"), str(materials_path))]
        stem = f"{name}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            res = per_layer(wl, args.seconds, workdir, cli_argv, results / f"{stem}-spans.json")
            units = PER_LAYER_UNITS
        else:
            res = end_to_end(wl, args.seconds, workdir, cli_argv)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    prov = provenance(wl, args, cli_argv, res["versions"])
    (results / f"{stem}.json").write_text(json.dumps({"provenance": prov, **res}, indent=1))
    print(f"# {name} seed {args.seed} trace {args.trace}: {args.seconds:g} s measured")
    print("# provenance " + json.dumps(prov))
    for metric, unit in units.items():
        note = res["notes"].get(metric, "")
        print(f"{metric:36s} {res['metrics'][metric]:>16.6g} {unit:7s} {note}")
    for problem in res["problems"]:
        print(f"! {problem}")
    return {
        "correct": res["failed"] == 0 and not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m: {"value": res["metrics"][m], "unit": u} for m, u in units.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "arcplate" / "__init__.py").is_file():
        print(f"error: no arcplate sources under {SRC}; run from a source tree",
              file=sys.stderr)
        return 2
    if args.workload != "all":
        print(json.dumps(run_once(args, args.workload)))
        return 0
    # Every workload, end to end then traced: the one command that prints every metric.
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            args.trace = trace
            one = run_once(args, name)
            summary["correct"] &= one["correct"]
            summary["attempted"] += one["attempted"]
            summary["failed"] += one["failed"]
            summary["metrics"].update({f"{name}/{m}": v for m, v in one["metrics"].items()})
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
