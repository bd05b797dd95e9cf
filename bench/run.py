"""Benchmark of the analogical package: four workloads, each checked.

Run one workload (this is what ``BENCHMARK.json`` names)::

    python3 bench/run.py --workload lattice-wide --seed 1 --seconds 20 --trace 0

Its last line of output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Run every workload, each in fresh
processes, untraced and traced, and write ``bench/out/BENCH_<tag>.json``::

    python3 bench/run.py --seed 1 --tag base

Each run is one single-threaded closed loop: the next operation starts
when the previous one has returned.  Only the call into the package is
timed; checking its output is not.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from tracing import OFF, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 5
DEFAULT_SEED = 1


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def import_workloads():
    """Import the workloads against this checkout's ``src/``, never another copy."""
    try:
        import workloads
    except ImportError as exc:
        sys.exit(f"error: cannot import the analogical package from {ROOT / 'src'}: {exc}")
    if Path(workloads.analogical.__file__).resolve().parents[1] != ROOT / "src":
        sys.exit(f"error: imported analogical from {workloads.analogical.__file__}, not src/")
    return workloads


# --- set-up time --------------------------------------------------------------

def setup_probe(name: str, seed: int) -> None:
    """Child side: import, generate and parse, then print the monotonic clock."""
    wl = import_workloads()
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH) as workdir:
        wl.WORKLOADS[name].setup(seed, Path(workdir))
        print(time.monotonic(), flush=True)


def measure_setup(name: str, seed: int) -> float:
    """Median time from starting a fresh interpreter to inputs ready to predict."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]) - start)
    return statistics.median(times)


# --- the closed loop ----------------------------------------------------------

class Loop:
    """Runs whole rounds of operations, timing each call and checking its output."""

    def __init__(self, workload, state, tracer, traced: bool):
        self.workload, self.state = workload, state
        self.tracer, self.traced = tracer, traced
        self.attempted = 0
        self.failed = 0
        self.durations: list[float] = []
        self.errors: list[str] = []
        self.counts: Counter = Counter()  # per-layer counts of round 0

    def op(self, op, r: int) -> None:
        tr = self.tracer
        if self.traced:
            tr.op = self.attempted
        self.attempted += 1
        start = time.perf_counter()
        try:
            with tr.span(op.name):
                res = op.run(tr)
        except Exception as exc:  # a known fault, or a failure the run must report
            self.durations.append(time.perf_counter() - start)
            self.failed += 1
            if not op.fault:
                self.errors.append(f"{op.name} raised {exc!r}")
            return
        self.durations.append(time.perf_counter() - start)
        try:
            op.check(tr, res)
        except Exception as exc:  # any check that cannot pass is a wrong output
            self.failed += 1
            if not op.fault:
                self.errors.append(f"{op.name}: {type(exc).__name__}: {exc}")
            return
        if self.traced and op.layers is not None:
            counts = op.layers(tr, res)
            if r == 0:
                self.counts.update(counts)

    def rounds(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        r = 0
        while True:
            for op in self.workload.round(self.state, r):
                self.op(op, r)
            r += 1
            if time.perf_counter() >= deadline:
                return


def layer_metrics(wl, workload, state, loop: Loop, names) -> dict:
    """Per-layer metrics from one loop's spans and counts."""
    t = loop.tracer.medians()
    out = {m: t[m[:-2]] for m in names if m.endswith("_s") and m[:-2] in t}
    lattice_parts = ("core.difference_vectors", "core.iter_masks", "homogeneity.pair_matrix")
    if "homogeneity.analogical_set" in t and all(p in t for p in lattice_parts):
        out["homogeneity.lattice_self_s"] = t["homogeneity.analogical_set"] - sum(
            t[p] for p in lattice_parts
        )
    explain_parts = ("core.parse", "homogeneity.analogical_set", "homogeneity.distribution",
                     "homogeneity.criteria")
    if "cli.explain_json" in t and all(p in t for p in explain_parts):
        out["cli.explain_render_s"] = t["cli.explain_json"] - sum(t[p] for p in explain_parts)
    out.update(loop.counts)
    if "homogeneity.masks" in out:
        out["homogeneity.useful_mask_share"] = (
            out["homogeneity.masks_homogeneous"] / out["homogeneity.masks"]
        )
    inst = workload.layer_input(state)
    out.update(wl.peaks(inst, t))
    if "gates.run" in t:
        out.update(wl.gate_counts(inst, loop.errors))
        out["gates.gates_per_s"] = out["gates.gate_count"] / t["gates.run"]
    return out


def end_to_end(wl, name: str, seed: int, state, seconds: float) -> tuple[Loop, dict, list]:
    workload = wl.WORKLOADS[name]
    setup_s = measure_setup(name, seed)
    warm_up = Loop(workload, state, OFF, False)
    warm_up.op(workload.round(state, 0)[0], 0)
    loop = Loop(workload, state, OFF, False)
    loop.rounds(seconds)
    values = {
        "setup_s": setup_s,
        "ops_per_s": (loop.attempted - loop.failed) / sum(loop.durations),
        "op_p50_s": statistics.median(loop.durations),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return loop, values, warm_up.errors + loop.errors


def per_layer(wl, name: str, seed: int, state, seconds: float, workdir: Path,
              names) -> tuple[Loop, dict, list]:
    workload = wl.WORKLOADS[name]
    reference = Loop(workload, state, OFF, False)
    for op in workload.round(state, 0):
        reference.op(op, 0)
    loop = Loop(workload, state, Tracer(), True)
    loop.rounds(seconds)
    first = loop.durations[: len(reference.durations)]
    values = {"trace.overhead_share": statistics.median(
        t / u for t, u in zip(first, reference.durations)) - 1}
    errors = list(reference.errors)
    tracers = {}
    for probe in wl.PROBES:  # own metrics below override the probes'
        (workdir / probe.name).mkdir()
        probe_state = probe.setup(seed, workdir / probe.name)
        probe_loop = Loop(probe, probe_state, Tracer(), True)
        for op in probe.round(probe_state, 0):
            probe_loop.op(op, 0)
        values.update(layer_metrics(wl, probe, probe_state, probe_loop, names))
        tracers[probe.name] = probe_loop.tracer
        errors += probe_loop.errors
    values.update(layer_metrics(wl, workload, state, loop, names))
    errors += loop.errors
    tracers["own"] = loop.tracer
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{name}-{seed}.jsonl", "w", encoding="utf-8") as fh:
        for scope, tracer in tracers.items():
            tracer.write(fh, scope)
    return loop, values, errors


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    wl = import_workloads()
    units = {m["name"]: m["unit"] for m in load_spec()["per_layer" if traced else "end_to_end"]}
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH) as workdir:
        state = wl.WORKLOADS[name].setup(seed, Path(workdir))
        if traced:
            loop, values, errors = per_layer(wl, name, seed, state, seconds, Path(workdir), units)
        else:
            loop, values, errors = end_to_end(wl, name, seed, state, seconds)
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
    }


# --- every workload -----------------------------------------------------------

def run_all(seed: int, seconds: float, tag: str) -> int:
    spec = load_spec()
    report = {
        "tag": tag, "seed": seed, "seconds": seconds,
        "python": platform.python_version(), "machine": platform.machine(),
        "workloads": {},
    }
    ok = True
    for w in spec["workloads"]:
        name = w["name"]
        report["workloads"][name] = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=900, cwd=ROOT,
            )
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                ok = False
                print(f"{name} trace={trace}: exit {proc.returncode}, no result")
                continue
            result = json.loads(lines[-1])
            ok &= result["correct"]
            report["workloads"][name]["traced" if trace else "untraced"] = result
            print(f"{name} ({'traced' if trace else 'untraced'}): correct {result['correct']}, "
                  f"attempted {result['attempted']}, failed {result['failed']}")
            for metric, m in result["metrics"].items():
                print(f"  {metric:40s} {m['value']:>14.6g} {m['unit']}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"BENCH_{tag}.json"
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run one workload; omit to run all of them")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tag", default="local", help="names the BENCH_<tag>.json of a full run")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
    if args.workload is None:
        return run_all(args.seed, seconds, args.tag)
    if args.workload not in {w["name"] for w in load_spec()["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    result = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
