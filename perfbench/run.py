"""Benchmark of the three index routes, end to end and per layer.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 5 --trace 0

Run it from the root of a source checkout: it imports the package from
``src/`` there and writes only under ``perfbench/out/``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.  See README.md in
this directory for the workloads, the metrics and how they relate.

This process never imports the program.  It times set-up in fresh
interpreters and leaves the passes to one worker process, so that the
worker's peak resident memory is the workload's alone.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import selftest
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MB = 2**20
# set-up is timed this many times per run (the worker's own set-up included)
SETUP_SAMPLES = 3
# a run must end within 180 s; children are killed past this
BUDGET_S = 170.0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the role of a child process, its run directory, its start time
    p.add_argument("--role", choices=("main", "setup", "fill", "worker"), default="main")
    p.add_argument("--run-dir", type=Path)
    p.add_argument("--spawned-at", type=float)
    return p.parse_args(argv)


def emit(doc: dict) -> None:
    print(json.dumps(doc), flush=True)


# ---------------------------------------------------------------------------
# child processes


def child(args) -> int:
    sys.path.insert(0, str(SRC))
    import bench

    ctx = bench.make_context(args.workload, args.seed, args.run_dir)
    if args.role == "fill":
        z = bench.fill_cache(ctx)
        emit({"pairing": [z.real, z.imag]})
        return 0
    bench.warm_up(ctx)
    ready_s = time.monotonic() - args.spawned_at
    if args.role == "setup":
        emit({"ready_s": ready_s})
        return 0

    if args.workload == "flux24-unit-warm":
        re, im = json.loads((args.run_dir / "fill.json").read_text())["pairing"]
        ctx.reference = complex(re, im)
    tally = checks.Tally()
    run_pass = bench.PASSES[args.workload]
    passes = []
    layers = None
    if args.trace:
        untraced = run_pass(ctx, tally)
        tracer = tracing.install("indexpairing", bench.harness.INVARIANT_CHECKS)
        traced = run_pass(ctx, tally)
        overhead = traced["pass_s"] - untraced["pass_s"]
        layers = tracer.summary()
        layers["trace.overhead"] = {"total_s": overhead}
        tracer.write(
            OUT / "trace" / f"{args.workload}-seed{args.seed}.json",
            {"workload": args.workload, "seed": args.seed, "overhead_s": overhead},
        )
    else:
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            passes.append(run_pass(ctx, tally))
    for line in tally.problems:
        print(f"failed: {line}", file=sys.stderr)
    emit(
        {
            "ready_s": ready_s,
            "passes": passes,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "layers": layers,
        }
    )
    return 0


# ---------------------------------------------------------------------------
# the run


def spawn(role: str, args, run_dir: Path, deadline: float) -> dict:
    """Run one child to its end and return the JSON object it printed last."""
    spawned_at = time.monotonic()
    cmd = [
        sys.executable, str(HERE / "run.py"), "--role", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--run-dir", str(run_dir), "--spawned-at", repr(spawned_at),
    ]
    # subprocess.run kills and reaps the child when the timeout expires
    proc = subprocess.run(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(deadline - spawned_at, 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process exited with code {proc.returncode}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    doc["wall_s"] = time.monotonic() - spawned_at
    return doc


def layer_value(name: str, layers: dict) -> float | int:
    """A per-layer metric from the per-span-name summary of the traced pass."""
    if name == "parametrix.kernel_mb":
        span, key = "parametrix.index_idempotent", "result_mb"
    else:
        for suffix, key in (
            ("_self_s", "self_s"),
            ("_calls", "calls"),
            ("_peak_mb", "peak_mb"),
            ("_s", "total_s"),
        ):
            if name.endswith(suffix):
                span = name[: -len(suffix)]
                break
        else:
            raise ValueError(f"per-layer metric {name} has no known suffix")
    known = {n for n, _, _ in tracing.LAYER_FUNCTIONS} | {"trace.overhead"}
    known |= {f"harness.check.{c}" for c in checks.INVARIANT_TOLS}
    if span not in known:
        raise ValueError(f"per-layer metric {name} names no traced span")
    # a layer the pass never entered spent nothing there
    return layers.get(span, {}).get(key, 0)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.role != "main":
        return child(args)
    if not (SRC / "indexpairing" / "__init__.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    mismatches = selftest.run()
    if mismatches:
        print("error: benchmark self-test failed: " + "; ".join(mismatches), file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    run_dir = OUT / f"run-{os.getpid()}"
    # a directory left by a killed run with the same pid would hold a stale cache
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        samples = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                samples.append(spawn("setup", args, run_dir, deadline)["ready_s"])
        fill_s = 0.0
        if args.workload == "flux24-unit-warm":
            fill = spawn("fill", args, run_dir, deadline)
            fill_s = fill["wall_s"]
            (run_dir / "fill.json").write_text(json.dumps(fill))
        result = spawn("worker", args, run_dir, deadline)
        samples.append(result["ready_s"])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if args.trace:
        values = {m["name"]: layer_value(m["name"], result["layers"]) for m in spec["per_layer"]}
        wanted = spec["per_layer"]
    else:
        passes = result["passes"]
        values = {
            "setup_s": statistics.median(samples) + fill_s,
            "scenarios_s": statistics.median(p["scenarios_s"] for p in passes),
            "pass_s": statistics.median(p["pass_s"] for p in passes),
            "peak_rss_mb": result["peak_rss_mb"],
            "cache_mb": statistics.median(p["cache_bytes"] for p in passes) / MB,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    emit(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
