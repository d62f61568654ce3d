"""Workload set-up and passes; runs in the child processes that run.py starts.

One operation is one scenario run, made the way ``indexpairing run`` makes it
(load the scenario, set the seed, run it into an output directory, write the
CSV row and the echo), or one property check, run the way ``indexpairing
suite --which invariants`` runs them.  A pass is one round of a workload's
operations; every pass of a workload attempts the same operations.
"""
from __future__ import annotations

import csv
import dataclasses
import json
import random
import shutil
import time
from pathlib import Path

from indexpairing import harness

import checks

HERE = Path(__file__).resolve().parent
SAWTOOTH = HERE / "scenarios" / "flux24-sawtooth.json"
UNIT = HERE / "scenarios" / "flux24-unit.json"
WARM_UP = "S1-dolbeault-d1"


def run_op(source, seed: int, out_dir: Path):
    """One scenario run into ``out_dir``, as ``indexpairing run`` does it."""
    scn = dataclasses.replace(harness.load_scenario(source), seed=seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    record = harness.run_scenario(scn, out_dir=out_dir)
    (out_dir / "scenarios.csv").write_text(
        harness.CSV_HEADER + "\n" + record.csv_row() + "\n"
    )
    (out_dir / f"{record.scenario}.scenario.json").write_text(
        json.dumps(record.echo, indent=2, sort_keys=True) + "\n"
    )
    return record


def attempt(fn):
    """Run one operation; a raised error becomes its failure reason."""
    try:
        return fn(), []
    except Exception as exc:  # the benchmark counts the failure and goes on
        return None, [f"raised {type(exc).__name__}: {exc}"]


def cache_files(out_dir: Path) -> dict:
    cache = out_dir / "cache"
    if not cache.is_dir():
        return {}
    return {
        p.name: (p.stat().st_size, p.stat().st_mtime_ns)
        for p in sorted(cache.iterdir())
        if p.is_file()
    }


def cache_bytes(files: dict) -> int:
    return sum(size for size, _ in files.values())


@dataclasses.dataclass
class Context:
    """The inputs of one run, all made from the workload name and the seed."""

    workload: str
    seed: int
    run_dir: Path
    order: list[str]
    reference: complex | None = None
    passes: int = 0

    def pass_dir(self) -> Path:
        self.passes += 1
        return self.run_dir / f"pass-{self.passes}"


def make_context(workload: str, seed: int, run_dir: Path) -> Context:
    if workload not in PASSES:
        raise ValueError(f"unknown workload {workload!r}")
    order = list(checks.CATALOG_EXPECTED) if workload == "catalog" else []
    random.Random(seed).shuffle(order)
    return Context(workload, seed % 2**64, run_dir, order)


def warm_up(ctx: Context) -> None:
    """One untimed small scenario run, so lazy imports and BLAS start-up are paid."""
    out = ctx.run_dir / f"warm-up-{ctx.workload}"
    record = run_op(WARM_UP, ctx.seed, out)
    shutil.rmtree(out)
    problems = checks.check_record(record, checks.CATALOG_EXPECTED[WARM_UP])
    if problems:
        raise RuntimeError(f"warm-up {WARM_UP}: {'; '.join(problems)}")


def fill_cache(ctx: Context) -> complex:
    """The cold unit-cocycle run that writes the idempotent cache; its pairing."""
    return complex(run_op(UNIT, ctx.seed, ctx.run_dir / "fill").pairing)


def catalog_pass(ctx: Context, tally: checks.Tally) -> dict:
    out = ctx.pass_dir()
    runs = []
    t0 = time.perf_counter()
    for name in ctx.order:
        runs.append((name, attempt(lambda: run_op(name, ctx.seed, out / "run"))))
    t1 = time.perf_counter()
    _, suite_error = attempt(lambda: harness.run_suite("invariants", out / "suite"))
    t2 = time.perf_counter()

    for name, (record, problems) in runs:
        if record is not None:
            problems = checks.check_record(record, checks.CATALOG_EXPECTED[name])
        tally.record(name, problems)
    rows = {}
    if not suite_error:
        with open(out / "suite" / "invariants.csv", newline="") as fh:
            rows = {row["invariant"]: row for row in csv.DictReader(fh)}
    for name in checks.INVARIANT_TOLS:
        tally.record(name, suite_error or checks.check_invariant(name, rows.get(name)))
    size = cache_bytes(cache_files(out / "run"))
    shutil.rmtree(out)
    return {"scenarios_s": t1 - t0, "pass_s": t2 - t0, "cache_bytes": size}


def sawtooth_pass(ctx: Context, tally: checks.Tally) -> dict:
    out = ctx.pass_dir()
    t0 = time.perf_counter()
    record, problems = attempt(lambda: run_op(SAWTOOTH, ctx.seed, out))
    t1 = time.perf_counter()
    if record is not None:
        problems = checks.check_record(record, checks.SAWTOOTH_EXPECTED)
    tally.record("flux24-sawtooth", problems)
    size = cache_bytes(cache_files(out))
    shutil.rmtree(out)
    return {"scenarios_s": t1 - t0, "pass_s": t1 - t0, "cache_bytes": size}


def unit_warm_pass(ctx: Context, tally: checks.Tally) -> dict:
    out = ctx.run_dir / "fill"
    before = cache_files(out)
    t0 = time.perf_counter()
    record, problems = attempt(lambda: run_op(UNIT, ctx.seed, out))
    t1 = time.perf_counter()
    if record is not None:
        problems = checks.check_record(record, checks.UNIT_EXPECTED)
        problems += checks.check_reuse(record, ctx.reference)
    if not before or cache_files(out) != before:
        problems.append("the pass did not read the cache the cold run wrote")
    tally.record("flux24-unit-warm", problems)
    return {"scenarios_s": t1 - t0, "pass_s": t1 - t0, "cache_bytes": cache_bytes(before)}


PASSES = {
    "catalog": catalog_pass,
    "flux24-sawtooth-cold": sawtooth_pass,
    "flux24-unit-warm": unit_warm_pass,
}
