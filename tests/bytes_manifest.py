"""SHA-256 manifest of every file the suite and the perfbench scenario runs write.

One child process runs ``suite --which all`` and ``run --scenario`` on each
perfbench scenario, each into its own directory of one output tree; every
file of the tree but the wall-time table ``summary.txt`` is hashed.  A cache
archive is named by the scenario that reads it rather than by its digest
name, so a changed ``_CACHE_FORMAT`` moves no entry whose bytes hold, and a
cache shared by two scenarios is listed under both.  The manifest records
the numpy and BLAS versions it was written under next to the hashes.

The manifest is read by the tests and rewritten only by this command, from
a run under one BLAS thread, which prints the names whose bytes moved:

    PYTHONPATH=src python tests/bytes_manifest.py
"""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import indexpairing
from indexpairing.cli import main
from indexpairing.harness import _idempotent_cache
from indexpairing.scenario import BUILTIN_SCENARIOS, load_scenario

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = Path(__file__).resolve().with_name("bytes_manifest.json")
PERFBENCH_SCENARIOS = sorted(
    str(path) for path in (ROOT / "perfbench" / "scenarios").glob("*.json")
)
# output directory -> cli arguments before --out
RUNS = {
    "suite": ["suite", "--which", "all"],
    **{Path(path).stem: ["run", "--scenario", path] for path in PERFBENCH_SCENARIOS},
}


def versions() -> dict[str, str]:
    """The numpy version and the BLAS name and version numpy was built with."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def spawn(out: Path, threads: str) -> subprocess.Popen:
    """A child process writing every run of RUNS under ``out`` with ``threads`` BLAS threads."""
    src = str(Path(indexpairing.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, __file__, "--produce", str(out)],
        env=dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path),
        stdout=subprocess.DEVNULL,
    )


def _produce(out: Path) -> int:
    return max([main([*argv, "--out", str(out / name)]) for name, argv in RUNS.items()])


def digests(out: Path) -> dict[str, str]:
    """SHA-256 of every file under ``out`` but summary.txt, keyed by its manifest name."""
    names = {}
    for tree, argv in RUNS.items():
        sources = BUILTIN_SCENARIOS if argv[0] == "suite" else [argv[2]]
        for source in sources:
            scn = load_scenario(source)
            cache = _idempotent_cache(scn, out / tree)
            names.setdefault(cache, []).append(f"{tree}/cache/{scn.name}.idem.opk")
    found = {}
    for f in sorted(out.rglob("*")):
        if f.is_file() and f.name != "summary.txt":
            digest = hashlib.sha256(f.read_bytes()).hexdigest()
            for name in names.get(f, [str(f.relative_to(out))]):
                found[name] = digest
    return found


def moved(found: dict[str, str], recorded: dict[str, str]) -> list[str]:
    """Names whose bytes differ between two digest maps, or that only one of them holds."""
    return sorted(k for k in found.keys() | recorded.keys() if found.get(k) != recorded.get(k))


def _rewrite() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        run = spawn(Path(tmp), "1")
        if run.wait() != 0:
            sys.exit(f"the runs exited {run.returncode}; the manifest is left as it was")
        files = digests(Path(tmp))
    recorded = json.loads(MANIFEST.read_text())["files"] if MANIFEST.exists() else {}
    MANIFEST.write_text(json.dumps({**versions(), "files": files}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(files)} digests to {MANIFEST}")
    for name in moved(files, recorded):
        print(f"moved: {name}")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--produce"]:
        sys.exit(_produce(Path(sys.argv[2])))
    _rewrite()
