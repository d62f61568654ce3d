"""Command-line front end for scenario runs and the verification suite.

Verbs:

    indexpairing run --scenario <path-or-builtin> --out <dir> [--tol X] [--seed N]
    indexpairing suite --which invariants|scenarios|all --out <dir> [--only NAME ..]
    indexpairing list

Exit codes: 0 success, 1 failed comparison or stage error, 2 corrupted
operator cache.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .grids import ModelError
from .harness import load_scenario, run_scenario, run_suite, write_records
from .parametrix import CorruptedCacheError
from .scenario import BUILTIN_SCENARIOS, ScenarioError, _validate


def _cmd_run(args) -> int:
    # the overrides are checked like the file, so the echo re-loads
    raw = load_scenario(args.scenario).echo()
    if args.tol is not None:
        raw["tolerances"] = dict(raw["tolerances"], pairing_tol=args.tol)
    if args.seed is not None:
        raw["seed"] = args.seed
    scn = _validate(raw)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    record = run_scenario(scn, out_dir=out)
    write_records(out, [record])
    print(
        f"{record.scenario}: analytic {list(record.analytic)}  "
        f"pairing {record.pairing:.9g}  topological {record.topological:.9g}  "
        f"err {record.abs_err:.3e}  {record.status}  ({record.wall_time:.1f}s)"
    )
    return 0 if record.status == "pass" else 1


def _cmd_suite(args) -> int:
    only = set(args.only) if args.only else None
    if only:
        unknown = only - set(BUILTIN_SCENARIOS)
        if unknown:
            raise ScenarioError(f"unknown scenario names: {sorted(unknown)}")
    code = run_suite(args.which, args.out, only=only)
    summary = Path(args.out) / "summary.txt"
    sys.stdout.write(summary.read_text())
    return code


def _cmd_list(_args) -> int:
    for name, entry in BUILTIN_SCENARIOS.items():
        print(f"{name:28s} {entry['blurb']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="indexpairing",
        description="Numerical workbench comparing spectral indices of "
        "invariant elliptic families with cocycle pairings and "
        "characteristic-class integrals.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="execute one scenario and report")
    p_run.add_argument(
        "--scenario", required=True, help="path to a scenario file or a builtin name"
    )
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument(
        "--tol", type=float, default=None, help="override the pairing tolerance"
    )
    p_run.add_argument(
        "--seed", type=int, default=None, help="override the scenario seed"
    )
    p_run.set_defaults(fn=_cmd_run)

    p_suite = sub.add_parser("suite", help="run invariant checks and/or scenarios")
    p_suite.add_argument(
        "--which",
        required=True,
        choices=("invariants", "scenarios", "all"),
        help="what to run",
    )
    p_suite.add_argument("--out", required=True, help="output directory")
    p_suite.add_argument(
        "--only",
        nargs="*",
        default=None,
        help="restrict scenario runs to these builtin names",
    )
    p_suite.set_defaults(fn=_cmd_suite)

    p_list = sub.add_parser("list", help="list builtin scenarios")
    p_list.set_defaults(fn=_cmd_list)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CorruptedCacheError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
