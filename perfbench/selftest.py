"""Self-test of the benchmark's output checks: wrong answers count as failed.

    python3 perfbench/selftest.py

Each check gets a right answer, which must pass, and wrong ones (a pairing
or class integral off by 1, a wrong analytic index, a warm pairing that moved,
a defect over its tolerance), which must be counted as failed operations.
It needs neither numpy nor the program, and takes milliseconds.
"""
from __future__ import annotations

import math
import sys
from types import SimpleNamespace

import checks


def _rec(analytic, pairing, topological=None):
    if topological is None:
        topological = pairing
    return SimpleNamespace(analytic=analytic, pairing=pairing, topological=topological)


def _row(defect, tolerance, status="pass"):
    return {"defect": f"{defect:.6e}", "tolerance": f"{tolerance:.1e}", "status": status}


def cases():
    """(label, problems found, whether the answer was wrong)."""
    expected = dict(checks.CATALOG_EXPECTED)
    expected["flux24-sawtooth"] = checks.SAWTOOTH_EXPECTED
    expected["flux24-unit"] = checks.UNIT_EXPECTED
    for name, exp in expected.items():
        analytic, value = exp
        wrong_index = tuple(a + 1 for a in analytic)
        yield f"{name} right", checks.check_record(_rec(analytic, value), exp), False
        yield (
            f"{name} pairing off by 1",
            checks.check_record(_rec(analytic, value + 1, value), exp),
            True,
        )
        yield (
            f"{name} class integral off by 1",
            checks.check_record(_rec(analytic, value, value - 1), exp),
            True,
        )
        yield (
            f"{name} analytic index off by 1",
            checks.check_record(_rec(wrong_index, value), exp),
            True,
        )
        yield (
            f"{name} pairing NaN",
            checks.check_record(_rec(analytic, complex(math.nan, 0), value), exp),
            True,
        )
    analytic, value = checks.SAWTOOTH_EXPECTED
    yield (
        "flux24-sawtooth orientation flipped",
        checks.check_record(_rec(analytic, -value), checks.SAWTOOTH_EXPECTED),
        True,
    )
    cold = 24.00000000209175 + 2.8e-17j
    yield "reuse equal", checks.check_reuse(_rec((24,), cold), cold), False
    yield (
        "reuse moved by 1e-10",
        checks.check_reuse(_rec((24,), cold * (1 + 1e-10)), cold),
        True,
    )
    for name, tol in checks.INVARIANT_TOLS.items():
        yield f"{name} within", checks.check_invariant(name, _row(tol / 2, tol)), False
        yield f"{name} over", checks.check_invariant(name, _row(2 * tol, tol)), True
        yield (
            f"{name} tolerance loosened",
            checks.check_invariant(name, _row(10 * tol, 1.0)),
            True,
        )
        yield (
            f"{name} status fail",
            checks.check_invariant(name, _row(tol / 2, tol, "fail")),
            True,
        )
        yield f"{name} missing", checks.check_invariant(name, None), True


def run() -> list[str]:
    """Mismatches between what each check found and what it should find."""
    tally = checks.Tally()
    wrong = 0
    mismatches = []
    for label, problems, is_wrong in cases():
        tally.record(label, problems)
        wrong += is_wrong
        if bool(problems) != is_wrong:
            mismatches.append(
                f"{label}: expected {'failure' if is_wrong else 'pass'}, got {problems}"
            )
    if tally.failed != wrong:
        mismatches.append(f"tally counted {tally.failed} failed of {wrong} wrong")
    return mismatches


def main() -> int:
    mismatches = run()
    for line in mismatches:
        print(f"selftest: {line}", file=sys.stderr)
    if mismatches:
        return 1
    print(f"selftest: {sum(1 for _ in cases())} cases ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
