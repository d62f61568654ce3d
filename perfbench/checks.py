"""Expected outputs of the benchmark's operations, worked out apart from the program.

Every check returns a list of problems; an empty list means the output is
right.  The values are closed forms, not stored program output:

- S1 at flux d: the spectral count, the pairing and the class integral are d.
- S2 (free half-period shift at flux 2): the quotient index is 2 / 2 = 1.
- S3 (invertible multiplier): the symbol class is zero, so every route is 0.
- S5 (constant flux-3 family over four points identified in pairs): each
  point counts 3, and the orbit sum weights one point of each of the two
  orbits by its mass 0.5, so 2 * 0.5 * 3 = 3.
- flux 24 against the degree-2 sawtooth cocycle: the fiber volume (1) times
  the unit Bott charge, times (2 pi i)^-1 and the orientation sign (-1), that
  is i / (2 pi), whatever the flux.
- flux 24 against the unit cocycle: the spectral count, 24.

Property checks pass when the defect is at most the tolerance registered for
them at the commit that introduced this benchmark; a later tightening of a
registered tolerance is honoured, a loosening is not.
"""
from __future__ import annotations

import math

PAIRING_TOL = 1e-6
# A cache hit may not change a result: warm and cold pairings agree to this.
REUSE_RTOL = 1e-12

CATALOG_EXPECTED = {
    **{
        f"S1-dolbeault-{'d' if d >= 0 else 'dm'}{abs(d)}": ((d,), d)
        for d in (-2, -1, 0, 1, 2)
    },
    "S2-free-halfshift-d2": ((1,), 1),
    "S3-multiplier-invertible": ((0,), 0),
    "S5-orbifold-family": ((3, 3, 3, 3), 3),
}
SAWTOOTH_EXPECTED = ((24,), 1j / (2 * math.pi))
UNIT_EXPECTED = ((24,), 24)

INVARIANT_TOLS = {
    "trace-commutator": 1e-9,
    "trace-cutoff-independence": 1e-9,
    "symbol-trace-formula": 1e-8,
    "stokes-invariant-integration": 1e-9,
    "vanest-chain-map": 1e-10,
    "coboundary-pairing": 1e-8,
    "chern-character-closed": 1e-8,
    "topindex-cutoff-choice": 1e-8,
    "free-reduction-agreement": 1e-8,
}


def check_record(rec, expected) -> list[str]:
    """Analytic index, pairing and class integral of one scenario record."""
    analytic, value = expected
    problems = []
    got = tuple(int(v) for v in rec.analytic)
    if got != analytic:
        problems.append(f"analytic index {got} != {analytic}")
    for route in ("pairing", "topological"):
        z = complex(getattr(rec, route))
        err = abs(z - value)
        if not err <= PAIRING_TOL:
            problems.append(f"{route} {z:.12g} is {err:.3e} from {value:.12g}")
    return problems


def check_reuse(rec, reference: complex) -> list[str]:
    """The warm pairing equals the cold one it was cached from."""
    z = complex(rec.pairing)
    err = abs(z - reference)
    if not err <= REUSE_RTOL * abs(reference):
        return [f"warm pairing {z!r} differs from cold {reference!r} by {err:.3e}"]
    return []


def check_invariant(name: str, row: dict | None) -> list[str]:
    """One row of invariants.csv against the tolerance pinned here."""
    if row is None:
        return ["missing from invariants.csv"]
    defect = float(row["defect"])
    tol = min(float(row["tolerance"]), INVARIANT_TOLS[name])
    problems = []
    if not defect <= tol:
        problems.append(f"defect {defect:.3e} exceeds tolerance {tol:.1e}")
    if row["status"] != "pass":
        problems.append(f"status {row['status']!r}")
    return problems


class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)
