"""Deterministic scenario runs, the idempotent cache, and the suite reports.

``run_scenario`` executes all three routes of a validated scenario (spectral
index, chain pairing, class integral) and reports a ``ResultRecord``;
``run_suite`` drives the builtin catalog and the registered property checks,
writing diff-able CSV plus a human table.  The base lives here and in the
scenario alone: every base point carries the same fiber, operator, cochain
and cutoff field c, so the library sees the base only as the one weight
field w = sum over base points x of mass(x) c, and the harness forms the
per-point analytic column and the orbit sum of the identified base.

Determinism contract: a fixed scenario and seed produce bitwise-identical
CSV bodies across reruns; wall times and anything else nondeterministic stay
out of the CSV.  Assembled idempotents are cached as their cut radius and
the frame and block counts of each projector (``IndexIdempotent.arrays``)
in an uncompressed ``.npz`` archive, whose per-member CRC-32 catches a
damaged payload; a warm run forms a block row from its frames only where
the pairing reads entries.  The file name carries a digest of every echo
field the idempotent depends on, so a changed input is a cache miss, and a
loaded one must fit the run before any route reads it, as its constructor
``IndexIdempotent.from_arrays`` checks; a corrupted cache surfaces as a
``CorruptedCacheError`` and exit code 2.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from zipfile import ZIP_STORED, BadZipFile

import numpy as np

from .charclass import DiscModel
from .cochains import ASCochain
from .density import compute_cutoff
from .dolbeault import dolbeault_family
from .grids import FiberModel, ModelError
from .invariants import INVARIANT_CHECKS
from .operators import fourier_multiplier
from .pairing import ProfileCochain, pair_cocycle
from .parametrix import _CACHE_FORMAT, CorruptedCacheError, IndexIdempotent
from .parametrix import analytic_index, index_idempotent
from .scenario import (
    BUILTIN_SCENARIOS,
    Scenario,
    _leg_profile,
    _symbol_expression,
    load_scenario,
)
from .space import FiberedGSpace
from .symbols import certify_elliptic
from .topindex import (
    family_index_orbifold,
    half_shift_quotient_index,
    symbol_class_dolbeault,
    symbol_class_multiplier,
    topological_index,
)

__all__ = [
    "ResultRecord",
    "StageError",
    "INVARIANT_CHECKS",
    "load_scenario",
    "run_scenario",
    "run_suite",
    "save_coefficients",
    "load_coefficients",
    "write_records",
    "CSV_HEADER",
    "INVARIANT_CSV_HEADER",
]

CSV_HEADER = "scenario,analytic_index,pairing,topological,abs_err,status"
INVARIANT_CSV_HEADER = "invariant,defect,tolerance,status"


class StageError(ModelError):
    """A module error wrapped with the name of the failing pipeline stage."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage {stage}: {cause}")
        self.stage = stage


# ---------------------------------------------------------------------------
# coefficient cache


def save_coefficients(path, arrays) -> None:
    """Write ``arrays`` as members arr_0..arr_N of an uncompressed .npz archive.

    The archive goes to a temporary name first and is renamed into place,
    so a reader never sees a half-written file.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, *arrays)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_coefficients(path) -> list[np.ndarray]:
    """The arrays ``save_coefficients`` wrote, in order.

    A file that is not such an archive, or whose members are missing, are
    not stored uncompressed, fail their CRC or do not parse, raises
    ``CorruptedCacheError``; other I/O errors propagate.
    """
    try:
        npz = np.load(path, allow_pickle=False)
        if isinstance(npz, np.lib.npyio.NpzFile):
            with npz:
                packed = [i.filename for i in npz.zip.infolist() if i.compress_type != ZIP_STORED]
                if packed:
                    raise ValueError(f"compressed members {packed}")
                return [npz[f"arr_{i}"] for i in range(len(npz.files))]
    except (BadZipFile, ValueError, EOFError, KeyError) as exc:
        raise CorruptedCacheError(f"unreadable archive ({exc})") from exc
    raise CorruptedCacheError("not an .npz archive")


# ---------------------------------------------------------------------------
# scenario assembly


def _build_space(scn: Scenario) -> FiberedGSpace:
    fib = FiberModel(scn.fiber["dim"], scn.fiber["fourier_cutoff"], scn.fiber["grid"])
    gk = scn.group["group"]
    order = 1 if gk == "trivial" else int(gk["cyclic"])
    if scn.fiber_action == "trivial":
        return FiberedGSpace.trivial(fib, order)
    return FiberedGSpace(fib, order, scn.fiber_action["translation"])


def _weight_field(masses: list[float], cutoff: np.ndarray) -> np.ndarray:
    """The one weight field: the sum over base points x of masses[x] * cutoff."""
    return sum(m * cutoff for m in masses)


def _orbit_sum(sigma: list[int], masses: list[float], index: int) -> float:
    """mass * index summed over one representative per base orbit, its least member.

    The base action is the identity or the pair swap, so the orbit of x is
    {x, sigma[x]}; the load gate has made the mass constant along it.
    """
    total = 0.0
    for x, y in enumerate(sigma):
        if x <= y:
            total += masses[x] * index
    return total


def _build_operator(scn: Scenario, fiber: FiberModel):
    """Assemble the operator block and its frequency-class integrand."""
    disc = DiscModel(float(fiber.fourier_cutoff + 1))
    op = scn.operator
    if op["builtin"] == "dolbeault":
        block = dolbeault_family(fiber, op["twist"], op["levels"])
        sclass = symbol_class_dolbeault(fiber, disc, op["twist"])
        return block, sclass
    fn = _symbol_expression(op["symbol"])
    modes = fiber.modes().astype(float)
    # a non-finite sample is refused by name below, so numpy need not warn of it
    with np.errstate(all="ignore"):
        values = np.asarray(fn(modes[:, 0], modes[:, 1]), dtype=complex)
    certify_elliptic(fiber, values)
    sclass = symbol_class_multiplier(fiber, disc, fn)
    return fourier_multiplier(fiber, values), sclass


def _build_cocycle(scn: Scenario, fiber: FiberModel):
    coc = scn.cocycle
    if coc["kind"] == "unit":
        # the constant cochain is its own germ at every separation
        return ASCochain.unit(fiber, germ_radius=math.inf)
    legs = [(leg["axis"], _leg_profile(leg)) for leg in coc["legs"]]
    return ProfileCochain(fiber, legs)


# ---------------------------------------------------------------------------
# execution


@dataclass(frozen=True)
class ResultRecord:
    """One scenario outcome; everything the CSV row and sidecar need."""

    scenario: str
    analytic: tuple[int, ...]
    pairing: complex
    topological: complex
    abs_err: float
    status: str
    wall_time: float
    echo: dict

    def csv_row(self) -> str:
        analytic = ";".join(str(int(v)) for v in self.analytic)
        return ",".join(
            [
                self.scenario,
                analytic,
                _fmt_complex(self.pairing),
                _fmt_complex(self.topological),
                f"{self.abs_err:.6e}",
                self.status,
            ]
        )


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.12e}{z.imag:+.12e}j"


@contextmanager
def _stage(name: str):
    try:
        yield
    except (StageError, CorruptedCacheError):
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


# echo fields the idempotent does not depend on (it is built from the fiber, the
# operator and the localization radius alone); the cache file name carries a
# digest of all the others, so a new input field is a cache miss by default
_NOT_IDEMPOTENT_INPUTS = (
    "name", "groupoid", "fiber_action", "cocycle", "density", "tolerances", "seed"
)


def _idempotent_cache(scn: Scenario, out_dir: Path) -> Path:
    """Where the idempotent of ``scn`` is cached under ``out_dir``."""
    key = {k: v for k, v in scn.echo().items() if k not in _NOT_IDEMPOTENT_INPUTS}
    key["format"] = _CACHE_FORMAT
    digest = hashlib.sha256(json.dumps(key, sort_keys=True).encode()).hexdigest()
    return out_dir / "cache" / f"{digest[:16]}.idem.opk"


def run_scenario(scn: Scenario, out_dir=None) -> ResultRecord:
    """Execute one scenario: spectral route, chain pairing, class integral.

    The analytic column holds the quotient index for a free fiber action
    (the spectral index on the quotient torus, at flux twist/m), and the
    spectral index at every base point otherwise, a non-free fiber action
    and an identified base included.
    ``out_dir`` enables the idempotent kernel cache under ``out_dir/cache``;
    errors carry the failing stage.
    """
    t0 = time.perf_counter()
    out_dir = Path(out_dir) if out_dir is not None else None

    with _stage("build-space"):
        space = _build_space(scn)
        masses = scn.masses
        weight = _weight_field(masses, compute_cutoff(space))

    with _stage("assemble-operator"):
        block, sclass = _build_operator(scn, space.fiber)

    points = scn.group["base_points"]
    if scn.group["base_action"] == "pair-swap":
        # identified base: the family route computes both sides at once
        with _stage("family-index"):
            index, topological = family_index_orbifold(space, block, weight, sclass)
        analytic = (index,) * points
        pairing = complex(_orbit_sum(scn.base_permutation, masses, index))
    else:
        # the spectral count and an idempotent still to build share one parametrix,
        # read on every run, so an unreadable block fails here, cached or not
        with _stage("analytic-index"):
            data = analytic_index(block)
            if scn.free_action:
                m = scn.group["group"]["cyclic"]
                analytic = (half_shift_quotient_index(space.fiber, scn.operator["twist"], m),)
            else:
                analytic = (data.index,) * points

        idem = None
        if out_dir is not None:
            cache_path = _idempotent_cache(scn, out_dir)
            with _stage("operator-cache"):
                cache_path.parent.mkdir(parents=True, exist_ok=True)
                if cache_path.exists():
                    try:
                        arrays = load_coefficients(cache_path)
                        idem = IndexIdempotent.from_arrays(space.fiber, arrays, data, scn.localize)
                    except CorruptedCacheError as exc:
                        raise CorruptedCacheError(f"{cache_path.name}: {exc}") from exc

        if idem is None:
            with _stage("idempotent"):
                idem = index_idempotent(block, radius=scn.localize, data=data)
            if out_dir is not None:
                with _stage("operator-cache"):
                    save_coefficients(cache_path, idem.arrays())

        with _stage("cocycle"):
            phi = _build_cocycle(scn, space.fiber)

        with _stage("pairing"):
            pairing = pair_cocycle(idem, phi, space, weight)

        with _stage("topological"):
            alpha = phi.van_est_form()
            topological = topological_index(space, weight, alpha, sclass)

    abs_err = abs(pairing - topological)
    return ResultRecord(
        scenario=scn.name,
        analytic=analytic,
        pairing=pairing,
        topological=topological,
        abs_err=abs_err,
        status="pass" if abs_err <= scn.pairing_tol else "fail",
        wall_time=time.perf_counter() - t0,
        echo=scn.echo(),
    )


def _run_one(name, out_dir):
    """One scenario run: its record, and the error that ended it or None."""
    scn = load_scenario(name)
    try:
        return run_scenario(scn, out_dir=out_dir), None
    except (StageError, CorruptedCacheError) as exc:
        stage = exc.stage if isinstance(exc, StageError) else "operator-cache"
        record = ResultRecord(
            scn.name, (), 0j, 0j, math.inf, f"error[{stage}]", 0.0, scn.echo()
        )
        return record, exc


def write_records(out: Path, records) -> None:
    """Write ``scenarios.csv`` holding ``records`` and one echo sidecar each."""
    rows = [rec.csv_row() for rec in records]
    (out / "scenarios.csv").write_text(CSV_HEADER + "\n" + "\n".join(rows) + "\n")
    for rec in records:
        (out / f"{rec.scenario}.scenario.json").write_text(
            json.dumps(rec.echo, indent=2, sort_keys=True) + "\n"
        )


# ---------------------------------------------------------------------------
# suite driver


def run_suite(which: str, out_dir, only=None) -> int:
    """Run invariants and/or builtin scenarios; write reports; return exit code.

    ``which`` is "invariants", "scenarios", or "all".  ``only`` optionally
    restricts the scenario list by name.  Exit code 0 on full success, 1 on
    any failed check or scenario, 2 when a cached coefficient file is
    corrupted.
    """
    if which not in ("invariants", "scenarios", "all"):
        raise ModelError('suite selector must be "invariants", "scenarios", or "all"')
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    exit_code = 0
    table: list[str] = []

    if which in ("invariants", "all"):
        rows = []
        for name, check in INVARIANT_CHECKS.items():
            t0 = time.perf_counter()
            defect, tol = check()
            status = "pass" if defect <= tol else "fail"
            if status == "fail":
                exit_code = max(exit_code, 1)
            rows.append(f"{name},{defect:.6e},{tol:.1e},{status}")
            table.append(
                f"{name:32s} defect {defect:.3e}  tol {tol:.1e}  {status}"
                f"  ({time.perf_counter() - t0:.1f}s)"
            )
        (out / "invariants.csv").write_text(
            INVARIANT_CSV_HEADER + "\n" + "\n".join(rows) + "\n"
        )

    if which in ("scenarios", "all"):
        records: list[ResultRecord] = []
        errors: list[str] = []
        for name in BUILTIN_SCENARIOS:
            if only is not None and name not in only:
                continue
            rec, error = _run_one(name, out)
            records.append(rec)
            if isinstance(error, CorruptedCacheError):
                exit_code = 2
            elif error is not None or rec.status != "pass":
                exit_code = max(exit_code, 1)
            if error is not None:
                errors.append(f"error: {error}")
            table.append(
                f"{rec.scenario:28s} err {rec.abs_err:.3e}  {rec.status}"
                f"  ({rec.wall_time:.1f}s)"
            )
        write_records(out, records)
        table += errors

    (out / "summary.txt").write_text("\n".join(table) + "\n")
    return exit_code
