"""Scenario definitions, deterministic runs, and machine-readable reports.

A scenario is a JSON document describing one complete index computation:
the acting group and base, the torus fiber, the elliptic family, the cocycle
to pair, the transversal density, tolerances, and a seed.  ``load_scenario``
validates it (naming the offending field), ``run_scenario`` executes all
three routes (spectral index, chain pairing, class integral) and reports a
``ResultRecord``, and ``run_suite`` drives the builtin catalog and the
registered property checks, writing diff-able CSV plus a human table.

Determinism contract: a fixed scenario and seed produce bitwise-identical
CSV bodies across reruns; wall times and anything else nondeterministic stay
out of the CSV.  Assembled idempotent kernels are cached in a dense binary
coefficient file (row-major, little-endian, dimensions header) whose name
carries a digest of the inputs the idempotent depends on, so a changed input
is a cache miss; a corrupted cache surfaces as a stage-tagged error and exit
code 2.
"""
from __future__ import annotations

import hashlib
import json
import math
import struct
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .charclass import (
    DiscModel,
    char_closedness_defect,
    chern_character_fiber,
    twist_projector,
)
from .cochains import ASCochain, ASTerm, d_as, van_est_realize
from .density import TransversalDensity, compute_cutoff
from .dolbeault import dolbeault_family
from .forms import (
    FoliatedForm,
    d_leafwise,
    index_subsets,
    integrate_invariant,
    invariant_project_form,
)
from .grids import (
    FiberModel,
    ModelError,
    eval_modes_at,
    mode_lattice,
    random_band_limited,
)
from .groupoid import BaseModel, BasePoint, FiniteGroup, action_groupoid
from .operators import SmoothingKernel, random_invariant_kernel, trace_tau
from .pairing import ProfileCochain, TransitionProfile, pair_cocycle
from .parametrix import CorruptedCacheError, IndexIdempotent, analytic_index, index_idempotent
from .space import AffineTorusMap, FiberedGSpace
from .symbols import (
    SMOOTHING_ORDER,
    SymbolData,
    multiplier_symbol,
    quantize,
    trace_symbol_formula,
)
from .topindex import (
    family_index_orbifold,
    free_action_reduction,
    half_shift_quotient_index,
    symbol_class_dolbeault,
    symbol_class_multiplier,
    topological_index,
)

__all__ = [
    "Scenario",
    "ResultRecord",
    "ScenarioError",
    "StageError",
    "CorruptedCacheError",
    "BUILTIN_SCENARIOS",
    "INVARIANT_CHECKS",
    "load_scenario",
    "run_scenario",
    "run_suite",
    "save_coefficients",
    "load_coefficients",
    "cochain_to_table",
    "CSV_HEADER",
    "INVARIANT_CSV_HEADER",
]

CSV_HEADER = "scenario,analytic_index,pairing,topological,abs_err,status"
INVARIANT_CSV_HEADER = "invariant,defect,tolerance,status"


class ScenarioError(ModelError):
    """Raised when a scenario file fails to parse or validate."""


class StageError(ModelError):
    """A module error wrapped with the name of the failing pipeline stage."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage {stage}: {cause}")
        self.stage = stage
        self.cause = cause


# ---------------------------------------------------------------------------
# dense binary coefficient format
#
# header: magic b"IPK1", uint32 array count; per array: uint8 dtype tag
# (0 = float64, 1 = complex128), uint32 ndim, uint32 dims, then the raw
# row-major payload.  Everything little-endian.

_CACHE_MAGIC = b"IPK1"
_DTYPE_TAGS = {0: np.dtype("<f8"), 1: np.dtype("<c16")}
_TAG_OF = {np.dtype("float64"): 0, np.dtype("complex128"): 1}


def save_coefficients(path, arrays) -> None:
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(_CACHE_MAGIC)
        fh.write(struct.pack("<I", len(arrays)))
        for arr in arrays:
            arr = np.ascontiguousarray(arr)
            if arr.dtype not in _TAG_OF:
                raise ModelError(f"cannot serialize dtype {arr.dtype}")
            tag = _TAG_OF[arr.dtype]
            fh.write(struct.pack("<BI", tag, arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.astype(_DTYPE_TAGS[tag], copy=False).tobytes())


def load_coefficients(path) -> list[np.ndarray]:
    path = Path(path)
    data = path.read_bytes()
    view = memoryview(data)

    def take(nbytes: int) -> memoryview:
        nonlocal view
        if len(view) < nbytes:
            raise CorruptedCacheError(f"{path.name}: truncated coefficient file")
        head, view = view[:nbytes], view[nbytes:]
        return head

    if bytes(take(4)) != _CACHE_MAGIC:
        raise CorruptedCacheError(f"{path.name}: bad magic, not a coefficient file")
    (count,) = struct.unpack("<I", take(4))
    if count > 4096:
        raise CorruptedCacheError(f"{path.name}: implausible array count {count}")
    arrays = []
    for _ in range(count):
        tag, ndim = struct.unpack("<BI", take(5))
        if tag not in _DTYPE_TAGS or ndim > 8:
            raise CorruptedCacheError(f"{path.name}: bad array header")
        dims = struct.unpack(f"<{ndim}I", take(4 * ndim))
        size = int(np.prod(dims, dtype=np.int64)) if dims else 1
        dtype = _DTYPE_TAGS[tag]
        payload = take(size * dtype.itemsize)
        arrays.append(np.frombuffer(payload, dtype=dtype).reshape(dims).copy())
    if len(view):
        raise CorruptedCacheError(f"{path.name}: trailing bytes after last array")
    return arrays


# ---------------------------------------------------------------------------
# scenario schema


_DEFAULT_TOLS = {"pairing_tol": 1e-6, "invariant_tol": 1e-8}
_LIMITS = {"fourier_cutoff": 32, "grid": 128, "base_points": 64}


@dataclass(frozen=True)
class Scenario:
    """One validated index-pairing computation, ready to execute.

    The raw JSON shape (also what ``echo`` reproduces, defaults filled):

        name            string
        groupoid        {"group": "trivial" | {"cyclic": m},
                         "base_points": int, "base_weights": [float, ..]?,
                         "base_action": "trivial" | "pair-swap"}
        fiber           {"kind": "torus", "dim": int,
                         "fourier_cutoff": int, "grid": int}
                        (dim 2 for dolbeault, at least 2 for multiplier)
        fiber_action    "trivial" | {"translation": ["p/q", ..]}
        operator        {"builtin": "dolbeault", "twist": int, "levels": int}
                      | {"builtin": "multiplier", "symbol": expr-string}
        localize        truncation radius for the index idempotent, or null
        cocycle         {"kind": "unit"}
                      | {"kind": "profile", "legs": [{"axis": int,
                         "linear_radius": f, "support_radius": f}, ..]}
                        (exactly two legs)
                      | {"kind": "elementary", "degree": int, "band": int}
                        (factor fields drawn from the seed)
                      | {"kind": "elementary", "degree": int, "band": int,
                         "terms": coefficient table}
        density         {"values": [float, ..]}
        tolerances      {"pairing_tol": f, "invariant_tol": f}
        seed            uint64 (required)

    A coefficient table is a list of terms, each ``{"weight": [re, im],
    "factors": [[[re, im] per mode] per base point] per slot}`` with modes
    ordered over the lexicographic box of the stated band.
    """

    name: str
    group: dict
    fiber: dict
    fiber_action: object
    operator: dict
    localize: float | None
    cocycle: dict
    density: dict
    tolerances: dict
    seed: int
    origin: Path | None = field(default=None, compare=False)

    def echo(self) -> dict:
        """The resolved scenario: every default filled, ready to re-load."""
        return {
            "name": self.name,
            "groupoid": self.group,
            "fiber": self.fiber,
            "fiber_action": self.fiber_action,
            "operator": self.operator,
            "localize": self.localize,
            "cocycle": self.cocycle,
            "density": self.density,
            "tolerances": self.tolerances,
            "seed": self.seed,
        }

    @property
    def pairing_tol(self) -> float:
        return float(self.tolerances["pairing_tol"])

    @property
    def invariant_tol(self) -> float:
        return float(self.tolerances["invariant_tol"])


_REQUIRED = object()


def _need(table: dict, key: str, kind, where: str, default=_REQUIRED):
    """Field ``where.key`` checked as ``kind``, or ``default`` when absent.

    A one-element list ``[kind]`` asks for a list whose entries are ``kind``.
    """
    if key not in table:
        if default is _REQUIRED:
            raise ScenarioError(f"missing field {where}.{key}")
        return default
    value = table[key]
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ScenarioError(f"field {where}.{key} must be a list")
        return [_need({key: v}, key, kind[0], where) for v in value]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ScenarioError(f"field {where}.{key} must be {kind.__name__}")
    return value


def _validate(raw: dict, origin: Path | None) -> Scenario:
    if not isinstance(raw, dict):
        raise ScenarioError("scenario document must be a JSON object")
    name = _need(raw, "name", str, "scenario")
    if not name or any(c in name for c in ",\n\r"):
        raise ScenarioError("field scenario.name must be nonempty without commas")

    group = dict(_need(raw, "groupoid", dict, "scenario"))
    gk = group.get("group", "trivial")
    if isinstance(gk, dict) and set(gk) == {"cyclic"}:
        if _need(gk, "cyclic", int, "groupoid.group") < 2:
            raise ScenarioError("groupoid.group.cyclic must be at least 2")
    elif gk != "trivial":
        raise ScenarioError('groupoid.group must be "trivial" or {"cyclic": m>=2}')
    group["group"] = gk
    bp = _need(group, "base_points", int, "groupoid", 1)
    if not 1 <= bp <= _LIMITS["base_points"]:
        raise ScenarioError(
            f"groupoid.base_points must be in [1, {_LIMITS['base_points']}]"
        )
    group["base_points"] = bp
    weights = _need(group, "base_weights", [float], "groupoid", [1.0] * bp)
    if len(weights) != bp or any(w <= 0 for w in weights):
        raise ScenarioError("groupoid.base_weights needs one positive entry per point")
    group["base_weights"] = weights
    action = group.get("base_action", "trivial")
    if action not in ("trivial", "pair-swap"):
        raise ScenarioError('groupoid.base_action must be "trivial" or "pair-swap"')
    if action == "pair-swap" and (bp % 2 or gk != {"cyclic": 2}):
        raise ScenarioError(
            "groupoid.base_action pair-swap needs an even base and a cyclic(2) group"
        )
    group["base_action"] = action

    fiber = dict(_need(raw, "fiber", dict, "scenario"))
    kind = _need(fiber, "kind", str, "fiber", "torus")
    dim = _need(fiber, "dim", int, "fiber")
    N = _need(fiber, "fourier_cutoff", int, "fiber")
    n = _need(fiber, "grid", int, "fiber")
    if dim < 1:
        raise ScenarioError("fiber.dim must be positive")
    if N < 1 or N > _LIMITS["fourier_cutoff"]:
        raise ScenarioError(
            f"fiber.fourier_cutoff must be in [1, {_LIMITS['fourier_cutoff']}]"
        )
    if n > _LIMITS["grid"]:
        raise ScenarioError(f"fiber.grid must be at most {_LIMITS['grid']} per dim")
    if n < 2 * N + 2:
        raise ScenarioError(
            "fiber.grid must be at least 2*fourier_cutoff + 2 for exact quadrature"
        )
    fiber = {"kind": kind, "dim": dim, "fourier_cutoff": N, "grid": n}

    fa = raw.get("fiber_action", "trivial")
    if fa != "trivial":
        if not (isinstance(fa, dict) and set(fa) == {"translation"}):
            raise ScenarioError(
                'fiber_action must be "trivial" or {"translation": [..]}'
            )
        shifts = _need(fa, "translation", list, "fiber_action")
        if len(shifts) != dim:
            raise ScenarioError("fiber_action.translation needs one entry per dim")
        try:
            [Fraction(s) for s in shifts]
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise ScenarioError(f"fiber_action.translation: {exc}") from exc
        if group["group"] == "trivial":
            raise ScenarioError("fiber_action needs a nontrivial group")
        fa = {"translation": [str(s) for s in shifts]}

    op = dict(_need(raw, "operator", dict, "scenario"))
    if op.get("builtin") == "dolbeault":
        op = {
            "builtin": "dolbeault",
            "twist": _need(op, "twist", int, "operator"),
            "levels": _need(op, "levels", int, "operator", 2),
        }
    elif op.get("builtin") == "multiplier":
        op = {
            "builtin": "multiplier",
            "symbol": _need(op, "symbol", str, "operator"),
        }
    else:
        raise ScenarioError('operator.builtin must be "dolbeault" or "multiplier"')
    if op["builtin"] == "dolbeault" and dim != 2:
        raise ScenarioError("fiber.dim must be 2 for the dolbeault operator")
    if op["builtin"] == "multiplier" and dim < 2:
        raise ScenarioError(
            "fiber.dim must be at least 2: the multiplier symbol reads xi1 and xi2"
        )

    localize = raw.get("localize")
    if localize is not None:
        localize = _need(raw, "localize", float, "scenario")
        if not 0 < localize <= math.sqrt(dim) / 2.0:
            raise ScenarioError("localize must be a radius inside the fiber")

    coc = dict(_need(raw, "cocycle", dict, "scenario", {"kind": "unit"}))
    ck = coc.get("kind")
    if ck == "unit":
        coc = {"kind": "unit"}
    elif ck == "profile":
        legs = _need(coc, "legs", [dict], "cocycle", [])
        norm_legs = []
        for leg in legs:
            norm_leg = {
                "axis": _need(leg, "axis", int, "cocycle.legs"),
                "linear_radius": _need(leg, "linear_radius", float, "cocycle.legs"),
                "support_radius": _need(
                    leg, "support_radius", float, "cocycle.legs", 0.5
                ),
            }
            if not 0 <= norm_leg["axis"] < dim:
                raise ScenarioError(
                    f"cocycle.legs: axis {norm_leg['axis']} outside fiber.dim {dim}"
                )
            _leg_profile(norm_leg)
            norm_legs.append(norm_leg)
        if len(norm_legs) != 2:
            # the pairing contracts one even difference cochain, k = 1
            raise ScenarioError(
                f"cocycle.legs must list exactly two difference profiles, got {len(norm_legs)}"
            )
        coc = {"kind": "profile", "legs": norm_legs}
    elif ck == "elementary":
        coc = {
            "kind": "elementary",
            "degree": _need(coc, "degree", int, "cocycle"),
            "band": _need(coc, "band", int, "cocycle", 2),
            **({"terms": coc["terms"]} if "terms" in coc else {}),
        }
        if coc["degree"] % 2 or coc["degree"] < 0:
            raise ScenarioError("cocycle.degree must be even and nonnegative")
        if coc["band"] > N:
            raise ScenarioError("cocycle.band exceeds fiber.fourier_cutoff")
    else:
        raise ScenarioError('cocycle.kind must be "unit", "profile", or "elementary"')

    dens = _need(raw, "density", dict, "scenario", {})
    values = _need(dens, "values", [float], "density", [1.0] * bp)
    if len(values) != bp or any(v <= 0 for v in values):
        raise ScenarioError("density.values needs one positive entry per base point")
    dens = {"values": values}

    given = _need(raw, "tolerances", dict, "scenario", {})
    for key in given:
        if key not in _DEFAULT_TOLS:
            raise ScenarioError(f"unknown tolerance field tolerances.{key}")
    tols = {
        key: _need(given, key, float, "tolerances", default)
        for key, default in _DEFAULT_TOLS.items()
    }
    for key, value in tols.items():
        if value <= 0:
            raise ScenarioError(f"tolerances.{key} must be positive")

    seed = _need(raw, "seed", int, "scenario")
    if not 0 <= seed < 2**64:
        raise ScenarioError("scenario.seed must fit in 64 bits")

    return Scenario(
        name=name,
        group=group,
        fiber=fiber,
        fiber_action=fa,
        operator=op,
        localize=localize,
        cocycle=coc,
        density=dens,
        tolerances=tols,
        seed=seed,
        origin=origin,
    )


def _leg_profile(leg: dict) -> TransitionProfile:
    try:
        return TransitionProfile(
            linear_radius=leg["linear_radius"], support_radius=leg["support_radius"]
        )
    except ModelError as exc:
        raise ScenarioError(f"cocycle.legs: {exc}") from exc


# ---------------------------------------------------------------------------
# builtin catalog

BUILTIN_SCENARIOS: dict[str, dict] = {}


def _register(doc: dict, blurb: str) -> None:
    BUILTIN_SCENARIOS[doc["name"]] = {"doc": doc, "blurb": blurb}


for _d in (-2, -1, 0, 1, 2):
    _tag = f"d{_d}" if _d >= 0 else f"dm{-_d}"
    _register(
        {
            "name": f"S1-dolbeault-{_tag}",
            "groupoid": {"group": "trivial", "base_points": 1},
            "fiber": {"kind": "torus", "dim": 2, "fourier_cutoff": 8, "grid": 20},
            "operator": {"builtin": "dolbeault", "twist": _d, "levels": 2},
            "cocycle": {"kind": "unit"},
            "seed": 101,
        },
        f"flux {_d} antiholomorphic family on the torus, trivial group",
    )

_register(
    {
        "name": "S2-free-halfshift-d2",
        "groupoid": {"group": {"cyclic": 2}, "base_points": 1},
        "fiber": {"kind": "torus", "dim": 2, "fourier_cutoff": 8, "grid": 20},
        "fiber_action": {"translation": ["1/2", "1/2"]},
        "operator": {"builtin": "dolbeault", "twist": 2, "levels": 2},
        "cocycle": {"kind": "unit"},
        "seed": 202,
    },
    "free half-period shift, flux 2; quotient, reduction, and pairing all 1",
)

_register(
    {
        "name": "S3-multiplier-invertible",
        "groupoid": {"group": "trivial", "base_points": 1},
        "fiber": {"kind": "torus", "dim": 2, "fourier_cutoff": 8, "grid": 20},
        "operator": {
            "builtin": "multiplier",
            "symbol": "1 + (xi1*xi1 + xi2*xi2) / 81",
        },
        "cocycle": {"kind": "unit"},
        "seed": 303,
    },
    "invertible frequency multiplier; zero class, all routes 0",
)

_register(
    {
        "name": "S4-sawtooth-flux32",
        "groupoid": {"group": "trivial", "base_points": 1},
        "fiber": {"kind": "torus", "dim": 2, "fourier_cutoff": 23, "grid": 48},
        "operator": {"builtin": "dolbeault", "twist": 32, "levels": 2},
        "localize": 0.30,
        "cocycle": {
            "kind": "profile",
            "legs": [
                {"axis": 0, "linear_radius": 0.45},
                {"axis": 1, "linear_radius": 0.45},
            ],
        },
        "seed": 404,
    },
    "degree-2 sawtooth cocycle against the flux-32 idempotent (the k = 1 case)",
)

_register(
    {
        "name": "S5-orbifold-family",
        "groupoid": {
            "group": {"cyclic": 2},
            "base_points": 4,
            "base_weights": [0.5, 0.5, 0.5, 0.5],
            "base_action": "pair-swap",
        },
        "fiber": {"kind": "torus", "dim": 2, "fourier_cutoff": 3, "grid": 18},
        "operator": {"builtin": "dolbeault", "twist": 3, "levels": 4},
        "cocycle": {"kind": "unit"},
        "seed": 505,
    },
    "constant flux-3 family over a pairwise-identified 4-point base",
)


def load_scenario(source) -> Scenario:
    """Load and validate a scenario from a file path or a builtin name."""
    if isinstance(source, str) and source in BUILTIN_SCENARIOS:
        return _validate(BUILTIN_SCENARIOS[source]["doc"], origin=None)
    path = Path(source)
    if not path.exists():
        raise ScenarioError(
            f"{source!r} is neither a builtin scenario nor an existing file"
        )
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path.name}: parse error at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    return _validate(raw, origin=path)


# ---------------------------------------------------------------------------
# scenario assembly


def _build_space(scn: Scenario) -> FiberedGSpace:
    fib = FiberModel(
        scn.fiber["kind"],
        scn.fiber["dim"],
        scn.fiber["fourier_cutoff"],
        scn.fiber["grid"],
    )
    weights = scn.group["base_weights"]
    base = BaseModel(
        [BasePoint(f"x{i}", weights[i], fib) for i in range(scn.group["base_points"])]
    )
    gk = scn.group["group"]
    if gk == "trivial":
        gpd = action_groupoid(FiniteGroup.trivial(), base, act=lambda g, x: x)
        return FiberedGSpace.trivial(gpd)
    order = int(gk["cyclic"])
    if scn.group["base_action"] == "pair-swap":
        gpd = action_groupoid(
            FiniteGroup.cyclic(order), base, act=lambda g, x: x ^ 1 if g % 2 else x
        )
    else:
        gpd = action_groupoid(FiniteGroup.cyclic(order), base, act=lambda g, x: x)
    if scn.fiber_action == "trivial":
        return FiberedGSpace.trivial(gpd)
    shift = [Fraction(s) for s in scn.fiber_action["translation"]]
    maps = {}
    for a in gpd.arrows:
        g, _ = a.label
        maps[a.label] = AffineTorusMap.translation([g * s for s in shift])
    return FiberedGSpace(gpd, maps)


_SYMBOL_NAMES = {"pi": math.pi}
_SYMBOL_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "sqrt": np.sqrt}


def _symbol_expression(expr: str):
    """Compile a frequency-symbol expression over xi1, xi2.

    Only arithmetic, the constant pi, and sin/cos/exp/sqrt are allowed; the
    check walks the syntax tree so a scenario file cannot smuggle code in.
    Integer constants become floats, so a power overflows at once instead of
    building a huge integer (9**9**9 has 370 million digits).
    """
    import ast

    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ScenarioError(f"operator.symbol: {exc.msg}") from exc
    allowed = (
        ast.Expression,
        ast.BinOp,
        ast.UnaryOp,
        ast.Constant,
        ast.Name,
        ast.Call,
        ast.Load,
        ast.Add,
        ast.Sub,
        ast.Mult,
        ast.Div,
        ast.Pow,
        ast.USub,
        ast.UAdd,
    )
    for node in ast.walk(tree):
        if not isinstance(node, allowed):
            raise ScenarioError(
                f"operator.symbol: disallowed syntax {type(node).__name__}"
            )
        if isinstance(node, ast.Name) and node.id not in (
            "xi1",
            "xi2",
            *_SYMBOL_NAMES,
            *_SYMBOL_FUNCS,
        ):
            raise ScenarioError(f"operator.symbol: unknown name {node.id!r}")
        if isinstance(node, ast.Call) and (
            not isinstance(node.func, ast.Name) or node.func.id not in _SYMBOL_FUNCS
        ):
            raise ScenarioError("operator.symbol: only sin/cos/exp/sqrt calls")
        if isinstance(node, ast.Constant):
            if type(node.value) not in (int, float, complex):
                raise ScenarioError(
                    f"operator.symbol: constant {node.value!r} is not a number"
                )
            if type(node.value) is int:
                try:
                    node.value = float(node.value)
                except OverflowError:
                    raise ScenarioError(
                        "operator.symbol: integer constant overflows a float"
                    ) from None
    code = compile(tree, "<operator.symbol>", "eval")

    def fn(x1, x2):
        scope = {"xi1": x1, "xi2": x2, **_SYMBOL_NAMES, **_SYMBOL_FUNCS}
        try:
            return eval(code, {"__builtins__": {}}, scope)
        except ArithmeticError as exc:
            raise ScenarioError(f"operator.symbol: evaluation failed ({exc})") from exc

    return fn


def _build_operator(scn: Scenario, space: FiberedGSpace):
    """Assemble the operator family and its frequency-class integrand."""
    base = space.base
    N = scn.fiber["fourier_cutoff"]
    disc = DiscModel(float(N + 1), 48, 48)
    op = scn.operator
    if op["builtin"] == "dolbeault":
        fam = dolbeault_family(base, op["twist"], op["levels"])
        sclass = symbol_class_dolbeault(base, disc, op["twist"])
        return fam, sclass
    fn = _symbol_expression(op["symbol"])
    sym = multiplier_symbol(
        base,
        lambda modes: fn(modes[:, 0].astype(float), modes[:, 1].astype(float)),
        order=0.0,
    )
    sym.certify_elliptic(radius=0.5)
    fam = quantize(sym)
    sclass = symbol_class_multiplier(base, disc, fn)
    return fam, sclass


def _build_cocycle(scn: Scenario, base: BaseModel):
    coc = scn.cocycle
    if coc["kind"] == "unit":
        # the constant cochain is its own germ at every separation
        return ASCochain.unit(base, germ_radius=math.inf)
    if coc["kind"] == "profile":
        legs = [(leg["axis"], _leg_profile(leg)) for leg in coc["legs"]]
        return ProfileCochain(base, legs)
    band = coc["band"]
    if "terms" in coc:
        return _cochain_from_table(base, coc["degree"], band, coc["terms"])
    rng = np.random.default_rng(scn.seed)
    factors = [
        [
            random_band_limited(rng, base.fiber(x), band, real=False)
            for x in range(len(base))
        ]
        for _ in range(coc["degree"] + 1)
    ]
    return ASCochain.elementary(base, factors, germ_radius=2.0)


def _cochain_from_table(base: BaseModel, degree: int, band: int, terms) -> ASCochain:
    """Decode the coefficient-table serialization of an elementary cochain."""
    modes = mode_lattice(band, base.fiber(0).dim)
    out = []
    for t, term in enumerate(terms):
        w = term.get("weight", [1.0, 0.0])
        factors = []
        for s, slot in enumerate(term["factors"]):
            fam = []
            for x, coefs in enumerate(slot):
                coefs = np.asarray(
                    [complex(c[0], c[1]) for c in coefs], dtype=complex
                )
                if len(coefs) != len(modes):
                    raise ScenarioError(
                        f"cocycle.terms[{t}].factors[{s}][{x}]: expected "
                        f"{len(modes)} mode coefficients, got {len(coefs)}"
                    )
                fam.append(eval_modes_at(coefs, modes, base.fiber(x).points()))
            factors.append(tuple(fam))
        out.append(ASTerm(complex(w[0], w[1]), tuple(factors)))
    return ASCochain(base, degree, out, germ_radius=2.0)


def cochain_to_table(phi: ASCochain, band: int) -> list[dict]:
    """Encode an elementary cochain in the scenario coefficient-table format."""
    base = phi.base
    modes = mode_lattice(band, base.fiber(0).dim)
    terms = []
    for term in phi.terms:
        slots = []
        for fam in term.factors:
            per_point = []
            for x, f in enumerate(fam):
                fiber = base.fiber(x)
                f = np.asarray(f, dtype=complex).reshape(fiber.grid_shape)
                hat = np.fft.fftn(f) / fiber.npoints
                coefs = hat[tuple((modes % fiber.grid_size).T)]
                per_point.append([[float(c.real), float(c.imag)] for c in coefs])
            slots.append(per_point)
        terms.append(
            {
                "weight": [float(term.weight.real), float(term.weight.imag)],
                "factors": slots,
            }
        )
    return terms


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


# Bump when the cached idempotent of unchanged inputs would change.
_CACHE_FORMAT = 2
# echo fields the idempotent depends on; the cache file name carries their digest
_IDEMPOTENT_INPUTS = ("groupoid", "fiber", "fiber_action", "operator", "localize")


def _idempotent_cache(scn: Scenario, out_dir: Path | None):
    if out_dir is None:
        return None
    cache = Path(out_dir) / "cache"
    cache.mkdir(parents=True, exist_ok=True)
    echo = scn.echo()
    key = {name: echo[name] for name in _IDEMPOTENT_INPUTS}
    key["format"] = _CACHE_FORMAT
    blob = json.dumps(key, sort_keys=True).encode()
    return cache / f"{scn.name}.{hashlib.sha256(blob).hexdigest()[:16]}.idem.opk"


def run_scenario(scn: Scenario, out_dir=None) -> ResultRecord:
    """Execute one scenario: spectral route, chain pairing, class integral.

    The analytic column holds the quotient index for a free fiber action,
    the per-point family indices for an identified base, and the plain
    spectral index otherwise.  ``out_dir`` enables the idempotent kernel
    cache under ``out_dir/cache``; errors carry the failing stage.
    """
    t0 = time.perf_counter()
    out_dir = Path(out_dir) if out_dir is not None else None

    with _stage("build-space"):
        space = _build_space(scn)
        cutoff = compute_cutoff(space)
        dens = TransversalDensity(space, scn.density["values"])

    with _stage("assemble-operator"):
        fam, sclass = _build_operator(scn, space)

    if scn.group["base_action"] == "pair-swap":
        # identified base: the family route computes both sides at once
        with _stage("family-index"):
            res = family_index_orbifold(space, fam, cutoff, dens, sclass)
        return ResultRecord(
            scenario=scn.name,
            analytic=tuple(res.per_point),
            pairing=complex(res.orbit_sum),
            topological=complex(res.topological),
            abs_err=float(res.difference),
            status="pass" if res.difference <= scn.pairing_tol else "fail",
            wall_time=time.perf_counter() - t0,
            echo=scn.echo(),
        )

    with _stage("analytic-index"):
        if scn.fiber_action != "trivial":
            if scn.operator["builtin"] != "dolbeault":
                raise ModelError(
                    "the quotient analytic route is defined for the dolbeault family"
                )
            analytic = (
                half_shift_quotient_index(space.base.fiber(0), scn.operator["twist"]),
            )
        else:
            counts = analytic_index(fam)
            analytic = tuple(counts.index(x) for x in range(len(space.base)))

    cache_path = _idempotent_cache(scn, out_dir)
    idem = None
    if cache_path is not None and cache_path.exists():
        with _stage("operator-cache"):
            arrays = load_coefficients(cache_path)
            try:
                idem = IndexIdempotent.from_arrays(space.base, arrays)
            except CorruptedCacheError as exc:
                raise CorruptedCacheError(f"{cache_path.name}: {exc}") from exc
    if idem is None:
        with _stage("idempotent"):
            idem = index_idempotent(fam, radius=scn.localize)
        if cache_path is not None:
            with _stage("operator-cache"):
                save_coefficients(cache_path, idem.arrays())

    with _stage("cocycle"):
        phi = _build_cocycle(scn, space.base)

    with _stage("pairing"):
        pairing = pair_cocycle(
            idem, phi, cutoff, dens, invariance_tol=scn.invariant_tol
        )

    with _stage("topological"):
        alpha = (
            phi.van_est_form()
            if isinstance(phi, ProfileCochain)
            else van_est_realize(phi)
        )
        topological = topological_index(
            space, cutoff, dens, alpha, sclass, invariant_tol=scn.invariant_tol
        )

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
    scn = load_scenario(name)
    try:
        return run_scenario(scn, out_dir=out_dir)
    except CorruptedCacheError as exc:
        return (
            ResultRecord(
                scn.name, (), 0j, 0j, math.inf, "error[operator-cache]",
                0.0, scn.echo(),
            ),
            str(exc),
        )
    except StageError as exc:
        return (
            ResultRecord(
                scn.name, (), 0j, 0j, math.inf, f"error[{exc.stage}]",
                0.0, scn.echo(),
            ),
            str(exc),
        )


# ---------------------------------------------------------------------------
# invariant registry: each check returns (worst defect, tolerance)


def _inv_space(n=16, N=5):
    base = BaseModel([BasePoint("pt", 1.0, FiberModel("torus", 2, N, n))])
    gpd = action_groupoid(FiniteGroup.cyclic(2), base, act=lambda g, x: x)
    ident = AffineTorusMap.identity(2)
    shift = AffineTorusMap.translation([Fraction(1, 2), Fraction(1, 2)])
    return FiberedGSpace(gpd, {(0, 0): ident, (1, 0): shift})


def _inv_trivial(n=16, N=5):
    base = BaseModel([BasePoint("pt", 1.0, FiberModel("torus", 2, N, n))])
    gpd = action_groupoid(FiniteGroup.trivial(), base, act=lambda g, x: x)
    return FiberedGSpace.trivial(gpd)


def _random_one_form(rng, base, band):
    r = base.fiber(0).dim
    ncomp = len(index_subsets(r, 1))
    fields = []
    for x in range(len(base)):
        cols = [
            random_band_limited(rng, base.fiber(x), band, real=False)
            for _ in range(ncomp)
        ]
        fields.append(np.stack(cols, axis=1))
    return FoliatedForm(1, r, fields)


def _check_trace_commutator():
    space = _inv_space()
    cutoff = compute_cutoff(space)
    dens = TransversalDensity.uniform(space)
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        k1 = random_invariant_kernel(rng, space, cutoff, band=2)
        k2 = random_invariant_kernel(rng, space, cutoff, band=2)
        lhs = trace_tau(k1.compose(k2) - k2.compose(k1), cutoff, dens)
        scale = max(k1.norm() * k2.norm(), 1e-30)
        worst = max(worst, abs(lhs) / scale)
    return worst, 1e-9


def _check_trace_cutoff_independence():
    space = _inv_space()
    dens = TransversalDensity.uniform(space)
    c1 = compute_cutoff(space)
    rng = np.random.default_rng(7)
    npts = space.base.fiber(0).npoints
    c2 = compute_cutoff(space, [1.0 + 0.5 * rng.random(npts)])
    worst = 0.0
    for seed in range(10):
        k = random_invariant_kernel(
            np.random.default_rng(2000 + seed), space, c1, band=2
        )
        worst = max(worst, abs(trace_tau(k, c1, dens) - trace_tau(k, c2, dens)))
    return worst, 1e-9


def _check_symbol_trace_formula():
    space = _inv_trivial(n=12, N=5)
    base = space.base
    cutoff = compute_cutoff(space)
    dens = TransversalDensity.uniform(space)
    fiber = base.fiber(0)
    modes = fiber.modes()
    xipart = np.exp(-2.0 * np.sum(modes.astype(float) ** 2, axis=1))
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(3000 + seed)
        zpart = 1.0 + 0.3 * np.real(
            random_band_limited(rng, fiber, band=1, real=False)
        )
        table = zpart[:, None] * xipart[None, :]
        sym = SymbolData(base, SMOOTHING_ORDER, [table])
        kern = SmoothingKernel(base, [quantize(sym).blocks[0].grid_matrix()])
        lhs = trace_symbol_formula(sym, cutoff, dens)
        rhs = trace_tau(kern, cutoff, dens)
        worst = max(worst, abs(lhs - rhs))
    return worst, 1e-8


def _check_stokes():
    space = _inv_space()
    cutoff = compute_cutoff(space)
    dens = TransversalDensity.uniform(space)
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(4000 + seed)
        beta = invariant_project_form(
            space, cutoff, _random_one_form(rng, space.base, band=3)
        )
        dbeta = d_leafwise(beta, space.base)
        worst = max(worst, abs(integrate_invariant(dbeta, cutoff, dens)))
    return worst, 1e-9


def _check_vanest_chain_map():
    space = _inv_trivial()
    base = space.base
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(5000 + seed)
        factors = [
            [random_band_limited(rng, base.fiber(0), 2, real=False)]
            for _ in range(2)
        ]
        phi = ASCochain.elementary(base, factors, germ_radius=2.0)
        defect = (
            van_est_realize(d_as(phi)) - d_leafwise(van_est_realize(phi), base)
        ).max_abs()
        worst = max(worst, defect)
    return worst, 1e-10


def _check_coboundary_pairing():
    space = _inv_trivial(n=20, N=8)
    cutoff = compute_cutoff(space)
    dens = TransversalDensity.uniform(space)
    fam = dolbeault_family(space.base, 2, levels=2)
    idem = index_idempotent(fam)
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(6000 + seed)
        factors = [
            [random_band_limited(rng, space.base.fiber(0), 2, real=False)]
            for _ in range(2)
        ]
        psi = ASCochain.elementary(space.base, factors, germ_radius=2.0)
        worst = max(worst, abs(pair_cocycle(idem, d_as(psi), cutoff, dens)))
    return worst, 1e-8


def _check_chern_closed():
    base = BaseModel([BasePoint("pt", 1.0, FiberModel("torus", 2, 8, 20))])
    disc = DiscModel(6.0, 32, 32)
    p = twist_projector(base.fiber(0), 2)
    ch = chern_character_fiber(base, disc, [p])
    return char_closedness_defect(ch, base), 1e-8


def _check_topindex_cutoff_choice():
    space = _inv_space(n=20, N=8)
    dens = TransversalDensity.uniform(space)
    disc = DiscModel(9.0, 48, 48)
    sclass = symbol_class_dolbeault(space.base, disc, 2)
    npts = space.base.fiber(0).npoints
    alpha = FoliatedForm(0, 2, [np.ones((npts, 1))], invariant=True)
    c1 = compute_cutoff(space)
    rng = np.random.default_rng(11)
    c2 = compute_cutoff(space, [1.0 + 0.4 * rng.random(npts)])
    v1 = topological_index(space, c1, dens, alpha, sclass)
    v2 = topological_index(space, c2, dens, alpha, sclass)
    return abs(v1 - v2), 1e-8


def _check_free_reduction_agreement():
    space = _inv_space(n=20, N=8)
    cutoff = compute_cutoff(space)
    dens = TransversalDensity.uniform(space)
    disc = DiscModel(9.0, 48, 48)
    sclass = symbol_class_dolbeault(space.base, disc, 2)
    npts = space.base.fiber(0).npoints
    alpha = FoliatedForm(0, 2, [np.ones((npts, 1))], invariant=True)
    topo = topological_index(space, cutoff, dens, alpha, sclass)
    red = free_action_reduction(space, cutoff, dens, alpha, sclass)
    return abs(topo - red), 1e-8


INVARIANT_CHECKS = {
    "trace-commutator": _check_trace_commutator,
    "trace-cutoff-independence": _check_trace_cutoff_independence,
    "symbol-trace-formula": _check_symbol_trace_formula,
    "stokes-invariant-integration": _check_stokes,
    "vanest-chain-map": _check_vanest_chain_map,
    "coboundary-pairing": _check_coboundary_pairing,
    "chern-character-closed": _check_chern_closed,
    "topindex-cutoff-choice": _check_topindex_cutoff_choice,
    "free-reduction-agreement": _check_free_reduction_agreement,
}


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
        names = [n for n in BUILTIN_SCENARIOS if only is None or n in only]
        results: list[ResultRecord] = []
        errors: list[str] = []
        for name in names:
            item = _run_one(name, out)
            if isinstance(item, tuple):
                record, message = item
                errors.append(message)
            else:
                record = item
            results.append(record)
        rows = []
        for rec in results:
            if rec.status.startswith("error"):
                exit_code = max(exit_code, 2 if "operator-cache" in rec.status else 1)
            elif rec.status != "pass":
                exit_code = max(exit_code, 1)
            rows.append(rec.csv_row())
            table.append(
                f"{rec.scenario:28s} err {rec.abs_err:.3e}  {rec.status}"
                f"  ({rec.wall_time:.1f}s)"
            )
            sidecar = out / f"{rec.scenario}.scenario.json"
            sidecar.write_text(json.dumps(rec.echo, indent=2, sort_keys=True) + "\n")
        (out / "scenarios.csv").write_text(CSV_HEADER + "\n" + "\n".join(rows) + "\n")
        for message in errors:
            table.append(f"error: {message}")

    (out / "summary.txt").write_text("\n".join(table) + "\n")
    return exit_code
