"""Scenario schema, validation and the builtin catalog.

A scenario is a JSON document describing one complete index computation:
the acting group and base, the torus fiber, the elliptic family, the cocycle
to pair, the transversal density, tolerances, and a seed.  ``load_scenario``
reads one from a file or the builtin catalog and validates it, naming the
offending field in a ``ScenarioError`` before any expensive stage runs.
"""
from __future__ import annotations

import ast
import json
import math
import re
import unicodedata
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .grids import ModelError
from .pairing import GERM_SLACK, TransitionProfile
from .space import whole_multiple

__all__ = [
    "Scenario",
    "ScenarioError",
    "BUILTIN_SCENARIOS",
    "load_scenario",
]


class ScenarioError(ModelError):
    """Raised when a scenario file fails to parse or validate."""


_LIMITS = {"fourier_cutoff": 32, "grid": 128, "base_points": 64}
# 2 x npoints^2 x 16 bytes: a whole S0 and S1, held when g = 1 is the only
# certified block count; no scenario runs the dense elementary k = 1 chain
_KERNEL_BUDGET = 2**30
# cyclic^3 x base_points.  It bounds outside input, though no loop of a run
# grows with their product: the cutoff sums the cyclic translates of one
# field, the kernel and form invariance gates check one element per moving
# translation, and the base adds base_points multiples of the cutoff into
# the one weight field.  At the edge, a dolbeault run on grid 16, twist 2,
# localize 0.5 (cyclic 64 at one point or cyclic 16 at 64 points, trivial
# or half-shift fiber action) takes 0.02 to 0.04 s on 2 Intel Xeon cores
_GROUPOID_BUDGET = 2**18
# a translation entry is an integer, a decimal or a fraction p/q; an exponent
# is refused, since Fraction("1e999999999") builds a billion-digit integer
_FRACTION = re.compile(r"[+-]?\d+(/\d+|\.\d+)?")


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
                        (when free and the base action is trivial, the
                        operator is dolbeault with twist a multiple of m)
        operator        {"builtin": "dolbeault", "twist": int, "levels": int}
                        (levels >= 1, |twist| (levels + 1) <= grid^2)
                      | {"builtin": "multiplier", "symbol": expr-string}
        localize        truncation radius for the index idempotent, or null
        cocycle         {"kind": "unit"}
                      | {"kind": "profile", "legs": [{"axis": int,
                         "linear_radius": f, "support_radius": f}, ..]}
                        (exactly two legs)
        density         {"values": [float, ..]}
                        (the mass of point x is base_weights[x] * values[x])
        tolerances      {"pairing_tol": f}
        seed            uint64 (required; echoed, no cocycle draws from it)

    A field the schema does not name is refused, in every section.  Every
    numerical gate reads a pinned constant, which no field can move.
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
    def free_action(self) -> bool:
        """Whether the fiber translation makes Z/m act freely."""
        return _acts_freely(self.group["group"], self.fiber_action)

    @property
    def masses(self) -> list[float]:
        """The transverse mass of each base point: its base weight times its density value."""
        return [w * v for w, v in zip(self.group["base_weights"], self.density["values"])]

    @property
    def base_permutation(self) -> list[int]:
        """The generator's image of each base point: the identity or the pair swap."""
        bp = self.group["base_points"]
        if self.group["base_action"] == "pair-swap":
            return [x ^ 1 for x in range(bp)]
        return list(range(bp))

    @property
    def pairing_tol(self) -> float:
        return float(self.tolerances["pairing_tol"])


_REQUIRED = object()


def _acts_freely(group, fiber_action) -> bool:
    """Whether Z/m translating the fibers by theta acts freely.

    g theta is an integer vector exactly when g is a multiple of the lcm of
    the reduced denominators of theta, so the action is free exactly when
    that lcm is m.
    """
    if fiber_action == "trivial":
        return False
    denominators = (Fraction(s).denominator for s in fiber_action["translation"])
    return math.lcm(*denominators) == group["cyclic"]


def _need(table: dict, key: str, kind, where: str, default=_REQUIRED):
    """Field ``where.key`` checked as ``kind``, or ``default`` when absent.

    A one-element list ``[kind]`` asks for a list whose entries are ``kind``.
    Integers must fit in 64 bits and floats must be finite: JSON admits
    NaN and Infinity, and every comparison with NaN is false, so a NaN
    tolerance would switch its gate off.
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
    if isinstance(value, int) and not isinstance(value, bool):
        if abs(value) >= 2**64:
            raise ScenarioError(f"field {where}.{key} must fit in 64 bits")
        if kind is float:
            value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ScenarioError(f"field {where}.{key} must be {kind.__name__}")
    if kind is float and not math.isfinite(value):
        raise ScenarioError(f"field {where}.{key} must be finite, got {value}")
    return value


def _known(table: dict, where: str, *keys: str) -> None:
    """Refuse a field the schema does not name: misspelled, it would read as absent."""
    for key in table:
        if key not in keys:
            raise ScenarioError(f"unknown field {where}.{key}")


def _validate(raw: dict) -> Scenario:
    if not isinstance(raw, dict):
        raise ScenarioError("scenario document must be a JSON object")
    _known(
        raw, "scenario", "name", "groupoid", "fiber", "fiber_action", "operator",
        "localize", "cocycle", "density", "tolerances", "seed",
    )
    name = _need(raw, "name", str, "scenario")
    # the name is a CSV cell and the stem of the echo file name
    if name in ("", ".", "..") or any(
        c in ",/\\" or unicodedata.category(c) == "Cc" for c in name
    ):
        raise ScenarioError(
            "field scenario.name must be nonempty, not . or .., and hold no "
            "comma, slash, backslash or control character"
        )

    group = dict(_need(raw, "groupoid", dict, "scenario"))
    _known(group, "groupoid", "group", "base_points", "base_weights", "base_action")
    gk = group.get("group", "trivial")
    order = 1
    if isinstance(gk, dict) and set(gk) == {"cyclic"}:
        order = _need(gk, "cyclic", int, "groupoid.group")
        if order < 2:
            raise ScenarioError("groupoid.group.cyclic must be at least 2")
    elif gk != "trivial":
        raise ScenarioError('groupoid.group must be "trivial" or {"cyclic": m>=2}')
    group["group"] = gk
    bp = _need(group, "base_points", int, "groupoid", 1)
    if not 1 <= bp <= _LIMITS["base_points"]:
        raise ScenarioError(
            f"groupoid.base_points must be in [1, {_LIMITS['base_points']}]"
        )
    if order**3 * bp > _GROUPOID_BUDGET:
        raise ScenarioError(
            f"groupoid.group.cyclic {order} over {bp} base points is too large: "
            f"cyclic^3 * base_points must be at most 2^{math.log2(_GROUPOID_BUDGET):.0f}"
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
    _known(fiber, "fiber", "kind", "dim", "fourier_cutoff", "grid")
    kind = _need(fiber, "kind", str, "fiber", "torus")
    if kind != "torus":
        raise ScenarioError(f'fiber.kind must be "torus", got {kind!r}')
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
    # in log2, so that a huge dim cannot build a huge integer
    log2_bytes = math.log2(2 * 16) + 2 * dim * math.log2(n)
    if log2_bytes > math.log2(_KERNEL_BUDGET):
        raise ScenarioError(
            f"fiber.grid {n} in {dim} dims needs an estimated "
            f"2^{log2_bytes:.1f} bytes of dense kernels, above the "
            f"2^{math.log2(_KERNEL_BUDGET):.0f} byte budget"
        )
    fiber = {"kind": kind, "dim": dim, "fourier_cutoff": N, "grid": n}
    npoints = n**dim

    fa = raw.get("fiber_action", "trivial")
    if fa != "trivial":
        if not (isinstance(fa, dict) and set(fa) == {"translation"}):
            raise ScenarioError(
                'fiber_action must be "trivial" or {"translation": [..]}'
            )
        # parsed as the echo holds them, as strings
        shifts = [str(s) for s in _need(fa, "translation", list, "fiber_action")]
        if len(shifts) != dim:
            raise ScenarioError("fiber_action.translation needs one entry per dim")
        for s in shifts:
            if not _FRACTION.fullmatch(s):
                raise ScenarioError(f"fiber_action.translation: {s!r} is not a fraction p/q")
            try:
                Fraction(s)
            except (ValueError, ZeroDivisionError) as exc:
                raise ScenarioError(f"fiber_action.translation: {exc}") from exc
        if group["group"] == "trivial":
            raise ScenarioError("fiber_action needs a nontrivial group")
        for k, why in ((order, f"Z/{order} acts"), (n, f"it moves the grid of {n} points")):
            if not whole_multiple(k, shifts):
                raise ScenarioError(
                    f"fiber_action.translation times {k} must be an integer vector, "
                    f"so that {why}: got {shifts}"
                )
        fa = {"translation": shifts}

    op = dict(_need(raw, "operator", dict, "scenario"))
    if op.get("builtin") == "dolbeault":
        _known(op, "operator", "builtin", "twist", "levels")
        op = {
            "builtin": "dolbeault",
            "twist": _need(op, "twist", int, "operator"),
            "levels": _need(op, "levels", int, "operator", 2),
        }
    elif op.get("builtin") == "multiplier":
        _known(op, "operator", "builtin", "symbol")
        op = {
            "builtin": "multiplier",
            "symbol": _need(op, "symbol", str, "operator"),
        }
        _symbol_expression(op["symbol"])
    else:
        raise ScenarioError('operator.builtin must be "dolbeault" or "multiplier"')
    if op["builtin"] == "dolbeault":
        if dim != 2:
            raise ScenarioError("fiber.dim must be 2 for the dolbeault operator")
        if op["levels"] < 1:
            raise ScenarioError("operator.levels must be at least 1")
        if abs(op["twist"]) * (op["levels"] + 1) > npoints:
            # the level basis has |twist| (levels + 1) sections, which cannot
            # be orthonormal on fewer grid points
            raise ScenarioError(
                f"operator.twist {op['twist']} with {op['levels']} levels needs "
                f"|twist| * (levels + 1) at most the {npoints} grid points"
            )
    if op["builtin"] == "multiplier" and dim < 2:
        raise ScenarioError(
            "fiber.dim must be at least 2: the multiplier symbol reads xi1 and xi2"
        )
    if action == "trivial" and _acts_freely(gk, fa):
        # the analytic column is the index of the operator on the quotient torus
        if op["builtin"] != "dolbeault":
            raise ScenarioError(
                "operator.builtin must be dolbeault under a free fiber_action: the "
                "quotient analytic route descends the dolbeault family only"
            )
        if op["twist"] % order:
            raise ScenarioError(
                f"operator.twist {op['twist']} does not descend to the quotient by the "
                f"free Z/{order} action: it must be a multiple of {order}"
            )

    localize = raw.get("localize")
    if localize is not None:
        localize = _need(raw, "localize", float, "scenario")
        if not 0 < localize <= math.sqrt(dim) / 2.0:
            raise ScenarioError("localize must be a radius inside the fiber")

    coc = dict(_need(raw, "cocycle", dict, "scenario", {"kind": "unit"}))
    ck = coc.get("kind")
    if ck == "unit":
        _known(coc, "cocycle", "kind")
        coc = {"kind": "unit"}
    elif ck == "profile":
        _known(coc, "cocycle", "kind", "legs")
        legs = _need(coc, "legs", [dict], "cocycle", [])
        norm_legs = []
        for leg in legs:
            _known(leg, "cocycle.legs", "axis", "linear_radius", "support_radius")
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
        # the cut radius is the kernel reach the pairing holds to the germ radius
        germ = min(leg["linear_radius"] for leg in norm_legs)
        if localize is not None and localize > germ + GERM_SLACK:
            raise ScenarioError(
                f"localize {localize:g} exceeds the smallest cocycle.legs linear_radius {germ:g}"
            )
    else:
        raise ScenarioError('cocycle.kind must be "unit" or "profile"')
    if action == "pair-swap":
        # the family route counts the index at each point and integrates the
        # unit class: it builds no idempotent and pairs no cochain
        if coc["kind"] != "unit":
            raise ScenarioError(
                'cocycle.kind must be "unit" under groupoid.base_action pair-swap: '
                "the family route pairs no other cocycle"
            )
        if localize is not None:
            raise ScenarioError(
                "localize must be null under groupoid.base_action pair-swap: "
                "the family route builds no idempotent"
            )

    dens = _need(raw, "density", dict, "scenario", {})
    _known(dens, "density", "values")
    values = _need(dens, "values", [float], "density", [1.0] * bp)
    if len(values) != bp or any(v <= 0 for v in values):
        raise ScenarioError("density.values needs one positive entry per base point")
    dens = {"values": values}

    given = _need(raw, "tolerances", dict, "scenario", {})
    _known(given, "tolerances", "pairing_tol")
    tols = {"pairing_tol": _need(given, "pairing_tol", float, "tolerances", 1e-6)}
    if tols["pairing_tol"] <= 0:
        raise ScenarioError("tolerances.pairing_tol must be positive")

    seed = _need(raw, "seed", int, "scenario")
    if not 0 <= seed < 2**64:
        raise ScenarioError("scenario.seed must fit in 64 bits")

    scn = Scenario(
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
    )
    _check_invariant_masses(scn)
    return scn


def _check_invariant_masses(scn: Scenario) -> None:
    """Every mass is positive and finite, and the base action keeps it.

    The pair-swap route sums the index over one representative per base
    orbit, which counts the whole orbit only when the mass is constant along
    it.
    """
    masses = scn.masses
    for x, mass in enumerate(masses):
        if not 0.0 < mass < math.inf:
            raise ScenarioError(
                f"groupoid.base_weights times density.values gives base point {x} "
                f"the mass {mass}, which is not positive and finite"
            )
    for x, y in enumerate(scn.base_permutation):
        ratio = masses[y] / masses[x]
        if abs(ratio - 1.0) > 1e-12:
            raise ScenarioError(
                "groupoid.base_weights times density.values must be invariant under "
                f"the base action: the pair ({x}, {y}) rescales mass by {ratio:.6g}"
            )


def _leg_profile(leg: dict) -> TransitionProfile:
    try:
        return TransitionProfile(
            linear_radius=leg["linear_radius"], support_radius=leg["support_radius"]
        )
    except ModelError as exc:
        raise ScenarioError(f"cocycle.legs: {exc}") from exc



_SYMBOL_NAMES = {"pi": math.pi}
_SYMBOL_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "sqrt": np.sqrt}


def _symbol_expression(expr: str):
    """Compile a frequency-symbol expression over xi1, xi2.

    Only arithmetic, the constant pi, and sin/cos/exp/sqrt are allowed; the
    check walks the syntax tree so a scenario file cannot smuggle code in.
    Integer constants become floats, so a power overflows at once instead of
    building a huge integer (9**9**9 has 370 million digits).
    """
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ScenarioError(f"operator.symbol: {exc.msg}") from exc
    except RecursionError:
        raise ScenarioError("operator.symbol: nested too deeply") from None
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
    try:
        code = compile(tree, "<operator.symbol>", "eval")
    except RecursionError:
        raise ScenarioError("operator.symbol: nested too deeply") from None

    def fn(x1, x2):
        scope = {"xi1": x1, "xi2": x2, **_SYMBOL_NAMES, **_SYMBOL_FUNCS}
        try:
            value = eval(code, {"__builtins__": {}}, scope)
        except ArithmeticError as exc:
            raise ScenarioError(f"operator.symbol: evaluation failed ({exc})") from exc
        # a constant evaluates to one number: give it one value per argument point
        return np.broadcast_to(value, np.broadcast(x1, x2).shape).copy()

    return fn


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
        return _validate(BUILTIN_SCENARIOS[source]["doc"])
    path = Path(source)
    if not path.is_file():
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
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path.name}: not UTF-8 text ({exc.reason})") from exc
    return _validate(raw)
