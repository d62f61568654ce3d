import contextlib
import copy
import io
import json
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import indexpairing.harness as harness
from indexpairing import dolbeault, grids, parametrix, topindex
from indexpairing.cli import main
from indexpairing.cochains import ASCochain
from indexpairing.grids import FiberModel, ModelError
from indexpairing.harness import (
    CSV_HEADER,
    INVARIANT_CSV_HEADER,
    StageError,
    _idempotent_cache,
    _run_one,
    load_coefficients,
    run_scenario,
    run_suite,
    save_coefficients,
)
from indexpairing.density import compute_cutoff
from indexpairing.dolbeault import dolbeault_family
from indexpairing.operators import OperatorBlock, SmoothingKernel
from indexpairing.pairing import pair_cocycle
from indexpairing.parametrix import (
    CorruptedCacheError,
    IndexIdempotent,
    ProjectorFrame,
    analytic_index,
    index_idempotent,
)
from indexpairing.scenario import (
    BUILTIN_SCENARIOS,
    ScenarioError,
    _symbol_expression,
    _validate,
    load_scenario,
)
import bytes_manifest
from oracles import (
    cutoff_per_arrow,
    dense_kernel,
    is_monomial,
    mass_weighted_sum,
    orbit_sum_per_point,
    same_bits,
    stored_row,
)


def cheap_scenario(**overrides):
    raw = {
        "name": "cheap-dolbeault",
        "groupoid": {"group": "trivial", "base_points": 1},
        "fiber": {"kind": "torus", "dim": 2, "fourier_cutoff": 4, "grid": 12},
        "operator": {"builtin": "dolbeault", "twist": 1, "levels": 2},
        "cocycle": {"kind": "unit"},
        "tolerances": {"pairing_tol": 1e-4},
        "seed": 7,
    }
    raw.update(overrides)
    return raw


# ---------------------------------------------------------------------------
# schema and loading


def test_builtin_catalog_loads_and_echo_reloads():
    assert len(BUILTIN_SCENARIOS) == 9
    for name in BUILTIN_SCENARIOS:
        scn = load_scenario(name)
        assert scn.name == name
        # every gate threshold is pinned: the pairing tolerance is the one field
        assert scn.echo()["tolerances"] == {"pairing_tol": 1e-06}
        again = _validate(scn.echo())
        assert again == scn


def test_scenario_defaults_filled():
    scn = load_scenario("S1-dolbeault-d1")
    assert scn.tolerances == {"pairing_tol": 1e-6}
    assert scn.pairing_tol == 1e-6
    assert scn.density == {"values": [1.0]}
    assert scn.fiber_action == "trivial"
    assert scn.localize is None
    assert scn.group["base_weights"] == [1.0]
    assert scn.group["base_action"] == "trivial"


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda raw: raw.pop("seed"), "scenario.seed"),
        (lambda raw: raw.update(seed=2**64), "64 bits"),
        (lambda raw: raw.update(name="a,b"), "name"),
        # a name is the stem of the echo file name: it may not
        # leave the output directory nor reach the file system as a bad path
        (lambda raw: raw.update(name="../escaped"), "scenario.name"),
        (lambda raw: raw.update(name="a/b"), "scenario.name"),
        (lambda raw: raw.update(name="a\\b"), "scenario.name"),
        (lambda raw: raw.update(name="."), "scenario.name"),
        (lambda raw: raw.update(name=".."), "scenario.name"),
        (lambda raw: raw.update(name="nul\u0000byte"), "scenario.name"),
        (lambda raw: raw.update(name="tab\there"), "scenario.name"),
        (lambda raw: raw.update(name="del\x7f"), "scenario.name"),
        (lambda raw: raw.update(name=""), "scenario.name"),
        (lambda raw: raw["fiber"].update(grid=9), "2*fourier_cutoff"),
        (lambda raw: raw["fiber"].update(grid=130), "at most 128"),
        (lambda raw: raw["fiber"].update(fourier_cutoff=0), "fourier_cutoff"),
        (lambda raw: raw["fiber"].update(fourier_cutoff=40), "fourier_cutoff"),
        (lambda raw: raw["fiber"].pop("dim"), "fiber.dim"),
        (lambda raw: raw["groupoid"].update(group="free"), "groupoid.group"),
        (lambda raw: raw["groupoid"].update(base_weights=[1.0, 2.0]), "base_weights"),
        (
            lambda raw: raw["groupoid"].update(base_action="pair-swap"),
            "pair-swap",
        ),
        (
            lambda raw: raw.update(fiber_action={"translation": ["1/2", "1/2"]}),
            "nontrivial group",
        ),
        # the pair-swap family route integrates the unit class and builds no
        # idempotent, so it can neither pair another cocycle nor localize
        (
            lambda raw: raw.update(
                groupoid={"group": {"cyclic": 2}, "base_points": 2, "base_action": "pair-swap"},
                cocycle={
                    "kind": "profile",
                    "legs": [
                        {"axis": 0, "linear_radius": 0.45},
                        {"axis": 1, "linear_radius": 0.45},
                    ],
                },
            ),
            'cocycle.kind must be "unit" under groupoid.base_action pair-swap',
        ),
        (
            lambda raw: raw.update(
                groupoid={"group": {"cyclic": 2}, "base_points": 2, "base_action": "pair-swap"},
                localize=0.3,
            ),
            "localize must be null under groupoid.base_action pair-swap",
        ),
        (lambda raw: raw.update(operator={"builtin": "wave"}), "operator.builtin"),
        (
            lambda raw: raw.update(operator={"builtin": "dolbeault"}),
            "operator.twist",
        ),
        (lambda raw: raw.update(localize=-0.1), "localize"),
        (lambda raw: raw.update(localize=2.0), "localize"),
        (lambda raw: raw.update(cocycle={"kind": "spiral"}), "cocycle.kind"),
        (
            lambda raw: raw.update(
                cocycle={"kind": "elementary", "degree": 2, "band": 1}
            ),
            'cocycle.kind must be "unit" or "profile"',
        ),
        # a constant cocycle of the removed kind used to load; it is the unit
        (
            lambda raw: raw.update(
                cocycle={"kind": "elementary", "degree": 0, "band": 0}
            ),
            'cocycle.kind must be "unit" or "profile"',
        ),
        (lambda raw: raw.update(cocycle={"kind": "profile"}), "cocycle.legs"),
        (lambda raw: raw.update(density={"values": [1.0, 1.0]}), "density.values"),
        (lambda raw: raw.update(density={"values": [-1.0]}), "density.values"),
        (lambda raw: raw.update(tolerances={"other_tol": 1.0}), "tolerances.other_tol"),
        (
            lambda raw: raw.update(tolerances={"pairing_tol": 0.0}),
            "tolerances.pairing_tol",
        ),
        (lambda raw: raw["groupoid"].update(base_points="x"), "groupoid.base_points"),
        (lambda raw: raw.update(seed="abc"), "scenario.seed must be int"),
        (
            lambda raw: raw["groupoid"].update(group={"cyclic": "x"}),
            "groupoid.group.cyclic",
        ),
        (
            lambda raw: raw["operator"].update(levels="x"),
            "operator.levels",
        ),
        (lambda raw: raw.update(localize="x"), "scenario.localize"),
        (
            lambda raw: raw.update(tolerances={"pairing_tol": "x"}),
            "tolerances.pairing_tol must be float",
        ),
        (
            lambda raw: raw.update(
                cocycle={
                    "kind": "profile",
                    "legs": [{"axis": 0, "linear_radius": 0.2, "support_radius": "x"}],
                }
            ),
            "cocycle.legs.support_radius",
        ),
        (
            lambda raw: raw["groupoid"].update(base_weights=["q"]),
            "groupoid.base_weights must be",
        ),
        (lambda raw: raw.update(density={"values": ["q"]}), "density.values must be"),
        (lambda raw: raw.update(cocycle=[1]), "scenario.cocycle"),
        (
            lambda raw: raw.update(
                groupoid={"group": {"cyclic": 2}}, fiber_action={"translation": 5}
            ),
            "fiber_action.translation must be",
        ),
        (
            lambda raw: raw.update(
                cocycle={
                    "kind": "profile",
                    "legs": [
                        {"axis": 0, "linear_radius": 0.6},
                        {"axis": 1, "linear_radius": 0.45},
                    ],
                }
            ),
            "cocycle.legs: profile needs",
        ),
        (
            lambda raw: raw.update(
                cocycle={
                    "kind": "profile",
                    "legs": [{"axis": 2, "linear_radius": 0.45}],
                }
            ),
            "cocycle.legs: axis 2",
        ),
        (lambda raw: raw["fiber"].update(dim=-1), "fiber.dim must be positive"),
        (lambda raw: raw["fiber"].update(kind="sphere"), 'fiber.kind must be "torus"'),
        (
            lambda raw: raw.update(
                cocycle={"kind": "profile", "legs": [{"axis": 0, "linear_radius": 0.45}]}
            ),
            "cocycle.legs must list exactly two",
        ),
        (
            lambda raw: raw.update(
                cocycle={
                    "kind": "profile",
                    "legs": [{"axis": k % 2, "linear_radius": 0.45} for k in range(4)],
                }
            ),
            "cocycle.legs must list exactly two",
        ),
        (lambda raw: raw["fiber"].update(dim=3, grid=10), "fiber.dim must be 2"),
        (lambda raw: raw["fiber"].update(grid=128), "fiber.grid 128 in 2 dims"),
        (
            lambda raw: raw["fiber"].update(grid=96),
            "fiber.grid 96 in 2 dims needs an estimated 2.31.3 bytes",
        ),
        (
            lambda raw: raw.update(
                operator={"builtin": "multiplier", "symbol": "xi3 + 1"}
            ),
            "operator.symbol: unknown name 'xi3'",
        ),
        (
            lambda raw: raw.update(
                operator={"builtin": "multiplier", "symbol": "__import__('os')"}
            ),
            "operator.symbol: only sin",
        ),
        (
            lambda raw: raw.update(
                fiber={"kind": "torus", "dim": 1, "fourier_cutoff": 4, "grid": 12},
                operator={"builtin": "multiplier", "symbol": "1 + (xi1*xi1 + xi2*xi2) / 81"},
            ),
            "fiber.dim must be at least 2",
        ),
        # the invariance gate reads a pinned constant, which no file can loosen
        (
            lambda raw: raw.update(tolerances={"invariant_tol": 1.0}),
            "unknown field tolerances.invariant_tol",
        ),
        # JSON admits NaN and Infinity; a NaN tolerance would pass its gate
        (
            lambda raw: raw.update(tolerances={"pairing_tol": float("inf")}),
            "tolerances.pairing_tol must be finite",
        ),
        # a misspelled field would otherwise run with its default, in every section
        (lambda raw: raw.update(localise=0.3), "unknown field scenario.localise"),
        (
            lambda raw: raw.update(tolerance={"pairing_tol": 1.0}),
            "unknown field scenario.tolerance",
        ),
        (lambda raw: raw["groupoid"].update(base_point=2), "unknown field groupoid.base_point"),
        (lambda raw: raw["fiber"].update(grids=16), "unknown field fiber.grids"),
        (lambda raw: raw["operator"].update(level=5), "unknown field operator.level"),
        (
            lambda raw: raw.update(
                operator={"builtin": "multiplier", "symbol": "xi1 + 1j * xi2", "twist": 1}
            ),
            "unknown field operator.twist",
        ),
        (
            lambda raw: raw.update(cocycle={"kind": "unit", "legs": []}),
            "unknown field cocycle.legs",
        ),
        (
            lambda raw: raw.update(
                cocycle={
                    "kind": "profile",
                    "legs": [
                        {"axis": 0, "linear_radius": 0.45},
                        {"axis": 1, "linear_radius": 0.45},
                    ],
                    "germ_radius": 0.45,
                }
            ),
            "unknown field cocycle.germ_radius",
        ),
        (
            lambda raw: raw.update(
                cocycle={
                    "kind": "profile",
                    "legs": [
                        {"axis": 0, "linear_radius": 0.45},
                        {"axis": 1, "linear_radus": 0.3},
                    ],
                }
            ),
            "unknown field cocycle.legs.linear_radus",
        ),
        (lambda raw: raw.update(density={"value": [2.0]}), "unknown field density.value"),
        (
            lambda raw: raw["groupoid"].update(base_weights=[float("nan")]),
            "groupoid.base_weights must be finite",
        ),
        (
            lambda raw: raw.update(density={"values": [float("inf")]}),
            "density.values must be finite",
        ),
        (lambda raw: raw.update(localize=float("nan")), "localize"),
        (lambda raw: raw["fiber"].update(grid=2**70), "fiber.grid must fit in 64 bits"),
        (lambda raw: raw.update(localize=10**400), "scenario.localize must fit in 64 bits"),
        (
            lambda raw: raw.update(
                groupoid={"group": {"cyclic": 2}}, fiber_action={"translation": ["1/2", 1e999]}
            ),
            "fiber_action.translation: 'inf' is not a fraction",
        ),
        (
            lambda raw: raw.update(
                groupoid={"group": {"cyclic": 2}},
                fiber_action={"translation": ["1/2", "1e999999999"]},
            ),
            "fiber_action.translation: '1e999999999' is not a fraction",
        ),
        (
            lambda raw: raw.update(
                groupoid={"group": {"cyclic": 2}}, fiber_action={"translation": ["1/2", True]}
            ),
            "fiber_action.translation: 'True' is not a fraction",
        ),
        (
            lambda raw: raw.update(
                groupoid={"group": {"cyclic": 2}}, fiber_action={"translation": ["1/3", "0"]}
            ),
            "fiber_action.translation times 2 must be an integer vector, so that Z/2 acts",
        ),
        (
            lambda raw: raw.update(
                groupoid={"group": {"cyclic": 3}},
                fiber={"kind": "torus", "dim": 2, "fourier_cutoff": 4, "grid": 20},
                fiber_action={"translation": ["1/3", "0"]},
            ),
            "fiber_action.translation times 20 must be an integer vector, so that it moves the grid",
        ),
        # load budgets: each of these used to fail in a later stage, or take long
        (
            lambda raw: raw.update(groupoid={"group": {"cyclic": 64}, "base_points": 16}),
            "cyclic.3 * base_points must be at most 2.18",
        ),
        (
            lambda raw: raw.update(groupoid={"group": {"cyclic": 200}}),
            "groupoid.group.cyclic 200 over 1 base points is too large",
        ),
        (lambda raw: raw["operator"].update(levels=0), "operator.levels must be at least 1"),
        (
            lambda raw: raw["operator"].update(twist=-50),
            "operator.twist -50 with 2 levels needs",
        ),
        # each of these used to fail only at stage analytic-index, or at
        # stage topological after the idempotent and the pairing had run
        (
            lambda raw: raw.update(
                groupoid={"group": {"cyclic": 2}},
                fiber_action={"translation": ["1/2", "0"]},
                operator={"builtin": "multiplier", "symbol": "xi1 + 1j * xi2"},
            ),
            "operator.builtin must be dolbeault under a free fiber_action",
        ),
        # used to fail at stage pairing, once the idempotent was built
        (
            lambda raw: raw.update(
                localize=0.6,
                cocycle={
                    "kind": "profile",
                    "legs": [
                        {"axis": 0, "linear_radius": 0.45},
                        {"axis": 1, "linear_radius": 0.3, "support_radius": 0.4},
                    ],
                },
            ),
            "localize 0.6 exceeds the smallest cocycle.legs linear_radius 0.3",
        ),
        (
            lambda raw: raw.update(
                groupoid={"group": {"cyclic": 2}},
                fiber_action={"translation": ["1/2", "0"]},
                operator={"builtin": "dolbeault", "twist": 3, "levels": 2},
            ),
            "operator.twist 3 does not descend to the quotient by the free Z/2 action",
        ),
    ],
)
def test_scenario_validation_names_offending_field(mutate, fragment):
    raw = cheap_scenario()
    mutate(raw)
    with pytest.raises(ScenarioError, match=fragment.replace("*", "\\*")):
        _validate(raw)


def test_quotient_refusals_hold_for_a_free_translation_only():
    # a translation with a trivially acting subgroup, or a pair-swapped base,
    # takes a per-point route, whatever the operator and the flux
    multiplier = {"builtin": "multiplier", "symbol": "xi1 + 1j * xi2 + 0.5"}
    paired = {"group": {"cyclic": 2}, "base_points": 2, "base_action": "pair-swap"}
    for group, op, free in (
        ({"group": {"cyclic": 4}}, multiplier, False),
        ({"group": {"cyclic": 4}}, {"builtin": "dolbeault", "twist": 3}, False),
        (paired, multiplier, True),
    ):
        raw = cheap_scenario(
            groupoid=group, fiber_action={"translation": ["1/2", "0"]}, operator=op
        )
        assert _validate(raw).free_action is free


def test_kernel_budget_does_not_count_base_points():
    # S0 and S1 are held once, so S4 over seven points costs what it costs
    # over one
    raw = copy.deepcopy(BUILTIN_SCENARIOS["S4-sawtooth-flux32"]["doc"])
    raw["groupoid"] = {"group": "trivial", "base_points": 7}
    assert _validate(raw).group["base_points"] == 7


def test_scenario_rejects_non_object_document():
    with pytest.raises(ScenarioError, match="JSON object"):
        _validate([1, 2, 3])


def test_translation_fractions_validated():
    raw = cheap_scenario(
        groupoid={"group": {"cyclic": 2}, "base_points": 1},
        fiber_action={"translation": ["1/2", "nope"]},
    )
    with pytest.raises(ScenarioError, match="fiber_action.translation"):
        _validate(raw)
    raw["fiber_action"] = {"translation": ["1/2"]}
    with pytest.raises(ScenarioError, match="one entry per dim"):
        _validate(raw)


def test_load_scenario_parse_error_reports_location(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text('{"name": }')
    with pytest.raises(ScenarioError, match="line 1, column"):
        load_scenario(bad)
    with pytest.raises(ScenarioError, match="neither a builtin"):
        load_scenario("no-such-scenario")


def test_load_scenario_file_matches_builtin(tmp_path):
    doc = load_scenario("S3-multiplier-invertible").echo()
    path = tmp_path / "s3.json"
    path.write_text(json.dumps(doc))
    assert load_scenario(path) == load_scenario("S3-multiplier-invertible")


# ---------------------------------------------------------------------------
# coefficient file format


def test_coefficients_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    arrays = [
        np.array([0.45]),
        (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))),
        rng.standard_normal((3, 2, 4)),
    ]
    path = tmp_path / "k.opk"
    save_coefficients(path, arrays)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["k.opk"]
    with np.load(path, allow_pickle=False) as npz:
        assert npz.files == ["arr_0", "arr_1", "arr_2"]
    back = load_coefficients(path)
    assert len(back) == 3
    for a, b in zip(arrays, back):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


def test_coefficients_reject_unsupported_dtype(tmp_path):
    # the archive keeps any dtype; the idempotent refuses a non-complex frame
    fiber = FiberModel(2, 3, 12)
    npts = fiber.npoints
    path = tmp_path / "k.opk"
    frames = [np.ones((npts, 1), dtype=np.int32), np.ones((npts, 1), dtype=complex)]
    counts = np.array([1])
    save_coefficients(path, [np.array([np.inf]), frames[0], counts, frames[1], counts])
    data = analytic_index(dolbeault_family(fiber, 0, levels=2))
    with pytest.raises(CorruptedCacheError, match="frame dtype int32"):
        IndexIdempotent.from_arrays(fiber, load_coefficients(path), data, None)


def test_corrupted_coefficients_detected(tmp_path):
    path = tmp_path / "k.opk"
    payload = np.arange(64.0) + 1j
    save_coefficients(path, [np.eye(3), payload])
    good = path.read_bytes()
    flipped = bytearray(good)
    flipped[good.index(payload.tobytes()) + 100] ^= 0x01
    bare = io.BytesIO()
    np.save(bare, np.eye(3))
    gappy = io.BytesIO()
    np.savez(gappy, arr_0=np.eye(3), arr_2=payload)

    cases = [
        (good[: len(good) // 2], "not a zip file"),
        (b"XXXX" + good[4:], "unreadable archive"),
        (bare.getvalue(), "not an .npz archive"),
        (b"", "unreadable archive"),
        (bytes(flipped), "Bad CRC-32"),
        (gappy.getvalue(), "arr_1 is not a file"),
    ]
    for data, fragment in cases:
        path.write_bytes(data)
        with pytest.raises(CorruptedCacheError, match=fragment):
            load_coefficients(path)


# ---------------------------------------------------------------------------
# symbol expressions


def test_symbol_expression_evaluates_arrays():
    fn = _symbol_expression("1 + (xi1*xi1 + xi2*xi2) / 81")
    x = np.array([0.0, 3.0])
    y = np.array([0.0, -3.0])
    assert np.allclose(fn(x, y), [1.0, 1.0 + 18.0 / 81.0])
    trig = _symbol_expression("sin(pi * xi1) + exp(-xi2)")
    assert abs(trig(1.0, 0.0) - (np.sin(np.pi) + 1.0)) <= 1e-15


@pytest.mark.parametrize(
    "expr",
    [
        "__import__('os')",
        "xi3 + 1",
        "(1).__class__",
        "xi1 if xi2 else 0",
        "lambda: 1",
        "abs(xi1)",
        "xi1 @ xi2",
        "'a' * xi1",
        "True + xi1",
        "1" + "0" * 400,
    ],
)
def test_symbol_expression_rejects_disallowed(expr):
    with pytest.raises(ScenarioError, match="operator.symbol"):
        _symbol_expression(expr)


def test_symbol_expression_powers_stay_bounded():
    # integer constants become floats: 2**10 is the float 1024.0
    assert _symbol_expression("2**10")(0.0, 0.0) == 1024.0


@pytest.mark.parametrize(
    "symbol, fragment",
    [
        # 9**9**9 overflows at once instead of building a 370-million-digit int
        ("9**9**9", "operator.symbol"),
        # NaN on every retained mode, which fails every ellipticity comparison
        ("sqrt(xi1 - 100)", "not finite on the lattice at: mode ("),
    ],
)
def test_an_unusable_symbol_is_refused_at_assembly(symbol, fragment, tmp_path, capsys):
    path = tmp_path / "symbol.json"
    doc = cheap_scenario(name="bad-symbol", operator={"builtin": "multiplier", "symbol": symbol})
    path.write_text(json.dumps(doc))
    # the refusal is the only report: evaluating the symbol warns of nothing
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert "stage assemble-operator" in err and fragment in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# scenario execution


def test_run_scenario_cheap_dolbeault(tmp_path):
    scn = _validate(cheap_scenario())
    rec = run_scenario(scn)
    assert rec.analytic == (1,)
    assert abs(rec.pairing - 1.0) <= 1e-9
    assert abs(rec.topological - 1.0) <= 1e-4
    assert rec.status == "pass"
    row = rec.csv_row()
    parts = row.split(",")
    assert len(parts) == 6
    assert parts[0] == "cheap-dolbeault"
    assert parts[1] == "1"
    assert parts[2].endswith("j")
    assert parts[4] == f"{rec.abs_err:.6e}"
    assert parts[5] == "pass"


@pytest.mark.parametrize("kind", ["unit", "profile"])
def test_seed_changes_no_row(kind):
    # no stage draws from the seed: it is echoed only, for a unit and for a
    # profile cocycle
    profile = cheap_scenario(
        operator={"builtin": "dolbeault", "twist": 4, "levels": 2},
        localize=0.45,
        cocycle={
            "kind": "profile",
            "legs": [{"axis": axis, "linear_radius": 0.45} for axis in (0, 1)],
        },
    )
    scn = _validate({"unit": cheap_scenario(), "profile": profile}[kind])
    rows = {run_scenario(replace(scn, seed=seed)).csv_row() for seed in (7, 2**64 - 1)}
    assert len(rows) == 1


def test_run_scenario_multiplier_zero_class():
    rec = run_scenario(load_scenario("S3-multiplier-invertible"))
    assert rec.analytic == (0,)
    assert abs(rec.pairing) <= 1e-9
    assert abs(rec.topological) <= 1e-6
    assert rec.status == "pass"


def test_a_constant_multiplier_symbol_runs_with_index_zero():
    # the one number a constant symbol evaluates to is spread to one value
    # per mode and per disc node, so it runs as its xi-dependent spelling
    fn = _symbol_expression("2")
    assert fn(np.zeros(5), np.zeros(5)).tolist() == [2.0] * 5
    rows = []
    for symbol in ("2", "2 + 0*xi1"):
        raw = cheap_scenario(name="constant", operator={"builtin": "multiplier", "symbol": symbol})
        rec = run_scenario(_validate(raw))
        assert (rec.analytic, rec.status) == ((0,), "pass")
        rows.append(rec.csv_row())
    assert rows[0] == rows[1]


def test_analytic_column_routes_on_freeness():
    # Z/4 by a quarter shift is free: the quotient is a torus of area 1/4
    # with flux 4/4 = 1.  Z/4 by a half shift is not (2 acts trivially), so
    # the column holds the per-point index 4.  Both pair to the orbifold
    # index 1, as before.
    rows = []
    for name, shift in (("quarter", ["1/4", "0"]), ("half", ["1/2", "0"])):
        raw = cheap_scenario(
            name=name,
            groupoid={"group": {"cyclic": 4}, "base_points": 1},
            fiber={"kind": "torus", "dim": 2, "fourier_cutoff": 8, "grid": 20},
            fiber_action={"translation": shift},
            operator={"builtin": "dolbeault", "twist": 4, "levels": 2},
        )
        rows.append(run_scenario(_validate(raw)).csv_row())
    tail = (
        "1.000000000000e+00+0.000000000000e+00j,"
        "9.999999998560e-01-3.836359783256e-17j,1.440459e-10,pass"
    )
    assert rows == [f"quarter,1,{tail}", f"half,4,{tail}"]
    # a multiplier under the non-free action runs the per-point route
    raw = cheap_scenario(
        name="half-multiplier",
        groupoid={"group": {"cyclic": 4}, "base_points": 1},
        fiber_action={"translation": ["1/2", "0"]},
        operator={"builtin": "multiplier", "symbol": "xi1 + 1j * xi2 + 0.5"},
    )
    rec = run_scenario(_validate(raw))
    assert (rec.analytic, rec.pairing, rec.status) == ((0,), 0j, "pass")


@pytest.mark.parametrize(
    "group, grid, cutoff, twist, levels, row",
    [
        (
            {"group": {"cyclic": 2}, "base_action": "pair-swap"},
            18, 3, 3, 4,
            "weighted,3;3,6.000000000000e+00+0.000000000000e+00j,"
            "5.999999999892e+00-6.469725650713e-17j,1.084484e-10,pass",
        ),
        (
            {"group": "trivial"},
            20, 8, 1, 2,
            "weighted,1;1,4.000000000000e+00+0.000000000000e+00j,"
            "3.999999999670e+00-1.534543913397e-16j,3.296732e-10,pass",
        ),
    ],
    # named by group, so that a pinned row moved by rounding renames no test
    ids=["cyclic2-pair-swap", "trivial"],
)
def test_mass_is_base_weight_times_density_value(group, grid, cutoff, twist, levels, row):
    # base weights [2, 1] times density values [1, 2]: mass 2 at both points,
    # so the pair-swapped family passes the unimodularity gate and its one
    # orbit counts 2 * 3, and the two unit traces add to 2 * 1 + 2 * 1.  The
    # rows are those the weights and values gave as two separate factors.
    raw = cheap_scenario(
        name="weighted",
        groupoid={**group, "base_points": 2, "base_weights": [2, 1]},
        fiber={"kind": "torus", "dim": 2, "fourier_cutoff": cutoff, "grid": grid},
        operator={"builtin": "dolbeault", "twist": twist, "levels": levels},
        density={"values": [1, 2]},
    )
    assert run_scenario(_validate(raw)).csv_row() == row


def test_base_weight_enters_modular_ratio():
    # base weights [2, 1] over unit density values rescale the mass across
    # the swapped pair by 1/2, which load refuses before any stage runs
    raw = cheap_scenario(
        groupoid={
            "group": {"cyclic": 2},
            "base_points": 2,
            "base_weights": [2, 1],
            "base_action": "pair-swap",
        },
    )
    want = (
        r"groupoid\.base_weights times density\.values .* "
        r"the pair \(0, 1\) rescales mass by 0\.5$"
    )
    with pytest.raises(ScenarioError, match=want):
        _validate(raw)
    # the density values can make up for the weights
    raw["density"] = {"values": [1, 2]}
    assert _validate(raw).masses == [2.0, 2.0]


def test_lopsided_pair_swap_run_exits_before_any_stage(tmp_path):
    # the mass gate is part of load: the run writes no output directory
    raw = cheap_scenario(
        groupoid={
            "group": {"cyclic": 2},
            "base_points": 4,
            "base_action": "pair-swap",
        },
        density={"values": [1, 1, 1, 3]},
    )
    path = tmp_path / "lopsided.json"
    path.write_text(json.dumps(raw))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "the pair (2, 3) rescales mass by 3" in err.getvalue()
    assert not (tmp_path / "out").exists()


# (scenario, the base permutation the oracle walks, the masses it weighs by)
PER_POINT_CASES = {
    "S5": (load_scenario("S5-orbifold-family"), [1, 0, 3, 2], [0.5] * 4),
    "three-point": (
        _validate(
            cheap_scenario(
                groupoid={
                    "group": {"cyclic": 3},
                    "base_points": 3,
                    "base_weights": [0.5, 1.0, 2.0],
                }
            )
        ),
        [0, 1, 2],
        [0.5, 1.0, 2.0],
    ),
    # masses whose sums round: a reordered sum, or the total mass times the
    # cutoff, changes the bits of the weight field
    "three-point-rounding": (
        _validate(
            cheap_scenario(
                groupoid={
                    "group": {"cyclic": 3},
                    "base_points": 3,
                    "base_weights": [0.1, 0.7, 0.4],
                }
            )
        ),
        [0, 1, 2],
        [0.1, 0.7, 0.4],
    ),
    "pair-swap-half-shift": (
        _validate(
            cheap_scenario(
                groupoid={
                    "group": {"cyclic": 2},
                    "base_points": 2,
                    "base_weights": [2.0, 1.0],
                    "base_action": "pair-swap",
                },
                fiber_action={"translation": ["1/2", "1/2"]},
                density={"values": [1.0, 2.0]},
            )
        ),
        [1, 0],
        [2.0, 2.0],
    ),
}


@pytest.mark.parametrize("case", sorted(PER_POINT_CASES))
def test_base_sums_match_the_per_point_oracle_bit_for_bit(case):
    # the oracle holds one cutoff field per base point, normalized over the
    # arrows that leave it, and sums over points and base orbits; the
    # harness holds one cutoff field and one weight field
    scn, sigma, masses = PER_POINT_CASES[case]
    space = harness._build_space(scn)
    points = scn.group["base_points"]
    seeds = [np.ones(space.fiber.npoints)] * points
    weight = harness._weight_field(scn.masses, compute_cutoff(space))
    want = mass_weighted_sum(masses, cutoff_per_arrow(space, sigma, seeds))
    assert weight.dtype == want.dtype and same_bits(weight, want)

    block, _ = harness._build_operator(scn, space.fiber)
    per_point = [analytic_index(block).index] * points
    rec = run_scenario(scn)
    assert rec.status == "pass"
    assert rec.analytic == tuple(per_point)
    orbit_sum = orbit_sum_per_point(space.order, sigma, masses, per_point)
    got = harness._orbit_sum(scn.base_permutation, scn.masses, per_point[0])
    assert same_bits(got, orbit_sum)
    if scn.group["base_action"] == "pair-swap":
        assert same_bits(rec.pairing, complex(orbit_sum))


# the block counts g of the stored rows of S0 and S1 (0 for a zero
# projector), each the largest the certificate accepts: gcd(twist, grid)
# for the twisted Dolbeault projectors, cut or not, and every tick for the
# exactly invariant twist-0 projectors onto the constants
STORED_BLOCK_COUNTS = {
    "S1-dolbeault-dm2": (0, 2),
    "S1-dolbeault-dm1": (0, 1),
    "S1-dolbeault-d0": (20, 20),
    "S1-dolbeault-d1": (1, 0),
    "S1-dolbeault-d2": (2, 0),
    "S2-free-halfshift-d2": (2, 0),
    "S3-multiplier-invertible": (0, 0),
    "S4-sawtooth-flux32": (16, 0),
    "S5-orbifold-family": (3, 0),
    "flux24": (8, 0),
}


def test_each_scenario_stores_its_certified_block_counts():
    flux24 = Path(__file__).parents[1] / "perfbench" / "scenarios" / "flux24-unit.json"
    for name, counts in STORED_BLOCK_COUNTS.items():
        scn = load_scenario(str(flux24) if name == "flux24" else name)
        fiber = harness._build_space(scn).fiber
        block, _ = harness._build_operator(scn, fiber)
        idem = index_idempotent(block, radius=scn.localize)
        assert tuple(0 if f.row is None else f.order for f in idem.families) == counts, name
        if name == "flux24":
            assert idem.skernel.row.shape == (200, 1600)


def test_localize_at_the_germ_radius_loads():
    legs = [{"axis": axis, "linear_radius": 0.45} for axis in (0, 1)]
    raw = cheap_scenario(localize=0.45, cocycle={"kind": "profile", "legs": legs})
    assert _validate(raw).localize == 0.45


@pytest.mark.parametrize(
    "name", [*BUILTIN_SCENARIOS, *bytes_manifest.PERFBENCH_SCENARIOS], ids=lambda name: Path(name).stem
)
def test_no_shipped_run_factors_its_operator(name, tmp_path, monkeypatch):
    # every shipped operator block is monomial, so its singular data is read
    # off its entries, cold (with the idempotent to build) or warm
    def refused(*args, **kwargs):
        raise AssertionError("a shipped operator block was factorized")

    monkeypatch.setattr(np.linalg, "svd", refused)
    monkeypatch.setattr(np.linalg, "eigh", refused)
    scn = load_scenario(name)
    cold = run_scenario(scn, out_dir=tmp_path)
    warm = run_scenario(scn, out_dir=tmp_path)
    assert warm.csv_row() == cold.csv_row()


@pytest.mark.parametrize("name", ["twist-2", "S2-free-halfshift-d2"])
@pytest.mark.parametrize("defect", ["mixed", "nan"])
def test_a_block_the_parametrix_cannot_read_fails_at_the_analytic_stage_cold_or_warm(
    name, defect, tmp_path, monkeypatch
):
    # a seeded unitary on the codomain of a twist-2 operator keeps its
    # singular values and its kernel but fills every row, and a NaN ladder
    # entry has no modulus to sort: the parametrix refuses either block,
    # cold and warm with the cache the unchanged operator wrote, before any
    # idempotent is built.  A free action takes its analytic column from the
    # quotient, and its run reads the block all the same
    if name == "twist-2":
        scn = _validate(cheap_scenario(operator={"builtin": "dolbeault", "twist": 2, "levels": 3}))
    else:
        scn = load_scenario(name)
        assert scn.free_action
    build = harness._build_operator
    warm = tmp_path / "warm"
    run_scenario(scn, out_dir=warm)
    assert len(list((warm / "cache").glob("*.idem.opk"))) == 1

    def unreadable(scn, fiber):
        block, sclass = build(scn, fiber)
        M = block.matrix.copy()
        if defect == "mixed":
            n = M.shape[0]
            rng = np.random.default_rng(35)
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            M = Q @ M
        else:
            i, j = np.argwhere(M)[0]
            M[i, j] = np.nan
        assert is_monomial(M) == (defect == "nan")
        return OperatorBlock(block.domain, block.codomain, M), sclass

    built = []
    construct = harness.index_idempotent

    def counted(*args, **kwargs):
        built.append(1)
        return construct(*args, **kwargs)

    monkeypatch.setattr(harness, "_build_operator", unreadable)
    monkeypatch.setattr(harness, "index_idempotent", counted)
    message = "not monomial" if defect == "mixed" else "non-finite entry"
    for out in (tmp_path / "cold", warm):
        with pytest.raises(StageError, match=message) as err:
            run_scenario(scn, out_dir=out)
        assert err.value.stage == "analytic-index"
    assert built == []


def test_an_ambiguous_rank_fails_at_the_analytic_stage_cold_or_warm(tmp_path, monkeypatch):
    # LAPACK's (U s) Vh of the monomial ladder block, with its smallest
    # singular value moved into the rank window, is monomial still: the
    # parametrix reads the ambiguous modulus off its entries on a cache
    # miss and on a hit alike, so either way the stage is analytic-index
    scn = _validate(cheap_scenario(operator={"builtin": "dolbeault", "twist": 2, "levels": 3}))
    build = harness._build_operator
    run_scenario(scn, out_dir=tmp_path)

    def ambiguous(scn, fiber):
        block, sclass = build(scn, fiber)
        U, sing, Vh = np.linalg.svd(block.matrix, full_matrices=False)
        sing[-1] = 2e-8 * sing[0]
        M = (U * sing) @ Vh
        assert is_monomial(M)
        return OperatorBlock(block.domain, block.codomain, M), sclass

    monkeypatch.setattr(harness, "_build_operator", ambiguous)
    for out in (None, tmp_path):
        with pytest.raises(StageError, match="rank threshold") as err:
            run_scenario(scn, out_dir=out)
        assert err.value.stage == "analytic-index"


def test_run_scenario_orbifold_family():
    rec = run_scenario(load_scenario("S5-orbifold-family"))
    assert rec.analytic == (3, 3, 3, 3)
    assert abs(rec.pairing - 3.0) <= 1e-9
    assert rec.abs_err <= 1e-6
    assert rec.status == "pass"


def test_run_scenario_cache_reuse_and_corruption(tmp_path):
    scn = _validate(cheap_scenario())
    rec1 = run_scenario(scn, out_dir=tmp_path)
    (cache,) = (tmp_path / "cache").glob("*.idem.opk")
    rec2 = run_scenario(scn, out_dir=tmp_path)
    assert rec1.csv_row() == rec2.csv_row()
    assert rec1.pairing == rec2.pairing

    data = cache.read_bytes()
    cache.write_bytes(data[: len(data) - 8])
    with pytest.raises(CorruptedCacheError):
        run_scenario(scn, out_dir=tmp_path)

    save_coefficients(cache, [np.array([np.inf])])
    with pytest.raises(CorruptedCacheError, match="expected"):
        run_scenario(scn, out_dir=tmp_path)

    npts = 12**2  # the cheap scenario's 12 x 12 grid
    # an earlier layout: a radius and one two-component kernel per point
    save_coefficients(cache, [np.array([np.inf]), np.zeros((2 * npts, 2 * npts))])
    with pytest.raises(CorruptedCacheError, match="expected 5 arrays, found 2"):
        run_scenario(scn, out_dir=tmp_path)

    zero = [np.zeros((0, 0), dtype=complex), np.zeros(0, dtype=np.int64)]
    for radius in (np.nan, 0.0, -1.0):
        save_coefficients(cache, [np.array([radius]), *zero, *zero])
        with pytest.raises(CorruptedCacheError, match="cut radius"):
            run_scenario(scn, out_dir=tmp_path)


def test_warm_run_samples_no_operator_basis(tmp_path, monkeypatch):
    # a cold run samples only the level-basis columns that frame its
    # projectors, where the idempotent reads them: the one kernel column of
    # flux 1 and the 24 level-0 columns of flux 24; and, with their
    # derivatives, the sections that frame the flux bundle, whose character
    # is then memoized per fiber and twist.  The warm run, in the same
    # process as the cold one, reads the idempotent from its cache, the
    # ladder matrix and the memo alone; a warm run in a fresh process would
    # sample the frame once more, as the cold run does.  No
    # run builds the dense evaluation matrix of the box, which the Fourier
    # basis of S3 would sample only where its columns are read.
    sampled = []
    rows = dolbeault.landau_rows

    def counted(fiber, twist, max_level, columns, jet=False):
        sampled.append((twist, len(columns), jet))
        return rows(fiber, twist, max_level, columns, jet)

    def refuse(*args):
        raise AssertionError("sampled on the run path")

    monkeypatch.setattr(grids, "eval_matrix", refuse)
    monkeypatch.setattr(dolbeault, "landau_rows", counted)
    topindex._flux_character.cache_clear()
    runs = [
        ("S1-dolbeault-d1", [(1, 2, True), (1, 1, False)]),
        (FLUX24["flux24-unit"], [(24, 24, True), (24, 24, False)]),
        ("S3-multiplier-invertible", []),
    ]
    for name, cold_samples in runs:
        scn, out = load_scenario(name), tmp_path / Path(name).stem
        out.mkdir()
        sampled.clear()
        cold = run_scenario(scn, out_dir=out)
        assert sampled == cold_samples, name
        sampled.clear()
        warm = run_scenario(scn, out_dir=out)
        assert sampled == [], name
        assert warm.csv_row() == cold.csv_row()


def flux8_cut_idempotent():
    """Flux 8 on grid 24 cut at 0.45: S0 in 8 blocks of 72, of rank 1 each, and S1 zero;
    with its fiber and parametrix."""
    fiber = FiberModel(2, 8, 24)
    block = dolbeault_family(fiber, 8, levels=2)
    data = analytic_index(block)
    return fiber, data, index_idempotent(block, radius=0.45, data=data)


def test_idempotent_arrays_roundtrip_frames_and_zero_projector(tmp_path):
    # S0 is stored as the frames of its 8 Fourier blocks, side by side, with
    # g and their ranks; S1 as the empty frame and no counts
    fiber, data, idem = flux8_cut_idempotent()
    arrays = idem.arrays()
    assert [a.shape for a in arrays] == [(1,), (72, 8), (9,), (0, 0), (0,)]
    assert [a.dtype for a in arrays] == [
        np.float64, np.complex128, np.int64, np.complex128, np.int64
    ]
    assert arrays[2].tolist() == [8] + [1] * 8
    path = tmp_path / "k.opk"
    save_coefficients(path, arrays)
    back = IndexIdempotent.from_arrays(fiber, load_coefficients(path), data, 0.45)
    assert back.radius == idem.radius == 0.45
    assert back.skernel.order == idem.skernel.order == 8
    assert same_bits(back.skernel.row, idem.skernel.row)
    assert back.cokernel.row is None


FLUX24 = {
    stem: str(Path(__file__).parents[1] / "perfbench" / "scenarios" / f"{stem}.json")
    for stem in ("flux24-unit", "flux24-sawtooth")
}


def test_a_zero_projector_is_the_zero_kernel_built_or_cached(tmp_path, monkeypatch):
    # flux 24 has no cokernel: built, and read back from the cache its run
    # writes, S1 is the zero kernel, never None, and S0 the frame of its 8
    # Fourier blocks
    built, build = [], harness.index_idempotent

    def kept(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(harness, "index_idempotent", kept)
    scn = load_scenario(FLUX24["flux24-unit"])
    run_scenario(scn, out_dir=tmp_path)
    (cache,) = (tmp_path / "cache").glob("*.idem.opk")
    fiber = harness._build_space(scn).fiber
    data = analytic_index(harness._build_operator(scn, fiber)[0])
    loaded = IndexIdempotent.from_arrays(fiber, load_coefficients(cache), data, scn.localize)
    assert len(built) == 1
    for idem in (built[0], loaded):
        zero, frame = idem.cokernel, idem.skernel
        assert type(zero) is SmoothingKernel
        assert zero.row is None and zero.diagonal() is None and zero.mats == []
        assert isinstance(frame, ProjectorFrame)
        assert frame.order == len(frame.ranks) == 8


@pytest.mark.parametrize(
    "name, warm_rows",
    [
        # uncut in one block, uncut in g = 20 blocks, and cut in 8 blocks
        ("S1-dolbeault-d1", 0),
        ("S1-dolbeault-d0", 0),
        (FLUX24["flux24-unit"], 0),
        # the profile chain reads the entries of S0; S1 is zero
        (FLUX24["flux24-sawtooth"], 1),
        # uncut in g = 2 blocks: the invariance gate of the half-shift
        # quotient reads the entries of S0
        ("S2-free-halfshift-d2", 1),
    ],
    ids=lambda x: Path(str(x)).stem,
)
def test_cached_frames_form_the_stored_rows_only_where_read(name, warm_rows, tmp_path, monkeypatch):
    # a cold construction forms, from its frames, only the uncut row of each
    # cut projector, the row it cuts, and no row of an uncut one; after it,
    # cold and warm, a row is formed only where the run reads its entries,
    # and those formed from a loaded frame are bitwise the cold ones.  The
    # warm pairing is bitwise the cold one, and a unit cocycle on the
    # trivial group reads no entry: no row is formed
    formed, built, constructed = [], [], []
    form, build = parametrix._frame_row, harness.index_idempotent

    def counted(proj):
        formed.append(form(proj))
        return formed[-1]

    def kept(*args, **kwargs):
        before = len(formed)
        built.append(build(*args, **kwargs))
        constructed.append(len(formed) - before)
        return built[-1]

    monkeypatch.setattr(parametrix, "_frame_row", counted)
    monkeypatch.setattr(harness, "index_idempotent", kept)
    scn = load_scenario(name)
    cold = run_scenario(scn, out_dir=tmp_path)
    frames = [kern for kern in built[0].families if isinstance(kern, ProjectorFrame)]
    per_frame = 0 if scn.localize is None else 1
    assert frames and constructed == [per_frame * len(frames)]
    cold_read = formed[constructed[0] :]
    assert len(cold_read) == warm_rows
    count = len(formed)
    warm = run_scenario(scn, out_dir=tmp_path)
    assert same_bits(warm.pairing, cold.pairing)
    assert warm.csv_row() == cold.csv_row()
    assert len(formed) - count == warm_rows and len(built) == 1
    assert all(same_bits(row, want) for row, want in zip(formed[count:], cold_read))

    fiber = harness._build_space(scn).fiber
    block, _ = harness._build_operator(scn, fiber)
    data = analytic_index(block)
    radius = np.inf if scn.localize is None else scn.localize
    (cache,) = (tmp_path / "cache").glob("*.idem.opk")
    back = IndexIdempotent.from_arrays(fiber, load_coefficients(cache), data, scn.localize)
    bases = (block.domain, block.codomain)
    # the loaded frames form the rows of the whole-frame oracle to rounding:
    # the frames split by frequency and, cut, the iteration started from them
    # move them by at most 7.6e-15 of the largest entry (S4)
    for basis, indices, kern in zip(bases, (data.cols, data.rows), back.families):
        want = stored_row(basis, indices, radius)
        if kern.row is None or want is None:
            assert kern.row is want is None
            continue
        assert np.max(np.abs(kern.row - want)) <= 1e-14 * np.max(np.abs(want))


def _refused_layouts(arrays):
    """(name, layout, message fragment) for cached layouts of an idempotent with S1 = 0.

    ``arrays`` is the good layout: the radius, the frame and counts of S0
    and the empty frame and counts of the zero S1.
    """
    radius, frame, counts, zero, none = arrays
    g, rows = int(counts[0]), frame.shape[0]
    ranks = counts[1:]
    refused = [
        ("real frame", [radius, frame.real, counts, zero, none], "frame dtype float64"),
        (
            "single-precision frame",
            [radius, frame.astype(np.complex64), counts, zero, none],
            "frame dtype complex64",
        ),
        (
            "frame row count",
            [radius, frame[:-1], counts, zero, none],
            f"frame has {rows - 1} rows",
        ),
        (
            "g not dividing the grid",
            [radius, frame, np.array([5, *counts[1:]]), zero, none],
            "block count 5 does not divide",
        ),
        (
            "real counts",
            [radius, frame, counts.astype(float), zero, none],
            "block counts of dtype float64",
        ),
        (
            "stray zero entry",
            [radius, frame, counts, np.zeros((1, 1), complex), none],
            "frame of shape (1, 1) with 0 block counts",
        ),
        ("format 11", [radius, frame, zero], "expected 5 arrays, found 3"),
        # format 7 stored each g beside its row
        ("format 7", [radius, counts[:1], frame, none, zero], "frame dtype int64"),
        (
            "ranks past the frame width",
            [radius, frame, np.array([g, *ranks[:-1], ranks[-1] + 1]), zero, none],
            f"do not sum to the frame width {frame.shape[1]}",
        ),
        ("too few ranks", [radius, frame, counts[:-1], zero, none], f"of {g} blocks do not sum"),
        # format 12 held an unlocalized projector as its npoints x rank frame and [g]
        ("format 12 uncut", [radius, frame, counts[:1], zero, none], f"of {g} blocks do not sum"),
    ]
    if g > 1:
        refused.append(
            (
                "format 12 uncut frame",
                [radius, np.ones((g * rows, frame.shape[1]), complex), counts, zero, none],
                f"frame has {g * rows} rows, not npoints/g = {rows}",
            )
        )
    return refused


def test_refused_cut_layouts():
    fiber, data, idem = flux8_cut_idempotent()
    good = idem.arrays()
    IndexIdempotent.from_arrays(fiber, good, data, 0.45)
    for name, layout, fragment in _refused_layouts(good):
        with pytest.raises(CorruptedCacheError, match=re.escape(fragment)):
            IndexIdempotent.from_arrays(fiber, layout, data, 0.45)


def test_refused_cache_layouts_exit_two(tmp_path, capsys):
    path = tmp_path / "cheap.json"
    path.write_text(json.dumps(cheap_scenario()))
    out = tmp_path / "o"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == 0
    (cache,) = (out / "cache").glob("*.idem.opk")
    good = load_coefficients(cache)
    assert [a.shape for a in good] == [(1,), (144, 1), (2,), (0, 0), (0,)]
    fiber = FiberModel(2, 4, 12)
    data = analytic_index(dolbeault_family(fiber, 1, levels=2))
    capsys.readouterr()
    for name, layout, fragment in _refused_layouts(good):
        with pytest.raises(CorruptedCacheError, match=re.escape(fragment)):
            IndexIdempotent.from_arrays(fiber, layout, data, None)
        save_coefficients(cache, layout)
        assert main(["run", "--scenario", str(path), "--out", str(out)]) == 2, name
        assert fragment in capsys.readouterr().err, name


def test_flux24_cache_holds_the_projector_frames(tmp_path):
    # S0's eight 200 x 3 block frames are 76,800 bytes and S1 an empty frame;
    # its block row was 200 x 1600 complex entries (4.88 MiB) and the dense
    # families 78 MiB
    out = tmp_path / "o"
    scenario = Path(__file__).parents[1] / "perfbench" / "scenarios" / "flux24-unit.json"
    assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0
    (cache,) = (out / "cache").glob("*.idem.opk")
    assert cache.stat().st_size < 100_000


def test_multipoint_cache_holds_one_family(tmp_path, monkeypatch):
    # three base points share one operator, so the archive holds the radius
    # and one frame per projector, the arrays of one point
    one, three = (
        _validate(
            cheap_scenario(
                name=f"points{bp}",
                groupoid={"group": {"cyclic": 2}, "base_points": bp},
                fiber_action={"translation": ["1/2", "1/2"]},
                operator={"builtin": "dolbeault", "twist": 2, "levels": 2},
                localize=0.45,
            )
        )
        for bp in (1, 3)
    )
    # a format-6 archive of the three-point scenario: one pair per point
    with monkeypatch.context() as m:
        m.setattr(harness, "_CACHE_FORMAT", 6)
        old = _idempotent_cache(three, tmp_path)
    old.parent.mkdir(parents=True)
    radius, flag = np.array([0.45]), [np.array([0]), np.zeros((0, 0), dtype=complex)]
    save_coefficients(old, [radius] + flag * 6)

    archives = []
    for scn in (one, three):
        path, out = tmp_path / f"{scn.name}.json", tmp_path / scn.name
        path.write_text(json.dumps(scn.echo()))
        assert main(["run", "--scenario", str(path), "--out", str(out)]) == 0
        (cache,) = (out / "cache").glob("*.idem.opk")
        archives.append(load_coefficients(cache))
    assert len(archives[1]) == 5
    assert all(
        (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        for a, b in zip(*archives)
    )
    # neither the point count nor the scenario name is an idempotent input:
    # both scenarios name the same file
    one_name, three_name = (_idempotent_cache(s, tmp_path).name for s in (one, three))
    assert one_name == three_name
    # the format-6 file is not read: a miss, not a corrupted cache
    rec = run_scenario(three, out_dir=tmp_path)
    assert rec.status == "pass"
    assert len(load_coefficients(old)) == 13
    assert _idempotent_cache(three, tmp_path) != old


def test_localized_half_shift_scenario_expands_only_for_the_gate():
    # Z/2 acting by the half shift (1/2, 1/2): the invariance gate compares
    # whole matrices under the moving group element, and the localized S0 is
    # stored as 8 blocks.  The row is the one the dense representation wrote.
    raw = cheap_scenario(
        name="halfshift-localized",
        groupoid={"group": {"cyclic": 2}, "base_points": 1},
        fiber={"kind": "torus", "dim": 2, "fourier_cutoff": 8, "grid": 24},
        fiber_action={"translation": ["1/2", "1/2"]},
        operator={"builtin": "dolbeault", "twist": 8, "levels": 2},
        localize=0.45,
        tolerances={"pairing_tol": 1e-6},
    )
    scn = _validate(raw)
    rec = run_scenario(scn)
    assert rec.csv_row() == (
        "halfshift-localized,4,4.000000000000e+00+0.000000000000e+00j,"
        "3.999999999447e+00-1.534543913311e-16j,5.534004e-10,pass"
    )

    space = harness._build_space(scn)
    cutoff = compute_cutoff(space)
    weight = harness._weight_field(scn.masses, cutoff)
    fiber = space.fiber
    idem = index_idempotent(dolbeault_family(fiber, 8, levels=2), radius=0.45)
    assert idem.skernel.order == 8
    # the same projector as one block: its frame spread over the grid
    s0, s1 = idem.families
    whole = ProjectorFrame(fiber, s0.grid_frame() / np.sqrt(fiber.npoints), [sum(s0.ranks)])
    dense = IndexIdempotent(fiber, whole, s1, idem.radius)
    unit = ASCochain.unit(fiber, germ_radius=2.0)
    for kern in idem.families:
        dense_kern = SmoothingKernel(fiber, dense_kernel(kern))
        assert kern.twisted_invariance_defect(space) == dense_kern.twisted_invariance_defect(space)
    got, want = (pair_cocycle(i, unit, space, weight) for i in (idem, dense))
    assert got == rec.pairing
    assert abs(got - want) <= 1e-13 * abs(want)


def test_cache_is_keyed_by_the_idempotent_inputs(tmp_path):
    for twist in (1, 2):
        doc = cheap_scenario(
            name="same", operator={"builtin": "dolbeault", "twist": twist, "levels": 2}
        )
        rec = run_scenario(_validate(doc), out_dir=tmp_path)
        assert rec.analytic == (twist,)
        assert rec.status == "pass"
    assert len(list((tmp_path / "cache").glob("*.idem.opk"))) == 2


def counted_builds(monkeypatch) -> list:
    """The arguments of every idempotent the harness builds from here on."""
    built = []
    build = harness.index_idempotent

    def counted(*args, **kwargs):
        built.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(harness, "index_idempotent", counted)
    return built


def test_base_points_and_weights_reuse_the_idempotent_cache(tmp_path, monkeypatch):
    # the idempotent lives on the fiber: a scenario that differs only in its
    # base points and weights reads the archive the first one wrote
    built = counted_builds(monkeypatch)
    groupoids = [
        {"group": "trivial", "base_points": 1},
        {"group": "trivial", "base_points": 3, "base_weights": [0.5, 1.0, 2.0]},
    ]
    records = [
        run_scenario(_validate(cheap_scenario(groupoid=g)), out_dir=tmp_path)
        for g in groupoids
    ]
    assert len(built) == 1
    assert len(list((tmp_path / "cache").glob("*.idem.opk"))) == 1
    assert [rec.status for rec in records] == ["pass", "pass"]
    assert [rec.analytic for rec in records] == [(1,), (1, 1, 1)]


def test_scenarios_with_one_idempotent_share_one_archive(tmp_path, monkeypatch):
    # S1-dolbeault-d2 and S2-free-halfshift-d2 differ only in fields the
    # idempotent does not read: the suite builds it once and writes one file
    built = counted_builds(monkeypatch)
    only = {"S1-dolbeault-d2", "S2-free-halfshift-d2"}
    assert run_suite("scenarios", tmp_path, only=only) == 0
    assert len(built) == 1
    assert len(list((tmp_path / "cache").glob("*.idem.opk"))) == 1


def test_cache_name_changes_exactly_with_the_idempotent_inputs(tmp_path):
    scn = _validate(
        cheap_scenario(
            groupoid={"group": {"cyclic": 2}, "base_points": 1},
            fiber_action={"translation": ["1/2", "1/2"]},
            operator={"builtin": "dolbeault", "twist": 2, "levels": 2},
            localize=0.3,
        )
    )
    mutations = {
        "name": lambda raw: raw.update(name="other"),
        "groupoid": lambda raw: raw["groupoid"].update(base_weights=[2.0]),
        "fiber": lambda raw: raw["fiber"].update(grid=14),
        "fiber_action": lambda raw: raw.update(fiber_action={"translation": ["1/2", "0"]}),
        "operator": lambda raw: raw["operator"].update(twist=4),
        "localize": lambda raw: raw.update(localize=0.25),
        "cocycle": lambda raw: raw.update(
            cocycle={
                "kind": "profile",
                "legs": [{"axis": axis, "linear_radius": 0.45} for axis in (0, 1)],
            }
        ),
        "density": lambda raw: raw.update(density={"values": [2.0]}),
        "tolerances": lambda raw: raw["tolerances"].update(pairing_tol=1e-3),
        "seed": lambda raw: raw.update(seed=8),
    }
    # a field added to the echo must be added here, and is in the key by default
    assert set(mutations) == set(scn.echo())

    def digest(s):
        return _idempotent_cache(s, tmp_path).name

    renamed = set()
    for name, mutate in mutations.items():
        raw = copy.deepcopy(scn.echo())
        mutate(raw)
        other = _validate(raw)
        assert other.echo()[name] != scn.echo()[name]
        if digest(other) != digest(scn):
            renamed.add(name)
    assert renamed == {"fiber", "operator", "localize"}


def test_run_scenario_stage_error_is_tagged(tmp_path):
    scn = _validate(
        cheap_scenario(
            name="bad-symbol",
            operator={"builtin": "multiplier", "symbol": "sin(xi1)"},
        ),
    )
    with pytest.raises(StageError) as err:
        run_scenario(scn)
    assert err.value.stage == "assemble-operator"
    assert "assemble-operator" in str(err.value)


def test_flow_that_loses_the_rank_fails_at_the_idempotent_stage():
    # at localize 0.3 the flow carries the rank-2 S0 to the zero projector,
    # whose defect passes; at 0.5 its trace stays 2
    raw = cheap_scenario(
        name="rank-lost",
        groupoid={"group": {"cyclic": 2}, "base_points": 1},
        fiber={"kind": "torus", "dim": 2, "fourier_cutoff": 5, "grid": 16},
        operator={"builtin": "dolbeault", "twist": 2, "levels": 2},
        localize=0.3,
    )
    with pytest.raises(StageError, match="rank-2 projector to trace") as err:
        run_scenario(_validate(raw))
    assert err.value.stage == "idempotent"
    raw["localize"] = 0.5
    assert run_scenario(_validate(raw)).status == "pass"


def test_run_one_returns_error_record(tmp_path):
    doc = cheap_scenario(
        name="bad-symbol",
        operator={"builtin": "multiplier", "symbol": "sin(xi1)"},
    )
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    record, error = _run_one(str(path), None)
    assert record.status == "error[assemble-operator]"
    assert record.abs_err == np.inf
    assert isinstance(error, StageError) and error.stage == "assemble-operator"


# ---------------------------------------------------------------------------
# suite driver and CLI


def test_run_suite_invariant_report(tmp_path, monkeypatch):
    monkeypatch.setattr(
        harness,
        "INVARIANT_CHECKS",
        {
            "toy-pass": lambda: (1.0e-12, 1e-9),
            "toy-fail": lambda: (0.5, 1e-9),
        },
    )
    code = run_suite("invariants", tmp_path)
    assert code == 1
    lines = (tmp_path / "invariants.csv").read_text().strip().split("\n")
    assert lines[0] == INVARIANT_CSV_HEADER
    assert lines[1] == "toy-pass,1.000000e-12,1.0e-09,pass"
    assert lines[2] == "toy-fail,5.000000e-01,1.0e-09,fail"
    assert "toy-fail" in (tmp_path / "summary.txt").read_text()


def test_run_suite_scenarios_reports_and_sidecar(tmp_path):
    code = run_suite("scenarios", tmp_path, only={"S3-multiplier-invertible"})
    assert code == 0
    lines = (tmp_path / "scenarios.csv").read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2
    assert lines[1].startswith("S3-multiplier-invertible,0,")
    assert lines[1].endswith(",pass")
    sidecar = tmp_path / "S3-multiplier-invertible.scenario.json"
    echo = json.loads(sidecar.read_text())
    assert echo == load_scenario("S3-multiplier-invertible").echo()
    assert "S3-multiplier-invertible" in (tmp_path / "summary.txt").read_text()


def test_run_suite_rejects_bad_selector(tmp_path):
    with pytest.raises(ModelError, match="selector"):
        run_suite("everything", tmp_path)


def test_run_suite_scenario_csv_is_deterministic(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run_suite("scenarios", out1, only={"S3-multiplier-invertible"}) == 0
    assert run_suite("scenarios", out2, only={"S3-multiplier-invertible"}) == 0
    assert (out1 / "scenarios.csv").read_bytes() == (out2 / "scenarios.csv").read_bytes()


def test_suite_computes_each_dolbeault_disc_charge_once(tmp_path, monkeypatch):
    # the builtins and the class checks integrate on the discs R = 9, 24 and
    # 4, each charged once; S3's multiplier symbol on R = 9 is charged too
    radii = []
    disc_charge = topindex.disc_charge

    def counting(disc, projector):
        radii.append(disc.radius)
        return disc_charge(disc, projector)

    monkeypatch.setattr(topindex, "disc_charge", counting)
    topindex._dolbeault_disc_charge.cache_clear()
    assert run_suite("all", tmp_path) == 0
    assert sorted(radii) == [4.0, 9.0, 9.0, 24.0]


def test_suite_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # every CSV, echo and cache file of the whole suite and of both perfbench
    # scenario runs, written in a child process under one and under two BLAS
    # threads, is the same bytes, and those of tests/bytes_manifest.json;
    # summary.txt holds wall times and is left out
    runs = [bytes_manifest.spawn(tmp_path / threads, threads) for threads in ("1", "2")]
    try:
        assert [run.wait(timeout=600) for run in runs] == [0, 0]
    finally:
        for run in runs:
            run.kill()
    found = [bytes_manifest.digests(tmp_path / threads) for threads in ("1", "2")]
    drift = bytes_manifest.moved(*found)
    assert not drift, f"moved between one and two BLAS threads: {drift}"
    assert len(list((tmp_path / "1" / "suite" / "cache").glob("*.idem.opk"))) == 7
    assert "suite/invariants.csv" in found[0]
    manifest = json.loads(bytes_manifest.MANIFEST.read_text())
    drift = bytes_manifest.moved(found[0], manifest["files"])
    recorded = {key: manifest[key] for key in ("numpy", "blas")}
    assert not drift, (
        f"moved from the manifest written under {recorded}, "
        f"run under {bytes_manifest.versions()}: {drift}"
    )


# scenarios.csv rows of the builtins whose class integral runs through every
# route (plain, free quotient, multiplier, orbifold family), to the byte: the
# signed zeros in the topological column of S1-dolbeault-d0 and S3 (+0.0) included
PINNED_ROWS = [
    "S1-dolbeault-dm2,-2,-2.000000000000e+00+0.000000000000e+00j,"
    "-1.999999999735e+00+7.672719566599e-17j,2.652598e-10,pass",
    "S1-dolbeault-dm1,-1,-1.000000000000e+00+0.000000000000e+00j,"
    "-9.999999999176e-01+3.836359783492e-17j,8.241829e-11,pass",
    "S1-dolbeault-d0,0,0.000000000000e+00+0.000000000000e+00j,"
    "0.000000000000e+00+0.000000000000e+00j,0.000000e+00,pass",
    "S1-dolbeault-d1,1,1.000000000000e+00+0.000000000000e+00j,"
    "9.999999999176e-01-3.836359783492e-17j,8.241829e-11,pass",
    "S1-dolbeault-d2,2,2.000000000000e+00+0.000000000000e+00j,"
    "1.999999999735e+00-7.672719566599e-17j,2.652603e-10,pass",
    "S2-free-halfshift-d2,1,1.000000000000e+00+0.000000000000e+00j,"
    "9.999999998674e-01-3.836359783300e-17j,1.326301e-10,pass",
    "S3-multiplier-invertible,0,0.000000000000e+00+0.000000000000e+00j,"
    "0.000000000000e+00+0.000000000000e+00j,0.000000e+00,pass",
    "S5-orbifold-family,3;3;3;3,3.000000000000e+00+0.000000000000e+00j,"
    "2.999999999946e+00-3.234862825357e-17j,5.422418e-11,pass",
]


def test_builtin_scenario_rows_are_pinned(tmp_path):
    names = {row.split(",", 1)[0] for row in PINNED_ROWS}
    assert run_suite("scenarios", tmp_path, only=names) == 0
    lines = (tmp_path / "scenarios.csv").read_text().splitlines()
    assert lines == [CSV_HEADER] + PINNED_ROWS


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "S1-dolbeault-d1" in out
    assert "S4-sawtooth-flux32" in out


def test_cli_run_builtin_and_overrides(tmp_path, capsys):
    code = main(
        [
            "run",
            "--scenario",
            "S3-multiplier-invertible",
            "--out",
            str(tmp_path),
            "--tol",
            "1e-3",
            "--seed",
            "42",
        ]
    )
    assert code == 0
    assert "pass" in capsys.readouterr().out
    lines = (tmp_path / "scenarios.csv").read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER and len(lines) == 2
    echo = json.loads(
        (tmp_path / "S3-multiplier-invertible.scenario.json").read_text()
    )
    assert echo["tolerances"]["pairing_tol"] == 1e-3
    assert echo["seed"] == 42


def test_cli_run_overrides_are_validated(tmp_path, capsys):
    out = tmp_path / "o"
    argv = ["run", "--scenario", "S1-dolbeault-d1", "--out", str(out)]
    assert main(argv + ["--seed", "9", "--tol", "1e-5"]) == 0
    echo = out / "S1-dolbeault-d1.scenario.json"
    again = load_scenario(echo)
    assert (again.seed, again.pairing_tol) == (9, 1e-5)
    echo.unlink()
    for bad in (["--seed", "-1"], ["--tol", "-1"], ["--tol", "nan"], ["--seed", str(2**64)]):
        assert main(argv + bad) == 1, bad
        assert not echo.exists(), bad
    err = capsys.readouterr().err
    assert "scenario.seed must fit in 64 bits" in err
    assert "tolerances.pairing_tol must be positive" in err
    assert "tolerances.pairing_tol must be finite" in err


def test_cli_run_scenario_file_and_errors(tmp_path, capsys):
    path = tmp_path / "cheap.json"
    path.write_text(json.dumps(cheap_scenario()))
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 0

    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["run", "--scenario", str(bad), "--out", str(tmp_path / "o2")]) == 1
    assert "parse error" in capsys.readouterr().err


def test_cli_exit_code_two_on_corrupted_cache(tmp_path, capsys):
    path = tmp_path / "cheap.json"
    path.write_text(json.dumps(cheap_scenario()))
    out = tmp_path / "o"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == 0
    (cache,) = (out / "cache").glob("*.idem.opk")
    good = cache.read_bytes()
    flipped = bytearray(good)
    flipped[len(good) // 4] ^= 0x01  # inside the kernel family S0
    cache.write_bytes(bytes(flipped))
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == 2
    assert "Bad CRC-32" in capsys.readouterr().err
    cache.write_bytes(b"XXXX" + good[4:])
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == 2
    assert "unreadable archive" in capsys.readouterr().err
    # a well-formed file holding frames of the wrong size
    frame, counts = np.eye(3, dtype=complex), np.array([1])
    save_coefficients(cache, [np.array([np.inf]), frame, counts, frame, counts])
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == 2
    assert "frame has 3 rows, not npoints/g = 144" in capsys.readouterr().err


def test_a_cache_copied_under_another_name_is_refused(tmp_path, capsys):
    # S1-dolbeault-d1's archive under S1-dolbeault-d2's file name has every
    # shape of a cache, but a kernel frame of width 1 where the parametrix
    # of the run counts 2: the warm run refuses it before any route reads it
    out = tmp_path / "o"
    d1, d2 = (load_scenario(f"S1-dolbeault-d{d}") for d in (1, 2))
    run_scenario(d1, out_dir=out)
    swapped = _idempotent_cache(d2, out)
    swapped.write_bytes(_idempotent_cache(d1, out).read_bytes())
    fragment = "radius and frame widths [inf, 1, 0] differ from localize and counts [inf, 2, 0]"
    with pytest.raises(CorruptedCacheError, match=re.escape(fragment)):
        run_scenario(d2, out_dir=out)
    assert main(["run", "--scenario", d2.name, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert fragment in err and swapped.name in err


@pytest.mark.parametrize("localize", [None, 0.45], ids=["uncut", "cut"])
def test_loaded_frames_and_radius_are_recertified(localize, tmp_path, capsys):
    # archives rewritten with their CRCs recomputed: a kernel frame with one
    # column scaled by 1 + 1e-6, and a cut radius other than the scenario's,
    # are refused at the analytic stage with exit code 2
    raw = cheap_scenario(
        fiber={"kind": "torus", "dim": 2, "fourier_cutoff": 8, "grid": 24},
        operator={"builtin": "dolbeault", "twist": 8, "levels": 2},
        localize=localize,
    )
    path, out = tmp_path / "scenario.json", tmp_path / "o"
    path.write_text(json.dumps(raw))
    argv = ["run", "--scenario", str(path), "--out", str(out)]
    assert main(argv) == 0
    (cache,) = (out / "cache").glob("*.idem.opk")
    radius, frame, counts, zero, none = load_coefficients(cache)
    scaled = frame.copy()
    scaled[:, 0] *= 1 + 1e-6
    edited = np.array([0.5 if localize is None else 0.4])
    moved = f"[{edited[0]}, 8, 0] differ from localize and counts [{float(radius[0])}, 8, 0]"
    cases = [
        ([radius, scaled, counts, zero, none], "a frame departs from orthonormal by"),
        ([edited, frame, counts, zero, none], f"radius and frame widths {moved}"),
    ]
    capsys.readouterr()
    for arrays, fragment in cases:
        save_coefficients(cache, arrays)
        with pytest.raises(CorruptedCacheError, match=re.escape(fragment)):
            run_scenario(_validate(raw), out_dir=out)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert fragment in err and cache.name in err


@pytest.mark.parametrize(
    "grid, cutoff, twist", [(20, 9, 40), (20, 9, 60), (20, 9, 100), (16, 7, 60)]
)
def test_an_undersampled_basis_fails_at_the_idempotent_stage(grid, cutoff, twist):
    # the grid undersamples the twisted levels: |W^H W / n - 1|_F reads
    # 2.7e-6 at twist 40 on grid 20 and up to 3.7e-2, and the frames split
    # from W reach 6.0e-7 and more, past the orthonormality gate, where the
    # unit cocycle's trace wrote pass
    raw = cheap_scenario(
        fiber={"kind": "torus", "dim": 2, "fourier_cutoff": cutoff, "grid": grid},
        operator={"builtin": "dolbeault", "twist": twist, "levels": 2},
    )
    with pytest.raises(StageError, match="raise fiber.grid or lower operator.twist") as err:
        run_scenario(_validate(raw))
    assert err.value.stage == "idempotent"


@pytest.mark.parametrize("verb", ["run", "suite"])
def test_cache_errors_exit_alike_in_both_verbs(tmp_path, capsys, verb):
    scn = load_scenario("S3-multiplier-invertible")
    out = tmp_path / "o"
    argv = {
        "run": ["run", "--scenario", scn.name, "--out", str(out)],
        "suite": ["suite", "--which", "scenarios", "--only", scn.name, "--out", str(out)],
    }[verb]
    out.mkdir()
    cache = _idempotent_cache(scn, out)

    # I/O errors are stage errors: the cache directory is a file, then the
    # cache file is a directory
    cache.parent.write_text("")
    assert main(argv) == 1
    assert "stage operator-cache" in "".join(capsys.readouterr())
    cache.parent.unlink()
    cache.mkdir(parents=True)
    assert main(argv) == 1
    assert "stage operator-cache" in "".join(capsys.readouterr())

    cache.rmdir()
    cache.write_bytes(b"not an archive")
    assert main(argv) == 2
    assert "unreadable archive" in "".join(capsys.readouterr())

    # np.savez stores every member uncompressed; a member under another
    # method, bzip2 (12) or one zipfile does not know (99), is refused
    # before it is read, where reading it raised an I/O error or
    # NotImplementedError at the cache stage with exit code 1
    for method in (12, 99):
        save_coefficients(cache, [np.eye(2)])
        cache.write_bytes(with_compression_method(cache.read_bytes(), method))
        assert main(argv) == 2, method
        assert "compressed members ['arr_0.npy']" in "".join(capsys.readouterr())


def with_compression_method(archive: bytes, method: int) -> bytes:
    """``archive`` with the method field of every local and central zip header set to ``method``."""
    out = bytearray(archive)
    for signature, at in ((b"PK\x03\x04", 8), (b"PK\x01\x02", 10)):
        start = out.find(signature)
        while start != -1:
            out[start + at : start + at + 2] = method.to_bytes(2, "little")
            start = out.find(signature, start + 1)
    return bytes(out)


@pytest.mark.parametrize("name", ["S1-dolbeault-d0", "S1-dolbeault-d2", "S1-dolbeault-dm2"])
def test_a_nan_frame_entry_is_refused_in_both_verbs(name, tmp_path, capsys):
    # a NaN defect compares false with the orthonormality bound, and Python's
    # max drops one that is not first, so a NaN frame passed the gate and the
    # warm run paired it to nan+nanj and wrote fail.  One NaN entry in either
    # projector's frame (S0 and S1 of flux 0, S0 of flux 2, S1 of flux -2),
    # in any block of nonzero rank, archived with its CRCs recomputed, is a
    # corrupted cache with exit code 2 in both verbs
    scn, out = load_scenario(name), tmp_path / "o"
    run_scenario(scn, out_dir=out)
    cache = _idempotent_cache(scn, out)
    good = load_coefficients(cache)
    argvs = [
        ["run", "--scenario", name, "--out", str(out)],
        ["suite", "--which", "scenarios", "--only", name, "--out", str(out)],
    ]
    fragment = "a frame departs from orthonormal by nan"
    capsys.readouterr()
    refused = 0
    for at in (1, 3):  # the frames of S0 and S1, each followed by its counts
        ranks = good[at + 1][1:]
        for end in np.cumsum(ranks)[ranks > 0]:
            arrays = [a.copy() for a in good]
            arrays[at][0, end - 1] = np.nan
            save_coefficients(cache, arrays)
            with pytest.raises(CorruptedCacheError, match=fragment):
                run_scenario(scn, out_dir=out)
            for argv in argvs:
                assert main(argv) == 2, (at, end, argv[0])
                assert fragment in "".join(capsys.readouterr()), (at, end, argv[0])
            refused += 1
    assert refused == 2


def test_cli_suite_rejects_unknown_only(tmp_path, capsys):
    code = main(
        ["suite", "--which", "scenarios", "--out", str(tmp_path), "--only", "NOPE"]
    )
    assert code == 1
    assert "unknown scenario names" in capsys.readouterr().err


def test_cli_suite_invariants(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(
        harness, "INVARIANT_CHECKS", {"toy-pass": lambda: (0.0, 1e-9)}
    )
    code = main(["suite", "--which", "invariants", "--out", str(tmp_path)])
    assert code == 0
    assert "toy-pass" in capsys.readouterr().out
