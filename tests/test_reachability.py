"""Every top-level def and method in src/ is reached from the pipeline.

The walk is by name over the AST: it starts from all of cli.py and from
every module-level statement that is not a def, and follows each Name and
Attribute to every def or method of that name.  Dunder methods come with
their class.  What only tests use must be an independent oracle named in
KEPT_ORACLES together with the test that uses it.

Because names are matched bare, a method counts as reached whenever any
def of the same name is reached: an uncalled ``copy`` or ``zero`` on one
class hides behind a called one on another.  Such dead methods have to be
found by reading the callers; this test cannot see them.
"""
import ast
import importlib
from pathlib import Path

import indexpairing

SRC = Path(indexpairing.__file__).parent

# kept oracle -> the test that compares live code against it
KEPT_ORACLES = {
    "CutoffDensity.partition_defect": "test_groupoid::test_cutoff_partition_identity_multipoint",
    "ProfileCochain.to_elementary": "test_pairing::test_to_elementary_matches_profile_values",
    "SmoothingKernel.invariance_defect": "test_calculus::test_average_kernel_enforces_invariance_and_fixes_invariants",
    "TransitionProfile.fourier_coefficients": "test_pairing::test_profile_fourier_reconstruction",
    "invariant_project_cochain": "test_cochains::test_invariant_project_cochain_invariance_and_fixing",
    # magnetic translations are also the group action a Bloch-block kernel
    # representation would diagonalize
    "magnetic_translation": "test_dolbeault::test_magnetic_translation_square_is_the_predicted_phase",
    "magnetic_translation_matrix": "test_dolbeault::test_magnetic_translation_is_unitary_and_commutes",
    "transport_cochain": "test_cochains::test_van_est_equivariance",
    "twisted_shift": "test_dolbeault::test_ladder_matches_finite_difference_application",
}


def _defs(tree: ast.Module):
    """(qualified name, bare name, node) for top-level defs and their methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item.name, item


def _names(node) -> set[str]:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _class_body(node: ast.ClassDef) -> list:
    return node.decorator_list + node.bases + [
        item for item in node.body if not isinstance(item, ast.FunctionDef)
    ]


def unreached() -> set[str]:
    by_bare: dict[str, list[tuple[str, ast.AST]]] = {}
    pending: list[ast.AST] = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for qual, bare, node in _defs(tree):
            by_bare.setdefault(bare, []).append((qual, node))
        pending += [
            node
            for node in tree.body
            if path.name == "cli.py"
            or not isinstance(node, (ast.FunctionDef, ast.ClassDef))
        ]
    reached: set[str] = set()
    seen_names: set[str] = set()
    while pending:
        node = pending.pop()
        if isinstance(node, ast.ClassDef):
            pending += _class_body(node)
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name.startswith("__"):
                    reached.add(f"{node.name}.{item.name}")
                    pending.append(item)
            continue
        for name in _names(node) - seen_names:
            seen_names.add(name)
            for qual, target in by_bare.get(name, []):
                if qual not in reached:
                    reached.add(qual)
                    pending.append(target)
    every = {qual for defs in by_bare.values() for qual, _ in defs}
    return every - reached


def test_src_holds_only_reached_code_and_named_oracles():
    dead = unreached()
    assert sorted(dead - set(KEPT_ORACLES)) == []
    assert sorted(set(KEPT_ORACLES) - dead) == [], "allowlisted names are now reached"


def test_traced_entry_points_resolve():
    """Every entry point the benchmark tracer wraps exists under its name.

    perfbench/tracing.py is read, not imported, and its LAYER_FUNCTIONS are
    looked up in the package: a renamed layer function fails here instead of
    in a traced benchmark run.
    """
    tree = ast.parse((SRC.parents[1] / "perfbench" / "tracing.py").read_text())
    (table,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "LAYER_FUNCTIONS" for t in node.targets)
    ]
    entries = ast.literal_eval(table)
    assert entries
    for _, module, attr in entries:
        owner = importlib.import_module(f"indexpairing.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{module}.{attr}"
