"""Every top-level def and method in src/ is reached from the pipeline.

The walk is by name over the AST: it starts from all of cli.py and from
every module-level statement that is not a def, and follows each Name and
Attribute to every def or method of that name.  Dunder methods come with
their class.  What only tests use belongs in ``tests/oracles.py``, not in
the package.

Because names are matched bare, a method counts as reached whenever any
def of the same name is reached: an uncalled ``copy`` or ``zero`` on one
class hides behind a called one on another.  Such dead methods have to be
found by reading the callers; this test cannot see them.
"""
import ast
import importlib
import importlib.util
import re
from pathlib import Path

import indexpairing
from indexpairing.dolbeault import dolbeault_family
from indexpairing.grids import FiberModel
from indexpairing.operators import SmoothingKernel
from indexpairing.parametrix import index_idempotent

SRC = Path(indexpairing.__file__).parent

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


def test_src_holds_only_reached_code():
    assert sorted(unreached()) == []


# the base layer: the scenario that declares the base points, their weights
# and their action, and the harness that forms the one weight field, the
# analytic column and the orbit sum from them.  Every other module works on
# the fiber and meets the base only as that weight field.
BASE_LAYER = {"harness.py", "scenario.py"}
BASE_NAMES = {
    "base_points",
    "base_weights",
    "masses",
    "BaseModel",
    "CyclicGroupoid",
    "Arrow",
    "TransversalDensity",
}


def base_names(path: Path) -> set[str]:
    """The base names a module uses as identifiers, attributes, arguments,
    imports or exact string keys; docstrings and comments do not count."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.arg, ast.keyword)):
            found.add(node.arg)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found & BASE_NAMES


def test_only_the_base_layer_names_the_base():
    naming = {
        path.name: sorted(base_names(path))
        for path in SRC.glob("*.py")
        if path.name not in BASE_LAYER and base_names(path)
    }
    assert naming == {}


# the m x m flux projector and its spectral character serve the property
# checks and the tests; the run path reads the flux bundle from its frame
PROJECTOR_CHARACTER = {"charclass.py", "invariants.py"}


def test_only_the_checks_form_the_flux_projector_field():
    naming = {
        path.name
        for path in SRC.glob("*.py")
        if re.search(r"\b(twist_projector|chern_character_fiber)\b", path.read_text())
    }
    assert naming - PROJECTOR_CHARACTER == set()


# the dense block-circulant matrix is a test oracle: the slot-product chain
# reads the Gram matrices of the projector's frame, and every other stage,
# the invariance gate and its norm scale included, reads the block row
DENSE_KERNEL: set[str] = set()


def test_no_stage_expands_a_block_row():
    naming = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, ast.alias):
                name = node.name
            elif isinstance(node, ast.FunctionDef):
                name = node.name
            if name == "circulant_dense":
                naming.add(path.name)
    assert naming - DENSE_KERNEL == set()
    assert not hasattr(SmoothingKernel, "dense")


# the dense spectral factorizations, which the tests keep as oracles: the
# parametrix reads the singular data of a monomial block off its entries and
# refuses any other, and the localized projector reaches its spectral
# projector by orthogonal iteration
FACTORIZATIONS = {"svd", "pinv", "eigh"}


def test_no_module_names_a_factorization():
    naming = {}
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, (ast.alias, ast.FunctionDef)):
                name = node.name.split(".")[-1]
            if name in FACTORIZATIONS:
                naming.setdefault(path.name, []).append(f"{name}:{node.lineno}")
    assert naming == {}


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


def test_traced_result_bytes_read_the_stored_rows():
    """The benchmark's other read of the package: RESULT_BYTES on an idempotent.

    It sums the bytes of ``idem.skernel.mats``: none for a zero S0 (flux -1),
    the 200 x 1600 complex block row of S0 at flux 24.
    """
    spec = importlib.util.spec_from_file_location(
        "tracing", SRC.parents[1] / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    measure = tracing.RESULT_BYTES["parametrix.index_idempotent"]
    zero = index_idempotent(dolbeault_family(FiberModel(2, 8, 20), -1, 2))
    assert zero.skernel.row is None and measure(zero) == 0
    flux24 = index_idempotent(dolbeault_family(FiberModel(2, 19, 40), 24, 2), radius=0.30)
    assert measure(flux24) == 200 * 1600 * 16
