"""Seeded fuzz of the scenario loader over mutated builtin documents.

Every mutated document either validates, with an echo that is strict JSON
and re-loads to the same scenario, or is refused with a ``ScenarioError``;
and ``indexpairing run`` on a refused file exits with code 1.
"""
import copy
import json

import numpy as np

from indexpairing.cli import main
from indexpairing.scenario import BUILTIN_SCENARIOS, ScenarioError, _validate, load_scenario

CASES = 400
# values a JSON scenario file can hold, most of them wrong for most fields
ODD_VALUES = [
    float("nan"),
    float("inf"),
    -float("inf"),
    2**70,
    -(2**70),
    0,
    -1,
    3,
    0.25,
    1e300,
    True,
    None,
    "x",
    "1/0",
    [],
    [1.0],
    {},
    {"cyclic": 2},
]


def _paths(doc, prefix=()):
    """The path of every node below the root of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _mutate(rng, doc):
    """Delete a key or replace a value, once or twice, at random nodes."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.integers(1, 3)):
        paths = list(_paths(doc))
        if not paths:
            break
        path = paths[rng.integers(len(paths))]
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and rng.random() < 0.2:
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(ODD_VALUES[rng.integers(len(ODD_VALUES))])
    return doc


def test_mutated_builtins_validate_or_raise_scenario_errors(tmp_path):
    rng = np.random.default_rng(909)
    # the echoes carry every field, defaults included, so every field is fuzzed
    echoes = [load_scenario(name).echo() for name in BUILTIN_SCENARIOS]
    refused = []
    for case in range(CASES):
        doc = _mutate(rng, echoes[case % len(echoes)])
        try:
            scn = _validate(doc)
        except ScenarioError:
            refused.append(doc)
            continue
        text = json.dumps(scn.echo(), allow_nan=False)
        assert _validate(json.loads(text)) == scn, doc
    assert 0 < len(refused) < CASES

    # a refused file ends the run with exit code 1, before any stage
    # symbols nested too deeply for the compiler and for the parser
    deep = [
        dict(echoes[0], operator={"builtin": "multiplier", "symbol": "-" * n + "1"})
        for n in (1500, 5000)
    ]
    files = [json.dumps(doc).encode() for doc in refused[:5] + deep]
    files += [b'{"name": "cut', b"\xff\xfe{}"]
    paths = [tmp_path]
    for i, data in enumerate(files):
        paths.append(tmp_path / f"refused{i}.json")
        paths[-1].write_bytes(data)
    for path in paths:
        argv = ["run", "--scenario", str(path), "--out", str(tmp_path / "out")]
        assert main(argv) == 1, path.read_bytes()[:80] if path.is_file() else path
    assert not (tmp_path / "out").exists()
