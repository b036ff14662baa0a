"""Property tests of the CLI config reader: any one bad leaf value exits 1 naming a field."""

import contextlib
import io
import json
import os
import tempfile

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from distkaczmarz import cli  # noqa: E402

SETTINGS = settings(derandomize=True, deadline=None, max_examples=300)

TREE = {
    "system": {
        "matrix": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [[0.0, 1.0], 2.0]],
        "rhs": [1.0, 2.0, 3.0, [0.0, 1.0]],
    },
    "network": {
        "type": "tree",
        "nodes": 4,
        "root": 0,
        "edges": [
            {"parent": 0, "child": 1, "w": 0.5},
            {"parent": 0, "child": 2, "w": 0.5},
            {"parent": 1, "child": 3, "w": 1.0},
        ],
    },
    "subnetworks": {"groups": [[2], [3]]},
    "relaxation": {
        "default": 1.0,
        "omega": {"1": 0.8},
        "groups": [{"nodes": [2, 3], "omega": 1.5}],
        "scale": 0.9,
    },
    "solver": {"max_iterations": 50, "step_tolerance": 1e-10, "initial": [0.0, [1.0, 0.5]]},
    "sweep": {"axes": [[2], [3]]},
    "output": {"dir": "out", "format": "json"},
}

DAG = {
    "system": {
        "generator": {"kind": "near-orthogonal", "k": 3, "d": 3, "seed": 5, "epsilon": 0.1}
    },
    "network": {
        "type": "dag",
        "nodes": 3,
        "edges": [
            {"from": 0, "to": 2, "wd": 0.5, "wp": 1.0},
            {"from": 1, "to": 2, "wd": 0.5, "wp": 1.0},
        ],
    },
    "relaxation": {"default": 1.2, "omega": {"2": 0.7}},
    "solver": {"max_iterations": 100, "step_tolerance": 1e-9},
    "sweep": {"axes": [[2]]},
    "output": {"dir": "out", "format": "csv"},
}

REPLACEMENTS = [
    True, False, None, "x", [], {}, float("nan"), float("inf"), -1, 0, 0.5, 2,
]


def _leaves(node, path=()):
    """Paths to every value of a config that is neither an object nor a list."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        yield path
        return
    for key, value in items:
        yield from _leaves(value, path + (key,))


LEAVES = [(base, path) for base in (TREE, DAG) for path in _leaves(base)]


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in the output")


def _config_dump(config) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["config-dump", "--config", path])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("base", [TREE, DAG], ids=["tree", "dag"])
def test_base_configs_are_valid(base):
    code, out, _ = _config_dump(base)
    assert code == 0
    json.loads(out, parse_constant=_reject_constant)


@SETTINGS
@given(leaf=st.sampled_from(LEAVES), value=st.sampled_from(REPLACEMENTS))
def test_one_bad_leaf_exits_one_naming_a_field_or_dumps_valid_json(leaf, value):
    base, path = leaf
    config = json.loads(json.dumps(base))
    target = config
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    code, out, err = _config_dump(config)
    if code == 1:
        assert err.startswith("config")
        assert out == ""
    else:
        assert code == 0
        json.loads(out, parse_constant=_reject_constant)
