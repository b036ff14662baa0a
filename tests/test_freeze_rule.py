"""The package freezes values in one place: ``numerics.value_dataclass`` and its ``_frozen``.

No other module wraps a mapping in ``MappingProxyType``, marks an array
read-only with ``setflags`` or makes a class unhashable by writing
``__hash__ = None``; a frozen class that holds arrays or mappings is a
value class instead.
"""

import ast
import pathlib

import pytest

import distkaczmarz

PACKAGE = pathlib.Path(distkaczmarz.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


# The field that holds the name a node spells: ``x``, ``a.x`` and ``import x``.
SPELLED = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}


def _freezes(source: str) -> list[str]:
    """Each place ``source`` names ``MappingProxyType``, calls ``setflags`` or sets ``__hash__ = None``."""
    out = []
    for node in ast.walk(ast.parse(source)):
        name = getattr(node, SPELLED.get(type(node), ""), None)
        if name in ("MappingProxyType", "setflags"):
            out.append(f"line {node.lineno}: {name}")
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant):
            spelled = {getattr(t, SPELLED.get(type(t), ""), None) for t in node.targets}
            if "__hash__" in spelled and node.value.value is None:
                out.append(f"line {node.lineno}: __hash__ = None")
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_numerics_freezes(path):
    found = _freezes(path.read_text(encoding="utf-8"))
    if path.name == "numerics.py":  # the rule itself, so the scan is known to see it
        assert {f.split(": ")[1] for f in found} == {"MappingProxyType", "setflags", "__hash__ = None"}
    else:
        assert found == []
