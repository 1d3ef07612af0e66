"""Every voxfeat name the benchmark scripts in perfbench/ use resolves, so a
change to the library that would break the benchmark fails here too."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SCRIPTS = sorted(PERFBENCH.glob("*.py"))


def voxfeat_names(tree: ast.AST) -> list[tuple[str, str | None]]:
    """(module, name) for each name imported from a voxfeat module, (module,
    None) for each voxfeat module imported whole, and ("voxfeat", attribute)
    for each attribute read off `vf`, the scripts' name for the package."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "voxfeat":
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names
                      if alias.name.split(".")[0] == "voxfeat"]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "vf"):
            found.append(("voxfeat", node.attr))
    return found


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_every_voxfeat_name_resolves(script):
    names = voxfeat_names(ast.parse(script.read_text(encoding="utf-8")))
    for module, name in names:
        mod = importlib.import_module(module)
        assert name is None or hasattr(mod, name), f"{script.name}: {module}.{name}"


def test_the_scan_finds_the_replays_text_calls():
    names = voxfeat_names(ast.parse((PERFBENCH / "spans.py").read_text(encoding="utf-8")))
    assert {("voxfeat.textfeat", "tokenize"), ("voxfeat.textfeat", "load_conllu"),
            ("voxfeat.coherence", "phrase_vector"),
            ("voxfeat.coherence", "load_embeddings")} <= set(names)
