"""The public surface is what the CLI, the acceptance suite and the
benchmark reach: every name a library module lists in ``__all__`` must be
read somewhere in that code, or be allowlisted here with its reason."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY_MODULES = ("density", "distances", "limits", "moments", "numerics", "parallel", "sampling")
ALLOWLIST = {
    "estimate_tv_from_haar": "the corner-side TV form, kept as the cross-check of estimate_tv",
    "load_matrix_csv": "reads back the matrices that `sample` dumps",
}


def _names_read(paths) -> set[str]:
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_name_is_reached():
    reached = _names_read([
        *sorted((ROOT / "src" / "haargauss").glob("*.py")),
        ROOT / "tests" / "test_acceptance.py",
        *sorted((ROOT / "perfbench").glob("*.py")),
    ])
    public = {
        name
        for module in LIBRARY_MODULES
        for name in importlib.import_module(f"haargauss.{module}").__all__
    }
    assert ALLOWLIST.keys() <= public
    unreached = sorted(public - reached - ALLOWLIST.keys())
    assert not unreached, f"public names that nothing outside their tests reads: {unreached}"
