"""The public surface is what the CLI, the acceptance suite and the
benchmark reach: every name a library module lists in ``__all__`` must be
read somewhere in that code, or be allowlisted here with its reason.  The
library's runtime imports stay within the standard library and numpy."""

from __future__ import annotations

import ast
import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY_MODULES = ("density", "distances", "limits", "moments", "numerics", "parallel", "sampling")
ALLOWLIST = {
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


def test_numpy_is_the_only_runtime_dependency():
    # mpmath, hypothesis and pytest are test extras; the library itself
    # imports only the standard library, numpy and its own modules
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    outside = []
    for path in sorted((ROOT / "src" / "haargauss").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue  # relative imports stay inside the package
            outside += [f"{path.name}: {root}" for root in roots if root not in allowed | {"haargauss"}]
    assert not outside, f"imports outside the standard library and numpy: {outside}"
