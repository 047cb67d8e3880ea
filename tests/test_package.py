"""The package's public names: `fedsim.__all__` lists what it imports."""

import ast
from pathlib import Path

import fedsim


def test_all_lists_every_imported_name():
    tree = ast.parse(Path(fedsim.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert sorted(fedsim.__all__) == sorted(imported)
    for name in fedsim.__all__:
        assert hasattr(fedsim, name), name
