"""The package's public surface: the export list and the README example."""

import ast
import doctest
from pathlib import Path

import partinv

README = Path(__file__).resolve().parent.parent / "README.md"


def test_export_list_is_sorted_unique_and_resolves():
    names = partinv.__all__
    assert names == sorted(set(names))
    for name in names:
        getattr(partinv, name)


def test_every_imported_name_is_exported():
    tree = ast.parse(Path(partinv.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert imported == set(partinv.__all__)


def test_readme_example_runs():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0
