"""The package's public surface: the export list, the README example and
the integer rule for library arguments."""

import ast
import doctest
from pathlib import Path

import pytest

import partinv
from partinv import InputError, Partition

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


_TRIPLE = Partition((3, 2, 1))

# Each library entry that takes an integer, with that argument left open.
_INTEGER_ARGUMENTS = {
    "count_partitions(s)": lambda x: partinv.count_partitions(x, 3),
    "count_partitions(n)": lambda x: partinv.count_partitions(1, x),
    "enumerate_partitions(s)": lambda x: list(partinv.enumerate_partitions(x, 3)),
    "enumerate_partitions(n)": lambda x: list(partinv.enumerate_partitions(1, x)),
    "classify(s)": lambda x: partinv.classify(x, 4),
    "classify(n)": lambda x: partinv.classify(1, x),
    "count_classes(s)": lambda x: partinv.count_classes(x, 4),
    "count_classes(n)": lambda x: partinv.count_classes(1, x),
    "self_equivalent(s)": lambda x: partinv.self_equivalent(x, 4),
    "self_equivalent(n)": lambda x: partinv.self_equivalent(1, x),
    "verify_all(n_max)": lambda x: partinv.verify_all(x),
    "scale(d)": lambda x: partinv.scale(x, _TRIPLE),
    "brute_g(i)": lambda x: partinv.brute_g(_TRIPLE, x),
}


@pytest.mark.parametrize("value", [2.0, True, "3", [3]], ids=repr)
@pytest.mark.parametrize("call", _INTEGER_ARGUMENTS.values(), ids=_INTEGER_ARGUMENTS.keys())
def test_integer_arguments_are_exactly_int(call, value):
    with pytest.raises(InputError):
        call(value)
