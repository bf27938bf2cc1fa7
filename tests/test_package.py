"""The package's public surface: the export list, the README example, the
integer rule for library arguments and the refusals of malformed values."""

import ast
import doctest
import os
import subprocess
import sys
from pathlib import Path

import pytest

import partinv
from partinv import (
    ConsistencyError,
    FieldSpec,
    GVector,
    HVector,
    InputError,
    Partition,
    Permutation,
    distinct_eigenvalue_count,
    wedderburn,
)
from partinv.oracles import root_fraction

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


def test_the_cli_starts_without_dataclasses_inspect_or_typing():
    # -S keeps site-packages' .pth files, which may import typing, out of
    # the interpreter, so that only what partinv.cli needs gets loaded.
    probe = (
        "import sys; before = set(sys.modules); import partinv.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    src = str(Path(partinv.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    loaded = set(result.stdout.split())
    assert "partinv.cli" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect", "typing"})


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


def _with_h(parts: tuple[int, ...], h: tuple[int, ...]) -> Partition:
    """A partition whose kept h-vector is ``h``, as if its derivation had
    gone wrong: the readers of h must refuse it."""
    lam = Partition(parts)
    lam.__dict__["h"] = HVector(h)
    return lam


# Refusals of malformed values that no command line can reach: each names
# what is wrong.
_REFUSALS = {
    "Permutation(())": (
        lambda: Permutation(()),
        InputError,
        "a permutation needs degree at least 1",
    ),
    "GVector(())": (lambda: GVector(()), ConsistencyError, "empty g-vector"),
    "GVector((0,))": (lambda: GVector((0,)), ConsistencyError, "g_1 must be positive, got 0"),
    "HVector(())": (lambda: HVector(()), ConsistencyError, "empty h-vector"),
    "HVector((-1,))": (
        lambda: HVector((-1,)),
        ConsistencyError,
        "h_1 must be nonnegative, got -1",
    ),
    "root_fraction(1, 0)": (
        lambda: root_fraction(1, 0),
        InputError,
        "denominator must be positive, got 0",
    ),
    "wedderburn(3; h=2)": (
        lambda: wedderburn(_with_h((3,), (2,)), FieldSpec()),
        ConsistencyError,
        "block sizes sum to 2, expected 3",
    ),
    "wedderburn(2,1; h=3,0)": (
        lambda: wedderburn(_with_h((2, 1), (3, 0)), FieldSpec()),
        ConsistencyError,
        "largest block multiplicity vanished for 2,1",
    ),
    "distinct_eigenvalue_count(1; h=0)": (
        lambda: distinct_eigenvalue_count(_with_h((1,), (0,))),
        ConsistencyError,
        "eigenvalue count must be positive, got 0 for 1",
    ),
}


@pytest.mark.parametrize("call,error,message", _REFUSALS.values(), ids=_REFUSALS.keys())
def test_malformed_values_are_refused(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert str(raised.value) == message
