"""The library promises exact arithmetic, with no floating point anywhere,
checks that ``python -O`` cannot strip, so no ``assert`` statements, and
nothing that grows without limit, so no unbounded caches."""

import ast
import re
from pathlib import Path

import partinv

# The functions of ``math`` that are exact on integers; every other one
# works in floating point.
EXACT_MATH = {"gcd", "comb", "prod", "factorial", "isqrt"}
UNBOUNDED_CACHE = re.compile(r"lru_cache\(\s*(maxsize\s*=\s*)?None\b|functools\.cache\b|@cache\b")


def _sources():
    sources = sorted(Path(partinv.__file__).parent.glob("*.py"))
    assert sources
    return sources


def _offending_lines(pattern):
    return [
        f"{path.name}:{number}: {line.strip()}"
        for path in _sources()
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if pattern.search(line)
    ]


def _floating_point(tree):
    """The line and a description of each float operation in the parsed
    source: true division, a float or complex literal, the name ``float``
    or ``complex``, and any ``math`` name outside EXACT_MATH."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node.lineno, "true division"
        elif isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            yield node.lineno, f"literal {node.value!r}"
        elif isinstance(node, ast.Name) and node.id in ("float", "complex"):
            yield node.lineno, node.id
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr not in EXACT_MATH
        ):
            yield node.lineno, f"math.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name not in EXACT_MATH:
                    yield node.lineno, f"math.{alias.name}"


def test_no_floating_point_in_library_sources():
    # Parsed, so that a "/" or a float literal anywhere in an expression is
    # found, and one in a comment or a docstring is not.
    found = [
        f"{path.name}:{line}: {what}"
        for path in _sources()
        for line, what in _floating_point(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []


def test_the_floating_point_check_finds_each_kind():
    floating = ["x / 2", "x /= 2", "x ** 0.5", "1j", "float(x)", "map(complex, xs)",
                "math.sqrt(x)", "math.pi", "from math import log2"]
    for source in floating:
        assert list(_floating_point(ast.parse(source))) != [], source
    exact = "x // 2; x %= 3; math.gcd(a, b); math.isqrt(n); from math import comb\n'a / b'"
    assert list(_floating_point(ast.parse(exact))) == []


def test_no_assert_statements_in_library_sources():
    # Parsed rather than matched by line, so an assert after a colon or a
    # semicolon, or inside a nested block, is found too.
    found = [
        f"{path.name}:{node.lineno}"
        for path in _sources()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_unbounded_caches_in_library_sources():
    assert _offending_lines(UNBOUNDED_CACHE) == []
