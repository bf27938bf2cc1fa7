"""The library promises exact arithmetic, with no floating point anywhere,
checks that ``python -O`` cannot strip, so no ``assert`` statements, and
nothing that grows without limit, so no unbounded caches."""

import ast
import re
from pathlib import Path

import partinv

FLOAT_PATTERNS = re.compile(r"\*\*\s*0?\.5|math\.sqrt|\bfloat\(")
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


def test_no_floating_point_in_library_sources():
    assert _offending_lines(FLOAT_PATTERNS) == []


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
