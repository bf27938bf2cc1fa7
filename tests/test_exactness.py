"""The library promises exact arithmetic, with no floating point anywhere,
checks that ``python -O`` cannot strip, so no ``assert`` statements, and
nothing that grows without limit, so no unbounded caches."""

import re
from pathlib import Path

import partinv

FLOAT_PATTERNS = re.compile(r"\*\*\s*0?\.5|math\.sqrt|\bfloat\(")
ASSERT_STATEMENT = re.compile(r"^\s*assert\b")
UNBOUNDED_CACHE = re.compile(r"lru_cache\(\s*(maxsize\s*=\s*)?None\b|functools\.cache\b|@cache\b")


def _offending_lines(pattern):
    sources = sorted(Path(partinv.__file__).parent.glob("*.py"))
    assert sources
    return [
        f"{path.name}:{number}: {line.strip()}"
        for path in sources
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if pattern.search(line)
    ]


def test_no_floating_point_in_library_sources():
    assert _offending_lines(FLOAT_PATTERNS) == []


def test_no_assert_statements_in_library_sources():
    assert _offending_lines(ASSERT_STATEMENT) == []


def test_no_unbounded_caches_in_library_sources():
    assert _offending_lines(UNBOUNDED_CACHE) == []
