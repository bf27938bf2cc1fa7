"""The library promises exact arithmetic: no floating point anywhere."""

import re
from pathlib import Path

import partinv

FLOAT_PATTERNS = re.compile(r"\*\*\s*0?\.5|math\.sqrt|\bfloat\(")


def test_no_floating_point_in_library_sources():
    sources = sorted(Path(partinv.__file__).parent.glob("*.py"))
    assert sources
    offending = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sources
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if FLOAT_PATTERNS.search(line)
    ]
    assert offending == []
