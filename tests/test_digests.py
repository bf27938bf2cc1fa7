"""Every benchmark operation's recorded result, checked in the suite.

``benchmarks/digests.json`` holds the exit code and stdout SHA-256 of each
operation the benchmark runs.  Here each one runs in-process through
``partinv.cli.main``, so that a change to any of those outputs fails a test
rather than only the benchmark.  The file is only read.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from partinv.cli import main

DIGESTS = Path(__file__).resolve().parent.parent / "benchmarks" / "digests.json"


def test_every_benchmark_op_matches_its_digest():
    ops = json.loads(DIGESTS.read_text())["ops"]
    assert ops
    mismatched = []
    for op, recorded in ops.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(op.split(" "))
        if [code, hashlib.sha256(out.getvalue().encode()).hexdigest()] != recorded:
            mismatched.append(op)
    assert mismatched == []
