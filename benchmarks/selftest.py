"""Fast self-test of the benchmark runner, at tiny sizes.

    python3 benchmarks/selftest.py

Checks that the tracing wrappers return values unchanged and are removed
again, that a corrupted expected digest and a wrong output each count as a
failed operation, that every operation gets a time scaled by the worker's
reference, that an operation over its timeout fails without stalling the
pass, that large result lines arrive whole when read slowly, that two
traced passes give identical counts, and that the runner prints exactly
the metrics ``BENCHMARK.json`` names, with their units.
Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import time

import tracer
from run import ROOT, SRC, Judge, Worker, end_to_end, per_layer, run_pass, unit_of

TINY_OPS = [
    ["analyze", "8,2,1"],
    ["analyze", "6,4,4", "--format", "json"],
    ["analyze", "9,3", "--char", "3"],
    ["compare", "8,2,1", "6,4,1"],
    ["iso", "4,2", "3,3", "--format", "json"],
    ["morita", "6,3", "5,2"],
    ["count", "4", "12"],
    ["classify", "3", "10", "--format", "csv"],
    ["classify", "3", "9", "--format", "json"],
    ["self-equivalent", "4", "12", "--format", "json"],
    ["verify", "--nmax", "6"],
]
NO_DEADLINE = float("inf")
problems: list[str] = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        problems.append(message)


def in_process_outputs(cli) -> list[tuple[int, str]]:
    results = []
    for argv in TINY_OPS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        results.append((code, out.getvalue()))
    return results


def check_wrappers() -> dict[str, list]:
    """Traced and untraced calls agree; return the digests of the tiny ops."""
    sys.path.insert(0, str(SRC))
    import partinv.cli
    import partinv.partitions

    modules = [m for name, m in sys.modules.items() if name.startswith("partinv")]
    before = [dict(vars(m)) for m in modules]
    plain = in_process_outputs(partinv.cli)
    enumerated = list(partinv.partitions.enumerate_partitions(4, 12))
    active = tracer.Tracer().install()
    try:
        traced = in_process_outputs(partinv.cli)
        traced_enumerated = list(partinv.partitions.enumerate_partitions(4, 12))
    finally:
        active.uninstall()
    expect(plain == traced, "traced CLI outputs differ from untraced ones")
    expect(enumerated == traced_enumerated, "traced enumeration yields other partitions")
    expect(all(code == 0 for code, _ in plain), "a tiny operation did not exit 0")
    expect(all(dict(vars(m)) == b for m, b in zip(modules, before)),
           "uninstall left a wrapper bound in a partinv module")
    metrics = active.metrics()
    uncalled = [n for n in tracer.function_names() if metrics[f"{n}.calls"] == 0]
    expect(not uncalled, f"wrapped functions never called: {uncalled}")
    expect(metrics["partitions.enumerate_partitions.items"] > 0, "no enumerated items counted")
    return {" ".join(argv): [code, hashlib.sha256(out.encode()).hexdigest()]
            for argv, (code, out) in zip(TINY_OPS, plain)}


def check_judging(digests: dict[str, list]) -> None:
    clean = run_pass(TINY_OPS, False, Judge(digests), 60.0, NO_DEADLINE)
    expect(not any(clean.failures), f"tiny ops failed in a worker: {clean.failures}")
    expect(len(clean.scaled) == len(clean.seconds) and all(t > 0 for t in clean.scaled),
           "an operation has no time scaled by the reference")

    corrupted = dict(digests)
    key = " ".join(TINY_OPS[3])
    code, digest = corrupted[key]
    corrupted[key] = [code, digest[:-1] + ("0" if digest[-1] != "0" else "1")]
    spoiled = run_pass(TINY_OPS, False, Judge(corrupted), 60.0, NO_DEADLINE)
    expect(sum(1 for f in spoiled.failures if f) == 1 and spoiled.failures[3] is not None,
           "a corrupted digest did not fail exactly its own operation")

    judge = Judge({})
    wrong = {"code": 0, "stderr": "", "stdout": "p(4,12) = 16\ni(4,12) = 13\ne(4,12): 1:12 2:1\n"}
    expect(judge(0, ["count", "4", "12"], wrong) is not None, "a wrong partition count passed")
    analyze = run_pass([["analyze", "8,2,1"]], False, judge, 60.0, NO_DEADLINE)
    expect(not any(analyze.failures), "analyze 8,2,1 failed")
    wrong = {"code": 0, "stderr": "", "stdout": "partition: 8,2,1\nn: 11\ns: 3\ng-vector: 11,4,1\n"
             "h-vector: 8,0,1\ndimension: 20\ngcd-matrix determinant: 11\ncharacteristic: 0\n"
             "semisimple: yes\nblocks: R^8 x M_3(R)\n"}
    expect(judge(1, ["analyze", "8,2,1"], wrong) is not None, "a wrong dimension passed")

    timed = run_pass([["verify", "--nmax", "16"], ["analyze", "8,2,1"]], False, judge, 0.2,
                     NO_DEADLINE)
    expect(timed.failures[0] is not None and timed.failures[1] is None,
           f"the timeout did not fail only the slow operation: {timed.failures}")


def check_slow_reader() -> None:
    """Large result lines arrive whole while the worker's timer keeps firing."""
    worker = Worker()
    worker.send({"ops": [["classify", "12", "40", "--format", "csv"]] * 3, "trace": False})
    data = b""
    while chunk := os.read(worker.proc.stdout.fileno(), 4096):
        data += chunk
        time.sleep(0.002)  # the pipe stays full, so the worker's writes block
    worker.close()
    try:
        whole = [bool(json.loads(line)) for line in data.splitlines()] == [True] * 4
    except ValueError:
        whole = False
    expect(whole, "a result line was cut or garbled while the runner read slowly")


def check_traced_counts(digests: dict[str, list]) -> None:
    runs = [run_pass(TINY_OPS, True, Judge(digests), 60.0, NO_DEADLINE) for _ in range(2)]
    expect(not any(f for r in runs for f in r.failures), "a traced operation failed")
    counts = [{k: v for k, v in r.trace.items() if not k.endswith("_s")} for r in runs]
    expect(counts[0] == counts[1], "two traced passes gave different counts")

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    untraced = run_pass(TINY_OPS, False, Judge(digests), 60.0, NO_DEADLINE)
    printed = {
        "end_to_end": end_to_end(TINY_OPS, [0.1], [untraced]),
        "per_layer": per_layer([untraced], runs),
    }
    for section, values in printed.items():
        declared = {m["name"]: m["unit"] for m in benchmark[section]}
        shown = {name: unit_of(name) for name in values}
        expect(declared == shown, f"{section} metrics differ from BENCHMARK.json: "
               f"{sorted(set(declared.items()) ^ set(shown.items()))}")


def main() -> int:
    digests = check_wrappers()
    check_judging(digests)
    check_slow_reader()
    check_traced_counts(digests)
    for problem in problems:
        print(f"FAIL: {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
