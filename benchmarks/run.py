"""Benchmark runner for the partinv CLI.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Load model: a closed loop with one client and no threads.  Each pass over
a workload is a fresh worker process (``worker.py``) that imports
``partinv.cli`` and calls ``partinv.cli.main(argv)`` once per operation,
so every pass starts cold, as a CLI user does.  Passes repeat until
``--seconds`` have gone by, and timings are medians over passes.  An
operation fails when its exit code is not 0, when its stdout differs from
the digest recorded for that argv in ``digests.json``, when it breaks an
invariant of ``checks.py``, or when it exceeds the workload's timeout.

A shared host's speed drifts by a third and more over tens of seconds as
other tenants come and go, far beyond the bounds of ``BENCHMARK.json``.
So the worker also times ``worker.reference``, fixed pure-Python work
that never calls partinv, right after set-up and while the operations
run, and every time the runner reports is scaled to a host on which the
reference takes ``REFERENCE_S``: seconds * REFERENCE_S / reference
seconds.  Unscaled figures are printed beside them and kept in the full
record.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of
``tracer.py`` plus the tracing overhead.  The last line of stdout is one
JSON object; a fuller record goes to ``benchmarks/out/BENCH_*.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import re
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import check, partitions_covered, split, verify_instances
from tracer import metric_names
from workloads import WORKLOADS, reuse_share

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
DIGESTS = BENCH / "digests.json"
LAYER_MODULES = ("partitions", "gcd_symm", "partition_poly", "classify", "algebra", "oracles", "cli")
# Set-up is probed this many times before the first pass and after each
# pass, so that its median spans the run.
SETUP_PROBES = 3
# Seconds ``worker.reference`` takes on the host that times are scaled to.
REFERENCE_S = 0.0035
IMPORTTIME_PROBES = 3
READY_TIMEOUT_S = 60.0
# A run stops starting operations this long after --seconds, so that even
# a program that hangs on every operation ends the run within 180 s.
OVERRUN_LIMIT_S = 100.0


class WorkerError(RuntimeError):
    pass


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class Worker:
    """A started worker process that has reported ready."""

    def __init__(self) -> None:
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=_worker_env(), cwd=ROOT,
        )
        self._buffer = bytearray()
        self._scanned = 0
        if self.read_line(start + READY_TIMEOUT_S) != b"ready":
            self.kill()
            raise WorkerError("worker did not become ready; is src/partinv importable?")
        self.setup_s = time.perf_counter() - start

    def read_line(self, deadline: float) -> bytes | None:
        """The next line, or None on timeout or end of output."""
        fd = self.proc.stdout.fileno()
        while True:
            end = self._buffer.find(b"\n", self._scanned)
            if end >= 0:
                line = bytes(self._buffer[:end])
                del self._buffer[: end + 1]
                self._scanned = 0
                return line
            self._scanned = len(self._buffer)
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                return None
            chunk = os.read(fd, 1 << 20)
            if not chunk:
                return None
            self._buffer += chunk

    def send(self, job: dict) -> None:
        try:
            self.proc.stdin.write(json.dumps(job).encode())
            self.proc.stdin.close()
        except BrokenPipeError:
            pass  # the worker exited; reading its results will say so

    def kill(self) -> None:
        self.proc.kill()
        self.close()

    def close(self) -> None:
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe is not None and not pipe.closed:
                pipe.close()


@dataclass
class Pass:
    """One pass over a workload's operations, normally in a single worker."""

    traced: bool
    seconds: list[float] = field(default_factory=list)
    scaled: list[float] = field(default_factory=list)
    failures: list[str | None] = field(default_factory=list)
    maxrss_kb: int | None = None
    trace: dict | None = None
    spans: list | None = None
    stdout_bytes: int = 0
    instances: int = 0

    @property
    def wall_s(self) -> float:
        return sum(self.seconds)


class Judge:
    """Decides whether an operation's result is correct."""

    def __init__(self, digests: dict[str, list]):
        self.digests = digests
        self._checked: dict[tuple[int, str], str | None] = {}

    def __call__(self, index: int, argv: list[str], record: dict) -> str | None:
        code, stdout = record["code"], record["stdout"]
        if code != 0:
            return f"exit code {code}: {record['stderr'].strip()[-300:]}"
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        expected = self.digests.get(" ".join(argv))
        if expected is not None and expected != [code, digest]:
            return f"stdout digest {digest[:12]} differs from the recorded {expected[1][:12]}"
        key = (index, digest)
        if key not in self._checked:
            self._checked[key] = check(argv, stdout)
        return self._checked[key]


def run_pass(ops: list[list[str]], traced: bool, judge: Judge, op_timeout_s: float,
             stop_at: float) -> Pass:
    """Run every operation once; a hung or dead worker is replaced for the rest."""
    result = Pass(traced)
    index = 0
    while index < len(ops):
        if time.perf_counter() >= stop_at:
            for _ in ops[index:]:
                result.seconds.append(op_timeout_s)
                result.failures.append("not run: the run's time limit passed")
            break
        worker = Worker()
        worker.send({"ops": ops[index:], "trace": traced})
        for argv in ops[index:]:
            start = time.perf_counter()
            line = worker.read_line(min(start + op_timeout_s, stop_at))
            index += 1
            if line is None:
                worker.kill()
                result.seconds.append(time.perf_counter() - start)
                result.scaled.append(result.seconds[-1])
                result.failures.append(f"no result within {op_timeout_s} s or the worker exited")
                break
            record = json.loads(line)
            result.seconds.append(record["seconds"])
            result.scaled.append(record["seconds"] * REFERENCE_S / record["reference_s"])
            failure = judge(index - 1, argv, record)
            result.failures.append(failure)
            result.stdout_bytes += len(record["stdout"].encode())
            if argv[0] == "verify" and failure is None:
                result.instances += verify_instances(record["stdout"], split(argv)[2].get("--format", "text"))
        else:
            line = worker.read_line(time.perf_counter() + READY_TIMEOUT_S)
            worker.close()
            if line is None:
                raise WorkerError("worker ended without its final report")
            final = json.loads(line)
            result.maxrss_kb = final["maxrss_kb"]
            result.trace = final.get("trace")
            result.spans = final.get("spans")
    return result


def setup_probe() -> tuple[float, float]:
    """Seconds from spawn to ready, unscaled and scaled."""
    worker = Worker()
    worker.send({"ops": [], "trace": False})
    line = worker.read_line(time.perf_counter() + READY_TIMEOUT_S)
    worker.close()
    if line is None:
        raise WorkerError("worker ended without its final report")
    return worker.setup_s, worker.setup_s * REFERENCE_S / json.loads(line)["reference_s"]


def import_seconds() -> dict[str, float]:
    """Self import time of each layer module, from ``python -X importtime``."""
    samples: dict[str, list[float]] = {name: [] for name in LAYER_MODULES}
    pattern = re.compile(r"import time:\s+(\d+) \|\s+\d+ \|\s+partinv\.(\w+)\s*$")
    for _ in range(IMPORTTIME_PROBES):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import partinv.cli"],
            env=_worker_env(), cwd=ROOT, capture_output=True, text=True, timeout=READY_TIMEOUT_S,
        )
        for line in done.stderr.splitlines():
            match = pattern.match(line)
            if match and match.group(2) in samples:
                samples[match.group(2)].append(int(match.group(1)) / 1e6)
    return {f"{name}.import_s": statistics.median(v) if v else 0.0 for name, v in samples.items()}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: at least a share q of the values are <= it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median_seconds(passes: list[Pass], kind: str = "scaled") -> list[float]:
    """Each operation's median time over the passes, scaled or not."""
    return [statistics.median(times) for times in zip(*(getattr(p, kind) for p in passes))]


def end_to_end(ops: list[list[str]], setup: list[float], passes: list[Pass],
               kind: str = "scaled") -> dict[str, float]:
    per_op = median_seconds(passes, kind)
    wall = sum(per_op)
    rss = [p.maxrss_kb for p in passes if p.maxrss_kb is not None]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "peak_rss_mb": statistics.median(rss) / 1024 if rss else 0.0,
        "partitions_per_s": sum(partitions_covered(argv) for argv in ops) / wall,
        "query_ms_p50": 1000 * percentile(per_op, 0.50),
        "query_ms_p95": 1000 * percentile(per_op, 0.95),
    }


def per_layer(untraced: list[Pass], traced: list[Pass]) -> dict[str, float]:
    """Times are medians over traced passes; counts come from the first."""
    reports = [p.trace for p in traced if p.trace] or [dict.fromkeys(metric_names(), 0)]
    metrics = {name: statistics.median(r[name] for r in reports) if name.endswith("_s")
               else reports[0][name] for name in metric_names()}
    metrics["cli.stdout_bytes"] = traced[0].stdout_bytes
    metrics.update(import_seconds())
    metrics["trace.overhead_s"] = sum(median_seconds(traced)) - sum(median_seconds(untraced))
    return metrics


UNITS = {"peak_rss_mb": "MB", "partitions_per_s": "1/s", "instances_per_s": "1/s",
         "query_ms_p50": "ms", "query_ms_p95": "ms", "cli.stdout_bytes": "bytes",
         "reuse_share": "frac"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_frac"):
        return "frac"
    return "s" if name.endswith("_s") else "count"


def git_sha() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.split()
    if done.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
        return lines[1]
    return None


def load_digests() -> dict[str, list]:
    with open(DIGESTS) as handle:
        return json.load(handle)["ops"]


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        digests: dict[str, list]) -> dict:
    """Measure one workload; return the full record of the run."""
    workload = WORKLOADS[workload_name]
    ops = workload.build(random.Random(seed))
    judge = Judge(digests)
    start = time.perf_counter()
    stop_at = start + seconds + OVERRUN_LIMIT_S
    setup = [setup_probe() for _ in range(SETUP_PROBES)]
    passes: list[Pass] = []
    while len(passes) < (2 if trace else 1) or time.perf_counter() < start + seconds:
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(ops, traced, judge, workload.op_timeout_s, stop_at))
        setup.extend(setup_probe() for _ in range(SETUP_PROBES))
    untraced = [p for p in passes if not p.traced]
    traced_passes = [p for p in passes if p.traced]
    metrics = end_to_end(ops, [scaled for _, scaled in setup], untraced)
    unscaled = end_to_end(ops, [raw for raw, _ in setup], untraced, "seconds")
    failures = [(argv, reason) for p in passes for argv, reason in zip(ops, p.failures) if reason]
    attempted = sum(len(p.failures) for p in passes)
    report = {
        "failed_frac": len(failures) / attempted,
        "reuse_share": reuse_share(ops),
    }
    if untraced[0].instances:
        report["instances_per_s"] = untraced[0].instances / metrics["wall_s"]
    layers = per_layer(untraced, traced_passes) if trace else None
    return {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "operations_per_pass": len(ops),
        "passes": {"untraced": len(untraced), "traced": len(traced_passes)},
        "setup_samples": len(setup),
        "reference_s": REFERENCE_S,
        "pass_wall_s": [[p.traced, p.wall_s] for p in passes],
        "attempted": attempted,
        "failed": len(failures),
        "failures": [{"argv": " ".join(argv)[:200], "reason": reason} for argv, reason in failures[:20]],
        "end_to_end": metrics,
        "unscaled_end_to_end": unscaled,
        "report_only": report,
        "per_layer": layers,
        "spans": traced_passes[0].spans if trace else None,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "partinv" / "cli.py").is_file():
        print(f"error: no partinv sources under {SRC}", file=sys.stderr)
        return 2
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace), load_digests())
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"partinv benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"  passes {record['passes']}, setup samples {record['setup_samples']}, "
          f"operations per pass {record['operations_per_pass']}")
    for name, value in record["end_to_end"].items():
        unscaled = record["unscaled_end_to_end"][name]
        print(f"  {name:<20} {value:.6g} {unit_of(name)} (unscaled {unscaled:.6g})")
    for name, value in record["report_only"].items():
        print(f"  {name:<20} {value:.6g} {unit_of(name)}")
    for failure in record["failures"]:
        print(f"  FAILED {failure['argv'][:80]}: {failure['reason']}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"  record: {path.relative_to(ROOT)}")

    shown = record["per_layer"] if args.trace else record["end_to_end"]
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
