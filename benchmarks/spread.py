"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 benchmarks/spread.py --workload NAME [--seeds 0-9] [--seconds 36]
                                 [--out FILE]

Runs ``run.py`` once per seed, one run after another, and prints for each
end-to-end metric the median of the runs and the distance between their
first and third quartiles as a share of that median, which is how a run
of the benchmark is compared with its bounds in ``BENCHMARK.json``.
``--out`` also writes every value, with the Python version, ``nproc`` and
git sha, to a JSON file such as ``trajectory/BENCH_<sha>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import BENCH, ROOT, git_sha
from workloads import WORKLOADS


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", type=seeds, default=seeds("0-9"))
    parser.add_argument("--seconds", type=int,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    summary: dict[str, dict] = {}
    worst = 0.0
    for workload in args.workload:
        values: dict[str, list[float]] = {}
        attempted = failed = 0
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            if done.returncode != 0:
                print(f"{workload} seed {seed}: exit code {done.returncode}\n{done.stderr[-3000:]}")
                return 1
            result = json.loads(done.stdout.splitlines()[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload}: {len(args.seeds)} seeds, {failed} of {attempted} operations failed")
        rows = {}
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            share = (q3 - q1) / median
            if name != "setup_s":
                worst = max(worst, share / bounds[name])
            rows[name] = {"median": median, "iqr_over_median": share, "values": series}
            print(f"  {name:<18} median {median:<12.6g} spread {share:.3f}  bound {bounds[name]}")
        summary[workload] = {"seeds": args.seeds, "attempted": attempted, "failed": failed,
                             "end_to_end": rows}
    print(f"largest spread, as a share of its bound (setup_s aside): {worst:.2f}")
    if args.out:
        record = {"git_sha": git_sha(), "python": sys.version.split()[0],
                  "nproc": len(os.sched_getaffinity(0)),
                  "run_seconds": args.seconds, "workloads": summary}
        with open(args.out, "w") as handle:
            json.dump(record, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
