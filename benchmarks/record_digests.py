"""Record the exit code and stdout SHA-256 of each benchmark operation.

    python3 benchmarks/record_digests.py

Runs every operation of the default seed of each workload, plus the few
argv variants other seeds give ``table-wide`` and ``oracle-sweep``, once,
checks each output with ``checks.py`` and writes ``digests.json``.  The
CLI promises byte-identical output for identical invocations, so a later
version that changes any of these outputs fails the benchmark until the
change is reviewed and the digests are recorded again.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys

from run import DIGESTS, Judge, run_pass
from workloads import WORKLOADS

DEFAULT_SEED = 0
VARIANT_SEEDS = {"table-wide": range(8), "oracle-sweep": range(8), "query-mix": (DEFAULT_SEED,)}


def main() -> int:
    digests: dict[str, list] = {}
    for name, workload in WORKLOADS.items():
        ops: list[list[str]] = []
        for seed in VARIANT_SEEDS[name]:
            ops += [argv for argv in workload.build(random.Random(seed)) if argv not in ops]
        records: list[dict] = []

        def keep(index, argv, record):
            records.append(record)
            return Judge({})(index, argv, record)

        result = run_pass(ops, False, keep, workload.op_timeout_s, float("inf"))
        for argv, record, failure in zip(ops, records, result.failures):
            if failure:
                print(f"{name}: {' '.join(argv)[:80]}: {failure}", file=sys.stderr)
                return 1
            digest = hashlib.sha256(record["stdout"].encode()).hexdigest()
            digests[" ".join(argv)] = [record["code"], digest]
    lines = ",\n".join(f"  {json.dumps(argv)}: {json.dumps(entry)}" for argv, entry in digests.items())
    DIGESTS.write_text(f'{{"default_seed": {DEFAULT_SEED}, "ops": {{\n{lines}\n}}}}\n')
    print(f"recorded {len(digests)} digests in {DIGESTS.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
