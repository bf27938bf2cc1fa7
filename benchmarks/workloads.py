"""Seeded operation lists for the benchmark workloads.

A workload is a list of CLI argument vectors, each one ``partinv.cli.main``
call.  The seed picks inputs, formats and order, but every workload keeps
the cost structure fixed across seeds (table sizes, sweep bounds, the part
counts of the heavy queries), so runs with different seeds compare.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

Ops = list[list[str]]

TABLE_S, TABLE_N = 16, 48
SWEEP_NMAX = 20
QUERY_CHARS = (2, 3, 5, 7, 11, 13)
# Repeated-part inputs: equal rows make the gcd-matrix determinant 0.
REPEATED = ((1, 200), (2, 150), (3, 100), (4, 80), (6, 60), (1, 120), (12, 50), (5, 40))
# Part counts of the distinct-part sets, spread evenly so that the Bareiss
# tail, and with it the 95th percentile, has the same shape for every seed.
DISTINCT_SIZES = tuple(20 + round(50 * k / 23) for k in range(24))
# The narrow tables mixed into query-mix; the seed picks command and format.
QUERY_TABLES = ((2, 20), (3, 12), (3, 18), (3, 20), (4, 12), (4, 16), (4, 20), (5, 15), (5, 18), (5, 20))
REUSE_PROBABILITY = 0.25


@dataclass(frozen=True)
class Workload:
    build: Callable[[random.Random], Ops]
    op_timeout_s: float


def _fmt(rng: random.Random, *choices: str) -> list[str]:
    choice = rng.choice(choices)
    return [] if choice == "text" else ["--format", choice]


def table_wide(rng: random.Random) -> Ops:
    """``count``, then ``classify --format csv``, of one wide table P(16, 48)."""
    return [
        ["count", str(TABLE_S), str(TABLE_N), *_fmt(rng, "text", "json")],
        ["classify", str(TABLE_S), str(TABLE_N), "--format", "csv"],
    ]


def oracle_sweep(rng: random.Random) -> Ops:
    """One ``verify`` sweep over every partition of n <= 20."""
    return [["verify", "--nmax", str(SWEEP_NMAX), *_fmt(rng, "text", "json")]]


def _join(parts: list[int]) -> str:
    return ",".join(str(p) for p in parts)


def _few_large(rng: random.Random) -> str:
    return _join([rng.randint(1, 1000) for _ in range(rng.randint(1, 6))])


def _same_total(rng: random.Random, text: str) -> str:
    """A random partition with the same total as ``text``."""
    n = sum(int(p) for p in text.split(","))
    s = rng.randint(1, min(6, n))
    cuts = sorted(rng.sample(range(1, n), s - 1))
    return _join([b - a for a, b in zip([0, *cuts], [*cuts, n])])


def query_mix(rng: random.Random) -> Ops:
    """390 queries naming partitions and 10 narrow tables.

    Most queries name a few large parts; 24 name sets of 20..70 distinct
    parts and 8 name one part repeated 40..200 times.  A quarter of the
    few-large-part arguments repeat one given earlier, as when a user
    compares one partition against many.
    """
    kinds = (
        ["analyze"] * 150 + ["analyze-json"] * 60 + ["analyze-char"] * 16
        + ["compare"] * 60 + ["iso"] * 36 + ["morita"] * 36
        + [f"table:{i}" for i in range(len(QUERY_TABLES))]
        + [f"distinct:{s}" for s in DISTINCT_SIZES]
        + [f"repeated:{i}" for i in range(len(REPEATED))]
    )
    rng.shuffle(kinds)
    pool: list[str] = []

    def light() -> str:
        if pool and rng.random() < REUSE_PROBABILITY:
            return rng.choice(pool)
        text = _few_large(rng)
        pool.append(text)
        return text

    ops: Ops = []
    for kind in kinds:
        if kind == "analyze":
            ops.append(["analyze", light()])
        elif kind == "analyze-json":
            ops.append(["analyze", light(), "--format", "json"])
        elif kind == "analyze-char":
            char = str(rng.choice(QUERY_CHARS))
            ops.append(["analyze", light(), "--char", char, *_fmt(rng, "text", "json")])
        elif kind in ("compare", "iso", "morita"):
            left = light()
            right = _same_total(rng, left) if rng.random() < 0.5 else light()
            ops.append([kind, left, right, *_fmt(rng, "text", "json")])
        elif kind.startswith("table:"):
            command = rng.choice(["count", "self-equivalent", "classify"])
            s, n = QUERY_TABLES[int(kind.split(":")[1])]
            fmt = ["--format", "json"] if command == "classify" else _fmt(rng, "text", "json")
            ops.append([command, str(s), str(n), *fmt])
        elif kind.startswith("distinct:"):
            parts = rng.sample(range(1, 1001), int(kind.split(":")[1]))
            ops.append(["analyze", _join(parts), *_fmt(rng, "text", "json")])
        else:
            part, times = REPEATED[int(kind.split(":")[1])]
            ops.append(["analyze", _join([part] * times), *_fmt(rng, "text", "json")])
    return ops


WORKLOADS = {
    "table-wide": Workload(table_wide, op_timeout_s=60.0),
    "oracle-sweep": Workload(oracle_sweep, op_timeout_s=60.0),
    "query-mix": Workload(query_mix, op_timeout_s=10.0),
}

PARTITION_COMMANDS = ("analyze", "compare", "iso", "morita")


def reuse_share(ops: Ops) -> float:
    """Share of operations naming a partition that an earlier operation named."""
    seen: set[tuple[int, ...]] = set()
    reused = 0
    for argv in ops:
        if argv[0] not in PARTITION_COMMANDS:
            continue
        named = argv[1:2] if argv[0] == "analyze" else argv[1:3]
        keys = [tuple(sorted(int(p) for p in arg.split(","))) for arg in named]
        if any(key in seen for key in keys):
            reused += 1
        seen.update(keys)
    return reused / len(ops)
