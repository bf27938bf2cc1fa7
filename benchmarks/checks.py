"""Correctness checks on CLI outputs, independent of partinv's own code.

``check`` returns ``None`` when an operation's stdout is consistent with
facts the benchmark computes itself, or a one-line reason when it is not:

* a gcd matrix has total ``sum(gcd(a, b))`` over all pairs of parts, which
  is the fixed algebra's dimension, and equal rows when a part repeats, so
  its determinant is 0 then and positive for distinct parts;
* the roots of unity whose order divides some part, counted directly, are
  the number of simple blocks, ``sum(h_i)``;
* ``sum(i * h_i) = n`` and ``g_1 = n``;
* ``P(s, n)`` has as many partitions as a plain recurrence counts.
"""

from __future__ import annotations

import csv
import io
import json
import math
from functools import lru_cache


def split(argv: list[str]) -> tuple[str, list[str], dict[str, str]]:
    """Command, positional arguments and ``--option value`` pairs."""
    positional, options = [], {}
    rest = iter(argv[1:])
    for arg in rest:
        if arg.startswith("--"):
            options[arg] = next(rest)
        else:
            positional.append(arg)
    return argv[0], positional, options


@lru_cache(maxsize=None)
def count_partitions(s: int, n: int) -> int:
    if s == 0:
        return 1 if n == 0 else 0
    if n < s:
        return 0
    return count_partitions(s - 1, n - 1) + count_partitions(s, n - s)


def parts_of(text: str) -> list[int]:
    return sorted((int(p) for p in text.split(",")), reverse=True)


def gcd_total(parts: list[int]) -> int:
    return sum(math.gcd(a, b) for a in parts for b in parts)


def block_count(parts: list[int]) -> int:
    """Roots of unity whose order divides some part: phi(d) for each such d."""
    divisors = set()
    for part in set(parts):
        for d in range(1, math.isqrt(part) + 1):
            if part % d == 0:
                divisors.update((d, part // d))
    return sum(sum(1 for k in range(1, d + 1) if math.gcd(k, d) == 1) for d in divisors)


def partitions_covered(argv: list[str]) -> int:
    """Partitions an operation answers for: the table, the sweep or its arguments."""
    command, positional, options = split(argv)
    if command in ("count", "classify", "self-equivalent"):
        return count_partitions(int(positional[0]), int(positional[1]))
    if command == "verify":
        nmax = int(options.get("--nmax", 10))
        return sum(count_partitions(s, n) for n in range(1, nmax + 1) for s in range(1, n + 1))
    return len(positional)


def verify_instances(stdout: str, fmt: str) -> int:
    """Oracle instances checked, summed over the families of a verify report."""
    if fmt == "json":
        return sum(f["instances"] for f in json.loads(stdout)["families"])
    return sum(int(line.split()[-3]) for line in stdout.splitlines() if " instances " in line)


def _fields(stdout: str) -> dict[str, str]:
    fields = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            fields[key] = value
    return fields


def _ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",")]


def _yes(text: str) -> bool:
    return text == "yes"


def _check_invariants(parts: list[int], g: list[int], h: list[int], dim: int, det: int) -> str | None:
    n = sum(parts)
    if g[0] != n or len(g) != len(parts):
        return f"g-vector {g} does not start with n={n} or has the wrong length"
    if sum(i * v for i, v in enumerate(h, start=1)) != n:
        return f"sum of i*h_i is not n={n}"
    if sum(h) != block_count(parts):
        return f"sum of h_i is {sum(h)}, expected {block_count(parts)} roots of unity"
    if dim != gcd_total(parts):
        return f"dimension {dim} is not the gcd-matrix total {gcd_total(parts)}"
    repeated = len(set(parts)) < len(parts)
    if (det != 0) if repeated else (det <= 0):
        return f"determinant {det} has the wrong sign for {'repeated' if repeated else 'distinct'} parts"
    return None


def _check_analyze(positional, options, stdout, fmt) -> str | None:
    parts = parts_of(positional[0])
    char = int(options.get("--char", 0))
    semisimple = char == 0 or all(p % char for p in parts)
    if fmt == "json":
        data = json.loads(stdout)
        if data["partition"] != parts or data["characteristic"] != char:
            return "partition or characteristic not echoed"
        if data["semisimple"] != semisimple:
            return f"semisimple is {data['semisimple']}, expected {semisimple}"
        if semisimple and data["wedderburn"] != {str(i): v for i, v in enumerate(data["h_vector"], start=1)}:
            return "block multiplicities differ from the h-vector"
        return _check_invariants(parts, data["g_vector"], data["h_vector"],
                                 data["dimension"], data["determinant"]["value"])
    fields = _fields(stdout)
    if _ints(fields["partition"]) != parts or int(fields["characteristic"]) != char:
        return "partition or characteristic not echoed"
    if fields["semisimple"].startswith("yes") != semisimple:
        return f"semisimple is {fields['semisimple']!r}, expected {semisimple}"
    if semisimple and "blocks" not in fields:
        return "no block structure for a semisimple algebra"
    return _check_invariants(parts, _ints(fields["g-vector"]), _ints(fields["h-vector"]),
                             int(fields["dimension"]), int(fields["gcd-matrix determinant"]))


def _check_pair(command, positional, stdout, fmt) -> str | None:
    left, right = parts_of(positional[0]), parts_of(positional[1])
    blocks = (block_count(left), block_count(right))
    same_n = sum(left) == sum(right)
    if fmt == "json":
        data = json.loads(stdout)
        if command == "compare":
            polys = (data["left"]["polynomial"]["text"], data["right"]["polynomial"]["text"])
            got = (data["left"]["blocks"], data["right"]["blocks"])
            verdicts = (data["equivalent"], data["isomorphic"], data["morita"])
        elif command == "iso":
            if data["left"] != left or data["right"] != right:
                return "partitions not echoed"
            return "isomorphic although the totals differ" if data["isomorphic"] and not same_n else None
        else:
            polys, got, verdicts = None, tuple(data["blocks"]), (None, None, data["morita"])
    else:
        fields = _fields(stdout)
        polys = (fields.get("left polynomial"), fields.get("right polynomial"))
        if "simple blocks" in fields:
            got = tuple(int(v) for v in fields["simple blocks"].split(" vs "))
        else:
            got = blocks
        verdicts = tuple(_yes(fields[k]) if k in fields else None
                         for k in ("equivalent", "isomorphic", "morita"))
    if got != blocks:
        return f"simple blocks {got}, expected {blocks}"
    equivalent, isomorphic, morita = verdicts
    if morita is not None and morita != (blocks[0] == blocks[1]):
        return "Morita verdict disagrees with the block counts"
    if polys is not None and isomorphic is not None and isomorphic != (same_n and polys[0] == polys[1]):
        return "isomorphism verdict disagrees with totals and polynomials"
    if polys is not None and equivalent is not None and equivalent != (polys[0] == polys[1]):
        return "equivalence verdict disagrees with the polynomials"
    return None


def _valid_member(parts: list[int], s: int, n: int) -> bool:
    return len(parts) == s and sum(parts) == n and parts == sorted(parts, reverse=True)


def _check_table(command, positional, stdout, fmt) -> str | None:
    s, n = int(positional[0]), int(positional[1])
    p = count_partitions(s, n)
    if command == "count":
        if fmt == "json":
            data = json.loads(stdout)
            got, histogram = data["p"], data["e"]
        else:
            fields = _fields(stdout)
            got = int(stdout.splitlines()[0].split(" = ")[1])
            histogram = dict(pair.split(":") for pair in fields[f"e({s},{n})"].split())
        if got != p:
            return f"p({s},{n}) = {got}, expected {p}"
        if sum(int(size) * int(k) for size, k in histogram.items()) != p:
            return "class-size histogram does not add up to p"
        return None
    if command == "self-equivalent":
        if fmt == "json":
            members = json.loads(stdout)["self_equivalent"]
        else:
            lines = stdout.splitlines()
            members = [_ints(line) for line in lines[1:]]
            if int(lines[0].rsplit(": ", 1)[1]) != len(members):
                return "self-equivalent count does not match the listing"
        if not all(_valid_member(m, s, n) for m in members):
            return "a listed partition is not in P(s,n)"
        return None
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(stdout)))
        if rows[0] != ["parts", "g_vector", "class_id"]:
            return "unexpected CSV header"
        rows = rows[1:]
        if len(rows) != p:
            return f"{len(rows)} CSV rows, expected p({s},{n}) = {p}"
        ids = {}
        for parts, key, class_id in rows:
            if not _valid_member(_ints(parts), s, n) or _ints(key)[0] != n:
                return f"row {parts} is not in P(s,n) or its g_1 is not n"
            if ids.setdefault(key, class_id) != class_id:
                return f"g-vector {key} has two class ids"
        if len(set(ids.values())) != len(ids):
            return "two g-vectors share a class id"
        return None
    data = json.loads(stdout)
    members = [m for c in data["classes"] for m in c["members"]]
    if data["summary"]["p"] != p or len(members) != p:
        return f"classified {len(members)} partitions, expected p({s},{n}) = {p}"
    if data["summary"]["i"] != len(data["classes"]):
        return "class count does not match the summary"
    if not all(_valid_member(m, s, n) for m in members):
        return "a class member is not in P(s,n)"
    if any(c["key"][0] != n for c in data["classes"]):
        return "a class key does not start with g_1 = n"
    return None


def _check_verify(stdout, fmt) -> str | None:
    if fmt == "json":
        data = json.loads(stdout)
        passed = data["passed"] and not any(f["failures"] for f in data["families"])
    else:
        passed = stdout.rstrip("\n").endswith("all checks passed")
    if not passed:
        return "verification report does not pass"
    if verify_instances(stdout, fmt) <= 0:
        return "verification checked no instances"
    return None


def check(argv: list[str], stdout: str) -> str | None:
    """Reason the output of a successful ``main(argv)`` is wrong, or None."""
    command, positional, options = split(argv)
    fmt = options.get("--format", "text")
    try:
        if command == "analyze":
            return _check_analyze(positional, options, stdout, fmt)
        if command in ("compare", "iso", "morita"):
            return _check_pair(command, positional, stdout, fmt)
        if command in ("count", "classify", "self-equivalent"):
            return _check_table(command, positional, stdout, fmt)
        if command == "verify":
            return _check_verify(stdout, fmt)
    except (KeyError, IndexError, ValueError, TypeError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return f"no check for command {command!r}"
