"""Command-line front end.

Exit codes: 0 success (verdicts are data, not errors), 1 verification
failure, 2 bad input or violated precondition, 3 internal consistency
violation, 4 refused resource bound.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import (
    FieldSpec,
    dimension,
    is_semisimple,
    isomorphic,
    morita_equivalent,
    not_semisimple_message,
    wedderburn,
)
from .classify import classify as classify_partitions
from .classify import self_equivalent
from .errors import BoundExceededError, ConsistencyError, InputError
from .gcd_symm import gcd_matrix_det_and_bounds
from .oracles import verify_all
from .partition_poly import Invariants, PartitionPolynomial, equivalent, invariants
from .partitions import parse_partition

MAX_VERIFY_N = 25
MAX_MATRIX_CAP = 16


def _field(args: argparse.Namespace) -> FieldSpec:
    return FieldSpec(
        characteristic=args.char, algebraically_closed=not args.not_closed
    )


def _emit(args: argparse.Namespace, text: str, payload: dict) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(text)


def _polynomial_payload(eps: PartitionPolynomial) -> dict:
    return {"text": str(eps), "coefficients": list(eps.coefficients)}


def _cmd_analyze(args: argparse.Namespace) -> int:
    lam = parse_partition(args.partition)
    field = _field(args)
    record = invariants(lam)
    g, h, eps = record.g, record.h, record.polynomial
    dim = dimension(lam)
    det = gcd_matrix_det_and_bounds(lam)
    semisimple = is_semisimple(lam, field)
    shape = None
    if semisimple and field.algebraically_closed:
        shape = wedderburn(record, field)

    lines = [
        f"partition: {lam}",
        f"n: {lam.n}",
        f"s: {lam.s}",
        "g-vector: " + ",".join(str(v) for v in g.values),
        "h-vector: " + ",".join(str(v) for v in h.values),
        f"polynomial: {eps}",
        f"dimension: {dim}",
        f"gcd-matrix determinant: {det.determinant}",
    ]
    if det.distinct:
        lines.append(f"determinant bounds: {det.lower} <= det <= {det.upper}")
    else:
        lines.append("determinant bounds: not asserted (repeated parts)")
    lines.append(f"characteristic: {field.characteristic}")
    if semisimple:
        lines.append("semisimple: yes")
    else:
        lines.append(f"semisimple: no, {not_semisimple_message(lam, field)}")
    if shape is not None:
        lines.append(f"blocks: {shape.describe()}")
    elif semisimple and not field.algebraically_closed:
        lines.append("blocks: unavailable (field not algebraically closed)")

    payload = {
        "partition": list(lam.parts),
        "n": lam.n,
        "s": lam.s,
        "g_vector": list(g.values),
        "h_vector": list(h.values),
        "polynomial": _polynomial_payload(eps),
        "dimension": dim,
        "determinant": {
            "value": det.determinant,
            "lower": det.lower,
            "upper": det.upper,
            "distinct": det.distinct,
        },
        "characteristic": field.characteristic,
        "algebraically_closed": field.algebraically_closed,
        "semisimple": semisimple,
        "wedderburn": {str(i): v for i, v in shape.as_dict().items()} if shape else None,
    }
    _emit(args, "\n".join(lines), payload)
    return 0


def _compare_payload(args: argparse.Namespace) -> tuple[Invariants, Invariants, FieldSpec]:
    lam = parse_partition(args.left)
    mu = parse_partition(args.right)
    field = _field(args)
    return invariants(lam), invariants(mu), field


def _cmd_compare(args: argparse.Namespace) -> int:
    left, right, field = _compare_payload(args)
    lam, mu = left.partition, right.partition
    equal_poly = equivalent(left, right)
    iso = isomorphic(left, right, field)
    morita = morita_equivalent(left, right, field)

    def yesno(flag: bool) -> str:
        return "yes" if flag else "no"

    lines = [
        f"left: {lam} (n={lam.n}, s={lam.s})",
        f"right: {mu} (n={mu.n}, s={mu.s})",
        f"left polynomial: {left.polynomial}",
        f"right polynomial: {right.polynomial}",
        f"equivalent: {yesno(equal_poly)}",
        f"isomorphic: {yesno(iso)}",
        f"morita: {yesno(morita.equivalent)}",
        f"simple blocks: {morita.blocks[0]} vs {morita.blocks[1]}",
        f"signed values: {morita.signed_values[0]} vs {morita.signed_values[1]}",
    ]
    payload = {
        "left": {
            "partition": list(lam.parts),
            "n": lam.n,
            "polynomial": _polynomial_payload(left.polynomial),
            "blocks": morita.blocks[0],
            "signed_value": morita.signed_values[0],
        },
        "right": {
            "partition": list(mu.parts),
            "n": mu.n,
            "polynomial": _polynomial_payload(right.polynomial),
            "blocks": morita.blocks[1],
            "signed_value": morita.signed_values[1],
        },
        "characteristic": field.characteristic,
        "equivalent": equal_poly,
        "isomorphic": iso,
        "morita": morita.equivalent,
    }
    _emit(args, "\n".join(lines), payload)
    return 0


def _cmd_iso(args: argparse.Namespace) -> int:
    left, right, field = _compare_payload(args)
    verdict = isomorphic(left, right, field)
    text = "\n".join(
        [
            f"left polynomial: {left.polynomial}",
            f"right polynomial: {right.polynomial}",
            f"isomorphic: {'yes' if verdict else 'no'}",
        ]
    )
    payload = {
        "left": list(left.partition.parts),
        "right": list(right.partition.parts),
        "characteristic": field.characteristic,
        "isomorphic": verdict,
    }
    _emit(args, text, payload)
    return 0


def _cmd_morita(args: argparse.Namespace) -> int:
    left, right, field = _compare_payload(args)
    morita = morita_equivalent(left, right, field)
    text = "\n".join(
        [
            f"simple blocks: {morita.blocks[0]} vs {morita.blocks[1]}",
            f"signed values: {morita.signed_values[0]} vs {morita.signed_values[1]}",
            f"morita: {'yes' if morita.equivalent else 'no'}",
        ]
    )
    payload = {
        "left": list(left.partition.parts),
        "right": list(right.partition.parts),
        "characteristic": field.characteristic,
        "blocks": list(morita.blocks),
        "signed_values": list(morita.signed_values),
        "morita": morita.equivalent,
    }
    _emit(args, text, payload)
    return 0


def _summary_lines(s: int, n: int, grouped) -> list[str]:
    histogram = " ".join(f"{size}:{count}" for size, count in grouped.e.items())
    return [
        f"p({s},{n}) = {grouped.p}",
        f"i({s},{n}) = {grouped.i}",
        f"e({s},{n}): {histogram}",
    ]


def _cmd_classify(args: argparse.Namespace) -> int:
    grouped = classify_partitions(args.s, args.n)
    if args.format == "csv":
        sys.stdout.write(grouped.to_csv())
        return 0
    lines = _summary_lines(args.s, args.n, grouped)
    for idx, cls in enumerate(grouped.classes):
        key = ",".join(str(v) for v in cls.key)
        members = " | ".join(str(m) for m in cls.members)
        lines.append(f"class {idx} [g = {key}] size {cls.size}: {members}")
    _emit(args, "\n".join(lines), grouped.to_json_dict())
    return 0


def _cmd_self_equivalent(args: argparse.Namespace) -> int:
    singles = self_equivalent(args.s, args.n)
    lines = [f"self-equivalent in P({args.s},{args.n}): {len(singles)}"]
    lines.extend(str(lam) for lam in singles)
    payload = {
        "s": args.s,
        "n": args.n,
        "self_equivalent": [list(lam.parts) for lam in singles],
    }
    _emit(args, "\n".join(lines), payload)
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    grouped = classify_partitions(args.s, args.n)
    lines = _summary_lines(args.s, args.n, grouped)
    payload = {
        "s": args.s,
        "n": args.n,
        "p": grouped.p,
        "i": grouped.i,
        "e": {str(size): count for size, count in grouped.e.items()},
    }
    _emit(args, "\n".join(lines), payload)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.nmax < 0:
        raise InputError(f"--nmax must be nonnegative, got {args.nmax}")
    if args.nmax > MAX_VERIFY_N:
        raise BoundExceededError(f"--nmax above {MAX_VERIFY_N} is refused")
    if args.matrix_cap < 0 or args.matrix_cap > MAX_MATRIX_CAP:
        raise BoundExceededError(f"--matrix-cap must be within 0..{MAX_MATRIX_CAP}")
    report = verify_all(args.nmax, matrix_cap=args.matrix_cap)
    _emit(args, report.to_text(), report.to_json_dict())
    return 0 if report.passed else 1


def _add_format(parser: argparse.ArgumentParser, *, csv: bool = False) -> None:
    choices = ["text", "json", "csv"] if csv else ["text", "json"]
    parser.add_argument("--format", choices=choices, default="text")


def _add_field_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--char", type=int, default=0, metavar="P",
                        help="field characteristic, 0 or a prime (default 0)")
    parser.add_argument("--not-closed", action="store_true",
                        help="field is not algebraically closed; disables block decompositions")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partinv",
        description="Exact partition invariants and fixed-matrix-algebra decisions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="all invariants of one partition")
    p.add_argument("partition", help="comma-separated parts, e.g. 8,2,1")
    _add_field_flags(p)
    _add_format(p)
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("compare", help="equivalence, isomorphism and Morita verdicts")
    p.add_argument("left")
    p.add_argument("right")
    _add_field_flags(p)
    _add_format(p)
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("iso", help="isomorphism verdict only")
    p.add_argument("left")
    p.add_argument("right")
    _add_field_flags(p)
    _add_format(p)
    p.set_defaults(handler=_cmd_iso)

    p = sub.add_parser("morita", help="Morita verdict only")
    p.add_argument("left")
    p.add_argument("right")
    _add_field_flags(p)
    _add_format(p)
    p.set_defaults(handler=_cmd_morita)

    p = sub.add_parser("classify", help="equivalence classes of P(s,n)")
    p.add_argument("s", type=int)
    p.add_argument("n", type=int)
    _add_format(p, csv=True)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("self-equivalent", help="partitions alone in their class")
    p.add_argument("s", type=int)
    p.add_argument("n", type=int)
    _add_format(p)
    p.set_defaults(handler=_cmd_self_equivalent)

    p = sub.add_parser("count", help="p, i and e numbers of P(s,n)")
    p.add_argument("s", type=int)
    p.add_argument("n", type=int)
    _add_format(p)
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("verify", help="run the oracle cross-check sweep")
    p.add_argument("--nmax", type=int, default=10)
    p.add_argument("--matrix-cap", type=int, default=12, dest="matrix_cap")
    _add_format(p)
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"internal consistency violation: {exc}", file=sys.stderr)
        return 3
    except BoundExceededError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
