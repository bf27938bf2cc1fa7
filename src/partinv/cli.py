"""Command-line front end.

Exit codes: 0 success (verdicts are data, not errors), 1 verification
failure, 2 bad input or violated precondition, 3 internal consistency
violation, 4 refused resource bound, 141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import json
import os
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
from .classify import count_classes, self_equivalent, summary_json, summary_text
from .errors import BoundExceededError, ConsistencyError, InputError
from .errors import digit_limit_error, refuse_unprintable
from .gcd_symm import gcd_matrix_det_and_bounds
from .oracles import verify_all
from .partition_poly import PartitionPolynomial, equivalent
from .partitions import Partition, _int, parse_partition


def _write_json(payload: dict) -> None:
    """Write ``json.dumps(payload, indent=2)`` and a newline to stdout.

    The whole document is encoded before any of it is written, so a report
    with an unprintable integer is refused, not half printed; its pieces
    are then written one by one, never joined into one string.
    """
    sys.stdout.writelines([*json.JSONEncoder(indent=2).iterencode(payload), "\n"])


def _polynomial_payload(eps: PartitionPolynomial) -> dict:
    return {"text": str(eps), "coefficients": list(eps.coefficients)}


def _refuse_unprintable_g(s: int) -> None:
    """Refuse, before deriving it, a g-vector of s entries that Python
    cannot write in decimal (see the ``ValueError`` handler in :func:`main`).

    Every i-subset gcd is a multiple of g_s >= 1, so g_i >= C(s, i), and
    C(s, floor(s/2)) >= 2^s/(s+1): g has an entry of at least
    floor(2^s/(s+1)).
    """
    refuse_unprintable((1 << s) // (s + 1))


def _cmd_analyze(args: argparse.Namespace) -> int:
    lam = parse_partition(args.partition)
    field = FieldSpec(characteristic=args.char)
    _refuse_unprintable_g(lam.s)
    h, g, eps = lam.h, lam.g, lam.polynomial
    dim = dimension(lam)
    det = gcd_matrix_det_and_bounds(lam)
    semisimple = is_semisimple(lam, field)
    shape = wedderburn(lam, field) if semisimple else None

    if args.format == "json":
        _write_json({
            "partition": list(lam.parts),
            "n": lam.n,
            "s": lam.s,
            "g_vector": list(g),
            "h_vector": list(h),
            "polynomial": _polynomial_payload(eps),
            "dimension": dim,
            "determinant": {
                "value": det.determinant,
                "lower": det.lower,
                "upper": det.upper,
                "distinct": det.distinct,
            },
            "characteristic": field.characteristic,
            "algebraically_closed": True,  # the only field modelled; kept for the JSON shape
            "semisimple": semisimple,
            "wedderburn": {str(i): v for i, v in shape.as_dict().items()} if shape else None,
        })
        return 0
    lines = [
        f"partition: {lam}",
        f"n: {lam.n}",
        f"s: {lam.s}",
        "g-vector: " + ",".join(map(str, g)),
        "h-vector: " + ",".join(map(str, h)),
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
        lines += ["semisimple: yes", f"blocks: {shape.describe()}"]
    else:
        lines.append(f"semisimple: no, {not_semisimple_message(lam, field)}")
    print("\n".join(lines))
    return 0


def _parse_pair(args: argparse.Namespace) -> tuple[Partition, Partition, FieldSpec]:
    return parse_partition(args.left), parse_partition(args.right), FieldSpec(args.char)


def _cmd_compare(args: argparse.Namespace) -> int:
    lam, mu, field = _parse_pair(args)
    iso = isomorphic(lam, mu, field)
    _refuse_unprintable_g(max(lam.s, mu.s))  # before the polynomials are derived
    equal_poly = equivalent(lam, mu)
    morita = morita_equivalent(lam, mu, field)

    if args.format == "json":

        def side(nu: Partition, index: int) -> dict:
            return {
                "partition": list(nu.parts),
                "n": nu.n,
                "polynomial": _polynomial_payload(nu.polynomial),
                "blocks": morita.blocks[index],
                "signed_value": morita.signed_values[index],
            }

        _write_json({
            "left": side(lam, 0),
            "right": side(mu, 1),
            "characteristic": field.characteristic,
            "equivalent": equal_poly,
            "isomorphic": iso,
            "morita": morita.equivalent,
        })
        return 0

    def yesno(flag: bool) -> str:
        return "yes" if flag else "no"

    lines = [
        f"left: {lam} (n={lam.n}, s={lam.s})",
        f"right: {mu} (n={mu.n}, s={mu.s})",
        f"left polynomial: {lam.polynomial}",
        f"right polynomial: {mu.polynomial}",
        f"equivalent: {yesno(equal_poly)}",
        f"isomorphic: {yesno(iso)}",
        f"morita: {yesno(morita.equivalent)}",
        f"simple blocks: {morita.blocks[0]} vs {morita.blocks[1]}",
        f"signed values: {morita.signed_values[0]} vs {morita.signed_values[1]}",
    ]
    print("\n".join(lines))
    return 0


def _cmd_iso(args: argparse.Namespace) -> int:
    lam, mu, field = _parse_pair(args)
    verdict = isomorphic(lam, mu, field)
    if args.format == "json":  # the verdict alone, with no polynomial
        _write_json({
            "left": list(lam.parts),
            "right": list(mu.parts),
            "characteristic": field.characteristic,
            "isomorphic": verdict,
        })
        return 0
    _refuse_unprintable_g(max(lam.s, mu.s))
    lines = [
        f"left polynomial: {lam.polynomial}",
        f"right polynomial: {mu.polynomial}",
        f"isomorphic: {'yes' if verdict else 'no'}",
    ]
    print("\n".join(lines))
    return 0


def _cmd_morita(args: argparse.Namespace) -> int:
    lam, mu, field = _parse_pair(args)
    morita = morita_equivalent(lam, mu, field)
    if args.format == "json":
        _write_json({
            "left": list(lam.parts),
            "right": list(mu.parts),
            "characteristic": field.characteristic,
            "blocks": list(morita.blocks),
            "signed_values": list(morita.signed_values),
            "morita": morita.equivalent,
        })
        return 0
    lines = [
        f"simple blocks: {morita.blocks[0]} vs {morita.blocks[1]}",
        f"signed values: {morita.signed_values[0]} vs {morita.signed_values[1]}",
        f"morita: {'yes' if morita.equivalent else 'no'}",
    ]
    print("\n".join(lines))
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    grouped = classify_partitions(args.s, args.n)
    write = {"csv": grouped.to_csv, "json": grouped.to_json}.get(args.format, grouped.to_text)
    write(sys.stdout)
    return 0


def _cmd_self_equivalent(args: argparse.Namespace) -> int:
    singles = self_equivalent(args.s, args.n)
    if args.format == "json":
        _write_json({
            "s": args.s,
            "n": args.n,
            "self_equivalent": list(map(list, singles)),
        })
    else:
        heading = f"self-equivalent in P({args.s},{args.n}): {len(singles)}"
        print("\n".join([heading, *[",".join(map(str, parts)) for parts in singles]]))
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    p, i, e = count_classes(args.s, args.n)
    if args.format == "json":
        _write_json({"s": args.s, "n": args.n, **summary_json(p, i, e)})
    else:
        print(summary_text(args.s, args.n, p, i, e))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = verify_all(args.nmax)
    if args.format == "json":
        _write_json(report.to_json_dict())
    else:
        print(report.to_text())
    return 0 if report.passed else 1


# The argument tuples that commands share, each declared once.
_CHAR = (
    ("--char", dict(type=_int, default=0, metavar="P",
                    help="field characteristic, 0 or a prime (default 0)")),
)
_ONE = (("partition", dict(help="comma-separated parts, e.g. 8,2,1")), *_CHAR)
_PAIR = (("left", {}), ("right", {}), *_CHAR)
_TABLE = (("s", dict(type=_int)), ("n", dict(type=_int)))

# One (name, help, handler, arguments) row per subcommand, in the order the
# help lists them.  Every subcommand ends with --format; only classify also
# writes csv.
_COMMANDS = (
    ("analyze", "all invariants of one partition", _cmd_analyze, _ONE),
    ("compare", "equivalence, isomorphism and Morita verdicts", _cmd_compare, _PAIR),
    ("iso", "isomorphism verdict only", _cmd_iso, _PAIR),
    ("morita", "Morita verdict only", _cmd_morita, _PAIR),
    ("classify", "equivalence classes of P(s,n)", _cmd_classify, _TABLE),
    ("self-equivalent", "partitions alone in their class", _cmd_self_equivalent, _TABLE),
    ("count", "p, i and e numbers of P(s,n)", _cmd_count, _TABLE),
    ("verify", "run the oracle cross-check sweep", _cmd_verify,
     (("--nmax", dict(type=_int, default=10)),)),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partinv",
        description="Exact partition invariants and fixed-matrix-algebra decisions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, arguments in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        formats = ["text", "json", "csv"] if name == "classify" else ["text", "json"]
        p.add_argument("--format", choices=formats, default="text")
        p.set_defaults(handler=handler)
    return parser


# Nothing in the parser depends on argv, so it is built once, at import;
# parse_args gives every call its own namespace.
_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        # An integer argument past the digit limit is refused (exit 4) here.
        args = _PARSER.parse_args(argv)
        code = args.handler(args)
        sys.stdout.flush()  # a closed pipe then fails here, not at exit
        return code
    except SystemExit as exc:  # from argparse alone: help, or a usage error
        return 0 if exc.code in (0, None) else 2
    except BrokenPipeError:
        # The reader is gone.  Point fd 1 at the null device, so that the
        # flush at interpreter exit has somewhere to write.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE, as a shell reports a process the pipe killed
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"internal consistency violation: {exc}", file=sys.stderr)
        return 3
    except BoundExceededError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:  # an int past sys.get_int_max_str_digits() in decimal
        if "integer string conversion" not in str(exc):
            raise
        print(f"refused: {digit_limit_error()}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
