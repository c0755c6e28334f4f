"""The ``rootdec`` command line: verify, count, enumerate, series, rays.

Exit codes form a stable contract: 0 on success, 1 when the input parses but
is domain-invalid (a non-decomposition, an out-of-bounds degree), 2 for
parse and usage errors.  Machine formats (``--format csv`` / ``json``) print
deterministically, so identical invocations give identical bytes.

A ``--config FILE`` of ``key = value`` lines may set ``brute_force_bound``
(degree ceiling for exhaustive enumeration, default 8) and ``series_order``
(default order for ``series``, default 40, at most 200 like ``--order``).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass

from .bcgroups import (
    TYPE_B,
    bc_inversion_set,
    embed_B,
    embed_C,
    parse_signed_permutation,
    verify_bc_decomposition,
)
from .decompose import (
    DEFAULT_ENUMERATION_BOUND,
    FAMILIES,
    count_structural,
    enumerate_decompositions,
    is_irreducible_structural,
    verify_decomposition,
)
from .genseries import (
    catalan,
    series_A,
    series_B,
    series_CatB,
    series_F,
    series_G,
    series_SB,
    simple_pairs_A,
)
from .inflation import simple_form
from .permcore import format_permutation, inversion_set, parse_permutation

OUTPUT_FORMATS = ("text", "csv", "json")
DEFAULT_SERIES_ORDER = 40
# The slowest series, B, takes about 16 s at this order (4 s at order 150) on
# a 2-core machine; larger orders are refused rather than left to run for minutes.
MAX_SERIES_ORDER = 200
CONFIG_KEYS = ("brute_force_bound", "series_order")

SERIES_BY_NAME = {
    "F": series_F,
    "G": series_G,
    "SA": simple_pairs_A,
    "A": series_A,
    "SB": series_SB,
    "B": series_B,
    "CATB": series_CatB,
}


@dataclass(frozen=True)
class RunConfig:
    """Settings resolved from defaults and the config file."""

    brute_force_bound: int = DEFAULT_ENUMERATION_BOUND
    series_order: int = DEFAULT_SERIES_ORDER

    def __post_init__(self) -> None:
        for name in CONFIG_KEYS:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")


def load_config_file(path: str) -> dict[str, int]:
    """Read ``key = value`` settings; ``#`` comments and blank lines allowed.

    Only ``brute_force_bound`` and ``series_order`` are recognized, both as
    positive integers.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    values: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        if key not in CONFIG_KEYS:
            raise ValueError(
                f"{path}:{lineno}: unknown setting {key!r}; "
                f"known settings: {', '.join(CONFIG_KEYS)}"
            )
        if not value.isdigit() or int(value) < 1:
            raise ValueError(
                f"{path}:{lineno}: {key} must be a positive integer, got {value!r}"
            )
        values[key] = int(value)
    return values


def _split_segments(text: str) -> list[str]:
    segments = [piece.strip() for piece in text.split(";")]
    if not segments or any(not piece for piece in segments):
        raise ValueError(f"expected ';'-separated permutations, got {text!r}")
    return segments


def _csv_lines(rows: list[list[object]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerows(rows)
    return buffer.getvalue()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rootdec",
        description=(
            "Verify, enumerate, and count decompositions of positive systems "
            "into permutation inversion sets; expand the counting series; "
            "compute the generating rays of the face a triple selects."
        ),
    )
    parser.add_argument(
        "--config",
        metavar="FILE",
        help="key = value file; may set brute_force_bound and series_order",
    )
    parser.add_argument("--seed-check", action="store_true", help=argparse.SUPPRESS)
    commands = parser.add_subparsers(dest="command", metavar="COMMAND")

    verify = commands.add_parser(
        "verify",
        help="check that the parts' inversion sets partition the positive system",
    )
    verify.add_argument("--type", choices=("A", "B", "C"), default="A")
    verify.add_argument(
        "--perms", required=True, metavar='"P1; P2; ..."',
        help="';'-separated one-line permutations (signed for types B and C)",
    )
    verify.add_argument(
        "--strict-no-identity", action="store_true",
        help="reject decompositions containing an identity part",
    )
    verify.add_argument("--format", choices=OUTPUT_FORMATS, default="text")

    count = commands.add_parser("count", help="exact counts for one family")
    count.add_argument("--family", required=True, choices=FAMILIES)
    count.add_argument("--max-n", required=True, type=int, dest="max_n")
    count.add_argument("--format", choices=OUTPUT_FORMATS, default="text")

    enum_cmd = commands.add_parser(
        "enumerate", help="list decompositions of one small degree"
    )
    enum_cmd.add_argument("--n", required=True, type=int)
    enum_cmd.add_argument("--parts", type=int, help="fixed part count r")
    enum_cmd.add_argument(
        "--maximal", action="store_true", help="one simple root per part"
    )
    enum_cmd.add_argument(
        "--irreducible", action="store_true", help="irreducible parts only"
    )
    enum_cmd.add_argument(
        "--allow-identity", action="store_true",
        help="pad with identity parts up to the fixed part count",
    )
    enum_cmd.add_argument("--format", choices=OUTPUT_FORMATS, default="text")

    rays_cmd = commands.add_parser(
        "rays", help="generating rays of the face selected by a triple"
    )
    rays_cmd.add_argument("--perms", required=True, metavar='"W1; W2; W3"')
    rays_cmd.add_argument("--format", choices=("csv", "json"), default="csv")

    form = commands.add_parser(
        "simple-form", help="canonical inflation expression of one permutation"
    )
    form.add_argument("--perm", required=True)
    form.add_argument("--format", choices=OUTPUT_FORMATS, default="text")

    series = commands.add_parser("series", help="counting-series coefficients")
    series.add_argument(
        "--which", required=True, choices=(*SERIES_BY_NAME, "CATALAN")
    )
    series.add_argument("--order", type=int)
    series.add_argument("--format", choices=OUTPUT_FORMATS, default="text")
    return parser


# ---------------------------------------------------------------------------
# verify


def _part_report_A(index: int, part: tuple[int, ...]) -> dict[str, object]:
    return {
        "index": index,
        "permutation": format_permutation(part),
        "inversions": len(inversion_set(part).roots),
        "irreducible": is_irreducible_structural(part),
        "simple_form": str(simple_form(part)) if len(part) >= 2 else "-",
    }


def _part_report_BC(index: int, part, family: str) -> dict[str, object]:
    # irreducibility and the form are judged on the symmetric embedding
    embedded = embed_B(part) if family == TYPE_B else embed_C(part)
    return {
        "index": index,
        "permutation": str(part),
        "inversions": len(bc_inversion_set(part, family)),
        "irreducible": is_irreducible_structural(embedded),
        "simple_form": str(simple_form(embedded)),
    }


def _print_verify_report(
    fmt: str, kind: str, valid: bool, detail: str, rows: list[dict[str, object]]
) -> None:
    if fmt == "json":
        print(
            json.dumps(
                {"type": kind, "valid": valid, "detail": detail, "parts": rows},
                indent=2,
            )
        )
    elif fmt == "csv":
        table = [["part", "permutation", "inversions", "irreducible", "simple_form"]]
        table.extend(
            [
                row["index"],
                row["permutation"],
                row["inversions"],
                "yes" if row["irreducible"] else "no",
                row["simple_form"],
            ]
            for row in rows
        )
        table.append(["status", "valid" if valid else "invalid", detail, "", ""])
        sys.stdout.write(_csv_lines(table))
    else:
        for row in rows:
            flag = "yes" if row["irreducible"] else "no"
            print(
                f"part {row['index']}: {row['permutation']} | "
                f"inversions {row['inversions']} | irreducible {flag} | "
                f"simple form {row['simple_form']}"
            )
        print(detail if valid else f"invalid: {detail}")


def _cmd_verify(args: argparse.Namespace, config: RunConfig) -> int:
    try:
        segments = _split_segments(args.perms)
        if args.type == "A":
            parts = [parse_permutation(piece) for piece in segments]
            degrees = {len(part) for part in parts}
        else:
            parts = [parse_signed_permutation(piece) for piece in segments]
            degrees = {part.n for part in parts}
        if len(degrees) != 1:
            raise ValueError(
                f"parts must share one degree, got {sorted(degrees)}"
            )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    allow_identity = not args.strict_no_identity
    if args.type == "A":
        result = verify_decomposition(len(parts[0]), parts, allow_identity)
        rows = [_part_report_A(k, part) for k, part in enumerate(parts, start=1)]
    else:
        result = verify_bc_decomposition(args.type, parts, allow_identity)
        rows = [
            _part_report_BC(k, part, args.type)
            for k, part in enumerate(parts, start=1)
        ]
    _print_verify_report(args.format, args.type, result.ok, result.detail, rows)
    return 0 if result.ok else 1


# ---------------------------------------------------------------------------
# count


def _cmd_count(args: argparse.Namespace, config: RunConfig) -> int:
    try:
        table = count_structural(args.family, args.max_n)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        print(
            json.dumps(
                {
                    "family": table.family,
                    "counts": [[n, c] for n, c in enumerate(table.counts, start=1)],
                },
                indent=2,
            )
        )
    elif args.format == "csv":
        sys.stdout.write(table.to_csv())
    else:
        for n, c in enumerate(table.counts, start=1):
            print(f"{table.family} n={n}: {c}")
    return 0


# ---------------------------------------------------------------------------
# enumerate


def _cmd_enumerate(args: argparse.Namespace, config: RunConfig) -> int:
    if args.n < 1:
        print("error: --n must be positive", file=sys.stderr)
        return 2
    if args.maximal and args.parts is not None:
        print("error: --maximal fixes the part count; drop --parts", file=sys.stderr)
        return 2
    if args.allow_identity and (args.parts is None or args.maximal):
        print(
            "error: --allow-identity pads up to a fixed --parts count",
            file=sys.stderr,
        )
        return 2
    if args.n > config.brute_force_bound:
        print(
            f"error: degree {args.n} exceeds the brute-force bound "
            f"{config.brute_force_bound}",
            file=sys.stderr,
        )
        return 1
    try:
        found = [
            str(dec)
            for dec in enumerate_decompositions(
                args.n,
                args.parts,
                irreducible_only=args.irreducible,
                allow_identity=args.allow_identity,
                maximal=args.maximal,
                bound=config.brute_force_bound,
            )
        ]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(
            json.dumps(
                {"n": args.n, "count": len(found), "decompositions": found},
                indent=2,
            )
        )
    elif args.format == "csv":
        rows: list[list[object]] = [["index", "decomposition"]]
        rows.extend([k, line] for k, line in enumerate(found, start=1))
        rows.append(["count", len(found)])
        sys.stdout.write(_csv_lines(rows))
    else:
        for line in found:
            print(line)
        print(f"count: {len(found)}")
    return 0


# ---------------------------------------------------------------------------
# rays


def _cmd_rays(args: argparse.Namespace, config: RunConfig) -> int:
    try:
        segments = _split_segments(args.perms)
        if len(segments) != 3:
            raise ValueError(f"expected exactly 3 permutations, got {len(segments)}")
        triple = [parse_permutation(piece) for piece in segments]
        if len({len(part) for part in triple}) != 1:
            raise ValueError("the three permutations must share one degree")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from .lrcone import rays, rays_json

    try:
        output = (
            rays_json(*triple)
            if args.format == "json"
            else rays(*triple).to_csv()
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(output)
    return 0


# ---------------------------------------------------------------------------
# simple-form


def _cmd_simple_form(args: argparse.Namespace, config: RunConfig) -> int:
    try:
        perm = parse_permutation(args.perm)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        form = simple_form(perm)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        print(
            json.dumps(
                {
                    "permutation": format_permutation(perm),
                    "skeleton_kind": form.skeleton_kind,
                    "expression": str(form),
                },
                indent=2,
            )
        )
    else:
        print(form)
    return 0


# ---------------------------------------------------------------------------
# series


def _cmd_series(args: argparse.Namespace, config: RunConfig) -> int:
    order = args.order if args.order is not None else config.series_order
    if order < 0:
        print("error: --order must be nonnegative", file=sys.stderr)
        return 2
    if order > MAX_SERIES_ORDER:
        print(f"error: --order must be at most {MAX_SERIES_ORDER}", file=sys.stderr)
        return 2
    if args.which == "CATALAN":
        values = [catalan(k) for k in range(order + 1)]
    else:
        try:
            values = list(SERIES_BY_NAME[args.which](order).coeffs)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    if args.format == "json":
        print(
            json.dumps(
                {
                    "series": args.which,
                    "coefficients": [[n, c] for n, c in enumerate(values)],
                },
                indent=2,
            )
        )
    elif args.format == "csv":
        lines = ["series,n,coefficient"]
        lines.extend(f"{args.which},{n},{c}" for n, c in enumerate(values))
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        for n, c in enumerate(values):
            print(f"{args.which} n={n}: {c}")
    return 0


_HANDLERS = {
    "verify": _cmd_verify,
    "count": _cmd_count,
    "enumerate": _cmd_enumerate,
    "rays": _cmd_rays,
    "simple-form": _cmd_simple_form,
    "series": _cmd_series,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = RunConfig(**load_config_file(args.config)) if args.config else RunConfig()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.seed_check:
        from .acceptance import run_acceptance

        return run_acceptance()
    if args.command is None:
        parser.print_usage(sys.stderr)
        print("error: a command is required", file=sys.stderr)
        return 2
    return _HANDLERS[args.command](args, config)


if __name__ == "__main__":
    sys.exit(main())
