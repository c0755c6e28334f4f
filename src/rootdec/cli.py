"""The ``rootdec`` command line: verify, count, enumerate, series, rays.

Exit codes form a stable contract: 0 on success, 1 when the input parses but
is domain-invalid (a non-decomposition, an out-of-bounds degree), 2 for
parse and usage errors.  Every refused call takes one path: a handler raises
``_Exit`` with the code and the message (``_errors`` turns a library
``ValueError`` into one), and :func:`main` alone prints the single
``error: ...`` line to stderr; a stdout that is closed or full ends the call
the same way, with exit 1.  ``verify``, ``count``, ``enumerate`` and
``series`` print through one text/csv/json emitter.  Machine formats
(``--format csv`` / ``json``) print deterministically, so identical
invocations give identical bytes.

A ``--config FILE`` of ``key = value`` lines may set ``brute_force_bound``
(degree ceiling for exhaustive enumeration, 1..8, default 8; a larger value
is refused when the file is read, because the unrestricted and ``--parts``
listings without ``--irreducible`` coarsen every irreducible decomposition,
8.7 million coarsenings of 49,570 of them at degree 9) and ``series_order``
(default order for ``series``, default 40, at most 200 like ``--order``).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
from dataclasses import dataclass

from .bcgroups import (
    TYPE_B,
    bc_inversion_count,
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
    inversion_count,
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
from .inflation import SIMPLE, simple_form
from .permcore import format_permutation, identity, parse_permutation

OUTPUT_FORMATS = ("text", "csv", "json")
DEFAULT_SERIES_ORDER = 40
# The slowest series, B, takes about 2 s at this order (0.9 s at order 150) as
# a subprocess on a 2-core machine.  Larger orders are refused, since the cost
# grows as the cube of the order; raising the bound would change which calls
# exit 2.
MAX_SERIES_ORDER = 200
# rays writes its output as it is made: at degree 1000, 12 MB of csv or 54 MB of
# json in about 0.3 s and 20 MiB as a subprocess on 2 cores.  The output grows as
# the square of the degree, so a larger bound should be set by output size.
MAX_RAYS_DEGREE = 1000
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
        # the cost that DEFAULT_ENUMERATION_BOUND keeps out is measured there
        if self.brute_force_bound > DEFAULT_ENUMERATION_BOUND:
            raise ValueError(
                f"brute_force_bound must be at most {DEFAULT_ENUMERATION_BOUND}, "
                f"got {self.brute_force_bound}"
            )


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
        if not value.isdecimal() or int(value) < 1:
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

    count = commands.add_parser("count", help="exact counts for one family")
    count.add_argument("--family", required=True, choices=FAMILIES)
    count.add_argument("--max-n", required=True, type=int, dest="max_n")

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

    rays_cmd = commands.add_parser(
        "rays", help="generating rays of the face selected by a triple"
    )
    rays_cmd.add_argument("--perms", required=True, metavar='"W1; W2; W3"')
    rays_cmd.add_argument("--format", choices=("csv", "json"), default="csv")

    form = commands.add_parser(
        "simple-form", help="canonical inflation expression of one permutation"
    )
    form.add_argument("--perm", required=True)

    series = commands.add_parser("series", help="counting-series coefficients")
    series.add_argument(
        "--which", required=True, choices=(*SERIES_BY_NAME, "CATALAN")
    )
    series.add_argument("--order", type=int)
    for command in (verify, count, enum_cmd, form, series):
        command.add_argument("--format", choices=OUTPUT_FORMATS, default="text")
    return parser


# ---------------------------------------------------------------------------
# the error path and the output emitter


class _Exit(Exception):
    """``_Exit(code, message)``: :func:`main` prints ``error: <message>`` and returns ``code``."""


class _errors:
    """Report a ``ValueError`` raised in the block as an :class:`_Exit` with ``code``.

    A class like ``contextlib.suppress``: perfbench's tracer expects no
    ``__wrapped__`` function, which ``@contextmanager`` would leave here.
    """

    def __init__(self, code: int) -> None:
        self.code = code

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, exc, traceback) -> None:
        if isinstance(exc, ValueError):
            raise _Exit(self.code, str(exc)) from exc


def _emit(fmt: str, payload: dict[str, object], rows, lines) -> None:
    """Print ``payload`` as JSON, ``rows`` as CSV, or ``lines`` as text."""
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    elif fmt == "csv":
        csv.writer(sys.stdout, lineterminator="\n").writerows(rows)
    else:
        for line in lines:
            print(line)


def _emit_indexed(fmt: str, label: str, column: str, name: str, start: int, values) -> None:
    """One value per index n = start, start + 1, ...: the ``count`` and ``series`` tables."""
    indexed = [[n, value] for n, value in enumerate(values, start=start)]
    _emit(
        fmt,
        {label: name, f"{column}s": indexed},
        [[label, "n", column], *([name, n, value] for n, value in indexed)],
        (f"{name} n={n}: {value}" for n, value in indexed),
    )


# ---------------------------------------------------------------------------
# verify


def _part_report(index: int, text: str, inversions: int, sigma) -> dict[str, object]:
    """One part's row; the last two columns treat ``sigma`` (a B/C part's embedding) as type A."""
    form = simple_form(sigma) if len(sigma) > 1 else None
    if form is not None and form.skeleton_kind == SIMPLE:
        # the form has walked sigma already; with a simple skeleton of degree
        # >= 4 sigma is plus- and minus-indecomposable, so the paper's shape
        # has no fixed ends and sigma is irreducible iff every block is an identity
        irreducible = all(part == identity(len(part)) for part in form.parts)
    else:
        irreducible = is_irreducible_structural(sigma)
    return {
        "index": index,
        "permutation": text,
        "inversions": inversions,
        "irreducible": irreducible,
        "simple_form": str(form) if form else "-",
    }


def _cmd_verify(args: argparse.Namespace, config: RunConfig) -> int:
    with _errors(2):
        segments = _split_segments(args.perms)
        if args.type == "A":
            parts = [parse_permutation(piece) for piece in segments]
            degrees = {len(part) for part in parts}
        else:
            parts = [parse_signed_permutation(piece) for piece in segments]
            degrees = {part.n for part in parts}
        if len(degrees) != 1:
            raise ValueError(f"parts must share one degree, got {sorted(degrees)}")

    allow_identity = not args.strict_no_identity
    if args.type == "A":
        result = verify_decomposition(len(parts[0]), parts, allow_identity)
        rows = [
            _part_report(k, format_permutation(part), inversion_count(part), part)
            for k, part in enumerate(parts, start=1)
        ]
    else:
        result = verify_bc_decomposition(args.type, parts, allow_identity)
        embed = embed_B if args.type == TYPE_B else embed_C
        rows = [
            _part_report(k, str(part), bc_inversion_count(part, args.type), embed(part))
            for k, part in enumerate(parts, start=1)
        ]
    table = [["part", "permutation", "inversions", "irreducible", "simple_form"]]
    lines = []
    for row in rows:
        index, text, inversions, irreducible, form = row.values()
        flag = "yes" if irreducible else "no"
        table.append([index, text, inversions, flag, form])
        lines.append(
            f"part {index}: {text} | inversions {inversions} | "
            f"irreducible {flag} | simple form {form}"
        )
    table.append(["status", "valid" if result.ok else "invalid", result.detail, "", ""])
    lines.append(result.detail if result.ok else f"invalid: {result.detail}")
    _emit(
        args.format,
        {"type": args.type, "valid": result.ok, "detail": result.detail, "parts": rows},
        table,
        lines,
    )
    return 0 if result.ok else 1


# ---------------------------------------------------------------------------
# count


def _cmd_count(args: argparse.Namespace, config: RunConfig) -> int:
    with _errors(1):
        table = count_structural(args.family, args.max_n)
    _emit_indexed(args.format, "family", "count", table.family, 1, table.counts)
    return 0


# ---------------------------------------------------------------------------
# enumerate


def _cmd_enumerate(args: argparse.Namespace, config: RunConfig) -> int:
    if args.n < 1:
        raise _Exit(2, "--n must be positive")
    if args.maximal and args.parts is not None:
        raise _Exit(2, "--maximal fixes the part count; drop --parts")
    if args.allow_identity and (args.parts is None or args.maximal):
        raise _Exit(2, "--allow-identity pads up to a fixed --parts count")
    if args.n > config.brute_force_bound:
        raise _Exit(
            1, f"degree {args.n} exceeds the brute-force bound {config.brute_force_bound}"
        )
    with _errors(2):
        found = [
            str(dec)
            for dec in enumerate_decompositions(
                args.n,
                args.parts,
                irreducible_only=args.irreducible,
                allow_identity=args.allow_identity,
                maximal=args.maximal,
            )
        ]
    _emit(
        args.format,
        {"n": args.n, "count": len(found), "decompositions": found},
        [["index", "decomposition"], *enumerate(found, start=1), ["count", len(found)]],
        [*found, f"count: {len(found)}"],
    )
    return 0


# ---------------------------------------------------------------------------
# rays


def _cmd_rays(args: argparse.Namespace, config: RunConfig) -> int:
    with _errors(2):
        segments = _split_segments(args.perms)
        if len(segments) != 3:
            raise ValueError(f"expected exactly 3 permutations, got {len(segments)}")
        triple = [parse_permutation(piece) for piece in segments]
        if len({len(part) for part in triple}) != 1:
            raise ValueError("the three permutations must share one degree")
    if len(triple[0]) > MAX_RAYS_DEGREE:
        raise _Exit(1, f"degree {len(triple[0])} exceeds the rays bound {MAX_RAYS_DEGREE}")
    from .lrcone import rays, rays_json

    with _errors(1):
        lines = rays_json(*triple) if args.format == "json" else rays(*triple).csv_lines()
    # checked and solved: only writing is left
    for line in lines:
        sys.stdout.write(line)
    return 0


# ---------------------------------------------------------------------------
# simple-form


def _cmd_simple_form(args: argparse.Namespace, config: RunConfig) -> int:
    with _errors(2):
        perm = parse_permutation(args.perm)
    with _errors(1):
        form = simple_form(perm)
    expression = str(form)
    payload = {
        "permutation": format_permutation(perm),
        "skeleton_kind": form.skeleton_kind,
        "expression": expression,
    }
    # csv prints the bare expression, as text does: one unquoted field
    _emit("json" if args.format == "json" else "text", payload, [], [expression])
    return 0


# ---------------------------------------------------------------------------
# series


def _cmd_series(args: argparse.Namespace, config: RunConfig) -> int:
    order = args.order if args.order is not None else config.series_order
    if order < 0:
        raise _Exit(2, "--order must be nonnegative")
    if order > MAX_SERIES_ORDER:
        raise _Exit(2, f"--order must be at most {MAX_SERIES_ORDER}")
    if args.which == "CATALAN":
        values = [catalan(k) for k in range(order + 1)]
    else:
        with _errors(1):
            values = SERIES_BY_NAME[args.which](order).coeffs
    _emit_indexed(args.format, "series", "coefficient", args.which, 0, values)
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
        with _errors(2):
            config = RunConfig(**load_config_file(args.config)) if args.config else RunConfig()
        if args.seed_check:
            from .acceptance import run_acceptance

            code = run_acceptance()
        elif args.command is None:
            parser.print_usage(sys.stderr)
            raise _Exit(2, "a command is required")
        else:
            code = _HANDLERS[args.command](args, config)
        sys.stdout.flush()
        return code
    except _Exit as exc:
        code, message = exc.args
        print(f"error: {message}", file=sys.stderr)
        return code
    except OSError as exc:
        # stdout was closed (a reader such as `head` left) or is full; the
        # interpreter's final flush then writes what is left to /dev/null
        with contextlib.suppress(AttributeError, OSError, ValueError):  # no descriptor
            stdout = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, stdout)
            os.close(devnull)
        print(f"error: cannot write output: {exc.strerror or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
