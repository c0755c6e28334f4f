"""Byte-stability of the command line: replay recorded calls, compare digests.

``golden/cli_digests.json`` lists ``cli.main`` argument vectors, each with
the exit code and the SHA-256 digests of stdout and stderr recorded for it:
``enumerate`` at n <= 6 in every mode (in every format up to n = 5),
``simple-form`` on seeded degree-40 permutations (simple, plus- and
minus-decomposable, and inflations of a simple skeleton), the error paths
of ``verify`` and ``enumerate``, ``count`` for every family up to the bound
n = 64, every ``series`` at orders -1..201 in every format, ``rays`` on
triples of degree 8, 2 and 1 and on malformed triples, and ``main([])``.
The whole list runs in under 3 s.  A refactor that keeps every output byte
passes unchanged.  A change meant to alter an output records the file again
and shows the new digests in its diff::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

from rootdec.cli import SERIES_BY_NAME, main
from rootdec.decompose import FAMILIES

GOLDEN = Path(__file__).parent / "golden" / "cli_digests.json"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _call(argv: list[str]) -> dict[str, object]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {
        "argv": argv,
        "code": code,
        "stdout": _digest(out.getvalue()),
        "stderr": _digest(err.getvalue()),
    }


def _enumerate_calls() -> list[list[str]]:
    modes = [[], ["--irreducible"], ["--maximal"]]
    modes += [["--parts", str(r)] for r in range(5)]
    modes += [["--parts", str(r), "--allow-identity"] for r in range(1, 5)]
    # the formats print the same list at every n, so n = 6 runs text only
    return [
        ["enumerate", "--n", str(n), *mode, "--format", fmt]
        for n in range(1, 7)
        for mode in modes
        for fmt in (("text", "csv", "json") if n < 6 else ("text",))
    ]


def _shuffled(rng: random.Random, values) -> list[int]:
    values = list(values)
    rng.shuffle(values)
    return values


def _simple_form_perms(rng: random.Random, n: int = 40) -> list[list[int]]:
    # random permutations: mostly a simple skeleton with nontrivial parts,
    # some simple outright
    perms = [_shuffled(rng, range(1, n + 1)) for _ in range(24)]
    for cut in (1, 17, 39):
        low = _shuffled(rng, range(1, cut + 1))
        high = _shuffled(rng, range(cut + 1, n + 1))
        perms.append(low + high)  # plus-decomposable
        perms.append([v + n - cut for v in low] + [v - cut for v in high])  # minus
    half = n // 2
    perms.append([*range(2, n + 1, 2), *range(1, n, 2)])  # exceptional, simple
    perms.append([v for t in range(1, half + 1) for v in (half + t, t)])
    # the simple skeleton 2 4 1 3 inflated by random parts
    skeleton, sizes = (2, 4, 1, 3), (7, 13, 9, 11)
    inflated: list[int] = []
    for a, size in enumerate(sizes):
        offset = sum(sizes[b] for b in range(4) if skeleton[b] < skeleton[a])
        inflated += [offset + v for v in _shuffled(rng, range(1, size + 1))]
    perms.append(inflated)
    return perms


def _simple_form_calls() -> list[list[str]]:
    rng = random.Random(40)
    calls = []
    for k, perm in enumerate(_simple_form_perms(rng)):
        text = " ".join(map(str, perm))
        fmt = "json" if k % 3 == 0 else "text"
        calls.append(["simple-form", "--perm", text, "--format", fmt])
    calls += [["simple-form", "--perm", "1"], ["simple-form", "--perm", "2 2 1"]]
    return calls


def _verify_calls() -> list[list[str]]:
    rng = random.Random(5)
    lists = [
        "2 1; banana",
        "2 1; 1 3 2",
        " ; ",
        "1 1",
        "2 1 3; 2 1 3",
        "2 1 3",
        "3 2 1; 2 1 3; 1 3 2",
        "5 3 4 8 1 2 6 7; 4 5 6 1 7 8 3 2; 1 3 2 4 6 5 8 7",
    ]
    for _ in range(10):
        parts = [_shuffled(rng, range(1, 6)) for _ in range(rng.randint(1, 4))]
        lists.append("; ".join(" ".join(map(str, p)) for p in parts))
    calls = [
        ["verify", "--perms", text, "--format", fmt]
        for text in lists
        for fmt in ("text", "csv", "json")
    ]
    calls += [["verify", "--strict-no-identity", "--perms", text] for text in lists]
    calls += [
        ["verify", "--strict-no-identity", "--perms", "1 2; 2 1"],
        ["verify", "--type", "B", "--perms", "-1; -1"],
        ["verify", "--type", "B", "--perms", "1 -2; -1"],
        ["verify", "--type", "C", "--strict-no-identity", "--perms", "-1 -2; 1 2"],
        ["verify", "--type", "C", "--perms", "-1 -2; 3 1"],
    ]
    return calls


def _count_calls() -> list[list[str]]:
    calls = []
    for family in FAMILIES:
        calls.append(["count", "--family", family, "--max-n", "64", "--format", "csv"])
        for fmt in ("text", "json"):
            calls.append(["count", "--family", family, "--max-n", "12", "--format", fmt])
        # below 1 and above the bound: one error line, exit 1
        calls += [["count", "--family", family, "--max-n", n] for n in ("0", "65")]
    return calls


def _series_calls() -> list[list[str]]:
    # -1 and 201 lie outside 0..200 (exit 2); 0 and 1 fall below some series'
    # minimum order (exit 1)
    calls = [
        ["series", "--which", which, "--order", order, "--format", fmt]
        for which in (*SERIES_BY_NAME, "CATALAN")
        for order in ("-1", "0", "1", "2", "12", "201")
        for fmt in ("text", "csv", "json")
    ]
    return calls + [["series", "--which", "SA"]]


def _rays_calls() -> list[list[str]]:
    triples = [
        "5 3 4 8 1 2 6 7; 4 5 6 1 7 8 3 2; 1 3 2 4 6 5 7 8",
        "2 1; 1 2; 1 2",
        "1;1;1",
    ]
    calls = [
        ["rays", "--perms", text, "--format", fmt]
        for text in triples
        for fmt in ("csv", "json")
    ]
    errors = ["2 1; 1 2", "x; 1 2; 2 1", "2 1; 1 2 3; 1 2", "2 1 3; 2 1 3; 1 2 3"]
    return calls + [["rays", "--perms", text] for text in errors]


def _usage_error_calls() -> list[list[str]]:
    enumerate_errors = [
        ["--n", "9"],
        ["--n", "4", "--maximal", "--parts", "2"],
        ["--n", "4", "--allow-identity"],
        ["--n", "4", "--maximal", "--allow-identity"],
        ["--n", "4", "--parts", "-1"],
        ["--n", "0"],
    ]
    return [["enumerate", *argv] for argv in enumerate_errors] + [[]]


def record() -> list[dict[str, object]]:
    calls = _enumerate_calls() + _simple_form_calls() + _verify_calls() + _count_calls()
    calls += _series_calls() + _rays_calls() + _usage_error_calls()
    return [_call(argv) for argv in calls]


def test_cli_outputs_match_the_recorded_digests():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(expected) > 500
    mismatched = [
        entry["argv"] for entry in expected if _call(entry["argv"]) != entry
    ]
    assert not mismatched, mismatched


if __name__ == "__main__":
    lines = ",\n".join(json.dumps(entry) for entry in record())
    GOLDEN.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
