"""Byte-stability of the command line: replay recorded calls, compare digests.

``golden/cli_digests.json`` lists ``cli.main`` argument vectors, each with
the exit code and the SHA-256 digests of stdout and stderr recorded for it:
``enumerate`` at n <= 6 in every mode (in every format up to n = 5),
``--irreducible`` with ``--maximal`` at n = 4..8, with ``--parts 0..5``
(padded or not) at n <= 6 and with ``--parts 1..6`` and padded ``--parts
3|4`` at n = 7, ``enumerate --n 7 --parts 7`` (an empty listing),
``enumerate --n 8 --irreducible`` in every format,
``simple-form`` on seeded degree-40 permutations (simple, plus- and
minus-decomposable, and inflations of a simple skeleton) and on degree-200
shuffles and inflations of (2,4,1,3) and ``exceptional(2, 3)``, ``verify`` on
type-A and signed part lists with their error paths and on one valid
rank-30 signed pair per family, the error paths of ``enumerate``,
``count`` for every family up to the bound n = 64, every ``series`` at
orders -1, 0, 1, 2, 12 and 201 in every format and G, SB and B at the bound
200 in csv, ``rays`` on triples of degree 8, 2 and 1, on seeded triples of
degree 40, 400 and 1000 in csv and json, and on malformed triples, and
``main([])``.  A refactor that keeps every output byte
passes unchanged.  A change meant to alter an output records the file again
and shows the new digests in its diff::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
from pathlib import Path

from rootdec.cli import SERIES_BY_NAME, main
from rootdec.decompose import FAMILIES
from rootdec.inflation import exceptional

GOLDEN = Path(__file__).parent / "golden" / "cli_digests.json"


class _Digest:
    """A text stream that keeps only the SHA-256 and the length of the text written to it.

    The degree-1000 ``rays`` outputs run to tens of megabytes, which a
    ``StringIO`` would hold whole.
    """

    def __init__(self) -> None:
        self.sha = hashlib.sha256()
        self.size = 0

    def write(self, text: str) -> int:
        self.sha.update(text.encode("utf-8"))
        self.size += len(text)
        return len(text)

    def flush(self) -> None:
        pass


def _call(argv: list[str]) -> dict[str, object]:
    out, err = _Digest(), _Digest()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {
        "argv": argv,
        "code": code,
        "stdout": out.sha.hexdigest(),
        "stderr": err.sha.hexdigest(),
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


def _irreducible_calls() -> list[list[str]]:
    # --irreducible combined with --maximal or --parts, and the degree-8
    # listing in every format (the largest the brute-force bound allows)
    calls = [["enumerate", "--n", str(n), "--maximal", "--irreducible"] for n in range(4, 9)]
    calls += [
        ["enumerate", "--n", str(n), "--irreducible", "--parts", str(r), *pad]
        for n in range(1, 7)
        for r in range(6)
        for pad in ([], ["--allow-identity"])
    ]
    calls += [["enumerate", "--n", "7", "--irreducible", "--parts", str(r)] for r in range(1, 7)]
    calls += [
        ["enumerate", "--n", "7", "--irreducible", "--parts", r, "--allow-identity"]
        for r in ("3", "4")
    ]
    # more parts than the n - 1 a cover can hold: an empty listing
    calls.append(["enumerate", "--n", "7", "--parts", "7"])
    return calls + [
        ["enumerate", "--n", "8", "--irreducible", "--format", fmt]
        for fmt in ("text", "csv", "json")
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
    perms.append(_inflated(rng, (2, 4, 1, 3), (7, 13, 9, 11)))
    return perms


def _inflated(rng: random.Random, skeleton, sizes) -> list[int]:
    """``skeleton`` inflated by shuffled parts of the given sizes."""
    inflated: list[int] = []
    for a, size in enumerate(sizes):
        offset = sum(sizes[b] for b in range(len(sizes)) if skeleton[b] < skeleton[a])
        inflated += [offset + v for v in _shuffled(rng, range(1, size + 1))]
    return inflated


def _large_simple_form_perms(rng: random.Random) -> list[list[int]]:
    # degree 200: two shuffles (mostly a simple skeleton of nearly 200 parts),
    # a small skeleton with four parts of 50, and an exceptional one with
    # parts of 10..40
    perms = [_shuffled(rng, range(1, 201)) for _ in range(2)]
    perms.append(_inflated(rng, (2, 4, 1, 3), (50, 50, 50, 50)))
    perms.append(_inflated(rng, exceptional(2, 3), (40, 10, 35, 40, 35, 40)))
    return perms


def _simple_form_calls() -> list[list[str]]:
    rng = random.Random(40)
    calls = []
    for k, perm in enumerate(_simple_form_perms(rng)):
        text = " ".join(map(str, perm))
        fmt = "json" if k % 3 == 0 else "text"
        calls.append(["simple-form", "--perm", text, "--format", fmt])
    calls += [["simple-form", "--perm", "1"], ["simple-form", "--perm", "2 2 1"]]
    calls += [
        ["simple-form", "--perm", " ".join(map(str, perm)), "--format", fmt]
        for perm in _large_simple_form_perms(random.Random(200))
        for fmt in ("text", "json")
    ]
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
    # signed diagnostics: a gap, an overlap and a long-root gap whose first
    # fault in B/C root order differs from the projected type-A diagnostic
    # of the embeddings, and a valid complement pair
    signed = [
        ("B", "1 2 3; -2 1 3"),
        ("C", "-1 2 3; 3 -1 -2"),
        ("C", "1 2; -1 2"),
        ("B", "-2 1 3 4; 2 -1 -3 -4"),
    ]
    calls += [
        ["verify", "--type", family, "--perms", text, "--format", fmt]
        for family, text in signed
        for fmt in ("text", "csv", "json")
    ]
    # a valid rank-30 complement pair (σ, −σ) per family, as in the benchmark
    signed_rng = random.Random(30)
    for family in ("B", "C"):
        sigma = [v * signed_rng.choice((1, -1)) for v in _shuffled(signed_rng, range(1, 31))]
        pair = " ".join(map(str, sigma)) + "; " + " ".join(str(-v) for v in sigma)
        calls += [
            ["verify", "--type", family, "--perms", pair, "--format", fmt]
            for fmt in ("text", "csv", "json")
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
    # the bound: B at 200 reaches every compose call site (G's identity
    # check, G into the SB right-hand side, A into SB)
    calls += [
        ["series", "--which", which, "--order", "200", "--format", "csv"]
        for which in ("G", "SB", "B")
    ]
    return calls + [["series", "--which", "SA"]]


GOLDEN_TRIPLE = ((5, 3, 4, 8, 1, 2, 6, 7), (4, 5, 6, 1, 7, 8, 3, 2), (1, 3, 2, 4, 6, 5, 7, 8))


def _random_triple(rng: random.Random, n: int) -> tuple[tuple[int, ...], ...]:
    """A valid triple of degree ``n`` built by recursive inflation.

    Two valid triples of degrees a and b combine into one of degree a + b:
    one part, chosen at random, is the skew sum ``(2,1)[u, v]`` (it inverts
    every cross pair) and the other two are direct sums ``(1,2)[u, v]``.
    Degree-8 leaves are often a shuffle of the degree-8 golden triple, so
    simple skeletons occur.
    """
    if n == 1:
        return ((1,), (1,), (1,))
    if n == 8 and rng.random() < 0.5:
        return tuple(rng.sample(GOLDEN_TRIPLE, 3))
    a = rng.randint(1, n - 1)
    left, right = _random_triple(rng, a), _random_triple(rng, n - a)
    skew = rng.randrange(3)
    return tuple(
        (*(x + n - a for x in u), *v) if t == skew else (*u, *(x + a for x in v))
        for t, (u, v) in enumerate(zip(left, right))
    )


def _rays_calls() -> list[list[str]]:
    triples = [
        "5 3 4 8 1 2 6 7; 4 5 6 1 7 8 3 2; 1 3 2 4 6 5 7 8",
        "2 1; 1 2; 1 2",
        "1;1;1",
    ]
    rng = random.Random(1000)
    triples += [
        "; ".join(" ".join(map(str, part)) for part in _random_triple(rng, n))
        for n in (40, 400, 1000)
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
    calls += _series_calls() + _rays_calls() + _usage_error_calls() + _irreducible_calls()
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
