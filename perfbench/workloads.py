"""The benchmark's workloads: seeded batches of ``rootdec`` invocations.

A batch is a fixed list of invocations, each with the exit code and output it
must produce.  The seed shuffles the order, picks output formats and builds
the random inputs; the library only ever receives the generated text.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass, field
from typing import Callable

import reference as ref

WORKLOADS = ("search", "series", "faces")
FORMATS = ("text", "csv", "json")

# Heavy series orders, one per series, spread over 60..90.  They are fixed so
# that a batch costs the same for every seed.
SERIES_ORDERS = {"G": 90, "SA": 70, "A": 70, "SB": 80, "B": 60}
LIGHT_SERIES_ORDER = 80
COUNT_MAX_N = 64
FAMILIES = (
    "A_IRREDUCIBLE", "A_MAXIMAL", "A_TRIPLES", "BC_IRREDUCIBLE",
    "BC_MAXIMAL", "BC_TRIPLES", "SIMPLE_PAIRS_A", "SIMPLE_PAIRS_BC",
)

ENUMERATIONS = (
    ("enumerate", "--n", "7", "--parts", "3", "--allow-identity", "--format", "csv"),
    ("enumerate", "--n", "7", "--parts", "4", "--allow-identity"),
    ("enumerate", "--n", "7", "--irreducible", "--format", "json"),
    ("enumerate", "--n", "8", "--maximal"),
)
# Frozen result counts; the --parts 4 listing is pinned by its digest alone.
ENUMERATION_COUNTS = {ENUMERATIONS[0]: 10474, ENUMERATIONS[2]: 717, ENUMERATIONS[3]: 429}

RAYS_CSV_DEGREES = (100, 200, 400)
RAYS_JSON_DEGREES = (100, 200)
BC_RANKS = (60, 80, 100)
SIMPLE_FORM_DEGREE = 200
SHUFFLES, SEPARABLES = 8, 4

_SECONDS = re.compile(r"\d+\.\d+s")


@dataclass
class Invocation:
    """One ``rootdec`` call and what it must do.

    ``stdout`` is the exact expected text (None: not compared); ``check``
    reads stdout and returns a complaint or None.  An invocation with
    ``known_defect`` set documents a seed failure: it runs once per run,
    outside the timed batches, and its verdict is reported on its own.
    ``error`` marks an invalid input: it must print one ``error:`` line on
    stderr and nothing on stdout.
    """

    argv: tuple[str, ...]
    codes: tuple[int, ...] = (0,)
    stdout: str | None = None
    check: Callable[[str], str | None] | None = field(default=None, repr=False)
    error: bool = False
    known_defect: str | None = None

    def label(self) -> str:
        text = " ".join(self.argv)
        return text if len(text) <= 72 else text[:69] + "..."


def verdict(inv: Invocation, code: int, out: str, err: str) -> str | None:
    """None when the invocation did what it must, else the reason it failed."""
    if "Traceback" in err:
        return f"traceback on stderr (exit {code})"
    if code not in inv.codes:
        return f"exit {code}, expected {' or '.join(map(str, inv.codes))}"
    if inv.error and (out or not err.startswith("error:")):
        return "an invalid input must print only an 'error:' line on stderr"
    if inv.stdout is not None and out != inv.stdout:
        return "stdout differs from the expected output"
    if inv.check is not None:
        return inv.check(out)
    return None


def normalize(argv, out: str) -> str:
    """Stdout with its timing figures masked (only --seed-check prints any)."""
    return _SECONDS.sub("#s", out) if "--seed-check" in argv else out


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# checks


def _digest_check(expected: str) -> Callable[[str], str | None]:
    def check(out: str) -> str | None:
        return None if sha256(out) == expected else "stdout digest differs from the seed record"

    return check


def _enumeration_check(argv, record: dict) -> Callable[[str], str | None]:
    digest = _digest_check(record["sha256"])
    want = ENUMERATION_COUNTS.get(argv)

    def check(out: str) -> str | None:
        if want is not None:
            if "--format" in argv and "json" in argv:
                got = json.loads(out)["count"]
            else:
                got = int(re.split(r"[,: ]+", out.strip().splitlines()[-1])[-1])
            if got != want:
                return f"{got} results, expected {want}"
        return digest(out)

    return check


def _seed_check(out: str) -> str | None:
    lines = out.splitlines()
    verdicts = [re.match(r"criterion (\d): (PASS|FAIL) ", line) for line in lines[:8]]
    if len(lines) != 9 or not all(verdicts):
        return "expected eight criterion lines and a summary"
    failing = [int(m.group(1)) for m in verdicts if m.group(2) == "FAIL"]
    if failing != [2, 7] or lines[8] != "summary: 6/8 criteria passed, 2 failed":
        return f"criteria {failing} fail, expected exactly 2 and 7"
    return None


def _error(argv, codes) -> Invocation:
    return Invocation(tuple(argv), codes=codes, error=True)


# ---------------------------------------------------------------------------
# batches


def search_batch(rng: random.Random, expected: dict) -> list[Invocation]:
    batch = [
        Invocation(argv, check=_enumeration_check(argv, expected["enumerate"][" ".join(argv)]))
        for argv in ENUMERATIONS
    ]
    batch.append(Invocation(("--seed-check",), codes=(1,), check=_seed_check))
    rng.shuffle(batch)
    return batch


def _series(name: str, order: int, output_format: str, expected: dict) -> Invocation:
    values = (
        [ref.catalan(k) for k in range(order + 1)]
        if name == "CATALAN"
        else expected["series"][name][: order + 1]
    )
    return Invocation(
        ("series", "--which", name, "--order", str(order), "--format", output_format),
        stdout=ref.series_output(name, values, output_format),
    )


def series_batch(rng: random.Random, expected: dict) -> list[Invocation]:
    batch = [
        _series(name, order, rng.choice(FORMATS), expected)
        for name, order in SERIES_ORDERS.items()
    ]
    batch += [
        _series(name, LIGHT_SERIES_ORDER, rng.choice(FORMATS), expected)
        for name in ("CATB", "CATALAN", "F")
    ]
    for family in FAMILIES:
        output_format = rng.choice(FORMATS)
        batch.append(
            Invocation(
                ("count", "--family", family, "--max-n", str(COUNT_MAX_N), "--format", output_format),
                stdout=ref.count_output(family, expected["count"][family], output_format),
            )
        )
    rng.shuffle(batch)
    return batch


def series_probes() -> list[Invocation]:
    return [
        Invocation(
            ("series", "--which", "F", "--order", "1"),
            codes=(1, 2),
            error=True,
            known_defect="series_F raises on order 1 and the CLI prints a traceback",
        )
    ]


def _perms(parts) -> str:
    return "; ".join(ref.fmt(p) for p in parts)


def faces_batch(rng: random.Random, expected: dict) -> list[Invocation]:
    """Large seeded triples, signed pairs and permutations; every input is checked."""
    batch: list[Invocation] = []
    triples = {}
    for n in sorted(set(RAYS_CSV_DEGREES) | set(RAYS_JSON_DEGREES)):
        triple = ref.random_triple(rng, n)
        if not ref.partitions_pairs(list(triple)):
            raise AssertionError(f"generated triple of degree {n} is not a decomposition")
        triples[n] = triple
    for n in RAYS_CSV_DEGREES:
        batch.append(
            Invocation(("rays", "--perms", _perms(triples[n])), stdout=ref.rays_output(triples[n], "csv"))
        )
        output_format = rng.choice(FORMATS)
        batch.append(
            Invocation(
                ("verify", "--type", "A", "--perms", _perms(triples[n]), "--format", output_format),
                stdout=ref.verify_output("A", list(triples[n]), output_format),
            )
        )
    for n in RAYS_JSON_DEGREES:
        batch.append(
            Invocation(
                ("rays", "--format", "json", "--perms", _perms(triples[n])),
                stdout=ref.rays_output(triples[n], "json"),
            )
        )
    for n in BC_RANKS:
        family = rng.choice("BC")
        sigma = ref.random_signed(rng, n)
        pair = (sigma, tuple(-v for v in sigma))
        if not ref.valid_bc_pair(pair, family):
            raise AssertionError(f"generated type-{family} pair of rank {n} is not a decomposition")
        output_format = rng.choice(FORMATS)
        batch.append(
            Invocation(
                ("verify", "--type", family, "--perms", _perms(pair), "--format", output_format),
                stdout=ref.verify_output(family, list(pair), output_format),
            )
        )
    perms = [ref.random_shuffle(rng, SIMPLE_FORM_DEGREE) for _ in range(SHUFFLES)]
    perms += [ref.random_separable(rng, SIMPLE_FORM_DEGREE) for _ in range(SEPARABLES)]
    for perm in perms:
        if not ref.is_permutation(perm):
            raise AssertionError("generated simple-form input is not a permutation")
        output_format = rng.choice(FORMATS)
        batch.append(
            Invocation(
                ("simple-form", "--perm", ref.fmt(perm), "--format", output_format),
                stdout=ref.simple_form_output(perm, output_format),
            )
        )
    # invalid inputs: two domain errors (exit 1), two parse errors (exit 2)
    w1, w2, w3 = triples[RAYS_CSV_DEGREES[0]]
    overlap = w1 if w1 != tuple(sorted(w1)) else w2
    batch += [
        _error(("rays", "--perms", _perms((overlap, overlap, w3))), (1,)),
        _error(("simple-form", "--perm", "1"), (1,)),
        _error(("rays", "--perms", _perms((w1, w2))), (2,)),
        _error(("simple-form", "--perm", ref.fmt(perms[0][:-1] + (perms[0][0],))), (2,)),
    ]
    rng.shuffle(batch)
    return batch


BATCHES = {"search": search_batch, "series": series_batch, "faces": faces_batch}
PROBES = {"series": series_probes}


def build(workload: str, seed: int, expected: dict) -> tuple[list[Invocation], list[Invocation]]:
    """The workload's batch and its known-defect probes for one seed."""
    rng = random.Random(f"{workload}:{seed}")
    return BATCHES[workload](rng, expected), PROBES.get(workload, lambda: [])()
