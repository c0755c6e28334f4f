"""Seeded inputs and the expected outputs the benchmark checks against.

Nothing here imports ``rootdec``: every input is built and checked, and every
expected output for a generated input is computed, by the small independent
routines below.  Outputs of the fixed invocations (enumeration, series,
counts) are compared with values recorded at the seed commit in
``expected.json`` instead.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from collections import Counter
from functools import lru_cache

Perm = tuple[int, ...]
Triple = tuple[Perm, Perm, Perm]

GOLDEN_TRIPLE: Triple = (
    (5, 3, 4, 8, 1, 2, 6, 7),
    (4, 5, 6, 1, 7, 8, 3, 2),
    (1, 3, 2, 4, 6, 5, 7, 8),
)
SIDES = "abc"

# series name -> the count family with the same coefficients on n = 1..64
SERIES_FAMILY = {
    "A": "A_IRREDUCIBLE",
    "B": "BC_IRREDUCIBLE",
    "SA": "SIMPLE_PAIRS_A",
    "SB": "SIMPLE_PAIRS_BC",
    "CATB": "BC_MAXIMAL",
}


# ---------------------------------------------------------------------------
# permutations


def fmt(perm) -> str:
    return " ".join(str(v) for v in perm)


def direct_sum(u: Perm, v: Perm) -> Perm:
    """``(1,2)[u, v]``: u on the low values, then v shifted above it."""
    return u + tuple(x + len(u) for x in v)


def skew_sum(u: Perm, v: Perm) -> Perm:
    """``(2,1)[u, v]``: u shifted above v, then v on the low values."""
    return tuple(x + len(v) for x in u) + v


def standardize(values) -> Perm:
    ranks = {v: k for k, v in enumerate(sorted(values), start=1)}
    return tuple(ranks[v] for v in values)


def is_permutation(perm) -> bool:
    return sorted(perm) == list(range(1, len(perm) + 1))


def inversion_count(perm: Perm) -> int:
    n = len(perm)
    return sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])


# ---------------------------------------------------------------------------
# generators


def random_triple(rng: random.Random, n: int) -> Triple:
    """A valid triple of degree ``n`` built by recursive inflation.

    Two valid triples of degrees a and b combine into one of degree a + b:
    one part, chosen at random, is the skew sum ``(2,1)[u, v]`` (it inverts
    every cross pair) and the other two are direct sums ``(1,2)[u, v]``.
    Degree-8 leaves are often the golden triple, so simple skeletons occur.
    """
    if n == 1:
        return ((1,), (1,), (1,))
    if n == 8 and rng.random() < 0.5:
        parts = list(GOLDEN_TRIPLE)
        rng.shuffle(parts)
        return tuple(parts)
    a = 8 if n > 8 and rng.random() < 0.3 else rng.randint(1, n - 1)
    left, right = random_triple(rng, a), random_triple(rng, n - a)
    skew = rng.randrange(3)
    return tuple(
        skew_sum(u, v) if t == skew else direct_sum(u, v)
        for t, (u, v) in enumerate(zip(left, right))
    )


def random_signed(rng: random.Random, n: int) -> Perm:
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return tuple(v if rng.random() < 0.5 else -v for v in images)


def random_shuffle(rng: random.Random, n: int) -> Perm:
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return tuple(images)


def random_separable(rng: random.Random, n: int) -> Perm:
    """A separable permutation: built from (1) by direct and skew sums only."""
    if n == 1:
        return (1,)
    a = rng.randint(1, n - 1)
    join = direct_sum if rng.random() < 0.5 else skew_sum
    return join(random_separable(rng, a), random_separable(rng, n - a))


# ---------------------------------------------------------------------------
# validity checks


def partitions_pairs(parts: list[Perm]) -> bool:
    """True iff every pair i < j is inverted by exactly one of the parts."""
    n = len(parts[0])
    if any(len(p) != n or not is_permutation(p) for p in parts):
        return False
    for i in range(n):
        for j in range(i + 1, n):
            if sum(p[i] > p[j] for p in parts) != 1:
                return False
    return True


def embed(signed: Perm, family: str) -> Perm:
    """The symmetric embedding of a signed permutation (degree 2n+1 for B, 2n for C)."""
    n = len(signed)
    degree = 2 * n + 1 if family == "B" else 2 * n
    images = [0] * (degree + 1)
    for i, v in enumerate(signed, start=1):
        k = v if v > 0 else degree + 1 + v
        images[i] = k
        images[degree + 1 - i] = degree + 1 - k
    if family == "B":
        images[n + 1] = n + 1
    return tuple(images[1:])


def is_signed_permutation(signed: Perm) -> bool:
    return 0 not in signed and sorted(abs(v) for v in signed) == list(
        range(1, len(signed) + 1)
    )


def valid_bc_pair(pair: tuple[Perm, Perm], family: str) -> bool:
    """The embedded inversion sets of the pair partition the ambient system."""
    return all(map(is_signed_permutation, pair)) and partitions_pairs(
        [embed(s, family) for s in pair]
    )


def bc_inversion_count(signed: Perm) -> int:
    """Size of the type-B/C inversion set (the same number in both types).

    Each negative entry inverts one root ε_i or 2ε_i, with a one-root fiber
    in the type-C embedding; every other inverted root has a two-root fiber.
    """
    negative = sum(1 for v in signed if v < 0)
    return negative + (inversion_count(embed(signed, "C")) - negative) // 2


# ---------------------------------------------------------------------------
# simple forms and irreducibility


@lru_cache(maxsize=None)
def simple_form(perm: Perm) -> tuple[str, Perm, tuple[Perm, ...]]:
    """(kind, skeleton, parts) of the canonical simple form, degree >= 2.

    Cut at every prefix closed under values (IDENTITY) or, failing that, at
    every prefix holding the top values (REVERSAL); otherwise the parts are
    the maximal proper intervals, found greedily from the left, and the
    skeleton is simple.
    """
    n = len(perm)
    low_cuts, high_cuts = [], []
    top, bottom = 0, n + 1
    for k in range(1, n):
        top, bottom = max(top, perm[k - 1]), min(bottom, perm[k - 1])
        if top == k:
            low_cuts.append(k)
        if bottom == n - k + 1:
            high_cuts.append(k)
    for kind, cuts in (("IDENTITY", low_cuts), ("REVERSAL", high_cuts)):
        if cuts:
            bounds = [0, *cuts, n]
            parts = tuple(standardize(perm[a:b]) for a, b in zip(bounds, bounds[1:]))
            m = len(parts)
            skeleton = tuple(range(1, m + 1)) if kind == "IDENTITY" else tuple(range(m, 0, -1))
            return kind, skeleton, parts
    starts, start = [], 0
    while start < n:
        lo = hi = perm[start]
        end = start
        for k in range(start + 1, n):
            lo, hi = min(lo, perm[k]), max(hi, perm[k])
            if hi - lo == k - start and k - start + 1 < n:
                end = k
        starts.append(start)
        start = end + 1
    bounds = [*starts, n]
    parts = tuple(standardize(perm[a:b]) for a, b in zip(bounds, bounds[1:]))
    return "SIMPLE", standardize([perm[s] for s in starts]), parts


def format_form(form) -> str:
    _, skeleton, parts = form

    def one(p):
        return "(" + ",".join(map(str, p)) + ")"

    return one(skeleton) + "[" + ",".join(one(p) for p in parts) + "]"


def is_irreducible(perm: Perm) -> bool:
    """Structural irreducibility of an inversion set, read off the simple form."""
    identity = tuple(range(1, len(perm) + 1))
    if perm == identity:
        return True
    kind, _, parts = simple_form(perm)
    trivial = [p == tuple(range(1, len(p) + 1)) for p in parts]
    if kind == "SIMPLE":
        return all(trivial)
    if kind == "REVERSAL":
        return len(parts) == 2 and all(trivial)
    nontrivial = [p for p, t in zip(parts, trivial) if not t]
    return len(nontrivial) == 1 and is_irreducible(nontrivial[0])


# ---------------------------------------------------------------------------
# expected CLI outputs for generated inputs


def _dump(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _csv(rows) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def simple_form_output(perm: Perm, output_format: str) -> str:
    form = simple_form(perm)
    if output_format == "json":
        return _dump(
            {"permutation": fmt(perm), "skeleton_kind": form[0], "expression": format_form(form)}
        )
    return format_form(form) + "\n"


def verify_output(kind: str, parts: list[Perm], output_format: str) -> str:
    """``verify`` on a valid decomposition: A parts, or signed B/C parts."""
    rows = []
    for index, part in enumerate(parts, start=1):
        if kind == "A":
            ambient, inversions = part, inversion_count(part)
        else:
            ambient, inversions = embed(part, kind), bc_inversion_count(part)
        rows.append(
            {
                "index": index,
                "permutation": fmt(part),
                "inversions": inversions,
                "irreducible": is_irreducible(ambient),
                "simple_form": format_form(simple_form(ambient)),
            }
        )
    n = len(parts[0])
    detail = (
        f"valid decomposition of the degree-{n} positive system"
        if kind == "A"
        else f"valid decomposition of the rank-{n} type-{kind} positive system"
    )
    if output_format == "json":
        return _dump({"type": kind, "valid": True, "detail": detail, "parts": rows})
    if output_format == "csv":
        table = [["part", "permutation", "inversions", "irreducible", "simple_form"]]
        table.extend(
            [r["index"], r["permutation"], r["inversions"],
             "yes" if r["irreducible"] else "no", r["simple_form"]]
            for r in rows
        )
        table.append(["status", "valid", detail, "", ""])
        return _csv(table)
    lines = [
        f"part {r['index']}: {r['permutation']} | inversions {r['inversions']} | "
        f"irreducible {'yes' if r['irreducible'] else 'no'} | simple form {r['simple_form']}"
        for r in rows
    ]
    return "\n".join([*lines, detail]) + "\n"


def _terms(variables) -> str:
    grouped = Counter(variables)
    out = [
        f"{SIDES[s]}{k}" if grouped[(s, k)] == 1 else f"{grouped[(s, k)]}*{SIDES[s]}{k}"
        for s, k in sorted(grouped)
    ]
    return " + ".join(out) if out else "0"


def rays_output(triple: Triple, output_format: str) -> str:
    """The face's generating rays, solved by memoized back-substitution.

    Each special root (i, j), the one its covering part w sends to minus a
    simple root (w(i) = w(j) + 1), gives a balance equation: the pivot
    coordinate w(j) on that part's side equals the sum of the runs
    u(i) .. u(j) - 1 on the other two sides.
    """
    n = len(triple[0])
    equations = []
    for i in range(n):
        for j in range(i + 1, n):
            owner = next((t for t, w in enumerate(triple) if w[i] == w[j] + 1), None)
            if owner is None:
                continue
            rhs = [
                (u, k)
                for u, w in enumerate(triple)
                if u != owner
                for k in range(w[i], w[j])
            ]
            equations.append(((owner, triple[owner][j]), rhs))
    pivots = dict(equations)
    solved: dict[tuple[int, int], Counter] = {}

    def solve(pivot):
        if pivot not in solved:
            total = Counter()
            for var in pivots[pivot]:
                if var in pivots:
                    total.update(solve(var))
                else:
                    total[var] += 1
            solved[pivot] = total
        return solved[pivot]

    columns = [(s, k) for s in range(3) for k in range(1, n)]
    free = [var for var in columns if var not in pivots]
    rows = []
    for var in free:
        rows.append([1 if c == var else solve(c)[var] if c in pivots else 0 for c in columns])
    if output_format == "json":
        return _dump(
            {
                "n": n,
                "free_order": [f"{SIDES[s]}{k}" for s, k in free],
                "rays": rows,
                "equations": [f"{SIDES[p[0]]}{p[1]} = {_terms(rhs)}" for p, rhs in equations],
            }
        )
    header = ",".join(f"{SIDES[s]}{k}" for s, k in columns)
    return "\n".join([header, *(",".join(map(str, row)) for row in rows)]) + "\n"


# ---------------------------------------------------------------------------
# expected outputs for the fixed invocations, from recorded values


def series_output(name: str, values: list[int], output_format: str) -> str:
    if output_format == "json":
        return _dump({"series": name, "coefficients": [[n, c] for n, c in enumerate(values)]})
    if output_format == "csv":
        return "\n".join(["series,n,coefficient", *(f"{name},{n},{c}" for n, c in enumerate(values))]) + "\n"
    return "".join(f"{name} n={n}: {c}\n" for n, c in enumerate(values))


def count_output(family: str, values: list[int], output_format: str) -> str:
    if output_format == "json":
        return _dump({"family": family, "counts": [[n, c] for n, c in enumerate(values, start=1)]})
    if output_format == "csv":
        return "\n".join(["family,n,count", *(f"{family},{n},{c}" for n, c in enumerate(values, start=1))]) + "\n"
    return "".join(f"{family} n={n}: {c}\n" for n, c in enumerate(values, start=1))


def catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def check_recorded(expected: dict) -> None:
    """The recorded series and count tables must agree route against route.

    Each series coefficient at n = 1..64 equals the matching family's count
    (no index shift), and CATALAN(n - 1) equals A_MAXIMAL(n).
    """
    counts = expected["count"]
    for name, family in SERIES_FAMILY.items():
        series = expected["series"][name]
        for n in range(1, min(64, len(series) - 1) + 1):
            if series[n] != counts[family][n - 1]:
                raise ValueError(f"recorded series {name} disagrees with {family} at n={n}")
    for n in range(1, 65):
        if catalan(n - 1) != counts["A_MAXIMAL"][n - 1]:
            raise ValueError(f"recorded A_MAXIMAL disagrees with CATALAN at n={n}")
