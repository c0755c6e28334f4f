"""Self-verifying acceptance suite behind ``rootdec --seed-check``.

Eight independent checks recompute every frozen headline number of the
library from scratch: the irreducible-decomposition series, the three
companion series, both twenty-row ordered-triple tables, brute-force
versus structural agreement, the degree-8 golden ray matrix, the stated
inflation expressions, the cross-module property sweeps, and the type-B
Catalan recursion.  :func:`run_acceptance` prints one PASS/FAIL line per
check plus a summary and returns a process exit code (0 only when every
check passes).

Expected values are frozen in this module as literals rather than loaded
from the test tree, so an installed copy of the package can re-verify
itself with a bare ``rootdec --seed-check``.

Two checks fail deliberately, each because a frozen reference claim is
provably wrong; the suite reports the discrepancies instead of silently
repairing them.

* Criterion 2: the frozen reference expansion for the type-B/C
  decomposition series ends ``..., 2757930, 50522912``, but the recursion
  defining the series yields 50522914 at order nine.  The two tails
  differ by a transposed final digit pair, and the computed value is the
  one consistent with the rest of the frozen data: it is forced by the
  same layer recursion whose order-9 input series matches its own frozen
  tail (55995486), and the rank-9 ordered-triple count built from it
  reproduces the frozen twenty-row table checked by criterion 3.

* Criterion 7: the frozen equivalence "a permutation of degree >= 4 is
  simple iff it is atomic and irreducible" is false as stated —
  (1, 3, 2, 4) is atomic and its single-root inversion set is
  irreducible, yet (3, 2) is a block.  Every counterexample through
  degree 7 fixes 1 or n in place; adding the boundary exclusions
  sigma(1) != 1 and sigma(n) != n (necessary for simplicity anyway,
  since a boundary fixed point leaves a proper block on the remaining
  positions) yields an equivalence that holds exhaustively.  The check
  runs the literal statement, fails, and reports both facts.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import random
import sys
import time
from typing import Callable, Iterable, TextIO

from .bcgroups import (
    TYPE_B,
    TYPE_C,
    all_signed_permutations,
    ambient_degree,
    bc_inversion_set,
    bc_positive_roots,
    embed_B,
    embed_C,
    fiber,
    mirror_index,
)
from .decompose import (
    count_structural,
    enumerate_decompositions,
    exact_covers,
    is_irreducible_structural,
)
from .genseries import catalan, series_A, series_B, series_CatB, series_SB, simple_pairs_A
from .inflation import (
    inflate,
    inflation_inversion_set,
    is_atomic,
    is_simple,
    parse_inflation,
    simple_form,
)
from .lrcone import build_equations, rays
from .permcore import (
    Root,
    RootSubset,
    all_roots,
    inversion_set,
    is_inversion_set,
    permutation_from_inversion_set,
    simple_roots,
)

__all__ = ["run_acceptance"]


# ---------------------------------------------------------------------------
# frozen reference data


# coefficients of the irreducible-decomposition series, orders 1..10
EXPECTED_A_COEFFS = (1, 1, 2, 6, 23, 114, 717, 5510, 49570, 504706)

# symmetric-simple-pair series, orders 0..5
EXPECTED_SA_COEFFS = (0, 0, 1, 0, 1, 3)

# type-B/C simple-pair series, orders 2..9
EXPECTED_SB_COEFFS = (2, 10, 90, 966, 12338, 181470, 3018082, 55995486)

# type-B/C decomposition series, orders 1..9, exactly as the frozen
# reference prints it; the order-9 entry is the documented discrepancy.
REFERENCE_B_COEFFS = (1, 3, 14, 100, 973, 11804, 168809, 2757930, 50522912)
COMPUTED_B_TAIL = 50522914

# unordered triple decompositions with identity parts allowed, n = 1..20
EXPECTED_TRIPLES_A = (
    1,
    1,
    3,
    17,
    129,
    1116,
    10474,
    104604,
    1101012,
    12153179,
    140397525,
    1697555983,
    21516940295,
    286680892462,
    4028129552836,
    59885247963954,
    944511887685826,
    15828354015222453,
    281880601827533671,
    5327985147037232973,
)

# the type-B/C column of the same table, ranks 1..20
EXPECTED_TRIPLES_BC = (
    1,
    4,
    33,
    351,
    4210,
    55495,
    800476,
    12654164,
    219870187,
    4206375350,
    88539459103,
    2043502238365,
    51440876843396,
    1403608329020473,
    41257592671098146,
    1299045890821350162,
    43596718839825553381,
    1552871403021630700936,
    58488502832975791077421,
    2322044948865982864468235,
)

CATALAN_SMALL = (1, 1, 2, 5, 14, 42, 132)  # maximal-decomposition counts, n = 1..7

# the degree-8 triple used by the golden ray-matrix test, with its three
# stated inflation expressions
EXAMPLE_W1 = (5, 3, 4, 8, 1, 2, 6, 7)
EXAMPLE_W2 = (4, 5, 6, 1, 7, 8, 3, 2)
EXAMPLE_W3 = (1, 3, 2, 4, 6, 5, 7, 8)
EXAMPLE_TRIPLE_TEXT = "5 3 4 8 1 2 6 7; 4 5 6 1 7 8 3 2; 1 3 2 4 6 5 7 8"

STATED_FORMS = (
    ("(2,4,1,3)[(3,1,2),(1),(1,2),(1,2)]", EXAMPLE_W1),
    ("(3,1,4,2)[(1,2,3),(1),(1,2),(2,1)]", EXAMPLE_W2),
    ("(1,2,3,4)[(1,3,2),(1),(2,1),(1,2)]", EXAMPLE_W3),
)

# golden ray matrix for the triple above: one row per free variable, in
# column order a1..a7,b1..b7,c1..c7.  Row 10 (the c1 ray) carries 1 in
# column b3 where the frozen source display printed 3; the balance
# equation b3 = a5 + c1 + c2 + c3 + c4 + c5 + c6 evaluated on that ray
# forces the 1, so the golden table corrects that single cell.
RAYS_GOLDEN_CSV = """\
a1,a2,a3,a4,a5,a6,a7,b1,b2,b3,b4,b5,b6,b7,c1,c2,c3,c4,c5,c6,c7
1,0,0,0,0,0,1,0,0,1,0,0,0,0,0,0,0,0,1,0,0
0,0,1,0,0,0,0,0,0,1,0,0,0,0,0,1,0,0,0,0,0
0,0,0,0,1,0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,0
0,0,0,0,0,1,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0
0,0,0,0,0,0,1,1,0,0,0,0,0,0,0,0,0,0,0,0,0
0,0,0,1,0,0,0,0,0,0,1,0,0,0,0,0,0,0,0,0,0
0,1,0,1,0,0,0,0,0,1,0,1,0,0,0,1,0,0,0,0,0
0,1,0,0,0,0,0,0,0,0,0,0,1,0,0,0,0,0,0,0,0
0,1,0,0,0,0,1,0,0,1,0,0,0,1,0,0,0,0,1,0,0
0,0,0,1,0,0,0,0,0,1,0,0,0,0,1,0,0,0,0,0,0
0,1,0,0,0,0,0,0,0,1,0,0,0,0,0,0,1,0,0,0,0
0,1,0,0,0,0,1,0,0,1,0,0,0,0,0,0,0,1,0,0,0
0,0,0,0,0,0,1,0,0,1,0,0,0,0,0,0,0,0,0,1,0
0,0,0,0,0,0,1,0,1,0,0,0,0,0,0,0,0,0,0,0,1
"""


Check = tuple[bool, str]


# ---------------------------------------------------------------------------
# criteria


def criterion_1() -> Check:
    """Irreducible-decomposition counts match the frozen order-10 expansion."""
    counted = count_structural("A_IRREDUCIBLE", 10).counts
    start = time.perf_counter()
    series = series_A(40)
    elapsed = time.perf_counter() - start
    from_series = series.coeffs[1:11]
    problems = []
    if counted != EXPECTED_A_COEFFS:
        problems.append(f"structural counts {counted} != frozen {EXPECTED_A_COEFFS}")
    if from_series != EXPECTED_A_COEFFS:
        problems.append(f"series coefficients {from_series} != frozen {EXPECTED_A_COEFFS}")
    if elapsed >= 1.0:
        problems.append(f"order-40 series took {elapsed:.3f}s (budget 1s)")
    if problems:
        return False, "; ".join(problems)
    return True, (
        "irreducible-decomposition counts for n=1..10 match the frozen expansion by"
        f" structural recursion and by series inversion; order-40 series in {elapsed:.3f}s"
    )


def criterion_2() -> Check:
    """Companion series match their frozen expansions (B's tail cannot)."""
    sa = simple_pairs_A(5).coeffs
    sb = series_SB(9).coeffs[2:]
    b = series_B(9).coeffs[1:]
    ok = True
    clauses = []
    if sa == EXPECTED_SA_COEFFS:
        clauses.append("S_A through z^5 matches")
    else:
        ok = False
        clauses.append(f"S_A {sa} != frozen {EXPECTED_SA_COEFFS}")
    if sb == EXPECTED_SB_COEFFS:
        clauses.append("S_B through z^9 matches")
    else:
        ok = False
        clauses.append(f"S_B {sb} != frozen {EXPECTED_SB_COEFFS}")
    if b == REFERENCE_B_COEFFS:
        clauses.append("B through z^9 matches")
    elif b == REFERENCE_B_COEFFS[:-1] + (COMPUTED_B_TAIL,):
        ok = False
        clauses.append(
            f"B(z) order 9: computed {COMPUTED_B_TAIL} vs frozen reference"
            f" {REFERENCE_B_COEFFS[-1]} (orders 1..8 agree); the reference tail's final"
            " digit pair is transposed — the computed value is forced by the layer"
            " recursion whose S_B input matches above, and the rank-9 ordered-triple"
            " count built from it reproduces the frozen twenty-row table of criterion 3"
        )
    else:
        ok = False
        clauses.append(
            f"B(z) coefficients {b} match neither the frozen reference nor the"
            " recursion's documented value"
        )
    return ok, "; ".join(clauses)


def criterion_3() -> Check:
    """Both twenty-row ordered-triple tables match the frozen columns."""
    start = time.perf_counter()
    column_a = count_structural("A_TRIPLES", 20).counts
    column_bc = count_structural("BC_TRIPLES", 20).counts
    elapsed = time.perf_counter() - start
    problems = []
    if column_a != EXPECTED_TRIPLES_A:
        problems.append(f"A column {column_a} != frozen table")
    if column_bc != EXPECTED_TRIPLES_BC:
        problems.append(f"B/C column {column_bc} != frozen table")
    if elapsed >= 60.0:
        problems.append(f"tables took {elapsed:.2f}s (budget 60s)")
    if problems:
        return False, "; ".join(problems)
    return True, (
        "both twenty-row ordered-triple columns match the frozen tables"
        f" (A(20)={column_a[-1]}, BC(20)={column_bc[-1]}) in {elapsed:.2f}s"
    )


def _searched_counts(
    degree: int,
    parts: list[tuple[object, Iterable[Root]]],
    irreducible: list[tuple[object, Iterable[Root]]],
    maximal: int,
) -> tuple[int, int, int]:
    """Exhaustive (irreducible, maximal, triples) counts by exact-cover search.

    ``parts`` holds (item, root set) pairs, one per nonempty inversion set
    of the degree-``degree`` system, and ``irreducible`` those that cannot
    split.  Each part of a split maximal part would need a simple root of
    its own, so the maximal decompositions, with ``maximal`` parts, are the
    irreducible covers of that size.  Shares no code with the structural
    recursions or the listing.
    """
    roots, simple = all_roots(degree), simple_roots(degree)
    sizes = [len(cover) for cover in exact_covers(roots, simple, irreducible)]
    triples = exact_covers(roots, simple, parts, 3, pad=True)
    return len(sizes), sizes.count(maximal), sum(1 for _ in triples)


def _brute_bc_counts(family: str, n: int) -> tuple[int, int, int]:
    """:func:`_searched_counts` over W(B_n)/W(C_n), on the symmetric embeddings.

    The covers of the ambient positive system by the embeddings' inversion
    sets are the covers of the B/C positive roots by B/C inversion sets; a
    set is irreducible when no smaller set leaves an inversion set.
    """
    embed = embed_B if family == TYPE_B else embed_C
    sets = dict.fromkeys(inversion_set(embed(sigma)).roots for sigma in all_signed_permutations(n))
    del sets[frozenset()]
    irreducible = [(s, s) for s in sets if not any(t < s and s - t in sets for t in sets)]
    return _searched_counts(ambient_degree(family, n), [(s, s) for s in sets], irreducible, n)


def criterion_4() -> Check:
    """Exhaustive enumeration agrees with structural counting on small ranks."""
    start = time.perf_counter()
    problems = []
    table_triples = count_structural("A_TRIPLES", 7)
    table_irreducible = count_structural("A_IRREDUCIBLE", 7)
    table_maximal = count_structural("A_MAXIMAL", 7)
    for n in range(1, 8):
        perms = itertools.permutations(range(1, n + 1))
        parts = [(p, roots) for p in perms if (roots := inversion_set(p))]
        candidates = [(p, roots) for p, roots in parts if is_irreducible_structural(p)]
        irreducible, maximal, triples = _searched_counts(n, parts, candidates, n - 1)
        if triples != table_triples[n]:
            problems.append(f"A triples n={n}: brute {triples} vs structural {table_triples[n]}")
        if irreducible != table_irreducible[n]:
            problems.append(
                f"A irreducible n={n}: brute {irreducible} vs structural {table_irreducible[n]}"
            )
        if maximal != table_maximal[n] or maximal != CATALAN_SMALL[n - 1]:
            problems.append(
                f"A maximal n={n}: brute {maximal}, structural {table_maximal[n]},"
                f" Catalan {CATALAN_SMALL[n - 1]}"
            )
    tables_bc = [count_structural(f, 3) for f in ("BC_IRREDUCIBLE", "BC_MAXIMAL", "BC_TRIPLES")]
    for family in (TYPE_B, TYPE_C):
        for n in range(1, 4):
            irreducible, maximal, triples = _brute_bc_counts(family, n)
            expected = tuple(table[n] for table in tables_bc)
            if (irreducible, maximal, triples) != expected:
                problems.append(
                    f"type {family} n={n}: brute {(irreducible, maximal, triples)}"
                    f" vs structural {expected}"
                )
    elapsed = time.perf_counter() - start
    if elapsed >= 300.0:
        problems.append(f"enumeration took {elapsed:.1f}s (budget 300s)")
    if problems:
        return False, "; ".join(problems[:4])
    return True, (
        "exhaustive enumeration equals structural counting for triples, irreducible"
        " and maximal decompositions at n<=7 (maximal = Catalan 1,1,2,5,14,42,132)"
        f" and for both B/C families at n<=3; {elapsed:.1f}s"
    )


def criterion_5() -> Check:
    """The CLI reproduces the golden degree-8 ray matrix byte for byte."""
    from .cli import main as cli_main

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli_main(["rays", "--perms", EXAMPLE_TRIPLE_TEXT])
    output = buffer.getvalue()
    if code != 0:
        return False, f"rays command exited {code}"
    if output != RAYS_GOLDEN_CSV:
        return False, "ray matrix differs from the golden 14x21 table"
    return True, (
        "CLI ray matrix for the degree-8 triple is byte-identical to the golden 14x21"
        " table; row 10 carries 1 in column b3 where the frozen source display printed"
        " 3 — the balance equation b3 = a5 + c1 + c2 + c3 + c4 + c5 + c6 forces the 1"
        " on that ray, so the golden table corrects that single cell"
    )


def criterion_6() -> Check:
    """The three stated inflation expressions round-trip exactly."""
    problems = []
    for text, expected in STATED_FORMS:
        skeleton, parts = parse_inflation(text)
        image = inflate(skeleton, parts)
        if image != expected:
            problems.append(f"{text} inflates to {image}, expected {expected}")
    recovered = str(simple_form(EXAMPLE_W1))
    if recovered != STATED_FORMS[0][0]:
        problems.append(f"simple_form printed {recovered!r}, expected {STATED_FORMS[0][0]!r}")
    if problems:
        return False, "; ".join(problems)
    return True, (
        "all three stated inflation expressions inflate to the degree-8 triple, and"
        " simple_form of the first component prints its stated expression exactly"
    )


def criterion_7() -> Check:
    """Cross-module property sweeps, exhaustive where feasible."""
    problems: list[str] = []

    # inversion-set recognition: over every subset of the rank-(n-1) positive
    # system the recognizer must accept exactly n! subsets, each of which
    # round-trips through its permutation
    for n in range(1, 6):
        roots = all_roots(n)
        accepted = 0
        for bits in range(1 << len(roots)):
            phi = RootSubset(n, (roots[k] for k in range(len(roots)) if bits >> k & 1))
            if is_inversion_set(phi):
                accepted += 1
                sigma = permutation_from_inversion_set(phi)
                if inversion_set(sigma) != phi:
                    problems.append(f"subset round trip fails for {phi}")
        if accepted != math.factorial(n):
            problems.append(f"n={n}: {accepted} inversion sets, expected {math.factorial(n)}")

    # permutation round trip, exhaustive through degree 7
    for n in range(1, 8):
        for sigma in itertools.permutations(range(1, n + 1)):
            if permutation_from_inversion_set(inversion_set(sigma)) != sigma:
                problems.append(f"inversion round trip fails at {sigma}")
                break

    # the classification equivalence on its stated domain of degrees >= 4,
    # run literally as frozen ("simple <=> atomic and irreducible"); the
    # literal statement is false, so the sweep also records whether every
    # counterexample is boundary-fixed and whether the repaired statement
    # (with sigma(1) != 1 and sigma(n) != n added) holds, and the criterion
    # reports the discrepancy instead of silently repairing it
    equivalence_failures: list[tuple[int, ...]] = []
    repaired_failures = 0
    for n in range(4, 8):
        for sigma in itertools.permutations(range(1, n + 1)):
            rhs = is_atomic(sigma) and is_irreducible_structural(sigma)
            simple = is_simple(sigma)
            if simple != rhs:
                equivalence_failures.append(sigma)
            repaired_failures += simple != (rhs and sigma[0] != 1 and sigma[-1] != n)

    # inflation inversion identity on seeded random expressions: the
    # inversion set assembled from skeleton and parts equals the inversion
    # set of the inflated permutation
    rng = random.Random(54721)
    for _ in range(10_000):
        m = rng.randint(1, 6)
        skeleton = tuple(rng.sample(range(1, m + 1), m))
        parts = tuple(
            tuple(rng.sample(range(1, k + 1), k)) for k in (rng.randint(1, 4) for _ in range(m))
        )
        if inflation_inversion_set(skeleton, parts) != inversion_set(inflate(skeleton, parts)):
            problems.append(f"inflation inversion identity fails for {skeleton} {parts}")
            break

    # projection fibers and mirror stability, exhaustive for both families
    # through rank 3: the symmetric embedding's inversion set contains each
    # fiber entirely or not at all, membership matches bc_inversion_set
    # (which projects nothing), and inverted pairs are closed under mirroring
    for family in (TYPE_B, TYPE_C):
        embed = embed_B if family == TYPE_B else embed_C
        for n in range(1, 4):
            degree = ambient_degree(family, n)
            fibers = [
                (gamma, set(fiber(family, n, gamma))) for gamma in bc_positive_roots(family, n)
            ]
            for sigma in all_signed_permutations(n):
                ambient = set(inversion_set(embed(sigma)))
                inverted = bc_inversion_set(sigma, family)
                for gamma, fib in fibers:
                    inside = fib & ambient
                    if inside and inside != fib:
                        problems.append(f"type {family} n={n}: fiber of {gamma} split by {sigma}")
                    if (gamma in inverted) != (inside == fib):
                        problems.append(
                            f"type {family} n={n}: inversion set of {sigma} disagrees at {gamma}"
                        )
                for i, j in ambient:
                    mirrored = (mirror_index(degree, j), mirror_index(degree, i))
                    low, high = min(mirrored), max(mirrored)
                    if low != high and (low, high) not in ambient:
                        problems.append(
                            f"type {family} n={n}: {sigma} inverts ({i},{j}) but not its mirror"
                        )

    # every ray of every ordered triple through degree 5 is nonnegative and
    # satisfies every balance equation of its triple
    triples_checked = 0
    for n in range(1, 6):
        for decomposition in enumerate_decompositions(n, 3, allow_identity=True):
            for triple in set(itertools.permutations(decomposition.parts)):
                matrix = rays(*triple)
                equations = build_equations(*triple)
                column = {var: k for k, var in enumerate(matrix.column_order())}
                for row in matrix.rows:
                    if any(value < 0 for value in row):
                        problems.append(f"negative ray entry for triple {triple}")
                    for equation in equations:
                        if row[column[equation.pivot]] != sum(
                            row[column[var]] for var in equation.rhs
                        ):
                            problems.append(f"ray violates {equation} for triple {triple}")
                triples_checked += 1

    other_ok = not problems
    other_suites = (
        "four suites pass: inversion-set recognition counts n! on all"
        " subsets (n<=5) and round-trips on all permutations (n<=7), inflation"
        " inversion identity on 10000 seeded cases, B/C projection fibers and mirror"
        f" stability exhaustive at n<=3, and all {triples_checked} ordered triples at"
        " n<=5 give nonnegative equation-satisfying rays"
    )
    if equivalence_failures:
        first = equivalence_failures[0]
        boundary_fixed = all(s[0] == 1 or s[-1] == len(s) for s in equivalence_failures)
        clause = (
            "the frozen equivalence 'simple <=> atomic and irreducible' is false on"
            f" its stated domain: {len(equivalence_failures)} counterexamples across"
            f" degrees 4..7, first {first} (atomic with an irreducible inversion set,"
            " yet containing a proper block); "
        )
        if boundary_fixed and repaired_failures == 0:
            clause += (
                "every counterexample fixes 1 or n in place, and with the boundary"
                " exclusions sigma(1) != 1 and sigma(n) != n added (necessary for"
                " simplicity anyway: a boundary fixed point leaves a proper block on"
                " the remaining positions) the equivalence holds exhaustively"
            )
        else:
            clause += (
                f"boundary-fixed: {boundary_fixed}; repaired-statement failures:"
                f" {repaired_failures} (unexpected — see the module docstring)"
            )
        problems.append(clause)
    elif repaired_failures:
        problems.append(f"repaired equivalence fails {repaired_failures} times")
    if problems:
        shown = problems[:3]
        extra = f" (+{len(problems) - 3} more)" if len(problems) > 3 else ""
        suffix = "; the other " + other_suites if other_ok else ""
        return False, "; ".join(shown) + extra + suffix
    return True, (
        "simple <=> atomic and irreducible exhaustively on degrees 4..7, and the other "
        + other_suites
    )


def criterion_8() -> Check:
    """The type-B Catalan recursion, closed form, and brute force agree."""
    closed = series_CatB(40).coeffs
    recursion = [1]
    for n in range(1, 41):
        recursion.append(
            recursion[n - 1]
            + 2 * sum(catalan(n - 1 - k) * recursion[k] for k in range(n - 1))
        )
    problems = []
    if tuple(recursion) != closed:
        problems.append(f"recursion {tuple(recursion[:8])}... != closed form {closed[:8]}...")
    brute = tuple(_brute_bc_counts(TYPE_B, n)[1] for n in range(1, 4))
    if brute != closed[1:4]:
        problems.append(f"brute maximal counts {brute} != closed form {closed[1:4]}")
    if problems:
        return False, "; ".join(problems)
    return True, (
        "recursion CatB_n = CatB_(n-1) + 2*sum_k Cat_(n-1-k)*CatB_k matches the closed"
        f" form through order 40 ({len(str(closed[40]))}-digit tail) and brute-force"
        f" maximal counts over W(B_n) give {brute} at n<=3"
    )


# ---------------------------------------------------------------------------
# runner


CRITERIA: tuple[Callable[[], Check], ...] = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
)


def run_acceptance(stream: TextIO | None = None) -> int:
    """Run all acceptance checks, print one line each, return an exit code.

    Writes to ``stream`` (default: stdout).  Returns 0 only when every
    criterion passes; with the two documented discrepancies in place
    (criteria 2 and 7, see the module docstring) the suite returns 1.
    """
    out = sys.stdout if stream is None else stream
    failed = 0
    for number, check in enumerate(CRITERIA, start=1):
        start = time.perf_counter()
        ok, detail = check()
        elapsed = time.perf_counter() - start
        if not ok:
            failed += 1
        print(f"criterion {number}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s) - {detail}", file=out)
    total = len(CRITERIA)
    tail = f", {failed} failed" if failed else ""
    print(f"summary: {total - failed}/{total} criteria passed{tail}", file=out)
    return 0 if failed == 0 else 1
