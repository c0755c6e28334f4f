"""Verification, irreducibility, enumeration, and structural counting."""

from __future__ import annotations

import itertools
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootdec import decompose
from rootdec.decompose import (
    FAMILIES,
    CountTable,
    Decomposition,
    count_structural,
    enumerate_decompositions,
    exact_covers,
    inversion_count,
    is_irreducible_structural,
    verify_decomposition,
)
from rootdec.genseries import (
    catalan,
    series_A,
    series_B,
    series_CatB,
    series_SB,
    simple_pairs_A,
)
from rootdec.inflation import inflation_inversion_set
from rootdec.permcore import (
    RootSubset,
    all_roots,
    compose,
    identity,
    inversion_set,
    is_inversion_set,
    longest,
    permutation_from_inversion_set,
    simple_roots,
)

W1 = (5, 3, 4, 8, 1, 2, 6, 7)
W2 = (4, 5, 6, 1, 7, 8, 3, 2)
W3 = (1, 3, 2, 4, 6, 5, 7, 8)

# unordered triples with identity parts allowed, degrees 2..20
TRIPLES_A = (
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

# the type-B/C column, ranks 1..20
TRIPLES_BC = (
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


def perms(n: int):
    return itertools.permutations(range(1, n + 1))


# ---------------------------------------------------------------------------
# root-set oracles: the paper's definitions, checked by brute force


def is_irreducible(sigma):
    """No split of the inversion set into two nonidentity inversion sets.

    It scans every permutation of the degree, so keep it to small degrees.
    The identity is irreducible: every split of the empty set is trivial.
    """
    n = len(sigma)
    inv = inversion_set(sigma).roots
    if not inv:
        return True
    for alpha in perms(n):
        part = inversion_set(alpha).roots
        if not part or part == inv or not part <= inv:
            continue
        if is_inversion_set(RootSubset(n, inv - part)):
            return False
    return True


def merge(n, parts):
    """The permutation whose inversion set is the union of the parts' sets.

    A union that is no inversion set raises permcore's ValueError, which
    names a violating triple.
    """
    union = set().union(*(inversion_set(part).roots for part in parts))
    return permutation_from_inversion_set(RootSubset(n, union))


def _merged_by_engine(n, parts):
    """The listing engine's merge of ``parts`` into one block; the identity if none."""
    (cover,) = decompose._coarsenings(tuple(parts), 0, 1)
    return cover[0] if cover else identity(n)


# ---------------------------------------------------------------------------
# Decomposition and CountTable containers


def test_decomposition_sorts_parts_canonically():
    d = Decomposition(8, (W3, W1, W2))
    assert d.parts == (W3, W2, W1)
    assert len(d) == 3


def test_decomposition_str_joins_parts_with_pipes():
    d = Decomposition(3, ((2, 3, 1), (2, 1, 3)))
    assert str(d) == "2 1 3 | 2 3 1"


def test_decomposition_allows_repeated_identity_parts():
    d = Decomposition(2, ((1, 2), (1, 2), (2, 1)))
    assert d.parts.count((1, 2)) == 2


def test_decomposition_rejects_wrong_degree_part():
    with pytest.raises(ValueError, match="degree"):
        Decomposition(3, ((2, 1, 3), (2, 1)))
    with pytest.raises(ValueError, match="degree must be at least 1, got 0"):
        Decomposition(0, ())


def test_decomposition_rejects_overlap_and_gaps():
    for parts, detail in [
        (((3, 2, 1), (2, 1, 3)), "root (1, 2) covered by parts 1 and 2"),
        (((2, 1, 3),), "root (1, 3) not covered by any part"),
    ]:
        with pytest.raises(ValueError) as caught:
            Decomposition(3, parts)
        assert str(caught.value) == detail


def _faulty_part_lists(n: int, rng: random.Random):
    """Seeded degree-n part lists: listed decompositions, each with one fault too."""
    listing = [list(d.parts) for d in enumerate_decompositions(n)]
    for parts in rng.sample(listing, min(len(listing), 25)):
        k = rng.randrange(len(parts))
        yield parts
        yield [*parts[:k], tuple(rng.sample(range(1, n + 1), n)), *parts[k + 1 :]]
        yield parts[:k] + parts[k + 1 :]
        yield [*parts, parts[k]]
        yield [*parts, *[identity(n)] * rng.randint(1, 3)]


@pytest.mark.parametrize("n", range(2, 7))
def test_decomposition_accepts_exactly_what_verify_accepts(n):
    rng = random.Random(f"decomposition:{n}")
    outcomes = set()
    for parts in _faulty_part_lists(n, rng):
        rng.shuffle(parts)
        expected = verify_decomposition(n, sorted(parts))
        try:
            Decomposition(n, parts)
        except ValueError as error:
            assert not expected and str(error) == expected.detail
        else:
            assert expected
        outcomes.add(expected.ok)
        # a part of the wrong degree raises the same error in both
        degree = n + rng.choice((-1, 1))
        wrong = [*parts, tuple(rng.sample(range(1, degree + 1), degree))]
        with pytest.raises(ValueError, match="degree mismatch") as verified:
            verify_decomposition(n, sorted(wrong))
        with pytest.raises(ValueError, match=re.escape(str(verified.value))):
            Decomposition(n, wrong)
    assert outcomes == {True, False}


def test_listing_builds_rows_once_per_distinct_part(count_calls):
    maxsize = decompose._part.cache_info().maxsize
    assert maxsize == math.factorial(decompose.DEFAULT_ENUMERATION_BOUND)
    decompose._part.cache_clear()
    rows = count_calls(decompose, "_inversion_rows")
    checks = count_calls(decompose, "check_permutation")
    listing = list(enumerate_decompositions(7, 4, allow_identity=True))
    assert len(listing) == 17174
    # 68,696 parts, 5,040 distinct: each distinct part is checked once
    distinct = {part for d in listing for part in d.parts}
    assert len(rows) == len(checks) == len(distinct) == 5040


def test_listings_scan_only_the_skeletons_their_part_count_can_use(count_calls):
    # a simple skeleton of degree m leaves m - 3 fewer parts than n - 1
    scans = count_calls(decompose, "_skeletons")
    assert sum(1 for _ in enumerate_decompositions(8, 6, irreducible_only=True)) == 495
    assert max(m for (m,) in scans) <= 4
    scans.clear()
    assert sum(1 for _ in enumerate_decompositions(7, maximal=True)) == 132
    assert max(m for (m,) in scans) <= 3


@pytest.mark.parametrize("entries", [(2.0, 1.0), (2, True)])
def test_entries_equal_to_ints_answer_as_the_ints_whatever_the_mask_cache_holds(entries):
    # check_permutation accepts such entries; each route must then answer as
    # for (2, 1), with no part record yet and with the record of (2, 1)
    ints = (2, 1)
    for warm in (False, True):
        decompose._part.cache_clear()
        if warm:
            Decomposition(2, [ints])
        assert Decomposition(2, [entries]) == Decomposition(2, [ints])
        # the parts are the caller's tuples, not the record's first-seen ones
        assert Decomposition(2, [entries]).parts[0] is entries
        assert str(Decomposition(2, [entries])) == "2 1"
        for n, tail in ((2, ()), (3, (3,))):
            with_tail = (*entries, *tail)
            assert verify_decomposition(n, [with_tail]) == verify_decomposition(n, [(*ints, *tail)])
        with pytest.raises(ValueError, match=r"^root \(1, 3\) not covered by any part$"):
            Decomposition(3, [(*entries, 3)])
        assert inversion_set(entries) == inversion_set(ints)
        assert inflation_inversion_set(entries, [(1,), (1,)]) == inversion_set(ints)
        assert inflation_inversion_set((2, 1), [entries, (1,)]) == inversion_set((3, 2, 1))


def test_count_table_lookup_and_bounds():
    table = count_structural("A_MAXIMAL", 5)
    assert table.value(5) == table[5] == 14
    with pytest.raises(ValueError, match="outside"):
        table.value(6)
    with pytest.raises(ValueError, match="outside"):
        table.value(0)


def test_count_table_rejects_bad_inputs():
    with pytest.raises(ValueError, match="unknown family"):
        CountTable("A_SOMETHING", (1,))
    with pytest.raises(ValueError, match="nonnegative"):
        CountTable("A_MAXIMAL", (1, -1))


# ---------------------------------------------------------------------------
# verification and merging


def test_verify_accepts_the_worked_three_part_decomposition():
    result = verify_decomposition(8, [W1, W2, W3])
    assert result.ok and bool(result)
    assert "degree-8" in result.detail


def test_verify_names_first_overlapping_root():
    result = verify_decomposition(3, [(2, 1, 3), (3, 2, 1)])
    assert not result
    assert result.detail == "root (1, 2) covered by parts 1 and 2"


def test_verify_names_first_missing_root():
    result = verify_decomposition(3, [(2, 1, 3), (1, 3, 2)])
    assert not result
    assert result.detail == "root (1, 3) not covered by any part"


def test_verify_names_the_first_overlap_of_a_row_across_all_parts():
    # row 1: parts 1 and 2 share (1, 4), parts 2 and 3 share the earlier (1, 2)
    parts = [(2, 3, 4, 1), (4, 1, 2, 3), (2, 1, 3, 4)]
    assert verify_decomposition(4, parts).detail == "root (1, 2) covered by parts 2 and 3"


def _oracle_verify(n, parts, allow_identity):
    """Plain set-based verification, the reference for verify_decomposition."""
    covering = {}
    for k, part in enumerate(parts, start=1):
        for i, j in all_roots(n):
            if part[i - 1] > part[j - 1]:
                covering.setdefault((i, j), []).append(k)
    overlapped = sorted(root for root, ks in covering.items() if len(ks) > 1)
    if overlapped:
        a, b = covering[overlapped[0]][:2]
        return False, f"root {overlapped[0]} covered by parts {a} and {b}"
    for root in all_roots(n):
        if root not in covering:
            return False, f"root {root} not covered by any part"
    if not allow_identity and identity(n) in parts:
        return False, f"part {parts.index(identity(n)) + 1} is the identity"
    return True, f"valid decomposition of the degree-{n} positive system"


def test_verify_matches_a_set_based_oracle():
    rng = random.Random(20111)
    cases = []
    for _ in range(3000):
        n = rng.randint(1, 7)
        parts = [tuple(rng.sample(range(1, n + 1), n)) for _ in range(rng.randint(0, 4))]
        cases.append((n, parts))
    for n, r in itertools.product(range(1, 6), range(5)):
        for dec in enumerate_decompositions(n, r, allow_identity=True):
            cases.append((n, rng.sample(dec.parts, r)))
    for n, parts in cases:
        for allow_identity in (True, False):
            result = verify_decomposition(n, parts, allow_identity)
            assert (result.ok, result.detail) == _oracle_verify(n, parts, allow_identity)


def test_inversion_count_is_the_set_size():
    for n in range(1, 6):
        for sigma in itertools.permutations(range(1, n + 1)):
            assert inversion_count(sigma) == len(inversion_set(sigma).roots), sigma


def test_verify_identity_part_toggle():
    parts = [(2, 1), (1, 2)]
    assert verify_decomposition(2, parts)
    rejected = verify_decomposition(2, parts, allow_identity=False)
    assert not rejected
    assert rejected.detail == "part 2 is the identity"


def test_verify_rejects_degree_mismatch():
    with pytest.raises(ValueError, match="degree mismatch"):
        verify_decomposition(3, [(2, 1, 3), (2, 1)])


@pytest.mark.parametrize("n", [0, -1])
def test_verify_rejects_degree_below_one(n):
    for parts in ([], [(2, 1)]):
        with pytest.raises(ValueError, match=f"^degree must be at least 1, got {n}$"):
            verify_decomposition(n, parts)


def test_verify_degree_one_vacuous():
    assert verify_decomposition(1, [])
    assert verify_decomposition(1, [(1,), (1,)])


def test_merge_of_two_worked_parts():
    merged = (4, 6, 5, 1, 8, 7, 3, 2)
    assert merge(8, [W2, W3]) == _merged_by_engine(8, [W2, W3]) == merged
    assert (W1, merged) in decompose._coarsenings((W1, W2, W3), 2, 2)


def test_merge_edge_cases():
    for n, parts, merged in [
        (3, [], (1, 2, 3)),
        (8, [W1, W2, W3], longest(8)),
        (8, [W2], W2),
    ]:
        assert merge(n, parts) == _merged_by_engine(n, parts) == merged
    assert list(decompose._coarsenings((W1, W2, W3), 3, 3)) == [(W1, W2, W3)]
    assert list(decompose._coarsenings((), 0, None)) == [()]


def test_merge_rejects_non_inversion_set_union():
    # {(1,2)} with {(2,3)} is not closed: (1,3) is forced but absent
    with pytest.raises(ValueError):
        merge(3, [(2, 1, 3), (1, 3, 2)])


# set partitions of k parts, k = 0..5: a degree-6 decomposition has at most 5
BELL = (1, 1, 2, 5, 15, 52)


@pytest.mark.parametrize("n", range(1, 7))
def test_merge_is_the_union_of_the_parts(n):
    # the listing engine merges each block by the image formula; every set
    # partition of a built decomposition's parts must come once and give a
    # decomposition whose parts are the oracle unions of their blocks
    for built in decompose._built_decompositions(n, 0):
        covers = list(decompose._coarsenings(built, 0, None))
        assert len(set(covers)) == len(covers) == BELL[len(built)]
        for cover in covers:
            assert verify_decomposition(n, cover)
            for merged in cover:
                inside = inversion_set(merged).roots
                block = [part for part in built if inversion_set(part).roots <= inside]
                assert merge(n, block) == merged


# ---------------------------------------------------------------------------
# irreducibility


def test_irreducible_frozen_examples():
    assert is_irreducible((1,))
    assert is_irreducible((1, 2, 3))
    assert is_irreducible((2, 1))
    assert is_irreducible((3, 1, 2))
    assert not is_irreducible((3, 2, 1))
    assert is_irreducible_structural((1, 3, 2, 4))
    assert not is_irreducible_structural((2, 1, 4, 3))


@pytest.mark.parametrize("n", range(1, 7))
def test_structural_irreducibility_matches_brute_force(n):
    for sigma in perms(n):
        assert is_irreducible(sigma) == is_irreducible_structural(sigma), sigma


def test_irreducible_element_census():
    census = [
        sum(1 for p in perms(n) if is_irreducible_structural(p)) for n in range(1, 9)
    ]
    assert census == [1, 2, 5, 13, 39, 166, 1043, 8465]


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_degree_three_irreducible():
    found = [str(d) for d in enumerate_decompositions(3, irreducible_only=True)]
    assert found == ["1 3 2 | 3 1 2", "2 1 3 | 2 3 1"]


def test_enumerate_degree_four_maximal():
    found = list(enumerate_decompositions(4, maximal=True))
    assert len(found) == 5
    assert all(len(d) == 3 for d in found)


def test_enumerate_identity_padding():
    found = list(enumerate_decompositions(2, 3, allow_identity=True))
    assert [d.parts for d in found] == [((1, 2), (1, 2), (2, 1))]
    assert list(enumerate_decompositions(2, 3)) == []


def test_enumerate_degree_one():
    assert [d.parts for d in enumerate_decompositions(1)] == [()]
    assert [d.parts for d in enumerate_decompositions(1, 2, allow_identity=True)] == [
        ((1,), (1,))
    ]
    assert list(enumerate_decompositions(1, 2)) == []


def test_enumerate_unconstrained_totals():
    assert [
        sum(1 for _ in enumerate_decompositions(n)) for n in range(1, 6)
    ] == [1, 1, 3, 17, 143]


def test_enumerate_single_part_is_longest():
    (d,) = enumerate_decompositions(5, 1)
    assert d.parts == (longest(5),)


@pytest.mark.parametrize("n", range(3, 7))
def test_enumerate_pairs_count(n):
    # one part determines the other as its complement, and the two
    # identity-containing pairings are excluded
    expected = (len(list(perms(n))) - 2) // 2
    assert sum(1 for _ in enumerate_decompositions(n, 2)) == expected


def test_enumerate_option_validation():
    with pytest.raises(ValueError, match="exceeds the brute-force bound"):
        next(enumerate_decompositions(9))
    with pytest.raises(ValueError, match="have 3 parts"):
        next(enumerate_decompositions(4, 2, maximal=True))
    with pytest.raises(ValueError, match="allow_identity does not apply"):
        next(enumerate_decompositions(4, maximal=True, allow_identity=True))
    with pytest.raises(ValueError, match="fixed part count"):
        next(enumerate_decompositions(4, allow_identity=True))
    with pytest.raises(ValueError, match="positive"):
        next(enumerate_decompositions(0))
    with pytest.raises(ValueError, match="nonnegative"):
        next(enumerate_decompositions(3, -1))


def test_enumerate_stream_is_sorted_and_duplicate_free():
    streams = [
        list(enumerate_decompositions(4)),
        list(enumerate_decompositions(4, 3, allow_identity=True)),
        list(enumerate_decompositions(5, maximal=True)),
    ]
    for stream in streams:
        keys = [d.parts for d in stream]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


@pytest.mark.parametrize("n", range(2, 6))
def test_enumerated_decompositions_verify_and_merge_to_longest(n):
    for d in enumerate_decompositions(n):
        assert verify_decomposition(n, d.parts, allow_identity=False)
        assert merge(n, d.parts) == longest(n)
        assert len(d) <= n - 1


def _random_family(seed):
    # abstract roots, several exact partitions cut up so that covers exist,
    # plus random subsets, the whole root set, empty parts and repeated
    # root sets
    rng = random.Random(seed)
    roots = [f"e{k}" for k in range(rng.randint(6, 10))]
    root_sets = []
    for _ in range(3):
        shuffled = rng.sample(roots, len(roots))
        cuts = sorted(rng.sample(range(1, len(roots)), rng.randint(1, 4)))
        root_sets += [shuffled[a:b] for a, b in zip([0, *cuts], [*cuts, len(roots)])]
    root_sets += [rng.sample(roots, rng.randint(1, 4)) for _ in range(6)] + [roots]
    root_sets += [[], []] + rng.sample(root_sets, 4)
    rng.shuffle(root_sets)
    parts = [(f"p{k}", frozenset(s)) for k, s in enumerate(root_sets)]
    return roots, rng.sample(roots, 3), parts


def _type_a_family(n):
    parts = [(p, inversion_set(p).roots) for p in perms(n)]
    return all_roots(n), simple_roots(n), parts


COVER_FAMILIES = pytest.mark.parametrize(
    "family",
    [_random_family(seed) for seed in range(12)] + [_type_a_family(n) for n in range(1, 6)],
    ids=[f"random{seed}" for seed in range(12)] + [f"A{n}" for n in range(1, 6)],
)


def _brute_force_covers(roots, parts, most):
    # every set of at most `most` pairwise disjoint nonempty parts whose
    # union is `roots`: part combinations grown in list order, on root sets
    roots = frozenset(roots)
    parts = [(item, frozenset(root_set)) for item, root_set in parts if root_set]
    found = []

    def extend(start, items, union):
        if union == roots:
            found.append(tuple(sorted(items)))
        elif len(items) < most:
            for k in range(start, len(parts)):
                item, root_set = parts[k]
                if not root_set & union:
                    extend(k + 1, [*items, item], union | root_set)

    extend(0, [], frozenset())
    return sorted(found)


def _multiset(covers):
    return sorted(tuple(sorted(cover)) for cover in covers)


@COVER_FAMILIES
def test_exact_covers_match_a_brute_force_oracle(family):
    # the random families hold parts without a simple root, parts that share
    # a simple-root signature and repeated root sets
    roots, simple, parts = family
    oracle = _brute_force_covers(roots, parts, 4)
    root_sets = dict(parts)
    free = list(exact_covers(roots, simple, parts))
    for cover in free:
        assert sum(len(root_sets[item]) for item in cover) == len(set(roots))
        assert frozenset().union(*(root_sets[item] for item in cover)) == set(roots)
    assert _multiset(c for c in free if len(c) <= 4) == oracle
    for r in range(5):
        assert _multiset(exact_covers(roots, simple, parts, r)) == [
            c for c in oracle if len(c) == r
        ]
        assert _multiset(exact_covers(roots, simple, parts, r, pad=True)) == [
            c for c in oracle if len(c) <= r
        ]


@COVER_FAMILIES
def test_fixed_part_count_covers_equal_the_filtered_free_search(family):
    # the forced last one or two parts of a fixed-r search must find exactly
    # the covers of the free search with that many parts, in the same order
    roots, simple, parts = family
    free = list(exact_covers(roots, simple, parts))
    assert len(set(free)) == len(free)
    for r in range(6):
        assert list(exact_covers(roots, simple, parts, r)) == [
            c for c in free if len(c) == r
        ]
        assert list(exact_covers(roots, simple, parts, r, pad=True)) == [
            c for c in free if len(c) <= r
        ]


# ---------------------------------------------------------------------------
# structural counts: frozen values


def test_count_a_irreducible_table():
    table = count_structural("A_IRREDUCIBLE", 10)
    assert table.counts == (1, 1, 2, 6, 23, 114, 717, 5510, 49570, 504706)


def test_count_a_maximal_table():
    table = count_structural("A_MAXIMAL", 8)
    assert table.counts == (1, 1, 2, 5, 14, 42, 132, 429)
    assert table[5] == 14


def test_count_a_triples_table_to_twenty():
    table = count_structural("A_TRIPLES", 20)
    assert table[1] == 1
    assert table.counts[1:] == TRIPLES_A
    assert table[8] == 104604


def test_count_bc_irreducible_table():
    table = count_structural("BC_IRREDUCIBLE", 9)
    assert table.counts == (1, 3, 14, 100, 973, 11804, 168809, 2757930, 50522914)


def test_count_bc_maximal_table():
    table = count_structural("BC_MAXIMAL", 8)
    assert table.counts == (1, 3, 9, 29, 97, 333, 1165, 4135)


def test_count_bc_triples_table_to_twenty():
    table = count_structural("BC_TRIPLES", 20)
    assert table.counts == TRIPLES_BC


def test_count_simple_pair_tables():
    assert count_structural("SIMPLE_PAIRS_A", 9).counts == (
        0,
        1,
        0,
        1,
        3,
        23,
        169,
        1463,
        14073,
    )
    assert count_structural("SIMPLE_PAIRS_BC", 9).counts == (
        0,
        2,
        10,
        90,
        966,
        12338,
        181470,
        3018082,
        55995486,
    )


def test_count_structural_validation():
    with pytest.raises(ValueError, match="unknown family"):
        count_structural("D_TRIPLES", 5)
    with pytest.raises(ValueError, match="n_max"):
        count_structural("A_TRIPLES", 0)
    with pytest.raises(ValueError, match="n_max"):
        count_structural("A_TRIPLES", 65)


@pytest.mark.parametrize("family", FAMILIES)
def test_count_prefixes_agree_with_the_bound(family):
    # a table for n_max is the prefix of the table at the bound, down to
    # n_max = 1 and 2, where the recursions start
    full = count_structural(family, 64).counts
    for n_max in range(1, 25):
        assert count_structural(family, n_max).counts == full[:n_max]


# ---------------------------------------------------------------------------
# structural counts vs exhaustive enumeration


def _filtered_irreducible_search(n):
    """The irreducible decompositions searched over all n! permutations, filtered."""
    parts = [(p, inversion_set(p).roots) for p in perms(n) if is_irreducible_structural(p)]
    covers = exact_covers(all_roots(n), simple_roots(n), parts)
    return sorted((Decomposition(n, cover) for cover in covers), key=lambda d: d.parts)


@pytest.mark.parametrize("n", range(1, 8))
def test_generated_irreducible_decompositions_equal_the_search(n):
    generated = list(enumerate_decompositions(n, irreducible_only=True))
    assert generated == _filtered_irreducible_search(n)


@pytest.mark.parametrize("n", range(1, 7))
def test_irreducible_listings_by_part_count_equal_the_search(n):
    searched = _filtered_irreducible_search(n)
    for r in range(n + 2):
        exact = [d for d in searched if len(d) == r]
        assert list(enumerate_decompositions(n, r, irreducible_only=True)) == exact
        padded = [
            Decomposition(n, d.parts + (identity(n),) * (r - len(d)))
            for d in searched
            if len(d) <= r
        ]
        padded.sort(key=lambda d: d.parts)
        listed = enumerate_decompositions(n, r, irreducible_only=True, allow_identity=True)
        assert list(listed) == padded


@pytest.mark.parametrize("n", range(1, 7))
def test_listings_equal_the_search_over_all_permutations(n):
    # every decomposition is a coarsening of a built irreducible one; the
    # reference searches the covers among all n! - 1 nonidentity permutations
    parts = [(p, inversion_set(p).roots) for p in _nonidentity(n)]
    for r in [None, *range(n + 2)]:
        for pad in [False] if r is None else [False, True]:
            covers = exact_covers(all_roots(n), simple_roots(n), parts, r, pad=pad)
            searched = [
                Decomposition(n, cover + ((identity(n),) * (r - len(cover)) if pad else ()))
                for cover in covers
            ]
            searched.sort(key=lambda d: d.parts)
            assert list(enumerate_decompositions(n, r, allow_identity=pad)) == searched


def test_generated_irreducible_counts_match_the_structural_table():
    table = count_structural("A_IRREDUCIBLE", 8)
    generated = [enumerate_decompositions(n, irreducible_only=True) for n in range(1, 9)]
    assert [sum(1 for _ in listing) for listing in generated] == list(table.counts)


def test_generate_irreducible_refuses_degrees_out_of_range():
    with pytest.raises(ValueError, match="exceeds the brute-force bound 8"):
        next(enumerate_decompositions(9, irreducible_only=True))
    with pytest.raises(ValueError, match="positive"):
        next(enumerate_decompositions(0, irreducible_only=True))


def _nonidentity(n):
    return [p for p in perms(n) if p != identity(n)]


@pytest.mark.parametrize("n", range(1, 9))
def test_irreducible_candidates_are_the_structural_filter(n):
    # criterion 4 searches the irreducible decompositions among the
    # structurally irreducible permutations; each of them is a part of some
    # built decomposition, and no other permutation is
    built = {part for parts in decompose._built_decompositions(n, 0) for part in parts}
    assert sorted(built) == [p for p in _nonidentity(n) if is_irreducible_structural(p)]
    if n <= 5:
        assert sorted(built) == [p for p in _nonidentity(n) if is_irreducible(p)]


def _one_descent(n):
    return [p for p in perms(n) if sum(a > b for a, b in zip(p, p[1:])) == 1]


@pytest.mark.parametrize("n", range(1, 9))
def test_one_descent_candidates_are_the_descent_scan(n):
    listed = _one_descent(n)
    assert len(listed) == 2**n - n - 1
    # one simple root each, so none splits: maximal decompositions are irreducible
    assert all(is_irreducible_structural(p) for p in listed)
    if n <= 5:
        assert all(is_irreducible(p) for p in listed)


@pytest.mark.parametrize("n", range(1, 8))
def test_maximal_listing_equals_the_one_descent_search(n):
    # the maximal parts are the one-descent permutations; the listing is
    # built from the (2 1) skeleton instead of searched for
    parts = [(p, inversion_set(p).roots) for p in _one_descent(n)]
    covers = exact_covers(all_roots(n), simple_roots(n), parts, n - 1)
    searched = sorted((Decomposition(n, cover) for cover in covers), key=lambda d: d.parts)
    assert list(enumerate_decompositions(n, maximal=True)) == searched


def test_irreducible_search_lists_its_candidates_without_testing_them(count_calls):
    structural_calls = count_calls(decompose, "is_irreducible_structural")
    # a filtered scan would test all 5,040 permutations of degree 7
    assert sum(1 for _ in enumerate_decompositions(7, irreducible_only=True)) == 717
    # every maximal decomposition is irreducible, so none is tested
    maximal = list(enumerate_decompositions(6, maximal=True))
    assert list(enumerate_decompositions(6, maximal=True, irreducible_only=True)) == maximal
    assert (len(maximal), structural_calls) == (42, [])


def test_too_many_parts_list_nothing_without_a_search(count_calls):
    searches = count_calls(decompose, "exact_covers")
    builds = count_calls(decompose, "_skeletons")
    # each nonempty part holds one of the n - 1 simple roots
    assert list(enumerate_decompositions(7, 7)) == []
    assert list(enumerate_decompositions(7, 50)) == []
    # and at n > 1 some part is nonempty, padded or not
    assert list(enumerate_decompositions(8, 0)) == []
    assert list(enumerate_decompositions(8, 0, irreducible_only=True)) == []
    assert list(enumerate_decompositions(8, 0, allow_identity=True)) == []
    assert list(enumerate_decompositions(2, 0, irreducible_only=True, allow_identity=True)) == []
    # the only one-part decomposition is w0, which is reducible at n >= 3
    assert list(enumerate_decompositions(8, 1, irreducible_only=True)) == []
    assert list(enumerate_decompositions(8, 1, irreducible_only=True, allow_identity=True)) == []
    assert searches == []
    assert builds == []


@pytest.mark.parametrize("n", range(1, 7))
def test_counts_match_enumeration_irreducible(n):
    expected = count_structural("A_IRREDUCIBLE", n)[n]
    assert sum(1 for _ in enumerate_decompositions(n, irreducible_only=True)) == expected


@pytest.mark.parametrize("n", range(2, 7))
def test_counts_match_enumeration_maximal(n):
    expected = count_structural("A_MAXIMAL", n)[n]
    assert sum(1 for _ in enumerate_decompositions(n, maximal=True)) == expected


@pytest.mark.parametrize("n", range(1, 7))
def test_counts_match_enumeration_triples(n):
    expected = count_structural("A_TRIPLES", n)[n]
    assert sum(1 for _ in enumerate_decompositions(n, 3, allow_identity=True)) == expected


# ---------------------------------------------------------------------------
# structural counts vs the generating-series route


def test_counts_agree_with_series_route():
    order = 64
    assert count_structural("A_IRREDUCIBLE", order).counts == tuple(
        series_A(order).coeffs[1:]
    )
    assert count_structural("BC_IRREDUCIBLE", order).counts == tuple(
        series_B(order).coeffs[1:]
    )
    assert count_structural("SIMPLE_PAIRS_A", order).counts == tuple(
        simple_pairs_A(order).coeffs[1:]
    )
    assert count_structural("SIMPLE_PAIRS_BC", order).counts == tuple(
        series_SB(order).coeffs[1:]
    )
    assert count_structural("BC_MAXIMAL", order).counts == tuple(
        series_CatB(order).coeffs[1:]
    )
    assert count_structural("A_MAXIMAL", order).counts == tuple(
        catalan(n - 1) for n in range(1, order + 1)
    )


def test_a_maximal_satisfies_catalan_recursion():
    c = count_structural("A_MAXIMAL", 41).counts  # c[k] is the k-th Catalan number
    for k in range(1, 41):
        assert c[k] == sum(c[t - 1] * c[k - t] for t in range(1, k + 1))


# ---------------------------------------------------------------------------
# randomized properties


@st.composite
def degree_and_perm(draw, max_degree=7):
    n = draw(st.integers(min_value=1, max_value=max_degree))
    sigma = tuple(draw(st.permutations(tuple(range(1, n + 1)))))
    return n, sigma


@given(degree_and_perm())
def test_complement_pair_always_verifies(case):
    n, sigma = case
    assert verify_decomposition(n, [sigma, compose(longest(n), sigma)])


@given(degree_and_perm(max_degree=6), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_merge_of_random_subset_adds_inversion_counts(case, rng):
    n, sigma = case
    parts = [sigma, compose(longest(n), sigma)]
    chosen = [p for p in parts if rng.random() < 0.5]
    merged = _merged_by_engine(n, chosen)
    assert inversion_count(merged) == sum(map(inversion_count, chosen))
    assert merged == merge(n, chosen)


@given(st.integers(min_value=1, max_value=6))
def test_identity_only_irreducible_with_empty_inversions(n):
    assert is_irreducible_structural(identity(n))
    assert is_irreducible(identity(n))
