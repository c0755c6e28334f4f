"""Verification, irreducibility, enumeration, and structural counting."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootdec.decompose import (
    FAMILIES,
    CountTable,
    Decomposition,
    count_structural,
    enumerate_decompositions,
    exact_covers,
    is_irreducible,
    is_irreducible_structural,
    merge,
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
from rootdec.permcore import (
    all_roots,
    compose,
    identity,
    inversion_set,
    longest,
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
    assert merge(8, [W2, W3]) == (4, 6, 5, 1, 8, 7, 3, 2)


def test_merge_edge_cases():
    assert merge(3, []) == (1, 2, 3)
    assert merge(8, [W1, W2, W3]) == longest(8)
    assert merge(8, [W2]) == W2


def test_merge_rejects_non_inversion_set_union():
    # {(1,2)} with {(2,3)} is not closed: (1,3) is forced but absent
    with pytest.raises(ValueError):
        merge(3, [(2, 1, 3), (1, 3, 2)])


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
        sum(1 for p in perms(n) if is_irreducible_structural(p)) for n in range(1, 7)
    ]
    assert census == [1, 2, 5, 13, 39, 166]


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
    with pytest.raises(ValueError, match="bound"):
        next(enumerate_decompositions(5, bound=4))
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
    merged = merge(n, chosen)
    assert len(inversion_set(merged)) == sum(len(inversion_set(p)) for p in chosen)


@given(st.integers(min_value=1, max_value=6))
def test_identity_only_irreducible_with_empty_inversions(n):
    assert is_irreducible_structural(identity(n))
    assert is_irreducible(identity(n))
