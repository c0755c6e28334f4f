"""Inversion-set calculus: frozen examples, exhaustive invariants, properties."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootdec import permcore
from rootdec.permcore import (
    RootSubset,
    all_roots,
    closure_violation,
    coclosure_violation,
    complement_decomposition,
    compose,
    format_permutation,
    format_root_subset,
    identity,
    inverse,
    inversion_set,
    is_closed,
    is_coclosed,
    is_inversion_set,
    longest,
    parse_permutation,
    parse_root_subset,
    permutation_from_inversion_set,
    restrict,
    simple_roots,
)


def perms(n: int):
    return itertools.permutations(range(1, n + 1))


# ---------------------------------------------------------------------------
# oracles: a pair-set comprehension and O(n^3) triple scans, sharing no code
# with the row kernel


def oracle_inversion_pairs(sigma) -> frozenset:
    """The pairs ``(i, j)``, ``i < j``, with ``sigma(i) > sigma(j)``, by direct comparison."""
    n = len(sigma)
    return frozenset(
        (i, j) for i in range(1, n) for j in range(i + 1, n + 1) if sigma[i - 1] > sigma[j - 1]
    )


def oracle_closure_violation(n: int, roots) -> tuple[int, int, int] | None:
    """The first triple ``i < j < k`` with ``(i,j)``, ``(j,k)`` in ``roots`` and ``(i,k)`` not."""
    for i, j, k in itertools.combinations(range(1, n + 1), 3):
        if (i, j) in roots and (j, k) in roots and (i, k) not in roots:
            return (i, j, k)
    return None


def oracle_coclosure_violation(n: int, roots) -> tuple[int, int, int] | None:
    """The closure scan on the complement."""
    return oracle_closure_violation(n, frozenset(all_roots(n)) - roots)


def oracle_recognition_error(n: int, roots) -> str | None:
    """The message that rejects ``roots`` as an inversion set, or None when it is one."""
    bad = oracle_closure_violation(n, roots)
    if bad is not None:
        i, j, k = bad
        return f"not an inversion set: ({i},{j}) and ({j},{k}) are members but ({i},{k}) is not"
    bad = oracle_coclosure_violation(n, roots)
    if bad is not None:
        i, j, k = bad
        return f"not an inversion set: ({i},{k}) is a member but neither ({i},{j}) nor ({j},{k}) is"
    return None


def seeded_permutations():
    """Every permutation of degree <= 7, then seeded ones of degree 8..60."""
    for n in range(1, 8):
        yield from perms(n)
    rng = random.Random(60)
    for n in range(8, 61):
        for _ in range(3):
            yield tuple(rng.sample(range(1, n + 1), n))


# ---------------------------------------------------------------------------
# frozen examples


def test_inversion_set_examples():
    assert inversion_set((2, 1, 3)).roots == {(1, 2)}
    assert inversion_set(identity(5)).roots == frozenset()
    assert inversion_set((4, 3, 2, 1)).roots == frozenset(all_roots(4))


def test_closed_coclosed_examples():
    assert not is_closed(RootSubset(3, {(1, 2), (2, 3)}))
    assert is_closed(RootSubset(3, set()))
    assert is_closed(RootSubset(3, {(1, 2), (2, 3), (1, 3)}))
    assert not is_coclosed(RootSubset(3, {(1, 3)}))
    assert is_coclosed(RootSubset(3, set(all_roots(3))))
    assert is_coclosed(RootSubset(3, {(1, 2)}))


def test_is_inversion_set_examples():
    assert is_inversion_set(RootSubset(3, {(1, 2)}))
    assert not is_inversion_set(RootSubset(3, {(1, 3)}))
    assert not is_inversion_set(RootSubset(3, {(1, 2), (2, 3)}))


def test_permutation_from_inversion_set_examples():
    assert permutation_from_inversion_set(RootSubset(3, {(1, 2)})) == (2, 1, 3)
    assert permutation_from_inversion_set(RootSubset(4, set())) == (1, 2, 3, 4)
    assert permutation_from_inversion_set(RootSubset(3, {(1, 3), (2, 3)})) == (2, 3, 1)


def test_from_inversion_set_diagnostics_name_a_triple():
    cases = [
        (3, {(1, 3)}, "(1,3) is a member but neither (1,2) nor (2,3) is"),
        (3, {(1, 2), (2, 3)}, "(1,2) and (2,3) are members but (1,3) is not"),
        (6, {(1, 2), (2, 5), (3, 6), (1, 6)}, "(1,2) and (2,5) are members but (1,5) is not"),
    ]
    for n, roots, message in cases:
        with pytest.raises(ValueError) as caught:
            permutation_from_inversion_set(RootSubset(n, roots))
        assert str(caught.value) == f"not an inversion set: {message}"


def candidate_subsets(n: int):
    """Every subset of the positive system up to n = 5; above that, every
    one-root flip of a few seeded inversion sets."""
    roots = all_roots(n)
    if n <= 5:
        for mask in range(1 << len(roots)):
            yield RootSubset(n, {root for k, root in enumerate(roots) if mask >> k & 1})
        return
    rng = random.Random(n)
    for _ in range(4):
        inv = inversion_set(rng.sample(range(1, n + 1), n)).roots
        for root in roots:
            yield RootSubset(n, inv ^ {root})


@pytest.mark.parametrize("n", range(1, 11))
def test_from_inversion_set_accepts_exactly_the_inversion_sets(n):
    # the O(n^2) round trip, its witnesses and its messages against the
    # triple scans of the oracle
    verdicts = set()
    for phi in candidate_subsets(n):
        roots = phi.roots
        assert closure_violation(phi) == oracle_closure_violation(n, roots)
        assert coclosure_violation(phi) == oracle_coclosure_violation(n, roots)
        message = oracle_recognition_error(n, roots)
        accepted = is_inversion_set(phi)
        assert accepted == (message is None)
        verdicts.add(accepted)
        if accepted:
            assert inversion_set(permutation_from_inversion_set(phi)) == phi
        else:
            with pytest.raises(ValueError) as caught:
                permutation_from_inversion_set(phi)
            assert str(caught.value) == message
    assert verdicts == ({True, False} if n >= 3 else {True})


def test_inversion_set_matches_the_pair_oracle():
    for sigma in seeded_permutations():
        phi = inversion_set(sigma)
        pairs = oracle_inversion_pairs(sigma)
        assert phi.n == len(sigma)
        assert phi.roots == pairs
        assert list(phi) == sorted(pairs)
        assert len(phi) == len(pairs)
        assert phi == RootSubset(len(sigma), pairs)


def test_inversion_set_calls_the_row_kernel_once(count_calls):
    kernel = count_calls(permcore, "_inversion_rows")
    inversion_set((3, 1, 4, 2))
    assert kernel == [((3, 1, 4, 2),)]


def test_root_subset_contract():
    sigma = (3, 1, 4, 2)
    phi = inversion_set(sigma)
    built = RootSubset(4, iter([(3, 4), (1, 4), (1, 2)]))
    assert built == phi and hash(built) == hash(phi)
    assert len({built, phi}) == 1
    assert RootSubset(4, []) != RootSubset(5, [])
    assert list(phi) == sorted(phi) == [(1, 2), (1, 4), (3, 4)]
    assert (1, 4) in phi and (3, 2) not in phi and (0, 1) not in phi and (4, 5) not in phi
    assert phi.complement() == inversion_set(compose(longest(4), sigma))
    assert phi.complement().complement() == phi
    for name in ("n", "roots"):
        with pytest.raises(AttributeError):
            setattr(phi, name, built.roots)
    assert phi.roots == {(1, 2), (1, 4), (3, 4)} and phi.n == 4


def test_group_operations():
    assert longest(3) == (3, 2, 1)
    assert compose(longest(3), (2, 1, 3)) == (2, 3, 1)
    assert inverse(identity(6)) == identity(6)
    a = (3, 1, 4, 2)
    assert compose(a, inverse(a)) == identity(4)
    assert compose(inverse(a), a) == identity(4)
    with pytest.raises(ValueError, match="degree mismatch"):
        compose((2, 1), (1, 2, 3))


def test_complement_decomposition_examples():
    assert complement_decomposition((2, 1, 3)) == ((2, 1, 3), (2, 3, 1))
    assert complement_decomposition(identity(4)) == (identity(4), longest(4))
    assert complement_decomposition(longest(4)) == (longest(4), identity(4))


def test_restrict_examples():
    # Selected values are replaced by their ranks among themselves.
    assert restrict((5, 2, 6, 1, 4, 7, 3), {1, 4, 6}) == (2, 1, 3)  # values 5,1,7
    assert restrict((5, 2, 6, 1, 4, 7, 3), {1, 4, 7}) == (3, 1, 2)  # values 5,1,3
    assert restrict((5, 3, 4, 8, 1, 2, 6, 7), {1, 2, 3}) == (3, 1, 2)
    assert restrict((3, 1, 2), {2}) == (1,)
    sigma = (4, 1, 3, 2)
    assert restrict(sigma, range(1, 5)) == sigma
    with pytest.raises(ValueError, match="empty"):
        restrict(sigma, ())
    with pytest.raises(ValueError, match="out of range"):
        restrict(sigma, {0, 2})


def test_text_formats():
    assert parse_permutation("5 3 4 8 1 2 6 7") == (5, 3, 4, 8, 1, 2, 6, 7)
    assert parse_permutation("5,3,4,8,1,2,6,7") == (5, 3, 4, 8, 1, 2, 6, 7)
    assert format_permutation((2, 1, 3)) == "2 1 3"
    assert parse_root_subset(3, "1,2; 2,3").roots == {(1, 2), (2, 3)}
    assert parse_root_subset(3, "").roots == frozenset()
    assert format_root_subset(RootSubset(3, {(2, 3), (1, 2)})) == "1,2; 2,3"
    with pytest.raises(ValueError):
        parse_permutation("1 2 2")
    with pytest.raises(ValueError):
        parse_root_subset(3, "3,1")


def test_root_subset_validation():
    with pytest.raises(ValueError, match=r"^\(1,4\) is not a positive root for degree 3$"):
        RootSubset(3, {(1, 4)})
    with pytest.raises(ValueError, match=r"^\(2,2\) is not a positive root for degree 3$"):
        RootSubset(3, {(2, 2)})
    with pytest.raises(ValueError, match="^degree must be at least 1, got 0$"):
        RootSubset(0, set())


# ---------------------------------------------------------------------------
# exhaustive invariants


@pytest.mark.parametrize("n", range(1, 8))
def test_round_trip_exhaustive(n):
    for sigma in perms(n):
        assert permutation_from_inversion_set(inversion_set(sigma)) == sigma


@pytest.mark.parametrize("n", range(1, 6))
def test_inversion_set_count_is_factorial(n):
    roots = all_roots(n)
    hits = sum(
        1
        for bits in itertools.product((False, True), repeat=len(roots))
        if is_inversion_set(
            RootSubset(n, {r for r, b in zip(roots, bits) if b})
        )
    )
    import math

    assert hits == math.factorial(n)


@pytest.mark.parametrize("n", range(1, 8))
def test_complement_partitions_positive_system(n):
    full = frozenset(all_roots(n))
    for sigma in perms(n):
        first, second = complement_decomposition(sigma)
        inv_a, inv_b = inversion_set(first).roots, inversion_set(second).roots
        assert inv_a.isdisjoint(inv_b)
        assert inv_a | inv_b == full
        assert len(inv_a) + len(inv_b) == n * (n - 1) // 2


@pytest.mark.parametrize("n", range(2, 6))
def test_coclosed_iff_complement_closed(n):
    # coclosure_violation is built on the complement, so compare it with a
    # direct first-witness scan of the definition instead
    roots = all_roots(n)
    for bits in itertools.product((False, True), repeat=len(roots)):
        phi = RootSubset(n, {r for r, b in zip(roots, bits) if b})
        witness = next(
            (
                (i, j, k)
                for i, j, k in itertools.combinations(range(1, n + 1), 3)
                if (i, j) not in phi and (j, k) not in phi and (i, k) in phi
            ),
            None,
        )
        assert coclosure_violation(phi) == witness
        assert is_coclosed(phi) == (witness is None) == is_closed(phi.complement())


@pytest.mark.parametrize("n", range(2, 8))
def test_nonempty_inversion_sets_contain_a_simple_root(n):
    simples = set(simple_roots(n))
    for sigma in perms(n):
        inv = inversion_set(sigma).roots
        if inv:
            assert inv & simples


# ---------------------------------------------------------------------------
# randomized properties

permutation_strategy = (
    st.integers(min_value=1, max_value=12)
    .flatmap(lambda n: st.permutations(tuple(range(1, n + 1))))
    .map(tuple)
)


@given(permutation_strategy)
def test_round_trip_property(sigma):
    assert permutation_from_inversion_set(inversion_set(sigma)) == sigma


@given(permutation_strategy)
def test_group_axioms_property(sigma):
    n = len(sigma)
    assert compose(sigma, inverse(sigma)) == identity(n)
    assert inverse(inverse(sigma)) == sigma
    assert compose(identity(n), sigma) == sigma


@given(permutation_strategy)
def test_full_restriction_is_identity_operation(sigma):
    assert restrict(sigma, range(1, len(sigma) + 1)) == sigma


@given(permutation_strategy)
def test_parse_format_round_trip(sigma):
    assert parse_permutation(format_permutation(sigma)) == sigma


@settings(max_examples=200)
@given(st.data())
def test_coclosed_matches_closed_complement_random(data):
    n = data.draw(st.integers(min_value=2, max_value=8))
    roots = all_roots(n)
    members = data.draw(st.sets(st.sampled_from(roots)))
    phi = RootSubset(n, members)
    assert is_coclosed(phi) == is_closed(phi.complement())
