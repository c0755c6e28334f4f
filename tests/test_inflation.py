"""Blocks, simple permutations, inflation, and simple-form canonicity."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_permcore import oracle_inversion_pairs

from rootdec import inflation, permcore
from rootdec.inflation import (
    IDENTITY,
    REVERSAL,
    SIMPLE,
    Block,
    SimpleForm,
    blocks,
    exceptional,
    format_inflation,
    inflate,
    inflation_inversion_set,
    is_atomic,
    is_exceptional,
    is_minus_decomposable,
    is_plus_decomposable,
    is_simple,
    one_point_deletions,
    parse_inflation,
    parse_simple_form,
    simple_form,
)
from rootdec.permcore import compose, identity, inversion_set, longest, restrict


def perms(n: int):
    return itertools.permutations(range(1, n + 1))


# ---------------------------------------------------------------------------
# frozen examples


def test_inflate_examples():
    assert inflate((2, 4, 1, 3), [(3, 1, 2), (1,), (1, 2), (1, 2)]) == (5, 3, 4, 8, 1, 2, 6, 7)
    assert inflate(identity(3), [identity(2), identity(1), identity(3)]) == identity(6)
    assert inflate((2, 1), [(1,), (1, 2)]) == (3, 1, 2)
    with pytest.raises(ValueError, match="needs 2 parts"):
        inflate((2, 1), [(1,)])


def test_inflation_inversion_set_examples():
    assert inflation_inversion_set((2, 1), [(1,), (1, 2)]).roots == {(1, 2), (1, 3)}
    assert inflation_inversion_set(identity(2), [identity(2), identity(2)]).roots == frozenset()
    data = ((2, 4, 1, 3), ((3, 1, 2), (1,), (1, 2), (1, 2)))
    assert inflation_inversion_set(*data).roots == inversion_set((5, 3, 4, 8, 1, 2, 6, 7)).roots


def oracle_inflation_pairs(skeleton, parts) -> frozenset:
    """The set-based assembly: a rectangle per skeleton inversion, each part's pairs shifted."""
    starts = list(itertools.accumulate(map(len, parts), initial=1))
    pairs = set()
    for a, b in oracle_inversion_pairs(skeleton):
        slot_a, slot_b = range(starts[a - 1], starts[a]), range(starts[b - 1], starts[b])
        pairs.update(itertools.product(slot_a, slot_b))
    for start, part in zip(starts, parts):
        pairs.update((start + x - 1, start + y - 1) for x, y in oracle_inversion_pairs(part))
    return frozenset(pairs)


def test_inflation_inversion_set_matches_the_pair_oracle():
    rng = random.Random(27)
    for _ in range(500):
        m = rng.randint(1, 8)
        skeleton = tuple(rng.sample(range(1, m + 1), m))
        sizes = [rng.randint(1, 6) for _ in range(m)]
        parts = [
            identity(k) if rng.random() < 0.3 else tuple(rng.sample(range(1, k + 1), k))
            for k in sizes
        ]
        phi = inflation_inversion_set(skeleton, parts)
        assert phi.n == sum(sizes)
        assert phi.roots == oracle_inflation_pairs(skeleton, parts)


def test_inflation_inversion_set_checks_each_piece_once_and_builds_no_inversion_set(count_calls):
    skeleton, parts = (2, 4, 1, 3), [(3, 1, 2), (1,), (1, 2), (2, 1)]
    checks = count_calls(inflation, "check_permutation")
    inner_checks = count_calls(permcore, "check_permutation")
    inversion_sets = count_calls(permcore, "inversion_set")
    inflation_inversion_set(skeleton, parts)
    assert len(checks) + len(inner_checks) == len(parts) + 1
    assert inversion_sets == [] and not hasattr(inflation, "inversion_set")


def test_blocks_examples():
    big = blocks((9, 7, 1, 5, 3, 4, 6, 8, 2))
    assert Block(start=2, length=8) in big
    assert Block(start=4, length=4) in big
    assert blocks(identity(3)) == tuple(
        Block(s, t) for s in (1, 2, 3) for t in range(1, 5 - s)
    )
    assert len(blocks((2, 4, 1, 3))) == 5  # only trivial blocks and the full one
    assert all(b.length in (1, 4) for b in blocks((2, 4, 1, 3)))


def test_blocks_sorted_and_images_are_intervals():
    for n in range(1, 7):
        for sigma in perms(n):
            found = blocks(sigma)
            assert list(found) == sorted(found, key=lambda b: (b.start, b.length))
            for b in found:
                images = sorted(sigma[b.start - 1 : b.start + b.length - 1])
                assert images == list(range(images[0], images[0] + b.length))
            # complete: every interval of positions whose images form an interval
            windows = [
                (start, length)
                for start in range(1, n + 1)
                for length in range(1, n + 2 - start)
                if max(sigma[start - 1 : start - 1 + length])
                - min(sigma[start - 1 : start - 1 + length])
                == length - 1
            ]
            assert [(b.start, b.length) for b in found] == windows


def test_simple_atomic_examples():
    assert is_simple((2, 4, 1, 3))
    assert not is_simple(identity(3))
    assert is_plus_decomposable(identity(3))
    assert is_atomic((2, 4, 1, 3))
    assert not is_atomic((1, 2))
    assert is_simple((1,)) and is_simple((1, 2)) and is_simple((2, 1))
    assert not any(is_simple(sigma) for sigma in perms(3))


def test_plus_minus_decomposable_are_exclusive():
    for n in range(1, 7):
        for sigma in perms(n):
            assert not (is_plus_decomposable(sigma) and is_minus_decomposable(sigma))
            # the definitions: a proper prefix onto the bottom resp. top values
            prefixes = [set(sigma[:t]) for t in range(1, n)]
            assert is_plus_decomposable(sigma) == any(
                prefix == set(range(1, t + 1)) for t, prefix in enumerate(prefixes, 1)
            )
            assert is_minus_decomposable(sigma) == any(
                prefix == set(range(n - t + 1, n + 1))
                for t, prefix in enumerate(prefixes, 1)
            )


def test_simple_form_examples():
    form = simple_form((5, 3, 4, 8, 1, 2, 6, 7))
    assert form.skeleton_kind == SIMPLE
    assert form.skeleton == (2, 4, 1, 3)
    assert form.parts == ((3, 1, 2), (1,), (1, 2), (1, 2))

    form = simple_form(identity(5))
    assert form.skeleton_kind == IDENTITY
    assert form.skeleton == identity(5)
    assert form.parts == ((1,),) * 5

    form = simple_form((1, 3, 2, 4, 6, 5, 7, 8))
    assert form.skeleton_kind == IDENTITY
    assert form.skeleton == identity(6)
    assert form.parts == ((1,), (2, 1), (1,), (2, 1), (1,), (1,))


def test_simple_form_small_degrees():
    assert simple_form((2, 1)) == SimpleForm(REVERSAL, (2, 1), ((1,), (1,)))
    assert simple_form((1, 2)) == SimpleForm(IDENTITY, (1, 2), ((1,), (1,)))
    assert simple_form(longest(4)).parts == ((1,),) * 4
    with pytest.raises(ValueError, match="degree 1"):
        simple_form((1,))


def test_simple_form_checks_a_simple_skeleton_once(monkeypatch):
    # only SimpleForm's own check runs is_simple, on the skeleton
    calls = []
    real_is_simple = inflation.is_simple

    def counting_is_simple(sigma):
        calls.append(len(sigma))
        return real_is_simple(sigma)

    monkeypatch.setattr(inflation, "is_simple", counting_is_simple)
    assert simple_form((5, 3, 4, 8, 1, 2, 6, 7)).skeleton == (2, 4, 1, 3)
    assert calls == [4]


def test_simple_form_validates_its_expression_once(monkeypatch):
    # SimpleForm's constructor validates skeleton and parts; the self-check
    # that inflates them back into sigma does not validate them again
    calls = []
    real_checked_inflation = inflation._checked_inflation

    def counting_checked_inflation(skeleton, parts):
        calls.append(len(skeleton))
        return real_checked_inflation(skeleton, parts)

    monkeypatch.setattr(inflation, "_checked_inflation", counting_checked_inflation)
    assert str(simple_form((5, 3, 4, 8, 1, 2, 6, 7))) == "(2,4,1,3)[(3,1,2),(1),(1,2),(1,2)]"
    assert calls == [4, 4]  # the constructor, then str's format_inflation
    assert simple_form((2, 4, 1, 3)).permutation() == (2, 4, 1, 3)
    assert calls == [4, 4, 4]


def test_simple_form_walks_from_part_starts_only(monkeypatch):
    # (2,4,1,3) inflated by four parts of 50: one walk per part over sigma (at
    # most 4 x 200 positions, where an all-windows scan reads ~19,900 windows)
    # and one restrict, for the skeleton
    walks, restricted = [], []
    real_block_ends, real_restrict = inflation._block_ends, inflation.restrict

    def counting_block_ends(sigma, start):
        walks.append((len(sigma), start))
        return real_block_ends(sigma, start)

    def counting_restrict(sigma, positions):
        restricted.append(len(sigma))
        return real_restrict(sigma, positions)

    monkeypatch.setattr(inflation, "_block_ends", counting_block_ends)
    monkeypatch.setattr(inflation, "restrict", counting_restrict)
    rng = random.Random(4)
    parts = [tuple(rng.sample(range(1, 51), 50)) for _ in range(4)]
    form = simple_form(inflate((2, 4, 1, 3), parts))
    assert form == SimpleForm(SIMPLE, (2, 4, 1, 3), tuple(parts))
    starts = [start for n, start in walks if n == 200]
    assert starts == [1, 51, 101, 151]
    assert restricted == [200]


def test_simple_form_invariants_enforced():
    with pytest.raises(ValueError, match="not simple"):
        SimpleForm(SIMPLE, (1, 2, 3, 4), ((1,),) * 4)
    with pytest.raises(ValueError, match="plus-decomposable"):
        SimpleForm(IDENTITY, identity(2), ((1, 2), (1,)))
    with pytest.raises(ValueError, match="minus-decomposable"):
        SimpleForm(REVERSAL, (2, 1), ((2, 1), (1,)))
    with pytest.raises(ValueError, match="at least two parts"):
        SimpleForm(IDENTITY, (1,), ((1, 2),))
    with pytest.raises(ValueError, match="unknown skeleton kind"):
        SimpleForm("OTHER", (2, 1), ((1,), (1,)))


def test_one_point_deletions_examples():
    assert one_point_deletions((2, 4, 1, 3))[3] == (2, 3, 1)
    assert one_point_deletions((3, 1, 4, 2))[0] == (1, 3, 2)
    assert one_point_deletions(identity(5)) == (identity(4),) * 5
    with pytest.raises(ValueError):
        one_point_deletions((1,))


def test_exceptional_examples():
    assert exceptional(1, 2) == (2, 4, 1, 3)
    assert exceptional(2, 3) == (4, 1, 5, 2, 6, 3)
    assert exceptional(4, 3) == (3, 6, 2, 5, 1, 4)
    assert exceptional(3, 2) == (3, 1, 4, 2)
    with pytest.raises(ValueError, match="half"):
        exceptional(1, 1)
    with pytest.raises(ValueError, match="kind"):
        exceptional(5, 3)


def test_is_exceptional_recognizes_exactly_the_families():
    catalog = {exceptional(kind, half) for kind in (1, 2, 3, 4) for half in (2, 3)}
    for n in range(1, 7):
        for sigma in perms(n):
            assert is_exceptional(sigma) == (sigma in catalog)


def test_serialization_round_trip():
    text = "(2,4,1,3)[(3,1,2),(1),(1,2),(1,2)]"
    form = parse_simple_form(text)
    assert str(form) == text
    assert form.permutation() == (5, 3, 4, 8, 1, 2, 6, 7)
    skeleton, parts = parse_inflation("(1,2,3,4)[(1,3,2),(1),(2,1),(1,2)]")
    assert inflate(skeleton, parts) == (1, 3, 2, 4, 6, 5, 7, 8)
    assert format_inflation(skeleton, parts) == "(1,2,3,4)[(1,3,2),(1),(2,1),(1,2)]"
    with pytest.raises(ValueError, match="needs 2 parts, got 1"):
        format_inflation((2, 1), [(1,)])  # text that parse_inflation would reject


def test_parse_simple_form_rejects_non_canonical():
    with pytest.raises(ValueError, match="plus-decomposable"):
        parse_simple_form("(1,2,3,4)[(1,3,2),(1),(2,1),(1,2)]")
    with pytest.raises(ValueError, match="not simple"):
        parse_simple_form("(2,1,4,3)[(1),(1),(1),(1)]")
    with pytest.raises(ValueError):
        parse_inflation("(2,1)[(1)(1)]")
    with pytest.raises(ValueError):
        parse_inflation("2,1[(1),(1)]")


# ---------------------------------------------------------------------------
# exhaustive invariants


@pytest.mark.parametrize("n", range(2, 8))
def test_simple_form_is_unique_fixed_point(n):
    for sigma in perms(n):
        form = simple_form(sigma)
        assert form.permutation() == sigma
        assert simple_form(form.permutation()) == form
        if form.skeleton_kind == SIMPLE:
            assert len(form.skeleton) >= 4


@pytest.mark.parametrize("n", range(1, 8))
def test_simple_iff_reversed_simple(n):
    w0 = longest(n)
    for sigma in perms(n):
        assert is_simple(sigma) == is_simple(compose(w0, sigma))


@pytest.mark.parametrize("n", range(5, 9))
def test_simple_non_exceptional_has_simple_deletion(n):
    for sigma in perms(n):
        if is_simple(sigma) and not is_exceptional(sigma):
            assert any(is_simple(d) for d in one_point_deletions(sigma))


@pytest.mark.parametrize("half", range(2, 7))
@pytest.mark.parametrize("kind", (1, 2, 3, 4))
def test_exceptionals_are_atomic_and_simple(kind, half):
    sigma = exceptional(kind, half)
    assert len(sigma) == 2 * half
    assert is_atomic(sigma)
    assert is_simple(sigma)


# ---------------------------------------------------------------------------
# randomized properties


@st.composite
def inflation_data(draw):
    m = draw(st.integers(min_value=1, max_value=6))
    skeleton = tuple(draw(st.permutations(tuple(range(1, m + 1)))))
    spare = 12 - m
    parts = []
    for _ in range(m):
        size = draw(st.integers(min_value=1, max_value=1 + min(4, spare)))
        spare -= size - 1
        parts.append(tuple(draw(st.permutations(tuple(range(1, size + 1))))))
    return skeleton, tuple(parts)


@settings(max_examples=300)
@given(inflation_data())
def test_inflation_inversion_set_matches_inflate(data):
    skeleton, parts = data
    sigma = inflate(skeleton, parts)
    assert len(sigma) == sum(len(p) for p in parts)
    assert inflation_inversion_set(skeleton, parts).roots == inversion_set(sigma).roots


@settings(max_examples=300)
@given(inflation_data())
def test_inflate_restricts_back_to_its_pieces(data):
    skeleton, parts = data
    sigma = inflate(skeleton, parts)
    start = 1
    first_positions = []
    for part in parts:
        interval = range(start, start + len(part))
        assert restrict(sigma, interval) == part
        first_positions.append(start)
        start += len(part)
    assert restrict(sigma, first_positions) == skeleton


@settings(max_examples=200)
@given(st.integers(min_value=2, max_value=9).flatmap(
    lambda n: st.permutations(tuple(range(1, n + 1)))
).map(tuple))
def test_simple_form_round_trip_property(sigma):
    form = simple_form(sigma)
    assert form.permutation() == sigma
    assert parse_simple_form(str(form)) == form


def _random_simple(rng: random.Random, m: int) -> tuple[int, ...]:
    while True:
        sigma = tuple(rng.sample(range(1, m + 1), m))
        if is_simple(sigma):
            return sigma


def test_simple_form_recovers_large_inflations_of_simple_skeletons():
    # parts of 1..50 over a simple skeleton of degree 4..8 (unique expression),
    # up to degree about 300
    rng = random.Random(2005)
    skeletons = [exceptional(kind, half) for kind in (1, 2, 3, 4) for half in (2, 3, 4)]
    skeletons += [_random_simple(rng, m) for m in (5, 6, 7, 8) for _ in range(3)]
    for skeleton in skeletons:
        for _ in range(3):
            budget = 300
            parts = []
            for remaining in range(len(skeleton), 0, -1):
                size = rng.randint(1, min(50, budget - remaining + 1))
                budget -= size
                parts.append(tuple(rng.sample(range(1, size + 1), size)))
            sigma = inflate(skeleton, parts)
            assert simple_form(sigma) == SimpleForm(SIMPLE, skeleton, tuple(parts))
