"""Decompositions of the full type-A positive system into inversion sets.

A decomposition writes every positive root exactly once across a collection
of permutations' inversion sets.  This module verifies candidate
decompositions, tests irreducibility of single inversion sets by the
paper's shape of an irreducible part (a simple skeleton inflated by
identity blocks), lists decompositions for small degrees (building the
irreducible ones from the paper's description and merging their parts into
the others), and counts them for large degrees with recursive dynamic
programs that never enumerate.  The exact-cover search stays as the
acceptance suite's independent route.

The structural counts deliberately share no code with :mod:`rootdec.genseries`:
the two routes validate each other in the test suite.  All counting here is
plain big-integer convolution on Python lists.

Counting families:

* ``A_IRREDUCIBLE`` - decompositions of the degree-n system into irreducible
  nonempty parts, unordered.
* ``A_MAXIMAL`` - decompositions into n-1 nonempty parts (each part then
  contains exactly one simple root); these are counted by Catalan numbers.
* ``A_TRIPLES`` - unordered triples of parts, identity parts allowed.
* ``BC_IRREDUCIBLE`` / ``BC_MAXIMAL`` / ``BC_TRIPLES`` - the same counts for
  the rank-n type-B/C positive system (computed here; the signed-permutation
  machinery lives in :mod:`rootdec.bcgroups`).
* ``SIMPLE_PAIRS_A`` - mirror pairs of simple permutations by degree.
* ``SIMPLE_PAIRS_BC`` - symmetric simple embeddings by rank, counting both
  members of each mirror pair.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, TypeVar

from .inflation import inflate, is_simple
from .permcore import (
    Perm,
    Root,
    _inversion_rows,
    _mask_of,
    check_permutation,
    format_permutation,
    identity,
    restrict,
)

__all__ = [
    "DEFAULT_COUNT_LIMIT",
    "DEFAULT_ENUMERATION_BOUND",
    "FAMILIES",
    "CountTable",
    "Decomposition",
    "VerifyResult",
    "count_structural",
    "enumerate_decompositions",
    "exact_covers",
    "inversion_count",
    "is_irreducible_structural",
    "verify_decomposition",
]

FAMILIES = (
    "A_IRREDUCIBLE",
    "A_MAXIMAL",
    "A_TRIPLES",
    "BC_IRREDUCIBLE",
    "BC_MAXIMAL",
    "BC_TRIPLES",
    "SIMPLE_PAIRS_A",
    "SIMPLE_PAIRS_BC",
)

# Every listing starts from the irreducible decompositions, built without a
# search, and the unrestricted and fixed-part-count listings merge the blocks
# of every set partition of each.  In process on 2 cores the unrestricted
# degree-8 listing, 271,497 decompositions, takes 4-5 s.  At degree 9
# the 49,570 irreducible decompositions give 8,703,505 (decomposition,
# coarsening) pairs, 16 s to generate before duplicates are removed, the part
# tuples are held for the sort and each result is checked.
DEFAULT_ENUMERATION_BOUND = 8
# Measured in process on a 2-core machine: every family takes at most 0.03 s
# at n_max = 64, while at 128 all but the two Catalan ones take 0.07-0.22 s.
DEFAULT_COUNT_LIMIT = 64

T = TypeVar("T")


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class Decomposition:
    """An unordered partition of the degree-n positive system into inversion sets.

    Parts are stored sorted lexicographically by one-line notation; identity
    parts may repeat (a multiset), nonidentity parts never can since their
    inversion sets would overlap.  Construction checks each part and runs
    the checks of :func:`verify_decomposition` on them, raising
    ``ValueError`` with its detail, so every instance is a genuine
    decomposition.

    Every bit of a part's inversion mask is a positive root, so parts of
    degree n partition the n(n - 1)/2 roots exactly when their masks hold
    that many bits together (no overlap, given the next) and their union
    does too (no gap).  A part is checked once, when its record
    (:func:`_part`) is made, and only a rejected candidate reaches the row
    check that names the fault.
    """

    n: int
    parts: tuple[Perm, ...]

    def __post_init__(self) -> None:
        n = self.n
        checked = [(part, _part(part)[0]) for part in map(tuple, self.parts)]
        parts = tuple(sorted(part for part, _ in checked))
        object.__setattr__(self, "parts", parts)
        if n >= 1 and all(len(part) == n for part in parts):
            bits = union = 0
            for _, mask in checked:
                bits += mask.bit_count()
                union |= mask
            if bits == math.comb(n, 2) == union.bit_count():
                return
        fault = _partition_fault(n, parts, allow_identity=True)
        if fault:
            raise ValueError(fault)

    def __str__(self) -> str:
        return " | ".join(_part(part)[1] for part in self.parts)

    def __len__(self) -> int:
        return len(self.parts)


@dataclass(frozen=True)
class VerifyResult:
    """Outcome of :func:`verify_decomposition` with a human-readable reason."""

    ok: bool
    detail: str

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class CountTable:
    """Counts for one family at degrees/ranks 1..n_max.

    ``counts[i]`` is the value at n = i + 1; all values are nonnegative exact
    integers.
    """

    family: str
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        object.__setattr__(self, "counts", tuple(self.counts))
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be nonnegative")

    def value(self, n: int) -> int:
        if not 1 <= n <= len(self.counts):
            raise ValueError(f"n={n} outside tabulated range 1..{len(self.counts)}")
        return self.counts[n - 1]

    def __getitem__(self, n: int) -> int:
        return self.value(n)


# ---------------------------------------------------------------------------
# verification


# One record per part of the largest listable degree.  Keying it by tuple
# equality is sound only because check_permutation's verdict is the same for
# equal tuples, (2.0, 1.0) == (2, 1): an entry-type check must run outside it.
@functools.lru_cache(maxsize=math.factorial(DEFAULT_ENUMERATION_BOUND))
def _part(sigma: Perm) -> tuple[int, str]:
    """The checked part's inversion mask, in :mod:`permcore`'s layout, and its text.

    Equal tuples share one record, so the images are printed as ints.
    """
    sigma = check_permutation(sigma)
    return _mask_of(_inversion_rows(sigma)), " ".join(map(str, map(int, sigma)))


def inversion_count(sigma: Perm) -> int:
    """The number of inversions of ``sigma``: the set bits of its inversion rows.

    >>> inversion_count((3, 1, 2))
    2
    """
    return sum(row.bit_count() for row in _inversion_rows(sigma))


def _first_flagged(faults: list[int]) -> tuple[Root, int, int]:
    """The lexicographically first flagged root: the lowest bit of the first nonzero row."""
    i = next(i for i, row in enumerate(faults) if row)
    j = (faults[i] & -faults[i]).bit_length() - 1
    return (i + 1, j + 1), i, j


def _cover_fault(
    parts: list[Perm], degree: int, allow_identity: bool, first=_first_flagged
) -> str | None:
    """Why ``parts`` fail to partition the degree-``degree`` system; None if they do.

    One pass over the parts' :func:`_inversion_rows` flags the roots covered
    twice and those missed.  ``first`` names one flagged root as ``(label,
    row, bit)``; overlaps come before gaps, gaps before identity parts.
    """
    part_rows = [_inversion_rows(part) for part in parts]
    clashes, gaps = [], []
    for i in range(degree):
        seen = clash = 0
        for rows in part_rows:
            clash |= seen & rows[i]
            seen |= rows[i]
        clashes.append(clash)
        gaps.append(((1 << degree) - (2 << i)) & ~seen)
    if any(clashes):
        root, i, j = first(clashes)
        a, b = [k for k, rows in enumerate(part_rows, 1) if rows[i] >> j & 1][:2]
        return f"root {root} covered by parts {a} and {b}"
    if any(gaps):
        return f"root {first(gaps)[0]} not covered by any part"
    if not allow_identity:
        for k, rows in enumerate(part_rows, start=1):
            if not any(rows):
                return f"part {k} is the identity"
    return None


def _partition_fault(n: int, parts: Iterable[Perm], allow_identity: bool) -> str | None:
    """The degree, cover and identity checks of :func:`verify_decomposition`.

    ``parts`` yields checked permutations.  It is read after the n < 1
    check, so a lazy ``map(check_permutation, ...)`` keeps that order.
    """
    if n < 1:
        raise ValueError(f"degree must be at least 1, got {n}")
    parts = list(parts)
    for part in parts:
        if len(part) != n:
            raise ValueError(
                f"degree mismatch: expected {n}, got part"
                f" {format_permutation(part)} of degree {len(part)}"
            )
    return _cover_fault(parts, n, allow_identity)


def verify_decomposition(
    n: int, perms: Iterable[Perm], allow_identity: bool = True
) -> VerifyResult:
    """Check that the inversion sets of ``perms`` partition the positive system.

    Diagnostics name the lexicographically first overlapping root (and the
    first two parts covering it), else the first missing root; with
    ``allow_identity`` false an identity part is also rejected.  A part of
    the wrong degree, or a degree below 1, raises ValueError.

    >>> verify_decomposition(3, [(2, 1, 3), (2, 3, 1)]).ok
    True
    >>> verify_decomposition(3, [(2, 1, 3), (2, 1, 3)]).detail
    'root (1, 2) covered by parts 1 and 2'
    >>> verify_decomposition(3, [(2, 1, 3)]).detail
    'root (1, 3) not covered by any part'
    """
    fault = _partition_fault(n, map(check_permutation, perms), allow_identity)
    valid = f"valid decomposition of the degree-{n} positive system"
    return VerifyResult(not fault, fault or valid)


# ---------------------------------------------------------------------------
# irreducibility


def is_irreducible_structural(sigma: Perm) -> bool:
    """Irreducibility: no split into two nonidentity inversion sets.

    It is read off the paper's description rather than searched for.  The
    identity is irreducible, since every split of its empty inversion set is
    trivial, and a nonidentity permutation is irreducible exactly when it is
    id_a ⊕ S[id_k1, ..., id_km] ⊕ id_b with S simple, (2 1) included (no
    degree-3 permutation is simple).  So strip the fixed points at both
    ends and collapse each maximal run of values rising by one to its first
    position.  No two adjacent values of a simple S rise by one, so each
    identity block is one run and what is left is S; the inflation of a
    simple skeleton is unique (Albert and Atkinson, Discrete Math. 300,
    2005).  (1, 4, 5, 2, 3, 6) strips to (4, 5, 2, 3), which collapses to
    (2, 1); (2, 1, 4, 3) collapses to itself, which is not simple.

    >>> is_irreducible_structural((1, 4, 5, 2, 3, 6))
    True
    >>> is_irreducible_structural((2, 1, 4, 3))
    False
    >>> [p for p in itertools.permutations((1, 2, 3)) if is_irreducible_structural(p)]
    [(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2)]
    """
    sigma = check_permutation(sigma)
    low, high = 0, len(sigma)
    while low < high and sigma[low] == low + 1:
        low += 1
    while high > low and sigma[high - 1] == high:
        high -= 1
    if low == high:
        return True
    starts = [i + 1 for i in range(low, high) if i == low or sigma[i] != sigma[i - 1] + 1]
    return is_simple(restrict(sigma, starts))


# ---------------------------------------------------------------------------
# candidate parts and skeletons, listed directly


def _compositions(total: int, length: int) -> Iterator[tuple[int, ...]]:
    """The ordered splits of ``total`` into ``length`` positive sizes."""
    for cuts in itertools.combinations(range(1, total), length - 1):
        yield tuple(b - a for a, b in itertools.pairwise((0, *cuts, total)))


def _shifted(part: Perm, before: int, degree: int) -> Perm:
    """id_before ⊕ part ⊕ id: ``part`` moved to positions ``before + 1`` onward."""
    after = range(before + len(part) + 1, degree + 1)
    return (*range(1, before + 1), *(before + v for v in part), *after)


def _skeletons(m: int) -> list[tuple[Perm, ...]]:
    """The skeletons of degree ``m`` that irreducible decompositions inflate.

    (2 1) at m = 2, and at m >= 4 each mirror pair (σ, w0 σ) of simple
    permutations with σ < w0 σ, where w0 σ(i) = m + 1 - σ(i).  The simple
    permutations are a fixed share of all m! (Albert, Atkinson and Klazar,
    J. Integer Seq. 6, 2003), so they are listed by brute force.

    >>> _skeletons(2), _skeletons(3)
    ([((2, 1),)], [])
    >>> _skeletons(4)
    [((2, 4, 1, 3), (3, 1, 4, 2))]
    """
    if m == 2:
        return [((2, 1),)]
    pairs = []
    for sigma in itertools.permutations(range(1, m + 1)):
        mirror = tuple(m + 1 - v for v in sigma)
        if sigma < mirror and is_simple(sigma):
            pairs.append((sigma, mirror))
    return pairs


# ---------------------------------------------------------------------------
# exhaustive enumeration and construction


def exact_covers(
    roots: Iterable[Hashable],
    simple: Iterable[Hashable],
    parts: Iterable[tuple[T, Iterable[Hashable]]],
    r: int | None = None,
    pad: bool = False,
) -> Iterator[tuple[T, ...]]:
    """Yield the item tuples of every cover of ``roots`` by disjoint parts.

    ``parts`` holds (item, roots) pairs, each iterating distinct roots;
    parts with no roots never take part in a cover, and parts with equal
    roots are distinct items.  ``r`` fixes the number of parts, and with
    ``pad`` a cover may also have fewer than ``r`` parts (the caller pads it).  Each cover is
    yielded exactly once, in search order, its items in the order chosen.

    The roots are laid out as bits, ``simple`` ones lowest, and each part
    is filed under its lowest bit and under its whole mask.  The search
    branches on the lowest uncovered root: any part that covers it without
    overlap has it as its lowest bit.  Every nonempty inversion set
    contains a simple root, so once the simple roots are covered an
    uncovered root is a dead end.

    Within a lowest-bit bucket the parts are grouped by signature, their
    mask restricted to the simple bits, and the groups keep the order in
    which their signatures first appear.  A group whose signature meets
    the covered roots is skipped whole, since each of its parts meets
    them too; only the parts of the other groups are tested one by one.
    So a bucket is searched group by group, each group in input order,
    and covers come out in that order.

    With ``r`` fixed, the tail of the search is forced.  With one part
    left, it must be exactly the uncovered rest, so the parts with that
    mask are looked up instead of searched.  With two parts left, one scan
    of the lowest uncovered root's bucket picks the first, and the second
    is looked up as the rest of the rest (with ``pad``, a first part that
    covers the whole rest ends a shorter cover).

    >>> parts = [("a", {1, 2}), ("b", {3}), ("c", {1, 2, 3})]
    >>> list(exact_covers([1, 2, 3], [1], parts))
    [('a', 'b'), ('c',)]
    >>> list(exact_covers([1, 2, 3], [1], parts, r=2))
    [('a', 'b')]
    >>> list(exact_covers([1, 2, 3], [1], parts, r=2, pad=True))
    [('a', 'b'), ('c',)]
    >>> list(exact_covers([], [], [], r=2, pad=True))
    [()]
    """
    distinct_simple = dict.fromkeys(simple)
    layout = list(dict.fromkeys([*distinct_simple, *roots]))
    bit = {root: 1 << k for k, root in enumerate(layout)}
    full = (1 << len(layout)) - 1
    simple_bits = (1 << len(distinct_simple)) - 1
    groups: dict[int, dict[int, list[tuple[int, T]]]] = {}
    by_mask: dict[int, list[T]] = {}
    for item, root_set in parts:
        mask = sum(bit[root] for root in root_set)
        if mask:
            bucket = groups.setdefault(mask & -mask, {})
            bucket.setdefault(mask & simple_bits, []).append((mask, item))
            by_mask.setdefault(mask, []).append(item)
    buckets = {low: list(bucket.items()) for low, bucket in groups.items()}

    chosen: list[T] = []

    def descend(covered: int) -> Iterator[tuple[T, ...]]:
        if covered == full:
            if r is None or len(chosen) == r or (pad and len(chosen) < r):
                yield tuple(chosen)
            return
        if r is not None:
            left = r - len(chosen)
            rest = full ^ covered
            if left == 1:
                for last in by_mask.get(rest, ()):
                    yield (*chosen, last)
            elif left == 2:
                for signature, group in buckets.get(rest & -rest, ()):
                    if signature & covered:
                        continue
                    for mask, item in group:
                        if mask == rest:
                            if pad:
                                yield (*chosen, item)
                        elif not mask & covered:
                            for last in by_mask.get(rest ^ mask, ()):
                                yield (*chosen, item, last)
            if left <= 2:
                return
        for signature, group in buckets.get(~covered & (covered + 1), ()):
            if signature & covered:
                continue
            for mask, item in group:
                if not mask & covered:
                    chosen.append(item)
                    yield from descend(covered | mask)
                    chosen.pop()

    return descend(0)


def _built_decompositions(n: int, fewest: int) -> list[tuple[Perm, ...]]:
    """The part tuples of the irreducible decompositions of degree ``n``.

    Built from the paper's description instead of searched for.  At degree
    n > 1 each one is a skeleton (see :func:`_skeletons`) of some degree m,
    inflated by identity blocks of sizes k1..km that sum to n, together
    with one irreducible decomposition of degree ka in each slot a, shifted
    into place; a degree-1 slot adds no part.  Hence a(x) = x + sum_m s_m
    a(x)^m, as :func:`count_structural` counts them.

    (2 1) makes one frame part and a simple skeleton of degree m >= 4 two,
    so each simple skeleton of degree m in the tree leaves exactly m - 3
    fewer parts than n - 1.  Only skeletons of degree m <= min(n, n -
    ``fewest`` + 2) are inflated, in the slots too: larger ones cannot reach
    ``fewest`` parts, and none above n fits.  What is returned may still
    have fewer parts than ``fewest``.

    >>> _built_decompositions(3, 0)
    [((3, 1, 2), (1, 3, 2)), ((2, 3, 1), (2, 1, 3))]
    >>> len(_built_decompositions(5, 0)), len(_built_decompositions(5, 4))
    (23, 14)
    >>> _built_decompositions(1, 0)
    [()]
    """
    top = min(n, n - fewest + 2)
    skeletons = {m: _skeletons(m) for m in range(2, top + 1)}
    # found[k]: the part tuples of the decompositions of degree k
    found: dict[int, list[tuple[Perm, ...]]] = {1: [()]}
    for k in range(2, n + 1):
        found[k] = []
        for m, skeletons_m in skeletons.items():
            for sizes in _compositions(k, m):
                starts = itertools.accumulate(sizes[:-1], initial=0)
                slots = [
                    [[_shifted(part, start, k) for part in parts] for parts in found[size]]
                    for start, size in zip(starts, sizes)
                    if size > 1
                ]
                blocks = [identity(size) for size in sizes]
                for skeleton in skeletons_m:
                    frame = [inflate(member, blocks) for member in skeleton]
                    for filling in itertools.product(*slots):
                        found[k].append((*frame, *itertools.chain.from_iterable(filling)))
    return found[n]


def _coarsenings(
    parts: tuple[Perm, ...], least: int, most: int | None
) -> Iterator[tuple[Perm, ...]]:
    """The decompositions that merge the blocks of ``parts``, least..most blocks.

    ``parts`` is a decomposition, and any union of its parts is an inversion
    set.  It is closed: if roots a and b lie in it and a + b lay in a part
    outside it, that part would not be co-closed.  It is co-closed because
    each part is.  So each set partition of the parts gives one.  The
    recursion puts the lowest unmerged part in a block with some of the
    others, so each set partition comes once; with one block left it can
    only be the rest.  A block is a bit mask of part indices, merged when
    first reached from the block without its top part and that part.

    A permutation maps i to 1 + the later positions i beats plus the
    earlier positions that do not beat i, both read off its inversion set
    (see :func:`permcore.permutation_from_inversion_set`).  Over disjoint
    sets the beaten positions add up, so the merge of disjoint parts a and b
    maps i to a(i) + b(i) - i, where i is the identity's image.
    """
    merged = {1 << k: part for k, part in enumerate(parts)}

    def merge_block(block: int) -> Perm:
        if block not in merged:
            top = 1 << (block.bit_length() - 1)
            pairs = zip(merge_block(block ^ top), merged[top])
            merged[block] = tuple(a + b - i for i, (a, b) in enumerate(pairs, 1))
        return merged[block]

    chosen: list[Perm] = []

    def descend(unmerged: int) -> Iterator[tuple[Perm, ...]]:
        if not unmerged:
            if len(chosen) >= least:
                yield tuple(chosen)
            return
        if len(chosen) + 1 == most:
            yield (*chosen, merge_block(unmerged))
            return
        low = unmerged & -unmerged
        others = unmerged ^ low
        # the most blocks come from leaving every other part on its own
        largest = len(chosen) + 1 + unmerged.bit_count() - least
        sub = others
        while True:
            block = low | sub
            if block.bit_count() <= largest:
                chosen.append(merge_block(block))
                yield from descend(unmerged ^ block)
                chosen.pop()
            if not sub:
                return
            sub = (sub - 1) & others

    return descend((1 << len(parts)) - 1)


def enumerate_decompositions(
    n: int,
    r: int | None = None,
    *,
    irreducible_only: bool = False,
    allow_identity: bool = False,
    maximal: bool = False,
) -> Iterator[Decomposition]:
    """Yield every decomposition satisfying the options, in canonical order.

    ``r`` fixes the part count (multiset size); identity parts only pad out
    a fixed ``r`` and only when ``allow_identity`` is set.  ``maximal``
    means r = n-1 nonempty parts, equivalently one simple root per part.
    Degrees above :data:`DEFAULT_ENUMERATION_BOUND` are refused up front.

    Each nonempty part holds a simple root, and at n > 1 some part is
    nonempty, so without padding every listed decomposition has 1 to n - 1
    parts (none at n = 1), and no listing with r = 0 has a member at n > 1,
    nor an irreducible one with r < 2 at n >= 3.
    Every listing starts from the irreducible decompositions, built from
    the paper's description (:func:`_built_decompositions`).  A maximal
    part cannot split, since each half would need a simple root of its own,
    so the maximal decompositions are the irreducible ones with n - 1
    parts, all built from (2 1).  Every other decomposition refines to an
    irreducible one with at least as many parts (split a reducible part
    until none is left), so without ``irreducible_only`` the listing is the
    set of coarsenings of the built ones (:func:`_coarsenings`), duplicates
    removed.

    >>> [str(d) for d in enumerate_decompositions(3, irreducible_only=True)]
    ['1 3 2 | 3 1 2', '2 1 3 | 2 3 1']
    >>> sum(1 for _ in enumerate_decompositions(4, maximal=True))
    5
    >>> [str(d) for d in enumerate_decompositions(2, 3, allow_identity=True)]
    ['1 2 | 1 2 | 2 1']
    >>> [str(d) for d in enumerate_decompositions(3)]
    ['1 3 2 | 3 1 2', '2 1 3 | 2 3 1', '3 2 1']
    """
    if n < 1:
        raise ValueError(f"degree must be positive, got {n}")
    if n > DEFAULT_ENUMERATION_BOUND:
        raise ValueError(f"degree {n} exceeds the brute-force bound {DEFAULT_ENUMERATION_BOUND}")
    if r is not None and r < 0:
        raise ValueError(f"part count must be nonnegative, got {r}")
    if maximal:
        if r is not None and r != n - 1:
            raise ValueError(f"maximal decompositions of degree {n} have {n - 1} parts")
        if allow_identity:
            raise ValueError("maximal parts are nonempty; allow_identity does not apply")
        irreducible_only, r = True, n - 1
    if allow_identity and r is None:
        raise ValueError("padding with identity parts needs a fixed part count r")
    if (r == 0 and n > 1) or (r is not None and r >= n and not allow_identity):
        return
    # w0 is reducible at n >= 3, so an irreducible decomposition has at least two parts
    if irreducible_only and r is not None and r < 2 and n >= 3:
        return

    least = 0 if r is None or allow_identity else r
    built = _built_decompositions(n, least)
    if irreducible_only:
        covers = (parts for parts in built if r is None or least <= len(parts) <= r)
    else:
        covers = (cover for parts in built for cover in _coarsenings(parts, least, r))
    # the identity sorts first, so padding a sorted cover in front keeps it sorted
    padding = () if r is None else (identity(n),) * r
    for parts in sorted({(*padding[len(cover) :], *sorted(cover)) for cover in covers}):
        yield Decomposition(n, parts)


# ---------------------------------------------------------------------------
# structural counting engine (no enumeration, no genseries)


def _convolve_at(f: list[int], g: list[int], k: int) -> int:
    return sum(f[i] * g[k - i] for i in range(k + 1))


def _divide(y: list[int], f: list[int], sign: int) -> list[int]:
    """Coefficients of ``y / (1 + sign * f)``, where ``f`` has no constant term.

    >>> _divide([1, 0, 0, 0, 0], [0, 1, 0, 0, 0], -1)  # 1 / (1 - x)
    [1, 1, 1, 1, 1]
    >>> _divide([0, 1, 2, 6, 24], [0, 1, 2, 6, 24], 1)  # F / (1 + F)
    [0, 1, 1, 3, 13]
    """
    q: list[int] = []
    for k, y_k in enumerate(y):
        q.append(y_k - sign * sum(f[j] * q[k - j] for j in range(1, k + 1)))
    return q


def _power_table(f: list[int]) -> list[list[int]]:
    """Rows m = 0..N for f^m: row 1 is ``f`` itself, rows m >= 2 start at zero."""
    size = len(f)
    return [[1] + [0] * (size - 1), f] + [[0] * size for _ in range(2, size)]


def _power_column(powers: list[list[int]], k: int) -> None:
    """Fill ``powers[m][k]``, the x^k coefficient of f^m, for 2 <= m <= k.

    f has no constant term, so only f_1..f_{k-1} are read: a recursion can
    grow f and its powers together.
    """
    f = powers[1]
    for m in range(2, k + 1):
        powers[m][k] = sum(powers[m - 1][i] * f[k - i] for i in range(m - 1, k))


def _extract(target: list[int], powers: list[list[int]], start: int) -> list[int]:
    """The census c with ``target`` = the sum over m >= start of c_m f^m.

    ``powers`` is the filled power table of some f = x + O(x^2), so f^m
    starts at x^m with coefficient 1 and c_m is read off triangularly.  The
    census must spend the target exactly; that is asserted.

    >>> f = _divide([0, 1, 0, 0, 0], [0, 1, 0, 0, 0], -1)  # x / (1 - x)
    >>> powers = _power_table(f)
    >>> for k in range(2, 5):
    ...     _power_column(powers, k)
    >>> _extract(_divide(f, f, -1), powers, 1)  # f / (1 - f) = f + f^2 + ...
    [0, 1, 1, 1, 1]
    """
    census = [0] * len(target)
    residue = target[:]
    for m in range(start, len(target)):
        census[m] = residue[m]
        if census[m]:
            for k in range(m, len(target)):
                residue[k] -= census[m] * powers[m][k]
    assert not any(residue), "census extraction left a residue"
    return census


def _census_arrays(n_max: int) -> dict[str, list[int]]:
    """Shared integer arrays: factorials, indecomposables, simple censuses.

    ``s[m]`` (mirror pairs of simple permutations, degree m) and ``s_bc[m]``
    (symmetric simple embeddings of rank m, both pair members) are extracted
    from their factorial-series identities by :func:`_extract`.
    """
    fact = [0] + [math.factorial(k) for k in range(1, n_max + 1)]
    fpow = _power_table(fact)
    for k in range(2, n_max + 1):
        _power_column(fpow, k)

    # prefix-indecomposable permutations: MI = F / (1 + F)
    mi = _divide(fact, fact, 1)
    # MI^2 / (1 - MI): permutations whose canonical form stacks >= 2
    # indecomposable intervals corner to corner
    mid = _divide([_convolve_at(mi, mi, k) for k in range(n_max + 1)], mi, -1)

    # every permutation is exactly one of: trivial, an interval stack in one
    # of two orientations, or an inflation of a simple skeleton of degree
    # >= 4; skeletons come in mirror pairs, hence the exact halving
    twice = [f - (k == 1) - 2 * d for k, (f, d) in enumerate(zip(fact, mid))]
    assert all(v % 2 == 0 for v in twice), "simple-skeleton census must be even"
    waf = [v // 2 for v in twice]
    s = _extract(waf, fpow, 4)
    if n_max >= 2:
        s[2] = 1

    # symmetric world: hb[k] = 2^k k! symmetric embeddings at rank k; the
    # symmetric-simple census composed with F satisfies
    #     (S of F) = 1 - 1/(1 + D) - 2 F/(1 + F) = D/(1 + D) - 2 MI
    # with D = F(2x)
    hb = [1] + [(2**k) * fact[k] for k in range(1, n_max + 1)]
    doubled = [0] + hb[1:]
    sb_of_f = [d - 2 * m for d, m in zip(_divide(doubled, doubled, 1), mi)]
    s_bc = _extract(sb_of_f, fpow, 2)
    assert n_max < 2 or (s_bc[1] == 0 and s_bc[2] == 2)

    return dict(fact=fact, mi=mi, waf=waf, s=s, s_bc=s_bc, hb=hb, sb_of_f=sb_of_f)


def _irreducible_counts(
    n_max: int, census: dict[str, list[int]]
) -> tuple[list[int], list[int]]:
    """Counts of decompositions into irreducible parts, types A and B/C.

    Type A solves a(x) = x + sum_m s_m a(x)^m coefficient by coefficient.
    In type B/C each layer contributes either a single type-A slot or a
    symmetric-simple skeleton whose slot fillings come in mirror pairs
    (hence the exact halving), and layers stack freely: b = X / (1 - X).
    """
    s, s_bc = census["s"], census["s_bc"]
    a = [0] * (n_max + 1)
    apow = _power_table(a)
    a[1] = 1
    for k in range(2, n_max + 1):
        _power_column(apow, k)
        a[k] = sum(s[m] * apow[m][k] for m in range(2, k + 1))

    layer = [0] * (n_max + 1)
    for k in range(1, n_max + 1):
        paired = sum(s_bc[m] * apow[m][k] for m in range(2, k + 1))
        assert paired % 2 == 0, "symmetric skeleton fillings must pair up"
        layer[k] = a[k] + paired // 2
    return a, _divide(layer, layer, -1)


def _catalan_counts(n_max: int) -> tuple[list[int], list[int]]:
    """Maximal-decomposition counts: type A (Catalan, shifted) and type B/C.

    ``cat_a[k]`` satisfies the classical convolution recursion; ``cat_b[k]``
    counts rank-k maximal decompositions via the part containing the end
    root, which either spans the center or leaves a smaller symmetric core:
    cat_b[k] = cat_b[k-1] + 2 sum_{j <= k-2} cat_a[k-1-j] cat_b[j], that is
    1 / (1 - h) with h = x + 2x(C(x) - 1).
    """
    cat_a = [1] + [0] * n_max
    for k in range(1, n_max + 1):
        cat_a[k] = sum(cat_a[t - 1] * cat_a[k - t] for t in range(1, k + 1))
    h = [0] + [2 * c for c in cat_a[:-1]]
    h[1] = 1
    return cat_a, _divide([1] + [0] * n_max, h, -1)


def _triple_step(
    split_top: int, half: int, skeleton: int, total: int
) -> tuple[int, int, int]:
    """One degree of the triple recursion: ordered, anchored, unordered.

    The triples of nonidentity parts are half of ``split_top - 2 half + 1``
    (two stacked blocks, in exact pairs) plus ``skeleton`` (over a simple
    skeleton).  A triple with an identity part is fixed by its complementary
    pair, one of ``total`` / 2: {id, id, w0} has 3 orderings, the others 6.
    """
    two_blocks = split_top - 2 * half + 1
    assert two_blocks % 2 == 0, "two-block triples must pair up"
    proper = two_blocks // 2 + skeleton
    ordered = 6 * proper + 3 * total - 3
    unordered = proper + total // 2
    assert ordered == 6 * unordered - 3
    return ordered, ordered - split_top, unordered


def _triples_counts(
    n_max: int, census: dict[str, list[int]]
) -> tuple[list[int], list[int]]:
    """Unordered-triple counts (identity parts allowed), types A and B/C.

    Both passes run :func:`_triple_step` degree by degree: ``ordered``
    counts ordered triples and ``anchored`` the subset whose distinguished
    part does not split off a leading interval.
    """
    fact, mi, waf, s = census["fact"], census["mi"], census["waf"], census["s"]
    s_bc, hb, sb_of_f = census["s_bc"], census["hb"], census["sb_of_f"]

    ordered = [0] * (n_max + 1)
    anchored = [0] * (n_max + 1)
    triples_a = [0] * (n_max + 1)
    opow = _power_table(ordered)
    ordered[1] = anchored[1] = triples_a[1] = 1
    for k in range(2, n_max + 1):
        _power_column(opow, k)
        skeleton = sum(s[m] * opow[m][k] for m in range(4, k + 1)) - waf[k]
        # the half-census F MI is F - MI, since MI = F / (1 + F)
        ordered[k], anchored[k], triples_a[k] = _triple_step(
            _convolve_at(anchored, ordered, k), fact[k] - mi[k], skeleton, fact[k]
        )

    # symmetric pass, mirroring the type-A pass around the fixed center;
    # its half-census is HB MI
    skeleton_at = [
        sum(s_bc[m] * opow[m][j] for m in range(2, j + 1)) for j in range(n_max + 1)
    ]
    ordered_bc = [1] + [0] * n_max
    anchored_bc = [1] + [0] * n_max
    triples_bc = [0] * (n_max + 1)
    for k in range(1, n_max + 1):
        skeleton = _convolve_at(skeleton_at, ordered_bc, k) - _convolve_at(sb_of_f, hb, k)
        assert skeleton % 2 == 0, "symmetric skeleton triples must pair up"
        ordered_bc[k], anchored_bc[k], triples_bc[k] = _triple_step(
            _convolve_at(ordered, anchored_bc, k),
            _convolve_at(hb, mi, k),
            skeleton // 2,
            hb[k],
        )
    return triples_a, triples_bc


def count_structural(family: str, n_max: int) -> CountTable:
    """Exact counts for one family at 1..n_max via the recursive classification.

    No brute force: every value comes from the dynamic programs above, so
    ``n_max`` may comfortably exceed anything enumerable.  Agrees with
    :func:`enumerate_decompositions` wherever both apply and with the
    :mod:`rootdec.genseries` coefficients everywhere.

    >>> count_structural("A_IRREDUCIBLE", 6).counts
    (1, 1, 2, 6, 23, 114)
    >>> count_structural("A_TRIPLES", 8)[8]
    104604
    >>> count_structural("A_MAXIMAL", 5)[5]
    14
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if not 1 <= n_max <= DEFAULT_COUNT_LIMIT:
        raise ValueError(f"n_max must be in 1..{DEFAULT_COUNT_LIMIT}, got {n_max}")

    if family == "A_MAXIMAL":
        cat_a, _ = _catalan_counts(n_max)
        return CountTable(family, tuple(cat_a[n - 1] for n in range(1, n_max + 1)))
    if family == "BC_MAXIMAL":
        _, cat_b = _catalan_counts(n_max)
        return CountTable(family, tuple(cat_b[1 : n_max + 1]))

    census = _census_arrays(n_max)
    if family == "SIMPLE_PAIRS_A":
        return CountTable(family, tuple(census["s"][1 : n_max + 1]))
    if family == "SIMPLE_PAIRS_BC":
        return CountTable(family, tuple(census["s_bc"][1 : n_max + 1]))
    if family in ("A_IRREDUCIBLE", "BC_IRREDUCIBLE"):
        a, b = _irreducible_counts(n_max, census)
        values = a if family == "A_IRREDUCIBLE" else b
        return CountTable(family, tuple(values[1 : n_max + 1]))
    triples_a, triples_bc = _triples_counts(n_max, census)
    values = triples_a if family == "A_TRIPLES" else triples_bc
    return CountTable(family, tuple(values[1 : n_max + 1]))
