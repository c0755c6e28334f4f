"""Decompositions of the full type-A positive system into inversion sets.

A decomposition writes every positive root exactly once across a collection
of permutations' inversion sets.  This module verifies candidate
decompositions, tests irreducibility of single inversion sets (both by brute
force and structurally through the simple form), enumerates decompositions
exhaustively for small degrees, and counts them for large degrees with
recursive dynamic programs that never enumerate.

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

import itertools
import math
from dataclasses import dataclass
from typing import AbstractSet, Hashable, Iterable, Iterator, TypeVar

from .inflation import IDENTITY, REVERSAL, SIMPLE, simple_form
from .permcore import (
    Perm,
    Root,
    RootSubset,
    all_roots,
    check_permutation,
    format_permutation,
    identity,
    inversion_set,
    is_inversion_set,
    permutation_from_inversion_set,
    simple_roots,
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
    "is_irreducible",
    "is_irreducible_structural",
    "merge",
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
    inversion sets would overlap.  Construction validates the partition
    property through :func:`verify_decomposition` and raises ``ValueError``
    with its detail, so every instance is a genuine decomposition.
    """

    n: int
    parts: tuple[Perm, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "parts", tuple(sorted(check_permutation(p) for p in self.parts))
        )
        result = verify_decomposition(self.n, self.parts)
        if not result:
            raise ValueError(result.detail)

    def __str__(self) -> str:
        return " | ".join(format_permutation(p) for p in self.parts)

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
# verification and merging


def _inversion_rows(sigma: Perm) -> list[int]:
    """Bit ``j`` of ``rows[i]`` is set when ``sigma`` inverts positions ``i < j``.

    Positions are 0-based here.  One sweep over the positions in increasing
    value order: the positions already passed hold the smaller values.
    """
    position = [0] * len(sigma)
    for i, value in enumerate(sigma):
        position[value - 1] = i
    rows = [0] * len(sigma)
    smaller = 0
    for i in position:
        rows[i] = smaller >> (i + 1) << (i + 1)
        smaller |= 1 << i
    return rows


def verify_decomposition(
    n: int, perms: Iterable[Perm], allow_identity: bool = True
) -> VerifyResult:
    """Check that the inversion sets of ``perms`` partition the positive system.

    Diagnostics name the lexicographically first overlapping root (and the
    first two parts covering it), else the first missing root; with
    ``allow_identity`` false an identity part is also rejected.  A part of
    the wrong degree, or a degree below 1, raises ValueError.

    Each part is read as row bitmasks: bit ``j`` of row ``i`` is set when
    the part inverts ``(i+1, j+1)``.  One pass over the rows in position
    order, OR-ing the parts' rows together, finds both diagnostics without
    building any set of roots.

    >>> verify_decomposition(3, [(2, 1, 3), (2, 3, 1)]).ok
    True
    >>> verify_decomposition(3, [(2, 1, 3), (2, 1, 3)]).detail
    'root (1, 2) covered by parts 1 and 2'
    >>> verify_decomposition(3, [(2, 1, 3)]).detail
    'root (1, 3) not covered by any part'
    """
    if n < 1:
        raise ValueError(f"degree must be at least 1, got {n}")
    parts = [check_permutation(p) for p in perms]
    for part in parts:
        if len(part) != n:
            raise ValueError(
                f"degree mismatch: expected {n}, got part"
                f" {format_permutation(part)} of degree {len(part)}"
            )
    part_rows = [_inversion_rows(part) for part in parts]
    missing = None
    for i in range(n):
        seen = clash = 0
        for rows in part_rows:
            clash |= seen & rows[i]
            seen |= rows[i]
        if clash:
            j = (clash & -clash).bit_length() - 1
            a, b = [k for k, rows in enumerate(part_rows, 1) if rows[i] >> j & 1][:2]
            root = (i + 1, j + 1)
            return VerifyResult(False, f"root {root} covered by parts {a} and {b}")
        gap = ((1 << n) - (2 << i)) & ~seen
        if gap and missing is None:
            missing = (i + 1, (gap & -gap).bit_length())
    if missing is not None:
        return VerifyResult(False, f"root {missing} not covered by any part")
    if not allow_identity:
        for k, part in enumerate(parts, start=1):
            if part == identity(n):
                return VerifyResult(False, f"part {k} is the identity")
    return VerifyResult(True, f"valid decomposition of the degree-{n} positive system")


def merge(n: int, parts: Iterable[Perm]) -> Perm:
    """The permutation whose inversion set is the union of the parts' sets.

    The parts must come from one decomposition, so the union is again closed
    and co-closed; otherwise ValueError propagates from the reconstruction.

    >>> merge(3, [(2, 1, 3), (2, 3, 1)])
    (3, 2, 1)
    >>> merge(3, [])
    (1, 2, 3)
    """
    union: set[Root] = set()
    for part in parts:
        union.update(inversion_set(part))
    return permutation_from_inversion_set(RootSubset(n, union))


# ---------------------------------------------------------------------------
# irreducibility


def is_irreducible(sigma: Perm) -> bool:
    """Brute-force irreducibility: no split into two nonidentity inversion sets.

    This is the oracle form — it scans every permutation of the degree, so
    keep it to small degrees.  The identity is irreducible (its inversion
    set is empty, so every split is trivial).

    >>> is_irreducible((3, 1, 2))
    True
    >>> is_irreducible((3, 2, 1))
    False
    """
    sigma = check_permutation(sigma)
    n = len(sigma)
    inv = inversion_set(sigma).roots
    if not inv:
        return True
    for alpha in itertools.permutations(range(1, n + 1)):
        part = inversion_set(alpha).roots
        if not part or part == inv or not part <= inv:
            continue
        if is_inversion_set(RootSubset(n, inv - part)):
            return False
    return True


def is_irreducible_structural(sigma: Perm) -> bool:
    """Irreducibility through the simple form, equivalent to :func:`is_irreducible`.

    A nonidentity permutation is irreducible exactly when its simple form is

    * a simple skeleton of degree >= 4 with all parts identity, or
    * the two-block descending skeleton with both parts identity, or
    * an identity skeleton with exactly one nonidentity part, itself
      irreducible (recursively): the inversion set then sits inside one
      interval and splits there or not at all.

    >>> is_irreducible_structural((1, 3, 2, 4))
    True
    >>> [p for p in itertools.permutations((1, 2, 3)) if is_irreducible_structural(p)]
    [(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2)]
    """
    sigma = check_permutation(sigma)
    if sigma == identity(len(sigma)):
        return True
    form = simple_form(sigma)
    if form.skeleton_kind == SIMPLE:
        return all(part == identity(len(part)) for part in form.parts)
    if form.skeleton_kind == REVERSAL:
        return len(form.parts) == 2 and all(
            part == identity(len(part)) for part in form.parts
        )
    assert form.skeleton_kind == IDENTITY
    nontrivial = [part for part in form.parts if part != identity(len(part))]
    if len(nontrivial) != 1:
        return False
    return is_irreducible_structural(nontrivial[0])


# ---------------------------------------------------------------------------
# exhaustive enumeration


def exact_covers(
    roots: Iterable[Hashable],
    simple: Iterable[Hashable],
    parts: Iterable[tuple[T, AbstractSet[Hashable]]],
    r: int | None = None,
    pad: bool = False,
) -> Iterator[tuple[T, ...]]:
    """Yield the item tuples of every cover of ``roots`` by disjoint parts.

    ``parts`` holds (item, root set) pairs; parts with an empty root set
    never take part in a cover, and parts with equal root sets are distinct
    items.  ``r`` fixes the number of parts, and with ``pad`` a cover may
    also have fewer than ``r`` parts (the caller pads it).  Each cover is
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


def enumerate_decompositions(
    n: int,
    r: int | None = None,
    *,
    irreducible_only: bool = False,
    allow_identity: bool = False,
    maximal: bool = False,
    bound: int = DEFAULT_ENUMERATION_BOUND,
) -> Iterator[Decomposition]:
    """Yield every decomposition satisfying the options, in canonical order.

    ``r`` fixes the part count (multiset size); identity parts only pad out
    a fixed ``r`` and only when ``allow_identity`` is set.  ``maximal``
    means r = n-1 nonempty parts, equivalently one simple root per part.
    Degrees above ``bound`` are refused up front, because enumeration scans
    all n! inversion sets.

    The search is :func:`exact_covers` over all nonidentity permutations
    that pass the filters, so each decomposition is found exactly once.

    >>> [str(d) for d in enumerate_decompositions(3, irreducible_only=True)]
    ['1 3 2 | 3 1 2', '2 1 3 | 2 3 1']
    >>> sum(1 for _ in enumerate_decompositions(4, maximal=True))
    5
    >>> [str(d) for d in enumerate_decompositions(2, 3, allow_identity=True)]
    ['1 2 | 1 2 | 2 1']
    """
    if n < 1:
        raise ValueError(f"degree must be positive, got {n}")
    if n > bound:
        raise ValueError(f"degree {n} exceeds the brute-force bound {bound}")
    if r is not None and r < 0:
        raise ValueError(f"part count must be nonnegative, got {r}")
    if maximal:
        if r is not None and r != n - 1:
            raise ValueError(f"maximal decompositions of degree {n} have {n - 1} parts")
        r = n - 1
        if allow_identity:
            raise ValueError("maximal parts are nonempty; allow_identity does not apply")
    if allow_identity and r is None:
        raise ValueError("padding with identity parts needs a fixed part count r")

    simple = simple_roots(n)

    def parts() -> Iterator[tuple[Perm, frozenset[Root]]]:
        # a generator, so the search keeps only each part's bitmask
        for perm in itertools.permutations(range(1, n + 1)):
            # a maximal part holds one simple root, and the simple roots
            # of an inversion set are the permutation's descents
            if maximal and sum(a > b for a, b in zip(perm, perm[1:])) != 1:
                continue
            inv = inversion_set(perm).roots
            if not inv:
                continue
            if irreducible_only and not is_irreducible_structural(perm):
                continue
            yield perm, inv

    results = []
    for cover in exact_covers(all_roots(n), simple, parts(), r, pad=allow_identity):
        if r is not None:
            cover += (identity(n),) * (r - len(cover))
        results.append(Decomposition(n, cover))
    results.sort(key=lambda d: d.parts)
    yield from results


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
