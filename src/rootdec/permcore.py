"""Permutations, positive roots, and the inversion-set calculus.

Conventions used throughout the package:

* A permutation of degree ``n`` is a tuple of its images in one-line
  notation: entry ``i`` (1-based) is the image of ``i``, and positions and
  values both run over ``1..n``.  The identity is ``(1, 2, ..., n)`` and the
  order-reversing element is ``(n, n-1, ..., 1)``.
* A positive root of degree ``n`` is a pair ``(i, j)`` with
  ``1 <= i < j <= n``, thought of as ``e_i - e_j`` in coordinates.  The full
  positive system ``all_roots(n)`` has ``n*(n-1)//2`` elements; the simple
  roots are the pairs ``(i, i+1)``.
* :class:`RootSubset` couples a degree with a set of roots, held as a
  bitmask with bit ``(i-1)*n + (j-1)`` for the root ``(i,j)``: the ``n``
  rows of :func:`_inversion_rows`, the package's one inversion kernel, laid
  end to end.  A subset is the inversion set of some permutation exactly
  when it is *closed* (membership of ``(i,j)`` and ``(j,k)`` forces
  ``(i,k)``) and *co-closed* (its complement is closed); those subsets are
  in bijection with permutations, so there are exactly ``n!`` of them.

All values are immutable and every function is pure, so everything here is
safe to share freely across threads.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Iterator

Perm = tuple[int, ...]
Root = tuple[int, int]


def _check_degree(n: int) -> None:
    if n < 1:
        raise ValueError(f"degree must be at least 1, got {n}")


def check_permutation(images: Iterable[int]) -> Perm:
    """Validate one-line notation and return it as a tuple.

    >>> check_permutation([2, 1, 3])
    (2, 1, 3)
    >>> check_permutation((2, 2, 3))
    Traceback (most recent call last):
        ...
    ValueError: not a permutation of 1..3: (2, 2, 3)
    """
    sigma = tuple(images)
    _check_degree(len(sigma))
    if sorted(sigma) != list(range(1, len(sigma) + 1)):
        raise ValueError(f"not a permutation of 1..{len(sigma)}: {sigma}")
    return sigma


def all_roots(n: int) -> tuple[Root, ...]:
    """All positive roots ``(i, j)`` of degree ``n`` in lexicographic order."""
    _check_degree(n)
    return tuple((i, j) for i in range(1, n) for j in range(i + 1, n + 1))


def simple_roots(n: int) -> tuple[Root, ...]:
    """The simple roots ``(1,2), (2,3), ..., (n-1,n)``."""
    _check_degree(n)
    return tuple((i, i + 1) for i in range(1, n))


def _inversion_rows(sigma: Perm) -> list[int]:
    """Bit ``j`` of ``rows[i]`` is set when ``sigma`` inverts positions ``i < j``.

    Positions are 0-based here.  One sweep over the positions in increasing
    value order: the positions already passed hold the smaller values.  The
    order comes from comparing entries, never from indexing by them, so an
    entry such as ``2.0`` gives the rows of ``2``.
    """
    rows = [0] * len(sigma)
    smaller = 0
    for i in sorted(range(len(sigma)), key=sigma.__getitem__):
        rows[i] = smaller >> (i + 1) << (i + 1)
        smaller |= 1 << i
    return rows


def _mask_of(rows: list[int]) -> int:
    """The rows of degree ``n = len(rows)`` as one mask: bit ``i * n + j`` for row ``i``, bit ``j``.

    That is bit ``(i - 1) * n + (j - 1)`` for the root ``(i, j)``, so the
    bits run in lexicographic order of the roots.
    """
    n = len(rows)
    mask = 0
    for row in reversed(rows):
        mask = mask << n | row
    return mask


@functools.lru_cache(maxsize=None)
def _positive(n: int) -> int:
    """The mask of every positive root of degree ``n``."""
    return _mask_of([(1 << n) - (2 << i) for i in range(n)])


@dataclass(frozen=True, init=False, repr=False)
class RootSubset:
    """A set of positive roots of one fixed degree.

    ``roots`` may be passed as any iterable of pairs; every pair must
    satisfy ``1 <= i < j <= n``.  The set is held as ``mask``, with bit
    ``(i - 1) * n + (j - 1)`` for the root ``(i, j)``; equality and hashing
    use ``(n, mask)``, and ``roots`` is the frozenset of pairs, built on
    first access.
    """

    n: int
    mask: int

    def __init__(self, n: int, roots: Iterable[Root]) -> None:
        _check_degree(n)
        mask = 0
        for i, j in roots:
            if not (1 <= i < j <= n):
                raise ValueError(f"({i},{j}) is not a positive root for degree {n}")
            mask |= 1 << (i - 1) * n + (j - 1)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def _from_mask(cls, n: int, mask: int) -> RootSubset:
        """The subset whose mask is ``mask``; every bit must be a positive root."""
        if mask & ~_positive(n):
            raise ValueError(f"the mask holds bits that are no positive root of degree {n}")
        phi = object.__new__(cls)
        object.__setattr__(phi, "n", n)
        object.__setattr__(phi, "mask", mask)
        return phi

    def _rows(self) -> list[int]:
        """The inversion rows of the mask: bit ``j`` of row ``i`` for the root ``(i + 1, j + 1)``."""
        n, mask, full = self.n, self.mask, (1 << self.n) - 1
        return [mask >> i * n & full for i in range(n)]

    @functools.cached_property
    def roots(self) -> frozenset[Root]:
        """The roots as a frozenset of pairs."""
        return frozenset(self)

    def __contains__(self, root: Root) -> bool:
        i, j = root
        return 1 <= i < j <= self.n and self.mask >> (i - 1) * self.n + (j - 1) & 1 == 1

    def __iter__(self) -> Iterator[Root]:
        """Iterate in lexicographic order (stable for display and tests): bit order."""
        for i, row in enumerate(self._rows(), start=1):
            while row:
                low = row & -row
                yield i, low.bit_length()
                row ^= low

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __repr__(self) -> str:
        return f"RootSubset({self.n}, {list(self)})"

    def complement(self) -> RootSubset:
        """The remaining positive roots of the same degree."""
        return RootSubset._from_mask(self.n, self.mask ^ _positive(self.n))


def inversion_set(sigma: Iterable[int]) -> RootSubset:
    """The pairs ``(i, j)``, ``i < j``, that ``sigma`` maps out of order.

    The size of the result is the number of inversions of ``sigma`` (its
    length as a word in adjacent transpositions).

    >>> sorted(inversion_set((2, 1, 3)))
    [(1, 2)]
    >>> len(inversion_set((4, 3, 2, 1)))
    6
    >>> len(inversion_set((1, 2, 3)))
    0
    """
    sigma = check_permutation(sigma)
    return RootSubset._from_mask(len(sigma), _mask_of(_inversion_rows(sigma)))


def closure_violation(phi: RootSubset) -> tuple[int, int, int] | None:
    """A triple ``i < j < k`` witnessing a closure failure, or ``None``.

    Closure requires: whenever ``(i,j)`` and ``(j,k)`` are members, so is
    ``(i,k)``.  The witness is the lexicographically first failing triple,
    found with O(n²) operations on the rows of ``phi``'s mask: ``i`` runs in
    order, then each member ``(i,j)`` in order, and the lowest bit of row
    ``j`` minus row ``i`` is the least such ``k``.
    """
    rows = phi._rows()
    for i, row in enumerate(rows):
        members = row
        while members:
            low = members & -members
            j = low.bit_length() - 1
            bad = rows[j] & ~row
            if bad:
                return i + 1, j + 1, (bad & -bad).bit_length()
            members ^= low
    return None


def coclosure_violation(phi: RootSubset) -> tuple[int, int, int] | None:
    """A triple ``i < j < k`` witnessing a co-closure failure, or ``None``.

    Co-closure requires: whenever ``(i,j)`` and ``(j,k)`` are both absent,
    ``(i,k)`` is absent too.  That is closure of the complement, so the
    witness is the complement's closure witness (the same scan order).
    """
    return closure_violation(phi.complement())


def is_closed(phi: RootSubset) -> bool:
    """True iff ``(i,j), (j,k)`` members always force ``(i,k)``.

    >>> is_closed(RootSubset(3, {(1, 2), (2, 3)}))
    False
    >>> is_closed(RootSubset(3, set()))
    True
    >>> is_closed(RootSubset(3, {(1, 2), (2, 3), (1, 3)}))
    True
    """
    return closure_violation(phi) is None


def is_coclosed(phi: RootSubset) -> bool:
    """True iff the complement of ``phi`` is closed.

    >>> is_coclosed(RootSubset(3, {(1, 3)}))
    False
    >>> is_coclosed(RootSubset(3, {(1, 2)}))
    True
    """
    return coclosure_violation(phi) is None


def is_inversion_set(phi: RootSubset) -> bool:
    """True iff ``phi`` is closed and co-closed, i.e. some permutation's inversions.

    >>> is_inversion_set(RootSubset(3, {(1, 2)}))
    True
    >>> is_inversion_set(RootSubset(3, {(1, 3)}))
    False
    >>> is_inversion_set(RootSubset(3, {(1, 2), (2, 3)}))
    False
    """
    return is_closed(phi) and is_coclosed(phi)


def permutation_from_inversion_set(phi: RootSubset) -> Perm:
    """Reconstruct the unique permutation whose inversion set is ``phi``.

    The image of ``i`` is ``1 + #{j > i : (i,j) in phi} + #{j < i : (j,i) not
    in phi}``: one plus the later positions that ``i`` beats plus the earlier
    positions that fail to beat ``i``.  Inverse of :func:`inversion_set`.

    The images are rebuilt first, in O(n²) operations on the rows of the
    mask; ``phi`` is accepted when they form a permutation.  Otherwise
    ``phi`` is not closed or not co-closed, and ``ValueError`` names the
    first violating triple, which is looked for only on this failure path.

    >>> permutation_from_inversion_set(RootSubset(3, {(1, 2)}))
    (2, 1, 3)
    >>> permutation_from_inversion_set(RootSubset(4, set()))
    (1, 2, 3, 4)
    >>> permutation_from_inversion_set(RootSubset(3, {(1, 3)}))
    Traceback (most recent call last):
        ...
    ValueError: not an inversion set: (1,3) is a member but neither (1,2) nor (2,3) is
    """
    n = phi.n
    rows = phi._rows()
    # positions 0-based: rows[i] holds the later positions that i beats, and
    # of the i earlier positions all but those whose rows hold bit i fail to
    sigma = tuple(
        1 + row.bit_count() + i - sum(earlier >> i & 1 for earlier in rows[:i])
        for i, row in enumerate(rows)
    )
    # Read phi as a tournament on the positions: i beats j when i < j and
    # (i,j) is in phi, or when j < i and (j,i) is not.  The images are 1 +
    # the out-degrees (scores).  A tournament is transitive exactly when its
    # scores are 0..n-1, and then i beats j iff i scores higher, i.e. iff
    # sigma(i) > sigma(j): the inversion set of sigma is phi itself.
    if sorted(sigma) == list(range(1, n + 1)):
        return sigma
    bad = closure_violation(phi)
    if bad is not None:
        i, j, k = bad
        raise ValueError(
            f"not an inversion set: ({i},{j}) and ({j},{k}) are members"
            f" but ({i},{k}) is not"
        )
    i, j, k = coclosure_violation(phi)
    raise ValueError(
        f"not an inversion set: ({i},{k}) is a member"
        f" but neither ({i},{j}) nor ({j},{k}) is"
    )


def identity(n: int) -> Perm:
    """The identity permutation of degree ``n``."""
    _check_degree(n)
    return tuple(range(1, n + 1))


def longest(n: int) -> Perm:
    """The order-reversing permutation ``(n, n-1, ..., 1)``.

    Its inversion set is the full positive system.
    """
    _check_degree(n)
    return tuple(range(n, 0, -1))


def compose(a: Iterable[int], b: Iterable[int]) -> Perm:
    """Apply ``b`` first, then ``a``: the image of ``i`` is ``a(b(i))``.

    >>> compose(longest(3), (2, 1, 3))
    (2, 3, 1)
    >>> compose((3, 1, 4, 2), inverse((3, 1, 4, 2)))
    (1, 2, 3, 4)
    """
    a = check_permutation(a)
    b = check_permutation(b)
    if len(a) != len(b):
        raise ValueError(f"degree mismatch: {len(a)} vs {len(b)}")
    return tuple(a[image - 1] for image in b)


def inverse(a: Iterable[int]) -> Perm:
    """The group inverse of ``a``."""
    a = check_permutation(a)
    out = [0] * len(a)
    for position, value in enumerate(a, start=1):
        out[value - 1] = position
    return tuple(out)


def complement_decomposition(sigma: Iterable[int]) -> tuple[Perm, Perm]:
    """Pair ``sigma`` with ``longest . sigma``.

    The two inversion sets are disjoint and together cover every positive
    root, because reversing the output order flips exactly the non-inverted
    pairs into inverted ones.

    >>> complement_decomposition((2, 1, 3))
    ((2, 1, 3), (2, 3, 1))
    >>> complement_decomposition((1, 2, 3))
    ((1, 2, 3), (3, 2, 1))
    """
    sigma = check_permutation(sigma)
    return sigma, compose(longest(len(sigma)), sigma)


def restrict(sigma: Iterable[int], positions: Iterable[int]) -> Perm:
    """The pattern of ``sigma`` at the given positions.

    The values of ``sigma`` at the selected positions, read in position
    order, are replaced by their ranks among themselves (smallest selected
    value becomes 1), producing a permutation of the selection size.

    >>> restrict((5, 3, 4, 8, 1, 2, 6, 7), {1, 2, 3})
    (3, 1, 2)
    >>> restrict((5, 2, 6, 1, 4, 7, 3), {1, 4, 6})
    (2, 1, 3)
    >>> restrict((5, 2, 6, 1, 4, 7, 3), {1, 4, 7})
    (3, 1, 2)
    >>> restrict((3, 1, 2), {2})
    (1,)
    """
    sigma = check_permutation(sigma)
    pos = sorted(set(positions))
    if not pos:
        raise ValueError("cannot restrict to an empty set of positions")
    if pos[0] < 1 or pos[-1] > len(sigma):
        raise ValueError(f"positions out of range 1..{len(sigma)}: {pos}")
    values = [sigma[p - 1] for p in pos]
    rank = {value: index + 1 for index, value in enumerate(sorted(values))}
    return tuple(rank[value] for value in values)


def parse_permutation(text: str) -> Perm:
    """Parse one-line notation, comma- or space-separated.

    >>> parse_permutation("5 3 4 8 1 2 6 7")
    (5, 3, 4, 8, 1, 2, 6, 7)
    >>> parse_permutation("2,1,3")
    (2, 1, 3)
    """
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise ValueError("empty permutation text")
    try:
        images = [int(token) for token in tokens]
    except ValueError:
        raise ValueError(f"cannot parse permutation from {text!r}") from None
    return check_permutation(images)


def format_permutation(sigma: Iterable[int]) -> str:
    """Space-separated one-line notation, the inverse of :func:`parse_permutation`."""
    return " ".join(str(value) for value in check_permutation(sigma))


def parse_root_subset(n: int, text: str) -> RootSubset:
    """Parse a semicolon-separated list of roots like ``"1,2; 2,3"``.

    Blank text gives the empty subset.

    >>> sorted(parse_root_subset(3, "1,2; 2,3"))
    [(1, 2), (2, 3)]
    >>> len(parse_root_subset(4, ""))
    0
    """
    pairs: set[Root] = set()
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        head, _, tail = chunk.partition(",")
        try:
            pair = (int(head), int(tail))
        except ValueError:
            raise ValueError(f"cannot parse root from {chunk!r}") from None
        pairs.add(pair)
    return RootSubset(n, frozenset(pairs))


def format_root_subset(phi: RootSubset) -> str:
    """Semicolon-separated roots in lexicographic order, e.g. ``"1,2; 2,3"``."""
    return "; ".join(f"{i},{j}" for i, j in phi)
