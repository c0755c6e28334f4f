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
* :class:`RootSubset` couples a degree with a set of roots.  A subset is the
  inversion set of some permutation exactly when it is *closed* (membership
  of ``(i,j)`` and ``(j,k)`` forces ``(i,k)``) and *co-closed* (its
  complement is closed); those subsets are in bijection with permutations,
  so there are exactly ``n!`` of them.

All values are immutable and every function is pure, so everything here is
safe to share freely across threads.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class RootSubset:
    """A set of positive roots of one fixed degree.

    ``roots`` may be passed as any iterable of pairs; it is stored as a
    frozenset.  Every pair must satisfy ``1 <= i < j <= n``.
    """

    n: int
    roots: frozenset[Root]

    def __post_init__(self) -> None:
        _check_degree(self.n)
        object.__setattr__(self, "roots", frozenset(self.roots))
        for i, j in self.roots:
            if not (1 <= i < j <= self.n):
                raise ValueError(
                    f"({i},{j}) is not a positive root for degree {self.n}"
                )

    def __contains__(self, root: Root) -> bool:
        return root in self.roots

    def __iter__(self) -> Iterator[Root]:
        """Iterate in lexicographic order (stable for display and tests)."""
        return iter(sorted(self.roots))

    def __len__(self) -> int:
        return len(self.roots)

    def complement(self) -> RootSubset:
        """The remaining positive roots of the same degree."""
        return RootSubset(self.n, frozenset(all_roots(self.n)) - self.roots)


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
    n = len(sigma)
    pairs = frozenset(
        (i, j)
        for i in range(1, n)
        for j in range(i + 1, n + 1)
        if sigma[i - 1] > sigma[j - 1]
    )
    return RootSubset(n, pairs)


def closure_violation(phi: RootSubset) -> tuple[int, int, int] | None:
    """A triple ``i < j < k`` witnessing a closure failure, or ``None``.

    Closure requires: whenever ``(i,j)`` and ``(j,k)`` are members, so is
    ``(i,k)``.  The scan is a direct pass over all triples; degrees stay
    small enough (n <= 20 in practice) that nothing cleverer is warranted.
    """
    roots = phi.roots
    for i in range(1, phi.n - 1):
        for j in range(i + 1, phi.n):
            for k in range(j + 1, phi.n + 1):
                if (i, j) in roots and (j, k) in roots and (i, k) not in roots:
                    return (i, j, k)
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

    The images are rebuilt first, in O(n²); ``phi`` is accepted when they
    form a permutation.  Otherwise ``phi`` is not closed or not co-closed,
    and ``ValueError`` names a violating triple from the O(n³) scans, which
    run only on this failure path.

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
    roots = phi.roots
    images = []
    for i in range(1, n + 1):
        later_beaten = sum(1 for j in range(i + 1, n + 1) if (i, j) in roots)
        earlier_smaller = sum(1 for j in range(1, i) if (j, i) not in roots)
        images.append(1 + later_beaten + earlier_smaller)
    # Read phi as a tournament on the positions: i beats j when i < j and
    # (i,j) is in phi, or when j < i and (j,i) is not.  The images are 1 +
    # the out-degrees (scores).  A tournament is transitive exactly when its
    # scores are 0..n-1, and then i beats j iff i scores higher, i.e. iff
    # sigma(i) > sigma(j): the inversion set of sigma is phi itself.
    sigma = tuple(images)
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
