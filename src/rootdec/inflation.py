"""Blocks, simple permutations, inflation, and the canonical simple form.

A *block* of a permutation is a set of consecutive positions whose images are
also consecutive (an interval mapped to an interval).  Every permutation has
the n singleton blocks and the full block; a permutation with no other blocks
is *simple*.  Substituting permutations into the positions of a skeleton
permutation is *inflation*: ``inflate(s, [b1, ..., bm])`` replaces position
``a`` of the skeleton ``s`` by a consecutive run patterned after ``b_a``.

Every permutation of degree at least 2 has a canonical inflation expression,
its :class:`SimpleForm`, with exactly one of three shapes:

* ``SIMPLE`` — the skeleton is simple of degree >= 4 (parts arbitrary);
* ``IDENTITY`` — the skeleton is an identity and every part is
  plus-indecomposable (the number of parts is then maximal);
* ``REVERSAL`` — the skeleton is order-reversing and every part is
  minus-indecomposable.

The expression is unique under those constraints, which makes it a sound
basis for structural recursion (irreducibility tests, exact counting).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .permcore import (
    Perm,
    RootSubset,
    _inversion_rows,
    _mask_of,
    check_permutation,
    identity,
    longest,
    parse_permutation,
    restrict,
)

SIMPLE = "SIMPLE"
IDENTITY = "IDENTITY"
REVERSAL = "REVERSAL"


@dataclass(frozen=True)
class Block:
    """A block: ``length`` consecutive positions starting at ``start``."""

    start: int
    length: int


def _checked_inflation(
    skeleton: Iterable[int], parts: Iterable[Iterable[int]]
) -> tuple[Perm, tuple[Perm, ...]]:
    """Validate an inflation expression: one part per skeleton position."""
    skeleton = check_permutation(skeleton)
    parts = tuple(check_permutation(part) for part in parts)
    if len(parts) != len(skeleton):
        raise ValueError(
            f"skeleton of degree {len(skeleton)} needs {len(skeleton)} parts,"
            f" got {len(parts)}"
        )
    return skeleton, parts


def inflate(skeleton: Iterable[int], parts: Sequence[Iterable[int]]) -> Perm:
    """Substitute ``parts[a]`` into position ``a`` of ``skeleton``.

    Position ``a`` of the skeleton becomes a run of ``len(parts[a])``
    consecutive positions whose values form a consecutive range; ranges are
    stacked in the order the skeleton's values dictate, and within each run
    the values are patterned after the corresponding part.

    >>> inflate((2, 4, 1, 3), [(3, 1, 2), (1,), (1, 2), (1, 2)])
    (5, 3, 4, 8, 1, 2, 6, 7)
    >>> inflate((2, 1), [(1,), (1, 2)])
    (3, 1, 2)
    >>> inflate((1, 2), [(1, 2), (1,)])
    (1, 2, 3)
    """
    return _inflate(*_checked_inflation(skeleton, parts))


def _inflate(skeleton: Perm, parts: tuple[Perm, ...]) -> Perm:
    # in skeleton-value order, each part's range starts where the previous one ends
    offsets = [0] * len(parts)
    for a, b in itertools.pairwise(sorted(range(len(parts)), key=skeleton.__getitem__)):
        offsets[b] = offsets[a] + len(parts[a])
    return tuple(offsets[a] + value for a, part in enumerate(parts) for value in part)


def inflation_inversion_set(
    skeleton: Iterable[int], parts: Sequence[Iterable[int]]
) -> RootSubset:
    """The inversion set of ``inflate(skeleton, parts)``, assembled directly.

    Built from the pieces rather than from the inflated permutation, one
    inversion row per position: the row of a position in slot ``a`` is the
    union of the whole slots ``b`` that the skeleton's row ``a`` inverts,
    plus the position's row in ``parts[a]``, shifted into place.  Kept
    independent of :func:`inflate` so the two can check each other.

    >>> sorted(inflation_inversion_set((2, 1), [(1,), (1, 2)]))
    [(1, 2), (1, 3)]
    """
    skeleton, parts = _checked_inflation(skeleton, parts)
    starts = list(itertools.accumulate(map(len, parts), initial=0))
    rows = []
    for start, part, row in zip(starts, parts, _inversion_rows(skeleton)):
        span = 0
        while row:  # slot b holds the positions starts[b] .. starts[b + 1] - 1
            b = (row & -row).bit_length() - 1
            span |= (1 << starts[b + 1]) - (1 << starts[b])
            row &= row - 1
        rows += [span | part_row << start for part_row in _inversion_rows(part)]
    return RootSubset._from_mask(starts[-1], _mask_of(rows))


def _block_ends(sigma: Perm, start: int) -> Iterator[int]:
    """Yield, ascending, each ``end > start`` where positions ``start..end`` form a block.

    Positions are 1-based.  The window grows from ``start`` tracking its min and
    max image; it is a block exactly when the image span equals its length.
    """
    low = high = sigma[start - 1]
    for end in range(start + 1, len(sigma) + 1):
        value = sigma[end - 1]
        if value < low:
            low = value
        elif value > high:
            high = value
        if high - low == end - start:
            yield end


def blocks(sigma: Iterable[int]) -> tuple[Block, ...]:
    """All blocks of ``sigma``, sorted by (start, length).

    Includes the n singleton blocks and the full block.

    >>> len(blocks((1, 2, 3)))
    6
    >>> len(blocks((2, 4, 1, 3)))
    5
    """
    sigma = check_permutation(sigma)
    return tuple(
        Block(start, end - start + 1)
        for start in range(1, len(sigma) + 1)
        for end in (start, *_block_ends(sigma, start))
    )


def is_simple(sigma: Iterable[int]) -> bool:
    """True iff ``sigma`` has no block of size strictly between 1 and n.

    Degrees 1 and 2 are vacuously simple; degree 3 has no simple elements;
    the smallest non-trivial simples are (2,4,1,3) and (3,1,4,2).

    >>> is_simple((2, 4, 1, 3))
    True
    >>> is_simple((1, 2, 3))
    False
    """
    sigma = check_permutation(sigma)
    n = len(sigma)
    return all(
        end - start + 1 == n for start in range(1, n) for end in _block_ends(sigma, start)
    )


def is_atomic(sigma: Iterable[int]) -> bool:
    """True iff no adjacent pair ascends by exactly one (sigma(i+1) != sigma(i)+1).

    >>> is_atomic((2, 4, 1, 3))
    True
    >>> is_atomic((1, 2))
    False
    """
    sigma = check_permutation(sigma)
    return all(sigma[i + 1] != sigma[i] + 1 for i in range(len(sigma) - 1))


def _plus_cut_points(sigma: Perm) -> list[int]:
    """Positions t < n where sigma maps {1..t} onto {1..t}."""
    cuts = []
    high = 0
    for t in range(1, len(sigma)):
        high = max(high, sigma[t - 1])
        if high == t:
            cuts.append(t)
    return cuts


def _minus_cut_points(sigma: Perm) -> list[int]:
    """Positions t < n where sigma maps {1..t} onto the top t values."""
    return _plus_cut_points(tuple(len(sigma) + 1 - value for value in sigma))


def is_plus_decomposable(sigma: Iterable[int]) -> bool:
    """True iff ``sigma`` splits as a proper prefix onto {1..t} plus the rest.

    >>> is_plus_decomposable((1, 2, 3))
    True
    >>> is_plus_decomposable((3, 1, 2))
    False
    """
    return bool(_plus_cut_points(check_permutation(sigma)))


def is_minus_decomposable(sigma: Iterable[int]) -> bool:
    """True iff ``sigma`` maps a proper prefix onto the top values.

    Never true together with plus-decomposability: a prefix cannot land on
    both the bottom and the top of the value range.

    >>> is_minus_decomposable((3, 1, 2))
    True
    """
    return bool(_minus_cut_points(check_permutation(sigma)))


@dataclass(frozen=True)
class SimpleForm:
    """The canonical inflation expression of a permutation.

    ``skeleton_kind`` is one of ``SIMPLE``, ``IDENTITY``, ``REVERSAL``; the
    constructor enforces the shape constraints that make the expression
    unique, so an invalid combination never leaves this module.
    """

    skeleton_kind: str
    skeleton: Perm
    parts: tuple[Perm, ...]

    def __post_init__(self) -> None:
        skeleton, parts = _checked_inflation(self.skeleton, self.parts)
        object.__setattr__(self, "skeleton", skeleton)
        object.__setattr__(self, "parts", parts)
        m = len(skeleton)
        if m < 2:
            raise ValueError("a simple form has at least two parts")
        if self.skeleton_kind == SIMPLE:
            if m < 4 or not is_simple(self.skeleton):
                raise ValueError(f"skeleton {self.skeleton} is not simple of degree >= 4")
        elif self.skeleton_kind == IDENTITY:
            if self.skeleton != identity(m):
                raise ValueError(f"skeleton {self.skeleton} is not an identity")
            for part in self.parts:
                if _plus_cut_points(part):
                    raise ValueError(f"part {part} is plus-decomposable")
        elif self.skeleton_kind == REVERSAL:
            if self.skeleton != longest(m):
                raise ValueError(f"skeleton {self.skeleton} is not order-reversing")
            for part in self.parts:
                if _minus_cut_points(part):
                    raise ValueError(f"part {part} is minus-decomposable")
        else:
            raise ValueError(f"unknown skeleton kind {self.skeleton_kind!r}")

    def permutation(self) -> Perm:
        """Inflate the expression back into the permutation it describes."""
        return _inflate(self.skeleton, self.parts)  # validated on construction

    def __str__(self) -> str:
        return format_inflation(self.skeleton, self.parts)


def _parts_for_cuts(sigma: Perm, cuts: Sequence[int]) -> tuple[Perm, ...]:
    # each part is a block, so its values are consecutive and a shift standardizes it
    parts = []
    for low, high in itertools.pairwise([0, *cuts, len(sigma)]):
        shift = min(sigma[low:high]) - 1
        parts.append(tuple(value - shift for value in sigma[low:high]))
    return tuple(parts)


def simple_form(sigma: Iterable[int]) -> SimpleForm:
    """The canonical simple form of ``sigma`` (degree >= 2).

    Plus-decomposable permutations split at every bottom-prefix point
    (IDENTITY, maximal number of parts); minus-decomposable ones split at
    every top-prefix point (REVERSAL); everything else gets its unique
    coarsest partition into maximal proper blocks, whose skeleton is simple
    (a simple permutation is its own skeleton with singleton parts).

    >>> print(simple_form((5, 3, 4, 8, 1, 2, 6, 7)))
    (2,4,1,3)[(3,1,2),(1),(1,2),(1,2)]
    >>> print(simple_form((1, 3, 2, 4, 6, 5, 7, 8)))
    (1,2,3,4,5,6)[(1),(2,1),(1),(2,1),(1),(1)]
    >>> print(simple_form((2, 1)))
    (2,1)[(1),(1)]
    """
    sigma = check_permutation(sigma)
    n = len(sigma)
    if n < 2:
        raise ValueError("a permutation of degree 1 has no simple form")

    plus_cuts = _plus_cut_points(sigma)
    if plus_cuts:
        parts = _parts_for_cuts(sigma, plus_cuts)
        return SimpleForm(IDENTITY, identity(len(parts)), parts)

    minus_cuts = _minus_cut_points(sigma)
    if minus_cuts:
        parts = _parts_for_cuts(sigma, minus_cuts)
        return SimpleForm(REVERSAL, longest(len(parts)), parts)

    # Neither decomposable: sigma inflates a simple skeleton of degree >= 4 in
    # exactly one way (Albert and Atkinson, Discrete Math. 300, 2005), so every
    # proper block lies inside one part, and the longest proper block starting
    # at a part's first position is that part: one walk per part suffices.
    ends = [0]
    while ends[-1] < n:
        start = ends[-1] + 1
        proper = (end for end in _block_ends(sigma, start) if end - start + 1 < n)
        ends.append(max(proper, default=start))
    parts = _parts_for_cuts(sigma, ends[1:-1])
    skeleton = restrict(sigma, [end + 1 for end in ends[:-1]])
    form = SimpleForm(SIMPLE, skeleton, parts)
    assert form.permutation() == sigma
    return form


def one_point_deletions(sigma: Iterable[int]) -> tuple[Perm, ...]:
    """The n patterns obtained by deleting one position (k = 1..n in order).

    >>> one_point_deletions((2, 4, 1, 3))[3]
    (2, 3, 1)
    >>> one_point_deletions((3, 1, 4, 2))[0]
    (1, 3, 2)
    """
    sigma = check_permutation(sigma)
    n = len(sigma)
    if n < 2:
        raise ValueError("cannot delete from a permutation of degree 1")
    everything = set(range(1, n + 1))
    return tuple(restrict(sigma, everything - {k}) for k in range(1, n + 1))


def exceptional(kind: int, half: int) -> Perm:
    """The four exceptional families, degree ``2 * half``.

    Kind 1 lists the even values then the odd values, ascending; kind 3 is
    its reverse-order counterpart (odds then evens, descending); kinds 2 and
    4 interleave the two halves of the value range, ascending resp.
    descending.  These are exactly the simple permutations all of whose
    one-point deletions are non-simple.

    >>> exceptional(1, 2)
    (2, 4, 1, 3)
    >>> exceptional(2, 3)
    (4, 1, 5, 2, 6, 3)
    >>> exceptional(4, 3)
    (3, 6, 2, 5, 1, 4)
    """
    if half < 2:
        raise ValueError(f"half must be at least 2, got {half}")
    m = half
    n = 2 * m
    if kind == 1:
        return tuple(range(2, n + 1, 2)) + tuple(range(1, n, 2))
    if kind == 2:
        return tuple(v for t in range(1, m + 1) for v in (m + t, t))
    if kind == 3:
        return tuple(range(n - 1, 0, -2)) + tuple(range(n, 1, -2))
    if kind == 4:
        return tuple(v for t in range(1, m + 1) for v in (m + 1 - t, 2 * m + 1 - t))
    raise ValueError(f"kind must be 1, 2, 3 or 4, got {kind}")


def is_exceptional(sigma: Iterable[int]) -> bool:
    """True iff ``sigma`` belongs to one of the four exceptional families.

    >>> is_exceptional((2, 4, 1, 3))
    True
    >>> is_exceptional((2, 4, 1, 3, 5))
    False
    """
    sigma = check_permutation(sigma)
    n = len(sigma)
    if n < 4 or n % 2:
        return False
    return any(sigma == exceptional(kind, n // 2) for kind in (1, 2, 3, 4))


def format_inflation(skeleton: Iterable[int], parts: Sequence[Iterable[int]]) -> str:
    """Render an inflation expression like ``(2,1)[(1),(1,2)]``."""
    skeleton, parts = _checked_inflation(skeleton, parts)

    def one(p: Perm) -> str:
        return "(" + ",".join(str(v) for v in p) + ")"

    return one(skeleton) + "[" + ",".join(one(p) for p in parts) + "]"


def _split_top_level(text: str) -> list[str]:
    """Split on commas that sit outside parentheses."""
    chunks: list[str] = []
    current: list[str] = []
    depth = 0
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced parentheses in {text!r}")
        if ch == "," and depth == 0:
            chunks.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise ValueError(f"unbalanced parentheses in {text!r}")
    chunks.append("".join(current))
    return chunks


def _parse_parenthesized(chunk: str) -> Perm:
    chunk = chunk.strip()
    if not (chunk.startswith("(") and chunk.endswith(")")):
        raise ValueError(f"expected a parenthesized permutation, got {chunk!r}")
    return parse_permutation(chunk[1:-1])


def parse_inflation(text: str) -> tuple[Perm, tuple[Perm, ...]]:
    """Parse ``(skeleton)[(part),(part),...]`` into its pieces.

    The expression need not be canonical; it only has to be well-formed
    with one part per skeleton position.

    >>> parse_inflation("(2,1)[(1),(1,2)]")
    ((2, 1), ((1,), (1, 2)))
    """
    stripped = text.strip()
    open_bracket = stripped.find("[")
    if open_bracket < 0 or not stripped.endswith("]"):
        raise ValueError(f"cannot parse inflation expression from {text!r}")
    skeleton = _parse_parenthesized(stripped[:open_bracket])
    inner = stripped[open_bracket + 1 : -1]
    parts = (_parse_parenthesized(chunk) for chunk in _split_top_level(inner))
    return _checked_inflation(skeleton, parts)


def parse_simple_form(text: str) -> SimpleForm:
    """Parse a serialized :class:`SimpleForm`, enforcing canonicity.

    Raises ``ValueError`` when the expression, though a valid inflation, is
    not a canonical simple form (wrong skeleton shape or decomposable parts).

    >>> parse_simple_form("(2,4,1,3)[(3,1,2),(1),(1,2),(1,2)]").skeleton_kind
    'SIMPLE'
    """
    skeleton, parts = parse_inflation(text)
    m = len(skeleton)
    if skeleton == identity(m):
        kind = IDENTITY
    elif skeleton == longest(m):
        kind = REVERSAL
    else:
        kind = SIMPLE
    return SimpleForm(kind, skeleton, parts)
