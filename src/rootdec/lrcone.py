"""Generating rays of the simplicial cones cut out by three-part decompositions.

A triple ``(w1, w2, w3)`` whose inversion sets partition the positive system
selects a regular face of the Littlewood-Richardson cone.  In
consecutive-difference coordinates ``a_1 .. a_{n-1}`` (and ``b``, ``c`` for
the other two weights) the pairing with a root is a coordinate sum,

    (lambda, e_i - e_j) = a_i + ... + a_{j-1},

and the face is carved out by one balance equation per root alpha whose
covering part sends it to minus a simple root: if ``w_t(alpha) = -(e_k -
e_{k+1})`` then the side-``t`` coordinate ``k`` (the *pivot*) equals the sum
of the coordinates spanned by the other two sides' images of alpha.  Exactly
``n - 1`` roots contribute, their pivots are pairwise distinct, and
back-substituting pivots out of each other's right-hand sides leaves every
pivot expressed in the remaining *free* coordinates with nonnegative integer
coefficients.  The face is therefore simplicial: setting one free coordinate
to 1 and the rest to 0 yields one generating ray per free coordinate.

Weights enter through the inverse action, so a triple here plays the role of
the inverse-transposed equation display: the construction below applies each
``w`` directly to roots, which is the convention the worked equations fix.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator

from .decompose import verify_decomposition
from .permcore import Perm, Root, check_permutation, inverse

SIDES = ("A", "B", "C")

Triple = tuple[Perm, Perm, Perm]


@dataclass(frozen=True, order=True)
class FaceVariable:
    """One consecutive-difference coordinate: side ``A``/``B``/``C``, 1-based index.

    Ordering is sides ``A`` then ``B`` then ``C``, ascending index, which is
    the canonical column and ray order everywhere in this module.

    >>> str(FaceVariable("B", 5))
    'b5'
    >>> FaceVariable("A", 2) < FaceVariable("B", 1) < FaceVariable("B", 4)
    True
    """

    side: str
    index: int

    def __post_init__(self) -> None:
        if self.side not in SIDES:
            raise ValueError(f"side must be one of {SIDES}, got {self.side!r}")
        if self.index < 1:
            raise ValueError(f"coordinate index must be positive, got {self.index}")

    def __str__(self) -> str:
        return f"{self.side.lower()}{self.index}"


def _format_terms(terms, name=str) -> str:
    grouped = sorted(Counter(terms).items())
    return " + ".join(name(t) if k == 1 else f"{k}*{name(t)}" for t, k in grouped) or "0"


@dataclass(frozen=True)
class FaceEquation:
    """A balance equation ``pivot = sum(rhs)`` contributed by one root.

    ``rhs`` is a multiset stored as a sorted tuple; a repeated entry is a
    coefficient greater than one (these can appear after elimination).  The
    pivot never occurs on its own right-hand side.

    >>> eq = FaceEquation((1, 2), FaceVariable("A", 1),
    ...                   (FaceVariable("B", 1), FaceVariable("C", 1)))
    >>> str(eq)
    'a1 = b1 + c1'
    """

    source_root: Root
    pivot: FaceVariable
    rhs: tuple[FaceVariable, ...]

    def __post_init__(self) -> None:
        i, j = self.source_root
        if not 1 <= i < j:
            raise ValueError(f"source root must satisfy 1 <= i < j, got {(i, j)}")
        object.__setattr__(self, "rhs", tuple(sorted(self.rhs)))
        if self.pivot in self.rhs:
            raise ValueError(f"pivot {self.pivot} appears on its own right-hand side")

    def __str__(self) -> str:
        return f"{self.pivot} = {_format_terms(self.rhs)}"


def _columns(n: int) -> tuple[FaceVariable, ...]:
    return tuple(FaceVariable(side, k) for side in SIDES for k in range(1, n))


@dataclass(frozen=True)
class RayMatrix:
    """The generating rays of one face, stored by their nonzero entries.

    Columns number the ``3(n-1)`` coordinates from 0 in the canonical order
    of :meth:`column_order`.  Ray ``k`` sets free column ``free[k]`` to 1
    and the other free columns to 0; ``pivots`` maps each of the other
    ``n - 1`` columns to its entries ``{free column: value}``, all positive.

    >>> RayMatrix(n=2, free=(1, 2), pivots={0: {1: 1, 2: 1}}).rows
    ((1, 1, 0), (1, 0, 1))
    """

    n: int
    free: tuple[int, ...]
    pivots: dict[int, dict[int, int]] = field(hash=False)

    def __post_init__(self) -> None:
        n, free, width = self.n, set(self.free), 3 * (self.n - 1)
        if n < 1:
            raise ValueError(f"degree must be positive, got {n}")
        if (
            (len(free), len(self.pivots)) != (2 * (n - 1), n - 1)
            or list(self.free) != sorted(free)
            or free | self.pivots.keys() != set(range(width))
        ):
            raise ValueError(
                f"expected {2 * (n - 1)} ascending free columns and {n - 1} pivot columns, "
                f"naming each of the {width} columns once"
            )
        for pivot, entries in self.pivots.items():
            if not free.issuperset(entries) or min(entries.values(), default=1) < 1:
                raise ValueError(f"pivot column {pivot} needs positive free entries, got {entries}")

    def column_order(self) -> tuple[FaceVariable, ...]:
        """All ``3(n-1)`` coordinates in canonical order."""
        return _columns(self.n)

    def _dense(self, zero, convert) -> Iterator[list]:
        """Each ray as a list of its ``3(n-1)`` coordinates: one list, refilled per ray."""
        nonzeros = [[(column, 1)] for column in self.free]
        row_of = {column: r for r, column in enumerate(self.free)}
        for pivot, entries in self.pivots.items():
            for column, value in entries.items():
                nonzeros[row_of[column]].append((pivot, value))
        row = [zero] * (3 * (self.n - 1))
        for entries in nonzeros:
            for column, value in entries:
                row[column] = convert(value)
            yield row
            for column, _ in entries:
                row[column] = zero

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The rays as tuples of ``3(n-1)`` coordinates, built on each access."""
        return tuple(map(tuple, self._dense(0, int)))

    def csv_lines(self) -> Iterator[str]:
        """Header ``a1,..,c{n-1}``, then one ray per line; none at degree 1, which has no columns."""
        if self.n > 1:
            yield ",".join(map(str, self.column_order())) + "\n"
            for row in self._dense("0", str):
                yield ",".join(row) + "\n"

    def to_csv(self) -> str:
        """The lines of :meth:`csv_lines` as one text."""
        return "".join(self.csv_lines())


def _checked_triple(w1: Perm, w2: Perm, w3: Perm) -> Triple:
    triple = (check_permutation(w1), check_permutation(w2), check_permutation(w3))
    result = verify_decomposition(len(triple[0]), list(triple), allow_identity=True)
    if not result.ok:
        raise ValueError(
            f"the inversion sets do not partition the positive system: {result.detail}"
        )
    return triple


def _special(triple: Triple) -> list[tuple[Root, int, int]]:
    """``(root, owner, k)`` for each special root, in lexicographic root order.

    Part ``owner`` sends the root to ``-(e_k - e_{k+1})``: the root is the
    pair of positions holding the values ``k + 1`` and ``k`` in ``owner``,
    when those positions come in that order.
    """
    n = len(triple[0])
    special = []
    for t, w in enumerate(triple):
        position = inverse(w)
        for k in range(1, n):
            i, j = position[k], position[k - 1]
            if i < j:
                special.append(((i, j), t, k))
    special.sort()
    # each (owner, k) occurs at most once, so the pivots are distinct
    assert len(special) == n - 1, f"degree {n} gives {len(special)} pivot roots, not {n - 1}"
    return special


def special_roots(w1: Perm, w2: Perm, w3: Perm) -> tuple[Root, ...]:
    """The ``n - 1`` roots sent to minus a simple root by their covering part.

    A root ``(i, j)`` qualifies when the unique part inverting it maps it to
    ``-(e_k - e_{k+1})``, i.e. when that part has ``w(i) = w(j) + 1``.
    Returned in lexicographic root order.  These roots always number exactly
    ``n - 1`` and their pivot coordinates are pairwise distinct.  The triple
    is checked once; the roots are then read off the positions of
    consecutive values in each part, without scanning every root.

    >>> special_roots((3, 2, 1), (1, 2, 3), (1, 2, 3))
    ((1, 2), (2, 3))
    >>> special_roots((2, 1), (1, 2), (1, 2))
    ((1, 2),)
    """
    return tuple(root for root, _, _ in _special(_checked_triple(w1, w2, w3)))


def _system(triple: Triple) -> list[tuple[Root, int, list[int]]]:
    """The balance equations on column indices: ``(root, pivot, ascending rhs)``."""
    m = len(triple[0]) - 1
    system = []
    for (i, j), owner, k in _special(triple):
        rhs: list[int] = []
        for u, w in enumerate(triple):
            if u != owner:
                p, q = w[i - 1], w[j - 1]
                assert p < q, "only the covering part may invert a special root"
                rhs.extend(range(u * m + p - 1, u * m + q - 1))
        system.append(((i, j), owner * m + k - 1, rhs))
    return system


def build_equations(w1: Perm, w2: Perm, w3: Perm) -> tuple[FaceEquation, ...]:
    """One balance equation per special root, in lexicographic root order.

    For the root's covering part ``w_t`` with ``w_t(i) = w_t(j) + 1`` the
    pivot is the side-``t`` coordinate ``w_t(j)``; each other side ``u``
    maps the root to a positive ``e_p - e_q`` and contributes the free run
    ``u_p, .., u_{q-1}``.  The triple is checked once.

    >>> [str(eq) for eq in build_equations((2, 1), (1, 2), (1, 2))]
    ['a1 = b1 + c1']
    >>> [str(eq) for eq in build_equations((3, 2, 1), (1, 2, 3), (1, 2, 3))]
    ['a2 = b1 + c1', 'a1 = b2 + c2']
    """
    triple = _checked_triple(w1, w2, w3)
    columns = _columns(len(triple[0]))
    return tuple(
        FaceEquation(root, columns[pivot], tuple(columns[c] for c in rhs))
        for root, pivot, rhs in _system(triple)
    )


def _solve(system: list[tuple[int, list[int]]]) -> dict[int, Counter[int]]:
    """Each pivot's right-hand side with the pivots substituted out, multiplicity kept.

    Pivots are solved in topological order; one never reached lies on a cycle.
    """
    rhs = dict(system)
    waiting = {pivot: set(terms).intersection(rhs) for pivot, terms in rhs.items()}
    users: dict[int, list[int]] = {pivot: [] for pivot in rhs}
    for pivot, dependencies in waiting.items():
        for dependency in dependencies:
            users[dependency].append(pivot)
    ready = [pivot for pivot, dependencies in waiting.items() if not dependencies]
    solved: dict[int, Counter[int]] = {}
    while ready:
        pivot = ready.pop()
        solved[pivot] = total = Counter()
        for term in rhs[pivot]:
            total.update(solved.get(term, (term,)))  # a solved pivot's counts, or one free term
        for user in users[pivot]:
            waiting[user].discard(pivot)
            if not waiting[user]:
                ready.append(user)
    if len(solved) < len(rhs):
        raise ValueError(
            "pivot substitution did not reach a fixed point: "
            "the pivot dependencies contain a cycle"
        )
    return solved


def eliminate(equations: tuple[FaceEquation, ...]) -> tuple[FaceEquation, ...]:
    """Substitute pivots out of every right-hand side, preserving multiplicity.

    The variables are numbered in canonical order and solved as the rays
    are.  A repeated pivot and a dependency cycle (which only malformed
    systems have) are reported.  An already-clean system comes back equal.

    >>> eqs = build_equations((3, 2, 1), (1, 2, 3), (1, 2, 3))
    >>> eliminate(eqs) == eqs
    True
    """
    pivots = Counter(equation.pivot for equation in equations)
    for pivot, count in pivots.items():
        if count > 1:
            raise ValueError(f"duplicate pivot {pivot}")
    variables = sorted(set(pivots).union(*(equation.rhs for equation in equations)))
    number = {var: k for k, var in enumerate(variables)}
    solved = _solve([(number[eq.pivot], [number[var] for var in eq.rhs]) for eq in equations])
    rhs = [tuple(map(variables.__getitem__, solved[number[eq.pivot]].elements())) for eq in equations]
    return tuple(FaceEquation(eq.source_root, eq.pivot, terms) for eq, terms in zip(equations, rhs))


def _ray_matrix(n: int, system: list[tuple[Root, int, list[int]]]) -> RayMatrix:
    solved = _solve([(pivot, rhs) for _, pivot, rhs in system])
    free = tuple(column for column in range(3 * (n - 1)) if column not in solved)
    return RayMatrix(n, free, {pivot: dict(terms) for pivot, terms in solved.items()})


def rays(w1: Perm, w2: Perm, w3: Perm) -> RayMatrix:
    """The ``2(n-1)`` generating rays of the face selected by the triple.

    Each ray sets one free coordinate to 1, the other free coordinates to 0,
    and evaluates the pivots from the solved system.  Rows follow the
    canonical free-coordinate order (sides ``A``, ``B``, ``C``, ascending
    index).  The triple is checked once and solved on column indices.

    >>> rays((2, 1), (1, 2), (1, 2)).rows
    ((1, 1, 0), (1, 0, 1))
    """
    triple = _checked_triple(w1, w2, w3)
    return _ray_matrix(len(triple[0]), _system(triple))


def rays_json(w1: Perm, w2: Perm, w3: Perm) -> Iterator[str]:
    """The JSON object ``{n, free_order, rays, equations}`` for the triple, in pieces.

    The pieces join to ``json.dumps(payload, indent=2)`` and a newline, one
    ray per piece, so the text is never held whole.  ``equations`` lists
    the defining balance equations before elimination; ``rays`` matches
    :meth:`RayMatrix.csv_lines` row for row.  The triple is checked and the
    system solved in this call, so a refused triple raises before any text.

    >>> json.loads("".join(rays_json((2, 1), (1, 2), (1, 2))))["rays"]
    [[1, 1, 0], [1, 0, 1]]
    """
    triple = _checked_triple(w1, w2, w3)
    system = _system(triple)
    return _json_lines(_ray_matrix(len(triple[0]), system), system)


def _json_list(key: str, strings: list[str]) -> str:
    """The member ``"key": [strings]`` of a top-level object in ``json.dumps(indent=2)`` layout."""
    items = ",\n    ".join(map(json.dumps, strings))
    return f'  "{key}": [' + (f"\n    {items}\n  ]" if strings else "]")


def _json_lines(matrix: RayMatrix, system: list[tuple[Root, int, list[int]]]) -> Iterator[str]:
    names = list(map(str, matrix.column_order()))
    free_order = _json_list("free_order", [names[column] for column in matrix.free])
    yield f'{{\n  "n": {matrix.n},\n{free_order},\n  "rays": ['
    separator = "\n    ["
    for row in matrix._dense("0", str):
        yield separator + "\n      " + ",\n      ".join(row) + "\n    ]"
        separator = ",\n    ["
    equations = [f"{names[p]} = {_format_terms(rhs, names.__getitem__)}" for _, p, rhs in system]
    yield ("]" if matrix.n == 1 else "\n  ]") + f",\n{_json_list('equations', equations)}\n}}\n"


def integer_rank(rows: tuple[tuple[int, ...], ...]) -> int:
    """Rank of an integer matrix by exact fraction-free row reduction.

    >>> integer_rank(((1, 1, 0), (1, 0, 1)))
    2
    >>> integer_rank(((2, 4), (1, 2)))
    1
    """
    matrix = [list(row) for row in rows if any(row)]
    rank = 0
    width = len(matrix[0]) if matrix else 0
    for col in range(width):
        pivot_row = next(
            (r for r in range(rank, len(matrix)) if matrix[r][col]), None
        )
        if pivot_row is None:
            continue
        matrix[rank], matrix[pivot_row] = matrix[pivot_row], matrix[rank]
        lead = matrix[rank][col]
        for r in range(rank + 1, len(matrix)):
            if matrix[r][col]:
                scale = matrix[r][col]
                matrix[r] = [
                    lead * entry - scale * top
                    for entry, top in zip(matrix[r], matrix[rank])
                ]
        rank += 1
        if rank == len(matrix):
            break
    return rank
