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

from .decompose import verify_decomposition
from .permcore import Perm, Root, check_permutation, inverse

SIDE_A = "A"
SIDE_B = "B"
SIDE_C = "C"
SIDES = (SIDE_A, SIDE_B, SIDE_C)

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


def _format_terms(variables: tuple[FaceVariable, ...]) -> str:
    grouped = Counter(variables)
    parts = []
    for var in sorted(grouped):
        count = grouped[var]
        parts.append(str(var) if count == 1 else f"{count}*{var}")
    return " + ".join(parts) if parts else "0"


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
            raise ValueError(
                f"pivot {self.pivot} appears on its own right-hand side"
            )

    def __str__(self) -> str:
        return f"{self.pivot} = {_format_terms(self.rhs)}"


@dataclass(frozen=True)
class RayMatrix:
    """The generating rays of one face, one row per free coordinate.

    Rows and columns follow the canonical coordinate order ``a_1 ..
    a_{n-1}, b_1 .. b_{n-1}, c_1 .. c_{n-1}``; row ``k`` is the ray obtained
    by setting free coordinate ``free[k]`` to 1.  Every entry is a
    nonnegative integer, and within the free columns each row is a unit
    vector.
    """

    n: int
    free: tuple[FaceVariable, ...] = field(repr=False)
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = self.n
        if n < 1:
            raise ValueError(f"degree must be positive, got {n}")
        if len(self.free) != 2 * (n - 1) or len(self.rows) != 2 * (n - 1):
            raise ValueError(
                f"expected {2 * (n - 1)} free coordinates and rays, got "
                f"{len(self.free)} and {len(self.rows)}"
            )
        columns = {var: k for k, var in enumerate(self.column_order())}
        free_columns = [columns[var] for var in self.free]
        for row_index, row in enumerate(self.rows):
            if len(row) != 3 * (n - 1):
                raise ValueError(
                    f"ray {row_index + 1} has {len(row)} coordinates, "
                    f"expected {3 * (n - 1)}"
                )
            if min(row) < 0:
                raise ValueError(f"ray {row_index + 1} has a negative coordinate")
            # nonnegative entries: a 1 in the row's own column and a sum of 1
            if (
                row[free_columns[row_index]] != 1
                or sum(map(row.__getitem__, free_columns)) != 1
            ):
                raise ValueError(
                    f"ray {row_index + 1} is not a unit vector on the free columns"
                )

    def column_order(self) -> tuple[FaceVariable, ...]:
        """All ``3(n-1)`` coordinates in canonical order."""
        return tuple(
            FaceVariable(side, k) for side in SIDES for k in range(1, self.n)
        )

    def to_csv(self) -> str:
        """Header ``a1,..,c{n-1}`` then one comma-separated ray per line.

        Degree 1 has no coordinates and no rays, so its text is empty.
        """
        if self.n == 1:
            return ""
        lines = [",".join(str(var) for var in self.column_order())]
        lines.extend(",".join(str(entry) for entry in row) for row in self.rows)
        return "\n".join(lines) + "\n"


def _checked_triple(w1: Perm, w2: Perm, w3: Perm) -> Triple:
    triple = (check_permutation(w1), check_permutation(w2), check_permutation(w3))
    n = len(triple[0])
    result = verify_decomposition(n, list(triple), allow_identity=True)
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
    assert len(special) == n - 1, (
        f"degree {n} should contribute {n - 1} pivot roots, found {len(special)}"
    )
    pivots = {(t, k) for _, t, k in special}
    assert len(pivots) == len(special), "pivot coordinates must be distinct"
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


def _build_equations(triple: Triple) -> tuple[FaceEquation, ...]:
    equations = []
    for (i, j), owner, k in _special(triple):
        rhs: list[FaceVariable] = []
        for u, w in enumerate(triple):
            if u == owner:
                continue
            p, q = w[i - 1], w[j - 1]
            assert p < q, "only the covering part may invert a special root"
            rhs.extend(FaceVariable(SIDES[u], m) for m in range(p, q))
        pivot = FaceVariable(SIDES[owner], k)
        equations.append(FaceEquation((i, j), pivot, tuple(rhs)))
    return tuple(equations)


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
    return _build_equations(_checked_triple(w1, w2, w3))


def eliminate(equations: tuple[FaceEquation, ...]) -> tuple[FaceEquation, ...]:
    """Substitute pivots out of every right-hand side, preserving multiplicity.

    Repeats whole-system substitution until no pivot appears on any
    right-hand side; for a valid triple the dependencies are acyclic, so the
    fixed point arrives within ``n - 1`` rounds.  The round count is capped
    at the square of the system size, and hitting the cap reports a
    dependency cycle (which only malformed hand-built systems can create).
    An already-clean system is returned unchanged.

    >>> eqs = build_equations((3, 2, 1), (1, 2, 3), (1, 2, 3))
    >>> eliminate(eqs) == eqs
    True
    """
    expressions: dict[FaceVariable, Counter[FaceVariable]] = {}
    for equation in equations:
        if equation.pivot in expressions:
            raise ValueError(f"duplicate pivot {equation.pivot}")
        expressions[equation.pivot] = Counter(equation.rhs)
    for _ in range(max(1, len(equations)) ** 2):
        changed = False
        for pivot, expr in list(expressions.items()):
            hits = [var for var in expr if var in expressions]
            if not hits:
                continue
            changed = True
            resolved = Counter(
                {var: c for var, c in expr.items() if var not in expressions}
            )
            for var in hits:
                for free_var, coefficient in expressions[var].items():
                    resolved[free_var] += expr[var] * coefficient
            expressions[pivot] = resolved
        if not changed:
            break
    else:
        raise ValueError(
            "pivot substitution did not reach a fixed point: "
            "the pivot dependencies contain a cycle"
        )
    return tuple(
        FaceEquation(
            equation.source_root,
            equation.pivot,
            tuple(sorted(expressions[equation.pivot].elements())),
        )
        for equation in equations
    )


def _rays(n: int, equations: tuple[FaceEquation, ...]) -> RayMatrix:
    """The ray matrix of an equation system, filled by column index.

    Each free column gets a zero row with its unit entry; each solved
    equation then writes its right-hand-side counts into its pivot's column.
    """
    offset = {side: s * (n - 1) - 1 for s, side in enumerate(SIDES)}

    def column(var: FaceVariable) -> int:
        return offset[var.side] + var.index

    columns = tuple(FaceVariable(side, k) for side in SIDES for k in range(1, n))
    solved = eliminate(equations)
    pivots = {column(eq.pivot) for eq in solved}
    free = [col for col in range(len(columns)) if col not in pivots]
    row_of = {col: r for r, col in enumerate(free)}
    rows = [[0] * len(columns) for _ in free]
    for r, col in enumerate(free):
        rows[r][col] = 1
    for eq in solved:
        pivot = column(eq.pivot)
        for var, count in Counter(eq.rhs).items():
            rows[row_of[column(var)]][pivot] = count
    return RayMatrix(
        n=n,
        free=tuple(columns[col] for col in free),
        rows=tuple(tuple(row) for row in rows),
    )


def rays(w1: Perm, w2: Perm, w3: Perm) -> RayMatrix:
    """The ``2(n-1)`` generating rays of the face selected by the triple.

    Each ray sets one free coordinate to 1, the other free coordinates to 0,
    and evaluates the pivots from the eliminated system.  Rows follow the
    canonical free-coordinate order (sides ``A``, ``B``, ``C``, ascending
    index).  The triple is checked once, and each pivot's column is written
    from its solved right-hand side rather than looked up row by row.

    >>> rays((2, 1), (1, 2), (1, 2)).rows
    ((1, 1, 0), (1, 0, 1))
    """
    triple = _checked_triple(w1, w2, w3)
    return _rays(len(triple[0]), _build_equations(triple))


def rays_json(w1: Perm, w2: Perm, w3: Perm) -> str:
    """JSON object ``{n, free_order, rays, equations}`` for the triple.

    ``equations`` lists the defining balance equations before elimination;
    ``rays`` matches :meth:`RayMatrix.to_csv` row for row.  Output is
    deterministic, so identical inputs give identical bytes.  The triple is
    checked and its equations built once, for both lists.
    """
    triple = _checked_triple(w1, w2, w3)
    equations = _build_equations(triple)
    matrix = _rays(len(triple[0]), equations)
    payload = {
        "n": matrix.n,
        "free_order": [str(var) for var in matrix.free],
        "rays": [list(row) for row in matrix.rows],
        "equations": [str(eq) for eq in equations],
    }
    return json.dumps(payload, indent=2) + "\n"


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
