"""Signed permutations and the type-B/C root systems.

A signed permutation of rank n sends each coordinate vector to a signed
coordinate vector.  Embedding it as a symmetric ordinary permutation — of
degree 2n+1 with a fixed center (type B) or of degree 2n (type C) — turns
every question about B/C inversion sets into a question about ordinary
inversion sets, answered by :mod:`rootdec.permcore` and
:mod:`rootdec.decompose`.  This module provides the embeddings, B/C
inversion sets and verification (type A's inversion rows read at one
ambient root per fiber), the symmetric inflation construction, and the
projection of ambient positive roots onto B/C positive roots with its
fibers, the independent reference for the rest.  The B/C counting
families live in :func:`rootdec.decompose.count_structural`.

The primed-index convention lives in one helper: the partner of position i
in ambient degree d is d+1-i.  Everything downstream uses it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Iterable, Iterator

from .decompose import VerifyResult, _cover_fault, inversion_count
from .inflation import inflate, is_simple
from .permcore import (
    Perm,
    Root,
    _inversion_rows,
    all_roots,
    check_permutation,
    compose,
    longest,
)

__all__ = [
    "DIFF",
    "SHORT",
    "SUM",
    "TYPE_B",
    "TYPE_C",
    "BCRoot",
    "SignedPermutation",
    "all_signed_permutations",
    "ambient_degree",
    "bc_compose",
    "bc_identity",
    "bc_inversion_count",
    "bc_inversion_set",
    "bc_is_simple",
    "bc_longest",
    "bc_positive_roots",
    "embed_B",
    "embed_C",
    "fiber",
    "from_symmetric",
    "is_symmetric",
    "mirror_index",
    "parse_signed_permutation",
    "project_root",
    "symmetric_inflate",
    "verify_bc_decomposition",
]

TYPE_B = "B"
TYPE_C = "C"

DIFF = "DIFF"
SUM = "SUM"
SHORT = "SHORT"


def _check_family(family: str) -> str:
    if family not in (TYPE_B, TYPE_C):
        raise ValueError(f"family must be {TYPE_B!r} or {TYPE_C!r}, got {family!r}")
    return family


def mirror_index(degree: int, i: int) -> int:
    """The primed partner of position ``i`` in ambient degree ``degree``."""
    if not 1 <= i <= degree:
        raise ValueError(f"position {i} outside 1..{degree}")
    return degree + 1 - i


def ambient_degree(family: str, n: int) -> int:
    """Degree of the symmetric embedding: 2n+1 for type B, 2n for type C."""
    _check_family(family)
    if n < 1:
        raise ValueError(f"rank must be at least 1, got {n}")
    return 2 * n + 1 if family == TYPE_B else 2 * n


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class SignedPermutation:
    """A rank-n signed permutation: entry k at position i means ε_i ↦ sign(k)·ε_|k|.

    The absolute values of the images must form a bijection of {1..n}.
    External syntax is space-separated signed integers, e.g. ``"-2 1"``.

    >>> str(SignedPermutation((-2, 1)))
    '-2 1'
    """

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "images", tuple(self.images))
        n = len(self.images)
        if n < 1:
            raise ValueError("rank must be at least 1")
        for v in self.images:
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f"images must be integers, got {v!r}")
            if v == 0 or abs(v) > n:
                raise ValueError(f"image {v} outside ±1..±{n}")
        if sorted(abs(v) for v in self.images) != list(range(1, n + 1)):
            raise ValueError(f"absolute images {self.images} are not a bijection")

    @property
    def n(self) -> int:
        return len(self.images)

    def __str__(self) -> str:
        return " ".join(str(v) for v in self.images)


@dataclass(frozen=True)
class BCRoot:
    """A positive root of the rank-n type-B or type-C system.

    ``DIFF`` is ε_i - ε_j (i < j), ``SUM`` is ε_i + ε_j (i < j, or i = j for
    type C's long root 2ε_i), ``SHORT`` is type B's ε_i (j unused).

    >>> str(BCRoot(2, "C", SUM, 2, 2))
    '2e2'
    """

    n: int
    family: str
    kind: str
    i: int
    j: int | None = None

    def __post_init__(self) -> None:
        _check_family(self.family)
        if self.kind not in (DIFF, SUM, SHORT):
            raise ValueError(f"unknown root kind {self.kind!r}")
        if not 1 <= self.i <= self.n:
            raise ValueError(f"index {self.i} outside 1..{self.n}")
        if self.kind == SHORT:
            if self.family != TYPE_B:
                raise ValueError("SHORT roots exist only in type B")
            if self.j is not None:
                raise ValueError("SHORT roots take a single index")
            return
        if self.j is None or not 1 <= self.j <= self.n:
            raise ValueError(f"index {self.j} outside 1..{self.n}")
        if self.kind == DIFF and not self.i < self.j:
            raise ValueError(f"DIFF needs i < j, got ({self.i}, {self.j})")
        if self.kind == SUM:
            if self.i > self.j:
                raise ValueError(f"SUM needs i <= j, got ({self.i}, {self.j})")
            if self.i == self.j and self.family != TYPE_C:
                raise ValueError("the doubled root 2ε_i exists only in type C")

    def __str__(self) -> str:
        if self.kind == SHORT:
            return f"e{self.i}"
        if self.kind == DIFF:
            return f"e{self.i}-e{self.j}"
        if self.i == self.j:
            return f"2e{self.i}"
        return f"e{self.i}+e{self.j}"


# ---------------------------------------------------------------------------
# embeddings


def bc_identity(n: int) -> SignedPermutation:
    """The rank-n identity signed permutation."""
    return SignedPermutation(tuple(range(1, n + 1)))


def bc_longest(n: int) -> SignedPermutation:
    """The signed permutation negating every coordinate.

    Its inversion set is the whole positive system in both types, and its
    embeddings are the order-reversing permutations.
    """
    return SignedPermutation(tuple(-i for i in range(1, n + 1)))


def bc_compose(a: SignedPermutation, b: SignedPermutation) -> SignedPermutation:
    """Apply ``b`` first, then ``a`` (matching :func:`rootdec.permcore.compose`)."""
    if a.n != b.n:
        raise ValueError(f"rank mismatch: {a.n} vs {b.n}")
    out = []
    for v in b.images:
        w = a.images[abs(v) - 1]
        out.append(w if v > 0 else -w)
    return SignedPermutation(tuple(out))


def all_signed_permutations(n: int) -> Iterator[SignedPermutation]:
    """All 2^n n! signed permutations of rank n, in a fixed deterministic order."""
    for perm in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            yield SignedPermutation(tuple(s * v for s, v in zip(signs, perm)))


def _embed(sigma: SignedPermutation, family: str) -> Perm:
    degree = ambient_degree(family, sigma.n)
    images = [0] * (degree + 1)
    for i, v in enumerate(sigma.images, start=1):
        k = v if v > 0 else mirror_index(degree, -v)
        images[i] = k
        images[mirror_index(degree, i)] = mirror_index(degree, k)
    if family == TYPE_B:
        center = sigma.n + 1
        images[center] = center
    return tuple(images[1:])


def embed_B(sigma: SignedPermutation) -> Perm:
    """The symmetric degree-(2n+1) permutation realizing ``sigma``, center fixed.

    >>> embed_B(SignedPermutation((-1,)))
    (3, 2, 1)
    >>> embed_B(SignedPermutation((2, -1)))
    (2, 5, 3, 1, 4)
    """
    return _embed(sigma, TYPE_B)


def embed_C(sigma: SignedPermutation) -> Perm:
    """The symmetric degree-2n permutation realizing ``sigma``.

    >>> embed_C(SignedPermutation((-1,)))
    (2, 1)
    """
    return _embed(sigma, TYPE_C)


def is_symmetric(p: Perm) -> bool:
    """True iff the permutation graph is centrally symmetric: p(i') = p(i)'.

    Both parities of degree are supported; for odd degree the condition
    forces the center to be fixed.

    >>> is_symmetric((3, 2, 1))
    True
    >>> is_symmetric((2, 1, 3))
    False
    """
    p = check_permutation(p)
    degree = len(p)
    return all(
        p[mirror_index(degree, i) - 1] == mirror_index(degree, p[i - 1])
        for i in range(1, degree + 1)
    )


def from_symmetric(family: str, p: Perm) -> SignedPermutation:
    """Invert :func:`embed_B` (``family`` ``"B"``) or :func:`embed_C` (``"C"``).

    >>> from_symmetric("B", (2, 5, 3, 1, 4))
    SignedPermutation(images=(2, -1))
    >>> from_symmetric("C", (2, 1))
    SignedPermutation(images=(-1,))
    """
    _check_family(family)
    p = check_permutation(p)
    degree = len(p)
    if family == TYPE_B and degree % 2 == 0:
        raise ValueError(f"type B embeddings have odd degree, got {degree}")
    if family == TYPE_C and degree % 2 == 1:
        raise ValueError(f"type C embeddings have even degree, got {degree}")
    if degree < 2:
        raise ValueError(f"degree {degree} is below every embedding of rank >= 1")
    if not is_symmetric(p):
        raise ValueError(f"{p} is not symmetric")
    n = degree // 2
    images = tuple(
        p[i - 1] if p[i - 1] <= n else -mirror_index(degree, p[i - 1])
        for i in range(1, n + 1)
    )
    return SignedPermutation(images)


# ---------------------------------------------------------------------------
# the root projection and its fibers


def project_root(family: str, n: int, root: Root) -> BCRoot:
    """Project an ambient positive root onto Δ⁺ of B_n or C_n.

    The ambient degree is 2n+1 for type B and 2n for type C.

    >>> str(project_root("B", 2, (1, 4)))
    'e1+e2'
    >>> str(project_root("B", 2, (1, 5)))
    'e1'
    >>> str(project_root("C", 2, (2, 3)))
    '2e2'
    """
    degree = ambient_degree(family, n)
    i, j = root
    if not 1 <= i < j <= degree:
        raise ValueError(f"root {root} invalid for degree {degree}")
    if j <= n:
        return BCRoot(n, family, DIFF, i, j)
    if i > degree - n:
        return BCRoot(n, family, DIFF, mirror_index(degree, j), mirror_index(degree, i))
    if i > n:  # type B's center
        return BCRoot(n, family, SHORT, mirror_index(degree, j))
    k = mirror_index(degree, j)
    if family == TYPE_B and k in (i, n + 1):  # i' or the center
        return BCRoot(n, family, SHORT, i)
    return BCRoot(n, family, SUM, min(i, k), max(i, k))


def bc_positive_roots(family: str, n: int) -> tuple[BCRoot, ...]:
    """All n² positive roots of the rank-n system, in a fixed order."""
    _check_family(family)
    if n < 1:
        raise ValueError(f"rank must be at least 1, got {n}")
    out: list[BCRoot] = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out.append(BCRoot(n, family, DIFF, i, j))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out.append(BCRoot(n, family, SUM, i, j))
    for i in range(1, n + 1):
        out.append(
            BCRoot(n, family, SHORT, i)
            if family == TYPE_B
            else BCRoot(n, family, SUM, i, i)
        )
    assert len(out) == n * n
    return tuple(out)


@lru_cache(maxsize=None)
def _fiber_map(family: str, n: int) -> dict[BCRoot, tuple[Root, ...]]:
    grouped: dict[BCRoot, list[Root]] = {}
    for root in all_roots(ambient_degree(family, n)):
        grouped.setdefault(project_root(family, n, root), []).append(root)
    fibers = {gamma: tuple(roots) for gamma, roots in grouped.items()}
    assert set(fibers) == set(bc_positive_roots(family, n))
    for gamma, roots in fibers.items():
        if gamma.kind == SHORT:
            expected = 3
        elif gamma.kind == SUM and gamma.i == gamma.j:
            expected = 1
        else:
            expected = 2
        assert len(roots) == expected, (gamma, roots)
    total = sum(len(roots) for roots in fibers.values())
    assert total == len(all_roots(ambient_degree(family, n)))
    assert total == (n * (2 * n + 1) if family == TYPE_B else 2 * n * n - n)
    return fibers


def fiber(family: str, n: int, gamma: BCRoot) -> tuple[Root, ...]:
    """The ambient positive roots projecting onto ``gamma``.

    Sizes: 3 over type B's ε_i, 1 over type C's 2ε_i, 2 everywhere else.

    >>> fiber("B", 2, BCRoot(2, "B", SHORT, 1))
    ((1, 3), (1, 5), (3, 5))
    """
    fibers = _fiber_map(_check_family(family), n)
    if gamma not in fibers:
        raise ValueError(f"{gamma} is not a positive root of {family}_{n}")
    return fibers[gamma]


# ---------------------------------------------------------------------------
# inversion sets, verification, simplicity


def _representatives(family: str, n: int) -> Iterator[tuple[BCRoot, int, int]]:
    """Each root of :func:`bc_positive_roots` with one ambient root of its fiber.

    It comes as a 0-based row and bit of ``_inversion_rows``: (i, j) for eᵢ−eⱼ,
    (i, j′) for eᵢ+eⱼ, (i, i′) for eᵢ or 2eᵢ; an embedding inverts whole fibers.
    """
    degree = ambient_degree(family, n)
    for gamma in bc_positive_roots(family, n):
        j = gamma.j if gamma.kind == DIFF else mirror_index(degree, gamma.j or gamma.i)
        yield gamma, gamma.i - 1, j - 1


def _first_in_root_order(family: str, n: int, faults: list[int]) -> tuple[BCRoot, int, int]:
    """The first root of :func:`bc_positive_roots` whose representative bit is flagged.

    The order is read off ``faults`` one row per root kind, with the bits of
    :func:`_representatives`: eᵢ−eⱼ (j = i+1..n) at bits i..n−1 of row i−1,
    lowest first; eᵢ+eⱼ at bits degree−j, highest first; eᵢ or 2eᵢ at bit
    degree−i.  Only the named root is built.
    """
    degree = ambient_degree(family, n)
    for i in range(1, n + 1):
        hit = faults[i - 1] & ((1 << n) - (1 << i))
        if hit:
            j = (hit & -hit).bit_length()
            return BCRoot(n, family, DIFF, i, j), i - 1, j - 1
    for i in range(1, n + 1):
        hit = faults[i - 1] & ((1 << (degree - i)) - (1 << (degree - n)))
        if hit:
            bit = hit.bit_length() - 1
            return BCRoot(n, family, SUM, i, degree - bit), i - 1, bit
    i = next(i for i in range(1, n + 1) if faults[i - 1] >> (degree - i) & 1)
    gamma = BCRoot(n, family, SHORT, i) if family == TYPE_B else BCRoot(n, family, SUM, i, i)
    return gamma, i - 1, degree - i


def bc_inversion_set(sigma: SignedPermutation, family: str) -> frozenset[BCRoot]:
    """The positive roots sent negative: the embedding's inversions, one per fiber.

    >>> sorted(str(r) for r in bc_inversion_set(SignedPermutation((-1,)), "B"))
    ['e1']
    >>> sorted(str(r) for r in bc_inversion_set(SignedPermutation((-1, 2)), "C"))
    ['2e1', 'e1+e2', 'e1-e2']
    """
    rows = _inversion_rows(_embed(sigma, family))
    representatives = _representatives(family, sigma.n)
    return frozenset(gamma for gamma, i, j in representatives if rows[i] >> j & 1)


def bc_inversion_count(sigma: SignedPermutation, family: str) -> int:
    """The size of :func:`bc_inversion_set`, counted on the embedding.

    The embedding inverts whole fibers: two ambient roots per long root
    eᵢ±eⱼ, and per root eᵢ (type B) three, per 2eᵢ (type C) one.  Those
    last are inverted exactly at the k negative entries, so the count is
    (inv − k)/2 in type B and (inv + k)/2 in type C.

    >>> bc_inversion_count(SignedPermutation((-1, 2)), "C")
    3
    """
    negatives = sum(v < 0 for v in sigma.images)
    sign = -1 if _check_family(family) == TYPE_B else 1
    return (inversion_count(_embed(sigma, family)) + sign * negatives) // 2


def verify_bc_decomposition(
    family: str, sigmas: Iterable[SignedPermutation], allow_identity: bool = True
) -> VerifyResult:
    """Check that the B/C inversion sets of ``sigmas`` partition the positive system.

    Diagnostics name the first root covered twice, else the first root not
    covered, in :func:`bc_positive_roots` order; with ``allow_identity``
    false an identity part is also rejected.  Ranks must agree.  The row scan
    of type A runs on the embeddings, which invert whole fibers, and a fault
    is named from the flagged rows (see :func:`_first_in_root_order`).

    >>> verify_bc_decomposition("B", [SignedPermutation((-1,))]).detail
    'valid decomposition of the rank-1 type-B positive system'
    >>> verify_bc_decomposition("B", [SignedPermutation((-1,))] * 2).detail
    'root e1 covered by parts 1 and 2'
    """
    _check_family(family)
    sigmas = list(sigmas)
    if not sigmas:
        raise ValueError("at least one signed permutation is required")
    ranks = {sigma.n for sigma in sigmas}
    if len(ranks) > 1:
        raise ValueError(f"rank mismatch: {sorted(ranks)}")
    (n,) = ranks
    embeddings = [_embed(sigma, family) for sigma in sigmas]
    first = partial(_first_in_root_order, family, n)
    fault = _cover_fault(embeddings, ambient_degree(family, n), allow_identity, first)
    valid = f"valid decomposition of the rank-{n} type-{family} positive system"
    return VerifyResult(not fault, fault or valid)


def bc_is_simple(sigma: SignedPermutation, family: str) -> bool:
    """Simplicity of a signed permutation: block structure of its embedding.

    >>> bc_is_simple(SignedPermutation((-1,)), "B")
    False
    >>> bc_is_simple(SignedPermutation((2, -1)), "B")
    True
    """
    _check_family(family)
    return is_simple(_embed(sigma, family))


# ---------------------------------------------------------------------------
# symmetric inflation


def _conjugate_by_longest(part: Perm) -> Perm:
    w0 = longest(len(part))
    return compose(w0, compose(part, w0))


def symmetric_inflate(
    family: str,
    skeleton: SignedPermutation,
    a_parts: Iterable[Perm],
    center_part: SignedPermutation | None = None,
) -> SignedPermutation:
    """Inflate a symmetric skeleton symmetrically and pull back to a signed permutation.

    The embedded rank-s skeleton has 2s+1 intervals (B) or 2s (C).  The
    first s intervals take ``a_parts``; the mirrored interval of slot t
    takes the longest-conjugate of slot t's part, and type B's center takes
    the embedding of ``center_part`` (trivial center when omitted).  The
    result is the signed permutation whose embedding is that inflation.

    >>> sym = symmetric_inflate("B", SignedPermutation((-1,)), [(1, 2)])
    >>> sym.images
    (-2, -1)
    >>> embed_B(sym)
    (4, 5, 3, 1, 2)
    """
    _check_family(family)
    parts = [check_permutation(p) for p in a_parts]
    if len(parts) != skeleton.n:
        raise ValueError(
            f"expected {skeleton.n} parts for a rank-{skeleton.n} skeleton,"
            f" got {len(parts)}"
        )
    if family == TYPE_C and center_part is not None:
        raise ValueError("type C has no center interval")
    mirrored = [_conjugate_by_longest(p) for p in reversed(parts)]
    if family == TYPE_B:
        center = (1,) if center_part is None else embed_B(center_part)
        slots = [*parts, center, *mirrored]
    else:
        slots = [*parts, *mirrored]
    return from_symmetric(family, inflate(_embed(skeleton, family), slots))


# ---------------------------------------------------------------------------
# parsing


def parse_signed_permutation(text: str) -> SignedPermutation:
    """Parse space- or comma-separated signed integers like ``"-2 1"``.

    >>> parse_signed_permutation("-2 1")
    SignedPermutation(images=(-2, 1))
    """
    pieces = text.replace(",", " ").split()
    if not pieces:
        raise ValueError("empty signed permutation")
    try:
        images = tuple(int(piece) for piece in pieces)
    except ValueError:
        raise ValueError(f"cannot parse signed permutation from {text!r}") from None
    return SignedPermutation(images)
