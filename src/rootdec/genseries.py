"""Exact-integer truncated power series and the counting identities.

Everything here is big-integer arithmetic on truncated formal power series:
no floating point, no rounding.  Operations that could produce fractions
(halving, square roots, reciprocals, functional inversion) assert exactness
instead of rounding, so a misuse surfaces as an error rather than a wrong
coefficient.

The named series tie the package's counting problems together:

* ``series_F`` - factorials: permutations by degree.
* ``series_G`` - the functional inverse of F.
* ``simple_pairs_A`` - mirror pairs {p, reverse(p)} of simple permutations.
* ``series_A`` - decompositions of the full type-A positive system into
  irreducible inversion sets, by degree.
* ``series_SB`` / ``series_B`` - the analogous simple counts and
  decomposition counts for the type-B/C positive systems.
* ``series_CatB`` / ``catalan`` - maximal decompositions (one simple root
  per part) for types B/C and A respectively.

All series keep index = exponent; ``IntSeries(order, coeffs)`` stores
coefficients 0..order inclusive.  Binary operations truncate to the smaller
operand order rather than ever padding with fabricated zeros.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable

__all__ = [
    "IntSeries",
    "add",
    "sub",
    "mul",
    "scale",
    "divide_exact",
    "truncate",
    "reciprocal",
    "compose",
    "functional_inverse",
    "sqrt",
    "series_F",
    "series_G",
    "simple_pairs_A",
    "series_A",
    "series_SB",
    "series_B",
    "series_CatB",
    "catalan",
]


@dataclass(frozen=True)
class IntSeries:
    """A truncated power series with exact integer coefficients.

    ``coeffs[n]`` is the coefficient of the n-th power; ``len(coeffs)`` is
    always ``order + 1``.
    """

    order: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.order < 0:
            raise ValueError(f"order must be nonnegative, got {self.order}")
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if len(self.coeffs) != self.order + 1:
            raise ValueError(
                f"order {self.order} needs {self.order + 1} coefficients,"
                f" got {len(self.coeffs)}"
            )
        for c in self.coeffs:
            if not isinstance(c, int) or isinstance(c, bool):
                raise ValueError(f"non-integer coefficient {c!r}")

    @classmethod
    def from_coeffs(cls, order: int, leading: Iterable[int]) -> IntSeries:
        """Build a series from its lowest coefficients, zero-padded to ``order``."""
        coeffs = list(leading)
        if len(coeffs) > order + 1:
            raise ValueError(f"{len(coeffs)} coefficients exceed order {order}")
        coeffs.extend(0 for _ in range(order + 1 - len(coeffs)))
        return cls(order, tuple(coeffs))

    def __getitem__(self, n: int) -> int:
        return self.coeffs[n]


def truncate(f: IntSeries, order: int) -> IntSeries:
    """Drop coefficients above ``order`` (which must not exceed f's order)."""
    if order > f.order:
        raise ValueError(f"cannot extend order {f.order} to {order}")
    return IntSeries(order, f.coeffs[: order + 1])


def _aligned(f: IntSeries, g: IntSeries) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    order = min(f.order, g.order)
    return order, f.coeffs[: order + 1], g.coeffs[: order + 1]


def _dot(a: Iterable[int], b: Iterable[int]) -> int:
    """Sum of the pairwise products of a and b, stopping at the shorter one."""
    return sum(map(operator.mul, a, b))


def add(f: IntSeries, g: IntSeries) -> IntSeries:
    order, fc, gc = _aligned(f, g)
    return IntSeries(order, tuple(a + b for a, b in zip(fc, gc)))


def sub(f: IntSeries, g: IntSeries) -> IntSeries:
    order, fc, gc = _aligned(f, g)
    return IntSeries(order, tuple(a - b for a, b in zip(fc, gc)))


def mul(f: IntSeries, g: IntSeries) -> IntSeries:
    order, fc, gc = _aligned(f, g)
    reverse = gc[::-1]
    return IntSeries(order, tuple(_dot(fc, reverse[order - n :]) for n in range(order + 1)))


def scale(f: IntSeries, factor: int) -> IntSeries:
    return IntSeries(f.order, tuple(factor * c for c in f.coeffs))


def divide_exact(f: IntSeries, divisor: int) -> IntSeries:
    """Divide every coefficient, asserting exactness (never rounding)."""
    out = []
    for n, c in enumerate(f.coeffs):
        q, r = divmod(c, divisor)
        assert r == 0, f"coefficient {c} at index {n} is not divisible by {divisor}"
        out.append(q)
    return IntSeries(f.order, tuple(out))


def reciprocal(f: IntSeries) -> IntSeries:
    """The series r with f * r = 1; needs constant term 1 or -1 to stay integral.

    >>> r = reciprocal(IntSeries.from_coeffs(4, [1, -1]))
    >>> r.coeffs
    (1, 1, 1, 1, 1)
    """
    c0 = f.coeffs[0]
    if c0 not in (1, -1):
        raise ValueError(f"reciprocal needs constant term 1 or -1, got {c0}")
    out = [c0] + [0] * f.order
    for n in range(1, f.order + 1):
        out[n] = -c0 * _dot(f.coeffs[n:0:-1], out)
    return IntSeries(f.order, tuple(out))


def compose(f: IntSeries, g: IntSeries) -> IntSeries:
    """Substitute ``g`` into ``f``; ``g`` must have zero constant term.

    Paterson-Stockmeyer: with s = isqrt(order + 1), f splits into blocks of
    s coefficients, each block is summed against the powers g^0..g^(s-1) by
    scalars alone, and Horner's rule runs over the blocks in g^s.  That is
    s - 1 series products for the powers plus one per block after the
    first, about 2 sqrt(order) where Horner in g makes ``order``.

    >>> f = IntSeries.from_coeffs(3, [7, 1])
    >>> compose(f, IntSeries.from_coeffs(3, [0])).coeffs
    (7, 0, 0, 0)
    """
    if g.coeffs[0] != 0:
        raise ValueError(f"composition needs g(0) = 0, got {g.coeffs[0]}")
    order = min(f.order, g.order)
    coeffs = f.coeffs[: order + 1]
    step = math.isqrt(order + 1)
    powers = [IntSeries.from_coeffs(order, [1]), truncate(g, order)]
    while len(powers) <= step:
        powers.append(mul(powers[-1], powers[1]))
    columns = list(zip(*(p.coeffs for p in powers[:step])))
    blocks = [
        IntSeries(order, tuple(_dot(coeffs[i : i + step], column) for column in columns))
        for i in range(0, order + 1, step)
    ]
    acc = blocks.pop()
    while blocks:
        acc = add(mul(acc, powers[step]), blocks.pop())
    return acc


def _solve_by_powers(
    outer: tuple[int, ...], n_max: int, first: int, sign: int
) -> tuple[int, ...]:
    """Coefficients 0..n_max of g = first * x + sign * sum_{m>=2} outer[m] g^m.

    Keeps the table ``powers[m][j] = [x^j] g^m`` and fills it one column j
    at a time.  For m >= 2, ``[x^n] g^m = sum_k g_k [x^(n-k)] g^(m-1)``
    only reads g_1..g_(n-1), so column n is known before g_n is, and g_n
    is then forced.  Each column costs O(n^2) products, O(n_max^3) in all.
    """
    g = [0] * (n_max + 1)
    g[1] = first
    powers = [[], g] + [[0] * (n_max + 1) for _ in range(2, n_max + 1)]  # g^0 unused
    for n in range(2, n_max + 1):
        for m in range(2, n + 1):
            # g^(m-1) vanishes below x^(m-1), so k stops at n - m + 1
            powers[m][n] = _dot(g[1 : n - m + 2], powers[m - 1][n - 1 : m - 2 : -1])
        g[n] = sign * _dot(outer[2 : n + 1], (powers[m][n] for m in range(2, n + 1)))
    return tuple(g)


def functional_inverse(f: IntSeries) -> IntSeries:
    """The series g with f(g(x)) = x, for f(0) = 0 and f'(0) = +/-1.

    Solved coefficient by coefficient on a growing table of the powers g^m:
    with g known below index n, the n-th coefficient of f(g) is
    f'(0) * g_n + sum over m >= 2 of f_m [x^n] g^m, and the powers' n-th
    coefficients use only g_1..g_(n-1).  So g_n = -f'(0) * (that sum) is
    forced, and integral because f'(0) is a unit.  The result is checked
    by substituting it back into f.

    >>> functional_inverse(IntSeries.from_coeffs(4, [0, 1, 1])).coeffs
    (0, 1, -1, 2, -5)
    """
    if f.coeffs[0] != 0:
        raise ValueError("functional inverse needs f(0) = 0")
    if f.order < 1 or f.coeffs[1] not in (1, -1):
        raise ValueError("functional inverse needs f'(0) = 1 or -1")
    unit = f.coeffs[1]
    result = IntSeries(f.order, _solve_by_powers(f.coeffs, f.order, unit, -unit))
    assert compose(f, result).coeffs == IntSeries.from_coeffs(f.order, [0, 1]).coeffs
    return result


def sqrt(f: IntSeries) -> IntSeries:
    """The series y with y * y = f and y(0) = 1; needs f(0) = 1.

    Each coefficient is forced by 2 * y_n = f_n - (cross terms); the halving
    is asserted exact.

    >>> sqrt(IntSeries.from_coeffs(4, [1, -4])).coeffs
    (1, -2, -2, -4, -10)
    """
    if f.coeffs[0] != 1:
        raise ValueError(f"sqrt needs constant term 1, got {f.coeffs[0]}")
    y = [1] + [0] * f.order
    for n in range(1, f.order + 1):
        num = f.coeffs[n] - _dot(y[1:n], y[n - 1 : 0 : -1])
        assert num % 2 == 0, f"sqrt parity failure at index {n}"
        y[n] = num // 2
    return IntSeries(f.order, tuple(y))


# ---------------------------------------------------------------------------
# named series


def series_F(n_max: int) -> IntSeries:
    """Factorials: the number of permutations of each degree (constant term 0)."""
    if n_max < 2:
        raise ValueError(f"order must be at least 2, got {n_max}")
    return IntSeries(n_max, tuple(0 if n == 0 else math.factorial(n) for n in range(n_max + 1)))


def series_G(n_max: int) -> IntSeries:
    """The functional inverse of :func:`series_F`."""
    return functional_inverse(series_F(n_max))


def simple_pairs_A(n_max: int) -> IntSeries:
    """Mirror pairs of simple permutations, by degree.

    A pair is {p, reverse-order of p} with p simple; the two members are
    distinct for every degree >= 2.  Low terms: one pair at degree 2, none
    at degree 3, one at degree 4, three at degree 5.  For degree >= 3 the
    count is -g_n / 2 - (-1)^n in terms of the inverse-factorial series,
    whose coefficients are always even there.

    >>> simple_pairs_A(6).coeffs
    (0, 0, 1, 0, 1, 3, 23)
    """
    return _simple_pairs(series_G(n_max))


def _simple_pairs(g: IntSeries) -> IntSeries:
    """:func:`simple_pairs_A` read off the inverse-factorial series ``g``."""
    n_max = g.order
    s = [0] * (n_max + 1)
    if n_max >= 2:
        s[2] = 1
    for n in range(3, n_max + 1):
        assert g.coeffs[n] % 2 == 0, f"odd inverse coefficient at index {n}"
        s[n] = -g.coeffs[n] // 2 - (-1) ** n
    return IntSeries(n_max, tuple(s))


def series_A(n_max: int) -> IntSeries:
    """Decompositions of the degree-n type-A positive system into irreducibles.

    The count a_n of ways to write the full positive system on n letters as
    a disjoint union of irreducible nonempty inversion sets (unordered, any
    number of parts; degree 1 carries the single empty decomposition).  The
    series is the unique solution of A = x + S(A) with A(0) = 0, where S is
    :func:`simple_pairs_A`.  It is solved on a growing table of the powers
    A^m: since S has no terms below index 2, the n-th coefficient of S(A)
    needs only a_1..a_(n-1), so a_n = sum over m >= 2 of s_m [x^n] A^m is
    forced by the earlier coefficients.

    >>> series_A(6).coeffs
    (0, 1, 1, 2, 6, 23, 114)
    """
    if n_max < 1:
        raise ValueError(f"order must be at least 1, got {n_max}")
    return _series_A(series_G(max(n_max, 2)), n_max)


def _series_A(g: IntSeries, n_max: int) -> IntSeries:
    """:func:`series_A` to ``n_max`` from the inverse-factorial series ``g``."""
    return IntSeries(n_max, _solve_by_powers(_simple_pairs(g).coeffs, n_max, 1, 1))


def series_SB(n_max: int) -> IntSeries:
    """Symmetric simple signed-permutation embeddings, by rank.

    Counts the *elements* (both members of each mirror pair) among symmetric
    permutations whose embedding is simple.  Defined through its composition
    with the factorial series:

        (this series)(F(x)) = 1 - 1/(1 + F(2x)) - 2 F(x)/(1 + F(x))

    and recovered by substituting the inverse series G.

    >>> series_SB(4).coeffs
    (0, 0, 2, 10, 90)
    """
    if n_max < 2:
        raise ValueError(f"order must be at least 2, got {n_max}")
    return _series_SB(series_G(n_max))


def _series_SB(g: IntSeries) -> IntSeries:
    """:func:`series_SB` from the inverse-factorial series ``g``."""
    n_max = g.order
    f = series_F(n_max)
    f_doubled = IntSeries(
        n_max, tuple(c * (1 << n) for n, c in enumerate(f.coeffs))
    )
    one = IntSeries.from_coeffs(n_max, [1])
    rhs_of_x = sub(
        sub(one, reciprocal(add(one, f_doubled))),
        mul(scale(f, 2), reciprocal(add(one, f))),
    )
    return compose(rhs_of_x, g)


def series_B(n_max: int) -> IntSeries:
    """Decompositions of the rank-n type-B/C positive system into irreducibles.

    With A the type-A decomposition series and S the symmetric-simple series
    (which counts both members of each mirror pair, hence the exact halving),
    the count is X/(1 - X) for X = A + S(A)/2.

    >>> series_B(5).coeffs
    (0, 1, 3, 14, 100, 973)
    """
    if n_max < 2:
        raise ValueError(f"order must be at least 2, got {n_max}")
    g = series_G(n_max)
    a = _series_A(g, n_max)
    sb = _series_SB(g)
    x = add(a, divide_exact(compose(sb, a), 2))
    one = IntSeries.from_coeffs(n_max, [1])
    return mul(x, reciprocal(sub(one, x)))


def series_CatB(n_max: int) -> IntSeries:
    """Maximal decompositions of the type-B/C positive system, by rank.

    Equals 1/(sqrt(1 - 4x) + x), constant term 1 included.

    >>> series_CatB(3).coeffs
    (1, 1, 3, 9)
    """
    if n_max < 1:
        raise ValueError(f"order must be at least 1, got {n_max}")
    radical = sqrt(IntSeries.from_coeffs(n_max, [1, -4]))
    return reciprocal(add(radical, IntSeries.from_coeffs(n_max, [0, 1])))


def catalan(n: int) -> int:
    """The n-th Catalan number (2n choose n)/(n + 1).

    Counts the maximal decompositions of the type-A positive system on n + 1
    letters, among much else.

    >>> [catalan(n) for n in range(6)]
    [1, 1, 2, 5, 14, 42]
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    numerator = math.comb(2 * n, n)
    assert numerator % (n + 1) == 0
    return numerator // (n + 1)
