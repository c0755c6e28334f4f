"""Face equations, pivot elimination, and generating rays."""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootdec import decompose, lrcone, permcore
from rootdec.decompose import enumerate_decompositions, verify_decomposition
from rootdec.lrcone import (
    SIDES,
    FaceEquation,
    FaceVariable,
    RayMatrix,
    build_equations,
    eliminate,
    integer_rank,
    rays,
    rays_json,
    special_roots,
)
from rootdec.permcore import complement_decomposition, compose, identity, longest
from test_cli_golden import _random_triple

W1 = (5, 3, 4, 8, 1, 2, 6, 7)
W2 = (4, 5, 6, 1, 7, 8, 3, 2)
W3 = (1, 3, 2, 4, 6, 5, 7, 8)

GOLDEN = Path(__file__).parent / "golden" / "rays_reference.csv"


def a(k):
    return FaceVariable("A", k)


def b(k):
    return FaceVariable("B", k)


def c(k):
    return FaceVariable("C", k)


# ---------------------------------------------------------------------------
# containers


def test_face_variable_ordering_and_rendering():
    assert str(b(5)) == "b5"
    assert a(7) < b(1) < b(4) < c(1)
    assert sorted([c(2), a(1), b(3)]) == [a(1), b(3), c(2)]


def test_face_variable_validation():
    with pytest.raises(ValueError, match="side"):
        FaceVariable("D", 1)
    with pytest.raises(ValueError, match="positive"):
        FaceVariable("A", 0)


def test_face_equation_rendering_groups_multiplicities():
    assert str(FaceEquation((1, 2), a(1), (b(1), c(1)))) == "a1 = b1 + c1"
    assert str(FaceEquation((1, 2), a(2), (b(1), b(1), b(1)))) == "a2 = 3*b1"
    assert str(FaceEquation((1, 2), a(1), ())) == "a1 = 0"


def test_face_equation_validation():
    with pytest.raises(ValueError, match="own right-hand side"):
        FaceEquation((1, 2), a(1), (a(1), b(1)))
    with pytest.raises(ValueError, match="i < j"):
        FaceEquation((2, 2), a(1), (b(1),))


def test_ray_matrix_validation():
    good = RayMatrix(n=2, free=(1, 2), pivots={0: {1: 1, 2: 1}})
    assert good.column_order() == (a(1), b(1), c(1))
    assert good.rows == ((1, 1, 0), (1, 0, 1))
    assert RayMatrix(n=1, free=(), pivots={}).rows == ()
    with pytest.raises(ValueError, match="positive"):
        RayMatrix(n=0, free=(), pivots={})
    shape = "expected 2 ascending free columns and 1 pivot columns, naming each of the 3"
    for free, pivots in [
        ((1,), {0: {1: 1}}),  # too few free columns
        ((1, 2), {0: {1: 1}, 3: {}}),  # too many pivots
        ((2, 1), {0: {1: 1}}),  # not ascending
        ((1, 1), {0: {1: 1}}),  # repeated
        ((1, 3), {0: {1: 1}}),  # outside the columns
        ((0, 1), {0: {1: 1}}),  # free and pivot at once
    ]:
        with pytest.raises(ValueError, match=shape):
            RayMatrix(n=2, free=free, pivots=pivots)
    with pytest.raises(ValueError, match="needs positive free entries, got {0: 1}"):
        RayMatrix(n=2, free=(1, 2), pivots={0: {0: 1}})
    with pytest.raises(ValueError, match="needs positive free entries, got {1: 1, 2: -1}"):
        RayMatrix(n=2, free=(1, 2), pivots={0: {1: 1, 2: -1}})


# ---------------------------------------------------------------------------
# special roots


def test_special_roots_degree_eight():
    assert special_roots(W1, W2, W3) == (
        (1, 3),
        (1, 7),
        (2, 3),
        (2, 6),
        (4, 8),
        (5, 6),
        (7, 8),
    )


def test_special_roots_small_cases():
    assert special_roots((2, 1), identity(2), identity(2)) == ((1, 2),)
    assert special_roots((3, 2, 1), identity(3), identity(3)) == ((1, 2), (2, 3))


def test_special_roots_rejects_non_decompositions():
    with pytest.raises(ValueError, match="do not partition"):
        special_roots((2, 1, 3), (2, 1, 3), (1, 2, 3))
    with pytest.raises(ValueError, match="degree"):
        special_roots((2, 1), (1, 2, 3), (1, 2))


# ---------------------------------------------------------------------------
# equations


def test_equations_degree_eight_match_hand_derivation():
    by_root = {eq.source_root: str(eq) for eq in build_equations(W1, W2, W3)}
    assert by_root == {
        (2, 6): "a2 = b5 + b6 + b7 + c3 + c4",
        (4, 8): "a7 = b1 + c4 + c5 + c6 + c7",
        (1, 7): "b3 = a5 + c1 + c2 + c3 + c4 + c5 + c6",
        (1, 3): "a4 = b4 + b5 + c1",
        (5, 6): "c5 = a1 + b7",
        (7, 8): "b2 = a6 + c7",
        (2, 3): "c2 = a3 + b5",
    }


def test_equations_small_cases():
    assert [str(eq) for eq in build_equations((2, 1), identity(2), identity(2))] == [
        "a1 = b1 + c1"
    ]
    assert [
        str(eq) for eq in build_equations((3, 2, 1), identity(3), identity(3))
    ] == ["a2 = b1 + c1", "a1 = b2 + c2"]


def test_equation_sides_track_the_owning_part():
    eqs = build_equations(identity(2), (2, 1), identity(2))
    assert [str(eq) for eq in eqs] == ["b1 = a1 + c1"]


# ---------------------------------------------------------------------------
# elimination


def test_eliminate_is_identity_on_clean_systems():
    eqs = build_equations((3, 2, 1), identity(3), identity(3))
    assert eliminate(eqs) == eqs


def test_eliminate_degree_eight_substitutions():
    solved = {eq.pivot: str(eq) for eq in eliminate(build_equations(W1, W2, W3))}
    assert solved[b(3)] == "b3 = a1 + a3 + a5 + b5 + b7 + c1 + c3 + c4 + c6"
    assert solved[a(7)] == "a7 = a1 + b1 + b7 + c4 + c6 + c7"
    # the other five right-hand sides contained no pivots to begin with
    assert solved[a(2)] == "a2 = b5 + b6 + b7 + c3 + c4"
    assert solved[a(4)] == "a4 = b4 + b5 + c1"
    assert solved[c(5)] == "c5 = a1 + b7"
    assert solved[b(2)] == "b2 = a6 + c7"
    assert solved[c(2)] == "c2 = a3 + b5"


def test_eliminate_accumulates_multiplicities():
    eqs = (
        FaceEquation((1, 2), a(1), (a(2), b(1))),
        FaceEquation((2, 3), a(2), (b(1), c(1))),
    )
    solved = eliminate(eqs)
    assert str(solved[0]) == "a1 = 2*b1 + c1"
    assert solved[0].rhs == (b(1), b(1), c(1))


def test_eliminate_detects_cycles():
    eqs = (
        FaceEquation((1, 2), a(1), (a(2),)),
        FaceEquation((2, 3), a(2), (a(1),)),
    )
    with pytest.raises(ValueError, match="cycle"):
        eliminate(eqs)


def test_eliminate_rejects_duplicate_pivots():
    eqs = (
        FaceEquation((1, 2), a(1), (b(1),)),
        FaceEquation((2, 3), a(1), (c(1),)),
    )
    with pytest.raises(ValueError, match="duplicate pivot"):
        eliminate(eqs)


# ---------------------------------------------------------------------------
# rays


def test_rays_degree_eight_matches_golden_file():
    matrix = rays(W1, W2, W3)
    columns = matrix.column_order()
    assert [str(columns[k]) for k in matrix.free] == [
        "a1", "a3", "a5", "a6",
        "b1", "b4", "b5", "b6", "b7",
        "c1", "c3", "c4", "c6", "c7",
    ]
    assert matrix.to_csv() == GOLDEN.read_text()


def test_rays_row_for_tenth_free_coordinate():
    # the b3 entry is forced to 1: the defining balance equation
    # b3 = a5 + c1 + c2 + c3 + c4 + c5 + c6 evaluates to exactly the c1 value
    matrix = rays(W1, W2, W3)
    assert str(matrix.column_order()[matrix.free[9]]) == "c1"
    assert matrix.rows[9] == (
        0, 0, 0, 1, 0, 0, 0,
        0, 0, 1, 0, 0, 0, 0,
        1, 0, 0, 0, 0, 0, 0,
    )


def test_rays_smallest_cases():
    assert rays((2, 1), identity(2), identity(2)).rows == ((1, 1, 0), (1, 0, 1))
    assert rays(identity(1), identity(1), identity(1)).rows == ()
    matrix = rays((3, 2, 1), identity(3), identity(3))
    assert matrix.rows == (
        (0, 1, 1, 0, 0, 0),
        (1, 0, 0, 1, 0, 0),
        (0, 1, 0, 0, 1, 0),
        (1, 0, 0, 0, 0, 1),
    )


def test_rays_csv_shape():
    text = rays(W1, W2, W3).to_csv()
    lines = text.splitlines()
    assert lines[0].split(",") == [
        f"{side}{k}" for side in "abc" for k in range(1, 8)
    ]
    assert len(lines) == 15
    assert all(len(line.split(",")) == 21 for line in lines[1:])
    assert text.endswith("\n")


def test_rays_json_round_trip():
    first = "".join(rays_json(W1, W2, W3))
    assert first == "".join(rays_json(W1, W2, W3))
    payload = json.loads(first)
    assert payload["n"] == 8
    assert payload["free_order"][9] == "c1"
    assert payload["rays"] == [list(row) for row in rays(W1, W2, W3).rows]
    assert "a2 = b5 + b6 + b7 + c3 + c4" in payload["equations"]
    assert len(payload["equations"]) == 7


@pytest.mark.parametrize("n", [1, 2, 3, 8, 40])
def test_rays_json_is_the_indented_dump_of_its_payload(n):
    triple = _random_triple(random.Random(n), n)
    text = "".join(rays_json(*triple))
    payload = json.loads(text)
    assert text == json.dumps(payload, indent=2) + "\n"
    assert payload["rays"] == [list(row) for row in rays(*triple).rows]
    assert payload["equations"] == [str(eq) for eq in build_equations(*triple)]


def test_rays_json_refuses_a_triple_before_any_text():
    with pytest.raises(ValueError, match="do not partition"):
        rays_json((2, 1, 3), (2, 1, 3), (1, 2, 3))


def _back_substituted_rows(n, equations):
    """The rays by dense back-substitution over the ray index.

    Each coordinate gets its list of values on the rays: a free coordinate
    its unit list, a pivot the entrywise sum of its right-hand side's lists
    once all of those are known.  Rows then read the lists across.
    """
    order = [FaceVariable(side, k) for side in SIDES for k in range(1, n)]
    rhs = {eq.pivot: eq.rhs for eq in equations}
    free = [var for var in order if var not in rhs]
    values = {var: [int(var == other) for other in free] for var in free}
    while len(values) < len(order):
        known = len(values)
        for pivot, terms in rhs.items():
            if pivot not in values and all(var in values for var in terms):
                values[pivot] = [
                    sum(values[var][r] for var in terms) for r in range(len(free))
                ]
        assert len(values) > known, "the pivot dependencies contain a cycle"
    return tuple(tuple(values[var][r] for var in order) for r in range(len(free)))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 40, 100, 200])
def test_rays_match_a_dense_back_substitution(n):
    for seed in range(3 if n < 100 else 1):
        triple = _random_triple(random.Random(f"{n}:{seed}"), n)
        expected = _back_substituted_rows(n, build_equations(*triple))
        assert rays(*triple).rows == expected


# ---------------------------------------------------------------------------
# work done per call


@pytest.fixture
def verify_calls(monkeypatch):
    """The degree of every verify_decomposition call lrcone makes during the test."""
    calls = []
    real_verify = lrcone.verify_decomposition

    def counting_verify(n, perms, allow_identity=True):
        calls.append(n)
        return real_verify(n, perms, allow_identity)

    monkeypatch.setattr(lrcone, "verify_decomposition", counting_verify)
    return calls


@pytest.mark.parametrize("function", [rays, rays_json, build_equations, special_roots])
def test_each_public_call_checks_the_triple_once(verify_calls, function):
    function(W1, W2, W3)
    assert verify_calls == [8]


def test_verify_builds_no_inversion_sets(monkeypatch):
    calls = []
    real_inversion_set = permcore.inversion_set

    def counting_inversion_set(sigma):
        calls.append(sigma)
        return real_inversion_set(sigma)

    monkeypatch.setattr(permcore, "inversion_set", counting_inversion_set)
    # decompose binds no root-set code that could build one
    for name in [
        "RootSubset",
        "inversion_set",
        "is_inversion_set",
        "permutation_from_inversion_set",
    ]:
        assert not hasattr(decompose, name), name
    sigma = tuple(random.Random(200).sample(range(1, 201), 200))
    triple = (*complement_decomposition(sigma), identity(200))
    assert verify_decomposition(200, triple).ok
    assert calls == []


# ---------------------------------------------------------------------------
# rank


def test_integer_rank_examples():
    assert integer_rank(()) == 0
    assert integer_rank(((0, 0), (0, 0))) == 0
    assert integer_rank(((2, 4), (1, 2))) == 1
    assert integer_rank(((1, 1, 0), (1, 0, 1), (0, 1, -1))) == 2
    assert integer_rank(rays(W1, W2, W3).rows) == 14


# ---------------------------------------------------------------------------
# exhaustive invariants over all triples of small degree


def _equations_hold(matrix: RayMatrix, equations) -> bool:
    column = {var: k for k, var in enumerate(matrix.column_order())}
    for row in matrix.rows:
        for eq in equations:
            if row[column[eq.pivot]] != sum(row[column[var]] for var in eq.rhs):
                return False
    return True


@pytest.mark.parametrize("n", range(2, 6))
def test_every_triple_yields_verified_rays(n):
    for dec in enumerate_decompositions(n, 3, allow_identity=True):
        for triple in set(itertools.permutations(dec.parts)):
            assert len(special_roots(*triple)) == n - 1
            matrix = rays(*triple)
            equations = build_equations(*triple)
            assert _equations_hold(matrix, equations)
            assert integer_rank(matrix.rows) == 2 * (n - 1)


def test_degree_six_triples_have_full_rank():
    for dec in enumerate_decompositions(6, 3, allow_identity=True):
        matrix = rays(*dec.parts)
        assert integer_rank(matrix.rows) == 10


def test_relabeling_the_triple_relabels_the_sides():
    base = rays(W1, W2, W3)
    base_column = {var: k for k, var in enumerate(base.column_order())}
    triple = (W1, W2, W3)
    for order in itertools.permutations(range(3)):
        matrix = rays(*(triple[t] for t in order))
        translated = set()
        for row in matrix.rows:
            relabeled = [0] * len(row)
            for var, k in (
                (var, k) for k, var in enumerate(matrix.column_order())
            ):
                original = FaceVariable(SIDES[order[SIDES.index(var.side)]], var.index)
                relabeled[base_column[original]] = row[k]
            translated.add(tuple(relabeled))
        assert translated == set(base.rows)


# ---------------------------------------------------------------------------
# randomized properties


@given(st.integers(min_value=2, max_value=7), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_complement_triples_always_produce_consistent_rays(n, rng):
    values = list(range(1, n + 1))
    rng.shuffle(values)
    sigma = tuple(values)
    triple = (sigma, compose(longest(n), sigma), identity(n))
    matrix = rays(*triple)
    assert _equations_hold(matrix, build_equations(*triple))
    assert integer_rank(matrix.rows) == 2 * (n - 1)
    assert all(entry >= 0 for row in matrix.rows for entry in row)
