"""Tests for the acceptance runner and its frozen verdicts.

The suite's two documented FAILs (criteria 2 and 7) are part of the
contract: these tests pin the verdict of every criterion, so a change
that silently "fixes" a documented discrepancy — or breaks a passing
criterion — shows up here.
"""

from __future__ import annotations

import io
from pathlib import Path

import pytest

from rootdec import acceptance, decompose
from rootdec.acceptance import (
    CRITERIA,
    EXPECTED_TRIPLES_A,
    EXPECTED_TRIPLES_BC,
    RAYS_GOLDEN_CSV,
    run_acceptance,
)

GOLDEN = Path(__file__).parent / "golden" / "rays_reference.csv"


@pytest.fixture(scope="module")
def verdicts() -> dict[int, tuple[bool, str]]:
    # run each criterion exactly once for the whole module
    return {number: check() for number, check in enumerate(CRITERIA, start=1)}


# ---------------------------------------------------------------------------
# frozen data


def test_golden_constant_matches_checked_in_file():
    assert RAYS_GOLDEN_CSV == GOLDEN.read_text()


def test_frozen_tables_have_the_documented_corners():
    assert len(EXPECTED_TRIPLES_A) == 20
    assert len(EXPECTED_TRIPLES_BC) == 20
    assert EXPECTED_TRIPLES_A[-1] == 5327985147037232973
    assert EXPECTED_TRIPLES_BC[-1] == 2322044948865982864468235


def test_brute_bc_counter_spot_check():
    # pin the acceptance brute counter to the structural values at rank 2
    # for both families
    assert acceptance._brute_bc_counts("B", 2) == (3, 3, 4)
    assert acceptance._brute_bc_counts("C", 2) == (3, 3, 4)


# ---------------------------------------------------------------------------
# per-criterion verdicts


@pytest.mark.parametrize("number", (1, 3, 4, 5, 6, 8))
def test_passing_criteria(verdicts, number):
    ok, detail = verdicts[number]
    assert ok, detail


def test_maximal_counts_are_read_off_the_irreducible_searches(count_calls):
    # two exact-cover searches per degree, 26 in criterion 4: irreducible
    # and triples at n <= 7 and per B/C family at n <= 3; no maximal search,
    # and none inside the listing, which criterion 4 no longer calls
    searches = count_calls(acceptance, "exact_covers")
    listings = count_calls(decompose, "exact_covers")
    assert acceptance.criterion_4()[0]
    assert (len(listings), len(searches)) == (0, 26)
    searches.clear()
    assert acceptance.criterion_8()[0]
    assert (len(listings), len(searches)) == (0, 6)


def test_criterion_2_fails_on_the_series_tail(verdicts):
    ok, detail = verdicts[2]
    assert not ok
    assert "50522914" in detail
    assert "50522912" in detail
    assert "S_A through z^5 matches" in detail
    assert "S_B through z^9 matches" in detail


def test_criterion_5_documents_the_corrected_cell(verdicts):
    _, detail = verdicts[5]
    assert "b3" in detail
    assert "byte-identical" in detail


def test_criterion_7_fails_on_the_literal_equivalence(verdicts):
    ok, detail = verdicts[7]
    assert not ok
    assert "117 counterexamples" in detail
    assert "(1, 3, 2, 4)" in detail
    assert "fixes 1 or n in place" in detail
    assert "holds exhaustively" in detail
    # the other four suites still pass and say so
    assert "the other four suites pass" in detail


# ---------------------------------------------------------------------------
# runner


def test_run_acceptance_output_shape():
    buffer = io.StringIO()
    code = run_acceptance(buffer)
    lines = buffer.getvalue().splitlines()
    assert code == 1
    assert len(lines) == len(CRITERIA) + 1
    for number, line in enumerate(lines[:-1], start=1):
        assert line.startswith(f"criterion {number}: ")
        assert " - " in line
    verdict_by_number = {
        number: line.split()[2] for number, line in enumerate(lines[:-1], start=1)
    }
    assert verdict_by_number[2] == "FAIL"
    assert verdict_by_number[7] == "FAIL"
    assert all(
        verdict_by_number[number] == "PASS" for number in (1, 3, 4, 5, 6, 8)
    )
    assert lines[-1] == "summary: 6/8 criteria passed, 2 failed"


def test_seed_check_flag_runs_the_suite(capsys):
    from rootdec.cli import main

    code = main(["--seed-check"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.endswith("summary: 6/8 criteria passed, 2 failed\n")
    prefixed = [line for line in out.splitlines() if line.startswith("criterion ")]
    assert len(prefixed) == len(CRITERIA)
