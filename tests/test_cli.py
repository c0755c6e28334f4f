"""Command-line interface: flags, formats, exit codes."""

from __future__ import annotations

import contextlib
import csv
import errno
import io
import itertools
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootdec import cli, decompose, lrcone
from rootdec.cli import (
    MAX_RAYS_DEGREE,
    MAX_SERIES_ORDER,
    SERIES_BY_NAME,
    RunConfig,
    load_config_file,
    main,
)
from rootdec.decompose import FAMILIES
from test_cli_golden import _Digest, _random_triple

GOLDEN = Path(__file__).parent / "golden" / "rays_reference.csv"

TRIPLE = "5 3 4 8 1 2 6 7; 4 5 6 1 7 8 3 2; 1 3 2 4 6 5 7 8"


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# configuration


def test_run_config_defaults_and_validation():
    config = RunConfig()
    assert config.brute_force_bound == 8
    assert config.series_order == 40
    with pytest.raises(ValueError, match="positive"):
        RunConfig(brute_force_bound=0)
    with pytest.raises(ValueError, match="positive"):
        RunConfig(series_order=0)
    assert RunConfig(brute_force_bound=1).brute_force_bound == 1
    with pytest.raises(ValueError, match="at most 8, got 9"):
        RunConfig(brute_force_bound=9)


def test_load_config_file(tmp_path):
    path = tmp_path / "rootdec.conf"
    path.write_text("# comment\nbrute_force_bound = 6\n\nseries_order=12 # inline\n")
    assert load_config_file(str(path)) == {
        "brute_force_bound": 6,
        "series_order": 12,
    }


def test_load_config_file_rejects_bad_input(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text("unknown_key = 3\n")
    with pytest.raises(ValueError, match="unknown setting"):
        load_config_file(str(path))
    path.write_text("brute_force_bound\n")
    with pytest.raises(ValueError, match="key = value"):
        load_config_file(str(path))
    path.write_text("series_order = -2\n")
    with pytest.raises(ValueError, match="positive integer"):
        load_config_file(str(path))
    with pytest.raises(ValueError, match="cannot read"):
        load_config_file(str(tmp_path / "missing.conf"))


def test_config_values_are_the_digits_int_reads(capsys, tmp_path):
    # '²' is a digit that int() cannot read; '٣' is a decimal that it reads as 3
    path = tmp_path / "rootdec.conf"
    path.write_text("brute_force_bound = ²\n", encoding="utf-8")
    assert run(capsys, "--config", str(path), "enumerate", "--n", "3") == (
        2, "", f"error: {path}:1: brute_force_bound must be a positive integer, got '²'\n"
    )
    path.write_text("series_order = ٣\n", encoding="utf-8")
    assert load_config_file(str(path)) == {"series_order": 3}


def test_config_file_lowers_the_enumeration_bound(capsys, tmp_path):
    path = tmp_path / "rootdec.conf"
    path.write_text("brute_force_bound = 6\n")
    code, _, err = run(
        capsys, "--config", str(path), "enumerate", "--n", "7"
    )
    assert code == 1
    assert "exceeds the brute-force bound 6" in err


@pytest.mark.parametrize("bound", ["9", "99999999999999999999"])
def test_config_file_refuses_an_enumeration_bound_above_8(capsys, tmp_path, bound):
    # degree 12 with two parts would scan 479M permutations
    path = tmp_path / "rootdec.conf"
    path.write_text(f"brute_force_bound = {bound}\n")
    assert run(
        capsys, "--config", str(path), "enumerate", "--n", "12", "--parts", "2"
    ) == (2, "", f"error: brute_force_bound must be at most 8, got {bound}\n")


def test_config_file_sets_default_series_order(capsys, tmp_path):
    path = tmp_path / "rootdec.conf"
    path.write_text("series_order = 12\n")
    code, out, _ = run(capsys, "--config", str(path), "series", "--which", "B")
    assert code == 0
    assert out.splitlines()[-1] == "B n=12: 552096640341"


def test_no_command_is_a_usage_error(capsys):
    code, _, err = run(capsys)
    assert code == 2
    assert "command is required" in err


# ---------------------------------------------------------------------------
# verify


def test_verify_valid_triple(capsys):
    code, out, _ = run(capsys, "verify", "--perms", TRIPLE)
    assert code == 0
    assert "valid decomposition of the degree-8 positive system" in out
    assert "simple form (2,4,1,3)[(3,1,2),(1),(1,2),(1,2)]" in out
    assert out.count("part ") == 3


def test_verify_overlap_names_the_root(capsys):
    code, out, _ = run(capsys, "verify", "--perms", "2 1 3; 2 1 3")
    assert code == 1
    assert "root (1, 2) covered by parts 1 and 2" in out


def test_verify_rejects_malformed_and_mixed_input(capsys):
    code, _, err = run(capsys, "verify", "--perms", "2 1; banana")
    assert code == 2
    assert "cannot parse" in err
    code, _, err = run(capsys, "verify", "--perms", "2 1; 1 3 2")
    assert code == 2
    assert "share one degree" in err
    code, _, err = run(capsys, "verify", "--perms", " ; ")
    assert code == 2


def test_verify_strict_no_identity(capsys):
    code, out, _ = run(capsys, "verify", "--perms", "1 2; 2 1")
    assert code == 0
    code, out, _ = run(
        capsys, "verify", "--strict-no-identity", "--perms", "1 2; 2 1"
    )
    assert code == 1
    assert "part 1 is the identity" in out


def test_verify_type_b_single_part(capsys):
    code, out, _ = run(capsys, "verify", "--type", "B", "--perms", "-1")
    assert code == 0
    assert "valid decomposition of the rank-1 type-B positive system" in out


def test_verify_type_b_overlap_diagnostic(capsys):
    code, out, _ = run(capsys, "verify", "--type", "B", "--perms", "-1; -1")
    assert code == 1
    assert "root e1 covered by parts 1 and 2" in out


def test_verify_type_c_identity_padding(capsys):
    code, out, _ = run(capsys, "verify", "--type", "C", "--perms", "-1 -2; 1 2")
    assert code == 0
    code, out, _ = run(
        capsys, "verify", "--type", "C", "--strict-no-identity",
        "--perms", "-1 -2; 1 2",
    )
    assert code == 1
    assert "part 2 is the identity" in out


def test_verify_csv_report_round_trips(capsys):
    code, out, _ = run(capsys, "verify", "--format", "csv", "--perms", TRIPLE)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["part", "permutation", "inversions", "irreducible", "simple_form"]
    assert rows[1][1] == "5 3 4 8 1 2 6 7"
    assert rows[1][4] == "(2,4,1,3)[(3,1,2),(1),(1,2),(1,2)]"
    assert rows[-1][:2] == ["status", "valid"]


def test_verify_json_report(capsys):
    code, out, _ = run(capsys, "verify", "--format", "json", "--perms", TRIPLE)
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] is True
    assert payload["type"] == "A"
    assert len(payload["parts"]) == 3
    assert payload["parts"][2]["inversions"] == 2


# ---------------------------------------------------------------------------
# count


def test_count_triples_tables(capsys):
    code, out, _ = run(
        capsys, "count", "--family", "A_TRIPLES", "--max-n", "20", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines()[0] == "family,n,count"
    assert out.splitlines()[-1] == "A_TRIPLES,20,5327985147037232973"
    code, out, _ = run(capsys, "count", "--family", "BC_TRIPLES", "--max-n", "20")
    assert code == 0
    assert out.splitlines()[-1] == "BC_TRIPLES n=20: 2322044948865982864468235"


def test_count_simple_pairs(capsys):
    code, out, _ = run(
        capsys, "count", "--family", "SIMPLE_PAIRS_A", "--max-n", "5",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == "SIMPLE_PAIRS_A"
    assert payload["counts"] == [[1, 0], [2, 1], [3, 0], [4, 1], [5, 3]]


def test_count_csv_layout(capsys):
    assert run(
        capsys, "count", "--family", "A_IRREDUCIBLE", "--max-n", "3", "--format", "csv"
    ) == (
        0,
        "family,n,count\nA_IRREDUCIBLE,1,1\nA_IRREDUCIBLE,2,1\nA_IRREDUCIBLE,3,2\n",
        "",
    )


def test_count_bound_exceeded(capsys):
    code, _, err = run(capsys, "count", "--family", "A_TRIPLES", "--max-n", "65")
    assert code == 1
    assert "1..64" in err


def test_count_rejects_unknown_family(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["count", "--family", "NO_SUCH", "--max-n", "3"])
    assert excinfo.value.code == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# enumerate


def test_enumerate_documented_streams(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "4", "--maximal")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    assert lines[-1] == "count: 5"

    code, out, _ = run(capsys, "enumerate", "--n", "3", "--irreducible")
    assert out.splitlines() == [
        "1 3 2 | 3 1 2",
        "2 1 3 | 2 3 1",
        "count: 2",
    ]

    code, out, _ = run(
        capsys, "enumerate", "--n", "2", "--parts", "3", "--allow-identity"
    )
    assert out.splitlines() == ["1 2 | 1 2 | 2 1", "count: 1"]


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("--n", "1", "--parts", "0"), "\ncount: 1\n"),
        (("--n", "2", "--parts", "0"), "count: 0\n"),
        (("--n", "3", "--parts", "1"), "3 2 1\ncount: 1\n"),
        (
            ("--n", "3", "--irreducible", "--parts", "2", "--allow-identity"),
            "1 3 2 | 3 1 2\n2 1 3 | 2 3 1\ncount: 2\n",
        ),
    ],
)
def test_enumerate_small_part_counts_byte_for_byte(capsys, argv, expected):
    # zero, one and two parts: the searches that start inside the forced tail
    assert run(capsys, "enumerate", *argv) == (0, expected, "")


def test_enumerate_bound_and_usage_errors(capsys):
    code, _, err = run(capsys, "enumerate", "--n", "9")
    assert code == 1
    assert "brute-force bound 8" in err
    code, _, err = run(capsys, "enumerate", "--n", "4", "--maximal", "--parts", "2")
    assert code == 2
    code, _, err = run(capsys, "enumerate", "--n", "4", "--allow-identity")
    assert code == 2
    code, _, err = run(capsys, "enumerate", "--n", "4", "--parts", "-1")
    assert code == 2
    code, _, err = run(capsys, "enumerate", "--n", "0")
    assert code == 2


def test_enumerate_irreducible_is_built_without_a_search(capsys, count_calls):
    searches = count_calls(decompose, "exact_covers")
    code, out, _ = run(capsys, "enumerate", "--n", "7", "--irreducible")
    assert (code, out.splitlines()[-1], searches) == (0, "count: 717", [])
    # a fixed part count, padded or not, keeps the built listing's members
    code, out, _ = run(capsys, "enumerate", "--n", "5", "--irreducible", "--parts", "2")
    assert (code, out.splitlines()[-1], searches) == (0, "count: 3", [])
    argv = ["enumerate", "--n", "5", "--irreducible", "--parts", "3", "--allow-identity"]
    code, out, _ = run(capsys, *argv)
    assert (code, out.splitlines()[-1], searches) == (0, "count: 9", [])
    # --maximal is built from the (2 1) skeleton, with or without --irreducible
    code, out, _ = run(capsys, "enumerate", "--n", "5", "--irreducible", "--maximal")
    assert (code, out.splitlines()[-1], searches) == (0, "count: 14", [])
    code, out, _ = run(capsys, "enumerate", "--n", "5", "--maximal")
    assert (code, out.splitlines()[-1], searches) == (0, "count: 14", [])
    # the other listings coarsen the built ones, with or without --parts
    code, out, _ = run(capsys, "enumerate", "--n", "6")
    assert (code, out.splitlines()[-1], searches) == (0, "count: 1522", [])
    code, out, _ = run(capsys, "enumerate", "--n", "8", "--parts", "1")
    assert (code, out, searches) == (0, "8 7 6 5 4 3 2 1\ncount: 1\n", [])
    code, out, _ = run(capsys, "enumerate", "--n", "6", "--parts", "3", "--allow-identity")
    assert (code, out.splitlines()[-1], searches) == (0, "count: 1116", [])


def test_verify_builds_one_simple_form_per_part(capsys, count_calls):
    triple = _random_triple(random.Random(400), 400)
    forms = count_calls(cli, "simple_form")
    walks = count_calls(decompose, "is_simple")
    text = "; ".join(" ".join(map(str, part)) for part in triple)
    assert run(capsys, "verify", "--perms", text)[0] == 0
    assert [tuple(sigma) for sigma, in forms] == list(triple)
    # the embeddings of a random signed pair are simple, and building their
    # forms walks them: the irreducibility rule must not walk them again
    rng = random.Random(100)
    sigma = [v * rng.choice((1, -1)) for v in rng.sample(range(1, 101), 100)]
    pair = " ".join(map(str, sigma)) + "; " + " ".join(str(-v) for v in sigma)
    forms.clear()
    walks.clear()
    assert run(capsys, "verify", "--type", "B", "--perms", pair)[0] == 0
    assert ([len(embedding) for embedding, in forms], walks) == ([201, 201], [])


def test_part_report_irreducible_column_is_the_rule():
    # the report reads irreducibility off a simple skeleton's form and
    # asks the rule for every other part
    for n in range(1, 8):
        for sigma in itertools.permutations(range(1, n + 1)):
            row = cli._part_report(1, "", 0, sigma)
            assert row["irreducible"] == decompose.is_irreducible_structural(sigma), sigma


def test_enumerate_machine_formats(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--n", "4", "--maximal", "--format", "csv"
    )
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["index", "decomposition"]
    assert rows[-1] == ["count", "5"]
    assert len(rows) == 7

    code, out, _ = run(
        capsys, "enumerate", "--n", "4", "--maximal", "--format", "json"
    )
    payload = json.loads(out)
    assert payload["count"] == 5
    assert len(payload["decompositions"]) == 5


# ---------------------------------------------------------------------------
# rays


def test_rays_csv_matches_golden_file(capsys):
    code, out, _ = run(capsys, "rays", "--perms", TRIPLE)
    assert code == 0
    assert out == GOLDEN.read_text()


def test_rays_json(capsys):
    code, out, _ = run(capsys, "rays", "--perms", TRIPLE, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 8
    assert len(payload["rays"]) == 14
    assert len(payload["equations"]) == 7


def test_rays_small_triple(capsys):
    code, out, _ = run(capsys, "rays", "--perms", "2 1; 1 2; 1 2")
    assert code == 0
    assert out.splitlines() == ["a1,b1,c1", "1,1,0", "1,0,1"]


def test_rays_degree_one_has_no_coordinates(capsys):
    code, out, err = run(capsys, "rays", "--perms", "1;1;1")
    assert (code, out, err) == (0, "", "")
    code, out, err = run(capsys, "rays", "--perms", "1;1;1", "--format", "csv")
    assert (code, out, err) == (0, "", "")
    code, out, _ = run(capsys, "rays", "--perms", "1;1;1", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"n": 1, "free_order": [], "rays": [], "equations": []}
    # rays has no text format
    with pytest.raises(SystemExit) as exc:
        main(["rays", "--perms", "1;1;1", "--format", "text"])
    assert exc.value.code == 2


def test_rays_error_paths(capsys):
    code, out, err = run(capsys, "rays", "--perms", "2 1; 1 2")
    assert (code, out) == (2, "")
    assert "exactly 3" in err
    code, out, err = run(capsys, "rays", "--perms", "x; 1 2; 2 1")
    assert (code, out) == (2, "")
    for fmt in ("csv", "json"):
        code, out, err = run(capsys, "rays", "--perms", "2 1 3; 2 1 3; 1 2 3", "--format", fmt)
        assert (code, out) == (1, "")
        assert "do not partition" in err


def test_rays_json_at_the_degree_bound_streams_in_bounded_memory():
    rng = random.Random(MAX_RAYS_DEGREE)
    perms = "; ".join(" ".join(map(str, p)) for p in _random_triple(rng, MAX_RAYS_DEGREE))
    out = _Digest()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out):
            code = main(["rays", "--perms", perms, "--format", "json"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    # 54 MB of text, one ray at a time: the peak measured 2.7 MiB (Python
    # 3.11); building the whole payload and text at once took hundreds
    assert out.size > 50_000_000
    assert peak < 8 * 2**20


def _w0_id_id(n: int) -> str:
    ident = " ".join(map(str, range(1, n + 1)))
    return f"{' '.join(map(str, range(n, 0, -1)))}; {ident}; {ident}"


def _refuse_lrcone_work(monkeypatch):
    def fail(*triple):
        raise AssertionError("lrcone ran on a refused degree")

    monkeypatch.setattr(lrcone, "rays", fail)
    monkeypatch.setattr(lrcone, "rays_json", fail)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_rays_refuses_a_degree_above_the_bound(capsys, monkeypatch, fmt):
    _refuse_lrcone_work(monkeypatch)
    n = MAX_RAYS_DEGREE + 1
    code, out, err = run(capsys, "rays", "--perms", _w0_id_id(n), "--format", fmt)
    assert (code, out) == (1, "")
    assert err == f"error: degree {n} exceeds the rays bound {MAX_RAYS_DEGREE}\n"


def test_rays_bound_admits_its_own_degree(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_RAYS_DEGREE", 3)
    code, out, err = run(capsys, "rays", "--perms", _w0_id_id(3))
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "a1,a2,b1,b2,c1,c2"
    _refuse_lrcone_work(monkeypatch)
    code, out, err = run(capsys, "rays", "--perms", _w0_id_id(4))
    assert (code, out) == (1, "")
    assert err == "error: degree 4 exceeds the rays bound 3\n"


# ---------------------------------------------------------------------------
# simple-form


def test_simple_form_output(capsys):
    code, out, _ = run(capsys, "simple-form", "--perm", "5 3 4 8 1 2 6 7")
    assert code == 0
    assert out.strip() == "(2,4,1,3)[(3,1,2),(1),(1,2),(1,2)]"


def test_simple_form_json(capsys):
    code, out, _ = run(
        capsys, "simple-form", "--perm", "2 1", "--format", "json"
    )
    payload = json.loads(out)
    assert payload["skeleton_kind"] == "REVERSAL"
    assert payload["expression"] == "(2,1)[(1),(1)]"


def test_simple_form_errors(capsys):
    code, _, err = run(capsys, "simple-form", "--perm", "nope")
    assert code == 2
    code, _, err = run(capsys, "simple-form", "--perm", "1")
    assert code == 1


# ---------------------------------------------------------------------------
# series


def test_series_frozen_values(capsys):
    code, out, _ = run(capsys, "series", "--which", "A", "--order", "10")
    assert code == 0
    assert out.splitlines()[-1] == "A n=10: 504706"

    code, out, _ = run(
        capsys, "series", "--which", "CATB", "--order", "3", "--format", "csv"
    )
    assert out.splitlines() == [
        "series,n,coefficient",
        "CATB,0,1",
        "CATB,1,1",
        "CATB,2,3",
        "CATB,3,9",
    ]

    code, out, _ = run(capsys, "series", "--which", "CATALAN", "--order", "5")
    assert [line.split()[-1] for line in out.splitlines()] == [
        "1", "1", "2", "5", "14", "42",
    ]


def test_series_json_and_errors(capsys):
    code, out, _ = run(
        capsys, "series", "--which", "SB", "--order", "9", "--format", "json"
    )
    payload = json.loads(out)
    assert payload["coefficients"][-1] == [9, 55995486]
    code, _, err = run(capsys, "series", "--which", "A", "--order", "-1")
    assert code == 2


@pytest.mark.parametrize("which", [*SERIES_BY_NAME, "CATALAN"])
def test_series_order_above_the_bound_is_a_usage_error(capsys, tmp_path, which):
    too_high = str(MAX_SERIES_ORDER + 1)
    code, out, err = run(capsys, "series", "--which", which, "--order", too_high)
    assert (code, out) == (2, "")
    assert err == f"error: --order must be at most {MAX_SERIES_ORDER}\n"
    path = tmp_path / "rootdec.conf"
    path.write_text(f"series_order = {too_high}\n")
    code, out, err = run(capsys, "--config", str(path), "series", "--which", which)
    assert (code, out) == (2, "")
    assert err == f"error: --order must be at most {MAX_SERIES_ORDER}\n"


@pytest.mark.parametrize(
    "which, order",
    [(which, order) for which in ("F", "G", "SA", "SB", "B") for order in (0, 1)]
    + [("A", 0), ("CATB", 0)],
)
def test_series_below_minimum_order_is_a_domain_error(capsys, which, order):
    code, out, err = run(capsys, "series", "--which", which, "--order", str(order))
    assert code == 1
    assert out == ""
    assert err.startswith("error: order must be at least")
    assert err.count("\n") == 1


# ---------------------------------------------------------------------------
# the exit-code contract under random argument vectors


PERM_POOL = st.sampled_from(
    (
        "", ";", "1;1;1", "1 1", "0", "x", "1,2", "2 1", "1 3 2; 3 1 2",
        "2 1; 1 2; 1 2", "2 1 3; 2 1 3; 1 2 3", "-1", "-1; -1", "1 -2",
        "-1 -2; 1 2", "-2 1; 2 -1", "-3 2 1; 3 -2 -1", TRIPLE,
    )
)
FUZZ_VALUES = {
    "--type": st.sampled_from(("A", "B", "C", "D")),
    "--perms": PERM_POOL,
    "--perm": PERM_POOL,
    "--family": st.sampled_from((*FAMILIES, "NO_SUCH")),
    "--which": st.sampled_from((*SERIES_BY_NAME, "CATALAN", "Z")),
    "--format": st.sampled_from(("text", "csv", "json", "xml")),
    **{
        flag: st.integers(min_value=-2, max_value=12).map(str)
        for flag in ("--max-n", "--n", "--parts", "--order")
    },
}
COMMAND_FLAGS = {
    "verify": ("--type", "--perms", "--strict-no-identity", "--format"),
    "count": ("--family", "--max-n", "--format"),
    "enumerate": ("--n", "--parts", "--maximal", "--irreducible", "--allow-identity", "--format"),
    "rays": ("--perms", "--format"),
    "simple-form": ("--perm", "--format"),
    "series": ("--which", "--order", "--format"),
    "bogus": (),
}
ALL_FLAGS = sorted({flag for flags in COMMAND_FLAGS.values() for flag in flags})


@st.composite
def argument_vectors(draw):
    command = draw(st.sampled_from(tuple(COMMAND_FLAGS)))
    # each of the command's own flags or not, and now and then any other flag
    names = [name for name in COMMAND_FLAGS[command] if draw(st.booleans())]
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        names.append(draw(st.sampled_from(ALL_FLAGS)))
    argv = [command]
    for name in draw(st.permutations(names)):
        argv.append(name)
        if name in FUZZ_VALUES:
            argv.append(draw(FUZZ_VALUES[name]))
    return argv


@pytest.fixture(scope="module")
def small_bound_config(tmp_path_factory):
    # degree 7 and 8 enumerations take seconds; the fuzz reaches n >= 7
    # only through the bound check
    path = tmp_path_factory.mktemp("fuzz") / "rootdec.conf"
    path.write_text("brute_force_bound = 6\n")
    return str(path)


@given(argv=argument_vectors())
@settings(max_examples=300, deadline=None)
def test_random_argv_keeps_the_exit_code_contract(small_bound_config, argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(["--config", small_bound_config, *argv])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


# ---------------------------------------------------------------------------
# a stdout that cannot be written


class _FailingStdout:
    def __init__(self, error: OSError) -> None:
        self.error = error

    def write(self, text: str) -> int:
        raise self.error

    def flush(self) -> None:
        pass


@pytest.mark.parametrize("number", [errno.EPIPE, errno.ENOSPC])
@pytest.mark.parametrize("argv", [["rays", "--perms", TRIPLE], ["series", "--which", "F"]])
def test_a_failed_write_ends_with_one_error_line(number, argv):
    error = OSError(number, os.strerror(number))  # BrokenPipeError for EPIPE
    err = io.StringIO()
    with contextlib.redirect_stdout(_FailingStdout(error)), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 1
    assert err.getvalue() == f"error: cannot write output: {os.strerror(number)}\n"


def _rootdec(*argv: str, **kwargs) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "rootdec.cli", *argv], stderr=subprocess.PIPE, text=True, **kwargs
    )


def test_a_reader_that_leaves_early_gets_one_error_line():
    # 1.9 MB of csv overfills the pipe, so the writer is still writing when
    # the reader closes its end after one line
    perms = "; ".join(" ".join(map(str, p)) for p in _random_triple(random.Random(400), 400))
    child = _rootdec("rays", "--perms", perms, stdout=subprocess.PIPE)
    assert child.stdout.readline().startswith("a1,a2,")
    child.stdout.close()
    err = child.stderr.read()
    assert child.wait(timeout=60) == 1
    assert err == "error: cannot write output: Broken pipe\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_full_device_gets_one_error_line():
    with open("/dev/full", "w") as full:
        child = _rootdec("rays", "--perms", TRIPLE, stdout=full)
        err = child.stderr.read()
    assert child.wait(timeout=60) == 1
    assert err == "error: cannot write output: No space left on device\n"


# ---------------------------------------------------------------------------
# determinism and the installed entry point


def test_identical_invocations_are_byte_identical(capsys):
    first = run(capsys, "rays", "--perms", TRIPLE, "--format", "json")
    second = run(capsys, "rays", "--perms", TRIPLE, "--format", "json")
    assert first == second
    third = run(capsys, "count", "--family", "BC_IRREDUCIBLE", "--max-n", "9",
                "--format", "csv")
    fourth = run(capsys, "count", "--family", "BC_IRREDUCIBLE", "--max-n", "9",
                 "--format", "csv")
    assert third == fourth


def test_module_execution_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "rootdec.cli", "series", "--which", "F", "--order", "4"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.splitlines()[-1] == "F n=4: 24"


@pytest.mark.parametrize(
    "argv, code, line_start",
    [
        (["enumerate", "--n", "9"], 1, "error: degree 9 exceeds the brute-force bound 8"),
        (
            ["--config", "{config}", "enumerate", "--n", "12", "--parts", "2"],
            2,
            "error: brute_force_bound must be at most 8, got 99999999999999999999",
        ),
        (
            ["count", "--family", "NO_SUCH", "--max-n", "3"],
            2,
            "rootdec count: error: argument --family: invalid choice",
        ),
    ],
)
def test_module_execution_prints_one_error_line(tmp_path, argv, code, line_start):
    # exit 0 is test_module_execution_entry_point's call
    config = tmp_path / "rootdec.conf"
    config.write_text("brute_force_bound = 99999999999999999999\n")
    result = subprocess.run(
        [sys.executable, "-m", "rootdec.cli", *(a.format(config=config) for a in argv)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (result.returncode, result.stdout) == (code, "")
    assert result.stderr.count("error:") == 1
    assert "Traceback" not in result.stderr
    assert result.stderr.splitlines()[-1].startswith(line_start)
