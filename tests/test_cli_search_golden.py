"""Byte-stability of the degree-7 and degree-8 enumerations.

``golden/search_digests.json`` holds the exit code and the SHA-256 digests
of stdout and stderr for the four enumerations of the benchmark's ``search``
workload and for its ``--seed-check`` call, whose timing figures are masked
first (``1.09s`` reads ``#s``, as in ``perfbench/workloads.normalize``).
They take 3-5 s together, so they sit apart from ``test_cli_golden.py``.
``golden/listing_digests.json`` does the same for the plain listings at
n = 7 (unrestricted, ``--parts 2..6`` and padded ``--parts 5|6``) and at
n = 8 with ``--parts 1|2|3``, which take seconds more, and for the
degree-8 irreducible listings with ``--parts 1..7`` and padded
``--parts 3``.  A change meant to alter these outputs records the files
again and shows the new digests in its diff::

    PYTHONPATH=src python tests/test_cli_search_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
from pathlib import Path

from test_cli_golden import _call

from rootdec.cli import main

GOLDEN = Path(__file__).parent / "golden"

SEARCH_CALLS = [
    ["enumerate", "--n", "7", "--parts", "3", "--allow-identity", "--format", "csv"],
    ["enumerate", "--n", "7", "--parts", "4", "--allow-identity"],
    ["enumerate", "--n", "7", "--irreducible", "--format", "json"],
    ["enumerate", "--n", "8", "--maximal"],
    ["--seed-check"],
]

LISTING_CALLS = [
    ["enumerate", "--n", "7"],
    *(["enumerate", "--n", "7", "--parts", str(r)] for r in range(2, 7)),
    *(["enumerate", "--n", "7", "--parts", r, "--allow-identity"] for r in ("5", "6")),
    *(["enumerate", "--n", "8", "--parts", str(r)] for r in range(1, 4)),
    *(["enumerate", "--n", "8", "--irreducible", "--parts", str(r)] for r in range(1, 8)),
    ["enumerate", "--n", "8", "--irreducible", "--parts", "3", "--allow-identity"],
]

FILES = {"search_digests.json": SEARCH_CALLS, "listing_digests.json": LISTING_CALLS}

_SECONDS = re.compile(r"\d+\.\d+s")


def _record(argv: list[str]) -> dict[str, object]:
    """``_call``'s record, with ``--seed-check``'s timing figures masked before digesting."""
    if "--seed-check" not in argv:
        return _call(argv)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    digests = [
        hashlib.sha256(text.encode("utf-8")).hexdigest()
        for text in (_SECONDS.sub("#s", out.getvalue()), err.getvalue())
    ]
    return {"argv": argv, "code": code, "stdout": digests[0], "stderr": digests[1]}


def _mismatched(name: str) -> list[list[str]]:
    expected = json.loads((GOLDEN / name).read_text(encoding="utf-8"))
    assert [entry["argv"] for entry in expected] == FILES[name]
    return [entry["argv"] for entry in expected if _record(entry["argv"]) != entry]


def test_search_outputs_match_the_recorded_digests():
    assert not _mismatched("search_digests.json")


def test_listing_outputs_match_the_recorded_digests():
    assert not _mismatched("listing_digests.json")


if __name__ == "__main__":
    for name, calls in FILES.items():
        lines = ",\n".join(json.dumps(_record(argv)) for argv in calls)
        (GOLDEN / name).write_text(f"[\n{lines}\n]\n", encoding="utf-8")
        print(f"wrote {GOLDEN / name}")
