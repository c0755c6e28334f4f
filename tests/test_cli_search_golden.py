"""Byte-stability of the degree-7 and degree-8 enumerations.

``golden/search_digests.json`` holds the exit code and the SHA-256 digests
of stdout and stderr for the four enumerations of the benchmark's ``search``
workload.  They take 2-3 s together, so they sit apart from
``test_cli_golden.py``.  A change meant to alter these outputs records the file
again and shows the new digests in its diff::

    PYTHONPATH=src python tests/test_cli_search_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

from test_cli_golden import _call

GOLDEN = Path(__file__).parent / "golden" / "search_digests.json"

SEARCH_CALLS = [
    ["enumerate", "--n", "7", "--parts", "3", "--allow-identity", "--format", "csv"],
    ["enumerate", "--n", "7", "--parts", "4", "--allow-identity"],
    ["enumerate", "--n", "7", "--irreducible", "--format", "json"],
    ["enumerate", "--n", "8", "--maximal"],
]


def test_search_outputs_match_the_recorded_digests():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [entry["argv"] for entry in expected] == SEARCH_CALLS
    mismatched = [
        entry["argv"] for entry in expected if _call(entry["argv"]) != entry
    ]
    assert not mismatched, mismatched


if __name__ == "__main__":
    lines = ",\n".join(json.dumps(_call(argv)) for argv in SEARCH_CALLS)
    GOLDEN.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
