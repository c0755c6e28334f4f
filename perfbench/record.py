"""Record the expected outputs of the benchmark's fixed invocations.

Run from the repository root, at the commit whose outputs are the reference::

    python3 perfbench/record.py

It writes ``perfbench/expected.json``: the stdout digest and result count of
each enumeration, every series' coefficients through the highest order the
benchmark asks for, and each family's counts through n = 64.  The series and
count tables are cross-checked against each other before anything is written.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import reference as ref
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SERIES = ("G", "SA", "A", "SB", "B", "CATB", "F")
SERIES_RECORD_ORDER = 90


def cli(*argv: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONIOENCODING="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "rootdec.cli", *argv],
        capture_output=True, env=env, cwd=ROOT, check=True,
    )
    return done.stdout.decode("utf-8")


def main() -> int:
    record: dict = {"enumerate": {}, "series": {}, "count": {}}
    for argv in wl.ENUMERATIONS:
        out = cli(*argv)
        record["enumerate"][" ".join(argv)] = {"sha256": wl.sha256(out)}
    for name in SERIES:
        out = json.loads(cli("series", "--which", name, "--order", str(SERIES_RECORD_ORDER), "--format", "json"))
        record["series"][name] = [c for _, c in out["coefficients"]]
    for family in wl.FAMILIES:
        out = json.loads(cli("count", "--family", family, "--max-n", str(wl.COUNT_MAX_N), "--format", "json"))
        record["count"][family] = [c for _, c in out["counts"]]
    # truncation must not change a coefficient, so lower orders are prefixes
    for name, order in wl.SERIES_ORDERS.items():
        out = json.loads(cli("series", "--which", name, "--order", str(order), "--format", "json"))
        if [c for _, c in out["coefficients"]] != record["series"][name][: order + 1]:
            raise SystemExit(f"series {name} at order {order} is not a prefix of order {SERIES_RECORD_ORDER}")
    ref.check_recorded(record)
    path = Path(__file__).with_name("expected.json")
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
