"""The rootdec benchmark: one workload, one seed, one timed run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload search|series|faces|all --seed N \
        --seconds S --trace 0|1

With ``--trace 0`` each invocation is a fresh ``python -m rootdec.cli``
subprocess (``src`` on the path), run one at a time in a closed loop from this
single client.  Whole batches run until the next one would end after
``--seconds`` (at least two batches run); every output is checked after the
timed batches.  The run prints the end-to-end metrics, one per line, and as its
last line one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 1`` the same batch runs in-process through ``rootdec.cli.main``
in worker processes (``tracer.py``), once plain and once with the layer tracer,
and the run reports the per-layer metrics, including the tracing overhead.

Each run also writes its full record (commit, machine, per-invocation
failures) to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3  # set-up samples per batch, and before the first
MIN_BATCHES = 2
MIB = 1024.0  # ru_maxrss is in KiB on Linux

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
}


def child_env() -> dict[str, str]:
    """The caller's environment, with ``src`` on the path and bytecode caching on.

    An installed package runs from cached bytecode, so children may write
    ``src/rootdec/__pycache__`` whatever the caller's PYTHONDONTWRITEBYTECODE.
    """
    env = dict(os.environ, PYTHONIOENCODING="utf-8")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], env: dict[str, str]) -> tuple[int, bytes, bytes, float, float, int]:
    """Run one child to completion: (exit code, stdout, stderr, seconds, cpu seconds, maxrss KiB)."""
    out_path, err_path = OUT / "child.stdout", OUT / "child.stderr"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    elapsed = time.perf_counter() - start
    return (
        os.waitstatus_to_exitcode(status),
        out_path.read_bytes(),
        err_path.read_bytes(),
        elapsed,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss,
    )


def measure_setup(env: dict[str, str], repeats: int) -> list[float]:
    """Times of a fresh interpreter plus ``import rootdec.cli``."""
    times = []
    for _ in range(repeats):
        code, _, err, elapsed, _, _ = spawn(["-c", "import rootdec.cli"], env)
        if code != 0:
            raise RuntimeError(f"import rootdec.cli failed: {err.decode('utf-8', 'replace')[-500:]}")
        times.append(elapsed)
    return times


def percentile(values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def run_batches(batch: list[wl.Invocation], seconds: float, env: dict[str, str]):
    """Whole batches until the next would end past the deadline; at least two.

    With a floor of two, op_p90_s reads the same invocation kind whatever the
    machine speed: on search's five calls a single batch would make it the
    slowest call, two make it the faster of the two slowest.  Set-up is timed
    a few times before the first batch and after each one, so that its
    samples spread over the run like the batches do.  The first import,
    which writes the bytecode cache, is not timed.
    """
    measure_setup(env, 1)
    setup = measure_setup(env, SETUP_REPEATS)
    batches = []
    start = time.perf_counter()
    while True:
        batch_start = time.perf_counter()
        results = [spawn(["-m", "rootdec.cli", *inv.argv], env) for inv in batch]
        batches.append((time.perf_counter() - batch_start, results))
        setup += measure_setup(env, SETUP_REPEATS)
        elapsed = time.perf_counter() - start
        if len(batches) >= MIN_BATCHES and elapsed + elapsed / len(batches) > seconds:
            return setup, batches


def check(inv: wl.Invocation, code: int, out: bytes, err: bytes) -> str | None:
    return wl.verdict(inv, code, out.decode("utf-8", "replace"), err.decode("utf-8", "replace"))


def untraced_run(batch, probes, seconds: float) -> tuple[dict, dict]:
    env = child_env()
    setup, batches = run_batches(batch, seconds, env)
    latencies, failures = [], []
    for _, results in batches:
        for inv, (code, out, err, elapsed, _, _) in zip(batch, results):
            latencies.append(elapsed)
            reason = check(inv, code, out, err)
            if reason:
                failures.append({"argv": inv.label(), "reason": reason})
    known = []
    for inv in probes:
        code, out, err, _, _, _ = spawn(["-m", "rootdec.cli", *inv.argv], env)
        reason = check(inv, code, out, err)
        known.append({"argv": inv.label(), "defect": inv.known_defect, "still_fails": bool(reason), "reason": reason})
    p90, beyond = percentile(latencies, 0.9)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(wall for wall, _ in batches),
        "op_p50_s": statistics.median(latencies),
        "op_p90_s": p90,
        "cpu_s": statistics.median(sum(r[4] for r in results) for _, results in batches),
        "peak_rss_mb": statistics.median(max(r[5] for r in results) / MIB for _, results in batches),
    }
    detail = {
        "batches": len(batches),
        "batch_wall_s": [wall for wall, _ in batches],
        "invocations": len(latencies),
        "op_p90_samples_beyond": beyond,
        "fail_rate": len(failures) / len(latencies),
        "failures": failures,
        "known_defects": known,
        "setup_samples_s": setup,
    }
    return metrics, detail


def worker_pass(argvs: list[list[str]], traced: bool, spans: Path | None) -> dict:
    job = {"src": str(SRC), "argvs": argvs, "trace": traced, "spans": str(spans) if spans else None}
    done = subprocess.run(
        [sys.executable, str(HERE / "tracer.py")],
        input=json.dumps(job).encode("utf-8"),
        env=child_env(),
        capture_output=True,
        check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"trace worker failed: {done.stderr.decode('utf-8', 'replace')[-2000:]}")
    return json.loads(done.stdout)


def traced_run(workload: str, batch, seconds: float) -> tuple[dict, dict]:
    """Plain and traced in-process passes, in fresh workers, until the deadline."""
    argvs = [list(inv.argv) for inv in batch]
    pairs, failures = [], []
    start = time.perf_counter()
    while True:
        plain = worker_pass(argvs, False, None)
        traced = worker_pass(argvs, True, OUT / f"spans-{workload}.tsv.gz")
        pairs.append((plain, traced))
        for inv, p, t in zip(batch, plain["results"], traced["results"]):
            for code, out, err in (p, t):
                reason = wl.verdict(inv, code, out, err)
                if reason:
                    failures.append({"argv": inv.label(), "reason": reason})
            if p[0] != t[0] or wl.normalize(inv.argv, p[1]) != wl.normalize(inv.argv, t[1]):
                failures.append({"argv": inv.label(), "reason": "traced and plain outputs differ"})
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(pairs) > seconds:
            break
    metrics = {
        name: statistics.median(t["metrics"][name] for _, t in pairs)
        for name in pairs[0][1]["metrics"]
    }
    metrics["trace.overhead_s"] = statistics.median(t["wall_s"] - p["wall_s"] for p, t in pairs)
    detail = {
        "pairs": len(pairs),
        "invocations": 2 * len(pairs) * len(batch),
        "plain_wall_s": [p["wall_s"] for p, _ in pairs],
        "traced_wall_s": [t["wall_s"] for _, t in pairs],
        "spans": pairs[-1][1]["spans"],
        "failures": failures,
    }
    return metrics, detail


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("pass_ratio"):
        return "ratio"
    return "count"


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=False
        )
    except OSError:  # no git on this machine
        return None
    return done.stdout.strip() or None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "rootdec").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    with open(HERE / "expected.json", encoding="utf-8") as handle:
        expected = json.load(handle)
    ref.check_recorded(expected)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "commit": commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_start": list(os.getloadavg()),
    }
    batch, probes = wl.build(workload, seed, expected)
    if trace:
        metrics, detail = traced_run(workload, batch, seconds)
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        metrics, detail = untraced_run(batch, probes, seconds)
        units = END_TO_END_UNITS
    record.update(detail)
    failed = len(detail["failures"])
    result = {
        "correct": failed == 0,
        "attempted": detail["invocations"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record["result"] = result
    with open(OUT / f"{workload}-seed{seed}-trace{int(trace)}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    for name, value in metrics.items():
        print(f"{workload} {name} {value:.6g} {units[name]}")
    if not trace:
        print(f"{workload} fail_rate {detail['fail_rate']:.6g} ratio"
              f" ({failed} of {detail['invocations']} invocations)")
        print(f"{workload} op_p90_s from {detail['invocations']} samples,"
              f" {detail['op_p90_samples_beyond']} beyond it")
        for probe in detail["known_defects"]:
            state = "still fails" if probe["still_fails"] else "now passes"
            print(f"{workload} known defect {state}: {probe['argv']} ({probe['reason'] or 'ok'})")
    for failure in detail["failures"][:20]:
        print(f"{workload} FAILED {failure['argv']}: {failure['reason']}")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*wl.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rootdec" / "cli.py").is_file():
        print(f"error: no rootdec sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_one(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
