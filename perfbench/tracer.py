"""In-process runner for ``rootdec.cli.main`` with optional per-layer tracing.

The tracer wraps chosen public functions of the ``rootdec`` modules from the
outside.  A module that did ``from .permcore import inversion_set`` holds its
own binding, so every wrapper is patched into each module namespace (and into
module-level dicts such as ``cli.SERIES_BY_NAME``) that refers to the original,
and :meth:`Tracer.uninstall` puts every original back.

Spans live in memory as parallel arrays (invocation id, function, start, end,
parent) and are written out once, at the end.  A layer's self time is the sum
over its spans of the span's duration minus its direct children's durations;
calls are single-threaded, so children nest and never overlap.

Run as a script, this file is the worker of the benchmark's traced run: it
reads ``{"src": DIR, "argvs": [[...], ...], "trace": bool, "spans": PATH}`` as
JSON on stdin, runs every argv through ``rootdec.cli.main`` in this one
process, and prints one JSON object with each invocation's exit code, stdout
and stderr, the batch wall time, and (when tracing) the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import io
import json
import sys
import time
import traceback
from array import array

# Functions wrapped per module.  check_permutation and the search's nested
# ``descend`` stay unwrapped: they run per search node, and node-level counts
# belong to the program's own counters, not to this outside view.
TRACED: dict[str, tuple[str, ...]] = {
    "cli": ("main",),
    "acceptance": ("run_acceptance",),
    "decompose": (
        "enumerate_decompositions",
        "is_irreducible_structural",
        "count_structural",
        "verify_decomposition",
    ),
    "genseries": (
        "compose",
        "mul",
        "series_F",
        "series_G",
        "simple_pairs_A",
        "series_A",
        "series_SB",
        "series_B",
        "series_CatB",
        "catalan",
    ),
    "inflation": ("simple_form", "is_simple"),
    "permcore": ("inversion_set", "is_inversion_set", "permutation_from_inversion_set"),
    "bcgroups": (
        "bc_inversion_set",
        "bc_positive_roots",
        "embed_B",
        "embed_C",
        "parse_signed_permutation",
    ),
    "lrcone": ("rays", "rays_json", "build_equations", "eliminate"),
}
LAYERS = tuple(TRACED)

# Short metric names for the functions the per-layer table reports on.
SHORT_NAMES = {
    "decompose.enumerate_decompositions": "decompose.enumerate",
    "decompose.is_irreducible_structural": "decompose.irreducible",
    "decompose.count_structural": "decompose.count_structural",
    "decompose.verify_decomposition": "decompose.verify",
    "lrcone.eliminate": "lrcone.eliminate",
}
CALL_COUNTS = (
    "decompose.count_structural",
    "decompose.verify",
    "permcore.inversion_set",
    "permcore.is_inversion_set",
    "permcore.permutation_from_inversion_set",
    "inflation.simple_form",
    "inflation.is_simple",
    "genseries.compose",
    "genseries.mul",
    "bcgroups.bc_inversion_set",
)
SELF_TIMES = (
    "decompose.enumerate",
    "decompose.count_structural",
    "decompose.verify",
    "lrcone.eliminate",
)


class Tracer:
    """Records one span per call (per resume, for generators) of each wrapped function."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.invocation = 0
        self.span_invocation = array("l")
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.stack: list[int] = []
        self.calls: dict[str, int] = {}
        self.counters = {
            "decompose.enumerate.results": 0,
            "decompose.irreducible.true": 0,
            "genseries.mul.products": 0,
            "lrcone.equations": 0,
        }
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name_id: int) -> int:
        index = len(self.span_start)
        self.span_invocation.append(self.invocation)
        self.span_name.append(name_id)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_end.append(0.0)
        self.stack.append(index)
        self.span_start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.span_end[index] = time.perf_counter()
        self.stack.pop()

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, qualname: str, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        self.calls[qualname] = 0
        tally = self._tally(qualname)

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                self.calls[qualname] += 1
                inner = fn(*args, **kwargs)
                while True:
                    index = self._open(name_id)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(index)
                    if tally:
                        tally(args, item)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[qualname] += 1
            index = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if tally:
                tally(args, result)
            return result

        return wrapper

    def _tally(self, qualname: str):
        """Work counters computed from a call's arguments and result."""
        counters = self.counters

        def results(args, item):
            counters["decompose.enumerate.results"] += 1

        def irreducible(args, result):
            counters["decompose.irreducible.true"] += bool(result)

        def products(args, result):
            order = min(args[0].order, args[1].order)
            counters["genseries.mul.products"] += (order + 1) * (order + 2) // 2

        def equations(args, result):
            counters["lrcone.equations"] += len(tuple(args[0])) - 1

        return {
            "decompose.enumerate_decompositions": results,
            "decompose.is_irreducible_structural": irreducible,
            "genseries.mul": products,
            "lrcone.rays": equations,
        }.get(qualname)

    def install(self) -> None:
        """Wrap every function in TRACED and patch it into every namespace."""
        modules = [importlib.import_module(f"rootdec.{name}") for name in LAYERS]
        replacements: dict[int, object] = {}
        for module, layer in zip(modules, LAYERS):
            for attr in TRACED[layer]:
                original = getattr(module, attr)
                replacements[id(original)] = (
                    original,
                    self._wrap(f"{layer}.{attr}", original),
                )
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])
                elif isinstance(value, dict):
                    for key, entry in list(value.items()):
                        hit = replacements.get(id(entry))
                        if hit is not None and hit[0] is entry:
                            self._patched.append((value, key, entry))
                            value[key] = hit[1]

    def uninstall(self) -> None:
        """Put every original function back where it was found."""
        for owner, key, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per wrapped function, summed over all spans."""
        count = len(self.span_start)
        child = [0.0] * count
        for index in range(count):
            parent = self.span_parent[index]
            if parent >= 0:
                child[parent] += self.span_end[index] - self.span_start[index]
        totals = dict.fromkeys(self.names, 0.0)
        for index in range(count):
            name = self.names[self.span_name[index]]
            totals[name] += self.span_end[index] - self.span_start[index] - child[index]
        return totals

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of the benchmark (without trace.overhead_s)."""
        by_function = self.self_times()
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                t for name, t in by_function.items() if name.startswith(layer + ".")
            )
        calls = {SHORT_NAMES.get(k, k): v for k, v in self.calls.items()}
        own = {SHORT_NAMES.get(k, k): v for k, v in by_function.items()}
        for name in SELF_TIMES:
            out[f"{name}.self_s"] = own[name]
        for name in CALL_COUNTS:
            out[f"{name}.calls"] = calls[name]
        out["decompose.enumerate.results"] = self.counters["decompose.enumerate.results"]
        irreducible_calls = calls["decompose.irreducible"]
        out["decompose.irreducible.pass_ratio"] = (
            self.counters["decompose.irreducible.true"] / irreducible_calls
            if irreducible_calls
            else 0.0
        )
        out["genseries.mul.products"] = self.counters["genseries.mul.products"]
        out["lrcone.equations"] = self.counters["lrcone.equations"]
        return out

    def write_spans(self, path: str) -> None:
        """Write every span as a tab-separated line to a gzip file."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("invocation\tfunction\tstart_s\tend_s\tparent\n")
            for index in range(len(self.span_start)):
                handle.write(
                    f"{self.span_invocation[index]}\t{self.names[self.span_name[index]]}"
                    f"\t{self.span_start[index]:.9f}\t{self.span_end[index]:.9f}"
                    f"\t{self.span_parent[index]}\n"
                )


def call_main(main, argv: list[str]) -> tuple[int, str, str]:
    """Run ``main(argv)`` with captured streams; return (exit code, stdout, stderr).

    Mirrors the interpreter: ``SystemExit`` gives its code, and an uncaught
    exception prints a traceback and exits 1.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as stop:
            code = stop.code if isinstance(stop.code, int) else (0 if stop.code is None else 1)
        except Exception:  # the CLI's uncaught errors are what a failure check looks for
            traceback.print_exc()
            code = 1
    return (0 if code is None else code), out.getvalue(), err.getvalue()


def run_batch(argvs: list[list[str]], tracer: Tracer | None) -> dict:
    """Run each argv through ``rootdec.cli.main`` in this process."""
    for layer in LAYERS:  # lazy imports happen here, outside the timing
        importlib.import_module(f"rootdec.{layer}")
    import rootdec.cli

    if tracer is not None:
        tracer.install()
    results = []
    try:
        start = time.perf_counter()
        for number, argv in enumerate(argvs):
            if tracer is not None:
                tracer.invocation = number
            # looked up on each call, so the traced run reaches the wrapper
            results.append(call_main(rootdec.cli.main, argv))
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {"wall_s": wall, "results": results}


def _worker() -> int:
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])
    tracer = Tracer() if job["trace"] else None
    report = run_batch(job["argvs"], tracer)
    if tracer is not None:
        report["metrics"] = tracer.metrics()
        report["spans"] = len(tracer.span_start)
        if job.get("spans"):
            tracer.write_spans(job["spans"])
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(_worker())
