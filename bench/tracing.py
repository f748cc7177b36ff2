"""Traced in-process run of a workload: self time, gc time and work per layer.

Run as a child of run.py:  python3 bench/tracing.py SPEC.json OUT.json

SPEC lists the workload's CLI argument vectors, the files holding the
output each must print, and the seconds to measure.  The child calls
memload.cli.main in this process, alternating traced and untraced passes
over the workload's invocations until the time is up, then writes the
medians to OUT.

Tracing wraps, from outside the program, every public memload function
the CLI module calls (the parse, normalize, measure and stats layers) and
the CLI's file read, with a span per call.  Spans nest: a layer's self time
is its spans' time minus the time of spans opened inside them, so the self
times of all layers, cli.main included, add up to the traced pass.  Time
spent in the cyclic garbage collector is charged to the innermost open
span through gc.callbacks.  Aggregates are kept in memory and written once
at the end.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import statistics
import sys
import time
import types
from collections import Counter
from pathlib import Path
from typing import Callable, Sequence

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from memload import cli  # noqa: E402

MIN_PASSES = 3
ROOT_LAYER = "cli.main"
READ_LAYER = "cli.read"

# Work counts taken from a layer's return value.
RESULT_COUNTS: dict[str, Callable[[object], dict[str, int]]] = {
    "treebank.parse_ptb_corpus": lambda trees: {"sentences": len(trees)},
    "treebank.parse_dep_corpus": lambda sentences: {
        "sentences": len(sentences),
        "units": sum(map(len, sentences)),
    },
    "depload.load_profile": lambda profile: {"units": len(profile)},
    "stackdepth.word_depths": lambda profile: {"units": len(profile)},
    "stackdepth.np_depths": lambda profile: {"units": len(profile)},
}
# Layers that report work they refuse by raising; the CLI skips the sentence.
RAISED_COUNT = {"treebank.normalize_tree": "skipped"}


def call_main(argv: Sequence[str]) -> tuple[int, str, str]:
    """Run memload's CLI in this process; returns exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def current_rss_mb() -> float:
    try:
        pages = int(Path("/proc/self/statm").read_text().split()[1])
    except OSError:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


class Layer:
    __slots__ = ("calls", "total", "child", "gc", "counts")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.child = 0.0
        self.gc = 0.0
        self.counts: Counter[str] = Counter()


class Tracer:
    def __init__(self) -> None:
        self.layers: dict[str, Layer] = {}
        self.parsed_rss_mb = 0.0
        self._stack: list[list] = []  # [layer, seconds of child spans]
        self._gc_start: float | None = None

    def layer(self, name: str) -> Layer:
        return self.layers.setdefault(name, Layer())

    def call(self, layer: Layer, fn: Callable, *args, **kwargs):
        frame = [layer, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            layer.calls += 1
            layer.total += elapsed
            layer.child += frame[1]
            if self._stack:
                self._stack[-1][1] += elapsed

    def on_gc(self, phase: str, info: dict) -> None:
        now = time.perf_counter()
        if phase == "start":
            self._gc_start = now
        elif self._gc_start is not None:
            if self._stack:
                self._stack[-1][0].gc += now - self._gc_start
            self._gc_start = None

    def wrap(self, name: str, fn: Callable) -> Callable:
        layer = self.layer(name)
        count = RESULT_COUNTS.get(name)
        raised = RAISED_COUNT.get(name, "raised")

        def traced(*args, **kwargs):
            on_error = kwargs.get("on_error")
            if on_error is not None:

                def counted(exc: Exception) -> None:
                    layer.counts["errors"] += 1
                    on_error(exc)

                kwargs["on_error"] = counted
            try:
                result = self.call(layer, fn, *args, **kwargs)
            except Exception:
                layer.counts[raised] += 1
                raise
            if count is not None:
                layer.counts.update(count(result))
            if name.startswith("treebank.parse_"):
                self.parsed_rss_mb = max(self.parsed_rss_mb, current_rss_mb())
            return result

        return traced

    def instrument(self) -> Callable[[], None]:
        """Wrap the CLI's calls into other memload modules; returns the undo."""
        originals = dict(vars(cli))
        for attr, obj in originals.items():
            if (
                isinstance(obj, types.FunctionType)
                and not attr.startswith("_")
                and obj.__module__.startswith("memload.")
                and obj.__module__ != cli.__name__
            ):
                layer = f"{obj.__module__.removeprefix('memload.')}.{obj.__name__}"
                setattr(cli, attr, self.wrap(layer, obj))
        tracer, read = self, self.layer(READ_LAYER)

        class TracedPath(type(Path())):  # type: ignore[misc]
            def read_text(self, *args, **kwargs):
                return tracer.call(read, super().read_text, *args, **kwargs)

        cli.Path = TracedPath
        gc.callbacks.append(self.on_gc)

        def undo() -> None:
            gc.callbacks.remove(self.on_gc)
            vars(cli).update(originals)

        return undo

    def snapshot(self) -> dict[str, float]:
        metrics: dict[str, float] = {"treebank.parsed_rss_mb": self.parsed_rss_mb}
        for name, layer in self.layers.items():
            metrics[f"{name}.calls"] = layer.calls
            metrics[f"{name}.s"] = layer.total - layer.child
            metrics[f"{name}.gc_s"] = layer.gc
            for key, value in layer.counts.items():
                metrics[f"{name}.{key}"] = value
        return metrics


def main(spec_path: str, out_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    argvs = spec["invocations"]
    expected = [(0, Path(o).read_text(), Path(e).read_text()) for o, e in spec["expected"]]
    attempted = failed = 0

    def one_pass(tracer: Tracer | None) -> float:
        nonlocal attempted, failed
        gc.collect()
        outputs = []
        start = time.perf_counter()
        for argv in argvs:
            if tracer is None:
                outputs.append(call_main(argv))
            else:
                outputs.append(tracer.call(tracer.layer(ROOT_LAYER), call_main, argv))
        elapsed = time.perf_counter() - start
        attempted += len(outputs)
        failed += sum(got != want for got, want in zip(outputs, expected))
        return elapsed

    one_pass(None)  # warm-up: imports, allocator arenas
    traced, untraced, snapshots, accounted, covered = [], [], [], [], []
    deadline = time.perf_counter() + spec["seconds"]
    while len(traced) < MIN_PASSES or time.perf_counter() < deadline:
        tracer = Tracer()
        undo = tracer.instrument()
        try:
            traced.append(one_pass(tracer))
        finally:
            undo()
        snapshots.append(tracer.snapshot())
        self_times = {n: layer.total - layer.child for n, layer in tracer.layers.items()}
        accounted.append(sum(self_times.values()) / traced[-1])
        covered.append(1 - self_times[ROOT_LAYER] / traced[-1])
        untraced.append(one_pass(None))

    keys = sorted({key for snap in snapshots for key in snap})
    result = {
        "attempted": attempted,
        "failed": failed,
        "passes": len(traced),
        "traced_s": statistics.median(traced),
        "untraced_s": statistics.median(untraced),
        "accounted_share": statistics.median(accounted),
        "covered_share": statistics.median(covered),
        "layers": {k: statistics.median(s.get(k, 0) for s in snapshots) for k in keys},
        "samples": {"traced_s": traced, "untraced_s": untraced},
    }
    Path(out_path).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
