"""memload benchmark: what one CLI run over a treebank costs, and where.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all ...   every workload in turn
    python3 bench/run.py --record             re-record refs/ptb-wsj.json
    python3 bench/selftest.py                 fast check of this harness
    python3 bench/compare.py OLD NEW          compare two result files/dirs

Run from anywhere inside a memload checkout; the benchmark needs the
checkout's src/ and tests/treegen.py and nothing installed.

Workloads (the corpus is generated from --seed, see workloads.py):
  ptb-wsj    WSJ-shaped bracketed trees through all four tree methods,
             --output text.  Exercises the whole PTB path, including the
             skip of trees that empty out; bypasses depload.
  dep-short  dependency sentences of 1-25 units, dep-load --output json.
             The reader dominates.
  dep-long   sentences of up to 200 units with the same total units,
             dep-load --output csv.  The quadratic load_profile grows.

With --trace 0, each invocation runs as a fresh `python -m memload`
child, one at a time, repeated until --seconds have passed:
  wall_s       median seconds of one workload run (its invocations summed)
  units_per_s  units measured per second of wall_s: the unit-histogram
               totals (words, NPs or dep units) summed over the run
  peak_rss_mb  largest ru_maxrss among the children
  setup_s      median seconds for a fresh interpreter to import memload.cli
               and build its parser, before any input is read
  failed_share failed invocations / invocations attempted; printed and
               given as the result's "failed"/"attempted", since a metric
               that is 0 when all is well has no relative spread
An invocation fails if it exits non-zero or if its stdout or stderr differs
from the expected bytes (see workloads.py and reference.py).

The two times are scaled to a reference machine speed, because a shared
machine's speed drifts by tens of percent within minutes: calibrate.py
runs just before every invocation, and the invocation's time is multiplied
by calibrate.REFERENCE_S over the calibration time just measured.  A
set-up sample is taken before each calibration and scaled by it.  The unscaled times are
printed next to them and kept in the result file.

With --trace 1, tracing.py runs the same invocations in one process with
spans around each layer and reports per-layer self time, gc time and work
counts, the share of the run the layers cover and the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics named in BENCHMARK.json.  The full result, with machine and
corpus fingerprints and every sample, goes to .bench_results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Sequence

import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REQUIRED = ("src/memload/cli.py", "tests/treegen.py", "BENCHMARK.json")
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"
WORKLOADS = ("ptb-wsj", "dep-short", "dep-long")

MIN_RUNS = 5
SETUP_CODE = """\
import time
start = time.perf_counter()
import memload.cli
memload.cli.build_parser()
print(time.perf_counter() - start)
"""


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    return env


def spawn(argv: Sequence[str], stdout: Path, stderr: Path) -> tuple[float, int, int]:
    """Run argv to completion; returns seconds, exit code and peak RSS in KiB."""
    files = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(stdout), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    env = child_env()
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], list(argv), env, file_actions=files)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    return time.perf_counter() - start, os.waitstatus_to_exitcode(status), usage.ru_maxrss


class Runner:
    """Times a workload's CLI invocations and checks what each one prints."""

    def __init__(self, corpus, work: Path) -> None:
        self.corpus = corpus
        self.work = work
        self.input = work / "corpus.txt"
        self.input.write_text(corpus.text)
        self.out, self.err = work / "stdout", work / "stderr"
        self.attempted = self.failed = 0

    def argv(self, invocation) -> list[str]:
        return ["--input", str(self.input), *invocation.args]

    def _child_seconds(self, argv: list[str], what: str) -> float:
        """Run a child that prints a number of seconds, and return it."""
        _, code, _ = spawn(argv, self.out, self.err)
        if code != 0:
            raise RuntimeError(f"{what} failed:\n{self.err.read_text()}")
        return float(self.out.read_text())

    def setup_seconds(self) -> float:
        return self._child_seconds([sys.executable, "-c", SETUP_CODE], "importing memload.cli")

    def speed(self) -> float:
        """How much faster than the reference this machine runs right now."""
        seconds = self._child_seconds([sys.executable, str(BENCH / "calibrate.py")], "calibration")
        return calibrate.REFERENCE_S / seconds

    def invoke(self, invocation) -> tuple[float, int]:
        """Run one CLI invocation and check its output; returns seconds and peak RSS in KiB."""
        argv = [sys.executable, "-m", "memload", *self.argv(invocation)]
        elapsed, code, rss = spawn(argv, self.out, self.err)
        self.attempted += 1
        got = (code, self.out.read_text(), self.err.read_text())
        self.failed += got != (0, invocation.stdout, invocation.stderr)
        return elapsed, rss

    def measure(self, seconds: float) -> dict:
        """Repeat workload runs for the given seconds, each invocation scaled by
        the machine speed calibrated just before it."""
        for invocation in self.corpus.invocations:  # warm-up: page cache, bytecode
            self.invoke(invocation)
        samples: dict[str, list[float]] = {
            key: [] for key in ("wall_s", "unscaled_wall_s", "setup_s", "unscaled_setup_s", "speed")
        }
        peak = 0
        deadline = time.perf_counter() + seconds
        while len(samples["wall_s"]) < MIN_RUNS or time.perf_counter() < deadline:
            wall = scaled = 0.0
            for invocation in self.corpus.invocations:
                setup = self.setup_seconds()
                speed = self.speed()
                samples["setup_s"].append(setup * speed)
                samples["unscaled_setup_s"].append(setup)
                elapsed, rss = self.invoke(invocation)
                wall += elapsed
                scaled += elapsed * speed
                peak = max(peak, rss)
                samples["speed"].append(speed)
            samples["wall_s"].append(scaled)
            samples["unscaled_wall_s"].append(wall)
        wall_s = statistics.median(samples["wall_s"])
        return {
            "metrics": {
                "wall_s": wall_s,
                "units_per_s": self.corpus.measured_units / wall_s,
                "peak_rss_mb": peak / 1024,
                "setup_s": statistics.median(samples["setup_s"]),
            },
            "samples": samples,
        }

    def trace(self, seconds: float) -> dict:
        expected = []
        for i, invocation in enumerate(self.corpus.invocations):
            paths = (self.work / f"expected{i}.out", self.work / f"expected{i}.err")
            paths[0].write_text(invocation.stdout)
            paths[1].write_text(invocation.stderr)
            expected.append([str(p) for p in paths])
        spec, out = self.work / "trace-spec.json", self.work / "trace.json"
        spec.write_text(json.dumps({
            "invocations": [self.argv(inv) for inv in self.corpus.invocations],
            "expected": expected,
            "seconds": seconds,
        }))
        argv = [sys.executable, str(BENCH / "tracing.py"), str(spec), str(out)]
        _, code, _ = spawn(argv, self.out, self.err)
        if code != 0:
            raise RuntimeError(f"traced run failed:\n{self.err.read_text()}")
        traced = json.loads(out.read_text())
        self.attempted += traced["attempted"]
        self.failed += traced["failed"]
        return traced


def layer_table(traced: dict) -> list[str]:
    layers = traced["layers"]
    names = [k[: -len(".calls")] for k in layers if k.endswith(".calls") and layers[k]]
    total = traced["traced_s"]
    lines = [f"  {'layer':28} {'calls':>6} {'self s':>9} {'share':>6} {'gc s':>8}  counts"]
    for name in sorted(names, key=lambda n: -layers[f"{n}.s"]):
        counts = ", ".join(
            f"{k[len(name) + 1:]} {layers[k]:g}"
            for k in sorted(layers)
            if k.startswith(name + ".") and k[len(name) + 1:] not in ("calls", "s", "gc_s")
        )
        lines.append(
            f"  {name:28} {layers[name + '.calls']:6g} {layers[name + '.s']:9.4f}"
            f" {layers[name + '.s'] / total:6.1%} {layers[name + '.gc_s']:8.4f}  {counts}"
        )
    overhead = traced["traced_s"] - traced["untraced_s"]
    lines += [
        f"  traced in-process run {total:.4f} s, median of {traced['passes']} passes;"
        f" layer self times add up to {traced['accounted_share']:.2%} of it,"
        f" layers other than cli.main to {traced['covered_share']:.2%}",
        f"  tracing overhead {overhead:+.4f} s ({overhead / traced['untraced_s']:+.1%})"
        f" over the untraced in-process run, {traced['untraced_s']:.4f} s",
    ]
    return lines


def run_workload(name: str, seed: int, corpus, seconds: float, trace: bool, spec: dict) -> dict:
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(corpus, work)
        if trace:
            traced = runner.trace(seconds)
            result = {"traced": traced}
            values = traced["layers"]
        else:
            result = runner.measure(seconds)
            values = result["metrics"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    kind = "per_layer" if trace else "end_to_end"
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in spec[kind]
    }
    result.update(
        workload=name,
        seed=seed,
        trace=int(trace),
        machine=machine(),
        corpus=corpus.fingerprint(),
        measured_units=corpus.measured_units,
        attempted=runner.attempted,
        failed=runner.failed,
        metrics=metrics,
    )

    print(f"== {name}  seed {seed}  trace {int(trace)}")
    print("machine: " + ", ".join(f"{k} {v}" for k, v in result["machine"].items()))
    print("corpus:  " + ", ".join(f"{k} {v}" for k, v in result["corpus"].items()))
    if trace:
        print(*layer_table(traced), sep="\n")
    else:
        samples = result["samples"]
        print(
            f"  times scaled to calibration {calibrate.REFERENCE_S} s;"
            f" machine speed median {statistics.median(samples['speed']):.3f}"
            f" of {len(samples['speed'])} (min {min(samples['speed']):.3f},"
            f" max {max(samples['speed']):.3f})"
        )
        for key, m in metrics.items():
            line = f"  {key:12} {m['value']:14.6f} {m['unit']:4}"
            if key in samples:
                raw = samples["unscaled_" + key]
                line += (
                    f" median of {len(raw)}; unscaled {statistics.median(raw):.6f}"
                    f" (min {min(raw):.6f}, max {max(raw):.6f})"
                )
            print(line)
    share = runner.failed / runner.attempted
    print(f"  {'failed_share':12} {share:14.6f} share ({runner.failed} of {runner.attempted} invocations)")

    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    return result


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="re-record refs/ptb-wsj.json")
    args = parser.parse_args(argv)
    if not args.record and not args.workload:
        parser.error("--workload is required")

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"bench: not a memload checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    # The harness imports memload and the test generator from the checkout.
    sys.path[1:1] = [str(ROOT / "src"), str(ROOT / "tests")]
    import workloads

    if args.record:
        workloads.record_ptb_refs()
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            corpus = workloads.build(name, args.seed)
            result = run_workload(name, args.seed, corpus, args.seconds, bool(args.trace), spec)
            print(json.dumps({
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }))
    except workloads.GeneratorDrift as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
