"""Fast self-test of the benchmark harness on tiny corpora.

    python3 bench/selftest.py

Checks, for every workload, that generation is deterministic in the seed,
that the expected reports match what the CLI prints byte for byte, that
the gate counts a wrong report as failed, that the traced run accounts for
its time and counts the work, and that record mode reproduces the
committed references.  Also checks that compare.py refuses mismatched
fingerprints and that run.py fails without printing a result when the
program is absent.  Runs in well under a minute.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

sys.path[1:1] = [str(run.ROOT / "src"), str(run.ROOT / "tests")]

import compare  # noqa: E402
import workloads  # noqa: E402

TINY_UNITS = 600


class SelfTestFailure(Exception):
    pass


def check(condition: bool, what: str) -> None:
    if not condition:
        raise SelfTestFailure(what)


def tiny(workload: str, seed: int) -> workloads.Corpus:
    if workload == "ptb-wsj":
        return workloads.ptb_wsj(seed, workloads.load_ptb_refs(), target=TINY_UNITS)
    output = "json" if workload == "dep-short" else "csv"
    return workloads.dep_corpus(workload, seed, output, target=TINY_UNITS)


def test_generation_is_seeded(workload: str, work: Path) -> None:
    a, b, c = tiny(workload, 1), tiny(workload, 1), tiny(workload, 2)
    check(a == b, "same seed gives the same corpus and expected reports")
    check(a.fingerprint()["sha256"] != c.fingerprint()["sha256"], "another seed, another corpus")


def test_cli_matches_expected(workload: str, work: Path) -> None:
    runner = run.Runner(tiny(workload, 3), work)
    for invocation in runner.corpus.invocations:
        runner.invoke(invocation)
    check(runner.attempted == len(runner.corpus.invocations), "every invocation attempted")
    check(runner.failed == 0, "the CLI prints exactly the expected reports")


def test_gate_catches_wrong_report(workload: str, work: Path) -> None:
    corpus = tiny(workload, 3)
    first = corpus.invocations[0]
    wrong = dataclasses.replace(first, stdout=first.stdout.replace("1", "2", 1))
    check(wrong != first, "the mutation changes the report")
    runner = run.Runner(corpus, work)
    runner.invoke(wrong)
    check(runner.failed == 1, "a report differing in one digit counts as failed")


def test_traced_run(workload: str, work: Path) -> None:
    corpus = tiny(workload, 4)
    runner = run.Runner(corpus, work)
    traced = runner.trace(seconds=0)
    layers = traced["layers"]
    n = len(corpus.invocations)
    check(traced["failed"] == 0 and traced["attempted"] > 0, "traced invocations pass")
    check(traced["accounted_share"] > 0.99, "layer self times account for the run")
    check(layers["cli.main.calls"] == n and layers["cli.read.calls"] == n, "root and read spans")
    sentences = len(corpus.lengths)
    if workload == "ptb-wsj":
        check(layers["treebank.parse_ptb_corpus.sentences"] == n * sentences, "parse count")
        check(layers["treebank.normalize_tree.skipped"] == n * corpus.skipped, "skip count")
        measured = layers["stackdepth.word_depths.units"] + layers["stackdepth.np_depths.units"]
    else:
        check(layers["treebank.parse_dep_corpus.sentences"] == sentences, "parse count")
        check(layers["treebank.parse_dep_corpus.units"] == sum(corpus.lengths), "unit count")
        measured = layers["depload.load_profile.units"]
    check(measured == corpus.measured_units, "measured units match the references")
    check(layers["treebank.parsed_rss_mb"] > 0, "RSS after parsing recorded")


def test_record_reproduces_refs(work: Path) -> None:
    path = work / "refs.json"
    workloads.record_ptb_refs(pool=4, path=path, log=lambda _: None)
    check(
        workloads.load_ptb_refs(path) == workloads.load_ptb_refs()[:4],
        "record mode at this commit reproduces the committed references",
    )


def test_compare_refuses_mismatch(work: Path) -> None:
    result = {"workload": "dep-short", "seed": 1, "trace": 0, "corpus": {"sha256": "x"},
              "machine": run.machine(), "metrics": {}}
    old, new = work / "old.json", work / "new.json"
    old.write_text(json.dumps(result))
    new.write_text(json.dumps({**result, "machine": {**result["machine"], "nproc": -1}}))
    check(compare.main([str(old), str(new)]) == 2, "machine mismatch refused")
    new.write_text(json.dumps({**result, "corpus": {"sha256": "y"}}))
    check(compare.main([str(old), str(new)]) == 2, "corpus mismatch refused")


def test_fails_without_program(work: Path) -> None:
    shutil.copytree(run.BENCH, work / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", work)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dep-short", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=work, capture_output=True, text=True, timeout=60,
    )
    check(proc.returncode != 0 and not proc.stdout.strip(), "no result without the program")


def main() -> int:
    cases = [
        (f"{test.__name__} [{w}]", test, (w,))
        for w in run.WORKLOADS
        for test in (test_generation_is_seeded, test_cli_matches_expected,
                     test_gate_catches_wrong_report, test_traced_run)
    ]
    cases += [(t.__name__, t, ()) for t in (
        test_record_reproduces_refs, test_compare_refuses_mismatch, test_fails_without_program)]
    failures = 0
    run.WORK.mkdir(exist_ok=True)
    for name, test, args in cases:
        with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
            try:
                test(*args, Path(tmp))
            except SelfTestFailure as exc:
                failures += 1
                print(f"FAIL {name}: {exc}")
            else:
                print(f"ok   {name}")
    print(f"{len(cases) - failures} of {len(cases)} passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
