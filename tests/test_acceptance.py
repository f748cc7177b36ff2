"""Acceptance gate: the seven criteria the build must satisfy.

Each test covers one criterion and appears as its own pass/fail line in the
run; the conftest hook repeats them in a summary section.  Criterion 7's
real-treebank half needs a local bracketed corpus (licensed, not bundled)
named by the MEMLOAD_WSJ_PATH environment variable and skips without it.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

import treegen
from anchors import (
    DEP_UNIT_BINS,
    SAMPSON_WORD_BINS,
    TREE_SENTENCE_TOTAL,
    WORD_TOTAL,
    YNGVE_WORD_BINS,
)
from oracles import grouped_stack_oracle_depths, load_profile_oracle, stack_oracle_depths
from memload.cli import RunConfig, run
from memload.depload import load_profile
from memload.stackdepth import MetricConfig, NumberingScheme, word_depths
from memload.stats import (
    Histogram,
    sentence_histogram,
    threshold_report,
    unit_histogram,
)
from memload.treebank import normalize_tree, parse_dep_corpus, parse_ptb_corpus

DATA = Path(__file__).parent / "data"
YNGVE = NumberingScheme.YNGVE
SAMPSON = NumberingScheme.SAMPSON


def config(scheme: NumberingScheme, adjust: bool = False) -> MetricConfig:
    return MetricConfig(scheme=scheme, coordination_adjust=adjust)


def test_criterion_1_dependency_walkthrough(capsys):
    started = time.perf_counter()
    [sentence] = parse_dep_corpus((DATA / "boy_doll.dep").read_text(encoding="utf-8"))
    profile = load_profile(sentence)
    assert profile.values == (1, 1, 2, 2, 0)

    code = run(
        RunConfig(
            input_path=DATA / "boy_doll.dep",
            method="dep-load",
            output_format="json",
        )
    )
    payload = json.loads(capsys.readouterr().out)
    elapsed = time.perf_counter() - started
    assert code == 0
    assert payload["unit_histogram"] == {"0": 1, "1": 2, "2": 2}
    assert payload["sentence_histogram"] == {"2": 1}
    assert elapsed < 1.0


def test_criterion_2_tree_walkthrough():
    [tree] = parse_ptb_corpus((DATA / "boy_doll.ptb").read_text(encoding="utf-8"))
    cleaned = normalize_tree(tree)
    yngve = word_depths(cleaned, config(YNGVE))
    sampson = word_depths(cleaned, config(SAMPSON))
    assert yngve.values == (2, 1, 1, 2, 1, 0)
    assert sampson.values == (2, 1, 1, 1, 1, 0)
    assert yngve == stack_oracle_depths(cleaned)
    assert sampson == grouped_stack_oracle_depths(cleaned)


def test_criterion_3_oracle_equivalence():
    trees = treegen.random_trees(seed=301, count=1000, max_depth=8, max_branching=5)
    for tree in trees:
        assert word_depths(tree, config(YNGVE)) == stack_oracle_depths(tree)
        assert word_depths(tree, config(SAMPSON)) == grouped_stack_oracle_depths(tree)

    checked = 0
    for n in range(1, 7):
        for sentence in treegen.all_dep_sentences(n):
            assert load_profile(sentence) == load_profile_oracle(sentence)
            checked += 1
    assert checked == 20153  # sum over n<=6 of n * (n-1) ** (n-1)
    for sentence in treegen.random_dep_sentences(seed=302, count=1000, max_len=40):
        assert load_profile(sentence) == load_profile_oracle(sentence)


def test_criterion_4_conservation():
    # On a coordination-free corpus every word-level combination keeps the
    # invariants exactly: totals count units and sentences, and only the
    # final word of a sentence sits at depth 0.
    plain_trees = treegen.random_trees(seed=401, count=400, max_depth=7)
    n_words = sum(sum(1 for _ in tree.leaves()) for tree in plain_trees)
    totals, zero_bins = set(), set()
    for scheme in (YNGVE, SAMPSON):
        for adjust in (False, True):
            profiles = [word_depths(t, config(scheme, adjust)) for t in plain_trees]
            units = unit_histogram(profiles)
            sentences = sentence_histogram(profiles)
            assert units.total == n_words
            assert sentences.total == len(plain_trees)
            assert units.bins[0] == len(plain_trees)
            totals.add(units.total)
            zero_bins.add(units.bins[0])
    assert len(totals) == 1 and len(zero_bins) == 1

    # With coordinators in the label pool the unadjusted schemes still bin
    # exactly one word per sentence at 0; the conjunct-group adjustment can
    # only add zeros (a trailing group's coordinator no longer pends), so
    # there bin 0 is bounded below by the sentence count.
    coord_trees = treegen.random_trees(
        seed=402, count=400, max_depth=7, labels=treegen.COORD_LABELS
    )
    for scheme in (YNGVE, SAMPSON):
        plain = unit_histogram(word_depths(t, config(scheme)) for t in coord_trees)
        adjusted = unit_histogram(
            word_depths(t, config(scheme, adjust=True)) for t in coord_trees
        )
        assert plain.bins[0] == len(coord_trees)
        assert adjusted.bins[0] >= len(coord_trees)
        assert plain.total == adjusted.total

    # Published anchors: totals and shared bin 0 of the two word tables.
    assert sum(YNGVE_WORD_BINS.values()) == WORD_TOTAL
    assert sum(SAMPSON_WORD_BINS.values()) == WORD_TOTAL
    assert YNGVE_WORD_BINS[0] == SAMPSON_WORD_BINS[0] == TREE_SENTENCE_TOTAL


def test_criterion_5_threshold_fixtures():
    dep = threshold_report(Histogram(DEP_UNIT_BINS), [9])
    assert dep.exceed_counts == (3,)
    words = threshold_report(Histogram(SAMPSON_WORD_BINS), [5])
    assert words.exceed_counts == (311,)


def test_criterion_6_dominance():
    trees = treegen.random_trees(
        seed=601, count=1000, max_depth=8, max_branching=5, labels=treegen.COORD_LABELS
    )
    for tree in trees:
        for adjust in (False, True):
            yngve = word_depths(tree, config(YNGVE, adjust)).values
            sampson = word_depths(tree, config(SAMPSON, adjust)).values
            assert all(y >= s for y, s in zip(yngve, sampson))
        for scheme in (YNGVE, SAMPSON):
            plain = word_depths(tree, config(scheme)).values
            adjusted = word_depths(tree, config(scheme, adjust=True)).values
            assert all(a <= p for a, p in zip(adjusted, plain))


def _read_wsj_text(path: Path) -> str:
    if path.is_file():
        return path.read_text(encoding="utf-8")
    parts = [
        f.read_text(encoding="utf-8")
        for pattern in ("*.mrg", "*.ptb", "*.tree")
        for f in sorted(path.rglob(pattern))
    ]
    return "\n".join(parts)


def test_criterion_7_real_treebank_gate():
    located = os.environ.get("MEMLOAD_WSJ_PATH")
    if not located:
        pytest.skip("set MEMLOAD_WSJ_PATH to a local bracketed WSJ corpus")
    text = _read_wsj_text(Path(located))
    trees = [normalize_tree(t) for t in parse_ptb_corpus(text, on_error=lambda e: None)]
    profiles = [word_depths(t, config(YNGVE)) for t in trees]
    units = unit_histogram(profiles)
    assert abs(units.total - WORD_TOTAL) <= 0.02 * WORD_TOTAL
    assert units.bins[0] == sentence_histogram(profiles).total


def test_criterion_7_synthetic_scale(tmp_path, capsys):
    n_sentences = 50_000
    ptb_file = tmp_path / "scale.ptb"
    ptb_file.write_text(treegen.random_ptb_text(seed=701, n_sentences=n_sentences))
    dep_file = tmp_path / "scale.dep"
    dep_file.write_text(treegen.random_dep_text(seed=702, n_sentences=n_sentences))

    jobs = [
        ("dep-load", RunConfig(input_path=dep_file, method="dep-load",
                               output_format="csv")),
    ] + [
        (method, RunConfig(input_path=ptb_file, method=method,
                           output_format="csv"))
        for method in ("yngve-word", "sampson-word", "yngve-np", "sampson-np")
    ]
    for method, run_config in jobs:
        started = time.perf_counter()
        code = run(run_config)
        elapsed = time.perf_counter() - started
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("value,units,sentences")
        assert elapsed < 30.0, f"{method} took {elapsed:.1f} s"
