"""End-to-end command-line behavior: reports, diagnostics, exit codes."""

from __future__ import annotations

import contextlib
import errno
import gc
import io
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from itertools import chain, product, repeat
from pathlib import Path
from typing import Iterator, NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import memload
import treegen
from oracles import sentence_histogram, unit_histogram
from memload import (
    EmptyAfterNormalization, MetricConfig, NumberingScheme, TreebankError, cli, load_profile,
    normalize_tree, np_depths, parse_dep_corpus, parse_ptb_corpus, render, word_depths,
)
from memload.cli import main

DATA = Path(__file__).parent / "data"
DEP_FIXTURE = str(DATA / "boy_doll.dep")
PTB_FIXTURE = str(DATA / "boy_doll.ptb")
PTB_PUNCT_FIXTURE = str(DATA / "boy_doll_punct.ptb")


class Method(NamedTuple):
    """What one --method measures: its input format, numbering (None: dependency load), unit."""

    format: str
    scheme: NumberingScheme | None
    measures_nps: bool


METHODS = {
    "dep-load": Method("dep", None, False),
    "yngve-word": Method("ptb", NumberingScheme.YNGVE, False),
    "sampson-word": Method("ptb", NumberingScheme.SAMPSON, False),
    "yngve-np": Method("ptb", NumberingScheme.YNGVE, True),
    "sampson-np": Method("ptb", NumberingScheme.SAMPSON, True),
}


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dep_load_json(capsys):
    code, out, err = run_cli(
        capsys,
        "--input", DEP_FIXTURE, "--format", "dep", "--method", "dep-load",
        "--output", "json",
    )
    assert code == 0
    assert err == ""
    payload = json.loads(out)
    assert payload["method"] == "dep-load"
    assert payload["unit_histogram"] == {"0": 1, "1": 2, "2": 2}
    assert payload["sentence_histogram"] == {"2": 1}
    assert payload["total_units"] == 5


def test_yngve_word_text(capsys):
    code, out, err = run_cli(
        capsys,
        "--input", PTB_FIXTURE, "--format", "ptb", "--method", "yngve-word",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "method: yngve-word"
    rows = [line.split() for line in lines[2:6]]
    assert rows == [
        ["0", "1", "0"],
        ["1", "3", "0"],
        ["2", "2", "1"],
        ["total", "6", "1"],
    ]


def test_sampson_word_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "--input", PTB_FIXTURE, "--format", "ptb", "--method", "sampson-word",
        "--output", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["unit_histogram"] == {"0": 1, "1": 4, "2": 1}


def test_np_methods(capsys):
    code, out, _ = run_cli(
        capsys,
        "--input", PTB_FIXTURE, "--format", "ptb", "--method", "yngve-np",
        "--output", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["unit_histogram"] == {"0": 1, "1": 1}
    assert payload["sentence_histogram"] == {"1": 1}

    code, out, _ = run_cli(
        capsys,
        "--input", PTB_FIXTURE, "--format", "ptb", "--method", "sampson-np",
        "--output", "json", "--np-selector", "maximal",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["total_units"] == 2


@pytest.mark.parametrize("method", ["yngve-np", "sampson-np"])
def test_a_sentence_without_a_unit_counts_once_at_zero(tmp_path, capsys, method):
    corpus = tmp_path / "no_np.ptb"
    corpus.write_text("(S (V run))\n", encoding="utf-8")
    code, out, err = run_cli(
        capsys,
        "--input", str(corpus), "--format", "ptb", "--method", method, "--output", "json",
    )
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["unit_histogram"] == {}
    assert payload["sentence_histogram"] == {"0": 1}


def test_csv_output_with_threshold_comments(capsys):
    code, out, _ = run_cli(
        capsys,
        "--input", DEP_FIXTURE, "--format", "dep", "--method", "dep-load",
        "--output", "csv", "--thresholds", "1,9",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[:4] == ["value,units,sentences", "0,1,0", "1,2,0", "2,2,1"]
    assert lines[4].startswith("# > 1: units 2")
    assert lines[5].startswith("# > 9: units 0")


@pytest.mark.parametrize("method", METHODS)
def test_method_format_mismatch_is_config_error(capsys, method):
    wrong_format = "ptb" if METHODS[method].format == "dep" else "dep"
    # The mismatch is named before any flag that does not fit either format.
    for flags in ([], ["--keep-punct"], ["--strict-rightward"]):
        code, out, err = run_cli(
            capsys,
            "--input", DEP_FIXTURE, "--format", wrong_format, "--method", method, *flags,
        )
        assert code == 2
        assert out == ""
        assert err == (
            "memload: method dep-load requires --format dep; "
            "tree methods require --format ptb\n"
        )


def check_input_bound_flags(capsys, kind: str) -> None:
    """Every flag whose --help says "kind only", with each value it takes, is refused by a
    method of the other input and taken by a method of its own, with and without --format."""
    actions = [a for a in cli.build_parser()._actions if re.search(rf"\b{kind} only\)$", a.help)]
    assert actions  # the help still says which input each flag takes
    for action in actions:
        flag = action.option_strings[0]
        argvs = [[flag, choice] for choice in action.choices or ()] or [[flag]]
        for method, (fmt, _, _) in METHODS.items():
            fixture = DEP_FIXTURE if fmt == "dep" else PTB_FIXTURE
            for given, argv in product((["--format", fmt], []), argvs):
                code, out, err = run_cli(capsys, "--input", fixture, *given, "--method", method, *argv)
                if fmt == kind:
                    assert (code, err) == (0, "")
                else:
                    assert (code, out, err) == (2, "", f"memload: {flag} applies only to {kind} input\n")


def test_tree_flags_rejected_for_dep_input(capsys):
    check_input_bound_flags(capsys, "ptb")
    # The first flag in the check's order is named, whatever the order given.
    for given in (["--format", "dep"], []):  # the method sets the format
        assert run_cli(
            capsys, "--input", DEP_FIXTURE, *given, "--method", "dep-load",
            "--keep-punct", "--no-coord-adjust",
        ) == (2, "", "memload: --no-coord-adjust applies only to ptb input\n")


def test_rightward_flag_rejected_for_ptb_input(capsys):
    check_input_bound_flags(capsys, "dep")


def test_np_selector_reaches_the_np_methods_only(tmp_path, capsys):
    corpus = tmp_path / "nested_np.ptb"
    corpus.write_text("(S (NP (NP (N a)) (PP (P of) (NP (N b)))) (VP (V c)))\n", encoding="utf-8")

    def report(method: str, *selector: str) -> str:
        code, out, err = run_cli(
            capsys, "--input", str(corpus), "--method", method, "--output", "csv", *selector
        )
        assert (code, err) == (0, "")
        return out

    def rows(out: str) -> list[str]:
        return [line for line in out.splitlines()[1:] if not line.startswith("#")]

    for method in ("yngve-np", "sampson-np"):
        nested = report(method, "--np-selector", "all")
        assert nested == report(method)  # all is the default
        assert rows(nested) == ["0,0,0", "1,2,0", "2,1,1"]
        assert rows(report(method, "--np-selector", "maximal")) == ["0,0,0", "1,1,1"]
    for method in ("yngve-word", "sampson-word"):  # a word method has no NP to select
        plain = report(method)
        for selector in ("all", "maximal"):
            assert report(method, "--np-selector", selector) == plain


def test_bad_thresholds_are_config_errors(capsys):
    code, _, err = run_cli(
        capsys,
        "--input", DEP_FIXTURE, "--format", "dep", "--method", "dep-load",
        "--thresholds", "5,x",
    )
    assert code == 2
    assert err == "memload: --thresholds wants comma-separated integers, got '5,x'\n"


def test_thresholds_beyond_the_int_digit_limit_name_it(capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this Python converts integers of any length")
    code, _, err = run_cli(
        capsys,
        "--input", DEP_FIXTURE, "--format", "dep", "--method", "dep-load",
        "--thresholds", "5," + "9" * (limit + 700),
    )
    assert code == 2
    assert err == (
        f"memload: --thresholds value has {limit + 700} digits; "
        f"Python's int() takes at most {limit}\n"
    )


def test_help_names_the_default_thresholds(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    # argparse wraps help to the terminal width; compare with the wrapping undone.
    help_text = " ".join(capsys.readouterr().out.split())
    assert "report counts above these values (default: 5,7,9)" in help_text


def test_help_is_argparse_text_on_stdout(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    assert capsys.readouterr() == (cli.build_parser().format_help(), "")


# --help as argparse wraps it at 80 columns; the usage is its first paragraph.
HELP_AT_80_COLUMNS = """\
usage: memload [-h] --input FILE [--format {ptb,dep}] --method
               {dep-load,yngve-word,sampson-word,yngve-np,sampson-np}
               [--no-coord-adjust] [--keep-punct]
               [--np-selector {all,maximal}] [--thresholds T1,T2,...]
               [--output {text,csv,json}] [--strict] [--strict-rightward]

Frequency tables of short-term memory load over a treebank: how much pending
material a reader holds at each point of each sentence.

options:
  -h, --help            show this help message and exit
  --input FILE          treebank file to read
  --format {ptb,dep}    input format (default: the method's)
  --method {dep-load,yngve-word,sampson-word,yngve-np,sampson-np}
                        load metric
  --no-coord-adjust     disable conjunct-group renumbering inside coordination
                        (ptb only)
  --keep-punct          keep punctuation leaves instead of stripping them (ptb
                        only)
  --np-selector {all,maximal}
                        which NP nodes the np methods measure (default: all;
                        ptb only)
  --thresholds T1,T2,...
                        report counts above these values (default: 5,7,9)
  --output {text,csv,json}
                        report format
  --strict              abort on the first bad sentence instead of skipping it
  --strict-rightward    treat a head left of its unit as an error (dep only)
"""
USAGE = HELP_AT_80_COLUMNS.split("\n\n")[0] + "\n"


def test_help_at_80_columns_is_pinned(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    assert capsys.readouterr() == (HELP_AT_80_COLUMNS, "")


@pytest.mark.parametrize(
    "argv, err",
    [
        (["--format", "dep", "--method", "dep-load", "--bogus"],
         USAGE + "memload: error: unrecognized arguments: --bogus\n"),
        (["--format", "dep", "--method", "dep-load", "--thresholds", "1,a"],
         "memload: --thresholds wants comma-separated integers, got '1,a'\n"),
        (["--format", "dep", "--method", "dep-load", "--keep-punct"],
         "memload: --keep-punct applies only to ptb input\n"),
        (["--format", "ptb", "--method", "dep-load"],
         "memload: method dep-load requires --format dep; tree methods require --format ptb\n"),
    ],
    ids=["unknown-option", "thresholds", "keep-punct-dep", "method-format"],
)
def test_usage_and_config_errors_are_pinned(monkeypatch, capsys, argv, err):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(["--input", DEP_FIXTURE, *argv])
    except SystemExit as exc:  # argparse's own usage errors
        code = exc.code
    assert (code, *capsys.readouterr()) == (2, "", err)


FIXTURES = {"dep": [DEP_FIXTURE], "ptb": [PTB_FIXTURE, PTB_PUNCT_FIXTURE]}


@pytest.mark.parametrize("output", ["text", "csv", "json"])
@pytest.mark.parametrize("method", METHODS)
def test_the_method_sets_the_format(capsys, method, output):
    fmt = METHODS[method].format
    for fixture in FIXTURES[fmt]:
        argv = ["--input", fixture, "--method", method, "--output", output]
        given = run_cli(capsys, *argv[:2], "--format", fmt, *argv[2:])
        assert given[0] == 0 and given[1]
        assert run_cli(capsys, *argv) == given


def test_unknown_method_exits_two():
    with pytest.raises(SystemExit) as info:
        main(["--input", DEP_FIXTURE, "--format", "dep", "--method", "nope"])
    assert info.value.code == 2


def test_unreadable_input_exits_one(capsys):
    code, out, err = run_cli(
        capsys,
        "--input", "does-not-exist.dep", "--format", "dep", "--method", "dep-load",
    )
    assert code == 1
    assert out == ""
    assert "cannot read" in err


@pytest.mark.parametrize("prefix", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
def test_non_utf8_input_exits_one(tmp_path, capsys, prefix):
    # The byte position counts from the start of the file, mark included.
    corpus = tmp_path / "latin1.ptb"
    corpus.write_bytes(prefix + b"(S (N \xff))")
    code, out, err = run_cli(
        capsys,
        "--input", str(corpus), "--format", "ptb", "--method", "yngve-word",
    )
    assert code == 1
    assert out == ""
    assert err == (
        "memload: cannot read input: 'utf-8' codec can't decode byte 0xff in position "
        f"{len(prefix) + 6}: invalid start byte\n"
    )


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("method", ["dep-load", "yngve-word"])
def test_byte_order_mark_is_ignored(tmp_path, capsys, method, strict):
    fixture = {"dep": DEP_FIXTURE, "ptb": PTB_FIXTURE}[METHODS[method].format]
    corpus = tmp_path / ("bom" + Path(fixture).suffix)
    corpus.write_bytes(b"\xef\xbb\xbf" + Path(fixture).read_bytes())
    argv = ["--format", METHODS[method].format, "--method", method] + ["--strict"] * strict
    with_bom = run_cli(capsys, "--input", str(corpus), *argv)
    assert with_bom == run_cli(capsys, "--input", fixture, *argv)


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("method", ["dep-load", "yngve-word"])
def test_byte_order_mark_of_a_concatenated_file_is_ignored(tmp_path, capsys, method, strict):
    # `cat a b` of two BOM-carrying files: the second mark begins a line.
    fixture = {"dep": DEP_FIXTURE, "ptb": PTB_FIXTURE}[METHODS[method].format]
    part = Path(fixture).read_bytes().rstrip(b"\n") + b"\n\n"
    joined, plain = tmp_path / "joined", tmp_path / "plain"
    joined.write_bytes(b"\xef\xbb\xbf" + part + b"\xef\xbb\xbf" + part)
    plain.write_bytes(part + part)
    argv = ["--format", METHODS[method].format, "--method", method,
            "--output", "json"] + ["--strict"] * strict
    code, out, err = run_cli(capsys, "--input", str(joined), *argv)
    assert (code, out, err) == run_cli(capsys, "--input", str(plain), *argv)
    assert code == 0 and err == ""
    assert json.loads(out)["total_sentences"] == 2


def test_byte_order_mark_inside_a_line_stays_text(tmp_path, capsys):
    corpus = tmp_path / "inner.ptb"
    corpus.write_text("(S \ufeff(N a))\n", encoding="utf-8")
    code, out, err = run_cli(
        capsys,
        "--input", str(corpus), "--format", "ptb", "--method", "yngve-word",
        "--output", "json",
    )
    assert code == 0 and err == ""
    assert json.loads(out)["total_units"] == 2


# Every line break str.splitlines knows, and three whitespace characters it does not split at.
LINE_BREAKS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
NOT_LINE_BREAKS = ["\x1f", "\t", "\xa0"]


def words_around_a_mark(tmp_path, capsys, before: str) -> int:
    """Words measured in one tree whose second child follows `before` and a byte-order mark."""
    corpus = tmp_path / "marked.ptb"
    corpus.write_bytes(f"(S (N a){before}\ufeff(N b))\n".encode())
    code, out, err = run_cli(
        capsys,
        "--input", str(corpus), "--format", "ptb", "--method", "yngve-word",
        "--output", "json",
    )
    assert code == 0 and err == ""
    return json.loads(out)["total_units"]


def escaped(text: str) -> str:
    return text.encode("unicode_escape").decode()


@pytest.mark.parametrize("before", LINE_BREAKS, ids=escaped)
def test_byte_order_mark_after_any_line_break_is_dropped(tmp_path, capsys, before):
    assert words_around_a_mark(tmp_path, capsys, before) == 2


@pytest.mark.parametrize("before", NOT_LINE_BREAKS, ids=escaped)
def test_byte_order_mark_after_other_whitespace_stays_text(tmp_path, capsys, before):
    assert words_around_a_mark(tmp_path, capsys, before) == 3  # the mark is read as a word


def test_bad_sentences_skipped_and_counted(tmp_path, capsys):
    corpus = tmp_path / "mixed.ptb"
    corpus.write_text("(S (N a))\n(X)\n(S (N b) (V c))\n", encoding="utf-8")
    code, out, err = run_cli(
        capsys,
        "--input", str(corpus), "--format", "ptb", "--method", "yngve-word",
        "--output", "json",
    )
    assert code == 0
    assert json.loads(out)["total_sentences"] == 2
    assert err.strip() == "memload: skipped 1 of 3 sentences"


def test_strict_aborts_on_bad_sentence(tmp_path, capsys):
    corpus = tmp_path / "mixed.ptb"
    corpus.write_text("(S (N a))\n(X)\n", encoding="utf-8")
    code, out, err = run_cli(
        capsys,
        "--input", str(corpus), "--format", "ptb", "--method", "yngve-word",
        "--strict",
    )
    assert code == 1
    assert out == ""
    assert "line 2" in err


@contextlib.contextmanager
def gc_state(enabled: bool):
    """Run the block with the cyclic collector on or off, then restore it."""
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was_enabled else gc.disable)()


# Every way main() returns after a check: a report, an unreadable file, a --strict sentence error.
EXITS = {
    "report": ("(S (N a))\n(X)\n", [], 0),
    "unreadable": (None, [], 1),
    "strict-error": ("(S (N a))\n(X)\n", ["--strict"], 1),
}


@pytest.mark.parametrize("exit_path", EXITS)
@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_gc_state_is_restored_on_every_exit(tmp_path, capsys, enabled, exit_path):
    text, flags, want = EXITS[exit_path]
    corpus = tmp_path / "corpus.ptb"
    if text is not None:
        corpus.write_text(text, encoding="utf-8")
    argv = ["--input", str(corpus), "--format", "ptb", "--method", "yngve-word", *flags]
    with gc_state(enabled):
        assert main(argv) == want
        assert gc.isenabled() is enabled
    capsys.readouterr()


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_gc_is_paused_while_sentences_are_measured(monkeypatch, capsys, enabled):
    seen = []

    def collect(text, args):
        seen.append(gc.isenabled())
        raise RuntimeError("stop")

    monkeypatch.setattr(cli, "_tally", collect)
    with gc_state(enabled):
        with pytest.raises(RuntimeError, match="stop"):
            main(["--input", PTB_FIXTURE, "--format", "ptb", "--method", "yngve-word"])
        assert gc.isenabled() is enabled
    assert seen == [False]


def test_ctrl_c_exits_130_without_a_word(monkeypatch, capsys):
    def interrupted(text, on_error=None):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "parse_ptb_corpus", interrupted)
    for enabled in (True, False):
        with gc_state(enabled):
            assert main(["--input", PTB_FIXTURE, "--format", "ptb", "--method", "yngve-word"]) == 130
            assert gc.isenabled() is enabled
        assert capsys.readouterr() == ("", "")


# One sentence of each kind the CLI skips, then one it measures.
SKIPPED = {
    "yngve-word": "(X)\n(S (-NONE- *T*))\n(S (N a)))\n(S (N a) (CC and) (N b))\n",
    "dep-load": (
        "1\ta\n\n1\tx\ty\n\n1\t\t0\n\n2\ta\t0\n\n1\ta\t0\n2\tb\t0\n\n1\ta\t1\n\n"
        "1\ta\t5\n\n1\ta\t2\n2\tb\t1\n\n2\ta\t1\n1\tb\t0\n\n1\ta\t0\n2\tb\t1\n\n1\ta\t2\n2\tb\t0\n"
    ),
}


@pytest.mark.parametrize("method", SKIPPED)
def test_skipping_sentences_leaves_no_cyclic_garbage(tmp_path, capsys, method):
    # The CLI pauses the cyclic collector, so reference counting alone must free
    # what it builds, on the skip paths too.
    corpus = tmp_path / "skips.txt"
    corpus.write_text(SKIPPED[method], encoding="utf-8")
    fmt = METHODS[method].format
    argv = ["--input", str(corpus), "--format", fmt, "--method", method, "--output", "csv"]
    # Parsed before the baseline collection: argparse's own objects form cycles.
    args = cli.build_parser().parse_args(argv + ["--strict-rightward"] * (fmt == "dep"))
    thresholds = cli._check(args)
    with gc_state(False):
        gc.collect()
        assert cli._run(args, thresholds) == 0
        assert gc.collect() == 0
    assert capsys.readouterr().err.startswith("memload: skipped ")


def library_profiles(text: str, method: str) -> list:
    """The profiles of every sentence the CLI measures, built from the library's functions."""
    scheme = METHODS[method].scheme
    if scheme is None:
        return [load_profile(s) for s in parse_dep_corpus(text, on_error=lambda exc: None)]
    depths = np_depths if METHODS[method].measures_nps else word_depths
    profiles = []
    for tree in parse_ptb_corpus(text, on_error=lambda exc: None):
        try:
            profiles.append(depths(normalize_tree(tree), MetricConfig(scheme)))
        except EmptyAfterNormalization:
            pass
    return profiles


TALLIED = {
    "ptb": SKIPPED["yngve-word"] + "".join(
        f"{tree.to_bracketed()}\n"
        for tree in treegen.random_trees(seed=1701, count=300, labels=treegen.MESSY_LABELS)
    ),
    "dep": SKIPPED["dep-load"] + "\n" + treegen.random_dep_text(seed=1702, n_sentences=300),
    # Thousands of sentences, with a bad block after the first 4,096.
    "dep-large": treegen.random_dep_text(seed=1703, n_sentences=4096) + "\n1\ta\n\n"
    + treegen.random_dep_text(seed=1704, n_sentences=904),
}


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize(
    "method, tallied",
    [pytest.param(method, METHODS[method].format, id=method) for method in METHODS]
    + [pytest.param("dep-load", "dep-large", id="dep-load-large")],
)
def test_the_cli_tally_renders_what_the_library_histograms_render(
    tmp_path, capsys, method, tallied, fmt
):
    text = TALLIED[tallied]
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(text, encoding="utf-8")
    profiles = library_profiles(text, method)
    argv = ["--input", str(corpus), "--format", METHODS[method].format, "--method", method,
            "--output", fmt, "--thresholds", "0,3,9"]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out == render(
        unit_histogram(profiles), sentence_histogram(profiles), fmt, method=method,
        thresholds=(0, 3, 9),
    )
    assert err.startswith("memload: skipped ")


def test_the_tally_holds_one_sentence_at_a_time(monkeypatch):
    rng = random.Random(7)
    sentences = [treegen.rightward_dep_sentence(rng, 100) for _ in range(5000)]
    monkeypatch.setattr(cli, "parse_dep_corpus", lambda text, on_error=None: sentences)
    args = cli.build_parser().parse_args(
        ["--input", "unused", "--format", "dep", "--method", "dep-load"]
    )
    tracemalloc.start()
    try:
        units, maxima, attempted, skipped = cli._tally("", args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(units.values()) == sum(len(sentence.heads) for sentence in sentences)
    assert sum(maxima.values()) == 5000
    assert (attempted, skipped) == (5000, 0)
    assert peak < 250_000  # every sentence's values held at once take over 7x that


def test_the_tally_counts_reader_errors_without_holding_them(monkeypatch):
    def erring(text, on_error=None):
        for _ in range(200_000):
            on_error(TreebankError("bad block"))
        return []

    monkeypatch.setattr(cli, "parse_dep_corpus", erring)
    args = cli.build_parser().parse_args(["--input", "unused", "--method", "dep-load"])
    tracemalloc.start()
    try:
        units, maxima, attempted, skipped = cli._tally("", args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not units and not maxima
    assert (attempted, skipped) == (200_000, 200_000)
    assert peak < 50_000  # one reference per error alone takes 1.6 MB


def yielding(reader):
    """The reader as a generator: its sentences one at a time, its errors after the last one."""
    def read(text, on_error=None):
        errors = []
        yield from reader(text, on_error=on_error and errors.append)
        for exc in errors:
            on_error(exc)

    return read


@pytest.mark.parametrize("strict", [False, True], ids=["skip", "strict"])
@pytest.mark.parametrize("method", METHODS)
def test_a_reader_that_yields_is_tallied_as_one_that_returns_a_list(
    tmp_path, capsys, monkeypatch, method, strict
):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(TALLIED[METHODS[method].format], encoding="utf-8")
    argv = ["--input", str(corpus), "--format", METHODS[method].format, "--method", method]
    argv += ["--strict"] * strict
    reports = []
    for wrap in (False, True):
        if wrap:
            monkeypatch.setattr(cli, "parse_dep_corpus", yielding(parse_dep_corpus))
            monkeypatch.setattr(cli, "parse_ptb_corpus", yielding(parse_ptb_corpus))
        reports.append((main(argv), *capsys.readouterr()))
    assert reports[0] == reports[1]
    assert reports[0][0] == strict
    assert reports[0][2].startswith("memload: " if strict else "memload: skipped ")


@pytest.mark.parametrize(
    "fmt, method, text, flags, message",
    [
        ("ptb", "yngve-word", "(S (-NONE- *T*))\n(NP (N a)) )\n", [],
         "unmatched ')' (line 2, column 12)"),
        ("dep", "dep-load", "1\ta\t0\n2\tb\t1\n\n1\tx\n", ["--strict-rightward"],
         "expected INDEX<TAB>SURFACE<TAB>HEAD, got 2 field(s) (line 4)"),
    ],
    ids=["ptb", "dep"],
)
def test_strict_reports_a_reader_error_before_an_earlier_measure_error(
    tmp_path, capsys, fmt, method, text, flags, message
):
    # The readers read the whole file before the first sentence is measured, so
    # under --strict a reader error anywhere wins over a sentence left empty by
    # normalization, or a leftward head, earlier in the file.
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(text, encoding="utf-8")
    code, out, err = run_cli(
        capsys, "--input", str(corpus), "--format", fmt, "--method", method, "--strict", *flags
    )
    assert (code, out, err) == (1, "", f"memload: {message}\n")


@pytest.mark.parametrize("strict", [False, True], ids=["skip", "strict"])
@pytest.mark.parametrize(
    "fmt, method, measure",
    [("dep", "dep-load", "load_profile"), ("ptb", "yngve-word", "word_depths")],
    ids=["dep", "ptb"],
)
def test_any_sentence_error_raised_while_measuring_is_skipped(
    tmp_path, capsys, monkeypatch, fmt, method, measure, strict
):
    # A plain TreebankError, of no class a measure step raises: every
    # TreebankError skips its sentence, or aborts the run under --strict.
    sentences = {
        "dep": ["1\ta\t0\n", "1\tb\t0\n2\tc\t1\n", "1\td\t2\n2\te\t0\n"],
        "ptb": ["(S (N a))\n", "(S (N b) (N c))\n", "(S (N d) (V e))\n"],
    }[fmt]
    separator = "\n" if fmt == "dep" else ""
    corpus, rest = tmp_path / "corpus.txt", tmp_path / "rest.txt"
    corpus.write_text(separator.join(sentences), encoding="utf-8")
    rest.write_text(separator.join(sentences[::2]), encoding="utf-8")
    argv = ["--format", fmt, "--method", method] + ["--strict"] * strict
    _, report, _ = run_cli(capsys, "--input", str(rest), *argv)
    measured, calls = getattr(cli, measure), []

    def failing(*args):
        calls.append(args)
        if len(calls) == 2:
            raise TreebankError("the second sentence has no load")
        return measured(*args)

    monkeypatch.setattr(cli, measure, failing)
    code, out, err = run_cli(capsys, "--input", str(corpus), *argv)
    if strict:
        assert (code, out, err) == (1, "", "memload: the second sentence has no load\n")
    else:
        assert (code, out, err) == (0, report, "memload: skipped 1 of 3 sentences\n")


def test_punctuation_only_sentence_skipped(tmp_path, capsys):
    corpus = tmp_path / "punct.ptb"
    corpus.write_text("(S (. .))\n(S (N w))\n", encoding="utf-8")
    code, out, err = run_cli(
        capsys,
        "--input", str(corpus), "--format", "ptb", "--method", "yngve-word",
        "--output", "json",
    )
    assert code == 0
    assert json.loads(out)["total_sentences"] == 1
    assert "skipped 1 of 2" in err


def test_label_cut_to_nothing_is_measured(tmp_path, capsys):
    corpus = tmp_path / "eq.ptb"
    corpus.write_text("(S (N ok) (=X (N w)))\n", encoding="utf-8")
    code, out, err = run_cli(
        capsys,
        "--input", str(corpus), "--format", "ptb", "--method", "yngve-word",
        "--output", "json",
    )
    assert code == 0
    assert err == ""
    assert json.loads(out)["unit_histogram"] == {"0": 1, "1": 1}


@pytest.mark.parametrize("method", [m for m in METHODS if METHODS[m].format == "ptb"])
def test_deep_tree_is_measured(tmp_path, capsys, method):
    corpus = tmp_path / "deep.ptb"
    depth = 50000
    corpus.write_text(
        "(S " * depth + "(N w)" + ")" * depth + "\n" + "(S (NP (N a)) (VP (V b)))\n",
        encoding="utf-8",
    )
    code, out, err = run_cli(
        capsys,
        "--input", str(corpus), "--format", "ptb", "--method", method,
        "--output", "json",
    )
    assert code == 0
    assert err == ""
    assert json.loads(out)["total_sentences"] == 2


def test_keep_punct_changes_the_profile(capsys):
    code, stripped, _ = run_cli(
        capsys,
        "--input", PTB_PUNCT_FIXTURE, "--format", "ptb", "--method", "yngve-word",
        "--output", "json",
    )
    assert code == 0
    code, kept, _ = run_cli(
        capsys,
        "--input", PTB_PUNCT_FIXTURE, "--format", "ptb", "--method", "yngve-word",
        "--output", "json", "--keep-punct",
    )
    assert code == 0
    assert json.loads(stripped)["total_units"] == 6
    assert json.loads(kept)["total_units"] == 7


def test_no_coord_adjust_changes_depths(tmp_path, capsys):
    corpus = tmp_path / "coord.ptb"
    corpus.write_text(
        "(S (NP (N x)) (VP (V eats) (NP (NP (N rice)) (CC and) (NP (N fish)))))\n",
        encoding="utf-8",
    )
    base = ["--input", str(corpus), "--format", "ptb", "--method", "yngve-word",
            "--output", "json"]
    _, adjusted, _ = run_cli(capsys, *base)
    _, plain, _ = run_cli(capsys, *base, "--no-coord-adjust")
    assert json.loads(adjusted)["unit_histogram"] == {"0": 2, "1": 3}
    assert json.loads(plain)["unit_histogram"] == {"0": 1, "1": 3, "2": 1}


def test_strict_rightward_skips_leftward_sentences(tmp_path, capsys):
    corpus = tmp_path / "mixed.dep"
    corpus.write_text("1\ta\t2\n2\tb\t0\n\n1\tc\t0\n2\td\t1\n", encoding="utf-8")
    base = ["--input", str(corpus), "--format", "dep", "--method", "dep-load",
            "--output", "json"]
    code, out, err = run_cli(capsys, *base, "--strict-rightward")
    assert code == 0
    assert json.loads(out)["total_sentences"] == 1
    assert "skipped 1 of 2" in err

    code, out, err = run_cli(capsys, *base, "--strict-rightward", "--strict")
    assert code == 1
    assert "left" in err

    code, out, _ = run_cli(capsys, *base)
    assert code == 0
    assert json.loads(out)["total_sentences"] == 2


def test_output_is_deterministic(capsys):
    args = ("--input", DEP_FIXTURE, "--format", "dep", "--method", "dep-load",
            "--output", "json")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_empty_corpus_renders_empty_tables(tmp_path, capsys):
    corpus = tmp_path / "empty.ptb"
    corpus.write_text("", encoding="utf-8")
    code, out, err = run_cli(
        capsys,
        "--input", str(corpus), "--format", "ptb", "--method", "yngve-word",
        "--output", "csv", "--thresholds", "5",
    )
    assert code == 0
    assert out.splitlines()[0] == "value,units,sentences"
    assert err == ""


def child_env(unbuffered: bool = False) -> dict[str, str]:
    """Environment for a `python -m memload` child, its stdout buffered or not."""
    # The child imports the same memload as this process, installed or not.
    package_root = str(Path(memload.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


MEMLOAD = [sys.executable, "-m", "memload"]
PTB_COMMAND = [*MEMLOAD, "--input", PTB_FIXTURE, "--format", "ptb", "--method", "yngve-word"]


def test_module_invocation():
    result = subprocess.run(
        [*MEMLOAD, "--input", DEP_FIXTURE, "--format", "dep", "--method", "dep-load",
         "--output", "csv"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert result.returncode == 0
    assert result.stdout.startswith("value,units,sentences\n0,1,0\n")


def test_both_launchers_freeze_the_heap_once_main_returns(capsys):
    # Shutdown's collections skip the frozen heap; the library's main never freezes it.
    argv = ["--input", DEP_FIXTURE, "--format", "dep", "--method", "dep-load", "--output", "csv"]
    frozen = gc.get_freeze_count()
    assert main(argv) == 0 and gc.get_freeze_count() == frozen
    hook = (
        "import atexit, gc, runpy; atexit.register(lambda: print(gc.get_freeze_count() > 0)); "
        "runpy.run_module('memload', run_name='__main__')"
    )
    result = subprocess.run(
        [sys.executable, "-c", hook, *argv], capture_output=True, text=True, env=child_env()
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == capsys.readouterr().out + "True\n"


def one_huge_sentence(fmt: str) -> Iterator[str]:
    """The lines of one dep block of 2,000,000 units, or of one tree of 1,000,000 words."""
    if fmt == "dep":
        return chain(["1\tw\t0\n"], map("{}\tw\t1\n".format, range(2, 2_000_001)))
    return chain(["(S\n"], repeat("(N a)\n", 1_000_000), [")\n"])


@pytest.mark.parametrize(
    "fmt, method, sentence",
    [("dep", "dep-load", "1\tw\t0\n"), ("ptb", "yngve-word", "(S (N a))\n")],
    ids=["dep", "ptb"],
)
def test_out_of_memory_ends_in_one_line(tmp_path, fmt, method, sentence):
    resource = pytest.importorskip("resource")
    cap = 120 << 20  # bytes of address space, set in the child only

    def limit() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    corpus = tmp_path / f"corpus.{fmt}"
    # One sentence, which even a reader that yields holds whole; the same cap runs a
    # small one, so what fails the huge one is its size.
    runs = [(one_huge_sentence(fmt), 1, "memload: out of memory\n"), ([sentence], 0, "")]
    for lines, code, err in runs:
        with corpus.open("w", encoding="utf-8") as out:
            out.writelines(lines)
        result = subprocess.run(
            [*MEMLOAD, "--input", str(corpus), "--format", fmt, "--method", method],
            capture_output=True,
            text=True,
            env=child_env(),
            preexec_fn=limit,
        )
        assert (result.returncode, result.stderr) == (code, err)


def assert_one_output_error(returncode: int, stderr: str, code: int) -> None:
    assert returncode == 1
    assert stderr == f"memload: cannot write output: [Errno {code}] {os.strerror(code)}\n"
    assert "Traceback" not in stderr and "Exception ignored" not in stderr


BUFFERING = pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])


@BUFFERING
def test_closed_stdout_exits_one(unbuffered):
    result = subprocess.run(
        ["sh", "-c", 'exec "$@" >&-', "sh", *PTB_COMMAND],
        capture_output=True,
        text=True,
        env=child_env(unbuffered),
    )
    assert_one_output_error(result.returncode, result.stderr, errno.EBADF)


@BUFFERING
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
def test_full_device_exits_one(unbuffered):
    with open("/dev/full", "w") as full:
        result = subprocess.run(
            PTB_COMMAND, stdout=full, stderr=subprocess.PIPE, text=True, env=child_env(unbuffered)
        )
    assert_one_output_error(result.returncode, result.stderr, errno.ENOSPC)


@BUFFERING
def test_pipe_closed_by_its_reader_exits_one(unbuffered):
    # A 134 KB report, larger than a pipe's buffer, so no write can hide in it.
    thresholds = ",".join(map(str, range(3000)))
    child = subprocess.Popen(
        [*PTB_COMMAND, "--thresholds", thresholds],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=child_env(unbuffered),
    )
    child.stdout.close()  # before the child has imported memload, let alone written
    stderr = child.stderr.read()
    child.stderr.close()
    assert_one_output_error(child.wait(timeout=60), stderr, errno.EPIPE)


@BUFFERING
def test_pipe_closed_in_the_middle_of_the_report_exits_one(unbuffered):
    # Unbuffered, the report goes out in raw writes.  One blocked on the full
    # pipe returns a short count when the reader closes it; the rest must not
    # be dropped in silence.
    thresholds = ",".join(map(str, range(3000)))
    child = subprocess.Popen(
        [*PTB_COMMAND, "--thresholds", thresholds],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(unbuffered),
    )
    assert len(child.stdout.read(4096)) == 4096  # a 134 KB report is being written
    child.stdout.close()
    stderr = child.stderr.read().decode()
    child.stderr.close()
    assert_one_output_error(child.wait(timeout=60), stderr, errno.EPIPE)


@BUFFERING
@pytest.mark.parametrize(
    "redirect, code",
    [
        (">&-", errno.EBADF),
        pytest.param(
            ">/dev/full",
            errno.ENOSPC,
            marks=pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here"),
        ),
    ],
    ids=["closed", "full"],
)
def test_help_on_unwritable_stdout_exits_one(unbuffered, redirect, code):
    result = subprocess.run(
        ["sh", "-c", f'exec "$@" {redirect}', "sh", *MEMLOAD, "--help"],
        stderr=subprocess.PIPE,
        text=True,
        env=child_env(unbuffered),
    )
    assert_one_output_error(result.returncode, result.stderr, code)


# Closed, fd 2 leaves sys.stderr None; read-only, each write fails with EBADF; full, ENOSPC.
UNWRITABLE_STDERR = pytest.mark.parametrize(
    "redirect",
    [
        "2>&-",
        "2</dev/null",
        pytest.param(
            "2>/dev/full",
            marks=pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here"),
        ),
    ],
    ids=["closed", "read-only", "full"],
)


@BUFFERING
@UNWRITABLE_STDERR
def test_unwritable_stderr_keeps_the_report_and_exit_zero(tmp_path, unbuffered, redirect):
    corpus = tmp_path / "one_bad.ptb"
    corpus.write_text("(S (N a))\n(X)\n", encoding="utf-8")
    argv = ["--input", str(corpus), "--format", "ptb", "--method", "yngve-word", "--output", "csv"]
    result = subprocess.run(
        ["sh", "-c", f'exec "$@" {redirect}', "sh", *MEMLOAD, *argv],
        stdout=subprocess.PIPE,
        text=True,
        env=child_env(unbuffered),
    )
    report, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(report), contextlib.redirect_stderr(err):
        assert main(argv) == 0
    assert err.getvalue() == "memload: skipped 1 of 2 sentences\n"
    assert result.returncode == 0
    assert result.stdout == report.getvalue()  # the whole report, and no skip line


@BUFFERING
@UNWRITABLE_STDERR
@pytest.mark.parametrize(
    "case, code", [("config", 2), ("input", 1), ("strict", 1)], ids=["config", "input", "strict"]
)
def test_unwritable_stderr_loses_the_diagnostic_but_not_the_exit_code(
    tmp_path, unbuffered, redirect, case, code
):
    corpus = tmp_path / "self_head.dep"
    corpus.write_text("1\ta\t1\n", encoding="utf-8")
    argv = {
        "config": ["--input", DEP_FIXTURE, "--format", "dep", "--method", "yngve-word"],
        "input": ["--input", str(tmp_path / "missing.dep"), "--format", "dep", "--method", "dep-load"],
        "strict": ["--input", str(corpus), "--format", "dep", "--method", "dep-load", "--strict"],
    }[case]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(argv) == code
    assert out.getvalue() == "" and err.getvalue().count("\n") == 1  # one diagnostic line
    result = subprocess.run(
        ["sh", "-c", f'exec "$@" {redirect}', "sh", *MEMLOAD, *argv],
        stdout=subprocess.PIPE,
        text=True,
        env=child_env(unbuffered),
    )
    assert result.returncode == code
    assert result.stdout == ""  # the line is lost, not moved to stdout


SOUP = st.lists(
    st.sampled_from(
        ["(", ")", "S", "N", "w", "=X", "-NONE-", "NP-SBJ", ",", "(, ,)",
         "(N w)", "(=X (N w))", "0", "1", "2", "#", "\t", " ", "\n", "\n\n"]
    ),
    max_size=40,
).map(lambda tokens: "".join(tokens).encode("utf-8"))


@settings(max_examples=200, deadline=None)
@given(
    method=st.sampled_from(sorted(METHODS)),
    data=st.one_of(SOUP, st.binary(max_size=200)),
    strict=st.booleans(),
)
def test_main_never_raises(tmp_path_factory, method, data, strict):
    corpus = tmp_path_factory.getbasetemp() / "main_never_raises.input"
    corpus.write_bytes(data)
    argv = ["--input", str(corpus), "--format", METHODS[method].format,
            "--method", method] + ["--strict"] * strict
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(argv) in (0, 1, 2)
