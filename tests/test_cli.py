"""End-to-end command-line behavior: reports, diagnostics, exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import memload
from memload.cli import METHODS, main

DATA = Path(__file__).parent / "data"
DEP_FIXTURE = str(DATA / "boy_doll.dep")
PTB_FIXTURE = str(DATA / "boy_doll.ptb")
PTB_PUNCT_FIXTURE = str(DATA / "boy_doll_punct.ptb")


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
    code, out, err = run_cli(
        capsys,
        "--input", DEP_FIXTURE, "--format", wrong_format, "--method", method,
    )
    assert code == 2
    assert out == ""
    assert err == (
        "memload: method dep-load requires --format dep; "
        "tree methods require --format ptb\n"
    )


def test_tree_flags_rejected_for_dep_input(capsys):
    for flag in (["--no-coord-adjust"], ["--keep-punct"], ["--np-selector", "all"]):
        code, _, err = run_cli(
            capsys,
            "--input", DEP_FIXTURE, "--format", "dep", "--method", "dep-load", *flag,
        )
        assert code == 2
        assert "ptb" in err


def test_rightward_flag_rejected_for_ptb_input(capsys):
    code, _, err = run_cli(
        capsys,
        "--input", PTB_FIXTURE, "--format", "ptb", "--method", "yngve-word",
        "--strict-rightward",
    )
    assert code == 2
    assert "dep" in err


def test_bad_thresholds_are_config_errors(capsys):
    code, _, err = run_cli(
        capsys,
        "--input", DEP_FIXTURE, "--format", "dep", "--method", "dep-load",
        "--thresholds", "5,x",
    )
    assert code == 2
    assert "thresholds" in err


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


def test_non_utf8_input_exits_one(tmp_path, capsys):
    corpus = tmp_path / "latin1.ptb"
    corpus.write_bytes(b"(S (N \xff))")
    code, out, err = run_cli(
        capsys,
        "--input", str(corpus), "--format", "ptb", "--method", "yngve-word",
    )
    assert code == 1
    assert out == ""
    assert err.startswith("memload: cannot read input: ")


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


def test_module_invocation():
    # The child imports the same memload as this process, installed or not.
    package_root = str(Path(memload.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "memload",
         "--input", DEP_FIXTURE, "--format", "dep", "--method", "dep-load",
         "--output", "csv"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert result.returncode == 0
    assert result.stdout.startswith("value,units,sentences\n0,1,0\n")
