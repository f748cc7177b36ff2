"""End-to-end command-line behavior: reports, diagnostics, exit codes."""

from __future__ import annotations

import contextlib
import errno
import gc
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import memload
from memload import cli
from memload.cli import METHODS, RunConfig, main, run

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


# Every way run() returns: a report, an unreadable file, a --strict sentence error.
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
        assert run(RunConfig(corpus, "yngve-word", strict="--strict" in flags)) == want
        assert gc.isenabled() is enabled
    capsys.readouterr()


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_gc_is_paused_while_sentences_are_measured(monkeypatch, capsys, enabled):
    seen = []

    def collect(text, config):
        seen.append(gc.isenabled())
        raise RuntimeError("stop")

    monkeypatch.setattr(cli, "_collect_profiles", collect)
    with gc_state(enabled):
        with pytest.raises(RuntimeError, match="stop"):
            run(RunConfig(Path(PTB_FIXTURE), "yngve-word"))
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
    # run() pauses the cyclic collector, so reference counting alone must free
    # what it builds, on the skip paths too.
    corpus = tmp_path / "skips.txt"
    corpus.write_text(SKIPPED[method], encoding="utf-8")
    config = RunConfig(corpus, method, output_format="csv", strict_rightward=method == "dep-load")
    with gc_state(False):
        gc.collect()
        assert run(config) == 0
        assert gc.collect() == 0
    assert capsys.readouterr().err.startswith("memload: skipped ")


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
