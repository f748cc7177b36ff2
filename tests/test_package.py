"""The package's public surface: the names `import memload` exports."""

from __future__ import annotations

import ast
import copy
import os
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import memload
from memload import (
    ConstituencyTree,
    DependencySentence,
    DependencyUnit,
    DepthProfile,
    Histogram,
    MetricConfig,
    NumberingScheme,
)
from memload.cli import RunConfig

PUBLIC_NAMES = {
    "__version__",
    "COORDINATOR_LABELS",
    "ConstituencyTree",
    "DEFAULT_THRESHOLDS",
    "DepFormatError",
    "DependencySentence",
    "DependencyUnit",
    "DepthProfile",
    "EmptyAfterNormalization",
    "EmptyTree",
    "HeadOutOfRange",
    "Histogram",
    "LeafWithoutLabel",
    "LeftwardHead",
    "MalformedLine",
    "MetricConfig",
    "MissingRoot",
    "MultipleRoots",
    "NonContiguousIndices",
    "NumberingScheme",
    "PUNCTUATION_LABELS",
    "PtbParseError",
    "SelfHead",
    "TRACE_LABEL",
    "ThresholdReport",
    "TreebankError",
    "UnbalancedBrackets",
    "UnsupportedFormat",
    "ensure_rightward",
    "load_profile",
    "normalize_label",
    "normalize_tree",
    "np_depths",
    "parse_dep_corpus",
    "parse_ptb_corpus",
    "render",
    "sentence_histogram",
    "threshold_report",
    "unit_histogram",
    "word_depths",
}


def test_public_names_are_pinned():
    assert set(memload.__all__) == PUBLIC_NAMES
    assert len(memload.__all__) == len(PUBLIC_NAMES)
    for name in memload.__all__:
        getattr(memload, name)


def test_source_stays_under_the_line_ceiling():
    # ROADMAP.md's standing rule: deletions are welcome, growth past this is not.
    source = Path(memload.__file__).parent
    assert sum(path.read_bytes().count(b"\n") for path in source.rglob("*.py")) <= 1245


def test_no_module_calls_print():
    # Every stderr line goes out through cli._say and cli._write, and nothing else.
    source = Path(memload.__file__).parent
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(source.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print"
    ]
    assert calls == []


def test_modules_are_pinned():
    modules = {module.name for module in pkgutil.iter_modules(memload.__path__)}
    assert modules == {"__main__", "cli", "depload", "stackdepth", "stats", "treebank"}


RECORDS = [
    (ConstituencyTree.word("w"), "surface"),
    (ConstituencyTree.phrase("S", [ConstituencyTree.word("w")]), "children"),
    (DependencyUnit(1, "w", 0), "head"),
    (DependencySentence.from_heads([0]), "units"),
    (DepthProfile((1, 0)), "values"),
    (Histogram({0: 1}), "bins"),
    (MetricConfig(NumberingScheme.YNGVE), "scheme"),
    (RunConfig(Path("corpus.dep"), "dep-load"), "method"),
]


@pytest.mark.parametrize(
    "record, field", RECORDS, ids=[type(record).__name__ for record, _ in RECORDS]
)
def test_records_are_immutable(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is before


@pytest.mark.parametrize(
    "record", [record for record, _ in RECORDS], ids=[type(r).__name__ for r, _ in RECORDS]
)
def test_records_survive_pickle_and_copy(record):
    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(clone) is type(record) and clone == record


def modules_after_cli_import(names: set[str]) -> str:
    """Which of names sys.modules holds after `import memload.cli`, printed as a list."""
    # A fresh interpreter, so nothing imported by this test run counts.
    package_root = str(Path(memload.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    code = f"import memload.cli, sys; print(sorted({names!r} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
        check=True,
    )
    return result.stdout


def test_cli_import_leaves_out_dataclasses_and_inspect():
    assert modules_after_cli_import({"dataclasses", "inspect"}) == "[]\n"


def test_cli_import_leaves_out_json():
    # Only json output needs the module; render imports it then.
    assert modules_after_cli_import({"json"}) == "[]\n"
