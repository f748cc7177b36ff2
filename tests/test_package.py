"""The package's public surface: the names `import memload` exports."""

from __future__ import annotations

import ast
import copy
import io
import os
import pickle
import pkgutil
import re
import shlex
import subprocess
import sys
import tokenize
import types
from pathlib import Path

import pytest

import memload
from memload import (
    ConstituencyTree,
    DependencySentence,
    DependencyUnit,
    MetricConfig,
    NumberingScheme,
    cli,
)

PUBLIC_NAMES = {
    "__version__",
    "ConstituencyTree",
    "DEFAULT_THRESHOLDS",
    "DepFormatError",
    "DependencySentence",
    "DependencyUnit",
    "EmptyAfterNormalization",
    "LeftwardHead",
    "MalformedLine",
    "MetricConfig",
    "NumberingScheme",
    "PtbParseError",
    "TreebankError",
    "ensure_rightward",
    "load_profile",
    "normalize_tree",
    "np_depths",
    "parse_dep_corpus",
    "parse_ptb_corpus",
    "render",
    "word_depths",
}


def test_public_names_are_pinned():
    assert set(memload.__all__) == PUBLIC_NAMES
    assert len(memload.__all__) == len(PUBLIC_NAMES)
    for name in memload.__all__:
        getattr(memload, name)


def test_the_cli_has_one_front_door():
    # main(argv) runs the CLI; build_parser is its parser, for --help and probes.
    assert cli.__all__ == ["build_parser", "main"]
    defined = {
        name
        for name, obj in vars(cli).items()
        if isinstance(obj, (type, types.FunctionType))
        and obj.__module__ == cli.__name__
        and not name.startswith("_")
    }
    assert defined <= set(cli.__all__)


def test_source_stays_under_the_line_ceiling():
    # ROADMAP.md's standing rule: deletions are welcome, growth past this is not.
    source = Path(memload.__file__).parent
    assert sum(path.read_bytes().count(b"\n") for path in source.rglob("*.py")) <= 1245


def test_sources_parse_at_the_declared_python_floor():
    # The tests may run on a newer interpreter than the oldest one pyproject.toml admits.
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    declared = re.search(
        r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject.read_text(encoding="utf-8"), re.MULTILINE
    )
    floor = (int(declared[1]), int(declared[2]))
    source = Path(memload.__file__).parent
    for path in sorted(source.rglob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), path.name, feature_version=floor)


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


def test_no_module_imports_a_name_it_never_uses():
    # A deletion can leave an import behind, and no linter is part of the test run.
    source = Path(memload.__file__).parent
    unused = []
    for path in sorted(source.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            (alias.asname or alias.name).partition(".")[0]: node.lineno
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
            if alias.name != "*"
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []


def test_every_public_error_class_is_raised():
    # An error class that no raise names is surface that only tests can reach.
    source = Path(memload.__file__).parent
    raised = set()
    for path in sorted(source.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            exc = node.exc if isinstance(node, ast.Raise) else None
            exc = exc.func if isinstance(exc, ast.Call) else exc
            if isinstance(exc, ast.Name):
                raised.add(exc.id)
    public = [getattr(memload, name) for name in memload.__all__]
    errors = {
        cls.__name__: cls
        for cls in public
        if isinstance(cls, type) and issubclass(cls, memload.TreebankError)
    }
    dead = [
        name
        for name, cls in errors.items()
        if not any(issubclass(errors[other], cls) for other in raised & errors.keys())
    ]
    assert dead == [] and len(errors) == 6


def test_no_module_keeps_a_private_name_it_never_reads():
    # A deletion can leave a private helper behind, unread, as it can an import.
    source = Path(memload.__file__).parent
    unread = []
    for path in sorted(source.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined = {}  # each module-level function, class and assigned name, with its line
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = node.lineno
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                for target in getattr(node, "targets", None) or [node.target]:
                    defined.update((name.id, node.lineno) for name in ast.walk(target)
                                   if isinstance(name, ast.Name))
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unread += [f"{path.name}:{line} {name}" for name, line in defined.items()
                   if name[:1] == "_" and name[:2] != "__" and name not in read]
    assert unread == []


def test_the_installed_command_is_the_module_entry():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts == {"memload": "memload.__main__:script"}
    from memload.__main__ import script

    assert callable(script)


def test_modules_are_pinned():
    modules = {module.name for module in pkgutil.iter_modules(memload.__path__)}
    assert modules == {"__main__", "cli", "depload", "stackdepth", "stats", "treebank"}


def test_public_constructors_store_tuples():
    w, v = ConstituencyTree(surface="w"), ConstituencyTree(surface="v")
    units, children = [DependencyUnit(1, "a", 0)], [w]
    sentence = DependencySentence(units)
    tree = ConstituencyTree(label="X", children=children)
    units.append(DependencyUnit(2, "b", 1))
    children.append(v)
    assert sentence.units == (DependencyUnit(1, "a", 0),) and len(sentence) == 1
    assert tree.children == (w,)
    assert hash(sentence) == hash(DependencySentence((DependencyUnit(1, "a", 0),)))


def test_metrics_return_tuples_of_ints():
    [sentence] = memload.parse_dep_corpus("1\ta\t2\n2\tb\t4\n3\tc\t2\n4\td\t0\n")
    [tree] = memload.parse_ptb_corpus("(S (NP (D a) (N b)) (VP (V c) (NP (N d))))")
    config = MetricConfig(NumberingScheme.YNGVE)
    measured = [
        memload.load_profile(sentence),
        memload.word_depths(tree, config),
        memload.np_depths(tree, config),
        memload.np_depths(ConstituencyTree("S", [ConstituencyTree(surface="w")]), config),
    ]
    for profile in measured:
        assert type(profile) is tuple
        assert all(type(value) is int for value in profile)
    assert measured == [(1, 1, 1, 0), (2, 1, 1, 0), (1, 0), ()]


RECORDS = [
    (ConstituencyTree(surface="w"), "surface"),
    (ConstituencyTree("S", [ConstituencyTree(surface="w")]), "children"),
    (DependencyUnit(1, "w", 0), "head"),
    (DependencySentence([DependencyUnit(1, "w1", 0)]), "heads"),
    (MetricConfig(NumberingScheme.YNGVE), "scheme"),
]
RECORD_IDS = [type(record).__name__ for record, _ in RECORDS]
# A sentence built from plain tuples, under its own id so that the others keep theirs.
RECORDS.append((DependencySentence([(1, "w1", 0)]), "surfaces"))
RECORD_IDS.append("DependencySentence-of-tuples")


@pytest.mark.parametrize("record, field", RECORDS, ids=RECORD_IDS)
def test_records_are_immutable(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is before


@pytest.mark.parametrize("record", [record for record, _ in RECORDS], ids=RECORD_IDS)
def test_records_survive_pickle_and_copy(record):
    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(clone) is type(record) and clone == record


def child_env() -> dict[str, str]:
    """Environment for a fresh interpreter that imports the same memload as this process."""
    package_root = str(Path(memload.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": pythonpath}


def modules_after_cli_import(names: set[str]) -> str:
    """Which of names sys.modules holds after `import memload.cli`, printed as a list."""
    # A fresh interpreter, so nothing imported by this test run counts.
    code = f"import memload.cli, sys; print(sorted({names!r} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), check=True
    )
    return result.stdout


def test_cli_import_leaves_out_dataclasses_and_inspect():
    assert modules_after_cli_import({"dataclasses", "inspect"}) == "[]\n"


def test_cli_import_leaves_out_json():
    # Only json output needs the module; render imports it then.
    assert modules_after_cli_import({"json"}) == "[]\n"


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_blocks(language: str) -> list[str]:
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```{language}\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)


def test_readme_commands_print_what_readme_shows():
    examples = [block for block in readme_blocks("sh") if block.startswith("$ memload ")]
    assert len(examples) == 2
    for block in examples:
        command, shown = block.split("\n", 1)
        result = subprocess.run(
            [sys.executable, "-m", "memload", *shlex.split(command)[2:]],
            capture_output=True,
            text=True,
            cwd=README.parent,
            env=child_env(),
        )
        assert (result.returncode, result.stdout, result.stderr) == (0, shown, "")


def test_readme_library_example_gives_its_commented_values():
    [block] = readme_blocks("python")
    comments = {
        token.start[0]: token.string.lstrip("#")
        for token in tokenize.generate_tokens(io.StringIO(block).readline)
        if token.type == tokenize.COMMENT
    }
    namespace: dict = {}
    checked = 0
    for statement in ast.parse(block).body:
        try:
            expected = ast.literal_eval(comments.get(statement.end_lineno, "").strip())
        except (ValueError, SyntaxError):  # no comment, or one in words
            exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(statement.value), "README.md", "eval"), namespace)
        assert value == expected
        checked += 1
    assert checked == 5


def test_readme_lists_the_public_surface():
    # README keeps its list of the names by hand; the module names in it are not exports.
    text = README.read_text(encoding="utf-8")
    stated, bullets = re.search(
        r"public surface is the (\d+) names in `memload.__all__`.*?\n\n(- .*?)\n\n",
        text,
        re.DOTALL,
    ).groups()
    names = {name for name in re.findall(r"`([^`]+)`", bullets) if not name.startswith("memload.")}
    assert names == set(memload.__all__)
    assert int(stated) == len(memload.__all__)
