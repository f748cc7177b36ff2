"""Seeded workload corpora and the reports memload must print for them.

Every corpus is generated from the workload's seed with the test suite's
tree generator (tests/treegen.py); the program under test only ever sees
the generated file.

ptb-wsj has no independent oracle for the coordination-adjusted default
methods, so its expected reports come from histograms the CLI recorded at
the commit that defined the benchmark (refs/ptb-wsj.json).  They are kept
per block of BLOCK_TREES trees: a seed draws blocks from the recorded pool
until the corpus reaches its size, and because histograms add up, the
expected report of any seed is the rendered sum of its blocks.  Each
block's sha256 is recorded too, so a change in the generator stops the
benchmark instead of silently comparing against stale references.

The dependency workloads need no recording: their reference histograms
come from load_profile_oracle, which simulates the pending store directly.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import tempfile
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import reference
import treegen
from tracing import call_main
from memload.treebank import (
    ConstituencyTree,
    DependencySentence,
    EmptyAfterNormalization,
    normalize_tree,
)

try:
    from memload import (
        grouped_stack_oracle_depths,
        load_profile_oracle,
        stack_oracle_depths,
    )
except ImportError:  # the oracles may move next to the tests
    from oracles import (  # type: ignore[no-redef]
        grouped_stack_oracle_depths,
        load_profile_oracle,
        stack_oracle_depths,
    )

PTB_REFS = Path(__file__).resolve().parent / "refs" / "ptb-wsj.json"

TREE_METHODS = ("yngve-word", "sampson-word", "yngve-np", "sampson-np")
NO_COORD = "--no-coord-adjust"

# WSJ-like trees: function tags and coindices, punctuation, -NONE- traces
# and coordinators.  With this shape about 8% of the trees have nothing
# left once traces and punctuation are stripped, so the skip path runs too.
WSJ_LABELS = tuple(dict.fromkeys(treegen.MESSY_LABELS + treegen.COORD_LABELS))
TREE_SHAPE = dict(max_depth=6, max_branching=4, labels=WSJ_LABELS, leaf_prob=0.35)
BLOCK_TREES = 10
POOL_BLOCKS = 160

# Corpus sizes, in units the CLI measures per workload run: words and NPs
# over the four tree methods, or dependency units.  Generation stops at the
# first sentence (or block) that reaches the target, so the work per run
# barely varies between seeds.
PTB_TARGET_UNITS = 24_000
DEP_TARGET_UNITS = 40_000
DEP_MAX_LEN = {"dep-short": 25, "dep-long": 200}


@dataclass(frozen=True)
class Invocation:
    """One CLI call of a workload run, without --input, and what it must print."""

    args: tuple[str, ...]
    stdout: str
    stderr: str


@dataclass(frozen=True)
class Corpus:
    text: str
    lengths: tuple[int, ...]  # source units per sentence: leaves or dep units
    invocations: tuple[Invocation, ...]
    measured_units: int  # unit-histogram totals summed over the invocations
    skipped: int  # sentences each invocation skips

    def fingerprint(self) -> dict:
        data = self.text.encode()
        return {
            "sentences": len(self.lengths),
            "units": sum(self.lengths),
            "mean_len": round(statistics.fmean(self.lengths), 3),
            "max_len": max(self.lengths),
            "bytes": len(data),
            "sha256": hashlib.sha256(data).hexdigest(),
            "expected_skips": self.skipped,
        }


class GeneratorDrift(RuntimeError):
    """The regenerated corpus no longer matches the recorded references."""


def build(workload: str, seed: int) -> Corpus:
    if workload == "ptb-wsj":
        return ptb_wsj(seed, load_ptb_refs())
    output = "json" if workload == "dep-short" else "csv"
    return dep_corpus(workload, seed, output, DEP_TARGET_UNITS)


def ptb_block(block: int) -> list[ConstituencyTree]:
    rng = random.Random(f"ptb-wsj/block/{block}")
    return [treegen.random_tree(rng, **TREE_SHAPE) for _ in range(BLOCK_TREES)]


def ptb_text(trees: Sequence[ConstituencyTree]) -> str:
    # WSJ files wrap every tree in an unlabeled "( ... )".
    return "".join(f"( {tree.to_bracketed()} )\n" for tree in trees)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _leaf_count(tree: ConstituencyTree) -> int:
    return sum(1 for _ in tree.leaves())


def load_ptb_refs(path: Path = PTB_REFS) -> list[dict]:
    return [_int_bins(block) for block in json.loads(path.read_text())["blocks"]]


def _int_bins(block: dict) -> dict:
    """The block with its histogram keys turned back from JSON strings into ints."""
    reports = {
        key: {table: {int(v): c for v, c in bins.items()} for table, bins in tables.items()}
        for key, tables in block["reports"].items()
    }
    return {**block, "reports": reports}


def _block_units(block: dict) -> int:
    return sum(sum(block["reports"][m]["units"].values()) for m in TREE_METHODS)


def ptb_wsj(seed: int, blocks: list[dict], target: int = PTB_TARGET_UNITS) -> Corpus:
    rng = random.Random(f"ptb-wsj/draw/{seed}")
    chosen: list[int] = []
    measured = 0
    while measured < target:
        chosen.append(rng.randrange(len(blocks)))
        measured += _block_units(blocks[chosen[-1]])

    texts: dict[int, str] = {}
    lengths: dict[int, list[int]] = {}
    for b in sorted(set(chosen)):
        trees = ptb_block(b)
        texts[b] = ptb_text(trees)
        if _sha256(texts[b]) != blocks[b]["sha256"]:
            raise GeneratorDrift(
                f"ptb-wsj block {b} differs from {PTB_REFS.name}; "
                "re-record with --record if the generator change is intended"
            )
        lengths[b] = [_leaf_count(tree) for tree in trees]

    skipped = sum(blocks[b]["skipped"] for b in chosen)
    stderr = reference.skip_line(skipped, BLOCK_TREES * len(chosen))
    invocations = []
    for method in TREE_METHODS:
        units: Counter[int] = Counter()
        sentences: Counter[int] = Counter()
        for b in chosen:
            units.update(blocks[b]["reports"][method]["units"])
            sentences.update(blocks[b]["reports"][method]["sentences"])
        stdout = reference.render_text(method, dict(units), dict(sentences))
        invocations.append(Invocation(_args("ptb", method, "text"), stdout, stderr))
    return Corpus(
        text="".join(texts[b] for b in chosen),
        lengths=tuple(n for b in chosen for n in lengths[b]),
        invocations=tuple(invocations),
        measured_units=measured,
        skipped=skipped,
    )


def dep_text(sentences: Sequence[DependencySentence]) -> str:
    return "\n\n".join(
        "\n".join(f"{u.index}\t{u.surface}\t{u.head}" for u in s.units)
        for s in sentences
    ) + "\n"


def dep_corpus(workload: str, seed: int, output: str, target: int) -> Corpus:
    rng = random.Random(f"{workload}/{seed}")
    sentences: list[DependencySentence] = []
    units = 0
    while units < target:
        sentences.append(treegen.random_dep_sentence(rng, DEP_MAX_LEN[workload]))
        units += len(sentences[-1])
    unit_bins, sentence_bins = reference.histograms(
        load_profile_oracle(s).values for s in sentences
    )
    stdout = reference.RENDERERS[output]("dep-load", unit_bins, sentence_bins)
    return Corpus(
        text=dep_text(sentences),
        lengths=tuple(len(s) for s in sentences),
        invocations=(Invocation(_args("dep", "dep-load", output), stdout, ""),),
        measured_units=units,
        skipped=0,
    )


def _args(fmt: str, method: str, output: str) -> tuple[str, ...]:
    return ("--format", fmt, "--method", method, "--output", output)


def record_ptb_refs(
    pool: int = POOL_BLOCKS, path: Path = PTB_REFS, log: Callable[[str], None] = print
) -> None:
    """Record every pool block's histograms from the CLI at this commit.

    The --no-coord-adjust word histograms are recorded alongside and must
    match the push-down oracles before anything is written.
    """
    configs = [(m, ()) for m in TREE_METHODS] + [(m, (NO_COORD,)) for m in TREE_METHODS[:2]]
    blocks = []
    with tempfile.TemporaryDirectory(dir=path.parent) as tmp:
        block_path = Path(tmp) / "block.ptb"
        for b in range(pool):
            text = ptb_text(ptb_block(b))
            block_path.write_text(text)
            block = {"sha256": _sha256(text), "reports": {}}
            for method, flags in configs:
                argv = ["--input", str(block_path), *_args("ptb", method, "json"), *flags]
                code, out, err = call_main(argv)
                if code != 0:
                    raise RuntimeError(f"block {b} {method}: exit {code}: {err}")
                report = json.loads(out)
                block["reports"][" ".join((method, *flags))] = {
                    "units": report["unit_histogram"],
                    "sentences": report["sentence_histogram"],
                }
                block["skipped"] = BLOCK_TREES - report["total_sentences"]
            blocks.append(block)
    check_no_coord_oracles([_int_bins(block) for block in blocks], range(pool))
    body = ",\n".join(json.dumps(block, sort_keys=True) for block in blocks)
    path.write_text('{"blocks": [\n' + body + "\n]}\n")
    log(f"recorded {pool} blocks of {BLOCK_TREES} trees to {path}")


def check_no_coord_oracles(blocks: list[dict], block_ids: Sequence[int]) -> None:
    """Compare recorded --no-coord-adjust word histograms with the oracles.

    yngve-word matches a literal push-down simulation and sampson-word one
    that stores right siblings as a single item, once coordination
    adjustment is off.  Raises ValueError on the first mismatch.
    """
    for b in block_ids:
        cleaned = []
        for tree in ptb_block(b):
            try:
                cleaned.append(normalize_tree(tree))
            except EmptyAfterNormalization:
                pass
        for method, oracle in (
            ("yngve-word", stack_oracle_depths),
            ("sampson-word", grouped_stack_oracle_depths),
        ):
            units, sentences = reference.histograms(oracle(t).values for t in cleaned)
            recorded = blocks[b]["reports"][f"{method} {NO_COORD}"]
            if (units, sentences) != (recorded["units"], recorded["sentences"]):
                raise ValueError(f"block {b}: {method} {NO_COORD} disagrees with its oracle")
