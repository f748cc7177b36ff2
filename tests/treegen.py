"""Deterministic random corpora for the test suite."""

from __future__ import annotations

import itertools
import random
from typing import Iterable, Iterator, Sequence

from memload.treebank import ConstituencyTree, DependencySentence

PLAIN_LABELS = ("S", "NP", "VP", "PP", "SBAR", "ADJP", "ADVP", "DT", "N", "V", "J", "P")
COORD_LABELS = PLAIN_LABELS + ("CC", "CONJP", ",")
MESSY_LABELS = PLAIN_LABELS + (".", ",", ":", "-NONE-", "NP-SBJ", "NP-SBJ-1", "S=2")

WORDS = ("the", "boy", "doll", "small", "has", "old", "box", "very", "and", "ran")


def random_tree(
    rng: random.Random,
    max_depth: int = 8,
    max_branching: int = 5,
    labels: Sequence[str] = PLAIN_LABELS,
    leaf_prob: float = 0.4,
) -> ConstituencyTree:
    def build(depth: int) -> ConstituencyTree:
        if depth >= max_depth or rng.random() < leaf_prob:
            return ConstituencyTree.word(rng.choice(WORDS))
        width = rng.randint(1, max_branching)
        return ConstituencyTree.phrase(
            rng.choice(labels), [build(depth + 1) for _ in range(width)]
        )

    node = build(0)
    if node.is_leaf:
        node = ConstituencyTree.phrase(rng.choice(labels), [node])
    return node


def random_trees(seed: int, count: int, **kwargs) -> list[ConstituencyTree]:
    rng = random.Random(seed)
    return [random_tree(rng, **kwargs) for _ in range(count)]


def random_dep_sentence(rng: random.Random, max_len: int = 40) -> DependencySentence:
    n = rng.randint(1, max_len)
    root = rng.randint(1, n)
    heads = [
        0 if i == root else rng.choice([h for h in range(1, n + 1) if h != i])
        for i in range(1, n + 1)
    ]
    return DependencySentence.from_heads(heads)


def random_dep_sentences(
    seed: int, count: int, max_len: int = 40
) -> list[DependencySentence]:
    rng = random.Random(seed)
    return [random_dep_sentence(rng, max_len) for _ in range(count)]


def rightward_dep_sentence(rng: random.Random, max_len: int = 40) -> DependencySentence:
    n = rng.randint(1, max_len)
    heads = [rng.randint(i + 1, n) for i in range(1, n)] + [0]
    return DependencySentence.from_heads(heads)


def all_dep_sentences(n: int) -> Iterator[DependencySentence]:
    """Every head assignment over indices 1..n with one root, no self-heads."""
    for root in range(1, n + 1):
        choice_lists = [
            [0] if i == root else [h for h in range(1, n + 1) if h != i]
            for i in range(1, n + 1)
        ]
        for heads in itertools.product(*choice_lists):
            yield DependencySentence.from_heads(heads)


def random_ptb_text(seed: int, n_sentences: int) -> str:
    """A bracketed corpus of many small sentences, one per line."""
    rng = random.Random(seed)
    lines = [
        random_tree(rng, max_depth=5, max_branching=4, leaf_prob=0.45).to_bracketed()
        for _ in range(n_sentences)
    ]
    return "\n".join(lines) + "\n"


def random_dep_text(seed: int, n_sentences: int, max_len: int = 25) -> str:
    """A tab-separated dependency corpus, blank line between sentences."""
    rng = random.Random(seed)
    return dep_text(random_dep_sentence(rng, max_len) for _ in range(n_sentences))


def dep_text(sentences: Iterable[DependencySentence]) -> str:
    """Write sentences as the dep reader reads them, a blank line between."""
    blocks = (
        "\n".join(f"{u.index}\t{u.surface}\t{u.head}" for u in sentence.units)
        for sentence in sentences
    )
    return "\n\n".join(blocks) + "\n"
