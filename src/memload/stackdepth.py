"""Stack-depth metrics over constituency trees.

The depth of a word is how many symbols a top-down, left-to-right parser
still has to remember while reading it: each node charges its children a
branch number, and a word's depth is the sum of the numbers along its path
from the root.  Two numbering schemes are supported.  "yngve" charges one
per pending right sibling, so child k of n gets n - k.  "sampson" treats
all pending right siblings as a single stored item, capping the charge at
1.  An optional adjustment inside coordination charges whole conjunct
groups instead of individual children.
"""

from __future__ import annotations

from enum import Enum
from operator import attrgetter
from typing import NamedTuple, Sequence

from .stats import DepthProfile
from .treebank import ConstituencyTree

__all__ = [
    "COORDINATOR_LABELS",
    "NumberingScheme",
    "MetricConfig",
    "branch_numbers",
    "coordination_adjusted_numbers",
    "word_depths",
    "np_depths",
]

COORDINATOR_LABELS = frozenset({"CC", "CONJP"})
_label = attrgetter("label")

# Children that attach to the conjunct group after them: the coordinators
# themselves and the commas that separate conjuncts.
_GROUP_GLUE = COORDINATOR_LABELS | {","}


class NumberingScheme(Enum):
    YNGVE = "yngve"
    SAMPSON = "sampson"


class MetricConfig(NamedTuple):
    """How to number branches, and which NP nodes np_depths measures.

    The unit is chosen by the function called: word_depths measures every
    leaf, np_depths every NP node, or with maximal_np only those without an
    NP ancestor.
    """

    scheme: NumberingScheme
    coordination_adjust: bool = True
    maximal_np: bool = False


def branch_numbers(n_children: int, scheme: NumberingScheme) -> list[int]:
    """Numbers charged to the children of one node, left to right.

    Child k of n (1-based) gets n - k under yngve and min(n - k, 1) under
    sampson; the last child always gets 0.
    """
    if n_children < 1:
        raise ValueError("a node has at least one child")
    if scheme is NumberingScheme.YNGVE:
        return list(range(n_children - 1, -1, -1))
    return [1] * (n_children - 1) + [0]


def coordination_adjusted_numbers(
    child_labels: Sequence[str], scheme: NumberingScheme
) -> list[int]:
    """Branch numbers where each conjunct group counts as one pending item.

    A node coordinates when a CC or CONJP child appears after the first
    position.  Its children then split into conjunct groups, a coordinator
    or comma belonging with the conjunct that follows it (trailing ones with
    the last group), and every child is charged the number of groups
    strictly to its right, capped at 1 for sampson.  Nodes without
    coordination fall through to branch_numbers, so leaf children (empty
    label) and ordinary phrases are unaffected.
    """
    labels = list(child_labels)
    if not any(label in COORDINATOR_LABELS for label in labels[1:]):
        return branch_numbers(len(labels), scheme)
    cap = 1 if scheme is NumberingScheme.SAMPSON else len(labels)
    numbers = []
    groups_right = 0  # real children to the right so far, one per group
    for label in reversed(labels):
        if label in _GROUP_GLUE:
            # Glue belongs to the group of the real child after it, which
            # groups_right already counts; trailing glue to the last group.
            numbers.append(min(groups_right - 1 if groups_right else 0, cap))
        else:
            numbers.append(min(groups_right, cap))
            groups_right += 1
    return numbers[::-1]


def _walk_depths(tree: ConstituencyTree, config: MetricConfig, measure_nps: bool) -> DepthProfile:
    """Path-sum depths of the measured units, in preorder.

    Walks an explicit stack of (node, depth, inside an NP), so tree height
    is not bounded by the recursion limit.
    """
    yngve = config.scheme is NumberingScheme.YNGVE
    adjust = config.coordination_adjust
    values: list[int] = []
    stack = [(tree, 0, False)]
    while stack:
        node, depth, inside_np = stack.pop()
        children = node.children
        if not children:
            if not measure_nps:
                values.append(depth)
            continue
        is_np = node.label == "NP"
        if measure_nps and is_np and not (config.maximal_np and inside_np):
            values.append(depth)
        inside_np = inside_np or is_np
        # Pushed right to left, so the leftmost child is visited next.
        if adjust and not COORDINATOR_LABELS.isdisjoint(map(_label, children[1:])):
            numbers = coordination_adjusted_numbers(list(map(_label, children)), config.scheme)
            for child, number in zip(reversed(children), reversed(numbers)):
                stack.append((child, depth + number, inside_np))
            continue
        # Uncoordinated: the last child gets 0; each one left of it one more
        # under yngve, 1 under sampson.
        child_depth = depth
        for child in reversed(children):
            stack.append((child, child_depth, inside_np))
            child_depth = child_depth + 1 if yngve else depth + 1
    return DepthProfile(tuple(values))


def word_depths(tree: ConstituencyTree, config: MetricConfig) -> DepthProfile:
    """Path-sum depth of each word, left to right."""
    return _walk_depths(tree, config, measure_nps=False)


def np_depths(tree: ConstituencyTree, config: MetricConfig) -> DepthProfile:
    """Path-sum depth of each measured NP node, in preorder.

    The sum stops at the NP itself; material inside the phrase charges
    nothing.  A tree without any NP yields an empty profile.
    """
    return _walk_depths(tree, config, measure_nps=True)
