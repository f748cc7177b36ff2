"""Stack-depth metrics over constituency trees.

The depth of a word is how many symbols a top-down, left-to-right parser
still has to remember while reading it: each node charges its children a
branch number, and a word's depth is the sum of the numbers along its path
from the root.  Two numbering schemes are supported.  "yngve" charges one
per pending right sibling, so child k of n gets n - k.  "sampson" treats
all pending right siblings as a single stored item, capping the charge at
1.  An optional adjustment inside coordination charges whole conjunct
groups instead of individual children.  Literal push-down simulations of
both unadjusted schemes are provided as independent cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .profiles import DepthProfile
from .treebank import ConstituencyTree

__all__ = [
    "COORDINATOR_LABELS",
    "NumberingScheme",
    "MetricConfig",
    "branch_numbers",
    "coordination_adjusted_numbers",
    "word_depths",
    "np_depths",
    "stack_oracle_depths",
    "grouped_stack_oracle_depths",
]

COORDINATOR_LABELS = frozenset({"CC", "CONJP"})

# Children that attach to the conjunct group after them: the coordinators
# themselves and the commas that separate conjuncts.
_GROUP_GLUE = COORDINATOR_LABELS | {","}


class NumberingScheme(Enum):
    YNGVE = "yngve"
    SAMPSON = "sampson"


@dataclass(frozen=True)
class MetricConfig:
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
    if not labels:
        raise ValueError("a node has at least one child")
    if not any(label in COORDINATOR_LABELS for label in labels[1:]):
        return branch_numbers(len(labels), scheme)
    group_of, n_groups = _conjunct_groups(labels)
    if scheme is NumberingScheme.YNGVE:
        return [n_groups - 1 - group for group in group_of]
    return [min(n_groups - 1 - group, 1) for group in group_of]


def _conjunct_groups(labels: list[str]) -> tuple[list[int], int]:
    """Assign each child a 0-based conjunct-group index, left to right."""
    group_of = [0] * len(labels)
    pending: list[int] = []
    next_group = 0
    for i, label in enumerate(labels):
        if label in _GROUP_GLUE:
            pending.append(i)
        else:
            for j in pending:
                group_of[j] = next_group
            group_of[i] = next_group
            pending.clear()
            next_group += 1
    if pending:
        # Only glue children at the tail (or a node of nothing but glue):
        # they ride with the last real group.
        next_group = max(next_group, 1)
        for j in pending:
            group_of[j] = next_group - 1
    return group_of, next_group


def _child_numbers(node: ConstituencyTree, config: MetricConfig) -> list[int]:
    if config.coordination_adjust:
        labels = [child.label for child in node.children]
        return coordination_adjusted_numbers(labels, config.scheme)
    return branch_numbers(len(node.children), config.scheme)


def _walk_depths(
    tree: ConstituencyTree, config: MetricConfig, measure_nps: bool
) -> DepthProfile:
    """Path-sum depths of the measured units, in preorder.

    Walks an explicit stack of (node, depth, inside an NP), so tree height
    is not bounded by the recursion limit.
    """
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
        numbers = _child_numbers(node, config)
        for child, number in zip(reversed(children), reversed(numbers)):
            stack.append((child, depth + number, inside_np))
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


def stack_oracle_depths(tree: ConstituencyTree) -> DepthProfile:
    """Word depths from a literal top-down push-down simulation.

    The stack starts with the root; popping an internal node pushes its
    children with the leftmost on top, and popping a leaf records the
    remaining stack size.  Matches word_depths under the yngve scheme with
    no coordination adjustment.
    """
    values = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            values.append(len(stack))
        else:
            stack.extend(reversed(node.children))
    return DepthProfile(tuple(values))


def grouped_stack_oracle_depths(tree: ConstituencyTree) -> DepthProfile:
    """Word depths from a simulation storing right siblings as one item.

    Expanding a node pushes all its non-leftmost children as a single
    stored group; when the group's turn comes its first member is processed
    and the remainder stays stored, still as one item.  Matches word_depths
    under the sampson scheme with no coordination adjustment.
    """
    values: list[int] = []
    stack: list[ConstituencyTree | tuple[ConstituencyTree, ...]] = [tree]
    while stack:
        entry = stack.pop()
        if isinstance(entry, tuple):
            if len(entry) > 1:
                stack.append(entry[1:])
            stack.append(entry[0])
            continue
        if entry.is_leaf:
            values.append(len(stack))
        else:
            children = entry.children
            if len(children) > 1:
                stack.append(children[1:])
            stack.append(children[0])
    return DepthProfile(tuple(values))
