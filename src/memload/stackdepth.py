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
from typing import NamedTuple

from .stats import DepthProfile
from .treebank import ConstituencyTree

__all__ = ["COORDINATOR_LABELS", "NumberingScheme", "MetricConfig", "word_depths", "np_depths"]

COORDINATOR_LABELS = frozenset({"CC", "CONJP"})
_GROUP_GLUE = COORDINATOR_LABELS | {","}  # children that join the conjunct group after them
_label = attrgetter("label")


class NumberingScheme(Enum):
    YNGVE = "yngve"
    SAMPSON = "sampson"


class MetricConfig(NamedTuple):
    """How to number branches, and which NP nodes np_depths measures.

    With coordination_adjust, a node coordinates when a CC or CONJP child
    follows its first child.  Its children then split into conjunct groups,
    each ending at a real child: a coordinator or comma joins the group
    after it, and a trailing one joins the last group.  Each child is
    charged the number of groups strictly to its right, capped at 1 under
    sampson.

    The unit is chosen by the function called: word_depths measures every
    leaf, np_depths every NP node, or with maximal_np only those without an
    NP ancestor.
    """

    scheme: NumberingScheme
    coordination_adjust: bool = True
    maximal_np: bool = False


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
            # Coordinated (see MetricConfig): groups counts the real children
            # to the right, one per group.  Glue is in the group after it,
            # which groups already counts, or, trailing, in the last group.
            groups = 0
            for child in reversed(children):
                if child.label in _GROUP_GLUE:
                    number = groups - 1 if groups else 0
                else:
                    number = groups
                    groups += 1
                stack.append((child, depth + (number if yngve else min(number, 1)), inside_np))
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
