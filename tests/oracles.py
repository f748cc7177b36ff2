"""Independent push-down simulations that the closed-form metrics are checked against.

Each one models the reader's memory literally, as a store or a stack, and
records its size at every unit.  They share no code with depload or
stackdepth, so an agreement between the two is evidence for both.  Tests
and the bench's workload builder import them; the CLI never runs them.
"""

from __future__ import annotations

from memload.stats import DepthProfile
from memload.treebank import ConstituencyTree, DependencySentence


def load_profile_oracle(sentence: DependencySentence) -> DepthProfile:
    """Reference implementation that simulates the pending store explicitly.

    Reading unit i first discharges every stored unit headed by i, then
    stores unit i when its own head is still ahead; reading the final unit
    empties the store.  Kept independent of load_profile so the two can
    check each other.
    """
    heads = sentence.heads
    n = len(heads)
    store: set[int] = set()
    values = []
    for i in range(1, n + 1):
        store = {j for j in store if heads[j - 1] != i}
        head = heads[i - 1]
        if head > i or (head == 0 and i < n):
            store.add(i)
        if i == n:
            store.clear()
        values.append(len(store))
    return DepthProfile(tuple(values))


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
        elif entry.is_leaf:
            values.append(len(stack))
        else:
            stack.append(tuple(entry.children))  # one group; the next pop splits off the first
    return DepthProfile(tuple(values))
