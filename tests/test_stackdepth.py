"""Branch numbering, word and NP depths, and the push-down oracles."""

from __future__ import annotations

import functools
import itertools
import random

import treegen
from oracles import grouped_stack_oracle_depths, stack_oracle_depths
from memload.stackdepth import (
    COORDINATOR_LABELS,
    MetricConfig,
    NumberingScheme,
    np_depths,
    word_depths,
)
from memload.treebank import ConstituencyTree, parse_ptb_corpus

YNGVE = NumberingScheme.YNGVE
SAMPSON = NumberingScheme.SAMPSON

# Children that join the conjunct group after them, as MetricConfig's docstring says.
GLUE = COORDINATOR_LABELS | {","}

EXAMPLE = "(S (NP (DT The) (N boy)) (VP (V has) (NP (DT a) (J small) (N doll))))"


def tree_of(text: str):
    [tree] = parse_ptb_corpus(text)
    return tree


def config(scheme, adjust=False, **kwargs) -> MetricConfig:
    return MetricConfig(scheme=scheme, coordination_adjust=adjust, **kwargs)


@functools.cache
def one_word(label: str) -> ConstituencyTree:
    """A word for the empty label, else a phrase over one word."""
    word = ConstituencyTree.word("w")
    return ConstituencyTree.phrase(label, [word]) if label else word


def numbers(labels, scheme, adjust=True) -> list[int]:
    """The branch numbers one node charges children with these labels.

    Each child holds exactly one word, so the words' depths are the numbers.
    """
    tree = ConstituencyTree.phrase("X", list(map(one_word, labels)))
    return list(word_depths(tree, config(scheme, adjust)).values)


def test_branch_numbers_two_children():
    assert numbers(["A", "B"], YNGVE, adjust=False) == [1, 0]
    assert numbers(["A", "B"], SAMPSON, adjust=False) == [1, 0]


def test_branch_numbers_single_child():
    assert numbers(["A"], YNGVE, adjust=False) == [0]
    assert numbers([""], SAMPSON, adjust=False) == [0]


def test_branch_numbers_four_children():
    assert numbers(["A", "", "C", "D"], YNGVE, adjust=False) == [3, 2, 1, 0]
    assert numbers(["A", "", "C", "D"], SAMPSON, adjust=False) == [1, 1, 1, 0]


def test_branch_numbers_match_the_stack_machines():
    # Under (A (B b) (C c) (D d) (E e)) the first word is read with three
    # pending siblings, or with one stored sibling set.
    tree = tree_of("(A (B b) (C c) (D d) (E e))")
    assert stack_oracle_depths(tree).values == (3, 2, 1, 0)
    assert grouped_stack_oracle_depths(tree).values == (1, 1, 1, 0)


def test_coordination_comma_and_cc_grouping():
    labels = ["NP", ",", "NP", "CC", "NP"]
    assert numbers(labels, YNGVE) == [2, 1, 1, 0, 0]


def test_coordination_passthrough_without_coordinator():
    assert numbers(["DT", "N"], YNGVE) == [1, 0]
    assert numbers(["DT", "J", "N"], SAMPSON) == [1, 1, 0]


def test_coordination_sampson_caps_at_one():
    assert numbers(["NP", "CC", "NP"], SAMPSON) == [1, 0, 0]
    labels = ["NP", ",", "NP", ",", "NP", "CC", "NP"]
    assert numbers(labels, SAMPSON) == [1, 1, 1, 1, 1, 0, 0]
    assert numbers(labels, YNGVE) == [3, 2, 2, 1, 1, 0, 0]


def test_initial_coordinator_is_not_coordination():
    # "CC" in first position marks no conjunct split; plain numbering applies.
    assert numbers(["CC", "NP"], YNGVE) == [1, 0]


def test_conjp_triggers_coordination():
    assert numbers(["VP", "CONJP", "VP"], YNGVE) == [1, 0, 0]


def test_trailing_coordinator_joins_last_group():
    assert numbers(["NP", "CC", "NP", "CC"], YNGVE) == [1, 0, 0, 0]


def conjunct_rule(labels, scheme):
    """MetricConfig's rule stated directly: form the groups, then count.

    Each group runs up to and including a real child; glue after the last
    real child joins the last group.  Without coordination every child is
    its own group: child k of n gets n - k, capped at 1 under sampson.
    """
    if not any(label in COORDINATOR_LABELS for label in labels[1:]):
        right = range(len(labels) - 1, -1, -1)
        return [min(r, 1) if scheme is SAMPSON else r for r in right]
    groups = [[]]
    for label in labels:
        groups[-1].append(label)
        if label not in GLUE:
            groups.append([])
    trailing = groups.pop()
    if groups:
        groups[-1] += trailing
    else:
        groups = [trailing]
    numbers = []
    for k, group in enumerate(groups):
        right = len(groups) - 1 - k
        numbers += [min(right, 1) if scheme is SAMPSON else right] * len(group)
    return numbers


def test_coordination_matches_the_rule_exhaustively():
    alphabet = ["NP", "", "CC", "CONJP", ","]
    for length in range(1, 8):
        for labels in itertools.product(alphabet, repeat=length):
            for scheme in (YNGVE, SAMPSON):
                expected = conjunct_rule(labels, scheme)
                assert numbers(labels, scheme) == expected, labels


def test_adjustment_never_raises_a_number():
    rng = random.Random(21)
    pool = list(treegen.COORD_LABELS)
    for _ in range(500):
        labels = [rng.choice(pool) for _ in range(rng.randint(1, 8))]
        for scheme in (YNGVE, SAMPSON):
            plain = numbers(labels, scheme, adjust=False)
            adjusted = numbers(labels, scheme)
            assert all(a <= p for a, p in zip(adjusted, plain)), labels


def test_word_depths_example_yngve():
    profile = word_depths(tree_of(EXAMPLE), config(YNGVE))
    assert profile.values == (2, 1, 1, 2, 1, 0)
    assert profile.sentence_max == 2


def test_word_depths_example_sampson():
    profile = word_depths(tree_of(EXAMPLE), config(SAMPSON))
    assert profile.values == (2, 1, 1, 1, 1, 0)


def test_word_depths_single_chain():
    assert word_depths(tree_of("(S (X (Y (N w))))"), config(YNGVE)).values == (0,)


def test_word_depths_with_adjustment_on_plain_tree_unchanged():
    tree = tree_of(EXAMPLE)
    assert word_depths(tree, config(YNGVE, adjust=True)) == word_depths(
        tree, config(YNGVE)
    )


def test_word_depths_coordination_adjustment():
    text = "(S (NP (N x)) (VP (V eats) (NP (NP (N rice)) (CC and) (NP (N fish)))))"
    tree = tree_of(text)
    plain = word_depths(tree, config(YNGVE)).values
    adjusted = word_depths(tree, config(YNGVE, adjust=True)).values
    # Plain numbering charges "rice" two pending siblings (CC and the second
    # conjunct); grouped it charges one, and the coordinator itself drops to
    # 0 because only whole groups to its right count.
    assert plain == (1, 1, 2, 1, 0)
    assert adjusted == (1, 1, 1, 0, 0)


def test_stack_oracle_example():
    assert stack_oracle_depths(tree_of(EXAMPLE)).values == (2, 1, 1, 2, 1, 0)
    assert grouped_stack_oracle_depths(tree_of(EXAMPLE)).values == (2, 1, 1, 1, 1, 0)


def test_stack_oracle_single_leaf():
    tree = tree_of("(S (N w))")
    assert stack_oracle_depths(tree).values == (0,)
    assert grouped_stack_oracle_depths(tree).values == (0,)


def test_deep_chains_do_not_recurse():
    # Far past the recursion limit: the walk keeps its own stack.
    depth = 50_000
    chain = tree_of("(S " * depth + "(N w)" + ")" * depth)
    np_chain = tree_of("(NP " * depth + "(N w)" + ")" * depth)
    for scheme in (YNGVE, SAMPSON):
        assert word_depths(chain, config(scheme)).values == (0,)
        assert word_depths(np_chain, config(scheme)).values == (0,)
        assert np_depths(chain, config(scheme)).values == ()
        assert np_depths(np_chain, config(scheme)).values == (0,) * depth
        assert np_depths(np_chain, config(scheme, maximal_np=True)).values == (0,)


def np_stack_oracle(tree) -> tuple[int, ...]:
    """Stack size when each NP is popped, as in stack_oracle_depths."""
    values = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if node.label == "NP":
            values.append(len(stack))
        if not node.is_leaf:
            stack.extend(reversed(node.children))
    return tuple(values)


def np_grouped_stack_oracle(tree) -> tuple[int, ...]:
    """Stack size when each NP is popped, as in grouped_stack_oracle_depths."""
    values = []
    stack = [tree]
    while stack:
        entry = stack.pop()
        if isinstance(entry, tuple):
            if len(entry) > 1:
                stack.append(entry[1:])
            stack.append(entry[0])
            continue
        if entry.label == "NP":
            values.append(len(stack))
        if not entry.is_leaf:
            if len(entry.children) > 1:
                stack.append(entry.children[1:])
            stack.append(entry.children[0])
    return tuple(values)


def test_np_depths_match_the_stack_machines():
    trees = treegen.random_trees(
        seed=36, count=2000, max_depth=7, labels=treegen.COORD_LABELS
    )
    measured = 0
    for tree in trees:
        yngve = np_depths(tree, config(YNGVE)).values
        sampson = np_depths(tree, config(SAMPSON)).values
        assert yngve == np_stack_oracle(tree)
        assert sampson == np_grouped_stack_oracle(tree)
        measured += len(yngve) + len(sampson)
    assert measured > 10_000


def test_oracles_match_unadjusted_depths_on_random_trees():
    for tree in treegen.random_trees(seed=31, count=400, max_depth=7):
        assert word_depths(tree, config(YNGVE)) == stack_oracle_depths(tree)
        assert word_depths(tree, config(SAMPSON)) == grouped_stack_oracle_depths(tree)


def test_yngve_dominates_sampson_pointwise():
    trees = treegen.random_trees(
        seed=32, count=300, max_depth=7, labels=treegen.COORD_LABELS
    )
    for tree in trees:
        for adjust in (False, True):
            y = word_depths(tree, config(YNGVE, adjust=adjust)).values
            s = word_depths(tree, config(SAMPSON, adjust=adjust)).values
            assert len(y) == len(s)
            assert all(a >= b for a, b in zip(y, s))


def test_adjusted_depths_never_exceed_unadjusted():
    trees = treegen.random_trees(
        seed=33, count=300, max_depth=7, labels=treegen.COORD_LABELS
    )
    for tree in trees:
        for scheme in (YNGVE, SAMPSON):
            plain = word_depths(tree, config(scheme)).values
            adjusted = word_depths(tree, config(scheme, adjust=True)).values
            assert all(a <= p for a, p in zip(adjusted, plain))


def test_last_word_depth_is_zero_in_every_config():
    trees = treegen.random_trees(
        seed=34, count=200, max_depth=6, labels=treegen.COORD_LABELS
    )
    for tree in trees:
        for scheme in (YNGVE, SAMPSON):
            for adjust in (False, True):
                assert word_depths(tree, config(scheme, adjust=adjust)).values[-1] == 0


def test_depth_zero_words_agree_between_schemes_unadjusted():
    # Both schemes give 0 exactly on the all-rightmost path, so their zero
    # positions coincide; without coordination that is only the last word.
    for tree in treegen.random_trees(seed=35, count=300, max_depth=7):
        y = word_depths(tree, config(YNGVE)).values
        s = word_depths(tree, config(SAMPSON)).values
        zeros_y = [i for i, v in enumerate(y) if v == 0]
        zeros_s = [i for i, v in enumerate(s) if v == 0]
        assert zeros_y == zeros_s == [len(y) - 1]


def test_np_depths_example():
    profile = np_depths(tree_of(EXAMPLE), config(YNGVE))
    assert profile.values == (1, 0)
    assert profile.sentence_max == 1


def test_np_depths_without_np():
    profile = np_depths(tree_of("(S (V run))"), config(YNGVE))
    assert profile.values == ()
    assert profile.sentence_max == 0


def test_np_depth_at_root_is_zero():
    assert np_depths(tree_of("(NP (N w))"), config(YNGVE)).values == (0,)


NESTED_NP = "(S (NP (NP (N w)) (PP (P of) (NP (N x)))) (V v))"


def test_np_depths_all_selector_counts_nested():
    profile = np_depths(tree_of(NESTED_NP), config(YNGVE))
    # Outer NP sits under the S with one pending sibling; the first inner NP
    # adds its own pending PP; the NP inside the PP adds nothing new.
    assert profile.values == (1, 2, 1)


def test_np_depths_maximal_selector_skips_nested():
    profile = np_depths(
        tree_of(NESTED_NP), config(YNGVE, maximal_np=True)
    )
    assert profile.values == (1,)


def test_np_depth_ignores_material_inside_the_phrase():
    small = np_depths(tree_of("(S (NP (N w)) (V v))"), config(YNGVE))
    big = np_depths(
        tree_of("(S (NP (DT the) (J big) (J red) (N w)) (V v))"),
        config(YNGVE),
    )
    assert small.values == big.values == (1,)


def test_np_depths_sampson_scheme():
    text = "(S (A a) (B b) (NP (N w)))"
    assert np_depths(tree_of(text), config(YNGVE)).values == (0,)
    text2 = "(S (NP (N w)) (A a) (B b))"
    assert np_depths(tree_of(text2), config(YNGVE)).values == (2,)
    assert np_depths(tree_of(text2), config(SAMPSON)).values == (1,)


def test_coordinator_labels_are_exactly_cc_and_conjp():
    assert COORDINATOR_LABELS == {"CC", "CONJP"}
