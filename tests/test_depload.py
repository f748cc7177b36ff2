"""Dependency load: pending-head counts and their store-simulation oracle."""

from __future__ import annotations

import pytest

import treegen
from oracles import load_profile_oracle
from memload.depload import LeftwardHead, ensure_rightward, load_profile
from memload.treebank import DependencySentence


def profile_of(heads: list[int]) -> tuple[int, ...]:
    return load_profile(DependencySentence.from_heads(heads)).values


def test_walkthrough_sentence():
    sentence = DependencySentence.from_heads(
        [2, 5, 4, 5, 0],
        ["sono", "shounen-wa", "chiisai", "ningyou-wo", "motteiru"],
    )
    assert load_profile(sentence).values == (1, 1, 2, 2, 0)
    assert load_profile_oracle(sentence).values == (1, 1, 2, 2, 0)
    assert load_profile(sentence).sentence_max == 2


def test_walkthrough_pending_set_after_step_four():
    # After reading unit 4, the units still waiting for their head are
    # exactly 2 (shounen-wa) and 4 (ningyou-wo), both headed by unit 5.
    heads = (2, 5, 4, 5, 0)
    n = len(heads)
    resolved_at = [h if h else n for h in heads]
    pending = {j + 1 for j in range(4) if resolved_at[j] > 4}
    assert pending == {2, 4}


def test_single_unit():
    assert profile_of([0]) == (0,)


def test_shared_head_stacks_up():
    assert profile_of([3, 3, 0]) == (1, 2, 0)


def test_chain():
    assert profile_of([2, 3, 0]) == (1, 1, 0)


def test_leftward_heads_never_pend():
    # Only the root pends here; units 2 and 3 resolve the moment they are
    # read because their heads lie to the left.
    assert profile_of([0, 1]) == (1, 0)
    assert profile_of([0, 1, 1]) == (1, 1, 0)
    assert profile_of([2, 0, 2]) == (1, 1, 0)


def test_root_resolves_at_sentence_end():
    # Root first: it alone stays pending until the last unit is read.
    assert profile_of([0, 1, 2]) == (1, 1, 0)


def test_exhaustive_agreement_up_to_six_units():
    checked = 0
    for n in range(1, 7):
        for sentence in treegen.all_dep_sentences(n):
            assert load_profile(sentence) == load_profile_oracle(sentence)
            checked += 1
    assert checked == sum(
        n * (n - 1) ** (n - 1) for n in range(1, 7)
    )  # 20153 head assignments


def test_random_agreement_long_sentences():
    for sentence in treegen.random_dep_sentences(seed=7, count=1000, max_len=40):
        assert load_profile(sentence) == load_profile_oracle(sentence)


def test_random_agreement_dep_long_shape():
    # Up to 200 units, as in the benchmark's dep-long corpus.
    for sentence in treegen.random_dep_sentences(seed=11, count=300, max_len=200):
        assert load_profile(sentence) == load_profile_oracle(sentence)


def test_long_sentence_closed_forms():
    n = 20000
    ones = (1,) * (n - 1) + (0,)
    # Every unit waits for the final root.
    assert profile_of([n] * (n - 1) + [0]) == tuple(range(1, n)) + (0,)
    # Each unit is resolved by the next one.
    assert profile_of(list(range(2, n + 1)) + [0]) == ones
    # Root first; every other unit points left, so only the root pends.
    assert profile_of([0] + list(range(1, n))) == ones


def test_final_value_always_zero():
    for sentence in treegen.random_dep_sentences(seed=8, count=300):
        assert load_profile(sentence).values[-1] == 0


def test_step_delta_at_most_one_up():
    # Reading one unit can add at most one pending unit.
    for sentence in treegen.random_dep_sentences(seed=9, count=300):
        values = load_profile(sentence).values
        assert all(b - a <= 1 for a, b in zip(values, values[1:]))


def test_rightward_sentences_stay_loaded_until_the_end():
    import random

    rng = random.Random(10)
    for _ in range(200):
        sentence = treegen.rightward_dep_sentence(rng, max_len=30)
        ensure_rightward(sentence)
        values = load_profile(sentence).values
        assert all(v >= 1 for v in values[:-1])
        assert values[-1] == 0


def test_rightward_corpus_zero_bin_equals_sentence_count():
    import random

    from memload.stats import unit_histogram

    rng = random.Random(13)
    profiles = [
        load_profile(treegen.rightward_dep_sentence(rng, max_len=25))
        for _ in range(250)
    ]
    assert unit_histogram(profiles).bins[0] == 250


def test_ensure_rightward_raises_with_offenders():
    sentence = DependencySentence.from_heads([0, 1])
    with pytest.raises(LeftwardHead) as info:
        ensure_rightward(sentence)
    assert "[2]" in str(info.value)


def test_ensure_rightward_accepts_root_anywhere():
    # head 0 is the root marker, not a leftward link.
    ensure_rightward(DependencySentence.from_heads([0]))
    ensure_rightward(DependencySentence.from_heads([2, 0]))
    ensure_rightward(DependencySentence.from_heads([3, 3, 0]))
