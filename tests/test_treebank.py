"""Parsing, validation, and normalization of treebank inputs."""

from __future__ import annotations

import copy
import gc
import operator
import pickle
import random
import re
import sys
import tracemalloc
from dataclasses import dataclass
from itertools import cycle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treegen
from memload import treebank
from test_cli import LINE_BREAKS, escaped
from memload.treebank import (
    _TOKEN_RE,
    ConstituencyTree,
    DependencySentence,
    DependencyUnit,
    DepFormatError,
    EmptyAfterNormalization,
    EmptyTree,
    HeadOutOfRange,
    LeafWithoutLabel,
    MalformedLine,
    MissingRoot,
    MultipleRoots,
    NonContiguousIndices,
    PtbParseError,
    SelfHead,
    UnbalancedBrackets,
    normalize_tree,
    parse_dep_corpus,
    parse_ptb_corpus,
)

EXAMPLE = "(S (NP (DT The) (N boy)) (VP (V has) (NP (DT a) (J small) (N doll))))"


def leaf_surfaces(tree: ConstituencyTree) -> list[str]:
    return [leaf.surface for leaf in tree.leaves()]


def read_all(reader, text: str, **kwargs) -> list:
    """Every sentence reader(text, **kwargs) gives, read to the end, as a list.

    A test indexes, counts or compares the result, or waits for the raise or
    on_error call a sentence makes, only once the whole text is read.
    """
    return list(reader(text, **kwargs))


# A deliberately separate reader used to cross-check wrapper handling: it
# builds plain nested lists and knows nothing about the library internals.
def reference_read(text: str) -> list:
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    stack: list[list] = [[]]
    for token in tokens:
        if token == "(":
            stack.append([])
        elif token == ")":
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(token)
    return stack[0]


def as_nested(tree: ConstituencyTree):
    if not tree.children:
        return tree.surface
    return [tree.label] + [as_nested(child) for child in tree.children]


REFERENCE_SAMPLES = [
    EXAMPLE,
    "( (S (NP-SBJ (DT The) (NN dog)) (VP (VBD barked)) (. .)) )",
    "( (S (NP (PRP It)) (VP (VBZ works))) )",
    "(NP (DT a) (N test))",
    "( (SINV (VP (VBN Attached)) (VP (VBZ is)) (NP (NN mail))) )",
    "( (S (S (NP (N A)) (VP (V b))) (CC and) (S (NP (N C)) (VP (V d)))) )",
    "(X (Y (Z deep) (W end)) (V w))",
    "( (FRAG (INTJ (UH No))) )",
    "( (S (NP (N One))) (S (NP (N Two))) )",
    "(S (N a) (N b) (N c) (N d) (N e))",
]


def test_parse_example_tree():
    [tree] = parse_ptb_corpus(EXAMPLE)
    assert tree.label == "S"
    assert leaf_surfaces(tree) == ["The", "boy", "has", "a", "small", "doll"]
    assert [child.label for child in tree.children] == ["NP", "VP"]


def test_wrapper_unwrapped():
    [tree] = parse_ptb_corpus("( (S (N w)))")
    assert tree.label == "S"
    assert leaf_surfaces(tree) == ["w"]


def test_wrapper_with_several_trees():
    trees = read_all(parse_ptb_corpus, "( (S (N a)) (S (N b)) )")
    assert [t.label for t in trees] == ["S", "S"]


def test_reference_reader_agreement():
    for sample in REFERENCE_SAMPLES:
        expected = reference_read(sample)
        # The library unwraps a label-less outer wrapper; mirror that on the
        # reference output, where such a wrapper shows up as a list whose
        # every element is itself a list.
        unwrapped = []
        for item in expected:
            if item and isinstance(item[0], list):
                unwrapped.extend(item)
            else:
                unwrapped.append(item)
        got = [as_nested(tree) for tree in read_all(parse_ptb_corpus, sample)]
        assert got == unwrapped, sample


def test_whitespace_and_multiline_input():
    text = "  (S\n    (N a)\n    (V b))\n\n(S (N c))\n"
    trees = read_all(parse_ptb_corpus, text)
    assert [leaf_surfaces(t) for t in trees] == [["a", "b"], ["c"]]


def test_empty_input_yields_no_trees():
    assert read_all(parse_ptb_corpus, "") == []
    assert read_all(parse_ptb_corpus, "   \n  \n") == []


def test_unclosed_bracket_raises_with_position():
    with pytest.raises(UnbalancedBrackets) as info:
        read_all(parse_ptb_corpus, "(S (N a)")
    assert info.value.line == 1
    assert info.value.column == 1
    assert "line 1" in str(info.value)


def test_stray_close_bracket():
    with pytest.raises(UnbalancedBrackets) as info:
        read_all(parse_ptb_corpus, "(S (N a)) )")
    assert info.value.column == 11


def test_empty_tree_errors():
    with pytest.raises(EmptyTree):
        read_all(parse_ptb_corpus, "()")
    with pytest.raises(EmptyTree):
        read_all(parse_ptb_corpus, "(X)")


def test_bare_word_at_top_level():
    with pytest.raises(LeafWithoutLabel):
        read_all(parse_ptb_corpus, "hello")


def test_bare_word_under_wrapper():
    with pytest.raises(LeafWithoutLabel):
        read_all(parse_ptb_corpus, "( (S (N a)) stray )")


def test_nested_unlabeled_node_rejected():
    with pytest.raises(PtbParseError):
        read_all(parse_ptb_corpus, "(S ((N w)))")


@pytest.mark.parametrize(
    "read, text, error, message",
    [
        (parse_ptb_corpus, "(S (N a)) )", UnbalancedBrackets, "unmatched ')' (line 1, column 11)"),
        (parse_ptb_corpus, "(N a)\n (X)", EmptyTree, "node 'X' has no children (line 2, column 2)"),
        (
            parse_ptb_corpus,
            "hello",
            LeafWithoutLabel,
            "surface token 'hello' outside any tree (line 1, column 1)",
        ),
        (parse_ptb_corpus, "(S ((N w)))", PtbParseError, "node without a label (line 1, column 4)"),
        (
            parse_dep_corpus,
            "1\ta\t0\n\n1\tb\n",
            MalformedLine,
            "expected INDEX<TAB>SURFACE<TAB>HEAD, got 2 field(s) (line 3)",
        ),
    ],
    ids=["UnbalancedBrackets", "EmptyTree", "LeafWithoutLabel", "PtbParseError", "MalformedLine"],
)
def test_positioned_errors_survive_pickle_and_copy(read, text, error, message):
    with pytest.raises(error) as info:
        read_all(read, text)
    raised = info.value
    assert type(raised) is error and str(raised) == message
    for clone in (pickle.loads(pickle.dumps(raised)), copy.copy(raised), copy.deepcopy(raised)):
        assert type(clone) is error and str(clone) == message and vars(clone) == vars(raised)


@pytest.mark.parametrize(
    "newline",
    ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"],
    ids=["lf", "crlf", "cr", "vt", "ff", "fs", "gs", "rs", "nel", "ls", "ps"],
)
def test_error_position_on_later_line(newline):
    with pytest.raises(EmptyTree) as info:
        read_all(parse_ptb_corpus, f"(S (N a)){newline}(S (X) (N b))")
    assert info.value.line == 2
    assert info.value.column == 4


def test_error_positions_across_reports_after_crlf_lines():
    # Each report counts lines on from the one before it.
    text = "\r\n".join(
        ["(S (N a))", "(X)", "", "  () (S (N b)) )", "(S (N c) x", "  (N) () )", "", "(S"]
    )
    errors: list[PtbParseError] = []
    trees = read_all(parse_ptb_corpus, text, on_error=errors.append)
    assert [leaf_surfaces(t) for t in trees] == [["a"], ["b"]]
    assert [(type(e), e.line, e.column) for e in errors] == [
        (EmptyTree, 2, 1),
        (EmptyTree, 4, 3),
        (UnbalancedBrackets, 4, 16),
        (EmptyTree, 6, 3),
        (UnbalancedBrackets, 8, 1),
    ]


@pytest.mark.parametrize("newline", LINE_BREAKS, ids=escaped)
def test_ptb_reader_drops_a_byte_order_mark_that_starts_a_line(newline):
    # As the CLI reads `cat a.ptb b.ptb` of two marked files.
    plain = read_all(parse_ptb_corpus, "(S (N a)) (S (N b))")
    assert read_all(parse_ptb_corpus, f"(S (N a)){newline}\ufeff(S (N b))") == plain
    text = newline.join(["\ufeff(S (N a))", "\ufeff(S (N b)) (\ufeffX)", "\ufeff ( (S (N c)) )"])
    errors: list[PtbParseError] = []
    trees = read_all(parse_ptb_corpus, text, on_error=errors.append)
    assert [leaf_surfaces(t) for t in trees] == [["a"], ["b"], ["c"]]
    # A mark anywhere else in a line is text: here, part of a label.
    assert [str(e) for e in errors] == [r"node '\ufeffX' has no children (line 2, column 11)"]


@pytest.mark.parametrize("newline", LINE_BREAKS, ids=escaped)
def test_dep_reader_drops_a_byte_order_mark_that_starts_a_line(newline):
    text = newline.join(["{0}1\ta\t0", "{0}", "{0}1\tb\t2", "{0}2\t{0}c\t0", "{0}#", ""])
    plain = read_all(parse_dep_corpus, text.format(""))
    assert read_all(parse_dep_corpus, text.format("\ufeff")) == plain[:1] + [
        DependencySentence([DependencyUnit(1, "b", 2), DependencyUnit(2, "\ufeffc", 0)])
    ]
    with pytest.raises(MalformedLine) as info:
        read_all(parse_dep_corpus, f"1\ta\t0{newline}\ufeff\ufeff2\tb\t1")
    assert info.value.line_no == 2  # a second mark is text: the index is not an integer


def test_readers_drop_a_byte_order_mark_at_the_text_start():
    assert read_all(parse_ptb_corpus, "\ufeff(S (N a))") == read_all(parse_ptb_corpus, "(S (N a))")
    assert read_all(parse_dep_corpus, "\ufeff1\ta\t0\n") == read_all(parse_dep_corpus, "1\ta\t0\n")
    with pytest.raises(EmptyTree) as info:
        read_all(parse_ptb_corpus, "\ufeff  (X)")
    assert (info.value.line, info.value.column) == (1, 3)


def test_on_error_skips_only_bad_sentences():
    text = "(S (N a)) () (S (N b)) ) (S (N c))"
    errors: list[PtbParseError] = []
    trees = read_all(parse_ptb_corpus, text, on_error=errors.append)
    assert [leaf_surfaces(t) for t in trees] == [["a"], ["b"], ["c"]]
    assert len(errors) == 2
    assert isinstance(errors[0], EmptyTree)
    assert isinstance(errors[1], UnbalancedBrackets)


def test_unclosed_bracket_poisons_only_its_tail():
    errors: list[PtbParseError] = []
    trees = read_all(parse_ptb_corpus, "(S (N a)) (S (N b)", on_error=errors.append)
    assert [leaf_surfaces(t) for t in trees] == [["a"]]
    assert len(errors) == 1
    # An error inside the unclosed tail is not reported on its own: the tail
    # yields one UnbalancedBrackets at its opening bracket.
    errors.clear()
    trees = read_all(parse_ptb_corpus, "(S (N a)) (S (X) (N b)", on_error=errors.append)
    assert [leaf_surfaces(t) for t in trees] == [["a"]]
    assert len(errors) == 1
    assert isinstance(errors[0], UnbalancedBrackets)
    assert (errors[0].line, errors[0].column) == (1, 11)


def test_bad_tree_skips_its_whole_wrapper():
    errors: list[PtbParseError] = []
    trees = read_all(parse_ptb_corpus, "( (S (N a)) (X) ) (S (N b))", on_error=errors.append)
    assert [leaf_surfaces(t) for t in trees] == [["b"]]
    assert len(errors) == 1
    assert isinstance(errors[0], EmptyTree)


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("( (X a) " + "b " * 400_000 + ")", LeafWithoutLabel,
         "surface token 'b' directly under an unlabeled wrapper (line 1, column 9)"),
        ("( " + "() " * 200_000 + ")", EmptyTree, "empty node (line 1, column 3)"),
        ("( () " + "(S (NP (N a) (N b)) (V c)) " * 100_000 + ")", EmptyTree,
         "empty node (line 1, column 3)"),
    ],
    ids=["stray-surfaces", "empty-nodes", "trees-after-the-error"],
)
def test_a_bad_group_keeps_only_its_first_error(text, error, message):
    # Hundreds of thousands of faults, or of well-formed trees, after a group's
    # first error: only that error is kept, and nothing after it is built.
    tracemalloc.start()
    try:
        with pytest.raises(error) as info:
            read_all(parse_ptb_corpus, text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(info.value) == message
    assert peak < 2_000_000


def deep_chain_text(depth: int) -> str:
    return "(S " * depth + "w" + ")" * depth


def test_deeply_nested_tree():
    depth = 50000
    text = deep_chain_text(depth)
    [tree] = parse_ptb_corpus(text)
    assert leaf_surfaces(tree) == ["w"]
    assert tree.to_bracketed() == text
    levels = 0
    while tree.children:
        assert tree.label == "S" and len(tree.children) == 1
        tree = tree.children[0]
        levels += 1
    assert levels == depth
    assert tree.surface == "w"


@pytest.fixture(scope="module")
def deep_chains() -> tuple[ConstituencyTree, ConstituencyTree, ConstituencyTree]:
    """A 50,000-deep chain, a second parse of it, and a chain one level shorter."""
    return tuple(
        read_all(parse_ptb_corpus, deep_chain_text(depth))[0] for depth in (50000, 50000, 49999)
    )


def test_deep_tree_equality(deep_chains):
    tree, same, shorter = deep_chains
    assert tree == same and tree is not same
    assert tree != shorter


def test_deep_tree_hash(deep_chains):
    tree, same, shorter = deep_chains
    assert hash(tree) == hash(same)
    assert len({tree, same, shorter}) == 2


def test_deep_tree_repr(deep_chains):
    text = repr(deep_chains[0])
    assert text.startswith("ConstituencyTree(label='S', children=(ConstituencyTree(")
    assert text.count("ConstituencyTree(") == 50001


@dataclass(frozen=True)
class TreeMirror:
    """ConstituencyTree's fields with the dataclass-generated ==, hash and repr."""

    label: str
    children: tuple
    surface: str


def mirror(tree: ConstituencyTree) -> TreeMirror:
    return TreeMirror(tree.label, tuple(map(mirror, tree.children)), tree.surface)


def test_eq_hash_repr_match_the_dataclass_ones():
    trees = treegen.random_trees(
        seed=43, count=300, max_depth=5, max_branching=4, labels=treegen.MESSY_LABELS
    )
    for tree, other in zip(trees, trees[1:] + trees[:1]):
        [copy] = parse_ptb_corpus(tree.to_bracketed())
        near = ConstituencyTree(
            tree.label, tree.children[:-1] + (ConstituencyTree(surface="zz"),)
        )
        # One more leaf under the last internal node in preorder: the two
        # preorder runs agree up to that node.
        text = tree.to_bracketed()
        end = text.index(")", text.rindex("("))
        [longer] = parse_ptb_corpus(text[:end] + " zz" + text[end:])
        for b in (copy, other, near, longer, tree.children[0]):
            assert (tree == b) == (mirror(tree) == mirror(b))
            assert (tree != b) == (mirror(tree) != mirror(b))
        assert tree == copy and tree != near and tree != longer != tree
        assert tree != tree.children[0] != tree
        assert hash(tree) == hash(repr(tree)) == hash(copy)
        assert repr(tree) == repr(mirror(tree)).replace("TreeMirror(", "ConstituencyTree(")
    assert ConstituencyTree(surface="w").__eq__("w") is NotImplemented


def test_leaves_with_one_surface_are_one_shared_leaf():
    first, second = parse_ptb_corpus("(S-1 (N a) (, ,) (V b) (N a))\n(S (N a))\n")
    a = first.children[0].children[0]
    assert a is first.children[3].children[0] is second.children[0].children[0]
    assert a is not first.children[2].children[0]
    # normalize_tree rebuilds S (its label and children change) but keeps the leaves.
    cleaned = normalize_tree(first)
    assert cleaned.to_bracketed() == "(S (N a) (V b) (N a))"
    assert [leaf.surface for leaf in cleaned.leaves()] == ["a", "b", "a"]
    assert all(map(operator.is_, cleaned.leaves(), [a, first.children[2].children[0], a]))
    # A second call shares nothing with the first.
    [again] = parse_ptb_corpus("(S (N a))")
    assert again.children[0].children[0] is not a


def test_parsed_trees_with_shared_leaves_match_built_ones():
    def word(surface):
        return ConstituencyTree(surface=surface)

    the_dog = [ConstituencyTree("NP", [word("the"), word("dog")])]
    built = ConstituencyTree("S", the_dog + [ConstituencyTree("VP", [word("saw")] + the_dog)])
    trees = [built] + treegen.random_trees(seed=44, count=200, max_depth=5, max_branching=4)
    parsed = read_all(parse_ptb_corpus, "\n".join(tree.to_bracketed() for tree in trees))
    assert parsed[0].children[0].children[0] is parsed[0].children[1].children[1].children[0]
    for tree, reparsed in zip(trees, parsed, strict=True):
        assert reparsed == tree and tree == reparsed
        assert hash(reparsed) == hash(tree)
        assert repr(reparsed) == repr(tree)


PTB_TOKEN_RE = re.compile(r"[()]|[^()\s]+")


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.sampled_from(
            ["(", ")", "S", "NP", "-NONE-", "w", "dog", " ", "\t", "\n", "\r", "\r\n"]
        ),
        max_size=60,
    ).map("".join)
)
def test_errors_point_at_tokens(text):
    errors: list[PtbParseError] = []
    read_all(parse_ptb_corpus, text, on_error=errors.append)
    lines = text.splitlines()
    for error in errors:
        assert 1 <= error.line <= len(lines)
        line = lines[error.line - 1]
        token_starts = {m.start() + 1 for m in PTB_TOKEN_RE.finditer(line)}
        assert error.column in token_starts, (error, line)


# Every code point that str.isspace, and so str.split(), takes for whitespace.
WHITESPACE = (
    "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004"
    "\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000"
)


def ptb_split(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def test_split_and_token_regex_agree_on_whitespace():
    everything = "".join(map(chr, range(sys.maxunicode + 1)))
    assert "".join(filter(str.isspace, everything)) == WHITESPACE
    assert "".join(re.findall(r"\s", everything)) == WHITESPACE
    assert len(WHITESPACE) == 29
    text = "(S" + WHITESPACE.join(["(N a)", "b", "(", "c)d", ")", "(e(f))"]) + "g"
    assert _TOKEN_RE.findall(text) == ptb_split(text)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(["(", ")", "a", "NP", "\ufeff", *WHITESPACE])).map("".join))
def test_split_tokens_are_the_token_regex_matches(text):
    assert _TOKEN_RE.findall(text) == ptb_split(text)


def splitlines_tokens(text: str) -> list[tuple[str, int, int]]:
    """Each token of text with its line and column: lines as str.splitlines numbers them,
    each without one byte-order mark at its start."""
    return [
        (match.group(), number, match.start() + 1)
        for number, line in enumerate(text.splitlines(), start=1)
        for match in _TOKEN_RE.finditer(line.removeprefix("\ufeff"))
    ]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(["(", ")", "a", "NP", "\ufeff", *WHITESPACE])).map("".join))
def test_error_positions_are_the_splitlines_positions(text):
    tokens = splitlines_tokens(text)
    # The same tokens one to a line: there an error's line is one more than its token's index.
    one_per_line = "".join(f" {token}\n" for token, _, _ in tokens)
    errors: list[PtbParseError] = []
    indexed: list[PtbParseError] = []
    read_all(parse_ptb_corpus, text, on_error=errors.append)
    read_all(parse_ptb_corpus, one_per_line, on_error=indexed.append)
    assert [type(e) for e in errors] == [type(e) for e in indexed]
    assert [(e.line, e.column) for e in errors] == [tokens[e.line - 1][1:] for e in indexed]


@pytest.mark.parametrize("shift", range(2, 37, 2))
def test_tokens_across_the_piece_boundary(shift):
    # The reader splits the text in pieces of about 64K characters; move
    # the last tree across the first cut, so each of its tokens straddles it.
    text = " " * shift + "(S (N a))\n" * 6550 + "(NP (DT word) (NN longerword)) ) x"
    errors: list[PtbParseError] = []
    trees = read_all(parse_ptb_corpus, text, on_error=errors.append)
    assert len(trees) == 6551
    assert as_nested(trees[-1]) == ["NP", ["DT", "word"], ["NN", "longerword"]]
    assert [(type(e), e.line, e.column) for e in errors] == [
        (UnbalancedBrackets, 6551, 32),
        (LeafWithoutLabel, 6551, 34),
    ]


@pytest.mark.parametrize(
    "space, positions",
    [
        ("\x85", [(2, 1), (4, 1)]),  # a line break, as for str.splitlines
        ("\u2028", [(2, 1), (4, 1)]),
        ("\u3000", [(1, 11), (1, 16)]),  # whitespace that breaks no line
        ("\xa0", [(1, 11), (1, 16)]),
        ("\u2003", [(1, 11), (1, 16)]),
        ("\v", [(2, 1), (4, 1)]),
        ("\f", [(2, 1), (4, 1)]),
        ("\x1c", [(2, 1), (4, 1)]),
        ("\x1d", [(2, 1), (4, 1)]),
        ("\x1e", [(2, 1), (4, 1)]),
        ("\u2029", [(2, 1), (4, 1)]),
        ("\r\n", [(2, 1), (4, 1)]),
    ],
)
def test_error_columns_after_unicode_whitespace(space, positions):
    text = "(S (N a))" + space.join(["", "(X", ")", ") (N", "b)"])
    errors: list[PtbParseError] = []
    assert len(read_all(parse_ptb_corpus, text, on_error=errors.append)) == 2
    assert [type(e) for e in errors] == [EmptyTree, UnbalancedBrackets]
    assert [(e.line, e.column) for e in errors] == positions


def test_round_trip_random_trees():
    rng = random.Random(4)
    for _ in range(200):
        tree = treegen.random_tree(rng, max_depth=6, max_branching=4)
        assert read_all(parse_ptb_corpus, tree.to_bracketed()) == [tree]


PTB_TOKENS = st.text(
    st.characters(blacklist_characters="()", blacklist_categories=("Cs",)),
    min_size=1,
    max_size=5,
).filter(lambda token: not any(c.isspace() for c in token))
PTB_TREES = st.builds(
    ConstituencyTree,
    PTB_TOKENS,
    st.lists(
        st.recursive(
            st.builds(ConstituencyTree, surface=PTB_TOKENS),
            lambda kids: st.builds(
                ConstituencyTree, PTB_TOKENS, st.lists(kids, min_size=1, max_size=4)
            ),
            max_leaves=30,
        ),
        min_size=1,
        max_size=4,
    ),
)


@settings(max_examples=200, deadline=None)
@given(PTB_TREES)
def test_ptb_round_trip(tree):
    assert read_all(parse_ptb_corpus, tree.to_bracketed()) == [tree]


def test_tree_constructor_invariants():
    with pytest.raises(ValueError):
        ConstituencyTree(label="", children=(ConstituencyTree(surface="w"),))
    with pytest.raises(ValueError):
        ConstituencyTree(label="X")
    with pytest.raises(ValueError):
        ConstituencyTree(label="X", children=(ConstituencyTree(surface="w"),), surface="y")
    # A child that only prints like a tree, and a leaf with a label, break == and the round trip.
    with pytest.raises(TypeError):
        ConstituencyTree("S", ["ConstituencyTree(label='', children=(), surface='a')"])
    with pytest.raises(TypeError):
        ConstituencyTree("S", [ConstituencyTree(surface="a"), ("a",)])
    with pytest.raises(ValueError):
        ConstituencyTree(label="N", surface="a")


def test_parse_dep_example():
    text = (
        "1\tsono\t2\n"
        "2\tshounen-wa\t5\n"
        "3\tchiisai\t4\n"
        "4\tningyou-wo\t5\n"
        "5\tmotteiru\t0\n"
    )
    [sentence] = parse_dep_corpus(text)
    assert sentence.heads == (2, 5, 4, 5, 0)
    assert [u.surface for u in sentence.units][:2] == ["sono", "shounen-wa"]


def test_parse_dep_comments_and_blank_lines():
    text = "# a comment\n1\ta\t0\n\n\n# only\n# comments\n\n# another\n1\tb\t2\n2\tc\t0\n"
    sentences = read_all(parse_dep_corpus, text)
    assert [s.heads for s in sentences] == [(0,), (2, 0)]


def test_single_unit_sentence():
    [sentence] = parse_dep_corpus("1\tonly\t0\n")
    assert len(sentence) == 1


def test_malformed_line_reports_line_number():
    text = "1\ta\t0\n\n1\tb\n"
    with pytest.raises(MalformedLine) as info:
        read_all(parse_dep_corpus, text)
    assert info.value.line_no == 3
    assert "line 3" in str(info.value)


def test_non_integer_fields():
    with pytest.raises(MalformedLine):
        read_all(parse_dep_corpus, "1\ta\tx\n")
    with pytest.raises(MalformedLine):
        read_all(parse_dep_corpus, "one\ta\t0\n")


def test_empty_surface_rejected():
    with pytest.raises(MalformedLine):
        read_all(parse_dep_corpus, "1\t\t0\n")


def test_multiple_roots():
    with pytest.raises(MultipleRoots):
        read_all(parse_dep_corpus, "1\ta\t0\n2\tb\t0\n")


def test_missing_root():
    with pytest.raises(MissingRoot):
        read_all(parse_dep_corpus, "1\ta\t2\n2\tb\t1\n")


def test_self_head():
    with pytest.raises(SelfHead):
        read_all(parse_dep_corpus, "1\ta\t1\n")


def test_non_contiguous_indices():
    with pytest.raises(NonContiguousIndices):
        read_all(parse_dep_corpus, "1\ta\t3\n3\tb\t0\n")
    with pytest.raises(NonContiguousIndices):
        read_all(parse_dep_corpus, "2\ta\t1\n1\tb\t0\n")


def test_head_out_of_range():
    with pytest.raises(HeadOutOfRange):
        read_all(parse_dep_corpus, "1\ta\t5\n2\tb\t0\n")
    with pytest.raises(HeadOutOfRange):
        read_all(parse_dep_corpus, "1\ta\t-1\n2\tb\t0\n")


def outcome(make, *args) -> object:
    """make(*args), or the class and message of the DepFormatError or TypeError it raises."""
    try:
        return make(*args)
    except (DepFormatError, TypeError) as exc:
        return type(exc), str(exc)


def seeded_head_columns(seed: int, count: int) -> list:
    """(index, head) columns of valid sentences of 1..6 units, each head replaced with
    probability one half by a negative head, a head above 2n, a root, a self-head or any
    head within 1..n."""
    rng = random.Random(seed)
    columns = []
    for sentence in treegen.random_dep_sentences(seed, count, max_len=6):
        n, column = len(sentence), []
        for unit, head in enumerate(sentence.heads, start=1):
            faults = (
                -rng.randint(1, 2 * n), rng.randint(2 * n + 1, 3 * n), 0, unit, rng.randint(1, n)
            )
            column.append((unit, rng.choice(faults) if rng.random() < 0.5 else head))
        columns.append(pytest.param(column, None, None, id=f"seeded-{len(columns)}"))
    return columns


@pytest.mark.parametrize(
    "heads_and_indices, error, message",
    [
        # A bad index outranks every head check, and names all the indices.
        ([(1, 5), (3, 1), (2, 0)], NonContiguousIndices, "got [1, 3, 2]"),
        # Among bad heads, the first unit's own check wins: range, then self.
        ([(1, 9), (2, 2), (3, 0)], HeadOutOfRange, "unit 1 has head 9, outside 0..3"),
        ([(1, 1), (2, 9), (3, 0)], SelfHead, "unit 1 depends on itself"),
        # A bad head outranks the root count.
        ([(1, 0), (2, 0), (3, 3)], SelfHead, "unit 3 depends on itself"),
        ([(1, 2), (2, 1), (3, -1)], HeadOutOfRange, "unit 3 has head -1, outside 0..3"),
        ([(1, 0), (2, 1), (3, 0)], MultipleRoots, "units [1, 3] all have head 0"),
        # A head that is not an integer fails here, not in the metric; a bad index still wins.
        ([(1, 2.0), (2, 0)], TypeError, "'float' object cannot be interpreted as an integer"),
        ([(1, "2"), (2, 0)], TypeError, "'str' object cannot be interpreted as an integer"),
        ([(2, 1.5), (1, 0)], NonContiguousIndices, "got [2, 1]"),
        # Any column: the reader, in bulk and line by line, gives what the constructor gives.
        *seeded_head_columns(seed=35, count=60),
    ],
)
def test_dep_validation_precedence(heads_and_indices, error, message):
    units = tuple(DependencyUnit(index, f"w{index}", head) for index, head in heads_and_indices)
    built = outcome(lambda: [DependencySentence(units)])
    if error is not None:
        assert built[0] is error and message in built[1]
    if all(type(head) is int for _, head in heads_and_indices):
        text = "".join(f"{index}\tw{index}\t{head}\n" for index, head in heads_and_indices)
        # A root written "00" is no numeral of the bulk table, so its block is walked.
        for written in (text, text.replace("\t0\n", "\t00\n")):
            assert outcome(read_all, parse_dep_corpus, written) == built


def test_dep_on_error_skips_bad_blocks():
    text = "1\ta\t0\n\n1\tb\t1\n\n1\tc\t0\n"
    errors: list[Exception] = []
    sentences = read_all(parse_dep_corpus, text, on_error=errors.append)
    assert [s.heads for s in sentences] == [(0,), (0,)]
    assert len(errors) == 1
    assert isinstance(errors[0], SelfHead)


def test_dep_block_reports_only_its_first_malformed_line():
    text = "1\ta\t0\n\n1\tb\n2\tc\tx\n\n"
    errors: list[Exception] = []
    sentences = read_all(parse_dep_corpus, text, on_error=errors.append)
    assert [s.heads for s in sentences] == [(0,)]
    assert len(errors) == 1
    assert isinstance(errors[0], MalformedLine)
    assert errors[0].line_no == 3


def test_dep_malformed_block_skips_only_itself():
    text = "1\ta\tx\n2\tb\t0\n\n1\tc\t0\n\n1\td\t2\n2\te\t0\n"
    errors: list[Exception] = []
    sentences = read_all(parse_dep_corpus, text, on_error=errors.append)
    assert [[u.surface for u in s.units] for s in sentences] == [["c"], ["d", "e"]]
    assert [(type(e), e.line_no) for e in errors] == [(MalformedLine, 1)]


def test_dep_comment_inside_block_does_not_split_it():
    [sentence] = parse_dep_corpus("1\ta\t2\n# note\n2\tb\t0\n")
    assert sentence.heads == (2, 0)


def test_dep_crlf_parses_like_lf():
    text = "# c\n1\ta\t2\n2\tb\t0\n\n1\tc\tx\n\n1\td\t0\n"
    runs = []
    for newline in ("\n", "\r\n"):
        errors: list[Exception] = []
        sentences = read_all(parse_dep_corpus, text.replace("\n", newline), on_error=errors.append)
        runs.append((sentences, [(type(e), str(e)) for e in errors]))
    assert runs[0] == runs[1]
    assert len(runs[0][0]) == 2 and len(runs[0][1]) == 1


def test_dep_strict_raises_the_first_bad_line():
    text = "1\ta\t0\n\n1\tb\t0\n2\tc\n3\td\n\n1\te\n"
    with pytest.raises(MalformedLine) as info:
        read_all(parse_dep_corpus, text)
    assert info.value.line_no == 4


def strict_ptb_error_type(text: str) -> list[type]:
    # Not pytest.raises: its ExceptionInfo holds the traceback in a cycle of its own.
    try:
        read_all(parse_ptb_corpus, text)
    except PtbParseError as exc:
        return [type(exc)]
    return []


def dep_error_types(text: str) -> list[type]:
    errors: list[Exception] = []
    read_all(parse_dep_corpus, text, on_error=errors.append)
    return [type(e) for e in errors]


@pytest.mark.parametrize(
    "read, text, want",
    [
        (strict_ptb_error_type, "(S (N a))\n(N b))\n(S (N c))\n", UnbalancedBrackets),
        (dep_error_types, "1\ta\t0\n\n1\tx\ty\n\n1\tb\t0\n", MalformedLine),
        (dep_error_types, "1\ta\t0\n\n1\tx\t1\n\n1\tb\t0\n", SelfHead),
    ],
    ids=["ptb-strict-abort", "dep-malformed-line", "dep-self-head"],
)
def test_reader_errors_leave_no_cyclic_garbage(read, text, want):
    # The CLI pauses the cyclic collector, so an error raised or handed to
    # on_error must not tie the reader's frame into a cycle.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        assert read(text) == [want]
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


# Surfaces hold no tab and no line break, and do not start with "#".
DEP_SURFACES = st.text(min_size=1, max_size=6).filter(
    lambda surface: "\t" not in surface
    and surface.splitlines() == [surface]
    and not surface.startswith("#")
)


@st.composite
def dep_sentences(draw, max_units: int = 30) -> DependencySentence:
    n = draw(st.integers(1, max_units))
    root = draw(st.integers(1, n))
    heads = []
    for i in range(1, n + 1):
        # Any head but the unit itself: draw from n - 1 values, skip over i.
        head = 0 if i == root else draw(st.integers(1, n - 1))
        heads.append(head + (head >= i))
    surfaces = draw(st.lists(DEP_SURFACES, min_size=n, max_size=n))
    return treegen.from_heads(heads, surfaces)


@settings(max_examples=200, deadline=None)
@given(st.lists(dep_sentences(), min_size=1, max_size=4))
def test_dep_round_trip(sentences):
    assert read_all(parse_dep_corpus, treegen.dep_text(sentences)) == sentences


def test_from_heads_builds_surfaces():
    sentence = treegen.from_heads([2, 0])
    assert [u.surface for u in sentence.units] == ["w1", "w2"]


# The per-line dep reader that the bulk one replaced, kept as a reference:
# it parses and checks unit by unit and shares nothing with the library but
# its exception classes.  Sentences come back as (index, surface, head) rows.
def reference_dep_read(text: str, on_error) -> list[list[tuple[int, str, int]]]:
    sentences, units, error = [], [], None
    for line_no, raw in enumerate([*text.splitlines(), ""], start=1):
        if raw.startswith("#"):
            continue
        if raw.strip():
            if error is None:
                try:
                    units.append(reference_dep_line(raw, line_no))
                except MalformedLine as exc:
                    error = exc
            continue
        if units or error is not None:
            try:
                if error is not None:
                    raise error
                sentences.append(reference_dep_check(units))
            except DepFormatError as exc:
                if on_error is None:
                    raise
                on_error(exc)
            units, error = [], None
    return sentences


def reference_dep_line(raw: str, line_no: int) -> tuple[int, str, int]:
    fields = raw.split("\t")
    if len(fields) != 3:
        message = f"expected INDEX<TAB>SURFACE<TAB>HEAD, got {len(fields)} field(s)"
        raise MalformedLine(message, line_no)
    index_text, surface, head_text = fields
    try:
        index, head = int(index_text), int(head_text)
    except ValueError:
        raise MalformedLine("index and head must be integers", line_no) from None
    if not surface:
        raise MalformedLine("empty surface field", line_no)
    return index, surface, head


def reference_dep_check(units: list[tuple[int, str, int]]) -> list[tuple[int, str, int]]:
    n = len(units)
    roots, bad = [], None
    for position, (index, _, head) in enumerate(units, start=1):
        if index != position:
            got = [unit[0] for unit in units]
            raise NonContiguousIndices(f"unit indices must be exactly 1..{n} in order, got {got}")
        if head == 0:
            roots.append(position)
        elif bad is None and (head == position or not 0 < head <= n):
            bad = position, head
    if bad is not None and bad[0] == bad[1]:
        raise SelfHead(f"unit {bad[0]} depends on itself")
    if bad is not None:
        raise HeadOutOfRange(f"unit {bad[0]} has head {bad[1]}, outside 0..{n}")
    if len(roots) > 1:
        raise MultipleRoots(f"units {roots} all have head 0")
    if not roots:
        raise MissingRoot("no unit has head 0")
    return units


def reference_dep_repr(units: list[tuple[int, str, int]]) -> str:
    inner = ", ".join(
        f"DependencyUnit(index={i!r}, surface={s!r}, head={h!r})" for i, s, h in units
    )
    return f"DependencySentence(units=({inner}{',' if len(units) == 1 else ''}))"


# Index and head fields: int() accepts all but the last three.
DEP_NUMBERS = ["0", "1", "2", "3", "-1", " 1", "+2", "1_0", "\u0661", "x", "", "1.0"]
ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))


def odd_numerals(value: int) -> list[str]:
    """Ways to write value that int() reads, but str() does not write."""
    digits = str(value)
    odd = ["0" + digits, " " + digits, digits + "\u3000", "+" + digits]
    return odd + [digits.translate(ARABIC_INDIC)] + [f"{digits[0]}_{digits[1:]}"] * (value >= 10)


@st.composite
def canonical_dep_block(draw) -> list[str]:
    """A sentence of up to 40 units as str() writes it, with at most one line changed.

    The change is an index or a head written another way that int() reads, or
    a line cut short; a comment line may head the block.
    """
    rows = [
        [str(unit.index), unit.surface, str(unit.head)]
        for unit in draw(dep_sentences(max_units=40)).units
    ]
    row = rows[0] if draw(st.booleans()) else draw(st.sampled_from(rows))  # often after a comment
    change = draw(st.sampled_from(["none", "none", "index", "head", "cut"]))
    if change == "cut":
        del row[2]
    elif change != "none":
        column = 0 if change == "index" else 2
        row[column] = draw(st.sampled_from(odd_numerals(int(row[column]))))
    lines = ["\t".join(row) for row in rows]
    return draw(st.sampled_from([[], ["# sent_id"]])) + lines


@st.composite
def dep_texts(draw) -> str:
    """Dep input that is mostly well formed, with every kind of fault mixed in.

    Lines end in any break str.splitlines knows, "\n" most often, so blocks
    are also split apart by "\n\n"; separators are one to three blank or
    whitespace-only lines, and the last line may have no break at all.
    """
    parts = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["noisy", "noisy", "canonical", "comments"]))
        if kind == "canonical":
            parts += draw(canonical_dep_block())
        elif kind == "comments":
            parts += draw(st.lists(st.sampled_from(["# note", "#\t1\tw\t0"]), min_size=1))
        n = draw(st.integers(1, 5)) if kind == "noisy" else 0
        for i in range(1, n + 1):
            index = draw(st.sampled_from([str(i), str(i), str(i + 1), *DEP_NUMBERS]))
            head = draw(st.sampled_from([*map(str, range(n + 1)), *DEP_NUMBERS]))
            surface = draw(st.sampled_from(["w", "a b", "#", ""]))
            faulty = [[index, surface], [head], [index, surface, head, "x"]]
            shapes = [[index, surface, head]] * 8 + faulty
            comment = draw(st.sampled_from([None] * 6 + ["# note", "#\t1\tw\t0"]))
            parts += [comment] if comment else []
            parts.append("\t".join(draw(st.sampled_from(shapes))))
        separator = st.sampled_from(["", "", " ", "\t", "\x1f", "\xa0", "\u3000 "])
        parts += draw(st.lists(separator, min_size=1, max_size=3))
    line_breaks = st.sampled_from(["\n"] * len(LINE_BREAKS) + LINE_BREAKS)
    breaks = draw(st.lists(line_breaks, min_size=len(parts), max_size=len(parts)))
    if breaks and draw(st.booleans()):
        breaks[-1] = ""  # the last line ends the text
    return "".join(part + brk for part, brk in zip(parts, breaks))


def described(errors: list[Exception]) -> list[tuple[type, str, int | None]]:
    return [(type(e), str(e), getattr(e, "line_no", None)) for e in errors]


@settings(max_examples=400, deadline=None)
@given(dep_texts())
def test_dep_reader_agrees_with_the_per_line_reference(text):
    got_errors: list[Exception] = []
    want_errors: list[Exception] = []
    got = read_all(parse_dep_corpus, text, on_error=got_errors.append)
    want = reference_dep_read(text, want_errors.append)
    assert [s.heads for s in got] == [tuple(head for _, _, head in units) for units in want]
    assert [repr(s) for s in got] == [reference_dep_repr(units) for units in want]
    assert described(got_errors) == described(want_errors)
    strict = []
    for read in (parse_dep_corpus, reference_dep_read):
        try:
            list(read(text, None))
        except DepFormatError as exc:
            strict.append(described([exc]))
    assert strict == ([described(got_errors[:1])] * 2 if got_errors else [])


@pytest.mark.parametrize(
    "text, error, line_no",
    [
        ("1\ta\t0\n2\tb\n", "field(s)", 2),
        ("1\ta\t0\t9\n", "field(s)", 1),
        ("1\ta\tx\n2\t\t0\n", "integers", 1),
        ("1\t\tx\n", "integers", 1),  # integers are checked before the surface
        ("1\ta\t0\r\n2\t\t1\r\n", "empty surface", 2),
        ("1\ta\t0\x85# c\x852\tb\n", "field(s)", 3),
        ("# c\n\n1\ta\t1.0\n", "integers", 3),
        ("1\ta\t0\n\n# c\n1\ta\n", "field(s)", 4),  # a comment heads the block
        (" \n1\t\tx\n", "integers", 2),  # a whitespace-only first line
        (" \n\n1\ta\n", "field(s)", 3),  # ... then a blank line
        ("\t\n\n1\ta\t0\n2\tb\n", "field(s)", 4),
        ("\u3000\r\n\r\n# c\r\n1\ta\tx\r\n", "integers", 4),
        ("1\ta\t0\n2\tb\n \t", "field(s)", 2),  # a whitespace-only last line, no last break
        ("1\ta\t0\n\n1\ta\n\n\u3000", "field(s)", 3),
        ("1\ta\t0\n\x1f\n1\ta\n", "field(s)", 3),  # "\x1f" is whitespace, not a line break
    ],
)
def test_dep_malformed_line_is_found_after_the_bulk_parse(text, error, line_no):
    with pytest.raises(MalformedLine) as info:
        read_all(parse_dep_corpus, text)
    assert error in str(info.value) and info.value.line_no == line_no


def test_dep_int_edge_cases_read_as_int_does():
    # " 1", "2 ", "+2", "1_0" and the Arabic-Indic digit three are read by int().
    [sentence] = parse_dep_corpus(" 1\ta\t+2\n2 \tb\t0\n\u0663\tc\t2\n")
    assert sentence.heads == (2, 0, 2)
    with pytest.raises(HeadOutOfRange, match="unit 1 has head 10"):
        read_all(parse_dep_corpus, "1\ta\t1_0\n2\tb\t0\n")


@pytest.mark.parametrize(
    "text, error",
    [
        ("1\ta\t-1\n2\tb\t0\n", HeadOutOfRange),  # fails the head lookup with a KeyError
        ("1\ta\t1_0\n2\tb\t0\n", HeadOutOfRange),
        ("01\ta\t0\n2\tb\n", MalformedLine),  # an odd numeral, then a line cut short
        ("1\ta\t0\n2\tb\t2\n", SelfHead),  # read in bulk, past the head lookup's handler
    ],
    ids=["head-minus-one", "head-1_0", "odd-numeral-then-cut-line", "self-head-in-bulk"],
)
def test_per_line_errors_carry_no_exception_context(text, error):
    # A __context__ would hold a traceback, and with it the reader's frame and lines.
    with pytest.raises(error) as raised:
        read_all(parse_dep_corpus, text)
    handed: list[Exception] = []
    read_all(parse_dep_corpus, text, on_error=handed.append)
    assert [type(exc) for exc in handed] == [error]
    for exc in (raised.value, *handed):
        assert exc.__context__ is None and exc.__cause__ is None


def test_a_numeral_int_reads_gives_the_same_sentence():
    # 300 units in a chain: unit i depends on unit i + 1, the last is the root.
    heads = [*range(2, 301), 0]
    canonical = treegen.dep_text([treegen.from_heads(heads)])
    assert "\n6\tw6\t7\n" in canonical
    odd = canonical.replace("\n6\tw6\t7\n", "\n6\tw6\t007\n")
    assert read_all(parse_dep_corpus, odd) == read_all(parse_dep_corpus, canonical)
    [sentence] = parse_dep_corpus(odd)
    [written] = parse_dep_corpus(canonical)
    assert sentence.heads == tuple(heads) and repr(sentence) == repr(written)


def test_a_long_block_after_a_short_one_reads_as_it_does_alone():
    short = treegen.from_heads([0])
    long = treegen.from_heads([*range(2, 251), 0])
    # The numerals grow mid-call.
    together = read_all(parse_dep_corpus, treegen.dep_text([short, long]))
    alone = read_all(parse_dep_corpus, treegen.dep_text([long]))
    assert together == [short, long] and alone == [long]
    assert [repr(s) for s in together] == [repr(short), repr(long)]


def test_the_reader_keeps_no_memory_after_it_returns():
    # Its numeral table for a 5,000-unit block, about 1 MB, goes with the call.
    read_all(parse_dep_corpus, "1\tw\t0\n")  # whatever the reader loads once, it loads here
    text = treegen.dep_text([treegen.from_heads([*range(2, 5001), 0])])
    tracemalloc.start()
    try:
        read_all(parse_dep_corpus, text)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 50_000


@pytest.mark.parametrize("breaks", ["\n", "\r\n"], ids=["as written", "crlf"])
def test_the_reader_cuts_the_text_where_it_lies(breaks):
    # The chunks are one copy of the text, in pieces; any whole copy besides them would
    # take the peak past 2x.
    text = treegen.random_dep_text(41, 5000).replace("\n", breaks)
    read_all(parse_dep_corpus, "1\tw\t0\n")  # whatever the reader loads once, it loads here
    tracemalloc.start()
    try:
        sentences = read_all(parse_dep_corpus, text)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(sentences) == 5000
    assert peak - held < 2 * len(text)


def dep_variants(text: str) -> dict[str, str]:
    """A written corpus, and its blocks with CRLF breaks, a comment each, two or three blank
    lines or whitespace-only ones between them, and it without its last break or with a
    blank line after it."""
    blocks = text.removesuffix("\n").split("\n\n")
    headed = (f"# sent_id = {k}\n{block}" for k, block in enumerate(blocks))
    spaced = (f"\n{space}\n{block}" for space, block in zip(cycle(" \t\x1f\u3000"), blocks[1:]))
    return {
        "as written": text,
        "crlf": text.replace("\n", "\r\n"),
        "sent_id": "\n\n".join(headed) + "\n",
        "two blank lines": "\n\n\n".join(blocks) + "\n",
        "three blank lines": "\n\n\n\n".join(blocks) + "\n",
        "whitespace blank lines": blocks[0] + "".join(spaced) + "\n",
        "no last break": text.removesuffix("\n"),
        "trailing blank line": text + "\n",
    }


def read_recording(monkeypatch, text: str, **kwargs) -> tuple[list, list[str], list[list[str]]]:
    """parse_dep_corpus(text), the block each _read_bulk call got, and the lines each _walk got."""
    read, walked = [], []
    read_bulk, walk = treebank._read_bulk, treebank._walk

    def bulk(block, *args):
        read.append(block)
        return read_bulk(block, *args)

    def lines(block, first):
        walked.append(list(block))
        return walk(block, first)

    with monkeypatch.context() as patch:
        patch.setattr(treebank, "_read_bulk", bulk)
        patch.setattr(treebank, "_walk", lines)
        sentences = read_all(parse_dep_corpus, text, **kwargs)
    return sentences, read, walked


@pytest.mark.parametrize(
    "variant",
    [
        "as written",
        "crlf",
        "sent_id",
        "two blank lines",
        "three blank lines",
        "whitespace blank lines",
        "no last break",
        "trailing blank line",
    ],
)
def test_a_written_corpus_is_read_in_bulk(monkeypatch, variant):
    # A block that fell to the line walk would be read a second time, line by line, and
    # one that failed its first bulk read would be read in bulk a second time.
    text = treegen.random_dep_text(seed=20, n_sentences=300)
    sentences, read, walked = read_recording(monkeypatch, dep_variants(text)[variant])
    assert walked == []
    assert sentences == treegen.random_dep_sentences(seed=20, count=300, max_len=25)
    assert len(read) == 300


@pytest.mark.parametrize(
    "variant",
    [
        "as written",
        "crlf",
        "sent_id",
        "two blank lines",
        "three blank lines",
        "whitespace blank lines",
    ],
)
def test_a_malformed_line_walks_its_own_block_only(monkeypatch, variant):
    sentences = treegen.random_dep_sentences(seed=21, count=200, max_len=25)
    k = next(k for k in range(100, 200) if len(sentences[k]) >= 3)  # a block mid-corpus
    blocks = [treegen.dep_text([sentence]) for sentence in sentences]
    assert "\n".join(blocks) == treegen.dep_text(sentences)
    lines = blocks[k].splitlines()
    lines[2] = lines[2].rsplit("\t", 1)[0]  # the third line loses its head
    blocks[k] = "\n".join(lines) + "\n"
    text = "\n".join(blocks)
    errors: list[Exception] = []
    read, _, walked = read_recording(
        monkeypatch, dep_variants(text)[variant], on_error=errors.append
    )
    assert [type(e) for e in errors] == [MalformedLine] and "got 2 field(s)" in str(errors[0])
    assert [[line for line in block if line[:1] != "#"] for block in walked] == [lines]
    assert read == sentences[:k] + sentences[k + 1 :]


@pytest.mark.parametrize(
    "fault, error",
    [
        ("self-head", SelfHead),
        ("head in n+1..2n", HeadOutOfRange),
        ("two roots", MultipleRoots),
        ("no root", MissingRoot),
    ],
)
def test_a_written_block_that_breaks_a_head_rule_is_read_once(monkeypatch, fault, error):
    # Every block is written as str() writes it, so its one bulk read decides it.
    rng = random.Random(35)
    columns = [[*s.heads] for s in treegen.random_dep_sentences(seed=35, count=200, max_len=25)]
    for heads in (heads for heads in columns[2::5] if len(heads) > 1):
        n, root = len(heads), heads.index(0) + 1
        unit = rng.choice([unit for unit in range(1, n + 1) if unit != root])
        if fault == "self-head":
            heads[unit - 1] = unit
        elif fault == "head in n+1..2n":
            heads[unit - 1] = rng.randint(n + 1, 2 * n)
        elif fault == "two roots":
            heads[unit - 1] = 0
        else:
            heads[root - 1] = rng.choice([head for head in range(1, n + 1) if head != root])
    blocks = (
        "\n".join(f"{unit}\tw{unit}\t{head}" for unit, head in enumerate(heads, start=1))
        for heads in columns
    )
    text = "\n\n".join(blocks) + "\n"
    built = [outcome(treegen.from_heads, heads) for heads in columns]
    faults = [fault for fault in built if type(fault) is tuple]
    assert {kind for kind, _ in faults} == {error} and len(faults) >= 30
    errors: list[Exception] = []
    sentences, read, walked = read_recording(monkeypatch, text, on_error=errors.append)
    assert len(read) == len(columns) and walked == []
    assert sentences == [sentence for sentence in built if type(sentence) is not tuple]
    assert [(type(exc), str(exc)) for exc in errors] == faults
    assert outcome(read_all, parse_dep_corpus, text) == faults[0]


@settings(max_examples=100, deadline=None)
@given(dep_sentences())
def test_reader_built_sentences_match_constructed_ones(built):
    [read] = parse_dep_corpus(treegen.dep_text([built]))
    assert read.heads == built.heads and read.surfaces == built.surfaces
    assert len(read) == len(built)
    assert read == built and hash(read) == hash(built) and repr(read) == repr(built)
    for clone in (pickle.loads(pickle.dumps(read)), copy.copy(read), copy.deepcopy(read)):
        assert type(clone) is DependencySentence
        assert clone == built and hash(clone) == hash(built) and repr(clone) == repr(built)
    assert read.units == built.units


def test_constructed_sentence_gives_back_equal_units():
    units = (DependencyUnit(1, "a", 2), DependencyUnit(2, "b", 0))
    sentence = DependencySentence(units)
    assert sentence.units == units and sentence.units == ((1, "a", 2), (2, "b", 0))
    assert sentence.heads == (2, 0) and sentence.surfaces == ("a", "b")
    # A unit is read by position, so plain tuples build the same sentence.
    plain = DependencySentence([(1, "a", 2), (2, "b", 0)])
    assert plain == sentence and hash(plain) == hash(sentence) and repr(plain) == repr(sentence)
    for units in ([(1, "a")], [(1, "a", 0, 0)], [(1, "a", 2), (2, "b")]):
        with pytest.raises(ValueError) as info:
            DependencySentence(units)
        assert type(info.value) is ValueError  # the wrong arity, not a treebank error


def test_reading_units_leaves_a_sentence_no_larger():
    heads = [*range(2, 1001), 0]
    text = treegen.dep_text([treegen.from_heads(heads), treegen.from_heads(heads, "w" * 1000)])
    warm, warm_other, one, other = parse_dep_corpus(text + "\n" + text)
    # Whatever a first read, compare and hash load, they load here.
    assert warm != warm_other and len({warm, warm_other}) == 2
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        assert len(one.units) == len(other.units) == 1000
        assert one != other and len({one, other}) == 2
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before < 2_000  # 1,000 units kept take about 80 KB a sentence


def test_comparing_sentences_builds_no_units():
    text = treegen.dep_text([treegen.from_heads([*range(2, 1001), 0])])
    warm, warm_same, one, same = parse_dep_corpus("\n".join([text] * 4))
    assert one is not same
    # Whatever a first compare and hash load, they load here.
    assert warm == warm_same and hash(warm) == hash(warm_same)
    tracemalloc.start()
    try:
        assert one == same and hash(one) == hash(same)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000  # 2,000 units built to compare would take about 200 KB


def test_normalize_label_rules():
    for label, cut in [("NP-SBJ-1", "NP"), ("S=2", "S"), ("NP", "NP"), ("=2", "=2")]:
        [tree] = parse_ptb_corpus(f"(ROOT ({label} (X w)))")
        assert normalize_tree(tree).children[0].label == cut
    # Kept verbatim, not cut to nothing: -NONE- above a phrase, which keeps its word,
    # and -LRB- over a kept punctuation leaf.
    [tree] = parse_ptb_corpus("(S (-NONE- (X w)) (N v))")
    assert normalize_tree(tree).children[0].label == "-NONE-"
    [tree] = parse_ptb_corpus("(S (-LRB- -LRB-) (N v))")
    assert normalize_tree(tree, strip_punctuation=False).children[0].label == "-LRB-"


def test_normalize_strips_trailing_punctuation():
    [tree] = parse_ptb_corpus("(S (NP (N boy)) (VP (V ran)) (. .))")
    cleaned = normalize_tree(tree)
    assert leaf_surfaces(cleaned) == ["boy", "ran"]
    assert [child.label for child in cleaned.children] == ["NP", "VP"]


def test_normalize_cascades_through_emptied_ancestors():
    [tree] = parse_ptb_corpus("(S (NP (N w)) (X (, ,) (. .)))")
    cleaned = normalize_tree(tree)
    assert [child.label for child in cleaned.children] == ["NP"]


def test_normalize_removes_traces():
    [tree] = parse_ptb_corpus("(S (NP-SBJ (-NONE- *T*-1)) (VP (V go)))")
    cleaned = normalize_tree(tree)
    assert leaf_surfaces(cleaned) == ["go"]
    assert cleaned.children[0].label == "VP"


def test_normalize_rewrites_labels():
    [tree] = parse_ptb_corpus("(S (NP-SBJ-1 (N w)) (VP=2 (V v)))")
    cleaned = normalize_tree(tree)
    assert [child.label for child in cleaned.children] == ["NP", "VP"]


def test_normalize_everything_removed():
    [tree] = parse_ptb_corpus("(S (. .) (, ,))")
    with pytest.raises(EmptyAfterNormalization):
        normalize_tree(tree)


def test_normalize_options_keep_punctuation():
    [tree] = parse_ptb_corpus("(S (N w) (. .))")
    kept = normalize_tree(tree, strip_punctuation=False)
    assert leaf_surfaces(kept) == ["w", "."]
    [traced] = parse_ptb_corpus("(S (N w) (-NONE- *T*) (. .))")  # traces go either way
    assert leaf_surfaces(normalize_tree(traced, strip_punctuation=False)) == ["w", "."]


def test_normalize_deep_chain_does_not_recurse():
    depth = 50000
    [tree] = parse_ptb_corpus("(S-1 " * depth + "(, ,) (N w)" + ")" * depth)
    cleaned = normalize_tree(tree)
    expected = "(S " * depth + "(N w)" + ")" * depth
    assert cleaned.to_bracketed() == expected


def test_dollar_label_is_kept():
    [tree] = parse_ptb_corpus("(NP ($ $) (CD 100))")
    cleaned = normalize_tree(tree)
    assert leaf_surfaces(cleaned) == ["$", "100"]


def test_punctuation_strip_applies_after_label_normalization():
    # ,-EXTRA normalizes to "," and is then recognized as punctuation.
    [tree] = parse_ptb_corpus("(S (N w) (,-EXTRA x))")
    assert leaf_surfaces(normalize_tree(tree)) == ["w"]


def test_normalize_is_idempotent_on_random_trees():
    rng = random.Random(11)
    for _ in range(300):
        tree = treegen.random_tree(
            rng, max_depth=6, max_branching=4, labels=treegen.MESSY_LABELS
        )
        try:
            once = normalize_tree(tree)
        except EmptyAfterNormalization:
            continue
        assert normalize_tree(once) == once
        assert sum(1 for _ in once.leaves()) <= sum(1 for _ in tree.leaves())


def test_normalize_returns_a_clean_tree_itself():
    [tree] = parse_ptb_corpus(EXAMPLE)
    assert normalize_tree(tree) is tree
    assert normalize_tree(tree, strip_punctuation=False) is tree


@pytest.mark.parametrize(
    "text",
    [
        "(S (NP (-NONE- *T*-1)) (VP (V go) (NP (N it))))",
        "(S (NP-SBJ (N w)) (VP (V go) (NP (N it))))",
        "(S (, ,) (NP (N w)) (VP (V go) (NP (N it))))",
    ],
    ids=["trace", "relabel", "punctuation"],
)
def test_normalize_shares_untouched_siblings(text):
    [tree] = parse_ptb_corpus(text)
    cleaned = normalize_tree(tree)
    assert cleaned is not tree
    assert cleaned.children[-1] is tree.children[-1]


def test_normalize_rebuilds_a_relabelled_node_around_shared_children():
    [tree] = parse_ptb_corpus("(S (NP-SBJ (DT the) (N w)) (VP (V go)))")
    np = normalize_tree(tree).children[0]
    assert np.label == "NP" and np is not tree.children[0]
    assert all(map(operator.is_, np.children, tree.children[0].children))


def test_normalize_twice_returns_the_once_normalized_tree():
    rng = random.Random(13)
    for _ in range(300):
        tree = treegen.random_tree(
            rng, max_depth=6, max_branching=4, labels=treegen.MESSY_LABELS
        )
        for strip in (True, False):
            try:
                once = normalize_tree(tree, strip_punctuation=strip)
            except EmptyAfterNormalization:
                continue
            twice = normalize_tree(once, strip_punctuation=strip)
            assert twice is once
            assert twice == once


def test_normalized_trees_have_no_empty_internal_nodes():
    rng = random.Random(12)
    for _ in range(200):
        tree = treegen.random_tree(
            rng, max_depth=6, max_branching=4, labels=treegen.MESSY_LABELS
        )
        try:
            cleaned = normalize_tree(tree)
        except EmptyAfterNormalization:
            continue
        stack = [cleaned]
        while stack:
            node = stack.pop()
            # Only a labeled node has children, and it has at least one.
            assert bool(node.children) == bool(node.label) != bool(node.surface)
            stack.extend(node.children)
