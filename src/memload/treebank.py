"""Read, validate, and normalize constituency and dependency treebanks.

Constituency input is bracketed text in the Penn Treebank style; dependency
input is a minimal tab-separated format, one unit per line with blank lines
between sentences.  Both readers build immutable sentence structures for the
metric modules, and both can either raise on the first malformed sentence or
hand each error to a callback and skip the sentence.
"""

from __future__ import annotations

import re
from itertools import chain, count
from operator import eq, index, is_
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

__all__ = [
    "TreebankError",
    "PtbParseError",
    "UnbalancedBrackets",
    "EmptyTree",
    "LeafWithoutLabel",
    "EmptyAfterNormalization",
    "DepFormatError",
    "MalformedLine",
    "NonContiguousIndices",
    "MultipleRoots",
    "MissingRoot",
    "SelfHead",
    "HeadOutOfRange",
    "ConstituencyTree",
    "DependencyUnit",
    "DependencySentence",
    "parse_ptb_corpus",
    "parse_dep_corpus",
    "normalize_tree",
]


class TreebankError(ValueError):
    """Base class for treebank reading and validation errors."""


class PtbParseError(TreebankError):
    """Malformed bracketed input; carries the 1-based line and column."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(message, line, column)  # as __init__ takes them, for pickle and copy
        self.line = line
        self.column = column

    def __str__(self) -> str:
        return f"{self.args[0]} (line {self.line}, column {self.column})"


class UnbalancedBrackets(PtbParseError):
    """An opening bracket is never closed, or a closing bracket has no match."""


class EmptyTree(PtbParseError):
    """A bracketed node with no children, such as () or (X)."""


class LeafWithoutLabel(PtbParseError):
    """A surface token found where a labeled tree was required."""


class EmptyAfterNormalization(TreebankError):
    """Normalization removed every leaf; the sentence has no content left."""


class DepFormatError(TreebankError):
    """Base class for dependency input errors."""


class MalformedLine(DepFormatError):
    """A dependency line that does not parse; carries the 1-based line number."""

    def __init__(self, message: str, line_no: int) -> None:
        super().__init__(message, line_no)
        self.line_no = line_no

    def __str__(self) -> str:
        return f"{self.args[0]} (line {self.line_no})"


class NonContiguousIndices(DepFormatError):
    """Unit indices of a sentence are not exactly 1..n in order."""


class MultipleRoots(DepFormatError):
    """More than one unit has head 0."""


class MissingRoot(DepFormatError):
    """No unit has head 0."""


class SelfHead(DepFormatError):
    """A unit names itself as its head."""


class HeadOutOfRange(DepFormatError):
    """A head index falls outside 0..n."""


def _read_only(self, name: str, value: object = None) -> None:
    raise AttributeError(f"cannot assign to or delete field {name!r}")


class ConstituencyTree:
    """Ordered labeled tree.

    Internal nodes carry a category label and at least one child; leaves
    carry a surface form and nothing else.
    """

    __match_args__ = __slots__ = ("label", "children", "surface")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, label: str = "", children: Sequence = (), surface: str = "") -> None:
        children = tuple(children)
        if children:
            if not label:
                raise ValueError("internal node requires a label")
            if surface:
                raise ValueError("internal node cannot carry a surface form")
            if not all(isinstance(child, ConstituencyTree) for child in children):
                raise TypeError("every child must be a ConstituencyTree")
        elif not surface:
            raise ValueError("leaf requires a surface form")
        elif label:
            raise ValueError("leaf cannot carry a label")
        _set_label(self, label)
        _set_children(self, children)
        _set_surface(self, surface)

    def leaves(self) -> Iterator[ConstituencyTree]:
        stack = [self]
        while stack:
            node = stack.pop()
            if not node.children:
                yield node
            stack.extend(reversed(node.children))

    def to_bracketed(self) -> str:
        return self._write(
            lambda node: f"({node.label} " if node.children else node.surface,
            " ",
            lambda node: ")" if node.children else "",
        )

    def _write(self, head: Callable, sep: str, tail: Callable) -> str:
        """head(node), its children written and joined by sep, tail(node)."""
        parts = []
        # Trees still to write, and the separators and tails between them,
        # last first: a loop, so tree height is not bounded by recursion.
        stack: list[ConstituencyTree | str] = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                parts.append(item)
                continue
            parts.append(head(item))
            stack.append(tail(item))
            for k, child in enumerate(reversed(item.children)):
                stack += (sep, child) if k else (child,)
        return "".join(parts)

    # == and hash() go through repr(), which states a tree exactly, and in a loop.

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return repr(self) == repr(other)

    def __hash__(self) -> int:
        return hash(repr(self))

    def __repr__(self) -> str:
        return self._write(
            lambda node: f"{node.__class__.__qualname__}(label={node.label!r}, children=(",
            ", ",
            lambda node: f"{',' if len(node.children) == 1 else ''}), surface={node.surface!r})",
        )

    def __reduce__(self) -> tuple:
        return self.__class__, (self.label, self.children, self.surface)


_set_label = ConstituencyTree.label.__set__
_set_children = ConstituencyTree.children.__set__
_set_surface = ConstituencyTree.surface.__set__


def _node(label: str, children: tuple, surface: str = "") -> ConstituencyTree:
    """A node built unchecked; the parser and normalize_tree guarantee its invariants."""
    node = object.__new__(ConstituencyTree)
    _set_label(node, label)
    _set_children(node, children)
    _set_surface(node, surface)
    return node


# str.splitlines' other breaks: once each "\r\n" is one "\n", a "\n" for each keeps every line.
_BREAKS = "\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def _lines(text: str) -> str:
    """text with each line break one "\n", and one byte-order mark at each line's start dropped."""
    if any(map(text.__contains__, _BREAKS)):
        text = text.replace("\r\n", "\n").translate(dict.fromkeys(map(ord, _BREAKS), "\n"))
    return text.replace("\n\ufeff", "\n").removeprefix("\ufeff") if "\ufeff" in text else text


_TOKEN_RE = re.compile(r"[()]|[^()\s]+")
# About 64K characters and the rest of the last token: a piece ends at whitespace.
_PIECE_RE = re.compile(r"[\s\S]{1,65536}\S*")


def parse_ptb_corpus(
    text: str, on_error: Callable[[PtbParseError], None] | None = None
) -> list[ConstituencyTree]:
    """Parse every top-level bracketed tree in text.

    Whitespace between tokens is free; lines break where str.splitlines breaks
    them and lose one leading byte-order mark.  An unlabeled outer wrapper
    "( ... )" around one or more trees is unwrapped.  With on_error=None the
    first malformed sentence raises; with a callback each error is reported to
    it and the sentence skipped.  Leaves with the same surface are one shared leaf.
    """
    text = _lines(text)
    trees: list[ConstituencyTree] = []
    leaves: dict[str, ConstituencyTree] = {}
    # Open nodes, outermost first, as [label, children, index of "("].  The label is None until
    # its token arrives and "" for an unlabeled wrapper, whose children are the trees it holds.
    stack: list[list] = []
    # _TOKEN_RE's matches (str.split and \s agree on whitespace), piece by piece.
    pieces = (m.group().replace("(", " ( ").replace(")", " ) ") for m in _PIECE_RE.finditer(text))
    tokens = enumerate(chain.from_iterable(map(str.split, pieces)))
    # Errors are reported in token order, so one pass finds all their offsets and lines.
    matches = enumerate(_TOKEN_RE.finditer(text))
    line, line_start = 1, 0  # the last reported error's line, and the offset it starts at

    def report(kind: type[PtbParseError], message: str, index: int) -> None:
        nonlocal line, line_start
        offset = next(match.start() for k, match in matches if k == index)
        line += text.count("\n", line_start, offset)
        line_start = max(line_start, text.rfind("\n", line_start, offset) + 1)
        if on_error is None:
            # Not held in a local: this frame, on the traceback, would keep it in a cycle.
            raise kind(message, line, offset - line_start + 1)
        on_error(kind(message, line, offset - line_start + 1))

    def skip(kind: type[PtbParseError], message: str, index: int) -> None:
        """Drop the open top-level group, unbuilt, and report its first fault where it closes."""
        depth = len(stack)
        while depth and (token := next(tokens, (0, None))[1]) is not None:
            depth += (token == "(") - (token == ")")
        if not depth:  # else the text ends inside the group, and "unclosed '('" reports it
            stack.clear()
            report(kind, message, index)

    for index, token in tokens:
        if token == "(":
            stack.append([None, [], index])
            if len(stack) > 1 and stack[-2][0] is None:  # a "(" where a label should be
                if len(stack) > 2:
                    skip(PtbParseError, "node without a label", stack[-2][2])
                else:
                    stack[0][0] = ""
        elif not stack:
            if token == ")":
                report(UnbalancedBrackets, "unmatched ')'", index)
            else:
                report(LeafWithoutLabel, f"surface token {token!r} outside any tree", index)
        elif token != ")":
            node = stack[-1]
            if node[0] is None:
                node[0] = token
            elif node[0]:
                node[1].append(leaves.get(token) or leaves.setdefault(token, _node("", (), token)))
            else:
                message = f"surface token {token!r} directly under an unlabeled wrapper"
                skip(LeafWithoutLabel, message, index)
        else:
            label, children, start = stack.pop()
            if label is None:
                skip(EmptyTree, "empty node", start)
            elif not children:
                skip(EmptyTree, f"node {label!r} has no children", start)
            elif label:
                parent = stack[-1][1] if stack else trees
                parent.append(_node(label, tuple(children)))
            else:
                trees.extend(children)
    if stack:
        report(UnbalancedBrackets, "unclosed '('", stack[0][2])
    return trees


_TRACES = frozenset({"-NONE-"})
_TRACES_AND_PUNCTUATION = _TRACES | {".", ",", ":", "``", "''", "-LRB-", "-RRB-", "#"}


def _normalize_label(label: str) -> str:
    """Cut function tags and coindices: "NP-SBJ-1" -> "NP", "S=2" -> "S".

    A label that would be cut to nothing ("-NONE-", "-LRB-", "=2") is kept
    verbatim.
    """
    if "-" in label or "=" in label:
        return label.split("-", 1)[0].split("=", 1)[0] or label
    return label


def normalize_tree(tree: ConstituencyTree, *, strip_punctuation: bool = True) -> ConstituencyTree:
    """Return a cleaned copy of the tree.

    Labels lose their function tags, trace leaves (under -NONE-) are
    dropped, and so are punctuation leaves (those under ".", ",", ":",
    quotes, brackets, "#") unless strip_punctuation is off.  Internal nodes
    left with no children are removed all the way up.  Raises
    EmptyAfterNormalization when nothing remains.  A subtree that nothing
    changes is shared with the input, so the pass is idempotent and returns
    an already clean tree itself.
    """
    dropped = _TRACES_AND_PUNCTUATION if strip_punctuation else _TRACES
    kept_root: list[ConstituencyTree] = []
    # Open nodes as (node, cleaned label, drop leaves?, kept children,
    # iterator over children), under a wrapper that keeps the cleaned tree.
    stack = [(tree, "", False, kept_root, iter((tree,)))]
    while stack:
        node, label, drop_leaves, kept, children = stack[-1]
        for child in children:
            if child.children:
                child_label = _normalize_label(child.label)
                stack.append((child, child_label, child_label in dropped, [], iter(child.children)))
                break
            if not drop_leaves:
                kept.append(child)
        else:
            stack.pop()
            if kept and stack:
                same = label == node.label and len(kept) == len(node.children)
                if not (same and all(map(is_, kept, node.children))):
                    node = _node(label, tuple(kept))
                stack[-1][3].append(node)
    if not kept_root:
        raise EmptyAfterNormalization("no pronounced material left after normalization")
    return kept_root[0]


class DependencyUnit(NamedTuple):
    """One unit of a dependency sentence: 1-based index, surface form, head.

    head is the index of the unit this one depends on, 0 for the root.
    """

    index: int
    surface: str
    head: int


def _check_heads(heads: tuple[int, ...]) -> None:
    """Raise the first broken head rule: by unit, a self-head or a head outside 0..n; then roots."""
    n = len(heads)
    for unit, head in enumerate(heads, start=1):
        if head == unit:
            raise SelfHead(f"unit {unit} depends on itself")
        if not 0 <= head <= n:
            raise HeadOutOfRange(f"unit {unit} has head {head}, outside 0..{n}")
    roots = [unit for unit, head in enumerate(heads, start=1) if head == 0]
    if len(roots) > 1:
        raise MultipleRoots(f"units {roots} all have head 0")
    if not roots:
        raise MissingRoot("no unit has head 0")


class DependencySentence:
    """A validated dependency sentence, stored as its heads and surfaces.

    Indices run exactly 1..n in order, heads are integers within 0..n, no
    unit heads itself, and exactly one unit is the root (head 0).  A broken
    head rule raises the error parse_dep_corpus gives for it.  units is
    built from the two columns each time it is read.
    """

    __slots__ = ("heads", "surfaces")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, units: Iterable[tuple[int, str, int]]) -> None:
        # Read by position, so a unit is any (index, surface, head) tuple.
        indices, surfaces, heads = [*zip(*units, strict=True)] or ((), (), ())
        if indices != tuple(range(1, len(indices) + 1)):
            message = f"unit indices must be exactly 1..{len(indices)} in order, got {[*indices]}"
            raise NonContiguousIndices(message)
        heads = tuple(map(index, heads))  # a head that is not an integer raises TypeError
        _check_heads(heads)
        _set_heads(self, heads)
        _set_surfaces(self, surfaces)

    def __len__(self) -> int:
        return len(self.heads)

    @property
    def units(self) -> tuple[DependencyUnit, ...]:
        return tuple(map(DependencyUnit, count(1), self.surfaces, self.heads))

    # == and hash() read the two columns; repr() and pickle build units, so unpickling is checked.

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.heads == other.heads and self.surfaces == other.surfaces

    def __hash__(self) -> int:
        return hash((self.heads, self.surfaces))

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(units={self.units!r})"

    def __reduce__(self) -> tuple:
        return self.__class__, (self.units,)


_set_heads = DependencySentence.heads.__set__
_set_surfaces = DependencySentence.surfaces.__set__


_SPACE_LINE = re.compile(r"\n[^\S\n]+(?=\n|\Z)")  # a line of only whitespace, after a break
_COMMENT = re.compile(r"\n#.*")  # a comment line and the break before it


def parse_dep_corpus(
    text: str, on_error: Callable[[DepFormatError], None] | None = None
) -> list[DependencySentence]:
    """Parse blank-line separated blocks of INDEX<TAB>SURFACE<TAB>HEAD lines.

    Lines break where str.splitlines breaks them and lose one leading
    byte-order mark, a line of only whitespace is blank, and lines starting
    with "#" are ignored.  Index and head are read as int() reads them: in
    bulk where a block is written as str() writes it, else line by line.
    With the default on_error=None the first malformed sentence raises; with
    a callback each error is reported to it and the sentence skipped.
    """
    sentences: list[DependencySentence] = []
    numerals, values = [], {}  # numerals[i] == str(i), values[str(i)] == i: the numeral table
    line_no = 1  # the next chunk's first line
    # Every blank line after a break made empty (a sub that finds no match returns its
    # input), and the text cut where it lies, with no whole copy: a chunk between two
    # blank lines is one block, most often as str() writes it.
    for chunk in _SPACE_LINE.sub("\n", _lines(text)).split("\n\n"):
        if chunk[:1] == "\n":  # blank lines past the first: the chunk starts after them
            line_no += len(chunk) - len(chunk := chunk.lstrip("\n"))
        if not (chunk := chunk.rstrip("\n")):  # only the text's last chunk ends in breaks
            line_no += 2  # "" between two cuts: two more blank lines
            continue
        breaks = chunk.count("\n")
        first, line_no = line_no, line_no + breaks + 2  # past its lines and the blank line after
        try:
            sentence = _read_bulk(chunk, breaks + 1, numerals, values)
            sentences += _walk(chunk.split("\n"), first) if sentence is None else (sentence,)
        except DepFormatError as exc:
            if on_error is None:
                raise
            # Its traceback holds this frame, and so on_error and whatever keeps exc.
            on_error(exc.with_traceback(None))
    return sentences


def _read_bulk(block: str, n: int, numerals: list, values: dict) -> DependencySentence | None:
    """The sentence of n lines joined by "\n", if written as str() writes it; else None.

    Where the tab count misses, comment lines are dropped first.  Indices are matched with
    numerals (grown here to 2n + 1), heads looked up in values; a broken head rule raises.
    """
    if (tabs := block.count("\t")) != 2 * n and (block[:1] == "#" or "\n#" in block):
        block = _COMMENT.sub("", "\n" + block)[1:]
        n, tabs = block.count("\n") + 1, block.count("\t")
    if tabs != 2 * n:  # before the replace and split: a long chunk may fail here
        return None
    fields = block.replace("\n", "\t\n\t").split("\t")
    surfaces = tuple(fields[1::4])
    # No line holds a "\n", so a "\n" field is a separator: one at every
    # fourth place, and nowhere else, means every line has exactly two tabs.
    if fields[3::4] != ["\n"] * (n - 1) or not all(surfaces):
        return None
    if n >= len(numerals):  # only now: a chunk that fails the rows check may be long
        numerals[:] = map(str, range(2 * n + 1))
        values.update(zip(numerals, count()))
    if fields[0::4] != numerals[1 : n + 1]:  # indices not written "1".."n"
        return None
    try:
        heads = tuple(map(values.__getitem__, fields[2::4]))
    except KeyError:  # a head past the table, or not written as str() writes it
        return None
    if max(heads) > n or heads.count(0) != 1 or any(map(eq, heads, range(1, n + 1))):
        _check_heads(heads)  # no head is negative, so a head rule is broken: this raises
    sentence = object.__new__(DependencySentence)  # its heads are checked, so no __init__
    _set_heads(sentence, heads)
    _set_surfaces(sentence, surfaces)
    return sentence


def _walk(block: list[str], first: int) -> tuple:
    """The sentence of non-blank lines numbered from first, read with int(); none if comments."""
    units = []  # the walk runs outside every handler, so no error it raises has a __context__
    for line_no, raw in enumerate(block, start=first):
        if raw[0] == "#" or raw.isspace():  # only the text's first line can still be blank
            continue
        fields = raw.split("\t")
        if len(fields) != 3:
            message = f"expected INDEX<TAB>SURFACE<TAB>HEAD, got {len(fields)} field(s)"
            raise MalformedLine(message, line_no)
        try:
            index, head = int(fields[0]), int(fields[2])
        except ValueError:
            index = None
        if index is None:
            raise MalformedLine("index and head must be integers", line_no)
        if not fields[1]:
            raise MalformedLine("empty surface field", line_no)
        units.append((index, fields[1], head))
    return (DependencySentence(units),) if units else ()
