"""Command-line front end: one treebank file in, one frequency report out.

Reads a bracketed (ptb) or tab-separated dependency (dep) corpus, computes
the chosen load metric for every sentence, and writes the unit and sentence
frequency tables to stdout.  Bad sentences are skipped and counted on
stderr unless --strict is given.  Exit codes: 0 success, 1 unreadable input,
unwritable output, a sentence error under --strict or out of memory, 2
invalid option combination, 130 interrupted.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import gc
import os
import sys
from collections import Counter
from itertools import chain, count
from pathlib import Path
from typing import NamedTuple, Sequence

from .depload import ensure_rightward, load_profile
from .stackdepth import MetricConfig, NumberingScheme, np_depths, word_depths
from .stats import DEFAULT_THRESHOLDS, OUTPUT_FORMATS, render
from .treebank import TreebankError, normalize_tree, parse_dep_corpus, parse_ptb_corpus

__all__ = ["build_parser", "main"]


class _Method(NamedTuple):
    """What one --method measures: its input format, numbering and unit."""

    format: str
    scheme: NumberingScheme | None  # None: dependency load
    measures_nps: bool = False


_METHODS = {
    "dep-load": _Method("dep", None),
    "yngve-word": _Method("ptb", NumberingScheme.YNGVE),
    "sampson-word": _Method("ptb", NumberingScheme.SAMPSON),
    "yngve-np": _Method("ptb", NumberingScheme.YNGVE, measures_nps=True),
    "sampson-np": _Method("ptb", NumberingScheme.SAMPSON, measures_nps=True),
}
# In the order --help has always listed them: ptb first.
_FORMATS = tuple(dict.fromkeys(m.format for m in reversed(_METHODS.values())))


class _Parser(argparse.ArgumentParser):
    """Writes --help as the report is written: a failed write exits 1 with one line."""

    def print_help(self, file=None) -> None:
        try:
            _write(file or sys.stdout, self.format_help())
        except OSError as exc:
            _say(f"cannot write output: {exc}")
            self.exit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="memload",
        description=(
            "Frequency tables of short-term memory load over a treebank: "
            "how much pending material a reader holds at each point of each "
            "sentence."
        ),
    )
    parser.add_argument("--input", required=True, metavar="FILE", help="treebank file to read")
    parser.add_argument("--format", choices=_FORMATS, help="input format (default: the method's)")
    parser.add_argument("--method", required=True, choices=_METHODS, help="load metric")
    parser.add_argument(
        "--no-coord-adjust",
        action="store_false",
        dest="coordination_adjust",
        help="disable conjunct-group renumbering inside coordination (ptb only)",
    )
    parser.add_argument(
        "--keep-punct",
        action="store_false",
        dest="strip_punctuation",
        help="keep punctuation leaves instead of stripping them (ptb only)",
    )
    parser.add_argument(
        "--np-selector",
        choices=("all", "maximal"),
        default=None,
        help="which NP nodes the np methods measure (default: all; ptb only)",
    )
    parser.add_argument(
        "--thresholds",
        default=",".join(map(str, DEFAULT_THRESHOLDS)),
        metavar="T1,T2,...",
        help="report counts above these values (default: %(default)s)",
    )
    parser.add_argument("--output", choices=OUTPUT_FORMATS, default="text", help="report format")
    parser.add_argument(
        "--strict",
        action="store_true",
        help="abort on the first bad sentence instead of skipping it",
    )
    parser.add_argument(
        "--strict-rightward",
        action="store_true",
        help="treat a head left of its unit as an error (dep only)",
    )
    return parser


def _check(args: argparse.Namespace) -> tuple[int, ...]:
    """Check that the options fit together; returns the parsed thresholds.

    Raises ValueError when --format is not the method's input format, a flag
    does not apply to that input, or a threshold is not an integer.
    """
    if args.format not in (None, fmt := _METHODS[args.method].format):
        raise ValueError("method dep-load requires --format dep; tree methods require --format ptb")
    for given, flag, kind in (
        (not args.coordination_adjust, "--no-coord-adjust", "ptb"),
        (not args.strip_punctuation, "--keep-punct", "ptb"),
        (args.np_selector is not None, "--np-selector", "ptb"),
        (args.strict_rightward, "--strict-rightward", "dep"),
    ):
        if given and kind != fmt:
            raise ValueError(f"{flag} applies only to {kind} input")
    parts = args.thresholds.split(",")
    try:
        return tuple(map(int, parts))
    except ValueError:
        pass
    # Python refuses, from 3.10.7 on, to convert an integer longer than its digit limit.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    for digits in (part.strip().lstrip("+-") for part in parts):
        if limit and len(digits) > limit and digits.isdecimal():
            raise ValueError(
                f"--thresholds value has {len(digits)} digits; Python's int() takes at most {limit}"
            )
    raise ValueError(f"--thresholds wants comma-separated integers, got {args.thresholds!r}")


def _tally(text: str, args: argparse.Namespace) -> tuple[Counter[int], Counter[int], int, int]:
    """Parse and measure every sentence; returns unit and maximum tables, attempted, skipped."""
    method = _METHODS[args.method]
    # A count, not the errors: a raised one's traceback ties the reader's frame into a cycle.
    errors = count()
    on_error = None if args.strict else (lambda exc: next(errors))
    if method.scheme is None:
        sentences = parse_dep_corpus(text, on_error=on_error)
        measure = load_profile  # read from this module's globals, as a tracer may wrap it
        if args.strict_rightward:
            def measure(sentence):
                ensure_rightward(sentence)
                return load_profile(sentence)

    else:
        sentences = parse_ptb_corpus(text, on_error=on_error)
        strip = args.strip_punctuation
        metric = MetricConfig(method.scheme, args.coordination_adjust, args.np_selector == "maximal")
        depths = np_depths if method.measures_nps else word_depths

        def measure(tree):
            return depths(normalize_tree(tree, strip_punctuation=strip), metric)

    maxima = Counter()
    attempted = skipped = 0

    def measured():
        nonlocal attempted, skipped
        for attempted, sentence in enumerate(sentences, 1):
            try:
                values = measure(sentence)
            except TreebankError:
                if args.strict:
                    raise
                skipped += 1
                continue
            maxima[max(values) if values else 0] += 1  # default=0 costs a keyword per call
            yield values

    units = Counter(chain.from_iterable(measured()))
    reported = next(errors)  # the reader reports as it goes: read the count once it is done
    return units, maxima, attempted + reported, skipped + reported


def _run(args: argparse.Namespace, thresholds: tuple[int, ...]) -> int:
    """Execute one checked analysis: report on stdout, diagnostics on stderr."""
    # Every record a run builds is immutable and acyclic, so reference counting
    # frees it; the cyclic collector would only re-walk the whole corpus.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            text = Path(args.input).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            _say(f"cannot read input: {exc}")
            return 1
        try:
            units, maxima, attempted, skipped = _tally(text, args)
        except TreebankError as exc:
            _say(str(exc))
            return 1
        report = render(units, maxima, args.output, method=args.method, thresholds=thresholds)
        try:
            _write(sys.stdout, report)
        except OSError as exc:  # a closed stdout, a full disk, a closed pipe, ...
            _say(f"cannot write output: {exc}")
            return 1
        if skipped:
            _say(f"skipped {skipped} of {attempted} sentences")
        return 0
    finally:
        if gc_was_enabled:
            gc.enable()


def _say(line: str) -> None:
    """Write one diagnostic line to stderr; one that cannot be written is lost, never raised."""
    with contextlib.suppress(OSError):
        _write(sys.stderr, f"memload: {line}\n")


def _write(stream, text: str) -> None:
    """Write and flush text; to a file's byte stream, checking the count of each write."""
    if stream is None:  # the process started with this descriptor closed
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    try:
        if getattr(stream, "buffer", None) is None:  # a text-only stream, such as io.StringIO
            stream.write(text)
        else:  # an unbuffered write may take only part of the text, which TextIOWrapper ignores
            stream.flush()  # text written before goes out first
            data = memoryview(text.encode(stream.encoding, stream.errors))
            while data:
                written = stream.buffer.write(data)
                if written is None:  # a non-blocking descriptor that is full
                    raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
                data = data[written:]
        stream.flush()
    except OSError:  # what stays buffered goes to devnull at exit, not to a second error
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)
        raise


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        try:
            thresholds = _check(args)
        except ValueError as exc:
            _say(str(exc))
            return 2
        return _run(args, thresholds)
    except KeyboardInterrupt:  # Ctrl-C: the shell's 128 + SIGINT, without a traceback
        return 130
    except MemoryError:  # said after the handler, whose traceback keeps the text alive
        pass
    _say("out of memory")
    return 1
