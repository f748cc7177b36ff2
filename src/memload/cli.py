"""Command-line front end: one treebank file in, one frequency report out.

Reads a bracketed (ptb) or tab-separated dependency (dep) corpus, computes
the chosen load metric for every sentence, and writes the unit and sentence
frequency tables to stdout.  Bad sentences are skipped and counted on
stderr unless --strict is given.  Exit codes: 0 success, 1 unreadable input,
unwritable output or a sentence error under --strict, 2 invalid option
combination, 130 interrupted.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import gc
import os
import sys
from collections import Counter
from itertools import chain
from pathlib import Path
from typing import NamedTuple, Sequence

from .depload import LeftwardHead, ensure_rightward, load_profile
from .stackdepth import MetricConfig, NumberingScheme, np_depths, word_depths
from .stats import DEFAULT_THRESHOLDS, OUTPUT_FORMATS, render
from .treebank import (
    EmptyAfterNormalization,
    TreebankError,
    normalize_tree,
    parse_dep_corpus,
    parse_ptb_corpus,
)

__all__ = ["InvalidConfig", "RunConfig", "METHODS", "build_parser", "run", "main"]


class _Method(NamedTuple):
    """What one --method measures: its input format, numbering and unit."""

    format: str
    scheme: NumberingScheme | None  # None: dependency load
    measures_nps: bool = False


METHODS = {
    "dep-load": _Method("dep", None),
    "yngve-word": _Method("ptb", NumberingScheme.YNGVE),
    "sampson-word": _Method("ptb", NumberingScheme.SAMPSON),
    "yngve-np": _Method("ptb", NumberingScheme.YNGVE, measures_nps=True),
    "sampson-np": _Method("ptb", NumberingScheme.SAMPSON, measures_nps=True),
}
# In the order --help has always listed them: ptb first.
FORMATS = tuple(dict.fromkeys(m.format for m in reversed(METHODS.values())))
_BATCH = 4096  # sentences whose values _tally holds, then counts in C at once


class InvalidConfig(ValueError):
    """Mutually incompatible command-line options."""


class _Parser(argparse.ArgumentParser):
    """Writes --help as the report is written: a failed write exits 1 with one line."""

    def print_help(self, file=None) -> None:
        try:
            _write(file or sys.stdout, self.format_help())
        except OSError as exc:
            _say(f"cannot write output: {exc}")
            self.exit(1)


class RunConfig(NamedTuple):
    """One fully validated analysis request."""

    input_path: Path
    method: str
    coordination_adjust: bool = True
    strip_punctuation: bool = True
    maximal_np: bool = False
    output_format: str = "text"
    thresholds: tuple[int, ...] = DEFAULT_THRESHOLDS
    strict: bool = False
    strict_rightward: bool = False


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
    parser.add_argument("--format", required=True, choices=FORMATS, help="input format")
    parser.add_argument("--method", required=True, choices=METHODS, help="load metric")
    parser.add_argument(
        "--no-coord-adjust",
        action="store_true",
        help="disable conjunct-group renumbering inside coordination (ptb only)",
    )
    parser.add_argument(
        "--keep-punct",
        action="store_true",
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


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """Check option compatibility and build a RunConfig.

    Raises InvalidConfig when the method does not fit the input format or a
    flag does not apply to it.
    """
    if METHODS[args.method].format != args.format:
        raise InvalidConfig(
            "method dep-load requires --format dep; tree methods require --format ptb"
        )
    if args.format == "dep":
        for given, flag in (
            (args.no_coord_adjust, "--no-coord-adjust"),
            (args.keep_punct, "--keep-punct"),
            (args.np_selector is not None, "--np-selector"),
        ):
            if given:
                raise InvalidConfig(f"{flag} applies only to --format ptb")
    elif args.strict_rightward:
        raise InvalidConfig("--strict-rightward applies only to --format dep")
    return RunConfig(
        input_path=Path(args.input),
        method=args.method,
        coordination_adjust=not args.no_coord_adjust,
        strip_punctuation=not args.keep_punct,
        maximal_np=args.np_selector == "maximal",
        output_format=args.output,
        thresholds=_parse_thresholds(args.thresholds),
        strict=args.strict,
        strict_rightward=args.strict_rightward,
    )


def _parse_thresholds(text: str) -> tuple[int, ...]:
    parts = text.split(",")
    try:
        return tuple(map(int, parts))
    except ValueError:
        pass
    # Python 3.11+ refuses to convert an integer longer than its digit limit.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    for digits in (part.strip().lstrip("+-") for part in parts):
        if limit and len(digits) > limit and digits.isdecimal():
            raise InvalidConfig(
                f"--thresholds value has {len(digits)} digits; Python's int() takes at most {limit}"
            )
    raise InvalidConfig(f"--thresholds wants comma-separated integers, got {text!r}")


def _tally(text: str, config: RunConfig) -> tuple[Counter[int], Counter[int], int, int]:
    """Parse and measure every sentence; returns unit and maximum tables, attempted, skipped."""
    method = METHODS[config.method]
    # Classes, not exceptions: a raised one's traceback ties the reader's frame into a cycle.
    errors: list[type[TreebankError]] = []
    on_error = None if config.strict else (lambda exc: errors.append(type(exc)))
    if method.scheme is None:
        sentences = parse_dep_corpus(text, on_error=on_error)
        measure = load_profile  # read from this module's globals, as a tracer may wrap it
        if config.strict_rightward:
            def measure(sentence):
                ensure_rightward(sentence)
                return load_profile(sentence)

    else:
        sentences = parse_ptb_corpus(text, on_error=on_error)
        strip = config.strip_punctuation
        metric = MetricConfig(method.scheme, config.coordination_adjust, config.maximal_np)
        depths = np_depths if method.measures_nps else word_depths

        def measure(tree):
            return depths(normalize_tree(tree, strip_punctuation=strip), metric)

    skipped = len(errors)
    units, maxima = Counter(), Counter()
    batch: list[tuple[int, ...]] = []

    def count() -> None:
        units.update(chain.from_iterable(batch))
        maxima.update(max(values, default=0) for values in batch)
        batch.clear()

    for sentence in sentences:
        try:
            batch.append(measure(sentence))
        except (LeftwardHead, EmptyAfterNormalization):
            if config.strict:
                raise
            skipped += 1
            continue
        if len(batch) == _BATCH:
            count()
    count()
    return units, maxima, len(sentences) + len(errors), skipped


def run(config: RunConfig) -> int:
    """Execute one analysis: report on stdout, diagnostics on stderr."""
    # Every record a run builds is immutable and acyclic, so reference counting
    # frees it; the cyclic collector would only re-walk the whole corpus.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            text = Path(config.input_path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            _say(f"cannot read input: {exc}")
            return 1
        try:
            units, maxima, attempted, skipped = _tally(text, config)
        except TreebankError as exc:
            _say(str(exc))
            return 1
        report = render(
            units, maxima, config.output_format, method=config.method, thresholds=config.thresholds
        )
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
            config = config_from_args(args)
        except InvalidConfig as exc:
            _say(str(exc))
            return 2
        return run(config)
    except KeyboardInterrupt:  # Ctrl-C: the shell's 128 + SIGINT, without a traceback
        return 130
    except MemoryError:  # said after the handler, whose traceback keeps the text alive
        pass
    _say("out of memory")
    return 1
