"""Command-line front end: one treebank file in, one frequency report out.

Reads a bracketed (ptb) or tab-separated dependency (dep) corpus, computes
the chosen load metric for every sentence, and writes the unit and sentence
frequency tables to stdout.  Bad sentences are skipped and counted on
stderr unless --strict is given.  Exit codes: 0 success, 1 unreadable input
or a sentence error under --strict, 2 invalid option combination.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

from .depload import LeftwardHead, ensure_rightward, load_profile
from .profiles import DepthProfile
from .stackdepth import MetricConfig, NumberingScheme, np_depths, word_depths
from .stats import DEFAULT_THRESHOLDS, render, sentence_histogram, unit_histogram
from .treebank import (
    EmptyAfterNormalization,
    NormalizationOptions,
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
OUTPUT_FORMATS = ("text", "csv", "json")


class InvalidConfig(ValueError):
    """Mutually incompatible command-line options."""


@dataclass(frozen=True)
class RunConfig:
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
    parser = argparse.ArgumentParser(
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
        default="5,7,9",
        metavar="T1,T2,...",
        help="report counts above these values (default: 5,7,9)",
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
    try:
        thresholds = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise InvalidConfig(
            f"--thresholds wants comma-separated integers, got {text!r}"
        ) from None
    if not thresholds:
        raise InvalidConfig("--thresholds wants at least one value")
    return thresholds


def _collect_profiles(
    text: str, config: RunConfig
) -> tuple[list[DepthProfile], int, int]:
    """Parse and measure every sentence; returns profiles, attempted, skipped."""
    method = METHODS[config.method]
    errors: list[TreebankError] = []
    on_error = None if config.strict else errors.append
    if method.scheme is None:
        sentences = parse_dep_corpus(text, on_error=on_error)

        def measure(sentence):
            if config.strict_rightward:
                ensure_rightward(sentence)
            return load_profile(sentence)

    else:
        sentences = parse_ptb_corpus(text, on_error=on_error)
        opts = NormalizationOptions(strip_punctuation=config.strip_punctuation)
        metric = MetricConfig(method.scheme, config.coordination_adjust, config.maximal_np)
        depths = np_depths if method.measures_nps else word_depths

        def measure(tree):
            return depths(normalize_tree(tree, opts), metric)

    skipped = len(errors)
    profiles = []
    for sentence in sentences:
        try:
            profiles.append(measure(sentence))
        except (LeftwardHead, EmptyAfterNormalization):
            if config.strict:
                raise
            skipped += 1
    return profiles, len(sentences) + len(errors), skipped


def run(config: RunConfig) -> int:
    """Execute one analysis: report on stdout, diagnostics on stderr."""
    try:
        text = Path(config.input_path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"memload: cannot read input: {exc}", file=sys.stderr)
        return 1
    try:
        profiles, attempted, skipped = _collect_profiles(text, config)
    except TreebankError as exc:
        print(f"memload: {exc}", file=sys.stderr)
        return 1
    report = render(
        unit_histogram(profiles),
        sentence_histogram(profiles),
        config.output_format,
        method=config.method,
        thresholds=config.thresholds,
    )
    sys.stdout.write(report)
    if skipped:
        print(
            f"memload: skipped {skipped} of {attempted} sentences", file=sys.stderr
        )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
    except InvalidConfig as exc:
        print(f"memload: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
