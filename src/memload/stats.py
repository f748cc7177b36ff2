"""Frequency tables over load profiles, each a tuple of ints, and their reports."""

from __future__ import annotations

from itertools import chain
from typing import Mapping, NamedTuple, Sequence

from .treebank import _Record

__all__ = [
    "DEFAULT_THRESHOLDS",
    "UnsupportedFormat",
    "Histogram",
    "ThresholdReport",
    "threshold_report",
    "render",
]

DEFAULT_THRESHOLDS = (5, 7, 9)
OUTPUT_FORMATS = ("text", "csv", "json")
_THRESHOLD_KEYS = "threshold units_over units_fraction sentences_over sentences_fraction".split()


class UnsupportedFormat(ValueError):
    """Requested report format is not one of text, csv, or json."""


class Histogram(_Record):
    """Frequency of each load value, kept as an ascending copy; zero-count bins are not stored."""

    __slots__ = ("bins",)

    def __init__(self, bins: Mapping[int, int]) -> None:
        for value, count in bins.items():
            if value < 0 or count < 1:
                raise ValueError(f"invalid histogram bin {value}: {count}")
        object.__setattr__(self, "bins", dict(sorted(bins.items())))

    def __hash__(self) -> int:
        return hash(tuple(self.bins.items()))

    @property
    def total(self) -> int:
        return sum(self.bins.values())

    @property
    def max_value(self) -> int:
        return max(self.bins, default=0)


class ThresholdReport(NamedTuple):
    """How much of a histogram lies strictly above each threshold."""

    thresholds: tuple[int, ...]
    exceed_counts: tuple[int, ...]
    exceed_fractions: tuple[float, ...]


def threshold_report(
    histogram: Histogram, thresholds: Sequence[int] = DEFAULT_THRESHOLDS
) -> ThresholdReport:
    """Count entries with value strictly greater than each threshold.

    Thresholds are reported in increasing order with duplicates dropped.
    Fractions are of the histogram total, 0.0 when the histogram is empty.
    """
    ordered = tuple(sorted(set(thresholds)))
    total = histogram.total
    counts = tuple(sum(f for value, f in histogram.bins.items() if value > t) for t in ordered)
    fractions = tuple(count / total if total else 0.0 for count in counts)
    return ThresholdReport(ordered, counts, fractions)


def render(
    unit_hist: Histogram,
    sentence_hist: Histogram,
    fmt: str,
    *,
    method: str = "",
    thresholds: Sequence[int] | None = None,
) -> str:
    """Render the paired frequency tables as text, csv, or json.

    text and csv list the contiguous value range 0..max with zero rows
    included; json keeps only occupied bins, keyed by the stringified
    value.  thresholds, when given, appends the exceedance report for both
    tables; method, when given, labels the text and json output.
    """
    if fmt not in OUTPUT_FORMATS:
        raise UnsupportedFormat(f"unknown output format {fmt!r}")
    units = threshold_report(unit_hist, thresholds or ())
    sentences = threshold_report(sentence_hist, thresholds or ())
    # Rows of threshold, unit count and fraction, sentence count and fraction.
    exceeded = zip(*units, *sentences[1:])
    if fmt == "json":
        import json  # here, not at the top: only json output pays for the import
        payload = {
            "method": method,
            "unit_histogram": {str(v): count for v, count in unit_hist.bins.items()},
            "sentence_histogram": {str(v): count for v, count in sentence_hist.bins.items()},
            "total_units": unit_hist.total,
            "total_sentences": sentence_hist.total,
            "max_value": max(unit_hist.max_value, sentence_hist.max_value),
            "thresholds": [dict(zip(_THRESHOLD_KEYS, row)) for row in exceeded],
        }
        return json.dumps(payload, indent=2) + "\n"
    top = max(chain(unit_hist.bins, sentence_hist.bins), default=-1)
    rows = [
        (str(v), str(unit_hist.bins.get(v, 0)), str(sentence_hist.bins.get(v, 0)))
        for v in range(top + 1)
    ]
    if fmt == "csv":
        lines = ["value,units,sentences"] + [",".join(row) for row in rows]
        lines += [
            f"# > {t}: units {uc} ({uf:.4f}), sentences {sc} ({sf:.4f})"
            for t, uc, uf, sc, sf in exceeded
        ]
        return "\n".join(lines) + "\n"
    cells = [("value", "units", "sentences"), *rows]
    cells.append(("total", str(unit_hist.total), str(sentence_hist.total)))
    widths = [max(len(row[col]) for row in cells) for col in range(3)]
    lines = [f"method: {method}"] if method else []
    lines += ["  ".join(cell.rjust(width) for cell, width in zip(row, widths)) for row in cells]
    lines += [
        f"> {t}: units {uc} ({uf:.2%}), sentences {sc} ({sf:.2%})"
        for t, uc, uf, sc, sf in exceeded
    ]
    return "\n".join(lines) + "\n"
