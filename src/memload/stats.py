"""Aggregate per-sentence load profiles into frequency tables and reports."""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Mapping, Sequence

from .profiles import DepthProfile

__all__ = [
    "DEFAULT_THRESHOLDS",
    "UnsupportedFormat",
    "Histogram",
    "ThresholdReport",
    "unit_histogram",
    "sentence_histogram",
    "merge_histograms",
    "threshold_report",
    "render",
]

DEFAULT_THRESHOLDS = (5, 7, 9)


class UnsupportedFormat(ValueError):
    """Requested report format is not one of text, csv, or json."""


@dataclass(frozen=True)
class Histogram:
    """Frequency of each load value; zero-count bins are not stored."""

    bins: Mapping[int, int]

    def __post_init__(self) -> None:
        for value, count in self.bins.items():
            if value < 0 or count < 1:
                raise ValueError(f"invalid histogram bin {value}: {count}")

    @property
    def total(self) -> int:
        return sum(self.bins.values())

    @property
    def max_value(self) -> int:
        return max(self.bins, default=0)

    @classmethod
    def from_values(cls, values: Iterable[int]) -> Histogram:
        return _from_counts(Counter(values))


def _from_counts(counts: Counter[int]) -> Histogram:
    return Histogram(dict(sorted(counts.items())))


def unit_histogram(profiles: Iterable[DepthProfile]) -> Histogram:
    """Frequencies over every individual value in the profiles."""
    return Histogram.from_values(chain.from_iterable(p.values for p in profiles))


def sentence_histogram(profiles: Iterable[DepthProfile]) -> Histogram:
    """Frequencies over each profile's maximum; empty profiles count at 0."""
    return Histogram.from_values(profile.sentence_max for profile in profiles)


def merge_histograms(histograms: Iterable[Histogram]) -> Histogram:
    """Combine per-shard tallies; order never affects the result."""
    counts: Counter[int] = Counter()
    for histogram in histograms:
        counts.update(histogram.bins)
    return _from_counts(counts)


@dataclass(frozen=True)
class ThresholdReport:
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
    counts = tuple(
        sum(freq for value, freq in histogram.bins.items() if value > t)
        for t in ordered
    )
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
    tables; method, when given, labels the output.
    """
    if fmt == "text":
        return _render_text(unit_hist, sentence_hist, method, thresholds)
    if fmt == "csv":
        return _render_csv(unit_hist, sentence_hist, thresholds)
    if fmt == "json":
        return _render_json(unit_hist, sentence_hist, method, thresholds)
    raise UnsupportedFormat(f"unknown output format {fmt!r}")


def _table_rows(
    unit_hist: Histogram, sentence_hist: Histogram
) -> list[tuple[int, int, int]]:
    if not unit_hist.bins and not sentence_hist.bins:
        return []
    top = max(unit_hist.max_value, sentence_hist.max_value)
    return [
        (value, unit_hist.bins.get(value, 0), sentence_hist.bins.get(value, 0))
        for value in range(top + 1)
    ]


def _paired_reports(
    unit_hist: Histogram, sentence_hist: Histogram, thresholds: Sequence[int]
) -> Iterable[tuple[int, int, float, int, float]]:
    units = threshold_report(unit_hist, thresholds)
    sentences = threshold_report(sentence_hist, thresholds)
    return zip(
        units.thresholds,
        units.exceed_counts,
        units.exceed_fractions,
        sentences.exceed_counts,
        sentences.exceed_fractions,
    )


def _render_text(
    unit_hist: Histogram,
    sentence_hist: Histogram,
    method: str,
    thresholds: Sequence[int] | None,
) -> str:
    cells = [("value", "units", "sentences")]
    cells += [
        (str(value), str(units), str(sentences))
        for value, units, sentences in _table_rows(unit_hist, sentence_hist)
    ]
    cells.append(("total", str(unit_hist.total), str(sentence_hist.total)))
    widths = [max(len(row[col]) for row in cells) for col in range(3)]
    lines = [f"method: {method}"] if method else []
    lines += [
        "  ".join(cell.rjust(width) for cell, width in zip(row, widths))
        for row in cells
    ]
    if thresholds is not None:
        for t, uc, uf, sc, sf in _paired_reports(unit_hist, sentence_hist, thresholds):
            lines.append(
                f"> {t}: units {uc} ({uf:.2%}), sentences {sc} ({sf:.2%})"
            )
    return "\n".join(lines) + "\n"


def _render_csv(
    unit_hist: Histogram,
    sentence_hist: Histogram,
    thresholds: Sequence[int] | None,
) -> str:
    lines = ["value,units,sentences"]
    lines += [
        f"{value},{units},{sentences}"
        for value, units, sentences in _table_rows(unit_hist, sentence_hist)
    ]
    if thresholds is not None:
        for t, uc, uf, sc, sf in _paired_reports(unit_hist, sentence_hist, thresholds):
            lines.append(f"# > {t}: units {uc} ({uf:.4f}), sentences {sc} ({sf:.4f})")
    return "\n".join(lines) + "\n"


def _render_json(
    unit_hist: Histogram,
    sentence_hist: Histogram,
    method: str,
    thresholds: Sequence[int] | None,
) -> str:
    payload = {
        "method": method,
        "unit_histogram": {
            str(value): count for value, count in sorted(unit_hist.bins.items())
        },
        "sentence_histogram": {
            str(value): count for value, count in sorted(sentence_hist.bins.items())
        },
        "total_units": unit_hist.total,
        "total_sentences": sentence_hist.total,
        "max_value": max(unit_hist.max_value, sentence_hist.max_value),
        "thresholds": [
            {
                "threshold": t,
                "units_over": uc,
                "units_fraction": uf,
                "sentences_over": sc,
                "sentences_fraction": sf,
            }
            for t, uc, uf, sc, sf in _paired_reports(
                unit_hist, sentence_hist, thresholds or ()
            )
        ],
    }
    return json.dumps(payload, indent=2) + "\n"
