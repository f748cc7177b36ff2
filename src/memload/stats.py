"""The report on two frequency tables of load values, as text, csv or json."""

from __future__ import annotations

from itertools import chain
from typing import Mapping, Sequence

__all__ = ["DEFAULT_THRESHOLDS", "render"]

DEFAULT_THRESHOLDS = (5, 7, 9)
OUTPUT_FORMATS = ("text", "csv", "json")
_THRESHOLD_KEYS = "threshold units_over units_fraction sentences_over sentences_fraction".split()


def _over(table: dict[int, int], total: int, threshold: int) -> tuple[int, float]:
    """How many entries lie strictly above threshold, and their fraction of total (0.0 if none)."""
    count = sum(c for value, c in table.items() if value > threshold)
    return count, count / total if total else 0.0


def render(
    units: Mapping[int, int],
    maxima: Mapping[int, int],
    fmt: str,
    *,
    method: str = "",
    thresholds: Sequence[int] | None = None,
) -> str:
    """Render the unit and sentence-maximum frequency tables as text, csv, or json.

    Each table maps a load value to its count, in any order; a negative
    value or a count below 1 raises ValueError.  text and csv list the
    contiguous value range 0..max with zero rows included; json keeps only
    occupied bins, keyed by the stringified value.  thresholds, when given,
    appends for each distinct threshold, ascending, how many units and
    sentences lie strictly above it and their fraction of the table's total
    (0.0 for an empty table); method, when given, labels the text and json
    output.
    """
    for value, count in chain(units.items(), maxima.items()):
        if value < 0 or count < 1:
            raise ValueError(f"invalid histogram bin {value}: {count}")
    if fmt not in OUTPUT_FORMATS:
        raise ValueError(f"unknown output format {fmt!r}")
    units, maxima = dict(sorted(units.items())), dict(sorted(maxima.items()))
    n_units, n_sentences = sum(units.values()), sum(maxima.values())
    top = max(chain(units, maxima), default=-1)
    # Rows of threshold, unit count and fraction, sentence count and fraction.
    exceeded = [
        (t, *_over(units, n_units, t), *_over(maxima, n_sentences, t))
        for t in sorted(set(thresholds or ()))
    ]
    if fmt == "json":
        import json  # here, not at the top: only json output pays for the import
        payload = {
            "method": method,
            "unit_histogram": {str(v): count for v, count in units.items()},
            "sentence_histogram": {str(v): count for v, count in maxima.items()},
            "total_units": n_units,
            "total_sentences": n_sentences,
            "max_value": max(top, 0),
            "thresholds": [dict(zip(_THRESHOLD_KEYS, row)) for row in exceeded],
        }
        return json.dumps(payload, indent=2) + "\n"
    rows = [(str(v), str(units.get(v, 0)), str(maxima.get(v, 0))) for v in range(top + 1)]
    if fmt == "csv":
        lines = ["value,units,sentences"] + [",".join(row) for row in rows]
        lines += [
            f"# > {t}: units {uc} ({uf:.4f}), sentences {sc} ({sf:.4f})"
            for t, uc, uf, sc, sf in exceeded
        ]
        return "\n".join(lines) + "\n"
    cells = [("value", "units", "sentences"), *rows]
    cells.append(("total", str(n_units), str(n_sentences)))
    widths = [max(len(row[col]) for row in cells) for col in range(3)]
    lines = [f"method: {method}"] if method else []
    lines += ["  ".join(cell.rjust(width) for cell, width in zip(row, widths)) for row in cells]
    lines += [
        f"> {t}: units {uc} ({uf:.2%}), sentences {sc} ({sf:.2%})"
        for t, uc, uf, sc, sf in exceeded
    ]
    return "\n".join(lines) + "\n"
