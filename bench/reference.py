"""Expected memload reports, built without the program's own renderer.

The benchmark compares every report the CLI prints against bytes built
here.  The renderers below restate the text, csv and json formats of
memload at the commit that defined the benchmark; the self-test checks
them against the CLI byte for byte on tiny corpora.  A later change that
alters a number, a column width or a float format therefore shows up as a
failed invocation.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Iterable, Mapping, Sequence

THRESHOLDS = (5, 7, 9)

Bins = Mapping[int, int]


def histograms(profiles: Iterable[Sequence[int]]) -> tuple[dict[int, int], dict[int, int]]:
    """Unit and sentence-maximum frequencies of per-sentence load values."""
    units: Counter[int] = Counter()
    sentences: Counter[int] = Counter()
    for values in profiles:
        units.update(values)
        sentences[max(values, default=0)] += 1
    return dict(sorted(units.items())), dict(sorted(sentences.items()))


def _rows(units: Bins, sentences: Bins) -> list[tuple[int, int, int]]:
    if not units and not sentences:
        return []
    top = max([*units, *sentences])
    return [(v, units.get(v, 0), sentences.get(v, 0)) for v in range(top + 1)]


def _exceedances(
    units: Bins, sentences: Bins, thresholds: Sequence[int]
) -> list[tuple[int, int, float, int, float]]:
    out = []
    unit_total, sentence_total = sum(units.values()), sum(sentences.values())
    for t in sorted(set(thresholds)):
        uc = sum(c for v, c in units.items() if v > t)
        sc = sum(c for v, c in sentences.items() if v > t)
        out.append((
            t,
            uc, uc / unit_total if unit_total else 0.0,
            sc, sc / sentence_total if sentence_total else 0.0,
        ))
    return out


def render_text(method: str, units: Bins, sentences: Bins) -> str:
    cells = [("value", "units", "sentences")]
    cells += [(str(v), str(u), str(s)) for v, u, s in _rows(units, sentences)]
    cells.append(("total", str(sum(units.values())), str(sum(sentences.values()))))
    widths = [max(len(row[col]) for row in cells) for col in range(3)]
    lines = [f"method: {method}"]
    lines += ["  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in cells]
    lines += [
        f"> {t}: units {uc} ({uf:.2%}), sentences {sc} ({sf:.2%})"
        for t, uc, uf, sc, sf in _exceedances(units, sentences, THRESHOLDS)
    ]
    return "\n".join(lines) + "\n"


def render_csv(method: str, units: Bins, sentences: Bins) -> str:
    lines = ["value,units,sentences"]
    lines += [f"{v},{u},{s}" for v, u, s in _rows(units, sentences)]
    lines += [
        f"# > {t}: units {uc} ({uf:.4f}), sentences {sc} ({sf:.4f})"
        for t, uc, uf, sc, sf in _exceedances(units, sentences, THRESHOLDS)
    ]
    return "\n".join(lines) + "\n"


def render_json(method: str, units: Bins, sentences: Bins) -> str:
    payload = {
        "method": method,
        "unit_histogram": {str(v): c for v, c in sorted(units.items())},
        "sentence_histogram": {str(v): c for v, c in sorted(sentences.items())},
        "total_units": sum(units.values()),
        "total_sentences": sum(sentences.values()),
        "max_value": max([*units, *sentences], default=0),
        "thresholds": [
            {
                "threshold": t,
                "units_over": uc,
                "units_fraction": uf,
                "sentences_over": sc,
                "sentences_fraction": sf,
            }
            for t, uc, uf, sc, sf in _exceedances(units, sentences, THRESHOLDS)
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


RENDERERS = {"text": render_text, "csv": render_csv, "json": render_json}


def skip_line(skipped: int, attempted: int) -> str:
    """The CLI's stderr diagnostic; empty when nothing was skipped."""
    if not skipped:
        return ""
    return f"memload: skipped {skipped} of {attempted} sentences\n"
