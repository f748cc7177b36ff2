"""Frequency tables, their threshold rows, and the three render formats."""

from __future__ import annotations

import json
import random
from collections import Counter

import pytest

from memload.stats import DEFAULT_THRESHOLDS, render

from anchors import (
    DEP_SENTENCE_BINS,
    DEP_SENTENCE_TOTAL,
    DEP_UNIT_BINS,
    DEP_UNIT_TOTAL,
    SAMPSON_WORD_BINS,
    TREE_SENTENCE_TOTAL,
    WORD_TOTAL,
    YNGVE_WORD_BINS,
)
from oracles import sentence_histogram, unit_histogram

WALKTHROUGH = (1, 1, 2, 2, 0)


def threshold_rows(units, maxima=None, thresholds=DEFAULT_THRESHOLDS):
    """The threshold rows of render's json report on the two tables."""
    return json.loads(render(units, maxima or {}, "json", thresholds=thresholds))["thresholds"]


def column(rows, key):
    return [row[key] for row in rows]


def test_unit_histogram_walkthrough():
    histogram = unit_histogram([WALKTHROUGH])
    assert histogram == {0: 1, 1: 2, 2: 2}
    assert histogram.total() == 5
    assert max(histogram, default=0) == 2


def test_unit_histogram_empty():
    histogram = unit_histogram([])
    assert histogram == {}
    assert histogram.total() == 0
    assert max(histogram, default=0) == 0


def test_unit_histogram_many_profiles():
    histogram = unit_histogram([(0,), (1, 0)])
    assert histogram == {0: 2, 1: 1}
    assert histogram.total() == 3


def test_sentence_histogram_walkthrough():
    assert sentence_histogram([WALKTHROUGH]) == {2: 1}


def test_sentence_histogram_bins_empty_profiles_at_zero():
    profiles = [(2, 1, 0), (1, 0), ()]
    histogram = sentence_histogram(profiles)
    assert histogram == {0: 1, 1: 1, 2: 1}
    assert histogram.total() == 3


def test_totals_count_units_and_sentences():
    rng = random.Random(5)
    profiles = [
        tuple(rng.randrange(6) for _ in range(rng.randint(0, 12))) for _ in range(100)
    ]
    assert unit_histogram(profiles).total() == sum(len(p) for p in profiles)
    assert sentence_histogram(profiles).total() == 100


def test_histogram_rejects_bad_bins():
    # A negative value or a count below 1, in either table; a Counter keeps a bin taken to 0.
    emptied = Counter({3: 1, 4: 1})
    emptied[4] -= 1
    for bad, (value, count) in [({-1: 2}, (-1, 2)), ({0: 0}, (0, 0)), (emptied, (4, 0))]:
        for tables in [(bad, {0: 1}), ({0: 1}, bad)]:
            with pytest.raises(ValueError, match=f"^invalid histogram bin {value}: {count}$"):
                render(*tables, "csv")


def test_threshold_report_on_dependency_anchor():
    assert column(threshold_rows(DEP_UNIT_BINS, thresholds=[9]), "units_over") == [3]
    full = threshold_rows(DEP_UNIT_BINS)
    assert column(full, "threshold") == [5, 7, 9]
    assert column(full, "units_over") == [1398, 60, 3]
    assert full[2]["units_fraction"] == pytest.approx(3 / DEP_UNIT_TOTAL)


def test_threshold_report_on_sampson_anchor():
    [row] = threshold_rows(SAMPSON_WORD_BINS, thresholds=[5])
    assert row["units_over"] == 311
    assert row["units_fraction"] == pytest.approx(311 / WORD_TOTAL)


def test_threshold_comparison_is_strict():
    table = {0: 3, 2: 1, 3: 1}
    rows = threshold_rows(table, table, [2, 3, 50])
    assert column(rows, "units_over") == column(rows, "sentences_over") == [1, 0, 0]


def test_threshold_empty_histogram_has_zero_fractions():
    [row] = threshold_rows({}, {}, [5])
    assert row == {
        "threshold": 5,
        "units_over": 0,
        "units_fraction": 0.0,
        "sentences_over": 0,
        "sentences_fraction": 0.0,
    }


def test_thresholds_sorted_and_deduplicated():
    rows = threshold_rows({0: 1, 6: 2, 8: 1}, thresholds=[9, 5, 5, 7])
    assert column(rows, "threshold") == [5, 7, 9]
    assert column(rows, "units_over") == [3, 1, 0]
    assert column(rows, "units_fraction") == [0.75, 0.25, 0.0]


def test_render_csv_golden():
    unit = unit_histogram([WALKTHROUGH])
    sentence = sentence_histogram([WALKTHROUGH])
    assert render(unit, sentence, "csv") == (
        "value,units,sentences\n0,1,0\n1,2,0\n2,2,1\n"
    )


def test_render_csv_fills_zero_rows():
    out = render({0: 1, 3: 2}, {1: 1}, "csv")
    assert out == "value,units,sentences\n0,1,0\n1,0,1\n2,0,0\n3,2,0\n"


def test_render_csv_empty():
    assert render({}, {}, "csv") == "value,units,sentences\n"


def test_render_csv_threshold_comments():
    out = render(
        unit_histogram([WALKTHROUGH]),
        sentence_histogram([WALKTHROUGH]),
        "csv",
        thresholds=[1],
    )
    lines = out.splitlines()
    assert lines[0] == "value,units,sentences"
    assert lines[-1] == "# > 1: units 2 (0.4000), sentences 1 (1.0000)"


def test_render_json_round_trips():
    unit = unit_histogram([WALKTHROUGH])
    sentence = sentence_histogram([WALKTHROUGH])
    payload = json.loads(render(unit, sentence, "json", method="dep-load", thresholds=[5]))
    assert payload["method"] == "dep-load"
    assert payload["unit_histogram"] == {"0": 1, "1": 2, "2": 2}
    assert payload["sentence_histogram"] == {"2": 1}
    assert payload["total_units"] == 5
    assert payload["total_sentences"] == 1
    assert payload["max_value"] == 2
    assert payload["thresholds"] == [
        {
            "threshold": 5,
            "units_over": 0,
            "units_fraction": 0.0,
            "sentences_over": 0,
            "sentences_fraction": 0.0,
        }
    ]


def test_render_json_empty():
    payload = json.loads(render({}, {}, "json"))
    assert payload["unit_histogram"] == {}
    assert payload["sentence_histogram"] == {}
    assert payload["total_units"] == 0
    assert payload["total_sentences"] == 0
    assert payload["max_value"] == 0


def test_render_json_omits_zero_bins():
    payload = json.loads(render({0: 1, 5: 2}, {5: 1}, "json"))
    assert payload["unit_histogram"] == {"0": 1, "5": 2}
    assert "1" not in payload["unit_histogram"]


def test_render_text_table():
    out = render(
        unit_histogram([WALKTHROUGH]),
        sentence_histogram([WALKTHROUGH]),
        "text",
        method="dep-load",
        thresholds=[5],
    )
    lines = out.splitlines()
    assert lines[0] == "method: dep-load"
    assert lines[1].split() == ["value", "units", "sentences"]
    assert lines[2].split() == ["0", "1", "0"]
    assert lines[5].split() == ["total", "5", "1"]
    assert lines[6] == "> 5: units 0 (0.00%), sentences 0 (0.00%)"


def test_render_text_empty_has_total_row():
    lines = render({}, {}, "text").splitlines()
    assert lines[0].split() == ["value", "units", "sentences"]
    assert lines[1].split() == ["total", "0", "0"]


def test_render_text_matches_csv_numbers():
    unit = {0: 4, 2: 7, 5: 1}
    sentence = {2: 3, 5: 1}
    text_rows = [
        line.split() for line in render(unit, sentence, "text").splitlines()[1:-1]
    ]
    csv_rows = [
        line.split(",") for line in render(unit, sentence, "csv").splitlines()[1:]
    ]
    assert text_rows == csv_rows


def test_render_rejects_unknown_format():
    with pytest.raises(ValueError, match="unknown output format 'xml'"):
        render({}, {}, "xml")


def test_render_takes_a_table_in_any_order_and_mapping_type():
    units, maxima = Counter(), Counter()
    for value, count in [(12, 1), (9, 4), (5, 2), (2, 7), (0, 3)]:  # descending values
        units[value] += count
        if value > 4 or value == 0:
            maxima[value] += 1
    ascending = dict(sorted(units.items())), dict(sorted(maxima.items()))
    for fmt in ("text", "csv", "json"):
        out = render(units, maxima, fmt, method="dep-load", thresholds=[9, 0, 5, 9])
        assert out == render(*ascending, fmt, method="dep-load", thresholds=[9, 0, 5, 9])
    payload = json.loads(out)
    assert list(payload["unit_histogram"]) == ["0", "2", "5", "9", "12"]
    assert list(payload["sentence_histogram"]) == ["0", "5", "9", "12"]


def test_published_anchor_totals_are_consistent():
    # The fixed tallies must agree with their published totals before any
    # test leans on them.
    assert sum(DEP_UNIT_BINS.values()) == DEP_UNIT_TOTAL
    assert sum(DEP_SENTENCE_BINS.values()) == DEP_SENTENCE_TOTAL
    assert DEP_UNIT_BINS[0] == DEP_SENTENCE_TOTAL
    assert sum(YNGVE_WORD_BINS.values()) == WORD_TOTAL
    assert sum(SAMPSON_WORD_BINS.values()) == WORD_TOTAL
    assert YNGVE_WORD_BINS[0] == SAMPSON_WORD_BINS[0] == TREE_SENTENCE_TOTAL

