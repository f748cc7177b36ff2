"""Histograms, threshold reports, and the three render formats."""

from __future__ import annotations

import json
import random

import pytest

from memload.stats import (
    DepthProfile,
    Histogram,
    ThresholdReport,
    UnsupportedFormat,
    render,
    sentence_histogram,
    threshold_report,
    unit_histogram,
)

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

WALKTHROUGH = DepthProfile((1, 1, 2, 2, 0))


@pytest.mark.parametrize("values", [(-1,), (3, -2, 0), (0, 0, -1)])
def test_depth_profile_rejects_negative_values(values):
    with pytest.raises(ValueError, match="^load values cannot be negative$"):
        DepthProfile(values)


@pytest.mark.parametrize("values", [(), (0,), (2, 0, 1)])
def test_depth_profile_keeps_non_negative_values(values):
    assert DepthProfile(values).values is values


def test_unit_histogram_walkthrough():
    histogram = unit_histogram([WALKTHROUGH])
    assert histogram.bins == {0: 1, 1: 2, 2: 2}
    assert histogram.total == 5
    assert histogram.max_value == 2


def test_unit_histogram_empty():
    histogram = unit_histogram([])
    assert histogram.bins == {}
    assert histogram.total == 0
    assert histogram.max_value == 0


def test_unit_histogram_many_profiles():
    histogram = unit_histogram([DepthProfile((0,)), DepthProfile((1, 0))])
    assert histogram.bins == {0: 2, 1: 1}
    assert histogram.total == 3


def test_sentence_histogram_walkthrough():
    assert sentence_histogram([WALKTHROUGH]).bins == {2: 1}


def test_sentence_histogram_bins_empty_profiles_at_zero():
    profiles = [DepthProfile((2, 1, 0)), DepthProfile((1, 0)), DepthProfile(())]
    histogram = sentence_histogram(profiles)
    assert histogram.bins == {0: 1, 1: 1, 2: 1}
    assert histogram.total == 3


def test_totals_count_units_and_sentences():
    rng = random.Random(5)
    profiles = [
        DepthProfile(tuple(rng.randrange(6) for _ in range(rng.randint(0, 12))))
        for _ in range(100)
    ]
    assert unit_histogram(profiles).total == sum(len(p) for p in profiles)
    assert sentence_histogram(profiles).total == 100


def test_histogram_rejects_bad_bins():
    with pytest.raises(ValueError):
        Histogram({-1: 2})
    with pytest.raises(ValueError):
        Histogram({0: 0})


def test_threshold_report_on_dependency_anchor():
    report = threshold_report(Histogram(DEP_UNIT_BINS), [9])
    assert report.exceed_counts == (3,)
    full = threshold_report(Histogram(DEP_UNIT_BINS))
    assert full.thresholds == (5, 7, 9)
    assert full.exceed_counts == (1398, 60, 3)
    assert full.exceed_fractions[2] == pytest.approx(3 / DEP_UNIT_TOTAL)


def test_threshold_report_on_sampson_anchor():
    report = threshold_report(Histogram(SAMPSON_WORD_BINS), [5])
    assert report.exceed_counts == (311,)
    assert report.exceed_fractions == (pytest.approx(311 / WORD_TOTAL),)


def test_threshold_comparison_is_strict():
    report = threshold_report(Histogram({0: 3, 2: 1, 3: 1}), [2, 3, 50])
    assert report.exceed_counts == (1, 0, 0)


def test_threshold_empty_histogram_has_zero_fractions():
    report = threshold_report(Histogram({}), [5])
    assert report.exceed_counts == (0,)
    assert report.exceed_fractions == (0.0,)


def test_thresholds_sorted_and_deduplicated():
    report = threshold_report(Histogram({0: 1, 6: 2, 8: 1}), [9, 5, 5, 7])
    assert report.thresholds == (5, 7, 9)
    assert report.exceed_counts == (3, 1, 0)
    assert all(a >= b for a, b in zip(report.exceed_counts, report.exceed_counts[1:]))


def test_render_csv_golden():
    unit = unit_histogram([WALKTHROUGH])
    sentence = sentence_histogram([WALKTHROUGH])
    assert render(unit, sentence, "csv") == (
        "value,units,sentences\n0,1,0\n1,2,0\n2,2,1\n"
    )


def test_render_csv_fills_zero_rows():
    out = render(Histogram({0: 1, 3: 2}), Histogram({1: 1}), "csv")
    assert out == "value,units,sentences\n0,1,0\n1,0,1\n2,0,0\n3,2,0\n"


def test_render_csv_empty():
    assert render(Histogram({}), Histogram({}), "csv") == "value,units,sentences\n"


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
    payload = json.loads(render(Histogram({}), Histogram({}), "json"))
    assert payload["unit_histogram"] == {}
    assert payload["sentence_histogram"] == {}
    assert payload["total_units"] == 0
    assert payload["total_sentences"] == 0
    assert payload["max_value"] == 0


def test_render_json_omits_zero_bins():
    payload = json.loads(render(Histogram({0: 1, 5: 2}), Histogram({5: 1}), "json"))
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
    lines = render(Histogram({}), Histogram({}), "text").splitlines()
    assert lines[0].split() == ["value", "units", "sentences"]
    assert lines[1].split() == ["total", "0", "0"]


def test_render_text_matches_csv_numbers():
    unit = Histogram({0: 4, 2: 7, 5: 1})
    sentence = Histogram({2: 3, 5: 1})
    text_rows = [
        line.split() for line in render(unit, sentence, "text").splitlines()[1:-1]
    ]
    csv_rows = [
        line.split(",") for line in render(unit, sentence, "csv").splitlines()[1:]
    ]
    assert text_rows == csv_rows


def test_render_rejects_unknown_format():
    with pytest.raises(UnsupportedFormat):
        render(Histogram({}), Histogram({}), "xml")


def test_published_anchor_totals_are_consistent():
    # The fixed tallies must agree with their published totals before any
    # test leans on them.
    assert sum(DEP_UNIT_BINS.values()) == DEP_UNIT_TOTAL
    assert sum(DEP_SENTENCE_BINS.values()) == DEP_SENTENCE_TOTAL
    assert DEP_UNIT_BINS[0] == DEP_SENTENCE_TOTAL
    assert sum(YNGVE_WORD_BINS.values()) == WORD_TOTAL
    assert sum(SAMPSON_WORD_BINS.values()) == WORD_TOTAL
    assert YNGVE_WORD_BINS[0] == SAMPSON_WORD_BINS[0] == TREE_SENTENCE_TOTAL


def test_threshold_report_type():
    report = threshold_report(Histogram({0: 1}), [5, 7])
    assert isinstance(report, ThresholdReport)
    assert len(report.thresholds) == len(report.exceed_counts) == len(
        report.exceed_fractions
    )
