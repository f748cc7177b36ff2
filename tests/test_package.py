"""The package's public surface: the names `import memload` exports."""

from __future__ import annotations

import memload

PUBLIC_NAMES = {
    "__version__",
    "COORDINATOR_LABELS",
    "ConstituencyTree",
    "DEFAULT_THRESHOLDS",
    "DepFormatError",
    "DependencySentence",
    "DependencyUnit",
    "DepthProfile",
    "EmptyAfterNormalization",
    "EmptyTree",
    "HeadOutOfRange",
    "Histogram",
    "LeafWithoutLabel",
    "LeftwardHead",
    "MalformedLine",
    "MetricConfig",
    "MissingRoot",
    "MultipleRoots",
    "NonContiguousIndices",
    "NumberingScheme",
    "PUNCTUATION_LABELS",
    "PtbParseError",
    "SelfHead",
    "TRACE_LABEL",
    "ThresholdReport",
    "TreebankError",
    "UnbalancedBrackets",
    "UnsupportedFormat",
    "branch_numbers",
    "coordination_adjusted_numbers",
    "ensure_rightward",
    "grouped_stack_oracle_depths",
    "load_profile",
    "load_profile_oracle",
    "normalize_label",
    "normalize_tree",
    "np_depths",
    "parse_dep_corpus",
    "parse_ptb_corpus",
    "render",
    "sentence_histogram",
    "stack_oracle_depths",
    "threshold_report",
    "unit_histogram",
    "word_depths",
}


def test_public_names_are_pinned():
    assert set(memload.__all__) == PUBLIC_NAMES
    assert len(memload.__all__) == len(PUBLIC_NAMES)
    for name in memload.__all__:
        getattr(memload, name)
