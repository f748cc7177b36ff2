"""Short-term-memory load metrics for treebanks.

Measures how much pending syntactic material a left-to-right reader holds
at each point of a sentence: counts of units whose dependency head is still
ahead, and stack depths of words or noun phrases under two
branch-numbering schemes.  Per-unit and per-sentence-maximum frequency
tables summarize a corpus, with counts above chosen thresholds.
"""

from __future__ import annotations

from .depload import LeftwardHead, ensure_rightward, load_profile, load_profile_oracle
from .profiles import DepthProfile
from .stackdepth import (
    COORDINATOR_LABELS,
    MetricConfig,
    NumberingScheme,
    branch_numbers,
    coordination_adjusted_numbers,
    grouped_stack_oracle_depths,
    np_depths,
    stack_oracle_depths,
    word_depths,
)
from .stats import (
    DEFAULT_THRESHOLDS,
    Histogram,
    ThresholdReport,
    UnsupportedFormat,
    merge_histograms,
    render,
    sentence_histogram,
    threshold_report,
    unit_histogram,
)
from .treebank import (
    ConstituencyTree,
    DepFormatError,
    DependencySentence,
    DependencyUnit,
    EmptyAfterNormalization,
    EmptyTree,
    HeadOutOfRange,
    LeafWithoutLabel,
    MalformedLine,
    MissingRoot,
    MultipleRoots,
    NonContiguousIndices,
    PtbParseError,
    PUNCTUATION_LABELS,
    SelfHead,
    TRACE_LABEL,
    TreebankError,
    UnbalancedBrackets,
    normalize_label,
    normalize_tree,
    parse_dep_corpus,
    parse_ptb_corpus,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ConstituencyTree",
    "DependencyUnit",
    "DependencySentence",
    "DepthProfile",
    "MetricConfig",
    "NumberingScheme",
    "Histogram",
    "ThresholdReport",
    "PUNCTUATION_LABELS",
    "TRACE_LABEL",
    "COORDINATOR_LABELS",
    "DEFAULT_THRESHOLDS",
    "TreebankError",
    "PtbParseError",
    "UnbalancedBrackets",
    "EmptyTree",
    "LeafWithoutLabel",
    "EmptyAfterNormalization",
    "DepFormatError",
    "MalformedLine",
    "NonContiguousIndices",
    "MultipleRoots",
    "MissingRoot",
    "SelfHead",
    "HeadOutOfRange",
    "LeftwardHead",
    "UnsupportedFormat",
    "parse_ptb_corpus",
    "parse_dep_corpus",
    "normalize_label",
    "normalize_tree",
    "load_profile",
    "load_profile_oracle",
    "ensure_rightward",
    "branch_numbers",
    "coordination_adjusted_numbers",
    "word_depths",
    "np_depths",
    "stack_oracle_depths",
    "grouped_stack_oracle_depths",
    "unit_histogram",
    "sentence_histogram",
    "merge_histograms",
    "threshold_report",
    "render",
]
