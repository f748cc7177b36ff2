"""Short-term-memory load metrics for treebanks.

Measures how much pending syntactic material a left-to-right reader holds
at each point of a sentence: counts of units whose dependency head is still
ahead, and stack depths of words or noun phrases under two
branch-numbering schemes.  Per-unit and per-sentence-maximum frequency
tables summarize a corpus, with counts above chosen thresholds.
"""

from __future__ import annotations

from . import depload, stackdepth, stats, treebank
from .depload import *
from .stackdepth import *
from .stats import *
from .treebank import *

__version__ = "0.1.0"

# Each submodule's __all__ decides what it makes public; the package
# re-exports exactly those names.
__all__ = [
    "__version__",
    *treebank.__all__,
    *depload.__all__,
    *stackdepth.__all__,
    *stats.__all__,
]
