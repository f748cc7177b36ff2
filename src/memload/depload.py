"""Count units whose head is still ahead during left-to-right reading.

A unit read at position i stays in short-term memory until the position of
its head is reached; the root stays until the end of the sentence.  The
per-step count of such pending units is the load the sentence imposes.
"""

from __future__ import annotations

from .stats import DepthProfile
from .treebank import DependencySentence, TreebankError

__all__ = ["LeftwardHead", "load_profile", "ensure_rightward"]


class LeftwardHead(TreebankError):
    """A non-root unit points at an earlier unit (head index below its own)."""


def load_profile(sentence: DependencySentence) -> DepthProfile:
    """Pending-unit count after reading each of the n units.

    The value at position i is the number of units j <= i whose head lies
    strictly beyond i.  The root counts as resolving at the final position,
    so the last value is always 0.  Heads pointing leftward never pend.

    One sweep computes it in O(n): a running count of pending units, and
    for each position the number of pending units that resolve there.
    """
    heads = sentence.heads
    n = len(heads)
    ends = [0] * (n + 1)
    pending = 0
    values = []
    for i, head in enumerate(heads, start=1):
        resolved_at = head or n
        if resolved_at > i:
            pending += 1
            ends[resolved_at] += 1
        pending -= ends[i]
        values.append(pending)
    return DepthProfile(tuple(values))


def ensure_rightward(sentence: DependencySentence) -> None:
    """Raise LeftwardHead unless every non-root head points rightward."""
    offenders = [index for index, head in enumerate(sentence.heads, start=1) if 0 < head < index]
    if offenders:
        raise LeftwardHead(f"units {offenders} have heads to their left")
