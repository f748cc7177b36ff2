"""Per-sentence load profiles shared by the dependency and constituency metrics."""

from __future__ import annotations

from .treebank import _Record

__all__ = ["DepthProfile"]


class DepthProfile(_Record):
    """Load values for one sentence, one per measured unit, in reading order."""

    __slots__ = ("values",)

    def __init__(self, values: tuple[int, ...]) -> None:
        if any(v < 0 for v in values):
            raise ValueError("load values cannot be negative")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def sentence_max(self) -> int:
        """Largest load reached anywhere in the sentence, 0 when empty."""
        return max(self.values, default=0)
