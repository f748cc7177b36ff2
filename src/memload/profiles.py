"""Per-sentence load profiles shared by the dependency and constituency metrics."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DepthProfile"]


@dataclass(frozen=True)
class DepthProfile:
    """Load values for one sentence, one per measured unit, in reading order."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(v < 0 for v in self.values):
            raise ValueError("load values cannot be negative")

    def __len__(self) -> int:
        return len(self.values)

    @property
    def sentence_max(self) -> int:
        """Largest load reached anywhere in the sentence, 0 when empty."""
        return max(self.values, default=0)
