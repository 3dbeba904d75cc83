"""Prediction memo shared by the profilers.

The schedulers ask the profilers the same question many times between two
observations: DHA's priority recompute costs every task's staging row again,
and each row repeats a handful of (source, destination, size) transfers.  A
profiler's answer can only change when its ``prediction_version`` moves, so
a memo keyed on the question and cleared on every version bump returns
exactly what a fresh model evaluation would.
"""

from __future__ import annotations

from typing import Dict, Hashable

__all__ = ["VersionedMemo"]

#: Entries held before the memo starts over.  Between two version bumps a
#: run asks a few dozen distinct questions; the bound only matters for a
#: long run whose profiler never learns anything new.
MEMO_LIMIT = 4096


class VersionedMemo:
    """Answers keyed on their inputs, valid for one prediction version."""

    __slots__ = ("_entries", "_version")

    def __init__(self) -> None:
        self._entries: Dict[Hashable, object] = {}
        self._version = -1

    def table(self, version: int) -> Dict[Hashable, object]:
        """The entries valid at ``version`` (emptied when it moved)."""
        if version != self._version or len(self._entries) >= MEMO_LIMIT:
            self._entries.clear()
            self._version = version
        return self._entries
