"""Names of the simulator's hot paths, for run-config records.

Each mechanism has one hot path (docs/COSTMODEL.md § Fast paths): slot
scheduling in the engine, the page-table walk cache and vectorized range
operations, batched Pisces IPI rounds and batched Linux demand faults.
None of them can be switched off; where a fallback exists it is chosen
by state the code observes (contention, region kind, permissions). This
immutable record only names them, so a benchmark's config line can say
which paths the run took.
"""

from __future__ import annotations

#: Every hot path, by name.
NAMES = ("engine_slots", "ipi_batching", "walk_cache", "range_vectorize",
         "fault_vectorize")


class _HotPaths:
    """The record: no state, no setters."""

    __slots__ = ()

    def as_dict(self) -> dict:
        """Every hot path, by name, mapped to ``True`` (always on)."""
        return dict.fromkeys(NAMES, True)


FASTPATH = _HotPaths()
