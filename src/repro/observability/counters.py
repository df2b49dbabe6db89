"""Immutable counter snapshots over the execution substrate.

Every layer of the stack keeps mutable counters (the store's logical
lookups, the buffer pool's hits and misses, the disk manager's physical
I/O, the index lookups, the matcher's candidate streams, the structural
join's pair counts).  Observability never reads those objects directly:
it takes a :class:`CounterSnapshot` before and after a unit of work and
subtracts.  Snapshots are immutable, so a captured profile cannot drift
when execution continues.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Iterator


class CounterSnapshot(Mapping):
    """An immutable ``name -> int`` view of a set of counters.

    Behaves like a read-only mapping; ``a - b`` yields the per-key
    difference (keys are the union of both operands, missing keys count
    as zero) — the delta of work done between two snapshots.
    """

    __slots__ = ("_data",)

    def __init__(self, data: Mapping | None = None, **extra: int):
        merged = dict(data) if data else {}
        merged.update(extra)
        object.__setattr__(self, "_data", merged)

    # -- Mapping protocol ------------------------------------------------
    def __getitem__(self, key: str) -> int:
        return self._data[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: str, default: int = 0) -> int:
        return self._data.get(key, default)

    # -- immutability ----------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        raise TypeError("CounterSnapshot is immutable")

    def __setitem__(self, key: str, value) -> None:
        raise TypeError("CounterSnapshot is immutable")

    # -- arithmetic ------------------------------------------------------
    def __sub__(self, other: "CounterSnapshot | Mapping") -> "CounterSnapshot":
        keys = set(self._data) | set(other)
        return CounterSnapshot(
            {key: self.get(key, 0) - other.get(key, 0) for key in keys}
        )

    def __add__(self, other: "CounterSnapshot | Mapping") -> "CounterSnapshot":
        keys = set(self._data) | set(other)
        return CounterSnapshot(
            {key: self.get(key, 0) + other.get(key, 0) for key in keys}
        )

    def __eq__(self, other) -> bool:
        if isinstance(other, CounterSnapshot):
            return self._data == other._data
        if isinstance(other, Mapping):
            return self._data == dict(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._data.items()))

    def as_dict(self) -> dict[str, int]:
        """A mutable copy (for JSON serialization and the like)."""
        return dict(self._data)

    def nonzero(self) -> dict[str, int]:
        """Only the counters that moved — compact delta rendering."""
        return {key: value for key, value in self._data.items() if value}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self._data.items()))
        return f"<CounterSnapshot {inner}>"


EMPTY_SNAPSHOT = CounterSnapshot()


def snapshot_counters(store, indexes=None, matcher=None) -> CounterSnapshot:
    """One flat snapshot across every instrumented layer.

    ``store`` is required (it owns the buffer pool and disk manager);
    ``indexes`` and ``matcher`` are included when provided.  The
    module-global structural-join counters are always included.  All
    arguments are duck-typed so this module imports none of the layers
    it observes.
    """
    from ..indexing.columnar import columnar_statistics
    from ..pattern.structural_join import join_statistics

    data: dict[str, int] = {}
    data.update(store.counters.snapshot())
    data.update(store.pool.counters.snapshot())
    data.update(store.disk.counters.snapshot())
    data.update(join_statistics().snapshot())
    data.update(columnar_statistics().snapshot())
    # Fault-injection and crash-recovery layers, when present (the disk
    # may be a FaultyDiskManager; the store keeps recovery counters).
    recovery = getattr(store, "recovery", None)
    if recovery is not None:
        data.update(recovery.snapshot())
    fault_counters = getattr(store.disk, "fault_counters", None)
    if fault_counters is not None:
        data.update(fault_counters.snapshot())
    ingest_stats = getattr(store, "ingest_stats", None)
    if ingest_stats is not None:
        data.update(ingest_stats.snapshot())
    if indexes is not None:
        data.update(indexes.work_counters())
    if matcher is not None:
        data.update(matcher.stats.snapshot())
    # Derived: pages touched = logical page requests against the pool.
    data["pages_touched"] = data.get("hits", 0) + data.get("misses", 0)
    return CounterSnapshot(data)
