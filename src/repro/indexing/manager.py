"""Index manager: builds and serves the tag and value indexes of a store.

TIMBER's Index Manager (Fig. 12) sits beside the Data Manager over
Shore.  Ours builds both indexes with one sequential scan of the node
store — the same scan order the bulk loader wrote, so building is
page-sequential — and then serves label streams to the pattern matcher
without touching data pages.

A directory database persists its indexes in ``indexes.pages``
(:mod:`repro.indexing.persist`): :meth:`IndexManager.try_load` restores
them on open when the snapshot's store fingerprint still matches, and
anything missing, corrupt or stale falls back to a rebuild scan.
Streaming ingest folds each committed batch into the live structures
instead of rebuilding them (:meth:`IndexManager.apply_ingest_batch`).
"""

from __future__ import annotations

import threading

from ..cancellation import deadline_scope
from ..errors import IndexError_
from ..storage.store import NodeStore
from .labels import NodeLabel
from .tag_index import TagIndex
from .value_index import ValueIndex


class IndexManager:
    """Tag + value indexes over one :class:`NodeStore`."""

    def __init__(self, store: NodeStore):
        self.store = store
        self.tag_index = TagIndex()
        self.value_index = ValueIndex()
        self._built = False
        self._build_lock = threading.Lock()
        # Columnar node table for the current store generation; built
        # lazily on first query and invalidated by every rebuild.
        self._columnar = None
        self._columnar_lock = threading.Lock()
        # Streaming-ingest maintenance counters: batches folded into the
        # live structures incrementally, and full rebuilds that folding
        # made unnecessary (one per structure per batch).
        self.incremental_updates = 0
        self.rebuilds_avoided = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def build(self) -> None:
        """(Re)build both indexes with one full store scan.

        The build is maintenance work shared by every future query, so
        it runs shielded from any per-query deadline active on this
        thread — a slow query may time out, but it must not abandon a
        half-built index for its successors.
        """
        tag_index = TagIndex()
        value_index = ValueIndex()
        with deadline_scope(None):
            for record in self.store.scan():
                label = NodeLabel(record.nid, record.start, record.end, record.level)
                tag_index.add(record.tag_sym, label)
                if record.content is not None:
                    value_index.add(record.tag_sym, record.content, label)
        # Swap in atomically (w.r.t. the GIL) only once complete, so
        # concurrent readers never observe a partially filled index.
        self.tag_index = tag_index
        self.value_index = value_index
        self._built = True
        self._columnar = None  # stale for the new generation; rebuilt lazily

    def ensure_built(self) -> None:
        """Build on first use; safe to race from many query threads."""
        if self._built:
            return
        with self._build_lock:
            if not self._built:
                self.build()

    # ------------------------------------------------------------------
    # Incremental maintenance (streaming ingest)
    # ------------------------------------------------------------------
    def apply_ingest_batch(
        self,
        records,
        root_record,
        old_root_record,
        first_batch: bool,
        doc_id: int,
    ) -> None:
        """Fold one *committed* ingest batch into every index structure
        — tag index, value index, and columnar table —
        instead of rebuilding them from a store scan.

        ``records`` are the batch's new node records in nid order (the
        root included on the first batch); ``root_record`` is the root
        as committed by this batch, ``old_root_record`` its pre-batch
        version (None on the first batch).  The batch's nids/labels all
        exceed existing ones, so tag postings append in sorted position,
        the B+tree inserts keep their natural order, and the columnar
        table extends group-by-group.  Structures are swapped in only
        once complete; concurrent readers see either the pre- or
        post-batch snapshot, never a half-applied one.

        The columnar table is extended only when it was
        fresh for the pre-batch generation; a stale one stays stale and
        rebuilds lazily as before.
        """
        if not self._built:
            # Nothing live to maintain: the first query after the ingest
            # pays one full build, exactly as before this subsystem.
            return
        with deadline_scope(None):
            root_replace = old_root_record is not None and (
                old_root_record.end != root_record.end
            )

            value_index = self.value_index
            for record in records:
                if record.content is None:
                    continue
                value_index.add(
                    record.tag_sym,
                    record.content,
                    NodeLabel(record.nid, record.start, record.end, record.level),
                )
            if root_replace and root_record.content is not None:
                value_index.replace_label(
                    root_record.tag_sym,
                    root_record.content,
                    NodeLabel(
                        old_root_record.nid,
                        old_root_record.start,
                        old_root_record.end,
                        old_root_record.level,
                    ),
                    NodeLabel(
                        root_record.nid,
                        root_record.start,
                        root_record.end,
                        root_record.level,
                    ),
                )
            self.incremental_updates += 1
            self.rebuilds_avoided += 1

            tag_index = self.tag_index
            for record in records:
                tag_index.add(
                    record.tag_sym,
                    NodeLabel(record.nid, record.start, record.end, record.level),
                )
            if root_replace:
                tag_index.replace_label(
                    root_record.tag_sym,
                    NodeLabel(
                        old_root_record.nid,
                        old_root_record.start,
                        old_root_record.end,
                        old_root_record.level,
                    ),
                    NodeLabel(
                        root_record.nid,
                        root_record.start,
                        root_record.end,
                        root_record.level,
                    ),
                )
            self.incremental_updates += 1
            self.rebuilds_avoided += 1

            generation = self.store.generation
            table = self._columnar
            if table is not None and table.generation == generation - 1:
                from .columnar import extend_columnar_table

                root_update = root_record if root_replace else None
                self._columnar = extend_columnar_table(
                    table, records, doc_id, generation, root_update=root_update
                )
                self.incremental_updates += 1
                self.rebuilds_avoided += 1

    # ------------------------------------------------------------------
    # Columnar snapshot (the staircase hot path's node table)
    # ------------------------------------------------------------------
    def ensure_columnar(self):
        """The columnar table for the current store generation.

        Built lazily on first use (from the tag index — no page I/O),
        reused while the generation is stable, and — when the database
        has a directory and the persisted index snapshot is fresh —
        written back into ``indexes.pages`` so a reopen skips this
        build entirely.
        """
        table = self._columnar
        if table is not None and table.generation == self.store.generation:
            return table
        with self._columnar_lock:
            table = self._columnar
            if table is not None and table.generation == self.store.generation:
                return table
            from .columnar import build_columnar_table

            self.ensure_built()
            table = build_columnar_table(self.store, self.tag_index)
            self._columnar = table
            self._persist_columnar()
            return table

    def columnar_if_fresh(self):
        """The cached table when it matches the current generation, else
        None — never triggers a build (EXPLAIN uses this)."""
        table = self._columnar
        if table is not None and table.generation == self.store.generation:
            return table
        return None

    def columnar_status(self) -> dict[str, object]:
        """Snapshot state for EXPLAIN and load reports; non-building."""
        table = self.columnar_if_fresh()
        if table is not None:
            return {
                "state": "ready",
                "rows": table.n_rows,
                "generation": table.generation,
            }
        return {
            "state": "pending",
            "rows": None,
            "generation": self.store.generation,
        }

    def _persist_columnar(self) -> None:
        """Opportunistically rewrite the index snapshot so the lazily
        built columnar table is included.  Persistence is a cache: any
        failure (or a snapshot that is already stale) is silently
        skipped."""
        directory = self.store.directory
        if directory is None:
            return
        from .persist import save_indexes, snapshot_is_fresh

        try:
            if snapshot_is_fresh(self.store.meta, directory):
                save_indexes(self, directory)
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Persistence (indexes.pages in the database directory)
    # ------------------------------------------------------------------
    def save(self, directory: str) -> None:
        """Serialize both indexes into ``directory/indexes.pages``."""
        from .persist import save_indexes

        self.ensure_built()
        save_indexes(self, directory)

    def try_load(self, directory: str) -> bool:
        """Load persisted indexes; returns False (leaving the manager
        unbuilt) when missing, corrupt, or stale."""
        from .persist import load_indexes

        return load_indexes(self, directory)

    # ------------------------------------------------------------------
    # Lookups by tag *name* (symbols resolved through the store metadata)
    # ------------------------------------------------------------------
    def labels_for_tag(self, tag: str) -> list[NodeLabel]:
        """Document-ordered labels of every node tagged ``tag``."""
        self.ensure_built()
        sym = self.store.meta.symbols.lookup(tag)
        if sym is None:
            return []
        return self.tag_index.labels(sym)

    def labels_for_tag_value(self, tag: str, content: str) -> list[NodeLabel]:
        """Labels of nodes tagged ``tag`` whose content is ``content``."""
        self.ensure_built()
        sym = self.store.meta.symbols.lookup(tag)
        if sym is None:
            return []
        return self.value_index.labels(sym, content)

    def distinct_values(self, tag: str) -> list[tuple[str, list[NodeLabel]]]:
        """Distinct contents of ``tag`` (ascending) with their postings.

        Serves ``distinct-values(//tag)`` without data page access.
        """
        self.ensure_built()
        sym = self.store.meta.symbols.lookup(tag)
        if sym is None:
            return []
        return list(self.value_index.distinct_values(sym))

    def tag_cardinality(self, tag: str) -> int:
        """Number of nodes with the tag (selectivity estimation)."""
        self.ensure_built()
        sym = self.store.meta.symbols.lookup(tag)
        if sym is None:
            return 0
        return self.tag_index.count(sym)

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        if not self._built:
            raise IndexError_("indexes have not been built")
        self.tag_index.check_invariants()
        self.value_index.check_invariants()

    def work_counters(self) -> dict[str, int]:
        """Work done against the indexes: lookup calls plus the lengths
        of the candidate streams they served.  No size gauges, so two
        snapshots subtract to a meaningful delta."""
        return {
            "tag_index_lookups": self.tag_index.lookups,
            "value_index_lookups": self.value_index.lookups,
            "index_postings_served": self.tag_index.postings_served
            + self.value_index.postings_served,
            "index_incremental_updates": self.incremental_updates,
            "index_rebuild_avoided": self.rebuilds_avoided,
        }
