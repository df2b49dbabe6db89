"""The node store — TIMBER's Data Manager on top of the page substrate.

Documents are bulk-loaded: a parsed :class:`~repro.xmlmodel.node.XMLNode`
tree is labelled with ``(start, end, level)`` containment labels in one
traversal, encoded into node records, and packed densely into slotted
pages in document order.  Because nids equal preorder positions, a
node's subtree is the contiguous nid range ``[nid, nid + size)`` and
children are enumerated by hopping over sibling subtrees — every hop is
one record lookup through the buffer pool, which is exactly the cost
model the paper's evaluation reasons about.

The store separates *structural* access (records, labels, children) from
*value* access (``content``): Sec. 5.3 argues grouping should run on
identifiers and only populate values late.  The statistics object counts
both kinds of access so benchmarks can report them.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from ..cancellation import checkpoint
from ..errors import DatabaseError, RecoveryError, StorageError, TransientIOError
from ..xmlmodel.node import XMLNode
from ..xmlmodel.parse import parse_document
from .buffer import DEFAULT_POOL_FRAMES, BufferPool
from .disk import DiskManager
from .faults import FaultPlan, FaultyDiskManager, maybe_crash, plan_from_env
from .journal import (
    COMPACT_STAGE_DIR,
    clear_journal,
    recover_directory,
    write_journal,
)
from .metadata import DocumentInfo, MetadataManager
from .page import Page
from .records import NO_PARENT, NodeRecord, decode_record, encode_record

DATA_FILE = "data.pages"
META_FILE = "meta.json"


class StoreStatistics:
    """Logical access counters for the cost model."""

    __slots__ = ("record_lookups", "value_lookups", "nodes_materialized")

    def __init__(self):
        self.record_lookups = 0
        self.value_lookups = 0
        self.nodes_materialized = 0

    def reset(self) -> None:
        self.record_lookups = 0
        self.value_lookups = 0
        self.nodes_materialized = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "record_lookups": self.record_lookups,
            "value_lookups": self.value_lookups,
            "nodes_materialized": self.nodes_materialized,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<StoreStatistics records={self.record_lookups} "
            f"values={self.value_lookups} materialized={self.nodes_materialized}>"
        )


class IngestStatistics:
    """Counters for the streaming-ingest write path."""

    __slots__ = (
        "batches_committed",
        "nodes_streamed",
        "ingests_started",
        "ingests_finished",
        "ingests_aborted",
    )

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, 0)

    def reset(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def snapshot(self) -> dict[str, int]:
        return {
            "ingest_batches_committed": self.batches_committed,
            "ingest_nodes_streamed": self.nodes_streamed,
            "ingests_started": self.ingests_started,
            "ingests_finished": self.ingests_finished,
            "ingests_aborted": self.ingests_aborted,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        inner = " ".join(f"{n}={getattr(self, n)}" for n in self.__slots__)
        return f"<IngestStatistics {inner}>"


class RecoveryStatistics:
    """Counters for crash-recovery and repair work done by this store."""

    __slots__ = (
        "recoveries",
        "rollbacks",
        "rollforwards",
        "pages_quarantined",
        "documents_dropped",
    )

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, 0)

    def reset(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def snapshot(self) -> dict[str, int]:
        return {
            "recoveries": self.recoveries,
            "recovery_rollbacks": self.rollbacks,
            "recovery_rollforwards": self.rollforwards,
            "pages_quarantined": self.pages_quarantined,
            "documents_dropped": self.documents_dropped,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        inner = " ".join(f"{n}={getattr(self, n)}" for n in self.__slots__)
        return f"<RecoveryStatistics {inner}>"


@dataclass
class VerifyReport:
    """Outcome of :meth:`NodeStore.verify` — the store's health check."""

    pages_checked: int = 0
    corrupt_pages: list[int] = field(default_factory=list)
    quarantined_pages: list[int] = field(default_factory=list)
    affected_documents: list[str] = field(default_factory=list)
    meta_problems: list[str] = field(default_factory=list)
    recovery_action: str | None = None  # what recovery did on open
    index_fresh: bool | None = None  # None = not checked at this layer

    @property
    def ok(self) -> bool:
        return not self.corrupt_pages and not self.meta_problems

    def render(self) -> str:
        lines = [
            f"pages: {self.pages_checked} checked, "
            f"{len(self.corrupt_pages)} corrupt, "
            f"{len(self.quarantined_pages)} quarantined"
        ]
        if self.corrupt_pages:
            lines.append(f"corrupt pages: {self.corrupt_pages}")
        if self.affected_documents:
            lines.append(f"affected documents: {self.affected_documents}")
        lines.append("metadata: " + ("OK" if not self.meta_problems else "; ".join(self.meta_problems)))
        if self.recovery_action:
            lines.append(f"recovery on open: {self.recovery_action}")
        if self.index_fresh is not None:
            lines.append("indexes: " + ("fresh" if self.index_fresh else "stale (will rebuild)"))
        lines.append("verdict: " + ("OK" if self.ok else "CORRUPT"))
        return "\n".join(lines)


@dataclass
class RepairReport:
    """Outcome of :meth:`NodeStore.repair`."""

    verify: VerifyReport = field(default_factory=VerifyReport)
    quarantined_pages: list[int] = field(default_factory=list)
    dropped_documents: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.quarantined_pages and not self.dropped_documents

    def render(self) -> str:
        if self.clean:
            return "repair: nothing to do (store is clean)"
        return (
            f"repair: quarantined pages {self.quarantined_pages}, "
            f"dropped documents {self.dropped_documents}"
        )


class NodeStore:
    """Page-backed store of labelled XML nodes."""

    def __init__(
        self,
        directory: str | None = None,
        pool_frames: int = DEFAULT_POOL_FRAMES,
        fault_plan: FaultPlan | None = None,
        degraded: bool = False,
    ):
        """Create (or open) a store.

        ``directory=None`` gives an in-memory store: same code paths and
        counters, no files.  With a directory, ``data.pages`` and
        ``meta.json`` are created there, and an existing store at that
        location is reopened — after journal-driven crash recovery when
        a bulk load or compaction was interrupted.

        ``fault_plan`` wraps the disk manager in a
        :class:`~repro.storage.faults.FaultyDiskManager` (tests, CI);
        when omitted, the ``REPRO_FAULT_PLAN`` environment variable is
        consulted.  ``degraded=True`` additionally quarantines any
        unreadable pages on open (dropping the documents they carried)
        instead of letting reads fail later.
        """
        self.directory = directory
        self._closed = False
        #: Monotonic data-generation counter: bumped on every mutation
        #: of the stored data (load, drop, compact, repair).  The
        #: service layer keys its result cache on it, so any mutation
        #: invalidates all cached results without a scan.
        self.generation = 0
        self.fault_plan = fault_plan if fault_plan is not None else plan_from_env()
        self.recovery = RecoveryStatistics()
        self._recovery_action: str | None = None
        if directory is None:
            self.disk = self._open_disk(None)
            self.meta = MetadataManager()
        else:
            os.makedirs(directory, exist_ok=True)
            # Recovery works on the raw files and must run before the
            # disk manager opens them (a torn tail page makes the file
            # size invalid until it is truncated away).
            self._recovery_action = recover_directory(directory, self.recovery)
            data_path = os.path.join(directory, DATA_FILE)
            meta_path = os.path.join(directory, META_FILE)
            self.disk = self._open_disk(data_path)
            if os.path.exists(meta_path):
                self.meta = MetadataManager.load(meta_path)
            else:
                self.meta = MetadataManager()
        self.pool = BufferPool(self.disk, capacity=pool_frames)
        self.counters = StoreStatistics()
        self.ingest_stats = IngestStatistics()
        # At most one streaming ingest may run at a time: its document
        # owns a contiguous nid range and a disjoint label region, so no
        # other mutation may interleave between its batches.
        self._active_ingest: "StoreIngest | None" = None
        if degraded and directory is not None:
            self.repair()

    def _check_no_ingest(self, operation: str) -> None:
        if self._active_ingest is not None:
            raise DatabaseError(
                f"cannot {operation} while a streaming ingest of "
                f"{self._active_ingest.name!r} is active"
            )

    def _open_disk(self, path: str | None) -> DiskManager:
        disk = DiskManager(path)
        if self.fault_plan is not None:
            return FaultyDiskManager(disk, self.fault_plan)  # type: ignore[return-value]
        return disk

    # ------------------------------------------------------------------
    # Bulk loading
    # ------------------------------------------------------------------
    def load_tree(self, root: XMLNode, name: str) -> DocumentInfo:
        """Label, encode, and store a document tree under ``name``.

        Directory-backed stores run the load under an intent journal:
        pages are appended and fsynced, then ``meta.json`` is atomically
        replaced (the commit point), then the journal is cleared.  A
        crash at any step leaves a state :func:`~repro.storage.journal.
        recover_directory` restores on the next open — either the
        complete document or a clean rollback, never a torn store.
        """
        self._check_no_ingest("load a document")
        if name in self.meta._documents_by_name:
            raise DatabaseError(f"document {name!r} already exists")
        if self.directory is None:
            records = self._label_tree(root)
            self._pack_records(records)
            info = self.meta.register_document(name, records[0].nid, len(records))
            self.flush()
            self.generation += 1
            return info
        info = self._load_tree_journaled(root, name)
        self.generation += 1
        return info

    def _load_tree_journaled(self, root: XMLNode, name: str) -> DocumentInfo:
        base_pages = self.disk.n_pages
        base_next_nid = self.meta.next_nid
        base_next_label = self.meta.next_label
        records = self._label_tree(root)
        write_journal(
            self.directory,
            {
                "op": "load",
                "name": name,
                "base_pages": base_pages,
                "base_next_nid": base_next_nid,
                "new_next_nid": self.meta.next_nid,
            },
        )
        maybe_crash(self.fault_plan, "load.journal_written")
        try:
            self._pack_records(records)
            info = self.meta.register_document(name, records[0].nid, len(records))
            self.pool.flush_all()
            self.disk.sync()
            maybe_crash(self.fault_plan, "load.pages_synced")
            self.meta.save(os.path.join(self.directory, META_FILE))  # COMMIT
            maybe_crash(self.fault_plan, "load.meta_committed")
        except Exception:
            # A real failure mid-load (not a simulated crash, which must
            # leave the torn state for reopen-time recovery): roll back
            # in-process so the open store stays consistent.
            self._abort_load(base_pages, base_next_nid, base_next_label, name)
            raise
        clear_journal(self.directory)
        maybe_crash(self.fault_plan, "load.journal_cleared")
        return info

    def _abort_load(
        self, base_pages: int, base_next_nid: int, base_next_label: int, name: str
    ) -> None:
        try:
            self.pool.discard_all()
            self.disk.truncate(base_pages)
        except StorageError:  # pragma: no cover - best-effort rollback
            pass
        # Rebuild the in-memory metadata from the committed on-disk
        # state (the load never committed, so the file is the old one).
        meta_path = os.path.join(self.directory, META_FILE)
        if os.path.exists(meta_path):
            self.meta = MetadataManager.load(meta_path)
        else:
            self.meta = MetadataManager()
        self.meta.next_nid = min(self.meta.next_nid, base_next_nid)
        self.meta.next_label = min(self.meta.next_label, base_next_label)
        clear_journal(self.directory)

    def load_text(self, text: str, name: str) -> DocumentInfo:
        """Parse XML text and store it."""
        return self.load_tree(parse_document(text), name)

    def load_file(self, path: str, name: str | None = None) -> DocumentInfo:
        """Load an XML file; a missing or unreadable path raises
        :class:`DatabaseError` naming the path, never a bare
        ``FileNotFoundError``."""
        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise DatabaseError(f"cannot read document file {path!r}: {exc}") from exc
        return self.load_text(text, name or os.path.basename(path))

    # ------------------------------------------------------------------
    # Streaming ingest
    # ------------------------------------------------------------------
    def begin_ingest(self, root_shell: XMLNode, name: str) -> "StoreIngest":
        """Start a streaming ingest of one document.

        ``root_shell`` is the document root with its tag, attributes,
        and leading text but *no children*: batches of root children are
        appended through :meth:`StoreIngest.commit_batch`, each commit
        crash-consistent and immediately visible to readers.  The root's
        record is rewritten in place at every commit to advance its
        ``end`` label (an equal-length overwrite), so the shell's tag,
        attributes, and content are fixed for the whole stream.

        At most one ingest may be active per store; every other mutation
        (bulk load, drop, compact, repair) is rejected until it finishes
        or aborts.
        """
        self._check_no_ingest("start another ingest")
        if name in self.meta._documents_by_name:
            raise DatabaseError(f"document {name!r} already exists")
        if root_shell.children:
            raise DatabaseError(
                "streaming ingest takes a childless root shell; feed the "
                "children through commit_batch"
            )
        ingest = StoreIngest(self, root_shell, name)
        self._active_ingest = ingest
        self.ingest_stats.ingests_started += 1
        return ingest

    def _label_tree(self, root: XMLNode) -> list[NodeRecord]:
        """Assign nids and (start, end, level) labels in one traversal."""
        return self._label_forest([root], NO_PARENT, 0)

    def _label_forest(
        self, roots: list[XMLNode], parent_nid: int, base_level: int
    ) -> list[NodeRecord]:
        """Label a sequence of sibling subtrees in document order.

        The whole-document load labels ``[root]`` under ``NO_PARENT``;
        the streaming ingest labels each batch of root children under
        the already-stored document root's nid at level 1, continuing
        the same global nid/label counters.
        """
        first_nid = self.meta.next_nid
        counter = self.meta.next_label
        next_nid = first_nid
        records: list[NodeRecord | None] = []
        starts: dict[int, tuple[int, int, int]] = {}  # id(node) -> (nid, start, level)

        stack: list[tuple[XMLNode, int, int, bool]] = [
            (root, parent_nid, base_level, False) for root in reversed(roots)
        ]
        while stack:
            node, parent_nid, level, expanded = stack.pop()
            if not expanded:
                nid = next_nid
                next_nid += 1
                starts[id(node)] = (nid, counter, level)
                counter += 1
                records.append(None)
                stack.append((node, parent_nid, level, True))
                stack.extend((child, nid, level + 1, False) for child in reversed(node.children))
            else:
                nid, start, level_ = starts.pop(id(node))
                end = counter
                counter += 1
                records[nid - first_nid] = NodeRecord(
                    nid=nid,
                    parent=parent_nid,
                    tag_sym=self.meta.symbols.intern(node.tag),
                    start=start,
                    end=end,
                    level=level_,
                    content=node.content,
                    attributes=tuple(node.attributes.items()),
                )
                node.nid = nid

        # Hand out parent nids to the expanded pass: children were pushed
        # with the parent's nid already assigned, so every record is set.
        complete = [record for record in records if record is not None]
        if len(complete) != len(records):
            raise StorageError("internal error: labelling produced holes")
        self.meta.next_nid = next_nid
        self.meta.next_label = counter
        return complete

    def _pack_records(self, records: list[NodeRecord]) -> None:
        """Append encoded records densely onto fresh pages, in nid order."""
        page: Page | None = None
        for record in records:
            payload = encode_record(record)
            if page is None or len(payload) > page.free_space():
                if page is not None:
                    self.pool.put_new_page(page)
                page_id = self.disk.allocate_page()
                page = Page(page_id)
                if len(payload) > page.free_space():
                    raise StorageError(
                        f"node {record.nid}: record of {len(payload)} bytes "
                        "exceeds the page capacity"
                    )
                self.meta.register_page(page_id, record.nid)
            page.insert_record(payload)
        if page is not None:
            self.pool.put_new_page(page)

    # ------------------------------------------------------------------
    # Record access
    # ------------------------------------------------------------------
    def record(self, nid: int) -> NodeRecord:
        """Fetch and decode the record for ``nid`` (one logical lookup)."""
        page_id, slot = self._locate_readable(nid)
        page = self.pool.get_page(page_id)
        self.counters.record_lookups += 1
        return decode_record(page.read_record(slot))

    def _locate_readable(self, nid: int) -> tuple[int, int]:
        """``(page_id, slot)`` of ``nid``; a quarantined page raises
        :class:`RecoveryError` instead of surfacing raw corruption."""
        page_id, slot = self.meta.locate(nid)
        if page_id in self.meta.quarantined_pages:
            raise RecoveryError(
                f"nid {nid} lives on quarantined page {page_id} "
                "(unrecoverable after corruption; see NodeStore.repair)"
            )
        return page_id, slot

    def tag(self, nid: int) -> str:
        return self.meta.symbols.name(self.record(nid).tag_sym)

    def content(self, nid: int) -> str | None:
        """A *data value lookup* (Sec. 5.3): fetch the node's text value."""
        record = self.record(nid)
        self.counters.value_lookups += 1
        return record.content

    def label(self, nid: int) -> tuple[int, int, int]:
        """The ``(start, end, level)`` containment label."""
        record = self.record(nid)
        return (record.start, record.end, record.level)

    def parent(self, nid: int) -> int | None:
        parent = self.record(nid).parent
        return None if parent == NO_PARENT else parent

    def _subtree_count(self, record: NodeRecord) -> int:
        """Subtree size of ``record``, exact even for streamed roots.

        Non-root labels are dense (two per node), so the label-width
        formula is exact.  A document root ingested in batches abandons
        one ``end`` label per batch, widening its label range past
        ``2 * n_nodes`` — for roots the catalog's node count is the
        truth instead.
        """
        if record.parent != NO_PARENT:
            return record.subtree_node_count
        for info in self.meta.documents.values():
            if info.root_nid == record.nid:
                return info.n_nodes
        return record.subtree_node_count

    def subtree_node_count(self, nid: int) -> int:
        return self._subtree_count(self.record(nid))

    def subtree_nids(self, nid: int) -> range:
        """The contiguous nid range of the subtree rooted at ``nid``."""
        return range(nid, nid + self.subtree_node_count(nid))

    def children(self, nid: int) -> list[int]:
        """Child nids in document order (one lookup per child)."""
        record = self.record(nid)
        out: list[int] = []
        child = nid + 1
        last = nid + self._subtree_count(record) - 1
        while child <= last:
            out.append(child)
            child += self.record(child).subtree_node_count
        return out

    def is_ancestor(self, ancestor_nid: int, descendant_nid: int) -> bool:
        """Containment test straight off the labels."""
        a = self.record(ancestor_nid)
        d = self.record(descendant_nid)
        return a.start < d.start and d.end < a.end

    # ------------------------------------------------------------------
    # Scanning
    # ------------------------------------------------------------------
    def scan(self, doc_id: int | None = None) -> Iterator[NodeRecord]:
        """Full scan of the store (or of one document) in document order.

        This is the fallback the paper contrasts against index-assisted
        matching (Sec. 5.2) and is used by the scan-based matcher
        ablation.
        """
        if doc_id is None:
            # Only live documents: dropped ranges are garbage.
            for info in self.documents():
                for nid in range(info.first_nid, info.last_nid + 1):
                    checkpoint()
                    yield self.record(nid)
            return
        info = self.meta.document(doc_id)
        for nid in range(info.first_nid, info.last_nid + 1):
            checkpoint()
            yield self.record(nid)

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------
    def materialize(self, nid: int, with_content: bool = True) -> XMLNode:
        """Rebuild the subtree at ``nid`` as an in-memory tree.

        With ``with_content=False`` the structural shell is produced:
        tags and nids only, contents left unpopulated — the late
        materialization mode of Sec. 5.3.  Value lookups are counted per
        populated node.

        The subtree is one contiguous nid range, read page by page (see
        :meth:`_iter_records`): one pin per page, released on *every*
        exit path, including a deadline expiring at one of the
        per-record checkpoints.
        """
        checkpoint()
        return self._build_subtree(
            self._subtree_records(self.record(nid), with_content), with_content
        )

    def materialize_many(self, nids: list[int]) -> list[XMLNode]:
        """Late value population for a whole result (Sec. 5.3: values
        are populated last and once): one fresh, content-populated
        subtree per entry of ``nids``, in input order.

        The distinct nids are visited in page order and each record is
        decoded once however often it is used — a title shared by two
        author groups is read once and built twice.  Counters keep
        their meaning: ``record_lookups`` per record decoded,
        ``value_lookups`` per decoded record whose content is
        populated, ``nodes_materialized`` per node built.
        """
        subtrees: dict[int, list[NodeRecord]] = {}
        for record in self._iter_records(sorted(set(nids))):
            subtrees[record.nid] = list(self._subtree_records(record, True))
        return [self._build_subtree(subtrees[nid], True) for nid in nids]

    def _iter_records(self, nids: Sequence[int]) -> Iterator[NodeRecord]:
        """Decode the records at ascending distinct ``nids``, page by
        page: each page is checked against quarantine and pinned once,
        and every wanted record on it is decoded under that pin (one
        logical lookup and one cancellation checkpoint each).  The pin
        is released before the page's records are yielded, so an
        iteration abandoned half-way never strands one."""
        position = 0
        while position < len(nids):
            page_id, slot = self._locate_readable(nids[position])
            base = nids[position] - slot
            run: list[NodeRecord] = []
            with self.pool.pinned(page_id) as page:
                limit = base + page.n_slots
                while position < len(nids) and nids[position] < limit:
                    checkpoint()
                    run.append(decode_record(page.read_record(nids[position] - base)))
                    self.counters.record_lookups += 1
                    position += 1
            yield from run

    def _subtree_records(
        self, root: NodeRecord, with_content: bool
    ) -> Iterator[NodeRecord]:
        """``root`` and then the rest of its contiguous nid range, in
        document order; with ``with_content`` one value lookup is
        counted per content-carrying record."""
        rest = range(root.nid + 1, root.nid + self._subtree_count(root))
        for record in itertools.chain((root,), self._iter_records(rest)):
            if with_content and record.content is not None:
                self.counters.value_lookups += 1
            yield record

    def _build_subtree(
        self, records: Iterable[NodeRecord], with_content: bool
    ) -> XMLNode:
        """A fresh tree from a subtree's records (root first, document
        order)."""
        nodes: dict[int, XMLNode] = {}
        root_node: XMLNode | None = None
        for record in records:
            node = XMLNode(
                self.meta.symbols.name(record.tag_sym),
                content=record.content if with_content else None,
                attributes=dict(record.attributes) or None,
                nid=record.nid,
            )
            self.counters.nodes_materialized += 1
            if root_node is None:
                root_node = node
            else:
                parent = nodes.get(record.parent)
                if parent is None:
                    raise StorageError(
                        f"nid {record.nid}: parent {record.parent} outside the subtree"
                    )
                parent.append_child(node)
            nodes[record.nid] = node
        assert root_node is not None
        return root_node

    def populate_content(self, node: XMLNode) -> XMLNode:
        """Fill in the contents of a shell tree in place (late population)."""
        for member in node.iter():
            if member.nid is not None and member.content is None:
                member.content = self.content(member.nid)
        return node

    # ------------------------------------------------------------------
    # Documents and lifecycle
    # ------------------------------------------------------------------
    def document(self, name: str) -> DocumentInfo:
        return self.meta.document_by_name(name)

    def drop_document(self, name: str) -> DocumentInfo:
        """Remove a document from the catalog (space is not reclaimed
        until :meth:`compact`)."""
        self._check_no_ingest("drop a document")
        info = self.meta.remove_document(name)
        self.flush()
        self.generation += 1
        return info

    def compact(self) -> "NodeStore":
        """Rebuild the store without garbage, reclaiming dropped space.

        Live documents are materialized, a fresh page file is bulk-loaded
        with fresh nids/labels, and — for directory-backed stores — the
        files are swapped in place.  Returns the compacted store (a new
        object; the old handle is closed).

        The directory swap is crash-consistent: the fresh store is
        staged in a scratch subdirectory and fsynced, the intent is
        journaled, and only then are ``data.pages`` and ``meta.json``
        replaced atomically.  A crash at any point either keeps the old
        store intact or rolls the swap forward on the next open.
        """
        self._check_no_ingest("compact")
        live = [
            (info.name, self.materialize(info.root_nid, with_content=True))
            for info in self.documents()
        ]
        if self.directory is None:
            fresh = NodeStore(
                None, pool_frames=self.pool.capacity, fault_plan=self.fault_plan
            )
            for name, root in live:
                fresh.load_tree(root, name)
            self.close()
            # The rebuilt store holds *different* nids for the same data:
            # any cached result keyed on the old generation is stale.
            fresh.generation = self.generation + 1
            return fresh
        directory = self.directory
        stage = os.path.join(directory, COMPACT_STAGE_DIR)
        if os.path.isdir(stage):
            shutil.rmtree(stage)
        staged = NodeStore(
            stage, pool_frames=self.pool.capacity, fault_plan=self.fault_plan
        )
        for name, root in live:
            staged.load_tree(root, name)
        staged.close()  # flush + fsync: the stage is complete and durable
        maybe_crash(self.fault_plan, "compact.staged")
        self.close()
        write_journal(directory, {"op": "compact", "stage_dir": COMPACT_STAGE_DIR})
        maybe_crash(self.fault_plan, "compact.journal_written")
        os.replace(os.path.join(stage, DATA_FILE), os.path.join(directory, DATA_FILE))
        maybe_crash(self.fault_plan, "compact.data_swapped")
        os.replace(os.path.join(stage, META_FILE), os.path.join(directory, META_FILE))
        maybe_crash(self.fault_plan, "compact.meta_committed")
        clear_journal(directory)
        maybe_crash(self.fault_plan, "compact.journal_cleared")
        shutil.rmtree(stage, ignore_errors=True)
        fresh = NodeStore(
            directory, pool_frames=self.pool.capacity, fault_plan=self.fault_plan
        )
        fresh.generation = self.generation + 1
        return fresh

    # ------------------------------------------------------------------
    # Verification and repair
    # ------------------------------------------------------------------
    def verify(self) -> VerifyReport:
        """Check every registered data page (checksum + structure) and
        the catalog's internal consistency.  Read-only; transient I/O
        faults are retried, corruption is reported, never raised."""
        report = VerifyReport(recovery_action=self._recovery_action)
        report.quarantined_pages = sorted(self.meta.quarantined_pages)
        for page_id in self.meta.page_ids:
            if page_id in self.meta.quarantined_pages:
                continue
            report.pages_checked += 1
            try:
                self._read_page_direct(page_id)
            except StorageError:
                report.corrupt_pages.append(page_id)
        bad_pages = set(report.corrupt_pages) | self.meta.quarantined_pages
        if bad_pages:
            report.affected_documents = [
                info.name
                for info in self.documents()
                if self._document_pages(info) & bad_pages
            ]
        report.meta_problems = self._check_meta()
        return report

    def _read_page_direct(self, page_id: int) -> Page:
        """One page straight from disk with the pool's bounded retry,
        bypassing the cache (verify must see the on-disk bytes)."""
        delay = self.pool.retry_backoff
        for attempt in range(self.pool.retry_attempts):
            try:
                return self.disk.read_page(page_id)
            except TransientIOError:
                if attempt + 1 == self.pool.retry_attempts:
                    raise
                self.pool.counters.transient_retries += 1
                if delay > 0:
                    time.sleep(delay)
                delay *= 2
        raise AssertionError("unreachable")  # pragma: no cover

    def _document_pages(self, info: DocumentInfo) -> set[int]:
        """The data pages holding any record of ``info``.

        Locating the range endpoints plus every page boundary inside
        the range covers all pages without touching every nid.
        """
        nids = {info.first_nid, info.last_nid}
        nids.update(
            first
            for first in self.meta.page_first_nids
            if info.first_nid <= first <= info.last_nid
        )
        return {self.meta.locate(nid)[0] for nid in nids}

    def _check_meta(self) -> list[str]:
        problems: list[str] = []
        if len(self.meta.page_ids) != len(self.meta.page_first_nids):
            problems.append("page directory arrays disagree in length")
        for info in self.documents():
            if info.last_nid >= self.meta.next_nid:
                problems.append(
                    f"document {info.name!r} range ends at {info.last_nid} "
                    f"but next_nid is {self.meta.next_nid}"
                )
        for page_id in self.meta.page_ids:
            if page_id >= self.disk.n_pages:
                problems.append(
                    f"page directory names page {page_id} but the file has "
                    f"{self.disk.n_pages} pages"
                )
        return problems

    def repair(self) -> RepairReport:
        """Quarantine unrecoverable pages and drop the documents that
        referenced them, leaving the rest of the store fully usable.

        Persisted indexes are invalidated (deleted) so the next open
        rebuilds them over the surviving documents.  Data on the
        quarantined pages is lost — the report says exactly what."""
        self._check_no_ingest("repair")
        verify = self.verify()
        report = RepairReport(verify=verify)
        if not verify.corrupt_pages:
            return report
        report.quarantined_pages = list(verify.corrupt_pages)
        self.meta.quarantined_pages.update(verify.corrupt_pages)
        self.recovery.pages_quarantined += len(verify.corrupt_pages)
        bad_pages = self.meta.quarantined_pages
        for info in list(self.documents()):
            if self._document_pages(info) & bad_pages:
                self.meta.remove_document(info.name)
                report.dropped_documents.append(info.name)
                self.recovery.documents_dropped += 1
        if self.directory is not None:
            self.meta.save(os.path.join(self.directory, META_FILE))
            index_path = os.path.join(self.directory, "indexes.pages")
            if os.path.exists(index_path):
                os.remove(index_path)
        self.generation += 1
        return report

    def documents(self) -> list[DocumentInfo]:
        return [self.meta.documents[doc_id] for doc_id in sorted(self.meta.documents)]

    def n_nodes(self) -> int:
        return self.meta.next_nid

    def stats(self):
        """One immutable merged snapshot of all counters (store, pool,
        disk).

        Snapshots never change after capture: compare two to get the
        work done in between.  Counters are zeroed only by an explicit
        :meth:`reset_stats` — never implicitly.
        """
        from ..observability.counters import CounterSnapshot

        merged: dict[str, int] = {}
        merged.update(self.counters.snapshot())
        merged.update(self.pool.counters.snapshot())
        merged.update(self.disk.counters.snapshot())
        merged.update(self.recovery.snapshot())
        merged.update(self.ingest_stats.snapshot())
        fault_counters = getattr(self.disk, "fault_counters", None)
        if fault_counters is not None:
            merged.update(fault_counters.snapshot())
        return CounterSnapshot(merged)

    def reset_stats(self) -> None:
        """Explicitly zero every counter (store, pool, disk).

        Recovery and fault-injection counters are deliberately *not*
        reset: they describe lifecycle events, not per-query work."""
        self.counters.reset()
        self.pool.reset_stats()
        self.disk.reset_stats()

    def flush(self) -> None:
        """Write dirty pages and persist metadata."""
        self.pool.flush_all()
        if self.directory is not None:
            self.meta.save(os.path.join(self.directory, META_FILE))

    def close(self) -> None:
        """Flush and close.  Idempotent: double-close (or ``__exit__``
        after an explicit close) is a no-op."""
        if self._closed:
            return
        self._closed = True
        self.flush()
        self.disk.close()

    def __enter__(self) -> "NodeStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class StoreIngest:
    """One streaming ingest of a single document, batch by batch.

    Created by :meth:`NodeStore.begin_ingest`.  Each
    :meth:`commit_batch` appends a batch of root children as a
    contiguous nid range on fresh pages and rewrites the document
    root's record in place to advance its ``end`` label, so readers
    between batches always see a well-formed document covering exactly
    the committed batches.

    Directory-backed stores run every batch commit under the intent
    journal (op ``ingest``), extending the bulk-load protocol with a
    physical undo image of the root's page — the only committed page a
    batch mutates.  The commit point is the atomic ``meta.json``
    replace; a crash before it rolls the batch back on reopen, after it
    rolls forward.  Either way the store lands on a batch boundary.
    """

    def __init__(self, store: NodeStore, root_shell: XMLNode, name: str):
        self.store = store
        self.name = name
        self.root_shell = root_shell
        self.batches_committed = 0
        self.nodes_committed = 0  # includes the root once batch 1 commits
        self.root_nid: int | None = None
        self.root_page_id: int | None = None
        self.root_slot: int | None = None
        self._root_record: NodeRecord | None = None
        self._done = False
        # The last committed batch, exposed for incremental index
        # maintenance (the IndexManager folds exactly these records in).
        self.last_batch_records: list[NodeRecord] = []
        self.last_root_record: NodeRecord | None = None
        self.last_old_root: NodeRecord | None = None
        self.last_first_batch = False

    @property
    def active(self) -> bool:
        return not self._done

    @property
    def document(self) -> DocumentInfo:
        """Catalog entry as of the last committed batch."""
        return self.store.meta.document_by_name(self.name)

    def commit_batch(self, children: list[XMLNode]) -> DocumentInfo:
        """Durably append one batch of root children.

        The first batch also writes the root record (its ``end`` label
        set past this batch); later batches advance that ``end`` with an
        equal-length in-place overwrite.  On return the batch is
        committed, the store generation is bumped (readers' caches
        invalidate at batch granularity), and the catalog covers every
        node streamed so far.
        """
        if self._done:
            raise DatabaseError(f"ingest of {self.name!r} is already finished")
        if self.store._active_ingest is not self:
            raise DatabaseError(f"ingest of {self.name!r} is no longer active")
        store = self.store
        meta = store.meta
        if self.batches_committed and not children:
            return self.document
        base_pages = store.disk.n_pages
        base_next_nid = meta.next_nid
        base_next_label = meta.next_label
        first_batch = self.batches_committed == 0
        old_root = self._root_record
        old_info = None if first_batch else self.document

        # Label the batch, continuing the store-global nid/label
        # counters (the document's nid range stays contiguous and its
        # label region disjoint from every other document's).
        if first_batch:
            root_nid = meta.next_nid
            root_start = meta.next_label
            meta.next_nid += 1
            meta.next_label += 1
            child_records = store._label_forest(children, root_nid, 1)
            root_end = meta.next_label
            meta.next_label += 1
            shell = self.root_shell
            root_record = NodeRecord(
                nid=root_nid,
                parent=NO_PARENT,
                tag_sym=meta.symbols.intern(shell.tag),
                start=root_start,
                end=root_end,
                level=0,
                content=shell.content,
                attributes=tuple(shell.attributes.items()),
            )
            shell.nid = root_nid
            records = [root_record] + child_records
        else:
            child_records = store._label_forest(children, self.root_nid, 1)
            root_end = meta.next_label
            meta.next_label += 1
            root_record = dataclasses.replace(old_root, end=root_end)
            records = child_records
        n_total = self.nodes_committed + len(records)

        # Physical undo image of the root's page: the in-place ``end``
        # rewrite is the one mutation of already-committed bytes, so
        # rollback (in-process or reopen-time) restores these bytes.
        pre_image: bytes | None = None
        if not first_batch:
            pre_image = store.pool.get_page(self.root_page_id).seal()

        if store.directory is not None:
            write_journal(
                store.directory,
                {
                    "op": "ingest",
                    "name": self.name,
                    "batch": self.batches_committed + 1,
                    "base_pages": base_pages,
                    "base_next_nid": base_next_nid,
                    "new_next_nid": meta.next_nid,
                    "root_page_id": self.root_page_id,
                    "root_page_hex": pre_image.hex() if pre_image is not None else None,
                },
            )
            maybe_crash(store.fault_plan, "ingest.journal_written")
            try:
                info = self._apply_batch(records, root_record, first_batch, n_total)
                store.pool.flush_all()
                store.disk.sync()
                maybe_crash(store.fault_plan, "ingest.pages_synced")
                meta.save(os.path.join(store.directory, META_FILE))  # COMMIT
                maybe_crash(store.fault_plan, "ingest.meta_committed")
            except Exception:
                # Real failure (a simulated crash, being a BaseException,
                # skips this and leaves the torn state for reopen-time
                # recovery): roll the batch back in-process.
                self._abort_batch(
                    base_pages, base_next_nid, base_next_label,
                    first_batch, old_info, old_root, pre_image,
                )
                raise
            clear_journal(store.directory)
            maybe_crash(store.fault_plan, "ingest.journal_cleared")
        else:
            try:
                info = self._apply_batch(records, root_record, first_batch, n_total)
                store.pool.flush_all()
            except Exception:
                self._abort_batch(
                    base_pages, base_next_nid, base_next_label,
                    first_batch, old_info, old_root, pre_image,
                )
                raise

        self.batches_committed += 1
        self.nodes_committed = n_total
        self._root_record = root_record
        self.last_batch_records = records
        self.last_root_record = root_record
        self.last_old_root = old_root
        self.last_first_batch = first_batch
        store.ingest_stats.batches_committed += 1
        store.ingest_stats.nodes_streamed += len(records)
        store.generation += 1
        return info

    def _apply_batch(
        self,
        records: list[NodeRecord],
        root_record: NodeRecord,
        first_batch: bool,
        n_total: int,
    ) -> DocumentInfo:
        store = self.store
        store._pack_records(records)
        if first_batch:
            info = store.meta.register_document(self.name, records[0].nid, n_total)
            self.root_nid = records[0].nid
            self.root_page_id, self.root_slot = store.meta.locate(self.root_nid)
            return info
        page = store.pool.get_page(self.root_page_id)
        page.overwrite_record(self.root_slot, encode_record(root_record))
        return store.meta.resize_document(self.name, n_total)

    def _abort_batch(
        self,
        base_pages: int,
        base_next_nid: int,
        base_next_label: int,
        first_batch: bool,
        old_info: DocumentInfo | None,
        old_root: NodeRecord | None,
        pre_image: bytes | None,
    ) -> None:
        store = self.store
        try:
            store.pool.discard_all()
            store.disk.truncate(base_pages)
        except StorageError:  # pragma: no cover - best-effort rollback
            pass
        if store.directory is not None:
            # The batch never committed, so the on-disk metadata is the
            # last committed batch's — reload it wholesale.
            meta_path = os.path.join(store.directory, META_FILE)
            if os.path.exists(meta_path):
                store.meta = MetadataManager.load(meta_path)
            else:
                store.meta = MetadataManager()
            store.meta.next_nid = min(store.meta.next_nid, base_next_nid)
            store.meta.next_label = min(store.meta.next_label, base_next_label)
        else:
            # In-memory stores have no metadata file: undo by hand.
            meta = store.meta
            keep = [
                index
                for index, page_id in enumerate(meta.page_ids)
                if page_id < base_pages
            ]
            meta.page_ids = [meta.page_ids[index] for index in keep]
            meta.page_first_nids = [meta.page_first_nids[index] for index in keep]
            meta.next_nid = base_next_nid
            meta.next_label = base_next_label
            doc_id = meta._documents_by_name.get(self.name)
            if first_batch:
                if doc_id is not None:
                    meta._documents_by_name.pop(self.name)
                    meta.documents.pop(doc_id)
            elif old_info is not None and doc_id is not None:
                meta.documents[doc_id] = old_info
        # Undo the in-place root rewrite in case the new image reached
        # disk before the failure (flush_all precedes the commit point).
        if pre_image is not None and self.root_page_id is not None:
            try:
                store.disk.write_page(Page(self.root_page_id, bytearray(pre_image)))
            except StorageError:  # pragma: no cover - best-effort rollback
                pass
        if store.directory is not None:
            clear_journal(store.directory)
        self._root_record = old_root
        if first_batch:
            self.root_nid = None
            self.root_page_id = None
            self.root_slot = None

    def finish(self) -> DocumentInfo:
        """Commit the stream's end and release the store for other
        mutations.  A stream with no committed batches commits one empty
        batch so the (childless) document exists."""
        if self._done:
            raise DatabaseError(f"ingest of {self.name!r} is already finished")
        if self.batches_committed == 0:
            self.commit_batch([])
        info = self.document
        self._done = True
        self.store._active_ingest = None
        self.store.ingest_stats.ingests_finished += 1
        return info

    def abort(self) -> None:
        """Stop the ingest, leaving every *committed* batch in place.

        The document (if any batch committed) remains valid and
        readable at the last batch boundary; nothing from the current
        uncommitted batch is visible.  Idempotent."""
        if self._done:
            return
        self._done = True
        self.store._active_ingest = None
        self.store.ingest_stats.ingests_aborted += 1
