"""Index persistence: tag and value indexes in their own page file.

TIMBER's Index Manager stores indexes through Shore (Fig. 12); here the
two indexes serialize into ``indexes.pages`` — the same slotted-page /
checksum machinery as the data file — so reopening a database directory
skips the full-store rebuild scan.

Format: a header record carrying a *store fingerprint* (next nid, next
label, document count), then posting records.  Large posting lists are
chunked across records.  Record layouts (big-endian):

=========  ==========================================================
kind 0x00  header: ``next_nid u32 | next_label u32 | n_docs u32``
kind 0x01  tag chunk: ``tag_sym u32 | n u16 | n x label``
kind 0x02  value chunk: ``tag_sym u32 | len u16 | content utf-8 |
           n u16 | n x label``
kind 0x03  columnar chunk: ``n u16 | n x row`` (rows in table order)
kind 0x04  legacy: skipped on load, never written
=========  ==========================================================

where ``label`` is ``nid u32 | start u32 | end u32 | level u16`` and
``row`` is ``nid u32 | start u32 | end u32 | level u16 | tag u32 |
doc u16`` — one row of the columnar node table
(:mod:`repro.indexing.columnar`).  Columnar chunks are written only
when the manager holds a table for the current generation; snapshots
without them simply leave the table to a lazy rebuild on first query.

Kind 0x04 held per-tag statistics for a cost model that planning no
longer uses.  Snapshots written before its removal still carry those
records; the reader skips them instead of refusing the snapshot.

On load, a missing file, a corrupt page, or a fingerprint mismatch all
fall back to a rebuild — persistence is a cache, never a source of
truth the data file could contradict.
"""

from __future__ import annotations

import os
import struct

from ..errors import ReproError
from ..storage.disk import DiskManager
from ..storage.page import Page
from .labels import NodeLabel

INDEX_FILE = "indexes.pages"

_HEADER = struct.Struct(">BIII")
_TAG_CHUNK = struct.Struct(">BIH")
_VALUE_CHUNK_PREFIX = struct.Struct(">BIH")
_LABEL = struct.Struct(">IIIH")
_COUNT = struct.Struct(">H")

_KIND_HEADER = 0x00
_KIND_TAG = 0x01
_KIND_VALUE = 0x02
_KIND_COLUMNAR = 0x03
_KIND_LEGACY_STATS = 0x04

_COLUMNAR_PREFIX = struct.Struct(">BH")
_ROW = struct.Struct(">IIIHIH")

# Labels per chunk record, sized to keep records well under a page.
CHUNK_LABELS = 400
# Columnar rows per chunk (20 bytes each; well under the 8 KiB page).
CHUNK_ROWS = 300


def fingerprint_of(meta) -> tuple[int, int, int]:
    """The store fingerprint a snapshot must match to be fresh."""
    return (meta.next_nid, meta.next_label, len(meta.documents))


def _fingerprint(manager) -> tuple[int, int, int]:
    return fingerprint_of(manager.store.meta)


def snapshot_is_fresh(meta, directory: str) -> bool:
    """Whether the persisted snapshot in ``directory`` matches ``meta``.

    An empty catalog with no snapshot counts as fresh — there is
    nothing to rebuild.
    """
    snapshot = read_fingerprint(directory)
    if snapshot is None:
        return not meta.documents
    return snapshot == fingerprint_of(meta)


def read_fingerprint(directory: str) -> tuple[int, int, int] | None:
    """The fingerprint stored in ``directory/indexes.pages``, or
    ``None`` when the file is missing or unreadable.  Reads only the
    first page — used by ``verify`` to report index freshness without
    deserializing the snapshot."""
    path = os.path.join(directory, INDEX_FILE)
    if not os.path.exists(path):
        return None
    try:
        disk = DiskManager(path)
    except ReproError:
        return None
    try:
        if disk.n_pages == 0:
            return None
        for raw in disk.read_page(0).records():
            if raw[0] == _KIND_HEADER:
                _, next_nid, next_label, n_docs = _HEADER.unpack_from(raw, 0)
                return (next_nid, next_label, n_docs)
        return None
    except ReproError:
        return None
    finally:
        disk.close()


def _pack_labels(labels: list[NodeLabel]) -> bytes:
    return b"".join(
        _LABEL.pack(label.nid, label.start, label.end, label.level) for label in labels
    )


def _unpack_labels(raw: bytes, offset: int, count: int) -> tuple[list[NodeLabel], int]:
    labels = []
    for _ in range(count):
        nid, start, end, level = _LABEL.unpack_from(raw, offset)
        offset += _LABEL.size
        labels.append(NodeLabel(nid, start, end, level))
    return labels, offset


def save_indexes(manager, directory: str) -> None:
    """Serialize the manager's indexes into ``directory/indexes.pages``."""
    path = os.path.join(directory, INDEX_FILE)
    tmp = path + ".tmp"
    if os.path.exists(tmp):
        os.remove(tmp)
    disk = DiskManager(tmp)
    try:
        writer = _PageWriter(disk)
        next_nid, next_label, n_docs = _fingerprint(manager)
        writer.add(_HEADER.pack(_KIND_HEADER, next_nid, next_label, n_docs))

        for tag_sym in manager.tag_index.tags():
            labels = manager.tag_index.labels(tag_sym)
            for start in range(0, len(labels), CHUNK_LABELS):
                chunk = labels[start : start + CHUNK_LABELS]
                writer.add(
                    _TAG_CHUNK.pack(_KIND_TAG, tag_sym, len(chunk)) + _pack_labels(chunk)
                )

        for key, postings in manager.value_index._tree.items():
            tag_sym, content = key
            payload = content.encode("utf-8")
            if len(payload) > 0xFFFF:
                payload = payload[:0xFFFF]  # clamp absurd keys defensively
            for start in range(0, len(postings), CHUNK_LABELS):
                chunk = postings[start : start + CHUNK_LABELS]
                writer.add(
                    _VALUE_CHUNK_PREFIX.pack(_KIND_VALUE, tag_sym, len(payload))
                    + payload
                    + _COUNT.pack(len(chunk))
                    + _pack_labels(chunk)
                )

        # The columnar node table, when fresh for this fingerprint.
        table = getattr(manager, "columnar_if_fresh", lambda: None)()
        if table is not None:
            pack = _ROW.pack
            for start in range(0, table.n_rows, CHUNK_ROWS):
                stop = min(start + CHUNK_ROWS, table.n_rows)
                writer.add(
                    _COLUMNAR_PREFIX.pack(_KIND_COLUMNAR, stop - start)
                    + b"".join(
                        pack(
                            table.nids[row],
                            table.starts[row],
                            table.ends[row],
                            table.levels[row],
                            table.tags[row],
                            table.docs[row],
                        )
                        for row in range(start, stop)
                    )
                )
        writer.flush()
    finally:
        disk.close()  # flushes and fsyncs the staged file
    os.replace(tmp, path)
    from ..storage.journal import fsync_directory

    fsync_directory(directory)


def load_indexes(manager, directory: str) -> bool:
    """Load indexes from ``directory``; returns False when a rebuild is
    needed (missing/corrupt file or stale fingerprint)."""
    path = os.path.join(directory, INDEX_FILE)
    if not os.path.exists(path):
        return False
    from array import array

    from .tag_index import TagIndex
    from .value_index import ValueIndex

    tag_index = TagIndex()
    value_index = ValueIndex()
    row_nids = array("l")
    row_starts = array("l")
    row_ends = array("l")
    row_levels = array("l")
    row_tags = array("l")
    row_docs = array("l")
    columnar_seen = False
    try:
        disk = DiskManager(path)
    except ReproError:
        return False
    try:
        header_seen = False
        for page_id in range(disk.n_pages):
            page = disk.read_page(page_id)
            for raw in page.records():
                kind = raw[0]
                if kind == _KIND_HEADER:
                    _, next_nid, next_label, n_docs = _HEADER.unpack_from(raw, 0)
                    if (next_nid, next_label, n_docs) != _fingerprint(manager):
                        return False  # stale snapshot: rebuild
                    header_seen = True
                elif kind == _KIND_TAG:
                    _, tag_sym, count = _TAG_CHUNK.unpack_from(raw, 0)
                    labels, _ = _unpack_labels(raw, _TAG_CHUNK.size, count)
                    for label in labels:
                        tag_index.add(tag_sym, label)
                elif kind == _KIND_VALUE:
                    _, tag_sym, length = _VALUE_CHUNK_PREFIX.unpack_from(raw, 0)
                    offset = _VALUE_CHUNK_PREFIX.size
                    content = raw[offset : offset + length].decode("utf-8")
                    offset += length
                    (count,) = _COUNT.unpack_from(raw, offset)
                    offset += _COUNT.size
                    labels, _ = _unpack_labels(raw, offset, count)
                    for label in labels:
                        value_index.add(tag_sym, content, label)
                elif kind == _KIND_COLUMNAR:
                    columnar_seen = True
                    _, count = _COLUMNAR_PREFIX.unpack_from(raw, 0)
                    offset = _COLUMNAR_PREFIX.size
                    for _ in range(count):
                        nid, start, end, level, tag_sym, doc = _ROW.unpack_from(
                            raw, offset
                        )
                        offset += _ROW.size
                        row_nids.append(nid)
                        row_starts.append(start)
                        row_ends.append(end)
                        row_levels.append(level)
                        row_tags.append(tag_sym)
                        row_docs.append(doc)
                elif kind == _KIND_LEGACY_STATS:
                    # Cost-model statistics from an older snapshot: the
                    # indexes are intact, so skip the record, not the file.
                    continue
                else:
                    return False  # unknown record kind: treat as corrupt
        if not header_seen:
            return False
    except ReproError:
        return False
    finally:
        disk.close()

    manager.tag_index = tag_index
    manager.value_index = value_index
    manager._built = True
    if columnar_seen:
        from .columnar import ColumnarTable

        manager._columnar = ColumnarTable(
            row_nids,
            row_starts,
            row_ends,
            row_levels,
            row_tags,
            row_docs,
            generation=manager.store.generation,
        )
    else:
        manager._columnar = None
    return True


class _PageWriter:
    """Append records across pages, allocating as needed."""

    def __init__(self, disk: DiskManager):
        self.disk = disk
        self._page: Page | None = None

    def add(self, payload: bytes) -> None:
        if self._page is None or len(payload) > self._page.free_space():
            self.flush()
            self._page = Page(self.disk.allocate_page())
            if len(payload) > self._page.free_space():
                raise ReproError("index record exceeds page capacity")
        self._page.insert_record(payload)

    def flush(self) -> None:
        if self._page is not None:
            self.disk.write_page(self._page)
            self._page = None
