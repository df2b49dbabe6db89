"""Value index: (tag symbol, content) -> node labels, over a B+tree.

Sec. 5.3's footnote discusses the two XML-specific complications of
value indexes, and this implementation models both:

* **type heterogeneity** — one index covers many element types, so the
  key is the pair ``(tag_sym, content)``; a lookup scoped to a tag uses
  a range scan over that tag's key region;
* the index returns **the identifier of the node with the value**, not
  the related node one usually wants to group — navigation from value
  node to, e.g., the enclosing article stays the caller's job, exactly
  as the paper notes.

``distinct_values(tag)`` supports the ``distinct-values(...)`` XQuery
builtin: an ordered scan of one tag's region yields each distinct
content once, with its posting list.
"""

from __future__ import annotations

from typing import Iterator

from .btree import BPlusTree
from .labels import NodeLabel


class ValueIndex:
    """B+tree-backed content index keyed by ``(tag_sym, content)``."""

    def __init__(self, order: int = 64):
        self._tree = BPlusTree(order=order)
        self.lookups = 0
        self.postings_served = 0

    def add(self, tag_sym: int, content: str, label: NodeLabel) -> None:
        self._tree.insert((tag_sym, content), label)

    def replace_label(
        self, tag_sym: int, content: str, old: NodeLabel, new: NodeLabel
    ) -> None:
        """Swap one posting in place (streaming ingest: the document
        root's ``end`` label advances at every batch commit)."""
        self._tree.remove((tag_sym, content), old)
        self._tree.insert((tag_sym, content), new)

    def labels(self, tag_sym: int, content: str) -> list[NodeLabel]:
        """All nodes with this tag whose content equals ``content``,
        in document order."""
        self.lookups += 1
        postings = self._tree.search((tag_sym, content))
        postings.sort(key=lambda label: label.start)
        self.postings_served += len(postings)
        return postings

    def distinct_values(self, tag_sym: int) -> Iterator[tuple[str, list[NodeLabel]]]:
        """Each distinct content of the tag, ascending, with postings."""
        self.lookups += 1
        # The key region of tag_sym is [(tag_sym, ""), (tag_sym+1, "")).
        for (sym, content), postings in self._tree.range_scan(lo=(tag_sym, "")):
            if sym != tag_sym:
                return
            postings.sort(key=lambda label: label.start)
            self.postings_served += len(postings)
            yield content, postings

    def n_keys(self) -> int:
        return len(self._tree)

    def n_entries(self) -> int:
        return self._tree.n_entries

    def check_invariants(self) -> None:
        self._tree.check_invariants()
