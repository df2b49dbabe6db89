"""One AST traversal: ``walk`` visits every node once, so inspecting a
query is linear in its size, and every layer's one-document check reads
the same ``documents`` set while raising its own error type."""

from __future__ import annotations

import dataclasses
import time

import pytest

from repro.cluster import LocalCluster, LocalClusterConfig, compile_merge
from repro.datagen.sample import QUERY_1, figure6_database
from repro.errors import ClusterError, ClusterMergeError, TranslationError
from repro.query.ast import DocumentCall, documents, walk
from repro.query.database import Database
from repro.query.parser import parse_query

MULTI_DOCUMENT = """
FOR $a IN distinct-values(document("bib.xml")//author)
LET $t := document("other.xml")//article[author = $a]/title
RETURN <r>{$a} {count($t)}</r>
"""


def _nodes(value) -> list:
    """Every AST node below ``value``, by plain field recursion."""
    if isinstance(value, tuple):
        return [node for item in value for node in _nodes(item)]
    if not dataclasses.is_dataclass(value):
        return []
    found = [value]
    for field in dataclasses.fields(value):
        found.extend(_nodes(getattr(value, field.name)))
    return found


def test_walk_yields_every_node_exactly_once():
    expr = parse_query(QUERY_1)
    visited = [id(node) for node in walk(expr)]
    assert len(visited) == len(set(visited))
    assert sorted(visited) == sorted(id(node) for node in _nodes(expr))
    assert next(iter(walk(expr))) is expr
    assert documents(expr) == {"bib.xml"}
    assert sum(isinstance(node, DocumentCall) for node in walk(expr)) == 2


def test_deeply_wrapped_return_prepares_in_linear_time():
    # Each wrapper level used to double the work of finding the
    # query's document: 16 levels took seconds.
    depth = 16
    body = """{FOR $b IN document("bib.xml")//article
               WHERE $a = $b/author RETURN $b/title}"""
    for level in reversed(range(depth)):
        body = f"<w{level}>{body}</w{level}>"
    query = f"""FOR $a IN distinct-values(document("bib.xml")//author)
                RETURN <authorpubs>{{$a}} {body}</authorpubs>"""
    db = Database()
    db.load(tree=figure6_database(), name="bib.xml")
    started = time.perf_counter()
    prepared = db.prepare(query)
    assert time.perf_counter() - started < 0.05
    assert prepared.resolved == "groupby"


def test_multi_document_query_refused_with_each_layers_error():
    expr = parse_query(MULTI_DOCUMENT)
    assert documents(expr) == {"bib.xml", "other.xml"}
    db = Database()
    db.load(tree=figure6_database(), name="bib.xml")
    with pytest.raises(TranslationError, match="exactly one document"):
        db.prepare(MULTI_DOCUMENT, plan="groupby")
    assert db.prepare(MULTI_DOCUMENT).resolved == "direct"
    with pytest.raises(ClusterMergeError, match="exactly one document"):
        compile_merge(expr)
    with LocalCluster(LocalClusterConfig(shards=2)) as cluster:
        cluster.load(tree=figure6_database(), name="bib.xml")
        with pytest.raises(ClusterError, match="exactly one document") as excinfo:
            cluster.query(MULTI_DOCUMENT)
        assert type(excinfo.value) is ClusterError
