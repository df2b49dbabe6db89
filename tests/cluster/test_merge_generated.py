"""The merge plan is the RETURN template refilled over shard rows, so
every RETURN one node translates merges — wrappers, literal text and
attributes included — and merges to the single-node answer.

Driven by the differential harness's generator and knobs:
``REPRO_DIFF_SEED`` (default 11) and ``REPRO_DIFF_QUERIES`` (default 25;
CI's cluster-chaos matrix runs 200 per seed).
"""

from __future__ import annotations

import os

from repro.cluster.merge import compile_merge
from repro.errors import ClusterMergeError
from repro.query.database import Database
from repro.query.parser import parse_query
from repro.xmlmodel.diff import diff_collections
from repro.xmlmodel.parse import parse_document

from ..query.querygen import QueryGenerator
from .test_merge import _run_sliced

SEED = int(os.environ.get("REPRO_DIFF_SEED", "11"))
N_QUERIES = int(os.environ.get("REPRO_DIFF_QUERIES", "25"))


def test_generated_queries_merge_like_one_node():
    generator = QueryGenerator(SEED)
    document = generator.document()
    single = Database()
    single.load(text=document, name="bib.xml")
    failures: list[str] = []
    merged = 0
    for query in generator.queries(N_QUERIES):
        if query.family == "nested":
            # The middle FLWR's distinct-values is a dedup across slices.
            try:
                compile_merge(parse_query(query.text))
            except ClusterMergeError:
                continue
            failures.append(f"3-level query merged:\n{query.text}")
            continue
        want = single.query(query.text).collection
        try:
            for count in (2, 4):
                got = _run_sliced(query.text, count, parse_document(document))
                report = diff_collections(got, want)
                if report is not None:
                    failures.append(f"{count} slices: {report}\n{query.text}")
        except ClusterMergeError as error:
            # Only a RETURN no single GROUPBY computes may be refused.
            if query.translatable:
                failures.append(f"refused ({error}):\n{query.text}")
            continue
        merged += 1
    assert not failures, (
        f"{len(failures)} merge failure(s) (seed {SEED}):\n\n"
        + "\n\n".join(failures[:10])
    )
    assert merged > 0
