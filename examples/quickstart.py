"""Quickstart: load a bibliography, run the paper's Query 1, compare engines.

Run:  python examples/quickstart.py
"""

from repro import Database
from repro.datagen.sample import QUERY_1, QUERY_COUNT, figure6_database

from repro.xmlmodel import serialize


def main() -> None:
    db = Database()  # in-memory; pass directory="..." to persist
    db.load(tree=figure6_database(), name="bib.xml")

    print("=== the database (Fig. 6 of the paper) ===")
    info = db.store.document("bib.xml")
    print(serialize(db.store.materialize(info.root_nid)))

    print("=== the naive join plan and its GROUPBY rewrite ===")
    print(db.explain(QUERY_1).render())

    print("\n=== Query 1: titles grouped by author ===")
    result = db.query(QUERY_1)  # auto mode: rewritten to the GROUPBY plan
    print(f"(executed with the {result.plan_mode!r} plan)")
    print(result.collection.sketch())

    print("\n=== the same query, evaluated directly as written ===")
    direct = db.query(QUERY_1, plan="direct")
    assert direct.collection.structurally_equal(result.collection)
    print("direct execution produced identical results "
          f"({direct.elapsed_seconds:.4f}s vs {result.elapsed_seconds:.4f}s)")

    print("\n=== the COUNT variant ===")
    counted = db.query(QUERY_COUNT)
    print(counted.collection.sketch())

    print("\n=== EXPLAIN ANALYZE: where each plan spends its lookups ===")
    grouped = db.query(QUERY_COUNT, plan="groupby", analyze=True)
    naive = db.query(QUERY_COUNT, plan="naive", analyze=True)
    print(grouped.profile.render())
    print(
        f"\nGROUPBY populated {grouped.profile.total('value_lookups')} values "
        f"and touched {grouped.profile.total('pages_touched')} pages; "
        f"the naive plan needed {naive.profile.total('value_lookups')} values "
        f"and {naive.profile.total('pages_touched')} pages."
    )


if __name__ == "__main__":
    main()
