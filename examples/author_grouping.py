"""The paper's evaluation (Sec. 6) end to end: experiments E1 and E2.

Generates a synthetic DBLP-journals database, runs the titles-by-author
(E1) and count-by-author (E2) queries under the two direct baselines and
the GROUPBY plan, and prints each comparison next to the paper's
reference numbers.

The paper's "direct" execution is the naive join plan of Sec. 4.1.  Its
words ("a nested loops evaluation plan") and its description (index
retrievals, value dedup, "the requisite join") read as two baselines:
a nested-loop join and a hash join.  Wall-clock ratios vary from run
to run; the lookup counts repeat exactly.

Run:  python examples/author_grouping.py [scale]
      scale (float, default 1.0) multiplies the 800-article workload.
"""

import sys

from repro import Database
from repro.datagen.dblp import DBLPConfig, generate_dblp_with_profile
from repro.datagen.sample import QUERY_1, QUERY_COUNT

#: Sec. 6, DBLP Journals on a 550 MHz Pentium III: (direct, GROUPBY) seconds.
PAPER_SECONDS = {"E1": (323.966, 178.607), "E2": (155.564, 23.033)}

#: (label, plan mode): the two direct baselines, then the paper's plan.
PLANS = (
    ("direct-nested-loop", "naive"),
    ("direct-hash-join", "naive-hash"),
    ("groupby", "groupby"),
)


def compare(db: Database, experiment: str, title: str, query: str) -> None:
    print(f"## {experiment} {title}")
    runs = {}
    for label, plan in PLANS:
        result = db.query(query, plan=plan)
        runs[label] = result
        stats = result.statistics
        print(
            f"{label:<20} {result.elapsed_seconds:8.4f}s "
            f"{stats['value_lookups']:>8} value lookups "
            f"{stats['record_lookups']:>8} record lookups "
            f"{len(result):>5} results"
        )
    grouped = runs["groupby"]
    for label, _plan in PLANS[:2]:
        baseline = runs[label]
        speedup = baseline.elapsed_seconds / grouped.elapsed_seconds
        lookups = baseline.statistics["record_lookups"] / grouped.statistics["record_lookups"]
        print(
            f"{label}/groupby: {speedup:.2f}x wall-clock, "
            f"{lookups:.2f}x record lookups"
        )
    direct, grouping = PAPER_SECONDS[experiment]
    print(
        f"paper ({experiment}): direct {direct}s vs groupby {grouping}s "
        f"= {direct / grouping:.2f}x"
    )


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 1.0
    config = DBLPConfig(n_articles=800, n_authors=160, seed=7).scaled(scale)
    tree, profile = generate_dblp_with_profile(config)
    db = Database()
    db.load(tree=tree, name="bib.xml")
    print(
        f"workload: {profile.n_articles} articles, "
        f"{profile.n_distinct_authors} distinct authors, "
        f"{profile.n_author_occurrences} author occurrences, "
        f"{profile.n_nodes} nodes"
    )
    print()
    compare(db, "E1", "titles-by-author", QUERY_1)
    print()
    compare(db, "E2", "count-by-author", QUERY_COUNT)


if __name__ == "__main__":
    main()
