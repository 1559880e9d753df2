"""Build ``catalog.json``: the cost of every candidate search input.

The search workloads draw their base graphs ``random(n,m,s)`` from a fixed
universe of seeds ``s``.  A workload seed picks one graph per cost stratum
of that universe (see ``workloads.stratified``), so that two workload seeds
give different graphs but passes of nearly the same cost.  This script
times each candidate ``REPEATS`` times on an otherwise idle machine and
records the fastest time; only the order of the times is used.

    python3 perfbench/catalog.py            # rewrites perfbench/catalog.json
"""

from __future__ import annotations

import json
import platform
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import calibrate  # noqa: E402
from divgraph import families, find_gdr, genus, rank, refine, rho  # noqa: E402

FAMILIES = ((5, 8), (6, 9))
SEEDS_PER_FAMILY = 200
REPEATS = 3
# (column, refinement index k, rank r) of each timed search.
SEARCHES = (("deep_ms", 2, 1), ("rank2_ms", 1, 2), ("rank3_ms", 1, 3))
# Last column: classes_examined of the deep search.
COLUMNS = ["seed"] + [name for name, _, _ in SEARCHES] + ["deep_classes"]


def smallest_degree(g: int, r: int) -> int:
    d = r
    while rho(g, d, r) < 0:
        d += 1
    return d


def search_ms(base, k: int, r: int) -> tuple[float, int]:
    """Median scaled time of one ``search`` op body (find_gdr plus the
    CLI's rank re-check) and the classes the search examined."""
    graph, _ = refine(base, k)
    d = smallest_degree(genus(graph), r)
    times = []
    for _ in range(REPEATS):
        before = calibrate.measure()
        start = time.perf_counter()
        result = find_gdr(graph, d, r)
        if not result.found:
            raise SystemExit(f"no witness for {base} at k={k}, r={r}")
        rank(result.witness.graph, result.witness)
        seconds = time.perf_counter() - start
        times.append(seconds * calibrate.scale(before, calibrate.measure()))
    return round(1000 * statistics.median(times), 1), result.classes_examined


def main() -> None:
    rows = {}
    for n, m in FAMILIES:
        spec = f"random({n},{m})"
        rows[spec] = []
        for s in range(SEEDS_PER_FAMILY):
            base = families.random_multigraph(n, m, s)
            timed = [search_ms(base, k, r) for _, k, r in SEARCHES]
            rows[spec].append([s] + [ms for ms, _ in timed] + [timed[0][1]])
        print(spec, "done", file=sys.stderr)
    doc = {
        "columns": COLUMNS,
        "machine": f"{platform.machine()}, Python {platform.python_version()}",
        "families": rows,
    }
    text = json.dumps(doc, separators=(",", ":"))
    # one row per line keeps diffs readable
    text = text.replace("],[", "],\n[")
    (HERE / "catalog.json").write_text(text + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
