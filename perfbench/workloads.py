"""Seeded inputs of the four workloads.

``build`` writes every graph, divisor, morphism and config file of one
workload into a directory and returns the operations of one pass: the
``divgraph`` argument lists the closed loop sends, in order.  The program
sees only these files.

The search workloads take their base graphs ``random(n,m,s)`` from the
universe in ``catalog.json`` by stratified sampling: the universe is sorted
by the measured cost of the op, its cheapest ``TRIM_LOW`` and dearest
``TRIM_HIGH`` are cut off, the rest is cut into equal strata, and the
workload seed picks one of the ``NEIGHBOURS`` graphs at the centre of each
stratum.  Two seeds thus give different graphs whose passes cost nearly the
same, which keeps the metrics of different seeds comparable.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("search-deep", "search-rank", "batch", "calculus")
FAMILIES = ((5, 8), (6, 9))
NEIGHBOURS = 3
# The dearest graphs are cut off more widely: the cost distribution has a
# long tail, and the 90th-percentile op should not sit on a wide gap.
TRIM_LOW, TRIM_HIGH = 0.05, 0.15
# search-deep keeps the graphs whose search enumerates: for the others the
# first class or two of G^(2) already hold a witness.
MIN_DEEP_CLASSES = 100
BATCH_JOBS = 2
# Family specs of the batch config: hundreds of units under 1 ms each.
BATCH_SPECS = (
    "banana(1)", "banana(2)", "banana(3)", "banana(4)",
    "cycle(3)", "cycle(4)", "cycle(5)", "cycle(6)",
    "theta(1,2,3)", "theta(2,2,2)", "chain(2)", "chain(3)", "chain(4)",
)
BATCH_GRID = {"d_max": 6, "r_max": 3}
# Calculus sizes are spread so that the latency percentiles do not sit on a
# jump between two op kinds: the median op lies between trees at k = 16 and
# the covers C_720 -> C_360 (all about 80 ms on the reference machine),
# above every reduce op whatever the seeded divisor.
# Refinement indices of the ``trees`` ops on random(5,8,s): 61 to 189 vertices.
TREE_KS = (7, 9, 11, 15, 16, 17, 18, 19, 21, 23)
# Few reduce ops: their cost varies with the seeded divisor (10 to 60 ms),
# and the median op should be one whose cost the seed does not move.
REDUCE_OPS = 6
# Cycle lengths n of the double covers C_2n -> C_n (300 to 2000 source
# edges).  Each n is taken by one rh-check and one pullback, which cost about
# the same (loading the morphism dominates), so that the 90th-percentile op
# lies inside the pair at n = 906 rather than on a gap between two sizes.
COVER_NS = (150, 360, 528, 906, 1000)


@dataclass
class Op:
    """One operation: a ``divgraph`` command and what its checks need."""

    kind: str
    argv: list[str]
    units: int = 1  # work units: 1 search, or input edges (calculus); batch counts its output
    check: dict = field(default_factory=dict)


def load_catalog() -> dict:
    return json.loads((HERE / "catalog.json").read_text(encoding="utf-8"))


def stratified(rows: list, column: int, strata: int, rng: random.Random) -> list[int]:
    """One catalog seed per cost stratum, in stratum order."""
    ranked = sorted(rows, key=lambda row: (row[column], row[0]))
    ranked = ranked[int(TRIM_LOW * len(ranked)):len(ranked) - int(TRIM_HIGH * len(ranked))]
    count = len(ranked)
    picks = []
    for j in range(strata):
        centre = int((j + 0.5) * count / strata)
        low = max(0, min(count - NEIGHBOURS, centre - NEIGHBOURS // 2))
        picks.append(ranked[low + rng.randrange(NEIGHBOURS)][0])
    return picks


def smallest_degree(g: int, r: int) -> int:
    from divgraph.brill_noether import rho

    d = r
    while rho(g, d, r) < 0:
        d += 1
    return d


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc), encoding="utf-8")


def _refined_file(workdir: Path, n: int, m: int, s: int, k: int):
    """Write random(n,m,s)^(k) as a graph file; returns (file name, graph)."""
    from divgraph import families, graphs, io

    graph, _ = graphs.refine(families.random_multigraph(n, m, s), k)
    name = f"random({n},{m},{s})^({k})"
    path = f"r{n}-{m}-{s}-k{k}.graph"
    if not (workdir / path).exists():
        _write_json(workdir / path, io.graph_to_doc(graph, name))
    return path, graph


def _search_op(workdir: Path, n: int, m: int, s: int, k: int, r: int) -> Op:
    from divgraph.graphs import genus

    path, graph = _refined_file(workdir, n, m, s, k)
    d = smallest_degree(genus(graph), r)
    argv = ["search", "--graph", path, "--d", str(d), "--r", str(r)]
    return Op("search", argv, check={"graph": path, "d": d, "r": r})


def _catalog_column(catalog: dict, name: str) -> int:
    return catalog["columns"].index(name)


def _search_deep(workdir, rng, tiny):
    catalog = load_catalog()
    column = _catalog_column(catalog, "deep_ms")
    classes = _catalog_column(catalog, "deep_classes")
    ops = []
    for n, m in FAMILIES:
        rows = catalog["families"][f"random({n},{m})"]
        rows = [row for row in rows if row[classes] >= MIN_DEEP_CLASSES]
        for s in stratified(rows, column, 1 if tiny else 16, rng):
            ops.append(_search_op(workdir, n, m, s, 2, 1))
    return ops


def _search_rank(workdir, rng, tiny):
    # Twice as many r = 3 ops as r = 2 ops, so that the median op lies
    # inside the r = 3 group rather than on the gap between the two groups;
    # many strata, so that the 90th percentile rests on several ops.
    catalog = load_catalog()
    ops = []
    for n, m in FAMILIES:
        rows = catalog["families"][f"random({n},{m})"]
        for r, strata in ((3, 12), (2, 6)):
            column = _catalog_column(catalog, f"rank{r}_ms")
            for s in stratified(rows, column, 1 if tiny else strata, rng):
                ops.append(_search_op(workdir, n, m, s, 1, r))
    return ops


def _batch(workdir, rng, tiny):
    # The r = 3 units of the refined graphs are the tail of seconds, so
    # those graphs are stratified by the cost of that same search.  They
    # come first in the config: the pool starts them first and the light
    # units fill the end, so the fresh run's time does not hang on which
    # worker draws the last slow unit.  Their records still hold up the
    # writes of every later unit.
    catalog = load_catalog()
    column = _catalog_column(catalog, "rank3_ms")
    refs = []
    for n, m in FAMILIES:
        rows = catalog["families"][f"random({n},{m})"]
        for s in stratified(rows, column, 1 if tiny else 4, rng):
            refs.append(_refined_file(workdir, n, m, s, 1)[0])
    refs += BATCH_SPECS[:2] if tiny else BATCH_SPECS
    config = {"graphs": refs, "params": BATCH_GRID}
    _write_json(workdir / "batch.json", config)
    argv = ["batch", "--config", "batch.json", "--out", "runs.jsonl", "--jobs", str(BATCH_JOBS)]
    return [Op("batch", argv, check={"out": "runs.jsonl"})]


def _cover_doc(n: int, rng: random.Random) -> dict:
    """A seeded harmonic double cover C_2n -> C_n of global degree 2.

    Source vertex j maps to target vertex (j + shift) mod n.  Vertex lists,
    edge lists, edge orientations and the edge map are shuffled, so every
    seed gives different files (and different edge lookup orders).
    """
    shift = rng.randrange(n)
    src = [f"s{j}" for j in range(2 * n)]
    tgt = [f"t{i}" for i in range(n)]

    def oriented(u, v):
        return [u, v] if rng.random() < 0.5 else [v, u]

    src_edges = [oriented(src[j], src[(j + 1) % (2 * n)]) for j in range(2 * n)]
    tgt_edges = [oriented(tgt[i], tgt[(i + 1) % n]) for i in range(n)]
    edge_map = [
        [[src[j], src[(j + 1) % (2 * n)]], [tgt[(j + shift) % n], tgt[(j + 1 + shift) % n]]]
        for j in range(2 * n)
    ]
    vertex_map = {src[j]: tgt[(j + shift) % n] for j in range(2 * n)}
    for items in (src, tgt, src_edges, tgt_edges, edge_map):
        rng.shuffle(items)
    return {
        "name": f"C{2 * n}-onto-C{n}",
        "source": {"name": f"C{2 * n}", "vertices": src, "edges": src_edges},
        "target": {"name": f"C{n}", "vertices": tgt, "edges": tgt_edges},
        "vertex_map": vertex_map,
        "edge_map": edge_map,
    }


def _calculus(workdir, rng, tiny):
    ops = []
    for k in TREE_KS[:1] if tiny else TREE_KS:
        path, graph = _refined_file(workdir, 5, 8, rng.randrange(10**6), k)
        ops.append(Op("trees", ["trees", "--graph", path], graph.num_edges, {"graph": path}))

    for i in range(1 if tiny else REDUCE_OPS):
        (n, m), k = ((5, 8), 4) if i % 2 == 0 else ((6, 9), 3)  # 37 and 33 vertices
        path, graph = _refined_file(workdir, n, m, rng.randrange(10**6), k)
        div_path = f"reduce-{i}.div"
        _write_json(workdir / div_path, {v: rng.randint(-20, 20) for v in graph.vertices})
        argv = ["reduce", "--graph", path, "--divisor", div_path]
        ops.append(Op("reduce", argv, graph.num_edges))

    for n, kind in itertools.product(COVER_NS[:1] if tiny else COVER_NS, ("rh-check", "pullback")):
        doc = _cover_doc(n, rng)
        path = f"{kind}-{n}.morphism"
        _write_json(workdir / path, doc)
        argv = [kind, "--morphism", path]
        if kind == "pullback":
            div_path = f"pullback-{n}.div"
            _write_json(workdir / div_path, {v: rng.randint(-5, 5) for v in doc["target"]["vertices"]})
            argv += ["--divisor", div_path]
        ops.append(Op(kind, argv, 2 * n))
    rng.shuffle(ops)
    return ops


_BUILDERS = {
    "search-deep": _search_deep,
    "search-rank": _search_rank,
    "batch": _batch,
    "calculus": _calculus,
}


def build(workload: str, seed: int, tiny: bool, workdir: Path) -> list[Op]:
    """Write the inputs of one workload into ``workdir`` (which must exist)
    and return the ops of one pass.  The same seed gives the same files."""
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](workdir, rng, tiny)
