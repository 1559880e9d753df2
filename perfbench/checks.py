"""Correctness checks that take a path other than the one that produced the
result.  Each returns a list of problems; empty means the output holds.

Run outside the timed window, with no tracer installed.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path


def witness(ref: str, base_dir: Path, k: int, witness_map: dict, d: int, r: int) -> list[str]:
    """Rank >= r of the witness by the definition, reduced at the last
    vertex: for every effective E of degree r, the reduction of W - E at a
    base q other than the first vertex (where the search and the CLI
    reduce) is non-negative at q."""
    from divgraph.divisors import Divisor, reduce
    from divgraph.graphs import refine
    from divgraph.io import resolve_graph

    _, base = resolve_graph(ref, base_dir)
    graph, _ = refine(base, k)
    w = Divisor.from_map(graph, witness_map)
    if w.degree != d:
        return [f"witness degree {w.degree} != d = {d}"]
    n = len(graph.vertices)
    q = graph.vertices[-1]
    qi = n - 1
    for combo in itertools.combinations_with_replacement(range(n), r):
        coeffs = list(w.coeffs)
        for i in combo:
            coeffs[i] -= 1
        if reduce(graph, Divisor(graph, tuple(coeffs)), q).divisor.coeffs[qi] < 0:
            removed = [graph.vertices[i] for i in combo]
            return [f"|W - E| is empty for E = {removed}: rank < {r}"]
    return []


def search(report: dict, check: dict, workdir: Path) -> list[str]:
    if not report.get("found"):
        return [f"no witness found (limit_hit={report.get('limit_hit')})"]
    return witness(
        check["graph"], workdir, report["k"], report["witness"], check["d"], check["r"]
    )


def trees(report: dict, check: dict, workdir: Path) -> list[str]:
    """The matrix-tree count does not depend on the deleted row."""
    from divgraph.graphs import kirchhoff_minor_determinant
    from divgraph.io import resolve_graph

    _, graph = resolve_graph(str(workdir / check["graph"]))
    other = kirchhoff_minor_determinant(graph, len(graph.vertices) - 1)
    if report["spanning_trees"] != other:
        return [f"spanning_trees {report['spanning_trees']} != minor at last row {other}"]
    return []


def rh_check(report: dict, check: dict, workdir: Path) -> list[str]:
    return [] if report.get("balanced") is True else ["Riemann-Hurwitz does not balance"]


def pullback(report: dict, check: dict, workdir: Path) -> list[str]:
    want = report["map_degree"] * report["degree_in"]
    if report["degree_out"] != want:
        return [f"pullback degree {report['degree_out']} != map degree x input degree = {want}"]
    return []


def batch(records_text: str, workdir: Path) -> list[str]:
    """Every unit found a verified witness, and every witness holds."""
    problems = []
    for line in records_text.splitlines():
        record = json.loads(line)
        key = record["key"]
        if "error" in record or not record.get("found") or record.get("verified") is not True:
            problems.append(f"{key}: not a verified witness")
            continue
        problems += [
            f"{key}: {p}"
            for p in witness(
                record["graph"], workdir, record["k"], record["witness"], record["d"], record["r"]
            )
        ]
    return problems


BY_KIND = {
    "search": search,
    "trees": trees,
    "reduce": None,
    "rh-check": rh_check,
    "pullback": pullback,
}
