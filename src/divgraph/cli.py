"""Command-line surface.

Every subcommand reads graph/divisor/morphism files (or family specs such
as ``banana(3)``) and writes one JSON report to standard output.  Exit
codes: 0 success or witness found, 1 usage error, 2 invalid input, 3
search finished without a witness.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Optional

from . import __version__, batch as batch_mod
from .brill_noether import (
    SearchLimits,
    bn_bound,
    bound_chain_check,
    bound_report,
    check_legacy_args,
    find_gdr,
    gonality_search,
    legacy_bound,
    legacy_bound_min_digits,
    rho,
)
from .divisors import rank, reduce, riemann_roch_residual, transport
from .errors import (
    DivGraphError,
    IntegerTooLargeError,
    InvalidInputError,
    PreconditionViolatedError,
    check_type,
)
from .graphs import MAX_GRAPH_SIZE, genus, laplacian, refine, spanning_tree_count
from .harmonic import check_harmonic, contract, pullback, pushforward_contraction, riemann_hurwitz_check
from .io import (
    divisor_to_doc,
    dump_json,
    graph_to_doc,
    load_divisor,
    load_json,
    load_morphism,
    parse_json,
    resolve_graph,
    search_result_to_doc,
)

class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Every subcommand's parser, with its handler as the default ``run``."""
    parser = _Parser(prog="divgraph", description=__doc__)
    parser.add_argument("--version", action="version", version=f"divgraph {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_, run, graph=False, divisor=False, q=False, gdr=False):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(run=run)
        if graph:
            p.add_argument("--graph", required=True, help="graph file or family spec")
        if divisor:
            p.add_argument("--divisor", required=True, help="divisor file (vertex -> coefficient)")
        if q:
            p.add_argument("--q", default=None, help="base vertex (default: first vertex)")
        if gdr:
            for flag in ("--g", "--d", "--r"):
                p.add_argument(flag, type=int, required=True)
        return p

    add("genus", "genus of a graph", _cmd_graph_report, graph=True)
    add("laplacian", "Laplacian matrix", _cmd_graph_report, graph=True)
    add("trees", "spanning tree count", _cmd_graph_report, graph=True)

    p = add("refine", "homothetic refinement G^(k)", _cmd_refine, graph=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--divisor", default=None, help="optional divisor to transport")

    add("reduce", "q-reduced form of a divisor", _cmd_reduce, graph=True, divisor=True, q=True)
    add("rank", "Baker-Norine rank of a divisor", _cmd_rank, graph=True, divisor=True)
    add("rr-verify", "Riemann-Roch residual of a divisor", _cmd_rr_verify,
        graph=True, divisor=True)

    add("rho", "Brill-Noether number", _cmd_rho, gdr=True)
    add("bound", "refinement bound for (g,d,r)", _cmd_bound, gdr=True)

    p = add("bound-legacy", "older (m+n^r d)! d^(m+n^r d) bound", _cmd_bound_legacy)
    for flag in ("--n", "--m", "--d", "--r"):
        p.add_argument(flag, type=int, required=True)

    add("bound-compare", "factorial bound vs legacy bound", _cmd_bound_compare, gdr=True)

    p = add("search", "search refinements for a degree-d rank->=r divisor", _cmd_search,
            graph=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k-max", type=int, default=None, dest="k_max")
    p.add_argument("--max-classes", type=int, default=None, dest="max_classes")

    p = add("gonality", "smallest degree with a rank-r divisor", _cmd_gonality, graph=True)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--d-max", type=int, required=True, dest="d_max")

    for name, run in (("harmonic-check", _cmd_harmonic), ("rh-check", _cmd_rh)):
        p = add(name, f"{name} on a morphism file", run)
        p.add_argument("--morphism", required=True)

    p = add("pullback", "pull a target divisor back along a morphism", _cmd_pullback)
    p.add_argument("--morphism", required=True)
    p.add_argument("--divisor", required=True)

    p = add("pushforward", "contract edge bonds and push a divisor forward", _cmd_pushforward,
            graph=True, divisor=True)
    p.add_argument("--contract", required=True,
                   help="JSON array of [u, v] pairs, inline or a file path")

    p = add("batch", "run a config of searches, resumably", _cmd_batch)
    p.add_argument("--config", required=True, help="batch config JSON file")
    p.add_argument("--out", required=True, help="JSON-lines results file")
    p.add_argument("--jobs", type=int, default=1)

    return parser


def _cmd_graph_report(args) -> tuple[dict, int]:
    name, graph = resolve_graph(args.graph)
    base = {"graph": name, "vertices": len(graph.vertices), "edges": graph.num_edges}
    if args.command == "genus":
        return {**base, "genus": genus(graph)}, 0
    if args.command == "laplacian":
        return {
            "graph": name,
            "vertex_order": list(graph.vertices),
            "laplacian": laplacian(graph),
        }, 0
    return {**base, "spanning_trees": spanning_tree_count(graph)}, 0


def _cmd_refine(args) -> tuple[dict, int]:
    name, graph = resolve_graph(args.graph)
    target, iota = refine(graph, args.k)
    report = {
        "graph": name,
        "k": args.k,
        "refined": graph_to_doc(target, f"{name}^({args.k})"),
        "genus": genus(target),
        "vertex_embedding": {v: v for v in graph.vertices},
    }
    if args.divisor:
        moved = transport(iota, load_divisor(args.divisor, graph))
        report["divisor"] = divisor_to_doc(moved)
        report["divisor_degree"] = moved.degree
    return report, 0


def _cmd_reduce(args) -> tuple[dict, int]:
    name, graph = resolve_graph(args.graph)
    div = load_divisor(args.divisor, graph)
    q = graph.vertices[0] if args.q is None else args.q
    red = reduce(graph, div, q)
    return {
        "graph": name,
        "q": q,
        "divisor": divisor_to_doc(div),
        "reduced": divisor_to_doc(red.divisor),
        "degree": div.degree,
        "effective_class": red.divisor.at(q) >= 0,
    }, 0


def _cmd_rank(args) -> tuple[dict, int]:
    name, graph = resolve_graph(args.graph)
    div = load_divisor(args.divisor, graph)
    return {
        "graph": name,
        "divisor": divisor_to_doc(div),
        "degree": div.degree,
        "rank": rank(graph, div),
    }, 0


def _cmd_rr_verify(args) -> tuple[dict, int]:
    name, graph = resolve_graph(args.graph)
    div = load_divisor(args.divisor, graph)
    g = genus(graph)
    d_rank = rank(graph, div)
    # r(K - D) by Riemann-Roch, so no rank scans a divisor twice; the
    # residual takes both ranks from the definitional scan
    residual = riemann_roch_residual(graph, div)
    return {
        "graph": name,
        "divisor": divisor_to_doc(div),
        "degree": div.degree,
        "genus": g,
        "rank": d_rank,
        "rank_canonical_minus": d_rank - div.degree + g - 1,
        "residual": residual,
        "ok": residual == 0,
    }, 0


def _cmd_rho(args) -> tuple[dict, int]:
    value = rho(args.g, args.d, args.r)
    return {"g": args.g, "d": args.d, "r": args.r, "rho": value}, 0


def _bound_report(g: int, d: int, r: int):
    """:func:`bound_report`, refused with :class:`InvalidInputError` before
    g! is taken when g exceeds :data:`MAX_GRAPH_SIZE`: a graph's genus is
    at most its edge count, so no graph divgraph builds has such a genus."""
    if g > MAX_GRAPH_SIZE:
        raise InvalidInputError(
            f"genus {g} is above {MAX_GRAPH_SIZE}, the most edges a graph may have"
        )
    return bound_report(g, d, r)


def _cmd_bound(args) -> tuple[dict, int]:
    report = _bound_report(args.g, args.d, args.r)
    return {
        "g": args.g,
        "d": args.d,
        "r": args.r,
        "rho": report.rho,
        "theorem_bound": report.theorem_bound,
        "k_range": list(report.k_range),
    }, 0


def _printable_legacy_bound(n: int, m: int, d: int, r: int) -> int:
    """:func:`legacy_bound`, refused with :class:`IntegerTooLargeError`
    before the factorial is taken when its digit count surely exceeds the
    interpreter's int-to-str limit (``sys.get_int_max_str_digits``, 0 when
    lifted), so that the report could not be printed anyway."""
    check_legacy_args(n, m, d, r)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    # the bound is at least n^r >= 2^(r(bitlen(n) - 1)); refusing on that
    # first spares building n^r, which takes seconds for a huge r
    if limit and (
        r * (n.bit_length() - 1) * 30102 // 100000 >= limit
        or legacy_bound_min_digits(n, m, d, r) > limit
    ):
        raise IntegerTooLargeError(
            f"legacy_bound({n}, {m}, {d}, {r}) has more than {limit} digits, "
            "the limit for integer string conversion"
        )
    return legacy_bound(n, m, d, r)


def _cmd_bound_legacy(args) -> tuple[dict, int]:
    value = _printable_legacy_bound(args.n, args.m, args.d, args.r)
    return {"n": args.n, "m": args.m, "d": args.d, "r": args.r, "legacy_bound": value}, 0


def _cmd_bound_compare(args) -> tuple[dict, int]:
    report = _bound_report(args.g, args.d, args.r)
    # the genus-minimal graph shape (2 vertices, g+1 edges); none for d = 0
    legacy = _printable_legacy_bound(2, args.g + 1, args.d, args.r) if args.d >= 1 else None
    out = {
        "g": args.g,
        "d": args.d,
        "r": args.r,
        "rho": report.rho,
        "theorem_bound": report.theorem_bound,
        "legacy_bound": legacy,
        "k_range": list(report.k_range),
    }
    try:
        out["chain_ok"] = bound_chain_check(args.g, args.d, args.r, legacy=legacy)
    except PreconditionViolatedError:
        out["chain_ok"] = None
        out["chain_note"] = "chain comparison needs g-d+r>=0, r>=1 and d>r"
    return out, 0


def _cmd_search(args) -> tuple[dict, int]:
    name, graph = resolve_graph(args.graph)
    g = genus(graph)
    p = rho(g, args.d, args.r)
    limits = SearchLimits(max_k=args.k_max, max_classes=args.max_classes)
    result = find_gdr(graph, args.d, args.r, limits)
    report = {
        "graph": name,
        "genus": g,
        "d": args.d,
        "r": args.r,
        "rho": p,
        "theorem_bound": bn_bound(g, args.d, args.r),
        **search_result_to_doc(result),
    }
    if result.found:
        # re-check through rank; it scans K - W, not W, when deg W > g - 1
        witness_rank = rank(result.witness.graph, result.witness)
        report["witness_rank"] = witness_rank
        report["verified"] = result.witness.degree == args.d and witness_rank >= args.r
    return report, 0 if result.found else 3


def _cmd_gonality(args) -> tuple[dict, int]:
    name, graph = resolve_graph(args.graph)
    result = gonality_search(graph, args.r, args.d_max)
    return {
        "graph": name,
        "r": args.r,
        "d_max": args.d_max,
        "found": result.found,
        "gonality": result.d,
        "witness": divisor_to_doc(result.witness) if result.witness else None,
        "classes_examined": result.classes_examined,
    }, 0 if result.found else 3


def _cmd_harmonic(args) -> tuple[dict, int]:
    f = load_morphism(args.morphism)
    report = check_harmonic(f)
    return {
        "morphism": args.morphism,
        "harmonic": report.harmonic,
        "degree": report.degree,
        "violations": list(report.violations),
    }, 0


def _cmd_rh(args) -> tuple[dict, int]:
    f = load_morphism(args.morphism)
    report = riemann_hurwitz_check(f)
    return {
        "morphism": args.morphism,
        "lhs": report.lhs,
        "rhs": report.rhs,
        "degree": report.degree,
        "ramification": report.ramification,
        "balanced": report.balanced,
        "marked_legs": dict(report.marked_legs),
    }, 0


def _cmd_pullback(args) -> tuple[dict, int]:
    f = load_morphism(args.morphism)
    div = load_divisor(args.divisor, f.target)
    pulled = pullback(f, div)
    return {
        "morphism": args.morphism,
        "divisor": divisor_to_doc(div),
        "pullback": divisor_to_doc(pulled),
        "degree_in": div.degree,
        "degree_out": pulled.degree,
        "map_degree": f.report.degree,
    }, 0


def _cmd_pushforward(args) -> tuple[dict, int]:
    name, graph = resolve_graph(args.graph)
    raw = args.contract
    pairs = parse_json(raw, "--contract") if raw.lstrip().startswith("[") else load_json(raw)
    pi = contract(graph, check_type(pairs, "array", "--contract"))
    div = load_divisor(args.divisor, graph)
    pushed = pushforward_contraction(pi, div)
    return {
        "graph": name,
        "contracted": [list(p) for p in pi.contracted_pairs],
        "target": graph_to_doc(pi.target, f"{name}/contracted"),
        "divisor": divisor_to_doc(div),
        "pushforward": divisor_to_doc(pushed),
        "degree": pushed.degree,
    }, 0


def _cmd_batch(args) -> tuple[dict, int]:
    summary = batch_mod.batch_run(
        load_json(args.config), args.out, jobs=args.jobs, base_dir=Path(args.config).parent
    )
    return {"config": str(args.config), "out": str(args.out), **summary}, 0


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        report, code = args.run(args)
        text = dump_json(report, indent=2)
    except DivGraphError as exc:
        print(json.dumps({"error": exc.slug, "message": str(exc)}, sort_keys=True))
        return 2
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
