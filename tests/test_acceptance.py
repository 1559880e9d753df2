"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line with its
runtime against the stated limit.  Criteria marked with exact values assert
exact equality; the property criteria assert zero failures over their
stated corpus.
"""

import itertools
import random
import time

import pytest

from divgraph import (
    Divisor,
    NegativeRhoError,
    bn_bound,
    bound_chain_check,
    build_graph,
    build_morphism,
    canonical,
    check_harmonic,
    enumerate_classes,
    find_gdr,
    genus,
    legacy_bound,
    principal_divisor,
    pullback,
    rank,
    rank_at_least,
    reduce,
    refine,
    rho,
    riemann_hurwitz_check,
    riemann_roch_residual,
    spanning_tree_count,
    transport,
)
from divgraph.families import banana, cycle, theta

from conftest import CORPUS, assert_treewidth_floor, equivalent_oracle, superstable_by_subsets


class Criterion:
    """Times a criterion body and prints its one-line verdict."""

    def __init__(self, number, limit_s, label):
        self.number = number
        self.limit_s = limit_s
        self.label = label

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        ok = exc_type is None and elapsed < self.limit_s
        verdict = "PASS" if ok else "FAIL"
        print(f"ACCEPTANCE {self.number}: {verdict} "
              f"[{elapsed:.2f}s / {self.limit_s:.0f}s] {self.label}")
        if exc_type is None:
            assert elapsed < self.limit_s, (
                f"criterion {self.number} exceeded its {self.limit_s}s budget"
            )
        return False


def test_criterion_1_rho_and_bound_exact():
    with Criterion(1, 1.0, "rho(4,3,1)=0 and bound(4,3,1)=2"):
        assert rho(4, 3, 1) == 0
        assert bn_bound(4, 3, 1) == 2


def test_criterion_2_negative_rho_refusal():
    with Criterion(2, 1.0, "rho(9,5,1)=-1 and search refuses"):
        assert rho(9, 5, 1) == -1
        with pytest.raises(NegativeRhoError):
            find_gdr(banana(9), 5, 1)


def test_criterion_3_search_on_doubled_triangle():
    with Criterion(3, 10.0, "g^1_3 found at k=0 on the doubled triangle, re-verified"):
        graph = theta(2, 2, 2)
        result = find_gdr(graph, 3, 1)
        assert result.found and result.k == 0
        witness = result.witness
        assert witness.degree == 3
        # independent definitional re-verification
        assert rank_at_least(graph, witness, 1)
        assert rank(graph, witness) >= 1
        assert_treewidth_floor(graph, result.k, witness.degree, 1)


def test_criterion_4_riemann_roch_suite():
    with Criterion(4, 300.0, "RR residual 0 for all classes, coeffs in [-2,2]"):
        assert len(CORPUS) >= 10
        failures = 0
        classes = 0
        for _, graph in CORPUS:
            q = graph.vertices[0]
            seen = set()
            for coeffs in itertools.product(range(-2, 3), repeat=len(graph.vertices)):
                divisor = Divisor(graph, coeffs)
                key = (divisor.degree, reduce(graph, divisor, q).divisor.coeffs)
                if key in seen:
                    continue
                seen.add(key)
                classes += 1
                if riemann_roch_residual(graph, divisor) != 0:
                    failures += 1
        assert classes > 500
        assert failures == 0


def _invariance_divisors(graph):
    rng = random.Random(10_000 * len(graph.vertices) + 100 * graph.num_edges + 7)
    out = [
        Divisor.zero(graph),
        canonical(graph),
        Divisor(graph, (1,) * len(graph.vertices)),
    ]
    while len(out) < 7:
        coeffs = tuple(rng.randint(-1, 2) for _ in graph.vertices)
        if abs(sum(coeffs)) <= 4:
            out.append(Divisor(graph, coeffs))
    return out


def test_criterion_5_refinement_rank_invariance():
    with Criterion(5, 300.0, "rank preserved under refinement, n in {1,2,3}"):
        failures = 0
        for _, graph in CORPUS:
            divisors = _invariance_divisors(graph)
            base_ranks = [rank(graph, d) for d in divisors]
            for n in (1, 2, 3):
                target, iota = refine(graph, n)
                for divisor, expected in zip(divisors, base_ranks):
                    if rank(target, transport(iota, divisor)) != expected:
                        failures += 1
        assert failures == 0


def test_criterion_6_class_count_oracle():
    with Criterion(6, 120.0, "class enumeration count = spanning tree count, k <= 2"):
        failures = 0
        for _, graph in CORPUS:
            for k in range(0, 3):
                refined, _ = refine(graph, k)
                count = sum(1 for _ in enumerate_classes(refined, refined.vertices[0], 0))
                if count != spanning_tree_count(refined):
                    failures += 1
        assert failures == 0


def test_criterion_7_bound_comparison_grid():
    with Criterion(7, 60.0, "factorial bound < legacy bound over the grid"):
        instances = 0
        for g in range(0, 11):
            for d in range(0, 11):
                for r in range(1, 4):
                    if d <= r or rho(g, d, r) < 0 or g - d + r < 0:
                        continue
                    bound = bn_bound(g, d, r)
                    assert isinstance(bound, int) and bound > 0
                    assert bound < legacy_bound(2, g + 1, d, r)
                    assert bound_chain_check(g, d, r)
                    instances += 1
        assert instances == 70


def _small_tree_graphs():
    graphs = [
        ("path3", build_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])),
        ("banana(1)", banana(1)),
        ("banana(2)", banana(2)),
        ("banana(3)", banana(3)),
        ("cycle(3)", cycle(3)),
        ("cycle(4)", cycle(4)),
        ("cycle(5)", cycle(5)),
        ("cycle(6)", cycle(6)),
        ("theta(2,2,2)", theta(2, 2, 2)),
    ]
    assert all(spanning_tree_count(g) <= 12 for _, g in graphs)
    return graphs


def test_criterion_8_reduction_against_bruteforce():
    with Criterion(8, 120.0, "q-reduction matches subset-test oracle, all bases"):
        rng = random.Random(97)
        failures = 0
        for _, graph in _small_tree_graphs():
            tree_count = spanning_tree_count(graph)
            for qi, q in enumerate(graph.vertices):
                reps = []
                for config in superstable_by_subsets(graph, qi):
                    coeffs = list(config)
                    coeffs[qi] = -sum(config)
                    reps.append(Divisor(graph, tuple(coeffs)))
                # the oracle found one representative per degree-0 class
                assert len(reps) == tree_count
                for rep in reps:
                    if reduce(graph, rep, q).divisor != rep:
                        failures += 1
                    for _ in range(3):
                        potential = {v: rng.randint(-2, 2) for v in graph.vertices}
                        moved = rep + principal_divisor(graph, potential)
                        if reduce(graph, moved, q).divisor != rep:
                            failures += 1
            # cross-base agreement: reducing a base-q representative at
            # another base must land on its oracle representative there
            q0, q1 = graph.vertices[0], graph.vertices[-1]
            reps0 = [
                Divisor(graph, tuple([-sum(c) if i == 0 else c[i] for i in range(len(c))]))
                for c in superstable_by_subsets(graph, 0)
            ]
            for rep in reps0:
                other = reduce(graph, rep, q1).divisor
                if not equivalent_oracle(graph, other, rep):
                    failures += 1
        assert failures == 0


def test_criterion_9_harmonic_suite():
    with Criterion(9, 10.0, "harmonic covers: exact ledgers + pullback degrees"):
        path = build_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        edge = build_graph(["x", "y"], [("x", "y")])
        fold = build_morphism(
            path, edge,
            {"a": "x", "b": "y", "c": "x"},
            [(("a", "b"), ("x", "y")), (("b", "c"), ("x", "y"))],
            {"b": 2},
        )
        report = check_harmonic(fold)
        assert report.harmonic and report.degree == 2
        rh = riemann_hurwitz_check(fold)
        assert (rh.lhs, rh.rhs, rh.ramification) == (-2, -2, 2)
        assert rh.rhs == 2 * (2 * genus(edge) - 2) + 2 * (2 - 1)

        square, doubled = cycle(4), banana(1)
        cover = build_morphism(
            square, doubled,
            {"v0": "v0", "v1": "v1", "v2": "v0", "v3": "v1"},
            [
                (("v0", "v1"), ("v0", "v1", 0)),
                (("v1", "v2"), ("v0", "v1", 1)),
                (("v2", "v3"), ("v0", "v1", 0)),
                (("v3", "v0"), ("v0", "v1", 1)),
            ],
        )
        report = check_harmonic(cover)
        assert report.harmonic and report.degree == 2
        rh = riemann_hurwitz_check(cover)
        assert (rh.lhs, rh.rhs, rh.ramification) == (0, 0, 0)

        rng = random.Random(111)
        for morphism in (fold, cover):
            degree = check_harmonic(morphism).degree
            for _ in range(100):
                coeffs = tuple(rng.randint(-3, 3) for _ in morphism.target.vertices)
                divisor = Divisor(morphism.target, coeffs)
                assert pullback(morphism, divisor).degree == degree * divisor.degree
