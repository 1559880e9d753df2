"""Harmonic morphisms: validity, Riemann-Hurwitz, pullback, contraction."""

import dataclasses
import random
import re

import pytest

from divgraph import (
    Divisor,
    EndpointMismatchError,
    InvalidInputError,
    LoopEdgeError,
    NotHarmonicError,
    UnknownVertexError,
    build_graph,
    build_morphism,
    check_harmonic,
    contract,
    genus,
    identity_morphism,
    pullback,
    pushforward_contraction,
    refine,
    riemann_hurwitz_check,
)
from divgraph.families import banana, cycle, theta

from conftest import CORPUS, harmonic_violations_oracle


@pytest.fixture(scope="module")
def path_onto_edge():
    source = build_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    target = build_graph(["x", "y"], [("x", "y")])
    return build_morphism(
        source,
        target,
        {"a": "x", "b": "y", "c": "x"},
        [(("a", "b"), ("x", "y")), (("b", "c"), ("x", "y"))],
        {"b": 2},
    )


@pytest.fixture(scope="module")
def c4_double_cover():
    """The alternating unramified double cover of the doubled edge."""
    source, target = cycle(4), banana(1)
    return build_morphism(
        source,
        target,
        {"v0": "v0", "v1": "v1", "v2": "v0", "v3": "v1"},
        [
            (("v0", "v1"), ("v0", "v1", 0)),
            (("v1", "v2"), ("v0", "v1", 1)),
            (("v2", "v3"), ("v0", "v1", 0)),
            (("v3", "v0"), ("v0", "v1", 1)),
        ],
    )


class TestCheckHarmonic:
    @pytest.mark.parametrize("name,graph", CORPUS[:8])
    def test_identity_is_harmonic_degree_one(self, name, graph):
        report = check_harmonic(identity_morphism(graph))
        assert report.harmonic and report.degree == 1

    def test_path_onto_edge(self, path_onto_edge):
        report = check_harmonic(path_onto_edge)
        assert report.harmonic and report.degree == 2

    def test_wrong_local_degree_flagged(self):
        source = build_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        target = build_graph(["x", "y"], [("x", "y")])
        f = build_morphism(
            source,
            target,
            {"a": "x", "b": "y", "c": "x"},
            [(("a", "b"), ("x", "y")), (("b", "c"), ("x", "y"))],
        )
        report = check_harmonic(f)
        assert not report.harmonic
        locals_ = [v for v in report.violations if v["kind"] == "local"]
        assert locals_ == [
            {
                "kind": "local",
                "vertex": "b",
                "target_edge": ["x", "y", 0],
                "count": 2,
                "expected": 1,
            }
        ]
        degrees = [v for v in report.violations if v["kind"] == "degree"]
        assert {(v["target_vertex"], v["fiber_sum"]) for v in degrees} == {("x", 2), ("y", 1)}

    def test_double_cover(self, c4_double_cover):
        report = check_harmonic(c4_double_cover)
        assert report.harmonic and report.degree == 2

    def test_endpoint_mismatch_rejected(self):
        source = build_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        target = build_graph(["x", "y"], [("x", "y")])
        message = "edge (a,b) maps to (x,y) but its endpoints map to ['x']"
        with pytest.raises(EndpointMismatchError, match=re.escape(message)):
            build_morphism(
                source,
                target,
                {"a": "x", "b": "x", "c": "y"},  # edge (a,b) maps onto a single vertex
                [(("a", "b"), ("x", "y")), (("b", "c"), ("x", "y"))],
            )

    def test_unmapped_edge_rejected(self):
        source = build_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        target = build_graph(["x", "y"], [("x", "y")])
        with pytest.raises(InvalidInputError):
            build_morphism(
                source,
                target,
                {"a": "x", "b": "y", "c": "x"},
                [(("a", "b"), ("x", "y"))],
            )


def _ref(rng: random.Random, u: str, v: str, copy: int):
    """An edge reference in a random spelling: either orientation, list or
    tuple, and two elements when the copy is 0 half of the time."""
    ref = [u, v] if rng.random() < 0.5 else [v, u]
    if copy or rng.random() < 0.5:
        ref.append(copy)
    return ref if rng.random() < 0.5 else tuple(ref)


def cycle_cover(k: int, n: int, rng: random.Random):
    """The cover C_(kn) -> C_n of degree k, with shuffled vertex and edge
    orders, random orientations and a random rotation.  For n = 2 the
    target is a doubled edge, and source edge j takes copy j mod 2."""
    kn, shift = k * n, rng.randrange(n)
    src = [f"s{j}" for j in range(kn)]
    tgt = [f"t{i}" for i in range(n)]
    src_edges = [[src[j], src[(j + 1) % kn]] for j in range(kn)]
    tgt_edges = [[tgt[i], tgt[(i + 1) % n]] for i in range(n)]
    edge_map = []
    for j, (u, v) in enumerate(src_edges):
        i = (j + shift) % n
        target_copy = i if n == 2 else 0
        edge_map.append([_ref(rng, u, v, j if kn == 2 else 0), _ref(rng, *tgt_edges[i], target_copy)])
    vertex_map = {src[j]: tgt[(j + shift) % n] for j in range(kn)}
    for items in (src, tgt, src_edges, tgt_edges, edge_map):
        rng.shuffle(items)
    for edges in (src_edges, tgt_edges):
        for e in edges:
            if rng.random() < 0.5:
                e.reverse()
    return build_morphism(
        build_graph(src, src_edges), build_graph(tgt, tgt_edges), vertex_map, edge_map
    )


def bond_map(rng: random.Random, source, target):
    """A morphism between two graphs on the same vertex names, the identity
    on vertices: each parallel copy of a source bond maps to a random copy
    of the same target bond, and each vertex gets a local degree in 1..3."""
    edge_map = []
    for u, v, m in source.edges:
        for c in range(m):
            edge_map.append([_ref(rng, u, v, c), _ref(rng, u, v, rng.randrange(target.multiplicity(u, v)))])
    rng.shuffle(edge_map)
    vertices = source.vertices
    local = {v: rng.randint(1, 3) for v in vertices if rng.random() < 0.8}
    return build_morphism(source, target, {v: v for v in vertices}, edge_map, local)


def balanced_banana_map(rng: random.Random, q: int, m: int):
    """banana(mq - 1) onto banana(q - 1) with local degree m at both
    vertices, each target copy hit m times: harmonic of degree m."""
    source, target = banana(m * q - 1), banana(q - 1)
    images = [c for c in range(q) for _ in range(m)]
    rng.shuffle(images)
    edge_map = [[_ref(rng, "v0", "v1", c), _ref(rng, "v0", "v1", t)] for c, t in enumerate(images)]
    return build_morphism(source, target, {"v0": "v0", "v1": "v1"}, edge_map, {"v0": m, "v1": m})


class TestHarmonicOracle:
    """check_harmonic against :func:`harmonic_violations_oracle`: the same
    violations, entry for entry, in the same order."""

    @staticmethod
    def assert_matches_oracle(f):
        report = check_harmonic(f)
        assert report.violations == harmonic_violations_oracle(f)
        assert report.harmonic == (not report.violations)
        return report

    @pytest.mark.parametrize("seed", range(40))
    def test_random_cycle_covers(self, seed):
        rng = random.Random(seed)
        k, n = rng.randint(1, 4), rng.randint(2, 7)
        report = self.assert_matches_oracle(cycle_cover(k, n, rng))
        assert report.harmonic and report.degree == k

    @pytest.mark.parametrize("seed", range(40))
    def test_banana_maps_with_random_local_degrees(self, seed):
        rng = random.Random(seed)
        self.assert_matches_oracle(bond_map(rng, banana(rng.randint(0, 5)), banana(rng.randint(0, 3))))

    @pytest.mark.parametrize("seed", range(20))
    def test_balanced_banana_maps(self, seed):
        rng = random.Random(seed)
        q, m = rng.randint(1, 4), rng.randint(1, 3)
        report = self.assert_matches_oracle(balanced_banana_map(rng, q, m))
        assert report.harmonic and report.degree == m

    @pytest.mark.parametrize("seed", range(40))
    def test_theta_maps_with_random_local_degrees(self, seed):
        rng = random.Random(seed)
        sides = lambda: [rng.randint(1, 4) for _ in range(3)]  # noqa: E731
        self.assert_matches_oracle(bond_map(rng, theta(*sides()), theta(*sides())))

    @pytest.mark.parametrize("seed", range(40))
    def test_mutated_edge_maps(self, seed):
        """A cover whose edge map moves edges to other copies of the same
        target bond, and whose local degrees are redrawn."""
        rng = random.Random(seed)
        f = cycle_cover(rng.randint(1, 4), 2, rng) if seed % 2 else balanced_banana_map(rng, 3, 2)
        edge_map = list(f.edge_map)
        for _ in range(rng.randint(1, 3)):
            e = rng.randrange(len(edge_map))
            u, v = f.target.edge_list[edge_map[e]]
            edge_map[e] = f.target.edge_index(u, v, rng.randrange(f.target.multiplicity(u, v)))
        local = tuple(rng.choice((m, m, rng.randint(1, 3))) for m in f.local_degree)
        self.assert_matches_oracle(dataclasses.replace(f, edge_map=tuple(edge_map), local_degree=local))


class TestRiemannHurwitz:
    def test_path_onto_edge_ledger(self, path_onto_edge):
        report = riemann_hurwitz_check(path_onto_edge)
        assert report.lhs == -2
        assert report.rhs == 2 * (-2) + 2 * (2 - 1) == -2
        assert report.degree == 2 and report.ramification == 2
        assert report.balanced

    def test_double_cover_unramified(self, c4_double_cover):
        report = riemann_hurwitz_check(c4_double_cover)
        assert (report.lhs, report.rhs) == (0, 0)
        assert report.ramification == 0
        assert report.balanced

    @pytest.mark.parametrize("name,graph", CORPUS[:8])
    def test_identity_balances(self, name, graph):
        report = riemann_hurwitz_check(identity_morphism(graph))
        assert report.balanced
        assert report.lhs == 2 * genus(graph) - 2

    def test_not_harmonic_raises(self):
        source = build_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        target = build_graph(["x", "y"], [("x", "y")])
        f = build_morphism(
            source,
            target,
            {"a": "x", "b": "y", "c": "x"},
            [(("a", "b"), ("x", "y")), (("b", "c"), ("x", "y"))],
        )
        with pytest.raises(NotHarmonicError):
            riemann_hurwitz_check(f)
        with pytest.raises(NotHarmonicError):
            pullback(f, Divisor.zero(target))

    def test_marked_legs_reported_but_excluded(self):
        # leg marks never change either side of the identity
        source = build_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        target = build_graph(["x", "y"], [("x", "y")])
        f = build_morphism(
            source,
            target,
            {"a": "x", "b": "y", "c": "x"},
            [(("a", "b"), ("x", "y")), (("b", "c"), ("x", "y"))],
            {"b": 2},
            marked_legs={"a": 1, "c": 1},
        )
        report = riemann_hurwitz_check(f)
        assert report.marked_legs == (("a", 1), ("c", 1))
        assert (report.lhs, report.rhs) == (-2, -2)


class TestPullback:
    def test_zero(self, path_onto_edge):
        zero = Divisor.zero(path_onto_edge.target)
        assert pullback(path_onto_edge, zero) == Divisor.zero(path_onto_edge.source)

    def test_ramified_point(self, path_onto_edge):
        pulled = pullback(path_onto_edge, Divisor.from_map(path_onto_edge.target, {"y": 1}))
        assert pulled.to_map() == {"b": 2}
        assert pulled.degree == 2

    def test_double_cover_fiber(self, c4_double_cover):
        pulled = pullback(c4_double_cover, Divisor.from_map(c4_double_cover.target, {"v0": 1}))
        assert pulled.to_map() == {"v0": 1, "v2": 1}

    def test_degree_multiplicativity_random(self, path_onto_edge, c4_double_cover):
        rng = random.Random(37)
        for f in (path_onto_edge, c4_double_cover):
            deg_f = check_harmonic(f).degree
            for _ in range(100):
                d = Divisor(f.target, tuple(rng.randint(-3, 3) for _ in f.target.vertices))
                assert pullback(f, d).degree == deg_f * d.degree

    def test_additive(self, c4_double_cover):
        f = c4_double_cover
        a = Divisor.from_map(f.target, {"v0": 2, "v1": -1})
        b = Divisor.from_map(f.target, {"v1": 3})
        assert pullback(f, a + b) == pullback(f, a) + pullback(f, b)


class TestContraction:
    def test_identity_like(self, theta222):
        pi = contract(theta222, [])
        assert pi.target == theta222
        d = Divisor(theta222, (1, -2, 4))
        assert pushforward_contraction(pi, d) == d

    def test_cycle_back_to_banana(self):
        square, _ = refine(banana(1), 1)
        mid0, mid1 = square.vertices[2], square.vertices[3]
        pi = contract(square, [("v0", mid0), ("v1", mid1)])
        assert pi.target.vertices == ("v0", "v1")
        assert pi.target.multiplicity("v0", "v1") == 2
        pushed = pushforward_contraction(pi, Divisor.from_map(square, {"v0": 1, mid1: 1}))
        assert pushed.to_map() == {"v0": 1, "v1": 1}
        pushed2 = pushforward_contraction(pi, Divisor.from_map(square, {"v0": 1, mid0: 1}))
        assert pushed2.to_map() == {"v0": 2}

    def test_zero(self, theta222):
        pi = contract(theta222, [("v0", "v1")])
        assert pushforward_contraction(pi, Divisor.zero(theta222)) == Divisor.zero(pi.target)

    def test_preserves_degree_and_additive(self):
        square, _ = refine(banana(2), 2)
        pairs = [("v0", square.vertices[2])]
        pi = contract(square, pairs)
        rng = random.Random(41)
        for _ in range(20):
            a = Divisor(square, tuple(rng.randint(-2, 2) for _ in square.vertices))
            b = Divisor(square, tuple(rng.randint(-2, 2) for _ in square.vertices))
            assert pushforward_contraction(pi, a).degree == a.degree
            assert pushforward_contraction(pi, a + b) == pushforward_contraction(
                pi, a
            ) + pushforward_contraction(pi, b)

    def test_genus_drop_on_bond_contraction(self, theta222):
        # contracting a doubled bond of the doubled triangle removes both
        # parallel edges and one vertex: genus falls by 1
        pi = contract(theta222, [("v0", "v1")])
        assert genus(pi.target) == genus(theta222) - 1

    def test_loop_creation_rejected(self):
        tri = cycle(3)
        with pytest.raises(LoopEdgeError):
            contract(tri, [("v0", "v1"), ("v1", "v2")])

    def test_pair_without_a_bond_rejected(self):
        with pytest.raises(UnknownVertexError, match="no edge bond"):
            contract(cycle(4), [("v0", "v2")])
