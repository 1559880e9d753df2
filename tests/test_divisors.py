"""Divisor arithmetic, q-reduction, rank, class enumeration, Riemann-Roch."""

import enum
import itertools
import random
from pathlib import Path

import pytest

import divgraph.brill_noether
import divgraph.divisors
from divgraph import (
    Divisor,
    EmptyOrFullSetError,
    IndexMismatchError,
    InvalidInputError,
    UnknownVertexError,
    build_graph,
    canonical,
    contract,
    enumerate_classes,
    fire_set,
    genus,
    has_effective_rep,
    is_equivalent,
    is_reduced,
    principal_divisor,
    pushforward_contraction,
    rank,
    rank_at_least,
    reduce,
    riemann_roch_residual,
    spanning_tree_count,
    superstable_configs,
    transport,
    refine,
    vertex_divisor,
)
from divgraph.brill_noether import _search_one_level
from divgraph.divisors import _scan_rank
from divgraph.harmonic import identity_morphism, pullback
from divgraph.families import banana, cycle, random_multigraph, theta
from divgraph.io import load_graph

from conftest import (
    CORPUS,
    cut_walk,
    definitional_rank,
    effective_oracle,
    equivalent_oracle,
    is_principal_oracle,
    is_reduced_by_subsets,
    reduce_round_by_round,
    screened_walk,
    shuffled,
    superstable_by_subsets,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


class TestFireSet:
    def test_banana_single_vertex(self):
        g = banana(1)
        fired = fire_set(g, Divisor.zero(g), {"v0"})
        assert fired.coeffs == (-2, 2)

    def test_path_middle(self, path3):
        fired = fire_set(path3, Divisor(path3, (0, 2, 0)), {"b"})
        assert fired.coeffs == (1, 0, 1)

    def test_firing_complement_inverts(self, theta222):
        d = Divisor(theta222, (3, -1, 0))
        once = fire_set(theta222, d, {"v0", "v2"})
        assert once != d
        assert fire_set(theta222, once, {"v1"}) == d

    def test_empty_and_full_rejected(self, theta222):
        with pytest.raises(EmptyOrFullSetError):
            fire_set(theta222, Divisor.zero(theta222), set())
        with pytest.raises(EmptyOrFullSetError):
            fire_set(theta222, Divisor.zero(theta222), {"v0", "v1", "v2"})

    @pytest.mark.parametrize("name,graph", CORPUS[:8])
    def test_degree_conserved_and_principal(self, name, graph):
        rng = random.Random(5)
        verts = list(graph.vertices)
        for _ in range(10):
            d = Divisor(graph, tuple(rng.randint(-2, 2) for _ in verts))
            size = rng.randint(1, len(verts) - 1) if len(verts) > 1 else 1
            if len(verts) == 1:
                break
            subset = rng.sample(verts, size)
            fired = fire_set(graph, d, subset)
            assert fired.degree == d.degree
            assert is_principal_oracle(graph, [a - b for a, b in zip(fired.coeffs, d.coeffs)])


class TestVertexNames:
    """Every vertex name goes through Multigraph.vertex_index: a name that is
    not a string is invalid input, never matched through str(); every
    coefficient goes through check_int."""

    CALLS = {
        "vertex_divisor": lambda g, v: vertex_divisor(g, v),
        "reduce": lambda g, v: reduce(g, Divisor.zero(g), v),
        "enumerate_classes": lambda g, v: next(enumerate_classes(g, v, 1)),
        "fire_set": lambda g, v: fire_set(g, Divisor.zero(g), [v]),
        "Divisor.from_map": lambda g, v: Divisor.from_map(g, {v: 1}),
    }

    @pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
    def test_non_string_name_is_invalid_input(self, call):
        # the graph has a vertex "0", which the integer 0 must not match
        graph = build_graph(["0", "1"], [("0", "1")])
        assert call(graph, "0") is not None
        with pytest.raises(InvalidInputError):
            call(graph, 0)

    @pytest.mark.parametrize("value", [1.9, True], ids=["float", "bool"])
    def test_from_map_coefficient_must_be_an_integer(self, theta222, value):
        with pytest.raises(InvalidInputError):
            Divisor.from_map(theta222, {"v0": value})

    def test_principal_divisor_potential_must_be_an_integer(self, theta222):
        with pytest.raises(InvalidInputError):
            principal_divisor(theta222, {"v0": "3"})

    def test_at_unknown_vertex(self, theta222):
        with pytest.raises(UnknownVertexError):
            Divisor.zero(theta222).at("zz")


class TestOperands:
    """Coefficients stay exact integers: an operand that is not a Divisor,
    or a factor that is not an int, is a TypeError."""

    @pytest.mark.parametrize("other", [1, 0.5, None, (1, 0, 0)])
    def test_add_and_sub_need_a_divisor(self, other):
        d = Divisor.zero(cycle(3))
        for op in (lambda: d + other, lambda: d - other, lambda: other + d, lambda: other - d):
            with pytest.raises(TypeError):
                op()

    @pytest.mark.parametrize("factor", [1.5, 2.0, True, "2", None])
    def test_factor_must_be_an_int(self, factor):
        d = Divisor(cycle(3), (1, 0, 0))
        with pytest.raises(TypeError):
            d * factor
        with pytest.raises(TypeError):
            factor * d

    def test_int_factor(self):
        d = Divisor(cycle(3), (1, -2, 0))
        assert d * 3 == 3 * d == Divisor(cycle(3), (3, -6, 0))
        assert d * 0 == Divisor.zero(cycle(3))

    @pytest.mark.parametrize("bad", [1.5, 1.0, True, "1", None, enum.IntEnum("One", "ONE").ONE])
    def test_coefficients_must_be_ints(self, bad):
        # a coefficient 1.5 once gave theta(2,2,2) the rank 0.5, and True
        # counted as 1
        with pytest.raises(InvalidInputError, match="divisor coefficient for 'v1'"):
            Divisor(theta(2, 2, 2), (1, bad, 1))


class TestCanonical:
    @pytest.mark.parametrize("g", range(1, 6))
    def test_banana(self, g):
        k = canonical(banana(g))
        assert k.coeffs == (g - 1, g - 1)
        assert k.degree == 2 * g - 2

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_cycle_zero(self, n):
        assert canonical(cycle(n)) == Divisor.zero(cycle(n))

    def test_doubled_triangle(self, theta222):
        k = canonical(theta222)
        assert k.coeffs == (2, 2, 2)
        assert k.degree == 6 == 2 * genus(theta222) - 2


class TestReduce:
    def test_fixed_point(self, theta222):
        d = Divisor(theta222, (5, 0, 1))
        red = reduce(theta222, d, "v0")
        again = reduce(theta222, red.divisor, "v0")
        assert red.divisor == again.divisor

    def test_principal_reduces_to_zero(self, theta222):
        for f in ({"v0": 1}, {"v1": -2, "v2": 1}, {"v0": 3, "v1": 1, "v2": -1}):
            p = principal_divisor(theta222, f)
            for q in theta222.vertices:
                assert reduce(theta222, p, q).divisor == Divisor.zero(theta222)

    def test_path_two_chips_on_middle(self, path3):
        # the unique a-reduced representative of (0,2,0) is (2,0,0);
        # cross-checked against the subset-test oracle below
        red = reduce(path3, Divisor(path3, (0, 2, 0)), "a")
        assert red.divisor.coeffs == (2, 0, 0)
        assert is_reduced_by_subsets(path3, red.divisor.coeffs, 0)
        assert not is_reduced_by_subsets(path3, (1, 0, 1), 0)

    @pytest.mark.parametrize("name,graph", CORPUS)
    def test_output_is_reduced_and_equivalent(self, name, graph):
        rng = random.Random(11)
        for _ in range(8):
            d = Divisor(graph, tuple(rng.randint(-3, 3) for _ in graph.vertices))
            for q in (graph.vertices[0], graph.vertices[-1]):
                red = reduce(graph, d, q)
                assert red.divisor.degree == d.degree
                assert is_reduced(graph, red.divisor, q)
                assert equivalent_oracle(graph, red.divisor, d)

    def test_negative_away_from_q_is_not_reduced(self, path3):
        # (2, -1, 1) on the path a-b-c, superstable were b not negative
        assert not is_reduced(path3, Divisor(path3, (2, -1, 1)), "a")
        assert not is_reduced_by_subsets(path3, (2, -1, 1), 0)

    def test_is_reduced_validates_like_reduce(self, theta222, path3):
        with pytest.raises(UnknownVertexError):
            is_reduced(theta222, Divisor.zero(theta222), "zz")
        # a reduced divisor of path3, asked about theta(2,2,2)
        other = Divisor(path3, (0, 0, 0))
        with pytest.raises(IndexMismatchError):
            is_reduced(theta222, other, "v0")

    @pytest.mark.parametrize("d", range(-2, 3))
    def test_single_vertex_graph(self, d):
        # one vertex: every divisor is its own q-reduced form, one class
        # per degree, and genus 0 makes the rank deg D or -1
        graph = build_graph(["a"], [])
        divisor = Divisor(graph, (d,))
        assert reduce(graph, divisor, "a").divisor == divisor
        assert has_effective_rep(graph, divisor) is (d >= 0)
        assert rank(graph, divisor) == max(d, -1)
        assert list(enumerate_classes(graph, "a", d)) == [(d,)]

    @pytest.mark.parametrize("name,graph", CORPUS[:8])
    def test_class_invariance(self, name, graph):
        rng = random.Random(13)
        d = Divisor(graph, tuple(rng.randint(-2, 2) for _ in graph.vertices))
        q = graph.vertices[0]
        base = reduce(graph, d, q).divisor
        for _ in range(5):
            f = {v: rng.randint(-2, 2) for v in graph.vertices}
            shifted = d + principal_divisor(graph, f)
            assert reduce(graph, shifted, q).divisor == base


class TestThresholdReduction:
    """Phase 2 of ``_reduce_coeffs`` fires the sets that threshold burns
    find.  The q-reduced divisor is unique, so full reductions must equal
    those of one Dhar burn per round, and the ``until_effective`` verdicts
    must agree."""

    def test_matches_round_by_round(self, monkeypatch):
        # per round, whether _fire_often fired another set than the plain
        # burn's unburnt set
        moved = []
        fire_often = divgraph.divisors._fire_often

        def counted(adjacency, coeffs, burnt, heat, fire):
            got = fire_often(adjacency, coeffs, burnt, heat, fire)
            moved.append(got[0] != fire)
            return got

        monkeypatch.setattr(divgraph.divisors, "_fire_often", counted)
        rng = random.Random(31)
        checks = 0
        for name, graph in CORPUS:
            for k in range(5):
                refined = refine(graph, k)[0]
                n = len(refined.vertices)
                # q at an anchor, and on a refinement at an inserted vertex,
                # inside a chain
                for q in sorted({0, n - 1}):
                    for bound in (25, 10**6) if k == 0 else (25,):
                        for _ in range(3):
                            coeffs = [rng.randint(-bound, bound) for _ in range(n)]
                            full = reduce_round_by_round(refined, list(coeffs), q)
                            assert divgraph.divisors._reduce_coeffs(
                                refined, list(coeffs), q
                            ) == full, (name, k, q, coeffs)
                            early = divgraph.divisors._reduce_coeffs(
                                refined, list(coeffs), q, until_effective=True
                            )
                            reference = reduce_round_by_round(
                                refined, list(coeffs), q, until_effective=True
                            )
                            assert (early[q] >= 0) is (reference[q] >= 0) is (full[q] >= 0)
                            checks += 1
        assert checks > 500
        # the threshold burns fired sets of their own, not only the plain ones
        assert sum(moved) > 1000

    @pytest.mark.parametrize("name,graph", CORPUS)
    def test_large_coefficients_on_refinements(self, name, graph):
        # one burn per round would take minutes here: the result is checked
        # as q-reduced and equivalent, which fixes it
        rng = random.Random(37)
        for k in range(1, 5):
            refined = refine(graph, k)[0]
            n = len(refined.vertices)
            for q in (0, n - 1):
                coeffs = [rng.randint(-(10**6), 10**6) for _ in range(n)]
                full = divgraph.divisors._reduce_coeffs(refined, list(coeffs), q)
                assert is_reduced(refined, Divisor(refined, tuple(full)), refined.vertices[q])
                assert is_principal_oracle(refined, [a - b for a, b in zip(coeffs, full)])
                early = divgraph.divisors._reduce_coeffs(
                    refined, list(coeffs), q, until_effective=True
                )
                assert (early[q] >= 0) is (full[q] >= 0)

    GRAPH = load_graph(FIXTURES / "random-5-8-1-k2.graph")[1]
    ALTERNATE = [(-1) ** i for i in range(len(GRAPH.vertices))]

    @pytest.mark.parametrize(
        "coeffs,reduced",
        [
            (
                [10**9 if v == "v4" else 0 for v in GRAPH.vertices],
                {"v0": 999999998, "v3": 1, "v4": 1},
            ),
            ([10**4 * s for s in ALTERNATE], {"v0": 9997, "v1": 2, "v0:v4:0:1": 1}),
            (
                [10**6 * s for s in ALTERNATE],
                {"v0": 999997, "v3": 1, "v3:v4:0:2": 1, "v3:v4:1:2": 1},
            ),
        ],
        ids=["v4-1e9", "alternating-1e4", "alternating-1e6"],
    )
    def test_burns_grow_with_bit_length(self, monkeypatch, coeffs, reduced):
        # one burn per round takes 17,164 burns at 1e4, and more than 12 s
        # at 1e6 and at 1e9; the count stops the reduction as soon as it
        # passes the bound
        graph = self.GRAPH
        bound = len(graph.vertices) * max(abs(c) for c in coeffs).bit_length()
        burns = 0
        burn_on = divgraph.divisors._burn_on

        def counted(*args):
            nonlocal burns
            burns += 1
            assert burns <= bound, "more burns than n times the bit length"
            return burn_on(*args)

        monkeypatch.setattr(divgraph.divisors, "_burn_on", counted)
        got = reduce(graph, Divisor(graph, tuple(coeffs)), "v0").divisor
        assert got.to_map() == reduced


class TestEquivalence:
    def test_firing_preserves_class(self, theta222):
        d = Divisor(theta222, (2, 0, 1))
        assert is_equivalent(theta222, d, fire_set(theta222, d, {"v1"}))

    def test_banana_degree_zero_classes(self):
        # Jac(B2) has order 2: (1,-1) and (-1,1) differ by the principal
        # divisor (2,-2), so they are equivalent; neither is principal
        g = banana(1)
        d1, d2 = Divisor(g, (1, -1)), Divisor(g, (-1, 1))
        assert is_principal_oracle(g, (2, -2))
        assert not is_principal_oracle(g, (1, -1))
        assert is_equivalent(g, d1, d2)
        assert equivalent_oracle(g, d1, d2)
        assert not is_equivalent(g, d1, Divisor.zero(g))

    def test_different_degrees(self, theta222):
        assert not is_equivalent(theta222, Divisor.zero(theta222), Divisor(theta222, (1, 0, 0)))

    @pytest.mark.parametrize("name,graph", CORPUS[:8])
    def test_agrees_with_linear_algebra_oracle(self, name, graph):
        rng = random.Random(17)
        for _ in range(12):
            a = Divisor(graph, tuple(rng.randint(-2, 2) for _ in graph.vertices))
            b = Divisor(graph, tuple(rng.randint(-2, 2) for _ in graph.vertices))
            if a.degree != b.degree:
                continue
            assert is_equivalent(graph, a, b) == equivalent_oracle(graph, a, b)


class TestEffectiveRep:
    def test_effective_divisor(self, theta222):
        assert has_effective_rep(theta222, Divisor(theta222, (0, 3, 1)))

    def test_negative_degree(self, theta222):
        assert not has_effective_rep(theta222, Divisor(theta222, (-1, 0, 0)))

    def test_banana_nontrivial_class(self):
        g = banana(1)
        assert not has_effective_rep(g, Divisor(g, (-1, 1)))

    @pytest.mark.parametrize("name,graph", CORPUS)
    def test_base_vertex_independent(self, name, graph):
        rng = random.Random(19)
        for _ in range(8):
            d = Divisor(graph, tuple(rng.randint(-2, 2) for _ in graph.vertices))
            verdicts = {
                reduce(graph, d, q).divisor.at(q) >= 0 for q in graph.vertices
            }
            assert len(verdicts) == 1
            assert has_effective_rep(graph, d) in verdicts

    @staticmethod
    def two_negative_divisors(graph, rng, count):
        """Degrees 0-3, negative at two vertices other than vertex 0, so the
        reduction clears a second negative from a base other than vertex 0."""
        n = len(graph.vertices)
        for i in range(count):
            coeffs = [0] * n
            for v in rng.sample(range(1, n), 2):
                coeffs[v] = -rng.randint(1, 2)
            spots = [v for v in range(n) if coeffs[v] == 0]
            for _ in range(i % 4 - sum(coeffs)):
                coeffs[rng.choice(spots)] += 1
            yield coeffs

    @pytest.mark.parametrize(
        "name,graph",
        [(name, graph) for name, graph in CORPUS if len(graph.vertices) > 2]
        + [(f"{name}^(1)", refine(graph, 1)[0]) for name, graph in CORPUS],
    )
    def test_matches_effective_oracle(self, name, graph):
        rng = random.Random(23)
        verdicts = []
        for coeffs in self.two_negative_divisors(graph, rng, 12):
            verdict = has_effective_rep(graph, Divisor(graph, tuple(coeffs)))
            assert verdict == effective_oracle(graph, coeffs), coeffs
            verdicts.append(verdict)
        assert set(verdicts) == {False, True}


class TestRank:
    def test_zero_divisor(self, theta222):
        assert rank(theta222, Divisor.zero(theta222)) == 0

    def test_negative_degree(self, theta222):
        assert rank(theta222, Divisor(theta222, (-2, 1, 0))) == -1

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_banana_two_chips(self, g):
        b = banana(g)
        d = Divisor(b, (1, 1))
        assert rank_at_least(b, d, 1)
        # (1,1)-(2,0) = (-1,1) lies in a nontrivial degree-0 class
        assert not has_effective_rep(b, Divisor(b, (-1, 1)))
        assert rank(b, d) == 1

    def test_rank_at_least_r0_is_effectivity(self, theta222):
        for coeffs in [(1, 1, 1), (-1, 1, 0), (3, -2, 0)]:
            d = Divisor(theta222, coeffs)
            assert rank_at_least(theta222, d, 0) == has_effective_rep(theta222, d)

    def test_all_ones_on_doubled_triangle(self, theta222):
        assert rank_at_least(theta222, Divisor(theta222, (1, 1, 1)), 1)
        assert rank(theta222, Divisor(theta222, (1, 1, 1))) == 1

    @pytest.mark.parametrize("name,graph", CORPUS[:8])
    def test_riemann_roch_shortcut_matches_definition(self, name, graph):
        # recompute ranks definitionally where the deg > 2g-2 shortcut of
        # rank and rank_at_least fires: the largest r such that D - E is
        # equivalent to an effective divisor for every effective E of degree r
        g = genus(graph)
        n = len(graph.vertices)
        rng = random.Random(23)
        for _ in range(4):
            coeffs = tuple(rng.randint(0, 2) for _ in range(n))
            d = Divisor(graph, coeffs)
            if not 2 * g - 2 < d.degree <= 2 * g + 2:
                continue
            expected = d.degree - g
            assert definitional_rank(graph, d) == expected
            assert rank(graph, d) == expected
            assert rank_at_least(graph, d, expected)
            assert not rank_at_least(graph, d, expected + 1)

    def test_rank_at_least_above_canonical_degree_reduces_nothing(self, monkeypatch):
        # deg D > 2g - 2: Riemann-Roch gives the verdict deg D - g >= r, with
        # no reduction and none of the C(n+r-1, r) effectivity trials
        graph = random_multigraph(10, 12, 1)  # g = 3
        d = vertex_divisor(graph, graph.vertices[0], 17)

        def no_reduction(*args, **kwargs):
            raise AssertionError("rank_at_least reduced a divisor")

        monkeypatch.setattr(divgraph.divisors, "_effective_rep_raw", no_reduction)
        monkeypatch.setattr(divgraph.divisors, "_reduce_coeffs", no_reduction)
        assert rank_at_least(graph, d, 13)
        assert rank_at_least(graph, d, 14)
        assert not rank_at_least(graph, d, 15)

    @pytest.mark.parametrize("k", [0, 1])
    @pytest.mark.parametrize("name,graph", CORPUS)
    def test_rank_matches_definition_at_every_degree(self, name, graph, k):
        # from -1 to 2g, so both branches of rank are reached: the scan of D
        # up to degree g - 1, and the scan of K - D above it, including the
        # degrees in (g - 1, 2g - 2] where K - D is still effective
        target, _ = refine(graph, k)
        g = genus(target)
        n = len(target.vertices)
        rng = random.Random(37)
        for degree in range(-1, 2 * g + 1):
            spread = [rng.randint(-1, 2) for _ in range(n)]
            spread[0] += degree - sum(spread)
            for d in (vertex_divisor(target, target.vertices[-1], degree),
                      Divisor(target, tuple(spread))):
                assert rank(target, d) == definitional_rank(target, d), (degree, d)

    def test_rank_scans_the_smaller_side(self, monkeypatch):
        # deg D = 2g - 2 > g - 1, so rank scans K - D, of degree 0, and needs
        # no trial of r >= 2 even where r(D) = g - 1 = 2
        graph = random_multigraph(10, 12, 1)  # g = 3
        k = canonical(graph)
        d = vertex_divisor(graph, graph.vertices[0], 4)
        expected = [definitional_rank(graph, k), definitional_rank(graph, d)]
        original = divgraph.divisors._rank_core

        def small_r_only(graph, base, r):
            if r >= 2:
                raise AssertionError(f"rank ran a rank check with r = {r}")
            return original(graph, base, r)

        monkeypatch.setattr(divgraph.divisors, "_rank_core", small_r_only)
        assert [rank(graph, k), rank(graph, d)] == expected
        assert expected[0] == 2

    def test_scan_reduces_once(self, theta222, monkeypatch):
        # the scan reduces D at the first vertex once and steps r up on that
        # reduced form; only effectivity trials reduce after that
        full = []
        original = divgraph.divisors._reduce_coeffs

        def counting(graph, coeffs, q, until_effective=False):
            if not until_effective:
                full.append(tuple(coeffs))
            return original(graph, coeffs, q, until_effective)

        monkeypatch.setattr(divgraph.divisors, "_reduce_coeffs", counting)
        assert rank(theta222, Divisor(theta222, (1, 1, 1))) == 1
        assert full == [(1, 1, 1)]


class TestForeignDivisor:
    """The rank and effectivity checks refuse a divisor indexed by another
    graph, as reduce and is_reduced do; an equal graph built again is the
    same graph."""

    CALLS = [
        ("rank_at_least", lambda graph, d: rank_at_least(graph, d, 1)),
        ("has_effective_rep", has_effective_rep),
        ("rank", rank),
        ("pushforward_contraction", lambda graph, d: pushforward_contraction(
            contract(graph, [graph.vertices[:2]]), d)),
    ]

    @pytest.mark.parametrize("name,call", CALLS)
    def test_another_graph_raises(self, name, call):
        for graph, coeffs in (
            (cycle(3), (1, 0, 0, 0, 1)),
            (banana(3), (1, 0, 0, 0, -1)),  # the scan branch of rank
            (banana(3), (-1, 0, 0, 0, 0)),
            (banana(3), (3, 0, 0, 0, 0)),  # the Riemann-Roch branch of rank
        ):
            with pytest.raises(IndexMismatchError):
                call(graph, Divisor(cycle(5), coeffs))

    # every public function that takes a divisor, called with a divisor of
    # cycle(3)
    PUBLIC = [
        ("fire_set", lambda graph, d: fire_set(graph, d, ["v0"])),
        ("reduce", lambda graph, d: reduce(graph, d, "v0")),
        ("is_reduced", lambda graph, d: is_reduced(graph, d, "v0")),
        ("is_equivalent", lambda graph, d: is_equivalent(graph, d, d)),
        ("has_effective_rep", has_effective_rep),
        ("rank_at_least", lambda graph, d: rank_at_least(graph, d, 1)),
        ("rank", rank),
        ("riemann_roch_residual", riemann_roch_residual),
        ("transport", lambda graph, d: transport(refine(graph, 1)[1], d)),
        ("pushforward_contraction", lambda graph, d: pushforward_contraction(
            contract(graph, [graph.vertices[:2]]), d)),
        ("pullback", lambda graph, d: pullback(identity_morphism(graph), d)),
    ]

    @pytest.mark.parametrize("name,call", PUBLIC)
    def test_non_divisor_raises_a_typed_error(self, name, call):
        graph = cycle(3)
        assert call(graph, Divisor(graph, (1, 0, 0))) is not None
        reduced = reduce(graph, Divisor(graph, (1, 0, 0)), "v0")
        for other, type_name in ((reduced, "ReducedDivisor"), (5, "int")):
            with pytest.raises(InvalidInputError, match=f"expected a Divisor, got {type_name}"):
                call(graph, other)

    @pytest.mark.parametrize("coeffs", [(1, 0), (1, 0, 0, 0)])
    def test_coefficient_count_must_match_the_vertices(self, coeffs):
        with pytest.raises(IndexMismatchError, match="coefficients for 3 vertices"):
            Divisor(cycle(3), coeffs)

    def test_is_equivalent_checks_the_graph_before_the_degree(self):
        with pytest.raises(IndexMismatchError):
            is_equivalent(
                cycle(3), Divisor(cycle(5), (1, 0, 0, 0, 0)), Divisor(cycle(5), (0, 0, 0, 0, 0))
            )

    @pytest.mark.parametrize("name,call", CALLS)
    def test_equal_graph_is_accepted(self, name, call):
        d = Divisor(cycle(5), (1, 0, 0, 0, 1))
        assert call(cycle(5), d) == call(d.graph, d)


class TestRankAtLeastReducedInput:
    """rank_at_least gives every representative of a class the verdict of
    the class: its reduced forms at the first vertex, as the level scan
    passes the classes of enumerate_classes, at another vertex, or none."""

    @staticmethod
    def cases(graph):
        """(representative, divisor of the same class) pairs."""
        q, w = graph.vertices[0], graph.vertices[-1]
        g = genus(graph)
        for coeffs in itertools.islice(enumerate_classes(graph, q, g), 40):
            d = Divisor(graph, coeffs)
            yield d, d
            yield reduce(graph, d, w).divisor, d
        rng = random.Random(41)
        for _ in range(4):
            d = Divisor(graph, tuple(rng.randint(-2, 3) for _ in graph.vertices))
            yield reduce(graph, d, q).divisor, d
            yield reduce(graph, d, w).divisor, d

    @pytest.mark.parametrize("k", [0, 1])
    @pytest.mark.parametrize("name,graph", CORPUS)
    def test_same_verdict_as_its_divisor(self, name, graph, k):
        graph, _ = refine(graph, k)
        for red, d in self.cases(graph):
            for r in (0, 1, 2):
                assert rank_at_least(graph, red, r) == rank_at_least(graph, d, r)

    def test_each_representative_is_reduced_once_at_the_first_vertex(self, monkeypatch):
        graph, _ = refine(theta(2, 2, 2), 1)
        coeffs = next(c for c in enumerate_classes(graph, "v0", 4) if c[0] >= 1)
        bases = []
        original = divgraph.divisors._reduce_coeffs

        def recorder(graph, coeffs, q, until_effective=False):
            if not until_effective:
                bases.append(q)
            return original(graph, coeffs, q, until_effective)

        d = Divisor(graph, coeffs)
        other = reduce(graph, d, graph.vertices[-1]).divisor
        monkeypatch.setattr(divgraph.divisors, "_reduce_coeffs", recorder)
        verdict = rank_at_least(graph, d, 1)
        assert bases == [0]
        del bases[:]
        assert rank_at_least(graph, other, 1) == verdict
        assert bases == [0]


class TestEnumerateClasses:
    def test_banana_count(self):
        assert sum(1 for _ in enumerate_classes(banana(1), "v0", 0)) == 2

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_cycle_count(self, n):
        assert sum(1 for _ in enumerate_classes(cycle(n), "v0", 0)) == n

    @pytest.mark.parametrize("d", [-2, 0, 3])
    def test_doubled_triangle_any_degree(self, theta222, d):
        classes = list(enumerate_classes(theta222, "v0", d))
        assert len(classes) == 12 == spanning_tree_count(theta222)
        assert all(sum(c) == d for c in classes)

    @pytest.mark.parametrize("name,graph", CORPUS)
    def test_count_equals_tree_number(self, name, graph):
        count = sum(1 for _ in enumerate_classes(graph, graph.vertices[0], 1))
        assert count == spanning_tree_count(graph)

    @pytest.mark.parametrize("name,graph", CORPUS[:8])
    def test_pairwise_inequivalent_and_reduced(self, name, graph):
        q = graph.vertices[0]
        classes = [Divisor(graph, c) for c in enumerate_classes(graph, q, 2)]
        for divisor in classes:
            assert is_reduced(graph, divisor, q)
            assert reduce(graph, divisor, q).divisor == divisor
        for a, b in itertools.combinations(classes, 2):
            assert not equivalent_oracle(graph, a, b)

    def test_matches_subset_oracle(self, theta222, path3):
        # the oracle walks the box in itertools.product (lexicographic)
        # order, so the lists pin the yield order as well as the set
        graphs = (
            theta222, path3, banana(2), refine(theta222, 1)[0], refine(cycle(5), 1)[0]
        )
        for graph in graphs:
            q = graph.vertices[0]
            oracle = superstable_by_subsets(graph, 0)
            assert list(superstable_configs(graph, q)) == oracle
            classes = list(enumerate_classes(graph, q, 0))
            assert classes == [(-sum(ss), *ss[1:]) for ss in oracle]

    # anchors are q and the vertices of degree != 2; the walk tests
    # superstability on them and on chip counts of the degree-2 chains
    CHAIN_GRAPHS = [
        # a triangle with a cycle hanging off a: the chain x-y closes at a
        ("hanging cycle", build_graph(
            "abcxy", [("a", "b"), ("b", "c"), ("c", "a"), ("a", "x"), ("x", "y"), ("y", "a")]
        )),
        # d has degree 2 through a double edge to a
        ("double edge", build_graph("abcd", [("a", "b"), ("b", "c"), ("c", "a"), ("a", "d", 2)])),
        # q is the only anchor
        ("cycle(5)", cycle(5)),
        ("path", build_graph("abcd", [("a", "b"), ("b", "c"), ("c", "d")])),
        # chain vertices interleaved with the anchors in the vertex order
        ("banana(2)^(2) shuffled", shuffled(refine(banana(2), 2)[0], 7)),
        ("theta(1,1,2)^(1) shuffled", shuffled(refine(theta(1, 1, 2), 1)[0], 7)),
        # chains of 2 and 3 vertices: a chip moving inside its chain keeps
        # the memo key of the anchor burn
        ("banana(1)^(3) shuffled", shuffled(refine(banana(1), 3)[0], 5)),
        ("cycle(3)^(2) shuffled", shuffled(refine(cycle(3), 2)[0], 5)),
        ("pendant and double edge ^(2) shuffled", shuffled(
            refine(build_graph("abc", [("a", "b"), ("b", "c", 2)]), 2)[0], 5
        )),
        ("banana(2)^(2) shuffled again", shuffled(refine(banana(2), 2)[0], 11)),
        ("3-chain and double edge shuffled", shuffled(build_graph(
            "abxyz", [("a", "b", 2), ("a", "x"), ("x", "y"), ("y", "z"), ("z", "b")]
        ), 5)),
        ("3-chain, 2-chain and an edge shuffled", shuffled(build_graph(
            ["a", "b", "x1", "x2", "x3", "y1", "y2"],
            [("a", "b"), ("a", "x1"), ("x1", "x2"), ("x2", "x3"), ("x3", "b"),
             ("a", "y1"), ("y1", "y2"), ("y2", "b")],
        ), 5)),
        # a chain of 3 closing on a, and w held at b by a double edge
        ("loop chain and double edges shuffled", shuffled(build_graph(
            "abcxyzw",
            [("a", "b", 2), ("b", "c"), ("c", "a"), ("a", "x"), ("x", "y"), ("y", "z"),
             ("z", "a"), ("b", "w", 2)],
        ), 5)),
    ]

    @pytest.mark.parametrize("name,graph", CHAIN_GRAPHS)
    def test_matches_subset_oracle_at_every_base(self, name, graph):
        for qi, q in enumerate(graph.vertices):
            oracle = superstable_by_subsets(graph, qi)
            assert list(superstable_configs(graph, q)) == oracle
            # the walk keeps d minus the chips placed in the q slot
            for d in (-2, 0, 3):
                assert list(enumerate_classes(graph, q, d)) == [
                    (*ss[:qi], d - sum(ss), *ss[qi + 1 :]) for ss in oracle
                ]

    # anchor burns over the full walk of random(4,6,101)^(2), counted on
    # the walk that burned for every chain entry
    PLAIN_WALK_BURNS = 802

    def test_at_most_half_the_burns_of_the_plain_walk(self, monkeypatch):
        graph, _ = refine(random_multigraph(4, 6, 101), 2)
        burns = 0
        original = divgraph.divisors._anchors_burn

        def counter(*args):
            nonlocal burns
            burns += 1
            return original(*args)

        monkeypatch.setattr(divgraph.divisors, "_anchors_burn", counter)
        configs = list(superstable_configs(graph, graph.vertices[0]))
        assert len(configs) == spanning_tree_count(graph) == 270
        assert burns <= self.PLAIN_WALK_BURNS // 2

    # the same walk with each burn verdict kept under its key
    WALK_BURNS = 92

    @staticmethod
    def burn_states(monkeypatch, graph, q):
        """The walk's classes at q, and the state each anchor burn of the
        walk read: the values at the anchors other than q, and the chain
        bits of ``held``, set for the chains that hold a chip."""
        _, _, chains, anchors, _ = graph.chain_decomposition(graph.vertex_index(q))
        chain_bits = sum(1 << c for c in range(1, chains + 1))
        states = []
        original = divgraph.divisors._anchors_burn

        def recorder(links, coeffs, held, qi, count):
            states.append((tuple(coeffs[v] for v in anchors if v != qi), held & chain_bits))
            return original(links, coeffs, held, qi, count)

        monkeypatch.setattr(divgraph.divisors, "_anchors_burn", recorder)
        return list(superstable_configs(graph, q)), states

    def test_walk_burns(self, monkeypatch):
        graph, _ = refine(random_multigraph(4, 6, 101), 2)
        configs, states = self.burn_states(monkeypatch, graph, graph.vertices[0])
        assert len(configs) == 270
        assert len(states) == len(set(states)) == self.WALK_BURNS

    @pytest.mark.parametrize("name,graph", CHAIN_GRAPHS)
    def test_no_state_is_burnt_twice(self, monkeypatch, name, graph):
        for q in graph.vertices:
            _, states = self.burn_states(monkeypatch, graph, q)
            assert len(states) == len(set(states))

    @pytest.mark.parametrize("name,graph", CHAIN_GRAPHS)
    def test_matches_subset_oracle_with_a_tiny_memo(self, monkeypatch, name, graph):
        # the memo is cleared after every second entry
        monkeypatch.setattr(divgraph.divisors, "_MEMO_CAP", 2)
        self.test_matches_subset_oracle_at_every_base(name, graph)

    def test_tiny_memo_burns_again_and_yields_the_same(self, monkeypatch):
        graph, _ = refine(random_multigraph(4, 6, 101), 2)
        q = graph.vertices[0]
        expected = list(superstable_configs(graph, q))
        monkeypatch.setattr(divgraph.divisors, "_MEMO_CAP", 2)
        configs, states = self.burn_states(monkeypatch, graph, q)
        assert configs == expected
        assert len(states) > len(set(states)) == self.WALK_BURNS

    @pytest.mark.parametrize("name,graph", CHAIN_GRAPHS)
    def test_threshold_with_a_tiny_memo(self, monkeypatch, name, graph):
        # the walk with a threshold yields the classes with D(q) >= r that
        # the anchor screen passes, at their positions in the full walk, and
        # counts the others; the burn, count and screen memos are cleared
        # after every second entry
        monkeypatch.setattr(divgraph.divisors, "_MEMO_CAP", 2)
        for q in graph.vertices:
            for r in range(4):
                kept = screened_walk(graph, q, 2, r)
                assert list(enumerate_classes(graph, q, 2, r)) == kept
                for limit in range(kept[-1][0] + 1):
                    assert list(enumerate_classes(graph, q, 2, r, limit)) == cut_walk(kept, limit)

    def test_limit_needs_a_threshold(self):
        # without r the walk once yielded all 3 classes under limit=1
        with pytest.raises(InvalidInputError, match="limit"):
            list(enumerate_classes(cycle(3), "v0", 1, limit=1))

    @pytest.mark.parametrize("limit", [-1, 1.5, True, "2"])
    def test_limit_must_be_a_count(self, limit):
        with pytest.raises(InvalidInputError, match="limit"):
            list(enumerate_classes(cycle(3), "v0", 1, 1, limit))

    # a float d once gave float coefficients in the q slot, and a float or
    # negative r still ran the threshold walk
    @pytest.mark.parametrize(
        "d,r,what",
        [(1.5, None, "d"), (True, None, "d"), ("2", 1, "d"),
         (2, 1.5, "r"), (2, -1, "r"), (2, True, "r")],
    )
    def test_degree_and_threshold_must_be_integers(self, d, r, what):
        with pytest.raises(InvalidInputError, match=f"^{what} must be an integer"):
            list(enumerate_classes(cycle(3), "v0", d, r))

    def test_long_cycle_has_no_recursion_limit(self):
        first = list(itertools.islice(superstable_configs(cycle(1100), "v0"), 3))
        zero = (0,) * 1100
        assert first == [zero, zero[:1099] + (1,), zero[:1098] + (1, 0)]


# a double edge a-b, and two chains closing on b: x1-x2 and y1-y2-y3
TWO_LOOPS = build_graph(
    ["a", "b", "x1", "x2", "y1", "y2", "y3"],
    [("a", "b", 2), ("b", "x1"), ("x1", "x2"), ("x2", "b"),
     ("b", "y1"), ("y1", "y2"), ("y2", "y3"), ("y3", "b")],
)


class TestRankDeterminingSet:
    """rank_at_least runs its r = 1 trials over A: the anchors at q and the
    lowest-index vertex of each chain closing on one anchor."""

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_cycle_gives_q_and_one_inner_vertex(self, n):
        assert cycle(n).chain_decomposition(0).rank_set == (0, 1)

    def test_hanging_cycle(self):
        graph = dict(TestEnumerateClasses.CHAIN_GRAPHS)["hanging cycle"]
        # b and c have degree 2 too: a is the only anchor, and both the
        # triangle's b-c and the hanging x-y close on it
        assert graph.chain_decomposition(0).anchors == (0,)
        assert graph.chain_decomposition(0).rank_set == (0, 1, 3)

    def test_chains_between_two_anchors_add_nothing(self):
        graph, _ = refine(theta(2, 2, 2), 1)
        assert graph.chain_decomposition(0).rank_set == graph.chain_decomposition(0).anchors
        assert graph.chain_decomposition(0).rank_set == (0, 1, 2)

    def test_two_closed_chains_on_one_anchor(self):
        assert TWO_LOOPS.chain_decomposition(0).anchors == (0, 1)
        assert TWO_LOOPS.chain_decomposition(0).rank_set == (0, 1, 2, 4)

    def test_shuffled_with_a_degree_2_q(self):
        graph = shuffled(TWO_LOOPS, 1)
        assert graph.vertices == ("x2", "y3", "y2", "x1", "a", "y1", "b")
        assert graph.degrees[0] == 2
        # q = x2 and b are the anchors; x1 is a chain from q to b; y3 is the
        # lowest vertex of the loop at b, and a is held at b by a double edge
        assert graph.chain_decomposition(0).rank_set == (0, 1, 4, 6)

    def test_cached_per_root(self):
        graph = shuffled(TWO_LOOPS, 1)
        assert graph.chain_decomposition(0).rank_set is graph.chain_decomposition(0).rank_set
        # at b, the only anchor there, all three chains close: x2-x1,
        # y3-y2-y1 and a
        assert graph.chain_decomposition(6).anchors == (6,)
        assert graph.chain_decomposition(6).rank_set == (0, 1, 4, 6)


class TestAnchorScreen:
    """The walk with a threshold r and _scan_rank reject a class with
    D(q) >= r that is also v-reduced at an anchor v with D(v) < r.  The
    screen answers only False, so every verdict must stay that of the
    definition.  The r = 1 trials run over A alone, which these cases check
    too."""

    GRAPHS = [
        (f"{name}^({k})", refine(graph, k)[0])
        for name, graph in CORPUS
        if genus(graph) >= 2
        for k in (0, 1, 2)
    ]
    # a shuffled order can put a degree-2 vertex first, as q
    GRAPHS += [(f"{name} shuffled", shuffled(graph, 3)) for name, graph in GRAPHS]
    # among them a hanging cycle (a closed chain) and a double edge
    GRAPHS += [
        (name, graph) for name, graph in TestEnumerateClasses.CHAIN_GRAPHS if genus(graph) >= 2
    ]
    # two closed chains on an anchor other than q
    GRAPHS += [("two loops", TWO_LOOPS), ("two loops shuffled", shuffled(TWO_LOOPS, 1))]
    SAMPLE = 25

    @staticmethod
    def rank_set_oracle(graph, root):
        """A from the adjacency alone: the anchors at root, plus the
        lowest-index vertex of each connected run of degree-2 vertices
        other than root whose two outer edges end on the same anchor."""
        degree = [sum(m for _, m in nbrs) for nbrs in graph.adjacency]
        anchors = {v for v, deg in enumerate(degree) if v == root or deg != 2}
        chosen, seen = set(anchors), set()
        for v in range(len(degree)):
            if v in anchors or v in seen:
                continue
            run, stack, ends = {v}, [v], []
            while stack:
                for w, m in graph.adjacency[stack.pop()]:
                    if w in anchors:
                        ends += [w] * m
                    elif w not in run:
                        run.add(w)
                        stack.append(w)
            seen |= run
            assert len(ends) == 2
            if ends[0] == ends[1]:
                chosen.add(min(run))
        return tuple(sorted(chosen))

    @pytest.mark.parametrize("name,graph", GRAPHS + TestEnumerateClasses.CHAIN_GRAPHS)
    def test_rank_set_matches_adjacency_oracle(self, name, graph):
        for root in range(len(graph.vertices)):
            assert graph.chain_decomposition(root).rank_set == self.rank_set_oracle(graph, root)

    @pytest.mark.parametrize("name,graph", GRAPHS)
    def test_matches_definition(self, name, graph):
        # every q-reduced class of degree 1..2g-2 with D(q) >= 1, or a
        # seeded sample of them; above 2g - 2 no check reaches the screen
        q = graph.vertices[0]
        classes = [
            coeffs
            for d in range(1, 2 * genus(graph) - 1)
            for coeffs in enumerate_classes(graph, q, d)
            if coeffs[0] >= 1
        ]
        if len(classes) > self.SAMPLE:
            classes = random.Random(43).sample(classes, self.SAMPLE)
        walks = {}
        for coeffs in classes:
            divisor = Divisor(graph, coeffs)
            expected = definitional_rank(graph, divisor, top=3)
            for r in range(1, min(3, coeffs[0]) + 1):
                assert rank_at_least(graph, divisor, r) == (expected >= r), (coeffs, r)
                key = divisor.degree, r
                if key not in walks:
                    walks[key] = {c for _, c in enumerate_classes(graph, q, *key)}
                # a class the walk leaves out has rank below r
                assert coeffs in walks[key] or expected < r, (coeffs, r)

    # the level scan of random(5,8,1)^(2) at d = 3, r = 1: 1,261 classes, of
    # which 133 have D(q) >= 1; rank-checking each of them with no screen
    # runs 183 q-reductions.  The walk screens once per anchor state, and
    # only the classes the screen passes reach rank_at_least, which reduces
    # each once and runs its trials over A.
    SCAN_REDUCTIONS_UNSCREENED = 183
    SCAN_REDUCTIONS = 14
    SCAN_CHECKS_UNSCREENED = 133
    SCAN_CHECKS = 3

    @staticmethod
    def g2():
        return refine(random_multigraph(5, 8, 1), 2)[0]

    def test_scan_reductions(self, monkeypatch):
        calls = {"reduce": 0, "check": 0}

        def counting(module, name, key):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                calls[key] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        counting(divgraph.divisors, "_reduce_coeffs", "reduce")
        counting(divgraph.brill_noether, "rank_at_least", "check")
        witness, examined, _ = _search_one_level(self.g2(), 3, 1, None)
        assert examined == 1261 and witness.to_map() == {"v0": 2, "v1": 1}
        assert calls["reduce"] == self.SCAN_REDUCTIONS < self.SCAN_REDUCTIONS_UNSCREENED
        assert calls["check"] == self.SCAN_CHECKS < self.SCAN_CHECKS_UNSCREENED

    def test_scan_walks_only_the_classes_it_can_check(self, monkeypatch):
        # the walk yields the 3 classes the screen passes up to the witness,
        # out of the 133 with D(q) >= 1, and counts the other 1,128 without
        # visiting them
        yielded = []
        walk = divgraph.brill_noether.enumerate_classes

        def recorder(*args):
            for item in walk(*args):
                yielded.append(item)
                yield item

        monkeypatch.setattr(divgraph.brill_noether, "enumerate_classes", recorder)
        witness, examined, _ = _search_one_level(self.g2(), 3, 1, None)
        assert examined == 1261 and witness.to_map() == {"v0": 2, "v1": 1}
        assert len(yielded) == self.SCAN_CHECKS
        assert yielded[-1][0] == examined - 1
        assert all(coeffs[0] >= 1 for _, coeffs in yielded)

    # distinct anchor states among those 133 classes
    SCAN_STATES = 49

    def test_scan_screens_each_anchor_state_once(self, monkeypatch):
        graph = self.g2()
        bits, _, _, anchors, _ = graph.chain_decomposition(0)
        states = []
        screen = divgraph.divisors._anchor_screen

        def recorder(graph, qi, coeffs, r):
            states.append((
                tuple(coeffs[v] for v in anchors),
                frozenset(bits[v] for v, a in enumerate(coeffs) if a and bits[v]),
            ))
            return screen(graph, qi, coeffs, r)

        monkeypatch.setattr(divgraph.divisors, "_anchor_screen", recorder)
        _search_one_level(graph, 3, 1, None)
        assert len(states) == len(set(states)) == self.SCAN_STATES < self.SCAN_CHECKS_UNSCREENED

    def test_rejected_class_runs_no_reduction(self, monkeypatch):
        graph = self.g2()
        q = graph.vertices[0]
        events = []
        burn, reduce_coeffs = divgraph.divisors._anchors_burn, divgraph.divisors._reduce_coeffs

        def burn_recorder(*args):
            events.append(burn(*args))
            return events[-1]

        def reduce_recorder(*args, **kwargs):
            events.append("reduce")
            return reduce_coeffs(*args, **kwargs)

        classes = [c for c in enumerate_classes(graph, q, 3) if c[0] >= 1]
        kept = {c for _, c in enumerate_classes(graph, q, 3, 1)}
        monkeypatch.setattr(divgraph.divisors, "_anchors_burn", burn_recorder)
        monkeypatch.setattr(divgraph.divisors, "_reduce_coeffs", reduce_recorder)
        rejected = 0
        for coeffs in classes:
            del events[:]
            scanned = _scan_rank(graph, Divisor(graph, coeffs))
            if True in events:
                # the screen's burn reached every anchor: the scan ends there
                assert events[-1] is True and events.count(True) == 1
            if True in events and scanned == 0:
                # rejected at r = 1, after the one reduction of the divisor,
                # and left out by the walk
                assert events.count("reduce") == 1 and coeffs not in kept
                rejected += 1
            else:
                assert coeffs in kept
        assert (len(classes), rejected) == (150, 143)

    def test_no_anchor_burn_once_q_cannot_burn(self, monkeypatch):
        # D(q) >= deg(q): no burn from another anchor can burn q
        graph = self.g2()
        q, deg_q = graph.vertices[0], graph.degrees[0]

        def no_burn(*args):
            raise AssertionError("the screen ran an anchor burn")

        classes = [
            Divisor(graph, coeffs)
            for d in range(deg_q, 2 * genus(graph) - 1)
            for coeffs in itertools.islice(enumerate_classes(graph, q, d), 30)
            if coeffs[0] >= deg_q
        ]
        expected = [_scan_rank(graph, divisor) for divisor in classes]
        monkeypatch.setattr(divgraph.divisors, "_anchors_burn", no_burn)
        assert [_scan_rank(graph, divisor) for divisor in classes] == expected
        assert len(classes) == 9


class TestTrialOrder:
    """rank_at_least runs its r = 1 trials over A farthest from q first,
    ties in index order.  Every trial must pass, so the order moves only
    the work, never the verdict."""

    GRAPHS = [
        # v2 is held at v0 by a double edge: refined, a chain closing on q
        ("random(5,8,7)^(1)", refine(random_multigraph(5, 8, 7), 1)[0]),
        # q = x2 has degree 2, and two chains close on b
        ("two loops^(1) shuffled", shuffled(refine(TWO_LOOPS, 1)[0], 1)),
        ("random(5,8,7)^(1) shuffled", shuffled(refine(random_multigraph(5, 8, 7), 1)[0], 3)),
    ]

    @pytest.mark.parametrize("name,graph", GRAPHS)
    def test_every_class_matches_definition(self, name, graph):
        q = graph.vertices[0]
        checks = 0
        for d in range(1, 2 * genus(graph) - 1):
            for coeffs in enumerate_classes(graph, q, d):
                if coeffs[0] < 1:
                    continue
                divisor = Divisor(graph, coeffs)
                expected = definitional_rank(graph, divisor, top=1) >= 1
                assert rank_at_least(graph, divisor, 1) == expected, coeffs
                checks += 1
        assert checks > 250

    @pytest.mark.parametrize("name,graph", GRAPHS)
    def test_trials_run_farthest_first(self, monkeypatch, name, graph):
        # a class of rank >= 1 passes every trial, so all of A is tried but
        # q, whose trial the test of D(q) >= 1 has passed
        q = graph.vertices[0]
        tried = []
        effective = divgraph.divisors._effective_rep_raw

        def recorder(graph, coeffs):
            tried.append(next(v for v, (a, b) in enumerate(zip(coeffs, base)) if a != b))
            return effective(graph, coeffs)

        base = next(
            coeffs
            for coeffs in enumerate_classes(graph, q, genus(graph) - 1)
            if coeffs[0] >= 1 and definitional_rank(graph, Divisor(graph, coeffs), top=1) >= 1
        )
        monkeypatch.setattr(divgraph.divisors, "_effective_rep_raw", recorder)
        assert rank_at_least(graph, Divisor(graph, base), 1)
        dist = graph.bfs_distances(0)
        assert sorted(tried) == list(graph.chain_decomposition(0).rank_set)[1:]
        assert [(-dist[v], v) for v in tried] == sorted((-dist[v], v) for v in tried)
        assert tried != sorted(tried)

    def test_scan_reductions(self, monkeypatch):
        # random(6,9,1)^(2) at d = 3, r = 1: each check reduces its class
        # once, and the failing checks that pass the screen mostly fail on
        # their first, farthest trial (the same trials in index order would
        # run 26 q-reductions besides those)
        reductions = []
        reduce_coeffs = divgraph.divisors._reduce_coeffs

        def counted(*args, **kwargs):
            reductions.append(args)
            return reduce_coeffs(*args, **kwargs)

        monkeypatch.setattr(divgraph.divisors, "_reduce_coeffs", counted)
        graph = refine(random_multigraph(6, 9, 1), 2)[0]
        witness, examined, _ = _search_one_level(graph, 3, 1, None)
        assert examined == 1567 and witness.to_map() == {"v0": 2, "v1": 1}
        assert len(reductions) == 18


class TestRiemannRoch:
    def test_zero_divisor_forces_canonical_rank(self, theta222):
        assert riemann_roch_residual(theta222, Divisor.zero(theta222)) == 0
        assert rank(theta222, canonical(theta222)) == genus(theta222) - 1

    def test_canonical_symmetric(self, theta222):
        assert riemann_roch_residual(theta222, canonical(theta222)) == 0

    def test_residual_scans_both_sides(self, theta222, monkeypatch):
        # the residual is an oracle only while both ranks come from the scan:
        # through rank, which applies Riemann-Roch, it would be zero whatever
        # rank_at_least answered
        monkeypatch.setattr(divgraph.divisors, "_rank_core", lambda graph, base, r: True)
        assert riemann_roch_residual(theta222, Divisor.zero(theta222)) != 0

    @pytest.mark.parametrize("name,graph", CORPUS[:10])
    def test_random_small_divisors(self, name, graph):
        rng = random.Random(29)
        for _ in range(6):
            coeffs = tuple(rng.randint(-2, 2) for _ in graph.vertices)
            d = Divisor(graph, coeffs)
            if abs(d.degree) > 4:
                continue
            assert riemann_roch_residual(graph, d) == 0


class TestRefinementInvariance:
    @pytest.mark.parametrize("name,graph", CORPUS[:8])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rank_preserved(self, name, graph, n):
        rng = random.Random(31)
        target, iota = refine(graph, n)
        divisors = [Divisor.zero(graph), Divisor(graph, (1,) * len(graph.vertices))]
        for _ in range(2):
            divisors.append(Divisor(graph, tuple(rng.randint(-1, 2) for _ in graph.vertices)))
        for d in divisors:
            if abs(d.degree) > 4:
                continue
            assert rank(target, transport(iota, d)) == rank(graph, d)
