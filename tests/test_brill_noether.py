"""Brill-Noether numbers, bounds and the bounded existence search."""

import hashlib
import itertools
from fractions import Fraction
from math import factorial

import pytest

import divgraph.brill_noether
import divgraph.divisors
from divgraph import (
    RR_SHORTCUT,
    Divisor,
    InvalidInputError,
    NegativeRhoError,
    PreconditionViolatedError,
    SearchLimits,
    SearchResult,
    bn_bound,
    bound_chain_check,
    bound_report,
    build_graph,
    enumerate_classes,
    find_gdr,
    genus,
    gonality_search,
    is_equivalent,
    legacy_bound,
    rank,
    rank_at_least,
    refine,
    rho,
    superstable_configs,
)
from divgraph.brill_noether import _search_one_level, legacy_bound_min_digits
from divgraph.families import banana, chain_of_loops, cycle, random_multigraph, theta

from conftest import (  # noqa: F401  (path3 is a fixture)
    CORPUS,
    assert_treewidth_floor,
    cut_walk,
    path3,
    screened_walk,
    shuffled,
)


class TestRho:
    def test_known_zero(self):
        assert rho(4, 3, 1) == 2 * 2 - 1 * 4 == 0

    def test_known_negative(self):
        assert rho(9, 5, 1) == 2 * (5 - 1) - 9 * 1 == -1

    @pytest.mark.parametrize("g,d", [(0, 0), (3, 2), (7, 11)])
    def test_r_zero_collapses_to_d(self, g, d):
        assert rho(g, d, 0) == d

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            rho(-1, 0, 0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: rho(-1, 0, 0),
        lambda: legacy_bound(0, 1, 1, 1),
        lambda: gonality_search(cycle(4), 0, 3),
        lambda: rank_at_least(cycle(4), Divisor.zero(cycle(4)), -1),
    ],
    ids=["rho", "legacy_bound", "gonality_search", "rank_at_least"],
)
def test_argument_out_of_range_is_typed_and_a_value_error(call):
    with pytest.raises(InvalidInputError) as info:
        call()
    assert isinstance(info.value, ValueError)


def bn_bound_fraction_oracle(g, d, r):
    """Independent big-rational evaluation of the factorial product."""
    value = Fraction(factorial(g))
    for i in range(r + 1):
        value *= Fraction(factorial(i), factorial(g - d + r + i))
    return value


class TestBnBound:
    def test_two_points_case(self):
        # 4! * (0!/2!) * (1!/3!) = 2
        assert bn_bound(4, 3, 1) == 2

    @pytest.mark.parametrize("g", range(0, 8))
    def test_degree_zero_rank_zero(self, g):
        assert bn_bound(g, 0, 0) == 1

    def test_small_case_cross_checked(self):
        oracle = bn_bound_fraction_oracle(2, 2, 1)
        assert oracle == Fraction(1)
        assert bn_bound(2, 2, 1) == 1

    def test_shortcut_marker_when_formula_undefined(self):
        assert bn_bound(1, 3, 1) is RR_SHORTCUT
        assert bn_bound(0, 2, 1) is RR_SHORTCUT

    def test_boundary_uses_formula(self):
        # g - d + r = 0: the product telescopes to 1 and the bound is g!
        assert bn_bound(2, 3, 1) == 2
        assert bn_bound(3, 4, 1) == 6

    def test_negative_rho_rejected(self):
        with pytest.raises(NegativeRhoError):
            bn_bound(9, 5, 1)

    def test_integrality_grid(self):
        # the formula is an intersection number, hence integral wherever
        # rho >= 0 and g-d+r >= 0; NonIntegralBound must never fire here
        checked = 0
        for g in range(13):
            for d in range(13):
                for r in range(5):
                    if rho(g, d, r) < 0 or g - d + r < 0:
                        continue
                    value = bn_bound(g, d, r)
                    assert isinstance(value, int) and value > 0
                    assert value == bn_bound_fraction_oracle(g, d, r)
                    checked += 1
        assert checked > 100

    def test_matches_fraction_oracle_to_genus_15(self):
        cases = [
            (g, d, r)
            for g in range(16)
            for r in range(8)
            for d in range(g + r + 1)  # g - d + r >= 0
            if rho(g, d, r) >= 0
        ]
        assert len(cases) == 414
        for g, d, r in cases:
            assert bn_bound(g, d, r) == bn_bound_fraction_oracle(g, d, r), (g, d, r)

    def test_takes_one_factorial_whatever_r(self, monkeypatch):
        # the product of 2(r + 1) factorials took seconds at r = 4000
        taken = []

        def counting(n):
            taken.append(n)
            return factorial(n)

        monkeypatch.setattr(divgraph.brill_noether, "factorial", counting)
        assert bn_bound(0, 20000, 20000) == 1
        assert bn_bound(6, 8, 3) == 30
        assert taken == [0, 6]


class TestLegacyBound:
    def test_genus_minimal_shape(self):
        g, d, r = 4, 3, 1
        e = (g + 1) + 2**r * d
        assert legacy_bound(2, g + 1, d, r) == factorial(e) * d**e

    def test_substitution_value(self):
        assert legacy_bound(2, 5, 3, 1) == factorial(11) * 3**11

    @pytest.mark.parametrize("n,m,r", [(2, 3, 1), (4, 7, 2)])
    def test_d_one_collapses_to_factorial(self, n, m, r):
        assert legacy_bound(n, m, 1, r) == factorial(m + n**r)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            legacy_bound(0, 1, 1, 1)
        with pytest.raises(ValueError):
            legacy_bound_min_digits(0, 1, 1, 1)

    def test_min_digits_is_a_lower_bound(self):
        # exponents e = m + n^r d from 1 to 249, d on both sides of a power of 2
        for n, m, d, r in itertools.product(range(1, 4), range(7), (1, 2, 3, 7, 8, 9), range(4)):
            digits = len(str(legacy_bound(n, m, d, r)))
            assert digits * 3 // 4 <= legacy_bound_min_digits(n, m, d, r) <= digits


class TestBoundChain:
    def test_two_point_case(self):
        assert bn_bound(4, 3, 1) == 2 < factorial(4)
        assert bound_chain_check(4, 3, 1)

    def test_rho_zero_case(self):
        assert rho(6, 4, 1) == 0
        assert bound_chain_check(6, 4, 1)

    def test_boundary_equality_case(self):
        # g-d+r = 0, r = 1 makes bn_bound = g!(r!)^r exactly
        assert bn_bound(2, 3, 1) == factorial(2) * factorial(1) ** 1
        assert bound_chain_check(2, 3, 1)

    def test_precondition_violations(self):
        for bad in [(4, 3, 0), (4, 2, 2), (1, 5, 1)]:
            with pytest.raises(PreconditionViolatedError):
                bound_chain_check(*bad)

    def test_full_grid(self):
        checked = 0
        for g in range(11):
            for d in range(11):
                for r in range(1, 4):
                    if d <= r or rho(g, d, r) < 0 or g - d + r < 0:
                        continue
                    assert bound_chain_check(g, d, r), (g, d, r)
                    bound = bn_bound(g, d, r)
                    assert bound < legacy_bound(2, g + 1, d, r)
                    checked += 1
        assert checked == 70


class TestBoundReport:
    def test_fields(self):
        report = bound_report(4, 3, 1)
        assert report.rho == 0
        assert report.theorem_bound == 2
        assert report.k_range == (0, 1)

    def test_shortcut_k_range(self):
        report = bound_report(0, 2, 1)
        assert report.theorem_bound is RR_SHORTCUT
        assert report.k_range == (0, 0)

    def test_negative_rho(self):
        with pytest.raises(NegativeRhoError):
            bound_report(9, 5, 1)


def verify_witness(graph, result, graph_degree, r):
    """A found witness on ``graph``'s refinement G^(k): its degree, its
    rank through both rank paths, and the treewidth floor."""
    assert result.found
    witness = result.witness
    assert witness.degree == graph_degree
    assert rank_at_least(witness.graph, witness, r)
    assert rank(witness.graph, witness) >= r
    assert_treewidth_floor(graph, result.k, graph_degree, r)


class TestFindGdr:
    def test_doubled_triangle_g13(self, theta222):
        result = find_gdr(theta222, 3, 1)
        assert result.found and result.k == 0
        # level 0 is the input graph, scanned with the caches it holds
        assert result.witness.graph is theta222
        verify_witness(theta222, result, 3, 1)
        assert is_equivalent(theta222, result.witness, Divisor(theta222, (1, 1, 1)))

    @pytest.mark.parametrize("g", [1, 2])
    def test_banana_degree_two_pencil(self, g):
        # rho(g, 2, 1) = 2 - g, so the search precondition holds only up
        # to g = 2; rank((1,1)) = 1 itself holds on every banana (see the
        # rank tests)
        graph = banana(g)
        result = find_gdr(graph, 2, 1)
        assert result.found and result.k == 0
        verify_witness(graph, result, 2, 1)
        if g == 2:
            # the only rank-1 class in degree 2; for g = 1 the shortcut
            # path may return any class
            assert is_equivalent(graph, result.witness, Divisor(graph, (1, 1)))

    @pytest.mark.parametrize("name_graph", [("cycle(5)", cycle(5)), ("chain(2)", chain_of_loops(2))])
    @pytest.mark.parametrize("d", [0, 1, 3])
    def test_rank_zero_terminates_at_k0(self, name_graph, d):
        _, graph = name_graph
        result = find_gdr(graph, d, 0)
        assert result.found and result.k == 0
        verify_witness(graph, result, d, 0)

    def test_riemann_roch_shortcut_path(self):
        graph = cycle(4)  # g = 1; d - g >= r for d = 3, r = 1
        result = find_gdr(graph, 3, 1)
        assert result.found and result.k == 0 and result.classes_examined == 1
        verify_witness(graph, result, 3, 1)
        # 3*(v0) is already v0-reduced, so it is the witness as it is
        assert result.witness.to_map() == {"v0": 3}

    def test_negative_rho_refused(self):
        # rho(9, 5, 1) = -1
        with pytest.raises(NegativeRhoError):
            find_gdr(banana(9), 5, 1)

    def test_class_budget_truncates_gracefully(self):
        result = find_gdr(banana(2), 2, 1, SearchLimits(max_classes=1))
        assert not result.found
        assert not result.exhausted
        assert result.limit_hit == "max-classes"
        assert result.classes_examined == 1

    def test_max_k_override(self, theta222):
        result = find_gdr(theta222, 3, 1, SearchLimits(max_k=0))
        assert result.found and result.k == 0
        verify_witness(theta222, result, 3, 1)

    @pytest.mark.parametrize(
        "limits,examined,exhausted,limit_hit",
        [
            (SearchLimits(), 204, True, None),
            # level 0 holds 12 classes, level 1 holds 192
            (SearchLimits(max_classes=11), 11, False, "max-classes"),
            (SearchLimits(max_classes=12), 12, False, "max-classes"),
            (SearchLimits(max_classes=13), 13, False, "max-classes"),
            (SearchLimits(max_k=0), 12, False, "max-k"),
        ],
    )
    def test_exits_without_a_witness(
        self, monkeypatch, theta222, limits, examined, exhausted, limit_hit
    ):
        # with every rank check failing, the search walks levels 0 and 1
        # (bn_bound = 2) unless a limit stops it first
        monkeypatch.setattr(
            divgraph.brill_noether, "rank_at_least", lambda graph, divisor, r: False
        )
        result = find_gdr(theta222, 3, 1, limits)
        assert result == SearchResult(
            found=False,
            k=None,
            witness=None,
            classes_examined=examined,
            exhausted=exhausted,
            limit_hit=limit_hit,
        )

    @pytest.mark.parametrize(
        "limits", [{"max_k": -1}, {"max_classes": -1}, {"max_k": True}, {"max_classes": "5"}]
    )
    def test_limits_must_be_non_negative_integers(self, limits):
        with pytest.raises(InvalidInputError):
            SearchLimits(**limits)


class TestRankCheckSkip:
    """The scans rank-check only classes with D(q) >= r.  Witnesses and
    class counts are pinned from a scan that rank-checked every class."""

    SEARCHES = [
        ("theta(2,2,2)^(1)", theta(2, 2, 2), 3, 1, 145, {"v0": 1, "v1": 1, "v2": 1}),
        ("random(4,6,101)^(1)", random_multigraph(4, 6, 101), 4, 2, 77, {"v0": 2, "v1": 2}),
    ]
    GONALITY = [
        ("theta(2,2,2)^(1)", theta(2, 2, 2), 2, 5, 577, {"v0": 5}),
        ("random(4,6,101)^(1)", random_multigraph(4, 6, 101), 2, 4, 237, {"v0": 2, "v1": 2}),
    ]

    @staticmethod
    def record_rank_checks(monkeypatch) -> list:
        checked = []
        original = divgraph.brill_noether.rank_at_least

        def recorder(graph, divisor, r):
            checked.append(divisor.coeffs)
            return original(graph, divisor, r)

        monkeypatch.setattr(divgraph.brill_noether, "rank_at_least", recorder)
        return checked

    @pytest.mark.parametrize("name,base,d,r,examined,witness", SEARCHES)
    def test_search_skips_classes_below_r_at_q(
        self, monkeypatch, name, base, d, r, examined, witness
    ):
        graph, _ = refine(base, 1)
        checked = self.record_rank_checks(monkeypatch)
        result = find_gdr(graph, d, r)
        assert result.found and result.k == 0
        assert result.classes_examined == examined >= 50
        assert result.witness.to_map() == witness
        assert checked and checked[-1] == result.witness.coeffs
        assert all(coeffs[0] >= r for coeffs in checked)
        assert len(checked) < examined

    @pytest.mark.parametrize("name,base,r,d,examined,witness", GONALITY)
    def test_gonality_skips_classes_below_r_at_q(
        self, monkeypatch, name, base, r, d, examined, witness
    ):
        graph, _ = refine(base, 1)
        checked = self.record_rank_checks(monkeypatch)
        result = gonality_search(graph, r, 5)
        assert (result.found, result.d, result.classes_examined) == (True, d, examined)
        assert result.witness.to_map() == witness
        assert all(coeffs[0] >= r for coeffs in checked)
        assert len(checked) < examined


class TestLevelScanWork:
    """The level scan builds a Divisor only for the classes it rank-checks.
    Witnesses and class counts are pinned from the scan that built one for
    every class."""

    SEARCHES = [
        ("random(4,6,101)^(2)", random_multigraph(4, 6, 101), 2, 3, 1, 5,
         {"v0": 1, "v1:v3:1:2": 1, "v0:v3:0:2": 1}),
        ("random(5,8,1)^(1)", random_multigraph(5, 8, 1), 1, 3, 1, 213, {"v0": 2, "v1": 1}),
    ]

    @pytest.mark.parametrize("name,base,k,d,r,examined,witness", SEARCHES)
    def test_one_divisor_per_rank_check(self, monkeypatch, name, base, k, d, r, examined, witness):
        graph, _ = refine(base, k)
        built = checks = 0
        post_init = divgraph.divisors.Divisor.__post_init__
        rank_check = divgraph.brill_noether.rank_at_least

        def count_build(divisor):
            nonlocal built
            built += 1
            post_init(divisor)

        def count_check(graph, divisor, r):
            nonlocal checks
            checks += 1
            return rank_check(graph, divisor, r)

        monkeypatch.setattr(divgraph.divisors.Divisor, "__post_init__", count_build)
        monkeypatch.setattr(divgraph.brill_noether, "rank_at_least", count_check)
        result = find_gdr(graph, d, r)
        assert (result.found, result.k, result.classes_examined) == (True, 0, examined)
        assert result.witness.to_map() == witness
        assert built == checks


def refined(base, k, reverse):
    """G^(k), with its vertex order reversed on request: the base vertex
    q = vertices[0] is then a degree-2 subdivision vertex."""
    graph, _ = refine(base, k)
    if reverse:
        graph = build_graph(graph.vertices[::-1], graph.edges)
    return graph


class TestRefinedPins:
    """Witnesses and class counts on refinements, pinned from the
    enumeration that ran Dhar's burn over every vertex."""

    SEARCHES = [
        (theta(1, 2, 3), 2, False, 3, 1, 429, {"v0": 1, "v2": 1, "v1:v2:1:2": 1}),
        (banana(4), 2, False, 5, 2, 343, {"v0": 3, "v1": 2}),
        (banana(4), 2, True, 5, 2, 2, {"v0:v1:4:2": 4, "v0": 1}),
        (random_multigraph(4, 6, 202), 1, True, 4, 2, 7, {"v3:v0:0:1": 2, "v1": 2}),
    ]
    GONALITY = [
        (theta(1, 2, 3), 2, False, 3, 2211, {"v0": 1, "v2": 1, "v1:v2:1:2": 1}),
        (theta(1, 2, 3), 2, True, 3, 1783, {"v0:v2:2:2": 3}),
        (random_multigraph(4, 6, 202), 2, True, 3, 439, {"v3:v0:0:2": 1, "v1": 2}),
        (banana(4), 2, True, 2, 703, {"v0:v1:4:2": 1, "v0:v1:4:1": 1}),
    ]

    @pytest.mark.parametrize("base,k,reverse,d,r,examined,witness", SEARCHES)
    def test_find_gdr(self, base, k, reverse, d, r, examined, witness):
        result = find_gdr(refined(base, k, reverse), d, r)
        assert (result.found, result.k, result.classes_examined) == (True, 0, examined)
        assert result.witness.to_map() == witness
        assert_treewidth_floor(base, k, d, r)

    @pytest.mark.parametrize("base,k,reverse,d,examined,witness", GONALITY)
    def test_gonality_search(self, base, k, reverse, d, examined, witness):
        result = gonality_search(refined(base, k, reverse), 1, 4)
        assert (result.found, result.d, result.classes_examined) == (True, d, examined)
        assert result.witness.to_map() == witness
        assert_treewidth_floor(base, k, d, 1)


def reference_scan(graph, d, r, budget):
    """The level scan that walks every class and rank-checks each class
    with D(q) >= r, the scan the pruned walk replaces."""
    q = graph.vertices[0]
    examined = 0
    for coeffs in enumerate_classes(graph, q, d):
        if budget is not None and examined >= budget:
            return None, examined, True
        examined += 1
        if coeffs[0] >= r and rank_at_least(graph, Divisor(graph, coeffs), r):
            return Divisor(graph, coeffs), examined, False
    return None, examined, False


class TestPrunedLevelScan:
    """The level scan walks only the classes with D(q) >= r, rank-checks
    those the anchor screen passes and counts the others; witnesses, class
    counts and budget exits are those of the scan over every class."""

    GRAPHS = [
        (f"random(4,6,{s})^({k})", refine(random_multigraph(4, 6, s), k)[0])
        for s in (1, 2)
        for k in (0, 1, 2)
    ]
    # v2 is held at v0 by a double edge: a closed chain
    GRAPHS += [("random(5,8,7)", random_multigraph(5, 8, 7))]
    GRAPHS += [(f"{name} shuffled", shuffled(graph, 5)) for name, graph in GRAPHS]

    @pytest.mark.parametrize("name,graph", GRAPHS)
    def test_matches_reference_scan(self, name, graph):
        q = graph.vertices[0]
        for d in range(2 * genus(graph)):
            full = list(enumerate_classes(graph, q, d))
            for r in range(4):
                # the walk with a threshold: the classes it keeps at their
                # positions in the full walk, then the class count; limits
                # below, at and above each kept position
                kept = screened_walk(graph, q, d, r)
                assert list(enumerate_classes(graph, q, d, r)) == kept
                limits = {p + step for p, _ in kept[:-1] for step in (-1, 0, 1)}
                for limit in sorted(limits - {-1}):
                    assert list(enumerate_classes(graph, q, d, r, limit)) == cut_walk(
                        kept, limit
                    ), (d, r, limit)
                witness, examined, _ = reference_scan(graph, d, r, None)
                budgets = {0, examined - 1, examined, examined + 1, len(full) - 1, len(full)}
                # a budget inside a counted block: classes budget - 1 and
                # budget both have D(q) < r
                budgets.update(
                    itertools.islice(
                        (i for i in range(1, len(full)) if full[i - 1][0] < r > full[i][0]), 1
                    )
                )
                for budget in [None, *sorted(b for b in budgets if b >= 0)]:
                    assert _search_one_level(graph, d, r, budget) == reference_scan(
                        graph, d, r, budget
                    ), (d, r, budget)

    # sha256 of the walk without a threshold on random(5,8,7)^(1) and a
    # shuffle of it, from the walk that had no threshold parameter
    UNPRUNED_WALK = "03ecdc1ebc9c80f9b89f2f8cee0f5ebf9af9df8e4cc4b7fec2c75f5d1bd25058"

    def test_walk_without_threshold_is_unchanged(self):
        digest = hashlib.sha256()
        graph = refine(random_multigraph(5, 8, 7), 1)[0]
        for g in (graph, shuffled(graph, 5)):
            for q in g.vertices[:3]:
                digest.update(repr(list(superstable_configs(g, q))).encode())
                for d in (-1, 2, 7):
                    digest.update(repr(list(enumerate_classes(g, q, d))).encode())
        assert digest.hexdigest() == self.UNPRUNED_WALK

    def test_count_is_flat_and_bounded(self):
        # the zero class already has D(q) = r, so the count runs one chip
        # per anchor deep, past the recursion limit, over 2^1100 classes
        assert _search_one_level(chain_of_loops(1100), 1, 1, 1200) == (None, 1200, True)


class TestGonality:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_cycles_are_gonality_two(self, n):
        result = gonality_search(cycle(n), 1, 3)
        assert result.found and result.d == 2
        assert rank(cycle(n), result.witness) >= 1
        assert_treewidth_floor(cycle(n), 0, result.d, 1)

    def test_tree_gonality_one(self, path3):
        result = gonality_search(path3, 1, 2)
        assert result.found and result.d == 1
        assert_treewidth_floor(path3, 0, result.d, 1)

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_banana_gonality_two(self, g):
        result = gonality_search(banana(g), 1, 3)
        assert result.found and result.d == 2
        assert_treewidth_floor(banana(g), 0, result.d, 1)
        # no degree-1 divisor has rank 1: every class fails
        assert not any(
            rank_at_least(banana(g), Divisor(banana(g), coeffs), 1)
            for coeffs in enumerate_classes(banana(g), "v0", 1)
        )

    def test_not_found_within_budget(self):
        result = gonality_search(theta(2, 2, 2), 3, 2)
        assert not result.found and result.d is None

    @pytest.mark.parametrize("k", [0, 1])
    @pytest.mark.parametrize("name,graph", CORPUS)
    def test_gonality_meets_treewidth_floor(self, name, graph, k):
        level, _ = refine(graph, k)
        # the sum of all vertices has rank >= 1, so the scan ends by d = n
        result = gonality_search(level, 1, len(level.vertices))
        assert result.found and rank(level, result.witness) >= 1
        assert_treewidth_floor(graph, k, result.d, 1)
        # the least degree at which rank_at_least passes a class, with no
        # anchor screen in front of it: the same gonality
        q = level.vertices[0]
        least = next(
            d
            for d in range(len(level.vertices) + 1)
            if any(rank_at_least(level, Divisor(level, c), 1) for c in enumerate_classes(level, q, d))
        )
        assert_treewidth_floor(graph, k, least, 1)
        assert least == result.d
