import random

import pytest

from idcodes.graph import (
    Disconnected,
    Graph,
    closed_twins,
    complete_graph,
    cycle_graph,
    diameter,
    empty_graph,
    is_connected,
    open_twins,
    path_graph,
    star_graph,
)
from idcodes.exact import NoSolution, OpenTwinsPresent, TwinsPresent, _Checker
from idcodes.models import (
    IntervalModel,
    PermutationModel,
    all_cotrees,
    cotree_to_graph,
    interval_graph,
    permutation_graph,
)
from idcodes.verify import (
    ProblemKind,
    check,
    emp_flag,
    is_dominating,
    is_identifying_code,
    is_locating_dominating,
    is_open_locating_dominating,
    is_resolving_set,
    is_separating,
    is_total_dominating,
    separation_violation,
    univ_flag,
)


def random_graph(n, p, rng):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


class TestDomination:
    def test_dominating(self):
        p3 = path_graph(3)
        assert is_dominating(p3, [1])
        assert not is_dominating(p3, [0])
        assert is_dominating(empty_graph(2), [0, 1])

    def test_total_dominating(self):
        k2 = complete_graph(2)
        assert is_total_dominating(k2, [0, 1])
        assert not is_total_dominating(k2, [0])
        assert not is_total_dominating(empty_graph(2), [0, 1])


class TestIdentifyingCode:
    def test_p3(self):
        p3 = path_graph(3)
        assert is_identifying_code(p3, [0, 2])

    def test_twins_block(self):
        k2 = complete_graph(2)
        for s in ([], [0], [1], [0, 1]):
            assert not is_identifying_code(k2, s)

    def test_whole_vertex_set_iff_twin_free(self):
        rng = random.Random(20)
        for _ in range(200):
            g = random_graph(rng.randint(1, 8), rng.random(), rng)
            assert is_identifying_code(g, range(g.n)) == (closed_twins(g) == [])


class TestLocatingDominating:
    def test_p3(self):
        p3 = path_graph(3)
        assert not is_locating_dominating(p3, [1])  # ends share {1}
        assert is_locating_dominating(p3, [0, 1])

    def test_star_leaves(self):
        assert is_locating_dominating(star_graph(3), [1, 2, 3])


class TestOpenLocatingDominating:
    def test_k2(self):
        assert is_open_locating_dominating(complete_graph(2), [0, 1])

    def test_open_twins_block(self):
        p3 = path_graph(3)
        for mask in range(8):
            s = [v for v in range(3) if mask >> v & 1]
            assert not is_open_locating_dominating(p3, s)

    def test_p4_full(self):
        assert is_open_locating_dominating(path_graph(4), range(4))

    def test_whole_vertex_set_iff_open_twin_free(self):
        rng = random.Random(21)
        for _ in range(200):
            g = random_graph(rng.randint(1, 8), rng.random(), rng)
            expect = open_twins(g) == [] and all(g.adj[v] for v in range(g.n))
            assert is_open_locating_dominating(g, range(g.n)) == expect


class TestResolvingSet:
    def test_path_endpoint(self):
        assert is_resolving_set(path_graph(3), [0])

    def test_c4(self):
        assert not is_resolving_set(cycle_graph(4), [0])
        assert is_resolving_set(cycle_graph(4), [0, 1])

    def test_disconnected(self):
        with pytest.raises(Disconnected):
            is_resolving_set(empty_graph(2), [0])


class TestSeparating:
    def test_k1_empty(self):
        assert is_separating(complete_graph(1), [], ProblemKind.SEP_ID)

    def test_two_isolated(self):
        g = empty_graph(2)
        assert is_separating(g, [0], ProblemKind.SEP_ID)
        assert not is_separating(g, [], ProblemKind.SEP_LD)

    def test_violation_reported(self):
        pair = separation_violation(complete_graph(2), [0, 1], ProblemKind.IC)
        assert pair == (0, 1)

    def test_sep_plus_domination_is_the_full_property(self):
        rng = random.Random(22)
        for _ in range(300):
            g = random_graph(rng.randint(1, 8), rng.random(), rng)
            s = frozenset(v for v in range(g.n) if rng.random() < 0.5)
            sep_id = is_separating(g, s, ProblemKind.SEP_ID)
            assert is_identifying_code(g, s) == (sep_id and is_dominating(g, s))
            sep_ld = is_separating(g, s, ProblemKind.SEP_LD)
            assert is_locating_dominating(g, s) == (sep_ld and is_dominating(g, s))

    def test_sep_ld_equals_resolving_on_diameter_two(self):
        rng = random.Random(23)
        seen = 0
        while seen < 150:
            g = random_graph(rng.randint(2, 8), 0.6, rng)
            if not is_connected(g) or diameter(g) > 2:
                continue
            seen += 1
            s = frozenset(v for v in range(g.n) if rng.random() < 0.5)
            assert is_separating(g, s, ProblemKind.SEP_LD) == is_resolving_set(g, s)


class TestFlags:
    def test_emp(self):
        assert emp_flag(complete_graph(1), [], "id")
        assert not emp_flag(path_graph(3), [0, 2], "id")
        assert emp_flag(empty_graph(2), [0], "ld")

    def test_univ_flavors_differ(self):
        g = empty_graph(2)
        assert univ_flag(g, [0], "id")  # the set member covers itself
        assert not univ_flag(g, [0], "ld")  # no outside vertex sees all of it
        assert univ_flag(complete_graph(1), [], "id")
        assert univ_flag(complete_graph(1), [], "ld")

    def test_old_flavor(self):
        k2 = complete_graph(2)
        assert emp_flag(k2, [0], "old")  # vertex 0 has no neighbour in {0}
        assert univ_flag(k2, [0], "old")  # vertex 1 sees all of {0}


class TestImplicationChain:
    def test_hierarchy_on_random_pairs(self):
        rng = random.Random(24)
        for _ in range(1000):
            n = rng.randint(1, 12)
            g = random_graph(n, rng.random(), rng)
            s = frozenset(v for v in range(n) if rng.random() < 0.5)
            if is_identifying_code(g, s):
                assert is_locating_dominating(g, s)
            if is_open_locating_dominating(g, s):
                assert is_locating_dominating(g, s)
            if is_connected(g) and is_locating_dominating(g, s):
                assert is_resolving_set(g, s)

    def test_check_dispatch(self):
        p3 = path_graph(3)
        assert check(p3, [0, 2], ProblemKind.IC)
        assert check(p3, [0, 1], ProblemKind.LD)
        assert check(p3, [0], ProblemKind.RS)
        assert check(p3, [0], ProblemKind.SEP_LD)


def _brute_violation(g, s, kind):
    """First colliding pair, from the definitions on frozenset adjacency."""
    s = frozenset(s)
    seen = {}
    for v in range(g.n):
        if kind in (ProblemKind.LD, ProblemKind.SEP_LD) and v in s:
            continue
        nbhd = g.adj[v] if kind in (ProblemKind.OLD, ProblemKind.SEP_OLD) else g.adj[v] | {v}
        key = nbhd & s
        if key in seen:
            return (seen[key], v)
        seen[key] = v
    return None


def _kernel_graphs():
    """Every cograph on at most 7 vertices, then 30 seeded random interval
    and permutation graphs on at most 8 vertices."""
    for n in range(1, 8):
        for t in all_cotrees(n):
            yield cotree_to_graph(t)
    rng = random.Random(29)
    for i in range(30):
        n = rng.randint(1, 8)
        if i % 2:
            bottoms = list(range(n))
            rng.shuffle(bottoms)
            yield permutation_graph(PermutationModel(enumerate(bottoms)))
        else:
            ends = [sorted(rng.sample(range(2 * n + 2), 2)) for _ in range(n)]
            yield interval_graph(IntervalModel(ends))


class TestMaskKernel:
    """The mask kernel against the subset-enumeration checker and the
    definitions, on every subset of every small graph and every kind."""

    def test_check_matches_exact_checker(self):
        for g in _kernel_graphs():
            for kind in ProblemKind:
                try:
                    reference = _Checker(g, kind)
                except (TwinsPresent, OpenTwinsPresent, NoSolution, Disconnected):
                    continue
                for mask in range(1 << g.n):
                    subset = tuple(v for v in range(g.n) if mask >> v & 1)
                    assert check(g, subset, kind) == reference(subset, mask), (g, kind, subset)

    def test_first_pair_matches_brute_force(self):
        for g in _kernel_graphs():
            for mask in range(1 << g.n):
                subset = [v for v in range(g.n) if mask >> v & 1]
                for kind in ProblemKind:
                    if kind is ProblemKind.RS:
                        continue
                    assert separation_violation(g, subset, kind) == _brute_violation(g, subset, kind)
