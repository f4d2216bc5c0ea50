import random
from itertools import combinations, repeat
from operator import and_

import pytest

from idcodes.exact import (
    CapExceeded,
    NoSolution,
    OpenTwinsPresent,
    SolveResult,
    SolverError,
    TwinsPresent,
    _Checker,
    all_min_sets,
    emp_univ_oracle,
    min_set,
)
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
from idcodes.models import (
    IntervalModel,
    PermutationModel,
    all_cotrees,
    cotree_to_graph,
    interval_graph,
    permutation_graph,
    random_cotree,
    random_twin_free_cotree,
)
from idcodes.verify import ProblemKind, check


def random_graph(n, p, rng):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


class TestMinSet:
    def test_p5_identifying(self):
        assert min_set(path_graph(5), ProblemKind.IC).size == 3

    def test_star_identifying(self):
        assert min_set(star_graph(3), ProblemKind.IC).size == 3

    def test_c4_sep(self):
        assert min_set(cycle_graph(4), ProblemKind.SEP_ID).size == 3

    def test_k1_sep(self):
        r = min_set(complete_graph(1), ProblemKind.SEP_ID)
        assert r.size == 0 and r.witness == frozenset()

    def test_twins_rejected(self):
        with pytest.raises(TwinsPresent):
            min_set(complete_graph(2), ProblemKind.IC)
        with pytest.raises(OpenTwinsPresent):
            min_set(path_graph(3), ProblemKind.OLD)

    def test_isolated_vertex_blocks_old(self):
        g = Graph(3, [(1, 2)])
        with pytest.raises(NoSolution):
            min_set(g, ProblemKind.OLD)

    def test_disconnected_rs(self):
        with pytest.raises(Disconnected):
            min_set(empty_graph(2), ProblemKind.RS)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            min_set(empty_graph(31), ProblemKind.LD)

    def test_witness_always_verifies(self):
        rng = random.Random(30)
        for _ in range(120):
            g = random_graph(rng.randint(1, 8), rng.random(), rng)
            for kind in ProblemKind:
                try:
                    r = min_set(g, kind)
                except (TwinsPresent, OpenTwinsPresent, Disconnected, NoSolution):
                    continue
                assert check(g, r.witness, kind)
                assert len(r.witness) == r.size

    def test_determinism(self):
        g = cycle_graph(6)
        a = min_set(g, ProblemKind.IC)
        b = min_set(g, ProblemKind.IC)
        assert a == b
        # lexicographically least witness: no earlier subset of that size works
        for subset in combinations(range(6), a.size):
            if frozenset(subset) == a.witness:
                break
            assert not check(g, subset, ProblemKind.IC)


class TestAllMinSets:
    def test_two_isolated(self):
        assert all_min_sets(empty_graph(2), ProblemKind.SEP_ID) == [
            frozenset([0]),
            frozenset([1]),
        ]

    def test_p3_sep_ld(self):
        sets = all_min_sets(path_graph(3), ProblemKind.SEP_LD)
        assert frozenset([0]) in sets and frozenset([2]) in sets
        assert frozenset([1]) not in sets

    def test_k1(self):
        assert all_min_sets(complete_graph(1), ProblemKind.SEP_ID) == [frozenset()]

    def test_every_member_is_minimum(self):
        rng = random.Random(31)
        for _ in range(50):
            g = random_graph(rng.randint(1, 7), rng.random(), rng)
            best = min_set(g, ProblemKind.SEP_LD)
            for s in all_min_sets(g, ProblemKind.SEP_LD):
                assert len(s) == best.size
                assert check(g, s, ProblemKind.SEP_LD)


class TestEmpUnivOracle:
    def test_k1(self):
        assert emp_univ_oracle(complete_graph(1), ProblemKind.SEP_ID) == (True, True)

    def test_two_isolated_id(self):
        assert emp_univ_oracle(empty_graph(2), ProblemKind.SEP_ID) == (True, True)

    def test_two_isolated_ld(self):
        assert emp_univ_oracle(empty_graph(2), ProblemKind.SEP_LD) == (True, False)

    def test_non_separating_kind(self):
        for kind in (ProblemKind.IC, ProblemKind.OLD, ProblemKind.RS):
            with pytest.raises(ValueError, match=f"{kind} is not a separating kind"):
                emp_univ_oracle(complete_graph(1), kind)


class TestSandwich:
    def test_sep_gamma_sandwich(self):
        rng = random.Random(32)
        for _ in range(150):
            g = random_graph(rng.randint(1, 8), rng.random(), rng)
            sep_ld = min_set(g, ProblemKind.SEP_LD).size
            gamma_ld = min_set(g, ProblemKind.LD).size
            assert sep_ld <= gamma_ld <= sep_ld + 1
            emp, _ = emp_univ_oracle(g, ProblemKind.SEP_LD)
            assert (gamma_ld == sep_ld + 1) == emp
            if not closed_twins(g):
                sep_id = min_set(g, ProblemKind.SEP_ID).size
                gamma_id = min_set(g, ProblemKind.IC).size
                assert sep_id <= gamma_id <= sep_id + 1
                emp, _ = emp_univ_oracle(g, ProblemKind.SEP_ID)
                assert (gamma_id == sep_id + 1) == emp

    def test_parameter_chain(self):
        rng = random.Random(33)
        checked = 0
        while checked < 120:
            g = random_graph(rng.randint(2, 8), rng.random(), rng)
            if not is_connected(g) or closed_twins(g):
                continue
            checked += 1
            dim = min_set(g, ProblemKind.RS).size
            gamma_ld = min_set(g, ProblemKind.LD).size
            gamma_id = min_set(g, ProblemKind.IC).size
            assert dim <= gamma_ld <= gamma_id <= 2 * gamma_ld
            if not open_twins(g) and all(g.adj[v] for v in range(g.n)):
                assert gamma_ld <= min_set(g, ProblemKind.OLD).size
            if diameter(g) <= 2:
                assert gamma_ld <= dim + 1


def _bfs(adj, source):
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def _passes(adj, dist, kind, s):
    """The definition of each kind, vertex by vertex, on adjacency sets."""
    n = len(adj)
    if kind is ProblemKind.RS:
        vectors = {tuple(dist[x][v] for x in s) for v in range(n)}
        return len(vectors) == n
    closed = kind not in (ProblemKind.OLD, ProblemKind.SEP_OLD)
    sig = [frozenset(s) & (adj[v] | {v} if closed else adj[v]) for v in range(n)]
    if kind in (ProblemKind.IC, ProblemKind.LD, ProblemKind.OLD) and not all(sig):
        return False
    if kind in (ProblemKind.LD, ProblemKind.SEP_LD):
        sig = [sig[v] for v in range(n) if v not in s]
    return len(set(sig)) == len(sig)


def _reference(g, kind):
    """Every passing subset of the least size, in combinations order; None if none."""
    adj = [set(g.adj[v]) for v in range(g.n)]
    dist = [_bfs(adj, v) for v in range(g.n)]
    for size in range(g.n + 1):
        found = [s for s in combinations(range(g.n), size) if _passes(adj, dist, kind, s)]
        if found:
            return found
    return None


def _tie_break_graphs():
    graphs = [Graph(0, []), Graph(1, [])]
    graphs += [cotree_to_graph(t) for n in range(1, 8) for t in all_cotrees(n)]
    rng = random.Random(34)
    for _ in range(30):
        n = rng.randint(2, 9)
        ends = [sorted(rng.sample(range(2 * n + 2), 2)) for _ in range(n)]
        graphs.append(interval_graph(IntervalModel(ends)))
        n = rng.randint(2, 9)
        graphs.append(permutation_graph(PermutationModel(zip(rng.sample(range(n), n), rng.sample(range(n), n)))))
    return graphs


class TestTieBreak:
    def test_min_set_is_first_passing_subset(self):
        """min_set returns the first passing subset of combinations order,
        and all_min_sets every passing subset of that size in that order."""
        for g in _tie_break_graphs():
            for kind in ProblemKind:
                if kind is ProblemKind.RS and not is_connected(g):
                    with pytest.raises(Disconnected):
                        min_set(g, kind)
                    continue
                expected = _reference(g, kind)
                if expected is None:
                    with pytest.raises(SolverError):
                        min_set(g, kind)
                    continue
                result = min_set(g, kind)
                assert (result.size, result.witness) == (len(expected[0]), frozenset(expected[0])), (g, kind)
                assert all_min_sets(g, kind) == [frozenset(s) for s in expected], (g, kind)


def _plain_solutions(checker, size):
    """The unpruned scan: every combinations subset that meets every mask."""
    bit = [1 << v for v in range(checker.n)]
    return [s for s in combinations(range(checker.n), size)
            if all(map(and_, checker.hit, repeat(sum(map(bit.__getitem__, s)))))]


def _outcome(solve, g, kind):
    """What solve(g, kind) returns, or the class and message it raises."""
    try:
        return solve(g, kind)
    except (SolverError, Disconnected) as e:
        return type(e), str(e)


def _plain_min_sets(g, kind):
    """Every passing subset of the least size, by the unpruned scan."""
    checker = _Checker(g, kind)
    for size in range(g.n + 1):
        found = _plain_solutions(checker, size)
        if found:
            return [frozenset(s) for s in found]


def _pruning_graphs():
    """Seeded interval, permutation and cograph graphs of 10 to 16 vertices;
    some with an extra isolated vertex, which OLD rejects."""
    rng = random.Random(35)
    graphs = []
    for i in range(68):
        isolated = i % 4 == 0
        n = rng.randint(10, 14 + isolated)
        ends = [sorted(rng.sample(range(2 * n + 2), 2)) for _ in range(n)]
        if isolated:
            ends.append((2 * n + 2, 2 * n + 3))
        graphs.append(interval_graph(IntervalModel(ends)))
        bottoms = rng.sample(range(n), n) + [n] * isolated
        graphs.append(permutation_graph(PermutationModel(enumerate(bottoms))))
        make = random_twin_free_cotree if i % 2 else random_cotree
        g = cotree_to_graph(make(n + isolated, rng))
        if isolated:
            g = Graph(n + 1, [(u, v) for u in range(n) for v in range(u + 1, n) if g.masks[u] >> v & 1])
        graphs.append(g)
    return graphs


class TestPrunedOrder:
    def test_pruned_search_matches_plain_scan(self):
        """min_set and all_min_sets give the unpruned scan's first set and
        whole list, or raise its error, on graphs past TestTieBreak's sizes."""
        graphs = _pruning_graphs()
        assert {g.n for g in graphs} == set(range(10, 17))
        assert any(not is_connected(g) for g in graphs)
        seen = set()
        for g in graphs:
            for kind in ProblemKind:
                expected = _outcome(_plain_min_sets, g, kind)
                result = _outcome(min_set, g, kind)
                if isinstance(expected, list):
                    first = expected[0]
                    assert result == SolveResult(len(first), first, kind), (g, kind)
                    assert all_min_sets(g, kind) == expected, (g, kind)
                    seen.add(kind)
                else:
                    assert result == expected, (g, kind)
                    assert _outcome(all_min_sets, g, kind) == expected, (g, kind)
                    seen.add(expected[0])
        # every kind answered somewhere, and every precondition error raised
        assert set(ProblemKind) | {TwinsPresent, OpenTwinsPresent, NoSolution, Disconnected} <= seen
