import random
import sys
import time

import pytest

from idcodes.cograph import (
    CographSummary,
    NoOldSolution,
    NotValidated,
    dim_cograph,
    enable_old_dp,
    gamma_id_cograph,
    gamma_ld_cograph,
    gamma_old_cograph,
    graph_has_isolated_vertex,
    sep_id_dp,
    sep_ld_dp,
    sep_old_dp,
    witness_cograph,
)
from idcodes.exact import (
    NoSolution,
    OpenTwinsPresent,
    TwinsPresent,
    emp_univ_oracle,
    min_set,
)
from idcodes.graph import Disconnected, closed_twins, is_connected, open_twins
from idcodes.models import (
    CotreeNode,
    JOIN,
    Leaf,
    UNION,
    all_cotrees,
    canonicalize,
    complement_cotree,
    cotree_to_graph,
    format_cotree,
    join_node,
    leaf,
    parse_cotree,
    random_cotree,
    random_twin_free_cotree,
    union_node,
)
from idcodes.verify import ProblemKind, check


class TestBaseCases:
    def test_single_vertex(self):
        assert sep_id_dp(leaf(0)) == CographSummary(0, True, True, 1)
        assert sep_ld_dp(leaf(0)) == CographSummary(0, True, True, 1)

    def test_two_isolated_id(self):
        s = sep_id_dp(union_node(leaf(0), leaf(1)))
        assert (s.k, s.emp, s.univ) == (1, True, True)

    def test_two_isolated_ld(self):
        s = sep_ld_dp(union_node(leaf(0), leaf(1)))
        assert (s.k, s.emp, s.univ) == (1, True, False)

    def test_edge_ld(self):
        s = sep_ld_dp(join_node(leaf(0), leaf(1)))
        assert (s.k, s.emp, s.univ) == (1, False, True)

    def test_c4(self):
        t = parse_cotree("(J (U 0 1) (U 2 3))")
        assert sep_id_dp(t).k == 3
        assert gamma_id_cograph(t) == 3
        assert dim_cograph(t) == 2
        assert gamma_ld_cograph(t) == 2

    def test_star(self):
        t = parse_cotree("(J 0 (U 1 2 3))")
        assert gamma_id_cograph(t) == 3

    def test_gamma_values(self):
        two = union_node(leaf(0), leaf(1))
        assert gamma_id_cograph(two) == 2
        assert gamma_ld_cograph(leaf(0)) == 1
        assert dim_cograph(leaf(0)) == 0

    def test_twins_rejected(self):
        with pytest.raises(TwinsPresent):
            sep_id_dp(join_node(leaf(0), leaf(1)))

    def test_dim_needs_connected(self):
        with pytest.raises(Disconnected):
            dim_cograph(union_node(leaf(0), leaf(1)))


class TestOracleEquivalence:
    """Every cograph with at most 7 vertices, checked value-and-flags exact."""

    def test_exhaustive_small(self):
        for n in range(1, 8):
            for t in all_cotrees(n):
                g = cotree_to_graph(t)
                s_ld = sep_ld_dp(t)
                o_ld = min_set(g, ProblemKind.SEP_LD)
                assert (s_ld.k, s_ld.emp, s_ld.univ) == (
                    o_ld.size,
                    *emp_univ_oracle(g, "ld"),
                )
                assert gamma_ld_cograph(t) == min_set(g, ProblemKind.LD).size
                if is_connected(g):
                    assert dim_cograph(t) == min_set(g, ProblemKind.RS).size
                if closed_twins(g):
                    with pytest.raises(TwinsPresent):
                        sep_id_dp(t)
                    continue
                s_id = sep_id_dp(t)
                o_id = min_set(g, ProblemKind.SEP_ID)
                assert (s_id.k, s_id.emp, s_id.univ) == (
                    o_id.size,
                    *emp_univ_oracle(g, "id"),
                )
                assert gamma_id_cograph(t) == min_set(g, ProblemKind.IC).size

    def test_random_medium(self):
        rng = random.Random(40)
        for _ in range(150):
            t = random_cotree(rng.randint(8, 10), rng)
            g = cotree_to_graph(t)
            s_ld = sep_ld_dp(t)
            assert s_ld.k == min_set(g, ProblemKind.SEP_LD).size
            if not closed_twins(g):
                assert sep_id_dp(t).k == min_set(g, ProblemKind.SEP_ID).size

    def test_twin_gate_matches_graph_twins(self):
        for n in range(1, 8):
            for t in all_cotrees(n):
                g = cotree_to_graph(t)
                has_closed = bool(closed_twins(g))
                try:
                    sep_id_dp(t)
                    assert not has_closed
                except TwinsPresent:
                    assert has_closed
                has_open = bool(open_twins(g))
                enable_old_dp()
                try:
                    sep_old_dp(t)
                    assert not has_open
                except OpenTwinsPresent:
                    assert has_open

    def test_isolated_vertex_detection(self):
        for n in range(1, 8):
            for t in all_cotrees(n):
                g = cotree_to_graph(t)
                assert graph_has_isolated_vertex(t) == any(
                    not g.adj[v] for v in range(g.n)
                )


class TestComplementDuality:
    def test_ld_swaps_flags(self):
        rng = random.Random(41)
        trees = [t for n in range(1, 8) for t in all_cotrees(n)]
        trees += [random_cotree(rng.randint(8, 10), rng) for _ in range(50)]
        for t in trees:
            a = sep_ld_dp(t)
            b = sep_ld_dp(complement_cotree(t))
            assert a.k == b.k and a.emp == b.univ and a.univ == b.emp


class TestOldFlavor:
    def test_gate_required(self):
        import idcodes.cograph as mod

        saved = mod._OLD_GATE_PASSED
        mod._OLD_GATE_PASSED = False
        try:
            with pytest.raises(NotValidated):
                sep_old_dp(leaf(0))
        finally:
            mod._OLD_GATE_PASSED = saved

    def test_gate_and_gamma(self):
        enable_old_dp()
        assert gamma_old_cograph(join_node(leaf(0), leaf(1))) == 2
        with pytest.raises(NoOldSolution):
            gamma_old_cograph(leaf(0))

    def test_gamma_old_matches_oracle(self):
        enable_old_dp()
        for n in range(1, 8):
            for t in all_cotrees(n):
                g = cotree_to_graph(t)
                try:
                    expected = min_set(g, ProblemKind.OLD).size
                except (OpenTwinsPresent, NoSolution):
                    continue
                assert gamma_old_cograph(t) == expected

    def test_sep_old_random_sample(self):
        enable_old_dp()
        rng = random.Random(46)
        checked = 0
        while checked < 100:
            t = random_cotree(rng.randint(8, 10), rng)
            g = cotree_to_graph(t)
            try:
                oracle = min_set(g, ProblemKind.SEP_OLD)
            except OpenTwinsPresent:
                continue
            checked += 1
            s = sep_old_dp(t)
            assert s.k == oracle.size
            assert (s.emp, s.univ) == emp_univ_oracle(g, "old")


class TestFoldProperties:
    def test_value_nondecreasing_under_subtrees(self):
        rng = random.Random(42)
        for _ in range(50):
            t = random_cotree(rng.randint(2, 10), rng)
            whole = sep_ld_dp(t).k
            if hasattr(t, "children"):
                for c in t.children:
                    from idcodes.models import canonicalize, cotree_leaves

                    relabel = {v: i for i, v in enumerate(sorted(cotree_leaves(c)))}

                    def rl(node):
                        from idcodes.models import CotreeNode, Leaf

                        if isinstance(node, Leaf):
                            return Leaf(relabel[node.vertex])
                        return CotreeNode(node.kind, tuple(rl(x) for x in node.children))

                    assert sep_ld_dp(canonicalize(rl(c))).k <= whole

    def test_child_order_invariance(self):
        # flags and value do not depend on the fold order of n-ary children
        rng = random.Random(43)
        from idcodes.models import CotreeNode, Leaf

        def shuffled(node):
            if isinstance(node, Leaf):
                return node
            kids = [shuffled(c) for c in node.children]
            rng.shuffle(kids)
            return CotreeNode(node.kind, tuple(kids))

        for n in range(2, 8):
            for t in all_cotrees(n):
                s1 = sep_ld_dp(t)
                s2 = sep_ld_dp(shuffled(t))
                assert (s1.k, s1.emp, s1.univ) == (s2.k, s2.emp, s2.univ)


class TestWitnesses:
    def test_all_small_cographs(self):
        for n in range(1, 9):
            for t in all_cotrees(n):
                g = cotree_to_graph(t)
                for kind in (ProblemKind.LD, ProblemKind.SEP_LD):
                    w = witness_cograph(t, kind)
                    assert check(g, w, kind)
                if not closed_twins(g):
                    for kind in (ProblemKind.IC, ProblemKind.SEP_ID):
                        w = witness_cograph(t, kind)
                        assert check(g, w, kind)
                        expected = (
                            gamma_id_cograph(t)
                            if kind is ProblemKind.IC
                            else sep_id_dp(t).k
                        )
                        assert len(w) == expected
                if is_connected(g):
                    w = witness_cograph(t, ProblemKind.RS)
                    assert check(g, w, ProblemKind.RS)
                    assert len(w) == dim_cograph(t)

    def test_random_larger(self):
        rng = random.Random(44)
        for _ in range(40):
            t = random_twin_free_cotree(rng.randint(8, 14), rng)
            g = cotree_to_graph(t)
            w = witness_cograph(t, ProblemKind.IC)
            assert check(g, w, ProblemKind.IC)
            assert len(w) == gamma_id_cograph(t)


class TestScaling:
    def test_large_fold_runs_fast(self):
        rng = random.Random(45)
        t = random_twin_free_cotree(50_000, rng)
        start = time.monotonic()
        summary = sep_id_dp(t)
        assert time.monotonic() - start < 1.0
        assert summary.n == 50_000


class TestDeepCotrees:
    """An alternating U/J caterpillar deeper than the recursion limit.

    The limit is lowered to a little above the test's own stack depth, so a
    small tree is already too deep for any recursive walk.  Trees are
    compared through their text, since dataclass equality itself recurses.
    """

    LEAVES = 300

    @staticmethod
    def _caterpillar(n):
        # (J 0 (U 1 (J 2 ... (J n-2 n-1))))
        t = Leaf(n - 1)
        for v in range(n - 2, -1, -1):
            t = CotreeNode(JOIN if v % 2 == 0 else UNION, (Leaf(v), t))
        return t

    def test_walks_need_no_recursion(self):
        t = self._caterpillar(self.LEAVES)
        text = format_cotree(t)
        g = cotree_to_graph(t)
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        saved = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            assert self.LEAVES > sys.getrecursionlimit()
            assert format_cotree(parse_cotree(text)) == text
            assert format_cotree(complement_cotree(complement_cotree(t))) == text
            assert format_cotree(canonicalize(t)) == text
            summary = sep_ld_dp(t)
            w = witness_cograph(t, ProblemKind.LD)
        finally:
            sys.setrecursionlimit(saved)
        assert summary.n == self.LEAVES
        assert check(g, w, ProblemKind.LD)
        assert len(w) == gamma_ld_cograph(t)
