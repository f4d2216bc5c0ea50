import random
import sys
import time

import pytest

from idcodes.cli import main
from idcodes import cograph
from idcodes.cograph import CographSummary, NoOldSolution, WitnessUnavailable, solve_cotree
from idcodes.exact import (
    TWINS,
    NoSolution,
    OpenTwinsPresent,
    TwinsPresent,
    emp_univ_oracle,
    min_set,
)
from idcodes.graph import Disconnected
from idcodes.models import (
    JOIN,
    UNION,
    Cotree,
    MalformedCotree,
    canonicalize,
    cograph_recognize,
    cotree_to_graph,
    format_cotree,
    join_node,
    leaf,
    node_code,
    parse_cotree,
    union_node,
)
from idcodes.verify import ProblemKind, check

from cotree_reference import (
    all_cotrees,
    complement_cotree,
    fold_cotree,
    random_cotree,
    random_twin_free_cotree,
    witness_fold,
)
from graph_reference import closed_twins, is_connected, open_twins


def _rebuilt(t, node_fn=None):
    """t rebuilt node by node from raw codes with the construction helpers;
    node_fn(kind, kids) may see (and reorder) each node's children first."""

    def node(kind, kids):
        if node_fn is not None:
            node_fn(kind, kids)
        return (join_node if kind == JOIN else union_node)(*kids)

    return Cotree(fold_cotree(t, leaf, node))


def _root_children(t):
    """The root's child subtrees as raw codes (none for a single leaf)."""
    last = []

    def keep(_kind, kids):
        last[:] = kids  # the root is folded last

    _rebuilt(t, keep)
    return last


def test_one_public_entry_point():
    assert sorted(cograph.__all__) == [
        "CographSummary", "NoOldSolution", "WitnessUnavailable", "solve_cotree",
    ]


class TestBaseCases:
    def test_single_vertex(self):
        for kind in (ProblemKind.SEP_ID, ProblemKind.SEP_LD):
            assert solve_cotree(Cotree(leaf(0)), kind).summary == CographSummary(0, True, True, 1)

    def test_two_isolated_id(self):
        s = solve_cotree(Cotree(union_node(leaf(0), leaf(1))), ProblemKind.SEP_ID).summary
        assert (s.k, s.emp, s.univ) == (1, True, True)

    def test_two_isolated_ld(self):
        s = solve_cotree(Cotree(union_node(leaf(0), leaf(1))), ProblemKind.SEP_LD).summary
        assert (s.k, s.emp, s.univ) == (1, True, False)

    def test_edge_ld(self):
        s = solve_cotree(Cotree(join_node(leaf(0), leaf(1))), ProblemKind.SEP_LD).summary
        assert (s.k, s.emp, s.univ) == (1, False, True)

    def test_c4(self):
        t = parse_cotree("(J (U 0 1) (U 2 3))")
        assert solve_cotree(t, ProblemKind.SEP_ID).summary.k == 3
        assert solve_cotree(t, ProblemKind.IC).value == 3
        assert solve_cotree(t, ProblemKind.RS).value == 2
        assert solve_cotree(t, ProblemKind.LD).value == 2

    def test_star(self):
        t = parse_cotree("(J 0 (U 1 2 3))")
        assert solve_cotree(t, ProblemKind.IC).value == 3

    def test_gamma_values(self):
        two = Cotree(union_node(leaf(0), leaf(1)))
        assert solve_cotree(two, ProblemKind.IC).value == 2
        assert solve_cotree(Cotree(leaf(0)), ProblemKind.LD).value == 1
        assert solve_cotree(Cotree(leaf(0)), ProblemKind.RS).value == 0

    def test_twins_rejected(self):
        with pytest.raises(TwinsPresent):
            solve_cotree(Cotree(join_node(leaf(0), leaf(1))), ProblemKind.SEP_ID)

    def test_dim_needs_connected(self):
        with pytest.raises(Disconnected):
            solve_cotree(Cotree(union_node(leaf(0), leaf(1))), ProblemKind.RS)


class TestOracleEquivalence:
    """Every cograph with at most 7 vertices, checked value-and-flags exact."""

    def test_exhaustive_small(self):
        for n in range(1, 8):
            for t in all_cotrees(n):
                g = cotree_to_graph(t)
                s_ld = solve_cotree(t, ProblemKind.SEP_LD).summary
                o_ld = min_set(g, ProblemKind.SEP_LD)
                assert (s_ld.k, s_ld.emp, s_ld.univ) == (
                    o_ld.size,
                    *emp_univ_oracle(g, ProblemKind.SEP_LD),
                )
                assert solve_cotree(t, ProblemKind.LD).value == min_set(g, ProblemKind.LD).size
                if is_connected(g):
                    assert solve_cotree(t, ProblemKind.RS).value == min_set(g, ProblemKind.RS).size
                if closed_twins(g):
                    with pytest.raises(TwinsPresent):
                        solve_cotree(t, ProblemKind.SEP_ID)
                    continue
                s_id = solve_cotree(t, ProblemKind.SEP_ID).summary
                o_id = min_set(g, ProblemKind.SEP_ID)
                assert (s_id.k, s_id.emp, s_id.univ) == (
                    o_id.size,
                    *emp_univ_oracle(g, ProblemKind.SEP_ID),
                )
                assert solve_cotree(t, ProblemKind.IC).value == min_set(g, ProblemKind.IC).size

    def test_random_medium(self):
        rng = random.Random(40)
        for _ in range(150):
            t = random_cotree(rng.randint(8, 10), rng)
            g = cotree_to_graph(t)
            s_ld = solve_cotree(t, ProblemKind.SEP_LD).summary
            assert s_ld.k == min_set(g, ProblemKind.SEP_LD).size
            if not closed_twins(g):
                s_id = solve_cotree(t, ProblemKind.SEP_ID).summary
                assert s_id.k == min_set(g, ProblemKind.SEP_ID).size

    def test_twin_gate_matches_graph_twins(self):
        for n in range(1, 8):
            for t in all_cotrees(n):
                g = cotree_to_graph(t)
                has_closed = bool(closed_twins(g))
                try:
                    solve_cotree(t, ProblemKind.SEP_ID)
                    assert not has_closed
                except TwinsPresent:
                    assert has_closed
                has_open = bool(open_twins(g))
                try:
                    solve_cotree(t, ProblemKind.SEP_OLD)
                    assert not has_open
                except OpenTwinsPresent:
                    assert has_open

    def test_isolated_vertex_detection(self):
        # OLD has no solution exactly when a vertex is isolated; open twins,
        # which two isolated vertices already are, are reported first
        for n in range(1, 8):
            for t in all_cotrees(n):
                g = cotree_to_graph(t)
                isolated = any(not g.adj[v] for v in range(g.n))
                try:
                    solve_cotree(t, ProblemKind.OLD)
                    assert not isolated
                except NoOldSolution:
                    assert isolated and not open_twins(g)
                except OpenTwinsPresent:
                    assert open_twins(g)


class TestComplementDuality:
    def test_ld_swaps_flags(self):
        rng = random.Random(41)
        trees = [t for n in range(1, 8) for t in all_cotrees(n)]
        trees += [random_cotree(rng.randint(8, 10), rng) for _ in range(50)]
        for t in trees:
            a = solve_cotree(t, ProblemKind.SEP_LD).summary
            b = solve_cotree(complement_cotree(t), ProblemKind.SEP_LD).summary
            assert a.k == b.k and a.emp == b.univ and a.univ == b.emp


class TestOldFlavor:
    def test_sep_old_matches_oracle_up_to_nine_leaves(self):
        for n in range(1, 10):
            for t in all_cotrees(n):
                g = cotree_to_graph(t)
                try:
                    oracle = min_set(g, ProblemKind.SEP_OLD)
                except OpenTwinsPresent:
                    continue
                s = solve_cotree(t, ProblemKind.SEP_OLD).summary
                expected = (oracle.size, *emp_univ_oracle(g, ProblemKind.SEP_OLD))
                assert (s.k, s.emp, s.univ) == expected, format_cotree(t)

    def test_gate_and_gamma(self):
        assert solve_cotree(Cotree(join_node(leaf(0), leaf(1))), ProblemKind.OLD).value == 2
        with pytest.raises(NoOldSolution):
            solve_cotree(Cotree(leaf(0)), ProblemKind.OLD)

    def test_gamma_old_matches_oracle(self):
        for n in range(1, 8):
            for t in all_cotrees(n):
                g = cotree_to_graph(t)
                try:
                    expected = min_set(g, ProblemKind.OLD).size
                except (OpenTwinsPresent, NoSolution):
                    continue
                assert solve_cotree(t, ProblemKind.OLD).value == expected

    def test_sep_old_random_sample(self):
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
            s = solve_cotree(t, ProblemKind.SEP_OLD).summary
            assert s.k == oracle.size
            assert (s.emp, s.univ) == emp_univ_oracle(g, ProblemKind.SEP_OLD)


# The fold as it was before states were packed into ints: one _merge call
# per pair of children on (k, emp, univ, n) tuples, with whether each
# subtree has a universal and an isolated vertex kept beside the state.

_REFERENCE_TWO_SINGLETONS = {ProblemKind.SEP_ID: UNION, ProblemKind.SEP_OLD: JOIN}


def _reference_merge(a, b, kind, singles):
    ka, emp_a, univ_a, na = a
    kb, emp_b, univ_b, nb = b
    join = kind == JOIN
    if join:
        emp_a, univ_a, emp_b, univ_b = univ_a, emp_a, univ_b, emp_b
    if na == 1 and nb == 1 and kind == singles:
        univ = True
    elif na == 1:
        univ = univ_b and not emp_b
    elif nb == 1:
        univ = univ_a and not emp_a
    else:
        univ = False
    k = ka + kb + (1 if emp_a and emp_b else 0)
    emp = emp_a or emp_b
    if join:
        emp, univ = univ, emp
    return k, emp, univ, na + nb


def _reference_gate(kind, sep, universal, isolated):
    """Raises the twin error when a merge of parts with these (a, b) pairs of
    universal and isolated flags hits the gate of sep."""
    twins = TWINS.get(sep)
    if twins and kind == twins.node and (
        all(universal) if kind == JOIN else all(isolated)
    ):
        raise twins.error(twins.gate_message)


def _reference_fold(t, sep):
    """(summary, has an isolated vertex), or the twin error."""
    singles = _REFERENCE_TWO_SINGLETONS.get(sep)

    def merge_children(kind, kids):
        part, universal, isolated = kids[0]
        for b, b_universal, b_isolated in kids[1:]:
            _reference_gate(kind, sep, (universal, b_universal), (isolated, b_isolated))
            part = _reference_merge(part, b, kind, singles)
            if kind == JOIN:
                universal, isolated = universal or b_universal, False
            else:
                universal, isolated = False, isolated or b_isolated
        return part, universal, isolated

    part, _universal, isolated = fold_cotree(t, lambda _v: ((0, True, True, 1), True, True),
                                             merge_children)
    return CographSummary(*part), isolated


def _outcome(fold, t, sep):
    try:
        return fold(t, sep)
    except Exception as exc:
        return type(exc), str(exc)


def _packed_fold(t, sep):
    """(summary, has an isolated vertex) from the packed fold."""
    state = cograph._fold(t, sep, False)[0]
    return solve_cotree(t, sep).summary, bool(state & cograph._ISOLATED)


class TestPackedFold:
    SEPS = (ProblemKind.SEP_ID, ProblemKind.SEP_LD, ProblemKind.SEP_OLD)

    def test_matches_reference_up_to_nine_leaves(self):
        for n in range(1, 10):
            for t in all_cotrees(n):
                for sep in self.SEPS:
                    assert _outcome(_packed_fold, t, sep) == _outcome(_reference_fold, t, sep), (
                        format_cotree(t), sep)

    def test_matches_reference_on_random_trees(self):
        rng = random.Random(47)
        for _ in range(40):
            n = rng.randint(10, 5000)
            sample = random_cotree if rng.random() < 0.5 else random_twin_free_cotree
            t = sample(n, rng)
            for sep in self.SEPS:
                assert _outcome(_packed_fold, t, sep) == _outcome(_reference_fold, t, sep), (n, sep)

    def test_every_table_entry(self):
        # each entry against _merge, and _merge and the gate against the
        # reference rule, over all 32 x 32 flag pairs of both node kinds
        def flag(x, bit):
            return bool(x & bit)

        for sep in self.SEPS:
            rows = cograph._rows(sep)
            assert cograph._rows(sep) is rows  # built once
            singles = _REFERENCE_TWO_SINGLETONS.get(sep)
            for kind in (UNION, JOIN):
                for a in range(32):
                    for b in range(32):
                        entry = rows[kind][a << 5 | b]
                        universal = (flag(a, cograph._UNIVERSAL), flag(b, cograph._UNIVERSAL))
                        isolated = (flag(a, cograph._ISOLATED), flag(b, cograph._ISOLATED))
                        try:
                            _reference_gate(kind, sep, universal, isolated)
                        except (TwinsPresent, OpenTwinsPresent) as exc:
                            with pytest.raises(type(exc)) as info:
                                a + b + entry
                            assert str(info.value) == str(exc)
                            continue
                        bump, flags = cograph._merge(a, b, kind, singles)
                        assert entry == (bump << 5 | flags) - a - b
                        k, emp, univ, _n = _reference_merge(
                            *((0, flag(x, cograph._EMP), flag(x, cograph._UNIV),
                               1 if x & cograph._SINGLE else 2) for x in (a, b)),
                            kind, singles,
                        )
                        assert (bump, flag(flags, cograph._EMP), flag(flags, cograph._UNIV)) == (
                            k, emp, univ)
                        assert not flags & cograph._SINGLE
                        assert flag(flags, cograph._UNIVERSAL) == (kind == JOIN and any(universal))
                        assert flag(flags, cograph._ISOLATED) == (kind == UNION and any(isolated))


def _plain_state(t, sep):
    """The root state of the value-only loop, which merges a node's children
    from the last one back to the first."""
    return cograph._fold(t, sep, False)[0]


def _witness_state(t, sep):
    """The root state of the witness fold, which merges left to right."""
    return cograph._fold(t, sep, True)[0][0]


def _merge_state(t, sep):
    """The root state from one ``_merge`` call per pair of children, left to
    right, with the twin gate tested before each merge."""
    singles = cograph._TWO_SINGLETONS.get(sep)
    twins = TWINS.get(sep)

    def node(kind, kids):
        s = kids[0]
        for b in kids[1:]:
            if twins and twins.node == kind and s & b & cograph._GATE_FLAG[kind]:
                raise twins.error(twins.gate_message)
            bump, flags = cograph._merge(s & 31, b & 31, kind, singles)
            s = ((s >> 5) + (b >> 5) + bump) << 5 | flags
        return s

    return fold_cotree(t, lambda _v: cograph._LEAF, node)


class TestPlainFoldLoop:
    """The value-only fold's loop gives the witness fold's state and the
    per-pair _merge fold's, or the same twin error, for every separating kind."""

    SEPS = (ProblemKind.SEP_ID, ProblemKind.SEP_LD, ProblemKind.SEP_OLD)

    def _outcomes(self, t, sep):
        plain = _outcome(_plain_state, t, sep)
        assert plain == _outcome(_witness_state, t, sep) == _outcome(_merge_state, t, sep), (
            format_cotree(t), sep)
        return plain

    def test_every_cotree_up_to_nine_leaves(self):
        gated = 0
        for n in range(1, 10):
            for t in all_cotrees(n):
                for sep in self.SEPS:
                    gated += isinstance(self._outcomes(t, sep), tuple)
        assert 0 < gated  # both outcomes are covered

    def test_random_trees_of_thousands_of_leaves(self):
        rng = random.Random(53)
        for i in range(8):
            sample = random_cotree if i % 2 else random_twin_free_cotree
            t = sample(rng.randint(1_000, 10_000), rng)
            for sep in self.SEPS:
                self._outcomes(t, sep)

    def test_deep_caterpillar(self):
        t = TestDeepCotrees._caterpillar(10_000)
        assert [isinstance(self._outcomes(t, sep), tuple) for sep in self.SEPS] == [
            True, False, False]  # its innermost join is of two leaves, closed twins


def _witness_loop(t, sep):
    return cograph._fold(t, sep, True)


class TestWitnessFoldLoop:
    """The witness fold's own loop over the codes returns what the per-node
    reference fold does: the same root part and the same added vertices in
    the same order, or the same twin error.  The order of the added vertices
    is the order of the merges, so a loop that merged a node's children in
    another order would fail here."""

    SEPS = (ProblemKind.SEP_ID, ProblemKind.SEP_LD)

    def _outcomes(self, t, sep):
        loop = _outcome(_witness_loop, t, sep)
        assert loop == _outcome(witness_fold, t, sep), (format_cotree(t), sep)
        return loop

    def test_every_cotree_up_to_nine_leaves(self):
        gated = bumped = 0
        for n in range(1, 10):
            for t in all_cotrees(n):
                for sep in self.SEPS:
                    outcome = self._outcomes(t, sep)
                    if isinstance(outcome[0], type):
                        gated += 1
                    else:
                        bumped += len(outcome[1]) > 1
        assert 0 < gated and 0 < bumped  # both outcomes, and sets of two or more

    def test_random_trees_of_thousands_of_leaves(self):
        rng = random.Random(57)
        for i in range(6):
            sample = random_cotree if i % 3 == 2 else random_twin_free_cotree
            t = sample(rng.randint(1_000, 5_000), rng)
            for sep in self.SEPS:
                self._outcomes(t, sep)

    def test_deep_caterpillar(self):
        t = TestDeepCotrees._caterpillar(10_000)
        assert [isinstance(self._outcomes(t, sep)[0], type) for sep in self.SEPS] == [
            True, False]


class TestFoldProperties:
    def test_value_nondecreasing_under_subtrees(self):
        rng = random.Random(42)
        for _ in range(50):
            t = random_cotree(rng.randint(2, 10), rng)
            whole = solve_cotree(t, ProblemKind.SEP_LD).summary.k
            for c in _root_children(t):
                relabel = {v: i for i, v in enumerate(sorted(v for v in c if v >= 0))}
                rl = Cotree(relabel[v] if v >= 0 else v for v in c)
                assert solve_cotree(rl, ProblemKind.SEP_LD).summary.k <= whole

    def test_child_order_invariance(self):
        # flags and value do not depend on the fold order of n-ary children
        rng = random.Random(43)
        for n in range(2, 8):
            for t in all_cotrees(n):
                s1 = solve_cotree(t, ProblemKind.SEP_LD).summary
                shuffled = _rebuilt(t, lambda _kind, kids: rng.shuffle(kids))
                s2 = solve_cotree(shuffled, ProblemKind.SEP_LD).summary
                assert (s1.k, s1.emp, s1.univ) == (s2.k, s2.emp, s2.univ)


class TestWitnesses:
    def test_all_small_cographs(self):
        for n in range(1, 10):
            for t in all_cotrees(n):
                g = cotree_to_graph(t)
                expected = {
                    ProblemKind.LD: solve_cotree(t, ProblemKind.LD).value,
                    ProblemKind.SEP_LD: solve_cotree(t, ProblemKind.SEP_LD).summary.k,
                }
                if not closed_twins(g):
                    expected[ProblemKind.IC] = solve_cotree(t, ProblemKind.IC).value
                    expected[ProblemKind.SEP_ID] = solve_cotree(t, ProblemKind.SEP_ID).summary.k
                if is_connected(g):
                    expected[ProblemKind.RS] = solve_cotree(t, ProblemKind.RS).value
                for kind, size in expected.items():
                    plain = solve_cotree(t, kind)
                    summary, value, w = solve_cotree(t, kind, witness=True)
                    assert plain.witness is None
                    assert (summary, value) == (plain.summary, plain.value)
                    assert check(g, w, kind)
                    assert len(w) == size == value
                for kind in (ProblemKind.OLD, ProblemKind.SEP_OLD):
                    with pytest.raises(ValueError):
                        solve_cotree(t, kind, witness=True)

    def test_rs_check_agrees_with_sep_ld_on_connected_cographs(self):
        # solve_cotree checks an RS witness as a SEP_LD set
        pairs = 0
        for n in range(1, 8):
            for t in all_cotrees(n):
                if t.root_kind == UNION:
                    continue
                g = cotree_to_graph(t)
                for s in range(1 << n):
                    subset = [v for v in range(n) if s >> v & 1]
                    rs = check(g, subset, ProblemKind.RS)
                    assert rs == check(g, subset, ProblemKind.SEP_LD), (t, subset)
                    pairs += 1
        assert pairs == 14118

    def test_random_larger(self):
        rng = random.Random(44)
        for _ in range(40):
            t = random_twin_free_cotree(rng.randint(8, 14), rng)
            g = cotree_to_graph(t)
            w = solve_cotree(t, ProblemKind.IC, witness=True).witness
            assert check(g, w, ProblemKind.IC)
            assert len(w) == solve_cotree(t, ProblemKind.IC).value

    def test_rejected_witness_is_unavailable(self, monkeypatch):
        monkeypatch.setattr(cograph, "check", lambda *args: False)
        with pytest.raises(WitnessUnavailable, match="failed the"):
            solve_cotree(parse_cotree("(J 0 (U 1 2))"), ProblemKind.LD, witness=True)


@pytest.mark.parametrize(
    "codes,message",
    [
        ((0, node_code(UNION, 1)), "fewer than 2 children"),
        ((0, node_code(UNION, 2)), "not one post-order tree"),
        ((0, 1), "not one post-order tree"),
        ((), "not one post-order tree"),
    ],
)
def test_malformed_raw_codes(codes, message):
    with pytest.raises(MalformedCotree, match=message):
        Cotree(codes)


class TestScaling:
    def test_large_fold_runs_fast(self):
        rng = random.Random(45)
        t = random_twin_free_cotree(50_000, rng)
        start = time.monotonic()
        summary = solve_cotree(t, ProblemKind.SEP_ID).summary
        assert time.monotonic() - start < 1.0
        assert summary.n == 50_000

    def test_large_witness_runs_fast(self):
        # the witness is read off the fold; only the final check is not linear
        rng = random.Random(46)
        t = random_twin_free_cotree(20_000, rng)
        g = cotree_to_graph(t)
        sizes = {kind: solve_cotree(t, kind).value for kind in (ProblemKind.IC, ProblemKind.LD)}
        for kind, size in sizes.items():
            start = time.monotonic()
            w = solve_cotree(t, kind, witness=True).witness
            assert time.monotonic() - start < 5.0
            assert len(w) == size
            assert check(g, w, kind)


class TestDeepCotrees:
    """An alternating U/J caterpillar deeper than the recursion limit.

    The limit is lowered to a little above the test's own stack depth, so a
    small tree is already too deep for any recursive walk.
    """

    LEAVES = 300
    BIG = 100_000

    @staticmethod
    def _caterpillar(n):
        # (J 0 (U 1 (J 2 ... (J n-2 n-1)))): in post-order the leaves come
        # first, then the two-child nodes from the innermost out.
        kinds = (JOIN if v % 2 == 0 else UNION for v in range(n - 2, -1, -1))
        return Cotree([*range(n), *(node_code(kind, 2) for kind in kinds)])

    @staticmethod
    def _lower_recursion_limit():
        """Set the limit 100 frames above the caller's depth; returns the old one."""
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        saved = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        return saved

    def test_walks_need_no_recursion(self):
        t = self._caterpillar(self.LEAVES)
        text = format_cotree(t)
        g = cotree_to_graph(t)
        saved = self._lower_recursion_limit()
        try:
            assert self.LEAVES > sys.getrecursionlimit()
            assert format_cotree(parse_cotree(text)) == text
            assert format_cotree(complement_cotree(complement_cotree(t))) == text
            assert format_cotree(canonicalize(t.codes)) == text
            summary = solve_cotree(t, ProblemKind.SEP_LD).summary
            w = solve_cotree(t, ProblemKind.LD, witness=True).witness
        finally:
            sys.setrecursionlimit(saved)
        assert summary.n == self.LEAVES
        assert check(g, w, ProblemKind.LD)
        assert len(w) == solve_cotree(t, ProblemKind.LD).value

    def test_walks_need_no_recursion_at_1e5(self, tmp_path, capsys):
        # no witness and no graph: dense masks alone would take gigabytes
        t = self._caterpillar(self.BIG)
        text = format_cotree(t)
        path = tmp_path / "deep.cotree"
        path.write_text(text + "\n")
        saved = self._lower_recursion_limit()
        try:
            assert self.BIG > sys.getrecursionlimit()
            assert format_cotree(parse_cotree(text)) == text
            assert complement_cotree(complement_cotree(t)) == t
            assert complement_cotree(t) != t
            assert canonicalize(t.codes) == t
            summary = solve_cotree(t, ProblemKind.SEP_LD).summary
            code = main(["cograph", "--problem", "ld", "--cotree", str(path)])
        finally:
            sys.setrecursionlimit(saved)
        out, _ = capsys.readouterr()
        assert summary.n == self.BIG
        assert code == 0
        value = summary.k + (1 if summary.emp else 0)
        assert out == (
            f"k={value} emp={str(summary.emp).lower()} "
            f"univ={str(summary.univ).lower()} sep={summary.k}\n"
        )

    def test_recognition_needs_no_recursion(self):
        t = self._caterpillar(600)
        g = cotree_to_graph(t)
        saved = self._lower_recursion_limit()
        try:
            assert sys.getrecursionlimit() < 600
            recognized = cograph_recognize(g)
        finally:
            sys.setrecursionlimit(saved)
        assert format_cotree(recognized) == format_cotree(t)

    def test_equality_hash_and_repr_at_depth(self):
        a, b = self._caterpillar(3000), self._caterpillar(3000)
        assert a is not b and a == b and hash(a) == hash(b)
        assert repr(a) == f"<Cotree {format_cotree(a)}>"
        c = Cotree(union_node(self._caterpillar(2999).codes, leaf(2999)))
        assert a != c

    def test_equality_and_hash_as_before_on_small_trees(self):
        # structurally equal trees compare equal and hash alike, others differ
        trees = [t for n in range(1, 7) for t in all_cotrees(n)]
        rebuilt = [parse_cotree(format_cotree(t)) for t in trees]
        for i, t in enumerate(trees):
            assert t == rebuilt[i] and hash(t) == hash(rebuilt[i])
            for u in trees[i + 1:]:
                assert (t == u) == (format_cotree(t) == format_cotree(u))
