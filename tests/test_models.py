import random
from fractions import Fraction

import pytest

from idcodes.graph import complete_graph, cycle_graph, empty_graph, path_graph, star_graph
from idcodes.models import (
    DegenerateInterval,
    DuplicateIndex,
    IntervalModel,
    Leaf,
    MalformedCotree,
    ModelFormatError,
    NotCograph,
    PermutationModel,
    all_cotrees,
    canonicalize,
    cograph_recognize,
    complement_cotree,
    cotree_to_graph,
    format_cotree,
    format_interval_model,
    format_permutation_model,
    interval_graph,
    is_unit_model,
    join_node,
    leaf,
    normalized_segments,
    parse_cotree,
    parse_interval_model,
    parse_model,
    parse_permutation_model,
    permutation_graph,
    random_cotree,
    random_twin_free_cotree,
    union_node,
    validate_cotree,
)
from idcodes.graph import closed_twins
from idcodes import verify


class TestIntervalGraph:
    def test_overlap(self):
        m = IntervalModel([(0, 2), (1, 3)])
        assert interval_graph(m) == complete_graph(2)

    def test_touching_open_intervals_not_adjacent(self):
        m = IntervalModel([(0, 1), (1, 2)])
        assert interval_graph(m) == empty_graph(2)

    def test_staircase_family_has_identifying_code(self):
        # all intervals ]i,j[ over 5 points; the four unit steps identify
        rows = [(i, j) for i in range(1, 5) for j in range(i + 1, 6)]
        code = [idx for idx, (i, j) in enumerate(rows) if j == i + 1]
        g = interval_graph(IntervalModel(rows))
        assert g.n == 10
        assert verify.is_identifying_code(g, code)

    def test_degenerate(self):
        with pytest.raises(DegenerateInterval):
            IntervalModel([(1, 1)])

    def test_unit_model(self):
        assert is_unit_model(IntervalModel([(0, 1), (Fraction(1, 2), Fraction(3, 2))]))
        assert not is_unit_model(IntervalModel([(0, 2)]))

    def test_offset_invariance(self):
        rng = random.Random(11)
        for _ in range(1000):
            n = rng.randint(1, 20)
            rows = []
            for _ in range(n):
                a = Fraction(rng.randint(0, 40), rng.randint(1, 4))
                rows.append((a, a + Fraction(rng.randint(1, 30), rng.randint(1, 4))))
            off = Fraction(rng.randint(-20, 20), rng.randint(1, 5))
            g1 = interval_graph(IntervalModel(rows))
            g2 = interval_graph(IntervalModel([(a + off, b + off) for a, b in rows]))
            assert g1 == g2
            for u in range(n):
                assert u not in g1.adj[u]


class TestPermutationGraph:
    def test_crossing(self):
        assert permutation_graph(PermutationModel([(0, 1), (1, 0)])) == complete_graph(2)
        assert permutation_graph(PermutationModel([(0, 0), (1, 1)])) == empty_graph(2)

    def test_three_segments_path(self):
        g = permutation_graph(PermutationModel([(0, 1), (1, 2), (2, 0)]))
        # segment 2 crosses both others, 0 and 1 are parallel
        assert sorted(g.adj[2]) == [0, 1] and g.num_edges() == 2

    def test_duplicate_index(self):
        with pytest.raises(DuplicateIndex):
            PermutationModel([(0, 1), (0, 2)])

    def test_swap_lines_keeps_graph(self):
        rng = random.Random(12)
        for _ in range(1000):
            n = rng.randint(1, 12)
            tops = rng.sample(range(3 * n), n)
            bots = rng.sample(range(3 * n), n)
            m1 = PermutationModel(zip(tops, bots))
            m2 = PermutationModel(zip(bots, tops))
            assert permutation_graph(m1) == permutation_graph(m2)

    def test_normalized_segments(self):
        m = normalized_segments([(Fraction(1, 2), 7), (Fraction(-3, 2), 0)])
        assert m.segments == ((1, 1), (0, 0))


class TestCotree:
    def test_c4(self):
        t = join_node(union_node(leaf(0), leaf(1)), union_node(leaf(2), leaf(3)))
        g = cotree_to_graph(t)
        assert g.n == 4 and g.num_edges() == 4
        assert sorted(g.adj[0]) == [2, 3]

    def test_leaf(self):
        assert cotree_to_graph(leaf(0)) == complete_graph(1)

    def test_union(self):
        assert cotree_to_graph(union_node(leaf(0), leaf(1), leaf(2))) == empty_graph(3)

    def test_malformed(self):
        with pytest.raises(MalformedCotree):
            validate_cotree(union_node(leaf(0), union_node(leaf(1), leaf(2))))
        with pytest.raises(MalformedCotree):
            validate_cotree(union_node(leaf(0), leaf(2)))

    def test_canonicalize_merges_chains(self):
        t = canonicalize(union_node(leaf(0), union_node(leaf(1), leaf(2))))
        validate_cotree(t)
        assert len(t.children) == 3

    def test_recognize_c4(self):
        t = cograph_recognize(cycle_graph(4))
        assert cotree_to_graph(t) == cycle_graph(4)

    def test_recognize_p4_fails(self):
        with pytest.raises(NotCograph):
            cograph_recognize(path_graph(4))

    def test_recognize_independent(self):
        t = cograph_recognize(empty_graph(3))
        assert format_cotree(t) == "(U 0 1 2)"

    def test_round_trip_all_small(self):
        for n in range(1, 9):
            for t in all_cotrees(n):
                g = cotree_to_graph(t)
                assert cotree_to_graph(cograph_recognize(g)) == g

    def test_round_trip_random_10(self):
        rng = random.Random(13)
        for _ in range(100):
            t = random_cotree(rng.randint(9, 10), rng)
            g = cotree_to_graph(t)
            assert cotree_to_graph(cograph_recognize(g)) == g

    def test_cotree_file_comments(self):
        assert parse_cotree("# a comment\n(U 0 1)\n") == union_node(leaf(0), leaf(1))

    def test_complement_cotree(self):
        rng = random.Random(14)
        from idcodes.graph import complement

        for _ in range(30):
            t = random_cotree(rng.randint(1, 9), rng)
            assert cotree_to_graph(complement_cotree(t)) == complement(cotree_to_graph(t))

    def test_twin_free_sampler(self):
        rng = random.Random(15)
        for _ in range(50):
            t = random_twin_free_cotree(rng.randint(1, 20), rng)
            assert closed_twins(cotree_to_graph(t)) == []

    def test_all_cotrees_counts(self):
        # one shape per unlabelled cograph
        assert [len(all_cotrees(n)) for n in range(1, 8)] == [1, 2, 4, 10, 24, 66, 180]


class TestFileFormats:
    def test_interval_round_trip(self):
        m = IntervalModel([(0, 1), (Fraction(1, 2), Fraction(5, 2))])
        assert parse_interval_model(format_interval_model(m)) == m

    def test_permutation_round_trip(self):
        m = PermutationModel([(0, 3), (2, 1), (5, 4)])
        assert parse_permutation_model(format_permutation_model(m)) == m

    def test_cotree_round_trip(self):
        t = parse_cotree("(J (U 0 1) (U 2 3))")
        assert parse_cotree(format_cotree(t)) == t

    def test_cotree_single_leaf(self):
        assert parse_cotree("0") == Leaf(0)

    def test_parse_model_dispatch(self):
        assert isinstance(parse_model("graph 1\n"), object)
        assert isinstance(parse_model("intervals 1\n0 0 1\n"), IntervalModel)
        assert isinstance(parse_model("permutation 1\n0 0 0\n"), PermutationModel)
        assert parse_model("(U 0 1)") == union_node(leaf(0), leaf(1))

    def test_bad_files(self):
        with pytest.raises(ModelFormatError):
            parse_interval_model("intervals 2\n0 0 1\n")  # missing id 1
        with pytest.raises(ModelFormatError):
            parse_interval_model("intervals 2\nx 0 2\n1 1 3\n")  # non-integer id
        with pytest.raises(ModelFormatError):
            parse_permutation_model("permutation 1\n0 0\n")
        with pytest.raises(ModelFormatError):
            parse_cotree("(X 0 1)")
        with pytest.raises(ModelFormatError):
            parse_model("nonsense\n")

    def test_rational_endpoints(self):
        m = parse_interval_model("intervals 1\n0 1/2 5/2\n")
        assert m.intervals[0] == (Fraction(1, 2), Fraction(5, 2))


class TestVerifyExamples:
    """Cross-module check: the staircase code verifies via the verify module."""

    def test_star_leaves_ld(self):
        g = star_graph(3)
        assert verify.is_locating_dominating(g, [1, 2, 3])

    def test_perm_family_cell_graph(self):
        m = PermutationModel([(0, 1), (1, 0)])
        assert verify.is_open_locating_dominating(permutation_graph(m), [0, 1])
