import itertools
import random
import time
from fractions import Fraction

import pytest

from idcodes.graph import Graph, complete_graph, cycle_graph, empty_graph, path_graph, star_graph
from idcodes.models import (
    DegenerateInterval,
    DuplicateIndex,
    IntervalModel,
    MalformedCotree,
    ModelError,
    ModelFormatError,
    NotCograph,
    PermutationModel,
    all_cotrees,
    canonicalize,
    cograph_recognize,
    complement_cotree,
    cotree_masks,
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
    read_model,
    union_node,
    validate_cotree,
    write_model,
)
from idcodes.graph import closed_twins
from idcodes import verify
from idcodes.verify import ProblemKind


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
        assert verify.check(g, code, ProblemKind.IC)

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

    def test_normalized_segments_equal_positions_rejected(self):
        # equal positions, written as different numbers, get equal ranks
        with pytest.raises(DuplicateIndex, match="top"):
            normalized_segments([(Fraction(1, 2), 0), (Fraction(2, 4), 1), (0, 2)])
        with pytest.raises(DuplicateIndex, match="bottom"):
            normalized_segments([(0, 3), (Fraction(1, 3), Fraction(6, 2)), (1, Fraction(-1, 7))])


def _pair_interval_graph(m):
    """Reference: test every pair for a strict overlap of the open intervals."""
    ivs = m.intervals
    return Graph(len(ivs), [
        (u, v)
        for u, v in itertools.combinations(range(len(ivs)), 2)
        if ivs[u][0] < ivs[v][1] and ivs[v][0] < ivs[u][1]
    ])


def _pair_permutation_graph(m):
    """Reference: test every pair for segments whose two orders disagree."""
    segs = m.segments
    return Graph(len(segs), [
        (u, v)
        for u, v in itertools.combinations(range(len(segs)), 2)
        if (segs[u][0] < segs[v][0]) != (segs[u][1] < segs[v][1])
    ])


class TestSweepsAgainstPairs:
    """The sweeps build the graph the pair definition gives, and their
    adopted masks pass the symmetry and self-loop checks of from_masks."""

    @staticmethod
    def _check(g, reference):
        assert g == reference
        assert Graph.from_masks(g.masks) == g

    def test_all_small_interval_models(self):
        # touching, shared endpoints, nested and identical intervals
        points = [Fraction(i, 2) for i in range(5)]
        intervals = list(itertools.combinations(points, 2))
        count = 0
        for n in range(5):
            for rows in itertools.product(intervals, repeat=n):
                m = IntervalModel(rows)
                self._check(interval_graph(m), _pair_interval_graph(m))
                count += 1
        assert count == 11_111

    def test_all_small_permutation_models(self):
        tops = [5, -3, 11, 0, -7, 2]
        bottoms = [-4, 9, -1, 3, 8, 20]
        count = 0
        for n in range(7):
            for perm in itertools.permutations(bottoms[:n]):
                m = PermutationModel(zip(tops[:n], perm))
                self._check(permutation_graph(m), _pair_permutation_graph(m))
                count += 1
        assert count == 874

    def test_random_models(self):
        rng = random.Random(21)
        for _ in range(500):
            n = rng.randint(0, 60)
            rows = []
            for _ in range(n):
                a = Fraction(rng.randint(-20, 20), rng.randint(1, 4))
                rows.append((a, a + Fraction(rng.randint(1, 20), rng.randint(1, 4))))
            m = IntervalModel(rows)
            self._check(interval_graph(m), _pair_interval_graph(m))
            p = PermutationModel(zip(rng.sample(range(-n, 3 * n), n), rng.sample(range(-2 * n, 2 * n), n)))
            self._check(permutation_graph(p), _pair_permutation_graph(p))


class TestModelScaling:
    N = 4000

    @staticmethod
    def _timed(build, model):
        start = time.monotonic()
        g = build(model)
        assert time.monotonic() - start < 1.0
        return g

    @staticmethod
    def _sample_rows(g, adjacent, rng):
        for v in rng.sample(range(g.n), 40):
            assert g.masks[v] == sum(1 << u for u in range(g.n) if u != v and adjacent(u, v))

    def test_large_interval_model(self):
        rng = random.Random(47)
        rows = []
        for _ in range(self.N):
            a = Fraction(rng.randint(0, 4 * self.N), rng.randint(1, 4))
            rows.append((a, a + Fraction(rng.randint(1, 60), rng.randint(1, 4))))
        g = self._timed(interval_graph, IntervalModel(rows))
        self._sample_rows(g, lambda u, v: rows[u][0] < rows[v][1] and rows[v][0] < rows[u][1], rng)

    def test_large_permutation_model(self):
        rng = random.Random(48)
        segs = list(zip(rng.sample(range(self.N), self.N), rng.sample(range(self.N), self.N)))
        g = self._timed(permutation_graph, PermutationModel(segs))
        self._sample_rows(g, lambda u, v: (segs[u][0] < segs[v][0]) != (segs[u][1] < segs[v][1]), rng)


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
        assert t == union_node(leaf(0), leaf(1), leaf(2))

    def test_canonicalize_drops_a_lone_child_node(self):
        t = canonicalize(join_node(union_node(leaf(0), leaf(1))))
        validate_cotree(t)
        assert t == union_node(leaf(0), leaf(1))

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

    def test_round_trip_random_large(self):
        # shuffled labels, so recognition cannot lean on depth-first order
        rng = random.Random(17)
        for n in (30, 75, 150, 300):
            for _ in range(3):
                g = cotree_to_graph(random_cotree(n, rng))
                perm = list(range(n))
                rng.shuffle(perm)
                g = Graph(n, [(perm[u], perm[v]) for u, v in g.edges()])
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

    def test_adopted_masks_pass_the_symmetry_checks(self):
        # cotree_to_graph skips Graph.from_masks' checks; they must hold anyway
        rng = random.Random(18)
        trees = [t for n in range(1, 9) for t in all_cotrees(n)]
        trees += [random_cotree(rng.randint(9, 60), rng) for _ in range(50)]
        for t in trees:
            assert cotree_to_graph(t) == Graph.from_masks(cotree_masks(t))

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
        assert parse_cotree("0") == leaf(0)

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

    # Exact class and message per bad cotree text; a syntax error wins over
    # a label error, so "(U -1 0" is a format error, not a malformed tree.
    BAD_COTREES = [
        ("", ModelFormatError, "unexpected end of cotree expression"),
        ("(", ModelFormatError, "expected U or J after '('"),
        (")", ModelFormatError, "unexpected ')'"),
        ("(X 0 1)", ModelFormatError, "expected U or J after '('"),
        ("(U 0)", ModelFormatError, "cotree operator needs at least 2 children"),
        ("(U 0 1", ModelFormatError, "missing ')'"),
        ("(U 0 1) 2", ModelFormatError, "trailing tokens after cotree expression"),
        ("(U 0 a)", ModelFormatError, "bad cotree token: 'a'"),
        ("(U 0 2)", MalformedCotree, "leaf labels must be exactly 0..n-1"),
        ("(U 0 0)", MalformedCotree, "leaf labels must be exactly 0..n-1"),
        ("(U -1 0)", MalformedCotree, "leaf labels must be exactly 0..n-1"),
        ("(U -1 0", ModelFormatError, "missing ')'"),
    ]

    @pytest.mark.parametrize("text,error,message", BAD_COTREES)
    def test_bad_cotree_class_and_message(self, text, error, message):
        with pytest.raises(ModelError) as info:
            parse_cotree(text)
        assert type(info.value) is error
        assert str(info.value) == message

    # Exact message per bad interval or permutation text.  A line's tokens are
    # read before its id is checked for a repeat, and a vertex count larger
    # than the rows fails before anything of that size is built.
    BAD_ROW_FILES = [
        (parse_interval_model, "", "missing 'intervals <n>' header"),
        (parse_interval_model, "intervals\n", "bad header: 'intervals'"),
        (parse_interval_model, "intervals two\n", "bad header: 'intervals two'"),
        (parse_interval_model, "intervals 1\n0 1\n", "bad interval line: '0 1'"),
        (parse_interval_model, "intervals 1\nx 0 1\n", "bad interval line: 'x 0 1'"),
        (parse_interval_model, "intervals 2\n0 0 1\n0 1 2\n", "duplicate interval id 0"),
        (parse_interval_model, "intervals 2\n0 0 1\n0 x 2\n", "bad rational: 'x'"),
        (parse_interval_model, "intervals 1\n0 a 1\n", "bad rational: 'a'"),
        (parse_interval_model, "intervals 1\n0 1/0 1\n", "bad rational: '1/0'"),
        (parse_interval_model, "intervals 1\n0 0 1/2/3\n", "bad rational: '1/2/3'"),
        (parse_interval_model, "intervals 2\n0 0 1\n", "interval ids must be exactly 0..n-1"),
        (parse_interval_model, "intervals 1\n1 0 1\n", "interval ids must be exactly 0..n-1"),
        (parse_interval_model, "intervals -1\n0 0 1\n", "interval ids must be exactly 0..n-1"),
        (parse_interval_model, f"intervals {2**62}\n", "interval ids must be exactly 0..n-1"),
        (parse_permutation_model, "", "missing 'permutation <n>' header"),
        (parse_permutation_model, "permutation\n", "bad header: 'permutation'"),
        (parse_permutation_model, "permutation 1.5\n", "bad header: 'permutation 1.5'"),
        (parse_permutation_model, "permutation 1\n0 0\n", "bad segment line: '0 0'"),
        (parse_permutation_model, "permutation 1\nx 0 0\n", "bad segment line: 'x 0 0'"),
        (parse_permutation_model, "permutation 1\n0 0 y\n", "bad segment line: '0 0 y'"),
        (parse_permutation_model, "permutation 2\n0 0 0\n0 x 1\n", "bad segment line: '0 x 1'"),
        (parse_permutation_model, "permutation 2\n0 0 0\n0 1 1\n", "duplicate segment id 0"),
        (parse_permutation_model, "permutation 2\n0 0 0\n", "segment ids must be exactly 0..n-1"),
        (parse_permutation_model, f"permutation {2**62}\n", "segment ids must be exactly 0..n-1"),
    ]

    @pytest.mark.parametrize("parse,text,message", BAD_ROW_FILES)
    def test_bad_row_file_message(self, parse, text, message):
        with pytest.raises(ModelFormatError) as info:
            parse(text)
        assert str(info.value) == message

    def test_graph_write_read_round_trip(self, tmp_path):
        g = path_graph(5)
        path = tmp_path / "p5.graph"
        write_model(g, path)
        assert path.read_text() == g.to_text()
        assert read_model(path) == g

    def test_rational_endpoints(self):
        m = parse_interval_model("intervals 1\n0 1/2 5/2\n")
        assert m.intervals[0] == (Fraction(1, 2), Fraction(5, 2))


class TestVerifyExamples:
    """Cross-module check: the staircase code verifies via the verify module."""

    def test_star_leaves_ld(self):
        g = star_graph(3)
        assert verify.check(g, [1, 2, 3], ProblemKind.LD)

    def test_perm_family_cell_graph(self):
        m = PermutationModel([(0, 1), (1, 0)])
        assert verify.check(permutation_graph(m), [0, 1], ProblemKind.OLD)
