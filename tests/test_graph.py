import random
import re

import pytest

from idcodes.graph import (
    Disconnected,
    Graph,
    GraphError,
    GraphFormatError,
    INFINITE,
    InvalidVertex,
    all_pairs_distances,
    bfs_distances,
    bipartition,
    bits,
    closed_twins,
    complement,
    complete_graph,
    complete_join,
    connected_components,
    cycle_graph,
    diameter,
    disjoint_union,
    empty_graph,
    open_twins,
    path_graph,
    star_graph,
)


def k_power_of_path(n, k):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, min(i + k + 1, n))])


def random_edges(n, p, rng):
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def random_graph(n, p, rng):
    return Graph(n, random_edges(n, p, rng))


class TestNeighbourhoods:
    def test_open_nbhd(self):
        p3 = path_graph(3)
        assert p3.open_nbhd(1) == {0, 2}
        assert empty_graph(2).open_nbhd(0) == frozenset()
        assert complete_graph(3).open_nbhd(0) == {1, 2}

    def test_closed_nbhd(self):
        assert path_graph(3).closed_nbhd(1) == {0, 1, 2}
        assert empty_graph(2).closed_nbhd(0) == {0}
        assert cycle_graph(4).closed_nbhd(0) == {0, 1, 3}

    def test_out_of_range(self):
        with pytest.raises(InvalidVertex):
            path_graph(3).open_nbhd(3)
        with pytest.raises(InvalidVertex):
            path_graph(3).closed_nbhd(-1)


class TestDistances:
    def test_bfs(self):
        assert bfs_distances(path_graph(3), 0) == (0, 1, 2)
        assert bfs_distances(empty_graph(2), 0) == (0, INFINITE)
        assert bfs_distances(cycle_graph(4), 0) == (0, 1, 2, 1)

    def test_diameter(self):
        assert diameter(cycle_graph(4)) == 2
        assert diameter(path_graph(5)) == 4
        # square of a path on 7 vertices: hops of size <= 2
        assert diameter(k_power_of_path(7, 2)) == 3

    def test_diameter_disconnected(self):
        with pytest.raises(Disconnected):
            diameter(empty_graph(2))

    def test_bfs_matches_floyd_warshall(self):
        rng = random.Random(42)
        for _ in range(60):
            n = rng.randint(1, 8)
            g = random_graph(n, rng.random(), rng)
            dist = [[0 if i == j else None for j in range(n)] for i in range(n)]
            for u in range(n):
                for v in g.adj[u]:
                    dist[u][v] = 1
            big = n + 1
            d = [[dist[i][j] if dist[i][j] is not None else big for j in range(n)] for i in range(n)]
            for m in range(n):
                for i in range(n):
                    for j in range(n):
                        if d[i][m] + d[m][j] < d[i][j]:
                            d[i][j] = d[i][m] + d[m][j]
            for v in range(n):
                got = bfs_distances(g, v)
                want = tuple(d[v][j] if d[v][j] < big else INFINITE for j in range(n))
                assert got == want


class TestTwins:
    def test_closed_twins(self):
        assert closed_twins(complete_graph(2)) == [(0, 1)]
        assert closed_twins(cycle_graph(4)) == []
        assert closed_twins(empty_graph(2)) == []

    def test_open_twins(self):
        assert open_twins(empty_graph(2)) == [(0, 1)]
        assert open_twins(path_graph(3)) == [(0, 2)]
        assert open_twins(path_graph(4)) == []


class TestOperations:
    def test_disjoint_union(self):
        g = disjoint_union(complete_graph(1), complete_graph(1))
        assert g == empty_graph(2)
        g = disjoint_union(complete_graph(2), complete_graph(1))
        assert g.n == 3 and g.num_edges() == 1
        assert disjoint_union(empty_graph(2), empty_graph(2)) == empty_graph(4)

    def test_complete_join(self):
        c4 = complete_join(empty_graph(2), empty_graph(2))
        # relabelled 4-cycle: 0-2-1-3-0
        assert c4.n == 4 and c4.num_edges() == 4
        assert sorted(c4.adj[0]) == [2, 3]
        assert complete_join(complete_graph(1), complete_graph(1)) == complete_graph(2)
        assert complete_join(complete_graph(1), empty_graph(2)) == star_graph(2)

    def test_join_edge_count(self):
        rng = random.Random(1)
        for _ in range(20):
            g1 = random_graph(rng.randint(0, 6), 0.5, rng)
            g2 = random_graph(rng.randint(0, 6), 0.5, rng)
            j = complete_join(g1, g2)
            assert j.n == g1.n + g2.n
            assert j.num_edges() == g1.num_edges() + g2.num_edges() + g1.n * g2.n

    def test_join_diameter_at_most_two(self):
        rng = random.Random(2)
        for _ in range(30):
            g1 = random_graph(rng.randint(1, 6), 0.4, rng)
            g2 = random_graph(rng.randint(1, 6), 0.4, rng)
            assert diameter(complete_join(g1, g2)) <= 2

    def test_complement(self):
        assert complement(empty_graph(3)) == complete_graph(3)
        co = complement(cycle_graph(4))
        # the complement of the 4-cycle is a perfect matching
        assert co.num_edges() == 2 and all(len(co.adj[v]) == 1 for v in range(4))
        p4 = path_graph(4)
        assert complement(complement(p4)) == p4

    def test_operations_match_edge_lists_random(self):
        rng = random.Random(5)
        for _ in range(50):
            n1, n2 = rng.randint(0, 20), rng.randint(0, 20)
            e1, e2 = random_edges(n1, rng.random(), rng), random_edges(n2, rng.random(), rng)
            g1, g2 = Graph(n1, e1), Graph(n2, e2)
            shifted = [(u + n1, v + n1) for u, v in e2]
            cross = [(u, n1 + v) for u in range(n1) for v in range(n2)]
            assert disjoint_union(g1, g2) == Graph(n1 + n2, e1 + shifted)
            assert complete_join(g1, g2) == Graph(n1 + n2, e1 + shifted + cross)
            present = set(e1)
            missing = [(u, v) for u in range(n1) for v in range(u + 1, n1) if (u, v) not in present]
            assert complement(g1) == Graph(n1, missing)

    def test_complement_involution_random(self):
        rng = random.Random(3)
        for _ in range(30):
            g = random_graph(rng.randint(0, 8), rng.random(), rng)
            assert complement(complement(g)) == g

    def test_connected_components(self):
        assert connected_components(empty_graph(3)) == [
            frozenset([0]),
            frozenset([1]),
            frozenset([2]),
        ]
        assert connected_components(cycle_graph(4)) == [frozenset(range(4))]
        g = disjoint_union(complete_graph(2), complete_graph(1))
        assert connected_components(g) == [frozenset([0, 1]), frozenset([2])]

    def test_bipartition(self):
        sides = bipartition(path_graph(4))
        assert sides is not None and set().union(*sides) == set(range(4))
        assert bipartition(complete_graph(3)) is None


class TestConstruction:
    def test_no_self_loops(self):
        with pytest.raises(Exception):
            Graph(2, [(0, 0)])

    def test_symmetry_invariant(self):
        rng = random.Random(4)
        for _ in range(20):
            g = random_graph(rng.randint(1, 8), 0.5, rng)
            for u in range(g.n):
                for v in g.adj[u]:
                    assert u in g.adj[v]
                assert u not in g.adj[u]

    def test_immutability(self):
        g = path_graph(3)
        with pytest.raises(AttributeError):
            g.n = 5
        with pytest.raises(AttributeError):
            g.masks = (0, 0, 0)

    @pytest.mark.parametrize(
        "masks, cls, message",
        [
            ((-1, 0), InvalidVertex, "mask of vertex 0 out of range for n=2"),
            ((0, 0b100), InvalidVertex, "mask of vertex 1 out of range for n=2"),
            ((0, 0b10), GraphError, "self-loop at vertex 1"),
            ((0b10, 0), GraphError, "adjacency masks are not symmetric"),
        ],
    )
    def test_from_masks_rejects(self, masks, cls, message):
        with pytest.raises(cls, match=f"^{re.escape(message)}$") as caught:
            Graph.from_masks(masks)
        assert type(caught.value) is cls

    def test_constructors_agree_random(self):
        rng = random.Random(6)
        for _ in range(50):
            n = rng.randint(0, 40)
            g = Graph(n, random_edges(n, rng.random(), rng))
            for h in (Graph.from_masks(g.masks), Graph.from_text(g.to_text())):
                assert h == g and hash(h) == hash(g)
            assert all(g.adj[v] == frozenset(bits(m)) for v, m in enumerate(g.masks))


class TestTextFormat:
    def test_round_trip(self):
        g = cycle_graph(5)
        assert Graph.from_text(g.to_text()) == g

    def test_comments_ignored(self):
        g = Graph.from_text("# a comment\ngraph 3\ne 0 1\n# another\ne 1 2\n")
        assert g == path_graph(3)

    def test_bad_header(self):
        with pytest.raises(GraphFormatError):
            Graph.from_text("graf 3\n")

    def test_bad_edge_order(self):
        with pytest.raises(GraphFormatError):
            Graph.from_text("graph 3\ne 1 0\n")

    def test_duplicate_edge(self):
        with pytest.raises(GraphFormatError):
            Graph.from_text("graph 3\ne 0 1\ne 0 1\n")

    @pytest.mark.parametrize(
        "text, cls, message",
        [
            ("graph -1\n", GraphError, "vertex count must be nonnegative"),
            ("graph -1\ne 0 1\n", GraphFormatError, "edge (0,1) violates 0 <= u < v < n"),
            ("graph 3\ne 0 1\ne 0 1\n", GraphFormatError, "duplicate edge (0,1)"),
            ("graph 3\ne 1 0\n", GraphFormatError, "edge (1,0) violates 0 <= u < v < n"),
            ("graph 3\ne 0 x\n", GraphFormatError, "bad edge line: 'e 0 x'"),
            ("e 0 1\n", GraphFormatError, "missing 'graph <n>' header"),
            ("graphite 2\n", GraphFormatError, "missing 'graph <n>' header"),
        ],
    )
    def test_bad_text_class_and_message(self, text, cls, message):
        with pytest.raises(cls, match=f"^{re.escape(message)}$") as caught:
            Graph.from_text(text)
        assert type(caught.value) is cls

    def test_all_pairs(self):
        g = path_graph(4)
        dist = all_pairs_distances(g)
        assert dist[0][3] == 3 and dist[2][1] == 1
