import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from idcodes import graph as graph_module
from idcodes.graph import (
    MAX_FILE_VERTICES,
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

    def test_header_cap(self):
        g = Graph.from_text(f"graph {MAX_FILE_VERTICES}\ne 0 {MAX_FILE_VERTICES - 1}\n")
        assert g.n == MAX_FILE_VERTICES and g.num_edges() == 1
        # the count is refused before any edge row is read or any mask built
        with mock.patch.object(graph_module, "_edge_masks", None):
            for n in (MAX_FILE_VERTICES + 1, 10**7, 10**20):
                with pytest.raises(MemoryError):
                    Graph.from_text(f"graph {n}\ne 0 x\n")

    def test_all_pairs(self):
        g = path_graph(4)
        dist = all_pairs_distances(g)
        assert dist[0][3] == 3 and dist[2][1] == 1


# -- the bulk parse and the line loop ----------------------------------------


def _line_loop(text: str) -> tuple[int, ...]:
    """Reference reader: the masks of a graph text, read one line at a time
    with the messages and order of ``Graph.from_text``."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    head = lines[0].split() if lines else []
    if not head or head[0] != "graph":
        raise GraphFormatError("missing 'graph <n>' header")
    if len(head) != 2:
        raise GraphFormatError(f"bad header: {lines[0]!r}")
    try:
        n = int(head[1])
    except ValueError:
        raise GraphFormatError(f"bad vertex count: {head[1]!r}") from None
    if n > MAX_FILE_VERTICES:
        raise MemoryError
    masks = [0] * max(n, 0)
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3 or parts[0] != "e":
            raise GraphFormatError(f"bad edge line: {ln!r}")
        try:
            u, v = int(parts[1]), int(parts[2])
        except ValueError:
            raise GraphFormatError(f"bad edge line: {ln!r}") from None
        if not (0 <= u < v < n):
            raise GraphFormatError(f"edge ({u},{v}) violates 0 <= u < v < n")
        if masks[u] >> v & 1:
            raise GraphFormatError(f"duplicate edge ({u},{v})")
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    if n < 0:
        raise GraphError("vertex count must be nonnegative")
    return tuple(masks)


def _outcome(read, text: str) -> tuple:
    """``(None, masks)`` for the masks ``read(text)`` gives, or the type and
    message of the error it raises (no message for ``MemoryError``)."""
    try:
        result = read(text)
    except MemoryError:
        return MemoryError, None
    except GraphError as exc:
        return type(exc), str(exc)
    return None, result.masks if isinstance(result, Graph) else result


class _WatchedLoop:
    """Stands in for ``graph._raise_edge_error``: counts its calls and fails
    the test if the line loop ever returns instead of raising."""

    def __init__(self):
        self.calls = 0
        self.locate = graph_module._raise_edge_error

    def __call__(self, rows, n):
        self.calls += 1
        self.locate(rows, n)
        pytest.fail("the line loop returned on input the bulk parse refused")


def _parse_watched(text: str, block_rows: int = graph_module._BLOCK_ROWS):
    """(outcome of ``Graph.from_text``, calls of the line loop)."""
    loop = _WatchedLoop()
    with mock.patch.object(graph_module, "_raise_edge_error", loop), \
            mock.patch.object(graph_module, "_BLOCK_ROWS", block_rows):
        return _outcome(Graph.from_text, text), loop.calls


PARSE_SEEDS = [
    g.to_text()
    for g in [empty_graph(0), empty_graph(3), path_graph(2), cycle_graph(5), star_graph(4),
              complete_graph(6), k_power_of_path(12, 3)]
    + [random_graph(n, 0.5, random.Random(n)) for n in (7, 11, 14)]
]
# Whitespace that str.split() and str.strip() know, some of it a line break
# for str.splitlines() too.
SPACES = ["\t", "  ", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u2028", "\u3000"]
JUNK = ["E", "ee", "e0", "0e", "x", "1.0", "e e", "graph", "", "#", "0x1", "1e3", "٣"]
DIGITS = {"arabic-indic": 0x660, "fullwidth": 0xFF10, "devanagari": 0x966}


def _retoken(token: str, how: str) -> str:
    if how in DIGITS:
        return "".join(chr(DIGITS[how] + int(c)) if c.isascii() and c.isdigit() else c
                       for c in token)
    if how == "underscore":
        return token[:1] + "_" + token[1:]
    return how + token  # a sign or leading zeros


@st.composite
def mutated_graph_text(draw) -> str:
    lines = draw(st.sampled_from(PARSE_SEEDS)).split("\n")
    for _ in range(draw(st.integers(0, 5))):
        op = draw(st.sampled_from([
            "comment", "blank", "crlf", "space", "pad", "token", "reverse", "repeat",
            "swap", "junk", "drop", "header",
        ]))
        i = draw(st.integers(0, len(lines) - 1))
        parts = lines[i].split(" ")
        if op == "comment":
            lines.insert(i, draw(st.sampled_from(["# c", "  #e 0 1", "#", "\t# graph 2"])))
        elif op == "blank":
            lines.insert(i, draw(st.sampled_from(["", "   ", "\t", "\r"])))
        elif op == "crlf":
            lines[i] += "\r"
        elif op == "space":
            lines[i] = draw(st.sampled_from(SPACES)).join(parts)
        elif op == "pad":
            lines[i] = draw(st.sampled_from(SPACES)) + lines[i] + draw(st.sampled_from(SPACES))
        elif op == "token":
            j = draw(st.integers(0, len(parts) - 1))
            how = draw(st.sampled_from(["+", "-", "0", "00", "underscore", *DIGITS]))
            parts[j] = _retoken(parts[j], how)
            lines[i] = " ".join(parts)
        elif op == "reverse" and len(parts) == 3:
            lines[i] = " ".join([parts[0], parts[2], parts[1]])
        elif op == "repeat":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "junk":
            parts.insert(draw(st.integers(0, len(parts))), draw(st.sampled_from(JUNK)))
            lines[i] = " ".join(parts)
        elif op == "drop":
            del parts[draw(st.integers(0, len(parts) - 1))]
            lines[i] = " ".join(parts)
        elif op == "header":
            lines[0] = draw(st.sampled_from(
                ["graph 0", "graph -1", "graph 5", "graph 20", "graph +14", "graph 1_4",
                 f"graph {MAX_FILE_VERTICES + 1}", "graph", "graph 3 4"]))
    return "\n".join(lines)


class TestBulkParse:
    """``Graph.from_text`` builds every valid file in one bulk pass, block by
    block, and gives exactly the outcome of the line loop on every text."""

    @settings(max_examples=1500, deadline=None, derandomize=True, database=None)
    @given(text=mutated_graph_text(), block_rows=st.sampled_from([1, 2, 3, 4096]))
    def test_same_outcome_as_line_loop(self, text, block_rows):
        outcome, calls = _parse_watched(text, block_rows)
        expected = _outcome(_line_loop, text)
        assert outcome == expected
        if expected[0] is None:
            assert calls == 0  # a valid file never reaches the line loop

    @pytest.mark.parametrize("block_rows", [1, 2, 5, 4096])
    def test_valid_files_skip_the_line_loop(self, block_rows):
        rng = random.Random(19)
        texts = []
        for n in (0, 1, 2, 9, 30, 64):
            g = random_graph(n, rng.random(), rng)
            rows = g.to_text().splitlines()
            texts.append(g.to_text())
            texts.append("# made by hand\n\n" + "\r\n".join(rows) + "\r\n\n# end\n")
            texts.append("\n".join("\t" + "  \t".join(row.split()) + "  " for row in rows))
            shuffled = rows[1:]
            rng.shuffle(shuffled)
            texts.append("\n".join([rows[0], *shuffled]))
            texts.append("\n".join([rows[0]] + ["# " + r + "\n" + r for r in rows[1:]]))
            for text in texts[-5:]:
                assert _parse_watched(text, block_rows) == ((None, g.masks), 0)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("e 0 x", "bad edge line: 'e 0 x'"),
            ("e 0", "bad edge line: 'e 0'"),
            ("e 0 1 2", "bad edge line: 'e 0 1 2'"),
            ("E 0 1", "bad edge line: 'E 0 1'"),
            ("e 0 e0", "bad edge line: 'e 0 e0'"),
            ("e 7 3", "edge (7,3) violates 0 <= u < v < n"),
            ("e 3 3", "edge (3,3) violates 0 <= u < v < n"),
            ("e -1 3", "edge (-1,3) violates 0 <= u < v < n"),
            ("e 0 100", "edge (0,100) violates 0 <= u < v < n"),
            ("e 0 1", "duplicate edge (0,1)"),
        ],
    )
    def test_errors_at_block_boundaries(self, bad, message):
        # K100 has 4950 edges: rows 4095 and 4096 end one block and start the next
        rows = complete_graph(100).to_text().splitlines()
        block = graph_module._BLOCK_ROWS
        for at in (block - 1, block):
            broken = rows[:1 + at] + [bad] + rows[2 + at:]
            text = "\n".join(broken)
            expected = (GraphFormatError, message)
            assert _outcome(_line_loop, text) == expected
            assert _parse_watched(text) == (expected, 1)

    @pytest.mark.parametrize("at", [graph_module._BLOCK_ROWS - 2, graph_module._BLOCK_ROWS - 1])
    def test_row_split_in_two(self, at):
        # 'e a b' / 'e c d' rewritten as 'e a' / 'b e c d': the same six
        # tokens, so inside one block only the check that each row starts
        # with 'e' refuses them
        rows = complete_graph(100).to_text().splitlines()
        (_, a, b), (_, c, d) = rows[1 + at].split(), rows[2 + at].split()
        broken = rows[:1 + at] + [f"e {a}", f"{b} e {c} {d}"] + rows[3 + at:]
        expected = (GraphFormatError, f"bad edge line: 'e {a}'")
        assert _parse_watched("\n".join(broken)) == (expected, 1)
