"""Simple undirected graphs on dense integer vertices.

Vertices are always 0..n-1.  Graphs are immutable after construction, so
instances can be shared freely between threads and reused as dict keys.

A graph stores its adjacency once, as int bitmasks, ``Graph.masks``: bit w
of ``masks[v]`` is set when vw is an edge.  Every constructor builds the
masks directly, and searches (breadth-first distances, components,
complement components), twin detection and the verifiers in
:mod:`idcodes.verify` run on them, expanding a whole frontier of vertices
per step.  ``Graph.adj`` is a frozenset view derived from the masks on
demand.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations, compress
from operator import lt
from typing import Iterable, Iterator

__all__ = [
    "INFINITE",
    "MAX_FILE_VERTICES",
    "Graph",
    "GraphError",
    "InvalidVertex",
    "Disconnected",
    "GraphFormatError",
    "bits",
    "mask_components",
    "mask_distances",
    "bfs_distances",
    "all_pairs_distances",
    "diameter",
    "closed_twins",
    "open_twins",
    "disjoint_union",
    "complete_join",
    "complement",
    "connected_components",
    "is_connected",
    "bipartition",
    "empty_graph",
    "complete_graph",
    "path_graph",
    "cycle_graph",
    "star_graph",
]

# Marker for unreachable vertices in distance vectors.
INFINITE = -1


class GraphError(Exception):
    """Base class for graph-domain errors."""


class InvalidVertex(GraphError):
    """A vertex index is outside 0..n-1."""


class Disconnected(GraphError):
    """The operation requires a connected graph."""


class GraphFormatError(GraphError):
    """A graph text file does not follow the expected format."""


class Graph:
    """Immutable simple undirected graph stored as adjacency masks.

    ``masks[v]`` is an int with bit w set for each neighbour w of v; it is
    the only adjacency a graph stores.  ``adj[v]``, the frozenset of v's
    neighbours, is a read-only view derived from the masks on first use and
    cached, like the hash.
    """

    __slots__ = ("n", "masks", "_adj", "_hash")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        masks = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidVertex(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self.n = n
        self.masks: tuple[int, ...] = tuple(masks)
        self._adj = None
        self._hash = None

    @classmethod
    def from_masks(cls, masks: Iterable[int]) -> "Graph":
        """The graph whose adjacency masks are `masks` (see :attr:`masks`)."""
        masks = tuple(masks)
        n = len(masks)
        for v, m in enumerate(masks):
            if m < 0 or m >> n:
                raise InvalidVertex(f"mask of vertex {v} out of range for n={n}")
            if m >> v & 1:
                raise GraphError(f"self-loop at vertex {v}")
        if any(not masks[w] >> v & 1 for v, m in enumerate(masks) for w in bits(m)):
            raise GraphError("adjacency masks are not symmetric")
        return cls._adopt(masks)

    @classmethod
    def _adopt(cls, masks: tuple[int, ...]) -> "Graph":
        """A graph on masks already known to be symmetric and loop-free."""
        g = cls.__new__(cls)
        object.__setattr__(g, "n", len(masks))
        object.__setattr__(g, "masks", masks)
        object.__setattr__(g, "_adj", None)
        object.__setattr__(g, "_hash", None)
        return g

    @property
    def adj(self) -> tuple[frozenset[int], ...]:
        """Neighbour sets, derived from :attr:`masks`: ``adj[v]`` holds v's neighbours."""
        if self._adj is None:
            object.__setattr__(self, "_adj", tuple(frozenset(bits(m)) for m in self.masks))
        return self._adj

    # -- basic queries ----------------------------------------------------

    def check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise InvalidVertex(f"vertex {v} out of range for n={self.n}")

    def open_nbhd(self, v: int) -> frozenset[int]:
        """Neighbours of v, excluding v itself."""
        self.check_vertex(v)
        return frozenset(bits(self.masks[v]))

    def closed_nbhd(self, v: int) -> frozenset[int]:
        """Neighbours of v together with v."""
        self.check_vertex(v)
        return frozenset(bits(self.masks[v] | 1 << v))

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges as (u, v) pairs with u < v, sorted."""
        for u, m in enumerate(self.masks):
            for w in bits(m >> u + 1):
                yield (u, u + 1 + w)

    def num_edges(self) -> int:
        return sum(m.bit_count() for m in self.masks) // 2

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.masks == other.masks

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self.masks))
        return self._hash

    def __setattr__(self, name, value):
        # Write access is only allowed while __init__ runs.
        if hasattr(self, "_hash") and name != "_hash":
            raise AttributeError("Graph instances are immutable")
        object.__setattr__(self, name, value)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges()})"

    # -- text format -------------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "Graph":
        """Parse the `graph <n>` / `e <u> <v>` text format.

        Blank lines and lines starting with ``#`` are skipped.  A header
        above :data:`MAX_FILE_VERTICES` raises ``MemoryError`` before
        anything is allocated.  The edge rows are read in blocks of
        ``_BLOCK_ROWS`` by :func:`_edge_masks`; only a file it refuses goes
        through :func:`_raise_edge_error`, which names the first bad line.
        """
        rows = list(filter(None, map(str.strip, text.splitlines())))
        if "#" in text:
            rows = [ln for ln in rows if ln[0] != "#"]
        header = rows.pop(0) if rows else ""
        head = header.split()
        if not head or head[0] != "graph":
            raise GraphFormatError("missing 'graph <n>' header")
        if len(head) != 2:
            raise GraphFormatError(f"bad header: {header!r}")
        try:
            n = int(head[1])
        except ValueError:
            raise GraphFormatError(f"bad vertex count: {head[1]!r}") from None
        if n > MAX_FILE_VERTICES:
            raise MemoryError(f"graph files hold at most {MAX_FILE_VERTICES} vertices, not {n}")
        masks = _edge_masks(rows, n)
        if masks is None:
            _raise_edge_error(rows, n)
        if n < 0:
            # Graph(n) rejects the count; bad edge lines were reported first.
            return cls(n)
        return cls._adopt(tuple(masks))

    def to_text(self) -> str:
        lines = [f"graph {self.n}"]
        lines.extend(f"e {u} {v}" for u, v in self.edges())
        return "\n".join(lines) + "\n"


# -- graph files -------------------------------------------------------------

# The largest vertex count a graph file may declare: desk-scale graphs of a
# few thousand vertices fit with room to spare, and a one-line header can no
# longer claim any memory it likes.
MAX_FILE_VERTICES = 1 << 16

# Edge rows per bulk block: the tokens of one block are held at a time.
_BLOCK_ROWS = 4096


def _edge_masks(rows: list[str], n: int) -> list[int] | None:
    """The adjacency masks of ``rows`` when every row is exactly ``e u v``
    with ``0 <= u < v < n`` and no edge appears twice, else None.

    Per block of rows: one split into tokens, one ``int`` per distinct
    vertex token, and C-level checks: ``min``/``max`` over the distinct
    vertices, ``u < v`` over the rows.  A block has exactly ``e u v`` rows
    when every row starts with ``e``, there are 3k tokens for its k rows and
    every third token is ``e``: ``int`` rejects a token starting with ``e``,
    so each row's ``e`` sits at a multiple of three.  A repeated edge shows
    at the end, as fewer than 2m bits over the masks of m rows.
    """
    masks = [0] * n
    for start in range(0, len(rows), _BLOCK_ROWS):
        chunk = rows[start:start + _BLOCK_ROWS]
        k = len(chunk)
        block = "\n".join(chunk)
        tokens = block.split()
        if (block[0] != "e" or block.count("\ne") != k - 1 or len(tokens) != 3 * k
                or tokens[0::3].count("e") != k):
            return None
        heads, tails = tokens[1::3], tokens[2::3]
        names = set(heads).union(tails)
        try:
            value = dict(zip(names, map(int, names)))
        except ValueError:
            return None
        if min(value.values()) < 0 or max(value.values()) >= n:
            return None
        us = list(map(value.__getitem__, heads))
        vs = list(map(value.__getitem__, tails))
        if not all(map(lt, us, vs)):
            return None
        for u, v in zip(us, vs):
            masks[u] |= 1 << v
            masks[v] |= 1 << u
    if sum(map(int.bit_count, masks)) != 2 * len(rows):
        return None
    return masks


def _raise_edge_error(rows: list[str], n: int) -> None:
    """Raise the error of the first bad row of edge ``rows`` that
    :func:`_edge_masks` refused, reading them one line at a time."""
    masks = [0] * n
    for ln in rows:
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


# -- traversal and metric helpers ------------------------------------------


_DIGIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def bits(m: int) -> list[int]:
    """Positions of the set bits of a nonnegative int, in increasing order."""
    digits = bin(m)[:1:-1].encode().translate(_DIGIT_VALUES)  # lowest bit first
    return list(compress(range(len(digits)), digits))


def _bfs_layers(masks: tuple[int, ...], v: int) -> Iterator[int]:
    """Vertex masks of the vertices at distance 0, 1, 2, ... from v."""
    frontier = 1 << v
    unseen = ((1 << len(masks)) - 1) ^ frontier
    while frontier:
        yield frontier
        reach = 0
        for u in bits(frontier):
            reach |= masks[u]
            if reach & unseen == unseen:
                break
        frontier = reach & unseen
        unseen ^= frontier


def mask_distances(masks: tuple[int, ...], v: int) -> tuple[int, ...]:
    """Breadth-first distances from v over adjacency masks (INFINITE if unreachable)."""
    dist = [INFINITE] * len(masks)
    for d, layer in enumerate(_bfs_layers(masks, v)):
        for u in bits(layer):
            dist[u] = d
    return tuple(dist)


def bfs_distances(g: Graph, v: int) -> tuple[int, ...]:
    """Breadth-first distances from v; unreachable vertices get INFINITE."""
    g.check_vertex(v)
    return mask_distances(g.masks, v)


def all_pairs_distances(g: Graph) -> list[tuple[int, ...]]:
    """One BFS distance vector per source vertex."""
    return [bfs_distances(g, v) for v in range(g.n)]


def diameter(g: Graph) -> int:
    """Largest distance between any two vertices of a connected graph.

    The iFUB scheme (Crescenzi, Grossi, Habib, Lanzi, Marino, TCS 514,
    2013): a double sweep 0 -> a -> b gives the lower bound lb = ecc(b) and
    a vertex u halfway along a shortest a-b path.  The levels L_e, ..., L_1
    of a search from u are then taken from the farthest in, each raising lb
    to its vertices' eccentricities.  Two vertices in levels <= i are at
    most 2i apart, so once lb >= 2i, lb is the diameter.
    """
    if g.n == 0:
        raise GraphError("diameter of the empty graph is undefined")
    masks = g.masks
    layers = list(_bfs_layers(masks, 0))
    if sum(layers) != (1 << g.n) - 1:
        raise Disconnected("graph is not connected")
    # a and b: the lowest vertices farthest from 0 and from a
    layers_a = list(_bfs_layers(masks, bits(layers[-1])[0]))
    layers_b = list(_bfs_layers(masks, bits(layers_a[-1])[0]))
    d_ab = len(layers_a) - 1
    u = bits(layers_a[d_ab // 2] & layers_b[d_ab - d_ab // 2])[0]
    levels = list(_bfs_layers(masks, u))
    lb = len(layers_b) - 1
    for i in range(len(levels) - 1, 0, -1):
        if lb >= 2 * i:
            break
        for x in bits(levels[i]):
            lb = max(lb, sum(1 for _ in _bfs_layers(masks, x)) - 1)
    return lb


def _equal_pairs(keys: Iterable) -> list[tuple[int, int]]:
    """All pairs u < v of positions holding equal keys, sorted."""
    groups: dict = {}
    for v, key in enumerate(keys):
        groups.setdefault(key, []).append(v)
    return sorted(pair for members in groups.values() for pair in combinations(members, 2))


def closed_twins(g: Graph) -> list[tuple[int, int]]:
    """All pairs u < v with identical closed neighbourhoods."""
    return _equal_pairs(m | 1 << v for v, m in enumerate(g.masks))


def open_twins(g: Graph) -> list[tuple[int, int]]:
    """All pairs u < v with identical open neighbourhoods."""
    return _equal_pairs(g.masks)


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """Place g2 after g1 with no cross edges; g2's vertex v becomes g1.n + v."""
    return Graph.from_masks(g1.masks + tuple(m << g1.n for m in g2.masks))


def complete_join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus every edge between the two sides."""
    left, right = (1 << g1.n) - 1, ((1 << g2.n) - 1) << g1.n
    return Graph.from_masks(
        tuple(m | right for m in g1.masks) + tuple(m << g1.n | left for m in g2.masks)
    )


def complement(g: Graph) -> Graph:
    """Edge present exactly when absent in g."""
    everything = (1 << g.n) - 1
    return Graph.from_masks(everything ^ m ^ 1 << v for v, m in enumerate(g.masks))


def mask_components(masks: tuple[int, ...], within: int, co: bool = False) -> list[int]:
    """Components of the subgraph induced by the vertex mask `within`.

    With ``co=True`` they are the components of its complement: a frontier
    vertex u reaches the unvisited vertices outside ``masks[u]``.  Components
    come as vertex masks, ordered by their smallest vertex.
    """
    comps = []
    rest = within
    while rest:
        comp = frontier = rest & -rest
        rest ^= frontier
        while frontier and rest:
            found = 0
            for u in bits(frontier):
                step = rest & ~masks[u] if co else rest & masks[u]
                if step:
                    found |= step
                    rest ^= step
                    if not rest:
                        break
            comp |= found
            frontier = found
        comps.append(comp)
    return comps


def connected_components(g: Graph) -> list[frozenset[int]]:
    """Partition of the vertices by reachability, ordered by smallest member."""
    return [
        frozenset(bits(comp))
        for comp in mask_components(g.masks, (1 << g.n) - 1)
    ]


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(connected_components(g)) == 1


def bipartition(g: Graph) -> tuple[frozenset[int], frozenset[int]] | None:
    """A 2-colouring (sides as vertex sets), or None if an odd cycle exists."""
    colour = [-1] * g.n
    for start in range(g.n):
        if colour[start] != -1:
            continue
        colour[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in bits(g.masks[u]):
                if colour[w] == -1:
                    colour[w] = 1 - colour[u]
                    queue.append(w)
                elif colour[w] == colour[u]:
                    return None
    side0 = frozenset(v for v in range(g.n) if colour[v] == 0)
    side1 = frozenset(v for v in range(g.n) if colour[v] == 1)
    return side0, side1


# -- small named constructors -----------------------------------------------


def empty_graph(n: int) -> Graph:
    return Graph(n)


def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycles need at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    """Centre 0 joined to `leaves` leaf vertices."""
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])
