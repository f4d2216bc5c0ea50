"""Simple undirected graphs on dense integer vertices.

Vertices are always 0..n-1.  Graphs are immutable after construction, so
instances can be shared freely between threads and reused as dict keys.

Besides its frozenset adjacency, a graph has one int-bitmask view of it,
``Graph.masks``: bit w of ``masks[v]`` is set when vw is an edge.  Searches
(breadth-first distances, components, complement components) and the
verifiers in :mod:`idcodes.verify` run on the masks, expanding a whole
frontier of vertices per step.
"""

from __future__ import annotations

from collections import deque
from itertools import compress
from typing import Iterable, Iterator

__all__ = [
    "INFINITE",
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
    """Immutable simple undirected graph.

    ``adj[v]`` is the frozenset of v's neighbours.  ``masks[v]`` is the same
    set as an int with bit w set for each neighbour w; it is built on first
    use and cached, like the hash.
    """

    __slots__ = ("n", "adj", "_masks", "_hash")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidVertex(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self.adj: tuple[frozenset[int], ...] = tuple(frozenset(s) for s in adj)
        self._masks = None
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
        adj = tuple(frozenset(bits(m)) for m in masks)
        if any(v not in adj[w] for v in range(n) for w in adj[v]):
            raise GraphError("adjacency masks are not symmetric")
        g = cls.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", adj)
        object.__setattr__(g, "_masks", masks)
        object.__setattr__(g, "_hash", None)
        return g

    @property
    def masks(self) -> tuple[int, ...]:
        """Adjacency as ints: bit w of ``masks[v]`` is set when vw is an edge."""
        if self._masks is None:
            rows = []
            for s in self.adj:
                # One digit per vertex, read lowest bit last as a binary number.
                row = bytearray(b"0" * self.n)
                for w in s:
                    row[w] = 49  # ord("1")
                rows.append(int(row[::-1], 2))
            object.__setattr__(self, "_masks", tuple(rows))
        return self._masks

    # -- basic queries ----------------------------------------------------

    def check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise InvalidVertex(f"vertex {v} out of range for n={self.n}")

    def open_nbhd(self, v: int) -> frozenset[int]:
        """Neighbours of v, excluding v itself."""
        self.check_vertex(v)
        return self.adj[v]

    def closed_nbhd(self, v: int) -> frozenset[int]:
        """Neighbours of v together with v."""
        self.check_vertex(v)
        return self.adj[v] | {v}

    def degree(self, v: int) -> int:
        self.check_vertex(v)
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        self.check_vertex(u)
        self.check_vertex(v)
        return v in self.adj[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges as (u, v) pairs with u < v, sorted."""
        for u in range(self.n):
            for v in sorted(self.adj[u]):
                if u < v:
                    yield (u, v)

    def num_edges(self) -> int:
        return sum(len(s) for s in self.adj) // 2

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.n, self.adj)))
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
        """Parse the `graph <n>` / `e <u> <v>` text format."""
        lines = [ln.strip() for ln in text.splitlines()]
        lines = [ln for ln in lines if ln and not ln.startswith("#")]
        if not lines or not lines[0].startswith("graph"):
            raise GraphFormatError("missing 'graph <n>' header")
        head = lines[0].split()
        if len(head) != 2:
            raise GraphFormatError(f"bad header: {lines[0]!r}")
        try:
            n = int(head[1])
        except ValueError:
            raise GraphFormatError(f"bad vertex count: {head[1]!r}") from None
        edges = []
        seen = set()
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
            if (u, v) in seen:
                raise GraphFormatError(f"duplicate edge ({u},{v})")
            seen.add((u, v))
            edges.append((u, v))
        return cls(n, edges)

    def to_text(self) -> str:
        lines = [f"graph {self.n}"]
        lines.extend(f"e {u} {v}" for u, v in self.edges())
        return "\n".join(lines) + "\n"


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
    """Largest distance between any two vertices of a connected graph."""
    if g.n == 0:
        raise GraphError("diameter of the empty graph is undefined")
    everything = (1 << g.n) - 1
    best = 0
    for v in range(g.n):
        reached, eccentricity = 0, -1
        for layer in _bfs_layers(g.masks, v):
            reached |= layer
            eccentricity += 1
        if reached != everything:
            raise Disconnected("graph is not connected")
        best = max(best, eccentricity)
    return best


def closed_twins(g: Graph) -> list[tuple[int, int]]:
    """All pairs u < v with identical closed neighbourhoods."""
    groups: dict[frozenset[int], list[int]] = {}
    for v in range(g.n):
        groups.setdefault(g.adj[v] | {v}, []).append(v)
    pairs = []
    for members in groups.values():
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                pairs.append((members[i], members[j]))
    return sorted(pairs)


def open_twins(g: Graph) -> list[tuple[int, int]]:
    """All pairs u < v with identical open neighbourhoods."""
    groups: dict[frozenset[int], list[int]] = {}
    for v in range(g.n):
        groups.setdefault(g.adj[v], []).append(v)
    pairs = []
    for members in groups.values():
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                pairs.append((members[i], members[j]))
    return sorted(pairs)


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """Place g2 after g1 with no cross edges; g2's vertex v becomes g1.n + v."""
    shift = g1.n
    edges = list(g1.edges())
    edges.extend((u + shift, v + shift) for u, v in g2.edges())
    return Graph(g1.n + g2.n, edges)


def complete_join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus every edge between the two sides."""
    shift = g1.n
    edges = list(g1.edges())
    edges.extend((u + shift, v + shift) for u, v in g2.edges())
    edges.extend((u, v + shift) for u in range(g1.n) for v in range(g2.n))
    return Graph(g1.n + g2.n, edges)


def complement(g: Graph) -> Graph:
    """Edge present exactly when absent in g."""
    edges = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if v not in g.adj[u]
    ]
    return Graph(g.n, edges)


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
            for w in g.adj[u]:
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
