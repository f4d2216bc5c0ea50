"""Reference graph kernels and test-data builders for the tests.

``diameter_all_sources`` is the diameter by one breadth-first search from
every vertex, as ``graph.diameter`` computed it before it stopped early on
the iFUB bounds.  ``deque_bipartition`` and ``pair_distance_masks`` are the
queue search and the per-pair distance comparison that ``graph.bipartition``
and the exact oracle's resolving pairs replaced with breadth-first layers.
``pair_interval_graph`` tests every pair of intervals for an overlap on
Fraction endpoints, which ``models.interval_graph`` replaced with one sweep
over integer keys.  The tests compare each with the package on values and
errors.  The rest
build and inspect test graphs: named graphs, union, join, complement, twin
lists and a mask constructor that checks its input.
"""

from collections import deque
from fractions import Fraction
from itertools import combinations

from idcodes.graph import (
    Disconnected,
    Graph,
    GraphError,
    InvalidVertex,
    _bfs_layers,
    bits,
    mask_components,
    mask_distances,
)


def diameter_all_sources(g):
    """Largest eccentricity over every vertex; the same errors as
    ``graph.diameter``."""
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


def deque_bipartition(g):
    """A 2-colouring by a queue search from each uncoloured vertex, or None
    if an odd cycle exists."""
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


def pair_distance_masks(g):
    """For each pair u < v, the vertices x with d(x, u) != d(x, v), from one
    distance vector per vertex."""
    dist = [mask_distances(g.masks, v) for v in range(g.n)]
    return [
        sum(1 << x for x in range(g.n) if dist[x][u] != dist[x][v])
        for u, v in combinations(range(g.n), 2)
    ]


def pair_interval_graph(rows):
    """The graph of open intervals given as (left, right) pairs: u ~ v exactly
    when l_u < r_v and l_v < r_u, compared as Fractions."""
    ivs = [(Fraction(left), Fraction(right)) for left, right in rows]
    return Graph(len(ivs), [
        (u, v)
        for u, v in combinations(range(len(ivs)), 2)
        if ivs[u][0] < ivs[v][1] and ivs[v][0] < ivs[u][1]
    ])


def is_connected(g):
    """Whether g has at most one component."""
    return len(mask_components(g.masks, (1 << g.n) - 1)) <= 1


def from_masks(masks):
    """The graph whose adjacency masks are ``masks``, checked to be in range,
    loop-free and symmetric."""
    masks = tuple(masks)
    n = len(masks)
    for v, m in enumerate(masks):
        if m < 0 or m >> n:
            raise InvalidVertex(f"mask of vertex {v} out of range for n={n}")
        if m >> v & 1:
            raise GraphError(f"self-loop at vertex {v}")
    if any(not masks[w] >> v & 1 for v, m in enumerate(masks) for w in bits(m)):
        raise GraphError("adjacency masks are not symmetric")
    return Graph._adopt(masks)


def _equal_pairs(keys):
    """All pairs u < v of positions holding equal keys, sorted."""
    groups = {}
    for v, key in enumerate(keys):
        groups.setdefault(key, []).append(v)
    return sorted(pair for members in groups.values() for pair in combinations(members, 2))


def closed_twins(g):
    """All pairs u < v with identical closed neighbourhoods."""
    return _equal_pairs(m | 1 << v for v, m in enumerate(g.masks))


def open_twins(g):
    """All pairs u < v with identical open neighbourhoods."""
    return _equal_pairs(g.masks)


def disjoint_union(g1, g2):
    """Place g2 after g1 with no cross edges; g2's vertex v becomes g1.n + v."""
    return from_masks(g1.masks + tuple(m << g1.n for m in g2.masks))


def complete_join(g1, g2):
    """Disjoint union plus every edge between the two sides."""
    left, right = (1 << g1.n) - 1, ((1 << g2.n) - 1) << g1.n
    return from_masks(
        tuple(m | right for m in g1.masks) + tuple(m << g1.n | left for m in g2.masks)
    )


def complement(g):
    """Edge present exactly when absent in g."""
    everything = (1 << g.n) - 1
    return from_masks(everything ^ m ^ 1 << v for v, m in enumerate(g.masks))


def empty_graph(n):
    return Graph(n)


def complete_graph(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    if n < 3:
        raise GraphError("cycles need at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves):
    """Centre 0 joined to `leaves` leaf vertices."""
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])
