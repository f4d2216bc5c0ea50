"""Reference graph kernels for the tests.

``diameter_all_sources`` is the diameter by one breadth-first search from
every vertex, as ``graph.diameter`` computed it before it stopped early on
the iFUB bounds.  The tests compare the two on values and errors.
"""

from idcodes.graph import Disconnected, GraphError, _bfs_layers


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
