"""One predicate, :func:`check`, decides whether a vertex set solves any kind.

It runs on the graph's adjacency masks (``Graph.masks``: bit w of
``masks[v]`` is set when vw is an edge) with the candidate set as one int
mask from :func:`vertex_mask`, the one place a vertex is range-checked.  A
vertex's signature is its closed neighbourhood mask (its open one for the
OLD kinds) ANDed with the candidate mask.  One kernel,
:func:`first_collision`, visits vertices in increasing order and returns
the first pair with equal signatures, so a failing pair can always be
reported back; domination is one mask test per vertex (:func:`undominated`).
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable

from .graph import (
    Disconnected,
    Graph,
    InvalidVertex,
    bits,
    mask_components,
    mask_distances,
)

__all__ = [
    "ProblemKind",
    "vertex_mask",
    "first_collision",
    "undominated",
    "covered",
    "check",
    "separation_violation",
]


class ProblemKind(Enum):
    """The solution concepts handled by this library.

    IC/LD/OLD/RS are the dominating variants; the SEP_* kinds drop the
    domination requirement and only ask for pairwise-distinct signatures.
    """

    IC = "ic"
    LD = "ld"
    OLD = "old"
    RS = "rs"
    SEP_ID = "sep-id"
    SEP_LD = "sep-ld"
    SEP_OLD = "sep-old"


# Signature rules per kind: the OLD kinds use open neighbourhoods, the LD
# kinds compare only the vertices outside the set, and IC/LD/OLD also ask
# every vertex to have a nonempty signature.
_OPEN = frozenset({ProblemKind.OLD, ProblemKind.SEP_OLD})
_OUTSIDE = frozenset({ProblemKind.LD, ProblemKind.SEP_LD})
_DOMINATING = frozenset({ProblemKind.IC, ProblemKind.LD, ProblemKind.OLD})


def vertex_mask(vertices: Iterable[int], n: int) -> int:
    """The int with bit v set for each vertex v; InvalidVertex unless 0 <= v < n."""
    m = 0
    for v in vertices:
        if not 0 <= v < n:
            raise InvalidVertex(f"vertex {v} out of range for n={n}")
        m |= 1 << v
    return m


def _everything(masks: tuple[int, ...]) -> int:
    return (1 << len(masks)) - 1


def first_collision(
    masks: tuple[int, ...], s: int, kind: ProblemKind
) -> tuple[int, int] | None:
    """First pair u < v of vertices with equal signatures under the set mask s.

    Vertices are visited in increasing order, less the members of s for the
    LD kinds, and v is the first one whose signature an earlier vertex u
    already had.  None when all of them are separated.
    """
    visit = _everything(masks)
    if kind in _OUTSIDE:
        visit &= ~s
    loop = 0 if kind in _OPEN else 1  # a closed neighbourhood holds v itself
    seen: dict[int, int] = {}
    for v in bits(visit):
        first = seen.setdefault((masks[v] | loop << v) & s, v)
        if first != v:
            return (first, v)
    return None


def undominated(masks: tuple[int, ...], s: int, kind: ProblemKind) -> int:
    """Mask of the vertices with an empty signature."""
    loop = 0 if kind in _OPEN else 1
    out = 0
    for v, m in enumerate(masks):
        if not (m | loop << v) & s:
            out |= 1 << v
    return out


def covered(masks: tuple[int, ...], s: int, kind: ProblemKind) -> int:
    """Mask of the vertices whose signature is all of s; for the LD kinds
    only vertices outside s count."""
    visit = _everything(masks)
    if kind in _OUTSIDE:
        visit &= ~s
    loop = 0 if kind in _OPEN else 1
    out = 0
    for v in bits(visit):
        if not s & ~(masks[v] | loop << v):
            out |= 1 << v
    return out


def _resolves(masks: tuple[int, ...], s: int) -> bool:
    """Distance vectors to the members of s distinguish all vertex pairs."""
    n = len(masks)
    if len(mask_components(masks, _everything(masks))) > 1:
        raise Disconnected("resolving sets need a connected graph")
    rows = [mask_distances(masks, x) for x in bits(s)]
    if not rows:
        return n <= 1
    return len(set(zip(*rows))) == n


def check(g: Graph, candidate: Iterable[int], kind: ProblemKind) -> bool:
    """Whether the candidate is a solution of the kind on g.  Raises
    InvalidVertex for a vertex outside g, before any other check, and
    Disconnected for RS on a disconnected g."""
    masks = g.masks
    s = vertex_mask(candidate, len(masks))
    if kind is ProblemKind.RS:
        return _resolves(masks, s)
    if kind in _DOMINATING and undominated(masks, s, kind):
        return False
    return first_collision(masks, s, kind) is None


def separation_violation(
    g: Graph, candidate: Iterable[int], kind: ProblemKind
) -> tuple[int, int] | None:
    """First pair of vertices sharing a signature under the kind's rules.

    Per kind: SEP_ID / IC compare closed signatures over all vertices,
    SEP_LD / LD only over vertices outside the candidate, SEP_OLD / OLD
    compare open signatures over all vertices.
    Returns None when all relevant pairs are separated; raises ValueError
    for RS, whose distance vectors no signature pair stands for.
    """
    s = vertex_mask(candidate, g.n)
    if kind is ProblemKind.RS:
        raise ValueError("a resolving set has no separation pair; use check")
    return first_collision(g.masks, s, kind)
