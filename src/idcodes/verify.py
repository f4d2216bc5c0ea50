"""One predicate, :func:`check`, decides whether a vertex set solves any kind.

It runs on the graph's adjacency masks (``Graph.masks``: bit w of
``masks[v]`` is set when vw is an edge) with the candidate set as one int
mask from :func:`vertex_mask`, the one place a vertex is range-checked.

Each kind but RS refines the separating kind :data:`SEPARATING` maps it to,
and that entry fixes its signature rules.  One kernel, ``_signatures``,
yields each compared vertex with its signature, in increasing order:
:func:`first_collision` returns the first pair with equal signatures, so a
failing pair can always be reported back, and :func:`undominated` and
:func:`covered` read the empty and the full signatures.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Iterator

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
    "SEPARATING",
    "neighbourhoods",
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


# Kind -> the separating kind it refines, the one table of signature rules.
# A vertex's signature is its neighbourhood (:func:`neighbourhoods`: open
# under SEP_OLD, else closed) ANDed with the set; SEP_LD compares only the
# vertices outside the set; and each kind that is not its own separating
# kind (IC, LD, OLD) also asks every vertex for a nonempty signature.  RS has
# no row: distance vectors are not neighbourhood signatures.
SEPARATING = {
    ProblemKind.IC: ProblemKind.SEP_ID,
    ProblemKind.LD: ProblemKind.SEP_LD,
    ProblemKind.OLD: ProblemKind.SEP_OLD,
    ProblemKind.SEP_ID: ProblemKind.SEP_ID,
    ProblemKind.SEP_LD: ProblemKind.SEP_LD,
    ProblemKind.SEP_OLD: ProblemKind.SEP_OLD,
}


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


def neighbourhoods(masks: tuple[int, ...], kind: ProblemKind) -> list[int]:
    """Each vertex's neighbourhood mask under the kind: open for the OLD
    kinds, else closed (the vertex's own bit added)."""
    loop = 0 if SEPARATING[kind] is ProblemKind.SEP_OLD else 1
    return [m | loop << v for v, m in enumerate(masks)]


def _signatures(masks: tuple[int, ...], s: int, kind: ProblemKind) -> Iterator[tuple[int, int]]:
    """(v, signature of v under the set mask s) for each vertex the kind
    compares, in increasing order: every vertex, less the members of s for
    the LD kinds."""
    rows = neighbourhoods(masks, kind)
    visit = _everything(masks)
    if SEPARATING[kind] is ProblemKind.SEP_LD:
        visit &= ~s
    return ((v, rows[v] & s) for v in bits(visit))


def first_collision(
    masks: tuple[int, ...], s: int, kind: ProblemKind
) -> tuple[int, int] | None:
    """First pair u < v of compared vertices with equal signatures under the
    set mask s: v is the first one whose signature an earlier vertex u
    already had.  None when all of them are separated.
    """
    seen: dict[int, int] = {}
    for v, signature in _signatures(masks, s, kind):
        first = seen.setdefault(signature, v)
        if first != v:
            return (first, v)
    return None


def undominated(masks: tuple[int, ...], s: int, kind: ProblemKind) -> int:
    """Mask of the compared vertices with an empty signature.  A member of s
    has its own bit in a closed signature, so for the LD kinds this is every
    vertex with an empty one."""
    out = 0
    for v, signature in _signatures(masks, s, kind):
        if not signature:
            out |= 1 << v
    return out


def covered(masks: tuple[int, ...], s: int, kind: ProblemKind) -> int:
    """Mask of the compared vertices whose signature is all of s; for the LD
    kinds only vertices outside s count."""
    out = 0
    for v, signature in _signatures(masks, s, kind):
        if signature == s:
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
    if SEPARATING[kind] is not kind and undominated(masks, s, kind):
        return False
    return first_collision(masks, s, kind) is None


def separation_violation(
    g: Graph, candidate: Iterable[int], kind: ProblemKind
) -> tuple[int, int] | None:
    """First pair of vertices sharing a signature under the kind's rules
    (:data:`SEPARATING`), or None when all compared pairs are separated.
    Raises ValueError for RS, whose distance vectors no signature pair
    stands for.
    """
    s = vertex_mask(candidate, g.n)
    if kind is ProblemKind.RS:
        raise ValueError("a resolving set has no separation pair; use check")
    return first_collision(g.masks, s, kind)
