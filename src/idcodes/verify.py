"""Predicates deciding whether a vertex set solves an identification problem.

Signatures are kept as explicit vertex sets rather than hashes so that a
failing pair can always be reported back to the caller.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable

from .graph import Graph, Disconnected, bfs_distances, is_connected

__all__ = [
    "ProblemKind",
    "closed_signature",
    "open_signature",
    "is_dominating",
    "is_total_dominating",
    "is_identifying_code",
    "is_locating_dominating",
    "is_open_locating_dominating",
    "is_resolving_set",
    "is_separating",
    "separation_violation",
    "emp_flag",
    "univ_flag",
    "check",
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


def closed_signature(g: Graph, candidate: Iterable[int], v: int) -> frozenset[int]:
    """N[v] intersected with the candidate set."""
    s = frozenset(candidate)
    return (g.adj[v] | {v}) & s


def open_signature(g: Graph, candidate: Iterable[int], v: int) -> frozenset[int]:
    """N(v) intersected with the candidate set."""
    return g.adj[v] & frozenset(candidate)


def is_dominating(g: Graph, candidate: Iterable[int]) -> bool:
    """Every vertex has a candidate member in its closed neighbourhood."""
    s = set(candidate)
    return all(v in s or g.adj[v] & s for v in range(g.n))


def is_total_dominating(g: Graph, candidate: Iterable[int]) -> bool:
    """Every vertex has a candidate member among its neighbours."""
    s = set(candidate)
    return all(g.adj[v] & s for v in range(g.n))


def separation_violation(
    g: Graph, candidate: Iterable[int], kind: ProblemKind
) -> tuple[int, int] | None:
    """First pair of vertices sharing a signature under the kind's rules.

    Pair domain and signature flavour per kind: SEP_ID / IC compare closed
    signatures over all vertices, SEP_LD / LD only over vertices outside the
    candidate, SEP_OLD / OLD compare open signatures over all vertices.
    Returns None when all relevant pairs are separated.
    """
    s = frozenset(candidate)
    if kind in (ProblemKind.OLD, ProblemKind.SEP_OLD):
        domain = range(g.n)
        sig = lambda v: g.adj[v] & s
    elif kind in (ProblemKind.LD, ProblemKind.SEP_LD):
        domain = (v for v in range(g.n) if v not in s)
        sig = lambda v: g.adj[v] & s
    else:  # IC / SEP_ID
        domain = range(g.n)
        sig = lambda v: (g.adj[v] | {v}) & s
    seen: dict[frozenset[int], int] = {}
    for v in domain:
        key = sig(v)
        if key in seen:
            return (seen[key], v)
        seen[key] = v
    return None


def is_separating(g: Graph, candidate: Iterable[int], kind: ProblemKind) -> bool:
    """Pairwise-distinct signatures over the kind's pair domain, no domination."""
    if kind not in (ProblemKind.SEP_ID, ProblemKind.SEP_LD, ProblemKind.SEP_OLD):
        raise ValueError(f"{kind} is not a separation-only kind")
    return separation_violation(g, candidate, kind) is None


def is_identifying_code(g: Graph, candidate: Iterable[int]) -> bool:
    """Dominating set whose closed signatures distinguish all vertices."""
    s = frozenset(candidate)
    return is_dominating(g, s) and separation_violation(g, s, ProblemKind.IC) is None


def is_locating_dominating(g: Graph, candidate: Iterable[int]) -> bool:
    """Dominating set whose signatures distinguish the vertices outside it."""
    s = frozenset(candidate)
    return is_dominating(g, s) and separation_violation(g, s, ProblemKind.LD) is None


def is_open_locating_dominating(g: Graph, candidate: Iterable[int]) -> bool:
    """Total dominating set whose open signatures distinguish all vertices."""
    s = frozenset(candidate)
    return (
        is_total_dominating(g, s)
        and separation_violation(g, s, ProblemKind.OLD) is None
    )


def is_resolving_set(g: Graph, candidate: Iterable[int]) -> bool:
    """Distance vectors to the candidate distinguish all vertex pairs."""
    if not is_connected(g):
        raise Disconnected("resolving sets need a connected graph")
    rows = [bfs_distances(g, x) for x in sorted(set(candidate))]
    seen = set()
    for v in range(g.n):
        key = tuple(row[v] for row in rows)
        if key in seen:
            return False
        seen.add(key)
    return True


def emp_flag(g: Graph, candidate: Iterable[int], flavor: str) -> bool:
    """True when some vertex has an empty signature under the candidate.

    Flavor "id" and "ld" use closed neighbourhoods, "old" uses open ones.
    """
    s = frozenset(candidate)
    if flavor == "old":
        return any(not (g.adj[v] & s) for v in range(g.n))
    if flavor in ("id", "ld"):
        return any(v not in s and not (g.adj[v] & s) for v in range(g.n))
    raise ValueError(f"unknown flavor {flavor!r}")


def univ_flag(g: Graph, candidate: Iterable[int], flavor: str) -> bool:
    """True when some vertex is dominated by the entire candidate set.

    The "id" flavor accepts any vertex (a candidate member is dominated by
    itself), the "ld" flavor only vertices outside the candidate, and the
    "old" flavor requires all candidate members to be proper neighbours.
    """
    s = frozenset(candidate)
    if flavor == "id":
        return any(s <= (g.adj[v] | {v}) for v in range(g.n))
    if flavor == "ld":
        return any(v not in s and s <= g.adj[v] for v in range(g.n))
    if flavor == "old":
        return any(s <= g.adj[v] for v in range(g.n))
    raise ValueError(f"unknown flavor {flavor!r}")


def check(g: Graph, candidate: Iterable[int], kind: ProblemKind) -> bool:
    """Dispatch to the predicate matching the problem kind."""
    s = frozenset(candidate)
    if kind is ProblemKind.IC:
        return is_identifying_code(g, s)
    if kind is ProblemKind.LD:
        return is_locating_dominating(g, s)
    if kind is ProblemKind.OLD:
        return is_open_locating_dominating(g, s)
    if kind is ProblemKind.RS:
        return is_resolving_set(g, s)
    return is_separating(g, s, kind)
