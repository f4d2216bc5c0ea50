"""Ground-truth solvers by exhaustive subset enumeration.

These routines exist to validate the fast algorithms and the extremal
constructions, not for production use: they enumerate candidate sets by
increasing size and, within a size, in lexicographic order, so the returned
witness is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .graph import Graph, Disconnected, all_pairs_distances, closed_twins, is_connected, open_twins
from .verify import ProblemKind

__all__ = [
    "SolveResult",
    "SolverError",
    "TwinsPresent",
    "OpenTwinsPresent",
    "CapExceeded",
    "NoSolution",
    "min_set",
    "all_min_sets",
    "emp_univ_oracle",
]

DEFAULT_VERTEX_CAP = 30
ENUMERATION_CAP = 10**6


class SolverError(Exception):
    pass


class TwinsPresent(SolverError):
    """Closed twins make identifying codes impossible."""


class OpenTwinsPresent(SolverError):
    """Open twins make open locating-dominating sets impossible."""


class CapExceeded(SolverError):
    """The instance is larger than the configured enumeration budget."""


class NoSolution(SolverError):
    """No set of any size satisfies the requested property."""


@dataclass(frozen=True)
class SolveResult:
    size: int
    witness: frozenset[int]
    kind: ProblemKind


def _closed_masks(g: Graph) -> list[int]:
    return [m | 1 << v for v, m in enumerate(g.masks)]


def _open_masks(g: Graph) -> list[int]:
    return list(g.masks)


class _Checker:
    """Callable deciding one candidate mask, with preconditions applied once."""

    def __init__(self, g: Graph, kind: ProblemKind):
        self.kind = kind
        self.n = g.n
        if kind in (ProblemKind.IC, ProblemKind.SEP_ID):
            twins = closed_twins(g)
            if twins:
                raise TwinsPresent(f"closed twins present, e.g. {twins[0]}")
            self.masks = _closed_masks(g)
        elif kind in (ProblemKind.OLD, ProblemKind.SEP_OLD):
            twins = open_twins(g)
            if twins:
                raise OpenTwinsPresent(f"open twins present, e.g. {twins[0]}")
            if kind is ProblemKind.OLD and not all(g.masks):
                raise NoSolution("a degree-0 vertex cannot be totally dominated")
            self.masks = _open_masks(g)
        elif kind in (ProblemKind.LD, ProblemKind.SEP_LD):
            self.masks = _closed_masks(g)
        elif kind is ProblemKind.RS:
            if not is_connected(g):
                raise Disconnected("resolving sets need a connected graph")
            self.dist = all_pairs_distances(g)
        else:
            raise ValueError(f"unsupported kind {kind}")
        # Domination is part of IC/LD/OLD; SEP_* kinds skip it.
        self.closed = _closed_masks(g) if kind in (ProblemKind.IC, ProblemKind.LD) else None
        self.open = _open_masks(g) if kind is ProblemKind.OLD else None

    def __call__(self, subset: tuple[int, ...], mask: int) -> bool:
        kind = self.kind
        if kind is ProblemKind.RS:
            dist = self.dist
            seen = set()
            for v in range(self.n):
                key = tuple(dist[x][v] for x in subset)
                if key in seen:
                    return False
                seen.add(key)
            return True
        if self.closed is not None and any(m & mask == 0 for m in self.closed):
            return False
        if self.open is not None and any(m & mask == 0 for m in self.open):
            return False
        sigs = set()
        if kind in (ProblemKind.LD, ProblemKind.SEP_LD):
            for v, m in enumerate(self.masks):
                if mask >> v & 1:
                    continue
                s = m & mask
                if s in sigs:
                    return False
                sigs.add(s)
            return True
        for m in self.masks:
            s = m & mask
            if s in sigs:
                return False
            sigs.add(s)
        return True


def min_set(g: Graph, kind: ProblemKind, cap: int = DEFAULT_VERTEX_CAP) -> SolveResult:
    """Smallest solution of the given kind, ties broken lexicographically."""
    if g.n > cap:
        raise CapExceeded(f"n={g.n} exceeds the solver cap {cap}")
    passes = _Checker(g, kind)
    bit = [1 << v for v in range(g.n)]
    for size in range(g.n + 1):
        for subset in combinations(range(g.n), size):
            mask = 0
            for v in subset:
                mask |= bit[v]
            if passes(subset, mask):
                return SolveResult(size, frozenset(subset), kind)
    raise SolverError(f"no {kind} solution exists")  # unreachable given preconditions


def all_min_sets(g: Graph, kind: ProblemKind, cap: int = DEFAULT_VERTEX_CAP) -> list[frozenset[int]]:
    """Every minimum solution, in lexicographic order of the sorted members."""
    best = min_set(g, kind, cap=cap)
    if comb(g.n, best.size) > ENUMERATION_CAP:
        raise CapExceeded(f"C({g.n},{best.size}) exceeds the enumeration cap")
    passes = _Checker(g, kind)
    bit = [1 << v for v in range(g.n)]
    out = []
    for subset in combinations(range(g.n), best.size):
        mask = 0
        for v in subset:
            mask |= bit[v]
        if passes(subset, mask):
            out.append(frozenset(subset))
    return out


_SEP_KIND = {"id": ProblemKind.SEP_ID, "ld": ProblemKind.SEP_LD, "old": ProblemKind.SEP_OLD}


def emp_univ_oracle(g: Graph, flavor: str, cap: int = DEFAULT_VERTEX_CAP) -> tuple[bool, bool]:
    """Evaluate the two properties over every minimum separating set.

    emp: every minimum separating set leaves some vertex with empty signature.
    univ: every minimum separating set has a vertex dominated by the whole set
    (flavor "ld" insists that vertex lies outside the set).
    """
    from .verify import emp_flag, univ_flag

    kind = _SEP_KIND[flavor]
    sets = all_min_sets(g, kind, cap=cap)
    emp = all(emp_flag(g, s, flavor) for s in sets)
    univ = all(univ_flag(g, s, flavor) for s in sets)
    return emp, univ
