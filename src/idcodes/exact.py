"""Ground-truth solvers by exhaustive subset enumeration.

These routines exist to validate the fast algorithms and the extremal
constructions, not for production use: they enumerate candidate sets by
increasing size and, within a size, in lexicographic order, so the returned
witness is deterministic.  The enumeration is pruned, and its order is
unchanged: it skips only subsets that cannot pass.

Every kind is checked as a hitting set: a subset S passes when it meets each
mask of a list built once per graph, and one C-level
``all(map(and_, hit, repeat(mask)))`` decides it, with no Python loop over the
vertices; ``mask`` is the subset's vertex mask.  The list is
built from the kind's row of ``verify.SEPARATING`` and its neighbourhood rows
N[v] (N(v) under SEP_OLD, :func:`verify.neighbourhoods`).  It holds:

- for each pair u < v, the vertices that separate them: ``N[u] ^ N[v]``, plus
  u and v under SEP_LD, since a member needs no distinct signature; for RS,
  the vertices at different distances from u and v;
- for the kinds that dominate (IC, LD, OLD), every row N[v].

A pair mask is empty exactly when u and v are twins, and a row exactly when
v is isolated under OLD; those raise before any subset is tried.  So the
empty set passes exactly when the list is empty, for RS when n <= 1.
The list is deduplicated and sorted by size for that final check, so a
failing subset usually stops at its first few masks.  It is also indexed by
each mask's highest vertex for the prefix rule of the search: subsets are
built by a depth-first search over increasing members, and once the members
chosen so far skip past a mask's highest vertex without meeting it, no
extension of them can pass.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import combinations, repeat
from math import comb
from operator import and_
from typing import NamedTuple

from .graph import Graph, Disconnected, all_pairs_distances, is_connected
from .models import JOIN, UNION
from .verify import SEPARATING, ProblemKind, covered, neighbourhoods, undominated, vertex_mask

__all__ = [
    "SolveResult",
    "SolverError",
    "TwinsPresent",
    "OpenTwinsPresent",
    "Twins",
    "TWINS",
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


class SolveResult(NamedTuple):
    size: int
    witness: frozenset[int]
    kind: ProblemKind


class Twins(NamedTuple):
    """How twins of one separating kind are reported: the error, its message
    on a graph (an example pair follows it), and the cotree gate, the node
    kind whose merge creates them with the fold's message for it."""

    error: type[SolverError]
    message: str
    node: int
    gate_message: str


# Twins of a separating kind, a pair that no set separates.  Closed twins
# appear exactly when a join merges two parts that both contain a universal
# vertex, open twins exactly when a union merges two parts that both contain
# an isolated vertex.  SEP_LD has none: a pair's mask holds the pair.
TWINS = {
    ProblemKind.SEP_ID: Twins(TwinsPresent, "closed twins present",
                              JOIN, "cotree joins two parts with universal vertices"),
    ProblemKind.SEP_OLD: Twins(OpenTwinsPresent, "open twins present",
                               UNION, "cotree unites two parts with isolated vertices"),
}


class _Checker:
    """The preconditions of one kind on one graph, applied once: a subset
    passes when it meets every mask in ``hit``."""

    def __init__(self, g: Graph, kind: ProblemKind):
        n = self.n = g.n
        pairs = list(combinations(range(n), 2))
        if kind is ProblemKind.RS:
            if not is_connected(g):
                raise Disconnected("resolving sets need a connected graph")
            dist = all_pairs_distances(g)
            hit = [sum(1 << x for x in range(n) if dist[x][u] != dist[x][v]) for u, v in pairs]
        else:
            sep = SEPARATING[kind]
            rows = neighbourhoods(g.masks, kind)
            own = 1 if sep is ProblemKind.SEP_LD else 0  # a member needs no distinct signature
            hit = [rows[u] ^ rows[v] | own << u | own << v for u, v in pairs]
            if 0 in hit:  # twins: no set separates the pair
                twins = TWINS[sep]
                raise twins.error(f"{twins.message}, e.g. {pairs[hit.index(0)]}")
            if sep is not kind:  # domination; only an open row can be empty
                if 0 in rows:
                    raise NoSolution("a degree-0 vertex cannot be totally dominated")
                hit += rows
        # Smallest masks first: a failing subset misses one of them soonest.
        self.hit = sorted(set(hit), key=int.bit_count)
        # below[v]: the masks whose highest vertex is v - 1, which a subset
        # must meet with its members below v.
        self.below: list[list[int]] = [[] for _ in range(n + 1)]
        for m in self.hit:
            self.below[m.bit_length()].append(m)

    def solutions(self, size: int) -> Iterator[tuple[int, ...]]:
        """The passing subsets of one size, in lexicographic order.

        A depth-first search over increasing members.  Before v is tried as
        the next member, the prefix must meet every mask whose highest vertex
        is v - 1: no later member can, so no larger v passes either and the
        level ends there.  A complete subset is checked against every mask.
        """
        n, hit, below = self.n, self.hit, self.below
        if size == 0:
            if not hit:
                yield ()
            return
        members: list[int] = []
        prefix = [0]  # prefix[d]: the mask of members[:d]
        last = size - 1
        v = 0
        while True:
            d = len(members)
            mask = prefix[d]
            if d == last:  # the last member: each complete subset is checked
                for v in range(v, n):
                    if not all(map(and_, below[v], repeat(mask))):
                        break
                    if all(map(and_, hit, repeat(mask | 1 << v))):
                        yield (*members, v)
            elif v <= n - size + d and all(map(and_, below[v], repeat(mask))):
                members.append(v)
                prefix.append(mask | 1 << v)
                v += 1
                continue
            if not members:
                return
            v = members.pop() + 1
            prefix.pop()


def _first_solution(g: Graph, kind: ProblemKind, cap: int) -> tuple[_Checker, tuple[int, ...]]:
    """The checker and the lexicographically first subset of least size."""
    if g.n > cap:
        raise CapExceeded(f"n={g.n} exceeds the solver cap {cap}")
    passes = _Checker(g, kind)
    for size in range(g.n + 1):
        for subset in passes.solutions(size):
            return passes, subset
    raise SolverError(f"no {kind} solution exists")  # unreachable given preconditions


def min_set(g: Graph, kind: ProblemKind, cap: int = DEFAULT_VERTEX_CAP) -> SolveResult:
    """Smallest solution of the given kind, ties broken lexicographically."""
    subset = _first_solution(g, kind, cap)[1]
    return SolveResult(len(subset), frozenset(subset), kind)


def all_min_sets(g: Graph, kind: ProblemKind, cap: int = DEFAULT_VERTEX_CAP) -> list[frozenset[int]]:
    """Every minimum solution, in lexicographic order of the sorted members."""
    passes, first = _first_solution(g, kind, cap)
    if comb(g.n, len(first)) > ENUMERATION_CAP:
        raise CapExceeded(f"C({g.n},{len(first)}) exceeds the enumeration cap")
    return [frozenset(s) for s in passes.solutions(len(first))]


def emp_univ_oracle(g: Graph, kind: ProblemKind, cap: int = DEFAULT_VERTEX_CAP) -> tuple[bool, bool]:
    """Evaluate the two properties over every minimum set of a separating kind.

    emp: every minimum separating set leaves some vertex with empty signature.
    univ: every minimum separating set has a vertex dominated by the whole set
    (under SEP_LD that vertex lies outside the set).  Raises ValueError for a
    kind that is not its own separating kind.
    """
    if SEPARATING.get(kind) is not kind:
        raise ValueError(f"{kind} is not a separating kind")
    masks = [vertex_mask(s, g.n) for s in all_min_sets(g, kind, cap=cap)]
    emp = all(undominated(g.masks, s, kind) for s in masks)
    univ = all(covered(g.masks, s, kind) for s in masks)
    return emp, univ
