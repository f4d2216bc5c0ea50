"""Ground-truth solvers by exhaustive subset enumeration.

These routines exist to validate the fast algorithms and the extremal
constructions, not for production use: they enumerate candidate sets by
increasing size and, within a size, in lexicographic order, so the returned
witness is deterministic.  The enumeration is pruned, and its order is
unchanged: it skips only subsets that cannot pass.

Every kind is checked as a hitting set: a subset S passes when it meets each
mask of a list built once per graph.  The list is built from the kind's row
of ``verify.SEPARATING`` and its neighbourhood rows N[v] (N(v) under
SEP_OLD, :func:`verify.neighbourhoods`).  It holds:

- for each pair u < v, the vertices that separate them: ``N[u] ^ N[v]``, plus
  u and v under SEP_LD, since a member needs no distinct signature; for RS,
  the vertices at different distances from u and v, which is every vertex
  but those in the same breadth-first layer of u as of v;
- for the kinds that dominate (IC, LD, OLD), every row N[v].

A pair mask is empty exactly when u and v are twins, and a row exactly when
v is isolated under OLD; those raise before any subset is tried.  So the
empty set passes exactly when the list is empty, for RS when n <= 1.
The list is deduplicated and sorted by size.

Subsets are built by a depth-first search over increasing members, which
keeps the masks the members so far miss, filtered at C level on each
descent.  The search stops early on a packing bound: before v is tried as
the next member, the missed masks, cut to the candidates >= v, are packed
greedily into pairwise disjoint ones, smallest first.  Each needs a member
of its own, so when there are more of them than members left to choose, or
one has no candidate left, no subset of this size extends the prefix
through v or any later vertex, and the level ends.  The last member must
lie in every mask still missed, so the passing subsets through a prefix
are read off one AND of those masks.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import reduce
from itertools import combinations, compress, repeat
from math import comb
from operator import and_, not_
from typing import NamedTuple

from .graph import Graph, Disconnected, _bfs_layers, bits
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
    "check_cap",
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
            everything = (1 << n) - 1
            layers = [list(_bfs_layers(g.masks, v)) for v in range(n)]
            if layers and sum(layers[0]) != everything:
                raise Disconnected("resolving sets need a connected graph")
            # the ANDs at equal depths are disjoint; they sum to the vertices
            # as far from u as from v
            hit = [everything ^ sum(map(and_, layers[u], layers[v])) for u, v in pairs]
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
        # Smallest masks first: the greedy packing of _packs keeps more of them.
        self.hit = sorted(set(hit), key=int.bit_count)

    def solutions(self, size: int) -> Iterator[tuple[int, ...]]:
        """The passing subsets of one size, in lexicographic order.

        A depth-first search over increasing members that keeps, per depth,
        the masks the members so far miss.  Before v is tried as the next
        member, :func:`_packs` bounds the members still needed from v on;
        when it fails, it fails for every later v too, so the level ends
        there.  The last member must lie in every mask still missed: those
        vertices, in increasing order, complete the passing subsets.
        """
        n = self.n
        if size == 0:
            if not self.hit:
                yield ()
            return
        members: list[int] = []
        missed = [self.hit]  # missed[d]: the masks members[:d] do not meet
        last = size - 1
        v = 0
        while True:
            d = len(members)
            rest = missed[d]
            if d == last:
                for w in bits(reduce(and_, rest, (1 << n) - (1 << v))):
                    yield (*members, w)
            elif v <= n - size + d and _packs(rest, v, size - d):
                members.append(v)
                missed.append(list(compress(rest, map(not_, map(and_, rest, repeat(1 << v))))))
                v += 1
                continue
            if not members:
                return
            v = members.pop() + 1
            missed.pop()


def _packs(missed: list[int], v: int, left: int) -> bool:
    """Whether ``left`` members from v on can still meet every mask in
    ``missed``.  Cut to the candidates >= v, the masks are packed greedily,
    in their order: each one disjoint from those kept needs a member of its
    own, and a mask with no candidate left needs one that does not exist.
    A larger v only shrinks the cut masks, so when this fails, it fails for
    every later v too."""
    low = -1 << v
    used = count = 0
    for m in missed:
        m &= low
        if not m:
            return False
        if not m & used:
            used |= m
            count += 1
            if count > left:
                return False
    return True


def check_cap(n: int, cap: int) -> None:
    """Raise CapExceeded when an order-n graph is above the solver cap."""
    if n > cap:
        raise CapExceeded(f"n={n} exceeds the solver cap {cap}")


def _first_solution(g: Graph, kind: ProblemKind, cap: int) -> tuple[_Checker, tuple[int, ...]]:
    """The checker and the lexicographically first subset of least size."""
    check_cap(g.n, cap)
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
