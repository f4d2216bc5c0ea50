"""Linear-time bottom-up computations on cotrees.

For a cograph given by its cotree, the minimum separating-set size can be
computed by a single fold: every step combines two summaries (value plus two
boolean properties of the child's minimum separating sets) in O(1).  The
properties are

  emp:  every minimum separating set leaves a vertex with empty signature;
  univ: every minimum separating set has a vertex dominated by the whole set
        (for the "ld" flavor that vertex must lie outside the set).

One merge rule, ``_merge``, combines two subtrees for every flavor and both
node kinds.  A union adds one to the value exactly when both parts have emp;
emp carries over from either part, and univ survives only when one part is
a single vertex and the other has univ without emp.  A join is the same rule
with emp and univ exchanged, because complementing a cograph swaps unions
with joins and emp with univ.  The flavors differ only when both parts are
single vertices, and those exceptions are data, ``_TWO_SINGLETONS``: the
"id" flavor needs univ(single ⊕ single) = True and the "old" flavor needs
emp(single ⋈ single) = True, both forced by the literal definitions and
cross-checked exhaustively against the subset-enumeration oracle.  The value
fold and the witness builder both run this rule on one post-order walk of
the cotree (``models.fold_cotree``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact import OpenTwinsPresent, TwinsPresent, min_set
from .graph import Graph, Disconnected
from .models import (
    Cotree,
    CotreeNode,
    JOIN,
    Leaf,
    UNION,
    all_cotrees,
    cotree_to_graph,
    fold_cotree,
    validate_cotree,
)
from .verify import ProblemKind

__all__ = [
    "CographSummary",
    "NotValidated",
    "NoOldSolution",
    "WitnessUnavailable",
    "sep_id_dp",
    "sep_ld_dp",
    "sep_old_dp",
    "gamma_id_cograph",
    "gamma_ld_cograph",
    "gamma_old_cograph",
    "dim_cograph",
    "enable_old_dp",
    "witness_cograph",
    "graph_has_isolated_vertex",
]


class NotValidated(Exception):
    """The open-locating recurrence was used before its validation gate ran."""


class NoOldSolution(Exception):
    """The graph has a vertex of degree 0, so no total dominating set exists."""


class WitnessUnavailable(Exception):
    """No verified witness could be produced for this cotree."""


@dataclass(frozen=True)
class CographSummary:
    """Separating-set size and property flags for one cograph."""

    k: int
    emp: bool
    univ: bool
    n: int


# -- the merge rule -----------------------------------------------------------
#
# A subtree's state is (k, emp, univ, n).  The flavor exceptions, both for
# two single vertices: two isolated ones under "id" (each singleton set
# covers itself, so univ) and an adjacent pair under "old" (each singleton
# set misses its own vertex, so emp).

_TWO_SINGLETONS = {("id", UNION), ("old", JOIN)}

_LEAF = (0, True, True, 1)


def _merge(a, b, kind: str, flavor: str) -> tuple[int, bool, bool, int]:
    """State of the union (or join) of two subtrees with states a and b."""
    ka, emp_a, univ_a, na = a
    kb, emp_b, univ_b, nb = b
    join = kind == JOIN
    if join:
        emp_a, univ_a, emp_b, univ_b = univ_a, emp_a, univ_b, emp_b
    if na == 1 and nb == 1 and (flavor, kind) in _TWO_SINGLETONS:
        univ = True
    elif na == 1:
        univ = univ_b and not emp_b
    elif nb == 1:
        univ = univ_a and not emp_a
    else:
        univ = False
    k = ka + kb + (1 if emp_a and emp_b else 0)
    emp = emp_a or emp_b
    if join:
        emp, univ = univ, emp
    return k, emp, univ, na + nb


# The twin gate each flavor needs: closed twins appear exactly when a join
# merges two parts that both contain a universal vertex, open twins exactly
# when a union merges two parts that both contain an isolated vertex.
_TWIN_GATES = {
    "id": (JOIN, TwinsPresent, "cotree joins two parts with universal vertices"),
    "old": (UNION, OpenTwinsPresent, "cotree unites two parts with isolated vertices"),
}


def _fold(t: Cotree, flavor: str) -> tuple[int, bool, bool, int]:
    """Post-order fold of the merge rule; n-ary nodes are combined left to right.

    Raises TwinsPresent / OpenTwinsPresent as soon as a merge hits the
    flavor's twin gate, which is exactly when the compiled graph has closed
    (open) twins.
    """
    validate_cotree(t)
    gate_kind, gate_error, gate_message = _TWIN_GATES.get(flavor, (None, None, None))

    # Each value is (state, has a universal vertex, has an isolated vertex).
    def merge_children(node: CotreeNode, kids: list) -> tuple:
        kind = node.kind
        join = kind == JOIN
        state, universal, isolated = kids[0]
        for b, b_universal, b_isolated in kids[1:]:
            if kind == gate_kind and (
                (universal and b_universal) if join else (isolated and b_isolated)
            ):
                raise gate_error(gate_message)
            state = _merge(state, b, kind, flavor)
            if join:
                universal, isolated = universal or b_universal, False
            else:
                universal, isolated = False, isolated or b_isolated
        return state, universal, isolated

    return fold_cotree(t, lambda _leaf: (_LEAF, True, True), merge_children)[0]


def sep_id_dp(t: Cotree) -> CographSummary:
    """Minimum closed-signature separating-set size of a twin-free cograph."""
    return CographSummary(*_fold(t, "id"))


def sep_ld_dp(t: Cotree) -> CographSummary:
    """Minimum size of a set separating the vertices outside it (any cograph)."""
    return CographSummary(*_fold(t, "ld"))


def gamma_id_cograph(t: Cotree) -> int:
    """Minimum identifying-code size: the separating value, plus one repair
    vertex exactly when every minimum separating set leaves a hole."""
    s = sep_id_dp(t)
    return s.k + (1 if s.emp else 0)


def gamma_ld_cograph(t: Cotree) -> int:
    """Minimum locating-dominating set size via the same repair rule."""
    s = sep_ld_dp(t)
    return s.k + (1 if s.emp else 0)


def dim_cograph(t: Cotree) -> int:
    """Metric dimension of a connected cograph.

    Connected cographs have diameter at most 2, where resolving sets and
    separating sets coincide, so this is the plain separating value.
    """
    if isinstance(t, CotreeNode) and t.kind != JOIN:
        raise Disconnected("cotree root is a union: graph is disconnected")
    return sep_ld_dp(t).k


def graph_has_isolated_vertex(t: Cotree) -> bool:
    """True when the compiled graph has a vertex with no neighbours.

    In a canonical cotree an isolated vertex is exactly a leaf hanging
    directly under a union root (joins give every vertex a neighbour).
    """
    if isinstance(t, Leaf):
        return True
    if t.kind == JOIN:
        return False
    return any(isinstance(c, Leaf) for c in t.children)


# -- open flavor: validation gate ---------------------------------------------

_OLD_GATE_PASSED = False


def enable_old_dp(max_leaves: int = 9) -> None:
    """Run the open-flavor recurrence against the oracle before allowing it.

    Checks every open-twin-free cograph with up to `max_leaves` vertices:
    value and both flags must match the subset-enumeration oracle exactly.
    """
    global _OLD_GATE_PASSED
    if _OLD_GATE_PASSED:
        return
    from .exact import emp_univ_oracle

    for n in range(1, max_leaves + 1):
        for t in all_cotrees(n):
            g = cotree_to_graph(t)
            try:
                oracle = min_set(g, ProblemKind.SEP_OLD)
            except OpenTwinsPresent:
                continue
            k, emp, univ, _ = _fold(t, "old")
            o_emp, o_univ = emp_univ_oracle(g, "old")
            if (k, emp, univ) != (oracle.size, o_emp, o_univ):
                raise NotValidated(
                    f"open recurrence disagrees with oracle on n={n}: "
                    f"dp=({k},{emp},{univ}) oracle=({oracle.size},{o_emp},{o_univ})"
                )
    _OLD_GATE_PASSED = True


def sep_old_dp(t: Cotree) -> CographSummary:
    """Open-signature analog of sep_id_dp; gated behind enable_old_dp()."""
    if not _OLD_GATE_PASSED:
        raise NotValidated("call enable_old_dp() before using the open recurrence")
    return CographSummary(*_fold(t, "old"))


def gamma_old_cograph(t: Cotree) -> int:
    """Minimum open locating-dominating set size of an open-twin-free cograph."""
    if graph_has_isolated_vertex(t):
        raise NoOldSolution("a degree-0 vertex cannot be totally dominated")
    s = sep_old_dp(t)
    return s.k + (1 if s.emp else 0)


# -- witness reconstruction ---------------------------------------------------


class _WitnessBuilder:
    """Bottom-up assembly of a canonical minimum separating set.

    The carried set always satisfies, on its node's induced subgraph:
    it separates, has the fold's size, dominates everything when emp is
    False, and has no vertex dominated by the whole set when univ is False.
    When no constructive candidate meets these side conditions the build
    raises WitnessUnavailable rather than return an unverified set.
    """

    def __init__(self, g: Graph, flavor: str):
        self.g = g
        self.flavor = flavor

    # Signatures restricted to the subtree's vertex set.
    def _sig(self, verts: frozenset[int], cand: frozenset[int], v: int) -> frozenset[int]:
        return (self.g.adj[v] & verts & cand) | ({v} if v in cand else frozenset())

    def _separates(self, verts: frozenset[int], cand: frozenset[int]) -> bool:
        seen = {}
        for v in sorted(verts):
            if self.flavor == "ld" and v in cand:
                continue
            key = self._sig(verts, cand, v)
            if key in seen:
                return False
            seen[key] = v
        return True

    def _empty_sig_vertices(self, verts: frozenset[int], cand: frozenset[int]) -> list[int]:
        return sorted(
            v for v in verts if v not in cand and not (self.g.adj[v] & cand & verts)
        )

    def _covered_vertices(self, verts: frozenset[int], cand: frozenset[int]) -> list[int]:
        out = []
        for v in sorted(verts):
            if self.flavor == "ld" and v in cand:
                continue
            closed = (self.g.adj[v] & verts) | {v}
            if cand <= closed:
                out.append(v)
        return out

    def _canonical(self, verts, cand, state) -> bool:
        k, emp, univ, _ = state
        if len(cand) != k or not self._separates(verts, cand):
            return False
        if not emp and self._empty_sig_vertices(verts, cand):
            return False
        if not univ and self._covered_vertices(verts, cand):
            return False
        return True

    def _merge_children(self, node: CotreeNode, kids: list) -> tuple:
        verts, state, cand = kids[0]
        for bverts, bstate, bcand in kids[1:]:
            nverts = verts | bverts
            nstate = _merge(state, bstate, node.kind, self.flavor)
            base = cand | bcand
            bumped = nstate[0] == state[0] + bstate[0] + 1
            candidates = []
            if not bumped:
                candidates.append(base)
            elif node.kind == UNION:
                for u in self._empty_sig_vertices(nverts, base):
                    candidates.append(base | {u})
            else:
                colliders = self._covered_vertices(nverts, base)
                if self.flavor == "ld":
                    for u in colliders:
                        candidates.append(base | {u})
                else:
                    for w in sorted(nverts):
                        hits = sum(
                            1
                            for u in colliders
                            if w == u or (w in self.g.adj[u] and w in nverts)
                        )
                        if hits == 1:
                            candidates.append(base | {w})
            chosen = None
            for c in candidates:
                if self._canonical(nverts, c, nstate):
                    chosen = c
                    break
            if chosen is None:
                raise WitnessUnavailable(
                    "no constructive candidate meets the side conditions"
                )
            verts, state, cand = nverts, nstate, chosen
        return verts, state, cand

    def build(self, t: Cotree) -> tuple[frozenset[int], tuple, frozenset[int]]:
        """Returns (vertices, fold state, witness) for the whole tree."""
        return fold_cotree(
            t,
            lambda leaf: (frozenset([leaf.vertex]), _LEAF, frozenset()),
            self._merge_children,
        )


def witness_cograph(t: Cotree, kind: ProblemKind) -> frozenset[int]:
    """A verified minimum solution set assembled along the cotree.

    Supports IC and LD (separating witness plus the single repair vertex when
    needed), RS on connected cographs, and the raw SEP_ID / SEP_LD witnesses.
    """
    from . import verify

    flavor_kind = {
        ProblemKind.IC: ("id", True),
        ProblemKind.SEP_ID: ("id", False),
        ProblemKind.LD: ("ld", True),
        ProblemKind.SEP_LD: ("ld", False),
        ProblemKind.RS: ("ld", False),
    }
    if kind not in flavor_kind:
        raise ValueError(f"witness reconstruction does not support {kind}")
    flavor, repair = flavor_kind[kind]
    summary = sep_id_dp(t) if flavor == "id" else sep_ld_dp(t)
    if kind is ProblemKind.RS and isinstance(t, CotreeNode) and t.kind != JOIN:
        raise Disconnected("cotree root is a union: graph is disconnected")
    g = cotree_to_graph(t)
    builder = _WitnessBuilder(g, flavor)
    verts, state, cand = builder.build(t)
    if repair and summary.emp:
        holes = builder._empty_sig_vertices(verts, cand)
        if len(holes) != 1:
            raise WitnessUnavailable("expected exactly one undominated vertex")
        cand = cand | {holes[0]}
    if not verify.check(g, cand, kind):
        raise WitnessUnavailable(f"assembled set failed the {kind} verifier")
    expected = summary.k + (1 if repair and summary.emp else 0)
    if len(cand) != expected:
        raise WitnessUnavailable("assembled set has the wrong size")
    return cand
