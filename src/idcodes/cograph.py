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
fold, with its twin gate, and the witness builder both run this rule through
``models.fold_cotree``: one pass over the cotree's post-order codes
(:class:`models.Cotree`), with the children's values on a stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .exact import OpenTwinsPresent, TwinsPresent
from .graph import Disconnected, bits
from .models import JOIN, UNION, Cotree, cotree_masks, fold_cotree, validate_cotree
from .verify import ProblemKind, check_masks, covered, first_collision, undominated

__all__ = [
    "CographSummary",
    "NoOldSolution",
    "WitnessUnavailable",
    "sep_id_dp",
    "sep_ld_dp",
    "sep_old_dp",
    "gamma_id_cograph",
    "gamma_ld_cograph",
    "gamma_old_cograph",
    "dim_cograph",
    "witness_cograph",
    "graph_has_isolated_vertex",
]


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


def _merge(a, b, kind: int, flavor: str) -> tuple[int, bool, bool, int]:
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
    def merge_children(kind: int, kids: list) -> tuple:
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

    leaf_value = (_LEAF, True, True)
    return fold_cotree(t, lambda _v: leaf_value, merge_children)[0]


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
    if t.root_kind == UNION:
        raise Disconnected("cotree root is a union: graph is disconnected")
    return sep_ld_dp(t).k


def graph_has_isolated_vertex(t: Cotree) -> bool:
    """True when the compiled graph has a vertex with no neighbours.

    In a canonical cotree an isolated vertex is exactly a leaf hanging
    directly under a union root (joins give every vertex a neighbour).
    """
    if t.root_kind == JOIN:
        return False
    # A node's value is (is a leaf, has a leaf child); a lone leaf is both.
    return fold_cotree(
        t, lambda _v: (True, True), lambda _kind, kids: (False, any(k[0] for k in kids))
    )[1]


def sep_old_dp(t: Cotree) -> CographSummary:
    """Open-signature analog of sep_id_dp (needs an open-twin-free cograph)."""
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

    Works on the graph's adjacency masks; a subtree's vertex set and the
    set carried for it are int masks.  The carried set always satisfies, on
    its node's induced subgraph: it separates, has the fold's size,
    dominates everything when emp is False, and has no vertex dominated by
    the whole set when univ is False.  When no constructive candidate meets
    these side conditions the build raises WitnessUnavailable rather than
    return an unverified set.
    """

    def __init__(self, masks: tuple[int, ...], flavor: str):
        self.masks = masks
        self.flavor = flavor
        self.kind = ProblemKind.SEP_ID if flavor == "id" else ProblemKind.SEP_LD

    # The carried set lies inside the subtree, so signatures over the whole
    # graph restricted to the subtree's vertices are the subtree's own.
    def _canonical(self, verts: int, cand: int, state) -> bool:
        k, emp, univ, _ = state
        masks, kind = self.masks, self.kind
        if cand.bit_count() != k or first_collision(masks, cand, kind, verts):
            return False
        if not emp and undominated(masks, cand, kind, verts):
            return False
        if not univ and covered(masks, cand, kind, verts):
            return False
        return True

    def _candidates(self, verts: int, base: int, kind: int) -> Iterator[int]:
        """Sets of one more vertex tried at a merge whose value grows by one."""
        if kind == UNION:
            for u in bits(undominated(self.masks, base, self.kind, verts)):
                yield base | 1 << u
            return
        colliders = covered(self.masks, base, self.kind, verts)
        if self.flavor == "ld":
            for u in bits(colliders):
                yield base | 1 << u
            return
        # A closed neighbourhood meeting exactly one collider splits it off.
        for w in bits(verts):
            if ((self.masks[w] | 1 << w) & colliders).bit_count() == 1:
                yield base | 1 << w

    def _merge_children(self, kind: int, kids: list) -> tuple:
        verts, state, cand = kids[0]
        for bverts, bstate, bcand in kids[1:]:
            nverts = verts | bverts
            nstate = _merge(state, bstate, kind, self.flavor)
            base = cand | bcand
            if nstate[0] == state[0] + bstate[0] + 1:
                candidates = self._candidates(nverts, base, kind)
            else:
                candidates = [base]
            chosen = next((c for c in candidates if self._canonical(nverts, c, nstate)), None)
            if chosen is None:
                raise WitnessUnavailable(
                    "no constructive candidate meets the side conditions"
                )
            verts, state, cand = nverts, nstate, chosen
        return verts, state, cand

    def build(self, t: Cotree) -> tuple[int, tuple, int]:
        """Returns (vertex mask, fold state, witness mask) for the whole tree."""
        return fold_cotree(t, lambda v: (1 << v, _LEAF, 0), self._merge_children)


def witness_cograph(t: Cotree, kind: ProblemKind) -> frozenset[int]:
    """A verified minimum solution set assembled along the cotree.

    Supports IC and LD (separating witness plus the single repair vertex when
    needed), RS on connected cographs, and the raw SEP_ID / SEP_LD witnesses.
    The graph is never built: the builder and the final check run on the
    adjacency masks of :func:`models.cotree_masks`.
    """
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
    if kind is ProblemKind.RS and t.root_kind == UNION:
        raise Disconnected("cotree root is a union: graph is disconnected")
    masks = cotree_masks(t)
    builder = _WitnessBuilder(masks, flavor)
    verts, state, cand = builder.build(t)
    if repair and summary.emp:
        holes = bits(undominated(masks, cand, builder.kind, verts))
        if len(holes) != 1:
            raise WitnessUnavailable("expected exactly one undominated vertex")
        cand |= 1 << holes[0]
    witness = frozenset(bits(cand))
    if not check_masks(masks, witness, kind):
        raise WitnessUnavailable(f"assembled set failed the {kind} verifier")
    expected = summary.k + (1 if repair and summary.emp else 0)
    if len(witness) != expected:
        raise WitnessUnavailable("assembled set has the wrong size")
    return witness
