"""Linear-time bottom-up computations on cotrees.

For a cograph given by its cotree, the minimum separating-set size can be
computed by a single fold: every step combines two summaries (value plus two
boolean properties of the child's minimum separating sets) in O(1).  The
properties are

  emp:  every minimum separating set leaves a vertex with empty signature;
  univ: every minimum separating set has a vertex dominated by the whole set
        (under SEP_LD that vertex must lie outside the set).

One entry point, :func:`solve_cotree`, serves every kind.  The fold runs on
the separating kind the kind refines (``verify.SEPARATING``): SEP_ID, SEP_LD
or SEP_OLD.  The dominating kinds IC, LD and OLD add one repair vertex
exactly when every minimum separating set leaves a hole, so their value is
k + [emp].  RS folds as SEP_LD without repair, since a connected cograph has
diameter at most 2, where resolving and separating sets coincide.  A Cotree
is valid once built, so the tree is only folded, once; the fold also
runs the separating kind's twin gate and carries whether each subtree has a
universal and an isolated vertex, so the root tells whether OLD has a
solution at all.  The summary's n is the tree's leaf count, ``Cotree.n``.

A witness is never returned unverified: the assembled set goes through
``verify.check`` on the graph ``cotree_to_graph`` compiles.  An RS witness is
checked there as a SEP_LD set, which needs no breadth-first search: in a
graph of diameter at most 2 every distance is 0, 1 or 2, so a member is
told apart by its 0 and a non-member's distance vector is its
neighbourhood in the set, and the vectors differ exactly when the SEP_LD
signatures do.

One merge rule, ``_merge``, combines two subtrees for every separating kind
and both node kinds.  A union adds one to the value exactly when both parts
have emp; emp carries over from either part, and univ survives only when
one part is a single vertex and the other has univ without emp.  A join is
the same rule with emp and univ exchanged, because complementing a cograph
swaps unions with joins and emp with univ.  The separating kinds differ only
when both parts are single vertices, and those exceptions are data,
``_TWO_SINGLETONS``: SEP_ID needs univ(single ⊕ single) = True and SEP_OLD
needs emp(single ⋈ single) = True, both forced by the literal definitions and
cross-checked exhaustively against the subset-enumeration oracle.

The fold never calls ``_merge``.  A subtree's state is one int, k in the
high bits and five flags in the low ``_SHIFT`` bits: emp, univ, single
vertex, has a universal vertex and has an isolated vertex.  On first use a
separating kind gets a table of two rows, union and join, each indexed by
the two parts' flags, ``a << _SHIFT | b``, and built from ``_merge``.  An
entry is ``(bump << _SHIFT | flags) - a - b``, so a child merges with one
lookup and two additions, ``s += b + row[(s & 31) << 5 | b & 31]``: k adds
up with the bump, and the old flags cancel out.  Where the twin gate fires
(both parts with a universal vertex at a SEP_ID join, both with an isolated
one at a SEP_OLD union) the entry is a ``_Gate``, which raises the kind's
``exact.TWINS`` error when it is added.  The fold is one loop over the
cotree's post-order codes (:class:`models.Cotree`) with the finished
subtrees' states on a stack and no call per node: a leaf pushes ``_LEAF``,
and a node merges its children's states off the stack with its row.

When a witness is asked for, a loop of the same shape runs instead, and
its stack holds ``(state, hole, cov, nn)``: the state as before, and three
vertices of the minimum separating set built for the subtree, each None
when absent.  ``hole`` is the one vertex with an empty signature, ``cov``
the one vertex whose signature is the whole set, and ``nn`` a vertex of
the subtree outside N[cov].  A node merges its children left to right
through ``_witness_merge``, which reads the bump and the single-vertex bits
off the packed states.  The set is never stored: it is the vertices added
at bumped merges (where the value grows by one), plus the root's hole when
IC or LD need the repair vertex.
Parts A then B merge as follows:

  union, no bump: the hole is A's or B's; cov, nn are A's cov and B's hole
      if B is one vertex, B's cov and A's hole if A is, else none.
  union, bump: both parts have a hole.  B's is added if B is one vertex,
      else A's, and the other stays the hole; cov, nn are B's hole and A's
      hole under SEP_ID with two single vertices, else none.
  join, no bump: the hole is A's if B is one vertex, B's if A is, else
      none; cov, nn are A's if A has a cov, else B's.
  join, bump: both parts have a cov; no hole.  SEP_LD adds B's cov if B is
      one vertex, else A's.  SEP_ID adds the first that exists of A's hole if
      B is one vertex, B's hole if A is, A's nn, B's nn.  cov, nn are those
      of the part the added vertex is not in.

It holds because across a union a vertex of A and one of B see disjoint
parts of the set, so their signatures can be equal only when both are
empty; across a join each sees the other part's whole set, so theirs can be
equal only when both are their own part's whole set; adding a vertex never
makes two distinct signatures equal; and in a SEP_ID join bump the twin gate
guarantees that A's or B's nn exists, since without one both covered
vertices would be universal in their parts.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .exact import TWINS
from .graph import Disconnected
from .models import JOIN, UNION, Cotree, cotree_to_graph
from .verify import SEPARATING, ProblemKind, check

__all__ = [
    "CographSummary",
    "NoOldSolution",
    "WitnessUnavailable",
    "solve_cotree",
]


class NoOldSolution(Exception):
    """The graph has a vertex of degree 0, so no total dominating set exists."""


class WitnessUnavailable(Exception):
    """No verified witness could be produced for this cotree."""


class CographSummary(NamedTuple):
    """Separating-set size and property flags for one cograph."""

    k: int
    emp: bool
    univ: bool
    n: int


class CotreeSolution(NamedTuple):
    """What :func:`solve_cotree` returns for one kind."""

    summary: CographSummary
    value: int
    witness: Optional[frozenset[int]]


# -- the merge rule -----------------------------------------------------------
#
# The exceptions per separating kind, the node kind at which two single
# vertices break the rule: two isolated ones under SEP_ID (each singleton set
# covers itself, so univ) and an adjacent pair under SEP_OLD (each singleton
# set misses its own vertex, so emp).

_TWO_SINGLETONS = {ProblemKind.SEP_ID: UNION, ProblemKind.SEP_OLD: JOIN}

# A state is k << _SHIFT | flags.
_EMP, _UNIV, _SINGLE, _UNIVERSAL, _ISOLATED = 1, 2, 4, 8, 16
_SHIFT = 5
_FLAGS = (1 << _SHIFT) - 1
_LEAF = _FLAGS  # k = 0, and a single vertex has every flag

# The flag a twin gate reads in both parts: closed twins appear when a join
# merges two parts with universal vertices, open twins when a union merges
# two parts with isolated vertices.
_GATE_FLAG = {JOIN: _UNIVERSAL, UNION: _ISOLATED}


def _merge(a: int, b: int, kind: int, singles: Optional[int]) -> tuple[int, int]:
    """(bump, flags) of the union (or join) of two subtrees with flags a and b:
    the value grows by bump.  ``singles`` is the separating kind's entry of
    ``_TWO_SINGLETONS``."""
    join = kind == JOIN
    one_a, one_b = bool(a & _SINGLE), bool(b & _SINGLE)
    emp_a, univ_a = bool(a & _EMP), bool(a & _UNIV)
    emp_b, univ_b = bool(b & _EMP), bool(b & _UNIV)
    if join:
        emp_a, univ_a, emp_b, univ_b = univ_a, emp_a, univ_b, emp_b
    if one_a and one_b and kind == singles:
        univ = True
    elif one_a:
        univ = univ_b and not emp_b
    elif one_b:
        univ = univ_a and not emp_a
    else:
        univ = False
    bump = emp_a and emp_b
    emp = emp_a or emp_b
    if join:
        emp, univ = univ, emp
    # A join's vertices see every vertex of the other part, so none is
    # isolated; a union's see none of it, so none is universal.
    kept = (a | b) & (_UNIVERSAL if join else _ISOLATED)
    return int(bump), emp * _EMP | univ * _UNIV | kept


class _Gate:
    """The table entry of a merge that hits its twin gate: adding it to a
    state raises the separating kind's twin error."""

    __slots__ = ("twins",)

    def __init__(self, twins):
        self.twins = twins

    def __radd__(self, _state):
        raise self.twins.error(self.twins.gate_message)


# Separating kind -> its (union, join) rows, built on first use.
_TABLES: dict = {}


def _rows(sep: ProblemKind) -> tuple[list, list]:
    """The merge table of a separating kind, one row per node kind."""
    rows = _TABLES.get(sep)
    if rows is None:
        rows = _TABLES[sep] = (_row(sep, UNION), _row(sep, JOIN))
    return rows


def _row(sep: ProblemKind, kind: int) -> list:
    """The entry for flags a and b sits at ``a << _SHIFT | b``: it is
    ``(bump << _SHIFT | flags) - a - b`` from ``_merge``, so that ``s + t +
    entry`` is the merged state of states s and t, or a _Gate where the
    separating kind's twin gate fires."""
    twins = TWINS.get(sep)
    gate = _Gate(twins) if twins and twins.node == kind else None
    singles = _TWO_SINGLETONS.get(sep)
    row = []
    for a in range(_FLAGS + 1):
        for b in range(_FLAGS + 1):
            if gate is not None and a & b & _GATE_FLAG[kind]:
                row.append(gate)
            else:
                bump, flags = _merge(a, b, kind, singles)
                row.append((bump << _SHIFT | flags) - a - b)
    return row


def _witness_merge(a, b, kind: int, row: list, sep: ProblemKind, added: list[int]) -> tuple:
    """(state, hole, cov, nn) of parts a and b merged; a bump appends to `added`."""
    s_a, h_a, c_a, nn_a = a
    s_b, h_b, c_b, nn_b = b
    state = s_a + s_b + row[(s_a & _FLAGS) << _SHIFT | s_b & _FLAGS]
    one_a, one_b = s_a & _SINGLE, s_b & _SINGLE
    bump = state >> _SHIFT > (s_a >> _SHIFT) + (s_b >> _SHIFT)
    if kind == UNION:
        if bump:  # both parts have a hole: one is added, the other stays
            hole, x = (h_a, h_b) if one_b else (h_b, h_a)
            added.append(x)
            if sep is ProblemKind.SEP_ID and one_a and one_b:
                return state, hole, h_b, h_a
            return state, hole, None, None
        hole = h_b if h_a is None else h_a
        cov, nn = (c_a, h_b) if one_b else (c_b, h_a) if one_a else (None, None)
        return state, hole, cov, nn
    if not bump:
        hole = h_a if one_b else h_b if one_a else None
        return (state, hole, c_a, nn_a) if c_a is not None else (state, hole, c_b, nn_b)
    # A bumped join: the two parts' covered vertices collide.  The added
    # vertex tells them apart, and the other part's one stays covered.
    if sep is ProblemKind.SEP_LD:
        x, in_a = (c_b, False) if one_b else (c_a, True)
    elif one_b and h_a is not None:
        x, in_a = h_a, True
    elif one_a and h_b is not None:
        x, in_a = h_b, False
    elif nn_a is not None:
        x, in_a = nn_a, True
    else:
        x, in_a = nn_b, False
    added.append(x)
    return (state, None, c_b, nn_b) if in_a else (state, None, c_a, nn_a)


# -- the fold -----------------------------------------------------------------

def _fold(t: Cotree, sep: ProblemKind, witness: bool) -> tuple:
    """Post-order fold of the merge rule.

    Returns the root's part and the vertices added at bumps.  A part is the
    state, or with a witness (state, hole, cov, nn).  Raises the error of
    ``exact.TWINS[sep]`` (TwinsPresent / OpenTwinsPresent) as soon as a merge
    hits its twin gate, which is exactly when the compiled graph has closed
    (open) twins.

    Both folds are loops over the codes with the finished subtrees' parts
    on a stack.  The witness loop merges a node's children left to right,
    and that order fixes the chosen set.  The plain loop keeps the last
    finished subtree's state in ``s`` and the earlier ones on the stack, so
    a node of arity a pops a - 1 states into ``s``, from its last child back
    to its first.  The order does not change the root's state, since the
    merge is symmetric and a subtree's state is a property of its graph
    alone.
    """
    rows = _rows(sep)
    added: list[int] = []
    if witness:
        parts: list[tuple] = []
        push = parts.append
        for code in t.codes:
            if code >= 0:
                push((_LEAF, code, code, None))
            else:
                kind = ~code & 1
                row = rows[kind]
                base = len(parts) - (~code >> 1)
                part = parts[base]
                for b in parts[base + 1:]:
                    part = _witness_merge(part, b, kind, row, sep, added)
                parts[base:] = (part,)
        return parts[0], added

    waiting: list[int] = []
    push, pop = waiting.append, waiting.pop
    s = 0  # the state below the first leaf, never merged
    for code in t.codes:
        if code >= 0:
            push(s)
            s = _LEAF
        else:
            row = rows[~code & 1]
            arity = ~code >> 1
            while arity > 1:
                b = pop()
                s += b + row[(s & _FLAGS) << _SHIFT | b & _FLAGS]
                arity -= 1
    return s, added


def solve_cotree(t: Cotree, kind: ProblemKind, witness: bool = False) -> CotreeSolution:
    """Summary, minimum size and, if asked for, a verified minimum set of `kind`.

    The summary is the fold's state for the kind's separating kind; the
    value adds the repair vertex for the dominating kinds when emp holds.
    Raises TwinsPresent / OpenTwinsPresent for twins of the separating kind,
    Disconnected for RS on a union root, NoOldSolution for OLD on a graph
    with an isolated vertex, and ValueError for a witness of the OLD kinds.
    Only the witness's final check compiles the graph
    (:func:`models.cotree_to_graph`); an RS witness is checked as a SEP_LD set.
    """
    rs = kind is ProblemKind.RS
    sep = ProblemKind.SEP_LD if rs else SEPARATING[kind]
    if witness and sep is ProblemKind.SEP_OLD:
        raise ValueError(f"witness reconstruction does not support {kind}")
    part, added = _fold(t, sep, witness)
    state = part[0] if witness else part
    summary = CographSummary(state >> _SHIFT, bool(state & _EMP), bool(state & _UNIV), t.n)
    if rs and t.root_kind == UNION:
        raise Disconnected("cotree root is a union")
    if kind is ProblemKind.OLD and state & _ISOLATED:
        raise NoOldSolution("a degree-0 vertex cannot be totally dominated")
    repaired = not rs and sep is not kind and summary.emp
    value = summary.k + (1 if repaired else 0)
    if not witness:
        return CotreeSolution(summary, value, None)
    if repaired:
        added.append(part[1])
    found = frozenset(added)
    # The root is a join or a leaf here, so the diameter is at most 2.
    if not check(cotree_to_graph(t), found, sep if rs else kind):
        raise WitnessUnavailable(f"assembled set failed the {kind} verifier")
    if len(found) != value:
        raise WitnessUnavailable("assembled set has the wrong size")
    return CotreeSolution(summary, value, found)
