"""Closed-form order bounds per graph class, and instance certification.

max_order answers "how many vertices can a graph of this class have, given a
solution of size k (and diameter D for resolving sets)"; min_parameter inverts
that exactly.  certify checks a concrete model/solution pair against the
tightest bound its model attests.

Each bound is one row of _TABLE: its formula in k and D, its label, whether it
needs the diameter D, the least k it covers and, for a linear bound
n <= a*k + b, its exact inverse (n - b) / a.  The general-class rows are
prior-work reference values for cross-checking only.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from . import verify as _verify
from .cograph import solve_cotree
from .graph import Graph, bipartition, diameter as graph_diameter
from .models import (
    Cotree,
    IntervalModel,
    Model,
    PermutationModel,
    is_unit_model,
    model_to_graph,
)
from .verify import ProblemKind

__all__ = [
    "GraphClass",
    "BoundQuery",
    "BoundReport",
    "BoundsError",
    "UnsupportedCombination",
    "MissingDiameter",
    "HypothesisNotMet",
    "VerifierFailed",
    "max_order",
    "min_parameter",
    "min_parameter_exact",
    "certify",
    "certify_instance",
    "attest_class",
]


class GraphClass(Enum):
    INTERVAL = "interval"
    UNIT_INTERVAL = "unit-interval"
    PERMUTATION = "permutation"
    BIPARTITE_PERMUTATION = "bipartite-permutation"
    COGRAPH = "cograph"
    GENERAL = "general"


class BoundsError(Exception):
    pass


class UnsupportedCombination(BoundsError):
    """No theorem covers this class/kind pair."""


class MissingDiameter(BoundsError):
    """Resolving-set bounds need the diameter."""


class HypothesisNotMet(BoundsError):
    """The instance violates a hypothesis of the applicable theorem."""


class VerifierFailed(BoundsError):
    """The claimed solution does not pass its verifier."""


@dataclass(frozen=True)
class BoundQuery:
    graph_class: GraphClass
    kind: ProblemKind
    k: int
    d: Optional[int] = None


@dataclass(frozen=True)
class BoundReport:
    max_n: int
    theorem_label: str
    satisfied: Optional[bool] = None
    slack: Optional[int] = None


class _Bound(NamedTuple):
    formula: Callable[[int, Optional[int]], int]
    label: str
    needs_d: bool = False
    min_k: int = 0
    exact: Optional[Callable[[int], Fraction]] = None


def _linear(a: int, b: int) -> _Bound:
    """The row n <= a*k + b, with its exact inverse k >= (n - b) / a."""
    label = f"n<={a}k{b:+d}" if b else f"n<={a}k"
    return _Bound(lambda k, d: a * k + b, label, exact=lambda n: Fraction(n - b, a))


# Connected cographs have diameter <= 2, so their resolving row needs no D;
# the permutation neighbourhood theorems assume k >= 3.
_TABLE = {
    (GraphClass.INTERVAL, ProblemKind.IC): _Bound(lambda k, d: k * (k + 1) // 2, "n<=k(k+1)/2"),
    (GraphClass.INTERVAL, ProblemKind.OLD): _Bound(lambda k, d: k * (k + 1) // 2, "n<=k(k+1)/2"),
    (GraphClass.INTERVAL, ProblemKind.LD): _Bound(lambda k, d: k * (k + 3) // 2, "n<=k(k+3)/2"),
    (GraphClass.INTERVAL, ProblemKind.RS): _Bound(
        lambda k, d: 2 * k * k * d + 4 * k * k + k * d + 5 * k + 1,
        "n<=2k^2D+4k^2+kD+5k+1",
        needs_d=True,
    ),
    (GraphClass.UNIT_INTERVAL, ProblemKind.IC): _linear(2, -1),
    (GraphClass.UNIT_INTERVAL, ProblemKind.OLD): _linear(2, -1),
    (GraphClass.UNIT_INTERVAL, ProblemKind.LD): _linear(3, -1),
    (GraphClass.UNIT_INTERVAL, ProblemKind.RS): _Bound(
        lambda k, d: k * (d + 2) - 2, "n<=k(D+2)-2", needs_d=True
    ),
    (GraphClass.PERMUTATION, ProblemKind.IC): _Bound(lambda k, d: k * k - 2, "n<=k^2-2", min_k=3),
    (GraphClass.PERMUTATION, ProblemKind.OLD): _Bound(lambda k, d: k * k - 2, "n<=k^2-2", min_k=3),
    (GraphClass.PERMUTATION, ProblemKind.LD): _Bound(
        lambda k, d: k * k + k - 2, "n<=k^2+k-2", min_k=3
    ),
    (GraphClass.PERMUTATION, ProblemKind.RS): _Bound(
        lambda k, d: 2 * k * k * (d + 3) + 3 * k, "n<=2k^2(D+3)+3k", needs_d=True
    ),
    (GraphClass.BIPARTITE_PERMUTATION, ProblemKind.IC): _linear(3, 2),
    (GraphClass.BIPARTITE_PERMUTATION, ProblemKind.LD): _linear(3, 2),
    (GraphClass.BIPARTITE_PERMUTATION, ProblemKind.OLD): _linear(2, 2),
    (GraphClass.BIPARTITE_PERMUTATION, ProblemKind.RS): _Bound(
        lambda k, d: k * (2 * d - 1) + 2, "n<=k(2D-1)+2", needs_d=True
    ),
    (GraphClass.COGRAPH, ProblemKind.IC): _linear(2, -2),
    (GraphClass.COGRAPH, ProblemKind.LD): _linear(3, 0),
    (GraphClass.COGRAPH, ProblemKind.RS): _linear(3, 0),
    (GraphClass.GENERAL, ProblemKind.IC): _Bound(lambda k, d: 2**k - 1, "n<=2^k-1"),
    (GraphClass.GENERAL, ProblemKind.OLD): _Bound(lambda k, d: 2**k - 1, "n<=2^k-1"),
    (GraphClass.GENERAL, ProblemKind.LD): _Bound(lambda k, d: 2**k + k - 1, "n<=2^k+k-1"),
    (GraphClass.GENERAL, ProblemKind.RS): _Bound(lambda k, d: d**k + k, "n<=D^k+k", needs_d=True),
}

_SEPARATING = (ProblemKind.SEP_ID, ProblemKind.SEP_LD, ProblemKind.SEP_OLD)


def _bound(graph_class: GraphClass, kind: ProblemKind) -> _Bound:
    """The table row for the pair; separating kinds have none in any class."""
    if kind in _SEPARATING:
        raise UnsupportedCombination("bounds are stated for the dominating variants")
    row = _TABLE.get((graph_class, kind))
    if row is None:
        raise UnsupportedCombination(f"no bound for {graph_class} / {kind}")
    return row


def max_order(query: BoundQuery) -> int:
    """Largest possible order under the class/kind bound, exactly."""
    key = (query.graph_class, query.kind)
    row = _bound(*key)
    if query.k < row.min_k:
        raise HypothesisNotMet(f"bound for {key} assumes k >= {row.min_k}")
    if row.needs_d:
        if query.d is None:
            raise MissingDiameter(f"bound for {key} needs the diameter")
        if query.d < 1:
            raise HypothesisNotMet("diameter must be at least 1")
    return row.formula(query.k, query.d)


def bound_label(graph_class: GraphClass, kind: ProblemKind) -> str:
    return _bound(graph_class, kind).label


def min_parameter(
    graph_class: GraphClass, kind: ProblemKind, n: int, d: Optional[int] = None
) -> int:
    """Smallest k whose bound admits an order-n graph (exact inversion)."""
    k = _bound(graph_class, kind).min_k
    while max_order(BoundQuery(graph_class, kind, k, d)) < n:
        k += 1
    return k


def min_parameter_exact(graph_class: GraphClass, kind: ProblemKind, n: int) -> Fraction:
    """The rational lower-bound expression, for the linear bounds."""
    exact = _bound(graph_class, kind).exact
    if exact is None:
        raise UnsupportedCombination(f"lower bound for {(graph_class, kind)} is not rational")
    return exact(n)


def attest_class(model: Model, g: Optional[Graph] = None) -> GraphClass:
    """The tightest class the model itself evidences.

    `g` is the model's graph when the caller has already compiled it.
    """
    if isinstance(model, IntervalModel):
        return GraphClass.UNIT_INTERVAL if is_unit_model(model) else GraphClass.INTERVAL
    if isinstance(model, PermutationModel):
        if g is None:
            g = model_to_graph(model)
        if bipartition(g) is not None:
            return GraphClass.BIPARTITE_PERMUTATION
        return GraphClass.PERMUTATION
    if isinstance(model, Cotree):
        return GraphClass.COGRAPH
    return GraphClass.GENERAL


# Separating kind -> the dominating variant whose cograph bound certifies it.
# A separating set may not dominate, so it is not itself a solution of the
# dominating variant; the bound holds for every solution, so it is applied
# at that variant's minimum size gamma <= sep + 1, the cotree fold's value.
_SEP_GAMMA = {
    ProblemKind.SEP_ID: ProblemKind.IC,
    ProblemKind.SEP_LD: ProblemKind.LD,
}


def certify(
    model: Model,
    solution,
    kind: ProblemKind,
    graph_class: Optional[GraphClass] = None,
) -> BoundReport:
    """Verify the solution and compare the order against the class bound.

    Without an explicit graph_class the tightest class the model attests is
    used; passing one makes sense when the model incidentally lands in a
    subclass (e.g. a small permutation diagram that happens to be bipartite).
    On a cotree, SEP_ID / SEP_LD solutions are checked against the matching
    dominating variant's bound at that variant's minimum size.
    """
    at_gamma = (
        kind in _SEP_GAMMA
        and isinstance(model, Cotree)
        and graph_class in (None, GraphClass.COGRAPH)
    )
    bound_kind = _SEP_GAMMA[kind] if at_gamma else kind
    if bound_kind in _SEPARATING:  # no row in any class: reject before verifying
        _bound(GraphClass.GENERAL, bound_kind)
    g = model_to_graph(model)
    solution = frozenset(solution)
    if not _verify.check(g, solution, kind):
        detail = ""
        if kind is not ProblemKind.RS:
            pair = _verify.separation_violation(g, solution, kind)
            if pair is not None:
                detail = f" pair={pair}"
        raise VerifierFailed(f"solution fails the {kind.value} verifier{detail}")
    if graph_class is None:
        graph_class = attest_class(model, g)
    k = solve_cotree(model, bound_kind).value if at_gamma else len(solution)
    row = _bound(graph_class, bound_kind)
    d = graph_diameter(g) if row.needs_d else None
    if graph_class is GraphClass.COGRAPH and bound_kind is ProblemKind.IC and g.n < 2:
        raise HypothesisNotMet("the cograph identifying-code bound assumes n >= 2")
    max_n = max_order(BoundQuery(graph_class, bound_kind, k, d))
    return BoundReport(
        max_n=max_n,
        theorem_label=row.label,
        satisfied=g.n <= max_n,
        slack=max_n - g.n,
    )


_FAMILY_CLASS = {
    "interval": GraphClass.INTERVAL,
    "unit": GraphClass.UNIT_INTERVAL,
    "perm": GraphClass.PERMUTATION,
    "bipperm": GraphClass.BIPARTITE_PERMUTATION,
    "cograph": GraphClass.COGRAPH,
}


def certify_instance(instance) -> BoundReport:
    """Certify a generated extremal instance against its family's class bound
    (separating kinds are checked against the matching dominating-variant
    bound)."""
    family_class = _FAMILY_CLASS.get(instance.family.split("-", 1)[0])
    return certify(instance.model, instance.solution, instance.kind, graph_class=family_class)
