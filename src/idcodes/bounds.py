"""Closed-form order bounds per graph class, and instance certification.

max_order answers "how many vertices can a graph of this class have, given a
solution of size k (and diameter D for resolving sets)"; min_parameter inverts
that exactly.  certify checks a concrete model/solution pair against the
tightest bound its model attests.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

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


# (class, kind) -> (formula, label); _NEEDS_D holds the rows needing D.  The
# general-class rows are prior-work reference values for cross-checking only.
_TABLE = {
    (GraphClass.INTERVAL, ProblemKind.IC): (lambda k, d: k * (k + 1) // 2, "n<=k(k+1)/2"),
    (GraphClass.INTERVAL, ProblemKind.OLD): (lambda k, d: k * (k + 1) // 2, "n<=k(k+1)/2"),
    (GraphClass.INTERVAL, ProblemKind.LD): (lambda k, d: k * (k + 3) // 2, "n<=k(k+3)/2"),
    (GraphClass.INTERVAL, ProblemKind.RS): (
        lambda k, d: 2 * k * k * d + 4 * k * k + k * d + 5 * k + 1,
        "n<=2k^2D+4k^2+kD+5k+1",
    ),
    (GraphClass.UNIT_INTERVAL, ProblemKind.IC): (lambda k, d: 2 * k - 1, "n<=2k-1"),
    (GraphClass.UNIT_INTERVAL, ProblemKind.OLD): (lambda k, d: 2 * k - 1, "n<=2k-1"),
    (GraphClass.UNIT_INTERVAL, ProblemKind.LD): (lambda k, d: 3 * k - 1, "n<=3k-1"),
    (GraphClass.UNIT_INTERVAL, ProblemKind.RS): (
        lambda k, d: k * (d + 2) - 2,
        "n<=k(D+2)-2",
    ),
    (GraphClass.PERMUTATION, ProblemKind.IC): (lambda k, d: k * k - 2, "n<=k^2-2"),
    (GraphClass.PERMUTATION, ProblemKind.OLD): (lambda k, d: k * k - 2, "n<=k^2-2"),
    (GraphClass.PERMUTATION, ProblemKind.LD): (
        lambda k, d: k * k + k - 2,
        "n<=k^2+k-2",
    ),
    (GraphClass.PERMUTATION, ProblemKind.RS): (
        lambda k, d: 2 * k * k * (d + 3) + 3 * k,
        "n<=2k^2(D+3)+3k",
    ),
    (GraphClass.BIPARTITE_PERMUTATION, ProblemKind.IC): (
        lambda k, d: 3 * k + 2,
        "n<=3k+2",
    ),
    (GraphClass.BIPARTITE_PERMUTATION, ProblemKind.LD): (
        lambda k, d: 3 * k + 2,
        "n<=3k+2",
    ),
    (GraphClass.BIPARTITE_PERMUTATION, ProblemKind.OLD): (
        lambda k, d: 2 * k + 2,
        "n<=2k+2",
    ),
    (GraphClass.BIPARTITE_PERMUTATION, ProblemKind.RS): (
        lambda k, d: k * (2 * d - 1) + 2,
        "n<=k(2D-1)+2",
    ),
    (GraphClass.COGRAPH, ProblemKind.IC): (lambda k, d: 2 * k - 2, "n<=2k-2"),
    (GraphClass.COGRAPH, ProblemKind.LD): (lambda k, d: 3 * k, "n<=3k"),
    (GraphClass.COGRAPH, ProblemKind.RS): (lambda k, d: 3 * k, "n<=3k"),
    (GraphClass.GENERAL, ProblemKind.IC): (lambda k, d: 2**k - 1, "n<=2^k-1"),
    (GraphClass.GENERAL, ProblemKind.OLD): (lambda k, d: 2**k - 1, "n<=2^k-1"),
    (GraphClass.GENERAL, ProblemKind.LD): (
        lambda k, d: 2**k + k - 1,
        "n<=2^k+k-1",
    ),
    (GraphClass.GENERAL, ProblemKind.RS): (lambda k, d: d**k + k, "n<=D^k+k"),
}

# Resolving-set bounds that need a diameter (connected cographs have
# diameter <= 2 so theirs does not).
_NEEDS_D = {
    (GraphClass.INTERVAL, ProblemKind.RS),
    (GraphClass.UNIT_INTERVAL, ProblemKind.RS),
    (GraphClass.PERMUTATION, ProblemKind.RS),
    (GraphClass.BIPARTITE_PERMUTATION, ProblemKind.RS),
    (GraphClass.GENERAL, ProblemKind.RS),
}

# The permutation neighbourhood theorems assume k >= 3.
_MIN_K = {
    (GraphClass.PERMUTATION, ProblemKind.IC): 3,
    (GraphClass.PERMUTATION, ProblemKind.OLD): 3,
    (GraphClass.PERMUTATION, ProblemKind.LD): 3,
}


def _normalize_kind(kind: ProblemKind) -> ProblemKind:
    if kind in (ProblemKind.SEP_ID, ProblemKind.SEP_LD, ProblemKind.SEP_OLD):
        raise UnsupportedCombination("bounds are stated for the dominating variants")
    return kind


def max_order(query: BoundQuery) -> int:
    """Largest possible order under the class/kind bound, exactly."""
    kind = _normalize_kind(query.kind)
    key = (query.graph_class, kind)
    if key not in _TABLE:
        raise UnsupportedCombination(f"no bound for {query.graph_class} / {kind}")
    min_k = _MIN_K.get(key, 0)
    if query.k < min_k:
        raise HypothesisNotMet(f"bound for {key} assumes k >= {min_k}")
    if key in _NEEDS_D:
        if query.d is None:
            raise MissingDiameter(f"bound for {key} needs the diameter")
        if query.d < 1:
            raise HypothesisNotMet("diameter must be at least 1")
    formula, _ = _TABLE[key]
    return formula(query.k, query.d)


def bound_label(graph_class: GraphClass, kind: ProblemKind) -> str:
    key = (graph_class, _normalize_kind(kind))
    if key not in _TABLE:
        raise UnsupportedCombination(f"no bound for {key}")
    return _TABLE[key][1]


def min_parameter(
    graph_class: GraphClass, kind: ProblemKind, n: int, d: Optional[int] = None
) -> int:
    """Smallest k whose bound admits an order-n graph (exact inversion)."""
    kind = _normalize_kind(kind)
    key = (graph_class, kind)
    if key not in _TABLE:
        raise UnsupportedCombination(f"no bound for {key}")
    k = _MIN_K.get(key, 0)
    while True:
        if max_order(BoundQuery(graph_class, kind, k, d)) >= n:
            return k
        k += 1


_EXACT_LOWER = {
    (GraphClass.UNIT_INTERVAL, ProblemKind.IC): lambda n: Fraction(n + 1, 2),
    (GraphClass.UNIT_INTERVAL, ProblemKind.OLD): lambda n: Fraction(n + 1, 2),
    (GraphClass.UNIT_INTERVAL, ProblemKind.LD): lambda n: Fraction(n + 1, 3),
    (GraphClass.BIPARTITE_PERMUTATION, ProblemKind.IC): lambda n: Fraction(n - 2, 3),
    (GraphClass.BIPARTITE_PERMUTATION, ProblemKind.LD): lambda n: Fraction(n - 2, 3),
    (GraphClass.BIPARTITE_PERMUTATION, ProblemKind.OLD): lambda n: Fraction(n - 2, 2),
    (GraphClass.COGRAPH, ProblemKind.IC): lambda n: Fraction(n + 2, 2),
    (GraphClass.COGRAPH, ProblemKind.LD): lambda n: Fraction(n, 3),
    (GraphClass.COGRAPH, ProblemKind.RS): lambda n: Fraction(n, 3),
}


def min_parameter_exact(graph_class: GraphClass, kind: ProblemKind, n: int) -> Fraction:
    """The rational lower-bound expression, for the classes where it is one."""
    key = (graph_class, _normalize_kind(kind))
    if key not in _EXACT_LOWER:
        raise UnsupportedCombination(f"lower bound for {key} is not rational")
    return _EXACT_LOWER[key](n)


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
    bound_kind = _SEP_GAMMA[kind] if at_gamma else _normalize_kind(kind)
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
    d = None
    if (graph_class, bound_kind) in _NEEDS_D:
        d = graph_diameter(g)
    if graph_class is GraphClass.COGRAPH and bound_kind is ProblemKind.IC and g.n < 2:
        raise HypothesisNotMet("the cograph identifying-code bound assumes n >= 2")
    max_n = max_order(BoundQuery(graph_class, bound_kind, k, d))
    return BoundReport(
        max_n=max_n,
        theorem_label=bound_label(graph_class, bound_kind),
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
