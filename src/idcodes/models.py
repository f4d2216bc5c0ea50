"""Geometric and structural graph models: intervals, permutation diagrams, cotrees.

Each model compiles to a plain :class:`~idcodes.graph.Graph`.  Interval
endpoints are exact rationals and intervals are open, so two intervals that
merely touch at a point are not adjacent.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

from .graph import Graph, complement, connected_components

__all__ = [
    "ModelError",
    "DegenerateInterval",
    "DuplicateIndex",
    "MalformedCotree",
    "NotCograph",
    "ModelFormatError",
    "IntervalModel",
    "PermutationModel",
    "Leaf",
    "CotreeNode",
    "Cotree",
    "UNION",
    "JOIN",
    "leaf",
    "union_node",
    "join_node",
    "walk_cotree",
    "fold_cotree",
    "cotree_leaves",
    "cotree_size",
    "canonicalize",
    "validate_cotree",
    "interval_graph",
    "is_unit_model",
    "permutation_graph",
    "cotree_to_graph",
    "cograph_recognize",
    "complement_cotree",
    "all_cotrees",
    "random_cotree",
    "random_twin_free_cotree",
    "normalized_segments",
    "model_to_graph",
    "parse_cotree",
    "format_cotree",
    "read_model",
    "parse_model",
    "write_model",
]


class ModelError(Exception):
    """Base class for model-domain errors."""


class DegenerateInterval(ModelError):
    """An interval has left >= right."""


class DuplicateIndex(ModelError):
    """A permutation diagram repeats a top or bottom index."""


class MalformedCotree(ModelError):
    """A cotree violates its structural invariants."""


class NotCograph(ModelError):
    """The graph contains an induced 4-vertex path."""


class ModelFormatError(ModelError):
    """A model file does not follow the expected format."""


# -- interval models ---------------------------------------------------------


class IntervalModel:
    """Open intervals with exact rational endpoints, one per vertex."""

    __slots__ = ("intervals",)

    def __init__(self, intervals: Iterable[tuple[Fraction | int, Fraction | int]]):
        ivs = []
        for left, right in intervals:
            left, right = Fraction(left), Fraction(right)
            if left >= right:
                raise DegenerateInterval(f"interval ]{left},{right}[ is empty")
            ivs.append((left, right))
        self.intervals: tuple[tuple[Fraction, Fraction], ...] = tuple(ivs)

    def __len__(self) -> int:
        return len(self.intervals)

    def __iter__(self) -> Iterator[tuple[Fraction, Fraction]]:
        return iter(self.intervals)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntervalModel) and self.intervals == other.intervals

    def __repr__(self) -> str:
        return f"IntervalModel(n={len(self.intervals)})"


def interval_graph(m: IntervalModel) -> Graph:
    """Intersection graph of the open intervals (strict overlap required)."""
    n = len(m)
    ivs = m.intervals
    edges = []
    for u in range(n):
        lu, ru = ivs[u]
        for v in range(u + 1, n):
            lv, rv = ivs[v]
            if max(lu, lv) < min(ru, rv):
                edges.append((u, v))
    return Graph(n, edges)


def is_unit_model(m: IntervalModel) -> bool:
    """True when every interval has length exactly 1."""
    return all(right - left == 1 for left, right in m.intervals)


# -- permutation models ------------------------------------------------------


class PermutationModel:
    """Segments between two parallel lines, given as (top, bottom) indices."""

    __slots__ = ("segments",)

    def __init__(self, segments: Iterable[tuple[int, int]]):
        segs = [(int(t), int(b)) for t, b in segments]
        tops = [t for t, _ in segs]
        bottoms = [b for _, b in segs]
        if len(set(tops)) != len(tops):
            raise DuplicateIndex("top indices are not pairwise distinct")
        if len(set(bottoms)) != len(bottoms):
            raise DuplicateIndex("bottom indices are not pairwise distinct")
        self.segments: tuple[tuple[int, int], ...] = tuple(segs)

    def __len__(self) -> int:
        return len(self.segments)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.segments)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PermutationModel) and self.segments == other.segments

    def __repr__(self) -> str:
        return f"PermutationModel(n={len(self.segments)})"

    def induced(self, keep: Sequence[int]) -> "PermutationModel":
        """Sub-model on the given vertices, in the given order."""
        return PermutationModel(self.segments[v] for v in keep)


def normalized_segments(
    positions: Iterable[tuple[Fraction | int, Fraction | int]]
) -> PermutationModel:
    """Rank arbitrary rational (top, bottom) positions down to integer indices."""
    pos = [(Fraction(t), Fraction(b)) for t, b in positions]
    top_rank = {t: i for i, t in enumerate(sorted(t for t, _ in pos))}
    bot_rank = {b: i for i, b in enumerate(sorted(b for _, b in pos))}
    return PermutationModel((top_rank[t], bot_rank[b]) for t, b in pos)


def permutation_graph(m: PermutationModel) -> Graph:
    """Two segments are adjacent exactly when they cross."""
    n = len(m)
    segs = m.segments
    edges = []
    for u in range(n):
        tu, bu = segs[u]
        for v in range(u + 1, n):
            tv, bv = segs[v]
            if (tu - tv) * (bu - bv) < 0:
                edges.append((u, v))
    return Graph(n, edges)


# -- cotrees -----------------------------------------------------------------

UNION = "U"
JOIN = "J"


@dataclass(frozen=True)
class Leaf:
    vertex: int


@dataclass(frozen=True)
class CotreeNode:
    kind: str  # UNION or JOIN
    children: tuple["Cotree", ...]


Cotree = Union[Leaf, CotreeNode]


def leaf(v: int) -> Leaf:
    return Leaf(v)


def union_node(*children: Cotree) -> CotreeNode:
    return CotreeNode(UNION, tuple(children))


def join_node(*children: Cotree) -> CotreeNode:
    return CotreeNode(JOIN, tuple(children))


def walk_cotree(t: Cotree) -> Iterator[tuple[Cotree, bool]]:
    """Depth-first walk of a cotree, children in order, without recursion.

    Yields ``(node, True)`` on entering and ``(node, False)`` on leaving an
    internal node, and ``(leaf, False)`` once per leaf, so the ``False``
    events alone are the post-order.  Every cotree traversal goes through
    here, which keeps trees of any depth inside the interpreter's stack.
    """
    # A node still to enter is pushed bare; one to leave, as a 1-tuple.
    stack: list = [t]
    pop, push, extend = stack.pop, stack.append, stack.extend
    while stack:
        node = pop()
        if node.__class__ is tuple:
            yield node[0], False
        elif isinstance(node, CotreeNode):
            yield node, True
            push((node,))
            extend(reversed(node.children))
        else:
            yield node, False


def fold_cotree(t: Cotree, leaf_fn, node_fn):
    """Post-order fold over :func:`walk_cotree`.

    ``leaf_fn(leaf)`` gives a leaf's value and ``node_fn(node, values)`` an
    internal node's, from the values of its children in order.  Child values
    wait on one value stack, so no node needs a dictionary entry.
    """
    values: list = []
    for node, entering in walk_cotree(t):
        if isinstance(node, Leaf):
            values.append(leaf_fn(node))
        elif not entering:
            base = len(values) - len(node.children)
            kids = values[base:]
            del values[base:]
            values.append(node_fn(node, kids))
    return values[0]


def cotree_leaves(t: Cotree) -> list[int]:
    """Leaf vertex labels in depth-first order."""
    return [node.vertex for node, _ in walk_cotree(t) if isinstance(node, Leaf)]


def cotree_size(t: Cotree) -> int:
    return len(cotree_leaves(t))


def _merge_chains(kind: str, kids: list[Cotree]) -> Cotree:
    """A node of the given kind over canonical kids, made canonical: kids of
    the same kind give up their children, and a single kid stands alone."""
    merged: list[Cotree] = []
    for c in kids:
        if isinstance(c, CotreeNode) and c.kind == kind:
            merged.extend(c.children)
        else:
            merged.append(c)
    return merged[0] if len(merged) == 1 else CotreeNode(kind, tuple(merged))


def canonicalize(t: Cotree) -> Cotree:
    """Merge same-kind parent/child chains and flatten single-child nodes."""
    return fold_cotree(t, lambda leaf: leaf, lambda node, kids: _merge_chains(node.kind, kids))


def validate_cotree(t: Cotree) -> None:
    """Raise MalformedCotree unless t is canonical and labels 0..n-1 exactly once."""
    labels = []
    kinds: list[str] = []  # kinds of the internal nodes above the current one
    for node, entering in walk_cotree(t):
        if isinstance(node, Leaf):
            labels.append(node.vertex)
            continue
        if not entering:
            kinds.pop()
            continue
        if node.kind not in (UNION, JOIN):
            raise MalformedCotree(f"unknown node kind {node.kind!r}")
        if len(node.children) < 2:
            raise MalformedCotree("internal cotree node with fewer than 2 children")
        if kinds and node.kind == kinds[-1]:
            raise MalformedCotree("same-kind parent/child chain; canonicalize first")
        kinds.append(node.kind)
    if sorted(labels) != list(range(len(labels))):
        raise MalformedCotree("leaf labels must be exactly 0..n-1")


def cotree_to_graph(t: Cotree) -> Graph:
    """Evaluate the cotree: UNION keeps parts apart, JOIN adds all cross edges."""
    validate_cotree(t)
    edges: list[tuple[int, int]] = []
    add = edges.append

    def node_vertices(node: CotreeNode, parts: list[list[int]]) -> list[int]:
        if node.kind == JOIN:
            for i in range(len(parts)):
                for j in range(i + 1, len(parts)):
                    for u in parts[i]:
                        for v in parts[j]:
                            add((min(u, v), max(u, v)))
        return [v for part in parts for v in part]

    n = len(fold_cotree(t, lambda leaf: [leaf.vertex], node_vertices))
    return Graph(n, edges)


def cograph_recognize(g: Graph) -> Cotree:
    """Build a cotree for g by component / co-component splitting.

    Raises NotCograph when some induced subgraph and its complement are both
    connected on more than one vertex.
    """

    def build(vertices: list[int]) -> Cotree:
        if len(vertices) == 1:
            return Leaf(vertices[0])
        index = {v: i for i, v in enumerate(vertices)}
        sub = Graph(
            len(vertices),
            [
                (index[u], index[v])
                for u in vertices
                for v in vertices
                if u < v and v in g.adj[u]
            ],
        )
        comps = connected_components(sub)
        if len(comps) > 1:
            return CotreeNode(
                UNION,
                tuple(build(sorted(vertices[i] for i in comp)) for comp in comps),
            )
        co_comps = connected_components(complement(sub))
        if len(co_comps) > 1:
            return CotreeNode(
                JOIN,
                tuple(build(sorted(vertices[i] for i in comp)) for comp in co_comps),
            )
        raise NotCograph("graph contains an induced 4-vertex path")

    if g.n == 0:
        raise ModelError("cotrees require at least one vertex")
    return canonicalize(build(list(range(g.n))))


_SWAPPED = {UNION: JOIN, JOIN: UNION}


def complement_cotree(t: Cotree) -> Cotree:
    """Cotree of the complement graph: swap UNION and JOIN everywhere."""
    return fold_cotree(
        t, lambda leaf: leaf, lambda node, kids: CotreeNode(_SWAPPED[node.kind], tuple(kids))
    )


# -- cotree enumeration and sampling -----------------------------------------


def _shapes(n: int, root: str) -> list[Cotree]:
    """All canonical cotree shapes with n leaves whose root has the given kind.

    Leaves are labelled 0..n-1 in depth-first order, which is enough to
    enumerate every cograph on n vertices (vertex names do not matter for the
    parameters computed here).
    """
    other = JOIN if root == UNION else UNION

    def parts(total: int, max_part: int) -> Iterator[list[int]]:
        # Nonincreasing partitions of `total` into at least 2 parts.
        def rec(rest: int, cap: int, acc: list[int]) -> Iterator[list[int]]:
            if rest == 0:
                if len(acc) >= 2:
                    yield list(acc)
                return
            for p in range(min(cap, rest), 0, -1):
                acc.append(p)
                yield from rec(rest - p, p, acc)
                acc.pop()

        yield from rec(total, max_part, [])

    def options(size: int) -> list[Cotree]:
        if size == 1:
            return [Leaf(0)]
        return _shapes(size, other)

    results: list[Cotree] = []
    for partition in parts(n, n - 1):
        groups: dict[int, int] = {}
        for p in partition:
            groups[p] = groups.get(p, 0) + 1
        per_size = {size: options(size) for size in groups}
        pools = [
            list(itertools.combinations_with_replacement(range(len(per_size[size])), cnt))
            for size, cnt in sorted(groups.items())
        ]
        sizes_sorted = sorted(groups.items())
        for choice in itertools.product(*pools):
            children: list[Cotree] = []
            for (size, _cnt), combo in zip(sizes_sorted, choice):
                for idx in combo:
                    children.append(per_size[size][idx])
            results.append(CotreeNode(root, tuple(children)))
    return results


def _relabel_dfs(t: Cotree) -> Cotree:
    """The same shape with leaves labelled 0..n-1 in depth-first order."""
    labels = itertools.count()
    return fold_cotree(
        t,
        lambda _leaf: Leaf(next(labels)),
        lambda node, kids: CotreeNode(node.kind, tuple(kids)),
    )


def all_cotrees(n: int) -> list[Cotree]:
    """Every canonical cotree shape on n leaves, one per unlabelled cograph."""
    if n < 1:
        return []
    if n == 1:
        return [Leaf(0)]
    shapes = _shapes(n, UNION) + _shapes(n, JOIN)
    return [_relabel_dfs(s) for s in shapes]


def random_cotree(n: int, rng: random.Random) -> Cotree:
    """Random canonical cotree on n leaves built by repeated pairwise merging."""
    if n < 1:
        raise ModelError("cotrees require at least one leaf")
    nodes: list[Cotree] = [Leaf(v) for v in range(n)]
    while len(nodes) > 1:
        i, j = rng.sample(range(len(nodes)), 2)
        if j < i:
            i, j = j, i
        kind = UNION if rng.random() < 0.5 else JOIN
        merged = CotreeNode(kind, (nodes[i], nodes[j]))
        nodes[j] = nodes[-1]
        nodes.pop()
        nodes[i] = merged
    return canonicalize(nodes[0])


def random_twin_free_cotree(n: int, rng: random.Random) -> Cotree:
    """Random canonical cotree whose graph has no closed twins.

    Joining two parts that both contain a universal vertex would create
    closed twins, so such a merge is demoted to a union.
    """
    if n < 1:
        raise ModelError("cotrees require at least one leaf")
    nodes: list[tuple[Cotree, bool]] = [(Leaf(v), True) for v in range(n)]
    while len(nodes) > 1:
        i, j = rng.sample(range(len(nodes)), 2)
        if j < i:
            i, j = j, i
        (ti, ui), (tj, uj) = nodes[i], nodes[j]
        kind = UNION if rng.random() < 0.5 else JOIN
        if kind == JOIN and ui and uj:
            kind = UNION
        merged = CotreeNode(kind, (ti, tj))
        universal = (ui or uj) if kind == JOIN else False
        nodes[j] = nodes[-1]
        nodes.pop()
        nodes[i] = (merged, universal)
    return canonicalize(nodes[0][0])


# -- file formats -------------------------------------------------------------


def _parse_rational(token: str) -> Fraction:
    try:
        if "/" in token:
            num, den = token.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(token))
    except (ValueError, ZeroDivisionError):
        raise ModelFormatError(f"bad rational: {token!r}") from None


def _format_rational(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_interval_model(text: str) -> IntervalModel:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("intervals"):
        raise ModelFormatError("missing 'intervals <n>' header")
    try:
        n = int(lines[0].split()[1])
    except (IndexError, ValueError):
        raise ModelFormatError(f"bad header: {lines[0]!r}") from None
    rows: dict[int, tuple[Fraction, Fraction]] = {}
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise ModelFormatError(f"bad interval line: {ln!r}")
        try:
            vid = int(parts[0])
        except ValueError:
            raise ModelFormatError(f"bad interval line: {ln!r}") from None
        if vid in rows:
            raise ModelFormatError(f"duplicate interval id {vid}")
        rows[vid] = (_parse_rational(parts[1]), _parse_rational(parts[2]))
    if sorted(rows) != list(range(n)):
        raise ModelFormatError("interval ids must be exactly 0..n-1")
    return IntervalModel(rows[i] for i in range(n))


def format_interval_model(m: IntervalModel) -> str:
    lines = [f"intervals {len(m)}"]
    for i, (left, right) in enumerate(m):
        lines.append(f"{i} {_format_rational(left)} {_format_rational(right)}")
    return "\n".join(lines) + "\n"


def parse_permutation_model(text: str) -> PermutationModel:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("permutation"):
        raise ModelFormatError("missing 'permutation <n>' header")
    try:
        n = int(lines[0].split()[1])
    except (IndexError, ValueError):
        raise ModelFormatError(f"bad header: {lines[0]!r}") from None
    rows: dict[int, tuple[int, int]] = {}
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise ModelFormatError(f"bad segment line: {ln!r}")
        try:
            vid, t, b = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise ModelFormatError(f"bad segment line: {ln!r}") from None
        if vid in rows:
            raise ModelFormatError(f"duplicate segment id {vid}")
        rows[vid] = (t, b)
    if sorted(rows) != list(range(n)):
        raise ModelFormatError("segment ids must be exactly 0..n-1")
    return PermutationModel(rows[i] for i in range(n))


def format_permutation_model(m: PermutationModel) -> str:
    lines = [f"permutation {len(m)}"]
    for i, (t, b) in enumerate(m):
        lines.append(f"{i} {t} {b}")
    return "\n".join(lines) + "\n"


def parse_cotree(text: str) -> Cotree:
    """Parse an s-expression like (J (U 0 1) (U 2 3)); a bare integer is a leaf."""
    body = "\n".join(
        ln for ln in text.splitlines() if not ln.lstrip().startswith("#")
    )
    tokens = body.replace("(", " ( ").replace(")", " ) ").split()
    if not tokens:
        raise ModelFormatError("unexpected end of cotree expression")
    # Open operators with the children read so far; the innermost is last.
    open_nodes: list[tuple[str, list[Cotree]]] = []
    pos, end = 0, len(tokens)
    while True:
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            if pos >= end or tokens[pos] not in (UNION, JOIN):
                raise ModelFormatError("expected U or J after '('")
            open_nodes.append((tokens[pos], []))
            pos += 1
        else:
            if tok == ")":
                if not open_nodes:
                    raise ModelFormatError("unexpected ')'")
                kind, children = open_nodes.pop()
                if len(children) < 2:
                    raise ModelFormatError("cotree operator needs at least 2 children")
                # Children are complete and canonical, so this is canonical too.
                node: Cotree = _merge_chains(kind, children)
            else:
                try:
                    node = Leaf(int(tok))
                except ValueError:
                    raise ModelFormatError(f"bad cotree token: {tok!r}") from None
            if not open_nodes:
                break
            open_nodes[-1][1].append(node)
        if pos >= end:
            raise ModelFormatError("missing ')'")
    if pos != end:
        raise ModelFormatError("trailing tokens after cotree expression")
    validate_cotree(node)
    return node


def format_cotree(t: Cotree) -> str:
    # Every token gets its leading space and the first one is cut at the
    # end, so the text is built in one pass, linear on any shape.
    parts = []
    for node, entering in walk_cotree(t):
        if isinstance(node, Leaf):
            parts.append(f" {node.vertex}")
        elif entering:
            parts.append(f" ({node.kind}")
        else:
            parts.append(")")
    return "".join(parts)[1:]


Model = Union[Graph, IntervalModel, PermutationModel, Leaf, CotreeNode]


def parse_model(text: str) -> Model:
    """Dispatch on the header keyword: graph, intervals, permutation, or '('."""
    stripped = ""
    for ln in text.splitlines():
        ln = ln.strip()
        if ln and not ln.startswith("#"):
            stripped = ln
            break
    if stripped.startswith("graph"):
        return Graph.from_text(text)
    if stripped.startswith("intervals"):
        return parse_interval_model(text)
    if stripped.startswith("permutation"):
        return parse_permutation_model(text)
    if stripped.startswith("(") or stripped.isdigit():
        return parse_cotree(text)
    raise ModelFormatError("unrecognized model file header")


def read_model(path: str) -> Model:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model(fh.read())


def write_model(model: Model, path: str) -> None:
    if isinstance(model, Graph):
        text = model.to_text()
    elif isinstance(model, IntervalModel):
        text = format_interval_model(model)
    elif isinstance(model, PermutationModel):
        text = format_permutation_model(model)
    else:
        text = format_cotree(model) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def model_to_graph(model: Model) -> Graph:
    """Compile any model kind to its graph."""
    if isinstance(model, Graph):
        return model
    if isinstance(model, IntervalModel):
        return interval_graph(model)
    if isinstance(model, PermutationModel):
        return permutation_graph(model)
    return cotree_to_graph(model)
