"""Geometric and structural graph models: intervals, permutation diagrams, cotrees.

Each model compiles to a plain :class:`~idcodes.graph.Graph`.  Interval
endpoints are exact rationals and intervals are open, so two intervals that
merely touch at a point are not adjacent.  A cotree is a :class:`Cotree`,
one tuple of ints in post-order; every cotree function here is a single
loop over it.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Sequence, Union

from .graph import Graph, mask_components

__all__ = [
    "ModelError",
    "DegenerateInterval",
    "DuplicateIndex",
    "MalformedCotree",
    "NotCograph",
    "ModelFormatError",
    "IntervalModel",
    "PermutationModel",
    "Cotree",
    "UNION",
    "JOIN",
    "node_code",
    "leaf",
    "union_node",
    "join_node",
    "fold_cotree",
    "cotree_leaves",
    "cotree_size",
    "canonicalize",
    "validate_cotree",
    "interval_graph",
    "is_unit_model",
    "permutation_graph",
    "cotree_masks",
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
    """Intersection graph of the open intervals (strict overlap required).

    u and v are adjacent exactly when ``l_u < r_v`` and ``l_v < r_u``.  One
    sweep builds every row from prefix masks: ``PL[k]`` holds the first k
    intervals by left endpoint and ``PR[k]`` the first k by right endpoint.
    The intervals starting before r_v are ``PL[bisect_left(lefts, r_v)]``.
    Those ending by l_v, ``PR[bisect_right(rights, l_v)]``, all start before
    r_v too and exclude v, so v's row is the XOR of the two masks without v.
    The sorts and searches run on exact integer keys (:func:`_integer_keys`).
    """
    keys = _integer_keys([x for interval in m.intervals for x in interval])
    left_of, right_of = keys[0::2], keys[1::2]
    by_left = sorted(range(len(left_of)), key=left_of.__getitem__)
    by_right = sorted(range(len(right_of)), key=right_of.__getitem__)
    lefts = [left_of[v] for v in by_left]
    rights = [right_of[v] for v in by_right]
    left_prefix, right_prefix = _prefix_masks(by_left), _prefix_masks(by_right)
    return Graph._adopt(tuple(
        left_prefix[bisect_left(lefts, right)]
        ^ right_prefix[bisect_right(rights, left)]
        ^ 1 << v
        for v, (left, right) in enumerate(zip(left_of, right_of))
    ))


def _integer_keys(values: list[Fraction | int]) -> list[int]:
    """The values scaled by the lcm of their denominators: exact ints in the same order."""
    scale = lcm(*(x.denominator for x in values))
    return [x.numerator * (scale // x.denominator) for x in values]


def _prefix_masks(order: Sequence[int]) -> list[int]:
    """``masks[k]`` is the vertex mask of ``order[:k]``, for k = 0..len(order)."""
    masks = [0]
    for v in order:
        masks.append(masks[-1] | 1 << v)
    return masks


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
    """Rank arbitrary rational (top, bottom) positions down to integer indices.

    Each line is ranked by one sort of exact integer keys, the positions
    scaled by the least common multiple of their denominators.  Equal
    positions get equal ranks, which ``PermutationModel`` rejects.
    """
    pos = list(positions)
    tops = _dense_ranks([t for t, _ in pos])
    bottoms = _dense_ranks([b for _, b in pos])
    return PermutationModel(zip(tops, bottoms))


def _dense_ranks(values: list[Fraction | int]) -> list[int]:
    """The rank of each value among the distinct values, smallest first."""
    keys = _integer_keys(values)
    rank = {key: i for i, key in enumerate(sorted(set(keys)))}
    return [rank[key] for key in keys]


def permutation_graph(m: PermutationModel) -> Graph:
    """Two segments are adjacent exactly when they cross.

    Segments u and v cross exactly when their top order and bottom order
    disagree: v's row is (top < t_v and bottom > b_v) or (top > t_v and
    bottom < b_v).  One sweep builds it from prefix masks: with ``T[i]`` the
    first i segments by top index and ``B[j]`` the first j by bottom index,
    v's row is the segments before it on exactly one line, ``T[i] ^ B[j]``
    at v's ranks i and j.
    """
    segs = m.segments
    by_top = sorted(range(len(segs)), key=lambda v: segs[v][0])
    by_bottom = sorted(range(len(segs)), key=lambda v: segs[v][1])
    top_prefix, bottom_prefix = _prefix_masks(by_top), _prefix_masks(by_bottom)
    rows = [0] * len(segs)
    for i, v in enumerate(by_top):
        rows[v] = top_prefix[i]
    for j, v in enumerate(by_bottom):
        rows[v] ^= bottom_prefix[j]
    return Graph._adopt(tuple(rows))


# -- cotrees -----------------------------------------------------------------
#
# A cotree is one tuple of ints in post-order: a leaf is its vertex v >= 0,
# and an internal node is the negative code ~(arity << 1 | kind), written
# right after its arity children.  Every traversal is one loop over that
# tuple with a value stack, so trees of any depth stay off the interpreter's
# stack, and no node is an object of its own.

UNION = 0
JOIN = 1
_KIND_TEXT = "UJ"
_TEXT_KIND = {"U": UNION, "J": JOIN}


def node_code(kind: int, arity: int) -> int:
    """The code of an internal node of the given kind over arity children."""
    return ~(arity << 1 | kind)


class Cotree:
    """An immutable cotree stored as its post-order codes.

    ``codes`` holds the nodes children first: a leaf is its vertex
    ``v >= 0`` and an internal node ``~(arity << 1 | kind)``, with kind
    UNION (0) or JOIN (1).  Equality and hashing compare the codes, so two
    trees are equal when they have the same kinds, child counts and leaf
    labels in the same order.
    """

    __slots__ = ("codes",)

    def __init__(self, codes: Iterable[int]):
        object.__setattr__(self, "codes", tuple(codes))

    def __setattr__(self, name, value):
        raise AttributeError("Cotree instances are immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cotree):
            return NotImplemented
        return self.codes == other.codes

    def __hash__(self) -> int:
        return hash(self.codes)

    def __repr__(self) -> str:
        return f"<Cotree {format_cotree(self)}>"

    @property
    def root_kind(self) -> int | None:
        """UNION or JOIN at the root, or None when the tree is a single leaf.

        A union root is exactly a disconnected graph on more than one vertex.
        """
        code = self.codes[-1]
        return None if code >= 0 else ~code & 1


def leaf(v: int) -> Cotree:
    if v < 0:
        raise MalformedCotree("leaf labels must be exactly 0..n-1")
    return Cotree((v,))


def _node(kind: int, children: Sequence[Cotree]) -> Cotree:
    codes: list[int] = []
    for child in children:
        codes.extend(child.codes)
    codes.append(node_code(kind, len(children)))
    return Cotree(codes)


def union_node(*children: Cotree) -> Cotree:
    return _node(UNION, children)


def join_node(*children: Cotree) -> Cotree:
    return _node(JOIN, children)


def fold_cotree(t: Cotree, leaf_fn, node_fn):
    """Post-order fold over the codes.

    ``leaf_fn(vertex)`` gives a leaf's value and ``node_fn(kind, values)`` an
    internal node's, from the values of its children in order.  Child values
    wait on one value stack, so no node needs a dictionary entry.
    """
    values: list = []
    push = values.append
    for code in t.codes:
        if code >= 0:
            push(leaf_fn(code))
        else:
            code = ~code
            base = len(values) - (code >> 1)
            kids = values[base:]
            del values[base:]
            push(node_fn(code & 1, kids))
    return values[0]


def cotree_leaves(t: Cotree) -> list[int]:
    """Vertex labels of the leaves, in depth-first order."""
    return [code for code in t.codes if code >= 0]


def cotree_size(t: Cotree) -> int:
    return len(cotree_leaves(t))


def canonicalize(t: Cotree) -> Cotree:
    """Merge same-kind parent/child chains and flatten single-child nodes."""
    out: list = []
    # Per finished subtree: its kind (2 for a leaf), where its code sits in
    # out, and its arity.  A merged child's code is blanked in out.
    done: list[tuple[int, int, int]] = []
    for code in t.codes:
        if code >= 0:
            done.append((2, 0, 0))
            out.append(code)
            continue
        code = ~code
        kind, base = code & 1, len(done) - (code >> 1)
        arity = 0
        for kid_kind, at, kid_arity in done[base:]:
            if kid_kind == kind:
                out[at] = None
                arity += kid_arity
            else:
                arity += 1
        if arity == 1:  # a lone child of another kind stands for its parent
            lone = [entry for entry in done[base:] if entry[0] != kind]
            del done[base:]
            done += lone
            continue
        del done[base:]
        done.append((kind, len(out), arity))
        out.append(node_code(kind, arity))
    return Cotree(code for code in out if code is not None)


def validate_cotree(t: Cotree) -> None:
    """Raise MalformedCotree unless t is canonical and labels 0..n-1 exactly once."""
    codes = t.codes
    kinds: list[int] = []  # per finished subtree: its kind, or 2 for a leaf
    push = kinds.append
    for code in codes:
        if code >= 0:
            push(2)
            continue
        code = ~code
        base = len(kinds) - (code >> 1)
        if code >> 1 < 2:
            raise MalformedCotree("internal cotree node with fewer than 2 children")
        if base < 0:
            raise MalformedCotree("cotree codes are not one post-order tree")
        kind = code & 1
        if kind in kinds[base:]:
            raise MalformedCotree("same-kind parent/child chain; canonicalize first")
        del kinds[base:]
        push(kind)
    if len(kinds) != 1:
        raise MalformedCotree("cotree codes are not one post-order tree")
    labels = cotree_leaves(t)
    if max(labels) >= len(labels) or len(set(labels)) != len(labels):
        raise MalformedCotree("leaf labels must be exactly 0..n-1")


def cotree_masks(t: Cotree) -> tuple[int, ...]:
    """Adjacency masks of the cotree's graph, as :attr:`Graph.masks` has them.

    One post-order pass gives every node the mask of its leaves and its
    parent's index; a join hands each child the leaves of its siblings, and
    a reverse pass, which meets every parent before its children, ORs those
    gifts down into the leaves.  t must already be valid
    (:func:`validate_cotree`).
    """
    codes = t.codes
    size = len(codes)
    below = [0] * size
    parent = [0] * size
    done: list[int] = []  # indices of finished subtrees awaiting a parent
    for i, code in enumerate(codes):
        if code >= 0:
            below[i] = 1 << code
        else:
            base = len(done) - (~code >> 1)
            mask = 0
            for kid in done[base:]:
                parent[kid] = i
                mask |= below[kid]
            del done[base:]
            below[i] = mask
        done.append(i)
    gifts = [0] * size
    masks = [0] * below[-1].bit_length()
    for i in range(size - 2, -1, -1):
        p = parent[i]
        gift = gifts[p]
        if ~codes[p] & 1:  # a join
            gift |= below[p] ^ below[i]
        gifts[i] = gift
        if codes[i] >= 0:
            masks[codes[i]] = gift
    return tuple(masks)


def cotree_to_graph(t: Cotree) -> Graph:
    """Evaluate the cotree: UNION keeps parts apart, JOIN adds all cross edges."""
    validate_cotree(t)
    return Graph._adopt(cotree_masks(t))  # symmetric and loop-free by construction


def cograph_recognize(g: Graph) -> Cotree:
    """Build the canonical cotree of g by component / co-component splitting.

    Runs on vertex masks with an explicit stack and writes the codes
    straight out in post-order.  A disconnected vertex set becomes a union
    of its components, a connected one a join of its co-components (the
    components of its complement).  A component is connected, so it splits
    into co-components, and a co-component into components; children come
    ordered by their smallest vertex.

    Raises NotCograph when some induced subgraph and its complement are both
    connected on more than one vertex.
    """
    if g.n == 0:
        raise ModelError("cotrees require at least one vertex")
    masks = g.masks
    codes: list[int] = []
    # A vertex mask to split, with whether by co-components (None: try both),
    # or a node code, written once all its children are.
    work: list[tuple] = [((1 << g.n) - 1, None)]
    while work:
        item, co = work.pop()
        if item < 0:
            codes.append(item)
            continue
        if not item & (item - 1):
            codes.append(item.bit_length() - 1)
            continue
        parts = mask_components(masks, item, co=bool(co))
        if co is None and len(parts) == 1:
            co = True
            parts = mask_components(masks, item, co=True)
        if len(parts) == 1:
            raise NotCograph("graph contains an induced 4-vertex path")
        work.append((node_code(JOIN if co else UNION, len(parts)), None))
        work.extend((part, not co) for part in reversed(parts))
    return Cotree(codes)


def complement_cotree(t: Cotree) -> Cotree:
    """Cotree of the complement graph: swap UNION and JOIN everywhere."""
    return Cotree(code ^ 1 if code < 0 else code for code in t.codes)


# -- cotree enumeration and sampling -----------------------------------------


def _shapes(n: int, root: int) -> list[Cotree]:
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
            return [leaf(0)]
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
            results.append(_node(root, children))
    return results


def _relabel_dfs(t: Cotree) -> Cotree:
    """The same shape with leaves labelled 0..n-1 in depth-first order."""
    labels = itertools.count()
    return Cotree(next(labels) if code >= 0 else code for code in t.codes)


def all_cotrees(n: int) -> list[Cotree]:
    """Every canonical cotree shape on n leaves, one per unlabelled cograph."""
    if n < 1:
        return []
    if n == 1:
        return [leaf(0)]
    shapes = _shapes(n, UNION) + _shapes(n, JOIN)
    return [_relabel_dfs(s) for s in shapes]


def _merged_pair(parts: list[list[int]], i: int, j: int, kind: int) -> None:
    """Replace parts i < j by the node of the given kind over both, in place."""
    codes = parts[i]
    codes += parts[j]
    codes.append(node_code(kind, 2))
    parts[j] = parts[-1]
    parts.pop()


def random_cotree(n: int, rng: random.Random) -> Cotree:
    """Random canonical cotree on n leaves built by repeated pairwise merging."""
    if n < 1:
        raise ModelError("cotrees require at least one leaf")
    parts = [[v] for v in range(n)]
    while len(parts) > 1:
        i, j = rng.sample(range(len(parts)), 2)
        if j < i:
            i, j = j, i
        _merged_pair(parts, i, j, UNION if rng.random() < 0.5 else JOIN)
    return canonicalize(Cotree(parts[0]))


def random_twin_free_cotree(n: int, rng: random.Random) -> Cotree:
    """Random canonical cotree whose graph has no closed twins.

    Joining two parts that both contain a universal vertex would create
    closed twins, so such a merge is demoted to a union.
    """
    if n < 1:
        raise ModelError("cotrees require at least one leaf")
    parts = [[v] for v in range(n)]
    universal = [True] * n  # whether each part has a universal vertex
    while len(parts) > 1:
        i, j = rng.sample(range(len(parts)), 2)
        if j < i:
            i, j = j, i
        kind = UNION if rng.random() < 0.5 else JOIN
        if kind == JOIN and universal[i] and universal[j]:
            kind = UNION
        universal[i] = (universal[i] or universal[j]) if kind == JOIN else False
        universal[j] = universal[-1]
        universal.pop()
        _merged_pair(parts, i, j, kind)
    return canonicalize(Cotree(parts[0]))


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


def _parse_rows(text: str, keyword: str, noun: str, convert) -> list:
    """The rows of a `<keyword> <n>` file of `<id> <x> <y>` lines, in id order.

    ``convert`` turns a line's two values into its row; a ValueError from it
    reports the whole line.  A line's tokens are read before its id is checked
    for a repeat.  The ids must be exactly 0..n-1; the count is compared first,
    so a huge n fails before anything of that size is built.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith(keyword):
        raise ModelFormatError(f"missing '{keyword} <n>' header")
    try:
        n = int(lines[0].split()[1])
    except (IndexError, ValueError):
        raise ModelFormatError(f"bad header: {lines[0]!r}") from None
    rows: dict = {}
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise ModelFormatError(f"bad {noun} line: {ln!r}")
        try:
            vid, row = int(parts[0]), convert(parts[1], parts[2])
        except ValueError:
            raise ModelFormatError(f"bad {noun} line: {ln!r}") from None
        if vid in rows:
            raise ModelFormatError(f"duplicate {noun} id {vid}")
        rows[vid] = row
    if n > len(rows) or sorted(rows) != list(range(n)):
        raise ModelFormatError(f"{noun} ids must be exactly 0..n-1")
    return [rows[i] for i in range(n)]


def parse_interval_model(text: str) -> IntervalModel:
    rows = _parse_rows(
        text, "intervals", "interval", lambda a, b: (_parse_rational(a), _parse_rational(b))
    )
    return IntervalModel(rows)


def format_interval_model(m: IntervalModel) -> str:
    lines = [f"intervals {len(m)}"]
    for i, (left, right) in enumerate(m):
        lines.append(f"{i} {_format_rational(left)} {_format_rational(right)}")
    return "\n".join(lines) + "\n"


def parse_permutation_model(text: str) -> PermutationModel:
    return PermutationModel(
        _parse_rows(text, "permutation", "segment", lambda t, b: (int(t), int(b)))
    )


def format_permutation_model(m: PermutationModel) -> str:
    lines = [f"permutation {len(m)}"]
    for i, (t, b) in enumerate(m):
        lines.append(f"{i} {t} {b}")
    return "\n".join(lines) + "\n"


def parse_cotree(text: str) -> Cotree:
    """Parse an s-expression like (J (U 0 1) (U 2 3)); a bare integer is a leaf.

    Tokens go straight into post-order codes.  A node opened directly under
    an open node of its own kind hands its children to that node, so the
    chain is merged as it is read; each written node still needs two
    children of its own.  Labels are checked once the text has parsed, so a
    syntax error wins over a label error.
    """
    body = "\n".join(
        ln for ln in text.splitlines() if not ln.lstrip().startswith("#")
    )
    tokens = body.replace("(", " ( ").replace(")", " ) ").split()
    if not tokens:
        raise ModelFormatError("unexpected end of cotree expression")
    codes: list[int] = []
    emit = codes.append
    # Open operators, innermost last: [kind, children written, children in
    # the codes, whether its children go to the open node below it].
    open_nodes: list[list] = []
    negative = False
    pos, end = 0, len(tokens)
    while True:
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            kind = _TEXT_KIND.get(tokens[pos]) if pos < end else None
            if kind is None:
                raise ModelFormatError("expected U or J after '('")
            pos += 1
            open_nodes.append([kind, 0, 0, bool(open_nodes) and open_nodes[-1][0] == kind])
        else:
            if tok == ")":
                if not open_nodes:
                    raise ModelFormatError("unexpected ')'")
                kind, written, arity, merged = open_nodes.pop()
                if written < 2:
                    raise ModelFormatError("cotree operator needs at least 2 children")
                if merged:
                    gain = arity
                else:
                    emit(~(arity << 1 | kind))  # node_code, inlined in the token loop
                    gain = 1
            else:
                try:
                    v = int(tok)
                except ValueError:
                    raise ModelFormatError(f"bad cotree token: {tok!r}") from None
                if v < 0:
                    negative = True
                emit(v)
                gain = 1
            if not open_nodes:
                break
            top = open_nodes[-1]
            top[1] += 1
            top[2] += gain
        if pos >= end:
            raise ModelFormatError("missing ')'")
    if pos != end:
        raise ModelFormatError("trailing tokens after cotree expression")
    if negative:
        raise MalformedCotree("leaf labels must be exactly 0..n-1")
    t = Cotree(codes)
    validate_cotree(t)
    return t


def format_cotree(t: Cotree) -> str:
    """The s-expression of t, in one pass over the codes plus one to find
    where each node opens: before the first leaf of its subtree."""
    codes = t.codes
    opens: dict[int, list[int]] = {}  # first position -> node codes, innermost first
    starts: list[int] = []  # first position of each finished subtree
    for i, code in enumerate(codes):
        first = i
        if code < 0:
            arity = ~code >> 1
            if arity:
                base = len(starts) - arity
                first = starts[base]
                del starts[base:]
            opens.setdefault(first, []).append(code)
        starts.append(first)
    # Every token gets its leading space and the first one is cut at the end.
    parts = []
    for i, code in enumerate(codes):
        nodes = opens.get(i)
        if nodes:
            parts.extend(" (" + _KIND_TEXT[~c & 1] for c in reversed(nodes))
        parts.append(f" {code}" if code >= 0 else ")")
    return "".join(parts)[1:]


Model = Union[Graph, IntervalModel, PermutationModel, Cotree]


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
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ModelFormatError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    return parse_model(text)


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
