"""Geometric and structural graph models: intervals, permutation diagrams, cotrees.

Each model compiles to a plain :class:`~idcodes.graph.Graph`.  Interval
endpoints are exact rationals and intervals are open, so two intervals that
merely touch at a point are not adjacent.  A cotree is a :class:`Cotree`,
one tuple of ints in post-order; every cotree function here is a single
loop over it.  Every model type rejects bad input when it is built, so no
other function checks it.  The cotree builders (``leaf``, ``union_node``,
``join_node``) return raw codes, which ``Cotree`` or :func:`canonicalize`
turns into a tree.
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
    "canonicalize",
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
    """An immutable, canonical cotree stored as its post-order codes.

    ``codes`` holds the nodes children first: a leaf is its vertex
    ``v >= 0`` and an internal node ``~(arity << 1 | kind)``, with kind
    UNION (0) or JOIN (1); ``n`` is the number of leaves.  The constructor
    raises MalformedCotree unless the codes are one tree whose every node has
    at least two children, none of its own kind, and whose leaves are 0..n-1
    exactly once.  Every way to build a tree runs that check, except
    :func:`parse_cotree`, which adopts its codes through ``_adopt``: its
    token loop enforces each structural rule as it reads the text, and it
    checks the labels itself, so its trees are just as valid.  Equality and
    hashing compare the codes, so two trees are equal when they have the
    same kinds, child counts and leaf labels in the same order.
    """

    __slots__ = ("codes", "n")

    def __init__(self, codes: Iterable[int]):
        codes, n = _checked_codes(codes)
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "n", n)

    @classmethod
    def _adopt(cls, codes: tuple[int, ...], n: int) -> "Cotree":
        """A tree on codes already known to be valid, with n leaves."""
        t = cls.__new__(cls)
        object.__setattr__(t, "codes", codes)
        object.__setattr__(t, "n", n)
        return t

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


def _checked_codes(codes: Iterable[int]) -> tuple[tuple[int, ...], int]:
    """The codes as a tuple and the number of leaves; MalformedCotree unless
    they make a valid cotree.
    Per node, the arity is checked first, then the children, then their kinds;
    the labels last."""
    codes = tuple(codes)
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
    return codes, _leaf_count(codes)


def _leaf_count(codes: tuple[int, ...]) -> int:
    """The number of leaves of a tree's codes; MalformedCotree unless the
    nonnegative codes are exactly 0..n-1, once each."""
    labels = [code for code in codes if code >= 0]
    if max(labels) >= len(labels) or len(set(labels)) != len(labels):
        raise MalformedCotree("leaf labels must be exactly 0..n-1")
    return len(labels)


def leaf(v: int) -> tuple[int, ...]:
    if v < 0:
        raise MalformedCotree("leaf labels must be exactly 0..n-1")
    return (v,)


def _node(kind: int, children: Sequence[Sequence[int]]) -> tuple[int, ...]:
    return (*itertools.chain.from_iterable(children), node_code(kind, len(children)))


def union_node(*children: Sequence[int]) -> tuple[int, ...]:
    return _node(UNION, children)


def join_node(*children: Sequence[int]) -> tuple[int, ...]:
    return _node(JOIN, children)


def canonicalize(codes: Iterable[int]) -> Cotree:
    """The cotree of raw codes: same-kind parent/child chains merged and
    single-child nodes flattened."""
    out: list = []
    # Per finished subtree: its kind (2 for a leaf), where its code sits in
    # out, and its arity.  A merged child's code is blanked in out.
    done: list[tuple[int, int, int]] = []
    for code in codes:
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


def cotree_to_graph(t: Cotree) -> Graph:
    """Evaluate the cotree: UNION keeps parts apart, JOIN adds all cross edges.

    One post-order pass gives every node the mask of its leaves and its
    parent's index; a join hands each child the leaves of its siblings, and
    a reverse pass, which meets every parent before its children, ORs those
    gifts down into the leaves.  The rows are symmetric and loop-free by
    construction, so the graph adopts them unchecked.
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
    masks = [0] * t.n
    for i in range(size - 2, -1, -1):
        p = parent[i]
        gift = gifts[p]
        if ~codes[p] & 1:  # a join
            gift |= below[p] ^ below[i]
        gifts[i] = gift
        if codes[i] >= 0:
            masks[codes[i]] = gift
    return Graph._adopt(tuple(masks))


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


def _shapes(n: int, root: int) -> list[tuple[int, ...]]:
    """The codes of all canonical cotree shapes with n leaves whose root has
    the given kind, every leaf 0.

    :func:`_relabel_dfs` labels them 0..n-1 in depth-first order, which is
    enough to enumerate every cograph on n vertices (vertex names do not
    matter for the parameters computed here).
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

    def options(size: int) -> list[tuple[int, ...]]:
        if size == 1:
            return [leaf(0)]
        return _shapes(size, other)

    results: list[tuple[int, ...]] = []
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
            children: list[tuple[int, ...]] = []
            for (size, _cnt), combo in zip(sizes_sorted, choice):
                for idx in combo:
                    children.append(per_size[size][idx])
            results.append(_node(root, children))
    return results


def _relabel_dfs(codes: Iterable[int]) -> tuple[int, ...]:
    """The same shape with leaves labelled 0..n-1 in depth-first order; this
    commutes with :func:`canonicalize`, which only drops node codes."""
    labels = itertools.count()
    return tuple(next(labels) if code >= 0 else code for code in codes)


def all_cotrees(n: int) -> list[Cotree]:
    """Every canonical cotree shape on n leaves, one per unlabelled cograph."""
    if n < 1:
        return []
    if n == 1:
        return [Cotree(leaf(0))]
    shapes = _shapes(n, UNION) + _shapes(n, JOIN)
    return [Cotree(_relabel_dfs(s)) for s in shapes]


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
    return canonicalize(parts[0])


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
    return canonicalize(parts[0])


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
    for a repeat.  The ids must be exactly 0..n-1; the count is compared
    first, so a huge n fails before anything of that size is built.  A
    negative n with no rows then fails as an invalid model, as a graph's does.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    head = lines[0].split() if lines else []
    if not head or head[0] != keyword:
        raise ModelFormatError(f"missing '{keyword} <n>' header")
    try:
        n = int(head[1])
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
    if n < 0:  # only a file with no rows gets here
        raise ModelError("vertex count must be nonnegative")
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
    children of its own.  So every tree the loop finishes is one canonical
    tree, and the labels are checked only after it, so a syntax error wins
    over a label error: a negative label is noted as it is read, and the rest
    are checked to be 0..n-1, once each.  The tree is then adopted
    (``Cotree._adopt``) without a second structural check.
    """
    if "#" in text:
        text = "\n".join(ln for ln in text.splitlines() if not ln.lstrip().startswith("#"))
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    if not tokens:
        raise ModelFormatError("unexpected end of cotree expression")
    codes: list[int] = []
    emit = codes.append
    # The innermost open node lives in locals: its kind (None while no node
    # is open), its children written, its children in the codes, and whether
    # its children go to the open node below it.  The nodes around it wait
    # on a stack as tuples of the same four.
    kind, written, arity, merged = None, 0, 0, False
    enclosing: list[tuple] = []
    negative = False
    tokens = iter(tokens)
    for tok in tokens:
        if tok == "(":
            inner = _TEXT_KIND.get(next(tokens, None))
            if inner is None:
                raise ModelFormatError("expected U or J after '('")
            enclosing.append((kind, written, arity, merged))
            kind, written, arity, merged = inner, 0, 0, inner == kind
        elif tok == ")":
            if kind is None:
                raise ModelFormatError("unexpected ')'")
            if written < 2:
                raise ModelFormatError("cotree operator needs at least 2 children")
            if merged:
                gain = arity
            else:
                emit(~(arity << 1 | kind))  # node_code, inlined in the token loop
                gain = 1
            kind, written, arity, merged = enclosing.pop()
            if kind is None:
                break
            written += 1
            arity += gain
        else:
            try:
                v = int(tok)
            except ValueError:
                raise ModelFormatError(f"bad cotree token: {tok!r}") from None
            if v < 0:
                negative = True
            emit(v)
            if kind is None:
                break
            written += 1
            arity += 1
    else:
        raise ModelFormatError("missing ')'")
    if next(tokens, None) is not None:
        raise ModelFormatError("trailing tokens after cotree expression")
    if negative:
        raise MalformedCotree("leaf labels must be exactly 0..n-1")
    codes = tuple(codes)
    return Cotree._adopt(codes, _leaf_count(codes))


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


def _first_line(text: str) -> str:
    """The first line of ``text.splitlines()`` that is neither blank nor a
    comment, stripped, or "" if there is none.  The first 4,096 characters
    are searched first; the whole text is split only when they do not hold
    that line."""
    for head in (text[:4096], text):
        lines = head.splitlines()
        if head is not text:  # the cut may have shortened the last line
            del lines[-1:]
        for ln in lines:
            ln = ln.strip()
            if ln and ln[0] != "#":
                return ln
    return ""


def parse_model(text: str) -> Model:
    """Dispatch on the first token of the first line that is not a comment:
    the keyword graph, intervals or permutation, or a cotree's '('."""
    first = _first_line(text)
    keyword = first.split(None, 1)[0] if first else ""
    if keyword == "graph":
        return Graph.from_text(text)
    if keyword == "intervals":
        return parse_interval_model(text)
    if keyword == "permutation":
        return parse_permutation_model(text)
    if first.startswith("(") or first.isdigit():
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
