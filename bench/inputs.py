"""Seeded inputs owned by the benchmark.

Cotrees are nested tuples: a leaf is an ``int`` vertex label, an internal
node is ``("U" | "J", [children])``.  Every tree made here is canonical (no
node has a child of its own kind, every node has at least two children), has
a join at the root (so its graph is connected) and has at most one leaf child
under each join (so its graph has no closed twins: two vertices are closed
twins exactly when they are leaf children of the same join).

Nothing here imports the program, so a change to the program cannot change
the inputs.
"""

from __future__ import annotations

import random

UNION, JOIN = "U", "J"


def _leaf_kids(kind: str, item) -> int:
    """Leaf children that ``item`` contributes to a new node of ``kind``."""
    tree, ikind, lk = item
    if ikind == "L":
        return 1 if kind == JOIN else 0
    return lk if ikind == kind == JOIN else 0


def _merge(kind: str, a, b):
    parts = []
    for tree, ikind, _ in (a, b):
        parts.append(tree[1] if ikind == kind else [tree])
    big, small = sorted(parts, key=len, reverse=True)
    big.extend(small)
    lk = _leaf_kids(kind, a) + _leaf_kids(kind, b) if kind == JOIN else 0
    return (kind, big), kind, lk


def binary_cotree(n: int, rng: random.Random):
    """Random pairwise merging of n leaves, with a join for the last merge.

    A join that would give a node two leaf children becomes a union; a run
    whose last merge cannot be a join is drawn again from the same stream.
    """
    if n < 3:
        raise ValueError("a connected twin-free cograph needs 3 vertices")
    labels = list(range(n))
    rng.shuffle(labels)
    while True:
        items = [(v, "L", 0) for v in labels]
        while len(items) > 1:
            i, j = rng.sample(range(len(items)), 2)
            a, b = items[i], items[j]
            last = len(items) == 2
            kind = JOIN if last or rng.random() < 0.5 else UNION
            if kind == JOIN and _leaf_kids(JOIN, a) + _leaf_kids(JOIN, b) > 1:
                kind = UNION
            merged = _merge(kind, a, b)
            hi, lo = max(i, j), min(i, j)
            items[hi] = items[-1]
            items.pop()
            items[lo] = merged
        tree, kind, _ = items[0]
        if kind == JOIN:
            return tree


def _split(size: int, kind: str, rng: random.Random) -> list[int]:
    """Child sizes for a bushy node: 2 to 6 parts.

    A union part of size 2 would have to be a join of two leaves (closed
    twins), and a join may have only one leaf child.
    """
    def ok(parts):
        if kind == UNION:
            return all(p != 2 for p in parts)
        return parts.count(1) <= 1

    for _ in range(32):
        c = rng.randint(2, min(6, size))
        cuts = sorted(rng.sample(range(1, size), c - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [size])]
        if ok(parts):
            return parts
    return [1, size - 1] if kind == JOIN else [1] * size


def bushy_cotree(n: int, rng: random.Random):
    """Top-down random splitting into 2..6 parts with alternating kinds."""
    if n < 3:
        raise ValueError("a connected twin-free cograph needs 3 vertices")
    labels = list(range(n))
    rng.shuffle(labels)
    next_label = iter(labels)
    root = (JOIN, [])
    stack = [(n, JOIN, root[1])]
    while stack:
        size, kind, out = stack.pop()
        for part in _split(size, kind, rng):
            if part == 1:
                out.append(next(next_label))
            else:
                child_kind = UNION if kind == JOIN else JOIN
                node = (child_kind, [])
                out.append(node)
                stack.append((part, child_kind, node[1]))
    return root


SHAPES = {"bushy": bushy_cotree, "binary": binary_cotree}


def post_order(tree):
    """Internal nodes, children before parents (iterative: trees can be deep)."""
    out, stack = [], [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, tuple):
            out.append(node)
            stack.extend(node[1])
    out.reverse()
    return out


def stats(tree) -> tuple[int, int, int]:
    """(vertices, edges, depth) computed from the tree alone."""
    if not isinstance(tree, tuple):
        return 1, 0, 0
    size: dict[int, int] = {}
    depth: dict[int, int] = {}
    edges = 0
    for node in post_order(tree):
        sizes = [size[id(c)] if isinstance(c, tuple) else 1 for c in node[1]]
        total = sum(sizes)
        size[id(node)] = total
        depth[id(node)] = 1 + max(
            (depth[id(c)] for c in node[1] if isinstance(c, tuple)), default=0
        )
        if node[0] == JOIN:
            edges += (total * total - sum(s * s for s in sizes)) // 2
    return size[id(tree)], edges, depth[id(tree)]


def format_cotree(tree) -> str:
    """The program's s-expression format, written without recursion."""
    out: list[str] = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            out.append(node)
        elif isinstance(node, tuple):
            out.append(f"({node[0]}")
            stack.append(")")
            for child in reversed(node[1]):
                stack.append(child)
        else:
            out.append(str(node))
    text = " ".join(out)
    return text.replace(" )", ")") + "\n"


def parse_cotree(text: str):
    """Parse the s-expression format back into nested tuples."""
    body = " ".join(ln for ln in text.splitlines() if not ln.lstrip().startswith("#"))
    tokens = body.replace("(", " ( ").replace(")", " ) ").split()
    stack: list[tuple] = []
    root = None
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok == "(":
            node = (tokens[i + 1], [])
            if stack:
                stack[-1][1].append(node)
            stack.append(node)
            i += 2
            continue
        if tok == ")":
            node = stack.pop()
            if not stack:
                root = node
        elif stack:
            stack[-1][1].append(int(tok))
        else:
            root = int(tok)
        i += 1
    if root is None or stack:
        raise ValueError("unbalanced cotree expression")
    return root


def adjacency(tree, n: int) -> list[int]:
    """Bitmask adjacency of the cograph, by expanding every join."""
    adj = [0] * n
    if not isinstance(tree, tuple):
        return adj
    mask: dict[int, int] = {}
    for node in post_order(tree):
        child_masks = [mask[id(c)] if isinstance(c, tuple) else 1 << c for c in node[1]]
        total = 0
        for m in child_masks:
            total |= m
        mask[id(node)] = total
        if node[0] == JOIN:
            for m in child_masks:
                others = total & ~m
                rest = m
                while rest:
                    low = rest & -rest
                    adj[low.bit_length() - 1] |= others
                    rest ^= low
    return adj


def graph_text(adj: list[int]) -> str:
    """The program's graph file format, edges sorted."""
    lines = [f"graph {len(adj)}"]
    for u, m in enumerate(adj):
        m >>= u + 1
        v = u + 1
        while m:
            if m & 1:
                lines.append(f"e {u} {v}")
            m >>= 1
            v += 1
    return "\n".join(lines) + "\n"
