"""Reference cotree folds and cotree test data for the tests.

``fold_cotree`` is a generic post-order fold with one callback per node, and
``witness_fold`` runs the witness merge through it.  The tests compare
``cograph._fold``'s own loops over the codes with them.  ``all_cotrees``
enumerates every cograph of a given order, ``random_cotree`` and
``random_twin_free_cotree`` sample cotrees, and ``complement_cotree`` flips
every node kind.
"""

import itertools
from typing import Iterator

from idcodes import cograph
from idcodes.models import (
    JOIN,
    UNION,
    Cotree,
    ModelError,
    _node,
    _relabel_dfs,
    canonicalize,
    leaf,
    node_code,
)


def fold_cotree(t, leaf_fn, node_fn):
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


def witness_fold(t, sep):
    """The root's (state, hole, cov, nn) and the vertices added at bumps, in
    order: each node merges its children left to right with
    ``cograph._witness_merge``.  Raises the twin error where a merge hits the
    separating kind's twin gate."""
    rows = cograph._rows(sep)
    added: list[int] = []

    def merge_children(kind, kids):
        row = rows[kind]
        part = kids[0]
        for b in kids[1:]:
            part = cograph._witness_merge(part, b, kind, row, sep, added)
        return part

    return fold_cotree(t, lambda v: (cograph._LEAF, v, v, None), merge_children), added


def complement_cotree(t: Cotree) -> Cotree:
    """Cotree of the complement graph: swap UNION and JOIN everywhere."""
    return Cotree(code ^ 1 if code < 0 else code for code in t.codes)


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


def random_cotree(n: int, rng) -> Cotree:
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


def random_twin_free_cotree(n: int, rng) -> Cotree:
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
