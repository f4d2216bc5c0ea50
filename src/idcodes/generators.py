"""Extremal family generators.

Every generator returns an :class:`ExtremalInstance` and validates it on the
spot, once, in ``_validated``: the compiled graph has the claimed order, the
claimed solution passes the matching verifier, and when a diameter is
claimed it is recomputed.  Generation therefore never hands out an unchecked
construction.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import NamedTuple, Optional

from . import verify
from .cograph import solve_cotree
from .exact import CapExceeded
from .graph import MAX_FILE_VERTICES, Graph, bipartition, bits, diameter as graph_diameter, mask_distances
from .models import (
    Cotree,
    IntervalModel,
    JOIN,
    Model,
    PermutationModel,
    UNION,
    _prefix_masks,
    _relabel_dfs,
    canonicalize,
    is_unit_model,
    join_node,
    leaf,
    model_to_graph,
    node_code,
    normalized_segments,
    permutation_graph,
    union_node,
)
from .verify import ProblemKind

__all__ = [
    "GeneratorError",
    "ExtremalInstance",
    "ext_interval_ic",
    "ext_interval_old",
    "ext_interval_ld",
    "ext_interval_md",
    "ext_unit_ic",
    "ext_unit_old",
    "ext_unit_ld",
    "ext_unit_md",
    "ext_perm_ic",
    "ext_perm_old",
    "ext_perm_ld",
    "ext_perm_md",
    "ext_bipperm_ic",
    "ext_bipperm_old",
    "ext_bipperm_ld",
    "ext_bipperm_md",
    "ext_cograph_id",
    "ext_cograph_ld",
    "FAMILIES",
    "generate",
]

class GeneratorError(Exception):
    pass


class ExtremalInstance(NamedTuple):
    """A constructed model together with its claimed solution and parameters."""

    model: Model
    solution: frozenset[int]
    kind: ProblemKind
    claimed_n: int
    claimed_k: int
    family: str
    claimed_d: Optional[int] = None
    graph: Optional[Graph] = None  # set by _validated, the model's graph

    def manifest_line(self) -> str:
        d = str(self.claimed_d) if self.claimed_d is not None else "-"
        sol = ",".join(str(v) for v in sorted(self.solution))
        return (
            f"{self.family} {self.kind.value} {self.claimed_k} {d} "
            f"{self.claimed_n} solution={sol}"
        )


def _validated(
    model: Model,
    solution,
    kind: ProblemKind,
    claimed_n: int,
    claimed_k: int,
    family: str,
    claimed_d: Optional[int] = None,
) -> ExtremalInstance:
    g = model_to_graph(model)
    solution = frozenset(solution)
    if g.n != claimed_n:
        raise GeneratorError(f"{family}: built {g.n} vertices, claimed {claimed_n}")
    if len(solution) != claimed_k:
        raise GeneratorError(f"{family}: solution size {len(solution)} != {claimed_k}")
    if not verify.check(g, solution, kind):
        raise GeneratorError(f"{family}: claimed solution fails the {kind} verifier")
    if claimed_d is not None:
        d = graph_diameter(g)
        if d != claimed_d:
            raise GeneratorError(f"{family}: diameter {d} != claimed {claimed_d}")
    return ExtremalInstance(
        model, solution, kind, claimed_n, claimed_k, family, claimed_d, g
    )


def _braid_width(family: str, k: int, d: int) -> int:
    """Vertices per path of the metric-dimension braid of k/2 paths whose
    diameter is d.

    The interval braid's far ends are one interval per column apart, so it
    has d columns.  A permutation braid of one path (k = 2) is a plain path,
    and d+1 vertices give it diameter d.  With more paths, a shortest path
    between the far ends crosses between paths, which adds 2, so each path
    has d-1 vertices.
    """
    if family == "interval-md":
        return d
    return d + 1 if k == 2 else d - 1


# -- interval families --------------------------------------------------------


def _interval_staircase(k: int) -> tuple[list[tuple[int, int]], list[int]]:
    """All intervals ]i,j[ with 1 <= i < j <= k+1, on the integer grid;
    returns model rows and the indices of the unit steps ]i,i+1[."""
    rows = [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 2)]
    return rows, [v for v, (i, j) in enumerate(rows) if j == i + 1]


def _grid_model(rows: list[tuple[int, int]], scale: int) -> IntervalModel:
    """The intervals ]l/scale, r/scale[ of integer rows (l, r)."""
    return IntervalModel._on_grid([x for row in rows for x in row], scale)


def ext_interval_ic(k: int) -> ExtremalInstance:
    """Interval graph on k(k+1)/2 vertices with an identifying code of size k."""
    if k < 1:
        raise GeneratorError("k must be at least 1")
    rows, code = _interval_staircase(k)
    model = _grid_model(rows, 1)
    return _validated(model, code, ProblemKind.IC, k * (k + 1) // 2, k, "interval-ic")


def ext_interval_old(k: int) -> ExtremalInstance:
    """Same order as ext_interval_ic with an open locating-dominating set.

    Consecutive solution steps are paired up so that each has a solution
    neighbour.  Each pair boundary point 2p is widened into a gap
    ]2p, 2p+1/2[ that no other family interval enters, and the two steps of
    the pair are extended into that gap to overlap there; every other
    intersection of the family is unchanged.  Endpoints lie on the grid of
    eighths.
    """
    if k < 2 or k % 2:
        raise GeneratorError("k must be even and at least 2")
    pair_points = {2 * p for p in range(1, k // 2 + 1) if 2 * p <= k}

    def start(m: int) -> int:
        return 8 * m + (4 if m in pair_points else 0)

    rows: list[tuple[int, int]] = []
    code: list[int] = []
    for i in range(1, k + 1):
        for j in range(i + 1, k + 2):
            if j == i + 1:
                code.append(len(rows))
                if i % 2 == 1:  # first of its pair: reach into the gap at i+1
                    rows.append((start(i), 8 * (i + 1) + 3))
                else:  # second of its pair: start inside the gap at i
                    rows.append((8 * i + 1, 8 * j))
            else:
                rows.append((start(i), 8 * j))
    model = _grid_model(rows, 8)
    return _validated(model, code, ProblemKind.OLD, k * (k + 1) // 2, k, "interval-old")


def ext_interval_ld(k: int) -> ExtremalInstance:
    """Interval graph on k(k+3)/2 vertices: the staircase plus one copy of
    each solution interval."""
    if k < 1:
        raise GeneratorError("k must be at least 1")
    rows, code = _interval_staircase(k)
    rows.extend(rows[idx] for idx in code)
    model = _grid_model(rows, 1)
    return _validated(model, code, ProblemKind.LD, k * (k + 3) // 2, k, "interval-ld")


def _build_interval_md(k: int, cols: int) -> tuple[IntervalModel, list[int], int]:
    """Interval braid with filler pockets; returns (model, solution, n).

    Braid vertex i*cols + j is I[i][j] = ]jL+i+1, (j+1)L+i+3/2[ with
    L = k/2+1, for row i < k/2 and column j < cols.  Endpoints lie on the
    grid of eighths, where every filler's midpoint is exact.
    """
    half_k = k // 2
    big_l = half_k + 1
    rows = [
        (8 * (j * big_l + i + 1), 8 * ((j + 1) * big_l + i + 1) + 4)
        for i in range(half_k)
        for j in range(cols)
    ]
    solution = [i * cols for i in range(half_k)] + [i * cols + cols - 1 for i in range(half_k)]
    base_sorted = sorted(range(len(rows)), key=lambda v: rows[v][0])
    fillers: list[tuple[int, int]] = []
    for i in range(half_k):
        for j in range(1, cols - 2):  # pockets after I[i][j]
            r_end = rows[i * cols + j][1]
            following = [v for v in base_sorted if rows[v][0] > r_end]
            if len(following) < half_k + 1:
                continue  # incomplete pocket: skip rather than trim
            succ = following[: half_k + 1]
            window_lo, window_hi = r_end, rows[succ[0]][0]
            start = (window_lo + window_hi) // 2
            ends = [(start + window_hi) // 2]
            ends += [(rows[succ[s - 1]][0] + rows[succ[s]][0]) // 2 for s in range(1, half_k + 1)]
            fillers.extend((start, e) for e in ends)
    model = _grid_model(rows + fillers, 8)
    return model, solution, len(rows) + len(fillers)


def ext_interval_md(k: int, d: int) -> ExtremalInstance:
    """Interval graph of diameter d with a resolving set of size k.

    Order grows like d*k^2: k/2 braided rows of d intervals plus k/2+1 short
    fillers behind every interior interval that has enough successors, on
    eighths; for k = 2 the path of d+1 intervals ]3m/4, 3m/4+1[, on quarters.
    """
    if k < 2 or k % 2:
        raise GeneratorError("k must be even and at least 2")
    if d < 2:
        raise GeneratorError("d must be at least 2")
    if k == 2:
        model = _grid_model([(3 * m, 3 * m + 4) for m in range(d + 1)], 4)
        return _validated(model, [0, d], ProblemKind.RS, d + 1, 2, "interval-md", claimed_d=d)
    model, solution, n = _build_interval_md(k, _braid_width("interval-md", k, d))
    return _validated(model, solution, ProblemKind.RS, n, k, "interval-md", claimed_d=d)


# -- unit interval families ---------------------------------------------------


def _unit_path(n: int, scale: int) -> list[tuple[int, int]]:
    """Unit intervals ]m/scale, m/scale+1[ for m < n, on the grid of 1/scale."""
    return [(m, m + scale) for m in range(n)]


def ext_unit_ic(k: int) -> ExtremalInstance:
    """Path on 2k-1 unit intervals, on the grid of halves; every other
    interval forms the code."""
    if k < 1:
        raise GeneratorError("k must be at least 1")
    model = _grid_model(_unit_path(2 * k - 1, 2), 2)
    code = list(range(0, 2 * k - 1, 2))
    inst = _validated(model, code, ProblemKind.IC, 2 * k - 1, k, "unit-ic")
    assert is_unit_model(model)
    return inst


def ext_unit_old(k: int) -> ExtremalInstance:
    """Path on 3k-1 unit intervals plus k pendant intervals, solution 2k.

    Pendant i must meet exactly path intervals 3i and 3i+1 (0-based), which
    forces uneven spacing: path starts are 3/4 apart, and pendant i starts
    1/4 after path interval 3i.  Endpoints lie on the grid of quarters.
    """
    if k < 1:
        raise GeneratorError("k must be at least 1")
    rows = [(3 * m, 3 * m + 4) for m in range(3 * k - 1)]
    solution = [m for m in range(3 * k - 1) if m % 3 != 2]
    rows += [(9 * i + 1, 9 * i + 5) for i in range(k)]
    model = _grid_model(rows, 4)
    inst = _validated(model, solution, ProblemKind.OLD, 4 * k - 1, 2 * k, "unit-old")
    assert is_unit_model(model)
    return inst


def ext_unit_ld(k: int) -> ExtremalInstance:
    """Path on 2k-1 unit intervals plus a copy of each code interval, on the
    grid of halves."""
    if k < 1:
        raise GeneratorError("k must be at least 1")
    rows = _unit_path(2 * k - 1, 2)
    code = list(range(0, 2 * k - 1, 2))
    rows.extend(rows[idx] for idx in code)
    model = _grid_model(rows, 2)
    inst = _validated(model, code, ProblemKind.LD, 3 * k - 1, k, "unit-ld")
    assert is_unit_model(model)
    return inst


def ext_unit_md(k: int, d: int) -> ExtremalInstance:
    """k-th power of a path on k*d+1 vertices: diameter d, resolving set of
    the first k vertices.  Interval m is ]m/(k+1), m/(k+1)+1[, on the grid
    of 1/(k+1), making two vertices adjacent exactly when their indices
    differ by at most k."""
    if k < 1 or d < 1:
        raise GeneratorError("k and d must be at least 1")
    model = _grid_model(_unit_path(k * d + 1, k + 1), k + 1)
    inst = _validated(model, range(k), ProblemKind.RS, k * d + 1, k, "unit-md", claimed_d=d)
    assert is_unit_model(model)
    return inst


# -- permutation families -----------------------------------------------------


def _zigzag_path_segments(k: int) -> list[tuple[int, int]]:
    """Permutation segments inducing the path u_0 - u_1 - ... - u_{k-1}."""
    segs = []
    for j in range(k):
        if j % 2 == 0:
            segs.append((3 * j, 3 * j - 4))
        else:
            segs.append((3 * j - 4, 3 * j))
    return segs


def _config_based_family(k: int, kind: ProblemKind, family: str) -> ExtremalInstance:
    """One non-solution segment per realizable top-gap/bottom-gap cell.

    The solution induces a path.  A cell (i, j) stands for a segment whose
    top lies in the i-th gap of the solution's top order and bottom in the
    j-th gap of the bottom order; its neighbourhood within the solution is
    determined by the cell alone.  One probe segment per cell, put in slot j
    of top gap i and slot i of bottom gap j, is added to the path; the first
    cell of each admissible neighbourhood is kept, at its probe's position.
    """
    if k < 3:
        raise GeneratorError("k must be at least 3")
    code = _zigzag_path_segments(k)
    tops = sorted(t for t, _ in code)
    bots = sorted(b for _, b in code)

    # Positions are scaled by k + 2, so the slots of a gap are integers; only
    # their order matters.
    scale = k + 2

    def gap_position(ranks: list[int], gap: int, slot: int) -> int:
        lo = ranks[gap - 1] if gap > 0 else ranks[0] - 2
        hi = ranks[gap] if gap < len(ranks) else ranks[-1] + 2
        return lo * scale + (hi - lo) * (slot + 1)

    positions = [(t * scale, b * scale) for t, b in code]
    positions += [
        (gap_position(tops, i, j), gap_position(bots, j, i))
        for i in range(k + 1)
        for j in range(k + 1)
    ]
    # Neighbourhoods within the solution, which is the path's vertices 0..k-1.
    path = (1 << k) - 1
    masks = [m & path for m in permutation_graph(normalized_segments(positions)).masks]
    banned = {0}
    if kind is ProblemKind.IC:
        banned.update(m | 1 << v for v, m in enumerate(masks[:k]))
    elif kind is ProblemKind.OLD:
        banned.update(masks[:k])
    first = {}
    for v in range(k, len(positions)):
        first.setdefault(masks[v], v)
    keep = sorted(v for sig, v in first.items() if sig not in banned)
    positions = positions[:k] + [positions[v] for v in keep]

    n = k * k + k - 2 if kind is ProblemKind.LD else k * k - 2
    return _validated(normalized_segments(positions), range(k), kind, n, k, family)


def ext_perm_ic(k: int) -> ExtremalInstance:
    """Permutation graph on k^2-2 vertices with an identifying code of size k."""
    return _config_based_family(k, ProblemKind.IC, "perm-ic")


def ext_perm_old(k: int) -> ExtremalInstance:
    """Permutation graph on k^2-2 vertices with an OLD set of size k."""
    if k % 2:
        raise GeneratorError("k must be even")
    return _config_based_family(k, ProblemKind.OLD, "perm-old")


def ext_perm_ld(k: int) -> ExtremalInstance:
    """Permutation graph on k^2+k-2 vertices with an LD set of size k."""
    return _config_based_family(k, ProblemKind.LD, "perm-ld")


# -- braided paths (permutation diagrams) --------------------------------------


def _braid_positions(k: int, cols: int) -> dict[tuple[int, int], tuple[int, int]]:
    """Segment positions for k/2 translated paths with `cols` vertices each,
    on the grid of halves.

    Vertex (a, j): path a in 1..k/2, position j in 1..cols.  Odd positions
    slope upward, even ones downward; (a, j) meets (a', j+1) iff a' <= a.
    """
    half_k = k // 2
    big_c = max(k, 4)
    v_off = big_c - 1
    out = {}
    for a in range(1, half_k + 1):
        for j in range(1, cols + 1):
            if j % 2 == 1:
                p = 2 * (big_c * ((j - 1) // 2) + 2 * (a - 1))
                out[(a, j)] = (p, p - 2)
            else:
                q = 2 * (big_c * ((j - 2) // 2) + 2 * (a - 1))
                out[(a, j)] = (q - 2, q + 2 * v_off + 1)
    return out


def _build_perm_md(k: int, cols: int, with_fillers: bool):
    """Braid plus (optionally) up to k/2+2 pocket segments per consecutive
    pair (a, 2j), (a, 2j+1); returns (model, solution indices, n).

    A pocket's segments put their bottoms in the empty window between the
    pair's bottom points; their tops sweep the gaps between consecutive
    braid tops starting at the top of the preceding path vertex (a, 2j-1),
    each gap giving a different crossing pattern.  A candidate is kept only
    when (a) its neighbours are pairwise within distance 2, so no existing
    shortest path changes, and (b) its distance vector to the solution is
    new; this keeps the whole instance resolving by construction.

    Pocket p of P steps 1/(P+1) of a top gap and 1/(T+1) of its bottom window,
    T = k/2+2 the most a pocket keeps, so with fillers the braid's grid of
    halves is refined to 1/(2(P+1)(T+1)), where every step is exact.
    """
    half_k = k // 2
    pos = _braid_positions(k, cols)
    order = [(a, j) for a in range(1, half_k + 1) for j in range(1, cols + 1)]
    index = {v: i for i, v in enumerate(order)}
    solution = [index[(a, 1)] for a in range(1, half_k + 1)] + [
        index[(a, cols)] for a in range(1, half_k + 1)
    ]
    if not with_fillers:
        return normalized_segments([pos[v] for v in order]), solution, len(order)

    target = half_k + 2
    pockets = [
        (a, j) for a in range(1, half_k + 1) for j in range(1, (cols - 1) // 2 + 1)
    ]
    unit = (len(pockets) + 1) * (target + 1)
    pos = {v: (t * unit, b * unit) for v, (t, b) in pos.items()}
    positions = [pos[v] for v in order]

    base_masks = permutation_graph(normalized_segments(positions)).masks
    masks = list(base_masks)
    vec_of = list(zip(*(mask_distances(base_masks, x) for x in solution)))
    vectors = set(vec_of)

    # Each line keeps its positions sorted, with the prefix masks of that
    # order.  A candidate crosses the segments before it on exactly one line,
    # less those at its own position on either line.
    lines = []
    for side in (0, 1):
        order = sorted(range(len(positions)), key=lambda v: positions[v][side])
        lines.append(([positions[v][side] for v in order], _prefix_masks(order)))

    def crossing(cand) -> int:
        before, tied = 0, 0
        for (values, prefix), x in zip(lines, cand):
            i, j = bisect_left(values, x), bisect_right(values, x)
            before ^= prefix[i]
            tied |= prefix[i] ^ prefix[j]
        return before & ~tied

    def insert(cand, v: int) -> None:
        for (values, prefix), x in zip(lines, cand):
            i = bisect_right(values, x)
            values.insert(i, x)
            prefix[i + 1 :] = [m | 1 << v for m in prefix[i:]]

    def within_two(u: int, w: int) -> int:
        return masks[u] >> w & 1 or masks[u] & masks[w]

    all_tops = sorted(t for t, _ in positions)
    for p_rank, (a, j) in enumerate(pockets):
        down_b = pos[(a, 2 * j)][1]
        up_b = pos[(a, 2 * j + 1)][1]
        lo, hi = min(down_b, up_b), max(down_b, up_b)
        anchor = pos[(a, 2 * j - 1)][0]
        start = all_tops.index(anchor)
        seq = all_tops[start:] + [all_tops[-1] + 4 * unit]
        accepted = 0
        for s in range(len(seq) - 1):
            if accepted == target:
                break
            t_f = seq[s] + (seq[s + 1] - seq[s]) // (len(pockets) + 1) * (p_rank + 1)
            b_f = lo + (hi - lo) // (target + 1) * (accepted + 1)
            cand = (t_f, b_f)
            row = crossing(cand)
            if not row:
                continue
            nbrs = bits(row)
            if any(
                not within_two(u, w) for i, u in enumerate(nbrs) for w in nbrs[i + 1 :]
            ):
                continue
            vec = tuple(
                1 + min(vec_of[w][xi] for w in nbrs) for xi in range(len(solution))
            )
            if vec in vectors:
                continue
            new_id = len(positions)
            positions.append(cand)
            insert(cand, new_id)
            for w in nbrs:
                masks[w] |= 1 << new_id
            masks.append(row)
            vectors.add(vec)
            vec_of.append(vec)
            accepted += 1
    return normalized_segments(positions), solution, len(positions)


def _cocktail_party_model(pairs: int) -> tuple[PermutationModel, list[int]]:
    """Join of `pairs` two-vertex independent sets, on the integer grid; one
    vertex per pair resolves."""
    positions = [(2 * i + s, 2 * (pairs - 1 - i) + s) for i in range(pairs) for s in (0, 1)]
    return normalized_segments(positions), list(range(0, 2 * pairs, 2))


def ext_perm_md(k: int, d: int) -> ExtremalInstance:
    """Permutation graph of diameter d, resolving set of size k, order ~ d*k^2."""
    if k < 2 or k % 2:
        raise GeneratorError("k must be even and at least 2")
    if d < 2:
        raise GeneratorError("d must be at least 2")
    if d == 2 and k >= 4:
        # No braid width reaches diameter 2; use the join of k point pairs.
        model, solution = _cocktail_party_model(k)
        return _validated(model, solution, ProblemKind.RS, 2 * k, k, "perm-md", claimed_d=2)
    model, solution, n = _build_perm_md(k, _braid_width("perm-md", k, d), with_fillers=True)
    return _validated(model, solution, ProblemKind.RS, n, k, "perm-md", claimed_d=d)


def ext_bipperm_md(k: int, d: int) -> ExtremalInstance:
    """Bipartite permutation graph of diameter d with a resolving set of size
    k: the plain braid, whose width the diameter fixes."""
    if k < 2 or k % 2:
        raise GeneratorError("k must be even and at least 2")
    if d < 2:
        raise GeneratorError("d must be at least 2")
    if d == 2 and k >= 4:
        # A diameter-2 bipartite graph is complete bipartite; drop one vertex
        # per side from the solution.
        side = (k + 2) // 2
        model = _bipperm_from_intervals(side, [(0, side - 1)] * side)
        solution = list(range(side - 1)) + list(range(side, 2 * side - 1))
        return _validated(model, solution, ProblemKind.RS, k + 2, k, "bipperm-md", claimed_d=2)
    cols = _braid_width("bipperm-md", k, d)
    model, solution, n = _build_perm_md(k, cols, with_fillers=False)
    inst = _validated(model, solution, ProblemKind.RS, n, k, "bipperm-md", claimed_d=d)
    if bipartition(inst.graph) is None:
        raise GeneratorError(f"bipperm-md: the braid of width {cols} is not bipartite")
    return inst


# -- bipartite permutation families (neighbourhood-based) ----------------------


def _bipperm_from_intervals(
    a_count: int, b_nbhds: list[tuple[int, int]]
) -> PermutationModel:
    """Diagram for a bipartite graph whose B-side neighbourhoods are intervals
    of consecutive A-positions.  Vertices: 0..a_count-1 are the A side in
    order, then one B vertex per (lo, hi) pair in sorted order.  A vertex i
    sits at (i, i) and the B vertex of rank r < m at (hi + e, lo - 1 + e),
    e = (r+1)/(m+1): positions lie on the grid of 1/(m+1)."""
    order = sorted(range(len(b_nbhds)), key=lambda i: b_nbhds[i])
    his = [b_nbhds[i][1] for i in order]
    if any(his[i] > his[i + 1] for i in range(len(his) - 1)):
        raise GeneratorError("B-side neighbourhoods are nested; no diagram")
    m = len(order)
    positions: list[tuple[int, int]] = [((m + 1) * i, (m + 1) * i) for i in range(a_count)]
    slots: list[tuple[int, int]] = [None] * m
    for rank, i in enumerate(order):
        lo, hi = b_nbhds[i]
        slots[i] = ((m + 1) * hi + rank + 1, (m + 1) * (lo - 1) + rank + 1)
    positions.extend(slots)
    return normalized_segments(positions)


def ext_bipperm_ld(k: int) -> ExtremalInstance:
    """Odd path with a pendant on every even vertex: order 3k-1, LD set k."""
    if k < 1:
        raise GeneratorError("k must be at least 1")
    # A side: the k even path vertices.  B side: odd path vertices + pendants.
    b_nbhds = [(m, m + 1) for m in range(k - 1)]  # odd spine vertices
    b_nbhds += [(m, m) for m in range(k)]  # pendants
    model = _bipperm_from_intervals(k, b_nbhds)
    solution = range(k)
    return _validated(model, solution, ProblemKind.LD, 3 * k - 1, k, "bipperm-ld")


def ext_bipperm_ic(k: int) -> ExtremalInstance:
    """Odd path plus one vertex per three consecutive even vertices: order
    3k-3, identifying code of size k."""
    if k < 3:
        raise GeneratorError("k must be at least 3")
    b_nbhds = [(m, m + 1) for m in range(k - 1)]  # odd spine vertices
    b_nbhds += [(m, m + 2) for m in range(k - 2)]  # triple vertices
    model = _bipperm_from_intervals(k, b_nbhds)
    solution = range(k)
    return _validated(model, solution, ProblemKind.IC, 3 * k - 3, k, "bipperm-ic")


def ext_bipperm_old(k: int) -> ExtremalInstance:
    """Path on k vertices, all of them in the solution, with pendants attached
    to every vertex except the second and the second-to-last: order 2k-2.

    Requires k >= 4: an exhaustive check over the 4-vertex bipartite graphs
    shows none admits an open locating-dominating set of size 3, so no
    instance with n = 2k-2 exists at k = 3.
    """
    if k < 4:
        raise GeneratorError("k must be at least 4")
    pendant_hosts = [v for v in range(k) if v not in (1, k - 2)]
    # A side: even path vertices and pendants of odd ones; order them along
    # the spine so B-side neighbourhoods stay consecutive.
    a_order: list[tuple[str, int]] = []
    for v in range(0, k, 2):
        if v - 1 in pendant_hosts and v - 1 >= 0:
            a_order.append(("pendant", v - 1))
        a_order.append(("spine", v))
    if k % 2 == 0 and k - 1 in pendant_hosts:
        a_order.append(("pendant", k - 1))
    a_pos = {tag: i for i, tag in enumerate(a_order)}
    b_order: list[tuple[str, int]] = [("spine", v) for v in range(1, k, 2)]
    b_order += [("pendant", v) for v in pendant_hosts if v % 2 == 0]
    b_nbhds = []
    for role, v in b_order:
        if role == "pendant":
            b_nbhds.append((a_pos[("spine", v)], a_pos[("spine", v)]))
        else:
            lo = a_pos[("spine", v - 1)]
            hi = a_pos[("spine", v + 1)] if v + 1 < k else lo
            if ("pendant", v) in a_pos:
                lo = min(lo, a_pos[("pendant", v)])
                hi = max(hi, a_pos[("pendant", v)])
            b_nbhds.append((lo, hi))
    model = _bipperm_from_intervals(len(a_order), b_nbhds)
    # Solution: the spine vertices, located in the combined numbering
    # (A side keeps its order, B vertex i becomes len(a_order) + i).
    spine = [i for i, (role, _) in enumerate(a_order) if role == "spine"]
    spine += [
        len(a_order) + i for i, (role, _) in enumerate(b_order) if role == "spine"
    ]
    return _validated(model, spine, ProblemKind.OLD, 2 * k - 2, k, "bipperm-old")


# -- cograph families ----------------------------------------------------------


# Each family tree is built as the raw codes of an unlabelled shape: a base
# tree, wrapped by a chain of two-child steps (kind, head) from the inside
# out.  The shape is labelled 0..n-1 in depth-first order and canonicalised
# into one Cotree at the end.


def _indep(n: int) -> tuple[int, ...]:
    return leaf(0) if n == 1 else union_node(*[leaf(0)] * n)


def _clique(n: int) -> tuple[int, ...]:
    return leaf(0) if n == 1 else join_node(*[leaf(0)] * n)


def _family_tree(family: str, n: int, variant: int, bases: dict, steps: dict) -> Cotree:
    """Follow ``steps[variant] = (min_n, kind, head, next_variant)`` from
    (n, variant) down to a base, then wrap the base in the heads."""
    chain = []
    while (n, variant) not in bases:
        step = steps.get(variant)
        if step is None or n < step[0]:
            raise GeneratorError(f"{family}: ({n}, variant {variant}) is unreachable")
        _min_n, kind, head, variant = step
        chain.append((kind, head))
        n -= sum(code >= 0 for code in head)
    # In post-order the heads come outermost first, then the base, then the
    # step nodes innermost first.
    codes = [code for _kind, head in chain for code in head]
    codes += bases[(n, variant)]
    codes += [node_code(kind, 2) for kind, _head in reversed(chain)]
    return canonicalize(_relabel_dfs(codes))


def _cograph_id_tree(n: int, variant: int) -> Cotree:
    bases = {
        (3, 2): _indep(3),
        (3, 3): join_node(leaf(0), _indep(2)),  # star = P3
        (4, 2): _indep(4),
        (4, 3): join_node(_indep(2), _indep(2)),  # C4
    }
    steps = {
        1: (6, JOIN, _indep(3), 2),
        2: (5, UNION, leaf(0), 4),
        3: (5, JOIN, leaf(0), 4),
        4: (4, UNION, leaf(0), 3),
    }
    return _family_tree("cograph-id", n, variant, bases, steps)


def _cograph_ld_tree(n: int, variant: int) -> Cotree:
    bases = {
        (2, 2): _indep(2),
        (2, 3): _clique(2),
        (3, 2): _indep(3),
        (3, 3): _clique(3),
        (4, 2): union_node(_indep(2), _clique(2)),
        (4, 3): join_node(leaf(0), union_node(leaf(0), _clique(2))),
    }
    steps = {
        1: (4, UNION, _clique(2), 3),
        2: (5, UNION, leaf(0), 1),
        3: (5, JOIN, leaf(0), 1),
        4: (3, UNION, leaf(0), 3),
    }
    return _family_tree("cograph-ld", n, variant, bases, steps)


# Family -> (tree builder, separating kind, divisor d).  Variant v's members
# have emp exactly when v is 2 or 4 and univ exactly when v is 3 or 4, and
# meet the bound sep = ceil((n + 2 - emp - univ) / d): d = 2 for ID, 3 for LD.
_COGRAPH_FAMILIES = {
    "cograph-id": (_cograph_id_tree, ProblemKind.SEP_ID, 2),
    "cograph-ld": (_cograph_ld_tree, ProblemKind.SEP_LD, 3),
}


def _cograph_family(family: str, n: int, variant: int) -> ExtremalInstance:
    if variant not in (1, 2, 3, 4):
        raise GeneratorError("variant must be 1..4")
    build, kind, d = _COGRAPH_FAMILIES[family]
    t = build(n, variant)
    emp, univ = variant in (2, 4), variant in (3, 4)
    claim = (-(-(n + 2 - emp - univ) // d), emp, univ)
    s, _value, witness = solve_cotree(t, kind, witness=True)
    if (s.k, s.emp, s.univ) != claim:
        raise GeneratorError(
            f"{family}({n},{variant}): dp says {(s.k, s.emp, s.univ)}, claimed {claim}"
        )
    return _validated(t, witness, kind, n, s.k, f"{family}-v{variant}")


def ext_cograph_id(n: int, variant: int) -> ExtremalInstance:
    """Twin-free cograph families meeting the half-order separating bound.

    Variant profiles: 1 neither property, 2 only the undominated-vertex
    property, 3 only the covered-vertex property, 4 both.
    """
    return _cograph_family("cograph-id", n, variant)


def ext_cograph_ld(n: int, variant: int) -> ExtremalInstance:
    """Cograph families meeting the third-order SEP_LD bound,
    with the variant profiles of :func:`ext_cograph_id`."""
    return _cograph_family("cograph-ld", n, variant)


# -- registry for the CLI -----------------------------------------------------

# Each family's builder, its parameters, and the order it claims from them
# (for the metric-dimension braids a lower bound: k/2 paths of at least d-1
# vertices each), read before anything is built.
FAMILIES = {
    "interval-ic": (ext_interval_ic, ("k",), lambda k: k * (k + 1) // 2),
    "interval-old": (ext_interval_old, ("k",), lambda k: k * (k + 1) // 2),
    "interval-ld": (ext_interval_ld, ("k",), lambda k: k * (k + 3) // 2),
    "interval-md": (ext_interval_md, ("k", "d"), lambda k, d: k * (d - 1) // 2),
    "unit-ic": (ext_unit_ic, ("k",), lambda k: 2 * k - 1),
    "unit-old": (ext_unit_old, ("k",), lambda k: 4 * k - 1),
    "unit-ld": (ext_unit_ld, ("k",), lambda k: 3 * k - 1),
    "unit-md": (ext_unit_md, ("k", "d"), lambda k, d: k * d + 1),
    "perm-ic": (ext_perm_ic, ("k",), lambda k: k * k - 2),
    "perm-old": (ext_perm_old, ("k",), lambda k: k * k - 2),
    "perm-ld": (ext_perm_ld, ("k",), lambda k: k * k + k - 2),
    "perm-md": (ext_perm_md, ("k", "d"), lambda k, d: k * (d - 1) // 2),
    "bipperm-ic": (ext_bipperm_ic, ("k",), lambda k: 3 * k - 3),
    "bipperm-old": (ext_bipperm_old, ("k",), lambda k: 2 * k - 2),
    "bipperm-ld": (ext_bipperm_ld, ("k",), lambda k: 3 * k - 1),
    "bipperm-md": (ext_bipperm_md, ("k", "d"), lambda k, d: k * (d - 1) // 2),
    "cograph-id": (ext_cograph_id, ("n", "variant"), lambda n, variant: n),
    "cograph-ld": (ext_cograph_ld, ("n", "variant"), lambda n, variant: n),
}


def generate(family: str, **params) -> ExtremalInstance:
    """Build a named family instance; raises GeneratorError for bad input,
    and exact.CapExceeded before building more than MAX_FILE_VERTICES
    vertices."""
    if family not in FAMILIES:
        raise GeneratorError(f"unknown family {family!r}")
    fn, names, order = FAMILIES[family]
    missing = [p for p in names if p not in params]
    if missing:
        raise GeneratorError(f"{family} needs parameters {names}")
    n = order(*(max(params[p], 0) for p in names))  # a negative parameter is the builder's error
    if n > MAX_FILE_VERTICES:
        raise CapExceeded(f"{family} has at least {n} vertices, above the cap {MAX_FILE_VERTICES}")
    return fn(**{p: params[p] for p in names})
