import random

import pytest

from idcodes import verify
from idcodes.graph import Disconnected, Graph, InvalidVertex, bits, diameter
from idcodes.exact import NoSolution, OpenTwinsPresent, SolverError, TwinsPresent, _Checker
from idcodes.models import (
    IntervalModel,
    PermutationModel,
    cotree_to_graph,
    interval_graph,
    permutation_graph,
)
from idcodes.verify import (
    ProblemKind,
    check,
    covered,
    separation_violation,
    undominated,
    vertex_mask,
)

from cotree_reference import all_cotrees
from graph_reference import (
    closed_twins,
    complete_graph,
    cycle_graph,
    empty_graph,
    is_connected,
    open_twins,
    path_graph,
    star_graph,
)

IC, LD, OLD, RS = ProblemKind.IC, ProblemKind.LD, ProblemKind.OLD, ProblemKind.RS
SEP_ID, SEP_LD, SEP_OLD = ProblemKind.SEP_ID, ProblemKind.SEP_LD, ProblemKind.SEP_OLD


def random_graph(n, p, rng):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def holes(g, s, kind):
    """Mask of the vertices left with an empty signature by s."""
    return undominated(g.masks, vertex_mask(s, g.n), kind)


def cov(g, s, kind):
    """Mask of the vertices whose signature is all of s."""
    return covered(g.masks, vertex_mask(s, g.n), kind)


def test_public_names():
    assert sorted(verify.__all__) == [
        "ProblemKind", "SEPARATING", "check", "covered", "first_collision", "neighbourhoods",
        "separation_violation", "undominated", "vertex_mask",
    ]


class TestVertexRange:
    def test_vertex_mask(self):
        assert vertex_mask([0, 2], 3) == 0b101
        assert vertex_mask([], 0) == 0
        for v in (-1, 3):
            with pytest.raises(InvalidVertex, match=f"vertex {v} out of range for n=3"):
                vertex_mask([0, v], 3)

    def test_every_kind_rejects_before_any_other_check(self):
        # on the disconnected empty graph, RS would otherwise raise Disconnected
        for g in (path_graph(3), empty_graph(2)):
            for kind in ProblemKind:
                for v in (-1, g.n):
                    with pytest.raises(InvalidVertex):
                        check(g, [0, v], kind)
                    with pytest.raises(InvalidVertex):
                        separation_violation(g, [v], kind)


class TestDomination:
    def test_dominating(self):
        p3 = path_graph(3)
        assert holes(p3, [1], IC) == 0
        assert holes(p3, [0], IC) == 0b100
        assert holes(empty_graph(2), [0, 1], IC) == 0

    def test_total_dominating(self):
        k2 = complete_graph(2)
        assert holes(k2, [0, 1], OLD) == 0
        assert holes(k2, [0], OLD) == 0b01
        assert holes(empty_graph(2), [0, 1], OLD) == 0b11


class TestIdentifyingCode:
    def test_p3(self):
        p3 = path_graph(3)
        assert check(p3, [0, 2], IC)

    def test_twins_block(self):
        k2 = complete_graph(2)
        for s in ([], [0], [1], [0, 1]):
            assert not check(k2, s, IC)

    def test_whole_vertex_set_iff_twin_free(self):
        rng = random.Random(20)
        for _ in range(200):
            g = random_graph(rng.randint(1, 8), rng.random(), rng)
            assert check(g, range(g.n), IC) == (closed_twins(g) == [])


class TestLocatingDominating:
    def test_p3(self):
        p3 = path_graph(3)
        assert not check(p3, [1], LD)  # ends share {1}
        assert check(p3, [0, 1], LD)

    def test_star_leaves(self):
        assert check(star_graph(3), [1, 2, 3], LD)


class TestOpenLocatingDominating:
    def test_k2(self):
        assert check(complete_graph(2), [0, 1], OLD)

    def test_open_twins_block(self):
        p3 = path_graph(3)
        for mask in range(8):
            s = [v for v in range(3) if mask >> v & 1]
            assert not check(p3, s, OLD)

    def test_p4_full(self):
        assert check(path_graph(4), range(4), OLD)

    def test_whole_vertex_set_iff_open_twin_free(self):
        rng = random.Random(21)
        for _ in range(200):
            g = random_graph(rng.randint(1, 8), rng.random(), rng)
            expect = open_twins(g) == [] and all(g.adj[v] for v in range(g.n))
            assert check(g, range(g.n), OLD) == expect


class TestResolvingSet:
    def test_path_endpoint(self):
        assert check(path_graph(3), [0], RS)

    def test_c4(self):
        assert not check(cycle_graph(4), [0], RS)
        assert check(cycle_graph(4), [0, 1], RS)

    def test_disconnected(self):
        with pytest.raises(Disconnected):
            check(empty_graph(2), [0], RS)


class TestSeparating:
    def test_k1_empty(self):
        assert check(complete_graph(1), [], SEP_ID)

    def test_two_isolated(self):
        g = empty_graph(2)
        assert check(g, [0], SEP_ID)
        assert not check(g, [], SEP_LD)

    def test_violation_reported(self):
        pair = separation_violation(complete_graph(2), [0, 1], ProblemKind.IC)
        assert pair == (0, 1)

    def test_no_violation_pair_for_resolving_sets(self):
        # {0} resolves P3, where 0 and 1 still share a closed signature
        g = path_graph(3)
        assert check(g, [0], ProblemKind.RS)
        with pytest.raises(ValueError, match="resolving set"):
            separation_violation(g, [0], ProblemKind.RS)

    def test_sep_plus_domination_is_the_full_property(self):
        rng = random.Random(22)
        for _ in range(300):
            g = random_graph(rng.randint(1, 8), rng.random(), rng)
            s = frozenset(v for v in range(g.n) if rng.random() < 0.5)
            dominating = not holes(g, s, IC)
            assert check(g, s, IC) == (check(g, s, SEP_ID) and dominating)
            assert check(g, s, LD) == (check(g, s, SEP_LD) and dominating)

    def test_sep_ld_equals_resolving_on_diameter_two(self):
        rng = random.Random(23)
        seen = 0
        while seen < 150:
            g = random_graph(rng.randint(2, 8), 0.6, rng)
            if not is_connected(g) or diameter(g) > 2:
                continue
            seen += 1
            s = frozenset(v for v in range(g.n) if rng.random() < 0.5)
            assert check(g, s, SEP_LD) == check(g, s, RS)


class TestFlags:
    """The cotree fold's emp and univ flags, read off the two kernels under
    the separating kind of each flavor."""

    def test_emp(self):
        assert holes(complete_graph(1), [], SEP_ID)
        assert not holes(path_graph(3), [0, 2], SEP_ID)
        assert holes(empty_graph(2), [0], SEP_LD)

    def test_univ_flavors_differ(self):
        g = empty_graph(2)
        assert cov(g, [0], SEP_ID)  # the set member covers itself
        assert not cov(g, [0], SEP_LD)  # no outside vertex sees all of it
        assert cov(complete_graph(1), [], SEP_ID)
        assert cov(complete_graph(1), [], SEP_LD)

    def test_old_flavor(self):
        k2 = complete_graph(2)
        assert holes(k2, [0], SEP_OLD)  # vertex 0 has no neighbour in {0}
        assert cov(k2, [0], SEP_OLD)  # vertex 1 sees all of {0}


class TestImplicationChain:
    def test_hierarchy_on_random_pairs(self):
        rng = random.Random(24)
        for _ in range(1000):
            n = rng.randint(1, 12)
            g = random_graph(n, rng.random(), rng)
            s = frozenset(v for v in range(n) if rng.random() < 0.5)
            if check(g, s, IC):
                assert check(g, s, LD)
            if check(g, s, OLD):
                assert check(g, s, LD)
            if is_connected(g) and check(g, s, LD):
                assert check(g, s, RS)

    def test_check_dispatch(self):
        p3 = path_graph(3)
        assert check(p3, [0, 2], ProblemKind.IC)
        assert check(p3, [0, 1], ProblemKind.LD)
        assert check(p3, [0], ProblemKind.RS)
        assert check(p3, [0], ProblemKind.SEP_LD)


# The signature rules, written from the definitions apart from the package's
# table: open neighbourhoods for the OLD kinds, only the vertices outside the
# set compared for the LD kinds, and no empty signature for IC, LD and OLD.
OPEN_KINDS = (OLD, SEP_OLD)
OUTSIDE_KINDS = (LD, SEP_LD)
DOMINATING_KINDS = (IC, LD, OLD)
SIGNATURE_KINDS = [kind for kind in ProblemKind if kind is not RS]


def _nbhd(g, kind):
    if kind in OPEN_KINDS:
        return lambda v: frozenset(bits(g.masks[v]))
    return lambda v: frozenset(bits(g.masks[v] | 1 << v))


def _signatures(g, s, kind):
    """{v: signature} for each compared vertex, in increasing order, from the
    frozenset neighbourhoods."""
    nbhd = _nbhd(g, kind)
    return {v: nbhd(v) & s for v in range(g.n) if not (kind in OUTSIDE_KINDS and v in s)}


def _brute_violation(g, s, kind):
    """First colliding pair, from the definitions on frozenset adjacency."""
    seen = {}
    for v, key in _signatures(g, frozenset(s), kind).items():
        if key in seen:
            return (seen[key], v)
        seen[key] = v
    return None


def _brute_check(g, s, kind):
    """Separation, plus domination for IC, LD and OLD, from the definitions."""
    signatures = _signatures(g, s, kind)
    separated = len(set(signatures.values())) == len(signatures)
    nbhd = _nbhd(g, kind)
    dominated = kind not in DOMINATING_KINDS or all(nbhd(v) & s for v in range(g.n))
    return separated and dominated


def _mask_of(vertices):
    return sum(1 << v for v in vertices)


def _subsets(n):
    """(mask, frozenset) for every subset of range(n)."""
    for mask in range(1 << n):
        yield mask, frozenset(v for v in range(n) if mask >> v & 1)


def _kernel_graphs():
    """Every cograph on at most 7 vertices, then 30 seeded random interval
    and permutation graphs on at most 8 vertices."""
    for n in range(1, 8):
        for t in all_cotrees(n):
            yield cotree_to_graph(t)
    rng = random.Random(29)
    for i in range(30):
        n = rng.randint(1, 8)
        if i % 2:
            bottoms = list(range(n))
            rng.shuffle(bottoms)
            yield permutation_graph(PermutationModel(enumerate(bottoms)))
        else:
            ends = [sorted(rng.sample(range(2 * n + 2), 2)) for _ in range(n)]
            yield interval_graph(IntervalModel(ends))


class TestMaskKernel:
    """The mask kernel against the subset-enumeration checker and the
    definitions, on every subset of every small graph and every kind."""

    def test_check_matches_exact_checker(self):
        for g in _kernel_graphs():
            for kind in ProblemKind:
                try:
                    hit = _Checker(g, kind).hit
                except (TwinsPresent, OpenTwinsPresent, NoSolution, Disconnected):
                    continue
                for mask in range(1 << g.n):
                    subset = tuple(v for v in range(g.n) if mask >> v & 1)
                    assert check(g, subset, kind) == all(m & mask for m in hit), (g, kind, subset)

    def test_first_pair_matches_brute_force(self):
        for g in _kernel_graphs():
            for _mask, subset in _subsets(g.n):
                for kind in SIGNATURE_KINDS:
                    expected = _brute_violation(g, subset, kind)
                    assert separation_violation(g, subset, kind) == expected

    def test_check_matches_definitions(self):
        # the exact checker reads the same table as check, so this is the
        # reference that catches a wrong row in both
        for g in _kernel_graphs():
            for _mask, subset in _subsets(g.n):
                for kind in SIGNATURE_KINDS:
                    expected = _brute_check(g, subset, kind)
                    assert check(g, subset, kind) == expected, (g, kind, subset)

    def test_undominated_and_covered_match_definitions(self):
        for g in _kernel_graphs():
            for mask, subset in _subsets(g.n):
                for kind in SIGNATURE_KINDS:
                    nbhd = _nbhd(g, kind)
                    empty = [v for v in range(g.n) if not nbhd(v) & subset]
                    whole = [v for v, key in _signatures(g, subset, kind).items() if key == subset]
                    assert undominated(g.masks, mask, kind) == _mask_of(empty), (g, kind, subset)
                    assert covered(g.masks, mask, kind) == _mask_of(whole), (g, kind, subset)


def _expected_precondition(g, kind):
    """(type, message) of the error the exact checker raises before trying
    any subset, from the definitions; None when it raises none."""
    if kind is RS:
        return None if is_connected(g) else (Disconnected, "resolving sets need a connected graph")
    if kind in (IC, SEP_ID) and closed_twins(g):
        return TwinsPresent, f"closed twins present, e.g. {closed_twins(g)[0]}"
    if kind in OPEN_KINDS and open_twins(g):
        return OpenTwinsPresent, f"open twins present, e.g. {open_twins(g)[0]}"
    if kind is OLD and not all(g.adj):
        return NoSolution, "a degree-0 vertex cannot be totally dominated"
    return None


class TestCheckerPreconditions:
    def test_every_kernel_graph_and_kind(self):
        for g in _kernel_graphs():
            for kind in ProblemKind:
                try:
                    _Checker(g, kind)
                    raised = None
                except (SolverError, Disconnected) as exc:
                    raised = (type(exc), str(exc))
                assert raised == _expected_precondition(g, kind), (g, kind)

    def test_old_reports_twins_before_an_isolated_vertex(self):
        # three isolated vertices: open twins (0, 1), and no total domination
        with pytest.raises(OpenTwinsPresent, match=r"^open twins present, e\.g\. \(0, 1\)$"):
            _Checker(empty_graph(3), OLD)
        with pytest.raises(NoSolution):
            _Checker(Graph(3, [(1, 2)]), OLD)
