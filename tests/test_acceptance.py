"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import random
import statistics
import time
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, count

import pytest

from idcodes import verify
from idcodes.bounds import GraphClass, certify, certify_instance
from idcodes.cograph import solve_cotree
from idcodes.exact import (
    DEFAULT_VERTEX_CAP,
    NoSolution,
    OpenTwinsPresent,
    TwinsPresent,
    emp_univ_oracle,
    min_set,
)
from idcodes.generators import (
    GeneratorError,
    ext_bipperm_ic,
    ext_bipperm_ld,
    ext_bipperm_md,
    ext_bipperm_old,
    ext_cograph_id,
    ext_cograph_ld,
    ext_interval_ic,
    ext_interval_ld,
    ext_interval_md,
    ext_interval_old,
    ext_perm_ic,
    ext_perm_ld,
    ext_perm_md,
    ext_perm_old,
    ext_unit_ic,
    ext_unit_ld,
    ext_unit_md,
    ext_unit_old,
)
from idcodes.graph import (
    Graph,
    bipartition,
    closed_twins,
    diameter,
    is_connected,
    open_twins,
)
from idcodes.models import (
    IntervalModel,
    all_cotrees,
    cotree_to_graph,
    interval_graph,
    is_unit_model,
    random_cotree,
    random_twin_free_cotree,
)
from idcodes.verify import ProblemKind

PK = ProblemKind
GC = GraphClass


def _report(name: str, started: float, budget: float, detail: str = "") -> None:
    elapsed = time.monotonic() - started
    suffix = f" ({detail})" if detail else ""
    print(f"{name}: PASS in {elapsed:.1f}s (budget {budget:.0f}s){suffix}")
    assert elapsed < budget


def _minimal_up_to_cap(family, kind, start=1, step=1) -> list[int]:
    """Check that every member of a family, k = start, start + step, ...,
    hands out a minimum solution, until its order passes the oracle's vertex
    cap; the ks checked."""
    checked = []
    for k in count(start, step):
        inst = family(k)
        if inst.claimed_n > DEFAULT_VERTEX_CAP:
            return checked
        assert min_set(inst.graph, kind).size == inst.claimed_k, (inst.family, k)
        checked.append(k)


class TestCriterion1IntervalTightness:
    def test_interval_families(self):
        t0 = time.monotonic()
        for k in range(1, 9):
            for inst, bound_kind in (
                (ext_interval_ic(k), PK.IC),
                (ext_interval_ld(k), PK.LD),
            ):
                assert certify_instance(inst).slack == 0
            if k % 2 == 0:
                assert certify_instance(ext_interval_old(k)).slack == 0
        assert _minimal_up_to_cap(ext_interval_ic, PK.IC) == [*range(1, 8)]
        assert _minimal_up_to_cap(ext_interval_ld, PK.LD) == [*range(1, 7)]
        assert _minimal_up_to_cap(ext_interval_old, PK.OLD, 2, 2) == [2, 4, 6]
        # The published OLD row n <= k(k+1)/2 is falsified by an 11-vertex
        # graph: vertex i is ]2i, 2r[i] + 1[.  Pinned, not patched.
        r = (1, 4, 4, 6, 7, 7, 9, 9, 9, 10, 10)
        umbrella = IntervalModel((2 * i, 2 * r_i + 1) for i, r_i in enumerate(r))
        best = min_set(interval_graph(umbrella), PK.OLD)
        assert best.size == 4 and certify(umbrella, best.witness, PK.OLD).slack == -1
        _report(
            "criterion 1 (interval tightness)", t0, 60,
            "OLD row n<=k(k+1)/2 falsified at n=11, k=4; slack -1 pinned",
        )


class TestCriterion2UnitTightness:
    def test_unit_families(self):
        t0 = time.monotonic()
        for k in range(1, 9):
            for inst in (ext_unit_ic(k), ext_unit_old(k), ext_unit_ld(k)):
                assert is_unit_model(inst.model)
                assert certify_instance(inst).slack == 0
        assert _minimal_up_to_cap(ext_unit_ic, PK.IC) == [*range(1, 16)]
        assert _minimal_up_to_cap(ext_unit_old, PK.OLD) == [*range(1, 8)]
        assert _minimal_up_to_cap(ext_unit_ld, PK.LD) == [*range(1, 11)]
        # The published unit OLD row n <= 2k-1 is falsified by a K4 with two
        # pendants (n = 6, k = 3).  Pinned, not patched.
        pendant_k4 = IntervalModel(
            (Fraction(a), Fraction(a) + 1) for a in ("0", "9/10", "6/5", "7/5", "9/5", "27/10")
        )
        best = min_set(interval_graph(pendant_k4), PK.OLD)
        assert best.size == 3 and certify(pendant_k4, best.witness, PK.OLD).slack == -1
        _report(
            "criterion 2 (unit interval tightness)", t0, 60,
            "OLD row n<=2k-1 falsified at n=6, k=3; slack -1 pinned",
        )


class TestCriterion3PermutationTightness:
    def test_permutation_families(self):
        t0 = time.monotonic()
        for k in range(3, 7):
            assert certify_instance(ext_perm_ic(k)).slack == 0
            assert certify_instance(ext_perm_ld(k)).slack == 0
            if k % 2 == 0:
                assert certify_instance(ext_perm_old(k)).slack == 0
        assert _minimal_up_to_cap(ext_perm_ic, PK.IC, 3) == [3, 4, 5]
        assert _minimal_up_to_cap(ext_perm_ld, PK.LD, 3) == [3, 4, 5]
        assert _minimal_up_to_cap(ext_perm_old, PK.OLD, 4, 2) == [4]
        _report("criterion 3 (permutation tightness)", t0, 300)


class TestCriterion4MetricDimension:
    def test_md_constructions(self):
        t0 = time.monotonic()
        for k in range(1, 7):
            for d in range(1, 7):
                inst = ext_unit_md(k, d)
                assert inst.claimed_n == k * d + 1  # exact order for this family
                report = certify_instance(inst)
                if k == 1:
                    # Defect in the published formula at k = 1: the path on
                    # d+1 vertices has a 1-element resolving set and diameter
                    # d, but the bound evaluates to k(d+2)-2 = d.  The
                    # violation is exactly one vertex, for every d.
                    assert not report.satisfied and report.slack == -1
                else:
                    assert report.satisfied
        for k in (2, 4, 6):
            for d in range(2, 7):
                for builder in (ext_interval_md, ext_perm_md, ext_bipperm_md):
                    inst = builder(k, d)
                    # generation re-verified the resolving set and the diameter
                    assert inst.claimed_d == d
                    assert certify_instance(inst).satisfied
        _report(
            "criterion 4 (metric-dimension constructions)", t0, 120,
            "unit bound falsified at k=1 by the path family; slack -1 pinned",
        )


@lru_cache(maxsize=1)
def _criterion5_data():
    """Shared enumeration: exhaustive cotrees <= 7 plus 5000 samples on 8-10."""
    trees = [t for n in range(1, 8) for t in all_cotrees(n)]
    rng = random.Random(20260809)
    samples = [random_cotree(rng.randint(8, 10), rng) for _ in range(5000)]
    return trees, samples


class TestCriterion5CographOracleEquivalence:
    def test_dp_matches_oracle_everywhere(self):
        t0 = time.monotonic()
        trees, samples = _criterion5_data()
        mismatches = 0
        for t in trees + samples:
            g = cotree_to_graph(t)
            s_ld = solve_cotree(t, PK.SEP_LD).summary
            o_ld = min_set(g, PK.SEP_LD)
            if (s_ld.k, s_ld.emp, s_ld.univ) != (o_ld.size, *emp_univ_oracle(g, PK.SEP_LD)):
                mismatches += 1
            if solve_cotree(t, PK.LD).value != min_set(g, PK.LD).size:
                mismatches += 1
            if is_connected(g) and solve_cotree(t, PK.RS).value != min_set(g, PK.RS).size:
                mismatches += 1
            if not closed_twins(g):
                s_id = solve_cotree(t, PK.SEP_ID).summary
                o_id = min_set(g, PK.SEP_ID)
                if (s_id.k, s_id.emp, s_id.univ) != (
                    o_id.size,
                    *emp_univ_oracle(g, PK.SEP_ID),
                ):
                    mismatches += 1
                if solve_cotree(t, PK.IC).value != min_set(g, PK.IC).size:
                    mismatches += 1
        assert mismatches == 0
        _report(
            "criterion 5 (cograph oracle equivalence)",
            t0,
            600,
            f"{len(trees)} exhaustive + {len(samples)} sampled cotrees",
        )


class TestCriterion6CographBound:
    def test_bound_and_extremal_equality(self):
        t0 = time.monotonic()
        trees, samples = _criterion5_data()
        for t in trees + samples:
            g = cotree_to_graph(t)
            if g.n < 2:
                continue
            if not closed_twins(g):
                s = solve_cotree(t, PK.SEP_ID).summary
                gamma = solve_cotree(t, PK.IC).value
                # n <= 2*gamma - 1 holds universally (oracle-backed via
                # criterion 5).  The published n <= 2*gamma - 2 can fail only
                # by one, and only on odd-order graphs where every minimum
                # separating set has a fully-covered vertex but none leaves a
                # hole: there gamma can reach (n+1)/2.  The 3-vertex path is
                # the smallest such graph.
                assert 2 * gamma >= g.n + 1
                if 2 * gamma == g.n + 1:
                    assert not s.emp and s.univ and g.n % 2 == 1
            if is_connected(g):
                d = solve_cotree(t, PK.RS).value
                gld = solve_cotree(t, PK.LD).value
                assert g.n <= 3 * d <= 3 * gld
        # extremal families: claimed separating values via the fold up to 200
        id_claims = {1: lambda n: (n + 3) // 2, 2: lambda n: (n + 2) // 2,
                     3: lambda n: (n + 2) // 2, 4: lambda n: (n + 1) // 2}
        ld_claims = {1: lambda n: (n + 4) // 3, 2: lambda n: (n + 3) // 3,
                     3: lambda n: (n + 3) // 3, 4: lambda n: (n + 2) // 3}
        starts_id = {1: 6, 2: 3, 3: 3, 4: 4}
        starts_ld = {1: 4, 2: 2, 3: 2, 4: 3}
        for variant in (1, 2, 3, 4):
            for n in range(starts_id[variant], 201):
                inst = ext_cograph_id(n, variant)  # generation asserts the claim
                assert inst.claimed_k == id_claims[variant](n)
            for n in range(starts_ld[variant], 201):
                inst = ext_cograph_ld(n, variant)
                assert inst.claimed_k == ld_claims[variant](n)
        # oracle-level confirmation for the small members
        for variant, n0 in starts_id.items():
            for n in range(n0, 11):
                inst = ext_cograph_id(n, variant)
                assert min_set(inst.graph, PK.SEP_ID).size == inst.claimed_k
        for variant, n0 in starts_ld.items():
            for n in range(n0, 11):
                inst = ext_cograph_ld(n, variant)
                assert min_set(inst.graph, PK.SEP_LD).size == inst.claimed_k
        _report(
            "criterion 6 (cograph bound and extremal families)", t0, 600,
            "published half-order bound fails on covered-only odd graphs "
            "(smallest: the 3-vertex path); exact exception pinned",
        )


class TestCriterion7BipartitePermutation:
    def test_families_and_random_subgraphs(self):
        t0 = time.monotonic()
        for k in range(3, 9):
            ld = ext_bipperm_ld(k)
            assert (ld.claimed_n, ld.claimed_k) == (3 * k - 1, k)
            ic = ext_bipperm_ic(k)
            assert (ic.claimed_n, ic.claimed_k) == (3 * k - 3, k)
            for inst in (ld, ic):
                assert certify_instance(inst).satisfied
        for k in range(4, 9):
            old = ext_bipperm_old(k)
            assert (old.claimed_n, old.claimed_k) == (2 * k - 2, k)
            assert certify_instance(old).satisfied
        # k = 3 for the open variant is unattainable: no 4-vertex bipartite
        # graph admits an open locating-dominating set of size 3 (exhausted
        # below), so the n = 2k-2 instance cannot exist there.
        edges4 = list(combinations(range(4), 2))
        for mask in range(1 << len(edges4)):
            g = Graph(4, [e for i, e in enumerate(edges4) if mask >> i & 1])
            if bipartition(g) is None:
                continue
            for s in combinations(range(4), 3):
                assert not verify.check(g, s, PK.OLD)
        with pytest.raises(GeneratorError):
            ext_bipperm_old(3)

        # random induced subinstances stay inside the class bounds
        rng = random.Random(777)
        pool = [ext_bipperm_ld(8), ext_bipperm_ic(8), ext_bipperm_old(8),
                ext_bipperm_ld(6), ext_bipperm_ic(6)]
        checked = 0
        while checked < 200:
            inst = rng.choice(pool)
            size = rng.randint(2, min(14, inst.claimed_n))
            keep = sorted(rng.sample(range(inst.claimed_n), size))
            sub = inst.model.induced(keep)
            from idcodes.models import permutation_graph

            g = permutation_graph(sub)
            checked += 1
            for kind, cls_kind in ((PK.IC, PK.IC), (PK.LD, PK.LD), (PK.OLD, PK.OLD)):
                try:
                    best = min_set(g, kind)
                except (TwinsPresent, OpenTwinsPresent, NoSolution):
                    continue
                report = certify(sub, best.witness, kind)
                assert report.satisfied, (keep, kind)
        _report("criterion 7 (bipartite permutation families)", t0, 300)


class TestCriterion8RelationSuite:
    def test_parameter_relations(self):
        t0 = time.monotonic()
        rng = random.Random(4242)
        graphs = []
        for n in range(1, 6):  # full labelled enumeration for n <= 5
            pairs = list(combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                graphs.append(
                    Graph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
                )
        while len(graphs) < 10_000:  # fixed seeded sample at n = 6, 7
            n = rng.choice((6, 7))
            p = rng.random()
            pairs = list(combinations(range(n), 2))
            graphs.append(Graph(n, [e for e in pairs if rng.random() < p]))
        checked = 0
        violations = 0
        for g in graphs:
            if not is_connected(g) or closed_twins(g):
                continue
            checked += 1
            dim = min_set(g, PK.RS).size
            gamma_ld = min_set(g, PK.LD).size
            gamma_id = min_set(g, PK.IC).size
            if not (dim <= gamma_ld <= gamma_id <= 2 * gamma_ld):
                violations += 1
            if not open_twins(g) and all(g.adj[v] for v in range(g.n)):
                if gamma_ld > min_set(g, PK.OLD).size:
                    violations += 1
            if diameter(g) <= 2 and gamma_ld > dim + 1:
                violations += 1
        assert violations == 0
        assert checked > 2000
        _report(
            "criterion 8 (parameter relations)", t0, 600,
            f"{checked} connected twin-free graphs",
        )


class TestCriterion9Performance:
    def test_linear_time_evidence(self):
        t0 = time.monotonic()
        rng = random.Random(31337)
        t_small = random_twin_free_cotree(100_000, rng)
        t_big = random_twin_free_cotree(200_000, rng)

        # five pairs in CPU time of this process, timing the two trees
        # alternately.  On a shared machine the CPU runs in fast and slow
        # phases, which CPU time does not hide; a ratio of two best times
        # fails whenever a fast phase meets only the small tree, while the
        # median of the five paired ratios compares neighbours in time
        smalls, bigs = [], []
        for _ in range(5):
            for tree, times in ((t_small, smalls), (t_big, bigs)):
                s = time.process_time()
                solve_cotree(tree, PK.SEP_ID)
                times.append(time.process_time() - s)
        small = min(smalls)
        assert small < 1.0
        per_leaf_ratio = statistics.median(b / (2 * s) for s, b in zip(smalls, bigs))
        assert per_leaf_ratio <= 1.3
        _report(
            "criterion 9 (amortized-linear fold)", t0, 120,
            f"1e5 leaves in {small:.3f}s, doubling ratio {per_leaf_ratio:.2f}",
        )
