import hashlib

import pytest

from idcodes import generators, verify
from idcodes.bounds import certify_instance
from idcodes.cograph import solve_cotree
from idcodes.exact import emp_univ_oracle, min_set
from idcodes.generators import (
    FAMILIES,
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
    generate,
)
from idcodes.graph import bipartition, diameter
from idcodes.models import PermutationModel, is_unit_model, write_model
from idcodes.verify import ProblemKind


class TestIntervalFamilies:
    def test_ic_orders(self):
        for k in range(1, 9):
            inst = ext_interval_ic(k)
            assert inst.claimed_n == k * (k + 1) // 2
            assert inst.claimed_k == k

    def test_ic_small_examples(self):
        assert ext_interval_ic(1).claimed_n == 1
        assert ext_interval_ic(4).claimed_n == 10
        assert ext_interval_ic(6).claimed_n == 21

    def test_old_orders(self):
        for k in range(2, 9, 2):
            assert ext_interval_old(k).claimed_n == k * (k + 1) // 2
        with pytest.raises(GeneratorError):
            ext_interval_old(3)

    def test_ld_orders(self):
        for k in range(1, 9):
            assert ext_interval_ld(k).claimed_n == k * (k + 3) // 2
        assert ext_interval_ld(1).claimed_n == 2

    def test_md_grid(self):
        for k in (2, 4, 6):
            for d in range(2, 7):
                inst = ext_interval_md(k, d)
                assert inst.claimed_d == d
                assert diameter(inst.graph) == d


class TestUnitFamilies:
    def test_unit_models(self):
        for k in (1, 3, 5):
            assert is_unit_model(ext_unit_ic(k).model)
            assert is_unit_model(ext_unit_old(k).model)
            assert is_unit_model(ext_unit_ld(k).model)

    def test_orders(self):
        for k in range(1, 9):
            assert ext_unit_ic(k).claimed_n == 2 * k - 1
            old = ext_unit_old(k)
            assert (old.claimed_n, old.claimed_k) == (4 * k - 1, 2 * k)
            assert ext_unit_ld(k).claimed_n == 3 * k - 1

    def test_md(self):
        for k in range(1, 7):
            for d in range(1, 7):
                inst = ext_unit_md(k, d)
                assert inst.claimed_n == k * d + 1
                assert inst.claimed_d == d
        assert is_unit_model(ext_unit_md(3, 2).model)


class TestPermutationFamilies:
    def test_orders(self):
        for k in range(3, 9):
            assert ext_perm_ic(k).claimed_n == k * k - 2
            assert ext_perm_ld(k).claimed_n == k * k + k - 2
        for k in (4, 6, 8):
            assert ext_perm_old(k).claimed_n == k * k - 2

    def test_too_small(self):
        with pytest.raises(GeneratorError):
            ext_perm_ic(2)

    def test_solution_induces_path(self):
        inst = ext_perm_ic(5)
        sub = [v for v in sorted(inst.solution)]
        g = inst.graph
        degs = sorted(len(g.adj[v] & inst.solution) for v in sub)
        assert degs == [1, 1, 2, 2, 2]

    def test_md_grid(self):
        for k in (2, 4, 6):
            for d in range(2, 7):
                inst = ext_perm_md(k, d)
                assert inst.claimed_d == d
                assert verify.check(inst.graph, inst.solution, ProblemKind.RS)


class TestBipartitePermutationFamilies:
    def test_orders(self):
        for k in range(3, 9):
            assert ext_bipperm_ld(k).claimed_n == 3 * k - 1
            assert ext_bipperm_ic(k).claimed_n == 3 * k - 3
        for k in range(4, 9):
            assert ext_bipperm_old(k).claimed_n == 2 * k - 2

    def test_old_k3_unconstructible(self):
        # no 4-vertex bipartite graph has an open locating-dominating 3-set
        from idcodes.graph import Graph
        from itertools import combinations

        edges4 = list(combinations(range(4), 2))
        found = False
        for mask in range(1 << len(edges4)):
            g = Graph(4, [e for i, e in enumerate(edges4) if mask >> i & 1])
            if bipartition(g) is None:
                continue
            for s in combinations(range(4), 3):
                if verify.check(g, s, ProblemKind.OLD):
                    found = True
        assert not found
        with pytest.raises(GeneratorError):
            ext_bipperm_old(3)

    def test_bipartite_and_permutation_models(self):
        for k in (3, 5, 8):
            for inst in (ext_bipperm_ld(k), ext_bipperm_ic(k)):
                assert isinstance(inst.model, PermutationModel)
                assert bipartition(inst.graph) is not None
        inst = ext_bipperm_old(6)
        assert isinstance(inst.model, PermutationModel)
        assert bipartition(inst.graph) is not None

    def test_md_grid(self):
        for k in (2, 4, 6):
            for d in range(2, 7):
                inst = ext_bipperm_md(k, d)
                assert inst.claimed_d == d
                assert bipartition(inst.graph) is not None


class TestCographFamilies:
    def test_id_claims_against_oracle(self):
        for variant, nmin in ((1, 6), (2, 3), (3, 3), (4, 4)):
            for n in range(nmin, 11):
                inst = ext_cograph_id(n, variant)
                g = inst.graph
                assert min_set(g, ProblemKind.SEP_ID).size == inst.claimed_k
                emp, univ = emp_univ_oracle(g, ProblemKind.SEP_ID)
                s = solve_cotree(inst.model, ProblemKind.SEP_ID).summary
                assert (s.emp, s.univ) == (emp, univ)

    def test_ld_claims_against_oracle(self):
        for variant, nmin in ((1, 4), (2, 2), (3, 2), (4, 3)):
            for n in range(nmin, 11):
                inst = ext_cograph_ld(n, variant)
                g = inst.graph
                assert min_set(g, ProblemKind.SEP_LD).size == inst.claimed_k
                emp, univ = emp_univ_oracle(g, ProblemKind.SEP_LD)
                s = solve_cotree(inst.model, ProblemKind.SEP_LD).summary
                assert (s.emp, s.univ) == (emp, univ)

    def test_base_values(self):
        assert ext_cograph_id(3, 2).claimed_k == 2  # three isolated vertices
        assert ext_cograph_id(4, 3).claimed_k == 3  # the 4-cycle
        assert ext_cograph_id(8, 1).claimed_k == 5
        assert ext_cograph_ld(2, 3).claimed_k == 1  # one edge
        assert ext_cograph_ld(4, 3).claimed_k == 2
        assert ext_cograph_ld(9, 1).claimed_k == 4

    def test_large_n_dp_only(self):
        for n in (50, 120, 200):
            inst = ext_cograph_id(n, 1)
            assert inst.claimed_k == (n + 3) // 2
            inst = ext_cograph_ld(n, 1)
            assert inst.claimed_k == (n + 4) // 3

    def test_unreachable(self):
        with pytest.raises(GeneratorError):
            ext_cograph_id(5, 1)
        with pytest.raises(GeneratorError):
            ext_cograph_id(3, 4)
        with pytest.raises(GeneratorError):
            ext_cograph_id(4, 5)


class TestTightness:
    def test_neighbourhood_families_hit_bounds_exactly(self):
        for k in range(1, 9):
            assert certify_instance(ext_interval_ic(k)).slack == 0
            assert certify_instance(ext_interval_ld(k)).slack == 0
            assert certify_instance(ext_unit_ic(k)).slack == 0
            assert certify_instance(ext_unit_old(k)).slack == 0
            assert certify_instance(ext_unit_ld(k)).slack == 0
            if k % 2 == 0:
                assert certify_instance(ext_interval_old(k)).slack == 0
        for k in range(3, 9):
            assert certify_instance(ext_perm_ic(k)).slack == 0
            assert certify_instance(ext_perm_ld(k)).slack == 0
            if k % 2 == 0:
                assert certify_instance(ext_perm_old(k)).slack == 0

    def test_bipperm_families_within_bounds(self):
        # almost-tight families: inside the bound, small fixed slack
        for k in range(3, 9):
            r = certify_instance(ext_bipperm_ld(k))
            assert r.satisfied and r.slack == 3
            r = certify_instance(ext_bipperm_ic(k))
            assert r.satisfied and r.slack == 5
        for k in range(4, 9):
            r = certify_instance(ext_bipperm_old(k))
            assert r.satisfied and r.slack == 4


class TestLargeK:
    """Verifier-only spot checks well past the oracle range."""

    @pytest.mark.parametrize("k", [12, 20, 40])
    def test_neighbourhood_families_scale(self, k):
        assert certify_instance(ext_interval_ic(k)).slack == 0
        assert certify_instance(ext_interval_old(k)).slack == 0
        assert certify_instance(ext_interval_ld(k)).slack == 0
        assert certify_instance(ext_unit_ic(k)).slack == 0
        assert certify_instance(ext_unit_old(k)).slack == 0
        assert certify_instance(ext_unit_ld(k)).slack == 0
        assert certify_instance(ext_perm_ic(k)).slack == 0
        assert certify_instance(ext_perm_old(k)).slack == 0
        assert certify_instance(ext_perm_ld(k)).slack == 0
        assert certify_instance(ext_bipperm_ic(k)).satisfied
        assert certify_instance(ext_bipperm_old(k)).satisfied
        assert certify_instance(ext_bipperm_ld(k)).satisfied


class TestBraidWidth:
    def test_one_build_at_the_width_the_diameter_fixes(self, monkeypatch):
        widths = []
        for name in ("_build_interval_md", "_build_perm_md"):
            build = getattr(generators, name)
            monkeypatch.setattr(
                generators, name,
                lambda k, cols, build=build, **kw: widths.append(cols) or build(k, cols, **kw),
            )
        for family in ("interval-md", "perm-md", "bipperm-md"):
            for k in (2, 4, 6, 8):
                for d in range(3, 9):
                    widths.clear()
                    generate(family, k=k, d=d)
                    if family == "interval-md":
                        # k = 2 is a plain path of intervals, not a braid
                        expected = [] if k == 2 else [d]
                    else:
                        expected = [d + 1] if k == 2 else [d - 1]
                    assert widths == expected, (family, k, d)


class TestRegistry:
    def test_generate_dispatch(self):
        inst = generate("interval-ic", k=4)
        assert inst.family == "interval-ic"
        with pytest.raises(GeneratorError):
            generate("interval-ic")
        with pytest.raises(GeneratorError):
            generate("no-such-family", k=1)

    def test_manifest_line(self):
        inst = generate("unit-md", k=2, d=3)
        line = inst.manifest_line()
        assert line.startswith("unit-md rs 2 3 7 solution=")

    def test_all_families_registered(self):
        assert len(FAMILIES) == 18


def _golden_params():
    """A fixed list of (family, parameters): every metric-dimension family over
    k in {2, 4, 6} and d in 2..6, both cograph families over n in 2..29 for
    every variant, and one member of each other family."""
    out = [
        (family, {"k": k, "d": d})
        for family in ("interval-md", "unit-md", "perm-md", "bipperm-md")
        for k in (2, 4, 6)
        for d in range(2, 7)
    ]
    out += [
        (family, {"n": n, "variant": variant})
        for family in ("cograph-id", "cograph-ld")
        for variant in (1, 2, 3, 4)
        for n in range(2, 30)
    ]
    out += [
        (family, {"k": 6})
        for family in sorted(FAMILIES)
        if FAMILIES[family][1] == ("k",)
    ]
    return out


class TestGolden:
    """Manifest lines, model texts and generator errors, pinned by one digest."""

    DIGEST = "a2569e8b8ee815b19f42a67bc384d3702df58d5d522fbcb069c11b4c9ba7b6a7"

    def test_digest(self, tmp_path):
        h = hashlib.sha256()
        path = tmp_path / "model"
        for family, params in _golden_params():
            try:
                inst = generate(family, **params)
            except GeneratorError as exc:
                h.update(f"{family} {params} error: {exc}\n".encode())
                continue
            write_model(inst.model, str(path))
            h.update(inst.manifest_line().encode() + b"\n" + path.read_bytes())
        assert h.hexdigest() == self.DIGEST


# The benchmark's larger metric-dimension members, beyond the golden grid.
BENCH_MD_PARAMS = (
    [("perm-md", {"k": k, "d": d}) for k, d in ((4, 10), (6, 8), (8, 8))]
    + [("bipperm-md", {"k": k, "d": d}) for k, d in ((6, 10), (8, 12), (10, 16), (12, 20))]
    + [("interval-md", {"k": k, "d": d}) for k, d in ((6, 8), (8, 6), (8, 8))]
)


def test_bench_md_digest(tmp_path):
    """Manifest lines and model texts of the benchmark's large braids."""
    h = hashlib.sha256()
    path = tmp_path / "model"
    for family, params in BENCH_MD_PARAMS:
        inst = generate(family, **params)
        write_model(inst.model, str(path))
        h.update(inst.manifest_line().encode() + b"\n" + path.read_bytes())
    assert h.hexdigest() == "3d28a01c8c61578560bb7435f8472ae920706f15cc22ce07f581376f873151da"
