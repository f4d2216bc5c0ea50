import hashlib
import random
from fractions import Fraction

import pytest

from idcodes.bounds import (
    BoundQuery,
    BoundReport,
    GraphClass,
    HypothesisNotMet,
    MissingDiameter,
    UnsupportedCombination,
    VerifierFailed,
    attest_class,
    bound_label,
    certify,
    max_order,
    min_parameter,
)
from idcodes.generators import ext_interval_ic
from idcodes.graph import Graph
from idcodes.exact import min_set
from idcodes.models import (
    Cotree,
    IntervalModel,
    PermutationModel,
    interval_graph,
    is_unit_model,
    leaf,
    union_node,
)
from idcodes.verify import ProblemKind

from graph_reference import path_graph

PK = ProblemKind
GC = GraphClass


class TestMaxOrder:
    def test_table_values(self):
        assert max_order(BoundQuery(GC.INTERVAL, PK.IC, 4)) == 10
        assert max_order(BoundQuery(GC.INTERVAL, PK.LD, 4)) == 14
        assert max_order(BoundQuery(GC.PERMUTATION, PK.IC, 4)) == 14
        assert max_order(BoundQuery(GC.PERMUTATION, PK.LD, 4)) == 18
        assert max_order(BoundQuery(GC.UNIT_INTERVAL, PK.IC, 5)) == 9
        assert max_order(BoundQuery(GC.UNIT_INTERVAL, PK.RS, 2, 3)) == 8
        assert max_order(BoundQuery(GC.BIPARTITE_PERMUTATION, PK.OLD, 4)) == 10
        assert max_order(BoundQuery(GC.BIPARTITE_PERMUTATION, PK.RS, 4, 4)) == 30
        assert max_order(BoundQuery(GC.COGRAPH, PK.IC, 5)) == 8
        assert max_order(BoundQuery(GC.COGRAPH, PK.RS, 5)) == 15
        assert max_order(BoundQuery(GC.GENERAL, PK.IC, 4)) == 15
        assert max_order(BoundQuery(GC.GENERAL, PK.LD, 4)) == 19
        assert max_order(BoundQuery(GC.GENERAL, PK.RS, 3, 4)) == 67
        assert max_order(BoundQuery(GC.INTERVAL, PK.RS, 6, 5)) == 565
        assert max_order(BoundQuery(GC.PERMUTATION, PK.RS, 6, 5)) == 594

    def test_unsupported(self):
        with pytest.raises(UnsupportedCombination):
            max_order(BoundQuery(GC.COGRAPH, PK.OLD, 4))
        with pytest.raises(UnsupportedCombination):
            max_order(BoundQuery(GC.INTERVAL, PK.SEP_ID, 4))

    def test_missing_diameter(self):
        with pytest.raises(MissingDiameter):
            max_order(BoundQuery(GC.INTERVAL, PK.RS, 4))
        # connected cographs have diameter at most 2: no diameter needed
        assert max_order(BoundQuery(GC.COGRAPH, PK.RS, 4)) == 12

    def test_permutation_needs_k3(self):
        with pytest.raises(HypothesisNotMet):
            max_order(BoundQuery(GC.PERMUTATION, PK.IC, 2))


class TestMinParameter:
    def test_examples(self):
        assert min_parameter(GC.UNIT_INTERVAL, PK.IC, 5) == 3
        assert min_parameter(GC.COGRAPH, PK.IC, 8) == 5
        assert min_parameter(GC.INTERVAL, PK.IC, 10) == 4

    def test_inversion_consistency(self):
        kinds = {
            GC.INTERVAL: [PK.IC, PK.LD, PK.OLD, PK.RS],
            GC.UNIT_INTERVAL: [PK.IC, PK.LD, PK.OLD, PK.RS],
            GC.PERMUTATION: [PK.IC, PK.LD, PK.OLD, PK.RS],
            GC.BIPARTITE_PERMUTATION: [PK.IC, PK.LD, PK.OLD, PK.RS],
            GC.COGRAPH: [PK.IC, PK.LD, PK.RS],
            GC.GENERAL: [PK.IC, PK.LD, PK.OLD, PK.RS],
        }
        for cls, ks in kinds.items():
            for kind in ks:
                k0 = 3 if (cls, kind) in (
                    (GC.PERMUTATION, PK.IC),
                    (GC.PERMUTATION, PK.LD),
                    (GC.PERMUTATION, PK.OLD),
                ) else 1
                for k in range(k0, 51):
                    if kind is PK.RS and cls is not GC.COGRAPH:
                        for d in range(1, 21):
                            n = max_order(BoundQuery(cls, kind, k, d))
                            assert min_parameter(cls, kind, n, d) == k
                        continue
                    n = max_order(BoundQuery(cls, kind, k))
                    assert min_parameter(cls, kind, n) == k


class TestAttestation:
    def test_interval(self):
        assert attest_class(IntervalModel([(0, 1)])) is GC.UNIT_INTERVAL
        assert attest_class(IntervalModel([(0, 2)])) is GC.INTERVAL

    def test_permutation(self):
        assert attest_class(PermutationModel([(0, 1), (1, 0)])) is GC.BIPARTITE_PERMUTATION
        tri = PermutationModel([(0, 2), (1, 1), (2, 0)])
        assert attest_class(tri) is GC.PERMUTATION

    def test_cotree_and_graph(self):
        assert attest_class(Cotree(union_node(leaf(0), leaf(1)))) is GC.COGRAPH
        assert attest_class(path_graph(3)) is GC.GENERAL


class TestCertify:
    def test_tight_instance(self):
        inst = ext_interval_ic(4)
        report = certify(inst.model, inst.solution, PK.IC)
        assert report.satisfied and report.slack == 0

    def test_permutation_model_compiled_once(self, monkeypatch):
        import idcodes.models as models

        calls = []
        compile_segments = models.permutation_graph

        def counting(m):
            calls.append(m)
            return compile_segments(m)

        monkeypatch.setattr(models, "permutation_graph", counting)
        path = PermutationModel([(0, 1), (1, 2), (2, 0)])  # P3 centred on segment 2
        report = certify(path, [0, 1, 2], PK.IC)
        assert report.satisfied and len(calls) == 1

    def test_verifier_failure(self):
        inst = ext_interval_ic(4)
        with pytest.raises(VerifierFailed):
            certify(inst.model, list(inst.solution)[:-1], PK.IC)

    def test_random_unit_models_never_violate(self):
        from idcodes.exact import min_set
        from idcodes.models import interval_graph
        from graph_reference import closed_twins

        rng = random.Random(50)
        done = 0
        while done < 60:
            n = rng.randint(2, 10)
            rows = []
            for _ in range(n):
                a = Fraction(rng.randint(0, 4 * n), 4)
                rows.append((a, a + 1))
            m = IntervalModel(rows)
            g = interval_graph(m)
            if closed_twins(g):
                continue
            done += 1
            best = min_set(g, PK.IC)
            report = certify(m, best.witness, PK.IC)
            assert report.satisfied

    def test_cograph_hypothesis(self):
        with pytest.raises(HypothesisNotMet):
            certify(Cotree(leaf(0)), [0], PK.IC)

    def test_soundness_sweep_all_classes(self):
        """Oracle-minimum solutions stay inside each class bound.

        One exception is real and pinned here: the published cograph
        identifying-code bound n <= 2k-2 is off by one exactly on odd-order
        twin-free cographs where every minimum separating set has a vertex
        covered by the whole set and none leaves a hole (smallest case: the
        3-vertex path).
        """
        from idcodes.exact import (
            NoSolution,
            OpenTwinsPresent,
            TwinsPresent,
            min_set,
        )
        from idcodes.models import interval_graph, permutation_graph, cotree_to_graph
        from cotree_reference import random_cotree
        from idcodes.cograph import solve_cotree

        rng = random.Random(51)

        def random_interval_model(n, unit):
            rows = []
            for _ in range(n):
                a = Fraction(rng.randint(0, 4 * n), 4)
                length = 1 if unit else Fraction(rng.randint(1, 3 * n), 4)
                rows.append((a, a + length))
            return IntervalModel(rows)

        def random_permutation_model(n):
            return PermutationModel(
                zip(rng.sample(range(2 * n), n), rng.sample(range(2 * n), n))
            )

        def sweep(make_model, count, kinds):
            done = 0
            while done < count:
                model = make_model()
                g = (
                    interval_graph(model)
                    if isinstance(model, IntervalModel)
                    else permutation_graph(model)
                )
                done += 1
                for kind in kinds:
                    try:
                        best = min_set(g, kind)
                    except (TwinsPresent, OpenTwinsPresent, NoSolution):
                        continue
                    except Exception:
                        continue  # disconnected for RS
                    try:
                        report = certify(model, best.witness, kind)
                    except (HypothesisNotMet, UnsupportedCombination):
                        continue  # e.g. permutation bounds assume k >= 3
                    if (
                        not report.satisfied
                        and kind is PK.RS
                        and best.size == 1
                        and report.theorem_label == "n<=k(D+2)-2"
                    ):
                        # Published unit-interval resolving bound is falsified
                        # at k = 1: a path has dimension 1 and n = D+1 > D.
                        assert report.slack == -1
                        continue
                    assert report.satisfied, (model, kind, best)

        kinds = [PK.IC, PK.LD, PK.OLD, PK.RS]
        sweep(lambda: random_interval_model(rng.randint(2, 16), False), 200, kinds)
        sweep(lambda: random_interval_model(rng.randint(2, 16), True), 200, kinds)
        sweep(lambda: random_permutation_model(rng.randint(2, 14)), 200, kinds)

        # cographs via random cotrees; identifying codes get the pinned pass
        done = 0
        while done < 200:
            t = random_cotree(rng.randint(2, 10), rng)
            g = cotree_to_graph(t)
            done += 1
            for kind in (PK.LD, PK.RS):
                try:
                    best = min_set(g, kind)
                except Exception:
                    continue
                report = certify(t, best.witness, kind)
                assert report.satisfied
            try:
                best = min_set(g, PK.IC)
            except TwinsPresent:
                continue
            report = certify(t, best.witness, PK.IC)
            if not report.satisfied:
                s = solve_cotree(t, PK.SEP_ID).summary
                assert report.slack == -1
                assert not s.emp and s.univ and g.n % 2 == 1

    def test_general_reference(self):
        # a bare graph without a model only gets the general reference bound
        g = path_graph(5)
        report = certify(g, [0, 2, 4], PK.IC)
        assert report.theorem_label == "n<=2^k-1"
        assert report.satisfied

    def test_labels(self):
        assert bound_label(GC.INTERVAL, PK.IC) == "n<=k(k+1)/2"
        assert bound_label(GC.COGRAPH, PK.LD) == "n<=3k"


# The smallest unit interval graph that breaks the unit-interval OLD row: a
# K4 on {1, 2, 3, 4} with pendants 0-1 and 4-5.
UNIT_OLD_COUNTEREXAMPLE = IntervalModel(
    (Fraction(a), Fraction(a) + 1) for a in ("0", "9/10", "6/5", "7/5", "9/5", "27/10")
)
# A unit interval graph of 11 vertices, written with unequal lengths so that
# it attests INTERVAL: vertex i is ]2i, 2r[i] + 1[, so i ~ j for i < j <= r[i].
UMBRELLA = (1, 4, 4, 6, 7, 7, 9, 9, 9, 10, 10)
INTERVAL_OLD_COUNTEREXAMPLE = IntervalModel((2 * i, 2 * r + 1) for i, r in enumerate(UMBRELLA))


class TestFalsifiedOldRows:
    """Two open locating-dominating rows of the bound table fail on small
    interval graphs: the oracle's minimum set certifies with slack -1.  They
    are pinned here, not patched.  PAPER.md holds only the abstract, so this
    repo cannot tell a transcription error in the table from an error in the
    paper."""

    @pytest.mark.parametrize("model,unit,witness,report", [
        (UNIT_OLD_COUNTEREXAMPLE, True, {1, 2, 4}, BoundReport(5, "n<=2k-1", False, -1)),
        (INTERVAL_OLD_COUNTEREXAMPLE, False, {1, 4, 6, 9},
         BoundReport(10, "n<=k(k+1)/2", False, -1)),
    ], ids=["unit-interval", "interval"])
    def test_oracle_minimum_breaks_the_row(self, model, unit, witness, report):
        assert is_unit_model(model) == unit
        best = min_set(interval_graph(model), PK.OLD)
        assert (best.size, best.witness) == (len(witness), witness)
        assert certify(model, best.witness, PK.OLD) == report


def _outcome(fn, *args) -> str:
    try:
        return repr(fn(*args))
    except Exception as exc:
        return type(exc).__name__


class TestGolden:
    def test_bound_table_digest(self):
        """One digest over every class and kind pins the whole bound table:
        labels, max_order, min_parameter and the exception type wherever one
        is raised (7,728 entries)."""
        lines = []
        for cls in GC:
            for kind in PK:
                lines.append(f"{cls.value} {kind.value} label {_outcome(bound_label, cls, kind)}")
                for k in range(-1, 9):
                    for d in (None, 0, 1, 2, 3, 4):
                        query = BoundQuery(cls, kind, k, d)
                        lines.append(f"max_order {k} {d} {_outcome(max_order, query)}")
                for n in range(41):
                    for d in (None, 1, 3):
                        outcome = _outcome(min_parameter, cls, kind, n, d)
                        lines.append(f"min_parameter {n} {d} {outcome}")
        assert len(lines) == 7728
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "e997445ec5d78a69d4bdd3dcf12e8bbe7677c8995f3a97b3eec0886495538c8c"
