import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import idcodes
from idcodes.cli import build_parser, main
from idcodes.models import IntervalModel, format_interval_model

P5 = "graph 5\ne 0 1\ne 1 2\ne 2 3\ne 3 4\n"
K2 = "graph 2\ne 0 1\n"
C4_COTREE = "(J (U 0 1) (U 2 3))\n"


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "p5.graph").write_text(P5)
    (tmp_path / "k2.graph").write_text(K2)
    (tmp_path / "c4.cotree").write_text(C4_COTREE)
    (tmp_path / "p4.graph").write_text("graph 4\ne 0 1\ne 1 2\ne 2 3\n")
    return tmp_path


def run_cli(args, capsys):
    code = main([str(a) for a in args])
    out, err = capsys.readouterr()
    return code, out, err


class TestSolve:
    def test_p5_ic(self, workdir, capsys):
        code, out, _ = run_cli(["solve", "--problem", "ic", "--input", workdir / "p5.graph"], capsys)
        assert code == 0
        assert out == "k=3 witness=0,2,4\n"

    def test_twins_exit_2(self, workdir, capsys):
        code, out, err = run_cli(["solve", "--problem", "ic", "--input", workdir / "k2.graph"], capsys)
        assert code == 2
        assert "twins" in err

    def test_c4_md(self, workdir, capsys):
        code, out, _ = run_cli(["solve", "--problem", "md", "--input", workdir / "c4.cotree"], capsys)
        assert code == 0
        assert out.startswith("k=2 ")

    def test_parse_error_exit_3(self, workdir, capsys):
        bad = workdir / "bad.graph"
        bad.write_text("graph x\n")
        code, _, err = run_cli(["solve", "--problem", "ic", "--input", bad], capsys)
        assert code == 3

    def test_bad_interval_id_exit_3(self, workdir, capsys):
        bad = workdir / "bad.intervals"
        bad.write_text("intervals 2\nx 0 2\n1 1 3\n")
        code, _, err = run_cli(["verify", "--problem", "ic", "--input", bad, "--set", "0"], capsys)
        assert code == 3 and "parse error" in err

    @pytest.mark.parametrize(
        "text,code,message",
        [
            ("(U 0 1", 3, "parse error: missing ')'"),
            ("(U 0 2)", 2, "invalid model: leaf labels must be exactly 0..n-1"),
        ],
    )
    def test_bad_cotree_exit_codes(self, workdir, capsys, text, code, message):
        bad = workdir / "bad.cotree"
        bad.write_text(text)
        got, out, err = run_cli(["cograph", "--problem", "ic", "--cotree", bad], capsys)
        assert (got, out, err) == (code, "", message + "\n")

    def test_non_utf8_file_exit_3(self, workdir, capsys):
        bad = workdir / "bad.cotree"
        bad.write_bytes(b"\xff(U 0 1)")
        code, out, err = run_cli(["cograph", "--problem", "ic", "--cotree", bad], capsys)
        assert (code, out) == (3, "")
        assert err == "parse error: not UTF-8 text: invalid start byte at byte 0\n"

    def test_cap_exit_4(self, workdir, capsys):
        big = workdir / "big.graph"
        big.write_text("graph 40\n" + "".join(f"e {i} {i+1}\n" for i in range(39)))
        code, _, err = run_cli(["solve", "--problem", "ic", "--input", big], capsys)
        assert code == 4


class TestVerifyCmd:
    def test_ok(self, workdir, capsys):
        code, out, _ = run_cli(
            ["verify", "--problem", "ic", "--input", workdir / "p5.graph", "--set", "0,2,4"],
            capsys,
        )
        assert code == 0 and out == "ok\n"

    def test_fail_reports_pair(self, workdir, capsys):
        code, out, _ = run_cli(
            ["verify", "--problem", "ic", "--input", workdir / "p5.graph", "--set", "1"],
            capsys,
        )
        assert code == 2 and out.startswith("fail")


class TestCographCmd:
    def test_c4_ic(self, workdir, capsys):
        code, out, _ = run_cli(
            ["cograph", "--problem", "ic", "--cotree", workdir / "c4.cotree"], capsys
        )
        assert code == 0
        assert out == "k=3 emp=false univ=true sep=3\n"

    def test_leaf_ld(self, workdir, capsys):
        one = workdir / "k1.cotree"
        one.write_text("0\n")
        code, out, _ = run_cli(["cograph", "--problem", "ld", "--cotree", one], capsys)
        assert code == 0
        assert out.startswith("k=1 ") and "sep=0" in out

    def test_star_ic(self, workdir, capsys):
        star = workdir / "star.cotree"
        star.write_text("(J 0 (U 1 2 3))\n")
        code, out, _ = run_cli(["cograph", "--problem", "ic", "--cotree", star], capsys)
        assert code == 0 and out.startswith("k=3 ")

    def test_witness(self, workdir, capsys):
        code, out, _ = run_cli(
            ["cograph", "--problem", "ic", "--cotree", workdir / "c4.cotree", "--witness"],
            capsys,
        )
        assert code == 0 and "witness=" in out

    def test_graph_input_recognized(self, workdir, capsys):
        # a graph file is accepted and recognized on the fly
        c4 = workdir / "c4.graph"
        c4.write_text("graph 4\ne 0 1\ne 0 3\ne 1 2\ne 2 3\n")
        code, out, _ = run_cli(["cograph", "--problem", "ic", "--cotree", c4], capsys)
        assert code == 0 and out.startswith("k=3")

    def test_not_cograph_exit_2(self, workdir, capsys):
        code, _, err = run_cli(
            ["cograph", "--problem", "ic", "--cotree", workdir / "p4.graph"], capsys
        )
        assert code == 2 and "not a cograph" in err

    @pytest.mark.parametrize("name,text", [
        ("split.cotree", "(U (J 0 1) 2)\n"),
        ("split.graph", "graph 3\ne 0 1\n"),
    ])
    @pytest.mark.parametrize("witness", [[], ["--witness"]])
    def test_md_disconnected_exit_2(self, workdir, capsys, name, text, witness):
        path = workdir / name
        path.write_text(text)
        code, out, err = run_cli(["cograph", "--problem", "md", "--cotree", path, *witness], capsys)
        assert (code, out, err) == (2, "", "error: disconnected cotree root is a union\n")

    def test_not_cograph_model_exit_2(self, workdir, capsys):
        # the path P4 as an interval model
        p4 = workdir / "p4.intervals"
        p4.write_text("intervals 4\n0 0 2\n1 1 4\n2 3 6\n3 5 7\n")
        code, _, err = run_cli(["cograph", "--problem", "ic", "--cotree", p4], capsys)
        assert code == 2 and "not a cograph" in err


class TestOneFoldPerRequest:
    """A cograph request validates its cotree at most twice, in the parser and
    in the solver, and folds it once, witness included."""

    @pytest.fixture
    def counts(self, monkeypatch):
        from idcodes import cograph, models

        counts = {"fold_cotree": 0, "validate_cotree": 0}
        for name in counts:
            def counted(*args, _name=name, _original=getattr(models, name)):
                counts[_name] += 1
                return _original(*args)

            for module in (models, cograph):
                monkeypatch.setattr(module, name, counted)
        return counts

    @pytest.mark.parametrize("problem", ["ic", "ld", "md"])
    def test_cograph_witness(self, workdir, capsys, counts, problem):
        path = workdir / "k223.cotree"
        path.write_text("(J (U 0 1) (U 2 3) (U 4 5 6))\n")
        code, out, _ = run_cli(
            ["cograph", "--problem", problem, "--cotree", path, "--witness"], capsys
        )
        assert code == 0 and " witness=" in out
        assert counts["fold_cotree"] == 1
        assert counts["validate_cotree"] <= 2

    @pytest.mark.parametrize("family", ["cograph-id", "cograph-ld"])
    def test_generate(self, workdir, capsys, counts, family):
        code, _, _ = run_cli(
            ["generate", "--family", family, "--n", "12", "--variant", "1",
             "--out", workdir / family],
            capsys,
        )
        assert code == 0
        assert counts["fold_cotree"] == 1


class TestGenerateCertify:
    def test_round_trip_tight(self, workdir, capsys):
        out_prefix = workdir / "fam"
        code, out, _ = run_cli(
            ["generate", "--family", "interval-ic", "--k", "4", "--out", out_prefix],
            capsys,
        )
        assert code == 0
        manifest = (workdir / "fam.manifest").read_text().strip()
        solution = manifest.split("solution=")[1]
        code, out, _ = run_cli(
            [
                "certify",
                "--input", workdir / "fam.intervals",
                "--set", solution,
                "--problem", "ic",
            ],
            capsys,
        )
        assert code == 0
        assert out.startswith("satisfied slack=0 ")

    def test_certify_bad_set(self, workdir, capsys):
        out_prefix = workdir / "fam2"
        run_cli(["generate", "--family", "interval-ic", "--k", "4", "--out", out_prefix], capsys)
        code, _, err = run_cli(
            ["certify", "--input", workdir / "fam2.intervals", "--set", "0,1", "--problem", "ic"],
            capsys,
        )
        assert code == 2 and "VerifierFailed" in err

    def test_generate_cograph_by_n_variant(self, workdir, capsys):
        out_prefix = workdir / "cg"
        code, out, _ = run_cli(
            ["generate", "--family", "cograph-id", "--n", "8", "--variant", "1", "--out", out_prefix],
            capsys,
        )
        assert code == 0
        assert (workdir / "cg.cotree").exists()

    @pytest.mark.parametrize("family,problem", [("cograph-id", "sep-id"), ("cograph-ld", "sep-ld")])
    def test_certify_separating_kind_on_cotree(self, workdir, capsys, family, problem):
        prefix = workdir / family
        code, _, _ = run_cli(
            ["generate", "--family", family, "--n", "12", "--variant", "1", "--out", prefix],
            capsys,
        )
        assert code == 0
        manifest = (workdir / f"{family}.manifest").read_text().strip()
        assert manifest.split()[1] == problem
        solution = manifest.split("solution=")[1]
        code, out, err = run_cli(
            ["certify", "--input", workdir / f"{family}.cotree", "--set", solution,
             "--problem", problem],
            capsys,
        )
        assert code == 0 and out.startswith("satisfied "), err

    def test_generate_deep_cograph_family(self, workdir, capsys):
        # its cotree is deeper than a recursive walk of the family allows
        code, out, _ = run_cli(
            ["generate", "--family", "cograph-id", "--n", "480", "--variant", "2",
             "--out", workdir / "deep"],
            capsys,
        )
        assert code == 0 and out.startswith("cograph-id-v2 sep-id 241 - 480 ")

    @pytest.mark.parametrize(
        "family,k",
        [
            ("interval-ic", 4), ("interval-old", 4), ("interval-ld", 4),
            ("unit-ic", 6), ("unit-old", 6), ("unit-ld", 6),
            ("perm-ic", 5), ("perm-old", 6), ("perm-ld", 5),
        ],
    )
    def test_tight_family_round_trip(self, workdir, capsys, family, k):
        prefix = workdir / family
        code, _, _ = run_cli(
            ["generate", "--family", family, "--k", str(k), "--out", prefix], capsys
        )
        assert code == 0
        manifest = (workdir / f"{family}.manifest").read_text().strip()
        problem = manifest.split()[1]
        solution = manifest.split("solution=")[1]
        model_file = next(workdir.glob(f"{family}.intervals")) if "interval" in family or "unit" in family else next(workdir.glob(f"{family}.perm"))
        code, out, _ = run_cli(
            ["certify", "--input", model_file, "--set", solution, "--problem", problem],
            capsys,
        )
        assert code == 0 and out.startswith("satisfied slack=0 ")

    def test_generate_deterministic(self, workdir, capsys):
        a, b = workdir / "a", workdir / "b"
        run_cli(["generate", "--family", "perm-ld", "--k", "5", "--out", a], capsys)
        run_cli(["generate", "--family", "perm-ld", "--k", "5", "--out", b], capsys)
        assert (workdir / "a.perm").read_bytes() == (workdir / "b.perm").read_bytes()


class TestBoundsCmd:
    def test_row(self, workdir, capsys):
        code, out, _ = run_cli(
            ["bounds", "--class", "interval", "--kind", "ic", "--k", "4"], capsys
        )
        assert code == 0
        assert out == "interval ic 4 - 10 n<=k(k+1)/2\n"

    def test_md_needs_d(self, workdir, capsys):
        code, _, err = run_cli(
            ["bounds", "--class", "interval", "--kind", "md", "--k", "4"], capsys
        )
        assert code == 2

    def test_unsupported(self, workdir, capsys):
        code, _, err = run_cli(
            ["bounds", "--class", "cograph", "--kind", "old", "--k", "4"], capsys
        )
        assert code == 2


# One row per domain error of each subcommand: its arguments (files from the
# workdir fixture), the exit code and the exact stderr line.  Stdout is empty.
DOMAIN_ERRORS = [
    (["solve", "--problem", "ic", "--input", "k2.graph"], 2,
     "error: twins closed twins present, e.g. (0, 1)"),
    (["solve", "--problem", "old", "--input", "split.graph"], 2,
     "error: a degree-0 vertex cannot be totally dominated"),
    (["solve", "--problem", "md", "--input", "split.graph"], 2,
     "error: disconnected resolving sets need a connected graph"),
    (["solve", "--problem", "ic", "--input", "p40.graph"], 4,
     "error: cap exceeded n=40 exceeds the solver cap 30"),
    (["verify", "--problem", "rs", "--input", "split.graph", "--set", "0"], 2,
     "error: disconnected resolving sets need a connected graph"),
    (["verify", "--problem", "ic", "--input", "p5.graph", "--set", "0,5"], 2,
     "error: vertex out of range"),
    (["verify", "--problem", "md", "--input", "p5.graph", "--set=-1"], 2,
     "error: vertex out of range"),
    (["cograph", "--problem", "ic", "--cotree", "k2.graph"], 2,
     "error: twins cotree joins two parts with universal vertices"),
    (["cograph", "--problem", "md", "--cotree", "split.cotree"], 2,
     "error: disconnected cotree root is a union"),
    (["cograph", "--problem", "ic", "--cotree", "p4.graph"], 2,
     "error: not a cograph: graph contains an induced 4-vertex path"),
    (["generate", "--family", "interval-ic", "--k", "0", "--out", "fam"], 2,
     "error: k must be at least 1"),
    (["generate", "--family", "cograph-id", "--n", "5", "--variant", "1", "--out", "fam"], 2,
     "error: cograph-id: (5, variant 1) is unreachable"),
    (["certify", "--input", "p5.graph", "--set", "1", "--problem", "ic"], 2,
     "error: VerifierFailed solution fails the ic verifier pair=(0, 1)"),
    (["certify", "--input", "p5.graph", "--set", "0,1,2,3", "--problem", "sep-old"], 2,
     "error: bounds are stated for the dominating variants"),
    (["certify", "--input", "split.graph", "--set", "0", "--problem", "md"], 2,
     "error: disconnected resolving sets need a connected graph"),
    (["certify", "--input", "p5.graph", "--set=-1", "--problem", "ic"], 2,
     "error: vertex out of range"),
    (["certify", "--input", "p5.graph", "--set", "9", "--problem", "ic"], 2,
     "error: vertex out of range"),
    (["certify", "--input", "p5.graph", "--set", "9", "--problem", "md"], 2,
     "error: vertex out of range"),
    (["bounds", "--class", "cograph", "--kind", "old", "--k", "4"], 2,
     "error: no bound for GraphClass.COGRAPH / ProblemKind.OLD"),
    (["bounds", "--class", "interval", "--kind", "md", "--k", "4"], 2,
     "error: bound for (<GraphClass.INTERVAL: 'interval'>, <ProblemKind.RS: 'rs'>) "
     "needs the diameter"),
    (["bounds", "--class", "permutation", "--kind", "ic", "--k", "2"], 2,
     "error: bound for (<GraphClass.PERMUTATION: 'permutation'>, <ProblemKind.IC: 'ic'>) "
     "assumes k >= 3"),
    # models with no vertices
    (["cograph", "--problem", "ic", "--cotree", "empty.graph"], 2,
     "error: cotrees require at least one vertex"),
    (["cograph", "--problem", "ic", "--cotree", "empty.intervals"], 2,
     "error: cotrees require at least one vertex"),
    (["cograph", "--problem", "ic", "--cotree", "empty.perm"], 2,
     "error: cotrees require at least one vertex"),
    (["certify", "--problem", "md", "--set=", "--input", "empty.graph"], 2,
     "error: diameter of the empty graph is undefined"),
    # vertex counts too large to hold fail before anything is allocated
    (["compile-model", "--input", "huge.intervals"], 3,
     "parse error: interval ids must be exactly 0..n-1"),
    (["compile-model", "--input", "huge.perm"], 3,
     "parse error: segment ids must be exactly 0..n-1"),
    # {dir} stands for the test's working directory
    (["compile-model", "--input", "huge.graph"], 4,
     "cannot load {dir}/huge.graph: too large to allocate"),
    (["compile-model", "--input", "overflow.graph"], 4,
     "cannot load {dir}/overflow.graph: too large to allocate"),
    (["compile-model", "--input", "p5.graph", "--out", "missing.d/x.graph"], 3,
     "cannot write {dir}/missing.d/x.graph: "
     "[Errno 2] No such file or directory: '{dir}/missing.d/x.graph'"),
    (["generate", "--family", "interval-ic", "--k", "3", "--out", "missing.d/fam"], 3,
     "cannot write {dir}/missing.d/fam.intervals: "
     "[Errno 2] No such file or directory: '{dir}/missing.d/fam.intervals'"),
]


class TestDomainErrors:
    @pytest.mark.parametrize("argv,code,message", DOMAIN_ERRORS, ids=[" ".join(row[0]) for row in DOMAIN_ERRORS])
    def test_error_line(self, workdir, capsys, argv, code, message):
        (workdir / "split.graph").write_text("graph 3\ne 0 1\n")
        (workdir / "split.cotree").write_text("(U (J 0 1) 2)\n")
        (workdir / "p40.graph").write_text("graph 40\n" + "".join(f"e {i} {i+1}\n" for i in range(39)))
        for ext, header in (("graph", "graph"), ("intervals", "intervals"), ("perm", "permutation")):
            (workdir / f"empty.{ext}").write_text(f"{header} 0\n")
            (workdir / f"huge.{ext}").write_text(f"{header} {2**62}\n")
        (workdir / "overflow.graph").write_text(f"graph {10**20}\n")
        paths = [workdir / a if "." in a or a == "fam" else a for a in argv]
        message = message.replace("{dir}", str(workdir))
        assert run_cli(paths, capsys) == (code, "", message + "\n")
        assert not (workdir / "fam.manifest").exists()


class TestCompileModel:
    def test_cotree_to_graph(self, workdir, capsys):
        code, out, _ = run_cli(
            ["compile-model", "--input", workdir / "c4.cotree"], capsys
        )
        assert code == 0
        assert out == "graph 4\ne 0 2\ne 0 3\ne 1 2\ne 1 3\n"

    def test_large_interval_file(self, workdir, capsys):
        rng = random.Random(49)
        rows = []
        for i in range(2000):
            a = Fraction(rng.randint(0, 8000), rng.randint(1, 4))
            rows.append((a, a + Fraction(rng.randint(1, 60), rng.randint(1, 4))))
        path = workdir / "big.intervals"
        path.write_text(format_interval_model(IntervalModel(rows)))
        start = time.monotonic()
        code, out, _ = run_cli(["compile-model", "--input", path], capsys)
        assert time.monotonic() - start < 2.0
        assert code == 0 and out.startswith("graph 2000\n")

    def test_installed_entry_point(self, workdir):
        # byte-identical output across runs of the real process
        cmd = [sys.executable, "-m", "idcodes.cli", "solve", "--problem", "ic",
               "--input", str(workdir / "p5.graph")]
        # the child imports the same package as this test, installed or not
        src = str(Path(idcodes.__file__).resolve().parent.parent)
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
        r1 = subprocess.run(cmd, capture_output=True, env=env)
        r2 = subprocess.run(cmd, capture_output=True, env=env)
        assert r1.returncode == 0 and r1.stdout == r2.stdout


# Every help, usage and error text the parser prints, recorded with COLUMNS=80
# under Python 3.11: argv, exit code, stdout and stderr.
TEXTS = json.loads((Path(__file__).parent / "cli_texts.json").read_text())


def run_texts(fn, argv, capsys):
    """Exit code, stdout and stderr of fn(argv), argparse's SystemExit included."""
    try:
        code = fn(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


class TestParserTexts:
    @pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse wording and wrapping vary by version")
    @pytest.mark.parametrize("case", TEXTS, ids=lambda case: " ".join(case["argv"]) or "no-args")
    def test_recorded_texts(self, case, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        got = run_texts(main, case["argv"], capsys)
        assert got == (case["code"], case["stdout"], case["stderr"])

    @pytest.mark.parametrize("case", TEXTS, ids=lambda case: " ".join(case["argv"]) or "no-args")
    def test_same_texts_as_the_full_parser(self, case, capsys):
        expected = run_texts(build_parser().parse_args, case["argv"], capsys)
        assert run_texts(main, case["argv"], capsys) == expected
