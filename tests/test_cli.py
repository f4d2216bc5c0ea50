import subprocess
import sys

import pytest

from idcodes.cli import main

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

    def test_not_cograph_model_exit_2(self, workdir, capsys):
        # the path P4 as an interval model
        p4 = workdir / "p4.intervals"
        p4.write_text("intervals 4\n0 0 2\n1 1 4\n2 3 6\n3 5 7\n")
        code, _, err = run_cli(["cograph", "--problem", "ic", "--cotree", p4], capsys)
        assert code == 2 and "not a cograph" in err


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


class TestCompileModel:
    def test_cotree_to_graph(self, workdir, capsys):
        code, out, _ = run_cli(
            ["compile-model", "--input", workdir / "c4.cotree"], capsys
        )
        assert code == 0
        assert out == "graph 4\ne 0 2\ne 0 3\ne 1 2\ne 1 3\n"

    def test_installed_entry_point(self, workdir):
        # byte-identical output across runs of the real process
        cmd = [sys.executable, "-m", "idcodes.cli", "solve", "--problem", "ic",
               "--input", str(workdir / "p5.graph")]
        r1 = subprocess.run(cmd, capture_output=True)
        r2 = subprocess.run(cmd, capture_output=True)
        assert r1.returncode == 0 and r1.stdout == r2.stdout
