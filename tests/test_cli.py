import errno
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import idcodes
from idcodes import cli
from idcodes.cli import _COMMANDS, build_parser, main, read_args
from idcodes.models import IntervalModel, format_interval_model

P5 = "graph 5\ne 0 1\ne 1 2\ne 2 3\ne 3 4\n"
K2 = "graph 2\ne 0 1\n"
C4_COTREE = "(J (U 0 1) (U 2 3))\n"
# the complete tripartite graph K_{2,2,3}: a join of three independent sets
K223_COTREE = "(J (U 0 1) (U 2 3) (U 4 5 6))\n"
K223_GRAPH = "graph 7\n" + "".join(
    f"e {u} {v}\n" for u in range(7) for v in range(u + 1, 7)
    if not {u, v} <= {0, 1} and not {u, v} <= {2, 3} and not {u, v} <= {4, 5, 6}
)


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

    @pytest.mark.parametrize("name, text", [
        ("big.graph", "graph 31\n"),
        ("big.intervals", "intervals 31\n" + "".join(f"{i} {i} {i + 1}\n" for i in range(31))),
        ("big.perm", "permutation 31\n" + "".join(f"{i} {i} {30 - i}\n" for i in range(31))),
        ("big.cotree", "(U " + " ".join(map(str, range(31))) + ")\n"),
    ], ids=["graph", "intervals", "perm", "cotree"])
    def test_cap_is_checked_before_compiling(self, workdir, capsys, monkeypatch, name, text):
        # the order is read off the model: an instance above the cap is never compiled
        compiled = []
        monkeypatch.setattr(cli, "model_to_graph", lambda model: compiled.append(model))
        (workdir / name).write_text(text)
        code, out, err = run_cli(["solve", "--problem", "ic", "--input", workdir / name], capsys)
        assert (code, out, err) == (4, "", "error: cap exceeded n=31 exceeds the solver cap 30\n")
        assert compiled == []


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

    def test_empty_set_fails_to_resolve(self, workdir, capsys):
        code, out, err = run_cli(
            ["verify", "--problem", "md", "--input", workdir / "p5.graph", "--set="],
            capsys,
        )
        assert (code, out, err) == (2, "fail\n", "")


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
    """A cograph request, witness included, and a cograph-family generate
    walk their cotree's structure once and fold it once.  A cotree file's
    tree is checked by the parser's token loop alone, never by the
    ``Cotree`` constructor's check; a graph file's tree is checked once,
    when recognition builds it, and a generated one when it is built.  A
    witness folds inside ``_fold`` too, in its own loop over the codes, with
    no call per node."""

    @pytest.fixture
    def counts(self, monkeypatch):
        from idcodes import cograph, models

        # the constructor's check and the fold
        counts = {"_checked_codes": 0, "_fold": 0}
        for module, name in ((models, "_checked_codes"), (cograph, "_fold")):
            def counted(*args, _name=name, _original=getattr(module, name)):
                counts[_name] += 1
                return _original(*args)

            monkeypatch.setattr(module, name, counted)
        return counts

    @pytest.mark.parametrize("problem", ["ic", "ld", "md"])
    def test_cograph_witness(self, workdir, capsys, counts, problem):
        path = workdir / "k223.cotree"
        path.write_text(K223_COTREE)
        code, out, _ = run_cli(
            ["cograph", "--problem", problem, "--cotree", path, "--witness"], capsys
        )
        assert code == 0 and " witness=" in out
        assert counts == {"_checked_codes": 0, "_fold": 1}

    @pytest.mark.parametrize("name,text", [("k223.cotree", K223_COTREE), ("k223.graph", K223_GRAPH)],
                             ids=["cotree", "graph"])
    @pytest.mark.parametrize("witness", [[], ["--witness"]], ids=["value", "witness"])
    def test_cotree_or_graph_input(self, workdir, capsys, counts, name, text, witness):
        # a graph file's tree is checked once, by recognition
        path = workdir / name
        path.write_text(text)
        code, out, _ = run_cli(["cograph", "--problem", "ic", "--cotree", path, *witness], capsys)
        assert (code, out) == (0, "k=5 emp=false univ=true sep=5"
                               + (" witness=0,1,3,5,6" if witness else "") + "\n")
        assert counts == {"_checked_codes": int(name.endswith(".graph")), "_fold": 1}

    @pytest.mark.parametrize("family", ["cograph-id", "cograph-ld"])
    def test_generate(self, workdir, capsys, counts, family):
        code, _, _ = run_cli(
            ["generate", "--family", family, "--n", "12", "--variant", "1",
             "--out", workdir / family],
            capsys,
        )
        assert code == 0
        # the family is built from a witness
        assert counts == {"_checked_codes": 1, "_fold": 1}


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

    # The two falsified open locating-dominating rows (see test_bounds.py):
    # the oracle's answer certifies with slack -1, and certify exits 2.
    @pytest.mark.parametrize("text,solved,certified", [
        ("intervals 6\n0 0 1\n1 9/10 19/10\n2 6/5 11/5\n3 7/5 12/5\n4 9/5 14/5\n"
         "5 27/10 37/10\n",
         "k=3 witness=1,2,4", "violated slack=-1 max_n=5 bound=n<=2k-1"),
        ("intervals 11\n" + "".join(
            f"{i} {2 * i} {2 * r + 1}\n" for i, r in enumerate((1, 4, 4, 6, 7, 7, 9, 9, 9, 10, 10))),
         "k=4 witness=1,4,6,9", "violated slack=-1 max_n=10 bound=n<=k(k+1)/2"),
    ], ids=["unit-interval", "interval"])
    def test_falsified_old_rows(self, workdir, capsys, text, solved, certified):
        path = workdir / "old.intervals"
        path.write_text(text)
        code, out, _ = run_cli(["solve", "--problem", "old", "--input", path], capsys)
        assert (code, out) == (0, solved + "\n")
        witness = solved.split("witness=")[1]
        code, out, _ = run_cli(
            ["certify", "--problem", "old", "--input", path, "--set", witness], capsys
        )
        assert (code, out) == (2, certified + "\n")

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
     "error: no bound for cograph / old"),
    (["bounds", "--class", "interval", "--kind", "md", "--k", "4"], 2,
     "error: bound for interval / rs needs the diameter"),
    (["bounds", "--class", "permutation", "--kind", "ic", "--k", "2"], 2,
     "error: bound for permutation / ic assumes k >= 3"),
    # models with no vertices
    (["cograph", "--problem", "ic", "--cotree", "empty.graph"], 2,
     "error: cotrees require at least one vertex"),
    (["cograph", "--problem", "ic", "--cotree", "empty.intervals"], 2,
     "error: cotrees require at least one vertex"),
    (["cograph", "--problem", "ic", "--cotree", "empty.perm"], 2,
     "error: cotrees require at least one vertex"),
    (["certify", "--problem", "md", "--set=", "--input", "empty.graph"], 2,
     "error: diameter of the empty graph is undefined"),
    (["compile-model", "--input", "negative.intervals"], 2,
     "invalid model: vertex count must be nonnegative"),
    (["compile-model", "--input", "negative.perm"], 2,
     "invalid model: vertex count must be nonnegative"),
    (["verify", "--problem", "ic", "--input", "p5.graph", "--set", "a"], 3,
     "bad vertex list: 'a'"),
    # vertex counts too large to hold fail before anything is allocated
    (["compile-model", "--input", "huge.intervals"], 3,
     "parse error: interval ids must be exactly 0..n-1"),
    (["compile-model", "--input", "huge.perm"], 3,
     "parse error: segment ids must be exactly 0..n-1"),
    # a header keyword is a whole first token, not a prefix of one
    (["compile-model", "--input", "prefix.graph"], 3,
     "parse error: unrecognized model file header"),
    (["compile-model", "--input", "prefix.intervals"], 3,
     "parse error: unrecognized model file header"),
    (["compile-model", "--input", "prefix.perm"], 3,
     "parse error: unrecognized model file header"),
    # {dir} stands for the test's working directory
    (["compile-model", "--input", "huge.graph"], 4,
     "cannot load {dir}/huge.graph: too large to allocate"),
    (["compile-model", "--input", "overflow.graph"], 4,
     "cannot load {dir}/overflow.graph: too large to allocate"),
    # a graph file declares at most graph.MAX_FILE_VERTICES vertices
    (["certify", "--problem", "ic", "--set=0", "--input", "ten-million.graph"], 4,
     "cannot load {dir}/ten-million.graph: too large to allocate"),
    # and so does a generated family, refused from its parameters before
    # anything is built (interval-ic would ask for k(k+1)/2 intervals)
    (["generate", "--family", "interval-ic", "--k", "100000", "--out", "fam"], 4,
     "error: cap exceeded interval-ic has at least 5000050000 vertices, above the cap 65536"),
    (["generate", "--family", "perm-md", "--k", "1000", "--d", "1000", "--out", "fam"], 4,
     "error: cap exceeded perm-md has at least 499500 vertices, above the cap 65536"),
    (["compile-model", "--input", "missing.graph"], 3,
     "cannot read {dir}/missing.graph: "
     "[Errno 2] No such file or directory: '{dir}/missing.graph'"),
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
            (workdir / f"negative.{ext}").write_text(f"{header} -3\n")
        (workdir / "overflow.graph").write_text(f"graph {10**20}\n")
        (workdir / "ten-million.graph").write_text("graph 10000000\n")
        (workdir / "prefix.graph").write_text("graphite 2\n")
        (workdir / "prefix.intervals").write_text("intervalsx 1\n0 0 1\n")
        (workdir / "prefix.perm").write_text("permutations 1\n0 0 0\n")
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

    def test_out_file_matches_stdout(self, workdir, capsys):
        argv = ["compile-model", "--input", workdir / "c4.cotree"]
        _, out, _ = run_cli(argv, capsys)
        assert run_cli(argv + ["--out", workdir / "c4.graph"], capsys) == (0, "", "")
        assert (workdir / "c4.graph").read_text() == out

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
        args = ["solve", "--problem", "ic", "--input", workdir / "p5.graph"]
        r1 = run_child(args, subprocess.PIPE)
        r2 = run_child(args, subprocess.PIPE)
        assert r1.returncode == 0 and r1.stdout == r2.stdout


def run_child(args, stdout):
    """The command run as its own process, writing stdout to ``stdout``; the
    child imports the same package as this test, installed or not."""
    src = str(Path(idcodes.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    cmd = [sys.executable, "-m", "idcodes.cli", *map(str, args)]
    return subprocess.run(cmd, stdout=stdout, stderr=subprocess.PIPE, env=env)


class TestStdoutFailures:
    """A failed write to stdout ends in exit 3 and one stderr line, as a file
    that cannot be written does, not in a traceback."""

    @staticmethod
    def _line(code):
        return [f"cannot write stdout: [Errno {code}] {os.strerror(code)}"]

    def test_closed_pipe(self, workdir):
        read, write = os.pipe()
        os.close(read)  # no reader: every write to the pipe fails
        try:
            r = run_child(["generate", "--family", "unit-old", "--k", 3, "--out", workdir / "u"], write)
        finally:
            os.close(write)
        assert (r.returncode, r.stderr.decode().splitlines()) == (3, self._line(errno.EPIPE))
        assert (workdir / "u.intervals").is_file() and (workdir / "u.manifest").is_file()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_device(self):
        with open("/dev/full", "wb") as full:
            r = run_child(["bounds", "--class", "interval", "--kind", "ic", "--k", 4], full)
        assert (r.returncode, r.stderr.decode().splitlines()) == (3, self._line(errno.ENOSPC))


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


def argparse_vars(argv):
    """vars() of the full parser's namespace for argv, or None if it exits."""
    try:
        return vars(build_parser().parse_args(argv))
    except SystemExit:
        return None


# Values a flag may be given besides its well-formed ones: ones its type or
# choices refuse, and ones argparse reads as a negative number, a flag, help
# or the end of the flags.
ODD_VALUES = ["", "x", "-1", "-x", "--", "-h", "0,1", " 7"]
# Tokens only argparse reads: help, the end of the flags and a stray
# positional.  The row's own flags are added to these, which repeats a flag
# or takes another flag's value.
ODD_TOKENS = ["-h", "--help", "--", "stray"]


def subcommand_argv(data, name, arguments):
    """An argv for one subcommand: its required flags and some of the others
    in any order, each flag spelt in full, abbreviated or with "=", its value
    well formed or odd, and now and then an odd token put in.  About one in
    five is well formed."""
    argv = [name]
    for flags, options in data.draw(st.permutations(arguments)):
        if not options.get("required") and data.draw(st.booleans()):
            continue
        flag = data.draw(st.sampled_from(flags))
        if options.get("action") == "store_true":
            argv.append(flag)
            continue
        good = [str(c) for c in options.get("choices", ())] or (
            ["4", "12"] if "type" in options else ["in.graph", "0,1", ""])
        odd = data.draw(st.integers(0, 3)) == 0
        value = data.draw(st.sampled_from(ODD_VALUES if odd else good))
        spelling = data.draw(st.integers(0, 7))
        if spelling == 0:
            argv.append(f"{flag}={value}")
        else:
            argv += [flag[:-1] if spelling == 1 and len(flag) > 4 else flag, value]
    if data.draw(st.integers(0, 3)) == 0:
        odd = ODD_TOKENS + [flag for flags, _ in arguments for flag in flags]
        argv.insert(data.draw(st.integers(1, len(argv))), data.draw(st.sampled_from(odd)))
    return argv


class TestReadArgs:
    @pytest.mark.parametrize("row", _COMMANDS, ids=lambda row: row[0])
    @settings(max_examples=250, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_never_disagrees_with_argparse(self, row, data):
        argv = subcommand_argv(data, row[0], row[3]())
        args = read_args(argv)
        if args is not None:
            assert vars(args) == argparse_vars(argv)

    # One argv of each shape bench/workloads.py sends, then the spellings of
    # the other subcommands and of --k-variant.
    WELL_FORMED = [
        ["solve", "--problem", "ld", "--input", "m.intervals"],
        ["solve", "--problem", "sep-id", "--input", "m.cotree", "--cap", "12"],
        ["certify", "--problem", "ic", "--input", "m.perm", "--set", ""],
        ["certify", "--problem", "md", "--input", "m.intervals", "--set", "0,3,5"],
        ["generate", "--family", "interval-ic", "--k", "5", "--out", "m"],
        ["generate", "--family", "bipperm-md", "--k", "4", "--d", "3", "--out", "m"],
        ["generate", "--family", "cograph-id", "--n", "12", "--variant", "2", "--out", "m"],
        ["cograph", "--problem", "ld", "--cotree", "m.cotree"],
        ["cograph", "--problem", "ic", "--witness", "--cotree", "m.cotree"],
        ["generate", "--family", "cograph-ld", "--n", "12", "--k-variant", "3", "--out", "m"],
        ["verify", "--problem", "rs", "--input", "m.graph", "--set", "0,1"],
        ["bounds", "--class", "interval", "--kind", "ic", "--k", "4"],
        ["bounds", "--kind", "md", "--k", "2", "--d", "3", "--class", "unit-interval"],
        ["compile-model", "--input", "m.cotree"],
        ["compile-model", "--input", "m.cotree", "--out", "m.graph"],
    ]

    @pytest.mark.parametrize("argv", WELL_FORMED, ids=" ".join)
    def test_reads_every_benchmark_shape(self, argv):
        args = read_args(argv)
        assert args is not None
        assert vars(args) == argparse_vars(argv)
