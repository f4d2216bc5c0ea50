"""Property-based fuzz of model files through the command line.

Valid cotree texts, and graph texts of small cographs plus the path P4
(not a cograph), are mutated (tokens dropped, duplicated or swapped, labels
changed, junk inserted, raw bytes among it) and fed to ``idcodes cograph``,
which parses, recognises a graph as a cograph, folds and reads the witness
off the fold.  Mutated interval and permutation texts go through
``idcodes cograph``, ``idcodes certify --problem md`` and
``idcodes compile-model``.  Mutated texts of all three kinds go through
``idcodes solve --cap 8`` and ``idcodes verify`` for every problem, and
``idcodes generate`` runs every family with integer parameters in -2..8.
Every run must end in a documented exit code, 0, 2, 3 or 4, without an
exception escaping ``cli.main``.  The cotree parser and the search for a
model file's header line are also compared with reference versions on the
mutated texts.  Examples are derandomised, so a run is repeatable.
"""

import contextlib
import io
import os
import random
import re
import tempfile
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from idcodes.cli import main
from idcodes.generators import FAMILIES
from idcodes.models import (
    _TEXT_KIND,
    Cotree,
    IntervalModel,
    MalformedCotree,
    ModelFormatError,
    PermutationModel,
    _first_line,
    cotree_to_graph,
    format_cotree,
    format_interval_model,
    format_permutation_model,
    parse_cotree,
)

from cotree_reference import all_cotrees, random_cotree
from graph_reference import path_graph

SEEDS = [format_cotree(t) for n in range(1, 6) for t in all_cotrees(n)] + [
    format_cotree(random_cotree(n, random.Random(n))) for n in (8, 12, 20)
]
GRAPH_SEEDS = [cotree_to_graph(t).to_text() for n in range(1, 6) for t in all_cotrees(n)] + [
    cotree_to_graph(random_cotree(n, random.Random(n))).to_text() for n in (8, 12)
] + [path_graph(4).to_text()]
JUNK = ["(", ")", "U", "J", "X", "-1", "a", "#", "0x1", "1.5", "((", "\n", "graph", "e"]


def _random_rows(n: int, rng: random.Random) -> list[str]:
    intervals = []
    for _ in range(n):
        a = Fraction(rng.randint(0, 3 * n), rng.randint(1, 2))
        intervals.append((a, a + rng.choice([1, Fraction(1, 2), n])))
    segments = zip(rng.sample(range(n), n), rng.sample(range(n), n))
    return [format_interval_model(IntervalModel(intervals)),
            format_permutation_model(PermutationModel(segments))]


ROW_SEEDS = [text for n in range(1, 7) for text in _random_rows(n, random.Random(n))]
ROW_JUNK = JUNK + ["intervals", "permutation", "1/2", "1/0", "2/-3", "0"]
ROW_COMMANDS = [
    ["cograph", "--problem", "ic", "--cotree"],
    ["cograph", "--problem", "md", "--witness", "--cotree"],
    ["certify", "--problem", "md", "--set=", "--input"],
    ["certify", "--problem", "md", "--set=0", "--input"],
    ["certify", "--problem", "md", "--set=0,1", "--input"],
    ["compile-model", "--input"],
]


def _mutate(draw, tokens: list[str], junk_tokens: list[str] = JUNK) -> str:
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(["drop", "duplicate", "swap", "label", "junk"]))
        i = draw(st.integers(0, len(tokens)))
        if op == "junk":
            # raw bytes ride in the text as surrogate escapes
            junk = (
                st.sampled_from(junk_tokens)
                | st.text(st.characters(blacklist_categories=("Cs",)), max_size=3)
                | st.binary(min_size=1, max_size=3).map(
                    lambda b: b.decode("utf-8", "surrogateescape")
                )
            )
            tokens.insert(i, draw(junk))
        elif i < len(tokens):
            if op == "drop":
                del tokens[i]
            elif op == "duplicate":
                tokens.insert(i, tokens[i])
            elif op == "swap":
                j = draw(st.integers(0, len(tokens) - 1))
                tokens[i], tokens[j] = tokens[j], tokens[i]
            else:
                tokens[i] = str(draw(st.integers(-3, 25)))
    return " ".join(tokens)


@st.composite
def mutated_cotree(draw) -> str:
    text = draw(st.sampled_from(SEEDS))
    return _mutate(draw, text.replace("(", " ( ").replace(")", " ) ").split())


@st.composite
def mutated_graph(draw) -> str:
    # line breaks are tokens too, so a mutation can split or merge lines
    return _mutate(draw, re.findall(r"\S+|\n", draw(st.sampled_from(GRAPH_SEEDS))))


@st.composite
def mutated_rows(draw) -> str:
    tokens = re.findall(r"\S+|\n", draw(st.sampled_from(ROW_SEEDS)))
    return _mutate(draw, tokens, ROW_JUNK)


@st.composite
def solve_or_verify(draw) -> list[str]:
    """``solve --cap 8`` or ``verify`` with a set of small, possibly out of
    range vertices, for any problem; the model path comes last."""
    problem = draw(st.sampled_from(["ic", "ld", "old", "md", "rs", "sep-id", "sep-ld", "sep-old"]))
    if draw(st.booleans()):
        return ["solve", "--problem", problem, "--cap", "8", "--input"]
    vertices = draw(st.lists(st.integers(-1, 9), max_size=4))
    return ["verify", "--problem", problem, "--set=" + ",".join(map(str, vertices)), "--input"]


def _run(argv: list[str]) -> int:
    """Exit code of ``main(argv)``, with no traceback on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert "Traceback" not in err.getvalue()
    return code


def _exit_code(text: str, argv: list[str]) -> int:
    """Exit code of ``main(argv + [path])`` on a file holding ``text``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.model")
        with open(path, "wb") as fh:
            fh.write(text.encode("utf-8", "surrogateescape"))
        return _run(argv + [path])


def _cograph_exit_code(text: str, problem: str, witness: bool) -> int:
    argv = ["cograph", "--problem", problem] + (["--witness"] if witness else [])
    return _exit_code(text, argv + ["--cotree"])


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(
    text=mutated_cotree(),
    problem=st.sampled_from(["ic", "ld", "md"]),
    witness=st.booleans(),
)
def test_cotree_files_end_in_documented_exit_codes(text, problem, witness):
    assert _cograph_exit_code(text, problem, witness) in (0, 2, 3, 4)


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(
    text=mutated_graph(),
    problem=st.sampled_from(["ic", "ld", "md"]),
    witness=st.booleans(),
)
def test_graph_files_end_in_documented_exit_codes(text, problem, witness):
    assert _cograph_exit_code(text, problem, witness) in (0, 2, 3, 4)


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(text=mutated_rows(), argv=st.sampled_from(ROW_COMMANDS))
def test_interval_and_permutation_files_end_in_documented_exit_codes(text, argv):
    assert _exit_code(text, argv) in (0, 2, 3, 4)


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(text=mutated_cotree() | mutated_graph() | mutated_rows(), argv=solve_or_verify())
def test_solve_and_verify_end_in_documented_exit_codes(text, argv):
    assert _exit_code(text, argv) in (0, 2, 3, 4)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    params=st.fixed_dictionaries(
        {p: st.none() | st.integers(-2, 8) for p in ("k", "d", "n", "variant")}
    ),
)
def test_generate_ends_in_documented_exit_codes(family, params):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["generate", "--family", family, "--out", os.path.join(tmp, "instance")]
        argv += [f"--{p}={v}" for p, v in params.items() if v is not None]
        assert _run(argv) in (0, 2, 3, 4)


def _reference_parse_cotree(text: str) -> Cotree:
    """The cotree parser as it was before its token loop kept the innermost
    open node in locals: one list per open node, updated at every token."""
    body = "\n".join(
        ln for ln in text.splitlines() if not ln.lstrip().startswith("#")
    )
    tokens = body.replace("(", " ( ").replace(")", " ) ").split()
    if not tokens:
        raise ModelFormatError("unexpected end of cotree expression")
    codes: list[int] = []
    emit = codes.append
    open_nodes: list[list] = []
    negative = False
    pos, end = 0, len(tokens)
    while True:
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            kind = _TEXT_KIND.get(tokens[pos]) if pos < end else None
            if kind is None:
                raise ModelFormatError("expected U or J after '('")
            pos += 1
            open_nodes.append([kind, 0, 0, bool(open_nodes) and open_nodes[-1][0] == kind])
        else:
            if tok == ")":
                if not open_nodes:
                    raise ModelFormatError("unexpected ')'")
                kind, written, arity, merged = open_nodes.pop()
                if written < 2:
                    raise ModelFormatError("cotree operator needs at least 2 children")
                if merged:
                    gain = arity
                else:
                    emit(~(arity << 1 | kind))
                    gain = 1
            else:
                try:
                    v = int(tok)
                except ValueError:
                    raise ModelFormatError(f"bad cotree token: {tok!r}") from None
                if v < 0:
                    negative = True
                emit(v)
                gain = 1
            if not open_nodes:
                break
            top = open_nodes[-1]
            top[1] += 1
            top[2] += gain
        if pos >= end:
            raise ModelFormatError("missing ')'")
    if pos != end:
        raise ModelFormatError("trailing tokens after cotree expression")
    if negative:
        raise MalformedCotree("leaf labels must be exactly 0..n-1")
    return Cotree(codes)


def _outcome(parse, text: str):
    """The codes parse gives for text, or the class and message it raises."""
    try:
        return parse(text).codes
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=3000, deadline=None, derandomize=True, database=None)
@given(text=mutated_cotree())
def test_cotree_parser_matches_reference(text):
    assert _outcome(parse_cotree, text) == _outcome(_reference_parse_cotree, text)


# Every line boundary of str.splitlines; \r\n is one boundary.
SEPARATORS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
              "\u2028", "\u2029"]


def _reference_first_line(text: str) -> str:
    return next((ln for ln in map(str.strip, text.splitlines()) if ln and ln[0] != "#"), "")


@st.composite
def separated_model_text(draw) -> str:
    """A mutated model text with its line breaks drawn from SEPARATORS, after
    blank and comment lines that may end near the 4,096-character prefix that
    ``_first_line`` searches first."""
    text = draw(mutated_cotree() | mutated_graph() | mutated_rows())
    head = draw(st.lists(
        st.sampled_from(["", " \t", "#", "  # note"]) | st.integers(4060, 4100).map(lambda k: "#" * k),
        max_size=3,
    ))
    lines = head + text.split("\n")
    seps = draw(st.lists(st.sampled_from(SEPARATORS), min_size=len(lines), max_size=len(lines)))
    return "".join(line + sep for line, sep in zip(lines, seps))


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(text=separated_model_text())
def test_first_line_matches_splitting_the_whole_text(text):
    assert _first_line(text) == _reference_first_line(text)


def test_first_line_at_the_prefix_cut():
    # the header line starts or ends at every offset around the cut, after a
    # comment line, with each separator
    for sep in SEPARATORS:
        for width in range(4080, 4100):
            for text in ("#" * width + sep + "graph 2" + sep + "e 0 1",
                         " " * width + "graph 2" + sep + "e 0 1",
                         "#" * width + sep + sep + "(U 0 1)"):
                assert _first_line(text) == _reference_first_line(text), (sep, width)
