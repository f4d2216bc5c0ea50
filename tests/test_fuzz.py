"""Property-based fuzz of model files through the command line.

Valid cotree texts, and graph texts of small cographs plus the path P4
(not a cograph), are mutated (tokens dropped, duplicated or swapped, labels
changed, junk inserted, raw bytes among it) and fed to ``idcodes cograph``,
which parses, recognises a graph as a cograph, folds and reads the witness
off the fold.  Mutated interval and permutation texts go through
``idcodes cograph``, ``idcodes certify --problem md`` and
``idcodes compile-model``.  Every run must end in a documented exit code,
0, 2, 3 or 4, without an exception escaping ``cli.main``.  Examples are
derandomised, so a run is repeatable.
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
from idcodes.graph import path_graph
from idcodes.models import (
    IntervalModel,
    PermutationModel,
    all_cotrees,
    cotree_to_graph,
    format_cotree,
    format_interval_model,
    format_permutation_model,
    random_cotree,
)

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


def _exit_code(text: str, argv: list[str]) -> int:
    """Exit code of ``main(argv + [path])`` on a file holding ``text``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.model")
        with open(path, "wb") as fh:
            fh.write(text.encode("utf-8", "surrogateescape"))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + [path])
    assert "Traceback" not in err.getvalue()
    return code


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
