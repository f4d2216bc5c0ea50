"""Command-line front end.

Exit codes: 0 success, 2 domain error (twins, disconnected input, vertex out
of range, failed verification, bound violation), 3 input parse error or a
file that cannot be read or written, 4 resource cap exceeded.
All output is line-oriented and deterministic so shell harnesses can diff it.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from . import bounds, cograph, exact, generators, models, verify
from .graph import Disconnected, Graph, GraphError, GraphFormatError, InvalidVertex
from .models import (
    Cotree,
    IntervalModel,
    ModelError,
    ModelFormatError,
    NotCograph,
    PermutationModel,
    cograph_recognize,
    model_to_graph,
    read_model,
)
from .verify import ProblemKind

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_PARSE = 3
EXIT_RESOURCE = 4

_PROBLEMS = {
    "ic": ProblemKind.IC,
    "ld": ProblemKind.LD,
    "old": ProblemKind.OLD,
    "md": ProblemKind.RS,
    "rs": ProblemKind.RS,
    "sep-id": ProblemKind.SEP_ID,
    "sep-ld": ProblemKind.SEP_LD,
    "sep-old": ProblemKind.SEP_OLD,
}


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


# The errors a subcommand may raise, matched in this order: exception types,
# the stderr line as a template of the exception, and the exit code.
_ERRORS = (
    ((bounds.VerifierFailed,), "error: VerifierFailed {}", EXIT_DOMAIN),
    ((exact.TwinsPresent,), "error: twins {}", EXIT_DOMAIN),
    ((exact.OpenTwinsPresent,), "error: open twins {}", EXIT_DOMAIN),
    ((Disconnected,), "error: disconnected {}", EXIT_DOMAIN),
    ((NotCograph,), "error: not a cograph: {}", EXIT_DOMAIN),
    ((InvalidVertex,), "error: vertex out of range", EXIT_DOMAIN),
    ((exact.CapExceeded,), "error: cap exceeded {}", EXIT_RESOURCE),
    ((exact.NoSolution, generators.GeneratorError, bounds.BoundsError, ModelError, GraphError),
     "error: {}", EXIT_DOMAIN),
)
_ERROR_TYPES = tuple(t for types, _line, _code in _ERRORS for t in types)


def _load_model(path: str):
    try:
        return read_model(path)
    except (ModelFormatError, GraphFormatError) as exc:
        raise CliError(f"parse error: {exc}", EXIT_PARSE)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_PARSE)
    except (ModelError, GraphError) as exc:
        raise CliError(f"invalid model: {exc}", EXIT_DOMAIN)
    except (MemoryError, OverflowError):
        raise CliError(f"cannot load {path}: too large to allocate", EXIT_RESOURCE)


@contextlib.contextmanager
def _writing(path: str):
    """Report a failed write of ``path`` as exit 3, like a failed read."""
    try:
        yield
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}", EXIT_PARSE)


def _parse_set(text: str) -> frozenset[int]:
    if text.strip() == "":
        return frozenset()
    try:
        return frozenset(int(tok) for tok in text.split(","))
    except ValueError:
        raise CliError(f"bad vertex list: {text!r}", EXIT_PARSE)


def _format_set(s) -> str:
    return ",".join(str(v) for v in sorted(s))


def _cmd_solve(args) -> int:
    kind = _PROBLEMS[args.problem]
    g = model_to_graph(_load_model(args.input))
    result = exact.min_set(g, kind, cap=args.cap)
    print(f"k={result.size} witness={_format_set(result.witness)}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    kind = _PROBLEMS[args.problem]
    g = model_to_graph(_load_model(args.input))
    s = _parse_set(args.set)
    if verify.check(g, s, kind):
        print("ok")
        return EXIT_OK
    if kind is not ProblemKind.RS:
        pair = verify.separation_violation(g, s, kind)
        if pair is not None:
            print(f"fail pair={pair[0]},{pair[1]}")
            return EXIT_DOMAIN
    print("fail")
    return EXIT_DOMAIN


def _cmd_cograph(args) -> int:
    model = _load_model(args.cotree)
    tree = model if isinstance(model, Cotree) else cograph_recognize(model_to_graph(model))
    summary, value, w = cograph.solve_cotree(tree, _PROBLEMS[args.problem], args.witness)
    line = f"k={value} emp={str(summary.emp).lower()} univ={str(summary.univ).lower()} sep={summary.k}"
    if w is not None:
        line += f" witness={_format_set(w)}"
    print(line)
    return EXIT_OK


def _cmd_generate(args) -> int:
    params = {
        p: getattr(args, p) for p in ("k", "d", "n", "variant") if getattr(args, p) is not None
    }
    inst = generators.generate(args.family, **params)
    ext = {
        Graph: ".graph",
        IntervalModel: ".intervals",
        PermutationModel: ".perm",
    }.get(type(inst.model), ".cotree")
    model_path = args.out + ext
    with _writing(model_path):
        models.write_model(inst.model, model_path)
    manifest_path = args.out + ".manifest"
    with _writing(manifest_path), open(manifest_path, "w", encoding="utf-8") as fh:
        fh.write(inst.manifest_line() + "\n")
    print(inst.manifest_line())
    print(f"wrote {model_path} and {manifest_path}")
    return EXIT_OK


def _cmd_certify(args) -> int:
    kind = _PROBLEMS[args.problem]
    model = _load_model(args.input)
    report = bounds.certify(model, _parse_set(args.set), kind)
    word = "satisfied" if report.satisfied else "violated"
    print(f"{word} slack={report.slack} max_n={report.max_n} bound={report.theorem_label}")
    return EXIT_OK if report.satisfied else EXIT_DOMAIN


def _cmd_bounds(args) -> int:
    cls = bounds.GraphClass(args.graph_class)
    kind = _PROBLEMS[args.kind]
    max_n = bounds.max_order(bounds.BoundQuery(cls, kind, args.k, args.d))
    label = bounds.bound_label(cls, kind)
    d = str(args.d) if args.d is not None else "-"
    print(f"{cls.value} {args.kind} {args.k} {d} {max_n} {label}")
    return EXIT_OK


def _cmd_compile_model(args) -> int:
    g = model_to_graph(_load_model(args.input))
    text = g.to_text()
    if args.out:
        with _writing(args.out), open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# One row per subcommand: name, help, handler and its arguments as
# (flags, add_argument keywords) pairs.
_COMMANDS = (
    ("solve", "exact minimum solution by enumeration", _cmd_solve, (
        (("--problem",), dict(required=True, choices=sorted(_PROBLEMS))),
        (("--input",), dict(required=True)),
        (("--cap",), dict(type=int, default=exact.DEFAULT_VERTEX_CAP)),
    )),
    ("verify", "check a set against a problem kind", _cmd_verify, (
        (("--problem",), dict(required=True, choices=sorted(_PROBLEMS))),
        (("--input",), dict(required=True)),
        (("--set",), dict(required=True)),
    )),
    ("cograph", "cotree dynamic program", _cmd_cograph, (
        (("--problem",), dict(required=True, choices=["ic", "ld", "md"])),
        (("--cotree",), dict(required=True)),
        (("--witness",), dict(action="store_true")),
    )),
    ("generate", "emit an extremal family instance", _cmd_generate, (
        (("--family",), dict(required=True, choices=sorted(generators.FAMILIES))),
        (("--k",), dict(type=int)),
        (("--d",), dict(type=int)),
        (("--n",), dict(type=int)),
        (("--variant", "--k-variant"), dict(type=int, dest="variant")),
        (("--out",), dict(required=True)),
    )),
    ("certify", "verify a solution and check the class bound", _cmd_certify, (
        (("--input",), dict(required=True)),
        (("--set",), dict(required=True)),
        (("--problem",), dict(required=True, choices=sorted(_PROBLEMS))),
    )),
    ("bounds", "print one bound-table row", _cmd_bounds, (
        (("--class",), dict(dest="graph_class", required=True,
                            choices=[c.value for c in bounds.GraphClass])),
        (("--kind",), dict(required=True, choices=["ic", "ld", "old", "md"])),
        (("--k",), dict(type=int, required=True)),
        (("--d",), dict(type=int)),
    )),
    ("compile-model", "compile any model file to graph text", _cmd_compile_model, (
        (("--input",), dict(required=True)),
        (("--out",), {}),
    )),
)
_COMMAND_NAMES = tuple(row[0] for row in _COMMANDS)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``idcodes`` parser, with every subcommand or only ``command``'s.

    ``main`` passes the subcommand that its first argument names, so one call
    builds one subparser.  Help, a missing or an unknown command get the whole
    tree.  The single-subcommand parser prints the same texts: its usage line
    names every subcommand through the metavar, and every other text comes
    from the subparser, which is built the same either way.
    """
    parser = argparse.ArgumentParser(
        prog="idcodes",
        description="Identification problems on graphs: solvers, models, bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    if command is not None:
        sub.metavar = "{" + ",".join(_COMMAND_NAMES) + "}"
    for name, help_text, fn, arguments in _COMMANDS:
        if command in (None, name):
            p = sub.add_parser(name, help=help_text)
            for flags, options in arguments:
                p.add_argument(*flags, **options)
            p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _COMMAND_NAMES else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except _ERROR_TYPES as exc:
        line, code = next((t, c) for types, t, c in _ERRORS if isinstance(exc, types))
        print(line.format(exc), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
