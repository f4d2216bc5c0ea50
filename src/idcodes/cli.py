"""Command-line front end.

Exit codes: 0 success, 2 domain error (twins, disconnected input, vertex out
of range, failed verification, bound violation), 3 input parse error or a
file that cannot be read or written, 4 resource cap exceeded.
All output is line-oriented and deterministic so shell harnesses can diff it.

A well-formed call is read straight from the subcommand table; argparse is
imported and built only for help, errors and the other spellings it accepts,
so every help, usage and error text is argparse's.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
from types import SimpleNamespace

from . import cograph, exact, models, verify
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

_PROBLEMS = {k.value: k for k in ProblemKind} | {"md": ProblemKind.RS}


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _module(name: str):
    """The package's module ``name``, imported on first use: ``bounds`` and
    ``generators`` are loaded only by the subcommands that run them."""
    return importlib.import_module(f"{__package__}.{name}")


# The errors a subcommand may raise, matched in this order: exception types,
# the stderr line as a template of the exception, and the exit code.  A type
# written "module.Name" is that module's, looked up only once the module is
# loaded: until then none of its errors can have been raised.
_ERRORS = (
    (("bounds.VerifierFailed",), "error: VerifierFailed {}", EXIT_DOMAIN),
    ((exact.TwinsPresent,), "error: twins {}", EXIT_DOMAIN),
    ((exact.OpenTwinsPresent,), "error: open twins {}", EXIT_DOMAIN),
    ((Disconnected,), "error: disconnected {}", EXIT_DOMAIN),
    ((NotCograph,), "error: not a cograph: {}", EXIT_DOMAIN),
    ((InvalidVertex,), "error: vertex out of range", EXIT_DOMAIN),
    ((exact.CapExceeded,), "error: cap exceeded {}", EXIT_RESOURCE),
    ((exact.NoSolution, "generators.GeneratorError", "bounds.BoundsError", ModelError, GraphError),
     "error: {}", EXIT_DOMAIN),
)


def _raised_types(types: tuple) -> tuple:
    """The classes of one _ERRORS row that can have been raised."""
    found = []
    for t in types:
        if isinstance(t, str):
            module, name = t.split(".")
            module = sys.modules.get(f"{__package__}.{module}")
            if module is None:
                continue
            t = getattr(module, name)
        found.append(t)
    return tuple(found)


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
    inst = _module("generators").generate(args.family, **params)
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
    report = _module("bounds").certify(model, _parse_set(args.set), kind)
    word = "satisfied" if report.satisfied else "violated"
    print(f"{word} slack={report.slack} max_n={report.max_n} bound={report.theorem_label}")
    return EXIT_OK if report.satisfied else EXIT_DOMAIN


def _cmd_bounds(args) -> int:
    bounds = _module("bounds")
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


# One row per subcommand: name, help, handler and a function giving its
# arguments as (flags, add_argument keywords) pairs, called only when a call
# names the subcommand or needs the whole parser.  The rows are read twice:
# by read_args first, and by build_parser for a call read_args refuses.
_COMMANDS = (
    ("solve", "exact minimum solution by enumeration", _cmd_solve, lambda: (
        (("--problem",), dict(required=True, choices=sorted(_PROBLEMS))),
        (("--input",), dict(required=True)),
        (("--cap",), dict(type=int, default=exact.DEFAULT_VERTEX_CAP)),
    )),
    ("verify", "check a set against a problem kind", _cmd_verify, lambda: (
        (("--problem",), dict(required=True, choices=sorted(_PROBLEMS))),
        (("--input",), dict(required=True)),
        (("--set",), dict(required=True)),
    )),
    ("cograph", "cotree dynamic program", _cmd_cograph, lambda: (
        (("--problem",), dict(required=True, choices=["ic", "ld", "md"])),
        (("--cotree",), dict(required=True)),
        (("--witness",), dict(action="store_true")),
    )),
    ("generate", "emit an extremal family instance", _cmd_generate, lambda: (
        (("--family",), dict(required=True, choices=sorted(_module("generators").FAMILIES))),
        (("--k",), dict(type=int)),
        (("--d",), dict(type=int)),
        (("--n",), dict(type=int)),
        (("--variant", "--k-variant"), dict(type=int, dest="variant")),
        (("--out",), dict(required=True)),
    )),
    ("certify", "verify a solution and check the class bound", _cmd_certify, lambda: (
        (("--input",), dict(required=True)),
        (("--set",), dict(required=True)),
        (("--problem",), dict(required=True, choices=sorted(_PROBLEMS))),
    )),
    ("bounds", "print one bound-table row", _cmd_bounds, lambda: (
        (("--class",), dict(dest="graph_class", required=True,
                            choices=[c.value for c in _module("bounds").GraphClass])),
        (("--kind",), dict(required=True, choices=["ic", "ld", "old", "md"])),
        (("--k",), dict(type=int, required=True)),
        (("--d",), dict(type=int)),
    )),
    ("compile-model", "compile any model file to graph text", _cmd_compile_model, lambda: (
        (("--input",), dict(required=True)),
        (("--out",), {}),
    )),
)
_COMMAND_NAMES = tuple(row[0] for row in _COMMANDS)


# The add_argument keywords read_args understands; a row using any other is
# left to argparse.
_READ_KEYWORDS = frozenset(("required", "choices", "type", "default", "dest", "action"))


def read_args(argv: list[str]):
    """A namespace with the attributes ``build_parser().parse_args(argv)``
    sets, read from ``_COMMANDS`` without argparse, or None unless ``argv`` is
    well formed.

    Well formed means: a subcommand, then each flag spelt out in full at most
    once, a switch without a value, any other flag followed by a value that
    does not start with "-" and that passes the row's type and choices, and
    every required flag present.  Abbreviations, "--flag=value", values
    starting with "-", repeated flags, help, "--", stray positionals and every
    error are left to argparse, which gives them their meaning and texts.
    """
    row = next((row for row in _COMMANDS if argv and argv[0] == row[0]), None)
    if row is None:
        return None
    name, _, fn, arguments = row
    values = {"command": name, "fn": fn}
    actions = {}
    for flags, options in arguments():
        if options.keys() - _READ_KEYWORDS or options.get("action", "store_true") != "store_true":
            return None
        long_flag = next((f for f in flags if f.startswith("--")), flags[0])
        dest = options.get("dest", long_flag.lstrip("-").replace("-", "_"))
        values[dest] = options.get("default", False if "action" in options else None)
        actions.update(dict.fromkeys(flags, (dest, options)))
    seen = set()
    tokens = iter(argv[1:])
    for flag in tokens:
        dest, options = actions.get(flag, (None, None))
        if dest is None or dest in seen:
            return None
        seen.add(dest)
        if "action" in options:
            values[dest] = True
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-"):
            return None
        try:
            value = options.get("type", str)(value)
        except ValueError:
            return None
        if "choices" in options and value not in options["choices"]:
            return None
        values[dest] = value
    if any(options.get("required") and dest not in seen for dest, options in actions.values()):
        return None
    return SimpleNamespace(**values)


def build_parser(command: str | None = None):
    """The ``idcodes`` argparse parser, with every subcommand or only
    ``command``'s: ``main`` builds it only for a call ``read_args`` refuses.

    ``main`` passes the subcommand that its first argument names, so one call
    builds one subparser.  Help, a missing or an unknown command get the whole
    tree.  The single-subcommand parser prints the same texts: its usage line
    names every subcommand through the metavar, and every other text comes
    from the subparser, which is built the same either way.
    """
    import argparse

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
            for flags, options in arguments():
                p.add_argument(*flags, **options)
            p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = read_args(argv)
    if args is None:
        command = argv[0] if argv and argv[0] in _COMMAND_NAMES else None
        args = build_parser(command).parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except Exception as exc:
        for types, line, code in _ERRORS:
            if isinstance(exc, _raised_types(types)):
                print(line.format(exc), file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
