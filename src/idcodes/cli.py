"""Command-line front end.

Exit codes: 0 success, 2 domain error (twins, disconnected input, failed
verification, bound violation), 3 input parse error, 4 resource cap exceeded.
All output is line-oriented and deterministic so shell harnesses can diff it.
"""

from __future__ import annotations

import argparse
import sys

from . import bounds, cograph, exact, generators, models, verify
from .graph import Disconnected, Graph, GraphError, GraphFormatError
from .models import (
    CotreeNode,
    IntervalModel,
    Leaf,
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


def _load_model(path: str):
    try:
        return read_model(path)
    except (ModelFormatError, GraphFormatError) as exc:
        raise CliError(f"parse error: {exc}", EXIT_PARSE)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_PARSE)
    except (ModelError, GraphError) as exc:
        raise CliError(f"invalid model: {exc}", EXIT_DOMAIN)


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
    try:
        result = exact.min_set(g, kind, cap=args.cap)
    except exact.TwinsPresent as exc:
        raise CliError(f"error: twins {exc}", EXIT_DOMAIN)
    except exact.OpenTwinsPresent as exc:
        raise CliError(f"error: open twins {exc}", EXIT_DOMAIN)
    except exact.NoSolution as exc:
        raise CliError(f"error: {exc}", EXIT_DOMAIN)
    except Disconnected as exc:
        raise CliError(f"error: disconnected {exc}", EXIT_DOMAIN)
    except exact.CapExceeded as exc:
        raise CliError(f"error: cap exceeded {exc}", EXIT_RESOURCE)
    print(f"k={result.size} witness={_format_set(result.witness)}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    kind = _PROBLEMS[args.problem]
    g = model_to_graph(_load_model(args.input))
    s = _parse_set(args.set)
    if any(v < 0 or v >= g.n for v in s):
        raise CliError("error: vertex out of range", EXIT_DOMAIN)
    try:
        ok = verify.check(g, s, kind)
    except Disconnected as exc:
        raise CliError(f"error: disconnected {exc}", EXIT_DOMAIN)
    if ok:
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
    if isinstance(model, (Leaf, CotreeNode)):
        tree = model
    else:
        try:
            tree = cograph_recognize(model_to_graph(model))
        except NotCograph as exc:
            raise CliError(f"error: not a cograph: {exc}", EXIT_DOMAIN)
    try:
        if args.problem == "ic":
            summary = cograph.sep_id_dp(tree)
            value = summary.k + (1 if summary.emp else 0)
            witness_kind = ProblemKind.IC
        elif args.problem == "ld":
            summary = cograph.sep_ld_dp(tree)
            value = summary.k + (1 if summary.emp else 0)
            witness_kind = ProblemKind.LD
        else:  # md
            summary = cograph.sep_ld_dp(tree)
            if isinstance(tree, CotreeNode) and tree.kind != models.JOIN:
                raise Disconnected("cotree root is a union")
            value = summary.k
            witness_kind = ProblemKind.RS
    except exact.TwinsPresent as exc:
        raise CliError(f"error: twins {exc}", EXIT_DOMAIN)
    except Disconnected as exc:
        raise CliError(f"error: disconnected {exc}", EXIT_DOMAIN)
    line = f"k={value} emp={str(summary.emp).lower()} univ={str(summary.univ).lower()} sep={summary.k}"
    if args.witness:
        w = cograph.witness_cograph(tree, witness_kind)
        line += f" witness={_format_set(w)}"
    print(line)
    return EXIT_OK


def _cmd_generate(args) -> int:
    params = {}
    if args.k is not None:
        params["k"] = args.k
    if args.d is not None:
        params["d"] = args.d
    if args.n is not None:
        params["n"] = args.n
    if args.variant is not None:
        params["variant"] = args.variant
    try:
        inst = generators.generate(args.family, **params)
    except generators.GeneratorError as exc:
        raise CliError(f"error: {exc}", EXIT_DOMAIN)
    ext = {
        Graph: ".graph",
        IntervalModel: ".intervals",
        PermutationModel: ".perm",
    }.get(type(inst.model), ".cotree")
    model_path = args.out + ext
    models.write_model(inst.model, model_path)
    manifest_path = args.out + ".manifest"
    with open(manifest_path, "w", encoding="utf-8") as fh:
        fh.write(inst.manifest_line() + "\n")
    print(inst.manifest_line())
    print(f"wrote {model_path} and {manifest_path}")
    return EXIT_OK


def _cmd_certify(args) -> int:
    kind = _PROBLEMS[args.problem]
    model = _load_model(args.input)
    s = _parse_set(args.set)
    try:
        report = bounds.certify(model, s, kind)
    except bounds.VerifierFailed as exc:
        raise CliError(f"error: VerifierFailed {exc}", EXIT_DOMAIN)
    except (bounds.UnsupportedCombination, bounds.HypothesisNotMet, bounds.MissingDiameter) as exc:
        raise CliError(f"error: {exc}", EXIT_DOMAIN)
    except Disconnected as exc:
        raise CliError(f"error: disconnected {exc}", EXIT_DOMAIN)
    word = "satisfied" if report.satisfied else "violated"
    print(f"{word} slack={report.slack} max_n={report.max_n} bound={report.theorem_label}")
    return EXIT_OK if report.satisfied else EXIT_DOMAIN


def _cmd_bounds(args) -> int:
    cls = GraphClassArg(args.graph_class)
    kind = _PROBLEMS[args.kind]
    try:
        q = bounds.BoundQuery(cls, kind, args.k, args.d)
        max_n = bounds.max_order(q)
        label = bounds.bound_label(cls, kind)
    except (bounds.UnsupportedCombination, bounds.HypothesisNotMet, bounds.MissingDiameter) as exc:
        raise CliError(f"error: {exc}", EXIT_DOMAIN)
    d = str(args.d) if args.d is not None else "-"
    print(f"{cls.value} {args.kind} {args.k} {d} {max_n} {label}")
    return EXIT_OK


def _cmd_compile_model(args) -> int:
    g = model_to_graph(_load_model(args.input))
    text = g.to_text()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def GraphClassArg(name: str) -> bounds.GraphClass:
    for cls in bounds.GraphClass:
        if cls.value == name:
            return cls
    raise CliError(f"unknown graph class {name!r}", EXIT_PARSE)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idcodes",
        description="Identification problems on graphs: solvers, models, bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="exact minimum solution by enumeration")
    p.add_argument("--problem", required=True, choices=sorted(_PROBLEMS))
    p.add_argument("--input", required=True)
    p.add_argument("--cap", type=int, default=exact.DEFAULT_VERTEX_CAP)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("verify", help="check a set against a problem kind")
    p.add_argument("--problem", required=True, choices=sorted(_PROBLEMS))
    p.add_argument("--input", required=True)
    p.add_argument("--set", required=True)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("cograph", help="cotree dynamic program")
    p.add_argument("--problem", required=True, choices=["ic", "ld", "md"])
    p.add_argument("--cotree", required=True)
    p.add_argument("--witness", action="store_true")
    p.set_defaults(fn=_cmd_cograph)

    p = sub.add_parser("generate", help="emit an extremal family instance")
    p.add_argument("--family", required=True, choices=sorted(generators.FAMILIES))
    p.add_argument("--k", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--variant", "--k-variant", type=int, dest="variant")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("certify", help="verify a solution and check the class bound")
    p.add_argument("--input", required=True)
    p.add_argument("--set", required=True)
    p.add_argument("--problem", required=True, choices=sorted(_PROBLEMS))
    p.set_defaults(fn=_cmd_certify)

    p = sub.add_parser("bounds", help="print one bound-table row")
    p.add_argument("--class", dest="graph_class", required=True,
                   choices=[c.value for c in bounds.GraphClass])
    p.add_argument("--kind", required=True, choices=["ic", "ld", "old", "md"])
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int)
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("compile-model", help="compile any model file to graph text")
    p.add_argument("--input", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_compile_model)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except cograph.NotValidated as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
