"""The three workloads: how each builds its inputs, gates the program on
small inputs before timing, and checks the answers it timed.

A plan holds the requests the worker runs in every round, in order, and,
for the checks, what the benchmark knows about each input.  Request ids are
unique within a plan; ``size`` and ``key`` pair the requests of size n and
2n that the doubling ratios compare.
"""

from __future__ import annotations

import random
from pathlib import Path

import checks
from checks import Model, brute_min, parse_fields
from inputs import SHAPES, adjacency, format_cotree, graph_text, stats
from worker import SKIPPED, run_request, written_model

PROBLEMS = ("ic", "ld", "md")


def _ok(outs, steps) -> bool:
    return len(outs) == len(steps) and outs[-1][0] == 0


def _cograph_plan(seed, work: Path, label: str, sizes, witness: bool, make_input) -> dict:
    """One request per (shape, input, problem): ``idcodes cograph``.

    ``sizes`` is ((n, inputs per shape), (2n, inputs per shape)).
    ``make_input(shape, size, rng)`` returns (tree, file text).  Without
    ``witness`` only ``ic`` runs on the smaller inputs.
    """
    requests, inputs = [], []
    for shape in SHAPES:
        for size, count in sizes:
            for j in range(count):
                rng = random.Random(f"{label}/{seed}/{shape}/{size}/{j}")
                tree, text = make_input(shape, size, rng)
                n, m, depth = stats(tree)
                path = work / f"{shape}-{size}-{j}.{'graph' if witness else 'cotree'}"
                path.write_text(text)
                problems = PROBLEMS if witness or size == sizes[-1][0] else ("ic",)
                entry = {"n": n, "m": m, "depth": depth, "requests": {},
                         "adj": adjacency(tree, n) if witness else None}
                for problem in problems:
                    argv = ["cograph", "--problem", problem, "--cotree", str(path)]
                    entry["requests"][problem] = len(requests)
                    requests.append({
                        "id": f"{shape}-{size}-{j}-{problem}",
                        "steps": [{"argv": argv + (["--witness"] if witness else [])}],
                        "size": size,
                        "key": f"{shape}-{problem}",
                        "vertices": n,
                    })
                inputs.append(entry)
    return {
        "requests": requests,
        "inputs": inputs,
        "pairs": (sizes[0][0], sizes[1][0]),
        "input_stats": {
            "input.vertices": sum(r["vertices"] for r in requests),
            "input.edges": sum(e["m"] * len(e["requests"]) for e in inputs),
            "input.cotree_depth": max(e["depth"] for e in inputs),
        },
    }


def _check_cograph_answers(plan: dict, first: list) -> list[str]:
    errors = []
    for entry in plan["inputs"]:
        lines = {}
        for problem, i in entry["requests"].items():
            if _ok(first[i], plan["requests"][i]["steps"]):
                lines[problem] = first[i][0][1].strip()
        if set(lines) == set(PROBLEMS):
            errors += checks.check_cograph_triple(entry["n"], lines, entry["adj"])
            continue
        for problem, line in lines.items():
            errs = checks.check_cograph_line(line, problem, entry["n"], entry["adj"])
            k = int(parse_fields(line)["k"]) if not errs else 0
            if problem == "ic" and not errs and 2 * k < entry["n"] + 1:
                errs.append(f"2*gamma_ID={2 * k} < n+1={entry['n'] + 1}")
            errors += errs
    return errors


def _gate_cographs(cli, seed, gate: Path, as_graph: bool) -> list[str]:
    """Every problem on small cotrees of both shapes (3 to 10 leaves) against
    the brute-force minimum, then the self-test on the largest."""
    errors: list[str] = []
    last = None
    for shape, make in SHAPES.items():
        for n in range(3, 11):
            tree = make(n, random.Random(f"gate/{seed}/{shape}/{n}"))
            adj = adjacency(tree, n)
            path = gate / f"{shape}-{n}.{'graph' if as_graph else 'cotree'}"
            path.write_text(graph_text(adj) if as_graph else format_cotree(tree))
            lines = {}
            for problem in PROBLEMS:
                argv = ["cograph", "--problem", problem, "--cotree", str(path), "--witness"]
                rc, out, err = run_request(cli, [{"argv": argv}])[0]
                if rc != 0:
                    errors.append(f"gate: {path.name} {problem} exit {rc}: {err.strip()}")
                    continue
                lines[problem] = out.strip()
                k = int(parse_fields(lines[problem])["k"])
                want = brute_min(adj, problem, cograph=True)
                if k != want:
                    errors.append(f"gate: {path.name} {problem} k={k}, brute force {want}")
            if len(lines) == len(PROBLEMS):
                errors += checks.check_cograph_triple(n, lines, adj)
                last = (n, lines, adj)
    if last is None:
        return errors + ["gate: no small input was answered"]
    n, lines, adj = last
    for problem, line in lines.items():
        errors += checks.self_test(
            line,
            lambda ln, p=problem: checks.check_cograph_triple(n, {**lines, p: ln}, adj),
            adj, problem, True,
        )
    return errors


# -- cotree_fold --------------------------------------------------------------

FOLD_SIZES = ((50_000, 1), (100_000, 1))


def build_fold(seed, work: Path) -> dict:
    def make(shape, size, rng):
        tree = SHAPES[shape](size, rng)
        return tree, format_cotree(tree)

    return _cograph_plan(seed, work, "fold", FOLD_SIZES, False, make)


# -- cograph_witness ----------------------------------------------------------

# Three graphs of n and two of 2n per shape put the median request among the
# many requests of 100 to 300 ms, rather than between two small groups.
WITNESS_SIZES = ((160, 3), (320, 2))
# Edge density m / (n(n-1)/2) is held in this window, so that every seed
# gives graphs with the same amount of work; random cographs of one order
# range from about 0.4 to 0.85.
DENSITY = (0.69, 0.71)


def build_witness(seed, work: Path) -> dict:
    def make(shape, size, rng):
        while True:
            tree = SHAPES[shape](size, rng)
            n, m, _ = stats(tree)
            if DENSITY[0] <= m / (n * (n - 1) / 2) <= DENSITY[1]:
                return tree, graph_text(adjacency(tree, n))

    return _cograph_plan(seed, work, "witness", WITNESS_SIZES, True, make)


# -- extremal_oracle ----------------------------------------------------------

# Members with more vertices than this are generated and certified, not solved.
SOLVE_MAX_N = 22


def _k(*ks):
    return [{"k": k} for k in ks]


def _kd(*pairs):
    return [{"k": k, "d": d} for k, d in pairs]


# Each sweep holds the small members, solved exactly while one solve stays
# around a tenth of a second, and a few members of 50 to 600 vertices that
# are only generated and certified.  Every family's request then takes 0.1
# to 0.5 s, so the median request sits among many requests of similar size.
# unit-md starts at k = 2: at k = 1 the published bound is falsified (a path
# has dimension 1 and order D + 1 > D) and certify reports it violated.
SWEEPS = {
    "interval-ic": _k(*range(1, 7), 12, 16),
    "interval-old": _k(2, 4, 6, 12, 16, 20),
    "interval-ld": _k(*range(1, 6), 12, 16, 20),
    "interval-md": _kd(*[(k, d) for k in (2, 4, 6) for d in (2, 3, 4)], (6, 8), (8, 6), (8, 8)),
    "unit-ic": _k(*range(1, 10), 60, 100),
    "unit-old": _k(1, 2, 3, 4, 40, 60),
    "unit-ld": _k(*range(1, 8), 50, 60),
    "unit-md": _kd(*[(k, d) for k in (2, 3, 4) for d in (2, 3, 4, 5)], (4, 20), (6, 12), (8, 16)),
    "perm-ic": _k(3, 4, 8, 10, 14, 18, 24),
    "perm-old": _k(4, 8, 10, 14, 18, 24),
    "perm-ld": _k(3, 4, 8, 10, 14, 18, 22),
    "perm-md": _kd(*[(k, d) for k in (2, 4) for d in (2, 3, 4, 5)], (4, 10), (6, 8), (8, 8)),
    "bipperm-ic": _k(*range(3, 8), 40, 100, 200),
    "bipperm-old": _k(*range(4, 10), 40, 100, 200),
    "bipperm-ld": _k(*range(1, 8), 40, 100, 200),
    "bipperm-md": _kd(*[(k, d) for k in (2, 4) for d in (2, 3, 4, 5)], (6, 10), (8, 12), (10, 16), (12, 20)),
}
# Cograph families: every variant at a small order (solved exactly) and at
# a few hundred vertices.  The large order is even: on odd orders the
# cograph identifying-code bound n <= 2k-2 is falsified for variant 3 (the
# published formula, pinned as such by the tests) and certify says so.
COGRAPH_SMALL = 12
COGRAPH_LARGE = (236, 238, 240, 242, 244)
GATE_MAX_N = 10
GATE_MAX_K = 9


def _problem(family: str) -> str:
    return {"cograph-id": "ic", "cograph-ld": "ld"}.get(family, family.rsplit("-", 1)[1])


def _member_steps(family: str, params: dict, out: Path, base: int) -> list[dict]:
    flags = [x for key, value in params.items() for x in (f"--{key}", str(value))]
    problem = _problem(family)
    gen = {"argv": ["generate", "--family", family, *flags, "--out", str(out)]}
    solve = {"argv": ["solve", "--problem", problem], "model_from": base, "max_n": SOLVE_MAX_N}
    if family.startswith("cograph"):
        solve["argv"][-1] = "sep-" + family.rsplit("-", 1)[1]
        return [
            gen,
            {"argv": ["cograph", "--problem", problem, "--witness"],
             "model_from": base, "model_flag": "--cotree"},
            {"argv": ["certify", "--problem", problem], "model_from": base, "set_from": base + 1},
            solve,
        ]
    return [
        gen,
        {"argv": ["certify", "--problem", problem], "model_from": base, "set_from": base},
        solve,
    ]


def _with_cographs(orders) -> dict:
    """SWEEPS plus both cograph families, every variant at the given orders."""
    sweeps = dict(SWEEPS)
    for family in ("cograph-id", "cograph-ld"):
        sweeps[family] = [{"n": n, "variant": v} for v in (1, 2, 3, 4) for n in orders]
    return sweeps


def build_extremal(seed, work: Path) -> dict:
    """One request per family: its whole parameter sweep.  The seed draws
    the large cograph order."""
    large = random.Random(f"extremal/{seed}").choice(COGRAPH_LARGE)
    requests = []
    for family, members in _with_cographs((COGRAPH_SMALL, large)).items():
        steps, bases = [], []
        for i, params in enumerate(members):
            bases.append(len(steps))
            steps += _member_steps(family, params, work / f"{family}-{i}", len(steps))
        requests.append({"id": family, "steps": steps, "bases": bases,
                         "size": 0, "key": family})
    return {"requests": requests, "pairs": None}


def _check_member(family: str, outs: list, base: int) -> tuple[Model, list[str]]:
    model = Model(Path(written_model(outs[base][1])).read_text())
    info, errors = checks.check_manifest(outs[base][1].splitlines()[0], model)
    problem = _problem(family)
    at = base + 1
    if family.startswith("cograph"):
        line = outs[at][1].strip()
        errors += checks.check_cograph_line(line, problem, model.n, model.adj)
        f = parse_fields(line)
        k = len(checks.parse_set(f.get("witness", "")))
        if f.get("sep") != str(info["k"]):
            errors.append(f"{family} n={model.n}: sep={f.get('sep')}, claimed {info['k']}")
        if problem == "ic" and 2 * k < model.n + 1 or problem == "ld" and 3 * k < model.n:
            errors.append(f"{family} n={model.n}: k={k} is below the order bound")
        at += 1
    else:
        k = info["k"]
    errors += checks.check_certify(outs[at][1].strip(), model, problem, k)
    solve = outs[at + 1]
    if model.n <= SOLVE_MAX_N:
        errors += checks.check_solve(solve[1].strip(), model, info, exact=False)
    elif tuple(solve) != SKIPPED:
        errors.append(f"{family} n={model.n}: solve ran above {SOLVE_MAX_N} vertices")
    return model, errors


def check_extremal(plan: dict, first: list) -> list[str]:
    """Check every member of every request; also record each request's
    vertices and the input statistics, which only the models the program
    wrote can give."""
    errors = []
    vertices = edges = depth = 0
    for req, outs in zip(plan["requests"], first):
        req["vertices"] = 0
        if not _ok(outs, req["steps"]):
            continue
        for base in req["bases"]:
            model, errs = _check_member(req["id"], outs, base)
            errors += errs
            req["vertices"] += model.n
            edges += model.edges
            depth = max(depth, model.depth)
        vertices += req["vertices"]
    plan["input_stats"] = {"input.vertices": vertices, "input.edges": edges,
                           "input.cotree_depth": depth}
    return errors


def gate_extremal(cli, seed, gate: Path) -> list[str]:
    """Members of at most GATE_MAX_N vertices: the claimed k against the
    brute-force minimum (equal, or at least it for metric dimension), and the
    exact solver's k equal to that minimum; then the self-test."""
    errors: list[str] = []
    sample = None
    for family, members in _with_cographs(range(6, GATE_MAX_N + 1)).items():
        for i, params in enumerate(members):
            if params.get("k", 0) > GATE_MAX_K:
                continue
            steps = _member_steps(family, params, gate / f"{family}-{i}", 0)
            outs = run_request(cli, [steps[0], {**steps[-1], "max_n": GATE_MAX_N}])
            if outs[0][0] != 0:
                errors.append(f"gate: {family} {params} exit {outs[0][0]}: {outs[0][2].strip()}")
                continue
            model = Model(Path(written_model(outs[0][1])).read_text())
            info, errs = checks.check_manifest(outs[0][1].splitlines()[0], model)
            errors += errs
            if model.n > GATE_MAX_N:
                continue
            best = brute_min(model.adj, info["kind"], model.cograph)
            if best > info["k"] or info["kind"] != "rs" and best != info["k"]:
                errors.append(f"gate: {family} {params} claims k={info['k']}, brute force {best}")
            line = outs[1][1].strip()
            errors += checks.check_solve(line, model, info, exact=True)
            if sample is None and info["k"] >= 1 and info["kind"] != "rs":
                sample = (line, model, info)
    if sample is None:
        return errors + ["gate: no small member was solved"]
    line, model, info = sample
    return errors + checks.self_test(
        line, lambda ln: checks.check_solve(ln, model, info, exact=True),
        model.adj, info["kind"], model.cograph,
    )


WORKLOADS = {
    "cotree_fold": (build_fold, _check_cograph_answers,
                    lambda cli, seed, gate: _gate_cographs(cli, seed, gate, False)),
    "cograph_witness": (build_witness, _check_cograph_answers,
                        lambda cli, seed, gate: _gate_cographs(cli, seed, gate, True)),
    "extremal_oracle": (build_extremal, check_extremal, gate_extremal),
}
