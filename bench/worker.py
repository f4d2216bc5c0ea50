"""The measured process: one caller, one thread, a closed loop over cli.main.

    python3 worker.py <src dir> <plan.json> <result.json>
    python3 worker.py <src dir> --probe

The import of ``idcodes.cli`` is timed first, before anything else is
imported, so that it is the set-up every CLI invocation pays.  ``--probe``
stops there and prints that time.
"""

import sys
import time


def _import_cli(src: str):
    sys.path.insert(0, src)
    start = time.perf_counter()
    import idcodes.cli
    return idcodes.cli, time.perf_counter() - start


def _call(cli, argv):
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a traceback ends the CLI with exit 1
            rc = 1
            err.write(f"{type(exc).__name__}: {str(exc)[:200]}")
    return rc, out.getvalue(), err.getvalue()[-400:]


def _field(text: str, key: str) -> str:
    for tok in text.split():
        if tok.startswith(key + "="):
            return tok[len(key) + 1:]
    return ""


SKIPPED = (0, "", "skipped")


def written_model(stdout: str) -> str:
    """The model path from ``generate``'s last line, ``wrote <model> and <manifest>``."""
    return stdout.splitlines()[-1][len("wrote "):].rsplit(" and ", 1)[0]


def run_request(cli, steps) -> list:
    """Steps of one request, as (exit code, stdout, stderr tail).

    A step may take the model path written by an earlier ``generate`` step
    (``model_from``, passed after ``model_flag``) and the set printed by an
    earlier step (``set_from``).  A step with ``max_n`` is skipped when that
    ``generate`` step's manifest has more vertices.
    """
    outs = []
    for step in steps:
        argv = list(step["argv"])
        if "model_from" in step:
            generated = outs[step["model_from"]][1]
            if int(generated.split()[4]) > step.get("max_n", float("inf")):
                outs.append(SKIPPED)
                continue
            argv += [step.get("model_flag", "--input"), written_model(generated)]
        if "set_from" in step:
            text = outs[step["set_from"]][1]
            argv += ["--set", _field(text, "solution") or _field(text, "witness")]
        outs.append(_call(cli, argv))
        if outs[-1][0] != 0:
            break
    return outs


def main() -> int:
    cli, import_s = _import_cli(sys.argv[1])
    if sys.argv[2] == "--probe":
        print(repr(import_s))
        return 0

    import gc
    import json
    import resource

    with open(sys.argv[2], encoding="utf-8") as fh:
        plan = json.load(fh)
    requests = plan["requests"]
    seconds = plan["seconds"]
    trace = plan["trace"]

    walls: list[list[float]] = []
    round_walls: list[float] = []
    first: list = []
    failed = 0
    unsteady: list[str] = []
    tracer = None
    missing: list[str] = []
    untraced_rounds = 0

    def one_round():
        nonlocal failed
        walls.append([])
        round_start = time.perf_counter()
        for i, req in enumerate(requests):
            if tracer is not None:
                tracer.request = req["id"]
            gc.collect()
            start = time.perf_counter()
            outs = run_request(cli, req["steps"])
            walls[-1].append(time.perf_counter() - start)
            if len(outs) != len(req["steps"]) or outs[-1][0] != 0:
                failed += 1
            if len(first) <= i:
                first.append(outs)
            elif [o[1] for o in outs] != [o[1] for o in first[i]]:
                unsteady.append(req["id"])
        round_walls.append(time.perf_counter() - round_start)

    begin = time.perf_counter()
    budget = seconds / 2 if trace else seconds
    while not walls or time.perf_counter() - begin < budget:
        one_round()
    if trace:
        import tracing

        untraced_rounds = len(walls)
        tracer = tracing.Tracer()
        missing = tracer.install()
        for _ in range(untraced_rounds):
            one_round()

    result = {
        "import_s": import_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "walls": walls,
        "round_walls": round_walls,
        "untraced_rounds": untraced_rounds or len(walls),
        "first": first,
        "failed": failed,
        "unsteady": sorted(set(unsteady)),
        "missing": missing,
    }
    if tracer is not None:
        with open(plan["trace_path"], "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    with open(sys.argv[3], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
