"""Benchmark of the idcodes CLI, driven in-process through ``cli.main``.

    python3 bench/run.py --workload cotree_fold --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The inputs are made from ``--seed`` and
written under ``bench/_work`` before timing starts; the program is gated on
small inputs against a brute-force minimum, and every answer timed is
checked by code apart from the program (``checks.py``).  A fresh worker
process then runs whole rounds of the workload's requests, one after the
other, for ``--seconds``.  The last line printed is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
WORKER_TIMEOUT_S = 150
IMPORT_PROBES = 9

END_TO_END = {"setup_s": "s", "vertices_per_s": "1/s", "request_p50_ms": "ms", "peak_rss_mb": "MB"}
PER_LAYER = {
    "models.read_model.s": "s",
    "models.parse_cotree.s": "s",
    "cograph.fold.s": "s",
    "graph.from_text.s": "s",
    "models.cograph_recognize.s": "s",
    "cograph.witness.s": "s",
    "cograph.witness.self_s": "s",
    "models.cotree_to_graph.s": "s",
    "models.cotree_to_graph.edges": "count",
    "verify.check.s": "s",
    "verify.check.calls": "count",
    "exact.min_set.s": "s",
    "exact.min_set.calls": "count",
    "generators.generate.s": "s",
    "models.write_model.s": "s",
    "bounds.certify.s": "s",
    "graph.diameter.s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
    "input.vertices": "count",
    "input.edges": "count",
    "input.cotree_depth": "count",
    "models.parse_cotree.doubling_ratio": "ratio",
    "cograph.fold.doubling_ratio": "ratio",
    "models.cograph_recognize.doubling_ratio": "ratio",
    "models.cotree_to_graph.doubling_ratio": "ratio",
    "cograph.witness.doubling_ratio": "ratio",
}


def _python(args, timeout):
    env = dict(os.environ, PYTHONHASHSEED="0")
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=timeout, env=env,
        cwd=ROOT,
    )


def _import_probe() -> float:
    done = _python([str(BENCH / "worker.py"), str(SRC), "--probe"], 60)
    done.check_returncode()
    return float(done.stdout.strip().splitlines()[-1])


def _end_to_end(plan: dict, result: dict, probes: list[float]) -> dict:
    walls = [w for round_walls in result["walls"] for w in round_walls]
    vertices = sum(r["vertices"] for r in plan["requests"]) * len(result["walls"])
    return {
        "setup_s": statistics.median(probes + [result["import_s"]]),
        "vertices_per_s": vertices / sum(walls),
        "request_p50_ms": statistics.median(walls) * 1000,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def _per_layer(plan: dict, result: dict, trace_path: Path) -> dict:
    import tracing

    with open(trace_path, encoding="utf-8") as fh:
        dump = json.load(fh)
    untraced = result["untraced_rounds"]
    rounds = result["round_walls"]
    sizes = {r["id"]: r["size"] for r in plan["requests"]}
    keys = {r["id"]: r["key"] for r in plan["requests"]}
    out = tracing.layer_metrics(dump, sizes, keys, plan["pairs"], untraced)
    out["trace.overhead_s"] = (sum(rounds[untraced:]) - sum(rounds[:untraced])) / untraced
    out.update(plan["input_stats"])
    return {name: out.get(name, 0.0) for name in PER_LAYER}


def run(workload: str, seed: int, seconds: int, trace: bool, work: Path) -> dict:
    sys.path.insert(0, str(SRC))
    import idcodes.cli

    if not Path(idcodes.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: idcodes was imported from {idcodes.cli.__file__}, not {SRC}")
    build, check, gate = workloads.WORKLOADS[workload]
    started = time.perf_counter()
    (work / "gate").mkdir()
    plan = build(seed, work)
    errors = gate(idcodes.cli, seed, work / "gate")
    probes = [_import_probe() for _ in range(IMPORT_PROBES)]
    prepared = time.perf_counter() - started

    trace_path = WORK / f"trace-{workload}-{seed}.json"
    plan_path, result_path = work / "plan.json", work / "result.json"
    plan_path.write_text(json.dumps({
        "requests": [{"id": r["id"], "steps": r["steps"]} for r in plan["requests"]],
        "seconds": seconds,
        "trace": trace,
        "trace_path": str(trace_path),
    }))
    done = _python([str(BENCH / "worker.py"), str(SRC), str(plan_path), str(result_path)],
                   WORKER_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(f"error: worker exited {done.returncode}: {done.stderr[-2000:]}")
    result = json.loads(result_path.read_text())

    errors += check(plan, result["first"])
    errors += [f"answer changed between rounds: {rid}" for rid in result["unsteady"]]
    for rid, outs in zip((r["id"] for r in plan["requests"]), result["first"]):
        for rc, _, err in outs:
            if rc != 0:
                print(f"failed: {rid}: exit {rc}: {err.strip()}", file=sys.stderr)
    for line in errors:
        print(f"check: {line}", file=sys.stderr)
    rounds = result["round_walls"]
    print(f"{workload}: inputs, gate and import probes {prepared:.1f}s; {len(rounds)} rounds "
          f"of {len(plan['requests'])} requests, {statistics.mean(rounds):.2f}s per round",
          file=sys.stderr)
    if result["missing"]:
        print(f"trace: missing names: {', '.join(result['missing'])}", file=sys.stderr)

    metrics = _per_layer(plan, result, trace_path) if trace else _end_to_end(plan, result, probes)
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": not errors,
        "attempted": sum(len(w) for w in result["walls"]),
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "idcodes" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'idcodes'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        report = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
