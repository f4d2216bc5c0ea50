"""Spans recorded from outside the program, by wrapping its public functions.

Every public function of the traced modules is replaced, under every name a
module of the package holds it by, with a wrapper that records one span:
``(span id, parent span id, name, start, end, request id)``.  Replacing
the names in each namespace is what makes calls such as ``cli`` calling its
own imported ``cograph_recognize`` visible.  Spans stay in memory; the
worker writes them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
import types

MODULES = ("graph", "models", "verify", "exact", "cograph", "generators", "bounds", "cli")

# Layer -> the span names whose busy time it sums.
LAYERS = {
    "models.read_model": ("models.read_model",),
    "models.parse_cotree": ("models.parse_cotree",),
    "cograph.fold": ("cograph.sep_id_dp", "cograph.sep_ld_dp"),
    "graph.from_text": ("graph.Graph.from_text",),
    "models.cograph_recognize": ("models.cograph_recognize",),
    "cograph.witness": ("cograph.witness_cograph",),
    "models.cotree_to_graph": ("models.cotree_to_graph",),
    "verify.check": ("verify.check",),
    "exact.min_set": ("exact.min_set",),
    "generators.generate": ("generators.generate",),
    "models.write_model": ("models.write_model",),
    "bounds.certify": ("bounds.certify",),
    "graph.diameter": ("graph.diameter",),
    "cli.main": ("cli.main",),
}
EXPECTED = sorted({name for names in LAYERS.values() for name in names})
SELF_TIME = ("cograph.witness", "cli.main")
CALLS = ("verify.check", "exact.min_set")
DOUBLING = ("models.parse_cotree", "cograph.fold", "models.cograph_recognize",
            "models.cotree_to_graph", "cograph.witness")


def _count_edges(tracer, graph) -> None:
    tracer.counts["models.cotree_to_graph.edges"] += sum(map(len, graph.adj)) // 2


COUNTERS = {"models.cotree_to_graph": _count_edges}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stack = [0]
        self.next_id = 1
        self.request = None
        self.counts = {"models.cotree_to_graph.edges": 0}
        self.wrapped: set[str] = set()

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer.next_id
            tracer.next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end, tracer.request))
            if counter is not None:
                counter(tracer, result)
            return result

        self.wrapped.add(name)
        return traced

    def install(self) -> list[str]:
        """Wrap the package in place; returns the expected names not found."""
        mods = {short: importlib.import_module(f"idcodes.{short}") for short in MODULES}
        wrappers: dict[int, tuple] = {}
        for short, mod in mods.items():
            public = getattr(mod, "__all__", None) or [
                a for a in vars(mod) if not a.startswith("_")
            ]
            for attr in public:
                obj = vars(mod).get(attr)
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        graph_cls = getattr(mods["graph"], "Graph", None)
        from_text = getattr(graph_cls, "from_text", None)
        if from_text is not None:
            graph_cls.from_text = classmethod(self.wrap("graph.Graph.from_text", from_text.__func__))
        return [name for name in EXPECTED if name not in self.wrapped]

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}


def layer_metrics(dump: dict, sizes: dict, keys: dict, pairs: tuple | None, rounds: int) -> dict:
    """Per-layer figures per traced round.

    ``.s`` is busy time: spans of a layer not nested inside another span of
    the same layer.  ``.self_s`` is a span's time minus that of its direct
    children.  A doubling ratio is the layer's mean time per request of size
    2n over twice its mean time per request of size n, summed over the
    request keys present at both sizes; it reads 0 where the workload has no
    such pair or the layer does not run.
    """
    spans = dump["spans"]
    parent_of = {s[0]: s[1] for s in spans}
    name_of = {s[0]: s[2] for s in spans}
    child_time: dict[int, float] = {}
    for sid, parent, _, start, end, _ in spans:
        child_time[parent] = child_time.get(parent, 0.0) + (end - start)

    out: dict[str, float] = {}
    for layer, names in LAYERS.items():
        names = set(names)
        busy = 0.0
        self_s = 0.0
        per_request: dict = {}
        for sid, parent, name, start, end, request in spans:
            if name not in names:
                continue
            self_s += (end - start) - child_time.get(sid, 0.0)
            up = parent
            while up and name_of[up] not in names:
                up = parent_of[up]
            if up:
                continue
            busy += end - start
            per_request[request] = per_request.get(request, 0.0) + (end - start)
        out[f"{layer}.s"] = busy / rounds
        if layer in SELF_TIME:
            out[f"{layer}.self_s"] = self_s / rounds
        if layer in CALLS:
            out[f"{layer}.calls"] = sum(1 for s in spans if s[2] in names) / rounds
        if layer in DOUBLING:
            out[f"{layer}.doubling_ratio"] = _doubling(per_request, sizes, keys, pairs)
    for name, value in dump["counts"].items():
        out[name] = value / rounds
    return out


def _doubling(per_request: dict, sizes: dict, keys: dict, pairs) -> float:
    if not pairs:
        return 0.0
    times: dict = {}
    for request, t in per_request.items():
        if sizes[request] in pairs:
            times.setdefault((sizes[request], keys[request]), []).append(t)
    small, big = pairs
    common = {k for s, k in times if s == small} & {k for s, k in times if s == big}
    below = sum(sum(times[small, k]) / len(times[small, k]) for k in common)
    if not common or below == 0.0:
        return 0.0
    above = sum(sum(times[big, k]) / len(times[big, k]) for k in common)
    return above / (2 * below)
