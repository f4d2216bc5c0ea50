"""Checks made apart from the program.

Every answer the benchmark receives is checked here with code that shares
nothing with the program: bitmask verifiers, a brute-force minimum, the
paper's order bounds and the known relations between the parameters.  Each
check returns a list of error strings; an empty list means the answer holds.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from inputs import adjacency, parse_cotree, stats

NEIGHBOURHOOD_KINDS = ("ic", "ld", "old", "sep-id", "sep-ld")

# The paper's order bounds n <= f(k, D), one row per class and kind.
BOUNDS = {
    ("interval", "ic"): lambda k, d: k * (k + 1) // 2,
    ("interval", "old"): lambda k, d: k * (k + 1) // 2,
    ("interval", "ld"): lambda k, d: k * (k + 3) // 2,
    ("interval", "rs"): lambda k, d: 2 * k * k * d + 4 * k * k + k * d + 5 * k + 1,
    ("unit-interval", "ic"): lambda k, d: 2 * k - 1,
    ("unit-interval", "old"): lambda k, d: 2 * k - 1,
    ("unit-interval", "ld"): lambda k, d: 3 * k - 1,
    ("unit-interval", "rs"): lambda k, d: k * (d + 2) - 2,
    ("permutation", "ic"): lambda k, d: k * k - 2,
    ("permutation", "old"): lambda k, d: k * k - 2,
    ("permutation", "ld"): lambda k, d: k * k + k - 2,
    ("permutation", "rs"): lambda k, d: 2 * k * k * (d + 3) + 3 * k,
    ("bipartite-permutation", "ic"): lambda k, d: 3 * k + 2,
    ("bipartite-permutation", "ld"): lambda k, d: 3 * k + 2,
    ("bipartite-permutation", "old"): lambda k, d: 2 * k + 2,
    ("bipartite-permutation", "rs"): lambda k, d: k * (2 * d - 1) + 2,
    ("cograph", "ic"): lambda k, d: 2 * k - 2,
    ("cograph", "ld"): lambda k, d: 3 * k,
    ("cograph", "rs"): lambda k, d: 3 * k,
}


class Model:
    """An interval, permutation or cotree model file read back with the
    benchmark's own parser.

    ``adj`` holds bitmask neighbourhoods built from the model's geometry:
    open-interval overlap, segment crossing or cotree expansion.
    """

    def __init__(self, text: str):
        lines = [ln.strip() for ln in text.splitlines()]
        lines = [ln for ln in lines if ln and not ln.startswith("#")]
        head = lines[0].split()
        self.geometry = head[0]
        self.cograph = False
        self.unit = False
        self.depth = 0
        if head[0] == "intervals":
            rows = {}
            for ln in lines[1:]:
                vid, left, right = ln.split()
                rows[int(vid)] = (Fraction(left), Fraction(right))
            ivs = [rows[i] for i in range(int(head[1]))]
            self.unit = all(r - l == 1 for l, r in ivs)
            self.adj = self._pairs(ivs, lambda a, b: max(a[0], b[0]) < min(a[1], b[1]))
        elif head[0] == "permutation":
            rows = {}
            for ln in lines[1:]:
                vid, top, bottom = map(int, ln.split())
                rows[vid] = (top, bottom)
            segs = [rows[i] for i in range(int(head[1]))]
            self.adj = self._pairs(segs, lambda a, b: (a[0] - b[0]) * (a[1] - b[1]) < 0)
        else:
            tree = parse_cotree(text)
            self.geometry = "cotree"
            self.cograph = True
            n, _, self.depth = stats(tree)
            self.adj = adjacency(tree, n)
        self.n = len(self.adj)
        self.edges = sum(bin(m).count("1") for m in self.adj) // 2

    @staticmethod
    def _pairs(items, meets) -> list[int]:
        adj = [0] * len(items)
        for u in range(len(items)):
            for v in range(u + 1, len(items)):
                if meets(items[u], items[v]):
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
        return adj

    def graph_class(self) -> str:
        """The tightest class the model itself evidences."""
        if self.geometry == "intervals":
            return "unit-interval" if self.unit else "interval"
        if self.geometry == "permutation":
            return "bipartite-permutation" if is_bipartite(self.adj) else "permutation"
        return "cograph"


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def distances(adj: list[int], source: int) -> list[int]:
    """Breadth-first distances over bitmask adjacency; -1 when unreachable."""
    dist = [-1] * len(adj)
    frontier = seen = 1 << source
    d = 0
    while frontier:
        nxt = 0
        for v in _bits(frontier):
            dist[v] = d
            nxt |= adj[v]
        frontier = nxt & ~seen
        seen |= frontier
        d += 1
    return dist


def is_bipartite(adj: list[int]) -> bool:
    colour = [-1] * len(adj)
    for start in range(len(adj)):
        if colour[start] != -1:
            continue
        colour[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            for w in _bits(adj[u]):
                if colour[w] == -1:
                    colour[w] = 1 - colour[u]
                    stack.append(w)
                elif colour[w] == colour[u]:
                    return False
    return True


def diameter(adj: list[int]) -> int:
    best = 0
    for v in range(len(adj)):
        dist = distances(adj, v)
        if -1 in dist:
            raise ValueError("graph is disconnected")
        best = max(best, max(dist))
    return best


def solves(adj: list[int], chosen, kind: str, cograph: bool = False) -> bool:
    """Whether ``chosen`` solves ``kind`` (ic, ld, old, rs/md, sep-id, sep-ld).

    For resolving sets of a connected cograph the distance is 1 between
    adjacent and 2 between non-adjacent vertices; otherwise it comes from a
    breadth-first search from each chosen vertex.
    """
    n = len(adj)
    chosen = sorted(set(chosen))
    if any(v < 0 or v >= n for v in chosen):
        return False
    smask = sum(1 << v for v in chosen)
    if kind in ("rs", "md"):
        if cograph:
            rows = [[0 if v == s else 1 if adj[s] >> v & 1 else 2 for v in range(n)] for s in chosen]
        else:
            rows = [distances(adj, s) for s in chosen]
            if rows and -1 in rows[0]:
                return False
        keys = {tuple(row[v] for row in rows) for v in range(n)}
        return len(keys) == n
    if kind in ("ic", "sep-id"):
        sigs = [(adj[v] | 1 << v) & smask for v in range(n)]
    elif kind in ("ld", "sep-ld"):
        sigs = [adj[v] & smask for v in range(n) if not smask >> v & 1]
    elif kind == "old":
        sigs = [adj[v] & smask for v in range(n)]
    else:
        raise ValueError(f"unknown kind {kind!r}")
    if kind in ("ic", "ld", "old") and 0 in sigs:
        return False
    return len(set(sigs)) == len(sigs)


def brute_min(adj: list[int], kind: str, cograph: bool = False) -> int:
    """Smallest solution size by trying every subset, smallest first."""
    n = len(adj)
    for size in range(n + 1):
        for subset in combinations(range(n), size):
            if solves(adj, subset, kind, cograph):
                return size
    raise ValueError(f"no {kind} solution")


def parse_fields(line: str) -> dict[str, str]:
    """``k=3 emp=false witness=0,2`` -> {"k": "3", ...}."""
    return dict(tok.split("=", 1) for tok in line.split() if "=" in tok)


def parse_set(text: str) -> list[int]:
    return [int(t) for t in text.split(",")] if text else []


def check_cograph_line(line: str, problem: str, n: int, adj=None) -> list[str]:
    """One ``idcodes cograph`` answer: k = sep + [emp], and the witness."""
    f = parse_fields(line)
    try:
        k, sep = int(f["k"]), int(f["sep"])
        emp = {"true": True, "false": False}[f["emp"]]
        {"true": True, "false": False}[f["univ"]]
    except (KeyError, ValueError):
        return [f"{problem}: malformed answer {line!r}"]
    errors = []
    want = sep if problem == "md" else sep + emp
    if k != want:
        errors.append(f"{problem}: k={k} but sep={sep} emp={emp}")
    if adj is not None:
        if "witness" not in f:
            return errors + [f"{problem}: no witness in {line!r}"]
        w = parse_set(f["witness"])
        if len(set(w)) != k:
            errors.append(f"{problem}: witness has {len(set(w))} vertices, k={k}")
        if not solves(adj, w, problem, cograph=True):
            errors.append(f"{problem}: witness fails the independent verifier")
    return errors


def check_relations(n: int, k_ic: int, k_ld: int, k_md: int) -> list[str]:
    """The cograph bounds and the parameter relations on one connected,
    closed-twin-free cograph: 2*gamma_ID >= n+1, 3*dim >= n and
    dim <= gamma_LD <= gamma_ID <= 2*gamma_LD."""
    errors = []
    if 2 * k_ic < n + 1:
        errors.append(f"2*gamma_ID={2 * k_ic} < n+1={n + 1}")
    if 3 * k_md < n:
        errors.append(f"3*dim={3 * k_md} < n={n}")
    if not k_md <= k_ld <= k_ic <= 2 * k_ld:
        errors.append(f"dim={k_md} <= gamma_LD={k_ld} <= gamma_ID={k_ic} <= 2*gamma_LD fails")
    return errors


def check_cograph_triple(n: int, lines: dict[str, str], adj=None) -> list[str]:
    """The three answers (ic, ld, md) for one input."""
    errors = []
    for problem, line in lines.items():
        errors += check_cograph_line(line, problem, n, adj)
    if errors:
        return errors
    ks = {p: int(parse_fields(line)["k"]) for p, line in lines.items()}
    seps = {p: int(parse_fields(line)["sep"]) for p, line in lines.items()}
    if seps["md"] != seps["ld"]:
        errors.append(f"dim={seps['md']} differs from the LD separating value {seps['ld']}")
    return errors + check_relations(n, ks["ic"], ks["ld"], ks["md"])


def check_certify(line: str, model: Model, kind: str, k: int) -> list[str]:
    """``satisfied slack=S max_n=M bound=...`` against the paper's bound."""
    f = parse_fields(line)
    cls = model.graph_class()
    key = (cls, "rs" if kind == "md" else kind)
    if key not in BOUNDS:
        return [f"no bound for {key}"]
    d = diameter(model.adj) if kind in ("rs", "md") and cls != "cograph" else None
    want = BOUNDS[key](k, d)
    errors = []
    if not line.startswith("satisfied") or model.n > want:
        errors.append(f"certify says {line!r}; bound for {key} gives max_n={want}, n={model.n}")
    if f.get("max_n") != str(want) or f.get("slack") != str(want - model.n):
        errors.append(f"certify says {line!r}; expected max_n={want} slack={want - model.n}")
    return errors


def check_manifest(line: str, model: Model) -> tuple[dict, list[str]]:
    """``family kind k d n solution=...`` against the written model file."""
    parts = line.split()
    info = {
        "family": parts[0],
        "kind": parts[1],
        "k": int(parts[2]),
        "d": None if parts[3] == "-" else int(parts[3]),
        "n": int(parts[4]),
        "solution": parse_set(parts[5].split("=", 1)[1]),
    }
    errors = []
    if model.n != info["n"]:
        errors.append(f"{info['family']}: model has {model.n} vertices, manifest {info['n']}")
    if len(set(info["solution"])) != info["k"]:
        errors.append(f"{info['family']}: solution size differs from k={info['k']}")
    if not solves(model.adj, info["solution"], info["kind"], model.cograph):
        errors.append(f"{info['family']}: manifest solution fails the independent verifier")
    if info["d"] is not None and diameter(model.adj) != info["d"]:
        errors.append(f"{info['family']}: diameter differs from d={info['d']}")
    return info, errors


def check_solve(line: str, model: Model, info: dict, exact: bool) -> list[str]:
    """``k=K witness=...`` from the exact solver: a verified set, equal to the
    claimed k for the neighbourhood families and at most k for metric
    dimension; with ``exact`` also equal to the brute-force minimum."""
    f = parse_fields(line)
    kind = info["kind"]
    try:
        k = int(f["k"])
        w = parse_set(f["witness"])
    except (KeyError, ValueError):
        return [f"{info['family']}: malformed solve answer {line!r}"]
    errors = []
    if len(set(w)) != k or not solves(model.adj, w, kind, model.cograph):
        errors.append(f"{info['family']} n={model.n}: solve witness fails the verifier")
    if kind in NEIGHBOURHOOD_KINDS and k != info["k"]:
        errors.append(f"{info['family']} n={model.n}: solve k={k}, claimed {info['k']}")
    if kind == "rs" and k > info["k"]:
        errors.append(f"{info['family']} n={model.n}: solve k={k} above claimed {info['k']}")
    if exact and k != brute_min(model.adj, kind, model.cograph):
        errors.append(f"{info['family']} n={model.n}: solve k={k} is not the minimum")
    return errors


def self_test(line: str, check, adj, kind: str, cograph: bool) -> list[str]:
    """Show that ``check`` (answer line -> errors) rejects the answer with k
    raised by one and with one witness vertex dropped, while accepting it as
    given, and that the verifier alone rejects the shortened witness."""
    if check(line):
        return [f"self-test: the uncorrupted answer {line!r} was rejected"]
    f = parse_fields(line)
    w = parse_set(f["witness"])
    bumped = line.replace(f"k={f['k']} ", f"k={int(f['k']) + 1} ", 1)
    dropped = line.replace(f"witness={f['witness']}", "witness=" + ",".join(map(str, w[1:])))
    failures = []
    if not check(bumped):
        failures.append(f"self-test: the corrupted k in {bumped!r} was accepted")
    if not check(dropped) or solves(adj, w[1:], kind, cograph):
        failures.append(f"self-test: the witness without vertex {w[0]} was accepted")
    return failures
