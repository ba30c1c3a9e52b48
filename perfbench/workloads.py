"""The benchmark's three workloads.

Each workload is a fixed list of slots.  Setup turns the slots into
instances for one seed and writes each instance's graph as an edge-list
file; a pass runs one op per instance, and the op's canonical output is
checked afterwards, outside the timed region.

Every graph goes through `relabel`, which maps the vertex ids onto a seeded,
order-preserving sample of 1..10n.  Ties in the package are broken by vertex
id, so an order-preserving map keeps the work of an op the same while its
outputs change with the seed.  A free permutation would not: on the
balsep-exact graphs it moved single queries between 1 ms and 0.9 s, and a
seed that picks new random graphs moves them between 1 ms and 9 s, which
swamps any change to the code.

The ops call the package through module attributes (`mods.arboreal.decompose`)
at call time, so the layer tracer's wrappers see every call.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace


@dataclass
class Instance:
    slot: int
    label: str
    path: Path
    graph: object
    params: dict = field(default_factory=dict)


def relabel(mods: SimpleNamespace, D, rng: random.Random):
    """Copy of D on a seeded, order-preserving sample of the ids 1..10n."""
    vs = D.sorted_vertices()
    ids = sorted(rng.sample(range(1, 10 * len(vs) + 1), len(vs)))
    mapping = dict(zip(vs, ids))
    E = mods.digraph.Digraph()
    for v in vs:
        E.add_vertex(mapping[v])
    for u, v, c in D.edge_classes():
        E.add_edge(mapping[u], mapping[v], c)
    return E


def write_graph(mods: SimpleNamespace, D, path: Path) -> None:
    path.write_text(mods.digraph.serialize_edge_list(D), encoding="utf-8")


def read_graph(mods: SimpleNamespace, path: Path):
    return mods.digraph.parse_edge_list(path.read_text(encoding="utf-8"))


def call_main(mods: SimpleNamespace, argv: list[str]):
    """Run `dirtw ARGV` in-process and return its exit code."""
    try:
        mods.cli.main(argv)
    except SystemExit as exc:
        return exc.code
    return None


class DecomposeValidate:
    """`dirtw decompose FILE -k K -o OUT`, then `dirtw validate --nice FILE
    OUT`, on the CLI user's path: parsing, the cheap balanced-separator
    layers, subgraph copies, SCCs and the validator do the work."""

    name = "decompose-validate"
    # (family, n, edge count or None, k).  Sorted by latency a pass runs
    # sparse < certificate < bicycle < dag; the median falls inside the five
    # certificate slots and the 75th percentile inside the four equal
    # bicycles, so neither sits on a jump between two kinds of graph.
    SLOTS = [
        ("random", 60, 78, 2), ("random", 70, 91, 3),
        ("random", 80, 104, 2), ("random", 90, 117, 3),
        *[("random", 140, 420, 2)] * 5,
        ("bicycle", 150, None, 2), ("bicycle", 150, None, 3),
        ("bicycle", 150, None, 2), ("bicycle", 150, None, 3),
        ("dag", 150, None, 2), ("dag", 175, None, 3),
    ]

    def build(self, mods, seed, workdir):
        rng = random.Random(seed)
        out = []
        for slot, (family, n, edges, k) in enumerate(self.SLOTS):
            D = mods.cli._gen_graph(family, n, rng.randrange(2**31), edges)
            D = relabel(mods, D, rng)
            label = f"{family}-n{n}-k{k}"
            path = workdir / f"{slot:02d}-{label}.edges"
            write_graph(mods, D, path)
            out.append(Instance(slot, label, path, D,
                                {"k": k, "out": workdir / f"{slot:02d}-{label}.json"}))
        return out

    def run(self, mods, inst):
        k, out = str(inst.params["k"]), str(inst.params["out"])
        return (call_main(mods, ["decompose", str(inst.path), "-k", k, "-o", out]),
                call_main(mods, ["validate", "--nice", str(inst.path), out]))

    def output(self, inst, result):
        artifact = inst.params["out"].read_text(encoding="utf-8")
        return json.dumps({"exit": list(result), "artifact": json.loads(artifact)},
                          sort_keys=True)

    def check(self, mods, inst, text):
        doc = json.loads(text)
        dec_code, val_code = doc["exit"]
        k, D, js = inst.params["k"], inst.graph, doc["artifact"]
        if dec_code not in (0, 10):
            return f"decompose exited {dec_code}"
        if val_code != 0:
            return f"validate --nice exited {val_code}"
        if dec_code == 0:
            width = mods.arboreal.ArborealDecomposition.from_json(js).width
            return None if width <= 3 * k - 2 else f"width {width} > {3 * k - 2}"
        T = js["T"]
        if len(T) != 2 * k - 1 or js["k"] != k - 1 or js["r"] != k - 1:
            return f"certificate shape {js}"
        if any(v not in D for v in T):
            return "certificate terminal off the graph"
        res = mods.balsep.brute_force_balanced_separator(D, T, k - 1, k - 1)
        return None if res.linked else f"certificate refuted by {sorted(res.separator)}"


class BalsepExact:
    """`balanced_separator` queries of the criterion-10 shape at small n:
    the only workload where the exact partition engine and the linear cut
    do most of the work, with cheap-layer separators beside them."""

    name = "balsep-exact"
    # (n, t, r, s, generator seeds) for random graphs with m = 3n and T the
    # first t vertices, grouped by the layer that decides them:
    CLASSES = [
        # 13 queries the cheap layers answer in about 1 ms
        (30, 4, 1, 2, (1, 7, 9, 13, 14)),
        (30, 5, 1, 3, (1, 2, 4, 7, 9, 11, 13, 14)),
        # 5 Linked verdicts from the exact layer, 0.15-0.25 s each
        (20, 4, 1, 2, (2, 3, 6, 9, 11)),
        # 3 exact-layer queries of 1-4 s: one Linked, two separators
        (20, 5, 1, 3, (2, 3)),
        (30, 5, 1, 3, (3,)),
    ]
    # Sorted by latency the median of a pass falls inside the cheap queries
    # and the 75th percentile inside the t = 4 Linked ones.  The n = 30,
    # (5, 1, 3) Linked instances (generator seeds 5, 8, 10, 15, 19, 20) are
    # left out: each takes 4.5-8.6 s, more than the rest of the pass.

    def build(self, mods, seed, workdir):
        rng = random.Random(seed)
        out = []
        for n, t, r, s, gen_seeds in self.CLASSES:
            for gen_seed in gen_seeds:
                D = relabel(mods, mods.cli._gen_graph("random", n, gen_seed, 3 * n), rng)
                label = f"random-n{n}-seed{gen_seed}-t{t}r{r}s{s}"
                path = workdir / f"{len(out):02d}-{label}.edges"
                write_graph(mods, D, path)
                D = read_graph(mods, path)
                out.append(Instance(len(out), label, path, D,
                                    {"T": D.sorted_vertices()[:t], "r": r, "s": s}))
        return out

    def run(self, mods, inst):
        p = inst.params
        return mods.balsep.balanced_separator(
            mods.balsep.BalancedSeparatorInstance(inst.graph, p["T"], p["r"], p["s"]))

    def output(self, inst, result):
        if result.linked:
            return "LINKED"
        return json.dumps(sorted(result.separator))

    def check(self, mods, inst, text):
        D, T, r, s = inst.graph, inst.params["T"], inst.params["r"], inst.params["s"]
        brute = mods.balsep.brute_force_balanced_separator(D, T, r, s)
        if text == "LINKED":
            return None if brute.linked else "solver says Linked, brute force disagrees"
        if brute.linked:
            return "solver found a separator, brute force says Linked"
        Z = json.loads(text)
        if len(Z) > s or not mods.balsep.is_balanced_separator(D, T, r, Z):
            return f"separator {Z} is not a balanced separator within budget {s}"
        return None


class WellLinked:
    """`decompose(D, g)` for a certificate, `well_linked_set`, then
    `verify_well_linked`, as `dirtw welllinked` does; for k = 4 also
    `build_path_system(link=1, p=2)`.  The bramble layer drives the work.

    Hosts are bidirected cliques K_3g.  Non-clique hosts send
    `decompose(D, g)` into the linear-cut search tail, which can run for
    minutes; balsep-exact measures that layer instead."""

    name = "welllinked"
    # sorted by latency the median falls inside the five k = 3 ops and the
    # 75th percentile inside the two k = 4 ops
    SLOTS = [3, 3, 3, 3, 3, 4, 4, 5]

    def build(self, mods, seed, workdir):
        rng = random.Random(seed)
        out = []
        for slot, k in enumerate(self.SLOTS):
            g = mods.bramble.order_parameter(k)
            D = relabel(mods, mods.cli._gen_graph("biclique", 3 * g, 0, None), rng)
            label = f"biclique-n{3 * g}-k{k}"
            path = workdir / f"{slot:02d}-{label}.edges"
            write_graph(mods, D, path)
            out.append(Instance(slot, label, path, read_graph(mods, path), {"k": k, "g": g}))
        return out

    def run(self, mods, inst):
        D, k, g = inst.graph, inst.params["k"], inst.params["g"]
        cert = mods.arboreal.decompose(D, g)
        if not isinstance(cert, mods.arboreal.LinkedSetCertificate):
            return cert, None, None, False, None
        P, A = mods.bramble.well_linked_set(D, cert, k)
        verified = mods.bramble.verify_well_linked(D, A)
        system = mods.bramble.build_path_system(D, P, A, 1, 2) if k == 4 else None
        return cert, P, A, verified, system

    def output(self, inst, result):
        cert, P, A, verified, system = result
        if P is None:
            return json.dumps({"decomposition": cert.to_json()}, sort_keys=True)
        return json.dumps({
            "T": sorted(cert.T), "path": list(P.vertices), "A": sorted(A),
            "verified": verified, "pathsystem": system.to_json() if system else None,
        }, sort_keys=True)

    def check(self, mods, inst, text):
        doc = json.loads(text)
        D, k, g = inst.graph, inst.params["k"], inst.params["g"]
        if "decomposition" in doc:
            return "decompose returned a decomposition, not a certificate"
        T, path, A = doc["T"], doc["path"], doc["A"]
        if len(T) != 2 * g - 1:
            return f"certificate has {len(T)} terminals, want {2 * g - 1}"
        if len(A) != k or not set(A) <= set(path):
            return f"anchors {A} are not {k} vertices of the path"
        P = mods.digraph.Path(D, path)
        if not mods.bramble.is_hitting_set(mods.bramble.TBramble(D, frozenset(T), g), P.vertices):
            return "path does not hit the bramble"
        if doc["verified"] is not True:
            return "verify_well_linked returned false"
        if k == 4:
            return _path_system_problem(mods, D, doc["pathsystem"], link=1, order=2)
        return None


def _path_system_problem(mods, D, js, link: int, order: int) -> str | None:
    """Spines disjoint, anchors on their spines, and every ordered spine
    pair joined by `link` disjoint paths of D between the right anchors."""
    spines = [set(mods.digraph.Path(D, vs).vertices) for vs in js["spines"]]
    if len(spines) != order:
        return f"{len(spines)} spines, want {order}"
    if any(spines[a] & spines[b] for a in range(order) for b in range(a + 1, order)):
        return "spines share vertices"
    ins, outs = js["anchors_in"], js["anchors_out"]
    for a in range(order):
        if not set(ins[a]) | set(outs[a]) <= spines[a]:
            return f"anchors of spine {a + 1} are off the spine"
    if len(js["linkages"]) != order * (order - 1):
        return "missing linkages"
    for key, paths in js["linkages"].items():
        i, j = (int(x) for x in key.split(","))
        if len(paths) != link:
            return f"linkage {key} has {len(paths)} paths, want {link}"
        seen: set = set()
        for vs in paths:
            p = mods.digraph.Path(D, vs)
            if p.first not in outs[i - 1] or p.last not in ins[j - 1]:
                return f"linkage {key} path ends off its anchors"
            if seen & set(p.vertices):
                return f"linkage {key} paths share vertices"
            seen |= set(p.vertices)
    return None


WORKLOADS = {w.name: w for w in (DecomposeValidate(), BalsepExact(), WellLinked())}
