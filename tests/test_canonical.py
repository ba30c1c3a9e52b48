"""Pinned canonical outputs: fixed random corpora per solver family, each
hashed to one sha256.  A change that moves a pin changes what some query
returns, and must say which outputs moved and why."""
from __future__ import annotations

import hashlib
import json
import random
from collections import Counter

from dirtw import ArborealDecomposition, BalancedSeparatorInstance, balanced_separator, decompose
from dirtw import linear_vertex_cut, menger, scc, validate, vsorted
from dirtw import balsep, build_path_system, lincut, order_parameter, verify_well_linked, well_linked_set
from dirtw.cli import _gen_graph
from dirtw.digraph import Digraph, split_network

from util import chorded_cycle, random_digraph

LINEAR_CUT_PIN = "5c10bb042b584481d29a6d6bb2859ab9863d8d081d575d1b19c1ec4ef2c48ba3"
BALANCED_SEPARATOR_PIN = "eeb87f869946a5923c20427186082dc08d08c1707c16d9d0e8bff0c54e48a747"
MENGER_PIN = "c087521f9ae0c13a9ac98b662345171409041b8605dc8ea077c5317581340daf"
WELL_LINKED_PIN = "e7c754bf445cf0201dbc36f8bbfeff304302d062731a8774d36cdeb7aabcb576"
DISJOINT_CUT_PIN = "01126bc2526d7c9482c28f6b2737835ed93d32cba9caf0c05f38b00ffadc6f7b"
DECOMPOSE_PIN = "4bec3b6b2a553614a3fc5d8bfcc7f03c9cf3bac9e9914d61aeae5e775880fb09"
PATH_LIKE_PIN = "2e7000ca70cc0da7e2a5d3f0e6ecce6a47668d5966380093347293d0fea98c39"
PIPELINE_PIN = "c9c159dc9d481a7b201371b4cd8aa8a127e2963236b73f9698847e04904ec3c9"


def _digest(outputs: list) -> str:
    return hashlib.sha256("\n".join(map(repr, outputs)).encode()).hexdigest()


def test_linear_cuts_keep_their_pinned_outputs():
    # 1,600 queries on 4-14 vertices with 2-4 blocks; half the queries draw
    # each block on its own, so blocks may share a vertex, which every cut
    # is forced to delete
    rng = random.Random(2031)
    outputs, seen = [], Counter()
    for _ in range(1600):
        D = random_digraph(rng, rng.randint(4, 14), rng.uniform(0.1, 0.45))
        vs = D.sorted_vertices()
        k = rng.randint(2, 4)
        if rng.random() < 0.5:
            blocks = [rng.sample(vs, rng.randint(1, 3)) for _ in range(k)]
        else:
            pool = rng.sample(vs, min(len(vs), 3 * k))
            blocks = [pool[i::k] for i in range(k)]
        cut = linear_vertex_cut(D, blocks, rng.randint(0, 5))
        outputs.append(None if cut is None else (vsorted(cut.elements), vsorted(cut.forced)))
        seen["cut" if cut is not None else "none"] += 1
        seen["forced"] += cut is not None and bool(cut.forced)
        seen["three blocks or more"] += cut is not None and k > 2 and bool(cut.elements)
    assert min(seen.values()) >= 150, seen
    assert _digest(outputs) == LINEAR_CUT_PIN


def test_linear_cuts_on_disjoint_blocks_keep_their_pinned_outputs():
    # 1,200 queries on 8-16-vertex hosts with 2-4 disjoint blocks, at s in
    # 1-6 or s = n.  Deleting every terminal outside the largest block is a
    # cut, so the optimum is at most that many or s; queries whose optimum
    # is 2 or more below it are counted
    rng = random.Random(2034)
    outputs, seen = [], Counter()
    for _ in range(1200):
        n, k = rng.randint(8, 16), rng.randint(2, 4)
        D = random_digraph(rng, n, rng.uniform(0.1, 0.4))
        pool = rng.sample(D.sorted_vertices(), rng.randint(k, min(n, 3 * k)))
        blocks = [pool[i::k] for i in range(k)]
        s = n if rng.random() < 0.3 else rng.randint(1, 6)
        cut = linear_vertex_cut(D, blocks, s)
        outputs.append(None if cut is None else vsorted(cut.elements))
        cap = min(s, len(pool) - max(map(len, blocks)))
        seen["none"] += cut is None
        seen["optimum 2+ below the cap"] += cut is not None and cut.size <= cap - 2
        seen["cut over three blocks or more"] += cut is not None and k > 2 and bool(cut.elements)
    assert min(seen.values()) >= 150, seen
    assert _digest(outputs) == DISJOINT_CUT_PIN


def test_balanced_separators_keep_their_pinned_outputs(monkeypatch):
    # 320 queries on 13-16-vertex hosts, whose offending components are
    # large enough for the partition engine; spies count its calls and the
    # partitions `first_order` picks
    engine, sizes = [], []
    real_engine, real_first = balsep._partition_min_cut, lincut._CutOracle.first_order

    def spy_engine(*args):
        engine.append(real_engine(*args))
        return engine[-1]

    def spy_first(self, *args):
        blocks = real_first(self, *args)
        sizes.append(len(blocks))
        return blocks

    rng = random.Random(1)
    outputs = []
    with monkeypatch.context() as mp:
        mp.setattr(balsep, "_partition_min_cut", spy_engine)
        mp.setattr(lincut._CutOracle, "first_order", spy_first)
        for _ in range(320):
            D = random_digraph(rng, rng.randint(13, 16), rng.uniform(0.15, 0.35))
            T = rng.sample(D.sorted_vertices(), rng.randint(4, 7))
            res = balanced_separator(BalancedSeparatorInstance(D, frozenset(T), rng.randint(1, 3), rng.randint(2, 5)))
            outputs.append(None if res.linked else vsorted(res.separator))
    deep = sum(size >= 3 for size in sizes)
    assert len(engine) >= 50 and deep >= 20 and outputs.count(None) >= 20, (len(engine), deep, outputs.count(None))
    assert _digest(outputs) == BALANCED_SEPARATOR_PIN


def test_menger_keeps_its_pinned_outputs():
    # 1,500 queries on 4-14 vertices: the paths, each a vertex list, or the
    # sorted separator; X and Y may share vertices
    rng = random.Random(2032)
    outputs, seen = [], Counter()
    for _ in range(1500):
        D = random_digraph(rng, rng.randint(4, 14), rng.uniform(0.1, 0.45))
        vs = D.sorted_vertices()
        X, Y = rng.sample(vs, rng.randint(1, 4)), rng.sample(vs, rng.randint(1, 4))
        res = menger(D, X, Y, rng.randint(1, 4))
        if res.paths is not None:
            outputs.append([p.vertices for p in res.paths])
            seen["paths"] += 1
            seen["two paths or more, one of 3+ vertices"] += len(res.paths) > 1 and max(map(len, outputs[-1])) > 2
        else:
            outputs.append(vsorted(res.separator))
            seen["separator"] += 1
            seen["separator of 2+ vertices"] += len(res.separator) > 1
    assert min(seen.values()) >= 50, seen
    assert _digest(outputs) == MENGER_PIN


def test_well_linked_verdicts_keep_their_pinned_outputs():
    # 400 anchor sets of 4-8 vertices in the largest strong component of
    # 8-24-vertex hosts.  Each is counted by what settles it: every ordered
    # pair an arc, or each other pair joined by |A| // 2 internally disjoint
    # paths; otherwise the per-set flows
    rng = random.Random(2033)
    outputs, seen = [], Counter()
    for _ in range(400):
        D = random_digraph(rng, rng.randint(8, 24), rng.uniform(0.1, 0.6))
        big = vsorted(max(scc(D), key=len))
        A = rng.sample(big, min(len(big), rng.randint(4, 8)))
        verdict = verify_well_linked(D, A)
        outputs.append(verdict)
        if len(A) < 4:
            continue
        seen[f"{verdict}, |A| >= 5"] += len(A) >= 5
        net, t = split_network(D, D.vertices()), len(A) // 2
        n, ids = net.n, net.ids(A)
        if all(y in net.succ[x] or net.flow((n + x,), (y,), t) == t for x in ids for y in ids if y != x):
            seen["settled by the arcs or the pair flows"] += 1
        else:
            seen[f"{verdict} after the per-set flows"] += 1
    assert min(seen.values()) >= 50 and len(seen) == 5, seen
    assert _digest(outputs) == WELL_LINKED_PIN


def test_decompositions_keep_their_pinned_outputs():
    # decompose on 40 hosts of `dirtw gen` (random with 1.3-3n arcs,
    # bicycle, dag) of 15-60 vertices at k 1-3; each decomposition must
    # validate as nice
    rng = random.Random(2035)
    outputs, seen = [], Counter()
    for _ in range(40):
        family, n = rng.choice(["random", "bicycle", "dag"]), rng.randint(15, 60)
        edges = int(rng.uniform(1.3, 3) * n) if family == "random" else None
        D = _gen_graph(family, n, rng.randrange(10 ** 6), edges)
        result = decompose(D, rng.randint(1, 3))
        outputs.append(json.dumps(result.to_json(), sort_keys=True))
        if isinstance(result, ArborealDecomposition):
            assert validate(D, result, nice=True).ok
            seen["decomposition"] += 1
        else:
            seen["certificate"] += 1
    assert min(seen.values()) >= 10 and len(seen) == 2, seen
    assert _digest(outputs) == DECOMPOSE_PIN


def test_path_like_decompositions_keep_their_pinned_outputs():
    # decompose and validate --nice on the path-like trees of bicycles of
    # 100-400 vertices at k 2-3 and of 200 chorded cycles (3-40 vertices,
    # with pendants) at k 1-3: the decomposition or certificate, and the
    # width and violations of each decomposition
    rng = random.Random(2036)
    outputs, seen = [], Counter()
    hosts = [(_gen_graph("bicycle", n, 0, None), rng.randint(2, 3)) for n in (100, 150, 250, 400)]
    hosts += [(chorded_cycle(rng, rng.randint(3, 40)), rng.randint(1, 3)) for _ in range(200)]
    for D, k in hosts:
        result = decompose(D, k)
        outputs.append(json.dumps(result.to_json(), sort_keys=True))
        if isinstance(result, ArborealDecomposition):
            report = validate(D, result, nice=True)
            outputs.append((report.width, report.violations))
            seen["decomposition"] += 1
            seen["nice"] += report.ok
            seen["50 nodes or more"] += len(result.bags) >= 50
        else:
            seen["certificate"] += 1
    assert seen["nice"] == seen["decomposition"] and seen["50 nodes or more"] >= 4, seen
    assert min(seen.values()) >= 4 and seen["certificate"] >= 50, seen
    assert _digest(outputs) == PATH_LIKE_PIN


def test_well_linked_pipeline_keeps_its_pinned_outputs():
    # decompose(D, g(k)), well_linked_set, verify_well_linked and a path
    # system over the first four anchors along the path, on bidirected
    # cliques of 3g(k) vertices for k = 3, 4, 5 (21, 42 and 51 vertices),
    # once on int ids and once on str ids, whose order differs
    outputs = []
    for k in (3, 4, 5):
        g = order_parameter(k)
        for ids in ([3 * i + 1 for i in range(3 * g)], [f"v{i}" for i in range(3 * g)]):
            D = Digraph()
            for u in ids:
                for v in ids:
                    if u != v:
                        D.add_edge(u, v)
            cert = decompose(D, g)
            P, A = well_linked_set(D, cert, k)
            along = [v for v in P.vertices if v in A]
            system = build_path_system(D, P, along[:4], 1, 2) if k >= 4 else None
            outputs.append((vsorted(cert.T), P.vertices, vsorted(A), verify_well_linked(D, A),
                            system and json.dumps(system.to_json(), sort_keys=True)))
    assert all(out[3] for out in outputs) and sum(out[4] is not None for out in outputs) == 4
    assert _digest(outputs) == PIPELINE_PIN
