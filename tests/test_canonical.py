"""Pinned canonical outputs: fixed random corpora per solver family, each
hashed to one sha256.  A change that moves a pin changes what some query
returns, and must say which outputs moved and why."""
from __future__ import annotations

import hashlib
import random
from collections import Counter

from dirtw import BalancedSeparatorInstance, balanced_separator, linear_vertex_cut, vsorted
from dirtw import balsep, lincut

from util import random_digraph

LINEAR_CUT_PIN = "5c10bb042b584481d29a6d6bb2859ab9863d8d081d575d1b19c1ec4ef2c48ba3"
BALANCED_SEPARATOR_PIN = "eeb87f869946a5923c20427186082dc08d08c1707c16d9d0e8bff0c54e48a747"


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
