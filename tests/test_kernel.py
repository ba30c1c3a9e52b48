"""Referees for the shared kernel's inner loops: Tarjan's walk, the flow
network's arrays, menger's flow decomposition and vsorted each give exactly
what their plain forms, kept in util.py, give."""
from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest

import dirtw
from dirtw import menger, vsorted
from dirtw.digraph import FlowNetwork, split_network, tarjan_sccs
from util import (
    mixed_id_digraph,
    reference_linkage,
    reference_interned_rows,
    reference_network_init,
    reference_split_classes,
    reference_tarjan_sccs,
    reference_vsorted,
    shuffled_digraph,
)

GRAPHS = 2000
ARRAYS = ("adj", "fwd", "head", "cap", "built", "marked", "classes", "source", "sink", "n")


def _graphs(seed: int, count: int, largest: int):
    """`count` random mixed-id multigraphs with loops and parallel arcs,
    built in shuffled order, with their sorted vertices."""
    rng = random.Random(seed)
    for _ in range(count):
        D = mixed_id_digraph(rng, shuffled_digraph(rng, rng.randint(1, largest)))
        yield rng, D, D.sorted_vertices()


def test_tarjan_emission_order_matches_the_next_loop_reference():
    many = 0
    for rng, D, vs in _graphs(0x7A2, GRAPHS, 12):
        banned = rng.sample(vs, rng.randint(0, len(vs) // 2)) + ["absent", (9, 9)][:rng.randint(0, 2)]
        within = set(rng.sample(vs, rng.randint(1, len(vs)))) if rng.random() < 0.5 else None
        got = tarjan_sccs(D, banned, within)
        assert got == reference_tarjan_sccs(D, banned, within)
        many += len(got) >= 3
    assert many > GRAPHS // 5, many


def test_interned_rows_match_the_generator_form():
    loops = partial = 0
    for rng, D, vs in _graphs(0x1E7, GRAPHS, 12):
        some = set(rng.sample(vs, rng.randint(0, len(vs))))
        for chosen, want in ((D.vertices(), vs), (vs, vs), (some, vsorted(some))):
            net = split_network(D, chosen)
            assert net.names == want and net.index == {v: i for i, v in enumerate(want)}
            assert net.succ == reference_interned_rows(D, net)
        partial += len(some) < len(vs)
        loops += any(D.has_edge(v, v) for v in some)
    assert min(loops, partial) > GRAPHS // 4, (loops, partial)


def _arrays(net) -> dict:
    return {name: getattr(net, name) for name in ARRAYS}


def _columns(arcs: list[tuple]) -> tuple[list, list, list]:
    """A (tail, head, cost) list as the three sequences FlowNetwork takes."""
    return tuple(map(list, zip(*arcs))) if arcs else ([], [], [])


def _networks(rng, D, vs, reference: bool = False) -> list[FlowNetwork]:
    """A split network and a network on a random unsorted arc list, loops
    and parallel arcs included; with `reference`, the first built from its
    tuple-list classes."""
    nodes = rng.randint(0, 6)
    arcs = [(rng.randrange(nodes), rng.randrange(nodes), rng.randint(0, 4))
            for _ in range(rng.randint(0, 12))] if nodes else []
    net = split_network(D, vs)
    if not reference:
        return [net, FlowNetwork(nodes, *_columns(arcs))]
    split_nodes, split_arcs, _ = reference_split_classes(net)
    split = FlowNetwork(split_nodes, *_columns(split_arcs))
    split.n = len(vs)
    return [split, FlowNetwork(nodes, *_columns(arcs))]


def test_network_arrays_match_the_per_arc_build(monkeypatch):
    seen_arcs = 0
    for rng, D, vs in _graphs(0xB11, GRAPHS, 9):
        state = rng.getstate()
        got = [_arrays(net) for net in _networks(rng, D, vs)]
        rng.setstate(state)
        with monkeypatch.context() as patched:
            patched.setattr(FlowNetwork, "__init__", reference_network_init)
            want = [_arrays(net) for net in _networks(rng, D, vs, reference=True)]
        assert got == want
        seen_arcs += got[0]["classes"] > 0 and got[1]["classes"] > 0
    assert seen_arcs > GRAPHS // 4, seen_arcs


def _outcome(res) -> list:
    return [p.vertices for p in res.paths] if res.paths is not None else ["sep", vsorted(res.separator)]


def test_menger_matches_the_used_list_decomposition():
    kinds = {"paths": 0, "separator": 0}
    for rng, D, vs in _graphs(0xD3C, GRAPHS, 9):
        net = split_network(D, D.vertices())
        for _ in range(2):
            X, Y = rng.sample(vs, rng.randint(1, len(vs))), rng.sample(vs, rng.randint(1, len(vs)))
            r = rng.randint(1, 4)
            got = _outcome(menger(D, X, Y, r, net))
            assert got == _outcome(reference_linkage(D, split_network(D, D.vertices()), X, Y, r))
            assert got == _outcome(menger(D, X, Y, r))
            kinds["paths" if got[:1] != ["sep"] else "separator"] += 1
    assert min(kinds.values()) > GRAPHS // 4, kinds


def _id_lists(rng: random.Random):
    """Id lists of ints, of strs, of tuples, of ints and strs, and of all
    three kinds, with repeats."""
    def ints(k):
        return [rng.randrange(-30, 30) for _ in range(k)]

    def strs(k):
        return [rng.choice(["", "a", "b", "ab", "B", "10", "9", "é"]) + str(rng.randrange(3)) for _ in range(k)]

    def tups(k):
        return [(rng.choice(ints(1) + strs(1)), rng.randrange(3)) for _ in range(k)]

    k = rng.randint(0, 12)
    yield ints(k)
    yield strs(k)
    yield tups(k)
    yield ints(k) + strs(rng.randint(1, 3))
    mixed = ints(rng.randint(0, 4)) + strs(rng.randint(0, 4)) + tups(rng.randint(0, 4)) + [()]
    rng.shuffle(mixed)
    yield mixed


def test_vsorted_matches_the_vkey_sort():
    rng = random.Random(0x5027)
    for _ in range(GRAPHS):
        for ids in _id_lists(rng):
            got = vsorted(ids)
            assert got == reference_vsorted(ids)
            assert list(map(type, got)) == list(map(type, reference_vsorted(ids)))
            assert vsorted(iter(ids)) == got  # any iterable, read once


UNORDERED = [[True], [1, True], [True, 1], [False, 0], ["a", 1.0], [2.5], [1, 2.5, 3], [(1, True)],
             [("a", 0.5), ("a", 1)], [None], [1, None]]


@pytest.mark.parametrize("ids", UNORDERED, ids=repr)
def test_vsorted_refuses_bools_and_floats(ids):
    with pytest.raises(TypeError):
        vsorted(ids)


def test_vsorted_refuses_bools_and_floats_without_asserts():
    # python -O strips asserts; the refusal must not rest on one
    script = ("import sys\nfrom dirtw import vsorted\nassert False, 'asserts are on'\n"
              f"for ids in {UNORDERED!r}:\n"
              "    try:\n        vsorted(ids)\n    except TypeError:\n        continue\n"
              "    sys.exit(f'no TypeError for {ids!r}')\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(dirtw.__file__)))
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
