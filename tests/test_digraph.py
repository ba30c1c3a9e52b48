from __future__ import annotations

import os
import random
import subprocess
import sys
from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

import dirtw

from dirtw import (
    Digraph,
    Path,
    menger,
    parse_edge_list,
    reachable,
    scc,
    serialize_edge_list,
    vkey,
    vsorted,
)
from dirtw.arboreal import _structure_violations
from dirtw.bramble import verify_well_linked
from dirtw.digraph import (FlowNetwork, _reach_set, _strongly_connected, guard_breach, guard_screen, split_network,
                           tarjan_sccs)
from dirtw.lincut import _CutOracle
from util import (
    bidirected_clique,
    brute_guarded,
    brute_min_vertex_separator,
    brute_scc_partition,
    dfs_path_exists,
    mixed_id_digraph,
    path_digraph,
    pendant_pairs_digraph,
    random_digraph,
    reference_menger,
    reference_bfs,
    reference_parse_edge_list,
    reference_reach_set,
    shuffled_digraph,
    subsets_up_to,
    tampered_decompositions,
    triangle_gadget,
)


def test_vkey_orders_ints_before_strings():
    assert vsorted(["b", 10, "a", 2]) == [2, 10, "a", "b"]
    assert vkey(("in", 3)) < vkey(("out", 3))


def test_digraph_counts_and_multiplicity():
    D = Digraph()
    D.add_edge("a", "b")
    D.add_edge("a", "b", 2)
    D.add_edge("b", "b")  # loop
    D.add_vertex("z")
    assert D.n == 3
    assert D.m == 4
    assert D.mult("a", "b") == 3
    assert D.mult("b", "a") == 0
    assert sorted(D.edge_classes()) == [("a", "b", 3), ("b", "b", 1)]


@pytest.mark.parametrize("bad", [True, False, 1.5, None, (1, 2.5)])
def test_ids_that_have_no_vertex_order_are_refused_when_added(bad):
    # True == 1 and False == 0, so a bool would alias an int vertex
    D = Digraph()
    D.add_edge(0, 1)
    D.add_vertex("a")
    before = serialize_edge_list(D)
    for add in (lambda: D.add_vertex(bad), lambda: D.add_edge(bad, 1), lambda: D.add_edge(1, bad),
                lambda: D.add_edge(bad, "new"), lambda: D.add_edge("new", bad)):
        with pytest.raises(TypeError, match="unsupported vertex id"):
            add()
        assert serialize_edge_list(D) == before and D.n == 3 and D.m == 1


def test_induced_subgraph_keeps_multiplicities():
    D = Digraph()
    D.add_edge(1, 2, 3)
    D.add_edge(2, 3)
    D.add_edge(3, 1)
    sub = D.minus({3})
    assert sub.n == 2 and sub.m == 3 and sub.mult(1, 2) == 3


def test_add_edge_refuses_a_multiplicity_below_one():
    D = Digraph()
    for mult in (0, -1):
        with pytest.raises(ValueError, match="multiplicity must be positive"):
            D.add_edge(1, 2, mult)
    assert D.n == 0 and D.m == 0


def test_split_network_ids_refuse_a_vertex_outside_its_set():
    # the network numbers the vertex set it is built on, not all of D
    net = split_network(path_digraph(1, 2, 3), [3, 1])
    assert net.names == [1, 3] and net.ids([3, 1]) == [1, 0]
    for vs in ([1, 2], ["absent"]):
        with pytest.raises(ValueError, match="not in digraph"):
            net.ids(vs)


def test_every_entry_point_names_the_terminal_outside_the_digraph():
    # one message at every entry point that takes terminals, for int, str
    # and tuple ids alike, and python -O strips none of the checks
    script = (
        "from dirtw import (BalancedSeparatorInstance, Digraph, TBramble, linear_vertex_cut, menger,\n"
        "                   verify_well_linked)\n"
        "D = Digraph()\n"
        "for i in range(1, 6):\n"
        "    D.add_bidirected(i, i % 5 + 1)\n"
        "D.add_vertex('lone')\n"
        "for x in (9, 'ghost', (9,)):\n"
        "    for call in (lambda: BalancedSeparatorInstance(D, {1, x}, 1, 1),\n"
        "                 lambda: TBramble(D, {1, x}, 1),\n"
        "                 lambda: verify_well_linked(D, [1, 'lone', x, 2]),\n"
        "                 lambda: linear_vertex_cut(D, [{1}, {'lone', x}], 1),\n"
        "                 lambda: menger(D, [1], [x, 'lone'], 1),\n"
        "                 lambda: menger(D, [x], [2], 1)):\n"
        "        try:\n"
        "            call()\n"
        "        except ValueError as exc:\n"
        "            print(exc)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(dirtw.__file__)))
    for flags in ([], ["-O"]):
        proc = subprocess.run([sys.executable, *flags, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [f"terminal {x!r} not in digraph"
                                            for x in (9, "ghost", (9,)) for _ in range(6)]


def test_path_validates_against_host():
    D = path_digraph("a", "b", "c")
    p = Path(D, ["a", "b", "c"])
    assert p.first == "a" and p.last == "c" and len(p) == 3
    with pytest.raises(ValueError):
        Path(D, ["a", "c"])
    with pytest.raises(ValueError):
        Path(D, ["a", "b", "a"])
    with pytest.raises(ValueError):
        Path(D, ["q"])
    assert len(Path(D, [])) == 0


def test_scc_singleton_and_chain():
    single = Digraph()
    single.add_vertex("v")
    assert scc(single) == [frozenset({"v"})]

    chain = path_digraph("a", "b", "c")
    assert scc(chain) == [frozenset("c"), frozenset("b"), frozenset("a")]


def test_scc_strongly_connected_example():
    assert scc(pendant_pairs_digraph()) == [frozenset("abcdefg")]


def test_scc_order_forbids_forward_paths():
    rng = random.Random(7)
    for _ in range(40):
        D = random_digraph(rng, rng.randint(1, 12), rng.random() * 0.5)
        dec = scc(D)
        assert brute_scc_partition(D) == set(dec)
        for i, earlier in enumerate(dec):
            for later in dec[i + 1:]:
                assert not dfs_path_exists(D, earlier, later)


def test_scc_canonical_across_construction_orders():
    left = Digraph()
    for u, v in [(1, 2), (2, 1), (3, 4), (4, 3)]:
        left.add_edge(u, v)
    right = Digraph()
    for u, v in [(4, 3), (3, 4), (2, 1), (1, 2)]:
        right.add_edge(u, v)
    assert scc(left) == scc(right)


def test_reachable_basics():
    D = path_digraph("a", "b")
    assert reachable(D, ["a"], ["a"])
    assert reachable(D, ["a"], ["b"])
    assert not reachable(D, ["b"], ["a"])
    assert not reachable(D, [], ["a"])


def test_reachable_after_hub_removal():
    rest = triangle_gadget().minus({"v1"})
    assert not reachable(rest, ["v3"], ["v2"])
    assert not dfs_path_exists(rest, ["v3"], ["v2"])
    assert reachable(rest, ["v2"], ["v3"])


def test_banned_set_matches_deleting_by_copy():
    rng = random.Random(33)
    for _ in range(300):
        D = shuffled_digraph(rng, rng.randint(0, 8))
        # banned ids that are not vertices of D are ignored, as by minus
        Z = {v for v in D.vertices() if rng.random() < 0.3} | {0, "ghost", (1, 2)}
        assert tarjan_sccs(D, Z) == tarjan_sccs(D.minus(Z))
        assert tarjan_sccs(D, iter(sorted(Z, key=vkey))) == tarjan_sccs(D.minus(Z))
        assert scc(D, Z) == scc(D.minus(Z))
    assert tarjan_sccs(D) == tarjan_sccs(D, ()) == tarjan_sccs(D.minus(()))


def test_strong_pieces_within_a_vertex_set_match_banning_its_complement():
    rng = random.Random(37)
    kinds = dict.fromkeys(["strongly connected", "split", "singleton", "empty"], 0)
    for _ in range(300):
        D = mixed_id_digraph(rng, shuffled_digraph(rng, rng.randint(1, 8)))
        vs = D.sorted_vertices()
        V = set(vs)
        for X in (set(rng.sample(vs, rng.randint(1, len(vs)))), set(rng.choice(scc(D))),
                  {rng.choice(vs)}, set()):
            connected = _strongly_connected(D, X)
            assert connected == (len(brute_scc_partition(D.induced(X))) == 1)
            assert ({frozenset(c) for c in tarjan_sccs(D, within=X)}
                    == {frozenset(c) for c in tarjan_sccs(D, V - X)})
            assert scc(D, within=X) == scc(D, V - X)
            Z = set(rng.sample(vs, rng.randint(1, min(2, len(vs)))))
            assert ({frozenset(c) for c in tarjan_sccs(D, Z, within=X)}
                    == {frozenset(c) for c in tarjan_sccs(D, V - X | Z)})
            kinds["empty" if not X else "singleton" if len(X) == 1
                  else "strongly connected" if connected else "split"] += 1
        # an id outside D
        assert not _strongly_connected(D, {"ghost"}) and not _strongly_connected(D, {vs[0], "ghost"})
    assert min(kinds.values()) > 30, kinds


def test_reachable_matches_dfs_oracle():
    rng = random.Random(34)
    for _ in range(300):
        D = shuffled_digraph(rng, rng.randint(0, 7))
        X = [v for v in D.vertices() if rng.random() < 0.3] + ["ghost"]
        Y = [v for v in D.vertices() if rng.random() < 0.3] + [0]
        assert reachable(D, X, Y) == dfs_path_exists(D, X, Y)


def test_reach_set_matches_the_full_walk():
    # the walk stops once it has seen every vertex of D minus banned; the
    # reference reads every list it reaches, so the sets must be equal
    rng = random.Random(43)
    kinds = dict.fromkeys(["all of D - banned", "part of it", "continued"], 0)
    for _ in range(1500):
        D = mixed_id_digraph(rng, shuffled_digraph(rng, rng.randint(1, 9)))
        vs = D.sorted_vertices()
        banned = set(rng.sample(vs, rng.randint(0, len(vs) // 2)))
        banned |= set(rng.sample(["ghost", 99, (7, "x")], rng.randint(0, 2)))  # ids outside D
        sources = rng.sample(vs, rng.randint(1, min(3, len(vs)))) + ["ghost"] * rng.randint(0, 1)
        for forward in (True, False):
            got = _reach_set(D, sources, banned, forward)
            assert got == reference_reach_set(D, sources, banned, forward)
            kinds["all of D - banned" if got == set(vs) - banned else "part of it"] += 1
            more = rng.sample(vs, rng.randint(1, min(2, len(vs))))
            again = _reach_set(D, more, banned, forward, seen=set(got))
            assert again == reference_reach_set(D, more, banned, forward, seen=set(got))
            kinds["continued"] += again != got
    assert min(kinds.values()) > 150, kinds


class _CountedReads(dict):
    """An adjacency dict that counts the lists read from it."""

    def __getitem__(self, v):
        self.reads = getattr(self, "reads", 0) + 1
        return dict.__getitem__(self, v)


def test_reach_set_stops_once_it_has_seen_every_vertex():
    # on a clique the first list read meets every vertex
    for forward in (True, False):
        D = bidirected_clique(60)
        D._succ, D._pred = _CountedReads(D._succ), _CountedReads(D._pred)
        assert _reach_set(D, [7], set(), forward) == set(range(1, 61))
        assert (D._succ if forward else D._pred).reads == 1
        assert _reach_set(D, [7], {1, 2, "ghost"}, forward) == set(range(3, 61))
        assert (D._succ if forward else D._pred).reads == 2


def test_is_guarded_whole_graph_and_chain():
    D = path_digraph("a", "b", "c")
    assert guard_breach(D, {"a", "b", "c"}, set()) is None
    assert guard_breach(D, {"a", "c"}, set()) == "b"
    assert guard_breach(D, {"a", "c"}, {"b"}) is None


def test_is_guarded_pendant_pairs():
    D = pendant_pairs_digraph()
    S = set("bcdefg")
    assert guard_breach(D, S, {"b", "c"}) is None
    # overlapping guard vertices are treated as removed with Z
    assert guard_breach(D, S | {"b"}, {"b", "c"}) == guard_breach(D, S, {"b", "c"})
    assert guard_breach(D, {"d", "e", "f", "g"}, {"b"}) == "a"


def test_is_guarded_matches_walk_oracle():
    rng = random.Random(21)
    for _ in range(200):
        n = rng.randint(1, 5)
        D = random_digraph(rng, n, rng.random())
        vs = list(D.vertices())
        Z = {v for v in vs if rng.random() < 0.3}
        S = {v for v in vs if v not in Z and rng.random() < 0.5}
        assert (guard_breach(D, S, Z) is None) == brute_guarded(D, S, Z)


def test_guard_screen_matches_guard_breach_and_the_strong_components():
    # the screen's answer per part, by definition: None iff guard_breach
    # names a vertex, else whether S - Z is a strong component of D - Z
    rng = random.Random(41)
    seen = dict.fromkeys(["grouped None", "grouped True", "grouped False", "single None",
                          "single True", "single False", "left and came back"], 0)
    for _ in range(500):
        D = mixed_id_digraph(rng, shuffled_digraph(rng, rng.randint(1, 10)))
        for dec in tampered_decompositions(rng, D):
            if _structure_violations(dec):
                continue
            groups: dict = {}
            for arc, guard in sorted(dec.guards.items()):
                groups.setdefault((arc[0], guard), []).append(dec.beyond(arc))
            # and parts made of whole strong components, which only a path
            # out of a part and back can breach
            Z = frozenset(rng.sample(D.sorted_vertices(), rng.randint(0, min(2, D.n))))
            comps = tarjan_sccs(D, Z)
            rng.shuffle(comps)
            cut = sorted(rng.randint(0, len(comps)) for _ in range(3))
            groups[(None, Z)] = [set().union(*comps[i:j]) for i, j in zip(cut, cut[1:])]
            for (_, Z), parts in groups.items():
                comps = tarjan_sccs(D, Z)
                want = [None if guard_breach(D, S, Z) is not None else set(S - Z) in comps for S in parts]
                for S, w in zip(parts, want):
                    if all(v in D for v in S - Z):  # a lone part of D's vertices
                        assert guard_screen(D, Z, [S]) == [w]
                        seen[f"single {w}"] += 1
                outside = [S - Z for S in parts]
                if len(parts) < 2 or not all(v in D for S in outside for v in S) \
                        or sum(map(len, outside)) != len(set().union(*outside)):
                    continue  # a duplicated or foreign vertex: not a group
                assert guard_screen(D, set(Z), parts) == guard_screen(D, iter(Z), parts) == want
                for X, w in zip(outside, want):
                    seen[f"grouped {w}"] += 1
                    # breached, yet every strong component lies inside X or off it
                    seen["left and came back"] += w is None and all(c <= X or not c & X for c in comps)
    assert min(seen.values()) > 30, seen


def test_menger_single_path():
    D = path_digraph("a", "b", "c")
    res = menger(D, {"a"}, {"c"}, 1)
    assert [p.vertices for p in res.paths] == [["a", "b", "c"]]


def test_menger_shared_endpoint_forces_separator():
    # both diamond paths share their endpoints, so with full vertex
    # disjointness two paths cannot coexist and {a} is a minimum separator
    D = Digraph()
    for u, v in [("a", "b"), ("b", "d"), ("a", "c"), ("c", "d")]:
        D.add_edge(u, v)
    res = menger(D, {"a"}, {"d"}, 2)
    assert res.separator == {"a"}
    res3 = menger(D, {"a"}, {"d"}, 3)
    assert res3.separator == {"a"}
    assert not reachable(D.minus(res3.separator), {"a"} - res3.separator, {"d"})


def test_menger_disjoint_terminal_pairs():
    D = Digraph()
    for u, v in [("a", "b"), ("b", "d"), ("x", "c"), ("c", "y")]:
        D.add_edge(u, v)
    res = menger(D, {"a", "x"}, {"d", "y"}, 2)
    got = sorted(p.vertices for p in res.paths)
    assert got == [["a", "b", "d"], ["x", "c", "y"]]


def test_menger_zero_length_path():
    D = path_digraph("a", "b")
    res = menger(D, {"a"}, {"a", "b"}, 1)
    assert [p.vertices for p in res.paths] == [["a"]]


def test_menger_rejects_bad_r():
    with pytest.raises(ValueError):
        menger(path_digraph("a"), {"a"}, {"a"}, 0)


def test_menger_duality_random():
    rng = random.Random(5)
    for _ in range(120):
        n = rng.randint(2, 8)
        D = random_digraph(rng, n, rng.random() * 0.6)
        vs = list(D.vertices())
        X = set(rng.sample(vs, rng.randint(1, n)))
        Y = set(rng.sample(vs, rng.randint(1, n)))
        r = rng.randint(1, 4)
        res = menger(D, X, Y, r)
        if res.paths is not None:
            assert len(res.paths) == r
            seen: set = set()
            for p in res.paths:
                assert p.vertices[0] in X and p.vertices[-1] in Y
                assert seen.isdisjoint(p.vertices)
                seen.update(p.vertices)
            # removing any r-1 vertices leaves one path untouched
            for S in subsets_up_to(vs, r - 1):
                if len(S) == r - 1:
                    assert any(S.isdisjoint(p.vertices) for p in res.paths)
        else:
            S = res.separator
            assert len(S) <= r - 1
            assert not dfs_path_exists(D.minus(S), X - S, Y - S)
            assert len(S) == brute_min_vertex_separator(D, X, Y)


def test_menger_deterministic():
    D = bidirected_clique(5)
    first = menger(D, {1, 2}, {4, 5}, 2)
    second = menger(D, {1, 2}, {4, 5}, 2)
    assert [p.vertices for p in first.paths] == [p.vertices for p in second.paths]


def test_menger_matches_tuple_keyed_reference():
    rng = random.Random(13)
    found = {"paths": 0, "separator": 0, "shared": 0}
    for _ in range(300):
        D = mixed_id_digraph(rng, random_digraph(rng, rng.randint(1, 9), rng.random() * 0.5))
        vs = D.sorted_vertices()
        for _ in range(rng.randint(0, 3)):
            u, v = rng.choice(vs), rng.choice(vs)
            D.add_edge(u, v, rng.randint(1, 2))  # loops and parallel copies
        X = set(rng.sample(vs, rng.randint(1, min(3, len(vs)))))
        Y = set(rng.sample(vs, rng.randint(1, min(3, len(vs)))))
        r = rng.randint(1, 3)
        got, want = menger(D, X, Y, r), reference_menger(D, X, Y, r)
        assert got.separator == want.separator
        assert (got.paths is None) == (want.paths is None)
        if got.paths is not None:
            assert [p.vertices for p in got.paths] == [p.vertices for p in want.paths]
        found["paths" if got.paths is not None else "separator"] += 1
        found["shared"] += bool(X & Y)
    assert min(found.values()) > 30


def test_flow_guards_survive_optimized_mode():
    # python -O strips assert statements; these guards are explicit errors
    script = (
        "from dirtw import MengerResult, digraph\n"
        "D = digraph.Digraph()\n"
        "D.add_bidirected(1, 2)\n"
        "net = digraph.split_network(D, [1, 2])\n"
        "checks = [lambda: MengerResult(None, None),\n"
        "          lambda: net.flow([0], [3], 1, cut=[1]),  # a reverse arc\n"
        "          lambda: net.split_vertices([4])]  # the arc of the edge 1 -> 2\n"
        "def broken(*args):\n"
        "    digraph.tarjan_sccs = lambda D, banned=(), within=None: [{1}, {2}]  # a cyclic condensation\n"
        "    digraph.scc(D)\n"
        "def unrouted(*args):\n"
        "    digraph.FlowNetwork.flow = lambda net, X, Y, limit, cut=(): limit  # a flow never routed\n"
        "    digraph.menger(D, {1}, {2}, 1)\n"
        "for check in checks + [broken, unrouted]:\n"
        "    try:\n"
        "        check()\n"
        "    except (ValueError, RuntimeError) as exc:\n"
        "        print(type(exc).__name__)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(dirtw.__file__)))
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ValueError"] * 2 + ["RuntimeError"] * 3


def test_split_network_reuse_after_restoring_capacities():
    rng = random.Random(5)
    for _ in range(30):
        D = random_digraph(rng, 7, 0.35)
        net = split_network(D, D.vertices())
        n = len(net.names)
        vs = D.sorted_vertices()
        X, Y = set(rng.sample(vs, 2)), set(rng.sample(vs, 2))
        Xi, Yi = net.ids(X), net.ids(Y)
        u, w = rng.sample(range(n), 2)
        limit = rng.choice([n + 1, 1, 2])  # n + 1: more than any flow
        src, snk = net.source, net.sink
        assert (src, snk) == (2 * n, 2 * n + 1)
        Yo = [n + y for y in Yi]  # paths end on the out-nodes of Y
        first = net.flow(Xi, Yo, limit)
        assert net.flow(Xi, Yo, limit) == first
        assert split_network(D, D.vertices()).flow(Xi, Yo, limit) == first
        # without the restore the saturated paths stay used up
        if net.max_flow(n + 1) > 0:
            assert net.max_flow(n + 1) == 0
        assert net.flow(Xi, Yo, n + 1) == brute_min_vertex_separator(D, X, Y)
        # cut split arcs carry nothing
        assert net.flow(Xi, Yo, n + 1, cut=range(0, 2 * n, 2)) == 0
        # an inner flow, out_u -> in_w, through the same entry point: asking
        # again restores the network, and it equals the flow asked of a
        # fresh network
        first = net.flow([n + u], [w], limit)
        assert net.flow([n + u], [w], limit) == first
        fresh = split_network(D, D.vertices())
        assert fresh.flow([n + u], [w], limit) == first
        # a question restores the capacities as built: terminal arcs off
        # but its own
        assert net.flow([], [], n + 1) == 0
        assert net.flow([n + u], [w], n + 1) == split_network(D, D.vertices()).flow([n + u], [w], n + 1)


def _flow_kernel_outcomes(seed: int, count: int) -> tuple[list, dict]:
    """What the flow kernel decides on `count` random mixed-id multigraphs
    with loops and parallel arcs: flow values on split networks and on
    networks whose arcs cost their multiplicity, with cut classes, menger's paths or separator, a
    verify_well_linked verdict and the cut lists of a cut oracle.  Also how
    often each kind of answer came up."""
    rng = random.Random(seed)
    out: list = []
    found = {"paths": 0, "separator": 0, "flow": 0, "well-linked": 0, "ill-linked": 0, "cuts": 0}
    for _ in range(count):
        D = mixed_id_digraph(rng, shuffled_digraph(rng, rng.randint(1, 8)))
        vs = D.sorted_vertices()
        split = split_network(D, vs)
        n = len(vs)
        X, Y = rng.sample(vs, rng.randint(1, n)), rng.sample(vs, rng.randint(1, n))
        res = menger(D, X, Y, rng.randint(1, 3))
        found["paths" if res.paths is not None else "separator"] += 1
        out.append([p.vertices for p in res.paths] if res.paths is not None else vsorted(res.separator))
        tails = [u for u, row in enumerate(split.succ) for _ in row]
        heads = [w for row in split.succ for w in row]
        costs = [D.mult(split.names[u], split.names[w]) for u, w in zip(tails, heads)]
        for net, sinks in ((split, [n + y for y in split.ids(Y)]),
                           (FlowNetwork(n, tails, heads, costs), split.ids(Y))):
            classes = range(0, net.classes, 2)
            cut = rng.sample(classes, rng.randint(0, min(2, len(classes))))
            flow = net.flow(split.ids(X), sinks, rng.randint(1, n + 1), cut)
            found["flow"] += flow > 1
            out.append(flow)
        verdict = verify_well_linked(D, rng.sample(vs, rng.randint(1, min(4, n))))
        found["well-linked" if verdict else "ill-linked"] += 1
        out.append(verdict)
        if n >= 3:
            terms = rng.sample(range(n), rng.randint(3, min(5, n)))
            budget = rng.randint(0, 3)
            cuts = sorted(rng.sample(range(1, len(terms)), 2))
            blocks = [terms[:cuts[0]], terms[cuts[0]:cuts[1]], terms[cuts[1]:]]
            oracle = _CutOracle(split)
            out.append(oracle.feasible(blocks, (), budget))
            out.append(list(oracle.memo.items()))
            found["cuts"] += any(len(cuts) > 1 for _, cuts in oracle.memo.values())
    return out, found


def _one_exit_clique() -> Digraph:
    """The bidirected K_9 whose vertex 1 keeps one out-arc, to 2: anchors
    [1, 3, 5, 7] are well-linked, but the pairs from 1 have one path each,
    so `verify_well_linked` asks the pair flows and then per-set flows."""
    D = Digraph()
    for u, v in permutations(range(1, 10), 2):
        if u != 1 or v == 2:
            D.add_edge(u, v)
    return D


def test_flow_kernel_matches_the_full_scan_reference(monkeypatch):
    # a pass scans only the forward arcs at a node no flow has entered; the
    # reference scans every arc everywhere, so every augmenting path, the
    # minimum cut menger reads off and every oracle branch must be the same
    got, found = _flow_kernel_outcomes(23, 2000)
    assert min(found.values()) > 50, found
    monkeypatch.setattr(FlowNetwork, "_bfs", lambda net: reference_bfs(net, net.source, net.sink))
    assert _flow_kernel_outcomes(23, 2000) == (got, found)


class _CountedArcs(list):
    """An arc list that, while a BFS pass runs, counts the scans of it and
    the reverse arcs it scans at a node that is not marked."""

    def __init__(self, arcs, net, node, counts):
        super().__init__(arcs)
        self.net, self.node, self.counts = net, node, counts

    def __iter__(self):
        if self.counts["in pass"]:
            self.counts["scans"] += 1
            if self.net.marked[self.node]:
                self.counts["marked"] += 1
            else:
                self.counts["odd at unmarked"] += sum(a & 1 for a in list.__iter__(self))
        return list.__iter__(self)


def test_no_pass_scans_a_reverse_arc_at_an_unmarked_node(monkeypatch):
    # the menger decomposition, the walks cancelling a unit, the oracle's
    # furthest cut and the violating-path check read adj outside the
    # passes, and are not counted
    counts = {"in pass": False, "scans": 0, "marked": 0, "odd at unmarked": 0}
    real = FlowNetwork._bfs

    def counted(net):
        for name in ("adj", "fwd"):
            lists = getattr(net, name)
            if not isinstance(lists[0], _CountedArcs):
                setattr(net, name, [_CountedArcs(arcs, net, u, counts) for u, arcs in enumerate(lists)])
        counts["in pass"] = True
        try:
            return real(net)
        finally:
            counts["in pass"] = False

    monkeypatch.setattr(FlowNetwork, "_bfs", counted)
    _flow_kernel_outcomes(29, 500)
    D = bidirected_clique(9)
    assert verify_well_linked(_one_exit_clique(), [1, 3, 5, 7])
    assert counts["scans"] > 10_000 and counts["marked"] > 1_000, counts
    assert counts["odd at unmarked"] == 0
    # the forward lists are the even arcs of adj, in adj's order, and a
    # new question clears every mark
    net = split_network(D, D.vertices())
    net.flow([1], [net.n + 2], 3)
    assert any(net.marked)
    assert [[a for a in arcs if not a & 1] for arcs in net.adj] == net.fwd
    assert net.flow([], [], 3) == 0
    assert not any(net.marked)


class _PoppedArcs(list):
    """An arc list that logs its node to `state["log"]`, while that is a
    list, each time it is scanned: a BFS pass scans a node's arcs once, when
    it pops the node."""

    def __init__(self, arcs, node, state):
        super().__init__(arcs)
        self.node, self.state = node, state

    def __iter__(self):
        if self.state["log"] is not None:
            self.state["log"].append(self.node)
        return list.__iter__(self)


def _path_to(via, head, t: int) -> list[int]:
    path = []
    while via[t] >= 0:
        path.append(via[t])
        t = head[via[t] ^ 1]
    return path


def test_a_pass_to_the_sink_pops_no_node_after_a_free_sink_arc_is_found(monkeypatch):
    # a pass from the source to the sink stops on finding the first node
    # with room on its sink arc, on the full pass's path; the residual walk
    # menger reads its separator off still pops every node it reaches
    state = {"log": None, "augmenting": False}
    counts = Counter()
    real, real_max_flow = FlowNetwork._bfs, FlowNetwork.max_flow

    def augmenting(net, limit):
        state["augmenting"] = True
        try:
            return real_max_flow(net, limit)
        finally:
            state["augmenting"] = False

    def counted(net):
        for name in ("adj", "fwd"):
            lists = getattr(net, name)
            if not isinstance(lists[0], _PoppedArcs):
                setattr(net, name, [_PoppedArcs(arcs, u, state) for u, arcs in enumerate(lists)])
        state["log"] = popped = []
        try:
            via = real(net)
        finally:
            state["log"] = None
        s, t = net.source, net.sink
        # the source is popped first and scans its switched-on arcs alone,
        # never its arc list of every node
        assert s not in popped
        popped.insert(0, s)
        full = reference_bfs(net, s, t)
        found = [w for w, a in enumerate(via) if a != -1 and w != t]
        if state["augmenting"]:
            assert _path_to(via, net.head, t) == _path_to(full, net.head, t)
            free = [w for w in found if w < s and net.cap[net.classes + 4 * w + 2] > 0]
            if via[t] == -1:
                assert free == [] and sorted(popped) == found
                counts["dry"] += 1
            else:
                goal = net.head[via[t] ^ 1]
                assert free == [goal] and goal not in popped
                assert popped[-1] == net.head[via[goal] ^ 1]  # its finder was the last node popped
                counts["stopped"] += 1
                counts["left queued"] += len(found) - len(popped)
        else:  # menger's walk of the residual side, after a maximum flow
            assert via[t] == -1 and via == full and sorted(popped) == found
            counts["residual walk"] += 1
        return via

    monkeypatch.setattr(FlowNetwork, "_bfs", counted)
    monkeypatch.setattr(FlowNetwork, "max_flow", augmenting)
    _flow_kernel_outcomes(31, 300)
    assert verify_well_linked(_one_exit_clique(), [1, 3, 5, 7])
    assert min(counts.values()) > 100 and counts["left queued"] > 2 * counts["stopped"], counts


def test_flow_refuses_reverse_arcs_in_cut():
    # a cut names classes, which are even arc ids
    net = split_network(bidirected_clique(3), [1, 2, 3])
    with pytest.raises(ValueError, match="reverse arc"):
        net.flow([0], [net.n + 1], 1, cut=[0, 1])
    assert net.flow([0], [net.n + 1], 1, cut=[0]) == 0


def test_edge_list_round_trip():
    rng = random.Random(11)
    for _ in range(30):
        D = random_digraph(rng, rng.randint(1, 9), rng.random() * 0.4)
        if rng.random() < 0.5:
            D.add_edge(1, 2, rng.randint(1, 3))
        text = serialize_edge_list(D)
        assert parse_edge_list(text) == D
        assert serialize_edge_list(parse_edge_list(text)) == text


def test_edge_list_parsing_details():
    D = parse_edge_list("# comment\n\na b\na b\nvertex  q\n3 a\n")
    assert D.mult("a", "b") == 2
    assert "q" in D and 3 in D
    with pytest.raises(ValueError):
        parse_edge_list("a b c\n")


def test_edge_list_numeric_tokens():
    D = parse_edge_list("007 3\n")
    assert "007" in D and 3 in D
    assert serialize_edge_list(D) == "007 3\n"


@pytest.mark.parametrize("edge", [
    ("vertex", "a"),  # would read back as the isolated vertex a
    ("#x", "a"),  # would read back as a comment
    ("10", "a"),  # would read back as the int 10
    ("a\tb", "a"),  # these would not parse at all
    ("a", "a\xa0b"),
    ("", "a"),
], ids=["vertex-tail", "comment-tail", "int-looking", "tab", "nbsp", "empty"])
def test_edge_list_refuses_vertices_that_would_not_read_back(edge):
    D = Digraph()
    D.add_edge(*edge)
    with pytest.raises(ValueError, match="no edge-list representation"):
        serialize_edge_list(D)


def test_edge_list_keeps_tokens_that_are_special_only_at_a_line_start():
    D = Digraph()
    D.add_edge("a", "vertex")
    D.add_edge("b", "#x")
    D.add_vertex("#y")
    text = serialize_edge_list(D)
    assert text == "vertex #y\na vertex\nb #x\n"
    assert parse_edge_list(text) == D


# text built from the format's own tokens and separators, mixed with any
# character at all
TEXT = st.lists(st.one_of(st.sampled_from(["a", "1", "0", "-", "#", " ", "\t", "\n", "\r", "\xa0",
                                           "\x85", "\u2028", "vertex ", "vertex", "10", "007"]),
                          st.characters()), max_size=30).map("".join)
IDS = st.one_of(st.integers(-20, 20), st.text(max_size=4),
                st.sampled_from(["vertex", "#", "#x", "10", "007", "-0", "a b"]))


def _layout(D: Digraph) -> tuple:
    # the adjacency dicts with their insertion orders, which == ignores
    return ([(v, list(nbrs.items())) for v, nbrs in D._succ.items()],
            [(v, list(nbrs.items())) for v, nbrs in D._pred.items()], D.m)


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(TEXT)
def test_parsed_edge_lists_read_back_or_raise_value_error(text):
    # and equal, orders included, what add_vertex and add_edge build
    try:
        want = reference_parse_edge_list(text)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            parse_edge_list(text)
        assert str(got.value) == str(exc)
        return
    D = parse_edge_list(text)
    assert _layout(D) == _layout(want)
    out = serialize_edge_list(D)
    assert parse_edge_list(out) == D
    assert serialize_edge_list(parse_edge_list(out)) == out


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.lists(IDS, max_size=4), st.lists(st.tuples(IDS, IDS), max_size=6))
def test_drawn_digraphs_serialize_faithfully_or_raise_value_error(isolated, edges):
    D = Digraph()
    for v in isolated:
        D.add_vertex(v)
    for u, v in edges:
        D.add_edge(u, v)
    try:
        text = serialize_edge_list(D)
    except ValueError:
        return
    assert parse_edge_list(text) == D
    assert _layout(parse_edge_list(text)) == _layout(reference_parse_edge_list(text))
    shuffled = text.splitlines()
    random.Random(len(text)).shuffle(shuffled)
    text = "\n".join(shuffled)
    assert _layout(parse_edge_list(text)) == _layout(reference_parse_edge_list(text))
