from __future__ import annotations

import random

import pytest

from dirtw import (
    Digraph,
    Path,
    is_guarded,
    menger,
    parse_edge_list,
    reachable,
    scc,
    serialize_edge_list,
    vkey,
    vsorted,
)
from dirtw.digraph import _SNK, _SRC, split_network, tarjan_sccs
from util import (
    bidirected_clique,
    brute_guarded,
    brute_min_vertex_separator,
    brute_scc_partition,
    dfs_path_exists,
    path_digraph,
    pendant_pairs_digraph,
    random_digraph,
    subsets_up_to,
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
    assert sorted(D.edges()) == [("a", "b")] * 3 + [("b", "b")]


def test_induced_subgraph_keeps_multiplicities():
    D = Digraph()
    D.add_edge(1, 2, 3)
    D.add_edge(2, 3)
    D.add_edge(3, 1)
    sub = D.minus({3})
    assert sub.n == 2 and sub.m == 3 and sub.mult(1, 2) == 3
    assert D.copy() == D


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
    assert scc(single).components == [frozenset({"v"})]

    chain = path_digraph("a", "b", "c")
    assert scc(chain).components == [frozenset("c"), frozenset("b"), frozenset("a")]


def test_scc_strongly_connected_example():
    dec = scc(pendant_pairs_digraph())
    assert dec.components == [frozenset("abcdefg")]


def test_scc_order_forbids_forward_paths():
    rng = random.Random(7)
    for _ in range(40):
        D = random_digraph(rng, rng.randint(1, 12), rng.random() * 0.5)
        dec = scc(D)
        assert brute_scc_partition(D) == set(dec.components)
        for i, earlier in enumerate(dec.components):
            for later in dec.components[i + 1:]:
                assert not dfs_path_exists(D, earlier, later)


def test_scc_canonical_across_construction_orders():
    left = Digraph()
    for u, v in [(1, 2), (2, 1), (3, 4), (4, 3)]:
        left.add_edge(u, v)
    right = Digraph()
    for u, v in [(4, 3), (3, 4), (2, 1), (1, 2)]:
        right.add_edge(u, v)
    assert scc(left).components == scc(right).components


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


def _shuffled_digraph(rng: random.Random, n: int) -> Digraph:
    """Random digraph with loops and parallel arcs, built in shuffled order
    so that Tarjan's emission order is not the sorted one."""
    D = Digraph()
    vs = list(range(1, n + 1))
    rng.shuffle(vs)
    for v in vs:
        D.add_vertex(v)
    p = rng.random()
    arcs = [(u, v) for u in vs for v in vs if rng.random() < p]
    rng.shuffle(arcs)
    for u, v in arcs:
        D.add_edge(u, v, rng.randint(1, 2))
    return D


def test_banned_set_matches_deleting_by_copy():
    rng = random.Random(33)
    for _ in range(300):
        D = _shuffled_digraph(rng, rng.randint(0, 8))
        # banned ids that are not vertices of D are ignored, as by minus
        Z = {v for v in D.vertices() if rng.random() < 0.3} | {0, "ghost", (1, 2)}
        assert tarjan_sccs(D, Z) == tarjan_sccs(D.minus(Z))
        assert tarjan_sccs(D, iter(sorted(Z, key=vkey))) == tarjan_sccs(D.minus(Z))
        assert scc(D, Z).components == scc(D.minus(Z)).components
    assert tarjan_sccs(D) == tarjan_sccs(D, ()) == tarjan_sccs(D.minus(()))


def test_reachable_matches_dfs_oracle():
    rng = random.Random(34)
    for _ in range(300):
        D = _shuffled_digraph(rng, rng.randint(0, 7))
        X = [v for v in D.vertices() if rng.random() < 0.3] + ["ghost"]
        Y = [v for v in D.vertices() if rng.random() < 0.3] + [0]
        assert reachable(D, X, Y) == dfs_path_exists(D, X, Y)


def test_is_guarded_whole_graph_and_chain():
    D = path_digraph("a", "b", "c")
    assert is_guarded(D, {"a", "b", "c"}, set())
    assert not is_guarded(D, {"a", "c"}, set())
    assert is_guarded(D, {"a", "c"}, {"b"})


def test_is_guarded_pendant_pairs():
    D = pendant_pairs_digraph()
    S = set("bcdefg")
    assert is_guarded(D, S, {"b", "c"})
    # overlapping guard vertices are treated as removed with Z
    assert is_guarded(D, S | {"b"}, {"b", "c"}) == is_guarded(D, S, {"b", "c"})
    assert not is_guarded(D, {"d", "e", "f", "g"}, {"b"})


def test_is_guarded_matches_walk_oracle():
    rng = random.Random(21)
    for _ in range(200):
        n = rng.randint(1, 5)
        D = random_digraph(rng, n, rng.random())
        vs = list(D.vertices())
        Z = {v for v in vs if rng.random() < 0.3}
        S = {v for v in vs if v not in Z and rng.random() < 0.5}
        assert is_guarded(D, S, Z) == brute_guarded(D, S, Z)


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


def test_split_network_reuse_after_restoring_capacities():
    rng = random.Random(5)
    for _ in range(30):
        D = random_digraph(rng, 7, 0.35)
        vs = D.sorted_vertices()
        X, Y = set(rng.sample(vs, 2)), set(rng.sample(vs, 2))
        u, w = rng.sample(vs, 2)
        limit = rng.choice([None, 1, 2])
        net = split_network(D, X, Y)
        fresh = dict(net.cap)
        for s, t in [(_SRC, _SNK), (("out", u), ("in", w))]:
            first = net.max_flow(s, t, limit=limit)
            net.cap = dict(fresh)
            assert net.max_flow(s, t, limit=limit) == first
            net.cap = dict(fresh)
            assert split_network(D, X, Y).max_flow(s, t, limit=limit) == first
        # without the restore the saturated paths stay used up
        if net.max_flow(_SRC, _SNK) > 0:
            assert net.max_flow(_SRC, _SNK) == 0
        full = split_network(D, X, Y).max_flow(_SRC, _SNK)
        assert full == brute_min_vertex_separator(D, X, Y)


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
