from __future__ import annotations

import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from dirtw import (
    Digraph,
    TerminalSequence,
    brute_force_vertex_cut,
    linear_vertex_cut,
    reachable,
)
from dirtw import lincut
from dirtw.digraph import FlowNetwork, split_network, vkey
from dirtw.lincut import _CutOracle, _separates
from util import (furthest_cut, mixed_id_digraph, network_violating_path, path_digraph, random_digraph,
                  reference_cuts, reference_gadget_network, reference_path_search, reference_violating_path,
                  shuffled_digraph)


def diamond() -> Digraph:
    D = Digraph()
    for u, v in [("a", "b"), ("b", "d"), ("a", "c"), ("c", "d")]:
        D.add_edge(u, v)
    return D


def test_vertex_cut_chain_lex_least_minimum():
    # {a} and {b} are both minimum cuts (terminals are deletable); the
    # lexicographic rule picks {a}, and the brute oracle agrees
    cut = linear_vertex_cut(path_digraph("a", "b", "c"), [{"a"}, {"c"}], 1)
    assert cut.cut_vertices() == {"a"}
    assert brute_force_vertex_cut(path_digraph("a", "b", "c"), [{"a"}, {"c"}], 1).cut_vertices() == {"a"}


def test_vertex_cut_terminal_deletable():
    cut = linear_vertex_cut(path_digraph("a", "b", "c"), [{"a"}, {"b"}, {"c"}], 1)
    assert cut.elements == {"b"}
    assert cut.forced == frozenset()


def test_vertex_cut_diamond_deletes_terminal():
    # {a} is a valid minimum cut: deleting a terminal discharges its demands
    cut = linear_vertex_cut(diamond(), [{"a"}, {"d"}], 2)
    assert cut.elements == {"a"}
    assert brute_force_vertex_cut(diamond(), [{"a"}, {"d"}], 2).elements == {"a"}


def test_vertex_cut_forced_by_overlap():
    D = path_digraph("a", "b", "c")
    cut = linear_vertex_cut(D, [{"a", "b"}, {"b", "c"}], 1)
    assert cut.forced == {"b"}
    assert cut.elements == frozenset()
    assert linear_vertex_cut(D, [{"a", "b"}, {"b", "c"}], 0) is None


def test_vertex_cut_rejects_unknown_terminal():
    with pytest.raises(ValueError):
        linear_vertex_cut(path_digraph("a", "b"), [{"a"}, {"q"}], 1)


def test_rejects_negative_budget_and_empty_block():
    with pytest.raises(ValueError):
        linear_vertex_cut(path_digraph("a"), [{"a"}], -1)
    with pytest.raises(ValueError):
        TerminalSequence([set()])


def ends(net, c: int) -> tuple[int, int]:
    """The (tail, head) nodes of class c of a network."""
    return net.head[c ^ 1], net.head[c]


def classes_of(net) -> dict:
    """A cut network's classes as {(tail, head): cost}, in arc-id order."""
    return {ends(net, c): net.built[c] for c in range(0, net.classes, 2)}


def gadget_classes(net, G, classes) -> frozenset:
    """The classes of the gadget network G with the ends of `classes` of net."""
    of = {ends(G, c): c for c in range(0, G.classes, 2)}
    return frozenset(of[ends(net, c)] for c in classes)


def test_split_reduction_structure():
    # the split layout: v_in = v, v_out = n + v, and no other node
    D = diamond()
    net = split_network(D, D.vertices())
    costs = classes_of(net)
    n, a, b = D.n, net.index["a"], net.index["b"]
    assert net.source == 2 * n
    assert costs[(a, n + a)] == 1
    assert costs[(n + a, b)] == n + 1
    assert list(costs) == sorted(costs)
    assert len(costs) == n + D.m
    # then a source arc and a sink arc per node, switched off
    assert len(net.head) - net.classes == 4 * net.source and not any(net.built[net.classes:])


def random_blocks(rng: random.Random, D: Digraph, max_blocks: int = 4):
    pool = D.sorted_vertices()
    rng.shuffle(pool)
    nblocks = rng.randint(1, max_blocks)
    blocks = []
    for _ in range(nblocks):
        if not pool:
            break
        take = rng.randint(1, min(3, len(pool)))
        blocks.append({pool.pop() for _ in range(take)})
    return blocks


def test_vertex_cut_matches_brute_force():
    rng = random.Random(42)
    checked = 0
    for _ in range(250):
        D = random_digraph(rng, rng.randint(2, 8), rng.random() * 0.5)
        blocks = random_blocks(rng, D)
        if len(blocks) < 2:
            continue
        s = rng.randint(0, 3)
        fast = linear_vertex_cut(D, blocks, s)
        slow = brute_force_vertex_cut(D, blocks, s)
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert fast.size == slow.size
            # both canonicalize to the lexicographically least minimum cut
            assert fast.cut_vertices() == slow.cut_vertices()
            rest = D.minus(fast.cut_vertices())
            for i in range(len(blocks)):
                for j in range(i + 1, len(blocks)):
                    assert not reachable(rest, blocks[i] - fast.cut_vertices(),
                                         blocks[j] - fast.cut_vertices())
            checked += 1
    assert checked > 100


def test_least_budget_lowers_from_the_cap_to_the_least_yes():
    # a counting fake over a question that says yes from `least` up: the
    # search asks the cap, then each lower budget while the answer stays
    # yes and the budget is above lb, so it meets one no at most
    def search(least: int, lb: int, cap: int):
        asked = []

        def fits(budget: int) -> bool:
            asked.append(budget)
            return budget >= least

        return lincut._least_budget(fits, lb, cap), asked

    assert search(3, 0, 6) == (3, [6, 5, 4, 3, 2])
    assert search(0, 0, 2) == (0, [2, 1, 0])
    assert search(5, 5, 5) == (5, [5])
    assert search(7, 0, 6) == (None, [6])
    # at lb it stops without asking below
    assert search(1, 4, 6) == (4, [6, 5, 4])


def test_linear_cut_asks_no_budget_above_the_terminals_outside_the_largest_block(monkeypatch):
    # with disjoint blocks, deleting every terminal outside the largest
    # block is a cut, so no budget above that many is asked however large
    # s is, and the cut is still the brute-force oracle's
    asked: list = []
    real = _CutOracle.feasible

    def spy(self, blocks, removed, budget):
        asked.append(budget)
        return real(self, blocks, removed, budget)

    monkeypatch.setattr(_CutOracle, "feasible", spy)
    rng = random.Random(43)
    seen: Counter = Counter()
    for _ in range(200):
        D = random_digraph(rng, rng.randint(3, 9), rng.random() * 0.6)
        blocks = random_blocks(rng, D)
        if len(blocks) < 2:
            continue
        sizes = [len(b) for b in blocks]
        cap = sum(sizes) - max(sizes)
        s = D.n if rng.random() < 0.5 else cap + rng.randint(0, 2)
        asked.clear()
        fast = linear_vertex_cut(D, blocks, s)
        assert max(asked) == cap, (blocks, s, asked)
        assert fast.cut_vertices() == brute_force_vertex_cut(D, blocks, s).cut_vertices()
        seen["s above the cap"] += s > cap
        seen["optimum below the cap"] += fast.size < cap
    assert min(seen.values()) >= 50, seen


def test_budget_monotonicity():
    rng = random.Random(3)
    for _ in range(60):
        D = random_digraph(rng, rng.randint(2, 7), rng.random() * 0.6)
        blocks = random_blocks(rng, D, max_blocks=3)
        if len(blocks) < 2:
            continue
        s = rng.randint(0, 2)
        cut = linear_vertex_cut(D, blocks, s)
        if cut is not None:
            bigger = linear_vertex_cut(D, blocks, s + 1)
            assert bigger is not None and bigger.size == cut.size


def test_deterministic_output():
    rng = random.Random(9)
    D = random_digraph(rng, 7, 0.4)
    blocks = [{1, 2}, {5}, {6, 7}]
    first = linear_vertex_cut(D, blocks, 3)
    second = linear_vertex_cut(D, blocks, 3)
    assert (first is None and second is None) or first.cut_vertices() == second.cut_vertices()


def test_mixed_ids_match_both_oracles():
    # number order inside the solver must be vkey order: with ids of every
    # type built in shuffled order, the lex-least cut of the solver still
    # matches that of the brute-force oracle
    rng = random.Random(17)
    checked = 0
    for _ in range(200):
        D = mixed_id_digraph(rng, random_digraph(rng, rng.randint(2, 7), rng.random() * 0.5))
        if rng.random() < 0.3:
            u, v = rng.sample(D.sorted_vertices(), 2)
            D.add_edge(u, v)  # a parallel copy or a fresh class
            D.add_edge(v, v)
        blocks = random_blocks(rng, D)
        if len(blocks) < 2:
            continue
        s = rng.randint(0, 3)
        fast = linear_vertex_cut(D, blocks, s)
        slow = brute_force_vertex_cut(D, blocks, s)
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert fast.cut_vertices() == slow.cut_vertices() and fast.forced == slow.forced
            checked += 1
    assert checked > 60


def test_violating_path_matches_vertex_keyed_reference():
    # on the split network of a mixed-id graph, against the vertex-keyed
    # search on the digraph of the classes of the gadget network, where
    # each terminal hangs off a gadget node, with the classes of the same
    # ends removed: the extraction's check says yes exactly when the
    # reference finds no path, and the int-keyed path that the oracle's
    # reference search branches on is the reference's path
    rng = random.Random(5)
    found = beyond_next = 0
    for _ in range(300):
        D = mixed_id_digraph(rng, random_digraph(rng, rng.randint(2, 9), rng.random() * 0.6))
        blocks = random_blocks(rng, D, max_blocks=5)
        if len(blocks) < 2:
            continue
        net = split_network(D, D.vertices())
        numbered = [sorted(net.ids(b)) for b in blocks]
        G, gadget = reference_gadget_network(net, [v for b in numbered for v in b])
        blocks = [frozenset(gadget[v] for v in b) for b in numbered]
        H = Digraph()
        for c in range(0, G.classes, 2):
            H.add_edge(*ends(G, c))
        removed = frozenset(rng.sample(range(0, net.classes, 2), rng.randint(0, net.classes // 8)))
        want = reference_violating_path(H, blocks, frozenset(ends(net, c) for c in removed))
        assert _separates(net, numbered, removed) == (want is None)
        got = network_violating_path(G, [sorted(b) for b in blocks], gadget_classes(net, G, removed))
        if got is not None:
            got = [ends(G, c) for c in got]
            found += 1
            start = next(i for i, b in enumerate(blocks) if got[0][0] in b)
            beyond_next += got[-1][1] not in blocks[start + 1]
        assert got == want
    # paths were found, and some ended beyond the next block
    assert found > 100 and beyond_next > 5


def test_separates_meets_a_later_block_that_shares_a_vertex():
    # a vertex in blocks 0 and 2 reaches its own out-node through its split
    # arc: a path from block 0 to block 2 that only deleting it kills
    D = Digraph()
    D.add_vertex("a")
    D.add_vertex("b")
    net = split_network(D, D.vertices())
    a, b = net.ids(["a", "b"])
    assert not _separates(net, [[a], [b], [a]], frozenset())
    assert _separates(net, [[a], [b], [a]], frozenset({2 * a}))
    assert _separates(net, [[a], [b]], frozenset())
    # on random blocks drawn with repeats, against reachability in D minus
    # the vertices whose split arcs are removed
    rng = random.Random(8)
    shared = 0
    for _ in range(300):
        D = mixed_id_digraph(rng, random_digraph(rng, rng.randint(2, 7), rng.random() * 0.5))
        vs = D.sorted_vertices()
        blocks = [set(rng.sample(vs, rng.randint(1, min(2, len(vs))))) for _ in range(rng.randint(2, 4))]
        R = set(rng.sample(vs, rng.randint(0, len(vs) // 3)))
        net = split_network(D, vs)
        rest = D.minus(R)
        want = not any(reachable(rest, blocks[i] - R, blocks[j] - R)
                       for i in range(len(blocks)) for j in range(i + 1, len(blocks)))
        removed = frozenset(2 * v for v in net.ids(R))
        assert _separates(net, [sorted(net.ids(b)) for b in blocks], removed) == want
        shared += any(blocks[i] & blocks[j] - R for i in range(len(blocks)) for j in range(i + 1, len(blocks)))
    assert shared > 50


def test_cut_oracle_matches_the_search():
    # the important-cut oracle on vertex-split reductions of mixed-id
    # multigraphs with loops, built as the package builds them, against the
    # search that branches on violating paths between the gadgets of the
    # gadget network, with wide arcs above every budget asked and the
    # classes of the same ends removed; like the partition engine, one
    # oracle holds every terminal and answers several orderings, removed
    # sets and budgets, so its memo is shared between questions
    rng = random.Random(31)
    seen: Counter = Counter()
    for _ in range(3000):
        D = mixed_id_digraph(rng, shuffled_digraph(rng, rng.randint(2, 7)))
        blocks = []
        while len(blocks) < 2:
            blocks = random_blocks(rng, D)
        net = split_network(D, D.vertices())
        terminals = [sorted(net.ids(b)) for b in blocks]
        G, gadget = reference_gadget_network(net, [v for b in terminals for v in b], 5)
        oracle = _CutOracle(net)
        classes = list(range(0, net.classes, 2))
        for _ in range(4):
            order = rng.sample(terminals, len(terminals))
            removed = frozenset(c for c in classes if rng.random() < 0.15)
            budget = rng.randint(0, 4)
            want = reference_path_search(G, [[gadget[v] for v in b] for b in order], gadget_classes(net, G, removed),
                                         frozenset(), 0, budget) is not None
            assert oracle.feasible(order, removed, budget) == want, (order, removed, budget)
            seen[want, len(order) > 2, bool(removed)] += 1
    # both answers, with three or more blocks, with removed classes
    assert min(seen[want, True, True] for want in (False, True)) > 50, seen


def test_the_extraction_needs_no_banned_classes():
    # `_lec_solve` leaves a split arc out when no cut of the optimum's size
    # holds it with the arcs kept so far; those only grow, so no later
    # probe's cut can hold it.  Each probe, asked with nothing banned, must
    # answer as the search over violating paths does with every arc left
    # out so far banned, and the greedy must end on `_lec_solve`'s cut
    rng = random.Random(37)
    probes: Counter = Counter()
    for _ in range(1000):
        D = mixed_id_digraph(rng, shuffled_digraph(rng, rng.randint(3, 9)))
        blocks = []
        while len(blocks) < 2:
            blocks = random_blocks(rng, D)
        net = split_network(D, D.vertices())
        numbered = [sorted(net.ids(b)) for b in blocks]
        G, gadget = reference_gadget_network(net, [v for b in numbered for v in b])
        gblocks = [[gadget[v] for v in b] for b in numbered]
        oracle = _CutOracle(net)
        optimum = next(b for b in range(net.n + 1) if oracle.feasible(numbered, (), b))
        chosen: set = set()
        out: set = set()
        for cls in range(0, 2 * net.n, 2):
            if len(chosen) == optimum:
                break
            budget = optimum - len(chosen) - 1
            got = oracle.feasible(numbered, chosen | {cls}, budget)
            want = reference_path_search(G, gblocks, gadget_classes(net, G, chosen | {cls}),
                                         gadget_classes(net, G, out), 0, budget) is not None
            assert got == want, (numbered, chosen, cls, out)
            probes[bool(out), got] += 1
            (chosen if got else out).add(cls)
        assert lincut._lec_solve(_CutOracle(net), numbered, optimum) == frozenset(chosen)
    assert probes[True, False] >= 200, probes


def test_interning_orders_numbers_by_vkey():
    rng = random.Random(2)
    D = mixed_id_digraph(rng, random_digraph(rng, 9, 0.4))
    blocks = random_blocks(rng, D)
    net = split_network(D, D.vertices())
    assert net.names == D.sorted_vertices()
    assert all(net.index[v] == i for i, v in enumerate(net.names))
    n = len(net.names)
    costs = classes_of(net)
    assert list(costs) == sorted(costs)
    # the edge classes, out_u -> in_w, come in vkey order of (u, w)
    assert [(net.names[u - n], net.names[w]) for u, w in costs if n <= u < 2 * n] == sorted(
        ((u, v) for u, v, _ in D.edge_classes() if u != v), key=lambda e: (vkey(e[0]), vkey(e[1])))
    assert all(succ == sorted(succ) for succ in net.succ)
    for b in blocks:
        assert {net.names[v] for v in net.ids(b)} == b
    # a vertex subset keeps vkey order and drops the edges leaving it
    keep = net.names[::2]
    sub = split_network(D, keep)
    assert sub.names == keep
    assert [[sub.names[w] for w in succ] for succ in sub.succ] == [
        [w for w in net.names if w in keep and w != v and D.has_edge(v, w)] for v in keep]


def test_non_split_arc_in_a_reduction_cut_is_an_error(monkeypatch):
    # the split-arcs-only guarantee is checked by an explicit error, so it
    # holds under python -O as well
    # the arc out_a -> in_b of the three-vertex reduction, out_a = 3 + 0 and
    # in_b = 1, is its class after the three split arcs: arc id 6
    monkeypatch.setattr(lincut, "_lec_solve", lambda *args: frozenset({6}))
    with pytest.raises(RuntimeError, match="non-split arc"):
        linear_vertex_cut(path_digraph("a", "b", "c"), [{"a"}, {"c"}], 1)


def widened(net, arcs):
    """`net` with the classes `arcs` built wider than every flow limit, as
    no cut can pay."""
    for a in arcs:
        net.built[a] = 10 * net.n
    return net


def test_cut_oracle_refuses_an_affordable_wide_arc():
    # the oracle counts a cut's classes, which prices it right only when
    # every class within budget is a split arc; `feasible` caps a budget
    # above n, where an edge arc, costing n + 1, would be affordable, so
    # with every split arc widened beyond reach no budget buys a cut
    D = path_digraph(1, 2, 3)

    def feasible(wide, budget: int) -> bool:
        return _CutOracle(widened(split_network(D, D.vertices()), wide)).feasible([[0], [1], [2]], (), budget)

    assert feasible((), 2) and not feasible((), 0)
    assert not any(feasible({0, 2, 4}, budget) for budget in range(8))
    one = widened(split_network(path_digraph(1, 2), [1, 2]), {0, 2})
    assert not _CutOracle(one).feasible([[0], [1]], (), 3)
    # asked past the cap, the search raises instead of counting an edge arc
    net = widened(split_network(D, D.vertices()), {0, 2, 4})
    with pytest.raises(RuntimeError, match="non-split arc"):
        _CutOracle(net)._fits([(0,), (1,)], (2,), 1, frozenset(), net.n + 1)
    # the split arcs are the first n classes, named by their vertices; any
    # other arc is refused
    assert net.split_vertices([0, 4]) == [1, 3]
    for arc in (2 * net.n, net.classes - 2, 1):
        with pytest.raises(RuntimeError, match="non-split arc"):
            net.split_vertices([0, arc])


def test_extraction_that_leaves_a_violating_path_is_an_error():
    # an oracle that says yes to everything makes a set look like a cut
    # that is none: the empty set for the linear cut; for the engine, which
    # starts its extraction at the budget of 1, vertex 1, which leaves the
    # arc 2 -> 3.  The check after the one extraction catches both, under
    # python -O as well.  An
    # `any_order` that says yes to everything sends the engine below the
    # triangle's one-vertex cut, where the walk to the first fitting
    # ordering finds none and says so
    script = (
        "from dirtw import balsep, lincut\n"
        "from dirtw.digraph import Digraph\n"
        "feasible = lincut._CutOracle.feasible\n"
        "D = Digraph()\n"
        "for u, v in [(1, 2), (2, 3), (3, 1)]:\n"
        "    D.add_edge(u, v)\n"
        "def lying(name, answer, call):\n"
        "    setattr(lincut._CutOracle, name, lambda self, *args: answer)\n"
        "    try:\n"
        "        call()\n"
        "    except RuntimeError as exc:\n"
        "        print(exc)\n"
        "lying('feasible', True, lambda: lincut.linear_vertex_cut(D, [{1}, {3}], 1))\n"
        "lying('feasible', True, lambda: balsep._partition_min_cut(D, {1, 2, 3}, frozenset({2, 3}), 1, 1, 1))\n"
        "lincut._CutOracle.feasible = feasible\n"
        "lying('any_order', True, lambda: balsep._partition_min_cut(D, {1, 2, 3}, frozenset({1, 2, 3}), 1, 1, 0))\n"
    )
    src = str(Path(lincut.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("lex-least extraction left a violating path\n" * 2
                           + "no ordering of the terminals fits the budget\n")


def _cut_question(rng: random.Random, net) -> tuple:
    """Random arguments of `_CutOracle._cuts` on a split network: sources X
    and sinks on distinct vertices, and removed classes."""
    n = net.n
    vs = rng.sample(range(n), rng.randint(2, n))
    cut = rng.randint(1, 2)
    X = tuple(sorted(vs[:cut]))
    sinks = frozenset(n + y for y in vs[cut:])
    removed = frozenset(rng.sample(range(0, net.classes, 2), rng.randint(0, 1)))
    return X, sinks, removed


def test_carried_cut_lists_match_the_fresh_flow_reference():
    # each branch of the important-cut search carries its parent's flow,
    # and a budget below the one a list was found at filters that list; the
    # parent search, a fresh flow at every node, must give the same sets in
    # the same order, filtered lists included
    rng = random.Random(30)
    seen = Counter()
    for _ in range(2000):
        D = random_digraph(rng, rng.randint(5, 11), rng.uniform(0.25, 0.6))
        net = split_network(D, D.vertices())
        oracle = _CutOracle(net)
        question = _cut_question(rng, net)
        # mostly the largest budget first, so that the lower ones filter its list
        budgets = ([4] + rng.sample(range(4), rng.randint(0, 3)) if rng.random() < 0.7
                   else rng.sample(range(5), rng.randint(1, 3)))
        for budget in budgets:
            held = oracle.memo.get(question)
            got = oracle._cuts(*question, budget)
            assert got == reference_cuts(net, *question, budget), (question, budget)
            filtered = held is not None and held[0] > budget
            seen["filtered" if filtered else "searched"] += 1
            seen["several"] += len(got) > 1
            seen["filtered several"] += filtered and len(got) > 1
            seen["filtered out"] += filtered and len(got) < len(held[1])
    assert min(seen.values()) > 200, seen


def test_each_branch_step_leaves_the_flow_and_cut_of_a_fresh_flow(monkeypatch):
    # after the cut step (a unit cancelled, no pass) and the extend step (an
    # augmentation from the parent's flow) the network must hold a maximum
    # flow for the branch's question: its value and furthest minimum cut
    # are those of a fresh flow on a second copy of the network, and an
    # extend step that passes the budget stops where a fresh flow does
    real_cuts, real_important = _CutOracle._cuts, _CutOracle._important
    real_cut_unit, real_extend = FlowNetwork.cut_unit, FlowNetwork.extend
    state = {"step": None, "removed": None, "branch": []}
    steps = Counter()

    def fresh_flow(X, Y, limit, F):
        fresh = split_network(*state["graph"])
        return fresh.flow(X, Y, limit, state["removed"] | F), fresh

    def cuts(self, X, sinks, removed, budget):
        state["removed"] = removed
        return real_cuts(self, X, sinks, removed, budget)

    def important(self, Y, F, budget, flow, found):
        value, fresh = fresh_flow(self.net.sources, Y, budget + 1, F)
        assert value == flow and furthest_cut(fresh) == furthest_cut(self.net)
        steps[state["step"]] += 1
        state["step"] = None
        state["branch"].append((Y, F))
        try:
            return real_important(self, Y, F, budget, flow, found)
        finally:
            state["branch"].pop()

    def cut_unit(self, *args):
        state["step"] = "cut"
        return real_cut_unit(self, *args)

    def extend(self, X, limit, flow):
        state["step"] = "extend"
        value = real_extend(self, X, limit, flow)
        Y, F = state["branch"][-1]
        assert value == fresh_flow(X, Y, limit, F)[0]
        steps["extend past the budget"] += value == limit
        return value

    monkeypatch.setattr(_CutOracle, "_cuts", cuts)
    monkeypatch.setattr(_CutOracle, "_important", important)
    monkeypatch.setattr(FlowNetwork, "cut_unit", cut_unit)
    monkeypatch.setattr(FlowNetwork, "extend", extend)
    rng = random.Random(31)
    for _ in range(1000):
        D = random_digraph(rng, rng.randint(5, 11), rng.uniform(0.25, 0.6))
        state["graph"] = (D, list(D.vertices()))
        net = split_network(*state["graph"])
        _CutOracle(net)._cuts(*_cut_question(rng, net), rng.randint(2, 4))
    assert min(steps[step] for step in ("cut", "extend", None, "extend past the budget")) > 300, steps


def test_a_flow_handed_over_that_is_not_maximum_is_an_error(monkeypatch):
    # the cut step confirms its flow with no pass; the furthest-cut pass
    # that follows every step refuses a flow the source can still augment,
    # with an explicit error that holds under python -O as well
    D = Digraph()
    D.add_edge(1, 2)
    D.add_edge(3, 4)
    net = split_network(D, D.vertices())
    X, Y = [0, 2], frozenset({net.n + 1, net.n + 3})
    assert net.flow(X, Y, 1) == 1  # one of two units
    with pytest.raises(RuntimeError, match="not maximum"):
        _CutOracle(net)._important(Y, frozenset(), 2, 1, [])
    # an extend step that switches the new source on without augmenting
    # hands its branch a flow the source can still augment
    monkeypatch.setattr(FlowNetwork, "extend",
                        lambda self, X, limit, flow: self._switch_on(X, limit) or flow + 1)
    # (from 1 to the sinks 3 and 4 of 1 -> 2 -> {3, 4}, the furthest least
    # cut is 2's split arc, and moving its head to the source side is such
    # a step)
    fork = Digraph()
    for u, v in [(1, 2), (2, 3), (2, 4)]:
        fork.add_edge(u, v)
    fork = split_network(fork, fork.vertices())
    with pytest.raises(RuntimeError, match="not maximum"):
        _CutOracle(fork)._cuts((0,), frozenset({fork.n + 2, fork.n + 3}), frozenset(), 2)
    script = (
        "from dirtw.digraph import Digraph, split_network\n"
        "from dirtw.lincut import _CutOracle\n"
        "D = Digraph()\n"
        "D.add_edge(1, 2)\n"
        "D.add_edge(3, 4)\n"
        "net = split_network(D, D.vertices())\n"
        "X, Y = [0, 2], frozenset({net.n + 1, net.n + 3})\n"
        "flow = net.flow(X, Y, 1)\n"
        "try:\n"
        "    _CutOracle(net)._important(Y, frozenset(), 2, flow, [])\n"
        "except RuntimeError as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(lincut.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "the flow handed to the important-cut search is not maximum\n"
