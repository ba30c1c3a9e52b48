"""Balanced-separator layer: partition enumeration against an independent
counting recurrence, solver verdicts against the subset-scan oracle, and the
worked small instances with frozen outputs."""
import os
import random
import subprocess
import sys
from collections import Counter
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

from dirtw import (
    BalancedSeparatorInstance,
    BalancedSeparatorResult,
    Digraph,
    TerminalSequence,
    balanced_separator,
    brute_force_balanced_separator,
    is_balanced_separator,
    ordered_partitions,
    vsorted,
)

import dirtw
import dirtw.cli
import util
from dirtw import arboreal, balsep, digraph, lincut
from dirtw.bramble import TBramble, order_parameter
from dirtw.balsep import offending_components
from dirtw.digraph import split_network
from util import (
    bidirected_clique,
    bidirected_cycle,
    brute_scc_partition,
    dfs_path_exists,
    mixed_id_digraph,
    path_digraph,
    random_digraph,
    reference_branch_min_cut,
    reference_component_lb,
    reference_offending_components,
    reference_partition_min_cut,
    triangle_gadget,
    two_cycle_tail,
)


def counted_ordered_partitions(n: int, r: int) -> int:
    # independent of the generator: recurrence over the first block,
    # f(m) = sum_{j=1..min(r,m)} C(m, j) * f(m - j)
    memo = {0: 1}

    def f(m: int) -> int:
        if m not in memo:
            memo[m] = sum(comb(m, j) * f(m - j) for j in range(1, min(r, m) + 1))
        return memo[m]

    return f(n)


def solve(D, T, r, s):
    return balanced_separator(BalancedSeparatorInstance(D, frozenset(T), r, s))


# ---------------------------------------------------------------- partitions


def test_ordered_partition_counts_match_recurrence():
    for n in range(0, 6):
        for r in range(1, n + 2):
            got = sum(1 for _ in ordered_partitions(range(n), r))
            assert got == counted_ordered_partitions(n, r), (n, r)


def test_unbounded_block_counts_are_fubini_numbers():
    # with the block cap at |T| nothing is excluded: 1, 3, 13, 75, 541
    got = [sum(1 for _ in ordered_partitions(range(n), n)) for n in range(1, 6)]
    assert got == [1, 3, 13, 75, 541]
    assert got == [counted_ordered_partitions(n, n) for n in range(1, 6)]


def test_three_singletons_give_six_orderings():
    seqs = list(ordered_partitions([1, 2, 3], 1))
    assert len(seqs) == 6
    assert all(len(seq) == 3 and all(len(b) == 1 for b in seq) for seq in seqs)
    assert seqs[0] == TerminalSequence([{1}, {2}, {3}])


def test_partition_enumeration_is_canonical_and_exact():
    seqs = list(ordered_partitions([1, 2, 3], 2))
    assert len(seqs) == 12  # 13 minus the single oversized block
    assert seqs[:3] == [
        TerminalSequence([{1, 2}, {3}]),
        TerminalSequence([{1, 3}, {2}]),
        TerminalSequence([{2, 3}, {1}]),
    ]
    seen = set()
    for seq in seqs:
        assert all(1 <= len(b) <= 2 for b in seq.blocks)
        assert frozenset().union(*seq.blocks) == {1, 2, 3}
        assert sum(len(b) for b in seq.blocks) == 3  # pairwise disjoint
        seen.add(seq.blocks)
    assert len(seen) == 12


def test_partition_bound_must_be_positive():
    with pytest.raises(ValueError):
        next(ordered_partitions([1, 2], 0))


def test_empty_terminal_set_has_one_partition():
    assert list(ordered_partitions([], 3)) == [TerminalSequence([])]


# ---------------------------------------------------------- balance checking


def test_triangle_gadget_hub_deletion_is_balanced():
    D = triangle_gadget()
    assert is_balanced_separator(D, {"v1", "v2", "v3"}, 1, {"v1"})
    assert not is_balanced_separator(D, {"v1", "v2", "v3"}, 1, set())


def test_clique_resists_all_two_deletions():
    D = bidirected_clique(5)
    T = set(D.vertices())
    for a in range(1, 6):
        for b in range(a + 1, 6):
            assert not is_balanced_separator(D, T, 2, {a, b})


def test_two_cycle_tail_known_separator():
    D = two_cycle_tail()
    T = {f"v{i}" for i in range(1, 8)}
    assert is_balanced_separator(D, T, 3, {"v4", "v9"})


# ------------------------------------------------------------------- solver


def test_acyclic_terminals_need_nothing():
    D = path_digraph("a", "b", "c")
    res = solve(D, {"a", "b", "c"}, 1, 0)
    assert res.separator == frozenset()


def test_quota_swallows_everything():
    res = solve(bidirected_clique(6), {1, 2, 3}, 3, 0)
    assert res.separator == frozenset()


def test_budget_arm_returns_canonical_terminal_subset():
    # |T| - r = 3 <= s, so the three smallest terminals come back
    res = solve(bidirected_clique(6), {1, 2, 3, 4, 5}, 2, 3)
    assert res.separator == frozenset({1, 2, 3})


def test_clique_is_linked():
    res = solve(bidirected_clique(5), set(range(1, 6)), 2, 2)
    assert res.linked
    assert brute_force_balanced_separator(bidirected_clique(5), set(range(1, 6)), 2, 2).linked


def test_larger_clique_linked_and_brute_agrees():
    D = bidirected_clique(7)
    T = set(range(1, 8))
    assert solve(D, T, 2, 3).linked
    assert brute_force_balanced_separator(D, T, 2, 3).linked


def test_two_disjoint_cliques_certify_additively():
    D = Digraph()
    for base in (0, 4):
        for i in range(1, 5):
            for j in range(i + 1, 5):
                D.add_bidirected(base + i, base + j)
    T = set(D.vertices())
    assert solve(D, T, 1, 2).linked
    assert brute_force_balanced_separator(D, T, 1, 2).linked


def test_two_cycle_tail_solver_output():
    D = two_cycle_tail()
    T = {f"v{i}" for i in range(1, 8)}
    res = solve(D, T, 3, 2)
    # greedy batch answer; the brute oracle prefers the smaller canonical set
    assert res.separator == frozenset({"v1", "v2"})
    assert is_balanced_separator(D, T, 3, res.separator)
    assert brute_force_balanced_separator(D, T, 3, 2).separator == frozenset({"v1"})


def test_exact_layer_uses_nonterminal_hub():
    # all-singleton greedy deletions fail; the true optimum is the centre
    D = Digraph()
    for leaf in ("t1", "t2", "t3", "t4"):
        D.add_bidirected("c", leaf)
    res = solve(D, {"t1", "t2", "t3", "t4"}, 1, 1)
    assert res.separator == frozenset({"c"})
    assert brute_force_balanced_separator(D, {"t1", "t2", "t3", "t4"}, 1, 1).separator == frozenset({"c"})


def test_zero_quota_in_tight_region_is_linked():
    D = path_digraph(1, 2, 3)
    res = solve(D, {1, 2, 3}, 0, 2)
    assert res.linked
    assert brute_force_balanced_separator(D, {1, 2, 3}, 0, 2).linked


def test_empty_terminals_trivially_fine():
    assert solve(bidirected_clique(4), set(), 0, 0).separator == frozenset()


def test_instance_validation():
    D = path_digraph(1, 2)
    with pytest.raises(ValueError):
        BalancedSeparatorInstance(D, frozenset({9}), 1, 1)
    with pytest.raises(ValueError):
        BalancedSeparatorInstance(D, frozenset({1}), -1, 0)
    with pytest.raises(ValueError):
        BalancedSeparatorInstance(D, frozenset({1}), 0, -2)


def test_result_equality_and_repr():
    assert BalancedSeparatorResult(None).linked
    assert BalancedSeparatorResult(frozenset({1})) == BalancedSeparatorResult(frozenset({1}))
    assert BalancedSeparatorResult(None) != BalancedSeparatorResult(frozenset())
    assert "Linked" in repr(BalancedSeparatorResult(None))


# --------------------------------------------------------------- properties


def test_verdict_agreement_with_oracle():
    rng = random.Random(0xBA15E9)
    checked = 0
    for _ in range(150):
        n = rng.randint(1, 8)
        D = random_digraph(rng, n, rng.uniform(0.1, 0.5))
        verts = D.sorted_vertices()
        T = frozenset(rng.sample(verts, rng.randint(0, len(verts))))
        r = rng.randint(0, 3)
        s = rng.randint(0, 3)
        got = solve(D, T, r, s)
        want = brute_force_balanced_separator(D, T, r, s)
        assert got.linked == want.linked, (n, sorted(map(str, T)), r, s)
        if not got.linked:
            assert len(got.separator) <= s
            assert is_balanced_separator(D, T, r, got.separator)
        checked += 1
    assert checked == 150


def test_flow_free_bound_agrees_with_the_oracle_on_near_complete_components():
    # complete digraphs with loops and parallel arcs, less up to two arcs:
    # only a component with an arc between every two distinct vertices may
    # take the bound min(tc - r, |C| - 1), and a looped vertex that misses
    # one arc must not pass for complete
    rng = random.Random(0xF4EE)
    traps = 0
    for i in range(3000):
        n = rng.randint(3, 7)
        pairs = [(u, w) for u in range(1, n + 1) for w in range(1, n + 1) if u != w]
        missing = rng.sample(pairs, rng.randint(0, 2))
        D = Digraph()
        for u, w in pairs:
            if (u, w) not in missing:
                D.add_edge(u, w, rng.choice((1, 1, 2)))
        looped = {v for v in range(1, n + 1) if rng.random() < 0.7}
        for v in looped:
            D.add_edge(v, v, rng.randint(1, 2))
        D = mixed_id_digraph(rng, D)
        vs = D.sorted_vertices()
        r = rng.randint(1, 3)
        T = frozenset(rng.sample(vs, rng.randint(min(r + 1, n), n)))
        s = rng.randint(0, max(0, len(T) - r - 1))
        got = solve(D, T, r, s)
        assert got.linked == brute_force_balanced_separator(D, T, r, s).linked, (i, vsorted(T), r, s)
        if not got.linked:
            assert len(got.separator) <= s and is_balanced_separator(D, T, r, got.separator)
            traps += bool(missing) and all(u in looped for u, _ in missing)
    assert traps >= 100, traps


def test_relaxing_either_parameter_preserves_feasibility():
    rng = random.Random(0x5EA50)
    for _ in range(60):
        D = random_digraph(rng, rng.randint(2, 7), rng.uniform(0.2, 0.6))
        verts = D.sorted_vertices()
        T = frozenset(rng.sample(verts, rng.randint(1, len(verts))))
        r = rng.randint(0, 2)
        s = rng.randint(0, 2)
        if not solve(D, T, r, s).linked:
            assert not solve(D, T, r + 1, s).linked
            assert not solve(D, T, r, s + 1).linked


def test_solver_is_deterministic():
    rng = random.Random(7)
    for _ in range(25):
        D = random_digraph(rng, 7, 0.3)
        T = frozenset(D.sorted_vertices()[:5])
        first = solve(D, T, 2, 2)
        again = solve(D, T, 2, 2)
        assert first == again


def test_offending_components_match_brute_partition():
    rng = random.Random(11)
    for trial in range(60):
        D = random_digraph(rng, rng.randint(1, 8), rng.choice([0.15, 0.3, 0.5]))
        vs = D.sorted_vertices()
        T = frozenset(rng.sample(vs, rng.randint(0, len(vs))))
        Z = frozenset() if trial % 2 else frozenset(rng.sample(vs, rng.randint(1, len(vs))))
        r = rng.randint(0, 2)
        expected = sorted((c for c in brute_scc_partition(D.minus(Z)) if len(c & T) > r),
                          key=lambda c: min(c & T))
        got = offending_components(D, T, r, Z)
        assert [frozenset(c) for c in got] == expected
        assert is_balanced_separator(D, T, r, Z) == (not expected)


def _near_clique(rng: random.Random) -> tuple[Digraph, set, str]:
    """A complete digraph on up to 8 mixed ids, built in shuffled order, and
    a deleted set Z, often leaving 0 or 1 vertices and holding ids outside
    D; less one arc, or less every arc into or out of the first vertex of
    D - Z (the one the offender test reads), with loops and parallel arcs."""
    n = rng.randint(0, 8)
    D = mixed_id_digraph(rng, random_digraph(rng, n, 0.0)) if n else Digraph()
    vs = list(D.vertices())  # construction order
    Z = set(rng.sample(vs, rng.randint(0, n // 2)))
    if rng.random() < 0.2:
        Z = set(vs[:max(0, n - rng.randint(0, 1))])
    if rng.random() < 0.3:
        Z |= {"absent", ("gone", 1)}
    first = next((v for v in vs if v not in Z), None)
    arcs = {(u, w) for u in vs for w in vs if u != w}
    kind = rng.choice(["clique", "less one arc", "less one arc at first", "less into first", "less out of first"])
    if kind == "less one arc" and arcs:
        arcs.discard(rng.choice(sorted(arcs, key=repr)))
    elif kind == "less one arc at first" and first is not None and n > 1:
        other = rng.choice([v for v in vs if v != first])
        arcs.discard(rng.choice([(first, other), (other, first)]))
    elif kind == "less into first":
        arcs = {(u, w) for u, w in arcs if w != first or (u in Z and rng.random() < 0.5)}
    elif kind == "less out of first":
        arcs = {(u, w) for u, w in arcs if u != first or (w in Z and rng.random() < 0.5)}
    arcs |= {(v, v) for v in vs if rng.random() < 0.3}
    for u, w in rng.sample(sorted(arcs, key=repr), len(arcs)):
        D.add_edge(u, w, rng.randint(1, 3))
    return D, Z, kind


def test_offending_components_match_a_tarjan_only_reference():
    # the one-row test answers for a D - Z its first vertex shows strongly
    # connected; every other D - Z goes to Tarjan, so the lists are equal
    rng = random.Random(0x0FFE)
    seen = Counter()
    for trial in range(3000):
        D, Z, kind = _near_clique(rng)
        vs = D.sorted_vertices()
        T = set(rng.sample(vs, rng.randint(0, len(vs)))) | ({"absent"} if rng.random() < 0.2 else set())
        r = rng.randint(-2, 3)
        want = reference_offending_components(D, T, r, set(Z))
        given = rng.choice([set, frozenset, list, tuple, iter])(Z)
        assert offending_components(D, T, r, given) == want, (trial, kind)
        left = len(set(vs) - Z)
        strong = len(reference_offending_components(D, (), -1, set(Z))) == 1
        seen[kind, left > 1 and strong, left] += 1
    assert sum(c for (_, strong, _), c in seen.items() if strong) > 500, seen
    for kind in ("less into first", "less out of first", "less one arc at first"):
        assert sum(c for (k, strong, left), c in seen.items() if k == kind and left > 1 and not strong) > 25
    assert min(sum(c for (_, _, left), c in seen.items() if left == size) for size in (0, 1)) > 100


def _counted_tarjan(monkeypatch) -> list:
    """A list that grows by one per tarjan_sccs call, from any module."""
    calls, real = [], digraph.tarjan_sccs

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for module in (digraph, balsep, util):
        monkeypatch.setattr(module, "tarjan_sccs", counted)
    return calls


def test_dense_hosts_find_their_offenders_without_tarjan(monkeypatch):
    calls = _counted_tarjan(monkeypatch)
    per_solve = []
    real = arboreal.balanced_separator

    def solve_counted(inst):
        before = len(calls)
        result = real(inst)
        per_solve.append(len(calls) - before)
        return result

    monkeypatch.setattr(arboreal, "balanced_separator", solve_counted)
    g = order_parameter(3)
    for D in (bidirected_clique(3 * g), mixed_id_digraph(random.Random(5), bidirected_clique(3 * g))):
        per_solve.clear()
        cert = arboreal.decompose(D, g)
        assert isinstance(cert, arboreal.LinkedSetCertificate)
        assert per_solve[-1] == 0, per_solve  # the final solve, the one that finds T linked
        before = len(calls)
        assert TBramble(D, cert.T, g).offenders == [set(D.vertices())]
        assert len(calls) == before
        assert reference_offending_components(D, cert.T, g - 1) == [set(D.vertices())]
        assert len(calls) == before + 1  # the pass the one-row test spares

    # on sparse hosts the degrees reject at once and Tarjan runs as before
    hosts = 0
    for seed in range(1, 7):
        D = dirtw.cli._gen_graph("random", 30, seed, 70)
        before = len(calls)
        got = arboreal.decompose(D, 2)
        counted = len(calls) - before
        with monkeypatch.context() as patched:
            patched.setattr(balsep, "offending_components", reference_offending_components)
            before = len(calls)
            assert arboreal.decompose(D, 2) == got
            assert counted == len(calls) - before
        if isinstance(got, arboreal.LinkedSetCertificate):
            before = len(calls)
            TBramble(D, got.T, 2).offenders
            assert len(calls) == before + 1
            hosts += counted > 0
    assert hosts >= 3, hosts


def random_strong_component(rng: random.Random, n: int) -> Digraph:
    # a Hamiltonian cycle in random order keeps it strongly connected
    D = Digraph()
    order = rng.sample(range(1, n + 1), n)
    for u, v in zip(order, order[1:] + order[:1]):
        D.add_edge(u, v)
    p = rng.uniform(0.05, 0.3)
    for u in range(1, n + 1):
        for v in range(1, n + 1):
            if u != v and rng.random() < p:
                D.add_edge(u, v)
    return mixed_id_digraph(rng, D)


def test_component_bound_matches_brute_internal_connectivity():
    # the bound with and without its one-successor shortcut against the
    # fewest inner vertices whose deletion cuts u from w, over non-adjacent
    # pairs
    rng = random.Random(0xC0B)
    shortcut = Counter()
    for _ in range(150):
        D = random_strong_component(rng, rng.randint(3, 7))
        vs = D.sorted_vertices()
        for _ in range(rng.randint(0, 2 * len(vs))):
            D.add_edge(*rng.sample(vs, 2))
        pairs = [(u, w) for u in vs for w in vs if u != w and not D.has_edge(u, w)]
        if not pairs:
            continue
        truth = min(next(size for size in range(len(vs))
                         for S in combinations(set(vs) - {u, w}, size)
                         if not dfs_path_exists(D.minus(S), {u}, {w}))
                    for u, w in pairs)
        net = split_network(D, vs)
        assert balsep._component_lb(net, len(vs) - 1) == truth
        shortcut[any(len(heads) == 1 for heads in net.succ)] += 1
    assert min(shortcut[True], shortcut[False]) >= 30, shortcut


def test_component_bound_matches_the_all_pairs_reference():
    # Even's bound flows only out of and into the vertices below the
    # bound; the reference flows over every non-adjacent ordered pair
    rng = random.Random(0xE7E)
    below = Counter()
    for _ in range(2000):
        n = rng.randint(3, 10)
        D = random_strong_component(rng, n)
        vs = D.sorted_vertices()
        for _ in range(int(rng.uniform(0, 1.2) * n * n)):  # dense, often not complete
            D.add_edge(*rng.sample(vs, 2))
        bound = rng.randint(1, n)
        got = balsep._component_lb(split_network(D, vs), bound)
        assert got == reference_component_lb(split_network(D, vs), bound)
        below[got < bound and got > 1] += 1
    assert below[True] > 300, below


def test_partition_engine_matches_the_reference_engine():
    # `lb` is a sound lower bound, as every caller passes: at most the
    # reference's optimum, or at most the cap when it finds no cut
    rng = random.Random(23)
    for i in range(300):
        D = random_strong_component(rng, rng.randint(13, 22))
        r = rng.randint(1, 3)
        Tc = frozenset(rng.sample(D.sorted_vertices(), rng.randint(r + 1, min(5, r + 2))))
        cap = rng.randint(1, 4)
        optimum = reference_partition_min_cut(D, Tc, r, cap, 1)
        lb = rng.randint(1, cap if optimum is None else len(optimum))
        assert (balsep._partition_min_cut(D, set(D.vertices()), Tc, r, cap, lb)
                == reference_partition_min_cut(D, Tc, r, cap, lb)), \
            (i, vsorted(Tc), r, cap, lb)


def test_any_order_and_first_order_match_the_ordered_partitions():
    # the memoized question over every ordering is the OR of the oracle's
    # answers on each ordered partition, and the walk it prunes reaches the
    # first partition, in canonical order, that the oracle accepts
    rng = random.Random(0xA0D)
    answers = Counter()
    for i in range(320):
        D = random_strong_component(rng, rng.randint(5, 12))
        net = split_network(D, D.sorted_vertices())
        r = rng.randint(1, 3)
        numbers = tuple(sorted(rng.sample(range(net.n), rng.randint(r + 1, min(net.n, r + 3)))))
        budget = rng.randint(0, 4)
        reference = lincut._CutOracle(net)
        first = next((p.blocks for p in ordered_partitions(numbers, r)
                      if reference.feasible(p.blocks, (), budget)), None)
        oracle = lincut._CutOracle(net)
        assert oracle.any_order(numbers, r, frozenset(), budget) == (first is not None), (i, numbers, r, budget)
        if first is not None:
            assert tuple(map(frozenset, oracle.first_order(numbers, r, budget))) == first, (i, numbers, r, budget)
        answers[first is not None, len(first or ()) > 2] += 1
    assert min(answers.values()) >= 40, answers


def test_dense_hosts_agree_with_the_brute_force_oracle():
    # dense 13-14-vertex hosts with |T| = 8-9 and r >= 2: each query took
    # 1-17 s when the engine asked the oracle once per ordered partition;
    # one question per set of remaining terminals answers them together in
    # a few seconds
    rng = random.Random(0xDE45)
    engine = []
    real = balsep._partition_min_cut

    def spy(*args):
        engine.append(args)
        return real(*args)

    for i in range(30):
        D = random_digraph(rng, rng.randint(13, 14), rng.uniform(0.5, 0.65))
        T = rng.sample(D.sorted_vertices(), rng.randint(8, 9))
        r, s = rng.randint(2, 3), rng.randint(3, 5)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(balsep, "_partition_min_cut", spy)
            got = balanced_separator(BalancedSeparatorInstance(D, frozenset(T), r, s))
        assert got == brute_force_balanced_separator(D, T, r, s), (i, vsorted(T), r, s)
    assert len(engine) >= 15, len(engine)


def test_scan_engine_matches_the_branch_and_bound_reference():
    # with a lower bound no larger than the true minimum, the first set of
    # the scan is the lex-least minimum set the reference's DFS finds; a
    # wrong first scan draws a bound the reference then disagrees with
    rng = random.Random(0x5CA)
    answers = Counter()
    for i in range(1000):
        n = rng.randint(3, 12)
        D = random_strong_component(rng, n)
        vs = D.sorted_vertices()
        for _ in range(int(rng.uniform(0, 0.6) * n * n)):
            D.add_edge(*rng.sample(vs, 2))
        r = rng.randint(1, min(4, n - 1))
        Tc = frozenset(rng.sample(vs, rng.randint(r + 1, n)))
        cap = rng.randint(1, 5)
        least = balsep._scan_min_cut(D, set(vs), Tc, r, cap, 1)
        lb = rng.randint(1, cap if least is None else len(least))
        got = balsep._scan_min_cut(D, set(vs), Tc, r, cap, lb)
        assert got == least == reference_branch_min_cut(D, set(vs), Tc, r, cap, lb), (i, vsorted(Tc), r, cap, lb)
        answers[got is None] += 1
    assert answers[False] >= 500 and answers[True] >= 100, answers


def test_partition_engine_asks_no_flow_into_no_sinks(monkeypatch):
    # a block that takes every remaining terminal leaves no rest to cut
    # off; the engine knows it without asking the network
    sinks, real = [], digraph.FlowNetwork.flow

    def spy_flow(net, X, Y, limit, cut=()):
        sinks.append(len(Y))
        return real(net, X, Y, limit, cut)

    monkeypatch.setattr(digraph.FlowNetwork, "flow", spy_flow)
    rng = random.Random(29)
    for _ in range(60):
        D = random_strong_component(rng, rng.randint(13, 18))
        r = rng.randint(1, 3)
        Tc = frozenset(rng.sample(D.sorted_vertices(), rng.randint(r + 1, min(5, r + 2))))
        balsep._partition_min_cut(D, set(D.vertices()), Tc, r, rng.randint(1, 4), 1)
    assert len(sinks) > 60 and 0 not in sinks


def test_partition_engine_searches_only_where_a_cut_exists(monkeypatch):
    # balsep-exact's n = 20, t = 4 Linked query (generator seed 2): the
    # important-cut oracle, asked about every ordering of the terminals at
    # once, turns them all down before any cut is extracted, so the
    # extraction's check for a violating path never runs
    D = dirtw.cli._gen_graph("random", 20, 2, 60)
    engine, paths = [], []
    real_engine, real_path = balsep._partition_min_cut, lincut._separates

    def spy_engine(*args):
        engine.append(real_engine(*args))
        return engine[-1]

    def spy_path(*args):
        paths.append(args)
        return real_path(*args)

    monkeypatch.setattr(balsep, "_partition_min_cut", spy_engine)
    monkeypatch.setattr(lincut, "_separates", spy_path)
    assert solve(D, D.sorted_vertices()[:4], 1, 2).linked
    assert engine and all(cut is None for cut in engine)
    assert paths == []


def test_each_offending_component_is_interned_and_built_once(monkeypatch):
    # the same balsep-exact query: the flow bounds build one split network
    # on each component their connectivity bound needs flows for, which
    # numbers the component once, and the partition engine then asks its
    # oracle on it
    D = dirtw.cli._gen_graph("random", 20, 2, 60)
    built, engine = [], []
    real_split, real_engine = balsep.split_network, balsep._partition_min_cut

    def spy_split(*args):
        built.append(real_split(*args))
        return built[-1]

    def spy_engine(D, comp, Tc, r, cap, lb, net=None):
        engine.append((frozenset(comp), net))
        return real_engine(D, comp, Tc, r, cap, lb, net)

    monkeypatch.setattr(balsep, "split_network", spy_split)
    monkeypatch.setattr(balsep, "_partition_min_cut", spy_engine)
    assert solve(D, D.sorted_vertices()[:4], 1, 2).linked
    components = Counter(frozenset(net.names) for net in built)
    assert components and set(components.values()) == {1}
    assert engine and all(net in built and frozenset(net.names) == comp for comp, net in engine)


def _record_layers(monkeypatch, seen: dict) -> None:
    # each layer's answer, as the solver saw it
    for name in ("_normalized_answer", "_free_bounds", "_greedy_separator", "_flow_bounds", "_exact_search"):
        def spy(*args, _real=getattr(balsep, name), _name=name):
            seen[_name] = out = _real(*args)
            return out
        monkeypatch.setattr(balsep, name, spy)


def _deciding_layer(seen: dict, r: int) -> str:
    if seen.get("_normalized_answer") is not None:
        return "normalized"
    for name, layer in [("_exact_search", "exact"), ("_flow_bounds", "linked by bounds"),
                        ("_greedy_separator", "greedy"), ("_free_bounds", "linked by bounds")]:
        if name in seen:
            return layer
    return "r = 0" if r == 0 else "empty"


def test_banned_set_solve_matches_solving_the_copy(monkeypatch):
    # the solver on D with X banned answers as balanced_separator on D - X,
    # at every layer; X may hold terminals and ids that are not in D
    seen: dict = {}
    _record_layers(monkeypatch, seen)
    rng = random.Random(0xD0C5)
    layers: dict = {}
    for i in range(400):
        D = mixed_id_digraph(rng, random_digraph(rng, rng.randint(2, 11), rng.uniform(0.15, 0.9)))
        vs = D.sorted_vertices()
        for _ in range(rng.randint(0, 3)):
            D.add_edge(rng.choice(vs), rng.choice(vs), rng.randint(1, 2))  # loops and parallel copies
        X = frozenset({v for v in vs if rng.random() < 0.2} | {"ghost", (3, "y")})
        T = frozenset(rng.sample(vs, rng.randint(len(vs) // 2, len(vs))))
        r, s = rng.randint(0, 2), rng.randint(0, 3)
        seen.clear()
        got = balsep._solve(D, T - X, r, s, X)
        layer = _deciding_layer(seen, r)
        layers[layer] = layers.get(layer, 0) + 1
        assert got == solve(D.minus(X), T - X, r, s), (i, layer)
    assert len(layers) == 6 and min(layers.values()) >= 8, layers


def test_one_offender_pass_before_the_exact_layer(monkeypatch):
    # the empty check, both greedy passes and the lower bounds share the
    # offending components of D - X instead of computing them each
    real, exact = balsep.offending_components, balsep._exact_search
    calls: list = []
    before_exact: list = []
    monkeypatch.setattr(balsep, "offending_components",
                        lambda D, T, r, Z=(): calls.append(frozenset(Z)) or real(D, T, r, Z))
    monkeypatch.setattr(balsep, "_exact_search",
                        lambda *args: before_exact.append(list(calls)) or exact(*args))
    D = Digraph()
    for leaf in ("t1", "t2", "t3", "t4", "x1", "x2"):
        D.add_bidirected("c", leaf)
    T = frozenset({"t1", "t2", "t3", "t4", "x1"})
    # the star needs its centre: greedy fails and the bounds are inconclusive
    for X in (frozenset(), frozenset({"x1", "x2", "ghost"})):
        calls.clear()
        got = balsep._solve(D, T - X, 1, 1, X) if X else solve(D, T, 1, 1)
        assert got.separator == frozenset({"c"})
        assert before_exact.pop().count(X) == 1


def random_multigraph(rng: random.Random, n: int) -> Digraph:
    D = random_digraph(rng, n, rng.choice([0.15, 0.3, 0.5]))
    for _ in range(rng.randint(0, 3)):
        D.add_edge(rng.randint(1, n), rng.randint(1, n), rng.randint(1, 2))  # loops, parallel arcs
    return mixed_id_digraph(rng, D)


def test_refined_offenders_equal_a_fresh_pass_after_every_deletion():
    rng = random.Random(29)
    multi_hops = splits = 0
    for trial in range(400):
        D = random_multigraph(rng, rng.randint(1, 9))
        vs = D.sorted_vertices()
        T = frozenset(rng.sample(vs, rng.randint(0, len(vs))))
        r = trial % 3
        heavy, Z = offending_components(D, T, r), set()
        order = rng.sample(vs, len(vs))
        while order:
            # a hop of up to three vertices may meet several components
            W = [order.pop() for _ in range(min(len(order), rng.randint(1, 3)))]
            met = [C for C in heavy if not C.isdisjoint(W)]
            Z.update(W)
            got = balsep._refine_offenders(D, T, r, heavy, W)
            assert got == offending_components(D, T, r, Z), (trial, vsorted(Z))
            assert ({frozenset(c) for c in got}
                    == {c for c in brute_scc_partition(D.minus(Z)) if len(c & T) > r})
            multi_hops += len(met) > 1
            splits += any(sum(c <= C for c in got) > 1 for C in met)
            heavy = got
    assert multi_hops and splits


def test_counting_settles_the_separator_check_as_tarjan_would(monkeypatch):
    rng = random.Random(31)
    passes: list = []
    real = balsep.tarjan_sccs
    monkeypatch.setattr(balsep, "tarjan_sccs", lambda *args: passes.append(args) or real(*args))
    settled = 0
    for trial in range(300):
        D = random_multigraph(rng, rng.randint(1, 8))
        vs = D.sorted_vertices()
        T = set(rng.sample(vs, rng.randint(0, len(vs))))
        # Z overlapping T, with ids that are not in D
        Z = set(rng.sample(vs, rng.randint(0, len(vs))))
        Z |= set(rng.sample(["ghost", ("g", 1), 99], rng.randint(0, 2)))
        r = rng.randint(-1, 3)
        passes.clear()
        got = is_balanced_separator(D, T, r, iter(Z))
        if len(T - Z) <= r:
            assert passes == []
            settled += 1
        assert got == (not offending_components(D, T, r, Z))
    assert settled


def test_deletion_loops_make_no_whole_graph_pass_per_deleted_vertex(monkeypatch):
    whole: list = []
    real = balsep.tarjan_sccs

    def spy(D, banned=(), within=None):
        if within is None:
            whole.append(D)
        return real(D, banned, within)

    monkeypatch.setattr(balsep, "tarjan_sccs", spy)
    K8 = bidirected_clique(8)
    T8 = frozenset(K8.vertices())
    heavy = offending_components(K8, T8, 1)
    whole.clear()
    # both greedy passes fail after deleting 5 and then 6 terminals of K_8
    assert balsep._greedy_separator(K8, T8, 1, 5, heavy) is None
    assert whole == []
    # K_6 needs five deletions: the scan tests every set of one to four
    K6 = bidirected_clique(6)
    assert balsep._scan_min_cut(K6, set(K6.vertices()), frozenset(K6.vertices()), 1, 4, 1) is None
    assert whole == []
    P = dirtw.hitting_path(dirtw.TBramble(bidirected_cycle(9), frozenset(range(1, 10)), 3))
    assert len(P) > 1 and len(whole) == 1


def test_non_separator_from_a_layer_is_an_error(monkeypatch):
    # the bidirected 5-cycle with T = V, r = 1, s = 2 reaches the greedy
    # layer; a greedy answer that is no separator must raise, not pass silently
    inst = BalancedSeparatorInstance(bidirected_cycle(5), frozenset(range(1, 6)), 1, 2)
    monkeypatch.setattr(balsep, "_greedy_separator", lambda *args: frozenset({1}))
    with pytest.raises(RuntimeError, match="not a balanced separator"):
        balanced_separator(inst)


def test_separator_check_survives_optimized_mode():
    # python -O strips assert statements; the post-hoc check must remain
    script = (
        "from dirtw import balsep\n"
        "from dirtw.digraph import Digraph\n"
        "D = Digraph()\n"
        "for i in range(1, 6):\n"
        "    D.add_bidirected(i, i % 5 + 1)\n"
        "balsep._greedy_separator = lambda *args: frozenset({1})\n"
        "try:\n"
        "    balsep.balanced_separator(balsep.BalancedSeparatorInstance(D, set(range(1, 6)), 1, 2))\n"
        "except RuntimeError:\n"
        "    print('raised')\n"
    )
    src = str(Path(dirtw.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised\n"
