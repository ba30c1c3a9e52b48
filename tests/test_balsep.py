"""Balanced-separator layer: partition enumeration against an independent
counting recurrence, solver verdicts against the subset-scan oracle, and the
worked small instances with frozen outputs."""
import random
from math import comb

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
)

from dirtw.balsep import offending_components
from util import (
    bidirected_clique,
    brute_scc_partition,
    path_digraph,
    random_digraph,
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
