"""Balanced separators: find a vertex set Z of size at most s such that
every strong component of D minus Z contains at most r vertices of T, or
certify that T is (s, r)-linked (no such Z exists).

The solver is layered.  Degenerate parameters are normalized away; then an
empty separator is tried, then a greedy one.  Next, a sound lower-bound
argument may certify linkedness outright: the problem decomposes over the
strong components of D, and a component C holding t > r vertices of T needs
at least min(kappa(C), t - r) deletions, because fewer than kappa(C)
deletions leave C strongly connected and therefore still holding more than r
terminals.  Only when all of that is inconclusive does the exact layer run,
independently per offending component: small components use offender-hitting
branch and bound; larger ones try every ordered partition of their terminals
into blocks of size at most r against linear_vertex_cut, keeping the
cheapest cut (the partition/linear-cut equivalence makes this exhaustive
search complete, so a returned Linked verdict is exact).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from collections.abc import Iterable, Iterator

from .digraph import _SNK, _SRC, Digraph, Vertex, split_network, tarjan_sccs, vkey, vsorted
from .lincut import TerminalSequence, linear_vertex_cut


@dataclass
class BalancedSeparatorInstance:
    D: Digraph
    T: frozenset
    r: int
    s: int

    def __post_init__(self) -> None:
        self.T = frozenset(self.T)
        if self.r < 0 or self.s < 0:
            raise ValueError("r and s must be non-negative")
        for v in self.T:
            if v not in self.D:
                raise ValueError(f"terminal {v!r} not in digraph")


class BalancedSeparatorResult:
    """Either a separator (a frozenset) or the Linked verdict."""

    __slots__ = ("separator",)

    def __init__(self, separator: frozenset | None) -> None:
        self.separator = separator

    @property
    def linked(self) -> bool:
        return self.separator is None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BalancedSeparatorResult) and self.separator == other.separator

    def __repr__(self) -> str:
        if self.linked:
            return "BalancedSeparatorResult(Linked)"
        return f"BalancedSeparatorResult(Z={vsorted(self.separator)!r})"


def ordered_partitions(T: Iterable[Vertex], r: int) -> Iterator[TerminalSequence]:
    """Every ordered partition of T into non-empty blocks of size <= r,
    exactly once.  Canonical order: blocks are chosen left to right, larger
    blocks first, lexicographic within a size."""
    if r < 1:
        raise ValueError("block size bound must be >= 1")
    items = tuple(vsorted(set(T)))

    def rec(remaining: tuple):
        if not remaining:
            yield ()
            return
        for size in range(min(r, len(remaining)), 0, -1):
            for combo in combinations(remaining, size):
                block = frozenset(combo)
                rest = tuple(v for v in remaining if v not in block)
                for tail in rec(rest):
                    yield (block,) + tail

    for blocks in rec(items):
        yield TerminalSequence(blocks)


def offending_components(D: Digraph, T: Iterable[Vertex], r: int, Z: Iterable[Vertex] = ()) -> list[set]:
    """The strong components of D minus Z holding more than r vertices of T,
    ordered by their least terminal."""
    Tset = frozenset(T)
    heavy = [c for c in tarjan_sccs(D, Z) if len(c & Tset) > r]
    # a negative quota also counts components without terminals; those
    # keep their emission order ahead of the rest
    heavy.sort(key=lambda c: min(map(vkey, c & Tset), default=()))
    return heavy


def is_balanced_separator(D: Digraph, T: Iterable[Vertex], r: int, Z: Iterable[Vertex]) -> bool:
    """True iff every strong component of D minus Z holds at most r vertices
    of T."""
    return not offending_components(D, T, r, Z)


def _normalized_answer(T: frozenset, r: int, s: int) -> frozenset | None:
    """The two degenerate arms: quota swallows T entirely, or the budget
    affords deleting all but r terminals (canonical smallest s-subset)."""
    k = len(T)
    if r >= k:
        return frozenset()
    if s >= k - r:
        return frozenset(vsorted(T)[: min(s, k)])
    return None


def _greedy_separator(D: Digraph, Tset: frozenset, r: int, s: int) -> frozenset | None:
    # two passes: delete the whole terminal surplus of the worst component at
    # once (right on robust components), or one terminal at a time (right
    # when single deletions shatter components)
    for batch in (True, False):
        Z: set = set()
        while True:
            offenders = offending_components(D, Tset, r, Z)
            if not offenders:
                return frozenset(Z)
            comp = offenders[0]
            hit = vsorted(comp & Tset)
            take = min(len(hit) - r, s - len(Z)) if batch else 1
            if take < 1:
                break
            Z.update(hit[:take])
            if len(Z) > s:
                break
    return None


def _component_lb(D: Digraph, comp: set, tc: int, r: int) -> int:
    """Sound lower bound on deletions inside an offending strong component:
    min(kappa, tc - r), with kappa bounded from below by pairwise internal
    connectivity (complete components need no flow calls at all)."""
    cap = tc - r
    if cap <= 1 or len(comp) == 1:
        return 1
    sub = D.induced(comp)
    bound = min(cap, len(comp) - 1)
    net = split_network(sub)
    fresh = dict(net.cap)
    vs = sub.sorted_vertices()
    for u in vs:
        for w in vs:
            if u == w or sub.has_edge(u, w):
                continue
            # internally vertex-disjoint u -> w paths
            net.cap = dict(fresh)
            f = net.max_flow(("out", u), ("in", w), limit=bound)
            if f < bound:
                bound = f
                if bound <= 1:
                    return 1
    return max(1, min(cap, bound))


def _offender_analysis(D: Digraph, Tset: frozenset, r: int, s: int):
    """Either the string "linked" (lower bounds already exceed the budget)
    or the offending components with their lower bounds, in canonical
    order."""
    offenders = [(c, len(c & Tset)) for c in offending_components(D, Tset, r)]
    if len(offenders) > s:
        return "linked"
    bounds: dict[int, int] = {}
    # largest surplus first; the stable sort keeps least-terminal order on ties
    by_surplus = sorted(range(len(offenders)), key=lambda i: -offenders[i][1])
    total = 0
    for seen, i in enumerate(by_surplus, start=1):
        bounds[i] = _component_lb(D, offenders[i][0], offenders[i][1], r)
        total += bounds[i]
        if total + (len(offenders) - seen) > s:
            return "linked"
    return [(c, tc, bounds[i]) for i, (c, tc) in enumerate(offenders)]


def _branch_min_cut(sub: Digraph, Tc: frozenset, r: int, cap: int, lb: int) -> frozenset | None:
    """Exact engine for small components: iterative-deepening branch and
    bound.  Any valid deletion set must hit every currently offending strong
    component, so branching over the canonical offender is complete."""
    for b in range(max(lb, 1), cap + 1):
        failed: set = set()

        def dfs(removed: frozenset, left: int) -> frozenset | None:
            offenders = offending_components(sub, Tc, r, removed)
            if not offenders:
                return removed
            if left == 0 or removed in failed:
                return None
            for v in vsorted(offenders[0]):
                got = dfs(removed | {v}, left - 1)
                if got is not None:
                    return got
            failed.add(removed)
            return None

        got = dfs(frozenset(), b)
        if got is not None:
            return got
    return None


def _partition_min_cut(sub: Digraph, Tc: frozenset, r: int, cap: int, lb: int) -> frozenset | None:
    """Exact engine for larger components: ordered partitions of the
    terminals, each priced by linear_vertex_cut.  A partition's cut meets
    every path from a prefix of its blocks to the remaining terminals, so a
    memoized prefix flow prunes whole families of partitions at once."""
    flow_memo: dict = {}

    def prefix_bound(U: frozenset) -> int:
        if U not in flow_memo:
            # min vertices (terminals deletable) meeting every U -> rest path
            rest = Tc - U
            flow_memo[U] = (split_network(sub, U, rest).max_flow(_SRC, _SNK, limit=cap + 1)
                            if U and rest else 0)
        return flow_memo[U]

    best: frozenset | None = None

    def rec(remaining: tuple, blocks: tuple, U: frozenset) -> bool:
        nonlocal best
        budget = cap if best is None else min(cap, len(best) - 1)
        if budget < lb:
            return True
        if U and prefix_bound(U) > budget:
            return False
        if not remaining:
            cut = linear_vertex_cut(sub, TerminalSequence(blocks), budget, canonical=False)
            if cut is not None:
                got = cut.cut_vertices()
                if best is None or len(got) < len(best):
                    best = got
            return best is not None and len(best) <= lb
        for size in range(min(r, len(remaining)), 0, -1):
            for combo in combinations(remaining, size):
                block = frozenset(combo)
                rest = tuple(x for x in remaining if x not in block)
                if rec(rest, blocks + (block,), U | block):
                    return True
        return False

    rec(tuple(vsorted(Tc)), (), frozenset())
    return best


def _component_min_cut(sub: Digraph, Tc: frozenset, r: int, cap: int, lb: int) -> frozenset | None:
    """Exact minimum set of deletions making every strong component of the
    (strongly connected) input hold <= r terminals, or None if it exceeds
    cap.  Both engines stop early once the lower bound is met."""
    if cap < lb:
        return None
    if sub.n <= 12:
        return _branch_min_cut(sub, Tc, r, cap, lb)
    return _partition_min_cut(sub, Tc, r, cap, lb)


def _exact_search(D: Digraph, Tset: frozenset, r: int, s: int, offenders) -> frozenset | None:
    chosen: set = set()
    spent = 0
    remaining_lb = sum(lb for _, _, lb in offenders)
    for comp, _, lb in offenders:
        remaining_lb -= lb
        cut = _component_min_cut(D.induced(comp), frozenset(comp & Tset), r,
                                 s - spent - remaining_lb, lb)
        if cut is None:
            return None
        chosen.update(cut)
        spent += len(cut)
    return frozenset(chosen)


def balanced_separator(inst: BalancedSeparatorInstance) -> BalancedSeparatorResult:
    """Separator-or-Linked, exactly.  The Linked verdict means no vertex set
    of size at most s is a (T, r)-balanced separator."""
    D, T, r, s = inst.D, inst.T, inst.r, inst.s
    norm = _normalized_answer(T, r, s)
    if norm is not None:
        assert is_balanced_separator(D, T, r, norm)
        return BalancedSeparatorResult(norm)
    if is_balanced_separator(D, T, r, frozenset()):
        return BalancedSeparatorResult(frozenset())
    if r == 0:
        # a terminal outside Z always keeps its own component offending, so
        # any separator contains all of T — out of budget here (s < |T|)
        return BalancedSeparatorResult(None)
    Z = _greedy_separator(D, T, r, s)
    if Z is not None:
        assert len(Z) <= s and is_balanced_separator(D, T, r, Z)
        return BalancedSeparatorResult(Z)
    analysis = _offender_analysis(D, T, r, s)
    if analysis == "linked":
        return BalancedSeparatorResult(None)
    Z = _exact_search(D, T, r, s, analysis)
    if Z is None:
        return BalancedSeparatorResult(None)
    assert len(Z) <= s and is_balanced_separator(D, T, r, Z)
    return BalancedSeparatorResult(Z)


def brute_force_balanced_separator(D: Digraph, T: Iterable[Vertex], r: int, s: int) -> BalancedSeparatorResult:
    """Ground-truth oracle: same normalization as the solver, then an
    exhaustive scan of all candidate sets in canonical order."""
    Tset = frozenset(T)
    norm = _normalized_answer(Tset, r, s)
    if norm is not None:
        return BalancedSeparatorResult(norm)
    universe = D.sorted_vertices()
    for size in range(0, min(s, len(universe)) + 1):
        for combo in combinations(universe, size):
            if is_balanced_separator(D, Tset, r, combo):
                return BalancedSeparatorResult(frozenset(combo))
    return BalancedSeparatorResult(None)
