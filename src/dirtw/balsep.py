"""Balanced separators: find a vertex set Z of size at most s such that
every strong component of D minus Z contains at most r vertices of T, or
certify that T is (s, r)-linked (no such Z exists).

The solver is layered.  Degenerate parameters are normalized away; then an
empty separator is tried, and r = 0 is decided outright.  Sound lower bounds
may certify linkedness: the problem decomposes over the strong components of
D, and a component C holding t > r vertices of T needs at least
min(kappa(C), t - r) deletions, because fewer than kappa(C) deletions leave
C strongly connected and therefore still holding more than r terminals.  The
bounds that need no flow (kappa is |C| - 1 on a complete C, at least 1 on
any other) are summed before a greedy separator is tried, and flows bound
the other components after it.  Only when all of that is inconclusive does
the exact layer run, independently per offending component: small
components scan their vertex sets by size; larger ones ask the linear-cut
oracle whether some ordered partition of their terminals into blocks of
size at most r has a cut within a budget, one memoized question per set of
remaining terminals, and extract the cheapest cut of the first such
partition (the partition/linear-cut equivalence makes this search
complete, so a returned Linked verdict is exact).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from collections.abc import Iterable, Iterator

from .digraph import (Digraph, Vertex, _check_terminals, _strongly_connected, split_network, tarjan_sccs,
                      vkey, vsorted)
from .lincut import TerminalSequence, _CutOracle, _lec_solve, _least_budget, _next_blocks


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
        _check_terminals(self.D, self.T)


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


def _partitions(items: tuple, r: int) -> Iterator[tuple]:
    """Every ordered partition of the sorted tuple `items` into non-empty
    blocks of size <= r, exactly once, in canonical order: blocks are chosen
    left to right, larger blocks first, lexicographic within a size."""
    if not items:
        yield ()
    for block, rest in _next_blocks(items, r):
        for tail in _partitions(rest, r):
            yield (frozenset(block),) + tail


def ordered_partitions(T: Iterable[Vertex], r: int) -> Iterator[TerminalSequence]:
    """Every ordered partition of T into non-empty blocks of size <= r,
    exactly once, in the canonical order of `_partitions`."""
    if r < 1:
        raise ValueError("block size bound must be >= 1")
    return map(TerminalSequence, _partitions(tuple(vsorted(set(T))), r))


def _one_row_component(D: Digraph, Z: set) -> set | None:
    """D minus Z if its first vertex v has arcs to and from every other
    vertex of it, which makes it strongly connected; else None.  A row of
    v's shorter than |D| - |Z| - 1 misses some vertex, so a sparse host
    fails on degrees alone, before D minus Z is built."""
    succ, pred = D._succ, D._pred
    v = next((u for u in succ if u not in Z), None)
    least = len(succ) - len(Z) - 1
    if v is None or len(succ[v]) < least or len(pred[v]) < least:
        return None
    rest = succ.keys() - Z
    if rest.difference(succ[v], (v,)) or rest.difference(pred[v], (v,)):
        return None
    return rest


def offending_components(D: Digraph, T: Iterable[Vertex], r: int, Z: Iterable[Vertex] = ()) -> list[set]:
    """The strong components of D minus Z holding more than r vertices of T,
    ordered by their least terminal.  A dense D minus Z that one row shows
    strongly connected needs no Tarjan pass."""
    Tset = frozenset(T)
    Z = set(Z)
    whole = _one_row_component(D, Z)
    if whole is not None:
        return [whole] if len(whole & Tset) > r else []
    return _by_least_terminal([c for c in tarjan_sccs(D, Z) if len(c & Tset) > r], Tset)


def _by_least_terminal(comps: list[set], Tset: frozenset) -> list[set]:
    """`comps`, sorted in place by their least terminal.  A negative quota
    also counts components without terminals; those keep their emission
    order ahead of the rest."""
    if len(comps) > 1:
        comps.sort(key=lambda c: min(map(vkey, c & Tset), default=()))
    return comps


def _refine_offenders(D: Digraph, Tset: frozenset, r: int, heavy: list[set], W: Iterable[Vertex]) -> list[set]:
    """The offending components of D minus (Z | W), from `heavy`, those of D
    minus Z, without a pass over the whole graph.  Deleting W only splits
    the components it meets: a component C it misses is kept, and C - W,
    if it still holds more than r terminals, is split into its own strong
    pieces, unless two walks find it still strongly connected.  Equals
    offending_components(D, Tset, r, Z | W) for r >= 0."""
    W = set(W)
    out = []
    for C in heavy:
        if C.isdisjoint(W):
            out.append(C)
            continue
        rest = C - W
        if len(rest & Tset) <= r:
            continue
        if _strongly_connected(D, rest):
            out.append(rest)
        else:
            out.extend(c for c in tarjan_sccs(D, within=rest) if len(c & Tset) > r)
    return _by_least_terminal(out, Tset)


def is_balanced_separator(D: Digraph, T: Iterable[Vertex], r: int, Z: Iterable[Vertex]) -> bool:
    """True iff every strong component of D minus Z holds at most r vertices
    of T."""
    Z, Tset = set(Z), frozenset(T)
    # no component holds more terminals than survive the deletion
    return len(Tset - Z) <= r or not offending_components(D, Tset, r, Z)


def _normalized_answer(T: frozenset, r: int, s: int) -> frozenset | None:
    """The two degenerate arms: quota swallows T entirely, or the budget
    affords deleting all but r terminals (canonical smallest s-subset)."""
    k = len(T)
    if r >= k:
        return frozenset()
    if s >= k - r:
        return frozenset(vsorted(T)[: min(s, k)])
    return None


def _greedy_separator(D: Digraph, Tset: frozenset, r: int, s: int, heavy) -> frozenset | None:
    # two passes: delete the whole terminal surplus of the worst component at
    # once (right on robust components), or one terminal at a time (right
    # when single deletions shatter components)
    for batch in (True, False):
        Z, current = set(), heavy
        while current:
            hit = vsorted(current[0] & Tset)
            take = min(len(hit) - r, s - len(Z)) if batch else 1
            if take < 1:
                break
            Z.update(hit[:take])
            if len(Z) > s:
                break
            current = _refine_offenders(D, Tset, r, current, hit[:take])
        else:
            return frozenset(Z)
    return None


def _component_lb(net, bound: int) -> int:
    """Pairwise internal connectivity of an offending component, up to
    `bound`: the fewest internally vertex-disjoint u -> w paths over its
    non-adjacent pairs, as flows from out_u to in_w on its split network.
    It is exact up to the budget, which the network's other arcs exceed."""
    n = net.n
    # every path from a vertex with one successor to a vertex it misses runs
    # through that successor: connectivity 1, the least a strong component
    # allows, with no flow
    if n > 2 and any(len(heads) == 1 for heads in net.succ):
        return 1
    # Even's bound: let S be a least separator, |S| < bound.  Then one of
    # vertices 0..|S| avoids S, and it misses or is missed by some vertex of
    # the component minus S: flows out of and into the vertices below the
    # current bound, against all their non-adjacent partners, find |S|.
    # Partners below u had their flows with u when they came first
    near = [set(heads) for heads in net.succ]
    u = 0
    while u < min(bound, n):
        for w in range(u + 1, n):
            for x, y in ((u, w), (w, u)):
                if y not in near[x]:
                    f = net.flow((n + x,), (y,), bound)
                    if f < bound:
                        bound = f
                        if bound <= 1:
                            return 1
        u += 1
    return bound


def _free_bounds(D: Digraph, Tset: frozenset, r: int, s: int, heavy) -> list[tuple] | None:
    """None, the Linked verdict, once bounds that need no flow exceed the
    budget; else (C, tc, bound) per offending component C in canonical
    order.  A complete C, every vertex with an arc to every other (a loop
    is none), needs min(tc - r, |C| - 1) deletions; any other C needs 1.
    A sparse C fails at its first vertex on out-degree alone."""
    if len(heavy) > s:
        return None
    free, total, succ = [], 0, D._succ
    for comp in heavy:
        tc, rest = len(comp & Tset), len(comp) - 1
        complete = len(succ[next(iter(comp))]) >= rest and all(not comp.difference(succ[v], (v,)) for v in comp)
        lb = min(tc - r, rest) if complete else 1
        free.append((comp, tc, lb))
        total += lb
    return None if total > s else free


def _flow_bounds(D: Digraph, Tset: frozenset, r: int, s: int, free: list[tuple]):
    """`free` with flows raising each bound below min(tc - r, |C| - 1),
    which only a component that is not complete has, or None (Linked) once
    the bounds exceed the budget.  Each tuple ends in the split network its
    flows ran on, built once and shared with the exact engine, or None."""
    bounds = [lb for _, _, lb in free]
    nets: dict = {}
    # largest surplus first; the stable sort keeps least-terminal order on ties
    for i in sorted(range(len(free)), key=lambda i: -free[i][1]):
        comp, tc, lb = free[i]
        if (bound := min(tc - r, len(comp) - 1)) > lb:
            nets[i] = split_network(D, comp)
            bounds[i] = max(1, _component_lb(nets[i], bound))
            if sum(bounds) > s:
                return None
    return [(c, tc, bounds[i], nets.get(i)) for i, (c, tc, _) in enumerate(free)]


def _scan_min_cut(D: Digraph, comp: set, Tc: frozenset, r: int, cap: int, lb: int) -> frozenset | None:
    """Exact engine for small components: the first vertex set, by size from
    the lower bound `lb` up to `cap` and lexicographic within a size, that
    leaves no offender, or None.  With a sound `lb` that is the lex-least
    minimum deletion set.  Its work is the number of sets it tries."""
    heavy, order = [comp], vsorted(comp)  # an offending strong component is its own offender list
    for size in range(max(lb, 1), cap + 1):
        for Z in combinations(order, size):
            if not _refine_offenders(D, Tc, r, heavy, Z):
                return frozenset(Z)
    return None


def _partition_min_cut(D: Digraph, comp: set, Tc: frozenset, r: int, cap: int, lb: int,
                       net=None) -> frozenset | None:
    """Exact engine for larger components, on the component's split network
    (`net`, else built here) with one cut oracle answering on it.  As for
    `_scan_min_cut`, `lb` must be a sound lower bound on the fewest
    deletions.  The budget is the least from `cap` down to `lb` at which
    some ordered partition of the terminals into blocks of at most r has a
    cut (`any_order`, one memoized question per set of remaining
    terminals), found by the search `linear_vertex_cut` runs
    (`_least_budget`); with a sound `lb` that budget is the minimum.  The
    cut returned is the lex-least cut of that size of the first such
    partition in canonical order (`first_order`): no partition has a
    cheaper one, so it is what `linear_vertex_cut` gives on that partition."""
    net = net or split_network(D, comp)
    numbers = tuple(sorted(net.ids(Tc)))
    oracle = _CutOracle(net)
    budget = _least_budget(lambda b: oracle.any_order(numbers, r, frozenset(), b), lb, cap)
    if budget is None:
        return None
    blocks = oracle.first_order(numbers, r, budget)
    return frozenset(net.split_vertices(_lec_solve(oracle, blocks, budget)))


def _exact_search(D: Digraph, Tset: frozenset, r: int, s: int, offenders) -> frozenset | None:
    """Per offending component, the exact minimum set of deletions making
    every strong component of D inside the strongly connected comp hold
    <= r terminals, within what the budget leaves it; None once one exceeds
    that.  The scan starts at the lower bound; the partition engine stops
    once it is met."""
    chosen: set = set()
    spent = 0
    remaining_lb = sum(lb for _, _, lb, _ in offenders)
    for comp, _, lb, net in offenders:
        remaining_lb -= lb
        # cap >= lb: the bounds sum to at most s, and each cut stays within its cap
        cap, Tc = s - spent - remaining_lb, frozenset(comp & Tset)
        # a small component has few vertex sets within the cap, each tested
        # by one refinement, where every terminal partition costs flows
        if len(comp) <= 12:
            cut = _scan_min_cut(D, comp, Tc, r, cap, lb)
        else:
            cut = _partition_min_cut(D, comp, Tc, r, cap, lb, net)
        if cut is None:
            return None
        chosen.update(cut)
        spent += len(cut)
    return frozenset(chosen)


def _checked(D: Digraph, T: frozenset, r: int, s: int, X: frozenset, Z: frozenset) -> BalancedSeparatorResult:
    # the post-hoc check behind every returned separator; an explicit error,
    # so that it survives python -O
    if len(Z) > s or not is_balanced_separator(D, T, r, Z | X):
        raise RuntimeError(f"solver produced {vsorted(Z)!r}, not a balanced separator within budget {s}")
    return BalancedSeparatorResult(Z)


def balanced_separator(inst: BalancedSeparatorInstance) -> BalancedSeparatorResult:
    """Separator-or-Linked, exactly.  The Linked verdict means no vertex set
    of size at most s is a (T, r)-balanced separator."""
    return _solve(inst.D, inst.T, inst.r, inst.s, frozenset())


def _solve(D: Digraph, T: frozenset, r: int, s: int, X: frozenset,
           offenders: list[set] | None = None) -> BalancedSeparatorResult:
    """`balanced_separator` on D minus X, with X a banned set instead of a
    copy; T must avoid X.  The separator returned avoids X too.  `offenders`,
    when given, are the offending components of D minus X, as
    `offending_components(D, T, r, X)` lists them; no layer mutates them."""
    norm = _normalized_answer(T, r, s)
    if norm is not None:
        return _checked(D, T, r, s, X, norm)
    if offenders is None:
        offenders = offending_components(D, T, r, X)  # every layer below starts from these
    if not offenders:
        return BalancedSeparatorResult(frozenset())
    if r == 0:
        # a terminal outside Z always keeps its own component offending, so
        # any separator contains all of T — out of budget here (s < |T|)
        return BalancedSeparatorResult(None)
    free = _free_bounds(D, T, r, s, offenders)
    if free is None:
        return BalancedSeparatorResult(None)
    Z = _greedy_separator(D, T, r, s, offenders)
    if Z is None:
        analysis = _flow_bounds(D, T, r, s, free)
        Z = None if analysis is None else _exact_search(D, T, r, s, analysis)
    if Z is None:
        return BalancedSeparatorResult(None)
    return _checked(D, T, r, s, X, Z)


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
