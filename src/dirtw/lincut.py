"""Exact solvers for linear cuts: given an ordered sequence of terminal
blocks, remove at most `s` vertices so that no directed path runs from an
earlier block to a later one.

The vertex cut reduces to an arc cut on `digraph.split_network`: every
vertex v becomes an arc v_in -> v_out of cost one and every original edge
an arc of cost n+1, above every budget the oracle asks (it caps them at n),
so affordable cuts consist of split arcs only, one per deleted vertex.
Paths run from in-nodes to out-nodes, so terminals are deletable too, each
deletion discharging the demands the terminal participates in.

The linear cut is solved exactly on `_CutOracle`, a yes/no test for a cut
within budget that branches over important cuts.  Its optimum is the least
budget the oracle accepts, found by lowering the budget from s or, if fewer,
the terminals outside the largest block, a cut (`_least_budget`); one
extraction, `_lec_solve`, reads the lexicographically least cut of that size
off the answers one split arc at a time.  The same branching and search
answer the balanced-separator engine's question over every ordering of a
terminal set (`any_order`, memoized per set of remaining terminals), and
find the first ordering in canonical order that fits a budget
(`first_order`).  It asks one fresh flow per list of cuts: each branch goes
on from its parent's maximum flow, and a list found at one budget serves
every lower one.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from collections.abc import Iterable
from itertools import combinations

from .digraph import Digraph, Vertex, _check_terminals, reachable, split_network, vsorted


class TerminalSequence:
    """Ordered terminal blocks.  Separation is demanded only from earlier
    blocks to later ones.  Blocks are normally pairwise disjoint; a vertex
    occurring in several blocks is forced into any vertex cut and handled by
    normalization inside the solver."""

    __slots__ = ("blocks",)

    def __init__(self, blocks: Iterable[Iterable[Vertex]]) -> None:
        self.blocks = tuple(frozenset(b) for b in blocks)
        if any(not b for b in self.blocks):
            raise ValueError("terminal blocks must be non-empty")

    def __iter__(self):
        return iter(self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TerminalSequence) and self.blocks == other.blocks

    def __repr__(self) -> str:
        return f"TerminalSequence({[vsorted(b) for b in self.blocks]!r})"


@dataclass(frozen=True)
class CutCertificate:
    """A vertex cut found within budget.  `elements` are the vertices the
    search chose; `forced` holds vertices pre-forced by normalization
    because they occurred in two blocks."""

    elements: frozenset
    forced: frozenset = field(default_factory=frozenset)

    @property
    def size(self) -> int:
        return len(self.elements) + len(self.forced)

    def cut_vertices(self) -> frozenset:
        return self.elements | self.forced


def _forced(blocks: Iterable[frozenset]) -> frozenset:
    """Vertices in two or more blocks: every vertex cut deletes them."""
    counts = Counter(v for b in blocks for v in b)
    return frozenset(v for v, c in counts.items() if c > 1)


def _next_blocks(R: tuple, r: int):
    """Each first block B of an ordered partition of the sorted tuple R into
    blocks of at most r, with the rest R - B, in canonical order: larger
    blocks first, lexicographic within a size."""
    for size in range(min(r, len(R)), 0, -1):
        for B in combinations(R, size):
            yield B, tuple(v for v in R if v not in B)


def _separates(net, blocks, removed) -> bool:
    """Whether no path over the classes of `net` outside `removed` runs from
    an earlier block of `blocks`, lists of vertex numbers, to a later one:
    the reach from the in-nodes of blocks 0..i grows a block at a time and
    must meet no out-node of a block after i, even that of a vertex an
    earlier block holds too."""
    adj, head, classes, n = net.adj, net.head, net.classes, net.n
    seen: set = set()
    for i, b in enumerate(blocks):
        ahead = {n + v for later in blocks[i + 1:] for v in later}
        seen.update(b)
        stack = list(b)
        while stack:
            for a in adj[stack.pop()]:
                if a & 1 or a >= classes or a in removed:
                    continue
                w = head[a]
                if w in ahead:
                    return False
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return True


class _CutOracle:
    """Exact yes/no answers about one split network (`digraph.split_network`),
    whose classes are its class arc ids: is there a set of at most b
    classes whose removal together with `removed` kills every path from the
    in-nodes of an earlier block of vertex numbers to the out-nodes of a
    later one?  Budgets are capped at n, which no cut of split arcs needs
    more than, so only split arcs, each costing one, fit in a budget, and a
    cut's cost is its size.  The blocks are asked per question, so one
    oracle serves every ordering of the network's terminals.

    A linear cut is Skew Edge Multicut, so by the pushing lemma (Chen, Liu,
    Lu, O'Sullivan and Razgon, JACM 2008) some cheapest solution contains an
    important (B_1, B_2 ∪ … ∪ B_t)-cut (Marx, TCS 2006).  The oracle branches
    over a superset of those cuts within budget, then recurses on B_2..B_t
    with the cut removed; the cost grows with the budget, not with the
    graph.  Every question, about fixed blocks, any ordering or the first
    ordering that fits, runs through that one recursion, `_fits`.  A fresh
    flow asks the network with the flow limit b + 1, and the branches of
    one search go on from it: the capacities it gave stay above their
    budgets, so the furthest minimum cut they read off is a fresh flow's.
    The lists of cuts (`memo`, one per question, kept at the largest budget
    asked) and the answers of `any_order` (`orders`) are memoized for the
    oracle's life; callers ask the largest budget first (`_least_budget`)."""

    __slots__ = ("net", "memo", "orders")

    def __init__(self, net) -> None:
        self.net = net
        self.memo: dict = {}
        self.orders: dict = {}

    def feasible(self, blocks, removed, budget: int) -> bool:
        """Whether some set of at most `budget` classes kills every
        earlier-to-later path between `blocks` (lists of the network's
        vertex numbers) once the classes in `removed` are gone."""
        last = tuple(sorted(blocks[-1]))
        return self._fits([tuple(b) for b in blocks[:-1]], last, len(last), frozenset(removed),
                          min(budget, self.net.n))

    def any_order(self, R: tuple, r: int, removed: frozenset, budget: int) -> bool:
        """Whether some ordered partition of the sorted tuple R of terminal
        numbers into blocks of at most r has a cut within `budget` once the
        classes in `removed` are gone: the OR of `_fits` over the first
        blocks of those partitions, asked once per (R, r, removed, budget)."""
        budget = min(budget, self.net.n)
        key = (R, r, removed, budget)
        answer = self.orders.get(key)
        if answer is None:
            answer = self.orders[key] = any(self._fits([B], rest, r, removed, budget)
                                            for B, rest in _next_blocks(R, r))
        return answer

    def first_order(self, R: tuple, r: int, budget: int) -> list[tuple]:
        """The first ordered partition of the sorted tuple R into blocks of at
        most r, in canonical order, that has a cut within `budget`: block by
        block, the first that leaves the rest some ordering after the blocks
        taken so far; at most r terminals left make one block, which fits."""
        budget = min(budget, self.net.n)
        blocks: list = []
        while len(R) > r:
            for B, rest in _next_blocks(R, r):
                if self._fits(blocks + [B], rest, r, frozenset(), budget):
                    break
            else:
                raise RuntimeError("no ordering of the terminals fits the budget")
            blocks.append(B)
            R = rest
        return blocks + [R] if R else blocks

    def _fits(self, blocks: list, R: tuple, r: int, removed: frozenset, budget: int) -> bool:
        """Whether `blocks`, in their order, followed by some ordering of the
        sorted tuple R into blocks of at most r, have a cut within budget
        once the classes in `removed` are gone.  It branches over the cuts
        of the first block toward every later terminal; with one block left
        and at most r terminals after it, they form the one block that asks
        the least, so a flow decides."""
        X, later, n = blocks[0], blocks[1:], self.net.n
        if not later and len(R) <= r:
            return not R or self.net.flow(X, [n + y for y in R], budget + 1, removed) <= budget
        sinks = frozenset(n + y for b in later + [R] for y in b)
        cuts = self._cuts(X, sinks, removed, budget)
        if later:
            return any(self._fits(later, R, r, removed | F, budget - len(F)) for F in cuts)
        return any(self.any_order(R, r, removed | F, budget - len(F)) for F in cuts)

    def _cuts(self, X: tuple, sinks: frozenset, removed: frozenset, budget: int) -> list:
        """The important-cut superset of `_important` from X to `sinks`
        within `budget`, without repeats, memoized per (X, sinks, removed)
        with the budget it was found at.  A cut's need, the largest flow +
        |F| on its branch, is its size: a cut step keeps flow + |F| and an
        extend step raises the flow.  So a lower budget finds the cuts of
        the stored list that fit it, in the same order."""
        key = (X, sinks, removed)
        held = self.memo.get(key)
        if held is None or held[0] < budget:
            found: list = []
            flow = self.net.flow(X, sinks, budget + 1, removed)
            if flow <= budget:
                self._important(sinks, frozenset(), budget, flow, found)
            held = self.memo[key] = (budget, list(dict.fromkeys(found)))
        top, cuts = held
        return cuts if top == budget else [F for F in cuts if len(F) <= budget]

    def _important(self, Y: frozenset, F: frozenset, budget: int, flow: int, found: list) -> None:
        """Append to `found` every class set F ∪ C that a branch reaches,
        with C of at most `budget` classes cutting the network's sources
        from Y once the question's removed classes and F are gone: a
        superset of the important cuts.  The network holds a maximum flow of
        value `flow`, at most the budget, for that question.  Each step
        takes the furthest minimum cut R and the least class leaving it,
        then either cuts the class or moves its head to the source side;
        both raise 2 * budget - flow, so the branching ends.  R and the
        class are the same for every maximum flow, so each branch goes on
        from its parent's flow: the cut branch cancels the class's unit, and
        the extend branch restores the parent's residual network and
        augments it."""
        if flow == 0:
            found.append(F)
            return
        net = self.net
        adj, head, cap, src = net.adj, net.head, net.cap, net.source
        # the furthest minimum cut: the nodes that cannot reach the sink in
        # the residual network, walked back from the sinks with room
        reaches = [False] * len(adj)
        queue = [y for y in Y if cap[net.classes + 4 * y + 2] > 0]  # y's sink arc has room
        for y in queue:
            reaches[y] = True
        for y in queue:  # the BFS queue: nodes appended below are visited too
            for a in adj[y]:
                x = head[a]
                if not reaches[x] and cap[a ^ 1] > 0:
                    reaches[x] = True
                    queue.append(x)
        if reaches[src]:
            raise RuntimeError("the flow handed to the important-cut search is not maximum")
        R = [v for v in range(src) if not reaches[v]]
        # its least leaving class: arcs leaving R are saturated, so they
        # carry flow, and removed classes and the sink arcs of R carry none
        e = next(a for u in R for a in adj[u] if not a & 1 and reaches[head[a]] and cap[a ^ 1] > 0)
        # it carries flow, at most the budget, so it costs no more: a split
        # arc, unless an edge arc, costing n + 1, is within the budget
        if e >= 2 * net.n:
            raise RuntimeError("an affordable important cut holds a non-split arc")
        extends = head[e] not in Y  # a later terminal's own split arc ends in a sink
        if extends:
            parent = net.snapshot()
        net.cut_unit(e, R, budget)
        self._important(Y, F | {e}, budget - 1, flow - 1, found)
        if extends:
            net.restore(parent)
            flow = net.extend(R + [head[e]], budget + 1, flow)
            if flow <= budget:
                self._important(Y, F, budget, flow, found)


def _least_budget(fits, lb: int, cap: int) -> int | None:
    """The least budget from `cap` down to `lb` that `fits`, a yes/no
    question monotone in the budget, accepts, or None when it turns `cap`
    down.  Lowering meets one budget it turns down; climbing, many."""
    if not fits(cap):
        return None
    budget = cap
    while budget > lb and fits(budget - 1):
        budget -= 1
    return budget


def _lec_solve(oracle: _CutOracle, blocks, optimum: int) -> frozenset:
    """The lexicographically least set of `optimum` split arcs of the oracle
    that cuts `blocks`, whose cheapest cut has that size: each split arc in
    canonical order, kept iff a smallest cut extends the arcs kept so far
    by it.  No later probe, extending more, can take an arc left out, so
    none needs to ban it."""
    chosen: set = set()
    for cls in range(0, 2 * oracle.net.n, 2):
        if len(chosen) == optimum:  # a set of the optimum's size is a whole cut
            break
        if oracle.feasible(blocks, chosen | {cls}, optimum - len(chosen) - 1):
            chosen.add(cls)
    if not _separates(oracle.net, blocks, chosen):
        raise RuntimeError("lex-least extraction left a violating path")
    return frozenset(chosen)


def linear_vertex_cut(D: Digraph, T, s: int) -> CutCertificate | None:
    """Minimum vertex cut of size at most s (terminals deletable) killing
    every earlier-to-later terminal path, or None."""
    if s < 0:
        raise ValueError("budget must be non-negative")
    blocks = TerminalSequence(T).blocks
    _check_terminals(D, (v for b in blocks for v in b))

    forced = _forced(blocks)
    if len(forced) > s:
        return None
    blocks = [b - forced for b in blocks]
    blocks = [b for b in blocks if b]
    s0 = s - len(forced)
    if len(blocks) < 2:
        return CutCertificate(frozenset(), forced)

    net = split_network(D, [v for v in D.vertices() if v not in forced])
    numbered = [sorted(net.ids(b)) for b in blocks]
    oracle = _CutOracle(net)
    # the blocks are disjoint, so deleting every terminal outside the largest is a cut
    sizes = [len(b) for b in blocks]
    optimum = _least_budget(lambda b: oracle.feasible(numbered, (), b), 0, min(s0, sum(sizes) - max(sizes)))
    if optimum is None:
        return None
    return CutCertificate(frozenset(net.split_vertices(_lec_solve(oracle, numbered, optimum))), forced)


def brute_force_vertex_cut(D: Digraph, T, s: int) -> CutCertificate | None:
    """Ground-truth oracle: tries every vertex subset in canonical order
    (size ascending, then lexicographic) and returns the first valid cut.
    Semantics match linear_vertex_cut, including deletable terminals."""
    blocks = TerminalSequence(T).blocks
    forced = _forced(blocks)

    universe = D.sorted_vertices()
    for size in range(0, min(s, len(universe)) + 1):
        for combo in combinations(universe, size):
            C = set(combo)
            rest = D.minus(C)
            if all(
                not reachable(rest, blocks[i] - C, blocks[j] - C)
                for i in range(len(blocks))
                for j in range(i + 1, len(blocks))
            ):
                return CutCertificate(frozenset(C - forced), frozenset(C & forced))
    return None
