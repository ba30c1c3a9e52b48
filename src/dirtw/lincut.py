"""Exact solvers for linear cuts: given an ordered sequence of terminal
blocks, remove at most `s` edges (or vertices) so that no directed path runs
from an earlier block to a later one.

The vertex variant reduces to the edge variant by vertex splitting: every
vertex v becomes an arc v_in -> v_out, every original edge gets s+1 parallel
copies, and each terminal hangs off a fresh gadget vertex attached by s+1
arcs each way, so affordable cuts consist of split arcs only.  Vertices are
deletable even when they are terminals; deleting a terminal discharges the
demands it participates in.

Both variants, and every ordered partition that the balanced-separator
engine prices, are solved exactly by one extraction, `_lec_solve`, on
`_CutOracle`, a yes/no test for a cut within budget that branches over
important cuts: the optimum is the least budget it accepts from a lower
bound on, and the lexicographically least cheapest cut is read off its
answers one edge class at a time.  So every cut returned is the lex-least
cheapest one.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from collections.abc import Iterable
from itertools import combinations

from .digraph import Digraph, FlowNetwork, Interned, Vertex, reachable, vsorted


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
    """A cut found within budget.  `elements` are vertices (vertex-cut) or
    distinct edge classes as (tail, head) pairs (edge-cut; removing a class
    removes all its parallel copies).  `forced` holds vertices pre-forced by
    normalization because they occurred in two blocks."""

    kind: str
    elements: frozenset
    forced: frozenset = field(default_factory=frozenset)

    @property
    def size(self) -> int:
        return len(self.elements) + len(self.forced)

    def cut_vertices(self) -> frozenset:
        if self.kind != "vertex-cut":
            raise ValueError(f"a {self.kind} certificate has no cut vertices")
        return self.elements | self.forced


def _coerce_blocks(T) -> list[frozenset]:
    if isinstance(T, TerminalSequence):
        return list(T.blocks)
    return list(TerminalSequence(T).blocks)


def _check_blocks_in(D: Digraph, blocks: list[frozenset]) -> None:
    for b in blocks:
        for v in b:
            if v not in D:
                raise ValueError(f"terminal {v!r} not in digraph")


def _forced(blocks: list[frozenset]) -> frozenset:
    """Vertices in two or more blocks: every vertex cut deletes them."""
    counts = Counter(v for b in blocks for v in b)
    return frozenset(v for v, c in counts.items() if c > 1)


class _CutInstance:
    """An edge-cut instance over the ints 0..N-1, numbered so that int order
    is the canonical order.  `succ[u]` lists u's successors pre-sorted;
    `costs` maps each edge class (u, w) to its cost in ascending (u, w)
    order, which is the canonical class order.  `blocks` are the terminals,
    pairwise disjoint; a question may order them into other blocks."""

    __slots__ = ("succ", "costs", "blocks")

    def __init__(self, succ: list[list[int]], costs: dict, blocks) -> None:
        self.succ = succ
        self.costs = costs
        self.blocks = [sorted(b) for b in blocks]


def _violating_path(G: _CutInstance, blocks, removed: frozenset):
    """Shortest violating path between `blocks`, lists of G's terminals, as
    a list of edge classes, or None; canonical when the lists are sorted.

    Scans the blocks in order; for the first block i that still reaches a
    later block, takes the BFS-shortest path to the first-discovered vertex
    of the least such block (sorted expansion keeps the choice
    deterministic).  Block i+1 is the least possible, so reaching it ends
    the BFS.
    """
    succ = G.succ
    block_of = [-1] * len(succ)
    for j, b in enumerate(blocks):
        for v in b:
            block_of[v] = j
    if removed:
        succ = succ[:]
        for u, w in removed:
            succ[u] = [x for x in succ[u] if x != w]
    for i in range(len(blocks) - 1):
        parent = dict.fromkeys(blocks[i], -1)
        queue = list(blocks[i])
        target, least = -1, len(blocks)
        for u in queue:  # the BFS queue: vertices appended below are visited too
            for w in succ[u]:
                if w in parent:
                    continue
                parent[w] = u
                j = block_of[w]
                if i < j < least:
                    target, least = w, j
                queue.append(w)
            if least == i + 1:
                break
        if target >= 0:
            path = []
            while parent[target] >= 0:
                path.append((parent[target], target))
                target = parent[target]
            path.reverse()
            return path
    return None


class _CutOracle:
    """Exact yes/no answers about the graph of one _CutInstance: is there a
    set of edge classes of cost at most b, avoiding `banned`, whose removal
    together with `removed` kills every path from an earlier block to a
    later one?  The blocks are asked per question, so one oracle serves
    every ordering of the instance's terminals.

    A linear cut is Skew Edge Multicut, so by the pushing lemma (Chen, Liu,
    Lu, O'Sullivan and Razgon, JACM 2008) some cheapest solution contains an
    important (B_1, B_2 ∪ … ∪ B_t)-cut (Marx, TCS 2006).  The oracle branches
    over a superset of those cuts within budget, then recurses on B_2..B_t
    with the cut removed; the cost grows with the budget, not with the
    graph.  Every flow runs on one FlowNetwork: the class arcs at their
    costs, and source and sink arcs built switched off.  Removed classes
    get capacity 0 and banned ones the flow limit, b + 1, which no cut
    within budget can pay, as it cannot pay a class that costs more than
    b.  The lists of cuts are memoized for the oracle's life."""

    __slots__ = ("G", "net", "arc", "into", "out_of", "memo")

    def __init__(self, G: _CutInstance) -> None:
        self.G = G
        N = len(G.succ)
        net = FlowNetwork(N + 2)
        self.arc = {(u, w): net.add(u, w, c) for (u, w), c in G.costs.items()}
        self.into = [net.add(N, v, 0) for v in range(N)]
        self.out_of = {y: net.add(y, N + 1, 0) for b in G.blocks for y in b}
        self.net = net
        self.memo: dict = {}

    def feasible(self, blocks, removed, banned, budget: int) -> bool:
        """Whether some set of classes outside `banned`, of cost at most
        `budget`, kills every earlier-to-later path between `blocks` (lists
        of the instance's terminals) once the classes in `removed` are
        gone."""
        arc = self.arc
        return self._decide([tuple(b) for b in blocks], frozenset(arc[c] for c in removed),
                            frozenset(arc[c] for c in banned), budget)

    def lower_bound(self, blocks, s: int) -> int:
        """Max-flow over every earlier/later split of `blocks` lower-bounds
        the cut cost; returns the largest bound, stopping as soon as one
        split exceeds s."""
        bound = 0
        for cut in range(1, len(blocks)):
            earlier = [x for b in blocks[:cut] for x in b]
            later = [y for b in blocks[cut:] for y in b]
            bound = max(bound, self._flow(earlier, later, frozenset(), frozenset(), s))
            if bound > s:
                break
        return bound

    def _decide(self, blocks: list, removed: frozenset, banned: frozenset, budget: int) -> bool:
        if len(blocks) < 2:
            return True
        sinks = frozenset(y for b in blocks[1:] for y in b)
        if len(blocks) == 2:  # any cut of the last pair will do
            return self._flow(blocks[0], sinks, removed, banned, budget) <= budget
        key = (blocks[0], sinks, budget, removed, banned)
        cuts = self.memo.get(key)
        if cuts is None:
            found: list = []
            self._important(blocks[0], sinks, removed, banned, frozenset(), budget, found)
            built = self.net.built
            cuts = self.memo[key] = [(F, sum(built[a] for a in F)) for F in dict.fromkeys(found)]
        return any(self._decide(blocks[1:], removed | F, banned, budget - cost) for F, cost in cuts)

    def _important(self, X, Y: frozenset, removed: frozenset, banned: frozenset,
                   F: frozenset, budget: int, found: list) -> None:
        """Append to `found` every arc set F ∪ C that a branch reaches,
        with C of cost at most `budget` cutting X from Y once `removed` and
        F are gone: a superset of the important cuts.  Each step takes the
        furthest minimum cut R and the least arc leaving it, then either
        cuts the arc or moves its head to the source side; both raise
        2 * budget - flow, so the branching ends."""
        flow = self._flow(X, Y, removed | F, banned, budget)
        if flow > budget:
            return
        if flow == 0:
            found.append(F)
            return
        net = self.net
        adj, head, cap = net.adj, net.head, net.cap
        N = len(self.into)
        # the furthest minimum cut: the nodes that cannot reach the sink in
        # the residual network
        reaches = [False] * (N + 2)
        reaches[N + 1] = True
        queue = [N + 1]
        for y in queue:  # the BFS queue: nodes appended below are visited too
            for a in adj[y]:
                x = head[a]
                if not reaches[x] and cap[a ^ 1] > 0:
                    reaches[x] = True
                    queue.append(x)
        R = [v for v in range(N) if not reaches[v]]
        # its least leaving class arc: arcs leaving R are saturated, so
        # they carry flow, and removed ones carry none
        e = next(a for u in R for a in adj[u] if not a & 1 and reaches[head[a]] and cap[a ^ 1] > 0)
        # it costs at most the flow, so within budget
        self._important(R, Y, removed, banned, F | {e}, budget - net.built[e], found)
        if head[e] not in Y:
            self._important(R + [head[e]], Y, removed, banned, F, budget, found)

    def _flow(self, X, Y, cut: frozenset, banned: frozenset, budget: int) -> int:
        """The X -> Y max flow with the arcs in `cut` gone and those in
        `banned` uncuttable, stopping once it exceeds `budget`."""
        net = self.net
        net.reset()
        cap, into, out_of = net.cap, self.into, self.out_of
        room = budget + 1
        for a in banned:
            cap[a] = room
        for a in cut:
            cap[a] = 0
        for x in X:
            cap[into[x]] = room
        for y in Y:
            cap[out_of[y]] = room
        return net.max_flow(len(into), len(into) + 1, limit=room)


def _lec_solve(oracle: _CutOracle, blocks, start: int, budget: int):
    """The lexicographically least minimum-cost set of the oracle's edge
    classes that cuts `blocks` within `budget`, or None: the least budget
    from `start`, a lower bound on the cost, that the oracle accepts, then
    each class in canonical order, kept iff a cheapest cut extends the
    classes kept so far by it and avoids the ones left out."""
    optimum = next((b for b in range(start, budget + 1) if oracle.feasible(blocks, (), (), b)), None)
    if optimum is None:
        return None
    chosen: set = set()
    out: set = set()
    spent = 0
    for cls, c in oracle.G.costs.items():
        # classes cost at least one, so a set at the optimum is a whole cut
        if spent == optimum:
            break
        if spent + c > optimum:
            continue
        if oracle.feasible(blocks, chosen | {cls}, out, optimum - spent - c):
            chosen.add(cls)
            spent += c
        else:
            out.add(cls)
    if _violating_path(oracle.G, blocks, frozenset(chosen)) is not None:
        raise RuntimeError("lex-least extraction left a violating path")
    return frozenset(chosen)


def linear_edge_cut(D: Digraph, T, s: int) -> CutCertificate | None:
    """Minimum edge cut of cost at most s killing every earlier-to-later
    terminal path, or None.  A vertex shared by two blocks makes the demand
    unsatisfiable by edge deletions (the zero-length path survives), so such
    instances report None."""
    if s < 0:
        raise ValueError("budget must be non-negative")
    blocks = _coerce_blocks(T)
    _check_blocks_in(D, blocks)
    if len(blocks) < 2:
        return CutCertificate("edge-cut", frozenset())
    if _forced(blocks):
        return None
    G = Interned(D, D.vertices())
    oracle = _CutOracle(_edge_instance(D, G, blocks))
    cut = _lec_solve(oracle, oracle.G.blocks, oracle.lower_bound(oracle.G.blocks, s), s)
    if cut is None:
        return None
    return CutCertificate("edge-cut", frozenset((G.names[u], G.names[w]) for u, w in cut))


def _edge_instance(D: Digraph, G: Interned, blocks) -> _CutInstance:
    """D's edge-cut instance on G's numbering: each non-loop edge class
    costs its multiplicity."""
    names = G.names
    costs = {(u, w): D.mult(names[u], names[w]) for u in range(len(names)) for w in G.succ[u]}
    return _CutInstance(G.succ, costs, [G.ids(b) for b in blocks])


def _reduction(G: Interned, blocks, s0: int) -> _CutInstance:
    """The vertex-split reduction of G in the split layout: v_in = v,
    v_out = n + v, and the gadget of the j-th least terminal at 2n + j.
    v_in -> v_out costs one; edge arcs and the arcs between a terminal and
    its gadget cost s0 + 1, so affordable cuts hold split arcs only."""
    n = len(G.names)
    terms = sorted(G.ids(v for b in blocks for v in b))
    gadget = {v: 2 * n + j for j, v in enumerate(terms)}
    succ = [[n + v] for v in range(n)]
    succ += [G.succ[v] + ([gadget[v]] if v in gadget else []) for v in range(n)]
    succ += [[v] for v in terms]
    # an in-node's one arc is its split arc
    costs = {(u, w): 1 if u < n else s0 + 1 for u, heads in enumerate(succ) for w in heads}
    return _CutInstance(succ, costs, [[gadget[v] for v in G.ids(b)] for b in blocks])


def _split_vertices(G: Interned, cut) -> frozenset:
    """The vertices of G whose split arcs make up a cut of its reduction."""
    n = len(G.names)
    for tail, head in cut:
        if tail >= n or head != n + tail:
            raise RuntimeError("an affordable reduction cut holds a non-split arc")
    return frozenset(G.names[tail] for tail, _ in cut)


def linear_vertex_cut(D: Digraph, T, s: int) -> CutCertificate | None:
    """Minimum vertex cut of size at most s (terminals deletable) killing
    every earlier-to-later terminal path, or None."""
    if s < 0:
        raise ValueError("budget must be non-negative")
    blocks = _coerce_blocks(T)
    _check_blocks_in(D, blocks)

    forced = _forced(blocks)
    if len(forced) > s:
        return None
    blocks = [b - forced for b in blocks]
    blocks = [b for b in blocks if b]
    s0 = s - len(forced)
    if len(blocks) < 2:
        return CutCertificate("vertex-cut", frozenset(), forced)

    body = Interned(D, [v for v in D.vertices() if v not in forced])
    oracle = _CutOracle(_reduction(body, blocks, s0))
    cut = _lec_solve(oracle, oracle.G.blocks, oracle.lower_bound(oracle.G.blocks, s0), s0)
    if cut is None:
        return None
    return CutCertificate("vertex-cut", _split_vertices(body, cut), forced)


def brute_force_vertex_cut(D: Digraph, T, s: int) -> CutCertificate | None:
    """Ground-truth oracle: tries every vertex subset in canonical order
    (size ascending, then lexicographic) and returns the first valid cut.
    Semantics match linear_vertex_cut, including deletable terminals."""
    blocks = _coerce_blocks(T)
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
                return CutCertificate("vertex-cut", frozenset(C - forced), frozenset(C & forced))
    return None
