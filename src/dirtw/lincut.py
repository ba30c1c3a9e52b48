"""Exact solvers for linear cuts: given an ordered sequence of terminal
blocks, remove at most `s` edges (or vertices) so that no directed path runs
from an earlier block to a later one.

The vertex variant reduces to the edge variant by vertex splitting: every
vertex v becomes an arc v_in -> v_out, every original edge gets s+1 parallel
copies, and each terminal hangs off a fresh gadget vertex attached by s+1
arcs each way, so affordable cuts consist of split arcs only.  Vertices are
deletable even when they are terminals; deleting a terminal discharges the
demands it participates in.
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
    order, which is the canonical class order; `block_of[v]` is the index of
    v's block or -1.  Blocks must be pairwise disjoint."""

    __slots__ = ("succ", "costs", "blocks", "block_of")

    def __init__(self, succ: list[list[int]], costs: dict, blocks) -> None:
        self.succ = succ
        self.costs = costs
        self.blocks = [sorted(b) for b in blocks]
        self.block_of = [-1] * len(succ)
        for j, b in enumerate(self.blocks):
            for v in b:
                self.block_of[v] = j


def _violating_path(G: _CutInstance, removed: frozenset):
    """Canonical shortest violating path as a list of edge classes, or None.

    Scans the blocks in order; for the first block i that still reaches a
    later block, takes the BFS-shortest path to the first-discovered vertex
    of the least such block (sorted expansion keeps the choice
    deterministic).  Block i+1 is the least possible, so reaching it ends
    the BFS.
    """
    succ, block_of = G.succ, G.block_of
    if removed:
        succ = succ[:]
        for u, w in removed:
            succ[u] = [x for x in succ[u] if x != w]
    for i in range(len(G.blocks) - 1):
        parent = dict.fromkeys(G.blocks[i], -1)
        queue = list(G.blocks[i])
        target, least = -1, len(G.blocks)
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


def _search(G: _CutInstance, removed: frozenset, banned: frozenset, spent: int, budget: int):
    path = _violating_path(G, removed)
    if path is None:
        return removed
    if spent >= budget:
        return None
    for cls in path:  # a BFS path never repeats a class
        if cls in banned:
            continue
        c = G.costs[cls]
        if spent + c > budget:
            continue
        res = _search(G, removed | {cls}, banned, spent + c, budget)
        if res is not None:
            return res
    return None


def _flow_lower_bound(G: _CutInstance, s: int) -> int:
    """Max-flow over every earlier/later split lower-bounds the cut cost;
    returns the largest bound, stopping as soon as one split exceeds s.
    One network serves every split: all terminal arcs are built once,
    switched off, and each split switches on its own."""
    src, snk = len(G.succ), len(G.succ) + 1
    net = FlowNetwork(len(G.succ) + 2)
    for (u, w), c in G.costs.items():
        net.add(u, w, c)
    into = [[net.add(src, x, 0) for x in b] for b in G.blocks[:-1]]
    out_of = [[net.add(y, snk, 0) for y in b] for b in G.blocks[1:]]
    bound = 0
    for cutpos in range(1, len(G.blocks)):
        net.reset()
        for arcs in into[:cutpos] + out_of[cutpos - 1:]:
            for a in arcs:
                net.cap[a] = s + 1
        bound = max(bound, net.max_flow(src, snk, limit=s + 1))
        if bound > s:
            break
    return bound


def _cheapest(G: _CutInstance, start: int, s: int):
    """Minimum-cost set of edge classes within budget s, or None, by
    iterative deepening from `start`, a lower bound on that cost."""
    for budget in range(start, s + 1):
        cut = _search(G, frozenset(), frozenset(), 0, budget)
        if cut is not None:
            return cut
    return None


def _lec_solve(G: _CutInstance, s: int):
    """The lexicographically least minimum-cost set of edge classes within
    budget s, or None, extracted from a minimum cut by greedy feasibility
    probing."""
    cut = _cheapest(G, _flow_lower_bound(G, s), s)
    if not cut:
        return cut
    optimum = sum(G.costs[cls] for cls in cut)
    chosen: set = set()
    out: set = set()
    spent = 0
    for cls, c in G.costs.items():
        if _violating_path(G, frozenset(chosen)) is None:
            break
        if spent + c > optimum:
            continue
        if _search(G, frozenset(chosen | {cls}), frozenset(out),
                   spent + c, optimum) is not None:
            chosen.add(cls)
            spent += c
        else:
            out.add(cls)
    if _violating_path(G, frozenset(chosen)) is not None:
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
    cut = _lec_solve(_edge_instance(D, G, blocks), s)
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
    cut = _lec_solve(_reduction(body, blocks, s0), s0)
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
