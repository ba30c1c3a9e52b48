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

from dataclasses import dataclass, field
from collections.abc import Iterable
from itertools import combinations

from .digraph import Digraph, FlowNetwork, Vertex, reachable, vsorted


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
        assert self.kind == "vertex-cut"
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


class _Interned:
    """D numbered 0..n-1 in vkey order, once per solve, so that int order is
    vkey order.  `succ[u]` lists u's successors (loops dropped) pre-sorted;
    `costs` maps each non-loop edge class (u, w) to its multiplicity in
    ascending (u, w) order, which is the canonical class order; `block_of[v]`
    is the index of v's block or -1.  Blocks must be pairwise disjoint."""

    __slots__ = ("names", "succ", "costs", "blocks", "block_of")

    def __init__(self, D: Digraph, blocks) -> None:
        names = D.sorted_vertices()
        index = {v: i for i, v in enumerate(names)}
        self.names = names
        self.succ = [sorted(index[w] for w in D._succ[v] if w != v) for v in names]
        self.costs = {}
        for u, v in enumerate(names):
            for w in self.succ[u]:
                self.costs[(u, w)] = D._succ[v][names[w]]
        self.blocks = [sorted(index[v] for v in b) for b in blocks]
        self.block_of = [-1] * len(names)
        for j, b in enumerate(self.blocks):
            for v in b:
                self.block_of[v] = j


def _violating_path(G: _Interned, removed: frozenset):
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


def _search(G: _Interned, removed: frozenset, banned: frozenset, spent: int, budget: int):
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


def _flow_lower_bound(G: _Interned, s: int) -> int | None:
    """Max-flow over every earlier/later split lower-bounds the cut cost;
    returns the largest bound, or None as soon as one split exceeds s.
    One network serves every split: all terminal arcs are built once,
    switched off, and each split switches on its own."""
    src, snk = len(G.names), len(G.names) + 1
    net = FlowNetwork()
    for (u, w), c in G.costs.items():
        net.add(u, w, c)
    for b in G.blocks[:-1]:
        for x in b:
            net.add(src, x, s + 1)
    for b in G.blocks[1:]:
        for y in b:
            net.add(y, snk, s + 1)
    fresh = dict(net.cap)
    for arc in fresh:
        if src in arc or snk in arc:
            fresh[arc] = 0
    bound = 0
    for cutpos in range(1, len(G.blocks)):
        net.cap = dict(fresh)
        for b in G.blocks[:cutpos]:
            for x in b:
                net.cap[(src, x)] = s + 1
        for b in G.blocks[cutpos:]:
            for y in b:
                net.cap[(y, snk)] = s + 1
        flow = net.max_flow(src, snk, limit=s + 1)
        if flow > s:
            return None
        bound = max(bound, flow)
    return bound


def _lec_solve(D: Digraph, blocks, s: int, canonical: bool):
    """Minimum-cost set of edge classes (cost = multiplicity) within budget
    s, or None.  With canonical=True the lexicographically least minimum cut
    is extracted by greedy feasibility probing.  The search runs on D
    interned once; the cut is mapped back to vertex names at the end."""
    G = _Interned(D, blocks)
    start = _flow_lower_bound(G, s)
    if start is None:
        return None
    cut = None
    for budget in range(start, s + 1):
        cut = _search(G, frozenset(), frozenset(), 0, budget)
        if cut is not None:
            break
    if cut is None:
        return None
    if canonical and cut:
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
        cut = chosen
    names = G.names
    return frozenset((names[u], names[w]) for u, w in cut)


def linear_edge_cut(D: Digraph, T, s: int, canonical: bool = True) -> CutCertificate | None:
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
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            if blocks[i] & blocks[j]:
                return None
    cut = _lec_solve(D, blocks, s, canonical)
    if cut is None:
        return None
    return CutCertificate("edge-cut", frozenset(cut))


def _split_reduction(D: Digraph, blocks, s0: int):
    # construction order is free: _lec_solve interns the result in vkey order
    red = Digraph()
    for v in D.vertices():
        red.add_edge(("in", v), ("out", v))
    for u, v, _ in D.edge_classes():
        if u != v:
            red.add_edge(("out", u), ("in", v), s0 + 1)
    red_blocks = []
    for b in blocks:
        for v in b:
            red.add_edge(("term", v), ("in", v), s0 + 1)
            red.add_edge(("out", v), ("term", v), s0 + 1)
        red_blocks.append(frozenset(("term", v) for v in b))
    return red, red_blocks


def linear_vertex_cut(D: Digraph, T, s: int, canonical: bool = True) -> CutCertificate | None:
    """Minimum vertex cut of size at most s (terminals deletable) killing
    every earlier-to-later terminal path, or None."""
    if s < 0:
        raise ValueError("budget must be non-negative")
    blocks = _coerce_blocks(T)
    _check_blocks_in(D, blocks)

    counts: dict[Vertex, int] = {}
    for b in blocks:
        for v in b:
            counts[v] = counts.get(v, 0) + 1
    forced = frozenset(v for v, c in counts.items() if c > 1)
    if len(forced) > s:
        return None
    body = D.minus(forced) if forced else D
    blocks = [b - forced for b in blocks]
    blocks = [b for b in blocks if b]
    s0 = s - len(forced)
    if len(blocks) < 2:
        return CutCertificate("vertex-cut", frozenset(), forced)

    red, red_blocks = _split_reduction(body, blocks, s0)
    cut = _lec_solve(red, red_blocks, s0, canonical)
    if cut is None:
        return None
    elements = set()
    for tail, head in cut:
        if tail[0] != "in" or head != ("out", tail[1]):
            raise RuntimeError("an affordable reduction cut holds a non-split arc")
        elements.add(tail[1])
    return CutCertificate("vertex-cut", frozenset(elements), forced)


def brute_force_vertex_cut(D: Digraph, T, s: int) -> CutCertificate | None:
    """Ground-truth oracle: tries every vertex subset in canonical order
    (size ascending, then lexicographic) and returns the first valid cut.
    Semantics match linear_vertex_cut, including deletable terminals."""
    blocks = _coerce_blocks(T)
    counts: dict[Vertex, int] = {}
    for b in blocks:
        for v in b:
            counts[v] = counts.get(v, 0) + 1
    forced = frozenset(v for v, c in counts.items() if c > 1)

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
