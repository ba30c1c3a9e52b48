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

from collections import deque
from dataclasses import dataclass, field
from collections.abc import Iterable
from itertools import combinations

from .digraph import Digraph, FlowNetwork, Vertex, reachable, vkey, vsorted


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


def _sorted_classes(D: Digraph):
    return sorted(
        ((u, v, c) for u, v, c in D.edge_classes() if u != v),
        key=lambda e: (vkey(e[0]), vkey(e[1])),
    )


def _violating_path(D: Digraph, blocks, removed: frozenset):
    """Canonical shortest violating path as a list of edge classes, or None.

    Scans block pairs (i, j), i < j, in ascending order; for the first i
    that still reaches a later block, takes the BFS-shortest path to the
    smallest such j (sorted expansion keeps the choice deterministic).
    """
    succ = D._succ
    for i in range(len(blocks) - 1):
        later = [(j, blocks[j]) for j in range(i + 1, len(blocks))]
        seen = set(blocks[i])
        parent: dict[Vertex, Vertex | None] = {v: None for v in blocks[i]}
        queue = deque(vsorted(blocks[i]))
        hits: dict[int, Vertex] = {}
        while queue:
            u = queue.popleft()
            for w in vsorted(succ[u]):
                if w in seen or (u, w) in removed:
                    continue
                seen.add(w)
                parent[w] = u
                for j, blk in later:
                    if w in blk and j not in hits:
                        hits[j] = w
                queue.append(w)
        if hits:
            target = hits[min(hits)]
            path = []
            node = target
            while parent[node] is not None:
                path.append((parent[node], node))
                node = parent[node]
            path.reverse()
            return path
    return None


def _search(D, blocks, costs, removed: frozenset, banned: frozenset,
            spent: int, budget: int):
    path = _violating_path(D, blocks, removed)
    if path is None:
        return removed
    if spent >= budget:
        return None
    tried = set()
    for cls in path:
        if cls in tried or cls in banned:
            continue
        tried.add(cls)
        c = costs[cls]
        if spent + c > budget:
            continue
        res = _search(D, blocks, costs, removed | {cls}, banned, spent + c, budget)
        if res is not None:
            return res
    return None


def _flow_lower_bound(D: Digraph, blocks, s: int) -> int | None:
    """Max-flow over every earlier/later split lower-bounds the cut cost;
    returns the largest bound, or None as soon as one split exceeds s."""
    classes = _sorted_classes(D)
    bound = 0
    for cutpos in range(1, len(blocks)):
        net = FlowNetwork()
        for u, v, c in classes:
            net.add(u, v, c)
        src, snk = ("lb-src",), ("lb-snk",)
        for b in blocks[:cutpos]:
            for x in vsorted(b):
                net.add(src, x, s + 1)
        for b in blocks[cutpos:]:
            for y in vsorted(b):
                net.add(y, snk, s + 1)
        flow = net.max_flow(src, snk, limit=s + 1)
        if flow > s:
            return None
        bound = max(bound, flow)
    return bound


def _lec_solve(D: Digraph, blocks, s: int, canonical: bool):
    """Minimum-cost set of edge classes (cost = multiplicity) within budget
    s, or None.  With canonical=True the lexicographically least minimum cut
    is extracted by greedy feasibility probing."""
    costs = {(u, v): c for u, v, c in _sorted_classes(D)}
    start = _flow_lower_bound(D, blocks, s)
    if start is None:
        return None
    best = None
    for budget in range(start, s + 1):
        best = _search(D, blocks, costs, frozenset(), frozenset(), 0, budget)
        if best is not None:
            break
    if best is None:
        return None
    optimum = sum(costs[cls] for cls in best)
    if not canonical or not best:
        return best
    chosen: set = set()
    out: set = set()
    spent = 0
    for cls in sorted(costs, key=lambda e: (vkey(e[0]), vkey(e[1]))):
        if _violating_path(D, blocks, frozenset(chosen)) is None:
            break
        c = costs[cls]
        if spent + c > optimum:
            continue
        if _search(D, blocks, costs, frozenset(chosen | {cls}), frozenset(out),
                   spent + c, optimum) is not None:
            chosen.add(cls)
            spent += c
        else:
            out.add(cls)
    assert _violating_path(D, blocks, frozenset(chosen)) is None
    return frozenset(chosen)


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
    red = Digraph()
    for v in D.sorted_vertices():
        red.add_edge(("in", v), ("out", v))
    for u, v, _ in _sorted_classes(D):
        red.add_edge(("out", u), ("in", v), s0 + 1)
    red_blocks = []
    for b in blocks:
        blk = set()
        for v in vsorted(b):
            t = ("term", v)
            red.add_edge(t, ("in", v), s0 + 1)
            red.add_edge(("out", v), t, s0 + 1)
            blk.add(t)
        red_blocks.append(frozenset(blk))
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
        assert tail[0] == "in" and head == ("out", tail[1]), \
            "affordable reduction cuts consist of split arcs only"
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
