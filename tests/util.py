"""Shared fixtures-by-hand: small named digraphs and independent brute-force
oracles.  The oracles here deliberately use different algorithms than the
package (recursive DFS instead of BFS, subset enumeration instead of flow) so
agreement is meaningful."""
from __future__ import annotations

import random
from collections import deque
from itertools import combinations

from dirtw import (BalancedSeparatorInstance, Digraph, MengerResult, Path, TBramble, TerminalSequence,
                   balanced_separator, vkey, vsorted)
from dirtw.digraph import Interned, split_network, terminal_flow
from dirtw.lincut import (CutCertificate, _check_blocks_in, _coerce_blocks, _flow_lower_bound, _forced,
                          _reduction, _search)


# -- named instances --------------------------------------------------------

def pendant_pairs_digraph() -> Digraph:
    """Strongly connected 7-vertex digraph with bidirected pairs
    ab, ac, bc, bd, be, cf, cg, de, fg."""
    D = Digraph()
    for u, v in [("a", "b"), ("a", "c"), ("b", "c"), ("b", "d"), ("b", "e"),
                 ("c", "f"), ("c", "g"), ("d", "e"), ("f", "g")]:
        D.add_bidirected(u, v)
    return D


def triangle_gadget() -> Digraph:
    """Triangle v1->v2->v3->v1 with a subdivided extra arc on each side."""
    D = Digraph()
    for u, v in [("v1", "x12"), ("x12", "v2"), ("v2", "x23"), ("x23", "v3"),
                 ("v3", "x13"), ("x13", "v1"), ("v1", "v2"), ("v2", "v3"),
                 ("v3", "v1")]:
        D.add_edge(u, v)
    return D


def two_cycle_tail() -> Digraph:
    """Nine-vertex digraph: two 3-cycles over v1..v7 joined head to tail,
    plus a v9/v10 appendix feeding back into v2."""
    D = Digraph()
    for u, v in [("v1", "v3"), ("v3", "v5"), ("v5", "v7"), ("v6", "v4"),
                 ("v4", "v2"), ("v2", "v1"), ("v3", "v4"), ("v6", "v5"),
                 ("v3", "v2"), ("v7", "v6"), ("v9", "v2"), ("v6", "v10"),
                 ("v10", "v9")]:
        D.add_edge(u, v)
    return D


def bidirected_clique(n: int) -> Digraph:
    D = Digraph()
    for i in range(1, n + 1):
        D.add_vertex(i)
    for i, j in combinations(range(1, n + 1), 2):
        D.add_bidirected(i, j)
    return D


def bidirected_cycle(n: int) -> Digraph:
    D = Digraph()
    for i in range(1, n + 1):
        D.add_bidirected(i, i % n + 1)
    return D


def path_digraph(*names) -> Digraph:
    D = Digraph()
    if len(names) == 1:
        D.add_vertex(names[0])
    for u, v in zip(names, names[1:]):
        D.add_edge(u, v)
    return D


def mixed_id_digraph(rng: random.Random, D: Digraph) -> Digraph:
    """A copy of D on a random injective choice of int, str and tuple ids,
    built in shuffled order, so construction order and id type say nothing
    about vkey order.  Multiplicities and loops are kept."""
    pool = ([rng.randrange(-50, 50) for _ in range(3)] + [f"v{rng.randrange(50)}" for _ in range(3)]
            + [("t", rng.randrange(9)), (rng.randrange(9), "x"), ((1, "a"), rng.randrange(9)), ()])
    pool += [f"w{i}" for i in range(D.n)]
    pool = list(dict.fromkeys(pool))
    rng.shuffle(pool)
    name = dict(zip(D.sorted_vertices(), pool))
    order = D.sorted_vertices()
    rng.shuffle(order)
    out = Digraph()
    for v in order:
        out.add_vertex(name[v])
    classes = list(D.edge_classes())
    rng.shuffle(classes)
    for u, v, c in classes:
        out.add_edge(name[u], name[v], c)
    return out


def random_digraph(rng: random.Random, n: int, p: float, isolated_ok: bool = True) -> Digraph:
    D = Digraph()
    for v in range(1, n + 1):
        D.add_vertex(v)
    for u in range(1, n + 1):
        for v in range(1, n + 1):
            if u != v and rng.random() < p:
                D.add_edge(u, v)
    if not isolated_ok:
        vs = list(range(1, n + 1))
        for v in vs:
            if not any(True for _ in D.out_neighbors(v)):
                D.add_edge(v, rng.choice([w for w in vs if w != v]))
    return D


# -- independent oracles -----------------------------------------------------

def dfs_path_exists(D: Digraph, sources, targets) -> bool:
    """Recursive DFS reachability, coded independently of the package BFS."""
    targets = {t for t in targets if t in D}
    visited = set()

    def go(v) -> bool:
        if v in targets:
            return True
        visited.add(v)
        return any(w not in visited and go(w) for w in sorted(D.out_neighbors(v), key=str))

    return any(s not in visited and go(s) for s in sources if s in D)


def brute_scc_partition(D: Digraph) -> set[frozenset]:
    comps = set()
    for v in D.vertices():
        comps.add(frozenset(
            w for w in D.vertices()
            if dfs_path_exists(D, [v], [w]) and dfs_path_exists(D, [w], [v])
        ))
    return comps


def brute_guarded(D: Digraph, S, Z) -> bool:
    """Walk oracle: an S-to-S walk through an outside vertex w decomposes
    into a simple S->w path and a simple w->S path, both avoiding Z."""
    Z = set(Z)
    S = {v for v in S if v in D} - Z
    rest = D.minus(Z)
    for w in rest.vertices():
        if w in S:
            continue
        if dfs_path_exists(rest, S, [w]) and dfs_path_exists(rest, [w], S):
            return False
    return True


def subsets_up_to(items, max_size: int):
    items = sorted(items, key=str)
    for size in range(0, max_size + 1):
        yield from (set(c) for c in combinations(items, size))


def brute_bramble_elements(D: Digraph, T, k: int) -> list[frozenset]:
    """All induced strongly connected subgraphs with at least k terminals,
    found by raw subset enumeration over the DFS strong-component oracle."""
    T = set(T)
    out = []
    verts = sorted(D.vertices(), key=str)
    for size in range(1, len(verts) + 1):
        for S in combinations(verts, size):
            Sset = set(S)
            if len(Sset & T) < k:
                continue
            if brute_scc_partition(D.induced(Sset)) == {frozenset(Sset)}:
                out.append(frozenset(Sset))
    return out


def brute_bramble_hits(elements, X) -> bool:
    X = set(X)
    return all(e & X for e in elements)


def brute_bramble_order(D: Digraph, elements) -> int:
    """Minimum hitting-set size over the explicit element list."""
    if not elements:
        return 0
    for size in range(1, D.n + 1):
        for X in subsets_up_to(D.vertices(), size):
            if len(X) == size and brute_bramble_hits(elements, X):
                return size
    raise AssertionError("the full vertex set hits every element")


def brute_min_vertex_separator(D: Digraph, X, Y) -> int:
    """Minimum number of vertex deletions (terminals deletable) killing every
    X-to-Y path; |V| if even deleting everything relevant cannot (never)."""
    for size in range(0, D.n + 1):
        for S in subsets_up_to(D.vertices(), size):
            if len(S) != size:
                continue
            if not dfs_path_exists(D.minus(S), set(X) - S, set(Y) - S):
                return size
    raise AssertionError("deleting all vertices always separates")


def reference_violating_path(D: Digraph, blocks, removed: frozenset):
    """The vertex-keyed violating-path search that lincut._violating_path
    replaced, kept verbatim as its reference: re-sorts every successor list
    on every BFS step and scans all later blocks for each new vertex."""
    succ = D._succ
    for i in range(len(blocks) - 1):
        later = [(j, blocks[j]) for j in range(i + 1, len(blocks))]
        seen = set(blocks[i])
        parent = {v: None for v in blocks[i]}
        queue = deque(vsorted(blocks[i]))
        hits = {}
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


class _TupleFlowNetwork:
    """The dict-keyed flow network that digraph.FlowNetwork replaced, kept
    verbatim for reference_menger: nodes are arbitrary hashables and each
    ordered node pair has one capacity entry."""

    def __init__(self) -> None:
        self.cap: dict[tuple, int] = {}
        self.adj: dict = {}

    def add(self, u, v, c: int) -> None:
        if c <= 0:
            return
        if u not in self.adj:
            self.adj[u] = []
        if v not in self.adj:
            self.adj[v] = []
        if (u, v) not in self.cap:
            self.cap[(u, v)] = 0
            self.adj[u].append(v)
            if (v, u) not in self.cap:
                self.cap[(v, u)] = 0
                self.adj[v].append(u)
        self.cap[(u, v)] += c

    def max_flow(self, s, t, limit: int | None = None) -> int:
        cap = self.cap
        adj = self.adj
        if s not in adj or t not in adj:
            return 0
        flow = 0
        while limit is None or flow < limit:
            parent = {s: None}
            queue = deque([s])
            while queue:
                u = queue.popleft()
                if u == t:
                    break
                for w in adj[u]:
                    if w not in parent and cap[(u, w)] > 0:
                        parent[w] = u
                        queue.append(w)
            if t not in parent:
                break
            bottleneck = None
            node = t
            while parent[node] is not None:
                c = cap[(parent[node], node)]
                if bottleneck is None or c < bottleneck:
                    bottleneck = c
                node = parent[node]
            if limit is not None and flow + bottleneck > limit:
                bottleneck = limit - flow
            node = t
            while parent[node] is not None:
                p = parent[node]
                cap[(p, node)] -= bottleneck
                cap[(node, p)] += bottleneck
                node = p
            flow += bottleneck
        return flow

    def residual_side(self, s) -> set:
        seen = {s}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in self.adj.get(u, ()):
                if w not in seen and self.cap[(u, w)] > 0:
                    seen.add(w)
                    queue.append(w)
        return seen


_SRC = ("src",)
_SNK = ("snk",)


def _tuple_split_network(D: Digraph, sources=(), sinks=()) -> _TupleFlowNetwork:
    big = D.n + 2
    net = _TupleFlowNetwork()
    for v in D.sorted_vertices():
        net.add(("in", v), ("out", v), 1)
    for u, v, _ in sorted(D.edge_classes(), key=lambda e: (vkey(e[0]), vkey(e[1]))):
        if u != v:
            net.add(("out", u), ("in", v), big)
    for x in vsorted(set(sources)):
        net.add(_SRC, ("in", x), big)
    for y in vsorted(set(sinks)):
        net.add(("out", y), _SNK, big)
    return net


def _node_key(node):
    if node == _SNK:
        return (3,)
    return (1, vkey(node[1])) if node[0] == "in" else (2, vkey(node[1]))


def reference_menger(D: Digraph, X, Y, r: int) -> MengerResult:
    """The tuple-keyed menger that the int-indexed split network replaced,
    kept verbatim as its reference: split nodes ("in", v) and ("out", v),
    one network built per call, and a path decomposition that always steps
    to the least next node."""
    Xs = vsorted({x for x in X})
    Ys = vsorted({y for y in Y})
    net = _tuple_split_network(D, Xs, Ys)
    orig = dict(net.cap)
    flow = net.max_flow(_SRC, _SNK, limit=r)
    if flow < r:
        side = net.residual_side(_SRC)
        sep = {v for v in D.vertices() if ("in", v) in side and ("out", v) not in side}
        return MengerResult(None, sep)

    used = {arc: orig[arc] - c for arc, c in net.cap.items() if orig[arc] - c > 0}
    paths = []
    for _ in range(r):
        walk = []
        node = _SRC
        while node != _SNK:
            nxt = None
            for w in net.adj[node]:
                if used.get((node, w), 0) > 0 and (nxt is None or _node_key(w) < _node_key(nxt)):
                    nxt = w
            used[(node, nxt)] -= 1
            if used[(node, nxt)] == 0:
                del used[(node, nxt)]
            if nxt != _SNK and nxt[0] == "in":
                walk.append(nxt[1])
            node = nxt
        paths.append(Path(D, walk))
    return MengerResult(paths, None)


def reference_noncanonical_vertex_cut(D: Digraph, T, s: int) -> CutCertificate | None:
    """linear_vertex_cut along the canonical=False solve path it had before
    the partition engine built its own reduction, kept for
    reference_partition_min_cut: the first minimum cut that iterative
    deepening from the flow lower bound finds, with no lex-least
    extraction."""
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
    n = len(body.names)
    G = _reduction(body, blocks, s0)
    cut = None
    # a bound above s0 leaves this range empty (it was reported as None)
    for budget in range(_flow_lower_bound(G, s0), s0 + 1):
        cut = _search(G, frozenset(), frozenset(), 0, budget)
        if cut is not None:
            break
    if cut is None:
        return None
    elements = set()
    for tail, head in cut:
        if tail >= n or head != n + tail:
            raise RuntimeError("an affordable reduction cut holds a non-split arc")
        elements.add(body.names[tail])
    return CutCertificate("vertex-cut", frozenset(elements), forced)


def reference_partition_min_cut(sub: Digraph, Tc: frozenset, r: int, cap: int, lb: int) -> frozenset | None:
    """The partition engine that called linear_vertex_cut once per ordered
    partition, kept verbatim as the reference of balsep._partition_min_cut:
    its own partition recursion, one interning and one reduction per
    partition, and a fresh flow lower bound per partition."""
    flow_memo: dict = {}
    G = Interned(sub, sub.vertices())
    net = split_network(G)

    def prefix_bound(U: frozenset) -> int:
        if U not in flow_memo:
            # min vertices (terminals deletable) meeting every U -> rest path
            rest = Tc - U
            flow_memo[U] = (terminal_flow(net, G.ids(U), G.ids(rest), limit=cap + 1)
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
            cut = reference_noncanonical_vertex_cut(sub, TerminalSequence(blocks), budget)
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


def reference_complement_order_at_most(B: TBramble, X, s: int) -> tuple[bool, frozenset | None]:
    """complement_order_at_most as it was when it copied D minus X, kept
    verbatim as the reference of the banned-set version."""
    if s < 0:
        return False, None
    Xset = frozenset(X)
    rest = B.D.minus(Xset)
    result = balanced_separator(BalancedSeparatorInstance(rest, B.T - Xset, B.k - 1, s))
    if result.linked:
        return False, None
    return True, result.separator
