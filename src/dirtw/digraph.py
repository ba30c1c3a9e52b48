"""Directed multigraphs plus the reachability and connectivity subroutines
shared by every solver in this package: strong components, guardedness,
and vertex-disjoint path computation via unit-capacity flow.

Traversals delete vertices through a `banned` set instead of copying the
graph: the strong components or reach of D minus Z are computed on D itself.
"""
from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Iterable, Iterator, Sequence

Vertex = int | str | tuple


def vkey(v: Vertex):
    """Total deterministic order over mixed vertex ids.

    Ints sort before strings, strings before tuples; tuples compare
    recursively.  Used for every tie-break in the package.
    """
    if isinstance(v, int) and not isinstance(v, bool):
        return (0, v)
    if isinstance(v, str):
        return (1, v)
    if isinstance(v, tuple):
        return (2, tuple(vkey(x) for x in v))
    raise TypeError(f"unsupported vertex id: {v!r}")


def vsorted(vs: Iterable[Vertex]) -> list[Vertex]:
    return sorted(vs, key=vkey)


class Digraph:
    """Directed multigraph with parallel edges stored as counts per ordered
    pair.  Loops are allowed.  Algorithms treat instances as immutable
    snapshots; mutation happens only while building.
    """

    __slots__ = ("_succ", "_pred", "_m")

    def __init__(self) -> None:
        self._succ: dict[Vertex, dict[Vertex, int]] = {}
        self._pred: dict[Vertex, dict[Vertex, int]] = {}
        self._m = 0

    @property
    def n(self) -> int:
        return len(self._succ)

    @property
    def m(self) -> int:
        return self._m

    def vertices(self) -> Iterator[Vertex]:
        return iter(self._succ)

    def sorted_vertices(self) -> list[Vertex]:
        return vsorted(self._succ)

    def __contains__(self, v: Vertex) -> bool:
        return v in self._succ

    def add_vertex(self, v: Vertex) -> None:
        if v not in self._succ:
            self._succ[v] = {}
            self._pred[v] = {}

    def add_edge(self, u: Vertex, v: Vertex, mult: int = 1) -> None:
        if mult < 1:
            raise ValueError("edge multiplicity must be positive")
        self.add_vertex(u)
        self.add_vertex(v)
        self._succ[u][v] = self._succ[u].get(v, 0) + mult
        self._pred[v][u] = self._pred[v].get(u, 0) + mult
        self._m += mult

    def add_bidirected(self, u: Vertex, v: Vertex) -> None:
        self.add_edge(u, v)
        self.add_edge(v, u)

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        return u in self._succ and v in self._succ[u]

    def mult(self, u: Vertex, v: Vertex) -> int:
        return self._succ.get(u, {}).get(v, 0)

    def out_neighbors(self, v: Vertex) -> Iterator[Vertex]:
        return iter(self._succ[v])

    def in_neighbors(self, v: Vertex) -> Iterator[Vertex]:
        return iter(self._pred[v])

    def edges(self) -> Iterator[tuple[Vertex, Vertex]]:
        """Every edge, parallel copies yielded separately."""
        for u, nbrs in self._succ.items():
            for v, c in nbrs.items():
                for _ in range(c):
                    yield (u, v)

    def edge_classes(self) -> Iterator[tuple[Vertex, Vertex, int]]:
        """(tail, head, multiplicity) per distinct ordered pair."""
        for u, nbrs in self._succ.items():
            for v, c in nbrs.items():
                yield (u, v, c)

    def copy(self) -> Digraph:
        return self.induced(self._succ)

    def induced(self, keep: Iterable[Vertex]) -> Digraph:
        keep = set(keep)
        sub = Digraph()
        for v in self._succ:
            if v in keep:
                sub.add_vertex(v)
        for u, v, c in self.edge_classes():
            if u in keep and v in keep:
                sub.add_edge(u, v, c)
        return sub

    def minus(self, drop: Iterable[Vertex]) -> Digraph:
        drop = set(drop)
        return self.induced(v for v in self._succ if v not in drop)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Digraph) and self._succ == other._succ

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, m={self.m})"


class Path:
    """A directed path, validated against its host digraph on construction.

    The empty path is permitted (it arises as a degenerate hitting path);
    `first`/`last` raise on it.
    """

    __slots__ = ("vertices",)

    def __init__(self, host: Digraph, vertices: Sequence[Vertex]) -> None:
        vs = list(vertices)
        if len(set(map(vkey, vs))) != len(vs):
            raise ValueError("path repeats a vertex")
        for v in vs:
            if v not in host:
                raise ValueError(f"path vertex {v!r} not in host digraph")
        for u, v in zip(vs, vs[1:]):
            if not host.has_edge(u, v):
                raise ValueError(f"path step {u!r}->{v!r} is not an edge")
        self.vertices = vs

    @property
    def first(self) -> Vertex:
        return self.vertices[0]

    @property
    def last(self) -> Vertex:
        return self.vertices[-1]

    def __len__(self) -> int:
        return len(self.vertices)

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self.vertices)

    def __contains__(self, v: Vertex) -> bool:
        return v in self.vertices

    def __repr__(self) -> str:
        return f"Path({self.vertices!r})"


class SccDecomposition:
    """Strong components in reverse topological order: no path runs from an
    earlier component to a later one."""

    __slots__ = ("components",)

    def __init__(self, components: list[frozenset]) -> None:
        self.components = components

    def __len__(self) -> int:
        return len(self.components)

    def __iter__(self) -> Iterator[frozenset]:
        return iter(self.components)


def tarjan_sccs(D: Digraph, banned: Iterable[Vertex] = ()) -> list[set]:
    # Iterative Tarjan over D minus banned; emission order is already
    # reverse-topological but not canonical across construction orders, so
    # public callers go through scc().  Banned vertices start out finished
    # and off the stack, so the walk matches one over D.minus(banned).
    succ = D._succ
    index: dict[Vertex, int] = dict.fromkeys(banned, -1)
    low: dict[Vertex, int] = {}
    on: set = set()
    stack: list = []
    out: list[set] = []
    counter = 0
    for root in succ:
        if root in index:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on.add(root)
        work: list = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            w = next(it, None)
            if w is not None:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on.add(w)
                    work.append((w, iter(succ[w])))
                elif w in on and index[w] < low[v]:
                    low[v] = index[w]
                continue
            work.pop()
            if work and low[v] < low[work[-1][0]]:
                low[work[-1][0]] = low[v]
            if low[v] == index[v]:
                comp = set()
                while True:
                    u = stack.pop()
                    on.discard(u)
                    comp.add(u)
                    if u == v:
                        break
                out.append(comp)
    return out


def scc(D: Digraph, banned: Iterable[Vertex] = ()) -> SccDecomposition:
    """Strong components of D minus banned, canonically ordered.

    The order is reverse topological over the condensation; among the
    components simultaneously eligible, the one holding the smallest vertex
    id is emitted first, so the output depends only on the graph, not on
    construction order.
    """
    raw = tarjan_sccs(D, banned)
    where = {}
    for i, comp in enumerate(raw):
        for v in comp:
            where[v] = i
    outs: list[set[int]] = [set() for _ in raw]
    for u, iu in where.items():
        for w in D._succ[u]:
            iw = where.get(w, iu)  # a banned head adds no condensation arc
            if iu != iw:
                outs[iu].add(iw)
    rev: list[list[int]] = [[] for _ in raw]
    for i, os_ in enumerate(outs):
        for j in os_:
            rev[j].append(i)
    pending = [len(os_) for os_ in outs]
    minkey = [min(vkey(v) for v in comp) for comp in raw]
    heap = [(minkey[i], i) for i in range(len(raw)) if pending[i] == 0]
    heapq.heapify(heap)
    ordered: list[frozenset] = []
    while heap:
        _, i = heapq.heappop(heap)
        ordered.append(frozenset(raw[i]))
        for p in rev[i]:
            pending[p] -= 1
            if pending[p] == 0:
                heapq.heappush(heap, (minkey[p], p))
    assert len(ordered) == len(raw)
    return SccDecomposition(ordered)


def _reach_set(D: Digraph, sources: Iterable[Vertex], banned: set, forward: bool) -> set:
    seen = {v for v in sources if v in D and v not in banned}
    queue = deque(seen)
    while queue:
        v = queue.popleft()
        nbrs = D.out_neighbors(v) if forward else D.in_neighbors(v)
        for w in nbrs:
            if w not in seen and w not in banned:
                seen.add(w)
                queue.append(w)
    return seen


def reachable(D: Digraph, X: Iterable[Vertex], Y: Iterable[Vertex]) -> bool:
    """True iff some vertex of X reaches some vertex of Y (a vertex reaches
    itself)."""
    return not _reach_set(D, X, set(), forward=True).isdisjoint(Y)


def guard_breach(D: Digraph, S: Iterable[Vertex], Z: Iterable[Vertex]) -> Vertex | None:
    """Smallest outside vertex witnessing that S is not Z-guarded: a vertex
    off S and Z lying on some S -> S walk in D minus Z.  None when guarded.

    Vertices of S that also lie in Z are treated as removed with Z: the
    effective set is S minus Z.  (Beyond-arc bag unions legitimately overlap
    their guards, so the overlapping call shows up in normal validation.)
    """
    Zset = {z for z in Z if z in D}
    Seff = {v for v in S if v in D} - Zset
    if not Seff:
        return None
    fwd = _reach_set(D, Seff, Zset, forward=True)
    bwd = _reach_set(D, Seff, Zset, forward=False)
    outside = [v for v in fwd & bwd if v not in Seff]
    return min(outside, key=vkey) if outside else None


def is_guarded(D: Digraph, S: Iterable[Vertex], Z: Iterable[Vertex]) -> bool:
    """True iff no directed walk in D minus Z starts and ends in S while
    visiting a vertex outside S and Z (S meaning S minus Z throughout)."""
    return guard_breach(D, S, Z) is None


class FlowNetwork:
    """Integer-capacity max flow over arbitrary hashable nodes, by shortest
    augmenting paths.  Augmenting mutates capacities in place; to reuse a
    network, restore a saved copy of `cap` before the next run."""

    __slots__ = ("cap", "adj")

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


def split_network(D: Digraph, sources: Iterable[Vertex] = (), sinks: Iterable[Vertex] = ()) -> FlowNetwork:
    """The vertex-split flow network of D: v_in -> v_out with capacity one
    per vertex, out -> in arcs for the non-loop edges, and uncapacitated
    _SRC -> x_in and y_out -> _SNK attachments for the given terminals.
    Arcs are added in canonical order, so augmenting paths are
    deterministic."""
    big = D.n + 2
    net = FlowNetwork()
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


class MengerResult:
    """Exactly one of `paths` / `separator` is set."""

    __slots__ = ("paths", "separator")

    def __init__(self, paths: list[Path] | None, separator: set | None) -> None:
        assert (paths is None) != (separator is None)
        self.paths = paths
        self.separator = separator

    def __repr__(self) -> str:
        if self.paths is not None:
            return f"MengerResult(paths={[p.vertices for p in self.paths]!r})"
        return f"MengerResult(separator={vsorted(self.separator)!r})"


def menger(D: Digraph, X: Iterable[Vertex], Y: Iterable[Vertex], r: int) -> MengerResult:
    """Either r pairwise vertex-disjoint X-to-Y paths, or a separator of at
    most r-1 vertices whose removal kills every X-to-Y path.

    Disjointness includes endpoints: each vertex of the graph lies on at most
    one returned path, which is what every caller (well-linkedness checks,
    linkage construction) needs.  A vertex in both X and Y yields a
    zero-length path.  Implemented as unit-capacity flow on the split graph:
    v_in -> v_out with capacity one for every vertex, uncapacitated
    attachment arcs for the terminals.
    """
    if r < 1:
        raise ValueError("menger requires r >= 1")
    Xs = vsorted({x for x in X})
    Ys = vsorted({y for y in Y})
    for v in Xs + Ys:
        if v not in D:
            raise ValueError(f"terminal {v!r} not in digraph")
    net = split_network(D, Xs, Ys)
    orig = dict(net.cap)
    flow = net.max_flow(_SRC, _SNK, limit=r)
    if flow < r:
        side = net.residual_side(_SRC)
        sep = {v for v in D.vertices() if ("in", v) in side and ("out", v) not in side}
        assert len(sep) <= r - 1
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
            assert nxt is not None, "flow decomposition ran dry"
            used[(node, nxt)] -= 1
            if used[(node, nxt)] == 0:
                del used[(node, nxt)]
            if nxt != _SNK and nxt[0] == "in":
                walk.append(nxt[1])
            node = nxt
        paths.append(Path(D, walk))
    return MengerResult(paths, None)


def _node_key(node):
    if node == _SNK:
        return (3,)
    return (1, vkey(node[1])) if node[0] == "in" else (2, vkey(node[1]))


# ---------------------------------------------------------------------------
# Edge-list text format: "tail head" per line, "vertex v" declares an
# isolated vertex, '#' starts a comment.  serialize -> parse round-trips
# bit-exactly.

def _parse_token(tok: str) -> Vertex:
    try:
        n = int(tok)
    except ValueError:
        return tok
    return n if str(n) == tok else tok


def parse_edge_list(text: str) -> Digraph:
    D = Digraph()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.split()
        if len(toks) != 2:
            raise ValueError(f"line {lineno}: expected two tokens, got {line!r}")
        if toks[0] == "vertex":
            D.add_vertex(_parse_token(toks[1]))
        else:
            D.add_edge(_parse_token(toks[0]), _parse_token(toks[1]))
    return D


def serialize_edge_list(D: Digraph) -> str:
    def text(v: Vertex) -> str:
        s = str(v)
        if " " in s or isinstance(v, tuple):
            raise ValueError(f"vertex {v!r} has no edge-list representation")
        return s

    lines = []
    for v in D.sorted_vertices():
        if not D._succ[v] and not D._pred[v]:
            lines.append(f"vertex {text(v)}")
    for u, v, c in sorted(D.edge_classes(), key=lambda e: (vkey(e[0]), vkey(e[1]))):
        lines.extend([f"{text(u)} {text(v)}"] * c)
    return "\n".join(lines) + ("\n" if lines else "")
