"""Directed multigraphs plus the reachability and connectivity subroutines
shared by every solver in this package: strong components, guardedness,
and vertex-disjoint path computation via unit-capacity flow.

Traversals delete vertices through a `banned` set instead of copying the
graph: the strong components or reach of D minus Z are computed on D itself.
"""
from __future__ import annotations

import heapq
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


_NATIVE = ({int}, {str})  # id types whose native order is vkey order (a bool is neither)


def vsorted(vs: Iterable[Vertex]) -> list[Vertex]:
    """vs in vkey order: ids all of one native type sort without vkey; any
    other list goes through it, which raises on an id it cannot order."""
    out = list(vs)
    out.sort(key=None if set(map(type, out)) in _NATIVE else vkey)
    return out


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
        if type(v) is not int and type(v) is not str:  # parsed ids skip the call
            vkey(v)  # a TypeError for an id the package cannot order, such as a bool
        if v not in self._succ:
            self._succ[v] = {}
            self._pred[v] = {}

    def add_edge(self, u: Vertex, v: Vertex, mult: int = 1) -> None:
        if mult < 1:
            raise ValueError("edge multiplicity must be positive")
        if type(v) is not int and type(v) is not str:
            vkey(v)  # both ids are checked before either is added
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

    def edge_classes(self) -> Iterator[tuple[Vertex, Vertex, int]]:
        """(tail, head, multiplicity) per distinct ordered pair."""
        for u, nbrs in self._succ.items():
            for v, c in nbrs.items():
                yield (u, v, c)

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


def _check_terminals(D: Digraph, vs: Iterable[Vertex]) -> None:
    """A ValueError naming the first of vs, in their order, outside D."""
    for v in vs:
        if v not in D._succ:
            raise ValueError(f"terminal {v!r} not in digraph")


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


def _covers(adj, start: Vertex, X: set, region: set | None = None) -> bool:
    """True iff the walk from start along `adj` (D._succ, D._pred, or lists
    indexed by int nodes) through `region`, a superset of X (X itself when
    None), meets all of X; it stops once it has, at once if a dict row at
    start holds all X."""
    todo = set(X)
    todo.discard(start)
    if isinstance(adj, dict) and adj[start].keys() >= todo:
        return True
    if region is None:
        region = X
    seen = {start}
    stack = [start]
    while stack and todo:
        for w in adj[stack.pop()]:
            if w not in seen and w in region:
                seen.add(w)
                todo.discard(w)
                stack.append(w)
    return not todo


def _strongly_connected(D: Digraph, X: set) -> bool:
    """True iff X is a non-empty vertex set of D, strongly connected inside
    itself: walks from one of its vertices, forward and backward within X,
    each meet all of X (they never meet an id outside D)."""
    start = next(iter(X), None)
    if not X or start not in D._succ:
        return False
    return _covers(D._succ, start, X) and _covers(D._pred, start, X)


def tarjan_sccs(D: Digraph, banned: Iterable[Vertex] = (), within: set | None = None) -> list[set]:
    # Iterative Tarjan over D minus banned; emission order is already
    # reverse-topological but not canonical across construction orders, so
    # public callers go through scc().  Banned vertices start out finished
    # and off the stack, so the walk matches one over D.minus(banned).  With
    # `within`, a vertex set of D, the walk is one over D.induced(within)
    # minus banned.  A caller whose sets are often strongly connected asks
    # `_strongly_connected` first, whose two walks then spare the pass.
    succ = D._succ
    index: dict[Vertex, int] = dict.fromkeys(banned, -1)
    low: dict[Vertex, int] = {}
    on: set = set()
    stack: list = []
    out: list[set] = []
    counter = 0
    inside = None if within is None else within.__contains__
    for root in succ if within is None else within:
        if root in index:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on.add(root)
        work: list = [(root, filter(inside, succ[root]) if inside else iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:  # resumes where v's last descent left off
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on.add(w)
                    work.append((w, filter(inside, succ[w]) if inside else iter(succ[w])))
                    break
                if w in on and index[w] < low[v]:
                    low[v] = index[w]
            else:  # v has no arc left: it is finished
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


def scc(D: Digraph, banned: Iterable[Vertex] = (), within: set | None = None) -> list[frozenset]:
    """Strong components of D minus banned (inside the vertex set `within`
    of D, when given), canonically ordered.

    The order is reverse topological over the condensation, so no path runs
    from an earlier component to a later one; among the components
    simultaneously eligible, the one holding the smallest vertex id is
    emitted first, so the output depends only on the graph, not on
    construction order.
    """
    raw = tarjan_sccs(D, banned, within)
    if len(raw) == 1:  # nothing to order
        return [frozenset(raw[0])]
    where = {}
    for i, comp in enumerate(raw):
        for v in comp:
            where[v] = i
    outs: list[set[int]] = [set() for _ in raw]
    for u, iu in where.items():
        for w in D._succ[u]:
            iw = where.get(w, iu)  # a head banned or outside `within` adds no arc
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
    if len(ordered) != len(raw):
        raise RuntimeError("the condensation order left out a strong component")
    return ordered


def _reach_set(D: Digraph, sources: Iterable[Vertex], banned: set, forward: bool,
               seen: set | None = None) -> set:
    """The vertices of D minus banned reachable from sources (backward along
    the arcs unless `forward`).  Given `seen`, the reach of an earlier walk,
    the walk continues it: it adds to `seen` and never re-enters it.  The
    walk stops once it has seen every vertex of D minus banned, which on a
    dense host is after the first few adjacency lists."""
    adj = D._succ if forward else D._pred
    new = {v for v in sources if v in adj and v not in banned}
    if seen is None:
        seen = new
    else:
        new -= seen
        seen |= new
    whole = len(adj) - len(adj.keys() & banned)  # banned may hold ids outside D
    stack = list(new)
    while stack and len(seen) < whole:
        for w in adj[stack.pop()]:
            if w not in seen and w not in banned:
                seen.add(w)
                stack.append(w)
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


def guard_screen(D: Digraph, Z: Iterable[Vertex], parts: Sequence[set]) -> list[bool | None]:
    """Per vertex set S of `parts`: None when S is not Z-guarded (when
    `guard_breach(D, S, Z)` names a vertex), else whether S minus Z is one
    strong component of D minus Z.  The parts must hold vertices of D only
    and be pairwise disjoint outside Z.

    The parts share one Tarjan pass over D minus Z, each vertex labelled by
    its part.  A part is breached iff a strong component holds its vertices
    and others, or a path of the condensation leaves the part and comes back
    to it."""
    Zset = Z if isinstance(Z, (set, frozenset)) else set(Z)
    succ = D._succ
    label = {}
    for i, S in enumerate(parts):
        for v in S:
            if v not in Zset:
                label[v] = 1 << i
    comps = tarjan_sccs(D, Zset)
    where: dict = {}
    labels = []  # per component, the bits of the parts it meets
    breached = once = twice = 0
    for c, comp in enumerate(comps):
        bits = labelled = 0
        for v in comp:
            where[v] = c
            b = label.get(v, 0)
            if b:
                bits |= b
                labelled += 1
        if bits & (bits - 1) or bits and labelled < len(comp):
            breached |= bits  # the component straddles its parts
        twice |= once & bits
        once |= bits
        labels.append(bits)
    # a path out of a part and back to the component it left would put the
    # vertices it passes into that component, so only the parts met by
    # several components need the walk over the condensation.  In
    # topological order (Tarjan's emission order reversed): `reached`
    # holds the parts a component is reached from, `left` those it is
    # reached from by a path that left the part before entering it; a path
    # has left a part once it passes a component outside the part
    several = twice & ~breached
    reached = [bits & several for bits in labels] if several else []
    left = [0] * len(reached)
    for c in range(len(reached) - 1, -1, -1):
        a = reached[c]
        if not a:
            continue
        breached |= left[c] & labels[c]
        gone = left[c] | a & ~labels[c]
        for v in comps[c]:
            for w in succ[v]:
                d = where.get(w, c)  # a banned head adds no arc
                if d != c:
                    reached[d] |= a
                    left[d] |= gone
    return [None if breached >> i & 1 else bool(once >> i & 1 and not twice >> i & 1)
            for i in range(len(parts))]


class FlowNetwork:
    """Integer-capacity max flow over int nodes by shortest augmenting paths,
    built for cut questions about its classes, the arcs a cut may remove.
    Arc a is even and a ^ 1 its reverse, built with capacity 0; `head[a]` is
    its head, `cap[a]` its residual capacity, and `adj[u]` lists the arcs
    leaving u in build order, so augmenting paths are deterministic;
    `fwd[u]` lists its even arcs alone, in the same order.  A reverse arc
    has room only once flow has crossed its partner, and `marked[u]` is set
    when that may have happened at u, so a BFS pass scans `fwd[u]` at an
    unmarked node and skips no arc with room.  The classes come as three
    parallel sequences, class i running from `tails[i]` to `heads[i]` at
    cost `costs[i]`, in ascending (tail, head) order; they are the even ids
    below `classes`, each costing its capacity as built.  Then each node v
    below `source` gets arcs source -> v and v -> sink, built switched off.
    Every question runs from the source to the sink, switching on the
    source arcs into X and the sink arcs out of Y; `sources` lists the nodes
    whose source arcs are on, in node order, and a pass starts at those.
    `flow` asks a question afresh, restoring the capacities, then removing
    the classes the question cuts.  An important-cut search carries the
    flow it finds over to nearby questions: it branches with `cut_unit` and
    `extend`, keeping each branch's residual network with `snapshot` and
    `restore`.
    `split_network` builds every network of the package and sets the
    vertex set it numbers: `n`, `names`, `index` and `succ`; a network
    built otherwise has none (n = 0)."""

    __slots__ = ("adj", "fwd", "marked", "head", "cap", "built", "classes", "source", "sink",
                 "sources", "n", "names", "index", "succ")

    def __init__(self, nodes: int, tails: Sequence[int], heads: Sequence[int], costs: Sequence[int]) -> None:
        self.adj = adj = [[] for _ in range(nodes + 2)]
        self.fwd = fwd = [[] for _ in range(nodes + 2)]
        a = 0  # the id of the next arc; the arrays indexed by it are filled below
        for u, v in zip(tails, heads):
            adj[u].append(a)
            fwd[u].append(a)
            adj[v].append(a + 1)
            a += 2
        self.classes = classes = a
        self.source, self.sink = src, snk = nodes, nodes + 1
        # node v's source arc is classes + 4v, its sink arc classes + 4v + 2
        for v in range(nodes):
            adj[v] += (a + 1, a + 2)
            fwd[v].append(a + 2)
            a += 4
        adj[src], fwd[src] = list(range(classes, a, 4)), list(range(classes, a, 4))
        adj[snk] = list(range(classes + 3, a, 4))
        self.head, self.cap = head, cap = [0] * a, [0] * a
        head[0:classes:2] = heads
        head[1:classes:2] = tails
        cap[0:classes:2] = costs
        head[classes::4] = head[classes + 3::4] = range(nodes)
        head[classes + 1::4] = [src] * nodes
        head[classes + 2::4] = [snk] * nodes
        self.built = cap[:]
        self.marked = [False] * (nodes + 2)
        self.sources: list[int] = []
        self.n, self.names, self.index, self.succ = 0, [], {}, []

    def flow(self, X: Iterable[int], Y: Iterable[int], limit: int, cut: Iterable[int] = ()) -> int:
        """The max flow from the nodes X to the nodes Y, stopping at `limit`,
        with the arcs in `cut` gone: restore the capacities and marks as
        built, switch on the source arcs into X and the sink arcs out of Y,
        and give them capacity `limit`, which no cut that stops the flow
        below it can pay.  `cut` holds even arc ids; an odd one, a reverse
        arc, is a ValueError."""
        cap, base = self.cap, self.classes
        cap[:] = self.built
        self.marked[:] = [False] * len(self.marked)
        for a in cut:
            if a & 1:
                raise ValueError(f"cut arc {a} is a reverse arc")
            cap[a] = 0
        self.sources = []
        self._switch_on(X, limit)
        for y in Y:
            cap[base + 4 * y + 2] = limit
        return self.max_flow(limit)

    def _switch_on(self, X: Iterable[int], limit: int) -> None:
        """Give the source arcs into X that are off capacity `limit`; one
        already on keeps its residual capacity."""
        cap, base = self.cap, self.classes
        new = set(X).difference(self.sources)
        for x in new:
            cap[base + 4 * x] = limit
        if new:
            self.sources = sorted(new.union(self.sources))

    def _cancel(self, arc: int) -> None:
        """Cancel one unit of the flow through `arc`, an even arc carrying
        one: off the arc itself, then off arcs carrying flow from its head
        on to the sink and from the source on to its tail."""
        cap, head, fwd, adj = self.cap, self.head, self.fwd, self.adj
        cap[arc] += 1
        cap[arc ^ 1] -= 1
        node = head[arc]
        while node != self.sink:
            for a in fwd[node]:  # conservation leaves an arc carrying flow out
                if cap[a ^ 1]:
                    break
            cap[a] += 1
            cap[a ^ 1] -= 1
            node = head[a]
        node = head[arc ^ 1]
        while node != self.source:
            # a reverse arc with room here is that of an arc carrying flow in
            for b in adj[node]:
                if b & 1 and cap[b]:
                    break
            cap[b] -= 1
            cap[b ^ 1] += 1
            node = head[b]

    def cut_unit(self, arc: int, X: Iterable[int], limit: int) -> None:
        """The cut step of an important-cut search, from a maximum flow whose
        sources grow to X, the source side of a minimum cut that `arc`, a
        class of capacity one, leaves: cancel the unit through the arc,
        remove the arc and switch on the source arcs into X at `limit`.  The
        cut loses exactly that arc, so the flow left, one unit less, is
        maximum and no pass confirms it."""
        self._cancel(arc)
        self.cap[arc] = 0
        self._switch_on(X, limit)

    def extend(self, X: Iterable[int], limit: int, flow: int) -> int:
        """The extend step of an important-cut search, from a maximum flow of
        value `flow` whose sources grow to X: switch on the source arcs into
        X at `limit` and augment the flow up to `limit`; its new value."""
        self._switch_on(X, limit)
        return flow + self.max_flow(limit - flow)

    def snapshot(self) -> tuple:
        """The residual network for `restore`: copies of the capacities and
        marks, and the sources, a list no step changes in place."""
        return self.cap[:], self.marked[:], self.sources

    def restore(self, state: tuple) -> None:
        """Return to a `snapshot`, which is taken over, not copied."""
        self.cap, self.marked, self.sources = state

    def ids(self, vs: Iterable[Vertex]) -> list[int]:
        """The numbers of vs; a vertex outside the set is a ValueError."""
        try:
            return [self.index[v] for v in vs]
        except KeyError as exc:
            raise ValueError(f"terminal {exc.args[0]!r} not in digraph") from None

    def split_vertices(self, arcs: Iterable[int]) -> list[Vertex]:
        """The vertices of a split network whose split arcs, its first n
        classes, are `arcs`; a RuntimeError for any other arc."""
        if any(a & 1 or a >= 2 * self.n for a in arcs):
            raise RuntimeError("an affordable reduction cut holds a non-split arc")
        return [self.names[a >> 1] for a in arcs]

    def _bfs(self) -> list[int]:
        """BFS from the source over positive residual arcs until it finds a
        node with room on its sink arc: the arc each node was first reached
        by, -2 at the source, -1 if unreached.  Only the source arcs into
        `sources` can have room, so the source scans those alone, in the
        order of its arc list; an unmarked node's reverse arcs have no room,
        so it scans `fwd`.

        Only sink arcs enter the sink, and nodes are scanned in the order
        they are found, so the sink's parent is the first node found with
        room on its sink arc: the pass stops there, on the path a full pass
        would take.  A pass that finds none reaches every node it can."""
        adj, fwd, marked, head, cap = self.adj, self.fwd, self.marked, self.head, self.cap
        src = self.source
        via = [-1] * len(adj)
        via[src] = -2
        sinkarc = self.classes + 2
        starts = [self.classes + 4 * x for x in self.sources]
        queue = [src]
        for u in queue:  # the BFS queue: nodes appended below are visited too
            for a in starts if u == src else adj[u] if marked[u] else fwd[u]:
                if cap[a] > 0:
                    w = head[a]
                    if via[w] == -1:
                        via[w] = a
                        if cap[sinkarc + 4 * w] > 0:
                            via[self.sink] = sinkarc + 4 * w
                            return via
                        queue.append(w)
        return via

    def max_flow(self, limit: int) -> int:
        """The flow augmented from the source to the sink, up to `limit`."""
        head, cap, marked, src, snk = self.head, self.cap, self.marked, self.source, self.sink
        flow = 0
        while flow < limit:
            via = self._bfs()
            if via[snk] == -1:
                break
            path = []
            node = snk
            while node != src:
                path.append(via[node])
                node = head[via[node] ^ 1]
            bottleneck = min(limit - flow, *(cap[a] for a in path))
            for a in path:
                cap[a] -= bottleneck
                cap[a ^ 1] += bottleneck
                if not a & 1:  # its reverse arc, leaving its head, has room now
                    marked[head[a]] = True
            flow += bottleneck
        return flow


def split_network(D: Digraph, vertices: Iterable[Vertex]) -> FlowNetwork:
    """The split network of a vertex set of D, numbered 0..n-1 in vkey order:
    `names[i]` is vertex i, `index` maps names back, and `succ[i]` lists i's
    successors in the set in ascending order, loops dropped.  In-node v = v,
    out-node n + v.  Its classes: each split arc v -> n + v costs one, and
    each non-loop edge u -> w gives an arc n + u -> w costing n + 1, more
    than every split arc together.  A flow from in-nodes to out-nodes
    counts vertex-disjoint paths whose ends may be deleted, and a cut
    costing at most n holds split arcs only."""
    names = vsorted(vertices)
    index = {v: i for i, v in enumerate(names)}
    succ = D._succ
    keep = None if len(index) == len(succ) else index.__contains__  # all of D keeps every head
    rows = [sorted(map(index.__getitem__, filter(keep, succ[v]) if keep else succ[v])) for v in names]
    for i, v in enumerate(names):
        if v in succ[v]:  # a loop
            rows[i].remove(i)
    n = len(names)
    tails, heads = list(range(n)), list(range(n, 2 * n))
    for u, row in enumerate(rows):
        tails += [n + u] * len(row)
        heads += row
    net = FlowNetwork(2 * n, tails, heads, [1] * n + [n + 1] * (len(tails) - n))
    net.n, net.names, net.index, net.succ = n, names, index, rows
    return net


class MengerResult:
    """Exactly one of `paths` / `separator` is set."""

    __slots__ = ("paths", "separator")

    def __init__(self, paths: list[Path] | None, separator: set | None) -> None:
        if (paths is None) == (separator is None):
            raise ValueError("exactly one of paths and separator must be set")
        self.paths = paths
        self.separator = separator

    def __repr__(self) -> str:
        if self.paths is not None:
            return f"MengerResult(paths={[p.vertices for p in self.paths]!r})"
        return f"MengerResult(separator={vsorted(self.separator)!r})"


def menger(D: Digraph, X: Iterable[Vertex], Y: Iterable[Vertex], r: int,
           net: FlowNetwork | None = None) -> MengerResult:
    """Either r pairwise vertex-disjoint X-to-Y paths, or a separator of at
    most r-1 vertices whose removal kills every X-to-Y path.

    Disjointness includes endpoints: each vertex of the graph lies on at most
    one returned path, which is what every caller (well-linkedness checks,
    linkage construction) needs.  A vertex in both X and Y yields a
    zero-length path.  Implemented as unit-capacity flow on `net`, the split
    network of all of D (built here unless a caller asking many questions
    passes its own), from the in-nodes of X to the out-nodes of Y.
    """
    if r < 1:
        raise ValueError("menger requires r >= 1")
    net = net or split_network(D, D.vertices())
    n, names = net.n, net.names
    flow = net.flow(net.ids(vsorted(X)), [n + y for y in net.ids(vsorted(Y))], r)
    if flow < r:
        # a maximum flow leaves no sink arc in reach, so the pass walks the
        # whole residual side of the minimum cut
        via = net._bfs()
        sep = {names[v] for v in range(n) if via[v] != -1 and via[n + v] == -1}
        if len(sep) > r - 1:
            raise RuntimeError(f"a flow of {flow} left a separator of {len(sep)} vertices")
        return MengerResult(None, sep)

    # decompose the flow, always stepping to the least next node (in-nodes,
    # then out-nodes, then the sink); only forward arcs carry flow, an arc's
    # flow being its reverse's capacity less the units `taken` from it
    fwd, head, cap = net.fwd, net.head, net.cap
    taken: dict[int, int] = {}
    paths = []
    for _ in range(r):
        walk = []
        node = net.source
        while node != net.sink:
            step = min((a for a in fwd[node] if cap[a ^ 1] > taken.get(a, 0)), key=head.__getitem__,
                       default=None)
            if step is None:
                raise RuntimeError("flow decomposition ran dry")
            taken[step] = taken.get(step, 0) + 1
            node = head[step]
            if node < n:
                walk.append(names[node])
        paths.append(Path(D, walk))
    return MengerResult(paths, None)


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
    """The digraph of an edge-list text, with its vertices and arcs in the
    order of the text: the one `add_vertex` and `add_edge` calls, line by
    line, would build.  A line with other than two tokens is a ValueError."""
    D = Digraph()
    succ, pred = D._succ, D._pred
    ids: dict[str, Vertex] = {}  # token -> vertex id, each parsed once
    m = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = raw.split()
        if not toks or toks[0][0] == "#":
            continue
        if len(toks) != 2:
            raise ValueError(f"line {lineno}: expected two tokens, got {raw.strip()!r}")
        a, b = toks
        v = ids.get(b)
        if v is None:
            v = ids[b] = _parse_token(b)
        if a == "vertex":
            if v not in succ:
                succ[v] = {}
                pred[v] = {}
            continue
        u = ids.get(a)
        if u is None:
            u = ids[a] = _parse_token(a)
        if u not in succ:
            succ[u] = {}
            pred[u] = {}
        if v not in succ:
            succ[v] = {}
            pred[v] = {}
        out, into = succ[u], pred[v]
        out[v] = out.get(v, 0) + 1
        into[u] = into.get(u, 0) + 1
        m += 1
    D._m = m
    return D


def serialize_edge_list(D: Digraph) -> str:
    """The edge-list text of D; a ValueError for a vertex whose text would
    not parse back to itself (a tuple, whitespace, an empty or int-looking
    string, or a line-leading "vertex" or "#...")."""

    def text(v: Vertex, leads: bool = False) -> str:
        s = str(v)
        plain = isinstance(v, int) or (isinstance(v, str) and s.split() == [s]
                                       and isinstance(_parse_token(s), str))
        if not plain or leads and (s == "vertex" or s.startswith("#")):
            raise ValueError(f"vertex {v!r} has no edge-list representation")
        return s

    lines = []
    for v in D.sorted_vertices():
        if not D._succ[v] and not D._pred[v]:
            lines.append(f"vertex {text(v)}")
    for u, v, c in sorted(D.edge_classes(), key=lambda e: (vkey(e[0]), vkey(e[1]))):
        lines.extend([f"{text(u, leads=True)} {text(v)}"] * c)
    return "\n".join(lines) + ("\n" if lines else "")
