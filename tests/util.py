"""Shared fixtures-by-hand: small named digraphs and independent brute-force
oracles.  The oracles here deliberately use different algorithms than the
package (recursive DFS instead of BFS, subset enumeration instead of flow) so
agreement is meaningful."""
from __future__ import annotations

import random
from collections import deque
from itertools import combinations

from dirtw import (BalancedSeparatorInstance, Digraph, MengerResult, Path, TBramble, TerminalSequence,
                   balanced_separator, decompose, linear_vertex_cut, vkey, vsorted)
from dirtw.arboreal import (ArborealDecomposition, LinkedSetCertificate, ValidationReport, Violation,
                            _structure_violations)
from dirtw.balsep import _refine_offenders
from dirtw.digraph import (FlowNetwork, _parse_token, _strongly_connected, guard_breach, scc, split_network,
                           tarjan_sccs)


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


def shuffled_digraph(rng: random.Random, n: int) -> Digraph:
    """Random digraph with loops and parallel arcs, built in shuffled order
    so that Tarjan's emission order is not the sorted one."""
    D = Digraph()
    vs = list(range(1, n + 1))
    rng.shuffle(vs)
    for v in vs:
        D.add_vertex(v)
    p = rng.random()
    arcs = [(u, v) for u in vs for v in vs if rng.random() < p]
    rng.shuffle(arcs)
    for u, v in arcs:
        D.add_edge(u, v, rng.randint(1, 2))
    return D


def core_with_pendants(rng: random.Random, n: int, extra: int) -> Digraph:
    """A random core of n vertices, with loops and parallel arcs, and
    `extra` pendant vertices, each joined to the core by one to three arcs,
    mostly out of it; built in shuffled order.  Splits of such a graph
    reach deep bags whose pieces lead out to vertices that never lead back."""
    D = Digraph()
    core = list(range(1, n + 1))
    pend = list(range(n + 1, n + extra + 1))
    vs = core + pend
    rng.shuffle(vs)
    for v in vs:
        D.add_vertex(v)
    p = rng.uniform(0.15, 0.45)
    arcs = [(u, v) for u in core for v in core if rng.random() < p]
    for x in pend:
        for _ in range(rng.randint(1, 3)):
            arcs.append((rng.choice(core), x) if rng.random() < 0.7 else (x, rng.choice(core)))
    rng.shuffle(arcs)
    for u, v in arcs:
        D.add_edge(u, v, rng.randint(1, 2))
    return D


def chorded_cycle(rng: random.Random, n: int) -> Digraph:
    """A one-way or two-way cycle on the n >= 3 vertices 1..n with up to
    n // 3 random chords, one-way each, and up to 3 pendant vertices, each
    joined to one cycle vertex by one or two arcs; built in shuffled order.  Its
    decompositions are path-like trees: most splits peel a vertex off a bag
    that stays one strong component, and the chords and pendants make some
    fall apart or lead out of the bag."""
    D = Digraph()
    pend = list(range(n + 1, n + rng.randint(0, 3) + 1))
    vs = list(range(1, n + 1)) + pend
    rng.shuffle(vs)
    for v in vs:
        D.add_vertex(v)
    ring = list(range(1, n + 1))
    if rng.random() < 0.25:  # ids out of ring order: the least free vertex may cut the bag
        rng.shuffle(ring)
    arcs = [(ring[i - 1], ring[i]) for i in range(n)]
    if rng.random() < 0.7:
        arcs += [(v, u) for u, v in arcs]
    arcs += [tuple(rng.sample(ring, 2)) for _ in range(rng.randint(0, n // 3))]
    for x in pend:  # both ways to u, or one: a pendant that u alone holds in the bag
        u = rng.randint(1, n)
        arcs += [(u, x), (x, u)] if rng.random() < 0.7 else [rng.choice([(u, x), (x, u)])]
    rng.shuffle(arcs)
    for u, v in arcs:
        D.add_edge(u, v)
    return D


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
            if not D._succ[v]:
                D.add_edge(v, rng.choice([w for w in vs if w != v]))
    return D


def random_decomposition(rng: random.Random, D: Digraph) -> ArborealDecomposition:
    """A random tree over a random partition of D's vertices into non-empty
    bags.  The children of a node share one random guard half of the time."""
    vs = D.sorted_vertices()
    rng.shuffle(vs)
    t = rng.randint(1, max(1, len(vs)))
    bags = {node: set() for node in range(t)}
    for i, v in enumerate(vs):
        bags[i if i < t else rng.randrange(t)].add(v)
    shared = {}
    guards = {}
    for node in range(1, t):
        tail = rng.randrange(node)
        if tail not in shared:
            shared[tail] = frozenset(rng.sample(vs, rng.randint(0, min(3, len(vs))))) \
                if rng.random() < 0.5 else None
        guard = shared[tail]
        guards[(tail, node)] = guard if guard is not None else frozenset(
            rng.sample(vs, rng.randint(0, min(3, len(vs)))))
    return ArborealDecomposition(0, bags, guards)


def tampered_decompositions(rng: random.Random, D: Digraph) -> list[ArborealDecomposition]:
    """Decompositions of D for validator tests: `decompose` at a random k
    (when it decomposes) and a random decomposition, each as built and after
    one random tampering: replaced guards, one guard on every arc, guards
    drawn from the beyond sets they guard, a moved, duplicated or foreign bag
    vertex, a dropped or an extra arc."""
    vs = D.sorted_vertices()
    out = [random_decomposition(rng, D)]
    if vs:
        dec = decompose(D, rng.randint(1, 3))
        if isinstance(dec, ArborealDecomposition):
            out.append(dec)
    for dec in list(out):
        bags = {node: set(bag) for node, bag in dec.bags.items()}
        guards = dict(dec.guards)
        arcs = sorted(guards)
        nodes = sorted(bags)
        kind = rng.choice(["guards", "one guard", "overlap", "move", "duplicate", "foreign", "arcs"])
        if kind == "guards":
            guards = {arc: frozenset(rng.sample(vs, rng.randint(0, min(3, len(vs)))))
                      if rng.random() < 0.5 else g for arc, g in guards.items()}
        elif kind == "one guard":
            one = frozenset(rng.sample(vs, rng.randint(0, min(3, len(vs)))))
            guards = dict.fromkeys(guards, one)
        elif kind == "overlap":
            for arc in arcs:
                beyond = vsorted(dec.beyond(arc))
                guards[arc] = frozenset(rng.sample(beyond, rng.randint(0, len(beyond))))
        elif kind in ("move", "duplicate") and vs:
            v = rng.choice(vs)
            if kind == "move":
                for bag in bags.values():
                    bag.discard(v)
            bags[rng.choice(nodes)].add(v)
        elif kind == "foreign":
            bags[rng.choice(nodes)].add(rng.choice(["ghost", -99, ("g", 1)]))
        elif kind == "arcs":
            if arcs and rng.random() < 0.5:
                del guards[rng.choice(arcs)]
            else:
                guards[(rng.choice(nodes), rng.choice(nodes))] = frozenset(vs[:1])
        out.append(ArborealDecomposition(dec.root, bags, guards))
    return out


# -- independent oracles -----------------------------------------------------

def dfs_path_exists(D: Digraph, sources, targets) -> bool:
    """Recursive DFS reachability, coded independently of the package BFS."""
    targets = {t for t in targets if t in D}
    visited = set()

    def go(v) -> bool:
        if v in targets:
            return True
        visited.add(v)
        return any(w not in visited and go(w) for w in sorted(D._succ[v], key=str))

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
    """The vertex-keyed violating-path search that network_violating_path
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


def reference_tarjan_sccs(D: Digraph, banned=(), within: set | None = None) -> list[set]:
    """digraph.tarjan_sccs as it was before its loop stepped through the
    arcs with a for loop, kept verbatim as its referee: one next() per
    arc."""
    succ = D._succ
    index: dict = dict.fromkeys(banned, -1)
    low: dict = {}
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
            w = next(it, None)
            if w is not None:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on.add(w)
                    work.append((w, filter(inside, succ[w]) if inside else iter(succ[w])))
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


def reference_offending_components(D: Digraph, T, r: int, Z=()) -> list[set]:
    """balsep.offending_components as it was before its one-row test, kept
    as its referee: one Tarjan pass over D minus Z on every call."""
    Tset = frozenset(T)
    heavy = [c for c in tarjan_sccs(D, Z) if len(c & Tset) > r]
    if len(heavy) > 1:
        heavy.sort(key=lambda c: min(map(vkey, c & Tset), default=()))
    return heavy


def reference_vsorted(vs) -> list:
    """digraph.vsorted as it was before its native-sort path: every id
    through vkey."""
    return sorted(vs, key=vkey)


def reference_network_init(net, nodes: int, tails, heads, costs) -> None:
    """FlowNetwork.__init__ as it was before the bulk build, kept as its
    referee: the arrays grow arc by arc, class i running from tails[i] to
    heads[i] at cost costs[i]."""
    net.adj = adj = [[] for _ in range(nodes + 2)]
    net.fwd = fwd = [[] for _ in range(nodes + 2)]
    net.head, net.cap = head, cap = [], []  # indexed by arc id
    for u, v, c in zip(tails, heads, costs, strict=True):
        adj[u].append(len(head))
        fwd[u].append(len(head))
        adj[v].append(len(head) + 1)
        head += (v, u)
        cap += (c, 0)
    net.classes = a = len(head)
    net.source, net.sink = src, snk = nodes, nodes + 1
    # node v's source arc is classes + 4v, its sink arc classes + 4v + 2
    for v in range(nodes):
        adj[src].append(a)
        fwd[src].append(a)
        adj[v] += (a + 1, a + 2)
        fwd[v].append(a + 2)
        adj[snk].append(a + 3)
        head += (v, src, snk, v)
        a += 4
    cap += [0] * (4 * nodes)
    net.built = cap[:]
    net.marked = [False] * (nodes + 2)
    net.n = 0


def reference_interned_rows(D: Digraph, net) -> list[list[int]]:
    """A split network's successor rows as they were before the rows were
    mapped in bulk, kept as their referee: a generator per vertex."""
    index = net.index
    return [sorted(index[w] for w in D._succ[v] if w != v and w in index) for v in net.names]


def reference_split_classes(net, terms=(), wide: int | None = None) -> tuple[int, list, dict]:
    """digraph.split_network's classes as it built them before the network
    took parallel sequences, kept as their referee: (nodes, a (tail, head,
    cost) tuple per class, the gadget map), with `terms` as vertex numbers
    of `net`."""
    n = len(net.names)
    wide = n + 1 if wide is None else wide
    gadget = {t: 2 * n + j for j, t in enumerate(sorted(terms))}
    arcs = [(v, n + v, 1) for v in range(n)]
    for u, heads in enumerate(net.succ):
        arcs += [(n + u, w, wide) for w in heads]
        if u in gadget:
            arcs.append((n + u, gadget[u], wide))
    arcs += [(g, t, wide) for t, g in gadget.items()]
    return 2 * n + len(gadget), arcs, gadget


def reference_gadget_network(net, terms, wide: int | None = None) -> tuple[FlowNetwork, dict]:
    """The network that split_network built on the vertex set of `net` when
    the cut layer asked its flows between gadgets: a gadget node per vertex
    number in `terms`, joined by arcs n + t -> gadget -> t costing `wide`,
    from reference_split_classes.  Kept as the network the cut layer's
    referees run on; returns it and the gadget map."""
    nodes, arcs, gadget = reference_split_classes(net, terms, wide)
    return FlowNetwork(nodes, *zip(*arcs)), gadget


def reference_linkage(D: Digraph, net, X, Y, r: int) -> MengerResult:
    """digraph.linkage as it was before its decomposition walked the
    forward arcs, kept verbatim as its referee: a `used` entry per arc."""
    if r < 1:
        raise ValueError("menger requires r >= 1")
    n = len(net.names)
    flow = net.flow(net.ids(vsorted(X)), [n + y for y in net.ids(vsorted(Y))], r)
    if flow < r:
        via = net._bfs()  # the residual side of the minimum cut
        sep = {net.names[v] for v in range(n) if via[v] != -1 and via[n + v] == -1}
        if len(sep) > r - 1:
            raise RuntimeError(f"a flow of {flow} left a separator of {len(sep)} vertices")
        return MengerResult(None, sep)
    used = [net.cap[a ^ 1] if a % 2 == 0 else 0 for a in range(len(net.cap))]
    paths = []
    for _ in range(r):
        walk = []
        node = net.source
        while node != net.sink:
            step = min((a for a in net.adj[node] if used[a] > 0), key=net.head.__getitem__,
                       default=None)
            if step is None:
                raise RuntimeError("flow decomposition ran dry")
            used[step] -= 1
            node = net.head[step]
            if node < n:
                walk.append(net.names[node])
        paths.append(Path(D, walk))
    return MengerResult(paths, None)


def reference_component_lb(net, bound: int) -> int:
    """balsep._component_lb as it was before Even's bound, kept verbatim as
    its referee: a flow for every non-adjacent ordered pair."""
    n = len(net.names)
    if n > 2 and any(len(heads) == 1 for heads in net.succ):
        return 1
    for u in range(n):
        near = set(net.succ[u])
        source = (n + u,)
        for w in range(n):
            if u == w or w in near:
                continue
            f = net.flow(source, (w,), bound)
            if f < bound:
                bound = f
                if bound <= 1:
                    return 1
    return bound


def reference_bfs(net, s: int, t: int) -> list[int]:
    """FlowNetwork._bfs as it was before the forward lists, kept verbatim
    as their referee: every pass scans every arc at every node, the reverse
    arcs without room too."""
    adj, head, cap = net.adj, net.head, net.cap
    via = [-1] * len(adj)
    via[s] = -2
    queue = [s]
    for u in queue:  # the BFS queue: nodes appended below are visited too
        for a in adj[u]:
            if cap[a] > 0:
                w = head[a]
                if via[w] == -1:
                    via[w] = a
                    if w == t:  # its path is fixed once it is reached
                        return via
                    queue.append(w)
    return via


def reference_reach_set(D: Digraph, sources, banned: set, forward: bool, seen: set | None = None) -> set:
    """digraph._reach_set as it was before its walk stopped on meeting every
    vertex, kept verbatim as its referee: it reads the adjacency list of
    every vertex it reaches."""
    adj = D._succ if forward else D._pred
    new = {v for v in sources if v in adj and v not in banned}
    if seen is None:
        seen = new
    else:
        new -= seen
        seen |= new
    stack = list(new)
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen and w not in banned:
                seen.add(w)
                stack.append(w)
    return seen


def reference_verify_well_linked(D: Digraph, A) -> bool:
    """bramble.verify_well_linked as it was before the reach walks and the
    revolving door, kept verbatim as its referee: a fresh flow for every
    pair X, Y, the single pairs too.  Meant for A without repeats."""
    net = split_network(D, D.vertices())
    items = sorted(net.ids(A))
    for size in range(1, len(items) // 2 + 1):
        for X in combinations(items, size):
            rest = [net.n + v for v in items if v not in X]  # the sink arcs leave out-nodes
            for Y in combinations(rest, size):
                if net.flow(X, Y, size) < size:
                    return False
    return True


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


def network_violating_path(net, blocks, removed: frozenset):
    """Shortest violating path between `blocks`, lists of nodes of `net`,
    over its classes outside `removed`, as a list of classes, or None;
    canonical when the lists are sorted.  The check after lincut's
    extraction, from before it asked yes or no, kept for
    reference_path_search, which branches on the path's classes.

    Scans the blocks in order; for the first block i that still reaches a
    later block, takes the BFS-shortest path to the first-discovered node
    of the least such block (classes leave a node in ascending head order).
    Block i+1 is the least possible, so reaching it ends the BFS.
    """
    adj, head, classes = net.adj, net.head, net.classes
    block_of = [-1] * len(adj)
    for j, b in enumerate(blocks):
        for v in b:
            block_of[v] = j
    for i in range(len(blocks) - 1):
        via = dict.fromkeys(blocks[i], -1)  # the class each node was reached by
        queue = list(blocks[i])
        target, least = -1, len(blocks)
        for u in queue:  # the BFS queue: nodes appended below are visited too
            for a in adj[u]:
                if a & 1 or a >= classes or a in removed:
                    continue
                w = head[a]
                if w in via:
                    continue
                via[w] = a
                j = block_of[w]
                if i < j < least:
                    target, least = w, j
                queue.append(w)
            if least == i + 1:
                break
        if target >= 0:
            path = []
            while via[target] >= 0:
                path.append(via[target])
                target = head[via[target] ^ 1]
            path.reverse()
            return path
    return None


def reference_path_search(net, blocks, removed: frozenset, banned: frozenset, spent: int,
                          budget: int) -> frozenset | None:
    """The search that chose the partition engine's cuts before the
    important-cut oracle took over, kept as the oracle's reference: it
    branches on the classes of a violating path between `blocks`, so its
    cost grows with the path length.  Returns `removed` plus classes of the
    cut network `net` outside `banned` that cut `blocks`, with `spent` plus
    their costs at most `budget`, or None."""
    path = network_violating_path(net, blocks, removed)
    if path is None:
        return removed
    if spent >= budget:
        return None
    for cls in path:  # a BFS path never repeats a class
        if cls in banned:
            continue
        c = net.built[cls]
        if spent + c > budget:
            continue
        res = reference_path_search(net, blocks, removed | {cls}, banned, spent + c, budget)
        if res is not None:
            return res
    return None


def reference_cuts(net, X: tuple, sinks: frozenset, removed: frozenset, budget: int) -> list:
    """lincut._CutOracle._cuts and _important as they were before each
    branch carried its parent's flow, kept as their referee with the same
    steps: a fresh flow at every node of the search, and one list per
    budget."""
    found: list = []

    def important(X, Y: frozenset, removed: frozenset, F: frozenset, budget: int) -> None:
        flow = net.flow(X, Y, budget + 1, removed | F)
        if flow > budget:
            return
        if flow == 0:
            found.append(F)
            return
        adj, head, cap, sink = net.adj, net.head, net.cap, net.sink
        reaches = [False] * len(adj)
        reaches[sink] = True
        queue = [sink]
        for y in queue:
            for a in adj[y]:
                x = head[a]
                if not reaches[x] and cap[a ^ 1] > 0:
                    reaches[x] = True
                    queue.append(x)
        R = [v for v in range(net.source) if not reaches[v]]
        e = next(a for u in R for a in adj[u] if not a & 1 and reaches[head[a]] and cap[a ^ 1] > 0)
        if e >= 2 * net.n:
            raise RuntimeError("an affordable important cut holds a non-split arc")
        important(R, Y, removed, F | {e}, budget - 1)
        if head[e] not in Y:
            important(R + [head[e]], Y, removed, F, budget)

    important(X, sinks, removed, frozenset(), budget)
    return list(dict.fromkeys(found))


def furthest_cut(net) -> list[int]:
    """The nodes below the source of `net` that cannot reach its sink in the
    residual network, walked back from the sink over every arc."""
    reaches = [False] * len(net.adj)
    reaches[net.sink] = True
    queue = [net.sink]
    for y in queue:
        for a in net.adj[y]:
            x = net.head[a]
            if not reaches[x] and net.cap[a ^ 1] > 0:
                reaches[x] = True
                queue.append(x)
    return [v for v in range(net.source) if not reaches[v]]


def reference_branch_min_cut(D: Digraph, comp: set, Tc: frozenset, r: int, cap: int, lb: int) -> frozenset | None:
    """balsep's small-component engine as it was before the scan of vertex
    sets, kept verbatim as its referee: iterative-deepening branch and
    bound.  Any valid deletion set must hit every currently offending strong
    component, so branching over the canonical offender is complete."""
    heavy = [set(comp)]  # an offending strong component is its own offender list
    for b in range(max(lb, 1), cap + 1):
        failed: set = set()

        def dfs(removed: frozenset, offenders: list, left: int) -> frozenset | None:
            if not offenders:
                return removed
            if left == 0 or removed in failed:
                return None
            for v in vsorted(offenders[0]):
                got = dfs(removed | {v}, _refine_offenders(D, Tc, r, offenders, (v,)), left - 1)
                if got is not None:
                    return got
            failed.add(removed)
            return None

        got = dfs(frozenset(), heavy, b)
        if got is not None:
            return got
    return None


def reference_partition_min_cut(sub: Digraph, Tc: frozenset, r: int, cap: int, lb: int) -> frozenset | None:
    """The partition engine that called linear_vertex_cut once per ordered
    partition, kept as the reference of balsep._partition_min_cut: its own
    partition recursion, one interning and one reduction per partition, and
    a fresh flow lower bound per partition.  Its cut is the one
    linear_vertex_cut returns for the last partition that improved."""
    flow_memo: dict = {}
    net = split_network(sub, sub.vertices())

    def prefix_bound(U: frozenset) -> int:
        if U not in flow_memo:
            # min vertices (terminals deletable) meeting every U -> rest path
            rest = Tc - U
            flow_memo[U] = (net.flow(net.ids(U), [net.n + v for v in net.ids(rest)], cap + 1)
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
            cut = linear_vertex_cut(sub, TerminalSequence(blocks), budget)
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


def _walks_out_and_back(D: Digraph, S, Z) -> bool:
    """True iff some walk in D minus Z leaves S minus Z and comes back to it:
    a walk from the out-arcs of every vertex of S - Z through vertices off S
    and Z, stopping at the first arc back into S - Z."""
    seen: set = set()
    queue = []
    for v in S - Z:
        for w in D._succ.get(v, ()):
            if w not in S and w not in Z and w not in seen:
                seen.add(w)
                queue.append(w)
    for v in queue:
        for w in D._succ[v]:
            if w in Z:
                continue
            if w in S:
                return True
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return False


def reference_validate(D: Digraph, dec: ArborealDecomposition, nice: bool = False) -> ValidationReport:
    """validate as it was with one screen per arc: a walk out of the arc's
    beyond set S from the out-arcs of every vertex of S minus the guard, then
    `_strongly_connected` over that set, and widths from a scan of every
    guard per node; kept as the reference of the grouped guard screen and
    of the bottom-up screen with its contracted child subtrees."""
    viols = _structure_violations(dec)
    structure_ok = not viols

    placement: dict = {}
    for node in dec.nodes():
        bag = dec.bags[node]
        if not bag:
            viols.append(Violation("partition", f"bag of node {node} is empty"))
        for v in vsorted(bag):
            if v not in D:
                viols.append(Violation("partition", f"bag vertex {v!r} not in digraph"))
            elif v in placement:
                viols.append(Violation("partition", f"vertex {v!r} in bags {placement[v]} and {node}"))
            else:
                placement[v] = node
    missing = [v for v in D.sorted_vertices() if v not in placement]
    for v in missing:
        viols.append(Violation("partition", f"vertex {v!r} in no bag"))

    for arc in sorted(dec.guards):
        for v in vsorted(dec.guards[arc]):
            if v not in D:
                viols.append(Violation("guard", f"guard vertex {v!r} of arc {arc} not in digraph"))

    def incident(node) -> frozenset:
        return frozenset().union(*(g for arc, g in dec.guards.items() if node in arc))

    if structure_ok:
        strong: list[Violation] = []
        for arc in sorted(dec.guards):
            guard = dec.guards[arc]
            S = dec.beyond(arc)
            breach = guard_breach(D, S, guard) if _walks_out_and_back(D, S, guard) else None
            if breach is not None:
                viols.append(Violation(
                    "guarded", f"arc {arc}: walk leaves the beyond-arc set and re-enters via {breach!r}"))
            if nice and (breach is not None or not _strongly_connected(D, S - guard)):
                strong.append(Violation(
                    "strong-component",
                    f"arc {arc}: beyond-arc set minus guards is not one strong component"))
        viols += strong
        if nice:
            for node in dec.nodes():
                for child in dec.children(node):
                    overlap = dec.bags.get(child, frozenset()) & incident(node)
                    if overlap:
                        viols.append(Violation(
                            "child-guard",
                            f"bag of child {child} meets guards incident to {node} at {vsorted(overlap)!r}"))

    width = max((len(dec.bags[node] | incident(node)) for node in dec.bags), default=0) - 1
    return ValidationReport(width, tuple(viols))


def reference_decompose(D: Digraph, k: int) -> ArborealDecomposition | LinkedSetCertificate:
    """decompose as it was when each split took the strong components of all
    of D minus Z, and every piece by a within-query, kept as the reference
    of the split inside the bag's forward closure."""
    if D.n == 0:
        raise ValueError("cannot decompose the empty digraph (bags must be non-empty)")
    if k < 1:
        raise ValueError("parameter k must be >= 1 for a non-empty digraph")

    bags: dict[int, set] = {0: set(D.vertices())}
    guards: dict[tuple[int, int], frozenset] = {}
    parent: dict[int, tuple[int, int]] = {}
    children: dict[int, list[int]] = {0: []}

    def coverage_size(node: int) -> int:
        cov = set(bags[node])
        arc = parent.get(node)
        if arc is not None:
            cov |= guards[arc]
        for child in children[node]:
            cov |= guards[(node, child)]
        return len(cov)

    def too_large_leaves() -> list[int]:
        return [node for node in sorted(bags)
                if not children[node] and coverage_size(node) >= 3 * k]

    measure = sum(len(bags[node]) for node in too_large_leaves())
    while True:
        pending = too_large_leaves()
        if not pending:
            break
        r0 = pending[0]
        arc0 = parent.get(r0)
        T = guards[arc0] if arc0 is not None else frozenset()
        result = balanced_separator(BalancedSeparatorInstance(D, T, k - 1, k - 1))
        if result.linked:
            if len(T) != 2 * k - 1:
                raise RuntimeError(f"linked guard of size {len(T)}, not {2 * k - 1}")
            return LinkedSetCertificate(frozenset(T), k - 1, k - 1)
        free = vsorted(bags[r0] - result.separator)
        if len(free) < 2:
            raise RuntimeError(f"separator leaves {len(free)} free vertices in bag {r0}")
        Z = frozenset(result.separator | {free[0]})
        for comp in scc(D, Z):
            if not comp & bags[r0]:
                continue  # its pieces all miss the split bag
            for piece in scc(D, within=comp - T):
                inside = piece & bags[r0]
                if inside and inside != piece:  # guarded bags split cleanly
                    raise RuntimeError(f"a piece straddles bag {r0}")
                if not inside:
                    continue
                node = len(bags)
                bags[node] = set(piece)
                children[node] = []
                children[r0].append(node)
                arc = (r0, node)
                parent[node] = arc
                guards[arc] = frozenset(Z | (comp & T))
                if len(guards[arc]) > 2 * k - 1:
                    raise RuntimeError(f"guard of size {len(guards[arc])} above {2 * k - 1}")
        bags[r0] &= Z
        if not bags[r0] or coverage_size(r0) > 3 * k - 1:
            raise RuntimeError(f"split bag {r0} is empty or covers more than {3 * k - 1}")
        next_measure = sum(len(bags[node]) for node in too_large_leaves())
        if next_measure >= measure:
            raise RuntimeError(f"leaf measure did not decrease ({measure} -> {next_measure})")
        measure = next_measure

    return ArborealDecomposition(0, bags, guards)


def reference_parse_edge_list(text: str) -> Digraph:
    """parse_edge_list as it was with one `add_vertex` or `add_edge` call
    per line, kept as the reference of the parser that fills the adjacency
    dicts itself."""
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
