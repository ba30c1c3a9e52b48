"""Terminal brambles and the well-linked-set pipeline.

The bramble over a terminal set T collects every induced strongly connected
subgraph holding at least k terminals.  It is never materialized (it can be
exponentially large): hitting-set and order queries reduce to strong
components and balanced separators.  The bramble finds its offending
components, the strong components of D with k or more terminals, once;
every question about D minus a set X refines them by X instead of passing
over the whole graph again.  On top of it sit the hitting-path
construction, the split iteration that plants anchor vertices along that
path, Menger verification of well-linkedness, and the path-system builder.
"""
from __future__ import annotations

from dataclasses import dataclass
from collections import deque
from collections.abc import Iterable
from functools import cached_property
from itertools import combinations

from .digraph import Digraph, Path, Vertex, _check_terminals, _reach_set, menger, split_network, vkey, vsorted
from .balsep import _refine_offenders, _solve, is_balanced_separator, offending_components
from .arboreal import LinkedSetCertificate


@dataclass(frozen=True)
class TBramble:
    """Implicit bramble: all induced strongly connected subgraphs of D with
    at least k of the terminals T.  Certified instances have |T| = 2k-1."""

    D: Digraph
    T: frozenset
    k: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "T", frozenset(self.T))
        _check_terminals(self.D, self.T)
        if self.k < 1:
            raise ValueError("bramble threshold must be >= 1")

    @cached_property
    def offenders(self) -> list[set]:
        """The strong components of D holding k or more terminals, in
        `offending_components` order; found once, never mutated."""
        return offending_components(self.D, self.T, self.k - 1)


def is_hitting_set(B: TBramble, X: Iterable[Vertex]) -> bool:
    """True iff X meets every bramble element, i.e. no strong component of
    D minus X still holds k or more terminals."""
    return is_balanced_separator(B.D, B.T, B.k - 1, X)


def complement_order_at_most(B: TBramble, X: Iterable[Vertex], s: int) -> tuple[bool, frozenset | None]:
    """Decide whether the bramble elements avoiding X can be hit by s
    vertices; on success the witness hitting set comes back too.  Reduces to
    a balanced-separator run on D minus X, banning X instead of copying, and
    starting from the bramble's offending components refined by X."""
    if s < 0:
        return False, None
    Xset = frozenset(X)
    D, T, r = B.D, B.T, B.k - 1
    result = _solve(D, T - Xset, r, s, Xset, _refine_offenders(D, T, r, B.offenders, Xset))
    if result.linked:
        return False, None
    return True, result.separator


def _route(D: Digraph, start: Vertex, inside: set, target: set) -> list | None:
    """Shortest walk from start through `inside` vertices ending at the
    first contact with `target` (target vertices are never expanded)."""
    parent: dict = {start: None}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        if v in target:
            back = []
            while v is not None:
                back.append(v)
                v = parent[v]
            return back[::-1]
        for w in vsorted(D._succ[v]):
            if w not in parent and (w in inside or w in target):
                parent[w] = v
                queue.append(w)
    return None


def hitting_path(B: TBramble) -> Path:
    """A directed path meeting every bramble element, grown component by
    component: repeatedly route from the path's tip to the next
    terminal-heavy strong component of D minus the path, touching it only at
    the entry vertex."""
    D, T, k = B.D, B.T, B.k
    heavy = B.offenders
    if not heavy:
        return Path(D, [])
    current = heavy[0]
    verts = [min(current & T, key=vkey)]
    added = list(verts)
    # the path hits the bramble once no terminal-heavy component avoids it;
    # each hop refines the components of D minus the path it extends
    while heavy := _refine_offenders(D, T, k - 1, heavy, added):
        nxt = heavy[0]
        hop = _route(D, verts[-1], current - set(verts), nxt)
        if hop is None:
            raise ValueError("tip cannot reach the next terminal-heavy component "
                             "(input set is not linked as certified)")
        added = hop[1:]
        verts.extend(added)
        current = nxt
    return Path(D, verts)


@dataclass(frozen=True)
class SplitState:
    """Bookkeeping for the split iteration along a hitting path: consumed
    subpaths Q with their anchors, the untouched residual of the path, the
    accumulated `blocked` set X, and the order parameter g."""

    bramble: TBramble
    k: int
    g: int
    subpaths: tuple
    anchors: tuple
    residual: tuple
    blocked: frozenset

    @classmethod
    def initial(cls, bramble: TBramble, k: int, path: Path, g: int) -> "SplitState":
        return cls(bramble, k, g, (), (), tuple(path.vertices), frozenset())

    @property
    def level(self) -> int:
        return len(self.anchors)


def extend_split(state: SplitState) -> SplitState:
    """One split iteration: walk the residual path until the bramble
    elements avoiding the blocked set become cheap to hit, then plant the
    successor vertex as the next anchor."""
    B = state.bramble
    half = state.k // 2
    threshold = state.g - state.level * (half + 1) - 1 - half
    passed, _ = complement_order_at_most(B, state.blocked, threshold)
    if passed:
        raise ValueError("split entry condition violated: complement order already below "
                         "threshold before consuming any path vertex (corrupt input)")
    taken: list = []
    for idx, v in enumerate(state.residual):
        taken.append(v)
        passed, _ = complement_order_at_most(B, state.blocked | set(taken), threshold)
        if passed:
            if idx + 1 >= len(state.residual):
                raise ValueError("no successor left on the path for the next anchor "
                                 "(corrupt input)")
            anchor = state.residual[idx + 1]
            return SplitState(
                B, state.k, state.g,
                state.subpaths + (tuple(taken),),
                state.anchors + (anchor,),
                state.residual[idx + 2:],
                state.blocked | set(taken) | {anchor},
            )
    raise ValueError("residual path exhausted before the complement order dropped "
                     "(corrupt input)")


def order_parameter(k: int) -> int:
    """g(k) = (k+1)(floor(k/2)+1) - 1, the certified bramble order needed to
    extract a well-linked set of size k."""
    if k < 1:
        raise ValueError("target size must be >= 1")
    return (k + 1) * (k // 2 + 1) - 1


def well_linked_set(D: Digraph, cert: LinkedSetCertificate, k: int) -> tuple[Path, frozenset]:
    """From a certificate of linkedness g(k)-1 over |T| = 2g(k)-1 terminals,
    build the hitting path and run k split iterations; the k anchors form a
    well-linked set living on the path."""
    g = order_parameter(k)
    if cert.k != g - 1 or cert.r != g - 1 or len(cert.T) != 2 * g - 1:
        raise ValueError(f"certificate does not match target {k}: "
                         f"need k = r = {g - 1} with |T| = {2 * g - 1}")
    bramble = TBramble(D, cert.T, g)
    path = hitting_path(bramble)
    if k == 1:
        # the split iteration needs a successor beyond the final path
        # vertex, which a one-element hitting path cannot offer; any single
        # vertex is vacuously well-linked
        return path, frozenset({path.last})
    state = SplitState.initial(bramble, k, path, g)
    for _ in range(k):
        state = extend_split(state)
    anchors = frozenset(state.anchors)
    if len(anchors) != k or not anchors <= set(path.vertices):
        raise RuntimeError(f"split gave {len(anchors)} anchors, not {k} on the hitting path")
    return path, anchors


def verify_well_linked(D: Digraph, A: Iterable[Vertex]) -> bool:
    """Exhaustive Menger check: every pair of disjoint equal-size subsets
    X, Y of A is joined by |X| vertex-disjoint X -> Y paths.  Exponential in
    |A| at worst; meant for small anchor sets.  A vertex of A outside D is a
    ValueError; repeats in A count once.

    The pairs of single vertices ask that A lie in one strong component,
    which a forward and a backward walk from one vertex of A decide.  A
    larger pair X, Y of size m needs no flow when each x in X reaches each
    y in Y by an arc or by m internally disjoint paths: a set of fewer than
    m vertices misses some x and some y, so it cannot meet all of those
    paths.  So A is well-linked once every ordered pair of A is an arc, or
    else has t = |A| // 2 such paths (Even, 1975), one flow per pair; a
    pair's flow is asked only when a check first needs it.  Each pair
    X, Y that this leaves open asks one flow of its own."""
    items = list(dict.fromkeys(A))
    _check_terminals(D, items)
    if len(items) < 2:
        return True
    for forward in (True, False):
        if not _reach_set(D, items[:1], set(), forward).issuperset(items):
            return False
    if len(items) < 4:  # no pair of disjoint 2-sets
        return True
    succ = D._succ
    if all(y in succ[x] for x in items for y in items if y != x):
        return True
    net = split_network(D, D.vertices())
    n, names, t, ids = net.n, net.names, len(items) // 2, sorted(net.ids(items))
    paths: dict = {}  # (x, y) -> internally disjoint x -> y paths, up to t; an arc counts t

    def joined(x: int, y: int) -> int:
        if (x, y) not in paths:
            paths[x, y] = t if names[y] in succ[names[x]] else net.flow((n + x,), (y,), t)
        return paths[x, y]

    if all(joined(x, y) == t for x in ids for y in ids if y != x):
        return True
    for size in range(2, t + 1):
        for X in combinations(ids, size):
            for Y in combinations([v for v in ids if v not in X], size):
                if all(joined(x, y) >= size for x in X for y in Y):
                    continue
                if net.flow(X, [n + y for y in Y], size) < size:  # the sink arcs leave out-nodes
                    return False
    return True


@dataclass(frozen=True)
class PathSystem:
    """Disjoint spine paths with anchor sets and pairwise linkages: spine i
    sends a linkage of `size` vertex-disjoint paths into every other
    spine."""

    spines: tuple
    anchors_in: tuple
    anchors_out: tuple
    linkages: dict
    size: int

    def to_json(self) -> dict:
        return {
            "spines": [list(p.vertices) for p in self.spines],
            "anchors_in": [list(a) for a in self.anchors_in],
            "anchors_out": [list(a) for a in self.anchors_out],
            "linkages": {
                f"{i},{j}": [list(p.vertices) for p in paths]
                for (i, j), paths in sorted(self.linkages.items())
            },
        }


def build_path_system(D: Digraph, P: Path, A: Iterable[Vertex], link_size: int, order: int) -> PathSystem:
    """Cut P into `order` spines of 2*link_size anchors each and connect
    every ordered spine pair by a Menger linkage between the tail anchors of
    one and the head anchors of the other.  Well-linkedness of A guarantees
    the linkages exist; a separator coming back is reported as an error."""
    anchors = frozenset(A)
    if len(anchors) != 2 * link_size * order:
        raise ValueError(f"need exactly {2 * link_size * order} anchors, got {len(anchors)}")
    if not anchors <= set(P.vertices):
        raise ValueError("anchors must lie on the path")
    along = [v for v in P.vertices if v in anchors]

    spines = []
    ins, outs = [], []
    for i in range(order):
        seg = along[i * 2 * link_size:(i + 1) * 2 * link_size]
        lo = P.vertices.index(seg[0])
        hi = P.vertices.index(seg[-1])
        spines.append(Path(D, P.vertices[lo:hi + 1]))
        ins.append(tuple(seg[:link_size]))
        outs.append(tuple(seg[link_size:]))

    for a, b in combinations(range(order), 2):
        if set(spines[a].vertices) & set(spines[b].vertices):
            raise RuntimeError(f"spines {a + 1} and {b + 1} share vertices")

    # one split network serves every linkage
    net = split_network(D, D.vertices())
    linkages: dict = {}
    for i in range(order):
        for j in range(order):
            if i == j:
                continue
            res = menger(D, outs[i], ins[j], link_size, net)
            if res.separator is not None:
                raise ValueError(f"no size-{link_size} linkage from spine {i + 1} to spine "
                                 f"{j + 1}: the anchor set is not well-linked")
            if len(res.paths) != link_size:
                raise RuntimeError(f"linkage from spine {i + 1} to spine {j + 1} has "
                                   f"{len(res.paths)} paths, not {link_size}")
            linkages[(i + 1, j + 1)] = tuple(res.paths)

    return PathSystem(tuple(spines), tuple(ins), tuple(outs), linkages, link_size)
