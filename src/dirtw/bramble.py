"""Terminal brambles and the well-linked-set pipeline.

The bramble over a terminal set T collects every induced strongly connected
subgraph holding at least k terminals.  It is never materialized (it can be
exponentially large): hitting-set and order queries reduce to strong
components and balanced separators.  On top of it sit the hitting-path
construction, the split iteration that plants anchor vertices along that
path, Menger verification of well-linkedness, and the path-system builder.
"""
from __future__ import annotations

from dataclasses import dataclass
from collections import deque
from collections.abc import Iterable
from itertools import combinations

from .digraph import Digraph, Path, Vertex, menger, vkey, vsorted
from .balsep import (BalancedSeparatorInstance, balanced_separator, is_balanced_separator,
                     offending_components)
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
        for v in self.T:
            if v not in self.D:
                raise ValueError(f"terminal {v!r} not in digraph")
        if self.k < 1:
            raise ValueError("bramble threshold must be >= 1")


def is_hitting_set(B: TBramble, X: Iterable[Vertex]) -> bool:
    """True iff X meets every bramble element, i.e. no strong component of
    D minus X still holds k or more terminals."""
    return is_balanced_separator(B.D, B.T, B.k - 1, X)


def complement_order_at_most(B: TBramble, X: Iterable[Vertex], s: int) -> tuple[bool, frozenset | None]:
    """Decide whether the bramble elements avoiding X can be hit by s
    vertices; on success the witness hitting set comes back too.  Reduces to
    a balanced-separator run on D minus X."""
    if s < 0:
        return False, None
    Xset = frozenset(X)
    rest = B.D.minus(Xset)
    result = balanced_separator(BalancedSeparatorInstance(rest, B.T - Xset, B.k - 1, s))
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
        for w in sorted(D.out_neighbors(v), key=vkey):
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
    heavy = offending_components(D, T, k - 1)
    if not heavy:
        return Path(D, [])
    current = heavy[0]
    verts = [min(current & T, key=vkey)]
    # the path hits the bramble once no terminal-heavy component avoids it
    while heavy := offending_components(D, T, k - 1, verts):
        nxt = heavy[0]
        hop = _route(D, verts[-1], current - set(verts), nxt)
        if hop is None:
            raise ValueError("tip cannot reach the next terminal-heavy component "
                             "(input set is not linked as certified)")
        verts.extend(hop[1:])
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
    half = state.k // 2
    threshold = state.g - state.level * (half + 1) - 1 - half
    passed, _ = complement_order_at_most(state.bramble, state.blocked, threshold)
    if passed:
        raise ValueError("split entry condition violated: complement order already below "
                         "threshold before consuming any path vertex (corrupt input)")
    taken: list = []
    for idx, v in enumerate(state.residual):
        taken.append(v)
        passed, _ = complement_order_at_most(state.bramble, state.blocked | set(taken), threshold)
        if passed:
            if idx + 1 >= len(state.residual):
                raise ValueError("no successor left on the path for the next anchor "
                                 "(corrupt input)")
            anchor = state.residual[idx + 1]
            return SplitState(
                state.bramble, state.k, state.g,
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
    assert len(anchors) == k and anchors <= set(path.vertices)
    return path, anchors


def verify_well_linked(D: Digraph, A: Iterable[Vertex]) -> bool:
    """Exhaustive Menger check: every pair of disjoint equal-size subsets
    X, Y of A is joined by |X| vertex-disjoint X -> Y paths.  Exponential in
    |A|; meant for small anchor sets."""
    items = vsorted(A)
    for size in range(1, len(items) // 2 + 1):
        for X in combinations(items, size):
            rest = [v for v in items if v not in X]
            for Y in combinations(rest, size):
                if menger(D, X, Y, size).separator is not None:
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
        assert not set(spines[a].vertices) & set(spines[b].vertices)

    linkages: dict = {}
    for i in range(order):
        for j in range(order):
            if i == j:
                continue
            res = menger(D, outs[i], ins[j], link_size)
            if res.separator is not None:
                raise ValueError(f"no size-{link_size} linkage from spine {i + 1} to spine "
                                 f"{j + 1}: the anchor set is not well-linked")
            assert len(res.paths) == link_size
            linkages[(i + 1, j + 1)] = tuple(res.paths)

    return PathSystem(tuple(spines), tuple(ins), tuple(outs), linkages, link_size)
