"""Arboreal decompositions: the validator, the construction loop that
either builds a nice decomposition of width at most 3k-2 or stops with a
linked-set certificate, and haven evaluation driven by such a certificate.

A decomposition is an arborescence whose nodes carry non-empty bags
partitioning V(D), with a guard set on every arc; everything strictly beyond
an arc must be guarded by the arc's guards.  Niceness additionally requires
the beyond-arc territory (minus its own guards) to be exactly one strong
component of D minus the guards, and children's bags to avoid every guard
incident to the parent.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from collections import deque
from collections.abc import Iterable

from .digraph import (_NATIVE, Digraph, Vertex, _covers, _reach_set, _strongly_connected, guard_breach,
                      guard_screen, scc, vsorted)
from .balsep import BalancedSeparatorInstance, balanced_separator, offending_components


def _as_list(value, what: str) -> list:
    # a JSON string would pass as a list of characters
    if not isinstance(value, list):
        raise TypeError(f"{what} must be a list")
    return value


def _as_int(value, what: str) -> int:
    # int() would truncate a float, overflow on an infinite one, parse a
    # string and take a bool
    if type(value) is not int:
        raise TypeError(f"{what} must be an integer")
    return value


@dataclass(frozen=True)
class LinkedSetCertificate:
    """A set T with no (T, r)-balanced separator of size <= k.  Pipeline
    certificates additionally satisfy |T| = 2k+1 and r = k."""

    T: frozenset
    k: int
    r: int

    def to_json(self) -> dict:
        return {"T": vsorted(self.T), "k": self.k, "r": self.r}

    @classmethod
    def from_json(cls, doc: dict) -> "LinkedSetCertificate":
        try:
            return cls(frozenset(_as_list(doc["T"], "T")), _as_int(doc["k"], "k"), _as_int(doc["r"], "r"))
        except KeyError as exc:
            raise ValueError(f"missing field {exc}") from exc
        except TypeError as exc:
            raise ValueError(str(exc)) from exc


@dataclass(frozen=True)
class Violation:
    clause: str
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    width: int
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


class ArborealDecomposition:
    """Arborescence + bags + arc guards.  Construction does not validate;
    `validate` reports every violated clause as data."""

    __slots__ = ("root", "bags", "guards", "_children", "_incident")

    def __init__(self, root: int, bags: dict, guards: dict) -> None:
        self.root = root
        self.bags = {node: frozenset(bag) for node, bag in bags.items()}
        self.guards = {(int(u), int(v)): frozenset(g) for (u, v), g in guards.items()}
        self._children: dict[int, list[int]] = {}
        incident: dict[int, set] = {}  # node -> the guards of its arcs, united
        for (u, v) in sorted(self.guards):
            self._children.setdefault(u, []).append(v)
            incident.setdefault(u, set()).update(self.guards[(u, v)])
            incident.setdefault(v, set()).update(self.guards[(u, v)])
        self._incident = {node: frozenset(g) for node, g in incident.items()}

    def nodes(self) -> list[int]:
        return sorted(self.bags)

    def children(self, node: int) -> list[int]:
        return list(self._children.get(node, ()))

    def beyond(self, arc: tuple[int, int]) -> frozenset:
        """Union of the bags at the arc's head and everything below it
        (cycle-safe so it stays well-defined on corrupt instances)."""
        seen = set()
        queue = deque([arc[1]])
        verts: set = set()
        while queue:
            node = queue.popleft()
            if node in seen:
                continue
            seen.add(node)
            verts |= self.bags.get(node, frozenset())
            queue.extend(self.children(node))
        return frozenset(verts)

    def coverage(self, node: int) -> frozenset:
        """The node's bag together with the guards of every incident arc."""
        return self.bags.get(node, frozenset()) | self._incident.get(node, frozenset())

    @property
    def width(self) -> int:
        if not self.bags:
            return -1
        return max(len(self.coverage(node)) for node in self.bags) - 1

    def to_json(self) -> dict:
        return {
            "nodes": [{"id": node, "bag": vsorted(self.bags[node])} for node in self.nodes()],
            "arcs": [
                {"from": u, "to": v, "guard": vsorted(self.guards[(u, v)])}
                for (u, v) in sorted(self.guards)
            ],
            "root": self.root,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "ArborealDecomposition":
        try:
            nodes = [(_as_int(nd["id"], "node id"), frozenset(_as_list(nd["bag"], "bag")))
                     for nd in _as_list(doc["nodes"], "nodes")]
            arcs = [((_as_int(a["from"], "arc tail"), _as_int(a["to"], "arc head")),
                     frozenset(_as_list(a["guard"], "guard"))) for a in _as_list(doc["arcs"], "arcs")]
            root = _as_int(doc["root"], "root")
        except KeyError as exc:
            raise ValueError(f"missing field {exc}") from exc
        except TypeError as exc:
            raise ValueError(str(exc)) from exc
        # a dict would keep the last of a repeated entry and hide the others
        bags, guards = dict(nodes), dict(arcs)
        if len(bags) < len(nodes) or len(guards) < len(arcs):
            raise ValueError("a node id or an arc is listed twice")
        return cls(root, bags, guards)


def _structure_violations(dec: ArborealDecomposition) -> list[Violation]:
    out: list[Violation] = []
    nodes = set(dec.bags)
    if dec.root not in nodes:
        out.append(Violation("arborescence", f"root {dec.root} has no bag"))
        return out
    indeg = {node: 0 for node in nodes}
    for (u, v) in dec.guards:
        if u not in nodes or v not in nodes:
            out.append(Violation("arborescence", f"arc ({u}, {v}) references unknown nodes"))
            return out
        indeg[v] += 1
    if indeg[dec.root]:
        out.append(Violation("arborescence", f"root {dec.root} has an incoming arc"))
    for node in sorted(nodes):
        if node != dec.root and indeg[node] != 1:
            out.append(Violation("arborescence", f"node {node} has in-degree {indeg[node]}"))
    reached = set()
    queue = deque([dec.root])
    while queue:
        node = queue.popleft()
        if node in reached:
            continue
        reached.add(node)
        queue.extend(dec.children(node))
    for node in sorted(nodes - reached):
        out.append(Violation("arborescence", f"node {node} unreachable from the root"))
    return out


def validate(D: Digraph, dec: ArborealDecomposition, nice: bool = False) -> ValidationReport:
    """Check the base decomposition clauses (arborescence, bag partition,
    beyond-arc guardedness) and, with nice, the strong-component and
    child-guard clauses.  Violations are data; width is reported either
    way."""
    viols = _structure_violations(dec)
    structure_ok = not viols

    placement: dict = {}
    disjoint = True  # every bag vertex lies in D and in one bag only
    for node in dec.nodes():
        bag = dec.bags[node]
        if not bag:
            viols.append(Violation("partition", f"bag of node {node} is empty"))
        for v in vsorted(bag):
            if v not in D:
                viols.append(Violation("partition", f"bag vertex {v!r} not in digraph"))
                disjoint = False
            elif v in placement:
                viols.append(Violation("partition", f"vertex {v!r} in bags {placement[v]} and {node}"))
                disjoint = False
            else:
                placement[v] = node
    missing = [v for v in D.sorted_vertices() if v not in placement]
    for v in missing:
        viols.append(Violation("partition", f"vertex {v!r} in no bag"))

    for arc in sorted(dec.guards):
        for v in vsorted(dec.guards[arc]):
            if v not in D:
                viols.append(Violation("guard", f"guard vertex {v!r} of arc {arc} not in digraph"))

    if structure_ok:
        # number the tree in preorder: the beyond set of an arc is then the
        # bags of a run of nodes, a slice of `flat`
        order, stack = [], [dec.root]
        while stack:
            node = stack.pop()
            order.append(node)
            stack.extend(reversed(dec._children.get(node, ())))
        flat: list = []
        start = {}
        for node in order:
            start[node] = len(flat)
            flat += dec.bags[node]
        stop = {}  # where a node's subtree ends in `flat`
        for node in reversed(order):
            kids = dec._children.get(node)
            stop[node] = stop[kids[-1]] if kids else start[node] + len(dec.bags[node])

        # siblings sharing a guard are screened together: their beyond sets
        # are disjoint when the bags are
        groups: dict = {}
        for arc in sorted(dec.guards):
            groups.setdefault((arc[0], dec.guards[arc]) if disjoint else arc, []).append(arc)
        screened = {}  # arc -> (the breach guard_breach names, one strong component?)
        lone = {}  # head -> arc, for the arcs screened alone
        for arcs in groups.values():
            if len(arcs) == 1:
                lone[arcs[0][1]] = arcs[0]
                continue
            guard = dec.guards[arcs[0]]
            parts = [set(flat[start[v]:stop[v]]) for _, v in arcs]
            for arc, S, one in zip(arcs, parts, guard_screen(D, guard, parts)):
                screened[arc] = (None if one is not None else guard_breach(D, S, guard)), one
        if not disjoint:
            # a vertex in two bags or none of D: each arc by the definition
            for v, arc in lone.items():
                guard = dec.guards[arc]
                S = set(flat[start[v]:stop[v]])
                breach = guard_breach(D, S, guard)
                one = None if breach is not None else nice and _strongly_connected(D, S - guard)
                screened[arc] = breach, one
        elif lone:
            _screen_lone_arcs(D, dec, order, flat, start, stop, lone, screened, nice)
        for arc, (breach, one) in screened.items():
            if one is None and breach is None:
                raise RuntimeError(f"the guard screen flagged the guarded arc {arc}")

        strong: list[Violation] = []
        for arc in sorted(dec.guards):
            breach, one = screened[arc]
            if breach is not None:
                viols.append(Violation(
                    "guarded", f"arc {arc}: walk leaves the beyond-arc set and re-enters via {breach!r}"))
            # one strong component of D minus guard: guarded, and strongly
            # connected inside
            if nice and not one:
                strong.append(Violation(
                    "strong-component",
                    f"arc {arc}: beyond-arc set minus guards is not one strong component"))
        viols += strong
        if nice:
            for node in dec.nodes():
                incident = dec._incident.get(node, frozenset())
                for child in dec.children(node):
                    overlap = dec.bags.get(child, frozenset()) & incident
                    if overlap:
                        viols.append(Violation(
                            "child-guard",
                            f"bag of child {child} meets guards incident to {node} at {vsorted(overlap)!r}"))

    return ValidationReport(dec.width, tuple(viols))


def _screen_lone_arcs(D: Digraph, dec: ArborealDecomposition, order: list, flat: list, start: dict,
                      stop: dict, lone: dict, screened: dict, nice: bool) -> None:
    """Screen the lone arcs (`lone` maps each head to its arc) of a
    decomposition whose bags partition vertices of D, bottom-up over the
    preorder `order`, whose subtrees are the slices start..stop of `flat`.
    Into `screened` goes each arc's (breach, one) pair, its `one` read only
    with nice; the arcs screened in groups are there already.

    Each node under a lone arc keeps `leaving`: the arcs from its beyond set
    S to outside S, its bag's plus the children's that still leave S.  The
    first outside stretch of any S -> S walk in D - Z starts on one of them,
    so the screen walks from those.  Whether a guarded S - Z is strongly
    connected is asked of a graph with each child subtree contracted to one
    node.  That keeps the answer when the child's arc is one strong
    component and the subtree avoids its own guard and Z; when a child
    fails that, S - Z is walked instead."""
    succ = D._succ
    pos = {v: i for i, v in enumerate(flat)}

    def strong(node: int, Z: frozenset, below: list) -> bool:
        lo, hi = start[node], stop[node]
        bag, kids = dec.bags[node], dec._children.get(node, ())
        for child in kids:
            a, b = start[child], stop[child]
            if not screened[(node, child)][1] or any(a <= pos.get(z, -1) < b
                                                     for z in dec.guards[(node, child)] | Z):
                return _strongly_connected(D, set(flat[lo:hi]) - Z)
        # node i < len(bag) is the bag vertex at lo + i, node len(bag) + j the
        # subtree of child j
        mid, firsts = lo + len(bag), [start[child] for child in kids]
        fwd: list[list[int]] = [[] for _ in range(len(bag) + len(kids))]
        bwd: list[list[int]] = [[] for _ in fwd]
        tails = [(pos[x] - lo, succ[x]) for x in bag if x not in Z]
        tails += [(len(bag) + j, [w for _, w in arcs]) for j, arcs in enumerate(below)]
        for i, heads in tails:
            for w in heads:
                p = pos.get(w, -1)
                if w in Z or not lo <= p < hi:
                    continue
                j = p - lo if p < mid else len(bag) + bisect_right(firsts, p) - 1
                fwd[i].append(j)
                bwd[j].append(i)
        nodes = {i for i, _ in tails}
        return bool(nodes) and _covers(fwd, min(nodes), nodes) and _covers(bwd, min(nodes), nodes)

    under = set()  # the nodes that keep `leaving`
    for node in order:
        for child in dec._children.get(node, ()):
            if child in lone or node in under:
                under.add(child)
    leaving: dict = {}
    for node in reversed(order):
        if node not in under:
            continue
        lo, hi = start[node], stop[node]
        below = [leaving.pop(child) for child in dec._children.get(node, ())]
        out = [(x, w) for x in dec.bags[node] for w in succ[x] if not lo <= pos.get(w, -1) < hi]
        for arcs in below:
            out += [(x, w) for x, w in arcs if not lo <= pos.get(w, -1) < hi]
        leaving[node] = out
        arc = lone.get(node)
        if arc is None:
            continue
        Z = dec.guards[arc]
        if _walks_back(succ, out, Z, pos, lo, hi):
            screened[arc] = guard_breach(D, set(flat[lo:hi]), Z), None
        else:
            screened[arc] = None, nice and strong(node, Z, below)


def _walks_back(succ: dict, out: list, Z: frozenset, pos: dict, lo: int, hi: int) -> bool:
    """True iff a walk in D - Z that starts on one of the arcs `out`, the
    arcs leaving the slice lo..hi of positions `pos`, comes back to it."""
    seen = {w for x, w in out if x not in Z and w not in Z}
    queue = list(seen)
    for v in queue:  # the BFS queue: vertices appended below are visited too
        for w in succ[v]:
            if w in Z:
                continue
            if lo <= pos.get(w, -1) < hi:
                return True
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return False


def _split_components(D: Digraph, bag: frozenset, Z: frozenset, T: frozenset | None = None) -> list[frozenset]:
    """The strong components of D - Z that the bag reaches, in the order
    scc(D, Z) gives them.  They are those of the bag's forward closure: no
    arc leaves the closure, so the components outside it never hold back one
    inside it.  The closure is walked from one free bag vertex, and from the
    bag vertices that walk missed; when it missed none, one backward walk
    from that vertex, stopping once it has met all of the closure, tells
    whether the closure is one component.

    T is given when the bag is closed: strongly connected, with every arc
    that leaves it entering T, its guard.  With W = Z & bag the answer is
    then [bag - W] without those walks when two tests pass.  No arc from
    bag - W enters T - Z, read off the in-rows of T - Z; every other arc
    leaving bag - W enters Z, so bag - W is the whole closure.  And
    `_rest_strongly_connected` finds bag - W strongly connected."""
    if T is not None:
        W = Z & bag
        if all(p not in bag or p in W for t in T - Z for p in D._pred[t]):
            rest = frozenset(bag - W)
            if _rest_strongly_connected(D, W, rest):
                return [rest]
    start = next(v for v in bag if v not in Z)
    closure = _reach_set(D, (start,), Z, forward=True)
    missed = [v for v in bag if v not in closure and v not in Z]
    if missed:
        _reach_set(D, missed, Z, forward=True, seen=closure)
    elif _covers(D._pred, start, closure):
        return [frozenset(closure)]
    return scc(D, within=closure)


def _rest_strongly_connected(D: Digraph, W: frozenset, rest: frozenset) -> bool:
    """True iff rest is strongly connected, given that W and rest are
    disjoint, W is not empty and W | rest is strongly connected.  One
    out-neighbour q0 of W in rest must reach W's other out-neighbours in
    rest, and W's in-neighbours in rest must reach q0, by walks inside rest
    that stop once they have met them.  That is enough: a path of W | rest
    that detours p -> W ... -> q becomes p ~> q0 ~> q."""
    outs = {q for w in W for q in D._succ[w] if q in rest}
    ins = {p for w in W for p in D._pred[w] if p in rest}
    if not outs or not ins:
        raise RuntimeError("no arc runs from Z to the rest of a closed bag, or none back")
    q0 = next(iter(outs))
    return _covers(D._succ, q0, outs, rest) and _covers(D._pred, q0, ins, rest)


def decompose(D: Digraph, k: int) -> ArborealDecomposition | LinkedSetCertificate:
    """Either a nice arboreal decomposition of width <= 3k-2 or a linked-set
    certificate T (|T| = 2k-1, no (T, k-1)-balanced separator of size
    <= k-1).  Leaf splitting follows canonical least choices throughout, so
    the output is deterministic."""
    if D.n == 0:
        raise ValueError("cannot decompose the empty digraph (bags must be non-empty)")
    if k < 1:
        raise ValueError("parameter k must be >= 1 for a non-empty digraph")

    bags: dict[int, frozenset] = {0: frozenset(D.vertices())}
    guards: dict[tuple[int, int], frozenset] = {}
    incident: dict[int, frozenset] = {0: frozenset()}  # node -> the guards of its arcs, united
    closed: set[int] = set()  # leaves whose bag is closed, in `_split_components`' sense
    # Z's extra vertex is the least free one: by plain min for ids all int or
    # all str (vsorted's rule), else by a rank computed once
    key = None if set(map(type, D._succ)) in _NATIVE else \
        {v: i for i, v in enumerate(D.sorted_vertices())}.__getitem__

    def coverage(node: int) -> int:
        return len(bags[node]) + len(incident[node] - bags[node])

    # the too-large leaves in ascending order; a split changes only the
    # split leaf and its new children, whose ids exceed every other
    pending = [0] if len(bags[0]) >= 3 * k else []
    measure = sum(len(bags[node]) for node in pending)
    while pending:
        r0 = pending[0]
        # a pending node is a leaf: its one arc, if any, comes from its parent
        T = incident[r0]
        result = balanced_separator(BalancedSeparatorInstance(D, T, k - 1, k - 1))
        if result.linked:
            if len(T) != 2 * k - 1:
                raise RuntimeError(f"linked guard of size {len(T)}, not {2 * k - 1}")
            return LinkedSetCertificate(T, k - 1, k - 1)
        bag = bags[r0]
        free = bag - result.separator
        if len(free) < 2:
            raise RuntimeError(f"separator leaves {len(free)} free vertices in bag {r0}")
        Z = frozenset(result.separator | {min(free, key=key)})
        first = len(bags)
        comps = _split_components(D, bag, Z, T if r0 in closed else None)
        for comp in comps:
            if comp.isdisjoint(bag):
                continue  # its pieces all miss the split bag
            pieces = [comp]
            if comp & T:  # two walks settle a rest that stays strongly connected
                rest = comp - T
                pieces = [rest] if _strongly_connected(D, rest) else scc(D, within=rest)
            for piece in pieces:
                if piece.isdisjoint(bag):
                    continue
                if not piece <= bag:  # guarded bags split cleanly
                    raise RuntimeError(f"a piece straddles bag {r0}")
                node = len(bags)
                bags[node] = piece
                guard = guards[(r0, node)] = frozenset(Z | (comp & T))
                incident[node] = guard
                incident[r0] |= guard
                if len(guard) > 2 * k - 1:
                    raise RuntimeError(f"guard of size {len(guard)} above {2 * k - 1}")
        # a closure that is one component and misses T became the one child's
        # bag (it holds a free bag vertex), and every arc leaving it enters Z,
        # the child's guard
        if len(comps) == 1 and not comps[0] & T:
            closed.add(first)
        bags[r0] = bag & Z
        if not bags[r0] or coverage(r0) > 3 * k - 1:
            raise RuntimeError(f"split bag {r0} is empty or covers more than {3 * k - 1}")
        pending = pending[1:] + [node for node in range(first, len(bags)) if coverage(node) >= 3 * k]
        next_measure = sum(len(bags[node]) for node in pending)
        if next_measure >= measure:
            raise RuntimeError(f"leaf measure did not decrease ({measure} -> {next_measure})")
        measure = next_measure

    return ArborealDecomposition(0, bags, guards)


def haven_eval(D: Digraph, cert: LinkedSetCertificate, Z: Iterable[Vertex]) -> frozenset:
    """The unique strong component of D minus Z holding at least r+1
    certificate vertices.  Realizes the haven the certificate promises, one
    query at a time."""
    Zset = frozenset(Z)
    if len(Zset) > cert.k:
        raise ValueError(f"query set of size {len(Zset)} exceeds certified budget {cert.k}")
    qualifying = offending_components(D, cert.T, cert.r, Zset)
    if not qualifying:
        raise ValueError("no strong component holds enough certificate vertices (corrupt certificate)")
    if len(qualifying) > 1:
        raise ValueError("qualifying component not unique (corrupt certificate)")
    return frozenset(qualifying[0])
