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

from dataclasses import dataclass
from collections import deque
from collections.abc import Iterable

from .digraph import Digraph, Vertex, guard_breach, scc, tarjan_sccs, vsorted
from .balsep import BalancedSeparatorInstance, balanced_separator, offending_components


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
            return cls(frozenset(doc["T"]), int(doc["k"]), int(doc["r"]))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed certificate document: {exc}") from exc


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

    __slots__ = ("root", "bags", "guards", "_children")

    def __init__(self, root: int, bags: dict, guards: dict) -> None:
        self.root = root
        self.bags = {node: frozenset(bag) for node, bag in bags.items()}
        self.guards = {(int(u), int(v)): frozenset(g) for (u, v), g in guards.items()}
        self._children: dict[int, list[int]] = {}
        for (u, v) in sorted(self.guards):
            self._children.setdefault(u, []).append(v)

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
        cov = set(self.bags.get(node, frozenset()))
        for arc, guard in self.guards.items():
            if node in arc:
                cov |= guard
        return frozenset(cov)

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
            bags = {int(nd["id"]): frozenset(nd["bag"]) for nd in doc["nodes"]}
            guards = {(int(a["from"]), int(a["to"])): frozenset(a["guard"]) for a in doc["arcs"]}
            return cls(int(doc["root"]), bags, guards)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed decomposition document: {exc}") from exc


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

    if structure_ok:
        for arc in sorted(dec.guards):
            S = dec.beyond(arc)
            breach = guard_breach(D, S, dec.guards[arc])
            if breach is not None:
                viols.append(Violation(
                    "guarded", f"arc {arc}: walk leaves the beyond-arc set and re-enters via {breach!r}"))
        if nice:
            for arc in sorted(dec.guards):
                guard = dec.guards[arc]
                territory = dec.beyond(arc) - guard
                if territory not in tarjan_sccs(D, guard):
                    viols.append(Violation(
                        "strong-component",
                        f"arc {arc}: beyond-arc set minus guards is not one strong component"))
            for node in dec.nodes():
                incident = frozenset().union(
                    *(g for arc, g in dec.guards.items() if node in arc)) if dec.guards else frozenset()
                for child in dec.children(node):
                    overlap = dec.bags.get(child, frozenset()) & incident
                    if overlap:
                        viols.append(Violation(
                            "child-guard",
                            f"bag of child {child} meets guards incident to {node} at {vsorted(overlap)!r}"))

    return ValidationReport(dec.width, tuple(viols))


def decompose(D: Digraph, k: int) -> ArborealDecomposition | LinkedSetCertificate:
    """Either a nice arboreal decomposition of width <= 3k-2 or a linked-set
    certificate T (|T| = 2k-1, no (T, k-1)-balanced separator of size
    <= k-1).  Leaf splitting follows canonical least choices throughout, so
    the output is deterministic."""
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
            assert len(T) == 2 * k - 1
            return LinkedSetCertificate(frozenset(T), k - 1, k - 1)
        free = vsorted(bags[r0] - result.separator)
        assert len(free) >= 2
        Z = frozenset(result.separator | {free[0]})
        for comp in scc(D, Z):
            if not comp & bags[r0]:
                continue  # its pieces all miss the split bag
            for piece in scc(D.induced(comp - T)):
                inside = piece & bags[r0]
                assert not inside or inside == piece  # guarded bags split cleanly
                if not inside:
                    continue
                node = len(bags)
                bags[node] = set(piece)
                children[node] = []
                children[r0].append(node)
                arc = (r0, node)
                parent[node] = arc
                guards[arc] = frozenset(Z | (comp & T))
                assert len(guards[arc]) <= 2 * k - 1
        bags[r0] &= Z
        assert bags[r0] and coverage_size(r0) <= 3 * k - 1
        next_measure = sum(len(bags[node]) for node in too_large_leaves())
        assert next_measure < measure
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
