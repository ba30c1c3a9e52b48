"""Terminal brambles, hitting paths, the split iteration, well-linked sets,
and path systems, checked against the explicit-enumeration oracle."""
import inspect
import os
import random
import subprocess
import sys

import pytest
from collections import Counter
from itertools import combinations

import dirtw
from dirtw import bramble
from dirtw.balsep import offending_components
from dirtw.digraph import FlowNetwork, _reach_set, scc, split_network
from dirtw import (
    Digraph,
    LinkedSetCertificate,
    Path,
    SplitState,
    TBramble,
    brute_force_balanced_separator,
    build_path_system,
    complement_order_at_most,
    decompose,
    extend_split,
    hitting_path,
    is_hitting_set,
    order_parameter,
    verify_well_linked,
    vsorted,
    well_linked_set,
)

from util import (
    bidirected_clique,
    bidirected_cycle,
    brute_bramble_elements,
    brute_bramble_hits,
    brute_bramble_order,
    mixed_id_digraph,
    path_digraph,
    random_digraph,
    reference_complement_order_at_most,
    reference_reach_set,
    reference_verify_well_linked,
    shuffled_digraph,
)


def two_triangles():
    D = Digraph()
    for x in ("a", "b"):
        D.add_bidirected(x + "1", x + "2")
        D.add_bidirected(x + "2", x + "3")
        D.add_bidirected(x + "3", x + "1")
    return D


# -- the implicit bramble ----------------------------------------------------

def test_bramble_validation():
    D = bidirected_clique(3)
    with pytest.raises(ValueError, match="not in digraph"):
        TBramble(D, {9}, 1)
    with pytest.raises(ValueError, match=">= 1"):
        TBramble(D, {1}, 0)


def test_hitting_set_on_clique():
    B = TBramble(bidirected_clique(5), {1, 2, 3, 4, 5}, 3)
    assert not is_hitting_set(B, frozenset())
    assert not is_hitting_set(B, {1, 2})
    assert is_hitting_set(B, {1, 2, 3})
    assert is_hitting_set(B, {2, 4, 5})


def test_hitting_set_agrees_with_enumeration():
    # the membership test never materializes the bramble; the oracle does
    rng = random.Random(0xB7A3B1E)
    for _ in range(12):
        n = rng.randint(3, 7)
        D = random_digraph(rng, n, rng.uniform(0.2, 0.7))
        T = {v for v in D.vertices() if rng.random() < 0.6}
        k = rng.randint(1, 3)
        if not T:
            continue
        B = TBramble(D, T, k)
        elements = brute_bramble_elements(D, T, k)
        for _ in range(20):
            X = {v for v in D.vertices() if rng.random() < 0.4}
            assert is_hitting_set(B, X) == brute_bramble_hits(elements, X)


def test_certified_instances_have_order_exactly_k():
    # (k-1,k-1)-linked T with |T| = 2k-1 forces minimum hitting sets of
    # size k; checked against explicit enumeration on small cliques
    for D, T, k in [
        (bidirected_clique(5), {1, 2, 3}, 2),
        (bidirected_clique(7), {1, 2, 3, 4, 5}, 3),
    ]:
        assert brute_force_balanced_separator(D, T, k - 1, k - 1).linked
        elements = brute_bramble_elements(D, T, k)
        assert brute_bramble_order(D, elements) == k


def test_certified_order_through_decompose_pipeline():
    D = bidirected_clique(9)
    cert = decompose(D, 3)
    assert isinstance(cert, LinkedSetCertificate)
    assert cert.T == frozenset({1, 2, 3, 4, 5})
    elements = brute_bramble_elements(D, cert.T, 3)
    assert brute_bramble_order(D, elements) == 3
    # the implicit order probes agree: cheap at 3, impossible at 2
    B = TBramble(D, cert.T, 3)
    assert complement_order_at_most(B, frozenset(), 2) == (False, None)
    ok, witness = complement_order_at_most(B, frozenset(), 3)
    assert ok and len(witness) <= 3
    assert brute_bramble_hits(elements, witness)


def test_split_order_inequality():
    # blocking X cannot cheapen both halves: restricted plus complement
    # order always covers the whole order
    rng = random.Random(0x5417)
    for _ in range(15):
        n = rng.randint(3, 6)
        D = random_digraph(rng, n, rng.uniform(0.3, 0.8))
        T = {v for v in D.vertices() if rng.random() < 0.7}
        if not T:
            continue
        k = rng.randint(1, 2)
        elements = brute_bramble_elements(D, T, k)
        whole = brute_bramble_order(D, elements)
        for _ in range(5):
            X = {v for v in D.vertices() if rng.random() < 0.3}
            meets = [e for e in elements if e & X]
            avoids = [e for e in elements if not e & X]
            assert (brute_bramble_order(D, meets)
                    + brute_bramble_order(D, avoids)) >= whole


# -- complement order --------------------------------------------------------

def test_complement_order_blocked_everything():
    B = TBramble(bidirected_clique(5), {1, 2, 3, 4, 5}, 3)
    assert complement_order_at_most(B, {1, 2, 3, 4, 5}, 0) == (True, frozenset())


def test_complement_order_negative_budget():
    B = TBramble(bidirected_clique(5), {1, 2, 3, 4, 5}, 3)
    assert complement_order_at_most(B, {1}, -1) == (False, None)


def test_complement_order_on_clique():
    D = bidirected_clique(5)
    B = TBramble(D, {1, 2, 3, 4, 5}, 3)
    assert complement_order_at_most(B, {1}, 1) == (False, None)
    ok, witness = complement_order_at_most(B, {1}, 2)
    assert ok and len(witness) <= 2
    elements = brute_bramble_elements(D, B.T, 3)
    assert brute_bramble_hits([e for e in elements if not e & {1}], witness)


def test_complement_order_matches_the_copying_reference():
    # X is banned inside the solver instead of copied away, and the
    # bramble's offending components are refined by X instead of found
    # again; one bramble asked about X's that grow, shrink and jump must
    # answer each as the copy does, whatever X holds
    rng = random.Random(0xC0FE)
    found = {"passed": 0, "failed": 0, "negative": 0, "blocks a terminal": 0, "shrinks": 0, "jumps": 0}
    for _ in range(300):
        D = mixed_id_digraph(rng, random_digraph(rng, rng.randint(1, 9), rng.uniform(0.1, 0.6)))
        vs = D.sorted_vertices()
        for _ in range(rng.randint(0, 3)):
            D.add_edge(rng.choice(vs), rng.choice(vs), rng.randint(1, 2))  # loops and parallel copies
        T = frozenset(rng.sample(vs, rng.randint(1, len(vs))))
        B = TBramble(D, T, rng.randint(1, 3))
        X: set = set()
        for step in range(4):
            if step == 0 or rng.random() < 0.3:
                X = {v for v in vs if rng.random() < 0.25} | {"ghost", (7, "x")}
                found["jumps"] += step > 0
            elif X and rng.random() < 0.5:
                X = set(rng.sample(sorted(X, key=repr), rng.randrange(len(X))))
                found["shrinks"] += 1
            else:
                X = X | {rng.choice(vs)}
            s = rng.randint(-1, 3)
            got = complement_order_at_most(B, X, s)
            assert got == reference_complement_order_at_most(B, X, s), (vs, vsorted(T), B.k, X, s)
            found["passed" if got[0] else "failed"] += 1
            found["negative"] += s < 0
            found["blocks a terminal"] += bool(X & T)
    assert min(found.values()) > 30, found


def test_complement_order_needs_no_offender_list():
    # the bramble finds its offending components itself: an empty list
    # handed in from outside once made K_6 look cheap to hit
    B = TBramble(bidirected_clique(6), {1, 2, 3, 4, 5}, 3)
    assert list(inspect.signature(complement_order_at_most).parameters) == ["B", "X", "s"]
    assert complement_order_at_most(B, set(), 1) == (False, None)
    assert B.offenders == [set(range(1, 7))]
    assert B.offenders is B.offenders  # found once per bramble


# -- hitting paths -----------------------------------------------------------

def test_hitting_path_empty_when_terminals_scattered():
    D = path_digraph("a", "b", "c")
    B = TBramble(D, {"a", "b", "c"}, 2)
    P = hitting_path(B)
    assert len(P) == 0
    assert is_hitting_set(B, P.vertices)


def test_hitting_path_on_clique():
    B = TBramble(bidirected_clique(5), {1, 2, 3, 4, 5}, 3)
    P = hitting_path(B)
    assert P.vertices == [1, 2, 3]
    assert is_hitting_set(B, P.vertices)


def test_hitting_path_on_cycle():
    D = bidirected_cycle(7)
    B = TBramble(D, {1, 2, 3, 4, 5}, 3)
    P = hitting_path(B)
    assert P.vertices == [1, 2, 3]
    assert is_hitting_set(B, P.vertices)
    # spread terminals force a longer walk but the contract is the same
    B2 = TBramble(bidirected_cycle(9), {1, 3, 4, 6, 8}, 3)
    P2 = hitting_path(B2)
    assert is_hitting_set(B2, P2.vertices)


def test_hitting_path_rejects_unlinked_terminals():
    D = two_triangles()
    B = TBramble(D, {"a1", "a2", "b1", "b2"}, 2)
    with pytest.raises(ValueError, match="not linked"):
        hitting_path(B)


# -- split iteration ---------------------------------------------------------

def test_order_parameter_values():
    assert [order_parameter(k) for k in (1, 2, 3, 4, 8)] == [1, 5, 7, 14, 44]
    with pytest.raises(ValueError):
        order_parameter(0)


def test_extend_split_traced():
    D = bidirected_clique(15)
    T = frozenset(range(1, 10))
    B = TBramble(D, T, 5)
    P = hitting_path(B)
    assert P.vertices == [1, 2, 3, 4, 5]
    state = SplitState.initial(B, 2, P, 5)
    assert state.level == 0

    state = extend_split(state)
    assert state.subpaths == ((1, 2),)
    assert state.anchors == (3,)
    assert state.residual == (4, 5)
    assert state.blocked == frozenset({1, 2, 3})

    state = extend_split(state)
    assert state.subpaths == ((1, 2), (4,))
    assert state.anchors == (3, 5)
    assert state.residual == ()
    assert state.level == 2

    with pytest.raises(ValueError, match="exhausted"):
        extend_split(state)


def test_extend_split_keeps_complement_expensive():
    # after i extensions the leftover bramble still needs more than
    # g - i*(k//2+1) - 2 hitters, which is what lets the next round start
    D = bidirected_clique(15)
    B = TBramble(D, frozenset(range(1, 10)), 5)
    state = SplitState.initial(B, 2, hitting_path(B), 5)
    for _ in range(2):
        state = extend_split(state)
        bound = state.g - state.level * (state.k // 2 + 1) - 2
        assert complement_order_at_most(B, state.blocked, bound) == (False, None)


def test_extend_split_rejects_cheap_start():
    D = bidirected_clique(15)
    B = TBramble(D, frozenset(range(1, 10)), 5)
    corrupt = SplitState(B, 2, 5, (), (), (6, 7), frozenset({1, 2, 3, 4, 5}))
    with pytest.raises(ValueError, match="entry condition"):
        extend_split(corrupt)


def test_bramble_questions_start_from_its_offending_components(monkeypatch):
    # every complement-order question refines the bramble's own offending
    # components by X; at every solver call the list must be the one a
    # whole-graph pass over D - X gives, sets and order alike, and the
    # bramble's list must come out of all of it unchanged
    asked, brambles, paths = [], [], []
    real_solve, real_path, real_extend = bramble._solve, bramble.hitting_path, bramble.extend_split

    def solve(D, T, r, s, X, offenders=None):
        asked.append((D, T, r, X, offenders, [frozenset(c) for c in offenders]))
        return real_solve(D, T, r, s, X, offenders)

    def path(B):
        paths.append(B)
        return real_path(B)

    def extend(state):
        brambles.append(state.bramble)
        return real_extend(state)

    monkeypatch.setattr(bramble, "_solve", solve)
    monkeypatch.setattr(bramble, "hitting_path", path)
    monkeypatch.setattr(bramble, "extend_split", extend)
    rng = random.Random(0x5B17)
    certified = 0
    for _ in range(12):
        k = rng.choice([2, 2, 3])
        g = order_parameter(k)
        n = rng.randint(3 * g, 3 * g + 4)
        D = random_digraph(rng, n, rng.uniform(0.75, 0.95))
        for _ in range(rng.randint(0, 3)):
            D.add_edge(rng.randint(1, n), rng.randint(1, n), rng.randint(1, 2))  # loops and parallel copies
        D = mixed_id_digraph(rng, D)
        cert = decompose(D, g)
        if isinstance(cert, LinkedSetCertificate):
            before = len(paths)
            bramble.well_linked_set(D, cert, k)
            certified += 1
            assert len(paths) == before + 1  # the public hitting path, once
    # split states over random brambles and vertex orders reach lists of
    # several components and lists that run empty
    for _ in range(150):
        D = mixed_id_digraph(rng, random_digraph(rng, rng.randint(4, 10), rng.uniform(0.2, 0.7)))
        vs = D.sorted_vertices()
        B = TBramble(D, frozenset(rng.sample(vs, rng.randint(2, len(vs)))), rng.randint(1, 3))
        state = SplitState(B, rng.randint(1, 3), rng.randint(1, 8), (), (),
                           tuple(rng.sample(vs, rng.randint(1, len(vs)))),
                           frozenset(rng.sample(vs, rng.randint(0, 2))))
        for _ in range(state.k):
            try:
                state = bramble.extend_split(state)
            except ValueError:
                break
    found = {"certified": certified, "brambles": len(set(map(id, brambles))), "several": 0, "none": 0}
    for D, T, r, X, offenders, snapshot in asked:
        assert offenders == offending_components(D, T, r, X)
        assert [frozenset(c) for c in offenders] == snapshot  # no refined set was mutated
        found["several"] += len(offenders) > 1
        found["none"] += not offenders
    for B in brambles:
        assert B.offenders == offending_components(B.D, B.T, B.k - 1)
    assert min(found.values()) >= 10, found


def test_well_linked_set_makes_one_whole_graph_offender_pass(monkeypatch):
    # the hitting path and the first split step both start from the
    # offending components of all of D, so one pass finds them for both
    calls = []
    real = bramble.offending_components

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(bramble, "offending_components", counted)
    for k in (2, 3):
        g = order_parameter(k)
        D = bidirected_clique(3 * g)
        cert = decompose(D, g)
        assert isinstance(cert, LinkedSetCertificate)
        calls.clear()
        path, anchors = well_linked_set(D, cert, k)
        assert len(calls) == 1
        assert path.vertices == hitting_path(TBramble(D, cert.T, g)).vertices
        assert len(anchors) == k and verify_well_linked(D, anchors)


# -- well-linked sets --------------------------------------------------------

def test_well_linked_singleton():
    D = bidirected_clique(3)
    cert = decompose(D, 1)
    assert isinstance(cert, LinkedSetCertificate)
    P, A = well_linked_set(D, cert, 1)
    assert A == {P.last} and len(A) == 1
    assert verify_well_linked(D, A)


def test_well_linked_pair_on_clique():
    D = bidirected_clique(12)
    T = frozenset(range(1, 10))
    assert brute_force_balanced_separator(D, T, 4, 4).linked
    cert = LinkedSetCertificate(T, 4, 4)
    P, A = well_linked_set(D, cert, 2)
    assert P.vertices == [1, 2, 3, 4, 5]
    assert A == frozenset({3, 5})
    assert A <= set(P.vertices)
    assert is_hitting_set(TBramble(D, T, 5), P.vertices)
    assert verify_well_linked(D, A)


def test_well_linked_rejects_mismatched_certificate():
    D = bidirected_clique(12)
    cert = LinkedSetCertificate(frozenset(range(1, 10)), 4, 4)
    with pytest.raises(ValueError, match="does not match"):
        well_linked_set(D, cert, 3)


def test_verify_well_linked_examples():
    line = path_digraph("a", "b", "c")
    assert verify_well_linked(line, {"a"})
    assert not verify_well_linked(line, {"a", "c"})  # no way back from c
    assert verify_well_linked(bidirected_cycle(5), {1, 2})
    assert verify_well_linked(bidirected_cycle(6), {2, 5})


def _well_linked_steps(monkeypatch) -> list:
    """Spy on the flows of the split network `verify_well_linked` builds:
    one entry per network, listing "pair" for a flow between one vertex's
    out-node and another's in-node and "sets" for a flow from a set X."""
    nets: list = []
    real_network, real_flow = bramble.split_network, FlowNetwork.flow

    def network(*args):
        net = real_network(*args)
        nets.append((net, []))
        return net

    def flow(net, X, Y, limit, cut=()):
        X = list(X)
        for mine, log in nets:
            if net is mine:
                log.append("pair" if X[0] >= net.n else "sets")
        return real_flow(net, X, Y, limit, cut)

    monkeypatch.setattr(bramble, "split_network", network)
    monkeypatch.setattr(FlowNetwork, "flow", flow)
    return nets


def test_verify_well_linked_matches_the_per_pair_flows(monkeypatch):
    # the walks settle the single pairs, the arcs or the pair flows settle
    # many sets, and the rest ask a flow per open pair X, Y; the reference
    # asks a fresh flow for every pair.  The second corpus, random hosts
    # with A in their largest strong component, reaches the per-set flows
    # with a well-linked A far more often than the first
    nets = _well_linked_steps(monkeypatch)
    rng = random.Random(47)
    kinds = dict.fromkeys(["well-linked, |A| >= 5", "refused by a flow", "A over several components",
                           "refused by the backward walk alone", "settled by the pair flows",
                           "well-linked after the per-set flows"], 0)
    for i in range(2300):
        if i < 2000:
            D = mixed_id_digraph(rng, shuffled_digraph(rng, rng.randint(1, 9)))
            vs = D.sorted_vertices()
            A = rng.sample(vs, rng.randint(0, min(6, len(vs))))
        else:
            D = mixed_id_digraph(rng, random_digraph(rng, rng.randint(10, 14), rng.uniform(0.2, 0.35)))
            big = vsorted(max(scc(D), key=len))
            A = rng.sample(big, min(len(big), rng.randint(4, 7)))
        nets.clear()
        verdict = verify_well_linked(D, A)
        steps = [step for _, log in nets for step in log]
        assert verdict == reference_verify_well_linked(D, A), (sorted(D.edge_classes(), key=repr), A)
        comps = {c for c in scc(D) if not c.isdisjoint(A)}
        if len(comps) > 1:
            kinds["A over several components"] += 1
            kinds["refused by the backward walk alone"] += set(A) <= _reach_set(D, A[:1], set(), True)
        elif verdict:
            kinds["well-linked, |A| >= 5"] += len(A) >= 5
            kinds["settled by the pair flows"] += "pair" in steps and "sets" not in steps
            kinds["well-linked after the per-set flows"] += "sets" in steps
        else:  # the walks pass A in one component, so a per-set flow refuses it
            assert "sets" in steps
            kinds["refused by a flow"] += 1
    assert min(kinds.values()) > 50, kinds


def test_pairs_the_rule_skips_are_linked():
    # the rule behind the pair flows: if each x in X reaches each y in Y by
    # an arc or by |X| internally disjoint paths (no set of fewer vertices
    # outside x and y separates them, found by brute force), then X and Y
    # are joined by |X| disjoint paths, as a fresh flow finds
    rng = random.Random(0x5EED)
    skipped = Counter()
    for _ in range(120):
        D = shuffled_digraph(rng, rng.randint(4, 9))
        vs = D.sorted_vertices()
        A = rng.sample(vs, rng.randint(4, len(vs)))
        t = len(A) // 2
        net = split_network(D, vs)
        # per ordered pair: t for an arc, else the least separator up to t
        paths = {(x, y): t if D.has_edge(x, y) else next(
            (size for size in range(t) for S in combinations([v for v in vs if v not in (x, y)], size)
             if y not in reference_reach_set(D, [x], set(S), True)), t)
            for x in A for y in A if x != y}
        for m in range(2, t + 1):
            for X in combinations(A, m):
                for Y in combinations([v for v in A if v not in X], m):
                    if all(paths[x, y] >= m for x in X for y in Y):
                        assert net.flow(net.ids(X), [net.n + y for y in net.ids(Y)], m) == m, (D, X, Y)
                        skipped["by arcs alone" if all(D.has_edge(x, y) for x in X for y in Y)
                                else "by paths"] += 1
    assert min(skipped.values()) > 1000, skipped


def test_a_complete_anchor_set_asks_no_flow(monkeypatch):
    # every ordered pair of A an arc: the check answers before it builds a
    # network
    nets = _well_linked_steps(monkeypatch)
    assert verify_well_linked(bidirected_clique(30), [1, 4, 9, 12, 17, 22, 25, 30])
    assert nets == []
    # an arc short of that, the pair flows run, and settle it
    D = bidirected_clique(30)
    E = Digraph()
    for u, v, c in D.edge_classes():
        if (u, v) != (1, 4):
            E.add_edge(u, v, c)
    assert verify_well_linked(E, [1, 4, 9, 12, 17, 22, 25, 30])
    assert [log for _, log in nets] == [["pair"]]


def test_verify_well_linked_input_contract():
    # the membership check comes before the walks, the early returns and
    # the split network, so a vertex outside D is refused whichever step
    # would settle A; repeats count once, the pair flows settle
    # [1, 2, 3, 4], and python -O strips no guard
    script = (
        "from dirtw import Digraph, verify_well_linked\n"
        "D = Digraph()\n"
        "for i in range(1, 6):\n"
        "    D.add_bidirected(i, i % 5 + 1)\n"
        "D.add_vertex('lone')\n"
        "for A in ([9], [1, 'ghost'], [1, 2, (9,)], [1, 2, 3, 0], [0, 1, 2, 3, 4, 5]):\n"
        "    try:\n"
        "        print(verify_well_linked(D, A))\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
        "for A in ([], ['lone'], [3], [1, 1], [1, 2, 1, 2], [1, 2, 3, 4, 1, 3], ['lone', 1, 'lone']):\n"
        "    print(verify_well_linked(D, A))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(dirtw.__file__)))
    for flags in ([], ["-O"]):
        proc = subprocess.run([sys.executable, *flags, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "terminal 9 not in digraph", "terminal 'ghost' not in digraph", "terminal (9,) not in digraph",
            "terminal 0 not in digraph", "terminal 0 not in digraph",
            "True", "True", "True", "True", "True", "True", "False"]
    D = bidirected_cycle(5)
    assert verify_well_linked(D, [1, 2, 3, 4, 1, 3]) == reference_verify_well_linked(D, [1, 2, 3, 4])


# -- path systems ------------------------------------------------------------

def test_path_system_counts_anchors():
    D = bidirected_clique(6)
    P = Path(D, [1, 2, 3, 4])
    with pytest.raises(ValueError, match="need exactly 4"):
        build_path_system(D, P, {1, 2, 3}, 1, 2)


def test_path_system_anchors_must_sit_on_path():
    D = bidirected_clique(6)
    P = Path(D, [1, 2, 3, 4])
    with pytest.raises(ValueError, match="lie on the path"):
        build_path_system(D, P, {1, 2, 5, 6}, 1, 2)


def test_path_system_single_spine():
    D = bidirected_clique(4)
    ps = build_path_system(D, Path(D, [1, 2]), {1, 2}, 1, 1)
    assert ps.linkages == {}
    assert ps.to_json() == {
        "spines": [[1, 2]],
        "anchors_in": [[1]],
        "anchors_out": [[2]],
        "linkages": {},
    }


def test_path_system_two_spines_single_links():
    D = bidirected_clique(6)
    ps = build_path_system(D, Path(D, [1, 2, 3, 4]), {1, 2, 3, 4}, 1, 2)
    assert [s.vertices for s in ps.spines] == [[1, 2], [3, 4]]
    assert ps.anchors_in == ((1,), (3,))
    assert ps.anchors_out == ((2,), (4,))
    assert [p.vertices for p in ps.linkages[(1, 2)]] == [[2, 3]]
    assert [p.vertices for p in ps.linkages[(2, 1)]] == [[4, 1]]
    js = ps.to_json()
    assert list(js) == ["spines", "anchors_in", "anchors_out", "linkages"]
    assert list(js["linkages"]) == ["1,2", "2,1"]


def test_path_system_width_two_linkages():
    D = bidirected_clique(10)
    A = set(range(1, 9))
    ps = build_path_system(D, Path(D, list(range(1, 9))), A, 2, 2)
    assert ps.size == 2
    assert ps.anchors_out[0] == (3, 4) and ps.anchors_in[1] == (5, 6)
    for (i, j), paths in ps.linkages.items():
        assert len(paths) == 2
        seen: set = set()
        for p in paths:
            assert p.first in ps.anchors_out[i - 1]
            assert p.last in ps.anchors_in[j - 1]
            assert not seen & set(p.vertices)
            seen |= set(p.vertices)


def test_path_system_needs_well_linked_anchors():
    D = path_digraph(1, 2, 3, 4)
    with pytest.raises(ValueError, match="not well-linked"):
        build_path_system(D, Path(D, [1, 2, 3, 4]), {1, 2, 3, 4}, 1, 2)


def test_result_guards_survive_optimized_mode():
    # python -O strips assert statements; the guards behind decompose,
    # well_linked_set and build_path_system are explicit errors
    script = (
        "from dirtw import LinkedSetCertificate, Path, arboreal, bramble\n"
        "from dirtw.balsep import BalancedSeparatorResult\n"
        "from dirtw.digraph import Digraph, MengerResult\n"
        "D = Digraph()\n"
        "for i in range(1, 13):\n"
        "    for j in range(i + 1, 13):\n"
        "        D.add_bidirected(i, j)\n"
        "def linked_without_guard():\n"
        "    arboreal.balanced_separator = lambda inst: BalancedSeparatorResult(None)\n"
        "    arboreal.decompose(D, 2)\n"
        "def no_anchor_planted():\n"
        "    bramble.extend_split = lambda state: state\n"
        "    bramble.well_linked_set(D, LinkedSetCertificate(frozenset(range(1, 10)), 4, 4), 2)\n"
        "def empty_linkage():\n"
        "    bramble.menger = lambda D, X, Y, r, net=None: MengerResult([], None)\n"
        "    bramble.build_path_system(D, Path(D, [1, 2, 3, 4]), {1, 2, 3, 4}, 1, 2)\n"
        "for check in [linked_without_guard, no_anchor_planted, empty_linkage]:\n"
        "    try:\n"
        "        check()\n"
        "    except RuntimeError as exc:\n"
        "        print(exc)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(dirtw.__file__)))
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "linked guard of size 0, not 3",
        "split gave 0 anchors, not 2 on the hitting path",
        "linkage from spine 1 to spine 2 has 0 paths, not 1"]
