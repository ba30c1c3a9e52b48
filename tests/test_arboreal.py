"""Decomposition validator and construction loop: worked instances with
frozen shapes, tampering checks, the dichotomy property on random digraphs,
and haven queries."""
import json
import random
import sys
from collections import Counter

import pytest

from dirtw import (
    ArborealDecomposition,
    Digraph,
    LinkedSetCertificate,
    brute_force_balanced_separator,
    decompose,
    haven_eval,
    validate,
)

from dirtw import arboreal, balsep, digraph
from dirtw.cli import _gen_graph
from dirtw.digraph import scc, tarjan_sccs, vsorted
import util
from util import (
    bidirected_clique,
    bidirected_cycle,
    chorded_cycle,
    core_with_pendants,
    mixed_id_digraph,
    path_digraph,
    pendant_pairs_digraph,
    random_decomposition,
    random_digraph,
    reference_decompose,
    reference_validate,
    shuffled_digraph,
    tampered_decompositions,
)


def drawn_decomposition():
    # the hand decomposition of the pendant-pairs digraph: a chain
    # {a} -> {b,c} with guard {b,c}, then leaves {d,e} (guard {b}) and
    # {f,g} (guard {c})
    return ArborealDecomposition(
        0,
        {0: {"a"}, 1: {"b", "c"}, 2: {"d", "e"}, 3: {"f", "g"}},
        {(0, 1): {"b", "c"}, (1, 2): {"b"}, (1, 3): {"c"}},
    )


# ---------------------------------------------------------------- validator


def test_trivial_decomposition_is_valid_and_nice():
    D = pendant_pairs_digraph()
    dec = ArborealDecomposition(0, {0: set(D.vertices())}, {})
    report = validate(D, dec, nice=True)
    assert report.ok
    assert report.width == D.n - 1


def test_drawn_decomposition_valid_width_two():
    report = validate(pendant_pairs_digraph(), drawn_decomposition())
    assert report.ok
    assert report.width == 2


def test_drawn_decomposition_is_not_nice():
    # beyond the first arc, {d,e,f,g} splits into two strong components of
    # D minus {b,c}; and the bag {b,c} equals its own in-guard
    report = validate(pendant_pairs_digraph(), drawn_decomposition(), nice=True)
    assert not report.ok
    assert report.width == 2
    clauses = sorted(v.clause for v in report.violations)
    assert clauses == ["child-guard", "strong-component"]
    assert "(0, 1)" in report.violations[0].detail or "(0, 1)" in report.violations[1].detail


def test_weakened_guard_is_caught_with_witness():
    dec = drawn_decomposition()
    tampered = ArborealDecomposition(0, dec.bags, {**dec.guards, (0, 1): frozenset({"b"})})
    report = validate(pendant_pairs_digraph(), tampered)
    assert not report.ok
    guarded = [v for v in report.violations if v.clause == "guarded"]
    assert len(guarded) == 1
    assert "'a'" in guarded[0].detail  # the walk escapes through a


def test_partition_violations_are_reported():
    D = path_digraph(1, 2, 3)
    dec = ArborealDecomposition(0, {0: {1, 2}, 1: {2}}, {(0, 1): frozenset()})
    report = validate(D, dec)
    clauses = {v.clause for v in report.violations}
    assert "partition" in clauses  # 2 twice, 3 nowhere
    details = " | ".join(v.detail for v in report.violations)
    assert "in bags" in details and "in no bag" in details


def test_structural_violations_are_reported():
    D = path_digraph(1, 2)
    orphan = ArborealDecomposition(0, {0: {1}, 1: {2}}, {})
    assert any(v.clause == "arborescence" for v in validate(D, orphan).violations)
    two_parents = ArborealDecomposition(
        0, {0: {1}, 1: {2}, 2: set()}, {(0, 1): frozenset(), (0, 2): frozenset(), (1, 2): frozenset()})
    assert any("in-degree" in v.detail for v in validate(D, two_parents).violations)


def strong_component_arcs(report) -> set[str]:
    return {v.detail.split(":")[0] for v in report.violations if v.clause == "strong-component"}


def tarjan_strong_component_arcs(D, dec) -> set[str]:
    # the clause by definition: the territory is one of the strong
    # components of D minus the guard
    return {f"arc {arc}" for arc, guard in dec.guards.items()
            if set(dec.beyond(arc) - guard) not in tarjan_sccs(D, guard)}


def test_strong_component_clause_on_corrupted_territories():
    D = bidirected_cycle(6)  # 1..6
    cases = {
        # D minus {1, 4} falls into {2, 3} and {5, 6}
        "two-components": ArborealDecomposition(
            0, {0: {1, 4}, 1: {2, 3, 5, 6}}, {(0, 1): frozenset({1, 4})}),
        # the least territory vertex 0 and the vertex 9 are not in D
        "id-not-in-D": ArborealDecomposition(
            0, {0: {1, 4, 5, 6}, 1: {0, 2, 3}, 2: {9}}, {(0, 1): frozenset({1, 4}), (1, 2): frozenset({2})}),
        # the guard swallows the whole beyond-arc set
        "empty": ArborealDecomposition(
            0, {0: {1, 2, 3, 4}, 1: {5, 6}}, {(0, 1): frozenset({5, 6})}),
        # {5, 6} is strongly connected inside, but the guard {4} leaves 1 on
        # the closed walk 6 -> 1 -> 6
        "breached": ArborealDecomposition(
            0, {0: {1, 2, 3, 4}, 1: {5, 6}}, {(0, 1): frozenset({4})}),
    }
    expected = {"two-components": {"arc (0, 1)"}, "id-not-in-D": {"arc (0, 1)", "arc (1, 2)"},
                "empty": {"arc (0, 1)"}, "breached": {"arc (0, 1)"}}
    for name, dec in cases.items():
        report = validate(D, dec, nice=True)
        assert strong_component_arcs(report) == tarjan_strong_component_arcs(D, dec) == expected[name], name
    breached = validate(D, cases["breached"], nice=True).violations
    assert [v.clause for v in breached] == ["guarded", "strong-component"]
    assert breached[0].detail.endswith("re-enters via 1")


def test_strong_component_clause_matches_tarjan_on_tampered_guards():
    rng = random.Random(8)
    flagged = clean = 0
    for _ in range(40):
        D = random_digraph(rng, rng.randint(4, 10), 0.3)
        dec = decompose(D, 2)
        if isinstance(dec, LinkedSetCertificate) or not dec.guards:
            continue
        for _ in range(4):
            guards = {arc: frozenset(rng.sample(D.sorted_vertices(), rng.randint(0, 3)))
                      if rng.random() < 0.5 else g for arc, g in dec.guards.items()}
            tampered = ArborealDecomposition(dec.root, dec.bags, guards)
            got = strong_component_arcs(validate(D, tampered, nice=True))
            assert got == tarjan_strong_component_arcs(D, tampered)
            flagged += bool(got)
            clean += not got
    assert flagged > 10 and clean > 10


def test_reports_equal_the_per_arc_reference_validator():
    rng = random.Random(12)
    decs = 0
    clauses = dict.fromkeys(["guarded", "strong-component", "child-guard", "partition", "arborescence"], 0)
    while decs < 2000:
        D = mixed_id_digraph(rng, shuffled_digraph(rng, rng.randint(1, 10)))
        for dec in tampered_decompositions(rng, D):
            decs += 1
            for nice in (False, True):
                report = validate(D, dec, nice)
                assert report == reference_validate(D, dec, nice)
                for clause in {v.clause for v in report.violations}:
                    clauses[clause] += 1
    assert min(clauses.values()) > 50, clauses


CORRUPTIONS = ["move", "duplicate", "foreign", "drop guard", "add guard", "replace guard"]


def corrupted(rng: random.Random, D, dec: ArborealDecomposition, kind: str) -> ArborealDecomposition:
    """dec after one corruption: a bag vertex moved to another bag, copied
    into a second bag or joined by an id outside D, or a guard vertex
    dropped from an arc's guard, added to it or replaced in it."""
    bags = {node: set(bag) for node, bag in dec.bags.items()}
    guards = dict(dec.guards)
    vs = D.sorted_vertices()
    nodes = sorted(bags)
    if kind in ("move", "duplicate"):
        v = rng.choice(vs)
        if kind == "move":
            for bag in bags.values():
                bag.discard(v)
        bags[rng.choice(nodes)].add(v)
    elif kind == "foreign":
        bags[rng.choice(nodes)].add(rng.choice(["ghost", -99, ("g", 1)]))
    elif guards:
        arc = rng.choice(sorted(guards))
        guard = set(guards[arc])
        if kind != "add guard" and guard:
            guard.discard(rng.choice(vsorted(guard)))
        if kind != "drop guard":
            guard.add(rng.choice(vs))
        guards[arc] = frozenset(guard)
    return ArborealDecomposition(dec.root, bags, guards)


def test_reports_equal_the_per_arc_screen_on_deep_and_wide_trees():
    # decompose builds path-like trees on bicycles, where every arc is
    # screened alone over contracted child subtrees, and stars on dags,
    # whose sibling arcs share a guard; random graphs give both.  Each tree,
    # as built and corrupted, gets the report of the per-arc screen
    rng = random.Random(18)
    decs = 0
    kinds = dict.fromkeys(CORRUPTIONS, 0)
    clauses = dict.fromkeys(["guarded", "strong-component", "child-guard", "partition"], 0)
    while decs < 2000:
        family = rng.choice(["random", "bicycle", "dag"])
        n = rng.randint(3, 40)
        D = _gen_graph(family, n, rng.randrange(10**6), rng.randint(n, 3 * n) if family == "random" else None)
        if rng.random() < 0.3:
            D = mixed_id_digraph(rng, D)
        built = [random_decomposition(rng, D)]
        for k in (1, 2, 3):
            dec = decompose(D, k)
            if isinstance(dec, ArborealDecomposition):
                built.append(dec)
        for dec in built:
            for kind in [None] + rng.sample(CORRUPTIONS, 3):
                tampered = dec if kind is None else corrupted(rng, D, dec, kind)
                decs += 1
                for nice in (False, True):
                    report = validate(D, tampered, nice)
                    assert report == reference_validate(D, tampered, nice), (family, kind, nice)
                    for clause in {v.clause for v in report.violations}:
                        clauses[clause] += 1
                if kind is not None:
                    kinds[kind] += 1
    assert min(kinds.values()) > 150 and min(clauses.values()) > 50, (kinds, clauses)


def test_validate_without_nice_runs_no_strong_test(monkeypatch):
    # bidirected cycle 30 at k = 2 decomposes into a path-like tree, one
    # guard per arc, so every arc is screened alone.  decompose asks its
    # strong-component questions of strongly connected sets only, which
    # tarjan_sccs answers before a pass; with nice, validate contracts each
    # child subtree and walks no beyond set, and without it asks nothing
    D = bidirected_cycle(30)
    strong_calls, passes = [], []
    real_strong, real_tarjan = digraph._strongly_connected, digraph.tarjan_sccs

    def strong(*args):
        strong_calls.append(args)
        return real_strong(*args)

    def tarjan(G, banned=(), within=None):
        passes.append(within is None or bool(banned) or not real_strong(G, within))
        return real_tarjan(G, banned, within)
    monkeypatch.setattr(digraph, "tarjan_sccs", tarjan)
    monkeypatch.setattr(balsep, "tarjan_sccs", tarjan)
    dec = decompose(D, 2)
    assert len(dec.guards) > 10 and not any(passes)
    for module in (digraph, arboreal):
        monkeypatch.setattr(module, "_strongly_connected", strong)
    assert validate(D, dec, nice=True).ok
    assert strong_calls == []
    assert validate(D, dec).ok
    assert strong_calls == []


def test_validate_screens_each_sibling_group_with_one_pass(monkeypatch):
    # dag 150 at k = 2 decomposes into one split: 149 sibling arcs sharing
    # one guard, so one Tarjan pass and no per-arc walk
    D = _gen_graph("dag", 150, 1, None)
    dec = decompose(D, 2)
    assert len(dec.guards) == 149 and len(set(dec.guards.values())) == 1
    calls = {"tarjan_sccs": 0, "guard_breach": 0}

    def spy(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    spy(digraph, "tarjan_sccs")
    spy(arboreal, "guard_breach")
    assert validate(D, dec, nice=True).ok
    assert calls == {"tarjan_sccs": 1, "guard_breach": 0}


# ------------------------------------------------------------ construction


def test_small_graph_stays_one_node():
    D = bidirected_clique(5)
    dec = decompose(D, 2)  # n = 5 <= 3k-1
    assert isinstance(dec, ArborealDecomposition)
    assert dec.nodes() == [0]
    assert validate(D, dec, nice=True).ok
    assert dec.width == 4


def test_dag_k1_gives_nice_width_at_most_one():
    D = path_digraph("a", "b", "c")
    dec = decompose(D, 1)
    assert isinstance(dec, ArborealDecomposition)
    report = validate(D, dec, nice=True)
    assert report.ok
    assert report.width <= 1


def test_random_dags_k1_all_nice():
    rng = random.Random(0xDA6)
    for _ in range(25):
        n = rng.randint(2, 30)
        D = Digraph()
        for v in range(n):
            D.add_vertex(v)
        for u in range(n):
            for w in range(u + 1, n):
                if rng.random() < 0.15:
                    D.add_edge(u, w)
        dec = decompose(D, 1)
        assert isinstance(dec, ArborealDecomposition)
        report = validate(D, dec, nice=True)
        assert report.ok and report.width <= 1


@pytest.mark.parametrize("k", [1, 2, 3])
def test_bidirected_clique_three_k_forces_certificate(k):
    D = bidirected_clique(3 * k)
    cert = decompose(D, k)
    assert isinstance(cert, LinkedSetCertificate)
    assert len(cert.T) == 2 * k - 1
    assert cert.k == cert.r == k - 1
    if D.n <= 10:
        assert brute_force_balanced_separator(D, cert.T, k - 1, k - 1).linked


def test_six_clique_certificate_shape():
    cert = decompose(bidirected_clique(6), 2)
    assert isinstance(cert, LinkedSetCertificate)
    assert cert.T == frozenset({1, 2, 3})


def test_pendant_pairs_k2_decomposes_nicely():
    D = pendant_pairs_digraph()
    dec = decompose(D, 2)
    assert isinstance(dec, ArborealDecomposition)
    report = validate(D, dec, nice=True)
    assert report.ok
    assert report.width <= 4


def test_parameter_validation():
    with pytest.raises(ValueError):
        decompose(path_digraph(1, 2), 0)
    with pytest.raises(ValueError):
        decompose(path_digraph(1, 2), -1)
    with pytest.raises(ValueError):
        decompose(Digraph(), 3)


def test_decompose_is_deterministic():
    D = pendant_pairs_digraph()
    a = decompose(D, 2)
    b = decompose(D, 2)
    assert a.to_json() == b.to_json()


def test_dichotomy_on_random_digraphs():
    rng = random.Random(0x0DEC)
    outcomes = {"dec": 0, "cert": 0}
    for _ in range(60):
        n = rng.randint(1, 12)
        D = random_digraph(rng, n, rng.uniform(0.05, 0.6))
        k = rng.randint(1, 4)
        out = decompose(D, k)
        if isinstance(out, ArborealDecomposition):
            report = validate(D, out, nice=True)
            assert report.ok, report.violations
            assert report.width <= 3 * k - 2
            outcomes["dec"] += 1
        else:
            assert len(out.T) == 2 * k - 1
            assert brute_force_balanced_separator(D, out.T, k - 1, k - 1).linked
            outcomes["cert"] += 1
    assert outcomes["dec"] and outcomes["cert"]  # both arms exercised


def test_decompose_equals_the_whole_graph_split_reference():
    rng = random.Random(0x5C1)
    outcomes = {"dec": 0, "cert": 0}
    for i in range(2000):
        D = shuffled_digraph(rng, rng.randint(1, 12)) if i % 2 else \
            core_with_pendants(rng, rng.randint(4, 8), rng.randint(1, 14))
        D = mixed_id_digraph(rng, D)
        k = rng.randint(1, 3)
        out = decompose(D, k)
        want = reference_decompose(D, k)
        if isinstance(want, LinkedSetCertificate):
            assert out == want
            outcomes["cert"] += 1
        else:
            assert isinstance(out, ArborealDecomposition) and out.to_json() == want.to_json()
            outcomes["dec"] += 1
    assert min(outcomes.values()) >= 100, outcomes


def test_only_the_callers_that_profit_test_strong_connectivity_first(monkeypatch):
    # a closure whose forward walk missed a bag vertex cannot be strongly
    # connected, so the split sends it to Tarjan without two more walks;
    # decompose's pieces and the offender refinement often are one piece
    callers = []
    real = digraph._strongly_connected

    def spy(D, X):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(D, X)
    for module in (digraph, arboreal, balsep):
        monkeypatch.setattr(module, "_strongly_connected", spy)
    D = path_digraph(1, 2, 3)
    D.add_edge(3, 2)
    D.add_vertex(4)
    for bag in ({1, 2}, {2, 4}, {1, 3, 4}, {2, 3}):
        comps = arboreal._split_components(D, bag, frozenset())
        closure = set().union(*comps)
        assert comps == scc(D, within=closure)
        assert bag <= closure
    assert callers == []
    balsep._refine_offenders(D, frozenset({1, 2, 3}), 1, [{2, 3}], [1])
    assert callers == []  # the component misses the deleted vertex
    K = bidirected_clique(6)
    assert balsep._refine_offenders(K, frozenset(range(1, 7)), 2, [set(range(1, 7))], [6]) == [set(range(1, 6))]
    assert callers == ["_refine_offenders"]
    decompose(bidirected_cycle(30), 2)
    assert set(callers) == {"_refine_offenders", "decompose"}


def test_decompose_splits_inside_the_forward_closure(monkeypatch):
    # on a path-like tree a whole-graph pass per split is O(n^2) in all:
    # every strong-component question of the split stays inside the closure
    whole = []

    def spy(module):
        real = module.tarjan_sccs

        def counted(D, banned=(), within=None):
            if within is None:
                whole.append(module.__name__)
            return real(D, banned, within)
        monkeypatch.setattr(module, "tarjan_sccs", counted)

    spy(digraph)
    spy(balsep)
    D = bidirected_cycle(150)
    dec = decompose(D, 2)
    assert isinstance(dec, ArborealDecomposition) and len(dec.guards) > 100
    assert whole == []


def test_decompose_peels_closed_bags_as_the_whole_graph_split_reference(monkeypatch):
    # path-like trees: most bags a split is handed as closed (strongly
    # connected, every arc leaving them entering their guard) peel W = Z & bag
    # off without a walk; the rest go through the walking split, turned down
    # by the exit test or by the connectivity test
    seen = Counter()
    real = arboreal._split_components

    def spy(D, bag, Z, T=None):
        out = real(D, bag, Z, T)
        if T is None:
            return out
        assert scc(D, within=set(bag)) == [frozenset(bag)]
        assert all(w in bag or w in T for v in bag for w in D._succ[v])
        rest = frozenset(bag - Z)
        if any(w in T and w not in Z for v in rest for w in D._succ[v]):
            seen["refused: exit"] += 1
        elif len(scc(D, within=set(rest))) > 1:
            seen["refused: connectivity"] += 1
        else:
            seen["taken"] += 1
            assert out == [rest]
        return out
    monkeypatch.setattr(arboreal, "_split_components", spy)
    # the reference asks of each host the separator queries decompose asked;
    # a memo solves each once, so the test's time goes to the splits
    solved = {}
    solve = arboreal.balanced_separator

    def memo(inst):
        key = (id(inst.D), inst.T, inst.r, inst.s)
        if key not in solved:
            solved[key] = solve(inst)
        return solved[key]
    monkeypatch.setattr(arboreal, "balanced_separator", memo)
    monkeypatch.setattr(util, "balanced_separator", memo)
    rng = random.Random(0x9EE1)
    for i in range(3000):
        solved.clear()
        if i % 3 != 1:
            D = chorded_cycle(rng, rng.randint(3, 40))
        else:
            D = shuffled_digraph(rng, rng.randint(1, 12)) if i % 2 else \
                core_with_pendants(rng, rng.randint(4, 8), rng.randint(1, 14))
        if rng.random() < 0.3:
            D = mixed_id_digraph(rng, D)
        k = rng.randint(1, 3)
        out = decompose(D, k)
        want = reference_decompose(D, k)
        if isinstance(want, LinkedSetCertificate):
            assert out == want
            seen["cert"] += 1
        else:
            assert isinstance(out, ArborealDecomposition) and out.to_json() == want.to_json()
            seen["dec"] += 1
    assert min(seen.values()) >= 100 and len(seen) == 5, seen


def test_rest_strong_connectivity_is_decided_by_walks_from_one_out_neighbour():
    # B strongly connected, W a set of 1-3 of its vertices, B - W not empty:
    # the walks from q0 answer as the two whole walks over B - W do
    rng = random.Random(0x90)
    seen = Counter()
    while min(seen.values(), default=0) < 200 or len(seen) < 4:
        D = shuffled_digraph(rng, rng.randint(2, 14))
        if rng.random() < 0.3:
            D = mixed_id_digraph(rng, D)
        within = set(rng.sample(D.sorted_vertices(), rng.randint(2, D.n)))
        B = max(scc(D, within=within), key=len)
        if len(B) < 2:
            continue
        W = frozenset(rng.sample(vsorted(B), rng.randint(1, min(3, len(B) - 1))))
        want = digraph._strongly_connected(D, B - W)
        assert arboreal._rest_strongly_connected(D, W, B - W) == want
        seen[(want, len(W) >= 2)] += 1
    D = path_digraph(1, 2, 3)  # W = {1} has no in-neighbour in the rest
    D.add_edge(3, 2)
    with pytest.raises(RuntimeError):
        arboreal._rest_strongly_connected(D, frozenset({1}), frozenset({2, 3}))


def test_decompose_walks_a_path_like_tree_a_fixed_number_of_times(monkeypatch):
    # every split of bidirected_cycle(n) but the first three peels a vertex
    # off a closed bag, which takes no forward-closure walk and no Tarjan pass
    calls = Counter()

    def spy(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    for module in (arboreal, balsep, digraph):
        for name in ("_reach_set", "tarjan_sccs"):
            if hasattr(module, name):
                spy(module, name)
    counts = []
    for n in (100, 400):
        calls.clear()
        dec = decompose(bidirected_cycle(n), 2)
        assert isinstance(dec, ArborealDecomposition) and len(dec.guards) == n - 3
        counts.append(dict(calls))
    assert counts[0] == counts[1], counts


def test_decomposition_json_round_trip():
    D = pendant_pairs_digraph()
    dec = decompose(D, 2)
    doc = dec.to_json()
    assert list(doc) == ["nodes", "arcs", "root"]
    again = ArborealDecomposition.from_json(json.loads(json.dumps(doc)))
    assert again.to_json() == doc
    assert validate(D, again, nice=True).ok


def test_certificate_json_round_trip():
    cert = LinkedSetCertificate(frozenset({"x", "y", "z"}), 1, 1)
    doc = cert.to_json()
    assert doc == {"T": ["x", "y", "z"], "k": 1, "r": 1}
    assert LinkedSetCertificate.from_json(json.loads(json.dumps(doc))) == cert
    with pytest.raises(ValueError):
        LinkedSetCertificate.from_json({"k": 1})


# -------------------------------------------------------------------- haven


def test_haven_whole_graph_at_empty_query():
    D = bidirected_clique(4)
    cert = LinkedSetCertificate(frozenset({1, 2, 3}), 1, 1)
    assert haven_eval(D, cert, set()) == frozenset({1, 2, 3, 4})


def test_haven_on_five_clique():
    D = bidirected_clique(5)
    cert = LinkedSetCertificate(frozenset(D.vertices()), 2, 2)
    assert haven_eval(D, cert, {1, 2}) == frozenset({3, 4, 5})


def test_haven_monotone_under_query_growth():
    D = bidirected_clique(5)
    cert = LinkedSetCertificate(frozenset(D.vertices()), 2, 2)
    assert haven_eval(D, cert, {1, 2}) <= haven_eval(D, cert, {1})


def test_haven_budget_enforced():
    D = bidirected_clique(5)
    cert = LinkedSetCertificate(frozenset(D.vertices()), 2, 2)
    with pytest.raises(ValueError):
        haven_eval(D, cert, {1, 2, 3})


def test_haven_rejects_corrupt_certificates():
    D = path_digraph("a", "b", "c")
    thin = LinkedSetCertificate(frozenset({"a", "b", "c"}), 1, 1)
    with pytest.raises(ValueError):
        haven_eval(D, thin, set())  # no component reaches r+1 terminals
    two_triangles = Digraph()
    for base in (0, 3):
        for i in range(3):
            two_triangles.add_bidirected(base + i, base + (i + 1) % 3)
    wide = LinkedSetCertificate(frozenset(range(6)), 1, 2)
    with pytest.raises(ValueError):
        haven_eval(two_triangles, wide, set())  # two qualifying components


def test_haven_nested_queries_on_pipeline_certificate():
    D = bidirected_clique(9)
    cert = decompose(D, 3)
    assert isinstance(cert, LinkedSetCertificate)
    rng = random.Random(0xA7EA)
    universe = sorted(D.vertices())
    for _ in range(100):
        big = rng.sample(universe, rng.randint(0, cert.k))
        small = rng.sample(big, rng.randint(0, len(big)))
        assert haven_eval(D, cert, set(big)) <= haven_eval(D, cert, set(small))
