"""Static checks on the package source, stdlib only."""
from __future__ import annotations

import ast
import inspect
import textwrap
from pathlib import Path

import dirtw
from util import reference_violating_path

PACKAGE = Path(dirtw.__file__).resolve().parent


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a package's __init__ uses its imports by re-exporting them
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda x: x[1])
            if name not in used]


def test_checker_flags_an_unused_import():
    assert _unused_imports("import os\nfrom sys import argv, path\nprint(argv)\n") == [
        "line 1: os", "line 2: path"]
    assert _unused_imports("from . import x\n__all__ = ['x']\n") == []


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    unused = {m.name: _unused_imports(m.read_text()) for m in modules}
    assert {name: lines for name, lines in unused.items() if lines} == {}


# the validator reaches the solver only through its public entry point,
# `balanced_separator`: the command line names nothing private of balsep.
# The import of cli.py from when the certificate check ran only the cheap
# layers of the solver, and two more ways to reach a private name
CHEAP_CHECK_CLI = '''
from .balsep import (
    BalancedSeparatorInstance,
    _cheap_layers,
    balanced_separator,
)
from . import balsep
from dirtw.balsep import _solve as solve


def _validate_certificate(D, js):
    return balsep._exact_search(D, js)
'''


def _private_balsep_names(source: str) -> list[str]:
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "balsep":
            out.extend(f"line {alias.lineno}: imports {alias.name}" for alias in node.names
                       if alias.name.startswith("_"))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "balsep" and node.attr.startswith("_")):
            out.append(f"line {node.lineno}: uses balsep.{node.attr}")
    return out


def test_checker_flags_the_cheap_layers_import():
    assert _private_balsep_names(CHEAP_CHECK_CLI) == [
        "line 4: imports _cheap_layers", "line 8: imports _solve", "line 12: uses balsep._exact_search"]
    assert _private_balsep_names("from .digraph import _parse_token\nfrom .balsep import balanced_separator\n") == []


def test_cli_reaches_the_solver_through_its_public_entry():
    source = (PACKAGE / "cli.py").read_text()
    assert "balanced_separator" in source
    assert _private_balsep_names(source) == []


# questions about D minus Z that take Z as a banned set instead of a copy
QUESTIONS = {"tarjan_sccs", "scc", "reachable", "guard_breach", "guard_screen",
             "offending_components", "is_balanced_separator"}


def _name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def _copies_in_questions(source: str) -> list[str]:
    out = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and _name(node.func) in QUESTIONS):
            continue
        inner = [sub for arg in [*node.args, *(kw.value for kw in node.keywords)]
                 for sub in ast.walk(arg)]
        if any(isinstance(sub, ast.Call) and _name(sub.func) == "minus" for sub in inner):
            out.append(f"line {node.lineno}: {_name(node.func)}")
    return out


def test_checker_flags_a_question_asked_of_a_copy():
    source = ("scc(D.minus(Z))\n"
              "x = digraph.tarjan_sccs(D.minus(Z) if Z else D)\n"
              "reachable(D, X, Y=D.minus(Z))\n"
              "scc(D, Z)\n"
              "rest = D.minus(Z)\n"
              "tarjan_sccs(rest)\n"
              "menger(D.minus(Z), X, Y, 1)\n")
    assert _copies_in_questions(source) == [
        "line 1: scc", "line 2: tarjan_sccs", "line 3: reachable"]


def test_no_question_about_d_minus_z_copies_d():
    modules = sorted(PACKAGE.glob("*.py"))
    found = {m.name: _copies_in_questions(m.read_text()) for m in modules}
    assert {name: lines for name, lines in found.items() if lines} == {}


# the linear cut's inner loops, the lex-least extraction and the
# important-cut oracle, with its questions over every ordering, run on the
# interned graph: no vertex-keyed sorting, no subgraph copies
HOT = {"_separates", "_lec_solve", "feasible", "_important", "_least_budget",
       "any_order", "first_order", "_fits", "_cuts", "_next_blocks"}
NAME_KEYED = {"vkey", "vsorted"}
COPIES = {"minus", "induced"}


def _name_keyed_work(source: str, functions: set[str]) -> list[str]:
    out = []
    for fn in ast.walk(ast.parse(source)):
        if not (isinstance(fn, ast.FunctionDef) and fn.name in functions):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and node.id in NAME_KEYED:
                out.append(f"line {node.lineno}: {fn.name} uses {node.id}")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in COPIES:
                out.append(f"line {node.lineno}: {fn.name} calls .{node.func.attr}")
    return out


def test_checker_flags_the_vertex_keyed_violating_path():
    source = textwrap.dedent(inspect.getsource(reference_violating_path))
    assert _name_keyed_work(source, {"reference_violating_path"}) == [
        "line 10: reference_violating_path uses vsorted",
        "line 14: reference_violating_path uses vsorted"]
    assert _name_keyed_work("def _lec_solve(D):\n    return sorted(D.minus(X), key=vkey)\n", HOT) == [
        "line 2: _lec_solve calls .minus", "line 2: _lec_solve uses vkey"]


def test_linear_cut_inner_loops_run_on_ints():
    source = (PACKAGE / "lincut.py").read_text()
    defined = {fn.name for fn in ast.walk(ast.parse(source)) if isinstance(fn, ast.FunctionDef)}
    assert HOT <= defined
    assert _name_keyed_work(source, HOT) == []


# subgraph copies: outside the graph's own methods only the brute-force cut
# oracle copies D
COPY_OWNERS = {("digraph.py", "Digraph"), ("lincut.py", "brute_force_vertex_cut")}

# excerpts of arboreal.decompose and bramble.complement_order_at_most from
# before they banned vertices instead of copying D
COPYING_EXCERPTS = '''
def decompose(D, k):
    for comp in scc(D, Z):
        for piece in scc(D.induced(comp - T)):
            bags[node] = set(piece)


def complement_order_at_most(B, X, s):
    Xset = frozenset(X)
    rest = B.D.minus(Xset)
    result = balanced_separator(BalancedSeparatorInstance(rest, B.T - Xset, B.k - 1, s))
'''


def _subgraph_copies(module: str, source: str) -> list[str]:
    out = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        if (module, owner) in COPY_OWNERS:
            continue
        out.extend(f"line {node.lineno}: {owner} calls .{node.func.attr}" for node in ast.walk(top)
                   if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                   and node.func.attr in COPIES)
    return out


def test_checker_flags_the_copying_decompose_and_complement_order():
    assert _subgraph_copies("arboreal.py", COPYING_EXCERPTS) == [
        "line 4: decompose calls .induced", "line 10: complement_order_at_most calls .minus"]
    # the narrower check on questions asked of a copy misses both
    assert _copies_in_questions(COPYING_EXCERPTS) == []
    for module in ("balsep.py", "bramble.py"):
        assert _subgraph_copies(module, "def _exact_search(D):\n    D.induced(C)\n") == [
            "line 2: _exact_search calls .induced"]
    assert _subgraph_copies("lincut.py", "def brute_force_vertex_cut(D):\n    D.minus(C)\n") == []
    assert _subgraph_copies("x.py", "G = D.minus(Z)\n") == ["line 1: None calls .minus"]


def test_only_the_graph_core_copies_subgraphs():
    modules = sorted(PACKAGE.glob("*.py"))
    found = {m.name: _subgraph_copies(m.name, m.read_text()) for m in modules}
    assert {name: lines for name, lines in found.items() if lines} == {}


# the split layout belongs to digraph: no other module names split nodes by
# tuples or imports the old source and sink nodes
SPLIT_TAGS = {"in", "out", "term"}
TERMINAL_NODES = {"_SRC", "_SNK"}

# excerpts of balsep.py from before the split layout moved into digraph
TUPLE_KEYED_BALSEP = '''
from .digraph import _SNK, _SRC, Digraph, Vertex, split_network, tarjan_sccs, vkey, vsorted


def _component_lb(D, comp, tc, r):
    sub = D.induced(comp)
    net = split_network(sub)
    fresh = dict(net.cap)
    for u in sub.sorted_vertices():
        for w in sub.sorted_vertices():
            net.cap = dict(fresh)
            f = net.max_flow(("out", u), ("in", w), limit=tc - r)
'''


def _split_tuple_nodes(source: str) -> list[str]:
    out = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Tuple) and len(node.elts) >= 2
                and isinstance(node.elts[0], ast.Constant) and node.elts[0].value in SPLIT_TAGS):
            out.append(f"line {node.lineno}: ({node.elts[0].value!r}, ...)")
        elif isinstance(node, ast.ImportFrom):
            out.extend(f"line {node.lineno}: imports {alias.name}" for alias in node.names
                       if alias.name in TERMINAL_NODES)
    return out


def test_checker_flags_the_tuple_keyed_split_nodes():
    assert _split_tuple_nodes(TUPLE_KEYED_BALSEP) == [
        "line 2: imports _SNK", "line 2: imports _SRC",
        "line 12: ('out', ...)", "line 12: ('in', ...)"]
    assert _split_tuple_nodes("red.add_edge(('term', v), ('in', v))\nx = ('in',)\n") == [
        "line 1: ('term', ...)", "line 1: ('in', ...)"]


def test_no_module_builds_tuple_keyed_split_nodes():
    modules = sorted(PACKAGE.glob("*.py"))
    found = {m.name: _split_tuple_nodes(m.read_text()) for m in modules}
    assert {name: lines for name, lines in found.items() if lines} == {}


# the flow networks belong to digraph, which owns their layout: no other
# module imports, names or constructs FlowNetwork or a subclass of it, or
# runs max_flow itself instead of asking a network through its one entry point
FLOW_OWNER = "digraph.py"

# excerpts of lincut._CutOracle.__init__ and balsep._component_lb from
# before the cut oracle and the connectivity bound ran on digraph's network
OWN_NETWORKS = '''
from .digraph import Digraph, FlowNetwork, Interned, Vertex, reachable, vsorted


class _CutOracle:
    def __init__(self, G):
        N = len(G.succ)
        net = FlowNetwork(N + 2)
        self.arc = {(u, w): net.add(u, w, c) for (u, w), c in G.costs.items()}
        self.into = [net.add(N, v, 0) for v in range(N)]


def _component_lb(D, comp, tc, r):
    G = Interned(D, comp)
    n = len(G.names)
    net = split_network(G)
    for u in range(n):
        for w in range(n):
            net.reset()
            f = net.max_flow(n + u, w, limit=bound)
'''


def _flow_classes(source: str) -> set[str]:
    """FlowNetwork and the classes a module derives from it."""
    names = {"FlowNetwork"}
    defined = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef)]
    while True:
        more = {c.name for c in defined if any(_name(base) in names for base in c.bases)} - names
        if not more:
            return names
        names |= more


def _foreign_flow_networks(source: str, classes: set[str]) -> list[str]:
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            out.extend(f"line {node.lineno}: imports {alias.name}" for alias in node.names
                       if alias.name in classes)
        elif isinstance(node, ast.Call) and _name(node.func) in classes:
            out.append(f"line {node.lineno}: constructs {_name(node.func)}")
        elif isinstance(node, ast.Call) and _name(node.func) == "max_flow":
            out.append(f"line {node.lineno}: calls .max_flow")
    return out


def test_checker_flags_the_oracles_own_network_and_the_direct_flow():
    assert _foreign_flow_networks(OWN_NETWORKS, {"FlowNetwork"}) == [
        "line 2: imports FlowNetwork", "line 8: constructs FlowNetwork", "line 20: calls .max_flow"]
    classes = _flow_classes("class A(FlowNetwork): pass\nclass B(A): pass\nclass C: pass\n")
    assert classes == {"FlowNetwork", "A", "B"}
    assert _foreign_flow_networks("from .digraph import B as N\nx = digraph.A(3, [])\n", classes) == [
        "line 1: imports B", "line 2: constructs A"]
    # building through digraph and asking its entry point is fine
    assert _foreign_flow_networks("net = split_network(G)\nnet.flow([u], [w], 2)\n", classes) == []


def test_only_digraph_builds_flow_networks():
    classes = _flow_classes((PACKAGE / FLOW_OWNER).read_text())
    modules = sorted(m for m in PACKAGE.glob("*.py") if m.name != FLOW_OWNER)
    assert modules
    found = {m.name: _foreign_flow_networks(m.read_text(), classes) for m in modules}
    assert {name: lines for name, lines in found.items() if lines} == {}


# every network is a split network: inside digraph, FlowNetwork is
# constructed by split_network alone, so every class a cut within budget can
# take is a split arc of cost one and the cut oracle prices a cut by its size
NETWORK_BUILDER = "split_network"

# digraph.edge_network, the builder of the edge-cut network, from before
# the edge cut was removed
EDGE_NETWORK = '''
def edge_network(D: Digraph, G: Interned) -> FlowNetwork:
    """The network of D's edge classes between G's vertices, on G's
    numbering: each non-loop class is an arc costing its multiplicity."""
    names, succ = G.names, D._succ
    tails, heads = [], []
    for u, row in enumerate(G.succ):
        tails += [u] * len(row)
        heads += row
    return FlowNetwork(len(names), tails, heads, [succ[names[u]][names[w]] for u, w in zip(tails, heads)])
'''


def _networks_built_elsewhere(source: str, classes: set[str]) -> list[str]:
    out = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        if owner == NETWORK_BUILDER:
            continue
        out.extend(f"line {node.lineno}: {owner} constructs {_name(node.func)}" for node in ast.walk(top)
                   if isinstance(node, ast.Call) and _name(node.func) in classes)
    return out


def test_checker_flags_the_edge_network_builder():
    assert _networks_built_elsewhere(EDGE_NETWORK, {"FlowNetwork"}) == [
        "line 10: edge_network constructs FlowNetwork"]
    assert _networks_built_elsewhere("def split_network(G):\n    return FlowNetwork(2, [], [], [])\n",
                                     {"FlowNetwork"}) == []
    assert _networks_built_elsewhere("class A:\n    def f(self):\n        return digraph.B(1)\n", {"B"}) == [
        "line 3: A constructs B"]


def test_only_split_network_builds_a_flow_network():
    source = (PACKAGE / FLOW_OWNER).read_text()
    classes = _flow_classes(source)
    assert NETWORK_BUILDER in {fn.name for fn in ast.parse(source).body if isinstance(fn, ast.FunctionDef)}
    # and every split network has one shape, built on a digraph and a vertex set alone
    assert list(inspect.signature(dirtw.digraph.split_network).parameters) == ["D", "vertices"]
    found = {m.name: _networks_built_elsewhere(m.read_text(), classes) for m in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


# the residual state of a network belongs to digraph too: a pass skips the
# reverse arcs at a node that is not marked, which is sound only while the
# network itself sets the capacities, the arc lists and the marks
NETWORK_STATE = {"cap", "adj", "fwd", "marked"}
MUTATORS = {"append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse"}

# an excerpt of lincut._CutOracle._important that writes to its network
# instead of asking it through `flow`
WRITING_IMPORTANT = '''
def _important(self, X, Y, removed, banned, F, budget, found):
    net = self.net
    adj, head, cap, sink = net.adj, net.head, net.cap, net.sink
    for a in removed:
        cap[a] = 0
    cap[e ^ 1] += 1
    net.marked[head[e]] = True
    net.adj[sink].append(e)
    net.cap = list(net.built)
    reaches = [cap[a ^ 1] > 0 for a in adj[sink]]
'''


def _network_writes(source: str) -> list[str]:
    """Writes to a network's state: assigning to, or through, an attribute
    named in NETWORK_STATE or a local name bound to one, and calling a
    mutating list method on them."""
    tree = ast.parse(source)
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            pairs = []
            for target in node.targets:
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                    pairs += zip(target.elts, node.value.elts)
                else:
                    pairs.append((target, node.value))
            aliases |= {t.id for t, v in pairs if isinstance(t, ast.Name)
                        and isinstance(v, ast.Attribute) and v.attr in NETWORK_STATE}

    def state(expr) -> str | None:
        while isinstance(expr, ast.Subscript):
            expr = expr.value
        if isinstance(expr, ast.Attribute) and expr.attr in NETWORK_STATE:
            return expr.attr
        return expr.id if isinstance(expr, ast.Name) and expr.id in aliases else None

    out = []
    for node in ast.walk(tree):
        targets = (node.targets if isinstance(node, (ast.Assign, ast.Delete))
                   else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else [])
        for target in targets:
            for t in target.elts if isinstance(target, ast.Tuple) else [target]:
                name = state(t) if isinstance(t, (ast.Subscript, ast.Attribute)) else None
                if name:
                    out.append(f"line {t.lineno}: writes {name}")
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATORS and state(node.func.value)):
            out.append(f"line {node.lineno}: {node.func.attr} on {state(node.func.value)}")
    return sorted(out, key=lambda line: int(line.split()[1][:-1]))


def test_checker_flags_writes_to_a_network():
    assert _network_writes(WRITING_IMPORTANT) == [
        "line 6: writes cap", "line 7: writes cap", "line 8: writes marked",
        "line 9: append on adj", "line 10: writes cap"]
    # the parent's tuple-keyed connectivity bound reset its network by hand
    assert _network_writes(TUPLE_KEYED_BALSEP) == ["line 11: writes cap"]
    # reading the residual network, as the oracle's furthest cut does, is fine
    assert _network_writes("cap = net.cap\nok = cap[a ^ 1] > 0 and net.adj[u][0]\ncap2 = cap\n") == []
    # the owner's own writes are seen: the flow sets capacities and marks
    owner = " ".join(_network_writes((PACKAGE / FLOW_OWNER).read_text()))
    assert "writes cap" in owner and "writes marked" in owner and "append on fwd" in owner


def test_only_digraph_writes_to_a_network():
    modules = sorted(m for m in PACKAGE.glob("*.py") if m.name != FLOW_OWNER)
    found = {m.name: _network_writes(m.read_text()) for m in modules}
    assert {name: lines for name, lines in found.items() if lines} == {}
    # the cut oracle's furthest minimum cut reads the network it asked
    lincut = (PACKAGE / "lincut.py").read_text()
    assert "cap[a ^ 1] > 0" in lincut and "net.cap" in lincut


# python -O strips assert statements, so no result may rest on one
# an excerpt of arboreal.decompose from before its guards became errors
ASSERTING_DECOMPOSE = '''
def split(D, T, k, bags, r0, result):
    if result.linked:
        assert len(T) == 2 * k - 1
        return T
    free = vsorted(bags[r0] - result.separator)
    assert len(free) >= 2
    for piece in scc(D.induced(bags[r0] - T)):
        inside = piece & bags[r0]
        assert not inside or inside == piece  # guarded bags split cleanly
'''


def _asserts(source: str) -> list[str]:
    return [f"line {line}" for line in sorted(node.lineno for node in ast.walk(ast.parse(source))
                                              if isinstance(node, ast.Assert))]


def test_checker_flags_the_asserting_decompose():
    assert _asserts(ASSERTING_DECOMPOSE) == ["line 4", "line 7", "line 10"]
    assert _asserts("if x:\n    raise RuntimeError('assert x')\n") == []


def test_no_module_uses_assert():
    modules = sorted(PACKAGE.glob("*.py"))
    found = {m.name: _asserts(m.read_text()) for m in modules}
    assert {name: lines for name, lines in found.items() if lines} == {}


# decompose splits one leaf at a time: its strong-component questions stay
# inside a vertex set (the bag's forward closure, a component minus the
# guard), never a pass over all of D - Z
SCC_CALLS = {"scc", "tarjan_sccs"}

# an excerpt of arboreal.decompose from before it split inside the bag's
# forward closure
WHOLE_GRAPH_DECOMPOSE = '''
def decompose(D, k):
    for comp in scc(D, Z):
        for piece in digraph.scc(D, within=comp - T):
            bags[node] = set(piece)
    rest = tarjan_sccs(D, Z, None)
'''


def _whole_graph_sccs(source: str, function: str) -> list[str]:
    out = []
    for fn in ast.walk(ast.parse(source)):
        if not (isinstance(fn, ast.FunctionDef) and fn.name == function):
            continue
        for node in ast.walk(fn):
            if (isinstance(node, ast.Call) and _name(node.func) in SCC_CALLS
                    and not any(kw.arg == "within" for kw in node.keywords)):
                out.append(f"line {node.lineno}: {_name(node.func)}")
    return out


def test_checker_flags_the_whole_graph_split():
    assert _whole_graph_sccs(WHOLE_GRAPH_DECOMPOSE, "decompose") == ["line 3: scc", "line 6: tarjan_sccs"]
    assert _whole_graph_sccs(WHOLE_GRAPH_DECOMPOSE, "validate") == []


def test_decompose_asks_every_strong_component_question_inside_a_set():
    source = (PACKAGE / "arboreal.py").read_text()
    assert "decompose" in {fn.name for fn in ast.walk(ast.parse(source)) if isinstance(fn, ast.FunctionDef)}
    assert _whole_graph_sccs(source, "decompose") == []


# a dataclass's equality covers all of its state: no field is hidden from
# it, so that two values that compare equal are interchangeable
# an excerpt of bramble.SplitState from when it carried a cache of the
# offending components that equality, hash and repr ignored
HIDDEN_FIELD_SPLIT_STATE = '''
from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class SplitState:
    bramble: TBramble
    k: int
    blocked: frozenset
    offenders: list | None = field(default=None, compare=False, hash=False, repr=False)
'''


def _fields_hidden_from_equality(source: str) -> list[str]:
    out = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if (isinstance(node, ast.AnnAssign) and isinstance(node.value, ast.Call)
                    and _name(node.value.func) == "field"
                    and any(kw.arg == "compare" and not (isinstance(kw.value, ast.Constant) and kw.value.value)
                            for kw in node.value.keywords)):
                out.append(f"line {node.lineno}: {cls.name}.{node.target.id}")
    return out


def test_checker_flags_the_hidden_split_state_field():
    assert _fields_hidden_from_equality(HIDDEN_FIELD_SPLIT_STATE) == ["line 10: SplitState.offenders"]
    assert _fields_hidden_from_equality(
        "class A:\n    x: int = dataclasses.field(compare=flag)\n"
        "    y: frozenset = field(default_factory=frozenset)\n    z: int = field(compare=True)\n") == [
        "line 2: A.x"]


def test_no_dataclass_field_is_hidden_from_equality():
    modules = sorted(PACKAGE.glob("*.py"))
    found = {m.name: _fields_hidden_from_equality(m.read_text()) for m in modules}
    assert {name: lines for name, lines in found.items() if lines} == {}
