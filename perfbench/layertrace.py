"""Outside-in layer tracing: wrap the package's functions from here, record
one span per call, and turn the spans into per-layer metrics.

A function is wrapped in every `dirtw` module namespace that binds it, so
calls through `from .digraph import tarjan_sccs` are seen as well as calls
inside the defining module.  `Digraph.induced` (which `minus` and `copy`
route through) and `FlowNetwork.max_flow` are wrapped on their classes.

Spans live in parallel arrays and are written out at the end.  Each span
records its op, name, parent span, start, end and one outcome value (the
size of a copied subgraph, whether a cut or a Linked verdict came back).
"""
from __future__ import annotations

import sys
import time
from array import array
from pathlib import Path

# function names per defining module; a span is named "<module>.<function>"
FUNCTIONS = {
    "digraph": ("tarjan_sccs", "guard_breach", "scc", "menger", "parse_edge_list"),
    "lincut": ("linear_vertex_cut",),
    "balsep": ("balanced_separator", "is_balanced_separator"),
    "arboreal": ("decompose", "validate"),
    "bramble": ("complement_order_at_most", "hitting_path", "extend_split",
                "well_linked_set", "verify_well_linked", "build_path_system"),
    "cli": ("main",),
}
METHODS = {"digraph.induced": ("Digraph", "induced"),
           "digraph.max_flow": ("FlowNetwork", "max_flow")}
OUTCOMES = {
    "digraph.induced": lambda sub: sub.n,
    "lincut.linear_vertex_cut": lambda cut: cut is not None,
    "balsep.balanced_separator": lambda res: res.linked,
}


class Tracer:
    """Span recorder; span name 0 is the op itself."""

    def __init__(self) -> None:
        self.names = ["op"] + [f"{mod}.{fn}" for mod, fns in FUNCTIONS.items() for fn in fns]
        self.names += list(METHODS)
        self.code = {name: i for i, name in enumerate(self.names)}
        self.op = array("l")
        self.name = array("h")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.value = array("q")
        self._stack: list[int] = []
        self._op_id = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, code: int) -> int:
        idx = len(self.start)
        self.op.append(self._op_id)
        self.name.append(code)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self.value.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def begin_op(self) -> None:
        self._op_id += 1
        self._open(0)

    def end_op(self) -> None:
        self._close(self._stack[0])

    def _wrap(self, name: str, fn):
        code, outcome = self.code[name], OUTCOMES.get(name)
        value = self.value

        def wrapper(*args, **kwargs):
            idx = self._open(code)
            try:
                result = fn(*args, **kwargs)
                if outcome is not None:
                    value[idx] = outcome(result)
                return result
            finally:
                self._close(idx)

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "dirtw" or key.startswith("dirtw.")]
        for mod, fns in FUNCTIONS.items():
            home = sys.modules[f"dirtw.{mod}"]
            for fn in fns:
                orig = getattr(home, fn)
                wrapper = self._wrap(f"{mod}.{fn}", orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._patches.append((m, attr, orig))
                            setattr(m, attr, wrapper)
        for name, (cls_name, meth) in METHODS.items():
            cls = getattr(sys.modules[f"dirtw.{name.split('.')[0]}"], cls_name)
            orig = cls.__dict__[meth]
            self._patches.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(name, orig))

    def uninstall(self) -> None:
        while self._patches:
            target, attr, orig = self._patches.pop()
            setattr(target, attr, orig)

    # -- reporting -------------------------------------------------------

    def layer_metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, each call count and time per traced pass."""
        n = len(self.start)
        names, parent, value = self.name, self.parent, self.value
        dur = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            if parent[i] >= 0:
                covered[parent[i]] += dur[i]
        k = len(self.names)
        calls, total, own, values = [0] * k, [0.0] * k, [0.0] * k, [0] * k
        for i in range(n):
            c = names[i]
            calls[c] += 1
            total[c] += dur[i]
            own[c] += dur[i] - covered[i]
            values[c] += value[i]

        code = self.code
        bs, lvc, dec = (code["balsep.balanced_separator"],
                        code["lincut.linear_vertex_cut"], code["arboreal.decompose"])
        with_lincut = set()
        for i in range(n):
            if names[i] == lvc:
                p = parent[i]
                while p >= 0 and names[p] != bs:
                    p = parent[p]
                if p >= 0:
                    with_lincut.add(p)
        splits = sum(1 for i in range(n)
                     if names[i] == bs and parent[i] >= 0 and names[parent[i]] == dec
                     and not value[i])

        def ratio(a, b):
            return a / b if b else 0.0

        per_pass = {"calls": (calls, "1/pass"), "self_s": (own, "s/pass"),
                    "total_s": (total, "s/pass")}
        out: dict[str, tuple[float, str]] = {}
        for name, kinds in [
            ("digraph.induced", ("calls", "self_s")),
            ("digraph.tarjan_sccs", ("calls", "self_s")),
            ("digraph.guard_breach", ("calls", "self_s")),
            ("digraph.scc", ("calls", "self_s")),
            ("digraph.max_flow", ("calls", "self_s")),
            ("digraph.menger", ("calls", "self_s")),
            ("digraph.parse_edge_list", ("calls", "self_s")),
            ("lincut.linear_vertex_cut", ("calls", "self_s")),
            ("balsep.balanced_separator", ("calls", "self_s", "total_s")),
            ("balsep.is_balanced_separator", ("calls", "self_s")),
            ("arboreal.decompose", ("calls", "self_s", "total_s")),
            ("arboreal.validate", ("calls", "self_s", "total_s")),
            ("bramble.complement_order_at_most", ("calls", "total_s")),
            ("bramble.hitting_path", ("total_s",)),
            ("bramble.extend_split", ("total_s",)),
            ("bramble.well_linked_set", ("total_s",)),
            ("bramble.verify_well_linked", ("total_s",)),
            ("bramble.build_path_system", ("total_s",)),
            ("cli.main", ("calls", "self_s")),
        ]:
            for kind in kinds:
                values_by_code, unit = per_pass[kind]
                out[f"{name}.{kind}"] = (values_by_code[code[name]] / passes, unit)
        out["digraph.induced.vertices_copied"] = (
            values[code["digraph.induced"]] / passes, "1/pass")
        out["lincut.linear_vertex_cut.cut_ratio"] = (
            ratio(values[lvc], calls[lvc]), "ratio")
        out["balsep.balanced_separator.linked_ratio"] = (
            ratio(values[bs], calls[bs]), "ratio")
        out["balsep.balanced_separator.lincut_ratio"] = (
            ratio(len(with_lincut), calls[bs]), "ratio")
        out["arboreal.decompose.splits_per_call"] = (ratio(splits, calls[dec]), "1/call")
        return out

    def write(self, path: Path) -> int:
        """Write every span as one tab-separated line; returns the count."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tspan\tparent\tname\tstart_s\tend_s\tvalue\n")
            for i in range(len(self.start)):
                fh.write(f"{self.op[i]}\t{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                         f"{self.start[i] - t0:.7f}\t{self.end[i] - t0:.7f}\t{self.value[i]}\n")
        return len(self.start)
