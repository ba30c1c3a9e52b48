"""Command-line surface: decompose graphs, run balanced separators, extract
well-linked sets, validate emitted artifacts, generate instances, and bench
the solver against the brute-force oracles.

Exit codes are a stable contract:

    0   primary success (decomposition / separator / valid artifact)
    10  certificate arm (linked-set certificate, or LINKED verdict)
    11  graph too thin for the requested well-linked set
    1   artifact failed validation
    2   unreadable input: parse failure, empty graph, malformed artifact
    3   bad parameters (k < 1, negative budgets, terminals off the graph)

The brute-force oracle cap (used by `validate` on certificates and by
`bench`) defaults to n <= 12 and s <= 4 and can be overridden with the
environment variable DIRTW_BRUTE_CAP, e.g. DIRTW_BRUTE_CAP=10,3.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from itertools import combinations, permutations

from .arboreal import ArborealDecomposition, LinkedSetCertificate, decompose, validate
from .balsep import (
    BalancedSeparatorInstance,
    _normalized_answer,
    balanced_separator,
    brute_force_balanced_separator,
    is_balanced_separator,
)
from .bramble import order_parameter, verify_well_linked, well_linked_set
from .digraph import Digraph, Path, parse_edge_list, serialize_edge_list, vsorted
from .digraph import _parse_token

BRUTE_CAP_DEFAULT = (12, 4)


def _brute_cap() -> tuple[int, int]:
    raw = os.environ.get("DIRTW_BRUTE_CAP")
    if raw is None:
        return BRUTE_CAP_DEFAULT
    try:
        n, s = (int(part) for part in raw.split(","))
    except ValueError:
        print(f"DIRTW_BRUTE_CAP must look like '12,4', got {raw!r}", file=sys.stderr)
        raise SystemExit(3) from None
    return n, s


def _fail(code: int, message: str) -> int:
    print(message, file=sys.stderr)
    return code


def _load_graph(path: str) -> Digraph | int:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_edge_list(fh.read())
    except OSError as exc:
        return _fail(2, f"cannot read {path}: {exc}")
    except ValueError as exc:
        return _fail(2, f"cannot parse {path}: {exc}")


def _emit(payload: str, out: str | None) -> None:
    if out is None:
        print(payload)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")


def _vertex_list(spec: str) -> list:
    return [_parse_token(tok) for tok in spec.split(",") if tok]


# -- decompose ---------------------------------------------------------------

def _dot_export(dec: ArborealDecomposition) -> str:
    def label(vs) -> str:
        return "{" + ",".join(str(v) for v in vsorted(vs)) + "}"

    lines = ["digraph decomposition {"]
    for node in dec.nodes():
        lines.append(f'  n{node} [label="{label(dec.bags[node])}"];')
    for (a, b), guard in sorted(dec.guards.items()):
        lines.append(f'  n{a} -> n{b} [label="{label(guard)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_decompose(args: argparse.Namespace) -> int:
    D = _load_graph(args.file)
    if isinstance(D, int):
        return D
    if D.n == 0:
        return _fail(2, "empty graph: decompositions need at least one vertex")
    if args.k < 1:
        return _fail(3, "k must be at least 1")
    result = decompose(D, args.k)
    if isinstance(result, LinkedSetCertificate):
        _emit(json.dumps(result.to_json(), indent=2), args.output)
        print(f"linked-set certificate: |T| = {len(result.T)}, "
              f"({result.k},{result.r})-linked", file=sys.stderr)
        return 10
    _emit(json.dumps(result.to_json(), indent=2), args.output)
    print(f"decomposition of width {result.width} "
          f"({len(result.bags)} nodes)", file=sys.stderr)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(_dot_export(result))
    return 0


# -- balsep ------------------------------------------------------------------

def cmd_balsep(args: argparse.Namespace) -> int:
    D = _load_graph(args.file)
    if isinstance(D, int):
        return D
    T = _vertex_list(args.terminals)
    try:
        inst = BalancedSeparatorInstance(D, T, args.r, args.s)
    except ValueError as exc:
        return _fail(3, str(exc))
    result = balanced_separator(inst)
    if result.linked:
        print("LINKED")
        if args.output:
            # the verdict certifies (s,r)-linkedness of T
            cert = LinkedSetCertificate(frozenset(T), args.s, args.r)
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(cert.to_json(), indent=2) + "\n")
        return 10
    Z = vsorted(result.separator)
    print(json.dumps(Z))
    if args.output:
        artifact = {"T": vsorted(T), "r": args.r, "separator": Z}
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(artifact, indent=2) + "\n")
    return 0


# -- welllinked --------------------------------------------------------------

def cmd_welllinked(args: argparse.Namespace) -> int:
    D = _load_graph(args.file)
    if isinstance(D, int):
        return D
    if D.n == 0:
        return _fail(2, "empty graph")
    if args.k < 1:
        return _fail(3, "k must be at least 1")
    g = order_parameter(args.k)
    result = decompose(D, g)
    if isinstance(result, ArborealDecomposition):
        return _fail(11, f"graph too thin: decomposition of width {result.width} "
                         f"exists at parameter {g}, so no size-{args.k} well-linked "
                         "set is certified")
    P, A = well_linked_set(D, result, args.k)
    if len(A) <= 8 and not verify_well_linked(D, A):
        return _fail(1, "internal error: emitted set failed Menger re-verification")
    _emit(json.dumps({"path": list(P.vertices), "A": vsorted(A)}, indent=2),
          args.output)
    print(f"well-linked set of size {len(A)} on a {len(P)}-vertex path",
          file=sys.stderr)
    return 0


# -- validate ----------------------------------------------------------------

def _validate_decomposition(D: Digraph, js: dict, nice: bool) -> list[str]:
    dec = ArborealDecomposition.from_json(js)
    report = validate(D, dec, nice=nice)
    if report.ok:
        print(f"valid decomposition of width {report.width}", file=sys.stderr)
    return [f"{v.clause}: {v.detail}" for v in report.violations]


def _validate_certificate(D: Digraph, js: dict) -> list[str]:
    cert = LinkedSetCertificate.from_json(js)
    problems = [f"terminal {v!r} not in graph" for v in vsorted(cert.T) if v not in D]
    if problems:
        return problems
    if cert.k < 0 or cert.r < 0:
        return [f"k = {cert.k} and r = {cert.r} must be non-negative"]
    # the degenerate arms need no search: they hold a separator at any size
    trivial = _normalized_answer(cert.T, cert.r, cert.k)
    if trivial is not None:
        return [f"not ({cert.k},{cert.r})-linked: separator {vsorted(trivial)} found"]
    cap_n, cap_s = _brute_cap()
    if D.n <= cap_n and cert.k <= cap_s:
        res = brute_force_balanced_separator(D, cert.T, cert.r, cert.k)
        if not res.linked:
            return [f"not ({cert.k},{cert.r})-linked: "
                    f"separator {vsorted(res.separator)} found"]
        print("certificate brute-confirmed", file=sys.stderr)
    else:
        print("certificate above brute cap: shape-checked only", file=sys.stderr)
    return []


def _validate_separator(D: Digraph, js: dict) -> list[str]:
    T, r, Z = js["T"], js["r"], js["separator"]
    problems = [f"vertex {v!r} not in graph" for v in [*T, *Z] if v not in D]
    if r < 0:
        problems.append(f"r = {r} must be non-negative")
    if not problems and not is_balanced_separator(D, T, r, Z):
        problems.append(f"some strong component avoiding the separator still has "
                        f"more than {r} terminals")
    return problems


def _validate_welllinked(D: Digraph, js: dict) -> list[str]:
    try:
        P = Path(D, js["path"])
    except ValueError as exc:
        return [f"path: {exc}"]
    A = js["A"]
    problems = [f"anchor {v!r} not on the path" for v in A if v not in P]
    if problems:
        return problems
    if len(A) <= 8:
        if not verify_well_linked(D, A):
            return ["anchor set is not well-linked (Menger check failed)"]
        print("anchors Menger-verified", file=sys.stderr)
    else:
        print("anchor set above Menger cap: shape-checked only", file=sys.stderr)
    return []


def _validate_pathsystem(D: Digraph, js: dict) -> list[str]:
    problems: list[str] = []
    try:
        spines = [Path(D, vs) for vs in js["spines"]]
    except ValueError as exc:
        return [f"spine: {exc}"]
    for a, b in combinations(range(len(spines)), 2):
        if set(spines[a].vertices) & set(spines[b].vertices):
            problems.append(f"spines {a + 1} and {b + 1} share vertices")
    ins = [list(a) for a in js["anchors_in"]]
    outs = [list(a) for a in js["anchors_out"]]
    if len(ins) != len(spines) or len(outs) != len(spines):
        return ["anchor row count does not match spine count"]
    size = len(ins[0]) if ins else 0
    for idx, (i_anchors, o_anchors, spine) in enumerate(zip(ins, outs, spines), start=1):
        for v in [*i_anchors, *o_anchors]:
            if v not in spine:
                problems.append(f"anchor {v!r} not on spine {idx}")
    if not isinstance(js["linkages"], dict):
        raise TypeError("linkages must be an object")
    count = len(spines)
    missing = set(permutations(range(1, count + 1), 2))
    for key, paths in js["linkages"].items():
        i, j = (int(part) for part in key.split(","))
        if not (1 <= i <= count and 1 <= j <= count):
            raise ValueError(f"linkage {key}: spine index outside 1..{count}")
        missing.discard((i, j))
        if len(paths) != size:
            problems.append(f"linkage {key}: expected {size} paths, got {len(paths)}")
        seen: set = set()
        for vs in paths:
            try:
                p = Path(D, vs)
            except ValueError as exc:
                problems.append(f"linkage {key}: {exc}")
                continue
            if p.first not in outs[i - 1] or p.last not in ins[j - 1]:
                problems.append(f"linkage {key}: path endpoints off the anchor sets")
            if seen & set(p.vertices):
                problems.append(f"linkage {key}: paths share vertices")
            seen |= set(p.vertices)
    problems.extend(f"linkage {i},{j} missing" for i, j in sorted(missing))
    return problems


def _detect_artifact(js: object) -> str | None:
    if not isinstance(js, dict):
        return None
    keys = set(js)
    for kind, needed in [
        ("decomposition", {"nodes", "arcs", "root"}),
        ("pathsystem", {"spines", "anchors_in", "anchors_out", "linkages"}),
        ("separator", {"T", "r", "separator"}),
        ("certificate", {"T", "k", "r"}),
        ("welllinked", {"path", "A"}),
    ]:
        if needed <= keys:
            return kind
    return None


def cmd_validate(args: argparse.Namespace) -> int:
    D = _load_graph(args.file)
    if isinstance(D, int):
        return D
    try:
        with open(args.artifact, encoding="utf-8") as fh:
            js = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return _fail(2, f"cannot read artifact {args.artifact}: {exc}")
    kind = _detect_artifact(js)
    if kind is None:
        return _fail(2, "unrecognized artifact shape")
    try:
        problems = {
            "decomposition": lambda: _validate_decomposition(D, js, args.nice),
            "certificate": lambda: _validate_certificate(D, js),
            "separator": lambda: _validate_separator(D, js),
            "welllinked": lambda: _validate_welllinked(D, js),
            "pathsystem": lambda: _validate_pathsystem(D, js),
        }[kind]()
    except (ValueError, KeyError, TypeError) as exc:
        return _fail(2, f"malformed {kind} artifact: {exc}")
    if problems:
        for p in problems:
            print(p, file=sys.stderr)
        return 1
    print(f"valid {kind}")
    return 0


# -- gen ---------------------------------------------------------------------

def _gen_graph(family: str, n: int, seed: int, edges: int | None) -> Digraph:
    rng = random.Random(seed)
    D = Digraph()
    for v in range(1, n + 1):
        D.add_vertex(v)
    if family == "biclique":
        for i, j in combinations(range(1, n + 1), 2):
            D.add_bidirected(i, j)
    elif family == "bicycle":
        # n = 1 degenerates to a single vertex, n = 2 to one bidirected pair
        seen = set()
        for i in range(1, n + 1):
            j = i % n + 1
            pair = (min(i, j), max(i, j))
            if i != j and pair not in seen:
                seen.add(pair)
                D.add_bidirected(*pair)
    elif family == "dag":
        order = rng.sample(range(1, n + 1), n)
        for i, j in combinations(range(n), 2):
            if rng.random() < 0.35:
                D.add_edge(order[i], order[j])
    elif family == "random":
        pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
        m = min(2 * n, len(pairs)) if edges is None else min(edges, len(pairs))
        for u, v in rng.sample(pairs, m):
            D.add_edge(u, v)
    else:
        raise ValueError(f"unknown family {family!r}")
    return D


def cmd_gen(args: argparse.Namespace) -> int:
    if args.size < 1:
        return _fail(3, "size must be at least 1")
    D = _gen_graph(args.family, args.size, args.seed, args.edges)
    text = serialize_edge_list(D)
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


# -- bench -------------------------------------------------------------------

BENCH_COLUMNS = ["instance", "algorithm", "n", "t", "r", "s", "seconds", "verdict"]


def cmd_bench(args: argparse.Namespace) -> int:
    try:
        with open(args.suite, encoding="utf-8") as fh:
            entries = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return _fail(2, f"cannot read suite {args.suite}: {exc}")
    if not isinstance(entries, list):
        return _fail(2, "suite must be a JSON list of instance specs")
    cap_n, cap_s = _brute_cap()
    rows = []
    for entry in entries:
        try:
            family, n = entry["family"], entry["n"]
            seed, t = entry["seed"], entry["t"]
            r, s = entry["r"], entry["s"]
        except (TypeError, KeyError) as exc:
            return _fail(2, f"suite entry {entry!r} is missing {exc}")
        D = _gen_graph(family, n, seed, entry.get("edges"))
        T = D.sorted_vertices()[:t]
        label = f"{family}-n{n}-seed{seed}"
        start = time.perf_counter()
        try:
            res = balanced_separator(BalancedSeparatorInstance(D, T, r, s))
        except ValueError as exc:
            return _fail(3, f"suite entry {label}: {exc}")
        fpt_verdict = "linked" if res.linked else "separator"
        rows.append([label, "fpt", n, t, r, s,
                     f"{time.perf_counter() - start:.6f}", fpt_verdict])
        if n <= cap_n and s <= cap_s:
            start = time.perf_counter()
            bres = brute_force_balanced_separator(D, T, r, s)
            verdict = "linked" if bres.linked else "separator"
            if verdict != fpt_verdict:
                verdict = f"DISAGREES(fpt={fpt_verdict})"
            rows.append([label, "brute", n, t, r, s,
                         f"{time.perf_counter() - start:.6f}", verdict])
        else:
            rows.append([label, "brute", n, t, r, s, "", "skipped"])
    rows.sort(key=lambda row: (row[0], row[1], row[2:6]))
    lines = [",".join(BENCH_COLUMNS)]
    lines.extend(",".join(str(cell) for cell in row) for row in rows)
    _emit("\n".join(lines), args.output)
    return 0


# -- entry point ---------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirtw",
        description="Directed tree-width pipeline: decompositions, certificates, "
                    "balanced separators, well-linked sets.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="decompose or certify a linked set")
    p.add_argument("-k", type=int, required=True, help="width parameter")
    p.add_argument("--dot", metavar="FILE", help="also export the tree as DOT")
    p.add_argument("-o", "--output", metavar="FILE")
    p.add_argument("file", help="edge-list graph file")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("balsep", help="balanced separator or LINKED verdict")
    p.add_argument("-T", dest="terminals", required=True,
                   help="comma-separated terminal vertices")
    p.add_argument("-r", type=int, required=True, help="per-component quota")
    p.add_argument("-s", type=int, required=True, help="separator budget")
    p.add_argument("-o", "--output", metavar="FILE",
                   help="write a re-validatable separator artifact")
    p.add_argument("file")
    p.set_defaults(func=cmd_balsep)

    p = sub.add_parser("welllinked", help="extract a well-linked set of size k")
    p.add_argument("-k", type=int, required=True, help="target set size")
    p.add_argument("-o", "--output", metavar="FILE")
    p.add_argument("file")
    p.set_defaults(func=cmd_welllinked)

    p = sub.add_parser("validate", help="validate an emitted artifact")
    p.add_argument("--nice", action="store_true",
                   help="also check the strengthened decomposition clauses")
    p.add_argument("file")
    p.add_argument("artifact")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("gen", help="generate a deterministic instance")
    p.add_argument("family", choices=["dag", "biclique", "bicycle", "random"])
    p.add_argument("size", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--edges", type=int, default=None,
                   help="edge count for the random family")
    p.add_argument("-o", "--output", metavar="FILE")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="time the solver against the brute oracle")
    p.add_argument("suite", help="JSON list of instance specs")
    p.add_argument("-o", "--output", metavar="FILE")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> None:
    args = build_parser().parse_args(argv)
    raise SystemExit(args.func(args))


if __name__ == "__main__":
    main()
