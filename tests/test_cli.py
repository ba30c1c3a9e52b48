"""Command-line contract: subcommands, exit codes, artifact round-trips,
generator determinism, and the bench CSV."""
import argparse
import json
import os
import pathlib
import random
import shutil
import subprocess
import sys
import sysconfig
from collections import Counter
from importlib.metadata import EntryPoint, entry_points

import pytest

import dirtw
from dirtw import build_path_system, serialize_edge_list, Path
from dirtw import cli
from dirtw.balsep import brute_force_balanced_separator, is_balanced_separator
from dirtw.cli import main

from util import bidirected_clique, two_cycle_tail


def run_cli(args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(args)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


@pytest.fixture
def k6(tmp_path):
    return write(tmp_path, "k6.txt", serialize_edge_list(bidirected_clique(6)))


# -- gen ----------------------------------------------------------------------

def test_gen_biclique_edge_count(capsys):
    code, out, _ = run_cli(["gen", "biclique", "3"], capsys)
    assert code == 0
    assert len(out.splitlines()) == 6  # three bidirected pairs


def test_gen_is_deterministic(capsys):
    first = run_cli(["gen", "dag", "10", "--seed", "7"], capsys)
    second = run_cli(["gen", "dag", "10", "--seed", "7"], capsys)
    assert first == second and first[0] == 0
    other = run_cli(["gen", "dag", "10", "--seed", "8"], capsys)
    assert other[1] != first[1]


def test_gen_bicycle_sizes(capsys):
    code, out, _ = run_cli(["gen", "bicycle", "5"], capsys)
    assert code == 0 and len(out.splitlines()) == 10
    code, out, _ = run_cli(["gen", "bicycle", "2"], capsys)
    assert code == 0 and sorted(out.splitlines()) == ["1 2", "2 1"]
    code, out, _ = run_cli(["gen", "bicycle", "1"], capsys)
    assert code == 0 and out.splitlines() == ["vertex 1"]


def test_gen_rejects_size_zero(capsys):
    code, _, err = run_cli(["gen", "random", "0"], capsys)
    assert code == 3 and "size" in err


def test_gen_rejects_negative_edges(capsys):
    code, out, err = run_cli(["gen", "random", "5", "--edges", "-1"], capsys)
    assert code == 3 and out == "" and "edges" in err


def test_gen_random_edge_budget(capsys):
    code, out, _ = run_cli(["gen", "random", "6", "--seed", "3", "--edges", "9"], capsys)
    assert code == 0
    assert sum(1 for line in out.splitlines() if not line.startswith("vertex")) == 9


# -- decompose ----------------------------------------------------------------

def test_decompose_small_graph_single_node(tmp_path, capsys):
    code, out, _ = run_cli(["gen", "biclique", "7", "-o",
                            write(tmp_path, "k7.txt", "")], capsys)
    assert code == 0
    code, out, err = run_cli(["decompose", "-k", "3", str(tmp_path / "k7.txt")], capsys)
    assert code == 0
    js = json.loads(out)
    assert len(js["nodes"]) == 1 and len(js["nodes"][0]["bag"]) == 7
    assert "width 6" in err


def test_decompose_certificate_arm(k6, capsys):
    code, out, err = run_cli(["decompose", "-k", "2", k6], capsys)
    assert code == 10
    js = json.loads(out)
    assert len(js["T"]) == 3 and js["k"] == 1 and js["r"] == 1
    assert "certificate" in err


def test_decompose_roundtrips_through_validate(tmp_path, capsys):
    graph = write(tmp_path, "d.txt", "")
    assert run_cli(["gen", "dag", "12", "--seed", "4", "-o", graph], capsys)[0] == 0
    out_json = str(tmp_path / "dec.json")
    dot = str(tmp_path / "dec.dot")
    code, _, err = run_cli(["decompose", "-k", "1", graph, "-o", out_json,
                            "--dot", dot], capsys)
    assert code == 0 and "width" in err
    assert (tmp_path / "dec.dot").read_text().startswith("digraph decomposition {")
    code, out, _ = run_cli(["validate", "--nice", graph, out_json], capsys)
    assert code == 0 and "valid decomposition" in out


def test_decompose_bad_inputs(tmp_path, k6, capsys):
    empty = write(tmp_path, "empty.txt", "")
    assert run_cli(["decompose", "-k", "1", empty], capsys)[0] == 2
    assert run_cli(["decompose", "-k", "0", k6], capsys)[0] == 3
    bad = write(tmp_path, "bad.txt", "one two three\n")
    assert run_cli(["decompose", "-k", "1", bad], capsys)[0] == 2
    assert run_cli(["decompose", "-k", "1", str(tmp_path / "missing.txt")],
                   capsys)[0] == 2


# -- balsep -------------------------------------------------------------------

def test_balsep_dag_empty_separator(tmp_path, capsys):
    dag = write(tmp_path, "dag.txt", "a b\nb c\n")
    code, out, _ = run_cli(["balsep", "-T", "a,b,c", "-r", "1", "-s", "0", dag],
                           capsys)
    assert code == 0 and json.loads(out) == []


def test_balsep_linked_verdict(tmp_path, capsys):
    k5 = write(tmp_path, "k5.txt", serialize_edge_list(bidirected_clique(5)))
    cert = str(tmp_path / "cert.json")
    code, out, _ = run_cli(["balsep", "-T", "1,2,3,4,5", "-r", "2", "-s", "2",
                            "-o", cert, k5], capsys)
    assert code == 10 and out.strip() == "LINKED"
    assert run_cli(["validate", k5, cert], capsys)[0] == 0


def test_balsep_singleton_separator(tmp_path, capsys):
    f = write(tmp_path, "t.txt", serialize_edge_list(two_cycle_tail()))
    code, out, _ = run_cli(["balsep", "-T", "v1,v2,v3", "-r", "1", "-s", "1", f],
                           capsys)
    assert code == 0 and len(json.loads(out)) == 1


def test_balsep_separator_artifact_roundtrip(tmp_path, k6, capsys):
    art = str(tmp_path / "sep.json")
    code, out, _ = run_cli(["balsep", "-T", "1,2,3,4,5,6", "-r", "3", "-s", "3",
                            "-o", art, k6], capsys)
    assert code == 0
    assert json.loads(out) == json.load(open(art))["separator"]
    assert run_cli(["validate", k6, art], capsys)[0] == 0
    tampered = json.load(open(art))
    tampered["r"] = 0
    write(tmp_path, "sep2.json", json.dumps(tampered))
    code, _, err = run_cli(["validate", k6, str(tmp_path / "sep2.json")], capsys)
    assert code == 1 and "terminals" in err


def test_balsep_bad_parameters(k6, capsys):
    assert run_cli(["balsep", "-T", "1,2", "-r", "-1", "-s", "0", k6], capsys)[0] == 3
    assert run_cli(["balsep", "-T", "1,99", "-r", "1", "-s", "1", k6], capsys)[0] == 3


# -- welllinked ---------------------------------------------------------------

def test_welllinked_on_wide_clique(tmp_path, capsys):
    k15 = write(tmp_path, "k15.txt", serialize_edge_list(bidirected_clique(15)))
    art = str(tmp_path / "wl.json")
    code, out, err = run_cli(["welllinked", "-k", "2", "-o", art, k15], capsys)
    assert code == 0 and "size 2" in err
    js = json.load(open(art))
    assert js == {"path": [1, 2, 3, 4, 5], "A": [3, 5]}
    assert run_cli(["validate", k15, art], capsys)[0] == 0


def test_welllinked_singleton(tmp_path, capsys):
    k3 = write(tmp_path, "k3.txt", serialize_edge_list(bidirected_clique(3)))
    code, out, _ = run_cli(["welllinked", "-k", "1", k3], capsys)
    assert code == 0 and len(json.loads(out)["A"]) == 1


def test_welllinked_thin_graph(tmp_path, capsys):
    dag = write(tmp_path, "dag.txt", "a b\nb c\nc d\n")
    code, _, err = run_cli(["welllinked", "-k", "1", dag], capsys)
    assert code == 11 and "too thin" in err


def test_welllinked_bad_inputs(tmp_path, k6, capsys):
    assert run_cli(["welllinked", "-k", "0", k6], capsys)[0] == 3
    empty = write(tmp_path, "e.txt", "")
    assert run_cli(["welllinked", "-k", "1", empty], capsys)[0] == 2


# -- validate -----------------------------------------------------------------

def test_validate_detects_partition_tampering(tmp_path, k6, capsys):
    dag = write(tmp_path, "g.txt", "a b\nb c\n")
    art = str(tmp_path / "dec.json")
    assert run_cli(["decompose", "-k", "1", dag, "-o", art], capsys)[0] == 0
    js = json.load(open(art))
    js["nodes"][0]["bag"] = []
    write(tmp_path, "bad.json", json.dumps(js))
    code, _, err = run_cli(["validate", dag, str(tmp_path / "bad.json")], capsys)
    assert code == 1


def test_validate_tampered_certificate(tmp_path, k6, capsys):
    art = str(tmp_path / "cert.json")
    assert run_cli(["decompose", "-k", "2", k6, "-o", art], capsys)[0] == 10
    js = json.load(open(art))
    js["T"] = [1, 2]  # a pair is never (1,1)-linked in K6
    write(tmp_path, "bad.json", json.dumps(js))
    code, _, err = run_cli(["validate", k6, str(tmp_path / "bad.json")], capsys)
    assert code == 1 and "separator" in err


def test_validate_certificate_respects_brute_cap(tmp_path, k6, capsys, monkeypatch):
    art = str(tmp_path / "cert.json")
    assert run_cli(["decompose", "-k", "2", k6, "-o", art], capsys)[0] == 10
    monkeypatch.setenv("DIRTW_BRUTE_CAP", "3,1")
    code, _, err = run_cli(["validate", k6, art], capsys)
    assert code == 0 and "decided exactly by the solver" in err
    monkeypatch.setenv("DIRTW_BRUTE_CAP", "oops")
    assert run_cli(["validate", k6, art], capsys)[0] == 3


def test_validate_refutes_a_false_certificate_above_the_brute_cap(tmp_path, capsys):
    # a DAG's strong components are single vertices: the empty set separates
    dag = str(tmp_path / "dag.txt")
    assert run_cli(["gen", "dag", "20", "--seed", "1", "-o", dag], capsys)[0] == 0
    art = write(tmp_path, "cert.json", json.dumps({"T": [1, 2, 3], "k": 1, "r": 1}))
    code, _, err = run_cli(["validate", dag, art], capsys)
    assert code == 1 and "not (1,1)-linked: separator [] found" in err


def test_validate_refutes_by_the_greedy_layer_above_the_brute_cap(tmp_path, capsys, monkeypatch):
    arcs = [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4)]
    triangles = write(tmp_path, "tri.txt", "".join(f"{u} {v}\n{v} {u}\n" for u, v in arcs))
    art = write(tmp_path, "cert.json", json.dumps({"T": [1, 2, 4, 5], "k": 2, "r": 1}))
    monkeypatch.setenv("DIRTW_BRUTE_CAP", "3,1")
    code, _, err = run_cli(["validate", triangles, art], capsys)
    assert code == 1 and "not (2,1)-linked: separator [1, 4] found" in err


def test_validate_refutes_by_the_exact_layers_above_the_brute_cap(tmp_path, capsys, monkeypatch):
    # normalize, empty and greedy all find nothing here; a check that ran
    # only them passed this certificate
    g = str(tmp_path / "g.txt")
    assert run_cli(["gen", "random", "5", "--seed", "696000", "--edges", "12", "-o", g], capsys)[0] == 0
    art = write(tmp_path, "cert.json", json.dumps({"T": [1, 2, 3], "k": 1, "r": 1}))
    monkeypatch.setenv("DIRTW_BRUTE_CAP", "0,0")
    code, out, err = run_cli(["validate", g, art], capsys)
    assert code == 1 and out == "" and "not (1,1)-linked: separator [2] found" in err


def test_validate_above_the_brute_cap_agrees_with_the_brute_oracle(tmp_path, capsys, monkeypatch):
    # certificates of the shape decompose emits, |T| = 2k + 1 and r = k,
    # on small random graphs, decided with the cap at zero
    monkeypatch.setenv("DIRTW_BRUTE_CAP", "0,0")
    rng = random.Random(0xCE27)
    verdicts = Counter()
    for i in range(1200):
        n, k = rng.randint(5, 10), rng.randint(1, 2)
        D = cli._gen_graph("random", n, rng.randrange(2**31), rng.randint(n, 4 * n))
        T = sorted(rng.sample(D.sorted_vertices(), 2 * k + 1))
        graph = write(tmp_path, "g.txt", serialize_edge_list(D))
        art = write(tmp_path, "cert.json", json.dumps({"T": T, "k": k, "r": k}))
        code, out, err = run_cli(["validate", graph, art], capsys)
        truth = brute_force_balanced_separator(D, T, k, k)
        if truth.linked:
            assert (code, out) == (0, "valid certificate\n"), (i, err)
        else:
            assert code == 1 and out == "", (i, T, k)
            Z = json.loads(err.split("separator ")[1].split(" found")[0])
            assert len(Z) <= k and is_balanced_separator(D, T, k, Z), (i, err)
        verdicts[truth.linked] += 1
    assert min(verdicts.values()) >= 200, verdicts


@pytest.mark.parametrize("doc, reason", [
    ({"T": [1, 2], "k": 5, "r": 0}, "separator [1, 2] found"),
    ({"T": [1], "k": -3, "r": -1}, "must be non-negative"),
    ({"T": [1, 2], "r": -1, "separator": [1, 2]}, "must be non-negative"),
], ids=["budget-covers-T", "negative-parameters", "separator-negative-r"])
def test_validate_rejects_trivially_unlinked_certificates(tmp_path, capsys, doc, reason):
    # each stays above the brute cap or out of its reach (or is balanced
    # as a separator), so only the parameter checks can reject it
    pair = write(tmp_path, "pair.txt", "1 2\n2 1\n")
    art = write(tmp_path, "cert.json", json.dumps(doc))
    code, _, err = run_cli(["validate", pair, art], capsys)
    assert code == 1 and reason in err


@pytest.mark.parametrize("doc, kind", [
    ({"T": "12", "k": 1, "r": 1}, "certificate"),
    ({"T": "12", "r": 1, "separator": []}, "separator"),
    ({"T": [1, 2], "r": 1, "separator": "1"}, "separator"),
    ({"path": [1, 2], "A": "12"}, "welllinked"),
    ({"path": "12", "A": [1, 2]}, "welllinked"),
    ({"spines": ["12"], "anchors_in": [[1]], "anchors_out": [[2]], "linkages": {}}, "pathsystem"),
    ({"spines": [[1, 2]], "anchors_in": ["1"], "anchors_out": [[2]], "linkages": {}}, "pathsystem"),
    ({"spines": [[1], [2]], "anchors_in": [[1], [2]], "anchors_out": [[1], [2]],
      "linkages": {"1,2": ["12"], "2,1": [[2, 1]]}}, "pathsystem"),
    ({"nodes": [{"id": 0, "bag": "12"}], "arcs": [], "root": 0}, "decomposition"),
    ({"nodes": [{"id": 0, "bag": [1]}, {"id": 1, "bag": [2]}],
      "arcs": [{"from": 0, "to": 1, "guard": "1"}], "root": 0}, "decomposition"),
], ids=["certificate-T", "separator-T", "separator-separator", "welllinked-A", "welllinked-path",
        "pathsystem-spine", "pathsystem-anchor-row", "pathsystem-linkage-path",
        "decomposition-bag", "decomposition-guard"])
def test_validate_rejects_strings_for_vertex_lists(tmp_path, capsys, doc, kind):
    # a string would be read character by character as a list of vertices
    pair = write(tmp_path, "pair.txt", "1 2\n2 1\n")
    art = write(tmp_path, "art.json", json.dumps(doc))
    code, _, err = run_cli(["validate", pair, art], capsys)
    assert code == 2 and f"malformed {kind} artifact" in err and "must be a list" in err


@pytest.mark.parametrize("doc", [
    # the first guard, [], is breached, and node 1 has in-degree 2
    {"nodes": [{"id": 0, "bag": [1]}, {"id": 1, "bag": [2, 3]}],
     "arcs": [{"from": 0, "to": 1, "guard": []}, {"from": 0, "to": 1, "guard": [1]}], "root": 0},
    {"nodes": [{"id": 0, "bag": [1]}, {"id": 0, "bag": [1, 2, 3]}], "arcs": [], "root": 0},
], ids=["arc", "node"])
def test_validate_rejects_repeated_nodes_and_arcs(tmp_path, capsys, doc):
    # a dict keeps the last of a repeated entry, and that one alone is valid
    D = write(tmp_path, "d.txt", "1 2\n2 1\n2 3\n3 2\n")
    art = write(tmp_path, "dec.json", json.dumps(doc))
    code, out, err = run_cli(["validate", "--nice", D, art], capsys)
    assert code == 2 and out == "" and "listed twice" in err


@pytest.mark.parametrize("doc, message", [
    ({"nodes": [{"id": 0, "bag": [1]}, {"id": 0, "bag": [1, 2]}], "arcs": [], "root": 0},
     "malformed decomposition artifact: a node id or an arc is listed twice"),
    ({"T": [1, 2], "k": "1", "r": 0}, "malformed certificate artifact: k must be an integer"),
    ({"nodes": [{"bag": [1]}], "arcs": [], "root": 0},
     "malformed decomposition artifact: missing field 'id'"),
], ids=["decomposition", "certificate", "missing-field"])
def test_validate_names_a_malformed_artifact_once(tmp_path, capsys, doc, message):
    pair = write(tmp_path, "pair.txt", "1 2\n2 1\n")
    art = write(tmp_path, "art.json", json.dumps(doc))
    code, out, err = run_cli(["validate", pair, art], capsys)
    assert code == 2 and out == ""
    assert message in err and err.count("malformed") == 1


def test_validate_rejects_a_string_bag_that_spells_the_graph(tmp_path, capsys):
    # read character by character, "ab" would be the bag {a, b}: a valid
    # decomposition of the pair
    pair = write(tmp_path, "pair.txt", "a b\nb a\n")
    art = write(tmp_path, "dec.json", '{"nodes":[{"id":0,"bag":"ab"}],"arcs":[],"root":0}')
    code, out, err = run_cli(["validate", pair, art], capsys)
    assert code == 2 and out == "" and "bag must be a list" in err


@pytest.mark.parametrize("text, kind", [
    ('{"T": [1, 2], "k": 1e400, "r": 0}', "certificate"),
    ('{"T": [1, 2], "k": 1.5, "r": 0}', "certificate"),
    ('{"T": [1, 2], "k": true, "r": 0}', "certificate"),
    ('{"T": [1, 2], "k": 1, "r": "0"}', "certificate"),
    ('{"T": [1, 2], "r": 1e400, "separator": []}', "separator"),
    ('{"T": [1, 2], "r": 1.0, "separator": []}', "separator"),
    ('{"nodes": [{"id": 1e400, "bag": [1, 2]}], "arcs": [], "root": 0}', "decomposition"),
    ('{"nodes": [{"id": "0", "bag": [1, 2]}], "arcs": [], "root": 0}', "decomposition"),
    ('{"nodes": [{"id": 0, "bag": [1, 2]}], "arcs": [], "root": false}', "decomposition"),
    ('{"nodes": [{"id": 0, "bag": [1]}, {"id": 1, "bag": [2]}],'
     ' "arcs": [{"from": 0.0, "to": 1, "guard": [1]}], "root": 0}', "decomposition"),
    ('{"nodes": [{"id": 0, "bag": [1]}, {"id": 1, "bag": [2]}],'
     ' "arcs": [{"from": 0, "to": Infinity, "guard": [1]}], "root": 0}', "decomposition"),
], ids=["certificate-k-overflow", "certificate-k-float", "certificate-k-bool", "certificate-r-string",
        "separator-r-overflow", "separator-r-float", "node-id-overflow", "node-id-string",
        "root-bool", "arc-from-float", "arc-to-infinity"])
def test_validate_rejects_non_integer_fields(tmp_path, capsys, text, kind):
    # int() would truncate 1.5, overflow on 1e400 and parse "0"
    pair = write(tmp_path, "pair.txt", "1 2\n2 1\n")
    art = write(tmp_path, "art.json", text)
    code, out, err = run_cli(["validate", pair, art], capsys)
    assert code == 2 and out == "" and f"malformed {kind} artifact" in err
    assert "must be an integer" in err


def test_validate_welllinked_tampering(tmp_path, capsys):
    k15 = write(tmp_path, "k15.txt", serialize_edge_list(bidirected_clique(15)))
    art = write(tmp_path, "wl.json", json.dumps({"path": [1, 2, 3], "A": [3, 9]}))
    code, _, err = run_cli(["validate", k15, art], capsys)
    assert code == 1 and "not on the path" in err
    for A in ([1, 2, 1], [1, 2, 3, 1]):
        art = write(tmp_path, "wl.json", json.dumps({"path": [1, 2, 3], "A": A}))
        code, _, err = run_cli(["validate", k15, art], capsys)
        assert code == 1 and "an anchor is listed twice" in err


def test_validate_welllinked_refuses_anchors_that_fail_menger(tmp_path, capsys):
    # on the line 1 -> 2 -> 3 -> 4 no path runs from anchor 3 back to anchor 1
    line = write(tmp_path, "line.txt", "1 2\n2 3\n3 4\n")
    art = write(tmp_path, "wl.json", json.dumps({"path": [1, 2, 3, 4], "A": [1, 3]}))
    code, _, err = run_cli(["validate", line, art], capsys)
    assert code == 1 and "Menger check failed" in err


def test_validate_welllinked_above_the_menger_cap_is_shape_checked_only(tmp_path, capsys):
    n = cli.MENGER_CAP + 1
    clique = write(tmp_path, "clique.txt", serialize_edge_list(bidirected_clique(n)))
    art = write(tmp_path, "wl.json", json.dumps({"path": list(range(1, n + 1)), "A": list(range(1, n + 1))}))
    code, _, err = run_cli(["validate", clique, art], capsys)
    assert code == 0 and "shape-checked only" in err and "Menger-verified" not in err


def test_validate_pathsystem(tmp_path, capsys):
    D = bidirected_clique(6)
    ps = build_path_system(D, Path(D, [1, 2, 3, 4]), {1, 2, 3, 4}, 1, 2)
    k6f = write(tmp_path, "k6.txt", serialize_edge_list(D))
    good = write(tmp_path, "ps.json", json.dumps(ps.to_json()))
    code, out, _ = run_cli(["validate", k6f, good], capsys)
    assert code == 0 and "pathsystem" in out
    js = ps.to_json()
    js["linkages"]["1,2"] = []
    bad = write(tmp_path, "ps2.json", json.dumps(js))
    code, _, err = run_cli(["validate", k6f, bad], capsys)
    assert code == 1 and "expected 1 paths" in err


def test_validate_pathsystem_refuses_linkage_paths_that_share_a_vertex(tmp_path, capsys):
    # two spines of four anchors on K_10, linkages of two paths; the
    # tampered linkage is sound but for the vertex 9 both its paths use
    D = bidirected_clique(10)
    js = build_path_system(D, Path(D, list(range(1, 9))), set(range(1, 9)), 2, 2).to_json()
    k10 = write(tmp_path, "k10.txt", serialize_edge_list(D))
    assert run_cli(["validate", k10, write(tmp_path, "ps.json", json.dumps(js))], capsys)[0] == 0
    assert js["anchors_out"][0] == [3, 4] and js["anchors_in"][1] == [5, 6]
    js["linkages"]["1,2"] = [[3, 9, 5], [4, 9, 6]]
    code, _, err = run_cli(["validate", k10, write(tmp_path, "bad.json", json.dumps(js))], capsys)
    assert code == 1 and err.splitlines() == ["linkage 1,2: paths share vertices"]


def _k6_path_system(tmp_path):
    D = bidirected_clique(6)
    ps = build_path_system(D, Path(D, [1, 2, 3, 4]), {1, 2, 3, 4}, 1, 2)
    return write(tmp_path, "k6.txt", serialize_edge_list(D)), ps.to_json()


@pytest.mark.parametrize("linkages", [
    {"0,1": [[4, 1]]},
    {"3,1": [[4, 1]]},
    [],
    "1,2",
], ids=["spine-zero", "spine-past-p", "list", "string"])
def test_validate_pathsystem_rejects_malformed_linkages(tmp_path, capsys, linkages):
    k6f, js = _k6_path_system(tmp_path)
    js["linkages"] = {**js["linkages"], **linkages} if isinstance(linkages, dict) else linkages
    art = write(tmp_path, "ps.json", json.dumps(js))
    code, _, err = run_cli(["validate", k6f, art], capsys)
    assert code == 2 and "malformed pathsystem artifact" in err


def test_validate_pathsystem_rejects_an_empty_linkage_path(tmp_path, capsys):
    # an empty path has no endpoints to sit on the anchor sets
    k6f, js = _k6_path_system(tmp_path)
    js["linkages"]["1,2"] = [[]]
    art = write(tmp_path, "ps.json", json.dumps(js))
    code, _, err = run_cli(["validate", k6f, art], capsys)
    assert code == 1 and "linkage 1,2: path endpoints off the anchor sets" in err


def test_validate_pathsystem_reports_missing_linkages(tmp_path, capsys):
    k6f, js = _k6_path_system(tmp_path)
    del js["linkages"]["2,1"]
    art = write(tmp_path, "ps.json", json.dumps(js))
    code, _, err = run_cli(["validate", k6f, art], capsys)
    assert code == 1 and "linkage 2,1 missing" in err and "1,2" not in err
    js["linkages"] = {}
    art = write(tmp_path, "ps.json", json.dumps(js))
    code, _, err = run_cli(["validate", k6f, art], capsys)
    assert code == 1 and "linkage 1,2 missing" in err and "linkage 2,1 missing" in err


def _k6_spared_path_system(tmp_path):
    # spines [1, 2, 3] and [4, 5, 6]: each holds a vertex that is no anchor
    D = bidirected_clique(6)
    ps = build_path_system(D, Path(D, [1, 2, 3, 4, 5, 6]), {1, 3, 4, 6}, 1, 2)
    return write(tmp_path, "k6.txt", serialize_edge_list(D)), ps.to_json()


def _tamper_long_row(js):
    js["anchors_out"][0] = [3, 2]  # 2 sits on spine 1 but is no anchor


def _tamper_self_linkage(js):
    js["linkages"]["1,1"] = [[3, 1]]  # spine 1's out-anchor to its own in-anchor


def _tamper_shared_anchor(js):
    js["anchors_in"][0] = [3]  # spine 1's out-anchor, now its in-anchor too
    js["linkages"]["2,1"] = [[6, 3]]


@pytest.mark.parametrize("tamper, message", [
    (_tamper_long_row, "spine 1: an anchor row does not hold 1 distinct anchors"),
    (_tamper_self_linkage, "linkage 1,1: a spine is linked to itself"),
    (_tamper_shared_anchor, "spine 1: a vertex is both an in- and an out-anchor"),
], ids=["long-row", "self-linkage", "shared-anchor"])
def test_validate_pathsystem_rejects_false_anchor_structure(tmp_path, capsys, tamper, message):
    k6f, js = _k6_spared_path_system(tmp_path)
    assert run_cli(["validate", k6f, write(tmp_path, "ps.json", json.dumps(js))], capsys)[0] == 0
    tamper(js)
    code, _, err = run_cli(["validate", k6f, write(tmp_path, "ps.json", json.dumps(js))], capsys)
    assert code == 1 and message in err


def test_validate_pathsystem_rejects_a_repeated_anchor_in_a_row(tmp_path, capsys):
    # one spine has no linkage to other spines that a repeat would spoil
    k6f = write(tmp_path, "k6.txt", serialize_edge_list(bidirected_clique(6)))
    js = {"spines": [[1, 2, 3, 4]], "anchors_in": [[1, 2]], "anchors_out": [[3, 4]], "linkages": {}}
    assert run_cli(["validate", k6f, write(tmp_path, "ps.json", json.dumps(js))], capsys)[0] == 0
    js["anchors_in"], js["anchors_out"] = [[1, 1]], [[3, 3]]
    code, _, err = run_cli(["validate", k6f, write(tmp_path, "ps.json", json.dumps(js))], capsys)
    assert code == 1 and "spine 1: an anchor row does not hold 2 distinct anchors" in err


def test_balsep_artifact_lists_each_terminal_once(tmp_path, k6, capsys):
    art = str(tmp_path / "sep.json")
    code, _, _ = run_cli(["balsep", "-T", "1,1,2,3,4,5,6,6", "-r", "3", "-s", "3", "-o", art, k6], capsys)
    assert code == 0 and json.load(open(art))["T"] == [1, 2, 3, 4, 5, 6]
    assert run_cli(["validate", k6, art], capsys)[0] == 0
    cert = str(tmp_path / "cert.json")
    code, _, _ = run_cli(["balsep", "-T", "1,1,2,3,4,5", "-r", "2", "-s", "2", "-o", cert, k6], capsys)
    assert code == 10 and json.load(open(cert))["T"] == [1, 2, 3, 4, 5]
    assert run_cli(["validate", k6, cert], capsys)[0] == 0


@pytest.mark.parametrize("doc", [
    {"T": [1, 1, 2, 3, 4, 5], "k": 2, "r": 2},
    {"T": [1, 2, 3, 4, 5, 6, 1], "r": 3, "separator": [1, 2, 3]},
], ids=["certificate", "separator"])
def test_validate_refuses_a_repeated_terminal(tmp_path, k6, capsys, doc):
    # each is valid with the repeat dropped
    once = {**doc, "T": sorted(set(doc["T"]))}
    assert run_cli(["validate", k6, write(tmp_path, "once.json", json.dumps(once))], capsys)[0] == 0
    code, _, err = run_cli(["validate", k6, write(tmp_path, "art.json", json.dumps(doc))], capsys)
    assert code == 1 and "a terminal is listed twice" in err


# spines, anchors_in, anchors_out and the linkages 1,2 and 2,1 of a path
# system of two spines on K_4
PATH_SYSTEM = '{"spines": [%s], "anchors_in": [%s], "anchors_out": [%s], "linkages": {"1,2": [%s], "2,1": [%s]}}'


@pytest.mark.parametrize("text, kind", [
    ('{"T": [1, 2, 3], "r": 1, "separator": [true, 2]}', "separator"),
    ('{"T": [1, 2, 3], "r": 1, "separator": [1.0, 2]}', "separator"),
    ('{"T": [1, 2.0, 3], "r": 1, "separator": [1, 2]}', "separator"),
    ('{"path": [1, 2, 3], "A": [1.0, 2]}', "welllinked"),
    ('{"path": [1, 2, 3], "A": [3, true]}', "welllinked"),
    (PATH_SYSTEM % ("[1, 2], [3, 4]", "[true], [3]", "[2], [4]", "[2, 3]", "[4, 1]"), "pathsystem"),
    (PATH_SYSTEM % ("[1, 2], [3, 4]", "[1.0], [3]", "[2], [4]", "[2, 3]", "[4, 1]"), "pathsystem"),
    (PATH_SYSTEM % ("[2, 1], [3, 4]", "[2], [3]", "[true], [4]", "[1, 3]", "[4, 2]"), "pathsystem"),
    (PATH_SYSTEM % ("[2, 1], [3, 4]", "[2], [3]", "[1.0], [4]", "[1, 3]", "[4, 2]"), "pathsystem"),
], ids=["separator-bool", "separator-float", "separator-T-float", "welllinked-A-float", "welllinked-A-bool",
        "pathsystem-in-bool", "pathsystem-in-float", "pathsystem-out-bool", "pathsystem-out-float"])
def test_validate_refuses_non_vertex_ids(tmp_path, capsys, text, kind):
    # true and 1.0 equal the vertex 1 in a set, and an anchor row is matched
    # against its spine with `in`; each artifact is valid with its ids
    # written as integers
    k4 = write(tmp_path, "k4.txt", serialize_edge_list(bidirected_clique(4)))
    fixed = text.replace("true", "1").replace(".0", "")
    assert run_cli(["validate", k4, write(tmp_path, "ok.json", fixed)], capsys)[:2] == (0, f"valid {kind}\n")
    code, out, err = run_cli(["validate", k4, write(tmp_path, "art.json", text)], capsys)
    assert code == 2 and out == ""
    assert f"malformed {kind} artifact" in err and "unsupported vertex id" in err


def test_validate_unknown_or_broken_artifacts(tmp_path, k6, capsys):
    for text, message in [('{"zzz": 1}', "unrecognized artifact shape"), ("[1, 2]", "unrecognized artifact shape"),
                          ("{nope", "cannot read artifact")]:
        code, out, err = run_cli(["validate", k6, write(tmp_path, "x.json", text)], capsys)
        assert code == 2 and out == "" and message in err, text


# artifact shapes for the fuzz test: "int" is a small integer and
# "vertices" a short list of vertices of K_4, a list holds up to three
# items of its one shape, and any part may be replaced by a random value
FUZZ_SHAPES = {
    "decomposition": {"nodes": [{"id": "int", "bag": "vertices"}],
                      "arcs": [{"from": "int", "to": "int", "guard": "vertices"}], "root": "int"},
    "pathsystem": {"spines": ["vertices"], "anchors_in": ["vertices"], "anchors_out": ["vertices"],
                   "linkages": {"1,2": ["vertices"], "2,1": ["vertices"]}},
    "separator": {"T": "vertices", "r": "int", "separator": "vertices"},
    "certificate": {"T": "vertices", "k": "int", "r": "int"},
    "welllinked": {"path": "vertices", "A": "vertices"},
}
FUZZ_ATOMS = [0, 1, 2, 3, 4, 5, -1, 10 ** 30, 1.5, 2.0, float("inf"), float("-inf"), float("nan"),
              True, False, "1", "12", "a", "", "1,2", None]


def _fuzz_value(rng: random.Random, depth: int = 0):
    roll = rng.random()
    if depth < 3 and roll < 0.2:
        return [_fuzz_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    if depth < 3 and roll < 0.3:
        return {rng.choice(["id", "bag", "from", "to", "guard", "1,2", "0,1", "x"]):
                _fuzz_value(rng, depth + 1) for _ in range(rng.randrange(3))}
    return rng.choice(FUZZ_ATOMS)


def _fuzz_shaped(rng: random.Random, shape, top: bool = False):
    if not top and rng.random() < 0.15:
        return _fuzz_value(rng)
    if shape == "int":
        return rng.randrange(-1, 4)
    if shape == "vertices":
        return [rng.randrange(0, 6) for _ in range(rng.randrange(5))]
    if isinstance(shape, list):
        return [_fuzz_shaped(rng, shape[0]) for _ in range(rng.randrange(4))]
    # the artifact's own keys stay, so that its kind is detected
    return {key: _fuzz_shaped(rng, sub) for key, sub in shape.items() if top or rng.random() > 0.1}


def test_validate_fuzzed_artifacts_never_raise(tmp_path, capsys):
    k4 = write(tmp_path, "k4.txt", serialize_edge_list(bidirected_clique(4)))
    rng = random.Random(0xF022)
    codes: dict = {}
    for kind, shape in FUZZ_SHAPES.items():
        for i in range(300):
            doc = _fuzz_shaped(rng, shape, top=True)
            art = write(tmp_path, "art.json", json.dumps(doc))
            try:
                code, _, _ = run_cli(["validate", k4, art], capsys)
            except Exception as exc:
                raise AssertionError(f"{kind} #{i}: {json.dumps(doc)}") from exc
            assert code in (0, 1, 2, 3), (kind, i, doc, code)
            codes[kind, code] = codes.get((kind, code), 0) + 1
    # every kind is rejected as malformed and as invalid; the shapes reach
    # past the parsing
    for kind in FUZZ_SHAPES:
        assert codes.get((kind, 1), 0) >= 10 and codes.get((kind, 2), 0) >= 10, codes


# -- bench --------------------------------------------------------------------

def test_bench_rows_sorted_and_cross_checked(tmp_path, capsys):
    suite = write(tmp_path, "suite.json", json.dumps([
        {"family": "random", "n": 8, "seed": 1, "t": 5, "r": 1, "s": 2},
        {"family": "biclique", "n": 5, "seed": 0, "t": 5, "r": 2, "s": 2},
        {"family": "random", "n": 40, "seed": 2, "t": 5, "r": 1, "s": 2},
    ]))
    code, out, _ = run_cli(["bench", suite], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "instance,algorithm,n,t,r,s,seconds,verdict"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 6
    assert [r[:2] for r in rows] == sorted(r[:2] for r in rows)
    by_instance: dict = {}
    for r in rows:
        by_instance.setdefault(r[0], {})[r[1]] = r[7]
    assert by_instance["biclique-n5-seed0"] == {"fpt": "linked", "brute": "linked"}
    assert by_instance["random-n8-seed1"]["brute"] == by_instance["random-n8-seed1"]["fpt"]
    assert by_instance["random-n40-seed2"]["brute"] == "skipped"


def test_bench_empty_suite(tmp_path, capsys):
    suite = write(tmp_path, "s.json", "[]")
    code, out, _ = run_cli(["bench", suite], capsys)
    assert code == 0 and out.strip() == "instance,algorithm,n,t,r,s,seconds,verdict"


def test_bench_cap_override(tmp_path, capsys, monkeypatch):
    suite = write(tmp_path, "s.json", json.dumps(
        [{"family": "random", "n": 8, "seed": 1, "t": 4, "r": 1, "s": 2}]))
    monkeypatch.setenv("DIRTW_BRUTE_CAP", "6,2")
    code, out, _ = run_cli(["bench", suite], capsys)
    assert code == 0 and "skipped" in out


def test_bench_rejects_malformed_suites(tmp_path, capsys):
    for suite in [str(tmp_path / "missing.json"), write(tmp_path, "broken.json", "[{nope")]:
        code, _, err = run_cli(["bench", suite], capsys)
        assert code == 2 and "cannot read suite" in err, suite
    assert run_cli(["bench", write(tmp_path, "a.json", '{"not": "a list"}')],
                   capsys)[0] == 2
    assert run_cli(["bench", write(tmp_path, "b.json", '[{"family": "random"}]')],
                   capsys)[0] == 2
    good = {"family": "random", "n": 5, "seed": 1, "t": 2, "r": 1, "s": 1}
    for bad, code in [({"family": "nope"}, 2), ({"family": ["random"]}, 2), ({"n": "5"}, 2),
                      ({"seed": 1.0}, 2), ({"t": 2.5}, 2), ({"r": True}, 2), ({"s": "1"}, 2),
                      ({"edges": "7"}, 2), ({"n": -3}, 3), ({"n": 0}, 3), ({"t": -1}, 3),
                      ({"edges": -2}, 3), ({"r": -1}, 3)]:
        suite = write(tmp_path, "c.json", json.dumps([{**good, **bad}]))
        assert run_cli(["bench", suite], capsys)[0] == code, bad
    assert run_cli(["bench", write(tmp_path, "d.json", json.dumps([{**good, "edges": 7}]))], capsys)[0] == 0


@pytest.mark.parametrize("command", ["balsep", "welllinked", "validate"])
@pytest.mark.parametrize("kind", ["read", "parse"])
def test_unreadable_input_graphs_exit_2(tmp_path, command, kind, capsys):
    # every subcommand reads its graph in one place, as decompose does: a
    # missing file and a line of three tokens each exit 2, before anything
    # else is read
    graph = (str(tmp_path / "missing.txt") if kind == "read"
             else write(tmp_path, "bad.txt", "one two three\n"))
    argv = {"balsep": ["balsep", "-T", "1", "-r", "1", "-s", "0", graph],
            "welllinked": ["welllinked", "-k", "1", graph],
            "validate": ["validate", graph, write(tmp_path, "a.json", "{}")]}[command]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == "" and f"cannot {kind} {graph}: " in err, err


def test_unwritable_output_paths_exit_3(tmp_path, k6, capsys):
    missing = str(tmp_path / "missing" / "out")
    k15 = write(tmp_path, "k15.txt", serialize_edge_list(bidirected_clique(15)))
    suite = write(tmp_path, "s.json", json.dumps([{"family": "random", "n": 5, "seed": 1, "t": 2, "r": 1, "s": 1}]))
    for argv in (["decompose", "-k", "2", "-o", missing, k6],  # the certificate arm
                 ["decompose", "-k", "6", "-o", missing, k6],
                 ["decompose", "-k", "6", "--dot", missing, k6],
                 ["balsep", "-T", "1,2,3", "-r", "1", "-s", "0", "-o", missing, k6],
                 ["balsep", "-T", "1,2,3", "-r", "1", "-s", "2", "-o", missing, k6],
                 ["welllinked", "-k", "2", "-o", missing, k15],
                 ["gen", "random", "5", "-o", missing],
                 ["bench", suite, "-o", missing]):
        code, _, err = run_cli(argv, capsys)
        assert code == 3 and f"cannot write {missing}: " in err, argv


# -- parser -------------------------------------------------------------------

def test_main_builds_its_parser_once_and_answers_as_a_fresh_one(tmp_path, capsys, monkeypatch):
    # valid but not nice: the child's bag {2, 3} holds two strong components
    D = write(tmp_path, "d.txt", "1 2\n1 3\n")
    art = write(tmp_path, "dec.json", json.dumps(
        {"nodes": [{"id": 0, "bag": [1]}, {"id": 1, "bag": [2, 3]}],
         "arcs": [{"from": 0, "to": 1, "guard": []}], "root": 0}))
    calls = [["validate", "--nice", D, art], ["validate", D, art],
             ["decompose", "-k", "1", D], ["decompose", D], ["gen", "dag", "6", "--seed", "2"],
             ["gen", "dag", "6"], ["gen", "cycle", "6"], ["validate", "--nice", D, art]]
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(run_cli(argv, capsys))
    assert [code for code, _, _ in fresh] == [1, 0, 0, 2, 0, 0, 2, 1]
    assert "strong-component" in fresh[0][2] and fresh[1][1] == "valid decomposition\n"

    built = []
    real_init = argparse.ArgumentParser.__init__

    def spy_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        if self.prog == "dirtw":  # not one of its subcommand parsers
            built.append(self)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy_init)
    cli.build_parser.cache_clear()
    try:
        assert [run_cli(argv, capsys) for argv in calls] == fresh
    finally:
        cli.build_parser.cache_clear()
    assert len(built) == 1


# -- console entry point --------------------------------------------------------

def declared_script():
    """The `dirtw` entry of `[project.scripts]` in the checkout's pyproject.toml."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh).get("project", {}).get("scripts", {})
    assert "dirtw" in scripts, "pyproject.toml declares no dirtw console script"
    return scripts["dirtw"]


def write_launcher(directory, value):
    """Write the launcher an installer generates for a console_scripts entry
    `module:qualname`: import the object, call it with no arguments (so it
    reads sys.argv itself) and exit with its result."""
    module, _, qualname = value.partition(":")
    launcher = directory / "dirtw"
    launcher.write_text(f"#!{sys.executable}\n"
                        "import sys\n"
                        f"from {module} import {qualname.split('.')[0]}\n"
                        f"sys.exit({qualname}())\n")
    launcher.chmod(0o755)
    return launcher


def run_script_smoke(exe, env):
    proc = subprocess.run([str(exe), "gen", "biclique", "3"], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 6, proc.stderr


def test_installed_script_smoke(tmp_path):
    declared = declared_script()
    assert EntryPoint("dirtw", declared, "console_scripts").load() is main
    # The child imports the same dirtw package this suite imported.
    env = {**os.environ,
           "PYTHONPATH": str(pathlib.Path(dirtw.__file__).resolve().parent.parent)}
    run_script_smoke(write_launcher(tmp_path, declared), env)
    installed = entry_points(group="console_scripts", name="dirtw")
    exe = (shutil.which("dirtw")
           or shutil.which("dirtw", path=sysconfig.get_path("scripts")))
    if installed or exe:
        assert [ep.value for ep in installed] == [declared] * len(installed)
        assert exe, "dirtw entry point installed but its script is not found"
        run_script_smoke(exe, env)
