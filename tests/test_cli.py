"""Command-line contract: subcommands, exit codes, artifact round-trips,
generator determinism, and the bench CSV."""
import json
import os
import pathlib
import shutil
import subprocess
import sys
import sysconfig
from importlib.metadata import EntryPoint, entry_points

import pytest

import dirtw
from dirtw import build_path_system, serialize_edge_list, Path
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
    assert code == 0 and "shape-checked only" in err
    monkeypatch.setenv("DIRTW_BRUTE_CAP", "oops")
    assert run_cli(["validate", k6, art], capsys)[0] == 3


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


def test_validate_welllinked_tampering(tmp_path, capsys):
    k15 = write(tmp_path, "k15.txt", serialize_edge_list(bidirected_clique(15)))
    art = write(tmp_path, "wl.json", json.dumps({"path": [1, 2, 3], "A": [3, 9]}))
    code, _, err = run_cli(["validate", k15, art], capsys)
    assert code == 1 and "not on the path" in err


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


def test_validate_unknown_or_broken_artifacts(tmp_path, k6, capsys):
    weird = write(tmp_path, "x.json", '{"zzz": 1}')
    assert run_cli(["validate", k6, weird], capsys)[0] == 2
    broken = write(tmp_path, "y.json", "{nope")
    assert run_cli(["validate", k6, broken], capsys)[0] == 2


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
    assert run_cli(["bench", write(tmp_path, "a.json", '{"not": "a list"}')],
                   capsys)[0] == 2
    assert run_cli(["bench", write(tmp_path, "b.json", '[{"family": "random"}]')],
                   capsys)[0] == 2


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
