"""Self-test of the benchmark: the traced run is deterministic and the
package passes every output check.

    python3 -m pytest perfbench/test_perfbench.py

Each workload is run twice with tracing on, at the shortest length (one
untraced and one traced pass).  Per-layer counts are per traced pass, so
they must repeat exactly; times may not.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
EXACT = ("calls", "vertices_copied", "linked_ratio", "lincut_ratio", "cut_ratio",
         "splits_per_call")


def traced_run(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", "1"],
        cwd=RUN.parent.parent, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["decompose-validate", "balsep-exact", "welllinked"])
def test_traced_counts_repeat_and_nothing_fails(workload):
    first, second = traced_run(workload, 7), traced_run(workload, 7)
    for res in (first, second):
        assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    counts = {name: m["value"] for name, m in first["metrics"].items()
              if name.rsplit(".", 1)[-1] in EXACT}
    assert counts, "no per-layer counts reported"
    assert counts == {name: second["metrics"][name]["value"] for name in counts}
    assert any(v > 0 for name, v in counts.items() if name.endswith(".calls"))
