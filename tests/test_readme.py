"""The README's Library tour runs as written, down both of its arms."""
from __future__ import annotations

from pathlib import Path

from dirtw import ArborealDecomposition, LinkedSetCertificate, Path as DiPath

from util import bidirected_clique

README = Path(__file__).resolve().parents[1] / "README.md"
SPLIT = "result = decompose(D, 2)\n"


def _tour() -> tuple[str, str]:
    section = README.read_text(encoding="utf-8").split("## Library tour", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    head, tail = code.split(SPLIT)
    return head, SPLIT + tail


def test_library_tour_decomposes_the_triangle():
    head, tail = _tour()
    ns: dict = {}
    exec(head + tail, ns)
    assert isinstance(ns["result"], ArborealDecomposition)


def test_library_tour_certifies_k6_at_k2():
    head, tail = _tour()
    ns: dict = {}
    exec(head, ns)
    ns["D"] = bidirected_clique(6)
    exec(tail, ns)
    assert isinstance(ns["result"], LinkedSetCertificate)
    assert ns["comp"] and isinstance(ns["path"], DiPath)
