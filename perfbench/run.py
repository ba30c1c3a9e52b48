"""dirtw benchmark: one client, closed loop, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.  Setup
(import the package, generate the instances, write their edge-list files)
is repeated SETUP_REPEATS times and its median reported.  The timed loop then
runs whole passes over the workload's instances, the next op starting when
the previous one returns, and starts no pass that would end after S seconds
(the first pass always runs).  Every op's output is checked afterwards,
outside the timed region.  Times are reported at a reference host speed,
measured by a calibration kernel before each op (see hostspeed.py); the raw
wall-clock figures are printed beside them.

With --trace 0 the last line of stdout is a JSON object holding the
end-to-end metrics.  With --trace 1 the first half of the run is untraced
and the second half traced, and the JSON holds the per-layer metrics, per
traced pass, plus the tracing overhead.  Lines before it are for people:
every metric with its unit, the tail percentile with its sample count, the
failed ratio, and a sha256 fingerprint of the canonical outputs of one pass.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

SETUP_REPEATS = 5
TAIL_PCT = 75  # at 30 s every run keeps at least 10 samples above it (README.md)
MODULES = ("digraph", "lincut", "balsep", "arboreal", "bramble", "cli")

sys.path[:0] = [str(SRC), str(HERE)]
import hostspeed  # noqa: E402
from layertrace import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def import_package() -> SimpleNamespace:
    """Import dirtw from ./src afresh, dropping any earlier import."""
    for key in [k for k in sys.modules if k == "dirtw" or k.startswith("dirtw.")]:
        del sys.modules[key]
    pkg = importlib.import_module("dirtw")
    if Path(pkg.__file__).resolve().parent != SRC / "dirtw":
        raise ImportError(f"dirtw imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"dirtw.{m}") for m in MODULES})


def set_up(workload, seed: int, workdir: Path):
    """SETUP_REPEATS full setups; the last one's modules and instances are
    used.  Returns (seconds of each, kernel times, modules, instances)."""
    times, kernel = [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        kernel.append(hostspeed.calibrate())
        t0 = time.perf_counter()
        mods = import_package()
        instances = workload.build(mods, seed, workdir)
        times.append(time.perf_counter() - t0)
    return times, kernel, mods, instances


class Outputs:
    """Canonical output of every op, kept once per distinct (slot, text)."""

    def __init__(self) -> None:
        self.counts: dict[tuple[int, str], int] = {}
        self.first_pass: list[str] = []

    def add(self, slot: int, text: str, first_pass: bool) -> None:
        self.counts[(slot, text)] = self.counts.get((slot, text), 0) + 1
        if first_pass:
            self.first_pass.append(text)

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        for text in self.first_pass:
            h.update(text.encode())
            h.update(b"\n")
        return h.hexdigest()

    def unstable_slots(self) -> int:
        slots = [slot for slot, _ in self.counts]
        return len(slots) - len(set(slots))


def run_passes(workload, mods, instances, seconds: float, outputs: Outputs,
               tracer: Tracer | None = None):
    """Closed loop over whole passes.  Returns (latencies, kernel times
    measured before each op, passes)."""
    latencies: list[float] = []
    kernel: list[float] = []
    passes = 0
    clock = time.perf_counter
    begin = clock()
    with open(os.devnull, "w") as sink, \
            contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        while True:
            for inst in instances:
                kernel.append(hostspeed.calibrate())
                if tracer:
                    tracer.begin_op()
                t0 = clock()
                try:
                    result = workload.run(mods, inst)
                except Exception as exc:  # an op that raises is a failed op
                    result = exc
                t1 = clock()
                if tracer:
                    tracer.end_op()
                latencies.append(t1 - t0)
                if isinstance(result, Exception):
                    text = "EXCEPTION " + "".join(traceback.format_exception(result))
                else:
                    try:
                        text = workload.output(inst, result)
                    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
                        text = f"UNREADABLE OUTPUT {exc!r}"
                outputs.add(inst.slot, text, first_pass=passes == 0 and tracer is None)
            passes += 1
            elapsed = clock() - begin
            if elapsed + elapsed / passes > seconds:
                return latencies, kernel, passes


def check_outputs(workload, mods, instances, outputs: Outputs) -> int:
    """Check each distinct output once; returns the number of failed ops."""
    failed = 0
    for (slot, text), count in outputs.counts.items():
        inst = instances[slot]
        if text.startswith(("EXCEPTION", "UNREADABLE")):
            problem = text
        else:
            try:
                problem = workload.check(mods, inst, text)
            except (ValueError, KeyError, TypeError) as exc:
                problem = f"output check raised {exc!r}"
        if problem:
            failed += count
            print(f"FAILED {workload.name} slot {slot} ({inst.label}) x{count}: {problem}",
                  file=sys.stderr)
    return failed


def tail(latencies: list[float], pct: int) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above it."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dirtw" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'dirtw'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    workdir = WORK / f"run-{os.getpid()}"
    try:
        setup_raw, setup_kernel, mods, instances = set_up(workload, args.seed, workdir)
        outputs = Outputs()
        window = args.seconds / 2 if args.trace else args.seconds
        raw, kernel, passes = run_passes(workload, mods, instances, window, outputs)
        tracer = traced_raw = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced_raw, traced_kernel, traced_passes = run_passes(
                    workload, mods, instances, window, outputs, tracer)
            finally:
                tracer.uninstall()
        failed = check_outputs(workload, mods, instances, outputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(raw) + len(traced_raw or ())
    lat = hostspeed.scaled(raw, kernel)
    ops_per_s = len(lat) / sum(lat)
    print(f"workload {workload.name}, seed {args.seed}: {len(lat)} ops untraced "
          f"in {passes} passes of {len(instances)} ops, {sum(raw):.3f} s timed; "
          f"calibration kernel median {statistics.median(kernel) * 1e3:.3f} ms, "
          f"reference {hostspeed.REFERENCE_S * 1e3:g} ms")
    print(f"fingerprint sha256:{outputs.fingerprint()} "
          f"(slots with more than one distinct output: {outputs.unstable_slots()})")
    print(f"failed_ratio {failed / attempted:.6f} ({failed} of {attempted} ops)")
    if not args.trace:
        tail_s, above = tail(lat, TAIL_PCT)
        metrics = {
            "ops_per_s": (ops_per_s, "1/s"),
            "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "op_tail_ms": (tail_s * 1e3, "ms"),
            "setup_s": (statistics.median(hostspeed.scaled(setup_raw, setup_kernel, 0)), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        print(f"op_tail_ms is p{TAIL_PCT} of {len(lat)} samples, {above} above it")
        print(f"raw wall clock: ops_per_s {len(raw) / sum(raw):.6g} 1/s, "
              f"op_p50_ms {statistics.median(raw) * 1e3:.6g} ms, "
              f"op_tail_ms {tail(raw, TAIL_PCT)[0] * 1e3:.6g} ms, "
              f"setup_s {statistics.median(setup_raw):.6g} s")
    else:
        metrics = tracer.layer_metrics(traced_passes)
        traced = hostspeed.scaled(traced_raw, traced_kernel)
        metrics["trace.overhead_ratio"] = (len(traced) / sum(traced) / ops_per_s, "ratio")
        WORK.mkdir(exist_ok=True)
        spans = WORK / f"spans-{workload.name}.tsv"
        count = tracer.write(spans)
        print(f"{count} spans in {traced_passes} traced passes written to "
              f"{spans.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
