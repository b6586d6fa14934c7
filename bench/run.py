#!/usr/bin/env python3
"""Benchmark arbsim: host time per simulated rising edge on three workloads.

    python3 bench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

One process, one thread, closed loop: each operation starts when the
previous one ends.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics of a separate traced pass.  The last stdout line is
the result object; the line before it records the run's environment.
Exit status: 0 when every output matched golden.json, 1 when one did not,
2 when arbsim or golden.json cannot be loaded.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any

from spans import Tracer
from workloads import (
    LAYER_UNITS,
    SIMULATED_COUNTS,
    TIME_UNITS,
    WORKLOADS,
    bindings,
    instrument,
    layer_metrics,
    rebound,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"
SETUP_REPEATS = 11


class LoadError(Exception):
    """arbsim or the recorded outputs cannot be loaded from this checkout."""


def import_arbsim() -> Any:
    """Import arbsim afresh from this checkout's ``src``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "arbsim" or n.startswith("arbsim.")]:
        del sys.modules[name]
    try:
        arbsim = importlib.import_module("arbsim")
        importlib.import_module("arbsim.fuzz")
    except ImportError as exc:
        raise LoadError(f"cannot import arbsim from {SRC}: {exc}") from exc
    if Path(arbsim.__file__).resolve().parent != SRC / "arbsim":
        raise LoadError(f"imported arbsim from {arbsim.__file__}, not from {SRC}")
    return arbsim


def load_golden() -> dict:
    try:
        return json.loads(GOLDEN.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise LoadError(f"cannot read {GOLDEN}: {exc}") from exc


class Tally:
    """Host time, edges and output checks of the operations run so far.

    The reference computation is timed before the first operation and after
    each one, and every time the tally reports is scaled by it (see speed.py).
    """

    def __init__(self, workload: Any, arbsim: Any, golden: dict) -> None:
        self.workload, self.arbsim, self.golden = workload, arbsim, golden
        self.raw: list[float] = []
        self.refs: list[float] = []
        self.edges = 0
        self.failed = 0
        self.outputs: dict[str, dict] = {}

    def run(self, op: Any) -> None:
        if not self.refs:
            self.refs.append(self.workload.reference.seconds())
        t0 = time.perf_counter()
        raw = self.workload.run(self.arbsim, op)
        self.raw.append(time.perf_counter() - t0)
        self.refs.append(self.workload.reference.seconds())
        key = self.workload.key(op)
        edges, output = self.workload.outcome(op, raw)
        self.edges += edges
        self.outputs[key] = output
        if output != self.golden.get(key, {}).get("output"):
            self.failed += 1

    @property
    def times(self) -> list[float]:
        return self.workload.reference.scaled(self.raw, self.refs)

    @property
    def busy(self) -> float:
        return sum(self.times)


def timed_run(workload: Any, seed: int, seconds: float, golden: dict) -> dict:
    """End-to-end metrics, tracing off."""
    reference = workload.reference
    setups, refs = [], [reference.seconds()]
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        arbsim = import_arbsim()
        ops = workload.setup(arbsim, seed)
        setups.append(time.perf_counter() - t0)
        refs.append(reference.seconds())
    setup_s = statistics.median(reference.scaled(setups, refs))

    tally = Tally(workload, arbsim, golden)
    round_size = len(ops) if workload.whole_rounds else 1
    start = time.perf_counter()
    i = 0
    while i == 0 or i % round_size or time.perf_counter() - start < seconds:
        tally.run(ops[i % len(ops)])
        i += 1

    times = tally.times
    p90 = statistics.quantiles(times, n=10, method="inclusive")[8] if len(times) > 1 else times[0]
    metrics = {
        "setup_s": (setup_s, "s"),
        "edges_per_s": (tally.edges / tally.busy, "1/s"),
        "case_ms_p50": (statistics.median(times) * 1e3, "ms"),
        "case_ms_p90": (p90 * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {
        "case_samples": len(times),
        "setup_samples": len(setups),
        "edges": tally.edges,
        "unscaled": {
            "setup_s": statistics.median(setups),
            "edges_per_s": tally.edges / sum(tally.raw),
            "case_ms_p50": statistics.median(tally.raw) * 1e3,
        },
        "reference": reference.name,
        "reference_ms_p50": statistics.median(tally.refs) * 1e3,
    }
    if workload.name == "corpus":
        passed = sum(o["passed"] for o in tally.outputs.values())
        detail["corpus_expectations"] = f"{passed} of {len(tally.outputs)} cases passed"
    return _result(len(times), tally.failed, True, metrics, detail)


def traced_pass(workload: Any, arbsim: Any, seed: int, golden: dict) -> tuple[Tally, Tracer]:
    """Set up and run the workload's fixed traced list with every layer wrapped."""
    tracer = Tracer()
    instrument(tracer, arbsim)
    try:
        ops = workload.setup(arbsim, seed)[: workload.traced_ops]
        tally = Tally(workload, arbsim, golden)
        for op in ops:
            tally.run(op)
    finally:
        tracer.restore()
    return tally, tracer


def traced_run(workload: Any, seed: int, seconds: float, golden: dict) -> dict:
    """Per-layer metrics: alternate untraced and traced passes of one fixed op list."""
    arbsim = import_arbsim()
    clean = bindings(arbsim)
    ops = workload.setup(arbsim, seed)[: workload.traced_ops]
    expected = {
        k: sum(golden.get(workload.key(op), {}).get("counts", {}).get(k, 0) for op in ops)
        for k in SIMULATED_COUNTS
    }
    formula_edges = sum(workload.edges(op) for op in ops)

    problems: list[str] = []
    plain_busy, traced_busy, passes = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        leftover = rebound(clean, bindings(arbsim))
        if leftover:
            problems.append(f"untraced pass sees rebound names: {leftover}")
        plain = Tally(workload, arbsim, golden)
        for op in ops:
            plain.run(op)
        traced, tracer = traced_pass(workload, arbsim, seed, golden)
        leftover = rebound(clean, bindings(arbsim))
        if leftover:
            problems.append(f"names not restored after tracing: {leftover}")

        factor = traced.busy / sum(traced.raw)
        layers = {
            k: v * factor if LAYER_UNITS[k] in TIME_UNITS else v
            for k, v in layer_metrics(tracer).items()
        }
        bad = [k for k in SIMULATED_COUNTS if layers[k] != expected[k]]
        bad += [
            f"{k} differs between passes" for k in layers
            if passes and LAYER_UNITS[k] not in TIME_UNITS and layers[k] != passes[0][k]
        ]
        if layers["system.steps"] != formula_edges:
            bad.append(f"system.steps {layers['system.steps']} != {formula_edges} formula edges")
        if traced.outputs != plain.outputs:
            bad.append("traced and untraced output digests differ")
        if bad:
            problems.append(f"traced pass: {bad}")
        attempted += len(plain.raw) + len(traced.raw)
        failed += plain.failed + (len(traced.raw) if bad else traced.failed)
        plain_busy.append(plain.busy)
        traced_busy.append(traced.busy)
        passes.append(layers)

    metrics = {}
    for name, first in passes[0].items():
        unit = LAYER_UNITS[name]
        value = statistics.median(p[name] for p in passes) if unit in TIME_UNITS else first
        metrics[name] = (value, unit)
    overhead = statistics.median(traced_busy) / statistics.median(plain_busy)
    metrics["trace_overhead_ratio"] = (overhead, "ratio")
    for message in problems:
        print(f"bench: {message}", file=sys.stderr)
    detail = {"passes": len(passes), "ops_per_pass": len(ops), "problems": problems}
    return _result(attempted, failed, not problems, metrics, detail)


def _result(attempted: int, failed: int, gates_ok: bool, metrics: dict, detail: dict) -> dict:
    return {
        "correct": gates_ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail,
    }


def git_sha() -> str:
    """The checkout's commit, read from .git without running git; 'unknown' outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)),
        "platform": f"{platform.system()} {platform.release()} {platform.machine()}",
        "git_sha": git_sha(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    try:
        golden = load_golden()[workload.name]
        run = traced_run if args.trace else timed_run
        result = run(workload, args.seed, args.seconds, golden)
    except LoadError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    detail = result.pop("detail")
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "ops_failed_ratio": {"value": result["failed"] / result["attempted"], "unit": "ratio"},
        **detail,
    }
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
