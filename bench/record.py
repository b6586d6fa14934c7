#!/usr/bin/env python3
"""Record golden.json: every operation's output and simulated counts.

    python3 bench/record.py

Runs every operation a benchmark run can draw (all 74 corpus cases and
modes, every campaign in each fuzz pool) once untraced and once traced,
and writes their output fingerprints and simulated counts.  The benchmark
fails any operation that departs from this record, so re-record only in a
change that means to alter simulated output, and say so in that change.
"""

from __future__ import annotations

import json
import sys

from run import GOLDEN, git_sha, import_arbsim
from spans import Tracer
from workloads import SIMULATED_COUNTS, WORKLOADS, instrument, layer_metrics


def record_op(workload, arbsim, op) -> dict:
    edges, output = workload.outcome(op, workload.run(arbsim, op))
    tracer = Tracer()
    instrument(tracer, arbsim)
    try:
        _, traced_output = workload.outcome(op, workload.run(arbsim, op))
    finally:
        tracer.restore()
    layers = layer_metrics(tracer)
    if traced_output != output or layers["system.steps"] != edges:
        raise SystemExit(f"record: {workload.name} {workload.key(op)} differs when traced")
    return {"output": output, "counts": {k: layers[k] for k in SIMULATED_COUNTS}}


def main() -> int:
    arbsim = import_arbsim()
    golden: dict = {"source_commit": git_sha()}
    for workload in WORKLOADS.values():
        ops = workload.setup(arbsim, 0)
        golden[workload.name] = {
            workload.key(op): record_op(workload, arbsim, op) for op in ops
        }
        print(f"{workload.name}: {len(ops)} operations recorded", file=sys.stderr)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
