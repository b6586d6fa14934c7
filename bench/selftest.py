#!/usr/bin/env python3
"""Self-test of the benchmark's traced run.

    python3 bench/selftest.py

For every workload, one traced run must find that the untraced pass sees
arbsim's original functions, that tracing restores every name it rebound,
and that traced and untraced passes give identical output digests.  The
test also checks that the rebinding check notices wrappers that are still
installed.  Exit status 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import sys

from run import import_arbsim, load_golden, traced_run
from spans import Tracer
from workloads import WORKLOADS, bindings, instrument, rebound

# A sample of the rebindings the traced run makes; each must be detectable.
MUST_DETECT = {
    "arbsim.system.arbiter_step",
    "arbsim.system.ram_step",
    "arbsim.trace.system_step",
    "arbsim.fuzz.random_inputs",
    "arbsim.corpus.parse_scenario",
    "Word.__post_init__",
}


def main() -> int:
    golden = load_golden()
    failures = []
    for workload in WORKLOADS.values():
        result = traced_run(workload, 0, 0, golden[workload.name])
        if not result["correct"]:
            failures.append(f"{workload.name}: {result['failed']} failed, {result['detail']}")

    arbsim = import_arbsim()
    clean = bindings(arbsim)
    tracer = Tracer()
    instrument(tracer, arbsim)
    try:
        installed = set(rebound(clean, bindings(arbsim)))
    finally:
        tracer.restore()
    if not MUST_DETECT <= installed:
        failures.append(f"installed wrappers not detected: {sorted(MUST_DETECT - installed)}")
    if rebound(clean, bindings(arbsim)):
        failures.append(f"restore left names rebound: {rebound(clean, bindings(arbsim))}")

    for failure in failures:
        print(f"selftest: FAIL {failure}", file=sys.stderr)
    print(f"selftest: {'FAIL' if failures else 'PASS'} ({len(WORKLOADS)} workloads)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
