#!/usr/bin/env python3
"""Time each layer of one edge on its own, in microseconds per call.

Records the inputs of one ``fuzz-a4`` campaign (seed 0, 2,000 cycles at
addr 4, data 8, with reset storms) and replays every layer's calls over
that fixed stream.  Each figure is the minimum over a few repeats of the
stream's total time divided by its length, taken with the garbage
collector off as timeit does, so it is one call's cost.  The last row,
``ram_sweep_a13``, is ``ram_step`` over the 8,193 zeroing-sweep edges of a
power-on RAM at addr 13, which the addr-4 stream barely exercises.  Every
layer is timed before anything is printed.  Takes no options:

    PYTHONPATH=src python3 scripts/layer_timings.py

Per-call times compare versions of the code on one host; the benchmark
(bench/run.py) is what measures a change end to end.
"""

import gc
import os
import random
import sys
import time
from collections import deque
from itertools import starmap

from arbsim import Params, arbiter, fuzz, ram, system

PARAMS = Params(4, 8)
SWEEP_PARAMS = Params(13, 8)
CYCLES = 2000
REPEATS = 5


def record_stream():
    """The (pre-edge SystemState, ClientInputs) of every measured edge."""
    seen = []
    step = fuzz.system_step

    def recording(state, inp):
        seen.append((state, inp))
        return step(state, inp)

    fuzz.system_step = recording
    try:
        fuzz.run_fuzz(0, CYCLES, PARAMS, reset_storm=True)
    finally:
        fuzz.system_step = step
    return seen[-CYCLES:]


def layer_calls(stream):
    """Layer function -> its argument tuples, one per edge of the stream."""
    rng = random.Random(0)
    calls = {}
    for state, inp in stream:
        a = state.arbiter
        arb_args = (a, inp, state.ram.rd_data_reg, PARAMS)
        post, ram_in = arbiter.arbiter_step(*arb_args)
        _, rd_data = ram.ram_step(state.ram, ram_in)
        for fn, args in (
            (system.system_step, (state, inp)),
            (system._check_widths, (inp, PARAMS)),
            (arbiter.arbiter_step, arb_args),
            (arbiter.fsm_next, (a.pr_read, a.pr_write, inp, a.reset_count, PARAMS)),
            (ram.ram_step, (state.ram, ram_in)),
            (arbiter.resolve_outputs, (post, rd_data, PARAMS)),
            (fuzz.random_inputs, (rng, PARAMS, inp.rst_n)),
            (fuzz.check_invariants, (a, inp, post, PARAMS)),
        ):
            calls.setdefault(fn, []).append(args)
    return calls


def sweep_calls():
    """The ram_step arguments of every sweep edge of a power-on SWEEP_PARAMS RAM."""
    reset = ram.RamInputs(False, False, False, 0, 0, 0)
    state, _ = ram.ram_step(ram.ram_reset(SWEEP_PARAMS), reset)
    inp = reset._replace(rst_n=True)
    calls = []
    for _ in range(SWEEP_PARAMS.ram_depth() + 1):
        calls.append((state, inp))
        state, _ = ram.ram_step(state, inp)
    assert not state.reset_done_internal
    return calls


def per_call_us(fn, args):
    # With the collector off, as timeit runs: its passes over the recorded
    # stream would otherwise land on whichever layer happens to allocate.
    best = float("inf")
    gc.disable()
    try:
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            deque(starmap(fn, args), 0)
            best = min(best, time.perf_counter() - t0)
    finally:
        gc.enable()
    return best / len(args) * 1e6


def main():
    rows = [(fn.__name__, per_call_us(fn, args))
            for fn, args in layer_calls(record_stream()).items()]
    rows.append(("ram_sweep_a13", per_call_us(ram.ram_step, sweep_calls())))
    try:
        sys.stdout.write("".join(f"{name:<18}{us:8.2f} us\n" for name, us in rows))
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # As arbsim does: point stdout at devnull so that the interpreter's
        # flush at exit finds nothing to fail on, and exit 2 with one line.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"layer_timings: error: cannot write output: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
