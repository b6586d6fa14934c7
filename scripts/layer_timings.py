#!/usr/bin/env python3
"""Time each layer of one edge on its own, in microseconds per call.

Records the inputs of one ``fuzz-a4`` campaign (seed 0, 2,000 cycles at
addr 4, data 8, with reset storms) and replays every layer's calls over
that fixed stream.  Each figure is the minimum over a few repeats of the
stream's total time divided by its length, taken with the garbage
collector off as timeit does, so it is one call's cost.  Takes no options:

    PYTHONPATH=src python3 scripts/layer_timings.py

Per-call times compare versions of the code on one host; the benchmark
(bench/run.py) is what measures a change end to end.
"""

import gc
import random
import time
from collections import deque
from itertools import starmap

from arbsim import Params, arbiter, fuzz, ram, system

PARAMS = Params(4, 8)
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
    for fn, args in layer_calls(record_stream()).items():
        print(f"{fn.__name__:<18}{per_call_us(fn, args):8.2f} us")


if __name__ == "__main__":
    main()
