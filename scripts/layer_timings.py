#!/usr/bin/env python3
"""Time each layer on its own, in microseconds per call or per exported row.

The kernel rows record the inputs of one ``fuzz-a4`` campaign (seed 0,
2,000 cycles at addr 4, data 8, with reset storms) and replay every
layer's calls over that fixed stream, so each is one call's cost.
``check_widths_held`` is ``_check_widths`` given the stream's first record
on every call, as replay holds one record between two events and the
sweep one record for all its edges.  ``ram_sweep_a13`` is ``ram_step``
over the 8,193 zeroing-sweep edges of a power-on RAM at addr 13, which the
addr-4 stream barely exercises; ``ram_write_a13`` is ``ram_step`` over
4,096 writes of random words to random addresses of that RAM after its
sweep, the trie path copies of a ``wide-a13`` campaign's traffic; and
``ram_rewrite_a13`` is ``ram_step`` over 4,096 writes, to the same
addresses, of the word each one then holds, which copy nothing.  The
text rows run the 74 corpus cases (37 builtins in both output modes):
``parse_scenario`` per case, over each case's rendered text, and
``run_scenario``, ``check_assertions``, ``write_vcd`` and ``write_table``
per exported row (5,722 rows), the exporters into an in-memory sink.
``export_one_row`` runs both exporters on a one-row copy of each case's
trace, per trace: the cost that every trace pays whatever its length.  ``import_arbsim`` is a
fresh import of ``arbsim`` and ``arbsim.fuzz``, per import, as the
benchmark's set-up makes one (bench/run.py's ``import_arbsim``); the
modules loaded before are put back after each.  It includes compiling
the package from source only where no bytecode cache is read, as under
``PYTHONDONTWRITEBYTECODE=1`` with no ``__pycache__`` yet.

Each layer's stream is timed REPEATS times with the garbage collector off,
as timeit does, and after each pass a small fixed reference computation
is timed.  The columns are the minimum and the median over the passes,
in µs, and the median over the passes of the layer's time divided by the
reference's time right after it.  That ratio cancels most of a shared
host's changes in speed, so it is the column to compare between two
invocations; the last row is the reference itself, in µs per iteration.
Every layer is timed before anything is printed.  Takes no options:

    PYTHONPATH=src python3 scripts/layer_timings.py

Per-call times compare versions of the code on one host; the benchmark
(bench/run.py) is what measures a change end to end.
"""

import gc
import importlib
import io
import random
import statistics
import sys
import time
from collections import deque
from dataclasses import replace
from itertools import starmap

from arbsim import Params, arbiter, builtin_scenarios, fuzz, ram, system, trace
from arbsim.cli import release_stdout
from arbsim.scenario import parse_scenario, render_scenario

PARAMS = Params(4, 8)
SWEEP_PARAMS = Params(13, 8)
CYCLES = 2000
WRITES = 4096
REPEATS = 7
REFERENCE_ITERATIONS = 2000


def record_stream():
    """The (pre-edge system state, inputs) of every measured edge: the pair
    (arbiter, ram) and the plain tuple of the ten input pins."""
    seen = []
    step = fuzz.system_step

    def recording(state, inp, params):
        seen.append((state, inp))
        return step(state, inp, params)

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
        a, r = state
        post, ram_in = arbiter.arbiter_step(a, inp, PARAMS)
        _, rd_data = ram.ram_step(r, ram_in)
        resolve_args = (post, rd_data, r.rd_data_reg, PARAMS)
        out = arbiter.resolve_outputs(*resolve_args)
        for fn, args in (
            (system.system_step, (state, inp, PARAMS)),
            (system._check_widths, (inp, PARAMS)),
            (arbiter.arbiter_step, (a, inp, PARAMS)),
            (arbiter.fsm_next, (a.pr_read, a.pr_write, inp, a.reset_count, PARAMS)),
            (ram.ram_step, (r, ram_in)),
            (arbiter.resolve_outputs, resolve_args),
            (fuzz.random_inputs, (rng, PARAMS, inp[0])),
            (fuzz.check_invariants, (a, inp, post, out, PARAMS)),
        ):
            calls.setdefault(fn, []).append(args)
    return calls


def wide_ram_calls():
    """The ram_step arguments of every sweep edge of a power-on SWEEP_PARAMS
    RAM, then those of WRITES random-address writes after the sweep, then
    those of a write of the stored word to each of those addresses."""
    reset = ram.RamInputs(False, False, False, 0, 0, 0)
    state, _ = ram.ram_step(ram.ram_reset(SWEEP_PARAMS), reset)
    inp = reset._replace(rst_n=True)
    sweep = []
    for _ in range(SWEEP_PARAMS.ram_depth() + 1):
        sweep.append((state, inp))
        state, _ = ram.ram_step(state, inp)
    assert not state.reset_done_internal
    rng = random.Random(0)
    writes = []
    for _ in range(WRITES):
        addr = rng.getrandbits(SWEEP_PARAMS.addr_width)
        inp = ram.RamInputs(True, False, True, 0, addr, rng.getrandbits(SWEEP_PARAMS.data_width))
        writes.append((state, inp))
        state, _ = ram.ram_step(state, inp)
    rewrites = [(state, inp._replace(wr_data=state.memory[inp.wr_addr])) for _, inp in writes]
    return sweep, writes, rewrites


def text_layers():
    """(name, function, argument tuples, units) of each layer of the text path."""
    cases = [
        replace(s, params=replace(s.params, registered_output=registered))
        for s in builtin_scenarios()
        for registered in (False, True)
    ]
    traces = [trace.run_scenario(s) for s in cases]
    rows = sum(len(t.rows) for t in traces)

    def export(write):
        return lambda t: write(t, io.StringIO())

    def export_both(params, period, rows):
        t = trace.Trace(params, period, rows)
        trace.write_vcd(t, io.StringIO())
        trace.write_table(t, io.StringIO())

    return [
        ("parse_scenario", parse_scenario,
         [(render_scenario(s),) for s in cases], len(cases)),
        ("run_scenario", trace.run_scenario, [(s,) for s in cases], rows),
        ("check_assertions", trace.check_assertions, list(zip(traces, cases)), rows),
        ("write_vcd", export(trace.write_vcd), [(t,) for t in traces], rows),
        ("write_table", export(trace.write_table), [(t,) for t in traces], rows),
        ("export_one_row", export_both,
         [(t.params, t.clock_period, t.rows[:1]) for t in traces], len(traces)),
    ]


def arbsim_modules():
    """The ``sys.modules`` entries of the arbsim package and its modules."""
    return {n: m for n, m in sys.modules.items() if n.partition(".")[0] == "arbsim"}


def import_arbsim():
    """Import arbsim and arbsim.fuzz afresh, then put back the modules
    that were loaded before, which the other layers' functions belong to."""
    loaded = arbsim_modules()
    for name in loaded:
        del sys.modules[name]
    try:
        importlib.import_module("arbsim")
        importlib.import_module("arbsim.fuzz")
    finally:
        for name in arbsim_modules():
            del sys.modules[name]
        sys.modules.update(loaded)


def reference_seconds():
    """Seconds per iteration of a fixed computation of the kind the layers
    do: build small tuples, update a dict and format ints."""
    t0 = time.perf_counter()
    latest = {}
    for i in range(REFERENCE_ITERATIONS):
        latest[i & 15] = (i, i & 255, f"{i & 255:08b}")
    return (time.perf_counter() - t0) / REFERENCE_ITERATIONS


def seconds(fn, args):
    t0 = time.perf_counter()
    deque(starmap(fn, args), 0)
    return time.perf_counter() - t0


def timings(layers):
    """(name, min µs, median µs, median ratio to the reference) per layer,
    then the reference's own row in µs per iteration."""
    passes = {name: [] for name, _, _, _ in layers}
    ratios = {name: [] for name, _, _, _ in layers}
    refs = []
    # With the collector off, as timeit runs: its passes over the recorded
    # stream would otherwise land on whichever layer happens to allocate.
    gc.disable()
    try:
        for _ in range(REPEATS):
            for name, fn, args, units in layers:
                layer = seconds(fn, args) / units
                ref = reference_seconds()
                passes[name].append(layer)
                ratios[name].append(layer / ref)
                refs.append(ref)
    finally:
        gc.enable()
    rows = [(name, min(ts) * 1e6, statistics.median(ts) * 1e6,
             statistics.median(ratios[name])) for name, ts in passes.items()]
    rows.append(("reference", min(refs) * 1e6, statistics.median(refs) * 1e6, 1.0))
    return rows


def main():
    stream = record_stream()
    layers = [(fn.__name__, fn, args, len(args)) for fn, args in layer_calls(stream).items()]
    held = [(stream[0][1], PARAMS)] * len(stream)
    layers.append(("check_widths_held", system._check_widths, held, len(held)))
    names = ("ram_sweep_a13", "ram_write_a13", "ram_rewrite_a13")
    for name, calls in zip(names, wide_ram_calls()):
        layers.append((name, ram.ram_step, calls, len(calls)))
    layers += text_layers()
    layers.append(("import_arbsim", import_arbsim, [()], 1))
    lines = [f"{'layer':<18}{'min_us':>9}{'median_us':>11}{'x_ref':>9}\n"]
    lines += [f"{name:<18}{lo:9.2f}{mid:11.2f}{ratio:9.2f}\n"
              for name, lo, mid, ratio in timings(layers)]
    try:
        sys.stdout.write("".join(lines))
        sys.stdout.flush()
    except OSError as exc:
        release_stdout()
        print(f"layer_timings: error: cannot write output: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
