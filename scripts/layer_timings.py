#!/usr/bin/env python3
"""Time each layer on its own, in microseconds per call or per exported row.

The kernel rows record the inputs of one ``fuzz-a4`` campaign (seed 0,
2,000 cycles at addr 4, data 8, with reset storms), step them through
``system_step`` once to record the arguments that it passes each layer,
and replay every layer's calls over that fixed stream, so each is one
call's cost.
Every recorded record is stepped after another was drawn, so
``system_step`` checks each one in full here, as it does a record that
``random_inputs`` did not draw.  ``random_inputs`` is one record taken
from a campaign's stream (seed 0, addr 4, data 8, with reset storms), the
stream made once before the passes: the draw of each edge without the
making of its stream.  ``fuzz_edge`` is that campaign itself,
``run_fuzz`` per measured edge: the draw, the step and the invariant check
of each edge, whose step checks no record, with the 20 edges of reset
and sweep before the measured phase (1 % of its edges) included.
``ram_sweep_a13`` is ``ram_step`` over the 8,193 zeroing-sweep edges of a
power-on RAM at addr 13, which the addr-4 stream barely exercises;
``ram_write_a13`` is ``ram_step`` over 4,096 writes of random words to
random addresses of that RAM after its sweep, the stores of a
``wide-a13`` campaign's traffic; ``ram_rewrite_a13`` is ``ram_step`` over
4,096 writes, to the same addresses, of the word each one then holds,
which store nothing; and ``ram_read_a13`` is ``ram_step`` over 4,096
client reads of those addresses, the reads of that traffic.  These four
rows step linearly, as a campaign does: each pass starts from its own RAM
state and passes each call the state the call before it returned, in one
Python loop whose cost is in the row.  A replay of recorded older states
would make every call reroot the memory first.
``system_step_sweep_a13`` is ``system_step`` over the 8,194 edges that
follow a power-on reset at addr 13 in ``run_fuzz`` (the 8,193-edge sweep
and one idle edge), with ``ClientInputs.quiet()`` held, so that every edge
leaves the drive registers clear.  ``system_step_held`` is ``system_step``
over 2,000 calls of one held corpus edge, the first edge of the builtin
cases out of reset that leaves both blocks' states as they were, each
call on the same three objects: every call after the first passes the
input check and hits the arbiter's memo, as a replay's held edge does.
The text rows run the 74 corpus cases (37 builtins in both output modes):
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
from functools import partial
from itertools import starmap

from arbsim import ClientInputs, Params, arbiter, builtin_scenarios, fuzz, ram, system, trace
from arbsim.cli import release_stdout
from arbsim.scenario import parse_scenario, render_scenario

PARAMS = Params(4, 8)
SWEEP_PARAMS = Params(13, 8)
CYCLES = 2000
WRITES = 4096
HELD_STEPS = 2000
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
    """Layer function -> its argument tuples, one per edge of the stream.
    ``system_step`` steps each recorded edge while a spy on each layer that
    it calls, where the kernel looks the layer up, records the arguments
    of that call as the kernel makes it.  ``random_inputs`` is timed as
    ``next`` on one campaign's stream, one call per edge."""
    draws = fuzz.random_inputs(random.Random(0), PARAMS, reset_storm=True)
    spied = ((system, "arbiter_step"), (arbiter, "fsm_next"), (system, "ram_step"),
             (system, "resolve_outputs"))
    originals = [getattr(owner, name) for owner, name in spied]
    calls = {fn: [] for fn in (system.system_step, system._check_widths, *originals,
                               fuzz.random_inputs, fuzz.check_invariants)}

    def spy(fn):
        def recording(*args):
            calls[fn].append(args)
            return fn(*args)
        return recording

    for (owner, name), fn in zip(spied, originals):
        setattr(owner, name, spy(fn))
    try:
        for state, inp in stream:
            (post, _), out = system.system_step(state, inp, PARAMS)
            calls[system.system_step].append((state, inp, PARAMS))
            calls[system._check_widths].append((inp, PARAMS))
            calls[fuzz.random_inputs].append((draws,))
            calls[fuzz.check_invariants].append((state[0], inp, post, out, PARAMS))
    finally:
        for (owner, name), fn in zip(spied, originals):
            setattr(owner, name, fn)
    return calls


def step_linearly(start, inputs):
    """``ram_step`` over ``inputs`` from the state ``start()`` returns, each
    call given the state that the call before it returned, as a campaign
    steps only its newest state."""
    state = start()
    for inp in inputs:
        state = ram.ram_step(state, inp)
    return state


def wide_ram_passes():
    """(start, inputs) of four ``step_linearly`` passes at SWEEP_PARAMS:
    the sweep edges of a power-on RAM, WRITES random-address writes after
    the sweep, a write of the stored word to each of those addresses, and
    a read of each.  No pass makes a new version of a memory that another
    pass steps, so no call pays a reroot that a campaign would not."""
    reset = ram.RamInputs(False, False, False, 0, 0, 0)
    sweep = [reset._replace(rst_n=True)] * (SWEEP_PARAMS.ram_depth() + 1)

    def flagged():
        return ram.ram_step(ram.ram_reset(SWEEP_PARAMS), reset)

    # A freshly swept power-on RAM equals a power-on one.
    swept = step_linearly(flagged, sweep)
    assert swept == ram.ram_reset(SWEEP_PARAMS)

    fresh = partial(ram.ram_reset, SWEEP_PARAMS)
    rng = random.Random(0)
    writes = [
        ram.RamInputs(True, False, True, 0, rng.getrandbits(SWEEP_PARAMS.addr_width),
                      rng.getrandbits(SWEEP_PARAMS.data_width))
        for _ in range(WRITES)
    ]
    # A write of the stored word returns its state, and a read keeps its
    # memory, so every rewrite and read pass starts from this state, whose
    # memory stays the newest of its versions.
    written = step_linearly(fresh, writes)
    rewrites = [inp._replace(wr_data=written.memory[inp.wr_addr]) for inp in writes]
    reads = [inp._replace(rd_en=True, wr_en=False, rd_addr=inp.wr_addr, wr_addr=0, wr_data=0)
             for inp in writes]
    return ((flagged, sweep), (fresh, writes), (lambda: written, rewrites),
            (lambda: written, reads))


def sweep_system_calls():
    """The system_step arguments of the SWEEP_PARAMS.ram_depth() + 2 edges
    that run_fuzz steps after its two reset edges, quiet inputs held."""
    state = system.system_new(SWEEP_PARAMS)
    low, quiet = ClientInputs.quiet(rst_n=False), ClientInputs.quiet()
    for _ in range(2):
        state, _ = system.system_step(state, low, SWEEP_PARAMS)
    calls = []
    for _ in range(SWEEP_PARAMS.ram_depth() + 2):
        calls.append((state, quiet, SWEEP_PARAMS))
        state, _ = system.system_step(state, quiet, SWEEP_PARAMS)
    return calls


def held_system_calls():
    """HELD_STEPS copies of the system_step arguments of the first edge of
    the builtin cases that has ``rst_n`` high and returns the system state
    it was given, by value."""
    edges = []
    step = trace.system_step

    def recording(state, inp, params):
        post, out = step(state, inp, params)
        edges.append(((state, inp, params), post))
        return post, out

    trace.system_step = recording
    try:
        for s in builtin_scenarios():
            trace.run_scenario(s)
    finally:
        trace.system_step = step
    held = next(args for args, post in edges if args[1][0] and post == args[0])
    return [held] * HELD_STEPS


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

    def export_both(case, rows):
        t = trace.Trace(case, rows)
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
         [(t.scenario, t.rows[:1]) for t in traces], len(traces)),
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
    layers = [(fn.__name__, next if fn is fuzz.random_inputs else fn, args, len(args))
              for fn, args in layer_calls(stream).items()]
    layers.append(("fuzz_edge", fuzz.run_fuzz, [(0, CYCLES, PARAMS, True)], CYCLES))
    names = ("ram_sweep_a13", "ram_write_a13", "ram_rewrite_a13", "ram_read_a13")
    for name, (start, inputs) in zip(names, wide_ram_passes()):
        layers.append((name, step_linearly, [(start, inputs)], len(inputs)))
    sweep = sweep_system_calls()
    layers.append(("system_step_sweep_a13", system.system_step, sweep, len(sweep)))
    held = held_system_calls()
    layers.append(("system_step_held", system.system_step, held, len(held)))
    layers += text_layers()
    layers.append(("import_arbsim", import_arbsim, [()], 1))
    lines = [f"{'layer':<22}{'min_us':>9}{'median_us':>11}{'x_ref':>9}\n"]
    lines += [f"{name:<22}{lo:9.2f}{mid:11.2f}{ratio:9.2f}\n"
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
