"""Per-cycle recording, assertion evaluation, and waveform export.

A trace holds one row per rising clock edge: the values of every pin in
``PINS`` order, one plain tuple.  Those are the inputs sampled at that
edge, the post-edge outputs and the probes of the post-edge arbiter state
(its drive registers, channel states and clash flag).  A trace holds the
scenario it replayed, and row k is edge k, at ``trace.scenario.edge_time(k)``;
a row stores neither its cycle nor its time.  Equal rows of one replay are
one tuple object, so a row costs the trace one reference.
Traces export to IEEE-1364-style VCD and to a tab-separated table.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, compress
from operator import is_not, itemgetter
from typing import IO, Callable, NamedTuple

from .arbiter import PINS, ArbiterState, ClientInputs
from .scenario import Assertion, Scenario
from .signals import LOW, Params, parse_word
from .system import system_new, system_step


class Trace(NamedTuple):
    scenario: Scenario  # the scenario replayed: its params and its clock
    rows: tuple[tuple, ...]  # row k: edge k's pin values in PINS order


class AssertionResult(NamedTuple):
    assertion: Assertion
    observed: str
    passed: bool


class AssertionReport(NamedTuple):
    results: tuple[AssertionResult, ...]
    passed: bool

    def failures(self) -> list[AssertionResult]:
        return [r for r in self.results if not r.passed]


# Pin name -> its index in PINS.
_PIN_INDEX = {name: i for i, (name, _, _, _) in enumerate(PINS)}


def _apply_event(inputs: tuple, pin: str, value: str) -> tuple:
    # The input pins lead PINS in ClientInputs field order, and the inputs
    # are a plain tuple in that order.
    i = _PIN_INDEX[pin]
    v = value == "1" if PINS[i][2] == "level" else parse_word(value, len(value)).value
    return (*inputs[:i], v, *inputs[i + 1 :])


def run_scenario(s: Scenario) -> Trace:
    """Replay a scenario's event timeline and record every edge.

    An input assignment at time t takes effect at the first rising edge
    whose time is >= t; assignments at equal times apply in file order, so
    a later line on the same pin wins.

    A held edge, one whose arbiter state is the previous edge's object (a
    steady ``arbiter_step`` returns its own state) under the same input
    record, with equal outputs, has the previous edge's values: it appends
    the previous row object and builds no row.
    """
    params, events, edges, edge_for_time = s.params, s.events, s.num_edges(), s.edge_for_time
    # Each event is mapped to its edge by the scenario's clock, so the loop
    # compares edge indices, not times.
    state = system_new(params)
    inputs = ClientInputs.quiet(rst_n=LOW)
    rows: list[tuple] = []
    interned: dict[tuple, tuple] = {}  # each distinct row: equal rows are one tuple
    idx, next_edge = 0, edge_for_time(events[0].time) if events else edges
    # The previous edge's arbiter state, inputs, outputs and row.
    last_arb = last_inputs = last_out = row = None
    for k in range(edges):
        while next_edge <= k:
            ev = events[idx]
            inputs = _apply_event(inputs, ev.pin, ev.value)
            idx += 1
            next_edge = edge_for_time(events[idx].time) if idx < len(events) else edges
        state, out = system_step(state, inputs, params)
        arb = state[0]
        if arb is not last_arb or inputs is not last_inputs or out != last_out:
            row = inputs + out + _PROBES(arb)
            row = interned.setdefault(row, row)
            last_arb, last_inputs, last_out = arb, inputs, out
        rows.append(row)
    return Trace(s, tuple(rows))


# A row is its pin values in PINS order: the inputs and the outputs whole,
# then the probes picked from the arbiter state by index, at less than half
# the cost of one attrgetter over every field.
_PROBES = itemgetter(*[ArbiterState._fields.index(f) for _, d, _, f in PINS if d == "probe"])


# A pin of at most this many bits gets the text of every value rendered
# once, with its layout, as a lookup costs a fraction of a format; a wider
# pin, whose table would grow too large, is formatted on use.
_TABLE_BITS = 8


def _renderer(fmt: str, width: int) -> Callable[[int], str]:
    """``fmt.format`` for a pin of this width, or where the width is at
    most ``_TABLE_BITS`` the lookup of the same text in a table of every
    value's."""
    if width <= _TABLE_BITS:
        return tuple(map(fmt.format, range(1 << width))).__getitem__
    return fmt.format


class PinLayout(NamedTuple):
    """The text of a trace's export and check that depends on its widths
    alone, in ``PINS`` order.  Every pin shows its value in binary at its
    width (a level is a bool and a channel state an int code, so one rule
    covers every role), for the checker and both exporters alike."""

    cells: tuple[Callable[[int], str], ...]  # per pin, a value's text
    vcd_records: tuple[Callable[[int], str], ...]  # per pin, a value's VCD change record
    vcd_preamble: str  # ``$timescale`` through the power-on ``$dumpvars ... $end``
    table_header: str


@lru_cache(maxsize=8)
def _pin_layout(addr_width: int, data_width: int) -> PinLayout:
    """The layout of one pair of widths, built on its first use.  It holds
    no trace's data, so every trace of these widths, in either output mode,
    shares it; the cache keeps the 8 pairs used last."""
    params = Params(addr_width, data_width)
    widths = [params.width(role) for _, _, role, _ in PINS]
    formats = [f"{{:0{width}b}}" for width in widths]
    # Pins of one width share one renderer of their cells.
    cells = {fmt: _renderer(fmt, width) for fmt, width in zip(formats, widths)}
    preamble = ["$timescale 1ns $end\n", "$scope module ram_arbiter $end\n"]
    records = []
    for i, ((name, _, _, _), width, fmt) in enumerate(zip(PINS, widths, formats)):
        vid = chr(33 + i)
        if width == 1:
            preamble.append(f"$var wire 1 {vid} {name} $end\n")
            records.append(f"{fmt}{vid}\n")
        else:
            preamble.append(f"$var wire {width} {vid} {name} [{width - 1}:0] $end\n")
            records.append(f"b{fmt} {vid}\n")
    # Power-on values: every pin 0, the channel states included (RESET is 0).
    preamble += ["$upscope $end\n", "$enddefinitions $end\n", "$dumpvars\n"]
    preamble += [record.format(0) for record in records]
    preamble.append("$end\n")
    return PinLayout(
        cells=tuple(cells[fmt] for fmt in formats),
        vcd_records=tuple(map(_renderer, records, widths)),
        vcd_preamble="".join(preamble),
        table_header="\t".join(["cycle", "time_ns"] + [name for name, _, _, _ in PINS]) + "\n",
    )


def check_assertions(trace: Trace, s: Scenario) -> AssertionReport:
    """Evaluate every assertion of a scenario against its trace; times map
    to edges by the clock of the scenario that the trace replayed."""
    results: list[AssertionResult] = []
    replayed, rows = trace
    n = len(rows)
    cells = _pin_layout(replayed.params.addr_width, replayed.params.data_width).cells
    for a in s.assertions:
        i = _PIN_INDEX[a.pin]
        if a.kind == "value":
            k = replayed.edge_for_time(a.time)
            if k >= n:
                results.append(AssertionResult(a, "out of range", False))
                continue
            observed = cells[i](rows[k][i])
            expected = {"high": "1", "low": "0"}.get(a.expected, a.expected)
            results.append(AssertionResult(a, observed, observed == expected))
        else:
            # A window a..b covers the edges whose times lie inside [a, b],
            # the first at or after a through the one before the first after
            # b: one that reaches past the last edge is out of range, and one
            # that falls between two edges of the run holds no edge.  The
            # parser allows pulses and quiet only on 1-bit pins, so the raw
            # value is the level.
            ka = replayed.edge_for_time(a.start)
            kb = replayed.edge_for_time(a.end + 1) - 1
            if ka >= n or kb >= n:
                results.append(AssertionResult(a, "out of range", False))
                continue
            if kb < ka:
                results.append(AssertionResult(a, "no edge in window", False))
                continue
            if a.kind == "pulses":
                rising = sum(
                    1
                    for k in range(max(ka, 1), kb + 1)
                    if not rows[k - 1][i] and rows[k][i]
                )
                results.append(
                    AssertionResult(a, f"{rising} rising edge(s)", rising >= 1)
                )
            else:  # quiet
                high = next((k for k in range(ka, kb + 1) if rows[k][i]), None)
                observed = "low throughout" if high is None else f"high at t={replayed.edge_time(high)}"
                results.append(AssertionResult(a, observed, high is None))
    return AssertionReport(tuple(results), all(r.passed for r in results))


# Each exporter writes at most this many table lines, or VCD ``#<time>``
# sections, in one call, so that the text held at once stays bounded.
_LINES_PER_WRITE = 1024


def write_vcd(trace: Trace, sink: IO[str]) -> None:
    """Emit a minimal VCD: header, initial values, then changes only.

    Scalars are 1-bit wires, buses are n-bit wires dumped as ``b<bits> <id>``
    records.  Power-on values populate the ``$dumpvars`` block, and the
    whole preamble and each pin's change record come from the widths'
    ``PinLayout``.  Each run of rows that are one object (equal rows of a
    replay are) then gives at its first row's edge time (row k is edge k,
    at ``trace.scenario.edge_time(k)``) a ``#<time>`` section of only the
    signals that differ from the run before it (the power-on values before
    the first run), in pieces of at most ``_LINES_PER_WRITE`` sections a
    write.

    A change block depends only on the pair (previous run's row, run's
    row), so a dict local to the call, keyed by the two rows' ``id()``,
    renders it once per distinct pair, and the period-2 and period-3 ack
    trains reuse a few blocks.  The trace keeps every row alive for the
    call, so no id is reused while the memo lives.  Reusing the text is
    byte-safe for the reasons that ``write_table`` gives.  Every builtin
    case has at most 16 distinct transitions, and as many when it runs 40
    times as long (``tests/test_trace.py`` checks both), so the memo grows
    with a scenario's events, not with its run length.
    """
    s, rows = trace
    layout = _pin_layout(s.params.addr_width, s.params.data_width)
    sink.write(layout.vcd_preamble)
    records = layout.vcd_records
    power_on = previous = (0,) * len(PINS)
    blocks: dict[tuple[int, int], str] = {}  # (id of previous row, id of row) -> changes
    sections = []
    # The first row of each run: each row that is not the row before it
    # (row 0 is never the power-on values).
    for k, row in compress(enumerate(rows), map(is_not, rows, chain((power_on,), rows))):
        pair = (id(previous), id(row))
        block = blocks.get(pair)
        if block is None:
            block = blocks[pair] = "".join([
                record(v) for record, v, o in zip(records, row, previous) if v != o
            ])
        # The block is empty only for a run equal to the one before it: a
        # first run that holds the power-on values, or, in a trace whose
        # equal rows are separate objects, a run that repeats the last one.
        # It writes nothing.
        if block:
            sections.append(f"#{s.edge_time(k)}\n{block}")
            if len(sections) == _LINES_PER_WRITE:
                sink.write("".join(sections))
                sections.clear()
        previous = row
    if sections:
        sink.write("".join(sections))


def write_table(trace: Trace, sink: IO[str]) -> None:
    """Tab-separated dump: header of signal names, one line per row.

    The header and each pin's cell come from the widths' ``PinLayout``.
    Row k is edge k, at ``trace.scenario.edge_time(k)``: its ``cycle`` and
    ``time_ns`` cells are the index and that time, counted off ranges.
    Each row object is rendered once per call, into a dict keyed by its
    ``id()`` (the trace keeps every row alive for the call), so the equal
    rows of a replay, which are one object, share one text; every row
    formats only its cycle and time, and the lines go to the sink in pieces
    of at most ``_LINES_PER_WRITE``, so the text held at once does not grow
    with the trace.  Reusing the text is byte-safe:

    - every cell is its value in binary at its pin's width, text that
      depends only on the value's int, so a row's text is a function of
      its values and not of which object holds them;
    - the rendered rows live inside one call; between traces only the
      widths' ``PinLayout`` is shared, the header and each pin's text for
      each of its values, which holds no trace's data.

    The rendered rows grow with a scenario's events, not with its run
    length: every builtin case replayed at 40 times its duration has at most
    13 distinct rows (``tests/test_trace.py`` checks that bound).
    """
    s, rows = trace
    layout = _pin_layout(s.params.addr_width, s.params.data_width)
    sink.write(layout.table_header)
    cells = layout.cells
    rendered = {
        key: "\t".join([cell(v) for cell, v in zip(cells, row)]) + "\n"
        for key, row in {id(row): row for row in rows}.items()
    }
    for first in range(0, len(rows), _LINES_PER_WRITE):
        stop = first + _LINES_PER_WRITE
        times = range(s.edge_time(first), s.edge_time(stop), s.clock_period)
        sink.write("".join([
            f"{k}\t{t}\t{rendered[id(row)]}"
            for k, t, row in zip(range(first, stop), times, rows[first:stop])
        ]))
