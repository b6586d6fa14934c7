"""Per-cycle recording, assertion evaluation, and waveform export.

A trace holds one row per rising clock edge: the inputs sampled at that
edge, the post-edge outputs and the post-edge arbiter state, whose drive
registers, channel states and clash flag are the probed signals.
Rows are stamped with the edge time ``cycle * clock_period + clock_period/2``
(the clock starts low).  Traces export to IEEE-1364-style VCD and to a
tab-separated table.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import IO, Iterator, NamedTuple

from .arbiter import PINS, ArbiterState, ClientInputs, ClientOutputs
from .scenario import Assertion, Scenario
from .signals import LOW, Params, parse_word
from .system import SystemState, system_new, system_step


class TraceRow(NamedTuple):
    cycle: int
    time: int
    inputs: ClientInputs
    outputs: ClientOutputs
    arbiter: ArbiterState


@dataclass(frozen=True)
class Trace:
    params: Params
    clock_period: int
    rows: tuple[TraceRow, ...]

    def edge_for_time(self, t: int) -> int:
        """Index of the first rising edge at or after time t."""
        half = self.clock_period // 2
        if t <= half:
            return 0
        return -(-(t - half) // self.clock_period)

    def last_edge_at_or_before(self, t: int) -> int:
        """Index of the last rising edge at or before time t (-1 if none)."""
        half = self.clock_period // 2
        if t < half:
            return -1
        return (t - half) // self.clock_period


@dataclass(frozen=True, slots=True)
class AssertionResult:
    assertion: Assertion
    observed: str
    passed: bool


@dataclass(frozen=True)
class AssertionReport:
    results: tuple[AssertionResult, ...]
    passed: bool

    def failures(self) -> list[AssertionResult]:
        return [r for r in self.results if not r.passed]


# Input pin name -> (ClientInputs field, role).
_EVENT_FIELDS = {n: (p.split(".")[1], r) for n, d, r, p in PINS if d == "in"}
# Pin name -> its index in PINS.
_PIN_INDEX = {name: i for i, (name, _, _, _) in enumerate(PINS)}


def _apply_event(inputs: ClientInputs, pin: str, value: str) -> ClientInputs:
    field, role = _EVENT_FIELDS[pin]
    if role == "level":
        return inputs._replace(**{field: value == "1"})
    return inputs._replace(**{field: parse_word(value, len(value)).value})


def run_scenario(s: Scenario) -> Trace:
    """Replay a scenario's event timeline and record every edge.

    An input assignment at time t takes effect at the first rising edge
    whose time is >= t; assignments at equal times apply in file order, so
    a later line on the same pin wins.
    """
    state: SystemState = system_new(s.params)
    inputs = ClientInputs.quiet(rst_n=LOW)
    half = s.clock_period // 2
    rows: list[TraceRow] = []
    idx = 0
    for cycle in range(s.num_edges()):
        t = cycle * s.clock_period + half
        while idx < len(s.events) and s.events[idx].time <= t:
            ev = s.events[idx]
            inputs = _apply_event(inputs, ev.pin, ev.value)
            idx += 1
        state, out = system_step(state, inputs, s.params)
        rows.append(tuple.__new__(TraceRow, (cycle, t, inputs, out, state.arbiter)))
    return Trace(s.params, s.clock_period, tuple(rows))


def _pin_format(params: Params, role: str) -> str:
    """The format of a pin of this role: its value in binary at the role's
    width.  A level is a bool and a channel state an int code, so one rule
    covers every role, for the checker and both exporters alike."""
    return f"{{:0{params.width(role)}b}}"


# The exporters read a row as its pin values in PINS order: the input and
# output records whole, then the probes picked from the arbiter state by
# index, at less than half the cost of one attrgetter over every dotted
# path.  That holds only while PINS lists the ClientInputs fields, then the
# ClientOutputs fields, each in field order, then the probes, so it is
# checked here (by a raise, which -O keeps).
_IO_PINS = [("in", f"inputs.{field}") for field in ClientInputs._fields]
_IO_PINS += [("out", f"outputs.{field}") for field in ClientOutputs._fields]
_PROBE_PINS = PINS[len(_IO_PINS) :]
if [(d, path) for _, d, _, path in PINS[: len(_IO_PINS)]] != _IO_PINS or any(
    d != "probe" or not path.startswith("arbiter.") for _, d, _, path in _PROBE_PINS
):
    raise RuntimeError("PINS must list the ClientInputs, then the ClientOutputs fields, then the probes")
_PROBES = itemgetter(*[
    ArbiterState._fields.index(path.removeprefix("arbiter.")) for _, _, _, path in _PROBE_PINS
])


def _runs(rows: tuple[TraceRow, ...]) -> Iterator[tuple[int, int, int, tuple]]:
    """Walk rows as maximal runs of equal pin values: ``(start, stop, key,
    values)`` for each run ``rows[start:stop]``, where ``key`` numbers the
    distinct values in the order they first appear (0, 1, 2, ...).  Only
    the distinct values are kept, so memory grows with them and not with
    the run length."""
    keys: dict[tuple, int] = {}
    start, key, values = 0, 0, None
    for stop, row in enumerate(rows):
        row_values = row.inputs + row.outputs + _PROBES(row.arbiter)
        if row_values != values:
            if stop:
                yield start, stop, key, values
            start, values = stop, row_values
            key = keys.setdefault(values, len(keys))
    if rows:
        yield start, len(rows), key, values


def check_assertions(trace: Trace, s: Scenario) -> AssertionReport:
    """Evaluate every assertion of a scenario against its trace."""
    results: list[AssertionResult] = []
    n = len(trace.rows)
    for a in s.assertions:
        _, _, role, path = PINS[_PIN_INDEX[a.pin]]
        sample = attrgetter(path)
        if a.kind == "value":
            k = trace.edge_for_time(a.time)
            if k >= n:
                results.append(AssertionResult(a, "out of range", False))
                continue
            observed = _pin_format(trace.params, role).format(sample(trace.rows[k]))
            expected = {"high": "1", "low": "0"}.get(a.expected, a.expected)
            results.append(AssertionResult(a, observed, observed == expected))
        else:
            # A window a..b covers the edges whose times lie inside [a, b].
            # The parser allows pulses and quiet only on 1-bit pins, so the
            # raw value is the level.
            ka = trace.edge_for_time(a.start)
            kb = trace.last_edge_at_or_before(a.end)
            if ka >= n or kb >= n or kb < ka:
                results.append(AssertionResult(a, "out of range", False))
                continue
            if a.kind == "pulses":
                rising = sum(
                    1
                    for k in range(max(ka, 1), kb + 1)
                    if not sample(trace.rows[k - 1]) and sample(trace.rows[k])
                )
                results.append(
                    AssertionResult(a, f"{rising} rising edge(s)", rising >= 1)
                )
            else:  # quiet
                highs = [row.time for row in trace.rows[ka : kb + 1] if sample(row)]
                observed = f"high at t={highs[0]}" if highs else "low throughout"
                results.append(AssertionResult(a, observed, not highs))
    return AssertionReport(tuple(results), all(r.passed for r in results))


def write_vcd(trace: Trace, sink: IO[str]) -> None:
    """Emit a minimal VCD: header, initial values, then changes only.

    Scalars are 1-bit wires, buses are n-bit wires dumped as ``b<bits> <id>``
    records.  Power-on values populate the ``$dumpvars`` block; each run of
    equal rows (``_runs``) then contributes, at its first row's time, a
    ``#<time>`` section of only the signals that differ from the run before
    it (the power-on values before the first run).

    A change block depends only on the pair (previous run's values, run's
    values), so it is rendered once per distinct pair: a dict local to the
    call maps the pair of run keys to its block, and the period-2 and
    period-3 ack trains reuse the same few blocks.  Reusing the text is
    byte-safe for the reasons that ``write_table`` gives.  Every builtin
    case has at most 16 distinct transitions, and as many when it runs 40
    times as long (``tests/test_trace.py`` checks both), so the memo grows
    with a scenario's events, not with its run length.
    """
    params = trace.params
    header = ["$timescale 1ns $end\n", "$scope module ram_arbiter $end\n"]
    records = []  # per pin, the format of its value-change record
    for i, (name, _, role, _) in enumerate(PINS):
        vid, width, fmt = chr(33 + i), params.width(role), _pin_format(params, role)
        if width == 1:
            header.append(f"$var wire 1 {vid} {name} $end\n")
            records.append(f"{fmt}{vid}\n")
        else:
            header.append(f"$var wire {width} {vid} {name} [{width - 1}:0] $end\n")
            records.append(f"b{fmt} {vid}\n")
    # Power-on values: every pin 0, the channel states included (RESET is
    # code 0).
    header += ["$upscope $end\n", "$enddefinitions $end\n", "$dumpvars\n"]
    header += [record.format(0) for record in records]
    sink.write("".join(header) + "$end\n")

    rows = trace.rows
    blocks: dict[tuple[int, int], str] = {}  # (previous key, key) -> changes
    previous, old = -1, (0,) * len(PINS)  # key -1: the power-on values
    for start, _, key, values in _runs(rows):
        block = blocks.get((previous, key))
        if block is None:
            block = "".join([record.format(v) for record, v, o in zip(records, values, old) if v != o])
            # A run differs from the run before it, so the block is empty
            # only for a first run that holds the power-on values; it writes
            # nothing and is not kept.
            if block:
                blocks[previous, key] = block
        if block:
            sink.write(f"#{rows[start].time}\n{block}")
        previous, old = key, values


# write_table writes a run of equal rows in pieces of at most this many
# lines; the corpus's longest run has 61.
_LINES_PER_WRITE = 1024


def write_table(trace: Trace, sink: IO[str]) -> None:
    """Tab-separated dump: header of signal names, one row per cycle.

    Each distinct row of pin values is rendered once per call, when its run
    key (``_runs``) first appears; every row formats only its cycle and
    time, and a run's lines go to the sink in one write (one per
    ``_LINES_PER_WRITE`` lines of a longer run, so that the text held at
    once does not grow with the run length).  Reusing the text is
    byte-safe:

    - every cell is its value in binary at its pin's width, text that
      depends only on the value's int;
    - the values are bools, ints and ``ChannelState`` members (an
      ``IntEnum``), so tuple ``==`` and ``hash`` are int equality, and
      equal keys render equal text;
    - widths differ between traces, so the memo lives inside one call and
      nothing is cached between calls.

    The memo grows with a scenario's events, not with its run length: every
    builtin case replayed at 40 times its duration has at most 13 distinct
    rows (``tests/test_trace.py`` checks that bound).
    """
    rows = trace.rows
    sink.write("\t".join(["cycle", "time_ns"] + [name for name, _, _, _ in PINS]) + "\n")
    cells = "\t".join([_pin_format(trace.params, role) for _, _, role, _ in PINS]) + "\n"
    rendered: list[str] = []  # run key -> the cells of its values
    for start, stop, key, values in _runs(rows):
        if key == len(rendered):
            rendered.append(cells.format(*values))
        text = rendered[key]
        for first in range(start, stop, _LINES_PER_WRITE):
            piece = rows[first : min(first + _LINES_PER_WRITE, stop)]
            sink.write("".join([f"{row.cycle}\t{row.time}\t{text}" for row in piece]))
