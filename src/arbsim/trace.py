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
from operator import attrgetter
from typing import IO, NamedTuple

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
        state, out = system_step(state, inputs)
        rows.append(TraceRow(cycle, t, inputs, out, state.arbiter))
    return Trace(s.params, s.clock_period, tuple(rows))


def _pin_formats(params: Params) -> list[str]:
    """The format of every pin, in PINS order: its value in binary at its
    width.  A level is a bool and a channel state an int code, so one rule
    covers every role."""
    return [f"{{:0{params.width(role)}b}}" for _, _, role, _ in PINS]


# The exporters read a whole row at once: one attrgetter over every pin's
# path, in PINS order.
_ROW_VALUES = attrgetter(*(path for _, _, _, path in PINS))


def check_assertions(trace: Trace, s: Scenario) -> AssertionReport:
    """Evaluate every assertion of a scenario against its trace."""
    results: list[AssertionResult] = []
    n = len(trace.rows)
    formats = _pin_formats(trace.params)
    for a in s.assertions:
        i = _PIN_INDEX[a.pin]
        sample = attrgetter(PINS[i][3])
        if a.kind == "value":
            k = trace.edge_for_time(a.time)
            if k >= n:
                results.append(AssertionResult(a, "out of range", False))
                continue
            observed = formats[i].format(sample(trace.rows[k]))
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
    records.  Power-on values populate the ``$dumpvars`` block; each trace
    row then contributes a ``#<time>`` section containing only the signals
    whose value differs from the previous row.
    """
    sink.write("$timescale 1ns $end\n")
    sink.write("$scope module ram_arbiter $end\n")
    records = []  # per pin, the format of its value-change record
    for i, ((name, _, role, _), fmt) in enumerate(zip(PINS, _pin_formats(trace.params))):
        vid = chr(33 + i)
        width = trace.params.width(role)
        if width == 1:
            sink.write(f"$var wire 1 {vid} {name} $end\n")
            records.append(f"{fmt}{vid}\n")
        else:
            sink.write(f"$var wire {width} {vid} {name} [{width - 1}:0] $end\n")
            records.append(f"b{fmt} {vid}\n")
    sink.write("$upscope $end\n")
    sink.write("$enddefinitions $end\n")

    # Power-on values: every pin 0, the channel states included (RESET is
    # code 0).  A row's cells are compared raw and formatted only on a change.
    current = (0,) * len(PINS)
    sink.write("$dumpvars\n")
    sink.writelines(record.format(0) for record in records)
    sink.write("$end\n")

    # A row equal to the one before it writes nothing, so it is skipped
    # whole before the per-pin walk; any other row changes at least one pin.
    for row in trace.rows:
        values = _ROW_VALUES(row)
        if values == current:
            continue
        sink.write(f"#{row.time}\n")
        sink.writelines([
            record.format(value)
            for record, value, old in zip(records, values, current)
            if value != old
        ])
        current = values


def write_table(trace: Trace, sink: IO[str]) -> None:
    """Tab-separated dump: header of signal names, one row per cycle.

    Each distinct row of pin values is rendered once per call; every row
    formats only its cycle and time.  Reusing the text is byte-safe:

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
    sink.write("\t".join(["cycle", "time_ns"] + [name for name, _, _, _ in PINS]) + "\n")
    cells = "\t".join(_pin_formats(trace.params)) + "\n"
    rendered: dict[tuple, str] = {}  # a row's pin values -> their cells
    for row in trace.rows:
        values = _ROW_VALUES(row)
        text = rendered.get(values)
        if text is None:
            text = rendered[values] = cells.format(*values)
        sink.write(f"{row.cycle}\t{row.time}\t{text}")
