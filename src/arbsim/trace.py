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
from typing import Callable, IO, Iterator, NamedTuple

from .arbiter import PINS, STATE_CODES, ArbiterState, ClientInputs, ClientOutputs
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


def _renderers(params: Params) -> list[Callable[[object], str]]:
    """One renderer per pin, in PINS order: levels as "0"/"1", address and
    data buses as binary strings of their width, channel states by
    STATE_CODES."""
    by_role = {
        "level": ("0", "1").__getitem__,
        "addr": f"{{:0{params.addr_width}b}}".format,
        "data": f"{{:0{params.data_width}b}}".format,
        "state": STATE_CODES.__getitem__,
    }
    return [by_role[role] for _, _, role, _ in PINS]


def _extractor(path: str, render: Callable[[object], str]) -> Callable[[TraceRow], str]:
    get = attrgetter(path)
    return lambda row: render(get(row))


def _signal_schema(params: Params) -> list[tuple[str, int, Callable[[TraceRow], str]]]:
    """(name, width, render that pin of a row) of every pin, in PINS order."""
    return [
        (name, params.width(role), _extractor(path, render))
        for (name, _, role, path), render in zip(PINS, _renderers(params))
    ]


# The exporters render a whole row at once: one attrgetter over every pin's
# path, then one formatter per cell, with no per-cell function call layer.
_ROW_VALUES = attrgetter(*(path for _, _, _, path in PINS))


def _rendered_rows(trace: Trace) -> Iterator[list[str]]:
    renders = _renderers(trace.params)
    for row in trace.rows:
        yield [render(v) for render, v in zip(renders, _ROW_VALUES(row))]


def check_assertions(trace: Trace, s: Scenario) -> AssertionReport:
    """Evaluate every assertion of a scenario against its trace."""
    results: list[AssertionResult] = []
    n = len(trace.rows)
    renders = _renderers(trace.params)
    for a in s.assertions:
        i = _PIN_INDEX[a.pin]
        sample = _extractor(PINS[i][3], renders[i])
        if a.kind == "value":
            k = trace.edge_for_time(a.time)
            if k >= n:
                results.append(AssertionResult(a, "out of range", False))
                continue
            observed = sample(trace.rows[k])
            expected = {"high": "1", "low": "0"}.get(a.expected, a.expected)
            results.append(AssertionResult(a, observed, observed == expected))
        else:
            # A window a..b covers the edges whose times lie inside [a, b].
            ka = trace.edge_for_time(a.start)
            kb = trace.last_edge_at_or_before(a.end)
            if ka >= n or kb >= n or kb < ka:
                results.append(AssertionResult(a, "out of range", False))
                continue
            if a.kind == "pulses":
                rising = sum(
                    1
                    for i in range(max(ka, 1), kb + 1)
                    if sample(trace.rows[i - 1]) == "0" and sample(trace.rows[i]) == "1"
                )
                results.append(
                    AssertionResult(a, f"{rising} rising edge(s)", rising >= 1)
                )
            else:  # quiet
                highs = [
                    row.time for row in trace.rows[ka : kb + 1] if sample(row) == "1"
                ]
                observed = f"high at t={highs[0]}" if highs else "low throughout"
                results.append(AssertionResult(a, observed, not highs))
    return AssertionReport(tuple(results), all(r.passed for r in results))


def _vcd_ids(count: int) -> list[str]:
    return [chr(33 + i) for i in range(count)]


def write_vcd(trace: Trace, sink: IO[str]) -> None:
    """Emit a minimal VCD: header, initial values, then changes only.

    Scalars are 1-bit wires, buses are n-bit wires dumped as ``b<bits> <id>``
    records.  Power-on values populate the ``$dumpvars`` block; each trace
    row then contributes a ``#<time>`` section containing only the signals
    whose value differs from the previous row.
    """
    schema = _signal_schema(trace.params)
    ids = _vcd_ids(len(schema))

    sink.write("$timescale 1ns $end\n")
    sink.write("$scope module ram_arbiter $end\n")
    for (name, width, _), vid in zip(schema, ids):
        if width == 1:
            sink.write(f"$var wire 1 {vid} {name} $end\n")
        else:
            sink.write(f"$var wire {width} {vid} {name} [{width - 1}:0] $end\n")
    sink.write("$upscope $end\n")
    sink.write("$enddefinitions $end\n")

    def record(vid: str, width: int, value: str) -> str:
        if width == 1:
            return f"{value}{vid}\n"
        return f"b{value} {vid}\n"

    # Power-on values: everything zero except the channel states, which
    # start in reset (itself the all-zero code).
    current = ["0" * width for (_, width, _) in schema]
    sink.write("$dumpvars\n")
    for (name, width, _), vid, value in zip(schema, ids, current):
        sink.write(record(vid, width, value))
    sink.write("$end\n")

    for row, values in zip(trace.rows, _rendered_rows(trace)):
        changes = [
            record(vid, width, value)
            for (_, width, _), vid, value, old in zip(schema, ids, values, current)
            if value != old
        ]
        current = values
        if changes:
            sink.write(f"#{row.time}\n")
            sink.writelines(changes)


def write_table(trace: Trace, sink: IO[str]) -> None:
    """Tab-separated dump: header of signal names, one row per cycle."""
    schema = _signal_schema(trace.params)
    sink.write("\t".join(["cycle", "time_ns"] + [name for name, _, _ in schema]) + "\n")
    for row, values in zip(trace.rows, _rendered_rows(trace)):
        sink.write("\t".join([str(row.cycle), str(row.time), *values]) + "\n")
