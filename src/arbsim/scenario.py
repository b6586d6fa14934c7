"""Timed-stimulus scripts in a small text format.

A scenario file drives the top-level input pins at given times and states
what the output pins must show.  Example::

    scenario smoke
    params addr=4 data=8 registered=0
    clock 50
    @100 RST_N = 1
    @600 WR_EN_C1 = 1
    @600 WRADDR_C1 = 1010
    @600 WRDATA_C1 = 10100011
    expect @1200 RST_DONE = high
    expect pulses ACK_C2 in 1000..2000
    expect quiet ACK_C2 in 2500..4000
    run 4000

`#` starts a comment.  Events at equal times apply in file order (later
lines win on the same pin).  An input assignment at time t takes effect at
the first rising clock edge at or after t; edge k occurs at
k*clock_period + clock_period/2, the clock starting low.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .arbiter import PINS
from .signals import Params, parse_word, WordParseError

# Pin name -> role ("level", "addr" or "data"), in PINS order.
INPUT_PINS: dict[str, str] = {name: role for name, d, role, _ in PINS if d == "in"}
OUTPUT_PINS: dict[str, str] = {name: role for name, d, role, _ in PINS if d == "out"}

# Widest address bus that a scenario's params line or ``fuzz --addr-width``
# accepts.  After reset the RAM zeroes one word per edge, so addr=20 is a
# sweep of 2**20 + 1 (about 1M) edges before any client access.
MAX_ADDR_WIDTH = 20
# Widest data bus that a scenario's params line or ``fuzz --data-width``
# accepts.  Each of the five data pins is a cell of its width in every
# exported row, so at both width caps a TSV row is 460 bytes plus its cycle
# and time columns: about 1 GB for a table of MAX_EDGES rows.
MAX_DATA_WIDTH = 64
# Most edges that a scenario's run line, and most measured cycles that
# ``fuzz --cycles``, may ask for: twice the sweep at MAX_ADDR_WIDTH.  The
# replay keeps every row, about 450 bytes each, so a run at the cap peaks
# near 0.95 GB; a campaign keeps no rows and at the cap takes tens of
# seconds rather than running until it is killed.
MAX_EDGES = 1 << 21
# Latest time that a clock, run, @t or expect line may name: the largest
# 64-bit VCD timestamp.  Its 19 digits bound a literal before int() sees it.
MAX_TIME = (1 << 63) - 1


class ScenarioParseError(ValueError):
    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True, slots=True)
class Event:
    time: int
    pin: str
    value: str  # binary string, already width-checked


@dataclass(frozen=True, slots=True)
class Assertion:
    """One expectation on an output pin.

    kind "value": pin sampled at the first edge at or after `time` must
    equal `expected` (binary string, or "high"/"low" for 1-bit pins).
    kind "pulses": at least one low-to-high transition inside start..end.
    kind "quiet": pin low at every edge inside start..end.
    """

    kind: str
    pin: str
    time: int = 0
    expected: str = ""
    start: int = 0
    end: int = 0

    def describe(self) -> str:
        if self.kind == "value":
            return f"expect @{self.time} {self.pin} = {self.expected}"
        return f"expect {self.kind} {self.pin} in {self.start}..{self.end}"


@dataclass(frozen=True)
class Scenario:
    name: str
    params: Params
    clock_period: int
    events: tuple[Event, ...]
    assertions: tuple[Assertion, ...]
    duration: int

    def num_edges(self) -> int:
        return -(-self.duration // self.clock_period)  # ceil division


_TIME_RE = re.compile(r"(-?)0*(\d{1,19})")
_EVENT_RE = re.compile(r"@(-?\d+)\s+(\w+)\s*=\s*(\S+)$")
_EXPECT_VALUE_RE = re.compile(r"expect\s+@(-?\d+)\s+(\w+)\s*=\s*(\S+)$")
_EXPECT_WINDOW_RE = re.compile(r"expect\s+(pulses|quiet)\s+(\w+)\s+in\s+(-?\d+)\.\.(-?\d+)$")


def _parse_time(text: str, line_no: int) -> int:
    """A time literal, ``-?\\d+`` by its line's regex, as an int in 0..MAX_TIME."""
    m = _TIME_RE.fullmatch(text)
    if m is None or int(m[2]) > MAX_TIME:
        shown = text if m else f"{text[:20]}... ({len(text)} characters)"
        raise ScenarioParseError(f"time {shown} is out of range 0..{MAX_TIME}", line_no)
    t = int(m[1] + m[2])
    if t < 0:
        raise ScenarioParseError(f"negative time {t}", line_no)
    return t


def parse_scenario(text: str) -> Scenario:
    """Parse scenario source text; raise ScenarioParseError with a line number."""
    name: str | None = None
    params: Params | None = None
    clock: int | None = None
    events: list[Event] = []
    assertions: list[Assertion] = []
    duration: int | None = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue

        if line.startswith("scenario "):
            if name is not None:
                raise ScenarioParseError("duplicate scenario line", line_no)
            name = line.split(None, 1)[1].strip()
            continue

        if line.startswith("params "):
            if params is not None:
                raise ScenarioParseError("duplicate params line", line_no)
            m = re.fullmatch(
                r"params\s+addr=(\d+)\s+data=(\d+)\s+registered=([01])", line
            )
            if not m:
                raise ScenarioParseError(f"bad params line: {line!r}", line_no)
            try:
                params = Params(int(m.group(1)), int(m.group(2)), m.group(3) == "1")
            except ValueError as exc:
                raise ScenarioParseError(str(exc), line_no) from exc
            if params.addr_width > MAX_ADDR_WIDTH:
                raise ScenarioParseError(
                    f"addr={params.addr_width} is wider than the maximum {MAX_ADDR_WIDTH}",
                    line_no,
                )
            if params.data_width > MAX_DATA_WIDTH:
                raise ScenarioParseError(
                    f"data={params.data_width} is wider than the maximum {MAX_DATA_WIDTH}",
                    line_no,
                )
            continue

        if line.startswith("clock "):
            if clock is not None:
                raise ScenarioParseError("duplicate clock line", line_no)
            m = re.fullmatch(r"clock\s+(\d+)", line)
            if not m:
                raise ScenarioParseError(f"bad clock line: {line!r}", line_no)
            clock = _parse_time(m.group(1), line_no)
            if clock == 0:
                raise ScenarioParseError(f"bad clock line: {line!r}", line_no)
            continue

        if line.startswith("run "):
            m = re.fullmatch(r"run\s+(\d+)", line)
            if not m:
                raise ScenarioParseError(f"bad run line: {line!r}", line_no)
            if duration is not None:
                raise ScenarioParseError("duplicate run line", line_no)
            duration, run_line = _parse_time(m.group(1), line_no), line_no
            continue

        if line.startswith("@"):
            if params is None:
                raise ScenarioParseError("event before params line", line_no)
            m = _EVENT_RE.fullmatch(line)
            if not m:
                raise ScenarioParseError(f"bad event line: {line!r}", line_no)
            t, pin, value = _parse_time(m.group(1), line_no), m.group(2), m.group(3)
            if pin not in INPUT_PINS:
                raise ScenarioParseError(f"unknown input pin {pin!r}", line_no)
            if events and t < events[-1].time:
                raise ScenarioParseError(
                    f"event time {t} before previous event at {events[-1].time}",
                    line_no,
                )
            width = params.width(INPUT_PINS[pin])
            try:
                parse_word(value, width)
            except WordParseError as exc:
                raise ScenarioParseError(f"pin {pin}: {exc}", line_no) from exc
            events.append(Event(t, pin, value))
            continue

        if line.startswith("expect "):
            if params is None:
                raise ScenarioParseError("expect before params line", line_no)
            m = _EXPECT_VALUE_RE.fullmatch(line)
            if m:
                t, pin, expected = _parse_time(m.group(1), line_no), m.group(2), m.group(3)
                if pin not in OUTPUT_PINS:
                    raise ScenarioParseError(f"unknown output pin {pin!r}", line_no)
                width = params.width(OUTPUT_PINS[pin])
                if expected in ("high", "low"):
                    if width != 1:
                        raise ScenarioParseError(
                            f"symbolic value on {width}-bit pin {pin}", line_no
                        )
                else:
                    try:
                        parse_word(expected, width)
                    except WordParseError as exc:
                        raise ScenarioParseError(f"pin {pin}: {exc}", line_no) from exc
                assertions.append(
                    Assertion(kind="value", pin=pin, time=t, expected=expected)
                )
                continue
            m = _EXPECT_WINDOW_RE.fullmatch(line)
            if m:
                kind, pin = m.group(1), m.group(2)
                start, end = _parse_time(m.group(3), line_no), _parse_time(m.group(4), line_no)
                if pin not in OUTPUT_PINS:
                    raise ScenarioParseError(f"unknown output pin {pin!r}", line_no)
                if params.width(OUTPUT_PINS[pin]) != 1:
                    raise ScenarioParseError(f"{kind} needs a 1-bit pin, got {pin}", line_no)
                if start < 0 or end < start:
                    raise ScenarioParseError(f"bad window {start}..{end}", line_no)
                assertions.append(Assertion(kind=kind, pin=pin, start=start, end=end))
                continue
            raise ScenarioParseError(f"bad expect line: {line!r}", line_no)

        raise ScenarioParseError(f"unrecognized line: {line!r}", line_no)

    if name is None:
        raise ScenarioParseError("missing scenario line", 1)
    if params is None:
        raise ScenarioParseError("missing params line", 1)
    if duration is None:
        raise ScenarioParseError("missing run line", 1)
    clock = 100 if clock is None else clock
    s = Scenario(name, params, clock, tuple(events), tuple(assertions), duration)
    if s.num_edges() > MAX_EDGES:
        raise ScenarioParseError(
            f"run {duration} at clock {clock} is {s.num_edges()} edges,"
            f" more than the maximum {MAX_EDGES}",
            run_line,
        )
    # Every edge's time is exported, and the last one lands half a clock
    # after the last full period that the run starts.
    last = (s.num_edges() - 1) * clock + clock // 2
    if last > MAX_TIME:
        raise ScenarioParseError(
            f"run {duration} at clock {clock} stamps its last edge at {last},"
            f" later than the maximum time {MAX_TIME}",
            run_line,
        )
    return s


def render_scenario(s: Scenario) -> str:
    """Render a scenario back to source text; re-parsing yields an equal value."""
    lines = [
        f"scenario {s.name}",
        "params addr={} data={} registered={}".format(
            s.params.addr_width,
            s.params.data_width,
            1 if s.params.registered_output else 0,
        ),
        f"clock {s.clock_period}",
    ]
    lines += [f"@{e.time} {e.pin} = {e.value}" for e in s.events]
    lines += [a.describe() for a in s.assertions]
    lines.append(f"run {s.duration}")
    return "\n".join(lines) + "\n"
