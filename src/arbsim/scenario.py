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
the first rising clock edge at or after t; ``Scenario.edge_time`` states
when edge k occurs, and every time of a replay and its exports is mapped
by it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

from .arbiter import PINS
from .signals import Params, parse_word, WordParseError

# Pin name -> role ("level", "addr" or "data"), in PINS order.
INPUT_PINS: dict[str, str] = {name: role for name, d, role, _ in PINS if d == "in"}
OUTPUT_PINS: dict[str, str] = {name: role for name, d, role, _ in PINS if d == "out"}

# The widest buses that check_widths lets a scenario's params line or
# ``fuzz`` ask for.  After reset the RAM zeroes one word per edge, so addr=20
# is a sweep of 2**20 + 1 (about 1M) edges before any client access.
MAX_ADDR_WIDTH = 20
# Each of the five data pins is a cell of its width in every exported row,
# so at both width caps a TSV row is 460 bytes plus its cycle and time
# columns: about 1 GB for a table of MAX_EDGES rows.
MAX_DATA_WIDTH = 64
# Most edges that a scenario's run line, and most measured cycles that
# ``fuzz --cycles``, may ask for: twice the sweep at MAX_ADDR_WIDTH.  A replay
# keeps every row, but equal rows are one tuple, so a row costs one 8-byte
# reference; the exporters keep text per distinct row or transition only.
# With the check and both exports, a client2 write train of 2**20 edges
# peaked at 32 MB of RSS and one at the cap at 48 MB (CPython 3.11).  A
# campaign keeps no rows and at the cap takes tens of seconds, not forever.
MAX_EDGES = 1 << 21
# Most characters a scenario file may hold; ``arbsim run --file`` reads one
# more and stops, so a file such as /dev/zero costs no more than this.  The
# largest builtin case renders to 667; parsing a 1 MiB file of 35,690 events
# took 0.26 s and peaked at 27 MB of RSS (CPython 3.11).
MAX_SCENARIO_CHARS = 1 << 20
# Latest time that a clock, run, @t or expect line may name: the largest
# 64-bit VCD timestamp.  Its 19 digits bound a literal before int() sees it.
MAX_TIME = (1 << 63) - 1


class ScenarioParseError(ValueError):
    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class Event(NamedTuple):
    time: int
    pin: str
    value: str  # binary string, already width-checked


class Assertion(NamedTuple):
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
    """One parsed scenario file: its params, clock, pin events and expectations."""

    name: str
    params: Params
    clock_period: int
    events: tuple[Event, ...]
    assertions: tuple[Assertion, ...]
    duration: int

    def num_edges(self) -> int:
        return -(-self.duration // self.clock_period)  # ceil division

    def edge_time(self, k: int) -> int:
        """Time of rising edge k: the clock starts low, so it rises half a
        period (rounded down) into each period."""
        return k * self.clock_period + self.clock_period // 2

    def edge_for_time(self, t: int) -> int:
        """Index of the first rising edge at or after time t >= 0 (edge 0
        is less than a period in, so no time maps below it)."""
        return -(-(t - self.edge_time(0)) // self.clock_period)  # ceil division


def check_widths(params: Params) -> None:
    """Raise ValueError if a bus of ``params`` is wider than its cap."""
    for name, cap in (("addr_width", MAX_ADDR_WIDTH), ("data_width", MAX_DATA_WIDTH)):
        width = getattr(params, name)
        if width > cap:
            raise ValueError(f"{name} {width} is wider than the maximum {cap}")


# Numbers are ASCII digits, [0-9]: \d would also match the digits of other scripts.
_TIME_RE = re.compile(r"(-?)0*([0-9]{1,19})")
_EVENT_RE = re.compile(r"@(-?[0-9]+)\s+(\w+)\s*=\s*(\S+)$")
_EXPECT_VALUE_RE = re.compile(r"expect\s+@(-?[0-9]+)\s+(\w+)\s*=\s*(\S+)$")
_EXPECT_WINDOW_RE = re.compile(r"expect\s+(pulses|quiet)\s+(\w+)\s+in\s+(-?[0-9]+)\.\.(-?[0-9]+)$")
# Header keyword -> the whole line's pattern.  A line is a header only when
# a space follows its keyword, and each header may appear once.
_HEADER_RES = {
    "scenario": re.compile(r"scenario\s+(.+)"),
    "params": re.compile(r"params\s+addr=([0-9]+)\s+data=([0-9]+)\s+registered=([01])"),
    "clock": re.compile(r"clock\s+(0*[1-9][0-9]*)"),
    "run": re.compile(r"run\s+([0-9]+)"),
}
_PIN_ROLES = {"input": INPUT_PINS, "output": OUTPUT_PINS}


def _parse_time(text: str, line_no: int) -> int:
    """A time literal, ``-?[0-9]+`` by its line's regex, as an int in 0..MAX_TIME."""
    m = _TIME_RE.fullmatch(text)
    if m is None or int(m[2]) > MAX_TIME:
        shown = text if m else f"{text[:20]}... ({len(text)} characters)"
        raise ScenarioParseError(f"time {shown} is out of range 0..{MAX_TIME}", line_no)
    t = int(m[1] + m[2])
    if t < 0:
        raise ScenarioParseError(f"negative time {t}", line_no)
    return t


def _pin_width(params: Params, direction: str, pin: str, line_no: int) -> int:
    """Bits of the ``direction`` ("input" or "output") pin named ``pin``."""
    pins = _PIN_ROLES[direction]
    if pin not in pins:
        raise ScenarioParseError(f"unknown {direction} pin {pin!r}", line_no)
    return params.width(pins[pin])


def _check_word(text: str, width: int, pin: str, line_no: int) -> None:
    try:
        parse_word(text, width)
    except WordParseError as exc:
        raise ScenarioParseError(f"pin {pin}: {exc}", line_no) from exc


def parse_scenario(text: str) -> Scenario:
    """Parse scenario source text; raise ScenarioParseError with a line number."""
    head: dict = {}  # header keyword -> its value: name, Params or time
    head_line: dict[str, int] = {}
    events: list[Event] = []
    assertions: list[Assertion] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue

        kw, space, _ = line.partition(" ")
        if space and kw in _HEADER_RES:
            if kw in head:
                raise ScenarioParseError(f"duplicate {kw} line", line_no)
            m = _HEADER_RES[kw].fullmatch(line)
            if m is None:
                raise ScenarioParseError(f"bad {kw} line: {line!r}", line_no)
            if kw == "params":
                try:
                    head[kw] = Params(int(m[1]), int(m[2]), m[3] == "1")
                    check_widths(head[kw])
                except ValueError as exc:
                    raise ScenarioParseError(str(exc), line_no) from exc
            else:
                head[kw] = m[1] if kw == "scenario" else _parse_time(m[1], line_no)
            head_line[kw] = line_no
            continue

        params = head.get("params")
        if params is None and line.startswith(("@", "expect ")):
            what = "event" if line.startswith("@") else "expect"
            raise ScenarioParseError(f"{what} before params line", line_no)
        if line.startswith("@"):
            m = _EVENT_RE.fullmatch(line)
            if not m:
                raise ScenarioParseError(f"bad event line: {line!r}", line_no)
            t, pin, value = _parse_time(m[1], line_no), m[2], m[3]
            width = _pin_width(params, "input", pin, line_no)
            if events and t < events[-1].time:
                raise ScenarioParseError(
                    f"event time {t} before previous event at {events[-1].time}",
                    line_no,
                )
            _check_word(value, width, pin, line_no)
            events.append(Event(t, pin, value))
            continue

        if line.startswith("expect "):
            m = _EXPECT_VALUE_RE.fullmatch(line)
            if m:
                t, pin, expected = _parse_time(m[1], line_no), m[2], m[3]
                width = _pin_width(params, "output", pin, line_no)
                if expected not in ("high", "low"):
                    _check_word(expected, width, pin, line_no)
                elif width != 1:
                    raise ScenarioParseError(f"symbolic value on {width}-bit pin {pin}", line_no)
                assertions.append(Assertion(kind="value", pin=pin, time=t, expected=expected))
                continue
            m = _EXPECT_WINDOW_RE.fullmatch(line)
            if not m:
                raise ScenarioParseError(f"bad expect line: {line!r}", line_no)
            kind, pin = m[1], m[2]
            start, end = _parse_time(m[3], line_no), _parse_time(m[4], line_no)
            if _pin_width(params, "output", pin, line_no) != 1:
                raise ScenarioParseError(f"{kind} needs a 1-bit pin, got {pin}", line_no)
            if end < start:
                raise ScenarioParseError(f"bad window {start}..{end}", line_no)
            assertions.append(Assertion(kind=kind, pin=pin, start=start, end=end))
            continue

        raise ScenarioParseError(f"unrecognized line: {line!r}", line_no)

    for kw in ("scenario", "params", "run"):
        if kw not in head:
            raise ScenarioParseError(f"missing {kw} line", 1)
    duration, clock = head["run"], head.get("clock", 100)
    s = Scenario(head["scenario"], head["params"], clock, tuple(events), tuple(assertions), duration)
    if s.num_edges() > MAX_EDGES:
        raise ScenarioParseError(
            f"run {duration} at clock {clock} is {s.num_edges()} edges,"
            f" more than the maximum {MAX_EDGES}",
            head_line["run"],
        )
    # Every edge's time is exported, so the last one must fit a timestamp.
    last = s.edge_time(s.num_edges() - 1)
    if last > MAX_TIME:
        raise ScenarioParseError(
            f"run {duration} at clock {clock} stamps its last edge at {last},"
            f" later than the maximum time {MAX_TIME}",
            head_line["run"],
        )
    return s


def render_scenario(s: Scenario) -> str:
    """Render a scenario back to source text; re-parsing yields an equal
    value.  A scenario that its text would not reproduce, such as one whose
    name holds a ``#`` or a line break, raises ValueError."""
    p = s.params
    lines = [
        f"scenario {s.name}",
        f"params addr={p.addr_width} data={p.data_width} registered={int(p.registered_output)}",
        f"clock {s.clock_period}",
    ]
    lines += [f"@{e.time} {e.pin} = {e.value}" for e in s.events]
    lines += [a.describe() for a in s.assertions]
    lines.append(f"run {s.duration}")
    text = "\n".join(lines) + "\n"
    try:
        reproduced = parse_scenario(text) == s
    except ScenarioParseError:
        reproduced = False
    if not reproduced:
        raise ValueError(f"scenario {s.name!r} does not render to text that parses back to it")
    return text
