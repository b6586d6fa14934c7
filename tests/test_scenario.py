"""Scenario text format and the builtin corpus transcription."""

from dataclasses import replace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from arbsim import Params, Scenario, ScenarioParseError, builtin_by_name, builtin_scenarios, parse_scenario, render_scenario
from arbsim import corpus
from arbsim.scenario import INPUT_PINS, MAX_ADDR_WIDTH, MAX_DATA_WIDTH, MAX_EDGES, MAX_TIME

GOOD = """\
scenario smoke
params addr=4 data=8 registered=0
clock 50
@100 RST_N = 1
@600 WR_EN_C1 = 1            # client1 asks to write
@600 WRADDR_C1 = 1010
@600 WRDATA_C1 = 10100011
expect @2500 RDDATA_C1 = 10100011
expect pulses ACK_C2 in 1000..2000
expect quiet ACK_C2 in 3000..3900
run 4000
"""


class TestParse:
    def test_good_scenario(self):
        s = parse_scenario(GOOD)
        assert s.name == "smoke"
        assert s.params.addr_width == 4 and s.params.data_width == 8
        assert s.clock_period == 50
        assert s.duration == 4000
        assert [(e.time, e.pin, e.value) for e in s.events] == [
            (100, "RST_N", "1"),
            (600, "WR_EN_C1", "1"),
            (600, "WRADDR_C1", "1010"),
            (600, "WRDATA_C1", "10100011"),
        ]
        kinds = [a.kind for a in s.assertions]
        assert kinds == ["value", "pulses", "quiet"]

    def test_event_applies_write_enable(self):
        s = parse_scenario(
            "scenario t\nparams addr=4 data=8 registered=0\n@600 WR_EN_C1 = 1\nrun 1000\n"
        )
        assert s.events == (type(s.events[0])(600, "WR_EN_C1", "1"),)

    def test_empty_event_list_only_ticks(self):
        s = parse_scenario("scenario t\nparams addr=4 data=8 registered=0\nrun 100\n")
        assert s.events == ()
        assert s.num_edges() == 1

    def test_expect_value_assertion(self):
        s = parse_scenario(
            "scenario t\nparams addr=4 data=8 registered=0\n"
            "expect @2500 RDDATA_C1 = 10100011\nrun 3000\n"
        )
        a = s.assertions[0]
        assert (a.kind, a.time, a.pin, a.expected) == ("value", 2500, "RDDATA_C1", "10100011")

    def test_default_clock_is_100(self):
        s = parse_scenario("scenario t\nparams addr=4 data=8 registered=0\nrun 1000\n")
        assert s.clock_period == 100


def clocked(period):
    """A scenario of this clock period and nothing else."""
    return Scenario("clock", Params(4, 8), period, (), (), period)


class TestClockRule:
    """``Scenario.edge_time`` states when each rising edge occurs, and every
    time of a replay maps to an edge through ``edge_for_time``.  Both are
    checked here against the rule written out, at every period and time."""

    @given(st.integers(1, 1000), st.integers(0, 10**6))
    @example(7, 3)  # an odd period's first edge, its half rounded down
    @example(7, 4)
    @example(50, 25)
    def test_edge_for_time_is_the_first_edge_at_or_after(self, period, t):
        s = clocked(period)
        k = s.edge_for_time(t)
        assert k >= 0
        assert s.edge_time(k) == k * period + period // 2 >= t
        assert k == 0 or s.edge_time(k - 1) == (k - 1) * period + period // 2 < t

    # A window a..a+width from one time to three periods at the longest
    # clock: at a long clock many hold no edge, at a short one many edges.
    @given(st.integers(1, 1000), st.integers(0, 10**6), st.integers(0, 3000))
    @example(100, 0, 49)  # before the first edge
    @example(100, 51, 98)  # between two edges
    @example(7, 3, 0)  # one edge, at both ends
    def test_a_window_holds_exactly_the_edges_inside_it(self, period, a, width):
        b = a + width
        s = clocked(period)
        first, stop = s.edge_for_time(a), s.edge_for_time(b + 1)
        # Edge times rise with k, so the edges inside [a, b] are one run of
        # indices: check it and its two neighbours outside it.
        near = range(max(0, first - 2), stop + 2)
        inside = [k for k in near if a <= k * period + period // 2 <= b]
        assert list(range(first, stop)) == inside
        assert first == 0 or (first - 1) * period + period // 2 < a
        assert stop * period + period // 2 > b


class TestParseErrors:
    def check(self, text, match, line_no):
        with pytest.raises(ScenarioParseError, match=match) as err:
            parse_scenario(text)
        assert err.value.line_no == line_no

    def test_unknown_pin(self):
        self.check(
            "scenario t\nparams addr=4 data=8 registered=0\n@100 BOGUS = 1\nrun 500\n",
            "unknown input pin", 3,
        )

    def test_width_mismatch(self):
        self.check(
            "scenario t\nparams addr=4 data=8 registered=0\n@100 WRADDR_C1 = 101\nrun 500\n",
            "expected 4 binary digits", 3,
        )

    def test_unsorted_event_times(self):
        self.check(
            "scenario t\nparams addr=4 data=8 registered=0\n"
            "@200 RST_N = 1\n@100 RST_N = 0\nrun 500\n",
            "before previous event", 4,
        )

    def test_negative_time(self):
        self.check(
            "scenario t\nparams addr=4 data=8 registered=0\n@-5 RST_N = 1\nrun 500\n",
            "negative time", 3,
        )

    def test_missing_run(self):
        with pytest.raises(ScenarioParseError, match="missing run"):
            parse_scenario("scenario t\nparams addr=4 data=8 registered=0\n")

    def test_unknown_output_pin_in_expect(self):
        self.check(
            "scenario t\nparams addr=4 data=8 registered=0\n"
            "expect @100 WR_EN_C1 = 1\nrun 500\n",
            "unknown output pin", 3,
        )

    def test_illegal_binary_value(self):
        self.check(
            "scenario t\nparams addr=4 data=8 registered=0\n@100 WRDATA_C1 = 1010x011\nrun 500\n",
            "illegal character", 3,
        )

    def test_second_params_line(self):
        # The earlier events were width-checked against the first params line.
        self.check(
            "scenario t\nparams addr=4 data=8 registered=0\n@100 WRADDR_C1 = 1010\n"
            "params addr=2 data=8 registered=0\nrun 500\n",
            "duplicate params line", 4,
        )

    def test_second_clock_line(self):
        self.check(
            "scenario t\nparams addr=4 data=8 registered=0\nclock 50\n@100 RST_N = 1\n"
            "clock 20\nrun 500\n",
            "duplicate clock line", 5,
        )

    def test_addr_width_capped(self):
        text = "scenario t\nparams addr={} data=8 registered=0\nrun 500\n"
        assert parse_scenario(text.format(MAX_ADDR_WIDTH)).params.addr_width == MAX_ADDR_WIDTH
        self.check(text.format(MAX_ADDR_WIDTH + 1), f"wider than the maximum {MAX_ADDR_WIDTH}", 2)

    def test_data_width_capped(self):
        text = "scenario t\nparams addr=4 data={} registered=0\nrun 500\n"
        assert parse_scenario(text.format(MAX_DATA_WIDTH)).params.data_width == MAX_DATA_WIDTH
        self.check(text.format(MAX_DATA_WIDTH + 1), f"wider than the maximum {MAX_DATA_WIDTH}", 2)

    def test_run_length_capped(self):
        text = "scenario t\nparams addr=4 data=8 registered=0\nclock 10\nrun {}\n# end\n"
        assert parse_scenario(text.format(MAX_EDGES * 10)).num_edges() == MAX_EDGES
        self.check(text.format(MAX_EDGES * 10 + 1), f"more than the maximum {MAX_EDGES}", 4)

    def test_last_edge_time_capped(self):
        # Both literals fit, but the second edge would be stamped at 1.5 clocks.
        text = f"scenario t\nparams addr=4 data=8 registered=0\nclock {MAX_TIME - 1}\nrun {{}}\n"
        assert parse_scenario(text.format(MAX_TIME - 1)).num_edges() == 1
        self.check(text.format(MAX_TIME), f"later than the maximum time {MAX_TIME}", 4)

    @pytest.mark.parametrize("lines, line_no", [
        ("clock {t}\nrun 100\n", 3),
        (f"clock {1 << 62}\nrun {{t}}\n", 4),
        ("@{t} RST_N = 1\nrun 100\n", 3),
        ("expect @{t} RST_DONE = high\nrun 100\n", 3),
        ("expect quiet ACK_C2 in {t}..{t}\nrun 100\n", 3),
        ("expect pulses ACK_C2 in 0..{t}\nrun 100\n", 3),
    ], ids=["clock", "run", "event", "expect-value", "window-start", "window-end"])
    def test_time_literals_capped(self, lines, line_no):
        text = "scenario t\nparams addr=4 data=8 registered=0\n" + lines
        parse_scenario(text.format(t=MAX_TIME))
        self.check(text.format(t=MAX_TIME + 1), f"out of range 0..{MAX_TIME}", line_no)


HEAD = "scenario t\nparams addr=4 data=8 registered=0\n"
# The time-cap run's last edge is edge 1, stamped at 1.5 clocks.
LAST_EDGE = (MAX_TIME - 1) + (MAX_TIME - 1) // 2

# Every ScenarioParseError path: (source, exact message, line number).  A
# source that fails on a line before its end needs no run line.
PARSE_ERRORS = {
    "duplicate-scenario": ("scenario t\nscenario u\n", "duplicate scenario line", 2),
    "duplicate-params": (HEAD + "params addr=4 data=8 registered=0\n", "duplicate params line", 3),
    "duplicate-clock": (HEAD + "clock 50\nclock 50\n", "duplicate clock line", 4),
    "duplicate-run": (HEAD + "run 100\nrun 100\n", "duplicate run line", 4),
    "bad-params": ("scenario t\nparams addr=4 data=8\n",
                   "bad params line: 'params addr=4 data=8'", 2),
    "zero-width-params": ("scenario t\nparams addr=0 data=8 registered=0\n",
                          "addr_width must be >= 1, got 0", 2),
    "bad-clock": (HEAD + "clock fast\n", "bad clock line: 'clock fast'", 3),
    "clock-zero": (HEAD + "clock 0\n", "bad clock line: 'clock 0'", 3),
    "bad-run": (HEAD + "run soon\n", "bad run line: 'run soon'", 3),
    "event-before-params": ("scenario t\n@100 RST_N = 1\n", "event before params line", 2),
    "expect-before-params": ("scenario t\nexpect @100 RST_DONE = high\n",
                             "expect before params line", 2),
    "bad-event": (HEAD + "@100 RST_N 1\n", "bad event line: '@100 RST_N 1'", 3),
    "negative-event-time": (HEAD + "@-5 RST_N = 1\n", "negative time -5", 3),
    "unknown-input-pin": (HEAD + "@100 BOGUS = 1\n", "unknown input pin 'BOGUS'", 3),
    "unknown-input-pin-out-of-order": (HEAD + "@200 RST_N = 1\n@100 BOGUS = 11\n",
                                       "unknown input pin 'BOGUS'", 4),
    "unknown-output-pin": (HEAD + "expect @100 WR_EN_C1 = 1\n", "unknown output pin 'WR_EN_C1'", 3),
    "unknown-output-pin-window": (HEAD + "expect quiet BOGUS in 0..10\n",
                                  "unknown output pin 'BOGUS'", 3),
    "out-of-order": (HEAD + "@200 RST_N = 1\n@100 RST_N = 0\n",
                     "event time 100 before previous event at 200", 4),
    "out-of-order-bad-word": (HEAD + "@200 RST_N = 1\n@100 RST_N = 11\n",
                              "event time 100 before previous event at 200", 4),
    "event-bad-width": (HEAD + "@100 WRADDR_C1 = 101\n",
                        "pin WRADDR_C1: expected 4 binary digits, got 3: '101'", 3),
    "event-illegal-character": (HEAD + "@100 WRDATA_C1 = 1010x011\n",
                                "pin WRDATA_C1: illegal character 'x' at position 4 in '1010x011'", 3),
    "expect-bad-width": (HEAD + "expect @100 RDDATA_C1 = 101\n",
                         "pin RDDATA_C1: expected 8 binary digits, got 3: '101'", 3),
    "expect-illegal-character": (HEAD + "expect @100 RDDATA_C1 = 1010x011\n",
                                 "pin RDDATA_C1: illegal character 'x' at position 4 in '1010x011'", 3),
    "high-on-bus": (HEAD + "expect @100 RDDATA_C1 = high\n",
                    "symbolic value on 8-bit pin RDDATA_C1", 3),
    "low-on-bus": (HEAD + "expect @100 DATAOUT_C2 = low\n",
                   "symbolic value on 8-bit pin DATAOUT_C2", 3),
    "window-on-bus": (HEAD + "expect pulses RDDATA_C1 in 0..10\n",
                      "pulses needs a 1-bit pin, got RDDATA_C1", 3),
    "reversed-window": (HEAD + "expect quiet ACK_C2 in 10..5\n", "bad window 10..5", 3),
    "negative-window-start": (HEAD + "expect quiet ACK_C2 in -3..2\n", "negative time -3", 3),
    "bad-expect": (HEAD + "expect ACK_C2 high\n", "bad expect line: 'expect ACK_C2 high'", 3),
    "unrecognized": (HEAD + "wait 100\n", "unrecognized line: 'wait 100'", 3),
    "bare-run": (HEAD + "run\n", "unrecognized line: 'run'", 3),
    "scenario-tab": ("scenario\tx\n", "unrecognized line: 'scenario\\tx'", 1),
    "missing-scenario": ("params addr=4 data=8 registered=0\nrun 100\n", "missing scenario line", 1),
    "missing-params": ("scenario t\nrun 100\n", "missing params line", 1),
    "missing-run": (HEAD + "clock 50\n", "missing run line", 1),
    "edge-cap": (HEAD + f"clock 10\nrun {MAX_EDGES * 10 + 1}\n",
                 f"run {MAX_EDGES * 10 + 1} at clock 10 is {MAX_EDGES + 1} edges,"
                 f" more than the maximum {MAX_EDGES}", 4),
    "time-cap": (HEAD + f"clock {MAX_TIME - 1}\nrun {MAX_TIME}\n",
                 f"run {MAX_TIME} at clock {MAX_TIME - 1} stamps its last edge at {LAST_EDGE},"
                 f" later than the maximum time {MAX_TIME}", 4),
    "addr-width-cap": (f"scenario t\nparams addr={MAX_ADDR_WIDTH + 1} data=8 registered=0\n",
                       f"addr_width {MAX_ADDR_WIDTH + 1} is wider than the maximum {MAX_ADDR_WIDTH}", 2),
    "data-width-cap": (f"scenario t\nparams addr=4 data={MAX_DATA_WIDTH + 1} registered=0\n",
                       f"data_width {MAX_DATA_WIDTH + 1} is wider than the maximum {MAX_DATA_WIDTH}", 2),
}


@pytest.mark.parametrize("text, message, line_no", PARSE_ERRORS.values(), ids=PARSE_ERRORS.keys())
def test_parse_error_message_and_line(text, message, line_no):
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(text)
    assert (str(err.value), err.value.line_no) == (f"line {line_no}: {message}", line_no)


@pytest.mark.parametrize("line, message", [
    ("params addr=\u0664 data=8 registered=0", "bad params line"),
    ("clock \u0665\u0660", "bad clock line"),
    ("@\u0661\u0660\u0660 RST_N = 1", "bad event line"),
    ("expect @\u0661\u0660\u0660 RST_DONE = high", "bad expect line"),
    ("expect quiet ACK_C2 in 0..\u0661\u0660", "bad expect line"),
    ("run \u0662\u0660\u0660\u0660", "bad run line"),
], ids=["params", "clock", "event", "expect-value", "expect-window", "run"])
def test_numbers_are_ascii_digits(line, message):
    # Arabic-Indic digits are Unicode digits, and int() would read them.
    head = "scenario t\n" if line.startswith("params") else HEAD
    with pytest.raises(ScenarioParseError, match=message) as err:
        parse_scenario(head + line + "\nrun 100\n")
    assert err.value.line_no == head.count("\n") + 1


def test_render_parse_round_trip_builtin_corpus():
    for s in builtin_scenarios():
        assert parse_scenario(render_scenario(s)) == s


@pytest.mark.parametrize("name", ["a#b", " lead", "x\ny"], ids=["comment", "lead-space", "newline"])
def test_render_refuses_a_scenario_its_text_would_not_reproduce(name):
    # A "#" starts a comment, a header's leading space is stripped and a
    # line break starts another line, so none of these names would parse
    # back as itself.
    with pytest.raises(ValueError, match="does not render to text that parses back to it"):
        render_scenario(replace(builtin_by_name("tc01"), name=name))


@st.composite
def scenarios(draw):
    addr = draw(st.integers(min_value=1, max_value=6))
    data = draw(st.integers(min_value=1, max_value=10))
    name = draw(st.text(alphabet="abcdefgh0123-", min_size=1, max_size=12))
    times = draw(st.lists(st.integers(min_value=0, max_value=5000), max_size=8))
    lines = [
        f"scenario {name}",
        f"params addr={addr} data={data} registered={draw(st.integers(0, 1))}",
        f"clock {draw(st.integers(min_value=10, max_value=200))}",
    ]
    pin_names = sorted(INPUT_PINS)
    for t in sorted(times):
        pin = draw(st.sampled_from(pin_names))
        width = {"level": 1, "addr": addr, "data": data}[INPUT_PINS[pin]]
        bits = format(draw(st.integers(0, 2**width - 1)), f"0{width}b")
        lines.append(f"@{t} {pin} = {bits}")
    if draw(st.booleans()):
        lines.append(f"expect @{draw(st.integers(0, 5000))} ACK_C2 = low")
    if draw(st.booleans()):
        a = draw(st.integers(0, 4000))
        lines.append(f"expect pulses RST_DONE in {a}..{a + draw(st.integers(0, 1000))}")
    lines.append(f"run {draw(st.integers(0, 6000))}")
    return "\n".join(lines) + "\n"


@given(scenarios())
def test_render_parse_round_trip_random(text):
    s = parse_scenario(text)
    assert parse_scenario(render_scenario(s)) == s


class TestCorpus:
    def test_thirty_seven_scenarios(self):
        scenarios = builtin_scenarios()
        assert len(scenarios) == 37
        assert len([s for s in scenarios if s.name.startswith("ram-")]) == 3
        assert len([s for s in scenarios if s.name.startswith("tc")]) == 34

    def test_unique_names(self):
        names = [s.name for s in builtin_scenarios()]
        assert len(set(names)) == len(names)

    def test_events_inside_run_duration_on_declared_pins(self):
        for s in builtin_scenarios():
            for e in s.events:
                assert 0 <= e.time <= s.duration, s.name
                assert e.pin in INPUT_PINS, s.name

    def test_tc01_stimulus_literals(self):
        s = builtin_by_name("tc01")
        assert [(e.time, e.pin, e.value) for e in s.events] == [
            (100, "RST_N", "1"),
            (600, "WR_EN_C1", "1"),
            (600, "WRADDR_C1", "1010"),
            (600, "WRDATA_C1", "10100011"),
        ]
        assert s.clock_period == 50

    def test_tc07_same_address_literals(self):
        s = builtin_by_name("tc07")
        values = {(e.pin, e.value) for e in s.events if e.time == 2300}
        assert ("RDADDR_C1", "1010") in values
        assert ("WRADDR_C1", "1010") in values
        assert ("WRDATA_C1", "10111011") in values

    def test_tc33_post_reset_write_literal(self):
        s = builtin_by_name("tc33")
        assert any(
            e.pin == "DATAIN_C2" and e.value == "10111011" for e in s.events
        )
        reset_events = [(e.time, e.value) for e in s.events if e.pin == "RST_N"]
        assert reset_events == [(100, "1"), (1800, "0"), (2300, "1")]

    def test_ram03_simultaneous_access_literals(self):
        s = builtin_by_name("ram-03")
        assert s.clock_period == 100
        at_3600 = {(e.pin, e.value) for e in s.events if e.time == 3600}
        assert ("WRADDR_C1", "1011") in at_3600
        assert ("WRDATA_C1", "10111001") in at_3600
        at_5300 = {(e.pin, e.value) for e in s.events if e.time == 5300}
        assert ("RDADDR_C1", "1011") in at_5300
        assert ("WRDATA_C1", "10011111") in at_5300

    def test_lookup_after_the_first_parses_nothing(self, monkeypatch):
        builtin_by_name("tc07")
        calls = []
        monkeypatch.setattr(corpus, "parse_scenario", lambda text: calls.append(text))
        assert builtin_by_name("tc07-c1-rw-same-addr").name.startswith("tc07")
        with pytest.raises(KeyError) as unknown:
            builtin_by_name("tc99")
        with pytest.raises(KeyError) as ambiguous:
            builtin_by_name("ram")
        assert calls == []
        assert unknown.value.args[0] == "unknown scenario 'tc99'"
        assert ambiguous.value.args[0] == (
            "ambiguous scenario 'ram': ram-01-write, ram-02-read, ram-03-read-write"
        )
        assert len(builtin_scenarios()) == 37 and len(calls) == 37

    def test_prefix_lookup(self):
        assert builtin_by_name("tc22").name == "tc22-both-read-same"
        with pytest.raises(KeyError, match="unknown scenario"):
            builtin_by_name("tc99")
        with pytest.raises(KeyError, match="ambiguous"):
            builtin_by_name("tc1")
