"""Scenario text format and the builtin corpus transcription."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arbsim import ScenarioParseError, builtin_by_name, builtin_scenarios, parse_scenario, render_scenario
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


def test_render_parse_round_trip_builtin_corpus():
    for s in builtin_scenarios():
        assert parse_scenario(render_scenario(s)) == s


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
