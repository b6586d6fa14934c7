"""Trace recorder, assertion checker, and waveform exporters."""

import io
from operator import attrgetter

import pytest

from arbsim import (
    builtin_by_name,
    builtin_scenarios,
    check_assertions,
    parse_scenario,
    parse_word,
    run_scenario,
    write_table,
    write_vcd,
)
from arbsim.arbiter import PINS, ChannelState, ClientInputs, ClientOutputs
from arbsim.ram import RamInputs

from vcd_reader import read_vcd


def assert_vcd_matches_table(trace, label=""):
    """Export a trace as VCD and as TSV, then check at every edge that each
    pin's VCD width is its Params width, its VCD value is its TSV cell, and
    that cell is the pin's value in binary."""
    vcd_sink, tsv_sink = io.StringIO(), io.StringIO()
    write_vcd(trace, vcd_sink)
    write_table(trace, tsv_sink)
    vcd = read_vcd(vcd_sink.getvalue())
    header, *lines = [line.split("\t") for line in tsv_sink.getvalue().splitlines()]
    assert header[2:] == [name for name, _, _, _ in PINS]
    assert set(vcd.widths) == set(header[2:])
    for name, _, role, _ in PINS:
        assert vcd.widths[name] == trace.params.width(role), f"{label}: {name} width"
    assert len(lines) == len(trace.rows)
    for row, cells in zip(trace.rows, lines):
        assert cells[:2] == [str(row.cycle), str(row.time)]
        for (name, _, _, path), cell in zip(PINS, cells[2:]):
            assert vcd.value_at(name, row.time) == cell, f"{label}: {name} at t={row.time}"
            assert int(cell, 2) == attrgetter(path)(row), f"{label}: {name} at t={row.time}"


class TestRunScenario:
    def test_tc01_drive_shows_the_granted_write(self):
        trace = run_scenario(builtin_by_name("tc01"))
        granted = [
            r for r in trace.rows
            if r.arbiter.temp_wr_en
            and r.arbiter.temp_wr_addr == parse_word("1010", 4).value
            and r.arbiter.temp_wr_data == parse_word("10100011", 8).value
        ]
        assert granted, "write request never reached the RAM drive"
        assert min(r.time for r in granted) > 600

    def test_zero_duration_scenario_gives_empty_trace(self):
        s = parse_scenario("scenario t\nparams addr=4 data=8 registered=0\nrun 0\n")
        trace = run_scenario(s)
        assert trace.rows == ()

    def test_tc07_records_the_clash_window(self):
        trace = run_scenario(builtin_by_name("tc07"))
        clash_times = [r.time for r in trace.rows if r.arbiter.addr_clash]
        assert clash_times, "no clash recorded"
        assert min(clash_times) >= 2300

    def test_row_times_follow_the_edge_grid(self):
        trace = run_scenario(builtin_by_name("tc01"))
        for row in trace.rows:
            assert row.time == row.cycle * trace.clock_period + trace.clock_period // 2


class TestCheckAssertions:
    def test_corpus_case_passes(self):
        s = builtin_by_name("tc02")
        report = check_assertions(run_scenario(s), s)
        assert report.passed
        assert all(r.passed for r in report.results)

    def test_power_on_output_is_zero(self):
        s = parse_scenario(
            "scenario t\nparams addr=4 data=8 registered=0\n"
            "expect @0 RDDATA_C1 = 00000000\nrun 200\n"
        )
        assert check_assertions(run_scenario(s), s).passed

    def test_wrong_value_fails_with_observed(self):
        s = parse_scenario(
            "scenario t\nparams addr=4 data=8 registered=0\n"
            "expect @100 RDDATA_C1 = 11111111\nrun 200\n"
        )
        report = check_assertions(run_scenario(s), s)
        assert not report.passed
        assert report.failures()[0].observed == "00000000"

    def test_assertion_beyond_trace_end_reports_out_of_range(self):
        s = parse_scenario(
            "scenario t\nparams addr=4 data=8 registered=0\n"
            "expect @900 RST_DONE = high\nrun 200\n"
        )
        report = check_assertions(run_scenario(s), s)
        assert not report.passed
        assert report.failures()[0].observed == "out of range"

    def test_quiet_detects_a_pulse(self):
        text = (
            "scenario t\nparams addr=4 data=8 registered=0\nclock 50\n"
            "@100 RST_N = 1\n@100 REQUEST_C2 = 1\n@100 RD_NOT_WRITE_C2 = 0\n"
            "@100 ADDR_C2 = 0001\n@100 DATAIN_C2 = 00000001\n"
            "expect quiet ACK_C2 in 0..3000\nrun 3000\n"
        )
        s = parse_scenario(text)
        report = check_assertions(run_scenario(s), s)
        assert not report.passed
        assert "high at t=" in report.failures()[0].observed

    def test_pulses_requires_a_rising_edge(self):
        s = parse_scenario(
            "scenario t\nparams addr=4 data=8 registered=0\n"
            "expect pulses ACK_C2 in 0..400\nrun 500\n"
        )
        report = check_assertions(run_scenario(s), s)
        assert not report.passed
        assert report.failures()[0].observed == "0 rising edge(s)"

    def test_checker_is_pure(self):
        s = builtin_by_name("tc04")
        trace = run_scenario(s)
        assert check_assertions(trace, s) == check_assertions(trace, s)


class TestVcd:
    def test_empty_trace_emits_header_and_initials_only(self):
        s = parse_scenario("scenario t\nparams addr=4 data=8 registered=0\nrun 0\n")
        sink = io.StringIO()
        write_vcd(run_scenario(s), sink)
        text = sink.getvalue()
        assert "$timescale 1ns $end" in text
        assert "$dumpvars" in text
        assert "#" not in text.split("$end\n")[-1]

    def test_tc01_vcd_contains_the_write_payload(self):
        sink = io.StringIO()
        write_vcd(run_scenario(builtin_by_name("tc01")), sink)
        text = sink.getvalue()
        assert "$var wire 8" in text and "WRDATA_C1" in text
        assert "b10100011 " in text

    @pytest.mark.parametrize("name", [s.name for s in builtin_scenarios()])
    def test_round_trip_reconstructs_every_signal_timeline(self, name):
        assert_vcd_matches_table(run_scenario(builtin_by_name(name)), name)

    @pytest.mark.parametrize(
        "state, code",
        [
            (ChannelState.RESET, "000"),
            (ChannelState.IDLE, "001"),
            (ChannelState.CLIENT1_READ, "010"),
            (ChannelState.CLIENT2_READ, "011"),
            (ChannelState.CLIENT1_WRITE, "100"),
            (ChannelState.CLIENT2_WRITE, "101"),
        ],
    )
    def test_channel_state_formats_to_its_readme_code(self, state, code):
        assert f"{state:03b}" == code

    def test_change_only_encoding(self):
        trace = run_scenario(builtin_by_name("tc01"))
        sink = io.StringIO()
        write_vcd(trace, sink)
        body = sink.getvalue().split("$enddefinitions $end\n", 1)[1]
        last: dict[str, str] = {}
        for line in body.splitlines():
            if line.startswith(("#", "$")):
                continue
            if line.startswith("b"):
                value, vid = line[1:].split()
            else:
                value, vid = line[0], line[1:]
            assert last.get(vid) != value, f"duplicate record for {vid}: {value}"
            last[vid] = value


class TestTable:
    def test_header_and_shape(self):
        trace = run_scenario(builtin_by_name("tc01"))
        sink = io.StringIO()
        write_table(trace, sink)
        lines = sink.getvalue().splitlines()
        header = lines[0].split("\t")
        assert header[:2] == ["cycle", "time_ns"]
        assert "RDDATA_C1" in header and "READ_STATE" in header
        assert len(lines) == len(trace.rows) + 1
        first = lines[1].split("\t")
        assert len(first) == len(header)
        assert first[0] == "0"

    def test_values_are_binary_strings(self):
        trace = run_scenario(builtin_by_name("tc07"))
        sink = io.StringIO()
        write_table(trace, sink)
        row = sink.getvalue().splitlines()[-1].split("\t")
        for cell in row[2:]:
            assert set(cell) <= {"0", "1"}, cell


class TestPinTable:
    """arbiter.PINS is the one list of pins: it must match the record fields."""

    @staticmethod
    def paths(direction, prefix=""):
        return [p for _, d, _, p in PINS if d == direction and p.startswith(prefix)]

    @staticmethod
    def declared(cls, prefix):
        return [prefix + f for f in cls._fields]

    def test_inputs_are_the_client_input_fields_in_order(self):
        assert self.paths("in") == self.declared(ClientInputs, "inputs.")

    def test_outputs_are_the_client_output_fields(self):
        assert self.paths("out") == self.declared(ClientOutputs, "outputs.")

    def test_drive_probes_are_the_ram_drive_fields(self):
        # The RAM's inputs after the reset pin are the arbiter's drive registers.
        declared = self.declared(RamInputs, "arbiter.temp_")
        assert declared[0] == "arbiter.temp_rst_n"
        assert self.paths("probe", "arbiter.temp_") == declared[1:]

    def test_table_header_is_pins_order(self):
        sink = io.StringIO()
        write_table(run_scenario(builtin_by_name("tc01")), sink)
        header = sink.getvalue().split("\n", 1)[0].split("\t")
        assert header == ["cycle", "time_ns"] + [name for name, _, _, _ in PINS]
