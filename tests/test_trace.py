"""Trace recorder, assertion checker, and waveform exporters."""

import gc
import io
import random
import tracemalloc
from dataclasses import replace

import pytest

import arbsim.trace
from arbsim import (
    HIGH,
    LOW,
    Params,
    Scenario,
    Trace,
    builtin_by_name,
    builtin_scenarios,
    check_assertions,
    parse_scenario,
    parse_word,
    resolve_outputs,
    run_scenario,
    system_new,
    system_step,
    write_table,
    write_vcd,
)
from arbsim.arbiter import PINS, ChannelState, ClientInputs
from arbsim.ram import RamInputs
from arbsim.trace import _LINES_PER_WRITE, _pin_layout

from conftest import OUTPUTS, PIN, pin_row
from vcd_reader import read_vcd


def assert_vcd_matches_table(trace, label=""):
    """Export a trace as VCD and as TSV, then check at every edge that each
    pin's VCD width is its Params width, its VCD value is its TSV cell, and
    that cell is the pin's value in binary.  Row k is stamped with edge k's
    time, worked out here from the index and the clock."""
    vcd_sink, tsv_sink = io.StringIO(), io.StringIO()
    write_vcd(trace, vcd_sink)
    write_table(trace, tsv_sink)
    vcd = read_vcd(vcd_sink.getvalue())
    header, *lines = [line.split("\t") for line in tsv_sink.getvalue().splitlines()]
    assert header[2:] == [name for name, _, _, _ in PINS]
    assert set(vcd.widths) == set(header[2:])
    for name, _, role, _ in PINS:
        assert vcd.widths[name] == trace.scenario.params.width(role), f"{label}: {name} width"
    assert len(lines) == len(trace.rows)
    period = trace.scenario.clock_period
    for k, (row, cells) in enumerate(zip(trace.rows, lines)):
        t = k * period + period // 2
        assert cells[:2] == [str(k), str(t)]
        for (name, _, _, _), value, cell in zip(PINS, row, cells[2:], strict=True):
            assert vcd.value_at(name, t) == cell, f"{label}: {name} at t={t}"
            assert int(cell, 2) == value, f"{label}: {name} at t={t}"


class TestRunScenario:
    def test_tc01_drive_shows_the_granted_write(self):
        trace = run_scenario(builtin_by_name("tc01"))
        granted = [
            k for k, r in enumerate(trace.rows)
            if r[PIN["WR_EN"]]
            and r[PIN["WR_ADDR"]] == parse_word("1010", 4).value
            and r[PIN["WR_DATA"]] == parse_word("10100011", 8).value
        ]
        assert granted, "write request never reached the RAM drive"
        assert trace.scenario.edge_time(min(granted)) > 600

    def test_zero_duration_scenario_gives_empty_trace(self):
        s = parse_scenario("scenario t\nparams addr=4 data=8 registered=0\nrun 0\n")
        trace = run_scenario(s)
        assert trace.rows == ()

    def test_tc07_records_the_clash_window(self):
        trace = run_scenario(builtin_by_name("tc07"))
        clash_times = [
            trace.scenario.edge_time(k) for k, r in enumerate(trace.rows) if r[PIN["ADDR_CLASH"]]
        ]
        assert clash_times, "no clash recorded"
        assert min(clash_times) >= 2300

    def test_a_replay_keeps_under_16_bytes_a_row(self):
        # A replay keeps every row, so a row's size bounds a long run's
        # memory.  A row is its edge's pin values, and equal rows are one
        # tuple, so this run, which settles into a few distinct rows, keeps
        # one 8-byte reference a row.
        edges = 1 << 16
        s = parse_scenario("\n".join([
            "scenario row-memory", "params addr=4 data=8 registered=0", "clock 10",
            "@0 RST_N = 1", "@200 REQUEST_C2 = 1", "@200 RD_NOT_WRITE_C2 = 0",
            "@200 ADDR_C2 = 0101", "@200 DATAIN_C2 = 10100011",
            "@200 RD_EN_C1 = 1", "@200 RDADDR_C1 = 0101", f"run {edges * 10}",
        ]) + "\n")
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trace = run_scenario(s)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(trace.rows) == edges
        assert kept / edges < 16

    @pytest.mark.parametrize("registered", [False, True], ids=["unregistered", "registered"])
    def test_equal_rows_are_one_tuple(self, registered):
        # Every row is a plain tuple of one value per pin, and the replay
        # interns them: as many row objects as distinct rows.
        for base in builtin_scenarios():
            s = replace(base, params=replace(base.params, registered_output=registered))
            rows = run_scenario(s).rows
            assert rows and all(type(r) is tuple and len(r) == len(PINS) for r in rows), s.name
            assert len({id(r) for r in rows}) == len(set(rows)), s.name


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

    def test_edgeless_window_reports_out_of_range_or_no_edge(self):
        # Edges at clock 50 are at 25, 75, ..., 175 in a 200 ns run.  A
        # window that reaches past edge 175 is out of range, whether or not
        # it holds an edge of the run; one between two edges, or one that
        # ends before the first edge, holds no edge.
        windows = ["170..230", "180..230", "80..120", "0..20"]
        s = parse_scenario("\n".join([
            "scenario t", "params addr=4 data=8 registered=0", "clock 50",
            *(f"expect {kind} ACK_C2 in {w}" for w in windows for kind in ("quiet", "pulses")),
            "run 200",
        ]) + "\n")
        report = check_assertions(run_scenario(s), s)
        assert [(r.observed, r.passed) for r in report.results] == [
            ("out of range", False)] * 4 + [("no edge in window", False)] * 4

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
    """arbiter.PINS is the one list of pins: it must match the record fields
    and the order of the outputs that the kernel returns."""

    @staticmethod
    def fields(direction):
        return [f for _, d, _, f in PINS if d == direction]

    def test_rows_are_the_inputs_then_the_outputs_then_the_probes(self):
        # A trace row is the inputs, the outputs and the probes end to end.
        n_in, n_out = len(ClientInputs._fields), len(OUTPUTS)
        assert [d for _, d, _, _ in PINS] == (
            ["in"] * n_in + ["out"] * n_out + ["probe"] * (len(PINS) - n_in - n_out)
        )

    def test_inputs_are_the_client_input_fields_in_order(self):
        assert self.fields("in") == list(ClientInputs._fields)

    def test_outputs_are_what_resolve_outputs_returns_in_order(self):
        # resolve_outputs returns one value per output pin, in PINS order, so
        # an output row names no field; here the four values differ, so each
        # lands on its own pin: registered RDDATA_C1 is the pre-edge read
        # register and DATAOUT_C2 the post-edge one.
        assert self.fields("out") == [None] * 4
        params = Params(4, 8, registered_output=True)
        arb, ram = system_new(params)
        pre = (arb, ram._replace(rd_data_reg=0b11))
        post = (arb._replace(temp_wr=HIGH), ram._replace(rd_data_reg=0b101))
        out = resolve_outputs(pre, ClientInputs.quiet(), post, params)
        assert dict(zip(OUTPUTS, out, strict=True)) == {
            "RDDATA_C1": 0b11, "DATAOUT_C2": 0b101, "ACK_C2": HIGH, "RST_DONE": LOW,
        }

    def test_drive_probes_are_the_ram_drive_fields(self):
        # The RAM's inputs after the reset pin are the arbiter's drive registers.
        declared = ["temp_" + f for f in RamInputs._fields]
        assert declared[0] == "temp_rst_n"
        assert [f for f in self.fields("probe") if f.startswith("temp_")] == declared[1:]

    def test_table_header_is_pins_order(self):
        sink = io.StringIO()
        write_table(run_scenario(builtin_by_name("tc01")), sink)
        header = sink.getvalue().split("\n", 1)[0].split("\t")
        assert header == ["cycle", "time_ns"] + [name for name, _, _, _ in PINS]


def ack_train_scenario(params):
    """Reset low for one edge, the init sweep, then a client1 write, client2
    continuous writes (a period-2 ack train) and reads (period 3), a clash,
    a reset pulse and idle edges: rows repeat, adjacent and not, and the
    first row holds the power-on values."""
    a, d = params.addr_width, params.data_width
    addr, data = "0" * (a - 1) + "1", "1" * d
    t = (params.ram_depth() + 3) * 100  # the sweep is over
    lines = [
        "scenario ack-trains",
        f"params addr={a} data={d} registered={int(params.registered_output)}",
        "clock 100",
        "@100 RST_N = 1",
        f"@{t} WR_EN_C1 = 1", f"@{t} WRADDR_C1 = {addr}", f"@{t} WRDATA_C1 = {data}",
        f"@{t + 300} WR_EN_C1 = 0",
        f"@{t + 300} REQUEST_C2 = 1", f"@{t + 300} RD_NOT_WRITE_C2 = 0",
        f"@{t + 300} ADDR_C2 = {addr}", f"@{t + 300} DATAIN_C2 = {'0' * (d - 1)}1",
        f"@{t + 1500} RD_NOT_WRITE_C2 = 1",
        f"@{t + 2700} RD_EN_C1 = 1", f"@{t + 2700} RDADDR_C1 = {addr}",
        f"@{t + 2700} RD_NOT_WRITE_C2 = 0",
        f"@{t + 3300} RD_EN_C1 = 0", f"@{t + 3300} REQUEST_C2 = 0",
        f"@{t + 3600} RST_N = 0", f"@{t + 3800} RST_N = 1",
        f"run {t + 3800 + (params.ram_depth() + 8) * 100}",
    ]
    return parse_scenario("\n".join(lines) + "\n")


def hand_built(params, rows):
    """A trace of rows built here, not replayed: a scenario of no events
    and a 10 ns clock, one edge a row, gives it its widths and times."""
    return Trace(Scenario("hand-built", params, 10, (), (), 10 * len(rows)), tuple(rows))


def random_walk_trace(params):
    """Two reset edges, the init sweep, then 400 edges that each change one
    random input: many rows differ from an earlier one in a single pin."""
    rng = random.Random(0)
    inputs = ClientInputs.quiet(rst_n=LOW)
    state, rows = system_new(params), []
    sweep = params.ram_depth() + 3
    for cycle in range(sweep + 400):
        if cycle == 2:
            inputs = inputs._replace(rst_n=HIGH)
        elif cycle >= sweep:
            field = rng.choice(ClientInputs._fields)
            # Reset rarely, so that most of the walk is past the sweep.
            if field == "rst_n" and rng.random() < 0.9:
                field = "request_c2"
            old = getattr(inputs, field)
            if type(old) is bool:
                new = not old
            else:
                new = rng.getrandbits(params.width("addr" if "addr" in field else "data"))
            inputs = inputs._replace(**{field: new})
        state, out = system_step(state, inputs, params)
        arb, _ = state
        rows.append(pin_row(inputs, out, arb))
    return hand_built(params, rows)


def one_pin_trace(params):
    """The power-on row, then twice over each pin in PINS order at its
    largest value for one row and back to power-on: rows that differ in one
    pin only, and the second pass repeats every transition of the first.
    The power-on row is one object; each changed row is a new one, so the
    second pass repeats the first's rows as equal, separate objects."""
    quiet = ClientInputs.quiet(rst_n=LOW)
    (arb, _), out = system_step(system_new(params), quiet, params)
    base = pin_row(quiet, out, arb)
    largest = {"level": HIGH, "state": max(ChannelState)}
    rows = [base]
    for _ in range(2):
        for i, (_, _, role, _) in enumerate(PINS):
            value = largest.get(role) or (1 << params.width(role)) - 1
            rows += [(*base[:i], value, *base[i + 1 :]), base]
    return hand_built(params, rows)


def row_values(trace):
    """Each row's pin values, as the checker and the exporters read them:
    a plain tuple of one value per pin."""
    for k, row in enumerate(trace.rows):
        assert type(row) is tuple and len(row) == len(PINS), k
    return list(trace.rows)


def reference_table(trace):
    """The table rendered the plain way: every cell of every row formatted,
    and row k stamped with cycle k at edge k's time, worked out here."""
    names = [name for name, _, _, _ in PINS]
    widths = [trace.scenario.params.width(role) for _, _, role, _ in PINS]
    period = trace.scenario.clock_period
    lines = ["\t".join(["cycle", "time_ns", *names])]
    for k, row in enumerate(trace.rows):
        cells = [format(int(v), f"0{w}b") for v, w in zip(row, widths, strict=True)]
        lines.append("\t".join([str(k), str(k * period + period // 2), *cells]))
    return "\n".join(lines) + "\n"


def reference_vcd(trace):
    """The VCD rendered the plain way: every pin of every row compared with
    the row before it (the power-on values before the first), row k's
    changes stamped with edge k's time, worked out here."""
    widths = [trace.scenario.params.width(role) for _, _, role, _ in PINS]

    def record(i, value):
        bits = format(value, f"0{widths[i]}b")
        return f"{bits}{chr(33 + i)}\n" if widths[i] == 1 else f"b{bits} {chr(33 + i)}\n"

    out = ["$timescale 1ns $end\n", "$scope module ram_arbiter $end\n"]
    for i, (name, _, _, _) in enumerate(PINS):
        w, vid = widths[i], chr(33 + i)
        out.append(f"$var wire 1 {vid} {name} $end\n" if w == 1
                   else f"$var wire {w} {vid} {name} [{w - 1}:0] $end\n")
    out += ["$upscope $end\n", "$enddefinitions $end\n", "$dumpvars\n"]
    previous = [0] * len(PINS)
    out += [record(i, 0) for i in range(len(PINS))]
    out.append("$end\n")
    period = trace.scenario.clock_period
    for k, row in enumerate(trace.rows):
        values = [int(v) for v in row]
        changes = [record(i, v) for i, (v, old) in enumerate(zip(values, previous)) if v != old]
        if changes:
            out.append(f"#{k * period + period // 2}\n")
            out += changes
        previous = values
    return "".join(out)


EXPORT_PARAMS = [Params(1, 1), Params(4, 8), Params(6, 12)]


class TestExportReference:
    """The exporters walk a trace as runs of one row object, render each
    row object and each transition between two once; their bytes must
    equal a renderer that does neither, at every width, whether equal rows
    are one object (a replay) or separate ones (the hand-built traces)."""

    @staticmethod
    def traces(kind, registered):
        for base in EXPORT_PARAMS:
            params = replace(base, registered_output=registered)
            if kind == "ack-trains":
                yield run_scenario(ack_train_scenario(params))
            elif kind == "random-walk":
                yield random_walk_trace(params)
            else:
                yield one_pin_trace(params)

    @staticmethod
    def assert_exports_match_the_reference(trace, label):
        vcd, tsv = io.StringIO(), io.StringIO()
        write_vcd(trace, vcd)
        write_table(trace, tsv)
        assert tsv.getvalue() == reference_table(trace), label
        assert vcd.getvalue() == reference_vcd(trace), label

    @pytest.mark.parametrize("registered", [False, True], ids=["unregistered", "registered"])
    @pytest.mark.parametrize("kind", ["ack-trains", "random-walk", "one-pin"])
    def test_exports_match_the_per_row_reference(self, kind, registered):
        # The widths alternate within one test, so a memo kept between calls
        # would hand one width's cells to another.
        for trace in self.traces(kind, registered):
            label = f"{kind} {trace.scenario.params}"
            values = row_values(trace)
            assert values[0] == (0,) * len(PINS), label
            # A row equal to one before it, but not to the row just before
            # (the table's memo is reused across runs) ...
            first = {}
            for k, v in enumerate(values):
                first.setdefault(v, k)
            assert any(k - first[v] > 1 and values[k - 1] != v for k, v in enumerate(values)), label
            # ... and a change from one row to the next that happened before
            # (the VCD's memo is reused).
            changes = [(old, v) for old, v in zip(values, values[1:]) if old != v]
            assert len(set(changes)) < len(changes), label
            # A hand-built trace holds equal rows that are separate objects,
            # and the random walk holds them next to each other (a change
            # block that is empty, and writes nothing).
            if kind != "ack-trains":
                assert len({id(v) for v in values}) > len(set(values)), label
            if kind == "random-walk":
                assert any(old == v and old is not v for old, v in zip(values, values[1:])), label
            self.assert_exports_match_the_reference(trace, label)

    @pytest.mark.parametrize("registered", [False, True], ids=["unregistered", "registered"])
    def test_boundary_traces_match_the_per_row_reference(self, registered):
        # The run walk's edge cases: no row at all (no run), and one row
        # that holds the power-on values (a run that changes no VCD signal)
        # or does not (RST_N high at the first edge).
        for base in EXPORT_PARAMS:
            params = replace(base, registered_output=registered)
            head = f"params addr={params.addr_width} data={params.data_width} registered={int(registered)}"
            for label, body, power_on in [
                ("empty", "run 0", None),
                ("power-on row", "run 100", True),
                ("reset-high row", "@0 RST_N = 1\nrun 100", False),
            ]:
                trace = run_scenario(parse_scenario(f"scenario edge\n{head}\nclock 100\n{body}\n"))
                label = f"{label} {params}"
                if power_on is None:
                    assert trace.rows == (), label
                else:
                    assert len(trace.rows) == 1, label
                    assert (row_values(trace)[0] == (0,) * len(PINS)) == power_on, label
                self.assert_exports_match_the_reference(trace, label)

    def test_odd_clock_period_rounds_the_half_period_down(self):
        # At clock 7, edge k is at 7k + 3.  RST_DONE is low at edge 3 (t=24)
        # and high from edge 4 (t=31), so expectations one before, on and
        # one after those times fail if any of the exporters or the checker
        # rounds the half period up or keeps the half.
        period = 7
        t3, t4 = (k * period + period // 2 for k in (3, 4))
        expectations = [
            f"expect @{t3 - 1} RST_DONE = low",
            f"expect @{t3} RST_DONE = low",
            f"expect @{t3 + 1} RST_DONE = high",
            f"expect @{t3} RST_DONE = high",
            f"expect quiet RST_DONE in 0..{t4 - 1}",
            f"expect quiet RST_DONE in 0..{t4}",
            f"expect quiet RST_DONE in {t4 - 1}..{t4 + 1}",
            f"expect quiet RST_DONE in {t4 + 1}..{t4 + period}",
            f"expect quiet RST_DONE in {t4 + 1}..{t4 + period - 1}",
            f"expect pulses RST_DONE in {t4 + 1}..{t4 + period - 1}",
        ]
        s = parse_scenario("\n".join([
            "scenario odd-clock", "params addr=2 data=4 registered=0", f"clock {period}",
            "@0 RST_N = 1", "@60 WR_EN_C1 = 1", "@60 WRADDR_C1 = 10", "@60 WRDATA_C1 = 1011",
            "@74 WR_EN_C1 = 0", *expectations, "run 140",
        ]) + "\n")
        trace = run_scenario(s)
        assert [row[PIN["RST_DONE"]] for row in trace.rows[3:5]] == [LOW, HIGH]
        report = check_assertions(trace, s)
        assert [(r.observed, r.passed) for r in report.results] == [
            ("0", True), ("0", True), ("1", True), ("0", False),
            ("low throughout", True),
            (f"high at t={t4}", False),
            (f"high at t={t4}", False),
            (f"high at t={t4 + period}", False),
            ("no edge in window", False),  # between two edges of the run
            ("no edge in window", False),
        ]
        assert_vcd_matches_table(trace, s.name)
        self.assert_exports_match_the_reference(trace, s.name)

    class Sink(io.StringIO):
        """Records the most lines, and the most VCD ``#<time>`` sections,
        that one write held."""

        most_lines = most_sections = 0

        def write(self, text):
            self.most_lines = max(self.most_lines, text.count("\n"))
            self.most_sections = max(self.most_sections, text.count("#"))
            return super().write(text)

    def test_a_long_run_is_written_in_bounded_pieces(self):
        # A quiet scenario settles after the sweep into one run of thousands
        # of equal rows; the table must not build that run's text at once.
        trace = run_scenario(parse_scenario(
            "scenario quiet\nparams addr=4 data=8 registered=0\nclock 10\n@0 RST_N = 1\nrun 30000\n"
        ))
        tail = 2 * _LINES_PER_WRITE + 1
        assert all(row is trace.rows[-1] for row in trace.rows[-tail:])
        sink = self.Sink()
        write_table(trace, sink)
        assert sink.getvalue() == reference_table(trace)
        assert sink.most_lines == _LINES_PER_WRITE

    @pytest.mark.parametrize("registered", [False, True], ids=["unregistered", "registered"])
    def test_a_long_ack_train_is_written_in_bounded_pieces(self, registered):
        # Client2's continuous writes give a period-2 ack train: ACK_C2
        # changes on every edge, so thousands of runs each open a VCD
        # section, and the VCD must not build their text at once.
        trace = run_scenario(parse_scenario(
            f"scenario long-train\nparams addr=4 data=8 registered={int(registered)}\n"
            "clock 10\n@0 RST_N = 1\n@300 REQUEST_C2 = 1\n@300 ADDR_C2 = 0001\n"
            "@300 DATAIN_C2 = 00000001\nrun 30000\n"
        ))
        sink = self.Sink()
        write_vcd(trace, sink)
        assert sink.getvalue() == reference_vcd(trace)
        assert sink.getvalue().count("#") > 2 * _LINES_PER_WRITE
        assert sink.most_sections == _LINES_PER_WRITE

    def test_ack_trains_reach_both_periods(self):
        # The scenario above does produce the trains it is named for.
        for params in EXPORT_PARAMS:
            rows = run_scenario(ack_train_scenario(params)).rows
            acks = "".join(str(int(r[PIN["ACK_C2"]])) for r in rows)
            assert "101010" in acks and "1001001" in acks, params


class TestSharedWalk:
    """The replay's walk over each edge's pin values is the only one: the
    checker and both exporters read the rows it made."""

    @staticmethod
    def export(write, trace):
        sink = io.StringIO()
        write(trace, sink)
        return sink.getvalue()

    def test_only_the_replay_picks_the_probes(self, monkeypatch):
        # The replay picks an edge's probes at most once, and exactly once
        # for each edge whose row is not the previous row object: a held
        # edge reuses the previous row and picks none.  Checking and two
        # pairs of exports pick none.
        probes, step, picked, edges = arbsim.trace._PROBES, arbsim.trace.system_step, [], []

        def stepping(*args):
            edges.append(step(*args))
            return edges[-1]

        def picking(state):
            picked.append((len(edges) - 1, state))
            return probes(state)

        monkeypatch.setattr(arbsim.trace, "system_step", stepping)
        monkeypatch.setattr(arbsim.trace, "_PROBES", picking)
        s = builtin_by_name("tc07")
        trace = run_scenario(s)
        rows = trace.rows
        assert len(edges) == len(rows) > 0
        at = dict(picked)
        assert len(at) == len(picked)
        new_rows = {k for k, row in enumerate(rows) if k == 0 or row is not rows[k - 1]}
        assert new_rows <= at.keys()
        assert 0 < len(at) < len(rows)
        n = len(probes(picked[0][1]))
        for k, ((post, _), _) in enumerate(edges):
            assert probes(post) == rows[k][-n:], k
            assert at[k] is post if k in at else rows[k] is rows[k - 1], k
        check_assertions(trace, s)
        for _ in range(2):
            self.export(write_vcd, trace)
            self.export(write_table, trace)
        assert len(picked) == len(at)
        # A trace is its values: two replays are equal and hash alike.
        replayed = run_scenario(s)
        assert trace == replayed and hash(trace) == hash(replayed)

    @pytest.mark.parametrize("registered", [False, True], ids=["unregistered", "registered"])
    def test_exports_do_not_depend_on_order_or_repetition(self, registered):
        for base in builtin_scenarios():
            s = replace(base, params=replace(base.params, registered_output=registered))
            vcd_first, table_first = run_scenario(s), run_scenario(s)
            vcd = self.export(write_vcd, vcd_first)
            table = self.export(write_table, vcd_first)
            assert self.export(write_table, table_first) == table, s.name
            assert self.export(write_vcd, table_first) == vcd, s.name
            for trace in (vcd_first, table_first):
                assert self.export(write_vcd, trace) == vcd, s.name
                assert self.export(write_table, trace) == table, s.name


class TestPinLayout:
    """The text that depends on the widths alone is built once per pair of
    widths and shared by the checker and both exporters."""

    @staticmethod
    def bus_scenario(params):
        # Two edges with client1's write buses at 1 and the data outputs at
        # 0 (the sweep is on): text rendered at another width pads the same
        # value to another length.
        a, d = params.addr_width, params.data_width
        addr, data = "0" * (a - 1) + "1", "0" * (d - 1) + "1"
        return parse_scenario("\n".join([
            "scenario buses",
            f"params addr={a} data={d} registered={int(params.registered_output)}",
            "clock 10", "@0 RST_N = 1", f"@0 WRADDR_C1 = {addr}", f"@0 WRDATA_C1 = {data}",
            f"expect @15 RDDATA_C1 = {'0' * d}", f"expect @15 DATAOUT_C2 = {'0' * d}", "run 20",
        ]) + "\n")

    def test_one_layout_per_width_pair(self):
        _pin_layout.cache_clear()
        for name in ("tc01", "tc07"):
            for registered in (False, True):
                base = builtin_by_name(name)
                s = replace(base, params=replace(base.params, registered_output=registered))
                trace = run_scenario(s)
                assert check_assertions(trace, s).passed, s.name
                write_vcd(trace, io.StringIO())
                write_table(trace, io.StringIO())
        # Four traces of one width, three reads each: one build.
        info = _pin_layout.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 11, 1)

    def test_interleaved_widths_check_and_export_at_their_own_width(self):
        # The widths differ in one field at a time and alternate, so a
        # layout cached under the wrong key hands one width's text to another.
        # Buses of 8 bits read a table of texts and wider ones a format.
        widths = [Params(4, 8), Params(13, 8), Params(4, 16)]
        for _ in range(2):
            for base in widths:
                for registered in (False, True):
                    params = replace(base, registered_output=registered)
                    s = self.bus_scenario(params)
                    trace = run_scenario(s)
                    report = check_assertions(trace, s)
                    assert [r.observed for r in report.results] == [
                        a.expected for a in s.assertions], params
                    for trace in (trace, one_pin_trace(params)):
                        TestExportReference.assert_exports_match_the_reference(trace, str(params))

    def test_the_cache_keeps_its_bound(self):
        bound = _pin_layout.cache_info().maxsize
        for data_width in range(1, bound + 5):
            write_table(hand_built(Params(1, data_width), ()), io.StringIO())
        assert _pin_layout.cache_info().currsize == bound


def distinct_rows_and_transitions(trace):
    """The distinct rows of pin values, and the distinct changes from one
    row to the next (from the power-on values to the first row included)."""
    values = row_values(trace)
    before = [(0,) * len(PINS)] + values[:-1]
    return set(values), {(old, v) for old, v in zip(before, values) if old != v}


@pytest.mark.parametrize("registered", [False, True], ids=["unregistered", "registered"])
def test_distinct_rows_do_not_grow_with_run_length(registered):
    # write_table keeps one rendered row per distinct row of pin values and
    # write_vcd one change block per distinct transition, so their memory is
    # these counts: they depend on a case's events, and a case run 40 times
    # as long has no more distinct rows or transitions than at its own length.
    for base in builtin_scenarios():
        s = replace(base, params=replace(base.params, registered_output=registered))
        rows, transitions = distinct_rows_and_transitions(run_scenario(s))
        long = replace(s, duration=40 * s.duration)
        rows_long, transitions_long = distinct_rows_and_transitions(run_scenario(long))
        assert len(rows_long) == len(rows) <= 13, s.name
        assert len(transitions_long) == len(transitions) <= 16, s.name


@pytest.mark.parametrize("registered", [False, True], ids=["unregistered", "registered"])
def test_a_replay_steps_as_one_that_never_hits_the_memo(monkeypatch, registered):
    # The replay holds each input record until the next event, so the
    # arbiter's memo answers its held edges.  A replay that passes a new
    # tuple of the same inputs on every edge never hits the memo, and steps
    # every edge to equal states and outputs, and equal rows.
    step, fsm = arbsim.trace.system_step, arbsim.arbiter.fsm_next
    stepped, decided = [], []

    def stepping(state, inp, params):
        stepped.append(step(state, tuple(list(inp)) if fresh else inp, params))
        return stepped[-1]

    def deciding(*args):
        decided.append(args)
        return fsm(*args)

    monkeypatch.setattr(arbsim.trace, "system_step", stepping)
    monkeypatch.setattr(arbsim.arbiter, "fsm_next", deciding)
    hits = 0
    for base in builtin_scenarios():
        s = replace(base, params=replace(base.params, registered_output=registered))
        runs = []
        for fresh in (False, True):  # read by stepping
            stepped.clear()
            decided.clear()
            rows = run_scenario(s).rows
            assert len(stepped) == len(rows), s.name
            runs.append((list(stepped), rows, len(decided)))
        (edges, rows, steps), (fresh_edges, fresh_rows, fresh_steps) = runs
        assert fresh_steps == len(rows), s.name
        assert edges == fresh_edges and rows == fresh_rows, s.name
        hits += len(rows) - steps
    assert hits > 0
