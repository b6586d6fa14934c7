"""Composed system: round trips, clash bypass, reset sweep, latency constants."""

import random
import tracemalloc
from dataclasses import replace
from itertools import islice
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arbsim.arbiter
import arbsim.fuzz
import arbsim.system
from arbsim import (
    HIGH,
    LOW,
    ArbiterState,
    ChannelState,
    ClientInputs,
    Params,
    RamInputs,
    RamState,
    Word,
    builtin_by_name,
    builtin_scenarios,
    check_assertions,
    parse_word,
    run_scenario,
    system_new,
    system_step,
)
from arbsim.arbiter import PINS
from arbsim.fuzz import check_invariants, random_inputs, run_fuzz

from conftest import OUTPUTS, PIN, fresh_system, make_inputs, pin, pin_row


def run_cycles(state, inp, n, params):
    out = None
    for _ in range(n):
        state, out = system_step(state, inp, params)
    return state, out


class TestSystemNew:
    def test_power_on_default(self):
        params = Params(4, 8)
        arb, ram = system_new(params)
        assert all(w == 0 for w in ram.memory)
        assert arb.pr_read == ChannelState.RESET
        assert arb.pr_write == ChannelState.RESET

    def test_power_on_scaled_registered(self):
        params = Params(2, 4, registered_output=True)
        arb, ram = system_new(params)
        assert len(ram.memory) == 4
        assert arb.pr_read == ChannelState.RESET

    def test_power_on_outputs_all_zero(self):
        params = Params(4, 8)
        state = system_new(params)
        state, out = system_step(state, make_inputs(params, rst_n=LOW), params)
        assert pin(out, "RDDATA_C1") == 0
        assert pin(out, "DATAOUT_C2") == 0
        assert pin(out, "ACK_C2") == LOW
        assert pin(out, "RST_DONE") == LOW

    def test_width_mismatch_rejected_before_stepping(self):
        # A word input must be an int that fits its width and a level input a
        # bool; anything else, including a Word, a binary string, a bool bus
        # or an int level, is a ValueError that names the field, never a
        # TypeError (or a truthy string) inside the kernel.
        params = Params(4, 8)
        state = system_new(params)
        for field, value in [
            ("rdaddr_c1", 16),
            ("rdaddr_c1", -1),
            ("wrdata_c1", 256),
            ("addr_c2", Word(4, 0)),
            ("datain_c2", "00000000"),
            ("wraddr_c1", True),
            ("rd_en_c1", "0"),
            ("rst_n", 1),
            ("request_c2", None),
        ]:
            bad = make_inputs(params)._replace(**{field: value})
            with pytest.raises(ValueError, match=field):
                system_step(state, bad, params)


@pytest.mark.parametrize("params", [Params(4, 8), Params(13, 8)], ids=["a4", "a13"])
def test_input_check_walks_every_input_pin(params):
    # Every input row of the pin table, with every kind of wrong value for
    # its role: the error names that field, in the loop's exact words, and
    # both ends of each bus's range and both levels pass.
    state = system_new(params)
    quiet = ClientInputs.quiet(rst_n=HIGH)
    for _, direction, role, field in PINS:
        if direction != "in":
            continue
        if role == "level":
            bad, good = [1, 0, "1", None], [True, False]
            reason = "is not a level (a bool)"
        else:
            w = params.width(role)
            bad, good = [2**w, -1, True, 1.0, Word(w, 0), "0" * w], [0, 2**w - 1]
            reason = f"does not fit params width {w}"
        for value in bad:
            with pytest.raises(ValueError) as info:
                system_step(state, quiet._replace(**{field: value}), params)
            assert str(info.value) == f"{field} = {value!r} {reason}"
        for value in good:
            system_step(state, quiet._replace(**{field: value}), params)
    # With every field wrong the first input pin of the table is named.
    with pytest.raises(ValueError, match="^rst_n = None "):
        system_step(state, ClientInputs(*[None] * len(ClientInputs._fields)), params)


def test_input_check_is_remembered_for_one_record_and_params_only():
    # The check remembers the last record that passed, with its params, by
    # identity: the same record under other params is checked again, and a
    # bad record right after a good one, or twice in a row, still raises.
    a4, a3 = Params(4, 8), Params(3, 8)
    good = ClientInputs.quiet(rst_n=HIGH)._replace(rdaddr_c1=8)
    bad = good._replace(wrdata_c1=256)
    state = system_new(a4)
    for _ in range(3):
        state, _ = system_step(state, good, a4)
    with pytest.raises(ValueError, match="^rdaddr_c1 = 8 does not fit params width 3$"):
        system_step(system_new(a3), good, a3)
    system_step(state, good, a4)
    for _ in range(2):
        with pytest.raises(ValueError, match="^wrdata_c1 = 256 "):
            system_step(state, bad, a4)
    system_step(state, good, a4)
    with pytest.raises(ValueError, match="^rdaddr_c1 = 8 "):
        system_step(system_new(a3), good, a3)


def test_input_check_remembers_no_inputs_that_can_change():
    # Only a tuple is remembered: a list of the ten values steps like the
    # tuple, and a bad value written into it later is still caught.
    params = Params(4, 8)
    state = system_new(params)
    inp = list(ClientInputs.quiet(rst_n=HIGH))
    state, _ = system_step(state, inp, params)
    inp[3] = 16  # rdaddr_c1, one past the widest 4-bit address
    with pytest.raises(ValueError, match="^rdaddr_c1 = 16 does not fit params width 4$"):
        system_step(state, inp, params)


@settings(max_examples=200, deadline=None)
@given(
    addr_width=st.integers(1, 16),
    data_width=st.integers(1, 16),
    reset_storm=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_drawn_record_passes_the_full_input_check(addr_width, data_width, reset_storm,
                                                        seed):
    # random_inputs stores each record it draws as passed, so system_step
    # never checks it: that is sound only because every draw would pass.
    params = Params(addr_width, data_width)
    rng = random.Random(seed)
    for inp in islice(random_inputs(rng, params, reset_storm), 50):
        drawn, drawn_params = arbsim.system._passed[0]
        assert drawn is inp and drawn_params is params
        arbsim.system._passed[0] = (None, None)
        arbsim.system._check_widths(inp, params)
        assert arbsim.system._passed[0][0] is inp


def test_a_drawn_record_is_checked_again_under_other_params_or_once_changed():
    # The draw vouches for one record object under one Params object: the
    # same record stepped at a narrower width, or an equal copy with one bad
    # value written in, is checked in full.
    wide, narrow = Params(8, 8), Params(2, 8)
    stream = random_inputs(random.Random(0), wide)
    inp = next(inp for inp in stream if inp[3] > 3)  # rdaddr_c1, wider than 2 bits
    with pytest.raises(ValueError, match=rf"^rdaddr_c1 = {inp[3]} does not fit params width 2$"):
        system_step(system_new(narrow), inp, narrow)
    inp = next(stream)
    bad = list(inp)
    bad[5] = 256  # wrdata_c1, one past the widest 8-bit word
    with pytest.raises(ValueError, match="^wrdata_c1 = 256 does not fit params width 8$"):
        system_step(system_new(wide), tuple(bad), wide)


def hand_drawn(rng, params, reset_storm):
    """One edge's record drawn by hand from ``rng``: with ``reset_storm``
    the level of rst_n first, low with probability 0.02, then every other
    input pin in field order, a level as ``random() < 0.5`` and a bus as
    ``getrandbits`` of its width."""
    rst_n = not (reset_storm and rng.random() < 0.02)
    rest = [rng.random() < 0.5 if role == "level" else rng.getrandbits(params.width(role))
            for _, d, role, _ in PINS[1:] if d == "in"]
    return (rst_n, *rest)


@pytest.mark.parametrize("reset_storm", [False, True])
@pytest.mark.parametrize("widths", [(1, 1), (4, 8), (13, 8), (40, 33)])
def test_the_stream_draws_each_record_in_field_order(widths, reset_storm):
    # The draw order fixes every campaign's stimulus, so every FuzzResult
    # and every recorded count: the stream must draw exactly what a hand
    # draw does, and nothing past the records taken.
    params = Params(*widths)
    for seed in range(5):
        rng, ref = random.Random(seed), random.Random(seed)
        drawn = list(islice(random_inputs(rng, params, reset_storm), 500))
        expected = [hand_drawn(ref, params, reset_storm) for _ in range(500)]
        assert drawn == expected, seed
        assert [tuple(map(type, r)) for r in drawn] == [tuple(map(type, r)) for r in expected]
        assert rng.getstate() == ref.getstate(), seed


def test_a_campaign_draws_each_record_as_it_steps_it():
    # A campaign ten times longer peaks at the same memory: its stimulus is
    # drawn an edge at a time, never the whole campaign ahead of its steps.
    params = Params(4, 8)

    def peak(cycles):
        tracemalloc.start()
        try:
            assert run_fuzz(0, cycles, params, reset_storm=True).ok
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2_000)  # first use: caches and interned values are made here
    assert peak(20_000) - peak(2_000) <= 4 * 1024


@pytest.mark.parametrize("params", [Params(4, 8), Params(13, 8)], ids=["a4", "a13"])
def test_input_check_reads_a_plain_tuple_by_position(params):
    # Stimulus may be a plain tuple in ClientInputs field order, as fuzz and
    # replay build it: a bad value is named in the same words as in the
    # ClientInputs form, and inputs that are not ten values are one
    # ValueError that names the ten input pins.
    state = system_new(params)
    quiet = ClientInputs.quiet(rst_n=HIGH)
    for field, (_, _, role, _) in zip(ClientInputs._fields, PINS):
        bad = [1, None, "1"] if role == "level" else [1 << params.width(role), -1, True, None]
        for value in bad:
            named = quiet._replace(**{field: value})
            with pytest.raises(ValueError) as want:
                system_step(state, named, params)
            with pytest.raises(ValueError) as got:
                system_step(state, tuple(named), params)
            assert str(got.value) == str(want.value)
            assert str(got.value).startswith(f"{field} = {value!r} ")
    names = ", ".join(ClientInputs._fields)
    for bad in [tuple(quiet)[:9], (*quiet, LOW), (), None, 0]:
        with pytest.raises(ValueError) as info:
            system_step(state, bad, params)
        assert str(info.value) == f"inputs must be one value per input pin, 10 in all: {names}"


@pytest.mark.parametrize("registered", [False, True])
def test_client_inputs_and_the_equal_plain_tuple_step_alike(registered):
    # ClientInputs names the inputs for hand-written stimulus; the steps read
    # them by position, so a record and the plain tuple of its values give
    # equal successors and equal outputs from every state of a reset storm.
    params = Params(3, 6, registered_output=registered)
    state = system_new(params)
    for inp in reset_storm(params):
        assert type(inp) is tuple
        named = ClientInputs(*inp)
        post, out = system_step(state, inp, params)
        named_post, named_out = system_step(state, named, params)
        assert named_post == post and named_out == out, (state, inp)
        assert [type(r) for r in named_post] == [type(r) for r in post]
        state = post


class TestRoundTrips:
    def test_client1_write_then_read(self, params):
        state = fresh_system(params)
        state, _ = run_cycles(
            state,
            make_inputs(params, wr_en_c1=HIGH, wraddr_c1="1010", wrdata_c1="10100011"),
            2, params,
        )
        state, out = run_cycles(
            state, make_inputs(params, rd_en_c1=HIGH, rdaddr_c1="1010"), 2, params
        )
        assert pin(out, "RDDATA_C1") == parse_word("10100011", 8).value

    def test_client2_write_then_read_with_acks(self, params):
        state = fresh_system(params)
        write = make_inputs(
            params, request_c2=HIGH, rd_not_write_c2=LOW, addr_c2="1110",
            datain_c2="11100011",
        )
        write_acks = []
        for _ in range(6):
            state, out = system_step(state, write, params)
            write_acks.append(pin(out, "ACK_C2"))
        read = make_inputs(params, request_c2=HIGH, rd_not_write_c2=HIGH, addr_c2="1110")
        read_acks = []
        for _ in range(6):
            state, out = system_step(state, read, params)
            read_acks.append(pin(out, "ACK_C2"))
        assert pin(out, "DATAOUT_C2") == parse_word("11100011", 8).value
        assert any(write_acks) and any(read_acks)

    def test_clash_bypass_delivers_in_flight_write(self, params):
        state = fresh_system(params)
        state, _ = run_cycles(
            state,
            make_inputs(params, wr_en_c1=HIGH, wraddr_c1="1001", wrdata_c1="10101111"),
            2, params,
        )
        clash = make_inputs(
            params, rd_en_c1=HIGH, rdaddr_c1="1001",
            wr_en_c1=HIGH, wraddr_c1="1001", wrdata_c1="10100011",
        )
        state, out = system_step(state, clash, params)
        assert pin(out, "RDDATA_C1") == parse_word("10100011", 8).value  # never the stale word
        arb, _ = state
        assert arb.addr_clash == HIGH

    def test_reset_midrun_wipes_memory(self, params):
        state = fresh_system(params)
        state, _ = run_cycles(
            state,
            make_inputs(params, wr_en_c1=HIGH, wraddr_c1="1010", wrdata_c1="10101111"),
            3, params,
        )
        _, ram = state
        assert ram.memory[0b1010] == parse_word("10101111", 8).value
        state, _ = run_cycles(state, make_inputs(params, rst_n=LOW), 2, params)
        state, out = run_cycles(
            state, make_inputs(params), params.ram_depth() + 1, params
        )
        assert pin(out, "RST_DONE") == HIGH
        _, ram = state
        assert all(w == 0 for w in ram.memory)
        state, out = run_cycles(
            state, make_inputs(params, rd_en_c1=HIGH, rdaddr_c1="1010"), 2, params
        )
        assert pin(out, "RDDATA_C1") == 0


def test_a_paced_client2_read_holds_its_latched_address():
    # A client2 read latches ADDR_C2 on the edge its ack register sets; on
    # the next edge the ack register is still set, so the channel is paced
    # and holds the address it latched, whatever ADDR_C2 shows by then.
    params = Params(4, 8)
    state = fresh_system(params)
    for addr, word in ((1, 5), (2, 9)):
        write = make_inputs(params, wr_en_c1=HIGH, wraddr_c1=addr, wrdata_c1=word)
        state, _ = system_step(state, write, params)
    read = make_inputs(params, request_c2=HIGH, rd_not_write_c2=HIGH, addr_c2=1)
    state, _ = system_step(state, read, params)
    arb, _ = state
    assert (arb.pr_read, arb.temp_rd_addr, arb.temp_ack) == (ChannelState.CLIENT2_READ, 1, HIGH)
    state, out = system_step(state, read._replace(addr_c2=2), params)
    arb, _ = state
    assert (arb.pr_read, arb.temp_rd_addr) == (ChannelState.CLIENT2_READ, 1)
    assert pin(out, "DATAOUT_C2") == 5


@pytest.mark.parametrize("registered", [False, True])
def test_a_same_edge_read_and_write_keeps_the_old_word(registered):
    # A read and a write of one address on one edge raise the clash flag,
    # and the RAM's read register takes the word stored before the write.
    # Once the flag is down, both read outputs show that old word.
    params = Params(4, 8, registered_output=registered)
    state = fresh_system(params)
    write = make_inputs(params, wr_en_c1=HIGH, wraddr_c1=1, wrdata_c1=5)
    state, _ = system_step(state, write, params)
    state, _ = system_step(state, write._replace(rd_en_c1=HIGH, rdaddr_c1=1, wrdata_c1=9),
                           params)
    arb, _ = state
    assert arb.addr_clash is HIGH
    state, out = run_cycles(state, make_inputs(params), 2, params)
    assert (pin(out, "RDDATA_C1"), pin(out, "DATAOUT_C2")) == (5, 5)
    _, ram = state
    assert ram.memory[1] == 9


class TestReadLatency:
    """Regression-locked pipeline constants for client1 reads, at the top
    address of each of three widths."""

    WIDTHS = (2, 4, 6)
    WORD = parse_word("11011011", 8).value

    def prepared(self, addr_width, registered):
        """A swept system whose top word holds WORD, and a read of it."""
        params = Params(addr_width, 8, registered_output=registered)
        top = params.ram_depth() - 1
        state = fresh_system(params)
        write = make_inputs(params, wr_en_c1=HIGH, wraddr_c1=top, wrdata_c1=self.WORD)
        state, _ = run_cycles(state, write, 2, params)
        return params, state, make_inputs(params, rd_en_c1=HIGH, rdaddr_c1=top)

    def test_unregistered_data_valid_at_the_sampling_edge(self):
        for addr_width in self.WIDTHS:
            params, state, read = self.prepared(addr_width, registered=False)
            _, out = system_step(state, read, params)
            assert pin(out, "RDDATA_C1") == self.WORD, addr_width

    def test_registered_data_valid_one_edge_later(self):
        for addr_width in self.WIDTHS:
            params, state, read = self.prepared(addr_width, registered=True)
            state, out = system_step(state, read, params)
            assert pin(out, "RDDATA_C1") == 0, addr_width
            _, out = system_step(state, read, params)
            assert pin(out, "RDDATA_C1") == self.WORD, addr_width


def reset_storm(params):
    """2,000 edges of random stimulus with rst_n low on about 2 % of them."""
    return list(islice(random_inputs(random.Random(0), params, reset_storm=True), 2000))


def with_drawn_reset(rng, params, p_low):
    """``random_inputs``' stream, each record's ``rst_n`` replaced by a level
    drawn from ``rng`` before the record, low with probability ``p_low``."""
    stream = random_inputs(rng, params)
    while True:
        rst_n = rng.random() >= p_low
        yield (rst_n, *next(stream)[1:])


def outputs_of(params, stimulus):
    """(post-edge ArbiterState, outputs) of each edge, from power-on."""
    state = system_new(params)
    rows = []
    for inp in stimulus:
        state, out = system_step(state, inp, params)
        arb, _ = state
        rows.append((arb, out))
    return rows


def registered_shift(addr_width, data_width):
    """(rst_n, unregistered DATAOUT_C2 of the edge before, 0 before edge 0,
    registered RDDATA_C1) of each edge of a reset storm."""
    stimulus = reset_storm(Params(addr_width, data_width))
    unreg = outputs_of(Params(addr_width, data_width, registered_output=False), stimulus)
    reg = outputs_of(Params(addr_width, data_width, registered_output=True), stimulus)
    before = [0] + [pin(out, "DATAOUT_C2") for _, out in unreg[:-1]]
    return [(ClientInputs(*inp).rst_n, word, pin(out, "RDDATA_C1"))
            for inp, word, (_, out) in zip(stimulus, before, reg, strict=True)]


SHIFT_WIDTHS = [(1, 1), (4, 8), (6, 12)]


@pytest.mark.parametrize("addr_width, data_width", SHIFT_WIDTHS)
def test_registered_shift_holds_across_reset_edges(addr_width, data_width):
    # Registered RDDATA_C1 on edge k is 0 while rst_n is low, and otherwise
    # unregistered DATAOUT_C2 of edge k-1 (0 before edge 0).
    edges = registered_shift(addr_width, data_width)
    expected = [word if high else 0 for high, word, _ in edges]
    assert [rddata_c1 for _, _, rddata_c1 in edges] == expected
    # A reset edge lands right after nonzero read data, so the zeroing is seen.
    assert any(word and not high for high, word, _ in edges)


@pytest.mark.parametrize("addr_width, data_width", SHIFT_WIDTHS)
def test_registered_shift_catches_a_registered_output_without_its_delay(
    monkeypatch, addr_width, data_width
):
    # The fault: registered RDDATA_C1 shows this edge's read mux, as
    # unregistered mode does, instead of the edge before's.  The corpus's
    # expectations hold in both modes, so they sample RDDATA_C1 where it
    # is the same one edge apart, and the fuzz invariants do not read it:
    # neither fails on this fault, and the shift comparison must.
    resolve = arbsim.system.resolve_outputs

    def undelayed(pre, inp, post, params):
        return resolve(pre, inp, post, replace(params, registered_output=False))

    monkeypatch.setattr(arbsim.system, "resolve_outputs", undelayed)
    edges = registered_shift(addr_width, data_width)
    assert [rddata_c1 for _, _, rddata_c1 in edges] != [
        word if high else 0 for high, word, _ in edges
    ]


@pytest.mark.parametrize("registered", [False, True])
def test_the_read_register_outlives_reset(registered):
    # The RAM's read register is never cleared: after a read of word 9 at
    # address 3, both read outputs show 9 through two rst_n-low edges and
    # the whole zeroing sweep, although word 3 is 0 by then, until the next
    # read.  Registered RDDATA_C1 alone is 0 on the rst_n-low edges.
    params = Params(2, 4, registered_output=registered)
    state = fresh_system(params)
    write = make_inputs(params, wr_en_c1=HIGH, wraddr_c1="11", wrdata_c1="1001")
    read = make_inputs(params, rd_en_c1=HIGH, rdaddr_c1="11")
    low, idle = make_inputs(params, rst_n=LOW), make_inputs(params)
    state, _ = run_cycles(state, write, 2, params)
    state, _ = run_cycles(state, read, 2, params)
    timeline = []
    for inp in [low] * 2 + [idle] * (params.ram_depth() + 1):
        state, out = system_step(state, inp, params)
        timeline.append((pin(out, "RDDATA_C1"), pin(out, "DATAOUT_C2"), pin(out, "RST_DONE")))
    reset_rddata = 0 if registered else 9
    assert timeline == ([(reset_rddata, 9, LOW)] * 2 + [(9, 9, LOW)] * params.ram_depth()
                        + [(9, 9, HIGH)])
    _, ram = state
    assert ram.memory[3] == 0
    state, out = system_step(state, read, params)
    assert (pin(out, "RDDATA_C1"), pin(out, "DATAOUT_C2")) == ((9 if registered else 0), 0)


def test_state_graph_does_not_depend_on_the_output_mode():
    # A system state is the pair of the arbiter's registers and the RAM; the
    # output register option is an argument of each step and changes only
    # how the outputs resolve.  So the same stimulus steps both modes
    # through equal states, while the outputs differ.
    arb, ram = system_new(Params(3, 6))
    assert (type(arb), type(ram)) == (ArbiterState, RamState)
    stimulus = reset_storm(Params(3, 6))
    runs = {}
    for registered in (False, True):
        params = Params(3, 6, registered_output=registered)
        state, runs[registered] = system_new(params), []
        for inp in stimulus:
            state, out = system_step(state, inp, params)
            runs[registered].append((state, out))
    assert [s for s, _ in runs[False]] == [s for s, _ in runs[True]]
    assert [o for _, o in runs[False]] != [o for _, o in runs[True]]


def test_the_arbiter_reads_no_ram_output(monkeypatch):
    # The arbiter's next state and the RAM's inputs are functions of the
    # arbiter's registers and the pins alone, so nothing flows from the RAM
    # back into the arbiter.  From every state of a reset storm, the same
    # edge over a RAM with another registered read word and another memory
    # word must step the arbiter alike; only the outputs, which
    # resolve_outputs alone reads off the RAM, may differ.  An 8-word
    # memory is a tuple and a 64-word one a Memory.
    assert arbsim.resolve_outputs is arbsim.system.resolve_outputs
    assert not hasattr(arbsim.arbiter, "resolve_outputs")
    ram_step = arbsim.system.ram_step
    ram_inputs = []

    def spy_ram(ram, ram_in):
        ram_inputs.append(ram_in)
        return ram_step(ram, ram_in)

    monkeypatch.setattr(arbsim.system, "ram_step", spy_ram)
    for addr_width in (3, 6):
        params = Params(addr_width, 6)
        flip = (1 << params.data_width) - 1
        rng = random.Random(0)
        state, outputs_differ = system_new(params), 0
        for inp in reset_storm(params):
            (arb, ram), addr = state, rng.getrandbits(params.addr_width)
            memory, word = ram.memory, ram.memory[addr] ^ flip
            memory = (memory[:addr] + (word,) + memory[addr + 1:] if type(memory) is tuple
                      else memory.set(addr, word))
            other_ram = ram._replace(memory=memory, rd_data_reg=ram.rd_data_reg ^ flip)
            post, out = system_step(state, inp, params)
            other, other_out = system_step((arb, other_ram), inp, params)
            (post_arb, _), (other_arb, _) = post, other
            assert other_arb == post_arb, (state, inp)
            assert ram_inputs[-1] == ram_inputs[-2], (state, inp)
            outputs_differ += other_out != out
            state = post
        # The swap reaches the outputs, so it is one the edge could see.
        assert outputs_differ > 0, addr_width


def test_rst_done_and_read_mux_facts_hold_on_every_row():
    # The kernel keeps no RST_DONE register and one read-data mux: the two
    # channels leave reset together, RST_DONE shows exactly that, and
    # unregistered client1 reads the same word as client2.
    pick = itemgetter(*[PIN[name] for name in (
        "READ_STATE", "WRITE_STATE", "RST_DONE", "RDDATA_C1", "DATAOUT_C2")])
    rows = []
    for base in builtin_scenarios():
        for registered in (False, True):
            s = replace(base, params=replace(base.params, registered_output=registered))
            rows += [(registered, *pick(row)) for row in run_scenario(s).rows]
    assert len(rows) == 5722
    params = Params(4, 8)
    rows += [
        (False, arb.pr_read, arb.pr_write,
         pin(out, "RST_DONE"), pin(out, "RDDATA_C1"), pin(out, "DATAOUT_C2"))
        for arb, out in outputs_of(params, reset_storm(params))
    ]
    for registered, read_state, write_state, rst_done, rddata_c1, dataout_c2 in rows:
        in_reset = read_state is ChannelState.RESET
        assert in_reset == (write_state is ChannelState.RESET)
        assert rst_done == (not in_reset)
        assert registered or rddata_c1 == dataout_c2


def test_every_corpus_row_is_its_edge_stepped_again():
    # Row k holds edge k's inputs; stepping them from the row before's state
    # gives the rest of the row, so a row is what its edge made.  No
    # structural invariant breaks on any of the corpus's edges.
    n_in = len(ClientInputs._fields)
    edges = 0
    for base in builtin_scenarios():
        for registered in (False, True):
            s = replace(base, params=replace(base.params, registered_output=registered))
            params, state = s.params, system_new(s.params)
            for k, row in enumerate(run_scenario(s).rows):
                inp = ClientInputs(*row[:n_in])
                post, out = system_step(state, inp, params)
                (pre_arb, _), (post_arb, _) = state, post
                assert pin_row(inp, out, post_arb) == row, (s.name, registered, k)
                assert check_invariants(pre_arb, inp, post_arb, out, params) == [], (
                    s.name, registered, k)
                state = post
                edges += 1
    assert edges == 5722


# (record, field, role) of every bus register that the kernel keeps, and
# (pin name, role) of every bus output.
WORD_FIELDS = [
    ("arbiter", name, role)
    for name, role in [
        ("temp_rd_addr", "addr"), ("temp_wr_addr", "addr"), ("temp_wr_data", "data"),
    ]
] + [
    ("arbiter", f, role) for _, d, role, f in PINS if d == "probe" and role in ("addr", "data")
] + [("ram", "rd_data_reg", "data")]
WORD_OUTPUTS = [(name, role) for name, d, role, _ in PINS if d == "out" and role != "level"]


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=2**32), st.booleans())
def test_kernel_words_are_ints_within_their_width(seed, registered):
    params = Params(3, 6, registered_output=registered)
    rng = random.Random(seed)
    state = system_new(params)
    for inp in islice(with_drawn_reset(rng, params, 0.05), 80):
        state, out = system_step(state, inp, params)
        arb, ram = state
        records = {"arbiter": arb, "ram": ram}
        words = [
            (f"{record}.{field}", getattr(records[record], field), role)
            for record, field, role in WORD_FIELDS
        ]
        words += [(name, pin(out, name), role) for name, role in WORD_OUTPUTS]
        for path, v, role in words:
            assert type(v) is int and 0 <= v < 1 << params.width(role), (path, v)
        assert all(type(w) is int and 0 <= w < 1 << 6 for w in ram.memory)


def test_kernel_builds_no_word(monkeypatch):
    def refuse(self):
        raise AssertionError(f"Word built inside the kernel: {self.width}, {self.value}")

    monkeypatch.setattr(Word, "__post_init__", refuse)
    params = Params(4, 8)
    assert run_fuzz(0, 500, params, reset_storm=True).ok
    rng = random.Random(3)
    state = system_new(params)
    for inp in islice(with_drawn_reset(rng, params, 0.05), 200):
        state, _ = system_step(state, inp, params)


def broken_mux(mux):
    """A resolve_outputs whose post-edge read data is mux(arbiter, RAM
    read register); registered RDDATA_C1 still reads the pre-edge mux."""
    resolve = arbsim.system.resolve_outputs

    def broken(pre, inp, post, params):
        arb, ram = post
        data = mux(arb, ram.rd_data_reg)
        rddata_c1, _, ack_c2, rst_done = resolve(pre, inp, post, params)
        return rddata_c1 if params.registered_output else data, data, ack_c2, rst_done

    return arbsim.system, "resolve_outputs", broken


def broken_grants(rewrite):
    """An fsm_next whose channel states pass through rewrite(read, write, inputs)."""
    fsm = arbsim.arbiter.fsm_next

    def broken(pr_read, pr_write, inp, reset_count, params):
        rd, wr, reset_count = fsm(pr_read, pr_write, inp, reset_count, params)
        return (*rewrite(rd, wr, inp), reset_count)

    return arbsim.arbiter, "fsm_next", broken


def drop_client2(rd, wr, inp):
    idle = ChannelState.IDLE
    return (idle if rd is ChannelState.CLIENT2_READ else rd,
            idle if wr is ChannelState.CLIENT2_WRITE else wr)


def client2_write_first(rd, wr, inp):
    inp = ClientInputs(*inp)
    wins = wr is ChannelState.CLIENT1_WRITE and inp.request_c2 and not inp.rd_not_write_c2
    return rd, ChannelState.CLIENT2_WRITE if wins else wr


# Faults planted in the kernel, each through a name that the benchmark wraps
# or a public one: (module, name, replacement), and the property that must
# report the fault.
PLANTED_FAULTS = {
    "ignores-clash": (broken_mux(lambda arb, ram_word: ram_word), "clash-bypass"),
    "swapped-arms": (
        broken_mux(lambda arb, ram_word: ram_word if arb.addr_clash else arb.temp_wr_data),
        "clash-bypass",
    ),
    "drops-client2-grants": (broken_grants(drop_client2), "write-grant"),
    "never-clashes": ((arbsim.arbiter, "detect_clash", lambda *latched: LOW), "clash-flag"),
    "client2-write-first": (broken_grants(client2_write_first), "write-grant"),
}


@pytest.mark.parametrize("fault, prop", PLANTED_FAULTS.values(), ids=PLANTED_FAULTS.keys())
def test_fuzz_catches_a_broken_output_mux(monkeypatch, fault, prop):
    # The checks read the channel states, the clash flag and DATAOUT_C2 as
    # the kernel makes them, so each fault fails every short fuzz-a4
    # campaign of seeds 0-2 in both modes, reported as its property.  The
    # clean campaigns leave a steady edge in the arbiter's memo; the
    # campaigns after it step fresh objects, which the memo never answers.
    modes = [Params(4, 8, registered) for registered in (False, True)]
    assert all(run_fuzz(seed, 2000, p, reset_storm=True).ok for p in modes for seed in range(3))
    assert arbsim.arbiter._held[0][2] is modes[-1]
    monkeypatch.setattr(*fault)
    for params in modes:
        for seed in range(3):
            v = run_fuzz(seed, 2000, params, reset_storm=True).violation
            assert v is not None and v.prop == prop, (params, seed, v)


def test_corpus_observes_the_clash_bypass_on_its_first_edge(monkeypatch):
    # tc07 reads and writes one address at 2300 ns; the bypass drives the
    # new word on DATAOUT_C2 at that edge, while the RAM still holds the old
    # one.  A kernel whose clash flag never rises drives the old word there,
    # so tc07's expectation at 2300 ns fails in both output modes.
    cases = [
        replace(s, params=replace(s.params, registered_output=registered))
        for s in builtin_scenarios()
        for registered in (False, True)
    ]

    def failing():
        return {
            (s.name.split("-")[0], s.params.registered_output)
            for s in cases if not check_assertions(run_scenario(s), s).passed
        }

    assert failing() == set()
    monkeypatch.setattr(*PLANTED_FAULTS["never-clashes"][0])
    assert {("tc07", False), ("tc07", True)} <= failing()


def test_fuzz_needs_at_least_one_cycle():
    with pytest.raises(ValueError, match="cycles must be >= 1"):
        run_fuzz(0, 0, Params(4, 8))


def test_fuzz_needs_a_seed_of_zero_or_more():
    # random.Random seeds from the absolute value: seed -5 would step seed
    # 5's inputs and report them as another campaign.
    with pytest.raises(ValueError, match="^seed must be >= 0$"):
        run_fuzz(-5, 50, Params(4, 8), reset_storm=True)
    assert run_fuzz(0, 1, Params(4, 8)).ok


def test_determinism_identical_stimulus_identical_states():
    params = Params(4, 8)
    rng_a, rng_b = random.Random(123), random.Random(123)

    def run(rng):
        state = fresh_system(params)
        hist = []
        for inp in islice(random_inputs(rng, params), 300):
            state, out = system_step(state, inp, params)
            hist.append((state, out))
        return hist

    assert run(rng_a) == run(rng_b)


@settings(deadline=None, max_examples=60)
@given(
    st.integers(min_value=0, max_value=2**32),
    st.sampled_from(["c1", "c2"]),
    st.sampled_from(["c1", "c2"]),
    st.integers(min_value=2, max_value=6),
)
def test_write_read_round_trip_any_client_pair(seed, writer, reader, gap):
    params = Params(3, 6)
    rng = random.Random(seed)
    addr = Word(3, rng.getrandbits(3))
    data = Word(6, rng.getrandbits(6))
    state = fresh_system(params)

    if writer == "c1":
        wr = make_inputs(params, wr_en_c1=HIGH, wraddr_c1=addr.render(),
                         wrdata_c1=data.render())
    else:
        wr = make_inputs(params, request_c2=HIGH, rd_not_write_c2=LOW,
                         addr_c2=addr.render(), datain_c2=data.render())
    state, _ = run_cycles(state, wr, 3, params)
    state, _ = run_cycles(state, make_inputs(params), gap, params)

    if reader == "c1":
        rd = make_inputs(params, rd_en_c1=HIGH, rdaddr_c1=addr.render())
        state, out = run_cycles(state, rd, 3, params)
        assert pin(out, "RDDATA_C1") == data.value
    else:
        rd = make_inputs(params, request_c2=HIGH, rd_not_write_c2=HIGH,
                         addr_c2=addr.render())
        state, out = run_cycles(state, rd, 3, params)
        assert pin(out, "DATAOUT_C2") == data.value


def test_ram_inputs_are_built_once_per_edge(monkeypatch):
    # The RAM steps on the very RamInputs that the arbiter returned, once
    # for each trace row, and drives it from the row's reset pin and the
    # arbiter's drive registers.
    arbiter_step, ram_step = arbsim.system.arbiter_step, arbsim.system.ram_step
    returned, received = [], []

    def spy_arbiter(*args):
        returned.append(arbiter_step(*args))
        return returned[-1]

    def spy_ram(*args):
        received.append(args[1])
        return ram_step(*args)

    monkeypatch.setattr(arbsim.system, "arbiter_step", spy_arbiter)
    monkeypatch.setattr(arbsim.system, "ram_step", spy_ram)
    trace = run_scenario(builtin_by_name("tc07"))
    assert len(returned) == len(received) == len(trace.rows) > 0
    for (post, ram_in), got, row in zip(returned, received, trace.rows):
        assert got is ram_in
        assert ram_in == RamInputs(
            row[PIN["RST_N"]], post.temp_rd_en, post.temp_wr_en, post.temp_rd_addr,
            post.temp_wr_addr, post.temp_wr_data,
        )


def test_a_quiet_edge_shares_one_ram_inputs_per_reset_level(monkeypatch):
    # A RamInputs is immutable, so an edge that leaves all five drive
    # registers clear passes the RAM one shared record for its reset level
    # rather than an equal new one: through a reset, the whole sweep and an
    # idle hold.  An edge that latches a request passes a new record of its
    # registers.
    ram_step = arbsim.system.ram_step
    received = []

    def spy_ram(*args):
        received.append(args[1])
        return ram_step(*args)

    monkeypatch.setattr(arbsim.system, "ram_step", spy_ram)
    params = Params(4, 8)
    read = make_inputs(params, rd_en_c1=HIGH, rdaddr_c1="0101")
    stimulus = (
        [ClientInputs.quiet(rst_n=LOW)] * 2
        + [ClientInputs.quiet()] * (params.ram_depth() + 4)
        + [read] * 2
    )
    state = system_new(params)
    posts = []
    for inp in stimulus:
        state, _ = system_step(state, inp, params)
        posts.append(state[0])
    assert len(received) == len(stimulus)
    shared, latched = {}, []
    for inp, post, ram_in in zip(stimulus, posts, received):
        registers = (post.temp_rd_en, post.temp_wr_en, post.temp_rd_addr,
                     post.temp_wr_addr, post.temp_wr_data)
        assert type(ram_in) is RamInputs
        assert ram_in == RamInputs(inp.rst_n, *registers)
        if any(registers):
            latched.append(ram_in)
        else:
            assert ram_in is shared.setdefault(inp.rst_n, ram_in)
            assert ram_in == RamInputs(inp.rst_n, LOW, LOW, 0, 0, 0)
    assert set(shared) == {LOW, HIGH}
    assert len(latched) == 2 and latched[0] is not latched[1]
    assert not any(r is s for r in latched for s in shared.values())


@pytest.mark.parametrize("registered", [False, True])
def test_steps_return_their_declared_record_types(monkeypatch, registered):
    # The arbiter's state, the RAM's state and the RAM's inputs are
    # NamedTuples, which compare equal to any tuple with the same values;
    # so equality alone cannot tell a step that returns a bare tuple or
    # another record type.  The system state, the outputs and the fuzz
    # stimulus are plain tuples, which equal a NamedTuple of the same
    # values just as well.  Pin the exact types and lengths.
    arbiter_step = arbsim.system.arbiter_step
    ram_inputs = []

    def spy_arbiter(*args):
        result = arbiter_step(*args)
        ram_inputs.append(result[1])
        return result

    monkeypatch.setattr(arbsim.system, "arbiter_step", spy_arbiter)
    params = Params(3, 4, registered_output=registered)
    rng = random.Random(11)
    state = system_new(params)
    assert type(state) is tuple and len(state) == 2
    stream = random_inputs(rng, params)
    for _ in range(300):
        rst_n = rng.random() >= 0.05
        inp = next(stream)
        assert type(inp) is tuple and len(inp) == len(ClientInputs._fields)
        inp = (rst_n, *inp[1:])
        state, out = system_step(state, inp, params)
        assert type(state) is tuple and len(state) == 2
        assert type(out) is tuple and len(out) == len(OUTPUTS) == 4
        arb, ram = state
        assert type(arb) is ArbiterState
        assert type(ram) is RamState
        # The kernel compares states with ``is``: a plain int code would
        # equal its member and still match no branch.
        assert type(arb.pr_read) is ChannelState
        assert type(arb.pr_write) is ChannelState
    assert len(ram_inputs) == 300
    assert all(type(r) is RamInputs for r in ram_inputs)
    rows = run_scenario(builtin_by_name("tc07")).rows
    assert rows and all(type(row) is tuple and len(row) == len(PINS) for row in rows)


def assert_whole_records(value, seen):
    """Every NamedTuple in ``value``, nested ones included, has one value
    per field; ``seen`` collects their types."""
    if isinstance(value, tuple):
        fields = getattr(type(value), "_fields", None)
        if fields is not None:
            assert len(value) == len(fields), (type(value).__name__, value)
            seen.add(type(value))
        for item in value:
            assert_whole_records(item, seen)


@pytest.mark.parametrize("registered", [False, True])
def test_every_per_edge_record_has_one_value_per_field(monkeypatch, registered):
    # The per-edge records are built by tuple.__new__, which, unlike the
    # __new__ that NamedTuple generates, takes a tuple of any length: a
    # build that drops or adds a field could go unnoticed.  The plain
    # tuples of an edge have no fields to count, so their shapes are
    # pinned by name: a stimulus is ten values, the outputs four and the
    # state the pair (arbiter, ram).  random_inputs returns a stream, so
    # its spy records each record the stream yields.
    results = []
    plain = {"system_step": [], "random_inputs": [], "_apply_event": []}

    def spy(module, name):
        fn = getattr(module, name)

        def spying(*args, **kwargs):
            result = fn(*args, **kwargs)
            results.append(result)
            plain.get(name, []).append(result)
            return result

        def spying_stream(*args, **kwargs):
            for result in fn(*args, **kwargs):
                results.append(result)
                plain[name].append(result)
                yield result

        monkeypatch.setattr(module, name, spying_stream if name == "random_inputs" else spying)

    for module, name in [
        (arbsim.fuzz, "system_step"), (arbsim.fuzz, "random_inputs"),
        (arbsim.system, "arbiter_step"), (arbsim.system, "ram_step"),
        (arbsim.trace, "system_step"), (arbsim.trace, "_apply_event"),
    ]:
        spy(module, name)
    for params in (Params(1, 1, registered), Params(4, 8, registered)):
        assert run_fuzz(0, 2000, params, reset_storm=True).ok
    for s in builtin_scenarios():
        rows = run_scenario(
            replace(s, params=replace(s.params, registered_output=registered))
        ).rows
        # A row is a plain tuple of one value per pin, not a record.
        assert all(type(row) is tuple and len(row) == len(PINS) for row in rows), s.name
    seen = set()
    for result in results:
        assert_whole_records(result, seen)
    assert seen == {ArbiterState, RamState, RamInputs}
    assert all(plain.values())
    n_in = len(ClientInputs._fields)
    for inp in plain["random_inputs"] + plain["_apply_event"]:
        assert type(inp) is tuple and len(inp) == n_in, inp
    for state, out in plain["system_step"]:
        assert type(state) is tuple and len(state) == 2, state
        assert (type(state[0]), type(state[1])) == (ArbiterState, RamState)
        assert type(out) is tuple and len(out) == len(OUTPUTS), out
