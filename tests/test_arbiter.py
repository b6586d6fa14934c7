"""Arbiter core: grant FSM transitions, temp-register datapath, ack cadence."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arbsim import (
    HIGH,
    LOW,
    ArbiterState,
    ChannelState,
    ClientInputs,
    Params,
    arbiter_reset,
    arbiter_step,
    detect_clash,
    fsm_next,
    parse_word,
    ram_reset,
    resolve_outputs,
)
from arbsim import arbiter
from arbsim.fuzz import check_invariants, random_inputs

from conftest import make_inputs, pin

R = ChannelState.RESET
I = ChannelState.IDLE
C1R = ChannelState.CLIENT1_READ
C2R = ChannelState.CLIENT2_READ
C1W = ChannelState.CLIENT1_WRITE
C2W = ChannelState.CLIENT2_WRITE

PARAMS = Params(4, 8)


def nxt(pr_read, pr_write, count=0, **kw):
    return fsm_next(pr_read, pr_write, make_inputs(PARAMS, **kw), count, PARAMS)


def test_module_state_names_are_their_members():
    # The kernel binds the members to module names by unpacking the enum in
    # definition order; a reordered definition would bind a name to the
    # wrong member without failing the unpack.
    for member in ChannelState:
        assert getattr(arbiter, member.name) is member


class TestFsmTransitions:
    """The twenty grant-machine transitions, numbered as designed."""

    def test_01_idle_to_client1_read(self):
        assert nxt(I, I, rd_en_c1=HIGH)[0] == C1R

    def test_02_client1_read_to_idle(self):
        assert nxt(C1R, I, rd_en_c1=LOW)[0] == I

    def test_03_idle_to_client1_write(self):
        assert nxt(I, I, wr_en_c1=HIGH)[1] == C1W

    def test_04_client1_write_to_idle(self):
        assert nxt(I, C1W, wr_en_c1=LOW)[1] == I

    def test_05_idle_to_client2_read(self):
        assert nxt(I, I, request_c2=HIGH, rd_not_write_c2=HIGH)[0] == C2R

    def test_06_client2_read_to_idle(self):
        assert nxt(C2R, I, request_c2=LOW)[0] == I
        assert nxt(C2R, I, request_c2=HIGH, rd_not_write_c2=LOW)[0] == I

    def test_07_idle_to_client2_write(self):
        assert nxt(I, I, request_c2=HIGH, rd_not_write_c2=LOW)[1] == C2W

    def test_08_client2_write_to_idle(self):
        assert nxt(I, C2W, request_c2=LOW)[1] == I
        assert nxt(I, C2W, request_c2=HIGH, rd_not_write_c2=HIGH)[1] == I

    def test_09_client2_read_preempted_by_client1(self):
        assert nxt(C2R, I, rd_en_c1=HIGH, request_c2=HIGH, rd_not_write_c2=HIGH)[0] == C1R

    def test_10_client1_read_hands_over_to_client2(self):
        assert nxt(C1R, I, rd_en_c1=LOW, request_c2=HIGH, rd_not_write_c2=HIGH)[0] == C2R

    def test_11_client2_write_preempted_by_client1(self):
        assert nxt(I, C2W, wr_en_c1=HIGH, request_c2=HIGH, rd_not_write_c2=LOW)[1] == C1W

    def test_12_client1_write_hands_over_to_client2(self):
        assert nxt(I, C1W, wr_en_c1=LOW, request_c2=HIGH, rd_not_write_c2=LOW)[1] == C2W

    def test_13_client1_read_holds(self):
        assert nxt(C1R, I, rd_en_c1=HIGH)[0] == C1R

    def test_14_client1_write_holds(self):
        assert nxt(I, C1W, wr_en_c1=HIGH)[1] == C1W

    def test_15_client2_read_holds(self):
        assert nxt(C2R, I, request_c2=HIGH, rd_not_write_c2=HIGH, rd_en_c1=LOW)[0] == C2R

    def test_16_client2_write_holds(self):
        assert nxt(I, C2W, request_c2=HIGH, rd_not_write_c2=LOW, wr_en_c1=LOW)[1] == C2W

    def test_17_idle_holds(self):
        rd, wr, _ = nxt(I, I)
        assert (rd, wr) == (I, I)

    def test_18_reset_holds_while_counting(self):
        for count in range(PARAMS.ram_depth()):
            rd, wr, count2 = nxt(R, R, count=count)
            assert (rd, wr) == (R, R)
            assert count2 == count + 1

    def test_19_reset_to_idle_when_count_complete(self):
        rd, wr, count = nxt(R, R, count=PARAMS.ram_depth())
        assert (rd, wr) == (I, I)
        assert count == 0

    def test_20_any_state_to_reset_on_rst_n_low(self):
        for pr_read, pr_write in [(I, I), (C1R, C1W), (C2R, C2W), (C1R, I)]:
            rd, wr, count = nxt(pr_read, pr_write, count=7, rst_n=LOW)
            assert (rd, wr) == (R, R)
            assert count == 0


class TestDetectClash:
    def test_both_enables_same_address(self):
        a = parse_word("1010", 4).value
        assert detect_clash(HIGH, HIGH, a, a)

    def test_write_disabled(self):
        a = parse_word("1010", 4).value
        assert not detect_clash(HIGH, LOW, a, a)

    def test_distinct_addresses(self):
        assert not detect_clash(HIGH, HIGH, parse_word("1010", 4).value, parse_word("1001", 4).value)


def outputs(arb, ram_word=0, params=PARAMS):
    """The unregistered output pins over the post-edge arbiter state ``arb``
    and a RAM whose read register holds ``ram_word``.  Unregistered outputs
    read no pre-edge state, so none is passed."""
    assert not params.registered_output
    post = (arb, ram_reset(params)._replace(rd_data_reg=ram_word))
    return resolve_outputs(None, make_inputs(params), post, params)


def idle_arbiter(params=PARAMS):
    """Arbiter that has finished its init sweep and sits idle."""
    state = arbiter_reset()
    state, _ = arbiter_step(state, make_inputs(params, rst_n=LOW), params)
    for _ in range(params.ram_depth() + 1):
        state, _ = arbiter_step(state, make_inputs(params), params)
    assert state.pr_read == I and state.pr_write == I
    assert pin(outputs(state, params=params), "RST_DONE") == HIGH
    return state


class TestArbiterStep:
    def test_client1_write_drives_ram(self):
        state = idle_arbiter()
        inp = make_inputs(PARAMS, wr_en_c1=HIGH, wraddr_c1="1010", wrdata_c1="10100011")
        state, drive = arbiter_step(state, inp, PARAMS)
        assert drive.wr_en == HIGH
        assert drive.wr_addr == parse_word("1010", 4).value
        assert drive.wr_data == parse_word("10100011", 8).value
        assert state.pr_write == C1W

    def test_client2_write_request_drives_ram_and_sets_ack_reg(self):
        state = idle_arbiter()
        inp = make_inputs(
            PARAMS, request_c2=HIGH, rd_not_write_c2=LOW, addr_c2="1110",
            datain_c2="11100011",
        )
        state, drive = arbiter_step(state, inp, PARAMS)
        assert drive.wr_en == HIGH
        assert drive.wr_addr == parse_word("1110", 4).value
        assert drive.wr_data == parse_word("11100011", 8).value
        assert state.temp_wr == HIGH

    def test_same_address_read_write_raises_clash_and_captures_data(self):
        state = idle_arbiter()
        inp = make_inputs(
            PARAMS, rd_en_c1=HIGH, rdaddr_c1="1010",
            wr_en_c1=HIGH, wraddr_c1="1010", wrdata_c1="10111011",
        )
        state, drive = arbiter_step(state, inp, PARAMS)
        assert state.addr_clash == HIGH
        # Client2 reads the in-flight write data, not the RAM's stale word.
        stale = parse_word("01000100", 8).value
        out = outputs(state, stale)
        assert pin(out, "DATAOUT_C2") == parse_word("10111011", 8).value
        assert drive.rd_en and drive.wr_en

    def test_idle_channels_clear_their_drive(self):
        state = idle_arbiter()
        inp = make_inputs(PARAMS, wr_en_c1=HIGH, wraddr_c1="1010", wrdata_c1="10100011")
        state, _ = arbiter_step(state, inp, PARAMS)
        state, drive = arbiter_step(state, make_inputs(PARAMS), PARAMS)
        assert drive.wr_en == LOW
        assert drive.wr_addr == 0
        assert drive.wr_data == 0

    def test_reset_clears_data_registers_and_enables(self):
        state = idle_arbiter()
        inp = make_inputs(
            PARAMS, rd_en_c1=HIGH, rdaddr_c1="1010",
            wr_en_c1=HIGH, wraddr_c1="1010", wrdata_c1="10111011",
        )
        state, _ = arbiter_step(state, inp, PARAMS)
        assert state.addr_clash == HIGH
        state, drive = arbiter_step(state, make_inputs(PARAMS, rst_n=LOW), PARAMS)
        assert state.pr_read == R and state.pr_write == R
        assert state.addr_clash == LOW
        assert drive.rd_en == LOW and drive.wr_en == LOW

    def test_enables_stay_low_during_whole_sweep(self):
        state = idle_arbiter()
        busy = make_inputs(PARAMS, rd_en_c1=HIGH, wr_en_c1=HIGH)
        state, _ = arbiter_step(state, make_inputs(PARAMS, rst_n=LOW, rd_en_c1=HIGH), PARAMS)
        for _ in range(PARAMS.ram_depth() + 1):
            state, drive = arbiter_step(state, busy, PARAMS)
            if state.pr_read == R:
                assert drive.rd_en == LOW and drive.wr_en == LOW


# Each ack train is checked at three widths, with client2 at the top address.
ACK_PARAMS = [(Params(addr_width, 8), (1 << addr_width) - 1) for addr_width in (2, 4, 6)]


def ack_series(params, **pins):
    """ACK_C2 levels over 12 consecutive edges of constant stimulus."""
    inp = make_inputs(params, **pins)
    state = idle_arbiter(params)
    acks = []
    for _ in range(12):
        state, _ = arbiter_step(state, inp, params)
        acks.append(pin(outputs(state, params=params), "ACK_C2"))
    return acks


def test_ack_pulse_train_for_continuous_client2_write_has_period_2():
    for params, top in ACK_PARAMS:
        acks = ack_series(params, request_c2=HIGH, rd_not_write_c2=LOW, addr_c2=top,
                          datain_c2="11100011")
        assert acks == [HIGH, LOW] * 6, params


def test_ack_pulse_train_for_continuous_client2_read_has_period_3():
    for params, top in ACK_PARAMS:
        acks = ack_series(params, request_c2=HIGH, rd_not_write_c2=HIGH, addr_c2=top)
        assert acks == [LOW, HIGH, LOW] * 4, params


def test_ack_silent_when_client2_never_granted():
    for params, top in ACK_PARAMS:
        acks = ack_series(params, rd_en_c1=HIGH, rdaddr_c1=top,
                          request_c2=HIGH, rd_not_write_c2=HIGH, addr_c2=top)
        assert acks == [LOW] * 12, params


ADDRS = st.integers(min_value=0, max_value=PARAMS.ram_depth() - 1)
WORDS = st.integers(min_value=0, max_value=(1 << PARAMS.data_width) - 1)
CLIENT_INPUTS = st.builds(
    ClientInputs, st.booleans(), st.booleans(), st.booleans(), ADDRS, ADDRS, WORDS,
    st.booleans(), st.booleans(), ADDRS, WORDS,
)
ARBITER_STATES = st.builds(
    ArbiterState, st.sampled_from(ChannelState), st.sampled_from(ChannelState),
    st.booleans(), st.booleans(), ADDRS, ADDRS, WORDS,
    st.booleans(), st.booleans(), st.booleans(), st.booleans(),
    st.integers(min_value=0, max_value=PARAMS.ram_depth()),
)


@settings(deadline=None, max_examples=300)
@given(ARBITER_STATES, CLIENT_INPUTS)
def test_a_reset_edge_clears_the_datapath_and_decays_the_read_ack(state, inp):
    # Any registers, and any inputs: with rst_n low any channel states, and
    # with rst_n high both channels in reset and the sweep still counting.
    if inp.rst_n:
        state = state._replace(
            pr_read=R, pr_write=R, reset_count=state.reset_count % PARAMS.ram_depth()
        )
    post, ram_in = arbiter_step(state, inp, PARAMS)
    _, _, count = fsm_next(state.pr_read, state.pr_write, inp, state.reset_count, PARAMS)
    # Nothing is granted, so the read ack registers only decay: both take
    # the read ack, cleared when its second register was set.
    ack = state.temp_ack and not state.temp_ack1
    assert post == (R, R, LOW, LOW, 0, 0, 0, ack, ack, LOW, LOW, count)
    levels = (post.temp_rd_en, post.temp_wr_en, post.temp_ack, post.temp_ack1,
              post.temp_wr, post.addr_clash)
    assert type(post) is ArbiterState and all(type(v) is bool for v in levels)
    # The shared quiet inputs of the reset pin's level, not an equal copy.
    assert ram_in is (arbiter._QUIET_RUN if inp.rst_n else arbiter._QUIET_RESET)
    assert ram_in == (inp.rst_n, LOW, LOW, 0, 0, 0)


class TestResolveOutputs:
    def test_unregistered_clash_high_returns_bypass(self):
        state = idle_arbiter()
        inp = make_inputs(
            PARAMS, rd_en_c1=HIGH, rdaddr_c1="1010",
            wr_en_c1=HIGH, wraddr_c1="1010", wrdata_c1="10111011",
        )
        state, _ = arbiter_step(state, inp, PARAMS)
        out = outputs(state, parse_word("10100011", 8).value)
        assert pin(out, "RDDATA_C1") == parse_word("10111011", 8).value
        assert pin(out, "DATAOUT_C2") == parse_word("10111011", 8).value

    def test_unregistered_clash_low_returns_ram_data(self):
        state = idle_arbiter()
        out = outputs(state, parse_word("10100011", 8).value)
        assert pin(out, "RDDATA_C1") == parse_word("10100011", 8).value
        assert pin(out, "DATAOUT_C2") == parse_word("10100011", 8).value

    def test_rst_done_follows_reset_register(self):
        params = PARAMS
        state = arbiter_reset()
        assert pin(outputs(state, params=params), "RST_DONE") == LOW
        state = idle_arbiter()
        assert pin(outputs(state, params=params), "RST_DONE") == HIGH


@settings(deadline=None, max_examples=120)
@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=120))
def test_structural_invariants_under_random_stimulus(seed, cycles):
    params = Params(3, 6)
    rng = random.Random(seed)
    state = idle_arbiter(params)
    for _ in range(cycles):
        inp = random_inputs(rng, params)
        ram_word = rng.getrandbits(params.data_width)
        pre = state
        state, _ = arbiter_step(state, inp, params)
        out = outputs(state, ram_word, params)
        assert check_invariants(pre, inp, state, out, params) == []


def test_clash_bypass_violation_detail_is_zero_padded_binary():
    # A DATAOUT_C2 that disagrees with the in-flight write data during a
    # clash is reported with both words rendered at the data width.
    idle = idle_arbiter()
    post = idle._replace(
        temp_rd_en=HIGH, temp_wr_en=HIGH, temp_rd_addr=0b1010,
        temp_wr_addr=0b1010, temp_wr_data=0b10100011, addr_clash=HIGH,
    )
    rddata_c1, _, ack_c2, rst_done = outputs(post)
    out = (rddata_c1, 0b00000101, ack_c2, rst_done)  # DATAOUT_C2 replaced
    bad = check_invariants(idle, make_inputs(PARAMS), post, out, PARAMS)
    assert bad == [("clash-bypass", "bypass=00000101 write=10100011")]


def test_violation_details_name_states_in_lower_case():
    # A state's value is its 3-bit code; the details name the state seen
    # and the state expected instead.
    idle = idle_arbiter()
    inp = make_inputs(PARAMS, rd_en_c1=HIGH, wr_en_c1=HIGH)
    idle_out = outputs(idle)
    assert check_invariants(idle, inp, idle, idle_out, PARAMS) == [
        ("read-grant", "read=idle expected=client1_read"),
        ("write-grant", "write=idle expected=client1_write"),
    ]
    swapped = idle._replace(pr_read=C1W, pr_write=C2R)
    swapped_out = outputs(swapped)
    assert check_invariants(idle, make_inputs(PARAMS), swapped, swapped_out, PARAMS) == [
        ("read-grant", "read=client1_write expected=idle"),
        ("write-grant", "write=client2_read expected=idle"),
    ]


SETTLED, POWER_ON = idle_arbiter(), arbiter_reset()
C2_READ = {"request_c2": HIGH, "rd_not_write_c2": HIGH}
C2_WRITE = {"request_c2": HIGH, "rd_not_write_c2": LOW}
CLASH = SETTLED._replace(
    temp_rd_en=HIGH, temp_wr_en=HIGH, temp_rd_addr=5, temp_wr_addr=5, addr_clash=HIGH
)

# One hand-built edge per row: (pre-edge state, inputs, post-edge state) and
# the exact (property, detail) list that check_invariants reports for it.
EDGES = {
    "client2-read-dropped": (SETTLED, C2_READ, SETTLED, [
        ("read-grant", "read=idle expected=client2_read"),
    ]),
    "client2-write-dropped": (SETTLED, C2_WRITE, SETTLED, [
        ("write-grant", "write=idle expected=client2_write"),
    ]),
    "client2-write-over-client1": (SETTLED, {"wr_en_c1": HIGH, **C2_WRITE},
                                   SETTLED._replace(pr_write=C2W), [
        ("write-grant", "write=client2_write expected=client1_write"),
    ]),
    "client2-holds-both": (SETTLED, C2_READ, SETTLED._replace(pr_read=C2R, pr_write=C2W), [
        ("write-grant", "write=client2_write expected=idle"),
    ]),
    "rst_n-low-read-idle": (SETTLED, {"rst_n": LOW}, POWER_ON._replace(pr_read=I), [
        ("read-grant", "read=idle expected=reset"),
    ]),
    "rst_n-low-write-idle": (SETTLED, {"rst_n": LOW}, POWER_ON._replace(pr_write=I), [
        ("write-grant", "write=idle expected=reset"),
    ]),
    "reset-split-read-idle": (POWER_ON, {}, POWER_ON._replace(pr_read=I), [
        ("write-grant", "write=reset expected=idle"),
    ]),
    "reset-split-write-idle": (POWER_ON, {}, POWER_ON._replace(pr_write=I), [
        ("write-grant", "write=idle expected=reset"),
    ]),
    "reset-grants-client1": (POWER_ON, {"rd_en_c1": HIGH, "wr_en_c1": HIGH},
                             POWER_ON._replace(pr_read=C1R, pr_write=C1W), [
        ("read-grant", "read=client1_read expected=reset"),
        ("write-grant", "write=client1_write expected=reset"),
    ]),
    "sweep-holds": (POWER_ON, {}, POWER_ON, []),
    "sweep-ends": (POWER_ON, {}, SETTLED, []),
    "clash-flag-high": (SETTLED, {}, CLASH, []),
    "clash-flag-missed": (SETTLED, {}, CLASH._replace(addr_clash=LOW), [
        ("clash-flag", "clash=0 expected=1"),
    ]),
    "clash-flag-distinct-addresses": (SETTLED, {}, CLASH._replace(temp_wr_addr=6), [
        ("clash-flag", "clash=1 expected=0"),
    ]),
    "clash-flag-one-enable": (SETTLED, {}, CLASH._replace(temp_wr_en=LOW), [
        ("clash-flag", "clash=1 expected=0"),
    ]),
    "reset-quiescence": (SETTLED, {"rst_n": LOW}, POWER_ON._replace(temp_wr_en=HIGH), [
        ("reset-quiescence", "RAM enable asserted during reset"),
    ]),
}


@pytest.mark.parametrize("pre, inputs, post, bad", EDGES.values(), ids=EDGES.keys())
def test_each_property_reports_its_hand_built_edge(pre, inputs, post, bad):
    inp = make_inputs(PARAMS, **inputs)
    out = outputs(post)
    assert check_invariants(pre, inp, post, out, PARAMS) == bad
