"""Dual-channel fixed-priority arbiter: grant FSM, temp registers, clash bypass.

The arbiter owns two independent grant channels (read and write).  Client1
has dedicated enables and always preempts; client2 shares one request pin
plus a read-not-write selector, so it can hold at most one channel at a
time.  Granted requests are latched into drive registers that feed the RAM.
When the latched read and write addresses collide with both enables high,
the clash flag rises, and the in-flight write data in the write drive
register is the bypass word that the reading client sees in place of the
stale memory word (``system.resolve_outputs``).  The arbiter reads no RAM
value.  Every bus is a plain ``int`` of its :class:`Params` width.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .ram import RamInputs, _new
from .signals import HIGH, LOW, Level, Params


class ChannelState(enum.IntEnum):
    """A grant channel's state.  Its value is the 3-bit code that the
    waveform and table exports show, so a state also equals that int; the
    kernel compares states with ``is``."""

    RESET = 0
    IDLE = 1
    CLIENT1_READ = 2
    CLIENT2_READ = 3
    CLIENT1_WRITE = 4
    CLIENT2_WRITE = 5


# The members as module names: on the per-edge path a global load costs
# about a tenth of a ``ChannelState.X`` lookup through the enum metaclass.
# The unpack fails at import if a member is added or removed, and
# tests/test_arbiter.py checks that each name is bound to its own member.
RESET, IDLE, CLIENT1_READ, CLIENT2_READ, CLIENT1_WRITE, CLIENT2_WRITE = ChannelState


# Three records built on every edge stay NamedTuples, ArbiterState here and
# RamState and RamInputs in ram.py, because the benchmark's wrappers read
# their fields by name.  Each is built by one C call, tuple.__new__(Record,
# (...)) bound once as ram._new, without the frame and the arity check of the
# generated __new__; tests/test_system.py checks the arity and pins the types
# the steps return (a NamedTuple equals any tuple of the same values).  The
# other per-edge bundles are plain tuples, which cost a quarter as much or
# less to build: the inputs in ClientInputs field order, the outputs in
# PINS order, and the system state (arbiter, ram).  ClientInputs names the
# inputs for hand-written stimulus; every step reads them by position.
class ClientInputs(NamedTuple):
    """Per-cycle snapshot of every top-level input pin."""

    rst_n: Level
    rd_en_c1: Level
    wr_en_c1: Level
    rdaddr_c1: int
    wraddr_c1: int
    wrdata_c1: int
    request_c2: Level
    rd_not_write_c2: Level
    addr_c2: int
    datain_c2: int

    @classmethod
    def quiet(cls, rst_n: Level = HIGH) -> "ClientInputs":
        return cls(rst_n, LOW, LOW, 0, 0, 0, LOW, LOW, 0, 0)


class ArbiterState(NamedTuple):
    pr_read: ChannelState
    pr_write: ChannelState
    temp_rd_en: Level
    temp_wr_en: Level
    temp_rd_addr: int
    temp_wr_addr: int
    temp_wr_data: int     # also the clash bypass while addr_clash is high
    temp_ack: Level
    temp_ack1: Level
    temp_wr: Level
    addr_clash: Level
    reset_count: int


# Every pin, in VCD/TSV column order and in the order of a trace row's
# values: (name, direction, role, field).  Direction "in" and "out" are the
# top-level pins; a "probe" is an internal register of the arbiter: a drive
# register (the RAM's inputs), a channel state or the clash flag.  A row is
# the inputs in ClientInputs field order, the outputs in the order that
# system.resolve_outputs returns them, then the probes; field names an input's
# ClientInputs field or a probe's post-edge ArbiterState field (an output has
# none).  The role sets the width (Params.width); every pin exports as its
# value in binary at that width, a channel state as its ChannelState code.
PINS: tuple[tuple[str, str, str, str | None], ...] = (
    ("RST_N", "in", "level", "rst_n"),
    ("RD_EN_C1", "in", "level", "rd_en_c1"),
    ("WR_EN_C1", "in", "level", "wr_en_c1"),
    ("RDADDR_C1", "in", "addr", "rdaddr_c1"),
    ("WRADDR_C1", "in", "addr", "wraddr_c1"),
    ("WRDATA_C1", "in", "data", "wrdata_c1"),
    ("REQUEST_C2", "in", "level", "request_c2"),
    ("RD_NOT_WRITE_C2", "in", "level", "rd_not_write_c2"),
    ("ADDR_C2", "in", "addr", "addr_c2"),
    ("DATAIN_C2", "in", "data", "datain_c2"),
    ("RDDATA_C1", "out", "data", None),
    ("DATAOUT_C2", "out", "data", None),
    ("ACK_C2", "out", "level", None),
    ("RST_DONE", "out", "level", None),
    ("RD_EN", "probe", "level", "temp_rd_en"),
    ("WR_EN", "probe", "level", "temp_wr_en"),
    ("RD_ADDR", "probe", "addr", "temp_rd_addr"),
    ("WR_ADDR", "probe", "addr", "temp_wr_addr"),
    ("WR_DATA", "probe", "data", "temp_wr_data"),
    ("READ_STATE", "probe", "state", "pr_read"),
    ("WRITE_STATE", "probe", "state", "pr_write"),
    ("ADDR_CLASH", "probe", "level", "addr_clash"),
)


def arbiter_reset() -> ArbiterState:
    """Power-on state: both channels in reset, every register cleared."""
    return ArbiterState(RESET, RESET, LOW, LOW, 0, 0, 0, LOW, LOW, LOW, LOW, 0)


def fsm_next(
    pr_read: ChannelState,
    pr_write: ChannelState,
    inp: tuple,
    reset_count: int,
    params: Params,
) -> tuple[ChannelState, ChannelState, int]:
    """One grant decision: next channel states and sweep counter.

    A low ``rst_n`` forces both channels into reset with the counter cleared.
    In reset with ``rst_n`` high the counter runs for one full memory depth,
    then both channels move to idle: they enter and leave reset together,
    which is what ``RST_DONE`` shows, so a result never has exactly one
    channel in reset.  Out of reset each channel independently grants
    client1 first (its enable always wins), then client2 when requested on
    the matching side of the read-not-write selector, and otherwise idles.
    The reset pin and the reset branch are decided before the grant inputs
    are read, so a reset or sweep edge reads one input.
    """
    if not inp[0]:
        return RESET, RESET, 0
    if pr_read is RESET or pr_write is RESET:
        if reset_count < 1 << params.addr_width:  # the RAM's depth
            return RESET, RESET, reset_count + 1
        return IDLE, IDLE, 0
    _, rd_en_c1, wr_en_c1, _, _, _, request_c2, rd_not_write_c2, _, _ = inp
    nx_read = (CLIENT1_READ if rd_en_c1
               else CLIENT2_READ if request_c2 and rd_not_write_c2 else IDLE)
    nx_write = (CLIENT1_WRITE if wr_en_c1
                else CLIENT2_WRITE if request_c2 and not rd_not_write_c2 else IDLE)
    return nx_read, nx_write, reset_count


def detect_clash(
    temp_rd_en: Level, temp_wr_en: Level, temp_rd_addr: int, temp_wr_addr: int
) -> Level:
    """High iff both latched enables are high and the addresses are equal."""
    return temp_rd_en and temp_wr_en and temp_rd_addr == temp_wr_addr


# The RAM's inputs on an edge whose five drive registers are all clear, shared
# per reset level; tested by value, as a paced client2 channel holds its registers.
_QUIET_RESET, _QUIET_RUN = (RamInputs(rst_n, LOW, LOW, 0, 0, 0) for rst_n in (LOW, HIGH))


def arbiter_step(
    state: ArbiterState, inp: tuple, params: Params
) -> tuple[ArbiterState, RamInputs]:
    """Advance the arbiter by one rising clock edge.

    Update order within the edge:

    1. the grant FSM decides the next channel owners;
    2. the drive registers latch from the granted client (idle or resetting
       channels clear their enables and zero their address/data registers;
       client2 latches are paced by the ack bookkeeping registers);
    3. the clash flag is computed from the just-latched drive registers;
       while it is high, the write drive register is the bypass;
    4. the client2 ack registers advance (write acks self-clear one cycle
       after they set, read acks run a set/hold/clear pattern).

    The next state reads only the arbiter's own registers and the pins, no
    RAM output.  Returns the post-edge state and the RAM's inputs for this
    edge: the raw reset pin and the just-latched drive registers.

    A reset or sweep edge, one that ``fsm_next`` sends into reset, returns
    before the inputs are read: every drive register and the clash flag
    clear, the write ack clears, both read ack registers take
    ``temp_ack and not temp_ack1`` of the pre-edge state (the cadence of
    step 4 with nothing granted), and the RAM gets the shared quiet inputs
    for the reset pin.
    """
    (pr_read, pr_write, temp_rd_en, temp_wr_en, temp_rd_addr, temp_wr_addr,
     temp_wr_data, pre_ack, pre_ack1, pre_wr, _, reset_count) = state
    nx_read, nx_write, reset_count = fsm_next(pr_read, pr_write, inp, reset_count, params)
    if nx_read is RESET:
        # fsm_next sends both channels into reset together.
        temp_ack = pre_ack and not pre_ack1
        return _new(ArbiterState, (
            nx_read, nx_write, LOW, LOW, 0, 0, 0, temp_ack, temp_ack, LOW, LOW, reset_count,
        )), _QUIET_RUN if inp[0] else _QUIET_RESET

    (_, rd_en_c1, wr_en_c1, rdaddr_c1, wraddr_c1, wrdata_c1,
     _, _, addr_c2, datain_c2) = inp

    # Out of reset (so rst_n is high) a channel is idle, client1's or client2's;
    # a client2 channel latches only while its ack register is low, and holds else.
    temp_ack = pre_ack
    if nx_read is IDLE:
        temp_rd_en, temp_rd_addr = LOW, 0
    elif nx_read is CLIENT1_READ:
        temp_rd_en, temp_rd_addr = rd_en_c1, rdaddr_c1
    elif not pre_ack:
        temp_rd_en, temp_rd_addr, temp_ack = HIGH, addr_c2, HIGH

    # A write ack sets only while it was low and clears on the next edge.
    temp_wr = LOW
    if nx_write is IDLE:
        temp_wr_en, temp_wr_addr, temp_wr_data = LOW, 0, 0
    elif nx_write is CLIENT1_WRITE:
        temp_wr_en, temp_wr_addr, temp_wr_data = wr_en_c1, wraddr_c1, wrdata_c1
    elif not pre_wr:
        temp_wr_en, temp_wr_addr, temp_wr_data, temp_wr = HIGH, addr_c2, datain_c2, HIGH

    addr_clash = detect_clash(temp_rd_en, temp_wr_en, temp_rd_addr, temp_wr_addr)

    # Ack cadence, guarded on pre-edge values: a set and its clear never
    # land on the same edge, so continuous client2 service produces a
    # period-2 pulse train for writes and period-3 for reads.
    temp_ack1 = pre_ack
    if pre_ack1:
        temp_ack1 = LOW
        temp_ack = LOW

    # One C call, in field order: through the generated __new__ this
    # record took 1.7 times as long to build, and by keyword 4 times.
    new = _new(ArbiterState, (
        nx_read, nx_write, temp_rd_en, temp_wr_en, temp_rd_addr, temp_wr_addr,
        temp_wr_data, temp_ack, temp_ack1, temp_wr, addr_clash, reset_count,
    ))
    if not (temp_rd_en or temp_wr_en or temp_rd_addr or temp_wr_addr or temp_wr_data):
        return new, _QUIET_RUN
    return new, _new(RamInputs, (
        HIGH, temp_rd_en, temp_wr_en, temp_rd_addr, temp_wr_addr, temp_wr_data
    ))

