"""Randomized stimulus campaigns checking the arbiter's structural invariants.

Every measured cycle is checked for: channel-state polarity, client2 never
holding both channels, client1 preemption, the client2 admission rules,
the write data on DATAOUT_C2 during a clash, and quiet RAM enables while a
channel is in reset.  Runs are reproducible from (seed, cycles, params) alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .arbiter import CLIENT1_READ, CLIENT1_WRITE, CLIENT2_READ, CLIENT2_WRITE, IDLE, RESET
from .arbiter import ArbiterState, ClientInputs, ClientOutputs
from .signals import HIGH, LOW, Params
from .system import SystemState, system_new, system_step

_READ_STATES = {RESET, IDLE, CLIENT1_READ, CLIENT2_READ}
_WRITE_STATES = {RESET, IDLE, CLIENT1_WRITE, CLIENT2_WRITE}


@dataclass(frozen=True, slots=True)
class Violation:
    cycle: int          # index within the measured phase
    prefix_len: int     # cycles needed to reproduce (cycle + 1)
    prop: str
    detail: str


@dataclass(frozen=True)
class FuzzResult:
    seed: int
    cycles: int
    violation: Violation | None

    @property
    def ok(self) -> bool:
        return self.violation is None


def random_inputs(rng: random.Random, params: Params, rst_n: bool = HIGH) -> ClientInputs:
    # Positional, drawn in field order: a level is rand() < 0.5, a bus
    # getrandbits of its width.  The order fixes every campaign's stimulus.
    rand, word = rng.random, rng.getrandbits
    a, d = params.addr_width, params.data_width
    return tuple.__new__(ClientInputs, (
        rst_n, rand() < 0.5, rand() < 0.5, word(a), word(a), word(d),
        rand() < 0.5, rand() < 0.5, word(a), word(d),
    ))


def check_invariants(
    pre: ArbiterState, inp: ClientInputs, post: ArbiterState, out: ClientOutputs, params: Params
) -> list[tuple[str, str]]:
    """Return (property, detail) pairs for every invariant violated this edge."""
    bad: list[tuple[str, str]] = []
    rd, wr = post.pr_read, post.pr_write

    if rd not in _READ_STATES or wr not in _WRITE_STATES:
        bad.append(("channel-polarity", f"read={rd.name.lower()} write={wr.name.lower()}"))

    if rd is CLIENT2_READ and wr is CLIENT2_WRITE:
        bad.append(("client2-single-op", "client2 holds both channels"))

    out_of_reset = inp.rst_n and pre.pr_read is not RESET
    if out_of_reset:
        if inp.rd_en_c1 and rd is not CLIENT1_READ:
            bad.append(("client1-read-preemption", f"read={rd.name.lower()}"))
        if inp.wr_en_c1 and wr is not CLIENT1_WRITE:
            bad.append(("client1-write-preemption", f"write={wr.name.lower()}"))
        if rd is CLIENT2_READ and not (
            not inp.rd_en_c1 and inp.request_c2 and inp.rd_not_write_c2
        ):
            bad.append(("client2-read-admission", "granted without eligibility"))
        if wr is CLIENT2_WRITE and not (
            not inp.wr_en_c1 and inp.request_c2 and not inp.rd_not_write_c2
        ):
            bad.append(("client2-write-admission", "granted without eligibility"))
        if inp.rd_en_c1 and inp.wr_en_c1 and (
            rd is CLIENT2_READ or wr is CLIENT2_WRITE
        ):
            bad.append(("client2-blocked", "client2 granted while client1 does both"))

    if post.addr_clash:
        if not (post.temp_rd_en and post.temp_wr_en):
            bad.append(("clash-flag", "clash high without both enables"))
        if post.temp_rd_addr != post.temp_wr_addr:
            bad.append(("clash-flag", "clash high with distinct addresses"))
        if out.dataout_c2 != post.temp_wr_data:
            w = params.data_width
            bad.append(
                (
                    "clash-bypass",
                    f"bypass={out.dataout_c2:0{w}b} write={post.temp_wr_data:0{w}b}",
                )
            )

    if rd is RESET and (post.temp_rd_en or post.temp_wr_en):
        bad.append(("reset-quiescence", "RAM enable asserted during reset"))

    return bad


def run_fuzz(
    seed: int,
    cycles: int,
    params: Params,
    reset_storm: bool = False,
) -> FuzzResult:
    """Drive `cycles` edges of random legal stimulus and check every edge.

    The run starts with a reset release and a full init sweep so the checks
    are not vacuous; with ``reset_storm`` the reset pin is occasionally
    yanked low during the measured phase as well.
    """
    if cycles < 1:
        raise ValueError("cycles must be >= 1")
    rng = random.Random(seed)
    state: SystemState = system_new(params)

    quiet = ClientInputs.quiet(rst_n=LOW)
    for _ in range(2):
        state, _ = system_step(state, quiet, params)
    warm = ClientInputs.quiet(rst_n=HIGH)
    for _ in range(params.ram_depth() + 2):
        state, _ = system_step(state, warm, params)

    for cycle in range(cycles):
        rst_n = HIGH
        if reset_storm and rng.random() < 0.02:
            rst_n = LOW
        inp = random_inputs(rng, params, rst_n=rst_n)
        pre = state.arbiter
        state, out = system_step(state, inp, params)
        bad = check_invariants(pre, inp, state.arbiter, out, params)
        if bad:
            prop, detail = bad[0]
            return FuzzResult(seed, cycles, Violation(cycle, cycle + 1, prop, detail))
    return FuzzResult(seed, cycles, None)
