"""Randomized stimulus campaigns checking the arbiter's invariants on every edge.

Out of reset each channel's next state is the fixed-priority grant of the
edge's inputs: client1's enable first, then client2 on the side its selector
picks, else idle.  In reset both channels are in reset while ``rst_n`` is
low, else equal and in reset or idle.  The clash flag is high exactly when
both RAM enables are latched high on one address, and DATAOUT_C2 then
carries the write data; no RAM enable is high in reset.  Read data and ack
values are not checked.  A run is reproducible from (seed, cycles, params).
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .arbiter import CLIENT1_READ, CLIENT1_WRITE, CLIENT2_READ, CLIENT2_WRITE, IDLE, RESET
from .arbiter import ArbiterState, ClientInputs
from .signals import HIGH, LOW, Params
from .system import _passed, system_new, system_step


class Violation(NamedTuple):
    cycle: int          # index within the measured phase
    prop: str
    detail: str

    @property
    def prefix_len(self) -> int:
        """Cycles of the measured phase needed to reproduce it."""
        return self.cycle + 1


class FuzzResult(NamedTuple):
    seed: int
    cycles: int
    violation: Violation | None

    @property
    def ok(self) -> bool:
        return self.violation is None


def random_inputs(rng: random.Random, params: Params, rst_n: bool = HIGH) -> tuple:
    """One edge of random stimulus: the ten input pins, a plain tuple in
    ``ClientInputs`` field order.  ``rst_n`` must be a level (a bool), else
    a ``ValueError`` is raised before anything is drawn."""
    if type(rst_n) is not bool:
        raise ValueError(f"rst_n = {rst_n!r} is not a level (a bool)")
    # Drawn in field order: a level is rand() < 0.5, a bus getrandbits of
    # its width.  The order fixes every campaign's stimulus.
    rand, word = rng.random, rng.getrandbits
    a, d = params.addr_width, params.data_width
    inp = (
        rst_n, rand() < 0.5, rand() < 0.5, word(a), word(a), word(d),
        rand() < 0.5, rand() < 0.5, word(a), word(d),
    )
    # Stored as passed, so system_step does not check it; the draw above must
    # keep the invariant stated at system._passed.
    _passed[0] = (inp, params)
    return inp


def check_invariants(
    pre: ArbiterState, inp: tuple, post: ArbiterState, out: tuple, params: Params
) -> list[tuple[str, str]]:
    """Return (property, detail) pairs for every invariant violated this edge,
    given its inputs and outputs as ``system_step`` takes and returns them."""
    bad: list[tuple[str, str]] = []
    rd, wr = post.pr_read, post.pr_write
    rst_n, rd_en_c1, wr_en_c1, _, _, _, request_c2, rd_not_write_c2, _, _ = inp

    if rst_n and pre.pr_read is not RESET:
        exp_rd = (CLIENT1_READ if rd_en_c1
                  else CLIENT2_READ if request_c2 and rd_not_write_c2 else IDLE)
        exp_wr = (CLIENT1_WRITE if wr_en_c1
                  else CLIENT2_WRITE if request_c2 and not rd_not_write_c2 else IDLE)
    else:
        # Not from reset_count, so that the check does not trust what it checks.
        exp_rd = exp_wr = IDLE if rst_n and rd is IDLE else RESET
    if rd is not exp_rd:
        bad.append(("read-grant", f"read={rd.name.lower()} expected={exp_rd.name.lower()}"))
    if wr is not exp_wr:
        bad.append(("write-grant", f"write={wr.name.lower()} expected={exp_wr.name.lower()}"))

    # A level is a bool, so ``is`` is its equality, without a rich compare.
    clash = post.temp_rd_en and post.temp_wr_en and post.temp_rd_addr == post.temp_wr_addr
    if post.addr_clash is not clash:
        bad.append(("clash-flag", f"clash={post.addr_clash:d} expected={clash:d}"))
    if post.addr_clash and out[1] != post.temp_wr_data:  # out[1] is DATAOUT_C2
        w = params.data_width
        bad.append(
            (
                "clash-bypass",
                f"bypass={out[1]:0{w}b} write={post.temp_wr_data:0{w}b}",
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
    yanked low during the measured phase as well.  The seed must be >= 0:
    ``random.Random`` seeds from its absolute value, so seed -5 would repeat
    seed 5's campaign.
    """
    if seed < 0:
        raise ValueError("seed must be >= 0")
    if cycles < 1:
        raise ValueError("cycles must be >= 1")
    rng = random.Random(seed)
    state = system_new(params)

    # Plain tuples, as random_inputs draws: a step unpacks one without an iterator.
    quiet = tuple(ClientInputs.quiet(rst_n=LOW))
    for _ in range(2):
        state, _ = system_step(state, quiet, params)
    warm = tuple(ClientInputs.quiet(rst_n=HIGH))
    for _ in range(params.ram_depth() + 2):
        state, _ = system_step(state, warm, params)

    draw = rng.random
    for cycle in range(cycles):
        rst_n = LOW if reset_storm and draw() < 0.02 else HIGH
        inp = random_inputs(rng, params, rst_n)
        pre = state[0]
        state, out = system_step(state, inp, params)
        bad = check_invariants(pre, inp, state[0], out, params)
        if bad:
            prop, detail = bad[0]
            return FuzzResult(seed, cycles, Violation(cycle, prop, detail))
    return FuzzResult(seed, cycles, None)
