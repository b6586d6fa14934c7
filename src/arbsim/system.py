"""Composition of the arbiter and the RAM into the full two-client system.

Evaluation order within one rising edge is fixed: the arbiter steps first,
reading the RAM's pre-edge registered output; the RAM then steps, driven by
the arbiter's freshly latched request registers.  The feedback loop crosses
a register in each direction, so the order is well defined and the whole
system is a deterministic step function.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arbiter import (
    PINS,
    ArbiterState,
    ClientInputs,
    ClientOutputs,
    arbiter_reset,
    arbiter_step,
    resolve_outputs,
)
from .ram import RamInputs, RamState, ram_reset, ram_step
from .signals import Params


@dataclass(frozen=True, slots=True)
class SystemState:
    params: Params
    arbiter: ArbiterState
    ram: RamState
    cycle: int


def system_new(params: Params) -> SystemState:
    """Both blocks at power-on, cycle counter at zero."""
    return SystemState(params, arbiter_reset(params), ram_reset(params), 0)


# (ClientInputs field, role) of every word input.
_WORD_INPUTS = [(p.split(".")[1], r) for _, d, r, p in PINS if d == "in" and r != "level"]


def _check_widths(inp: ClientInputs, params: Params) -> None:
    for field, role in _WORD_INPUTS:
        v = getattr(inp, field)
        if not (type(v) is int and 0 <= v < 1 << params.width(role)):
            raise ValueError(f"{field} = {v!r} does not fit params width {params.width(role)}")


def system_step(
    state: SystemState, inp: ClientInputs
) -> tuple[SystemState, ClientOutputs]:
    """Advance the whole system by one rising clock edge.

    1. capture the RAM's current (pre-edge) registered read data;
    2. step the arbiter with it, producing the new drive bundle;
    3. step the RAM with that drive and the raw reset pin;
    4. resolve the client outputs from the post-edge arbiter registers and
       the post-edge RAM read data.
    """
    params = state.params
    _check_widths(inp, params)
    pre_rd_data: int = state.ram.rd_data_reg
    arb, drive = arbiter_step(state.arbiter, inp, pre_rd_data, params)
    ram_in = RamInputs(
        rst_n=inp.rst_n,
        rd_en=drive.rd_en,
        wr_en=drive.wr_en,
        rd_addr=drive.rd_addr,
        wr_addr=drive.wr_addr,
        wr_data=drive.wr_data,
    )
    ram, post_rd_data = ram_step(state.ram, ram_in, params)
    out = resolve_outputs(arb, post_rd_data, params)
    return SystemState(params, arb, ram, state.cycle + 1), out
