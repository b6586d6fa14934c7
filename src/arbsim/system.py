"""Composition of the arbiter and the RAM into the full two-client system.

Evaluation order within one rising edge is fixed: the arbiter steps first,
on its own registers and the pins; the RAM then steps, driven by the
arbiter's freshly latched request registers; :func:`resolve_outputs` then
reads the states before and after the edge.  No arbiter register reads a
RAM output, so the path is feed-forward and the whole system is a
deterministic step function.
"""

from __future__ import annotations

from .arbiter import PINS, RESET, ArbiterState, arbiter_reset, arbiter_step
from .ram import RamState, ram_reset, ram_step
from .signals import Level, Params


def system_new(params: Params) -> tuple[ArbiterState, RamState]:
    """Both blocks at power-on: the system state, the pair ``(arbiter, ram)``."""
    return arbiter_reset(), ram_reset(params)


# (ClientInputs field, role) of every input pin, in field order.
_INPUTS = [(f, r) for _, d, r, f in PINS if d == "in"]


# The last (inputs, params) pair that passed: both are immutable and the
# check reads nothing else, so system_step skips the check, without a call,
# while the record and the params it is given are these two objects.  A
# record held over many edges is thus checked once.  One tuple, read and
# replaced whole, so no caller matches one call's record with another call's
# params; a list made at import holds it, so storing it rebinds no module
# name.  A record that fails is never stored, nor inputs that are not a
# tuple: a list could change between two edges.
# Its one writer outside this module is the stream ``fuzz.random_inputs``,
# which stores each record it draws, unchecked, as it yields it.  That is
# sound only while the stream draws each value in its pin's type and width:
# ``rst_n`` LOW or HIGH, every other level ``rand() < 0.5``, and every bus
# ``getrandbits(width)`` of the very ``params`` it stores beside the record.
_passed: list[tuple[tuple | None, Params | None]] = [(None, None)]


def _check_widths(inp: tuple, params: Params) -> None:
    """The inputs must be one value per input pin, in ``ClientInputs`` field
    order: for a level a bool, for a bus an int that fits its width.  A
    tuple that passes is stored in ``_passed``."""
    # A fresh record is tested in one unrolled expression; the loop over the
    # pin table below only names the field.  A bus fits its width when no bit
    # is left after shifting the width out, and a negative int stays negative.
    try:
        (rst_n, rd_en_c1, wr_en_c1, rdaddr_c1, wraddr_c1, wrdata_c1,
         request_c2, rd_not_write_c2, addr_c2, datain_c2) = inp
    except (TypeError, ValueError):
        names = ", ".join(field for field, _ in _INPUTS)
        raise ValueError(
            f"inputs must be one value per input pin, {len(_INPUTS)} in all: {names}"
        ) from None
    if (
        type(rst_n) is bool and type(rd_en_c1) is bool and type(wr_en_c1) is bool
        and type(request_c2) is bool and type(rd_not_write_c2) is bool
        and type(rdaddr_c1) is int and type(wraddr_c1) is int and type(addr_c2) is int
        and type(wrdata_c1) is int and type(datain_c2) is int
        and not (rdaddr_c1 | wraddr_c1 | addr_c2) >> params.addr_width
        and not (wrdata_c1 | datain_c2) >> params.data_width
    ):
        if isinstance(inp, tuple):
            _passed[0] = (inp, params)
        return
    for (field, role), v in zip(_INPUTS, inp):
        if role == "level":
            if type(v) is not bool:
                raise ValueError(f"{field} = {v!r} is not a level (a bool)")
        elif not (type(v) is int and 0 <= v < 1 << params.width(role)):
            raise ValueError(f"{field} = {v!r} does not fit params width {params.width(role)}")


def resolve_outputs(
    pre: tuple[ArbiterState, RamState], inp: tuple, post: tuple[ArbiterState, RamState],
    params: Params,
) -> tuple[int, int, Level, Level]:
    """The output pins of one edge, in ``PINS`` order, from its inputs and
    the system states ``(arbiter, ram)`` before and after it.

    Both clients read the post-edge RAM's read register, or the write data
    while the clash flag is up; registered RDDATA_C1 reads instead that mux
    over the pre-edge state, and 0 on an edge with ``rst_n`` low.  ACK_C2
    is either client2 ack register; RST_DONE is high once out of reset.
    """
    arb, ram = post
    data = rddata_c1 = arb.temp_wr_data if arb.addr_clash else ram.rd_data_reg
    if params.registered_output:
        pre_arb, pre_ram = pre
        rddata_c1 = ((pre_arb.temp_wr_data if pre_arb.addr_clash else pre_ram.rd_data_reg)
                     if inp[0] else 0)
    return rddata_c1, data, arb.temp_ack1 or arb.temp_wr, arb.pr_read is not RESET


def system_step(
    state: tuple[ArbiterState, RamState], inp: tuple, params: Params
) -> tuple[tuple[ArbiterState, RamState], tuple[int, int, Level, Level]]:
    """Advance the whole system by one rising clock edge.

    The state is the pair ``(arbiter, ram)`` and ``inp`` a ``ClientInputs``
    or the plain tuple of its values.  Returns the post-edge state and the
    output pins' values in ``PINS`` order.  After the inputs are checked,
    the arbiter steps and returns the RAM's inputs for this edge, the RAM
    steps on them, and ``resolve_outputs`` reads the edge's two states.
    """
    last_inp, last_params = _passed[0]
    if inp is not last_inp or params is not last_params:
        _check_widths(inp, params)
    arb, ram_in = arbiter_step(state[0], inp, params)
    post = arb, ram_step(state[1], ram_in)
    return post, resolve_outputs(state, inp, post, params)
