"""Composition of the arbiter and the RAM into the full two-client system.

Evaluation order within one rising edge is fixed: the arbiter steps first,
on its own registers and the pins; the RAM then steps, driven by the
arbiter's freshly latched request registers; the output mux then reads
both.  No arbiter register reads a RAM output, so the path is feed-forward
and the whole system is a deterministic step function.
"""

from __future__ import annotations

from .arbiter import PINS, ArbiterState, arbiter_reset, arbiter_step, resolve_outputs
from .ram import RamState, ram_reset, ram_step
from .signals import Level, Params


def system_new(params: Params) -> tuple[ArbiterState, RamState]:
    """Both blocks at power-on: the system state, the pair ``(arbiter, ram)``."""
    return arbiter_reset(), ram_reset(params)


# (ClientInputs field, role) of every input pin, in field order.
_INPUTS = [(p.split(".")[1], r) for _, d, r, p in PINS if d == "in"]


# The last (inputs, params) pair that passed: both are immutable and the
# check reads nothing else, so a record held over many edges is checked once.
# One tuple, read and replaced whole, so no caller matches one call's record
# with another call's params; a list made at import holds it, so storing it
# rebinds no module name.  A record that fails is never stored, nor inputs
# that are not a tuple: a list could change between two edges.
_passed: list[tuple[tuple | None, Params | None]] = [(None, None)]


def _check_widths(inp: tuple, params: Params) -> None:
    """The inputs must be one value per input pin, in ``ClientInputs`` field
    order: for a level a bool, for a bus an int that fits its width."""
    last_inp, last_params = _passed[0]
    if inp is last_inp and params is last_params:
        return
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


def system_step(
    state: tuple[ArbiterState, RamState], inp: tuple, params: Params
) -> tuple[tuple[ArbiterState, RamState], tuple[int, int, Level, Level]]:
    """Advance the whole system by one rising clock edge.

    The state is the pair ``(arbiter, ram)`` and ``inp`` a ``ClientInputs``
    or the plain tuple of its values.  Returns the post-edge state and the
    output pins' values in ``PINS`` order.

    1. step the arbiter; it returns the RAM's inputs for this edge;
    2. step the RAM with those inputs;
    3. resolve the client outputs from the post-edge arbiter registers and
       the post-edge RAM read data.  Registered RDDATA_C1 is the read mux
       of the pre-edge state, and 0 on an edge with ``rst_n`` low.
    """
    _check_widths(inp, params)
    pre, ram = state
    prev_rd_data = (pre.temp_wr_data if pre.addr_clash else ram.rd_data_reg) if inp[0] else 0
    arb, ram_in = arbiter_step(pre, inp, params)
    ram, post_rd_data = ram_step(ram, ram_in)
    out = resolve_outputs(arb, post_rd_data, prev_rd_data, params)
    return (arb, ram), out
