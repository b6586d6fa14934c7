#!/usr/bin/env python3
"""Measure the pipeline constants: init-sweep length, read latency, ack cadence.

Prints one row per address width with the observed edge counts, so changes
to the stepping semantics show up immediately as diffs of this table.
"""

from arbsim import (
    HIGH,
    LOW,
    ClientInputs,
    Params,
    system_new,
    system_step,
)
from arbsim.arbiter import PINS


# Output pin name -> its index in a step's outputs, which are the output
# pins' values in PINS order.
OUT = {name: i for i, name in enumerate(name for name, d, _, _ in PINS if d == "out")}


def sweep_edges(params):
    state = system_new(params)
    for _ in range(2):
        state, _ = system_step(state, ClientInputs.quiet(rst_n=LOW), params)
    edges = 0
    while True:
        state, out = system_step(state, ClientInputs.quiet(), params)
        edges += 1
        if out[OUT["RST_DONE"]]:
            return edges, state


def read_latency(params, state):
    addr = params.ram_depth() - 1
    data = (1 << params.data_width) - 3
    write = ClientInputs.quiet()._replace(wr_en_c1=HIGH, wraddr_c1=addr, wrdata_c1=data)
    for _ in range(2):
        state, _ = system_step(state, write, params)
    read = ClientInputs.quiet()._replace(rd_en_c1=HIGH, rdaddr_c1=addr)
    for lag in range(6):
        state, out = system_step(state, read, params)
        if out[OUT["RDDATA_C1"]] == data:
            return lag
    return None


def ack_cadence(params, state, rd_not_write):
    req = ClientInputs.quiet()._replace(
        request_c2=HIGH,
        rd_not_write_c2=rd_not_write,
        addr_c2=1,
        datain_c2=1,
    )
    acks = []
    for _ in range(12):
        state, out = system_step(state, req, params)
        acks.append("1" if out[OUT["ACK_C2"]] else "0")
    return "".join(acks)


def main():
    print("addr_width  sweep_edges  rd_lag_unreg  rd_lag_reg  ack_write      ack_read")
    for width in (2, 4, 6):
        unreg = Params(width, 8)
        reg = Params(width, 8, registered_output=True)
        # A settled state holds no output mode, so both modes start from it.
        edges, settled = sweep_edges(unreg)
        lag_u = read_latency(unreg, settled)
        lag_r = read_latency(reg, settled)
        wr_acks = ack_cadence(unreg, settled, rd_not_write=LOW)
        rd_acks = ack_cadence(unreg, settled, rd_not_write=HIGH)
        print(
            f"{width:>10}  {edges:>11}  {lag_u:>12}  {lag_r:>10}  {wr_acks}  {rd_acks}"
        )


if __name__ == "__main__":
    main()
