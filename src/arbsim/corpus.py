"""Builtin scenario corpus: 3 RAM-only exercises and 34 two-client system cases.

Each scenario starts from power-on with reset held low for the first 100 ns,
then drives one stimulus schedule (all timing in nanoseconds).  The RAM-only
cases go through client1's dedicated pins, which is the identical read/write
path.  Expectations pin down the waveform behavior of each case: read-back
values, clash-bypass data, ack pulse trains, and ack silence under priority
starvation.
"""

from __future__ import annotations

import functools

from .scenario import Scenario, parse_scenario

_CORPUS_TEXT: tuple[str, ...] = (
    # -- RAM block exercises (100 ns clock) --------------------------------
    """
    scenario ram-01-write
    params addr=4 data=8 registered=0
    clock 100
    @100 RST_N = 1
    @200 WR_EN_C1 = 1
    @200 RD_EN_C1 = 0
    @200 WRADDR_C1 = 1101
    @200 WRDATA_C1 = 11100111
    expect @1800 RST_DONE = high
    expect @2500 RDDATA_C1 = 00000000
    expect quiet ACK_C2 in 0..2800
    run 2800
    """,
    """
    scenario ram-02-read
    params addr=4 data=8 registered=0
    clock 100
    @100 RST_N = 1
    @200 WR_EN_C1 = 1
    @200 RD_EN_C1 = 0
    @200 WRADDR_C1 = 1101
    @200 WRDATA_C1 = 11100111
    @1900 WR_EN_C1 = 0
    @1900 RD_EN_C1 = 1
    @1900 RDADDR_C1 = 1101
    expect @1800 RST_DONE = high
    expect @2600 RDDATA_C1 = 11100111
    run 3600
    """,
    """
    scenario ram-03-read-write
    params addr=4 data=8 registered=0
    clock 100
    @100 RST_N = 1
    @200 WR_EN_C1 = 1
    @200 RD_EN_C1 = 0
    @200 WRADDR_C1 = 1101
    @200 WRDATA_C1 = 11100111
    @1900 WR_EN_C1 = 0
    @1900 RD_EN_C1 = 1
    @1900 RDADDR_C1 = 1101
    @3600 WR_EN_C1 = 1
    @3600 RDADDR_C1 = 1101
    @3600 WRADDR_C1 = 1011
    @3600 WRDATA_C1 = 10111001
    @5300 RDADDR_C1 = 1011
    @5300 WRADDR_C1 = 1000
    @5300 WRDATA_C1 = 10011111
    expect @2600 RDDATA_C1 = 11100111
    expect @4500 RDDATA_C1 = 11100111
    expect @6000 RDDATA_C1 = 10111001
    run 6500
    """,
    # -- Two-client system cases (50 ns clock) ------------------------------
    """
    scenario tc01-c1-write
    params addr=4 data=8 registered=0
    clock 50
    @100 RST_N = 1
    @600 WR_EN_C1 = 1
    @600 WRADDR_C1 = 1010
    @600 WRDATA_C1 = 10100011
    expect @1200 RST_DONE = high
    expect @3900 RDDATA_C1 = 00000000
    expect quiet ACK_C2 in 0..4000
    run 4000
    """,
    """
    scenario tc02-c1-read
    params addr=4 data=8 registered=0
    clock 50
    @100 RST_N = 1
    @600 WR_EN_C1 = 1
    @600 WRADDR_C1 = 1010
    @600 WRDATA_C1 = 10100011
    @2300 WR_EN_C1 = 0
    @2300 RD_EN_C1 = 1
    @2300 RDADDR_C1 = 1010
    expect @1200 RST_DONE = high
    expect @2000 RDDATA_C1 = 00000000
    expect @3000 RDDATA_C1 = 10100011
    run 4000
    """,
    """
    scenario tc03-c2-write
    params addr=4 data=8 registered=0
    clock 50
    @100 RST_N = 1
    @100 WR_EN_C1 = 0
    @100 REQUEST_C2 = 1
    @100 RD_NOT_WRITE_C2 = 0
    @100 ADDR_C2 = 1110
    @100 DATAIN_C2 = 11100011
    expect pulses ACK_C2 in 1000..2000
    expect @3000 RDDATA_C1 = 00000000
    run 4000
    """,
    """
    scenario tc04-c2-read
    params addr=4 data=8 registered=0
    clock 50
    @100 RST_N = 1
    @100 WR_EN_C1 = 0
    @100 REQUEST_C2 = 1
    @100 RD_NOT_WRITE_C2 = 0
    @100 ADDR_C2 = 1110
    @100 DATAIN_C2 = 11100011
    @1800 WR_EN_C1 = 0
    @1800 RD_NOT_WRITE_C2 = 1
    @1800 ADDR_C2 = 1110
    expect pulses ACK_C2 in 1000..1800
    expect @2500 DATAOUT_C2 = 11100011
    expect pulses ACK_C2 in 2000..3200
    run 4000
    """,
    """
    scenario tc05-c1-rw-diff-addr-same-time
    params addr=4 data=8 registered=0
    clock 50
    @100 RST_N = 1
    @600 WR_EN_C1 = 1
    @600 WRADDR_C1 = 1010
    @600 WRDATA_C1 = 10100011
    @2300 RD_EN_C1 = 1
    @2300 RDADDR_C1 = 1010
    @2300 WRADDR_C1 = 1110
    @2300 WRDATA_C1 = 10111011
    expect @3000 RDDATA_C1 = 10100011
    expect quiet ACK_C2 in 0..4000
    run 4000
    """,
    """
    scenario tc06-c1-rw-diff-addr-diff-time
    params addr=4 data=8 registered=0
    clock 50
    @100 RST_N = 1
    @600 WR_EN_C1 = 1
    @600 WRADDR_C1 = 1010
    @600 WRDATA_C1 = 10100011
    @2300 RD_EN_C1 = 1
    @2300 RDADDR_C1 = 1010
    @2800 WRADDR_C1 = 1110
    @2800 WRDATA_C1 = 10111011
    expect @2700 RDDATA_C1 = 10100011
    expect @3300 RDDATA_C1 = 10100011
    run 4000
    """,
    """
    scenario tc07-c1-rw-same-addr-same-time
    params addr=4 data=8 registered=0
    clock 50
    @100 RST_N = 1
    @600 WR_EN_C1 = 1
    @600 WRADDR_C1 = 1010
    @600 WRDATA_C1 = 10100011
    @2300 RD_EN_C1 = 1
    @2300 RDADDR_C1 = 1010
    @2300 WRADDR_C1 = 1010
    @2300 WRDATA_C1 = 10111011
    expect @2000 RDDATA_C1 = 00000000
    expect @2300 DATAOUT_C2 = 10111011
    expect @2600 RDDATA_C1 = 10111011
    expect @3800 RDDATA_C1 = 10111011
    run 4000
    """,
    """
    scenario tc08-c1-rw-same-addr-diff-time
    params addr=4 data=8 registered=0
    clock 50
    @100 RST_N = 1
    @600 WR_EN_C1 = 1
    @600 WRADDR_C1 = 1010
    @600 WRDATA_C1 = 10100011
    @2300 RD_EN_C1 = 1
    @2300 RDADDR_C1 = 1010
    @2800 WRADDR_C1 = 1010
    @2800 WRDATA_C1 = 10111011
    expect @2700 RDDATA_C1 = 10100011
    expect @3300 RDDATA_C1 = 10111011
    run 4000
    """,
    """
    scenario tc09-c2-rw-diff-addr-same-time
    params addr=4 data=8 registered=0
    clock 50
    @100 RST_N = 1
    @100 WR_EN_C1 = 0
    @100 RD_EN_C1 = 0
    @100 REQUEST_C2 = 1
    @100 RD_NOT_WRITE_C2 = 0
    @100 ADDR_C2 = 1010
    @100 DATAIN_C2 = 11100011
    @1800 RD_NOT_WRITE_C2 = 0
    @1800 ADDR_C2 = 1001
    @1800 DATAIN_C2 = 00100011
    @1800 RD_NOT_WRITE_C2 = 1
    @1800 ADDR_C2 = 1010
    expect pulses ACK_C2 in 1000..1800
    expect @2500 DATAOUT_C2 = 11100011
    expect pulses ACK_C2 in 2000..3200
    run 4000
    """,
    """
    scenario tc10-c2-rw-diff-addr-diff-time
    params addr=4 data=8 registered=0
    clock 50
    @100 RST_N = 1
    @100 WR_EN_C1 = 0
    @100 RD_EN_C1 = 0
    @100 REQUEST_C2 = 1
    @100 RD_NOT_WRITE_C2 = 0
    @100 ADDR_C2 = 1010
    @100 DATAIN_C2 = 11100011
    @1800 RD_NOT_WRITE_C2 = 0
    @1800 ADDR_C2 = 1001
    @1800 DATAIN_C2 = 00100011
    @2300 RD_NOT_WRITE_C2 = 1
    @2300 ADDR_C2 = 1010
    expect pulses ACK_C2 in 1000..1800
    expect pulses ACK_C2 in 1900..2300
    expect @3000 DATAOUT_C2 = 11100011
    expect pulses ACK_C2 in 2400..3600
    run 4000
    """,
    """
    scenario tc11-c2-rw-same-addr-same-time
    params addr=4 data=8 registered=0
    clock 50
    @100 RST_N = 1
    @100 WR_EN_C1 = 0
    @100 RD_EN_C1 = 0
    @100 REQUEST_C2 = 1
    @100 RD_NOT_WRITE_C2 = 0
    @100 ADDR_C2 = 1010
    @100 DATAIN_C2 = 11100011
    @1800 RD_NOT_WRITE_C2 = 1
    @1800 ADDR_C2 = 1010
    @1800 RD_NOT_WRITE_C2 = 0
    @1800 ADDR_C2 = 1010
    @1800 DATAIN_C2 = 00100011
    expect pulses ACK_C2 in 1000..1800
    expect pulses ACK_C2 in 2000..3200
    expect @3500 DATAOUT_C2 = 00000000
    run 4000
    """,
    """
    scenario tc12-c2-rw-same-addr-diff-time
    params addr=4 data=8 registered=0
    clock 50
    @100 RST_N = 1
    @100 WR_EN_C1 = 0
    @100 RD_EN_C1 = 0
    @100 REQUEST_C2 = 1
    @100 RD_NOT_WRITE_C2 = 0
    @100 ADDR_C2 = 1010
    @100 DATAIN_C2 = 11100011
    @1800 RD_NOT_WRITE_C2 = 1
    @1800 ADDR_C2 = 1010
    @2300 RD_NOT_WRITE_C2 = 0
    @2300 ADDR_C2 = 1010
    @2300 DATAIN_C2 = 00100011
    expect pulses ACK_C2 in 1000..1800
    expect @2200 DATAOUT_C2 = 11100011
    expect pulses ACK_C2 in 2400..3600
    run 4000
    """,
    """
    scenario tc13-c1w-c2r-diff-addr-same-time
    params addr=4 data=8 registered=0
    clock 50
    @100 RST_N = 1
    @100 WR_EN_C1 = 0
    @100 REQUEST_C2 = 1
    @100 RD_NOT_WRITE_C2 = 0
    @100 ADDR_C2 = 1110
    @100 DATAIN_C2 = 11100011
    @1800 WR_EN_C1 = 1
    @1800 RD_EN_C1 = 0
    @1800 WRADDR_C1 = 1001
    @1800 WRDATA_C1 = 10111011
    @1800 REQUEST_C2 = 1
    @1800 RD_NOT_WRITE_C2 = 1
    @1800 ADDR_C2 = 1110
    expect pulses ACK_C2 in 1000..1800
    expect @2500 DATAOUT_C2 = 11100011
    expect pulses ACK_C2 in 2000..3200
    run 4000
    """,
    """
    scenario tc14-c1w-c2r-diff-addr-diff-time
    params addr=4 data=8 registered=0
    clock 50
    @100 RST_N = 1
    @100 WR_EN_C1 = 0
    @100 REQUEST_C2 = 1
    @100 RD_NOT_WRITE_C2 = 0
    @100 ADDR_C2 = 1110
    @100 DATAIN_C2 = 11100011
    @1800 WR_EN_C1 = 1
    @1800 RD_EN_C1 = 0
    @1800 WRADDR_C1 = 1001
    @1800 WRDATA_C1 = 10111011
    @2300 REQUEST_C2 = 1
    @2300 RD_NOT_WRITE_C2 = 1
    @2300 ADDR_C2 = 1110
    expect pulses ACK_C2 in 1000..1800
    expect @3000 DATAOUT_C2 = 11100011
    expect pulses ACK_C2 in 2400..3600
    run 4000
    """,
    """
    scenario tc15-c1w-c2r-same-addr-same-time
    params addr=4 data=8 registered=0
    clock 50
    @100 RST_N = 1
    @100 WR_EN_C1 = 0
    @100 REQUEST_C2 = 1
    @100 RD_NOT_WRITE_C2 = 0
    @100 ADDR_C2 = 1110
    @100 DATAIN_C2 = 11100011
    @1800 WR_EN_C1 = 1
    @1800 RD_EN_C1 = 0
    @1800 WRADDR_C1 = 1110
    @1800 WRDATA_C1 = 10111011
    @1800 REQUEST_C2 = 1
    @1800 RD_NOT_WRITE_C2 = 1
    @1800 ADDR_C2 = 1110
    expect pulses ACK_C2 in 1000..1800
    expect @2500 DATAOUT_C2 = 10111011
    expect @2500 RDDATA_C1 = 10111011
    expect pulses ACK_C2 in 2000..3200
    run 4000
    """,
    """
    scenario tc16-c1w-c2r-same-addr-diff-time
    params addr=4 data=8 registered=0
    clock 50
    @100 RST_N = 1
    @100 WR_EN_C1 = 0
    @100 REQUEST_C2 = 1
    @100 RD_NOT_WRITE_C2 = 0
    @100 ADDR_C2 = 1110
    @100 DATAIN_C2 = 11100011
    @1800 WR_EN_C1 = 1
    @1800 RD_EN_C1 = 0
    @1800 WRADDR_C1 = 1110
    @1800 WRDATA_C1 = 10111011
    @2300 REQUEST_C2 = 1
    @2300 RD_NOT_WRITE_C2 = 1
    @2300 ADDR_C2 = 1110
    expect pulses ACK_C2 in 1000..1800
    expect @3000 DATAOUT_C2 = 10111011
    expect @3000 RDDATA_C1 = 10111011
    expect pulses ACK_C2 in 2400..3600
    run 4000
    """,
    """
    scenario tc17-c1r-c2w-same-addr-same-time
    params addr=4 data=8 registered=0
    clock 50
    @100 RST_N = 1
    @100 WR_EN_C1 = 1
    @100 RD_EN_C1 = 0
    @100 WRADDR_C1 = 1010
    @100 WRDATA_C1 = 10101111
    @1800 RD_EN_C1 = 1
    @1800 WR_EN_C1 = 0
    @1800 RDADDR_C1 = 1010
    @1800 REQUEST_C2 = 1
    @1800 RD_NOT_WRITE_C2 = 0
    @1800 ADDR_C2 = 1010
    @1800 DATAIN_C2 = 10111011
    expect quiet ACK_C2 in 0..1800
    expect @2500 RDDATA_C1 = 10111011
    expect @2500 DATAOUT_C2 = 10111011
    expect pulses ACK_C2 in 2000..3200
    run 4000
    """,
    """
    scenario tc18-c1r-c2w-same-addr-diff-time
    params addr=4 data=8 registered=0
    clock 50
    @100 RST_N = 1
    @100 WR_EN_C1 = 1
    @100 RD_EN_C1 = 0
    @100 WRADDR_C1 = 1010
    @100 WRDATA_C1 = 10101111
    @1800 RD_EN_C1 = 1
    @1800 WR_EN_C1 = 0
    @1800 RDADDR_C1 = 1010
    @2300 REQUEST_C2 = 1
    @2300 RD_NOT_WRITE_C2 = 0
    @2300 ADDR_C2 = 1010
    @2300 DATAIN_C2 = 10111011
    expect @2200 RDDATA_C1 = 10101111
    expect @3000 RDDATA_C1 = 10111011
    expect pulses ACK_C2 in 2400..3600
    run 4000
    """,
    """
    scenario tc19-c1r-c2w-diff-addr-same-time
    params addr=4 data=8 registered=0
    clock 50
    @100 RST_N = 1
    @100 WR_EN_C1 = 1
    @100 RD_EN_C1 = 0
    @100 WRADDR_C1 = 1000
    @100 WRDATA_C1 = 10101111
    @1800 RD_EN_C1 = 1
    @1800 WR_EN_C1 = 0
    @1800 RDADDR_C1 = 1000
    @1800 REQUEST_C2 = 1
    @1800 RD_NOT_WRITE_C2 = 0
    @1800 ADDR_C2 = 1010
    @1800 DATAIN_C2 = 10100011
    expect @2500 RDDATA_C1 = 10101111
    expect pulses ACK_C2 in 2000..3200
    run 4000
    """,
    """
    scenario tc20-c1r-c2w-diff-addr-diff-time
    params addr=4 data=8 registered=0
    clock 50
    @100 RST_N = 1
    @100 WR_EN_C1 = 1
    @100 RD_EN_C1 = 0
    @100 WRADDR_C1 = 1000
    @100 WRDATA_C1 = 10101111
    @1800 RD_EN_C1 = 1
    @1800 WR_EN_C1 = 0
    @1800 RDADDR_C1 = 1000
    @2300 REQUEST_C2 = 1
    @2300 RD_NOT_WRITE_C2 = 0
    @2300 ADDR_C2 = 1010
    @2300 DATAIN_C2 = 10100011
    expect @2200 RDDATA_C1 = 10101111
    expect @3200 RDDATA_C1 = 10101111
    expect pulses ACK_C2 in 2400..3600
    run 4000
    """,
    """
    scenario tc21-c1r-c2r-same-addr-diff-time
    params addr=4 data=8 registered=0
    clock 50
    @100 RST_N = 1
    @100 WR_EN_C1 = 1
    @100 RD_EN_C1 = 0
    @100 WRADDR_C1 = 1010
    @100 WRDATA_C1 = 10101111
    @1800 RD_EN_C1 = 1
    @1800 WR_EN_C1 = 0
    @1800 RDADDR_C1 = 1010
    @2100 REQUEST_C2 = 1
    @2100 RD_NOT_WRITE_C2 = 1
    @2100 ADDR_C2 = 1010
    @2300 RD_EN_C1 = 0
    expect @2200 RDDATA_C1 = 10101111
    expect quiet ACK_C2 in 0..2300
    expect pulses ACK_C2 in 2400..3600
    expect @3200 DATAOUT_C2 = 10101111
    run 4000
    """,
    """
    scenario tc22-both-read-same
    params addr=4 data=8 registered=0
    clock 50
    @100 RST_N = 1
    @100 WR_EN_C1 = 1
    @100 RD_EN_C1 = 0
    @100 WRADDR_C1 = 1010
    @100 WRDATA_C1 = 10101111
    @1800 RD_EN_C1 = 1
    @1800 WR_EN_C1 = 0
    @1800 RDADDR_C1 = 1010
    @1800 REQUEST_C2 = 1
    @1800 RD_NOT_WRITE_C2 = 1
    @1800 ADDR_C2 = 1010
    expect @2500 RDDATA_C1 = 10101111
    expect quiet ACK_C2 in 0..4000
    run 4000
    """,
    """
    scenario tc23-c1r-c2r-diff-addr-diff-time
    params addr=4 data=8 registered=0
    clock 50
    @100 RST_N = 1
    @100 WR_EN_C1 = 1
    @100 RD_EN_C1 = 0
    @100 WRADDR_C1 = 1001
    @100 WRDATA_C1 = 10101111
    @1800 RD_EN_C1 = 1
    @1800 WR_EN_C1 = 0
    @1800 RDADDR_C1 = 1001
    @2100 REQUEST_C2 = 1
    @2100 RD_NOT_WRITE_C2 = 1
    @2100 ADDR_C2 = 1010
    @2300 RD_EN_C1 = 0
    expect @2200 RDDATA_C1 = 10101111
    expect @3200 DATAOUT_C2 = 00000000
    expect pulses ACK_C2 in 2400..3600
    run 4000
    """,
    """
    scenario tc24-c1r-c2r-diff-addr-same-time
    params addr=4 data=8 registered=0
    clock 50
    @100 RST_N = 1
    @100 WR_EN_C1 = 1
    @100 RD_EN_C1 = 0
    @100 WRADDR_C1 = 1001
    @100 WRDATA_C1 = 10101111
    @1800 RD_EN_C1 = 1
    @1800 WR_EN_C1 = 0
    @1800 RDADDR_C1 = 1001
    @1800 REQUEST_C2 = 1
    @1800 RD_NOT_WRITE_C2 = 1
    @1800 ADDR_C2 = 1010
    expect @2500 RDDATA_C1 = 10101111
    expect quiet ACK_C2 in 0..4000
    run 4000
    """,
    """
    scenario tc25-c1-rw-c2r-same-addr-diff-time
    params addr=4 data=8 registered=0
    clock 50
    @100 RST_N = 1
    @100 WR_EN_C1 = 1
    @100 RD_EN_C1 = 0
    @100 WRADDR_C1 = 1001
    @100 WRDATA_C1 = 10101111
    @1800 RD_EN_C1 = 1
    @1800 RDADDR_C1 = 1001
    @1800 WRADDR_C1 = 1001
    @1800 WRDATA_C1 = 10100011
    @2100 REQUEST_C2 = 1
    @2100 RD_NOT_WRITE_C2 = 1
    @2100 ADDR_C2 = 1001
    @2300 RD_EN_C1 = 0
    expect @2200 RDDATA_C1 = 10100011
    expect @3200 DATAOUT_C2 = 10100011
    expect pulses ACK_C2 in 2400..3600
    run 4000
    """,
    """
    scenario tc26-c1-rw-c2r-same-addr-same-time
    params addr=4 data=8 registered=0
    clock 50
    @100 RST_N = 1
    @100 WR_EN_C1 = 1
    @100 RD_EN_C1 = 0
    @100 WRADDR_C1 = 1001
    @100 WRDATA_C1 = 10101111
    @1800 RD_EN_C1 = 1
    @1800 RDADDR_C1 = 1001
    @1800 WRADDR_C1 = 1001
    @1800 WRDATA_C1 = 10100011
    @1800 REQUEST_C2 = 1
    @1800 RD_NOT_WRITE_C2 = 1
    @1800 ADDR_C2 = 1001
    expect @2500 RDDATA_C1 = 10100011
    expect quiet ACK_C2 in 0..4000
    run 4000
    """,
    """
    scenario tc27-c1-rw-c2w-same-addr-diff-time
    params addr=4 data=8 registered=0
    clock 50
    @100 RST_N = 1
    @100 WR_EN_C1 = 1
    @100 RD_EN_C1 = 0
    @100 WRADDR_C1 = 1001
    @100 WRDATA_C1 = 10101111
    @1800 RD_EN_C1 = 1
    @1800 RDADDR_C1 = 1001
    @1800 WRADDR_C1 = 1001
    @1800 WRDATA_C1 = 10100011
    @2100 REQUEST_C2 = 1
    @2100 RD_NOT_WRITE_C2 = 0
    @2100 ADDR_C2 = 1001
    @2100 DATAIN_C2 = 11100011
    @2300 WR_EN_C1 = 0
    expect @2200 RDDATA_C1 = 10100011
    expect @3000 RDDATA_C1 = 11100011
    expect pulses ACK_C2 in 2400..3600
    run 4000
    """,
    """
    scenario tc28-c1-rw-c2w-same-addr-same-time
    params addr=4 data=8 registered=0
    clock 50
    @100 RST_N = 1
    @100 WR_EN_C1 = 1
    @100 RD_EN_C1 = 0
    @100 WRADDR_C1 = 1001
    @100 WRDATA_C1 = 10101111
    @1800 RD_EN_C1 = 1
    @1800 RDADDR_C1 = 1001
    @1800 WRADDR_C1 = 1001
    @1800 WRDATA_C1 = 10100011
    @1800 REQUEST_C2 = 1
    @1800 RD_NOT_WRITE_C2 = 0
    @1800 ADDR_C2 = 1001
    @1800 DATAIN_C2 = 11100011
    expect @2500 RDDATA_C1 = 10100011
    expect quiet ACK_C2 in 0..4000
    run 4000
    """,
    """
    scenario tc29-c2-rw-c1w-same-addr-diff-time
    params addr=4 data=8 registered=0
    clock 50
    @100 RST_N = 1
    @100 WR_EN_C1 = 0
    @100 RD_EN_C1 = 0
    @100 REQUEST_C2 = 1
    @100 RD_NOT_WRITE_C2 = 0
    @100 ADDR_C2 = 1001
    @100 DATAIN_C2 = 11100011
    @1800 RD_NOT_WRITE_C2 = 1
    @1800 ADDR_C2 = 1001
    @2100 WRADDR_C1 = 1001
    @2100 WRDATA_C1 = 10101111
    @2300 WR_EN_C1 = 1
    expect pulses ACK_C2 in 1000..1800
    expect @2200 DATAOUT_C2 = 11100011
    expect pulses ACK_C2 in 1900..2300
    expect @3000 DATAOUT_C2 = 10101111
    expect @3000 RDDATA_C1 = 10101111
    run 4000
    """,
    """
    scenario tc30-c2-rw-c1w-same-addr-same-time
    params addr=4 data=8 registered=0
    clock 50
    @100 RST_N = 1
    @100 WR_EN_C1 = 0
    @100 RD_EN_C1 = 0
    @100 REQUEST_C2 = 1
    @100 RD_NOT_WRITE_C2 = 0
    @100 ADDR_C2 = 1001
    @100 DATAIN_C2 = 11100011
    @1800 WR_EN_C1 = 1
    @1800 RD_NOT_WRITE_C2 = 1
    @1800 ADDR_C2 = 1001
    @1800 WRADDR_C1 = 1001
    @1800 WRDATA_C1 = 10101111
    expect pulses ACK_C2 in 1000..1800
    expect @2500 DATAOUT_C2 = 10101111
    expect @2500 RDDATA_C1 = 10101111
    expect pulses ACK_C2 in 2000..3200
    run 4000
    """,
    """
    scenario tc31-c2-rw-c1r-same-addr-same-time
    params addr=4 data=8 registered=0
    clock 50
    @100 RST_N = 1
    @100 WR_EN_C1 = 0
    @100 RD_EN_C1 = 0
    @100 REQUEST_C2 = 1
    @100 RD_NOT_WRITE_C2 = 0
    @100 ADDR_C2 = 1001
    @100 DATAIN_C2 = 11100011
    @1800 RD_EN_C1 = 1
    @1800 RD_NOT_WRITE_C2 = 1
    @1800 ADDR_C2 = 1001
    @1800 RDADDR_C1 = 1001
    expect pulses ACK_C2 in 1000..1800
    expect @2500 RDDATA_C1 = 11100011
    expect quiet ACK_C2 in 1900..4000
    run 4000
    """,
    """
    scenario tc32-c2-rw-c1r-same-addr-diff-time
    params addr=4 data=8 registered=0
    clock 50
    @100 RST_N = 1
    @100 WR_EN_C1 = 0
    @100 RD_EN_C1 = 0
    @100 REQUEST_C2 = 1
    @100 RD_NOT_WRITE_C2 = 0
    @100 ADDR_C2 = 1001
    @100 DATAIN_C2 = 11100011
    @1800 RD_NOT_WRITE_C2 = 1
    @1800 ADDR_C2 = 1001
    @2100 RD_EN_C1 = 1
    @2100 RDADDR_C1 = 1001
    expect pulses ACK_C2 in 1000..1800
    expect @2050 DATAOUT_C2 = 11100011
    expect pulses ACK_C2 in 1850..2150
    expect @3000 RDDATA_C1 = 11100011
    expect quiet ACK_C2 in 2300..4000
    run 4000
    """,
    """
    scenario tc33-reset-midrun
    params addr=4 data=8 registered=0
    clock 50
    @100 RST_N = 1
    @100 WR_EN_C1 = 1
    @100 RD_EN_C1 = 0
    @100 WRADDR_C1 = 1010
    @100 WRDATA_C1 = 10101111
    @1800 RST_N = 0
    @1800 RD_EN_C1 = 1
    @1800 WR_EN_C1 = 0
    @1800 RDADDR_C1 = 1010
    @1800 REQUEST_C2 = 1
    @1800 RD_NOT_WRITE_C2 = 0
    @1800 ADDR_C2 = 0110
    @1800 DATAIN_C2 = 10111011
    @2300 RST_N = 1
    @2300 RDADDR_C1 = 1010
    @2600 RDADDR_C1 = 0110
    expect @1200 RST_DONE = high
    expect @2000 RST_DONE = low
    expect @2500 RDDATA_C1 = 00000000
    expect quiet ACK_C2 in 0..3100
    expect @3400 RST_DONE = high
    expect @3400 RDDATA_C1 = 10111011
    expect @3400 DATAOUT_C2 = 10111011
    expect pulses ACK_C2 in 3200..4200
    run 4200
    """,
    """
    scenario tc34-inputs-during-init
    params addr=4 data=8 registered=0
    clock 50
    @100 RST_N = 1
    @300 WR_EN_C1 = 1
    @300 RD_EN_C1 = 0
    @300 WRADDR_C1 = 1010
    @300 WRDATA_C1 = 10101111
    @300 RST_N = 0
    @2000 RD_EN_C1 = 1
    @2000 WR_EN_C1 = 0
    @2000 RDADDR_C1 = 1010
    @2000 REQUEST_C2 = 1
    @2000 RD_NOT_WRITE_C2 = 0
    @2000 ADDR_C2 = 0110
    @2000 DATAIN_C2 = 01011011
    @2800 RST_N = 1
    @2800 RDADDR_C1 = 1010
    expect @1000 RST_DONE = low
    expect @2700 RST_DONE = low
    expect quiet ACK_C2 in 0..3600
    expect @3700 RST_DONE = high
    expect @3900 RDDATA_C1 = 00000000
    expect pulses ACK_C2 in 3700..4400
    run 4400
    """,
)


def builtin_scenarios() -> list[Scenario]:
    """All 37 builtin scenarios, parsed fresh from their source text."""
    return [parse_scenario(text) for text in _CORPUS_TEXT]


@functools.cache
def _builtin_index() -> dict[str, Scenario]:
    """Name -> builtin scenario in corpus order, parsed once; scenarios are frozen."""
    return {s.name: s for s in builtin_scenarios()}


def builtin_by_name(name: str) -> Scenario:
    """Look up a builtin by full name or unique prefix (e.g. ``tc07``)."""
    index = _builtin_index()
    if name in index:
        return index[name]
    matches = [s for s in index.values() if s.name.startswith(name)]
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise KeyError(f"unknown scenario {name!r}")
    raise KeyError(f"ambiguous scenario {name!r}: " + ", ".join(s.name for s in matches))
