"""Byte identity against the outputs recorded in bench/golden.json.

Every builtin case in both output modes must export the same VCD and TSV
bytes, and a sample of the benchmark's ``fuzz-a4`` campaigns the same
result and the same simulated counts, as when the file was recorded.  The
file is only read here.
"""

import hashlib
import io
import json
from dataclasses import replace
from pathlib import Path

import pytest

from arbsim import ChannelState, Params, builtin_scenarios, check_assertions, run_scenario
from arbsim import fuzz
from arbsim.fuzz import run_fuzz
from arbsim.trace import write_table, write_vcd

GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "golden.json").read_text("utf-8")
)


@pytest.mark.parametrize("registered", [False, True], ids=["unregistered", "registered"])
def test_corpus_exports_are_byte_identical(registered):
    mode = "registered" if registered else "unregistered"
    cases = builtin_scenarios()
    assert len(cases) == 37
    for base in cases:
        s = replace(base, params=replace(base.params, registered_output=registered))
        trace = run_scenario(s)
        vcd, tsv = io.StringIO(), io.StringIO()
        write_vcd(trace, vcd)
        write_table(trace, tsv)
        digest = hashlib.sha256(vcd.getvalue().encode("ascii"))
        digest.update(tsv.getvalue().encode("ascii"))
        want = GOLDEN["corpus"][f"{base.name}/{mode}"]["output"]
        assert digest.hexdigest() == want["sha256"], base.name
        assert check_assertions(trace, s).passed == want["passed"], base.name


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 64, 127])
def test_fuzz_a4_campaign_results_are_identical(seed):
    # The fuzz-a4 workload: addr 4, data 8, 2,000 cycles with reset storms.
    result = run_fuzz(seed, 2000, Params(4, 8), reset_storm=True)
    v = result.violation
    got = {
        "seed": result.seed,
        "cycles": result.cycles,
        "violation": None if v is None else [v.cycle, v.prefix_len, v.prop, v.detail],
    }
    assert got == GOLDEN["fuzz-a4"][str(seed)]["output"]


@pytest.mark.parametrize("workload, campaign, params, cycles, reset_storm", [
    ("fuzz-a4", 0, Params(4, 8), 2000, True),
    ("fuzz-a4", 127, Params(4, 8), 2000, True),
    ("wide-a13", 0, Params(13, 8), 4096, False),
], ids=["fuzz-a4-0", "fuzz-a4-127", "wide-a13-0"])
def test_fuzz_campaign_simulated_counts_are_identical(
    monkeypatch, workload, campaign, params, cycles, reset_storm
):
    # Every recorded campaign ends with violation=None, so its result alone
    # misses a stimulus or kernel change that breaks no invariant.  These
    # counts, folded over each edge as the benchmark's trace counts them,
    # catch it.
    counts = dict.fromkeys(
        ("system.steps", "ram.sweep_edges", "ram.reads", "ram.writes",
         "arbiter.clashes", "arbiter.c2_grants"), 0)
    step = fuzz.system_step

    def counting(state, inp, params):
        new, out = step(state, inp, params)
        arb = new[0]  # its drive registers are this edge's RAM inputs
        counts["system.steps"] += 1
        if inp[0] and state[1].reset_done_internal:
            counts["ram.sweep_edges"] += 1
        elif inp[0]:
            counts["ram.reads"] += arb.temp_rd_en
            counts["ram.writes"] += arb.temp_wr_en
        counts["arbiter.clashes"] += arb.addr_clash
        counts["arbiter.c2_grants"] += (arb.pr_read is ChannelState.CLIENT2_READ) + (
            arb.pr_write is ChannelState.CLIENT2_WRITE
        )
        return new, out

    monkeypatch.setattr(fuzz, "system_step", counting)
    run_fuzz(campaign, cycles, params, reset_storm=reset_storm)
    want = GOLDEN[workload][str(campaign)]["counts"]
    assert counts == {k: want[k] for k in counts}
