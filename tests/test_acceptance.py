"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one pass/fail line
per criterion.  Every value comparison is bit-exact.
"""

import contextlib
import dataclasses
import random
import time

import pytest

from arbsim import (
    HIGH,
    LOW,
    Params,
    builtin_by_name,
    builtin_scenarios,
    check_assertions,
    parse_word,
    ram_step,
    run_scenario,
    system_new,
    system_step,
)
from arbsim.cli import _verify_lines
from arbsim.fuzz import random_inputs, run_fuzz

from conftest import PIN, fresh_system, make_inputs, pin
from test_ram import SweepEveryWordRam, random_ram_inputs, swept
from test_trace import assert_vcd_matches_table


@contextlib.contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({title}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({title}): PASS")


RDDATA_C1, DATAOUT_C2, ACK_C2 = PIN["RDDATA_C1"], PIN["DATAOUT_C2"], PIN["ACK_C2"]


def rddata_timeline(scenario, registered):
    s = dataclasses.replace(
        scenario,
        params=dataclasses.replace(scenario.params, registered_output=registered),
    )
    return [row[RDDATA_C1] for row in run_scenario(s).rows]


def test_criterion_1_corpus_fidelity():
    with criterion(1, "corpus fidelity, 37 scenarios, < 5 s"):
        start = time.perf_counter()
        scenarios = builtin_scenarios()
        assert len(scenarios) == 37
        for s in scenarios:
            report = check_assertions(run_scenario(s), s)
            assert report.passed, f"{s.name}: {report.failures()}"

        # Key quantitative checks, asserted directly on the traces.
        tc02 = run_scenario(builtin_by_name("tc02"))
        k = tc02.scenario.edge_for_time(3000)
        assert tc02.rows[k][RDDATA_C1] == parse_word("10100011", 8).value

        tc04 = run_scenario(builtin_by_name("tc04"))
        k = tc04.scenario.edge_for_time(2500)
        assert tc04.rows[k][DATAOUT_C2] == parse_word("11100011", 8).value
        assert any(r[ACK_C2] for r in tc04.rows)

        stale = parse_word("10100011", 8).value
        fresh = parse_word("10111011", 8).value
        tc07 = run_scenario(builtin_by_name("tc07"))
        assert all(r[RDDATA_C1] != stale for r in tc07.rows)
        assert any(r[RDDATA_C1] == fresh for r in tc07.rows)
        tc08 = run_scenario(builtin_by_name("tc08"))
        late = tc08.rows[tc08.scenario.edge_for_time(2900):]
        assert all(r[RDDATA_C1] == fresh for r in late)

        tc22 = run_scenario(builtin_by_name("tc22"))
        assert all(not r[ACK_C2] for r in tc22.rows)

        tc33 = run_scenario(builtin_by_name("tc33"))
        k = tc33.scenario.edge_for_time(2500)
        assert tc33.rows[k][RDDATA_C1] == parse_word("00000000", 8).value
        k = tc33.scenario.edge_for_time(3400)
        assert tc33.rows[k][RDDATA_C1] == fresh
        pre_reset = parse_word("10101111", 8).value
        after_release = tc33.rows[tc33.scenario.edge_for_time(2300):]
        assert all(r[RDDATA_C1] != pre_reset for r in after_release)

        assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("addr_width", [2, 4, 6])
def test_criterion_2_reset_sweep(addr_width):
    with criterion(2, f"reset sweep, addr_width={addr_width}"):
        params = Params(addr_width, 8)

        def reset_and_sweep(state):
            state, out = system_step(state, make_inputs(params, rst_n=LOW), params)
            assert pin(out, "RST_DONE") == LOW
            # Locked constant: rst_done rises exactly depth + 1 edges after
            # the release, counting from the first edge stepped with rst_n
            # high, with every word zero and the RAM's init flag down.
            edges = 0
            while True:
                state, out = system_step(state, make_inputs(params), params)
                edges += 1
                if pin(out, "RST_DONE"):
                    break
                assert edges <= params.ram_depth() + 4
            assert edges == params.ram_depth() + 1
            _, ram = state
            assert all(w == 0 for w in ram.memory)
            assert not ram.reset_done_internal
            return state

        # The sweep after power-on; then dirty the memory and sweep again.
        state = reset_and_sweep(system_new(params))
        write = make_inputs(
            params,
            wr_en_c1=HIGH,
            wraddr_c1="1" * addr_width,
            wrdata_c1="10101111",
        )
        state, _ = system_step(state, write, params)
        _, ram = state
        assert ram.memory[params.ram_depth() - 1] == parse_word("10101111", 8).value
        reset_and_sweep(state)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_criterion_3_ram_oracle_equivalence(seed):
    with criterion(3, f"RAM oracle equivalence, 10000 ops, seed={seed}"):
        params = Params(4, 8)
        rng = random.Random(seed)
        state = swept(params)
        ref = SweepEveryWordRam(params)
        for _ in range(10_000):
            inp = random_ram_inputs(rng, params)
            state = ram_step(state, inp)
            assert state.rd_data_reg == ref.step(inp)
        assert tuple(state.memory) == tuple(ref.memory)


def test_criterion_4_registered_mode_equivalence():
    with criterion(4, "registered mode = unregistered delayed one cycle"):
        for s in builtin_scenarios():
            unreg = rddata_timeline(s, registered=False)
            reg = rddata_timeline(s, registered=True)
            assert reg[1:] == unreg[:-1], s.name

        params_u = Params(4, 8, registered_output=False)
        params_r = Params(4, 8, registered_output=True)
        rng = random.Random(99)
        stimulus = [random_inputs(rng, params_u) for _ in range(1000)]

        def timeline(params):
            state = fresh_system(params)
            outs = []
            for inp in stimulus:
                state, out = system_step(state, inp, params)
                outs.append(pin(out, "RDDATA_C1"))
            return outs

        assert timeline(params_r)[1:] == timeline(params_u)[:-1]


def test_criterion_5_property_campaign():
    with criterion(5, "10 seeds x 10000 cycles, zero violations, < 30 s"):
        start = time.perf_counter()
        params = Params(4, 8)
        for seed in range(10):
            result = run_fuzz(seed, 10_000, params)
            assert result.ok, f"seed {seed}: {result.violation}"
        assert time.perf_counter() - start < 30.0


def test_criterion_6_vcd_round_trip():
    with criterion(6, "VCD round trip, every builtin"):
        for s in builtin_scenarios():
            assert_vcd_matches_table(run_scenario(s), s.name)


def test_criterion_7_verify_determinism():
    with criterion(7, "byte-identical verify reports"):
        lines_a, ok_a = _verify_lines(builtin_scenarios())
        lines_b, ok_b = _verify_lines(builtin_scenarios())
        assert ok_a and ok_b
        report_a = ("\n".join(lines_a) + "\n").encode()
        report_b = ("\n".join(lines_b) + "\n").encode()
        assert report_a == report_b
