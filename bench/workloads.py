"""The benchmark's workloads, the instrumentation of arbsim's layers, and the
per-layer metrics the traced run derives from its spans.

An operation is one builtin case in one output mode (``corpus``) or one
``run_fuzz`` campaign (the fuzz workloads).  Every operation's output is
compared with ``golden.json``, recorded by ``record.py`` from the model as
it was when the benchmark was defined.
"""

from __future__ import annotations

import hashlib
import io
import random
import sys
from dataclasses import replace
from typing import Any

from spans import Tracer
from speed import COPIES, OBJECTS, Reference

# Counts of simulated events.  They depend only on the stimulus, so a traced
# pass must reproduce exactly the sum that golden.json records for its ops.
SIMULATED_COUNTS = (
    "system.steps",
    "ram.sweep_edges",
    "ram.reads",
    "ram.writes",
    "arbiter.clashes",
    "arbiter.c2_grants",
    "fuzz.violations",
    "trace.vcd_bytes",
    "trace.tsv_bytes",
)

# Per-layer metrics in these units are host times, scaled like every other time.
TIME_UNITS = ("s", "us")

LAYER_UNITS = {
    "signals.word_new": "count",
    "signals.parse_word_calls": "count",
    "arbiter.step_self_s": "s",
    "arbiter.fsm_next_s": "s",
    "arbiter.resolve_outputs_s": "s",
    "arbiter.clashes": "count",
    "arbiter.c2_grants": "count",
    "ram.step_self_s": "s",
    "ram.sweep_edges": "count",
    "ram.reads": "count",
    "ram.writes": "count",
    "ram.sweep_us_per_edge": "us",
    "ram.access_us_per_edge": "us",
    "system.steps": "count",
    "system.step_self_s": "s",
    "trace.replay_self_s": "s",
    "trace.check_s": "s",
    "trace.vcd_s": "s",
    "trace.tsv_s": "s",
    "trace.vcd_bytes": "bytes",
    "trace.tsv_bytes": "bytes",
    "fuzz.random_inputs_s": "s",
    "fuzz.check_s": "s",
    "fuzz.campaign_self_s": "s",
    "fuzz.violations": "count",
    "scenario.parse_s": "s",
    "corpus.load_s": "s",
    "trace_overhead_ratio": "ratio",
}


class Corpus:
    """All 37 builtin cases in both output modes, replayed, checked and exported."""

    name = "corpus"
    reference = OBJECTS
    whole_rounds = True  # stop only after a full round, so every run has the same case mix
    traced_ops = 74

    def setup(self, arbsim: Any, seed: int) -> list:
        cases = [
            replace(s, params=replace(s.params, registered_output=registered))
            for s in arbsim.corpus.builtin_scenarios()
            for registered in (False, True)
        ]
        random.Random(seed).shuffle(cases)
        return cases

    def run(self, arbsim: Any, s: Any) -> tuple:
        tr = arbsim.trace
        trace = tr.run_scenario(s)
        report = tr.check_assertions(trace, s)
        vcd, tsv = io.StringIO(), io.StringIO()
        tr.write_vcd(trace, vcd)
        tr.write_table(trace, tsv)
        return len(trace.rows), report.passed, vcd.getvalue(), tsv.getvalue()

    def key(self, s: Any) -> str:
        mode = "registered" if s.params.registered_output else "unregistered"
        return f"{s.name}/{mode}"

    def outcome(self, s: Any, raw: tuple) -> tuple[int, dict]:
        rows, passed, vcd, tsv = raw
        digest = hashlib.sha256(vcd.encode("ascii"))
        digest.update(tsv.encode("ascii"))
        output = {
            "passed": passed,
            "sha256": digest.hexdigest(),
            "vcd_bytes": len(vcd),
            "tsv_bytes": len(tsv),
        }
        return rows, output

    def edges(self, s: Any) -> int:
        return s.num_edges()


class Fuzz:
    """``run_fuzz`` campaigns whose seeds are a seed-dependent order of a fixed pool.

    The pool is fixed so that every campaign a run can draw has a recorded
    result in golden.json.
    """

    whole_rounds = False

    def __init__(
        self, name: str, addr_width: int, cycles: int, reset_storm: bool,
        pool: int, traced_ops: int, reference: Reference,
    ) -> None:
        self.name = name
        self.reference = reference
        self.addr_width = addr_width
        self.data_width = 8
        self.cycles = cycles
        self.reset_storm = reset_storm
        self.pool = pool
        self.traced_ops = traced_ops

    def setup(self, arbsim: Any, seed: int) -> list:
        params = arbsim.signals.Params(self.addr_width, self.data_width)
        seeds = random.Random(seed).sample(range(self.pool), self.pool)
        return [(campaign, params) for campaign in seeds]

    def run(self, arbsim: Any, op: tuple) -> Any:
        campaign, params = op
        return arbsim.fuzz.run_fuzz(
            campaign, self.cycles, params, reset_storm=self.reset_storm
        )

    def key(self, op: tuple) -> str:
        return str(op[0])

    def outcome(self, op: tuple, result: Any) -> tuple[int, dict]:
        v = result.violation
        output = {
            "seed": result.seed,
            "cycles": result.cycles,
            "violation": None if v is None else [v.cycle, v.prefix_len, v.prop, v.detail],
        }
        return self.edges(op), output

    def edges(self, op: tuple) -> int:
        # run_fuzz: 2 reset edges, depth + 2 warm-up edges, then the measured cycles.
        return self.cycles + (1 << self.addr_width) + 4


WORKLOADS = {
    w.name: w
    for w in (
        Corpus(),
        Fuzz("fuzz-a4", addr_width=4, cycles=2000, reset_storm=True, pool=128, traced_ops=8,
             reference=OBJECTS),
        Fuzz("wide-a13", addr_width=13, cycles=4096, reset_storm=False, pool=16, traced_ops=1,
             reference=COPIES),
    )
}


def bindings(arbsim: Any) -> dict[tuple[str, str], Any]:
    """Every name bound in arbsim's modules and in ``Word``'s class namespace."""
    found = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "arbsim" or mod_name.startswith("arbsim."):
            found.update(((mod_name, k), v) for k, v in vars(mod).items())
    found.update((("Word", k), v) for k, v in vars(arbsim.signals.Word).items())
    return found


def rebound(before: dict, after: dict) -> list[str]:
    """Names whose binding differs between two :func:`bindings` snapshots."""
    keys = before.keys() | after.keys()
    return sorted(".".join(k) for k in keys if before.get(k) is not after.get(k))


def instrument(tracer: Tracer, arbsim: Any) -> None:
    """Wrap arbsim's layer functions where their callers look them up."""
    system, arbiter, fuzz, trace = arbsim.system, arbsim.arbiter, arbsim.fuzz, arbsim.trace
    counts = tracer.counts
    c2_read = arbiter.ChannelState.CLIENT2_READ
    c2_write = arbiter.ChannelState.CLIENT2_WRITE

    def on_arbiter(args: tuple, result: tuple) -> None:
        new = result[0]
        counts["arbiter.clashes"] += new.addr_clash
        counts["arbiter.c2_grants"] += (new.pr_read is c2_read) + (new.pr_write is c2_write)

    def ram_kind(args: tuple) -> str:
        state, inp = args[0], args[1]
        if not inp.rst_n:
            return "ram.step.reset"
        return "ram.step.sweep" if state.reset_done_internal else "ram.step.access"

    def on_ram(args: tuple, result: tuple) -> None:
        state, inp = args[0], args[1]
        if inp.rst_n and not state.reset_done_internal:
            counts["ram.reads"] += inp.rd_en
            counts["ram.writes"] += inp.wr_en

    def on_campaign(args: tuple, result: Any) -> None:
        counts["fuzz.violations"] += not result.ok

    def size_of(key: str):
        def observe(args: tuple, result: None) -> None:
            counts[key] += len(args[1].getvalue())
        return observe

    tracer.wrap(trace, "system_step", "system.step")
    tracer.wrap(fuzz, "system_step", "system.step")
    tracer.wrap(system, "arbiter_step", "arbiter.step", on_arbiter)
    tracer.wrap(arbiter, "fsm_next", "arbiter.fsm_next")
    tracer.wrap(system, "resolve_outputs", "arbiter.resolve_outputs")
    tracer.wrap(system, "ram_step", ram_kind, on_ram)
    tracer.wrap(trace, "run_scenario", "trace.replay")
    tracer.wrap(trace, "check_assertions", "trace.check")
    tracer.wrap(trace, "write_vcd", "trace.vcd", size_of("trace.vcd_bytes"))
    tracer.wrap(trace, "write_table", "trace.tsv", size_of("trace.tsv_bytes"))
    tracer.wrap(fuzz, "random_inputs", "fuzz.random_inputs")
    tracer.wrap(fuzz, "check_invariants", "fuzz.check")
    tracer.wrap(fuzz, "run_fuzz", "fuzz.campaign", on_campaign)
    tracer.wrap(arbsim.corpus, "parse_scenario", "scenario.parse")
    tracer.wrap(arbsim.corpus, "builtin_scenarios", "corpus.load")
    tracer.count(arbsim.signals.Word, "__post_init__", "signals.word_new")
    for owner in (arbsim.signals, arbsim.scenario, trace):
        tracer.count(owner, "parse_word", "signals.parse_word_calls")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass; a layer the pass never reaches reads 0."""
    spans = tracer.summary()
    counts = tracer.counts

    def calls(*names: str) -> int:
        return sum(spans.get(n, (0, 0.0, 0.0))[0] for n in names)

    def total(*names: str) -> float:
        return sum(spans.get(n, (0, 0.0, 0.0))[1] for n in names)

    def own(*names: str) -> float:
        return sum(spans.get(n, (0, 0.0, 0.0))[2] for n in names)

    def us_per_call(name: str) -> float:
        return total(name) / calls(name) * 1e6 if calls(name) else 0.0

    ram = ("ram.step.sweep", "ram.step.access", "ram.step.reset")
    return {
        "signals.word_new": counts["signals.word_new"],
        "signals.parse_word_calls": counts["signals.parse_word_calls"],
        "arbiter.step_self_s": own("arbiter.step"),
        "arbiter.fsm_next_s": own("arbiter.fsm_next"),
        "arbiter.resolve_outputs_s": own("arbiter.resolve_outputs"),
        "arbiter.clashes": counts["arbiter.clashes"],
        "arbiter.c2_grants": counts["arbiter.c2_grants"],
        "ram.step_self_s": own(*ram),
        "ram.sweep_edges": calls("ram.step.sweep"),
        "ram.reads": counts["ram.reads"],
        "ram.writes": counts["ram.writes"],
        "ram.sweep_us_per_edge": us_per_call("ram.step.sweep"),
        "ram.access_us_per_edge": us_per_call("ram.step.access"),
        "system.steps": calls("system.step"),
        "system.step_self_s": own("system.step"),
        "trace.replay_self_s": own("trace.replay"),
        "trace.check_s": total("trace.check"),
        "trace.vcd_s": total("trace.vcd"),
        "trace.tsv_s": total("trace.tsv"),
        "trace.vcd_bytes": counts["trace.vcd_bytes"],
        "trace.tsv_bytes": counts["trace.tsv_bytes"],
        "fuzz.random_inputs_s": total("fuzz.random_inputs"),
        "fuzz.check_s": total("fuzz.check"),
        "fuzz.campaign_self_s": own("fuzz.campaign"),
        "fuzz.violations": counts["fuzz.violations"],
        "scenario.parse_s": total("scenario.parse"),
        "corpus.load_s": total("corpus.load"),
    }
