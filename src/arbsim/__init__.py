"""Cycle-accurate simulator of a two-client fixed-priority RAM arbiter."""

from .arbiter import (
    ArbiterState,
    ChannelState,
    ClientInputs,
    arbiter_reset,
    arbiter_step,
    detect_clash,
    fsm_next,
)
from .corpus import builtin_by_name, builtin_scenarios
from .ram import RamInputs, RamState, ram_reset, ram_step
from .scenario import (
    Assertion,
    Event,
    Scenario,
    ScenarioParseError,
    parse_scenario,
    render_scenario,
)
from .signals import HIGH, LOW, Level, Params, Word, parse_word
from .system import resolve_outputs, system_new, system_step
from .trace import (
    AssertionReport,
    AssertionResult,
    Trace,
    check_assertions,
    run_scenario,
    write_table,
    write_vcd,
)

__all__ = [
    "ArbiterState",
    "Assertion",
    "AssertionReport",
    "AssertionResult",
    "ChannelState",
    "ClientInputs",
    "Event",
    "HIGH",
    "LOW",
    "Level",
    "Params",
    "RamInputs",
    "RamState",
    "Scenario",
    "ScenarioParseError",
    "Trace",
    "Word",
    "arbiter_reset",
    "arbiter_step",
    "builtin_by_name",
    "builtin_scenarios",
    "check_assertions",
    "detect_clash",
    "fsm_next",
    "parse_scenario",
    "parse_word",
    "ram_reset",
    "ram_step",
    "render_scenario",
    "resolve_outputs",
    "run_scenario",
    "system_new",
    "system_step",
    "write_table",
    "write_vcd",
]

__version__ = "0.1.0"
