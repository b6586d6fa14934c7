import os
import pathlib
from operator import attrgetter
from types import SimpleNamespace

import pytest

from arbsim import HIGH, LOW, ClientInputs, Params, parse_word, system_new, system_step
from arbsim.arbiter import PINS

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# Pin name -> the index of its value in a trace row.
PIN = {name: i for i, (name, _, _, _) in enumerate(PINS)}

# The output pins, in PINS order: the order of a step's outputs.
OUTPUTS = [name for name, direction, _, _ in PINS if direction == "out"]


def pin(values, name):
    """The value of pin ``name`` in a step's outputs (the four output pins'
    values) or in a trace row (all 22)."""
    if len(values) == len(PINS):
        return values[PIN[name]]
    assert len(values) == len(OUTPUTS), values
    return values[OUTPUTS.index(name)]


def pin_row(inputs, outputs, arbiter):
    """A row built the plain way, not interned: every input and probe read
    off one edge's records by its PINS path, and every output by its name,
    into a new tuple on every call."""
    view = SimpleNamespace(inputs=ClientInputs(*inputs), arbiter=arbiter)
    return tuple(
        pin(outputs, name) if d == "out" else attrgetter(path)(view)
        for name, d, _, path in PINS
    )


@pytest.fixture
def params():
    return Params(addr_width=4, data_width=8)


def make_inputs(params, **kw):
    """ClientInputs with keyword overrides; word fields accept binary strings."""
    base = ClientInputs.quiet(rst_n=kw.pop("rst_n", HIGH))
    fields = {}
    for name, value in kw.items():
        if isinstance(value, str):
            width = params.addr_width if "addr" in name else params.data_width
            fields[name] = parse_word(value, width).value
        else:
            fields[name] = value
    return base._replace(**fields)


def settle_reset(state, params, extra=0):
    """Run the post-release init sweep: reset low two edges, then the sweep."""
    low = ClientInputs.quiet(rst_n=LOW)
    for _ in range(2):
        state, _ = system_step(state, low, params)
    idle = ClientInputs.quiet(rst_n=HIGH)
    for _ in range(params.ram_depth() + 1 + extra):
        state, _ = system_step(state, idle, params)
    return state


def fresh_system(params, extra=0):
    """A system that has completed its init sweep and sits idle."""
    return settle_reset(system_new(params), params, extra=extra)


def src_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH, for
    a subprocess that imports arbsim."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env
