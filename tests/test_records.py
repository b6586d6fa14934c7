"""Which records are frozen dataclasses and which are NamedTuples.

Building a frozen dataclass costs several times what a ``NamedTuple`` does,
at import and per instance, so only the records that need a dataclass stay
one: ``Params`` and ``Scenario`` take ``dataclasses.replace``, and the bench
counts ``Word.__post_init__``.  Every other record, ``Trace`` included (its
rows are its pin values and it caches nothing), is a tuple.
"""

import dataclasses
import importlib
import pkgutil

import pytest

import arbsim
from arbsim import Params, check_assertions, parse_scenario, run_scenario
from arbsim.fuzz import FuzzResult, Violation, run_fuzz
from arbsim.scenario import Assertion, Event
from arbsim.trace import AssertionReport, AssertionResult, Trace

TUPLE_RECORDS = {
    Event: ("time", "pin", "value"),
    Assertion: ("kind", "pin", "time", "expected", "start", "end"),
    AssertionResult: ("assertion", "observed", "passed"),
    AssertionReport: ("results", "passed"),
    Violation: ("cycle", "prop", "detail"),
    FuzzResult: ("seed", "cycles", "violation"),
    Trace: ("scenario", "rows"),
}


def defined_dataclasses():
    """``module.Class`` for every dataclass that one of arbsim's modules defines."""
    found = []
    for info in pkgutil.iter_modules(arbsim.__path__):
        module = importlib.import_module(f"arbsim.{info.name}")
        found += [
            f"{info.name}.{name}"
            for name, obj in vars(module).items()
            if isinstance(obj, type)
            and dataclasses.is_dataclass(obj)
            and obj.__module__ == module.__name__
        ]
    return sorted(found)


def test_exactly_three_records_stay_dataclasses():
    assert defined_dataclasses() == ["scenario.Scenario", "signals.Params", "signals.Word"]


@pytest.mark.parametrize("record, fields", TUPLE_RECORDS.items(),
                         ids=[record.__name__ for record in TUPLE_RECORDS])
def test_record_is_a_tuple_with_its_fields(record, fields):
    assert issubclass(record, tuple) and not dataclasses.is_dataclass(record)
    assert record._fields == fields
    values = tuple(range(len(fields)))
    built = record(*values)
    # A tuple unpacks, has a len and equals a bare tuple of its values.
    assert len(built) == len(fields) and built == values and (*built,) == values
    assert [getattr(built, field) for field in fields] == list(values)


def test_assertion_keeps_its_defaults_and_describe():
    assert Assertion._field_defaults == {"time": 0, "expected": "", "start": 0, "end": 0}
    assert Assertion("value", "ACK_C2") == ("value", "ACK_C2", 0, "", 0, 0)
    value = Assertion(kind="value", pin="RDDATA_C1", time=2500, expected="10100011")
    window = Assertion(kind="quiet", pin="ACK_C2", start=3000, end=3900)
    assert value.describe() == "expect @2500 RDDATA_C1 = 10100011"
    assert window.describe() == "expect quiet ACK_C2 in 3000..3900"


def test_parsed_and_checked_records_have_their_exact_types():
    s = parse_scenario(
        "scenario mix\nparams addr=4 data=8 registered=0\nclock 50\n@100 RST_N = 1\n"
        "expect @1200 RST_DONE = high\nexpect @1200 RST_DONE = low\nrun 2000\n"
    )
    assert [type(e) for e in s.events] == [Event]
    assert [type(a) for a in s.assertions] == [Assertion, Assertion]
    report = check_assertions(run_scenario(s), s)
    assert type(report) is AssertionReport
    assert [type(r) for r in report.results] == [AssertionResult, AssertionResult]
    assert not report.passed
    # failures() keeps the failed results, in order.
    assert report.failures() == [report.results[1]]
    assert report.failures()[0].assertion.expected == "low"


def test_fuzz_result_keeps_ok():
    result = run_fuzz(1, 50, Params(4, 8))
    assert type(result) is FuzzResult and result.ok and result.violation is None
    failed = FuzzResult(9, 50, Violation(41, "clash-bypass", "x"))
    assert not failed.ok and failed.violation.prefix_len == 42
