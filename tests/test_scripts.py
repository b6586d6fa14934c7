"""The scripts under scripts/ and the benchmark's self-test run against the
current package and print what they did."""

import ast
import importlib.util
import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from conftest import src_env

ROOT = pathlib.Path(__file__).resolve().parent.parent


def in_a_git_checkout():
    if shutil.which("git") is None:
        return False
    head = ["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"]
    return subprocess.run(head, capture_output=True).returncode == 0


def run_script(name, *args, folder="scripts", stdout=subprocess.PIPE):
    return subprocess.run(
        [sys.executable, str(ROOT / folder / name), *args],
        stdout=stdout, stderr=subprocess.PIPE, text=True, env=src_env(), timeout=120,
    )


def test_every_script_under_scripts_is_run_here():
    # The scripts/ files that this module's run_script calls name, without
    # another folder, are exactly scripts/*.py: tier-1 runs every script.
    calls = [node for node in ast.walk(ast.parse(pathlib.Path(__file__).read_text()))
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "run_script"]
    run = {call.args[0].value for call in calls
           if not any(keyword.arg == "folder" for keyword in call.keywords)}
    assert run == {path.name for path in (ROOT / "scripts").glob("*.py")}


def test_layer_timings_prints_one_positive_time_per_layer():
    result = run_script("layer_timings.py")
    assert result.returncode == 0, result.stderr
    header, *rows = [line.split() for line in result.stdout.splitlines()]
    assert header == ["layer", "min_us", "median_us", "x_ref"]
    assert [row[0] for row in rows] == [
        "system_step", "_check_widths", "arbiter_step", "fsm_next",
        "ram_step", "resolve_outputs", "random_inputs", "check_invariants",
        "fuzz_edge", "ram_sweep_a13", "ram_write_a13", "ram_rewrite_a13",
        "ram_read_a13", "system_step_sweep_a13", "system_step_held", "parse_scenario",
        "run_scenario", "check_assertions", "write_vcd", "write_table", "export_one_row",
        "import_arbsim", "reference",
    ]
    for name, *cells in rows:
        low, median, ratio = map(float, cells)
        assert 0 < low <= median and ratio > 0, name
    assert rows[-1][3] == "1.00"


@pytest.mark.parametrize("device", [
    "closed-pipe",
    pytest.param("/dev/full", marks=pytest.mark.skipif(
        not os.path.exists("/dev/full"), reason="needs /dev/full")),
], ids=["closed-pipe", "dev-full"])
def test_layer_timings_closed_stdout_is_one_error_line(device):
    # The reader is gone before the first row is printed, or the device is
    # full: exit 2 with one stderr line, as arbsim does, not a traceback.
    if device == "closed-pipe":
        read_end, write_end = os.pipe()
        os.close(read_end)
    else:
        write_end = os.open(device, os.O_WRONLY)
    try:
        result = run_script("layer_timings.py", stdout=write_end)
    finally:
        os.close(write_end)
    assert result.returncode == 2
    assert result.stderr.startswith("layer_timings: error:")
    assert result.stderr.count("\n") == 1


def test_export_waveforms_writes_vcd_and_tsv_per_case(tmp_path):
    result = run_script("export_waveforms.py", "--out", str(tmp_path))
    assert result.returncode == 0, result.stderr
    files = sorted(p.name for p in tmp_path.iterdir())
    assert len(files) == 74
    assert sum(name.endswith(".vcd") for name in files) == 37


def test_bench_selftest_passes():
    # The benchmark instruments arbsim's layer functions by name; its
    # self-test fails when a name it wraps moves or changes its signature.
    result = run_script("selftest.py", folder="bench")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "selftest: PASS" in result.stdout


def load_script(name):
    """A module of ``scripts/`` loaded in this process."""
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), ROOT / "scripts" / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_summary_applies_the_gain_rule_and_the_bound():
    # Ten synthetic pairs per metric, parent value p and change value c:
    # "met" wins every pair by 10 %, more than the parent's spread;
    # "spread" wins every pair by less than the parent's spread; "worse"
    # loses every pair by 30 %, past its bound of 25 %; "eight" wins eight
    # pairs by half and ties two, inside its bound.
    parent = [100.0 + i for i in range(10)]
    cases = {
        "met": ("higher", 0.2, parent, [p * 1.1 for p in parent]),
        "spread": ("higher", 0.2, [100.0, 200.0] * 5, [101.0, 201.0] * 5),
        "worse": ("lower", 0.25, parent, [p * 1.3 for p in parent]),
        "eight": ("lower", 0.25, parent, [p / 2 for p in parent[:8]] + parent[8:]),
    }
    runs = []
    for i in range(10):
        for k, side in enumerate(("parent", "change")):
            metrics = {metric: {"value": case[2 + k][i]} for metric, case in cases.items()}
            runs.append({"side": side, "workload": "w", "pair": i, "trace": 0,
                         "result": {"correct": True, "failed": 0, "metrics": metrics}})
    summary = load_script("bench_pairs.py").summarize(
        runs, 10, {metric: (better, bound) for metric, (better, bound, _, _) in cases.items()}
    )["w"]
    assert summary["all_correct"] and summary["failed"] == 0
    assert summary["met"]["parent_iqr"] == pytest.approx(4.5)
    assert summary["spread"]["parent_iqr"] == pytest.approx(100.0)
    got = {metric: (summary[metric]["change_wins"], summary[metric]["gain_rule_met"],
                    summary[metric]["within_bound"]) for metric in cases}
    assert got == {
        "met": ("10/10", True, True),
        "spread": ("10/10", False, True),
        "worse": ("0/10", False, False),
        "eight": ("8/10", False, True),
    }


@pytest.mark.skipif(not in_a_git_checkout(), reason="needs git and this repository")
def test_bench_pairs_writes_each_run_and_a_summary(tmp_path):
    out = tmp_path / "pairs.json"
    result = run_script(
        "bench_pairs.py", "--parent", "HEAD", "--workload", "fuzz-a4",
        "--pairs", "1", "--seconds", "0.2", "--out", str(out),
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(out.read_text())
    assert [(r["side"], r["trace"], r["result"]["correct"]) for r in report["runs"]] == [
        ("parent", 0, True), ("change", 0, True), ("parent", 1, True), ("change", 1, True),
    ]
    entry = report["summary"]["fuzz-a4"]
    assert entry["all_correct"] and entry["failed"] == 0
    for metric in ("setup_s", "edges_per_s", "case_ms_p50", "case_ms_p90", "peak_rss_mb"):
        row = entry[metric]
        assert row["parent_q1"] <= row["parent_median"] <= row["parent_q3"], metric
        assert row["change_wins"] in ("0/1", "1/1"), metric
        # One pair: no parent spread, so a won pair meets the gain rule.
        assert row["parent_iqr"] == 0, metric
        assert row["gain_rule_met"] is (row["change_wins"] == "1/1"), metric
        assert isinstance(row["within_bound"], bool), metric
    assert report["traced"]["fuzz-a4"]["counts_differ"] == []
