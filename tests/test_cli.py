"""Command-line front end: exit codes, reports, waveform export, fuzz."""

import os
import resource
import stat
import subprocess
import sys

import pytest

from arbsim.cli import main
from arbsim.scenario import MAX_EDGES, MAX_SCENARIO_CHARS

from conftest import src_env
from vcd_reader import read_vcd


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_fails_before(capsys, monkeypatch, work, *argv):
    """The CLI rejects ``argv`` with one usage-error line and never calls ``work``."""
    import arbsim.cli as cli_mod

    def must_not_run(*args, **kwargs):
        raise AssertionError(f"{work} called before the output path was checked")

    monkeypatch.setattr(cli_mod, work, must_not_run)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("arbsim: error:") and err.count("\n") == 1


class TestRun:
    def test_builtin_with_vcd_export(self, capsys, tmp_path):
        out_path = tmp_path / "out.vcd"
        code, out, _ = run_cli(capsys, "run", "--builtin", "tc07", "--vcd", str(out_path))
        assert code == 0
        assert "PASS" in out
        vcd = read_vcd(out_path.read_text())
        assert "RDDATA_C1" in vcd.widths

    def test_vcd_on_stdout(self, capsys, monkeypatch, tmp_path):
        # '-' is stdout for --vcd as for --table: the file's bytes, then the
        # report, and no file named '-'.
        monkeypatch.chdir(tmp_path)
        assert run_cli(capsys, "run", "--builtin", "tc07", "--vcd", "out.vcd")[0] == 0
        code, out, _ = run_cli(capsys, "run", "--builtin", "tc07", "--vcd", "-")
        assert code == 0
        vcd = (tmp_path / "out.vcd").read_text()
        assert out.startswith(vcd) and out[len(vcd):].startswith("PASS  ")
        assert [p.name for p in tmp_path.iterdir()] == ["out.vcd"]

    def test_unknown_builtin_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "run", "--builtin", "tc99")
        assert code == 2
        assert "unknown scenario" in err

    def test_unreadable_file_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "run", "--file", str(tmp_path / "nope.scn"))
        assert code == 2
        assert "cannot read" in err

    def test_file_with_table_on_stdout(self, capsys, tmp_path):
        scn = tmp_path / "my.scn"
        scn.write_text(
            "scenario mine\nparams addr=4 data=8 registered=0\nclock 50\n"
            "@100 RST_N = 1\nexpect @1200 RST_DONE = high\nrun 2000\n"
        )
        code, out, _ = run_cli(capsys, "run", "--file", str(scn), "--table", "-")
        assert code == 0
        assert out.startswith("cycle\ttime_ns\t")

    def test_failing_assertion_exits_nonzero(self, capsys, tmp_path):
        scn = tmp_path / "bad.scn"
        scn.write_text(
            "scenario corrupted\nparams addr=4 data=8 registered=0\nclock 50\n"
            "@100 RST_N = 1\nexpect @1200 RST_DONE = low\nrun 2000\n"
        )
        code, out, _ = run_cli(capsys, "run", "--file", str(scn))
        assert code == 1
        assert "FAIL" in out

    def test_parse_error_reports_line(self, capsys, tmp_path):
        scn = tmp_path / "syntax.scn"
        scn.write_text("scenario x\nparams addr=4 data=8 registered=0\n@5 NOT_A_PIN = 1\nrun 10\n")
        code, _, err = run_cli(capsys, "run", "--file", str(scn))
        assert code == 2
        assert "line 3" in err

    def test_zero_width_params_is_usage_error_with_line(self, capsys, tmp_path):
        scn = tmp_path / "narrow.scn"
        scn.write_text("scenario x\nparams addr=0 data=8 registered=0\nrun 100\n")
        code, _, err = run_cli(capsys, "run", "--file", str(scn))
        assert code == 2
        assert err.startswith("arbsim: error:") and err.count("\n") == 1
        assert "line 2" in err and "addr_width" in err

    def test_duplicate_params_line_is_usage_error_with_line(self, capsys, tmp_path):
        scn = tmp_path / "twice.scn"
        scn.write_text(
            "scenario x\nparams addr=4 data=8 registered=0\n@100 WRADDR_C1 = 1010\n"
            "params addr=2 data=8 registered=0\nrun 1000\n"
        )
        code, _, err = run_cli(capsys, "run", "--file", str(scn))
        assert code == 2
        assert err.startswith("arbsim: error:") and err.count("\n") == 1
        assert "line 4" in err and "duplicate params line" in err

    @pytest.mark.parametrize("line", [
        "params addr=21 data=8 registered=0\nrun 100\n",
        "params addr=4 data=8 registered=0\nrun 1000000000000\n",
        "params addr=2 data=65 registered=0\nrun 100\n",
    ])
    def test_oversized_scenario_fails_before_simulating(
        self, capsys, monkeypatch, tmp_path, line
    ):
        scn = tmp_path / "big.scn"
        scn.write_text("scenario x\n" + line)
        assert_fails_before(capsys, monkeypatch, "run_scenario", "run", "--file", str(scn))

    def test_clock_of_5000_digits_fails_before_simulating(self, capsys, monkeypatch, tmp_path):
        # Past CPython's int-string limit: a bare int() would raise a plain
        # ValueError and end in a traceback.
        scn = tmp_path / "clock.scn"
        scn.write_text("scenario x\nparams addr=4 data=8 registered=0\nclock 1"
                       + "0" * 5000 + "\nrun 100\n")
        assert_fails_before(capsys, monkeypatch, "run_scenario", "run", "--file", str(scn))

    @pytest.mark.parametrize("flag", ["--vcd", "--table"])
    def test_unwritable_output_fails_before_simulating(
        self, capsys, monkeypatch, tmp_path, flag
    ):
        assert_fails_before(capsys, monkeypatch, "run_scenario",
                            "run", "--builtin", "tc07", flag, str(tmp_path / "no" / "x"))

    def test_registered_override(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--builtin", "tc07", "--registered", "1")
        assert code == 0


class TestVerify:
    def test_all_cases_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith(("ram-", "tc"))]
        assert len(lines) == 74  # 37 scenarios x 2 output modes
        assert all("\tPASS\t" in l for l in lines)

    def test_filter_selects_cases_twenty_to_twenty_nine(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--filter", "tc2*")
        assert code == 0
        names = {l.split("\t")[0] for l in out.splitlines() if l.startswith("tc")}
        assert len(names) == 10
        assert all(n.startswith("tc2") for n in names)

    def test_filter_without_match_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--filter", "zzz*")
        assert code == 2

    def test_filter_without_match_is_one_error_line(self, capsys):
        _, out, err = run_cli(capsys, "verify", "--filter", "zzz*")
        assert out == ""
        assert err == "arbsim: error: no scenarios match filter 'zzz*'\n"

    def test_filter_without_match_leaves_an_existing_report(self, capsys, tmp_path):
        report = tmp_path / "r.tsv"
        report.write_bytes(b"earlier report\n")
        code, _, err = run_cli(capsys, "verify", "--filter", "zzz*", "--report", str(report))
        assert code == 2
        assert err == "arbsim: error: no scenarios match filter 'zzz*'\n"
        assert report.read_bytes() == b"earlier report\n"

    def test_report_is_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        assert run_cli(capsys, "verify", "--report", str(a))[0] == 0
        assert run_cli(capsys, "verify", "--report", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_report_fails_before_simulating(self, capsys, monkeypatch, tmp_path):
        assert_fails_before(capsys, monkeypatch, "run_scenario",
                            "verify", "--report", str(tmp_path / "no" / "r.tsv"))

    def test_corrupted_assertion_fails_naming_the_case(self, capsys, monkeypatch):
        import dataclasses

        import arbsim.cli as cli_mod
        from arbsim import builtin_scenarios
        from arbsim.scenario import Assertion

        def corrupted():
            scenarios = builtin_scenarios()
            victim = scenarios[5]
            bad = victim.assertions + (
                Assertion(kind="value", pin="RDDATA_C1", time=3000,
                          expected="1" * 8),
            )
            scenarios[5] = dataclasses.replace(victim, assertions=bad)
            return scenarios

        monkeypatch.setattr(cli_mod, "builtin_scenarios", corrupted)
        code, out, _ = run_cli(capsys, "verify")
        assert code == 1
        victim_name = builtin_scenarios()[5].name
        failing = [l for l in out.splitlines() if "\tFAIL\t" in l]
        assert failing and all(l.startswith(victim_name) for l in failing)


class TestFuzz:
    def test_clean_run(self, capsys):
        code, out, _ = run_cli(capsys, "fuzz", "--seed", "1", "--cycles", "2000")
        assert code == 0
        assert out.startswith("OK\t")

    def test_repeat_runs_identical(self, capsys):
        _, out1, _ = run_cli(capsys, "fuzz", "--seed", "1", "--cycles", "2000")
        _, out2, _ = run_cli(capsys, "fuzz", "--seed", "1", "--cycles", "2000")
        assert out1 == out2

    def test_zero_cycles_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "fuzz", "--seed", "1", "--cycles", "0")
        assert code == 2
        assert "cycles" in err

    @pytest.mark.parametrize("flag", ["--addr-width", "--data-width"])
    def test_zero_width_is_usage_error(self, capsys, flag):
        code, out, err = run_cli(capsys, "fuzz", "--seed", "1", "--cycles", "10", flag, "0")
        assert code == 2
        assert out == ""
        assert err.startswith("arbsim: error:") and err.count("\n") == 1
        assert flag[2:].replace("-", "_") in err

    def test_addr_width_past_the_cap_fails_before_simulating(self, capsys, monkeypatch):
        assert_fails_before(capsys, monkeypatch, "run_fuzz",
                            "fuzz", "--seed", "1", "--cycles", "10", "--addr-width", "21")

    def test_data_width_past_the_cap_fails_before_simulating(self, capsys, monkeypatch):
        assert_fails_before(capsys, monkeypatch, "run_fuzz",
                            "fuzz", "--seed", "1", "--cycles", "10", "--data-width", "65")

    def test_cycles_past_the_cap_fails_before_simulating(self, capsys, monkeypatch):
        assert_fails_before(capsys, monkeypatch, "run_fuzz",
                            "fuzz", "--seed", "0", "--cycles", str(MAX_EDGES + 1))
        assert_fails_before(capsys, monkeypatch, "run_fuzz",
                            "fuzz", "--seed", "0", "--cycles", "1000000000000")

    def test_cycles_at_the_cap_is_accepted(self, capsys, monkeypatch):
        import arbsim.cli as cli_mod
        from arbsim.fuzz import FuzzResult

        seen = []

        def fake_run_fuzz(seed, cycles, params, reset_storm=False):
            seen.append(cycles)
            return FuzzResult(seed, cycles, None)

        monkeypatch.setattr(cli_mod, "run_fuzz", fake_run_fuzz)
        code, out, err = run_cli(capsys, "fuzz", "--seed", "0", "--cycles", str(MAX_EDGES))
        assert (code, err, seen) == (0, "", [MAX_EDGES])
        assert out == f"OK\tseed=0\tcycles={MAX_EDGES}\tviolations=0\n"

    def test_unwritable_report_fails_before_simulating(self, capsys, monkeypatch, tmp_path):
        assert_fails_before(capsys, monkeypatch, "run_fuzz",
                            "fuzz", "--seed", "1", "--cycles", "10",
                            "--report", str(tmp_path / "no" / "r.txt"))

    def test_reset_storm_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "fuzz", "--seed", "3", "--cycles", "2000", "--reset-storm"
        )
        assert code == 0

    def test_other_widths(self, capsys):
        code, _, _ = run_cli(
            capsys, "fuzz", "--seed", "5", "--cycles", "500",
            "--addr-width", "2", "--data-width", "4",
        )
        assert code == 0

    def test_violation_reports_seed_and_minimal_prefix(self, capsys, monkeypatch):
        import arbsim.cli as cli_mod
        from arbsim.fuzz import FuzzResult, Violation

        def fake_run_fuzz(seed, cycles, params, reset_storm=False):
            return FuzzResult(seed, cycles, Violation(41, "clash-bypass", "x"))

        monkeypatch.setattr(cli_mod, "run_fuzz", fake_run_fuzz)
        code, out, _ = run_cli(capsys, "fuzz", "--seed", "9", "--cycles", "100")
        assert code == 1
        assert "seed=9" in out and "prefix=42" in out and "clash-bypass" in out


def test_list_names_every_builtin(capsys):
    code, out, _ = run_cli(capsys, "list")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 37
    assert any(l.startswith("tc22-both-read-same") for l in lines)


@pytest.mark.parametrize("argv, message", [
    (["run", "--builtin", "tc01", "--registered", "2"], "argument --registered: invalid choice"),
    (["fuzz", "--seed", "x", "--cycles", "1"], "argument --seed: invalid int value: 'x'"),
    ([], "the following arguments are required: command"),
])
def test_argparse_usage_error_is_one_error_line(capsys, argv, message):
    # argparse's own errors, a subcommand's included, return 2 from main()
    # with one line, like every other usage error: no usage text, no raise.
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"arbsim: error: {message}") and err.count("\n") == 1


def test_help_prints_usage_and_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: arbsim run") and captured.err == ""


@pytest.mark.parametrize("argv", [["run", "--builtin", "tc07", "--table", "-"], ["list"]])
def test_closed_stdout_is_one_error_line(argv):
    # The reader of stdout is gone before the first write: the CLI exits 2
    # with one error line, whether a write or the final flush hits the pipe.
    env = src_env()
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-c", "import sys; from arbsim.cli import main; sys.exit(main())",
             *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert result.returncode == 2
    assert result.stderr.startswith("arbsim: error:") and result.stderr.count("\n") == 1


@pytest.mark.parametrize("work, argv", [
    ("run_scenario", ["run", "--builtin", "tc07", "--vcd", "-", "--table", "-"]),
    ("run_scenario", ["verify", "--report", "-"]),
    ("run_fuzz", ["fuzz", "--seed", "1", "--cycles", "10", "--report", "-"]),
], ids=["vcd-and-table", "verify-report", "fuzz-report"])
def test_a_second_output_on_stdout_fails_before_simulating(capsys, monkeypatch, tmp_path, work, argv):
    # Stdout carries one output: a VCD and a table together, or a report
    # copy of what is printed anyway, is a usage error, and no file named
    # '-' is left behind.
    monkeypatch.chdir(tmp_path)
    assert_fails_before(capsys, monkeypatch, work, *argv)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("table", ["same.txt", "./same.txt", "link.txt"])
def test_two_outputs_that_are_one_file_fail_before_simulating(capsys, monkeypatch, tmp_path, table):
    # A VCD and a table written to one file would leave their bytes mixed:
    # the same path, another spelling of it, or a hard link to it.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "same.txt").write_text("kept\n")
    os.link(tmp_path / "same.txt", tmp_path / "link.txt")
    assert_fails_before(capsys, monkeypatch, "run_scenario",
                        "run", "--builtin", "tc01", "--vcd", "same.txt", "--table", table)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "same.txt"]
    assert (tmp_path / "same.txt").read_text() == "kept\n"


@pytest.mark.parametrize("vcd, table", [
    ("a.txt", "no/x"), ("new.txt", "no/x"), ("new.txt", "new.txt"), ("no/x", "a.txt"),
    ("a.txt", ""),
])
def test_a_usage_error_at_an_output_leaves_every_file_as_it_was(
    capsys, monkeypatch, tmp_path, vcd, table
):
    # Every output is opened and checked before any file is emptied, and a
    # file that the open created is removed again.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.txt").write_text("keep\n")
    assert_fails_before(capsys, monkeypatch, "run_scenario",
                        "run", "--builtin", "tc01", "--vcd", vcd, "--table", table)
    assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]
    assert (tmp_path / "a.txt").read_text() == "keep\n"


def test_a_dangling_symlink_output_stays_dangling_after_a_usage_error(
    capsys, monkeypatch, tmp_path
):
    # The open through a dangling symlink creates the link's target; a usage
    # error at a later output removes that target again and keeps the link.
    monkeypatch.chdir(tmp_path)
    os.symlink("target.txt", "dangle")
    assert_fails_before(capsys, monkeypatch, "run_scenario",
                        "run", "--builtin", "tc01", "--vcd", "dangle", "--table", "no/x")
    assert [p.name for p in tmp_path.iterdir()] == ["dangle"]
    assert os.readlink("dangle") == "target.txt"


@pytest.mark.parametrize("table", ["no/x", "ff", "ff2", ""])
def test_a_fifo_output_does_not_hide_a_later_usage_error(tmp_path, table):
    # A FIFO's open waits for a reader, so it opens after every other
    # output and the same-file rule: the error comes first and the FIFO
    # is never opened, even with no reader at all.
    os.mkfifo(tmp_path / "ff")
    os.link(tmp_path / "ff", tmp_path / "ff2")
    result = subprocess.run(
        [sys.executable, "-m", "arbsim", "run", "--builtin", "tc01", "--vcd", "ff",
         "--table", table],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=src_env(), timeout=20,
    )
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith("arbsim: error:") and result.stderr.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ff", "ff2"]


def test_a_fifo_output_is_written_when_nothing_else_fails(capsys, tmp_path):
    fifo, table = tmp_path / "ff", tmp_path / "t.tsv"
    os.mkfifo(fifo)
    # A reader that never blocks, so the open for writing need not wait; the
    # pipe keeps what was written until it is read.
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "arbsim", "run", "--builtin", "tc01", "--vcd", str(fifo),
             "--table", str(table)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=src_env(), timeout=60,
        )
        received = os.read(reader, 1 << 16).decode()
    finally:
        os.close(reader)
    assert result.returncode == 0, result.stderr
    _, vcd, _ = run_cli(capsys, "run", "--builtin", "tc01", "--vcd", "-")
    assert vcd.startswith(received) and received.startswith("$")
    assert table.stat().st_size > 0


def test_an_output_is_emptied_before_it_is_written(capsys, tmp_path):
    # An existing file longer than the new VCD keeps none of its old bytes.
    fresh, old = tmp_path / "fresh.vcd", tmp_path / "old.vcd"
    old.write_text("x" * 100_000)
    assert run_cli(capsys, "run", "--builtin", "tc07", "--vcd", str(fresh))[0] == 0
    assert run_cli(capsys, "run", "--builtin", "tc07", "--vcd", str(old))[0] == 0
    assert old.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_a_created_output_has_mode_0o666_less_the_umask(capsys, tmp_path, umask):
    # As ``open(path, "w")`` gives: no output is created executable.
    vcd, table, report, fuzz_report = (
        tmp_path / name for name in ("w.vcd", "t.tsv", "r.tsv", "f.txt"))
    old = os.umask(umask)
    try:
        assert run_cli(capsys, "run", "--builtin", "tc01", "--vcd", str(vcd),
                       "--table", str(table))[0] == 0
        assert run_cli(capsys, "verify", "--filter", "tc01*", "--report", str(report))[0] == 0
        assert run_cli(capsys, "fuzz", "--seed", "1", "--cycles", "10",
                       "--report", str(fuzz_report))[0] == 0
    finally:
        os.umask(old)
    for path in (vcd, table, report, fuzz_report):
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask, path.name


def test_dev_null_is_an_output_beside_a_file(capsys, tmp_path):
    table = tmp_path / "t.tsv"
    assert run_cli(capsys, "run", "--builtin", "tc01", "--vcd", os.devnull,
                   "--table", str(table))[0] == 0
    _, out, _ = run_cli(capsys, "run", "--builtin", "tc01", "--table", "-")
    assert out.startswith(table.read_text())


def assert_one_file_with_stdout(argv):
    """``arbsim argv``, with stdout a pipe, exits 2 with one line before
    writing anything."""
    result = subprocess.run(
        [sys.executable, "-m", "arbsim", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=src_env(), timeout=120,
    )
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr.startswith("arbsim: error:") and result.stderr.count("\n") == 1


@pytest.mark.parametrize("vcd, table", [("-", "/dev/stdout"), ("/dev/stdout", "-")])
def test_stdout_under_another_name_is_one_file_with_stdout(vcd, table):
    # '-' is stdout's own file, so /dev/stdout next to it is a second output
    # on stdout, caught before anything is written.
    assert_one_file_with_stdout(["run", "--builtin", "tc01", "--vcd", vcd, "--table", table])


@pytest.mark.parametrize("argv", [
    ["verify", "--filter", "tc01*", "--report", "/dev/stdout"],
    ["fuzz", "--seed", "1", "--cycles", "10", "--report", "/dev/stdout"],
], ids=["verify", "fuzz"])
def test_a_report_to_dev_stdout_is_one_file_with_stdout(argv):
    # verify and fuzz print their report on stdout, so a copy of it sent to
    # /dev/stdout is a second output on stdout, not the report twice.
    assert_one_file_with_stdout(argv)


@pytest.mark.parametrize("work, argv", [
    ("run_scenario", ["run", "--builtin", "tc07", "--vcd", ""]),
    ("run_scenario", ["run", "--builtin", "tc07", "--table", ""]),
    ("run_scenario", ["verify", "--report", ""]),
    ("run_fuzz", ["fuzz", "--seed", "1", "--cycles", "10", "--report", ""]),
], ids=["vcd", "table", "verify-report", "fuzz-report"])
def test_an_empty_output_path_fails_before_simulating(capsys, monkeypatch, tmp_path, work, argv):
    # An empty path names no file: it is a usage error, not a flag left out.
    monkeypatch.chdir(tmp_path)
    assert_fails_before(capsys, monkeypatch, work, *argv)
    assert list(tmp_path.iterdir()) == []


def test_python_m_arbsim_runs_the_cli():
    # From a checkout, without the installed console script.
    result = subprocess.run(
        [sys.executable, "-m", "arbsim", "list"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=src_env(), timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert len(result.stdout.splitlines()) == 37


def test_width_cap_reads_the_same_in_fuzz_and_in_a_scenario(capsys, tmp_path):
    scn = tmp_path / "wide.scn"
    scn.write_text("scenario x\nparams addr=21 data=8 registered=0\nrun 100\n")
    _, _, fuzz_err = run_cli(capsys, "fuzz", "--seed", "1", "--cycles", "10", "--addr-width", "21")
    _, _, file_err = run_cli(capsys, "run", "--file", str(scn))
    cap = "addr_width 21 is wider than the maximum 20\n"
    assert fuzz_err == "arbsim: error: " + cap
    assert file_err == f"arbsim: error: {scn}: line 2: " + cap


@pytest.mark.parametrize("cycles", [0, MAX_EDGES + 1])
def test_fuzz_cycles_out_of_range_names_the_range(capsys, cycles):
    code, out, err = run_cli(capsys, "fuzz", "--seed", "1", "--cycles", str(cycles))
    assert (code, out) == (2, "")
    assert err == f"arbsim: error: cycles {cycles} is out of range 1..{MAX_EDGES}\n"


def test_scenario_file_that_is_not_utf8_is_usage_error(capsys, tmp_path):
    scn = tmp_path / "latin1.scn"
    scn.write_bytes(b"scenario caf\xff\nparams addr=4 data=8 registered=0\nrun 100\n")
    code, out, err = run_cli(capsys, "run", "--file", str(scn))
    assert (code, out) == (2, "")
    assert err.startswith("arbsim: error: cannot read scenario file:") and err.count("\n") == 1


def test_scenario_file_past_the_read_cap_is_usage_error(capsys, monkeypatch, tmp_path):
    # A valid scenario padded with a comment to the cap runs; one character
    # more is rejected after reading at most that many.
    head = "scenario x\nparams addr=2 data=4 registered=0\nrun 100\n#"
    scn = tmp_path / "long.scn"
    scn.write_text(head + "x" * (MAX_SCENARIO_CHARS - len(head)))
    assert run_cli(capsys, "run", "--file", str(scn))[0] == 0
    scn.write_text(head + "x" * (MAX_SCENARIO_CHARS - len(head) + 1))
    assert_fails_before(capsys, monkeypatch, "parse_scenario", "run", "--file", str(scn))


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
def test_endless_scenario_file_is_one_error_line_in_bounded_memory():
    # Under a 512 MB address-space limit an unbounded read of /dev/zero ends
    # in a MemoryError; the capped read stops after MAX_SCENARIO_CHARS + 1.
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    result = subprocess.run(
        [sys.executable, "-m", "arbsim", "run", "--file", "/dev/zero"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=src_env(), timeout=120,
        preexec_fn=limit_memory,
    )
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == (f"arbsim: error: /dev/zero: longer than the maximum"
                             f" {MAX_SCENARIO_CHARS} characters\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ["run", "--builtin", "tc07", "--vcd", "/dev/full"],
    ["run", "--builtin", "tc07", "--table", "-"],
    ["verify", "--report", "/dev/full"],
    ["fuzz", "--seed", "1", "--cycles", "10", "--report", "/dev/full"],
], ids=["vcd", "table-on-stdout", "verify-report", "fuzz-report"])
def test_failed_write_is_one_error_line(argv):
    # A full device fails a write: the CLI exits 2 with one error line, not
    # 1 with a traceback.  The table goes to stdout, so stdout is the device.
    env = src_env()
    with open("/dev/full", "w") as full:
        result = subprocess.run(
            [sys.executable, "-m", "arbsim.cli", *argv],
            stdout=full if "-" in argv else subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    assert result.returncode == 2
    assert result.stderr.startswith("arbsim: error: cannot write output:")
    assert result.stderr.count("\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_report_write_leaves_stdout_working():
    # Only the --report file is on the full device: stdout stays open for
    # whatever the calling process prints after main returns.
    env = src_env()
    code = ("import sys; from arbsim.cli import main; status = main(sys.argv[1:]); "
            "print('after'); sys.exit(status)")
    result = subprocess.run(
        [sys.executable, "-c", code, "fuzz", "--seed", "1", "--cycles", "10",
         "--report", "/dev/full"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
    )
    assert result.returncode == 2
    assert result.stdout == "OK\tseed=1\tcycles=10\tviolations=0\nafter\n"
    assert result.stderr.startswith("arbsim: error: cannot write output:")
