"""The CLI contract as a property (Claessen & Hughes, "QuickCheck", ICFP
2000): over argv drawn from the parser's grammar, ``main`` returns 0, 1 or 2
and never raises; an exit 2 prints one ``arbsim: error:`` line, and unless a
write failed part-way, it leaves every file as it was and no new one."""

import functools
import os
import pathlib
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import arbsim.cli as cli
from arbsim.fuzz import FuzzResult, Violation
from arbsim.scenario import MAX_EDGES

# Files in the working directory of every example, with their bytes.
# link.txt is a hard link to a.txt, made after the files are written.
FILES = {
    "a.txt": b"keep a\n",
    "b.txt": b"keep b\n",
    "ok.scn": b"scenario ok\nparams addr=2 data=64 registered=0\nclock 50\n"
              b"@100 RST_N = 1\nexpect @600 RST_DONE = high\nrun 800\n",
    "fail.scn": b"scenario no\nparams addr=2 data=4 registered=1\nclock 50\n"
                b"@100 RST_N = 1\nexpect @600 RST_DONE = low\nrun 800\n",
    "wide.scn": b"scenario wide\nparams addr=21 data=8 registered=0\nrun 100\n",
    "bad.scn": b"scenario bad\nparams addr=2 data=65 registered=0\nrun 100\n",
}

# Output paths: one file under several names, stdout under two, a new file,
# an empty path, a missing directory and two devices.
OUTPUTS = ["a.txt", "./a.txt", "link.txt", "b.txt", "new.txt", "-", "/dev/stdout",
           "", "no/x", "/dev/full", "/dev/null"]


def flag(name, values):
    """``name`` with one of ``values``."""
    return st.sampled_from(values).map(lambda v: [name, v])


def maybe(name, values):
    """Either nothing or, twice as often, ``name`` with one of ``values``."""
    return st.one_of(st.just([]), flag(name, values), flag(name, values))


run_argv = st.tuples(
    st.just(["run"]),
    st.one_of(
        flag("--builtin", ["tc07-c1-rw-same-addr-same-time", "tc07", "tc2", "tc99", ""]),
        flag("--file", [*FILES, "missing.scn", ""]),
    ),
    maybe("--vcd", OUTPUTS),
    maybe("--table", OUTPUTS),
    maybe("--registered", ["0", "1"]),
)
verify_argv = st.tuples(
    st.just(["verify"]),
    flag("--filter", ["tc07*", "ram-*", "zzz*", ""]),
    maybe("--report", OUTPUTS),
)
fuzz_argv = st.tuples(
    st.just(["fuzz"]),
    flag("--seed", ["0", "1", "-1"]),
    flag("--cycles", ["0", "1", "10", str(MAX_EDGES), str(MAX_EDGES + 1)]),
    maybe("--addr-width", ["0", "1", "20", "21"]),
    maybe("--data-width", ["1", "64", "65"]),
    st.sampled_from([[], ["--reset-storm"]]),
    maybe("--report", OUTPUTS),
)
# An empty argv, and "run" or "fuzz" alone, are argparse's own usage errors.
bare_argv = st.sampled_from([[], ["list"], ["run"], ["fuzz"]]).map(lambda argv: [argv])
argvs = st.one_of(run_argv, run_argv, verify_argv, fuzz_argv, bare_argv).map(
    lambda parts: [arg for part in parts for arg in part]
)


# One corpus parse, and one replay per scenario, for the whole test: an
# example then costs a few milliseconds, while the CLI's checks, opens and
# writes all run for real.  verify and list only read the corpus list.
cached_builtin_scenarios = functools.cache(cli.builtin_scenarios)
cached_run_scenario = functools.cache(cli.run_scenario)


def fake_run_fuzz(seed, cycles, params, reset_storm=False):
    """A campaign of no edges: an odd seed finds a violation."""
    return FuzzResult(seed, cycles, Violation(0, "fake", "x") if seed % 2 else None)


def snapshot(root):
    """Every file under ``root``, by relative path, with its bytes."""
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=argvs)
def test_every_exit_2_is_one_line_and_leaves_every_file(argv, monkeypatch, capfd, tmp_path):
    # capfd gives sys.stdout the descriptor of fd 1's file, as in a shell,
    # so '-' and /dev/stdout are seen as one file.
    monkeypatch.setattr(cli, "builtin_scenarios", cached_builtin_scenarios)
    monkeypatch.setattr(cli, "run_scenario", cached_run_scenario)
    monkeypatch.setattr(cli, "run_fuzz", fake_run_fuzz)
    with tempfile.TemporaryDirectory(dir=tmp_path) as folder:
        root = pathlib.Path(folder)
        for name, data in FILES.items():
            (root / name).write_bytes(data)
        os.link(root / "a.txt", root / "link.txt")
        before = snapshot(root)
        capfd.readouterr()
        cwd = os.getcwd()
        os.chdir(root)
        try:
            code = cli.main(argv)
        finally:
            os.chdir(cwd)
        out, err = capfd.readouterr()
        assert code in (0, 1, 2)
        if code != 2:
            assert err == ""
        elif err.startswith("arbsim: error: cannot write output:"):
            # Only a full device fails a write here; the outputs before it
            # may be written, and its stdout may hold part of a report.
            assert "/dev/full" in argv and err.count("\n") == 1
        else:
            assert err.startswith("arbsim: error: ") and err.count("\n") == 1
            assert out == ""
            assert snapshot(root) == before
