"""Command-line front end.

Subcommands:

* ``run``: replay one scenario (builtin or file), print its assertion
  report, optionally export VCD/table waveforms.
* ``verify``: replay the whole builtin corpus in unregistered and
  registered output modes and print a per-case pass/fail table.
* ``fuzz``: drive random legal stimulus and check the structural
  invariants every cycle.
* ``list``: show the builtin scenario names.

Exit status is 0 exactly when every evaluated check passes.  Usage problems
exit 2 with one line on stderr: an unknown scenario, a scenario file that
cannot be read, is not UTF-8 or is longer than its limit, bad flag values, a
bus width (one rule, ``scenario.check_widths``, for files and ``fuzz``) or
run length past its limit, an output that cannot be opened (an empty path
included) or written (reader gone or device full), and two outputs that are
one file, where ``-`` is stdout and ``verify`` and ``fuzz`` count stdout as
an output.  An empty ``verify --filter`` matches no scenario and a negative
``fuzz --seed`` would repeat another seed's campaign, so both are usage
errors too.  Only a write that fails part-way changes a file before exit 2.
"""

from __future__ import annotations

import argparse
import fnmatch
import os
import stat
import sys
from collections.abc import Iterator
from contextlib import ExitStack, contextmanager
from dataclasses import replace
from typing import IO, NoReturn

from .corpus import builtin_by_name, builtin_scenarios
from .fuzz import run_fuzz
from .scenario import (
    MAX_EDGES, MAX_SCENARIO_CHARS, Scenario, ScenarioParseError, check_widths, parse_scenario,
)
from .signals import Params
from .trace import check_assertions, run_scenario, write_table, write_vcd


class SystemExit2(Exception):
    """Usage-level failure: message on stderr, exit status 2."""


class _ArgumentParser(argparse.ArgumentParser):
    """A parser whose usage errors, its subcommands' included, take the
    one-line ``SystemExit2`` path instead of printing usage and exiting."""

    def error(self, message: str) -> NoReturn:
        raise SystemExit2(message)


def _load_scenario(args: argparse.Namespace) -> Scenario:
    if args.builtin is not None:
        try:
            s = builtin_by_name(args.builtin)
        except KeyError as exc:
            raise SystemExit2(str(exc.args[0]))
    else:
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                text = fh.read(MAX_SCENARIO_CHARS + 1)
        except (OSError, UnicodeDecodeError) as exc:
            raise SystemExit2(f"cannot read scenario file: {exc}")
        if len(text) > MAX_SCENARIO_CHARS:
            raise SystemExit2(f"{args.file}: longer than the maximum {MAX_SCENARIO_CHARS} characters")
        try:
            s = parse_scenario(text)
        except ScenarioParseError as exc:
            raise SystemExit2(f"{args.file}: {exc}")
    if args.registered is not None:
        s = replace(s, params=replace(s.params, registered_output=bool(args.registered)))
    return s


def _identity(out: IO[str]) -> object:
    """What two opened outputs that are one file share: its device and
    inode.  An output without a descriptor (a captured stdout) is only
    itself."""
    try:
        st = os.fstat(out.fileno())
    except (AttributeError, OSError, ValueError):
        return out
    return st.st_dev, st.st_ino


@contextmanager
def _outputs(*paths: str | None) -> Iterator[list[IO[str] | None]]:
    """Open a command's outputs, ``-`` being stdout, under one rule: no two
    may be one file.  Each path opens without truncation, noting the files
    the open creates; a FIFO, whose open waits for a reader, opens only
    after every other output and the rule, which compares it by the
    device and inode of its ``os.stat``.  Only once all that has passed is
    each regular file emptied.  A file the open creates gets mode 0o666
    less the umask, as ``open`` gives.  On a usage error the files are
    closed and those created are removed, so every file is as it was."""
    with ExitStack() as opened:
        outs: list[IO[str] | None] = []
        created: list[str] = []
        fifos: list[tuple[int, str, os.stat_result]] = []
        try:
            for path in paths:
                if path is None or path == "-":
                    outs.append(sys.stdout if path else None)
                    continue
                try:
                    st: os.stat_result | None = os.stat(path)
                except OSError:
                    st = None
                if st and stat.S_ISFIFO(st.st_mode):
                    fifos.append((len(outs), path, st))
                    outs.append(None)
                    continue
                try:
                    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                    created.append(path)
                except FileExistsError:
                    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
                    if st is None:  # a dangling symlink, whose target the open made
                        created.append(os.path.realpath(path))
                outs.append(opened.enter_context(open(fd, "w", encoding="ascii")))
            keys = [_identity(out) for out in outs if out]
            keys += [(st.st_dev, st.st_ino) for _, _, st in fifos]
            if len(set(keys)) < len(keys):
                raise SystemExit2("two outputs are one file ('-' is stdout, where"
                                  " verify and fuzz print their report)")
            for i, path, _ in fifos:
                outs[i] = opened.enter_context(open(path, "w", encoding="ascii"))
        except (OSError, SystemExit2) as exc:
            for path in created:  # closed as the error leaves the ExitStack
                os.remove(path)
            if isinstance(exc, OSError):
                raise SystemExit2(f"cannot open output file: {exc}")
            raise
        for out in outs:
            if out and out is not sys.stdout and stat.S_ISREG(os.fstat(out.fileno()).st_mode):
                out.truncate()
        yield outs


def _emit(text: str, report: IO[str] | None) -> None:
    """Print ``text`` and copy it to the ``--report`` file, if there is one."""
    sys.stdout.write(text)
    if report:
        report.write(text)


def cmd_run(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args)
    with _outputs(args.vcd, args.table) as (vcd, table):
        trace = run_scenario(scenario)
        report = check_assertions(trace, scenario)
        if vcd:
            write_vcd(trace, vcd)
        if table:
            write_table(trace, table)
    for r in report.results:
        status = "PASS" if r.passed else "FAIL"
        sys.stdout.write(f"{status}  {r.assertion.describe()}  [observed: {r.observed}]\n")
    verdict = "PASS" if report.passed else "FAIL"
    sys.stdout.write(f"{verdict}  {scenario.name}: {len(report.results)} assertion(s)\n")
    return 0 if report.passed else 1


def _verify_lines(scenarios: list[Scenario]) -> tuple[list[str], bool]:
    """Run the scenarios in both output modes; return report lines and verdict."""
    lines = []
    all_ok = True
    for base in scenarios:
        for registered in (False, True):
            s = replace(base, params=replace(base.params, registered_output=registered))
            mode = "registered" if registered else "unregistered"
            report = check_assertions(run_scenario(s), s)
            status = "PASS" if report.passed else "FAIL"
            all_ok = all_ok and report.passed
            lines.append(f"{base.name}\t{mode}\t{status}\t{len(report.results)}")
    return lines, all_ok


def cmd_verify(args: argparse.Namespace) -> int:
    scenarios = builtin_scenarios()
    if args.filter is not None:
        scenarios = [s for s in scenarios if fnmatch.fnmatch(s.name, args.filter)]
    if not scenarios:
        raise SystemExit2(f"no scenarios match filter {args.filter!r}")
    with _outputs("-", args.report) as (_, report):
        lines, all_ok = _verify_lines(scenarios)
        _emit("\n".join(["scenario\tmode\tstatus\tassertions"] + lines) + "\n", report)
        _emit(f"{'PASS' if all_ok else 'FAIL'}: {len(lines)} run(s)\n", report)
    return 0 if all_ok else 1


def cmd_fuzz(args: argparse.Namespace) -> int:
    try:
        params = Params(args.addr_width, args.data_width)
        check_widths(params)
    except ValueError as exc:
        raise SystemExit2(str(exc))
    if args.seed < 0:
        raise SystemExit2(f"seed {args.seed} must be >= 0")
    if not 1 <= args.cycles <= MAX_EDGES:
        raise SystemExit2(f"cycles {args.cycles} is out of range 1..{MAX_EDGES}")
    with _outputs("-", args.report) as (_, report):
        result = run_fuzz(args.seed, args.cycles, params, reset_storm=args.reset_storm)
        if result.ok:
            line = f"OK\tseed={args.seed}\tcycles={args.cycles}\tviolations=0\n"
        else:
            v = result.violation
            line = (
                f"VIOLATION\tseed={args.seed}\tprefix={v.prefix_len}"
                f"\tproperty={v.prop}\tdetail={v.detail}\n"
            )
        _emit(line, report)
    return 0 if result.ok else 1


def cmd_list(args: argparse.Namespace) -> int:
    for s in builtin_scenarios():
        print(f"{s.name}\tclock={s.clock_period}ns\trun={s.duration}ns"
              f"\tevents={len(s.events)}\tassertions={len(s.assertions)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="arbsim",
        description="Cycle-accurate two-client RAM arbiter simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="replay one scenario and check it")
    p_run.set_defaults(func=cmd_run)
    src = p_run.add_mutually_exclusive_group(required=True)
    src.add_argument("--builtin", help="builtin scenario name or unique prefix")
    src.add_argument("--file", help="path to a scenario file")
    p_run.add_argument("--vcd", metavar="PATH", help="write a VCD waveform ('-' for stdout)")
    p_run.add_argument("--table", metavar="PATH", help="write a TSV table ('-' for stdout)")
    p_run.add_argument("--registered", type=int, choices=(0, 1), default=None,
                       help="override the scenario's output-register mode")

    p_verify = sub.add_parser("verify", help="run the whole builtin corpus")
    p_verify.set_defaults(func=cmd_verify)
    p_verify.add_argument("--filter", help="glob over scenario names, e.g. 'tc2*'")
    p_verify.add_argument("--report", metavar="PATH", help="also write the TSV report to a file")

    p_fuzz = sub.add_parser("fuzz", help="random-stimulus property campaign")
    p_fuzz.set_defaults(func=cmd_fuzz)
    p_fuzz.add_argument("--seed", type=int, required=True)
    p_fuzz.add_argument("--cycles", type=int, required=True)
    p_fuzz.add_argument("--addr-width", type=int, default=4)
    p_fuzz.add_argument("--data-width", type=int, default=8)
    p_fuzz.add_argument("--reset-storm", action="store_true",
                        help="also pull reset low on about 2%% of edges (from --addr-width 8"
                             " up, the run then stays in reset almost throughout)")
    p_fuzz.add_argument("--report", metavar="PATH", help="also write the summary to a file")

    sub.add_parser("list", help="list builtin scenarios").set_defaults(func=cmd_list)
    return parser


def release_stdout() -> None:
    """After an output could not be written (its reader went away or its
    device is full): if stdout is that output, point it at devnull so that
    the interpreter's own flush at exit finds nothing to fail on."""
    try:
        sys.stdout.flush()
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        status = args.func(args)
        # A write that fails on the final flush fails here, not at exit.
        sys.stdout.flush()
        return status
    except SystemExit2 as exc:
        print(f"arbsim: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        release_stdout()
        print(f"arbsim: error: cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
