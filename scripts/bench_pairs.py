#!/usr/bin/env python3
"""Run the benchmark in alternating pairs, a parent revision against the
working tree, and write every run and a per-metric summary as JSON.

    python3 scripts/bench_pairs.py --parent HEAD --pairs 10 --seconds 30 \\
        --seed 3001 --out BENCH_30.json

The parent side runs from a ``git archive`` of ``src`` and ``bench`` at
``--parent``; the change side from a copy of the working tree's ``src``
and ``bench``.  Before each run every ``__pycache__`` of that side is
removed, and each run has ``PYTHONDONTWRITEBYTECODE=1`` and no
``PYTHONPATH``, so both sides compile the package from source as the
benchmark does in a fresh checkout.  Pair ``i`` of a workload runs ``bench/run.py --trace 0`` on
both sides with seed ``--seed + i``, the parent first when ``i`` is even
and the change first when it is odd.  After the pairs each side runs one
``--trace 1`` pass of ``--seconds`` with seed ``--seed``, whose counts and
byte totals must be the same on both sides.

For each workload and end-to-end metric of BENCHMARK.json the summary
gives each side's median, quartiles, minimum and maximum, the parent's
interquartile range, the change's median relative to the parent's, and
the pairs the change won, by the metric's direction; a tie counts for
neither side.  ``gain_rule_met`` is true when the change won at least
nine tenths of the pairs and its median is better than the parent's by
more than the parent's interquartile range; ``within_bound`` when its
median is worse than the parent's by no more than the metric's bound in
BENCHMARK.json.  The file keeps each
run's result line.  Exit status: 0 when every run was correct, 1 when one
was not (the file is written either way), 2 when the parent revision
cannot be exported.  Nothing under ``bench/`` is changed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export_parent(rev: str, dest: Path) -> str:
    """Extract ``src`` and ``bench`` at ``rev`` into ``dest``; return its commit."""
    sha = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    dest.mkdir()
    archive = subprocess.Popen(
        ["git", "-C", str(ROOT), "archive", sha, "src", "bench"], stdout=subprocess.PIPE
    )
    untar = subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() or untar.returncode:
        raise subprocess.CalledProcessError(archive.returncode or untar.returncode, "git archive")
    return sha


def copy_tree(dest: Path) -> None:
    """Copy the working tree's ``src`` and ``bench`` into ``dest``."""
    for name in ("src", "bench"):
        shutil.copytree(ROOT / name, dest / name, ignore=shutil.ignore_patterns("__pycache__"))


def run_bench(side: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``bench/run.py`` run from ``side`` with no bytecode cache; its
    result line, or a failed result when it printed none."""
    for cache in list(side.rglob("__pycache__")):
        shutil.rmtree(cache)
    # Without the caller's PYTHONPATH, which could put another arbsim ahead
    # of the side's own src.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run(
        [sys.executable, str(side / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=side, env=env, capture_output=True, text=True,
    )
    try:
        return json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        return {"correct": False, "exit": proc.returncode, "stderr": proc.stderr[-2000:]}


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(runs: list[dict], pairs: int, metrics: dict[str, tuple[str, float]]) -> dict:
    """Per workload: whether every run was correct, and per metric (name ->
    ("higher" or "lower" is better, relative bound)) each side's spread,
    the change's relative median, its wins and the two rules it meets."""
    summary = {}
    for workload in {r["workload"] for r in runs}:
        timed = [r for r in runs if r["workload"] == workload and r["trace"] == 0]
        entry = {
            "pairs": pairs,
            "all_correct": all(r["result"].get("correct") for r in timed),
            "failed": sum(r["result"].get("failed", 0) for r in timed),
        }
        if not entry["all_correct"]:
            summary[workload] = entry
            continue
        for metric, (better, bound) in metrics.items():
            side = {
                s: [r["result"]["metrics"][metric]["value"]
                    for r in sorted(timed, key=lambda r: r["pair"]) if r["side"] == s]
                for s in ("parent", "change")
            }
            row = {}
            for s, values in side.items():
                q1, q3 = quartiles(values)
                row |= {f"{s}_median": statistics.median(values), f"{s}_q1": q1,
                        f"{s}_q3": q3, f"{s}_min": min(values), f"{s}_max": max(values)}
            sign = 1 if better == "higher" else -1
            wins = sum(sign * (c - p) > 0 for p, c in zip(side["parent"], side["change"]))
            row["parent_iqr"] = row["parent_q3"] - row["parent_q1"]
            row["change_vs_parent"] = row["change_median"] / row["parent_median"] - 1
            row["change_wins"] = f"{wins}/{len(side['parent'])}"
            row["gain_rule_met"] = (
                10 * wins >= 9 * len(side["parent"])
                and sign * (row["change_median"] - row["parent_median"]) > row["parent_iqr"]
            )
            row["within_bound"] = sign * row["change_vs_parent"] >= -bound
            entry[metric] = row
        summary[workload] = entry
    return dict(sorted(summary.items()))


def traced_counts(runs: list[dict]) -> dict:
    """Per workload: both sides' traced metrics, and the counts and byte
    totals that differ between them."""
    traced = {}
    for r in runs:
        if r["trace"] == 1:
            traced.setdefault(r["workload"], {})[r["side"]] = r["result"]
    out = {}
    for workload, sides in sorted(traced.items()):
        metrics = {s: res.get("metrics", {}) for s, res in sides.items()}
        exact = [k for k, v in metrics["parent"].items() if v["unit"] in ("count", "bytes")]
        out[workload] = {
            "all_correct": all(res.get("correct") for res in sides.values()),
            "counts_differ": [
                k for k in exact if metrics["change"].get(k) != metrics["parent"][k]
            ],
            "parent": metrics["parent"],
            "change": metrics["change"],
        }
    return out


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD", help="revision to compare against (HEAD)")
    parser.add_argument("--workload", action="append", choices=names,
                        help="a workload to run; repeat for more (all by default)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs and --seconds must be positive")
    if not args.out.parent.is_dir():
        parser.error(f"--out: no directory {str(args.out.parent)!r}")
    workloads = args.workload or names

    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        sides = {"parent": Path(tmp, "parent"), "change": Path(tmp, "change")}
        try:
            parent_sha = export_parent(args.parent, sides["parent"])
        except (OSError, subprocess.CalledProcessError) as exc:
            print(f"bench_pairs: error: cannot export {args.parent!r}: {exc}", file=sys.stderr)
            return 2
        copy_tree(sides["change"])
        runs = []
        for workload in workloads:
            for pair in range(args.pairs):
                seed = args.seed + pair
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    result = run_bench(sides[side], workload, seed, args.seconds, 0)
                    runs.append({"side": side, "workload": workload, "pair": pair,
                                 "seed": seed, "trace": 0, "result": result})
            for side in ("parent", "change"):
                result = run_bench(sides[side], workload, args.seed, args.seconds, 1)
                runs.append({"side": side, "workload": workload, "pair": None,
                             "seed": args.seed, "trace": 1, "result": result})

    report = {
        "parent_sha": parent_sha,
        "change": f"working tree on {parent_sha}",
        "command": f"python3 bench/run.py --workload <w> --seed <s> --seconds {args.seconds:g} "
                   "--trace 0, then one --trace 1 pass per side and workload",
        "method": __doc__.split("\n\n")[2].replace("\n", " "),
        "python": sys.version.split()[0],
        "summary": summarize(
            runs, args.pairs,
            {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]},
        ),
        "traced": traced_counts(runs),
        "runs": runs,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if all(r["result"].get("correct") for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
