#!/usr/bin/env python3
"""Run the full random-stimulus property campaign (10 seeds x 10k cycles).

Each seed is one ``arbsim fuzz`` run, so every line it prints, and every
limit it checks, is the CLI's.  The first usage error stops the campaign.
"""

import argparse
import time

from arbsim.cli import main as arbsim


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--cycles", type=int, default=10_000)
    parser.add_argument("--addr-width", type=int, default=4)
    parser.add_argument("--data-width", type=int, default=8)
    parser.add_argument("--reset-storm", action="store_true")
    args = parser.parse_args()

    flags = ["--cycles", str(args.cycles), "--addr-width", str(args.addr_width),
             "--data-width", str(args.data_width)]
    if args.reset_storm:
        flags.append("--reset-storm")
    start = time.perf_counter()
    failures = 0
    for seed in range(args.seeds):
        status = arbsim(["fuzz", "--seed", str(seed), *flags])
        if status == 2:
            raise SystemExit(2)
        failures += status  # 1 when the seed found a violation
    elapsed = time.perf_counter() - start
    print(f"{args.seeds} seeds x {args.cycles} cycles in {elapsed:.2f}s, "
          f"{failures} failing seed(s)")
    raise SystemExit(1 if failures else 0)


if __name__ == "__main__":
    main()
