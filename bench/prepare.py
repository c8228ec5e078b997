"""Set up one workload's inputs in a fresh interpreter: one set-up sample.

Prints the CLOCK_MONOTONIC time (ns) at which the inputs were ready, then
their digest.  run.py reads its own clock just before starting this script,
so the difference is the set-up time from a fresh interpreter: importing
gwalk, parsing the configs and building the angle stacks.  The digest must
match the inputs run.py built itself.
"""

import argparse
import time
from pathlib import Path

import bootstrap  # noqa: F401  (thread pools and import path, before numpy)
import workloads


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args()
    prep = workloads.prepare(args.workload, args.seed, args.work)
    print(time.clock_gettime_ns(time.CLOCK_MONOTONIC))
    print(prep.digest())


if __name__ == "__main__":
    main()
