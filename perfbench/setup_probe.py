"""Time what a CLI user pays before any work: ``import lightcone`` and
building the workload's base charts, in a fresh interpreter.

    python3 perfbench/setup_probe.py --workload NAME --seed N

Prints the seconds as one number.  Interpreter start-up itself is not
part of the program, so the clock starts just before the import.
"""

import argparse
import sys
import time

import workloads
from worker import import_lightcone


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    commands = workloads.build(args.workload, args.seed)
    if "numpy" in sys.modules:
        raise SystemExit("numpy was imported before the clock started")

    start = time.perf_counter()
    lightcone = import_lightcone()
    for command in commands:
        if command.dsl is not None:
            lightcone.chart_from_source(command.dsl, params=command.params)
        else:
            lightcone.catalog_chart(command.surface, **command.params)
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main())
