"""The lightcone benchmark: two CLI workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports ``lightcone`` from that
checkout's ``src``.  ``--workload all`` runs the two workloads in turn.
``--small`` shrinks every workload for the smoke check (smoke.py).

The seed picks the torus parameter (see workloads.py).  Each workload
runs in a child process of its own (worker.py), closed loop, one
operation after another, after one untimed warm-up.  Every report is
checked; a failed check, a non-zero exit or an exception fails the
operation.

With ``--trace 0`` the metrics are the end-to-end ones:

* ``wall_ref``: time per operation, tracing off, in units of a fixed
  reference computation run between the commands (reference.py): the
  sum over its commands of each command's median (worker.py).  On a
  shared host the seconds themselves drifted by a third from minute to
  minute, which no length of run could average out;
* ``setup_s``: median over fresh interpreters of ``import lightcone``
  plus building the workload's base charts (setup_probe.py), with one
  BLAS thread;
* ``peak_rss_mb``: peak resident memory of the workload's process.

Printed with them, but not in the JSON metrics: ``wall_s``, the same
median in seconds; ``points_per_s``, sampled grid points per operation
over ``wall_s``; and ``error_rate``, failed over attempted operations,
which is 0 whenever the program is right (the last line carries its two
counts).  A run holds at most a few dozen operations, never the hundred
a p90 with ten samples beyond it would need, so no tail percentile is
given.

With ``--trace 1`` the metrics are the per-layer ones of tracing.py,
from traced operations that alternate with untraced ones in one process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give each metric with its unit and the environment of the run.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = {"wall_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_PROBES = 11
# With two threads, OpenBLAS starting its helper thread inside
# ``import numpy`` cost 0.07-0.1 s in some minutes and nothing in others,
# which swamped the program's own set-up; the probes run with one.
SETUP_THREADS = 1
DEADLINE_S = 175.0

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def cores():
    return len(os.sched_getaffinity(0))


def child_env(threads):
    """Environment of a child: BLAS/OpenMP threads capped at ``threads``,
    and nothing on the path before src."""
    env = dict(os.environ)
    env.update({var: str(threads) for var in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    return env


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_child(script, args, threads, deadline):
    """Run a helper script to completion; return its last stdout line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("no time left to run %s" % script)
    proc = subprocess.run([sys.executable, str(HERE / script)] + args,
                          env=child_env(threads), cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError("%s exited with %d: %s"
                           % (script, proc.returncode, proc.stderr.strip()))
    return proc.stdout.strip().splitlines()[-1]


def run_workload(name, args, deadline):
    """Measure one workload; return (result line, info for humans)."""
    common = ["--workload", name, "--seed", str(args.seed)]
    setup = []
    if not args.trace:
        setup = [float(run_child("setup_probe.py", common, SETUP_THREADS,
                                 deadline))
                 for _ in range(SETUP_PROBES)]
    worker = json.loads(run_child(
        "worker.py", common + ["--seconds", str(args.seconds),
                               "--trace", str(args.trace)]
        + (["--small"] if args.small else []), cores(), deadline))

    problems = list(worker["problems"])
    if args.trace:
        units = tracing.metric_units()
        values = worker["layers"]
        problems += worker["trace_problems"]
    else:
        units = END_TO_END
        values = {"wall_ref": worker["wall_ref"],
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": worker["maxrss_kb"] / 1024.0}
    result = {
        "correct": not problems and worker["failed"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": {k: {"value": values[k], "unit": u}
                    for k, u in units.items()},
    }
    info = {
        "workload": name, "seed": args.seed,
        "torus_t": workloads.torus_t(args.seed), "trace": args.trace,
        "commands": worker["argv"], "points_per_op": worker["points"],
        "samples": len(worker["samples_s"]),
        "wall_s": worker["wall_s"],
        "points_per_s": worker["points"] / worker["wall_s"],
        "reference_s": worker["reference_s"],
        "samples_s": worker["samples_s"],
        "traced_samples_s": worker.get("traced_samples_s"),
        "setup_samples_s": setup,
        "error_rate": worker["failed"] / worker["attempted"],
        "problems": problems,
        "thread_cap": cores(), "setup_thread_cap": SETUP_THREADS,
        "cores": os.cpu_count(),
        "cpu_model": cpu_model(), "numpy": worker["numpy"],
        "python": platform.python_version(),
    }
    return result, info


def print_human(name, result, info):
    print("== %s (seed %d, t=%r, %d timed samples)"
          % (name, info["seed"], info["torus_t"], info["samples"]))
    for metric, entry in result["metrics"].items():
        print("  %-40s %16.6g %s" % (metric, entry["value"], entry["unit"]))
    for metric, unit in (("wall_s", "s"), ("points_per_s", "1/s"),
                         ("error_rate", "ratio")):
        print("  %-40s %16.6g %s" % (metric, info[metric], unit))
    for problem in info["problems"]:
        print("  FAILED CHECK: %s" % problem)
    print(json.dumps({"info": info}, sort_keys=True))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced sizes, for the smoke check only")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lightcone" / "__init__.py").is_file():
        print("no lightcone sources under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" \
        else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    results = []
    for name in names:
        try:
            result, info = run_workload(name, args, deadline)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError,
                KeyError) as exc:
            print("%s: %s" % (name, exc), file=sys.stderr)
            return 1
        print_human(name, result, info)
        results.append((name, result))

    if len(results) == 1:
        print(json.dumps(results[0][1]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {"%s.%s" % (n, k): v for n, r in results
                        for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
