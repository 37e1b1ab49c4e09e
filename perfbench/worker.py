"""Run one workload in this process and print its samples as one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 [--small]

``run.py`` starts this in a child process per workload, so peak
resident memory stays per workload.  Operations run closed loop, one
after another, in the main thread: one untimed warm-up, then timed
operations for ``--seconds``.  With ``--trace 1`` the
timed operations alternate between untraced and traced, so the tracing
overhead comes from the same process.  Every operation's reports are
checked, and must match the warm-up's byte for byte.

Each command of an operation is timed on its own, and a fixed
reference computation (reference.py) runs after each, so each command
lies between two reference runs.  The time of an operation is the sum
over its commands of each command's median, in seconds (``wall_s``) and
in units of the mean of the two reference runs around the command
(``wall_ref``), which cancels the drift of a shared host's speed.
"""

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: no new operation starts this long after the worker started
HARD_LIMIT_S = 140.0


def import_lightcone():
    """Import the package from the checkout's ``src``, never from an
    installed copy elsewhere."""
    sys.path.insert(0, str(SRC))
    import lightcone
    if Path(lightcone.__file__).resolve().parent != SRC / "lightcone":
        raise SystemExit("lightcone imported from %s, not from %s"
                         % (lightcone.__file__, SRC))
    return lightcone


def median_op_s(ops):
    """Seconds of one operation from the per-command seconds of many."""
    return sum(statistics.median(column) for column in zip(*ops))


class Gauge:
    """Times the reference computation between commands."""

    def __init__(self):
        # imported here, as it imports numpy, which setup_probe.py must
        # import only once its clock runs
        import reference
        self.run = reference.run
        self.checksum = self.run()
        self.last_s = self.time_reference()

    def time_reference(self):
        start = time.perf_counter()
        checksum = self.run()
        seconds = time.perf_counter() - start
        if checksum != self.checksum:
            raise SystemExit("the reference computation changed its result")
        return seconds

    def ratio(self, seconds):
        """``seconds`` of a command that just ended, in units of the
        reference runs before and after it."""
        before, self.last_s = self.last_s, self.time_reference()
        return seconds / ((before + self.last_s) / 2)


def run_operation(cli, commands, argvs, gauge, warm_up):
    """Run every command once; return (seconds of each command, the same
    in reference units, reports, problems)."""
    results, seconds, ratios = [], [], []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                status = cli.main(argv)
        except Exception as exc:  # an operation failure, not ours
            status = "%s: %s" % (type(exc).__name__, exc)
        seconds.append(time.perf_counter() - start)
        ratios.append(gauge.ratio(seconds[-1]))
        results.append((status, out.getvalue(), err.getvalue()))

    problems = []
    for i, (command, (status, text, err)) in enumerate(
            zip(commands, results)):
        found = workloads.check_report(command, status, text)
        if warm_up is not None and text != warm_up[i]:
            found.append("report differs from the warm-up's")
        problems += ["%s: %s%s" % (" ".join(argvs[i]), p,
                                   " (stderr: %s)" % err.strip()
                                   if err else "")
                     for p in found]
    return seconds, ratios, [text for _, text, _ in results], problems


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--small", action="store_true")
    args = parser.parse_args(argv)

    began = time.perf_counter()
    import_lightcone()
    import numpy
    from lightcone import cli
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()

    commands = workloads.build(args.workload, args.seed, args.small)
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".work-") as work:
        dsl_path = Path(work, "catenoid.lc")
        dsl_path.write_text(workloads.CATENOID_DSL, encoding="utf-8")
        argvs = [c.argv(dsl_path) for c in commands]

        gauge = Gauge()
        _, _, warm_up, problems = run_operation(cli, commands, argvs, gauge,
                                                None)
        attempted, failed = 1, int(bool(problems))
        untraced, untraced_ref, traced, layers = [], [], [], []
        missed = []
        start = now = time.perf_counter()
        while True:
            trace_this = tracer is not None and len(traced) < len(untraced)
            if trace_this:
                tracer.reset()
                tracer.install()
                missed = missed or tracer.missed_aliases()
                try:
                    seconds, _, _, found = run_operation(
                        cli, commands, argvs, gauge, warm_up)
                finally:
                    tracer.uninstall()
                traced.append(seconds)
                layers.append(tracing.layer_metrics(tracer.stats))
            else:
                seconds, ratios, _, found = run_operation(
                    cli, commands, argvs, gauge, warm_up)
                untraced.append(seconds)
                untraced_ref.append(ratios)
            attempted += 1
            failed += int(bool(found))
            problems += found
            last, now = now, time.perf_counter()
            # stop before an operation as long as the last would end late
            enough = now - start + (now - last) > args.seconds or \
                now - began + (now - last) > HARD_LIMIT_S
            if enough and (tracer is None or traced):
                break

    result = {
        "wall_s": median_op_s(untraced),
        "wall_ref": median_op_s(untraced_ref),
        "reference_s": gauge.last_s,
        "samples_s": untraced,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "points": sum(c.points for c in commands),
        "argv": argvs,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        # median_low keeps counts whole: every value is one measured op's
        metrics = {name: statistics.median_low(op[name] for op in layers)
                   for name in layers[0]}
        metrics["trace.overhead_s"] = (median_op_s(traced)
                                       - median_op_s(untraced))
        trace_problems = list(missed)
        if metrics["trace.coverage"] < tracing.MIN_COVERAGE:
            trace_problems.append(
                "trace.coverage %.4f below %.2f"
                % (metrics["trace.coverage"], tracing.MIN_COVERAGE))
        result.update(traced_samples_s=traced, layers=metrics,
                      trace_problems=trace_problems)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
