"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload once untraced and once traced at reduced size, and
asserts that each declares exactly the metrics of BENCHMARK.json, each
with its unit, that no operation failed, and that the output checks
reject broken reports.  It also checks that the benchmark refuses to
run without the program's sources.  Exits non-zero on the first
failure; takes well under a minute.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    raise SystemExit("smoke check failed: " + message)


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "1"] + list(args),
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_runs(spec):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[section]}
        for name in workloads.WORKLOADS:
            proc = run_bench(ROOT, "--workload", name, "--trace", str(trace),
                             "--small")
            where = "%s --trace %d" % (name, trace)
            if proc.returncode != 0:
                fail("%s exited %d: %s" % (where, proc.returncode,
                                           proc.stderr))
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != RESULT_KEYS:
                fail("%s: result keys %s" % (where, sorted(result)))
            if not (result["correct"] and result["failed"] == 0
                    and result["attempted"] >= 2):
                fail("%s: %s" % (where, proc.stdout))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != declared:
                fail("%s: metrics %s, declared %s" % (where, got, declared))
            for metric, entry in result["metrics"].items():
                value = entry["value"]
                if not (isinstance(value, (int, float))
                        and math.isfinite(value)):
                    fail("%s: %s = %r" % (where, metric, value))
                if section == "end_to_end" and not value > 0:
                    fail("%s: %s = %r is not positive"
                         % (where, metric, value))
            print("ok  %-16s trace %d  %d metrics, %d operations"
                  % (name, trace, len(got), result["attempted"]))


def check_output_checks():
    """Each output check must reject a report that breaks it."""
    verify, transform, round_trip = workloads.build("verify-transform", 0)
    energy, = workloads.build("energy-torus", 0)
    gate = {"value": 1e-15, "tol": 1e-8, "passed": True}
    good = {
        verify: {"passed": True, "gates": {
            g: dict(gate) for g in workloads.REQUIRED_GATES["verify"]}},
        transform: {"passed": True, "base_distance": 1e-15,
                    "gates": {"willmore_final": dict(gate)}},
        energy: {"passed": True, "reference": {"rel_err": 1e-14},
                 "gates": {"energy": dict(gate)}},
    }
    good[round_trip] = good[transform]
    broken = [
        (verify, 0, dict(good[verify], passed=False)),
        (verify, 0, dict(good[verify], gates={
            g: dict(gate, value=1.0)
            for g in workloads.REQUIRED_GATES["verify"]})),
        (verify, 0, dict(good[verify], gates={})),
        (round_trip, 0, dict(good[round_trip], base_distance=1e-9)),
        (energy, 0, dict(good[energy], reference=None)),
        (energy, 1, good[energy]),
    ]
    for command, report in good.items():
        problems = workloads.check_report(command, 0, json.dumps(report))
        if problems:
            fail("a good report was rejected: %s" % problems)
    for command, status, report in broken:
        if not workloads.check_report(command, status, json.dumps(report)):
            fail("a broken report passed: %s" % report)
    if not workloads.check_report(verify, 0, "not json"):
        fail("a report that is not JSON passed")
    print("ok  output checks reject %d broken reports" % (len(broken) + 1))


def check_refuses_without_sources():
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".work-") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns(".work-*",
                                                      "__pycache__"))
        proc = run_bench(tmp, "--workload", workloads.WORKLOADS[0])
    if proc.returncode == 0 or proc.stdout.strip():
        fail("ran without the program's sources: %s" % proc.stdout)
    print("ok  refuses to run without src/lightcone")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        fail("BENCHMARK.json workloads differ from workloads.py")
    check_output_checks()
    check_refuses_without_sources()
    check_runs(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
