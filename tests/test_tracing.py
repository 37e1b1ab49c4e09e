"""The benchmark tracer still finds every entry point it wraps.

``perfbench/tracing.py`` rebinds the package's entry points from
outside.  A function moved or re-aliased in ``src`` would hide its time
from the traced benchmark run; this test catches that first.
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

# imports the cli module, not ``main``: a name bound in this script's
# own globals would itself count as a missed alias
SCRIPT = """
import contextlib
import io

import tracing
import lightcone.cli

tracer = tracing.Tracer()
tracer.install()
try:
    missed = tracer.missed_aliases()
    assert missed == [], missed
    with contextlib.redirect_stdout(io.StringIO()):
        code = lightcone.cli.main(["transform", "--surface", "catenoid",
                                   "--grid", "4x4", "--chain", "L"])
    assert code == 0, code
    # a root lift that bypassed SurfaceChart.evaluate or the step
    # closures of transforms._step_lift would leave its span at zero
    for span in ("cli.main", "transforms.apply_chain", "charts.evaluate",
                 "transforms.step_eval", "frames.frame_field",
                 "jets.product"):
        assert tracer.stats[span].calls > 0, span
finally:
    tracer.uninstall()
"""


def test_benchmark_tracer_misses_no_alias():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(["src", "perfbench"]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
