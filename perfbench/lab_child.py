"""``python -m petallab.lab`` with the reference loop sampled through it.

    python3 perfbench/lab_child.py REPORT ARGS...

Runs petallab's command line with ARGS exactly as ``python -m petallab.lab
ARGS`` does, and writes to REPORT the mean time of the reference loop over
its life and the ns spent sampling it (``reference.ChildSampler``).  The
samples are taken in the child because the host's speed differs from core
to core and from moment to moment, so the parent's samples do not tell the
child's speed.
"""

import os
import runpy
import sys

import reference  # from this script's directory, sys.path[0]

sys.path[0] = os.getcwd()  # as ``python -m`` sets it

sampler = reference.ChildSampler()
report, sys.argv = sys.argv[1], ["petallab.lab", *sys.argv[2:]]
code = 0
sampler.start()
try:
    runpy.run_module("petallab.lab", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
finally:
    with open(report, "w", encoding="utf-8") as handle:
        handle.write(sampler.stop() + "\n")
sys.exit(code)
