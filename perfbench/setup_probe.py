"""Time hjbkit's set-up in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py MODEL [MODEL ...]

Imports ``hjbkit.cli`` and builds each named model's default scenario once,
then prints the elapsed seconds.  ``run.py`` starts this several times per
run and reports the median as ``setup_s``.
"""

import sys
import time
from pathlib import Path

t0 = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import hjbkit.cli  # noqa: E402,F401  (the import is what is timed)
from hjbkit.scenarios import build_scenario, default_config  # noqa: E402

for model in sys.argv[1:]:
    build_scenario(default_config(model))
print(repr(time.perf_counter() - t0))
