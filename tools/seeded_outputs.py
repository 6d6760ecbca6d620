"""Write the 17 seeded output sets that a "same bits" comparison diffs.

    PYTHONPATH=src python tools/seeded_outputs.py OUT

runs, in one process through ``hjbkit.cli.main``, ``run --model M`` for
all five models, ``verify --model M --seed S`` for S in 0 and 3, and
``oracle --model M`` for the two delay models.  Each command writes into
``OUT/<command>-<model>[-seed<S>]``.  The script prints each command's
exit code and exits 1 if any is non-zero.  Run it once per tree (with
that tree's ``src`` on ``PYTHONPATH``) and ``diff -r`` the two outputs.
"""

import sys
from pathlib import Path

from hjbkit.cli import main
from hjbkit.scenarios import MODELS

ORACLE_MODELS = ("vintage-dde", "time-to-build")
SEEDS = (0, 3)


def commands():
    """(directory name, argv without ``--out``) of each seeded command."""
    for model in MODELS:
        yield f"run-{model}", ["run", "--model", model]
    for model in MODELS:
        for seed in SEEDS:
            yield (f"verify-{model}-seed{seed}",
                   ["verify", "--model", model, "--seed", str(seed)])
    for model in ORACLE_MODELS:
        yield f"oracle-{model}", ["oracle", "--model", model]


def run_all(out: Path) -> int:
    """Run every command into ``out``; 1 if any exits non-zero, else 0."""
    failed = False
    for name, argv in commands():
        code = main([*argv, "--out", str(out / name)])
        print(f"{name}: exit {code}", flush=True)
        failed |= code != 0
    return int(failed)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUT")
    sys.exit(run_all(Path(sys.argv[1])))
