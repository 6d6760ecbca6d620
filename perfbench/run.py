"""hjbkit benchmark: end-to-end and per-layer figures for three workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload circle --seed 1 --seconds 30 --trace 0

The benchmark drives the real command-line entry ``hjbkit.cli.main`` in
this process, as a closed loop with one client: each command starts when
the previous one has finished.  A pass runs the workload's commands once;
passes repeat until ``--seconds`` is used up.  The first pass warms up and
is checked but not timed.  The workload seed reaches the program only as
``verify --seed``.

Times are scaled to a reference machine speed measured by an interleaved
speed probe (see ``REF_PROBE_S``); the raw figures are printed beside them.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced passes and reports the per-layer metrics recorded by
``tracer.Tracer``, plus the tracing overhead.  Either way the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy is first imported; set-up probes
# inherit the setting.  One thread keeps the run to one busy core.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = {
    "circle": {
        "why": "the two circle models: 28,000 cn_step calls per pass, where "
               "Crank-Nicolson and cyclic-solve work shows; the delay "
               "modules and the DP oracle do no work here",
        "commands": (("verify", "spatial-growth"), ("verify", "pollution"),
                     ("run", "spatial-growth"), ("run", "pollution")),
    },
    "delay": {
        "why": "the three delay/age models: rollouts that rebuild validating "
               "history objects per step, plus CSV writing; no cn_step, so "
               "it bypasses circle-kernel work",
        "commands": (("verify", "vintage-dde"), ("verify", "vintage-transport"),
                     ("verify", "time-to-build"), ("run", "vintage-dde"),
                     ("run", "vintage-transport"), ("run", "time-to-build")),
    },
    "oracle": {
        "why": "the vintage-dde DP oracle: all time in brute_force_value's "
               "short re-walks of handle.step, where batched-oracle work "
               "shows; no circle kernel runs",
        "commands": (("oracle", "vintage-dde"),),
    },
}
EXCLUDED = ("oracle --model time-to-build: one run takes about 126 s on a "
            "2-core VM, too long to repeat 22 times per benchmark check; "
            "tier-1 criterion 5 still gates it, and it shares "
            "brute_force_value with the oracle workload")

# analytic_value of each default scenario, recorded when this benchmark was
# written; a command whose value moves by more than REL_ANALYTIC fails the
# correctness gate
SEED_ANALYTIC = {
    "spatial-growth": 51.324665703404136,
    "pollution": 20.308391166124707,
    "vintage-dde": 6.974877017846093,
    "vintage-transport": 6.175614497187364,
    "time-to-build": 11.451737065981455,
    ("oracle", "vintage-dde"): 6.963361188202062,  # coarse 8-cell state
}
REL_ANALYTIC = 1e-8
MAX_VALUE_GAP = 5e-3
MAX_RESIDUAL = 1e-5

CIRCLE_MODELS = ("spatial-growth", "pollution")
MODULE_OF = {"spatial-growth": "spatial_growth", "pollution": "pollution",
             "vintage-dde": "vintage_dde",
             "vintage-transport": "vintage_transport",
             "time-to-build": "time_to_build"}
SIMULATE_OF = {"spatial-growth": "simulate_spatial",
               "pollution": "simulate_pollution",
               "vintage-dde": "simulate_vintage",
               "vintage-transport": "simulate_transport",
               "time-to-build": "simulate_ttb"}
# verify rolls a circle model out three times (value match, suboptimal
# probe, transversality trajectory); run rolls it out once
ROLLOUTS = {"run": 1, "verify": 3, "oracle": 0}

# Times are reported at a reference machine speed: each is scaled by
# REF_PROBE_S over the median of the speed_probe() samples taken in the same
# run.  A shared 2-core VM changes speed by up to 1.8x over tens of seconds,
# as other tenants come and go; the scale cancels that drift, which raw
# medians of 30-s runs do not.  REF_PROBE_S is the probe's typical time on
# a 2-core Xeon VM, so scaled seconds read close to raw ones there.
PROBE_LOOPS = 750
REF_PROBE_S = 0.06
PROBE_EVERY_S = 0.5    # one probe per this many seconds of command time
SETUP_REPEATS = 7
MIN_TIMED_PASSES = 2
MIN_TRACED_PASSES = 2


@dataclass
class Command:
    kind: str
    model: str
    rc: int
    seconds: float
    output_bytes: int
    outputs: dict          # parsed JSON output, {} when missing
    problems: list = field(default_factory=list)


@dataclass
class Pass:
    commands: list
    seconds: float
    probes: list           # speed-probe seconds taken after each command

    def kind_seconds(self, kind):
        return sum(c.seconds for c in self.commands if c.kind == kind)

    @property
    def failed(self):
        return sum(1 for c in self.commands if c.problems)


def _call_cli(cli, argv):
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main(argv), ""
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 1), sink.getvalue()
    except Exception:  # a crash is a failed command, not a failed benchmark
        return 1, sink.getvalue() + traceback.format_exc()


def _read_output(kind, out):
    name = {"run": "summary.json", "verify": "report.json",
            "oracle": "oracle.json"}[kind]
    try:
        return json.loads((out / name).read_text())
    except (OSError, ValueError):
        return {}


def _relative(a, b):
    return abs(a - b) / abs(b)


def gate(kind, model, rc, data):
    """Reasons why one command's outputs are wrong (empty when correct)."""
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    if not data:
        return problems + ["no output file"]
    try:
        problems += _output_problems(kind, model, data)
    except (KeyError, TypeError) as exc:
        problems.append(f"malformed output: {exc!r}")
    return problems


def _output_problems(kind, model, data):
    problems = []
    if kind == "run":
        if not data["value_gap"] < MAX_VALUE_GAP:
            problems.append(f"value_gap {data['value_gap']:.3e}")
    elif kind == "verify":
        if not data["value_match_gap"] < MAX_VALUE_GAP:
            problems.append(f"value_match_gap {data['value_match_gap']:.3e}")
        if not data["residual_max"] < MAX_RESIDUAL:
            problems.append(f"residual_max {data['residual_max']:.3e}")
    else:
        if data.get("contained") is not True:
            problems.append("analytic value outside the DP bracket")
    if kind in ("run", "oracle"):
        ref = SEED_ANALYTIC[model if kind == "run" else (kind, model)]
        got = data.get("analytic_value")
        if got is None or not _relative(got, ref) <= REL_ANALYTIC:
            problems.append(f"analytic_value {got!r} moved from {ref!r}")
    return problems


def value_gap(cmd):
    """Relative gap between the closed form and its numerical check."""
    data = cmd.outputs
    if cmd.kind == "run":
        return data["value_gap"]
    if cmd.kind == "verify":
        return data["value_match_gap"]
    return oracle_lo_gap(data)


def oracle_lo_gap(data):
    return (data["analytic_value"] - data["bracket_lo"]) \
        / abs(data["analytic_value"])


@dataclass(frozen=True)
class _ProbeSample:
    values: object

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValueError("non-finite probe sample")
        object.__setattr__(self, "values", vals)


def speed_probe():
    """Seconds for a fixed loop of the kind of work hjbkit's hot loops do
    (small numpy calls, a validating frozen dataclass, a banded LAPACK
    solve).  It uses numpy and scipy only, never hjbkit, so a change to
    hjbkit cannot move it; it tracks the VM's current speed."""
    from scipy.linalg import solve_banded
    n = 256
    ab = np.zeros((3, n))
    ab[0, 1:] = ab[2, :-1] = -1.0
    ab[1] = 4.0
    v = np.linspace(1.0, 2.0, n)
    gc.collect()
    t0 = perf_counter()
    for _ in range(PROBE_LOOPS):
        sample = _ProbeSample(v + 0.5 * np.roll(v, 1) - 0.5 * np.roll(v, -1))
        solve_banded((1, 1), ab, np.column_stack([sample.values, v]),
                     check_finite=False)
    return perf_counter() - t0


def run_pass(cli, workload, seed):
    commands, probes = [], []
    for kind, model in WORKLOADS[workload]["commands"]:
        out = OUT / workload / f"{kind}-{model}"
        shutil.rmtree(out, ignore_errors=True)
        argv = [kind, "--model", model, "--out", str(out)]
        if kind == "verify":
            argv += ["--seed", str(seed)]
        t0 = perf_counter()
        rc, log = _call_cli(cli, argv)
        seconds = perf_counter() - t0
        data = _read_output(kind, out)
        size = sum(p.stat().st_size for p in out.glob("*") if p.is_file())
        cmd = Command(kind, model, rc, seconds, size, data,
                      gate(kind, model, rc, data))
        probes += [speed_probe()
                   for _ in range(max(1, round(seconds / PROBE_EVERY_S)))]
        if cmd.problems:
            print(f"FAILED {kind} {model}: {'; '.join(cmd.problems)}\n{log}",
                  file=sys.stderr)
        commands.append(cmd)
    return Pass(commands, sum(c.seconds for c in commands), probes)


def repeat_passes(cli, workload, seed, seconds, min_passes, traced=None):
    """Timed passes until ``seconds`` is spent.  A pass is started only if
    one as long as the previous still fits, so a run keeps to its length.
    With ``traced`` (a factory of tracers) passes alternate traced and
    untraced, starting traced; returns (untraced, [(pass, tracer)])."""
    plain, traced_passes = [], []
    start = perf_counter()
    last = 0.0
    while True:
        done = min(len(traced_passes), len(plain)) if traced else len(plain)
        if done >= min_passes and perf_counter() - start + last > seconds:
            break
        t0 = perf_counter()
        if traced and len(traced_passes) <= len(plain):
            tracer = traced()
            tracer.install()
            try:
                p = run_pass(cli, workload, seed)
            finally:
                tracer.uninstall()
            traced_passes.append((p, tracer))
        else:
            p = run_pass(cli, workload, seed)
            plain.append(p)
        last = perf_counter() - t0
    return plain, traced_passes


def setup_seconds(workload):
    """Median set-up seconds over fresh interpreters, at reference speed."""
    models = list(dict.fromkeys(m for _, m in WORKLOADS[workload]["commands"]))
    samples, probes = [], []
    for _ in range(SETUP_REPEATS):
        probes += [speed_probe(), speed_probe()]
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), *models],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    scale = REF_PROBE_S / statistics.median(probes)
    print(f"  setup: raw samples {[round(x, 4) for x in samples]}, "
          f"speed scale {scale:.4f}")
    return statistics.median(samples) * scale


def machine():
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": BLAS_THREADS}


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, setup, timed, all_passes):
    walls = [p.seconds for p in timed]
    scale = REF_PROBE_S / statistics.median(x for p in timed for x in p.probes)
    commands = [c for p in all_passes for c in p.commands]
    attempted = len(commands)
    failed = sum(1 for c in commands if c.problems)
    kinds = {k for k, _ in WORKLOADS[workload]["commands"]}
    oracle = [c.outputs for c in commands
              if c.kind == "oracle" and not c.problems]
    gaps = [value_gap(c) for c in commands if not c.problems]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report = [
        ("wall_s", statistics.median(walls) * scale, "s",
         f"median of {len(walls)} passes; raw {statistics.median(walls):.4f} s, "
         f"speed scale {scale:.4f}"),
        *((f"{kind}_s",
           statistics.median(p.kind_seconds(kind) for p in timed) * scale,
           "s", f"median per pass of {len(walls)}")
          for kind in ("verify", "run", "oracle") if kind in kinds),
        ("setup_s", setup, "s",
         f"median of {SETUP_REPEATS} fresh interpreters"),
        ("peak_rss_mb", rss_mb, "MiB", "ru_maxrss of this process"),
        ("failed_fraction", failed / attempted, "ratio",
         f"{failed} of {attempted} commands"),
        ("value_gap_max", max(gaps, default=float("nan")), "ratio",
         "max over all correct outputs"),
    ]
    if oracle:
        report.append(("oracle_lo_gap", max(oracle_lo_gap(d) for d in oracle),
                       "ratio", "(analytic - bracket_lo) / |analytic|"))
    for name, value, unit, note in report:
        print(f"  {name:<16} {value:>14.6g} {unit:<6} {note}")
    gated = ("wall_s", "setup_s", "peak_rss_mb", "value_gap_max")
    metrics = {name: _metric(value, unit) for name, value, unit, _ in report
               if name in gated}
    return attempted, failed, metrics


# -- per-layer metrics -------------------------------------------------------

def layer_counts(t, p):
    """Work counts of one traced pass; these must repeat exactly."""
    eig = "spectral.principal_eigenpair"
    bfv = "verify.brute_force_value"
    step_calls = sum(t.edges[(bfv, f"{m}.handle.step")]
                     for m in MODULE_OF.values())
    counts = {
        "gridcore.cn_step.calls": t.calls["gridcore.cn_step"],
        "gridcore.solve_periodic_tridiagonal.calls":
            t.calls["gridcore.solve_periodic_tridiagonal"],
        "gridcore.Field.constructions": t.counts["gridcore.Field"],
        "gridcore.HistorySegment.constructions":
            t.counts["gridcore.HistorySegment"],
        f"{eig}.calls": t.calls[eig],
        f"{eig}.solves_per_call":
            (t.edges[(eig, "gridcore.solve_periodic_tridiagonal")]
             / t.calls[eig]) if t.calls[eig] else 0.0,
        f"{bfv}.evaluations": t.oracle_evaluations,
        f"{bfv}.passes": t.oracle_passes,
        f"{bfv}.step_calls": step_calls,
        f"{bfv}.prefix_step_fraction":
            ((step_calls - t.oracle_evaluations / 2) / step_calls)
            if step_calls else 0.0,
        "cli.output_bytes": sum(c.output_bytes for c in p.commands),
    }
    for module in MODULE_OF.values():
        counts[f"{module}.handle.step.calls"] = t.calls[f"{module}.handle.step"]
    return counts


BUSY_SPANS = (
    "gridcore.cn_step", "gridcore.solve_periodic_tridiagonal",
    "spectral.principal_eigenpair", "spectral.solve_elliptic",
    "spectral.char_root_vintage", "spectral.char_root_ttb",
    "spectral.transport_resolvent",
    "spatial_growth.build_spatial_spec", "spatial_growth.simulate_spatial",
    "spatial_growth.hjb_residual_spatial", "spatial_growth.handle.step",
    "pollution.build_pollution_spec", "pollution.simulate_pollution",
    "pollution.hjb_residual_pollution", "pollution.handle.step",
    "vintage_dde.build_vintage_spec", "vintage_dde.simulate_vintage",
    "vintage_dde.hjb_residual_vintage", "vintage_dde.handle.step",
    "vintage_transport.build_transport_spec",
    "vintage_transport.simulate_transport",
    "vintage_transport.hjb_residual_transport",
    "vintage_transport.handle.step",
    "time_to_build.build_ttb_spec", "time_to_build.simulate_ttb",
    "time_to_build.hjb_residual_ttb", "time_to_build.handle.step",
    "verify.value_match", "verify.suboptimality_margin",
    "verify.transversality", "verify.brute_force_value",
    "scenarios.build_scenario", "scenarios.residual_study",
    "scenarios.verify_scenario", "scenarios.oracle_scenario",
)


def layer_times(t):
    times = {f"{name}.busy_s": t.busy[name] for name in BUSY_SPANS}
    times["cli.self_s"] = t.self_time["cli.main"]
    return times


def coverage_problems(t, p):
    """Traced counts that disagree with what the pass's outputs imply; a
    wrapper missing at some import site shows here instead of as a zero."""
    if p.failed:
        return []  # the failed commands are already reported
    problems = []
    steps = {}
    for c in p.commands:
        if c.kind == "run" and c.outputs:
            num = c.outputs["config"]["numerics"]
            steps[c.model] = round(num["T_end"] / num["dt"]) \
                if "dt" in num else None
    want_cn = sum(ROLLOUTS[c.kind] * steps[c.model] for c in p.commands
                  if c.model in CIRCLE_MODELS)
    if t.calls["gridcore.cn_step"] != want_cn:
        problems.append(f"cn_step calls {t.calls['gridcore.cn_step']} != "
                        f"{want_cn} implied by the outputs")
    for model, module in MODULE_OF.items():
        want = sum(1 for c in p.commands
                   if c.model == model and c.kind in ("run", "verify"))
        got = t.calls[f"{module}.{SIMULATE_OF[model]}"]
        if got != want:
            problems.append(f"{SIMULATE_OF[model]} calls {got} != {want}")
    oracle = [c.outputs for c in p.commands if c.kind == "oracle"]
    want_evals = sum(d.get("evaluations", 0) for d in oracle)
    want_passes = sum(d.get("passes", 0) for d in oracle)
    if (t.oracle_evaluations, t.oracle_passes) != (want_evals, want_passes):
        problems.append(
            f"brute_force_value evaluations/passes {t.oracle_evaluations}/"
            f"{t.oracle_passes} != oracle.json {want_evals}/{want_passes}")
    return problems


def per_layer(plain, traced):
    scale = REF_PROBE_S / statistics.median(
        x for p in [*plain, *(p for p, _ in traced)] for x in p.probes)
    problems = []
    counts = [layer_counts(t, p) for p, t in traced]
    for other in counts[1:]:
        diff = sorted(k for k in counts[0] if counts[0][k] != other[k])
        if diff:
            problems.append(f"counts differ between traced passes: {diff}")
    for p, t in traced:
        problems += coverage_problems(t, p)
    times = [layer_times(t) for _, t in traced]
    metrics = {}
    for name, value in counts[0].items():
        unit = ("ratio" if name.endswith("_fraction") else
                "bytes" if name.endswith("_bytes") else "count")
        metrics[name] = _metric(value, unit)
    for name in times[0]:
        metrics[name] = _metric(
            statistics.median(x[name] for x in times) * scale, "s")
    overhead = statistics.median(p.seconds for p, _ in traced) \
        - statistics.median(p.seconds for p in plain)
    metrics["trace.overhead_s"] = _metric(overhead * scale, "s")
    for name, m in sorted(metrics.items()):
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    sites = traced[0][1].bindings
    print("  wrapped bindings: "
          + ", ".join(f"{k} x{v}" for k, v in sites.items() if v != 1))
    print(f"  (traced passes {len(traced)}, untraced passes {len(plain)}, "
          f"speed scale {scale:.4f})")
    return metrics, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hjbkit" / "cli.py").is_file():
        print(f"error: hjbkit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "why": WORKLOADS[args.workload]["why"],
                      "excluded": EXCLUDED, "machine": machine()}))
    setup = None
    if not args.trace:
        setup = setup_seconds(args.workload)

    from hjbkit import cli

    shutil.rmtree(OUT / args.workload, ignore_errors=True)
    warm = run_pass(cli, args.workload, args.seed)
    if args.trace:
        from tracer import Tracer
        plain, traced = repeat_passes(cli, args.workload, args.seed,
                                      args.seconds, MIN_TRACED_PASSES,
                                      traced=Tracer)
        metrics, problems = per_layer(plain, traced)
        passes = [warm, *plain, *(p for p, _ in traced)]
        attempted = sum(len(p.commands) for p in passes)
        failed = sum(p.failed for p in passes)
    else:
        plain, _ = repeat_passes(cli, args.workload, args.seed, args.seconds,
                                 MIN_TIMED_PASSES)
        problems = []
        attempted, failed, metrics = end_to_end(
            args.workload, setup, plain, [warm, *plain])
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
