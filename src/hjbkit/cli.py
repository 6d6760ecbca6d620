"""Command-line front end: run, verify, oracle.

  hjbkit run    --config scenario.json --out results/
  hjbkit verify --model pollution --out results/ --seed 7
  hjbkit oracle --model vintage-dde --out results/

``run`` simulates the closed loop and writes ``trajectory.csv`` (RFC-4180,
fixed column order) plus ``summary.json``; ``verify`` runs the
verification suite and writes ``report.json``; ``oracle`` runs the
coarse-scale dynamic-programming bracket for a delay model.

Exit codes: 0 pass, 2 assumption/configuration failure, 3 tolerance or
numerics failure, 4 domain exit.  All outputs are deterministic for a
fixed seed: no timestamps, sorted keys, and full-precision floats.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path

from .errors import (AssumptionError, ConfigError, DomainExitError,
                     NumericsError)
from .gridcore import BLOCK
from .scenarios import (MODELS, build_scenario, default_config,
                        oracle_scenario, refine_config, validate_config,
                        verify_scenario)
from .verify import match_run

EXIT_OK = 0
EXIT_ASSUMPTION = 2
EXIT_TOLERANCE = 3
EXIT_DOMAIN = 4


def _output_dir(args) -> Path:
    """``--out``, created if absent; a path that cannot be a directory is
    a ConfigError naming it."""
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: "
                          f"{exc}") from None
    return out


@contextlib.contextmanager
def _writing(path: Path):
    """``path`` open for writing text; a file that cannot be written is a
    ConfigError naming it."""
    try:
        with path.open("w", newline="") as fh:
            yield fh
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None


def _python_value(obj):
    """json's fallback: a numpy scalar or array as its Python value."""
    if type(obj).__module__ == "numpy":
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _write_json(path: Path, obj) -> None:
    """Strict JSON: a NaN or infinite figure is a NumericsError, and the
    file is not written."""
    try:
        text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False,
                          default=_python_value)
    except ValueError as exc:
        raise NumericsError(f"{path.name} would hold a non-finite figure: "
                            f"{exc}") from None
    with _writing(path) as fh:
        fh.write(text + "\n")


def _read_config(path: str) -> dict:
    """The JSON object in ``path``; an unreadable file, malformed JSON or a
    top-level value that is not an object is a ConfigError naming it."""
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # ValueError: JSON or UTF-8 decoding
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must hold a JSON object, got "
                          f"{type(raw).__name__}")
    return raw


def _load_config(args) -> dict:
    if args.config is not None:
        raw = _read_config(args.config)
        if "config" in raw and isinstance(raw["config"], dict) \
                and "model" in raw["config"]:
            raw = raw["config"]  # summary.json round trip
        config = validate_config(raw)
    elif args.model is not None:
        config = validate_config(default_config(args.model))
    else:
        raise ConfigError("provide --config <path> or --model <name>")
    if vars(args).get("refine"):  # run and verify take --refine
        config = refine_config(config, args.refine)
    return config


def _write_trajectory_csv(path: Path, traj) -> None:
    """One row per time: t, the run's columns, the running payoff, BLOCK
    rows per string.  A row is the ``repr`` of its floats joined by commas
    and ended by CRLF: the bytes of ``csv.writer``, since no float's repr
    (nor any column name) needs quoting."""
    columns = [traj.times, *traj.columns.values(), traj.running_payoff]
    with _writing(path) as fh:
        fh.write(",".join(["t", *traj.columns, "running_payoff"]) + "\r\n")
        for start in range(0, len(traj.times), BLOCK):
            fh.write("".join(",".join(map(repr, row)) + "\r\n" for row in zip(
                *(col[start:start + BLOCK].tolist() for col in columns))))


def cmd_run(args) -> int:
    config = _load_config(args)
    out = _output_dir(args)
    scenario = build_scenario(config)
    traj = scenario.simulate(scenario.state_columns)
    vm = match_run(scenario.handle, scenario.state0, traj)
    summary = {
        "model": scenario.name,
        "config": config,
        "derived": scenario.derived,
        "analytic_value": vm.analytic,
        "simulated_payoff": vm.payoff,
        "discounted_tail": vm.tail,
        "value_gap": vm.rel_gap,
        "flags": traj.meta,
    }
    _write_trajectory_csv(out / "trajectory.csv", traj)
    _write_json(out / "summary.json", summary)
    print(f"{scenario.name}: analytic {vm.analytic:.6g}, simulated+tail "
          f"{vm.total:.6g} (gap {vm.rel_gap:.2e}) -> {out}")
    tol = config["tolerances"]["value_match"]
    if vm.rel_gap <= tol:  # verify's value-match test and wording
        return EXIT_OK
    print(f"  tolerance failure: value-match gap {vm.rel_gap:.3e} > {tol:.1e}")
    return EXIT_TOLERANCE


def cmd_verify(args) -> int:
    config = _load_config(args)
    out = _output_dir(args)
    report = verify_scenario(config, seed=args.seed)
    _write_json(out / "report.json", report.to_dict())
    status = "PASS" if report.passed else "FAIL"
    print(f"{report.model}: {status} (residual max {report.residual_max:.2e}, "
          f"value gap {report.value_match_gap:.2e}, suboptimal margin "
          f"{report.suboptimal_margin:.2e}, transversality slope "
          f"{report.transversality_slope:.3f})")
    for failure in report.failures:
        print(f"  tolerance failure: {failure}")
    return EXIT_OK if report.passed else EXIT_TOLERANCE


def cmd_oracle(args) -> int:
    config = _load_config(args)
    out = _output_dir(args)
    bracket, analytic = oracle_scenario(config)
    slack = config["tolerances"]["oracle_slack"]
    contained = bracket.contains(analytic, slack)
    _write_json(out / "oracle.json", {
        "model": config["model"],
        "bracket_lo": bracket.lo,
        "bracket_hi": bracket.hi,
        "truncated_value": bracket.lo,
        "duality_gap": bracket.gap,
        "tail_bound": bracket.tail_bound,
        "analytic_value": analytic,
        "slack": slack,
        "contained": contained,
        "evaluations": bracket.evaluations,
        "passes": bracket.passes,
    })
    print(f"{config['model']}: analytic {analytic:.6g} vs bracket "
          f"[{bracket.lo:.6g}, {bracket.hi:.6g}] "
          f"({'contained' if contained else 'OUTSIDE'})")
    return EXIT_OK if contained else EXIT_TOLERANCE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hjbkit",
        description="Closed-form optimal control models: simulation and "
                    "numerical verification.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, extra in (
            ("run", cmd_run, "simulate the closed loop and write outputs"),
            ("verify", cmd_verify, "run the verification suite"),
            ("oracle", cmd_oracle, "run the coarse DP value bracket")):
        p = sub.add_parser(name, help=extra)
        p.add_argument("--config", help="scenario configuration (JSON)")
        p.add_argument("--model", choices=MODELS,
                       help="use the named model's default scenario")
        p.add_argument("--out", default=".", help="output directory")
        if name != "oracle":
            p.add_argument("--refine", type=int, default=0,
                           help="double the resolution (and halve dt) k times")
        if name == "verify":
            p.add_argument("--seed", type=int, default=0,
                           help="seed for random test-state sampling")
        p.set_defaults(fn=fn)
    return parser


def _check_flags(args) -> None:
    """Integer flags below their least meaningful value are configuration
    errors, not silent no-ops or numpy tracebacks."""
    for flag in ("seed", "refine"):
        value = vars(args).get(flag, 0)  # 0 where the command lacks it
        if value < 0:
            raise ConfigError(f"--{flag} must be an integer >= 0, got {value}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_flags(args)
        return args.fn(args)
    except (ConfigError, AssumptionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION
    except DomainExitError as exc:
        print(f"domain exit: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except NumericsError as exc:  # a failed numerical self-check
        print(f"numerics failure: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE


if __name__ == "__main__":
    sys.exit(main())
