"""``tools/seeded_outputs.py`` runs the 17 seeded commands that a "same
bits" comparison diffs, each into its own directory, and fails when any
of them does."""

import importlib.util
from pathlib import Path

import pytest

from hjbkit.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location(
    "seeded_outputs", ROOT / "tools" / "seeded_outputs.py")
seeded_outputs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(seeded_outputs)


def test_the_seventeen_seeded_commands():
    commands = dict(seeded_outputs.commands())
    assert len(commands) == 17
    assert sorted(commands) == sorted(
        [f"run-{m}" for m in seeded_outputs.MODELS]
        + [f"verify-{m}-seed{s}" for m in seeded_outputs.MODELS
           for s in (0, 3)]
        + ["oracle-vintage-dde", "oracle-time-to-build"])
    for name, argv in commands.items():
        args = build_parser().parse_args([*argv, "--out", name])
        assert name == "-".join(
            [args.command, args.model]
            + ([f"seed{args.seed}"] if args.command == "verify" else []))


@pytest.mark.parametrize("codes, status", [({}, 0),
                                           ({"verify-pollution-seed3": 3}, 1)])
def test_the_script_fails_when_a_command_does(tmp_path, monkeypatch, capsys,
                                              codes, status):
    calls = []

    def fake_main(argv):
        calls.append(argv)
        return codes.get(Path(argv[-1]).name, 0)

    monkeypatch.setattr(seeded_outputs, "main", fake_main)
    assert seeded_outputs.run_all(tmp_path) == status
    names = dict(seeded_outputs.commands())
    assert calls == [[*argv, "--out", str(tmp_path / name)]
                     for name, argv in names.items()]
    printed = capsys.readouterr().out.splitlines()
    assert printed == [f"{name}: exit {codes.get(name, 0)}" for name in names]
