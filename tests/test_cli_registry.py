"""The declarative CLI registry: every command registers and helps.

Satellite of the campaign-orchestrator PR: ``python -m repro`` is now
a registry of self-describing subcommands with shared option groups,
and this module is the ``--help``-coverage smoke test over all of
them — a command whose configure hook raises, or whose module forgot
to register, fails here before any user hits it.
"""

from __future__ import annotations

import pytest

from repro.cli import build_parser, command, main, registered_commands

#: Every subcommand the toolkit ships; presentation order.
EXPECTED_COMMANDS = (
    "campaign",
    "model-campaign",
    "figure",
    "anchors",
    "run-deck",
    "trace",
    "power",
    "scale",
    "checkpoint",
    "serve",
    "submit",
    "certify",
)


class TestRegistry:
    def test_all_commands_registered_in_order(self):
        assert tuple(registered_commands()) == EXPECTED_COMMANDS

    def test_duplicate_registration_rejected(self):
        registered_commands()  # ensure "trace" is loaded
        with pytest.raises(ValueError, match="duplicate CLI command"):
            command("trace", "imposter")(lambda args: 0)

    def test_every_command_has_a_help_line(self):
        for cmd in registered_commands().values():
            assert cmd.help and not cmd.help.endswith(".")


class TestHelpCoverage:
    def test_top_level_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for name in EXPECTED_COMMANDS:
            assert name in out

    @pytest.mark.parametrize("name", EXPECTED_COMMANDS)
    def test_command_help_exits_clean(self, name, capsys):
        """`python -m repro <cmd> --help` works for every command."""
        with pytest.raises(SystemExit) as excinfo:
            main([name, "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert f"python -m repro {name}" in out

    def test_no_command_is_an_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2


class TestSharedOptionGroups:
    """--precision/--backend/--workers are spelled once, used everywhere."""

    def _options_of(self, name: str) -> set[str]:
        parser = build_parser()
        sub = next(
            a for a in parser._actions
            if hasattr(a, "choices") and a.choices and name in a.choices
        )
        return {
            s for action in sub.choices[name]._actions
            for s in action.option_strings
        }

    @pytest.mark.parametrize("name", ("scale", "checkpoint", "submit", "certify"))
    def test_precision_and_workers_everywhere(self, name):
        options = self._options_of(name)
        assert "--precision" in options
        assert "--workers" in options

    @pytest.mark.parametrize("name", ("scale", "submit", "certify"))
    def test_backend_where_kernels_are_selectable(self, name):
        assert "--backend" in self._options_of(name)

    def test_precision_choices_are_canonical(self, capsys):
        with pytest.raises(SystemExit):
            main(["scale", "lj", "--precision", "quad"])
        assert "single" in capsys.readouterr().err


class TestCampaignCommand:
    def test_dry_run_prints_matrix_without_executing(self, tmp_path, capsys):
        spec = tmp_path / "c.toml"
        spec.write_text(
            '[campaign]\nname = "dry"\n'
            '[base]\nbenchmark = "lj"\nn_atoms = 150\nsteps = 5\n'
            "[sweep]\nworkers = [1, 2]\n"
        )
        assert main(["campaign", str(spec), "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "2 cells, 1 unique content addresses" in out
        assert "workers=1" in out and "workers=2" in out

    def test_invalid_spec_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "bad.toml"
        spec.write_text('[campaign]\nname = "x"\n[sweep]\nworkers = []\n')
        assert main(["campaign", str(spec)]) == 2
        assert "invalid campaign spec" in capsys.readouterr().out

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["campaign", str(tmp_path / "nope.toml")]) == 2

    def test_figure_dir_option_removed(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["campaign", str(tmp_path / "c.toml"), "--figure-dir", "x"])
        assert exc.value.code == 2
        assert "--figure-dir" in capsys.readouterr().err

    def test_legacy_import_path_still_works(self):
        from repro.__main__ import main as shim_main

        assert shim_main is main
