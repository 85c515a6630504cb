"""Configuration parsing, round trips, and the command-line interface."""

from dataclasses import replace

import pytest

from frontlab import presets, solver
from frontlab.cli import main
from frontlab.config import config_to_text, parse_config
from frontlab.errors import ConfigError
from frontlab.initial_data import Family, InitialDataSpec, algebraic
from frontlab.presets import PRESETS
from frontlab.reaction import ReactionFamily, ReactionKind, ReactionParams
from frontlab.solver import SimulationConfig

MINIMAL = """
[reaction]
alpha = 0.4

[initial_data]
family = algebraic
beta = 1.0
scale = 100.0

[grid]
dx = 0.05

[time]
dt = 0.01
t_end = 8.0
"""

# r = 50 at dt = 0.1: the explicit reaction step overshoots [0, 1] (1623
# clamp events by t = 1) while the front stays clear of the static edge
CLAMPING = SimulationConfig(
    reaction=ReactionFamily(ReactionKind.WEAKLY_MONOSTABLE,
                            ReactionParams(r=50.0, alpha=0.4)),
    data=InitialDataSpec(Family.SUB_EXPONENTIAL, 1.0, mu=5.0),
    dx=0.05, dt=0.1, t_end=1.0, x_left=-10.0, x_right=60.0, growth_margin=None)


class TestParseConfig:
    def test_minimal_with_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.reaction.params.alpha == 0.4
        assert cfg.reaction.params.r == 1.0
        assert cfg.data.family is Family.ALGEBRAIC
        assert cfg.data.scale == 100.0
        assert cfg.floor == 1e-300
        assert cfg.growth_margin == 0.1
        assert cfg.lambdas == (0.5,)
        assert cfg.snapshot_times == ()

    def test_required_keys_only_take_dataclass_defaults(self):
        text = MINIMAL.replace("scale = 100.0\n", "")
        expected = SimulationConfig(
            ReactionFamily(ReactionKind.WEAKLY_MONOSTABLE, ReactionParams(alpha=0.4)),
            InitialDataSpec(Family.ALGEBRAIC, 1.0, scale=100.0),
            dx=0.05, dt=0.01, t_end=8.0)
        assert parse_config(text) == expected

    def test_algebraic_scale_defaults_to_library_data(self):
        # no scale key: the same data as initial_data.algebraic(beta)
        text = MINIMAL.replace("scale = 100.0\n", "").replace("beta = 1.0", "beta = 0.7")
        assert parse_config(text).data == algebraic(0.7)

    @pytest.mark.parametrize("section, key", [
        ("time", "theta"), ("measurement", "trace_stride"),
        ("reaction", "k"), ("reaction", "s0")])
    def test_removed_key_rejected(self, section, key, tmp_path, capsys):
        # a section may open twice, so the key can follow the whole document
        text = MINIMAL + f"\n[{section}]\n{key} = 1\n"
        line = len(text.splitlines())
        with pytest.raises(ConfigError) as exc_info:
            parse_config(text)
        assert (exc_info.value.key, exc_info.value.line) == (key, line)
        path = tmp_path / "removed.cfg"
        path.write_text(text)
        assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"unknown key {key!r} in [{section}] at line {line}" in capsys.readouterr().err

    def test_negative_beta_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL.replace("beta = 1.0", "beta = -1"))

    def test_unknown_key_named_with_line(self):
        text = MINIMAL.replace("dx = 0.05", "dx = 0.05\nwibble = 3")
        with pytest.raises(ConfigError) as exc_info:
            parse_config(text)
        assert exc_info.value.key == "wibble"
        assert exc_info.value.line is not None

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL + "\n[nonsense]\nkey = 1\n")

    def test_missing_required_key_named(self):
        with pytest.raises(ConfigError) as exc_info:
            parse_config(MINIMAL.replace("dt = 0.01", ""))
        assert exc_info.value.key == "dt"

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL.replace("dx = 0.05", "dx = 0.05\ndx = 0.1"))

    def test_bad_value_reports_line(self):
        with pytest.raises(ConfigError) as exc_info:
            parse_config(MINIMAL.replace("dt = 0.01", "dt = fast"))
        assert exc_info.value.line is not None

    def test_comments_and_blank_lines(self):
        text = "# leading comment\n" + MINIMAL.replace(
            "dx = 0.05", "dx = 0.05  # spacing")
        assert parse_config(text).dx == 0.05

    def test_static_growth(self):
        text = MINIMAL.replace("dx = 0.05", "dx = 0.05\ngrowth = static")
        assert parse_config(text).growth_margin is None

    def test_snapshot_list(self):
        text = MINIMAL.replace("t_end = 8.0", "t_end = 8.0\nsnapshot_times = 2, 4, 6, 8")
        assert parse_config(text).snapshot_times == (2.0, 4.0, 6.0, 8.0)

    def test_round_trip_lossless(self):
        cfg = parse_config(MINIMAL)
        assert parse_config(config_to_text(cfg)) == cfg

    @pytest.mark.parametrize("name", [n for n, p in PRESETS.items() if p.config])
    def test_every_preset_round_trips(self, name):
        cfg = PRESETS[name].config
        assert parse_config(config_to_text(cfg)) == cfg


class TestCli:
    def test_classify_exit_and_output(self, capsys):
        code = main(["classify", "--alpha", "0.4", "--family", "sub_exponential",
                     "--beta", "0.2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "power_acceleration" in out

    def test_classify_finite_speed(self, capsys):
        code = main(["classify", "--alpha", "0.2", "--family", "sub_exponential",
                     "--beta", "1.0"])
        assert code == 0
        assert "finite_speed" in capsys.readouterr().out

    def test_classify_bad_family_exit_two(self, capsys):
        code = main(["classify", "--alpha", "0.4", "--family", "bogus",
                     "--beta", "1.0"])
        assert code == 2

    def test_verify_hypothesis_passes(self, capsys):
        code = main(["verify", "hypothesis"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("PASS") == 3

    def test_verify_unknown_subject(self, capsys):
        assert main(["verify", "nonsense"]) == 2

    def test_unknown_preset_lists_available(self, capsys):
        code = main(["preset", "fig99"])
        err = capsys.readouterr().err
        assert code == 2
        assert "fig9" in err

    def test_preset_subcommand_writes_bundle(self, tmp_path, capsys):
        code = main(["preset", "fig2", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "fig2" / "classification.csv").exists()

    def test_simulate_writes_artifacts(self, tmp_path, capsys):
        config_path = tmp_path / "tiny.cfg"
        config_path.write_text(MINIMAL.replace("t_end = 8.0",
                                               "t_end = 1.0\nsnapshot_times = 0.5, 1.0"))
        out_dir = tmp_path / "out"
        code = main(["simulate", str(config_path), "--out", str(out_dir)])
        assert code == 0
        assert (out_dir / "snapshots.csv").exists()
        assert (out_dir / "trace_lambda_0.5.csv").exists()
        assert (out_dir / "fits.txt").exists()
        assert (out_dir / "plot.gp").exists()
        header = (out_dir / "snapshots.csv").read_text().splitlines()[0]
        assert header == "t,x,u"

    def test_simulate_truncated_exit_three(self, tmp_path, capsys):
        # a 401-cell domain whose first doubling the cell cap refuses
        config_path = tmp_path / "capped.cfg"
        config_path.write_text(MINIMAL.replace(
            "dx = 0.05", "dx = 0.05\nx_left = -10.0\nx_right = 10.0\ncell_cap = 500"))
        out_dir = tmp_path / "out"
        code = main(["simulate", str(config_path), "--out", str(out_dir)])
        assert code == 3
        assert "TRUNCATED" in capsys.readouterr().out
        assert (out_dir / "snapshots.csv").exists()
        assert (out_dir / "trace_lambda_0.5.csv").exists()
        assert (out_dir / "fits.txt").exists()

    def test_simulate_static_arrest_exit_three(self, tmp_path, capsys):
        # a static [-2, 3] is too narrow for the front before t = 2
        config_path = tmp_path / "static.cfg"
        config_path.write_text(MINIMAL.replace(
            "dx = 0.05", "dx = 0.05\nx_left = -2.0\nx_right = 3.0\ngrowth = static")
            .replace("t_end = 8.0", "t_end = 2.0"))
        out_dir = tmp_path / "out"
        code = main(["simulate", str(config_path), "--out", str(out_dir)])
        assert code == 3
        assert "TRUNCATED" in capsys.readouterr().out
        assert (out_dir / "snapshots.csv").exists()

    def test_simulate_truncated_at_start_exit_three(self, tmp_path, capsys):
        # the data's front already lies in the right 10% of a static
        # [-2, 0.05]: nothing is recorded, and the empty trace is not fitted
        config_path = tmp_path / "start.cfg"
        config_path.write_text(MINIMAL.replace(
            "dx = 0.05", "dx = 0.05\nx_left = -2.0\nx_right = 0.05\ngrowth = static"))
        out_dir = tmp_path / "out"
        assert main(["simulate", str(config_path), "--out", str(out_dir)]) == 3
        out = capsys.readouterr().out
        assert "lambda=0.5: fit skipped" in out
        assert "0 steps" in out and "TRUNCATED" in out
        assert (out_dir / "trace_lambda_0.5.csv").read_text() == "t,x_lambda\n"

    def test_preset_truncated_panel_exit_three(self, tmp_path, capsys, monkeypatch):
        # a figure whose one panel is a static [-2, 3], too narrow for its
        # front before t = 2: every bundle is written, and the exit is 3
        config = SimulationConfig(
            reaction=ReactionFamily(ReactionKind.WEAKLY_MONOSTABLE, ReactionParams(alpha=0.4)),
            data=InitialDataSpec(Family.SUB_EXPONENTIAL, 1.0, mu=5.0),
            dx=0.05, dt=0.01, t_end=2.0, x_left=-2.0, x_right=3.0, growth_margin=None)
        monkeypatch.setitem(presets.PRESETS, "narrowa",
                            presets.Preset("narrowa", "narrow", "too narrow", config=config))
        monkeypatch.setitem(presets.PRESETS, "narrow",
                            presets.Preset("narrow", "narrow", "sweep", members=("narrowa",)))
        code = main(["preset", "narrow", "--out", str(tmp_path)])
        assert code == 3
        assert "TRUNCATED: narrowa" in capsys.readouterr().out
        assert (tmp_path / "narrow" / "narrowa" / "snapshots.csv").exists()

    def test_preset_truncated_fig9_run_exit_three(self, tmp_path, capsys, monkeypatch):
        narrow = {label: replace(cfg, t_end=2.0, snapshot_times=(), x_left=-2.0,
                                 x_right=3.0, growth_margin=None)
                  for label, cfg in presets.FIG9_RUNS.items()}
        monkeypatch.setattr(presets, "FIG9_RUNS", narrow)
        assert main(["preset", "fig9", "--out", str(tmp_path)]) == 3
        out = capsys.readouterr().out
        assert "TRUNCATED: " + ", ".join(f"fig9:{label}" for label in narrow) in out

    def test_simulate_clamped_exit_three(self, tmp_path, capsys):
        config_path = tmp_path / "clamping.cfg"
        config_path.write_text(config_to_text(CLAMPING))
        code = main(["simulate", str(config_path), "--out", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert code == 3
        assert "clamp events" in out and out.rstrip().endswith(", CLAMPED")
        assert "TRUNCATED" not in out

    def test_preset_clamped_panel_exit_three(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(presets.PRESETS, "clampa",
                            presets.Preset("clampa", "clamp", "clamps", config=CLAMPING))
        monkeypatch.setitem(presets.PRESETS, "clamp",
                            presets.Preset("clamp", "clamp", "sweep", members=("clampa",)))
        assert main(["preset", "clamp", "--out", str(tmp_path)]) == 3
        out = capsys.readouterr().out
        assert "CLAMPED: clampa" in out and "TRUNCATED" not in out

    def test_preset_clamped_fig9_run_exit_three(self, tmp_path, capsys, monkeypatch):
        clamping = {label: replace(CLAMPING, data=cfg.data)
                    for label, cfg in presets.FIG9_RUNS.items()}
        monkeypatch.setattr(presets, "FIG9_RUNS", clamping)
        assert main(["preset", "fig9", "--out", str(tmp_path)]) == 3
        out = capsys.readouterr().out
        assert "CLAMPED: " + ", ".join(f"fig9:{label}" for label in clamping) in out

    def test_simulate_missing_config_exit_two(self, tmp_path):
        assert main(["simulate", str(tmp_path / "absent.cfg")]) == 2

    def test_simulate_bad_config_exit_two(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(MINIMAL.replace("beta = 1.0", "beta = -1"))
        assert main(["simulate", str(path)]) == 2

    def test_simulate_off_grid_t_end_exit_two_before_stepping(self, tmp_path,
                                                               monkeypatch, capsys):
        steps = []
        monkeypatch.setattr(solver, "imex_step", lambda *args: steps.append(args))
        path = tmp_path / "off_grid.cfg"
        path.write_text(MINIMAL.replace("t_end = 8.0", "t_end = 8.005"))
        assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "time 8.005 is not a whole number of steps of dt = 0.01" in capsys.readouterr().err
        assert steps == []

    def test_simulate_repeated_level_exit_two_before_stepping(self, tmp_path,
                                                               monkeypatch, capsys):
        steps = []
        monkeypatch.setattr(solver, "imex_step", lambda *args: steps.append(args))
        path = tmp_path / "twice.cfg"
        path.write_text(MINIMAL + "\n[measurement]\nlambdas = 0.5, 0.5\n")
        assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "level 0.5 is given twice" in capsys.readouterr().err
        assert steps == []

    def test_deterministic_outputs(self, tmp_path):
        config_path = tmp_path / "tiny.cfg"
        config_path.write_text(MINIMAL.replace("t_end = 8.0",
                                               "t_end = 0.5\nsnapshot_times = 0.5"))
        outs = []
        for sub in ("a", "b"):
            out_dir = tmp_path / sub
            assert main(["simulate", str(config_path), "--out", str(out_dir)]) == 0
            outs.append((out_dir / "snapshots.csv").read_bytes()
                        + (out_dir / "trace_lambda_0.5.csv").read_bytes())
        assert outs[0] == outs[1]
