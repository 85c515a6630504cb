"""Configuration parsing, round trips, and the command-line interface."""

import pytest

from frontlab import presets, solver
from frontlab.cli import main
from frontlab.config import config_to_text, parse_config
from frontlab.errors import ConfigError
from frontlab.initial_data import Family, InitialDataSpec, algebraic
from frontlab.presets import PRESETS
from frontlab.reaction import ReactionFamily, ReactionParams
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
    reaction=ReactionFamily(ReactionParams(r=50.0, alpha=0.4)),
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
            ReactionFamily(ReactionParams(alpha=0.4)),
            InitialDataSpec(Family.ALGEBRAIC, 1.0, scale=100.0),
            dx=0.05, dt=0.01, t_end=8.0)
        assert parse_config(text) == expected

    def test_algebraic_scale_defaults_to_library_data(self):
        # no scale key: the same data as initial_data.algebraic(beta)
        text = MINIMAL.replace("scale = 100.0\n", "").replace("beta = 1.0", "beta = 0.7")
        assert parse_config(text).data == algebraic(0.7)

    @pytest.mark.parametrize("section, key", [
        ("time", "theta"), ("measurement", "trace_stride"),
        ("reaction", "k"), ("reaction", "s0"), ("grid", "cell_cap"),
        ("reaction", "family")])
    def test_removed_key_rejected(self, section, key, tmp_path, capsys):
        # a section may open twice, so the key can follow the whole document
        text = MINIMAL + f"\n[{section}]\n{key} = 1\n"
        line = len(text.splitlines())
        with pytest.raises(ConfigError) as exc_info:
            parse_config(text)
        message = f"unknown key {key!r} in [{section}] at line {line}"
        assert str(exc_info.value) == message
        path = tmp_path / "removed.cfg"
        path.write_text(text)
        assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_negative_beta_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL.replace("beta = 1.0", "beta = -1"))

    def test_unknown_key_named_with_line(self):
        text = MINIMAL.replace("dx = 0.05", "dx = 0.05\nwibble = 3")
        line = text.splitlines().index("wibble = 3") + 1
        with pytest.raises(ConfigError) as exc_info:
            parse_config(text)
        assert str(exc_info.value) == f"unknown key 'wibble' in [grid] at line {line}"

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL + "\n[nonsense]\nkey = 1\n")

    def test_missing_required_key_named(self):
        with pytest.raises(ConfigError) as exc_info:
            parse_config(MINIMAL.replace("dt = 0.01", ""))
        assert str(exc_info.value) == "missing required key 'dt' in [time]"

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL.replace("dx = 0.05", "dx = 0.05\ndx = 0.1"))

    def test_bad_value_reports_line(self):
        text = MINIMAL.replace("dt = 0.01", "dt = fast")
        line = text.splitlines().index("dt = fast") + 1
        with pytest.raises(ConfigError) as exc_info:
            parse_config(text)
        assert str(exc_info.value).startswith(f"bad value for 'dt' at line {line}: ")

    @pytest.mark.parametrize("old, new, message", [
        ("t_end = 8.0", "t_end = inf", "t_end must be finite, got inf (t_end at line 15)"),
        ("dx = 0.05", "dx = 0", "dx must be > 0, got 0.0 (dx at line 11)"),
        ("t_end = 8.0", "t_end = 8.0\nsnapshot_times = 4, 2",
         "snapshot_times must be increasing (snapshot_times at line 16)"),
        ("t_end = 8.0", "t_end = 8.0\n[measurement]\nlambdas = 0.5, 1.0",
         "lambdas must lie in (0, 1), got (0.5, 1.0) (lambdas at line 17)"),
        ("t_end = 8.0", "t_end = 8.0\n[measurement]\nlambdas = 0.5, 0.1, 0.5",
         "level 0.5 is given twice in lambdas (lambdas at line 17)"),
    ])
    def test_invalid_value_names_its_line(self, old, new, message):
        # the lines of MINIMAL: dx 11, dt 14, t_end 15
        with pytest.raises(ConfigError) as exc_info:
            parse_config(MINIMAL.replace(old, new))
        assert str(exc_info.value) == f"invalid configuration: {message}"

    def test_comments_and_blank_lines(self):
        text = "# leading comment\n" + MINIMAL.replace(
            "dx = 0.05", "dx = 0.05  # spacing")
        assert parse_config(text).dx == 0.05

    def test_static_growth(self):
        text = MINIMAL.replace("dx = 0.05", "dx = 0.05\ngrowth = static")
        assert parse_config(text).growth_margin is None

    def test_static_growth_rejects_margin(self):
        # a static domain has no margin to set; the key used to vanish silently
        text = MINIMAL.replace("dx = 0.05", "dx = 0.05\ngrowth = static\ngrowth_margin = 0.3")
        line = text.splitlines().index("growth_margin = 0.3") + 1
        with pytest.raises(ConfigError,
                           match=f"growth_margin at line {line} conflicts with growth = static"):
            parse_config(text)

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

    @pytest.mark.parametrize("alpha, beta", [("inf", "0.5"), ("0.4", "inf")])
    def test_classify_infinite_exponent_exit_two(self, alpha, beta, capsys):
        # alpha = inf gave threshold 0 and "finite_speed" for every beta
        code = main(["classify", "--alpha", alpha, "--family", "sub_exponential",
                     "--beta", beta])
        assert code == 2
        assert "must be finite" in capsys.readouterr().err

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

    @pytest.mark.parametrize("command", ["simulate", "preset"])
    def test_uncreatable_out_dir_exit_two(self, command, tmp_path, capsys):
        # --out below a regular file: os.makedirs raises NotADirectoryError
        config_path = tmp_path / "tiny.cfg"
        config_path.write_text(MINIMAL)
        target = str(config_path) if command == "simulate" else "fig2"
        code = main([command, target, "--out", str(config_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_simulate_unreadable_config_exit_two(self, tmp_path, capsys):
        code = main(["simulate", str(tmp_path / "missing.cfg"),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "missing.cfg" in err
        assert not (tmp_path / "out").exists()

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

    def test_simulate_truncated_exit_three(self, tmp_path, capsys, monkeypatch):
        # a 401-cell domain whose first doubling the cell cap refuses
        monkeypatch.setattr(solver, "CELL_CAP", 500)
        config_path = tmp_path / "capped.cfg"
        config_path.write_text(MINIMAL.replace(
            "dx = 0.05", "dx = 0.05\nx_left = -10.0\nx_right = 10.0"))
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
            reaction=ReactionFamily(ReactionParams(alpha=0.4)),
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

    @pytest.mark.parametrize("field, value", [
        ("t_end", "inf"), ("t_end", "nan"), ("x_right", "inf"), ("x_left", "-inf"),
        ("snapshot_times", "inf"), ("dt", "inf"), ("dx", "inf"), ("floor", "nan"),
        ("floor", "inf")])
    def test_simulate_non_finite_value_exit_two(self, field, value, tmp_path,
                                                monkeypatch, capsys):
        # unchecked, an infinite time overflows the step count, dt = inf
        # makes a run of 0 steps and floor = inf zeroes every density
        steps = []
        monkeypatch.setattr(solver, "imex_step", lambda *args: steps.append(args))
        section = "time" if field in ("t_end", "dt", "snapshot_times") else "grid"
        lines = [line for line in MINIMAL.splitlines() if line.split(" = ")[0] != field]
        lines.insert(lines.index(f"[{section}]") + 1, f"{field} = {value}")
        path = tmp_path / "non_finite.cfg"
        path.write_text("\n".join(lines) + "\n")
        assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"{field} must be finite" in capsys.readouterr().err
        assert steps == []

    @pytest.mark.parametrize("section, key", [
        ("reaction", "r"), ("reaction", "alpha"), ("initial_data", "beta"),
        ("initial_data", "mu"), ("initial_data", "scale")])
    def test_simulate_infinite_model_parameter_exit_two(self, section, key, tmp_path,
                                                        monkeypatch, capsys):
        # unchecked, r = inf ends in a NaN state (exit 3), and alpha, beta or
        # mu = inf run to exit 0 with no reaction or degenerate data
        steps = []
        monkeypatch.setattr(solver, "imex_step", lambda *args: steps.append(args))
        text = MINIMAL
        if key == "mu":
            text = text.replace("algebraic", "sub_exponential").replace("scale = 100.0\n", "")
        lines = [line for line in text.splitlines() if line.split(" = ")[0] != key]
        lines.insert(lines.index(f"[{section}]") + 1, f"{key} = inf")
        path = tmp_path / "infinite.cfg"
        path.write_text("\n".join(lines) + "\n")
        assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f" {key} " in err and "finite" in err
        assert steps == []

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
        assert ("t_end = 8.005 is not a whole number of steps of dt = 0.01 "
                "(dt at line 14) (t_end at line 15)") in capsys.readouterr().err
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

    def test_simulate_empty_levels_exit_two_before_output(self, tmp_path, capsys):
        # `lambdas =` parses to (): the run used to die in min() with no key
        # named, after making an empty output directory
        path = tmp_path / "no_levels.cfg"
        path.write_text(MINIMAL + "\n[measurement]\nlambdas =\n")
        out_dir = tmp_path / "out"
        assert main(["simulate", str(path), "--out", str(out_dir)]) == 2
        assert "lambdas must name at least one level" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("bounds, message", [
        ("x_left = 5.0\nx_right = 5.0",
         "x_right must exceed x_left, got x_left = 5.0 and x_right = 5.0 "
         "(x_left at line 12) (x_right at line 13)"),
        # the unset x_right resolves to clamp + 20 = 20
        ("x_left = 25.0", "x_right must exceed x_left, got x_left = 25.0 "
         "and x_right = 20.0 (x_left at line 12)")],
        ids=["equal", "left_past_default_right"])
    def test_simulate_unordered_bounds_exit_two_before_output(self, bounds, message,
                                                              tmp_path, capsys):
        # accepted before, the run failed after making the output directory,
        # with no line named
        path = tmp_path / "bounds.cfg"
        path.write_text(MINIMAL.replace("dx = 0.05", f"dx = 0.05\n{bounds}"))
        out_dir = tmp_path / "out"
        assert main(["simulate", str(path), "--out", str(out_dir)]) == 2
        assert capsys.readouterr().err == f"error: invalid configuration: {message}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("key, data", [
        ("scale", "family = sub_exponential\nbeta = 1.0\nmu = 5.0\nscale = -3\n"),
        ("mu", "family = algebraic\nbeta = 1.0\nscale = 100.0\nmu = inf\n")],
        ids=["scale_beside_sub_exponential", "mu_beside_algebraic"])
    def test_simulate_other_familys_parameter_exit_two(self, key, data, tmp_path, capsys):
        # the value used to be kept unused, and config_to_text wrote it back
        text = MINIMAL.replace("family = algebraic\nbeta = 1.0\nscale = 100.0\n", data)
        path = tmp_path / "other_family.cfg"
        path.write_text(text)
        out_dir = tmp_path / "out"
        assert main(["simulate", str(path), "--out", str(out_dir)]) == 2
        assert f"{key} is a parameter of" in capsys.readouterr().err
        assert not out_dir.exists()

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
