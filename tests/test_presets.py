"""Preset catalog coverage and the non-simulation preset bundles."""

from dataclasses import replace

import numpy as np
import pytest

from frontlab import presets
from frontlab.envelope import Regime, classify_regime
from frontlab.errors import InputError
from frontlab.initial_data import sub_exponential
from frontlab.presets import (FIG9_CURVES, FIG9_RUNS, PRESETS, _subexp_panel,
                              available_presets, get_preset, run_bundle,
                              run_preset)
from frontlab.reaction import weakly_monostable
from frontlab.solver import SimulationConfig


class TestCatalog:
    def test_every_figure_covered_once(self):
        """One figure-level preset per published figure (1 and 3..9; 2 is the
        classification table)."""
        figures = {}
        for preset in PRESETS.values():
            figures.setdefault(preset.figure, []).append(preset.name)
        assert sorted(figures) == [f"fig{i}" for i in range(1, 10)]
        for fig, names in figures.items():
            assert fig in names  # the figure-level preset carries its own id

    def test_panel_presets_exist(self):
        for name in ("fig3a", "fig3d", "fig4b", "fig5c", "fig6a", "fig7b", "fig8c"):
            preset = get_preset(name)
            assert preset.config is not None

    def test_sweep_presets_list_members(self):
        sweep = get_preset("fig3")
        assert sweep.members == ("fig3a", "fig3b", "fig3c", "fig3d")

    def test_panel_parameters(self):
        fig3a = get_preset("fig3a").config
        assert fig3a.reaction.params.alpha == 0.2
        assert fig3a.data.beta == 0.1
        fig7b = get_preset("fig7b").config
        assert fig7b.reaction.params.alpha == 0.4
        assert fig7b.data.beta == 2.0
        assert fig7b.data.scale == 100.0

    def test_unknown_preset_lists_catalog(self):
        with pytest.raises(InputError) as exc_info:
            get_preset("fig99")
        assert "fig9" in str(exc_info.value)

    def test_available_sorted(self):
        names = available_presets()
        assert names == sorted(names)

    @pytest.mark.parametrize("alpha", (0.2, 0.4, 0.6))
    def test_subexp_horizon_follows_classify_regime(self, alpha):
        """Finite-speed panels run to t = 30, accelerating ones to t = 10; the
        threshold beta = 1/(alpha+1) itself is finite speed."""
        threshold = 1.0 / (alpha + 1.0)
        for beta, t_end in ((threshold, 30.0), (np.nextafter(threshold, 0.0), 10.0)):
            regime = classify_regime(alpha, sub_exponential(mu=5.0, beta=beta)).regime
            assert (regime is Regime.FINITE_SPEED) == (t_end == 30.0)
            assert _subexp_panel(alpha, beta).t_end == t_end

    def test_fig9_runs_match_published_settings(self):
        assert set(FIG9_RUNS) == {"subexp_bounded", "subexp_light", "algebraic"}
        assert FIG9_RUNS["subexp_bounded"].t_end == 30.0
        assert FIG9_RUNS["algebraic"].data.scale == 100.0
        for cfg in FIG9_RUNS.values():
            assert cfg.reaction.params.alpha == 0.4
            assert cfg.lambdas == (0.5,)

    def test_fig9_overlay_forms(self):
        # quoted fitted curves: 1.9t-4.0, 0.0013 t**(1/0.28)+40, 0.0236 e**((1.4t)**(1/1.4))+10
        t = 10.0
        assert FIG9_CURVES["overlay_linear"](t) == pytest.approx(15.0)
        assert FIG9_CURVES["overlay_power"](t) == pytest.approx(
            0.0013 * 10.0 ** (1.0 / 0.28) + 40.0)
        assert FIG9_CURVES["overlay_exp_power"](t) == pytest.approx(
            0.0236 * np.exp(14.0 ** (1.0 / 1.4)) + 10.0)


class TestTablePresets:
    def test_fig1_bundle(self, tmp_path):
        out = run_preset("fig1", out_root=str(tmp_path), log=lambda *_: None)
        lines = (tmp_path / "fig1" / "families.csv").read_text().splitlines()
        assert lines[0] == "s,percapita_kpp,percapita_weak,percapita_allee,f_kpp,f_weak,f_allee"
        assert len(lines) == 401
        first = [float(v) for v in lines[1].split(",")]
        # near zero: KPP per-capita ~ r, the other two collapse
        assert first[1] > first[2] > first[3]
        assert (tmp_path / "fig1" / "plot.gp").exists()

    def test_fig2_bundle(self, tmp_path):
        run_preset("fig2", out_root=str(tmp_path), log=lambda *_: None)
        lines = (tmp_path / "fig2" / "classification.csv").read_text().splitlines()
        assert lines[0] == "alpha,beta,regime,power_exponent,threshold_beta"
        assert len(lines) == 1 + 3 * 7
        # threshold rows classify as finite speed at their own alpha
        rows = [line.split(",") for line in lines[1:]]
        for alpha, thr in (("0.2", 5.0 / 6.0), ("0.4", 5.0 / 7.0), ("0.6", 5.0 / 8.0)):
            matching = [r for r in rows
                        if r[0] == alpha and abs(float(r[1]) - thr) < 1e-12]
            assert matching and matching[0][2] == "finite_speed"


class TestRunBundle:
    def test_failed_fit_skipped_and_logged(self, tmp_path):
        # t_end = 0.1 at dt = 0.01 leaves 6 samples in the default window,
        # fewer than any rate model needs
        config = SimulationConfig(
            reaction=weakly_monostable(alpha=0.4),
            data=sub_exponential(mu=5.0, beta=1.0),
            dx=0.05, dt=0.01, t_end=0.1, x_left=-10.0, x_right=20.0,
            snapshot_times=(0.1,), lambdas=(0.5,))
        messages = []
        result = run_bundle(config, str(tmp_path), "short run", log=messages.append)
        trace = result.traces[0.5]
        assert trace.window(*trace.default_window()).times.size == 6
        assert len(messages) == 1 and "fit skipped" in messages[0]
        assert (tmp_path / "fits.txt").read_text() == ""
        for name in ("snapshots.csv", "trace_lambda_0.5.csv", "plot.gp"):
            assert (tmp_path / name).exists()

    def test_fig9_failed_fits_skipped_and_logged(self, tmp_path, monkeypatch):
        # t_end = 0.1 leaves too few samples for any rate model in every run
        short = {label: replace(cfg, t_end=0.1, snapshot_times=())
                 for label, cfg in FIG9_RUNS.items()}
        monkeypatch.setattr(presets, "FIG9_RUNS", short)
        messages = []
        run_preset("fig9", out_root=str(tmp_path), log=messages.append)
        assert messages == [f"fig9: {label} fit skipped (no rate model could be "
                            f"fitted to the trace)" for label in short]
        out = tmp_path / "fig9"
        assert (out / "fits.txt").read_text() == ""
        names = ([f"trace_{label}.csv" for label in short]
                 + [f"{label}.csv" for label in FIG9_CURVES] + ["plot.gp"])
        for name in names:
            assert (out / name).exists(), name
