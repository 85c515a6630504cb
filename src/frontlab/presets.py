"""Named experiment presets and the simulation bundle they share with
``frontlab simulate``.

``run_bundle`` runs one configuration and writes its bundle: snapshots,
level traces, rate fits and a gnuplot script.  Simulation presets
(fig3a..fig5d sub-exponential sweeps, fig6a..fig8c algebraic sweeps) expand
to full ``SimulationConfig`` objects and go through it; figure-level names
(fig3..fig8) run all their panels.  fig1 tabulates the three reaction
families near zero, fig2 prints the regime classification table, and fig9
reproduces the three-trace level-set comparison with its literature-fit
overlay curves.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import reporting
from .envelope import Regime, classify_regime
from .initial_data import InitialDataSpec, algebraic, sub_exponential
from .measurement import select_model
from .reaction import (ReactionParams, compare_families_near_zero,
                       weakly_monostable)
from .errors import AnalysisError, InputError
from .solver import Diagnostics, RunResult, SimulationConfig, run

DX = 0.05
DT = 0.01
LAMBDA = 0.5

# overlay curves quoted from the published level-set comparison
FIG9_CURVES = {
    "overlay_linear": lambda t: 1.9 * t - 4.0,
    "overlay_power": lambda t: 0.0013 * t ** (1.0 / 0.28) + 40.0,
    "overlay_exp_power": lambda t: 0.0236 * np.exp((1.4 * t) ** (1.0 / 1.4)) + 10.0,
}


@dataclass(frozen=True)
class Preset:
    name: str
    figure: str
    description: str
    config: SimulationConfig | None = None
    members: tuple[str, ...] = ()


def _sim_config(alpha: float, data: InitialDataSpec, t_end: float,
                snapshot_times: tuple[float, ...]) -> SimulationConfig:
    return SimulationConfig(
        reaction=weakly_monostable(alpha=alpha),
        data=data,
        dx=DX,
        dt=DT,
        t_end=t_end,
        snapshot_times=snapshot_times,
        lambdas=(LAMBDA,),
    )


def _subexp_panel(alpha: float, beta: float) -> SimulationConfig:
    data = sub_exponential(mu=5.0, beta=beta)
    if classify_regime(alpha, data).regime is Regime.FINITE_SPEED:
        return _sim_config(alpha, data, t_end=30.0,
                           snapshot_times=(7.5, 15.0, 22.5, 30.0))
    return _sim_config(alpha, data, t_end=10.0, snapshot_times=(2.5, 5.0, 7.5, 10.0))


def _algebraic_panel(alpha: float, beta: float) -> SimulationConfig:
    return _sim_config(alpha, algebraic(beta=beta, scale=100.0),
                       t_end=8.0, snapshot_times=(2.0, 4.0, 6.0, 8.0))


def _build_presets() -> dict[str, Preset]:
    presets: dict[str, Preset] = {}
    presets["fig1"] = Preset(
        "fig1", "fig1", "per-capita comparison of the three reaction families near zero")
    presets["fig2"] = Preset(
        "fig2", "fig2", "spreading-regime classification table over (alpha, beta)")

    subexp_alphas = {"fig3": 0.2, "fig4": 0.4, "fig5": 0.6}
    betas = (0.1, 0.2, 0.3, 1.0)
    for fig, alpha in subexp_alphas.items():
        members = []
        for panel, beta in zip("abcd", betas):
            name = f"{fig}{panel}"
            presets[name] = Preset(
                name, fig,
                f"sub-exponential tail, alpha={alpha}, beta={beta}",
                config=_subexp_panel(alpha, beta))
            members.append(name)
        presets[fig] = Preset(fig, fig,
                              f"all sub-exponential panels at alpha={alpha}",
                              members=tuple(members))

    alg_alphas = {"fig6": 0.2, "fig7": 0.4, "fig8": 0.6}
    for fig, alpha in alg_alphas.items():
        members = []
        for panel, beta in zip("abc", (1.0, 2.0, 3.0)):
            name = f"{fig}{panel}"
            presets[name] = Preset(
                name, fig,
                f"algebraic tail, alpha={alpha}, beta={beta}",
                config=_algebraic_panel(alpha, beta))
            members.append(name)
        presets[fig] = Preset(fig, fig,
                              f"all algebraic panels at alpha={alpha}",
                              members=tuple(members))

    presets["fig9"] = Preset(
        "fig9", "fig9",
        "level-set comparison: bounded / sub-exponential / algebraic tails at alpha=0.4")
    return presets


PRESETS = _build_presets()

# three runs behind fig9; keys double as trace labels.  Horizons reach past
# the traveling-front transient so the three rate laws actually separate.
FIG9_RUNS = {
    "subexp_bounded": _sim_config(0.4, sub_exponential(mu=5.0, beta=1.0),
                                  t_end=30.0, snapshot_times=(15.0, 30.0)),
    "subexp_light": _sim_config(0.4, sub_exponential(mu=5.0, beta=0.2),
                                t_end=30.0, snapshot_times=(15.0, 30.0)),
    "algebraic": _sim_config(0.4, algebraic(beta=1.0, scale=100.0),
                             t_end=20.0, snapshot_times=(10.0, 20.0)),
}


def available_presets() -> list[str]:
    return sorted(PRESETS)


def get_preset(name: str) -> Preset:
    if name not in PRESETS:
        raise InputError(
            f"unknown preset {name!r}; available: {', '.join(available_presets())}")
    return PRESETS[name]


def _fit_and_log(trace, alpha: float, r: float, predicted: Regime, prefix: str,
                 log) -> tuple | None:
    """Select the rate model of ``trace`` and log it against ``predicted``.

    Returns (fit, measured regime name) for fits.txt, or None, logged as
    skipped, when no rate model fits the trace.
    """
    try:
        fit, regime = select_model(trace, alpha, r)
    except (AnalysisError, InputError) as exc:
        log(f"{prefix} fit skipped ({exc})")
        return None
    log(f"{prefix} fitted {fit.model} (headline {fit.exponent:.4g}), "
        f"measured {regime.value}, predicted {predicted.value}")
    return fit, regime.value


def run_bundle(config: SimulationConfig, out_dir: str, title: str,
               log=print) -> RunResult:
    """Run ``config`` and write its simulation bundle into ``out_dir``.

    The bundle is snapshots.csv, one trace CSV per level, fits.txt and a
    gnuplot plot.gp titled ``title``.  A trace that no rate model fits is
    logged as skipped and gets no block in fits.txt.
    """
    os.makedirs(out_dir, exist_ok=True)
    result = run(config)
    reporting.write_snapshots_csv(os.path.join(out_dir, "snapshots.csv"),
                                  result.snapshots)
    trace_files = reporting.write_traces(out_dir, result.traces)
    alpha, r = config.reaction.params.alpha, config.reaction.params.r
    predicted = classify_regime(alpha, config.data).regime
    entries = []
    for lam, trace in sorted(result.traces.items()):
        selected = _fit_and_log(trace, alpha, r, predicted, f"lambda={lam}:", log)
        if selected is not None:
            entries.append((f"lambda_{lam!r}", *selected))
    reporting.write_fit_report(os.path.join(out_dir, "fits.txt"), entries)
    with open(os.path.join(out_dir, "plot.gp"), "w", encoding="ascii") as fh:
        fh.write(reporting.snapshot_plot_script("snapshots.csv", title))
        fh.write(reporting.trace_plot_script(trace_files, title))
    return result


def _run_fig1(out_dir: str, log) -> None:
    params = ReactionParams(r=1.0, alpha=0.4)
    s = np.geomspace(1e-8, 0.5, 400)
    comp = compare_families_near_zero(params, s)
    reporting.write_table_csv(
        os.path.join(out_dir, "families.csv"),
        "s,percapita_kpp,percapita_weak,percapita_allee,f_kpp,f_weak,f_allee",
        comp.rows())
    with open(os.path.join(out_dir, "plot.gp"), "w", encoding="ascii") as fh:
        fh.write("\n".join([
            "set datafile separator ','",
            "set logscale x",
            "set xlabel 's'",
            "set ylabel 'f(s)/s'",
            "set term pngcairo size 900,600",
            "set output 'families.png'",
            "plot 'families.csv' using 1:2 with lines title 'kpp', \\",
            "     'families.csv' using 1:3 with lines title 'weakly monostable', \\",
            "     'families.csv' using 1:4 with lines title 'allee'",
            "",
        ]))
    log(f"fig1: per-capita ordering holds on {s.size} samples: {comp.ordering_ok}")


def _run_fig2(out_dir: str, log) -> None:
    alphas = (0.2, 0.4, 0.6)
    betas = (0.1, 0.2, 0.3, 5.0 / 8.0, 5.0 / 7.0, 5.0 / 6.0, 1.0)
    rows = []
    for alpha in alphas:
        for beta in betas:
            cls = classify_regime(alpha, sub_exponential(mu=5.0, beta=beta))
            exponent = cls.power_exponent if cls.power_exponent is not None else ""
            rows.append((alpha, beta, cls.regime.value, exponent,
                         cls.threshold_beta))
            log(f"fig2: alpha={alpha} beta={beta:.6g} -> {cls.regime.value}")
    reporting.write_table_csv(os.path.join(out_dir, "classification.csv"),
                              "alpha,beta,regime,power_exponent,threshold_beta", rows)


def _run_fig9(out_dir: str, log) -> list[tuple[str, Diagnostics]]:
    alpha, r = 0.4, 1.0
    trace_files = []
    entries = []
    runs = []
    for label, config in FIG9_RUNS.items():
        result = run(config)
        runs.append((f"fig9:{label}", result.diagnostics))
        trace = result.traces[LAMBDA]
        name = f"trace_{label}.csv"
        trace.to_csv(os.path.join(out_dir, name))
        trace_files.append(name)
        predicted = classify_regime(alpha, config.data).regime
        selected = _fit_and_log(trace, alpha, r, predicted, f"fig9: {label}", log)
        if selected is not None:
            entries.append((label, *selected))
    overlay_files = []
    for label, curve in FIG9_CURVES.items():
        # evaluate each overlay on the longest trace's time range
        t = np.linspace(0.5, 30.0, 296)
        name = f"{label}.csv"
        reporting.write_table_csv(os.path.join(out_dir, name), "t,x", zip(t, curve(t)))
        overlay_files.append(name)
    reporting.write_fit_report(os.path.join(out_dir, "fits.txt"), entries)
    with open(os.path.join(out_dir, "plot.gp"), "w", encoding="ascii") as fh:
        fh.write(reporting.trace_plot_script(
            trace_files, "level-set positions, three tail families",
            overlay_files=overlay_files))
    return runs


def run_preset(name: str, out_root: str = ".",
               log=print) -> tuple[str, list[tuple[str, Diagnostics]]]:
    """Execute a preset and write its artifact bundle under ``out_root/name/``.

    Returns the output directory and the (name, diagnostics) of every
    simulation it ran.  Figure-level sweep names run every panel.
    """
    preset = get_preset(name)
    out_dir = os.path.join(out_root, preset.name)
    os.makedirs(out_dir, exist_ok=True)
    runs = []
    if preset.members:
        for member in preset.members:
            runs += run_preset(member, out_root=out_dir, log=log)[1]
    elif preset.name == "fig1":
        _run_fig1(out_dir, log)
    elif preset.name == "fig2":
        _run_fig2(out_dir, log)
    elif preset.name == "fig9":
        runs = _run_fig9(out_dir, log)
    else:
        result = run_bundle(preset.config, out_dir, preset.description,
                            log=lambda msg: log(f"{preset.name}: {msg}"))
        runs.append((preset.name, result.diagnostics))
    return out_dir, runs
