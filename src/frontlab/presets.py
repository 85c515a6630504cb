"""Named experiment presets and the simulation bundle they share with
``frontlab simulate``.

``run_bundle`` runs one configuration and writes its bundle: snapshots,
level traces, rate fits and a gnuplot script.  Simulation presets
(fig3a..fig5d sub-exponential sweeps, fig6a..fig8c algebraic sweeps) expand
to full ``SimulationConfig`` objects and go through it; figure-level names
(fig3..fig9) run all their panels.  fig1 tabulates the weakly monostable
rate near zero beside the closed-form KPP and Allee rates, fig2 prints the
regime classification table, and fig9's three panels (fig9a..fig9c) get a
figure-level plot that overlays their level-set traces with the
literature-fit curves.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import reporting
from .envelope import Regime, classify_regime
from .initial_data import InitialDataSpec, algebraic, sub_exponential
from .measurement import select_model
from .reaction import eval_f, weakly_monostable
from .errors import InputError
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
        "fig1", "fig1",
        "per-capita weakly monostable rate near zero beside the KPP and Allee rates")
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

    # horizons reach past the traveling-front transient so the three rate
    # laws actually separate
    fig9_tails = (("bounded sub-exponential", sub_exponential(mu=5.0, beta=1.0), 30.0),
                  ("light sub-exponential", sub_exponential(mu=5.0, beta=0.2), 30.0),
                  ("algebraic", algebraic(beta=1.0, scale=100.0), 20.0))
    members = []
    for panel, (tail, data, t_end) in zip("abc", fig9_tails):
        name = f"fig9{panel}"
        presets[name] = Preset(
            name, "fig9", f"{tail} tail, alpha=0.4, beta={data.beta}",
            config=_sim_config(0.4, data, t_end, snapshot_times=(t_end / 2, t_end)))
        members.append(name)
    presets["fig9"] = Preset(
        "fig9", "fig9",
        "level-set comparison: bounded / sub-exponential / algebraic tails at alpha=0.4",
        members=tuple(members))
    return presets


PRESETS = _build_presets()

def available_presets() -> list[str]:
    return sorted(PRESETS)


def get_preset(name: str) -> Preset:
    if name not in PRESETS:
        raise InputError(
            f"unknown preset {name!r}; available: {', '.join(available_presets())}")
    return PRESETS[name]


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
        try:
            fit, regime = select_model(trace, alpha, r)
        except InputError as exc:
            log(f"lambda={lam}: fit skipped ({exc})")
            continue
        log(f"lambda={lam}: fitted {fit.model} (headline {fit.exponent:.4g}), "
            f"measured {regime.value}, predicted {predicted.value}")
        entries.append((f"lambda_{lam!r}", fit, regime.value))
    reporting.write_fit_report(os.path.join(out_dir, "fits.txt"), entries)
    with open(os.path.join(out_dir, "plot.gp"), "w", encoding="ascii") as fh:
        fh.write(reporting.snapshot_plot_script("snapshots.csv", title))
        fh.write(reporting.trace_plot_script(trace_files, title))
    return result


def _run_fig1(out_dir: str, log) -> None:
    r, alpha = 1.0, 0.4
    s = np.geomspace(1e-8, 0.5, 400)
    # KPP and Allee in closed form; only the weakly monostable rate is eval_f's
    f = (r * s * (1.0 - s), eval_f(weakly_monostable(alpha, r), s),
         r * s ** (alpha + 1.0) * (1.0 - s))
    percapita = [fi / s for fi in f]
    reporting.write_table_csv(
        os.path.join(out_dir, "families.csv"),
        "s,percapita_kpp,percapita_weak,percapita_allee,f_kpp,f_weak,f_allee",
        zip(s, *percapita, *f))
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
    kpp, weak, allee = percapita
    ordering = bool(np.all(kpp >= weak) and np.all(weak >= allee))
    log(f"fig1: per-capita ordering holds on {s.size} samples: {ordering}")


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


def _plot_fig9(out_dir: str, members: tuple[str, ...]) -> None:
    trace_files = [f"{member}/{reporting.trace_filename(LAMBDA)}" for member in members]
    overlay_files = []
    for label, curve in FIG9_CURVES.items():
        # evaluate each overlay on the longest trace's time range
        t = np.linspace(0.5, 30.0, 296)
        name = f"{label}.csv"
        reporting.write_table_csv(os.path.join(out_dir, name), "t,x", zip(t, curve(t)))
        overlay_files.append(name)
    with open(os.path.join(out_dir, "plot.gp"), "w", encoding="ascii") as fh:
        fh.write(reporting.trace_plot_script(
            trace_files, "level-set positions, three tail families",
            overlay_files=overlay_files))


def run_preset(name: str, out_root: str = ".",
               log=print) -> tuple[str, list[tuple[str, Diagnostics]]]:
    """Execute a preset and write its artifact bundle under ``out_root/name/``.

    Returns the output directory and the (name, diagnostics) of every
    simulation it ran.  Figure-level sweep names run every panel; fig9 then
    writes the overlay curves and a plot of its panels' traces.
    """
    preset = get_preset(name)
    out_dir = os.path.join(out_root, preset.name)
    os.makedirs(out_dir, exist_ok=True)
    runs = []
    if preset.members:
        for member in preset.members:
            runs += run_preset(member, out_root=out_dir, log=log)[1]
        if preset.name == "fig9":
            _plot_fig9(out_dir, preset.members)
    elif preset.name == "fig1":
        _run_fig1(out_dir, log)
    elif preset.name == "fig2":
        _run_fig2(out_dir, log)
    else:
        result = run_bundle(preset.config, out_dir, preset.description,
                            log=lambda msg: log(f"{preset.name}: {msg}"))
        runs.append((preset.name, result.diagnostics))
    return out_dir, runs
