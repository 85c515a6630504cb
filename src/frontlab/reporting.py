"""Artifact emission: CSV files, fit reports, and gnuplot scripts.

All numeric output uses Python's shortest round-trip float representation,
which reproduces the exact double on re-parse; repeated runs of the same
configuration emit byte-identical files.
"""

from __future__ import annotations

import os

from .measurement import FitResult


def write_snapshots_csv(path, snapshots) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("t,x,u\n")
        for snap in snapshots:
            t_repr = repr(float(snap.t))
            for x, u in zip(snap.grid, snap.values):
                fh.write(f"{t_repr},{float(x)!r},{float(u)!r}\n")


def trace_filename(lam: float) -> str:
    return f"trace_lambda_{lam!r}.csv"


def write_traces(out_dir, traces: dict) -> list[str]:
    names = []
    for lam in sorted(traces):
        name = trace_filename(lam)
        traces[lam].to_csv(os.path.join(out_dir, name))
        names.append(name)
    return names


def fit_report_text(entries: list[tuple[str, FitResult, str]]) -> str:
    """Key = value report, one block per fitted trace."""
    lines = []
    for label, fit, classification in entries:
        lines.append(f"[{label}]")
        lines.append(f"model = {fit.model}")
        for key in sorted(fit.coeffs):
            value = fit.coeffs[key]
            lines.append(f"{key} = {float(value)!r}")
        lines.append(f"window_start = {fit.window[0]!r}")
        lines.append(f"window_end = {fit.window[1]!r}")
        lines.append(f"residual = {fit.residual!r}")
        lines.append(f"r_squared = {fit.r_squared!r}")
        lines.append(f"classification = {classification}")
        lines.append("")
    return "\n".join(lines)


def write_fit_report(path, entries) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(fit_report_text(entries))


def write_table_csv(path, header: str, rows) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def snapshot_plot_script(csv_name: str, title: str) -> str:
    return "\n".join([
        "# gnuplot script; run:  gnuplot plot.gp",
        "set datafile separator ','",
        "set key outside",
        "set xlabel 'x'",
        "set ylabel 'u'",
        f"set title '{title}'",
        "set term pngcairo size 900,600",
        "set output 'snapshots.png'",
        f"plot '{csv_name}' using 2:3:1 with points palette pt 7 ps 0.2 title 'u(t,x)'",
        "",
    ])


def trace_plot_script(trace_files: list[str], title: str,
                      overlay_files: list[str] | None = None) -> str:
    plots = [f"'{name}' using 1:2 with lines title '{name}'" for name in trace_files]
    for name in overlay_files or []:
        plots.append(f"'{name}' using 1:2 with lines dt 2 lw 2 title '{name}'")
    return "\n".join([
        "# gnuplot script; run:  gnuplot plot.gp",
        "set datafile separator ','",
        "set key left top",
        "set xlabel 't'",
        "set ylabel 'x_lambda(t)'",
        f"set title '{title}'",
        "set term pngcairo size 900,600",
        "set output 'traces.png'",
        "plot " + ", \\\n     ".join(plots),
        "",
    ])
