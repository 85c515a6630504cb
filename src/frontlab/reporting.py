"""Artifact emission: CSV files, fit reports, and gnuplot scripts.

All numeric output uses Python's shortest round-trip float representation,
which reproduces the exact double on re-parse; repeated runs of the same
configuration emit byte-identical files.

The float CSVs (snapshots and level traces) are written ``CHUNK_ROWS`` rows
at a time: each column of a chunk is formatted by ``map(repr, ...)`` over
``tolist()``, and the chunk's rows are joined into one string and written
with one call, so no Python code runs per row.  Consecutive chunks on the
same grid object (``SimState`` hands every snapshot of one domain size the
same read-only grid) format its x column once: the first keeps each chunk
of x as one comma-joined string, which the others split.  The whole file is
written by the calling process, in file order, through one open handle.
"""

from __future__ import annotations

import os
from itertools import repeat
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .measurement import FitResult, LevelSetTrace

# rows per formatted chunk: long enough that the joins run in C, short enough
# that a chunk's strings stay small next to the arrays being written
CHUNK_ROWS = 1024


def float_reprs(arr, start: int):
    """Shortest round-trip strs of the chunk of ``arr`` that begins at ``start``."""
    return map(repr, arr[start:start + CHUNK_ROWS].tolist())


def write_rows(fh, *columns) -> None:
    """Write one chunk of CSV rows; row j joins the j-th str of each column."""
    fh.write("\n".join(map(",".join, zip(*columns))))
    fh.write("\n")


def write_snapshots_csv(path, snapshots) -> None:
    """Header t,x,u and one full-precision row per cell of every snapshot."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("t,x,u\n")
        grid, x_chunks = None, {}
        for snap in snapshots:
            if snap.grid is not grid:
                grid, x_chunks = snap.grid, {}
            t_repr = repr(float(snap.t))
            for start in range(0, len(grid), CHUNK_ROWS):
                if start in x_chunks:
                    xs = x_chunks[start].split(",")
                else:
                    xs = list(float_reprs(grid, start))
                    x_chunks[start] = ",".join(xs)
                write_rows(fh, repeat(t_repr), xs, float_reprs(snap.values, start))


def write_trace_csv(path, trace: LevelSetTrace) -> None:
    """Header t,x_lambda and one full-precision row per sample of ``trace``."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("t,x_lambda\n")
        for start in range(0, trace.times.size, CHUNK_ROWS):
            write_rows(fh, float_reprs(trace.times, start),
                       float_reprs(trace.positions, start))


def trace_filename(lam: float) -> str:
    return f"trace_lambda_{lam!r}.csv"


def write_traces(out_dir, traces: dict) -> list[str]:
    names = []
    for lam in sorted(traces):
        name = trace_filename(lam)
        write_trace_csv(os.path.join(out_dir, name), traces[lam])
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
