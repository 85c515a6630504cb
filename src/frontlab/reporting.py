"""Artifact emission: CSV files, fit reports, and gnuplot scripts.

All numeric output uses Python's shortest round-trip float representation,
which reproduces the exact double on re-parse; repeated runs of the same
configuration emit byte-identical files.

The float CSVs (snapshots and level traces) are written ``CHUNK_ROWS`` rows
at a time: each column of a chunk is formatted by ``map(repr, ...)`` over
``tolist()``, and the chunk's rows are joined into one string and written
with one call, so no Python code runs per row.  Consecutive chunks on the
same grid object (``SimState`` hands every snapshot of one domain size the
same read-only grid) format its x column once per writing process; the
first keeps each chunk of x as one comma-joined string, which the others
split.

Formatting is bound by ``repr`` (0.4-0.8 us per float on a 2-vCPU Xeon VM),
so a snapshot file of at least ``2 * PARALLEL_ROWS`` rows is formatted on
several processes.  Its chunks, listed in file order as (snapshot, chunk start)
pairs, are cut into ``min(usable CPUs, rows // PARALLEL_ROWS)`` contiguous
slices of near-equal rows; one worker, the count whenever the platform lacks
``os.fork`` or ``os.sched_getaffinity`` or the process runs a second
thread, is the plain serial write.  The parent writes slice 0 into the file
itself.  Each later slice goes to a forked child, which streams it into its
own part file and leaves with ``os._exit``.  The parent creates each part
next to the output (``<file>.<parent pid>-<slice>.part``, exclusively) and
unlinks its name before the fork, so a part lives only as long as the
processes holding it open.  The parent then reaps the children in order and
appends each part with ``os.sendfile``.  A child that fails is an
``OSError`` naming the file; on any error the parent kills and reaps every
child still running before it re-raises.
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
# rows per writer process: a file is split only when each of two processes
# gets at least this many.  On a 2-vCPU Xeon VM, in a 37 MB process (medians
# of 40 alternating writes), a fork and its wait cost about 2 ms: 10 404 rows
# took 15.6 ms alone and 15.0 ms on two processes, 104 360 rows 98.7 and
# 71.1 ms, and 4 096 rows about 10 ms either way
PARALLEL_ROWS = 4096


def float_reprs(arr, start: int):
    """Shortest round-trip strs of the chunk of ``arr`` that begins at ``start``."""
    return map(repr, arr[start:start + CHUNK_ROWS].tolist())


def write_rows(fh, *columns) -> None:
    """Write one chunk of CSV rows; row j joins the j-th str of each column."""
    fh.write("\n".join(map(",".join, zip(*columns))))
    fh.write("\n")


def _write_chunks(fh, work) -> None:
    """Write the chunks ``work`` lists as (snapshot, start) pairs, in order."""
    grid, x_chunks = None, {}
    for snap, start in work:
        if snap.grid is not grid:
            grid, x_chunks = snap.grid, {}
        if start in x_chunks:
            xs = x_chunks[start].split(",")
        else:
            xs = list(float_reprs(grid, start))
            x_chunks[start] = ",".join(xs)
        write_rows(fh, repeat(repr(float(snap.t))), xs, float_reprs(snap.values, start))


def _worker_count(rows: int) -> int:
    """Processes to format ``rows`` rows on; 1 wherever a fork is unsafe."""
    workers = rows // PARALLEL_ROWS
    if workers < 2 or not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    import threading

    # forking a threaded process can deadlock the child on a lock another
    # thread held
    if threading.active_count() > 1:
        return 1
    return min(workers, len(os.sched_getaffinity(0)))


def _split(work, rows: int, workers: int) -> list[list]:
    """``work`` cut into ``workers`` contiguous slices of near-equal rows."""
    slices = [[] for _ in range(workers)]
    done = 0
    for snap, start in work:
        slices[done * workers // rows].append((snap, start))
        done += min(CHUNK_ROWS, len(snap.grid) - start)
    return slices


def _write_part(fd: int, work) -> None:
    """In a forked child: write ``work`` to the part file ``fd`` and exit,
    0 on success and 1 on any exception, flushing no inherited buffer."""
    code = 1
    try:
        with open(fd, "w", encoding="ascii", newline="\n", closefd=False) as fh:
            _write_chunks(fh, work)
        code = 0
    finally:
        os._exit(code)


def write_snapshots_csv(path, snapshots) -> None:
    """Header t,x,u and one full-precision row per cell of every snapshot."""
    work = [(snap, start) for snap in snapshots
            for start in range(0, len(snap.grid), CHUNK_ROWS)]
    rows = sum(len(snap.grid) for snap in snapshots)
    first, *rest = _split(work, rows, _worker_count(rows))
    children = []  # [pid, or None once reaped; its part's fd], in file order
    try:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            for i, part_work in enumerate(rest, start=1):
                part = f"{os.fspath(path)}.{os.getpid()}-{i}.part"
                children.append([None, os.open(part, os.O_RDWR | os.O_CREAT | os.O_EXCL,
                                               0o600)])
                # nameless from here on: no part outlives the processes that
                # hold it open, however the write ends
                os.unlink(part)
                pid = os.fork()
                if pid == 0:
                    _write_part(children[-1][1], part_work)
                children[-1][0] = pid
            fh.write("t,x,u\n")
            _write_chunks(fh, first)
            fh.flush()
            for child in children:
                pid, fd = child
                status = os.waitpid(pid, 0)[1]
                child[0] = None
                if status:
                    raise OSError(f"{os.fspath(path)}: writer process {pid} "
                                  f"failed (wait status {status})")
                offset, size = 0, os.fstat(fd).st_size
                while offset < size:
                    offset += os.sendfile(fh.fileno(), fd, offset, size - offset)
    finally:
        for pid, fd in children:
            if pid is not None:
                import signal

                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            os.close(fd)


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
