"""Run one frontlab benchmark workload and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload finite_speed --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25     # each workload in its own process

A run repeats rounds of the workload's operations until ``--seconds`` have
passed, checking every round's outputs.  With ``--trace 0`` it also times
fresh interpreters that import frontlab from ``src/`` and make one tiny
simulation, one after each round and then more up to ``SETUP_LAUNCHES``;
``setup_s`` is their median.  The seed only sets the order of the
operations inside a round; the numerical inputs are fixed (see README.md).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` interleaves
untraced and traced rounds and prints the per-layer metrics, as means over
the traced rounds, plus ``trace.overhead_s``, the median difference of each
traced round and its neighbouring untraced one.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  Host,
per-round times and problems go to ``.perfbench_out/result-*.json``, and the
spans of the traced rounds to ``.perfbench_out/spans-*.csv``.
"""

import os

# One BLAS thread, pinned before numpy is first imported; children inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib.metadata
import importlib.util
import io
import json
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from tracing import Tracer, span_cost_s

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("finite_speed", "heat_convergence", "algebraic_sweep", "wide_power")
SETUP_LAUNCHES = 15
# import frontlab as the CLI does, then pay any first-call cost (a JIT
# compile, a cached factorisation) with one tiny simulation
SETUP_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
import frontlab.cli
from frontlab import solver, sub_exponential, weakly_monostable
solver.run(solver.SimulationConfig(
    reaction=weakly_monostable(alpha=0.4), data=sub_exponential(mu=5.0, beta=1.0),
    dx=0.5, dt=0.1, t_end=0.3, x_left=-5.0, x_right=5.0, snapshot_times=(0.3,)))
print("ready", flush=True)
"""
MODULES = ("cli", "presets", "verify", "config", "solver", "kernels", "reaction",
           "initial_data", "measurement", "envelope", "reporting")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "steps_per_s": "1/s",
                    "peak_rss_mb": "MB", "ref_err": "1"}


def host_info() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    kernels = sys.modules.get("frontlab.kernels")
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_threads": {var: os.environ.get(var) for var in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernel_backend": getattr(kernels, "BACKEND", None) if kernels else None,
    }


def time_setup() -> float:
    """Seconds from launching an interpreter to frontlab being ready."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_SCRIPT, str(SRC)],
                          stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up process failed with code {proc.returncode}")
    return elapsed


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(t, wall: float) -> dict:
    m = {
        "kernels.step_s": t.total_s("kernels.theta_step"),
        "kernels.calls": t.calls("kernels.theta_step"),
        # compulsory traffic of one step: read u and f(u), write the new u
        "kernels.bytes_computed": 24 * t.work("kernels.theta_step"),
        "solver.imex_self_s": t.self_s("solver.imex_step"),
        "solver.run_self_s": t.self_s("solver.run"),
        "solver.steps": t.work("solver.run"),
        "solver.cell_steps": t.work("solver.imex_step"),
        "solver.growth_events": t.work("solver.maybe_grow_domain"),
        "solver.grow_s": t.total_s("solver.maybe_grow_domain"),
        "reaction.eval_s": t.total_s("reaction.eval_f"),
        "reaction.cells": t.work("reaction.eval_f"),
        "initial_data.eval_u0_s": t.total_s("initial_data.eval_u0"),
        "initial_data.cells": t.work("initial_data.eval_u0"),
        "measurement.extract_s": t.total_s("measurement.extract_level_position"),
        "measurement.extract_calls": t.calls("measurement.extract_level_position"),
        "measurement.select_s": t.total_s("measurement.select_model"),
        "measurement.fits": t.calls("measurement.fit"),
        "envelope.calibrate_s": t.total_s("envelope.calibrate"),
        "envelope.barrier_s": t.total_s("envelope.barrier"),
        "envelope.predict_s": t.total_s("envelope.predict"),
        "reporting.write_s": t.total_s("reporting.write"),
        "reporting.bytes": t.work("reporting.write"),
        "config.parse_s": t.total_s("config.parse_config"),
    }
    self_s = t.module_self_s()
    for module in MODULES:
        m[f"{module}.self_s"] = self_s.get(module, 0.0)
    m["trace.remainder_s"] = wall - sum(self_s.values())
    m["trace.wall_s"] = wall
    m["trace.spans"] = len(t.spans)
    return m


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "bytes" if "bytes" in name else "count"


@dataclass
class Round:
    wall: float
    tracer: Tracer
    failed: list
    problems: list
    ref_err: float | None
    rss_mb: float  # peak resident memory when the operations had returned


def run_round(workload, round_dir: Path, layers: bool) -> Round:
    shutil.rmtree(round_dir, ignore_errors=True)
    round_dir.mkdir(parents=True)
    tracer = Tracer(layers)
    outputs, failed = {}, []
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter_ns()
            for name, op in workload.ops:
                try:
                    outputs[name] = op(round_dir, tracer)
                except Exception:  # an operation that raises counts as failed
                    failed.append(name)
                    traceback.print_exc(file=sys.stderr)
            wall = (time.perf_counter_ns() - start) * 1e-9
    finally:
        tracer.uninstall()
    rss_mb = peak_rss_mb()
    problems, ref_err = [], None  # a round with a failed operation is not checked
    if not failed:
        try:
            problems, ref_err = workload.check(outputs, tracer.results, round_dir)
        except Exception as exc:  # a missing or malformed output is a failed check
            traceback.print_exc(file=sys.stderr)
            problems = [f"check raised {exc!r}"]
    tracer.results.clear()  # later rounds must not hold this round's arrays
    return Round(wall, tracer, failed, problems, ref_err, rss_mb)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    workload = workloads.WORKLOADS[name]()
    random.Random(seed).shuffle(workload.ops)
    work_dir = OUT / f"{name}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    workload.prepare(work_dir)
    host = host_info()

    rounds: list[Round] = []
    setup_times: list[float] = []
    start = time.perf_counter()
    # a round is not started when it would end more than half a round after
    # the deadline, so a run measures for --seconds give or take half a round
    while (not rounds or (trace and len(rounds) < 2)
           or time.perf_counter() + 0.5 * (time.perf_counter() - start) / len(rounds)
           < start + seconds):
        # untraced and traced rounds in the order U T T U U T T U ..., so
        # that a drift over the run does not bias trace.overhead_s
        layers = trace and len(rounds) % 4 in (1, 2)
        rounds.append(run_round(workload, work_dir / "round", layers))
        for problem in rounds[-1].problems:
            print(f"check failed: {problem}", file=sys.stderr)
        if not trace:  # set-up launches spread over the run, not bunched at its start
            setup_times.append(time_setup())
    while not trace and len(setup_times) < SETUP_LAUNCHES:
        setup_times.append(time_setup())
    shutil.rmtree(work_dir, ignore_errors=True)

    traced = [r for r in rounds if r.tracer.keep_spans]
    if trace:
        per_round = [layer_metrics(r.tracer, r.wall) for r in traced]
        metrics = {key: (statistics.fmean(m[key] for m in per_round), layer_unit(key))
                   for key in per_round[0]}
        # rounds 2k and 2k+1 are one untraced and one traced round (U T T U ...)
        overhead = statistics.median(
            (b.wall - a.wall) * (1 if b.tracer.keep_spans else -1)
            for a, b in zip(rounds[0::2], rounds[1::2]))
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["trace.est_overhead_s"] = (metrics["trace.spans"][0] * span_cost_s(), "s")
    else:
        steps_per_s = [r.tracer.work("solver.run") / r.tracer.total_s("solver.run")
                       for r in rounds]
        ref_errs = [r.ref_err for r in rounds if r.ref_err is not None]
        metrics = {
            "wall_s": statistics.median(r.wall for r in rounds),
            "setup_s": statistics.median(setup_times),
            "steps_per_s": statistics.median(steps_per_s),
            "peak_rss_mb": peak_rss_mb(),
            "ref_err": max(ref_errs) if ref_errs else float("nan"),
        }
        metrics = {key: (value, END_TO_END_UNITS[key]) for key, value in metrics.items()}

    problems = [p for r in rounds for p in r.problems]
    summary = {
        "correct": not problems,
        "attempted": len(workload.ops) * len(rounds),
        "failed": sum(len(r.failed) for r in rounds),
        "metrics": {key: {"value": float(value), "unit": unit} for key, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    record = dict(summary, workload=name, seed=seed, seconds=seconds, host=host,
                  op_order=[op for op, _ in workload.ops],
                  round_wall_s=[r.wall for r in rounds],
                  round_traced=[r.tracer.keep_spans for r in rounds],
                  setup_s=setup_times,
                  # peak_rss_mb exceeds the largest of these only if the
                  # checks, not frontlab, set the peak
                  round_rss_mb=[r.rss_mb for r in rounds],
                  absent_targets=rounds[-1].tracer.absent, problems=problems)
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if traced:
        with open(OUT / f"spans-{stem}.csv", "w", encoding="ascii") as fh:
            fh.write("round,label,start_ns,end_ns,parent\n")
            for i, r in enumerate(traced):
                for label, start, end, parent in r.tracer.spans:
                    fh.write(f"{i},{label},{start},{end},{parent}\n")
    return summary


def run_all(args) -> dict:
    """Each workload in a fresh process; metrics prefixed by workload name."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"workload {name} exited {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = metric
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "frontlab" / "__init__.py").is_file():
        print(f"error: frontlab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import frontlab

    if Path(frontlab.__file__).resolve().parent != SRC / "frontlab":
        print(f"error: imported frontlab from {frontlab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.workload == "all":
        summary = run_all(args)
    else:
        summary = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for key, metric in summary["metrics"].items():
        print(f"{key} = {metric['value']!r} {metric['unit']}")
    print(f"attempted = {summary['attempted']}, failed = {summary['failed']}, "
          f"correct = {summary['correct']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
