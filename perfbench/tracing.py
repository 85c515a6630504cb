"""Spans around calls into frontlab, installed from outside the package.

A target names a module attribute that frontlab looks up at call time, for
example ``frontlab.solver.eval_f``: the name ``solver`` resolves when
``imex_step`` evaluates the reaction.  Installing a target replaces that
attribute with a wrapper that records a span (label, start, end, parent) and
returns the call's result unchanged.  A target whose module or attribute no
longer exists is recorded as absent and skipped, so the benchmark keeps
running when a later version of frontlab drops or moves a function.

A span's self time is its duration minus the time of the spans it directly
encloses, so the self times of all spans plus the time outside every span
add up to the traced wall time exactly.
"""

from __future__ import annotations

import importlib
import os
import time


def _cells(index):
    def count(args, result):
        return int(args[index].size)
    return count


def _state_cells(args, result):
    return int(args[0].n)


def _grew(args, result):
    return int(result == "grew")


def _written_bytes(args, result):
    # write_traces(out_dir, traces) returns the names it wrote in out_dir;
    # every other writer takes the file path first
    if isinstance(result, list):
        return sum(os.path.getsize(os.path.join(args[0], name)) for name in result)
    return os.path.getsize(args[0])


# (module, attribute, span label, work counter).  The label's first part is
# the frontlab module whose code runs inside the span.
RUN_TARGETS = [
    ("frontlab.solver", "run", "solver.run", None),
    ("frontlab.cli", "run", "solver.run", None),
    ("frontlab.presets", "run", "solver.run", None),
    ("frontlab.verify", "run", "solver.run", None),
]
LAYER_TARGETS = [
    ("frontlab.kernels", "theta_step", "kernels.theta_step", _cells(0)),
    ("frontlab.solver", "imex_step", "solver.imex_step", _state_cells),
    ("frontlab.solver", "maybe_grow_domain", "solver.maybe_grow_domain", _grew),
    ("frontlab.solver", "eval_f", "reaction.eval_f", _cells(1)),
    ("frontlab.solver", "eval_u0", "initial_data.eval_u0", _cells(1)),
    ("frontlab.solver", "extract_level_position", "measurement.extract_level_position", None),
    ("frontlab.solver", "classify_regime", "envelope.predict", None),
    ("frontlab.solver", "predict_level_envelope", "envelope.predict", None),
    ("frontlab.cli", "classify_regime", "envelope.predict", None),
    ("frontlab.presets", "classify_regime", "envelope.predict", None),
    ("frontlab.verify", "predict_level_envelope", "envelope.predict", None),
    ("frontlab.verify", "calibrate_supersolution_shift", "envelope.calibrate", None),
    ("frontlab.verify", "calibrate_subsolution", "envelope.calibrate", None),
    ("frontlab.verify", "supersolution", "envelope.barrier", None),
    ("frontlab.verify", "subsolution", "envelope.barrier", None),
    ("frontlab.verify", "verify_sandwich", "verify.verify_sandwich", None),
    ("frontlab.cli", "select_model", "measurement.select_model", None),
    ("frontlab.presets", "select_model", "measurement.select_model", None),
    ("frontlab.measurement", "fit_linear", "measurement.fit", None),
    ("frontlab.measurement", "fit_power", "measurement.fit", None),
    ("frontlab.measurement", "fit_exp_power", "measurement.fit", None),
    ("frontlab.cli", "parse_config", "config.parse_config", None),
    ("frontlab.presets", "run_preset", "presets.run_preset", None),
    ("frontlab.reporting", "write_snapshots_csv", "reporting.write", _written_bytes),
    ("frontlab.reporting", "write_traces", "reporting.write", _written_bytes),
    ("frontlab.reporting", "write_fit_report", "reporting.write", _written_bytes),
    ("frontlab.reporting", "write_table_csv", "reporting.write", _written_bytes),
]


class Stat:
    __slots__ = ("calls", "total_ns", "self_ns", "work")

    def __init__(self):
        self.calls = self.total_ns = self.self_ns = self.work = 0


class Tracer:
    """Records spans for the targets it installs, until ``uninstall``.

    ``results`` collects the return value of every ``solver.run`` call, so
    the benchmark can check each simulation's output.
    """

    def __init__(self, layers: bool, targets=None):
        if targets is None:
            targets = RUN_TARGETS + (LAYER_TARGETS if layers else [])
        self.keep_spans = layers
        self.spans: list[tuple[str, int, int, int]] = []
        self.stats: dict[str, Stat] = {}
        self.results: list = []
        self.absent: list[str] = []
        self._stack: list[list[int]] = []  # [span index, child ns]
        self._installed: list[tuple[object, str, object]] = []
        # resolve every target before patching any, so that a module imported
        # here cannot bind an already wrapped function by name
        found = []
        for module_name, attr, label, work in targets:
            try:
                module = importlib.import_module(module_name)
                found.append((module, attr, getattr(module, attr), label, work))
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr}")
        for module, attr, original, label, work in found:
            if label == "solver.run":
                work = self._keep_result
            setattr(module, attr, self._wrap(label, original, work))
            self._installed.append((module, attr, original))

    def _wrap(self, label, original, work):
        def wrapper(*args, **kwargs):
            return self.call(label, original, args, kwargs, work)
        return wrapper

    def _keep_result(self, args, result):
        self.results.append(result)
        return result.diagnostics.n_steps

    def uninstall(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def call(self, label, fn, args=(), kwargs=None, work=None):
        """Call ``fn(*args, **kwargs)`` inside a span named ``label``."""
        stack = self._stack
        parent = stack[-1][0] if stack else -1
        index = len(self.spans)
        if self.keep_spans:
            self.spans.append((label, 0, 0, parent))
        frame = [index, 0]
        stack.append(frame)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][1] += duration
            if self.keep_spans:
                self.spans[index] = (label, start, end, parent)
            stat = self.stats.get(label)
            if stat is None:
                stat = self.stats[label] = Stat()
            stat.calls += 1
            stat.total_ns += duration
            stat.self_ns += duration - frame[1]
        if work is not None:
            stat.work += work(args, result)
        return result

    def _stat(self, label) -> Stat:
        return self.stats.get(label) or Stat()

    def total_s(self, label) -> float:
        return self._stat(label).total_ns * 1e-9

    def self_s(self, label) -> float:
        return self._stat(label).self_ns * 1e-9

    def calls(self, label) -> int:
        return self._stat(label).calls

    def work(self, label) -> int:
        return self._stat(label).work

    def module_self_s(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for label, stat in self.stats.items():
            module = label.split(".", 1)[0]
            out[module] = out.get(module, 0.0) + stat.self_ns * 1e-9
        return out


def _noop():
    return None


def span_cost_s(calls: int = 20_000, repeats: int = 5) -> float:
    """Seconds one span adds to a call, measured on a no-op function.

    The no-op goes through the same wrapper and span bookkeeping as a traced
    target; the cost is the median over ``repeats`` of the traced minus the
    direct time per call.
    """
    tracer = Tracer(layers=True, targets=[])
    wrapped = tracer._wrap("noop", _noop, None)
    costs = []
    for _ in range(repeats):
        tracer.spans.clear()
        start = time.perf_counter_ns()
        for _ in range(calls):
            _noop()
        direct = time.perf_counter_ns() - start
        start = time.perf_counter_ns()
        for _ in range(calls):
            wrapped()
        costs.append((time.perf_counter_ns() - start - direct) / calls * 1e-9)
    costs.sort()
    return costs[len(costs) // 2]
