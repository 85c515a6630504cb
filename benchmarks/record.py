"""Record the benchmark's numbers for each workload in BENCH_<workload>.json.

From the repository root:

    python3 benchmarks/record.py

For every workload perfbench names, this runs ``perfbench/run.py`` as it
stands, at its own run length: ``RUNS`` untraced runs (``--trace 0``, seeds
``SEED``, ``SEED`` + 1, ...) and one traced run (``--trace 1``, seed
``SEED``).  It times the Tier-1 suite once (with the one BLAS thread that
importing perfbench's ``run`` pins), and then writes
``benchmarks/BENCH_<workload>.json`` with

- ``end_to_end``: the median and quartiles of each end-to-end metric over
  the untraced runs, with every run's value;
- ``per_layer``: the traced run's per-layer metrics (means over its traced
  rounds, as perfbench prints them);
- ``host`` and ``seconds``: perfbench's host block and run length, from its
  result file;
- ``commit``, ``dirty`` and ``diff_sha1``: the checked-out commit, whether
  any tracked file other than these BENCH files differs from it, and the
  SHA-1 of that difference (``git diff HEAD``), which names the measured tree;
- ``tier1``: the suite's wall time and its passed and failed counts;
- ``host_probe_s``: the seconds a fixed pure-Python integer loop took just
  before (``before``) and just after (``after``) the workload's runs, so
  that medians recorded on different days can be read against the host's
  speed at the time.

Each run is a fresh process, one after another, so run nothing else
meanwhile.  Committing the files after a change makes ``git log -p
benchmarks/BENCH_*.json`` the performance history.
"""

import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "benchmarks"
sys.path.insert(0, str(ROOT / "perfbench"))
from run import WORKLOAD_NAMES  # noqa: E402

# untraced runs per workload, at least 2 for quartiles, and the first seed
RUNS = 5
SEED = 1
# the recorded files themselves, left out of the tree's identity
OWN_FILES = ":(exclude)benchmarks/BENCH_*.json"
# iterations of the host-speed probe's loop (about 0.1 s)
PROBE_LOOPS = 1_000_000
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout


def perfbench(workload: str, seed: int, trace: int) -> tuple[list, dict]:
    """One run: its command and the JSON summary it prints last."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return cmd[1:], json.loads(proc.stdout.strip().splitlines()[-1])


def host_probe() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


def tier1() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    last = proc.stdout.strip().splitlines()[-1]
    counts = {key: int(n) for n, key in re.findall(r"(\d+) (passed|failed|errors?)", last)}
    return {"command": "PYTHONPATH=src " + " ".join(["python"] + TIER1[1:]),
            "wall_s": wall, "summary": last, **counts}


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def record(workload: str, tests: dict, commit: dict) -> dict:
    probe_before = host_probe()
    untraced = [perfbench(workload, SEED + i, 0) for i in range(RUNS)]
    traced_cmd, traced = perfbench(workload, SEED, 1)
    probe_after = host_probe()
    result = json.loads((ROOT / ".perfbench_out" /
                         f"result-{workload}-seed{SEED}-trace1.json").read_text())
    first = untraced[0][1]["metrics"]
    return {
        "workload": workload,
        **commit,
        "recorded_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "commands": [" ".join(cmd) for cmd, _ in untraced] + [" ".join(traced_cmd)],
        "seconds": result["seconds"],
        "correct": all(s["correct"] for _, s in untraced) and traced["correct"],
        "failed": sum(s["failed"] for _, s in untraced) + traced["failed"],
        "end_to_end": {
            name: {"unit": first[name]["unit"],
                   **summarise([s["metrics"][name]["value"] for _, s in untraced])}
            for name in first},
        "per_layer": traced["metrics"],
        "host": result["host"],
        "host_probe_s": {"before": probe_before, "after": probe_after},
        "tier1": tests,
    }


def main() -> int:
    diff = git("diff", "HEAD", "--", ".", OWN_FILES)
    commit = {"commit": git("rev-parse", "HEAD").strip(), "dirty": bool(diff),
              "diff_sha1": hashlib.sha1(diff.encode()).hexdigest() if diff else None}
    tests = tier1()
    print(f"tier1: {tests['summary']} ({tests['wall_s']:.1f} s wall)", flush=True)
    for workload in WORKLOAD_NAMES:
        bench = record(workload, tests, commit)
        path = OUT / f"BENCH_{workload}.json"
        path.write_text(json.dumps(bench, indent=1) + "\n")
        wall = bench["end_to_end"]["wall_s"]
        print(f"{workload}: wall_s {wall['median']:.4g} [{wall['q1']:.4g}, {wall['q3']:.4g}], "
              f"correct {bench['correct']}, failed {bench['failed']} -> {path.name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
