"""Write every output of the frontlab CLI's fixed runs, for a byte-identity diff.

From the repository root, with the frontlab sources to test on the path:

    PYTHONPATH=src python3 benchmarks/outputs.py OUT_DIR

OUT_DIR must be new or empty.  The script runs, through ``cli.main`` in
this one process,

- ``preset fig1`` to ``preset fig9``;
- ``simulate config.ini --out .`` on the fixed configuration
  ``SIMULATE_CONFIG``, which the case writes into its directory first;
- ``verify`` for each of its four subjects;
- ``classify`` at alpha 0.4 for each of the four tail families at beta 0.2,
  5/7 (the threshold 1/(alpha+1)) and 1,

each from its own directory ``OUT_DIR/<case>``, where it leaves its bundle
and its ``stdout.txt``, ``stderr.txt`` and ``exit_code.txt``.  Running it
once on a change's ``src/`` and once on its parent's gives two trees that
``diff -r`` compares; an empty diff means every bundle, printed line and
exit code is byte-identical.
"""

import contextlib
import io
import os
import sys

from frontlab import cli

FAMILIES = ("sub_exponential", "algebraic", "algebraic_raw", "logarithmic")
BETAS = (0.2, 5.0 / 7.0, 1.0)
SUBJECTS = ("hypothesis", "envelope", "sandwich", "convergence")

# algebraic data on a static domain, read by parse_config and run by run_bundle
SIMULATE_CONFIG = """\
[reaction]
alpha = 0.4

[initial_data]
family = algebraic
beta = 1.0

[grid]
dx = 0.05
x_left = -10.0
x_right = 30.0
growth = static

[time]
dt = 0.01
t_end = 2.0
snapshot_times = 1.0, 2.0

[measurement]
lambdas = 0.1, 0.5
"""


def cases() -> list[tuple[str, list[str], dict[str, str]]]:
    """(directory name, CLI arguments, input files) of every run, in run order."""
    runs = [(f"preset_fig{k}", ["preset", f"fig{k}", "--out", "."], {}) for k in range(1, 10)]
    runs.append(("simulate_algebraic", ["simulate", "config.ini", "--out", "."],
                 {"config.ini": SIMULATE_CONFIG}))
    runs += [(f"verify_{subject}", ["verify", subject], {}) for subject in SUBJECTS]
    runs += [(f"classify_{family}_beta{beta!r}",
              ["classify", "--alpha", "0.4", "--family", family, "--beta", repr(beta)], {})
             for family in FAMILIES for beta in BETAS]
    return runs


def run_case(case_dir: str, argv: list[str], inputs: dict[str, str]) -> None:
    """Write ``inputs`` into ``case_dir``, run ``frontlab argv`` there and
    write what it printed."""
    os.makedirs(case_dir)
    for name, text in inputs.items():
        with open(os.path.join(case_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(case_dir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    for name, text in (("stdout.txt", out.getvalue()), ("stderr.txt", err.getvalue()),
                       ("exit_code.txt", f"{code}\n")):
        with open(os.path.join(case_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: outputs.py OUT_DIR", file=sys.stderr)
        return 2
    out_dir = argv[0]
    if os.path.exists(out_dir) and os.listdir(out_dir):
        print(f"error: {out_dir} is not empty", file=sys.stderr)
        return 2
    runs = cases()
    for name, args, inputs in runs:
        run_case(os.path.join(out_dir, name), args, inputs)
    print(f"{len(runs)} runs of frontlab from {os.path.dirname(cli.__file__)} "
          f"written to {out_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
