"""Command-line interface.

Subcommands:
    simulate <config> [--out DIR]   run a configuration file, write artifacts
    preset <name> [--out DIR]       run a named figure preset
    verify <subject>                hypothesis | envelope | sandwich | convergence
    classify --alpha A --family F --beta B

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 runtime/numerical error, or a run that stopped truncated or reported clamp
events (its bundle is still written).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import presets
from .config import parse_config
from .envelope import classify_regime
from .errors import FrontlabError
from .initial_data import Family, InitialDataSpec
from .verify import SUBJECTS, run_verification

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frontlab",
        description="Front propagation lab for the weakly monostable "
                    "reaction-diffusion equation")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a configuration file")
    p_sim.add_argument("config", help="path to the configuration file")
    p_sim.add_argument("--out", default=None, help="output directory")

    p_pre = sub.add_parser("preset", help="run a named figure preset")
    p_pre.add_argument("name")
    p_pre.add_argument("--out", default=".", help="output root directory")

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("subject", help=" | ".join(SUBJECTS))

    p_cls = sub.add_parser("classify", help="print the predicted spreading regime")
    p_cls.add_argument("--alpha", type=float, required=True)
    p_cls.add_argument("--family", required=True,
                       help="sub_exponential | algebraic | algebraic_raw | logarithmic")
    p_cls.add_argument("--beta", type=float, required=True)
    return parser


def _cmd_simulate(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    config = parse_config(text)
    out_dir = args.out or os.path.splitext(os.path.basename(args.config))[0]
    result = presets.run_bundle(config, out_dir, "simulation")
    diag = result.diagnostics
    print(f"done: {diag.n_steps} steps, {diag.final_cells} cells, "
          f"{diag.clamp_events} clamp events, {diag.growth_events} growths"
          + (", TRUNCATED" if diag.truncated else "")
          + (", CLAMPED" if diag.clamp_events else ""))
    return EXIT_RUNTIME if diag.truncated or diag.clamp_events else EXIT_OK


def _cmd_preset(args) -> int:
    out_dir, runs = presets.run_preset(args.name, out_root=args.out)
    print(f"artifacts written to {out_dir}")
    truncated = [name for name, diag in runs if diag.truncated]
    clamped = [name for name, diag in runs if diag.clamp_events]
    if truncated:
        print(f"TRUNCATED: {', '.join(truncated)}")
    if clamped:
        print(f"CLAMPED: {', '.join(clamped)}")
    return EXIT_RUNTIME if truncated or clamped else EXIT_OK


def _cmd_verify(args) -> int:
    _, passed = run_verification(args.subject)
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


def _cmd_classify(args) -> int:
    family = Family(args.family.lower())
    # the regime depends on the family and beta only; any valid mu and scale do
    spec = InitialDataSpec(family, args.beta, mu=1.0, scale=1.0)
    cls = classify_regime(args.alpha, spec)
    print(f"family={family.value} alpha={args.alpha} beta={args.beta}")
    print(f"regime: {cls.regime.value}")
    print(f"threshold beta = 1/(alpha+1) = {cls.threshold_beta!r}")
    print(cls.describe())
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "preset":
            return _cmd_preset(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_classify(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FrontlabError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
