"""Command-line entry point: run, sweep, tune, verify, budget.

Exit codes: 0 success, 1 config error, 2 runtime failure. A diverged run is
a correct experimental outcome and exits 0 with the flag set in the summary.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from . import experiments
from .config import FIGURE_NAMES, ConfigError, ExperimentConfig, load_config, preset


def _resolve_config(args) -> ExperimentConfig:
    if args.figure and args.config:
        raise ConfigError("pass --config or --figure, not both")
    if args.figure:
        cfg = preset(args.figure)
    elif args.config:
        cfg = load_config(args.config)
    else:
        raise ConfigError("pass --config <path> or --figure <name>")
    if args.seed is not None:
        cfg = cfg.with_overrides(seed=args.seed)
    return cfg


def _cmd_run(args) -> int:
    cfg = _resolve_config(args)
    out = experiments.run_experiment(cfg, out_dir=args.out)
    for key, val in out.summary.items():
        print(f"{key} = {val}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _resolve_config(args)
    res = experiments.sweep_experiment(cfg, out_dir=args.out, workers=args.workers)
    print(f"wrote {len(res.cells)} cells ({res.distinct_runs} distinct runs) "
          f"to {res.out_dir}")
    for rec in res.cells:
        if "error" in rec:
            print(f"  cell {rec['label']}: FAILED ({rec['error']})")
        else:
            s = rec["summary"]
            print(f"  cell {rec['label']}: tail={s['tail_mean_f_gap']} "
                  f"diverged={s['diverged']}")
    return 0


def _cmd_tune(args) -> int:
    cfg = _resolve_config(args)
    res = experiments.tune_experiment(cfg, out_dir=args.out, workers=args.workers)
    print(f"wrote {len(res.cells)} cells ({res.distinct_runs} distinct runs) "
          f"to {res.out_dir}")
    for rec in res.cells:
        if "error" in rec:
            print(f"cell {rec['label']}: FAILED ({rec['error']})")
            continue
        best = rec["result"].best
        if best is not None:
            print(f"cell {rec['label']}: best_gamma={best.gamma:g} "
                  f"iterations={best.iterations}")
        else:
            print(f"cell {rec['label']}: did-not-reach "
                  f"best_gap={rec['result'].best_gap:g}")
    return 0


def _cmd_verify(args) -> int:
    if args.samples < 2:
        raise ConfigError(f"samples must be >= 2, got {args.samples}")
    cfg = _resolve_config(args) if args.config or args.figure else None
    reports, table = experiments.verify_experiment(
        cfg, out_dir=args.out, samples=args.samples, seed=args.seed or 0)
    print(table, end="")
    bad = [name for name, rep in reports if not rep.ok]
    if bad:
        print(f"violated: {', '.join(bad)}")
    return 0


def _cmd_budget(args) -> int:
    cfg = _resolve_config(args)
    print(experiments.budget_report(cfg, args.eps), end="")
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="biased-sgd",
        description="SGD with biased gradient oracles: desk-scale experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="experiment config file")
        sp.add_argument("--out", default="out", help="output directory")
        sp.add_argument("--seed", type=int, default=None, help="override run seed")
        sp.add_argument("--workers", type=int, default=1,
                        help="processes for sweep/tune runs (>= 1)")
        sp.add_argument("--figure", choices=FIGURE_NAMES,
                        help="use a built-in figure preset")

    common(sub.add_parser("run", help="single repeated run -> trace.csv + summary"))
    common(sub.add_parser("sweep", help="cartesian sweep -> CSVs + figure.svg"))
    common(sub.add_parser("tune", help="stepsize grid search -> tune.csv + race.svg"))
    vp = sub.add_parser("verify", help="declared-vs-measured oracle bounds table")
    common(vp)
    vp.add_argument("--samples", type=int, default=100_000,
                    help="Monte-Carlo samples per probe point")
    bp = sub.add_parser("budget", help="print stepsize/iteration/floor predictions")
    common(bp)
    bp.add_argument("--eps", type=float, default=1e-3, help="target accuracy")

    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "sweep": _cmd_sweep, "tune": _cmd_tune,
                "verify": _cmd_verify, "budget": _cmd_budget}
    try:
        if args.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {args.workers}")
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - runtime failures exit 2
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
