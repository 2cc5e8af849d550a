"""Command-line entry points: run an experiment config or pretty-print a
report."""

from __future__ import annotations

import argparse
import dataclasses
import sys


def _cmd_run(args) -> int:
    from .bench import emit_report, load_config, run_experiment

    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    print("running %s on %s (%d repetitions)..."
          % (cfg.method, cfg.dataset, cfg.repetitions))
    records = run_experiment(cfg)
    emit_report(records, args.out)
    for r in records:
        print("%-20s %-12s mean=%.4f std=%.4f (alpha=%g gamma=%g K=%d, %.1fs)"
              % (r.method, r.dataset, r.mean, r.std, r.alpha, r.gamma, r.k,
                 r.wall_time_seconds))
    print("report written to %s (+ .curves)" % args.out)
    return 0


def _cmd_report(args) -> int:
    from .bench import parse_report, smooth_over_k

    for r in parse_report(args.infile):
        print("%s / %s: mean=%.4f std=%.4f over %d repetitions "
              "(alpha=%g gamma=%g K=%d)"
              % (r.method, r.dataset, r.mean, r.std, len(r.accuracies),
                 r.alpha, r.gamma, r.k))
        smooth = smooth_over_k(r.acc_by_k)
        for k in sorted(r.acc_by_k):
            tail = "  smoothed=%.4f" % smooth[k] if k in smooth else ""
            print("    K=%-3d acc=%.4f%s" % (k, r.acc_by_k[k], tail))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="adaptnn",
        description="Distance metric learning benchmark harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", required=True)
    p_run.set_defaults(fn=_cmd_run)

    p_rep = sub.add_parser("report", help="pretty-print an emitted report")
    p_rep.add_argument("--in", dest="infile", required=True)
    p_rep.set_defaults(fn=_cmd_report)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
