"""Command-line driver.

Subcommands:
    run                 one experiment, full artifact set
    sweep               lambda x gamma grid for one alignment loss
    compare-alignments  all five losses on identical data/partition
    dimensionality      three sharing scenarios + spectral comparison
    selftest            fast built-in property checks

Every flag but --config and --grid overrides one config field (see _FLAGS);
without --config the built-in defaults apply.  --snapshots is run's alone,
--grid is sweep's, and selftest takes only -v.  Exit codes: 0 ok, 2 bad
configuration/arguments (an unreadable config or unwritable output path
included), 3 partition failure, 4 numeric failure, 1 selftest failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from .analysis import compare_scenarios, summary_rows, write_csv, write_round_summary_csv
from .config import ExperimentConfig, load_config, validate_config
from .errors import ContractError, NumericFailureError, PartitionFailureError
from .federation import SCENARIOS
from .losses import KNOWN_LOSSES
from .runner import execute_run, run_scenario, run_scenarios, write_rounds_jsonl


# flag -> (config block it overrides, None for the top level; the field it
# overrides, None for a flag that overrides none; argparse options)
_FLAGS = {
    "config": (None, None, {"help": "JSON config file (defaults apply if omitted)"}),
    "seed": (None, "seed", {"type": int, "help": "master seed override"}),
    "loss": ("training", "alignment", {"help": "alignment loss: " + "|".join(KNOWN_LOSSES)}),
    "lambda": ("training", "lam", {"type": float, "help": "prototype-term weight"}),
    "gamma": ("training", "gamma", {"type": float, "help": "instance-term weight"}),
    "tau": ("training", "temperature", {"type": float, "help": "contrastive temperature"}),
    "rounds": ("training", "rounds", {"type": int, "help": "communication rounds"}),
    "clients": ("partition", "clients", {"type": int, "help": "number of clients"}),
    "alpha": ("partition", "alpha", {"type": float, "help": "Dirichlet concentration"}),
    "scenario": ("model", "scenario", {"help": "|".join(SCENARIOS)}),
    "out": ("output", "directory", {"help": "output directory override"}),
    "snapshots": ("output", "prototype_snapshots", {"action": "store_true", "default": None,
                                                    "help": "write per-round prototype CSVs"}),
    "grid": (None, None, {"default": "0.1,1,5",
                          "help": "comma-separated weights tried for lambda and gamma"}),
}
# the flags every command that reads a config takes
_CONFIG_FLAGS = tuple(flag for flag in _FLAGS if flag not in ("snapshots", "grid"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedstruct",
        description="Prototype-based federated learning with structural alignment losses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, helptext, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        for flag in flags:
            p.add_argument("--" + flag, **_FLAGS[flag][2])
        p.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    return parser


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    for flag, (block, name, _) in _FLAGS.items():
        value = getattr(args, flag, None)
        if name is not None and value is not None:
            setattr(getattr(cfg, block) if block else cfg, name, value)
    return validate_config(cfg)


def _cmd_run(args) -> int:
    cfg = _load(args)
    run = execute_run(cfg)
    if not run.reports:
        print(f"run complete: 0 rounds -> {cfg.output.directory}")
        return 0
    final = run.reports[-1]
    print(
        f"run complete: {len(run.reports)} rounds, "
        f"final mean accuracy {final.mean_accuracy:.4f}, "
        f"best {final.best_mean_accuracy:.4f} -> {cfg.output.directory}"
    )
    return 0


def _require_rounds(cfg: ExperimentConfig, command: str) -> None:
    if cfg.training.rounds < 1:
        raise ContractError(f"{command} compares trained runs and needs rounds >= 1")


def _write_csv(path: str, header: list[str], rows: list[tuple]) -> None:
    write_csv(path, header, rows)
    print(f"wrote {path}")


def _cmd_sweep(args) -> int:
    cfg = _load(args)
    _require_rounds(cfg, "sweep")
    try:
        grid = [float(x) for x in args.grid.split(",") if x.strip()]
    except ValueError as exc:
        raise ContractError(f"bad --grid value: {args.grid!r}") from exc
    if not grid:
        raise ContractError("--grid must name at least one weight")
    loss = cfg.training.alignment
    points = [(loss, lam, gamma) for lam in grid for gamma in grid]
    out_dir = cfg.output.directory
    os.makedirs(out_dir, exist_ok=True)

    # the baseline and every grid point advance together, one lockstep run
    baseline, *results = run_scenarios(cfg, [(loss, 0.0, 0.0)] + points)
    if isinstance(baseline, NumericFailureError):
        raise baseline
    baseline = baseline.best_mean_accuracy

    rows = []
    for (_, lam, gamma), result in zip(points, results):
        # A diverged grid point is a result, not a crash: record it as NaN
        # and keep sweeping.  (`run` stays strict and aborts instead.)
        if isinstance(result, NumericFailureError):
            rows.append((loss, lam, gamma, cfg.seed, baseline, float("nan"), float("nan")))
            print(
                f"sweep {loss} lambda={lam} gamma={gamma}: "
                f"diverged ({result})"
            )
            continue
        best = result.best_mean_accuracy
        rows.append((loss, lam, gamma, cfg.seed, baseline, best, best - baseline))
        print(
            f"sweep {loss} lambda={lam} gamma={gamma}: "
            f"best {best:.4f} (baseline {baseline:.4f}, delta {best - baseline:+.4f})"
        )
    _write_csv(os.path.join(out_dir, "sweep.csv"),
               ["loss", "lambda", "gamma", "seed", "baseline_best", "best_accuracy", "improvement"],
               rows)
    return 0


def _cmd_compare_alignments(args) -> int:
    cfg = _load(args)
    _require_rounds(cfg, "compare-alignments")
    out_dir = cfg.output.directory
    os.makedirs(out_dir, exist_ok=True)
    points = [(loss, cfg.training.lam, cfg.training.gamma) for loss in KNOWN_LOSSES]
    rows = []
    # the five losses advance together, one lockstep run; a diverged loss
    # ends the command where a run of the losses one by one would end it
    for loss, run in zip(KNOWN_LOSSES, run_scenarios(cfg, points)):
        if isinstance(run, NumericFailureError):
            raise run
        loss_dir = os.path.join(out_dir, loss)
        os.makedirs(loss_dir, exist_ok=True)
        write_rounds_jsonl(run.reports, os.path.join(loss_dir, "rounds.jsonl"))
        final = run.reports[-1]
        rows.append((loss, cfg.seed, final.best_mean_accuracy, final.mean_accuracy))
        print(
            f"{loss:12s} best {final.best_mean_accuracy:.4f} "
            f"final {final.mean_accuracy:.4f}"
        )
    _write_csv(os.path.join(out_dir, "comparison.csv"),
               ["loss", "seed", "best_accuracy", "final_accuracy"], rows)
    return 0


def _cmd_dimensionality(args) -> int:
    cfg = _load(args)
    _require_rounds(cfg, "dimensionality")
    # isolate the sharing effect: local training stays purely supervised
    # unless weights were requested explicitly
    if getattr(args, "lambda") is None:
        cfg.training.lam = 0.0
    if args.gamma is None:
        cfg.training.gamma = 0.0
    out_dir = cfg.output.directory
    os.makedirs(out_dir, exist_ok=True)
    runs = []
    all_rows = []
    for scenario in SCENARIOS:
        run = run_scenario(cfg, scenario=scenario)
        runs.append(run)
        sdir = os.path.join(out_dir, scenario)
        os.makedirs(sdir, exist_ok=True)
        write_rounds_jsonl(run.reports, os.path.join(sdir, "rounds.jsonl"))
        all_rows.extend(summary_rows(run))
        print(
            f"{scenario:12s} final threshold dim {run.final_effective_dimensionality} "
            f"participation ratio {run.final_participation_ratio:.3f}"
        )
    write_round_summary_csv(all_rows, os.path.join(out_dir, "dimensionality.csv"))
    comparison = compare_scenarios(*runs)
    print(json.dumps(comparison.to_json_dict(), sort_keys=True))
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest

    failures = run_selftest(verbose=True)
    return 1 if failures else 0


# command -> (handler, help, flags)
_COMMANDS = {
    "run": (_cmd_run, "run one experiment and write artifacts", _CONFIG_FLAGS + ("snapshots",)),
    "sweep": (_cmd_sweep, "lambda x gamma sensitivity grid for one loss",
              _CONFIG_FLAGS + ("grid",)),
    "compare-alignments": (_cmd_compare_alignments,
                           "run all five alignment losses on identical data", _CONFIG_FLAGS),
    "dimensionality": (_cmd_dimensionality,
                       "compare prototype spectra across sharing scenarios", _CONFIG_FLAGS),
    "selftest": (_cmd_selftest, "run built-in property checks", ()),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return _COMMANDS[args.command][0](args)
    except ContractError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except PartitionFailureError as exc:
        print(f"partition failure: {exc}", file=sys.stderr)
        return 3
    except NumericFailureError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:  # a path that cannot be read or written
        print(f"file error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
