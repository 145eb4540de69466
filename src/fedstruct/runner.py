"""Glue between a validated ExperimentConfig and the protocol engine.

Seed discipline: the master seed fans out through SeedSequence tags so every
stage has an independent stream — data (seed, 3), partition parent (seed, 5),
model init (seed, 0, i), batch order (seed, 1, round, client), participation
(seed, 2, round), hypersphere start (seed, 4).  Two runs with the same config
produce byte-identical artifacts.
"""

from __future__ import annotations

import copy
import json
import os

import numpy as np

from .analysis import ScenarioRun, summary_rows, write_round_summary_csv
from .config import ExperimentConfig, architectures, echo_config, round_config
from .data import generate_mixture, partition_dirichlet, partition_domain_shift
from .errors import ContractError, NumericFailureError
from .federation import PER_REPLICA_FIELDS, run_experiments


def build_shards(cfg: ExperimentConfig):
    """Generate the dataset and partition it according to the config."""
    ds = generate_mixture(
        num_classes=cfg.dataset.classes,
        input_dim=cfg.dataset.input_dim,
        samples_per_class=cfg.dataset.samples_per_class,
        class_separation=cfg.dataset.separation,
        noise_scale=cfg.dataset.noise,
        seed=np.random.SeedSequence([cfg.seed, 3]),
    )
    part_seed = int(np.random.SeedSequence([cfg.seed, 5]).generate_state(1)[0])
    if cfg.partition.scheme == "dirichlet":
        shards = partition_dirichlet(ds, cfg.partition.alpha, cfg.partition.clients, part_seed)
    else:
        shards = partition_domain_shift(
            ds, cfg.partition.clients, cfg.partition.shift_scale, part_seed
        )
    return ds, shards


def run_scenario(cfg: ExperimentConfig, scenario: str | None = None, snapshot_dir=None) -> ScenarioRun:
    """Run one experiment (in `scenario` instead of the config's, if given)
    and wrap the reports with scenario/seed metadata.  This is
    run_scenarios with one config, and raises its NumericFailureError."""
    if scenario:
        cfg = copy.deepcopy(cfg)
        cfg.model.scenario = scenario
    (run,) = run_scenarios([cfg], snapshot_dirs=[snapshot_dir])
    if isinstance(run, NumericFailureError):
        raise run
    return run


def run_scenarios(cfgs: list[ExperimentConfig],
                  snapshot_dirs=None) -> list[ScenarioRun | NumericFailureError]:
    """run_scenario for each config, all in one lockstep run (see
    federation.run_experiments): per config its run, or the
    NumericFailureError that ended it.  The configs may differ only in the
    training alignment, lambda and gamma; the shards are built once.
    `snapshot_dirs`, if given, holds one prototype-snapshot directory (or
    None) per config."""

    def shared_part(cfg):
        point = copy.deepcopy(cfg)
        for name in PER_REPLICA_FIELDS:
            setattr(point.training, name, None)
        return point

    if any(shared_part(c) != shared_part(cfgs[0]) for c in cfgs):
        raise ContractError(f"lockstep runs may differ only in training {PER_REPLICA_FIELDS}")
    cfg = cfgs[0]
    _, shards = build_shards(cfg)
    results = run_experiments(
        shards,
        architectures(cfg),
        [round_config(c) for c in cfgs],
        rounds=cfg.training.rounds,
        seed=cfg.seed,
        num_classes=cfg.dataset.classes,
        scenario=cfg.model.scenario,
        snapshot_dirs=snapshot_dirs,
        normalize_stacking=cfg.output.normalized_stacking,
    )
    return [
        result if isinstance(result, NumericFailureError)
        else ScenarioRun(scenario=cfg.model.scenario, data_seed=cfg.seed, reports=result)
        for result in results
    ]


def write_rounds_jsonl(reports, path) -> None:
    """One sorted-key JSON object per line; no timestamps, byte-stable."""
    with open(path, "w") as fh:
        for rep in reports:
            fh.write(json.dumps(rep.to_json_dict(), sort_keys=True))
            fh.write("\n")


def execute_run(cfg: ExperimentConfig, out_dir=None) -> ScenarioRun:
    """Full artifact-producing run: config.echo, rounds.jsonl, summary.csv
    and optional prototypes/round_<k>.csv snapshots."""
    out_dir = out_dir or cfg.output.directory
    os.makedirs(out_dir, exist_ok=True)
    snapshot_dir = (
        os.path.join(out_dir, "prototypes") if cfg.output.prototype_snapshots else None
    )
    echo_config(cfg, os.path.join(out_dir, "config.echo"))
    run = run_scenario(cfg, snapshot_dir=snapshot_dir)
    write_rounds_jsonl(run.reports, os.path.join(out_dir, "rounds.jsonl"))
    write_round_summary_csv(summary_rows(run), os.path.join(out_dir, "summary.csv"))
    return run
