#!/usr/bin/env python3
"""fedstruct benchmark: closed-loop jobs through the public CLI entry point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 38 --trace 0

A workload is one `fedstruct` job, run through `fedstruct.cli.main` in this
process, one job at a time: the next job starts when the previous one ends.
A warm-up, the same job cut to 2 rounds, comes first and is not timed.  Jobs
then repeat until `--seconds` is used up, and times are reported as medians.
The first job's artifacts are the reference that every later job must
reproduce byte for byte.

Workloads (BENCHMARK.json says why each was chosen):
    grid         sweep --loss gcsa --grid 0.1,1,5 at the built-in desk config
    losses       compare-alignments at the desk config with fixed_hypersphere
                 prototypes
    crossdevice  dimensionality: 32 domain-shift clients, 200 samples per
                 class, feature_dim 16, 1 local epoch, participation 0.5,
                 150 rounds, supervised only

The program sees only the config generated from `--seed`: its master seed
is CONFIG_SEEDS[seed % len(CONFIG_SEEDS)].  Every job's best accuracies and
early-round loss terms are checked against reference.json, which
record_reference.py wrote for each of those config seeds (see check_job).

`--trace 0` prints the end-to-end metrics.  `--trace 1` follows each timed
job with a traced one (see spans.py), writes the spans to
.perfbench_run/spans-<workload>-seed<seed>.csv, and prints the per-layer
metrics; the tracing overhead is the median traced job time minus the
median untraced one.  The last line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Every program artifact goes to a temporary directory under .perfbench_run/
that is removed on exit.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_run")
REFERENCE = os.path.join(HERE, "reference.json")

# The first 16 master seeds at which the desk Dirichlet partition yields 28
# batches per local epoch.  Seeds then change the data but not the amount of
# work: every grid job is 16,800 SGD steps and every losses job 8,400 (the
# crossdevice shards are equal-sized at any seed: 14,400 steps).
CONFIG_SEEDS = (0, 2, 4, 7, 9, 10, 13, 20, 22, 26, 27, 30, 31, 32, 34, 36)
# Absolute tolerance on each best accuracy against reference.json.  At the
# commit that recorded the references the match is exact.  Reordering the
# floating-point sums of the forward and backward matrix products (einsum
# instead of BLAS, reversed batch rows) moved a best accuracy by at most
# 0.0083 over all workloads and config seeds (one or two test samples); a
# GCSA gradient of zero moves it by up to 0.08.
ACCURACY_TOL = 0.01
# The mean loss terms of a job's first EARLY_ROUNDS rounds must match
# reference.json to TERMS_RTOL.  Those reorderings moved them by at most
# 3.4e-14 (relative); a zeroed GCSA gradient moved them by over 50%.
EARLY_ROUNDS = 3
TERMS_RTOL = 1e-9
TERMS_ATOL = 1e-12  # for terms that are exactly 0 (a weight of 0)
TERMS = ("sup", "proto", "inst")
WARMUP_ARGV = ("--rounds", "2")  # the warm-up job: the workload's job, cut short
SETUP_PROBES = 7  # fresh-interpreter set-ups per run; the first is a warm-up
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

GRID = ("0.1", "1", "5")
LOSSES = ("mse", "cosine", "gcsa", "rcsa", "contrastive")
SCENARIOS = ("homo_shared", "homo_local", "hetero")


# ---------------------------------------------------------------- workloads


def _sweep_best(out_dir):
    with open(os.path.join(out_dir, "sweep.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    best = {"baseline": float(rows[0]["baseline_best"])}
    for row in rows:
        best[f"lambda={row['lambda']},gamma={row['gamma']}"] = float(row["best_accuracy"])
    return best


def _comparison_best(out_dir):
    with open(os.path.join(out_dir, "comparison.csv"), newline="") as fh:
        return {row["loss"]: float(row["best_accuracy"]) for row in csv.DictReader(fh)}


def _scenario_best(out_dir):
    best = {}
    for scenario in SCENARIOS:
        with open(os.path.join(out_dir, scenario, "rounds.jsonl")) as fh:
            best[scenario] = float(json.loads(fh.read().splitlines()[-1])["best_mean_accuracy"])
    return best


def _early_terms(path):
    """Per round of the first EARLY_ROUNDS: each loss term's mean over the clients."""
    rows = []
    with open(path) as fh:
        for line in fh.read().splitlines()[:EARLY_ROUNDS]:
            clients = json.loads(line)["loss_terms"].values()
            rows.append([statistics.fmean(c[term] for c in clients) for term in TERMS])
    return rows


@dataclass(frozen=True)
class Workload:
    argv: tuple  # subcommand and flags, without --config and --out
    config: dict  # overrides of the built-in desk config
    weights: Callable  # resolved config -> (lambda, gamma) of each run in the job
    read_best: Callable  # output dir -> {label: best mean accuracy}
    runs: tuple = ()  # output subdirectories holding a run's rounds.jsonl

    def read_terms(self, out_dir) -> dict:
        return {run: _early_terms(os.path.join(out_dir, run, "rounds.jsonl")) for run in self.runs}


WORKLOADS = {
    "grid": Workload(
        ("sweep", "--loss", "gcsa", "--grid", ",".join(GRID)),
        {},
        lambda cfg: [(0.0, 0.0)] + [(float(a), float(b)) for a in GRID for b in GRID],
        _sweep_best,
    ),
    "losses": Workload(
        ("compare-alignments",),
        {"training": {"prototype_mode": "fixed_hypersphere"}},
        lambda cfg: [(cfg.training.lam, cfg.training.gamma)] * len(LOSSES),
        _comparison_best,
        LOSSES,
    ),
    "crossdevice": Workload(
        ("dimensionality",),
        {
            "dataset": {"samples_per_class": 200},
            "partition": {"scheme": "domain_shift", "clients": 32},
            "model": {"feature_dim": 16},
            "training": {"local_epochs": 1, "participation_fraction": 0.5, "rounds": 150},
        },
        lambda cfg: [(0.0, 0.0)] * len(SCENARIOS),
        _scenario_best,
        SCENARIOS,
    ),
}

E2E_UNITS = {
    "wall_s": "s",
    "steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "share",
}

# (span name, statistics reported) for the traced run; units below.  `us` is
# inclusive microseconds per call, `self_s` seconds of self time per job.
# Which end-to-end metric each should move, and where:
#   models.*                       wall_s everywhere, most on crossdevice
#   losses.gcsa / the other kernels  grid / losses; never crossdevice
#   local_train_step.self_s        grid and losses (holds _proto_term and
#                                  _instance_term)
#   batch_prototypes               all three (per step on grid and losses,
#                                  full-shard uploads on crossdevice)
#   client_round.self_s, evaluate_accuracy, aggregate_prototypes,
#   effective_dimensionality       crossdevice (about 1% of grid)
#   fixed_hypersphere_prototypes, build_shards, build_model
#                                  setup_s, mostly on losses
#   tensor.as_matrix.calls_per_step  grid and losses (validate-once target)
#   write_rounds_jsonl             losses and crossdevice (artifact I/O)
SPAN_STATS = (
    ("models.forward", ("calls", "us", "self_s")),
    ("models.loss_supervised", ("us", "self_s")),
    ("models.backward_and_step", ("us", "self_s")),
    ("losses.mse", ("calls", "us")),
    ("losses.cosine", ("calls", "us")),
    ("losses.gcsa", ("calls", "us")),
    ("losses.rcsa", ("calls", "us")),
    ("losses.contrastive", ("calls", "us")),
    ("federation.local_train_step", ("self_s",)),
    ("federation.batch_prototypes", ("calls", "us")),
    ("federation.client_round", ("self_s",)),
    ("federation.evaluate_accuracy", ("calls", "us")),
    ("federation.aggregate_prototypes", ("calls", "us")),
    ("analysis.effective_dimensionality", ("calls", "us")),
    ("federation.fixed_hypersphere_prototypes", ("us",)),
    ("runner.build_shards", ("us",)),
    ("models.build_model", ("us",)),
    ("runner.write_rounds_jsonl", ("calls", "us")),
)
STAT_UNITS = {"calls": "count", "us": "us", "self_s": "s"}
PER_LAYER_UNITS = {
    **{f"{name}.{stat}": STAT_UNITS[stat] for name, stats in SPAN_STATS for stat in stats},
    "runner.write_rounds_jsonl.bytes": "B",
    "tensor.as_matrix.calls_per_step": "1/step",
    "federation.align_skip_ratio": "ratio",
    "federation.diverged_runs": "count",
    "trace.overhead_s": "s",
}


# ------------------------------------------------------------------ set-up


def pin_blas_threads() -> dict:
    """One BLAS thread, whatever the caller's environment says.

    Must run before numpy is imported.  Returns the thread environment.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in BLAS_THREAD_VARS}


def load_fedstruct():
    """Import fedstruct from this checkout's src/, or exit 2 if it is absent."""
    if not os.path.isfile(os.path.join(SRC, "fedstruct", "cli.py")):
        print(f"fedstruct sources not found under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    import fedstruct.cli

    if not os.path.abspath(fedstruct.cli.__file__).startswith(SRC + os.sep):
        print(f"imported fedstruct from {fedstruct.cli.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return fedstruct.cli


def machine_facts(threads: dict) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 2 has no mode argument
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "threads": threads,
    }


def write_config(workload: Workload, config_seed: int, directory: str) -> str:
    path = os.path.join(directory, "config.json")
    with open(path, "w") as fh:
        json.dump(dict(workload.config, seed=config_seed), fh, sort_keys=True)
    return path


def planned_work(cfg, shards, weights) -> tuple[int, int]:
    """SGD steps and alignment-term attempts of a job, from config and shard sizes.

    Steps follow client_round's rule (per epoch, contiguous batches of
    batch_size; a one-row remainder is dropped), so no change in how the
    steps are executed, fused or batched can change the count.  Alignment is
    attempted once per enabled term per step from round 1 in aggregate mode
    (round 0 has no global prototypes) and from round 0 with fixed anchors.
    """
    import numpy as np

    tr = cfg.training
    per_client = [
        tr.local_epochs * sum(1 for s in range(0, sh.num_train, tr.batch_size) if sh.num_train - s >= 2)
        for sh in shards
    ]
    n = len(shards)
    per_round = []
    for r in range(tr.rounds):
        if tr.participation_fraction >= 1.0:
            who = range(n)
        else:  # the participation draw documented in fedstruct.runner: (seed, 2, round)
            k = max(1, round(tr.participation_fraction * n))
            rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 2, r]))
            who = rng.choice(n, size=k, replace=False).tolist()
        per_round.append(sum(per_client[i] for i in who))
    first_aligned = 0 if tr.prototype_mode == "fixed_hypersphere" else 1
    steps = attempts = 0
    for lam, gamma in weights:
        steps += sum(per_round)
        attempts += sum(per_round[first_aligned:]) * ((lam > 0) + (gamma > 0))
    return steps, attempts


def measure_setup(config_path: str, tmp: str) -> float:
    """Median set-up seconds over fresh interpreters; the first is discarded."""
    samples = []
    for i in range(SETUP_PROBES):
        out_dir = os.path.join(tmp, f"setup-{i}")
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC, config_path, out_dir],
            capture_output=True, text=True, timeout=120, check=False,
        )
        shutil.rmtree(out_dir, ignore_errors=True)
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{done.stderr}")
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples[1:])


# -------------------------------------------------------------------- jobs


@dataclass
class Job:
    exit_code: int | None
    wall_s: float
    digests: dict  # artifact path (relative) or "<stdout>" -> sha256
    rounds_bytes: int  # size of every rounds.jsonl written
    best: dict | None
    terms: dict | None  # run -> early-round mean loss terms (Workload.read_terms)
    error: str = ""


def run_job(cli, workload: Workload, config_path: str, out_dir: str, extra=()) -> Job:
    """Run one job through cli.main and fingerprint what it wrote."""
    argv = [*workload.argv, "--config", config_path, "--out", out_dir, *extra]
    out, err = io.StringIO(), io.StringIO()
    error = ""
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a crash is a failed job, not a crashed benchmark
        code, error = None, traceback.format_exc()
    wall = time.perf_counter() - t0
    digests = {"<stdout>": hashlib.sha256(out.getvalue().replace(out_dir, "<out>").encode()).hexdigest()}
    rounds_bytes = 0
    for base, _, files in os.walk(out_dir):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                data = fh.read()
            digests[os.path.relpath(path, out_dir)] = hashlib.sha256(data).hexdigest()
            if name == "rounds.jsonl":
                rounds_bytes += len(data)
    best = terms = None
    if code == 0:
        try:
            best, terms = workload.read_best(out_dir), workload.read_terms(out_dir)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            error = f"unreadable artifacts: {exc!r}"
    elif not error:
        error = f"exit code {code}: {err.getvalue().strip()}"
    return Job(code, wall, digests, rounds_bytes, best, terms, error)


def check_job(job: Job, first: Job, reference: dict) -> str:
    """Empty if the job exited 0, matches the first job byte for byte and
    matches the reference; else the reason.

    Against the reference: best accuracies within ACCURACY_TOL, no grid
    point that equals the baseline bit for bit unless the reference's does
    (an alignment term that does nothing), and early-round mean loss terms
    within TERMS_RTOL.
    """
    if job.error or job.exit_code != 0:
        return job.error or f"exit code {job.exit_code}"
    if job.digests != first.digests:
        changed = sorted(k for k in set(job.digests) | set(first.digests)
                         if job.digests.get(k) != first.digests.get(k))
        return f"artifacts differ from the first job: {changed}"
    want_best = reference["best"]
    if set(job.best) != set(want_best):
        return f"labels {sorted(job.best)} != reference {sorted(want_best)}"
    baseline, want_baseline = job.best.get("baseline"), want_best.get("baseline")
    for label, want in want_best.items():
        got = job.best[label]
        if want is None:
            if not math.isnan(got):
                return f"{label}: reference diverged, job got {got}"
        elif math.isnan(got) or abs(got - want) > ACCURACY_TOL:
            return f"{label}: best accuracy {got} vs reference {want} (tol {ACCURACY_TOL})"
        if label != "baseline" and got == baseline and want != want_baseline:
            return f"{label}: best accuracy {got} equals the baseline's, the reference's does not"
    if set(job.terms) != set(reference["terms"]):
        return f"runs {sorted(job.terms)} != reference {sorted(reference['terms'])}"
    for run, want_rows in reference["terms"].items():
        got_rows = job.terms[run]
        if len(got_rows) != len(want_rows):
            return f"{run}: {len(got_rows)} early rounds, reference has {len(want_rows)}"
        for r, (got_row, want_row) in enumerate(zip(got_rows, want_rows)):
            for term, got, want in zip(TERMS, got_row, want_row):
                if not math.isclose(got, want, rel_tol=TERMS_RTOL, abs_tol=TERMS_ATOL):
                    return (f"{run} round {r}: mean {term} loss {got!r} vs reference {want!r} "
                            f"(rel tol {TERMS_RTOL})")
    return ""


def reference_for(workload_name: str, config_seed: int) -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)["workloads"][workload_name][str(config_seed)]


def build_tracer():
    from spans import Tracer

    tracer = Tracer()
    tracer.span("fedstruct.cli", "main")
    tracer.span("fedstruct.runner", "run_scenario", keep_return=True)
    tracer.span("fedstruct.runner", "build_shards")
    tracer.span("fedstruct.runner", "write_rounds_jsonl")
    for func in ("run_experiment", "client_round", "local_train_step", "batch_prototypes",
                 "aggregate_prototypes", "evaluate_accuracy", "fixed_hypersphere_prototypes"):
        tracer.span("fedstruct.federation", func)
    for func in ("build_model", "forward", "loss_supervised", "backward_and_step"):
        tracer.span("fedstruct.models", func)
    tracer.span("fedstruct.losses", "pairwise_loss",
                name=lambda kind, *a, **k: f"losses.{getattr(kind, 'name', kind)}")
    tracer.span("fedstruct.losses", "loss_contrastive", name="losses.contrastive")
    tracer.span("fedstruct.analysis", "effective_dimensionality")
    tracer.count("fedstruct.tensor", "as_matrix")
    return tracer


def per_layer_metrics(tracer, jobs: int, rounds_bytes: int, overhead_s: float, steps: int,
                      attempts: int, diverged: int) -> dict:
    """Per-layer metrics of one job, averaged over the `jobs` traced jobs."""
    summary = tracer.summary()
    values = {}
    for name, stats in SPAN_STATS:
        row = summary.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for stat in stats:
            if stat == "calls":
                values[f"{name}.calls"] = row["calls"] / jobs
            elif stat == "us":
                values[f"{name}.us"] = 1e6 * row["total_s"] / row["calls"] if row["calls"] else 0.0
            else:
                values[f"{name}.self_s"] = row["self_s"] / jobs
    skips = sum(rep.skipped_structural_steps
                for run in tracer.returns.get("runner.run_scenario", []) for rep in run.reports)
    values["runner.write_rounds_jsonl.bytes"] = rounds_bytes
    values["tensor.as_matrix.calls_per_step"] = tracer.counts["tensor.as_matrix"] / (steps * jobs)
    values["federation.align_skip_ratio"] = skips / (attempts * jobs) if attempts else 0.0
    values["federation.diverged_runs"] = diverged
    values["trace.overhead_s"] = overhead_s
    return {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in values.items()}


# -------------------------------------------------------------------- main


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = pin_blas_threads()
    cli = load_fedstruct()
    os.makedirs(WORK, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        return measure(cli, args, threads, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def measure(cli, args, threads: dict, tmp: str) -> int:
    from fedstruct.config import load_config
    from fedstruct.runner import build_shards

    workload = WORKLOADS[args.workload]
    config_seed = CONFIG_SEEDS[args.seed % len(CONFIG_SEEDS)]
    config_path = write_config(workload, config_seed, tmp)
    reference = reference_for(args.workload, config_seed)
    cfg = load_config(config_path)
    steps, attempts = planned_work(cfg, build_shards(cfg)[1], workload.weights(cfg))
    print("machine " + json.dumps(machine_facts(threads), sort_keys=True))
    setup_s = None if args.trace else measure_setup(config_path, tmp)

    jobs: list[Job] = []
    failures: list[str] = []
    first: Job | None = None  # the first timed job that passed: the byte reference

    def attempt(warm_up: bool = False) -> Job:
        nonlocal first
        out_dir = tempfile.mkdtemp(prefix="job-", dir=tmp)
        job = run_job(cli, workload, config_path, out_dir, WARMUP_ARGV if warm_up else ())
        shutil.rmtree(out_dir, ignore_errors=True)
        if warm_up:  # shorter than the reference's jobs: it need only exit cleanly
            reason = job.error
        else:
            reason = check_job(job, first or job, reference)
            if first is None and not reason:
                first = job
        jobs.append(job)
        if reason:
            failures.append(reason)
            print(f"job {len(jobs)} FAILED: {reason}", file=sys.stderr)
        print(f"job {len(jobs)}: {job.wall_s:.3f} s", file=sys.stderr)
        return job

    attempt(warm_up=True)
    tracer = build_tracer() if args.trace else None
    walls, traced_walls = [], []
    rounds = 0
    start = time.perf_counter()
    while True:
        job = attempt()
        if job.exit_code == 0:
            walls.append(job.wall_s)
        if tracer:  # alternate untraced and traced jobs so the overhead sees the same machine
            with tracer:
                traced = attempt()
            if traced.exit_code == 0:
                traced_walls.append(traced.wall_s)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed * (rounds + 1) / rounds > args.seconds:
            break
    wall = statistics.median(walls) if walls else float("nan")
    diverged = sum(math.isnan(v) for v in first.best.values()) if first else 0

    if tracer:
        tracer.write(os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.csv"))
        overhead = (statistics.median(traced_walls) if traced_walls else float("nan")) - wall
        metrics = per_layer_metrics(tracer, rounds, traced.rounds_bytes, overhead, steps,
                                    attempts, diverged)
    else:
        values = {
            "wall_s": wall,
            "steps_per_s": steps / wall,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_share": (len(jobs) - len(failures)) / len(jobs),
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    print(f"{args.workload} seed {args.seed} (config seed {config_seed}): {len(jobs)} jobs, "
          f"{len(walls)} timed, {steps} steps per job, {diverged} diverged runs")
    print(json.dumps({"correct": not failures, "attempted": len(jobs),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
