#!/usr/bin/env python3
"""Record reference.json: each workload's best accuracies for every config seed.

    python3 perfbench/record_reference.py [workload ...]

Runs one job per workload and config seed (run.CONFIG_SEEDS) through
the same path as run.py and stores the best mean accuracies it reports (a
diverged run is stored as null) and each run's early-round mean loss terms.  The references pin the behaviour of the
commit they were recorded at.  Re-record them only for a change that is
meant to alter results, and say why in CHANGES.md.
"""

import json
import math
import os
import shutil
import sys
import tempfile

import run


def main(names) -> int:
    run.pin_blas_threads()
    cli = run.load_fedstruct()
    try:
        with open(run.REFERENCE) as fh:
            table = json.load(fh)
    except FileNotFoundError:
        table = {"workloads": {}}
    os.makedirs(run.WORK, exist_ok=True)
    for name in names or sorted(run.WORKLOADS):
        workload = run.WORKLOADS[name]
        table["workloads"][name] = {}
        for seed in run.CONFIG_SEEDS:
            tmp = tempfile.mkdtemp(prefix="reference-", dir=run.WORK)
            try:
                config_path = run.write_config(workload, seed, tmp)
                job = run.run_job(cli, workload, config_path, os.path.join(tmp, "out"))
            finally:
                shutil.rmtree(tmp, ignore_errors=True)
            if job.exit_code != 0 or job.best is None:
                print(f"{name} seed {seed}: {job.error}", file=sys.stderr)
                return 1
            table["workloads"][name][str(seed)] = {
                "best": {k: None if math.isnan(v) else v for k, v in job.best.items()},
                "terms": job.terms,
            }
            print(f"{name} seed {seed}: {job.wall_s:.2f} s", file=sys.stderr)
    with open(run.REFERENCE, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
