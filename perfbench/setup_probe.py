"""Time one fedstruct run's set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py <src dir> <config.json> <out dir>

Runs `fedstruct run --rounds 0` through fedstruct.cli.main: the program's
own path through import (numpy included), config loading and validation,
data generation, partition, model initialisation and, in fixed_hypersphere
mode, anchor initialisation, with no training round after it.  Prints the
seconds it took as the last line.
"""

import sys
import time

t0 = time.perf_counter()
src, config_path, out_dir = sys.argv[1:4]
sys.path.insert(0, src)

import fedstruct.cli  # noqa: E402

code = fedstruct.cli.main(["run", "--config", config_path, "--rounds", "0", "--out", out_dir])
elapsed = time.perf_counter() - t0
if code != 0:
    sys.exit(code)
print(repr(elapsed))
