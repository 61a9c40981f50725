"""Set-up cost of one workload, measured in a fresh process.

Imports biased_sgd, parses the config and builds every cell's problem and
oracle chain the way the CLI command does, including estimated-bound fitting
(`table1_oracles()` for verify): everything before the first SGD step or
Monte-Carlo draw. Prints one JSON line with its wall time `setup_s` (from
the first line of this file), its CPU time `setup_cpu_s` (from the start of
the process) and the versions of the software measured.

    python3 perfbench/setup_probe.py sweep|tune|verify CONFIG SEED
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402


def build(command: str, config_path: str, seed: int) -> None:
    from biased_sgd import experiments
    from biased_sgd.config import load_config

    if command == "verify":
        experiments.table1_oracles()
        return
    cfg = load_config(config_path).with_overrides(seed=seed)
    base = replace(cfg, sweep=None, tune=None)
    for _, overrides in experiments.expand_cells(cfg):
        cell = base.with_overrides(**overrides)
        p = experiments.build_problem(cell)
        experiments.build_oracle(cell, p, estimate_missing_bounds=command == "sweep")


def versions() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


if __name__ == "__main__":
    build(sys.argv[1], sys.argv[2], int(sys.argv[3]))
    setup_s, setup_cpu_s = time.perf_counter() - _T0, time.process_time()
    print(json.dumps({"setup_s": setup_s, "setup_cpu_s": setup_cpu_s,
                      **versions()}))
