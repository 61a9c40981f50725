"""The benchmark's workloads: CLI arguments, requested work and output checks.

Each workload is one `biased-sgd` command on a fixed input, sized so that one
invocation takes 2-4 s of CPU time on a 2-core x86 VM with BLAS pinned to one
thread; a run repeats it and reports medians.

- sweep_fig6grid: fig6's 18-cell grid at a fixed stepsize. The per-rep
  single-point step loop dominates, and 9 of the 18 cells duplicate another
  cell's trace byte for byte (k is ignored without a compressor, and k = d
  compressors are the identity), so cell memoization shows here.
- tune_k1: the lockstep stepsize race at k = 1; no duplicate cells, so it
  is the memoization-bypass case. max_T is small enough that all three
  sigma^2 = 1 cells are censored, which keeps the work nearly independent
  of the seed.
- verify_table1: all Table-1 oracle rows, many draws at fixed points; no
  SGD runs, so it is the bypass case for optimizer and tuning changes.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

CSV_HEADER = "t,mean_f_gap,se_f_gap,mean_grad_norm_sq,se_grad_norm_sq"
TUNE_HEADER = "cell,gamma,reached,iterations,best_gap,diverged,censored_at"
DIM = 10

SWEEP_T = 200
SWEEP_REPS = 20
SWEEP_CELLS = 18
SWEEP_CONFIG = f"""\
[problem]
kind = nesterov_quadratic
dim = {DIM}

[oracle]
kind = exact

[run]
T = {SWEEP_T}
reps = {SWEEP_REPS}
stepsize = 0.01
stepsize_policy = fixed

[sweep]
compressor = none, top_k, rand_k
noise_sigma_sq = 0.0, 1.0, 100.0
k = 1, 10
panel_by = noise_sigma_sq,k
series_by = compressor
"""

TUNE_MAX_T = 5000
TUNE_REPS = 3
TUNE_CELLS = 6
TUNE_CONFIG = f"""\
[problem]
kind = nesterov_quadratic
dim = {DIM}

[oracle]
kind = exact
k = 1

[sweep]
compressor = none, top_k, rand_k
noise_sigma_sq = 0.0, 1.0
panel_by = noise_sigma_sq
series_by = compressor

[tune]
target_eps = 0.0005
max_T = {TUNE_MAX_T}
reps = {TUNE_REPS}
grid = auto
"""

VERIFY_SAMPLES = 50_000
VERIFY_POINTS = 20  # verify's fixed probe-point count
VERIFY_ROWS = 10


@dataclass
class Outcome:
    """What the checks found in one invocation's outputs."""

    failed: int           # failed operations (cells or verify rows)
    digest: str           # sha256 of the byte-compared outputs
    work: float           # requested lane-steps (sweep, tune) or draws (verify)
    duplicate_frac: float  # share of cells whose result repeats another's


@dataclass(frozen=True)
class Workload:
    name: str
    command: str               # biased-sgd subcommand
    config: Optional[str]      # config file text; None runs verify's Table 1
    extra_args: tuple
    operations: int            # cells or rows one invocation attempts
    check: Callable[[Path], Outcome]
    # the reference chunk kind (run.REFERENCES) whose speed moves most like
    # this workload's on a shared host: scaled by it, the workload's CPU
    # time varied least over series of invocations
    reference: str

    def cli_args(self, config_path: Optional[Path], out_dir: Path,
                 seed: int) -> list:
        args = [self.command]
        if config_path is not None:
            args += ["--config", str(config_path)]
        return args + ["--out", str(out_dir), "--seed", str(seed),
                       "--workers", "1", *self.extra_args]


def digest(files: list, root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(files):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def duplicate_frac(keys: list) -> float:
    return (len(keys) - len(set(keys))) / len(keys) if keys else 0.0


def _finite_csv(lines: list) -> bool:
    return all(math.isfinite(float(v)) for line in lines for v in line.split(","))


def check_sweep(out: Path) -> Outcome:
    """Failed cells: status=failed, missing, or a malformed/non-finite trace.csv."""
    manifest = out / "manifest.txt"
    cells = re.findall(r"^cell=(\S+) (.*)$", manifest.read_text(), re.M)
    failed = SWEEP_CELLS - len(cells)
    traces = []
    for label, rest in cells:
        path = out / "cells" / label / "trace.csv"
        if "status=failed" in rest or not path.is_file():
            failed += 1
            continue
        lines = path.read_text().splitlines()
        ok = lines[0] == CSV_HEADER and len(lines) == SWEEP_T + 2
        if ok and "diverged=false" in rest:
            ok = _finite_csv(lines[1:])
        failed += not ok
        traces.append(path)
    return Outcome(
        failed=max(failed, 0), digest=digest(traces + [manifest], out),
        work=float(SWEEP_CELLS * SWEEP_REPS * SWEEP_T),
        duplicate_frac=duplicate_frac([p.read_bytes() for p in traces]))


def auto_grid_size(dim: int) -> int:
    """Stepsizes in tuning.default_gamma_grid for the d-dim Nesterov quadratic.

    Powers 2^-20 .. 1 up to the cap 1/L, plus the cap itself, where
    L = 2 - 2 cos(d pi / (d + 1)) in closed form.
    """
    cap = 1.0 / (2.0 - 2.0 * math.cos(dim * math.pi / (dim + 1)))
    powers = {2.0 ** -k for k in range(21) if 2.0 ** -k <= cap}
    return len(powers | {cap})


def check_tune(out: Path) -> Outcome:
    """Failed cells: fewer or more tune.csv rows than grid stepsizes.

    Requested lane-steps are, per cell, grid x reps x the iteration the
    search stopped at, plus the race rerun's reps x T at the chosen stepsize.
    """
    grid = auto_grid_size(DIM)
    lines = (out / "tune.csv").read_text().splitlines()
    rows: dict = {}
    for line in lines[1:] if lines and lines[0] == TUNE_HEADER else []:
        cell, *fields = line.split(",")
        rows.setdefault(cell, []).append(fields)
    failed = TUNE_CELLS - len(rows) + sum(len(r) != grid for r in rows.values())
    work = 0.0
    for entries in rows.values():
        hits = [int(f[2]) for f in entries if f[1] == "1"]
        censored = [int(f[5]) for f in entries if f[5]]
        stop = min(hits) if hits else (censored[0] if censored else TUNE_MAX_T)
        race_T = max(stop, 10) if hits else min(TUNE_MAX_T, 200_000)
        work += len(entries) * TUNE_REPS * stop + min(TUNE_REPS, 5) * race_T
    files = [out / "tune.csv", out / "tune_summary.txt"]
    return Outcome(failed=max(failed, 0), digest=digest(files, out), work=work,
                   duplicate_frac=duplicate_frac(
                       [repr(sorted(map(tuple, r))) for r in rows.values()]))


def check_verify(out: Path) -> Outcome:
    """Failed rows: missing or marked violated.

    A row whose declared noise bound is zero (M = sigma^2 = 0) is a
    deterministic oracle, which verify samples twice per point.
    """
    table = out / "verify.md"
    rows = [line.split("|")[1:-1] for line in table.read_text().splitlines()[2:]]
    failed = VERIFY_ROWS - len(rows) + sum("violated" in "|".join(r) for r in rows)
    work = 0.0
    for r in rows:
        deterministic = float(r[3]) == 0.0 and float(r[4]) == 0.0
        work += VERIFY_POINTS * (2 if deterministic else VERIFY_SAMPLES)
    return Outcome(failed=max(failed, 0), digest=digest([table], out), work=work,
                   duplicate_frac=duplicate_frac(["|".join(r[1:]) for r in rows]))


WORKLOADS = {w.name: w for w in (
    Workload("sweep_fig6grid", "sweep", SWEEP_CONFIG, (), SWEEP_CELLS, check_sweep,
             "steps"),
    Workload("tune_k1", "tune", TUNE_CONFIG, (), TUNE_CELLS, check_tune, "steps"),
    Workload("verify_table1", "verify", None,
             ("--samples", str(VERIFY_SAMPLES)), VERIFY_ROWS, check_verify,
             "python"),
)}
