"""Experiment execution behind the CLI: run, sweep, tune, verify, budget."""

from __future__ import annotations

import itertools
import os
from dataclasses import astuple, dataclass, replace
from functools import partial
from typing import Optional

import numpy as np

from . import estimators, theory
from .compressors import (Compressor, UnsupportedCompositionError,
                          compressed_oracle, is_identity, rand_k_compressor,
                          rand_k_unbiased_compressor, scale_compressor,
                          top_k_compressor)
from .config import (ConfigError, ExperimentConfig, OracleSpec, RunSpec,
                     SweepSpec, TuneSpec, _fmt_value, parse_config, problem_dim)
from .oracles import (BiasedOracle, additive_bias_oracle, exact_oracle,
                      gaussian_noise_oracle, gaussian_smoothing_oracle,
                      huber_shifted_oracle, inexact_oracle, tightness_oracle,
                      uniform_direction)
from .optimizer import (RepeatedRuns, StepSchedule, sgd_run_repeated,
                        sgd_run_repeated_many)
from .problems import Problem, make_huber_problem, make_nesterov_worst, scaled_x0
from .svgplot import panel_grid
# tune_stepsize has no caller here, but perfbench/tracer.py wraps it by name
from .tuning import tune_stepsize, tune_stepsize_many  # noqa: F401

CSV_HEADER = "t,mean_f_gap,se_f_gap,mean_grad_norm_sq,se_grad_norm_sq"


def build_problem(cfg: ExperimentConfig) -> Problem:
    if cfg.problem.kind == "huber":
        return make_huber_problem()
    return make_nesterov_worst(cfg.problem.dim)


def _build_compressor(cfg: ExperimentConfig, dim: int) -> Optional[Compressor]:
    o = cfg.oracle
    if o.compressor == "none":
        return None
    if o.compressor == "top_k":
        return top_k_compressor(o.k, dim)
    if o.compressor == "rand_k":
        return rand_k_compressor(o.k, dim)
    if o.compressor == "rand_k_unbiased":
        return rand_k_unbiased_compressor(o.k, dim)
    return scale_compressor(o.delta, dim)


def build_oracle(cfg: ExperimentConfig, p: Problem,
                 estimate_missing_bounds: bool = True) -> tuple:
    """Construct the configured oracle chain: base -> +noise -> +bias -> compress.

    Returns (oracle, bounds_source) where bounds_source is "derived",
    "estimated" (fitted by `estimators.fit_oracle_bounds` where the composition
    rules stop), or "unavailable" (not fitted).
    """
    spec = cfg.oracle
    if spec.kind == "huber_shifted":
        _, base = huber_shifted_oracle(p)
    elif spec.kind == "gaussian_smoothing":
        base = gaussian_smoothing_oracle(p, spec.tau)
    elif spec.kind == "tightness":
        b = np.sqrt(spec.zeta_sq) * uniform_direction(p.dim)
        base = tightness_oracle(p, spec.m, spec.zeta_sq, b)
    elif spec.kind == "inexact":
        base = inexact_oracle(p, spec.delta)
    else:
        base = exact_oracle(p)

    # each stage returns its inner oracle at zero
    o = gaussian_noise_oracle(p, spec.noise_sigma_sq, inner=base)
    o = additive_bias_oracle(o, spec.bias_zeta, uniform_direction(p.dim))

    comp = _build_compressor(cfg, p.dim)
    if comp is None:
        return o, "derived"
    try:
        return compressed_oracle(comp, o, p), "derived"
    except UnsupportedCompositionError:
        o = compressed_oracle(comp, o, p, bounds_mode="query_only")
    if not estimate_missing_bounds:
        # query stream only (tuning); the placeholder bounds are not used
        return o, "unavailable"
    fit = estimators.fit_oracle_bounds(o, p, seed=cfg.run.seed)
    if not fit.feasible:
        raise UnsupportedCompositionError(
            f"fitted bias slope for {o.name} reaches 1; the bound "
            "parameterization requires m < 1")
    return o.with_bounds(fit.bounds), "estimated"


def _x0(cfg: ExperimentConfig, p: Problem) -> np.ndarray:
    if cfg.problem.kind == "huber":
        return p.default_x0
    return scaled_x0(p, cfg.run.x0_gap)


def _resolved_stepsize(cfg: ExperimentConfig, p: Problem,
                       o: BiasedOracle) -> float:
    r = cfg.run
    if r.stepsize_policy == "fixed":
        return r.stepsize
    if r.stepsize_policy == "theory_smooth":
        return theory.smooth_stepsize(r.policy_eps, p.smoothness_L, o.bounds)
    if p.pl_mu is None:
        raise ConfigError("stepsize_policy=theory_pl needs a problem with a PL constant")
    return theory.pl_stepsize(r.policy_eps, p.smoothness_L, p.pl_mu, o.bounds)


def write_trace_csv(path: str, agg: RepeatedRuns) -> None:
    cols = (agg.t.astype(np.int64), agg.mean_f_gap, agg.se_f_gap,
            agg.mean_grad_norm_sq, agg.se_grad_norm_sq)
    lines = [CSV_HEADER] + [f"{t},{a!r},{b!r},{c!r},{d!r}"
                            for t, a, b, c, d in zip(*(c.tolist() for c in cols))]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_kv(path: str, pairs: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, val in pairs.items():
            fh.write(f"{key} = {val}\n")


@dataclass
class RunOutput:
    agg: RepeatedRuns
    summary: dict


def _cell_summary(cfg: ExperimentConfig, p: Problem, o: BiasedOracle,
                  bounds_source: str, gamma: float, agg: RepeatedRuns) -> dict:
    """A cell's summary.txt; `gamma` is the stepsize its run stepped with."""
    b = o.bounds
    floor = "-"
    if p.pl_mu is not None:
        try:
            floor = repr(theory.error_floor(gamma, p.smoothness_L, p.pl_mu, b))
        except ValueError:  # gamma above the stepsize cap: no floor is proved
            pass
    psi = float(np.mean(agg.mean_grad_norm_sq[:-1])) \
        if len(agg.t) > 1 else float(agg.mean_grad_norm_sq[0])
    return {
        "fingerprint": cfg.fingerprint(),
        "problem": p.name,
        "oracle": o.name,
        "bounds_source": bounds_source,
        "bounds_m": repr(b.m), "bounds_zeta_sq": repr(b.zeta_sq),
        "bounds_M": repr(b.M), "bounds_sigma_sq": repr(b.sigma_sq),
        "stepsize": repr(gamma),
        "T": cfg.run.T, "reps": cfg.run.reps, "seed": cfg.run.seed,
        "final_mean_f_gap": repr(float(agg.mean_f_gap[-1])),
        "final_se_f_gap": repr(float(agg.se_f_gap[-1])),
        "tail_mean_f_gap": repr(agg.tail_mean_f_gap()),
        "psi": repr(psi),
        "predicted_floor": floor,
        "diverged": "true" if agg.any_diverged else "false",
        "diverged_reps": len(agg.diverged_reps),
        "diverged_detail": " ".join(f"{d.rep}:{d.reason}@{d.iteration}"
                                    for d in agg.diverged_reps) or "-",
    }


def _write_run(out_dir: str, cfg: ExperimentConfig, agg: RepeatedRuns,
               summary: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    write_trace_csv(os.path.join(out_dir, "trace.csv"), agg)
    write_kv(os.path.join(out_dir, "summary.txt"), summary)
    _write_text(out_dir, "config.cfg", cfg.canonical())


def _build_run(cfg: ExperimentConfig, p: Problem) -> tuple:
    """(oracle, bounds source, schedule) of the run `cfg` asks for on `p`."""
    o, bounds_source = build_oracle(cfg, p)
    return o, bounds_source, StepSchedule.constant(_resolved_stepsize(cfg, p, o))


def run_experiment(cfg: ExperimentConfig,
                   out_dir: Optional[str] = None) -> RunOutput:
    """Execute one repeated run; optionally write trace.csv and summary.txt."""
    p = build_problem(cfg)
    o, bounds_source, sched = _build_run(cfg, p)
    agg = sgd_run_repeated(p, o, sched, cfg.run.T, cfg.run.reps, cfg.run.seed,
                           x0=_x0(cfg, p), keep_traces=False)
    summary = _cell_summary(cfg, p, o, bounds_source, sched.gamma, agg)
    if out_dir is not None:
        _write_run(out_dir, cfg, agg, summary)
    return RunOutput(agg=agg, summary=summary)


def expand_cells(cfg: ExperimentConfig) -> list:
    """Cartesian product of the sweep axes as (label, overrides) pairs."""
    if cfg.sweep is None or not cfg.sweep.axes:
        raise ConfigError("sweep requires a [sweep] section with at least one axis")
    keys = [k for k, _ in cfg.sweep.axes]
    values = [v for _, v in cfg.sweep.axes]
    cells = []
    for combo in itertools.product(*values):
        overrides = dict(zip(keys, combo))
        label = "_".join(f"{k}={_fmt_value(v)}" for k, v in overrides.items())
        cells.append((label, overrides))
    return cells


def _cell_config(cfg: ExperimentConfig, overrides: dict) -> ExperimentConfig:
    return replace(cfg, sweep=None, tune=None).with_overrides(**overrides)


def _run_config(cfg: ExperimentConfig, tune: bool = False) -> ExperimentConfig:
    """The run a cell asks for: its config without the fields the run ignores.

    An identity compressor (`compressors.is_identity`: top_k, rand_k and
    rand_k_unbiased at k = d, scale at delta = 1) runs as `none`, whose
    bounds it has, and a field that only some oracles read takes its default
    where this one does not. `stepsize` is ignored under a theory policy and
    `policy_eps` under `fixed`; `tune`'s grid search uses neither.
    """
    o, r = cfg.oracle, cfg.run
    if is_identity(o.compressor, problem_dim(cfg.problem), o.k, o.delta):
        o = replace(o, compressor="none")
    reads = {"k": o.compressor not in ("none", "scale"),
             "tau": o.kind == "gaussian_smoothing",
             "m": o.kind == "tightness", "zeta_sq": o.kind == "tightness",
             "delta": o.kind == "inexact" or o.compressor == "scale"}
    o = replace(o, **{f: getattr(OracleSpec, f) for f, read in reads.items()
                      if not read})
    if tune or r.stepsize_policy != "fixed":
        r = replace(r, stepsize=RunSpec.stepsize)
    if tune or r.stepsize_policy == "fixed":
        r = replace(r, policy_eps=RunSpec.policy_eps)
    return replace(cfg, oracle=o, run=r)


def _map(fn, tasks: list, workers: int) -> list:
    """fn on min(workers, len(tasks)) parts of `tasks`, one process each;
    fn(part) gives one out per task, and the outs come back in task order.

    Part i takes tasks i, i + n, i + 2n, ..., so that the runs of one kind
    (fig6's three long sigma^2 = 100 searches come last) spread over the
    processes instead of filling the last part.
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    n = min(workers, len(tasks))
    if n <= 1:
        return fn(tasks) if tasks else []
    # imported here so that serial runs do not pay its import time
    from concurrent.futures import ProcessPoolExecutor
    outs = [None] * len(tasks)
    with ProcessPoolExecutor(max_workers=n) as pool:
        parts = pool.map(fn, [tasks[i::n] for i in range(n)])
        for i, part_outs in enumerate(parts):
            outs[i::n] = part_outs
    return outs


def _run_cells(cfg: ExperimentConfig, cells: list, part, workers: int,
               tune: bool) -> tuple:
    """(per cell its out, the number of distinct runs) of `part` on `cells`.

    Cells that ask for the same run (`_run_config`) share it: `part` gets
    one task (run config, [(label, cell config), ...]) per distinct run and
    gives per task one out per cell; `_map` spreads the tasks over the
    processes.
    """
    base = parse_config(cfg.canonical())
    cell_cfgs = [_cell_config(base, overrides) for _, overrides in cells]
    groups: dict = {}  # run text -> (run config, [indices of its cells])
    for i, cell in enumerate(cell_cfgs):
        run = _run_config(cell, tune)
        groups.setdefault(run.canonical(), (run, []))[1].append(i)
    tasks = [(run, [(cells[i][0], cell_cfgs[i]) for i in idx])
             for run, idx in groups.values()]
    outs = [None] * len(cells)
    for (_, idx), task_outs in zip(groups.values(), _map(part, tasks, workers)):
        for i, out in zip(idx, task_outs):
            outs[i] = out
    return outs, len(tasks)


def _batched(build, run, tasks: list) -> list:
    """Per task (member, result), or the error message of its failure:
    build(task) gives its member, and run(members) one result (or the
    exception of a failed run) per member, all members in one call.

    A task whose build raises stays out of the call. Failures are caught
    here and in the engine, so serial and pooled runs record them alike.
    """
    built = []
    for task in tasks:
        try:
            built.append(build(task))
        except Exception as exc:  # noqa: BLE001 - cell failures are data, not fatal
            built.append(str(exc))
    members = [m for m in built if not isinstance(m, str)]
    results = iter(run(members) if members else [])
    for i, m in enumerate(built):
        if not isinstance(m, str):
            res = next(results)
            built[i] = str(res) if isinstance(res, Exception) else (m, res)
    return built


def _sweep_part(out_dir: str, tasks: list) -> list:
    """Distinct runs stepped as one engine run, each written out under
    `out_dir`/cells for the sweep cells that ask for it.

    Returns per run its cells' (summary, t, mean_f_gap), or the error message
    of a failed cell: a failed run fails every cell of its group, a failed
    oracle build only its own cell. Each cell's summary is built from its own
    config and oracle (name, fingerprint, bounds, predicted floor). The
    oracles are built on one problem, so their chains share its gradient.
    """
    cfg = tasks[0][0]  # no sweep axis changes the problem, T, reps, seed or x0
    p, r = build_problem(cfg), cfg.run

    def run(members: list) -> list:
        return sgd_run_repeated_many(p, [(o, sched) for o, _, sched in members],
                                     r.T, r.reps, r.seed, x0=_x0(cfg, p),
                                     keep_traces=False)

    outs = []
    runs = _batched(lambda task: _build_run(task[0], p), run, tasks)
    for (run_cfg, cells), res in zip(tasks, runs):
        if isinstance(res, str):
            outs.append([res] * len(cells))
            continue
        (run_o, run_source, sched), agg = res
        cell_outs = []
        for label, cfg in cells:
            try:
                if cfg.oracle.compressor == run_cfg.oracle.compressor:
                    o, source = run_o, run_source
                else:
                    o, source = build_oracle(cfg, p)
                summary = _cell_summary(cfg, p, o, source, sched.gamma, agg)
                _write_run(os.path.join(out_dir, "cells", label), cfg, agg, summary)
            except Exception as exc:  # noqa: BLE001
                cell_outs.append(str(exc))
                continue
            cell_outs.append((summary, agg.t, agg.mean_f_gap))
        outs.append(cell_outs)
    return outs


def _tune_part(tune: TuneSpec, tasks: list) -> list:
    """Distinct searches stepped as one engine run: per search its cells'
    result, or the error message.

    The result leaves out the search history, of which the race figure needs
    only the race curve (`TuneResult.race`). The oracles are built on one
    problem, so their chains share its gradient.
    """
    cfg = tasks[0][0]  # no sweep axis changes the problem or the search
    p = build_problem(cfg)

    def build(task) -> BiasedOracle:
        return build_oracle(task[0], p, estimate_missing_bounds=False)[0]

    def run(members: list) -> list:
        return tune_stepsize_many(p, members, tune.target_eps,
                                  grid=tune.grid or None, reps=tune.reps,
                                  max_T=tune.max_T, seed=cfg.run.seed,
                                  x0=_x0(cfg, p), keep_history=False)

    return [[res if isinstance(res, str) else res[1]] * len(cells)
            for (_, cells), res in zip(tasks, _batched(build, run, tasks))]


@dataclass
class CellsOutput:
    # dicts: label, overrides, and the cell's output (sweep: summary; tune:
    # result, a TuneResult), or error (the message of a failed cell)
    cells: list
    out_dir: str
    distinct_runs: int  # engine runs or searches the cells shared out


def _placement(cfg: ExperimentConfig, label: str, overrides: dict) -> tuple:
    """(panel title, series label) of a cell in the figures and the manifest:
    its values of the `panel_by` and `series_by` axes, or "sweep" and its
    label where these are unset."""
    s = cfg.sweep or SweepSpec()

    def axis(key: str) -> str:
        return f"{key}={_fmt_value(overrides[key])}"

    series = s.series_by.strip()
    title = ", ".join(map(axis, s.panel_keys)) or "sweep"
    return title, axis(series) if series else label


def _write_text(out_dir: str, name: str, text: str) -> None:
    with open(os.path.join(out_dir, name), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_figure(out_dir: str, name: str, panels: dict) -> None:
    """The figure of the cells' series, when a cell has one; else no figure,
    and an earlier run's is removed, since it would mislead."""
    if panels:
        _write_text(out_dir, name, panel_grid(list(panels.items())))
    elif os.path.exists(path := os.path.join(out_dir, name)):
        os.remove(path)


def sweep_experiment(cfg: ExperimentConfig, out_dir: str,
                     workers: int = 1) -> CellsOutput:
    """Run every sweep cell, then write cell CSVs, manifest.txt, figure.svg.

    Cells that ask for the same run (`_run_config`) share one result, and
    the distinct runs are stepped as the members of one engine run (one per
    process under `workers`). A failing cell is recorded in the manifest and
    does not abort the sweep.
    """
    cells = expand_cells(cfg)
    outs, runs = _run_cells(cfg, cells, partial(_sweep_part, out_dir), workers,
                            tune=False)
    os.makedirs(out_dir, exist_ok=True)
    target = cfg.tune.target_eps if cfg.tune is not None else None
    panels: dict = {}
    records = []
    lines = [f"# sweep manifest  fingerprint={cfg.fingerprint()}"]
    for (label, overrides), res in zip(cells, outs):
        records.append({"label": label, "overrides": overrides})
        if isinstance(res, str):
            records[-1]["error"] = res
            lines.append(f"cell={label} status=failed error={res}")
            continue
        s, t, gap = res
        records[-1]["summary"] = s
        title, series = _placement(cfg, label, overrides)
        panels.setdefault(title, []).append((series, t, gap))
        reach = "-"
        if target is not None:
            hit = np.nonzero(gap <= target)[0]
            reach = str(int(t[hit[0]])) if hit.size else "did-not-reach"
        lines.append(
            f"cell={label} panel={title!r} series={series!r} "
            f"csv=cells/{label}/trace.csv fingerprint={s['fingerprint']} "
            f"floor_estimate={s['tail_mean_f_gap']} predicted_floor={s['predicted_floor']} "
            f"iterations_to_target={reach} diverged={s['diverged']}")
    _write_figure(out_dir, "figure.svg", panels)
    _write_text(out_dir, "manifest.txt", "\n".join(lines) + "\n")
    write_kv(os.path.join(out_dir, "sweep_summary.txt"),
             {"fingerprint": cfg.fingerprint(), "cells": len(cells),
              "distinct_runs": runs,
              "failed": sum(isinstance(res, str) for res in outs)})
    return CellsOutput(cells=records, out_dir=out_dir, distinct_runs=runs)


def tune_experiment(cfg: ExperimentConfig, out_dir: str,
                    workers: int = 1) -> CellsOutput:
    """Grid-tune the stepsize for each sweep cell (or the single configuration).

    Writes tune.csv (one row per cell and grid stepsize), tune_summary.txt
    (best stepsize and iterations-to-target per cell, or the error of a
    failed cell), and a race figure of each cell's rep-mean gap at its tuned
    stepsize, taken from the search itself. Cells that ask for the same
    search (`_run_config`) share it, and the distinct searches are stepped as
    the members of one engine run (one per process under `workers`). A
    failing cell is recorded in the summary and does not abort the others.
    """
    if cfg.tune is None:
        raise ConfigError("tune needs a [tune] section (or use --figure fig6)")
    cells = expand_cells(cfg) if cfg.sweep is not None else [("all", {})]
    outs, runs = _run_cells(cfg, cells, partial(_tune_part, cfg.tune), workers,
                            tune=True)
    os.makedirs(out_dir, exist_ok=True)
    panels: dict = {}
    records = []
    rows = ["cell,gamma,reached,iterations,best_gap,diverged,censored_at"]
    lines = [f"# tune summary  fingerprint={cfg.fingerprint()} "
             f"target_eps={cfg.tune.target_eps!r} max_T={cfg.tune.max_T}"]
    for (label, overrides), out in zip(cells, outs):
        records.append({"label": label, "overrides": overrides})
        if isinstance(out, str):
            records[-1]["error"] = out
            lines.append(f"cell={label} status=failed error={out}")
            continue
        res = records[-1]["result"] = out
        for e in res.entries:
            rows.append(f"{label},{e.gamma!r},{int(e.reached)},"
                        f"{e.iterations if e.reached else ''},{e.best_gap!r},"
                        f"{int(e.diverged)},"
                        f"{e.censored_at if e.censored_at is not None else ''}")
        best = res.best
        if best is not None:
            lines.append(f"cell={label} best_gamma={best.gamma!r} "
                         f"iterations={best.iterations}")
        else:
            lines.append(f"cell={label} best_gamma=did-not-reach "
                         f"best_gap={res.best_gap!r}")
        if res.race is not None:  # None: every stepsize diverged
            entry, t, gap = res.race
            title, series = _placement(cfg, label, overrides)
            panels.setdefault(title, []).append((f"{series} (g={entry.gamma:g})", t, gap))
    _write_text(out_dir, "tune.csv", "\n".join(rows) + "\n")
    _write_text(out_dir, "tune_summary.txt", "\n".join(lines) + "\n")
    _write_figure(out_dir, "race.svg", panels)
    return CellsOutput(cells=records, out_dir=out_dir, distinct_runs=runs)


TABLE1_SPECS = (
    ("top_k", dict(compressor="top_k", k=1)),
    ("rand_k", dict(compressor="rand_k", k=1)),
    ("rand_k_stochastic", dict(compressor="rand_k", k=1, noise_sigma_sq=1.0)),
    ("gaussian_smoothing_d2_tau0.1", dict(kind="gaussian_smoothing", tau=0.1), 2),
    ("gaussian_smoothing_d2_tau0.01", dict(kind="gaussian_smoothing", tau=0.01), 2),
    ("gaussian_smoothing_d5_tau0.1", dict(kind="gaussian_smoothing", tau=0.1), 5),
    ("gaussian_smoothing_d5_tau0.01", dict(kind="gaussian_smoothing", tau=0.01), 5),
    ("inexact_oracle", dict(kind="inexact", delta=0.1)),
    ("stochastic_inexact_oracle", dict(kind="inexact", delta=0.1, noise_sigma_sq=1.0)),
    ("delta_compressor", dict(compressor="scale", delta=0.36)),
)


def table1_oracles() -> list:
    """(row name, problem, oracle) for every implemented special-case row, on
    the default quadratic unless the row names its dimension; rows on one
    problem config share one problem, as a sweep part's oracles do."""
    rows, problems = [], {}
    for spec in TABLE1_SPECS:
        name, overrides = spec[0], dict(spec[1])
        cfg = ExperimentConfig().with_overrides(**overrides)
        if len(spec) > 2:
            cfg = replace(cfg, problem=replace(cfg.problem, dim=spec[2]))
        if cfg.problem not in problems:
            problems[cfg.problem] = build_problem(cfg)
        p = problems[cfg.problem]
        o, _ = build_oracle(cfg, p)
        rows.append((name, p, o))
    return rows


def verify_experiment(cfg: Optional[ExperimentConfig], out_dir: Optional[str],
                      samples: int = 100_000, n_points: int = 20,
                      seed: int = 0) -> tuple[list, str]:
    """verify_declared for the configured oracle, or all special-case rows,
    the rows on one problem sampled in lockstep (`verify_declared_many`).

    Returns (reports, table): the (row name, report) pairs and the markdown
    table mirroring the declared vs fitted parameters, which is also written
    to `out_dir`/verify.md when `out_dir` is given.
    """
    if cfg is not None:
        p = build_problem(cfg)
        o, _ = build_oracle(cfg, p)
        rows = [(o.name, p, o)]
        seed = cfg.run.seed
    else:
        rows = table1_oracles()

    reports = [None] * len(rows)
    for p in {id(p): p for _, p, _ in rows}.values():
        lot = [i for i, row in enumerate(rows) if row[1] is p]
        for i, rep in zip(lot, estimators.verify_declared_many(
                [rows[i][2] for i in lot], p, n_points=n_points,
                samples=samples, seed=seed)):
            reports[i] = (rows[i][0], rep)

    lines = ["| oracle | m | zeta^2 | M | sigma^2 | m_hat | zeta^2_hat | M_hat "
             "| sigma^2_hat | bias | noise |",
             "|---|---|---|---|---|---|---|---|---|---|---|"]
    for name, rep in reports:
        d, f = rep.declared, rep.fitted
        def v(verdict):
            return verdict.verdict if verdict.ok else \
                f"violated(margin={verdict.margin:.3g})"
        # (m, zeta^2, M, sigma^2) fitted, or "-" where no fit was possible
        fitted = ["-"] * 4 if f is None else [f"{x:.4g}" for x in astuple(f.bounds)]
        lines.append(
            f"| {name} | {d.m:g} | {d.zeta_sq:.6g} | {d.M:g} | {d.sigma_sq:.6g} "
            f"| {' | '.join(fitted)} | {v(rep.bias)} | {v(rep.noise)} |")
    table = "\n".join(lines) + "\n"
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        _write_text(out_dir, "verify.md", table)
    return reports, table


def budget_report(cfg: ExperimentConfig, eps: float) -> str:
    """Printed stepsize / iteration / floor predictions for both regimes."""
    if not 0.0 < eps < np.inf:
        raise ConfigError(f"eps must be positive and finite, got {eps}")
    p = build_problem(cfg)
    o, source = build_oracle(cfg, p)
    b = o.bounds
    F0 = cfg.run.x0_gap if cfg.problem.kind != "huber" else p.gap(p.default_x0)
    lines = [f"problem: {p.name} (L={p.smoothness_L:.6g}"
             + (f", mu={p.pl_mu:.6g}" if p.pl_mu else "") + ")",
             f"oracle: {o.name} [{source}] bounds: m={b.m:g} zeta_sq={b.zeta_sq:.6g} "
             f"M={b.M:g} sigma_sq={b.sigma_sq:.6g}",
             f"target eps: {eps:g}, F0: {F0:g}", ""]
    sp = theory.smooth_prediction(eps, p.smoothness_L, F0, b)
    lines += ["smooth regime (measure: avg ||grad f||^2):",
              f"  stepsize = {sp.stepsize:.6g} (headline variant "
              f"{theory.smooth_stepsize(eps, p.smoothness_L, b):.6g})",
              f"  iterations = {sp.iterations}",
              f"  floor = {sp.floor:.6g}"]
    if p.pl_mu is not None:
        pp = theory.pl_prediction(eps, p.smoothness_L, p.pl_mu, F0, b)
        lines += ["PL regime (measure: final f-gap):",
                  f"  stepsize = {pp.stepsize:.6g} (headline variant "
                  f"{theory.pl_stepsize(eps, p.smoothness_L, p.pl_mu, b):.6g})",
                  f"  iterations = {pp.iterations}",
                  f"  floor = {pp.floor:.6g}"]
    else:
        lines += ["PL regime: not applicable (no PL constant)"]
    return "\n".join(lines) + "\n"
