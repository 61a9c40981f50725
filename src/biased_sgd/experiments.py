"""Experiment execution behind the CLI: run, sweep, tune, verify, budget."""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import estimators, theory
from .compressors import (Compressor, UnsupportedCompositionError,
                          compressed_oracle, is_identity, rand_k_compressor,
                          rand_k_unbiased_compressor, scale_compressor,
                          top_k_compressor)
from .config import (ConfigError, ExperimentConfig, OracleSpec, RunSpec,
                     parse_config, problem_dim)
from .oracles import (BiasedOracle, additive_bias_oracle, exact_oracle,
                      gaussian_noise_oracle, gaussian_smoothing_oracle,
                      huber_shifted_oracle, inexact_oracle, tightness_oracle,
                      uniform_direction)
from .optimizer import RepeatedRuns, StepSchedule, sgd_run_repeated
from .problems import Problem, make_huber_problem, make_nesterov_worst, scaled_x0
from .svgplot import line_plot, panel_grid
from .tuning import TuneResult, default_gamma_grid, tune_stepsize

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
    "estimated" (compressor composition fitted empirically), or "unavailable".
    """
    spec = cfg.oracle
    if spec.kind == "huber_shifted":
        _, base = huber_shifted_oracle()
    elif spec.kind == "gaussian_smoothing":
        base = gaussian_smoothing_oracle(p, spec.tau)
    elif spec.kind == "tightness":
        b = np.sqrt(spec.zeta_sq) * uniform_direction(p.dim)
        base = tightness_oracle(p, spec.m, spec.zeta_sq, b)
    elif spec.kind == "inexact":
        base = inexact_oracle(p, spec.delta, noise_sigma_sq=spec.noise_sigma_sq)
    else:
        base = exact_oracle(p)

    o = base
    if spec.kind not in ("inexact",) and spec.noise_sigma_sq > 0:
        o = gaussian_noise_oracle(p, spec.noise_sigma_sq, inner=o)
    if spec.bias_zeta != 0.0:
        o = additive_bias_oracle(o, spec.bias_zeta, uniform_direction(p.dim))

    comp = _build_compressor(cfg, p.dim)
    if comp is None:
        return o, "derived"
    try:
        return compressed_oracle(comp, o, p, bounds_mode="derived"), "derived"
    except UnsupportedCompositionError:
        if not estimate_missing_bounds:
            # query stream only (tuning); the placeholder bounds are not used
            return compressed_oracle(comp, o, p, bounds_mode="query_only"), \
                "unavailable"
        return compressed_oracle(comp, o, p, bounds_mode="estimated",
                                 estimate_seed=cfg.run.seed), "estimated"


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
    lines = [CSV_HEADER]
    for i in range(len(agg.t)):
        lines.append(f"{int(agg.t[i])},{float(agg.mean_f_gap[i])!r},"
                     f"{float(agg.se_f_gap[i])!r},"
                     f"{float(agg.mean_grad_norm_sq[i])!r},"
                     f"{float(agg.se_grad_norm_sq[i])!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_kv(path: str, pairs: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, val in pairs.items():
            fh.write(f"{key} = {val}\n")


@dataclass
class RunOutput:
    config: ExperimentConfig
    agg: RepeatedRuns
    summary: dict
    problem: Problem
    oracle: BiasedOracle
    bounds_source: str


def _cell_summary(cfg: ExperimentConfig, p: Problem, o: BiasedOracle,
                  bounds_source: str, agg: RepeatedRuns) -> dict:
    gamma = _resolved_stepsize(cfg, p, o)
    b = o.bounds
    cap = theory.stepsize_cap(p.smoothness_L, b)
    floor = ""
    if p.pl_mu is not None and bounds_source != "unavailable" and gamma <= cap * (1 + 1e-9):
        floor = repr(theory.error_floor(gamma, p.smoothness_L, p.pl_mu, b))
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
        "predicted_floor": floor if floor else "-",
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
    with open(os.path.join(out_dir, "config.cfg"), "w", encoding="utf-8") as fh:
        fh.write(cfg.canonical())


def run_experiment(cfg: ExperimentConfig,
                   out_dir: Optional[str] = None) -> RunOutput:
    """Execute one repeated run; optionally write trace.csv and summary.txt."""
    p = build_problem(cfg)
    o, bounds_source = build_oracle(cfg, p)
    gamma = _resolved_stepsize(cfg, p, o)
    agg = sgd_run_repeated(p, o, StepSchedule.constant(gamma), cfg.run.T,
                           cfg.run.reps, cfg.run.seed, x0=_x0(cfg, p))
    summary = _cell_summary(cfg, p, o, bounds_source, agg)
    if out_dir is not None:
        _write_run(out_dir, cfg, agg, summary)
    return RunOutput(config=cfg, agg=agg, summary=summary, problem=p, oracle=o,
                     bounds_source=bounds_source)


def expand_cells(cfg: ExperimentConfig) -> list:
    """Cartesian product of the sweep axes as (label, overrides) pairs."""
    if cfg.sweep is None or not cfg.sweep.axes:
        raise ConfigError("sweep requires a [sweep] section with at least one axis")
    keys = [k for k, _ in cfg.sweep.axes]
    values = [v for _, v in cfg.sweep.axes]
    cells = []
    for combo in itertools.product(*values):
        overrides = dict(zip(keys, combo))
        label = "_".join(f"{k}={_label_value(v)}" for k, v in overrides.items())
        cells.append((label, overrides))
    return cells


def _label_value(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


def _cell_config(cfg: ExperimentConfig, overrides: dict) -> ExperimentConfig:
    sub = replace(cfg, sweep=None, tune=None)
    ov = dict(overrides)
    if "stepsize" in ov:
        sub = sub.with_overrides(stepsize=ov.pop("stepsize"))
    return sub.with_overrides(**ov)


def _run_config(cfg: ExperimentConfig, tune: bool = False) -> ExperimentConfig:
    """The run a cell asks for: its config without the fields the run ignores.

    An identity compressor (`compressors.is_identity`: top_k, rand_k and
    rand_k_unbiased at k = d, scale at delta = 1) runs as `none`, whose
    bounds it has; `k` means nothing without a compressor. `stepsize` is
    ignored under a theory policy and `policy_eps` under `fixed`; `tune`'s
    grid search uses neither.
    """
    o, r = cfg.oracle, cfg.run
    if is_identity(o.compressor, problem_dim(cfg.problem), o.k, o.delta):
        o = replace(o, compressor="none")
    if o.compressor == "none":
        o = replace(o, k=OracleSpec.k)
    if tune or r.stepsize_policy != "fixed":
        r = replace(r, stepsize=RunSpec.stepsize)
    if tune or r.stepsize_policy == "fixed":
        r = replace(r, policy_eps=RunSpec.policy_eps)
    return replace(cfg, oracle=o, run=r)


def _distinct_runs(runs: list) -> list:
    """[(run config, [indices of the cells asking for it])], first-seen order."""
    groups: dict = {}
    for i, run in enumerate(runs):
        groups.setdefault(run.canonical(), (run, []))[1].append(i)
    return list(groups.values())


def _map(fn, tasks: list, workers: int) -> list:
    """[fn(task) for task in tasks], in min(workers, len(tasks)) processes."""
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    n = min(workers, len(tasks))
    if n <= 1:
        return [fn(t) for t in tasks]
    # imported here so that serial runs do not pay its import time
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, tasks))


def _fan_out(groups: list, outs: list, n_cells: int) -> list:
    """Per cell, its entry of its group's list of outs."""
    per_cell = [None] * n_cells
    for (_, idx), out in zip(groups, outs):
        for i, o in zip(idx, out):
            per_cell[i] = o
    return per_cell


def _sweep_group(args):
    """One distinct run, written out for each sweep cell that asks for it.

    Returns per cell (summary, t, mean_f_gap), or the error message of a
    failed cell. Failures are caught here, so serial and pooled sweeps record
    them alike: a failed run fails every cell of its group, a failed oracle
    build only its own cell. Each cell's summary is built from its own
    config and oracle (name, fingerprint, bounds, predicted floor).
    """
    run_cfg, members = args
    try:
        run = run_experiment(run_cfg)
    except Exception as exc:  # noqa: BLE001 - cell failures are data, not fatal
        return [str(exc)] * len(members)
    outs = []
    for cfg, cell_dir in members:
        try:
            if cfg.oracle.compressor == run_cfg.oracle.compressor:
                o, source = run.oracle, run.bounds_source
            else:
                o, source = build_oracle(cfg, run.problem)
            summary = _cell_summary(cfg, run.problem, o, source, run.agg)
            _write_run(cell_dir, cfg, run.agg, summary)
        except Exception as exc:  # noqa: BLE001
            outs.append(str(exc))
            continue
        outs.append((summary, run.agg.t, run.agg.mean_f_gap))
    return outs


@dataclass
class SweepOutput:
    cells: list  # dicts: label, overrides, summary, curve (t, mean_f_gap)
    panels: list  # (panel_title, [series labels])
    out_dir: str
    distinct_runs: int  # engine runs the cells shared out


def _panel_keys(cfg: ExperimentConfig) -> tuple:
    s = cfg.sweep
    if s is None:  # a single tuned configuration
        return [], ""
    panel = [k.strip() for k in s.panel_by.split(",") if k.strip()] if s.panel_by else []
    series = s.series_by.strip() if s.series_by else ""
    return panel, series


def _series_label(series_key: str, overrides: dict, label: str) -> str:
    if series_key and series_key in overrides:
        return f"{series_key}={_label_value(overrides[series_key])}"
    return label


def _panel_title(panel_keys: list, overrides: dict) -> str:
    if not panel_keys:
        return "sweep"
    return ", ".join(f"{k}={_label_value(overrides[k])}"
                     for k in panel_keys if k in overrides)


def sweep_experiment(cfg: ExperimentConfig, out_dir: str,
                     workers: int = 1) -> SweepOutput:
    """Run every sweep cell, then write per-cell CSVs, figure.svg, manifest.txt.

    Cells that ask for the same run (`_run_config`) share one engine run.
    A failing cell is recorded in the manifest and does not abort the sweep.
    """
    cells = expand_cells(cfg)
    base = parse_config(cfg.canonical())
    cell_cfgs = [_cell_config(base, ov) for _, ov in cells]
    groups = _distinct_runs([_run_config(c) for c in cell_cfgs])
    tasks = [(run, [(cell_cfgs[i], os.path.join(out_dir, "cells", cells[i][0]))
                    for i in idx]) for run, idx in groups]
    outs = _fan_out(groups, _map(_sweep_group, tasks, workers), len(cells))
    os.makedirs(out_dir, exist_ok=True)

    panel_keys, series_key = _panel_keys(cfg)
    panels: dict = {}
    records = []
    target = cfg.tune.target_eps if cfg.tune is not None else None
    for (label, overrides), res in zip(cells, outs):
        if isinstance(res, str):
            records.append({"label": label, "error": res})
            continue
        summary, t, gap = res
        title = _panel_title(panel_keys, overrides)
        series = _series_label(series_key, overrides, label)
        panels.setdefault(title, []).append((series, t, gap))
        reach = "-"
        if target is not None:
            hit = np.nonzero(gap <= target)[0]
            reach = str(int(t[hit[0]])) if hit.size else "did-not-reach"
        records.append({"label": label, "overrides": overrides,
                        "summary": summary, "panel": title, "series": series,
                        "reach_t": reach})

    panel_list = [(title, series) for title, series in panels.items()]
    svg = panel_grid(panel_list, columns=min(2, max(1, len(panel_list))),
                     xlabel="iteration t", ylabel="f(x_t) - f*")
    with open(os.path.join(out_dir, "figure.svg"), "w", encoding="utf-8") as fh:
        fh.write(svg)

    lines = [f"# sweep manifest  fingerprint={cfg.fingerprint()}"]
    for rec in records:
        if "error" in rec:
            lines.append(f"cell={rec['label']} status=failed error={rec['error']}")
            continue
        s = rec["summary"]
        lines.append(
            f"cell={rec['label']} panel={rec['panel']!r} series={rec['series']!r} "
            f"csv=cells/{rec['label']}/trace.csv fingerprint={s['fingerprint']} "
            f"floor_estimate={s['tail_mean_f_gap']} predicted_floor={s['predicted_floor']} "
            f"iterations_to_target={rec['reach_t']} diverged={s['diverged']}")
    with open(os.path.join(out_dir, "manifest.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    write_kv(os.path.join(out_dir, "sweep_summary.txt"),
             {"fingerprint": cfg.fingerprint(), "cells": len(cells),
              "distinct_runs": len(groups),
              "failed": sum(isinstance(res, str) for res in outs)})
    return SweepOutput(cells=records,
                       panels=[(t, [s[0] for s in ss]) for t, ss in panels.items()],
                       out_dir=out_dir, distinct_runs=len(groups))


def _tune_group(args):
    """One distinct search: per cell (result, race curve), or the error message.

    The result leaves out the search history, of which the race figure needs
    only the race curve (`TuneResult.race_curve`). Failures are caught here,
    so serial and pooled runs record them alike.
    """
    cfg, tune, n_cells = args
    try:
        p = build_problem(cfg)
        o, _ = build_oracle(cfg, p, estimate_missing_bounds=False)
        grid = list(tune.grid) if tune.grid else default_gamma_grid(p.smoothness_L)
        res = tune_stepsize(p, o, tune.target_eps, grid=grid, reps=tune.reps,
                            max_T=tune.max_T, seed=cfg.run.seed, x0=_x0(cfg, p))
    except Exception as exc:  # noqa: BLE001 - cell failures are data, not fatal
        return [str(exc)] * n_cells
    return [(replace(res, history_t=None, history=None), res.race_curve())] * n_cells


@dataclass
class TuneOutput:
    # dicts: label, overrides, and result (TuneResult) and race (its race
    # curve or None), or error (the message of a failed cell)
    cells: list
    out_dir: str
    distinct_runs: int  # searches the cells shared out


def tune_experiment(cfg: ExperimentConfig, out_dir: Optional[str] = None,
                    workers: int = 1) -> TuneOutput:
    """Grid-tune the stepsize for each sweep cell (or the single configuration).

    Writes tune.csv (one row per cell and grid stepsize), tune_summary.txt
    (best stepsize and iterations-to-target per cell, or the error of a
    failed cell), and a race figure of each cell's rep-mean gap at its tuned
    stepsize, taken from the search itself. Cells that ask for the same
    search (`_run_config`) share it. A failing cell is recorded in the
    summary and does not abort the others.
    """
    if cfg.tune is None:
        raise ConfigError("tune requires a [tune] section")
    base_cells = expand_cells(cfg) if cfg.sweep is not None else [("all", {})]
    base = parse_config(cfg.canonical())
    groups = _distinct_runs([_run_config(_cell_config(base, ov), tune=True)
                             for _, ov in base_cells])
    tasks = [(run, base.tune, len(idx)) for run, idx in groups]
    outs = _fan_out(groups, _map(_tune_group, tasks, workers), len(base_cells))

    cells = [{"label": label, "overrides": ov, "error": out}
             if isinstance(out, str) else
             {"label": label, "overrides": ov, "result": out[0], "race": out[1]}
             for (label, ov), out in zip(base_cells, outs)]
    if out_dir is None:
        return TuneOutput(cells=cells, out_dir="", distinct_runs=len(groups))

    os.makedirs(out_dir, exist_ok=True)
    rows = ["cell,gamma,reached,iterations,best_gap,diverged,censored_at"]
    summary_lines = [f"# tune summary  fingerprint={cfg.fingerprint()} "
                     f"target_eps={cfg.tune.target_eps!r} max_T={cfg.tune.max_T}"]
    for rec in cells:
        if "error" in rec:
            summary_lines.append(f"cell={rec['label']} status=failed "
                                 f"error={rec['error']}")
            continue
        res: TuneResult = rec["result"]
        for e in res.entries:
            rows.append(f"{rec['label']},{e.gamma!r},{int(e.reached)},"
                        f"{e.iterations if e.reached else ''},{e.best_gap!r},"
                        f"{int(e.diverged)},"
                        f"{e.censored_at if e.censored_at is not None else ''}")
        best = res.best
        if best is not None:
            summary_lines.append(f"cell={rec['label']} best_gamma={best.gamma!r} "
                                 f"iterations={best.iterations}")
        else:
            summary_lines.append(f"cell={rec['label']} best_gamma=did-not-reach "
                                 f"best_gap={res.best_gap!r}")
    with open(os.path.join(out_dir, "tune.csv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")
    with open(os.path.join(out_dir, "tune_summary.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(summary_lines) + "\n")

    _write_race_plot(cfg, cells, out_dir)
    return TuneOutput(cells=cells, out_dir=out_dir, distinct_runs=len(groups))


def _write_race_plot(cfg: ExperimentConfig, cells: list, out_dir: str) -> None:
    panel_keys, series_key = _panel_keys(cfg)
    panels: dict = {}
    for rec in cells:
        if rec.get("race") is None:  # failed, or every stepsize diverged
            continue
        entry, t, gap = rec["race"]
        title = _panel_title(panel_keys, rec["overrides"])
        series = _series_label(series_key, rec["overrides"], rec["label"])
        panels.setdefault(title, []).append((f"{series} (g={entry.gamma:g})", t, gap))
    if panels:
        svg = panel_grid(list(panels.items()), columns=min(2, len(panels)),
                         xlabel="iteration t", ylabel="f(x_t) - f*")
        with open(os.path.join(out_dir, "race.svg"), "w", encoding="utf-8") as fh:
            fh.write(svg)


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


def table1_oracles(dim: int = 10) -> list:
    """(row name, problem, oracle) for every implemented special-case row."""
    rows = []
    for spec in TABLE1_SPECS:
        name, overrides = spec[0], dict(spec[1])
        d = spec[2] if len(spec) > 2 else dim
        cfg = ExperimentConfig().with_overrides(**overrides)
        cfg = replace(cfg, problem=replace(cfg.problem, dim=d))
        p = build_problem(cfg)
        o, _ = build_oracle(cfg, p)
        rows.append((name, p, o))
    return rows


def verify_experiment(cfg: Optional[ExperimentConfig], out_dir: Optional[str],
                      samples: int = 100_000, n_points: int = 20,
                      seed: int = 0) -> tuple[list, str]:
    """verify_declared for the configured oracle, or all special-case rows.

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

    reports = []
    for name, p, o in rows:
        rep = estimators.verify_declared(o, p, n_points=n_points,
                                         samples=samples, seed=seed)
        reports.append((name, rep))

    lines = ["| oracle | m | zeta^2 | M | sigma^2 | m_hat | zeta^2_hat | M_hat "
             "| sigma^2_hat | bias | noise |",
             "|---|---|---|---|---|---|---|---|---|---|---|"]
    for name, rep in reports:
        d, f = rep.declared, rep.fitted
        fb = f.bounds
        def v(verdict):
            return verdict.verdict if verdict.ok else \
                f"violated(margin={verdict.margin:.3g})"
        lines.append(
            f"| {name} | {d.m:g} | {d.zeta_sq:.6g} | {d.M:g} | {d.sigma_sq:.6g} "
            f"| {fb.m:.4g} | {fb.zeta_sq:.4g} | {fb.M:.4g} | {fb.sigma_sq:.4g} "
            f"| {v(rep.bias)} | {v(rep.noise)} |")
    table = "\n".join(lines) + "\n"
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "verify.md"), "w", encoding="utf-8") as fh:
            fh.write(table)
    return reports, table


def budget_report(cfg: ExperimentConfig, eps: float) -> str:
    """Printed stepsize / iteration / floor predictions for both regimes."""
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
