"""Runs and searches stepped as the members of one engine run.

Each member steps its own row block with its own streams, so its result must
be byte-identical to the same run or search stepped alone, whatever the
other members do: diverge mid-block, hit the target early, or drop to one
live lane.
"""

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from biased_sgd import (BiasedOracle, OracleBounds, StepSchedule, config,
                        exact_oracle, experiments, gaussian_noise_oracle,
                        make_nesterov_worst, optimizer, sgd_run_repeated,
                        sgd_run_repeated_many, tune_stepsize,
                        tune_stepsize_many, tuning)
from biased_sgd.config import parse_config

BASE = """
[problem]
kind = nesterov_quadratic
dim = 10

[oracle]
kind = exact
noise_sigma_sq = 1.0

[run]
T = 40
reps = 2
seed = 5
stepsize = 0.01
"""

TUNE = """
[tune]
target_eps = 0.05
max_T = 300
reps = 2
grid = 0.0625, 0.125, 0.25
"""


def _blow_up_oracle(p, rate):
    """Noisy gradient rows, each replaced by 1e16 with probability `rate`."""
    def rows(X, rng):
        G = p.grad_many(X) + 0.1 * rng.standard_normal(X.shape)
        G[rng.random(X.shape)[:, 0] < rate] = 1e16
        return G
    return BiasedOracle(name=f"blow_up_{rate}", dim=p.dim, bounds=OracleBounds(),
                        _query_batch=rows)


def _same_race(a, b):
    assert (a is None) == (b is None)
    if a is not None:
        assert a[0] == b[0]
        assert a[1].tobytes() == b[1].tobytes()
        assert a[2].tobytes() == b[2].tobytes()


def _same_runs(a, b):
    for name in ("t", "mean_f_gap", "se_f_gap", "mean_grad_norm_sq",
                 "se_grad_norm_sq", "count"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert a.diverged_reps == b.diverged_reps
    assert (a.traces is None) == (b.traces is None)
    for x, y in zip(a.traces or [], b.traces or []):
        assert (x.status, x.reason) == (y.status, y.reason)
        for name in ("t", "f_gap", "grad_norm_sq", "final_x"):
            assert getattr(x, name).tobytes() == getattr(y, name).tobytes(), name


@pytest.mark.parametrize("keep_traces", [True, False])
def test_batched_repeated_runs_are_the_runs_alone(keep_traces, monkeypatch):
    p = make_nesterov_worst(6)
    T, reps, seed = 200, 4, 4
    runs = [
        # three of its four reps diverge, the last at 137: one live lane
        (_blow_up_oracle(p, 0.01), StepSchedule.constant(0.05)),
        (exact_oracle(p), StepSchedule.constant(1.0)),  # every lane at once
        (gaussian_noise_oracle(p, 1.0), StepSchedule.constant(0.1)),
        (_blow_up_oracle(p, 0.05), StepSchedule.constant(0.02)),  # all, one by one
        (gaussian_noise_oracle(p, 1.0), StepSchedule.constant(0.2)),
    ]
    if not keep_traces:
        # fold blocks of 7 slots: drops and ends fall inside a block
        monkeypatch.setattr(optimizer, "_STREAM_BLOCK", 7 * reps * len(runs))
    batch = sgd_run_repeated_many(p, runs, T, reps, seed, keep_traces=keep_traces)
    alone = [sgd_run_repeated(p, o, sched, T, reps, seed, keep_traces=keep_traces)
             for o, sched in runs]
    assert [len(r.diverged_reps) for r in alone] == [3, 4, 0, 4, 0]
    assert sorted(d.iteration for d in alone[0].diverged_reps)[-1] == 137
    for a, b in zip(batch, alone):
        _same_runs(a, b)


@pytest.mark.parametrize("reps,grid", [(1, [0.2, 1.0]), (3, [0.02, 0.2, 1.0])])
def test_batched_searches_are_the_searches_alone(reps, grid, monkeypatch):
    p = make_nesterov_worst(6)
    seed, max_T = 5, 300
    oracles = [exact_oracle(p), gaussian_noise_oracle(p, 1.0),
               _blow_up_oracle(p, 0.01), _blow_up_oracle(p, 0.05)]
    # fold blocks of 7 slots, so that hits and drops fall inside a block
    monkeypatch.setattr(tuning, "_FOLD_FLOATS", 7 * reps * len(grid) * len(oracles))
    batch = tune_stepsize_many(p, oracles, 1e-3, grid, reps, max_T, seed)
    alone = [tune_stepsize(p, o, 1e-3, grid, reps, max_T, seed) for o in oracles]
    exact, noisy, _, lost = alone
    # stepsize 1.0 diverges in each search; with one rep, the noisy search
    # runs on one live lane from then on to max_T
    assert exact.best.iterations == 78 and exact.entries[-1].diverged
    assert noisy.best is None and len(noisy.history_t) == max_T + 1
    assert [e.diverged for e in noisy.entries] == [False] * (len(grid) - 1) + [True]
    assert all(e.diverged for e in lost.entries)
    for res, ref in zip(batch, alone):
        assert res.entries == ref.entries
        assert res.history_t.tobytes() == ref.history_t.tobytes()
        assert res.history.tobytes() == ref.history.tobytes()
        _same_race(res.race, ref.race)


# searches on make_nesterov_worst(6): (oracles, target_eps, grid, reps, max_T,
# seed, race horizon or None)
RACES = {
    "reached": lambda p: ([exact_oracle(p)], 1e-3, [0.02, 0.2], 2, 300, 1, None),
    # censored at max_T, past the race horizon: log-spaced rows
    "censored": lambda p: ([gaussian_noise_oracle(p, 1.0)], 1e-9, [0.02, 0.05],
                           2, 5000, 1, 40),
    # a hit between the recorded iterations past the race horizon
    "stop_between_rows": lambda p: ([gaussian_noise_oracle(p, 0.01)], 0.1,
                                    [0.01, 0.005], 2, 10**7, 2, 50),
    "one_diverged": lambda p: ([gaussian_noise_oracle(p, 1.0)], 1e-3,
                               [0.02, 0.2, 1.0], 2, 300, 5, None),
    "all_diverged": lambda p: ([_blow_up_oracle(p, 0.05)], 1e-3, [0.2, 1.0], 3,
                               300, 5, None),
    "several": lambda p: ([exact_oracle(p), gaussian_noise_oracle(p, 1.0),
                           _blow_up_oracle(p, 0.01), _blow_up_oracle(p, 0.05)],
                          1e-3, [0.02, 0.2, 1.0], 3, 300, 5, None),
}


@pytest.mark.parametrize("case", list(RACES))
def test_without_history_a_search_keeps_its_race_curve(case, monkeypatch):
    # a search writes its history to a file; without `keep_history` it reads
    # back only its race curve's column, which must be the curve of the
    # whole history read back
    p = make_nesterov_worst(6)
    oracles, target, grid, reps, max_T, seed, horizon = RACES[case](p)
    if horizon is not None:
        monkeypatch.setattr(tuning, "RACE_HORIZON", horizon)
    if case == "several":
        # fold blocks of 7 slots, so that the searches stop inside a block,
        # and read-back blocks of 84 rows, several per history
        monkeypatch.setattr(tuning, "_FOLD_FLOATS", 7 * reps * len(grid) * len(oracles))
    args = (p, oracles, target, grid, reps, max_T, seed)
    kept = tune_stepsize_many(*args)
    bare = tune_stepsize_many(*args, keep_history=False)
    stops = [res.history_t[-1] for res in kept]
    if case == "reached":
        assert kept[0].best is not None
    if case == "censored":
        assert kept[0].best is None and stops == [5000]
        assert len(kept[0].history_t) < 5001 and len(kept[0].race[1]) == 41
    if case == "stop_between_rows":
        assert stops[0] > 50 and stops[0] not in tuning.history_grid(max_T)
    if case == "one_diverged":
        assert np.isnan(kept[0].history[-1, 2]) and not np.isnan(kept[0].history).all()
    if case == "all_diverged":
        assert kept[0].race is None
    if case == "several":
        assert len(set(stops)) == len(oracles)
    for ref, res in zip(kept, bare):
        assert res.history is None and res.history_t is None
        assert res.entries == ref.entries
        _same_race(res.race, ref.race)


def test_an_empty_batch_returns_no_results():
    p = make_nesterov_worst(6)
    assert sgd_run_repeated_many(p, [], 20, 2, 1) == []
    assert tune_stepsize_many(p, [], 1e-3, grid=[0.1], max_T=20) == []


def test_a_returned_failure_holds_no_traceback():
    # a traceback would keep the engine's frame, with its state matrix and
    # record block, alive for as long as the caller holds the result
    p = make_nesterov_worst(6)
    calls = []

    def raising(X, rng):
        calls.append(len(X))
        if len(calls) % 5 == 0:
            raise RuntimeError("synthetic row map failure")
        return p.grad_many(X)

    bad = dataclasses.replace(exact_oracle(p), _query_batch=raising)
    runs = sgd_run_repeated_many(p, [(exact_oracle(p), StepSchedule(0.1)),
                                     (bad, StepSchedule(0.1))], 20, 2, seed=1)
    searches = tune_stepsize_many(p, [exact_oracle(p), bad], 1e-3, grid=[0.1],
                                  max_T=20)
    for out in (runs, searches):
        assert not isinstance(out[0], Exception)
        assert isinstance(out[1], RuntimeError)
        assert out[1].__traceback__ is None
    with pytest.raises(RuntimeError, match="synthetic row map failure"):
        sgd_run_repeated(p, bad, StepSchedule(0.1), 20, 2, seed=1)


@pytest.mark.parametrize("max_T", [0, -3])
def test_max_T_below_one_is_rejected(max_T):
    p = make_nesterov_worst(6)
    with pytest.raises(ValueError, match="max_T must be >= 1"):
        tune_stepsize(p, exact_oracle(p), 1e-3, grid=[0.1], max_T=max_T)
    with pytest.raises(ValueError, match="max_T must be >= 1"):
        tune_stepsize_many(p, [exact_oracle(p)] * 2, 1e-3, grid=[0.1], max_T=max_T)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_non_finite_or_non_positive_targets_and_stepsizes_are_rejected(bad):
    p = make_nesterov_worst(6)
    with pytest.raises(ValueError, match="target_eps must be positive and finite"):
        tune_stepsize(p, exact_oracle(p), bad, grid=[0.1], max_T=20)
    with pytest.raises(ValueError, match="stepsize must be positive and finite"):
        tune_stepsize_many(p, [exact_oracle(p)] * 2, 1e-3, grid=[bad, 0.1],
                           max_T=20)


def test_sweep_members_take_their_own_stepsizes(tmp_path):
    cfg = parse_config(BASE + """
[sweep]
stepsize = 0.01, 0.1, 1.0
compressor = none, rand_k
""")
    res = experiments.sweep_experiment(cfg, str(tmp_path / "s"))
    assert res.distinct_runs == 6
    assert any(rec["summary"]["diverged"] == "true" for rec in res.cells)
    for rec in res.cells:
        cell_dir = tmp_path / "s/cells" / rec["label"]
        direct = tmp_path / "direct" / rec["label"]
        experiments.run_experiment(parse_config((cell_dir / "config.cfg").read_text()),
                                   out_dir=str(direct))
        for name in ("trace.csv", "summary.txt"):
            assert (cell_dir / name).read_bytes() == (direct / name).read_bytes()


def _failing_top_k(monkeypatch):
    """build_oracle with a top_k row map that raises on its first step."""
    real = experiments.build_oracle

    def raising(X, rng):
        raise RuntimeError("synthetic row map failure")

    def build(cfg, p, *args, **kwargs):
        o, source = real(cfg, p, *args, **kwargs)
        if cfg.oracle.compressor == "top_k":
            o = dataclasses.replace(o, _query_batch=raising)
        return o, source

    monkeypatch.setattr(experiments, "build_oracle", build)


def test_a_raising_row_map_fails_only_its_own_cells(tmp_path, monkeypatch):
    cfg = parse_config(BASE + """
[sweep]
k = 1, 10
compressor = none, top_k, rand_k
""" + TUNE)
    clean_sweep = experiments.sweep_experiment(cfg, str(tmp_path / "clean"))
    clean_tune = experiments.tune_experiment(cfg, str(tmp_path / "clean_t"))
    _failing_top_k(monkeypatch)
    runs = _batch_sizes(monkeypatch, "sgd_run_repeated_many")
    searches = _batch_sizes(monkeypatch, "tune_stepsize_many")
    sweep = experiments.sweep_experiment(cfg, str(tmp_path / "s"))
    tune = experiments.tune_experiment(cfg, str(tmp_path / "t"))
    # the raising member stops alone inside the one engine run of its part
    assert runs == [3] and searches == [3]
    # k = d top_k runs as `none`, so only the k = 1 top_k run steps the
    # raising row map
    for out, clean in ((sweep, clean_sweep), (tune, clean_tune)):
        errors = {rec["label"]: rec.get("error") for rec in out.cells}
        assert errors.pop("k=1_compressor=top_k") == "synthetic row map failure"
        assert set(errors.values()) == {None}
    for rec in sweep.cells[:1] + sweep.cells[2:]:
        label = rec["label"]
        assert rec["summary"] == next(c["summary"] for c in clean_sweep.cells
                                      if c["label"] == label)
        assert (tmp_path / "s/cells" / label / "trace.csv").read_bytes() == \
            (tmp_path / "clean/cells" / label / "trace.csv").read_bytes()
    for rec, clean in zip(tune.cells, clean_tune.cells):
        if "error" not in rec:
            assert rec["result"] == clean["result"]
    rows = [r for r in (tmp_path / "t/tune.csv").read_text().splitlines()
            if not r.startswith("k=1_compressor=top_k,")]
    assert rows == [r for r in (tmp_path / "clean_t/tune.csv").read_text()
                    .splitlines() if not r.startswith("k=1_compressor=top_k,")]


def _files(root):
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*")
            if p.is_file()}


def test_a_raising_row_map_gives_the_same_files_under_two_workers(
        tmp_path, monkeypatch):
    # 6 distinct runs, 2 of them the raising top_k at k = 1: each of the
    # two parts has one beside two clean runs; the pool's forked processes
    # keep the patch
    cfg = parse_config(BASE + """
[sweep]
k = 1, 10
compressor = none, top_k, rand_k
noise_sigma_sq = 1.0, 100.0
""" + TUNE)
    _failing_top_k(monkeypatch)
    for command in (experiments.sweep_experiment, experiments.tune_experiment):
        outs = [command(cfg, str(tmp_path / f"{command.__name__}{w}"), workers=w)
                for w in (1, 2)]
        assert [out.distinct_runs for out in outs] == [6, 6]
        assert [rec["label"] for rec in outs[0].cells if "error" in rec] == \
            ["noise_sigma_sq=1.0_k=1_compressor=top_k",
             "noise_sigma_sq=100.0_k=1_compressor=top_k"]
        serial, pooled = (_files(tmp_path / f"{command.__name__}{w}")
                          for w in (1, 2))
        assert pooled == serial
    assert len(serial) == 3  # tune.csv, tune_summary.txt, race.svg


def _batch_sizes(monkeypatch, name):
    """The member count of each call of the batched engine call `name`."""
    calls = []
    real = getattr(experiments, name)

    def counted(p, members, *args, **kwargs):
        calls.append(len(members))
        return real(p, members, *args, **kwargs)

    monkeypatch.setattr(experiments, name, counted)
    return calls


def test_a_clean_sweep_or_tune_steps_each_part_in_one_batch(tmp_path, monkeypatch):
    # one engine call per part: the distinct runs of a part are its members
    cfg = parse_config(BASE + """
[sweep]
k = 1, 10
compressor = none, top_k, rand_k
""" + TUNE)  # 6 cells, 3 distinct runs
    runs = _batch_sizes(monkeypatch, "sgd_run_repeated_many")
    searches = _batch_sizes(monkeypatch, "tune_stepsize_many")
    experiments.sweep_experiment(cfg, str(tmp_path / "s"))
    experiments.tune_experiment(cfg, str(tmp_path / "t"))
    assert runs == [3] and searches == [3]



def test_fig6_runs_share_their_stages_and_draws(monkeypatch):
    # fig6's nine k = 1 runs in one engine run build 9 stage nodes: one
    # gradient stage, a noise stage per sigma^2 > 0 and a compressor stage
    # per chain; and 3 pulls: the noise normals (slot 0) and rand-k's
    # uniforms over the exact gradient (slot 0) and over noise (slot 1).
    # A lost share only slows runs, so no byte-compared output shows it.
    made = {optimizer._Node: 0, optimizer._Pull: 0}
    for cls in made:
        def counted(self, *args, _cls=cls, _init=cls.__init__):
            made[_cls] += 1
            _init(self, *args)
        monkeypatch.setattr(cls, "__init__", counted)
    cfg = config.preset("fig6")
    p = experiments.build_problem(cfg)
    runs = [(experiments.build_oracle(
                cfg.with_overrides(compressor=c, noise_sigma_sq=s, k=1), p,
                estimate_missing_bounds=False)[0], StepSchedule(0.01))
            for c in ("none", "top_k", "rand_k") for s in (0.0, 1.0, 100.0)]
    sgd_run_repeated_many(p, runs, 5, 2, seed=3)
    assert made == {optimizer._Node: 9, optimizer._Pull: 3}

def test_every_name_the_benchmark_tracer_wraps_exists():
    # perfbench/tracer.py wraps these by name, so a name the batched calls
    # left unused must stay importable, or every traced run stops
    from biased_sgd import estimators

    modules = {"experiments": experiments, "estimators": estimators,
               "optimizer": optimizer, "config": config}
    text = (Path(__file__).parents[1] / "perfbench" / "tracer.py").read_text()
    wrapped = re.findall(r'patch\((\w+), "(\w+)"', text)
    assert ("experiments", "tune_stepsize") in wrapped
    for module, name in wrapped:
        assert callable(getattr(modules[module], name)), (module, name)
