"""Runs and searches stepped as the members of one engine run.

Each member steps its own row block with its own streams, so its result must
be byte-identical to the same run or search stepped alone, whatever the
other members do: diverge mid-block, hit the target early, or drop to one
live lane.
"""

import dataclasses
import re
import warnings
from pathlib import Path

import pytest

from biased_sgd import (BiasedOracle, OracleBounds, StepSchedule, exact_oracle,
                        experiments, gaussian_noise_oracle, make_nesterov_worst,
                        optimizer, sgd_run_repeated, sgd_run_repeated_many,
                        tune_stepsize, tune_stepsize_many, tuning)
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
    def rows(X, n, rng):
        G = p.grad_many(X) + 0.1 * rng.standard_normal((n, p.dim))
        G[rng.random((n, p.dim))[:, 0] < rate] = 1e16
        return G
    return BiasedOracle(name=f"blow_up_{rate}", dim=p.dim, bounds=OracleBounds(),
                        _query_batch=rows)


def _same_runs(a, b):
    for name in ("t", "mean_f_gap", "se_f_gap", "mean_grad_norm_sq",
                 "se_grad_norm_sq", "count"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert a.diverged_reps == b.diverged_reps
    assert (a.traces is None) == (b.traces is None)
    for x, y in zip(a.traces or [], b.traces or []):
        assert (x.status, x.reason) == (y.status, y.reason)
        for name in ("t", "f_gap", "grad_norm_sq", "stepsizes", "final_x"):
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
        (gaussian_noise_oracle(p, 1.0),
         StepSchedule.sequence([0.2 / (1 + t / 20) for t in range(T)])),
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
    for (res, curve), ref in zip(batch, alone):
        assert res.entries == ref.entries
        assert res.history_t.tobytes() == ref.history_t.tobytes()
        assert res.history.tobytes() == ref.history.tobytes()
        ref_curve = ref.race_curve()
        assert (curve is None) == (ref_curve is None)
        if curve is not None:
            assert curve[0] == ref_curve[0]
            assert curve[1].tobytes() == ref_curve[1].tobytes()
            assert curve[2].tobytes() == ref_curve[2].tobytes()


def test_without_history_a_search_keeps_its_race_curve():
    p = make_nesterov_worst(6)
    args = (p, [exact_oracle(p)], 1e-3, [0.02, 0.2], 2, 300, 1)
    (kept, curve), = tune_stepsize_many(*args)
    (res, bare_curve), = tune_stepsize_many(*args, keep_history=False)
    assert res.history is None and res.history_t is None
    assert res.entries == kept.entries
    assert bare_curve[2].tobytes() == curve[2].tobytes()


def test_an_empty_batch_returns_no_results():
    p = make_nesterov_worst(6)
    assert sgd_run_repeated_many(p, [], 20, 2, 1) == []
    assert tune_stepsize_many(p, [], 1e-3, grid=[0.1], max_T=20) == []


@pytest.mark.parametrize("max_T", [0, -3])
def test_max_T_below_one_is_rejected(max_T):
    p = make_nesterov_worst(6)
    with pytest.raises(ValueError, match="max_T must be >= 1"):
        tune_stepsize(p, exact_oracle(p), 1e-3, grid=[0.1], max_T=max_T)
    with pytest.raises(ValueError, match="max_T must be >= 1"):
        tune_stepsize_many(p, [exact_oracle(p)] * 2, 1e-3, grid=[0.1], max_T=max_T)


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

    def raising(X, n, rng):
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
    # the failed batch is reported, then each member reruns alone
    with pytest.warns(RuntimeWarning, match="a batch of 3 runs failed "
                      r"\(synthetic row map failure\); rerunning each alone"):
        sweep = experiments.sweep_experiment(cfg, str(tmp_path / "s"))
    with pytest.warns(RuntimeWarning, match="rerunning each alone"):
        tune = experiments.tune_experiment(cfg, str(tmp_path / "t"))
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
    # a batch that raised would rerun its members alone, with the same
    # outputs; one call per part shows that no batch fell back
    cfg = parse_config(BASE + """
[sweep]
k = 1, 10
compressor = none, top_k, rand_k
""" + TUNE)  # 6 cells, 3 distinct runs
    runs = _batch_sizes(monkeypatch, "sgd_run_repeated_many")
    searches = _batch_sizes(monkeypatch, "tune_stepsize_many")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        experiments.sweep_experiment(cfg, str(tmp_path / "s"))
        experiments.tune_experiment(cfg, str(tmp_path / "t"))
    assert runs == [3] and searches == [3]


def test_every_name_the_benchmark_tracer_wraps_exists():
    # perfbench/tracer.py wraps these by name, so a name the batched calls
    # left unused must stay importable, or every traced run stops
    from biased_sgd import config, estimators

    modules = {"experiments": experiments, "estimators": estimators,
               "optimizer": optimizer, "config": config}
    text = (Path(__file__).parents[1] / "perfbench" / "tracer.py").read_text()
    wrapped = re.findall(r'patch\((\w+), "(\w+)"', text)
    assert ("experiments", "tune_stepsize") in wrapped
    for module, name in wrapped:
        assert callable(getattr(modules[module], name)), (module, name)
