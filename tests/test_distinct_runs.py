"""Sweep and tune cells that ask for the same run share one engine result."""

import concurrent.futures
import dataclasses

import numpy as np
import pytest

from biased_sgd import (StepSchedule, additive_bias_oracle, cli,
                        compressed_oracle, exact_oracle, experiments,
                        gaussian_noise_oracle, make_nesterov_worst,
                        rand_k_compressor, rand_k_unbiased_compressor,
                        sgd_run_repeated, top_k_compressor, uniform_direction)
from biased_sgd.config import ConfigError, parse_config

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

# fig6's shape: none/top_k/rand_k x three noise levels x k in {1, d}
FIG6_GRID = """
[sweep]
noise_sigma_sq = 0.0, 1.0, 100.0
k = 1, 10
compressor = none, top_k, rand_k
panel_by = noise_sigma_sq,k
series_by = compressor
"""

TUNE = """
[tune]
target_eps = 0.05
max_T = 300
reps = 2
grid = 0.0625, 0.125, 0.25
"""

# theory_pl: the k = d top_k cell has the uncompressed oracle's bounds, so it
# shares the run of none at k = 1 and k = d; top_k at k = 1 runs alone; the
# two scale cells are two runs (`_failing_scale` makes them fail)
MIXED = BASE.replace("stepsize = 0.01", "stepsize_policy = theory_pl\n"
                     "policy_eps = 0.01").replace(
                         "noise_sigma_sq = 1.0", "noise_sigma_sq = 1.0\ndelta = 0.5") + """
[sweep]
k = 1, 10
compressor = none, top_k, scale
series_by = compressor
"""

D = 10


def _with_oracle(lines: str) -> str:
    return BASE.replace("kind = exact\n", "kind = exact\n" + lines)


def _counting(monkeypatch, name):
    """The members (runs or searches) passed to the batched engine call `name`."""
    calls = []
    real = getattr(experiments, name)

    def counted(*args, **kwargs):
        calls.extend(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, name, counted)
    return calls


@pytest.mark.parametrize("sigma_sq", [0.0, 1.0])
@pytest.mark.parametrize("zeta", [0.0, 0.1])
@pytest.mark.parametrize("factory", [top_k_compressor, rand_k_compressor,
                                     rand_k_unbiased_compressor])
def test_full_k_compressors_run_bit_identical_to_the_inner_oracle(
        sigma_sq, zeta, factory):
    p = make_nesterov_worst(D)
    inner = exact_oracle(p)
    if sigma_sq > 0:
        inner = gaussian_noise_oracle(p, sigma_sq, inner=inner)
    if zeta != 0:
        inner = additive_bias_oracle(inner, zeta, uniform_direction(D))
    outer = compressed_oracle(factory(D, D), inner, p, bounds_mode="query_only")
    runs = [sgd_run_repeated(p, o, StepSchedule.constant(0.05), 60, 3, 11)
            for o in (inner, outer)]
    for field in ("t", "mean_f_gap", "se_f_gap", "mean_grad_norm_sq",
                  "se_grad_norm_sq"):
        assert np.array_equal(getattr(runs[0], field), getattr(runs[1], field))
    for a, b in zip(runs[0].traces, runs[1].traces):
        assert np.array_equal(a.f_gap, b.f_gap)


def test_k_changes_nothing_without_a_compressor(tmp_path):
    outs = [experiments.run_experiment(parse_config(_with_oracle(f"k = {k}\n")),
                                       out_dir=str(tmp_path / f"k{k}"))
            for k in (1, 7)]
    assert (tmp_path / "k1/trace.csv").read_bytes() == \
        (tmp_path / "k7/trace.csv").read_bytes()
    a, b = (dict(o.summary, fingerprint=None) for o in outs)
    assert a == b


def test_run_config_normalises_only_what_is_safe():
    cfg = parse_config(BASE)

    def key(policy="fixed", **ov):
        c = cfg.with_overrides(stepsize_policy=policy, **ov)
        return experiments._run_config(c).oracle

    none = key()
    assert key(k=D) == none
    for comp in ("top_k", "rand_k", "rand_k_unbiased"):
        assert key(compressor=comp, k=D) == none
        assert key(compressor=comp, k=D - 1).compressor == comp
        assert key(compressor=comp, k=D + 1).compressor == comp  # fails later
        # the identity has the uncompressed bounds, so theory stepsizes agree
        assert key("theory_pl", compressor=comp, k=D) == key("theory_pl")
    assert key(compressor="scale", delta=1.0).compressor == "none"
    assert key(compressor="scale", delta=0.99).compressor == "scale"

    def run(tune=False, **ov):
        return experiments._run_config(cfg.with_overrides(**ov), tune).run

    # the stepsize under a theory policy, policy_eps under a fixed one, and
    # both in tune are ignored by the run
    for policy in ("theory_pl", "theory_smooth"):
        assert run(stepsize_policy=policy, stepsize=0.2) == \
            run(stepsize_policy=policy, stepsize=0.1)
        assert run(stepsize_policy=policy, policy_eps=0.1) != \
            run(stepsize_policy=policy, policy_eps=0.2)
    assert run(policy_eps=0.1) == run(policy_eps=0.2)
    assert run(stepsize=0.1) != run(stepsize=0.2)
    assert run(True, stepsize=0.1, policy_eps=0.1) == \
        run(True, stepsize=0.2, policy_eps=0.2)


@pytest.mark.parametrize("policy", ["theory_pl", "theory_smooth"])
def test_stepsize_under_a_theory_policy_does_not_split_the_run(tmp_path, policy):
    cfg = parse_config(BASE.replace("stepsize = 0.01", f"stepsize_policy = {policy}")
                       + "\n[sweep]\nstepsize = 0.1, 0.2\n")
    res = experiments.sweep_experiment(cfg, str(tmp_path))
    assert res.distinct_runs == 1
    (a, b) = res.cells
    assert a["summary"]["fingerprint"] != b["summary"]["fingerprint"]
    for rec in (a, b):
        cell_cfg = parse_config((tmp_path / "cells" / rec["label"] / "config.cfg"
                                 ).read_text())
        assert rec["summary"]["fingerprint"] == cell_cfg.fingerprint()
    assert (tmp_path / "cells" / a["label"] / "trace.csv").read_bytes() == \
        (tmp_path / "cells" / b["label"] / "trace.csv").read_bytes()
    # tune's grid search uses neither field
    tuned = experiments.tune_experiment(parse_config(cfg.canonical() + TUNE),
                                        str(tmp_path / "t"))
    assert tuned.distinct_runs == 1


def test_fig6_grid_runs_each_distinct_chain_once(tmp_path, monkeypatch, capsys):
    calls = _counting(monkeypatch, "sgd_run_repeated_many")
    cfg_path = tmp_path / "grid.cfg"
    cfg_path.write_text(BASE + FIG6_GRID)
    assert cli.main(["sweep", "--config", str(cfg_path),
                     "--out", str(tmp_path / "s")]) == 0
    assert len(calls) == 9
    assert capsys.readouterr().out.startswith(
        f"wrote 18 cells (9 distinct runs) to {tmp_path / 's'}\n")
    summary = (tmp_path / "s/sweep_summary.txt").read_text()
    assert "cells = 18\ndistinct_runs = 9\nfailed = 0\n" in summary
    # each cell's files are those of its own run, oracle text included
    for label in ("noise_sigma_sq=1.0_k=10_compressor=top_k",
                  "noise_sigma_sq=100.0_k=10_compressor=none",
                  "noise_sigma_sq=0.0_k=10_compressor=rand_k"):
        cell_dir = tmp_path / "s/cells" / label
        cfg = parse_config((cell_dir / "config.cfg").read_text())
        experiments.run_experiment(cfg, out_dir=str(tmp_path / "direct" / label))
        for name in ("trace.csv", "summary.txt", "config.cfg"):
            assert (cell_dir / name).read_bytes() == \
                (tmp_path / "direct" / label / name).read_bytes(), (label, name)


def test_fig6_grid_tunes_each_distinct_chain_once(tmp_path, monkeypatch, capsys):
    calls = _counting(monkeypatch, "tune_stepsize_many")
    cfg_path = tmp_path / "grid.cfg"
    cfg_path.write_text(BASE + FIG6_GRID + TUNE)
    assert cli.main(["tune", "--config", str(cfg_path),
                     "--out", str(tmp_path / "t")]) == 0
    assert len(calls) == 9
    assert capsys.readouterr().out.startswith(
        f"wrote 18 cells (9 distinct runs) to {tmp_path / 't'}\n")
    rows: dict = {}
    for line in (tmp_path / "t/tune.csv").read_text().splitlines()[1:]:
        cell, rest = line.split(",", 1)
        rows.setdefault(cell, []).append(rest)
    assert len(rows) == 18
    for sigma in ("0.0", "1.0", "100.0"):
        same = {tuple(rows[f"noise_sigma_sq={sigma}_k={k}_compressor={c}"])
                for k, c in (("1", "none"), ("10", "none"), ("10", "top_k"),
                             ("10", "rand_k"))}
        assert len(same) == 1


def _failing_scale(monkeypatch):
    """build_oracle raising for the scale compressor. A valid config has no
    cell that fails to build; the pool's forked processes keep the patch."""
    real = experiments.build_oracle

    def build(cfg, p, *args, **kwargs):
        if cfg.oracle.compressor == "scale":
            raise ValueError("synthetic scale failure")
        return real(cfg, p, *args, **kwargs)

    monkeypatch.setattr(experiments, "build_oracle", build)


def test_outputs_match_across_workers_with_shared_failed_and_unshared_cells(
        tmp_path, monkeypatch):
    _failing_scale(monkeypatch)
    cfg = parse_config(MIXED + TUNE)
    # 4 distinct runs, 2 of them failing: one batch, two of 2, four of 1
    sweeps = [experiments.sweep_experiment(cfg, str(tmp_path / f"s{w}"), workers=w)
              for w in (1, 2, 4)]
    assert [s.distinct_runs for s in sweeps] == [4, 4, 4]
    failed = [rec["label"] for rec in sweeps[0].cells if "error" in rec]
    assert failed == ["k=1_compressor=scale", "k=10_compressor=scale"]
    files = sorted(p.relative_to(tmp_path / "s1")
                   for p in (tmp_path / "s1").rglob("*") if p.is_file())
    assert len(files) == 3 + 4 * 3  # figure, manifest, summary; 4 cells x 3
    for rel in files:
        for w in (2, 4):
            assert (tmp_path / "s1" / rel).read_bytes() == \
                (tmp_path / f"s{w}" / rel).read_bytes(), (w, rel)
    cells = tmp_path / "s1/cells"
    assert (cells / "k=1_compressor=none/trace.csv").read_bytes() == \
        (cells / "k=10_compressor=none/trace.csv").read_bytes()
    kd = (cells / "k=10_compressor=top_k/summary.txt").read_text()
    plain = (cells / "k=10_compressor=none/summary.txt").read_text()
    assert "bounds_source = derived" in kd and "bounds_source = derived" in plain
    assert (cells / "k=10_compressor=top_k/trace.csv").read_bytes() == \
        (cells / "k=10_compressor=none/trace.csv").read_bytes()
    assert (cells / "k=1_compressor=top_k/trace.csv").read_bytes() != \
        (cells / "k=1_compressor=none/trace.csv").read_bytes()

    tunes = [experiments.tune_experiment(cfg, str(tmp_path / f"t{w}"), workers=w)
             for w in (1, 2, 4)]
    # tune's grid does not depend on the bounds: top_k at k = d joins none
    assert [t.distinct_runs for t in tunes] == [4, 4, 4]
    for name in ("tune.csv", "tune_summary.txt", "race.svg"):
        for w in (2, 4):
            assert (tmp_path / "t1" / name).read_bytes() == \
                (tmp_path / f"t{w}" / name).read_bytes(), (w, name)
    summary = (tmp_path / "t1/tune_summary.txt").read_text()
    assert summary.count("status=failed") == 2


def test_full_k_plus_one_cell_is_a_config_error(tmp_path):
    # k = d + 1 is no identity: a cell that compresses with it is a config
    # error, as `[oracle] compressor = top_k` with k = 11 is; without a
    # compressor, k is ignored
    text = _with_oracle("k = 11\n") + """
[sweep]
noise_sigma_sq = 0.0, 1.0
compressor = none, top_k, rand_k
"""
    with pytest.raises(ConfigError, match=r"sweep axis compressor = top_k: "
                       r"oracle.k must lie in \[1, 10\]"):
        parse_config(text)
    path = tmp_path / "k11.cfg"
    path.write_text(text)
    assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "s")]) == 1
    assert not (tmp_path / "s").exists()
    res = experiments.sweep_experiment(
        parse_config(text.replace("none, top_k, rand_k", "none")), str(tmp_path / "n"))
    assert [rec.get("error") for rec in res.cells] == [None, None]


def test_a_cell_build_failure_stays_in_its_cell(tmp_path, monkeypatch):
    real = experiments.build_oracle

    def flaky(cfg, p, *args, **kwargs):
        if cfg.oracle.compressor == "top_k":
            raise RuntimeError("synthetic build failure")
        return real(cfg, p, *args, **kwargs)

    monkeypatch.setattr(experiments, "build_oracle", flaky)
    cfg = parse_config(BASE + """
[sweep]
k = 1, 10
compressor = none, top_k, rand_k
""")
    res = experiments.sweep_experiment(cfg, str(tmp_path))
    errors = {rec["label"]: rec.get("error") for rec in res.cells}
    assert errors == {
        "k=1_compressor=none": None, "k=1_compressor=top_k": "synthetic build failure",
        "k=1_compressor=rand_k": None, "k=10_compressor=none": None,
        "k=10_compressor=top_k": "synthetic build failure",
        "k=10_compressor=rand_k": None}
    assert "k=10_compressor=top_k" not in {p.name for p in (tmp_path / "cells").iterdir()}


def test_a_failed_shared_run_fails_its_whole_group(tmp_path, monkeypatch):
    # rand_k at k = 10 = d runs as `none`, so its cell shares the failing run
    real = experiments.build_oracle

    def raising(X, n, rng):
        raise RuntimeError("synthetic engine failure")

    def flaky(cfg, p, *args, **kwargs):
        o, source = real(cfg, p, *args, **kwargs)
        if cfg.oracle.compressor == "none":
            o = dataclasses.replace(o, _query_batch=raising)
        return o, source

    monkeypatch.setattr(experiments, "build_oracle", flaky)
    cfg = parse_config(BASE + """
[sweep]
k = 1, 10
compressor = none, rand_k
""")
    res = experiments.sweep_experiment(cfg, str(tmp_path))
    errors = {rec["label"]: rec.get("error") for rec in res.cells}
    assert errors == {"k=1_compressor=none": "synthetic engine failure",
                      "k=1_compressor=rand_k": None,
                      "k=10_compressor=none": "synthetic engine failure",
                      "k=10_compressor=rand_k": "synthetic engine failure"}
    assert "distinct_runs = 2\nfailed = 3\n" in \
        (tmp_path / "sweep_summary.txt").read_text()


@pytest.mark.parametrize("command", ["sweep", "tune"])
@pytest.mark.parametrize("workers", ["0", "-2"])
def test_workers_below_one_is_a_config_error(tmp_path, capsys, command, workers):
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(BASE + FIG6_GRID + TUNE)
    assert cli.main([command, "--config", str(cfg_path), "--workers", workers,
                     "--out", str(tmp_path / "o")]) == 1
    assert f"workers must be >= 1, got {workers}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, maps in-process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.mark.parametrize("workers,expected", [(64, [3]), (2, [2]), (1, [])])
def test_pool_is_sized_to_the_distinct_runs(tmp_path, monkeypatch, workers,
                                            expected):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    cfg = parse_config(BASE + """
[sweep]
k = 1, 10
compressor = none, top_k, rand_k
""")  # 6 cells, 3 distinct runs
    res = experiments.sweep_experiment(cfg, str(tmp_path / "s"), workers=workers)
    assert res.distinct_runs == 3
    tuned = experiments.tune_experiment(parse_config(cfg.canonical() + TUNE),
                                        str(tmp_path / "t"), workers=workers)
    assert tuned.distinct_runs == 3
    assert _RecordingPool.sizes == expected * 2


def test_parts_take_every_nth_run_and_outputs_keep_task_order(monkeypatch):
    # runs of one kind sit next to each other in task order (fig6's three
    # long sigma^2 = 100 searches come last), so each part takes every n-th
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    parts = []

    def fn(part):
        parts.append(part)
        return [10 * task for task in part]

    assert experiments._map(fn, list(range(7)), 3) == [10 * t for t in range(7)]
    assert parts == [[0, 3, 6], [1, 4], [2, 5]]
    assert _RecordingPool.sizes == [3]


class _ShuffledPool(_RecordingPool):
    """A `_RecordingPool` that runs its parts in an order drawn from `order`
    and returns their outs in part order, as the process pool does."""

    order = None  # a numpy Generator

    def map(self, fn, parts):
        parts = list(parts)
        outs = [None] * len(parts)
        for i in self.order.permutation(len(parts)):
            outs[i] = fn(parts[i])
        return outs


# 12 distinct runs whose chains share the gradient, the noise draws and (per
# noise level) the noise stage, while the bias and compressor stages differ
MAP_MIX = BASE + """
[sweep]
compressor = none, top_k, rand_k
noise_sigma_sq = 1.0, 100.0
bias_zeta = 0.0, 0.1
panel_by = noise_sigma_sq
series_by = compressor
"""


def _files(root):
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*")
            if p.is_file()}


def test_random_part_counts_give_the_serial_outputs(tmp_path, monkeypatch):
    # `_map`'s round-robin split and reassembly, in-process: any part count,
    # the parts run in any order, gives the workers=1 files byte for byte
    rng = np.random.default_rng(14)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _ShuffledPool)
    monkeypatch.setattr(_ShuffledPool, "order", rng)
    cfg = parse_config(MAP_MIX + TUNE)
    for command in (experiments.sweep_experiment, experiments.tune_experiment):
        serial = tmp_path / command.__name__ / "w1"
        assert command(cfg, str(serial), workers=1).distinct_runs == 12
        want = _files(serial)
        for workers in rng.integers(2, 15, size=4):  # beyond 12: one run each
            monkeypatch.setattr(_RecordingPool, "sizes", [])
            out = tmp_path / command.__name__ / f"w{workers}"
            command(cfg, str(out), workers=int(workers))
            assert _RecordingPool.sizes == [min(int(workers), 12)]
            assert _files(out) == want, (command.__name__, workers)
