import gc
import resource
import sys
import tempfile
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from biased_sgd import (BiasedOracle, OracleBounds, StepSchedule,
                        compressed_oracle, exact_oracle, gaussian_noise_oracle,
                        gaussian_smoothing_oracle, make_nesterov_worst,
                        rand_k_compressor, sgd_run, sgd_run_repeated,
                        top_k_compressor, tune_stepsize, tune_stepsize_many)
from biased_sgd import tuning


def _oracle(name, p):
    noise = gaussian_noise_oracle(p, 1.0)
    if name == "noise":
        return noise
    if name == "rand_k_noise":
        return compressed_oracle(rand_k_compressor(2, p.dim), noise, p)
    if name == "top_k_noise":
        return compressed_oracle(top_k_compressor(2, p.dim), noise, p,
                                 bounds_mode="query_only")
    return gaussian_smoothing_oracle(p, 0.01)


def test_stepsize_result_does_not_depend_on_the_grid():
    # every stepsize draws rep r's stream, so its lanes see the same draws
    # whichever stepsizes share the grid
    p = make_nesterov_worst(10)
    o = gaussian_noise_oracle(p, 1.0)

    def tune(grid):
        return tune_stepsize(p, o, 5e-4, grid=grid, reps=3, max_T=500, seed=3)

    alone, pair = tune([0.01]), tune([0.02, 0.01])
    assert alone.entries[0] == pair.entries[1]
    assert np.array_equal(alone.history[:, 0], pair.history[:, 1])
    # a diverging stepsize leaves the others untouched
    wide = tune([0.02, 0.01, 1.0])
    assert wide.entries[2].diverged and not wide.entries[2].reached
    assert wide.entries[:2] == pair.entries
    assert np.array_equal(wide.history[:, :2], pair.history)
    assert np.isnan(wide.history[-1, 2])


@pytest.mark.parametrize("name", ["noise", "rand_k_noise", "top_k_noise",
                                  "gaussian_smoothing"])
def test_race_curve_is_the_repeated_run_at_the_tuned_stepsize(name):
    p = make_nesterov_worst(6)
    o = _oracle(name, p)
    grid, reps, seed = [0.02, 0.05, 0.1], 3, 8
    for target, max_T in ((0.05, 2000), (1e-9, 300)):  # reached, censored
        res = tune_stepsize(p, o, target, grid=grid, reps=reps, max_T=max_T,
                            seed=seed)
        entry, t, gap = res.race
        T = entry.iterations if entry.reached else max_T
        assert entry.reached == (target == 0.05)
        agg = sgd_run_repeated(p, o, StepSchedule.constant(entry.gamma), T,
                               reps, seed)
        assert np.array_equal(t, agg.t)
        np.testing.assert_allclose(gap, agg.mean_f_gap, rtol=1e-12, atol=0)
        # every stepsize's column is that stepsize's repeated run
        for i, g in enumerate(grid):
            ref = sgd_run_repeated(p, o, StepSchedule.constant(g), int(t[-1]),
                                   reps, seed)
            np.testing.assert_allclose(res.history[:len(t), i], ref.mean_f_gap,
                                       rtol=1e-12, atol=0)


def test_censored_race_curve_stops_at_the_race_horizon(monkeypatch):
    monkeypatch.setattr(tuning, "RACE_HORIZON", 40)
    p = make_nesterov_worst(6)
    o = gaussian_noise_oracle(p, 1.0)
    res = tune_stepsize(p, o, 1e-9, grid=[0.02, 0.05], reps=2, max_T=500, seed=1)
    assert res.best is None and res.history_t[-1] == 500
    entry, t, gap = res.race
    assert entry.gamma == min(res.entries, key=lambda e: e.best_gap).gamma
    assert np.array_equal(t, np.arange(41))


def test_history_length_stops_growing_beyond_the_race_horizon(monkeypatch):
    H = tuning.RACE_HORIZON
    assert np.array_equal(tuning.history_grid(1000), np.arange(1001))
    assert np.array_equal(tuning.history_grid(H)[-2:], [H - 1, H])
    sizes = {T: len(tuning.history_grid(T)) for T in (10 * H, 10**7, 10**9)}
    assert len(set(sizes.values())) == 1
    assert sizes[10**7] <= H + 1 + tuning._LOG_POINTS
    for T in (10**7, 10**9):
        g = tuning.history_grid(T)
        assert np.array_equal(g[:H + 1], np.arange(H + 1))
        assert g[-1] == T and np.all(np.diff(g) > 0)
    # a search at max_T = 1e7 records on that grid and ends its history at
    # the iteration it stopped at, here past a shrunken dense horizon
    monkeypatch.setattr(tuning, "RACE_HORIZON", 50)
    p = make_nesterov_worst(6)
    res = tune_stepsize(p, gaussian_noise_oracle(p, 0.01), 0.1, grid=[0.01],
                        reps=2, max_T=10**7, seed=2)
    stop = res.best.iterations
    assert stop > 50
    grid = tuning.history_grid(10**7)
    assert np.array_equal(res.history_t[:-1], grid[grid < stop])
    assert res.history_t[-1] == stop
    assert res.history.shape == (len(res.history_t), 1)
    assert res.history[-1, 0] <= 0.1 < res.history[-2, 0]


def _blow_up_oracle(p, rate):
    """Noisy gradient rows, each replaced by 1e16 with probability `rate`."""
    def rows(X, rng):
        G = p.grad_many(X) + 0.1 * rng.standard_normal(X.shape)
        G[rng.random(X.shape)[:, 0] < rate] = 1e16
        return G
    return BiasedOracle(name="blow_up", dim=p.dim, bounds=OracleBounds(),
                        _query_batch=rows)


def test_one_failing_lane_takes_its_stepsize_out():
    # the engine's test per lane: a stepsize is out as soon as one of its
    # reps fails it, even while the rep mean is still small
    p = make_nesterov_worst(6)
    o = _blow_up_oracle(p, 0.005)
    reps, seed, T = 6, 4, 100
    agg = sgd_run_repeated(p, o, StepSchedule.constant(0.05), T, reps, seed)
    first = min(d.iteration for d in agg.diverged_reps)
    assert 0 < len(agg.diverged_reps) < reps
    res = tune_stepsize(p, o, 1e-9, grid=[0.05], reps=reps, max_T=T, seed=seed)
    (e,) = res.entries
    assert e.diverged and not e.reached
    assert res.history_t[-1] == first - 1  # the last iterate before it failed
    np.testing.assert_allclose(res.history[:, 0], agg.mean_f_gap[:first],
                               rtol=1e-12, atol=0)
    assert e.best_gap == np.min(res.history[:, 0])
    assert res.race is None


def _searches():
    """(name, reps, search): a hit, a stepsize diverging, a censored search,
    a hit at max_T and a hit between the recorded iterations past the race
    horizon."""
    p6, p10 = make_nesterov_worst(6), make_nesterov_worst(10)
    noisy6, noisy10 = gaussian_noise_oracle(p6, 1.0), gaussian_noise_oracle(p10, 1.0)
    rand_k = _oracle("rand_k_noise", p6)
    return [
        ("hit", 3, lambda: tune_stepsize(p6, rand_k, 0.07, grid=[0.02, 0.05, 0.1],
                                         reps=3, max_T=2000, seed=8)),
        # 8 reps: a rep sum long enough for numpy's unrolled summation, whose
        # order only contiguous rows keep
        ("diverged", 8, lambda: tune_stepsize(p10, noisy10, 5e-4,
                                              grid=[0.02, 0.01, 1.0], reps=8,
                                              max_T=500, seed=3)),
        ("censored", 2, lambda: tune_stepsize(p6, noisy6, 1e-9, grid=[0.02, 0.05],
                                              reps=2, max_T=299, seed=1)),
        ("hit_at_max_T", 2, lambda: tune_stepsize(p6, exact_oracle(p6), 1e-3,
                                                  grid=[0.05, 0.1, 0.2], reps=2,
                                                  max_T=78, seed=0)),
        ("sparse_hit", 2, lambda: tune_stepsize(
            p6, gaussian_noise_oracle(p6, 0.01), 0.1, grid=[0.01, 0.005],
            reps=2, max_T=10**7, seed=2)),
    ]


@pytest.mark.parametrize("case", range(5), ids=["hit", "diverged", "censored",
                                                "hit_at_max_T", "sparse_hit"])
def test_fold_block_size_changes_nothing(case, monkeypatch):
    # the search folds its f values per block; a block of one slot is the
    # per-step bookkeeping, and 7 slots put the hit, the divergence and
    # max_T inside a block
    monkeypatch.setattr(tuning, "RACE_HORIZON", 50)
    name, reps, search = _searches()[case]
    default = search()
    stop = default.history_t[-1]
    if name == "hit":
        assert default.best is not None and stop % 7 != 6
    if name == "diverged":
        assert default.entries[2].diverged and not default.entries[2].reached
        assert np.isnan(default.history[-1, 2])
        out = default.history_t[np.isnan(default.history[:, 2])][0]
        assert out <= 50 and out % 7 != 0  # it drops out mid-block
    if name == "censored":
        assert default.best is None and stop == 299 and 299 % 7 != 6
    if name == "hit_at_max_T":
        assert default.best is not None and stop == 78 and 78 % 7 != 6
    if name == "sparse_hit":
        assert stop > 50 and stop not in tuning.history_grid(10**7)
    for rows in (1, 7):
        monkeypatch.setattr(tuning, "_FOLD_FLOATS", rows * reps * len(default.entries))
        res = search()
        assert res.entries == default.entries
        assert res.history_t.tobytes() == default.history_t.tobytes()
        assert res.history.tobytes() == default.history.tobytes()


@pytest.mark.parametrize("max_T", [5000, 78])
def test_the_search_stops_at_the_first_iterate_at_the_target(max_T):
    # with an exact oracle every rep of a stepsize takes the same path, so a
    # step's smallest f is its rep mean: the one-`min` test of a step must
    # let the first iterate at the target through, not a later one, and
    # also when that iterate is the last one, max_T
    p = make_nesterov_worst(6)
    o = exact_oracle(p)
    grid = [0.05, 0.1, 0.2]
    res = tune_stepsize(p, o, 1e-3, grid=grid, reps=2, max_T=max_T, seed=0)
    first = [int(np.argmax(sgd_run(p, o, StepSchedule.constant(g), 5000,
                                   seed=0).f_gap <= 1e-3)) for g in grid]
    assert res.best.iterations == min(first) == 78
    assert res.best.gamma == grid[int(np.argmin(first))]
    assert [e.censored_at for e in res.entries] == [78, 78, None]


def _history_files(monkeypatch) -> list:
    """Weak references to the temporary files that searches open from now on."""
    files, make = [], tempfile.TemporaryFile

    def temporary_file():
        f = make()
        files.append(weakref.ref(f))
        return f
    monkeypatch.setattr(tuning.tempfile, "TemporaryFile", temporary_file)
    return files


def _assert_closed(files: list, monkeypatch) -> None:
    """Each file is closed, or was collected without warning that it was
    not: with warnings as errors, an unclosed file's collection would
    report a ResourceWarning to `sys.unraisablehook`."""
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gc.collect()
    assert not unraisable
    assert all(f() is None or f().closed for f in files)


def test_a_search_without_history_holds_none_of_it_in_memory(monkeypatch):
    # a censored search over 161 stepsizes to max_T = 5,000: its dense
    # history is 6.4 MB, of which it reads back one column
    p = make_nesterov_worst(6)
    o = gaussian_noise_oracle(p, 1.0)
    grid, max_T = list(np.linspace(0.001, 0.1, 161)), 5000
    dense = (max_T + 1) * len(grid) * 8
    tune_stepsize_many(p, [o], 1e-9, grid, 1, 10, 1, keep_history=False)  # warm-up
    files = _history_files(monkeypatch)
    tracemalloc.start()
    try:
        res, = tune_stepsize_many(p, [o], 1e-9, grid, 1, max_T, 1,
                                  keep_history=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.best is None and not any(e.diverged for e in res.entries)
    assert len(res.race[2]) == max_T + 1
    assert peak < dense / 4, peak
    assert len(files) == 1
    _assert_closed(files, monkeypatch)


def test_a_failing_search_closes_its_history_files(monkeypatch):
    p = make_nesterov_worst(6)
    calls = []

    def rows(X, rng):
        calls.append(len(X))
        if len(calls) == 100:
            raise RuntimeError("row map failed")
        return p.grad_many(X)
    failing = BiasedOracle(name="failing", dim=p.dim, bounds=OracleBounds(),
                           _query_batch=rows)
    files = _history_files(monkeypatch)
    res, err = tune_stepsize_many(
        p, [exact_oracle(p), failing], 1e-9, [0.01, 0.02], 2, 500, 1,
        keep_history=False)
    assert isinstance(err, RuntimeError) and str(err) == "row map failed"
    assert len(files) == 1  # the engine run's one history file
    _assert_closed(files, monkeypatch)
    # the exact search stepped on as if alone
    alone = tune_stepsize(p, exact_oracle(p), 1e-9, [0.01, 0.02], 2, 500, 1)
    assert res.entries == alone.entries
    (entry, t, gap), want = res.race, alone.race
    assert entry == want[0]
    assert t.tobytes() == want[1].tobytes()
    assert gap.tobytes() == want[2].tobytes()


def test_a_search_per_oracle_needs_no_descriptor_per_search():
    # 200 searches in one engine run under a soft limit of 64 descriptors:
    # they share one history file, so the run opens one, not 200
    p = make_nesterov_worst(6)
    oracles = [gaussian_noise_oracle(p, 0.01 * (i + 1)) for i in range(200)]

    def tune():
        return tune_stepsize_many(p, oracles, 1e-3, [0.05, 0.1], 2, 60, 1,
                                  keep_history=False)
    want = tune()
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    resource.setrlimit(resource.RLIMIT_NOFILE, (64, hard))
    try:
        got = tune()
    finally:
        resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
    assert len(got) == len(want) == 200
    for res, alone in zip(got, want):
        assert res.entries == alone.entries
        assert res.race[0] == alone.race[0]
        assert res.race[1].tobytes() == alone.race[1].tobytes()
        assert res.race[2].tobytes() == alone.race[2].tobytes()
