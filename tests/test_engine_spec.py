"""An executable spec of the SGD engine: a naive reference, checked byte for byte.

The reference steps one lane at a time, one step at a time: lane (rep r)
draws from `DrawStreams(stream(seed, r))` through the oracle's one-row
`_query_batch`, one call per step, and its f value comes from `value_many`
on that row. The repeated runs' traces and aggregates, and the stepsize
search's entries, history and race curve, are then built from these lane
traces with the engine's documented rules. Seeded random cases mix the
members of one engine run (oracle chains that share stages and chains that
do not, chains drawing one kind twice, and chains drawing rows of other
shapes in one slot), constant stepsizes that diverge at once, mid-run or
never, and patched block constants. Every case also has two members whose
chains raise at seeded steps, in a stage of their own or in one they share:
such a member's result is the exception, if it still steps then, and every
other member's is as if it ran alone. A failure names its case seed.
"""

import dataclasses

import numpy as np
import pytest

from biased_sgd import (BiasedOracle, OracleBounds, StepSchedule,
                        additive_bias_oracle, compressed_oracle,
                        exact_oracle, gaussian_noise_oracle,
                        gaussian_smoothing_oracle, inexact_oracle,
                        make_nesterov_worst, optimizer, rand_k_compressor,
                        rand_k_unbiased_compressor, scale_compressor,
                        sgd_run_repeated_many, top_k_compressor,
                        tune_stepsize_many, tuning, uniform_direction)
from biased_sgd._rng import DrawStreams, stream

LIMIT = optimizer.DIVERGENCE_LIMIT
CASES = 64


# --- the reference --------------------------------------------------------

def _lane(p, o, gamma, T, x0, gen):
    """One lane: (f gaps, ||grad f||^2, final x, reason, iteration).

    The trace holds iterates 0 .. T, or 0 .. t - 1 when iterate t is the first
    to fail the divergence test (|f| or ||x||^2 over the limit, or not
    finite); then `reason` is "overflow" or "non-finite" and `iteration` t.
    """
    rng = DrawStreams(gen)
    x = np.array(x0, dtype=float)
    f = p.value_many(x[None])[0]
    gaps, gns = [], []
    for t in range(T + 1):
        g = p.grad_many(x[None])
        gaps.append(f - p.f_star)
        gns.append(np.vecdot(g, g)[0])
        if t == T:
            return np.array(gaps), np.array(gns), x, None, T
        x = x - gamma * o._query_batch(x[None], rng.call())[0]
        f = p.value_many(x[None])[0]
        if not (abs(f) <= LIMIT and np.vecdot(x, x) <= LIMIT * LIMIT):
            finite = np.isfinite(f) and np.isfinite(x).all()
            return (np.array(gaps), np.array(gns), x,
                    "overflow" if finite else "non-finite", t + 1)


def _welford(columns, n_rec):
    """Per slot mean, SE and count over the columns, lane by lane in order."""
    count = np.zeros(n_rec, dtype=np.int64)
    mean, m2 = np.zeros(n_rec), np.zeros(n_rec)
    for col in columns:
        for j, v in enumerate(col):
            count[j] += 1
            delta = v - mean[j]
            mean[j] += delta / count[j]
            m2[j] += delta * (v - mean[j])
    se = np.array([np.sqrt(m2[j] / max(c - 1, 1) / max(c, 1)) if c > 1 else 0.0
                   for j, c in enumerate(count)])
    return mean, se, count


def _reference_runs(p, o, sched, T, reps, seed, x0):
    """What `sgd_run_repeated` gives: per-rep traces and their aggregate."""
    lanes = [_lane(p, o, sched.gamma, T, x0, stream(seed, r)) for r in range(reps)]
    traces, diverged = [], []
    for r, (gaps, gns, x, reason, it) in enumerate(lanes):
        if reason is None and (np.diff(gaps) >= 0).all() and gaps[-1] > gaps[0]:
            reason = "monotone-increase"
        if reason is not None:
            diverged.append(optimizer.Divergence(r, reason, it))
        traces.append((len(gaps), gaps, gns, x, reason))
    n_rec = T + 1
    mean_f, se_f, count = _welford([lane[0] for lane in lanes], n_rec)
    mean_g, se_g, _ = _welford([lane[1] for lane in lanes], n_rec)
    keep = count > 0
    agg = {"t": np.arange(n_rec)[keep], "mean_f_gap": mean_f[keep],
           "se_f_gap": se_f[keep], "mean_grad_norm_sq": mean_g[keep],
           "se_grad_norm_sq": se_g[keep], "count": count[keep]}
    return agg, diverged, traces


def _reference_search(p, o, target_eps, grid, reps, max_T, seed, x0):
    """What `tune_stepsize` gives: (entries, history_t, history), and the
    number of steps it takes.

    A stepsize's lanes leave together at the first iterate any of them
    fails; its mean at t is the sum of its reps' gaps times 1/reps. The
    search stops at the first t at which a live stepsize's mean is at most
    target_eps (an iterate max_T included), else at max_T or when the last
    stepsize leaves.
    """
    means, ends = [], []
    for g in grid:
        lanes = [_lane(p, o, g, max_T, x0, stream(seed, r))
                 for r in range(reps)]
        end = min(len(lane[0]) for lane in lanes)  # iterates 0 .. end - 1 live
        gaps = np.stack([lane[0][:end] for lane in lanes], axis=1)
        means.append(gaps.reshape(end, 1, reps).sum(axis=2)[:, 0] * (1.0 / reps))
        ends.append(end)
    stop = next((t for t in range(max_T + 1)
                 if any(t < e and m[t] <= target_eps for m, e in zip(means, ends))),
                None)
    end = stop if stop is not None else max_T  # the last iterate searched
    last = min(end, max(ends) - 1)  # the last iterate a stepsize is live at
    steps = min(end, max(ends))  # the search steps at t < steps
    entries = []
    for g, m, e in zip(grid, means, ends):
        reached = stop is not None and stop < e and m[stop] <= target_eps
        diverged = e <= end
        entries.append(tuning.TuneEntry(
            gamma=g, reached=reached, iterations=stop if reached else None,
            best_gap=float(m[:min(e, last + 1)].min()), diverged=diverged,
            censored_at=stop if stop is not None and not (reached or diverged)
            else None))
    hist = np.full((last + 1, len(grid)), np.nan)
    for j, (m, e) in enumerate(zip(means, ends)):
        hist[:min(e, last + 1), j] = m[:last + 1]
    return entries, np.arange(last + 1), hist, steps


def _reference_race(entries, hist_t, hist):
    """The race curve (entry, t, rep-mean gap) of a search: the winner's
    column over 0 .. its iterations-to-target; without one, the column of
    the non-diverged stepsize with the lowest best gap over 0 .. min(max_T,
    RACE_HORIZON); None when every stepsize diverged."""
    hits = [(e.iterations, j) for j, e in enumerate(entries) if e.reached]
    viable = [(e.best_gap, j) for j, e in enumerate(entries) if not e.diverged]
    if not hits and not viable:
        return None
    _, j = min(hits or viable)
    entry = entries[j]
    last = entry.iterations if entry.reached else tuning.RACE_HORIZON
    keep = hist_t <= last
    return entry, hist_t[keep], hist[keep, j]


# --- the random cases -----------------------------------------------------

def _wrapped(o):
    """`o` with its row map replaced by a wrapper of it."""
    rows = o._query_batch
    return dataclasses.replace(o, _query_batch=lambda X, rng: rows(X, rng))


def _oracles(p, rng):
    """Chains from the config space and beyond: name -> builder."""
    d = p.dim
    k = int(rng.integers(1, d))
    sig = [1.0, 100.0][int(rng.integers(2))]

    def noise(s=None):
        return gaussian_noise_oracle(p, sig if s is None else s)

    def comp(c, inner):
        return compressed_oracle(c, inner, p, bounds_mode="query_only")

    def smoothing_noise():  # normals twice per call, in two stages
        return gaussian_noise_oracle(p, sig, inner=gaussian_smoothing_oracle(p, 0.1))

    def column_noise():  # one normal per row, added to every coordinate
        return BiasedOracle(
            name="column_noise", dim=d, bounds=OracleBounds(),
            _query_batch=lambda X, rng: p.grad_many(X)
            + 0.5 * rng.standard_normal((len(X), 1)))

    return {
        "exact": lambda: exact_oracle(p),
        "noise": lambda: noise(),
        "noise_other": lambda: noise(101.0 - sig),
        "bias_over_noise": lambda: additive_bias_oracle(noise(), 0.3,
                                                        uniform_direction(d)),
        "rand_k_exact": lambda: comp(rand_k_compressor(k, d), exact_oracle(p)),
        "rand_k_noise": lambda: comp(rand_k_compressor(k, d), noise()),
        "rand_k_noise_other": lambda: comp(rand_k_compressor(k, d), noise(101.0 - sig)),
        "top_k_noise": lambda: comp(top_k_compressor(k, d), noise()),
        "top_k_exact": lambda: comp(top_k_compressor(k, d), exact_oracle(p)),
        "unbiased_noise": lambda: comp(rand_k_unbiased_compressor(k, d), noise()),
        "scale_exact": lambda: comp(scale_compressor(0.36, d), exact_oracle(p)),
        "inexact": lambda: inexact_oracle(p, 0.05),
        "inexact_noise": lambda: gaussian_noise_oracle(p, sig, inner=inexact_oracle(p, 0.05)),
        "wrapped_rand_k": lambda: _wrapped(comp(rand_k_compressor(k, d), noise())),
        "wrapped_exact": lambda: _wrapped(exact_oracle(p)),
        "smoothing": lambda: gaussian_smoothing_oracle(p, 0.1),
        "smoothing_noise": smoothing_noise,
        "wrapped_smoothing_noise": lambda: _wrapped(smoothing_noise()),
        "column_noise": column_noise,
    }


# members every few cases must mix (an odd number of mixes, so that the even
# seeds that take one reach them all): the draw slots disagree between rand_k
# over exact (random first) and rand_k over noise (normals first), a chain
# drawing normals twice shares its first slot with the others' normals, and
# a chain drawing one normal per row shares its slot with (n, d) normals
_MIXES = [
    ["rand_k_exact", "rand_k_noise", "noise", "rand_k_noise_other"],
    ["noise", "top_k_noise", "rand_k_noise", "exact", "top_k_exact"],
    ["inexact_noise", "noise", "wrapped_rand_k", "rand_k_noise"],
    ["unbiased_noise", "rand_k_exact", "smoothing", "bias_over_noise"],
    ["smoothing_noise", "smoothing", "noise", "wrapped_smoothing_noise",
     "rand_k_noise"],
    ["column_noise", "noise", "rand_k_noise"],
    ["noise", "column_noise", "smoothing_noise"],
]


class _Raise:
    """An identity stage that raises `exc` in its call at + 1: in step `at`
    of an engine run, as a stage node runs once per step."""

    def __init__(self, name, at):
        self.at, self.calls = at, 0
        self.exc = RuntimeError(f"{name} raised at step {at}")

    def __call__(self, G, rng):
        self.calls += 1
        if self.calls > self.at:
            raise self.exc
        return G


def _with_raising(p, seed, horizon, names, oracles):
    """(names, oracles, reference oracles, raising stages of each) for the
    case's members and two more: `raise_shared` raises in a stage after the
    exact gradient, which it shares with `raise_own`, and `raise_own` also
    in a stage of its own after that one. Each raises at a step drawn from
    [0, horizon) by a generator of its own, so the case's draws stay as
    they are; the reference of each is its chain without these stages."""
    rng = np.random.default_rng((seed, 1))
    shared = _Raise("shared stage", int(rng.integers(horizon)))
    own = _Raise("own stage", int(rng.integers(horizon)))
    noisy = gaussian_noise_oracle(p, [1.0, 100.0][int(rng.integers(2))])
    exact = exact_oracle(p)
    head = exact._query_batch.then(shared, "raise_shared")
    return (names + ["raise_shared", "raise_own"],
            oracles + [dataclasses.replace(
                noisy, _query_batch=head.then(*noisy._query_batch[-1])),
                dataclasses.replace(exact, _query_batch=head.then(own, "raise_own"))],
            oracles + [noisy, exact],
            [[]] * len(oracles) + [[shared], [shared, own]])


def _failure(raises, steps):
    """The exception a member raises before it has taken `steps` steps
    alone, or None: the earliest step's, the first stage's on a tie."""
    first = min(((r.at, i) for i, r in enumerate(raises) if r.at < steps),
                default=None)
    return None if first is None else raises[first[1]].exc


def _stepsize(p, rng, kind):
    L = p.smoothness_L
    if kind == "never":
        return float(rng.uniform(0.05, 1.0)) / L
    if kind == "mid":  # |1 - gamma L| in [1.5, 3]: the run blows up in tens of steps
        return float(rng.uniform(2.5, 4.0)) / L
    return float(rng.uniform(1e13, 1e14))  # the first step overflows


def _case(seed):
    rng = np.random.default_rng(seed)
    p = make_nesterov_worst(int(rng.integers(3, 7)))
    menu = _oracles(p, rng)
    names = list(_MIXES[seed % len(_MIXES)]) if seed % 2 == 0 else []
    extra = int(rng.integers(1 if names else 2, 4))
    names += [str(n) for n in rng.choice(sorted(menu), size=extra)]
    oracles = [menu[n]() for n in names]
    x0 = None if rng.random() < 0.5 else p.default_x0 * rng.uniform(0.5, 3.0)
    return rng, p, names, oracles, x0


def _patch_blocks(rng, monkeypatch, lanes):
    monkeypatch.setattr(optimizer, "_BLOCK_FLOATS", int(rng.integers(1, 12 * lanes)))
    monkeypatch.setattr(optimizer, "_STREAM_BLOCK", int(rng.integers(1, 9) * lanes))
    monkeypatch.setattr(tuning, "_FOLD_FLOATS", int(rng.integers(1, 9) * lanes))


@pytest.mark.parametrize("seed", range(CASES))
def test_repeated_runs_match_the_reference(seed, monkeypatch):
    rng, p, names, oracles, x0 = _case(seed)
    T, reps = int(rng.integers(3, 60)), int(rng.integers(1, 5))
    names, oracles, twins, raises = _with_raising(p, seed, T, names, oracles)
    runs = []
    for o in oracles:
        kind = ["never", "never", "mid", "once"][int(rng.integers(4))]
        runs.append((o, StepSchedule.constant(_stepsize(p, rng, kind))))
    keep = bool(rng.random() < 0.5)
    _patch_blocks(rng, monkeypatch, reps * len(runs))
    got = sgd_run_repeated_many(p, runs, T, reps, seed + 1000, x0=x0,
                                keep_traces=keep)
    start = p.default_x0 if x0 is None else x0
    for name, twin, rs, (_, sched), res in zip(names, twins, raises, runs, got):
        where = f"case seed {seed}, member {name} (gamma {sched.gamma:g})"
        agg, diverged, traces = _reference_runs(p, twin, sched, T, reps,
                                                seed + 1000, start)
        # a lane steps at t < T, or up to its first bad iterate
        exc = _failure(rs, max(n if reason in ("overflow", "non-finite") else T
                               for n, *_, reason in traces))
        if exc is not None:
            assert res is exc, where
            continue
        for field, want in agg.items():
            assert getattr(res, field).tobytes() == want.tobytes(), (where, field)
        assert res.diverged_reps == diverged, where
        assert (res.traces is not None) == keep, where
        for tr, (n, gaps, gns, x, reason) in zip(res.traces or [], traces):
            assert tr.t.tobytes() == np.arange(n).tobytes(), where
            assert tr.f_gap.tobytes() == gaps.tobytes(), where
            assert tr.grad_norm_sq.tobytes() == gns.tobytes(), where
            assert tr.final_x.tobytes() == x.tobytes(), where
            assert tr.reason == reason, where


@pytest.mark.parametrize("seed", range(CASES))
def test_searches_match_the_reference(seed, monkeypatch):
    rng, p, names, oracles, x0 = _case(seed)
    max_T, reps = int(rng.integers(3, 80)), int(rng.integers(1, 4))
    kinds = rng.choice(["never", "never", "mid", "once"], size=int(rng.integers(1, 4)))
    grid = sorted({_stepsize(p, rng, str(kind)) for kind in kinds})
    start = p.default_x0 if x0 is None else x0
    target = float(rng.uniform(0.02, 0.9)) * p.gap(start)
    if seed % 3 == 0:  # the first member's hit is iterate max_T, still a hit
        hits = [e.iterations for e in _reference_search(
            p, oracles[0], target, grid, reps, max_T, seed + 2000, start)[0]
            if e.reached]
        max_T = hits[0] if hits and hits[0] > 0 else max_T
    names, oracles, twins, raises = _with_raising(p, seed, max_T, names,
                                                  oracles)
    _patch_blocks(rng, monkeypatch, reps * len(grid) * len(oracles))
    got = tune_stepsize_many(p, oracles, target, grid, reps, max_T, seed + 2000,
                             x0=x0)
    for name, twin, rs, res in zip(names, twins, raises, got):
        where = f"case seed {seed}, member {name}"
        entries, hist_t, hist, steps = _reference_search(
            p, twin, target, grid, reps, max_T, seed + 2000, start)
        exc = _failure(rs, steps)
        if exc is not None:
            assert res is exc, where
            continue
        assert res.entries == entries, where
        assert res.history_t.tobytes() == hist_t.tobytes(), where
        assert res.history.tobytes() == hist.tobytes(), where
        race = _reference_race(entries, hist_t, hist)
        assert (res.race is None) == (race is None), where
        if race is not None:
            assert res.race[0] == race[0], where
            assert res.race[1].tobytes() == race[1].tobytes(), where
            assert res.race[2].tobytes() == race[2].tobytes(), where
