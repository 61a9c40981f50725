import functools
from dataclasses import replace

import numpy as np
import pytest

from biased_sgd import (BiasedOracle, Divergence, OracleBounds, Problem,
                        StepSchedule, additive_bias_oracle, compressed_oracle,
                        descent_lemma_rhs, error_floor, exact_oracle,
                        gaussian_noise_oracle, gaussian_smoothing_oracle,
                        huber_shifted_oracle, make_huber_problem,
                        make_nesterov_worst, pl_envelope, rand_k_compressor,
                        scaled_x0, sgd_run, sgd_run_repeated,
                        sgd_run_repeated_many, stepsize_cap,
                        synthetic_tight_oracle, tightness_oracle,
                        top_k_compressor, tune_stepsize_many,
                        uniform_direction)
from biased_sgd import compressors, optimizer, tuning
from biased_sgd._rng import DrawStreams, stream
from biased_sgd.oracles import Chain, Stage, draw


def _noisy_biased(p, sigma_sq=1.0, zeta=0.1):
    return additive_bias_oracle(gaussian_noise_oracle(p, sigma_sq), zeta,
                                uniform_direction(p.dim))


def test_exact_gd_monotone_decrease():
    p = make_nesterov_worst(10)
    tr = sgd_run(p, exact_oracle(p), StepSchedule.constant(1 / p.smoothness_L),
                 500, seed=1)
    assert np.all(np.diff(tr.f_gap) <= 1e-15)
    assert tr.status == "completed"
    assert len(tr.t) == 501
    assert tr.f_gap[0] == pytest.approx(1.0, rel=1e-12)


def test_huber_shifted_walks_right_and_flags_divergence():
    p, o = huber_shifted_oracle()
    tr = sgd_run(p, o, StepSchedule.constant(0.1), 100, seed=0,
                 x0=np.array([2.0]))
    assert tr.final_x[0] == pytest.approx(12.0, rel=1e-12)
    assert tr.diverged and tr.reason == "monotone-increase"
    # x_t = x0 + gamma * t along the whole trace
    expect = 2.0 + 0.1 * tr.t
    assert np.allclose(tr.f_gap, expect - 0.5, rtol=1e-12)


def test_tightness_run_reaches_remark_floor():
    p = make_nesterov_worst(10)
    m, zeta_sq = 0.5, 0.01
    b = np.sqrt(zeta_sq) * uniform_direction(10)
    o = tightness_oracle(p, m, zeta_sq, b)
    tr = sgd_run(p, o, StepSchedule.constant(1 / p.smoothness_L), 5000, seed=0)
    target = zeta_sq / (1 - m)
    assert tr.grad_norm_sq[-1] == pytest.approx(target, rel=0.01)
    assert tr.status == "completed"


def test_one_step_descent_lemma_monte_carlo():
    p = make_nesterov_worst(10)
    o = _noisy_biased(p)
    L, b = p.smoothness_L, o.bounds
    rng = stream(3)
    points = [2 * rng.standard_normal(10) for _ in range(5)]
    for gamma in (0.5 * stepsize_cap(L, b), stepsize_cap(L, b)):
        for x in points:
            G = o.query_many(x, 100_000, stream(4))
            fx = p.value(x)
            drops = p.value_many(x - gamma * G) - fx
            mean = float(drops.mean())
            se = float(drops.std(ddof=1) / np.sqrt(len(drops)))
            g = p.grad(x)
            rhs = descent_lemma_rhs(float(g @ g), gamma, L, b)
            assert mean <= rhs + 5 * se


def test_floor_attainment_noise():
    p = make_nesterov_worst(10)
    o = gaussian_noise_oracle(p, 1.0)
    gamma = 0.01
    agg = sgd_run_repeated(p, o, StepSchedule.constant(gamma), 8000, reps=10,
                           seed=5)
    tail = agg.tail_mean_f_gap()
    assert 0 < tail <= error_floor(gamma, p.smoothness_L, p.pl_mu, o.bounds)


def test_linear_rate_envelope_deterministic_runs():
    p = make_nesterov_worst(10)
    L, mu = p.smoothness_L, p.pl_mu
    zeta_sq = 0.01
    oracles = [
        additive_bias_oracle(exact_oracle(p), 0.1, uniform_direction(10)),
        tightness_oracle(p, 0.5, zeta_sq, np.sqrt(zeta_sq) * uniform_direction(10)),
        compressed_oracle(top_k_compressor(1, 10), exact_oracle(p), p),
    ]
    for o in oracles:
        gamma = 0.5 * stepsize_cap(L, o.bounds)
        tr = sgd_run(p, o, StepSchedule.constant(gamma), 3000, seed=1)
        env = np.array([pl_envelope(int(t), gamma, tr.f_gap[0], L, mu, o.bounds)
                        for t in tr.t])
        assert np.all(tr.f_gap <= env + 1e-12)


def test_run_determinism_and_seed_sensitivity():
    p = make_nesterov_worst(10)
    o = _noisy_biased(p)
    sched = StepSchedule.constant(0.01)
    a = sgd_run(p, o, sched, 200, seed=7)
    b = sgd_run(p, o, sched, 200, seed=7)
    c = sgd_run(p, o, sched, 200, seed=8)
    assert np.array_equal(a.f_gap, b.f_gap)
    assert np.array_equal(a.final_x, b.final_x)
    assert not np.array_equal(a.f_gap, c.f_gap)


def test_repeated_runs_aggregate():
    p = make_nesterov_worst(10)
    o = _noisy_biased(p)
    sched = StepSchedule.constant(0.01)
    agg = sgd_run_repeated(p, o, sched, 100, reps=1, seed=9)
    single = sgd_run(p, o, sched, 100, seed=9, rng=stream(9, 0))
    assert np.array_equal(agg.mean_f_gap, single.f_gap)
    assert np.all(agg.se_f_gap == 0.0)
    # deterministic oracle: zero SE across reps
    agg_det = sgd_run_repeated(p, exact_oracle(p), sched, 50, reps=4, seed=9)
    assert np.all(agg_det.se_f_gap == 0.0)
    # aggregate equals the per-rep mean/SE recomputed from kept traces
    agg5 = sgd_run_repeated(p, o, sched, 60, reps=5, seed=10)
    stack = np.stack([tr.f_gap for tr in agg5.traces])
    assert np.allclose(agg5.mean_f_gap, stack.mean(axis=0), rtol=1e-12)
    assert np.allclose(agg5.se_f_gap,
                       stack.std(axis=0, ddof=1) / np.sqrt(5), rtol=1e-9)


def test_repeated_runs_noise_concentration():
    p = make_nesterov_worst(10)
    o = gaussian_noise_oracle(p, 1.0)
    agg = sgd_run_repeated(p, o, StepSchedule.constant(0.01), 5000, reps=20,
                           seed=11)
    assert agg.se_f_gap[-1] < agg.mean_f_gap[-1] / 3


def test_noise_floor_ratio_tracks_sigma():
    # at fixed stepsize the noise floor scales like sigma^2
    p = make_nesterov_worst(10)
    tails = {}
    for sigma_sq in (1.0, 100.0):
        o = gaussian_noise_oracle(p, sigma_sq)
        agg = sgd_run_repeated(p, o, StepSchedule.constant(0.01), 10_000,
                               reps=10, seed=21)
        tails[sigma_sq] = agg.tail_mean_f_gap()
    assert tails[100.0] / tails[1.0] == pytest.approx(100.0, rel=0.25)


def test_divergence_guard_overflow():
    p = make_nesterov_worst(10)
    o = exact_oracle(p)
    tr = sgd_run(p, o, StepSchedule.constant(10.0), 2000, seed=0)  # unstable
    assert tr.diverged
    assert tr.reason in ("overflow", "non-finite")
    assert len(tr.t) < 2001  # partial trace


def test_schedule_validation():
    for gamma in (0.0, -0.1, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            StepSchedule.constant(gamma)
        with pytest.raises(ValueError, match="positive and finite"):
            StepSchedule(gamma)
    assert StepSchedule.constant(np.float32(0.5)).gamma == 0.5
    p = make_nesterov_worst(4)
    with pytest.raises(ValueError):
        sgd_run(p, exact_oracle(p), StepSchedule.constant(0.1), 0, seed=0)


def test_completed_run_evaluates_f_once_per_step():
    # f is evaluated once per iterate and lane: value_many rows, T+1 per lane
    p = make_nesterov_worst(6)
    rows = []

    def value_many(X):
        rows.append(len(X))
        return p.value_many(X)

    def value(x):
        rows.append(1)
        return p.value(x)

    counted = replace(p, value=value, value_many=value_many)
    T = 30
    sched = StepSchedule.constant(0.05)
    for reps in (1, 3):
        rows.clear()
        agg = sgd_run_repeated(counted, gaussian_noise_oracle(counted, 1.0),
                               sched, T, reps=reps, seed=3)
        assert not agg.any_diverged
        assert sum(rows) == reps * (T + 1)
        plain = sgd_run_repeated(p, gaussian_noise_oracle(p, 1.0), sched, T,
                                 reps=reps, seed=3)
        assert np.array_equal(agg.mean_f_gap, plain.mean_f_gap)


@pytest.mark.parametrize("fill,reason", [(np.nan, "non-finite"),
                                         (-1e13, "overflow")])
def test_divergence_reason_from_bad_oracle(fill, reason):
    p = make_nesterov_worst(4)
    o = BiasedOracle(name="bad", dim=4, bounds=OracleBounds(),
                     _query_batch=lambda X, rng: np.full(X.shape, fill))
    tr = sgd_run(p, o, StepSchedule.constant(1.0), 10, seed=0)
    assert tr.diverged and tr.reason == reason
    assert len(tr.t) == 1  # only the starting point was recorded


def _lane_oracle(name, p):
    noise = gaussian_noise_oracle(p, 1.0)
    if name == "noise":
        return noise
    if name == "rand_k_noise":
        return compressed_oracle(rand_k_compressor(2, p.dim), noise, p)
    if name == "top_k_noise":
        return compressed_oracle(top_k_compressor(2, p.dim), noise, p,
                                 bounds_mode="query_only")
    if name == "gaussian_smoothing":
        return gaussian_smoothing_oracle(p, 0.01)
    return synthetic_tight_oracle(p, 0.5, 0.01, 0.5, 1.0)


def _assert_same_run(tr, ref):
    assert np.array_equal(tr.t, ref.t)
    assert (tr.status, tr.reason) == (ref.status, ref.reason)
    np.testing.assert_allclose(tr.f_gap, ref.f_gap, rtol=1e-12, atol=0)
    np.testing.assert_allclose(tr.grad_norm_sq, ref.grad_norm_sq, rtol=1e-12,
                               atol=0)


@pytest.mark.parametrize("name", ["noise", "rand_k_noise", "top_k_noise",
                                  "gaussian_smoothing", "synthetic_tight"])
def test_repeated_lanes_match_single_runs(name):
    # rep i of a repeated run is the one-lane run on stream(seed, i): its
    # draws do not depend on the lanes stepping beside it
    p = make_nesterov_worst(6)
    o = _lane_oracle(name, p)
    sched = StepSchedule.constant(0.02)
    agg = sgd_run_repeated(p, o, sched, 80, reps=5, seed=13)
    assert len(agg.traces) == 5
    for i, tr in enumerate(agg.traces):
        _assert_same_run(tr, sgd_run(p, o, sched, 80, seed=13, rng=stream(13, i)))
    assert not np.array_equal(agg.traces[0].f_gap, agg.traces[1].f_gap)


_ROW_MAP = np.array([0, 1, 2, 0, 1, 2, 1])  # rows 0, 3 share generator 0


def _own_node(gens, rows=_ROW_MAP):
    """A lone stage node as an `rng`: row i draws from gens[rows[i]], each
    (kind, slot, row shape) from a pull the node makes on its first draw of
    it."""
    node = optimizer._Node(None, None, gens, {}, 0)
    node.rows, node.t = rows, -1
    return node


def _step(node):
    """`node` at its next step, its first draw at slot 0."""
    node.t, node.slot = node.t + 1, 0
    return node


def _draw_steps(node, kind, steps, d, rows=len(_ROW_MAP)):
    """(steps, rows, d): one `kind` draw of every row per step."""
    return np.stack([getattr(_step(node), kind)((rows, d)) for _ in range(steps)])


def test_lane_streams_rows_sharing_a_generator_get_the_same_values():
    for kind in ("standard_normal", "random"):
        node = _own_node([stream(5, r) for r in range(3)])
        Z = _draw_steps(node, kind, 50, 4)
        for r in range(3):
            rows = Z[:, _ROW_MAP == r]
            assert np.array_equal(rows, np.repeat(rows[:, :1], len(rows[0]), axis=1))
        assert not np.array_equal(Z[:, 0], Z[:, 1])
    with pytest.raises(ValueError, match="random draws rows of shape"):
        _step(node).random((len(_ROW_MAP), 5))


@pytest.mark.parametrize("kind", ["standard_normal", "random"])
def test_lane_streams_one_kind_equals_per_step_draws(kind):
    # the first draw keeps each generator's own stream, read in blocks: over
    # two full blocks and a partial one, every row is what one draw of d per
    # step from a fresh generator gives
    d = 4
    block = optimizer._BLOCK_FLOATS // (3 * d)
    steps = 2 * block + 37
    node = _own_node([stream(5, r) for r in range(3)])
    Z = _draw_steps(node, kind, steps, d)
    assert node.pulls[kind, 0, (d,)].buf.shape == (3, block, d)
    for r in range(3):
        ref = stream(5, r)
        expected = np.stack([getattr(ref, kind)(d) for _ in range(steps)])
        for row in np.flatnonzero(_ROW_MAP == r):
            assert np.array_equal(Z[:, row], expected)
    # a shared pull, drawn once per step: row i of `now` is generator i's
    pull = optimizer._Pull([stream(5, r) for r in range(3)], kind, 0, (d,))
    assert np.array_equal(np.stack([pull.next().copy() for _ in range(steps)]),
                          Z[:, :3])


@pytest.mark.parametrize("second", ["random", "standard_normal"])
def test_lane_streams_second_draw_reads_the_jumped_stream_in_blocks(second):
    # a step's second draw, whatever its kind (Gaussian smoothing under
    # noise draws normals twice), reads the generator jumped once, in whole
    # blocks: every row is that stream drawn one d at a time
    d = 4
    block = optimizer._BLOCK_FLOATS // (3 * d)
    steps = block + 37  # past a refill of the block
    node = _own_node([stream(6, r) for r in range(3)])
    Z, U = [], []
    for _ in range(steps):
        Z.append(_step(node).standard_normal((len(_ROW_MAP), d)))
        U.append(getattr(node, second)((len(_ROW_MAP), d)))
    assert {k: pull.buf.shape for k, pull in node.pulls.items()} == {
        ("standard_normal", 0, (d,)): (3, block, d), (second, 1, (d,)): (3, block, d)}
    Z, U = np.stack(Z), np.stack(U)
    for r in range(3):
        base = stream(6, r)
        jumped = np.random.Generator(stream(6, r).bit_generator.jumped())
        z = np.stack([base.standard_normal(d) for _ in range(steps)])
        u = np.stack([getattr(jumped, second)(d) for _ in range(steps)])
        for row in np.flatnonzero(_ROW_MAP == r):
            assert np.array_equal(Z[:, row], z)
            assert np.array_equal(U[:, row], u)


def test_lane_streams_buffers_stay_within_the_byte_budget():
    budget = optimizer._BLOCK_FLOATS * 8
    assert budget == 64 * 1024
    for d, n_gens in ((10, 20), (10, 3), (5_000, 20)):
        node = _own_node([stream(7, r) for r in range(n_gens)],
                         rows=np.arange(n_gens))
        for _ in range(3):
            _step(node).standard_normal((n_gens, d))
            node.random((n_gens, d))
        for buf in (pull.buf for pull in node.pulls.values()):
            # one block per generator, of at least one row
            assert all(b.nbytes <= budget for b in buf)
            assert buf.nbytes <= max(budget, n_gens * d * 8)


def test_a_prep_is_applied_once_per_block_refill():
    # a prepared draw costs one prep call per block of draws read ahead,
    # however many steps and nodes read it, and its rows are the prep of
    # the raw draw's rows
    d = 4
    block = optimizer._BLOCK_FLOATS // (3 * d)
    steps = 2 * block + 37  # three fills of the block
    calls = []

    def double(Z):
        calls.append(Z.shape)
        return 2.0 * Z

    gens = [stream(9, r) for r in range(3)]
    node, raw = _own_node(gens), _own_node(gens)
    twin = optimizer._Node(None, None, gens, node.pulls, 1)  # node's pulls
    twin.rows = _ROW_MAP[::-1]
    size = (len(_ROW_MAP), d)
    for _ in range(steps):
        got = _step(node).prepared("standard_normal", size, double)
        twin.t, twin.slot = node.t, 0
        again = twin.prepared("standard_normal", size, double)
        want = 2.0 * _step(raw).standard_normal(size)
        assert got.tobytes() == want.tobytes()
        assert again.tobytes() == want[::-1].tobytes()
    assert calls == [(3 * block, d)] * 3


@pytest.mark.parametrize("ties", [False, True])
@pytest.mark.parametrize("k", [1, 3, 9])
def test_prepared_rand_k_rows_equal_the_per_call_draws(k, ties):
    # rand-k's mask, made once per block, gives every row what a draw of its
    # own per call gives, across refills and as rows leave mid-block; with
    # `ties` the keys are coarsened so that a row has several smallest, and
    # the gradients hold zeros of both signs and negative entries
    d = 10
    block = optimizer._BLOCK_FLOATS // (3 * d)
    steps = 2 * block + 37
    if ties:
        mask = compressors._smallest_keys(k)

        def coarse(keys):
            return mask(np.floor(4.0 * keys))

        def stage(G, rng):
            return G * draw(rng, "random", G.shape, coarse)
    else:
        def stage(G, rng):
            return compressors._rand_k_rows(G, k, rng)

    G_all = np.round(2.0 * stream(11).standard_normal((len(_ROW_MAP), d))) / 2.0
    node = _own_node([stream(10, r) for r in range(3)])
    refs = [DrawStreams(stream(10, r)) for r in range(3)]
    rows, signed_zeros, kept = _ROW_MAP, 0, []
    for t in range(steps):
        if t in (block // 2, block + 100):  # lanes leave mid-block
            rows = rows[1:-1]
            node.rows = rows
        G = G_all[:len(rows)]
        got = stage(G, _step(node))
        for r, ref in enumerate(refs):
            ref.call().random((1, d))  # every generator draws every step
            for i in np.flatnonzero(rows == r):
                assert got[i].tobytes() == stage(G[i:i + 1], ref.replay())[0].tobytes()
        signed_zeros += np.count_nonzero((got == 0) & np.signbit(got) & (G != 0))
        kept.append(np.count_nonzero(got, axis=1))
    assert len(rows) == 3 and signed_zeros > 0
    kept = np.concatenate(kept)
    assert kept.max() <= k if not ties else kept.max() > k


def test_a_recorded_iterate_computes_its_gradients_once():
    # a first stage keyed by the problem's grad_many takes the gradients the
    # record computed at that iterate: one grad_many row per lane and
    # iterate, and the bits of a chain that computes its own
    p0 = make_nesterov_worst(10)
    rows = []

    def grad_many(X):
        rows.append(len(X))
        return p0.grad_many(X)

    p = replace(p0, grad_many=grad_many)
    T, reps = 50, 3
    runs = [(gaussian_noise_oracle(p, 1.0), StepSchedule.constant(0.1)),
            (exact_oracle(p), StepSchedule.constant(0.2))]
    shared = sgd_run_repeated_many(p, runs, T, reps, seed=1)
    assert sum(rows) == 2 * reps * (T + 1)
    rows.clear()
    own = [(replace(o, _query_batch=Chain(Stage(st.fn, ("own", st.key))
                                          for st in o._query_batch)), sched)
           for o, sched in runs]
    alone = sgd_run_repeated_many(p, own, T, reps, seed=1)
    assert sum(rows) == 2 * reps * (T + 1) + 2 * reps * T
    for a, b in zip(shared, alone):
        for ta, tb in zip(a.traces, b.traces):
            for field in ("f_gap", "grad_norm_sq", "final_x"):
                assert getattr(ta, field).tobytes() == getattr(tb, field).tobytes()


def _per_call_lane(p, o, gamma, T, gen):
    """(f gaps, final x) of one lane stepped one `DrawStreams(gen)` call per
    step, up to T steps or to its first iterate past the divergence limit."""
    rng, x = DrawStreams(gen), p.default_x0.copy()
    fs = [p.value_many(x[None])[0]]
    for _ in range(T):
        x = x - gamma * o._query_batch(x[None], rng.call())[0]
        f = p.value_many(x[None])[0]
        limit = optimizer.DIVERGENCE_LIMIT
        if not (abs(f) <= limit and np.vecdot(x, x) <= limit * limit):
            break
        fs.append(f)
    return np.array(fs) - p.f_star, x


def test_prepared_draws_in_the_engine_equal_the_per_call_reference(monkeypatch):
    # rand-k at k = 1, 3 and d - 1 over one noise stage, and noise of
    # another scale, step in one engine run: the rand-k nodes read one pull
    # of keys with three masks, the noise nodes one pull of normals with two
    # scales. Blocks of 4 steps refill often and a spiking stage drops lanes
    # mid-block; every lane is still its own per-call run.
    p = make_nesterov_worst(10)
    reps, T, gamma, seed = 4, 60, 0.05, 21
    monkeypatch.setattr(optimizer, "_BLOCK_FLOATS", 4 * reps * p.dim)
    pulls = []

    class Recorded(optimizer._Pull):
        def __init__(self, *args):
            super().__init__(*args)
            pulls.append(self)

    monkeypatch.setattr(optimizer, "_Pull", Recorded)

    def spikes(G, rng):
        return np.where(rng.random((len(G), 1)) < 0.02, 1e16, G)

    noise = gaussian_noise_oracle(p, 1.0)
    oracles = [compressed_oracle(rand_k_compressor(k, p.dim), noise, p)
               for k in (1, 3, p.dim - 1)] + [gaussian_noise_oracle(p, 4.0)]
    oracles = [replace(o, _query_batch=o._query_batch.then(spikes, "spikes"))
               for o in oracles]
    sched = StepSchedule.constant(gamma)
    runs = sgd_run_repeated_many(p, [(o, sched) for o in oracles], T, reps,
                                 seed, keep_traces=True)
    # (kind, row shape, preps) per pull: the spikes draw at two slots
    assert sorted((pl.kind, pl.buf.shape[2:], len(pl.preps)) for pl in pulls) == [
        ("random", (1,), 0), ("random", (1,), 0), ("random", (p.dim,), 3),
        ("standard_normal", (p.dim,), 2)]
    lengths = []
    for o, run in zip(oracles, runs):
        for r, tr in enumerate(run.traces):
            gaps, x = _per_call_lane(p, o, gamma, T, stream(seed, r))
            assert tr.f_gap.tobytes() == gaps.tobytes()
            assert tr.final_x.tobytes() == x.tobytes()
            lengths.append(len(tr.t))
    assert min(lengths) < T + 1 == max(lengths)  # some lanes leave, some finish


def _blow_up_oracle(p, rate):
    """Noisy gradient rows, each replaced by 1e16 with probability `rate`."""
    def rows(X, rng):
        G = p.grad_many(X) + 0.1 * rng.standard_normal(X.shape)
        G[rng.random(X.shape)[:, 0] < rate] = 1e16
        return G
    return BiasedOracle(name="blow_up", dim=p.dim, bounds=OracleBounds(),
                        _query_batch=rows)


def test_lanes_diverging_mid_run_leave_the_rest_unaffected():
    p = make_nesterov_worst(6)
    o = _blow_up_oracle(p, 0.005)
    sched = StepSchedule.constant(0.05)
    T, reps, seed = 100, 6, 4
    agg = sgd_run_repeated(p, o, sched, T, reps=reps, seed=seed)
    lengths = np.array([len(tr.t) for tr in agg.traces])
    stopped = np.flatnonzero(lengths < T + 1)
    assert 0 < len(stopped) < reps  # some lanes, not all, diverge mid-run
    for i, tr in enumerate(agg.traces):
        _assert_same_run(tr, sgd_run(p, o, sched, T, seed=seed,
                                     rng=stream(seed, i)))
    assert agg.diverged_reps == [Divergence(int(i), "overflow", int(lengths[i]))
                                 for i in stopped]
    # the count at each recorded t is the number of lanes still running
    assert np.array_equal(agg.count, (lengths[:, None] > agg.t).sum(axis=0))
    assert agg.count[lengths.min() - 1] == reps
    assert agg.count[lengths.min()] == reps - np.sum(lengths == lengths.min())
    # the aggregate is the mean over the traces still running at each t
    for j in (0, lengths.min(), T):
        alive = [tr.f_gap[j] for tr in agg.traces if len(tr.t) > j]
        assert agg.mean_f_gap[j] == pytest.approx(np.mean(alive), rel=1e-12)


def test_streamed_aggregate_matches_kept_traces(monkeypatch):
    # a small stream block folds the aggregate in many blocks; diverging and
    # monotone-increasing lanes must come out as with one block
    p = make_nesterov_worst(6)
    cases = [(p, _blow_up_oracle(p, 0.01), 0.05, None),
             (*huber_shifted_oracle(), 0.1, np.array([2.0]))]
    for prob, o, gamma, x0 in cases:
        sched = StepSchedule.constant(gamma)
        kept = sgd_run_repeated(prob, o, sched, 120, reps=4, seed=8, x0=x0)
        monkeypatch.setattr(optimizer, "_STREAM_BLOCK", 28)  # 7 slots per block
        streamed = sgd_run_repeated(prob, o, sched, 120, reps=4, seed=8, x0=x0,
                                    keep_traces=False)
        monkeypatch.undo()
        assert streamed.traces is None and kept.traces is not None
        for field in ("t", "mean_f_gap", "se_f_gap", "mean_grad_norm_sq",
                      "se_grad_norm_sq", "count"):
            assert np.array_equal(getattr(kept, field), getattr(streamed, field))
        assert kept.diverged_reps == streamed.diverged_reps
        assert kept.diverged_reps




@functools.lru_cache(maxsize=None)
def _long_dense_run():
    """A 50,000-step run recorded at every iterate, shared by the cases below."""
    p = make_nesterov_worst(2)
    o = gaussian_noise_oracle(p, 1.0)
    T = 50_000
    sched = StepSchedule.constant(0.2)
    return p, o, sched, T, sgd_run_repeated(p, o, sched, T, reps=2, seed=5)


@pytest.mark.parametrize("keep_traces", [True, False])
def test_thinned_record_grid_matches_the_dense_run(monkeypatch, keep_traces):
    # beyond FULL_TRACE_LIMIT a run records log-thinned checkpoints; every
    # recorded slot must hold what a dense run holds at that iterate
    p, o, sched, T, dense = _long_dense_run()
    assert np.array_equal(dense.t, np.arange(T + 1))
    monkeypatch.setattr(optimizer, "FULL_TRACE_LIMIT", 100)
    monkeypatch.setattr(optimizer, "_STREAM_BLOCK", 2 * 4_000)  # 4,000 slots
    thin = sgd_run_repeated(p, o, sched, T, reps=2, seed=5,
                            keep_traces=keep_traces)
    assert len(thin.t) == 42_644 and thin.t[-1] == T
    for field in ("mean_f_gap", "se_f_gap", "mean_grad_norm_sq",
                  "se_grad_norm_sq", "count"):
        assert np.array_equal(getattr(thin, field),
                              getattr(dense, field)[thin.t]), field
    if not keep_traces:
        assert thin.traces is None
        return
    for tr, full in zip(thin.traces, dense.traces):
        assert np.array_equal(tr.t, thin.t)
        assert np.array_equal(tr.f_gap, full.f_gap[tr.t])


def test_both_thinned_grids_keep_their_iterations():
    # the engine's record grid and the stepsize search's history grid,
    # spelled out: dense up to a limit, then log-spaced to T, T included
    def record(T):
        if T <= 1_000_000:
            return np.arange(T + 1)
        tail = np.unique(np.geomspace(1024, T, 99_000).astype(np.int64))
        return np.unique(np.concatenate([np.arange(1024), tail, [T]]))

    def history(T):
        if T <= 200_000:
            return np.arange(T + 1)
        tail = np.geomspace(200_000, T, 1_000).astype(np.int64)
        return np.unique(np.concatenate([np.arange(200_001), tail, [T]]))

    for grid, spelled, limit in ((optimizer._record_grid, record, 1_000_000),
                                 (tuning.history_grid, history, 200_000)):
        for T in (limit, limit + 1, 10 * limit, 10**9):
            got, want = grid(T), spelled(T)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), T


def _bad_input(case):
    """(problem, oracle, x0) of one input the engine rejects."""
    p = make_nesterov_worst(4)
    o, x0 = exact_oracle(p), None
    if case == "x0 shape":
        x0 = np.zeros(5)
    elif case == "no default x0":
        p = Problem("plain", 4, p.value_many, p.grad_many, p.smoothness_L)
    elif case == "nan x0":
        x0 = np.array([1.0, np.nan, 0.0, 0.0])
    elif case == "x0 beyond the limit":
        x0 = scaled_x0(p, 1e13)  # f(x0) - f* = 1e13
    else:  # "oracle dimension": Huber's (n, 1) gradient would broadcast
        o = exact_oracle(make_huber_problem())
    return p, o, x0


@pytest.mark.parametrize("case,message", [
    ("x0 shape", r"x0 must have shape \(4,\)"),
    ("no default x0", "problem plain has no default x0; pass one"),
    ("nan x0", "x0 fails the divergence test"),
    ("x0 beyond the limit", "x0 fails the divergence test"),
    ("oracle dimension", "oracle exact has dimension 1, problem nesterov_worst_d4 4"),
])
def test_the_engine_rejects_a_bad_start_or_oracle(case, message):
    # rejected before any step, by the repeated runs and the search alike; a
    # start that fails the divergence test would otherwise be reported as
    # diverging at iterate 1, with a trace of iterate 0 alone
    p, o, x0 = _bad_input(case)
    with pytest.raises(ValueError, match=message):
        sgd_run_repeated_many(p, [(o, StepSchedule(0.1))], 5, 2, seed=1, x0=x0)
    with pytest.raises(ValueError, match=message):
        tune_stepsize_many(p, [o], 1e-3, grid=[0.1], reps=2, max_T=5, x0=x0)
