from dataclasses import replace

import numpy as np
import pytest

from biased_sgd import (BiasedOracle, OracleBounds, additive_bias_oracle,
                        compressed_oracle, estimate_bias, estimate_noise,
                        exact_oracle, fit_bounds, gaussian_noise_oracle,
                        gaussian_smoothing_oracle, make_nesterov_worst,
                        probe_points, rand_k_compressor, synthetic_tight_oracle,
                        tightness_oracle, top_k_compressor, uniform_direction,
                        verify_declared)
from biased_sgd import estimators
from biased_sgd.estimators import fit_envelope
from biased_sgd._rng import DrawStreams, stream


def test_probe_points_span_orders_of_magnitude():
    p = make_nesterov_worst(10)
    pts = probe_points(p, 20, seed=0)
    gns = np.array([float(p.grad(x) @ p.grad(x)) for x in pts])
    assert gns.max() / gns.min() > 1e4


def test_exact_oracle_zero_bias():
    p = make_nesterov_worst(10)
    stats = estimate_bias(exact_oracle(p), p, probe_points(p, 6, seed=1),
                          samples=2000, seed=1)
    for s in stats:
        assert s.bias_norm_sq == pytest.approx(0.0, abs=1e-20)
        assert s.bias_se == 0.0  # closed-form mean


def test_additive_bias_estimate():
    p = make_nesterov_worst(10)
    inner = gaussian_noise_oracle(p, 1.0)
    o = additive_bias_oracle(inner, 0.1, uniform_direction(10))
    # strip the closed form to force the Monte-Carlo estimator
    o_mc = replace(o, expected_query=None)
    pts = probe_points(p, 6, seed=2)
    stats = estimate_bias(o_mc, p, pts, samples=100_000, seed=2)
    for s in stats:
        assert abs(s.bias_norm_sq - 0.01) <= 5 * s.bias_se + 1e-4


def test_top_k_constant_vector_bias_tight():
    p = make_nesterov_worst(10)
    o = compressed_oracle(top_k_compressor(1, 10), exact_oracle(p), p)
    x = np.linalg.solve(p.hessian, np.ones(10))  # grad f(x) = (1, ..., 1)
    stats = estimate_bias(o, p, [x], samples=10, seed=3)
    g = p.grad(x)
    assert stats[0].bias_norm_sq == pytest.approx(0.9 * float(g @ g), rel=1e-9)


def test_noise_estimates():
    p = make_nesterov_worst(10)
    pts = probe_points(p, 6, seed=4)
    det = estimate_noise(exact_oracle(p), p, pts, samples=10, seed=4)
    assert all(s.noise_var == 0.0 for s in det)
    noisy = estimate_noise(gaussian_noise_oracle(p, 1.0), p, pts,
                           samples=50_000, seed=4)
    for s in noisy:
        assert abs(s.noise_var - 1.0) <= 5 * s.noise_se
    # rand-k of the exact gradient: variance / ||E C(g)||^2 = d/k - 1
    o = compressed_oracle(rand_k_compressor(2, 10), exact_oracle(p), p)
    stats = estimate_noise(o, p, pts, samples=50_000, seed=5)
    for s in stats:
        ratio = s.noise_var / s.mean_norm_sq
        assert ratio == pytest.approx(10 / 2 - 1, rel=0.1)


def test_fit_recovers_tightness_oracle():
    p = make_nesterov_worst(10)
    m, zeta_sq = 0.5, 0.01
    o = tightness_oracle(p, m, zeta_sq, np.sqrt(zeta_sq) * uniform_direction(10))
    pts = probe_points(p, 12, seed=6)
    stats = estimate_bias(o, p, pts, samples=10, seed=6)
    fit = fit_bounds(stats)
    assert fit.bias_fit.slope == pytest.approx(m, rel=0.05)
    assert fit.bias_fit.intercept == pytest.approx(zeta_sq, rel=0.05)
    assert fit.feasible


def test_fit_flat_bias_gives_zero_slope():
    p = make_nesterov_worst(10)
    o = additive_bias_oracle(exact_oracle(p), 0.1, uniform_direction(10))
    stats = estimate_bias(o, p, probe_points(p, 10, seed=7), samples=10, seed=7)
    fit = fit_bounds(stats)
    assert fit.bias_fit.slope == pytest.approx(0.0, abs=1e-6)
    assert fit.bias_fit.intercept == pytest.approx(0.01, rel=1e-6)


def test_fit_smoothing_below_theoretical_envelope():
    p = make_nesterov_worst(2)
    tau = 0.1
    o = gaussian_smoothing_oracle(p, tau)
    stats = estimate_bias(o, p, probe_points(p, 8, seed=8), samples=60_000, seed=8)
    fit = fit_bounds(stats)
    assert fit.bias_fit.intercept <= (tau**2 / 4) * p.smoothness_L**2 * 125


def test_calibration_on_exactly_tight_oracle():
    p = make_nesterov_worst(10)
    true = dict(m=0.3, zeta_sq=0.05, M=2.0, sigma_sq=0.5)
    o = synthetic_tight_oracle(p, **true)
    pts = probe_points(p, 12, seed=9)
    stats = [*estimate_bias(o, p, pts, samples=1_000_000, seed=9)]
    fit = fit_bounds(stats)
    assert fit.bias_fit.slope == pytest.approx(true["m"], rel=0.05)
    assert fit.bias_fit.intercept == pytest.approx(true["zeta_sq"], rel=0.05)
    assert fit.noise_fit.slope == pytest.approx(true["M"], rel=0.05)
    assert fit.noise_fit.intercept == pytest.approx(true["sigma_sq"], rel=0.05)


def test_envelope_soundness_post_fit():
    rng = stream(10)
    x = np.geomspace(1e-4, 10.0, 25)
    ucb = 0.7 * x + 0.3 + 0.05 * rng.standard_normal(25) * x
    fit = fit_envelope(x, ucb, slope_cap=1.0)
    assert np.all(ucb <= fit.slope * x + fit.intercept + 1e-12)


def test_envelope_fit_validation():
    with pytest.raises(ValueError):
        fit_envelope(np.array([1.0, 2.0, 3.0]), np.zeros(3))
    flatx = np.linspace(1.0, 2.0, 8)
    with pytest.raises(ValueError):
        fit_envelope(flatx, np.zeros(8))


def test_assumption4_infeasible_detection():
    p = make_nesterov_worst(10)
    u = uniform_direction(10)

    def rows(X, n, rng):
        G = p.grad_many(X)
        return G + 1.2 * np.linalg.norm(G, axis=1)[:, None] * u

    o = BiasedOracle(name="overbiased", dim=10,
                     bounds=OracleBounds(m=0.5, zeta_sq=1.0),
                     _query_batch=rows,
                     expected_query=lambda x: rows(x[None], 1, None)[0],
                     deterministic=True)
    stats = estimate_bias(o, p, probe_points(p, 10, seed=11), samples=10, seed=11)
    fit = fit_bounds(stats)
    assert not fit.feasible
    rep = verify_declared(o, p, n_points=10, samples=10, seed=11)
    assert rep.bias.verdict == "violated" and rep.bias.margin > 0


def test_verify_declared_passes_and_planted_violation():
    p = make_nesterov_worst(10)
    o = additive_bias_oracle(gaussian_noise_oracle(p, 1.0), 0.1,
                             uniform_direction(10))
    rep = verify_declared(o, p, n_points=8, samples=20_000, seed=12)
    assert rep.ok
    # declare half the true additive bias: must be flagged with a margin
    lying = o.with_bounds(OracleBounds(m=0.0, zeta_sq=0.005, M=0.0, sigma_sq=1.0))
    rep_bad = verify_declared(lying, p, n_points=8, samples=20_000, seed=12)
    assert rep_bad.bias.verdict == "violated"
    assert rep_bad.bias.margin == pytest.approx(0.005, rel=0.2)
    assert rep_bad.noise.ok


def test_verify_exact_oracle_zero_margins():
    p = make_nesterov_worst(10)
    rep = verify_declared(exact_oracle(p), p, n_points=6, samples=10, seed=13)
    assert rep.ok
    assert rep.bias.margin <= 0 and rep.noise.margin <= 0


def test_sample_floor_enforced():
    p = make_nesterov_worst(4)
    with pytest.raises(ValueError):
        estimate_bias(gaussian_noise_oracle(p, 1.0), p,
                      probe_points(p, 5, seed=0), samples=100, seed=0)
    for samples in (0, 1):  # the covariance divides by samples - 1
        with pytest.raises(ValueError, match="samples must be >= 2"):
            verify_declared(gaussian_noise_oracle(p, 1.0), p, n_points=5,
                            samples=samples)
        # a deterministic oracle is sampled twice whatever is asked
        assert verify_declared(exact_oracle(p), p, n_points=5,
                               samples=samples).ok


@pytest.mark.parametrize("build", [
    exact_oracle,
    lambda p: gaussian_noise_oracle(p, 1.0),
    lambda p: gaussian_smoothing_oracle(p, 0.1),
    lambda p: compressed_oracle(rand_k_compressor(1, p.dim), exact_oracle(p), p),
    lambda p: compressed_oracle(rand_k_compressor(1, p.dim),
                                gaussian_noise_oracle(p, 1.0), p),
], ids=["exact", "noise", "gaussian_smoothing", "rand_k", "rand_k_noise"])
def test_collect_independent_of_chunk_size(build, monkeypatch):
    # each draw of a query has its own stream, so the samples do not depend
    # on how they are split into chunks, even where a query draws twice
    p = make_nesterov_worst(10)
    o = build(p)
    pts = probe_points(p, 3, seed=14)

    def stats():
        return estimators._collect_points(o, p, pts, 5000, seed=14, tag=0x14)

    default = stats()
    monkeypatch.setattr(estimators, "_CHUNK", 7)
    for a, b in zip(default, stats()):
        for field in ("bias_norm_sq", "bias_se", "noise_var", "mean_norm_sq"):
            assert getattr(b, field) == pytest.approx(getattr(a, field),
                                                      rel=1e-12, abs=0.0)
        assert b.noise_se == pytest.approx(a.noise_se, rel=1e-12, abs=0.0)
        np.testing.assert_allclose(b.bias, a.bias, rtol=1e-12)


def test_split_queries_draw_the_rows_of_one_query():
    # a query's n-th draw goes on where the earlier queries' n-th draws
    # stopped, so a chain drawing normals in two stages gives the same rows
    # however its samples split into queries
    p = make_nesterov_worst(10)
    o = gaussian_noise_oracle(p, 1.0, inner=gaussian_smoothing_oracle(p, 0.1))
    x = probe_points(p, 1, seed=15)[0]
    whole = o.query_many(x, 12, DrawStreams(stream(15)).call())
    rng = DrawStreams(stream(15))
    parts = [o.query_many(x, n, rng.call()) for n in (5, 1, 6)]
    assert np.concatenate(parts).tobytes() == whole.tobytes()


def test_noise_se_does_not_cancel_far_from_the_optimum(monkeypatch):
    # at the r = 10 probe point ||grad f||^2 = 608 against a noise of 1;
    # moments summed about 0 lost eight digits of noise_se there, and the
    # loss depended on how the samples were split into chunks
    p = make_nesterov_worst(10)
    o = gaussian_noise_oracle(p, 1.0)
    x = probe_points(p, 3, seed=14)[-1]
    assert float(p.grad(x) @ p.grad(x)) > 500
    ses = []
    for chunk in (7, 13, 100, 999, 2_048, 4_096, 20_000):
        monkeypatch.setattr(estimators, "_CHUNK", chunk)
        (s,) = estimators._collect_points(o, p, [x], 5000, seed=14, tag=0x14)
        ses.append(s.noise_se)
    assert max(ses) - min(ses) <= 1e-12 * min(ses)
