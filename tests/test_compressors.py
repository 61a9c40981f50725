import itertools

import numpy as np
import pytest

from biased_sgd import (OracleBounds, UnsupportedCompositionError,
                        additive_bias_oracle, compressed_oracle, exact_oracle,
                        fit_oracle_bounds, gaussian_noise_oracle,
                        make_nesterov_worst, rand_k, rand_k_compressor,
                        rand_k_unbiased, rand_k_unbiased_compressor,
                        scale_compressor, synthetic_tight_oracle,
                        tightness_oracle, top_k, top_k_compressor,
                        uniform_direction)
from biased_sgd.compressors import Compressor, _rand_k_rows
from biased_sgd.estimators import verify_declared
from biased_sgd._rng import stream


def enumerate_rand_k(g, k, scale=1.0):
    """Brute-force distribution of rand-k over all k-subsets (the test oracle)."""
    g = np.asarray(g, dtype=float)
    d = len(g)
    outputs = []
    for subset in itertools.combinations(range(d), k):
        out = np.zeros(d)
        out[list(subset)] = scale * g[list(subset)]
        outputs.append(out)
    return np.array(outputs)


def test_top_k_examples():
    assert np.array_equal(top_k(np.array([3.0, -1.0, 2.0]), 2), [3.0, 0.0, 2.0])
    g = np.array([0.3, -1.2, 5.0, 0.0])
    assert np.array_equal(top_k(g, 4), g)
    g = np.ones(4)
    err = top_k(g, 1) - g
    assert float(err @ err) == 3.0  # ((d-k)/d)||g||^2 exactly on constant vectors


def test_top_k_tie_break_lowest_index():
    g = np.array([1.0, -1.0, 1.0])
    assert np.array_equal(top_k(g, 1), [1.0, 0.0, 0.0])
    assert np.array_equal(top_k(g, 2), [1.0, -1.0, 0.0])


def test_top_k_k_range_errors():
    with pytest.raises(ValueError):
        top_k(np.ones(3), 0)
    with pytest.raises(ValueError):
        top_k(np.ones(3), 4)
    with pytest.raises(ValueError):
        rand_k(np.ones(3), 0, stream(0))


def test_top_k_deterministic_bound_random_vectors():
    rng = stream(1)
    d = 10
    for _ in range(10_000):
        g = rng.standard_normal(d)
        k = int(rng.integers(1, d + 1))
        err = top_k(g, k) - g
        assert float(err @ err) <= (d - k) / d * float(g @ g) + 1e-12


def test_top_k_permutation_and_sign_equivariance():
    rng = stream(2)
    for _ in range(200):
        g = rng.standard_normal(8)  # continuous, ties have measure zero
        k = int(rng.integers(1, 9))
        perm = rng.permutation(8)
        signs = rng.choice([-1.0, 1.0], size=8)
        lhs = top_k(signs * g[perm], k)
        rhs = signs * top_k(g, k)[perm]
        assert np.array_equal(lhs, rhs)


@pytest.mark.parametrize("d,k", [(d, k) for d in range(2, 7) for k in range(1, 7) if k <= d])
def test_rand_k_exact_identities_by_enumeration(d, k):
    rng = stream(3)
    g = rng.standard_normal(d)
    outs = enumerate_rand_k(g, k)
    mean = outs.mean(axis=0)
    assert np.allclose(mean, (k / d) * g, atol=1e-12)
    err = outs - g
    e_err = float(np.mean(np.einsum("ij,ij->i", err, err)))
    assert e_err == pytest.approx((d - k) / d * float(g @ g), abs=1e-12)
    assert float(mean @ mean) == pytest.approx((k / d) ** 2 * float(g @ g), abs=1e-12)
    e_sq = float(np.mean(np.einsum("ij,ij->i", outs, outs)))
    assert e_sq == pytest.approx((k / d) * float(g @ g), abs=1e-12)


def test_rand_k_linearity_by_enumeration():
    rng = stream(4)
    for d, k in [(3, 1), (4, 2), (5, 3)]:
        a, b = rng.standard_normal(d), rng.standard_normal(d)
        lhs = enumerate_rand_k(a + b, k).mean(axis=0)
        rhs = enumerate_rand_k(a, k).mean(axis=0) + enumerate_rand_k(b, k).mean(axis=0)
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_rand_k_sampling_matches_enumeration():
    g = np.array([3.0, 0.0, 0.0])
    rng = stream(5)
    draws = np.array([rand_k(g, 1, rng) for _ in range(30_000)])
    assert np.allclose(draws.mean(axis=0), [1.0, 0.0, 0.0], atol=0.05)
    # every subset appears with the uniform frequency
    counts = (draws[:, 0] != 0).mean()
    assert counts == pytest.approx(1 / 3, abs=0.02)


def test_rand_k_k_equals_d_identity():
    g = np.arange(5.0)
    rng = stream(6)
    assert np.array_equal(rand_k(g, 5, rng), g)
    assert np.array_equal(rand_k_unbiased(g, 5, rng), g)


def test_rand_k_unbiased_enumeration():
    g = np.array([1.0, 0.0])
    outs = enumerate_rand_k(g, 1, scale=2.0)
    assert sorted(map(tuple, outs)) == [(0.0, 0.0), (2.0, 0.0)]
    assert np.allclose(outs.mean(axis=0), g, atol=1e-15)
    g = np.array([1.0, 1.0])
    outs = enumerate_rand_k(g, 1, scale=2.0)
    err = outs - g
    assert float(np.mean(np.einsum("ij,ij->i", err, err))) == pytest.approx(
        2.0, abs=1e-12)  # (d/k - 1) ||g||^2


def test_batch_rows_match_distributions():
    rng = stream(7)
    G = np.tile(np.array([1.0, 2.0, 3.0, 4.0]), (40_000, 1))
    c = rand_k_compressor(2, 4)
    out = c.apply_rows(G, rng)
    assert np.allclose(out.mean(axis=0), 0.5 * G[0], atol=0.05)
    kept = (out != 0).sum(axis=1)
    assert np.all(kept == 2)
    ct = top_k_compressor(2, 4)
    out_t = ct.apply_rows(G, rng)
    assert np.array_equal(out_t[0], [0.0, 0.0, 3.0, 4.0])


class _FixedKeys:
    """A draw source whose `random` returns the given keys."""

    def __init__(self, keys):
        self.keys = keys

    def random(self, size):
        assert tuple(size) == self.keys.shape
        return self.keys.copy()


def test_k1_paths_bit_equal_to_sort_and_partition():
    # tied magnitudes (signs, zeros, rounded normals) as well as random rows
    G = np.vstack([[[1.0, -1.0, 0.5, 1.0], [0.0, 0.0, 0.0, 0.0],
                    [-2.0, 2.0, 2.0, -2.0], [0.5, -3.0, 3.0, 1.0]],
                   stream(11).standard_normal((300, 4)),
                   np.round(stream(12).standard_normal((300, 4)))])
    top = np.argsort(-np.abs(G), axis=1, kind="stable")[:, :1]
    want = np.zeros_like(G)
    np.put_along_axis(want, top, np.take_along_axis(G, top, axis=1), axis=1)
    assert top_k_compressor(1, 4).apply_rows(G, None).tobytes() == want.tobytes()
    assert top_k(G[0], 1).tobytes() == want[0].tobytes()

    ref_rng, rng = stream(13), stream(13)
    keys = ref_rng.random(G.shape)
    want = G * (keys <= np.partition(keys, 0, axis=1)[:, 0:1])
    assert rand_k_compressor(1, 4).apply_rows(G, rng).tobytes() == want.tobytes()
    assert rng.random() == ref_rng.random()  # same draws consumed

    d = 10
    for n in (1, 60, 1024):
        # rounded normals tie in magnitude and round small negatives to -0.0;
        # every third row is unrounded, and the last is signed zeros only
        G = np.round(2 * stream(21, n).standard_normal((n, d))) / 2
        G[1::3] = stream(22, n).standard_normal(G[1::3].shape)
        G[-1, :5], G[-1, 5:] = -0.0, 0.0
        zeros = np.signbit(G[G == 0])
        assert zeros.any() and not zeros.all()
        top = np.argsort(-np.abs(G), axis=1, kind="stable")[:, :1]
        want = np.zeros_like(G)
        np.put_along_axis(want, top, np.take_along_axis(G, top, axis=1), axis=1)
        assert top_k_compressor(1, d).apply_rows(G, None).tobytes() == want.tobytes()

        for first in (0, 1):  # which tie pattern row 0 takes
            keys = stream(23, n).random((n, d))
            ties = (np.arange(n) + first) % 4
            for i in np.flatnonzero(ties == 0):  # two equal minima
                keys[i, [3, 8]] = keys[i].min() / 2
            keys[ties == 1] = keys[ties == 1, :1]  # all keys equal
            mask = keys <= np.partition(keys, 0, axis=1)[:, 0:1]
            kept = mask.sum(axis=1)
            assert (kept[ties == 0] == 2).all() and (kept[ties == 1] == d).all()
            got = rand_k_compressor(1, d).apply_rows(G, _FixedKeys(keys))
            assert got.tobytes() == (G * mask).tobytes(), (n, first)


def empirical_contraction(c: Compressor, rng: np.random.Generator,
                          n_vectors: int = 1000, samples: int = 200) -> float:
    """Worst observed E||C(g)-g||^2 / ||g||^2 over random test vectors.

    Validates a claimed delta without trusting it: the result should not
    exceed 1 - delta (up to Monte-Carlo error for stochastic compressors).
    """
    worst = 0.0
    reps = 1 if c.deterministic else samples
    for _ in range(n_vectors):
        g = rng.standard_normal(c.dim)
        G = np.tile(g, (reps, 1))
        err = c.apply_rows(G, rng) - G
        ratio = float(np.mean(np.einsum("ij,ij->i", err, err))) / float(g @ g)
        worst = max(worst, ratio)
    return worst


def test_contraction_invariant():
    rng = stream(8)
    for c in (top_k_compressor(3, 10), scale_compressor(0.36, 10)):
        worst = empirical_contraction(c, rng, n_vectors=1000)
        assert worst <= (1 - c.delta) + 1e-12  # deterministic: exact, no slack
    c = rand_k_compressor(3, 10)
    worst = empirical_contraction(c, rng, n_vectors=200, samples=400)
    assert worst <= (1 - c.delta) + 5 * (1 - c.delta) / np.sqrt(400)


def test_composed_bounds_top_k():
    p = make_nesterov_worst(10)
    o = compressed_oracle(top_k_compressor(1, 10), exact_oracle(p), p)
    assert o.bounds.m == pytest.approx(0.9, rel=1e-12)
    assert o.bounds.zeta_sq == 0.0
    assert o.bounds.M == 0.0
    assert o.bounds.sigma_sq == 0.0


def test_composed_bounds_rand_k_stochastic():
    p = make_nesterov_worst(10)
    noisy = gaussian_noise_oracle(p, 1.0)
    o = compressed_oracle(rand_k_compressor(1, 10), noisy, p)
    assert o.bounds.M == pytest.approx(9.0, rel=1e-12)
    assert o.bounds.sigma_sq == pytest.approx(0.1, rel=1e-12)
    assert o.bounds.m == pytest.approx(0.9, rel=1e-12)
    ou = compressed_oracle(rand_k_unbiased_compressor(1, 10), noisy, p)
    assert ou.bounds.m == 0.0
    assert ou.bounds.M == pytest.approx(9.0, rel=1e-12)
    assert ou.bounds.sigma_sq == pytest.approx(10.0, rel=1e-12)


def test_composed_bounds_delta_one_is_exact():
    p = make_nesterov_worst(10)
    o = compressed_oracle(scale_compressor(1.0, 10), exact_oracle(p), p)
    assert o.bounds.m == 0.0
    x = p.default_x0
    assert np.allclose(o.query(x, stream(9)), p.grad(x), atol=0)


@pytest.mark.parametrize("inner_name", ["exact", "noise", "noise_bias",
                                        "tightness"])
def test_identity_compressors_keep_the_inner_bounds(inner_name):
    # top_k, rand_k and rand_k_unbiased at k = d and scale at delta = 1 are
    # the identity, so their derived bounds and mean are the inner oracle's,
    # noisy or biased as it may be
    d = 10
    p = make_nesterov_worst(d)
    inner = {"exact": lambda: exact_oracle(p),
             "noise": lambda: gaussian_noise_oracle(p, 100.0),
             "noise_bias": lambda: additive_bias_oracle(
                 gaussian_noise_oracle(p, 1.0), 0.1, uniform_direction(d)),
             "tightness": lambda: tightness_oracle(
                 p, 0.5, 0.04, 0.2 * uniform_direction(d))}[inner_name]()
    identities = [top_k_compressor(d, d), rand_k_compressor(d, d),
                  rand_k_unbiased_compressor(d, d), scale_compressor(1.0, d)]
    x = p.default_x0
    for c in identities:
        assert c.identity
        o = compressed_oracle(c, inner, p)
        assert o.bounds == inner.bounds
        assert o.expected_query is inner.expected_query
        assert o.deterministic == inner.deterministic
        assert np.array_equal(o.query(x, stream(4)), inner.query(x, stream(4)))
    for c in (top_k_compressor(d - 1, d), rand_k_compressor(d - 1, d),
              rand_k_unbiased_compressor(d - 1, d), scale_compressor(0.99, d)):
        assert not c.identity


def test_custom_random_compressor_matches_its_built_in_twin():
    # a stage after the first sees the one exact gradient row before it n
    # times, so a custom random compressor draws as the built-in rand-k
    # does: both give the same rows and the same fitted bounds
    d = 10
    p = make_nesterov_worst(d)
    custom = Compressor(name="custom_rand_1", kind="custom", dim=d,
                        apply_rows=lambda G, rng: _rand_k_rows(G, 1, rng),
                        deterministic=False)
    twins = [compressed_oracle(c, exact_oracle(p), p, bounds_mode="query_only")
             for c in (custom, rand_k_compressor(1, d))]
    twins = [o.with_bounds(fit_oracle_bounds(o, p, seed=5).bounds) for o in twins]
    x = stream(2).standard_normal(d)
    rows = [o.query_many(x, 5, stream(3)) for o in twins]
    assert rows[0].tobytes() == rows[1].tobytes()
    assert len({r.tobytes() for r in rows[0]}) > 1
    assert twins[0].bounds == twins[1].bounds


def test_unsupported_composition_errors():
    p = make_nesterov_worst(10)
    biased_inner = compressed_oracle(top_k_compressor(1, 10), exact_oracle(p), p)
    with pytest.raises(UnsupportedCompositionError):
        compressed_oracle(rand_k_compressor(1, 10), biased_inner, p)
    with pytest.raises(UnsupportedCompositionError):
        compressed_oracle(top_k_compressor(1, 10), gaussian_noise_oracle(p, 1.0), p)
    # the same pair composes with placeholder bounds, which a fit can replace
    o = compressed_oracle(top_k_compressor(1, 10), gaussian_noise_oracle(p, 1.0),
                          p, bounds_mode="query_only")
    assert o.bounds == OracleBounds()
    fit = fit_oracle_bounds(o, p, seed=3)
    assert fit.feasible
    assert 0 <= o.with_bounds(fit.bounds).bounds.m < 1
    # bounds are derived here or placeholders; fitting them is the caller's
    with pytest.raises(ValueError, match="unknown bounds_mode 'estimated'"):
        compressed_oracle(top_k_compressor(1, 10), exact_oracle(p), p,
                          bounds_mode="estimated")


@pytest.mark.parametrize("k,M_b,s_b",
                         [(k, M_b, s_b) for k in (1, 2)
                          for M_b in (0.0, 1.0) for s_b in (0.0, 1.0)])
def test_composed_bounds_lemma_monte_carlo(k, M_b, s_b):
    """The derived (m, M, sigma^2) of rand-k over tight (M_b, s_b) noise hold."""
    p = make_nesterov_worst(4)
    inner = synthetic_tight_oracle(p, 0.0, 0.0, M_b, s_b) \
        if (M_b or s_b) else exact_oracle(p)
    o = compressed_oracle(rand_k_compressor(k, 4), inner, p)
    rep = verify_declared(o, p, n_points=6, samples=30_000, seed=11)
    assert rep.ok, (rep.bias, rep.noise)


def _state(rng):
    return repr(rng.bit_generator.state)


def _compressors(d):
    return [top_k_compressor(2, d), top_k_compressor(d, d),
            rand_k_compressor(2, d), rand_k_compressor(d, d),
            rand_k_unbiased_compressor(2, d), rand_k_unbiased_compressor(d, d),
            scale_compressor(0.36, d)]


@pytest.mark.parametrize("index", range(7))
def test_apply_wraps_apply_rows(index):
    c = _compressors(6)[index]
    g = stream(20).standard_normal(6)
    r1, r2 = stream(21), stream(21)
    assert c.apply(g, r1).tobytes() == c.apply_rows(g[None], r2)[0].tobytes()
    assert _state(r1) == _state(r2)
    if c.k == c.dim:  # the identity draws nothing
        assert _state(r1) == _state(stream(21))


def test_public_sparsifiers_wrap_the_row_maps():
    g = stream(22).standard_normal(6)
    r1, r2 = stream(23), stream(23)
    assert np.array_equal(top_k(g, 2),
                          top_k_compressor(2, 6).apply_rows(g[None], None)[0])
    assert np.array_equal(rand_k(g, 2, r1),
                          rand_k_compressor(2, 6).apply_rows(g[None], r2)[0])
    assert np.array_equal(rand_k_unbiased(g, 2, r1),
                          rand_k_unbiased_compressor(2, 6).apply_rows(g[None], r2)[0])
    state = _state(r1)
    rand_k(g, 6, r1)
    rand_k_unbiased(g, 6, r1)
    assert _state(r1) == state

