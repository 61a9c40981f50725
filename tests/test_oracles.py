from dataclasses import replace

import numpy as np
import pytest

from biased_sgd import (OracleBounds, additive_bias_oracle, compressed_oracle,
                        exact_oracle, gaussian_noise_oracle,
                        gaussian_smoothing_oracle, gs_bounds,
                        huber_shifted_oracle, inexact_oracle,
                        make_nesterov_worst, rand_k_compressor,
                        rand_k_unbiased_compressor, scale_compressor,
                        synthetic_tight_oracle, tightness_oracle,
                        top_k_compressor, uniform_direction)
from biased_sgd.config import ExperimentConfig
from biased_sgd.estimators import _CHUNK, probe_points
from biased_sgd.experiments import build_oracle, build_problem, table1_oracles
from biased_sgd.problems import Problem
from biased_sgd._rng import stream


def test_bounds_validation():
    with pytest.raises(ValueError):
        OracleBounds(m=1.0)
    with pytest.raises(ValueError):
        OracleBounds(m=-0.1)
    with pytest.raises(ValueError):
        OracleBounds(zeta_sq=-1.0)
    with pytest.raises(ValueError):
        OracleBounds(sigma_sq=-1e-9)


def test_exact_oracle_values():
    p = make_nesterov_worst(2)
    o = exact_oracle(p)
    rng = stream(0)
    g = o.query(np.array([1.0, 0.0]), rng)
    assert np.allclose(g, [2.0, -1.0], atol=0)
    assert np.allclose(o.query(p.x_star, rng), 0.0, atol=0)
    assert o.bounds == OracleBounds(0.0, 0.0, 0.0, 0.0)
    assert o.deterministic


def test_gaussian_noise_second_moment():
    p = make_nesterov_worst(10)
    o = gaussian_noise_oracle(p, 1.0)
    x = p.default_x0
    G = o.query_many(x, 100_000, stream(1))
    n = G - p.grad(x)
    emp = float(np.mean(np.einsum("ij,ij->i", n, n)))
    assert 0.97 <= emp <= 1.03  # chi-square concentration at 1e6 dof
    mean_norm = float(np.linalg.norm(n.mean(axis=0)))
    assert mean_norm < 5 * np.sqrt(1.0 / 100_000)


def test_gaussian_noise_zero_is_identity():
    p = make_nesterov_worst(4)
    inner = exact_oracle(p)
    assert gaussian_noise_oracle(p, 0.0, inner) is inner
    with pytest.raises(ValueError):
        gaussian_noise_oracle(p, -1.0)


def test_additive_bias_oracle():
    p = make_nesterov_worst(10)
    inner = exact_oracle(p)
    assert additive_bias_oracle(inner, 0.0, uniform_direction(10)) is inner
    e1 = np.zeros(10)
    e1[0] = 1.0
    o = additive_bias_oracle(inner, 0.1, e1)
    g = o.query(p.x_star, stream(2))
    expected = np.zeros(10)
    expected[0] = 0.1
    assert np.allclose(g, expected, atol=0)
    # squared bias is exactly 0.01 everywhere
    rng = stream(3)
    for _ in range(10):
        x = rng.standard_normal(10)
        dev = o.expected_query(x) - p.grad(x)
        assert dev @ dev == pytest.approx(0.01, rel=1e-12)
    assert o.bounds.zeta_sq == pytest.approx(0.01, rel=1e-12)
    with pytest.raises(ValueError):
        additive_bias_oracle(inner, 0.1, np.ones(10))  # not unit norm
    # a unit direction of another length would broadcast over every
    # coordinate: a bias of ||b||^2 = 0.1 under a declared zeta^2 = 0.01
    for bad in (np.array([1.0]), e1[None], np.eye(10)[:2] / np.sqrt(2.0)):
        with pytest.raises(ValueError, match=r"direction must have shape \(10,\)"):
            additive_bias_oracle(inner, 0.1, bad)


def test_tightness_oracle_bias_exactly_tight():
    p = make_nesterov_worst(10)
    m, zeta_sq = 0.5, 0.01
    b = np.sqrt(zeta_sq) * uniform_direction(10)
    o = tightness_oracle(p, m, zeta_sq, b)
    rng = stream(4)
    for _ in range(20):
        x = 3 * rng.standard_normal(10)
        g = p.grad(x)
        dev = o.query(x, rng) - g
        assert dev @ dev == pytest.approx(zeta_sq + m * (g @ g), rel=1e-12)
    # rho(x*) = 1, so the query at the optimum is exactly b
    assert np.allclose(o.query(p.x_star, rng), b, atol=0)
    assert o.bounds == OracleBounds(m=m, zeta_sq=zeta_sq)


def test_tightness_oracle_validation():
    p = make_nesterov_worst(4)
    with pytest.raises(ValueError):
        tightness_oracle(p, 0.5, 0.0, np.zeros(4))
    with pytest.raises(ValueError):
        tightness_oracle(p, 0.5, 0.01, uniform_direction(4))  # wrong norm


def _linear_problem(dim, c):
    c = np.asarray(c, dtype=float)
    return Problem(
        name="linear", dim=dim,
        value_many=lambda X: X @ c,
        grad_many=lambda X: np.tile(c, (len(X), 1)),
        smoothness_L=1.0,
    )


def test_gaussian_smoothing_unbiased_on_linear():
    c = np.array([1.5, -2.0, 0.5])
    p = _linear_problem(3, c)
    o = gaussian_smoothing_oracle(p, 0.1)
    G = o.query_many(np.zeros(3), 200_000, stream(5))
    mean = G.mean(axis=0)
    se = G.std(axis=0, ddof=1) / np.sqrt(len(G))
    assert np.all(np.abs(mean - c) < 5 * se)


def test_gaussian_smoothing_bounds_formula():
    p = make_nesterov_worst(10)
    L = p.smoothness_L
    b = gs_bounds(10, L, 0.01)
    assert b.m == 0.0
    assert b.zeta_sq == pytest.approx((1e-4 / 4) * L**2 * 13**3, rel=1e-12)
    assert b.M == 4 * 14
    assert b.sigma_sq == pytest.approx(3 * 1e-4 * L**2 * 14**3, rel=1e-12)
    with pytest.raises(ValueError):
        gaussian_smoothing_oracle(p, 0.0)


def test_gaussian_smoothing_bias_within_envelope():
    p = make_nesterov_worst(2)
    tau = 0.1
    o = gaussian_smoothing_oracle(p, tau)
    x = np.array([0.7, -0.4])
    G = o.query_many(x, 1_000_000, stream(6))
    mean = G.mean(axis=0)
    dev = mean - p.grad(x)
    envelope = (tau**2 / 4) * p.smoothness_L**2 * 125  # (d+3)^3 at d=2
    assert float(dev @ dev) <= envelope


def test_inexact_oracle():
    p = make_nesterov_worst(10)
    o0 = inexact_oracle(p, 0.0)
    rng = stream(7)
    x = p.default_x0
    assert np.allclose(o0.query(x, rng), p.grad(x), atol=0)
    o = inexact_oracle(p, 0.1)
    assert o.bounds.zeta_sq == pytest.approx(2 * 0.1 * p.smoothness_L, rel=1e-12)
    assert o.deterministic
    dev = o.query(x, rng) - p.grad(x)
    assert dev @ dev == pytest.approx(o.bounds.zeta_sq, rel=1e-12)
    os = gaussian_noise_oracle(p, 1.0, inner=inexact_oracle(p, 0.1))
    assert os.bounds == OracleBounds(0.0, 2 * 0.1 * p.smoothness_L, 0.0, 1.0)
    assert not os.deterministic
    with pytest.raises(ValueError):
        inexact_oracle(p, -0.1)


def test_a_noisy_inexact_config_is_noise_over_the_inexact_oracle():
    """`build_oracle` adds the noise of kind = inexact as of every other
    kind: the chain exact -> bias -> noise, with bounds (0, 2 delta L, 0,
    sigma^2)."""
    cfg = ExperimentConfig().with_overrides(kind="inexact", delta=0.1,
                                            noise_sigma_sq=1.0)
    p = build_problem(cfg)
    o, source = build_oracle(cfg, p)
    ref = gaussian_noise_oracle(p, 1.0, inner=inexact_oracle(p, 0.1))
    assert source == "derived"
    assert o.name == ref.name == "inexact(delta=0.1)+noise(1)"
    assert [s.key for s in o._query_batch] == [s.key for s in ref._query_batch]
    assert o.bounds == ref.bounds == \
        OracleBounds(0.0, 2 * 0.1 * p.smoothness_L, 0.0, 1.0)
    assert not o.deterministic
    X = np.stack(probe_points(p, 4, seed=3) + [1.5 * p.default_x0])
    for x in X:
        assert o.expected_query(x).tobytes() == ref.expected_query(x).tobytes()
    assert o.query_batch(X, stream(9)).tobytes() == \
        ref.query_batch(X, stream(9)).tobytes()


def test_huber_shifted_oracle():
    p, o = huber_shifted_oracle()
    rng = stream(8)
    assert o.query(np.array([2.0]), rng)[0] == -1.0
    assert o.query(np.array([0.0]), rng)[0] == -2.0
    assert o.bounds == OracleBounds(0.0, 4.0, 0.0, 0.0)
    assert p.name == "huber"


def test_variance_bounds_battery():
    """Assumption-3/4 and the gradient-referenced composition at random points."""
    p = make_nesterov_worst(10)
    oracles = [
        gaussian_noise_oracle(p, 1.0),
        additive_bias_oracle(gaussian_noise_oracle(p, 1.0), 0.1,
                             uniform_direction(10)),
        synthetic_tight_oracle(p, 0.3, 0.05, 2.0, 0.5),
    ]
    rng = stream(9)
    for o in oracles:
        b = o.bounds
        # the noise bound against ||grad f||^2 alone, from
        # ||a+b||^2 <= 2||a||^2 + 2||b||^2 applied to grad f + b
        M_bar, s_bar = 2.0 * b.M * (1.0 + b.m), b.sigma_sq + 2.0 * b.M * b.zeta_sq
        for _ in range(20):
            x = 2 * rng.standard_normal(10)
            g = p.grad(x)
            gns = float(g @ g)
            G = o.query_many(x, 20_000, stream(10))
            mean = G.mean(axis=0)
            bias = (o.expected_query(x) - g) if o.expected_query else (mean - g)
            # Assumption 4
            assert float(bias @ bias) <= b.m * gns + b.zeta_sq + 1e-9
            dev = G - mean
            q = np.einsum("ij,ij->i", dev, dev)
            var = float(q.mean())
            se = float(q.std(ddof=1) / np.sqrt(len(q)))
            mg = g + bias
            # Assumption 3 and its gradient-referenced corollary
            assert var <= b.M * float(mg @ mg) + b.sigma_sq + 5 * se
            assert var <= M_bar * gns + s_bar + 5 * se


def test_query_stream_determinism():
    p = make_nesterov_worst(10)
    o1 = gaussian_noise_oracle(p, 1.0)
    o2 = gaussian_noise_oracle(p, 1.0)
    r1, r2 = stream(42), stream(42)
    x = p.default_x0
    for _ in range(50):
        assert np.array_equal(o1.query(x, r1), o2.query(x, r2))


def test_query_many_matches_expected_mean():
    p = make_nesterov_worst(10)
    o = additive_bias_oracle(gaussian_noise_oracle(p, 1.0), 0.1,
                             uniform_direction(10))
    x = 2 * p.default_x0
    G = o.query_many(x, 100_000, stream(11))
    mean = G.mean(axis=0)
    se = G.std(axis=0, ddof=1) / np.sqrt(len(G))
    assert np.all(np.abs(mean - o.expected_query(x)) < 5 * se)


def test_synthetic_tight_oracle_is_exactly_tight():
    p = make_nesterov_worst(10)
    o = synthetic_tight_oracle(p, 0.4, 0.02, 1.5, 0.3)
    rng = stream(12)
    for _ in range(5):
        x = rng.standard_normal(10)
        g = p.grad(x)
        bias = o.expected_query(x) - g
        assert float(bias @ bias) == pytest.approx(
            0.4 * float(g @ g) + 0.02, rel=1e-12)
        G = o.query_many(x, 5000, stream(13))
        dev = G - o.expected_query(x)
        q = np.einsum("ij,ij->i", dev, dev)
        mg = o.expected_query(x)
        target = 1.5 * float(mg @ mg) + 0.3
        # per-draw equality by construction
        assert np.allclose(q, target, rtol=1e-10)


def _contract_oracles(d=6):
    p = make_nesterov_worst(d)
    noise = gaussian_noise_oracle(p, 1.0)
    hp, huber = huber_shifted_oracle()
    return {
        "exact": (p, exact_oracle(p)),
        "noise": (p, noise),
        "additive_bias": (p, additive_bias_oracle(noise, 0.1, uniform_direction(d))),
        "tightness": (p, tightness_oracle(p, 0.5, 0.01,
                                          0.1 * uniform_direction(d))),
        "gaussian_smoothing": (p, gaussian_smoothing_oracle(p, 0.1)),
        "inexact": (p, inexact_oracle(p, 0.1)),
        "stochastic_inexact": (p, gaussian_noise_oracle(p, 1.0, inner=inexact_oracle(p, 0.1))),
        "huber_shifted": (hp, huber),
        "synthetic_tight": (p, synthetic_tight_oracle(p, 0.3, 0.05, 2.0, 0.5)),
        "synthetic_tight_unbiased": (p, synthetic_tight_oracle(p, 0.0, 0.0, 1.0, 0.5)),
        **{f"compressed_{c.name}": (p, compressed_oracle(c, noise, p,
                                                         bounds_mode="query_only"))
           for c in (top_k_compressor(2, d), top_k_compressor(d, d),
                     rand_k_compressor(2, d), rand_k_compressor(d, d),
                     rand_k_unbiased_compressor(2, d), scale_compressor(0.36, d))},
    }


@pytest.mark.parametrize("name", list(_contract_oracles()))
def test_query_forms_wrap_the_row_map(name):
    """query and query_many are the row map on one row / on n copies of x."""
    p, o = _contract_oracles()[name]
    x = 1.5 * p.default_x0
    r1, r2 = stream(30), stream(30)
    assert o.query(x, r1).tobytes() == o.query_batch(x[None], r2)[0].tobytes()
    assert o.query_many(x, 7, r1).tobytes() == \
        o.query_batch(np.tile(x, (7, 1)), r2).tobytes()
    assert repr(r1.bit_generator.state) == repr(r2.bit_generator.state)


def _point_query_cases():
    cases = {f"contract_{name}": po for name, po in _contract_oracles(10).items()}
    cases.update({f"table1_{name}": (p, o) for name, p, o in table1_oracles()})
    return cases


@pytest.mark.parametrize("name", list(_point_query_cases()))
def test_point_query_is_the_tiled_batch(name):
    """At the estimator's chunk size, n draws at one point are the row map on
    n copies of it, to the bit, and leave the generator where it leaves it."""
    p, o = _point_query_cases()[name]
    n = _CHUNK
    for x in probe_points(p, 4, seed=2) + [1.5 * p.default_x0]:
        r1, r2 = stream(31), stream(31)
        G = o.query_many(x, n, r1)
        assert G.shape == (n, p.dim) and G.flags.writeable
        assert G.tobytes() == o.query_batch(np.tile(x, (n, 1)), r2).tobytes()
        assert repr(r1.bit_generator.state) == repr(r2.bit_generator.state)


def test_a_copy_with_a_new_row_form_derives_its_other_forms_from_it():
    """`dataclasses.replace` copies the forms `__post_init__` derived with
    the rest; the copy derives them again from its own row form, and keeps
    a form passed in."""
    p = make_nesterov_worst(10)
    x, rng = 1.5 * p.default_x0, stream(33)
    o = replace(exact_oracle(p),
                _query_batch=lambda X, rng: 2.0 * p.grad_many(X))
    twice = 2.0 * p.grad_many(x[None])
    assert o.query_batch(x[None], rng).tobytes() == twice.tobytes()
    assert o.query(x, rng).tobytes() == twice[0].tobytes()
    assert o.query_many(x, 3, rng).tobytes() == np.tile(twice, (3, 1)).tobytes()
    own = lambda x, rng: np.zeros(10)  # noqa: E731
    assert replace(o, _query=own)._query is own

    c = replace(top_k_compressor(1, 10), apply_rows=lambda G, rng: -G)
    assert c.apply(x, rng).tobytes() == (-x).tobytes()
    assert replace(c, apply=own).apply is own

    q = Problem(name="sq", dim=3, value_many=lambda X: (X * X).sum(1),
                grad_many=lambda X: 2.0 * X, smoothness_L=2.0)
    q = replace(q, value_many=lambda X: (X * X).sum(1) + 1.0,
                grad_many=lambda X: 3.0 * X)
    y = np.arange(3.0)
    assert q.value(y) == 6.0
    assert q.grad(y).tobytes() == (3.0 * y).tobytes()
    value = lambda x: 0.0  # noqa: E731
    assert replace(q, value=value).value is value
