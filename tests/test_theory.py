import dataclasses
import math

import numpy as np
import pytest

from biased_sgd import (OracleBounds, RatePrediction, descent_lemma_rhs,
                        error_floor, gs_bounds, pl_envelope, pl_iterations,
                        pl_prediction, pl_stepsize, pl_stepsize_proof,
                        psi_bound, smooth_iterations, smooth_prediction,
                        smooth_stepsize, smooth_stepsize_proof, stepsize_cap,
                        zo_budget)
from biased_sgd._rng import stream

ZERO = OracleBounds()


def test_smooth_stepsize_examples():
    assert smooth_stepsize(1.0, 1.0, ZERO) == 1.0
    b = OracleBounds(sigma_sq=1.0)
    assert smooth_stepsize(0.1, 1.0, b) == pytest.approx(0.05)
    randk = OracleBounds(m=0.9, M=9.0)
    assert smooth_stepsize(0.1, 1.0, randk) == pytest.approx(0.1)


def test_smooth_iterations_examples():
    assert smooth_iterations(0.5, 1.0, 1.0, ZERO) == math.ceil(4 / 0.5)
    b = OracleBounds(sigma_sq=1.0)
    assert smooth_iterations(0.1, 1.0, 1.0, b) == 800
    # m = 0.5 doubles the deterministic term and quadruples the noise term
    t_m0 = smooth_iterations(0.1, 1.0, 1.0, ZERO)
    t_m5 = smooth_iterations(0.1, 1.0, 1.0, OracleBounds(m=0.5, zeta_sq=0.01))
    assert t_m5 == 2 * t_m0
    n_m0 = smooth_iterations(1e-3, 1.0, 1.0, OracleBounds(sigma_sq=50.0))
    n_m5 = smooth_iterations(1e-3, 1.0, 1.0, OracleBounds(m=0.5, sigma_sq=50.0))
    assert n_m5 == pytest.approx(4 * n_m0, rel=1e-6)


def test_pl_formulas_examples():
    assert pl_stepsize(0.5, 1.0, 0.1, ZERO) == 1.0
    kappa = 10.0
    T = pl_iterations(0.01, 1.0, 0.1, 1.0, ZERO)
    assert T == math.ceil(kappa * math.log(200.0))
    b = OracleBounds(sigma_sq=1.0)
    assert pl_stepsize(0.01, 1.0, 0.1, b) == pytest.approx(0.001)
    assert pl_stepsize_proof(0.01, 1.0, 0.1, b) == pytest.approx(0.001)
    # top-k with k/d = 0.1, noiseless: 10x the GD budget
    topk = OracleBounds(m=0.9)
    assert pl_iterations(0.01, 1.0, 0.1, 1.0, topk) == \
        pytest.approx(10 * kappa * math.log(200.0), abs=1.0)


def test_error_floor_examples():
    assert error_floor(0.5, 1.0, 0.1, ZERO) == 0.0
    b = OracleBounds(sigma_sq=1.0)
    assert error_floor(0.01, 1.0, 0.1, b) == pytest.approx(0.05)
    bz = OracleBounds(zeta_sq=0.01)
    for gamma in (0.01, 0.5, 1.0):
        assert error_floor(gamma, 1.0, 0.1, bz) == pytest.approx(0.05)
    with pytest.raises(ValueError):
        error_floor(2.0, 1.0, 0.1, ZERO)  # above 1/((M+1)L)
    with pytest.raises(ValueError):
        error_floor(0.01, 1.0, 0.0, ZERO)


def test_psi_bound_examples():
    assert psi_bound(100, 1.0, 2.0, 1.0, ZERO) == pytest.approx(2 * 2.0 / 100)
    b = OracleBounds(m=0.0, zeta_sq=0.3, sigma_sq=2.0)
    gamma = 0.1
    tail = psi_bound(10**9, gamma, 1.0, 1.0, b)
    assert tail == pytest.approx(gamma * 2.0 + 0.3, rel=1e-6)
    b9 = OracleBounds(m=0.9)
    assert psi_bound(100, 0.5, 1.0, 1.0, b9) == \
        pytest.approx(10 * psi_bound(100, 0.5, 1.0, 1.0, ZERO), rel=1e-12)


def test_descent_lemma_rhs():
    assert descent_lemma_rhs(4.0, 1.0, 1.0, ZERO) == pytest.approx(-2.0)
    assert descent_lemma_rhs(0.0, 0.5, 1.0, ZERO) == 0.0
    b = OracleBounds(m=0.5, zeta_sq=0.1, sigma_sq=2.0)
    gamma = stepsize_cap(1.0, b)
    expect = 0.5 * gamma * (-0.5) * 4.0 + 0.5 * gamma * 0.1 + 0.5 * gamma**2 * 2.0
    assert descent_lemma_rhs(4.0, gamma, 1.0, b) == pytest.approx(expect, rel=1e-12)


def test_zo_budget():
    d, L, mu, F0 = 10, 2.0, 0.2, 1.0
    gb = gs_bounds(d, L, 1e-8)
    assert stepsize_cap(L, gb) == pytest.approx(1.0 / ((4 * d + 17) * L), rel=1e-12)
    # negligible tau: budget grows linearly in d through the (M+1) term
    t10 = zo_budget(1e-3, 10, L, mu, 1e-10, F0)
    t20 = zo_budget(1e-3, 20, L, mu, 1e-10, F0)
    assert t20 / t10 == pytest.approx((4 * 20 + 17) / (4 * 10 + 17), rel=1e-3)
    # bias floor of the smoothing parameters
    tau = 0.01
    assert gs_bounds(d, L, tau).zeta_sq / (2 * mu) == \
        pytest.approx(tau**2 * L**2 * (d + 3) ** 3 / (8 * mu), rel=1e-12)


def _random_bounds(rng):
    return OracleBounds(
        m=float(rng.uniform(0, 0.95)),
        zeta_sq=float(rng.uniform(0, 2.0)) * (rng.random() < 0.7),
        M=float(rng.uniform(0, 10.0)) * (rng.random() < 0.7),
        sigma_sq=float(rng.uniform(0, 5.0)) * (rng.random() < 0.7),
    )


def test_budget_monotonicity_random_grid():
    rng = stream(21)
    for _ in range(300):
        b = _random_bounds(rng)
        L = float(rng.uniform(0.5, 5.0))
        mu = float(rng.uniform(0.01, 0.5))
        F0 = float(rng.uniform(0.1, 5.0))
        eps = float(rng.uniform(1e-4, 0.5))
        for fn in (lambda bb, e=eps, f=F0: smooth_iterations(e, L, f, bb),
                   lambda bb, e=eps, f=F0: pl_iterations(e, L, mu, f, bb)):
            base = fn(b)
            assert fn(OracleBounds(b.m, b.zeta_sq, b.M, b.sigma_sq + 1.0)) >= base
            assert fn(OracleBounds(b.m, b.zeta_sq, b.M + 1.0, b.sigma_sq)) >= base
            m2 = min(0.99, b.m + 0.04)
            assert fn(OracleBounds(m2, b.zeta_sq, b.M, b.sigma_sq)) >= base
        assert smooth_iterations(eps * 1.5, L, F0, b) <= smooth_iterations(eps, L, F0, b)
        assert pl_iterations(eps * 1.5, L, mu, F0, b) <= pl_iterations(eps, L, mu, F0, b)
        assert smooth_iterations(eps, L, F0 + 1.0, b) >= smooth_iterations(eps, L, F0, b)


def test_proof_pair_consistency_smooth():
    rng = stream(22)
    for _ in range(500):
        b = _random_bounds(rng)
        L = float(rng.uniform(0.5, 5.0))
        F0 = float(rng.uniform(0.0, 5.0))
        eps = float(rng.uniform(1e-4, 1.0))
        gamma = smooth_stepsize_proof(eps, L, b)
        T = smooth_iterations(eps, L, F0, b)
        bound = eps + b.zeta_sq / (1 - b.m)
        # 1e-12 at the scale of the bound: double precision cannot certify
        # a tighter margin when the bias floor is large
        assert psi_bound(T, gamma, F0, L, b) <= bound + 1e-12 * max(1.0, bound)
        # headline stepsize satisfies the relaxed 3/2-floor version
        gamma_h = smooth_stepsize(eps, L, b)
        relaxed = eps + 1.5 * b.zeta_sq / (1 - b.m)
        assert psi_bound(T, gamma_h, F0, L, b) <= relaxed + 1e-12 * max(1.0, relaxed)


def test_proof_pair_consistency_pl():
    rng = stream(23)
    for _ in range(500):
        b = _random_bounds(rng)
        L = float(rng.uniform(0.5, 5.0))
        mu = float(rng.uniform(0.01, min(0.5, L)))
        F0 = float(rng.uniform(0.0, 5.0))
        eps = float(rng.uniform(1e-4, 1.0))
        gamma = pl_stepsize_proof(eps, L, mu, b)
        T = pl_iterations(eps, L, mu, F0, b)
        bound = eps + b.zeta_sq / (2 * mu * (1 - b.m))
        assert pl_envelope(T, gamma, F0, L, mu, b) <= bound + 1e-12 * max(1.0, bound)
        gamma_h = pl_stepsize(eps, L, mu, b)
        relaxed = eps + 2 * b.zeta_sq / (2 * mu * (1 - b.m))
        assert pl_envelope(T, gamma_h, F0, L, mu, b) <= \
            relaxed + 1e-12 * max(1.0, relaxed)



@pytest.mark.parametrize("regime", ["smooth", "pl"])
@pytest.mark.parametrize("seed", [24, 25])
def test_proof_stepsize_is_the_headline_one_at_zero_zeta(regime, seed):
    # the proof stepsize is the headline formula without its zeta^2 term,
    # bit for bit, eps = 0 and sigma^2 = 0 included
    rng = stream(seed)
    for _ in range(2000):
        b = _random_bounds(rng)
        L = float(rng.uniform(0.5, 5.0))
        mu = float(rng.uniform(0.01, min(0.5, L)))
        eps = float(rng.uniform(1e-6, 1.0)) * (rng.random() < 0.9)
        cap = 1.0 / ((b.M + 1.0) * L)
        if regime == "smooth":
            got = smooth_stepsize_proof(eps, L, b)
            headline = smooth_stepsize(eps, L, dataclasses.replace(b, zeta_sq=0.0))
            formula = eps * (1.0 - b.m) / (2.0 * L * b.sigma_sq) if b.sigma_sq \
                else math.inf
        else:
            got = pl_stepsize_proof(eps, L, mu, b)
            headline = pl_stepsize(eps, L, mu, dataclasses.replace(b, zeta_sq=0.0))
            formula = eps * mu * (1.0 - b.m) / (L * b.sigma_sq) if b.sigma_sq \
                else math.inf
        assert got == headline == min(cap, formula)

def test_textbook_recovery_no_stray_constants():
    L, mu, F0, eps = 2.0, 0.25, 1.5, 1e-3
    assert smooth_stepsize(eps, L, ZERO) == 1.0 / L
    assert smooth_iterations(eps, L, F0, ZERO) == math.ceil(4 * F0 * L / eps)
    assert pl_stepsize(eps, L, mu, ZERO) == 1.0 / L
    assert pl_iterations(eps, L, mu, F0, ZERO) == \
        math.ceil((L / mu) * math.log(2 * F0 / eps))


def test_rate_prediction_invariants():
    b = OracleBounds(m=0.5, zeta_sq=0.1, M=3.0, sigma_sq=1.0)
    for pred in (smooth_prediction(0.01, 2.0, 1.0, b),
                 pl_prediction(0.01, 2.0, 0.2, 1.0, b)):
        assert pred.stepsize <= stepsize_cap(2.0, b) + 1e-15
        assert pred.floor >= 0.0
        assert pred.iterations >= 1
    with pytest.raises(ValueError):
        RatePrediction(stepsize=0.1, iterations=10, floor=-1.0, measure="function_gap")
    with pytest.raises(ValueError):
        RatePrediction(stepsize=0.1, iterations=10, floor=0.0, measure="nonsense")


def test_validation_errors():
    with pytest.raises(ValueError):
        smooth_iterations(0.0, 1.0, 1.0, ZERO)
    with pytest.raises(ValueError):
        pl_iterations(0.1, 1.0, -0.1, 1.0, ZERO)
    with pytest.raises(ValueError):
        smooth_stepsize(-0.1, 1.0, ZERO)
    with pytest.raises(ValueError):
        psi_bound(0, 0.1, 1.0, 1.0, ZERO)
