"""Closed-form stepsizes, iteration budgets, and error floors.

Two stepsize variants exist for each regime: the headline one (with the
zeta^2 term in the numerator) and the proof one (without it). The iteration
budgets carry the proof constants, so pairing them with the proof stepsize
reproduces the guarantee arithmetic exactly; the headline stepsize is never
smaller and satisfies the same guarantee up to a 3/2 factor on the bias floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .oracles import OracleBounds, gs_bounds

_CAP_TOL = 1.0 + 1e-9


def stepsize_cap(L: float, bounds: OracleBounds) -> float:
    """Largest admissible constant stepsize 1 / ((M+1) L)."""
    if L <= 0:
        raise ValueError("L must be positive")
    return 1.0 / ((bounds.M + 1.0) * L)


def _check_gamma(gamma: float, L: float, bounds: OracleBounds) -> None:
    cap = stepsize_cap(L, bounds)
    if gamma <= 0 or gamma > cap * _CAP_TOL:
        raise ValueError(f"stepsize {gamma} outside (0, 1/((M+1)L)] = (0, {cap}]")


def smooth_stepsize(eps: float, L: float, bounds: OracleBounds) -> float:
    """gamma = min{ 1/((M+1)L), (eps(1-m) + zeta^2) / (2 L sigma^2) }."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    cap = stepsize_cap(L, bounds)
    if bounds.sigma_sq == 0.0:
        return cap
    return min(cap, (eps * (1.0 - bounds.m) + bounds.zeta_sq)
               / (2.0 * L * bounds.sigma_sq))


def smooth_stepsize_proof(eps: float, L: float, bounds: OracleBounds) -> float:
    """Proof variant: min{ 1/((M+1)L), eps(1-m) / (2 L sigma^2) }."""
    return smooth_stepsize(eps, L, replace(bounds, zeta_sq=0.0))


def smooth_iterations(eps: float, L: float, F0: float,
                      bounds: OracleBounds) -> int:
    """Budget max{4(M+1)F L / (eps(1-m)), 8 F L sigma^2 / (eps^2 (1-m)^2)}.

    Paired with the proof stepsize it guarantees the averaged squared gradient
    norm is at most eps + zeta^2/(1-m).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if F0 < 0:
        raise ValueError("F0 must be nonnegative")
    om = 1.0 - bounds.m
    t1 = 4.0 * (bounds.M + 1.0) * F0 * L / (eps * om)
    t2 = 8.0 * F0 * L * bounds.sigma_sq / (eps * eps * om * om)
    return max(1, math.ceil(max(t1, t2)))


def pl_stepsize(eps: float, L: float, mu: float, bounds: OracleBounds) -> float:
    """gamma = min{ 1/((M+1)L), (eps mu (1-m) + zeta^2) / (L sigma^2) }."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if mu <= 0:
        raise ValueError("mu must be positive")
    cap = stepsize_cap(L, bounds)
    if bounds.sigma_sq == 0.0:
        return cap
    return min(cap, (eps * mu * (1.0 - bounds.m) + bounds.zeta_sq)
               / (L * bounds.sigma_sq))


def pl_stepsize_proof(eps: float, L: float, mu: float,
                      bounds: OracleBounds) -> float:
    """Proof variant: min{ 1/((M+1)L), eps mu (1-m) / (L sigma^2) }."""
    return pl_stepsize(eps, L, mu, replace(bounds, zeta_sq=0.0))


def pl_iterations(eps: float, L: float, mu: float, F0: float,
                  bounds: OracleBounds) -> int:
    """Budget max{(M+1)L/(mu(1-m)), L sigma^2/(eps mu^2 (1-m)^2)} * log(2 F0/eps).

    Paired with the proof PL stepsize it guarantees a final function gap of at
    most eps + zeta^2 / (2 mu (1-m)).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if mu <= 0:
        raise ValueError("mu must be positive")
    if F0 < 0:
        raise ValueError("F0 must be nonnegative")
    if 2.0 * F0 <= eps:
        return 1
    log_term = math.log(2.0 * F0 / eps)
    om = 1.0 - bounds.m
    t1 = (bounds.M + 1.0) * L / (mu * om)
    t2 = L * bounds.sigma_sq / (eps * mu * mu * om * om)
    return max(1, math.ceil(max(t1, t2) * log_term))


def error_floor(gamma: float, L: float, mu: float, bounds: OracleBounds) -> float:
    """Half the floor constant: (zeta^2 + gamma L sigma^2) / (2 mu (1-m)).

    The additive term in the linear-rate bound
    F_T <= (1 - gamma mu (1-m))^T F_0 + floor; the bias part is
    stepsize-independent, the noise part shrinks with gamma.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    _check_gamma(gamma, L, bounds)
    return (bounds.zeta_sq + gamma * L * bounds.sigma_sq) / (2.0 * mu * (1.0 - bounds.m))


def psi_bound(T: int, gamma: float, F0: float, L: float,
              bounds: OracleBounds) -> float:
    """Upper bound on the T-step average of E||grad f(x_t)||^2."""
    if T < 1:
        raise ValueError("T must be >= 1")
    _check_gamma(gamma, L, bounds)
    om = 1.0 - bounds.m
    return (2.0 * F0 / (T * gamma * om)
            + gamma * L * bounds.sigma_sq / om
            + bounds.zeta_sq / om)


def descent_lemma_rhs(grad_norm_sq: float, gamma: float, L: float,
                      bounds: OracleBounds) -> float:
    """One-step bound on E[f(x_{t+1}) - f(x_t)] for gamma <= 1/((M+1)L).

    gamma (m-1)/2 ||grad f||^2 + gamma zeta^2 / 2 + gamma^2 L sigma^2 / 2.
    """
    _check_gamma(gamma, L, bounds)
    return (0.5 * gamma * (bounds.m - 1.0) * grad_norm_sq
            + 0.5 * gamma * bounds.zeta_sq
            + 0.5 * gamma * gamma * L * bounds.sigma_sq)


def pl_envelope(t: int, gamma: float, F0: float, L: float, mu: float,
                bounds: OracleBounds) -> float:
    """(1 - gamma mu (1-m))^t F0 + floor: the per-iteration linear-rate bound."""
    rate = 1.0 - gamma * mu * (1.0 - bounds.m)
    return rate ** t * F0 + error_floor(gamma, L, mu, bounds)


def zo_budget(eps: float, d: int, L: float, mu: float, tau: float,
              F0: float) -> int:
    """PL iteration budget specialized to Gaussian-smoothing bound parameters."""
    return pl_iterations(eps, L, mu, F0, gs_bounds(d, L, tau))


@dataclass(frozen=True)
class RatePrediction:
    """Stepsize, budget, and limiting value for one convergence regime."""

    stepsize: float
    iterations: int
    floor: float
    measure: str  # grad_norm_avg | function_gap

    def __post_init__(self):
        if self.stepsize <= 0:
            raise ValueError("stepsize must be positive")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.floor < 0:
            raise ValueError("floor must be nonnegative")
        if self.measure not in ("grad_norm_avg", "function_gap"):
            raise ValueError(f"unknown measure {self.measure!r}")


def smooth_prediction(eps: float, L: float, F0: float,
                      bounds: OracleBounds) -> RatePrediction:
    """Proof-consistent (stepsize, T) pair plus the limiting gradient-norm value."""
    gamma = smooth_stepsize_proof(eps, L, bounds)
    T = smooth_iterations(eps, L, F0, bounds)
    om = 1.0 - bounds.m
    floor = (gamma * L * bounds.sigma_sq + bounds.zeta_sq) / om
    return RatePrediction(stepsize=gamma, iterations=T, floor=floor,
                          measure="grad_norm_avg")


def pl_prediction(eps: float, L: float, mu: float, F0: float,
                  bounds: OracleBounds) -> RatePrediction:
    """Proof-consistent (stepsize, T) pair plus the function-gap floor."""
    gamma = pl_stepsize_proof(eps, L, mu, bounds)
    T = pl_iterations(eps, L, mu, F0, bounds)
    return RatePrediction(stepsize=gamma, iterations=T,
                          floor=error_floor(gamma, L, mu, bounds),
                          measure="function_gap")
