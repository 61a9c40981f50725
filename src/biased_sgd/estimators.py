"""Empirical measurement of oracle bound parameters.

For an oracle g(x) = grad f(x) + b(x) + n(x, xi), the bias is the deviation
of the query mean from the true gradient, and the noise is the variance
around that mean. Per-point estimates come with standard errors; envelope
fits and declared-bound checks use a 5-standard-error slack so that false
violations are vanishingly rare.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._rng import DrawStreams, stream
from .oracles import BiasedOracle, OracleBounds
from .problems import Problem

SLACK = 5.0  # standard errors
# rows per sampling chunk, whose moments are summed at once; a chunk wider
# than _QUERY_FLOATS floats (80 KiB) is drawn by several queries into one
# buffer reused by every chunk and point, so that the queries' temporaries
# stay under glibc's 128 KiB mmap threshold and come from its free lists
# instead of being mapped and faulted in again on every chunk
_CHUNK = 2_048
_QUERY_FLOATS = 10_240


@dataclass
class PointStats:
    """Moment-based estimates of bias and noise at one probe point."""

    x: np.ndarray
    grad_norm_sq: float
    samples: int
    bias: np.ndarray
    bias_norm_sq: float   # ||mean - grad f||^2, corrected for estimator bias
    bias_se: float
    noise_var: float      # E||g - mean||^2 (ddof=1)
    noise_se: float
    mean_norm_sq: float   # ||grad f + b||^2, corrected (exact when closed form)
    exact_bias: bool


def probe_points(p: Problem, n_points: int, seed: int) -> list:
    """Geometric distances 1e-3 .. 10 from x*, along random unit directions.

    Spreads ||grad f(x)||^2 over several orders of magnitude, which separates
    the slope from the intercept in the envelope fits.
    """
    if p.x_star is None:
        raise ValueError(f"problem {p.name} has no known x*; supply points explicitly")
    rng = stream(seed, 0xF0)
    rs = np.geomspace(1e-3, 10.0, n_points)
    points = []
    for r in rs:
        u = rng.standard_normal(p.dim)
        u /= np.linalg.norm(u)
        points.append(p.x_star + r * u)
    return points


def _collect(o: BiasedOracle, p: Problem, x: np.ndarray, samples: int,
             rng: DrawStreams, buf: np.ndarray) -> PointStats:
    d = o.dim
    x = np.asarray(x, dtype=float)
    grad = p.grad(x)
    gns = float(grad @ grad)
    n_samples = 2 if o.deterministic else int(samples)

    s1 = np.zeros(d)
    s2 = 0.0
    s4 = 0.0
    s3 = np.zeros(d)
    s5 = np.zeros((d, d))
    done = 0
    ones = np.ones(_CHUNK)
    step = max(1, _QUERY_FLOATS // d)
    ref = None  # the first sample: the moments are summed about it
    while done < n_samples:
        take = min(_CHUNK, n_samples - done)
        if take <= step:
            G = o.query_many(x, take, rng.call())
        else:  # no draw depends on how the samples split into queries
            G = buf[:take]
            for lo in range(0, take, step):
                G[lo:lo + step] = o.query_many(x, min(step, take - lo), rng.call())
        ref = G[0].copy() if ref is None else ref
        G -= ref
        sq = np.einsum("ij,ij->i", G, G)
        # column sums as BLAS products: several times faster than axis-0 sums
        w = ones[:take]
        s1 += w @ G
        s2 += float(w @ sq)
        s4 += float(sq @ sq)
        s3 += sq @ G
        s5 += G.T @ G
        done += take
    n = float(n_samples)
    mean_c = s1 / n  # mean - ref
    mean = ref + mean_c
    cov = (s5 - n * np.outer(mean_c, mean_c)) / (n - 1.0)
    tr_cov = float(np.trace(cov))

    if o.expected_query is not None:
        bias = o.expected_query(x) - grad
        bias_norm_sq = float(bias @ bias)
        bias_se = 0.0
        mean_norm_sq = float((grad + bias) @ (grad + bias))
    else:
        bias = mean - grad
        # ||mean||^2 overestimates by tr(Cov(mean)) = tr(cov)/n at finite n
        bias_norm_sq = max(0.0, float(bias @ bias) - tr_cov / n)
        bias_se = float(np.sqrt(max(0.0,
            4.0 * float(bias @ cov @ bias) / n
            + 2.0 * float(np.trace(cov @ cov)) / (n * n))))
        mean_norm_sq = max(0.0, float(mean @ mean) - tr_cov / n)

    noise_var = max(0.0, tr_cov)
    # spread of the per-sample squared deviations, from the moments about ref
    mns = float(mean_c @ mean_c)
    e_q2 = (s4 / n
            - 4.0 * float((s3 / n) @ mean_c)
            + 4.0 * float(mean_c @ (s5 / n) @ mean_c)
            + 2.0 * mns * (s2 / n)
            - 4.0 * mns * mns
            + mns * mns)
    e_q = s2 / n - mns
    var_q = max(0.0, e_q2 - e_q * e_q)
    noise_se = float(np.sqrt(var_q / n))

    return PointStats(x=x, grad_norm_sq=gns, samples=n_samples, bias=bias,
                      bias_norm_sq=bias_norm_sq, bias_se=bias_se,
                      noise_var=noise_var, noise_se=noise_se,
                      mean_norm_sq=mean_norm_sq,
                      exact_bias=o.expected_query is not None)


def _collect_points(o: BiasedOracle, p: Problem, points: Sequence[np.ndarray],
                    samples: int, seed: int, tag: int,
                    min_samples: int = 2) -> list:
    """`_collect` at every point, point i drawing from stream (seed, tag, i).

    Each draw of a query has its own stream (`DrawStreams`), so the samples
    do not depend on how they are split into chunks.

    A stochastic oracle needs at least 2 samples per point (the covariance
    divides by n - 1); a deterministic one is always sampled twice.
    """
    if samples < min_samples and not o.deterministic:
        raise ValueError(f"samples must be >= {min_samples} for stochastic "
                         f"oracles, got {samples}")
    buf = np.empty((_CHUNK, o.dim))
    return [_collect(o, p, x, samples, DrawStreams(stream(seed, tag, i)), buf)
            for i, x in enumerate(points)]


def estimate_bias(o: BiasedOracle, p: Problem, points: Sequence[np.ndarray],
                  samples: int = 100_000, seed: int = 0) -> list:
    """Per-point bias estimates ||b(x)||^2 with standard errors.

    Exact (zero SE) when the oracle exposes its mean in closed form.
    """
    return _collect_points(o, p, points, samples, seed, 0xB1, min_samples=1000)


def estimate_noise(o: BiasedOracle, p: Problem, points: Sequence[np.ndarray],
                   samples: int = 100_000, seed: int = 0) -> list:
    """Per-point noise variances around the query mean, with standard errors."""
    return _collect_points(o, p, points, samples, seed, 0xA3, min_samples=1000)


@dataclass
class EnvelopeFit:
    """A line slope*x + intercept dominating all upper-confidence values."""

    slope: float
    intercept: float
    feasible: bool  # False when the bias fit would need slope >= 1


def fit_envelope(predictor: np.ndarray, ucb: np.ndarray,
                 slope_cap: Optional[float] = None) -> EnvelopeFit:
    """Least-slack line above the points: smallest workable slope, then the
    smallest intercept that keeps every point below the line.

    The slope is the secant between the low- and high-predictor quartile
    means, which is exact whenever the inequality the data comes from is
    tight (the points then lie on the line) and averages out Monte-Carlo
    wiggle otherwise; the intercept is re-tightened over all points so the
    fit is a true envelope.
    """
    predictor = np.asarray(predictor, dtype=float)
    ucb = np.asarray(ucb, dtype=float)
    if len(predictor) < 5:
        raise ValueError("need at least 5 points to fit an envelope")
    span = predictor.max() / max(predictor.min(), 1e-300)
    if span < 100.0:
        raise ValueError("predictor values must span at least 2 orders of magnitude")

    order = np.argsort(predictor)
    q = max(1, len(order) // 4)
    lo, hi = order[:q], order[-q:]
    denom = float(predictor[hi].mean() - predictor[lo].mean())
    slope = max(0.0, float(ucb[hi].mean() - ucb[lo].mean()) / denom)

    feasible = True
    if slope_cap is not None and slope >= slope_cap:
        slope = slope_cap
        feasible = False
    intercept = max(0.0, float((ucb - slope * predictor).max()))
    return EnvelopeFit(slope=slope, intercept=intercept, feasible=feasible)


@dataclass
class BoundEstimate:
    """Fitted (m, zeta^2, M, sigma^2) plus the per-point evidence."""

    points: list
    bias_fit: EnvelopeFit
    noise_fit: EnvelopeFit

    @property
    def feasible(self) -> bool:
        return self.bias_fit.feasible

    @property
    def bounds(self) -> OracleBounds:
        m = min(self.bias_fit.slope, 1.0 - 1e-9)
        return OracleBounds(m=m, zeta_sq=self.bias_fit.intercept,
                            M=self.noise_fit.slope,
                            sigma_sq=self.noise_fit.intercept)


def fit_bounds(stats: Sequence[PointStats]) -> BoundEstimate:
    """Envelope fits for both assumptions from per-point statistics.

    The bias envelope is fitted against ||grad f||^2 and must have slope < 1
    (otherwise it is reported infeasible); the noise envelope is fitted
    against ||grad f + b||^2.
    """
    gns = np.array([s.grad_norm_sq for s in stats])
    bias_ucb = np.array([s.bias_norm_sq + SLACK * s.bias_se for s in stats])
    mns = np.array([s.mean_norm_sq for s in stats])
    noise_ucb = np.array([s.noise_var + SLACK * s.noise_se for s in stats])
    return BoundEstimate(points=list(stats),
                         bias_fit=fit_envelope(gns, bias_ucb, slope_cap=1.0),
                         noise_fit=fit_envelope(mns, noise_ucb))


def fit_oracle_bounds(o: BiasedOracle, p: Problem, n_points: int = 10,
                      samples: int = 4000, seed: int = 0) -> BoundEstimate:
    """Probe, sample, and fit in one call (used for estimated composed bounds)."""
    return fit_bounds(_collect_points(o, p, probe_points(p, n_points, seed),
                                      samples, seed, 0xE5))


@dataclass
class AssumptionVerdict:
    name: str
    verdict: str  # verified | violated
    margin: float  # worst excess over the declared bound (negative = slack left)
    worst_point: int

    @property
    def ok(self) -> bool:
        return self.verdict == "verified"


@dataclass
class VerdictReport:
    """Declared-vs-measured comparison for one oracle."""

    oracle: str
    declared: OracleBounds
    stats: list
    bias: AssumptionVerdict
    noise: AssumptionVerdict
    fitted: BoundEstimate

    @property
    def ok(self) -> bool:
        return self.bias.ok and self.noise.ok


def verify_declared(o: BiasedOracle, p: Problem, n_points: int = 20,
                    samples: int = 100_000, seed: int = 0) -> VerdictReport:
    """Check each per-point estimate against the declared bounds with 5-SE slack.

    Violations are data, not errors: the report carries the worst margin per
    assumption along with a full envelope fit for the table output.
    """
    b = o.bounds
    stats = _collect_points(o, p, probe_points(p, n_points, seed),
                            samples, seed, 0xC7)

    def check(name, values, ses, rhs):
        excess = np.array([v - r - SLACK * s for v, s, r in zip(values, ses, rhs)])
        worst = int(np.argmax(excess))
        margin = float(excess[worst])
        return AssumptionVerdict(name=name,
                                 verdict="verified" if margin <= 1e-9 else "violated",
                                 margin=margin, worst_point=worst)

    bias_rhs = [b.m * s.grad_norm_sq + b.zeta_sq for s in stats]
    noise_rhs = [b.M * s.mean_norm_sq + b.sigma_sq for s in stats]
    bias_v = check("bias", [s.bias_norm_sq for s in stats],
                   [s.bias_se for s in stats], bias_rhs)
    noise_v = check("noise", [s.noise_var for s in stats],
                    [s.noise_se for s in stats], noise_rhs)
    return VerdictReport(oracle=o.name, declared=b, stats=stats,
                         bias=bias_v, noise=noise_v, fitted=fit_bounds(stats))
