"""Biased gradient oracles g(x) = grad f(x) + b(x) + n(x, xi).

Each oracle carries the bound parameters (m, zeta^2) on its bias and
(M, sigma^2) on its zero-mean noise:

    ||b(x)||^2        <= m * ||grad f(x)||^2 + zeta^2,        0 <= m < 1
    E ||n(x, xi)||^2  <= M * ||grad f(x) + b(x)||^2 + sigma^2

Queries take a numpy Generator, or a draw source with its `standard_normal`
and `random` that gives a call's n-th draw its own stream (`_rng.DrawStreams`,
the engine's stage nodes); a fixed draw order makes every stream reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Hashable, NamedTuple, Optional

import numpy as np

from .problems import Problem, _at_point, _derive, make_huber_problem


@dataclass(frozen=True)
class OracleBounds:
    """The (m, zeta^2, M, sigma^2) tuple of the bias and noise bounds."""

    m: float = 0.0
    zeta_sq: float = 0.0
    M: float = 0.0
    sigma_sq: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.m < 1.0:
            raise ValueError(f"m must lie in [0, 1), got {self.m}")
        for label in ("zeta_sq", "M", "sigma_sq"):
            if getattr(self, label) < 0.0:
                raise ValueError(f"{label} must be nonnegative")


EXACT_BOUNDS = OracleBounds(0.0, 0.0, 0.0, 0.0)


class Stage(NamedTuple):
    """One stage of an oracle chain: `fn(G, rng)` maps the rows before it
    (the query points X, for the first stage) to its own, one row per row.

    Stages with equal keys compute equal rows from equal rows, and a stage
    keyed by a problem's `grad_many` computes its rows. A stage draws
    the same kinds, of len(G) rows of one row shape each, in the same order
    on every call: the engine gives a call's n-th draw its own stream. A
    stage does not write into its draws: the estimators hand one read-only
    draw to every oracle that makes it. A stage that needs only a function
    of a draw asks for it through `draw` with a `prep`: pure, row-wise (row
    i of its result from row i of the draw alone) and one object on every
    call, applied per call or once per block of draws read ahead, and never
    written into.
    """

    fn: Callable
    key: Hashable


def draw(rng, kind: str, size, prep: Callable) -> np.ndarray:
    """`prep` (`Stage`) of a `kind` draw of `size` from `rng`: the source's
    `prepared(kind, size, prep)` where it has one, which may apply `prep`
    once per block of draws read ahead, else `prep(rng.<kind>(size))`."""
    prepared = getattr(rng, "prepared", None)
    if prepared is None:
        return prep(getattr(rng, kind)(size))
    return prepared(kind, size, prep)


class Chain(tuple):
    """An oracle's row map as data: its stages, applied in order, each
    mapping one row per row."""

    def __call__(self, G: np.ndarray, rng) -> np.ndarray:
        for s in self:  # G is first the query points X
            G = s.fn(G, rng)
        return G

    def then(self, fn: Callable, key: Hashable) -> "Chain":
        return Chain(self + (Stage(fn, key),))


@dataclass(frozen=True)
class BiasedOracle:
    """A stochastic gradient map with declared bound parameters.

    The map is one row form, `_query_batch(X, rng)`: one row out per row of
    X, every draw with len(X) rows. It is a `Chain` of stages; any other row
    map passed becomes a one-stage chain keyed by itself, under the `Stage`
    contract. `query_batch(X)` is the map on X, `query(x)` on x[None] and
    `query_many(x, n)` on n copies of x, always n fresh rows.
    `__post_init__` derives `_query` and `_query_many` from the row map
    unless they are passed in (`problems._derive`), so a copy with another
    row map queries that map in all three forms.
    `expected_query` gives grad f(x) + b(x) in closed form if known.
    """

    name: str
    dim: int
    bounds: OracleBounds
    _query_batch: Callable[[np.ndarray, np.random.Generator], np.ndarray]
    _query: Optional[Callable] = None
    _query_many: Optional[Callable] = None
    expected_query: Optional[Callable[[np.ndarray], np.ndarray]] = None
    deterministic: bool = False

    def __post_init__(self):
        rows = self._query_batch
        if not isinstance(rows, Chain):
            rows = Chain((Stage(rows, rows),))
            object.__setattr__(self, "_query_batch", rows)
        _derive(self, "_query", lambda x, rng: rows(x[None], rng)[0])

        def many(x, n, rng):  # n fresh, writable rows
            G = rows(np.tile(x, (n, 1)), rng)
            return G if G.flags.writeable else G.copy()  # a draw itself
        _derive(self, "_query_many", many)

    def query(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return self._query(x, rng)

    def query_many(self, x: np.ndarray, n: int,
                   rng: np.random.Generator) -> np.ndarray:
        return self._query_many(x, n, rng)

    def query_batch(self, X: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return self._query_batch(X, rng)

    def with_bounds(self, bounds: OracleBounds) -> "BiasedOracle":
        """Same query stream with different declared bounds."""
        return replace(self, bounds=bounds)


def _sq_rows(G: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", G, G)


def exact_oracle(p: Problem) -> BiasedOracle:
    """Deterministic oracle returning the true gradient; all bounds zero."""
    grad_many = p.grad_many
    return BiasedOracle(
        name="exact", dim=p.dim, bounds=EXACT_BOUNDS,
        _query_batch=Chain((Stage(lambda X, rng: grad_many(X), grad_many),)),
        expected_query=p.grad, deterministic=True,
    )


def gaussian_noise_oracle(p: Problem, sigma_sq: float,
                          inner: Optional[BiasedOracle] = None) -> BiasedOracle:
    """Adds isotropic Gaussian noise with total second moment sigma_sq.

    Per-coordinate variance is sigma_sq / dim, so E||n||^2 = sigma_sq and the
    noise knob coincides with the sigma^2 bound parameter.
    """
    if sigma_sq < 0:
        raise ValueError("sigma_sq must be nonnegative")
    if inner is None:
        inner = exact_oracle(p)
    if sigma_sq == 0.0:
        return inner
    d, b = p.dim, inner.bounds
    scale = np.sqrt(sigma_sq / d)

    def scaled(Z):
        return scale * Z

    def noisy(G, rng):
        return G + draw(rng, "standard_normal", G.shape, scaled)

    return BiasedOracle(
        name=f"{inner.name}+noise({sigma_sq:g})", dim=p.dim,
        bounds=replace(b, sigma_sq=b.sigma_sq + sigma_sq),
        _query_batch=inner._query_batch.then(noisy, ("noise", sigma_sq)),
        expected_query=inner.expected_query, deterministic=False,
    )


def additive_bias_oracle(inner: BiasedOracle, zeta: float,
                         direction: np.ndarray) -> BiasedOracle:
    """Adds the constant vector zeta * direction to every query."""
    direction = np.asarray(direction, dtype=float)
    if direction.shape != (inner.dim,):
        raise ValueError(f"direction must have shape ({inner.dim},), "
                         f"got {direction.shape}")
    if abs(float(np.linalg.norm(direction)) - 1.0) > 1e-12:
        raise ValueError("direction must be a unit vector")
    if zeta == 0.0:
        return inner
    bias = zeta * direction
    b, expected = inner.bounds, inner.expected_query
    return BiasedOracle(
        name=f"{inner.name}+bias({zeta:g})", dim=inner.dim,
        bounds=replace(b, zeta_sq=b.zeta_sq + zeta * zeta),
        _query_batch=inner._query_batch.then(lambda G, rng: G + bias,
                                             ("bias", bias.tobytes())),
        expected_query=(lambda x: expected(x) + bias) if expected else None,
        deterministic=inner.deterministic,
    )


def _tight_rows(p: Problem, m: float, zeta_sq: float, b: np.ndarray):
    """Rows of grad f(X) + rho(X) * b with rho^2 = 1 + (m/zeta^2)||grad f||^2."""
    def rows(X):
        G = p.grad_many(X)
        return G + np.sqrt(1.0 + (m / zeta_sq) * _sq_rows(G))[:, None] * b
    return rows


def tightness_oracle(p: Problem, m: float, zeta_sq: float,
                     b: np.ndarray) -> BiasedOracle:
    """Deterministic oracle whose bias bound holds with equality everywhere.

    g(x) = grad f(x) + rho(x) * b with rho(x)^2 = 1 + (m/zeta^2)||grad f(x)||^2
    (positive root), so ||g - grad f||^2 = m||grad f||^2 + zeta^2 exactly and
    any stationary point of the oracle field has ||grad f||^2 = zeta^2/(1-m).
    """
    if zeta_sq <= 0.0:
        raise ValueError("zeta_sq must be positive (rho is undefined at 0)")
    b = np.asarray(b, dtype=float)
    if abs(float(b @ b) - zeta_sq) > 1e-8 * max(1.0, zeta_sq):
        raise ValueError("||b||^2 must equal zeta_sq")
    rows = _tight_rows(p, m, zeta_sq, b)
    return BiasedOracle(
        name=f"tightness(m={m:g},zeta_sq={zeta_sq:g})", dim=p.dim,
        bounds=OracleBounds(m=m, zeta_sq=zeta_sq),
        _query_batch=lambda X, rng: rows(X),
        expected_query=_at_point(rows), deterministic=True,
    )


def gs_bounds(dim: int, L: float, tau: float) -> OracleBounds:
    """Bound parameters of the Gaussian-smoothing finite-difference estimator."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    return OracleBounds(
        m=0.0,
        zeta_sq=(tau ** 2 / 4.0) * L ** 2 * (dim + 3) ** 3,
        M=4.0 * (dim + 4),
        sigma_sq=3.0 * tau ** 2 * L ** 2 * (dim + 4) ** 3,
    )


def gaussian_smoothing_oracle(p: Problem, tau: float) -> BiasedOracle:
    """Two-point zeroth-order estimator ((f(x + tau*u) - f(x)) / tau) * u.

    u is standard Gaussian (identity covariance). The declared bounds scale as
    tau^2 in both zeta^2 and sigma^2 and as d in M.
    """
    def rows(X, rng):
        U = rng.standard_normal(X.shape)
        return ((p.value_many(X + tau * U) - p.value_many(X)) / tau)[:, None] * U

    return BiasedOracle(
        name=f"gaussian_smoothing(tau={tau:g})", dim=p.dim,
        bounds=gs_bounds(p.dim, p.smoothness_L, tau),
        _query_batch=Chain((Stage(rows, ("gaussian_smoothing", p.value_many, tau)),)),
    )


def uniform_direction(dim: int) -> np.ndarray:
    """The fixed unit vector (1, ..., 1)/sqrt(dim) used for constant biases."""
    return np.ones(dim) / np.sqrt(dim)


def inexact_oracle(p: Problem, delta: float) -> BiasedOracle:
    """Inexact first-order oracle with accuracy delta: ||b(x)||^2 <= 2*delta*L.

    The bias is the constant vector of squared norm exactly 2*delta*L, which
    makes the declared zeta^2 = 2*delta*L tight. `gaussian_noise_oracle`
    over it gives the stochastic variant.
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    zeta_sq = 2.0 * delta * p.smoothness_L
    biased = additive_bias_oracle(exact_oracle(p), np.sqrt(zeta_sq),
                                  uniform_direction(p.dim))
    return replace(biased, name=f"inexact(delta={delta:g})",
                   bounds=OracleBounds(m=0.0, zeta_sq=zeta_sq))


def huber_shifted_oracle(p: Optional[Problem] = None) -> tuple[Problem, BiasedOracle]:
    """(p, the 1-D shifted-derivative oracle g(x) = h'(x) - 2 on the Huber
    problem p), p a new `make_huber_problem()` when None.

    Constant shift of magnitude 2, so zeta^2 = 4; SGD started right of the
    kink walks away from the minimizer forever.
    """
    p = make_huber_problem() if p is None else p
    return p, replace(additive_bias_oracle(exact_oracle(p), 2.0, np.array([-1.0])),
                      name="huber_shifted")


def synthetic_tight_oracle(p: Problem, m: float, zeta_sq: float,
                           M: float, sigma_sq: float) -> BiasedOracle:
    """Oracle meeting both bound inequalities with equality; calibration target.

    Bias uses the tightness construction (or is zero when m = zeta^2 = 0);
    noise is an isotropic Gaussian rescaled per point so that
    E||n||^2 = M||grad f + b||^2 + sigma^2 exactly.
    """
    if m > 0.0 and zeta_sq == 0.0:
        raise ValueError("the tight construction needs zeta_sq > 0 when m > 0")
    d = p.dim
    mean_rows = _tight_rows(p, m, zeta_sq, np.sqrt(zeta_sq) * uniform_direction(d)) \
        if zeta_sq > 0 else p.grad_many

    def rows(X, rng):
        mean = mean_rows(X)
        scale = np.sqrt((M * _sq_rows(mean) + sigma_sq) / d)
        W = rng.standard_normal(X.shape)
        norms = np.sqrt(_sq_rows(W) / d)
        return mean + scale[:, None] * (W / norms[:, None])

    return BiasedOracle(
        name=f"synthetic_tight(m={m:g},zeta_sq={zeta_sq:g},M={M:g},sigma_sq={sigma_sq:g})",
        dim=d, bounds=OracleBounds(m=m, zeta_sq=zeta_sq, M=M, sigma_sq=sigma_sq),
        _query_batch=Chain((Stage(rows, ("synthetic_tight", p.grad_many, m, zeta_sq,
                                         M, sigma_sq)),)),
        expected_query=_at_point(mean_rows), deterministic=False,
    )
