"""Sparsification operators and their composition with gradient oracles."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .oracles import BiasedOracle, OracleBounds, draw
from .problems import Problem, _derive


class UnsupportedCompositionError(ValueError):
    """Raised when composed bound formulas do not cover an oracle/compressor pair."""


def _check_k(k: int, dim: int) -> None:
    if not 1 <= k <= dim:
        raise ValueError(f"k must lie in [1, {dim}], got {k}")


def _top_k_rows(G: np.ndarray, k: int) -> np.ndarray:
    n, d = G.shape
    _check_k(k, d)
    if k == d:
        return G.copy()
    # flat indices of each row's k largest magnitudes, a column per row; the
    # stable sort keeps the lower index on ties, as argmax (its first entry,
    # on finite rows) does
    keep = (np.abs(G).argmax(axis=1) if k == 1
            else np.argsort(-np.abs(G), axis=1, kind="stable")[:, :k].T)
    keep += np.arange(0, n * d, d)  # in place: no (n, 1) broadcast at k = 1
    out = np.zeros(n * d)
    out[keep] = G.ravel()[keep]
    return out.reshape(n, d)


@functools.lru_cache(maxsize=None)
def _smallest_keys(k: int) -> Callable[[np.ndarray], np.ndarray]:
    """The prep (`oracles.draw`) marking each row's k smallest keys."""
    def mask(keys):
        # the row minimum is exactly partition's 0th element
        thresh = (keys.min(axis=1, keepdims=True) if k == 1
                  else np.partition(keys, k - 1, axis=1)[:, k - 1 : k])
        return keys <= thresh
    return mask


def _rand_k_rows(G: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    # k smallest of d iid uniform keys per row = uniform k-subset per row
    d = G.shape[1]
    _check_k(k, d)
    if k == d:
        return G.copy()
    # G * mask, as a product: every key tied at the threshold keeps its
    # entry, and a dropped entry is G * 0 (-0.0 where G < 0, NaN where NaN)
    return G * draw(rng, "random", G.shape, _smallest_keys(k))


def _rand_k_unbiased_rows(G: np.ndarray, k: int,
                          rng: np.random.Generator) -> np.ndarray:
    return (G.shape[1] / k) * _rand_k_rows(G, k, rng)


def _row(g: np.ndarray) -> np.ndarray:
    return np.asarray(g, dtype=float)[None]


def top_k(g: np.ndarray, k: int) -> np.ndarray:
    """Keep the k entries of largest magnitude, zero the rest.

    Ties are broken toward the lowest index, so the output is deterministic.
    """
    return _top_k_rows(_row(g), k)[0]


def rand_k(g: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Keep a uniformly random k-subset of coordinates, zero the rest."""
    return _rand_k_rows(_row(g), k, rng)[0]


def rand_k_unbiased(g: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Scaled random sparsifier (d/k) * rand_k(g); unbiased, higher variance."""
    return _rand_k_unbiased_rows(_row(g), k, rng)[0]


@dataclass(frozen=True)
class Compressor:
    """A map applied to each row of an (n, dim) matrix, with (optionally) a
    contraction factor delta in (0, 1].

    `apply_rows(G, rng)` is the map; `apply(g, rng)` is that map on a batch
    of one, derived in `__post_init__` unless passed in
    (`problems._derive`). `delta` promises
    E||C(g) - g||^2 <= (1 - delta) * ||g||^2 for all g; it is None for
    operators (like the unbiased rand-k) that do not contract. `identity`
    marks the identity map (top-k and rand-k at k = dim, scale at delta = 1);
    `compose(inner)` gives the map's closed-form (bounds, expected query)
    over an unbiased inner oracle, where it has one (`compressed_oracle`).
    """

    name: str
    kind: str  # top_k | rand_k | rand_k_unbiased | scale | custom
    dim: int
    apply_rows: Callable[[np.ndarray, np.random.Generator], np.ndarray]
    apply: Optional[Callable[[np.ndarray, np.random.Generator], np.ndarray]] = None
    delta: Optional[float] = None
    k: Optional[int] = None
    deterministic: bool = False
    identity: bool = False
    compose: Optional[Callable[[BiasedOracle], tuple]] = None

    def __post_init__(self):
        rows = self.apply_rows
        _derive(self, "apply", lambda g, rng: rows(_row(g), rng)[0])


def _keeps_k(kind: str, k: int, dim: int, rows: Callable, **fields) -> Compressor:
    """The compressor `kind` that keeps k of the dim coordinates of a row."""
    _check_k(k, dim)
    return Compressor(name=f"{kind}(k={k})", kind=kind, dim=dim, apply_rows=rows,
                      k=k, identity=k == dim, **fields)


def top_k_compressor(k: int, dim: int) -> Compressor:
    return _keeps_k("top_k", k, dim, lambda G, rng: _top_k_rows(G, k),
                    delta=k / dim, deterministic=True)


def rand_k_compressor(k: int, dim: int) -> Compressor:
    def compose(inner):
        b, mean = inner.bounds, inner.expected_query
        return (OracleBounds(m=1.0 - k / dim, M=(1.0 + b.M) * (dim / k) - 1.0,
                             sigma_sq=(k / dim) * b.sigma_sq),
                None if mean is None else (lambda x: (k / dim) * mean(x)))
    return _keeps_k("rand_k", k, dim, lambda G, rng: _rand_k_rows(G, k, rng),
                    delta=k / dim, compose=compose)


def rand_k_unbiased_compressor(k: int, dim: int) -> Compressor:
    def compose(inner):
        b = inner.bounds
        return (OracleBounds(M=(1.0 + b.M) * (dim / k) - 1.0,
                             sigma_sq=(dim / k) * b.sigma_sq), inner.expected_query)
    return _keeps_k("rand_k_unbiased", k, dim,
                    lambda G, rng: _rand_k_unbiased_rows(G, k, rng), compose=compose)


def scale_compressor(delta: float, dim: int) -> Compressor:
    """Deterministic shrink C(g) = (1 - sqrt(1-delta)) * g; exactly a delta-compressor."""
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    c = 1.0 - np.sqrt(1.0 - delta)
    return Compressor(name=f"scale(delta={delta:g})", kind="scale", dim=dim,
                      apply_rows=lambda G, rng: c * np.asarray(G, dtype=float),
                      delta=delta, deterministic=True, identity=delta == 1.0)


def compressed_oracle(c: Compressor, inner: BiasedOracle, p: Problem,
                      bounds_mode: str = "derived") -> BiasedOracle:
    """Compose compressor and oracle into a single biased oracle.

    In "derived" mode the bound parameters follow the closed-form composition
    rules, which require an unbiased inner oracle (and, for deterministic
    compressors, a noiseless one); an identity compressor (`Compressor.identity`)
    keeps the inner oracle's bounds and mean over any inner oracle.
    "query_only" attaches all-zero placeholder bounds, for consumers that use
    just the query stream or fit the bounds themselves
    (`fit_oracle_bounds`, then `with_bounds`).
    """
    if bounds_mode not in ("derived", "query_only"):
        raise ValueError(f"unknown bounds_mode {bounds_mode!r}")
    d = c.dim
    if inner.dim != d or p.dim != d:
        raise ValueError("dimension mismatch between compressor, oracle, and problem")

    ib = inner.bounds
    bounds, expected = OracleBounds(), None
    if bounds_mode == "derived" and c.identity:
        bounds, expected = ib, inner.expected_query
    elif bounds_mode == "derived":
        if ib.m != 0.0 or ib.zeta_sq != 0.0:
            raise UnsupportedCompositionError(
                "derived composition needs an unbiased inner oracle")
        if c.compose is not None:
            bounds, expected = c.compose(inner)
        elif c.deterministic and c.delta is not None:
            if ib.M != 0.0 or ib.sigma_sq != 0.0:
                raise UnsupportedCompositionError(
                    f"no derived bounds for {c.name} over a stochastic oracle")
            bounds = OracleBounds(m=1.0 - c.delta, zeta_sq=0.0)
            if inner.expected_query is not None:
                inner_exp = inner.expected_query
                expected = lambda x: c.apply(inner_exp(x), None)  # noqa: E731
        else:
            raise UnsupportedCompositionError(
                f"no derived bounds for compressor kind {c.kind!r}")

    return BiasedOracle(
        name=f"{c.name}({inner.name})", dim=d, bounds=bounds,
        _query_batch=inner._query_batch.then(c.apply_rows, c),
        expected_query=expected,
        deterministic=inner.deterministic and (c.deterministic or c.identity),
    )
