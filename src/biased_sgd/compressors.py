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


# kinds that keep every coordinate at k = dim (delta = k/d = 1)
_IDENTITY_AT_FULL_K = ("top_k", "rand_k", "rand_k_unbiased")


def is_identity(kind: str, dim: int, k: Optional[int] = None,
                delta: Optional[float] = None) -> bool:
    """Whether the compressor `kind` with these parameters is the identity map.

    top_k, rand_k and rand_k_unbiased are at k = dim (they draw nothing
    then), and `scale` is at delta = 1.
    """
    return (kind in _IDENTITY_AT_FULL_K and k == dim) or \
        (kind == "scale" and delta == 1.0)


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
    operators (like the unbiased rand-k) that do not contract.
    """

    name: str
    kind: str  # top_k | rand_k | rand_k_unbiased | scale | custom
    dim: int
    apply_rows: Callable[[np.ndarray, np.random.Generator], np.ndarray]
    apply: Optional[Callable[[np.ndarray, np.random.Generator], np.ndarray]] = None
    delta: Optional[float] = None
    k: Optional[int] = None
    deterministic: bool = False

    def __post_init__(self):
        rows = self.apply_rows
        _derive(self, "apply", lambda g, rng: rows(_row(g), rng)[0])


def top_k_compressor(k: int, dim: int) -> Compressor:
    _check_k(k, dim)
    return Compressor(
        name=f"top_k(k={k})", kind="top_k", dim=dim,
        apply_rows=lambda G, rng: _top_k_rows(G, k),
        delta=k / dim, k=k, deterministic=True,
    )


def rand_k_compressor(k: int, dim: int) -> Compressor:
    _check_k(k, dim)
    return Compressor(
        name=f"rand_k(k={k})", kind="rand_k", dim=dim,
        apply_rows=lambda G, rng: _rand_k_rows(G, k, rng),
        delta=k / dim, k=k, deterministic=False,
    )


def rand_k_unbiased_compressor(k: int, dim: int) -> Compressor:
    _check_k(k, dim)
    return Compressor(
        name=f"rand_k_unbiased(k={k})", kind="rand_k_unbiased", dim=dim,
        apply_rows=lambda G, rng: _rand_k_unbiased_rows(G, k, rng),
        delta=None, k=k, deterministic=False,
    )


def scale_compressor(delta: float, dim: int) -> Compressor:
    """Deterministic shrink C(g) = (1 - sqrt(1-delta)) * g; exactly a delta-compressor."""
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    c = 1.0 - np.sqrt(1.0 - delta)
    return Compressor(
        name=f"scale(delta={delta:g})", kind="scale", dim=dim,
        apply_rows=lambda G, rng: c * np.asarray(G, dtype=float),
        delta=delta, deterministic=True,
    )


def compressed_oracle(c: Compressor, inner: BiasedOracle, p: Problem,
                      bounds_mode: str = "derived") -> BiasedOracle:
    """Compose compressor and oracle into a single biased oracle.

    In "derived" mode the bound parameters follow the closed-form composition
    rules, which require an unbiased inner oracle (and, for deterministic
    compressors, a noiseless one); an identity compressor (`is_identity`)
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
    identity = is_identity(c.kind, d, c.k, c.delta)
    if bounds_mode == "derived" and identity:
        bounds, expected = ib, inner.expected_query
    elif bounds_mode == "derived":
        if ib.m != 0.0 or ib.zeta_sq != 0.0:
            raise UnsupportedCompositionError(
                "derived composition needs an unbiased inner oracle")
        if c.kind == "rand_k":
            ratio = d / c.k
            bounds = OracleBounds(m=1.0 - c.k / d, zeta_sq=0.0,
                                  M=(1.0 + ib.M) * ratio - 1.0,
                                  sigma_sq=(c.k / d) * ib.sigma_sq)
            if inner.expected_query is not None:
                inner_exp = inner.expected_query
                expected = lambda x: (c.k / d) * inner_exp(x)  # noqa: E731
        elif c.kind == "rand_k_unbiased":
            ratio = d / c.k
            bounds = OracleBounds(m=0.0, zeta_sq=0.0,
                                  M=(1.0 + ib.M) * ratio - 1.0,
                                  sigma_sq=ratio * ib.sigma_sq)
            expected = inner.expected_query
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
        deterministic=inner.deterministic and (c.deterministic or identity),
    )
