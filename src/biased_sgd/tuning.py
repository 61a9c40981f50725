"""Stepsize tuning: find the grid stepsize reaching a target gap fastest.

All (stepsize, repetition) lanes of one configuration advance together as a
single state matrix. Because every lane group steps in lockstep, the first
group whose repetition-mean gap touches the target is exactly the grid
minimizer of iterations-to-target, so the search stops there; slower groups
are reported as censored at that iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._rng import stream
from .optimizer import DIVERGENCE_LIMIT
from .oracles import BiasedOracle
from .problems import Problem


@dataclass
class TuneEntry:
    gamma: float
    reached: bool
    iterations: Optional[int]  # first t with mean gap <= target (when reached)
    best_gap: float            # smallest mean gap observed
    diverged: bool
    censored_at: Optional[int]  # search stopped here before this gamma reached


@dataclass
class TuneResult:
    target_eps: float
    max_T: int
    entries: list

    @property
    def best(self) -> Optional[TuneEntry]:
        hits = [e for e in self.entries if e.reached]
        if not hits:
            return None
        return min(hits, key=lambda e: e.iterations)

    @property
    def best_gap(self) -> float:
        return min(e.best_gap for e in self.entries)

    def outcome(self) -> tuple:
        """(0, iterations) when reached, else (1, best achieved gap).

        Tuples compare the way convergence speed does: reaching beats not
        reaching, fewer iterations beat more, and among non-reaching runs a
        lower curve beats a higher one.
        """
        b = self.best
        if b is not None:
            return (0, b.iterations)
        return (1, self.best_gap)


def default_gamma_grid(L: float, lo_exp: int = 20) -> list:
    """Log grid 2^-lo_exp .. 1 clipped to the 1/L stability cap (cap included)."""
    cap = 1.0 / L
    grid = sorted({g for g in (2.0 ** -k for k in range(lo_exp, -1, -1))
                   if g <= cap} | {cap})
    return grid


def tune_stepsize(p: Problem, o: BiasedOracle, target_eps: float,
                  grid: Optional[Sequence[float]] = None, reps: int = 3,
                  max_T: int = 1_000_000, seed: int = 0,
                  x0: Optional[np.ndarray] = None) -> TuneResult:
    """Grid-search the constant stepsize minimizing iterations to target.

    Diverged stepsizes are parked and excluded; if no stepsize reaches the
    target within max_T, every entry reports its best achieved gap instead.
    """
    if target_eps <= 0:
        raise ValueError("target_eps must be positive")
    if grid is None:
        grid = default_gamma_grid(p.smoothness_L)
    grid = [float(g) for g in grid]
    if not grid:
        raise ValueError("stepsize grid is empty")
    if any(g <= 0 for g in grid):
        raise ValueError("stepsizes must be positive")
    if x0 is None:
        if p.default_x0 is None:
            raise ValueError(f"problem {p.name} has no default x0; pass one")
        x0 = p.default_x0

    n_g = len(grid)
    lane_gamma = np.repeat(np.asarray(grid), reps)[:, None]
    lane_group = np.repeat(np.arange(n_g), reps)
    X = np.tile(np.asarray(x0, dtype=float), (n_g * reps, 1))
    rng = stream(seed, 0x7E)
    f_star = p.f_star or 0.0

    diverged = np.zeros(n_g, dtype=bool)
    reached = np.zeros(n_g, dtype=bool)
    reach_t = np.full(n_g, -1, dtype=np.int64)
    best_gap = np.full(n_g, np.inf)
    stop_t = None

    inv_reps = 1.0 / reps
    gaps = p.value_many(X) - f_star
    means = gaps.reshape(n_g, reps).sum(axis=1) * inv_reps
    np.minimum(best_gap, means, out=best_gap)
    first = means <= target_eps
    if first.any():
        reached, reach_t[first], stop_t = first, 0, 0
    else:
        err_state = np.errstate(over="ignore", invalid="ignore")
        err_state.__enter__()
        try:
            for t in range(1, max_T + 1):
                G = o.query_batch(X, rng)
                X -= lane_gamma * G
                gaps = p.value_many(X) - f_star
                means = gaps.reshape(n_g, reps).sum(axis=1) * inv_reps
                # cheap divergence gate on the group means; gaps are
                # nonnegative so lane blow-ups cannot cancel in the sum
                trouble = ~np.isfinite(means) | (np.abs(means) > DIVERGENCE_LIMIT)
                if trouble.any():
                    bad = ~np.isfinite(gaps) | (np.abs(gaps) > DIVERGENCE_LIMIT)
                    diverged[np.unique(lane_group[bad])] = True
                    X[bad] = 0.0  # park exploded lanes; their group is out
                    if diverged.all():
                        stop_t = t
                        break
                    means = np.where(diverged, np.inf, means)
                live = ~diverged
                best_gap[live] = np.minimum(best_gap[live], means[live])
                hits = live & (means <= target_eps)
                if hits.any():
                    reached = hits
                    reach_t[hits] = t
                    stop_t = t
                    break
        finally:
            err_state.__exit__(None, None, None)

    entries = []
    for i in range(n_g):
        censored = None
        if not reached[i] and not diverged[i] and stop_t is not None:
            censored = int(stop_t)
        entries.append(TuneEntry(
            gamma=grid[i], reached=bool(reached[i]),
            iterations=int(reach_t[i]) if reached[i] else None,
            best_gap=float(best_gap[i]) if np.isfinite(best_gap[i]) else float("inf"),
            diverged=bool(diverged[i]), censored_at=censored))
    return TuneResult(target_eps=target_eps, max_T=max_T, entries=entries)
