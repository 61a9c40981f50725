"""Stepsize tuning: find the grid stepsize reaching a target gap fastest.

All (stepsize, repetition) lanes of one configuration advance together as a
single state matrix. Because every lane group steps in lockstep, the first
group whose repetition-mean gap touches the target is exactly the grid
minimizer of iterations-to-target, so the search stops there; slower groups
are reported as censored at that iteration.

The lanes keep the engine's contracts (`optimizer`): lane (stepsize, rep r)
draws from `stream(seed, r)`, rep r's stream in `sgd_run_repeated`, so every
stepsize sees the same draws and a stepsize's result does not depend on the
rest of the grid; a stepsize diverges when any of its lanes fails the
engine's divergence test. The rep-mean gap of every stepsize is recorded as
the search goes, which is the curve `sgd_run_repeated` would trace at that
stepsize.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._rng import stream
from .optimizer import LaneStreams, failing_lanes
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


# the history is dense up to this iteration, the race figure's horizon for
# a stepsize that never reached the target, and log-spaced beyond it
RACE_HORIZON = 200_000
_LOG_POINTS = 1_000


def history_grid(max_T: int) -> np.ndarray:
    """Iterations the search records: every t <= RACE_HORIZON, then log-spaced.

    At most RACE_HORIZON + _LOG_POINTS + 1 entries whatever max_T is.
    """
    if max_T <= RACE_HORIZON:
        return np.arange(max_T + 1)
    tail = np.geomspace(RACE_HORIZON, max_T, _LOG_POINTS).astype(np.int64)
    return np.unique(np.concatenate([np.arange(RACE_HORIZON + 1), tail, [max_T]]))


@dataclass
class TuneResult:
    target_eps: float
    max_T: int
    entries: list
    # rep-mean gap (column per grid stepsize, NaN once it diverged) at the
    # iterations history_t: history_grid(max_T) up to the stopping iteration,
    # which is always the last row
    history_t: Optional[np.ndarray] = None
    history: Optional[np.ndarray] = None

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

    def race_curve(self) -> Optional[tuple]:
        """(entry, t, rep-mean gap) of the stepsize the race figure plots.

        The winner over 0 .. its iterations-to-target; without one, the
        non-diverged stepsize with the lowest gap over 0 .. min(max_T,
        RACE_HORIZON). None when every stepsize diverged.
        """
        best = self.best
        if best is None:
            viable = [e for e in self.entries if not e.diverged]
            if not viable:
                return None
            best = min(viable, key=lambda e: e.best_gap)
        n = np.searchsorted(self.history_t, best.iterations if best.reached
                            else RACE_HORIZON, side="right")
        # copies, so that the curve does not keep the whole history alive
        return best, self.history_t[:n].copy(), \
            self.history[:n, self.entries.index(best)].copy()


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

    Diverged stepsizes are dropped and excluded; if no stepsize reaches the
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
    live = np.arange(n_g)  # the live stepsizes, one block of reps rows each
    lane_gamma = np.repeat(np.asarray(grid), reps)[:, None]
    X = np.tile(np.asarray(x0, dtype=float), (n_g * reps, 1))
    gens = [stream(seed, r) for r in range(reps)]
    # one adapter for the whole search, so its read-ahead blocks survive
    # stepsizes dropping out
    rng = LaneStreams(gens, max_T, np.tile(np.arange(reps), n_g))
    f_star = p.f_star or 0.0
    rec_t = history_grid(max_T)
    # one spare row for a stop between recorded iterations; rows are written
    # as the search goes, so an early stop never touches most of the buffer
    hist = np.empty((len(rec_t) + 1, n_g))
    hist_t = np.empty(len(rec_t) + 1, dtype=np.int64)

    diverged = np.zeros(n_g, dtype=bool)
    reached = np.zeros(n_g, dtype=bool)
    best_gap = np.full(n_g, np.inf)
    stop_t = None

    inv_reps = 1.0 / reps
    fx = p.value_many(X)
    t = slot = 0
    # a failing stepsize is dropped below, so its overflow or NaN arithmetic
    # needs no warning
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            means = (fx - f_star).reshape(len(live), reps).sum(axis=1) * inv_reps
            best_gap[live] = np.minimum(best_gap[live], means)
            hits = live[means <= target_eps]
            done = len(hits) > 0 or t == max_T
            if done or t == rec_t[slot]:
                row = hist[slot]
                if len(live) < n_g:
                    row.fill(np.nan)
                row[live] = means
                hist_t[slot] = t
                slot += 1
            if done:
                if len(hits):
                    reached[hits] = True
                    stop_t = t
                break
            t += 1
            X -= lane_gamma * o.query_batch(X, rng)
            fx = p.value_many(X)
            bad = failing_lanes(fx, X)
            if bad is not None:
                # a stepsize with any failing lane is out, all its lanes with it
                out = bad.reshape(len(live), reps).any(axis=1)
                diverged[live[out]] = True
                keep = np.repeat(~out, reps)
                X, fx, lane_gamma = X[keep], fx[keep], lane_gamma[keep]
                live = live[~out]
                if not len(live):
                    stop_t = t
                    break
                rng.rows = np.tile(np.arange(reps), len(live))

    entries = []
    for i in range(n_g):
        censored = None
        if not reached[i] and not diverged[i] and stop_t is not None:
            censored = int(stop_t)
        entries.append(TuneEntry(
            gamma=grid[i], reached=bool(reached[i]),
            iterations=stop_t if reached[i] else None,
            best_gap=float(best_gap[i]) if np.isfinite(best_gap[i]) else float("inf"),
            diverged=bool(diverged[i]), censored_at=censored))
    return TuneResult(target_eps=target_eps, max_T=max_T, entries=entries,
                      history_t=hist_t[:slot], history=hist[:slot])
