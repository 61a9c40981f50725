"""Stepsize tuning: find the grid stepsize reaching a target gap fastest.

All (stepsize, repetition) lanes of one configuration advance together as a
single state matrix on the engine's step loop (`optimizer._Engine`), with
`_Race` as its consumer. Because every lane group steps in lockstep, the first
group whose repetition-mean gap touches the target is exactly the grid
minimizer of iterations-to-target, so the search stops there; slower groups
are reported as censored at that iteration. The searches of several oracles
on one problem (`tune_stepsize_many`) are the members of one engine run, and
each stops on its own hit while the others step on.

The lanes keep the engine's contracts: lane (stepsize, rep r) draws from
`stream(seed, r)`, rep r's stream in `sgd_run_repeated`, so every stepsize
sees the same draws and a stepsize's result does not depend on the rest of
the grid; a stepsize diverges when any of its lanes fails the engine's
divergence test (its lanes form one group). The search records each
stepsize's rep-mean gap (the reps' gaps summed, times 1/reps), which agrees
to rounding with `sgd_run_repeated`'s Welford mean. Each result carries the
race curve, the recorded curve of the stepsize the race figure plots
(`TuneResult.race`); `keep_history` adds the whole record (`history_t`,
`history`). The searches of one engine run write their records to one
temporary file, each in its own byte region.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .optimizer import (StepSchedule, _Engine, _raised, _thinned_grid,
                        rep_streams)
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


# the search folds its f values, and reads its history back, in blocks of
# this many floats (128 KiB)
_FOLD_FLOATS = 16_384
# a step is tested for a hit when its smallest f is within this relative
# margin of target_eps + f*, which covers the rounding of the rep means
_HIT_MARGIN = 1e-9

# the history is dense up to this iteration, the race figure's horizon for
# a stepsize that never reached the target, and log-spaced beyond it
RACE_HORIZON = 200_000
_LOG_POINTS = 1_000


def history_grid(max_T: int) -> np.ndarray:
    """Iterations the search records: every t <= RACE_HORIZON, then log-spaced.

    At most RACE_HORIZON + _LOG_POINTS + 1 entries whatever max_T is.
    """
    return _thinned_grid(max_T, RACE_HORIZON, RACE_HORIZON, _LOG_POINTS)


@dataclass
class TuneResult:
    target_eps: float
    max_T: int
    entries: list
    # rep-mean gap (column per grid stepsize, NaN once it diverged) at the
    # iterations history_t: history_grid(max_T) up to the stopping iteration,
    # which is always the last row; kept only with `keep_history`
    history_t: Optional[np.ndarray] = None
    history: Optional[np.ndarray] = None
    # (entry, t, rep-mean gap) of the stepsize the race figure plots: the
    # winner over 0 .. its iterations-to-target; without one, the
    # non-diverged stepsize with the lowest best gap over 0 .. min(max_T,
    # RACE_HORIZON). None when every stepsize diverged. An array field has
    # no `==`, so results compare without it.
    race: Optional[tuple] = field(default=None, compare=False)

    @property
    def best(self) -> Optional[TuneEntry]:
        hits = [e for e in self.entries if e.reached]
        if not hits:
            return None
        return min(hits, key=lambda e: e.iterations)

    @property
    def best_gap(self) -> float:
        return min(e.best_gap for e in self.entries)


def default_gamma_grid(L: float) -> list:
    """Log grid 2^-20 .. 1 clipped to the 1/L stability cap (cap included)."""
    cap = 1.0 / L
    return sorted({g for g in (2.0 ** -k for k in range(20, -1, -1))
                   if g <= cap} | {cap})


class _Race:
    """The search's consumer of the engine: each stepsize's rep-mean gap.

    Lanes come in groups of `group` (reps), one per stepsize. Blocks of f values
    are folded into the groups' means (the reps' gaps summed, times 1/reps,
    as in `hit`), best gaps and history rows. The engine asks `hit` only at
    an iterate whose smallest f is within a rounding margin of target_eps +
    f*, as every iterate with a mean at the target is.

    The history rows are written, as they are folded, to the engine run's
    temporary file (descriptor `fd`) from byte `offset` on, so the search
    holds none of them in memory. When the search stops, `out` is its
    result: `stop` reads back the race curve's column, and the whole history
    with `keep_history`.
    """

    grid, grad_norms = None, False

    def __init__(self, p: Problem, gammas: list, reps: int, target_eps: float,
                 max_T: int, rec_t: np.ndarray, keep_history: bool, fd: int,
                 offset: int):
        n_g = len(gammas)
        self.floats = _FOLD_FLOATS
        self.f_star = p.f_star or 0.0
        self.target = target_eps + self.f_star \
            + _HIT_MARGIN * (target_eps + abs(self.f_star))
        self.eps, self.group, self.gammas, self.max_T = target_eps, reps, gammas, max_T
        self.keep_history = keep_history
        self.reached = np.zeros(n_g, dtype=bool)
        self.diverged = np.zeros(n_g, dtype=bool)
        self.best_gap = np.full(n_g, np.inf)
        self.stop_t = None  # the iterate at which a mean reached the target
        self.rec_t = rec_t  # history_grid(max_T), shared by the searches
        self.fd, self.offset = fd, offset
        self.rows = 0  # history rows written

    def _groups(self, lanes: np.ndarray) -> np.ndarray:
        return lanes[::self.group] // self.group

    def _means(self, F: np.ndarray) -> np.ndarray:
        return F.reshape(len(F), -1, self.group).sum(axis=2) * (1.0 / self.group)

    def fold(self, b0: int, B: np.ndarray, lanes: np.ndarray) -> None:
        F, g = B[0], self._groups(lanes)
        # C-ordered, so that each rep sum adds contiguous values as `hit` does
        means = self._means(np.ascontiguousarray(F[:, lanes]))
        self.best_gap[g] = np.minimum(self.best_gap[g], means.min(axis=0))
        r0 = self.rows
        t = self.rec_t[r0:r0 + np.searchsorted(self.rec_t[r0:], b0 + len(F))]
        if self.stop_t is not None and (not len(t) or t[-1] != self.stop_t):
            t = np.append(t, self.stop_t)  # the last block ends at the stop
        self.rows += len(t)
        rows = np.full((len(t), len(self.gammas)), np.nan)
        rows[:, g] = means[t - b0]
        if os.pwrite(self.fd, rows, self.offset + r0 * rows.strides[0]) < rows.nbytes:
            raise OSError("a history write fell short")

    def _read(self, n: int, col: Optional[int] = None) -> np.ndarray:
        """The first n history rows (their column `col` when given), read
        back in blocks of at most `floats` floats."""
        n_g = len(self.gammas)
        out = np.empty((n, n_g) if col is None else n)
        block = np.empty((max(1, self.floats // n_g), n_g))
        for r in range(0, n, len(block)):
            rows = block[:n - r]
            if os.preadv(self.fd, [rows], self.offset + r * rows.strides[0]) < rows.nbytes:
                raise EOFError("the search's history file ended early")
            out[r:r + len(rows)] = rows if col is None else rows[:, col]
        return out

    def drop(self, t: int, slot: int, lanes: np.ndarray, X, fx) -> None:
        self.diverged[self._groups(lanes)] = True

    def hit(self, t: int, fx: np.ndarray, lanes: np.ndarray) -> bool:
        hits = self._means((fx - self.f_star)[None])[0] <= self.eps
        if not hits.any():
            return False
        self.reached[self._groups(lanes)] = hits
        self.stop_t = t
        return True

    def stop(self, lanes, X) -> None:
        entries = [TuneEntry(
            gamma=gamma, reached=bool(r), iterations=self.stop_t if r else None,
            best_gap=float(b) if np.isfinite(b) else float("inf"),
            diverged=bool(d), censored_at=None if r or d else self.stop_t)
            for gamma, r, d, b in zip(self.gammas, self.reached, self.diverged,
                                      self.best_gap)]
        hist_t = self.rec_t[:self.rows].copy()
        if self.stop_t is not None:  # its last row is the stop
            hist_t[-1] = self.stop_t
        res = TuneResult(target_eps=self.eps, max_T=self.max_T, entries=entries)
        if self.keep_history:
            res.history_t, res.history = hist_t, self._read(self.rows)
        best = res.best or min((e for e in entries if not e.diverged),
                               key=lambda e: e.best_gap, default=None)
        if best is not None:
            n = np.searchsorted(hist_t, best.iterations if best.reached
                                else RACE_HORIZON, side="right")
            res.race = best, hist_t[:n], self._read(n, entries.index(best))
        self.out = res


def tune_stepsize(p: Problem, o: BiasedOracle, target_eps: float,
                  grid: Optional[Sequence[float]] = None, reps: int = 3,
                  max_T: int = 1_000_000, seed: int = 0,
                  x0: Optional[np.ndarray] = None) -> TuneResult:
    """Grid-search the constant stepsize minimizing iterations to target.

    Diverged stepsizes are dropped and excluded; if no stepsize reaches the
    target within max_T, every entry reports its best achieved gap instead.
    The search is a one-oracle `tune_stepsize_many`.
    """
    return _raised(tune_stepsize_many(p, [o], target_eps, grid, reps, max_T,
                                      seed, x0)[0])


def tune_stepsize_many(p: Problem, oracles: list, target_eps: float,
                       grid: Optional[Sequence[float]] = None, reps: int = 3,
                       max_T: int = 1_000_000, seed: int = 0,
                       x0: Optional[np.ndarray] = None,
                       keep_history: bool = True) -> list:
    """`tune_stepsize` of each oracle, the searches stepped in one engine run.

    Each search is a member of the engine's loop (its own row block, on the
    rep streams) and stops on its own hit, so its result is byte-identical to
    its own `tune_stepsize`. Returns per oracle that result, or the exception
    its oracle raised, which stops that search alone. Every result carries
    its race curve (`TuneResult.race`); without `keep_history` it has no
    `history_t` or `history`. The searches write their history rows to one
    unnamed temporary file, search i from byte i * S on, S the most a search
    writes, and read back only what they return, so in memory each holds its
    record block and per-stepsize best gaps, not rows that grow with max_T.
    The file is closed, so removed, when the engine run ends.
    """
    if not 0 < target_eps < np.inf:
        raise ValueError(f"target_eps must be positive and finite, got {target_eps}")
    if grid is None:
        grid = default_gamma_grid(p.smoothness_L)
    grid = [StepSchedule.constant(g).gamma for g in grid]
    if not grid:
        raise ValueError("stepsize grid is empty")
    gens = rep_streams(seed, reps)
    if max_T < 1:
        raise ValueError("max_T must be >= 1")
    gamma = np.repeat(np.asarray(grid), reps)[:, None]
    rec_t = history_grid(max_T)
    size = len(rec_t) * len(grid) * 8  # S: a search writes at most len(rec_t) rows
    with tempfile.TemporaryFile() as file:
        return _Engine(p, max_T, x0, gens, [
            (o, _Race(p, grid, reps, target_eps, max_T, rec_t, keep_history,
                      file.fileno(), i * size), gamma)
            for i, o in enumerate(oracles)]).run()
