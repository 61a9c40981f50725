"""Stepsize tuning: find the grid stepsize reaching a target gap fastest.

All (stepsize, repetition) lanes of one configuration advance together as a
single state matrix on the engine's step loop (`optimizer._run_lanes`), with
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
divergence test (its lanes form one group). The rep-mean gap of every
stepsize is recorded as the search goes, which is the curve
`sgd_run_repeated` would trace at that stepsize.
"""

from __future__ import annotations

import tempfile
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .optimizer import StepSchedule, _raised, _run_lanes, rep_streams
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

    def _race_rows(self) -> Optional[tuple]:
        """(entry, its column, rows) of the stepsize the race figure plots.

        The winner over 0 .. its iterations-to-target; without one, the
        non-diverged stepsize with the lowest gap over 0 .. min(max_T,
        RACE_HORIZON). None when every stepsize diverged. Reads `history_t`
        only, so that a search reads back just these rows of its history.
        """
        best = self.best
        if best is None:
            viable = [e for e in self.entries if not e.diverged]
            if not viable:
                return None
            best = min(viable, key=lambda e: e.best_gap)
        n = np.searchsorted(self.history_t, best.iterations if best.reached
                            else RACE_HORIZON, side="right")
        return best, self.entries.index(best), n

    def race_curve(self) -> Optional[tuple]:
        """(entry, t, rep-mean gap) of the stepsize the race figure plots
        (`_race_rows`), or None."""
        race = self._race_rows()
        if race is None:
            return None
        best, j, n = race
        return best, self.history_t[:n], self.history[:n, j]


def default_gamma_grid(L: float) -> list:
    """Log grid 2^-20 .. 1 clipped to the 1/L stability cap (cap included)."""
    cap = 1.0 / L
    grid = sorted({g for g in (2.0 ** -k for k in range(20, -1, -1))
                   if g <= cap} | {cap})
    return grid


class _Race:
    """The search's consumer of the engine: each stepsize's rep-mean gap.

    Lanes come in groups of `reps`, one per grid stepsize. Blocks of f values
    are folded into the groups' means (the reps' gaps summed, times 1/reps,
    as in `hit`), best gaps and history rows. The engine asks `hit` only at
    an iterate whose smallest f is within a rounding margin of target_eps +
    f*, as every iterate with a mean at the target is.

    The history rows go to `file`, an unnamed temporary file, as they are
    folded, so the search holds none of them in memory. When the search
    stops, `out` is its (result, race curve): `stop` reads back the whole
    history with `keep_history`, else only the race curve's column, and
    closes the file, which removes it.
    """

    grid, grad_norms = None, False

    def __init__(self, p: Problem, gammas: list, reps: int, target_eps: float,
                 max_T: int, rec_t: np.ndarray, keep_history: bool, file):
        n_g = len(gammas)
        self.floats = _FOLD_FLOATS
        self.f_star = p.f_star or 0.0
        self.target = target_eps + self.f_star \
            + _HIT_MARGIN * (target_eps + abs(self.f_star))
        self.eps, self.reps, self.gammas, self.max_T = target_eps, reps, gammas, max_T
        self.keep_history = keep_history
        self.reached = np.zeros(n_g, dtype=bool)
        self.diverged = np.zeros(n_g, dtype=bool)
        self.best_gap = np.full(n_g, np.inf)
        self.stop_t = None  # the iterate at which a mean reached the target
        self.rec_t = rec_t  # history_grid(max_T), shared by the searches
        self.file = file
        self.rows = 0  # history rows written

    def _groups(self, cols):
        return cols if isinstance(cols, slice) else cols[::self.reps] // self.reps

    def _means(self, F: np.ndarray) -> np.ndarray:
        return F.reshape(len(F), -1, self.reps).sum(axis=2) * (1.0 / self.reps)

    def fold(self, b0: int, B: np.ndarray, cols) -> None:
        F, g = B[0], self._groups(cols)
        # C-ordered, so that each rep sum adds contiguous values as `hit` does
        means = self._means(np.ascontiguousarray(F[:, cols]))
        self.best_gap[g] = np.minimum(self.best_gap[g], means.min(axis=0))
        r0 = self.rows
        t = self.rec_t[r0:r0 + np.searchsorted(self.rec_t[r0:], b0 + len(F))]
        if self.stop_t is not None and (not len(t) or t[-1] != self.stop_t):
            t = np.append(t, self.stop_t)  # the last block ends at the stop
        self.rows += len(t)
        rows = np.full((len(t), len(self.gammas)), np.nan)
        rows[:, g] = means[t - b0]
        self.file.write(rows)

    def _read(self, n: int, col: Optional[int] = None) -> np.ndarray:
        """The first n history rows (their column `col` when given), read
        back in blocks of at most `floats` floats."""
        n_g = len(self.gammas)
        out = np.empty((n, n_g) if col is None else n)
        block = np.empty((max(1, self.floats // n_g), n_g))
        self.file.seek(0)
        for r in range(0, n, len(block)):
            rows = block[:n - r]
            if self.file.readinto(rows) < rows.nbytes:
                raise EOFError("the search's history file ended early")
            out[r:r + len(rows)] = rows if col is None else rows[:, col]
        return out

    def drop(self, t: int, slot: int, lanes: np.ndarray, X, fx) -> None:
        self.diverged[self._groups(lanes)] = True

    def hit(self, t: int, fx: np.ndarray, cols) -> bool:
        hits = self._means((fx - self.f_star)[None])[0] <= self.eps
        if not hits.any():
            return False
        self.reached[self._groups(cols)] = hits
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
        res = TuneResult(target_eps=self.eps, max_T=self.max_T, entries=entries,
                         history_t=hist_t)
        with self.file:
            if self.keep_history:
                res.history = self._read(self.rows)
                curve = res.race_curve()
            else:
                race = res._race_rows()
                curve = None if race is None else \
                    (race[0], hist_t[:race[2]], self._read(race[2], race[1]))
                res.history_t = None
        self.out = res, curve


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
                                      seed, x0)[0])[0]


def tune_stepsize_many(p: Problem, oracles: list, target_eps: float,
                       grid: Optional[Sequence[float]] = None, reps: int = 3,
                       max_T: int = 1_000_000, seed: int = 0,
                       x0: Optional[np.ndarray] = None,
                       keep_history: bool = True) -> list:
    """`tune_stepsize` of each oracle, the searches stepped in one engine run.

    Each search is a member of the engine's loop (its own row block, on the
    rep streams) and stops on its own hit, so its result is byte-identical to
    its own `tune_stepsize`. Returns per oracle (result, race curve), or the
    exception its oracle raised, which stops that search alone; without
    `keep_history` the result has no history. Each search writes its history
    rows to an unnamed temporary file and reads back only what it returns,
    so in memory it holds its record block and per-stepsize best gaps, not
    rows that grow with max_T; every file is closed, so removed, at the end.
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
    with ExitStack() as files:
        return _run_lanes(p, max_T, x0, gens, [
            (o, _Race(p, grid, reps, target_eps, max_T, rec_t, keep_history,
                      files.enter_context(tempfile.TemporaryFile())), gamma)
            for o in oracles], np.tile(np.arange(reps), len(grid)), reps)
