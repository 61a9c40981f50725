"""The constant/sequence-stepsize SGD loop with trace recording."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ._rng import stream
from .oracles import BiasedOracle
from .problems import Problem

# beyond this many iterations traces are thinned to logarithmic checkpoints
FULL_TRACE_LIMIT = 1_000_000
# an iterate with |f| or ||x|| beyond this (or not finite) ends the run
DIVERGENCE_LIMIT = 1e12


@dataclass(frozen=True)
class StepSchedule:
    """Constant stepsize or an explicit per-iteration sequence."""

    kind: str  # constant | sequence
    values: tuple

    @staticmethod
    def constant(gamma: float) -> "StepSchedule":
        if gamma <= 0:
            raise ValueError("stepsize must be positive")
        return StepSchedule(kind="constant", values=(float(gamma),))

    @staticmethod
    def sequence(gammas: Sequence[float]) -> "StepSchedule":
        gammas = tuple(float(g) for g in gammas)
        if not gammas or any(g <= 0 for g in gammas):
            raise ValueError("all stepsizes must be positive")
        return StepSchedule(kind="sequence", values=gammas)

    def at(self, t: int) -> float:
        if self.kind == "constant":
            return self.values[0]
        return self.values[t]

    def check_length(self, T: int) -> None:
        if self.kind == "sequence" and len(self.values) < T:
            raise ValueError(f"schedule provides {len(self.values)} stepsizes, run needs {T}")

    def describe(self) -> str:
        if self.kind == "constant":
            return f"constant({self.values[0]:g})"
        return f"sequence(len={len(self.values)})"


def _record_grid(T: int) -> np.ndarray:
    """Iteration indices to record: everything, or log-thinned checkpoints."""
    if T <= FULL_TRACE_LIMIT:
        return np.arange(T + 1)
    head = np.arange(1024)
    tail = np.unique(np.geomspace(1024, T, 99_000).astype(np.int64))
    return np.unique(np.concatenate([head, tail, [T]]))


@dataclass
class RunTrace:
    """Per-iteration record of one SGD run.

    `t` holds the recorded iteration indices (0 .. T for desk-scale runs);
    `f_gap` is f(x_t) - f*, `grad_norm_sq` is ||grad f(x_t)||^2. A diverged
    run carries the partial trace up to its last finite iterate.
    """

    t: np.ndarray
    f_gap: np.ndarray
    grad_norm_sq: np.ndarray
    stepsizes: np.ndarray
    final_x: np.ndarray
    status: str  # completed | diverged
    reason: Optional[str]  # non-finite | overflow | monotone-increase
    fingerprint: dict = field(default_factory=dict)

    @property
    def diverged(self) -> bool:
        return self.status == "diverged"

    def psi(self) -> float:
        """Mean squared gradient norm over the recorded iterates before the last."""
        return float(np.mean(self.grad_norm_sq[:-1])) if len(self.t) > 1 \
            else float(self.grad_norm_sq[0])


def _divergence_reason(f: float, x: np.ndarray) -> str:
    """Why an iterate failed the step loop's bound test."""
    if not np.isfinite(f) or not np.all(np.isfinite(x)):
        return "non-finite"
    return "overflow"


def sgd_run(p: Problem, o: BiasedOracle, sched: StepSchedule, T: int,
            seed: int, x0: Optional[np.ndarray] = None,
            rng: Optional[np.random.Generator] = None) -> RunTrace:
    """Run x_{t+1} = x_t - gamma_t * g_t for T steps from x0.

    Bit-deterministic given (problem, oracle, schedule, T, seed, x0). A
    non-finite or overflowing iterate stops the run early with a partial
    trace; a run whose gap only ever increases is also flagged as diverged.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    sched.check_length(T)
    if x0 is None:
        if p.default_x0 is None:
            raise ValueError(f"problem {p.name} has no default x0; pass one")
        x0 = p.default_x0
    x = np.array(x0, dtype=float)
    if x.shape != (p.dim,):
        raise ValueError(f"x0 must have shape ({p.dim},)")
    if rng is None:
        rng = stream(seed)

    grid = _record_grid(T)
    grid_set = set(int(i) for i in grid) if len(grid) <= T else None
    n_rec = len(grid)
    f_gap = np.empty(n_rec)
    gns = np.empty(n_rec)
    gammas = np.full(n_rec, np.nan)
    f_star = p.f_star or 0.0
    limit_sq = DIVERGENCE_LIMIT * DIVERGENCE_LIMIT

    def record(slot: int, t: int, fx: float) -> None:
        f_gap[slot] = fx - f_star
        g = p.grad(x)
        gns[slot] = float(g @ g)
        gammas[slot] = sched.at(t) if t < T else np.nan

    record(0, 0, float(p.value(x)))
    slot = 1
    status, reason = "completed", None
    for t in range(T):
        g = o.query(x, rng)
        x = x - sched.at(t) * g
        fx = float(p.value(x))
        # NaN fails both comparisons, so one test catches every bad iterate
        if not (abs(fx) <= DIVERGENCE_LIMIT and x @ x <= limit_sq):
            status, reason = "diverged", _divergence_reason(fx, x)
            break
        if grid_set is None or (t + 1) in grid_set:
            record(slot, t + 1, fx)
            slot += 1

    f_gap, gns, gammas = (a[:slot] for a in (f_gap, gns, gammas))
    t_idx = grid[:slot]
    if status == "completed" and len(f_gap) > 1:
        diffs = np.diff(f_gap)
        if np.all(diffs >= 0) and f_gap[-1] > f_gap[0]:
            status, reason = "diverged", "monotone-increase"

    fingerprint = {
        "problem": p.name, "oracle": o.name, "bounds": o.bounds.as_dict(),
        "schedule": sched.describe(), "T": T, "seed": int(seed),
    }
    return RunTrace(t=t_idx, f_gap=f_gap, grad_norm_sq=gns, stepsizes=gammas,
                    final_x=x, status=status, reason=reason,
                    fingerprint=fingerprint)


@dataclass
class RepeatedRuns:
    """Aggregate of independent repetitions of one configuration."""

    t: np.ndarray
    mean_f_gap: np.ndarray
    se_f_gap: np.ndarray
    mean_grad_norm_sq: np.ndarray
    se_grad_norm_sq: np.ndarray
    count: np.ndarray
    reps: int
    diverged_reps: list
    traces: Optional[list] = None

    @property
    def any_diverged(self) -> bool:
        return bool(self.diverged_reps)

    def tail_mean_f_gap(self, fraction: float = 0.1) -> float:
        """Mean f_gap over the trailing fraction of recorded iterations."""
        n = len(self.t)
        k = max(1, int(np.ceil(fraction * n)))
        return float(np.mean(self.mean_f_gap[n - k:]))


def sgd_run_repeated(p: Problem, o: BiasedOracle, sched: StepSchedule, T: int,
                     reps: int, seed: int, x0: Optional[np.ndarray] = None,
                     keep_traces: Optional[bool] = None) -> RepeatedRuns:
    """Independent repetitions with per-rep Philox streams, aggregated per t.

    Means and standard errors are accumulated online (Welford), so large
    reps * T products do not require holding every trace in memory.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    grid = _record_grid(T)
    n_rec = len(grid)
    if keep_traces is None:
        keep_traces = reps * n_rec <= 5_000_000
    count = np.zeros(n_rec, dtype=np.int64)
    mean_g = np.zeros((2, n_rec))
    m2_g = np.zeros((2, n_rec))
    traces = [] if keep_traces else None
    diverged = []

    for rep in range(reps):
        tr = sgd_run(p, o, sched, T, seed, x0=x0, rng=stream(seed, rep))
        n = len(tr.t)
        count[:n] += 1
        for row, vals in enumerate((tr.f_gap, tr.grad_norm_sq)):
            delta = vals - mean_g[row, :n]
            mean_g[row, :n] += delta / count[:n]
            m2_g[row, :n] += delta * (vals - mean_g[row, :n])
        if tr.diverged:
            diverged.append(rep)
        if keep_traces:
            traces.append(tr)

    keep = count > 0
    with np.errstate(invalid="ignore", divide="ignore"):
        se = np.where(count > 1, np.sqrt(m2_g / np.maximum(count - 1, 1) / np.maximum(count, 1)), 0.0)
    return RepeatedRuns(
        t=grid[keep],
        mean_f_gap=mean_g[0, keep], se_f_gap=se[0, keep],
        mean_grad_norm_sq=mean_g[1, keep], se_grad_norm_sq=se[1, keep],
        count=count[keep], reps=reps, diverged_reps=diverged, traces=traces,
    )


def uniform_random_iterate(trace: RunTrace, rng: np.random.Generator) -> int:
    """Index of a uniformly random recorded iterate among t = 0 .. T-1."""
    n = len(trace.t) - 1
    if n < 1:
        return 0
    return int(rng.integers(0, n))
