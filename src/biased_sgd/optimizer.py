"""The lane-batched SGD engine with trace recording.

Repetitions run as the rows ("lanes") of one state matrix, stepped together
through the row forms of the oracle and the problem. Each lane draws only
from its own Philox stream (one per draw kind, read ahead in blocks), so its
trace does not depend on the lanes that run beside it; `sgd_run` is the
one-lane case. The stream adapter
(`LaneStreams`) and the divergence test (`failing_lanes`) are the ones the
stepsize search in `tuning` uses too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from ._rng import KindStreams, stream
from .oracles import BiasedOracle
from .problems import Problem

# beyond this many iterations traces are thinned to logarithmic checkpoints
FULL_TRACE_LIMIT = 1_000_000
# an iterate with |f| or ||x|| beyond this (or not finite) ends the run
DIVERGENCE_LIMIT = 1e12
_LIMIT_SQ = DIVERGENCE_LIMIT * DIVERGENCE_LIMIT
_HALF_LIMIT_SQ = _LIMIT_SQ / 2
# repeated runs keep every trace up to this many recorded values per array;
# beyond it the aggregate is streamed through blocks of _STREAM_BLOCK values
KEEP_TRACES_LIMIT = 5_000_000
_STREAM_BLOCK = 1_000_000
# `LaneStreams` reads each draw kind ahead in blocks of this many floats
# over all its generators (64 KiB), or one row per generator when wider
_BLOCK_FLOATS = 8_192


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

    def steps(self, T: int):
        """The stepsizes gamma_0 .. gamma_{T-1}."""
        if self.kind == "constant":
            return itertools.repeat(self.values[0], T)
        return self.values[:T]

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


class Divergence(NamedTuple):
    """One diverged repetition: its index, why, and when it was flagged.

    `iteration` is the index of the first bad iterate for `non-finite` and
    `overflow`, and T for `monotone-increase` (a verdict on the whole run).
    """

    rep: int
    reason: str
    iteration: int


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
    diverged_reps: list  # Divergence per diverged rep, in rep order
    traces: Optional[list] = None

    @property
    def any_diverged(self) -> bool:
        return bool(self.diverged_reps)

    def tail_mean_f_gap(self, fraction: float = 0.1) -> float:
        """Mean f_gap over the trailing fraction of recorded iterations."""
        n = len(self.t)
        k = max(1, int(np.ceil(fraction * n)))
        return float(np.mean(self.mean_f_gap[n - k:]))


def _divergence_reason(f: float, x: np.ndarray) -> str:
    """Why an iterate failed the step loop's bound test."""
    if not np.isfinite(f) or not np.all(np.isfinite(x)):
        return "non-finite"
    return "overflow"


class LaneStreams:
    """The `rng` of a lane-batched row map: row i is drawn from gens[rows[i]].

    Each call of `standard_normal(size)` or `random(size)` takes the next
    row of that kind from every generator, and rows that share a generator
    get that same row, so a generator's draws do not depend on how many
    rows share it. `rows=None` gives row i its own generator gens[i]; a loop
    whose lanes drop out reassigns `rows` and keeps the adapter. Each draw
    kind has its own stream per generator (`KindStreams`), read ahead in
    blocks: one call per generator fills the next B rows, one row per step,
    with B sized to _BLOCK_FLOATS over all generators and to the `steps`
    left, so a generator is advanced in whole blocks. One (B, d) draw gives
    the values of B draws of d, so B changes no value.
    """

    def __init__(self, gens: list, steps: int,
                 rows: Optional[np.ndarray] = None):
        self.rows, self.steps = rows, steps
        self._streams = [KindStreams(g) for g in gens]
        self._blocks: dict = {}  # kind -> _Block

    def _draw(self, kind: str, size) -> np.ndarray:
        block = self._blocks.get(kind)
        if block is None:
            block = self._blocks[kind] = _Block(len(self._streams), tuple(size[1:]))
        elif tuple(size[1:]) != block.row_shape:
            raise ValueError(f"{kind} draws rows of shape {block.row_shape}, "
                             f"not {tuple(size[1:])}")
        if block.pos == block.buf.shape[1]:
            block.refill(self._streams, kind, self.steps)
        pos = block.pos
        block.pos = pos + 1
        if self.rows is None:
            return block.buf[:, pos].copy()
        return block.buf[:, pos].take(self.rows, axis=0)

    def standard_normal(self, size) -> np.ndarray:
        return self._draw("standard_normal", size)

    def random(self, size) -> np.ndarray:
        return self._draw("random", size)


class _Block:
    """One draw kind's read-ahead: buf[j, pos] is generator j's next row."""

    __slots__ = ("row_shape", "buf", "pos", "drawn")

    def __init__(self, n_gens: int, row_shape: tuple):
        self.row_shape = row_shape
        self.buf = np.empty((n_gens, 0, *row_shape))
        self.pos = self.drawn = 0  # next row; rows drawn per generator

    def refill(self, streams: list, kind: str, steps: int) -> None:
        n_gens = len(self.buf)
        width = n_gens * int(np.prod(self.row_shape, dtype=np.int64))
        rows = max(1, min(steps - self.drawn, _BLOCK_FLOATS // max(1, width)))
        if rows != self.buf.shape[1]:
            self.buf = np.empty((n_gens, rows, *self.row_shape))
        for gen_streams, out in zip(streams, self.buf):
            getattr(gen_streams.stream(kind), kind)(out=out)
        self.pos, self.drawn = 0, self.drawn + rows


def failing_lanes(fx: np.ndarray, X: np.ndarray) -> Optional[np.ndarray]:
    """The divergence test of every lane: None when all pass, else the failing mask.

    Lane i passes while |f(x_i)| <= DIVERGENCE_LIMIT and ||x_i||^2 <=
    DIVERGENCE_LIMIT^2. One sum bounds every lane at once; only when it fails
    is each lane tested (NaN fails every comparison, so both tests catch it).
    """
    if fx @ fx + np.vdot(X, X) <= _HALF_LIMIT_SQ:
        return None
    bad = ~((np.abs(fx) <= DIVERGENCE_LIMIT) & (np.vecdot(X, X) <= _LIMIT_SQ))
    return bad if bad.any() else None


class _LaneStats:
    """Per-slot mean and SE over the lanes, and each lane's monotone-gap test.

    Slots arrive in blocks of a (slots x lanes) buffer. Each block is folded
    lane by lane in lane order with Welford's update, the same arithmetic as
    adding the repetitions' traces one after another.
    """

    def __init__(self, n_rec: int, lanes: int):
        self.count = np.zeros(n_rec, dtype=np.int64)
        self.mean = np.zeros((2, n_rec))
        self.m2 = np.zeros((2, n_rec))
        self.rising = np.ones(lanes, dtype=bool)  # no decrease of the gap so far
        self.first = self.last = None

    def fold(self, b0: int, F: np.ndarray, GN: np.ndarray,
             length: np.ndarray) -> None:
        """Fold slots b0 .. b0+len(F)-1; lane i records length[i] slots in all."""
        for lane, n in enumerate(np.clip(length - b0, 0, len(F))):
            s = slice(b0, b0 + n)
            c = self.count[s]
            c += 1
            for row, vals in enumerate((F[:n, lane], GN[:n, lane])):
                mean = self.mean[row, s]
                delta = vals - mean
                mean += delta / c
                self.m2[row, s] += delta * (vals - mean)
        # columns of lanes that stopped early hold junk past their length;
        # only completed lanes read `rising`
        if self.first is None:
            self.first = F[0].copy()
        else:
            self.rising &= F[0] >= self.last
        self.rising &= (np.diff(F, axis=0) >= 0).all(axis=0)
        self.last = F[-1].copy()


def _run_lanes(p: Problem, o: BiasedOracle, sched: StepSchedule, T: int,
               seed: int, x0: Optional[np.ndarray], rngs: list,
               keep_traces: Optional[bool]) -> RepeatedRuns:
    """Run one lane per generator in `rngs` for T steps from x0, in lockstep.

    Lane i is row i of the state matrix X and draws only from rngs[i]. Every
    step passes the live rows through `o.query_batch`, `p.value_many` and, at
    recorded iterations, `p.grad_many`. A lane whose iterate fails the
    divergence test leaves the live set with a partial trace; a completed
    lane whose gap only ever increased is flagged `monotone-increase`.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    sched.check_length(T)
    if x0 is None:
        if p.default_x0 is None:
            raise ValueError(f"problem {p.name} has no default x0; pass one")
        x0 = p.default_x0
    x0 = np.array(x0, dtype=float)
    if x0.shape != (p.dim,):
        raise ValueError(f"x0 must have shape ({p.dim},)")

    lanes = len(rngs)
    grid = _record_grid(T)
    n_rec = len(grid)
    if keep_traces is None:
        keep_traces = lanes * n_rec <= KEEP_TRACES_LIMIT
    block = n_rec if keep_traces else max(1, min(n_rec, _STREAM_BLOCK // lanes))
    F = np.empty((block, lanes))   # f(x), then f(x) - f*, of each slot and lane
    GN = np.empty((block, lanes))  # ||grad f(x)||^2
    stats = _LaneStats(n_rec, lanes)
    length = np.full(lanes, n_rec)  # slots each lane records
    stopped = {}                    # lane -> (reason, iteration)
    final_x = np.empty((lanes, p.dim))

    query, value_many, grad_many = o.query_batch, p.value_many, p.grad_many
    f_star = p.f_star or 0.0
    dense = n_rec == T + 1  # every iterate is recorded
    X = np.tile(x0, (lanes, 1))
    live = np.arange(lanes)  # the lane of each row of X
    rng = LaneStreams(rngs, T)
    slot = b0 = 0

    def fold() -> None:
        F[:slot - b0] -= f_star
        stats.fold(b0, F[:slot - b0], GN[:slot - b0], length)

    # a failing lane is classified and dropped below, so its overflow or
    # NaN arithmetic needs no warning
    with np.errstate(over="ignore", invalid="ignore"):
        fx = value_many(X)
        # one pass per iterate x_0 .. x_T; the last one takes no step
        for t, gamma in enumerate(itertools.chain(sched.steps(T), [None])):
            if dense or t == grid[slot]:
                G = grad_many(X)
                if len(live) == lanes:
                    F[slot - b0] = fx
                    np.vecdot(G, G, out=GN[slot - b0])
                else:
                    F[slot - b0, live] = fx
                    GN[slot - b0, live] = np.vecdot(G, G)
                slot += 1
                if slot - b0 == block:
                    fold()
                    b0 = slot
            if gamma is None:
                break
            X -= gamma * query(X, rng)
            fx = value_many(X)
            bad = failing_lanes(fx, X)
            if bad is not None:
                for i in np.flatnonzero(bad):
                    stopped[int(live[i])] = (_divergence_reason(fx[i], X[i]), t + 1)
                    final_x[live[i]] = X[i]
                    length[live[i]] = slot
                ok = ~bad
                X, fx, live = X[ok], fx[ok], live[ok]
                if not len(live):
                    break
                rng.rows = live
        if slot > b0:
            fold()
        final_x[live] = X
        rising = stats.rising & (stats.last > stats.first)

    stepsizes = np.full(n_rec, np.nan)
    stepsizes[:-1] = sched.values[0] if sched.kind == "constant" \
        else np.asarray(sched.values)[grid[:-1]]
    fingerprint = {
        "problem": p.name, "oracle": o.name, "bounds": o.bounds.as_dict(),
        "schedule": sched.describe(), "T": T, "seed": int(seed),
    }
    diverged, traces = [], [] if keep_traces else None
    for lane in range(lanes):
        reason, iteration = stopped.get(lane, (None, T))
        if reason is None and rising[lane]:
            reason = "monotone-increase"
        if reason is not None:
            diverged.append(Divergence(lane, reason, iteration))
        if keep_traces:
            n = length[lane]
            traces.append(RunTrace(
                t=grid[:n], f_gap=F[:n, lane].copy(),
                grad_norm_sq=GN[:n, lane].copy(), stepsizes=stepsizes[:n],
                final_x=final_x[lane], status="completed" if reason is None
                else "diverged", reason=reason, fingerprint=dict(fingerprint)))

    count = stats.count
    keep = count > 0
    with np.errstate(invalid="ignore", divide="ignore"):
        se = np.where(count > 1, np.sqrt(stats.m2 / np.maximum(count - 1, 1)
                                         / np.maximum(count, 1)), 0.0)
    return RepeatedRuns(
        t=grid[keep],
        mean_f_gap=stats.mean[0, keep], se_f_gap=se[0, keep],
        mean_grad_norm_sq=stats.mean[1, keep], se_grad_norm_sq=se[1, keep],
        count=count[keep], reps=lanes, diverged_reps=diverged, traces=traces,
    )


def sgd_run(p: Problem, o: BiasedOracle, sched: StepSchedule, T: int,
            seed: int, x0: Optional[np.ndarray] = None,
            rng: Optional[np.random.Generator] = None) -> RunTrace:
    """Run x_{t+1} = x_t - gamma_t * g_t for T steps from x0: the one-lane engine.

    Bit-deterministic given (problem, oracle, schedule, T, seed, x0); `rng`
    defaults to `stream(seed)`. Draws are read ahead in blocks
    (`LaneStreams`), so a passed `rng` is advanced in whole blocks, past the
    draws the run used; a second draw kind draws from a jumped copy of it,
    which does not advance it. A non-finite or overflowing iterate stops the
    run early with a partial trace; a run whose gap only ever increases is
    also flagged as diverged.
    """
    rng = stream(seed) if rng is None else rng
    return _run_lanes(p, o, sched, T, seed, x0, [rng], keep_traces=True).traces[0]


def sgd_run_repeated(p: Problem, o: BiasedOracle, sched: StepSchedule, T: int,
                     reps: int, seed: int, x0: Optional[np.ndarray] = None,
                     keep_traces: Optional[bool] = None) -> RepeatedRuns:
    """Independent repetitions, stepped together as the lanes of one engine run.

    Rep i draws from `stream(seed, i)`, exactly as `sgd_run(..., rng=stream(seed,
    i))` would, so its trace does not depend on `reps`. Means and standard
    errors are accumulated per recorded iteration (Welford, in rep order);
    beyond KEEP_TRACES_LIMIT recorded values the traces are not kept and the
    aggregate is streamed in blocks, so memory stays bounded.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    return _run_lanes(p, o, sched, T, seed, x0,
                      [stream(seed, rep) for rep in range(reps)], keep_traces)


def uniform_random_iterate(trace: RunTrace, rng: np.random.Generator) -> int:
    """Index of a uniformly random recorded iterate among t = 0 .. T-1."""
    n = len(trace.t) - 1
    if n < 1:
        return 0
    return int(rng.integers(0, n))
