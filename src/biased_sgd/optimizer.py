"""The lane-batched SGD engine with trace recording.

Repetitions run as the rows ("lanes") of one state matrix, stepped together
through the row forms of the oracle and the problem. Each lane draws only
from its own Philox stream (one per draw kind, read ahead in blocks), so its
trace does not depend on the lanes that run beside it; `sgd_run` is the
one-lane case. `_run_lanes` is the one step loop: the repeated runs here and
the stepsize search in `tuning` are its consumers.
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


class _LaneStats:
    """The repeated runs' consumer: per-slot mean and SE over the lanes (Welford,
    lane by lane in lane order, as if adding the traces one after another),
    each lane's divergence and monotone-gap test, and with `keep_traces` the
    traces themselves: then the buffers hold every slot.
    """

    target = None

    def __init__(self, grid: np.ndarray, T: int, lanes: int, dim: int,
                 keep_traces: bool):
        n_rec = len(grid)
        self.grid = None if n_rec == T + 1 else grid  # None: every iterate
        block = n_rec if keep_traces else max(1, min(n_rec, _STREAM_BLOCK // lanes))
        self.F = np.empty((block, lanes))   # f(x), then f(x) - f*, of each slot and lane
        self.GN = np.empty((block, lanes))  # ||grad f(x)||^2
        self.length = np.full(lanes, n_rec)  # slots each lane records
        self.stopped = {}                    # lane -> (reason, iteration)
        self.final_x = np.empty((lanes, dim))
        self.count = np.zeros(n_rec, dtype=np.int64)
        self.mean = np.zeros((2, n_rec))
        self.m2 = np.zeros((2, n_rec))
        self.rising = np.ones(lanes, dtype=bool)  # no decrease of the gap so far
        self.first = self.last = None

    def fold(self, b0: int, F: np.ndarray, GN: np.ndarray, cols) -> None:
        """Fold slots b0 .. b0+len(F)-1; lane i records length[i] slots in all."""
        for lane, n in enumerate(np.clip(self.length - b0, 0, len(F))):
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

    def drop(self, t: int, slot: int, lanes: np.ndarray, X: np.ndarray,
             fx: np.ndarray) -> None:
        self.final_x[lanes], self.length[lanes] = X, slot
        for lane, f, x in zip(lanes, fx, X):
            finite = np.isfinite(f) and np.isfinite(x).all()
            self.stopped[int(lane)] = ("overflow" if finite else "non-finite", t)


def _run_lanes(p: Problem, o: BiasedOracle, T: int, x0: Optional[np.ndarray],
               gens: list, sink, gamma, rows: Optional[np.ndarray] = None,
               group: int = 1) -> tuple:
    """The one step loop: x_{t+1} = x_t - gamma * g_t on every lane, up to T steps.

    Lane i is row i of the state matrix and draws from gens[rows[i]] (gens[i]
    when `rows` is None). `gamma` is the T stepsizes of every lane, or a
    (lanes, 1) array of one constant stepsize per lane. A lane failing the
    divergence test takes its group (the lanes with its i // group) out of
    the live set.

    The consumer `sink` owns the (slots x lanes) buffer `F`, and `GN` for
    ||grad f||^2 unless it is None; slot j is iteration `sink.grid[j]` (j
    when `grid` is None). `sink.fold(b0, F, GN, cols)` gets the slots from
    b0 on, less f*, when the buffer is full, before lanes drop and at the
    end; `cols` selects the live lanes' columns. `sink.drop(t, slot, lanes,
    X, fx)` gets the lanes leaving at iterate t. With `sink.target` set, an
    iterate whose smallest f is at most it asks `sink.hit(t, fx, cols)`
    whether to stop there. Returns (live, X): the live lanes and their rows.
    """
    if x0 is None and p.default_x0 is None:
        raise ValueError(f"problem {p.name} has no default x0; pass one")
    x0 = np.array(p.default_x0 if x0 is None else x0, dtype=float)
    if x0.shape != (p.dim,):
        raise ValueError(f"x0 must have shape ({p.dim},)")

    lanes = n = len(gens) if rows is None else len(rows)
    F, GN, grid, target = sink.F, sink.GN, sink.grid, sink.target
    block, dense = len(F), grid is None
    steps = None if isinstance(gamma, np.ndarray) else iter(gamma)
    # the row map on n = len(X) rows, a frame less per step than query_batch
    query, value_many, grad_many = o._query_batch, p.value_many, p.grad_many
    f_star = p.f_star or 0.0
    X = np.tile(x0, (lanes, 1))
    live = np.arange(lanes)  # the lane of each row of X
    cols = slice(None)       # a slice, not an index array, while all run
    rng = LaneStreams(gens, T, rows)
    # slots from b0 on are not folded yet; buffer row 0 holds slot `base`
    slot = b0 = base = 0

    def fold() -> None:
        r = slice(b0 - base, slot - base)
        F[r] -= f_star
        sink.fold(b0, F[r], None if GN is None else GN[r], cols)

    # a failing lane is dropped below, so its overflow or NaN arithmetic
    # needs no warning
    with np.errstate(over="ignore", invalid="ignore"):
        fx = value_many(X)
        for t in range(T + 1):  # one pass per iterate; the last takes no step
            if dense or t == grid[slot]:
                F[slot - base, cols] = fx
                if GN is not None:
                    G = grad_many(X)
                    GN[slot - base, cols] = np.vecdot(G, G)
                slot += 1
            # the target test comes first, so that an iterate T at the
            # target is a hit
            if (target is not None and fx.min() <= target
                    and sink.hit(t, fx, cols)) or t == T:
                break
            if slot - base == block:
                fold()
                base = b0 = slot
            X -= (gamma if steps is None else next(steps)) * query(X, n, rng)
            fx = value_many(X)
            # a lane fails once |f| > DIVERGENCE_LIMIT or ||x||^2 >
            # DIVERGENCE_LIMIT^2 (NaN fails both); one sum bounds every lane
            if fx @ fx + np.vdot(X, X) <= _HALF_LIMIT_SQ:
                continue
            bad = ~((np.abs(fx) <= DIVERGENCE_LIMIT) & (np.vecdot(X, X) <= _LIMIT_SQ))
            if not bad.any():
                continue
            bad = np.repeat(bad.reshape(-1, group).any(axis=1), group)
            if slot > b0:
                fold()
                b0 = slot
            sink.drop(t + 1, slot, live[bad], X[bad], fx[bad])
            ok = ~bad
            X, fx, live = X[ok], fx[ok], live[ok]
            cols, n = live, len(live)
            if steps is None:
                gamma = gamma[ok]
            if not len(live):
                break
            rng.rows = live if rows is None else rows[live]
        if slot > b0:
            fold()
    return live, X


def _repeat(p: Problem, o: BiasedOracle, sched: StepSchedule, T: int,
            seed: int, x0: Optional[np.ndarray], rngs: list,
            keep_traces: Optional[bool]) -> RepeatedRuns:
    """One lane per generator in `rngs`, T steps of `sched` on the engine.

    A diverging lane leaves with a partial trace; a completed lane whose gap
    only ever increased is flagged `monotone-increase`.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    sched.check_length(T)
    lanes = len(rngs)
    grid = _record_grid(T)
    n_rec = len(grid)
    if keep_traces is None:
        keep_traces = lanes * n_rec <= KEEP_TRACES_LIMIT
    stats = _LaneStats(grid, T, lanes, p.dim, keep_traces)
    live, X = _run_lanes(p, o, T, x0, rngs, stats, sched.steps(T))
    stats.final_x[live] = X
    with np.errstate(invalid="ignore"):
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
        reason, iteration = stats.stopped.get(lane, (None, T))
        if reason is None and rising[lane]:
            reason = "monotone-increase"
        if reason is not None:
            diverged.append(Divergence(lane, reason, iteration))
        if keep_traces:
            n = stats.length[lane]
            traces.append(RunTrace(
                t=grid[:n], f_gap=stats.F[:n, lane].copy(),
                grad_norm_sq=stats.GN[:n, lane].copy(), stepsizes=stepsizes[:n],
                final_x=stats.final_x[lane], status="completed" if reason is None
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
    return _repeat(p, o, sched, T, seed, x0, [rng], keep_traces=True).traces[0]


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
    return _repeat(p, o, sched, T, seed, x0,
                   [stream(seed, rep) for rep in range(reps)], keep_traces)


def uniform_random_iterate(trace: RunTrace, rng: np.random.Generator) -> int:
    """Index of a uniformly random recorded iterate among t = 0 .. T-1."""
    n = len(trace.t) - 1
    if n < 1:
        return 0
    return int(rng.integers(0, n))
