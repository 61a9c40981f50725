"""The lane-batched SGD engine with trace recording.

Repetitions run as the rows ("lanes") of one state matrix, stepped together
through the row forms of the oracle and the problem. Each lane draws only
from its own Philox stream, the n-th draw of a step from its copy jumped n
times (`_rng.DrawStreams`), read ahead in blocks, so its trace does not
depend on the lanes that run beside it; `sgd_run` is the one-lane case.
`_Engine` is the one step loop: the repeated runs here and the stepsize
search in `tuning` are its consumers, and several runs on one problem step
together as its members, contiguous row blocks of one matrix, whose oracle
chains run each stage they share once per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple, Optional

import numpy as np

from ._rng import generator_at, stream
from .oracles import BiasedOracle
from .problems import Problem

# beyond this many iterations traces are thinned to logarithmic checkpoints
FULL_TRACE_LIMIT = 1_000_000
# an iterate with |f| or ||x|| beyond this (or not finite) ends the run
DIVERGENCE_LIMIT = 1e12
_LIMIT_SQ = DIVERGENCE_LIMIT * DIVERGENCE_LIMIT
_HALF_LIMIT_SQ = _LIMIT_SQ / 2
# repeated runs keep every trace up to this many recorded values per array;
# beyond it, and in a batch of runs (`sgd_run_repeated_many` without
# traces), the aggregate is streamed through blocks of _STREAM_BLOCK values
# (2 MB per channel)
KEEP_TRACES_LIMIT = 5_000_000
_STREAM_BLOCK = 250_000
# `_Pull` reads a draw kind ahead in blocks of this many floats
# over all its generators (64 KiB), or one row per generator when wider
_BLOCK_FLOATS = 8_192


@dataclass(frozen=True)
class StepSchedule:
    """The constant stepsize gamma of every step of a run.

    The paper's guarantees hold for a constant gamma <= 1/((M+1)L), in the
    smooth and the PL regime alike; gamma must be positive and finite.
    """

    gamma: float

    def __post_init__(self):
        if not 0.0 < self.gamma < np.inf:
            raise ValueError(f"stepsize must be positive and finite, got {self.gamma}")

    @staticmethod
    def constant(gamma: float) -> "StepSchedule":
        return StepSchedule(float(gamma))


def _thinned_grid(T: int, dense_to: int, log_from: int, n_log: int) -> np.ndarray:
    """Iterations of 0..T to record: all when T <= dense_to, else every t <=
    log_from, then n_log log-spaced ones from log_from to T, T included."""
    if T <= dense_to:
        return np.arange(T + 1)
    tail = np.geomspace(log_from, T, n_log).astype(np.int64)
    return np.unique(np.concatenate([np.arange(log_from + 1), tail, [T]]))


def _record_grid(T: int) -> np.ndarray:
    """Iteration indices to record: everything, or log-thinned checkpoints."""
    return _thinned_grid(T, FULL_TRACE_LIMIT, 1024, 99_000)


@dataclass
class RunTrace:
    """Per-iteration record of one SGD run.

    `t` holds the recorded iteration indices (0 .. T for desk-scale runs);
    `f_gap` is f(x_t) - f*, `grad_norm_sq` is ||grad f(x_t)||^2, `final_x`
    the last iterate. A diverged run carries the partial trace up to its
    last finite iterate.
    """

    t: np.ndarray
    f_gap: np.ndarray
    grad_norm_sq: np.ndarray
    final_x: np.ndarray
    status: str  # completed | diverged
    reason: Optional[str]  # non-finite | overflow | monotone-increase

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

    def tail_mean_f_gap(self) -> float:
        """Mean f_gap over the last tenth of the recorded iterations."""
        n = len(self.t)
        k = max(1, int(np.ceil(0.1 * n)))
        return float(np.mean(self.mean_f_gap[n - k:]))


class _Pull:
    """One draw's read-ahead over copies of `gens` jumped `jumps` times (the
    draw's slot): each `next()` gives every generator's next row of `kind`,
    of shape `row_shape`, as `now`, a view of its block. `t` is the step a
    node last advanced it at.

    One call per generator fills the next B rows, one row per step, with B
    sized to _BLOCK_FLOATS over all generators (one row when wider), so a
    generator is advanced in whole blocks. One (B, d) draw gives the values
    of B draws of d, so B changes no value.

    `prepared(prep)` is `now` under `prep` (`oracles.draw`): a prep is
    applied once per block, row-wise, into a block of its own made on its
    first use and refilled in place.
    """

    def __init__(self, gens: list, kind: str, jumps: int, row_shape: tuple):
        self.gens = [generator_at(g, g.bit_generator.state, jumps) for g in gens]
        self.kind, self.t = kind, None
        width = len(gens) * int(np.prod(row_shape, dtype=np.int64))
        rows = max(1, _BLOCK_FLOATS // max(1, width))
        self.buf = np.empty((len(gens), rows, *row_shape))
        self.flat = self.buf.reshape(-1, *row_shape)  # generator-major rows
        self.preps = {}  # prep -> its rows of `flat`
        self.pos = rows  # the block's next row

    def next(self) -> np.ndarray:
        if self.pos == self.buf.shape[1]:
            for g, out in zip(self.gens, self.buf):
                getattr(g, self.kind)(out=out)
            for prep, out in self.preps.items():
                out[...] = prep(self.flat)
            self.pos = 0
        self.pos += 1
        self.now = self.buf[:, self.pos - 1]
        return self.now

    def prepared(self, prep) -> np.ndarray:
        out = self.preps.get(prep)
        if out is None:
            out = self.preps[prep] = prep(self.flat)
        return out[self.pos - 1::self.buf.shape[1]]  # each generator's row


class _LaneStats:
    """The repeated runs' consumer: per-slot mean and SE over the lanes (Welford,
    lane by lane in lane order, as if adding the traces one after another),
    each lane's divergence and monotone-gap test, and with `keep_traces` the
    traces themselves: then its buffers hold every slot. `stop` leaves the
    `RepeatedRuns` in `out`.
    """

    target, grad_norms, group = None, True, 1

    def __init__(self, grid: np.ndarray, T: int, lanes: int, dim: int,
                 keep_traces: bool):
        n_rec = len(grid)
        self.rec_t, self.T = grid, T
        self.grid = None if n_rec == T + 1 else grid  # None: every iterate
        self.floats = None if keep_traces else _STREAM_BLOCK
        self.length = np.full(lanes, n_rec)  # slots each lane records
        self.stopped = {}                    # lane -> (reason, iteration)
        self.final_x = np.empty((lanes, dim))
        self.count = np.zeros(n_rec, dtype=np.int64)
        self.mean = np.zeros((2, n_rec))
        self.m2 = np.zeros((2, n_rec))
        self.rising = np.ones(lanes, dtype=bool)  # no decrease of the gap so far
        self.first = self.last = None

    def fold(self, b0: int, B: np.ndarray, lanes) -> None:
        """Fold B's slots, b0 on, of both channels (B[0] the f gaps, B[1]
        ||grad f||^2); lane i records length[i] slots in all."""
        F = B[0]
        for lane, n in enumerate(np.clip(self.length - b0, 0, len(F))):
            s = slice(b0, b0 + n)
            c = self.count[s]
            c += 1
            vals, mean = B[:, :n, lane], self.mean[:, s]
            delta = vals - mean
            mean += delta / c
            self.m2[:, s] += delta * (vals - mean)
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

    def stop(self, lanes: np.ndarray, X: np.ndarray) -> None:
        self.final_x[lanes] = X
        with np.errstate(invalid="ignore"):
            rising = self.rising & (self.last > self.first)
        diverged, traces = [], [] if self.floats is None else None
        for lane, n in enumerate(self.length):
            reason, iteration = self.stopped.get(lane, (None, self.T))
            if reason is None and rising[lane]:
                reason = "monotone-increase"
            if reason is not None:
                diverged.append(Divergence(lane, reason, iteration))
            if traces is not None:
                traces.append(RunTrace(
                    t=self.rec_t[:n], f_gap=self.B[0, :n, lane].copy(),
                    grad_norm_sq=self.B[1, :n, lane].copy(),
                    final_x=self.final_x[lane], status="completed" if reason is None
                    else "diverged", reason=reason))
        count = self.count
        keep = count > 0
        with np.errstate(invalid="ignore", divide="ignore"):
            se = np.where(count > 1, np.sqrt(self.m2 / np.maximum(count - 1, 1)
                                             / np.maximum(count, 1)), 0.0)
        self.out = RepeatedRuns(
            t=self.rec_t[keep],
            mean_f_gap=self.mean[0, keep], se_f_gap=se[0, keep],
            mean_grad_norm_sq=self.mean[1, keep], se_grad_norm_sq=se[1, keep],
            count=count[keep], reps=len(self.length), diverged_reps=diverged,
            traces=traces)


class _Member:
    """One run of an engine call: the oracle chain of `o`, its consumer
    `sink`, and its stepsize matrix `gamma`, the (lanes, 1) column passed in
    repeated over `width` columns (numpy multiplies full shapes faster)."""

    def __init__(self, o: BiasedOracle, sink, gamma: np.ndarray, width: int):
        self.o, self.sink, self.n = o, sink, len(gamma)
        self.gamma = np.repeat(gamma, width, axis=1)
        self.live = np.arange(self.n)  # the lane of each of its rows
        self.sl = self.X = None        # its rows of the engine's state matrix
        self.b0 = 0                    # its slots from b0 on are not folded yet
        self.node = None               # its chain's last stage; None once stopped


class _Node:
    """A stage run once per step over the rows of the members whose chains
    share it, `members[0]`'s block to `members[-1]`'s; `src` selects them
    from its parent's rows (from the state matrix, for a first stage).

    The node is its stage's `rng`. Its draws in step `t` take the slots from
    `slot` on, its parent's slot after the parent ran (0 for a first stage):
    a draw takes, for each of its rows, that row's generator's row of the
    `_Pull` in `pulls` for (kind, slot, row shape), made on the first draw
    of it (over `gens`, jumped `slot` times) and advanced by the first node
    to draw it in a step, or that row of the pull's `prepared(prep)` for a
    prepared draw; a draw that step 0 did not make raises (`Stage`).
    """

    def __init__(self, fn, parent, gens: list, pulls: dict, order: int,
                 key=None):
        self.fn, self.parent, self.gens, self.pulls = fn, parent, gens, pulls
        self.order, self.key, self.members, self.rows = order, key, [], None

    def _draw(self, kind: str, size, prep=None) -> np.ndarray:
        key, self.slot = (kind, self.slot, tuple(size[1:])), self.slot + 1
        pull = self.pulls.get(key)
        if pull is None:
            if self.t:
                raise ValueError(f"{kind} draws rows of shape {key[2]}, unlike step 0")
            pull = self.pulls[key] = _Pull(self.gens, *key)
        if pull.t != self.t:
            pull.t = self.t
            pull.next()
        now = pull.now if prep is None else pull.prepared(prep)
        return now.take(self.rows, axis=0)

    def standard_normal(self, size) -> np.ndarray:
        return self._draw("standard_normal", size)

    def random(self, size) -> np.ndarray:
        return self._draw("random", size)

    def prepared(self, kind: str, size, prep) -> np.ndarray:
        return self._draw(kind, size, prep)


def _passes(fx: np.ndarray, X: np.ndarray) -> np.ndarray:
    """The rows passing the divergence test: |f| <= DIVERGENCE_LIMIT and
    ||x||^2 <= DIVERGENCE_LIMIT^2 (NaN fails both)."""
    return (np.abs(fx) <= DIVERGENCE_LIMIT) & (np.vecdot(X, X) <= _LIMIT_SQ)


class _Engine:
    """The one step loop: x_{t+1} = x_t - gamma * g_t on every lane, up to T
    steps from x0, which must pass the divergence test, by oracles of the
    problem's dimension; `run()` returns each run's `sink.out`, in run order.

    Each (oracle, sink, gamma) in `runs` is a member (`_Member`): a contiguous
    block of rows of one state matrix, stepped in place by its oracle chain
    times the stepsize matrix made from its (lanes, 1) column `gamma`, whose
    rows drop with its lanes. Lane i of every member draws from
    gens[i % len(gens)], as its lanes come in blocks of one per generator
    (the reps of a run, or of each grid stepsize). Members share their
    chains' stages up to the first that differs (`Stage.key`), and the stage
    nodes share one dict of pulls over `gens`, so stages share a draw
    wherever the (kind, slot, row shape) matches. Each step runs every node
    once; a member steps by its rows of its chain's last stage, and its
    values do not depend on the others. `value_many`, the divergence test,
    the f-value writes and the target test run once over all rows.

    The sink protocol. The sinks are of one kind, so the first sink's `grid`,
    `target`, `floats`, `grad_norms` and `group` hold for all: a lane failing
    the divergence test takes its group (the lanes with its i // group) out.
    The members share the (channels x slots x lanes) record block `B`:
    channel 0 holds f, and channel 1 ||grad f||^2 with `grad_norms`, whose
    gradients a first stage keyed by `p.grad_many` takes at that step; each
    sink gets its columns as its `B`. A channel holds `floats` floats, or
    every slot when None; slot j is iteration `grid[j]` (j when None). A
    sink's `lanes` are its member's live lanes, which index those columns.
    `sink.fold(b0, B, lanes)` gets the slots from b0 on, f less f*, when the
    block is full, before lanes drop and when the member stops.
    `sink.drop(t, slot, lanes, X, fx)` gets the lanes leaving at iterate t.
    With `target` set, an iterate whose smallest f is at most it asks
    `sink.hit(t, fx, lanes)` whether to stop there. A member stops on a hit,
    when its last lane leaves, or at T: `sink.stop(lanes, X)` gets its live
    lanes and their rows, and leaves the run's result in `sink.out`. A stage
    that raises ends the members under it, with its exception as their
    `sink.out`, while the others step on; a raise elsewhere propagates.
    """

    def __init__(self, p: Problem, T: int, x0: Optional[np.ndarray], gens: list,
                 runs: list):
        if x0 is None and p.default_x0 is None:
            raise ValueError(f"problem {p.name} has no default x0; pass one")
        x0 = np.array(p.default_x0 if x0 is None else x0, dtype=float)
        if x0.shape != (p.dim,):
            raise ValueError(f"x0 must have shape ({p.dim},)")
        for o, _, _ in runs:
            if o.dim != p.dim:
                raise ValueError(f"oracle {o.name} has dimension {o.dim}, "
                                 f"problem {p.name} {p.dim}")
        self.p, self.T, self.sinks = p, T, [sink for _, sink, _ in runs]
        if not runs:
            return
        lanes = sum(len(gamma) for _, _, gamma in runs)
        self.X = np.tile(x0, (lanes, 1))
        with np.errstate(over="ignore", invalid="ignore"):
            self.fx = p.value_many(self.X)
            if not _passes(self.fx, self.X).all():
                raise ValueError("x0 fails the divergence test: it must be finite, "
                                 f"with |f(x0)| and ||x0|| at most {DIVERGENCE_LIMIT:g}")
        first = runs[0][1]  # one sink kind: its record policy holds for all
        n_slots = T + 1 if first.grid is None else len(first.grid)
        self.block = n_slots if first.floats is None \
            else max(1, min(n_slots, first.floats // lanes))
        self.B = np.empty((1 + first.grad_norms, self.block, lanes))
        nodes, index, pulls = [], {}, {}  # the stage nodes, parents first
        members = [_Member(o, sink, gamma, p.dim) for o, sink, gamma in runs]
        for m in members:
            m.path = []
            for s in m.o._query_batch:
                up = m.path[-1] if m.path else None
                if (up, s.key) not in index:
                    index[up, s.key] = _Node(s.fn, up, gens, pulls, len(nodes), s.key)
                    nodes.append(index[up, s.key])
                m.path.append(index[up, s.key])
            m.order = [nd.order for nd in m.path]
        # in this order a shared stage's rows are contiguous
        self.members = sorted(members, key=attrgetter("order"))
        for m in self.members:
            m.node = m.path[-1]
            for nd in m.path:
                nd.members.append(m)
        self.nodes, self.n_gens, self.live = nodes, len(gens), np.arange(lanes)
        self.slot = self.base = 0  # the next slot, and the slot of block row 0
        self._shrink(np.ones(lanes, dtype=bool))
        for m in self.members:
            m.sink.B = self.B[:, :, m.sl]

    def _fold(self, m: _Member) -> None:
        if self.slot > m.b0:
            Bm = m.sink.B[:, m.b0 - self.base:self.slot - self.base]
            Bm[0] -= self.p.f_star or 0.0
            m.sink.fold(m.b0, Bm, m.live)
            m.b0 = self.slot

    def _stop(self, m: _Member, Xm: np.ndarray) -> None:
        self._fold(m)
        m.sink.stop(m.live, Xm)
        m.node = None

    def _shrink(self, ok: np.ndarray) -> tuple:
        """Keep the rows `ok` keeps and the members that still run; each live
        stage node gets its rows and their generators. Returns what `run` reads."""
        self.X, self.fx, self.G = self.X[ok], self.fx[ok], None
        live = self.live = self.live[ok]  # the column of each row of X
        # a slice writes faster, and the live lanes often stay contiguous
        self.cols = slice(live[0], live[-1] + 1) \
            if len(live) and live[-1] - live[0] == len(live) - 1 else live
        self.members, row = [m for m in self.members if m.node is not None], 0
        for m in self.members:
            m.sl, row = slice(row, row + m.n), row + m.n
            m.X = self.X[m.sl]
        for nd in self.nodes:
            nd.members = [m for m in nd.members if m.node is not None]
        self.nodes = [nd for nd in self.nodes if nd.members]
        for nd in self.nodes:
            lo, hi = nd.members[0].sl.start, nd.members[-1].sl.stop
            up = 0 if nd.parent is None else nd.parent.lo
            nd.src, nd.lo = slice(lo - up, hi - up), lo
            nd.rows = np.concatenate([m.live % self.n_gens for m in nd.members])
        for m in self.members:
            m.src = slice(m.sl.start - m.node.lo, m.sl.stop - m.node.lo)
        return self.X, self.fx, self.cols, self.members, self.nodes

    def run(self) -> list:
        if not self.sinks:
            return []
        first, T, block, B = self.sinks[0], self.T, self.block, self.B
        grid, target, grad_norms = first.grid, first.target, first.grad_norms
        value_many, grad_many = self.p.value_many, self.p.grad_many
        X, fx, cols, members, nodes = self.X, self.fx, self.cols, self.members, self.nodes
        # a failing lane is dropped below, so its overflow or NaN arithmetic
        # needs no warning
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(T + 1):  # one pass per iterate; the last takes no step
                self.G = None  # grad_many(X) when recorded at this iterate
                if grid is None or t == grid[self.slot]:
                    B[0, self.slot - self.base, cols] = fx
                    if grad_norms:
                        self.G = G = grad_many(X)
                        B[1, self.slot - self.base, cols] = np.vecdot(G, G)
                    self.slot += 1
                # the target test comes first, so that an iterate T at the
                # target is a hit
                if target is not None and fx.min() <= target:
                    ok = np.ones(len(X), dtype=bool)
                    for m in members:
                        fm = fx[m.sl]
                        if fm.min() <= target and m.sink.hit(t, fm, m.live):
                            self._stop(m, m.X)
                            ok[m.sl] = False
                    if not ok.all():
                        X, fx, cols, members, nodes = self._shrink(ok)
                if t == T or not members:
                    break
                if self.slot - self.base == block:
                    for m in members:
                        self._fold(m)
                    self.base = self.slot
                failed = False
                for nd in nodes:
                    if nd.members[0].node is None:  # under a failed stage
                        continue
                    up = nd.parent
                    nd.t, nd.slot = t, 0 if up is None else up.slot
                    try:
                        if up is None and self.G is not None and nd.key is grad_many:
                            nd.out = self.G[nd.src]
                        else:
                            nd.out = nd.fn((X if up is None else up.out)[nd.src], nd)
                    except Exception as exc:  # noqa: BLE001 - its members fail alone
                        exc = exc.with_traceback(None)  # which would keep this frame
                        for m in nd.members:
                            m.sink.out, m.node, failed = exc, None, True
                if failed:
                    # each live member keeps its offset in its last stage's
                    # rows, since the members that end there come first in them
                    X, fx, cols, members, nodes = self._shrink(np.repeat(
                        [m.node is not None for m in members], [m.n for m in members]))
                    if not members:
                        break
                for m in members:
                    m.X -= m.gamma * m.node.out[m.src]
                self.fx = fx = value_many(X)
                # one sum bounds every lane's divergence test
                if fx @ fx + np.vdot(X, X) <= _HALF_LIMIT_SQ:
                    continue
                ok = _passes(fx, X)
                if ok.all():
                    continue
                for m in members:
                    keep = ok[m.sl]
                    if keep.all():
                        continue
                    keep = np.repeat(keep.reshape(-1, first.group).all(axis=1),
                                     first.group)
                    ok[m.sl] = keep
                    self._fold(m)
                    bad = ~keep
                    m.sink.drop(t + 1, self.slot, m.live[bad], m.X[bad], fx[m.sl][bad])
                    m.live, m.gamma = m.live[keep], m.gamma[keep]
                    m.n = len(m.live)
                    if not m.n:
                        self._stop(m, m.X[keep])
                X, fx, cols, members, nodes = self._shrink(ok)
                if not members:
                    break
            for m in members:
                self._stop(m, m.X)
        return [sink.out for sink in self.sinks]


def _repeat(p: Problem, T: int, x0: Optional[np.ndarray], gens: list,
            runs: list, keep_traces: Optional[bool]) -> list:
    """Per (oracle, schedule) in `runs`, one lane per generator in `gens`
    taking T steps of its stepsize, in one engine run. A diverging lane
    leaves with a partial trace; a completed lane whose gap only ever
    increased is flagged `monotone-increase`."""
    if T < 1:
        raise ValueError("T must be >= 1")
    grid = _record_grid(T)
    if keep_traces is None:
        keep_traces = len(gens) * len(grid) <= KEEP_TRACES_LIMIT
    return _Engine(p, T, x0, gens, [
        (o, _LaneStats(grid, T, len(gens), p.dim, keep_traces),
         np.full((len(gens), 1), sched.gamma)) for o, sched in runs]).run()


def _raised(out):
    """`out`, unless it is the exception of a failed run: then raise it."""
    if isinstance(out, Exception):
        raise out
    return out


def rep_streams(seed: int, reps: int) -> list:
    """Rep r's generator `stream(seed, r)`, for r < reps."""
    if reps < 1:
        raise ValueError("reps must be >= 1")
    return [stream(seed, rep) for rep in range(reps)]


def sgd_run(p: Problem, o: BiasedOracle, sched: StepSchedule, T: int,
            seed: int, x0: Optional[np.ndarray] = None,
            rng: Optional[np.random.Generator] = None) -> RunTrace:
    """Run x_{t+1} = x_t - gamma * g_t for T steps from x0: the one-lane engine.

    Bit-deterministic given (problem, oracle, schedule, T, seed, x0); `rng`
    defaults to `stream(seed)`. The run draws from copies of `rng` at its
    state (a step's n-th draw from a copy jumped n times), so a passed `rng`
    is not advanced. A non-finite or overflowing iterate stops the run early
    with a partial trace; a run whose gap only ever increases is also
    flagged as diverged.
    """
    rng = stream(seed) if rng is None else rng
    run = _repeat(p, T, x0, [rng], [(o, sched)], keep_traces=True)[0]
    return _raised(run).traces[0]


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
    return _raised(sgd_run_repeated_many(p, [(o, sched)], T, reps, seed, x0,
                                         keep_traces)[0])


def sgd_run_repeated_many(p: Problem, runs: list, T: int, reps: int, seed: int,
                          x0: Optional[np.ndarray] = None,
                          keep_traces: Optional[bool] = None) -> list:
    """`sgd_run_repeated` of each (oracle, schedule) in `runs`, in one engine run.

    Each run is a member of the engine's loop (its own row block and
    schedule, on the rep streams), so its result is byte-identical to its own
    `sgd_run_repeated`, or the exception its oracle raised, which stops
    that run alone.
    """
    return _repeat(p, T, x0, rep_streams(seed, reps), runs, keep_traces)
