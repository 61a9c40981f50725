"""Per-layer tracing of the biased-sgd CLI from outside the package.

`install(tracer)` replaces the module attributes the CLI reaches the layers
through (``experiments.build_problem``, ``experiments.build_oracle``,
``optimizer.sgd_run``, ``estimators.verify_declared``, ...) with timed
wrappers, and wraps the ``Problem``, ``BiasedOracle`` and ``Compressor``
objects they return with ``dataclasses.replace``. Because the problem is
wrapped before the oracle is built, the oracle's closures call the wrapped
problem functions, and likewise for compressors inside compressed oracles.

Spans are aggregated in memory as they close (calls, inclusive time, self
time = inclusive time minus the time of child spans) and written out once,
at exit. Keeping every span would cost ~100 bytes per call, and the sweep
makes millions of calls.

Run as a script, it executes one CLI command under tracing::

    python3 perfbench/tracer.py SPANS.json -- sweep --config c.cfg --out o
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    """Aggregating span recorder: name -> calls, inclusive and self seconds."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = Counter()  # rows, bytes and other work counters
        self.open = Counter()    # how many spans of each name are open now
        self._stack = []         # [name, start, time covered by children]

    def begin(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])
        self.open[name] += 1

    def end(self) -> float:
        """Close the innermost span and return its inclusive duration."""
        name, start, child_s = self._stack.pop()
        dur = self.clock() - start
        self.calls[name] += 1
        self.total_s[name] += dur
        self.self_s[name] += dur - child_s
        self.open[name] -= 1
        if self._stack:
            self._stack[-1][2] += dur
        return dur

    def timed(self, name: str, fn, after=None):
        """`fn` wrapped in a span; `after(result, args, kwargs, dur)` may count work."""
        def wrapped(*args, **kwargs):
            self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = self.end()
            if after is not None:
                after(out, args, kwargs, dur)
            return out
        wrapped._perfbench_traced = True
        return wrapped

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "total_s": dict(self.total_s),
                "self_s": dict(self.self_s), "counts": dict(self.counts)}


def _count_rows(tracer: Tracer, key: str):
    """Counts the rows of the wrapped function's first argument."""
    def after(out, args, kwargs, dur):
        tracer.counts[key] += len(args[0])
    return after


def wrap_problem(tracer: Tracer, p):
    fields = {"value": tracer.timed("problems.value", p.value),
              "grad": tracer.timed("problems.grad", p.grad)}
    for name in ("value_many", "grad_many"):
        fn = getattr(p, name)
        if fn is not None:
            fields[name] = tracer.timed(f"problems.{name}", fn,
                                        _count_rows(tracer, f"problems.{name}.rows"))
    return dataclasses.replace(p, **fields)


def wrap_compressor(tracer: Tracer, c):
    return dataclasses.replace(
        c, apply=tracer.timed("compressors.apply", c.apply),
        apply_rows=tracer.timed("compressors.apply_rows", c.apply_rows,
                                _count_rows(tracer, "compressors.apply_rows.rows")))


_ESTIMATOR_SPANS = ("estimators.fit_oracle_bounds", "estimators.verify_declared")


def wrap_oracle(tracer: Tracer, o):
    """Timed copy of `o`; a missing batched path becomes the same loop, counted."""
    if getattr(o._query, "_perfbench_traced", False):
        return o
    import numpy as np  # after biased_sgd, so its import time is traced
    query = o._query
    many, batch = o._query_many, o._query_batch
    if many is None:
        def many(x, n, rng):
            tracer.counts["oracles.loop_fallback.calls"] += 1
            return np.stack([query(x, rng) for _ in range(n)])
    if batch is None:
        def batch(X, rng):
            tracer.counts["oracles.loop_fallback.calls"] += 1
            return np.stack([query(x, rng) for x in X])

    def after_many(out, args, kwargs, dur):
        n = int(args[1])
        tracer.counts["oracles.query_many.rows"] += n
        if any(tracer.open[s] for s in _ESTIMATOR_SPANS):
            tracer.counts["estimators.draws"] += n

    return dataclasses.replace(
        o, _query=tracer.timed("oracles.query", query),
        _query_many=tracer.timed("oracles.query_many", many, after_many),
        _query_batch=tracer.timed("oracles.query_batch", batch,
                                  _count_rows(tracer, "oracles.query_batch.rows")))


def install(tracer: Tracer) -> None:
    """Wrap the biased_sgd entry points each layer is reached through."""
    from biased_sgd import config, estimators, experiments, optimizer

    def patch(module, name, wrapper):
        setattr(module, name, wrapper(getattr(module, name)))

    def problem_builder(fn):
        inner = tracer.timed("experiments.build_problem", fn)
        return lambda *a, **k: wrap_problem(tracer, inner(*a, **k))

    def oracle_builder(fn):
        inner = tracer.timed("experiments.build_oracle", fn)

        def build(*a, **k):
            o, source = inner(*a, **k)
            return wrap_oracle(tracer, o), source
        return build

    def compressor_factory(fn):
        return lambda *a, **k: wrap_compressor(tracer, fn(*a, **k))

    def estimator(name):
        def wrapper(fn):
            inner = tracer.timed(name, fn)
            return lambda o, p, *a, **k: inner(wrap_oracle(tracer, o), p, *a, **k)
        return wrapper

    def after_sgd_run(tr, args, kwargs, dur):
        T = int(args[3])
        steps = T if tr.status == "completed" or tr.reason == "monotone-increase" \
            else int(tr.t[-1]) + 1
        tracer.counts["optimizer.lane_steps"] += steps
        tracer.counts["optimizer.diverged_reps"] += int(tr.diverged)

    def after_tune(res, args, kwargs, dur):
        reps = int(kwargs.get("reps", 3))
        best = res.best
        censored = [e.censored_at for e in res.entries if e.censored_at is not None]
        stop_t = best.iterations if best is not None else \
            (censored[0] if censored else res.max_T)
        tracer.counts["tuning.lane_steps"] += len(res.entries) * reps * stop_t
        tracer.counts["tuning.stop_t_sum"] += stop_t
        tracer.counts["tuning.censored_cells"] += int(best is None)

    def after_run_experiment(out, args, kwargs, dur):
        if tracer.open["experiments.tune_experiment"]:
            tracer.counts["experiments.race_rerun_s"] += dur

    def after_write_csv(out, args, kwargs, dur):
        tracer.counts["experiments.write_trace_csv.bytes"] += os.path.getsize(args[0])

    def after_panel_grid(svg, args, kwargs, dur):
        tracer.counts["svgplot.panel_grid.bytes"] += len(svg.encode())

    def timed(name, after=None):
        return lambda fn: tracer.timed(name, fn, after)

    patch(experiments, "build_problem", problem_builder)
    patch(experiments, "build_oracle", oracle_builder)
    for factory in ("top_k_compressor", "rand_k_compressor",
                    "rand_k_unbiased_compressor", "scale_compressor"):
        patch(experiments, factory, compressor_factory)
    patch(estimators, "fit_oracle_bounds", estimator("estimators.fit_oracle_bounds"))
    patch(estimators, "verify_declared", estimator("estimators.verify_declared"))
    patch(optimizer, "sgd_run", timed("optimizer.sgd_run", after_sgd_run))
    patch(experiments, "sgd_run_repeated", timed("optimizer.sgd_run_repeated"))
    patch(experiments, "tune_stepsize", timed("tuning.tune_stepsize", after_tune))
    patch(experiments, "run_experiment",
          timed("experiments.run_experiment", after_run_experiment))
    for name in ("sweep_experiment", "tune_experiment", "verify_experiment"):
        patch(experiments, name, timed(f"experiments.{name}"))
    patch(experiments, "write_trace_csv",
          timed("experiments.write_trace_csv", after_write_csv))
    patch(experiments, "panel_grid", timed("svgplot.panel_grid", after_panel_grid))
    patch(experiments, "parse_config", timed("config.parse_config"))
    patch(config, "parse_config", timed("config.parse_config"))


def main(argv: list) -> int:
    spans_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS.json -- <biased-sgd args>")
    tracer = Tracer()
    tracer.begin("root")
    try:
        from biased_sgd import cli
        install(tracer)
        code = cli.main(cli_args)
    finally:
        tracer.end()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.snapshot(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
