"""Benchmark of the biased-sgd CLI: sweep, tune and verify workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S   # every workload

Run from the root of a checkout; the program is imported from its `src/`.
Every invocation of the CLI is a fresh process with `--workers 1` and BLAS
pinned to one thread. Outputs go to `.perfbench/`.

--trace 0 reports the end-to-end metrics: medians over the invocations that
fit in S seconds (`cpu_s`, `work_per_s`, `peak_rss_mb`) and over several
fresh set-up processes (`setup_s`). Times are in reference seconds: on a
shared host one core's speed changes by up to 2x within seconds, so the
benchmark and its children are pinned to one CPU, a reference loop of small
Python and numpy chunks runs in a thread beside each child on that CPU, and
the child's CPU time is scaled by REF_CHUNK_S over the CPU time a reference
chunk took meanwhile. Both see the same mix of fast and slow moments, so the
scaled time stays put while the raw time (also recorded) moves. Slow moments
slow kinds of work by different factors, so each workload is scaled by the
chunk kind that moves most like it (see workloads.py); set-up, which is
mostly imports, by the pure-Python chunk. --trace 1 reports the per-layer metrics:
layer microbenchmarks, then untraced and traced invocations in alternation,
which give the tracing overhead and, as medians over the traced ones, the
per-layer counts and self times.

Every invocation's outputs are checked (see workloads.py) and digested; all
invocations of one seed, traced or not, must agree on the digest. The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from workloads import DIM, WORKLOADS, Outcome, Workload

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
BLAS_THREADS = "1"
MIN_INVOCATIONS = 3
HARD_LIMIT_S = 170.0  # a run ends by then even if the program is very slow
# a reference second is the time in which a reference chunk takes REF_CHUNK_S
REF_CHUNK_S = 1e-3
_REF_A = np.arange(DIM * DIM, dtype=float).reshape(DIM, DIM) / (DIM * DIM)


def _steps_chunk() -> None:
    """Small numpy steps at d = 10, like the SGD step loop's."""
    x = np.ones(DIM)
    for _ in range(400):
        x = x - 1e-4 * (_REF_A @ x)


def _python_chunk() -> None:
    """Interpreted integer arithmetic."""
    s = 0
    for i in range(10_000):
        s += i * i % 7


REFERENCES = {"steps": _steps_chunk, "python": _python_chunk}

END_TO_END_UNITS = {"cpu_s": "s", "setup_s": "s", "work_per_s": "1/s",
                    "peak_rss_mb": "MB"}

# per-layer metric -> unit; values come from layer_metrics() and micro.py
PER_LAYER_UNITS = {
    **{f"problems.{fn}.{stat}": unit for fn in ("value", "grad")
       for stat, unit in (("calls", "count"), ("self_s", "s"))},
    **{f"problems.{fn}.{stat}": unit for fn in ("value_many", "grad_many")
       for stat, unit in (("rows", "count"), ("self_s", "s"))},
    "problems.calls_per_lane_step": "ratio",
    "oracles.query.calls": "count", "oracles.query.self_s": "s",
    **{f"oracles.{fn}.{stat}": unit for fn in ("query_batch", "query_many")
       for stat, unit in (("calls", "count"), ("rows", "count"), ("self_s", "s"))},
    "oracles.loop_fallback.calls": "count",
    "compressors.apply.calls": "count", "compressors.apply.self_s": "s",
    "compressors.apply_rows.calls": "count", "compressors.apply_rows.rows": "count",
    "compressors.apply_rows.self_s": "s",
    "optimizer.sgd_run.calls": "count", "optimizer.sgd_run.self_s": "s",
    "optimizer.sgd_run_repeated.self_s": "s", "optimizer.lane_steps": "count",
    "optimizer.us_per_lane_step": "us", "optimizer.diverged_reps": "count",
    "tuning.tune_stepsize.calls": "count", "tuning.tune_stepsize.self_s": "s",
    "tuning.lane_steps": "count", "tuning.stop_t_sum": "count",
    "tuning.censored_cells": "count",
    "estimators.verify_declared.self_s": "s",
    "estimators.fit_oracle_bounds.calls": "count",
    "estimators.fit_oracle_bounds.self_s": "s", "estimators.draws": "count",
    "experiments.build_oracle.calls": "count", "experiments.build_oracle.self_s": "s",
    "experiments.run_experiment.calls": "count", "experiments.race_rerun_s": "s",
    "experiments.write_trace_csv.calls": "count",
    "experiments.write_trace_csv.bytes": "B",
    "experiments.write_trace_csv.self_s": "s",
    "experiments.duplicate_cell_frac": "ratio",
    "svgplot.panel_grid.calls": "count", "svgplot.panel_grid.bytes": "B",
    "svgplot.panel_grid.self_s": "s",
    "config.parse_config.calls": "count", "config.parse_config.self_s": "s",
    "trace_overhead_frac": "ratio", "trace.coverage_frac": "ratio",
    **{f"micro.{case}.{stat}": "us" for case in (
        "problems.value", "problems.grad", "oracles.query.exact",
        "oracles.query.noise", "oracles.query.rand_k_noise",
        "oracles.query.top_k_noise", "oracles.query.gaussian_smoothing",
        "oracles.query_batch.rows60", "oracles.query_batch.rows1134",
        "oracles.query_many.rows20000", "optimizer.sgd_run.per_step")
       for stat in ("median_us", "p90_us")},
}


@dataclass
class Child:
    wall_s: float
    cpu_s: float           # user + system time of the child
    code: int
    peak_rss_mb: float
    log: Path
    # reference kind -> CPU time per chunk while the child ran
    ref_chunk_s: Optional[dict]

    def ref_seconds(self, cpu_s: float, kind: str) -> float:
        """cpu_s (spent while this child ran) in `kind` reference seconds."""
        return cpu_s * REF_CHUNK_S / self.ref_chunk_s[kind]


class Reference(threading.Thread):
    """Runs each kind of reference chunk in turn until stopped; measures
    the CPU time per chunk of each."""

    def __init__(self):
        super().__init__(daemon=True)
        self.stopped = threading.Event()
        self.chunks = 0
        self.cpu_s = dict.fromkeys(REFERENCES, 0.0)

    def run(self) -> None:
        while not self.stopped.is_set() or self.chunks == 0:
            for kind, chunk in REFERENCES.items():
                t0 = time.thread_time()
                chunk()
                self.cpu_s[kind] += time.thread_time() - t0
            self.chunks += 1

    def stop(self) -> dict:
        self.stopped.set()
        self.join()
        return {kind: s / self.chunks for kind, s in self.cpu_s.items()}


def pin_to_one_cpu() -> None:
    """Run this process and the children it starts on a single CPU."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_child(argv: list, log: Path, timeout: float,
              reference: bool = False) -> Child:
    """Run argv to completion, or kill it after `timeout` seconds.

    Returns the wall time from spawn to exit, the child's CPU time and peak
    RSS and, with `reference`, the reference's CPU time per chunk while the
    child ran beside it.
    """
    ref = Reference() if reference else None
    with open(log, "wb") as fh:
        if ref:
            ref.start()
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            wall = time.perf_counter() - t0
            ref_chunk_s = ref.stop() if ref else None
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                 code=proc.returncode, peak_rss_mb=usage.ru_maxrss / 1024.0,
                 log=log, ref_chunk_s=ref_chunk_s)


def last_json(log: Path) -> dict:
    return json.loads(log.read_text().strip().splitlines()[-1])


@dataclass
class Invocation:
    child: Child
    outcome: Outcome
    traced: bool
    spans: Optional[dict]  # the tracer's aggregates, when traced and exit 0


class Runner:
    """Runs one workload's invocations in its own scratch directory."""

    def __init__(self, workload: Workload, seed: int, hard_deadline: float,
                 reference: bool = False):
        self.w, self.seed = workload, seed
        self.hard_deadline = hard_deadline
        self.reference = reference  # run the reference beside each child
        self.dir = WORK / workload.name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config = None
        if workload.config is not None:
            self.config = self.dir / "workload.cfg"
            self.config.write_text(workload.config)
        self.invocations: list = []

    def run_child(self, argv: list, log_name: str) -> Child:
        return run_child([sys.executable, *argv], self.dir / log_name,
                         self.hard_deadline - time.perf_counter(), self.reference)

    def setup_probe(self) -> dict:
        """The probe's JSON line; with the reference, plus `setup_ref_s`."""
        child = self.run_child([str(ROOT / "perfbench" / "setup_probe.py"),
                                self.w.command, str(self.config), str(self.seed)],
                               "setup.log")
        if child.code != 0:
            raise RuntimeError(f"set-up probe failed, see {child.log}")
        probe = last_json(child.log)
        if self.reference:
            probe["setup_ref_s"] = child.ref_seconds(probe["setup_cpu_s"], "python")
        return probe

    def micro(self) -> dict:
        child = self.run_child([str(ROOT / "perfbench" / "micro.py"), str(self.seed)],
                               "micro.log")
        if child.code != 0:
            raise RuntimeError(f"microbenchmarks failed, see {child.log}")
        return last_json(child.log)

    def invoke(self, traced: bool) -> Invocation:
        out = self.dir / "out"
        shutil.rmtree(out, ignore_errors=True)
        spans_path = self.dir / "spans.json"
        if traced:
            prefix = [str(ROOT / "perfbench" / "tracer.py"), str(spans_path), "--"]
        else:
            prefix = ["-m", "biased_sgd.cli"]
        child = self.run_child([*prefix, *self.w.cli_args(self.config, out, self.seed)],
                               "cli.log")
        try:
            if child.code != 0:
                raise RuntimeError(f"exit code {child.code}")
            outcome = self.w.check(out)
        except (OSError, RuntimeError, ValueError, IndexError) as exc:
            print(f"FAILED {self.w.name} seed={self.seed}: {exc}; log: "
                  f"{child.log.read_text()[-2000:]}", file=sys.stderr)
            outcome = Outcome(failed=self.w.operations, digest="failed",
                              work=0.0, duplicate_frac=0.0)
        spans = json.loads(spans_path.read_text()) if traced and child.code == 0 else None
        inv = Invocation(child, outcome, traced, spans)
        self.invocations.append(inv)
        return inv

    def select(self, traced: bool) -> list:
        return [i for i in self.invocations if i.traced == traced]


def repeat_until(deadline: float, hard_deadline: float, step) -> None:
    """Call step() at least MIN_INVOCATIONS times, then while the next call
    is expected to end before the deadline; never after the hard deadline."""
    durations: list = []
    while time.perf_counter() < hard_deadline and (
            len(durations) < MIN_INVOCATIONS
            or time.perf_counter() + statistics.median(durations) <= deadline):
        t0 = time.perf_counter()
        step()
        durations.append(time.perf_counter() - t0)


def layer_metrics(spans: dict, wall_s: float, outcome: Outcome) -> dict:
    """Per-layer metrics of one traced invocation."""
    calls, self_s = spans["calls"], spans["self_s"]
    total_s, counts = spans["total_s"], spans["counts"]

    m = {}
    for key in PER_LAYER_UNITS:
        if key.startswith("micro.") or key.startswith("trace"):
            continue
        span, _, stat = key.rpartition(".")
        if key in counts:
            m[key] = counts[key]
        elif stat == "calls":
            m[key] = calls.get(span, 0)
        elif stat == "self_s":
            m[key] = self_s.get(span, 0.0)
        else:
            m[key] = 0
    lane_steps = m["optimizer.lane_steps"] + m["tuning.lane_steps"]
    point_calls = (m["problems.value.calls"] + m["problems.grad.calls"]
                   + m["problems.value_many.rows"] + m["problems.grad_many.rows"])
    m["problems.calls_per_lane_step"] = point_calls / lane_steps if lane_steps else 0.0
    steps = m["optimizer.lane_steps"]
    m["optimizer.us_per_lane_step"] = \
        total_s.get("optimizer.sgd_run", 0.0) / steps * 1e6 if steps else 0.0
    m["experiments.duplicate_cell_frac"] = outcome.duplicate_frac
    m["trace.coverage_frac"] = total_s["root"] / wall_s
    return m


def environment(probe: dict, seed: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        sha = res.stdout.strip() or None
    return {"python": probe["python"], "numpy": probe["numpy"],
            "blas": probe["blas"], "blas_threads": BLAS_THREADS,
            "nproc": os.cpu_count(), "machine": platform.machine(),
            "git_sha": sha, "seed": seed}


def run_workload(workload: Workload, seed: int, seconds: float,
                 trace: bool) -> dict:
    start = time.perf_counter()
    deadline, hard_deadline = start + seconds, start + HARD_LIMIT_S
    if not trace:
        pin_to_one_cpu()
    runner = Runner(workload, seed, hard_deadline, reference=not trace)
    probes = [runner.setup_probe()]
    metrics: dict = {}
    samples: dict = {}
    if trace:
        micro = runner.micro()
        metrics.update(micro["metrics"])
        samples = dict.fromkeys(micro["metrics"], micro["samples"])
        repeat_until(deadline, hard_deadline, lambda: (
            runner.invoke(traced=False), runner.invoke(traced=True)))
        traced = [i for i in runner.select(traced=True) if i.spans is not None]
        per_inv = [layer_metrics(i.spans, i.child.wall_s, i.outcome) for i in traced]
        for key in per_inv[0] if per_inv else ():
            metrics[key] = statistics.median(m[key] for m in per_inv)
            samples[key] = len(per_inv)
        if traced:
            metrics["trace_overhead_frac"] = (
                statistics.median(i.child.wall_s for i in traced)
                / statistics.median(i.child.wall_s for i in runner.select(False)) - 1.0)
            samples["trace_overhead_frac"] = len(traced)
    else:
        # set-up probes interleave with the invocations, so that both sample
        # the same stretch of machine speed
        repeat_until(deadline, hard_deadline, lambda: (
            probes.append(runner.setup_probe()), runner.invoke(traced=False)))
        invs = runner.invocations
        ok = [i for i in invs if i.child.code == 0]
        cpu = [i.child.ref_seconds(i.child.cpu_s, workload.reference) for i in invs]
        metrics["cpu_s"] = statistics.median(cpu)
        metrics["setup_s"] = statistics.median(p["setup_ref_s"] for p in probes)
        metrics["work_per_s"] = statistics.median(
            i.outcome.work / s for i, s in zip(invs, cpu))
        metrics["peak_rss_mb"] = statistics.median(
            i.child.peak_rss_mb for i in ok) if ok else 0.0
        samples = {"cpu_s": len(invs), "setup_s": len(probes),
                   "work_per_s": len(invs), "peak_rss_mb": len(ok)}

    digests = sorted({i.outcome.digest for i in runner.invocations})
    attempted = workload.operations * len(runner.invocations)
    failed = sum(i.outcome.failed for i in runner.invocations)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    record = {
        "workload": workload.name, "trace": int(trace),
        "environment": environment(probes[0], seed),
        "digests": digests, "attempted": attempted, "failed": failed,
        "elapsed_s": time.perf_counter() - start,
        "invocation_wall_s": [i.child.wall_s for i in runner.invocations],
        "invocation_cpu_s": [i.child.cpu_s for i in runner.invocations],
        "ref_chunk_s": [i.child.ref_chunk_s for i in runner.invocations],
        "setup_wall_s": [p["setup_s"] for p in probes],
        "metrics": {k: {"value": metrics.get(k, 0.0), "unit": u,
                        "samples": samples.get(k, 1)} for k, u in units.items()},
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload.name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1))
    return record


def report(record: dict) -> None:
    print(f"# {record['workload']} trace={record['trace']} "
          f"env={json.dumps(record['environment'])}")
    print(f"# digest {record['workload']} seed={record['environment']['seed']} "
          f"{' '.join(record['digests'])}")
    for name, m in record["metrics"].items():
        print(f"{record['workload']:<15} {name:<44} {m['value']:>14.6g} "
              f"{m['unit']:<6} n={m['samples']}")
    print(f"{record['workload']:<15} {'failed_frac':<44} "
          f"{record['failed'] / record['attempted']:>14.6g} ratio  "
          f"n={record['attempted']}")


def is_correct(record: dict) -> bool:
    return record["failed"] == 0 and len(record["digests"]) == 1


def result_line(record: dict) -> str:
    return json.dumps({
        "correct": is_correct(record), "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in record["metrics"].items()}})


def main(argv: Optional[list] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "biased_sgd" / "cli.py").is_file():
        print(f"error: no biased_sgd sources under {ROOT / 'src'}; run from "
              "the root of a biased-sgd checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = [run_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace))
               for n in names]
    for record in records:
        report(record)
    if args.workload != "all":
        print(result_line(records[0]))
        return 0
    return 0 if all(map(is_correct, records)) else 1


if __name__ == "__main__":
    sys.exit(main())
