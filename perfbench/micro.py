"""Layer microbenchmarks at d = 10, in a fresh process.

Each sample times a batch of calls and divides by the batch size; a case
reports the median and the 90th percentile of its samples, with SAMPLES
chosen so that at least ten samples lie beyond the 90th percentile. Prints
one JSON line: the sample count, and metric name -> microseconds per call
(or per step).

    python3 perfbench/micro.py SEED
"""

import json
import statistics
import sys
import time

import numpy as np
from biased_sgd import (StepSchedule, compressed_oracle, exact_oracle,
                        gaussian_noise_oracle, gaussian_smoothing_oracle,
                        make_nesterov_worst, rand_k_compressor, sgd_run,
                        top_k_compressor)

DIM = 10
SAMPLES = 120
TUNE_CELL_ROWS = 60  # one tune cell: 20 auto-grid stepsizes x 3 reps
PROTOTYPE_ROWS = 1134
MANY_ROWS = 20_000
SGD_STEPS = 200


def cases(seed: int) -> dict:
    """name -> (callable, calls per sample[, steps per call])."""
    p = make_nesterov_worst(DIM)
    rng = np.random.default_rng(seed)
    x = p.default_x0 + 0.1 * rng.standard_normal(DIM)
    noise = gaussian_noise_oracle(p, 1.0)
    rand_k = compressed_oracle(rand_k_compressor(1, DIM), noise, p)
    top_k = compressed_oracle(top_k_compressor(1, DIM), noise, p,
                              bounds_mode="query_only")
    oracles = {"exact": exact_oracle(p), "noise": noise, "rand_k_noise": rand_k,
               "top_k_noise": top_k,
               "gaussian_smoothing": gaussian_smoothing_oracle(p, 0.01)}
    X_cell = x + rng.standard_normal((TUNE_CELL_ROWS, DIM))
    X_proto = x + rng.standard_normal((PROTOTYPE_ROWS, DIM))
    sched = StepSchedule.constant(0.01)

    out = {"problems.value": (lambda: p.value(x), 200),
           "problems.grad": (lambda: p.grad(x), 200)}
    for name, o in oracles.items():
        out[f"oracles.query.{name}"] = (lambda o=o: o.query(x, rng), 100)
    out[f"oracles.query_batch.rows{TUNE_CELL_ROWS}"] = (
        lambda: rand_k.query_batch(X_cell, rng), 20)
    out[f"oracles.query_batch.rows{PROTOTYPE_ROWS}"] = (
        lambda: rand_k.query_batch(X_proto, rng), 2)
    out[f"oracles.query_many.rows{MANY_ROWS}"] = (
        lambda: rand_k.query_many(x, MANY_ROWS, rng), 1)
    # per step: the sample runs SGD_STEPS steps, so divide by that too
    out["optimizer.sgd_run.per_step"] = (
        lambda: sgd_run(p, noise, sched, SGD_STEPS, seed), 1, SGD_STEPS)
    return out


def measure(fn, batch: int, per: int = 1) -> list:
    for _ in range(batch):
        fn()
    samples = []
    clock = time.perf_counter
    for _ in range(SAMPLES):
        t0 = clock()
        for _ in range(batch):
            fn()
        samples.append((clock() - t0) / (batch * per) * 1e6)
    return samples


def main(seed: int) -> dict:
    metrics = {}
    for name, (fn, batch, *per) in cases(seed).items():
        samples = measure(fn, batch, *per)
        metrics[f"micro.{name}.median_us"] = statistics.median(samples)
        metrics[f"micro.{name}.p90_us"] = statistics.quantiles(samples, n=10)[-1]
    return metrics


if __name__ == "__main__":
    print(json.dumps({"metrics": main(int(sys.argv[1])), "samples": SAMPLES}))
