"""Tests of the benchmark's own code: tracer arithmetic and faithfulness,
closed-form layer counts, output checks, seed handling and BENCHMARK.json.

    python3 -m pytest perfbench/tests
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

import run
import workloads
from biased_sgd import (compressed_oracle, gaussian_noise_oracle,
                        gaussian_smoothing_oracle, make_nesterov_worst,
                        rand_k_compressor, synthetic_tight_oracle,
                        top_k_compressor)
from tracer import Tracer, wrap_oracle, wrap_problem


def fake_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_child_spans():
    # root [0, 10] holds a [1, 7], which holds b [2, 5]; then c [8, 9]
    t = Tracer(clock=fake_clock(0.0, 1.0, 2.0, 5.0, 7.0, 8.0, 9.0, 10.0))
    t.begin("root")
    t.begin("a")
    t.begin("b")
    assert t.end() == 3.0
    assert t.end() == 6.0
    t.begin("c")
    t.end()
    assert t.end() == 10.0
    assert dict(t.self_s) == {"b": 3.0, "a": 3.0, "c": 1.0, "root": 3.0}
    assert dict(t.total_s) == {"b": 3.0, "a": 6.0, "c": 1.0, "root": 10.0}
    assert sum(t.self_s.values()) == t.total_s["root"]
    assert not any(t.open.values())


def test_repeated_span_accumulates_calls_and_self_time():
    t = Tracer(clock=fake_clock(0.0, 1.0, 2.0, 4.0, 7.0, 8.0))
    t.begin("root")
    for _ in range(2):
        t.begin("leaf")
        t.end()
    t.end()
    assert t.calls == {"root": 1, "leaf": 2}
    assert t.self_s["leaf"] == 4.0 and t.self_s["root"] == 4.0


def _oracles(p):
    noise = gaussian_noise_oracle(p, 1.0)
    return [
        noise,
        compressed_oracle(rand_k_compressor(1, p.dim), noise, p),
        compressed_oracle(top_k_compressor(3, p.dim), noise, p,
                          bounds_mode="query_only"),
        gaussian_smoothing_oracle(p, 0.01),
        synthetic_tight_oracle(p, 0.5, 0.1, 1.0, 0.5),  # no batched path
    ]


@pytest.mark.parametrize("index", range(5))
def test_wrapped_oracle_is_bit_identical(index):
    p = make_nesterov_worst(10)
    tracer = Tracer()
    plain = _oracles(p)[index]
    traced = wrap_oracle(tracer, _oracles(wrap_problem(tracer, p))[index])
    x = p.default_x0
    X = np.random.default_rng(0).standard_normal((7, 10))
    for call in (lambda o, r: o.query(x, r), lambda o, r: o.query_many(x, 50, r),
                 lambda o, r: o.query_batch(X, r)):
        a = call(plain, np.random.default_rng(3))
        b = call(traced, np.random.default_rng(3))
        assert a.tobytes() == b.tobytes()
    assert tracer.calls["oracles.query_many"] == 1
    assert tracer.counts["oracles.query_batch.rows"] == 7
    assert tracer.counts["oracles.loop_fallback.calls"] == (index == 4)


TINY_SWEEP = """\
[oracle]
kind = exact
k = 1

[run]
T = {T}
reps = {reps}

[sweep]
compressor = none, rand_k
noise_sigma_sq = 0.0, 1.0
"""


def test_traced_sweep_counts_match_closed_form(tmp_path):
    T, reps, cells, compressed_cells = 5, 2, 4, 2
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_SWEEP.format(T=T, reps=reps))
    spans = tmp_path / "spans.json"
    res = subprocess.run(
        [sys.executable, str(run.ROOT / "perfbench" / "tracer.py"), str(spans), "--",
         "sweep", "--config", str(cfg), "--out", str(tmp_path / "out"),
         "--workers", "1"], env=run.child_env(), capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    snap = json.loads(spans.read_text())
    calls, counts = snap["calls"], snap["counts"]
    lane_steps = cells * reps * T
    assert calls["oracles.query"] == lane_steps
    assert counts["optimizer.lane_steps"] == lane_steps
    assert calls["optimizer.sgd_run"] == cells * reps
    assert calls["compressors.apply"] == compressed_cells * reps * T
    # the step loop evaluates f once per step and once per record (T + 1
    # records), and the starting point is scaled once per cell
    assert calls["problems.value"] == cells * (reps * (2 * T + 1) + 1)
    # one gradient per record, one per exact-oracle query
    assert calls["problems.grad"] == cells * reps * (2 * T + 1)
    assert calls["experiments.write_trace_csv"] == cells
    assert calls["config.parse_config"] == cells + 1


def runner(w, seed):
    return run.Runner(w, seed, hard_deadline=time.perf_counter() + 600)


def test_seed_reaches_workloads_and_checks_pass(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    for w in run.WORKLOADS.values():
        first = runner(w, 5).invoke(traced=False).outcome
        again = runner(w, 5).invoke(traced=True).outcome
        other = runner(w, 6).invoke(traced=False).outcome
        assert first.failed == again.failed == other.failed == 0, w.name
        assert first.digest == again.digest != other.digest, w.name
        assert first.work > 0


def test_reference_scales_child_cpu_time(tmp_path):
    child = run.run_child([sys.executable, "-c", "sum(range(10 ** 6))"],
                          tmp_path / "log", timeout=60, reference=True)
    assert child.code == 0 and child.cpu_s > 0
    # a reference second is the time in which one chunk takes REF_CHUNK_S
    for kind, chunk_s in child.ref_chunk_s.items():
        assert child.ref_seconds(chunk_s, kind) == pytest.approx(run.REF_CHUNK_S)
    assert {w.reference for w in run.WORKLOADS.values()} <= set(run.REFERENCES)


def test_sweep_check_counts_broken_cells(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    sweep = runner(run.WORKLOADS["sweep_fig6grid"], 5)
    sweep.invoke(traced=False)
    out = sweep.dir / "out"
    assert workloads.check_sweep(out).duplicate_frac == 0.5
    traces = sorted(out.glob("cells/*/trace.csv"))
    lines = traces[0].read_text().splitlines()
    traces[0].write_text("\n".join(lines[:-1] + [f"{workloads.SWEEP_T},nan,0,0,0"]) + "\n")
    traces[1].write_text("\n".join(lines[:-1]) + "\n")
    manifest = out / "manifest.txt"
    text = manifest.read_text().splitlines()
    text[3] = text[3].split(" ")[0] + " status=failed error=boom"
    manifest.write_text("\n".join(text) + "\n")
    assert workloads.check_sweep(out).failed == 3


def test_auto_grid_size_matches_tuning():
    from biased_sgd import default_gamma_grid

    p = make_nesterov_worst(workloads.DIM)
    assert workloads.auto_grid_size(workloads.DIM) == \
        len(default_gamma_grid(p.smoothness_L))


def test_benchmark_json_names_reported_metrics():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER_UNITS
