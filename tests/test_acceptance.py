"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion with the measured values and wall time.
"""

import time

import numpy as np
import pytest

from biased_sgd import (StepSchedule, additive_bias_oracle, compressed_oracle,
                        descent_lemma_rhs, error_floor, exact_oracle,
                        gaussian_noise_oracle, gaussian_smoothing_oracle,
                        huber_shifted_oracle, make_nesterov_worst, pl_envelope,
                        pl_iterations, pl_stepsize_proof, psi_bound,
                        rand_k_compressor, sgd_run, sgd_run_repeated_many,
                        smooth_iterations, smooth_stepsize_proof, stepsize_cap,
                        tightness_oracle, top_k, top_k_compressor,
                        tune_stepsize_many, uniform_direction)
from biased_sgd import OracleBounds
from biased_sgd._rng import stream
from biased_sgd.experiments import verify_experiment
from biased_sgd import cli
from biased_sgd.config import parse_config, serialize_config

SEED = 2024


class _Clock:
    def __init__(self, limit_s, label):
        self.limit = limit_s
        self.label = label

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        if exc[0] is None:
            print(f"PASS {self.label}: {self.elapsed:.1f}s (limit {self.limit}s)")
            assert self.elapsed < self.limit, \
                f"{self.label} exceeded runtime limit: {self.elapsed:.1f}s"
        return False


def test_criterion_1_descent_lemma():
    with _Clock(30, "criterion 1 (one-step descent bound)"):
        p = make_nesterov_worst(10)
        o = additive_bias_oracle(gaussian_noise_oracle(p, 1.0), 0.1,
                                 uniform_direction(10))
        b = o.bounds
        gamma = stepsize_cap(p.smoothness_L, b)  # 1/((M+1)L)
        rng = stream(SEED, 1)
        points = [2.0 * rng.standard_normal(10) for _ in range(5)]
        for i, x in enumerate(points):
            G = o.query_many(x, 100_000, stream(SEED, 1, i))
            drops = p.value_many(x - gamma * G) - p.value(x)
            mean = float(drops.mean())
            se = float(drops.std(ddof=1) / np.sqrt(len(drops)))
            g = p.grad(x)
            rhs = descent_lemma_rhs(float(g @ g), gamma, p.smoothness_L, b)
            assert mean <= rhs + 5 * se, (i, mean, rhs, se)


def _tails(tr):
    """Mean f gap over the last tenth of a trace's recorded iterations."""
    n = len(tr.t)
    return float(np.mean(tr.f_gap[n - max(1, int(np.ceil(0.1 * n))):]))


def _tail_stats(p, runs, T, reps, seed):
    """Per (oracle, gamma) in `runs`, the mean tail over the reps and its SE
    (0 for one rep), the runs stepped together in one engine run."""
    out = []
    for agg in sgd_run_repeated_many(
            p, [(o, StepSchedule.constant(g)) for o, g in runs], T, reps, seed):
        tails = np.array([_tails(tr) for tr in agg.traces])
        out.append((float(tails.mean()),
                    float(tails.std(ddof=1) / np.sqrt(reps)) if reps > 1 else 0.0))
    return out


def test_criterion_2_error_floor_reproduction():
    with _Clock(120, "criterion 2 (error-floor reproduction)"):
        p = make_nesterov_worst(10)
        L, mu = p.smoothness_L, p.pl_mu
        T = 10_000
        # (a) pure bias: positive, stepsize-independent, below the bound;
        # deterministic dynamics, run to the stationary point (T covers the
        # slower gamma = 0.005 transient)
        o_bias = additive_bias_oracle(exact_oracle(p), 0.1, uniform_direction(10))
        gammas_a = (0.01, 0.005)
        tails_a = [tail for tail, _ in _tail_stats(
            p, [(o_bias, g) for g in gammas_a], 30_000, 1, SEED)]
        for gamma, tail in zip(gammas_a, tails_a):
            assert tail > 0
            assert tail <= error_floor(gamma, L, mu, o_bias.bounds)
        assert abs(tails_a[0] - tails_a[1]) <= 0.01 * tails_a[0]
        # (b) pure noise: floor scales linearly with the stepsize (factor 1.5)
        o_noise = gaussian_noise_oracle(p, 1.0)
        gammas = (0.02, 0.01, 0.005)
        tails_b = {g: tail for g, (tail, _) in zip(gammas, _tail_stats(
            p, [(o_noise, g) for g in gammas], T, 20, SEED + 1))}
        for g1 in gammas:
            for g2 in gammas:
                if g1 <= g2:
                    continue
                ratio = tails_b[g1] / tails_b[g2]
                assert (g1 / g2) / 1.5 <= ratio <= (g1 / g2) * 1.5, (g1, g2, ratio)
        # (c) tiny bias over noise: indistinguishable from (b) within 2 SE.
        # Paired comparison (shared noise seeds) so the difference isolates
        # the bias effect instead of seed-to-seed spread.
        o_both = additive_bias_oracle(gaussian_noise_oracle(p, 1.0), 0.001,
                                      uniform_direction(10))
        # rep r of each run is `sgd_run(..., rng=stream(SEED + 2, r))`
        s = StepSchedule.constant(0.01)
        runs_b, runs_c = sgd_run_repeated_many(
            p, [(o_noise, s), (o_both, s)], T, 20, SEED + 2, keep_traces=True)
        diffs = np.array([_tails(tr_c) - _tails(tr_b)
                          for tr_b, tr_c in zip(runs_b.traces, runs_c.traces)])
        se = float(diffs.std(ddof=1) / np.sqrt(len(diffs)))
        assert abs(float(diffs.mean())) <= 2 * se, (diffs.mean(), se)


def test_criterion_3_tightness_witness():
    with _Clock(10, "criterion 3 (error-floor tightness witness)"):
        p = make_nesterov_worst(10)
        m, zeta_sq = 0.5, 0.01
        o = tightness_oracle(p, m, zeta_sq,
                             np.sqrt(zeta_sq) * uniform_direction(10))
        tr = sgd_run(p, o, StepSchedule.constant(1 / p.smoothness_L), 6000,
                     seed=SEED)
        target = zeta_sq / (1 - m)
        assert target == pytest.approx(0.02)
        assert abs(tr.grad_norm_sq[-1] - target) <= 0.01 * target


def test_criterion_4_huber_divergence():
    with _Clock(1, "criterion 4 (divergence on the shifted Huber oracle)"):
        p, o = huber_shifted_oracle()
        for gamma in (1.0, 0.1, 0.01):
            tr = sgd_run(p, o, StepSchedule.constant(gamma), 100, seed=SEED,
                         x0=np.array([2.0]))
            xs = 2.0 + gamma * tr.t
            assert np.allclose(tr.f_gap, np.abs(xs) - 0.5, rtol=1e-9)
            assert tr.final_x[0] == pytest.approx(2.0 + gamma * 100, rel=1e-12)
            assert tr.diverged


def test_criterion_5_compressor_identities():
    import itertools
    with _Clock(10, "criterion 5 (compressor identities)"):
        rng = stream(SEED, 5)
        for d in range(2, 7):
            for k in range(1, d + 1):
                g = rng.standard_normal(d)
                outs = []
                for subset in itertools.combinations(range(d), k):
                    out = np.zeros(d)
                    out[list(subset)] = g[list(subset)]
                    outs.append(out)
                outs = np.array(outs)
                mean = outs.mean(axis=0)
                assert np.allclose(mean, (k / d) * g, atol=1e-12)
                err = outs - g
                e_err = float(np.mean(np.einsum("ij,ij->i", err, err)))
                assert abs(e_err - (d - k) / d * float(g @ g)) <= 1e-12
                scaled = (d / k) * outs
                serr = scaled - g
                var_unbiased = float(np.mean(np.einsum("ij,ij->i", serr, serr)))
                assert abs(var_unbiased - (d / k - 1) * float(g @ g)) <= 1e-12
                a, b = rng.standard_normal(d), rng.standard_normal(d)
                lin_lhs = (k / d) * (a + b)
                lin_rhs = (k / d) * a + (k / d) * b
                assert np.allclose(lin_lhs, lin_rhs, atol=1e-12)
        d = 10
        for _ in range(10_000):
            g = rng.standard_normal(d)
            k = int(rng.integers(1, d + 1))
            err = top_k(g, k) - g
            assert float(err @ err) <= (d - k) / d * float(g @ g) + 1e-12
        g = np.full(8, 3.0)
        err = top_k(g, 2) - g
        assert float(err @ err) == pytest.approx((8 - 2) / 8 * float(g @ g),
                                                 abs=1e-12)


def test_criterion_6_table_verification():
    with _Clock(300, "criterion 6 (declared-bounds verification table)"):
        reports, table = verify_experiment(None, out_dir=None,
                                           samples=100_000, n_points=20,
                                           seed=SEED)
        bad = [name for name, rep in reports if not rep.ok]
        assert not bad, f"violated rows: {bad}\n{table}"


def test_criterion_7_rate_slowdown_and_ordering():
    with _Clock(600, "criterion 7 (compression rate slowdown and ordering)"):
        p = make_nesterov_worst(10)
        eps, max_T = 5e-4, 1_000_000

        def oracle(compressor, sigma_sq):
            inner = gaussian_noise_oracle(p, sigma_sq) if sigma_sq else exact_oracle(p)
            if compressor == "none":
                return inner
            if compressor == "top_k":
                return compressed_oracle(top_k_compressor(1, 10), inner, p,
                                         bounds_mode="derived"
                                         if sigma_sq == 0 else "query_only")
            return compressed_oracle(rand_k_compressor(1, 10), inner, p)

        # the seven distinct chains, searched as the members of one engine run
        chains = [("none", 0.0)] + [(c, s) for s in (0.0, 1.0, 100.0)
                                    for c in ("top_k", "rand_k")]
        searches = tune_stepsize_many(p, [oracle(*c) for c in chains], eps,
                                      reps=3, max_T=max_T, seed=SEED,
                                      keep_history=False)
        tuned = dict(zip(chains, searches))
        none0, rand0 = tuned["none", 0.0], tuned["rand_k", 0.0]
        ratio = rand0.best.iterations / none0.best.iterations
        assert 5.0 <= ratio <= 20.0, ratio

        def outcome(res):
            # compares the way convergence speed does: reaching beats not
            # reaching, fewer iterations beat more, and among non-reaching
            # searches a lower best gap beats a higher one
            best = res.best
            return (0, best.iterations) if best is not None else (1, res.best_gap)

        for sigma_sq in (0.0, 1.0, 100.0):
            top, rand = tuned["top_k", sigma_sq], tuned["rand_k", sigma_sq]
            assert outcome(top) < outcome(rand), \
                (sigma_sq, outcome(top), outcome(rand))
        print(f"      slowdown ratio rand-k/none = {ratio:.2f}")


def test_criterion_8_theory_consistency():
    with _Clock(1, "criterion 8 (proof-arithmetic replication)"):
        rng = stream(SEED, 8)
        for _ in range(1000):
            b = OracleBounds(
                m=float(rng.uniform(0, 0.95)),
                zeta_sq=float(rng.uniform(0, 2.0)) * (rng.random() < 0.7),
                M=float(rng.uniform(0, 10.0)) * (rng.random() < 0.7),
                sigma_sq=float(rng.uniform(0, 5.0)) * (rng.random() < 0.7))
            L = float(rng.uniform(0.5, 5.0))
            mu = float(rng.uniform(0.01, min(0.5, L)))
            F0 = float(rng.uniform(0.0, 5.0))
            eps = float(rng.uniform(1e-4, 1.0))
            gamma = smooth_stepsize_proof(eps, L, b)
            T = smooth_iterations(eps, L, F0, b)
            bound = eps + b.zeta_sq / (1 - b.m)
            assert psi_bound(T, gamma, F0, L, b) <= bound + 1e-12 * max(1.0, bound)
            gamma = pl_stepsize_proof(eps, L, mu, b)
            T = pl_iterations(eps, L, mu, F0, b)
            bound = eps + b.zeta_sq / (2 * mu * (1 - b.m))
            assert pl_envelope(T, gamma, F0, L, mu, b) <= \
                bound + 1e-12 * max(1.0, bound)


def test_criterion_9_zeroth_order_floor_scaling():
    with _Clock(120, "criterion 9 (zeroth-order floor scaling in tau)"):
        p = make_nesterov_worst(10)
        taus = (0.1, 0.01)
        tails = {tau: tail for tau, (tail, _) in zip(taus, _tail_stats(
            p, [(gaussian_smoothing_oracle(p, tau), 0.01) for tau in taus],
            10_000, 20, SEED + 9))}
        ratio = tails[0.1] / tails[0.01]
        assert 50.0 <= ratio <= 200.0, ratio
        print(f"      floor ratio tau=0.1 / tau=0.01 = {ratio:.1f}")


def test_criterion_10_byte_determinism(tmp_path):
    with _Clock(120, "criterion 10 (byte-identical reruns)"):
        cfg_text = serialize_config(parse_config("""
[problem]
kind = nesterov_quadratic
dim = 10
[oracle]
kind = exact
noise_sigma_sq = 1.0
compressor = rand_k
k = 1
[run]
T = 500
reps = 3
seed = 77
stepsize = 0.01
[sweep]
noise_sigma_sq = 0.0, 1.0
series_by = noise_sigma_sq
[tune]
target_eps = 0.01
max_T = 20000
reps = 2
grid = auto
"""))
        path = tmp_path / "cfg.cfg"
        path.write_text(cfg_text)
        pairs = []
        for tag in ("x", "y"):
            base = tmp_path / tag
            assert cli.main(["run", "--config", str(path),
                             "--out", str(base / "run")]) == 0
            assert cli.main(["sweep", "--config", str(path),
                             "--out", str(base / "sweep")]) == 0
            assert cli.main(["tune", "--config", str(path),
                             "--out", str(base / "tune")]) == 0
            pairs.append(base)
        x, y = pairs
        rels = ["run/trace.csv", "run/summary.txt", "sweep/manifest.txt",
                "sweep/figure.svg",
                "sweep/cells/noise_sigma_sq=1.0/trace.csv",
                "tune/tune.csv", "tune/tune_summary.txt", "tune/race.svg"]
        for rel in rels:
            assert (x / rel).read_bytes() == (y / rel).read_bytes(), rel
