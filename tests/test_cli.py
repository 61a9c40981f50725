import subprocess
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np
import pytest

from biased_sgd import StepSchedule, cli, config, experiments, figures, sgd_run_repeated
from biased_sgd.config import (ConfigError, ExperimentConfig, OracleSpec,
                               ProblemSpec, RunSpec, TuneSpec, parse_config,
                               serialize_config)

MINI = """
# comment line
[problem]
kind = nesterov_quadratic
dim = 10

[oracle]
kind = exact
noise_sigma_sq = 1.0
bias_zeta = 0.1

[run]
T = 300
reps = 3
seed = 42
stepsize = 0.01
"""


def test_config_round_trip_stability():
    cfg = parse_config(MINI)
    text1 = serialize_config(cfg)
    cfg2 = parse_config(text1)
    assert cfg == cfg2
    assert serialize_config(cfg2) == text1
    for name in figures.FIGURE_NAMES:
        cfg = figures.preset(name)
        assert parse_config(serialize_config(cfg)) == cfg


def test_config_defaults_and_fingerprint():
    cfg = parse_config(MINI)
    assert cfg.run.x0_gap == 1.0
    assert cfg.oracle.compressor == "none"
    assert cfg.sweep is None and cfg.tune is None
    assert len(cfg.fingerprint()) == 16
    assert cfg.fingerprint() != figures.preset("fig1").fingerprint()


@pytest.mark.parametrize("text,fragment", [
    ("[problem]\nbogus = 1\n", "line 2"),
    ("[nonsense]\n", "unknown section"),
    ("[problem]\ndim = ten\n", "expects int"),
    ("key = 1\n", "outside any"),
    ("[problem]\nno_equals_here\n", "key = value"),
    ("[sweep]\nbogus_axis = 1, 2\n", "unknown sweep axis"),
    ("[run]\nT = 10\nT = 20\n", "line 3: 'T' in [run] is already set on line 2"),
    ("[run]\nT = 10\n[problem]\ndim = 5\n[run]\nT = 20\n",
     "line 6: 'T' in [run] is already set on line 2"),
    ("[sweep]\nk = 1, 2\nk = 3\n", "line 3: 'k' in [sweep] is already set on line 2"),
])
def test_parse_errors_carry_diagnostics(text, fragment):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert fragment in str(err.value)


def test_a_section_header_may_repeat():
    cfg = parse_config("[run]\nT = 10\n[problem]\ndim = 5\n[run]\nreps = 2\n")
    assert (cfg.run.T, cfg.run.reps, cfg.problem.dim) == (10, 2, 5)


# a valid value other than the default for every field of every spec
OTHER_VALUES = {
    ProblemSpec: {"kind": "huber", "dim": 5},
    OracleSpec: {"kind": "gaussian_smoothing", "noise_sigma_sq": 1.0,
                 "bias_zeta": 0.1, "compressor": "top_k", "k": 2, "delta": 0.5,
                 "tau": 0.1, "m": 0.5, "zeta_sq": 0.5},
    RunSpec: {"T": 5, "reps": 3, "seed": 7, "stepsize": 0.02,
              "stepsize_policy": "theory_pl", "policy_eps": 0.01, "x0_gap": 2.0},
    TuneSpec: {"target_eps": 1e-3, "max_T": 100, "reps": 2, "grid": (0.1, 0.2)},
}


def test_every_config_field_reaches_the_canonical_text():
    # a field the canonical text left out would give two different runs one
    # fingerprint and one run key
    base = ExperimentConfig(tune=TuneSpec())
    sections = {type(getattr(base, f.name)): f.name for f in fields(base)}
    for spec, values in OTHER_VALUES.items():
        assert [f.name for f in fields(spec)] == list(values)
        section = sections[spec]
        for name, value in values.items():
            cfg = replace(base, **{section: replace(getattr(base, section),
                                                    **{name: value})})
            assert cfg.canonical() != base.canonical(), (section, name)
            assert parse_config(cfg.canonical()) == cfg, (section, name)


def test_an_unsupported_annotation_is_refused():
    @dataclass
    class Spec:
        flag: "bool" = False

    with pytest.raises(TypeError, match="Spec.flag: annotation 'bool'"):
        config._value_type(Spec, fields(Spec)[0])


@pytest.mark.parametrize("name", figures.FIGURE_NAMES)
def test_config_files_are_the_presets_canonical_text(name):
    path = Path(__file__).resolve().parents[1] / "configs" / f"{name}.cfg"
    assert path.read_text(encoding="utf-8") == figures.preset(name).canonical()


@pytest.mark.parametrize("override", [
    dict(kind="nope"), dict(compressor="zip"), dict(compressor="top_k", k=0),
    dict(noise_sigma_sq=-1.0),
])
def test_validation_errors(override):
    with pytest.raises(ConfigError):
        parse_config(serialize_config(ExperimentConfig().with_overrides(**override)))


def test_run_experiment_outputs(tmp_path):
    cfg = parse_config(MINI)
    out = experiments.run_experiment(cfg, out_dir=str(tmp_path))
    csv = (tmp_path / "trace.csv").read_text().splitlines()
    assert csv[0] == "t,mean_f_gap,se_f_gap,mean_grad_norm_sq,se_grad_norm_sq"
    assert len(csv) == cfg.run.T + 2  # header + T+1 rows
    assert out.summary["diverged"] == "false"
    assert (tmp_path / "summary.txt").exists()
    assert (tmp_path / "config.cfg").read_text() == cfg.canonical()


def test_run_byte_determinism(tmp_path):
    cfg = parse_config(MINI)
    experiments.run_experiment(cfg, out_dir=str(tmp_path / "a"))
    experiments.run_experiment(cfg, out_dir=str(tmp_path / "b"))
    assert (tmp_path / "a/trace.csv").read_bytes() == \
        (tmp_path / "b/trace.csv").read_bytes()


def test_theory_stepsize_policy():
    cfg = parse_config(MINI).with_overrides(stepsize_policy="theory_pl",
                                            policy_eps=0.01)
    out = experiments.run_experiment(cfg)
    from biased_sgd import pl_stepsize, make_nesterov_worst
    p = make_nesterov_worst(10)
    o, _ = experiments.build_oracle(cfg, p)
    assert float(out.summary["stepsize"]) == \
        pytest.approx(pl_stepsize(0.01, p.smoothness_L, p.pl_mu, o.bounds))


def test_sweep_cells_and_identity_compression(tmp_path):
    text = MINI + """
[sweep]
noise_sigma_sq = 0.0, 1.0
k = 1, 10
compressor = rand_k
panel_by = noise_sigma_sq
series_by = k
"""
    cfg = parse_config(text)
    res = experiments.sweep_experiment(cfg, out_dir=str(tmp_path / "sweep"))
    assert len(res.cells) == 4  # product of swept axes
    manifest = (tmp_path / "sweep/manifest.txt").read_text()
    assert "figure.svg" not in manifest  # manifest references cells only
    assert (tmp_path / "sweep/figure.svg").exists()
    for rec in res.cells:
        assert (tmp_path / "sweep/cells" / rec["label"] / "trace.csv").exists()
    # k = d cell must be bit-identical to the uncompressed run, same seed
    plain = parse_config(MINI).with_overrides(noise_sigma_sq=1.0)
    experiments.run_experiment(plain, out_dir=str(tmp_path / "plain"))
    kd = tmp_path / "sweep/cells/noise_sigma_sq=1.0_k=10_compressor=rand_k/trace.csv"
    assert kd.read_bytes() == (tmp_path / "plain/trace.csv").read_bytes()


def test_sweep_byte_determinism(tmp_path):
    cfg = figures.preset("fig1").with_overrides(T=200, reps=2)
    experiments.sweep_experiment(cfg, out_dir=str(tmp_path / "s1"))
    experiments.sweep_experiment(cfg, out_dir=str(tmp_path / "s2"))
    for rel in ("figure.svg", "manifest.txt",
                "cells/noise_sigma_sq=1.0_bias_zeta=0.1/trace.csv"):
        assert (tmp_path / "s1" / rel).read_bytes() == \
            (tmp_path / "s2" / rel).read_bytes()


def test_sweep_requires_axes():
    with pytest.raises(ConfigError):
        experiments.sweep_experiment(parse_config(MINI), out_dir="/tmp/unused")


def test_sweep_svg_series_match_cells(tmp_path):
    cfg = figures.preset("fig1").with_overrides(T=100, reps=2)
    res = experiments.sweep_experiment(cfg, out_dir=str(tmp_path))
    svg = (tmp_path / "figure.svg").read_text()
    ok_cells = [rec for rec in res.cells if "error" not in rec]
    assert svg.count("<polyline") == len(ok_cells)
    manifest = (tmp_path / "manifest.txt").read_text()
    for rec in ok_cells:
        assert f"cell={rec['label']} " in manifest


def test_sweep_failed_cell_recorded_not_fatal(tmp_path, monkeypatch):
    cfg = figures.preset("fig1").with_overrides(T=100, reps=2)
    real = experiments._build_run

    def flaky(sub_cfg):
        if sub_cfg.oracle.bias_zeta == 0.1 and sub_cfg.oracle.noise_sigma_sq == 0.0:
            raise RuntimeError("synthetic cell failure")
        return real(sub_cfg)

    monkeypatch.setattr(experiments, "_build_run", flaky)
    res = experiments.sweep_experiment(cfg, out_dir=str(tmp_path))
    failed = [rec for rec in res.cells if "error" in rec]
    assert len(failed) == 1
    manifest = (tmp_path / "manifest.txt").read_text()
    assert "status=failed" in manifest
    assert manifest.count("csv=") == len(res.cells) - 1


def test_tune_experiment_outputs(tmp_path):
    text = MINI + """
[sweep]
compressor = none, top_k
series_by = compressor

[tune]
target_eps = 0.01
max_T = 50000
reps = 2
grid = auto
"""
    cfg = parse_config(text)
    res = experiments.tune_experiment(cfg, out_dir=str(tmp_path))
    assert (tmp_path / "tune.csv").read_text().startswith(
        "cell,gamma,reached,iterations,best_gap,diverged,censored_at")
    assert (tmp_path / "race.svg").exists()
    for rec in res.cells:
        assert rec["result"].best is not None
    # GD with the exact oracle tunes to within one grid step of 1/L
    from biased_sgd import exact_oracle, make_nesterov_worst, tune_stepsize
    p = make_nesterov_worst(10)
    cap = 1 / p.smoothness_L
    clean = tune_stepsize(p, exact_oracle(p), 5e-4, reps=1, max_T=50_000, seed=1)
    assert 0.25 - 1e-12 <= clean.best.gamma <= cap + 1e-12
    # did-not-reach reporting on an impossible target
    hard = parse_config(text.replace("target_eps = 0.01", "target_eps = 1e-30")
                        .replace("max_T = 50000", "max_T = 50"))
    res2 = experiments.tune_experiment(hard, out_dir=str(tmp_path / "hard"))
    for rec in res2.cells:
        assert rec["result"].best is None
        assert np.isfinite(rec["result"].best_gap)
    summary = (tmp_path / "hard/tune_summary.txt").read_text()
    assert "did-not-reach" in summary


def test_huber_config_reports_divergence(tmp_path):
    text = """
[problem]
kind = huber
[oracle]
kind = huber_shifted
[run]
T = 50
reps = 1
seed = 1
stepsize = 0.1
"""
    out = experiments.run_experiment(parse_config(text), out_dir=str(tmp_path))
    assert out.summary["diverged"] == "true"
    assert float(out.summary["final_mean_f_gap"]) == pytest.approx(6.5, rel=1e-9)


def test_verify_single_oracle(tmp_path):
    cfg = parse_config(MINI)
    reports, table = experiments.verify_experiment(cfg, out_dir=str(tmp_path),
                                                   samples=4000, n_points=8)
    assert reports[0][1].ok
    assert table.startswith("| oracle |")
    assert (tmp_path / "verify.md").exists()


def test_budget_report_exact_oracle():
    import math
    cfg = parse_config(MINI).with_overrides(noise_sigma_sq=0.0, bias_zeta=0.0)
    text = experiments.budget_report(cfg, eps=1e-3)
    from biased_sgd import make_nesterov_worst
    p = make_nesterov_worst(10)
    kappa = p.smoothness_L / p.pl_mu
    T = math.ceil(kappa * math.log(2 / 1e-3))
    assert f"iterations = {T}" in text
    assert f"stepsize = {1 / p.smoothness_L:.6g}" in text


def test_cli_main_paths(tmp_path):
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(MINI)
    assert cli.main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 0
    assert cli.main(["budget", "--config", str(cfg_path), "--eps", "0.01"]) == 0
    # config errors exit 1
    bad = tmp_path / "bad.cfg"
    bad.write_text("[problem]\ndim = tiny\n")
    assert cli.main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 1
    assert cli.main(["run", "--config", str(tmp_path / "missing.cfg"),
                     "--out", str(tmp_path)]) == 1
    assert cli.main(["run", "--out", str(tmp_path)]) == 1  # no config, no figure


@pytest.mark.parametrize("oracle, sweep", [
    ("compressor = scale\n", ""),
    ("", "[sweep]\ncompressor = none, scale\n"),
], ids=["oracle", "sweep_axis"])
def test_inexact_oracle_with_scale_compressor_is_rejected(tmp_path, oracle, sweep):
    # oracle.delta cannot be the inexact oracle's accuracy and the scale
    # compressor's delta at once
    text = ("[problem]\nkind = nesterov_quadratic\ndim = 10\n\n[oracle]\n"
            f"kind = inexact\ndelta = 0.1\n{oracle}\n[run]\nT = 20\nreps = 2\n\n"
            + sweep)
    with pytest.raises(ConfigError, match="inexact"):
        parse_config(text)
    path = tmp_path / "c.cfg"
    path.write_text(text)
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert not (tmp_path / "o").exists()
    # either one alone is a valid config
    parse_config(text.replace("kind = inexact", "kind = exact"))
    parse_config(text.replace("scale", "top_k"))


def test_cli_seed_override(tmp_path):
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(MINI)
    cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "s1"),
              "--seed", "7"])
    cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "s2"),
              "--seed", "8"])
    assert (tmp_path / "s1/trace.csv").read_bytes() != \
        (tmp_path / "s2/trace.csv").read_bytes()


def test_console_script_entry():
    out = subprocess.run([sys.executable, "-m", "biased_sgd.cli", "--help"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    for cmd in ("run", "sweep", "tune", "verify", "budget"):
        assert cmd in out.stdout


def test_cli_import_leaves_out_the_process_pool():
    code = ("import sys, biased_sgd.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("samples", ["0", "1"])
def test_verify_rejects_fewer_than_two_samples(tmp_path, capsys, samples):
    assert cli.main(["verify", "--samples", samples,
                     "--out", str(tmp_path / "v")]) == 2
    err = capsys.readouterr().err
    assert f"samples must be >= 2 for stochastic oracles, got {samples}" in err
    assert not (tmp_path / "v/verify.md").exists()


def test_sweep_workers_match_serial(tmp_path):
    cfg = figures.preset("fig1").with_overrides(T=150, reps=2)
    experiments.sweep_experiment(cfg, out_dir=str(tmp_path / "w1"), workers=1)
    experiments.sweep_experiment(cfg, out_dir=str(tmp_path / "w2"), workers=3)
    rel = "cells/noise_sigma_sq=1.0_bias_zeta=0.1/trace.csv"
    assert (tmp_path / "w1" / rel).read_bytes() == \
        (tmp_path / "w2" / rel).read_bytes()
    assert (tmp_path / "w1/manifest.txt").read_bytes() == \
        (tmp_path / "w2/manifest.txt").read_bytes()


FAILING_SWEEP = """
[problem]
kind = huber

[oracle]
kind = huber_shifted

[run]
T = 20
reps = 2
stepsize_policy = theory_pl

[sweep]
stepsize = 0.1, 0.2
"""


def test_sweep_failed_cells_same_under_workers(tmp_path):
    # theory_pl needs a PL constant, which the Huber problem lacks: every
    # cell fails, on the serial path and in the process pool alike
    cfg_path = tmp_path / "fail.cfg"
    cfg_path.write_text(FAILING_SWEEP)
    for workers in (1, 2):
        code = cli.main(["sweep", "--config", str(cfg_path), "--workers",
                         str(workers), "--out", str(tmp_path / f"w{workers}")])
        assert code == 0
    manifest = (tmp_path / "w1/manifest.txt").read_text()
    assert manifest.count("status=failed") == 2
    assert (tmp_path / "w1/manifest.txt").read_bytes() == \
        (tmp_path / "w2/manifest.txt").read_bytes()


def test_verify_honours_seed(tmp_path):
    cfg_path = tmp_path / "noisy.cfg"
    cfg_path.write_text(MINI)  # noise_sigma_sq = 1.0

    def table(seed, name):
        out = tmp_path / name
        assert cli.main(["verify", "--config", str(cfg_path), "--seed", str(seed),
                         "--samples", "2000", "--out", str(out)]) == 0
        return (out / "verify.md").read_bytes()

    first = table(5, "a")
    assert table(5, "b") == first
    assert table(6, "c") != first


def test_summary_lists_each_diverged_rep(tmp_path):
    text = """
[problem]
kind = huber
[oracle]
kind = huber_shifted
[run]
T = 50
reps = 2
seed = 1
stepsize = 0.1
"""
    experiments.run_experiment(parse_config(text), out_dir=str(tmp_path / "h"))
    summary = (tmp_path / "h/summary.txt").read_text()
    assert "diverged_reps = 2\n" in summary
    assert "diverged_detail = 0:monotone-increase@50 1:monotone-increase@50\n" \
        in summary
    # an overflowing stepsize: each rep is listed with its first bad iterate
    cfg = parse_config(MINI).with_overrides(stepsize=10.0, reps=2)
    out = experiments.run_experiment(cfg, out_dir=str(tmp_path / "o"))
    # the first bad iterate is the one after the last recorded
    assert out.summary["diverged_detail"] == " ".join(
        f"{rep}:overflow@{len(tr.t)}" for rep, tr in enumerate(out.agg.traces))
    assert all(len(tr.t) < cfg.run.T for tr in out.agg.traces)
    assert f"diverged_detail = {out.summary['diverged_detail']}\n" in \
        (tmp_path / "o/summary.txt").read_text()
    clean = experiments.run_experiment(parse_config(MINI))
    assert clean.summary["diverged_detail"] == "-"


TUNE_POLICY = """
[tune]
target_eps = 0.05
max_T = 3000
reps = 2
grid = 0.0625, 0.125, 0.25
"""


def test_race_curves_are_the_tuned_stepsize_runs(tmp_path, monkeypatch):
    # the race figure plots each cell's search at its tuned stepsize: the
    # repeated run sgd_run_repeated would give, labelled with that stepsize,
    # also under a theory stepsize policy, and without rerunning anything
    cfg = parse_config(MINI.replace("stepsize = 0.01", "stepsize_policy = theory_pl")
                       + """
[sweep]
compressor = none, rand_k
series_by = compressor
""" + TUNE_POLICY)
    plotted = []
    panel_grid = experiments.panel_grid

    def recording(panels, **kwargs):
        plotted.extend(s for _, series in panels for s in series)
        return panel_grid(panels, **kwargs)

    def no_rerun(*args, **kwargs):
        raise AssertionError("the race figure must not rerun a cell")

    monkeypatch.setattr(experiments, "panel_grid", recording)
    monkeypatch.setattr(experiments, "run_experiment", no_rerun)
    res = experiments.tune_experiment(cfg, out_dir=str(tmp_path))
    assert len(plotted) == len(res.cells) == 2
    svg = (tmp_path / "race.svg").read_text()
    for rec, (label, t, gap) in zip(res.cells, plotted):
        best = rec["result"].best
        assert best is not None
        assert label == f"compressor={rec['overrides']['compressor']} " \
            f"(g={best.gamma:g})" and label in svg
        sub = experiments._cell_config(cfg, rec["overrides"])
        p = experiments.build_problem(sub)
        o, _ = experiments.build_oracle(sub, p)
        agg = sgd_run_repeated(p, o, StepSchedule.constant(best.gamma),
                               best.iterations, cfg.tune.reps, cfg.run.seed,
                               x0=experiments._x0(sub, p))
        assert np.array_equal(t, agg.t)
        np.testing.assert_allclose(gap, agg.mean_f_gap, rtol=1e-12, atol=0)


def test_tune_theory_policy_on_huber_writes_race(tmp_path):
    # Huber has no PL constant, so theory_pl cannot give the rerun a stepsize;
    # the rerun uses the tuned one instead of failing
    cfg_path = tmp_path / "huber.cfg"
    cfg_path.write_text("""
[problem]
kind = huber
[oracle]
kind = exact
[run]
stepsize_policy = theory_pl
""" + TUNE_POLICY)
    out = tmp_path / "out"
    assert cli.main(["tune", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "tune.csv").exists()
    assert (out / "race.svg").exists()


def test_tune_huber_shifted_writes_race(tmp_path):
    # the compressed cells' bounds cannot be fitted on the 1-d Huber problem;
    # the search does not need them, and the race figure no longer reruns
    cfg_path = tmp_path / "huber.cfg"
    cfg_path.write_text("""
[problem]
kind = huber
[oracle]
kind = huber_shifted
[sweep]
compressor = none, top_k
noise_sigma_sq = 0.0, 1.0
""" + TUNE_POLICY)
    out = tmp_path / "out"
    assert cli.main(["tune", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert len((out / "tune.csv").read_text().splitlines()) == 1 + 4 * 3
    assert "status=failed" not in (out / "tune_summary.txt").read_text()
    assert (out / "race.svg").read_text().count("(g=") == 4


def test_tune_failed_cells_same_under_workers(tmp_path, capsys):
    cfg_path = tmp_path / "tau.cfg"
    cfg_path.write_text("""
[problem]
kind = nesterov_quadratic
dim = 5
[oracle]
kind = gaussian_smoothing
[sweep]
tau = 0.1, 0.0
""" + TUNE_POLICY)
    outs = {}
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        assert cli.main(["tune", "--config", str(cfg_path), "--out", str(out),
                         "--workers", str(workers)]) == 0
        outs[workers] = {name: (out / name).read_bytes()
                         for name in ("tune.csv", "tune_summary.txt", "race.svg")}
    assert outs[1] == outs[2]
    summary = outs[1]["tune_summary.txt"].decode()
    assert "cell=tau=0.0 status=failed error=tau must be positive\n" in summary
    assert "cell=tau=0.1 best_gamma=" in summary
    rows = outs[1]["tune.csv"].decode().splitlines()[1:]
    assert len(rows) == 3 and all(r.startswith("tau=0.1,") for r in rows)
    assert outs[1]["race.svg"].decode().count("(g=") == 1
    assert "cell tau=0.0: FAILED (tau must be positive)" in capsys.readouterr().out


def test_verify_accepts_figure(tmp_path, capsys):
    assert cli.main(["verify", "--figure", "fig1", "--samples", "2000",
                     "--out", str(tmp_path / "f")]) == 0
    table = (tmp_path / "f/verify.md").read_text()
    cfg = figures.preset("fig1")
    _, direct = experiments.verify_experiment(cfg, out_dir=None, samples=2000)
    assert table == direct
    assert len(table.splitlines()) == 3  # header, rule, the preset's oracle
    assert capsys.readouterr().out.startswith("| oracle |")
