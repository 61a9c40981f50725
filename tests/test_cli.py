import subprocess
import sys
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np
import pytest

from biased_sgd import (StepSchedule, cli, config, estimators, experiments,
                        oracles, problems, sgd_run_repeated)
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
    for name in config.FIGURE_NAMES:
        cfg = config.preset(name)
        assert parse_config(serialize_config(cfg)) == cfg


def test_config_defaults_and_fingerprint():
    cfg = parse_config(MINI)
    assert cfg.run.x0_gap == 1.0
    assert cfg.oracle.compressor == "none"
    assert cfg.sweep is None and cfg.tune is None
    assert len(cfg.fingerprint()) == 16
    assert cfg.fingerprint() != config.preset("fig1").fingerprint()


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
    # the figure layout names sweep axes only
    ("[sweep]\nk = 1, 2\npanel_by = bogus\n",
     "sweep.panel_by names 'bogus', which is not a sweep axis (axes: k)"),
    ("[sweep]\nk = 1, 2\ntau = 0.1\npanel_by = k, delta\n",
     "sweep.panel_by names 'delta', which is not a sweep axis (axes: k, tau)"),
    ("[sweep]\nk = 1, 2\nseries_by = compressor\n",
     "sweep.series_by names 'compressor', which is not a sweep axis (axes: k)"),
    # a float field takes finite values only
    ("[run]\nstepsize = nan\n", "line 2: field 'stepsize' expects finite float, "
     "got 'nan'"),
    ("[run]\nT = 10\nstepsize = inf\n", "line 3: field 'stepsize' expects finite"),
    ("[run]\nx0_gap = nan\n", "line 2: field 'x0_gap' expects finite"),
    ("[oracle]\nnoise_sigma_sq = nan\n", "line 2: field 'noise_sigma_sq' expects finite"),
    ("[oracle]\nbias_zeta = inf\n", "line 2: field 'bias_zeta' expects finite"),
    ("[oracle]\nbias_zeta = -inf\n", "line 2: field 'bias_zeta' expects finite"),
    ("[oracle]\ntau = inf\n", "line 2: field 'tau' expects finite"),
    ("[tune]\ntarget_eps = nan\n", "line 2: field 'target_eps' expects finite"),
    ("[tune]\ngrid = 0.1, nan\n", "line 2: field 'grid' expects finite float, "
     "got 'nan'"),
    ("[sweep]\nnoise_sigma_sq = 0.0, nan\n",
     "line 2: field 'noise_sigma_sq' expects finite float, got 'nan'"),
    # a sweep axis value gets the checks of the field it sets, in its cell
    ("[sweep]\nnoise_sigma_sq = 0.0, -1.0\n",
     "sweep axis noise_sigma_sq = -1.0: oracle.noise_sigma_sq must be nonnegative"),
    ("[oracle]\nkind = gaussian_smoothing\n[sweep]\ntau = 0.1, 0.0\n",
     "sweep axis tau = 0.0: gaussian_smoothing oracle needs tau > 0"),
    ("[oracle]\nkind = inexact\n[sweep]\ndelta = 0.1, -0.5\n",
     "sweep axis delta = -0.5: inexact oracle needs delta >= 0"),
    ("[oracle]\ncompressor = scale\ndelta = 0.5\n[sweep]\ndelta = 0.5, 1.5\n",
     "sweep axis delta = 1.5: scale compressor needs delta in (0, 1]"),
    ("[sweep]\nstepsize = 0.1, -0.1\n",
     "sweep axis stepsize = -0.1: run.stepsize must be positive"),
    ("[sweep]\ncompressor = none, top_k\nk = 1, 11\n",
     "sweep axis k = 11, compressor = top_k: oracle.k must lie in [1, 10]"),
    # a repeated axis value would write one cell directory twice
    ("[sweep]\nk = 1, 1\n", "line 2: sweep axis 'k' repeats the value 1"),
    ("[run]\nT = 5\n[sweep]\nnoise_sigma_sq = 1.0, 0.5, 1.0\n",
     "line 4: sweep axis 'noise_sigma_sq' repeats the value 1.0"),
    # a repeated grid stepsize would step the same lanes twice
    ("[tune]\ngrid = 0.1, 0.1, 0.2\n", "line 2: tune.grid repeats the value 0.1"),
])
def test_parse_errors_carry_diagnostics(text, fragment):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize("text,message", [
    ("[problem]\nkind = bogus\n",
     "problem.kind must be one of ('nesterov_quadratic', 'huber'), got 'bogus'"),
    ("[oracle]\nkind = bogus\n",
     "oracle.kind must be one of ('exact', 'gaussian_smoothing', 'tightness', "
     "'inexact', 'huber_shifted'), got 'bogus'"),
    ("[oracle]\ncompressor = bogus\n",
     "oracle.compressor must be one of ('none', 'top_k', 'rand_k', "
     "'rand_k_unbiased', 'scale'), got 'bogus'"),
    ("[problem]\ndim = 1\n", "problem.dim must be >= 2 for the quadratic"),
    ("[oracle]\nkind = huber_shifted\n",
     "oracle.kind=huber_shifted requires problem.kind=huber"),
    ("[oracle]\nnoise_sigma_sq = -1.0\n", "oracle.noise_sigma_sq must be nonnegative"),
    ("[oracle]\nkind = tightness\nm = 1.0\nzeta_sq = 0.1\n",
     "tightness oracle needs 0 <= m < 1 and zeta_sq > 0"),
    ("[oracle]\nkind = tightness\nm = 0.5\n",
     "tightness oracle needs 0 <= m < 1 and zeta_sq > 0"),
    ("[oracle]\nkind = gaussian_smoothing\ntau = 0.0\n",
     "gaussian_smoothing oracle needs tau > 0"),
    ("[oracle]\nkind = inexact\ndelta = -0.1\n", "inexact oracle needs delta >= 0"),
    ("[oracle]\ncompressor = scale\n", "scale compressor needs delta in (0, 1]"),
    ("[oracle]\ncompressor = scale\ndelta = 1.5\n",
     "scale compressor needs delta in (0, 1]"),
    ("[oracle]\ncompressor = top_k\nk = 11\n", "oracle.k must lie in [1, 10]"),
    ("[oracle]\ncompressor = rand_k_unbiased\nk = 0\n", "oracle.k must lie in [1, 10]"),
    ("[problem]\nkind = huber\n[oracle]\ncompressor = rand_k\nk = 2\n",
     "oracle.k must lie in [1, 1]"),
    ("[oracle]\nkind = inexact\ndelta = 0.5\ncompressor = scale\n",
     "oracle.kind=inexact and compressor=scale both read oracle.delta; they "
     "cannot be combined"),
    ("[oracle]\nkind = inexact\ndelta = 0.5\n[sweep]\ncompressor = none, scale\n",
     "sweep axis compressor = scale: oracle.kind=inexact and compressor=scale "
     "both read oracle.delta; they cannot be combined"),
])
def test_validate_config_messages(text, message):
    # one invalid config per check, with the full text of its message
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert str(err.value) == message



def test_a_sweep_whose_every_cell_is_valid_runs(tmp_path):
    # compressor = scale fails alone (the base delta is 0), but the one cell
    # the sweep runs sets delta = 0.5 beside it
    text = "[run]\nT = 20\nreps = 2\n[sweep]\ncompressor = scale\ndelta = 0.5\n"
    cfg = parse_config(text)
    assert cfg.sweep.axes == (("delta", (0.5,)), ("compressor", ("scale",)))
    path = tmp_path / "scale.cfg"
    path.write_text(text)
    assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "s")]) == 0
    cell = tmp_path / "s" / "cells" / "delta=0.5_compressor=scale"
    assert "oracle = scale(delta=0.5)(exact)" in (cell / "summary.txt").read_text()
    assert (cell / "trace.csv").read_text().count("\n") == 22

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


# each figure preset's config fingerprint, which every output of it carries
PRESET_FINGERPRINTS = {"fig1": "13e598eadf3e6205", "fig2": "b2786c0257ffd64b",
                       "fig3": "012eb320a65317d7", "fig5": "9da05e364e8f6022",
                       "fig6": "4a3f202456a26865"}


@pytest.mark.parametrize("name", PRESET_FINGERPRINTS)
def test_config_files_are_the_presets_canonical_text(name):
    # a preset is its packaged file, kept in canonical form, and --figure
    # offers exactly the packaged files
    path = Path(config.__file__).parent / "configs" / f"{name}.cfg"
    cfg = config.preset(name)
    assert path.read_text(encoding="utf-8") == cfg.canonical()
    assert cfg.fingerprint() == PRESET_FINGERPRINTS[name]
    assert config.FIGURE_NAMES == tuple(PRESET_FINGERPRINTS)


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
    cfg = config.preset("fig1").with_overrides(T=200, reps=2)
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
    cfg = config.preset("fig1").with_overrides(T=100, reps=2)
    res = experiments.sweep_experiment(cfg, out_dir=str(tmp_path))
    svg = (tmp_path / "figure.svg").read_text()
    ok_cells = [rec for rec in res.cells if "error" not in rec]
    assert svg.count("<polyline") == len(ok_cells)
    manifest = (tmp_path / "manifest.txt").read_text()
    for rec in ok_cells:
        assert f"cell={rec['label']} " in manifest


def test_sweep_failed_cell_recorded_not_fatal(tmp_path, monkeypatch):
    cfg = config.preset("fig1").with_overrides(T=100, reps=2)
    real = experiments._build_run

    def flaky(sub_cfg, p):
        if sub_cfg.oracle.bias_zeta == 0.1 and sub_cfg.oracle.noise_sigma_sq == 0.0:
            raise RuntimeError("synthetic cell failure")
        return real(sub_cfg, p)

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


def test_a_tune_rerun_leaves_no_stale_race_figure(tmp_path):
    text = MINI + """
[tune]
target_eps = 0.01
max_T = 200
reps = 2
grid = 0.0625, 0.125
"""
    experiments.tune_experiment(parse_config(text), out_dir=str(tmp_path))
    assert (tmp_path / "race.svg").exists()
    # every stepsize diverges: no cell has a race curve
    res = experiments.tune_experiment(
        parse_config(text.replace("0.0625, 0.125", "5.0, 10.0")),
        out_dir=str(tmp_path))
    assert all(e.diverged for e in res.cells[0]["result"].entries)
    assert "best_gamma=did-not-reach" in (tmp_path / "tune_summary.txt").read_text()
    assert not (tmp_path / "race.svg").exists()


def test_a_sweep_whose_every_cell_fails_writes_no_figure(tmp_path):
    # the scale compressor over the noisy shifted derivative has no derived
    # bounds, and on the 1-d Huber problem none can be fitted: no cell runs
    text = """
[problem]
kind = huber
[oracle]
kind = exact
[run]
T = 50
reps = 1
[sweep]
noise_sigma_sq = 0.0, 1.0
"""
    experiments.sweep_experiment(parse_config(text), out_dir=str(tmp_path))
    assert (tmp_path / "figure.svg").exists()
    res = experiments.sweep_experiment(
        parse_config(text.replace("kind = exact", "kind = huber_shifted\n"
                                  "noise_sigma_sq = 1.0\ncompressor = scale\n"
                                  "delta = 0.5")),
        out_dir=str(tmp_path))
    assert len(res.cells) == 2 and all("error" in rec for rec in res.cells)
    assert "status=failed" in (tmp_path / "manifest.txt").read_text()
    # no figure, and the first run's is gone
    assert not (tmp_path / "figure.svg").exists()


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


def test_verify_shifted_huber_without_an_envelope_fit(tmp_path, capsys):
    # ||grad f + b||^2 = (h'(x) - 2)^2 spans less than 2 orders of magnitude
    # over the probe points: no envelope is fitted, and both verdicts stand
    path = tmp_path / "huber.cfg"
    path.write_text("[problem]\nkind = huber\n[oracle]\nkind = huber_shifted\n")
    assert cli.main(["verify", "--config", str(path), "--samples", "2000",
                     "--out", str(tmp_path / "v")]) == 0
    row = capsys.readouterr().out.splitlines()[2]
    assert row == "| huber_shifted | 0 | 4 | 0 | 0 | - | - | - | - " \
        "| verified | verified |"
    assert (tmp_path / "v/verify.md").read_text().splitlines()[2] == row


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


@pytest.mark.parametrize("command", ["run", "sweep", "tune", "verify", "budget"])
def test_config_and_figure_together_are_a_config_error(tmp_path, capsys, command):
    path = tmp_path / "c.cfg"
    path.write_text(MINI)
    assert cli.main([command, "--config", str(path), "--figure", "fig1",
                     "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == \
        "config error: pass --config or --figure, not both\n"
    assert not (tmp_path / "o").exists()


BEYOND_LIMIT = MINI + """x0_gap = 1e13

[sweep]
noise_sigma_sq = 0.0, 1.0

[tune]
target_eps = 0.001
max_T = 20
reps = 2
grid = 0.01, 0.1
"""


@pytest.mark.parametrize("command", ["run", "sweep", "tune"])
def test_a_start_beyond_the_divergence_limit_exits_2(tmp_path, capsys, command):
    # f(x0) - f* = 1e13 fails the divergence test before any step; it was
    # reported as every rep diverging at iterate 1
    path = tmp_path / "c.cfg"
    path.write_text(BEYOND_LIMIT)
    assert cli.main([command, "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2
    assert "error: x0 fails the divergence test" in capsys.readouterr().err

@pytest.mark.parametrize("kind", ["not_utf8", "directory"])
def test_an_unreadable_config_file_is_a_config_error(tmp_path, capsys, kind):
    path = tmp_path / "c.cfg"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(MINI.encode() + b"\xff\n")
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert f"config error: cannot read config {str(path)!r}: " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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


@pytest.mark.parametrize("eps", ["0", "-1", "nan", "inf"])
def test_budget_eps_must_be_positive_and_finite(tmp_path, capsys, eps):
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(MINI)
    assert cli.main(["budget", "--config", str(cfg_path), "--eps", eps]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"config error: eps must be positive and finite, got {float(eps)}\n"


def test_tune_without_a_tune_section_is_a_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(MINI)
    assert cli.main(["tune", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "config error: tune needs a [tune] section (or use --figure fig6)\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("samples", ["0", "1"])
def test_verify_rejects_fewer_than_two_samples(tmp_path, capsys, samples):
    assert cli.main(["verify", "--samples", samples,
                     "--out", str(tmp_path / "v")]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"config error: samples must be >= 2, got {samples}\n"
    assert not (tmp_path / "v/verify.md").exists()


def test_verify_rejects_fewer_than_two_samples_for_a_deterministic_config(
        tmp_path, capsys, monkeypatch):
    # the exact oracle alone is sampled twice whatever is asked, yet the
    # value is refused as it is for any other config, before a build
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(MINI.replace("noise_sigma_sq = 1.0\nbias_zeta = 0.1\n", ""))
    monkeypatch.setattr(experiments, "build_oracle", None)
    assert cli.main(["verify", "--config", str(cfg_path), "--samples", "-5",
                     "--out", str(tmp_path / "v")]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "config error: samples must be >= 2, got -5\n"
    assert not (tmp_path / "v").exists()


def test_sweep_workers_match_serial(tmp_path):
    cfg = config.preset("fig1").with_overrides(T=150, reps=2)
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
noise_sigma_sq = 1.0
compressor = scale
delta = 0.5

[run]
T = 20
reps = 2

[sweep]
stepsize = 0.1, 0.2
"""


def test_sweep_failed_cells_same_under_workers(tmp_path):
    # no bounds can be derived or fitted for FAILING_SWEEP's oracle (see
    # test_a_sweep_whose_every_cell_fails_writes_no_figure): every cell
    # fails, on the serial path and in the process pool alike
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
    assert out.agg.traces is None  # run writes no per-rep trace, so keeps none
    p = experiments.build_problem(cfg)
    o, _, sched = experiments._build_run(cfg, p)
    traces = sgd_run_repeated(p, o, sched, cfg.run.T, cfg.run.reps, cfg.run.seed,
                              x0=experiments._x0(cfg, p), keep_traces=True).traces
    # the first bad iterate is the one after the last recorded
    assert out.summary["diverged_detail"] == " ".join(
        f"{rep}:overflow@{len(tr.t)}" for rep, tr in enumerate(traces))
    assert all(len(tr.t) < cfg.run.T for tr in traces)
    assert f"diverged_detail = {out.summary['diverged_detail']}\n" in \
        (tmp_path / "o/summary.txt").read_text()
    clean = experiments.run_experiment(parse_config(MINI))
    assert clean.summary["diverged_detail"] == "-"


ESTIMATED_SWEEP = """
[problem]
kind = nesterov_quadratic
dim = 10

[oracle]
kind = exact
noise_sigma_sq = 1.0
k = 1

[run]
T = 50
reps = 2
stepsize = 0.01

[sweep]
compressor = none, rand_k, top_k
"""


def test_an_infeasible_bias_fit_fails_only_its_estimated_cell(tmp_path, capsys,
                                                               monkeypatch):
    # top-k over noise has no derived bounds, so its cell fits them; a fitted
    # bias slope that reaches 1 fails that cell alone in a sweep, and `run`
    # on the same cell exits 2 with the same message
    real = estimators.fit_oracle_bounds
    fitted = []

    def infeasible(o, p, **kwargs):
        fit = real(o, p, **kwargs)
        fitted.append(o.name)
        return replace(fit, bias_fit=replace(fit.bias_fit, slope=1.0,
                                             feasible=False))

    monkeypatch.setattr(estimators, "fit_oracle_bounds", infeasible)
    name = "top_k(k=1)(exact+noise(1))"
    error = (f"fitted bias slope for {name} reaches 1; the bound "
             "parameterization requires m < 1")
    cfg_path = tmp_path / "est.cfg"
    cfg_path.write_text(ESTIMATED_SWEEP)
    assert cli.main(["sweep", "--config", str(cfg_path),
                     "--out", str(tmp_path / "s")]) == 0
    manifest = (tmp_path / "s/manifest.txt").read_text()
    assert f"cell=compressor=top_k status=failed error={error}\n" in manifest
    assert manifest.count("status=failed") == 1
    for cell in ("none", "rand_k"):
        assert f"cell=compressor={cell} " in manifest
        assert (tmp_path / f"s/cells/compressor={cell}/trace.csv").exists()
    assert not (tmp_path / "s/cells/compressor=top_k").exists()
    capsys.readouterr()

    cfg_path.write_text(ESTIMATED_SWEEP.split("[sweep]")[0].replace(
        "k = 1", "k = 1\ncompressor = top_k"))
    assert cli.main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "r")]) == 2
    assert f"error: {error}\n" in capsys.readouterr().err
    assert not (tmp_path / "r/trace.csv").exists()
    assert fitted == [name] * 2


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
    # the search steps at its grid stepsizes, not at the theory one, and the
    # race figure comes from the search (theory_pl is refused on Huber,
    # which has no PL constant: test_theory_pl_needs_a_pl_constant)
    cfg_path = tmp_path / "huber.cfg"
    cfg_path.write_text("""
[problem]
kind = huber
[oracle]
kind = exact
[run]
stepsize_policy = theory_smooth
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


def test_huber_shifted_is_built_on_the_run_problem(monkeypatch):
    # the shifted oracle's exact first stage is keyed by the run problem's
    # grad_many, so it takes the gradients the record computed: one
    # grad_many row per rep and iterate over every Huber problem built
    rows = []
    real = problems.make_huber_problem

    def counting():
        p = real()
        grad_many = p.grad_many

        def counted(X):
            rows.append(len(X))
            return grad_many(X)
        return replace(p, grad_many=counted)

    monkeypatch.setattr(problems, "make_huber_problem", counting)
    monkeypatch.setattr(oracles, "make_huber_problem", counting)
    T, reps = 200, 2
    cfg = parse_config(f"""
[problem]
kind = huber
[oracle]
kind = huber_shifted
[run]
T = {T}
reps = {reps}
stepsize = 0.1
""")
    out = experiments.run_experiment(cfg)
    assert [d.reason for d in out.agg.diverged_reps] == ["monotone-increase"] * reps
    assert sum(rows) == reps * (T + 1)


def test_tune_failed_cells_same_under_workers(tmp_path, capsys, monkeypatch):
    # a valid config has no cell that fails to build, so the tau = 0.2 cell
    # fails by a patch, which the pool's forked processes keep
    real = experiments.build_oracle

    def build(cfg, p, *args, **kwargs):
        if cfg.oracle.tau == 0.2:
            raise ValueError("tau must be positive")
        return real(cfg, p, *args, **kwargs)

    monkeypatch.setattr(experiments, "build_oracle", build)
    cfg_path = tmp_path / "tau.cfg"
    cfg_path.write_text("""
[problem]
kind = nesterov_quadratic
dim = 5
[oracle]
kind = gaussian_smoothing
[sweep]
tau = 0.1, 0.2
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
    assert "cell=tau=0.2 status=failed error=tau must be positive\n" in summary
    assert "cell=tau=0.1 best_gamma=" in summary
    rows = outs[1]["tune.csv"].decode().splitlines()[1:]
    assert len(rows) == 3 and all(r.startswith("tau=0.1,") for r in rows)
    assert outs[1]["race.svg"].decode().count("(g=") == 1
    assert "cell tau=0.2: FAILED (tau must be positive)" in capsys.readouterr().out


def test_verify_accepts_figure(tmp_path, capsys):
    assert cli.main(["verify", "--figure", "fig1", "--samples", "2000",
                     "--out", str(tmp_path / "f")]) == 0
    table = (tmp_path / "f/verify.md").read_text()
    cfg = config.preset("fig1")
    _, direct = experiments.verify_experiment(cfg, out_dir=None, samples=2000)
    assert table == direct
    assert len(table.splitlines()) == 3  # header, rule, the preset's oracle
    assert capsys.readouterr().out.startswith("| oracle |")


WALL_CLOCK = """
[problem]
kind = nesterov_quadratic
dim = 5

[oracle]
kind = exact
noise_sigma_sq = 1.0
k = 1

[run]
T = 50
reps = 2

[sweep]
compressor = none, top_k
series_by = compressor

[tune]
target_eps = 0.05
max_T = 300
reps = 2
grid = 0.0625, 0.125, 0.25
"""

# the files reruns are compared by, byte for byte
_BYTE_COMPARED = ("trace.csv", "summary.txt", "manifest.txt", "sweep_summary.txt",
                  "tune.csv", "tune_summary.txt", "verify.md")


def test_no_wall_clock_value_reaches_a_byte_compared_file(tmp_path, monkeypatch):
    path = tmp_path / "tiny.cfg"
    path.write_text(WALL_CLOCK)
    commands = [["run"], ["sweep"], ["tune"], ["verify", "--samples", "2000"]]

    def outputs(out):
        for args in commands:
            assert cli.main(args + ["--config", str(path), "--workers", "1",
                                    "--out", str(out / args[0])]) == 0
        return {str(f.relative_to(out)): f.read_bytes() for f in out.rglob("*")
                if f.name in _BYTE_COMPARED or f.suffix == ".svg"}

    first = outputs(tmp_path / "a")
    # the top_k cell's bounds are fitted, so the estimators run too
    assert {"run/trace.csv", "sweep/manifest.txt", "sweep/figure.svg",
            "tune/tune.csv", "tune/race.svg", "verify/verify.md"} <= set(first)
    for name in ("time", "perf_counter", "monotonic", "process_time"):
        monkeypatch.setattr(time, name,
                            lambda real=getattr(time, name): real() + 1e9)
    assert outputs(tmp_path / "b") == first
