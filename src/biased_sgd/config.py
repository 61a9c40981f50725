"""Experiment configuration: a flat key = value format with [section] headers.

The canonical serialization (fixed section and key order, shortest float
representation) is stable under parse -> serialize -> parse, and its hash is
embedded in every output file as the config fingerprint.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Optional

PROBLEM_KINDS = ("nesterov_quadratic", "huber")
ORACLE_KINDS = ("exact", "gaussian_smoothing", "tightness", "inexact",
                "huber_shifted")
COMPRESSOR_NAMES = ("none", "top_k", "rand_k", "rand_k_unbiased", "scale")
SWEEP_KEYS = ("noise_sigma_sq", "bias_zeta", "k", "tau", "delta",
              "compressor", "stepsize")


class ConfigError(ValueError):
    """Config parse or validation failure, with line diagnostics when parsing."""


@dataclass(frozen=True)
class ProblemSpec:
    kind: str = "nesterov_quadratic"
    dim: int = 10


@dataclass(frozen=True)
class OracleSpec:
    """Oracle composition chain: base kind -> +noise -> +bias -> compressor."""

    kind: str = "exact"
    noise_sigma_sq: float = 0.0
    bias_zeta: float = 0.0
    compressor: str = "none"
    k: int = 1
    delta: float = 0.0
    tau: float = 0.01
    m: float = 0.0
    zeta_sq: float = 0.0


@dataclass(frozen=True)
class RunSpec:
    T: int = 10_000
    reps: int = 20
    seed: int = 1234
    stepsize: float = 0.01
    # fixed: use `stepsize` as is; theory_pl / theory_smooth: derive the
    # stepsize from the oracle bounds at accuracy `policy_eps`
    stepsize_policy: str = "fixed"
    policy_eps: float = 0.001
    x0_gap: float = 1.0


@dataclass(frozen=True)
class SweepSpec:
    axes: tuple = ()  # ((key, (values...)), ...) in canonical key order
    panel_by: str = ""
    series_by: str = ""


@dataclass(frozen=True)
class TuneSpec:
    target_eps: float = 5e-4
    max_T: int = 1_000_000
    reps: int = 3
    grid: tuple = ()  # empty = automatic log grid


@dataclass(frozen=True)
class ExperimentConfig:
    problem: ProblemSpec = field(default_factory=ProblemSpec)
    oracle: OracleSpec = field(default_factory=OracleSpec)
    run: RunSpec = field(default_factory=RunSpec)
    sweep: Optional[SweepSpec] = None
    tune: Optional[TuneSpec] = None

    def canonical(self) -> str:
        return serialize_config(self)

    def fingerprint(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:16]

    def with_overrides(self, **oracle_or_run) -> "ExperimentConfig":
        """New config with oracle/run fields replaced (used for sweep cells)."""
        o, r = self.oracle, self.run
        for key, val in oracle_or_run.items():
            if hasattr(o, key):
                o = replace(o, **{key: val})
            elif hasattr(r, key):
                r = replace(r, **{key: val})
            else:
                raise ConfigError(f"unknown override key {key!r}")
        return replace(self, oracle=o, run=r)


def _fmt_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _fmt_list(vals) -> str:
    return ", ".join(_fmt_value(v) for v in vals)


def serialize_config(cfg: ExperimentConfig) -> str:
    lines = ["[problem]",
             f"kind = {cfg.problem.kind}",
             f"dim = {cfg.problem.dim}",
             "",
             "[oracle]",
             f"kind = {cfg.oracle.kind}",
             f"noise_sigma_sq = {_fmt_value(cfg.oracle.noise_sigma_sq)}",
             f"bias_zeta = {_fmt_value(cfg.oracle.bias_zeta)}",
             f"compressor = {cfg.oracle.compressor}",
             f"k = {cfg.oracle.k}",
             f"delta = {_fmt_value(cfg.oracle.delta)}",
             f"tau = {_fmt_value(cfg.oracle.tau)}",
             f"m = {_fmt_value(cfg.oracle.m)}",
             f"zeta_sq = {_fmt_value(cfg.oracle.zeta_sq)}",
             "",
             "[run]",
             f"T = {cfg.run.T}",
             f"reps = {cfg.run.reps}",
             f"seed = {cfg.run.seed}",
             f"stepsize = {_fmt_value(cfg.run.stepsize)}",
             f"stepsize_policy = {cfg.run.stepsize_policy}",
             f"policy_eps = {_fmt_value(cfg.run.policy_eps)}",
             f"x0_gap = {_fmt_value(cfg.run.x0_gap)}"]
    if cfg.sweep is not None:
        lines += ["", "[sweep]"]
        for key, vals in cfg.sweep.axes:
            lines.append(f"{key} = {_fmt_list(vals)}")
        if cfg.sweep.panel_by:
            lines.append(f"panel_by = {cfg.sweep.panel_by}")
        if cfg.sweep.series_by:
            lines.append(f"series_by = {cfg.sweep.series_by}")
    if cfg.tune is not None:
        lines += ["", "[tune]",
                  f"target_eps = {_fmt_value(cfg.tune.target_eps)}",
                  f"max_T = {cfg.tune.max_T}",
                  f"reps = {cfg.tune.reps}"]
        lines.append("grid = auto" if not cfg.tune.grid
                      else f"grid = {_fmt_list(cfg.tune.grid)}")
    return "\n".join(lines) + "\n"


def _parse_scalar(raw: str, line_no: int, key: str, want: type):
    try:
        if want is int:
            return int(raw)
        if want is float:
            return float(raw)
    except ValueError:
        raise ConfigError(f"line {line_no}: field {key!r} expects {want.__name__}, "
                          f"got {raw!r}") from None
    return raw


_FIELD_TYPES = {
    ("problem", "kind"): str, ("problem", "dim"): int,
    ("oracle", "kind"): str, ("oracle", "noise_sigma_sq"): float,
    ("oracle", "bias_zeta"): float, ("oracle", "compressor"): str,
    ("oracle", "k"): int, ("oracle", "delta"): float, ("oracle", "tau"): float,
    ("oracle", "m"): float, ("oracle", "zeta_sq"): float,
    ("run", "T"): int, ("run", "reps"): int, ("run", "seed"): int,
    ("run", "stepsize"): float, ("run", "stepsize_policy"): str,
    ("run", "policy_eps"): float, ("run", "x0_gap"): float,
    ("tune", "target_eps"): float, ("tune", "max_T"): int,
    ("tune", "reps"): int, ("tune", "grid"): str,
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse config text, reporting the offending line on any error."""
    section = None
    data: dict = {"problem": {}, "oracle": {}, "run": {}, "sweep": {}, "tune": {}}
    seen: set = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in data:
                raise ConfigError(f"line {line_no}: unknown section [{section}]")
            seen.add(section)
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw!r}")
        if section is None:
            raise ConfigError(f"line {line_no}: key outside any [section]")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if section == "sweep":
            if key in ("panel_by", "series_by"):
                data["sweep"][key] = val
                continue
            if key not in SWEEP_KEYS:
                raise ConfigError(f"line {line_no}: unknown sweep axis {key!r} "
                                  f"(allowed: {', '.join(SWEEP_KEYS)})")
            want = str if key == "compressor" else (int if key == "k" else float)
            vals = [_parse_scalar(v.strip(), line_no, key, want)
                    for v in val.split(",") if v.strip()]
            if not vals:
                raise ConfigError(f"line {line_no}: sweep axis {key!r} is empty")
            data["sweep"][key] = vals
            continue
        want = _FIELD_TYPES.get((section, key))
        if want is None:
            raise ConfigError(f"line {line_no}: unknown field {key!r} in [{section}]")
        if section == "tune" and key == "grid":
            if val == "auto":
                data["tune"]["grid"] = ()
            else:
                data["tune"]["grid"] = tuple(
                    _parse_scalar(v.strip(), line_no, key, float)
                    for v in val.split(",") if v.strip())
            continue
        data[section][key] = _parse_scalar(val, line_no, key, want)

    cfg = ExperimentConfig(
        problem=ProblemSpec(**data["problem"]),
        oracle=OracleSpec(**data["oracle"]),
        run=RunSpec(**data["run"]),
        sweep=_build_sweep(data["sweep"]) if "sweep" in seen else None,
        tune=TuneSpec(**data["tune"]) if "tune" in seen else None,
    )
    validate_config(cfg)
    return cfg


def _build_sweep(raw: dict) -> SweepSpec:
    panel_by = raw.pop("panel_by", "")
    series_by = raw.pop("series_by", "")
    axes = tuple((k, tuple(raw[k])) for k in SWEEP_KEYS if k in raw)
    return SweepSpec(axes=axes, panel_by=panel_by, series_by=series_by)


def problem_dim(p: ProblemSpec) -> int:
    """The dimension of the problem a spec builds (the Huber problem is 1-d)."""
    return 1 if p.kind == "huber" else p.dim


def validate_config(cfg: ExperimentConfig) -> None:
    p, o, r = cfg.problem, cfg.oracle, cfg.run
    if p.kind not in PROBLEM_KINDS:
        raise ConfigError(f"problem.kind must be one of {PROBLEM_KINDS}, got {p.kind!r}")
    if p.kind == "nesterov_quadratic" and p.dim < 2:
        raise ConfigError("problem.dim must be >= 2 for the quadratic")
    if o.kind not in ORACLE_KINDS:
        raise ConfigError(f"oracle.kind must be one of {ORACLE_KINDS}, got {o.kind!r}")
    if o.compressor not in COMPRESSOR_NAMES:
        raise ConfigError(f"oracle.compressor must be one of {COMPRESSOR_NAMES}, "
                          f"got {o.compressor!r}")
    if o.kind == "huber_shifted" and p.kind != "huber":
        raise ConfigError("oracle.kind=huber_shifted requires problem.kind=huber")
    if o.noise_sigma_sq < 0:
        raise ConfigError("oracle.noise_sigma_sq must be nonnegative")
    if o.kind == "tightness" and not (0 <= o.m < 1 and o.zeta_sq > 0):
        raise ConfigError("tightness oracle needs 0 <= m < 1 and zeta_sq > 0")
    if o.kind == "gaussian_smoothing" and o.tau <= 0:
        raise ConfigError("gaussian_smoothing oracle needs tau > 0")
    if o.kind == "inexact" and o.delta < 0:
        raise ConfigError("inexact oracle needs delta >= 0")
    dim = problem_dim(p)
    if o.compressor != "none":
        if o.compressor == "scale":
            if not 0 < o.delta <= 1:
                raise ConfigError("scale compressor needs delta in (0, 1]")
        elif not 1 <= o.k <= dim:
            raise ConfigError(f"oracle.k must lie in [1, {dim}]")
    if r.T < 1 or r.reps < 1:
        raise ConfigError("run.T and run.reps must be >= 1")
    if r.stepsize <= 0:
        raise ConfigError("run.stepsize must be positive")
    if r.stepsize_policy not in ("fixed", "theory_pl", "theory_smooth"):
        raise ConfigError("run.stepsize_policy must be fixed, theory_pl, or theory_smooth")
    if r.policy_eps <= 0:
        raise ConfigError("run.policy_eps must be positive")
    if r.x0_gap < 0:
        raise ConfigError("run.x0_gap must be nonnegative")
    compressors = {o.compressor}
    if cfg.sweep is not None:
        for key, vals in cfg.sweep.axes:
            if key == "k" and any(not 1 <= v <= dim for v in vals):
                raise ConfigError(f"sweep k values must lie in [1, {dim}]")
            if key == "compressor":
                if any(v not in COMPRESSOR_NAMES for v in vals):
                    raise ConfigError("sweep compressor values must be in "
                                      f"{COMPRESSOR_NAMES}")
                compressors = set(vals)
    if o.kind == "inexact" and "scale" in compressors:
        raise ConfigError("oracle.kind=inexact and compressor=scale both read "
                          "oracle.delta; they cannot be combined")
    if cfg.tune is not None:
        if cfg.tune.target_eps <= 0:
            raise ConfigError("tune.target_eps must be positive")
        if cfg.tune.max_T < 1 or cfg.tune.reps < 1:
            raise ConfigError("tune.max_T and tune.reps must be >= 1")
        if any(g <= 0 for g in cfg.tune.grid):
            raise ConfigError("tune.grid stepsizes must be positive")


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    return parse_config(text)
