"""Experiment configuration: a flat key = value format with [section] headers.

The spec dataclasses below are the schema: each section is a spec, each key
one of its fields, read as the field's annotated type. The canonical
serialization (sections and keys in field order, shortest float
representation) is stable under parse -> serialize -> parse, and its hash is
embedded in every output file as the config fingerprint.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
from dataclasses import Field, dataclass, field, fields, replace
from typing import Callable, Optional

from . import compressors, oracles, problems

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
    panel_by: str = ""  # comma-separated sweep axes
    series_by: str = ""

    @property
    def panel_keys(self) -> list:
        return [k.strip() for k in self.panel_by.split(",") if k.strip()]


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
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, tuple):  # tune.grid: empty means the automatic grid
        return _fmt_list(v) or "auto"
    return str(v)


def _fmt_list(vals) -> str:
    return ", ".join(_fmt_value(v) for v in vals)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Sections in `ExperimentConfig` field order, each section's keys in its
    spec's field order; an unset [sweep] or [tune] is left out."""
    blocks = []
    for section in fields(cfg):
        spec = getattr(cfg, section.name)
        if spec is None:
            continue
        if isinstance(spec, SweepSpec):
            lines = [f"{key} = {_fmt_list(vals)}" for key, vals in spec.axes]
            lines += [f"{key} = {getattr(spec, key)}"
                      for key in ("panel_by", "series_by") if getattr(spec, key)]
        else:
            lines = [f"{f.name} = {_fmt_value(getattr(spec, f.name))}"
                     for f in fields(spec)]
        blocks.append("\n".join([f"[{section.name}]"] + lines))
    return "\n\n".join(blocks) + "\n"


def _parse_scalar(raw: str, line_no: int, key: str, want: type):
    """`raw` as a `want`; a float must be finite."""
    try:
        val = want(raw)
        if want is float and not math.isfinite(val):
            raise ValueError
        return val
    except ValueError:
        kind = "finite float" if want is float else want.__name__
        raise ConfigError(f"line {line_no}: field {key!r} expects {kind}, "
                          f"got {raw!r}") from None


def _parse_list(val: str, line_no: int, key: str, want: type, name: str) -> list:
    """The comma-separated values of `val`, which the list `name` may not repeat."""
    vals = [_parse_scalar(v.strip(), line_no, key, want) for v in val.split(",")
            if v.strip()]
    repeated = [v for i, v in enumerate(vals) if v in vals[:i]]
    if repeated:
        raise ConfigError(f"line {line_no}: {name} repeats the value "
                          f"{_fmt_value(repeated[0])}")
    return vals


# the value type of each annotation a spec field may have; any other
# annotation fails here, at import, instead of parsing as some other type
_ANNOTATION_TYPES = {"int": int, "float": float, "str": str, "tuple": tuple}
_SPECS = {"problem": ProblemSpec, "oracle": OracleSpec, "run": RunSpec,
          "tune": TuneSpec}


def _value_type(spec: type, f: Field) -> type:
    if f.type not in _ANNOTATION_TYPES:
        raise TypeError(f"{spec.__name__}.{f.name}: annotation {f.type!r} "
                        f"is not one of {tuple(_ANNOTATION_TYPES)}")
    return _ANNOTATION_TYPES[f.type]


_FIELD_TYPES = {(section, f.name): _value_type(spec, f)
                for section, spec in _SPECS.items() for f in fields(spec)}
# a sweep axis takes the type of the oracle or run field it sets
_SWEEP_TYPES = {key: _FIELD_TYPES.get(("oracle", key)) or _FIELD_TYPES[("run", key)]
                for key in SWEEP_KEYS}


def parse_config(text: str) -> ExperimentConfig:
    """Parse config text, reporting the offending line on any error.

    A key may be set only once per section; a section header may repeat.
    """
    section = None
    data: dict = {f.name: {} for f in fields(ExperimentConfig)}
    seen: set = set()
    set_on: dict = {}  # (section, key) -> the line that set it
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
        first = set_on.setdefault((section, key), line_no)
        if first != line_no:
            raise ConfigError(f"line {line_no}: {key!r} in [{section}] is already "
                              f"set on line {first}")
        if section == "sweep":
            if key in ("panel_by", "series_by"):
                data["sweep"][key] = val
                continue
            if key not in SWEEP_KEYS:
                raise ConfigError(f"line {line_no}: unknown sweep axis {key!r} "
                                  f"(allowed: {', '.join(SWEEP_KEYS)})")
            vals = _parse_list(val, line_no, key, _SWEEP_TYPES[key],
                               f"sweep axis {key!r}")
            if not vals:
                raise ConfigError(f"line {line_no}: sweep axis {key!r} is empty")
            data["sweep"][key] = vals
            continue
        want = _FIELD_TYPES.get((section, key))
        if want is None:
            raise ConfigError(f"line {line_no}: unknown field {key!r} in [{section}]")
        if want is tuple:  # tune.grid: stepsizes, or auto for the default grid
            data[section][key] = () if val == "auto" else tuple(
                _parse_list(val, line_no, key, float, f"{section}.{key}"))
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


@dataclass(frozen=True)
class Kind:
    """A problem kind, oracle kind or compressor that a config can name: every
    fact about it that validation, the builders and the run key read. A check
    (ok, message) rejects a config where ok(dim, *values) is false, with the
    values of the `reads` fields; its message may name {dim}."""

    # builds a problem from its dimension, an oracle from the problem and the
    # values, a compressor from the values and the dimension (None: none)
    make: Optional[Callable]
    reads: tuple = ()  # the OracleSpec fields it reads
    checks: tuple = ()
    dim: Optional[int] = None  # problems: fixed, else problem.dim
    pl: bool = True  # problems: whether there is a PL constant
    start: Optional[Callable] = None  # problems: (p, x0_gap) -> (x0, f(x0) - f*)
    problem: Optional[str] = None  # oracles: the problem kind it needs
    identity: Optional[Callable] = None  # compressors: (dim, *values) -> bool

    def values(self, spec) -> list:
        return [getattr(spec, f) for f in self.reads]

    def check(self, dim: int, o: OracleSpec) -> None:
        for ok, message in self.checks:
            if not ok(dim, *self.values(o)):
                raise ConfigError(message.format(dim=dim))


PROBLEMS = {
    "nesterov_quadratic": Kind(problems.make_nesterov_worst, checks=(
        (lambda dim: dim >= 2, "problem.dim must be >= 2 for the quadratic"),),
        start=lambda p, gap: (problems.scaled_x0(p, gap), gap)),
    "huber": Kind(lambda dim: problems.make_huber_problem(), dim=1, pl=False,
                  start=lambda p, gap: (p.default_x0, p.gap(p.default_x0))),
}

ORACLES = {
    "exact": Kind(oracles.exact_oracle),
    "gaussian_smoothing": Kind(oracles.gaussian_smoothing_oracle, ("tau",), (
        (lambda dim, tau: tau > 0, "gaussian_smoothing oracle needs tau > 0"),)),
    "tightness": Kind(
        lambda p, m, zeta_sq: oracles.tightness_oracle(
            p, m, zeta_sq, math.sqrt(zeta_sq) * oracles.uniform_direction(p.dim)),
        ("m", "zeta_sq"), ((lambda dim, m, zeta_sq: 0 <= m < 1 and zeta_sq > 0,
                            "tightness oracle needs 0 <= m < 1 and zeta_sq > 0"),)),
    "inexact": Kind(oracles.inexact_oracle, ("delta",), (
        (lambda dim, delta: delta >= 0, "inexact oracle needs delta >= 0"),)),
    "huber_shifted": Kind(lambda p: oracles.huber_shifted_oracle(p)[1], problem="huber"),
}

_KEEPS_K = dict(reads=("k",), identity=lambda dim, k: k == dim, checks=(
    (lambda dim, k: 1 <= k <= dim, "oracle.k must lie in [1, {dim}]"),))
COMPRESSORS = {
    "none": Kind(None, identity=lambda dim: True),
    "top_k": Kind(compressors.top_k_compressor, **_KEEPS_K),
    "rand_k": Kind(compressors.rand_k_compressor, **_KEEPS_K),
    "rand_k_unbiased": Kind(compressors.rand_k_unbiased_compressor, **_KEEPS_K),
    "scale": Kind(compressors.scale_compressor, ("delta",), (
        (lambda dim, delta: 0 < delta <= 1, "scale compressor needs delta in (0, 1]"),),
        identity=lambda dim, delta: delta == 1.0),
}


def problem_dim(spec) -> int:
    """The dimension of the problem a `ProblemSpec` builds."""
    return PROBLEMS[spec.kind].dim or spec.dim


def _kind(table: dict, field: str, name: str):
    if name not in table:
        raise ConfigError(f"{field} must be one of {tuple(table)}, got {name!r}")
    return table[name]


def validate_config(cfg: ExperimentConfig) -> None:
    p, o, r = cfg.problem, cfg.oracle, cfg.run
    problem = _kind(PROBLEMS, "problem.kind", p.kind)
    dim = problem_dim(p)
    problem.check(dim, o)
    oracle = _kind(ORACLES, "oracle.kind", o.kind)
    compressor = _kind(COMPRESSORS, "oracle.compressor", o.compressor)
    if oracle.problem not in (None, p.kind):
        raise ConfigError(f"oracle.kind={o.kind} requires problem.kind={oracle.problem}")
    if o.noise_sigma_sq < 0:
        raise ConfigError("oracle.noise_sigma_sq must be nonnegative")
    oracle.check(dim, o)
    compressor.check(dim, o)
    if r.T < 1 or r.reps < 1:
        raise ConfigError("run.T and run.reps must be >= 1")
    if r.stepsize <= 0:
        raise ConfigError("run.stepsize must be positive")
    if r.stepsize_policy not in ("fixed", "theory_pl", "theory_smooth"):
        raise ConfigError("run.stepsize_policy must be fixed, theory_pl, or theory_smooth")
    if r.stepsize_policy == "theory_pl" and not problem.pl:
        raise ConfigError("stepsize_policy=theory_pl needs a problem with a PL constant")
    if r.policy_eps <= 0:
        raise ConfigError("run.policy_eps must be positive")
    if r.x0_gap < 0:
        raise ConfigError("run.x0_gap must be nonnegative")
    shared = [f for f in oracle.reads if f in compressor.reads]
    if shared:
        raise ConfigError(f"oracle.kind={o.kind} and compressor={o.compressor} both "
                          f"read oracle.{shared[0]}; they cannot be combined")
    if cfg.sweep is not None:
        axes = [key for key, _ in cfg.sweep.axes]
        named = [("panel_by", key) for key in cfg.sweep.panel_keys]
        for name, key in named + [("series_by", cfg.sweep.series_by.strip())]:
            if key and key not in axes:
                raise ConfigError(f"sweep.{name} names {key!r}, which is not a "
                                  f"sweep axis (axes: {', '.join(axes) or 'none'})")
        # a failing cell names its first value that fails alone, else itself
        base = replace(cfg, sweep=None, tune=None)

        def error(cell: list) -> Optional[ConfigError]:
            try:
                validate_config(base.with_overrides(**dict(cell)))
            except ConfigError as exc:
                return exc
            return None

        for combo in itertools.product(*[vals for _, vals in cfg.sweep.axes]):
            cell = list(zip(axes, combo))
            if error(cell):
                cell = next(([one] for one in cell if error([one])), cell)
                where = ", ".join(f"{k} = {_fmt_value(v)}" for k, v in cell)
                raise ConfigError(f"sweep axis {where}: {error(cell)}") from None
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
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    return parse_config(text)


# the figure presets are the packaged config files configs/NAME.cfg
_PRESET_DIR = os.path.join(os.path.dirname(__file__), "configs")
FIGURE_NAMES = tuple(sorted(name[:-len(".cfg")] for name in os.listdir(_PRESET_DIR)
                            if name.endswith(".cfg")))


def preset(name: str) -> ExperimentConfig:
    """The figure preset `name`, read from its packaged config file."""
    return load_config(os.path.join(_PRESET_DIR, f"{name}.cfg"))
