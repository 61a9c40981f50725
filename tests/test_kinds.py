"""The tables of problem kinds, oracle kinds and compressors
(`config.PROBLEMS`, `ORACLES`, `COMPRESSORS`) against their readers: config
validation, the run key and README."""

import itertools
import re
from dataclasses import fields, replace
from pathlib import Path

import pytest

from biased_sgd import cli, experiments
from biased_sgd.config import (COMPRESSORS, ORACLES, PROBLEMS, ConfigError,
                               OracleSpec, parse_config, problem_dim)

PL_MESSAGE = "stepsize_policy=theory_pl needs a problem with a PL constant"

# two valid values of each field that some oracle kind or compressor reads
VALUES = {"k": (1, 2), "tau": (0.1, 0.01), "m": (0.5, 0.25),
          "zeta_sq": (0.1, 0.2), "delta": (0.5, 0.25)}


@pytest.mark.parametrize("command", ["run", "sweep", "tune", "verify", "budget"])
def test_theory_pl_needs_a_pl_constant(tmp_path, capsys, command):
    # refused when the config is read, by every command alike, sweep axes or not
    no_pl = [name for name, kind in PROBLEMS.items() if not kind.pl]
    assert no_pl == ["huber"]
    text = ("[problem]\nkind = huber\n[run]\nT = 20\nreps = 2\n"
            "stepsize_policy = theory_pl\n[sweep]\nnoise_sigma_sq = 0.0, 1.0\n"
            "[tune]\nmax_T = 50\n")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert str(err.value) == PL_MESSAGE
    path = tmp_path / "huber.cfg"
    path.write_text(text)
    assert cli.main([command, "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"config error: {PL_MESSAGE}\n"
    assert not (tmp_path / "out").exists()
    # a problem with a PL constant takes it
    parse_config(text.replace("kind = huber", "kind = nesterov_quadratic"))


def test_every_oracle_field_is_read_by_the_chain_or_a_registry_entry():
    # the chain reads kind, noise_sigma_sq, bias_zeta and compressor; any
    # other field must be some entry's, or _run_config would keep it as is
    read = {f for kind in (*ORACLES.values(), *COMPRESSORS.values())
            for f in kind.reads}
    assert read == set(VALUES)
    assert {f.name for f in fields(OracleSpec)} == \
        read | {"kind", "noise_sigma_sq", "bias_zeta", "compressor"}


@pytest.mark.parametrize("kind,compressor", itertools.product(ORACLES, COMPRESSORS))
def test_run_config_splits_on_exactly_the_fields_the_entries_read(kind, compressor):
    problem = ORACLES[kind].problem or "nesterov_quadratic"
    text = (f"[problem]\nkind = {problem}\n[oracle]\nkind = {kind}\n"
            f"compressor = {compressor}\nnoise_sigma_sq = 1.0\n"
            + "".join(f"{f} = {vals[0]}\n" for f, vals in VALUES.items()))
    shared = set(ORACLES[kind].reads) & set(COMPRESSORS[compressor].reads)
    if shared:  # an oracle kind and a compressor may not read one field
        with pytest.raises(ConfigError, match="they cannot be combined"):
            parse_config(text)
        return
    cfg = parse_config(text)

    def key(f, val):
        return experiments._run_config(replace(
            cfg, oracle=replace(cfg.oracle, **{f: val}))).canonical()

    base = experiments._run_config(cfg).canonical()
    read = ORACLES[kind].reads + COMPRESSORS[compressor].reads
    for f, (_, other) in VALUES.items():
        if f not in read:
            assert key(f, other) == base, f
        elif not (f == "k" and problem_dim(cfg.problem) == 1):
            # (on the 1-d Huber problem k = 1 is the only valid k)
            assert key(f, other) != base, f


def test_readme_config_comment_names_the_registry():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    (block,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
    lists, section = {}, None
    for line in block.splitlines():
        if line.startswith("["):
            section = line.strip("[]")
        elif "=" in line.split("#", 1)[0] and "#" in line:
            key = line.split("=", 1)[0].strip()
            lists[(section, key)] = line.split("#", 1)[1].strip()
    names = {key: [v.strip() for v in lists[key].split("|")]
             for key in (("problem", "kind"), ("oracle", "kind"),
                         ("oracle", "compressor"))}
    assert names == {("problem", "kind"): list(PROBLEMS),
                     ("oracle", "kind"): list(ORACLES),
                     ("oracle", "compressor"): list(COMPRESSORS)}
    reads_k = " / ".join(name for name, c in COMPRESSORS.items() if "k" in c.reads)
    assert lists[("oracle", "k")] == f"kept coordinates for {reads_k}"


@pytest.mark.parametrize("name", [n for n, c in COMPRESSORS.items() if c.make])
def test_identity_rule_is_that_of_the_compressor_built(name):
    # the run key's rule (an identity compressor runs as none) and the one
    # `compressed_oracle` reads (`Compressor.identity`) agree
    kind, dim = COMPRESSORS[name], 10
    (field,) = kind.reads
    for value in {"k": (1, 9, 10), "delta": (0.36, 1.0)}[field]:
        assert kind.identity(dim, value) == kind.make(value, dim).identity
