"""Check that the CLI's outputs are those of another git revision, and that
they do not depend on `--workers`.

    python tools/parity.py REV

Extracts REV's `src/` with `git archive` into a temporary directory, runs one
fixed list of 39 `biased-sgd` commands on that tree and on this checkout's
`src/` (BLAS threads set to 1), and compares each command's exit code,
printed output and output files, with the output path and each tree's `src`
path masked. In the checkout, a command run under `--workers n` is compared
the same way with its `--workers 1` twin. Prints first the line count of the
`*.py` files under each tree's `src/` and the change (`src/: 3,587 lines at
REV, 3,566 here (-21)`), then one line per command: the result against REV
(`same` or `differs: <first file>`), the result against the twin where it
has one, `failed` if the command exits non-zero in the checkout, and the
wall time on each tree; exits 1 if any command fails or any comparison
differs. With REV = HEAD on a clean checkout, every command is
rerun on the same code.

One command, `tune tune_long`, runs a search that stays above its target
past the race horizon (210,000 steps, one stepsize and one rep), so its race
curve is read back from 200,001 history rows; in `tune tune_diverged` every
stepsize of one cell diverges, so that cell has no race curve. `tune --figure
fig6` is left out (about 70 s per tree on one core); to check it, extract
REV's `src/` the same way and compare by hand:

    mkdir rev && git archive REV src | tar -x -C rev
    PYTHONPATH=rev/src python -m biased_sgd.cli tune --figure fig6 --out a
    PYTHONPATH=src python -m biased_sgd.cli tune --figure fig6 --out b
    diff -r a b
"""

from __future__ import annotations

import argparse
import io
import os
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_TUNE = """\
[problem]
kind = nesterov_quadratic
dim = 10

[oracle]
kind = exact
k = 1

[sweep]
compressor = none, top_k, rand_k
noise_sigma_sq = {noise}
{bias}panel_by = noise_sigma_sq
series_by = compressor

[tune]
target_eps = 0.0005
max_T = {max_T}
reps = 3
grid = auto
"""

CONFIGS = {
    # 3 compressors x 2 noise levels at k = 1, no two cells alike
    "tune_k1": _TUNE.format(noise="0.0, 1.0", bias="", max_T=5000),
    # 12 searches sharing the gradient and the noise draws, while the bias
    # and compressor stages differ
    "tune_mixed": _TUNE.format(noise="1.0, 100.0", bias="bias_zeta = 0.0, 0.1\n",
                               max_T=2000),
    # k = 3, so the argsort and partition paths, with stepsizes that diverge
    # mid-search (1.2 in every cell, 0.6 for top-k at sigma^2 = 1), so lanes
    # and their stepsize rows drop while the other lanes step on
    "k3_drops": """\
[problem]
kind = nesterov_quadratic
dim = 10

[oracle]
kind = exact
k = 3

[sweep]
compressor = top_k, rand_k
noise_sigma_sq = 0.0, 1.0
panel_by = noise_sigma_sq
series_by = compressor

[tune]
target_eps = 0.0005
max_T = 3000
reps = 3
grid = 0.05, 0.3, 0.6, 1.2
""",
    # one search censored past the race horizon: log-spaced history rows
    # after the dense ones, and a race curve read back from the first 200,001
    "tune_long": """\
[problem]
kind = nesterov_quadratic
dim = 10

[oracle]
kind = exact
noise_sigma_sq = 100.0

[tune]
target_eps = 0.0005
max_T = 210000
reps = 1
grid = 0.01
""",
    # a cell whose every stepsize diverges (none: no race curve, so no race
    # series) beside one that reaches (rand_k, at 0.6)
    "tune_diverged": """\
[problem]
kind = nesterov_quadratic
dim = 10

[oracle]
kind = exact
k = 1

[sweep]
compressor = none, rand_k
series_by = compressor

[tune]
target_eps = 0.0005
max_T = 2000
reps = 3
grid = 0.6, 1.2
""",
    # Gaussian smoothing under noise: normals drawn in two stages (and, for
    # verify, one oracle on its own)
    "gs_noise": """\
[oracle]
kind = gaussian_smoothing
noise_sigma_sq = 1.0

[run]
T = 2000
reps = 10

[sweep]
tau = 0.1, 0.01
""",
    # a run at `theory.pl_stepsize`, so that a change to the theory's
    # stepsizes shows in the printed and written numbers
    "theory_pl": """\
[problem]
kind = nesterov_quadratic
dim = 10

[oracle]
kind = exact
noise_sigma_sq = 1.0

[run]
T = 2000
reps = 5
stepsize_policy = theory_pl
""",
    # sigma^2 > 0 and zeta^2 > 0, for `budget`: the proof stepsizes' noise
    # term shows, where the presets (sigma^2 = 0) print only the cap
    "noisy_bias": """\
[problem]
kind = nesterov_quadratic
dim = 10

[oracle]
kind = exact
noise_sigma_sq = 1.0
bias_zeta = 0.1
""",
    # top-k (k = 1) over sigma^2 = 1 noise, which no composition rule covers,
    # so `run`, `budget` and `verify` fit its bounds, as only sweep cells do
    # among the presets
    "topk_noise": """\
[problem]
kind = nesterov_quadratic
dim = 10

[oracle]
kind = exact
noise_sigma_sq = 1.0
compressor = top_k
k = 1

[run]
T = 2000
reps = 5
""",
    # the deterministic oracle whose bias bound holds with equality
    "tightness": """\
[problem]
kind = nesterov_quadratic
dim = 10

[oracle]
kind = tightness
m = 0.5
zeta_sq = 0.01

[run]
T = 2000
reps = 3
""",
    # the 1-D shifted derivative on the Huber problem: both reps walk away
    # from the minimizer and end `monotone-increase@200`; for `verify`, its
    # ||grad f + b||^2 spans too little for an envelope fit
    "huber_shifted": """\
[problem]
kind = huber

[oracle]
kind = huber_shifted

[run]
T = 200
reps = 2
stepsize = 0.1
""",
    # the inexact oracle under noise: the noise stage is added over the
    # inexact oracle's bias, as over every other base oracle
    "inexact_noise": """\
[problem]
kind = nesterov_quadratic
dim = 10

[oracle]
kind = inexact
delta = 0.1
noise_sigma_sq = 1.0

[run]
T = 500
reps = 3
""",
    # the scaled (unbiased) rand-k over noise, k = d included
    "unbiased": """\
[problem]
kind = nesterov_quadratic
dim = 10

[oracle]
kind = exact
noise_sigma_sq = 1.0
compressor = rand_k_unbiased

[run]
T = 2000
reps = 5

[sweep]
k = 1, 3, 10
""",
}


def commands() -> list:
    """(label, CLI arguments) per command; `{cfg}` is the config directory.
    Each `--workers 1` command comes before its `--workers n` twins, which
    `compare` checks against it."""
    cmds = [(f"sweep {fig} --workers {w}",
             ["sweep", "--figure", fig, "--workers", str(w)])
            for fig in ("fig1", "fig2", "fig3", "fig5", "fig6") for w in (1, 2)]
    cmds += [("run fig1", ["run", "--figure", "fig1"]),
             ("run fig1 --seed 1", ["run", "--figure", "fig1", "--seed", "1"]),
             ("run theory_pl", ["run", "--config", "{cfg}/theory_pl.cfg"])]
    cmds += [(f"tune tune_k1 --workers {w}",
              ["tune", "--config", "{cfg}/tune_k1.cfg", "--workers", str(w)])
             for w in (1, 2, 4)]
    cmds += [(f"tune tune_mixed --workers {w}",
              ["tune", "--config", "{cfg}/tune_mixed.cfg", "--workers", str(w)])
             for w in (1, 3)]
    cmds += [(f"tune {name}", ["tune", "--config", f"{{cfg}}/{name}.cfg"])
             for name in ("tune_long", "tune_diverged")]
    cmds += [(f"tune k3_drops --workers {w}",
              ["tune", "--config", "{cfg}/k3_drops.cfg", "--workers", str(w)])
             for w in (1, 2)]
    cmds += [(f"sweep gs_noise --workers {w}",
              ["sweep", "--config", "{cfg}/gs_noise.cfg", "--workers", str(w)])
             for w in (1, 2)]
    cmds += [("verify --samples 20000", ["verify", "--samples", "20000"]),
             ("verify --samples 20000 --seed 1",
              ["verify", "--samples", "20000", "--seed", "1"]),
             ("verify fig1 --samples 20000",
              ["verify", "--figure", "fig1", "--samples", "20000"]),
             ("verify gs_noise --samples 20000",
              ["verify", "--config", "{cfg}/gs_noise.cfg", "--samples", "20000"])]
    cmds += [(f"budget {fig}", ["budget", "--figure", fig]) for fig in ("fig2", "fig3")]
    cmds += [("budget noisy_bias", ["budget", "--config", "{cfg}/noisy_bias.cfg"])]
    cmds += [("run topk_noise", ["run", "--config", "{cfg}/topk_noise.cfg"]),
             ("budget topk_noise", ["budget", "--config", "{cfg}/topk_noise.cfg"]),
             ("verify topk_noise --samples 20000",
              ["verify", "--config", "{cfg}/topk_noise.cfg", "--samples", "20000"])]
    cmds += [(f"run {name}", ["run", "--config", f"{{cfg}}/{name}.cfg"])
             for name in ("tightness", "huber_shifted", "inexact_noise")]
    cmds += [("verify huber_shifted --samples 20000",
              ["verify", "--config", "{cfg}/huber_shifted.cfg", "--samples", "20000"])]
    cmds += [("sweep unbiased", ["sweep", "--config", "{cfg}/unbiased.cfg"])]
    return cmds


def _run(src: Path, args: list, out: Path) -> tuple:
    """Run the CLI of the package under `src`, writing to `out`; (exit code,
    printed output)."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from biased_sgd.cli import main; sys.exit(main(sys.argv[1:]))",
         *args, "--out", str(out)], env=env, capture_output=True)
    return proc.returncode, proc.stdout + proc.stderr


def _outputs(src: Path, args: list, out: Path) -> tuple:
    """({relative path: bytes} of the files `_run` writes, with the exit code
    and printed output as two more entries, `out` and `src` masked; the wall
    seconds of the run)."""
    start = time.perf_counter()
    code, printed = _run(src, args, out)
    wall = time.perf_counter() - start

    def mask(data: bytes) -> bytes:
        return (data.replace(str(out).encode(), b"<out>")
                .replace(str(src).encode(), b"<src>"))

    got = {"exit code": str(code).encode(), "printed output": mask(printed)}
    for f in sorted(out.rglob("*")) if out.exists() else ():
        if f.is_file():
            got[str(f.relative_to(out))] = mask(f.read_bytes())
    return got, wall


def _verdict(a: dict, b: dict) -> str:
    first = next((k for k in sorted(a.keys() | b.keys()) if a.get(k) != b.get(k)),
                 None)
    return "same" if first is None else f"differs: {first}"


def compare(rev_src: Path, tmp: Path) -> int:
    """Run every command on the package under `rev_src` and on this
    checkout's, in directories under `tmp`; print one line per command and
    return 1 if any command exits non-zero in the checkout, or any output
    differs from REV's or from its `--workers 1` twin's, else 0."""
    cfg = tmp / "cfg"
    cfg.mkdir()
    for name, text in CONFIGS.items():
        (cfg / f"{name}.cfg").write_text(text)
    twins, differs = {}, 0
    for i, (label, cli_args) in enumerate(commands()):
        cli_args = [a.replace("{cfg}", str(cfg)) for a in cli_args]
        a, wall_a = _outputs(rev_src, cli_args, tmp / "a" / str(i))
        b, wall_b = _outputs(ROOT / "src", cli_args, tmp / "b" / str(i))
        verdicts = [_verdict(a, b)]
        if "--workers" in cli_args:
            w = cli_args.index("--workers")
            twin = tuple(cli_args[:w] + cli_args[w + 2:])
            if cli_args[w + 1] == "1":
                twins[twin] = b
            elif twin in twins:
                verdicts.append(_verdict(twins[twin], b))
            else:
                verdicts.append("differs: no --workers 1 twin before it")
        failed = b["exit code"] != b"0"
        differs += failed or any(v != "same" for v in verdicts)
        print(f"{label}: {verdicts[0]}"
              + "".join(f"; as --workers 1: {v}" for v in verdicts[1:])
              + (f"; failed: exit code {b['exit code'].decode()}" if failed else "")
              + f"  [{wall_a:.1f} s at REV, {wall_b:.1f} s here]", flush=True)
    return 1 if differs else 0


def src_delta(rev: str, rev_src: Path, src: Path) -> str:
    """The lines of the `*.py` files under REV's `rev_src` and under `src`
    (as `wc -l` counts them), and the change, in one line."""
    a, b = (sum(f.read_bytes().count(b"\n") for f in d.rglob("*.py"))
            for d in (rev_src, src))
    return f"src/: {a:,} lines at {rev}, {b:,} here ({b - a:+,})"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev", help="the git revision to compare against")
    args = ap.parse_args(argv)
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", args.rev, "src"],
                         capture_output=True, check=True).stdout
    with tempfile.TemporaryDirectory(prefix="parity-") as tmp:
        tmp = Path(tmp)
        with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
            tf.extractall(tmp / "rev", filter="data")
        print(src_delta(args.rev, tmp / "rev" / "src", ROOT / "src"), flush=True)
        return compare(tmp / "rev" / "src", tmp)


if __name__ == "__main__":
    sys.exit(main())
