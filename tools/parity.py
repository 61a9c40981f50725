"""Check that the CLI's outputs are those of another git revision.

    python tools/parity.py REV

Extracts REV's `src/` with `git archive` into a temporary directory, runs one
fixed list of `biased-sgd` commands on that tree and on this checkout's
`src/` (BLAS threads set to 1), and compares each command's output tree and
printed output, with the output path masked. Prints one `same` or
`differs: <first file>` line per command and exits 1 if any command differs.

`tune --figure fig6` is left out (about 80 s per tree on one core); to check
it, extract REV's `src/` the same way and compare by hand:

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
    # Gaussian smoothing under noise: normals drawn in two stages
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
}


def commands() -> list:
    """(label, CLI arguments) per command; `{cfg}` is the config directory."""
    cmds = [(f"sweep {fig} --workers {w}",
             ["sweep", "--figure", fig, "--workers", str(w)])
            for fig in ("fig1", "fig2", "fig3", "fig5", "fig6") for w in (1, 2)]
    cmds += [("run fig1", ["run", "--figure", "fig1"]),
             ("run fig1 --seed 1", ["run", "--figure", "fig1", "--seed", "1"])]
    cmds += [(f"tune tune_k1 --workers {w}",
              ["tune", "--config", "{cfg}/tune_k1.cfg", "--workers", str(w)])
             for w in (1, 2, 4)]
    cmds += [(f"tune tune_mixed --workers {w}",
              ["tune", "--config", "{cfg}/tune_mixed.cfg", "--workers", str(w)])
             for w in (1, 3)]
    cmds += [(f"sweep gs_noise --workers {w}",
              ["sweep", "--config", "{cfg}/gs_noise.cfg", "--workers", str(w)])
             for w in (1, 2)]
    cmds += [("verify --samples 20000", ["verify", "--samples", "20000"]),
             ("verify --samples 20000 --seed 1",
              ["verify", "--samples", "20000", "--seed", "1"])]
    return cmds


def _run(src: Path, args: list, out: Path) -> dict:
    """Run the CLI of the package under `src`; {relative path: bytes}, with
    the exit code and printed output as two more entries, `out` masked."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from biased_sgd.cli import main; sys.exit(main(sys.argv[1:]))",
         *args, "--out", str(out)], env=env, capture_output=True)
    mask = str(out).encode()
    got = {"exit code": str(proc.returncode).encode(),
           "printed output": (proc.stdout + proc.stderr).replace(mask, b"<out>")}
    for f in sorted(out.rglob("*")) if out.exists() else ():
        if f.is_file():
            got[str(f.relative_to(out))] = f.read_bytes().replace(mask, b"<out>")
    return got


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev", help="the git revision to compare against")
    args = ap.parse_args(argv)
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", args.rev, "src"],
                         capture_output=True, check=True).stdout
    differs = 0
    with tempfile.TemporaryDirectory(prefix="parity-") as tmp:
        tmp = Path(tmp)
        with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
            tf.extractall(tmp / "rev", filter="data")
        cfg = tmp / "cfg"
        cfg.mkdir()
        for name, text in CONFIGS.items():
            (cfg / f"{name}.cfg").write_text(text)
        for i, (label, cli_args) in enumerate(commands()):
            cli_args = [a.replace("{cfg}", str(cfg)) for a in cli_args]
            a = _run(tmp / "rev" / "src", cli_args, tmp / "a" / str(i))
            b = _run(ROOT / "src", cli_args, tmp / "b" / str(i))
            first = next((k for k in sorted(a.keys() | b.keys())
                          if a.get(k) != b.get(k)), None)
            differs += first is not None
            print(f"{label}: " + ("same" if first is None else f"differs: {first}"),
                  flush=True)
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
