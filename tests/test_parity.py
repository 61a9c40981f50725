"""tools/parity.py's comparisons, with the CLI runs stubbed: no CLI process
starts."""

import importlib.util
import re
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "parity.py"
_spec = importlib.util.spec_from_file_location("parity", _PATH)
parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parity)


def _stub(split_by_workers: bool):
    """A `_run` that writes one file, whose bytes depend on the `--workers`
    value when `split_by_workers`, and prints both its paths."""
    def run(src, args, out):
        out.mkdir(parents=True)
        workers = args[args.index("--workers") + 1] if "--workers" in args else "1"
        text = f"parts {workers}" if split_by_workers else "one result"
        (out / "result.txt").write_text(text)
        printed = f"{src}/biased_sgd/experiments.py:1: RuntimeWarning\nwrote {out}\n"
        return 0, printed.encode()
    return run


@pytest.mark.parametrize("split_by_workers", [False, True])
def test_each_command_is_compared_with_rev_and_its_workers_1_twin(
        monkeypatch, tmp_path, capsys, split_by_workers):
    monkeypatch.setattr(parity, "_run", _stub(split_by_workers))
    rev_src = tmp_path / "rev" / "src"
    code = parity.compare(rev_src, tmp_path)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(parity.commands())
    for (label, args), line in zip(parity.commands(), lines):
        # both trees print their own src and out paths, masked to one text
        assert line.startswith(f"{label}: same")
        assert line.endswith(" s here]")
        assert "failed" not in line
        twin = "--workers" in args and args[args.index("--workers") + 1] != "1"
        if not twin:
            assert "as --workers 1" not in line
        elif split_by_workers:
            assert "; as --workers 1: differs: result.txt  [" in line
        else:
            assert "; as --workers 1: same  [" in line
    assert code == (1 if split_by_workers else 0)


def test_a_command_that_fails_on_both_trees_fails_the_check(
        monkeypatch, tmp_path, capsys):
    # the same error on both trees is no difference, but still a failure
    monkeypatch.setattr(parity, "_run", lambda src, args, out: (2, b"error: x"))
    code = parity.compare(tmp_path / "rev" / "src", tmp_path)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(parity.commands())
    assert all("same" in line and "; failed: exit code 2  [" in line
               for line in lines)
    assert code == 1


def test_a_command_without_its_workers_1_twin_is_reported(
        monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(parity, "_run", _stub(False))
    monkeypatch.setattr(parity, "commands", lambda: [
        ("sweep fig1 --workers 2", ["sweep", "--figure", "fig1", "--workers", "2"])])
    code = parity.compare(tmp_path / "rev" / "src", tmp_path)
    line, = capsys.readouterr().out.splitlines()
    assert "; as --workers 1: differs: no --workers 1 twin before it  [" in line
    assert code == 1


def test_the_src_line_counts_of_both_trees(tmp_path):
    for tree, files in (("rev", {"a.py": "x\n" * 40, "pkg/b.py": "y\n" * 2}),
                        ("here", {"a.py": "x\n" * 30, "pkg/b.py": "y\n" * 1000,
                                  "notes.txt": "z\n" * 50})):
        for name, text in files.items():
            (tmp_path / tree / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / tree / name).write_text(text)
    assert parity.src_delta("HEAD^", tmp_path / "rev", tmp_path / "here") == \
        "src/: 42 lines at HEAD^, 1,030 here (+988)"


def test_readme_and_docstring_state_the_command_count():
    count = len(parity.commands())
    readme = (_PATH.parent.parent / "README.md").read_text()
    (stated,) = re.findall(r"fixed list of (\d+) CLI commands", readme)
    assert int(stated) == count
    (stated,) = re.findall(r"fixed list of (\d+) `biased-sgd` commands",
                           parity.__doc__)
    assert int(stated) == count


def test_every_differing_output_is_named(monkeypatch, tmp_path, capsys):
    # the printed output sorts before the files, and must not hide them
    def run(src, args, out):
        out.mkdir(parents=True)
        tree = "here" if src == parity.ROOT / "src" else "rev"
        (out / "config.cfg").write_text("one config")
        for name in ("summary.txt", "trace.csv"):
            (out / name).write_text(tree)
        return 0, f"printed on {tree}\n".encode()

    monkeypatch.setattr(parity, "_run", run)
    monkeypatch.setattr(parity, "commands", lambda: [("run fig1", ["run"])])
    code = parity.compare(tmp_path / "rev" / "src", tmp_path)
    line, = capsys.readouterr().out.splitlines()
    assert line.startswith(
        "run fig1: differs: printed output, summary.txt, trace.csv  [")
    assert code == 1
