"""The experiment scripts in scripts/ and the README's library quickstart run end
to end (the scripts on coarse grids)."""

import os
import pathlib
import runpy
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def load(name):
    """The script's globals, its ``__main__`` block not run."""
    return runpy.run_path(str(SCRIPTS / f"{name}.py"))


def test_staircase_scan(tmp_path, capsys):
    load("staircase_scan")["run"](tmp_path, 1000.0, 1.0, 10)
    out = capsys.readouterr().out
    # saturated F=3, k=3, n=8 shows k(F-1) = 6 crossovers, 7 plateaus
    for levels in ([5, 4, 3, 2], [2, 1, 0], [8, 7, 6, 5, 4, 3, 2]):
        assert f"plateaus {levels}," in out
    assert len(list(tmp_path.glob("staircase_*.csv"))) == 3


def test_free_energy_scan(tmp_path, capsys):
    load("free_energy_scan")["run"](tmp_path, 20.0, 1.0)
    written = sorted(tmp_path.glob("free_energy_*.csv"))
    assert [p.name for p in written] == [
        "free_energy_F2_k1.csv", "free_energy_F2_k2.csv", "free_energy_F2_k3.csv",
        "free_energy_F3_k1.csv", "free_energy_F4_k1.csv"]
    for path in written:
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + 161 and lines[0].startswith("omega,")
    assert capsys.readouterr().out.count("wrote ") == 5


def test_readme_library_quickstart_runs():
    # the README's Python block, in a fresh process on the checkout's sources
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Library quickstart", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    proc = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    assert len(proc.stdout.splitlines()) == block.count("print(")
