"""The experiment scripts in scripts/ run end to end on coarse grids."""

import pathlib
import runpy

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


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
