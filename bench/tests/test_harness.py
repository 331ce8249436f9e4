"""Self-tests of the benchmark harness.

Run from the repository root: ``python3 -m pytest bench/tests -q`` (about a
minute; the tiny big_block run solves a handful of d=256 blocks).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def report_lines(stdout: str) -> dict[str, tuple[str, str]]:
    """name -> (value, unit) of the human report lines."""
    lines = {}
    for line in stdout.splitlines():
        fields = line.split()
        if len(fields) >= 3 and not line.startswith(("#", "{")):
            lines[fields[0]] = (fields[1], fields[2])
    return lines


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())
    printed = report_lines(proc.stdout)
    assert {name: printed[name][1] for name in declared} == declared
    assert printed["fail_frac"] == ("0.0", "share")


def test_traced_run_reports_every_layer_metric():
    proc = run_bench("--workload", "free_energy", "--seed", "3", "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"] for m in CONTRACT["per_layer"]}
    assert set(result["metrics"]) == declared
    assert result["metrics"]["trace.coverage"]["value"] >= 0.9
    assert result["metrics"]["eigensolver.val.calls"]["value"] > 0


def test_corrupted_oracle_value_fails_every_request(monkeypatch, capsys):
    genuine = oracle.reference

    def corrupted(*args, **kwargs):
        ref = genuine(*args, **kwargs)
        ref["free_energy"] += 1e-6 * max(1.0, abs(ref["free_energy"]))
        return ref

    monkeypatch.setattr(oracle, "reference", corrupted)
    code = harness.main(["--workload", "free_energy", "--seed", "5", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_exception_in_a_request_is_a_failed_request(monkeypatch, tmp_path):
    genuine = workloads.execute

    def flaky(request, out_path):
        if request.index == 2:
            raise RuntimeError("injected")
        return genuine(request, out_path)

    monkeypatch.setattr(workloads, "execute", flaky)
    tally = harness.Tally()
    harness.measure("free_energy", 0, 0.0, tmp_path, tally)
    assert (tally.attempted, tally.failed) == (1 + workloads.CYCLE["free_energy"], 1)
    assert "RuntimeError: injected" in tally.messages[0]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert harness.tail([float(x) for x in range(20, 0, -1)]) == (10.0, 50.0)
    assert harness.tail([float(x) for x in range(1, 101)]) == (90.0, 90.0)
    assert harness.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_requests_depend_only_on_workload_seed_and_index():
    for workload in workloads.WORKLOADS:
        assert workloads.make_request(workload, 4, 7) == workloads.make_request(workload, 4, 7)
        assert workloads.make_request(workload, 4, 7) != workloads.make_request(workload, 5, 7)


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "staircase", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
