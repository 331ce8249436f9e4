import json
import subprocess
import sys

import pytest

from parafermi_jc import algebra
from parafermi_jc.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDims:
    def test_generating_function_expansion(self, capsys):
        code, out, _ = run_cli(capsys, "dims", "--F", "4", "--k", "3", "--n-max", "10")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,dim"
        dims = [int(line.split(",")[1]) for line in lines[1:]]
        assert dims == [1, 4, 10, 20, 32, 44, 54, 60, 63, 64, 64]

    def test_small_cases(self, capsys):
        code, out, _ = run_cli(capsys, "dims", "--F", "2", "--k", "1", "--n-max", "3")
        assert code == 0
        assert [int(l.split(",")[1]) for l in out.strip().split("\n")[1:]] == [1, 2, 2, 2]
        code, out, _ = run_cli(capsys, "dims", "--F", "2", "--k", "2", "--n-max", "0")
        assert [int(l.split(",")[1]) for l in out.strip().split("\n")[1:]] == [1]

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "dims", "--F", "2", "--k", "1", "--n-max", "2",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"params", "rows"}
        assert payload["params"]["F"] == 2
        assert payload["rows"][0] == {"n": 0, "dim": 1}

    def test_parameter_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "dims", "--F", "1", "--k", "1", "--n-max", "2")
        assert code == 1
        assert "parameter error" in err


class TestSpectrum:
    def test_hand_case_matches_exact(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--F", "2", "--k", "1", "--n", "1",
                               "--omega", "1", "--delta", "1", "--g", "1")
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        values = sorted(float(r[1]) for r in rows)
        assert values == pytest.approx([0.0, 2.0], abs=1e-12)
        assert all(float(r[3]) <= 1e-8 for r in rows)

    @pytest.mark.parametrize("flag", ["--omega=inf", "--g=nan", "--delta=-inf", "--beta=nan"])
    def test_non_finite_input_rejected(self, capsys, flag):
        code, out, err = run_cli(capsys, "spectrum", "--F", "2", "--k", "1", "--n", "2", flag)
        assert code == 1 and out == ""
        assert "must be finite" in err

    def test_cubic_comparison_columns(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--F", "3", "--k", "1", "--n", "3",
                               "--omega", "1", "--delta", "2", "--g", "1")
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert len(rows) == 3
        assert all(r[2] and float(r[3]) <= 1e-8 for r in rows)

    def test_g_zero_diagonal(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--F", "3", "--k", "2", "--n", "2",
                               "--omega", "1.5", "--delta", "0.5", "--g", "0")
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        values = sorted(float(r[1]) for r in rows)
        # diagonal entries 1.5*(2-W) + 0.5*W over the 6 basis configs
        expected = sorted([3.0, 2.0, 2.0, 1.0, 1.0, 1.0])
        assert values == pytest.approx(expected, abs=1e-12)

    def test_out_of_comparison_regime_has_empty_columns(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--F", "4", "--k", "2", "--n", "2")
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert all(r[2] == "" and r[3] == "" for r in rows)


class TestThermoScan:
    def test_header_and_shape(self, capsys):
        code, out, _ = run_cli(capsys, "thermo-scan", "--F", "2", "--k", "1", "--n", "2",
                               "--omega-min", "1", "--omega-max", "10", "--omega-count", "4",
                               "--delta", "20")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "omega,Z,free_energy,phi_N,N,W"
        assert len(lines) == 5

    def test_trivial_block_constant_n(self, capsys):
        code, out, _ = run_cli(capsys, "thermo-scan", "--F", "2", "--k", "2", "--n", "0",
                               "--omega-min", "1", "--omega-max", "10", "--omega-count", "5",
                               "--delta", "0", "--g", "0")
        assert code == 0
        for line in out.strip().split("\n")[1:]:
            assert float(line.split(",")[4]) == pytest.approx(0.0, abs=1e-12)

    def test_byte_identical_reruns_across_thread_counts(self, capsys, monkeypatch):
        argv = ["thermo-scan", "--F", "3", "--k", "1", "--n", "3",
                "--omega-min", "0.5", "--omega-max", "50", "--omega-count", "21",
                "--delta", "20", "--deformation", "qexp"]
        monkeypatch.setenv("PARAFERMI_JC_THREADS", "1")
        _, out1, _ = run_cli(capsys, *argv)
        monkeypatch.setenv("PARAFERMI_JC_THREADS", "3")
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2

    def test_thread_env_ignored(self, capsys, monkeypatch):
        monkeypatch.setenv("PARAFERMI_JC_THREADS", "many")
        code, _, err = run_cli(capsys, "thermo-scan", "--F", "2", "--k", "1", "--n", "1",
                               "--omega-min", "1", "--omega-max", "2", "--omega-count", "2")
        assert code == 0 and err == ""

    def test_overflowing_partition_function_exits_2(self, capsys):
        # delta = -1000 puts the occupied level near -1000, so log Z ~ 1000 > log(float max)
        code, out, err = run_cli(capsys, "thermo-scan", "--F", "2", "--k", "1", "--n", "1",
                                 "--delta", "-1000", "--omega-min", "1", "--omega-max", "2",
                                 "--omega-count", "2")
        assert code == 2 and out == ""
        assert "numerical error" in err and "log Z" in err

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "F": 2, "k": 1, "n": 2, "omega_min": 1.0, "omega_max": 10.0,
            "omega_count": 3, "delta": 20.0,
            "deformation": {"type": "qexp", "hbar": 1.0},
        }))
        code, out1, _ = run_cli(capsys, "thermo-scan", "--config", str(config))
        assert code == 0
        code, out2, _ = run_cli(capsys, "thermo-scan", "--config", str(config),
                                "--omega-count", "5")
        assert code == 0
        assert len(out2.strip().split("\n")) == len(out1.strip().split("\n")) + 2

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"F": 2, "k": 1, "n": 1, "bogus": 3}))
        code, _, err = run_cli(capsys, "thermo-scan", "--config", str(config))
        assert code == 1 and "bogus" in err

    def test_malformed_and_missing_config(self, capsys, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        code, _, err = run_cli(capsys, "thermo-scan", "--config", str(broken))
        assert code == 1 and "not valid JSON" in err
        code, _, err = run_cli(capsys, "thermo-scan", "--config", str(tmp_path / "nope.json"))
        assert code == 1 and "cannot read" in err

    def test_unwritable_output_path(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "dims", "--F", "2", "--k", "1", "--n-max", "1",
                               "--out", str(tmp_path / "no" / "such" / "dir.csv"))
        assert code == 1 and "cannot write" in err

    def test_output_file_lf_endings(self, capsys, tmp_path):
        out_path = tmp_path / "scan.csv"
        code, _, _ = run_cli(capsys, "thermo-scan", "--F", "2", "--k", "1", "--n", "1",
                             "--omega-min", "1", "--omega-max", "2", "--omega-count", "2",
                             "--out", str(out_path))
        assert code == 0
        data = out_path.read_bytes()
        assert b"\r" not in data and data.endswith(b"\n")


class TestSemiclassicalCompare:
    def test_small_hbar_tracks_numerics(self, capsys):
        code, out, _ = run_cli(capsys, "semiclassical-compare", "--F", "2", "--k", "1",
                               "--n", "4", "--delta", "20", "--hbar", "0.01",
                               "--omega-min", "0.5", "--omega-max", "80",
                               "--omega-count", "31")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "omega,F_numeric,F_semiclassical,rel_err"
        assert all(float(line.split(",")[3]) <= 1e-3 for line in lines[1:])

    def test_regime_validation(self, capsys):
        code, _, err = run_cli(capsys, "semiclassical-compare", "--F", "3", "--k", "2",
                               "--n", "5", "--omega-min", "1", "--omega-max", "2",
                               "--omega-count", "2")
        assert code == 1 and "closed forms" in err


class TestVerify:
    def test_default_scope_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        summary = json.loads(out)
        assert summary["passed"] is True
        suites = {c["suite"] for c in summary["checks"]}
        assert suites == {"algebra", "oracles", "thermo"}

    def test_algebra_scope_only(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--scope", "algebra")
        assert code == 0
        summary = json.loads(out)
        assert {c["suite"] for c in summary["checks"]} == {"algebra"}

    def test_injected_phase_fault_is_caught(self, capsys, monkeypatch):
        # flip the sign of the destruction-phase exponent: the mode matrices
        # then q-commute with the wrong root of unity
        good = algebra.destruction_phase_exponent

        def flipped(bra, m, ket, F):
            exponent = good(bra, m, ket, F)
            return None if exponent is None else (-exponent) % F

        monkeypatch.setattr(algebra, "destruction_phase_exponent", flipped)
        code, out, _ = run_cli(capsys, "verify", "--scope", "algebra")
        assert code == 3
        summary = json.loads(out)
        failed = {c["name"] for c in summary["checks"] if not c["passed"]}
        assert "q_commutation" in failed


def test_numerical_error_exit_code(capsys, monkeypatch):
    import parafermi_jc.cli as cli_module
    from parafermi_jc import NumericalError

    def explode(params, n):
        raise NumericalError("synthetic failure")

    monkeypatch.setattr(cli_module, "build_block", explode)
    code = cli_module.main(["spectrum", "--F", "2", "--k", "1", "--n", "1"])
    err = capsys.readouterr().err
    assert code == 2 and "numerical error" in err


def test_module_invocation_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "parafermi_jc", "dims", "--F", "2", "--k", "1", "--n-max", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().split("\n") == ["n,dim", "0,1", "1,2"]
