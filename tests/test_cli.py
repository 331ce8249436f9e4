import argparse
import contextlib
import errno
import io
import json
import math
import os
import pathlib
import shlex
import subprocess
import sys
import textwrap
import time
import warnings
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from parafermi_jc import (
    NumericalError,
    algebra,
    log_sum_exp,
    semiclassical_level_table,
)
from parafermi_jc import blocks, cli, thermo, verify
from parafermi_jc.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GRID_1_2 = ("--omega-min", "1", "--omega-max", "2", "--omega-count", "2")

#: d_n for F = 4, k = 3 and n = 0..10: saturated at F**k = 64 from n = 9 on.
DIMS_F4_K3 = [1, 4, 10, 20, 32, 44, 54, 60, 63, 64, 64]


class TestDims:
    def test_generating_function_expansion(self, capsys):
        code, out, _ = run_cli(capsys, "dims", "--F", "4", "--k", "3", "--n-max", "10")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,dim"
        dims = [int(line.split(",")[1]) for line in lines[1:]]
        assert dims == DIMS_F4_K3

    def test_small_cases(self, capsys):
        code, out, _ = run_cli(capsys, "dims", "--F", "2", "--k", "1", "--n-max", "3")
        assert code == 0
        assert [int(l.split(",")[1]) for l in out.strip().split("\n")[1:]] == [1, 2, 2, 2]
        code, out, _ = run_cli(capsys, "dims", "--F", "2", "--k", "2", "--n-max", "0")
        assert [int(l.split(",")[1]) for l in out.strip().split("\n")[1:]] == [1]

    def test_saturated_rows_computed_once(self, capsys, monkeypatch):
        # from n = k(F-1) = 9 on every row is F**k = 64: one convolution gives
        # the rows for n = 0..9, and the rows past it repeat its last value
        spy = mock.Mock(wraps=algebra._block_dimensions)
        monkeypatch.setattr(cli, "_block_dimensions", spy)
        code, out, _ = run_cli(capsys, "dims", "--F", "4", "--k", "3", "--n-max", "5000")
        assert code == 0
        spy.assert_called_once_with(4, 3, 5000)
        rows = out.strip().split("\n")[1:]
        assert len(rows) == 5001 and rows[9] == "9,64" and rows[-1] == "5000,64"
        spy.reset_mock()
        code, out, _ = run_cli(capsys, "dims", "--F", "4", "--k", "3", "--n-max", "4")
        spy.assert_called_once_with(4, 3, 4)
        assert [int(line.split(",")[1]) for line in out.strip().split("\n")[1:]] == DIMS_F4_K3[:5]

    def test_long_ramp_in_linear_time(self, capsys):
        # k = 1: d_n = n + 1 up to n = F - 1, then F; one convolution of 10**5
        # terms, where one per row took time quadratic in F
        code, out, _ = run_cli(capsys, "dims", "--F", "100000", "--k", "1", "--n-max", "100000")
        assert code == 0
        rows = out.strip().split("\n")[1:]
        assert len(rows) == 100001
        assert rows[:3] == ["0,1", "1,2", "2,3"]
        assert rows[99998:] == ["99998,99999", "99999,100000", "100000,100000"]

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

    def test_negative_n_max_rejected(self, capsys):
        code, out, err = run_cli(capsys, "dims", "--F", "1", "--k", "1", "--n-max", "-1")
        assert code == 1 and out == ""
        assert "parameter error" in err

    @pytest.mark.parametrize("n_max", ["1000000", "1000000000000"])
    def test_huge_n_max_rejected(self, capsys, n_max):
        code, out, err = run_cli(capsys, "dims", "--F", "2", "--k", "1", "--n-max", n_max)
        assert code == 1 and out == ""
        assert err == f"parameter error: n-max must be between 0 and 999999, got {n_max}\n"

    def test_n_max_cap_is_row_cap(self, capsys, monkeypatch):
        # n = 0..n_max is n_max + 1 rows, at most MAX_ROWS
        monkeypatch.setattr(cli, "MAX_ROWS", 3)
        code, out, _ = run_cli(capsys, "dims", "--F", "2", "--k", "1", "--n-max", "2")
        assert code == 0 and len(out.strip().split("\n")) == 1 + 3
        code, out, err = run_cli(capsys, "dims", "--F", "2", "--k", "1", "--n-max", "3")
        assert code == 1 and out == "" and "between 0 and 2" in err


class TestSpectrum:
    def test_hand_case_matches_exact(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--F", "2", "--k", "1", "--n", "1",
                               "--omega", "1", "--delta", "1", "--g", "1")
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        values = sorted(float(r[1]) for r in rows)
        assert values == pytest.approx([0.0, 2.0], abs=1e-12)
        assert all(float(r[3]) <= 1e-8 for r in rows)

    @pytest.mark.parametrize("flag", ["--omega=inf", "--g=nan", "--delta=-inf"])
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

    @pytest.mark.parametrize("F,k,n", [(4, 2, 2), (2, 1, 0), (2, 3, 2), (3, 1, 2)])
    def test_out_of_comparison_regime_has_empty_columns(self, capsys, F, k, n):
        # below the closed form's regime the exact columns are empty; where a
        # closed form exists, they are filled from its least n on (n = k for
        # F = 2, n = 3 for F = 3 with k = 1)
        for m, filled in ((n, False), (n + 1, F < 4)):
            code, out, _ = run_cli(capsys, "spectrum", "--F", str(F), "--k", str(k), "--n", str(m))
            assert code == 0
            rows = [line.split(",") for line in out.strip().split("\n")[1:]]
            assert all(bool(r[2]) == bool(r[3]) == filled for r in rows)
            assert not filled or all(float(r[3]) <= 1e-8 for r in rows)

    @pytest.mark.parametrize("argv,largest", [
        (("--F", "2", "--k", "2", "--n", "3", "--delta", "1e9"), 2e9),
        (("--F", "3", "--k", "1", "--n", "3", "--g", "1e8"), 2.2e8),
        (("--F", "2", "--k", "1", "--n", "3", "--g", "1e155"), 1.7e155),
        (("--F", "2", "--k", "3", "--n", "6", "--delta", "1e300"), 3e300),
    ], ids=["delta_1e9", "g_1e8", "g_1e155", "delta_1e300"])
    def test_large_levels_match_closed_form(self, capsys, argv, largest):
        # the sides agree to about 1e-15 of the spectrum's scale, which an
        # absolute 1e-8 did not allow, and the F=2 closed form squares nothing
        code, out, _ = run_cli(capsys, "spectrum", *argv)
        assert code == 0
        rows = [[float(x) for x in line.split(",")] for line in out.strip().split("\n")[1:]]
        assert all(math.isfinite(r[2]) for r in rows)
        scale = max(abs(r[1]) for r in rows)
        assert scale == pytest.approx(largest, rel=0.1)
        assert max(r[3] for r in rows) <= 1e-14 * scale

    def test_small_level_beside_huge_delta(self, capsys):
        # the level 6 beside levels of 1e300: the closed form takes it as the
        # pair's determinant over the larger level, which does not cancel
        code, out, _ = run_cli(capsys, "spectrum", "--F", "2", "--k", "3", "--n", "6",
                               "--delta", "1e300")
        assert code == 0
        index, numeric, exact, _ = (float(x) for x in out.strip().split("\n")[1].split(","))
        assert index == 0 and numeric == 6.0
        assert abs(exact - numeric) <= 1e-12 * abs(numeric)

    @pytest.mark.parametrize("F,k,n,rows", [(2, 30, 30, 2 ** 30), (4, 8, 24, 4 ** 8)],
                             ids=["enumeration_2e30", "matrix_64GiB"])
    def test_block_above_the_row_limit_refused_from_its_dimension(self, capsys, monkeypatch,
                                                                    F, k, n, rows):
        # 2**30 occupation tuples to list, or a 64 GiB matrix to assemble: the
        # refusal comes from d alone, so no basis may be enumerated here
        def enumerate_nothing(*args):
            raise AssertionError(f"enumerated the basis of block {args}")
        monkeypatch.setattr(blocks, "enumerate_block_basis", enumerate_nothing)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "spectrum", "--F", str(F), "--k", str(k), "--n", str(n))
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert err == (f"parameter error: block (F={F}, k={k}, n={n}) has {rows} rows, "
                       f"above the limit of {blocks.MAX_BLOCK_ROWS}\n")

    @pytest.mark.parametrize("F,k,n", [(2, 3, 6), (4, 2, 2)])
    def test_huge_delta_never_hits_the_sweep_cap(self, capsys, F, k, n):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "spectrum", "--F", str(F), "--k", str(k),
                                     "--n", str(n), "--delta", "1e300")
        assert code in (0, 2) and "sweeps" not in err
        if code == 0:
            assert all(math.isfinite(float(line.split(",")[1]))
                       for line in out.strip().split("\n")[1:])


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

    def test_byte_identical_reruns(self, capsys):
        argv = ["thermo-scan", "--F", "3", "--k", "1", "--n", "3",
                "--omega-min", "0.5", "--omega-max", "50", "--omega-count", "21",
                "--delta", "20", "--deformation", "qexp"]
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2

    @pytest.mark.parametrize("command", ["thermo-scan", "semiclassical-compare"])
    @pytest.mark.parametrize("count", ["1000001", "100000000000000000000"])
    def test_huge_omega_count_rejected(self, capsys, command, count):
        code, out, err = run_cli(capsys, command, "--F", "2", "--k", "1", "--n", "1",
                                 "--omega-min", "1", "--omega-max", "2", "--omega-count", count)
        assert code == 1 and out == ""
        assert err.startswith("parameter error:") and "omega count" in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_zero_free_energy_unsigned(self, capsys, fmt):
        # block n = 0 is the one state of level 0: log Z = 0, and -log Z / beta
        # would be -0.0
        code, out, err = run_cli(capsys, "thermo-scan", "--F", "2", "--k", "1", "--n", "0",
                                 "--format", fmt, *GRID_1_2)
        assert code == 0 and err == ""
        if fmt == "csv":
            assert out.split("\n")[1:3] == ["1.0,1.0,0.0,0.0,0.0,0.0", "2.0,1.0,0.0,0.0,0.0,0.0"]
        else:
            values = [row["free_energy"] for row in json.loads(out)["rows"]]
            assert values == [0.0, 0.0] and "-0.0" not in out

    def test_non_finite_beta_rejected(self, capsys):
        code, out, err = run_cli(capsys, "thermo-scan", "--F", "2", "--k", "1", "--n", "2",
                                 "--beta=nan", *GRID_1_2)
        assert code == 1 and out == ""
        assert "must be finite" in err

    def test_tiny_qexp_hbar_accepted(self, capsys):
        code, out, err = run_cli(capsys, "thermo-scan", "--F", "2", "--k", "1", "--n", "2",
                                 "--deformation", "qexp", "--hbar", "1e-17", "--omega-min", "1",
                                 "--omega-max", "2", "--omega-count", "2")
        assert code == 0 and err == "" and len(out.strip().split("\n")) == 3

    def test_overflowing_partition_function_exits_2(self, capsys):
        # delta = -1000 puts the occupied level near -1000, so log Z ~ 1000 > log(float max)
        code, out, err = run_cli(capsys, "thermo-scan", "--F", "2", "--k", "1", "--n", "1",
                                 "--delta", "-1000", "--omega-min", "1", "--omega-max", "2",
                                 "--omega-count", "2")
        assert code == 2 and out == ""
        assert "numerical error" in err and "log Z" in err

    def test_non_finite_cell_exits_2(self, capsys):
        # a subnormal beta overflows free_energy = -log Z / beta to -inf
        code, out, err = run_cli(capsys, "thermo-scan", "--F", "2", "--k", "1", "--n", "1",
                                 "--beta", "5e-324", "--omega-min", "1", "--omega-max", "2",
                                 "--omega-count", "2")
        assert code == 2 and out == ""
        assert err.startswith("numerical error:") and "free_energy" in err

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


DIMS_ARGV = ("dims", "--F", "4", "--k", "3", "--n-max", "10")


class TestOutput:
    """--out is rewritten in place and cut to the new length; stdout failures exit 1."""

    def test_short_output_over_longer_file(self, capsys, tmp_path):
        out_path = tmp_path / "dims.csv"
        out_path.write_bytes(b"x" * 10_000)
        code, expected, _ = run_cli(capsys, *DIMS_ARGV)
        assert run_cli(capsys, *DIMS_ARGV, "--out", str(out_path))[0] == code == 0
        assert out_path.read_bytes() == expected.encode()

    def test_symlinked_out_rewrites_target_and_keeps_link(self, capsys, tmp_path):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_bytes(b"x" * 10_000)
        link.symlink_to(target)
        code, expected, _ = run_cli(capsys, *DIMS_ARGV)
        assert run_cli(capsys, *DIMS_ARGV, "--out", str(link))[0] == code == 0
        assert link.is_symlink() and target.read_bytes() == expected.encode()

    def test_out_devnull(self, capsys):
        code, out, err = run_cli(capsys, *DIMS_ARGV, "--out", os.devnull)
        assert (code, out, err) == (0, "", "")

    def test_failed_write_leaves_only_written_bytes(self, capsys, monkeypatch, tmp_path):
        out_path = tmp_path / "dims.csv"
        out_path.write_bytes(b"x" * 10_000)
        _, expected, _ = run_cli(capsys, *DIMS_ARGV)
        real_write, calls = os.write, []

        def full_after_five_bytes(fd, data):
            calls.append(fd)
            if len(calls) > 1:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return real_write(fd, data[:5])

        monkeypatch.setattr(os, "write", full_after_five_bytes)
        code, out, err = run_cli(capsys, *DIMS_ARGV, "--out", str(out_path))
        assert code == 1 and out == "" and "cannot write output file" in err
        assert len(calls) == 2 and out_path.read_bytes() == expected.encode()[:5]

    def test_existing_file_opened_once_without_truncate(self, capsys, monkeypatch, tmp_path):
        out_path = tmp_path / "dims.csv"
        out_path.write_bytes(b"x" * 10_000)
        real_open, opens = os.open, []

        def spy(path, flags, *args, **kwargs):
            opens.append((os.fspath(path), flags))
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", spy)
        assert run_cli(capsys, *DIMS_ARGV, "--out", str(out_path))[0] == 0
        assert [path for path, _ in opens] == [str(out_path)] and out_path.is_file()
        assert not opens[0][1] & os.O_TRUNC

    def test_closed_stdout(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdout", None)
        code, _, err = run_cli(capsys, *DIMS_ARGV)
        assert code == 1 and err == "parameter error: cannot write output: standard output is closed\n"

    @pytest.mark.parametrize("failing", ["write", "flush"])
    def test_full_stdout(self, capsys, monkeypatch, failing):
        class FullStream(io.StringIO):
            def fail(self, *args):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        stream = FullStream()
        setattr(stream, failing, stream.fail)
        monkeypatch.setattr(sys, "stdout", stream)
        code, _, err = run_cli(capsys, *DIMS_ARGV)
        assert code == 1 and err.startswith("parameter error: cannot write output: [Errno 28]")
        assert err.count("\n") == 1

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a POSIX shell and /dev/full")
    @pytest.mark.parametrize("redirect", [">/dev/full", ">&-"])
    def test_stdout_failure_in_a_process(self, redirect):
        # no traceback, and no "Exception ignored" from the flush at interpreter exit
        command = shlex.join([sys.executable, "-m", "parafermi_jc", *DIMS_ARGV])
        proc = subprocess.run(f"{command} {redirect}", shell=True, stderr=subprocess.PIPE,
                              text=True)
        assert proc.returncode == 1
        assert proc.stderr.startswith("parameter error: cannot write output: ")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a POSIX shell and /dev/full")
    def test_stdout_that_keeps_unwritten_bytes(self):
        # a stdout whose buffer keeps the bytes a failed flush could not write
        # fails again at the interpreter's own flush at exit, unless the process
        # sends them elsewhere: "Exception ignored" and exit 120
        script = textwrap.dedent(f"""
            import io, os, sys
            from parafermi_jc import cli

            class Fd1(io.RawIOBase):
                def writable(self):
                    return True

                def fileno(self):
                    return 1

                def write(self, data):
                    return os.write(1, data)

            sys.stdout = io.TextIOWrapper(io.BufferedWriter(Fd1()))
            sys.argv = ["parafermi-jc", *{list(DIMS_ARGV)!r}]
            cli.entrypoint()
        """)
        command = shlex.join([sys.executable, "-c", script])
        proc = subprocess.run(f"{command} >/dev/full", shell=True, stderr=subprocess.PIPE,
                              text=True)
        assert proc.returncode == 1
        assert proc.stderr == (f"parameter error: cannot write output: [Errno {errno.ENOSPC}] "
                               f"{os.strerror(errno.ENOSPC)}\n")


BASE_CONFIG = {"F": 2, "k": 1, "n": 2, "omega_min": 1.0, "omega_max": 10.0, "omega_count": 3}


def run_with_config(capsys, tmp_path, values, *argv):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({**BASE_CONFIG, **values}))
    return run_cli(capsys, "thermo-scan", "--config", str(config), *argv)


class TestInputs:
    def test_usage_error_exits_1(self, capsys):
        code, out, err = run_cli(capsys, "spectrum", "--F", "abc")
        assert code == 1 and out == ""
        assert err.startswith("parameter error:") and "--F" in err

    @pytest.mark.parametrize("command,spaced,joined", [
        ("spectrum", ["--delta", "-1e3"], ["--delta=-1000.0"]),
        ("spectrum", ["--omega", "-2.5E1"], ["--omega=-25.0"]),
        ("thermo-scan", ["--omega-min", "-1e3", "--omega-max", "2", "--omega-count", "2",
                         "--omega-scale", "linear"],
         ["--omega-min=-1000.0", "--omega-max", "2", "--omega-count", "2", "--omega-scale", "linear"]),
    ])
    def test_negative_value_with_exponent_after_its_flag(self, capsys, command, spaced, joined):
        # argparse's own pattern takes -1e3 for an option, so --delta -1e3
        # failed with "expected one argument"; the = form never did
        block = ["--F", "2", "--k", "1", "--n", "2"]
        spaced_run = run_cli(capsys, command, *block, *spaced)
        assert spaced_run == run_cli(capsys, command, *block, *joined)
        assert "expected one argument" not in spaced_run[2]
        if command == "spectrum":
            assert spaced_run[0] == 0

    def test_flag_still_needs_its_value(self, capsys):
        code, out, err = run_cli(capsys, "spectrum", "--F", "2", "--k", "1", "--omega", "--n", "3")
        assert code == 1 and out == ""
        assert "argument --omega: expected one argument" in err

    @pytest.mark.parametrize("values", [{"delta": "x"}, {"omega_count": 2.5}, {"F": 3.0},
                                        {"beta": True}, {"omega_scale": "cubic"}])
    def test_config_value_rejected_like_flag_text(self, capsys, tmp_path, values):
        code, out, err = run_with_config(capsys, tmp_path, values)
        assert code == 1 and out == ""
        assert err.startswith("parameter error:") and next(iter(values)) in err

    @pytest.mark.parametrize("values,flags", [
        ({"delta": "2.0"}, ["--delta", "2.0"]),
        ({"delta": 2}, ["--delta", "2"]),
        ({"delta": None, "g": None, "deformation": None}, []),
    ])
    def test_config_value_read_like_flag_text(self, capsys, tmp_path, values, flags):
        code, from_config, _ = run_with_config(capsys, tmp_path, values)
        assert code == 0
        code, from_flags, _ = run_with_config(capsys, tmp_path, {}, *flags)
        assert code == 0 and from_config == from_flags

    @pytest.mark.parametrize("command,values", [
        ("thermo-scan", {"n_max": 3}),
        ("dims", {"omega": 2.0}),
        ("spectrum", {"omega_count": 4}),
        ("verify", {"n": 2, "omega_min": 1.0}),
    ])
    def test_config_key_of_another_command_rejected(self, capsys, tmp_path, command, values):
        config = tmp_path / "run.json"
        taken = {} if command == "verify" else {"F": 2, "k": 1}
        config.write_text(json.dumps({**taken, **values}))
        code, out, err = run_cli(capsys, command, "--config", str(config))
        assert code == 1 and out == ""
        assert err == f"parameter error: {command} does not take config keys {sorted(values)}\n"

    @pytest.mark.parametrize("record", [
        {"type": "qexp", "hbar": None},
        {"type": "parafermionic", "F": "x"},
        {"type": "linear", "hbar": [1]},
        {"type": "parafermionic", "F": float("nan")},
        {"type": "qsym", "q": 2.0},
        {"type": ["qexp"], "hbar": 1.0},
    ])
    def test_bad_deformation_record(self, capsys, tmp_path, record):
        code, out, err = run_with_config(capsys, tmp_path, {"deformation": record})
        assert code == 1 and out == ""
        assert err.startswith("parameter error:") and "deformation" in err


GRID_KEYS = ("omega_min", "omega_max", "omega_count", "omega_scale")
#: The inputs each command reads, besides --out and --format: the keys of its
#: JSON params record after "command", in order.
COMMAND_KEYS = {
    "dims": ("F", "k", "n_max"),
    "spectrum": ("F", "k", "n", "omega", "delta", "g", "hbar", "deformation"),
    "thermo-scan": ("F", "k", "n", *GRID_KEYS, "delta", "g", "hbar", "beta", "deformation"),
    "semiclassical-compare": ("F", "k", "n", *GRID_KEYS, "delta", "g", "hbar", "beta"),
    "verify": ("scope", "mu_step"),
}
#: A command's flags, in --help order: its inputs, then the output flags.
COMMAND_FLAGS = {command: keys + (("out",) if command == "verify" else ("out", "format"))
                 for command, keys in COMMAND_KEYS.items()}
#: Arguments that make each command that writes a params record succeed.
MINIMAL_ARGV = {
    "dims": ("--F", "2", "--k", "1", "--n-max", "2"),
    "spectrum": ("--F", "2", "--k", "1", "--n", "2"),
    "thermo-scan": ("--F", "2", "--k", "1", "--n", "2", *GRID_1_2),
    "semiclassical-compare": ("--F", "2", "--k", "1", "--n", "2", *GRID_1_2),
}


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_parser_flags_are_the_command_inputs(command):
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = [action.dest for action in sub.choices[command]._actions
             if action.dest not in ("help", "config")]
    assert flags == list(COMMAND_FLAGS[command])


@pytest.mark.parametrize("command", sorted(MINIMAL_ARGV))
def test_json_params_record_holds_the_command_inputs(capsys, command):
    code, out, _ = run_cli(capsys, command, *MINIMAL_ARGV[command], "--format", "json")
    assert code == 0
    assert list(json.loads(out)["params"]) == ["command", *COMMAND_KEYS[command]]


@pytest.mark.parametrize("command", ["thermo-scan", "semiclassical-compare"])
def test_log_grid_ends_are_the_requested_omegas(capsys, command):
    # 10**log10(0.3) is 0.29999999999999993: the grid's ends are the flags' values
    argv = (command, "--F", "2", "--k", "1", "--n", "2", "--omega-min", "0.3", "--omega-max", "7")
    code, out, _ = run_cli(capsys, *argv, "--omega-count", "3")
    assert code == 0
    omegas = [line.split(",")[0] for line in out.strip().split("\n")[1:]]
    assert (omegas[0], omegas[-1]) == ("0.3", "7.0")
    code, out, _ = run_cli(capsys, *argv, "--omega-count", "1")
    assert code == 0
    assert [line.split(",")[0] for line in out.strip().split("\n")[1:]] == ["0.3"]


@pytest.mark.parametrize("argv", [
    ("dims", "--F", "2", "--k", "1", "--n-max", "2", "--delta", "2"),
    ("verify", "--F", "2"),
    ("verify", "--format", "csv"),
    ("spectrum", "--F", "2", "--k", "1", "--n", "2", "--beta", "2"),
], ids=["dims_delta", "verify_F", "verify_format", "spectrum_beta"])
def test_flag_the_command_does_not_read_rejected(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("parameter error:") and err.count("\n") == 1 and argv[-2] in err


def readme_commands():
    """The parafermi-jc commands of the README's "Command line" block, as argument lists."""
    text = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("parafermi-jc ")]


def test_readme_commands_run(capsys, tmp_path):
    commands = readme_commands()
    assert {argv[0] for argv in commands} == set(COMMAND_KEYS)
    for j, argv in enumerate(commands):
        code, _, err = run_cli(capsys, *argv, "--out", str(tmp_path / f"{j}.out"))
        assert (code, err) == (0, ""), argv
        assert (tmp_path / f"{j}.out").stat().st_size > 0


#: (plain, extreme) pools per input; an extreme int pool spans the whole drawn range.
POOLS = {
    "F": (range(2, 5), range(-1, 5)),
    "k": (range(1, 4), range(0, 4)),
    "n": (range(0, 7), range(-1, 7)),
    "n_max": (range(0, 7), range(-1, 7)),
    "omega_count": (range(1, 21), range(0, 21)),
    "omega_min": ([0.5, 1.0, 2.0], None),
    "omega_max": ([20.0, 80.0], None),
    "omega_scale": (["linear", "log"], ["linear", "log", None]),
    "deformation": (["undeformed", "linear", "qexp", "parafermionic"],
                    [None, {"type": "qexp", "hbar": 0.5}, {"type": "qexp", "hbar": 2.0}, {"type": []},
                     {"type": "parafermionic", "F": 3}]),
    "scope": (["algebra", "oracles", "thermo"], None),
    "mu_step": ([1e-4, 1e-5], None),
}
PLAIN_FLOATS = [0.5, 1.0, 2.0, 20.0]
EXTREME_FLOATS = [0.0, -1.0, math.nan, math.inf, -math.inf, 5e-324, 1e-310, 1e300, -1e300,
                  "x", "2.0", True, False, None]


@st.composite
def cli_cases(draw):
    """A command with plain inputs, except at most two drawn from the extreme pools."""
    command = draw(st.sampled_from(sorted(COMMAND_KEYS)))
    keys = COMMAND_KEYS[command]
    extreme = draw(st.sets(st.sampled_from(keys), max_size=2))
    flags, config = [], {}
    for key in keys:
        plain, wild = POOLS.get(key, (PLAIN_FLOATS, None))
        value = draw(st.sampled_from((wild or EXTREME_FLOATS) if key in extreme else plain))
        if isinstance(value, dict) or draw(st.booleans()):
            config[key] = value
        elif value is not None:
            text = value if isinstance(value, str) else json.dumps(value)
            flags.append(f"--{key.replace('_', '-')}={text}")
    return command, flags, config


@settings(max_examples=100, deadline=None)
@given(case=cli_cases())
def test_cli_property_clean_exit(tmp_path_factory, case):
    command, flags, config = case
    path = tmp_path_factory.getbasetemp() / "cli_property.json"
    path.write_text(json.dumps(config))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main([command, "--config", str(path), *flags])
    assert code in (0, 1, 2, 3)
    assert [str(w.message) for w in caught] == []
    if code in (1, 2):
        assert out.getvalue() == ""
        assert err.getvalue().startswith(("parameter error:", "numerical error:"))
        assert err.getvalue().count("\n") == 1
    if code == 0 and command == "verify":
        assert json.loads(out.getvalue())["passed"] is True
    elif code == 0:
        for line in out.getvalue().strip().split("\n")[1:]:
            assert all(math.isfinite(float(cell)) for cell in line.split(",") if cell)


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

    @pytest.mark.parametrize("F,k,n", [(2, 1, 4), (3, 1, 5)])
    def test_low_temperature_stays_finite(self, capsys, F, k, n):
        # Z underflows at beta = 100; both free energies come from log Z
        code, out, err = run_cli(capsys, "semiclassical-compare", "--F", str(F), "--k", str(k),
                                 "--n", str(n), "--beta", "100", "--omega-min", "0.5",
                                 "--omega-max", "80", "--omega-count", "9")
        assert code == 0 and err == ""
        cells = [float(c) for line in out.strip().split("\n")[1:] for c in line.split(",")]
        assert len(cells) == 36 and all(math.isfinite(c) for c in cells)

    def test_zero_free_energies_unsigned(self, capsys, monkeypatch):
        # log Z = 0 on both sides; -log Z / beta would be -0.0
        monkeypatch.setattr(cli, "log_partition_scan",
                            lambda params, n, omegas: [(omega, 0.0) for omega in omegas])
        monkeypatch.setattr(cli, "semiclassical_level_table",
                            lambda *args: np.zeros((2, 1)))
        code, out, err = run_cli(capsys, "semiclassical-compare", "--F", "2", "--k", "1",
                                 "--n", "2", *GRID_1_2)
        assert code == 0 and err == ""
        assert out.split("\n")[1:3] == ["1.0,0.0,0.0,0.0", "2.0,0.0,0.0,0.0"]

    def test_regime_validation(self, capsys):
        code, _, err = run_cli(capsys, "semiclassical-compare", "--F", "3", "--k", "2",
                               "--n", "5", "--omega-min", "1", "--omega-max", "2",
                               "--omega-count", "2")
        assert code == 1 and "closed forms" in err

    @pytest.mark.parametrize("F,k,n", [(2, 2, 2), (2, 3, 1), (3, 1, 2), (3, 2, 5)])
    def test_out_of_regime_never_solves(self, capsys, monkeypatch, F, k, n):
        # the closed form's regime (n > k for F = 2, n > F - 1 for k = 1) is
        # checked before the grid reaches the solver
        calls = []
        solve = thermo.eigensolver.eigendecompose

        def recorded(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return solve(*args, **kwargs)

        monkeypatch.setattr(thermo.eigensolver, "eigendecompose", recorded)
        code, out, err = run_cli(capsys, "semiclassical-compare", "--F", str(F), "--k", str(k),
                                 "--n", str(n), "--omega-min", "1", "--omega-max", "2",
                                 "--omega-count", "100")
        assert code == 1 and out == "" and err.startswith("parameter error:")
        assert calls == []

    @pytest.mark.parametrize("name", ["qexp", "parafermionic"])
    def test_deformation_flag_rejected(self, capsys, name):
        # the comparison is defined for phi(x) = hbar x only
        code, out, err = run_cli(capsys, "semiclassical-compare", "--F", "2", "--k", "1",
                                 "--n", "4", "--deformation", name, *GRID_1_2)
        assert code == 1 and out == ""
        assert err.startswith("parameter error:") and "--deformation" in err

    @pytest.mark.parametrize("deformation", ["qexp", {"type": "qexp", "hbar": 1.0}])
    def test_deformation_config_key_rejected(self, capsys, tmp_path, deformation):
        # rejected as the flag is; null still means "not given"
        config = tmp_path / "run.json"
        base = {"F": 2, "k": 1, "n": 4, "omega_min": 1.0, "omega_max": 2.0, "omega_count": 2}
        config.write_text(json.dumps({**base, "deformation": deformation}))
        code, out, err = run_cli(capsys, "semiclassical-compare", "--config", str(config))
        assert code == 1 and out == ""
        assert err.startswith("parameter error: semiclassical-compare") and "deformation" in err
        config.write_text(json.dumps({**base, "deformation": None}))
        code, with_null, _ = run_cli(capsys, "semiclassical-compare", "--config", str(config))
        assert code == 0
        code, without, _ = run_cli(capsys, "semiclassical-compare", "--F", "2", "--k", "1",
                                   "--n", "4", *GRID_1_2)
        assert code == 0 and with_null == without

    @pytest.mark.parametrize("F,k", [(2, 1), (3, 1), (4, 1), (2, 2), (2, 3)])
    def test_grid_matches_point_by_point(self, capsys, F, k):
        # the cases of scripts/free_energy_scan.py: the whole-grid evaluation
        # gives the bits of a one-point table at each omega
        n = k * (F - 1) + 3
        code, out, _ = run_cli(capsys, "semiclassical-compare", "--F", str(F), "--k", str(k),
                               "--n", str(n), "--delta", "20", "--omega-min", "0.5",
                               "--omega-max", "80", "--omega-count", "161")
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert len(rows) == 161
        for cells in rows:
            omega = float(cells[0])
            levels = semiclassical_level_table(F, k, n, 1.0, [omega], 20.0, 1.0)[0]
            assert cells[2] == repr(-log_sum_exp(levels, -1.0) / 1.0)

    @pytest.mark.parametrize("F,k", [(2, 1), (3, 1)])
    def test_first_overflowing_omega_named(self, capsys, F, k):
        # delta * omega leaves the float range in the upper part of the grid
        # only; the numerical side stays finite there
        argv = ("semiclassical-compare", "--F", str(F), "--k", str(k), "--n", "4",
                "--delta", "1e9", "--omega-min", "1e297", "--omega-max", "1e299",
                "--omega-count", "21", "--omega-scale", "linear")
        code, out, err, caught = run_cli_recording_warnings(capsys, *argv)
        assert code == 2 and out == "" and caught == []
        overflowing = []
        for omega in np.linspace(1e297, 1e299, 21).tolist():
            try:
                semiclassical_level_table(F, k, 4, 1.0, [omega], 1e9, 1.0)
            except NumericalError as exc:
                overflowing.append(str(exc))
        assert 0 < len(overflowing) < 20
        assert err == f"numerical error: {overflowing[0]}\n"


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

    def test_spin_equivalence_in_oracles(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--scope", "oracles")
        assert code == 0
        check, = [c for c in json.loads(out)["checks"] if c["name"] == "spin_equivalence"]
        assert check["passed"] and "F=4 apart by at least 1.18" in check["detail"]

    def test_non_finite_mu_step_named(self, capsys):
        # not the omega grid point -inf that the omega route would form from it
        code, out, err = run_cli(capsys, "verify", "--mu-step", "inf")
        assert (code, out) == (1, "")
        assert err == "parameter error: step must be positive and finite, got inf\n"

    def test_mu_step_beyond_float_range_named(self, capsys):
        # a parameter error (exit 1) naming the step, not a numerical error
        # (exit 2) at a grid point of the omega route
        code, out, err = run_cli(capsys, "verify", "--mu-step", "1e308")
        assert (code, out) == (1, "")
        assert err.startswith("parameter error: step 1e+308 ") and err.count("\n") == 1

    def test_unscaled_spin_coupling_is_caught(self, monkeypatch):
        # without g / sqrt(F - 1), F = 3 spins no longer match the parafermions
        good = verify.build_higher_spin_block

        def unscaled(params, n):
            return good(replace(params, g=params.g * math.sqrt(params.F - 1)), n)

        monkeypatch.setattr(verify, "build_higher_spin_block", unscaled)
        check = verify.spin_equivalence()
        assert not check.passed
        assert check.detail.startswith("F=3, n=1: deviation ")

    def test_block_structure_in_oracles(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--scope", "oracles")
        assert code == 0
        check, = [c for c in json.loads(out)["checks"] if c["name"] == "block_structure"]
        assert check["passed"] and check["detail"].startswith("max deviation ")

    def test_corrupted_block_hop_is_caught(self, monkeypatch):
        # scale build_block's hop phases only: the truncated full-space
        # Hamiltonian, built from the mode matrices, keeps the true ones
        good = blocks.root_of_unity_power
        monkeypatch.setattr(blocks, "root_of_unity_power", lambda F, e: 1.01 * good(F, e))
        check = verify.block_structure()
        assert not check.passed
        assert check.detail.startswith("F=2, k=2, n=1: block deviation ")
        assert "F=3, k=2, n=1: block deviation " in check.detail

    def test_reversal_symmetry_in_oracles(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--scope", "oracles")
        assert code == 0
        check, = [c for c in json.loads(out)["checks"] if c["name"] == "reversal_symmetry"]
        assert check["passed"] and check["detail"].startswith("max deviation ")
        assert " over 30 blocks " in check["detail"]

    def test_wrong_reversal_gauge_is_caught(self, monkeypatch):
        # the conjugate gauge q^(-e2 / 2) leaves the blocks of F >= 3 and k >= 2
        # complex; every such case fails by name.  Only e2 is negated: patching
        # the roots of unity would conjugate the block's own phases too
        good = blocks._hops

        def conjugate_gauge(F, k, n):
            hops = good(F, k, n)
            return hops._replace(e2=-hops.e2)

        monkeypatch.setattr(blocks, "_hops", conjugate_gauge)
        check = verify.reversal_symmetry()
        assert not check.passed
        assert check.detail.startswith("F=3, k=2, n=3, qexp: matrix breaks the mode-reversal "
                                       "symmetry of block (F=3, k=2, n=3) by ")
        assert "F=4, k=4, n=13, " in check.detail and "F=2, " not in check.detail

    def test_number_changing_coupling_is_caught(self, monkeypatch):
        good = verify.build_full_truncated

        def leaky(params, n_max):
            H, labels = good(params, n_max)
            H = H.copy()
            H[0, 1] = H[1, 0] = 0.5  # couples total number 0 (the vacuum) to 1
            return H, labels

        monkeypatch.setattr(verify, "build_full_truncated", leaky)
        check = verify.block_structure()
        assert not check.passed
        assert check.detail.startswith("F=2, k=2: |[H, N_total]| / max(1, max|H|) ")

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


def run_cli_recording_warnings(capsys, *argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, *argv)
    return code, out, err, [f"{w.filename}:{w.lineno}: {w.message}" for w in caught]


class TestEmit:
    """The CSV writer works column by column; its bytes and its error are those
    of a writer that goes row by row."""

    CFG = argparse.Namespace(command="spectrum", format="csv", out="-")
    HEADER = ["a", "b", "c", "d"]

    def test_csv_bytes_of_mixed_rows(self, capsys):
        rows = [[0, 1.5, None, np.float64(0.1)],
                [np.int64(1), -2.0, 3, 1e-300],
                [2, np.float64(-0.0), None, 5e-324]]
        cli._emit(self.CFG, self.HEADER, rows)
        by_row = "".join(",".join(cli._format_cell(cell) for cell in row) + "\n" for row in rows)
        out = capsys.readouterr().out
        assert out == "a,b,c,d\n" + by_row
        assert out == "a,b,c,d\n0,1.5,,0.1\n1,-2.0,3,1e-300\n2,-0.0,,5e-324\n"

    def test_header_only(self, capsys):
        cli._emit(self.CFG, self.HEADER, [])
        assert capsys.readouterr().out == "a,b,c,d\n"

    def test_first_non_finite_cell_in_row_order_named(self):
        # column b holds a nan in row 1, column d an inf in row 0: the error
        # names the inf, the first in row order
        rows = [[0, 1.0, None, math.inf], [1, math.nan, None, 2.0], [2, 1.0, None, -math.inf]]
        with pytest.raises(NumericalError, match=r"^spectrum computed a non-finite d: inf$"):
            cli._emit(self.CFG, self.HEADER, rows)
        rows[0][3] = 1.0
        with pytest.raises(NumericalError, match=r"^spectrum computed a non-finite b: nan$"):
            cli._emit(self.CFG, self.HEADER, rows)


class TestOverflowFailsCleanly:
    """Inputs that overflow the float range exit 1 or 2 with one error line
    and no numpy RuntimeWarning."""

    @pytest.mark.parametrize("argv,expected", [
        (("thermo-scan", "--F", "2", "--k", "1", "--n", "4", "--omega-min=-1.7e308",
          "--omega-max=1.7e308", "--omega-count", "3", "--omega-scale", "linear"), 1),
        (("semiclassical-compare", "--F", "2", "--k", "1", "--n", "4", "--g", "1e300") + GRID_1_2, 2),
        (("semiclassical-compare", "--F", "2", "--k", "1", "--n", "4", "--delta", "5e-324") + GRID_1_2, 2),
        (("semiclassical-compare", "--F", "3", "--k", "1", "--n", "4", "--delta", "5e-324") + GRID_1_2, 2),
        (("thermo-scan", "--F", "2", "--k", "1", "--n", "4", "--delta", "1e300",
          "--beta", "1e300") + GRID_1_2, 2),
        (("thermo-scan", "--F", "2", "--k", "1", "--n", "1", "--delta", "0",
          "--beta", "1e308") + GRID_1_2, 2),
    ], ids=["omega_range", "huge_g", "tiny_delta_f2", "tiny_delta_k1", "huge_beta_times_level",
            "huge_beta_times_level_spread"])
    def test_no_runtime_warning(self, capsys, argv, expected):
        code, out, err, caught = run_cli_recording_warnings(capsys, *argv)
        assert code == expected and out == "" and caught == []
        assert err.count("\n") == 1 and "RuntimeWarning" not in err

    @pytest.mark.parametrize("argv", [
        ("thermo-scan", "--F", "2", "--k", "1", "--n", "1", "--delta", "1e300", "--beta", "1e300"),
        ("thermo-scan", "--F", "2", "--k", "1", "--n", "1", "--delta", "-1000"),
        # n = 2 > k: in the closed form's regime, whose levels stay finite here
        ("semiclassical-compare", "--F", "2", "--k", "1", "--n", "2", "--delta", "1e10",
         "--beta", "1e300"),
    ], ids=["huge_beta_times_level", "partition_function", "semiclassical_numeric"])
    def test_failed_point_named(self, capsys, argv):
        code, out, err, caught = run_cli_recording_warnings(capsys, *argv, *GRID_1_2)
        assert code == 2 and out == "" and caught == []
        assert err.count("\n") == 1 and err.startswith("numerical error:")
        assert err.rstrip().endswith(f"at omega=1.0 (F=2, k=1, n={argv[6]})")

    @pytest.mark.parametrize("command,ending", [
        ("thermo-scan", "at omega=1e+308 (F=2, k=1, n=3)"),
        # the closed form's levels are evaluated before the grid is solved, and
        # overflow at the same omega
        ("semiclassical-compare", "(k=1, n=3, hbar=1.0, omega=1e+308, delta=1.0, g=1.0)"),
    ])
    def test_overflowing_omega_diagonal_named(self, capsys, command, ending):
        # omega * phi(n - W) reaches 3e308 at the top of the grid
        code, out, err, caught = run_cli_recording_warnings(
            capsys, command, "--F", "2", "--k", "1", "--n", "3", "--omega-min", "1",
            "--omega-max", "1e308", "--omega-scale", "linear", "--omega-count", "2")
        assert code == 2 and out == "" and caught == []
        assert err.count("\n") == 1 and err.startswith("numerical error:")
        assert err.rstrip().endswith(ending)

    @pytest.mark.parametrize("argv,message", [
        (("spectrum", "--F", "2", "--k", "1", "--n", "5", "--deformation", "linear",
          "--hbar", "1e308", "--omega", "10"),
         "the block's diagonal omega * phi(n - W) + delta * W leaves the float range "
         "(F=2, k=1, n=5)"),
        (("spectrum", "--F", "2", "--k", "1", "--n", "3", "--deformation", "qexp", "--hbar", "700"),
         "structure function Deformation(kind='qexp', param=700.0) overflows at x=3"),
        (("thermo-scan", "--F", "2", "--k", "1", "--n", "3", "--deformation", "qexp",
          "--hbar", "700") + GRID_1_2,
         "structure function Deformation(kind='qexp', param=700.0) overflows at x=3"),
    ], ids=["linear_diagonal", "qexp_spectrum", "qexp_thermo_scan"])
    def test_overflow_in_block_assembly_named(self, capsys, argv, message):
        code, out, err, caught = run_cli_recording_warnings(capsys, *argv)
        assert code == 2 and out == "" and caught == []
        assert err == f"numerical error: {message}\n"

    def test_stderr_of_a_process_holds_no_warning(self):
        proc = subprocess.run(
            [sys.executable, "-W", "default", "-m", "parafermi_jc", "semiclassical-compare",
             "--F", "2", "--k", "1", "--n", "4", "--g", "1e300", *GRID_1_2],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("numerical error:") and "Warning" not in proc.stderr


def test_module_invocation_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "parafermi_jc", "dims", "--F", "2", "--k", "1", "--n-max", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().split("\n") == ["n,dim", "0,1", "1,2"]


def test_parser_reuse_matches_fresh_processes(capsys, tmp_path):
    # the argument parser is built once per process; calls that follow one
    # another in a process, a failing one among them, behave as in new processes
    grid = ["--omega-min", "0.5", "--omega-max", "80", "--omega-count", "9"]
    calls = [
        ["thermo-scan", "--F", "3", "--k", "1", "--n", "3", "--delta", "20",
         "--deformation", "qexp", *grid],
        ["semiclassical-compare", "--F", "2", "--k", "1", "--n", "4", "--deformation", "qexp",
         *grid],
        ["semiclassical-compare", "--F", "2", "--k", "2", "--n", "5", "--delta", "20", *grid],
        ["dims", "--F", "3", "--k", "2", "--n-max", "5"],
    ]
    for j, argv in enumerate(calls):
        argv = [*argv, "--out", str(tmp_path / f"{j}.csv")]
        code, out, err = run_cli(capsys, *argv)
        written = (tmp_path / f"{j}.csv").read_bytes() if code == 0 else None
        proc = subprocess.run([sys.executable, "-m", "parafermi_jc", *argv],
                              capture_output=True, text=True)
        assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr)
        assert written == ((tmp_path / f"{j}.csv").read_bytes() if code == 0 else None)
        assert code == (1 if j == 1 else 0)
