import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import swphase
from swphase import cli, composite, kernel, linalg
from swphase.cli import main
from swphase.linalg import matrix_to_json


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_matrix(path, mat):
    path.write_text(json.dumps(matrix_to_json(mat)))
    return str(path)


def run_fresh(argv) -> subprocess.CompletedProcess:
    """Run `python -m swphase argv` in a fresh interpreter on the tested sources."""
    src = str(Path(swphase.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-m", "swphase", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


class TestParserReuse:
    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_calls_in_one_process_match_fresh_processes(self, capsys):
        # A usage error first, then a flag that the next call must not inherit.
        with pytest.raises(SystemExit) as exc:
            main(["moduli", "scan"])
        assert exc.value.code == 2
        outs = [capsys.readouterr().out]
        calls = [["moduli", "scan", "--n", "3", "--zero-params"],
                 ["moduli", "scan", "--n", "3", "--seed", "5"],
                 ["reconstruct", "--n", "4", "--samples", "100", "--format", "csv"]]
        for argv in calls:
            assert main(argv) == 0
            outs.append(capsys.readouterr().out)
        assert "degenerate" not in outs[2]
        fresh = [run_fresh(argv).stdout for argv in [["moduli", "scan"], *calls]]
        assert outs == fresh


    @pytest.mark.parametrize("argv", [
        ["kernel", "gen", "--n", "4", "--composite", "--dims", "2y2"],
        ["reconstruct", "--n", "4", "--samples", "0"],
        ["moduli", "scan"],
        ["moduli", "scan", "--n", "x"],
        ["frobnicate"],
    ], ids=["dims", "samples", "missing-n", "bad-int", "unknown-command"])
    def test_parse_error_exit_2_with_one_error_line(self, argv):
        proc = run_fresh(argv)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["kernel", "gen", "--n", "4", "--seed", "-1"],
        ["reconstruct", "--n", "4", "--samples", "10", "--seed", "-5"],
        ["moduli", "scan", "--n", "2", "--seed", "-1"],
    ], ids=["kernel-gen", "reconstruct", "moduli-scan"])
    def test_negative_seed_names_the_option(self, argv):
        proc = run_fresh(argv)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (f"error: argument --seed: seed must be a non-negative "
                               f"integer, got '{argv[-1]}'\n")

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    @pytest.mark.parametrize("command", [["kernel", "verify"],
                                         ["composite", "verify", "--dims", "2x2"]],
                             ids=["kernel-verify", "composite-verify"])
    def test_bad_tol_names_the_option(self, tmp_path, capsys, command, tol):
        path = write_matrix(tmp_path / "m.json", np.eye(4) / 4)
        with pytest.raises(SystemExit) as exc:
            main([*command, path, "--tol", tol])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert captured.err == (f"error: argument --tol: tol must be a positive finite "
                                f"number, got '{tol}'\n")


class TestKernelGen:
    def test_n2_spectrum(self, capsys):
        code, out, _ = run(["kernel", "gen", "--n", "2", "--seed", "7"], capsys)
        assert code == 0
        payload = json.loads(out)
        np.testing.assert_allclose(
            payload["spectrum"],
            [(1 + np.sqrt(3)) / 2, (1 - np.sqrt(3)) / 2], atol=1e-12)
        assert payload["hermitian"] is True
        assert payload["trace_residual"] < 1e-12

    def test_rejects_n1(self, capsys):
        code, _, err = run(["kernel", "gen", "--n", "1"], capsys)
        assert code == 2
        assert "error" in err

    def test_composite_gen(self, capsys):
        code, out, _ = run(
            ["kernel", "gen", "--n", "4", "--composite", "--dims", "2x2",
             "--seed", "3"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["eq8_a"] < 1e-10
        assert payload["eq8_b"] < 1e-10
        assert payload["admissible"] is True
        assert payload["matrix"]["dim"] == 4
        # The full-system residuals appear once, under eq6.
        assert set(payload) == {"dims", "eq6", "eq8_a", "eq8_b", "admissible",
                                "schema", "n", "seed", "spectrum", "matrix"}
        assert set(payload["eq6"]) == {"hermitian", "hermiticity_defect",
                                       "trace_residual", "purity_residual"}

    def test_composite_gen_verifies_once(self, capsys, count_calls):
        # The matrix is verified once, by the SWKernel constructor; the
        # composite report builds on that report instead of verifying again.
        master = count_calls(kernel, "verify_master")
        composite_calls = count_calls(composite, "verify_composite_master")
        code, out, _ = run(
            ["kernel", "gen", "--n", "4", "--composite", "--dims", "2x2",
             "--seed", "3"], capsys)
        assert code == 0
        assert len(master) == 1
        assert composite_calls == []
        comp = composite.make_composite_kernel(linalg.BipartiteDims(2, 2), 3)
        assert out == cli._dump_json({
            **comp.report.as_dict(), "schema": 1, "n": 4, "seed": 3,
            "spectrum": [float(v) for v in comp.kernel.spectrum],
            "matrix": matrix_to_json(comp.mat)}) + "\n"

    def test_gen_prints_the_constructor_report(self, capsys, count_calls):
        master = count_calls(kernel, "verify_master")
        code, out, _ = run(["kernel", "gen", "--n", "4", "--seed", "7"], capsys)
        assert code == 0
        assert len(master) == 1
        spec = kernel.solve_kernel_spectrum(4, "random", seed=7)
        ker = kernel.kernel_from_spectrum(spec, linalg.haar_unitary(4, 7))
        assert out == cli._dump_json({
            **ker.report.as_dict(), "schema": 1, "n": 4, "seed": 7,
            "spectrum": [float(v) for v in spec.pi],
            "matrix": matrix_to_json(ker.mat)}) + "\n"

    @pytest.mark.parametrize("argv", [
        ["--n", "1000000"],
        ["--n", str(cli._MAX_KERNEL_N + 1)],
        ["--n", "1000000", "--composite", "--dims", "1000x1000"],
    ])
    def test_huge_n_exit_2_before_allocating(self, capsys, monkeypatch, argv):
        def forbidden(*args, **kwargs):
            raise AssertionError("nothing may be drawn for a rejected --n")

        for module, name in ((linalg, "haar_unitary"), (kernel, "solve_kernel_spectrum"),
                             (composite, "make_composite_kernel")):
            monkeypatch.setattr(module, name, forbidden)
        code, out, err = run(["kernel", "gen", *argv], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: --n") and err.count("\n") == 1

    def test_composite_needs_matching_dims(self, capsys):
        code, _, err = run(
            ["kernel", "gen", "--n", "4", "--composite", "--dims", "2x3"], capsys)
        assert code == 2

    def test_dims_without_composite_exit_2(self, tmp_path, capsys, count_calls):
        # --dims names a bipartition, which only a composite kernel has: without
        # --composite it is refused before any kernel is drawn or written.
        drawn = count_calls(linalg, "haar_unitary")
        out_path = tmp_path / "k.json"
        code, out, err = run(["kernel", "gen", "--n", "4", "--dims", "2x2",
                              "--out", str(out_path)], capsys)
        assert code == 2
        assert (out, err) == ("", "error: --dims requires --composite\n")
        assert drawn == [] and not out_path.exists()

    def test_output_file_deterministic(self, tmp_path, capsys):
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        run(["kernel", "gen", "--n", "3", "--seed", "5", "--out", str(p1)], capsys)
        run(["kernel", "gen", "--n", "3", "--seed", "5", "--out", str(p2)], capsys)
        assert p1.read_bytes() == p2.read_bytes()


class TestKernelVerify:
    def test_valid_kernel_exit_0(self, tmp_path, capsys):
        # The report kernel gen writes is valid input to kernel verify as is.
        path = tmp_path / "kernel.json"
        run(["kernel", "gen", "--n", "4", "--seed", "2", "--out", str(path)], capsys)
        code, out, _ = run(["kernel", "verify", str(path)], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["purity_residual"] < 1e-10
        assert len(payload["spectrum"]) == 4

    def test_maximally_mixed_exit_1(self, tmp_path, capsys):
        path = write_matrix(tmp_path / "mixed.json", np.eye(4) / 4)
        code, out, _ = run(["kernel", "verify", path], capsys)
        assert code == 1
        payload = json.loads(out)
        assert payload["purity_residual"] > 3.0

    def test_truncated_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"dim": 4, "entries": [[1.0, 0.0]')
        code, _, err = run(["kernel", "verify", str(path)], capsys)
        assert code == 2

    @pytest.mark.parametrize("entries", [[1, 2, 3, 4], [[1, 0], [0, 0], 5, [1, 0]],
                                         [[[1], 0]] * 4, 7])
    def test_malformed_entries_exit_2(self, tmp_path, capsys, entries):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": 2, "entries": entries}))
        code, out, err = run(["kernel", "verify", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot read matrix:") and err.count("\n") == 1

    @pytest.mark.parametrize("obj", [
        {"dim": 2.9, "entries": [[1, 0]] * 4},
        {"dim": "2", "entries": [[1, 0]] * 4},
        {"dim": True, "entries": [[1, 0]]},
        {"dim": 1, "entries": [["1", "0"]]},
        {"dim": 1, "entries": [[True, 0]]},
    ], ids=["dim-float", "dim-str", "dim-bool", "entry-str", "entry-bool"])
    def test_non_number_types_exit_2(self, tmp_path, capsys, obj):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        code, out, err = run(["kernel", "verify", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot read matrix:") and err.count("\n") == 1

    def test_dim_override_mismatch_exit_2(self, tmp_path, capsys):
        path = write_matrix(tmp_path / "k.json", np.eye(2) / 2)
        code, _, _ = run(["kernel", "verify", path, "--n", "4"], capsys)
        assert code == 2


class TestReportEnvelope:
    """Every matrix reader accepts the report that kernel gen writes."""

    def test_composite_gen_pipes_into_composite_verify(self, tmp_path, capsys):
        path = tmp_path / "comp.json"
        run(["kernel", "gen", "--n", "4", "--composite", "--dims", "2x2", "--seed", "3",
             "--out", str(path)], capsys)
        code, out, _ = run(["composite", "verify", str(path), "--dims", "2x2"], capsys)
        assert code == 0
        assert json.loads(out)["admissible"] is True

    def test_gen_pipes_into_wigner_eval(self, tmp_path, capsys):
        path = tmp_path / "kernel.json"
        run(["kernel", "gen", "--n", "2", "--seed", "4", "--out", str(path)], capsys)
        state = write_matrix(tmp_path / "state.json", np.diag([1.0, 0.0]))
        code, out, _ = run(["wigner", "eval", state, str(path)], capsys)
        assert code == 0
        mat = linalg.matrix_from_json(json.loads(path.read_text())["matrix"])
        assert abs(json.loads(out)["w"] - mat[0, 0].real) < 1e-12

    def test_envelope_without_matrix_exit_2(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"n": 2, "matrix": {"dim": 2}}))
        code, out, err = run(["kernel", "verify", str(path)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: cannot read matrix:")

    def test_reports_carry_schema(self, tmp_path, capsys):
        gen = tmp_path / "gen.json"
        comp = tmp_path / "comp.json"
        run(["kernel", "gen", "--n", "3", "--seed", "5", "--out", str(gen)], capsys)
        run(["kernel", "gen", "--n", "4", "--composite", "--dims", "2x2", "--seed", "5",
             "--out", str(comp)], capsys)
        assert json.loads(gen.read_text())["schema"] == 1
        assert json.loads(comp.read_text())["schema"] == 1
        for argv in (["kernel", "verify", str(gen)],
                     ["composite", "verify", str(comp), "--dims", "2x2"]):
            code, out, _ = run(argv, capsys)
            assert code == 0 and json.loads(out)["schema"] == 1

    @pytest.mark.parametrize("envelope", [
        lambda report: report,
        lambda report: {k: v for k, v in report.items() if k != "schema"},
        lambda report: report["matrix"],
    ], ids=["schema_1", "no_schema", "bare_matrix"])
    def test_readers_accept_schema_1_or_none(self, tmp_path, capsys, envelope):
        gen = tmp_path / "gen.json"
        run(["kernel", "gen", "--n", "4", "--composite", "--dims", "2x2", "--seed", "5",
             "--out", str(gen)], capsys)
        path = tmp_path / "in.json"
        path.write_text(json.dumps(envelope(json.loads(gen.read_text()))))
        state = write_matrix(tmp_path / "state.json", np.diag([1.0, 0.0, 0.0, 0.0]))
        for argv in (["kernel", "verify", str(path)],
                     ["composite", "verify", str(path), "--dims", "2x2"],
                     ["wigner", "eval", state, str(path)]):
            code, out, err = run(argv, capsys)
            assert code == 0 and err == "", argv

    @pytest.mark.parametrize("schema", [2, 0, "1", 1.0, True, None])
    def test_other_schema_exit_2(self, tmp_path, capsys, schema):
        gen = tmp_path / "gen.json"
        run(["kernel", "gen", "--n", "2", "--seed", "4", "--out", str(gen)], capsys)
        path = tmp_path / "future.json"
        path.write_text(json.dumps({**json.loads(gen.read_text()), "schema": schema}))
        for argv in (["kernel", "verify", str(path)],
                     ["composite", "verify", str(path), "--dims", "1x2"],
                     ["wigner", "eval", str(path), str(gen)]):
            code, out, err = run(argv, capsys)
            assert code == 2 and out == ""
            assert err.startswith("error: cannot read matrix: unsupported report schema")
            assert err.count("\n") == 1


def _nan_matrix(path):
    entries = [[0.0, 0.0]] * 16
    entries[5] = [float("nan"), 0.0]
    path.write_text(json.dumps({"dim": 4, "entries": entries}))  # writes the NaN token
    return str(path)


def _overflowing_matrix(path):
    # Finite entries whose residuals overflow to inf.
    return write_matrix(path, np.diag([1e308, 1e308, 0.0, 0.0]))


class TestStrictJson:
    """Non-finite input or results give exit 2 and one error line, never NaN."""

    VERIFY = [["kernel", "verify"], ["composite", "verify", "--dims", "2x2"]]

    @pytest.mark.parametrize("command", VERIFY)
    def test_nan_entry_exit_2(self, tmp_path, capsys, command):
        path = _nan_matrix(tmp_path / "nan.json")
        code, out, err = run([*command[:2], path, *command[2:]], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot read matrix:") and err.count("\n") == 1
        assert "finite" in err

    @pytest.mark.parametrize("command", VERIFY)
    def test_overflowing_report_exit_2(self, tmp_path, capsys, command):
        path = _overflowing_matrix(tmp_path / "big.json")
        code, out, err = run([*command[:2], path, *command[2:]], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_overflowing_report_one_stderr_line_in_a_process(self, tmp_path):
        # Outside pytest's warning capture: numpy overflow warnings must not
        # add lines to the error either.
        path = _overflowing_matrix(tmp_path / "big.json")
        proc = run_fresh(["kernel", "verify", path])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1

    def test_dump_rejects_non_finite(self):
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError):
                cli._dump_json({"x": bad})


class TestCompositeVerify:
    def test_valid_exit_0(self, tmp_path, capsys):
        from swphase.composite import make_composite_kernel
        from swphase.linalg import BipartiteDims

        comp = make_composite_kernel(BipartiteDims(2, 2), 0)
        path = write_matrix(tmp_path / "comp.json", comp.mat)
        code, out, _ = run(["composite", "verify", path, "--dims", "2x2"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["admissible"] is True
        assert set(payload) == {"dims", "eq6", "eq8_a", "eq8_b", "admissible", "schema"}

    def test_maximally_mixed_exit_1(self, tmp_path, capsys):
        path = write_matrix(tmp_path / "mixed.json", np.eye(4) / 4)
        code, out, _ = run(["composite", "verify", path, "--dims", "2x2"], capsys)
        assert code == 1
        payload = json.loads(out)
        assert abs(payload["eq8_a"] - 1.5) < 1e-12

    def test_wrong_dims_exit_2(self, tmp_path, capsys):
        path = write_matrix(tmp_path / "m.json", np.eye(4) / 4)
        code, _, _ = run(["composite", "verify", path, "--dims", "2x3"], capsys)
        assert code == 2

    @pytest.mark.parametrize("tol", ["1e-20", "1e-10", "1e-3"])
    @pytest.mark.parametrize("perturbed", [False, True], ids=["valid", "perturbed"])
    def test_admissible_is_the_exit_verdict(self, tmp_path, capsys, tol, perturbed):
        from swphase.composite import make_composite_kernel
        from swphase.linalg import BipartiteDims

        mat = make_composite_kernel(BipartiteDims(2, 2), 0).mat
        if perturbed:  # trace kept, purities moved by about 1e-6
            mat = mat + np.diag([1e-6, -1e-6, 0.0, 0.0])
        path = write_matrix(tmp_path / "comp.json", mat)
        code, out, _ = run(["composite", "verify", path, "--dims", "2x2", "--tol", tol], capsys)
        admissible = json.loads(out)["admissible"]
        assert admissible == (code == 0)
        if perturbed:
            assert admissible == (tol == "1e-3")

    def test_garbage_exit_2(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text("not json at all")
        code, _, _ = run(["composite", "verify", str(path), "--dims", "2x2"], capsys)
        assert code == 2


class TestWignerEval:
    def test_basic_pairing(self, tmp_path, capsys):
        from swphase.kernel import kernel_from_spectrum, solve_kernel_spectrum

        ker = kernel_from_spectrum(solve_kernel_spectrum(2), np.eye(2))
        state = write_matrix(tmp_path / "state.json", np.diag([1.0, 0.0]))
        kpath = write_matrix(tmp_path / "kernel.json", ker.mat)
        code, out, _ = run(["wigner", "eval", state, kpath], capsys)
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["w"] - (1 + np.sqrt(3)) / 2) < 1e-12

    def test_invalid_state_exit_1(self, tmp_path, capsys):
        from swphase.kernel import kernel_from_spectrum, solve_kernel_spectrum

        ker = kernel_from_spectrum(solve_kernel_spectrum(2), np.eye(2))
        state = write_matrix(tmp_path / "state.json", np.eye(2))  # trace 2
        kpath = write_matrix(tmp_path / "kernel.json", ker.mat)
        code, _, err = run(["wigner", "eval", state, kpath], capsys)
        assert code == 1

    def test_missing_file_exit_2(self, tmp_path, capsys):
        code, _, _ = run(["wigner", "eval", str(tmp_path / "no.json"),
                          str(tmp_path / "nope.json")], capsys)
        assert code == 2


class TestReconstruct:
    def test_json_payload(self, capsys):
        code, out, _ = run(
            ["reconstruct", "--n", "4", "--samples", "200,2000", "--seed", "1"],
            capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["exact_residual"] < 1e-12
        assert [row["samples"] for row in payload["ladder"]] == [200, 2000]

    def test_csv_format(self, capsys):
        code, out, _ = run(
            ["reconstruct", "--n", "4", "--samples", "100", "--seed", "1",
             "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "samples,frobenius_error"
        assert lines[1].startswith("100,")
        assert lines[2].startswith("exact,")

    def test_deterministic(self, tmp_path, capsys):
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = ["reconstruct", "--n", "4", "--samples", "500", "--seed", "9"]
        run(args + ["--out", str(p1)], capsys)
        run(args + ["--out", str(p2)], capsys)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_samples_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["reconstruct", "--n", "4", "--samples", "10,-3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("n", ["100000", str(cli._MAX_KERNEL_N + 1)])
    def test_huge_n_exit_2_before_allocating(self, capsys, monkeypatch, n):
        def forbidden(*args, **kwargs):
            raise AssertionError("nothing may be drawn for a rejected --n")

        for module, name in ((kernel, "solve_kernel_spectrum"), (linalg, "random_density"),
                             (kernel, "reconstruct_mc")):
            monkeypatch.setattr(module, name, forbidden)
        code, out, err = run(["reconstruct", "--n", n, "--samples", "1"], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: --n {n} is above the limit {cli._MAX_KERNEL_N}\n"


class TestModuliScan:
    def test_zero_params_degenerate_record(self, capsys):
        code, out, _ = run(
            ["moduli", "scan", "--n", "1", "--zero-params", "--seed", "0"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2
        assert lines[1].split(",")[16] == "degenerate"

    def test_csv_contract(self, capsys):
        import csv as csvmod

        code, out, _ = run(["moduli", "scan", "--n", "6", "--seed", "3"], capsys)
        assert code == 0
        rows = list(csvmod.reader(out.strip().split("\n")))
        header = rows[0]
        assert len(rows) == 7
        for row in rows[1:]:
            assert len(row) == len(header)

    def test_json_format(self, capsys):
        code, out, _ = run(
            ["moduli", "scan", "--n", "2", "--seed", "5", "--format", "json"],
            capsys)
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 2
        assert payload[0]["record_index"] == 0

    def test_byte_identical(self, tmp_path, capsys):
        p1, p2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        args = ["moduli", "scan", "--n", "4", "--seed", "11"]
        run(args + ["--out", str(p1)], capsys)
        run(args + ["--out", str(p2)], capsys)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("ranges", ["-inf,inf", "-inf,0", "-1e308,1e308", "0,nan", "2,1",
                                        "abc"])
    def test_bad_ranges_exit_2_with_one_error_line(self, ranges):
        proc = run_fresh(["moduli", "scan", "--n", "2", f"--ranges={ranges}"])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


class TestOutputErrors:
    @pytest.mark.parametrize("argv", [
        ["kernel", "gen", "--n", "2"],
        ["reconstruct", "--n", "2", "--samples", "10"],
        ["moduli", "scan", "--n", "1"],
    ], ids=["kernel-gen", "reconstruct", "moduli-scan"])
    def test_unwritable_path_exit_2(self, tmp_path, capsys, argv):
        code, out, err = run(argv + ["--out", str(tmp_path / "missing_dir" / "out")], capsys)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


class TestRuntimeDependencies:
    def test_cli_loads_numpy_only(self):
        # scipy is a test dependency only: the independent references of the
        # tests use it, the library and the CLI must not load it.
        code = """\
import contextlib, io, sys
import swphase.cli as cli
argvs = [["moduli", "scan", "--n", "30"], ["reconstruct", "--n", "4", "--samples", "100"],
         ["kernel", "gen", "--n", "4"]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in argvs]
print(codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
        src = str(Path(swphase.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[0, 0, 0] []"
