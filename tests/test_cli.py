import json
import os
import signal
import stat
from pathlib import Path

import numpy as np
import pytest

from swphase import cli, composite, kernel, linalg, twoqubit
from swphase.cli import main
from swphase.linalg import matrix_to_json


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_matrix(path, mat):
    path.write_text(json.dumps(matrix_to_json(mat)))
    return str(path)


class TestParserReuse:
    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_calls_in_one_process_match_fresh_processes(self, capsys, run_fresh):
        # A usage error first, then a flag that the next call must not inherit.
        with pytest.raises(SystemExit) as exc:
            main(["moduli", "scan"])
        assert exc.value.code == 2
        outs = [capsys.readouterr().out]
        calls = [["moduli", "scan", "--n", "3", "--ranges", "0,0"],
                 ["moduli", "scan", "--n", "3", "--seed", "5"],
                 ["reconstruct", "--n", "4", "--samples", "100", "--format", "csv"]]
        for argv in calls:
            assert main(argv) == 0
            outs.append(capsys.readouterr().out)
        assert "degenerate" not in outs[2]
        fresh = [run_fresh(["-m", "swphase", *argv]).stdout for argv in [["moduli", "scan"], *calls]]
        assert outs == fresh


    @pytest.mark.parametrize("argv", [
        ["kernel", "gen", "--n", "4", "--dims", "2y2"],
        ["reconstruct", "--n", "4", "--samples", "0"],
        ["moduli", "scan"],
        ["moduli", "scan", "--n", "x"],
        ["frobnicate"],
        ["kernel", "verify", "k.json", "--n", "4"],
    ], ids=["dims", "samples", "missing-n", "bad-int", "unknown-command", "verify-n"])
    def test_parse_error_exit_2_with_one_error_line(self, argv, run_fresh):
        proc = run_fresh(["-m", "swphase", *argv])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["kernel", "gen", "--n", "4", "--seed", "-1"],
        ["reconstruct", "--n", "4", "--samples", "10", "--seed", "-5"],
        ["moduli", "scan", "--n", "2", "--seed", "-1"],
    ], ids=["kernel-gen", "reconstruct", "moduli-scan"])
    def test_negative_seed_names_the_option(self, argv, run_fresh):
        proc = run_fresh(["-m", "swphase", *argv])
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

    def test_rejects_n1(self, capsys, monkeypatch):
        # solve_kernel_spectrum refuses n = 1 before anything is drawn.
        def forbidden(*args, **kwargs):
            raise AssertionError("nothing may be drawn for a rejected --n")

        for name in ("haar_unitary", "random_density"):
            monkeypatch.setattr(linalg, name, forbidden)
        for argv in (["kernel", "gen", "--n", "1"], ["reconstruct", "--n", "1", "--samples", "10"]):
            assert run(argv, capsys) == (2, "", "error: kernel spectra need n >= 2\n")

    def test_composite_gen(self, capsys):
        code, out, _ = run(
            ["kernel", "gen", "--n", "4", "--dims", "2x2",
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
            ["kernel", "gen", "--n", "4", "--dims", "2x2",
             "--seed", "3"], capsys)
        assert code == 0
        assert len(master) == 1
        assert composite_calls == []
        comp = composite.make_composite_kernel(linalg.BipartiteDims(2, 2), 3)
        assert out == cli._dump_json({
            **comp.report.as_dict(), "schema": 1, "n": 4, "seed": 3,
            "spectrum": [float(v) for v in comp.kernel.spectrum],
            "matrix": matrix_to_json(comp.mat)})

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
            "matrix": matrix_to_json(ker.mat)})

    @pytest.mark.parametrize("argv", [
        ["--n", "1000000"],
        ["--n", str(cli._MAX_KERNEL_N + 1)],
        ["--n", "1000000", "--dims", "1000x1000"],
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

    def test_composite_needs_matching_dims(self, tmp_path, capsys, count_calls):
        # --dims selects the composite draw; a bipartition that does not
        # match --n is refused before any kernel is drawn or written.
        drawn = count_calls(composite, "make_composite_kernel")
        out_path = tmp_path / "k.json"
        code, out, err = run(["kernel", "gen", "--n", "5", "--dims", "2x2",
                              "--out", str(out_path)], capsys)
        assert code == 2
        assert (out, err) == ("", "error: --dims 2x2 does not match --n 5\n")
        assert drawn == [] and not out_path.exists()

    def test_output_file_deterministic(self, tmp_path, capsys):
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        run(["kernel", "gen", "--n", "3", "--seed", "5", "--out", str(p1)], capsys)
        run(["kernel", "gen", "--n", "3", "--seed", "5", "--out", str(p2)], capsys)
        assert p1.read_bytes() == p2.read_bytes()


class TestKernelVerify:
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


class TestReportEnvelope:
    """Every matrix reader accepts the report that kernel gen writes."""

    def test_composite_gen_pipes_into_composite_verify(self, tmp_path, capsys):
        # Unequal factors place X_A ⊗ I_B at row stride n_b: both orientations.
        for n, dims in (("4", "2x2"), ("6", "3x2"), ("6", "2x3")):
            path = tmp_path / f"comp{dims}.json"
            run(["kernel", "gen", "--n", n, "--dims", dims, "--seed", "3",
                 "--out", str(path)], capsys)
            code, out, _ = run(["composite", "verify", str(path), "--dims", dims], capsys)
            assert code == 0, dims
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
        run(["kernel", "gen", "--n", "4", "--dims", "2x2", "--seed", "5",
             "--out", str(comp)], capsys)
        assert json.loads(gen.read_text())["schema"] == 1
        assert json.loads(comp.read_text())["schema"] == 1
        for argv, keys in (
                (["kernel", "verify", str(gen)],
                 {"hermitian", "hermiticity_defect", "trace_residual", "purity_residual",
                  "schema", "n", "spectrum"}),
                (["composite", "verify", str(comp), "--dims", "2x2"],
                 {"dims", "eq6", "eq8_a", "eq8_b", "admissible", "schema"})):
            code, out, _ = run(argv, capsys)
            payload = json.loads(out)
            assert code == 0 and payload["schema"] == 1 and set(payload) == keys

    @pytest.mark.parametrize("envelope", [
        lambda report: report,
        lambda report: {k: v for k, v in report.items() if k != "schema"},
        lambda report: report["matrix"],
    ], ids=["schema_1", "no_schema", "bare_matrix"])
    def test_readers_accept_schema_1_or_none(self, tmp_path, capsys, envelope):
        gen = tmp_path / "gen.json"
        run(["kernel", "gen", "--n", "4", "--dims", "2x2", "--seed", "5",
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

    def test_overflowing_report_one_stderr_line_in_a_process(self, tmp_path, run_fresh):
        # Outside pytest's warning capture: numpy overflow warnings must not
        # add lines to the error either.
        path = _overflowing_matrix(tmp_path / "big.json")
        proc = run_fresh(["-m", "swphase", "kernel", "verify", path])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1

    def test_dump_rejects_non_finite(self):
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError):
                cli._dump_json({"x": bad})


class TestCompositeVerify:
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
        # A state is no kernel: purity 1, not N = 2.
        code, out, err = run(["wigner", "eval", state, state], capsys)
        assert (code, out) == (1, "") and err.startswith("error: invalid inputs:")

    def test_dimension_mismatch_exit_2(self, tmp_path, capsys, monkeypatch):
        # Sizes are compared before either matrix is judged, like composite verify's
        # --dims against the file, so a 3x3 state and a 4x4 kernel are a usage error.
        from swphase.kernel import solve_kernel_spectrum

        def forbidden(*args, **kwargs):
            raise AssertionError("matrices of different sizes must not be judged")

        monkeypatch.setattr(linalg, "DensityMatrix", forbidden)
        monkeypatch.setattr(kernel, "SWKernel", forbidden)
        state = write_matrix(tmp_path / "state.json", np.eye(3) / 3)
        kpath = write_matrix(tmp_path / "kernel.json", np.diag(solve_kernel_spectrum(4).pi))
        code, out, err = run(["wigner", "eval", state, kpath], capsys)
        assert (code, out) == (2, "")
        assert err == "error: dimension mismatch: state 3, kernel 4\n"

    def test_missing_file_exit_2(self, tmp_path, capsys):
        code, _, _ = run(["wigner", "eval", str(tmp_path / "no.json"),
                          str(tmp_path / "nope.json")], capsys)
        assert code == 2


class TestReconstruct:
    def test_json_payload(self, capsys):
        # Both frame builders on both sides of the cut: Householder planes up to
        # _PLANES_MAX_N = 12 (one plane and no reflector at n = 2, a reflection from
        # n = 3), compact-WY frames from 13; n = 4 and 32 are the benchmark's sizes,
        # and 300 samples at n = 32 take five chunks, the last one short.
        for n, samples in ((4, [200, 2000]), (2, [30, 300]), (3, [30, 300]),
                           (12, [30, 300]), (13, [30, 300]), (32, [30, 300])):
            code, out, _ = run(["reconstruct", "--n", str(n), "--samples",
                                ",".join(map(str, samples)), "--seed", "1"], capsys)
            assert code == 0
            payload = json.loads(out)
            assert payload["exact_residual"] < 1e-12
            assert [row["samples"] for row in payload["ladder"]] == samples
            errors = [row["frobenius_error"] for row in payload["ladder"]]
            assert errors[1] < errors[0], n

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

    @pytest.mark.parametrize("n, ladder", [(4, [100, 1000]), (32, [100, 1000]),
                                           (4, [1000, 10, 1000])],
                             ids=["n4", "n32", "unsorted-repeated"])
    def test_rungs_are_prefixes_of_one_stream(self, capsys, monkeypatch, n, ladder):
        # The ladder draws max(ladder) samples of the stream (seed, 0), and each
        # rung is the estimate from its prefix: bit for bit at the smallest rung,
        # whose chunks a call of its own shares, and to roundoff at the others.
        # Rows keep the given order, and a repeated rung repeats its row.
        drawn, frames = [], kernel._orbit_frames

        def counting(t, *work):
            drawn.append(t.shape[-1])  # the sample axis
            return frames(t, *work)

        monkeypatch.setattr(kernel, "_orbit_frames", counting)
        code, out, _ = run(["reconstruct", "--n", str(n), "--samples", ",".join(map(str, ladder)),
                            "--seed", "3", "--format", "csv"], capsys)
        assert code == 0 and sum(drawn) == max(ladder)
        rows = [row.split(",") for row in out.splitlines()[1:-1]]
        assert [int(row[0]) for row in rows] == ladder
        assert len({tuple(row) for row in rows}) == len(set(ladder))
        rho = linalg.random_density(n, 4)
        spec = kernel.solve_kernel_spectrum(n, "random", seed=3)
        for samples, (_, error) in zip(ladder, rows):
            want = np.linalg.norm(kernel.reconstruct_mc(rho, spec, samples, (3, 0)) - rho.mat)
            assert abs(float(error) - want) <= (0.0 if samples == min(ladder) else 1e-13)

    def test_bad_samples_exit_2(self, capsys):
        # A negative rung, and empty fields, which are refused and not dropped.
        for samples in ("10,-3", ",10", "10,,100", "10,"):
            with pytest.raises(SystemExit) as exc:
                main(["reconstruct", "--n", "4", "--samples", samples])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith("error: argument --samples: samples must be ")
            assert err.count("\n") == 1

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

    # 8e307,8.5e307: finite draws whose phase sums overflow fail the unitarity check.
    @pytest.mark.parametrize("ranges", ["-inf,inf", "-inf,0", "-1e308,1e308", "0,nan", "2,1",
                                        "abc", "8e307,8.5e307"])
    def test_bad_ranges_exit_2_with_one_error_line(self, ranges, run_fresh):
        proc = run_fresh(["-m", "swphase", "moduli", "scan", "--n", "2", f"--ranges={ranges}"])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr

    def test_more_records_than_spawn_keys_exit_2(self, capsys, monkeypatch):
        # Spawn keys are single words: --n above 2**32 is refused before anything is drawn.
        def forbidden(*args, **kwargs):
            raise AssertionError("nothing may be drawn for a rejected --n")

        monkeypatch.setattr(twoqubit, "_child_states", forbidden)
        code, out, err = run(["moduli", "scan", "--n", str(2**32 + 1)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: n must be") and err.count("\n") == 1


class TestModuliScanStreaming:
    """The scan is written chunk by chunk: the bytes of one whole dump, --out only on success."""

    N = 2 * twoqubit.SCAN_CHUNK + 3

    @pytest.mark.parametrize("ranges", ["-1,2", "-3.14,3.14"])
    def test_ranges_with_a_negative_bound_as_its_own_token(self, capsys, ranges):
        args = ["moduli", "scan", "--n", "3", "--seed", "2"]
        code, out, err = run(args + ["--ranges", ranges], capsys)
        assert (code, err) == (0, "")
        assert out == run(args + [f"--ranges={ranges}"], capsys)[1]
        lo, hi = map(float, ranges.split(","))
        params = [float(v) for row in out.splitlines()[1:] for v in row.split(",")[1:7]]
        assert all(lo <= v < hi for v in params)

    def test_ranges_token_in_a_fresh_process(self, run_fresh):
        proc = run_fresh(["-m", "swphase", "moduli", "scan", "--n", "2", "--ranges", "-1,2"])
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout == run_fresh(["-m", "swphase", "moduli", "scan", "--n", "2", "--ranges=-1,2"]).stdout

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_stdout_and_out_file_across_chunks(self, tmp_path, capsys, fmt):
        path = tmp_path / f"scan.{fmt}"
        args = ["moduli", "scan", "--n", str(self.N), "--seed", "8", "--format", fmt]
        code, out, _ = run(args, capsys)
        assert code == 0 and run(args + ["--out", str(path)], capsys)[0] == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]
        text = path.read_text(encoding="utf-8")
        assert out == text
        if fmt == "csv":
            assert len(out.splitlines()) == self.N + 1
        else:  # the streamed array has the bytes of one dump of the whole list
            assert text == cli._dump_json(json.loads(text))
            assert [item["record_index"] for item in json.loads(text)] == list(range(self.N))

    def test_out_to_a_device_is_written_in_place(self, capsys):
        code, out, err = run(["moduli", "scan", "--n", "3", "--out", os.devnull], capsys)
        assert (code, out, err) == (0, "", "")

    def test_out_through_a_symlink_writes_its_target(self, tmp_path, capsys):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        link.symlink_to(target)
        assert run(["moduli", "scan", "--n", "3", "--out", str(link)], capsys)[0] == 0
        assert link.is_symlink() and target.read_text().startswith("record_index,")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
    def test_failure_after_the_first_chunk(self, tmp_path, capsys, monkeypatch, fmt, to_file):
        calls = []
        original = twoqubit.abelian_quadrics

        def fail_on_second_chunk(a_params, a_prime_params):
            calls.append(len(a_params))
            if len(calls) == 2:
                raise ValueError("injected failure")
            return original(a_params, a_prime_params)

        monkeypatch.setattr(twoqubit, "abelian_quadrics", fail_on_second_chunk)
        path = tmp_path / "scan.out"
        argv = ["moduli", "scan", "--n", str(self.N), "--format", fmt]
        code, out, err = run(argv + (["--out", str(path)] if to_file else []), capsys)
        assert code == 2 and err == "error: injected failure\n"
        assert calls == [twoqubit.SCAN_CHUNK] * 2
        if to_file:
            assert out == "" and list(tmp_path.iterdir()) == []
        else:  # the first chunk was written before the second was drawn
            assert len(out.splitlines()) >= twoqubit.SCAN_CHUNK

    def test_failure_leaves_an_existing_out_file(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "scan.csv"
        path.write_text("kept\n")
        monkeypatch.setattr(twoqubit, "_chunk_stages", lambda *args, **kwargs: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            main(["moduli", "scan", "--n", "3", "--out", str(path)])
        assert [p.name for p in tmp_path.iterdir()] == ["scan.csv"]
        assert path.read_text() == "kept\n"


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


# Each command that takes --out, as argv without --out; {kernel} and {state} name input
# files.  The kernel is composite, so every command exits 0.
OUT_COMMANDS = {
    "kernel-gen": ["kernel", "gen", "--n", "4", "--seed", "7"],
    "kernel-verify": ["kernel", "verify", "{kernel}"],
    "composite-verify": ["composite", "verify", "{kernel}", "--dims", "2x2"],
    "wigner-eval": ["wigner", "eval", "{state}", "{kernel}"],
    "reconstruct-json": ["reconstruct", "--n", "4", "--samples", "10,100"],
    "reconstruct-csv": ["reconstruct", "--n", "4", "--samples", "10,100", "--format", "csv"],
    "moduli-scan-csv": ["moduli", "scan", "--n", "5"],
    "moduli-scan-json": ["moduli", "scan", "--n", "5", "--format", "json"],
}


def _out_argv(command: str, inputs: Path) -> list:
    """The argv of OUT_COMMANDS[command], with its input files written to ``inputs``."""
    inputs.mkdir()
    comp = composite.make_composite_kernel(linalg.BipartiteDims(2, 2), 3)
    files = {"kernel": write_matrix(inputs / "kernel.json", comp.mat),
             "state": write_matrix(inputs / "state.json", linalg.random_density(4, 1).mat)}
    return [arg.format(**files) for arg in OUT_COMMANDS[command]]


def _limit_file_size():
    """In the child: files may not grow past 16 bytes, and a write past it fails with EFBIG."""
    import resource

    signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    resource.setrlimit(resource.RLIMIT_FSIZE, (16, 16))


@pytest.mark.parametrize("command", OUT_COMMANDS)
class TestOutFile:
    """Every command writes --out through one writer: the stdout bytes, replaced on success."""

    def test_out_file_holds_the_stdout_bytes(self, tmp_path, capsys, command):
        argv, path = _out_argv(command, tmp_path / "in"), tmp_path / "out.txt"
        code, out, err = run(argv, capsys)
        assert (code, err) == (0, "") and out.endswith("\n")
        assert run(argv + ["--out", str(path)], capsys) == (0, "", "")
        assert path.read_bytes() == out.encode()

    @pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="needs RLIMIT_FSIZE and SIGXFSZ")
    def test_failed_write_keeps_the_old_file(self, tmp_path, command, run_fresh):
        argv, out_dir = _out_argv(command, tmp_path / "in"), tmp_path / "out"
        out_dir.mkdir()
        path = out_dir / "out.txt"
        path.write_text("old\n")
        proc = run_fresh(["-m", "swphase", *argv, "--out", str(path)], preexec_fn=_limit_file_size)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1
        assert [p.name for p in out_dir.iterdir()] == ["out.txt"]
        assert path.read_text() == "old\n"

    def test_target_mode(self, tmp_path, capsys, command):
        argv, out_dir = _out_argv(command, tmp_path / "in"), tmp_path / "out"
        out_dir.mkdir()
        kept, new = out_dir / "kept.txt", out_dir / "new.txt"
        kept.write_text("old\n")
        kept.chmod(0o600)
        for path in (kept, new):
            assert run(argv + ["--out", str(path)], capsys)[0] == 0
        umask = os.umask(0)
        os.umask(umask)
        assert stat.S_IMODE(kept.stat().st_mode) == 0o600
        assert stat.S_IMODE(new.stat().st_mode) == 0o666 & ~umask
        assert kept.read_bytes() == new.read_bytes() != b"old\n"

    def test_stale_temporary_file_of_the_same_pid(self, tmp_path, capsys, command):
        argv, out_dir = _out_argv(command, tmp_path / "in"), tmp_path / "out"
        out_dir.mkdir()
        path, stale = out_dir / "out.txt", out_dir / f"out.txt.{os.getpid()}.tmp"
        stale.write_text("stale\n")
        code, out, _ = run(argv, capsys)
        assert run(argv + ["--out", str(path)], capsys) == (code, "", "")
        assert path.read_text() == out and stale.read_text() == "stale\n"
        assert sorted(p.name for p in out_dir.iterdir()) == [path.name, stale.name]


class TestRuntimeDependencies:
    def test_cli_loads_numpy_only(self, run_fresh):
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
        proc = run_fresh(["-c", code])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[0, 0, 0] []"
