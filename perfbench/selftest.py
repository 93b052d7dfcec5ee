"""Self-test of the benchmark: every output check must be able to fail.

Run from the repository root (about fifteen seconds):

    python3 perfbench/selftest.py

Each check first passes on a real program output, then fails on the same
output corrupted.  A two-op smoke run of each workload must emit exactly the
metric names BENCHMARK.json lists.  Exits 1 if anything does not hold.
"""

from __future__ import annotations

import json
import sys

import run  # pins BLAS threads before numpy loads

run._import_library()

import numpy as np

import checks
import reference
import workloads

from swphase import kernel, linalg, twoqubit

problems = []


def expect(condition, message):
    if not condition:
        problems.append(message)


def expect_kinds(failures, kind, what):
    expect(any(k == kind for k, _ in failures),
           f"{what}: expected a {kind!r} failure, got {failures}")


def first_op(workload, kind=None):
    for cycle in workloads.WORKLOADS[workload][0](0):
        for op in cycle:
            if kind is None or op.kind == kind:
                return op
    raise AssertionError("unreachable")


def test_scan_checks():
    op = first_op("scan-unit")
    out = op.run()
    expect(op.check(out) == [], f"scan: real output fails {op.check(out)}")
    lines = out.splitlines(keepends=True)
    expect_kinds(op.check("wrong," + lines[0] + "".join(lines[1:])), "header",
                 "scan with a wrong header")
    expect_kinds(op.check("".join(lines[:-1])), "row_count", "scan with a row missing")
    col = {name: k for k, name in enumerate(twoqubit.SCAN_CSV_COLUMNS)}
    row = lines[1].rstrip("\n").split(",")
    row[col["n_solutions"]] = "1"
    corrupted = "".join([lines[0], ",".join(row) + "\n", *lines[2:]])
    expect_kinds(op.check(corrupted), "count_mismatch", "scan with a miscounted row")
    expect_kinds(op.check(corrupted), "level1_solution", "scan with a level-1 solution")
    swapped = "".join([lines[0], lines[2], lines[1], *lines[3:]])
    expect_kinds(op.check(swapped), "record_index", "scan with rows out of order")
    reaching = checks.check_scan_csv(out, workloads.SCAN_RECORDS,
                                     twoqubit.SCAN_CSV_COLUMNS, reaching=2)
    expect_kinds(reaching, "eigenvalues", "scan drawn with two reaching records")


def test_solve_checks():
    op = first_op("solve-matrix", "feasible")
    rec, feas = op.run()
    expect(op.check((rec, feas)) == [], f"solve: real output fails {op.check((rec, feas))}")
    expect(feas.n_solutions in (4, 8), f"solve: feasible record has {feas.n_solutions} solutions")
    level = twoqubit.MATRIX_LEVEL
    sols = list(feas.solutions)
    qa, qb = rec.quadrics.a, rec.quadrics.b
    margin = checks.brickman_margin(qa, qb, level)
    expect(margin > 0, f"solve: feasible record has Brickman margin {margin}")
    emptied = twoqubit.FeasibilityResult(solutions=[], classification=feas.classification)
    expect_kinds(op.check((rec, emptied)), "lost_solutions",
                 "a feasible record returning no solutions")
    empty_op = first_op("solve-matrix", "empty")
    empty_rec, empty_feas = empty_op.run()
    expect(empty_op.check((empty_rec, empty_feas)) == [],
           f"solve: real empty output fails {empty_op.check((empty_rec, empty_feas))}")
    expect_kinds(empty_op.check((empty_rec, feas)), "spurious_solutions",
                 "an empty record returning solutions")
    factor = twoqubit.kak_element(np.zeros(6), rec.a_params, rec.a_prime_params,
                                  np.zeros(3)).factor_a
    kernels = [twoqubit.kernel_from_moduli(factor, mu).mat for mu in sols]
    expect_kinds(checks.check_moduli_solutions(sols[:-1], qa, qb, level, margin, kernels[:-1]),
                 "unpaired_solutions", "an odd solution count")
    off = sols[0] + 1e-6 * np.array([1.0, -1.0, 0.5])
    off /= np.linalg.norm(off)
    expect_kinds(checks.check_moduli_solutions([off, -off], qa, qb, level, margin,
                                               kernels[:2]),
                 "residual", "solutions off the quadrics")
    elementary = kernel.kernel_from_spectrum(kernel.solve_kernel_spectrum(4, "random", seed=1),
                                             linalg.haar_unitary(4, 1)).mat
    expect_kinds(checks.check_moduli_solutions(sols, qa, qb, level, margin,
                                               [elementary] + kernels[1:]),
                 "not_admissible", "a kernel that is not composite-admissible")
    expect_kinds(checks.check_moduli_solutions(sols * 3, qa, qb, level, margin, kernels * 3),
                 "too_many_solutions", "more than 8 solutions")


def test_reconstruct_checks():
    op = first_op("reconstruct", "n4")
    out = op.run()
    expect(op.check(out) == [], f"reconstruct: real output fails {op.check(out)}")
    rows = out.splitlines()
    first_error = rows[1].split(",")[1]
    stalled = rows[:-2] + [rows[-2].split(",")[0] + "," + first_error, rows[-1]]
    expect_kinds(op.check("\n".join(stalled) + "\n"), "mc_error",
                 "a reconstruction error that does not decay")
    inexact = rows[:-1] + ["exact,1e-06"]
    expect_kinds(op.check("\n".join(inexact) + "\n"), "exact_residual",
                 "an inexact closed-form reconstruction")
    expect_kinds(op.check("n,error\n" + "\n".join(rows[1:]) + "\n"), "header",
                 "reconstruct with a wrong header")


def test_composite_checks():
    for kind in ("2x2", "8x8"):
        op = first_op("composite", kind)
        mat, red_a, red_b, w_a = op.run()
        expect(op.check((mat, red_a, red_b, w_a)) == [], f"composite {kind}: real output fails")
        d = int(kind.split("x")[0])
        expect_kinds(op.check((mat, red_a, red_b, w_a + 1e-6)), "duality",
                     f"composite {kind}: a wrong subsystem Wigner value")
        expect_kinds(op.check((mat, red_a + 1e-6, red_b, w_a)), "reduction",
                     f"composite {kind}: a wrong reduced kernel")
        # Adding a traceless A-local term keeps trace and Hermiticity but
        # moves the subsystem-A purity off n_a.
        local = np.kron(np.diag([1.0] + [0.0] * (d - 2) + [-1.0]), np.eye(d)) * 0.01
        expect_kinds(checks.check_admissible(mat + local, d, d), "not_admissible",
                     f"composite {kind}: a matrix that is not admissible")


def test_known_defects():
    known = sorted(checks.KNOWN_DEFECTS)[0]
    summary = {"failure_kinds": {known: 2}, "failed": 2, "attempted": 400}
    expect(run._correct(summary), "a rare known defect alone must leave the run correct")
    summary = {"failure_kinds": {known: 40}, "failed": 40, "attempted": 400}
    expect(not run._correct(summary), "a known defect in 10% of ops must make the run incorrect")
    summary = {"failure_kinds": {known: 2, "residual": 1}, "failed": 3, "attempted": 400}
    expect(not run._correct(summary), "an unknown failure kind must make the run incorrect")


def test_reference_scales():
    nominal = reference.NOMINAL_S
    units = [(0.1 * k, nominal * (2.0 if 400 <= k < 600 else 1.0)) for k in range(1000)]
    slow, quiet, alone = reference.scales([(50.0, 50.1), (10.0, 10.1), (200.0, 200.1)], units)
    expect(abs(slow - 0.5) < 1e-9, f"a span among units twice as slow must scale by 0.5, got {slow}")
    expect(abs(quiet - 1.0) < 1e-9, f"a span among nominal units must scale by 1, got {quiet}")
    expect(abs(alone - 1000 / 1200) < 1e-9,
           f"a span with no unit near it must use the mean of all units, got {alone}")


def test_smoke():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = {0: [m["name"] for m in spec["end_to_end"]],
             1: [m["name"] for m in spec["per_layer"]]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for w in spec["workloads"]:
        for trace in (0, 1):
            result, _ = run.benchmark(w["name"], 7, 0.0, bool(trace), max_ops=2,
                                      setup_repeats=1)
            what = f"smoke {w['name']} trace {trace}"
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{what}: keys {sorted(result)}")
            expect(list(result["metrics"]) == names[trace],
                   f"{what}: metrics {sorted(set(result['metrics']) ^ set(names[trace]))} "
                   "differ from BENCHMARK.json")
            expect(all(units.get(n) == m["unit"] for n, m in result["metrics"].items()),
                   f"{what}: units differ from BENCHMARK.json")
            expect(result["attempted"] == 2 * (1 + trace) and result["correct"] is True,
                   f"{what}: {result['attempted']} attempted, correct {result['correct']}")


def main() -> int:
    for test in (test_scan_checks, test_solve_checks, test_reconstruct_checks,
                 test_composite_checks, test_known_defects, test_reference_scales, test_smoke):
        before = len(problems)
        test()
        print(f"{test.__name__}: {'ok' if len(problems) == before else 'FAILED'}")
    for message in problems:
        print(f"  {message}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
