"""The four benchmark workloads.

A workload is an endless stream of cycles; a cycle is a fixed sequence of
ops whose inputs are drawn from the workload seed.  A run measures whole
cycles, so every run holds the same mix of op kinds.  Inputs, including any
screening of random draws into strata, are made before an op is timed; the
output check runs after it.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks

from swphase import cli, composite, linalg, twoqubit


@dataclass(frozen=True)
class Op:
    kind: str                 # label of the op kind within the cycle
    items: int                # records, orbit samples or kernels
    run: Callable[[], object]  # the timed library work; returns its output
    check: Callable[[object], list]


# Bytes the CLI ops of this process have written to stdout.
cli_bytes_out = 0


def _cli(argv):
    global cli_bytes_out
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    out = buf.getvalue()
    cli_bytes_out += len(out.encode())
    if code != cli.EXIT_OK:
        raise RuntimeError(f"swphase {' '.join(argv)} exited {code}")
    return out


def _seed(rng) -> int:
    return int(rng.integers(2**31))


# --- scan-unit ------------------------------------------------------------

SCAN_RECORDS = 22
SCAN_OPS_PER_CYCLE = 4


def _scan_params(seed: int, n: int):
    """The abelian parameters `moduli scan --seed seed --n n` draws per record.

    Documented in twoqubit.moduli_scan: record i draws a then a' uniformly
    from the default (-pi, pi) box with the i-th child of SeedSequence(seed).
    """
    for child in np.random.SeedSequence(seed).spawn(n):
        rng = np.random.default_rng(child)
        yield rng.uniform(-np.pi, np.pi, 3), rng.uniform(-np.pi, np.pi, 3)


def _quadrics(a, ap):
    return twoqubit.moduli_record(0, a, ap, solve=False).quadrics


def _reaches_unit_level(a, ap) -> bool:
    q = _quadrics(a, ap)
    return min(np.linalg.eigvalsh(q.a)[-1], np.linalg.eigvalsh(q.b)[-1]) >= 1.0


def scan_unit(seed: int):
    """`moduli scan --n 22 --format csv` at the default level 1.

    Of 20000 records of the default draw, 908 (1 in 22.0) have both
    ellipsoids reaching level 1 on the sphere; those records run the futile
    Newton search and take ~250 ms, the others ~1 ms.  Left to chance, their
    count makes the throughput of a 20 s run spread by ~16%, so every op
    gets a scan seed whose 22 records hold exactly one such record: the
    population rate without its sampling noise.  A cycle is four such scans.
    """
    rng = np.random.default_rng(seed)
    while True:
        yield [_scan_op(rng) for _ in range(SCAN_OPS_PER_CYCLE)]


def _scan_op(rng) -> Op:
    while True:
        scan_seed = _seed(rng)
        reaching = sum(_reaches_unit_level(a, ap)
                       for a, ap in _scan_params(scan_seed, SCAN_RECORDS))
        if reaching == 1:
            break
    argv = ["moduli", "scan", "--n", str(SCAN_RECORDS), "--seed", str(scan_seed),
            "--format", "csv"]
    return Op("scan", SCAN_RECORDS, lambda: _cli(argv),
              lambda out: checks.check_scan_csv(out, SCAN_RECORDS,
                                                twoqubit.SCAN_CSV_COLUMNS, reaching=1))


# --- solve-matrix ---------------------------------------------------------

# Strata of uniform (a, a') draws at MATRIX_LEVEL, measured on 7000 draws:
# 73.8% feasible, 11.7% with both level sets on the sphere but no common
# point (the futile-search records, ~230 ms each), 14.5% with a level set
# missing the sphere (~1 ms).  Each 50-record cycle holds exactly 37, 6 and
# 7 of them, each stratum spread evenly over the cycle.
SOLVE_MIX = {"F": 37, "E": 6, "M": 7}
SOLVE_CYCLE = "".join(code for _, code in sorted(
    ((k + 0.5) / n, code) for code, n in SOLVE_MIX.items() for k in range(n)))
_STRATUM_CODE = {"feasible": "F", "empty": "E", "miss": "M"}


def matrix_stratum(qa, qb, level: float):
    """(stratum, margin) of the system mu mu = 1, mu A mu = mu B mu = level.

    The stratum is "miss" when a level set misses the sphere (the cheap
    records: the solver's grid test rejects them), else "feasible" or
    "empty" by the sign of `checks.brickman_margin`, which is also returned.
    """
    margin = checks.brickman_margin(qa, qb, level)
    ea, eb = np.linalg.eigvalsh(qa), np.linalg.eigvalsh(qb)
    if not (ea[0] <= level <= ea[-1] and eb[0] <= level <= eb[-1]):
        return "miss", margin
    return ("feasible" if margin >= 0.0 else "empty"), margin


def _solve_op(index: int, a, ap, stratum: str, margin: float) -> Op:
    level = twoqubit.MATRIX_LEVEL

    def run():
        rec = twoqubit.moduli_record(index, a, ap, solve=False)
        return rec, twoqubit.moduli_feasibility(rec.quadrics, level=level)

    def check(out):
        rec, feas = out
        factor = twoqubit.kak_element(np.zeros(6), a, ap, np.zeros(3)).factor_a
        kernels = []
        for mu in feas.solutions:
            try:
                kernels.append(twoqubit.kernel_from_moduli(factor, mu).mat)
            except ValueError as exc:
                kernels.append(exc)
        return checks.check_moduli_solutions(
            feas.solutions, rec.quadrics.a, rec.quadrics.b, level, margin, kernels)

    return Op(stratum, 1, run, check)


def solve_matrix(seed: int):
    """moduli_record(solve=False) then moduli_feasibility at MATRIX_LEVEL."""
    rng = np.random.default_rng(seed)
    index = 0
    while True:
        cycle = []
        for code in SOLVE_CYCLE:
            while True:
                a, ap = rng.uniform(-np.pi, np.pi, 3), rng.uniform(-np.pi, np.pi, 3)
                q = _quadrics(a, ap)
                stratum, margin = matrix_stratum(q.a, q.b, twoqubit.MATRIX_LEVEL)
                if _STRATUM_CODE[stratum] == code:
                    break
            cycle.append(_solve_op(index, a, ap, stratum, margin))
            index += 1
        yield cycle


# --- reconstruct ----------------------------------------------------------

# Two n=4 ops, the documented ladder (~0.4 s), then one n=32 op (~1.7 s,
# ~0.7 GB peak).  Two ops in three are n=4, so the median is an n=4
# latency; a run holds at least 11 n=32 ops (run.run_ops), so the tail is
# an n=32 latency.
RECONSTRUCT_CYCLE = ((4, (1000, 10000, 100000)),) * 2 + ((32, (1000, 10000)),)


def reconstruct(seed: int):
    """`reconstruct --format csv` over the fixed cycle of sizes."""
    rng = np.random.default_rng(seed)
    while True:
        cycle = []
        for n, ladder in RECONSTRUCT_CYCLE:
            argv = ["reconstruct", "--n", str(n), "--samples",
                    ",".join(str(s) for s in ladder), "--seed", str(_seed(rng)),
                    "--format", "csv"]
            cycle.append(Op(f"n{n}", sum(ladder), lambda argv=argv: _cli(argv),
                            lambda out, n=n, ladder=ladder:
                            checks.check_reconstruct_csv(out, n, ladder)))
        yield cycle


# --- composite ------------------------------------------------------------

# Seven 2x2 ops (~0.5 ms, the paper's two-qubit case) then one 8x8 op
# (~110 ms): the median is a 2x2 latency and the tail an 8x8 one.  The 2x2
# op after an 8x8 op runs ~20% slower on cold caches; with three 2x2 ops a
# cycle the median fell on the boundary between cold and warm ops.
COMPOSITE_CYCLE = (2,) * 7 + (8,)


def _composite_op(d: int, kernel_seed: int, rho) -> Op:
    dims = linalg.BipartiteDims(d, d)

    def run():
        kern = composite.make_composite_kernel(dims, kernel_seed)
        red_a = composite.reduce_kernel(kern, "A")
        red_b = composite.reduce_kernel(kern, "B")
        return kern.mat, red_a.mat, red_b.mat, composite.subsystem_wigner(rho, kern, "A")

    def check(out):
        mat, red_a, red_b, w_a = out
        return checks.check_composite(mat, d, d, red_a, red_b, rho.mat, w_a)

    return Op(f"{d}x{d}", 1, run, check)


def composite_kernels(seed: int):
    """make_composite_kernel, both reductions and a subsystem Wigner value."""
    rng = np.random.default_rng(seed)
    while True:
        yield [_composite_op(d, _seed(rng), linalg.random_density(d * d, _seed(rng)))
               for d in COMPOSITE_CYCLE]


WORKLOADS = {
    "scan-unit": (scan_unit, "records"),
    "solve-matrix": (solve_matrix, "records"),
    "reconstruct": (reconstruct, "orbit samples"),
    "composite": (composite_kernels, "kernels"),
}
