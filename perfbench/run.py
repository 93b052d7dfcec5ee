"""swphase benchmark: four workloads, end-to-end metrics and a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload scan-unit --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all       # every workload, each in its own process

Each workload runs in this one process as a single-caller closed loop: the
next op starts when the previous one has returned and its output has been
checked.  BLAS runs one thread.  The last line of stdout is a JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with --trace 0, the per-layer metrics of BENCHMARK.json with --trace 1.
Lines before it give every metric with its unit and sample counts, the
failure fraction and the provenance of the run.  Times are reported at a
fixed reference host speed: a fixed kernel timed between the ops measures
how fast the shared host runs (see reference.py); the times as measured
are printed beside them.  Full results, and the
spans of a traced run, go to perfbench/out/.

A traced run measures the same ops twice: first untraced for half of
--seconds, then with every public function of linalg, kernel, composite,
twoqubit and cli wrapped.  Per-layer values are per op of the traced pass,
with times as measured.
"""

from __future__ import annotations

import os

# Before numpy loads: one BLAS thread.  On a 2-vCPU VM, two threads made 8x8
# composite ops ~3x slower (300 vs 100 ms) and n=32 reconstruction slower and
# wider spread (1.8-2.2 s vs 1.7-1.9 s).
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import reference
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
WORKLOAD_NAMES = ("scan-unit", "solve-matrix", "reconstruct", "composite")
TRACED_MODULES = ("linalg", "kernel", "composite", "twoqubit", "cli")
SETUP_REPEATS = 9
# Reference units run this long after each setup import.
SETUP_UNITS_S = 0.1
# Percentile for op_ms_tail: the highest one with this many samples beyond it.
TAIL_BEYOND = 10

SETUP_CODE = """\
import json, time
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
import scipy.linalg
t2 = time.perf_counter()
import swphase, swphase.cli
t3 = time.perf_counter()
print(json.dumps({"file": swphase.__file__, "splits": [t1 - t0, t2 - t1, t3 - t2]}))
"""


def _fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_library():
    if not (SRC / "swphase" / "__init__.py").is_file():
        _fail(f"no swphase sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import swphase

    if not Path(swphase.__file__).resolve().is_relative_to(SRC):
        _fail(f"imported swphase from {swphase.__file__}, not from {SRC}")


def _child_env() -> dict:
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def measure_setup(repeats: int) -> dict:
    """Wall time of fresh interpreters importing swphase and swphase.cli.

    One untimed import first compiles the sources; then `repeats` timed
    ones.  After each import, reference units run for SETUP_UNITS_S; each
    import's time and splits are scaled by the units near it
    (reference.scales), and the medians are reported.
    """
    env = _child_env()
    spans, walls, splits, host = [], [], [], []
    origin = time.perf_counter()
    for k in range(repeats + 1):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        end = time.perf_counter()
        if proc.returncode != 0:
            _fail(f"setup import failed: {proc.stderr.strip()}")
        report = json.loads(proc.stdout)
        if not Path(report["file"]).resolve().is_relative_to(SRC):
            _fail(f"setup imported swphase from {report['file']}")
        if k:
            spans.append((start - origin, end - origin))
            walls.append(end - start)
            splits.append(report["splits"])
        while time.perf_counter() - end < SETUP_UNITS_S:
            host.append(reference.timed_unit(origin))
    factors = reference.scales(spans, host)
    med = [statistics.median(f * x for f, x in zip(factors, col)) for col in zip(*splits)]
    return {"setup_s": statistics.median(f * w for f, w in zip(factors, walls)),
            "import_numpy_s": med[0], "import_scipy_linalg_s": med[1],
            "import_swphase_s": med[2], "repeats": repeats,
            "raw_setup_s": statistics.median(walls)}


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def provenance(workload: str, seed: int) -> dict:
    import numpy as np
    import scipy

    blas = getattr(np, "__config__", None)
    blas = getattr(blas, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    revision = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            revision = proc.stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            revision = "unknown"
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "blas_threads_env": BLAS_THREADS,
        "git_revision": revision,
        "src_lines": src_lines,
    }


@dataclass(frozen=True)
class Record:
    """One op as measured.  Outputs are checked, then dropped, so that they
    do not add to the peak memory of the run."""

    op: object
    seconds: float
    raised: bool
    failures: list    # (kind, detail) pairs; empty when the output passed
    cycle: int
    start: float      # seconds since the run started


def run_ops(cycles, seconds: float, max_ops=None, tracer=None) -> tuple:
    """Run ops in a closed loop, a whole cycle at a time.

    ``cycles`` yields lists of ops.  Returns one Record per op, and the
    (start, seconds) of every reference unit run between the ops: after
    each op, units run until their time reaches reference.SHARE of the op
    time so far, so they sample the host's speed across the whole run.
    The run stops after the first cycle that ends once `seconds` have
    passed and every op kind has run more than TAIL_BEYOND times, so the
    mix of op kinds, and the kind the tail latency falls on, do not depend
    on how fast the ops are.  With ``max_ops`` the run makes exactly that
    many ops.
    """
    records, host = [], []
    per_kind = {}
    debt = 0.0
    start = time.perf_counter()
    for cycle, ops in enumerate(cycles):
        for op in ops:
            traced = tracer.op(len(records)) if tracer else contextlib.nullcontext()
            t0 = time.perf_counter()
            try:
                with traced:
                    out = op.run()
            except Exception as exc:  # an op that raises is a failed op; keep going
                out = exc
            dt = time.perf_counter() - t0
            raised = isinstance(out, Exception)
            if raised:
                failures = [("raised", f"{type(out).__name__}: {out}")]
            else:
                failures = op.check(out)
            records.append(Record(op, dt, raised, failures, cycle, t0 - start))
            per_kind[op.kind] = per_kind.get(op.kind, 0) + 1
            debt += reference.SHARE * dt
            while debt > 0.0:
                host.append(reference.timed_unit(start))
                debt -= host[-1][1]
            if max_ops is not None and len(records) >= max_ops:
                return records, host
        if (max_ops is None and time.perf_counter() - start >= seconds
                and min(per_kind.values()) > TAIL_BEYOND):
            return records, host
    return records, host


def _replay(records):
    """The cycles of `records` again, with the same ops in the same order."""
    cycles = {}
    for rec in records:
        cycles.setdefault(rec.cycle, []).append(rec.op)
    yield from cycles.values()


def latency_stats(seconds_list) -> dict:
    """Median latency, and latency at the highest percentile with
    TAIL_BEYOND ops beyond it."""
    xs = sorted(1e3 * s for s in seconds_list)
    n = len(xs)
    if n > TAIL_BEYOND:
        idx = n - TAIL_BEYOND - 1
        tail, pct, beyond = xs[idx], 100.0 * idx / (n - 1), TAIL_BEYOND
    else:
        tail, pct, beyond = xs[-1], 100.0, 0
    return {"p50": statistics.median(xs), "tail": tail, "tail_percentile": pct,
            "tail_beyond": beyond, "n": n}


def tally(records) -> dict:
    """Ops attempted and failed, failures by kind, ops by kind."""
    failed = [rec for rec in records if rec.failures]
    kinds = {}
    for rec in failed:
        for kind, _ in rec.failures:
            kinds[kind] = kinds.get(kind, 0) + 1
    return {
        "attempted": len(records),
        "failed": len(failed),
        "failure_kinds": kinds,
        "failure_examples": [(rec.op.kind, rec.failures[:3]) for rec in failed[:5]],
        "ops_by_kind": {k: sum(1 for rec in records if rec.op.kind == k)
                        for k in dict.fromkeys(rec.op.kind for rec in records)},
    }


def summarize(records, host) -> dict:
    """Counts, throughput and latency of a run.

    Every op time is scaled to the reference host speed by the reference
    units run near it (reference.scales); throughput is items over the
    summed scaled op time, and ops that raised count their time but no
    items.  The "raw" entry gives throughput and latency as measured.
    """
    items = sum(rec.op.items for rec in records if not rec.raised)
    raw = [rec.seconds for rec in records]
    factors = reference.scales([(rec.start, rec.start + rec.seconds) for rec in records], host)
    scaled = [f * x for f, x in zip(factors, raw)]
    return {
        **tally(records),
        "items": items,
        "op_seconds": sum(scaled),
        "cycles": len({rec.cycle for rec in records}),
        "items_per_s": items / sum(scaled),
        "latency": latency_stats(scaled),
        "host": {"units": len(host), "unit_ms_mean": 1e3 * sum(d for _, d in host) / len(host),
                 "scale_min": min(factors), "scale_max": max(factors)},
        "raw": {"op_seconds": sum(raw), "items_per_s": items / sum(raw),
                "latency": latency_stats(raw)},
        "ops": [(rec.cycle, rec.op.kind, 1e3 * rec.seconds, rec.start) for rec in records],
        "host_units": [(t, 1e3 * d) for t, d in host],
    }


def _correct(summary) -> bool:
    """No failure but known defects, and those in at most a small share of ops."""
    return (set(summary["failure_kinds"]) <= checks.KNOWN_DEFECTS
            and summary["failed"] <= checks.KNOWN_DEFECT_MAX_FRAC * summary["attempted"])


def end_to_end_metrics(summary, setup) -> dict:
    lat = summary["latency"]
    return {
        "setup_s": (setup["setup_s"], "s"),
        "items_per_s": (summary["items_per_s"], "1/s"),
        "op_ms_p50": (lat["p50"], "ms"),
        "op_ms_tail": (lat["tail"], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


PER_LAYER = (
    # (metric, unit, source): source is (span name, field) or a counter name.
    ("twoqubit.moduli_feasibility.calls", "calls/op", ("twoqubit.moduli_feasibility", "calls")),
    ("twoqubit.moduli_feasibility.self_ms", "ms/op", ("twoqubit.moduli_feasibility", "self_ms")),
    ("twoqubit.moduli_feasibility.total_ms", "ms/op", ("twoqubit.moduli_feasibility", "total_ms")),
    ("twoqubit.newton_calls", "calls/op", ("twoqubit.newton", "calls")),
    ("twoqubit.newton.self_ms", "ms/op", ("twoqubit.newton", "self_ms")),
    ("twoqubit.solutions_per_newton_call", "ratio", "solutions_per_newton_call"),
    ("twoqubit.char_cubic_roots.calls", "calls/op", ("twoqubit.char_cubic_roots", "calls")),
    ("twoqubit.char_cubic_roots.self_ms", "ms/op", ("twoqubit.char_cubic_roots", "self_ms")),
    ("twoqubit.moduli_record.calls", "calls/op", ("twoqubit.moduli_record", "calls")),
    ("twoqubit.adjoint_matrix.self_ms", "ms/op", ("twoqubit.adjoint_matrix", "self_ms")),
    ("twoqubit.ellipsoid_matrices.self_ms", "ms/op", ("twoqubit.ellipsoid_matrices", "self_ms")),
    ("linalg.mat_exp.calls", "calls/op", ("linalg.mat_exp", "calls")),
    ("linalg.mat_exp.self_ms", "ms/op", ("linalg.mat_exp", "self_ms")),
    ("twoqubit.scan_to_csv.self_ms", "ms/op", ("twoqubit.scan_to_csv", "self_ms")),
    ("cli.main.self_ms", "ms/op", ("cli.main", "self_ms")),
    ("cli.main.total_ms", "ms/op", ("cli.main", "total_ms")),
    ("cli.bytes_out", "bytes/op", "cli.bytes_out"),
    ("twoqubit.odd_count_records", "records/op", "odd_count_records"),
    ("twoqubit.lost_solution_records", "records/op", "lost_solution_records"),
    ("twoqubit.spurious_solution_records", "records/op", "spurious_solution_records"),
    ("twoqubit.max_residual", "abs", "max_residual"),
    ("linalg.haar_sample.n4.calls", "calls/op", ("linalg.haar_sample.n4", "calls")),
    ("linalg.haar_sample.n4.self_ms", "ms/op", ("linalg.haar_sample.n4", "self_ms")),
    ("linalg.haar_sample.n32.calls", "calls/op", ("linalg.haar_sample.n32", "calls")),
    ("linalg.haar_sample.n32.self_ms", "ms/op", ("linalg.haar_sample.n32", "self_ms")),
    ("kernel.reconstruct_mc.calls", "calls/op", ("kernel.reconstruct_mc", "calls")),
    ("kernel.reconstruct_mc.self_ms", "ms/op", ("kernel.reconstruct_mc", "self_ms")),
    ("composite.make_composite_kernel.total_ms", "ms/op", ("composite.make_composite_kernel", "total_ms")),
    ("composite.fano_blocks.self_ms", "ms/op", ("composite.fano_blocks", "self_ms")),
    ("composite.fano_blocks_compose.self_ms", "ms/op", ("composite.fano_blocks_compose", "self_ms")),
    ("composite.verify_composite_master.calls", "calls/op", ("composite.verify_composite_master", "calls")),
    ("kernel.verify_master.calls", "calls/op", ("kernel.verify_master", "calls")),
    ("composite.traceless_orthonormal_basis.calls", "calls/op", ("composite.traceless_orthonormal_basis", "calls")),
    ("linalg.partial_trace.calls", "calls/op", ("linalg.partial_trace", "calls")),
    ("linalg.partial_trace.self_ms", "ms/op", ("linalg.partial_trace", "self_ms")),
    ("linalg.as_complex_matrix.calls", "calls/op", ("linalg.as_complex_matrix", "calls")),
    ("bench.op.self_ms", "ms/op", ("bench.op", "self_ms")),
    ("setup.import_numpy_s", "s", "import_numpy_s"),
    ("setup.import_scipy_linalg_s", "s", "import_scipy_linalg_s"),
    ("setup.import_swphase_s", "s", "import_swphase_s"),
    ("trace.untraced_items_per_s", "1/s", "untraced_items_per_s"),
    ("trace.overhead_items_per_s", "1/s", "overhead_items_per_s"),
)


def solution_counters(kept) -> dict:
    """Counters over the moduli_feasibility calls of a traced pass.

    A record has lost solutions when it returned none though its Brickman
    margin says they exist, spurious ones in the opposite case.
    """
    counts = {"odd_count_records": 0, "lost_solution_records": 0,
              "spurious_solution_records": 0}
    hist = {}
    max_residual = 0.0
    solutions = 0
    for arguments, result in kept:
        q, level = arguments["q"], arguments["level"]
        k = len(result.solutions)
        solutions += k
        hist[k] = hist.get(k, 0) + 1
        counts["odd_count_records"] += k % 2
        margin = checks.brickman_margin(q.a, q.b, level)
        counts["lost_solution_records"] += k == 0 and margin >= checks.CERT_TOL
        counts["spurious_solution_records"] += k > 0 and margin <= -checks.CERT_TOL
        for mu in result.solutions:
            max_residual = max(max_residual, abs(float(mu @ q.a @ mu) - level),
                               abs(float(mu @ q.b @ mu) - level))
    return {"counts": counts, "solutions_hist": dict(sorted(hist.items())),
            "solutions": solutions, "max_residual": max_residual}


def per_layer_metrics(tracer, records, setup, untraced, traced, cli_bytes) -> tuple:
    """The PER_LAYER metrics of a traced pass, and the stats of every layer."""
    stats = tracer.layer_stats()
    solved = solution_counters(tracer.kept)
    counts = {**solved["counts"], "cli.bytes_out": cli_bytes}
    newton_calls = stats.get("twoqubit.newton", {}).get("calls", 0)
    values = {
        "max_residual": solved["max_residual"],
        "solutions_per_newton_call": (solved["solutions"] / newton_calls
                                      if newton_calls else 0.0),
        "import_numpy_s": setup["import_numpy_s"],
        "import_scipy_linalg_s": setup["import_scipy_linalg_s"],
        "import_swphase_s": setup["import_swphase_s"],
        "untraced_items_per_s": untraced["items_per_s"],
        "overhead_items_per_s": traced["items_per_s"] - untraced["items_per_s"],
    }
    n_ops = max(len(records), 1)
    metrics = {}
    for name, unit, source in PER_LAYER:
        if isinstance(source, tuple):
            value = stats.get(source[0], {}).get(source[1], 0) / n_ops
        elif source in counts:
            value = counts[source] / n_ops
        else:
            value = values[source]
        metrics[name] = (value, unit)
    return metrics, stats, solved["solutions_hist"]


def benchmark(workload: str, seed: int, seconds: float, trace: bool,
              max_ops=None, setup_repeats: int = SETUP_REPEATS) -> tuple:
    """Run one workload; returns the result JSON object and a full report."""
    import workloads

    make_ops, item_name = workloads.WORKLOADS[workload]
    setup = measure_setup(setup_repeats)
    ops = make_ops(seed)
    if max_ops is None:
        run_ops(ops, 0.0, max_ops=1)  # warm-up: one op, not counted
    report = {"provenance": provenance(workload, seed), "setup": setup,
              "item": item_name, "trace": trace}
    if not trace:
        records, host = run_ops(ops, seconds, max_ops)
        summary = summarize(records, host)
        metrics = end_to_end_metrics(summary, setup)
        report["summary"] = summary
    else:
        untraced_records, untraced_host = run_ops(ops, seconds / 2.0, max_ops)
        tracer = tracing.Tracer()
        tracer.install("swphase", TRACED_MODULES)
        cli_bytes = workloads.cli_bytes_out
        try:
            traced_records, traced_host = run_ops(_replay(untraced_records), float("inf"),
                                                  tracer=tracer)
        finally:
            tracer.uninstall()
        cli_bytes = workloads.cli_bytes_out - cli_bytes
        untraced = summarize(untraced_records, untraced_host)
        traced = summarize(traced_records, traced_host)
        metrics, stats, hist = per_layer_metrics(tracer, traced_records, setup, untraced,
                                                 traced, cli_bytes)
        summary = tally(untraced_records + traced_records)
        report.update(summary=summary, untraced=untraced, traced=traced, layers=stats,
                      solutions_hist=hist)
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"spans-{workload}-seed{seed}.jsonl")
    result = {
        "correct": _correct(summary),
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    report["result"] = result
    return result, report


def print_report(report) -> None:
    prov, summary, result = report["provenance"], report["summary"], report["result"]
    print(f"workload {prov['workload']}  seed {prov['seed']}  trace {int(report['trace'])}  "
          f"item = {report['item']}")
    notes = {}
    if not report["trace"]:
        lat, raw = summary["latency"], summary["raw"]
        notes = {
            "setup_s": f"median of {report['setup']['repeats']} fresh imports; "
                       f"raw {report['setup']['raw_setup_s']:.4g}",
            "items_per_s": f"{summary['items']} {report['item']} in "
                           f"{summary['op_seconds']:.3f} s of op time, "
                           f"{summary['cycles']} cycles; raw {raw['items_per_s']:.6g}",
            "op_ms_p50": f"{lat['n']} ops; raw {raw['latency']['p50']:.6g}",
            "op_ms_tail": f"p{lat['tail_percentile']:.1f}, {lat['tail_beyond']} of "
                          f"{lat['n']} ops beyond; raw {raw['latency']['tail']:.6g}",
            "peak_rss_mb": "ru_maxrss of the workload process",
        }
        host = summary["host"]
        print(f"  times at the reference host speed (perfbench/reference.py): "
              f"{host['units']} reference units, mean {host['unit_ms_mean']:.4g} ms "
              f"against {1e3 * reference.NOMINAL_S:.4g} ms nominal; op scales "
              f"{host['scale_min']:.3g}-{host['scale_max']:.3g}")
    for name, metric in result["metrics"].items():
        print(f"  {name:44s} {metric['value']:14.6g} {metric['unit']:9s} {notes.get(name, '')}")
    frac = summary["failed"] / summary["attempted"]
    print(f"  {'fail_frac':44s} {frac:14.6g} {'share':9s} "
          f"{summary['failed']} of {summary['attempted']} ops; by kind "
          f"{summary['failure_kinds']}")
    print(f"  ops by kind {summary['ops_by_kind']}")
    if report["trace"]:
        for k, count in report["solutions_hist"].items():
            name = f"twoqubit.solutions_hist.{k}"
            print(f"  {name:44s} {count:14d} {'records':9s} traced moduli_feasibility "
                  f"calls returning {k} solutions")
        n_ops = report["traced"]["attempted"]
        print(f"  every traced layer, per op of {n_ops} traced ops: calls, total ms, self ms")
        for name, st in sorted(report["layers"].items(), key=lambda kv: -kv[1]["self_ms"]):
            print(f"    {name:50s} {st['calls'] / n_ops:10.4g} {st['total_ms'] / n_ops:10.4g} "
                  f"{st['self_ms'] / n_ops:10.4g}")
    print("provenance " + json.dumps(prov, sort_keys=True))


def _run_all(args) -> int:
    code = 0
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            code = proc.returncode
            continue
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    _import_library()
    result, report = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1, default=str) + "\n", encoding="utf-8")
    print_report(report)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
