"""Command-line front end.

Subcommands: ``kernel gen``, ``kernel verify``, ``composite verify``,
``wigner eval``, ``reconstruct``, ``moduli scan``.  Exit codes: 0 success,
1 well-formed input with a negative verdict, 2 usage or I/O error (also for
non-finite input, or a report that would hold a non-finite number: JSON
output is strict).  The reports of ``kernel gen``, ``kernel verify`` and
``composite verify`` carry ``"schema": 1``.  The matrix readers take a bare
matrix object or a report holding one under ``"matrix"``, as ``kernel gen``
writes, with or without a schema; any other schema is an input error.  The
default seed is a fixed constant so documented invocations reproduce
byte-for-byte.
"""

from __future__ import annotations

import argparse
import io
import json
import sys

import numpy as np

from . import composite, kernel, linalg, twoqubit

DEFAULT_SEED = 20210

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# Version of the report envelope that the verdict commands write and the
# matrix readers accept.
_SCHEMA = 1

# Largest --n of kernel gen and reconstruct: at 1024 a kernel gen run peaks
# near 0.6 GB and writes 80 MB of JSON; larger sizes are refused before
# anything is allocated.
_MAX_KERNEL_N = 1024


def _parse_dims(text: str) -> linalg.BipartiteDims:
    try:
        a, b = text.lower().split("x")
        return linalg.BipartiteDims(int(a), int(b))
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(
            f"dims must look like 2x2, got {text!r}") from exc


def _parse_samples(text: str) -> list:
    try:
        values = [int(v) for v in text.split(",") if v]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"samples must be a comma-separated integer list, got {text!r}") from exc
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError("samples must be positive integers")
    return values


def _parse_seed(text: str) -> int:
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}")


def _parse_tol(text: str) -> float:
    try:
        if 0.0 < float(text) < np.inf:  # false for nan
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"tol must be a positive finite number, got {text!r}")


def _parse_ranges(text: str):
    """Parse lo,hi; moduli_scan checks the values."""
    try:
        lo, hi = (float(v) for v in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"ranges must look like -3.14,3.14, got {text!r}") from exc
    return lo, hi


def _emit(text: str, out_path):
    if out_path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _dump_json(payload) -> str:
    """Strict JSON: NaN or inf raise ValueError, which main turns into exit 2."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)


def _load_matrix_file(path: str) -> np.ndarray:
    """A matrix object, bare or under the "matrix" key of a report."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        if isinstance(obj, dict):
            schema = obj.get("schema", _SCHEMA)
            if type(schema) is not int or schema != _SCHEMA:
                raise ValueError(f"unsupported report schema {schema!r}, expected {_SCHEMA}")
            obj = obj.get("matrix", obj)
        return linalg.matrix_from_json(obj)
    except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise ValueError(f"cannot read matrix: {exc}") from None


class _Parser(argparse.ArgumentParser):
    """Parse errors as one ``error:`` line and exit 2; sub-parsers inherit the class."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"error: {message}\n")


# The parser of main, built on the first call of build_parser.
_PARSER = None


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every call.

    It is built on first use, not at import; parse_args gives each call a
    fresh Namespace, so calls of main do not see each other's options.
    """
    global _PARSER
    if _PARSER is not None:
        return _PARSER
    parser = _Parser(
        prog="swphase",
        description="Stratonovich-Weyl kernels, composite admissibility and "
                    "the two-qubit moduli scan.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_kernel = sub.add_parser("kernel", help="generate or verify kernels")
    kernel_sub = p_kernel.add_subparsers(dest="kernel_command", required=True)

    p_gen = kernel_sub.add_parser("gen", help="generate a random kernel")
    p_gen.add_argument("--n", type=int, required=True, help="system dimension")
    p_gen.add_argument("--seed", type=_parse_seed, default=DEFAULT_SEED)
    p_gen.add_argument("--composite", action="store_true",
                       help="draw a composite-admissible kernel")
    p_gen.add_argument("--dims", type=_parse_dims, default=None,
                       help="bipartition AxB (required with --composite, refused without)")
    p_gen.add_argument("--out", default=None)
    p_gen.add_argument("--format", choices=["json"], default="json")
    p_gen.set_defaults(handler=_cmd_kernel_gen)

    p_ver = kernel_sub.add_parser("verify", help="verify a kernel matrix file")
    p_ver.add_argument("input", help="matrix JSON file")
    p_ver.add_argument("--n", type=int, default=None)
    p_ver.add_argument("--tol", type=_parse_tol, default=kernel.PURITY_TOL)
    p_ver.add_argument("--out", default=None)
    p_ver.set_defaults(handler=_cmd_kernel_verify)

    p_comp = sub.add_parser("composite", help="composite admissibility checks")
    comp_sub = p_comp.add_subparsers(dest="composite_command", required=True)
    p_cver = comp_sub.add_parser("verify", help="verify a composite kernel file")
    p_cver.add_argument("input", help="matrix JSON file")
    p_cver.add_argument("--dims", type=_parse_dims, required=True)
    p_cver.add_argument("--tol", type=_parse_tol, default=kernel.PURITY_TOL)
    p_cver.add_argument("--out", default=None)
    p_cver.set_defaults(handler=_cmd_composite_verify)

    p_wig = sub.add_parser("wigner", help="Wigner function values")
    wig_sub = p_wig.add_subparsers(dest="wigner_command", required=True)
    p_eval = wig_sub.add_parser("eval", help="pair a state file with a kernel file")
    p_eval.add_argument("state", help="density matrix JSON file")
    p_eval.add_argument("kernel", help="kernel matrix JSON file")
    p_eval.add_argument("--out", default=None)
    p_eval.set_defaults(handler=_cmd_wigner_eval)

    p_rec = sub.add_parser("reconstruct", help="orbit-integral reconstruction experiment")
    p_rec.add_argument("--n", type=int, required=True)
    p_rec.add_argument("--samples", type=_parse_samples, required=True,
                       help="comma-separated ladder, e.g. 1000,10000,100000")
    p_rec.add_argument("--seed", type=_parse_seed, default=DEFAULT_SEED)
    p_rec.add_argument("--out", default=None)
    p_rec.add_argument("--format", choices=["json", "csv"], default="json")
    p_rec.set_defaults(handler=_cmd_reconstruct)

    p_mod = sub.add_parser("moduli", help="two-qubit moduli bundle scan")
    mod_sub = p_mod.add_subparsers(dest="moduli_command", required=True)
    p_scan = mod_sub.add_parser("scan", help="random scan of the ellipsoid bundle")
    p_scan.add_argument("--n", type=int, required=True, help="number of records")
    p_scan.add_argument("--seed", type=_parse_seed, default=DEFAULT_SEED)
    p_scan.add_argument("--zero-params", action="store_true",
                        help="evaluate every record at the origin")
    p_scan.add_argument("--ranges", type=_parse_ranges, default=(-np.pi, np.pi),
                        help="uniform parameter box lo,hi")
    p_scan.add_argument("--out", default=None)
    p_scan.add_argument("--format", choices=["csv", "json"], default="csv")
    p_scan.set_defaults(handler=_cmd_moduli_scan)
    _PARSER = parser
    return parser


def _check_n_limit(n: int) -> None:
    if n > _MAX_KERNEL_N:
        raise ValueError(f"--n {n} is above the limit {_MAX_KERNEL_N}")


def _cmd_kernel_gen(args) -> int:
    _check_n_limit(args.n)
    if args.composite:
        dims = args.dims
        if dims is None:
            raise ValueError("--composite requires --dims AxB")
        if dims.total != args.n:
            raise ValueError(f"--dims {dims.n_a}x{dims.n_b} does not match --n {args.n}")
        comp = composite.make_composite_kernel(dims, args.seed)
        mat, spectrum, report = comp.mat, comp.kernel.spectrum, comp.report
    else:
        if args.dims is not None:
            raise ValueError("--dims requires --composite")
        if args.n < 2:
            raise ValueError(f"no kernel spectrum exists at n={args.n}")
        spec = kernel.solve_kernel_spectrum(args.n, "random", seed=args.seed)
        ker = kernel.kernel_from_spectrum(spec, linalg.haar_unitary(args.n, args.seed))
        mat, spectrum, report = ker.mat, spec.pi, ker.report
    payload = report.as_dict()
    payload.update({
        "schema": _SCHEMA,
        "n": args.n,
        "seed": args.seed,
        "spectrum": [float(v) for v in spectrum],
        "matrix": linalg.matrix_to_json(mat),
    })
    _emit(_dump_json(payload), args.out)
    return EXIT_OK


def _cmd_kernel_verify(args) -> int:
    mat = _load_matrix_file(args.input)
    n = mat.shape[0] if args.n is None else args.n
    if n != mat.shape[0]:
        raise ValueError(f"--n {args.n} does not match file dimension {mat.shape[0]}")
    report = kernel.verify_master(mat, n, args.tol)
    payload = report.as_dict()
    payload.update({"schema": _SCHEMA, "n": n})
    if report.hermitian:
        payload["spectrum"] = [float(v) for v in np.sort(np.linalg.eigvalsh(mat))[::-1]]
    _emit(_dump_json(payload), args.out)
    return EXIT_OK if report.ok(args.tol) else EXIT_FAIL


def _cmd_composite_verify(args) -> int:
    mat = _load_matrix_file(args.input)
    report = composite.verify_composite_master(mat, args.dims, args.tol)
    _emit(_dump_json({**report.as_dict(), "schema": _SCHEMA}), args.out)
    return EXIT_OK if report.admissible() else EXIT_FAIL


def _cmd_wigner_eval(args) -> int:
    state_mat = _load_matrix_file(args.state)
    kernel_mat = _load_matrix_file(args.kernel)
    try:
        rho = linalg.DensityMatrix(state_mat)
        ker = kernel.SWKernel(kernel_mat, kernel_mat.shape[0])
        value = kernel.wigner_value(rho, ker)
    except ValueError as exc:
        print(f"error: invalid inputs: {exc}", file=sys.stderr)
        return EXIT_FAIL
    _emit(_dump_json({"w": value}), args.out)
    return EXIT_OK


def _cmd_reconstruct(args) -> int:
    _check_n_limit(args.n)
    if args.n < 2:
        raise ValueError(f"no kernel spectrum exists at n={args.n}")
    spec = kernel.solve_kernel_spectrum(args.n, "random", seed=args.seed)
    rho = linalg.random_density(args.n, args.seed + 1)
    exact = kernel.reconstruct_exact(rho, spec)
    exact_residual = float(np.linalg.norm(exact - rho.mat))
    ladder = []
    for rung, samples in enumerate(args.samples):
        estimate = kernel.reconstruct_mc(rho, spec, samples, (args.seed, rung))
        ladder.append({
            "samples": samples,
            "frobenius_error": float(np.linalg.norm(estimate - rho.mat)),
        })
    if args.format == "json":
        payload = {
            "n": args.n,
            "seed": args.seed,
            "exact_residual": exact_residual,
            "ladder": ladder,
        }
        _emit(_dump_json(payload), args.out)
    else:
        buf = io.StringIO()
        buf.write("samples,frobenius_error\n")
        for row in ladder:
            buf.write(f"{row['samples']},{row['frobenius_error']!r}\n")
        buf.write(f"exact,{exact_residual!r}\n")
        _emit(buf.getvalue(), args.out)
    return EXIT_OK


def _cmd_moduli_scan(args) -> int:
    if args.n < 1:
        raise ValueError("--n must be >= 1")
    records = twoqubit.moduli_scan(args.n, args.seed, ranges=args.ranges,
                                   zero_params=args.zero_params)
    if args.format == "csv":
        buf = io.StringIO()
        twoqubit.scan_to_csv(records, buf)
        text = buf.getvalue()
    else:
        text = _dump_json(twoqubit.scan_to_json(records))
    _emit(text, args.out)
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Overflow in a report shows as the strict-JSON error, not as warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.handler(args)
    except (OSError, ValueError) as exc:  # bad input, a usage error or unwritable output
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry():
    sys.exit(main())
