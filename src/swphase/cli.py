"""Command-line front end.

Subcommands: ``kernel gen``, ``kernel verify``, ``composite verify``,
``wigner eval``, ``reconstruct``, ``moduli scan``.  Exit codes: 0 success,
1 well-formed input with a negative verdict, 2 usage or I/O error (also for
non-finite input, a ``wigner eval`` state and kernel of different sizes, or
a report that would hold a non-finite number: JSON output is strict).  The
reports of ``kernel gen``, ``kernel verify`` and ``composite verify`` carry
``"schema": 1``.  The matrix readers take a bare matrix object or a report
holding one under ``"matrix"``, as ``kernel gen`` writes, with or without a
schema; any other schema is an input error.  The default seed is a fixed
constant so documented invocations reproduce byte-for-byte.  Every output
ends with a newline, and ``--out`` writes the bytes of stdout to a temporary
file that replaces the target only on success.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
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
        values = [int(v) for v in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"samples must be a comma-separated integer list, got {text!r}") from exc
    if any(v < 1 for v in values):
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


def _glue_ranges(argv) -> list:
    """argv with each ``--ranges V`` written ``--ranges=V``.

    argparse reads a value such as -1,2 as an option, not as the value of
    ``--ranges``; glued to the option it parses.
    """
    out, tokens = [], iter(argv)
    for token in tokens:
        value = next(tokens, None) if token == "--ranges" else None
        out.append(token if value is None else f"--ranges={value}")
    return out


def _write_out(path, write) -> None:
    """Call write(fh) on stdout, or on a temporary file that replaces ``path`` on success.

    The temporary file sits beside ``path`` under a name unique to the call,
    takes the permission bits of an existing regular ``path`` (a new one gets
    0666 less the umask), and is removed on any failure, so ``path`` is never
    left half written.  A symbolic link is followed, and a ``path`` that
    exists and is not a regular file, such as /dev/null, is written in place.
    """
    if path is None:
        write(sys.stdout)
        return
    path = os.path.realpath(path)
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w", encoding="utf-8") as fh:
            write(fh)
        return
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            if mode is not None:
                os.chmod(fh.fileno(), stat.S_IMODE(mode))
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _dump_json(payload) -> str:
    """Strict JSON text ending with a newline: NaN or inf raise ValueError, which main
    turns into exit 2."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


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
    p_gen.add_argument("--dims", type=_parse_dims, default=None,
                       help="bipartition AxB: draw a kernel admissible for it")
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(handler=_cmd_kernel_gen)

    p_ver = kernel_sub.add_parser("verify", help="verify a kernel matrix file")
    p_ver.add_argument("input", help="matrix JSON file")
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
                       help="comma-separated ladder, e.g. 1000,10000,100000; each rung "
                            "is a prefix of one sample stream seeded (seed, 0)")
    p_rec.add_argument("--seed", type=_parse_seed, default=DEFAULT_SEED)
    p_rec.add_argument("--out", default=None)
    p_rec.add_argument("--format", choices=["json", "csv"], default="json")
    p_rec.set_defaults(handler=_cmd_reconstruct)

    p_mod = sub.add_parser("moduli", help="two-qubit moduli bundle scan")
    mod_sub = p_mod.add_subparsers(dest="moduli_command", required=True)
    p_scan = mod_sub.add_parser("scan", help="random scan of the ellipsoid bundle")
    p_scan.add_argument("--n", type=int, required=True, help="number of records")
    p_scan.add_argument("--seed", type=_parse_seed, default=DEFAULT_SEED)
    p_scan.add_argument("--ranges", type=_parse_ranges, default=(-np.pi, np.pi),
                        help="uniform parameter box lo,hi, lo <= hi; 0,0 is the origin")
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
    if args.dims is not None:
        if args.dims.total != args.n:
            raise ValueError(f"--dims {args.dims.n_a}x{args.dims.n_b} does not match --n {args.n}")
        comp = composite.make_composite_kernel(args.dims, args.seed)
        mat, spectrum, report = comp.mat, comp.kernel.spectrum, comp.report
    else:
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
    _write_out(args.out, lambda fh: fh.write(_dump_json(payload)))
    return EXIT_OK


def _cmd_kernel_verify(args) -> int:
    mat = _load_matrix_file(args.input)
    report = kernel.verify_master(mat, tol=args.tol)
    payload = report.as_dict()
    payload.update({"schema": _SCHEMA, "n": mat.shape[0]})
    if report.hermitian:
        payload["spectrum"] = [float(v) for v in np.linalg.eigvalsh(mat)[::-1]]
    _write_out(args.out, lambda fh: fh.write(_dump_json(payload)))
    return EXIT_OK if report.ok() else EXIT_FAIL


def _cmd_composite_verify(args) -> int:
    mat = _load_matrix_file(args.input)
    report = composite.verify_composite_master(mat, args.dims, args.tol)
    _write_out(args.out, lambda fh: fh.write(_dump_json({**report.as_dict(), "schema": _SCHEMA})))
    return EXIT_OK if report.admissible() else EXIT_FAIL


def _cmd_wigner_eval(args) -> int:
    state_mat = _load_matrix_file(args.state)
    kernel_mat = _load_matrix_file(args.kernel)
    if state_mat.shape != kernel_mat.shape:  # a usage error, before either matrix is judged
        raise ValueError(f"dimension mismatch: state {len(state_mat)}, kernel {len(kernel_mat)}")
    try:
        rho = linalg.DensityMatrix(state_mat)
        ker = kernel.SWKernel(kernel_mat)
        value = kernel.wigner_value(rho, ker)
    except ValueError as exc:
        print(f"error: invalid inputs: {exc}", file=sys.stderr)
        return EXIT_FAIL
    _write_out(args.out, lambda fh: fh.write(_dump_json({"w": value})))
    return EXIT_OK


def _cmd_reconstruct(args) -> int:
    _check_n_limit(args.n)
    spec = kernel.solve_kernel_spectrum(args.n, "random", seed=args.seed)
    rho = linalg.random_density(args.n, args.seed + 1)
    exact = kernel.reconstruct_exact(rho, spec)
    exact_residual = float(np.linalg.norm(exact - rho.mat))
    estimates = kernel.reconstruct_mc(rho, spec, args.samples, (args.seed, 0))
    ladder = [{"samples": samples, "frobenius_error": float(np.linalg.norm(estimate - rho.mat))}
              for samples, estimate in zip(args.samples, estimates)]
    if args.format == "json":
        text = _dump_json({
            "n": args.n,
            "seed": args.seed,
            "exact_residual": exact_residual,
            "ladder": ladder,
        })
    else:
        text = "samples,frobenius_error\n" + "".join(
            f"{row['samples']},{row['frobenius_error']!r}\n" for row in ladder
        ) + f"exact,{exact_residual!r}\n"
    _write_out(args.out, lambda fh: fh.write(text))
    return EXIT_OK


def _cmd_moduli_scan(args) -> int:
    if args.n < 1:
        raise ValueError("--n must be >= 1")
    write = twoqubit.scan_to_csv if args.format == "csv" else twoqubit.scan_to_json
    _write_out(args.out, lambda fh: write(fh, args.n, args.seed, ranges=args.ranges))
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(_glue_ranges(sys.argv[1:] if argv is None else argv))
    try:
        # Overflow in a report shows as the strict-JSON error, not as warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.handler(args)
    except (OSError, ValueError) as exc:  # bad input, a usage error or unwritable output
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry():
    sys.exit(main())
