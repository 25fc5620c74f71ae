"""Reproducible experiment harness.

Subcommands: sample, density, moments, charpoly, kernel, hardedge, cauchy,
bulk, acceptance.  Output is CSV (header row, shortest round-trip decimal
payload, trailing commented metadata block) or JSON mirroring the same
rows.  Exit codes: 0 ok, 1 check failure, 2 config error (bad input), 3
numerical failure or internal error.  --workers sets the Monte Carlo worker
pool of sample and charpoly; the environment variable WPL_THREADS caps it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys

import numpy as np

from . import __version__
from . import acceptance as acc
from . import finite_kernel as fk
from . import freeprob as fp
from . import hard_edge as he
from . import sampler as sp
from .errors import ConfigError, DomainError, WplError
from .freeprob import EnsembleParams
from .hard_edge import HardEdgeParams

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_FAILURE = 3


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))  # shortest round-trip decimal
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def _config_hash(payload: dict) -> str:
    canon = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def write_table(path, header, rows, meta: dict, fmt: str = "csv"):
    meta = dict(meta)
    meta.setdefault("version", __version__)
    meta["config_hash"] = _config_hash(meta)
    if fmt == "json":
        doc = {"columns": header, "rows": [[_fmt(v) for v in row] for row in rows], "meta": meta}
        text = json.dumps(doc, indent=1, default=str) + "\n"
    else:
        lines = [",".join(header)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        lines += [f"# {k}={meta[k]}" for k in sorted(meta)]
        text = "\n".join(lines) + "\n"
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _parse_grid(spec: str):
    try:
        lo, hi, n = spec.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError as exc:
        raise ConfigError(f"grid must be lo:hi:count, got {spec!r}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"grid ends must be finite, got {spec!r}")
    if n < 2 or not hi > lo:
        raise ConfigError("grid needs count >= 2 and hi > lo")
    return lo, hi, n


def _parse_x_grid(spec: str):
    """A grid of eigenvalue positions x, which must all be positive."""
    lo, hi, n = _parse_grid(spec)
    if not lo > 0:
        raise ConfigError(f"x grid needs lo > 0, got {spec!r}")
    return lo, hi, n


def _parse_ints(text: str) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from exc


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        vals = tuple(float(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated reals, got {text!r}") from exc
    if not all(math.isfinite(v) for v in vals):
        raise ConfigError(f"expected finite reals, got {text!r}")
    return vals


def _parse_x_values(text: str) -> tuple[float, ...]:
    """Eigenvalue positions x, which must all be positive."""
    vals = _parse_floats(text)
    if not all(v > 0 for v in vals):
        raise ConfigError(f"x values need to be > 0, got {text!r}")
    return vals


def _count(text: str) -> int:
    """argparse type of a count, which must be at least 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected a count >= 1, got {text!r}")
    return n


def _ensemble_from_args(args) -> EnsembleParams:
    nu = _parse_ints(args.nu) if args.nu is not None else (0,) * args.r
    mu = _parse_ints(args.mu) if args.mu is not None else (0,) * args.s
    return EnsembleParams(N=args.N, r=args.r, s=args.s, nu=nu, mu=mu)


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def cmd_sample(args) -> int:
    params = _ensemble_from_args(args)
    scaling = sp.Scaling(args.scaling)
    samples = sp.sample_spectra(params, args.samples, sp.RngStream(args.seed), scaling, args.workers)
    rows = [
        (i, j, float(v), scaling.value)
        for i, smp in enumerate(samples)
        for j, v in enumerate(smp.eigenvalues)
    ]
    meta = {"seed": args.seed, "params": params, "samples": args.samples, "scaling": scaling.value}
    write_table(args.out, ["draw_index", "eig_index", "value", "scaling"], rows, meta, args.format)
    return EXIT_OK


def cmd_density(args) -> int:
    lo, hi, n = _parse_x_grid(args.grid)
    xs = np.geomspace(lo, hi, n) if args.log else np.linspace(lo, hi, n)
    closed = fp.global_density(args.r, args.s, xs)
    solver = fp.stieltjes_density(args.r, args.s, xs)
    rows = [(float(x), float(c), v, abs(v - float(c))) for x, c, v in zip(xs, closed, solver)]
    meta = {"r": args.r, "s": args.s, "max_discrepancy": max(row[3] for row in rows)}
    write_table(args.out, ["x", "rho_closed", "rho_solver", "abs_diff"], rows, meta, args.format)
    return EXIT_OK


def cmd_moments(args) -> int:
    rows = []
    for p in range(1, args.pmax + 1):
        if args.s == 0:
            rows.append((p, str(fp.fuss_catalan(args.r, p)), float(fp.fuss_catalan(args.r, p))))
        elif args.s == args.r:
            frac = fp.moments_rr(args.r, p)
            rows.append((p, f"{frac.numerator}/{frac.denominator}", float(frac)))
        else:
            raise ConfigError("moments are implemented for s = 0 (Fuss-Catalan) and r = s")
    meta = {"r": args.r, "s": args.s, "pmax": args.pmax}
    write_table(args.out, ["p", "moment_exact", "moment_float"], rows, meta, args.format)
    return EXIT_OK


def cmd_charpoly(args) -> int:
    params = _ensemble_from_args(args)
    lams = _parse_floats(args.lam)
    rows = []
    if args.samples:
        mean, err = sp.mc_charpoly(params, np.asarray(lams), args.samples, sp.RngStream(args.seed), args.workers)
        for lam, m, e in zip(lams, np.atleast_1d(mean), np.atleast_1d(err)):
            exact = fk.charpoly_exact(params, lam)
            rows.append((lam, exact, float(m), float(e), (float(m) - exact) / float(e)))
        header = ["lambda", "exact", "mc_mean", "mc_stderr", "z_score"]
    else:
        for lam in lams:
            rows.append((lam, fk.charpoly_exact(params, lam)))
        header = ["lambda", "exact"]
    meta = {"params": params, "seed": args.seed, "samples": args.samples}
    write_table(args.out, header, rows, meta, args.format)
    return EXIT_OK


def cmd_kernel(args) -> int:
    params = _ensemble_from_args(args)
    xs = _parse_x_values(args.x)
    ys = _parse_x_values(args.y)
    grids = []
    if args.method in ("sum", "both"):
        grids.append((fk.biorth_system(params).kernel_matrix(xs, ys), "biorth_sum"))
    if args.method in ("contour", "both"):
        grids.append((fk.kernel_n_contour_grid(params, xs, ys), "double_contour"))
    rows = [(x, y, float(g[i, j]), m) for i, x in enumerate(xs) for j, y in enumerate(ys) for g, m in grids]
    meta = {"params": params, "method": args.method}
    write_table(args.out, ["x", "y", "K", "method"], rows, meta, args.format)
    return EXIT_OK


def cmd_hardedge(args) -> int:
    nu = _parse_ints(args.nu) if args.nu is not None else (0,) * args.r
    params = HardEdgeParams(r=args.r, nu=nu)
    header = ["x", "y", "K", "method"]
    if args.diag:
        lo, hi, n = _parse_x_grid(args.diag)
        xs = np.linspace(lo, hi, n)
        ks = he.k_hard_diag(params, xs)
        if args.r == 1:
            header = ["x", "y", "K", "method", "bessel_reference", "abs_diff"]
            ref = he.bessel_density(params.nu[0], xs)
            rows = [
                (float(x), float(x), float(k), "integral", float(b), abs(float(k) - float(b)))
                for x, k, b in zip(xs, ks, ref)
            ]
        else:
            rows = [(float(x), float(x), float(k), "integral") for x, k in zip(xs, ks)]
    else:
        xs = _parse_x_values(args.x)
        ys = _parse_x_values(args.y)
        grids = []
        if args.method in ("integral", "both"):
            grids.append((he.k_hard_grid(params, xs, ys), "integral"))
        if args.method in ("cd", "both"):
            cd = [[he.k_hard_cd(params, x, y).value for y in ys] for x in xs]
            grids.append((np.array(cd), "christoffel_darboux"))
        rows = [(x, y, float(g[i, j]), m) for i, x in enumerate(xs) for j, y in enumerate(ys) for g, m in grids]
    meta = {"r": args.r, "nu": nu, "method": args.method}
    write_table(args.out, header, rows, meta, args.format)
    return EXIT_OK


def cmd_cauchy(args) -> int:
    rng = sp.RngStream(args.seed)
    rows = []
    scale = float(args.N) ** 2
    for i in range(args.draws):
        eig = sp.sample_cauchy_triple(args.N, args.a, args.b, rng.substream(i))
        for j, v in enumerate(eig):
            scaled = float(v) * scale
            if scaled <= args.max_x:
                rows.append((i, j, scaled))
    meta = {"N": args.N, "a": args.a, "b": args.b, "draws": args.draws, "seed": args.seed,
            "scaling": "hard_edge(xN^2)", "max_x": args.max_x}
    write_table(args.out, ["draw_index", "eig_index", "scaled_value"], rows, meta, args.format)
    return EXIT_OK


def cmd_bulk(args) -> int:
    lo, hi, n = _parse_grid(args.grid)
    rows = []
    for t in np.linspace(lo, hi, n):
        prod, ref = he.bulk_experiment(args.r, args.c, 0.0, float(t))
        rows.append((float(t), prod, ref, prod - ref))
    meta = {"r": args.r, "c": args.c}
    write_table(args.out, ["y_minus_x", "scaled_product", "sine_kernel_sq", "diff"], rows, meta, args.format)
    return EXIT_OK


def cmd_acceptance(args) -> int:
    if not 0.0 < args.tol_scale <= 1.0:  # a scale above 1, or NaN, would loosen the checks
        raise ConfigError(f"--tol-scale must lie in (0, 1], got {args.tol_scale!r}")
    if args.list:
        for name in acc.ALL_CHECKS:
            print(name)
        return EXIT_OK
    names = args.only or None
    results = acc.run_checks(names, tol_scale=args.tol_scale)
    doc = {
        "tol_scale": args.tol_scale,
        "checks": [
            {
                "name": r.name, "value": float(r.value), "reference": float(r.reference),
                "tolerance": float(r.tolerance), "passed": bool(r.passed),
                "seconds": round(r.seconds, 2), "detail": _jsonable(r.detail),
            }
            for r in results
        ],
        "all_passed": bool(all(r.passed for r in results)),
    }
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
    print(f"{sum(r.passed for r in results)}/{len(results)} checks passed")
    return EXIT_OK if doc["all_passed"] else EXIT_CHECK_FAILURE


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, np.integer)):
        return float(obj)
    return obj


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wpl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, ensemble=True):
        p.add_argument("--out", default="-", help="output path or - for stdout")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        if ensemble:
            p.add_argument("--N", type=int, default=4)
            p.add_argument("--r", type=int, default=1)
            p.add_argument("--s", type=int, default=0)
            p.add_argument("--nu", help="comma-separated, defaults to zeros")
            p.add_argument("--mu", help="comma-separated, defaults to zeros")

    p = sub.add_parser("sample", help="draw product-ensemble spectra")
    common(p)
    p.add_argument("--samples", type=_count, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--workers", type=_count, default=1)
    p.add_argument("--scaling", choices=[v.value for v in sp.Scaling], default="raw")

    p = sub.add_parser("density", help="global density: phi-parametric map vs Stieltjes solver")
    common(p, ensemble=False)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--grid", required=True, help="lo:hi:count")
    p.add_argument("--log", action="store_true")

    p = sub.add_parser("moments", help="exact moment sequences")
    common(p, ensemble=False)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, default=0)
    p.add_argument("--pmax", type=_count, default=6)

    p = sub.add_parser("charpoly", help="generalized characteristic polynomial")
    common(p)
    p.add_argument("--lam", default="0.5,1,2")
    p.add_argument("--samples", type=int, default=0, help="Monte Carlo draws, at least 100 (0: exact only)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--workers", type=_count, default=1)

    p = sub.add_parser("kernel", help="finite-N correlation kernel")
    common(p)
    p.add_argument("--x", default="1.0")
    p.add_argument("--y", default="1.0")
    p.add_argument("--method", choices=("sum", "contour", "both"), default="both")

    p = sub.add_parser("hardedge", help="hard-edge scaled kernel")
    common(p, ensemble=False)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--nu")
    p.add_argument("--diag", help="lo:hi:count diagonal grid")
    p.add_argument("--x", default="1.0")
    p.add_argument("--y", default="2.0")
    p.add_argument("--method", choices=("integral", "cd", "both"), default="integral")

    p = sub.add_parser("cauchy", help="Cauchy two-matrix bridge sampling")
    common(p, ensemble=False)
    p.add_argument("--N", type=int, default=60)
    p.add_argument("--a", type=int, default=0)
    p.add_argument("--b", type=int, default=0)
    p.add_argument("--draws", type=_count, default=100)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--max-x", type=float, default=5.0)

    p = sub.add_parser("bulk", help="hard-edge-to-bulk comparison (exploratory)")
    common(p, ensemble=False)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--c", type=float, default=95.0)
    p.add_argument("--grid", default="0:2:9")

    p = sub.add_parser("acceptance", help="run the acceptance suite")
    common(p, ensemble=False)
    p.add_argument("--list", action="store_true", help="list check names without running")
    p.add_argument("--only", nargs="*", choices=list(acc.ALL_CHECKS), help="subset of check names")
    p.add_argument("--tol-scale", type=float, default=1.0,
                   help="scale statistical tolerances by a factor in (0, 1] (0.01 demonstrates failures)")
    p.add_argument("--json", help="write machine-readable report here")

    return parser


# built once at import, like specfun._GL_RULE: parse_args leaves it unchanged
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    command = globals()[f"cmd_{args.command}"]  # looked up per call, not held by the parser
    try:
        return command(args)
    except (ConfigError, DomainError) as exc:  # a parameter out of range is bad input too
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except WplError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE
    except Exception as exc:  # a bug, not bad input: report it without a traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE


if __name__ == "__main__":
    sys.exit(main())
