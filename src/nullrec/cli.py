"""Command-line front door: JSON configs in, CSV artifacts out.

Subcommands: simulate, estimate, clt, moments-check, autocov, embedded.
Every run computes fully before writing anything (no partial outputs) and
drops a metadata.json echoing the configuration, seeds and version next to
its CSVs.  Failures print one machine-readable JSON line on stderr and map
to distinct exit codes:

    2 config/IO parse    4 model or spec validation    6 empty data
    3 output IO          5 numeric (divergence, truncation)    7 experiment
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import errors as err
from .algebra import (
    MOMENT_ORDER_CAP,
    BlockMomentRequest,
    block_mean_variance,
    block_moment,
    embedded_transition,
    enumerated_block_moments,
    gap_law_mass,
    generalized_autocov,
    load_model,
    regeneration_gap_coefficients,
    sigma2_from_series,
)
from .estimator import EPANECHNIKOV, Kernel, local_bandwidth, nw_estimate
# cli.run_clt is not called here; bench/tracing.py wraps it by name.
from .montecarlo import (TREND_ALPHA, CltExperimentResult, ks_pvalue, protocols_from_dict,
                         run_clt, run_protocols, trend_report)
from .processes import generate, load_spec
from .splitting import SplitTrajectory, simulate_split


def _load(loader, path):
    """A chain, process spec or protocol list read by `loader`, with file and
    format errors (also an unparseable number or a ragged matrix) raised as
    ConfigParse."""
    try:
        return loader(path)
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise err.ConfigParse(f"{path}: {exc}") from exc


def _out_dir(path) -> Path:
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise err.IoFailure(f"cannot create output directory {out}: {exc}") from exc
    return out


def _write_metadata(out: Path, command: str, config: dict) -> None:
    meta = {"command": command, "version": __version__, "config": config}
    try:
        with open(out / "metadata.json", "w") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise err.IoFailure(str(exc)) from exc


def _write_csv(path, header, rows) -> None:
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise err.IoFailure(str(exc)) from exc


def _fmt(v) -> str:
    """A float to 17 significant digits (exact round trip), None as empty."""
    if v is None:
        return ""
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def write_trajectory_csv(traj: SplitTrajectory, path) -> None:
    """Columns t, x, w (empty if absent), y: state labels (as their str) on
    finite chains, values to 17 significant digits on walks."""
    def column(v, states):
        return ([states[i] for i in v.tolist()] if states is not None
                else [format(val, ".17g") for val in v.tolist()])

    w = [""] * len(traj.x) if traj.w is None else column(traj.w, traj.w_states)
    _write_csv(path, ["t", "x", "w", "y"],
               zip(range(len(traj.x)), column(traj.x, traj.states), w, traj.y.tolist()))


def write_replication_csv(result: CltExperimentResult, path) -> None:
    _write_csv(path, ["rep", "seed", "n_or_local_count", "x_eval", "h",
                      "sum_k", "f_hat", "studentized", "status", "path_length"],
               ([r.rep, r.seed, _fmt(r.size), _fmt(r.x_eval), _fmt(r.h), _fmt(r.sum_k),
                 _fmt(r.f_hat), _fmt(r.studentized), r.status, r.path_length]
                for r in result.records))


def write_summary_csv(results, path) -> None:
    _write_csv(path, ["protocol_id", "size", "reps", "admitted", "ks_distance", "mean", "sd"],
               ([res.protocol.protocol_id, res.protocol.size, res.protocol.reps, res.admitted,
                 _fmt(res.ks_distance), _fmt(res.mean), _fmt(res.sd)] for res in results))


def _parse_vector(text: str, d: int) -> np.ndarray:
    try:
        vec = np.array([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise err.ConfigParse(f"cannot parse vector {text!r}: {exc}") from exc
    _require(len(vec) == d, f"vector {text!r} has {len(vec)} values for a chain with {d} states")
    _require(bool(np.all(np.isfinite(vec))), f"vector {text!r} must be finite")
    return vec


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise err.InvalidSpec(message)


def _threads(args) -> int:
    threads, env = args.threads, os.environ.get("NULLREC_THREADS")
    if threads is None:
        try:
            threads = int(env or 1)
        except ValueError as exc:
            raise err.ConfigParse(f"NULLREC_THREADS={env!r} is not an integer") from exc
    _require(threads >= 1, f"thread count must be >= 1, got {threads}")
    return threads


def _cmd_simulate(args) -> int:
    if (args.chain is None) == (args.spec is None):
        raise err.ConfigParse("simulate needs exactly one of --chain or --spec")
    process = _load(load_model, args.chain) if args.chain else _load(load_spec, args.spec)
    traj = simulate_split(process, args.n, args.seed)
    out = _out_dir(args.out)
    write_trajectory_csv(traj, out / "trajectory.csv")
    _write_metadata(out, "simulate", {
        "chain": args.chain, "spec": args.spec, "n": args.n, "seed": args.seed,
        "regenerations": int(len(traj.tau)),
    })
    return 0


def _cmd_estimate(args) -> int:
    spec = _load(load_spec, args.spec)
    _require(all(v is None or (np.isfinite(v) and v > 0.0) for v in (args.h, args.c0)),
             f"--h {args.h!r} and --c0 {args.c0!r} must be finite and > 0")
    _require(all(np.isfinite(v) for v in args.x_eval), f"--x-eval {args.x_eval!r} must be finite")
    kernel = Kernel(args.kernel, c=args.kernel_c) if args.kernel != "epanechnikov" else EPANECHNIKOV
    path = generate(spec, args.n, args.seed)
    rows = []
    for x_eval in args.x_eval:
        h = args.h if args.h is not None else local_bandwidth(path.x, x_eval, c0=args.c0,
                                                              kernel=kernel)
        rep = nw_estimate(path.x, path.z, x_eval, h, kernel,
                          f_true_at_x=float(spec.f(x_eval)))
        rows.append(rep)
    out = _out_dir(args.out)
    _write_csv(out / "estimate.csv",
               ["x_eval", "f_hat", "h", "sum_k", "t_c", "p_hat_c", "studentized"],
               ([_fmt(rep.x_eval), _fmt(rep.f_hat), _fmt(rep.h), _fmt(rep.sum_k), rep.t_c,
                 _fmt(rep.p_hat_c), _fmt(rep.studentized)] for rep in rows))
    _write_metadata(out, "estimate", {
        "spec": args.spec, "n": args.n, "seed": args.seed, "x_eval": args.x_eval,
        "kernel": kernel.kind, "c0": args.c0, "h": args.h,
    })
    return 0


def _cmd_clt(args) -> int:
    protocols = _load(lambda path: protocols_from_dict(json.loads(Path(path).read_text())),
                      args.protocol)
    if args.seed is not None:
        from dataclasses import replace
        protocols = [replace(p, base_seed=args.seed) for p in protocols]
    threads = _threads(args)
    results = run_protocols(protocols, threads=threads)

    out = _out_dir(args.out)
    for res in results:
        write_replication_csv(res, out / f"reps_{res.protocol.protocol_id}.csv")
    write_summary_csv(results, out / "summary.csv")
    seeds = {p.protocol_id: p.base_seed for p in protocols}
    _write_metadata(out, "clt", {
        "protocol": args.protocol, "threads": threads, "base_seeds": seeds,
        "protocols": [res.protocol.protocol_id for res in results],
    })
    for res in results:
        print(f"{res.protocol.protocol_id}: admitted={res.admitted} "
              f"empty={res.rejected_empty} guard={res.guard_exceeded} "
              f"ks={_fmt(res.ks_distance)} ks_p={ks_pvalue(res.ks_distance, res.admitted):.3g} "
              f"mean={_fmt(res.mean)} sd={_fmt(res.sd)}")
    if len(results) >= 2:
        trend = trend_report(results)
        for row in trend.rows:
            print(f"trend: size={row.size} ks={_fmt(row.ks_distance)} sd={_fmt(row.sd)}")
        if trend.violation:
            print(f"trend: violation (largest size rejects N(0, 1) at {TREND_ALPHA:g})")
    return 0


def _cmd_moments_check(args) -> int:
    model = _load(load_model, args.chain)
    g = _parse_vector(args.g, model.d)
    _require(args.start == "nu" or args.start in map(str, range(model.d)),
             f"--start must be 'nu' or a state index in 0..{model.d - 1}, got {args.start!r}")
    _require(args.m >= 1 and args.depth >= 0,
             f"--m must be >= 1 and --depth >= 0, got {args.m} and {args.depth}")
    if args.m > MOMENT_ORDER_CAP:
        raise err.OrderTooLarge(args.m, MOMENT_ORDER_CAP)
    start = "nu" if args.start == "nu" else int(args.start)
    orders = tuple(range(1, args.m + 1))
    enums = enumerated_block_moments(model, g, orders, start=start, depth=args.depth)
    rows = []
    for m in orders:
        algebraic = block_moment(model, BlockMomentRequest(g=g, m=m, start=start))
        enum = enums[m]
        rows.append((m, algebraic, enum.value, abs(algebraic - enum.value), enum.tail_bound))
    for m, a, e, diff, tail in rows:
        print(f"m={m} algebraic={_fmt(a)} enumeration={_fmt(e)} |diff|={_fmt(diff)} "
              f"enum_tail_bound={_fmt(tail)}")
    if args.out:
        out = _out_dir(args.out)
        _write_csv(out / "moments.csv",
                   ["m", "algebraic", "enumeration", "abs_diff", "enum_tail_bound"],
                   ([row[0]] + [_fmt(v) for v in row[1:]] for row in rows))
        _write_metadata(out, "moments-check", {
            "chain": args.chain, "g": args.g, "m": args.m, "start": args.start,
            "depth": args.depth,
        })
    return 0


def _cmd_autocov(args) -> int:
    model = _load(load_model, args.chain)
    g = _parse_vector(args.g, model.d)
    f = _parse_vector(args.f, model.d) if args.f else None
    _require(args.ell_max >= 0, f"--ell-max must be >= 0, got {args.ell_max}")
    rows = [(ell, generalized_autocov(model, g, f, ell))
            for ell in range(-args.ell_max, args.ell_max + 1)]
    series = sigma2_from_series(model, g)
    mu, sigma2 = block_mean_variance(model, g)
    print(f"sigma2_series={_fmt(series.value)} tail_bound={_fmt(series.tail_bound)} "
          f"sigma2_blocks={_fmt(sigma2)} |diff|={_fmt(abs(series.value - sigma2))}")
    if args.out:
        out = _out_dir(args.out)
        _write_csv(out / "autocov.csv", ["ell", "gamma"], ([ell, _fmt(val)] for ell, val in rows))
        _write_metadata(out, "autocov", {
            "chain": args.chain, "g": args.g, "f": args.f, "ell_max": args.ell_max,
            "sigma2_series": series.value, "sigma2_blocks": sigma2,
        })
    return 0


def _cmd_embedded(args) -> int:
    x_model = _load(load_model, args.chain)
    w_model = _load(load_model, args.wchain)
    _require(args.coeffs >= 0, f"--coeffs must be >= 0, got {args.coeffs}")
    result = embedded_transition(x_model, w_model)
    coeffs = regeneration_gap_coefficients(x_model, args.coeffs)
    mass = gap_law_mass(x_model)  # of every coefficient, not only the --coeffs printed
    print(f"coefficient_mass={_fmt(mass)} tail_bound={_fmt(result.tail_bound)}")
    for i, row in enumerate(result.entries):
        print(f"row {w_model.states[i]}: " + " ".join(_fmt(v) for v in row))
    if args.out:
        out = _out_dir(args.out)
        _write_csv(out / "embedded.csv", ["from_state"] + [str(s) for s in w_model.states],
                   ([w_model.states[i]] + [_fmt(v) for v in row]
                    for i, row in enumerate(result.entries)))
        _write_csv(out / "gap_coefficients.csv", ["lag", "coefficient"],
                   ([i, _fmt(float(b))] for i, b in enumerate(coeffs, start=1)))
        _write_metadata(out, "embedded", {
            "chain": args.chain, "wchain": args.wchain,
            "coefficient_mass": mass, "tail_bound": result.tail_bound,
        })
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nullrec",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="split-chain trajectory to CSV")
    p.add_argument("--chain", help="finite chain JSON")
    p.add_argument("--spec", help="process spec JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", help="generate a system and estimate the transfer function")
    p.add_argument("--spec", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--x-eval", dest="x_eval", type=float, nargs="+", required=True)
    p.add_argument("--c0", type=float, default=1.0)
    p.add_argument("--h", type=float, default=None, help="fixed bandwidth (overrides the local rule)")
    p.add_argument("--kernel", default="epanechnikov",
                   choices=["epanechnikov", "gaussian_truncated"])
    p.add_argument("--kernel-c", dest="kernel_c", type=float, default=2.5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("clt", help="replicated normality experiment from a protocol file")
    p.add_argument("--protocol", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the protocol base seed")
    p.add_argument("--threads", type=int, default=None,
                   help="parallel replications (falls back to NULLREC_THREADS)")
    p.set_defaults(func=_cmd_clt)

    p = sub.add_parser("moments-check", help="block moments: exact algebra vs enumeration")
    p.add_argument("--chain", required=True)
    p.add_argument("--g", required=True, help="comma-separated per-state values")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--start", default="nu")
    p.add_argument("--depth", type=int, default=200)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_moments_check)

    p = sub.add_parser("autocov", help="generalized autocovariances and the variance series")
    p.add_argument("--chain", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--f", default=None)
    p.add_argument("--ell-max", dest="ell_max", type=int, default=20)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_autocov)

    p = sub.add_parser("embedded", help="transition law of W sampled at X regenerations")
    p.add_argument("--chain", required=True, help="X chain JSON")
    p.add_argument("--wchain", required=True, help="W chain JSON")
    p.add_argument("--coeffs", type=int, default=32, help="gap coefficients to report")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_embedded)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except err.NullrecError as exc:
        code = exc.exit_code
        line = json.dumps({"error": type(exc).__name__, "message": str(exc),
                           "exit_code": code})
        print(line, file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
