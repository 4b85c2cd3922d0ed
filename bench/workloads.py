"""The benchmark's four workloads, their inputs and their output checks.

Each workload has a set-up, which builds every input from the seed and warms
the code paths up, and a fixed job, which passes only those inputs to nullrec
and checks what comes back.  The job calls nullrec through module attributes
(``processes.generate``, ``algebra.block_moment``, ...) so that the traced run
can wrap the names where they are looked up.

    fixed_point_walk  run_clt on the fixed-point protocol: heavy-tailed
                      regrow-from-scratch paths, processes.generate dominates
    modal_estimate    both modal protocols through the CLI, then one 1e6-step
                      path through every estimator primitive
    chain_exact       the exact algebra on one d = 300 chain (BLAS/LAPACK
                      bound) and on many d = 2..5 chains (per-call overhead)
    split_simulate    split-chain simulation and the lockstep block samplers,
                      plus the per-step generators
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from nullrec import algebra, cli, estimator, montecarlo, processes, splitting

# Sizes of each job.  "tiny" serves the self-test; "full" is the benchmark.
SIZES = {
    "full": dict(fp_reps=500, walk_n=1_000_000, grid=40, gauss_n=20_000, cv_n=3000,
                 chain_d=300, small_models=200, lag_max=20, split_n=1_000_000,
                 blocks=1_000_000, blocks_big=20_000, compound=1_000_000,
                 embedded=1_000_000, product_n=100_000, walk_runs=50,
                 walk_split_n=160_000, linked_n=1_000_000),
    "tiny": dict(fp_reps=4, walk_n=20_000, grid=4, gauss_n=2000, cv_n=200,
                 chain_d=300, small_models=3, lag_max=3, split_n=20_000,
                 blocks=20_000, blocks_big=500, compound=20_000,
                 embedded=1_000_000, product_n=2000, walk_runs=2,
                 walk_split_n=5000, linked_n=20_000),
}

CV_GRID = (0.5, 0.75, 1.0, 1.5, 2.0)
MODAL_PROTOCOLS = ("clt_modal_indep.json", "clt_modal_shared.json")
SE_LIMIT = 4.0  # sampler means must lie within this many standard errors


class Job:
    """One run of a workload's fixed job: times the calls into nullrec,
    counts attempted and failed operations, and hashes the outputs.

    Only the calls themselves are timed; checks and hashing are not."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.bytes_written = 0
        self.ops: list[tuple[str, float]] = []  # (label, seconds) of each call, in order
        self.errors: list[str] = []
        self._digests: dict[str, "hashlib._Hash"] = {}

    def op(self, label, fn, *args, check=None, count=1, **kwargs):
        """Call fn(*args, **kwargs) as `count` operations.  An exception
        fails all of them; `check(result)` returns a list of problems, each
        failing one.  Returns the result, or None when the call raised."""
        self.attempted += count
        span = self.tracer.span("bench.step", label) if self.tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with span:
                result = fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.ops.append((label, time.perf_counter() - t0))
            self._fail(label, count, [f"{type(exc).__name__}: {exc}"])
            return None
        self.ops.append((label, time.perf_counter() - t0))
        if check is not None:
            try:
                problems = list(check(result))
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            if problems:
                self._fail(label, count, problems)
        return result

    def digest(self, label, *items):
        """Fold arrays, strings, bytes or output directories into the
        sha256 of output `label`."""
        h = self._digests.setdefault(label, hashlib.sha256())
        for item in items:
            if isinstance(item, Path):
                for path in sorted(item.iterdir()):
                    h.update(path.name.encode())
                    h.update(path.read_bytes())
            elif isinstance(item, bytes):
                h.update(item)
            elif isinstance(item, str):
                h.update(item.encode())
            else:
                arr = np.ascontiguousarray(item)
                h.update(str(arr.dtype).encode())
                h.update(arr.tobytes())

    @property
    def digests(self) -> dict[str, str]:
        return {k: h.hexdigest() for k, h in sorted(self._digests.items())}

    @property
    def elapsed(self) -> float:
        return sum(t for _, t in self.ops)

    def seconds(self, label) -> float:
        return sum(t for lab, t in self.ops if lab == label)

    def _fail(self, label, count, problems):
        self.failed += min(count, len(problems))
        self.errors.extend(f"{label}: {p}" for p in problems[:5])


def typical_seconds(jobs: list[Job], label=None) -> float:
    """Time of the job (or of its `label` calls): the sum over its calls of
    each call's median time across the repeated jobs.

    Every repetition makes the same calls on the same inputs.  On a shared
    machine other tenants slow some repetitions down in bursts; a burst that
    hits one repetition of a call does not move that call's median.  Falls
    back to the median job when the calls differ."""
    sequences = {tuple(lab for lab, _ in j.ops) for j in jobs}
    if len(sequences) > 1:
        return statistics.median(j.elapsed if label is None else j.seconds(label) for j in jobs)
    return sum(statistics.median(j.ops[i][1] for j in jobs)
               for i, (lab, _) in enumerate(jobs[0].ops) if label is None or lab == label)


def _seeds(seed: int, k: int) -> list[int]:
    """k independent nullrec seeds derived from the workload seed."""
    return [int(v) for v in np.random.SeedSequence(seed).generate_state(k, dtype=np.uint64) >> 1]


def random_chain(rng, d: int) -> algebra.FiniteMarkovModel:
    """Random chain with an atom: P = alpha 1 (x) nu + (1 - alpha) Q for a
    random stochastic Q, and s = theta min_y P(x, y) / nu(y), so every state
    regenerates with probability at least alpha theta >= 0.1."""
    nu = rng.random(d) + 0.1
    nu /= nu.sum()
    Q = rng.random((d, d)) + 0.1
    Q /= Q.sum(axis=1, keepdims=True)
    alpha = rng.uniform(0.2, 0.6)
    P = alpha * nu + (1.0 - alpha) * Q
    s = np.minimum(rng.uniform(0.5, 0.9) * (P / nu).min(axis=1), 1.0)
    return algebra.FiniteMarkovModel(states=tuple(range(d)), P=P, s=s, nu=nu)


def _close(a, b, rel=1e-9, abs_=1e-12) -> bool:
    return abs(a - b) <= abs_ + rel * max(abs(a), abs(b))


def _within_se(label, sample, exact) -> list[str]:
    sample = np.asarray(sample, dtype=float)
    se = float(sample.std(ddof=1)) / math.sqrt(sample.size)
    z = abs(float(sample.mean()) - exact) / se if se > 0 else math.inf
    if z <= SE_LIMIT:
        return []
    return [f"{label}: mean {sample.mean()!r} is {z:.2f} SE from {exact!r}"]


def _weight_prefix(model) -> np.ndarray:
    """Time weights a_k = (1 + k)^(-1/2), long enough that the survival mass
    beyond the prefix, at most (1 - min s)^L, is below e^-60."""
    L = int(math.ceil(60.0 / -math.log1p(-float(model.s.min()))))
    return 1.0 / np.sqrt(1.0 + np.arange(L + 1))


def _cli(job, label, argv, out: Path):
    """Run one CLI command, its printout kept off the benchmark's stdout; the
    command's output directory is emptied first so the digest covers only
    this run.  Returns the exit code."""
    shutil.rmtree(out, ignore_errors=True)
    buf = io.StringIO()

    def call():
        with contextlib.redirect_stdout(buf):
            return cli.main(argv + ["--out", str(out)])

    rc = job.op(label, call, check=lambda code: [] if code == 0 else [f"exit code {code}"])
    if out.is_dir():
        job.bytes_written += sum(p.stat().st_size for p in out.iterdir())
    return rc


# --- fixed_point_walk ---------------------------------------------------------

def setup_fixed_point_walk(seed, sizes, root, workdir):
    obj = json.loads((root / "configs" / "clt_fixed_point.json").read_text())
    proto = next(p for p in montecarlo.protocols_from_dict(obj) if p.local_count == 800)
    proto = replace(proto, reps=sizes["fp_reps"], base_seed=_seeds(seed, 1)[0])
    processes.generate(proto.process, 4096, 0)
    return {"protocol": proto}


def job_fixed_point_walk(st, job):
    proto = st["protocol"]

    def check(res):
        problems = []
        if res.admitted + res.guard_exceeded + res.rejected_empty != proto.reps:
            problems.append(f"admitted {res.admitted} + guard {res.guard_exceeded} + empty "
                            f"{res.rejected_empty} != reps {proto.reps}")
        if len(res.records) != proto.reps:
            problems.append(f"{len(res.records)} records for {proto.reps} reps")
        bad = int((~np.isfinite(res.values)).sum())
        problems += ["non-finite admitted statistic"] * bad
        return problems

    res = job.op("run_clt", montecarlo.run_clt, proto, threads=1, check=check, count=proto.reps)
    if res is not None:
        job.digest("reps", "".join(r.status[0] for r in res.records), res.values)


# --- modal_estimate -----------------------------------------------------------

def setup_modal_estimate(seed, sizes, root, workdir):
    spec = processes.load_spec(root / "configs" / "rw_indep.json")
    protocols = [(f"configs/{name}", json.loads((root / "configs" / name).read_text())["id"])
                 for name in MODAL_PROTOCOLS]
    clt_seed, path_seed = _seeds(seed, 2)
    warm = processes.generate(spec, 500, 0)
    h = estimator.local_bandwidth(warm.x, float(warm.x[0]))
    estimator.nw_estimate(warm.x, warm.z, float(warm.x[0]), h)
    estimator.modal_value(warm.x)
    estimator.cv_constant(warm.x[:50], warm.z[:50], CV_GRID)
    return {"spec": spec, "protocols": protocols, "clt_seed": clt_seed,
            "path_seed": path_seed, "sizes": sizes, "workdir": workdir}


def _criterion_8(summary: Path, protocol_id: str):
    """KS <= 0.06 and sd in [0.8, 1.2] at n = 3000 in summary.csv."""
    with open(summary, newline="") as fh:
        rows = {row["protocol_id"]: row for row in csv.DictReader(fh)}
    row = rows.get(f"{protocol_id}-3000")
    if row is None:
        return [f"no n = 3000 row for {protocol_id}"]
    ks, sd = float(row["ks_distance"]), float(row["sd"])
    if ks <= 0.06 and 0.8 <= sd <= 1.2:
        return []
    return [f"{protocol_id}-3000: ks={ks!r} sd={sd!r} outside KS <= 0.06, sd in [0.8, 1.2]"]


def job_modal_estimate(st, job):
    sizes, spec = st["sizes"], st["spec"]
    for proto_path, protocol_id in st["protocols"]:
        stem = Path(proto_path).stem
        out = st["workdir"] / stem
        rc = _cli(job, "cli_clt", ["clt", "--protocol", proto_path, "--seed",
                                   str(st["clt_seed"]), "--threads", "1"], out)
        if rc == 0:
            job.op("criterion_8", lambda: None,
                   check=lambda _: _criterion_8(out / "summary.csv", protocol_id))
            job.digest(stem, out)

    path = job.op("walk_path", processes.generate, spec, sizes["walk_n"], st["path_seed"])
    if path is None:
        return
    x, z = path.x, path.z
    xs = np.sort(x)

    def in_sample(sample):
        return lambda v: [] if np.any(sample == v) else [f"{v!r} is not an observation"]

    mode = job.op("modal_value", estimator.modal_value, x, check=in_sample(x))
    grid = xs[np.linspace(0, xs.size - 1, sizes["grid"]).astype(np.int64)]
    hs, fits = [], []
    for x_eval in grid:
        h = job.op("local_bandwidth", estimator.local_bandwidth, x, float(x_eval),
                   check=lambda h: [] if h > 0 and math.isfinite(h) else [f"bandwidth {h!r}"])
        if h is None:
            continue
        rep = job.op("nw_estimate", estimator.nw_estimate, x, z, float(x_eval), h,
                     f_true_at_x=float(spec.f(x_eval)),
                     check=lambda r: [] if math.isfinite(r.f_hat) and math.isfinite(r.studentized)
                     else [f"f_hat {r.f_hat!r}"])
        hs.append(h)
        fits.append(rep.f_hat if rep is not None else math.nan)
    prefix = x[:sizes["gauss_n"]]
    gmode = job.op("modal_value_gaussian", estimator.modal_value, prefix,
                   estimator.gaussian_truncated(2.5), check=in_sample(prefix))
    c0 = job.op("cv_constant", estimator.cv_constant, x[:sizes["cv_n"]], z[:sizes["cv_n"]],
                CV_GRID, check=lambda c: [] if c in CV_GRID else [f"c0 {c!r} not in the grid"])
    job.digest("session", np.array([np.nan if v is None else v for v in (mode, gmode, c0)]),
               np.array(hs), np.array(fits))


# --- chain_exact --------------------------------------------------------------

def setup_chain_exact(seed, sizes, root, workdir):
    rng = np.random.default_rng(_seeds(seed, 1)[0])
    big = random_chain(rng, sizes["chain_d"])
    three = algebra.load_model(root / "configs" / "threestate.json")
    small = []
    for _ in range(sizes["small_models"]):
        model = random_chain(rng, int(rng.integers(2, 6)))
        small.append((model, rng.normal(size=model.d), rng.uniform(-1, 1, size=model.d),
                      _weight_prefix(model)))
    algebra.invariant_measure(big)
    return {"big": (big, rng.normal(size=big.d), rng.uniform(-1, 1, size=big.d),
                    _weight_prefix(big)),
            "small": small, "three": three, "gW": np.array([1.0, -0.5, 2.0]),
            "lag_max": sizes["lag_max"], "workdir": workdir}


def _chain_calls(call, model, g, gX, a, three, gW, lag_max) -> dict:
    """Every algebra entry point of the workload on one chain, in order;
    each goes through call(label, fn, *args)."""
    moment = algebra.BlockMomentRequest
    return {
        "pi": call("invariant_measure", algebra.invariant_measure, model),
        "G": call("fundamental_kernel",
                  lambda: algebra.fundamental_kernel(algebra.taboo_kernel(model))),
        "mean_var": call("block_mean_variance", algebra.block_mean_variance, model, g),
        "moments": [call("block_moment", algebra.block_moment, model, moment(g=g, m=m))
                    for m in range(1, 7)],
        "autocov": call("autocov_sweep", lambda: [algebra.generalized_autocov(model, g, None, ell)
                                                  for ell in range(-lag_max, lag_max + 1)]),
        "series": call("sigma2_from_series", algebra.sigma2_from_series, model, g),
        "embedded": call("embedded_transition", algebra.embedded_transition, model, three),
        "compound": [call("compound_block_moment", algebra.compound_block_moment,
                          model, three, gX, gW, m) for m in (2, 3)],
        "weighted": call("weighted_block_moment", algebra.weighted_block_moment, model, a, g, 2),
    }


def _direct(label, fn, *args):
    return fn(*args)


def _chain_checks(model, r, lag_max) -> list[str]:
    """pi P = pi, pi . s = 1, G s = 1, block moments against the block
    mean and variance, series variance against block variance."""
    problems = []
    pi, G = r["pi"].pi, r["G"].entries
    scale = float(np.abs(pi).max())
    if np.abs(pi @ model.P - pi).max() > 1e-9 * scale:
        problems.append("pi P != pi")
    if not _close(float(pi @ model.s), 1.0):
        problems.append(f"pi . s = {float(pi @ model.s)!r}")
    if np.abs(G @ model.s - 1.0).max() > 1e-9:
        problems.append(f"max |G s - 1| = {np.abs(G @ model.s - 1.0).max()!r}")
    mu, sigma2 = r["mean_var"]
    m1, m2 = r["moments"][0], r["moments"][1]
    if not _close(m1, mu):
        problems.append(f"E U = {m1!r} but pi . g = {mu!r}")
    if not _close(m2 - m1 * m1, sigma2, rel=1e-7, abs_=1e-9):
        problems.append(f"E U^2 - (E U)^2 = {m2 - m1 * m1!r} but sigma2 = {sigma2!r}")
    if not all(math.isfinite(v) for v in r["moments"]) or r["moments"][1] < 0:
        problems.append("block moments not finite")
    ac = r["autocov"]
    if not all(math.isfinite(v) for v in ac) or ac != ac[::-1]:
        problems.append("autocovariances not finite or not symmetric in the lag")
    series = r["series"]
    if abs(series.value - sigma2) > 1e-8 + series.tail_bound + 1e-9 * abs(sigma2):
        problems.append(f"series variance {series.value!r} vs block variance {sigma2!r}")
    emb = r["embedded"]
    if np.abs(emb.entries.sum(axis=1) - 1.0).max() > emb.tail_bound + 1e-9:
        problems.append("embedded transition rows do not sum to one")
    if not all(math.isfinite(c.value) for c in r["compound"]) or r["compound"][0].value < 0:
        problems.append("compound block moments not finite")
    if not (math.isfinite(r["weighted"].value) and r["weighted"].value >= 0):
        problems.append(f"weighted second moment {r['weighted'].value!r}")
    return problems


def _chain_vector(r) -> np.ndarray:
    return np.concatenate([r["pi"].pi, r["G"].entries.ravel(), list(r["mean_var"]), r["moments"],
                           r["autocov"], [r["series"].value, r["series"].tail_bound],
                           r["embedded"].entries.ravel(),
                           [c.value for c in r["compound"]], [r["weighted"].value]])


def job_chain_exact(st, job):
    model, g, gX, a = st["big"]
    three, gW, lag_max = st["three"], st["gW"], st["lag_max"]
    r = _chain_calls(job.op, model, g, gX, a, three, gW, lag_max)
    if any(v is None for v in (*r.values(), *r["moments"], *r["compound"])):
        job.op("identities_d300", lambda: None, check=lambda _: ["an algebra call failed"])
    else:
        job.op("identities_d300", lambda: None, check=lambda _: _chain_checks(model, r, lag_max))
        job.digest("d300", _chain_vector(r))

    for model, g, gX, a in st["small"]:
        r = job.op("small_models", _chain_calls, _direct, model, g, gX, a, three, gW, lag_max,
                   check=lambda r, model=model: _chain_checks(model, r, lag_max))
        if r is not None:
            job.digest("small", _chain_vector(r))

    work = st["workdir"]
    for chain in ("threestate", "twostate"):
        path = f"configs/{chain}.json"
        g_arg = "1,-1,2" if chain == "threestate" else "1,-1"
        out = work / f"moments_{chain}"
        rc = _cli(job, "cli_algebra", ["moments-check", "--chain", path, "--g", g_arg,
                                       "--m", "4"], out)
        if rc == 0:
            job.op("moments_csv", lambda: None, check=lambda _, out=out: _moments_csv(out))
            job.digest("cli", out)
        out = work / f"autocov_{chain}"
        rc = _cli(job, "cli_algebra", ["autocov", "--chain", path, "--g", g_arg], out)
        if rc == 0:
            job.op("autocov_csv", lambda: None, check=lambda _, out=out: _autocov_meta(out))
            job.digest("cli", out)
    for x_chain, w_chain in (("twostate", "threestate"), ("threestate", "twostate")):
        out = work / f"embedded_{x_chain}_{w_chain}"
        rc = _cli(job, "cli_algebra", ["embedded", "--chain", f"configs/{x_chain}.json",
                                       "--wchain", f"configs/{w_chain}.json"], out)
        if rc == 0:
            job.op("embedded_csv", lambda: None, check=lambda _, out=out: _embedded_csv(out))
            job.digest("cli", out)


def _moments_csv(out: Path) -> list[str]:
    with open(out / "moments.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [f"m={row['m']}: |algebra - enumeration| = {row['abs_diff']}" for row in rows
            if float(row["abs_diff"]) > float(row["enum_tail_bound"])
            + 1e-9 * max(1.0, abs(float(row["algebraic"])))]


def _autocov_meta(out: Path) -> list[str]:
    cfg = json.loads((out / "metadata.json").read_text())["config"]
    a, b = cfg["sigma2_series"], cfg["sigma2_blocks"]
    return [] if abs(a - b) <= 1e-8 + 1e-9 * abs(b) else [f"sigma2 series {a!r} vs blocks {b!r}"]


def _embedded_csv(out: Path) -> list[str]:
    with open(out / "embedded.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    sums = [sum(float(v) for v in row[1:]) for row in rows]
    return [] if all(abs(s - 1.0) <= 1e-9 for s in sums) else [f"row sums {sums!r}"]


# --- split_simulate -----------------------------------------------------------

def setup_split_simulate(seed, sizes, root, workdir):
    seeds = _seeds(seed, 12)
    rng = np.random.default_rng(seeds[0])
    three = algebra.load_model(root / "configs" / "threestate.json")
    two = algebra.load_model(root / "configs" / "twostate.json")
    big = random_chain(rng, sizes["chain_d"])
    walk = processes.load_spec(root / "configs" / "rw_indep.json")
    product = processes.ProcessSpec(family="FINITE_PRODUCT", f=processes.linear(1.0, 0.5),
                                    x_chain=three, w_chain=two)
    ar1 = processes.ProcessSpec(family="AR1_LINKED", a=0.5, b=1.0)
    ma = processes.ProcessSpec(family="MA_LINKED")
    g3 = rng.normal(size=3)
    gbig = rng.normal(size=big.d)
    gX, gW = rng.uniform(-1, 1, size=2), rng.uniform(-1, 1, size=3)
    # Exact references come from the algebra here, so the timed job only
    # touches the simulators.
    ref = {"d3": algebra.block_mean_variance(three, g3),
           "d3_len": algebra.invariant_measure(three).total_mass,
           "big": algebra.block_mean_variance(big, gbig),
           "big_len": algebra.invariant_measure(big).total_mass,
           "compound": {m: algebra.compound_block_moment(two, three, gX, gW, m).value
                        for m in (1, 2)},
           "embedded": algebra.embedded_transition(two, three).entries}
    splitting.simulate_split(three, 100, 0)
    splitting.sample_blocks(three, g3, 100, 0)
    return {"three": three, "two": two, "big": big, "walk": walk, "product": product,
            "ar1": ar1, "ma": ma, "g3": g3, "gbig": gbig, "gX": gX, "gW": gW, "ref": ref,
            "seeds": seeds[1:], "sizes": sizes}


def _recombines(traj, g):
    def check(bd):
        direct = float(np.asarray(g)[traj.x].sum())
        total = bd.u0 + float(bd.blocks.sum()) + bd.tail
        return [] if _close(total, direct, rel=1e-9, abs_=1e-6) else [
            f"u0 + blocks + tail = {total!r}, path sum = {direct!r}"]
    return check


def _walk_flags(traj, atom):
    """A regeneration flag at t needs X_t and X_{t+1} inside the atom."""
    tau = traj.tau
    x = traj.x
    inside = (x >= atom.lo) & (x <= atom.hi)
    nxt = tau[tau + 1 < x.size] + 1
    if not inside[tau].all() or not inside[nxt].all():
        return ["regeneration flag outside the walk's atom"]
    if not np.array_equal(np.flatnonzero(traj.y), tau):
        return ["tau does not index the flags"]
    return []


def _linked(spec):
    return lambda p: [] if np.array_equal(p.z, spec.f(p.x) + p.w) and np.isfinite(p.z).all() \
        else ["z != f(x) + w"]


def job_split_simulate(st, job):
    sz, ref, seeds = st["sizes"], st["ref"], st["seeds"]
    three, g3 = st["three"], st["g3"]

    traj = job.op("simulate_split_finite", splitting.simulate_split, three, sz["split_n"],
                  seeds[0])
    if traj is not None:
        job.op("block_sums", splitting.block_sums, traj, g3, check=_recombines(traj, g3))
        job.digest("finite", traj.x, traj.y)

    def blocks_check(mv, mean_len, tag):
        return lambda res: (_within_se(f"{tag} block sum", res[0], mv[0])
                            + _within_se(f"{tag} block length", res[1], mean_len))

    res = job.op("sample_blocks_d3", splitting.sample_blocks, three, g3, sz["blocks"], seeds[1],
                 check=blocks_check(ref["d3"], ref["d3_len"], "d3"))
    if res is not None:
        job.digest("blocks", *res)
    res = job.op("sample_blocks_big", splitting.sample_blocks, st["big"], st["gbig"],
                 sz["blocks_big"], seeds[2], check=blocks_check(ref["big"], ref["big_len"], "big"))
    if res is not None:
        job.digest("blocks", *res)

    two = st["two"]
    sums = job.op("sample_compound_block_sums", splitting.sample_compound_block_sums,
                  two, three, st["gX"], st["gW"], (1, 2), sz["compound"], seeds[3],
                  check=lambda S: sum((_within_se(f"compound m={m}", S[m], ref["compound"][m])
                                       for m in (1, 2)), []))
    if sums is not None:
        job.digest("compound", sums[1], sums[2])

    def embedded_check(counts):
        empirical = counts / counts.sum(axis=1, keepdims=True)
        worst = float(np.abs(empirical - ref["embedded"]).max())
        return [] if worst <= 0.005 else [f"max |empirical - exact| = {worst!r}"]

    counts = job.op("sample_embedded_counts", splitting.sample_embedded_counts, two, three,
                    sz["embedded"], seeds[4], check=embedded_check)
    if counts is not None:
        job.digest("embedded", counts)

    product = st["product"]
    path = job.op("generate_product", processes.generate, product, sz["product_n"], seeds[5],
                  check=lambda p: [] if np.array_equal(p.z, product.f(p.x) + p.w) else [
                      "z != f(x) + w"])
    if path is not None:
        job.digest("product", path.x, path.w)
    traj = job.op("simulate_split_product", splitting.simulate_split, product, sz["product_n"],
                  seeds[6], check=lambda t: [] if np.array_equal(t.y, t.y_x & t.y_w) else [
                      "compound flag != y_x & y_w"])
    if traj is not None:
        job.digest("product", traj.x, traj.w, traj.y)

    walk = st["walk"]
    atom = splitting.gaussian_rw_atom(walk.halfwidth)
    walk_seeds = np.random.SeedSequence(seeds[7]).generate_state(sz["walk_runs"],
                                                                 dtype=np.uint64)
    regens = []
    for s in walk_seeds:
        traj = job.op("simulate_split_walk", splitting.simulate_split, walk, sz["walk_split_n"],
                      int(s >> 1), check=lambda t: _walk_flags(t, atom))
        regens.append(-1 if traj is None else len(traj.tau))
    job.digest("walk", np.array(regens))

    for label, spec, s in (("generate_ar1", st["ar1"], seeds[8]),
                           ("generate_ma", st["ma"], seeds[9])):
        path = job.op(label, processes.generate, spec, sz["linked_n"], s, check=_linked(spec))
        if path is not None:
            job.digest(label, path.w)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object
    job: object


WORKLOADS = {w.name: w for w in (
    Workload("fixed_point_walk", setup_fixed_point_walk, job_fixed_point_walk),
    Workload("modal_estimate", setup_modal_estimate, job_modal_estimate),
    Workload("chain_exact", setup_chain_exact, job_chain_exact),
    Workload("split_simulate", setup_split_simulate, job_split_simulate),
)}
