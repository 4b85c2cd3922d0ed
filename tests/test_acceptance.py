"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (run with -s to see them on
success) and asserts the criterion at its stated tolerance.  Everything is
deterministic: protocols carry fixed base seeds and replication seeds are
derived by the documented splitmix64 mix.
"""

import math
import time

import numpy as np
import pytest

import nullrec.algebra as alg
import nullrec.estimator as est
import nullrec.montecarlo as mc
import nullrec.processes as pr
import nullrec.splitting as sp
from tests.conftest import random_model
from tests.test_algebra import fundamental_kernel_series

TWO_STATE = alg.FiniteMarkovModel(states=(0, 1), P=[[0.5, 0.5], [0.5, 0.5]],
                                  s=[0.5, 0.5], nu=[0.5, 0.5])


# A size comparison: the larger size's KS distance D_large may exceed the
# smaller size's D_small by at most the Kolmogorov critical value of its own
# m values at this level.  Under the N(0, 1) limit at both sizes the clause
# fails with probability P(D_large - D_small > c) <= P(D_large > c) = ALPHA,
# whatever the dependence between the sizes (they share replication seeds).
ALPHA = 1e-3


def no_worse(ks_large: float, ks_small: float, m: int) -> bool:
    return ks_large - ks_small <= mc.ks_critical(m, ALPHA)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def geometric_binomial_moment(m: int, k_max: int = 220) -> float:
    """Independent closed-form oracle for the symmetric two-state chain:
    block length L ~ Geometric(1/2) on {1, 2, ...}, and the number of visits
    to state 0 given L is Binomial(L, 1/2)."""
    total = 0.0
    for length in range(1, k_max + 1):
        p_len = 0.5 ** length
        pmf = 0.5 ** length  # P(U = 0 | L)
        e_cond = 0.0
        for u in range(length):
            pmf_next = pmf * (length - u) / (u + 1)
            e_cond += pmf_next * (u + 1) ** m
            pmf = pmf_next
        total += p_len * e_cond
    return total


def test_criterion_1_exact_block_moment_oracle():
    start = time.perf_counter()
    g = np.array([1.0, 0.0])
    oracle = {m: geometric_binomial_moment(m) for m in (1, 2, 3, 4)}
    assert abs(oracle[1] - 1.0) < 1e-12 and abs(oracle[2] - 2.0) < 1e-12
    worst = 0.0
    for m in (1, 2, 3, 4):
        got = alg.block_moment(TWO_STATE, alg.BlockMomentRequest(g=g, m=m, start="nu"))
        worst = max(worst, abs(got - oracle[m]))
    elapsed = time.perf_counter() - start
    _report(1, worst < 1e-10 and elapsed < 1.0,
            f"max |algebra - oracle| = {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_dual_oracle_algebra():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst_kernel = 0.0
    worst_z = 0.0
    for i in range(20):
        model = random_model(rng, d=int(rng.integers(2, 6)))
        H = alg.taboo_kernel(model)
        solve = alg.fundamental_kernel(H).entries
        series = fundamental_kernel_series(H, tol=1e-13).entries
        worst_kernel = max(worst_kernel, float(np.abs(solve - series).max()))

        g = rng.uniform(-1.0, 1.0, size=model.d)
        mu, sigma2 = alg.block_mean_variance(model, g)
        U, _ = sp.sample_blocks(model, g, 1_000_000, seed=mc.derive_seed(303, i))
        n = len(U)
        z_mean = abs(U.mean() - mu) / (U.std(ddof=1) / math.sqrt(n))
        v = U.var(ddof=1)
        m4 = ((U - U.mean()) ** 4).mean()
        z_var = abs(v - sigma2) / math.sqrt((m4 - v * v) / n)
        worst_z = max(worst_z, z_mean, z_var)
    elapsed = time.perf_counter() - start
    _report(2, worst_kernel < 1e-10 and worst_z < 4.0 and elapsed < 120.0,
            f"max kernel dev = {worst_kernel:.2e}, max |z| = {worst_z:.2f}, {elapsed:.1f}s")


def test_criterion_3_variance_series_equivalence():
    start = time.perf_counter()
    chains = [TWO_STATE]
    rng = np.random.default_rng(99)
    chains += [random_model(rng, d=d) for d in (2, 3, 4, 5, 4, 3)]
    worst = 0.0
    for model in chains:
        g_rng = np.random.default_rng(model.d * 7 + 1)
        for g in (np.eye(model.d)[0], g_rng.normal(size=model.d)):
            _, sigma2 = alg.block_mean_variance(model, g)
            res = alg.sigma2_from_series(model, g)
            excess = abs(res.value - sigma2) - res.tail_bound
            worst = max(worst, excess)
    elapsed = time.perf_counter() - start
    _report(3, worst < 1e-8 and elapsed < 10.0,
            f"max |series - blocks| beyond tail bound = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_4_embedded_chain_law():
    start = time.perf_counter()
    rng = np.random.default_rng(88)
    worst = 0.0
    for k in range(2):
        x_model = random_model(rng, d=2 + k, s_low=0.4, s_high=0.8)
        w_model = random_model(rng, d=3, s_low=0.3, s_high=0.8)
        counts = sp.sample_embedded_counts(x_model, w_model, 1_000_000,
                                           seed=mc.derive_seed(505, k))
        empirical = counts / counts.sum(axis=1, keepdims=True)
        exact = alg.embedded_transition(x_model, w_model).entries
        worst = max(worst, float(np.abs(empirical - exact).max()))
    elapsed = time.perf_counter() - start
    _report(4, worst <= 0.005 and elapsed < 120.0,
            f"max |empirical - exact| = {worst:.5f} over 1e6 embedded steps, {elapsed:.1f}s")


def test_criterion_5_compound_block_moments():
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    worst_z = 0.0
    worst_fact = 0.0
    for d_x, d_w in ((2, 2), (2, 3)):
        x_model = random_model(rng, d=d_x, s_low=0.4, s_high=0.8)
        w_model = random_model(rng, d=d_w, s_low=0.4, s_high=0.8)
        gX = rng.uniform(-1.0, 1.0, size=d_x)
        gW = rng.uniform(-1.0, 1.0, size=d_w)
        sums = sp.sample_compound_block_sums(x_model, w_model, gX, gW, (1, 2),
                                             1_000_000,
                                             seed=mc.derive_seed(404, 10 * d_x + d_w))
        for m in (1, 2):
            exact = alg.compound_block_moment(x_model, w_model, gX, gW, m)
            S = sums[m]
            se = S.std(ddof=1) / math.sqrt(len(S))
            worst_z = max(worst_z, abs(S.mean() - exact.value) / se)
        product = float(alg.invariant_measure(x_model).pi @ gX) * \
            float(alg.invariant_measure(w_model).pi @ gW)
        first = alg.compound_block_moment(x_model, w_model, gX, gW, 1).value
        worst_fact = max(worst_fact, abs(first - product))
    elapsed = time.perf_counter() - start
    _report(5, worst_z < 4.0 and worst_fact < 1e-12 and elapsed < 180.0,
            f"max |z| = {worst_z:.2f}, factorization dev = {worst_fact:.1e}, {elapsed:.1f}s")


def test_criterion_6_beta_exponent_of_the_walk():
    start = time.perf_counter()
    spec = pr.ProcessSpec(family="INDEP", f=pr.linear())
    sizes = [10_000, 40_000, 160_000]
    log_means = []
    for n in sizes:
        counts = [sp.regeneration_stats(
            sp.simulate_split(spec, n, seed=mc.derive_seed(606, 1000 * k + n))).count
            for k in range(50)]
        log_means.append(math.log(np.mean(counts)))
    slope = float(np.polyfit(np.log(sizes), log_means, 1)[0])
    elapsed = time.perf_counter() - start
    _report(6, 0.40 <= slope <= 0.60 and elapsed < 180.0,
            f"log-log slope of mean regeneration count = {slope:.4f}, {elapsed:.1f}s")


def test_criterion_7_fixed_point_replication():
    start = time.perf_counter()
    spec = pr.ProcessSpec(family="INDEP", f=pr.linear())
    ks = {}
    var800 = None
    guard = {}
    for target in (100, 800):
        proto = mc.CltProtocol(process=spec, mode="fixed_point", reps=1400,
                               base_seed=271828, x_eval=7.5, window=(5.0, 10.0),
                               local_count=target)
        res = mc.run_clt(proto, threads=2)
        assert res.admitted >= 1000, f"only {res.admitted} admitted at target {target}"
        values = res.values[:1000]
        ks[target] = mc.ks_normal(values)
        guard[target] = res.guard_exceeded
        if target == 800:
            var800 = float(values.var(ddof=1))
    elapsed = time.perf_counter() - start
    ok = no_worse(ks[800], ks[100], 1000) and ks[800] <= 0.08 and abs(var800 - 1.0) <= 0.15
    _report(7, ok,
            f"ks(100) = {ks[100]:.4f}, ks(800) = {ks[800]:.4f} (at most ks(100) + "
            f"{mc.ks_critical(1000, ALPHA):.4f}), var(800) = {var800:.3f}, "
            f"guard rejections = {guard}, {elapsed:.0f}s")


def test_criterion_7_stopping_time_heavy_tail():
    """The fixed-point stopping time T of the walk has P(T > t) ~ t^(-1/2),
    the beta = 1/2 null recurrence; guard rejections count as T > 1e6."""
    start = time.perf_counter()
    spec = pr.ProcessSpec(family="INDEP", f=pr.linear())
    proto = mc.CltProtocol(process=spec, mode="fixed_point", reps=1400,
                           base_seed=271828, x_eval=7.5, window=(5.0, 10.0),
                           local_count=100)
    res = mc.run_clt(proto)
    stop = np.array([r.path_length - 1 for r in res.records])
    ts = np.array([1e4, 3e4, 1e5, 3e5, 1e6 - 1])
    survival = np.array([(stop > t).mean() for t in ts])
    slope = float(np.polyfit(np.log(ts), np.log(survival), 1)[0])
    elapsed = time.perf_counter() - start
    _report(7, -0.65 <= slope <= -0.35,
            f"log-log slope of P(T > t) = {slope:.3f}, guard = {res.guard_exceeded}, "
            f"{elapsed:.1f}s")


def test_criterion_8_modal_replication_both_wirings():
    start = time.perf_counter()
    systems = {
        "INDEP": pr.ProcessSpec(family="INDEP", f=pr.linear()),
        "SHARED_INNOVATION": pr.ProcessSpec(family="SHARED_INNOVATION",
                                            f=pr.linear(1.0, -5.0)),
    }
    details = []
    ok = True
    for name, spec in systems.items():
        ks = {}
        sd3000 = m3000 = None
        for n in (500, 1000, 3000):
            proto = mc.CltProtocol(process=spec, mode="modal", reps=1000,
                                   base_seed=271828, n=n)
            res = mc.run_clt(proto, threads=2)
            ks[n] = res.ks_distance
            if n == 3000:
                sd3000, m3000 = res.sd, res.admitted
        ok = ok and ks[3000] <= 0.06 and no_worse(ks[3000], ks[500], m3000) and \
            0.8 <= sd3000 <= 1.2
        details.append(f"{name}: ks500={ks[500]:.4f} ks1000={ks[1000]:.4f} "
                       f"ks3000={ks[3000]:.4f} sd3000={sd3000:.3f}")

    # bit-identical results under a different thread count
    proto = mc.CltProtocol(process=systems["INDEP"], mode="modal", reps=1000,
                           base_seed=271828, n=500)
    serial = mc.run_clt(proto, threads=1)
    threaded = mc.run_clt(proto, threads=2)
    deterministic = np.array_equal(serial.values, threaded.values)
    ok = ok and deterministic
    elapsed = time.perf_counter() - start
    _report(8, ok, "; ".join(details) + f"; threads-invariant={deterministic}, {elapsed:.0f}s")


def test_criterion_9_ar1_cross_moments():
    start = time.perf_counter()
    spec = pr.ProcessSpec(family="AR1_LINKED", a=0.5, b=1.0, sigma_e=1.0)
    reps = 100_000
    snaps = pr.ar1_snapshots(spec, [100, 200, 400], reps, seed=909)
    x200, w200 = snaps[200]
    products = x200 * w200
    theta = pr.theoretical_cross_moment(spec, 200)
    se = products.std(ddof=1) / math.sqrt(reps)
    z = abs(products.mean() - theta) / se

    corrs, _ = pr.empirical_corr_decay(spec, [100, 400], reps, seed=909)
    ratio = corrs[0] / corrs[1]
    elapsed = time.perf_counter() - start
    ok = z < 4.0 and 1.6 <= ratio <= 2.5 and elapsed < 120.0
    _report(9, ok,
            f"theta(200) = {theta:.4f}, MC z = {z:.2f}, corr(100)/corr(400) = {ratio:.3f}, "
            f"{elapsed:.0f}s")


def test_criterion_10_estimator_properties_and_recombination():
    start = time.perf_counter()
    rng = np.random.default_rng(1010)
    worst = 0.0
    for _ in range(1000):
        x = rng.normal(scale=2.0, size=30)
        z = rng.normal(size=30)
        x_eval = float(rng.choice(x))
        h = float(rng.uniform(0.3, 2.0))
        c = float(rng.normal(scale=4.0))
        a = float(rng.normal(scale=3.0))
        b = float(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]))
        base = est.nw_estimate(x, z, x_eval, h).f_hat
        shift = est.nw_estimate(x, z + c, x_eval, h).f_hat
        scale = est.nw_estimate(x, c * z, x_eval, h).f_hat
        affine = est.nw_estimate(a + b * x, z, a + b * x_eval, abs(b) * h).f_hat
        worst = max(worst,
                    abs(shift - (base + c)),
                    abs(scale - c * base) / max(1.0, abs(c)),
                    abs(affine - base))

    trajectories = [
        (sp.simulate_split(TWO_STATE, 10_000, seed=1), np.array([1.0, -0.5])),
        (sp.simulate_split(random_model(np.random.default_rng(6), d=4), 10_000, seed=2),
         np.arange(4.0)),
        (sp.simulate_split(pr.ProcessSpec(
            family="FINITE_PRODUCT", f=pr.linear(), x_chain=TWO_STATE,
            w_chain=random_model(np.random.default_rng(7), d=3)), 10_000, seed=3),
         lambda x, w: x + 0.5 * w),
        (sp.simulate_split(pr.ProcessSpec(family="INDEP", f=pr.linear()),
                           100_000, seed=4), lambda x: np.abs(x)),
        (sp.simulate_split(pr.ProcessSpec(family="SHARED_INNOVATION", f=pr.linear()),
                           50_000, seed=5), lambda x, w: x * w),
    ]
    worst_recomb = 0.0
    for traj, g in trajectories:
        bd = sp.block_sums(traj, g)
        if callable(g):
            if traj.w is not None:
                try:
                    vals = np.asarray(g(traj.x, traj.w), dtype=float)
                except TypeError:
                    vals = np.asarray(g(traj.x), dtype=float)
            else:
                vals = np.asarray(g(traj.x), dtype=float)
        else:
            vals = np.asarray(g, dtype=float)[traj.x]
        direct = float(vals.sum())
        total = bd.u0 + bd.blocks.sum() + bd.tail
        rel = abs(total - direct) / max(1.0, abs(direct))
        worst_recomb = max(worst_recomb, rel)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and worst_recomb < 1e-9 and elapsed < 30.0
    _report(10, ok,
            f"max equivariance dev = {worst:.2e}, max recombination rel dev = "
            f"{worst_recomb:.2e}, {elapsed:.1f}s")
