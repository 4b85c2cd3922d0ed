import math
from bisect import bisect_right
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import nullrec.algebra as alg
import nullrec.splitting as sp
from nullrec.cli import write_trajectory_csv
from nullrec.errors import (InvalidHalfwidth, InvalidSpec, NumericError, SamplingStalled,
                            UnknownProcessFamily)
from nullrec.processes import ProcessSpec, draw_start, generate, linear, step_chain
from tests.conftest import random_model

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def reference_split_path(model, n, rng):
    """Slow reference for the finite split chain: one interleaved pair of
    uniforms per step, state by searching the row's running sum, flag by the
    ratio s(x) nu(y) / p(x, y) computed on the spot."""
    d = model.d
    cum_nu = np.cumsum(model.nu)
    cum_rows = np.cumsum(model.P, axis=1)
    u = rng.random(2 * (n + 1) + 1)
    x = np.empty(n + 2, dtype=np.int64)
    y = np.zeros(n + 1, dtype=np.uint8)
    x[0] = min(np.searchsorted(cum_nu, u[0], side="right"), d - 1)
    k = 1
    for t in range(n + 1):
        xi = x[t]
        xj = min(np.searchsorted(cum_rows[xi], u[k], side="right"), d - 1)
        if u[k + 1] < model.s[xi] * model.nu[xj] / model.P[xi, xj]:
            y[t] = 1
        x[t + 1] = xj
        k += 2
    return x[:n + 1], y


def reference_chain_path(model, uniforms):
    """Slow reference for a finite chain driven by one uniform per step."""
    cum_nu = np.cumsum(model.nu)
    cum_p = np.cumsum(model.P, axis=1)
    idx = np.empty(len(uniforms), dtype=np.int64)
    idx[0] = np.searchsorted(cum_nu, uniforms[0], side="right")
    for t in range(len(uniforms) - 1):
        idx[t + 1] = np.searchsorted(cum_p[idx[t]], uniforms[t + 1], side="right")
    return np.minimum(idx, model.d - 1)


# The lockstep samplers as they were before the live state was compacted:
# each round gathers x[alive] and scatters back into full-length arrays.  The
# samplers must reproduce them bit for bit.

def reference_draw_step(model, states, u):
    nxt = np.zeros_like(states)
    for j in range(model.d - 1):
        nxt += model.cum_P[states, j] <= u
    return nxt


def reference_sample_blocks(model, g, n_blocks, seed):
    g = np.asarray(g, dtype=float)
    rng = np.random.default_rng(seed)
    x = draw_start(model, rng.random(n_blocks))
    U = g[x].astype(float)
    L = np.ones(n_blocks, dtype=np.int64)
    alive = np.arange(n_blocks)
    while alive.size:
        xa = x[alive]
        nx = reference_draw_step(model, xa, rng.random(alive.size))
        survive = rng.random(alive.size) >= model.R[xa, nx]
        keep = alive[survive]
        nxs = nx[survive]
        x[keep] = nxs
        U[keep] += g[nxs]
        L[keep] += 1
        alive = keep
    return U, L


def reference_compound_block_sums(x_model, w_model, gX, gW, orders, n_blocks, seed):
    gX = np.asarray(gX, dtype=float)
    gW = np.asarray(gW, dtype=float)
    rng = np.random.default_rng(seed)
    x = draw_start(x_model, rng.random(n_blocks))
    w = draw_start(w_model, rng.random(n_blocks))
    V = gX[x] * gW[w]
    S = {m: np.zeros(n_blocks) for m in orders}
    alive = np.arange(n_blocks)
    while alive.size:
        xa, wa = x[alive], w[alive]
        nx = reference_draw_step(x_model, xa, rng.random(alive.size))
        nw = reference_draw_step(w_model, wa, rng.random(alive.size))
        y1 = rng.random(alive.size) < x_model.R[xa, nx]
        y2 = rng.random(alive.size) < w_model.R[wa, nw]
        sub_end = alive[y1]
        for m in orders:
            S[m][sub_end] += V[sub_end] ** m
        keep_mask = ~(y1 & y2)
        keep = alive[keep_mask]
        nxs, nws = nx[keep_mask], nw[keep_mask]
        x[keep] = nxs
        w[keep] = nws
        step_val = gX[nxs] * gW[nws]
        V[keep] = np.where(y1[keep_mask], step_val, V[keep] + step_val)
        alive = keep
    return S


def reference_embedded_counts(x_model, w_model, n_pairs, seed):
    k = sp._EMBEDDED_REPLICAS
    rng = np.random.default_rng(seed)
    x = draw_start(x_model, rng.random(k))
    w = draw_start(w_model, rng.random(k))
    last_w = np.full(k, -1, dtype=np.int64)
    counts = np.zeros((w_model.d, w_model.d), dtype=np.int64)
    total = 0
    while total < n_pairs:
        nx = reference_draw_step(x_model, x, rng.random(k))
        y1 = rng.random(k) < x_model.R[x, nx]
        nw = reference_draw_step(w_model, w, rng.random(k))
        hit = np.flatnonzero(y1)
        prev, cur = last_w[hit], w[hit]
        valid = prev >= 0
        np.add.at(counts, (prev[valid], cur[valid]), 1)
        total += int(valid.sum())
        last_w[hit] = cur
        x, w = nx, nw
    return counts


def reference_walk_flags(x_ext, u, atom):
    """Walk regeneration flags with the split ratio evaluated at every step."""
    in_c = (x_ext >= atom.lo) & (x_ext <= atom.hi)
    dx = x_ext[1:] - x_ext[:-1]
    ratio = np.where(in_c[:-1] & in_c[1:], atom.s_level * atom.nu_density / sp._norm_pdf(dx),
                     0.0)
    return (u < ratio).astype(np.uint8)


def two_sample_ks(a, b):
    data = np.concatenate([a, b])
    order = np.argsort(data, kind="mergesort")
    which = np.concatenate([np.zeros(len(a)), np.ones(len(b))])[order]
    cdf_a = np.cumsum(which == 0) / len(a)
    cdf_b = np.cumsum(which == 1) / len(b)
    data_sorted = data[order]
    group_end = np.append(data_sorted[1:] != data_sorted[:-1], True)
    return float(np.abs(cdf_a - cdf_b)[group_end].max())


class TestGaussianWalkAtom:
    def test_halfwidth_half_level(self):
        atom = sp.gaussian_rw_atom(0.5)
        # phi(1) computed independently of the module's pdf helper
        phi1 = math.exp(-0.5) / math.sqrt(2.0 * math.pi)
        assert atom.s_level == pytest.approx(phi1, abs=1e-15)
        assert atom.s_level == pytest.approx(0.24197072451914337, abs=1e-12)
        assert (atom.lo, atom.hi) == (-0.5, 0.5)

    def test_shrinking_halfwidth_shrinks_regeneration_rate(self):
        assert sp.gaussian_rw_atom(0.05).s_level < sp.gaussian_rw_atom(0.5).s_level

    def test_invalid_halfwidth(self):
        for hw in (0.0, -0.3, 1.5):
            with pytest.raises(InvalidHalfwidth):
                sp.gaussian_rw_atom(hw)

    def test_pointwise_inequality_on_grid(self):
        atom = sp.gaussian_rw_atom(0.5)
        grid = np.linspace(atom.lo, atom.hi, 100)
        diffs = grid[None, :] - grid[:, None]
        dens = np.exp(-0.5 * diffs ** 2) / math.sqrt(2.0 * math.pi)
        assert atom.s_level * atom.nu_density <= dens.min() + 1e-15


class TestSimulateSplit:
    def test_full_regeneration_model(self):
        model = alg.FiniteMarkovModel(states=(0, 1), P=[[0.3, 0.7], [0.3, 0.7]],
                                      s=[1.0, 1.0], nu=[0.3, 0.7])
        traj = sp.simulate_split(model, 50, seed=1)
        assert traj.y.all()
        np.testing.assert_array_equal(traj.tau, np.arange(51))

    def test_two_state_regeneration_rate(self, two_state):
        n = 1_000_000
        traj = sp.simulate_split(two_state, n, seed=42)
        rate = sp.regeneration_stats(traj).count / n
        assert abs(rate - 0.5) < 0.01

    def test_determinism(self, two_state):
        a = sp.simulate_split(two_state, 5000, seed=9)
        b = sp.simulate_split(two_state, 5000, seed=9)
        c = sp.simulate_split(two_state, 5000, seed=10)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
        assert not np.array_equal(a.y, c.y)

    def test_walk_determinism(self):
        spec = ProcessSpec(family="INDEP", f=linear())
        a = sp.simulate_split(spec, 20_000, seed=5)
        b = sp.simulate_split(spec, 20_000, seed=5)
        c = sp.simulate_split(spec, 20_000, seed=6)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
        assert not np.array_equal(a.x, c.x)

    def test_walk_rides_on_generates_path_without_its_response(self):
        # x and w (8 bytes per row each), y (1), the flags' uniforms (8) and
        # the atom masks stay under 28 bytes per row; generate's z would add 8.
        import tracemalloc

        spec, n = ProcessSpec(family="INDEP", f=linear()), 1_000_000
        tracemalloc.start()
        try:
            traj = sp.simulate_split(spec, n, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 28 * n
        path = generate(spec, n + 1, 7)
        assert np.array_equal(traj.x, path.x[:n + 1]) and np.array_equal(traj.w, path.w[:n + 1])

    def test_finite_chain_steps_block_by_block(self):
        # x (8 bytes per row), y (1), tau (8 per regeneration, about 0.3 per
        # row here) and one block's draws and step lists come to 11.4 bytes
        # per row at n = 1e6 with blocks of _STREAM_BLOCK = 8192 rows, and to
        # 13.8 with 65536-row blocks; all 2n + 3 uniforms at once would add 16.
        import tracemalloc

        model, n = alg.load_model(CONFIGS / "threestate.json"), 1_000_000
        tracemalloc.start()
        try:
            sp.simulate_split(model, n, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12.5 * n

    def test_walk_flags_only_inside_atom_set(self):
        spec = ProcessSpec(family="INDEP", f=linear(), halfwidth=0.5)
        traj = sp.simulate_split(spec, 100_000, seed=3)
        assert len(traj.tau) > 0
        assert np.all(np.abs(traj.x[traj.tau]) <= 0.5)

    def test_per_state_regeneration_frequency(self):
        model = random_model(np.random.default_rng(14), d=3)
        traj = sp.simulate_split(model, 200_000, seed=21)
        for i in range(3):
            visits = traj.x == i
            n_i = int(visits.sum())
            freq = float(traj.y[visits].mean())
            se = math.sqrt(model.s[i] * (1 - model.s[i]) / n_i)
            assert abs(freq - model.s[i]) < 4 * se + 1e-12

    def test_unknown_process(self):
        with pytest.raises(UnknownProcessFamily):
            sp.simulate_split("not a process", 10, seed=0)

    def test_product_compound_flags(self, two_state):
        wm = random_model(np.random.default_rng(2), d=3)
        spec = ProcessSpec(family="FINITE_PRODUCT", f=linear(), x_chain=two_state,
                           w_chain=wm)
        traj = sp.simulate_split(spec, 20_000, seed=8)
        assert traj.w is not None
        np.testing.assert_array_equal(traj.y, traj.y_x & traj.y_w)
        np.testing.assert_array_equal(traj.tau, np.flatnonzero(traj.y))


class TestStepperAgainstSlowReference:
    SEEDS = (0, 1, 9, 123)

    def _chains(self):
        yield alg.load_model(CONFIGS / "threestate.json")
        yield alg.load_model(CONFIGS / "twostate.json")
        yield random_model(np.random.default_rng(50), d=50)

    def test_finite_split_chain(self):
        for model in self._chains():
            for seed in self.SEEDS:
                traj = sp.simulate_split(model, 3000, seed)
                x, y = reference_split_path(model, 3000, np.random.default_rng(seed))
                np.testing.assert_array_equal(traj.x, x)
                np.testing.assert_array_equal(traj.y, y)

    def test_long_path_spans_several_chunks(self):
        model = alg.load_model(CONFIGS / "threestate.json")
        traj = sp.simulate_split(model, 150_000, 5)
        x, y = reference_split_path(model, 150_000, np.random.default_rng(5))
        np.testing.assert_array_equal(traj.x, x)
        np.testing.assert_array_equal(traj.y, y)

    def test_product_split_chain(self):
        chains = list(self._chains())
        for x_chain, w_chain in ((chains[0], chains[1]), (chains[2], chains[0])):
            spec = ProcessSpec(family="FINITE_PRODUCT", f=linear(), x_chain=x_chain,
                               w_chain=w_chain)
            for seed in self.SEEDS:
                traj = sp.simulate_split(spec, 2000, seed)
                rng = np.random.default_rng(seed)
                x, y_x = reference_split_path(x_chain, 2000, rng)
                w, y_w = reference_split_path(w_chain, 2000, rng)
                for got, want in ((traj.x, x), (traj.w, w), (traj.y_x, y_x), (traj.y_w, y_w)):
                    np.testing.assert_array_equal(got, want)

    def test_generate_finite_product(self):
        chains = list(self._chains())
        spec = ProcessSpec(family="FINITE_PRODUCT", f=linear(1.0, 0.5), x_chain=chains[2],
                           w_chain=chains[0])
        for seed in self.SEEDS:
            path = generate(spec, 2000, seed)
            U = np.random.default_rng(seed).random((2001, 2))
            xi = reference_chain_path(spec.x_chain, U[:, 0])
            wi = reference_chain_path(spec.w_chain, U[:, 1])
            np.testing.assert_array_equal(path.x, spec.x_chain.state_values()[xi])
            np.testing.assert_array_equal(path.w, spec.w_chain.state_values()[wi])


class TestTableRounding:
    """Row 0 sums to 0.9999999999999999 in floating point, so a uniform just
    below 1 must still select its last positive-probability state; row 1
    starts with a zero-probability state that a zero uniform must skip."""

    P = np.array([[0.7, 0.2, 0.1, 0.0], [0.0, 0.5, 0.5, 0.0],
                  [0.25, 0.25, 0.25, 0.25], [1.0, 0.0, 0.0, 0.0]])

    def _started_at(self, state):
        nu = np.eye(4)[state]
        return alg.FiniteMarkovModel(states=(0, 1, 2, 3), P=self.P, s=np.zeros(4), nu=nu)

    def test_top_uniform_stays_on_support(self):
        model = self._started_at(0)
        u = np.nextafter(1.0, 0.0)
        assert step_chain(model, 0, np.array([u]))[1] == 2
        assert sp._draw_step(model, np.array([0]), np.array([u]))[0] == 2

    def test_stepper_and_lockstep_draw_agree(self):
        table = self._started_at(0).cum_P.ravel()
        grid = np.concatenate([table, np.nextafter(table, 0.0), np.linspace(0.0, 1.0, 101)])
        grid = grid[grid < 1.0]
        for state in range(4):
            model = self._started_at(state)
            seq = [step_chain(model, state, np.array([u]))[1] for u in grid]
            lock = sp._draw_step(model, np.full(len(grid), state), grid)
            np.testing.assert_array_equal(lock, seq)
            assert (self.P[state, lock] > 0.0).all()

    def test_start_draw_follows_the_stepper_rule(self):
        for row in self.P:
            model = alg.FiniteMarkovModel(states=(0, 1, 2, 3), P=self.P, s=np.zeros(4), nu=row)
            table = model.cum_nu
            grid = np.concatenate([table, np.nextafter(table, 0.0), np.linspace(0.0, 1.0, 101)])
            grid = grid[grid < 1.0]
            drawn = draw_start(model, grid)
            np.testing.assert_array_equal(drawn, [bisect_right(table.tolist(), u) for u in grid])
            assert (row[drawn] > 0.0).all()


class TestRegenerationStats:
    def _traj(self, y):
        y = np.asarray(y, dtype=np.uint8)
        return sp.SplitTrajectory(x=np.zeros(len(y), dtype=np.int64), y=y,
                                  tau=np.flatnonzero(y), seed=0, states=(0,))

    def test_no_regenerations(self):
        stats = sp.regeneration_stats(self._traj([0, 0, 0, 0]))
        assert stats.count == 0
        assert stats.tau.size == 0 and stats.lengths.size == 0

    def test_all_ones(self):
        stats = sp.regeneration_stats(self._traj([1, 1, 1]))
        assert stats.count == 3
        np.testing.assert_array_equal(stats.tau, [0, 1, 2])
        np.testing.assert_array_equal(stats.lengths, [1, 1, 1])

    def test_lengths_use_minus_one_origin(self):
        stats = sp.regeneration_stats(self._traj([0, 0, 1, 0, 1]))
        np.testing.assert_array_equal(stats.tau, [2, 4])
        np.testing.assert_array_equal(stats.lengths, [3, 2])


class TestOccupation:
    def test_whole_space_and_empty(self, two_state):
        traj = sp.simulate_split(two_state, 999, seed=0)
        assert sp.occupation_count(traj, [0, 1]) == 1000
        assert sp.occupation_count(traj, []) == 0

    def test_members_are_labels_first_then_indices(self):
        # 0 and 1 are both labels and indices here; as labels they mean the
        # states at indices 1 and 2.  2 is no label, so it is an index.
        model = alg.FiniteMarkovModel(states=(5, 0, 1),
                                      P=[[0.2, 0.5, 0.3], [0.4, 0.4, 0.2], [0.3, 0.3, 0.4]],
                                      s=[0.4, 0.4, 0.4], nu=[0.3, 0.3, 0.4])
        traj = sp.simulate_split(model, 2999, seed=5)
        visits = np.bincount(traj.x, minlength=3)
        assert sp.occupation_count(traj, [0]) == visits[1]
        assert sp.occupation_count(traj, [5]) == visits[0]
        assert sp.occupation_count(traj, [0, 1]) == visits[1] + visits[2]
        assert sp.occupation_count(traj, [2]) == visits[2]
        assert sp.occupation_count(traj, [5, 0, 1]) == 3000

    def test_continuous_interval(self):
        spec = ProcessSpec(family="INDEP", f=linear())
        traj = sp.simulate_split(spec, 10_000, seed=2)
        assert sp.occupation_count(traj, (-math.inf, math.inf)) == 10_001
        direct = int(((traj.x >= -1) & (traj.x <= 1)).sum())
        assert sp.occupation_count(traj, (-1.0, 1.0)) == direct

    def test_visits_per_regeneration_converge_to_invariant_mass(self, two_state):
        # T_C(n)/T(n) estimates pi 1_C (the invariant measure gives each
        # state mass 1 here); per step, state 0 holds half the time.
        n = 1_000_000
        traj = sp.simulate_split(two_state, n, seed=33)
        t_c = sp.occupation_count(traj, [0])
        t_n = sp.regeneration_stats(traj).count
        pi_mass = float(alg.invariant_measure(two_state).pi[0])
        assert pi_mass == pytest.approx(1.0, abs=1e-12)
        assert abs(t_c / t_n - pi_mass) < 0.01
        assert abs(t_c / (n + 1) - 0.5) < 0.01


class TestBlockSums:
    def test_counting_function_gives_lengths(self, two_state):
        traj = sp.simulate_split(two_state, 5000, seed=4)
        bd = sp.block_sums(traj, np.array([1.0, 1.0]))
        stats = sp.regeneration_stats(traj)
        assert bd.u0 == stats.lengths[0]
        np.testing.assert_array_equal(bd.blocks, stats.lengths[1:])

    def test_zero_function(self, two_state):
        traj = sp.simulate_split(two_state, 1000, seed=4)
        bd = sp.block_sums(traj, np.zeros(2))
        assert bd.u0 == 0.0 and bd.tail == 0.0 and not bd.blocks.any()

    def test_array_g_needs_a_finite_chain(self):
        traj = sp.simulate_split(ProcessSpec(family="INDEP", f=linear()), 100, seed=4)
        with pytest.raises(ValueError, match="finite-state"):
            sp.block_sums(traj, np.ones(2))

    @given(st.integers(0, 1000))
    def test_recombination(self, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng)
        traj = sp.simulate_split(model, 400, seed=seed)
        g = rng.normal(size=model.d)
        bd = sp.block_sums(traj, g)
        direct = float(g[traj.x].sum())
        total = bd.u0 + bd.blocks.sum() + bd.tail
        assert total == pytest.approx(direct, rel=1e-9, abs=1e-9)

    def test_recombination_no_regenerations(self):
        traj = sp.SplitTrajectory(x=np.array([0, 1, 0]), y=np.zeros(3, dtype=np.uint8),
                                  tau=np.array([], dtype=np.int64), seed=0, states=(0, 1))
        bd = sp.block_sums(traj, np.array([2.0, 3.0]))
        assert bd.u0 == 7.0 and bd.blocks.size == 0 and bd.tail == 0.0

    def test_callable_on_walk_with_disturbance(self):
        spec = ProcessSpec(family="SHARED_INNOVATION", f=linear())
        traj = sp.simulate_split(spec, 5000, seed=6)
        bd = sp.block_sums(traj, lambda x, w: x * w)
        direct = float((traj.x * traj.w).sum())
        assert bd.u0 + bd.blocks.sum() + bd.tail == pytest.approx(direct, rel=1e-9)

    def test_two_argument_callable_errors_propagate(self):
        traj = sp.simulate_split(ProcessSpec(family="SHARED_INNOVATION", f=linear()), 200, 6)

        def broken(x, w):
            raise TypeError("bug inside g")

        with pytest.raises(TypeError, match="bug inside g"):
            sp.block_sums(traj, broken)

    def test_callable_arity_picks_the_call(self):
        traj = sp.simulate_split(ProcessSpec(family="SHARED_INNOVATION", f=linear()), 300, 8)
        cases = [(lambda x: 2.0 * x, 2.0 * traj.x),
                 (lambda x, *rest: x - rest[0], traj.x - traj.w),
                 (np.abs, np.abs(traj.x)),
                 (np.add, traj.x + traj.w)]
        for g, vals in cases:
            bd = sp.block_sums(traj, g)
            assert bd.u0 + bd.blocks.sum() + bd.tail == pytest.approx(vals.sum(), rel=1e-9)

    def test_block_sample_moments_match_algebra(self, two_state):
        # ~1e5 blocks from one long trajectory
        traj = sp.simulate_split(two_state, 200_000, seed=13)
        bd = sp.block_sums(traj, np.array([1.0, 0.0]))
        mu, sigma2 = alg.block_mean_variance(two_state, [1.0, 0.0])
        u = bd.blocks
        n = len(u)
        se_mean = u.std(ddof=1) / math.sqrt(n)
        assert abs(u.mean() - mu) < 4 * se_mean
        m4 = ((u - u.mean()) ** 4).mean()
        se_var = math.sqrt((m4 - u.var(ddof=1) ** 2) / n)
        assert abs(u.var(ddof=1) - sigma2) < 4 * se_var

    def test_block_exchangeability_halves(self, two_state):
        traj = sp.simulate_split(two_state, 20_000, seed=17)
        bd = sp.block_sums(traj, np.array([1.0, 0.0]))
        u = bd.blocks
        lengths = bd.lengths[1:]
        assert len(u) >= 9000
        half = len(u) // 2
        crit = 1.95 * math.sqrt(2.0 / half)  # two-sample KS at level 0.001
        assert two_sample_ks(u[:half], u[half:2 * half]) < crit
        assert two_sample_ks(lengths[:half], lengths[half:2 * half]) < crit


class TestVectorizedSamplers:
    def test_sample_blocks_matches_trajectory_law(self, two_state):
        U, L = sp.sample_blocks(two_state, np.array([1.0, 0.0]), 100_000, seed=3)
        mu, sigma2 = alg.block_mean_variance(two_state, [1.0, 0.0])
        se = U.std(ddof=1) / math.sqrt(len(U))
        assert abs(U.mean() - mu) < 4 * se
        # block length is Geometric(1/2)
        se_l = L.std(ddof=1) / math.sqrt(len(L))
        assert abs(L.mean() - 2.0) < 4 * se_l

    def test_embedded_counts_match_transition(self, two_state):
        wm = random_model(np.random.default_rng(2), d=3)
        counts = sp.sample_embedded_counts(two_state, wm, 200_000, seed=7)
        emp = counts / counts.sum(axis=1, keepdims=True)
        exact = alg.embedded_transition(two_state, wm).entries
        assert np.abs(emp - exact).max() < 0.012

    @pytest.mark.parametrize("sampler, cap", [
        (lambda m: sp.sample_blocks(m, [1.0, 0.0], 100, seed=1), "_MAX_BLOCK_ROUNDS"),
        (lambda m: sp.sample_compound_block_sums(m, m, [1.0, 0.0], [1.0, 1.0], (1, 2), 100,
                                                 seed=1), "_MAX_BLOCK_ROUNDS"),
        (lambda m: sp.sample_embedded_counts(m, m, 10**9, seed=1), "_MAX_EMBEDDED_ROUNDS"),
    ])
    def test_round_cap_raises_sampling_stalled(self, two_state, monkeypatch, sampler, cap):
        monkeypatch.setattr(sp, cap, 1)
        with pytest.raises(SamplingStalled):
            sampler(two_state)
        assert issubclass(SamplingStalled, NumericError)


class TestSamplerArguments:
    @pytest.mark.parametrize("d", [2, 5])
    def test_g_of_wrong_length(self, d):
        three = alg.load_model(CONFIGS / "threestate.json")
        g = np.ones(d)
        with pytest.raises(ValueError, match="g must have length 3"):
            sp.sample_blocks(three, g, 10, seed=0)
        with pytest.raises(ValueError, match="gX must have length 3"):
            sp.sample_compound_block_sums(three, three, g, np.ones(3), (1,), 10, seed=0)
        with pytest.raises(ValueError, match="gW must have length 3"):
            sp.sample_compound_block_sums(three, three, np.ones(3), g, (1,), 10, seed=0)

    # 2**31 + 1 is rejected before anything is allocated.
    @pytest.mark.parametrize("n_blocks", [-1, 2 ** 31 + 1])
    def test_block_count_out_of_range(self, two_state, n_blocks):
        with pytest.raises(InvalidSpec, match="n_blocks"):
            sp.sample_blocks(two_state, [1.0, 0.0], n_blocks, seed=0)
        with pytest.raises(InvalidSpec, match="n_blocks"):
            sp.sample_compound_block_sums(two_state, two_state, [1.0, 0.0], [1.0, 1.0], (1,),
                                          n_blocks, seed=0)

    def test_negative_pair_count(self, two_state):
        with pytest.raises(InvalidSpec, match="n_pairs"):
            sp.sample_embedded_counts(two_state, two_state, -1, seed=0)

    def test_no_blocks(self, two_state):
        U, L = sp.sample_blocks(two_state, [1.0, 0.0], 0, seed=0)
        assert U.shape == L.shape == (0,) and L.dtype == np.int64
        S = sp.sample_compound_block_sums(two_state, two_state, [1.0, 0.0], [1.0, 1.0], (1, 2),
                                          0, seed=0)
        assert all(S[m].shape == (0,) for m in (1, 2))


class TestSamplerMemory:
    """Working memory of the lockstep samplers at 1e6 blocks, beyond their
    outputs (8 bytes per block for U, L and each order's sums).  Per block,
    the live state is 16 bytes for sample_blocks (int32 block index and
    state, float64 sum) and 20 for the compound sampler (int32 block index
    and two states, float64 V).  One step draws 29 bytes: its uniform, the
    states cast to intp and one table column (8 each), a bool and the int32
    next state.  The compound sampler holds the X step's next state while it
    draws the W step.  That is 16 + 29 = 45 bytes per block and
    20 + 4 + 29 = 53; the bounds allow 3 bytes per block more."""

    N = 1_000_000

    @staticmethod
    def _peak(fn, *args):
        import tracemalloc

        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_sample_blocks(self):
        three = alg.load_model(CONFIGS / "threestate.json")
        peak = self._peak(sp.sample_blocks, three, [1.0, -1.0, 2.0], self.N, 5)
        assert peak - 16 * self.N < 48 * self.N

    def test_compound_block_sums(self):
        two = alg.load_model(CONFIGS / "twostate.json")
        three = alg.load_model(CONFIGS / "threestate.json")
        peak = self._peak(sp.sample_compound_block_sums, two, three, [0.5, -1.0],
                          [1.0, 0.25, -0.75], (1, 2), self.N, 6)
        assert peak - 16 * self.N < 56 * self.N


class TestSamplersAgainstSlowReference:
    """The compacted lockstep samplers against the gather/scatter references:
    same uniforms in the same order, so every output is bit-identical."""

    @staticmethod
    def _chains():
        rng = np.random.default_rng(61)
        # Zero entries in P (row 0 also sums to 0.9999999999999999) repeat
        # values along rows of the cumulative table, and nu = e_2 leaves three
        # columns of R zero.
        P = [[0.7, 0.2, 0.1, 0.0], [0.0, 0.5, 0.5, 0.0],
             [0.25, 0.25, 0.25, 0.25], [1.0, 0.0, 0.0, 0.0]]
        return {
            "threestate": alg.load_model(CONFIGS / "threestate.json"),
            "twostate": alg.load_model(CONFIGS / "twostate.json"),
            "d50": random_model(rng, d=50),
            "d300": random_model(rng, d=300),
            "zeros": alg.FiniteMarkovModel(states=(0, 1, 2, 3), P=P, s=[0.1, 0.5, 0.25, 0.0],
                                           nu=[0.0, 0.0, 1.0, 0.0]),
        }

    # Blocks per run beyond the single-block case: the wide chains cost the
    # references a column pass per state, so they get fewer.
    MANY = {"threestate": 100_000, "twostate": 100_000, "zeros": 100_000, "d50": 10_000,
            "d300": 500}

    @pytest.mark.parametrize("many", [False, True])
    def test_sample_blocks(self, many):
        for name, model in self._chains().items():
            n_blocks = self.MANY[name] if many else 1
            g = np.random.default_rng(model.d).normal(size=model.d)
            for seed in (0, 17):
                got = sp.sample_blocks(model, g, n_blocks, seed)
                want = reference_sample_blocks(model, g, n_blocks, seed)
                for a, b in zip(got, want):
                    assert a.dtype == b.dtype
                    assert np.array_equal(a, b), name

    @pytest.mark.parametrize("many", [False, True])
    @pytest.mark.parametrize("x_name, w_name", [
        ("twostate", "threestate"), ("threestate", "twostate"), ("d50", "zeros"),
        ("d300", "twostate"),
    ])
    def test_compound_block_sums(self, x_name, w_name, many):
        chains = self._chains()
        x_model, w_model = chains[x_name], chains[w_name]
        n_blocks = min(self.MANY[x_name], self.MANY[w_name]) if many else 1
        rng = np.random.default_rng(3)
        gX, gW = rng.uniform(-1, 1, x_model.d), rng.uniform(-1, 1, w_model.d)
        gX[0] = 0.0  # zero (and signed-zero) products in V
        for seed in (0, 17):
            got = sp.sample_compound_block_sums(x_model, w_model, gX, gW, (1, 2, 3), n_blocks,
                                                seed)
            want = reference_compound_block_sums(x_model, w_model, gX, gW, (1, 2, 3), n_blocks,
                                                 seed)
            assert sorted(got) == [1, 2, 3]
            for m in (1, 2, 3):
                assert np.array_equal(got[m], want[m]), m

    @pytest.mark.parametrize("x_name, w_name", [
        ("twostate", "threestate"), ("threestate", "twostate"), ("zeros", "d50"),
    ])
    def test_embedded_counts(self, x_name, w_name):
        chains = self._chains()
        got = sp.sample_embedded_counts(chains[x_name], chains[w_name], 50_000, seed=5)
        want = reference_embedded_counts(chains[x_name], chains[w_name], 50_000, seed=5)
        assert np.array_equal(got, want)

    def test_draw_step_on_every_state(self):
        for name, model in self._chains().items():
            u = np.random.default_rng(8).random(5000)
            states = np.arange(5000) % model.d
            assert np.array_equal(sp._draw_step(model, states, u),
                                  reference_draw_step(model, states, u)), name

    @pytest.mark.parametrize("halfwidth, seed", [(0.5, 3), (0.05, 4), (1.0, 5)])
    def test_walk_flags(self, halfwidth, seed):
        spec = ProcessSpec(family="AR1_LINKED", a=0.3, halfwidth=halfwidth)
        traj = sp.simulate_split(spec, 50_000, seed)
        x_ext = generate(spec, 50_001, seed).x
        # The flags read stream [seed mod 2**32, seed div 2**32, 1].
        u = np.random.default_rng([seed, 0, 1]).random(50_001)
        want = reference_walk_flags(x_ext, u, sp.gaussian_rw_atom(halfwidth))
        assert want.any()
        assert np.array_equal(traj.y, want) and traj.y.dtype == want.dtype


class TestTrajectoryCsv:
    def test_columns_and_empty_w(self, two_state, tmp_path):
        traj = sp.simulate_split(two_state, 5, seed=1)
        out = tmp_path / "traj.csv"
        write_trajectory_csv(traj, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,x,w,y"
        assert len(lines) == 7
        first = lines[1].split(",")
        assert first[0] == "0" and first[2] == ""
