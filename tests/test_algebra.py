import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import nullrec.algebra as alg
from nullrec.errors import (
    InvalidSpec,
    MinorizationViolated,
    NotIrreducible,
    NotStochastic,
    OrderTooLarge,
    SeriesDiverges,
    TruncationInsufficient,
)
from tests.conftest import random_model


def geometric_binomial_moment(m, k_max=300):
    """Closed-form oracle for the symmetric two-state chain with s = nu =
    (1/2, 1/2): block length Geometric(1/2), visits to state 0 Binomial(L, 1/2)."""
    total = 0.0
    for length in range(1, k_max + 1):
        p_len = 0.5 ** length
        e_cond = sum(math.comb(length, u) * 0.5 ** length * u ** m
                     for u in range(length + 1))
        total += p_len * e_cond
    return total


def fundamental_kernel_series(H, tol=1e-10, max_terms=1_000_000):
    """The slow reference for alg.fundamental_kernel: G by the truncated power
    series sum_l H^l, stopped when the sup-norm increment is below tol."""
    Hm = np.asarray(H, dtype=float)
    d = Hm.shape[0]
    term = np.eye(d)
    G = np.eye(d)
    for _ in range(max_terms):
        term = term @ Hm
        G += term
        sup = np.abs(term).max()
        if sup < tol:
            return alg.KernelMatrix(G, tail_bound=sup)
        if not np.isfinite(sup) or sup > 1e12:
            break
    raise SeriesDiverges("power series for G did not converge")


class TestValidation:
    def test_symmetric_two_state_is_valid(self, two_state):
        alg.validate_atom(two_state)

    def test_minorization_violated(self):
        with pytest.raises(MinorizationViolated):
            alg.FiniteMarkovModel(states=(0, 1), P=[[0.5, 0.5], [0.5, 0.5]],
                                  s=[0.8, 0.8], nu=[0.7, 0.3])

    def test_s_out_of_range(self):
        with pytest.raises(MinorizationViolated):
            alg.FiniteMarkovModel(states=(0, 1), P=[[0.5, 0.5], [0.5, 0.5]],
                                  s=[1.1, 1.1], nu=[0.5, 0.5])

    def test_not_irreducible(self):
        with pytest.raises(NotIrreducible) as exc:
            alg.FiniteMarkovModel(states=(0, 1), P=[[1.0, 0.0], [0.0, 1.0]],
                                  s=[0.0, 0.0], nu=[0.5, 0.5])
        assert exc.value.outside == [1]

    @staticmethod
    def ring_model(d, exits=()):
        """The deterministic cycle 0 -> 1 -> ... -> d-1 -> 0, with each
        (i, j, p) in `exits` moving mass p of row i from its successor to j;
        the atom is s = 1_0, nu = 1_1."""
        P = np.roll(np.eye(d), 1, axis=1)
        for i, j, p in exits:
            P[i] *= 1.0 - p
            P[i, j] += p
        return alg.FiniteMarkovModel(states=tuple(range(d)), P=P, s=np.eye(d)[0],
                                     nu=np.eye(d)[1])

    def test_large_ring_validates_quickly(self):
        import time

        start = time.perf_counter()
        model = self.ring_model(1000)
        assert time.perf_counter() - start < 0.5
        assert model.d == 1000

    @pytest.mark.parametrize("exits", [
        [(2, 0, 1.0), (5, 3, 1.0)],  # two closed rings 0-1-2 and 3-4-5
        [(2, 0, 0.5), (5, 3, 1.0)],  # 0-1-2 leads into 3-4-5, which never returns
        [(2, 0, 1.0), (5, 3, 0.5)],  # 3-4-5 leads into 0-1-2, which never leaves
    ])
    def test_not_irreducible_reports_the_states_outside_state_zeros_class(self, exits):
        with pytest.raises(NotIrreducible) as exc:
            self.ring_model(6, exits)
        assert exc.value.outside == [3, 4, 5]
        self.ring_model(6, [(2, 0, 0.5)])  # the rings joined both ways

    def test_not_stochastic(self):
        with pytest.raises(NotStochastic):
            alg.FiniteMarkovModel(states=(0, 1), P=[[0.5, 0.4], [0.5, 0.5]],
                                  s=[0.1, 0.1], nu=[0.5, 0.5])
        with pytest.raises(NotStochastic):
            alg.FiniteMarkovModel(states=(0, 1), P=[[0.5, 0.5], [0.5, 0.5]],
                                  s=[0.1, 0.1], nu=[0.6, 0.6])


class TestTabooKernel:
    def test_symmetric_two_state(self, two_state):
        H = alg.taboo_kernel(two_state)
        np.testing.assert_allclose(H, [[0.25, 0.25], [0.25, 0.25]], atol=1e-15)

    def test_zero_s_gives_P(self, two_state):
        model = alg.FiniteMarkovModel(states=(0, 1), P=two_state.P,
                                      s=[0.0, 0.0], nu=[0.5, 0.5])
        np.testing.assert_array_equal(alg.taboo_kernel(model), model.P)

    def test_full_regeneration_gives_zero(self):
        model = alg.FiniteMarkovModel(states=(0, 1), P=[[0.3, 0.7], [0.3, 0.7]],
                                      s=[1.0, 1.0], nu=[0.3, 0.7])
        np.testing.assert_array_equal(alg.taboo_kernel(model), np.zeros((2, 2)))


class TestFundamentalKernel:
    def test_symmetric_two_state(self, two_state):
        G = alg.fundamental_kernel(alg.taboo_kernel(two_state))
        np.testing.assert_allclose(G.entries, [[1.5, 0.5], [0.5, 1.5]], atol=1e-12)

    def test_zero_taboo_gives_identity(self):
        G = alg.fundamental_kernel(np.zeros((3, 3)))
        np.testing.assert_array_equal(G.entries, np.eye(3))

    def test_series_matches_solve_on_random_models(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            model = random_model(rng, d=4)
            H = alg.taboo_kernel(model)
            solve = alg.fundamental_kernel(H).entries
            series = fundamental_kernel_series(H, tol=1e-13).entries
            assert np.abs(solve - series).max() < 1e-10

    def test_neumann_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            model = random_model(rng)
            H = alg.taboo_kernel(model)
            G = alg.fundamental_kernel(H).entries
            resid = (np.eye(model.d) - H) @ G - np.eye(model.d)
            assert np.abs(resid).max() < 1e-10

    def test_diverges_without_regeneration_mass(self, two_state):
        model = alg.FiniteMarkovModel(states=(0, 1), P=two_state.P,
                                      s=[0.0, 0.0], nu=[0.5, 0.5])
        with pytest.raises(SeriesDiverges):
            alg.fundamental_kernel(alg.taboo_kernel(model))
        with pytest.raises(SeriesDiverges):
            fundamental_kernel_series(alg.taboo_kernel(model), max_terms=2000)

    @pytest.mark.parametrize("eps, accepted", [(1e-4, True), (1e-8, True), (1e-12, False),
                                               (1e-15, False), (0.0, False)])
    def test_near_singular_sweep(self, two_state, eps, accepted):
        # s = (eps, eps): I - H has the eigenvalue eps, and max |G s - 1| grows
        # like rounding / eps until the solve fails at eps = 0.
        model = alg.FiniteMarkovModel(states=(0, 1), P=two_state.P, s=[eps, eps], nu=[0.5, 0.5])
        H = alg.taboo_kernel(model)
        if accepted:
            G = alg.fundamental_kernel(H).entries
            np.testing.assert_allclose(G @ model.s, 1.0, atol=1e-6)
        else:
            with pytest.raises(SeriesDiverges):
                alg.fundamental_kernel(H)

    def test_negative_inverse_raises(self):
        # spectral radius 1.5: I - H is invertible but its inverse is negative
        with pytest.raises(SeriesDiverges):
            alg.fundamental_kernel(np.array([[0.0, 1.5], [1.0, 0.0]]))


class TestInvariantMeasure:
    def test_symmetric_two_state(self, two_state):
        pi = alg.invariant_measure(two_state).pi
        np.testing.assert_allclose(pi, [1.0, 1.0], atol=1e-12)

    def test_doubly_stochastic_uniform(self):
        P = np.array([[0.2, 0.5, 0.3], [0.3, 0.2, 0.5], [0.5, 0.3, 0.2]])
        model = alg.FiniteMarkovModel(states=(0, 1, 2), P=P,
                                      s=[0.3, 0.3, 0.3],
                                      nu=[1 / 3, 1 / 3, 1 / 3])
        pi = alg.invariant_measure(model).pi
        np.testing.assert_allclose(pi, pi[0] * np.ones(3), atol=1e-10)

    @given(st.integers(0, 10_000))
    def test_fixed_point_and_normalization(self, seed):
        model = random_model(np.random.default_rng(seed))
        pi = alg.invariant_measure(model).pi
        assert np.abs(pi @ model.P - pi).max() < 1e-10
        assert abs(pi @ model.s - 1.0) < 1e-10

    @pytest.mark.parametrize("d", [11, 21, 51, 101, 201, 401])
    def test_birth_death_closed_forms(self, d):
        model = birth_death(d)
        assert abs(float(model.pi.sum()) - d) <= 1e-12 * d
        assert np.abs(model.pi @ model.P - model.pi).max() <= 1e-12
        assert np.abs(model.G @ model.s - 1.0).max() <= 1e-10


class TestBlockMeanVariance:
    def test_two_state_matches_geometric_oracle(self, two_state):
        mu, sigma2 = alg.block_mean_variance(two_state, [1.0, 0.0])
        m1 = geometric_binomial_moment(1)
        m2 = geometric_binomial_moment(2)
        assert abs(mu - m1) < 1e-12 and abs(mu - 1.0) < 1e-12
        assert abs(sigma2 - (m2 - m1 ** 2)) < 1e-12 and abs(sigma2 - 1.0) < 1e-12

    def test_zero_function(self, two_state):
        assert alg.block_mean_variance(two_state, [0.0, 0.0]) == (0.0, 0.0)

    def test_constant_reduces_to_block_length(self, two_state):
        c = 3.0
        mu_c, sig_c = alg.block_mean_variance(two_state, [c, c])
        mu_1, sig_1 = alg.block_mean_variance(two_state, [1.0, 1.0])
        assert abs(mu_c - c * mu_1) < 1e-12
        assert abs(sig_c - c * c * sig_1) < 1e-12
        # block length is Geometric(1/2): mean 2, variance 2
        assert abs(mu_1 - 2.0) < 1e-12 and abs(sig_1 - 2.0) < 1e-12


class TestBlockMoment:
    def test_two_state_against_frozen_oracle_values(self, two_state):
        # frozen from geometric_binomial_moment: 1, 2, 5.5, 20
        expected = {1: 1.0, 2: 2.0, 3: 5.5, 4: 20.0}
        g = np.array([1.0, 0.0])
        for m, want in expected.items():
            assert abs(geometric_binomial_moment(m) - want) < 1e-12
            got = alg.block_moment(two_state, alg.BlockMomentRequest(g=g, m=m))
            assert abs(got - want) < 1e-10

    def test_zero_function(self, two_state):
        for m in (1, 2, 5):
            req = alg.BlockMomentRequest(g=np.zeros(2), m=m)
            assert alg.block_moment(two_state, req) == 0.0

    def test_first_moment_is_invariant_mass(self):
        rng = np.random.default_rng(23)
        for _ in range(8):
            model = random_model(rng)
            g = rng.normal(size=model.d)
            got = alg.block_moment(model, alg.BlockMomentRequest(g=g, m=1))
            assert abs(got - alg.invariant_measure(model).pi @ g) < 1e-10

    def test_matches_enumeration_on_small_models(self):
        rng = np.random.default_rng(5)
        for _ in range(4):
            d = int(rng.integers(2, 5))
            model = random_model(rng, d=d, s_low=0.6, s_high=0.9)
            g = rng.uniform(-1.0, 1.0, size=d)
            depth = 50 if d <= 3 else 34
            enum = alg.enumerated_block_moments(model, g, (1, 2, 3, 4), depth=depth)
            for m in (1, 2, 3, 4):
                exact = alg.block_moment(model, alg.BlockMomentRequest(g=g, m=m))
                assert abs(exact - enum[m].value) <= 1e-9 + enum[m].tail_bound

    def test_enumeration_from_state_start(self, two_state):
        g = np.array([1.0, 0.0])
        for start in (0, 1):
            exact = alg.block_moment(two_state, alg.BlockMomentRequest(g=g, m=2, start=start))
            enum = alg.enumerated_block_moments(two_state, g, (2,), start=start, depth=80)[2]
            assert abs(exact - enum.value) <= 1e-10 + enum.tail_bound

    def test_order_cap(self, two_state):
        with pytest.raises(OrderTooLarge):
            alg.BlockMomentRequest(g=np.zeros(2), m=7)
        with pytest.raises(ValueError):
            alg.BlockMomentRequest(g=np.zeros(2), m=0)


class TestWeightedBlockMoment:
    def test_unit_weights_reduce_to_block_moment(self, two_state):
        g = np.array([1.0, 0.0])
        a = np.ones(80)
        for m in (1, 2):
            plain = alg.block_moment(two_state, alg.BlockMomentRequest(g=g, m=m))
            weighted = alg.weighted_block_moment(two_state, a, g, m)
            assert abs(weighted.value - plain) <= 1e-8

    def test_zero_weights(self, two_state):
        res = alg.weighted_block_moment(two_state, np.zeros(40), [1.0, 0.0], 1)
        assert res.value == 0.0

    def test_geometric_weights_two_state(self, two_state):
        # With a_k = 2^{-k}: P(tau >= k) = 2^{-k} and X_k is uniform given
        # survival, so E sum a_k 1{X_k = 0} = sum_k 2^{-k} 2^{-k} / 2 = 2/3.
        a = 0.5 ** np.arange(60)
        oracle = sum(0.5 ** k * 0.5 ** k * 0.5 for k in range(60))
        res = alg.weighted_block_moment(two_state, a, [1.0, 0.0], 1)
        assert abs(oracle - 2.0 / 3.0) < 1e-15
        assert abs(res.value - 2.0 / 3.0) <= 1e-12 + res.tail_bound

    def test_truncation_guard(self, two_state):
        with pytest.raises(TruncationInsufficient):
            alg.weighted_block_moment(two_state, np.ones(6), [1.0, 0.0], 2)


class TestGeneralizedAutocov:
    def test_two_state_lag_zero(self, two_state):
        assert abs(alg.generalized_autocov(two_state, [1.0, 0.0], None, 0) - 1.0) < 1e-12

    def test_two_state_lag_one(self, two_state):
        assert abs(alg.generalized_autocov(two_state, [1.0, 0.0], None, 1)) < 1e-12

    @given(st.integers(0, 10_000), st.integers(0, 4))
    def test_cross_symmetry(self, seed, ell):
        rng = np.random.default_rng(seed)
        model = random_model(rng)
        g = rng.normal(size=model.d)
        f = rng.normal(size=model.d)
        lhs = alg.generalized_autocov(model, g, f, -ell)
        rhs = alg.generalized_autocov(model, f, g, ell)
        assert abs(lhs - rhs) < 1e-12

    def test_matches_scaled_stationary_covariance(self):
        # For mean-zero g, f the generalized covariance is the stationary one
        # divided by the probability-normalized mass of s.
        rng = np.random.default_rng(99)
        model = random_model(rng, d=4)
        pi = alg.invariant_measure(model).pi
        pi_prob = pi / pi.sum()
        for _ in range(3):
            g = rng.normal(size=4)
            g -= (pi @ g) / pi.sum()  # mean-zero under the invariant measure
            f = rng.normal(size=4)
            f -= (pi @ f) / pi.sum()
            c = float(pi_prob @ model.s)
            Pl = np.eye(4)
            for ell in range(4):
                stationary = float((pi_prob * g) @ (Pl @ f))
                generalized = alg.generalized_autocov(model, g, f, ell)
                assert abs(generalized - stationary / c) < 1e-10
                Pl = Pl @ model.P


class TestSigma2Series:
    def test_two_state(self, two_state):
        res = alg.sigma2_from_series(two_state, [1.0, 0.0])
        assert abs(res.value - 1.0) <= 1e-10 + res.tail_bound

    def test_zero_function(self, two_state):
        assert alg.sigma2_from_series(two_state, [0.0, 0.0]).value == 0.0

    def test_matches_block_variance_on_random_models(self):
        rng = np.random.default_rng(31)
        for _ in range(6):
            model = random_model(rng, d=4)
            g = rng.normal(size=4)
            _, sigma2 = alg.block_mean_variance(model, g)
            res = alg.sigma2_from_series(model, g)
            assert abs(res.value - sigma2) <= 1e-8 + res.tail_bound

    @pytest.mark.parametrize("d", [
        11, 51,
        pytest.param(201, marks=pytest.mark.xfail(
            strict=True, reason="the two routes differ by 5.7e-7 on a variance of 1.1e6")),
        pytest.param(401, marks=pytest.mark.xfail(
            strict=True, reason="the two routes differ by 7.5e-7 on a variance of 8.6e6")),
    ])
    def test_matches_block_variance_on_birth_death(self, d):
        # An absolute 1e-8 is beyond double precision once the variance
        # grows like d^3 and cond(I - H) like d^2: no route meets it at d >= 201.
        model = birth_death(d)
        g = np.linspace(-1.0, 1.0, d)
        _, sigma2 = alg.block_mean_variance(model, g)
        res = alg.sigma2_from_series(model, g)
        assert abs(res.value - sigma2) <= 1e-8 + res.tail_bound

    @pytest.mark.parametrize("d", [11, 21, 51, 101, 201, 401])
    def test_relative_agreement_on_birth_death(self, d):
        model = birth_death(d)
        g = np.linspace(-1.0, 1.0, d)
        _, sigma2 = alg.block_mean_variance(model, g)
        res = alg.sigma2_from_series(model, g)
        assert abs(res.value - sigma2) <= 1e-11 * sigma2

    def test_one_solve_at_d_401(self):
        import time

        model = birth_death(401)
        g = np.linspace(-1.0, 1.0, 401)
        model.pi  # build the cached quantities outside the timing
        times = []
        for _ in range(5):
            start = time.perf_counter()
            alg.sigma2_from_series(model, g)
            times.append(time.perf_counter() - start)
        assert min(times) < 0.01

    def test_periodic_chains_give_the_abel_sum(self):
        # gamma(l) does not decay on a chain of period 2; the solve returns
        # the series' Abel sum, which is the block variance.
        models = [(alg.FiniteMarkovModel(states=(0, 1), P=[[0.0, 1.0], [1.0, 0.0]],
                                         s=[0.0, 1.0], nu=[1.0, 0.0]), np.array([1.0, 0.0]))]
        for seed in range(3):
            rng = np.random.default_rng(seed)
            models.append((bipartite_model(rng), rng.normal(size=4)))
        for model, g in models:
            _, sigma2 = alg.block_mean_variance(model, g)
            res = alg.sigma2_from_series(model, g)
            assert abs(res.value - sigma2) <= 1e-12 * sigma2 + 1e-15


class TestEmbeddedTransition:
    def test_every_step_regenerates(self):
        x_model = alg.FiniteMarkovModel(states=(0, 1), P=[[0.3, 0.7], [0.3, 0.7]],
                                        s=[1.0, 1.0], nu=[0.3, 0.7])
        w_model = random_model(np.random.default_rng(2), d=3)
        coeffs = alg.regeneration_gap_coefficients(x_model, 5)
        np.testing.assert_allclose(coeffs, [1.0, 0.0, 0.0, 0.0, 0.0], atol=1e-15)
        P_tilde = alg.embedded_transition(x_model, w_model).entries
        np.testing.assert_allclose(P_tilde, w_model.P, atol=1e-10)

    def test_two_state_driver_against_series_oracle(self, two_state):
        w_model = random_model(np.random.default_rng(3), d=3)
        coeffs = alg.regeneration_gap_coefficients(two_state, 10)
        np.testing.assert_allclose(coeffs, 0.5 ** np.arange(1, 11), atol=1e-14)
        # direct series: Phi = sum_l b_{l+1} P2^l, truncated far past tolerance
        Phi = np.zeros((3, 3))
        Ppow = np.eye(3)
        for ell in range(60):
            Phi += 0.5 ** (ell + 1) * Ppow
            Ppow = Ppow @ w_model.P
        oracle = w_model.P @ Phi
        got = alg.embedded_transition(two_state, w_model).entries
        assert np.abs(got - oracle).max() < 1e-10

    def test_rows_stochastic_and_coefficients_proper(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            xm = random_model(rng)
            wm = random_model(rng)
            result = alg.embedded_transition(xm, wm)
            assert np.abs(result.entries.sum(axis=1) - 1.0).max() < 1e-8
            coeffs = alg.regeneration_gap_coefficients(xm, 200)
            assert coeffs.min() >= 0.0
            assert abs(coeffs.sum() - 1.0) < 1e-8


class TestCompoundBlockMoment:
    def test_first_moment_factorizes(self):
        rng = np.random.default_rng(41)
        xm = random_model(rng, d=2)
        wm = random_model(rng, d=3)
        gX = rng.normal(size=2)
        gW = rng.normal(size=3)
        res = alg.compound_block_moment(xm, wm, gX, gW, 1)
        product = float(alg.invariant_measure(xm).pi @ gX) * \
            float(alg.invariant_measure(wm).pi @ gW)
        assert res.value == pytest.approx(product, abs=1e-12)
        assert res.tail_bound == 0.0

    def test_zero_disturbance_function(self, two_state):
        wm = random_model(np.random.default_rng(4), d=3)
        for m in (1, 2, 3):
            res = alg.compound_block_moment(two_state, wm, [1.0, -1.0], np.zeros(3), m)
            assert abs(res.value) <= res.tail_bound + 1e-15

    def test_second_moment_against_monte_carlo(self, two_state):
        from nullrec.splitting import sample_compound_block_sums
        wm = random_model(np.random.default_rng(8), d=3)
        gX = np.array([1.0, -0.5])
        gW = np.array([0.5, 1.0, -1.0])
        S = sample_compound_block_sums(two_state, wm, gX, gW, (2,), 200_000, seed=12)[2]
        exact = alg.compound_block_moment(two_state, wm, gX, gW, 2)
        se = S.std(ddof=1) / math.sqrt(len(S))
        assert abs(S.mean() - exact.value) < 5 * se + exact.tail_bound

    def test_order_cap(self, two_state):
        with pytest.raises(OrderTooLarge):
            alg.compound_block_moment(two_state, two_state, [1, 0], [1, 0], 4)


# --- slow references for the block-moment tails -------------------------------
# The walks the algebra used before it closed these tails through G: they step
# H until a mass underflows, then sum everything past the truncation point.

def reference_survival_masses(model, start, floor=1e-250, cap=500_000):
    """mass[j] = P_start(no regeneration in the first j transitions),
    computed exactly until it underflows."""
    u = model.nu if start == "nu" else np.eye(model.d)[start]
    masses = [1.0]
    for _ in range(cap):
        u = u @ model.H
        masses.append(float(u.sum()))
        if masses[-1] < floor:
            return np.array(masses)
    raise TruncationInsufficient(masses[-1], floor)


def weighted_value_and_tail(model, a, g, m, start):
    """weighted_block_moment's value and tail bound.  Where the bound exceeds
    1e-10 the call raises with it, and the value is taken on the prefix padded
    with zeros to 800 steps: the same moment, with a tail below 1e-10 on the
    tail test chains."""
    try:
        got = alg.weighted_block_moment(model, a, g, m, start=start)
        return got.value, got.tail_bound
    except TruncationInsufficient as exc:
        assert exc.tail_bound > 1e-10 and exc.tol == 1e-10
        padded = np.concatenate([a, np.zeros(800 - len(a))])
        return alg.weighted_block_moment(model, padded, g, m, start=start).value, exc.tail_bound


def reference_weighted_tail(model, a, g, m, start="nu"):
    """The tail bound of weighted_block_moment from the summed survival masses."""
    L = len(a) - 1
    masses = reference_survival_masses(model, start)
    masses = np.concatenate([masses, np.zeros(max(0, L + 2 - len(masses)))])
    scale = float(np.abs(a).max()) * float(np.abs(g).max())
    if m == 1:
        return scale * float(masses[L + 1:].sum())
    k_weighted = float((np.arange(len(masses)) * masses)[L + 1:].sum())
    return scale ** 2 * (float(masses[L + 1:].sum()) + 2.0 * k_weighted)


def reference_power_sum(A, Q, B, n):
    """sum_{j<n} A^j . Q . B^j, A^j acting on the first axis of Q and B^j on
    the last, one term per step."""
    total = np.zeros_like(Q)
    term = Q
    for _ in range(n):
        total = total + term
        term = np.tensordot(A, term, axes=1) @ B
    return total


def reference_sigma2_series(model, g, tol=1e-8, max_lag=100_000):
    """sigma2_from_series as one generalized autocovariance per lag, until
    the exact remainder phi_g P^L G g0 is at most tol/2."""
    g = np.asarray(g, dtype=float)
    pi = model.pi
    mu_g = float(pi @ g)
    g0 = g - model.s * mu_g
    psi = model.G @ g0
    phi = (pi * g) @ model.P - mu_g * model.nu
    total = alg.generalized_autocov(model, g, None, 0)
    row = phi.copy()
    remainder = math.inf
    for _ell in range(1, max_lag + 1):
        total += 2.0 * float(row @ g0)
        row = row @ model.P
        remainder = abs(2.0 * float(row @ psi))
        if remainder <= tol / 2.0:
            return alg.SeriesValue(total, remainder)
    raise TruncationInsufficient(remainder, tol)


def reference_embedded(x_model, w_model, tol=1e-10, max_terms=200_000):
    """embedded_transition one term nu1 H1^l s1 P2^l per step, until the
    remaining coefficient mass is below tol."""
    d2 = w_model.d
    u = x_model.nu.astype(float)
    Ppow = np.eye(d2)
    Phi = np.zeros((d2, d2))
    for _l in range(max_terms):
        Phi += float(u @ x_model.s) * Ppow
        u = u @ x_model.H
        remaining = float(u.sum())
        if remaining < tol:
            return alg.KernelMatrix(w_model.P @ Phi, tail_bound=remaining)
        Ppow = Ppow @ w_model.P
    raise TruncationInsufficient(remaining, tol)


def reference_compound_recursion(x_model, w_model, gX, gW, m):
    """compound_block_moment with a fresh ladder of powers of H1 and P2^T for
    every K, squared here until the tail is below 1e-10."""
    gX = np.asarray(gX, dtype=float)
    gW = np.asarray(gW, dtype=float)
    H1, P2 = x_model.H, w_model.P
    G1 = x_model.G.sum(axis=1)
    sup_1 = float((H1 @ G1).max())
    M = float(np.abs(gX).max()) * float(np.abs(gW).max())
    B, E = [None, M], [None, 0.0]
    for k in range(2, m):
        B.append(M ** k + sup_1 * sum(math.comb(k, j) * M ** (k - j) * B[j] for j in range(1, k)))
        E.append(sum(math.comb(k, j) * M ** (k - j) * (B[j] + sup_1 * E[j]) for j in range(1, k)))
    scale = sum(math.comb(m, j) * float(x_model.pi @ np.abs(gX) ** (m - j))
                * float(w_model.pi @ np.abs(gW) ** (m - j)) * (B[j] + sup_1 * E[j])
                for j in range(1, m))

    bounds = [0.0]

    def K(U):
        pairs, H1n, P2n = [], H1, P2.T
        while not (bound := scale * float((H1 @ (H1n @ G1)).max())) < 1e-10:
            pairs.append((H1n, P2n))
            H1n, P2n = H1n @ H1n, P2n @ P2n
        bounds.append(bound)
        return alg._fold(H1 @ U @ P2.T, pairs)

    u = alg._binomial_moments(np.outer(gX, gW), K, m)
    return alg.SeriesValue(float(x_model.pi @ u @ w_model.pi), bounds[-1])


def reference_compound_forward(x_model, w_model, gX, gW, m):
    """(values, |g| values, tails), each indexed by k = 0..m, of the compound
    block moment E_nu sum over X-subblocks of V^k, V the X-subblock sum of
    g = gX gW, by a forward recursion on the product chain that uses no G.

    M[k, x, w] = E[V_t^k; X_t = x, W_t = w, compound block alive], for g and
    |g| stacked, starts at nu1 (x) nu2 and follows the sampler's order: the
    X-subblock closes with s1(x), whatever W does; with no X-regeneration
    (x, w) moves by H1 (x) P2 and V grows by g(x', w'), expanded binomially;
    an X-regeneration without a W-regeneration restarts V at x' ~ nu1, w' by H2.

    The subblocks closing at t' >= t add at most mass_t' ((t'+1) max|g|)^k.
    Every start survives n steps with probability at most 1/2, so for r < n
    mass_(t+r+qn) <= 2^-q mass_t and t + r + qn + 1 <= (t + n)(1 + q); the
    recursion stops once that tail is below 1e-13 of the |g| value."""
    g = np.outer(gX, gW)
    g = np.stack([g, np.abs(g)])
    gmax = float(g[1].max())
    H1, s1, nu1, P2, H2 = x_model.H, x_model.s, x_model.nu, w_model.P, w_model.H
    b, n = np.ones(g.shape[1:]), 0  # b = P_(x, w)(alive after n steps)
    while b.max() > 0.5:
        b = H1 @ b @ P2.T + np.outer(s1, H2 @ (nu1 @ b))
        n += 1
    # sum_q (1 + q)^k 2^-q; the terms past q = 200 are below 1e-50 of it
    geometric = [sum((q + 1) ** k / 2 ** q for q in range(200)) for k in range(m + 1)]
    powers = g ** np.arange(m + 1)[:, None, None, None]
    M = np.outer(nu1, w_model.nu) * powers
    total = np.zeros((m + 1, 2))
    t = 0
    while True:
        mass = float(M[0, 0].sum())
        tail = np.array([n * mass * c * ((t + n) * gmax) ** k for k, c in enumerate(geometric)])
        if (tail[1:] <= 1e-13 * total[1:, 1]).all():
            return total[:, 0], total[:, 1], tail
        closed = s1 @ M
        total += closed.sum(axis=-1)
        restart = np.outer(nu1, closed[0, 0] @ H2)
        M = H1.T @ M @ P2
        for i in range(1, m + 1):
            M[i:] += g * M[i - 1:m]
        M += restart * powers
        t += 1


def reference_enumerated_block_moments(model, g, orders, start="nu", depth=60):
    """enumerated_block_moments by exhaustive enumeration: walks the
    distribution of (current state, occupation-count vector) under H,
    closing blocks with probability s(x) at each step.  Its cost grows
    exponentially with depth."""
    g = np.asarray(g, dtype=float)
    orders = tuple(orders)
    d = model.d
    H = model.H
    s = model.s
    init = model.nu if start == "nu" else np.eye(d)[start]

    dist = {}
    for y in range(d):
        if init[y] > 0.0:
            counts = [0] * d
            counts[y] = 1
            dist[(y, tuple(counts))] = float(init[y])

    totals = dict.fromkeys(orders, 0.0)
    for _t in range(depth + 1):
        nxt = {}
        for (y, counts), prob in dist.items():
            if s[y] > 0.0:
                block_sum = sum(c * gv for c, gv in zip(counts, g))
                w = prob * s[y]
                for m in orders:
                    totals[m] += w * block_sum ** m
            row = H[y]
            for y2 in range(d):
                p = prob * row[y2]
                if p > 0.0:
                    c2 = counts[:y2] + (counts[y2] + 1,) + counts[y2 + 1:]
                    key = (y2, c2)
                    nxt[key] = nxt.get(key, 0.0) + p
        dist = nxt
        if not dist:
            return {m: alg.SeriesValue(totals[m], 0.0) for m in orders}

    alive = np.zeros(d)
    for (y, _counts), prob in dist.items():
        alive[y] += prob
    gmax = float(np.abs(g).max())
    tails = dict.fromkeys(orders, 0.0)
    t = depth + 1
    for _ in range(100_000):
        mass = float(alive.sum())
        done = True
        for m in orders:
            term = mass * ((t + 1) * gmax) ** m
            tails[m] += term
            done = done and term < 1e-300
        if done or mass < 1e-300:
            return {m: alg.SeriesValue(totals[m], tails[m]) for m in orders}
        alive = alive @ H
        t += 1
    return {m: alg.SeriesValue(totals[m], math.inf) for m in orders}


def reference_weighted_block_moment(model, a, g, m, start="nu"):
    """weighted_block_moment (value, tail bound) through the (L+1) x (L+1)
    matrix M[j, l] = E[g(X_j) g(X_{j+l}); alive at j + l] and a loop over the
    cross pairs; the tail bound is not checked against a tolerance."""
    a = np.asarray(a, dtype=float)
    g = np.asarray(g, dtype=float)
    L = len(a) - 1
    a_sup = float(np.abs(a).max())
    gmax = float(np.abs(g).max())
    H = model.H
    u = model.nu if start == "nu" else np.eye(model.d)[start]
    rows = np.empty((L + 1, model.d))
    for j in range(L + 1):
        rows[j] = u
        u = u @ H
    G1 = model.G.sum(axis=1)
    mass_tail = float(u @ G1)
    if m == 1:
        return alg.SeriesValue(float(a @ (rows @ g)), a_sup * gmax * mass_tail)
    cols = np.empty((L + 1, model.d))
    v = g.copy()
    for l in range(L + 1):
        cols[l] = v
        v = H @ v
    M = rows @ (cols * g).T
    diag = float((a * a) @ M[:, 0])
    cross = 0.0
    for j in range(L + 1):
        lmax = L - j
        if lmax >= 1:
            cross += float((a[j] * a[j + 1:j + 1 + lmax]) @ M[j, 1:lmax + 1])
    k_weighted = float(u @ ((L + 1) * G1 + H @ (model.G @ G1)))
    return alg.SeriesValue(diag + 2.0 * cross,
                           a_sup ** 2 * gmax ** 2 * (mass_tail + 2.0 * k_weighted))


def reference_gap_coefficients(model, count):
    """regeneration_gap_coefficients one nu H^(l-1) s per step."""
    u = model.nu
    out = np.empty(count)
    for l in range(count):
        out[l] = float(u @ model.s)
        u = u @ model.H
    return out


def tail_test_chains():
    """Seeded chains with d = 2..8 and one with d = 50."""
    rng = np.random.default_rng(2024)
    return [random_model(rng, d=d) for d in list(range(2, 9)) * 2 + [50]]


def birth_death(d):
    """The reflected symmetric walk on 0..d-1, regenerating on every move
    into the middle state c = d // 2 (nu = e_c, s = P[:, c]): the finite
    stand-in for a null-recurrent walk.  Its invariant measure is uniform,
    so pi . 1 = d, and the spectral radius of H tends to 1 as d grows."""
    P = 0.5 * (np.eye(d, k=1) + np.eye(d, k=-1))
    P[0, 0] = P[-1, -1] = 0.5
    c = d // 2
    return alg.FiniteMarkovModel(states=tuple(range(d)), P=P, s=P[:, c], nu=np.eye(d)[c])


def bipartite_model(rng):
    """A chain of period 2 on {0, 1} and {2, 3}: every move crosses between
    the halves.  The atom puts nu on {2, 3} and s on {0, 1}, with slack."""
    P = np.zeros((4, 4))
    P[:2, 2:] = rng.random((2, 2)) + 0.1
    P[2:, :2] = rng.random((2, 2)) + 0.1
    P /= P.sum(axis=1, keepdims=True)
    nu = np.zeros(4)
    nu[2:] = rng.random(2) + 0.1
    nu /= nu.sum()
    s = np.zeros(4)
    s[:2] = rng.uniform(0.3, 0.9) * (P[:2, 2:] / nu[2:]).min(axis=1)
    return alg.FiniteMarkovModel(states=tuple(range(4)), P=P, s=s, nu=nu)


def near_singular_two_state(s=1e-3):
    """Regenerates with probability s per step: H has spectral radius 1 - s."""
    return alg.FiniteMarkovModel(states=(0, 1), P=[[0.5, 0.5], [0.5, 0.5]],
                                 s=[s, s], nu=[0.5, 0.5])


def sticky_two_state(s):
    """Switches state and regenerates with probability s per step."""
    return alg.FiniteMarkovModel(states=(0, 1), P=[[1 - s, s], [s, 1 - s]],
                                 s=[s, s], nu=[0.5, 0.5])


def assert_within_tails(new_value, new_tail, old_value, old_tail):
    """Two truncations of one series differ by at most their two tails."""
    old_value = np.asarray(old_value)
    gap = float(np.abs(np.asarray(new_value) - old_value).max())
    assert gap <= old_tail + new_tail + 1e-12 * float(np.abs(old_value).max())


def assert_compound_matches_forward(x_model, w_model, gX, gW, orders):
    """compound_block_moment within its default tol of truncation and, at
    every order, within both tails plus 1e-12 of the |g| moment of the
    forward recursion."""
    value, scale, tail = reference_compound_forward(x_model, w_model, gX, gW, max(orders))
    for m in orders:
        got = alg.compound_block_moment(x_model, w_model, gX, gW, m)
        assert got.tail_bound <= 1e-10
        assert abs(got.value - value[m]) <= got.tail_bound + tail[m] + 1e-12 * scale[m]


class TestTailsThroughG:
    def test_weighted_tails_match_summed_survival_masses(self):
        rng = np.random.default_rng(7)
        for model in tail_test_chains():
            g = rng.normal(size=model.d)
            for length in (1, 6, 25):
                a = rng.uniform(0.2, 1.0, size=length)
                for m in (1, 2):
                    for start in ("nu", model.d - 1):
                        tail = weighted_value_and_tail(model, a, g, m, start)[1]
                        ref = reference_weighted_tail(model, a, g, m, start)
                        assert tail == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_compound_matches_the_forward_recursion(self):
        three = alg.load_model("configs/threestate.json")
        two = alg.load_model("configs/twostate.json")
        rng = np.random.default_rng(8)
        x_chains = tail_test_chains() + [birth_death(d) for d in (11, 21, 51)]
        for x_model, w_model in [(x, three) for x in x_chains] + [(three, two), (two, three)]:
            gX = rng.uniform(-1.0, 1.0, size=x_model.d)
            gW = rng.uniform(-1.0, 1.0, size=w_model.d)
            assert_compound_matches_forward(x_model, w_model, gX, gW, (1, 2, 3))

    def test_doubling_sum_matches_a_plain_loop(self):
        rng = np.random.default_rng(9)
        A = random_model(rng, d=3).H
        B = random_model(rng, d=2).P
        for n in (1, 2, 8, 1024, 4096 + 5):
            seen = []

            def tail(Ak):
                k = 2 ** len(seen)
                seen.append(k)
                np.testing.assert_allclose(Ak, np.linalg.matrix_power(A, k),
                                           rtol=1e-12, atol=1e-300)
                return 0.0 if k >= n else 1.0

            pairs, bound = alg._power_ladder(A, B, tail)
            stop = 2 ** math.ceil(math.log2(n))
            assert bound == 0.0 and seen[-1] == stop and len(pairs) == len(seen) - 1
            for k, (_Ak, Bk) in enumerate(pairs):
                np.testing.assert_allclose(Bk, np.linalg.matrix_power(B, 2 ** k), rtol=1e-12)
            for Q in (rng.normal(size=(3, 2)), rng.normal(size=(3, 4, 2))):
                np.testing.assert_allclose(alg._fold(Q, pairs), reference_power_sum(A, Q, B, stop),
                                           rtol=1e-12, atol=1e-300)

    def test_spectral_radius_near_one(self):
        x_model = near_singular_two_state()
        w_model = alg.load_model("configs/threestate.json")
        res = alg.compound_block_moment(x_model, w_model, [1.0, -0.5], [1.0, -0.5, 2.0], 2)
        assert math.isfinite(res.value) and res.tail_bound <= 1e-10
        # E U0 of g = 1{X = 0} is half the mean block length 1/s = 1000.
        res = alg.weighted_block_moment(x_model, np.ones(40_000), [1.0, 0.0], 1)
        assert abs(res.value - 500.0) <= res.tail_bound + 1e-12 * 500.0

    def test_compound_memory_does_not_grow_with_the_square_of_L(self):
        import tracemalloc

        # L reaches 8192 here, where two L x L matrices would take 1 GiB.
        x_model = near_singular_two_state(1e-2)
        w_model = alg.load_model("configs/threestate.json")
        x_model.G, w_model.pi  # build the cached quantities outside the trace
        tracemalloc.start()
        try:
            res = alg.compound_block_moment(x_model, w_model, [1.0, -0.5],
                                            [1.0, -0.5, 2.0], 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert math.isfinite(res.value) and res.tail_bound <= 1e-10
        assert peak < 16 * 2 ** 20


class TestForwardMoments:
    """The one forward recursion behind the enumeration oracle, the weighted
    moment and the gap law, against the exhaustive enumeration, the closed
    forms and the code it replaced."""

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(19)
        for d in (2, 3, 4, 4):
            model = random_model(rng, d=d)
            g = rng.uniform(-1.0, 1.0, size=d)
            depth = 20 if d <= 3 else 14
            for start in ("nu", d - 1):
                got = alg.enumerated_block_moments(model, g, range(1, 7), start, depth)
                ref = reference_enumerated_block_moments(model, g, range(1, 7), start, depth)
                scale = reference_enumerated_block_moments(model, np.abs(g), range(1, 7),
                                                           start, depth)
                for m in range(1, 7):
                    assert abs(got[m].value - ref[m].value) <= 1e-12 * scale[m].value
                    walked = ref[m].tail_bound
                    assert walked <= got[m].tail_bound <= 8.0 * walked

    def test_matches_block_moment_once_the_tails_vanish(self):
        rng = np.random.default_rng(12)
        for model in tail_test_chains():
            g = rng.uniform(-1.0, 1.0, size=model.d)
            # a state start closes u_m by G[start]: the first, the last and one drawn state
            for start in ("nu", 0, model.d - 1, int(rng.integers(model.d))):
                depth = 250
                while True:
                    got = alg.enumerated_block_moments(model, g, range(1, 7), start, depth)
                    if max(v.tail_bound for v in got.values()) < 1e-12:
                        break
                    depth *= 2
                for m in range(1, 7):
                    exact = alg.block_moment(model, alg.BlockMomentRequest(g, m, start))
                    scale = alg.block_moment(model, alg.BlockMomentRequest(np.abs(g), m, start))
                    assert abs(got[m].value - exact) <= 1e-12 * scale + got[m].tail_bound

    @pytest.mark.parametrize("d", [51, 201])
    def test_finite_tails_on_birth_death(self, d):
        # The block length's tail reaches t ~ d^2, far past depth 200: the
        # tails are large, but finite, and cover the truncation.
        model = birth_death(d)
        g = np.linspace(-1.0, 1.0, d)
        got = alg.enumerated_block_moments(model, g, range(1, 5), depth=200)
        for m in range(1, 5):
            exact = alg.block_moment(model, alg.BlockMomentRequest(g, m))
            assert math.isfinite(got[m].tail_bound)
            assert abs(exact - got[m].value) <= got[m].tail_bound

    def test_shipped_chains_have_tails_below_1e_14_at_depth_200(self):
        for chain, g in (("twostate", [1.0, -1.0]), ("threestate", [1.0, -1.0, 2.0])):
            model = alg.load_model(f"configs/{chain}.json")
            for start in ("nu", *range(model.d)):
                got = alg.enumerated_block_moments(model, g, range(1, 7), start)
                assert max(v.tail_bound for v in got.values()) < 1e-14

    def test_weighted_matches_the_square_contraction(self):
        rng = np.random.default_rng(13)
        for model in tail_test_chains():
            g = rng.normal(size=model.d)
            for length in (1, 6, 25, 300):
                a = rng.uniform(0.2, 1.0, size=length)
                a[rng.random(length) < 0.3] = 0.0
                for m in (1, 2):
                    for start in ("nu", model.d - 1):
                        value, tail = weighted_value_and_tail(model, a, g, m, start)
                        ref = reference_weighted_block_moment(model, a, g, m, start)
                        scale = reference_weighted_block_moment(model, np.abs(a), np.abs(g),
                                                                m, start)
                        assert abs(value - ref.value) <= 1e-12 * scale.value
                        assert tail == pytest.approx(ref.tail_bound, rel=1e-12)

    def test_weighted_memory_does_not_grow_with_the_square_of_L(self):
        import tracemalloc

        # At L = 5000 an (L+1) x (L+1) matrix alone takes 200 MB.
        model = near_singular_two_state(1e-2)
        model.G  # build the cached quantities outside the trace
        a = 1.0 / np.sqrt(1.0 + np.arange(5001))
        tracemalloc.start()
        try:
            res = alg.weighted_block_moment(model, a, [1.0, -0.5], 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert math.isfinite(res.value) and res.tail_bound <= 1e-10
        assert peak < 8 * 2 ** 20

    def test_gap_coefficients_match_the_stepped_loop(self):
        for model in tail_test_chains() + [near_singular_two_state()]:
            got = alg.regeneration_gap_coefficients(model, 300)
            assert np.abs(got - reference_gap_coefficients(model, 300)).max() <= 1e-15
        assert alg.regeneration_gap_coefficients(near_singular_two_state(), 0).shape == (0,)


class TestDoubledSeries:
    def test_series_match_the_stepped_references(self):
        w_model = alg.load_model("configs/threestate.json")
        rng = np.random.default_rng(10)
        for model in tail_test_chains():
            g = rng.normal(size=model.d)
            new = alg.sigma2_from_series(model, g)
            assert new.tail_bound == 0.0
            for tol in (1e-8, 1e-12):
                old = reference_sigma2_series(model, g, tol=tol)
                assert_within_tails(new.value, new.tail_bound, old.value, old.tail_bound)
            for x_model, wm in ((model, w_model), (w_model, model)):
                new = alg.embedded_transition(x_model, wm)
                old = reference_embedded(x_model, wm)
                assert new.tail_bound <= 1e-10
                assert_within_tails(new.entries, new.tail_bound, old.entries, old.tail_bound)

    @pytest.mark.parametrize("s", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    def test_near_non_regeneration_sweep(self, s):
        x_model = sticky_two_state(s)
        w_model = alg.load_model("configs/threestate.json")
        gX, gW = np.array([1.0, -0.5]), np.array([1.0, -0.5, 2.0])
        for m in (2, 3):
            res = alg.compound_block_moment(x_model, w_model, gX, gW, m)
            assert math.isfinite(res.value) and res.tail_bound <= 1e-10
        if s >= 1e-2:
            assert_compound_matches_forward(x_model, w_model, gX, gW, (2, 3))
        for xm, wm in ((x_model, w_model), (w_model, x_model)):
            emb = alg.embedded_transition(xm, wm)
            assert emb.tail_bound <= 1e-10
            assert np.abs(emb.entries.sum(axis=1) - 1.0).max() <= emb.tail_bound + 1e-9
            if s >= 1e-3:
                old = reference_embedded(xm, wm)
                assert_within_tails(emb.entries, emb.tail_bound, old.entries, old.tail_bound)
        series = alg.sigma2_from_series(x_model, gX)
        _, sigma2 = alg.block_mean_variance(x_model, gX)
        assert series.tail_bound <= 1e-8 / 2.0
        assert abs(series.value - sigma2) <= 1e-10 * sigma2
        if s >= 1e-3:
            old = reference_sigma2_series(x_model, gX)
            assert_within_tails(series.value, series.tail_bound, old.value, old.tail_bound)

    def test_compound_m3_reuses_the_powers_bit_for_bit(self):
        w_model = alg.load_model("configs/threestate.json")
        rng = np.random.default_rng(11)
        chains = tail_test_chains() + [sticky_two_state(s) for s in (1e-2, 1e-4, 1e-6)]
        for x_model in chains + [random_model(rng, d=120)]:
            gX = rng.normal(size=x_model.d)
            for wm, gW in ((w_model, np.array([1.0, -0.5, 2.0])), (x_model, gX)):
                for m in (2, 3):
                    got = alg.compound_block_moment(x_model, wm, gX, gW, m)
                    assert got == reference_compound_recursion(x_model, wm, gX, gW, m)

    def test_series_that_never_meet_tol_stop_after_53_doublings(self):
        import time

        class Squarings(np.ndarray):
            count = 0

            def __matmul__(self, other):
                Squarings.count += 1
                return super().__matmul__(other)

        three = alg.load_model("configs/threestate.json")
        for bound in (1.0, math.nan):  # a tail that never falls below 1e-10
            Squarings.count = 0
            start = time.perf_counter()
            with pytest.raises(TruncationInsufficient):
                alg._power_ladder(three.H.view(Squarings), three.P, lambda _An: bound)
            assert time.perf_counter() - start < 0.25
            assert Squarings.count == 53


# --- an exact rational oracle -------------------------------------------------
# The float entries of H1, P2, s1 and nu1 are exact binary fractions, so
# Fraction arithmetic gives the exact value of the series that
# embedded_transition and compound_block_moment truncate and round: it checks
# the truncation and the rounding at once.

def fractions(arr):
    """A float array as nested lists of exact Fractions."""
    return [fractions(v) for v in arr] if np.ndim(arr) else Fraction(float(arr))


def exact_solve(A, B):
    """X with A X = B by Gauss-Jordan elimination over Fractions; A and B are
    lists of rows, and zero entries are skipped."""
    n = len(A)
    M = [list(a) + list(b) for a, b in zip(A, B)]
    for c in range(n):
        p = next(r for r in range(c, n) if M[r][c])
        M[c], M[p] = M[p], M[c]
        M[c] = [v / M[c][c] for v in M[c]]
        for r in range(n):
            f = M[r][c]
            if r != c and f:
                M[r] = [a - f * b if b else a for a, b in zip(M[r], M[c])]
    return [row[n:] for row in M]


def exact_invariant_measure(model):
    """pi = nu (I - H)^-1, exactly."""
    H = fractions(model.H)
    At = [[int(i == j) - H[j][i] for j in range(model.d)] for i in range(model.d)]
    return [row[0] for row in exact_solve(At, [[v] for v in fractions(model.nu)])]


def exact_embedded_and_compound(x_model, w_model, gX, gW):
    """(P2 Phi, pi1 u_2 pi2) from one solve of (I - H1 (x) P2), whose inverse
    is sum_l H1^l (x) P2^l, on the states (x, w) in row-major order:
    Phi[w, v] = sum_x nu1[x] [(I - H1 (x) P2)^-1 (s1 (x) e_v)][(x, w)], and
    u_2 = g^2 + 2 g K g with K g = (I - H1 (x) P2)^-1 g - g, g = gX (x) gW."""
    d1, d2 = x_model.d, w_model.d
    H1, P2 = fractions(x_model.H), fractions(w_model.P)
    s1, nu1 = fractions(x_model.s), fractions(x_model.nu)
    pairs = [(x, w) for x in range(d1) for w in range(d2)]
    A = [[int(i == j) - H1[x][y] * P2[w][v] for j, (y, v) in enumerate(pairs)]
         for i, (x, w) in enumerate(pairs)]
    g = [Fraction(float(gX[x])) * Fraction(float(gW[w])) for x, w in pairs]
    X = exact_solve(A, [[s1[x] * (w == v) for v in range(d2)] + [g[i]]
                        for i, (x, w) in enumerate(pairs)])
    Phi = [[sum(nu1[x] * X[x * d2 + w][v] for x in range(d1)) for v in range(d2)]
           for w in range(d2)]
    embedded = np.array([[float(sum(P2[w][k] * Phi[k][v] for k in range(d2)))
                          for v in range(d2)] for w in range(d2)])
    u2 = [g[i] ** 2 + 2 * g[i] * (X[i][d2] - g[i]) for i in range(len(pairs))]
    pi1, pi2 = exact_invariant_measure(x_model), exact_invariant_measure(w_model)
    return embedded, float(sum(pi1[x] * u2[i] * pi2[w] for i, (x, w) in enumerate(pairs)))


class TestExactRationalOracle:
    @pytest.mark.parametrize("x_name, w_name", [
        ("twostate", "threestate"), ("threestate", "twostate"),
        ("bd5", "threestate"), ("bd11", "threestate")])
    def test_embedded_and_compound_match_the_exact_values(self, x_name, w_name):
        chains = {"bd5": birth_death(5), "bd11": birth_death(11)}
        x_model, w_model = (chains.get(name) or alg.load_model(f"configs/{name}.json")
                            for name in (x_name, w_name))
        gX = np.linspace(-1.0, 1.0, x_model.d) if x_model.d > 3 else [1.0, -0.5, 2.0][:x_model.d]
        gW = np.array([1.0, -0.5, 2.0][:w_model.d])
        embedded, second = exact_embedded_and_compound(x_model, w_model, gX, gW)
        got = alg.embedded_transition(x_model, w_model)
        assert np.abs(got.entries - embedded).max() <= got.tail_bound + 1e-15
        # the compound value is built from the rounded pi1 and pi2, hence the
        # relative allowance (the error measured up to d1 = 11 is 2e-16)
        res = alg.compound_block_moment(x_model, w_model, gX, gW, 2)
        assert abs(res.value - second) <= res.tail_bound + 1e-14 * abs(second)


class TestChainFiles:
    def test_decimal_strings_accepted(self):
        model = alg.model_from_dict({
            "states": ["a", "b"],
            "P": [["0.5", "0.5"], ["0.5", "0.5"]],
            "s": ["0.5", "0.5"],
            "nu": ["0.5", "0.5"],
        })
        assert model.d == 2
        np.testing.assert_array_equal(model.P, 0.5 * np.ones((2, 2)))

    @pytest.mark.parametrize("key", ["pi", "P0", "state"])
    def test_unknown_key_raises(self, key):
        chain = {"states": [0, 1], "P": [[0.5, 0.5], [0.5, 0.5]], "s": [0.5, 0.5],
                 "nu": [0.5, 0.5], key: [0.5, 0.5]}
        with pytest.raises(InvalidSpec, match=f"'{key}'"):
            alg.model_from_dict(chain)

    def test_validation_on_load(self):
        with pytest.raises(MinorizationViolated):
            alg.model_from_dict({
                "states": [0, 1],
                "P": [[0.5, 0.5], [0.5, 0.5]],
                "s": [0.8, 0.8],
                "nu": [0.7, 0.3],
            })


class TestModelCache:
    DERIVED = ("H", "G", "pi", "cum_nu", "cum_P", "R")

    def test_fundamental_kernel_built_once_per_model(self, monkeypatch):
        calls = []
        original = alg.fundamental_kernel

        def counting(H):
            calls.append(1)
            return original(H)

        monkeypatch.setattr(alg, "fundamental_kernel", counting)
        model = random_model(np.random.default_rng(31), d=4)
        g = np.array([1.0, -0.5, 2.0, 0.25])
        alg.invariant_measure(model)
        alg.block_mean_variance(model, g)
        for m in range(1, 7):
            alg.block_moment(model, alg.BlockMomentRequest(g=g, m=m))
        for ell in range(-5, 6):
            alg.generalized_autocov(model, g, None, ell)
        alg.sigma2_from_series(model, g)
        alg.compound_block_moment(model, model, g, g, 2)
        assert len(calls) == 1

    def test_derived_arrays_are_read_only_and_kept(self, two_state):
        for name in self.DERIVED:
            arr = getattr(two_state, name)
            assert arr.flags.writeable is False, name
            assert getattr(two_state, name) is arr, name

    def test_taboo_kernel_matches_cached_attribute(self, two_state):
        np.testing.assert_array_equal(alg.taboo_kernel(two_state), two_state.H)
        np.testing.assert_array_equal(alg.invariant_measure(two_state).pi, two_state.pi)

    def test_results_are_read_only(self, two_state):
        wm = random_model(np.random.default_rng(3), d=3)
        for arr in (alg.fundamental_kernel(np.array(two_state.H)).entries,
                    alg.embedded_transition(two_state, wm).entries,
                    alg.invariant_measure(two_state).pi):
            assert arr.flags.writeable is False
            with pytest.raises(ValueError):
                arr[0] = 0.0

    @given(st.integers(0, 10_000))
    def test_exact_identities_on_random_chains(self, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng, d=int(rng.integers(2, 9)))
        pi, G = model.pi, model.G
        scale = float(np.abs(pi).max())
        assert np.abs(pi @ model.P - pi).max() <= 1e-10 * scale
        assert abs(float(pi @ model.s) - 1.0) <= 1e-10
        assert np.abs(G @ model.s - 1.0).max() <= 1e-10

    def test_cumulative_tables_pinned_at_last_positive_entry(self):
        P = np.array([[0.7, 0.2, 0.1, 0.0], [0.5, 0.0, 0.5, 0.0],
                      [0.25, 0.25, 0.25, 0.25], [1.0, 0.0, 0.0, 0.0]])
        assert np.cumsum(P[0])[2] < 1.0  # the rounding the tables must absorb
        model = alg.FiniteMarkovModel(states=(0, 1, 2, 3), P=P, s=0.5 * P[:, 0],
                                      nu=[1.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(model.cum_P[0], [0.7, 0.7 + 0.2, 1.0, 1.0])
        np.testing.assert_array_equal(model.cum_P[1], [0.5, 0.5, 1.0, 1.0])
        np.testing.assert_array_equal(model.cum_nu, [1.0, 1.0, 1.0, 1.0])
        assert (np.diff(model.cum_P, axis=1) >= 0.0).all()

    def test_cum_P_rows_list_the_table_once(self):
        model = random_model(np.random.default_rng(33), d=6)
        rows = model.cum_P_rows
        assert type(rows) is tuple and all(type(row) is tuple for row in rows)
        assert [list(row) for row in rows] == model.cum_P.tolist()
        assert model.cum_P_rows is rows
        again = pickle.loads(pickle.dumps(model))
        assert "cum_P_rows" not in again.__dict__
        assert again.cum_P_rows == rows

    def test_split_ratio_zero_off_support(self):
        P = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
        model = alg.FiniteMarkovModel(states=(0, 1, 2), P=P, s=[0.4, 0.0, 0.4],
                                      nu=[1.0, 0.0, 0.0])
        expected = np.zeros((3, 3))
        expected[0, 0] = expected[2, 0] = 0.4 / 0.5
        np.testing.assert_array_equal(model.R, expected)

    def test_pickle_round_trip_rebuilds_through_constructor(self):
        model = random_model(np.random.default_rng(32), d=5)
        for name in self.DERIVED:
            getattr(model, name)
        again = pickle.loads(pickle.dumps(model))
        assert set(again.__dict__) == {"states", "P", "s", "nu"}
        assert again.states == model.states
        for name in ("P", "s", "nu") + self.DERIVED:
            arr = getattr(again, name)
            np.testing.assert_array_equal(arr, getattr(model, name), err_msg=name)
            assert arr.flags.writeable is False, name

    def test_equality_and_hash_by_value(self):
        a = alg.load_model("configs/threestate.json")
        b = alg.load_model("configs/threestate.json")
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        other = alg.FiniteMarkovModel(states=a.states, P=a.P, s=a.s * 0.5, nu=a.nu)
        assert a != other
        assert a != alg.load_model("configs/twostate.json")
        assert a != "threestate"
