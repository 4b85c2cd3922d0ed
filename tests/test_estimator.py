import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import nullrec.estimator as est
from nullrec.errors import (
    AllNeighborhoodsEmpty,
    EmptyNeighborhood,
    EmptyOccupation,
    InvalidSpec,
)


def gauss_legendre_integral(f, lo, hi, order=40):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    x = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
    return 0.5 * (hi - lo) * float(weights @ f(x))


class TestKernels:
    @pytest.mark.parametrize("kernel", [est.EPANECHNIKOV, est.gaussian_truncated(2.5),
                                        est.gaussian_truncated(1.0)])
    def test_moment_conditions_by_quadrature(self, kernel):
        r = kernel.support_radius
        assert abs(gauss_legendre_integral(kernel.weights, -r, r) - 1.0) < 1e-10
        assert abs(gauss_legendre_integral(lambda u: u * kernel.weights(u), -r, r)) < 1e-10
        sq = gauss_legendre_integral(lambda u: kernel.weights(u) ** 2, -r, r)
        assert abs(sq - kernel.l2_norm_sq) < 1e-10

    def test_epanechnikov_norm_is_exact(self):
        assert est.EPANECHNIKOV.l2_norm_sq == 0.6

    def test_compact_support(self):
        assert est.EPANECHNIKOV.weights(np.array([-1.01, 1.01])).sum() == 0.0
        assert est.gaussian_truncated(2.0).weights(np.array([2.01])).sum() == 0.0

    def test_invalid(self):
        with pytest.raises(InvalidSpec):
            est.Kernel("box")
        for c in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(InvalidSpec):
                est.gaussian_truncated(c)


class TestNwEstimate:
    def test_constant_response(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=100)
        rep = est.nw_estimate(x, np.full(100, 3.25), x_eval=0.0, h=1.0)
        assert rep.f_hat == pytest.approx(3.25, abs=1e-14)

    def test_single_observation(self):
        rep = est.nw_estimate([0.0], [0.0], x_eval=0.0, h=0.7)
        assert rep.f_hat == 0.0
        assert rep.t_c == 1
        assert rep.p_hat_c == rep.sum_k

    def test_empty_neighborhood(self):
        with pytest.raises(EmptyNeighborhood):
            est.nw_estimate([10.0, 11.0], [1.0, 2.0], x_eval=0.0, h=0.5)

    def test_lengths_must_match(self):
        with pytest.raises(ValueError, match="equal length"):
            est.nw_estimate([0.0, 1.0], [1.0], x_eval=0.0, h=0.5)

    @pytest.mark.parametrize("h", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_bandwidth(self, h):
        with pytest.raises(ValueError, match="bandwidth must be positive"):
            est.nw_estimate([0.0, 1.0], [1.0, 2.0], x_eval=0.0, h=h)

    def test_within_weighted_range(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.normal(size=50)
            z = rng.normal(size=50)
            rep = est.nw_estimate(x, z, x_eval=float(x[0]), h=0.8)
            w = est.EPANECHNIKOV.weights((x - x[0]) / 0.8)
            assert z[w > 0].min() - 1e-12 <= rep.f_hat <= z[w > 0].max() + 1e-12

    @given(st.integers(0, 5000))
    def test_shift_and_scale_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(scale=2.0, size=30)
        z = rng.normal(size=30)
        x_eval = float(rng.choice(x))
        h = float(rng.uniform(0.3, 2.0))
        c = float(rng.normal(scale=5.0))
        base = est.nw_estimate(x, z, x_eval, h)
        shifted = est.nw_estimate(x, z + c, x_eval, h)
        scaled = est.nw_estimate(x, c * z, x_eval, h)
        assert abs(shifted.f_hat - (base.f_hat + c)) < 1e-12
        assert abs(scaled.f_hat - c * base.f_hat) < 1e-12 * max(1.0, abs(c))

    @given(st.integers(0, 5000))
    def test_regressor_affine_covariance(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(scale=2.0, size=30)
        z = rng.normal(size=30)
        x_eval = float(rng.choice(x))
        h = float(rng.uniform(0.3, 2.0))
        a = float(rng.normal(scale=3.0))
        b = float(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]))
        base = est.nw_estimate(x, z, x_eval, h)
        mapped = est.nw_estimate(a + b * x, z, a + b * x_eval, abs(b) * h)
        assert abs(mapped.f_hat - base.f_hat) < 1e-12


class TestStudentized:
    def test_zero_when_noiseless_constant(self):
        x = np.linspace(-1, 1, 50)
        assert est.nw_estimate(x, np.full(50, 2.0), 0.0, 0.5, f_true_at_x=2.0).studentized == 0.0

    def test_translation_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=80)
        z = rng.normal(size=80)
        base = est.nw_estimate(x, z, 0.0, 1.0, f_true_at_x=0.3).studentized
        moved = est.nw_estimate(x, z + 4.0, 0.0, 1.0, f_true_at_x=4.3).studentized
        assert moved == pytest.approx(base, abs=1e-10)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=60)
        z = rng.normal(size=60)
        perm = rng.permutation(60)
        a = est.nw_estimate(x, z, 0.0, 1.0, f_true_at_x=0.0).studentized
        b = est.nw_estimate(x[perm], z[perm], 0.0, 1.0, f_true_at_x=0.0).studentized
        assert a == pytest.approx(b, abs=1e-10)


class TestLocalBandwidth:
    def test_unit_base(self):
        assert (32.0) ** (-0.2) == pytest.approx(0.5)
        x = np.full(24, 0.0)
        h = est.local_bandwidth(x, 0.0, window=(-2.5, 2.5), c0=2.0)
        # 24 points at the evaluation point: pilot mass 24*K(0)/h_ref = 36
        assert h == pytest.approx(2.0 * 36.0 ** (-0.2), abs=1e-12)

    def test_empty_occupation(self):
        with pytest.raises(EmptyOccupation):
            est.local_bandwidth(np.array([50.0]), 0.0, window=(-2.5, 2.5), c0=1.0)

    def test_shrinks_with_more_local_data(self):
        rng = np.random.default_rng(5)
        small = rng.uniform(-1, 1, size=50)
        large = rng.uniform(-1, 1, size=800)
        assert est.local_bandwidth(large, 0.0, c0=1.0) < est.local_bandwidth(small, 0.0, c0=1.0)

    @pytest.mark.parametrize("c0", [-1.0, 0.0, math.nan, math.inf])
    def test_rejects_bad_constant(self, c0):
        x = np.linspace(-1.0, 1.0, 50)
        with pytest.raises(ValueError, match="c0"):
            est.local_bandwidth(x, 0.0, window=(-2.5, 2.5), c0=c0)

    @pytest.mark.parametrize("window", [(0.0, 0.0), (1.0, -1.0), (math.nan, 1.0),
                                        (-1.0, math.inf), (-math.inf, 1.0)])
    def test_rejects_bad_window(self, window):
        x = np.linspace(-1.0, 1.0, 50)
        with pytest.raises(ValueError, match="window"):
            est.local_bandwidth(x, 0.0, window=window, c0=1.0)

    def test_rejects_nan_default_window(self):
        with pytest.raises(ValueError, match="window"):
            est.local_bandwidth(np.linspace(-1.0, 1.0, 50), math.nan, c0=1.0)


# Plain expressions for the weights and for the two estimator functions,
# which sum over the rows of positive weight in time order.  The estimator
# builds its temporaries in place and weights only the rows near x_eval, but
# keeps each element's operations in the same order and sums the same rows
# in the same order, so it must agree bit for bit.

def reference_weights(kernel, u):
    u = np.asarray(u, dtype=float)
    if kernel.kind == "epanechnikov":
        return 0.75 * np.maximum(0.0, 1.0 - u * u)
    z = math.erf(kernel.c / math.sqrt(2.0))
    inside = np.abs(u) <= kernel.c
    return np.where(inside, np.exp(-0.5 * u * u) / (math.sqrt(2.0 * math.pi) * z), 0.0)


def reference_nw_estimate(x, z, x_eval, h, kernel, window=None, f_true_at_x=None):
    k = reference_weights(kernel, (x - x_eval) / h)
    positive = k > 0
    raw = float(k[positive].sum())
    f_hat = float((z[positive] * k[positive]).sum() / raw)
    lo, hi = window if window is not None else est.default_window(x_eval)
    t_c = int(((x >= lo) & (x <= hi)).sum())
    sum_k = raw / h
    stud = None
    if f_true_at_x is not None:
        stud = math.sqrt(raw / kernel.l2_norm_sq) * (f_hat - f_true_at_x)
    return est.EstimateReport(x_eval=float(x_eval), h=float(h), f_hat=f_hat, sum_k=sum_k,
                              t_c=t_c, p_hat_c=sum_k / t_c if t_c > 0 else None,
                              studentized=stud)


def reference_local_bandwidth(x, x_eval, window, c0, kernel):
    lo, hi = window if window is not None else est.default_window(x_eval)
    t_c = int(((x >= lo) & (x <= hi)).sum())
    h_ref = (hi - lo) / 10.0
    k = reference_weights(kernel, (x - x_eval) / h_ref)
    raw = float(k[k > 0].sum())
    return c0 * (t_c * (raw / h_ref / t_c)) ** (-0.2)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestInPlaceAgainstReference:
    """Kernel weights, nw_estimate and local_bandwidth equal the reference
    expressions above on walks, including points exactly on the window ends,
    on x_eval +- h and +- c h, and negative zeros."""

    KERNELS = [est.EPANECHNIKOV, est.gaussian_truncated(2.5)]

    @staticmethod
    def walk(n, shift, x_eval, h, kernel, window):
        from nullrec.processes import ProcessSpec, generate, linear

        path = generate(ProcessSpec(family="INDEP", f=linear(0.5, 1.0)), n - 1, seed=n)
        c = kernel.support_radius
        edges = [*window, x_eval - h, x_eval + h, x_eval - c * h, x_eval + c * h, x_eval,
                 -0.0, 0.0]
        x = np.concatenate([path.x + shift, edges])
        z = np.concatenate([path.z, np.linspace(-1.0, 1.0, len(edges))])
        return x, z

    @pytest.mark.parametrize("n", [1000, 100_000])
    @pytest.mark.parametrize("shift", [0.0, 1e6])
    @pytest.mark.parametrize("kernel", KERNELS, ids=["epanechnikov", "gaussian"])
    def test_walks(self, n, shift, kernel):
        x_eval = shift  # with shift 0, x = -0.0 gives u = -0.0
        window = (x_eval - 2.5, x_eval + 2.5)
        for h in (0.37, 0.5):
            x, z = self.walk(n, shift, x_eval, h, kernel, window)
            u = (x - x_eval) / h
            assert same_bits(kernel.weights(u), reference_weights(kernel, u))
            for w in (window, None):
                got = est.nw_estimate(x, z, x_eval, h, kernel, window=w, f_true_at_x=0.25)
                assert got == reference_nw_estimate(x, z, x_eval, h, kernel, w, 0.25)
                assert (est.local_bandwidth(x, x_eval, w, 0.8, kernel)
                        == reference_local_bandwidth(x, x_eval, w, 0.8, kernel))

    @pytest.mark.parametrize("kernel", KERNELS, ids=["epanechnikov", "gaussian"])
    def test_signed_zeros_and_support_edges(self, kernel):
        c = kernel.support_radius
        u = np.array([-0.0, 0.0, -1.0, 1.0, -c, c, np.nextafter(c, 0.0), np.nextafter(c, 9.0),
                      -np.nextafter(1.0, 0.0), 0.5, -2.0 * c])
        assert same_bits(kernel.weights(u), reference_weights(kernel, u))

    @pytest.mark.parametrize("kernel", KERNELS, ids=["epanechnikov", "gaussian"])
    @pytest.mark.parametrize("u", [0.0, -0.0, 0.3, np.float64(-0.7), np.array(1.0), 7])
    def test_zero_dimensional_input(self, kernel, u):
        got, want = kernel.weights(u), reference_weights(kernel, u)
        assert type(got) is type(want)
        assert same_bits(got, want)
        if kernel.kind == "epanechnikov":  # cv_constant takes K(0) from weights(0.0)
            assert type(got) is np.float64


class TestSubsetsOfThePath:
    """nw_estimate and local_bandwidth on any subset of the rows that keeps
    every row of positive weight (at h and at the pilot's width/10) and the
    closed window equal their results on the whole path, bit for bit."""

    @pytest.mark.parametrize("shift", [0.0, 1e6])
    @pytest.mark.parametrize("kernel", TestInPlaceAgainstReference.KERNELS,
                             ids=["epanechnikov", "gaussian"])
    @given(seed=st.integers(0, 2**32 - 1), keep=st.floats(0.0, 1.0))
    def test_equal_on_the_whole_path(self, shift, kernel, seed, keep):
        rng = np.random.default_rng(seed)
        x_eval = shift + float(rng.uniform(-1.0, 1.0))
        h = float(rng.uniform(0.05, 1.5))
        window = (x_eval - float(rng.uniform(0.5, 3.0)), x_eval + float(rng.uniform(0.5, 3.0)))
        x, z = TestInPlaceAgainstReference.walk(2000, shift, x_eval, h, kernel, window)
        lo, hi = window
        needed = (x >= lo) & (x <= hi)
        for width in (h, (hi - lo) / 10.0):
            needed |= reference_weights(kernel, (x - x_eval) / width) > 0
        rows = needed | (rng.random(x.size) < keep)
        whole = est.nw_estimate(x, z, x_eval, h, kernel, window=window, f_true_at_x=0.25)
        assert est.nw_estimate(x[rows], z[rows], x_eval, h, kernel, window=window,
                               f_true_at_x=0.25) == whole
        assert (est.local_bandwidth(x[rows], x_eval, window, 0.8, kernel)
                == est.local_bandwidth(x, x_eval, window, 0.8, kernel))

    @pytest.mark.parametrize("kernel", [*TestInPlaceAgainstReference.KERNELS,
                                        est.gaussian_truncated(1.7)],
                             ids=["epanechnikov", "gaussian", "gaussian-1.7"])
    @given(x_eval=st.one_of(st.floats(-1e9, 1e9), st.sampled_from([0.0, -0.0, 1e-3, 7.5])),
           h=st.floats(1e-6, 1e3))
    def test_support_holds_every_positive_weight(self, kernel, x_eval, h):
        self.assert_support_holds(kernel, x_eval, h)

    @pytest.mark.parametrize("kernel", TestInPlaceAgainstReference.KERNELS,
                             ids=["epanechnikov", "gaussian"])
    def test_support_far_out(self, kernel):
        # r h spans a few roundings of x_eval, so the bounds round by a
        # large share of r h.
        for x_eval in (1e9 + 0.3, -1e9 - 0.7, 123456.789):
            for h in (1e-6, 2.5e-6, 1e-5, 3e-10):
                self.assert_support_holds(kernel, x_eval, h)

    @staticmethod
    def assert_support_holds(kernel, x_eval, h):
        # Points on and up to 64 roundings either side of x_eval +- r h.
        lo, hi = kernel.support(x_eval, h)
        r = kernel.support_radius * h
        edge = np.array([[x_eval - r], [x_eval + r]])
        x = (edge + np.arange(-64, 65) * np.spacing(edge)).ravel()
        positive = x[reference_weights(kernel, (x - x_eval) / h) > 0]
        assert ((lo <= positive) & (positive <= hi)).all()


class TestWalkSystemBehavior:
    def test_mean_estimate_at_far_point_with_accumulated_observations(self):
        # f(x) = x with unit noise; realizations grown until 800 observations
        # sit in (5, 10), then evaluated at 7.5
        from nullrec.montecarlo import ADMITTED, CltProtocol, run_clt
        from nullrec.processes import ProcessSpec, linear

        # About 15% of the reps hit the guard (296 of 2000 at two base
        # seeds), so 290 reps admit 246 on average with a standard deviation
        # of 6: 200 admitted reps lie more than 7 deviations below.
        spec = ProcessSpec(family="INDEP", f=linear())
        proto = CltProtocol(process=spec, mode="fixed_point", reps=290, base_seed=1212,
                            x_eval=7.5, window=(5.0, 10.0), local_count=800)
        res = run_clt(proto, threads=2)
        f_hats = [r.f_hat for r in res.records if r.status == ADMITTED][:200]
        assert len(f_hats) == 200
        assert abs(np.mean(f_hats) - 7.5) < 0.1

    def test_bandwidth_shrinks_at_local_sample_rate(self):
        # the local sample near a fixed point grows like sqrt(n), so
        # quadrupling n shrinks h by roughly 4^(-1/10); allow 30% slack on
        # the exponent
        from nullrec.processes import ProcessSpec, generate, linear

        spec = ProcessSpec(family="INDEP", f=linear())
        logs = []
        for seed in range(60):
            h1 = est.local_bandwidth(generate(spec, 2000, seed=seed).x, 0.0, c0=1.0)
            h2 = est.local_bandwidth(generate(spec, 8000, seed=seed).x, 0.0, c0=1.0)
            logs.append(math.log(h2 / h1))
        factor = math.exp(float(np.mean(logs)))
        assert 4.0 ** (-1.3 / 10.0) <= factor <= 4.0 ** (-0.7 / 10.0)

    def test_cv_choice_stable_across_seeds(self):
        from collections import Counter

        from nullrec.processes import ProcessSpec, generate, linear

        spec = ProcessSpec(family="INDEP", f=linear())
        picks = Counter()
        for seed in range(50):
            path = generate(spec, 400, seed=seed)
            picks[est.cv_constant(path.x, path.z, [0.5, 1.0, 2.0, 4.0])] += 1
        assert max(picks.values()) >= 25


class TestCvConstant:
    def test_noiseless_linear_prefers_smallest(self):
        rng = np.random.default_rng(6)
        x = np.cumsum(rng.normal(size=400))
        z = x.copy()
        assert est.cv_constant(x, z, [0.5, 1.0, 2.0, 4.0]) == 0.5

    def test_singleton_grid(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=60)
        z = rng.normal(size=60)
        assert est.cv_constant(x, z, [1.7]) == 1.7

    def test_needs_enough_data(self):
        with pytest.raises(ValueError):
            est.cv_constant(np.zeros(10), np.zeros(10), [1.0])

    def test_all_neighborhoods_empty(self):
        x = np.arange(25, dtype=float) * 100.0
        z = np.zeros(25)
        with pytest.raises(AllNeighborhoodsEmpty):
            est.cv_constant(x, z, [1e-6])

    @pytest.mark.parametrize("c0", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_constants_local_bandwidth_rejects(self, c0):
        rng = np.random.default_rng(8)
        x = np.cumsum(rng.normal(size=200))
        with pytest.raises(ValueError):
            est.local_bandwidth(x, float(np.median(x)), c0=c0)
        with pytest.raises(ValueError):
            est.cv_constant(x, x.copy(), [c0, 1.0])


class TestModalValue:
    def test_single_point(self):
        assert est.modal_value(np.array([0.0])) == 0.0

    def test_empty_sample(self):
        with pytest.raises(ValueError, match="nonempty"):
            est.modal_value([])

    def test_tie_goes_left(self):
        left = -5.0 + 0.1 * np.array([-1.0, 0.0, 1.0] * 17)
        right = 5.0 + 0.1 * np.array([-1.0, 0.0, 1.0] * 17)
        data = np.concatenate([left, right])
        got = est.modal_value(data, pilot_h=0.5)
        assert got < 0

    def test_finds_heavy_cluster(self):
        rng = np.random.default_rng(8)
        data = np.concatenate([rng.normal(-4, 0.2, size=400),
                               rng.normal(3, 1.5, size=200)])
        assert abs(est.modal_value(data) - (-4.0)) < 0.5

    def test_fast_path_matches_direct_evaluation(self):
        rng = np.random.default_rng(9)
        data = rng.normal(size=300)
        h = 0.4
        xs = np.sort(data)
        dens = np.array([est.EPANECHNIKOV.weights((xs - v) / h).sum() for v in xs])
        dmax = dens.max()
        expected = xs[dens >= dmax - abs(dmax) * 1e-12][0]
        # A numpy scalar or a 0-d array is the same one bandwidth.
        for pilot_h in (h, np.float64(h), np.array(h)):
            assert est.modal_value(data, pilot_h=pilot_h) == expected

    def test_truncated_gaussian_path(self):
        rng = np.random.default_rng(10)
        data = rng.normal(size=200)
        kernel = est.gaussian_truncated(2.0)
        got = est.modal_value(data, kernel=kernel, pilot_h=0.5)
        assert got in data

    @pytest.mark.parametrize("pilot_h", [0.0, -1.0, math.nan, math.inf, 1e-300])
    def test_rejects_bad_pilot_bandwidth(self, pilot_h):
        # 1e-300 is positive, but its square underflows to 0.
        with pytest.raises(ValueError, match="pilot bandwidth"):
            est.modal_value(np.array([0.0, 1.0, 1.0, 3.0]), pilot_h=pilot_h)

    @pytest.mark.parametrize("pilot_h", [None, 1.0])
    @pytest.mark.parametrize("x", [[0.0, math.nan, 1.0], [0.0, math.inf, 1.0],
                                   [-math.inf, 0.0, 1.0], [math.nan]])
    def test_rejects_a_sample_that_is_not_finite(self, x, pilot_h):
        with pytest.raises(ValueError, match="finite"):
            est.modal_value(np.array(x), pilot_h=pilot_h)

    def test_overflowing_squares(self):
        # 1e200 squared overflows, so the default pilot would be infinite,
        # every weight K(0), and the four points would tie at -1e200.  With a
        # given pilot bandwidth the screen's bound overflows and prunes
        # nothing, and the direct sums find the mode.
        x = np.array([1e200, -1e200, 3.0, 3.0])
        with pytest.raises(ValueError, match="finite sample sd"):
            est.modal_value(x)
        with np.errstate(over="ignore", invalid="ignore"):
            assert est.modal_value(x, pilot_h=1.0) == 3.0

    @pytest.mark.parametrize("kernel", [est.EPANECHNIKOV, est.gaussian_truncated(2.5)])
    def test_translation_equivariance_on_walks(self, kernel):
        from nullrec.processes import ProcessSpec, generate, linear

        spec = ProcessSpec(family="INDEP", f=linear())
        for seed in range(5):
            x = generate(spec, 3000, seed=seed).x
            h = 1.06 * float(x.std()) * x.size ** (-0.2)
            base = est.modal_value(x, kernel, pilot_h=h)
            moved = est.modal_value(x + 1e6, kernel, pilot_h=h)
            assert np.flatnonzero(x + 1e6 == moved)[0] == np.flatnonzero(x == base)[0]


def reference_modal_value(x, kernel=est.EPANECHNIKOV, pilot_h=None):
    """The slow reference: the pick from the direct window sums at every
    sample point and the leftmost-within-1e-12 tie rule, as before the
    screen; it shares no prefix-sum code with the screen."""
    x = np.asarray(x, dtype=float)
    if x.size == 1:
        return float(x[0])
    if pilot_h is None:
        sd = float(x.std())
        pilot_h = 1.06 * sd * x.size ** (-0.2) if sd > 0 else 1.0
    xs = np.sort(x)
    lo, hi = est._window(xs, pilot_h, kernel, 0, xs.size)
    dens = est._direct_sums(xs, pilot_h, kernel, lo, hi, slice(None))
    dmax = float(dens.max())
    return float(xs[dens >= dmax - abs(dmax) * 1e-12][0])


def screen_mask(xs, h, kernel, lo, hi):
    """Which points of the sorted sample xs one _screen pass over all of them keeps."""
    upper, floor = est._screen(xs, h, kernel, xs, lo, hi)
    return ~(upper < floor)


KERNELS = [est.EPANECHNIKOV, est.gaussian_truncated(2.5)]


def modal_screen_samples():
    """TestModalScreen's samples, each with its pilot bandwidth (None for the
    default): the walks, the all-equal sample, the duplicates and the ties."""
    from nullrec.processes import ProcessSpec, generate, linear

    spec = ProcessSpec(family="INDEP", f=linear())
    samples = [(generate(spec, n - 1, seed=seed).x + shift, None)
               for n in (2, 3, 50, 500, 3000) for shift in (0.0, 1e6) for seed in range(5)]
    samples.append((np.full(500, -3.25), None))
    rng = np.random.default_rng(13)
    samples += [(x, None) for x in (np.round(rng.normal(size=2000), 1),
                                    np.repeat(rng.normal(size=40), 25),
                                    np.cumsum(rng.choice([-1.0, 1.0], size=3000)))]
    rng = np.random.default_rng(15)
    for _ in range(20):
        y = np.abs(rng.normal(3.0, 1.0, size=int(rng.integers(20, 400))))
        samples.append((np.concatenate([-y, y]), float(rng.uniform(0.2, 2.0))))
    rng = np.random.default_rng(16)
    # One sharp mode, so the first screen leaves one survivor: in one block
    # of 1000 points and across two.
    samples += [(np.concatenate([rng.uniform(-30.0, 30.0, k), rng.normal(0.0, 0.05, k // 10)]),
                 None) for k in (600, 1500)]
    # Two copies 32 apart of a cluster on a grid of 1/64: the modes of the
    # copies are distinct points with exactly equal direct sums.
    y = np.round(64.0 * rng.normal(size=60)) / 64.0
    samples.append((np.concatenate([y + 16.0, y - 16.0]), None))
    # Every window holds its point alone.
    samples.append((np.cumsum(rng.normal(size=300)), 1e-9))
    return samples


class TestModalScreen:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("block", [1, 7, 64, 1000])
    def test_blocks_match_reference(self, kernel, block, monkeypatch):
        # Blocks of a few points: every block has a halo, the floor rises
        # from block to block, and the earlier blocks' survivors are pruned
        # again by the final floor.
        samples = modal_screen_samples()
        want = [reference_modal_value(x, kernel, h) for x, h in samples]
        monkeypatch.setattr(est, "_BLOCK", block)
        assert [est.modal_value(x, kernel, h) for x, h in samples] == want

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_windows_of_one_point(self, kernel):
        from nullrec.processes import ProcessSpec, generate, linear

        x = generate(ProcessSpec(family="INDEP", f=linear()), 19_999, seed=4).x
        xs, h = np.sort(x), 1e-9
        lo, hi = est._window(xs, h, kernel, 0, xs.size)
        assert (hi - lo == 1).all()
        assert est.modal_value(x, kernel, h) == reference_modal_value(x, kernel, h)

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("shift", [0.0, 1e6, 1e12])
    @pytest.mark.parametrize("n", [2, 3, 50, 500, 3000])
    def test_matches_reference_on_walks(self, kernel, shift, n):
        from nullrec.processes import ProcessSpec, generate, linear

        spec = ProcessSpec(family="INDEP", f=linear())
        for seed in range(5):
            x = generate(spec, n - 1, seed=seed).x + shift
            assert est.modal_value(x, kernel) == reference_modal_value(x, kernel)
            assert_bound_covers_direct_sums(x, kernel=kernel)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_all_equal_sample(self, kernel):
        x = np.full(500, -3.25)
        assert est.modal_value(x, kernel) == reference_modal_value(x, kernel) == -3.25

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_many_duplicates(self, kernel):
        rng = np.random.default_rng(13)
        for x in (np.round(rng.normal(size=2000), 1), np.repeat(rng.normal(size=40), 25),
                  np.cumsum(rng.choice([-1.0, 1.0], size=3000))):
            assert est.modal_value(x, kernel) == reference_modal_value(x, kernel)

    def test_tiny_pilot_bandwidth_prunes_nothing(self):
        rng = np.random.default_rng(14)
        x = np.cumsum(rng.normal(size=500))
        xs, h = np.sort(x), 1e-9
        lo, hi = est._window(xs, h, est.EPANECHNIKOV, 0, xs.size)
        assert screen_mask(xs, h, est.EPANECHNIKOV, lo, hi).all()
        assert est.modal_value(x, pilot_h=h) == reference_modal_value(x, pilot_h=h)

    def test_screen_keeps_every_tie(self):
        # A sample symmetric about 0 has mirrored modes whose direct sums tie
        # within rounding; the screen must keep both.
        rng = np.random.default_rng(15)
        for _ in range(20):
            y = np.abs(rng.normal(3.0, 1.0, size=int(rng.integers(20, 400))))
            xs = np.sort(np.concatenate([-y, y]))
            h = float(rng.uniform(0.2, 2.0))
            lo, hi = est._window(xs, h, est.EPANECHNIKOV, 0, xs.size)
            dens = est._direct_sums(xs, h, est.EPANECHNIKOV, lo, hi, slice(None))
            ties = dens >= est._tie_floor(float(dens.max()))
            assert ties.sum() >= 2
            assert screen_mask(xs, h, est.EPANECHNIKOV, lo, hi)[ties].all()

    def test_screen_prunes_to_a_few_and_keeps_the_pick(self):
        from nullrec.processes import ProcessSpec, generate, linear

        x = generate(ProcessSpec(family="INDEP", f=linear()), 3000, seed=2).x
        xs = np.sort(x)
        h = 1.06 * float(x.std()) * x.size ** (-0.2)
        lo, hi = est._window(xs, h, est.EPANECHNIKOV, 0, xs.size)
        keep = screen_mask(xs, h, est.EPANECHNIKOV, lo, hi)
        assert 1 <= keep.sum() < 10
        assert est.modal_value(x) in xs[keep]

    @pytest.mark.parametrize("name", ["clt_modal_indep.json", "clt_modal_shared.json"])
    def test_shipped_modal_protocols(self, name, monkeypatch):
        import json
        from pathlib import Path

        from nullrec.montecarlo import derive_seed, protocols_from_dict
        from nullrec.processes import generate

        pilots, window = [], est._window
        monkeypatch.setattr(est, "_window", lambda xs, h, *a: pilots.append(h) or window(xs, h, *a))
        path = Path(__file__).resolve().parents[1] / "configs" / name
        for proto in protocols_from_dict(json.loads(path.read_text())):
            for rep in range(200):
                x = generate(proto.process, proto.n, derive_seed(proto.base_seed, rep)).x
                pilots.clear()
                got = est.modal_value(x, proto.kernel)
                # The default pilot is bit for bit the one from x.std().
                assert pilots[0] == 1.06 * float(x.std()) * x.size ** (-0.2)
                assert got == reference_modal_value(x, proto.kernel), (proto.protocol_id, rep)


GAUSS = est.gaussian_truncated(2.5)


def screen_sums(xs, h, kernel, blocks):
    """_centred_sums' estimates and bounds at every point of the sorted
    sample xs, each block [a, b) of `blocks` about its own middle point."""
    lo, hi = est._window(xs, h, kernel, 0, xs.size)
    parts = [est._centred_sums(xs, h, kernel, xs[a:b], lo[a:b], hi[a:b]) for a, b in blocks]
    return (np.concatenate([p[0] for p in parts]),
            np.concatenate([np.broadcast_to(p[2], p[0].shape) for p in parts]))


def slow_shape_sums(xs, h, kernel=GAUSS):
    """The slow reference: K((xs - xs_i)/h).sum() over the whole sample at
    every point, over the kernel's constant (0.75 for the Epanechnikov
    kernel), from the points within 1.01 r h (K is 0 further out)."""
    r = kernel.support_radius
    lo = np.searchsorted(xs, xs - 1.01 * r * h)
    hi = np.searchsorted(xs, xs + 1.01 * r * h, side="right")
    sums = np.array([kernel.weights((xs[a:b] - v) / h).sum() for v, a, b in zip(xs, lo, hi)])
    if kernel.kind == "epanechnikov":
        return sums / 0.75
    return est._SQRT_2PI * math.erf(kernel.c / math.sqrt(2.0)) * sums


def assert_bound_covers_direct_sums(x, h=None, kernel=GAUSS):
    """The screen's estimates lie within their bound of the direct sums: the
    truncated Gaussian's in blocks one h wide; the Epanechnikov kernel's in
    one block, as modal_value screens a sample of at most _BLOCK points, and
    in thirds, whose windows reach into their neighbours."""
    xs = np.sort(x)
    h = 1.06 * float(xs.std()) * xs.size ** (-0.2) if h is None else h
    want = slow_shape_sums(xs, h, kernel)
    if kernel.kind == "epanechnikov":
        cuts = sorted({0, xs.size // 3, 2 * xs.size // 3, xs.size})
        partitions = [[(0, xs.size)], list(zip(cuts[:-1], cuts[1:]))]
    else:
        partitions = [est._blocks(xs, h)]
    for blocks in partitions:
        got, bound = screen_sums(xs, h, kernel, blocks)
        assert np.all(np.abs(got - want) <= bound)


class TestGaussianScreen:
    @pytest.mark.parametrize("shift", [0.0, 1e6])
    @pytest.mark.parametrize("n, walks", [(500, 5), (3000, 3), (20000, 1)])
    def test_bound_covers_direct_sums_on_walks(self, n, walks, shift):
        from nullrec.processes import ProcessSpec, generate, linear

        spec = ProcessSpec(family="INDEP", f=linear())
        for seed in range(walks):
            x = generate(spec, n - 1, seed=seed).x + shift
            assert_bound_covers_direct_sums(x)
            if n > 3000:  # TestModalScreen compares the smaller walks' picks
                assert est.modal_value(x, GAUSS) == reference_modal_value(x, GAUSS)

    def test_bound_covers_direct_sums_with_many_duplicates(self):
        rng = np.random.default_rng(13)
        for x in (np.round(rng.normal(size=2000), 1), np.repeat(rng.normal(size=40), 25),
                  np.cumsum(rng.choice([-1.0, 1.0], size=3000))):
            assert_bound_covers_direct_sums(x)

    @pytest.mark.parametrize("shift", [0.0, 1e6])
    def test_bound_covers_the_window_edge(self, shift):
        # Points exactly c h apart, where the kernel jumps by exp(-c^2/2):
        # rounding puts some of them within c h but outside the kernel's
        # rounded |u| <= c, and the windows must leave those out.
        scale = est._SQRT_2PI * math.erf(GAUSS.c / math.sqrt(2.0))
        dropped = 0  # windows that hold a point the kernel drops
        for h in np.linspace(0.3, 0.7, 9):
            step = GAUSS.c * h
            x = shift + step * np.concatenate([np.arange(-20, 21), np.arange(-20, 21) + 0.5,
                                               np.arange(-3, 4)])
            xs = np.sort(x)
            assert_bound_covers_direct_sums(x, h)
            lo, hi = est._window(xs, h, GAUSS, 0, xs.size)
            dens = est._direct_sums(xs, h, GAUSS, lo, hi, slice(None))
            shape = np.array([np.exp(-0.5 * ((xs[a:b] - v) / h) ** 2).sum()
                              for v, a, b in zip(xs, lo, hi)])
            dropped += int((shape - scale * dens > 1e-3).sum())
            assert est.modal_value(x, GAUSS, h) == reference_modal_value(x, GAUSS, h)
        assert dropped == 0

    def test_screen_keeps_every_tie(self):
        # A sample symmetric about 0 has mirrored modes whose direct sums tie
        # within rounding; the screen must keep both.
        rng = np.random.default_rng(15)
        for _ in range(20):
            y = np.abs(rng.normal(3.0, 1.0, size=int(rng.integers(200, 400))))
            xs = np.sort(np.concatenate([-y, y]))
            h = float(rng.uniform(0.4, 2.0))
            lo, hi = est._window(xs, h, GAUSS, 0, xs.size)
            dens = est._direct_sums(xs, h, GAUSS, lo, hi, slice(None))
            ties = dens >= est._tie_floor(float(dens.max()))
            assert ties.sum() >= 2
            keep = screen_mask(xs, h, GAUSS, lo, hi)
            assert keep[ties].all() and keep.sum() < xs.size / 10

    def test_screen_prunes_to_a_few_and_keeps_the_pick(self):
        from nullrec.processes import ProcessSpec, generate, linear

        x = generate(ProcessSpec(family="INDEP", f=linear()), 3000, seed=2).x
        xs = np.sort(x)
        h = 1.06 * float(x.std()) * x.size ** (-0.2)
        lo, hi = est._window(xs, h, GAUSS, 0, xs.size)
        keep = screen_mask(xs, h, GAUSS, lo, hi)
        assert 1 <= keep.sum() < 10
        assert est.modal_value(x, GAUSS) in xs[keep]

    @pytest.mark.parametrize("c", [2.5, 20.0, 30.0, 1e4])
    def test_vacuous_taylor_bound_is_infinite(self, c):
        # A block's bound is infinite exactly when _MAX_TERMS Taylor terms
        # leave a remainder m R^p / p! of at least m, the trivial bound, with
        # R = max |t_i| max |t_j| (offsets over h from the block's middle
        # point); such a block makes no prefix pass.  A block is under h wide
        # and its windows reach c h past it, so R < c + 1: below c = 23 no
        # block is vacuous.  At c = 30 a block whose points spread near h is,
        # and at c = 1e4, where the radius spans the whole walk, most are.
        from nullrec.processes import ProcessSpec, generate, linear

        x = generate(ProcessSpec(family="INDEP", f=linear()), 1499, seed=0).x
        xs, h, kernel = np.sort(x), 0.5, est.gaussian_truncated(c)
        lo, hi = est._window(xs, h, kernel, 0, xs.size)
        p = est._MAX_TERMS
        vacuous = []
        for a, b in est._blocks(xs, h):
            at = xs[a:b]
            bound = est._centred_sums(xs, h, kernel, at, lo[a:b], hi[a:b])[2]
            t = (xs[lo[a]:hi[b - 1]] - at[at.size // 2]) / h
            ti = (at - at[at.size // 2]) / h
            R = max(-t[0], t[-1]) * max(-ti[0], ti[-1])
            vacuous.append(R > 0 and p * math.log(R) >= math.lgamma(p + 1))
            assert (np.isinf(bound) if vacuous[-1] else np.isfinite(bound)).all()
        if c < 23:
            assert not any(vacuous)
        elif c == 1e4:
            assert any(vacuous)
        assert est.modal_value(x, kernel, h) == reference_modal_value(x, kernel, h)


def direct_kernel_sums(xs, h, v=None):
    """The slow reference: the one-point Epanechnikov sum at every sample point."""
    h = np.broadcast_to(h, xs.shape)
    v = np.ones(xs.size) if v is None else v
    return np.array([est.EPANECHNIKOV.weights((xs - xs[i]) / h[i]) @ v for i in range(xs.size)])


class TestKernelSums:
    @pytest.mark.parametrize("shift", [0.0, 1e6])
    def test_matches_direct_sum(self, shift):
        from nullrec.processes import load_spec, generate

        spec = load_spec("configs/rw_indep.json")
        rng = np.random.default_rng(12)
        for seed in range(3):
            path = generate(spec, 1500, seed=seed)
            order = np.argsort(path.x, kind="stable")
            xs, zs = path.x[order] + shift, path.z[order]
            h0 = 1.06 * float(xs.std()) * xs.size ** (-0.2)
            # cv_constant's per-point bandwidths c0 (T_C p_hat)^(-1/5), from
            # the pilot at the reference bandwidth, and a spread above 4.
            h_ref = 2.0 * est.DEFAULT_WINDOW_HALFWIDTH / 10.0
            h_cv = 2.0 * (direct_kernel_sums(xs, h_ref) / h_ref) ** (-0.2)
            h_wide = h0 * rng.uniform(0.25, 1.5, xs.size)
            assert h_wide.max() > 4.0 * h_wide.min()
            for h in (h0, h0 * rng.uniform(0.5, 1.5, xs.size), h_cv, h_wide):
                lo, hi = est._window(xs, h, est.EPANECHNIKOV, 0, xs.size)
                got, none = est._kernel_sums(xs, h, lo, hi)
                got_z = est._kernel_sums(xs, h, lo, hi, zs)
                # One pass gives the weighted sums and the same unweighted ones.
                assert none is None and np.array_equal(got_z[0], got)
                for v, got in ((None, got), (zs, got_z[1])):
                    want = direct_kernel_sums(xs, h, v)
                    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("shift", [0.0, 1e6])
    def test_centred_sums_equal_the_plain_expression(self, shift):
        # The whole sample (a = 0, `at` is xs[a:b]) and its middle third,
        # whose windows reach outside it, for one bandwidth and one per
        # point, with and without weights: bit for bit the plain expression.
        from nullrec.processes import ProcessSpec, generate, linear

        rng = np.random.default_rng(31)
        for seed in range(3):
            path = generate(ProcessSpec(family="INDEP", f=linear()), 1500, seed=seed)
            order = np.argsort(path.x, kind="stable")
            xs, zs = path.x[order] + shift, path.z[order]
            h0 = 1.06 * float(xs.std()) * xs.size ** (-0.2)
            k = xs.size // 3
            for h in (h0, h0 * rng.uniform(0.5, 1.5, xs.size)):
                lo, hi = est._window(xs, h, est.EPANECHNIKOV, 0, xs.size)
                assert lo[k] < k and hi[2 * k - 1] > 2 * k
                for a0, b0 in ((0, xs.size), (k, 2 * k)):
                    hk = h if np.ndim(h) == 0 else h[a0:b0]
                    args = (xs, hk, est.EPANECHNIKOV, xs[a0:b0], lo[a0:b0], hi[a0:b0])
                    got, got_v, _ = est._centred_sums(*args, zs)
                    assert np.array_equal(est._centred_sums(*args)[0], got)
                    assert np.array_equal(got, reference_centred_sums(*args))
                    assert np.array_equal(got_v, reference_centred_sums(*args, zs))

    def test_window_edges(self):
        # The Epanechnikov weight is 0 at |u| = 1, so its windows are open
        # there; the truncated Gaussian weights |u| = c, so its are closed.
        xs = np.array([0.0, 1.0, 2.0, 2.0, 5.0])
        for h in (1.0, np.full(5, 1.0)):
            lo, hi = est._window(xs, h, est.EPANECHNIKOV, 0, xs.size)
            np.testing.assert_array_equal(lo, [0, 1, 2, 2, 4])
            np.testing.assert_array_equal(hi, [1, 2, 4, 4, 5])
            lo, hi = est._window(xs, h, est.gaussian_truncated(1.0), 0, xs.size)
            np.testing.assert_array_equal(lo, [0, 0, 1, 1, 4])
            np.testing.assert_array_equal(hi, [2, 4, 4, 4, 5])


def reference_centred_sums(xs, h, kernel, at, lo, hi, v=None):
    """The slow reference for _centred_sums' Epanechnikov sums: the window
    sums of v, d v and d^2 v from np.cumsum, and its docstring's expression
    S0 - (S2 - d_i (2 S1 - d_i S0)) / h_i^2 written out plainly."""
    a, b = int(lo.min()), int(hi.max())
    c = at[at.size // 2]
    d = xs[a:b] - c
    v = np.ones(b - a) if v is None else v[a:b]
    p0, p1, p2 = (np.concatenate([[0.0], np.cumsum(w)]) for w in (v, d * v, d * v * d))
    i, j, di, hh = lo - a, hi - a, at - c, h * h
    s0 = p0[j] - p0[i]
    return s0 - (p2[j] - p2[i] - di * (2.0 * (p1[j] - p1[i]) - di * s0)) / hh


def brute_force_window(xs, h, kernel):
    """[lo_i, hi_i) at each point of the sorted xs from the positive
    Kernel.weights over the whole sample, checked to be one run."""
    h = np.broadcast_to(h, xs.shape)
    bounds = []
    for i in range(xs.size):
        rows = np.flatnonzero(kernel.weights((xs - xs[i]) / h[i]) > 0.0)
        np.testing.assert_array_equal(rows, np.arange(rows[0], rows[-1] + 1))
        bounds.append((rows[0], rows[-1] + 1))
    return np.array(bounds).T


def window_test_samples():
    """Sorted samples with a bandwidth each: walks, duplicates and lattices
    whose spacing is a multiple of c h (c = 2.5) or of h, each also shifted by 1e6."""
    from nullrec.processes import ProcessSpec, generate, linear

    rng = np.random.default_rng(21)
    samples = []
    for seed in range(2):
        x = generate(ProcessSpec(family="INDEP", f=linear()), 399, seed=seed).x
        samples.append((x, 1.06 * float(x.std()) * x.size ** (-0.2)))
    samples += [(np.round(rng.normal(size=500), 1), 0.1), (np.repeat(rng.normal(size=20), 20), 0.3),
                (np.cumsum(rng.choice([-1.0, 1.0], size=500)), 1.0)]
    k = np.concatenate([np.arange(-20, 21), np.arange(-20, 21) + 0.5, np.arange(-3, 4)])
    for h in (0.34, 0.39, 0.51, 0.68):
        samples += [(2.5 * h * k, h), (h * k, h)]
    return [(np.sort(x + shift), h) for x, h in samples for shift in (0.0, 1e6)]


class TestWindow:
    @pytest.mark.parametrize("kernel", [est.EPANECHNIKOV, est.gaussian_truncated(2.5)])
    def test_holds_exactly_the_rows_of_positive_weight(self, kernel):
        rng = np.random.default_rng(22)
        for xs, h in window_test_samples():
            for hh in (h, h * rng.uniform(0.5, 1.5, xs.size)):
                lo, hi = est._window(xs, hh, kernel, 0, xs.size)
                want_lo, want_hi = brute_force_window(xs, hh, kernel)
                np.testing.assert_array_equal(lo, want_lo)
                np.testing.assert_array_equal(hi, want_hi)

    @pytest.mark.parametrize("kernel", [est.EPANECHNIKOV, est.gaussian_truncated(2.5)])
    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_every_block_range(self, kernel, block):
        # Range by range as modal_value steps through the sample, with the
        # lower ends of each halo passed on to the next range.
        rng = np.random.default_rng(23)
        for xs, h in window_test_samples():
            hh = h * rng.uniform(0.5, 1.5, xs.size)
            want_lo, want_hi = brute_force_window(xs, h, kernel)
            want_lo_hh, want_hi_hh = brute_force_window(xs, hh, kernel)
            head = ()
            for a0 in range(0, xs.size, block):
                b0 = min(a0 + block, xs.size)
                lo, hi = est._window(xs, h, kernel, a0, b0, head)
                np.testing.assert_array_equal(lo, want_lo[a0:a0 + lo.size])
                np.testing.assert_array_equal(hi, want_hi[a0:b0])
                # lo covers the range and every point whose window reaches into it
                assert lo.size >= b0 - a0 and (want_lo[a0 + lo.size:] >= b0).all()
                head = lo[b0 - a0:]
                lo, hi = est._window(xs, hh[a0:b0], kernel, a0, b0)
                np.testing.assert_array_equal(lo, want_lo_hh[a0:b0])
                np.testing.assert_array_equal(hi, want_hi_hh[a0:b0])


class TestCvMemory:
    def test_linear_memory_at_1e5(self):
        import tracemalloc

        from nullrec.processes import ProcessSpec, generate, linear

        path = generate(ProcessSpec(family="INDEP", f=linear()), 100_000, seed=3)
        tracemalloc.start()
        try:
            est.cv_constant(path.x, path.z, [0.5, 1.0, 2.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20


class TestModalMemory:
    def test_half_the_two_grid_peak_at_1e6(self):
        import tracemalloc

        from nullrec.processes import ProcessSpec, generate, linear

        x = generate(ProcessSpec(family="INDEP", f=linear()), 1_000_000, seed=3).x
        tracemalloc.start()
        try:
            est.modal_value(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 99 * 2**20

    @pytest.mark.parametrize("n", [1_000_000, 2_000_000])
    def test_working_memory_does_not_grow_with_n(self, n):
        # Beyond the sorted copy, modal_value holds one block of _BLOCK
        # points with its windows at a time.
        import tracemalloc

        x = np.cumsum(np.random.default_rng(n).standard_normal(n))
        tracemalloc.start()
        try:
            est.modal_value(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - 8 * n < 16 * 2**20
