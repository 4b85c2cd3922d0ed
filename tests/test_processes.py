import json
import math
from itertools import islice

import numpy as np
import pytest

import nullrec.processes as pr
from nullrec.algebra import load_model
from nullrec.errors import InvalidSpec, UnknownProcessFamily, WrongFamily
from nullrec.montecarlo import ks_normal
from tests.conftest import random_model


@pytest.fixture
def indep():
    return pr.ProcessSpec(family="INDEP", f=pr.linear())


class TestSpecValidation:
    def test_unknown_family(self):
        with pytest.raises(UnknownProcessFamily):
            pr.ProcessSpec(family="BOGUS")

    def test_ar1_needs_contraction(self):
        with pytest.raises(InvalidSpec):
            pr.ProcessSpec(family="AR1_LINKED", a=1.0)
        pr.ProcessSpec(family="AR1_LINKED", a=0.99)

    def test_finite_product_needs_chains(self):
        with pytest.raises(InvalidSpec):
            pr.ProcessSpec(family="FINITE_PRODUCT")

    def test_transfer_kinds(self):
        assert pr.linear(2.0, 1.0)(3.0) == 7.0
        table = pr.Transfer("table", xs=(0.0, 1.0), ys=(0.0, 2.0))
        assert table(0.5) == 1.0
        with pytest.raises(InvalidSpec):
            pr.Transfer("table", xs=(0.0,), ys=(1.0,))
        with pytest.raises(InvalidSpec):
            pr.Transfer("cubic")


class TestGenerate:
    def test_determinism_and_prefix_stability(self, indep):
        a = pr.generate(indep, 1000, seed=5)
        b = pr.generate(indep, 1000, seed=5)
        longer = pr.generate(indep, 2000, seed=5)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.z, b.z)
        np.testing.assert_array_equal(longer.x[:1001], a.x)
        np.testing.assert_array_equal(longer.z[:1001], a.z)
        assert not np.array_equal(pr.generate(indep, 1000, seed=6).x, a.x)

    def test_disturbance_recovered_to_rounding(self):
        for family in ("INDEP", "SHARED_INNOVATION", "AR1_LINKED", "MA_LINKED"):
            spec = pr.ProcessSpec(family=family, f=pr.linear(2.0, -1.0))
            path = pr.generate(spec, 500, seed=3)
            np.testing.assert_allclose(path.z - spec.f(path.x), path.w,
                                       rtol=1e-12, atol=1e-13)

    def test_indep_residual_is_standard_normal(self, indep):
        path = pr.generate(indep, 10_000, seed=11)
        resid = path.z - path.x
        assert ks_normal(resid) < 1.63 / math.sqrt(len(resid))  # level 0.01

    def test_walk_starts_at_x0(self):
        spec = pr.ProcessSpec(family="INDEP", f=pr.linear(), x0=3.5)
        path = pr.generate(spec, 100, seed=0)
        assert path.x[0] == 3.5
        np.testing.assert_allclose(np.diff(path.x), path.e[1:], atol=1e-15)

    def test_degenerate_walk_noise(self):
        spec = pr.ProcessSpec(family="INDEP", f=pr.linear(2.0, 1.0), sigma_e=0.0)
        path = pr.generate(spec, 200, seed=4)
        assert (path.x == 0.0).all()
        np.testing.assert_array_equal(path.z, 1.0 + path.w)

    def test_shared_innovation_correlation(self):
        spec = pr.ProcessSpec(family="SHARED_INNOVATION", f=pr.linear())
        path = pr.generate(spec, 100_000, seed=7)
        r = np.corrcoef(path.e[1:], path.w[1:])[0, 1]
        assert abs(r - math.sqrt(0.5)) < 0.02

    def test_unit_disturbance_variance(self):
        for family in ("INDEP", "SHARED_INNOVATION", "MA_LINKED"):
            spec = pr.ProcessSpec(family=family, f=pr.linear())
            path = pr.generate(spec, 100_000, seed=9)
            v = path.w[1:].var()
            se = math.sqrt(2.0 / len(path.w))
            assert abs(v - 1.0) < 4 * se

    def test_ma_linked_uses_lagged_innovations(self):
        spec = pr.ProcessSpec(family="MA_LINKED", f=pr.linear())
        path = pr.generate(spec, 50_000, seed=13)
        w, e = path.w, path.e
        # contemporaneous and one-step-lag loadings are both 1/sqrt(3)
        r0 = np.corrcoef(e[1:], w[1:])[0, 1]
        r1 = np.corrcoef(e[1:-1], w[2:])[0, 1]
        assert abs(r0 - 1 / math.sqrt(3)) < 0.02
        assert abs(r1 - 1 / math.sqrt(3)) < 0.02

    def test_finite_product_uses_state_values(self, two_state):
        wm = random_model(np.random.default_rng(1), d=3)
        spec = pr.ProcessSpec(family="FINITE_PRODUCT", f=pr.linear(1.0, 0.0),
                              x_chain=two_state, w_chain=wm)
        path = pr.generate(spec, 1000, seed=2)
        assert set(np.unique(path.x)) <= {0.0, 1.0}
        np.testing.assert_array_equal(path.z, path.x + path.w)


class TestStream:
    """Blocks of stream() concatenated are bit-identical to one generate()
    call, across block boundaries, for every family."""

    N = 2500

    def _specs(self):
        rng = np.random.default_rng(4)
        for family in pr.FAMILIES:
            chains = {}
            if family == "FINITE_PRODUCT":
                chains = dict(x_chain=random_model(rng, d=3), w_chain=random_model(rng, d=5))
            yield pr.ProcessSpec(family=family, f=pr.linear(1.5, -0.25), x0=-2.75, **chains)

    def test_blocks_match_one_shot(self):
        rows = self.N + 1
        for spec in self._specs():
            for seed in (0, 21):
                whole = pr.generate(spec, self.N, seed)
                for chunk in (1, 2, 997, rows):
                    blocks = list(islice(pr.stream(spec, seed, chunk=chunk), -(-rows // chunk)))
                    assert all(len(b.x) == chunk for b in blocks)
                    for name in ("x", "w", "z", "e"):
                        want = getattr(whole, name)
                        got = [getattr(b, name) for b in blocks]
                        if want is None:
                            assert all(g is None for g in got)
                            continue
                        np.testing.assert_array_equal(np.concatenate(got)[:rows], want,
                                                      err_msg=f"{spec.family} {name} {chunk}")

    def test_invalid_chunk(self, indep):
        with pytest.raises(InvalidSpec):
            next(pr.stream(indep, 0, chunk=0))


def reference_ar1(spec, rows, seed):
    """The AR1_LINKED disturbance by the per-index loop over numpy scalars,
    over the time-major draws of one run: w_t = a w_{t-1} + b e_t + u_t."""
    E = np.random.default_rng(seed).standard_normal((rows, 2))
    e = spec.sigma_e * E[:, 0]
    u = spec.sigma_u * E[:, 1]
    w = np.empty(rows)
    w[0] = pr._ar1_stationary_sd(spec) * E[0, 1]
    for t in range(1, rows):
        w[t] = spec.a * w[t - 1] + spec.b * e[t] + u[t]
    return w


class TestAr1AgainstSlowReference:
    SPEC = pr.ProcessSpec(family="AR1_LINKED", a=-0.83, b=0.37, sigma_e=1.9, sigma_u=0.45,
                          x0=1.25)

    @pytest.mark.parametrize("chunk", [1, 997, 65535, 65536, 65537])
    def test_stream_blocks(self, chunk):
        rows = max(3 * chunk, 3000)
        blocks = list(islice(pr.stream(self.SPEC, 13, chunk=chunk), -(-rows // chunk)))
        w = np.concatenate([b.w for b in blocks])[:rows]
        assert np.array_equal(w, reference_ar1(self.SPEC, rows, 13))

    def test_generate_spans_several_slices(self):
        rows = 3 * 65536 + 7
        path = pr.generate(self.SPEC, rows - 1, 14)
        assert np.array_equal(path.w, reference_ar1(self.SPEC, rows, 14))
        assert np.array_equal(path.z, self.SPEC.f(path.x) + path.w)


class TestAr1Moments:
    def test_formula_values(self):
        spec = pr.ProcessSpec(family="AR1_LINKED", a=0.5, b=1.0, sigma_e=1.0)
        assert pr.theoretical_cross_moment(spec, 0) == pytest.approx(1.0)
        assert pr.theoretical_cross_moment(spec, 1) == pytest.approx(1.5)
        assert pr.theoretical_cross_moment(spec, 10 ** 6) == pytest.approx(2.0)
        zero_b = pr.ProcessSpec(family="AR1_LINKED", a=0.5, b=0.0)
        for t in (0, 5, 100):
            assert pr.theoretical_cross_moment(zero_b, t) == 0.0

    def test_wrong_family(self, indep):
        with pytest.raises(WrongFamily):
            pr.theoretical_cross_moment(indep, 3)
        with pytest.raises(WrongFamily):
            pr.ar1_snapshots(indep, [1], 10)

    def test_monte_carlo_cross_moment(self):
        spec = pr.ProcessSpec(family="AR1_LINKED", a=0.5, b=1.0)
        reps = 20_000
        snaps = pr.ar1_snapshots(spec, [200], reps, seed=5)
        x, w = snaps[200]
        prod = x * w
        se = prod.std(ddof=1) / math.sqrt(reps)
        assert abs(prod.mean() - pr.theoretical_cross_moment(spec, 200)) < 4 * se

    def test_corr_decay_monotone(self):
        spec = pr.ProcessSpec(family="AR1_LINKED", a=0.5, b=1.0)
        ts = [50, 100, 200, 400]
        corrs, ses = pr.empirical_corr_decay(spec, ts, reps=20_000, seed=6)
        for i in range(len(ts) - 1):
            assert corrs[i + 1] < corrs[i] + ses[i]

    def test_corr_vanishes_without_loading(self):
        spec = pr.ProcessSpec(family="AR1_LINKED", a=0.5, b=0.0)
        corrs, ses = pr.empirical_corr_decay(spec, [100, 400], reps=20_000, seed=7)
        assert (np.abs(corrs) < 4 * ses).all()


class TestSpecJson:
    def test_finite_product_with_inline_chains(self, two_state):
        with open("configs/threestate.json") as fh:
            three = json.load(fh)
        spec = pr.spec_from_dict({
            "family": "FINITE_PRODUCT",
            "f": {"kind": "linear", "a": 1.0, "b": -5.0},
            "params": {"x_chain": {"states": [0, 1], "P": [[0.5, 0.5], [0.5, 0.5]],
                                   "s": [0.5, 0.5], "nu": [0.5, 0.5]},
                       "w_chain": three},
            "x0": 0.5,
        })
        assert spec == pr.ProcessSpec(family="FINITE_PRODUCT", f=pr.linear(1.0, -5.0), x0=0.5,
                                      x_chain=two_state,
                                      w_chain=load_model("configs/threestate.json"))

    def test_defaults(self):
        spec = pr.spec_from_dict({"family": "INDEP"})
        assert spec.f.kind == "linear" and spec.f.a == 1.0 and spec.f.b == 0.0
        assert spec.x0 == 0.0 and spec.halfwidth == 0.5
