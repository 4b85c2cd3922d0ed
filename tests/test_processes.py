import json
import math
from itertools import islice

import numpy as np
import pytest

import nullrec.processes as pr
from nullrec.algebra import load_model
from nullrec.errors import InvalidSpec, UnknownProcessFamily, WrongFamily
from nullrec.montecarlo import ks_critical, ks_normal
from tests.conftest import ks_two_sample, ks_two_sample_critical, random_model


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

    @pytest.mark.parametrize("param", ["a", "b", "x0", "sigma_e", "sigma_u", "sigma_w"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_parameters_must_be_finite(self, param, value):
        with pytest.raises(InvalidSpec):
            pr.ProcessSpec(family="INDEP", **{param: value})

    @pytest.mark.parametrize("param", ["sigma_e", "sigma_u", "sigma_w"])
    def test_scales_must_not_be_negative(self, param):
        # A negative sigma_e would give band_walk a negative margin, so it
        # would skip every band row.
        with pytest.raises(InvalidSpec):
            pr.ProcessSpec(family="INDEP", **{param: -1.0})
        pr.ProcessSpec(family="INDEP", **{param: 0.0})

    def test_negative_length(self, indep):
        with pytest.raises(InvalidSpec):
            pr.generate(indep, -1, 0)

    def test_transfer_kinds(self):
        assert pr.linear(2.0, 1.0)(3.0) == 7.0
        table = pr.Transfer("table", xs=(0.0, 1.0), ys=(0.0, 2.0))
        assert table(0.5) == 1.0
        with pytest.raises(InvalidSpec):
            pr.Transfer("table", xs=(0.0,), ys=(1.0,))
        with pytest.raises(InvalidSpec):
            pr.Transfer("cubic")

    BAD_TABLES = {"decreasing": ((0.0, 2.0, 1.0), (0.0, 1.0, 2.0)),
                  "repeated": ((0.0, 1.0, 1.0), (0.0, 1.0, 2.0)),
                  "nan-x": ((0.0, math.nan), (0.0, 1.0)), "inf-x": ((0.0, math.inf), (0.0, 1.0)),
                  "nan-y": ((0.0, 1.0), (0.0, math.nan)), "inf-y": ((0.0, 1.0), (-math.inf, 1.0)),
                  "lengths": ((0.0, 1.0, 2.0), (0.0, 1.0))}

    @pytest.mark.parametrize("case", BAD_TABLES)
    def test_table_needs_finite_increasing_xs(self, case):
        # np.interp would read (0, 2, 1) as f(0.5) = 0.25 and f(1.5) = 2.
        xs, ys = self.BAD_TABLES[case]
        with pytest.raises(InvalidSpec, match="table transfer"):
            pr.Transfer("table", xs=xs, ys=ys)
        with pytest.raises(InvalidSpec, match="table transfer"):
            pr.spec_from_dict({"family": "INDEP", "f": {"kind": "table", "xs": xs, "ys": ys}})

    def test_valid_table_interpolates_as_np_interp(self):
        xs, ys = (-2.0, -0.5, 0.0, 3.0), (4.0, 0.25, 0.0, 9.0)
        table = pr.spec_from_dict({"family": "INDEP",
                                   "f": {"kind": "table", "xs": xs, "ys": ys}}).f
        x = np.linspace(-3.0, 4.0, 57)
        assert np.array_equal(table(x), np.interp(x, xs, ys))


class TestTableTransfer:
    """A table converts its grid once, at construction."""

    GRID = np.linspace(-3.0, 3.0, 2001)

    def table(self, shift=0.0):
        return pr.Transfer("table", xs=tuple(self.GRID.tolist()),
                           ys=tuple((np.sin(self.GRID) + shift).tolist()))

    def test_calls_match_np_interp_on_arrays(self):
        table = self.table()
        ys = np.sin(self.GRID)
        for x in (np.linspace(-4.0, 4.0, 777), self.GRID, np.array([-3.0, 0.1, 3.0]), 0.25):
            assert np.asarray(table(x)).tobytes() == np.asarray(
                np.interp(x, self.GRID, ys)).tobytes()

    def test_equal_specs_hash_and_compare_equal(self):
        # run_protocols groups protocols by their process, table included.
        a, b = self.table(), self.table()
        assert a == b and hash(a) == hash(b)
        assert a != self.table(shift=1.0)
        specs = [pr.ProcessSpec(family="INDEP", f=t) for t in (a, b)]
        assert specs[0] == specs[1] and hash(specs[0]) == hash(specs[1])


class TestLinearTransferAgainstReference:
    """The linear transfer, built in place, equals a * x + b bit for bit."""

    F = pr.linear(0.7, -1.3)

    def reference(self, x):
        return self.F.a * np.asarray(x, dtype=float) + self.F.b

    @pytest.mark.parametrize("n", [1000, 100_000])
    @pytest.mark.parametrize("shift", [0.0, 1e6])
    def test_walks(self, indep, n, shift):
        x = np.concatenate([pr.generate(indep, n - 1, seed=n).x + shift, [-0.0, 0.0]])
        got, want = self.F(x), self.reference(x)
        assert got.tobytes() == want.tobytes() and got.dtype == want.dtype

    @pytest.mark.parametrize("x", [7.5, -0.0, np.float64(1e6 + 0.1), np.array(3.0), 2])
    def test_zero_dimensional_input(self, x):
        got, want = self.F(x), self.reference(x)
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


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
        e = pr.keyed_rng(0).standard_normal(101)  # the walk's draws at sigma_e = 1
        np.testing.assert_allclose(np.diff(path.x), e[1:], atol=1e-15)

    def test_degenerate_walk_noise(self):
        spec = pr.ProcessSpec(family="INDEP", f=pr.linear(2.0, 1.0), sigma_e=0.0)
        path = pr.generate(spec, 200, seed=4)
        assert (path.x == 0.0).all()
        np.testing.assert_array_equal(path.z, 1.0 + path.w)

    def test_shared_innovation_correlation(self):
        spec = pr.ProcessSpec(family="SHARED_INNOVATION", f=pr.linear())
        path = pr.generate(spec, 100_000, seed=7)
        r = np.corrcoef(np.diff(path.x), path.w[1:])[0, 1]
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
        w, e = path.w, np.diff(path.x)  # e[t - 1] = e_t
        # contemporaneous and one-step-lag loadings are both 1/sqrt(3)
        r0 = np.corrcoef(e, w[1:])[0, 1]
        r1 = np.corrcoef(e[:-1], w[2:])[0, 1]
        assert abs(r0 - 1 / math.sqrt(3)) < 0.02
        assert abs(r1 - 1 / math.sqrt(3)) < 0.02

    def test_finite_product_uses_state_values(self, two_state):
        wm = random_model(np.random.default_rng(1), d=3)
        spec = pr.ProcessSpec(family="FINITE_PRODUCT", f=pr.linear(1.0, 0.0),
                              x_chain=two_state, w_chain=wm)
        path = pr.generate(spec, 1000, seed=2)
        assert set(np.unique(path.x)) <= {0.0, 1.0}
        np.testing.assert_array_equal(path.z, path.x + path.w)


def reference_generate(spec, n, seed):
    """generate as one stream block of n + 1 rows: the slow reference for
    the block-by-block writes of a long path."""
    x, w = next(pr.stream(spec, seed, chunk=n + 1))
    return pr.GeneratedPath(x, w, spec.f(x) + w)


def family_specs():
    """One spec of each family, with x0 != 0 and sigma_w != 1."""
    rng = np.random.default_rng(4)
    for family in pr.FAMILIES:
        chains = {}
        if family == "FINITE_PRODUCT":
            chains = dict(x_chain=random_model(rng, d=3), w_chain=random_model(rng, d=5))
        yield pr.ProcessSpec(family=family, f=pr.linear(1.5, -0.25), x0=-2.75,
                             sigma_w=0.8, **chains)


class TestGenerateAgainstOneBlock:
    """generate writes a path of more than _STREAM_BLOCK rows block by block
    into its outputs; every output equals the one-block reference."""

    B = pr._STREAM_BLOCK

    @pytest.mark.parametrize("rows", [1, B - 1, B, B + 1, 3 * B + 5])
    @pytest.mark.parametrize("seed", [0, 2 ** 32 + 7])
    def test_outputs_match(self, rows, seed):
        for spec in family_specs():
            got, want = pr.generate(spec, rows - 1, seed), reference_generate(spec, rows - 1, seed)
            for name in ("x", "w", "z"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), (spec.family, name)


class TestShorterRunIsAPrefix:
    """generate(spec, n, seed) is rows 0..n of generate(spec, N, seed), byte
    for byte: run_protocols draws a replication's path once, at its largest
    size, and reads each smaller size from its first rows."""

    B = pr._STREAM_BLOCK
    N = 3 * B + 5

    @pytest.mark.parametrize("n", [0, 1, 500, B - 1, B, B + 1])
    def test_every_family(self, n):
        for spec in family_specs():
            short, whole = pr.generate(spec, n, 9), pr.generate(spec, self.N, 9)
            for name in ("x", "w", "z"):
                assert getattr(short, name).tobytes() == \
                    getattr(whole, name)[:n + 1].tobytes(), (spec.family, name)


class TestGenerateMemory:
    # Beyond x, w and z, generate holds one block of the stream: its draw
    # buffer (at most 3 columns of _STREAM_BLOCK floats), the block's x and w
    # and those of the block before it (4 columns), the AR1 products b e and
    # u (2 columns) and the Python floats of the AR1 recursion or of
    # step_chain (about 4 columns per list, at most 3 lists): about 21
    # columns, some 1.3 MiB.  The bound is 64 columns, 4 MiB; one block of
    # the whole path would hold several 8-byte arrays of its length.
    LIMIT = 64 * 8 * pr._STREAM_BLOCK

    @pytest.mark.parametrize("spec", list(family_specs()), ids=lambda s: s.family)
    def test_working_memory_is_one_block(self, spec):
        import tracemalloc

        rows = 200_000 if spec.family == "FINITE_PRODUCT" else 1_000_000
        tracemalloc.start()
        try:
            path = pr.generate(spec, rows - 1, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.z.size == rows
        assert peak - 3 * 8 * rows < self.LIMIT


class TestStream:
    """The (x, w) blocks of stream() concatenated are bit-identical to one
    block of the whole run, across block boundaries, for every family.
    N + 1 rows span more than two default blocks."""

    N = 2 * pr._STREAM_BLOCK + 700

    def test_blocks_match_one_shot(self):
        rows = self.N + 1
        for spec in family_specs():
            for seed in (0, 21):
                whole = reference_generate(spec, self.N, seed)
                for chunk in (1, 997, pr._STREAM_BLOCK, rows):
                    blocks = list(islice(pr.stream(spec, seed, chunk=chunk), -(-rows // chunk)))
                    assert all(len(x) == chunk for x, _ in blocks)
                    # Each block's draws refill one buffer: no array of a block
                    # may share it with the next block's arrays.
                    for b0, b1 in zip(blocks[:3], blocks[1:4]):
                        assert not any(np.shares_memory(u, v) for u in b0 for v in b1)
                    x = np.concatenate([x for x, _ in blocks])[:rows]
                    np.testing.assert_array_equal(x, whole.x, err_msg=f"{spec.family} x {chunk}")
                    w = np.concatenate([w for _, w in blocks])[:rows]
                    np.testing.assert_array_equal(w, whole.w, err_msg=f"{spec.family} w {chunk}")
                    np.testing.assert_array_equal(spec.f(x) + w, whole.z)

    def test_indep_blocks_read_the_disturbance(self):
        # Each block's w is its rows of generate's w, which is one draw over
        # the whole path: the first rows of stream (2, 0) in time order.
        spec = next(family_specs())
        rows = self.N + 1
        for seed in (5, 2 ** 32 + 7):
            whole = pr.generate(spec, self.N, seed)
            for chunk in (1, 997, pr._STREAM_BLOCK + 1):
                blocks = islice(pr.stream(spec, seed, chunk=chunk), -(-rows // chunk))
                for k, (x, w) in enumerate(blocks):
                    a, b = k * chunk, min((k + 1) * chunk, rows)
                    np.testing.assert_array_equal(x[:b - a], whole.x[a:b])
                    np.testing.assert_array_equal(w[:b - a], whole.w[a:b])
            words = [seed % 2 ** 32, seed // 2 ** 32, 2, 0]
            eps = np.random.default_rng(words).standard_normal(rows)
            np.testing.assert_array_equal(whole.w, spec.sigma_w * eps)
            for n in (8190, 8191, 8192):  # a shorter run is a prefix
                assert pr.generate(spec, n, seed).w.tobytes() == whole.w[:n + 1].tobytes()

    def test_invalid_chunk(self, indep):
        with pytest.raises(InvalidSpec):
            next(pr.stream(indep, 0, chunk=0))


class TestKeyedRng:
    """One seed contract: the seed fills two 32-bit words and the key
    follows, so streams of different seeds or keys never share draws."""

    BIG = (2 ** 32, 2 ** 32 + 7, 2 ** 33 + 5, 2 ** 63 + 11, 2 ** 64 - 1)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, -(2 ** 63)])
    def test_seed_out_of_range(self, seed, indep):
        with pytest.raises(InvalidSpec):
            pr.keyed_rng(seed)
        with pytest.raises(InvalidSpec):
            pr.generate(indep, 5, seed)

    def test_empty_key_is_the_int_seed(self):
        for seed in (0, 1, 5, 2 ** 32 - 1, *self.BIG):
            np.testing.assert_array_equal(pr.keyed_rng(seed).random(8),
                                          np.random.default_rng(seed).random(8))

    def test_keyed_streams_of_big_seeds_are_the_list_keys(self):
        # A seed of at least 2**32 already fills two words as a list entry.
        for seed in self.BIG:
            for key in ((pr.KEY_SPLIT_FLAGS,), (pr.KEY_INDEP_W, 0), (pr.KEY_INDEP_W, 3),
                        (pr.KEY_PASSAGE,), (pr.KEY_EXCURSION, 2), (pr.KEY_OFF_BAND_W,)):
                np.testing.assert_array_equal(
                    pr.keyed_rng(seed, *key).random(8),
                    np.random.default_rng([seed, *key]).random(8))

    def test_streams_of_neighbouring_seeds_differ(self, indep):
        # Keyed by [seed, *key] alone, both pairs below drew the same numbers.
        for seed in (0, 5, 2 ** 32 - 1):
            assert not np.array_equal(pr.generate(indep, 5, seed).w,
                                      pr.keyed_rng(seed + 2 ** 33).standard_normal(6))
            assert not np.array_equal(pr.keyed_rng(seed, pr.KEY_SPLIT_FLAGS).random(8),
                                      pr.keyed_rng(seed + 2 ** 32).random(8))


def walk_rows(spec, seed, band, limit, fill):
    """band_walk's rows as one array, and their row numbers."""
    blocks = list(pr.band_walk(spec, seed, band, limit, fill=fill))
    if not blocks:
        return np.empty(0), np.empty(0, dtype=int)
    return (np.concatenate([x for _, x in blocks]),
            np.concatenate([start + np.arange(len(x)) for start, x in blocks]))


class TestBandWalk:
    """band_walk steps an INDEP walk near a band and jumps over its far
    excursions; filled in, its paths are plain walks in law, and its band
    rows are those of the filled path."""

    BAND = (5.0, 10.0)

    def assert_band_rows_of_the_filled_path(self, spec, seed, limit):
        x, rows = walk_rows(spec, seed, self.BAND, limit, fill=False)
        whole, whole_rows = walk_rows(spec, seed, self.BAND, limit, fill=True)
        np.testing.assert_array_equal(whole_rows, np.arange(limit))
        in_band = (whole >= self.BAND[0]) & (whole <= self.BAND[1])
        assert np.isin(whole_rows[in_band], rows).all()
        kept = np.isin(whole_rows, rows)
        assert x.tobytes() == whole[kept].tobytes()
        return int(len(rows))

    @pytest.mark.parametrize("sigma_e", [1.0, 0.3])
    def test_band_rows_are_those_of_the_filled_path(self, sigma_e):
        m = pr._MARGIN * sigma_e
        starts = (7.5, 0.0, 10.0 + m / 2, 5.0 - m / 2, 10.0 + m, np.nextafter(10.0 + m, 99.0),
                  -40.0 * m)
        drawn = 0
        for seed, x0 in enumerate(starts):
            spec = pr.ProcessSpec(family="INDEP", sigma_e=sigma_e, x0=float(x0))
            drawn += self.assert_band_rows_of_the_filled_path(spec, seed, 20_000)
        assert drawn < 0.8 * 20_000 * len(starts)  # the walks were jumped over

    def test_rows_are_a_prefix_of_a_longer_run(self):
        spec = pr.ProcessSpec(family="INDEP")
        for fill in (False, True):
            x, rows = walk_rows(spec, 3, self.BAND, 50_000, fill)
            for limit in (1, 2, 511, 512, 513, 20_001):
                short, short_rows = walk_rows(spec, 3, self.BAND, limit, fill)
                np.testing.assert_array_equal(short_rows, rows[rows < limit])
                assert short.tobytes() == x[rows < limit].tobytes()

    @pytest.mark.parametrize("x0", [1e6, -1e6])
    def test_far_start_draws_no_row(self, x0):
        # Its first passage lies far beyond the guard: one jump, no stepped block.
        spec = pr.ProcessSpec(family="INDEP", x0=x0)
        assert list(pr.band_walk(spec, 1, self.BAND, 1_000_001)) == []

    @pytest.mark.parametrize("x0", [0.0, 7.5])
    def test_zero_sigma_stays_put(self, x0):
        spec = pr.ProcessSpec(family="INDEP", sigma_e=0.0, x0=x0)
        x, rows = walk_rows(spec, 1, self.BAND, 10_000, fill=False)
        assert len(x) == (10_000 if x0 == 7.5 else 0)
        whole, _ = walk_rows(spec, 1, self.BAND, 10_000, fill=True)
        np.testing.assert_array_equal(whole, np.full(10_000, x0))

    def test_filled_paths_are_walks_in_law(self):
        # sigma_e 0.25 from x0 = 2, below the band: by t = 3000 the walk's sd
        # is 13.7, so about half of the rows are jumped over and filled in.
        spec = pr.ProcessSpec(family="INDEP", sigma_e=0.25, x0=2.0)
        n, reps = 3000, 1000
        filled = np.array([walk_rows(spec, seed, self.BAND, n + 1, fill=True)[0]
                           for seed in range(reps)])
        drawn = sum(len(walk_rows(spec, seed, self.BAND, n + 1, fill=False)[0])
                    for seed in range(reps))
        assert drawn < 0.67 * reps * (n + 1)
        crit = ks_critical(reps, 1e-3)
        for t in (1, 10, 300, 3000):
            assert ks_normal((filled[:, t] - 2.0) / (0.25 * math.sqrt(t))) <= crit, t
        plain = np.array([pr.generate(spec, n, seed).x for seed in range(reps, 2 * reps)])
        crit2 = ks_two_sample_critical(reps, reps, 1e-3)
        for name, stat in (("max", lambda x: x.max(axis=1)),
                           ("min", lambda x: x.min(axis=1)),
                           ("band occupation", lambda x: ((x >= 5) & (x <= 10)).sum(axis=1)),
                           ("far occupation", lambda x: ((x >= 18) & (x <= 30)).sum(axis=1)),
                           ("below occupation", lambda x: (x <= -3).sum(axis=1))):
            assert ks_two_sample(stat(filled), stat(plain)) <= crit2, name


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
        w = np.concatenate([w for _, w in blocks])[:rows]
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

    @pytest.mark.parametrize("spec, unknown", [
        ({"family": "INDEP", "x_0": 5}, "'x_0'"),
        ({"family": "INDEP", "params": {"sigma_W": 3.0}}, "'sigma_W'"),
        ({"family": "INDEP", "f": {"kind": "linear", "slope": 2}}, "'slope'"),
        ({"family": "INDEP", "f": {"slope": 2}}, "'slope'"),
        ({"family": "INDEP", "f": {"kind": "linear", "xs": [0, 1]}}, "'xs'"),
        ({"family": "INDEP", "f": {"kind": "table", "xs": [0, 1], "ys": [0, 1], "a": 2}}, "'a'"),
        ({"family": "INDEP", "f": {"kind": "sin"}}, "'sin'"),
    ])
    def test_unknown_keys_and_kinds_raise(self, spec, unknown):
        with pytest.raises(InvalidSpec, match=unknown):
            pr.spec_from_dict(spec)
