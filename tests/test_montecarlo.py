import math
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import astuple, replace
from functools import partial
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest

import nullrec.montecarlo as mc
from nullrec.errors import (
    AllRejected,
    EmptyNeighborhood,
    EmptyOccupation,
    IncomparableProtocols,
    InvalidSpec,
    TooFewValues,
)
from nullrec.algebra import load_model
from nullrec.cli import write_replication_csv, write_summary_csv
from nullrec.estimator import _occupation, local_bandwidth, nw_estimate
from nullrec import processes
from nullrec.processes import ProcessSpec, generate, linear, stream
from tests.conftest import ks_two_sample, ks_two_sample_critical, random_model


def modal_protocol(n=300, reps=40, seed=123, family="INDEP", f=None, **kw):
    spec = ProcessSpec(family=family, f=f if f is not None else linear())
    return mc.CltProtocol(process=spec, mode="modal", reps=reps, base_seed=seed,
                          n=n, **kw)


class TestSeeds:
    def test_deterministic_and_distinct(self):
        seen = {mc.derive_seed(99, r) for r in range(1000)}
        assert len(seen) == 1000
        assert mc.derive_seed(99, 7) == mc.derive_seed(99, 7)
        assert mc.derive_seed(98, 7) != mc.derive_seed(99, 7)
        assert all(0 <= s < 2 ** 64 for s in seen)


class TestKsNormal:
    def test_perfect_quantiles(self):
        nd = NormalDist()
        q = [nd.inv_cdf((i - 0.5) / 1000) for i in range(1, 1001)]
        assert mc.ks_normal(q) <= 0.001

    def test_point_mass(self):
        assert mc.ks_normal(np.zeros(100)) == pytest.approx(0.5)

    def test_too_few(self):
        with pytest.raises(TooFewValues):
            mc.ks_normal(np.zeros(9))

    def test_normal_sample_near_critical_value(self):
        draws = np.random.default_rng(2).standard_normal(1000)
        assert mc.ks_normal(draws) < 1.628 / math.sqrt(1000)


class TestProtocolValidation:
    def test_modes(self):
        with pytest.raises(InvalidSpec):
            mc.CltProtocol(process=ProcessSpec(family="INDEP"), mode="adaptive", reps=5)
        with pytest.raises(InvalidSpec):
            modal_protocol(reps=0)
        with pytest.raises(InvalidSpec):
            mc.CltProtocol(process=ProcessSpec(family="INDEP"), mode="modal", reps=5)

    def test_fixed_point_window(self):
        spec = ProcessSpec(family="INDEP")
        with pytest.raises(InvalidSpec):
            mc.CltProtocol(process=spec, mode="fixed_point", reps=5, x_eval=12.0,
                           window=(5.0, 10.0), local_count=50)
        with pytest.raises(InvalidSpec):
            mc.CltProtocol(process=spec, mode="fixed_point", reps=5, x_eval=7.5,
                           window=(5.0, 10.0), local_count=0)

    @pytest.mark.parametrize("window", [(-math.inf, 10.0), (5.0, math.inf), (math.nan, 10.0),
                                        (5.0, math.nan)])
    def test_window_ends_must_be_finite(self, window):
        # local_bandwidth raises a ValueError on an infinite window end.
        with pytest.raises(InvalidSpec):
            mc.CltProtocol(process=ProcessSpec(family="INDEP"), mode="fixed_point", reps=5,
                           x_eval=7.5, window=window, local_count=50)

    @pytest.mark.parametrize("kw", [dict(fixed_h=0.0, c0=None), dict(fixed_h=-0.5, c0=None),
                                    dict(fixed_h=math.nan, c0=None), dict(fixed_h=math.inf),
                                    dict(c0=-1.0), dict(c0=0.0), dict(c0=math.nan),
                                    dict(max_path_length=-5), dict(max_path_length=0)])
    def test_bandwidth_and_guard(self, kw):
        with pytest.raises(InvalidSpec):
            modal_protocol(**kw)


class TestRunClt:
    def test_reproducible_bit_for_bit(self):
        proto = modal_protocol()
        a = mc.run_clt(proto)
        b = mc.run_clt(proto)
        np.testing.assert_array_equal(a.values, b.values)
        assert a.ks_distance == b.ks_distance

    def test_thread_count_does_not_change_results(self):
        proto = modal_protocol(n=400, reps=32, seed=7)
        serial = mc.run_clt(proto, threads=1)
        parallel = mc.run_clt(proto, threads=2)
        np.testing.assert_array_equal(serial.values, parallel.values)
        assert [r.status for r in serial.records] == [r.status for r in parallel.records]

    def test_import_leaves_the_process_pool_out(self):
        # Only run_clt(threads > 1) needs concurrent.futures.process.
        src = str(Path(mc.__file__).resolve().parents[1])
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import nullrec; "
                "print('concurrent.futures.process' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_status_counts_partition_reps(self):
        spec = ProcessSpec(family="INDEP", f=linear())
        proto = mc.CltProtocol(process=spec, mode="fixed_point", reps=30, base_seed=3,
                               x_eval=7.5, window=(5.0, 10.0), local_count=60,
                               max_path_length=4096)
        res = mc.run_clt(proto)
        assert res.admitted + res.rejected_empty + res.guard_exceeded == 30
        assert res.guard_exceeded > 0  # the tight guard must bite sometimes

    def test_fixed_point_hits_exact_local_count(self):
        spec = ProcessSpec(family="INDEP", f=linear())
        proto = mc.CltProtocol(process=spec, mode="fixed_point", reps=10, base_seed=11,
                               x_eval=7.5, window=(5.0, 10.0), local_count=80)
        res = mc.run_clt(proto)
        lo, hi = proto.window
        for rec in res.records:
            if rec.status != mc.ADMITTED:
                continue
            x = filled_path(proto, rec.seed)[0]
            counts = np.cumsum((x >= lo) & (x <= hi))
            stop = int(np.argmax(counts >= proto.local_count))
            assert counts[stop] == proto.local_count and rec.path_length == stop + 1

    def test_degenerate_noise_gives_zero_statistic(self):
        spec = ProcessSpec(family="INDEP", f=linear(0.0, 2.0), sigma_w=0.0)
        proto = mc.CltProtocol(process=spec, mode="modal", reps=1, base_seed=5, n=200)
        res = mc.run_clt(proto)
        np.testing.assert_array_equal(res.values, [0.0])

    def test_all_rejected(self):
        spec = ProcessSpec(family="INDEP", f=linear())
        proto = mc.CltProtocol(process=spec, mode="fixed_point", reps=3, base_seed=1,
                               x_eval=400.0, window=(399.0, 401.0), local_count=50,
                               max_path_length=2048)
        with pytest.raises(AllRejected):
            mc.run_clt(proto)


def run_rep(protocol, rep):
    """Replication `rep` of `protocol`, run as a group of one."""
    (record,) = mc._run_group_rep((protocol,), rep)
    return record


def fixed_point_path(protocol, seed, band):
    """The band rows of one fixed-point replication, read as a group of one."""
    (cut,) = mc._fixed_point_paths((protocol,), seed, band)
    return cut


def seed_words(seed, *key):
    """The PCG64 stream of keyed_rng(seed, *key), built from its words."""
    return np.random.default_rng([seed % 2 ** 32, seed // 2 ** 32, *key])


def filled_path(protocol, seed):
    """The INDEP path of a fixed-point replication on rows 0..max_path_length,
    every excursion that band_walk jumps over filled in, with its z.  Its
    disturbance goes by band rank: the k-th row of the path in the band
    takes the k-th normal of stream (2, 0), the k-th row outside it the k-th
    normal of stream (5,)."""
    spec = protocol.process
    band = mc._band(protocol)
    blocks = list(processes.band_walk(spec, seed, band, protocol.max_path_length + 1,
                                      fill=True))
    starts = [start for start, _ in blocks]
    assert starts == np.cumsum([0] + [len(x) for _, x in blocks[:-1]]).tolist()
    x = np.concatenate([x for _, x in blocks])
    assert len(x) == protocol.max_path_length + 1
    in_band = (x >= band[0]) & (x <= band[1])
    band_eps = seed_words(seed, 2, 0).standard_normal(len(x))
    off_eps = seed_words(seed, 5).standard_normal(len(x))
    rank = np.cumsum(in_band) - 1
    eps = np.where(in_band, band_eps[rank], off_eps[np.arange(len(x)) - rank - 1])
    return x, spec.f(x) + spec.sigma_w * eps


def reference_fixed_point_rep(protocol, rep):
    """Slow reference for a fixed-point replication: cut the whole path where
    local_count observations have accumulated in the closed window, and
    estimate on it.  An INDEP path is band_walk's, filled in; any other is
    regenerated whole at 4096, 8192, ... rows (capped at the guard)."""
    seed = mc.derive_seed(protocol.base_seed, rep)
    lo, hi = protocol.window
    n_len = 4096
    while True:
        n_len = min(n_len, protocol.max_path_length)
        if protocol.process.family == "INDEP":
            n_len = protocol.max_path_length
            x, z = filled_path(protocol, seed)
        else:
            path = generate(protocol.process, n_len, seed)
            x, z = path.x, path.z
        counts = np.cumsum((x >= lo) & (x <= hi))
        if counts[-1] >= protocol.local_count:
            stop = int(np.argmax(counts >= protocol.local_count))
            break
        if n_len >= protocol.max_path_length:
            return mc.RepRecord(rep, seed, None, None, None, None, None, None, mc.GUARD,
                                protocol.max_path_length + 1)
        n_len *= 2
    x, z = x[:stop + 1], z[:stop + 1]
    x_eval, size = protocol.x_eval, protocol.local_count
    try:
        h = protocol.fixed_h
        if h is None:
            h = local_bandwidth(x, x_eval, protocol.window, protocol.c0, protocol.kernel)
        report = nw_estimate(x, z, x_eval, h, protocol.kernel, window=protocol.window,
                             f_true_at_x=float(protocol.process.f(x_eval)))
    except (EmptyNeighborhood, EmptyOccupation):
        return mc.RepRecord(rep, seed, size, None, None, None, None, None, mc.EMPTY, stop + 1)
    return mc.RepRecord(rep, seed, size, float(x_eval), float(h), report.sum_k, report.f_hat,
                        report.studentized, mc.ADMITTED, stop + 1)


class TestFixedPointStream:
    """The fixed-point replication against the whole-path reference, on a
    tight guard that yields admitted, guard and empty reps."""

    @pytest.fixture
    def protocol(self):
        spec = ProcessSpec(family="INDEP", f=linear(0.5, 1.0))
        return mc.CltProtocol(process=spec, mode="fixed_point", reps=40, base_seed=3,
                              x_eval=7.5, window=(5.0, 10.0), local_count=60,
                              fixed_h=0.05, max_path_length=6000)

    @pytest.fixture
    def reference(self, protocol):
        return [reference_fixed_point_rep(protocol, r) for r in range(protocol.reps)]

    def test_reference_covers_every_status(self, reference):
        assert {r.status for r in reference} == {mc.ADMITTED, mc.EMPTY, mc.GUARD}

    def test_records_equal_reference(self, protocol, reference):
        assert list(mc.run_clt(protocol).records) == reference
        # The band is the whole path's band rows, bit for bit.
        for rec in reference:
            band = fixed_point_path(protocol, rec.seed, mc._band(protocol))
            whole = fixed_point_path(protocol, rec.seed, mc._WHOLE_PATH)
            if rec.status == mc.GUARD:
                assert band is None and whole is None
                continue
            b_lo, b_hi = mc._band(protocol)
            rows = (whole[0] >= b_lo) & (whole[0] <= b_hi)
            assert band[2] == whole[2] == rec.path_length
            assert band[0].tobytes() == whole[0][rows].tobytes()
            assert band[1].tobytes() == whole[1][rows].tobytes()

    @pytest.mark.parametrize("family", ["SHARED_INNOVATION", "AR1_LINKED", "MA_LINKED"])
    def test_linked_families_equal_reference(self, protocol, monkeypatch, family):
        # The stream carries these families' w from block to block.
        protocol = replace(protocol, process=replace(protocol.process, family=family))
        reference = [reference_fixed_point_rep(protocol, r) for r in range(protocol.reps)]
        assert {r.status for r in reference} == {mc.ADMITTED, mc.EMPTY, mc.GUARD}
        for chunk in (1, 97, processes._STREAM_BLOCK):
            monkeypatch.setattr(mc, "stream", partial(stream, chunk=chunk))
            assert [run_rep(protocol, r) for r in range(protocol.reps)] == reference

    def test_block_boundary_at_stopping_index(self, protocol, monkeypatch):
        # Stream blocks cut the linked families' paths; band_walk's INDEP
        # blocks are part of its draws.
        protocol = replace(protocol, process=replace(protocol.process,
                                                     family="SHARED_INNOVATION"))
        reference = [reference_fixed_point_rep(protocol, r) for r in range(protocol.reps)]
        for r, rec in enumerate(reference):
            if rec.status == mc.GUARD:
                continue
            stop = rec.path_length - 1
            for chunk in (stop, stop + 1):  # stop opens a block / ends one
                monkeypatch.setattr(mc, "stream", partial(stream, chunk=chunk))
                assert run_rep(protocol, r) == rec

    def test_long_reps_leave_no_rows_for_short_ones(self, protocol, reference):
        # Guard reps first (they are the longest), then admitted reps from the
        # longest down, one after another on one thread.
        order = sorted(range(protocol.reps), key=lambda r: -reference[r].path_length)
        assert reference[order[0]].status == mc.GUARD
        assert [run_rep(protocol, r) for r in order] == [reference[r] for r in order]

    def test_concurrent_runs_keep_their_records(self, protocol):
        # Long paths and the local bandwidth rule, so that any state shared
        # between the threads would mix their rows.
        protocols = [replace(protocol, reps=60, base_seed=seed, local_count=300,
                             max_path_length=50_000, fixed_h=None, c0=1.0)
                     for seed in (4, 5, 6)]
        serial = [mc.run_clt(p).records for p in protocols]
        results = [None] * len(protocols)
        barrier = threading.Barrier(len(protocols))

        def work(i):
            barrier.wait(timeout=60)
            results[i] = mc.run_clt(protocols[i]).records

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(protocols))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == serial

    def test_path_length_ends_at_the_stopping_time(self, protocol, reference):
        lo, hi = protocol.window
        for rec in reference:
            if rec.status == mc.GUARD:
                continue
            x = filled_path(protocol, rec.seed)[0][:rec.path_length]
            inside = (x >= lo) & (x <= hi)
            assert inside.sum() == protocol.local_count and inside[-1]

    def test_threads_keep_records(self, protocol):
        serial = mc.run_clt(protocol, threads=1)
        assert mc.run_clt(protocol, threads=2).records == serial.records

    @pytest.mark.parametrize("x_eval, fixed_h, c0, restreams", [
        (7.5, None, 4.0, "some"),  # h reaches past the window on some admitted reps
        (5.1, None, 0.5, "none"),  # the pilot's support reaches past the window
        (5.1, 0.3, None, "none"),  # the fixed bandwidth's support does
    ])
    def test_band_holds_every_weighted_row(self, protocol, monkeypatch, x_eval, fixed_h, c0,
                                           restreams):
        protocol = replace(protocol, x_eval=x_eval, fixed_h=fixed_h, c0=c0)
        whole = []

        def counting(group, seed, band):
            whole.append(band == mc._WHOLE_PATH)
            return fixed_point_paths(group, seed, band)

        fixed_point_paths = mc._fixed_point_paths
        monkeypatch.setattr(mc, "_fixed_point_paths", counting)
        records = [run_rep(protocol, r) for r in range(protocol.reps)]
        assert records == [reference_fixed_point_rep(protocol, r) for r in range(protocol.reps)]
        admitted = sum(r.status == mc.ADMITTED for r in records)
        assert admitted > 0
        if restreams == "some":
            assert 0 < sum(whole) < admitted
        else:
            assert sum(whole) == 0

    def test_guard_rep_memory_is_small(self):
        # A guard rep at the shipped protocol's guard holds one stepped block
        # and the band, not the million rows of its path.  With sigma_e = 0
        # the walk stays at 0, so the window is never reached: band_walk
        # finds the first passage infinite and stops at once, a guard rep.
        spec = ProcessSpec(family="INDEP", f=linear(), sigma_e=0.0)
        protocol = mc.CltProtocol(process=spec, mode="fixed_point", reps=1, base_seed=271828,
                                  x_eval=7.5, window=(5.0, 10.0), local_count=800,
                                  max_path_length=1_000_000)
        run_rep(replace(protocol, max_path_length=1000), 0)  # first-call imports
        tracemalloc.start()
        try:
            record = run_rep(protocol, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert record.status == mc.GUARD
        assert peak < 2_000_000


class TestFixedPointEdges:
    """Starts inside the band, on a jump level and far away; a frozen walk;
    a stop on the guard row."""

    def protocol(self, **process):
        spec = ProcessSpec(family="INDEP", f=linear(0.5, 1.0), **process)
        return mc.CltProtocol(process=spec, mode="fixed_point", reps=12, base_seed=21,
                              x_eval=7.5, window=(5.0, 10.0), local_count=40, fixed_h=0.3,
                              max_path_length=20_000)

    @pytest.mark.parametrize("where", ["window", "band edge", "upper level", "lower level",
                                       "zone edge", "past the zone"])
    def test_records_equal_reference(self, where):
        proto = self.protocol()
        b_lo, b_hi = mc._band(proto)
        m = processes._MARGIN * proto.process.sigma_e
        x0 = {"window": 7.5, "band edge": b_hi, "upper level": b_hi + m / 2,
              "lower level": b_lo - m / 2, "zone edge": b_lo - m,
              "past the zone": np.nextafter(b_lo - m, -math.inf)}[where]
        proto = replace(proto, process=replace(proto.process, x0=x0))
        records = [run_rep(proto, r) for r in range(proto.reps)]
        assert records == [reference_fixed_point_rep(proto, r) for r in range(proto.reps)]
        assert any(r.status == mc.ADMITTED for r in records)

    @pytest.mark.parametrize("x0", [1e6, -1e6])
    def test_far_start_is_a_guard(self, x0, monkeypatch):
        proto = replace(self.protocol(x0=x0), max_path_length=1_000_000)
        walks = []

        def band_walk(*args, **kw):
            walks.append(list(processes.band_walk(*args, **kw)))
            return iter(walks[-1])

        monkeypatch.setattr(mc, "band_walk", band_walk)
        assert run_rep(proto, 0) == mc._rejection(0, mc.derive_seed(21, 0), None, mc.GUARD,
                                                      1_000_001)
        assert walks == [[]]

    def test_zero_sigma_is_a_guard(self):
        proto = self.protocol(sigma_e=0.0)
        assert all(run_rep(proto, r).status == mc.GUARD for r in range(proto.reps))

    def test_stop_on_the_guard_row(self):
        proto = self.protocol()
        records = [run_rep(proto, r) for r in range(proto.reps)]
        rec = max((r for r in records if r.status == mc.ADMITTED), key=lambda r: r.path_length)
        stop = rec.path_length - 1
        assert run_rep(replace(proto, max_path_length=stop), rec.rep) == rec
        assert run_rep(replace(proto, max_path_length=stop - 1), rec.rep) == \
            mc._rejection(rec.rep, rec.seed, None, mc.GUARD, stop)

    def test_threads_keep_records(self):
        proto = replace(self.protocol(), reps=40, fixed_h=None, c0=4.0)
        assert mc.run_clt(proto, threads=2).records == mc.run_clt(proto, threads=1).records


def streamed_rows(protocol, seed, band):
    """The rows of a fixed-point replication streamed whole, as before band_walk."""
    start, limit = 0, protocol.max_path_length + 1
    for x, w in stream(protocol.process, seed):
        yield start, x[:limit - start], w
        start += len(x)
        if start >= limit:
            return


def test_band_walk_has_the_law_of_the_stream_sampler(monkeypatch):
    # Independent base seeds for the two samplers; each comparison fails
    # with probability about 1e-3 when the laws agree.
    proto = mc.CltProtocol(process=ProcessSpec(family="INDEP", f=linear()), mode="fixed_point",
                           reps=1000, base_seed=99, x_eval=7.5, window=(5.0, 10.0),
                           local_count=100, max_path_length=100_000)
    jumped = mc.run_clt(proto).records
    monkeypatch.setattr(mc, "_rows", streamed_rows)
    streamed = mc.run_clt(replace(proto, base_seed=100)).records
    for name, admitted_only in (("path_length", False), ("h", True), ("studentized", True)):
        a, b = ([getattr(r, name) for r in records if r.status == mc.ADMITTED or not admitted_only]
                for records in (jumped, streamed))
        assert ks_two_sample(a, b) <= ks_two_sample_critical(len(a), len(b), 1e-3), name


def test_band_disturbance_is_normal_and_independent_of_the_walk():
    # Whole, filled paths with f = 0, so that z is w.  Given the walk, the
    # band rows' eps = w / sigma_w is i.i.d. N(0, 1), so eps . v / |v| is
    # exactly N(0, 1) for any v that the walk fixes: its level x and its
    # increment.  Each check fails with probability 1e-3 when the law holds.
    spec = ProcessSpec(family="INDEP", f=linear(0.0, 0.0), sigma_w=0.7)
    proto = mc.CltProtocol(process=spec, mode="fixed_point", reps=300, base_seed=17,
                           x_eval=7.5, window=(5.0, 10.0), local_count=100, fixed_h=0.3,
                           max_path_length=20_000)
    b_lo, b_hi = mc._band(proto)
    eps, level, step = [], [], []
    for r in range(proto.reps):
        cut = fixed_point_path(proto, mc.derive_seed(proto.base_seed, r), mc._WHOLE_PATH)
        if cut is None:
            continue
        x, w, _ = cut
        rows = ((x >= b_lo) & (x <= b_hi))[1:]  # row 0 has no increment
        eps.append(w[1:][rows] / spec.sigma_w)
        level.append(x[1:][rows])
        step.append(np.diff(x)[rows])
    eps = np.concatenate(eps)
    assert len(eps) > 20_000
    assert mc.ks_normal(eps) <= mc.ks_critical(len(eps), 1e-3)
    z = NormalDist().inv_cdf(1.0 - 5e-4)
    for name, v in (("level", level), ("increment", step)):
        v = np.concatenate(v)
        v -= v.mean()
        assert abs(eps @ v) / math.sqrt(v @ v) <= z, name


class TestClosedWindowOnStateValues:
    """A FINITE_PRODUCT regressor takes the states 0, 1 and 2, and the window
    [1, 2] ends on two of them: the stop rule counts the closed window, like
    the occupation T_C of the estimator.  The table transfer checks that z,
    formed on the band rows only, is z of the whole path."""

    @pytest.fixture
    def protocol(self):
        f = processes.Transfer("table", xs=(-0.5, 0.7, 2.5), ys=(1.0, -0.3, 2.0))
        spec = ProcessSpec(family="FINITE_PRODUCT", f=f,
                           x_chain=load_model("configs/threestate.json"),
                           w_chain=load_model("configs/twostate.json"))
        return mc.CltProtocol(process=spec, mode="fixed_point", reps=20, base_seed=9,
                              x_eval=1.5, window=(1.0, 2.0), local_count=50, fixed_h=0.75)

    def test_occupation_equals_local_count_at_the_stop(self, protocol):
        res = mc.run_clt(protocol)
        assert res.admitted == protocol.reps
        for rec in res.records:
            x = generate(protocol.process, rec.path_length - 1, rec.seed).x
            assert _occupation(x, protocol.window) == protocol.local_count
            assert protocol.window[0] <= x[-1] <= protocol.window[1]

    def test_records_equal_reference(self, protocol):
        assert list(mc.run_clt(protocol).records) == [
            reference_fixed_point_rep(protocol, r) for r in range(protocol.reps)]


def reference_fixed_point_path(protocol, seed, band):
    """One size's band rows, read on their own: the loop that stops at this
    protocol's local_count, with no other size in view."""
    lo, hi = protocol.window
    b_lo, b_hi = band
    missing = protocol.local_count
    xs, ws = [], []
    for start, x, w in mc._rows(protocol, seed, band):
        keep = ((x >= b_lo) & (x <= b_hi)).nonzero()[0]
        band_x = x[keep]
        inside = ((band_x >= lo) & (band_x <= hi)).nonzero()[0]
        stop = len(inside) >= missing
        if stop:
            keep = keep[:inside[missing - 1] + 1]
            band_x = band_x[:len(keep)]
        xs.append(band_x)
        if w is not None:
            ws.append(w[keep])
        if stop:
            x = np.concatenate(xs)
            w = np.concatenate(ws) if ws else mc._indep_w(protocol, seed, x)
            return x, protocol.process.f(x) + w, start + int(keep[-1]) + 1
        missing -= len(inside)
    return None


def reference_rep(protocol, rep):
    """Replication `rep` of one size alone: its own path, drawn at its own
    size."""
    seed = mc.derive_seed(protocol.base_seed, rep)
    spec = protocol.process
    if protocol.mode == "modal":
        path = generate(spec, protocol.n, seed)
        x, z, length = path.x, path.z, protocol.n + 1
        x_eval, window, band = mc.modal_value(x, protocol.kernel), None, mc._WHOLE_PATH
    else:
        band = mc._band(protocol)
        cut = reference_fixed_point_path(protocol, seed, band)
        if cut is None:
            return mc._rejection(rep, seed, None, mc.GUARD, protocol.max_path_length + 1)
        x, z, length = cut
        x_eval, window = protocol.x_eval, protocol.window
    try:
        h = protocol.fixed_h
        if h is None:
            h = local_bandwidth(x, x_eval, window, protocol.c0, protocol.kernel)
            s_lo, s_hi = protocol.kernel.support(x_eval, h)
            if not band[0] <= s_lo <= s_hi <= band[1]:
                x, z, _ = reference_fixed_point_path(protocol, seed, mc._WHOLE_PATH)
        report = nw_estimate(x, z, x_eval, h, protocol.kernel, window=window,
                             f_true_at_x=float(spec.f(x_eval)))
    except (EmptyNeighborhood, EmptyOccupation):
        return mc._rejection(rep, seed, protocol.size, mc.EMPTY, length)
    return mc.RepRecord(rep, seed, protocol.size, float(x_eval), float(h), report.sum_k,
                        report.f_hat, report.studentized, mc.ADMITTED, length)


def reference_run_clt(protocol):
    """The records of the per-size loop that run_protocols replaced, its
    slow reference: every replication of every size draws its own path."""
    return [reference_rep(protocol, r) for r in range(protocol.reps)]


def record_fields(records):
    """Each record's fields, floats as their hex form, so -0.0 and 0.0 differ."""
    return [[v.hex() if isinstance(v, float) else v for v in astuple(r)] for r in records]


def sizes_of(protocol, sizes):
    key = "n" if protocol.mode == "modal" else "local_count"
    return [replace(protocol, protocol_id=f"size-{size}", **{key: size}) for size in sizes]


class TestGroupedSizes:
    """run_protocols draws a replication's path once for every size of a
    group and reads each size from it; each result equals its size run on
    its own (reference_run_clt), field for field, at 1 and 2 threads."""

    def modal(self, family):
        rng = np.random.default_rng(4)
        chains = {}
        if family == "FINITE_PRODUCT":
            chains = dict(x_chain=random_model(rng, d=3), w_chain=random_model(rng, d=4))
        spec = ProcessSpec(family=family, f=linear(1.5, -0.25), x0=-2.75, sigma_w=0.8, **chains)
        sizes = [300, 40, 150] if family != "INDEP" else [300, 9000, 40]  # 9000: two blocks
        return sizes_of(mc.CltProtocol(process=spec, mode="modal", reps=8, base_seed=17, n=1),
                        sizes)

    def fixed_point(self, family, **kw):
        spec = ProcessSpec(family=family, f=linear(0.5, 1.0))
        proto = mc.CltProtocol(process=spec, mode="fixed_point", reps=30, base_seed=3,
                               x_eval=7.5, window=(5.0, 10.0), local_count=1,
                               max_path_length=6000, **kw)
        return sizes_of(proto, [60, 20, 120, 60])

    def check(self, protocols, threads):
        results = mc.run_protocols(protocols, threads=threads)
        assert [r.protocol for r in results] == protocols
        for res, proto in zip(results, protocols):
            assert record_fields(res.records) == record_fields(reference_run_clt(proto))
        return results

    @pytest.mark.parametrize("threads", [1, 2])
    def test_modal_every_family(self, threads, monkeypatch):
        protocols = [p for family in processes.FAMILIES for p in self.modal(family)]
        calls = []
        monkeypatch.setattr(mc, "generate", lambda spec, n, seed: calls.append(n) or
                            generate(spec, n, seed))
        self.check(protocols, threads)
        if threads == 1:  # one path per replication of each family, at its largest size
            assert sorted(calls) == sorted([300] * 8 * 4 + [9000] * 8)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_fixed_point_indep_guards_and_rereads(self, threads, monkeypatch):
        # c0 = 4 sends some admitted reps past the band, to a whole-path read;
        # the tight guard censors the larger sizes of some reps and not the
        # smaller ones.
        protocols = self.fixed_point("INDEP", c0=4.0)
        rereads = []
        paths = mc._fixed_point_paths

        def counting(group, seed, band):
            rereads.append(band == mc._WHOLE_PATH)
            return paths(group, seed, band)

        monkeypatch.setattr(mc, "_fixed_point_paths", counting)
        results = self.check(protocols, threads)
        if threads == 1:
            assert sum(rereads) > 0 and len(rereads) - sum(rereads) == protocols[0].reps
        status = [[r.status for r in res.records] for res in results]
        assert {s for row in status for s in row} == {mc.ADMITTED, mc.EMPTY, mc.GUARD}
        by_size = dict(zip((p.local_count for p in protocols), status))
        assert any(a == mc.ADMITTED and b == mc.GUARD for a, b in zip(by_size[20], by_size[120]))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_fixed_point_linked_family(self, threads):
        results = self.check(self.fixed_point("AR1_LINKED", fixed_h=0.3), threads)
        assert {r.status for res in results for r in res.records} >= {mc.ADMITTED, mc.GUARD}

    def test_groups_keep_input_order(self):
        # Two groups interleaved, a third protocol that differs in its seed
        # alone, and a fixed-point group of one.
        modal = self.modal("SHARED_INNOVATION")
        fixed = self.fixed_point("INDEP", fixed_h=0.3)[:1]
        protocols = [modal[0], fixed[0], modal[1], replace(modal[2], base_seed=18), modal[2]]
        results = mc.run_protocols(protocols)
        for res, proto in zip(results, protocols):
            assert res.protocol is proto
            assert record_fields(res.records) == record_fields(mc.run_clt(proto).records)

    def test_all_rejected_is_raised_for_the_first_protocol_in_order(self):
        # 10_000 window rows do not fit under the guard of 6000 rows.  The
        # first and last protocols form one group, run before the second.
        ok, never = self.fixed_point("INDEP", fixed_h=0.3)[:2]
        never = replace(never, local_count=10_000)
        protocols = [ok, replace(never, reps=9, base_seed=5), never]
        with pytest.raises(AllRejected, match="all 9 replications"):
            mc.run_protocols(protocols)


class TestTrendReport:
    def _result(self, proto, ks, sd=1.0, admitted=1000):
        return mc.CltExperimentResult(protocol=proto, records=(), values=np.zeros(10),
                                      admitted=admitted, rejected_empty=0, guard_exceeded=0,
                                      ks_distance=ks, mean=0.0, sd=sd)

    def test_orders_and_flags(self):
        protos = [modal_protocol(n=n, reps=40, seed=1) for n in (3000, 500, 1000)]
        results = [self._result(p, ks) for p, ks in zip(protos, (0.02, 0.09, 0.05))]
        report = mc.trend_report(results)
        assert [row.size for row in report.rows] == [500, 1000, 3000]
        assert [row.ks_distance for row in report.rows] == [0.09, 0.05, 0.02]
        assert not report.violation

    def test_violation_when_largest_not_minimizer(self):
        # The largest size may read a larger distance than a smaller one by
        # up to the critical value of its own admitted count: sampling noise.
        protos = [modal_protocol(n=n, reps=40, seed=1) for n in (500, 1000)]
        crit = mc.ks_critical(1000, mc.TREND_ALPHA)
        assert crit == pytest.approx(0.0614, abs=1e-4)
        for small, large, violation in ((0.02, 0.04, False), (0.0, crit * 0.999, False),
                                        (0.0, crit * 1.001, True), (0.001, 0.07, True)):
            report = mc.trend_report([self._result(protos[0], small),
                                      self._result(protos[1], large)])
            assert report.violation is violation, (small, large)
        # Fewer admitted values at the largest size widen the margin.
        report = mc.trend_report([self._result(protos[0], 0.001),
                                  self._result(protos[1], 0.07, admitted=400)])
        assert not report.violation

    def test_duplicate_sizes_no_flag(self):
        proto = modal_protocol(n=500, reps=40, seed=1)
        res = self._result(proto, 0.03)
        report = mc.trend_report([res, res])
        assert not report.violation

    def test_equal_but_distinct_product_models_compare(self):
        def product(x_file, w_file, n):
            spec = ProcessSpec(family="FINITE_PRODUCT", x_chain=load_model(x_file),
                               w_chain=load_model(w_file))
            return mc.CltProtocol(process=spec, mode="modal", reps=40, n=n)

        three, two = "configs/threestate.json", "configs/twostate.json"
        a = self._result(product(three, two, 500), 0.03)
        b = self._result(product(three, two, 1000), 0.02)
        assert [row.size for row in mc.trend_report([b, a]).rows] == [500, 1000]
        with pytest.raises(IncomparableProtocols):
            mc.trend_report([a, self._result(product(two, three, 1000), 0.02)])

    @pytest.mark.parametrize("ks, violation", [
        ((math.nan, 0.05, 0.09), True),  # a NaN at a smaller size hides no rejection
        ((0.05, math.nan, 0.09), True),
        ((0.05, 0.09, math.nan), True),  # the largest size cannot be tested
        ((math.nan, 0.09, 0.05), False),
    ])
    def test_sizes_without_ks(self, ks, violation):
        protos = [modal_protocol(n=n, reps=40, seed=1) for n in (100, 200, 300)]
        report = mc.trend_report([self._result(p, k) for p, k in zip(protos, ks)])
        assert report.violation is violation

    def test_pvalues(self):
        protos = [modal_protocol(n=n, reps=40, seed=1) for n in (500, 1000)]
        report = mc.trend_report([self._result(protos[0], 0.05, admitted=500),
                                  self._result(protos[1], 0.02)])
        assert [row.ks_pvalue for row in report.rows] == [
            mc.ks_pvalue(0.05, 500), mc.ks_pvalue(0.02, 1000)]
        for m, alpha in ((40, 0.05), (1000, 1e-3), (5000, 1e-4)):
            assert mc.ks_pvalue(mc.ks_critical(m, alpha), m) == pytest.approx(alpha, rel=1e-9)
        assert mc.kolmogorov_sf(1.3581) == pytest.approx(0.05, abs=1e-4)
        assert mc.ks_pvalue(0.0, 100) == 1.0 and math.isnan(mc.ks_pvalue(math.nan, 100))

    def test_silent_on_normal_draws_at_the_stated_rate(self):
        # 400 runs of two sizes of N(0, 1) draws: about 0.4 false alarms
        # are expected, and 4 or more come with probability below 1e-3.
        rng = np.random.default_rng(2024)
        protos = [modal_protocol(n=n, reps=40, seed=1) for n in (500, 1000)]
        alarms = 0
        for _ in range(400):
            results = [self._result(p, mc.ks_normal(rng.standard_normal(m)), admitted=m)
                       for p, m in zip(protos, (500, 1000))]
            alarms += mc.trend_report(results).violation
        assert alarms <= 3

    def test_fires_on_a_mutated_statistic(self, monkeypatch):
        # The statistic without its 1/||K||^2 factor has sd sqrt(0.6) for
        # the Epanechnikov kernel: the run that is silent on the true
        # statistic is flagged.
        protos = [modal_protocol(n=n, reps=2000, seed=5) for n in (30, 60)]
        assert not mc.trend_report([mc.run_clt(p) for p in protos]).violation

        def unnormalised(*args, **kw):
            report = nw_estimate(*args, **kw)
            scale = math.sqrt(mc.EPANECHNIKOV.l2_norm_sq)
            return replace(report, studentized=report.studentized * scale)

        monkeypatch.setattr(mc, "nw_estimate", unnormalised)
        assert mc.trend_report([mc.run_clt(p) for p in protos]).violation

    def test_incomparable(self):
        a = self._result(modal_protocol(n=500, reps=40, seed=1), 0.03)
        b = self._result(modal_protocol(n=1000, reps=50, seed=1), 0.02)
        with pytest.raises(IncomparableProtocols):
            mc.trend_report([a, b])
        with pytest.raises(IncomparableProtocols):
            mc.trend_report([a])


class TestCsvAndJson:
    def test_replication_and_summary_csv(self, tmp_path):
        proto = modal_protocol(n=200, reps=15, seed=2)
        res = mc.run_clt(proto)
        rep_path = tmp_path / "reps.csv"
        sum_path = tmp_path / "summary.csv"
        write_replication_csv(res, rep_path)
        write_summary_csv([res], sum_path)
        rep_lines = rep_path.read_text().strip().splitlines()
        assert rep_lines[0] == ("rep,seed,n_or_local_count,x_eval,h,sum_k,f_hat,studentized,"
                                "status,path_length")
        assert all(line.endswith(",201") for line in rep_lines[1:])
        assert len(rep_lines) == 16
        header, row = sum_path.read_text().strip().splitlines()
        assert header == "protocol_id,size,reps,admitted,ks_distance,mean,sd"
        assert row.split(",")[1] == "200"

    def test_protocols_from_dict_expands_sizes(self):
        obj = {
            "id": "walk-noise",
            "mode": "modal",
            "process": {"family": "INDEP", "f": {"kind": "linear", "a": 1, "b": 0}},
            "n": [500, 1000, 3000],
            "reps": 100,
            "base_seed": 42,
        }
        protos = mc.protocols_from_dict(obj)
        assert [p.n for p in protos] == [500, 1000, 3000]
        assert [p.protocol_id for p in protos] == ["walk-noise-500", "walk-noise-1000",
                                                   "walk-noise-3000"]
        assert all(p.c0 == 1.0 and p.fixed_h is None for p in protos)

    @pytest.mark.parametrize("edit, unknown", [
        ({"kernal": {"kind": "epanechnikov"}}, "'kernal'"),
        ({"base_sed": 7}, "'base_sed'"),
        ({"local_count": 100}, "'local_count'"),  # a fixed_point key in a modal file
        ({"bandwidth": {"C0": 1.0}}, "'C0'"),
        ({"kernel": {"kind": "epanechnikov", "c": 2.5}}, "'c'"),
        ({"kernel": {"kind": "gaussian_truncated", "radius": 2.5}}, "'radius'"),
        ({"kernel": {"kind": "gaussian"}}, "'gaussian'"),
        ({"mode": "fixed"}, "'fixed'"),
    ])
    def test_protocols_from_dict_rejects_unknown_keys(self, edit, unknown):
        obj = {"mode": "modal", "process": {"family": "INDEP"}, "n": 50, "reps": 10}
        with pytest.raises(InvalidSpec, match=unknown):
            mc.protocols_from_dict(dict(obj, **edit))

    def test_protocols_from_dict_truncated_gaussian_radius(self):
        obj = {"mode": "modal", "process": {"family": "INDEP"}, "n": 50, "reps": 10,
               "kernel": {"kind": "gaussian_truncated", "c": 1.5}}
        (proto,) = mc.protocols_from_dict(obj)
        assert proto.kernel == mc.Kernel("gaussian_truncated", c=1.5)

    def test_protocols_from_dict_fixed_bandwidth_and_point(self):
        obj = {
            "mode": "fixed_point",
            "process": {"family": "INDEP"},
            "local_count": 100,
            "x_eval": 7.5,
            "window": [5, 10],
            "reps": 10,
            "bandwidth": {"h": 0.4},
        }
        (proto,) = mc.protocols_from_dict(obj)
        assert proto.fixed_h == 0.4 and proto.c0 is None
        assert proto.window == (5.0, 10.0)
