import math
from dataclasses import replace
from functools import partial
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
from nullrec.estimator import local_bandwidth, nw_estimate
from nullrec.processes import ProcessSpec, generate, linear, stream


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
            path = generate(spec, proto.max_path_length, rec.seed)
            counts = np.cumsum((path.x > lo) & (path.x < hi))
            stop = int(np.argmax(counts >= proto.local_count))
            assert counts[stop] == proto.local_count

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


def reference_fixed_point_rep(protocol, rep):
    """Slow reference for a fixed-point replication: regenerate the whole
    path from scratch at 4096, 8192, ... rows (capped at the guard) until
    local_count window observations have accumulated."""
    seed = mc.derive_seed(protocol.base_seed, rep)
    lo, hi = protocol.window
    n_len = 4096
    while True:
        n_len = min(n_len, protocol.max_path_length)
        path = generate(protocol.process, n_len, seed)
        counts = np.cumsum((path.x > lo) & (path.x < hi))
        if counts[-1] >= protocol.local_count:
            stop = int(np.argmax(counts >= protocol.local_count))
            break
        if n_len >= protocol.max_path_length:
            return mc.RepRecord(rep, seed, None, None, None, None, None, None, mc.GUARD,
                                protocol.max_path_length + 1)
        n_len *= 2
    x, z = path.x[:stop + 1], path.z[:stop + 1]
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
    """The streamed fixed-point replication against the regrow-by-doubling
    reference, on a tight guard that yields admitted, guard and empty reps."""

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

    def test_records_equal_reference(self, protocol, reference, monkeypatch):
        assert list(mc.run_clt(protocol).records) == reference
        # Small blocks: the stopping index and the guard fall blocks deep.
        for chunk in (1, 97, 4096, protocol.max_path_length + 1):
            monkeypatch.setattr(mc, "stream", partial(stream, chunk=chunk))
            assert [mc._run_rep(protocol, r) for r in range(protocol.reps)] == reference

    def test_block_boundary_at_stopping_index(self, protocol, reference, monkeypatch):
        for r, rec in enumerate(reference):
            if rec.status == mc.GUARD:
                continue
            stop = rec.path_length - 1
            for chunk in (stop, stop + 1):  # stop opens a block / ends one
                monkeypatch.setattr(mc, "stream", partial(stream, chunk=chunk))
                assert mc._run_rep(protocol, r) == rec

    def test_path_length_ends_at_the_stopping_time(self, protocol, reference):
        lo, hi = protocol.window
        for rec in reference:
            if rec.status == mc.GUARD:
                continue
            x = generate(protocol.process, rec.path_length - 1, rec.seed).x
            inside = (x > lo) & (x < hi)
            assert inside.sum() == protocol.local_count and inside[-1]

    def test_threads_keep_records(self, protocol):
        serial = mc.run_clt(protocol, threads=1)
        assert mc.run_clt(protocol, threads=2).records == serial.records


class TestTrendReport:
    def _result(self, proto, ks, sd=1.0):
        return mc.CltExperimentResult(protocol=proto, records=(), values=np.zeros(10),
                                      admitted=10, rejected_empty=0, guard_exceeded=0,
                                      ks_distance=ks, mean=0.0, sd=sd)

    def test_orders_and_flags(self):
        protos = [modal_protocol(n=n, reps=40, seed=1) for n in (3000, 500, 1000)]
        results = [self._result(p, ks) for p, ks in zip(protos, (0.02, 0.09, 0.05))]
        report = mc.trend_report(results)
        assert [row.size for row in report.rows] == [500, 1000, 3000]
        assert [row.ks_distance for row in report.rows] == [0.09, 0.05, 0.02]
        assert not report.violation

    def test_violation_when_largest_not_minimizer(self):
        protos = [modal_protocol(n=n, reps=40, seed=1) for n in (500, 1000)]
        results = [self._result(protos[0], 0.02), self._result(protos[1], 0.04)]
        assert mc.trend_report(results).violation

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
