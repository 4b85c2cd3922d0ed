"""Spans for the traced benchmark run, and the per-layer metrics made from them.

The tracer wraps nullrec's public entry points where they are looked up:
``montecarlo``, ``cli`` and ``splitting`` import ``generate``, the estimator
functions and the CSV writers by name, so each importing module gets its own
wrapper; inside ``algebra`` functions call one another through module
globals, so wrapping ``nullrec.algebra.fundamental_kernel`` also sees the
internal calls.  Spans stay in memory and are written out when the run ends.

A span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
import tracemalloc

import numpy as np

FAMILIES = ("INDEP", "SHARED_INNOVATION", "AR1_LINKED", "MA_LINKED", "FINITE_PRODUCT")
ESTIMATOR_FNS = ("modal_value", "local_bandwidth", "nw_estimate", "cv_constant")
ALGEBRA_FNS = ("invariant_measure", "block_mean_variance", "block_moment",
               "generalized_autocov", "sigma2_from_series", "embedded_transition",
               "compound_block_moment", "weighted_block_moment", "fundamental_kernel",
               "taboo_kernel")
# Algebra functions the CLI calls that have no metric of their own; they are
# still spans, so their time is not counted as CLI self time.
ALGEBRA_CLI_ONLY = ("enumerated_block_moments", "regeneration_gap_coefficients")
SPLITTING_FNS = ("simulate_split", "block_sums", "sample_blocks",
                 "sample_compound_block_sums", "sample_embedded_counts")
CLI_WRITERS = ("write_replication_csv", "write_summary_csv", "write_trajectory_csv",
               "_write_metadata")

# The ROADMAP's baseline probes, each the time of one step of a job.
BASELINE_STEPS = {
    "baseline.simulate_split_finite_1e6_s": "simulate_split_finite",
    "baseline.generate_AR1_LINKED_1e6_s": "generate_ar1",
    "baseline.generate_INDEP_1e6_s": "walk_path",
    "baseline.generate_FINITE_PRODUCT_1e5_s": "generate_product",
    "baseline.sample_blocks_1e6_s": "sample_blocks_d3",
    "baseline.invariant_measure_d300_s": "invariant_measure",
    "baseline.autocov_sweep_d300_s": "autocov_sweep",
    "baseline.cv_constant_n3000_s": "cv_constant",
    "baseline.modal_value_1e6_s": "modal_value",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run emits, with its unit."""
    units = {
        "processes.generate.calls": "count",
        "processes.generate.rows": "count",
        "processes.generate.self_s": "s",
        "processes.generate.rows_per_s": "1/s",
    }
    units.update({f"processes.generate.{fam}.self_s": "s" for fam in FAMILIES})
    units.update({
        "montecarlo.run_clt.self_s": "s",
        "montecarlo.rep_p50_ms": "ms",
        "montecarlo.rep_p90_ms": "ms",
        "montecarlo.reps_admitted": "count",
        "montecarlo.reps_guard": "count",
        "montecarlo.reps_empty": "count",
        "montecarlo.fixed_point.rows_used_frac": "frac",
        "montecarlo.fixed_point.generate_calls_per_rep": "calls/rep",
        "montecarlo.pool_speedup": "ratio",
    })
    for fn in ESTIMATOR_FNS:
        units[f"estimator.{fn}.calls"] = "count"
        units[f"estimator.{fn}.self_s"] = "s"
    units["estimator.cv_constant.peak_alloc_mb"] = "MB"
    for fn in ALGEBRA_FNS:
        units[f"algebra.{fn}.calls"] = "count"
        units[f"algebra.{fn}.self_s"] = "s"
    units["algebra.small_models.self_s"] = "s"
    units.update({
        "splitting.simulate_split.finite.self_s": "s",
        "splitting.simulate_split.walk.self_s": "s",
        "splitting.simulate_split.product.self_s": "s",
        "splitting.simulate_split.steps_per_s": "1/s",
        "splitting.sample_blocks.d3.self_s": "s",
        "splitting.sample_blocks.d300.self_s": "s",
        "splitting.sample_compound_block_sums.self_s": "s",
        "splitting.sample_embedded_counts.self_s": "s",
        "splitting.block_sums.self_s": "s",
        "cli.main.self_s": "s",
        "cli.write.self_s": "s",
        "cli.bytes_written": "bytes",
        "bench.trace_overhead_frac": "frac",
        "bench.calib_s": "s",
    })
    units.update({name: "s" for name in BASELINE_STEPS})
    return units


class Tracer:
    """Collects spans (name, start, end, parent, run id) in memory, plus the
    per-replication records of run_clt."""

    def __init__(self):
        self.spans: list[dict] = []
        self.reps: list[dict] = []
        self.run_id = ""
        self._stack: list[dict] = []
        self._next_id = 0
        self._step = ""
        self._rep = None
        self._undo: list[tuple] = []

    def _open(self, name, attrs):
        parent = self._stack[-1]["id"] if self._stack else None
        rec = {"id": self._next_id, "name": name, "parent": parent, "run": self.run_id,
               "step": self._step, "attrs": attrs, "child_s": 0.0,
               "start": time.perf_counter()}
        self._next_id += 1
        self._stack.append(rec)
        return rec

    def _close(self, rec):
        rec["end"] = time.perf_counter()
        self._stack.pop()
        dur = rec["end"] - rec["start"]
        rec["self_s"] = dur - rec.pop("child_s")
        if self._stack:
            self._stack[-1]["child_s"] += dur
        self.spans.append(rec)

    @contextlib.contextmanager
    def span(self, name, step=None, **attrs):
        """A span around a block; `step` labels every span opened inside."""
        outer = self._step
        if step is not None:
            self._step = step
            attrs["label"] = step
        rec = self._open(name, attrs)
        try:
            yield rec
        finally:
            self._close(rec)
            self._step = outer

    def wrap(self, fn, name, attrs=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name, attrs(*args, **kwargs) if attrs else {})
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(rec["attrs"], result)
                return result
            finally:
                self._close(rec)
        return wrapper

    def patch(self, module, attr, replacement):
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self):
        """Wrap every traced name in nullrec; `uninstall` restores them."""
        from nullrec import algebra, cli, estimator, montecarlo, processes, splitting

        def gen_attrs(spec, n, seed):
            rep = self._rep
            if rep is not None:
                rep["rows"] += n + 1
                rep["calls"] += 1
            return {"family": spec.family, "rows": n + 1}

        generate = self.wrap(processes.generate, "processes.generate", gen_attrs)
        for mod in (processes, montecarlo, cli, splitting):
            self.patch(mod, "generate", generate)

        for fn in ESTIMATOR_FNS:
            orig = getattr(estimator, fn)
            if fn == "cv_constant":
                orig = self._peak_alloc(orig)
            wrapped = self.wrap(orig, f"estimator.{fn}")
            for mod in (estimator, montecarlo, cli):
                if hasattr(mod, fn):
                    self.patch(mod, fn, wrapped)

        def clt_after(attrs, res):
            attrs.update(admitted=res.admitted, guard=res.guard_exceeded,
                         empty=res.rejected_empty)

        run_clt = self.wrap(montecarlo.run_clt, "montecarlo.run_clt", after=clt_after)
        for mod in (montecarlo, cli):
            self.patch(mod, "run_clt", run_clt)
        # Private hooks for the per-replication counters; without them those
        # counters read 0 rather than failing the run.
        if hasattr(montecarlo, "_run_rep"):
            self.patch(montecarlo, "_run_rep", self._rep_timer(montecarlo._run_rep))
        if hasattr(montecarlo, "_window_count"):
            self.patch(montecarlo, "_window_count", self._rows_used(montecarlo._window_count))

        for fn in ALGEBRA_FNS + ALGEBRA_CLI_ONLY:
            wrapped = self.wrap(getattr(algebra, fn), f"algebra.{fn}")
            for mod in (algebra, cli):
                if hasattr(mod, fn):
                    self.patch(mod, fn, wrapped)

        for fn in SPLITTING_FNS:
            wrapped = self.wrap(getattr(splitting, fn), f"splitting.{fn}",
                                attrs=_SPLIT_ATTRS.get(fn))
            for mod in (splitting, cli):
                if hasattr(mod, fn):
                    self.patch(mod, fn, wrapped)

        for fn in CLI_WRITERS:
            if hasattr(cli, fn):
                self.patch(cli, fn, self.wrap(getattr(cli, fn), "cli.write"))
        self.patch(cli, "main", self.wrap(cli.main, "cli.main"))

    def uninstall(self):
        while self._undo:
            module, attr, orig = self._undo.pop()
            setattr(module, attr, orig)

    def _rep_timer(self, run_rep):
        """Times each replication and counts its generate calls and rows; a
        counter, not a span, so run_clt's self time stays montecarlo's own."""
        @functools.wraps(run_rep)
        def wrapper(protocol, rep):
            self._rep = {"run": self.run_id, "mode": protocol.mode, "rows": 0, "calls": 0,
                         "used": 0, "local_count": protocol.local_count}
            t0 = time.perf_counter()
            try:
                record = run_rep(protocol, rep)
            finally:
                self._rep["seconds"] = time.perf_counter() - t0
                self.reps.append(self._rep)
                self._rep = None
            self.reps[-1]["status"] = record.status
            return record
        return wrapper

    def _rows_used(self, window_count):
        """Rows up to the stopping index; a guard-rejected replication needs
        its whole path to be rejected, so all of its last path counts."""
        @functools.wraps(window_count)
        def wrapper(x, window):
            counts = window_count(x, window)
            rep = self._rep
            if rep is not None and rep["local_count"] is not None:
                need = rep["local_count"]
                if counts[-1] >= need:
                    rep["used"] = int(np.argmax(counts >= need)) + 1
                else:
                    rep["used"] = len(counts)
            return counts
        return wrapper

    def _peak_alloc(self, fn):
        """Records the peak traced allocation of each call in its span."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self._stack[-1]["attrs"]["peak_alloc_mb"] = peak / 2**20
        return wrapper

    def write(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, default=str) + "\n")


def _split_kind(process, n, seed):
    kind = ("finite" if hasattr(process, "P") else
            "product" if process.family == "FINITE_PRODUCT" else "walk")
    return {"kind": kind, "steps": n + 1}


_SPLIT_ATTRS = {
    "simulate_split": _split_kind,
    "sample_blocks": lambda model, *a, **k: {"d": model.d},
}


def layer_metrics(tracer: Tracer, run_id: str, bytes_written: int) -> dict:
    """Per-layer metrics of one traced job, except the baseline probes,
    which are timed on the untraced jobs."""
    by_name: dict[str, list[dict]] = {}
    for s in tracer.spans:
        if s["run"] == run_id:
            by_name.setdefault(s["name"], []).append(s)
    reps = [r for r in tracer.reps if r["run"] == run_id]

    def select(name, **match):
        return [s for s in by_name.get(name, ())
                if all(s["attrs"].get(k) == v for k, v in match.items())]

    def self_s(name, **match):
        return sum(s["self_s"] for s in select(name, **match))

    m = {}
    gen = select("processes.generate")
    rows = sum(s["attrs"]["rows"] for s in gen)
    m["processes.generate.calls"] = len(gen)
    m["processes.generate.rows"] = rows
    m["processes.generate.self_s"] = self_s("processes.generate")
    m["processes.generate.rows_per_s"] = _ratio(rows, m["processes.generate.self_s"])
    for fam in FAMILIES:
        m[f"processes.generate.{fam}.self_s"] = self_s("processes.generate", family=fam)

    clt = select("montecarlo.run_clt")
    rep_ms = [r["seconds"] * 1e3 for r in reps]
    fixed = [r for r in reps if r["mode"] == "fixed_point"]
    m["montecarlo.run_clt.self_s"] = self_s("montecarlo.run_clt")
    m["montecarlo.rep_p50_ms"] = float(np.percentile(rep_ms, 50)) if rep_ms else 0.0
    m["montecarlo.rep_p90_ms"] = float(np.percentile(rep_ms, 90)) if rep_ms else 0.0
    for key in ("admitted", "guard", "empty"):
        m[f"montecarlo.reps_{key}"] = sum(s["attrs"].get(key, 0) for s in clt)
    m["montecarlo.fixed_point.rows_used_frac"] = _ratio(sum(r["used"] for r in fixed),
                                                        sum(r["rows"] for r in fixed))
    m["montecarlo.fixed_point.generate_calls_per_rep"] = _ratio(sum(r["calls"] for r in fixed),
                                                                len(fixed))
    m["montecarlo.pool_speedup"] = 0.0

    for fn in ESTIMATOR_FNS:
        m[f"estimator.{fn}.calls"] = len(select(f"estimator.{fn}"))
        m[f"estimator.{fn}.self_s"] = self_s(f"estimator.{fn}")
    m["estimator.cv_constant.peak_alloc_mb"] = max(
        (s["attrs"]["peak_alloc_mb"] for s in select("estimator.cv_constant")), default=0.0)

    for fn in ALGEBRA_FNS:
        m[f"algebra.{fn}.calls"] = len(select(f"algebra.{fn}"))
        m[f"algebra.{fn}.self_s"] = self_s(f"algebra.{fn}")
    m["algebra.small_models.self_s"] = sum(s["self_s"] for name, group in by_name.items()
                                           if name.startswith("algebra.")
                                           for s in group if s["step"] == "small_models")

    for kind in ("finite", "walk", "product"):
        m[f"splitting.simulate_split.{kind}.self_s"] = self_s("splitting.simulate_split",
                                                              kind=kind)
    sims = select("splitting.simulate_split")
    m["splitting.simulate_split.steps_per_s"] = _ratio(
        sum(s["attrs"]["steps"] for s in sims), sum(s["end"] - s["start"] for s in sims))
    m["splitting.sample_blocks.d3.self_s"] = self_s("splitting.sample_blocks", d=3)
    m["splitting.sample_blocks.d300.self_s"] = self_s("splitting.sample_blocks", d=300)
    for fn in ("sample_compound_block_sums", "sample_embedded_counts", "block_sums"):
        m[f"splitting.{fn}.self_s"] = self_s(f"splitting.{fn}")

    m["cli.main.self_s"] = self_s("cli.main")
    m["cli.write.self_s"] = self_s("cli.write")
    m["cli.bytes_written"] = bytes_written
    return m


def _ratio(a, b) -> float:
    return a / b if b else 0.0
