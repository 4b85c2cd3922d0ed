"""Replicated central-limit experiments for the studentized kernel estimate.

Two admission protocols:

    fixed_point  grow each realization until `local_count` observations have
                 accumulated in a fixed window around x_eval (reject at
                 max_path_length: with a null-recurrent regressor the waiting
                 time has infinite mean, so a guard is mandatory and its
                 rejections are reported, never dropped);
    modal        run exactly n steps and evaluate at the sample's modal
                 value, a realization-dependent central point.

Every replication records the path length it used: n + 1 for modal, and
T + 1 for fixed_point, T the stopping time (max_path_length + 1 for a guard
rejection, a right-censored value).  Fixed-point paths are streamed and cut
at T, so no row beyond T's block is drawn.

Each admitted replication contributes one studentized statistic; the
empirical law is summarized by its Kolmogorov-Smirnov distance to the
standard normal (the statistic is already normalized by the known limit
variance, so no normal is fitted).

Per-replication seeds come from a splitmix64 mix of (base_seed, index), so
serial and parallel execution produce bit-identical results and aggregation
is order-independent.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .errors import (
    AllRejected,
    EmptyNeighborhood,
    EmptyOccupation,
    IncomparableProtocols,
    InvalidSpec,
    TooFewValues,
)
from .estimator import EPANECHNIKOV, Kernel, local_bandwidth, modal_value, nw_estimate
from .processes import ProcessSpec, generate, spec_from_dict, stream

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

ADMITTED = "admitted"
EMPTY = "empty"
GUARD = "guard"


def derive_seed(base: int, rep: int) -> int:
    """splitmix64 finalizer applied to base + (rep+1) * golden-gamma: a pure,
    documented mixing function so parallel and serial runs agree."""
    x = (base + (rep + 1) * _GOLDEN) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


@dataclass(frozen=True)
class CltProtocol:
    process: ProcessSpec
    mode: str  # "fixed_point" | "modal"
    reps: int
    base_seed: int = 0
    kernel: Kernel = EPANECHNIKOV
    c0: Optional[float] = 1.0
    fixed_h: Optional[float] = None
    n: Optional[int] = None
    x_eval: Optional[float] = None
    window: Optional[tuple[float, float]] = None
    local_count: Optional[int] = None
    max_path_length: int = 1_000_000
    protocol_id: str = ""

    def __post_init__(self):
        if self.mode not in ("fixed_point", "modal"):
            raise InvalidSpec(f"unknown mode {self.mode!r}")
        if self.reps < 1:
            raise InvalidSpec("reps must be >= 1")
        if self.fixed_h is None and self.c0 is None:
            raise InvalidSpec("need either a fixed bandwidth or a local-rule constant")
        if not all(v is None or (math.isfinite(v) and v > 0.0) for v in (self.fixed_h, self.c0)):
            raise InvalidSpec(f"bandwidth h={self.fixed_h!r}, c0={self.c0!r} must be finite and > 0")
        if self.max_path_length < 1:
            raise InvalidSpec(f"max_path_length must be >= 1, got {self.max_path_length}")
        if self.mode == "modal":
            if self.n is None or self.n < 1:
                raise InvalidSpec("modal mode requires a path length n")
        else:
            if self.x_eval is None or self.window is None or self.local_count is None:
                raise InvalidSpec("fixed_point mode requires x_eval, window and local_count")
            if self.local_count < 1:
                raise InvalidSpec("fixed_point mode requires local_count >= 1")
            lo, hi = self.window
            if not (lo < self.x_eval < hi):
                raise InvalidSpec(f"x_eval {self.x_eval!r} must lie inside the window {self.window!r}")
            object.__setattr__(self, "window", (float(lo), float(hi)))

    @property
    def size(self) -> int:
        return self.n if self.mode == "modal" else self.local_count


@dataclass(frozen=True)
class RepRecord:
    rep: int
    seed: int
    size: Optional[int]
    x_eval: Optional[float]
    h: Optional[float]
    sum_k: Optional[float]
    f_hat: Optional[float]
    studentized: Optional[float]
    status: str
    path_length: int


@dataclass(frozen=True)
class CltExperimentResult:
    protocol: CltProtocol
    records: tuple
    values: np.ndarray
    admitted: int
    rejected_empty: int
    guard_exceeded: int
    ks_distance: float
    mean: float
    sd: float


def _rejection(rep: int, seed: int, size, status: str, path_length: int) -> RepRecord:
    return RepRecord(rep, seed, size, None, None, None, None, None, status, path_length)


def _fixed_point_path(protocol: CltProtocol, seed: int):
    """x and z for t = 0..T, T the first time `local_count` observations
    have fallen in the window, or None when T > max_path_length.  The path
    is streamed block by block and no row after T's block is drawn."""
    lo, hi = protocol.window
    limit = protocol.max_path_length + 1
    missing = protocol.local_count
    xs, zs = [], []
    rows = 0
    for block in stream(protocol.process, seed):
        x, z = block.x[:limit - rows], block.z[:limit - rows]
        inside = (x > lo) & (x < hi)
        found = int(np.count_nonzero(inside))
        if found >= missing:
            stop = int(np.flatnonzero(inside)[missing - 1])
            xs.append(x[:stop + 1])
            zs.append(z[:stop + 1])
            return np.concatenate(xs), np.concatenate(zs)
        missing -= found
        xs.append(x)
        zs.append(z)
        rows += len(x)
        if rows == limit:
            return None


def _run_rep(protocol: CltProtocol, rep: int) -> RepRecord:
    seed = derive_seed(protocol.base_seed, rep)
    spec = protocol.process
    if protocol.mode == "modal":
        path = generate(spec, protocol.n, seed)
        x, z = path.x, path.z
        x_eval = modal_value(x, protocol.kernel)
        size = protocol.n
    else:
        cut = _fixed_point_path(protocol, seed)
        if cut is None:
            # Right-censored: the stopping time is beyond the guard.
            return _rejection(rep, seed, None, GUARD, protocol.max_path_length + 1)
        x, z = cut
        x_eval = protocol.x_eval
        size = protocol.local_count

    window = protocol.window if protocol.mode == "fixed_point" else None
    try:
        if protocol.fixed_h is not None:
            h = protocol.fixed_h
        else:
            h = local_bandwidth(x, x_eval, window, protocol.c0, protocol.kernel)
        report = nw_estimate(x, z, x_eval, h, protocol.kernel, window=window,
                             f_true_at_x=float(spec.f(x_eval)))
    except (EmptyNeighborhood, EmptyOccupation):
        return _rejection(rep, seed, size, EMPTY, len(x))
    return RepRecord(rep, seed, size, float(x_eval), float(h), report.sum_k,
                     report.f_hat, report.studentized, ADMITTED, len(x))


def run_clt(protocol: CltProtocol, threads: Optional[int] = None) -> CltExperimentResult:
    """Run all replications and aggregate.

    Deterministic given the protocol (including base_seed) and independent of
    `threads`: replication r always uses derive_seed(base_seed, r)."""
    if threads and threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            chunk = max(1, protocol.reps // (threads * 8))
            records = list(pool.map(partial(_run_rep, protocol),
                                    range(protocol.reps), chunksize=chunk))
    else:
        records = [_run_rep(protocol, r) for r in range(protocol.reps)]

    values = np.array([r.studentized for r in records if r.status == ADMITTED])
    admitted = len(values)
    rejected_empty = sum(1 for r in records if r.status == EMPTY)
    guard = sum(1 for r in records if r.status == GUARD)
    if admitted == 0:
        raise AllRejected(f"all {protocol.reps} replications were rejected")
    ks = ks_normal(values) if admitted >= 10 else math.nan
    mean = float(values.mean())
    sd = float(values.std(ddof=1)) if admitted >= 2 else math.nan
    return CltExperimentResult(protocol=protocol, records=tuple(records),
                               values=values, admitted=admitted,
                               rejected_empty=rejected_empty, guard_exceeded=guard,
                               ks_distance=ks, mean=mean, sd=sd)


def ks_normal(values) -> float:
    """Kolmogorov-Smirnov sup-distance between the empirical law of `values`
    and the standard normal."""
    v = np.sort(np.asarray(values, dtype=float))
    m = v.size
    if m < 10:
        raise TooFewValues(f"need at least 10 values, got {m}")
    cdf = 0.5 * (1.0 + np.array([math.erf(t / math.sqrt(2.0)) for t in v]))
    i = np.arange(1, m + 1)
    return float(max((i / m - cdf).max(), (cdf - (i - 1) / m).max()))


@dataclass(frozen=True)
class TrendRow:
    size: int
    ks_distance: float
    sd: float


@dataclass(frozen=True)
class TrendReport:
    rows: tuple
    violation: bool


def _comparability_key(p: CltProtocol):
    return (p.mode, p.process, p.kernel, p.c0, p.fixed_h, p.reps,
            p.x_eval, p.window, p.max_path_length)


def trend_report(results) -> TrendReport:
    """Order results by size and flag the run when the largest size does not
    minimize the KS distance.  Results must agree in everything but size."""
    results = list(results)
    if len(results) < 2:
        raise IncomparableProtocols("need at least two results to compare")
    keys = {_comparability_key(r.protocol) for r in results}
    if len(keys) > 1:
        raise IncomparableProtocols("results differ in more than the size")
    rows = tuple(sorted((TrendRow(r.protocol.size, r.ks_distance, r.sd) for r in results),
                        key=lambda row: row.size))
    best = min(row.ks_distance for row in rows)
    violation = rows[-1].ks_distance > best
    return TrendReport(rows=rows, violation=violation)


# --- protocol files ---------------------------------------------------------

def kernel_from_dict(obj: dict) -> Kernel:
    kind = obj.get("kind", "epanechnikov")
    if kind == "epanechnikov":
        return EPANECHNIKOV
    return Kernel(kind, c=float(obj.get("c", 2.5)))


def protocols_from_dict(obj: dict) -> list[CltProtocol]:
    """Expand a protocol file into one protocol per requested size (a scalar
    or list under 'n' for modal, 'local_count' for fixed_point)."""
    mode = obj["mode"]
    sizes = obj["n"] if mode == "modal" else obj["local_count"]
    if not isinstance(sizes, (list, tuple)):
        sizes = [sizes]
    base_id = obj.get("id", f"{mode}-{obj['process'].get('family', '?').lower()}")
    bw = obj.get("bandwidth", {})
    common = dict(
        process=spec_from_dict(obj["process"]),
        mode=mode,
        reps=int(obj["reps"]),
        base_seed=int(obj.get("base_seed", 0)),
        kernel=kernel_from_dict(obj.get("kernel", {})),
        c0=float(bw["c0"]) if "c0" in bw else (None if "h" in bw else 1.0),
        fixed_h=float(bw["h"]) if "h" in bw else None,
        max_path_length=int(obj.get("max_path_length", 1_000_000)),
    )
    out = []
    for size in sizes:
        size = int(size)
        kwargs = dict(common, protocol_id=f"{base_id}-{size}")
        if mode == "modal":
            kwargs["n"] = size
        else:
            kwargs.update(n=None, x_eval=float(obj["x_eval"]),
                          window=tuple(float(v) for v in obj["window"]),
                          local_count=size)
        out.append(CltProtocol(**kwargs))
    return out
