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
rejection, a right-censored value).  A fixed-point replication keeps only the
band of its path: the rows in the closed window, widened to the pilot's
kernel support.  The linked families stream their path and cut it at T, so
no row beyond T's block is drawn.  An INDEP walk comes from band_walk, which
steps it only near the band and jumps over its far excursions by the exact
first-passage law: its band rows and T are those of an exact Gaussian walk,
but not of generate's path for the seed; its band rows draw their w from
one generator once T is found.  The estimator weights only the rows of
positive weight, and the band holds every one of them unless the local
bandwidth reaches past it; the replication is then read again from its
seed and estimated on the whole path, with band_walk's skipped excursions
filled in.  Either way the results are those of the whole path, bit for bit.

Each admitted replication contributes one studentized statistic, which is
asymptotically standard normal when the disturbance has unit variance; the
empirical law is summarized by its Kolmogorov-Smirnov distance to the
standard normal, so no normal is fitted.

Per-replication seeds come from a splitmix64 mix of (base_seed, index), so
serial and parallel execution produce bit-identical results and aggregation
is order-independent.  The sizes of a protocol file share each replication's
seed, and so its path: run_protocols draws that path once, at the largest
size, and reads every smaller size from its first rows (modal) or its band
rows up to the size's own stopping time (fixed_point).  Since a shorter path
with the same seed is a prefix of a longer one, the outputs equal those of
one-size runs, bit for bit.
"""

from __future__ import annotations

import math
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
    check_keys,
)
from .estimator import EPANECHNIKOV, Kernel, local_bandwidth, modal_value, nw_estimate
from .processes import (KEY_INDEP_W, KEY_OFF_BAND_W, ProcessSpec, band_walk, generate,
                        keyed_rng, spec_from_dict, stream)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

ADMITTED = "admitted"
EMPTY = "empty"
GUARD = "guard"

_WHOLE_PATH = (-math.inf, math.inf)  # the band that keeps every row


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
        if not 0 <= self.base_seed < 1 << 64:
            raise InvalidSpec(f"base_seed must lie in [0, 2**64), got {self.base_seed!r}")
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
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise InvalidSpec(f"window ends must be finite, got {self.window!r}")
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


def _band(protocol: CltProtocol) -> tuple[float, float]:
    """The closed window, widened to the support of the pilot bandwidth
    width/10 (or of a larger fixed bandwidth) about x_eval."""
    lo, hi = protocol.window
    h = max((hi - lo) / 10.0, protocol.fixed_h or 0.0)
    s_lo, s_hi = protocol.kernel.support(protocol.x_eval, h)
    return min(lo, s_lo), max(hi, s_hi)


def _rows(protocol: CltProtocol, seed: int, band: tuple[float, float]):
    """Rows 0..max_path_length of a replication's path as (start, x, w)
    blocks of consecutive rows in time order; a row left out lies outside
    `band`.  INDEP paths come from band_walk, with jumps set by the
    protocol's band and every row filled in for the whole path, and carry no
    w; the other families are streamed whole."""
    spec = protocol.process
    limit = protocol.max_path_length + 1
    if spec.family == "INDEP":
        for start, x in band_walk(spec, seed, _band(protocol), limit, fill=band == _WHOLE_PATH):
            yield start, x, None
        return
    start = 0
    for x, w in stream(spec, seed):
        yield start, x[:limit - start], w
        start += len(x)
        if start >= limit:
            return


def _fixed_point_paths(group, seed: int, band: tuple[float, float]) -> list:
    """For each protocol of `group`, which differ only in local_count, its
    (x, z, T + 1): the rows t <= T whose x lies in the closed band, which
    holds the closed window, in time order, with T the first time
    `local_count` observations have fallen in the window; None when
    T > max_path_length.  The group's path is read once, up to its largest
    T, and no row after that T's block is drawn; each protocol's rows are a
    prefix of the rows read.  The window and z = f(x) + w are evaluated on
    the band rows only; INDEP's w is drawn for those rows alone, by band
    rank, once the last T is found."""
    first = group[0]
    lo, hi = first.window
    b_lo, b_hi = band
    counts = sorted({p.local_count for p in group})
    stops = {}  # local_count -> (band rows up to T, T + 1)
    seen = kept = 0  # window rows and band rows before the block
    xs, ws = [], []
    for start, x, w in _rows(first, seed, band):
        keep = x >= b_lo
        keep &= x <= b_hi
        keep = keep.nonzero()[0]
        if not len(keep):
            continue
        band_x = x[keep]
        inside = ((band_x >= lo) & (band_x <= hi)).nonzero()[0]
        while len(stops) < len(counts) and seen + len(inside) >= counts[len(stops)]:
            row = int(inside[counts[len(stops)] - seen - 1])
            stops[counts[len(stops)]] = (kept + row + 1, start + int(keep[row]) + 1)
        xs.append(band_x)
        if w is not None:
            ws.append(w[keep])
        if len(stops) == len(counts):
            break
        seen += len(inside)
        kept += len(keep)
    if not stops:
        return [None] * len(group)
    rows = stops[max(stops)][0]
    x = np.concatenate(xs)[:rows]
    w = np.concatenate(ws)[:rows] if ws else _indep_w(first, seed, x)
    z = first.process.f(x) + w
    cuts = []
    for p in group:
        stop = stops.get(p.local_count)
        cuts.append(None if stop is None else (x[:stop[0]], z[:stop[0]], stop[1]))
    return cuts


def _indep_w(protocol: CltProtocol, seed: int, x: np.ndarray) -> np.ndarray:
    """INDEP's w = sigma_w eps on the rows x of a replication.  eps is i.i.d.
    and independent of x, so a rule that looks at x alone may hand it out:
    the rows in _band(protocol) take stream (KEY_INDEP_W, 0) by band rank,
    the others (on a whole path) (KEY_OFF_BAND_W,), in time order.  A band
    thus gets the whole path's w, bit for bit."""
    b_lo, b_hi = _band(protocol)
    in_band = (x >= b_lo) & (x <= b_hi)
    w = np.empty(len(x))
    for rows, key in ((in_band, (KEY_INDEP_W, 0)), (~in_band, (KEY_OFF_BAND_W,))):
        if rows.any():
            w[rows] = keyed_rng(seed, *key).standard_normal(np.count_nonzero(rows))
    w *= protocol.process.sigma_w
    return w


def _run_group_rep(group, rep: int) -> tuple:
    """Replication `rep` of every protocol in `group`, which differ only in
    size: one path, drawn once up to the largest size, and one RepRecord
    per protocol, in group order."""
    first = group[0]
    seed = derive_seed(first.base_seed, rep)
    if first.mode == "modal":
        path = generate(first.process, max(p.n for p in group), seed)
        cuts = [(path.x[:p.n + 1], path.z[:p.n + 1], p.n + 1) for p in group]
        band = _WHOLE_PATH
    else:
        band = _band(first)
        cuts = _fixed_point_paths(group, seed, band)
    return tuple(_record(p, rep, seed, cut, band) for p, cut in zip(group, cuts))


def _record(protocol: CltProtocol, rep: int, seed: int, cut, band) -> RepRecord:
    """The record of one size of a replication from its rows `cut`, an
    (x, z, path length) triple, or None for a guard rejection."""
    if cut is None:
        # Right-censored: the stopping time is beyond the guard.
        return _rejection(rep, seed, None, GUARD, protocol.max_path_length + 1)
    x, z, length = cut
    if protocol.mode == "modal":
        x_eval, window = modal_value(x, protocol.kernel), None
    else:
        x_eval, window = protocol.x_eval, protocol.window
    try:
        if protocol.fixed_h is not None:
            h = protocol.fixed_h
        else:
            h = local_bandwidth(x, x_eval, window, protocol.c0, protocol.kernel)
            s_lo, s_hi = protocol.kernel.support(x_eval, h)
            if not band[0] <= s_lo <= s_hi <= band[1]:
                # h reaches past the band: read the path again, whole.
                x, z, _ = _fixed_point_paths((protocol,), seed, _WHOLE_PATH)[0]
        report = nw_estimate(x, z, x_eval, h, protocol.kernel, window=window,
                             f_true_at_x=float(protocol.process.f(x_eval)))
    except (EmptyNeighborhood, EmptyOccupation):
        return _rejection(rep, seed, protocol.size, EMPTY, length)
    return RepRecord(rep, seed, protocol.size, float(x_eval), float(h), report.sum_k,
                     report.f_hat, report.studentized, ADMITTED, length)


def run_protocols(protocols, threads: Optional[int] = None) -> list[CltExperimentResult]:
    """Run all replications of each protocol and aggregate; one result per
    protocol, in input order.

    Protocols that agree in _comparability_key and base_seed differ only in
    size, and form a group.  Replication r of a group draws its path once,
    from derive_seed(base_seed, r), up to the group's largest size, and each
    size reads its own prefix of it: rows 0..n for modal, the band rows up
    to its own stopping time for fixed_point.  A shorter path with the same
    seed is a prefix of a longer one, so every result equals that of its
    protocol run alone, bit for bit.  Deterministic given the protocols and
    independent of `threads`; a pool task is one replication of a group."""
    protocols = list(protocols)
    groups = {}
    for i, p in enumerate(protocols):
        groups.setdefault((_comparability_key(p), p.base_seed), []).append(i)
    groups = [(idx, tuple(protocols[i] for i in idx)) for idx in groups.values()]
    if threads and threads > 1:
        from concurrent.futures import ProcessPoolExecutor  # not loaded by a serial run

        with ProcessPoolExecutor(max_workers=threads) as pool:
            runs = [list(pool.map(partial(_run_group_rep, group), range(group[0].reps),
                                  chunksize=max(1, group[0].reps // (threads * 8))))
                    for _, group in groups]
    else:
        runs = [[_run_group_rep(group, r) for r in range(group[0].reps)] for _, group in groups]
    records = [None] * len(protocols)
    for (idx, _), reps in zip(groups, runs):
        for i, recs in zip(idx, zip(*reps)):
            records[i] = recs
    return [_aggregate(p, recs) for p, recs in zip(protocols, records)]


def run_clt(protocol: CltProtocol, threads: Optional[int] = None) -> CltExperimentResult:
    """Run all replications of one protocol and aggregate: replication r
    uses derive_seed(base_seed, r), whatever `threads`."""
    return run_protocols([protocol], threads)[0]


def _aggregate(protocol: CltProtocol, records: tuple) -> CltExperimentResult:
    """One protocol's result from its records, in replication order; raises
    AllRejected when none is admitted."""
    values = np.array([r.studentized for r in records if r.status == ADMITTED])
    admitted = len(values)
    rejected_empty = sum(1 for r in records if r.status == EMPTY)
    guard = sum(1 for r in records if r.status == GUARD)
    if admitted == 0:
        raise AllRejected(f"all {protocol.reps} replications were rejected")
    ks = ks_normal(values) if admitted >= 10 else math.nan
    mean = float(values.mean())
    sd = float(values.std(ddof=1)) if admitted >= 2 else math.nan
    return CltExperimentResult(protocol=protocol, records=records,
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


def kolmogorov_sf(x: float) -> float:
    """P(K > x) for K = sup |B| of a Brownian bridge B, the limit law of
    sqrt(m) times a KS distance; 1 to double precision at x <= 0.2."""
    if x <= 0.2:
        return 1.0
    return 2.0 * sum((-1) ** (k - 1) * math.exp(-2.0 * k * k * x * x) for k in range(1, 101))


def kolmogorov_isf(alpha: float) -> float:
    """The x with P(K > x) = alpha, by bisection."""
    lo, hi = 0.0, 10.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if kolmogorov_sf(mid) > alpha else (lo, mid)
    return hi


def ks_pvalue(distance: float, m: int) -> float:
    """P(D >= distance) for the KS distance D of m draws from the hypothesized
    law, by the Kolmogorov law of (sqrt(m) + 0.12 + 0.11 / sqrt(m)) D (Stephens)."""
    return kolmogorov_sf((math.sqrt(m) + 0.12 + 0.11 / math.sqrt(m)) * distance)


def ks_critical(m: int, alpha: float) -> float:
    """The distance d with ks_pvalue(d, m) = alpha."""
    return kolmogorov_isf(alpha) / (math.sqrt(m) + 0.12 + 0.11 / math.sqrt(m))


TREND_ALPHA = 1e-3  # trend_report's false-alarm rate under the N(0, 1) limit


@dataclass(frozen=True)
class TrendRow:
    size: int
    ks_distance: float
    sd: float
    ks_pvalue: float


@dataclass(frozen=True)
class TrendReport:
    rows: tuple
    violation: bool


def _comparability_key(p: CltProtocol):
    return (p.mode, p.process, p.kernel, p.c0, p.fixed_h, p.reps,
            p.x_eval, p.window, p.max_path_length)


def trend_report(results) -> TrendReport:
    """Order results by size, and flag the run when the largest size's KS
    distance rejects N(0, 1) at TREND_ALPHA, which covers its exceeding a
    smaller size's by more than ks_critical(m, TREND_ALPHA), m its admitted
    count.  Results must agree in everything but size.  A size with fewer
    than 10 admitted replications has a NaN distance and p-value, and flags
    the run when it is the largest."""
    results = list(results)
    if len(results) < 2:
        raise IncomparableProtocols("need at least two results to compare")
    keys = {_comparability_key(r.protocol) for r in results}
    if len(keys) > 1:
        raise IncomparableProtocols("results differ in more than the size")
    rows = tuple(sorted((TrendRow(r.protocol.size, r.ks_distance, r.sd,
                                  ks_pvalue(r.ks_distance, r.admitted)) for r in results),
                        key=lambda row: row.size))
    return TrendReport(rows=rows, violation=not rows[-1].ks_pvalue >= TREND_ALPHA)


# --- protocol files ---------------------------------------------------------

_KERNEL_KEYS = {"epanechnikov": ("kind",), "gaussian_truncated": ("kind", "c")}
_PROTOCOL_KEYS = ("id", "mode", "process", "reps", "base_seed", "kernel", "bandwidth",
                  "max_path_length")
_MODE_KEYS = {"modal": ("n",), "fixed_point": ("local_count", "x_eval", "window")}


def kernel_from_dict(obj: dict) -> Kernel:
    kind = obj.get("kind", "epanechnikov")
    if kind not in _KERNEL_KEYS:
        raise InvalidSpec(f"unknown kernel kind {kind!r}; expected one of {list(_KERNEL_KEYS)}")
    check_keys(obj, _KERNEL_KEYS[kind], f"{kind} kernel")
    if kind == "epanechnikov":
        return EPANECHNIKOV
    return Kernel(kind, c=float(obj.get("c", 2.5)))


def protocols_from_dict(obj: dict) -> list[CltProtocol]:
    """Expand a protocol file into one protocol per requested size (a scalar
    or list under 'n' for modal, 'local_count' for fixed_point).  A key that
    the file's mode does not read, at the top level or in 'bandwidth' or
    'kernel', raises InvalidSpec."""
    mode = obj["mode"]
    if mode not in _MODE_KEYS:
        raise InvalidSpec(f"unknown mode {mode!r}; expected one of {list(_MODE_KEYS)}")
    check_keys(obj, _PROTOCOL_KEYS + _MODE_KEYS[mode], f"{mode} protocol")
    sizes = obj["n"] if mode == "modal" else obj["local_count"]
    if not isinstance(sizes, (list, tuple)):
        sizes = [sizes]
    base_id = obj.get("id", f"{mode}-{obj['process'].get('family', '?').lower()}")
    bw = obj.get("bandwidth", {})
    check_keys(bw, ("c0", "h"), "bandwidth")
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
