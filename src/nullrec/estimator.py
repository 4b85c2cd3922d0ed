"""Kernel regression at a point, bandwidth rules, and the studentized statistic.

The regression estimate is the kernel-weighted average

    f_hat(x) = sum_t Z_t K((X_t - x)/h) / sum_t K((X_t - x)/h),

reported together with S_n(K_{x,h}) = sum_t h^{-1} K((X_t - x)/h), the
occupation count T_C(n) of a reference window C around x, and the local
density estimate p_hat_C(x) = S_n(K_{x,h}) / T_C(n).

Because the regressor is null recurrent, a realization may simply never
visit x: an empty neighborhood is a routine outcome and is raised as an
error for the caller to count, never silently zeroed.

The studentized statistic

    sqrt( sum_t K((X_t - x)/h) / ||K||_2^2 ) * (f_hat(x) - f(x))

is asymptotically standard normal when the disturbance has unit variance;
the Monte Carlo harness collects it across replications.

Bandwidths follow the local rule h = c0 * (T_C(n) p_hat_C(x))^{-1/5}, with
the pilot density taken at a fixed reference bandwidth of one tenth of the
window width; the constant c0 can be chosen by leave-one-out
cross-validation.

The estimate at one point is a direct O(n) sum.  Cross-validation needs
sums at every sample point and gets them from _kernel_sums, in O(n) memory.
Every Epanechnikov sum at many points comes from one routine, _centred_sums:
prefix-sum differences of offsets to one middle point (locally re-centred,
as in Seifert, Brockmann, Engel & Gasser 1994 and Fan & Marron 1994).
_kernel_sums sums blocks of the sorted sample 5 max(h) wide, each about its
own middle point, so the sums do not change when the sample is shifted.

The modal point needs only the largest density, so it screens and then
verifies: the same routine, about the sample median, bounds every point's
Epanechnikov sum with an explicit rounding bound, and only the points whose
upper bound reaches the largest lower bound get the direct window sum.  The
pick is the one direct sums at every point would give.  Other kernels are
summed directly at every point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    AllNeighborhoodsEmpty,
    EmptyNeighborhood,
    EmptyOccupation,
    InvalidSpec,
)

DEFAULT_WINDOW_HALFWIDTH = 2.5
_BLOCK = 1 << 16  # points per chunk of _centred_sums' estimates
_SQRT_PI = math.sqrt(math.pi)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class Kernel:
    """Compactly supported kernel: Epanechnikov (default) or a truncated,
    renormalized Gaussian.  Integrates to one, symmetric; the squared
    L2 norm is exposed because the studentized statistic divides by it."""

    kind: str
    c: float = 0.0

    def __post_init__(self):
        if self.kind not in ("epanechnikov", "gaussian_truncated"):
            raise InvalidSpec(f"unknown kernel kind {self.kind!r}")
        if self.kind == "gaussian_truncated" and self.c <= 0:
            raise InvalidSpec("gaussian_truncated needs a truncation radius c > 0")

    @property
    def support_radius(self) -> float:
        return 1.0 if self.kind == "epanechnikov" else self.c

    @property
    def l2_norm_sq(self) -> float:
        if self.kind == "epanechnikov":
            return 0.6
        z = math.erf(self.c / math.sqrt(2.0))
        return math.erf(self.c) / (2.0 * _SQRT_PI * z * z)

    def weights(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if self.kind == "epanechnikov":
            return 0.75 * np.maximum(0.0, 1.0 - u * u)
        z = math.erf(self.c / math.sqrt(2.0))
        inside = np.abs(u) <= self.c
        return np.where(inside, np.exp(-0.5 * u * u) / (_SQRT_2PI * z), 0.0)


EPANECHNIKOV = Kernel("epanechnikov")


def gaussian_truncated(c: float) -> Kernel:
    return Kernel("gaussian_truncated", c=c)


@dataclass(frozen=True)
class EstimateReport:
    """The estimate at one evaluation point with its local diagnostics."""

    x_eval: float
    h: float
    f_hat: float
    sum_k: float
    t_c: int
    p_hat_c: Optional[float]
    studentized: Optional[float] = None


def default_window(x_eval: float) -> tuple[float, float]:
    return (x_eval - DEFAULT_WINDOW_HALFWIDTH, x_eval + DEFAULT_WINDOW_HALFWIDTH)


def nw_estimate(x, z, x_eval: float, h: float, kernel: Kernel = EPANECHNIKOV,
                window: Optional[tuple[float, float]] = None,
                f_true_at_x: Optional[float] = None) -> EstimateReport:
    """Kernel-weighted average of z at x_eval with bandwidth h.

    Raises EmptyNeighborhood when no observation has positive weight; by
    construction f_hat lies between the smallest and largest z that do."""
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    if x.shape != z.shape:
        raise ValueError("x and z must have equal length")
    if not h > 0:
        raise ValueError("bandwidth must be positive")
    k = kernel.weights((x - x_eval) / h)
    raw = float(k.sum())
    if raw <= 0.0:
        raise EmptyNeighborhood(f"no observations within the kernel support at {x_eval!r}")
    f_hat = float((z * k).sum() / raw)
    lo, hi = window if window is not None else default_window(x_eval)
    t_c = int(((x >= lo) & (x <= hi)).sum())
    sum_k = raw / h
    p_hat_c = sum_k / t_c if t_c > 0 else None
    stud = None
    if f_true_at_x is not None:
        stud = math.sqrt(raw / kernel.l2_norm_sq) * (f_hat - f_true_at_x)
    return EstimateReport(x_eval=float(x_eval), h=float(h), f_hat=f_hat,
                          sum_k=sum_k, t_c=t_c, p_hat_c=p_hat_c, studentized=stud)


def local_bandwidth(x, x_eval: float, window: Optional[tuple[float, float]] = None,
                    c0: float = 1.0, kernel: Kernel = EPANECHNIKOV) -> float:
    """h = c0 * (T_C(n) p_hat_C(x))^{-1/5}, the null-recurrent analogue of the
    usual n^{-1/5} rate: the effective sample size is the local one.

    The pilot p_hat_C uses the fixed reference bandwidth width(C)/10."""
    x = np.asarray(x, dtype=float)
    lo, hi = window if window is not None else default_window(x_eval)
    t_c = int(((x >= lo) & (x <= hi)).sum())
    if t_c == 0:
        raise EmptyOccupation(f"no observations in the window {(lo, hi)!r}")
    h_ref = (hi - lo) / 10.0
    raw = float(kernel.weights((x - x_eval) / h_ref).sum())
    if raw <= 0.0:
        raise EmptyNeighborhood(f"pilot neighborhood at {x_eval!r} is empty")
    p_hat = raw / h_ref / t_c
    return c0 * (t_c * p_hat) ** (-0.2)


def cv_constant(x, z, grid, kernel: Kernel = EPANECHNIKOV) -> float:
    """Pick the bandwidth constant c0 from `grid` minimizing the leave-one-out
    squared prediction error under the local bandwidth rule, skipping points
    whose leave-one-out neighborhood is empty."""
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    n = len(x)
    if n < 20:
        raise ValueError("cross-validation needs at least 20 observations")
    grid = list(grid)
    if not grid:
        raise ValueError("empty candidate grid")

    order = np.argsort(x, kind="stable")
    xs, zs = x[order], z[order]
    h_ref = 2.0 * DEFAULT_WINDOW_HALFWIDTH / 10.0
    pilot = _kernel_sums(xs, h_ref, kernel) / h_ref  # T_C p_hat at each point
    k0 = float(kernel.weights(0.0))

    best_c0, best_err = None, math.inf
    for c0 in grid:
        h = c0 * pilot ** (-0.2)
        # Leaving a point out removes its own K(0) term.  Its neighborhood is
        # empty when no other point has positive weight (K(+-1) = 0 for the
        # Epanechnikov kernel, so its window is open); the difference of the
        # sums below is rounding noise then, so it is not compared with 0.
        lo, hi = _window(xs, kernel.support_radius * h, open_=kernel.kind == "epanechnikov")
        usable = hi - lo > 1
        if not usable.any():
            continue
        wsum = _kernel_sums(xs, h, kernel) - k0
        wz = _kernel_sums(xs, h, kernel, zs) - k0 * zs
        pred = wz[usable] / wsum[usable]
        err = float(((zs[usable] - pred) ** 2).sum())
        if err < best_err:
            best_err, best_c0 = err, c0
    if best_c0 is None:
        raise AllNeighborhoodsEmpty("every leave-one-out neighborhood was empty "
                                    "for every candidate constant")
    return best_c0


def modal_value(x, kernel: Kernel = EPANECHNIKOV, pilot_h: Optional[float] = None) -> float:
    """The observation maximizing the kernel density estimate over the sample,
    a realization-dependent central evaluation point.

    Ties (within one part in 1e12) go to the leftmost observation.  The
    default pilot bandwidth is Silverman's 1.06 sd n^{-1/5}; a given one
    must be finite and positive, with a square that does not underflow.

    The density at a point is its direct window sum K((xs_j - x_i)/h).sum().
    For the Epanechnikov kernel only the points that can still win are summed:
    _screen bounds every point's sum from prefix sums, once about the sample
    median and once more about the survivors, and drops the points whose
    upper bound is below the tie floor of the largest lower bound.  The
    bounds hold in floating point, so the pick is the one direct sums at
    every point would give.  Equal observations have equal sums, so only the
    first of each run is summed."""
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise ValueError("modal_value needs a nonempty sample")
    if pilot_h is not None and not (math.isfinite(pilot_h) and pilot_h > 0.0
                                    and pilot_h * pilot_h > 0.0):
        raise ValueError(f"pilot bandwidth must be finite and positive with a nonzero square, "
                         f"got {pilot_h!r}")
    if x.size == 1:
        return float(x[0])
    if pilot_h is None:
        sd = float(x.std())
        pilot_h = 1.06 * sd * x.size ** (-0.2) if sd > 0 else 1.0

    xs = np.sort(x)
    lo, hi = _window(xs, kernel.support_radius * pilot_h)
    if kernel.kind == "epanechnikov":
        points = np.flatnonzero(_screen(xs, pilot_h, xs, lo, hi))
        if points.size > 1:
            points = points[_screen(xs, pilot_h, xs[points], lo[points], hi[points])]
    else:
        points = np.arange(xs.size)
    points = points[(points == 0) | (xs[points] != xs[points - 1])]
    dens = _direct_sums(xs, pilot_h, kernel, lo, hi, points)
    return float(xs[points[dens >= _tie_floor(float(dens.max()))][0]])


def _tie_floor(v: float) -> float:
    """The smallest kernel sum that ties with v, one part in 1e12 below it."""
    return v - abs(v) * 1e-12


def _screen(xs: np.ndarray, h: float, at: np.ndarray, lo: np.ndarray,
            hi: np.ndarray) -> np.ndarray:
    """Which of the sample points `at` (ascending, with windows [lo, hi) into
    the sorted sample xs) may hold the largest direct Epanechnikov sum
    D_i = K((xs[lo_i:hi_i] - at_i)/h).sum(), up to the 1e-12 tie rule.

    D_i / 0.75 is estimated by _centred_sums over the m points a..b-1 of all
    the windows, with offsets d to the middle point c of `at`.  With
    r = max |d_i| and X = max |at_i|, the estimate is within

        2 eps ( ((m + 4) (sum d^2 + 2 r sqrt(m sum d^2)) + 4 r^2 m) / h^2
                + m (m + 4) )  +  8 m g (1 + g)^2,   g = eps (X + r + 2h) / h

    of D_i / 0.75 at every point: twice the rounding of the prefix sums and
    of the expansion (recursive summation in any order, |S1| <= sum |d| <=
    sqrt(m sum d^2)), of the direct sum itself, of the offsets, and of the
    window members up to a rounding past h, whose terms D_i clips at 0.  A
    point is kept unless its upper bound is below the tie floor of the
    largest lower bound, which no direct-sum winner or tie is; a bound that
    is NaN or infinite keeps every point."""
    est, sq = _centred_sums(xs, h, at, lo, hi)
    m, c = int(hi[-1] - lo[0]), at[at.size // 2]
    r = float(max(c - at[0], at[-1] - c))
    eps = np.finfo(float).eps
    g = eps * (max(abs(at[0]), abs(at[-1])) + r + 2.0 * h) / h
    bound = (2.0 * eps * (((m + 4) * (sq + 2.0 * r * math.sqrt(m * sq)) + 4.0 * r * r * m) / (h * h)
                          + m * (m + 4.0))
             + 8.0 * m * g * (1.0 + g) ** 2)
    floor = _tie_floor(float(est.max()) - bound)
    est += bound
    return ~(est < floor)


def _centred_sums(xs: np.ndarray, h, at: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                  v: Optional[np.ndarray] = None) -> tuple[np.ndarray, float]:
    """E_i = sum_j (1 - ((xs_j - at_i)/h_i)^2) v_j over the window [lo_i, hi_i)
    of each point at_i, for one bandwidth h (a scalar) or an array of one per
    point of `at`, and v_j = 1 when v is None; also the total of d^2 v.

    With offsets d = xs[a:b] - c to the middle point c of `at`, over the
    points a..b-1 of all the windows, and S0, S1, S2 the window sums of v,
    d v and d^2 v from one pass of prefix sums (S0 = hi_i - lo_i for v None),
    E_i = S0 - (S2 - d_i (2 S1 - d_i S0)) / h_i^2.  No term grows with |x|,
    so E_i does not change when the sample is shifted."""
    one_h = np.isscalar(h)  # then the windows of the ascending `at` ascend too
    a, b = (int(lo[0]), int(hi[-1])) if one_h else (int(lo.min()), int(hi.max()))
    c = at[at.size // 2]
    d = xs[a:b] - c
    dv = d if v is None else d * v[a:b]
    p1 = np.zeros(b - a + 1)
    np.cumsum(dv, out=p1[1:])
    d *= dv  # d^2 v, in place
    p2 = np.zeros(b - a + 1)
    np.cumsum(d, out=p2[1:])
    del d, dv
    p0 = None if v is None else np.concatenate([[0.0], np.cumsum(v[a:b])])
    hh = h * h
    est = np.empty(at.size)
    for k in range(0, at.size, _BLOCK):  # in blocks, so the temporaries stay small
        i, j = lo[k:k + _BLOCK] - a, hi[k:k + _BLOCK] - a
        s0 = j - i if v is None else p0[j] - p0[i]
        s1, s2 = p1[j] - p1[i], p2[j] - p2[i]
        di = at[k:k + _BLOCK] - c
        est[k:k + _BLOCK] = s0 - (s2 - di * (2.0 * s1 - di * s0)) / (
            hh if one_h else hh[k:k + _BLOCK])
    return est, float(p2[-1])


def _direct_sums(xs: np.ndarray, h, kernel: Kernel, lo: np.ndarray, hi: np.ndarray,
                 points, v: Optional[np.ndarray] = None) -> np.ndarray:
    """sum_j K((xs_j - xs_i)/h_i) v_j over the window [lo_i, hi_i) of each
    point i in `points` (an index array or slice), one window at a time, for
    one bandwidth h or one per point, and v_j = 1 when v is None."""
    hs = np.broadcast_to(h, xs.shape)[points].tolist()
    at = xs[points].tolist()
    sums = np.empty(len(at))
    for k, (a, b) in enumerate(zip(lo[points].tolist(), hi[points].tolist())):
        w = kernel.weights((xs[a:b] - at[k]) / hs[k])
        sums[k] = w.sum() if v is None else w @ v[a:b]
    return sums


def _window(xs: np.ndarray, r, open_: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Index bounds [lo, hi) at each point xs_i of the sorted sample xs of the
    points with |xs_j - xs_i| <= r_i (< r_i when open_), for one radius r or
    one per point."""
    lo = np.searchsorted(xs, xs - r, side="right" if open_ else "left")
    if np.ndim(r) == 0:
        # With one radius, x_j reaches x_i iff x_i reaches x_j (up to rounding
        # at the edge), so hi_i is the number of points j with lo_j <= i.
        return lo, np.cumsum(np.bincount(lo, minlength=xs.size))[:xs.size]
    return lo, np.searchsorted(xs, xs + r, side="left" if open_ else "right")


def _kernel_sums(xs: np.ndarray, h, kernel: Kernel, v: Optional[np.ndarray] = None) -> np.ndarray:
    """sum_j K((xs_j - xs_i)/h_i) v_j at every point xs_i of the sorted sample
    xs, for one bandwidth h or one per point, and v_j = 1 when v is None.
    Other kernels are summed window by window; Epanechnikov sums come from
    _centred_sums on blocks of the sample 5 max(h) wide, each about its own
    middle point."""
    h = np.asarray(h, dtype=float)
    lo, hi = _window(xs, kernel.support_radius * h)
    if kernel.kind != "epanechnikov":
        return _direct_sums(xs, h, kernel, lo, hi, slice(None), v)
    block = np.floor((xs - xs[0]) / (5.0 * float(h.max())))
    cuts = [0, *(np.flatnonzero(np.diff(block)) + 1).tolist(), xs.size]
    hs = np.broadcast_to(h, xs.shape)
    return 0.75 * np.concatenate([  # K(u) = 0.75 (1 - u^2)
        _centred_sums(xs, hs[a:b], xs[a:b], lo[a:b], hi[a:b], v)[0]
        for a, b in zip(cuts[:-1], cuts[1:])])
