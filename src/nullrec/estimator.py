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

The estimate at one point is a direct O(n) sum over the rows of positive
weight, in time order, so any subset of the sample that keeps those rows
gives the same sums bit for bit; _window gives each sample point the range
of exactly those rows.  Cross-validation (Epanechnikov only) needs sums at
every sample point, unweighted and weighted by the response: one pass of
_kernel_sums, in O(n) memory.  Sums at many points come from one routine,
_centred_sums: prefix-sum differences of offsets to one middle point
(locally re-centred, as in Seifert, Brockmann, Engel & Gasser 1994 and Fan
& Marron 1994).  For the Epanechnikov kernel these are the window sums of
1, d and d^2 (and of v, d v and d^2 v for weights v), formed in place from
one prefix buffer by one path that serves the modal screen (one bandwidth)
and cross-validation (one bandwidth per point) alike; _kernel_sums sums
blocks of the sorted sample 5 max(h) wide, each about its own middle point,
so the sums do not change when the sample is shifted.  For the truncated
Gaussian they are the window sums of exp(-d^2/2h^2) d^k, the terms of the
Taylor series of exp(d_i d_j / h^2) (Greengard & Strain 1991), taken about
the middle of blocks one h wide so that the series is short, with an
explicit remainder.

The modal point needs only the largest density, so it screens and then
verifies, one block of _BLOCK sorted points and its windows at a time:
_centred_sums bounds every point's sum, with an explicit bound on the
rounding and the Taylor remainder.  Only the points whose upper bound
reaches the largest lower bound of any block get the direct window sum, so
the pick is the one direct sums at every point would give; a lone survivor
is the pick and gets none.  The sample must be finite, and for the default
pilot bandwidth so must its sd, computed by the IEEE operations of x.std().
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
_BLOCK = 1 << 16  # sorted points per block of modal_value's screen
_EPS = float(np.finfo(float).eps)
_MAX_TERMS = 64  # Taylor terms of the Gaussian form; binding only for c above about 15
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
        if self.kind == "gaussian_truncated" and not (math.isfinite(self.c) and self.c > 0):
            raise InvalidSpec(f"gaussian_truncated needs a finite truncation radius c > 0, "
                              f"got {self.c!r}")

    @property
    def support_radius(self) -> float:
        return 1.0 if self.kind == "epanechnikov" else self.c

    def support(self, x_eval: float, h: float) -> tuple[float, float]:
        """Closed bounds [lo, hi] holding every x of positive weight
        K((x - x_eval)/h): x_eval +- r h, widened by one part in 1e9 of r h,
        which covers the rounding of x - x_eval, of the division by h and of
        r h.  Rounding x_eval +- pad to the nearest double drops no double
        that lies within it."""
        pad = self.support_radius * h * (1.0 + 1e-9)
        return x_eval - pad, x_eval + pad

    @property
    def l2_norm_sq(self) -> float:
        if self.kind == "epanechnikov":
            return 0.6
        z = math.erf(self.c / math.sqrt(2.0))
        return math.erf(self.c) / (2.0 * _SQRT_PI * z * z)

    def weights(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if self.kind == "epanechnikov":
            # 0.75 * max(0, 1 - u^2), built in one output array; a 0-d u
            # gives a numpy float64 scalar.
            w = np.multiply(u, u, out=np.empty_like(u))
            np.subtract(1.0, w, out=w)
            np.maximum(0.0, w, out=w)
            w *= 0.75
            return w[()]
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
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"bandwidth must be positive and finite, got {h!r}")
    rows, k = _positive_weights(x, x_eval, h, kernel)
    raw = float(k.sum())
    if raw <= 0.0:
        raise EmptyNeighborhood(f"no observations within the kernel support at {x_eval!r}")
    zk = z[rows]
    zk *= k
    f_hat = float(zk.sum() / raw)
    t_c = _occupation(x, window if window is not None else default_window(x_eval))
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

    The pilot p_hat_C uses the fixed reference bandwidth width(C)/10.  c0
    must be finite and > 0, and C must have finite ends lo < hi."""
    x = np.asarray(x, dtype=float)
    lo, hi = window if window is not None else default_window(x_eval)
    if not (math.isfinite(c0) and c0 > 0.0):
        raise ValueError(f"bandwidth constant c0 must be finite and > 0, got {c0!r}")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"window {(lo, hi)!r} must have finite ends lo < hi")
    t_c = _occupation(x, (lo, hi))
    if t_c == 0:
        raise EmptyOccupation(f"no observations in the window {(lo, hi)!r}")
    h_ref = (hi - lo) / 10.0
    raw = float(_positive_weights(x, x_eval, h_ref, kernel)[1].sum())
    if raw <= 0.0:
        raise EmptyNeighborhood(f"pilot neighborhood at {x_eval!r} is empty")
    p_hat = raw / h_ref / t_c
    return c0 * (t_c * p_hat) ** (-0.2)


def _positive_weights(x: np.ndarray, x_eval: float, h: float,
                      kernel: Kernel) -> tuple[np.ndarray, np.ndarray]:
    """The rows t of x with positive weight K((x_t - x_eval)/h), in time
    order, and those weights.  Only the rows within kernel.support are
    weighted, so every subset of x that keeps the positive-weight rows gives
    the same two arrays, and sums over them agree bit for bit."""
    lo, hi = kernel.support(x_eval, h)
    near = x >= lo
    near &= x <= hi
    rows = np.flatnonzero(near)
    u = x[rows]
    u -= x_eval
    u /= h
    k = kernel.weights(u)
    positive = k > 0.0
    return rows[positive], k[positive]


def _occupation(x: np.ndarray, window: tuple[float, float]) -> int:
    """T_C(n): the number of observations in the closed window C."""
    lo, hi = window
    inside = x >= lo
    inside &= x <= hi
    return int(np.count_nonzero(inside))


def cv_constant(x, z, grid) -> float:
    """Pick the bandwidth constant c0 from `grid` (each finite and > 0)
    minimizing the leave-one-out squared prediction error of the Epanechnikov
    estimate under the local bandwidth rule, skipping points whose
    leave-one-out neighborhood is empty."""
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    if len(x) < 20:
        raise ValueError("cross-validation needs at least 20 observations")
    grid = list(grid)
    if not grid or not all(math.isfinite(c0) and c0 > 0.0 for c0 in grid):
        raise ValueError(f"the grid must be nonempty with every c0 finite and > 0, got {grid!r}")

    order = np.argsort(x, kind="stable")
    xs, zs = x[order], z[order]
    h_ref = 2.0 * DEFAULT_WINDOW_HALFWIDTH / 10.0
    pilot = _kernel_sums(xs, h_ref, *_window(xs, h_ref, EPANECHNIKOV, 0, xs.size))[0] / h_ref  # T_C p_hat
    k0 = float(EPANECHNIKOV.weights(0.0))

    best_c0, best_err = None, math.inf
    for c0 in grid:
        h = c0 * pilot ** (-0.2)
        # Leaving a point out removes its own K(0) term.  Its neighborhood is
        # empty when its window holds no other point; the difference of the
        # sums below is rounding noise then, so it is not compared with 0.
        lo, hi = _window(xs, h, EPANECHNIKOV, 0, xs.size)
        usable = hi - lo > 1
        if not usable.any():
            continue
        wsum, wz = _kernel_sums(xs, h, lo, hi, zs)
        wsum -= k0
        wz -= k0 * zs
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
    default pilot bandwidth is Silverman's 1.06 sd n^{-1/5}, with sd bit for
    bit x.std(); a given one must be finite and positive, with a square that
    does not underflow.  A sample with a NaN or an infinite value, or whose
    sd is not finite (its squares overflow), raises ValueError.

    The density at a point is its direct window sum K((xs_j - x_i)/h).sum().
    Only the points that can still win are summed: _screen bounds every
    point's sum from prefix sums, block by block over the sorted sample and
    once more about the survivors, and drops the points whose upper bound is
    below the tie floor of the largest lower bound so far.  The bounds hold
    in floating point, so the pick is the one direct sums at every point
    would give.  A lone survivor is that pick without a direct sum: the
    point of the largest lower bound always survives."""
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise ValueError("modal_value needs a nonempty sample")
    if pilot_h is None:
        # x.std()'s IEEE operations: the mean, the deviations, their squares
        # in place, their mean and the square root.
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            dev = x - x.sum() / x.size
            dev *= dev
            sd = math.sqrt(dev.sum() / x.size)
        del dev  # before the sorted copy
        if not math.isfinite(sd):
            raise ValueError(f"the default pilot bandwidth needs a finite sample sd, got {sd!r}")
        pilot_h = 1.06 * sd * x.size ** (-0.2) if sd > 0 else 1.0
    elif math.isfinite(pilot_h) and pilot_h > 0.0 and pilot_h * pilot_h > 0.0:
        pilot_h = float(pilot_h)  # a 0-d array or np.float64 pilot is one bandwidth too
    else:
        raise ValueError(f"pilot bandwidth must be finite and positive with a nonzero square, "
                         f"got {pilot_h!r}")

    xs = np.sort(x)
    if not (math.isfinite(xs[0]) and math.isfinite(xs[-1])):  # NaN sorts last
        raise ValueError("modal_value needs a finite sample")
    if xs.size == 1:
        return float(xs[0])
    floor, kept, head = -math.inf, [], ()
    for a0 in range(0, xs.size, _BLOCK):
        b0 = min(a0 + _BLOCK, xs.size)
        lo, hi = _window(xs, pilot_h, kernel, a0, b0, head)
        lo, head = lo[:b0 - a0], lo[b0 - a0:]
        upper, block_floor = _screen(xs, pilot_h, kernel, xs[a0:b0], lo, hi)
        floor = max(floor, block_floor)  # a NaN floor bounds nothing
        keep = (~(upper < floor)).nonzero()[0]
        kept.append((keep + a0 if a0 else keep, lo[keep], hi[keep], upper[keep]))
    points, lo, hi, upper = kept[0]
    if len(kept) > 1:  # prune the earlier blocks by the final floor
        points, lo, hi, upper = (np.concatenate(k) for k in zip(*kept))
        keep = ~(upper < floor)
        points, lo, hi = points[keep], lo[keep], hi[keep]
    if points.size > 1:
        # Equal points have equal sums, and so have all windows of one point,
        # K(0): the first of each stands for the rest.
        keep = (points == 0) | (xs[points] != xs[points - 1])
        keep[np.flatnonzero(hi - lo == 1)[1:]] = False
        upper, floor = _screen(xs, pilot_h, kernel, xs[points], lo, hi)
        keep &= ~(upper < floor)
        points, lo, hi = points[keep], lo[keep], hi[keep]
    if points.size == 1:  # the pick: every pruned point's sum is below its tie floor
        return float(xs[points[0]])
    dens = _direct_sums(xs, pilot_h, kernel, lo, hi, points)
    return float(xs[points[dens >= _tie_floor(float(dens.max()))][0]])


def _tie_floor(v: float) -> float:
    """The smallest kernel sum that ties with v, one part in 1e12 below it."""
    return v - abs(v) * 1e-12


def _screen(xs: np.ndarray, h: float, kernel: Kernel, at: np.ndarray, lo: np.ndarray,
            hi: np.ndarray) -> tuple[np.ndarray, float]:
    """Every point's upper bound on the direct sum
    D_i = K((xs[lo_i:hi_i] - at_i)/h).sum() at the sample points `at`
    (ascending, with windows [lo, hi) into the sorted sample xs), and the
    tie floor of the largest lower bound, up to the kernel's constant factor.

    _centred_sums estimates every D_i with a bound on the distance from it:
    about the middle point of `at` for the Epanechnikov kernel, and about
    the middle point of each block of `at` one h wide for the truncated
    Gaussian (every upper bound is infinite when the blocks hold fewer than
    ten points on average).  A point whose upper bound is below the tie
    floor of any valid lower bound is no direct-sum winner or tie; a bound
    that is NaN or infinite prunes nothing."""
    if kernel.kind == "epanechnikov":
        est, _, bound = _centred_sums(xs, h, kernel, at, lo, hi)
        top = float(est.max()) - bound
    else:
        blocks = _blocks(at, h)
        if 10 * len(blocks) > at.size:  # a block costs about ten direct sums
            return np.full(at.size, math.inf), -math.inf
        parts = [_centred_sums(xs, h, kernel, at[a:b], lo[a:b], hi[a:b]) for a, b in blocks]
        est = np.concatenate([e for e, _, _ in parts])
        bound = np.repeat([b for _, _, b in parts], [b - a for a, b in blocks])
        top = float((est - bound).max())
    est += bound
    return est, _tie_floor(top)


def _centred_sums(xs: np.ndarray, h, kernel: Kernel, at: np.ndarray, lo: np.ndarray,
                  hi: np.ndarray, v: Optional[np.ndarray] = None
                  ) -> tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
    """Window sums of the kernel's shape about the middle point c of `at`:
    from one pass of prefix sums over the points a..b-1 of all the windows
    [lo_i, hi_i) of the points at_i, with offsets d = xs[a:b] - c.  No term
    grows with |x|, so the sums do not change when the sample is shifted.
    Returns the sums, the sums weighted by v (None when v is None, and for
    the truncated Gaussian) and, for one bandwidth, one bound on the
    distance of the sums from the direct window sums of the shape (None for
    one bandwidth per point).

    Epanechnikov, for one bandwidth h (a scalar) or an array of one per point
    of `at`: E_i = sum_j (1 - ((xs_j - at_i)/h_i)^2), the direct sum / 0.75.
    With S0, S1, S2 the window sums of v, d v and d^2 v (v_j = 1 for E_i, so
    S0 = hi_i - lo_i), E_i = S0 - (S2 - d_i (2 S1 - d_i S0)) / h_i^2, formed
    in place with one prefix buffer, the weighted sums before d is squared.
    With m = b - a, r = max |d_i| and X = max |at_i|, E_i for one h is within

        2 eps ( ((m + 4) (sum d^2 + 2 r sqrt(m sum d^2)) + 4 r^2 m) / h^2
                + m (m + 4) )  +  8 m g (1 + g)^2,   g = eps (X + r + 2h) / h

    of the direct sum / 0.75: twice the rounding of the prefix sums and of
    the expansion (recursive summation in any order, |S1| <= sum |d| <=
    sqrt(m sum d^2)), of the direct sum itself and of the offsets.

    Truncated Gaussian, for one bandwidth h and no weights: G_i, the window
    sum of exp(-u^2/2), the direct sum times sqrt(2 pi) erf(c/sqrt 2).  With
    t = d/h, exp(-(t_j - t_i)^2/2) = exp(-t_i^2/2) exp(-t_j^2/2) exp(t_i t_j)
    and the last factor is a Taylor series, so G_i is
    exp(-t_i^2/2) sum_{k<p} t_i^k / k! S_k with S_k the window sums of
    exp(-t_j^2/2) t_j^k, one prefix pass per term, plus a remainder.  Since
    exp(-t_i^2/2 - t_j^2/2 + |t_i t_j|) <= 1, the absolute terms of G_i add
    up to at most m, and with R = max |t_i| max |t_j| the remainder is at
    most m R^p / p!.  p is the fewest terms that keep it within the rounding
    of the prefix sums and the expansion, eps m (m + 3p + 8 + 2 max t_j^2 +
    2 max t_i^2), up to _MAX_TERMS terms; when the remainder is then still at
    least m, which 0 <= G_i <= m already gives, the estimate is skipped and
    the bound is infinite.  Otherwise the bound is twice the sum of those
    two and of the rounding of the direct sum and of the offsets,
    eps m (m + c^2 + c + 6 + r + rho) with r = max |t_i| and rho = max |t_j|.
    The windows hold exactly the points the kernel weights, so the Taylor
    and the direct sums read the same terms."""
    one_h = np.isscalar(h)  # then the windows of the ascending `at` ascend too
    a, b = (int(lo[0]), int(hi[-1])) if one_h else (int(lo.min()), int(hi.max()))
    m, c = b - a, at[at.size // 2]
    d = xs[a:b] - c
    eps = _EPS
    if kernel.kind != "epanechnikov":
        t, ti = d / h, (at - c) / h
        rho, r = float(max(-t[0], t[-1])), float(max(-ti[0], ti[-1]))

        def rounding(p):
            return eps * m * (m + 3.0 * p + 8.0 + 2.0 * (rho * rho + r * r))

        p, rem = 0, float(m)  # rem = m R^p / p!
        while rem > rounding(p) and p < _MAX_TERMS:
            p += 1
            rem *= r * rho / p
        if rem >= m:  # no better than 0 <= G_i <= m: skip the prefix passes
            return np.zeros(at.size), None, math.inf
        w, pk = np.exp(-0.5 * t * t), np.zeros(m + 1)
        i, j = lo - a, hi - a
        est, coef = np.zeros(at.size), np.ones(at.size)  # coef = t_i^k / k!
        for k in range(p):
            np.cumsum(w, out=pk[1:])
            est += coef * (pk[j] - pk[i])
            w *= t
            coef *= ti / (k + 1)
        est *= np.exp(-0.5 * ti * ti)
        kc = kernel.c
        return est, None, 2.0 * (rounding(p) + rem + eps * m * (m + kc * kc + kc + 6.0 + r + rho))

    # The expression above in place, each element through the same IEEE
    # operations, with one prefix buffer pk for every power.  `at` holds
    # distinct sample points, each inside its own window, so at.size == m
    # means `at` is xs[a:b] and the offsets at_i - c are d itself.
    i, j = (lo, hi) if a == 0 else (lo - a, hi - a)
    di = d if at.size == m else at - c
    pk, hh = np.zeros(m + 1), h * h

    def expand(s0, w):  # the sums from S0 and w = d v, which becomes d^2 v in place
        np.add.accumulate(w, out=pk[1:])  # np.cumsum's sums, without its wrapper
        t = pk[j]
        t -= pk[i]
        t *= 2.0
        t -= di * s0
        t *= di  # d_i (2 S1 - d_i S0), before w (perhaps d itself) is squared
        w *= d
        np.add.accumulate(w, out=pk[1:])
        est = pk[j]
        est -= pk[i]
        est -= t
        est /= hh
        return np.subtract(s0, est, out=est)

    est_v = None
    if v is not None:
        np.add.accumulate(v[a:b], out=pk[1:])
        est_v = expand(pk[j] - pk[i], d * v[a:b])
    est = expand(j - i, d)
    if not one_h:
        return est, est_v, None
    sq = float(pk[-1])
    r = float(max(c - at[0], at[-1] - c))
    g = eps * (max(abs(at[0]), abs(at[-1])) + r + 2.0 * h) / h
    bound = (2.0 * eps * (((m + 4) * (sq + 2.0 * r * math.sqrt(m * sq)) + 4.0 * r * r * m) / hh
                          + m * (m + 4.0))
             + 8.0 * m * g * (1.0 + g) ** 2)
    return est, est_v, bound


def _direct_sums(xs: np.ndarray, h: float, kernel: Kernel, lo: np.ndarray, hi: np.ndarray,
                 points) -> np.ndarray:
    """sum_j K((xs_j - xs_i)/h) over the window [lo_k, hi_k) of the k-th
    point i of `points` (an index array or slice), one window at a time."""
    return np.array([kernel.weights((xs[a:b] - v) / h).sum()
                     for v, a, b in zip(xs[points].tolist(), lo.tolist(), hi.tolist())])


def _window(xs: np.ndarray, h, kernel: Kernel, a0: int, b0: int, head=()
            ) -> tuple[np.ndarray, np.ndarray]:
    """Index bounds [lo, hi) at each point xs_i, a0 <= i < b0, of the sorted
    sample xs of exactly the points j of positive weight K((xs_j - xs_i)/h_i),
    for one bandwidth h or one per point of the range: a run through i, as K
    never grows with |u|.  The padded Kernel.support bounds a superset; _trim
    moves its ends in.  With one h, u_ji = -u_ij exactly, so hi_i counts the
    j with lo_j <= i, and lo runs on over the points up to xs[b0-1] + pad;
    `head` holds the lower ends already found of the first points."""
    pad = kernel.support(0.0, h)[1]
    if not np.isscalar(h):
        at = xs[a0:b0]
        return (_trim(xs, h, kernel, np.searchsorted(xs, at - pad), a0),
                _trim(xs, h, kernel, np.searchsorted(xs, at + pad, side="right") - 1, a0) + 1)
    e0 = b0 if b0 == xs.size else int(np.searchsorted(xs, xs[b0 - 1] + pad, side="right"))
    c0 = a0 + len(head)  # the first point whose lower end is searched for
    s0 = int(np.searchsorted(xs, xs[c0] - pad)) if 0 < c0 < e0 else 0
    ys = xs[s0:e0]  # the slice that holds those lower ends
    lo = _trim(ys, h, kernel, np.searchsorted(ys, ys[c0 - s0:] - pad), c0 - s0)
    if s0:
        lo += s0
    if len(head):
        lo = np.concatenate([head, lo])
    r = int(lo[0])
    hi = np.add.accumulate(np.bincount(lo - r if r else lo, minlength=b0 - r)[:b0 - r])[a0 - r:]
    if a0:
        hi += a0
    return lo, hi


def _trim(xs: np.ndarray, h, kernel: Kernel, end: np.ndarray, a0: int) -> np.ndarray:
    """The window ends end_k (on either side of i = a0 + k) each moved towards
    i to the nearest point of positive weight K((xs_j - xs_i)/h_k), by
    bisection: the weight does not fall from end_k to i, which has weight."""
    at = xs[a0:a0 + end.size]
    u = xs[end]
    u -= at
    if kernel.kind == "epanechnikov":
        # K(u) = 0 exactly where u^2 >= 1, and the rounded |xs_j - xs_i| / h
        # is at least 1 exactly where |xs_j - xs_i| >= h.
        zero = np.abs(u, out=u) >= h
    else:
        u /= h
        zero = kernel.weights(u) == 0.0
    if not zero.any():  # the common case
        return end
    zero = np.flatnonzero(zero)
    at, hz = at[zero], (h if np.ndim(h) == 0 else h[zero])
    out, inner = end[zero], zero + a0  # weight 0 at out, positive at inner
    while (np.abs(out - inner) > 1).any():
        mid = (out + inner) // 2  # out or inner itself once they are adjacent
        kept = kernel.weights((xs[mid] - at) / hz) > 0.0
        inner, out = np.where(kept, mid, inner), np.where(kept, out, mid)
    end[zero] = inner
    return end


def _blocks(x: np.ndarray, width: float) -> list[tuple[int, int]]:
    """Index ranges [a, b) cutting the sorted x into blocks `width` wide."""
    block = np.floor((x - x[0]) / width)
    cuts = [0, *(np.flatnonzero(np.diff(block)) + 1).tolist(), x.size]
    return list(zip(cuts[:-1], cuts[1:]))


def _kernel_sums(xs: np.ndarray, h, lo: np.ndarray, hi: np.ndarray,
                 v: Optional[np.ndarray] = None) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Epanechnikov sums sum_j K((xs_j - xs_i)/h_i) over the windows [lo, hi)
    of _window at every point xs_i of the sorted sample xs, for one bandwidth
    h or one per point, and the same sums weighted by v_j (None when v is
    None): from _centred_sums on blocks of the sample 5 max(h) wide."""
    hs = np.broadcast_to(h, xs.shape)
    parts = [_centred_sums(xs, hs[a:b], EPANECHNIKOV, xs[a:b], lo[a:b], hi[a:b], v)
             for a, b in _blocks(xs, 5.0 * float(np.max(h)))]
    est_v = None if v is None else 0.75 * np.concatenate([e for _, e, _ in parts])
    return 0.75 * np.concatenate([e for e, _, _ in parts]), est_v  # K(u) = 0.75 (1 - u^2)
