"""Exact regeneration-block algebra on finite-state Markov chains with an atom.

A finite chain with transition matrix P admits an atom (s, nu) when the
minorization inequality P >= s (x) nu holds entrywise.  Everything in this
module is built from the taboo kernel

    H = P - s (x) nu

and its Neumann series, the fundamental kernel G = sum_l H^l.  The atom
induces an invariant measure pi = nu G, normalized so that pi . s = 1, and
closed-form expressions for the moments of regeneration-block sums:

    E_nu U0(g)   = pi . g
    E_nu U0^2(g) = pi g^2 + 2 pi I_g H G g

with I_g the multiplication kernel I_g(x, A) = g(x) 1_A(x).  Higher moments
expand over compositions alpha of m into r positive parts,

    E_x U0^m = sum_r sum_alpha  m!/(alpha_1! ... alpha_r!)
               [G I_{g^a1} H] [G I_{g^a2} H] ... G I_{g^ar} 1 (x).

Splitting off the first part sums that expansion exactly, without
enumerating compositions: with K = H G,

    u_k = g^k + sum_{j<k} C(k, j) g^(k-j) (K u_j),   E_x U0^m = (G u_m)(x),

and the compound block moments run the same recursion on a product grid.

These exact values are the ground-truth oracle against which the split-chain
simulation in :mod:`nullrec.splitting` is checked, and vice versa.

Every quantity derived from a model (H, G, pi, and the sampling tables and
split ratio of :mod:`nullrec.splitting`) is built once, on first use, as a
read-only cached attribute of the frozen :class:`FiniteMarkovModel`, so it can
never go stale.  Concurrent read-only use is safe: a race on a first use at
worst builds the same value twice, and no published array is ever written.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    CoefficientMassDeficit,
    InvalidSpec,
    MinorizationViolated,
    NegativeVariance,
    NotIrreducible,
    NotStochastic,
    OrderTooLarge,
    SeriesDiverges,
    TruncationInsufficient,
)

STOCHASTIC_TOL = 1e-12
_G_RESIDUAL_TOL = 1e-6
MOMENT_ORDER_CAP = 6
_MAX_DOUBLINGS = 53  # past 2^53 terms a double no longer counts the index exactly


class SeriesValue(NamedTuple):
    """A truncated-series value together with its analytic tail bound."""

    value: float
    tail_bound: float


@dataclass(frozen=True)
class FiniteMarkovModel:
    """Transition matrix over a finite ordered state space plus an atom (s, nu).

    Invariants checked at construction: P row-stochastic and nonnegative, nu
    a probability vector, P >= s (x) nu entrywise, and the directed graph of
    P strongly connected.
    """

    states: tuple
    P: np.ndarray
    s: np.ndarray
    nu: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        for name in ("P", "s", "nu"):
            object.__setattr__(self, name, _read_only(np.array(getattr(self, name), dtype=float)))
        validate_atom(self)

    def __reduce__(self):
        # Rebuild through the constructor, so an unpickled model (e.g. in a
        # worker process) has read-only arrays again and the cached derived
        # quantities are recomputed there rather than shipped.
        return (type(self), (self.states, self.P, self.s, self.nu))

    def __eq__(self, other):
        if not isinstance(other, FiniteMarkovModel):
            return NotImplemented
        return self.states == other.states and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in ("P", "s", "nu"))

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0, which compares equal to it.
        return hash((self.states,) + tuple((getattr(self, name) + 0.0).tobytes()
                                           for name in ("P", "s", "nu")))

    @property
    def d(self) -> int:
        return len(self.states)

    def state_values(self) -> np.ndarray:
        """Numeric values of the state labels (falls back to indices)."""
        try:
            return np.array([float(x) for x in self.states])
        except (TypeError, ValueError):
            return np.arange(self.d, dtype=float)

    @cached_property
    def H(self) -> np.ndarray:
        """Taboo kernel P - s (x) nu; magnitudes below 1e-15 are clamped to zero."""
        H = np.maximum(self.P - np.outer(self.s, self.nu), 0.0)
        H[H < 1e-15] = 0.0
        return _read_only(H)

    @cached_property
    def G(self) -> np.ndarray:
        """Fundamental kernel sum_l H^l (see :func:`fundamental_kernel`)."""
        return fundamental_kernel(self.H).entries

    @cached_property
    def pi(self) -> np.ndarray:
        """Invariant measure nu G, normalized so that pi . s = 1."""
        return _read_only(self.nu @ self.G)

    @cached_property
    def cum_nu(self) -> np.ndarray:
        """Cumulative table of nu for inverse-CDF draws."""
        return _cumulative(self.nu)

    @cached_property
    def cum_P(self) -> np.ndarray:
        """Row-wise cumulative table of P for inverse-CDF draws."""
        return _cumulative(self.P)

    @cached_property
    def R(self) -> np.ndarray:
        """Split ratio s(x) nu(y) / p(x, y), zero where p(x, y) = 0."""
        return _read_only(np.divide(np.outer(self.s, self.nu), self.P,
                                    out=np.zeros_like(self.P), where=self.P > 0.0))


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _cumulative(p: np.ndarray) -> np.ndarray:
    """Cumulative sums along the last axis, pinned to 1.0 from each row's last
    positive entry on: rounding (0.7 + 0.2 + 0.1 = 0.9999999999999999) must not
    let a uniform in [0, 1) land past it, on a zero-probability state."""
    cum = np.minimum(np.cumsum(p, axis=-1), 1.0)
    last = p.shape[-1] - 1 - np.argmax(p[..., ::-1] > 0.0, axis=-1)
    cum[np.arange(p.shape[-1]) >= last[..., None]] = 1.0
    return _read_only(cum)


class KernelMatrix(NamedTuple):
    """A read-only d x d kernel (fundamental G or an embedded transition
    matrix) with the tail bound of the series that built it."""

    entries: np.ndarray
    tail_bound: float = 0.0


class InvariantMeasure(NamedTuple):
    """The atom-normalized invariant measure pi = nu G (pi . s = 1).

    Not a probability: its total mass is the expected block length."""

    pi: np.ndarray

    @property
    def total_mass(self) -> float:
        return float(self.pi.sum())


@dataclass(frozen=True)
class BlockMomentRequest:
    """Order-m moment of the block sum of g, started from a state or from nu."""

    g: np.ndarray
    m: int
    start: int | str = "nu"

    def __post_init__(self):
        g = np.asarray(self.g, dtype=float)
        object.__setattr__(self, "g", g)
        if self.m < 1:
            raise ValueError(f"moment order must be >= 1, got {self.m}")
        if self.m > MOMENT_ORDER_CAP:
            raise OrderTooLarge(self.m, MOMENT_ORDER_CAP)
        if not (self.start == "nu" or isinstance(self.start, (int, np.integer))):
            raise ValueError(f"start must be 'nu' or a state index, got {self.start!r}")


def _unreached(adj: np.ndarray) -> np.ndarray:
    """Which states the boolean adjacency matrix adj does not reach from
    state 0, one breadth-first frontier at a time; each row is read once, so
    O(d^2)."""
    unseen = np.ones(adj.shape[0], dtype=bool)
    unseen[0] = False
    frontier = [0]
    while len(frontier):
        frontier = np.flatnonzero(adj[frontier].any(axis=0) & unseen)
        unseen[frontier] = False
    return unseen


def validate_atom(model: FiniteMarkovModel) -> None:
    """Check all model invariants; raises on the first violation."""
    P, s, nu = model.P, model.s, model.nu
    d = model.d
    if P.shape != (d, d) or s.shape != (d,) or nu.shape != (d,):
        raise InvalidSpec(f"inconsistent shapes: P{P.shape}, s{s.shape}, nu{nu.shape}, d={d}")
    if not all(np.isfinite(arr).all() for arr in (P, s, nu)):
        raise InvalidSpec("P, s and nu must be finite")
    sums = P.sum(axis=1)
    bad = np.flatnonzero((P.min(axis=1) < -STOCHASTIC_TOL) | (np.abs(sums - 1.0) > STOCHASTIC_TOL))
    if bad.size:
        raise NotStochastic(int(bad[0]), float(sums[bad[0]]))
    if nu.min() < -STOCHASTIC_TOL or abs(nu.sum() - 1.0) > STOCHASTIC_TOL:
        raise NotStochastic(-1, float(nu.sum()))
    if s.min() < -STOCHASTIC_TOL or s.max() > 1.0 + STOCHASTIC_TOL:
        deficit = float(max(-s.min(), s.max() - 1.0))
        i = int(np.argmax(np.maximum(-s, s - 1.0)))
        raise MinorizationViolated(i, -1, deficit)
    outer = np.outer(s, nu)
    deficit = outer - P
    if deficit.max() > STOCHASTIC_TOL:
        i, j = np.unravel_index(np.argmax(deficit), deficit.shape)
        raise MinorizationViolated(int(i), int(j), float(deficit[i, j]))
    adj = P > 0
    outside = np.flatnonzero(_unreached(adj) | _unreached(adj.T))
    if outside.size:
        raise NotIrreducible(outside.tolist())


def taboo_kernel(model: FiniteMarkovModel) -> np.ndarray:
    """The model's taboo kernel H = P - s (x) nu, i.e. model.H; kept because
    the benchmark calls and traces it."""
    return model.H


def fundamental_kernel(H: np.ndarray) -> KernelMatrix:
    """G = sum_l H^l computed by solving (I - H) G = I directly.

    For H >= 0 the series converges iff I - H is a nonsingular M-matrix, i.e.
    iff (I - H)^{-1} exists and is >= 0 entrywise.  G s = 1 holds exactly for
    s = (I - H) 1 (the atom's s when H = P - s (x) nu), so its residual
    measures how close I - H is to singular, i.e. to a chain that never
    regenerates."""
    d = H.shape[0]
    try:
        G = np.linalg.solve(np.eye(d) - H, np.eye(d))
    except np.linalg.LinAlgError as exc:
        raise SeriesDiverges(str(exc)) from exc
    if not np.isfinite(G).all() or G.min() < 0.0:
        raise SeriesDiverges("(I - H)^-1 is not entrywise nonnegative: H has spectral radius >= 1")
    residual = float(np.abs(G @ (1.0 - H.sum(axis=1)) - 1.0).max())
    if residual > _G_RESIDUAL_TOL:
        raise SeriesDiverges(f"max |G s - 1| = {residual!r}: I - H is too close to singular")
    return KernelMatrix(_read_only(G))


def invariant_measure(model: FiniteMarkovModel) -> InvariantMeasure:
    """pi = nu G, i.e. model.pi; satisfies pi P = pi and pi . s = 1.  Kept
    because the benchmark calls and traces it."""
    return InvariantMeasure(model.pi)


def block_mean_variance(model: FiniteMarkovModel, g) -> tuple[float, float]:
    """Mean and variance of the i.i.d. regeneration-block sums of g.

    mu = pi . g and sigma^2 = E U0^2 - mu^2, with E U0^2 as in block_moment.
    Tiny negative variances (rounding) are clamped to zero; anything below
    -1e-10 signals a broken model and raises."""
    g = np.asarray(g, dtype=float)
    G, H, pi = model.G, model.H, model.pi
    mu = float(pi @ g)
    second = float(pi @ _binomial_moments(g, lambda v: H @ (G @ v), 2))
    sigma2 = second - mu * mu
    if sigma2 < -1e-10:
        raise NegativeVariance(sigma2)
    return mu, max(sigma2, 0.0)


def _binomial_moments(g, K, m: int):
    """u_m of the first-part recursion u_k = g^k + sum_{j=1}^{k-1} C(k, j)
    g^(k-j) (K u_j), with powers and products elementwise and K a linear map
    applied once to each of u_1..u_(m-1).  Its terms are those of the
    composition sum sum_alpha m!/alpha! g^a1 K g^a2 ... K g^ar, grouped by
    the first part a1 = k - j."""
    Ku = [None]
    for k in range(1, m + 1):
        u = g ** k
        for j in range(1, k):
            u = u + math.comb(k, j) * g ** (k - j) * Ku[j]
        if k < m:
            Ku.append(K(u))
    return u


def block_moment(model: FiniteMarkovModel, request: BlockMomentRequest) -> float:
    """E U0^m of the block sum of g, exactly (no truncation):
    :func:`_binomial_moments` with K u = H (G u), closed by pi for start='nu'
    (the common law of the i.i.d. blocks) and by G for an integer start
    (conditioned on X_0 = that state)."""
    g = request.g
    if g.shape != (model.d,):
        raise ValueError(f"g must have length {model.d}, got shape {g.shape}")
    G, H = model.G, model.H
    u = _binomial_moments(g, lambda v: H @ (G @ v), request.m)
    if request.start == "nu":
        return float(model.pi @ u)
    return float(G[request.start] @ u)


def _forward_moments(model: FiniteMarkovModel, g, a, start: int | str, top: int) -> np.ndarray:
    """X[t, k, y] = E[S_t^k; X_t = y, no regeneration before t] for t < len(a)
    and k <= top, where S_t = sum_{j<=t} a_j g(X_j) is the time-weighted
    block sum so far.  start='nu' starts from the atom's law nu, an integer
    from that state.

    Each step moves the previous moments through the taboo kernel,
    B = X[t-1] H, and expands (S + a_t g)^k binomially over B: `top` passes
    of Pascal's rule give sum_j C(k, j) (a_t g)^(k-j) B[j] in place.  That is
    O(len(a) (top + 1) (top + d) d) time and O(len(a) (top + 1) d) memory; no G,
    composition or Neumann series is involved, so the blocks' moments built
    from X are independent of :func:`block_moment`."""
    g = np.asarray(g, dtype=float)
    steps = np.multiply.outer(np.asarray(a, dtype=float), g)  # a_t g(y)
    init = model.nu if start == "nu" else np.eye(model.d)[start]
    X = np.empty((len(steps), top + 1, model.d))
    X[:1] = init * steps[:1, None] ** np.arange(top + 1)[:, None]
    for prev, cur, p in zip(X[:-1], X[1:], steps[1:]):
        np.dot(prev, model.H, out=cur)
        for i in range(1, top + 1):
            cur[i:] += p * cur[i - 1:top]
    return X


def enumerated_block_moments(model: FiniteMarkovModel, g, orders,
                             start: int | str = "nu",
                             depth: int = 200) -> dict[int, SeriesValue]:
    """Independent oracle for :func:`block_moment`, for several moment orders
    in one sweep: E[U0^m; the block ends by step `depth`], the sum over
    t <= depth of (X[t, m] . s) from :func:`_forward_moments` with unit
    weights, with an upper bound on the omitted tail.

    The tail bound sums, over the steps past `depth`, the survival mass
    start H^t 1 times the largest possible |block sum|^m, (t+1)^m max|g|^m."""
    g = np.asarray(g, dtype=float)
    orders = tuple(orders)
    X = _forward_moments(model, g, np.ones(depth + 1), start, max(orders, default=0))
    totals = X.sum(axis=0) @ model.s
    H = model.H
    alive = X[depth, 0] @ H
    gmax = float(np.abs(g).max()) if model.d else 0.0
    tails = dict.fromkeys(orders, 0.0)
    t = depth + 1
    for _ in range(100_000):
        mass = float(alive.sum())
        done = True
        for m in orders:
            term = mass * ((t + 1) * gmax) ** m
            tails[m] += term
            done = done and term < 1e-300
        if done or mass < 1e-300:
            return {m: SeriesValue(float(totals[m]), tails[m]) for m in orders}
        alive = alive @ H
        t += 1
    return {m: SeriesValue(float(totals[m]), math.inf) for m in orders}


def weighted_block_moment(model: FiniteMarkovModel, a, g, m: int,
                          tol: float = 1e-10, start: int | str = "nu") -> SeriesValue:
    """E U0^m of the time-weighted block sum sum_k a_k g(X_k), m in {1, 2}.

    The coefficient sequence is supplied as a finite prefix a_0..a_L, and the
    value is exact for the block sum stopped at step L, S_min(tau, L).  That
    sum's m-th power is the sum of the increments
    S_t^m - S_{t-1}^m = -sum_{j<m} C(m, j) (-a_t g(X_t))^(m-j) S_t^j over the
    steps t <= L at which the block is alive, so the value is a reduction of
    the moments of orders below m from :func:`_forward_moments`.  The omitted
    tail is bounded using the prefix maximum sup|a| (assumed to dominate the
    unseen coefficients) times the survival masses mass_j = start H^j 1,
    summed exactly through G: with u = start H^(L+1),
    sum_{j>L} mass_j = u G 1 and sum_{j>L} j mass_j = u ((L+1) G 1 + H G G 1).
    Raises when that bound exceeds tol."""
    if m not in (1, 2):
        raise OrderTooLarge(m, 2)
    a = np.asarray(a, dtype=float)
    g = np.asarray(g, dtype=float)
    L = len(a) - 1
    if L < 0:
        raise ValueError("coefficient prefix must be nonempty")
    a_sup = float(np.abs(a).max())
    gmax = float(np.abs(g).max())
    H = model.H
    X = _forward_moments(model, g, a, start, m - 1)
    value = -sum(math.comb(m, j) * float((-a) ** (m - j) @ (X[:, j] @ g ** (m - j)))
                 for j in range(m))

    u = X[-1, 0] @ H
    G1 = model.G.sum(axis=1)
    mass_tail = float(u @ G1)  # sum_{j > L} mass_j
    if m == 1:
        tail = a_sup * gmax * mass_tail
    else:
        # omitted: the squares at j > L and the cross terms at (j, j + l),
        # l >= 1, with j + l > L; each is at most gmax^2 mass_{j+l} in size,
        # and k pairs (j, l) have j + l = k
        k_weighted = float(u @ ((L + 1) * G1 + H @ (model.G @ G1)))  # sum_{j > L} j mass_j
        tail = (a_sup ** 2) * (gmax ** 2) * (mass_tail + 2.0 * k_weighted)
    if not (tail <= tol):
        raise TruncationInsufficient(tail, tol)
    return SeriesValue(value, tail)


def generalized_autocov(model: FiniteMarkovModel, g, f=None, ell: int = 0) -> float:
    """Lag-ell generalized (cross-)covariance for chains carrying only an
    invariant measure:

        ell  = 0:  pi I_{g0} f0 + mu_g mu_f (1 - pi . s^2)
        ell >= 1:  phi_g P^{ell-1} f0,   phi_g = pi I_g P - mu_g nu
        ell  < 0:  the (f, g) value at -ell

    where f0 = f - s mu_f centers f against the atom and pi . s^2 means
    sum_x pi(x) s(x)^2."""
    g = np.asarray(g, dtype=float)
    f = g if f is None else np.asarray(f, dtype=float)
    if ell < 0:
        return generalized_autocov(model, f, g, -ell)
    pi = model.pi
    mu_g = float(pi @ g)
    mu_f = float(pi @ f)
    f0 = f - model.s * mu_f
    if ell == 0:
        g0 = g - model.s * mu_g
        return float(pi @ (g0 * f0) + mu_g * mu_f * (1.0 - pi @ (model.s ** 2)))
    phi = (pi * g) @ model.P - mu_g * model.nu
    vec = f0
    for _ in range(ell - 1):
        vec = model.P @ vec
    return float(phi @ vec)


def sigma2_from_series(model: FiniteMarkovModel, g, tol: float = 1e-8) -> SeriesValue:
    """Block variance as the two-sided sum of generalized autocovariances,
    gamma(0) + 2 sum_{l>=1} gamma(l) with gamma(l) = phi_g P^(l-1) g0, doubled
    (:func:`_doubling_sum`) to the first power of two N at which the exact
    remainder phi_g P^N G g0 is below tol/2.  The doubling squares the centred
    kernel Q = P - 1 (x) pi / (pi . 1), whose powers decay, not P, whose
    row-sum error doubles with each squaring: phi_g . 1 = 0 makes
    phi_g Q^l = phi_g P^l term for term.

    Must agree with :func:`block_mean_variance` within tol plus the reported
    tail bound; the two sides use different formulas, so the agreement is a
    genuine cross-check."""
    g = np.asarray(g, dtype=float)
    pi = model.pi
    mu_g = float(pi @ g)
    g0 = g - model.s * mu_g
    psi = model.G @ g0
    phi = (pi * g) @ model.P - mu_g * model.nu
    Q = model.P - pi / pi.sum()
    lags, remainder = _doubling_sum(Q, g0[:, None], np.ones((1, 1)),
                                    lambda _n, Qn: abs(2.0 * float(phi @ (Qn @ psi))), tol / 2.0)
    total = generalized_autocov(model, g, None, 0) + 2.0 * float(phi @ lags[:, 0])
    return SeriesValue(total, remainder)


def regeneration_gap_coefficients(model: FiniteMarkovModel, count: int) -> np.ndarray:
    """b[l] = nu H^{l-1} s for l = 1..count: the law of the gap between
    successive regenerations (equivalently of the first block length), as
    the survival masses of :func:`_forward_moments` closed by s."""
    X = _forward_moments(model, np.zeros(model.d), np.ones(count), "nu", 0)
    return X[:, 0] @ model.s


def embedded_transition(x_model: FiniteMarkovModel, w_model: FiniteMarkovModel,
                        tol: float = 1e-10) -> KernelMatrix:
    """Transition matrix of the W-chain observed at the X-chain's
    regeneration times:  P2 . Phi  with  Phi = sum_l {nu1 H1^l s1} P2^l.

    The mixing coefficients b_{l+1} = nu1 H1^l s1 are the gap law of the
    X-chain and must have total mass 1 (recurrence); a deficit raises.
    Phi = nu1 . K_n with K_n[i] = sum_{l<n} (H1^l s1)_i P2^l, doubled
    (:func:`_doubling_sum`) to the first power of two n at which the remaining
    coefficient mass nu1 H1^n 1 is below tol, so the result is row-stochastic
    within that mass."""
    total_mass = float(x_model.nu @ (x_model.G @ x_model.s))
    if total_mass < 1.0 - max(tol, 1e-9):
        raise CoefficientMassDeficit(total_mass, tol)

    K0 = x_model.s[:, None, None] * np.eye(w_model.d)
    K, remaining = _doubling_sum(x_model.H, K0, w_model.P,
                                    lambda _n, H1n: float(x_model.nu @ H1n.sum(axis=1)), tol)
    Phi = np.tensordot(x_model.nu, K, axes=1)

    P_tilde = w_model.P @ Phi
    row_err = float(np.abs(P_tilde.sum(axis=1) - 1.0).max())
    if row_err > remaining + 1e-9:
        raise TruncationInsufficient(row_err, tol)
    minor = np.outer(w_model.s, w_model.nu @ Phi) - P_tilde
    if minor.max() > tol + 1e-9:
        i, j = np.unravel_index(np.argmax(minor), minor.shape)
        raise MinorizationViolated(int(i), int(j), float(minor[i, j]))
    return KernelMatrix(_read_only(P_tilde), tail_bound=remaining)


def _doubling_sum(A: np.ndarray, Q: np.ndarray, B: np.ndarray, tail, tol: float,
                  powers: list | None = None):
    """(S_n, tail(n, A^n)) for S_n = sum_{j<n} A^j . Q . B^j, A^j acting on the
    first axis of Q and B^j on the last, by Smith's doubling
    S_2n = S_n + A^n . S_n . B^n over n = 1, 2, 4, ... until tail(n, A^n) < tol.
    Raises TruncationInsufficient when that takes more than _MAX_DOUBLINGS
    doublings, as it always does for tol <= 0 or NaN.  When `powers` is a
    list, the pairs (A^n, B^n) applied are appended to it, so that _double
    can sum another Q to the same n with them."""
    S, An, Bn, n = Q, A, B, 1
    while not ((bound := tail(n, An)) < tol):
        if n == 2 ** _MAX_DOUBLINGS:
            raise TruncationInsufficient(bound, tol)
        if powers is not None:
            powers.append((An, Bn))
        S = _double(S, An, Bn)
        An, Bn, n = An @ An, Bn @ Bn, 2 * n
    return S, bound


def _double(S: np.ndarray, An: np.ndarray, Bn: np.ndarray) -> np.ndarray:
    """S + A^n . S . B^n, A^n acting on the first axis of S and B^n on the last."""
    return S + (An @ S.reshape(len(S), -1)).reshape(S.shape) @ Bn


def compound_block_moment(x_model: FiniteMarkovModel, w_model: FiniteMarkovModel,
                          gX, gW, m: int, tol: float = 1e-10) -> SeriesValue:
    """E_nu of the sum, over one compound regeneration block, of the m-th
    powers of X-subblock sums of gX(X) gW(W), for independent chains:

        sum_r sum_alpha  m!/(alpha!)  sum_{j_2..j_r >= 1}
            {pi1 I_{gX^a1} H1^{j2} ... H1^{jr} gX^ar}
          x {pi2 I_{gW^a1} P2^{j2} ... P2^{jr} gW^ar}

    That is pi1 u_m pi2 for the recursion of :func:`_binomial_moments` on
    d1 x d2 matrices, with g = outer(gX, gW) and
    K U = sum_{j>=1} H1^j U (P2^j)^T.  For m = 1 it is {pi1 gX} {pi2 gW}
    (no series).  For m = 2, 3 every K runs j to L, doubled
    (:func:`_doubling_sum`); the first K forms the powers of H1 and P2, and
    the second replays them.  P2 is stochastic, so the omitted steps j > L
    are bounded through the X side, by scale * max_i (H1^(L+1) G 1)_i;
    L is the first power of two from 8 on at which the bound is below tol."""
    if m > 3:
        raise OrderTooLarge(m, 3)
    if m < 1:
        raise ValueError("m must be >= 1")
    gX = np.asarray(gX, dtype=float)
    gW = np.asarray(gW, dtype=float)
    H1 = x_model.H
    P2 = w_model.P
    G1 = x_model.G.sum(axis=1)
    sup_1 = float((H1 @ G1).max())  # bounds the X side of K over all j >= 1
    # With M = max |g|, B_k bounds |u_k| and E_k sup_(L+1) the error of the
    # truncated u_k, so the omitted mass of pi1 u_m pi2 is scale sup_(L+1).
    M = float(np.abs(gX).max()) * float(np.abs(gW).max())
    B, E = [None, M], [None, 0.0]
    for k in range(2, m):
        B.append(M ** k + sup_1 * sum(math.comb(k, j) * M ** (k - j) * B[j] for j in range(1, k)))
        E.append(sum(math.comb(k, j) * M ** (k - j) * (B[j] + sup_1 * E[j]) for j in range(1, k)))
    scale = sum(math.comb(m, j) * float(x_model.pi @ np.abs(gX) ** (m - j))
                * float(w_model.pi @ np.abs(gW) ** (m - j)) * (B[j] + sup_1 * E[j])
                for j in range(1, m))

    def tail(n, H1n):
        return scale * float((H1 @ (H1n @ G1)).max()) if n >= 8 else math.inf

    powers = [] if m == 3 else None  # only a second K replays them
    bound = 0.0

    def K(U):
        # sum_{j=1..L} H1^j U (P2^j)^T = sum_{j<L} H1^j (H1 U P2^T) (P2^j)^T
        nonlocal bound
        S = H1 @ U @ P2.T
        if powers:  # L >= 8: the first K recorded at least three doublings
            for H1n, P2n in powers:
                S = _double(S, H1n, P2n)
            return S
        S, bound = _doubling_sum(H1, S, P2.T, tail, tol, powers)
        return S

    u = _binomial_moments(np.outer(gX, gW), K, m)
    return SeriesValue(float(x_model.pi @ u @ w_model.pi), bound)


# --- chain file interface ----------------------------------------------------

def model_from_dict(obj: dict) -> FiniteMarkovModel:
    """Build a model from the chain-file form
    {states: [labels], P: [[...]], s: [...], nu: [...]}; reals may be
    decimal strings or doubles."""
    def conv(x):
        if isinstance(x, list):
            return [conv(v) for v in x]
        return float(x)

    return FiniteMarkovModel(
        states=tuple(obj["states"]),
        P=np.array(conv(obj["P"]), dtype=float),
        s=np.array(conv(obj["s"]), dtype=float),
        nu=np.array(conv(obj["nu"]), dtype=float),
    )


def load_model(path) -> FiniteMarkovModel:
    with open(path) as fh:
        return model_from_dict(json.load(fh))
