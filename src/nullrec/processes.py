"""Generative models for the simulated cointegration systems.

Every family produces a regressor path x, a stationary disturbance w and a
response z = f(x) + w, driven by standard-normal innovations:

    INDEP              x is a random walk, w i.i.d., independent of x
    SHARED_INNOVATION  w_t = sqrt(.5) e_t + sqrt(.5) eps_t shares the walk's
                       innovation e_t, so x and w are dependent at each t
    AR1_LINKED         w_t = a w_{t-1} + b e_t + u_t with |a| < 1
    MA_LINKED          w_t = (e_t + e_{t-1} + eps_{t-1}) / sqrt(3); the pair
                       (w_t, e_t) is the Markov state exposed for splitting
    FINITE_PRODUCT     two independent finite chains; z = f(x) + w on the
                       numeric state labels

Generation is deterministic given (spec, n, seed), and the first n+1 points
of a longer run with the same seed coincide with a shorter one (draws are
consumed in time-major order).  stream(spec, seed) yields the driving pair
(x, w) as consecutive row blocks that carry the linking state between them,
so a caller that stops at a data-dependent time draws each row once, and at
most one block past it.  The INDEP disturbance, i.i.d. and independent of
x, has its own keyed draws, one per row in time order.  _driving_pair
writes the stream's first n + 1 rows into its outputs block by block, so it
holds its outputs and one block; generate,
the one place that forms z = f(x) + w on a whole path, adds z to them, and
splitting.simulate_split takes them without z.  band_walk draws an INDEP
walk only near a band, jumping over its far excursions by the exact
first-passage law, so it is a walk in law but not generate's path for the
seed.  Every generator in the package comes from keyed_rng.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .algebra import FiniteMarkovModel, model_from_dict
from .errors import InvalidSpec, UnknownProcessFamily, WrongFamily, check_keys

FAMILIES = ("INDEP", "SHARED_INNOVATION", "AR1_LINKED", "MA_LINKED", "FINITE_PRODUCT")

_SQ5 = math.sqrt(0.5)
_SQ3 = math.sqrt(3.0)
_STREAM_BLOCK = 1 << 13  # rows per block of stream: small blocks reuse freed heap memory
_MARGIN = 8.0  # band_walk steps within this many sigma_e of the band; part of its draws
_WALK_BLOCK = 1 << 9  # normals per stepped block of band_walk; part of its draws

# Stream keys of keyed_rng; none starts with 0.
KEY_SPLIT_FLAGS = 1  # the split flags of splitting.simulate_split on a walk
KEY_INDEP_W = 2  # (KEY_INDEP_W, 0): the INDEP disturbance, one normal per row it serves
KEY_PASSAGE = 3  # the first-passage draws of band_walk
KEY_EXCURSION = 4  # (KEY_EXCURSION, j): the fill of band_walk's skipped excursion j
KEY_OFF_BAND_W = 5  # the INDEP disturbance of a whole fixed-point path's rows outside its band


def keyed_rng(seed: int, *key: int) -> np.random.Generator:
    """Stream `key` of the run with `seed` (0 <= seed < 2**64): PCG64 seeded
    with the words [seed mod 2**32, seed div 2**32, *key].  The seed fills
    two words and no key starts with 0, so no two (seed, key) pairs share a
    stream; SeedSequence pads with zero words, so the empty key is the
    generator numpy builds from the int seed itself.  A uint32 array of the
    words gives the stream of their list, built faster."""
    if not 0 <= seed < 1 << 64:
        raise InvalidSpec(f"seed must lie in [0, 2**64), got {seed!r}")
    return np.random.default_rng(np.array([seed & 0xFFFFFFFF, seed >> 32, *key], dtype=np.uint32))


@dataclass(frozen=True)
class Transfer:
    """Transfer function descriptor: linear a*x + b, or a lookup table with
    linear interpolation (testing aid).  A table's grid is converted to float
    arrays once, at construction; equality and hashing go by the tuple
    fields.  The arrays are private, and writeable: np.interp copies a
    read-only grid on every call."""

    kind: str = "linear"
    a: float = 1.0
    b: float = 0.0
    xs: tuple = ()
    ys: tuple = ()

    def __post_init__(self):
        if self.kind not in ("linear", "table"):
            raise InvalidSpec(f"unknown transfer kind {self.kind!r}")
        if self.kind == "linear":
            return
        xs, ys = np.array(self.xs, dtype=float), np.array(self.ys, dtype=float)
        # np.interp checks none of this: it reads a decreasing or NaN grid silently.
        if not (xs.size == ys.size >= 2 and np.isfinite(ys).all() and np.isfinite(xs).all()
                and (np.diff(xs) > 0).all()):
            raise InvalidSpec("table transfer needs xs and ys of one length >= 2, finite ys "
                              "and finite, strictly increasing xs")
        object.__setattr__(self, "_xs", xs)
        object.__setattr__(self, "_ys", ys)

    def __call__(self, x):
        if self.kind == "linear":
            out = self.a * np.asarray(x, dtype=float)
            out += self.b
            return out
        return np.interp(x, self._xs, self._ys)


def linear(a: float = 1.0, b: float = 0.0) -> Transfer:
    return Transfer("linear", a=a, b=b)


@dataclass(frozen=True)
class ProcessSpec:
    """Full generative description of one simulated system."""

    family: str
    f: Transfer = field(default_factory=linear)
    a: float = 0.5
    b: float = 1.0
    sigma_e: float = 1.0
    sigma_u: float = 1.0
    sigma_w: float = 1.0
    x0: float = 0.0
    halfwidth: float = 0.5
    x_chain: Optional[FiniteMarkovModel] = None
    w_chain: Optional[FiniteMarkovModel] = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise UnknownProcessFamily(f"unknown family {self.family!r}")
        if not all(map(math.isfinite, (self.a, self.b, self.x0))):
            raise InvalidSpec(f"a, b and x0 must be finite, got {self.a!r}, {self.b!r}, {self.x0!r}")
        scales = (self.sigma_e, self.sigma_u, self.sigma_w)
        if not all(math.isfinite(s) and s >= 0 for s in scales):
            raise InvalidSpec(f"sigma_e, sigma_u and sigma_w must be finite and >= 0, got {scales!r}")
        if self.family == "AR1_LINKED" and not abs(self.a) < 1:
            raise InvalidSpec(f"AR1_LINKED requires |a| < 1, got a={self.a!r}")
        if self.family == "FINITE_PRODUCT" and (self.x_chain is None or self.w_chain is None):
            raise InvalidSpec("FINITE_PRODUCT requires x_chain and w_chain")


@dataclass(frozen=True)
class GeneratedPath:
    """The regressor x, the disturbance w and the response z = f(x) + w over
    t = 0..n."""

    x: np.ndarray
    w: np.ndarray
    z: np.ndarray


def _ar1_stationary_sd(spec: ProcessSpec) -> float:
    return math.sqrt((spec.b ** 2 * spec.sigma_e ** 2 + spec.sigma_u ** 2)
                     / (1.0 - spec.a ** 2))


def generate(spec: ProcessSpec, n: int, seed: int) -> GeneratedPath:
    """Simulate the system for t = 0..n: the driving pair (x, w) of
    _driving_pair and z = f(x) + w.  z - f(x) reproduces w identically."""
    x, w = _driving_pair(spec, n, seed)
    z = spec.f(x)
    z += w
    return GeneratedPath(x, w, z)


def _driving_pair(spec: ProcessSpec, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """x and w over t = 0..n: the first n + 1 rows of stream().

    A path of at most _STREAM_BLOCK rows is one block of the stream.  A
    longer one is written into x and w from k = ceil((n + 1) / _STREAM_BLOCK)
    blocks of ceil((n + 1) / k) rows, so it draws fewer than k rows past row
    n and holds its outputs plus one block.  The walk starts at x0 exactly;
    its increments are e_1..e_n."""
    if n < 0:
        raise InvalidSpec("n must be >= 0")
    rows = n + 1
    if rows <= _STREAM_BLOCK:
        return next(stream(spec, seed, chunk=rows))
    blocks = -(-rows // _STREAM_BLOCK)
    chunk = -(-rows // blocks)
    x, w = np.empty(rows), np.empty(rows)
    for start, (xb, wb) in zip(range(0, rows, chunk), stream(spec, seed, chunk=chunk)):
        end = min(start + chunk, rows)
        x[start:end] = xb[:end - start]
        w[start:end] = wb[:end - start]
    return x, w


def stream(spec: ProcessSpec, seed: int, chunk: int = _STREAM_BLOCK):
    """Endless run of the driving pair as consecutive `chunk`-row blocks:
    rows 0..chunk-1, then chunk..2 chunk-1, and so on, each an (x, w) pair;
    the caller forms z = f(x) + w.  INDEP's disturbance w_t = sigma_w eps_t
    takes eps from keyed_rng(seed, KEY_INDEP_W, 0), one normal per row in
    time order.

    The state that links rows (the walk's running sum, w_{t-1}, e_{t-1} and
    eps_{t-1}, the chain states) is carried from block to block, and the
    draws are taken in time-major order, so the blocks concatenated are
    bit-identical to one block of their total length with the same seed,
    and hence to generate's path.  Each block's
    draws refill one buffer, which no yielded array shares, so a caller may
    keep every block."""
    if chunk < 1:
        raise InvalidSpec("chunk must be >= 1")
    rng = keyed_rng(seed)
    fam = spec.family

    if fam == "FINITE_PRODUCT":
        chains = (spec.x_chain, spec.w_chain)
        values = [c.state_values() for c in chains]
        # x_0 from nu; each later block steps on from the last state before it.
        U = rng.random((chunk, 2))
        paths = [step_chain(c, int(draw_start(c, U[0, j])), U[1:, j])
                 for j, c in enumerate(chains)]
        while True:
            yield tuple(v[p] for v, p in zip(values, paths))
            rng.random(out=U)
            paths = [step_chain(c, int(p[-1]), U[:, j])[1:]
                     for j, (c, p) in enumerate(zip(chains, paths))]

    a, b = spec.a, spec.b
    walk = w_prev = e_prev = eps_prev = 0.0
    if fam == "INDEP":  # one normal per row for the walk; w has its own keyed draws
        eps = keyed_rng(seed, KEY_INDEP_W, 0)
    E = np.empty((chunk, {"INDEP": 1, "MA_LINKED": 3}.get(fam, 2)))
    start = 0
    while True:
        rng.standard_normal(out=E)
        e = spec.sigma_e * E[:, 0]

        if fam == "INDEP":
            w = eps.standard_normal(chunk)
            w *= spec.sigma_w
        elif fam == "SHARED_INNOVATION":
            w = _SQ5 * E[:, 0] + _SQ5 * E[:, 1]
        elif fam == "AR1_LINKED":
            # w_t = (a w_{t-1} + b e_t) + u_t over Python floats.
            be, u = b * e, spec.sigma_u * E[:, 1]
            w = np.empty(chunk)
            w[0] = w_prev = float(_ar1_stationary_sd(spec) * E[0, 1] if start == 0
                                  else a * w_prev + be[0] + u[0])
            w[1:] = [w_prev := a * w_prev + be_t + u_t
                     for be_t, u_t in zip(be[1:].tolist(), u[1:].tolist())]
        elif fam == "MA_LINKED":
            w = np.empty(chunk)
            w[0] = E[0, 2] if start == 0 else (E[0, 0] + e_prev + eps_prev) / _SQ3
            w[1:] = (E[1:, 0] + E[:-1, 0] + E[:-1, 1]) / _SQ3
            e_prev, eps_prev = E[-1, 0], E[-1, 1]

        # The running sum of e_1..e_t, as one sequential cumsum over all
        # blocks (e_0 is not a walk increment), formed in e's place; x0 is
        # added afterwards.
        x = e
        x[0] = 0.0 if start == 0 else walk + e[0]
        np.cumsum(x, out=x)
        walk = x[-1]
        x += spec.x0
        start += chunk
        yield x, w


def band_walk(spec: ProcessSpec, seed: int, band: tuple[float, float], limit: int,
              fill: bool = False):
    """Rows 0..limit-1 of an INDEP walk as (start, x) blocks of consecutive
    rows in time order, drawn only near `band` = (b_lo, b_hi): every row left
    out lies outside the band, and with `fill` no row is left out.

    Within the zone [b_lo - m, b_hi + m], m = _MARGIN sigma_e, the walk steps
    by blocks of _WALK_BLOCK normals from keyed_rng(seed).  From a row t at x
    beyond the zone it jumps to its first passage of the level l = b_hi + m/2
    (b_lo - m/2 below).  A Gaussian walk is Brownian motion read at integer
    times, so the passage comes after tau = ((l - x) / (sigma_e Z))^2 (Levy),
    and the next row is t + ceil(tau), at l + sigma_e sqrt(ceil(tau) - tau) Z'
    (strong Markov), with Z, Z' the next two normals of
    keyed_rng(seed, KEY_PASSAGE).  The rows skipped come before the passage,
    so they lie beyond l.  With `fill` they are yielded too: given tau, |x - l|
    along them is a BES(3) bridge from |x - l| to 0 over [0, tau] (Williams),
    drawn for the j-th jump from keyed_rng(seed, KEY_EXCURSION, j).  No other
    draw depends on `fill`, so the band rows are the same either way.  Where
    tau is infinite (sigma_e Z = 0) the walk stays at x."""
    b_lo, b_hi = band
    sigma = spec.sigma_e
    m = _MARGIN * sigma
    steps, passage = keyed_rng(seed), keyed_rng(seed, KEY_PASSAGE)
    t, x, j = 0, spec.x0, 0  # row t is x, not yet yielded
    while t < limit:
        if b_lo - m <= x <= b_hi + m:
            n = min(_WALK_BLOCK, limit - t)
            c = np.empty(n + 1)
            steps.standard_normal(out=c[1:])
            c[1:] *= sigma
            c[0] = x
            c.cumsum(out=c)
            yield t, c[:-1]
            t, x = t + n, float(c[-1])
            continue
        level = b_hi + m / 2 if x > b_hi else b_lo - m / 2
        d = x - level
        z, z_after = passage.standard_normal(2).tolist()
        s2 = sigma * z * sigma * z
        tau = d * d / s2 if s2 > 0 else math.inf
        rest = limit - t - 1  # rows after t below the limit
        k = max(math.ceil(tau), 1) if tau <= rest else rest + 1
        if fill:
            if tau == math.inf:
                skipped = np.full(k - 1, x)
            else:
                skipped = level + math.copysign(1.0, d) * _bes3_bridge(
                    abs(d), sigma, tau, k - 1, keyed_rng(seed, KEY_EXCURSION, j))
            yield t, np.concatenate(([x], skipped))
        t, j = t + k, j + 1
        x = level + sigma * math.sqrt(k - tau) * z_after if t < limit else x


def _bes3_bridge(a: float, sigma: float, tau: float, n: int, rng) -> np.ndarray:
    """|b_1|..|b_n|, n < tau, of the 3-d Brownian bridge b from (a, 0, 0) at
    time 0 to 0 at time tau, with sigma^2 variance per unit time:
    b_s = (tau - s) (b_0 / tau + sigma sum_{i <= s} xi_i / sqrt((tau - i)(tau - i + 1))),
    whose prefix is drawn by the first rows of xi alone."""
    if n == 0:
        return np.empty(0)
    rest = tau - np.arange(1, n + 1)
    b = rng.standard_normal((n, 3))
    b *= (sigma / np.sqrt(rest * (rest + 1.0)))[:, None]
    np.cumsum(b, axis=0, out=b)
    b[:, 0] += a / tau
    b *= rest[:, None]
    return np.sqrt(np.einsum("ij,ij->i", b, b))


def step_chain(model: FiniteMarkovModel, start: int, u: np.ndarray) -> np.ndarray:
    """State-index path x_0..x_n of a finite chain from the state index
    x_0 = start, by inverse CDF: x_{t+1} is the count of entries <= u[t] in
    row x_t of model.cum_P_rows, listed once per model.  The package's callers
    pass blocks of at most _STREAM_BLOCK uniforms, read as one Python list."""
    rows = model.cum_P_rows
    x = np.empty(len(u) + 1, dtype=np.int64)
    x[0] = xi = start
    x[1:] = [xi := bisect_right(rows[xi], v) for v in u.tolist()]
    return x


def draw_start(model: FiniteMarkovModel, u):
    """Start state index drawn from nu, one per uniform in u: the count of
    cum_nu entries <= u, the rule :func:`step_chain` applies to P."""
    return np.searchsorted(model.cum_nu, u, side="right")


def theoretical_cross_moment(spec: ProcessSpec, t: int) -> float:
    """E(W_t X_t) = b sigma_e^2 (1 - a^{t+1}) / (1 - a) for the AR1-linked
    system."""
    if spec.family != "AR1_LINKED":
        raise WrongFamily(f"cross-moment formula applies to AR1_LINKED, not {spec.family}")
    if t < 0:
        raise ValueError("t must be >= 0")
    return spec.b * spec.sigma_e ** 2 * (1.0 - spec.a ** (t + 1)) / (1.0 - spec.a)


def ar1_snapshots(spec: ProcessSpec, ts, reps: int, seed: int = 0):
    """(X_t, W_t) across `reps` independent replications at each requested t,
    simulated with one vectorized recursion (its own draw order; deterministic
    given seed)."""
    if spec.family != "AR1_LINKED":
        raise WrongFamily(f"snapshots apply to AR1_LINKED, not {spec.family}")
    ts = sorted(set(int(t) for t in ts))
    if ts and ts[0] < 0:
        raise ValueError("t must be >= 0")
    rng = keyed_rng(seed)
    x = np.full(reps, spec.x0)
    w = _ar1_stationary_sd(spec) * rng.standard_normal(reps)
    out = {}
    if ts and ts[0] == 0:
        out[0] = (x.copy(), w.copy())
    tmax = ts[-1] if ts else 0
    want = set(ts)
    for t in range(1, tmax + 1):
        e = spec.sigma_e * rng.standard_normal(reps)
        u = spec.sigma_u * rng.standard_normal(reps)
        x = x + e
        w = spec.a * w + spec.b * e + u
        if t in want:
            out[t] = (x.copy(), w.copy())
    return out


def empirical_corr_decay(spec: ProcessSpec, ts, reps: int, seed: int = 0):
    """Monte Carlo corr(X_t, W_t) at each t, with standard errors
    (1 - r^2) / sqrt(reps)."""
    snaps = ar1_snapshots(spec, ts, reps, seed)
    corrs, ses = [], []
    for t in ts:
        x, w = snaps[int(t)]
        r = float(np.corrcoef(x, w)[0, 1])
        corrs.append(r)
        ses.append((1.0 - r * r) / math.sqrt(reps))
    return np.array(corrs), np.array(ses)


# --- spec (de)serialization ----------------------------------------------------

_TRANSFER_KEYS = {"linear": ("kind", "a", "b"), "table": ("kind", "xs", "ys")}
_SPEC_KEYS = ("family", "f", "params", "x0")
_FLOAT_PARAMS = ("a", "b", "sigma_e", "sigma_u", "sigma_w", "halfwidth")
_CHAIN_PARAMS = ("x_chain", "w_chain")


def transfer_from_dict(obj: dict) -> Transfer:
    kind = obj.get("kind", "linear")
    if kind not in _TRANSFER_KEYS:
        raise InvalidSpec(f"unknown transfer kind {kind!r}; expected one of {list(_TRANSFER_KEYS)}")
    check_keys(obj, _TRANSFER_KEYS[kind], f"{kind} transfer")
    if kind == "linear":
        return Transfer("linear", a=float(obj.get("a", 1.0)), b=float(obj.get("b", 0.0)))
    return Transfer("table", xs=tuple(float(v) for v in obj.get("xs", ())),
                    ys=tuple(float(v) for v in obj.get("ys", ())))


def spec_from_dict(obj: dict) -> ProcessSpec:
    """The spec of a JSON object; an unknown key or transfer kind raises InvalidSpec."""
    check_keys(obj, _SPEC_KEYS, "spec")
    params = obj.get("params", {})
    check_keys(params, _FLOAT_PARAMS + _CHAIN_PARAMS, "params")
    kwargs = {key: float(params[key]) for key in _FLOAT_PARAMS if key in params}
    kwargs.update((key, model_from_dict(params[key])) for key in _CHAIN_PARAMS if key in params)
    return ProcessSpec(
        family=obj["family"],
        f=transfer_from_dict(obj.get("f", {})),
        x0=float(obj.get("x0", 0.0)),
        **kwargs,
    )


def load_spec(path) -> ProcessSpec:
    with open(path) as fh:
        return spec_from_dict(json.load(fh))
