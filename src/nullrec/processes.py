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
consumed in time-major order).  stream(spec, seed) yields the run as
consecutive row blocks that carry the linking state between them, so a
caller that stops at a data-dependent time draws each row once; generate is
its first block.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .algebra import FiniteMarkovModel, model_from_dict
from .errors import InvalidSpec, UnknownProcessFamily, WrongFamily

FAMILIES = ("INDEP", "SHARED_INNOVATION", "AR1_LINKED", "MA_LINKED", "FINITE_PRODUCT")

_SQ5 = math.sqrt(0.5)
_SQ3 = math.sqrt(3.0)
_STEP_CHUNK = 1 << 16


@dataclass(frozen=True)
class Transfer:
    """Transfer function descriptor: linear a*x + b, or a lookup table with
    linear interpolation (testing aid)."""

    kind: str = "linear"
    a: float = 1.0
    b: float = 0.0
    xs: tuple = ()
    ys: tuple = ()

    def __post_init__(self):
        if self.kind not in ("linear", "table"):
            raise InvalidSpec(f"unknown transfer kind {self.kind!r}")
        if self.kind == "table" and (len(self.xs) != len(self.ys) or len(self.xs) < 2):
            raise InvalidSpec("table transfer needs matching xs/ys of length >= 2")

    def __call__(self, x):
        if self.kind == "linear":
            return self.a * np.asarray(x, dtype=float) + self.b
        return np.interp(x, self.xs, self.ys)


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
        if self.family == "AR1_LINKED" and not abs(self.a) < 1:
            raise InvalidSpec(f"AR1_LINKED requires |a| < 1, got a={self.a!r}")
        if self.family == "FINITE_PRODUCT" and (self.x_chain is None or self.w_chain is None):
            raise InvalidSpec("FINITE_PRODUCT requires x_chain and w_chain")


@dataclass(frozen=True)
class GeneratedPath:
    """Arrays over t = 0..n (or over one block of :func:`stream`); e holds
    the walk innovations (e[0] is unused by the walk and only feeds
    disturbance start-up terms)."""

    x: np.ndarray
    w: np.ndarray
    z: np.ndarray
    e: Optional[np.ndarray] = None


def _ar1_stationary_sd(spec: ProcessSpec) -> float:
    return math.sqrt((spec.b ** 2 * spec.sigma_e ** 2 + spec.sigma_u ** 2)
                     / (1.0 - spec.a ** 2))


def generate(spec: ProcessSpec, n: int, seed: int) -> GeneratedPath:
    """Simulate the system for t = 0..n.

    The walk starts at x0 exactly; its increments are e_1..e_n.  z - f(x)
    reproduces w identically."""
    if n < 0:
        raise InvalidSpec("n must be >= 0")
    return next(stream(spec, seed, chunk=n + 1))


def stream(spec: ProcessSpec, seed: int, chunk: int = _STEP_CHUNK):
    """Endless run of the system as consecutive `chunk`-row blocks: rows
    0..chunk-1, then chunk..2 chunk-1, and so on, each a GeneratedPath.

    The state that links rows (the walk's running sum, w_{t-1}, e_{t-1} and
    eps_{t-1}, the chain states) is carried from block to block, and the
    draws are taken in time-major order, so the blocks concatenated are
    bit-identical to one generate() call with the same seed."""
    if chunk < 1:
        raise InvalidSpec("chunk must be >= 1")
    rng = np.random.default_rng(seed)
    fam = spec.family

    if fam == "FINITE_PRODUCT":
        chains = (spec.x_chain, spec.w_chain)
        values = [c.state_values() for c in chains]
        # x_0 from nu; each later block steps on from the last state before it.
        U = rng.random((chunk, 2))
        paths = [step_chain(c, int(draw_start(c, U[0, j])), U[1:, j])
                 for j, c in enumerate(chains)]
        while True:
            x, w = (v[p] for v, p in zip(values, paths))
            yield GeneratedPath(x, w, spec.f(x) + w, None)
            U = rng.random((chunk, 2))
            paths = [step_chain(c, int(p[-1]), U[:, j])[1:]
                     for j, (c, p) in enumerate(zip(chains, paths))]

    ncols = 3 if fam == "MA_LINKED" else 2
    a, b = spec.a, spec.b
    first = True
    walk = w_prev = e_prev = eps_prev = 0.0
    while True:
        E = rng.standard_normal((chunk, ncols))
        e = spec.sigma_e * E[:, 0]
        # The running sum of e_1..e_t, as one sequential cumsum over all
        # blocks (e_0 is not a walk increment); x0 is added afterwards.
        x = e.copy()
        x[0] = 0.0 if first else walk + e[0]
        np.cumsum(x, out=x)
        walk = x[-1]
        x += spec.x0

        if fam == "INDEP":
            w = spec.sigma_w * E[:, 1]
        elif fam == "SHARED_INNOVATION":
            w = _SQ5 * E[:, 0] + _SQ5 * E[:, 1]
        elif fam == "AR1_LINKED":
            # w_t = (a w_{t-1} + b e_t) + u_t over Python floats, a slice at a time.
            be, u = b * e, spec.sigma_u * E[:, 1]
            w = np.empty(chunk)
            w[0] = w_prev = float(_ar1_stationary_sd(spec) * E[0, 1] if first
                                  else a * w_prev + be[0] + u[0])
            for i0 in range(1, chunk, _STEP_CHUNK):
                rows = slice(i0, i0 + _STEP_CHUNK)
                w[rows] = [w_prev := a * w_prev + be_t + u_t
                           for be_t, u_t in zip(be[rows].tolist(), u[rows].tolist())]
        else:  # MA_LINKED
            w = np.empty(chunk)
            w[0] = E[0, 2] if first else (E[0, 0] + e_prev + eps_prev) / _SQ3
            w[1:] = (E[1:, 0] + E[:-1, 0] + E[:-1, 1]) / _SQ3
            e_prev, eps_prev = E[-1, 0], E[-1, 1]
        first = False
        yield GeneratedPath(x, w, spec.f(x) + w, e)


def step_chain(model: FiniteMarkovModel, start: int, u: np.ndarray) -> np.ndarray:
    """State-index path x_0..x_n of a finite chain from the state index
    x_0 = start, by inverse CDF: x_{t+1} from row x_t of P with u[t], the
    count of entries <= u[t] in that row's cumulative table.  The uniforms
    are read in bounded chunks, so the Python-level copies stay small
    however long the path."""
    rows = model.cum_P.tolist()
    x = np.empty(len(u) + 1, dtype=np.int64)
    x[0] = xi = start
    for i0 in range(0, len(u), _STEP_CHUNK):
        chunk = []
        for v in u[i0:i0 + _STEP_CHUNK].tolist():
            xi = bisect_right(rows[xi], v)
            chunk.append(xi)
        x[i0 + 1:i0 + 1 + len(chunk)] = chunk
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
    rng = np.random.default_rng(seed)
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

def transfer_from_dict(obj: dict) -> Transfer:
    kind = obj.get("kind", "linear")
    if kind == "linear":
        return Transfer("linear", a=float(obj.get("a", 1.0)), b=float(obj.get("b", 0.0)))
    return Transfer("table", xs=tuple(float(v) for v in obj["xs"]),
                    ys=tuple(float(v) for v in obj["ys"]))


def spec_from_dict(obj: dict) -> ProcessSpec:
    params = obj.get("params", {})
    kwargs = {}
    for key in ("a", "b", "sigma_e", "sigma_u", "sigma_w", "halfwidth"):
        if key in params:
            kwargs[key] = float(params[key])
    if "x_chain" in params:
        kwargs["x_chain"] = model_from_dict(params["x_chain"])
    if "w_chain" in params:
        kwargs["w_chain"] = model_from_dict(params["w_chain"])
    return ProcessSpec(
        family=obj["family"],
        f=transfer_from_dict(obj.get("f", {})),
        x0=float(obj.get("x0", 0.0)),
        **kwargs,
    )


def load_spec(path) -> ProcessSpec:
    with open(path) as fh:
        return spec_from_dict(json.load(fh))
