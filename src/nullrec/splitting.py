"""Split-chain simulation: regeneration flags, occupation counts, block sums.

The split is performed retrospectively: the next state is drawn from the
transition law first, and the regeneration flag for time t is then Bernoulli
with probability

    s(X_t) nu(X_{t+1}) / p(X_t, X_{t+1}),

which is distributionally equivalent to drawing the mixture branch up front
but works identically for finite chains and for the Gaussian random walk.
Y_t = 1 means the chain forgets its past after time t: X_{t+1} is a fresh
draw from nu.  Finite models start from nu, so the initial block already has
the common block law; random-walk systems start at x0.

Besides single trajectories, the module ships vectorized i.i.d. block
samplers (many replicas stepped in lockstep, each terminated at its first
regeneration).  They are the Monte Carlo side of the dual-oracle checks
against :mod:`nullrec.algebra` and stay deliberately independent of it: they
never touch G or pi, only the model's cum_nu, cum_P and R (from P, s, nu).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from inspect import Parameter, signature
from typing import NamedTuple, Optional

import numpy as np

from .algebra import FiniteMarkovModel
from .errors import InvalidHalfwidth, InvalidSpec, SamplingStalled, UnknownProcessFamily
# generate is no longer called here, but bench/tracing.py patches splitting.generate.
from .processes import (_STREAM_BLOCK, KEY_SPLIT_FLAGS, ProcessSpec, _driving_pair, draw_start,
                        generate, keyed_rng, step_chain)

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_MAX_BLOCK_ROUNDS = 1_000_000  # lockstep steps before a block sampler gives up
_EMBEDDED_REPLICAS = 20_000
_MAX_EMBEDDED_ROUNDS = 10_000_000


def _norm_pdf(x):
    return np.exp(-0.5 * np.square(x)) / _SQRT_2PI


@dataclass(frozen=True)
class AtomSpecContinuous:
    """Atom for a continuous chain: s = s_level on C = [lo, hi], nu uniform
    on C.  Validity requires s_level * (hi - lo)^{-1} <= p(x, y) on C x C."""

    lo: float
    hi: float
    s_level: float

    @property
    def nu_density(self) -> float:
        return 1.0 / (self.hi - self.lo)


def gaussian_rw_atom(halfwidth: float) -> AtomSpecContinuous:
    """Atom for the standard-normal random walk on C = [-halfwidth, halfwidth].

    s_level = 2 halfwidth phi(2 halfwidth) makes s(x) nu(y) = phi(2 halfwidth)
    <= phi(y - x) for all x, y in C, since |y - x| <= 2 halfwidth."""
    if not (0.0 < halfwidth <= 1.0):
        raise InvalidHalfwidth(f"halfwidth must lie in (0, 1], got {halfwidth!r}")
    s_level = 2.0 * halfwidth * float(_norm_pdf(2.0 * halfwidth))
    return AtomSpecContinuous(-halfwidth, halfwidth, s_level)


@dataclass(frozen=True)
class SplitTrajectory:
    """Path of (X_t[, W_t], Y_t) for t = 0..n plus the regeneration indices.

    y[t] = 1 exactly at the indices listed in tau.  For product chains y is
    the simultaneous (compound) flag and the per-component flags are kept in
    y_x / y_w."""

    x: np.ndarray
    y: np.ndarray
    tau: np.ndarray
    seed: int
    w: Optional[np.ndarray] = None
    states: Optional[tuple] = None
    w_states: Optional[tuple] = None
    y_x: Optional[np.ndarray] = None
    y_w: Optional[np.ndarray] = None

    @property
    def n(self) -> int:
        return len(self.x) - 1


class RegenStats(NamedTuple):
    count: int
    tau: np.ndarray
    lengths: np.ndarray


class BlockDecomposition(NamedTuple):
    """u0 covers 0..tau_0; blocks the full inter-regeneration segments;
    tail the unfinished remainder.  lengths uses the tau_{-1} = -1
    convention, so it has one entry per regeneration."""

    u0: float
    blocks: np.ndarray
    tail: float
    lengths: np.ndarray


def _split_chain(model: FiniteMarkovModel, n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Index path x_0..x_n started from nu, with flags y_0..y_n (the flag at
    n uses one transition beyond the kept path).  The uniforms interleave:
    u[0] draws x_0, then u[2t+1] the step out of x_t and u[2t+2] its flag.
    They are drawn in blocks of processes._STREAM_BLOCK rows, each stepping
    on from the last state with one step_chain call, so the path holds its
    outputs and one block's draws."""
    x, y = np.empty(n + 1, dtype=np.int64), np.empty(n + 1, dtype=np.uint8)
    xi = int(draw_start(model, rng.random()))
    for a in range(0, n + 1, _STREAM_BLOCK):
        b = min(a + _STREAM_BLOCK, n + 1)
        u = rng.random(2 * (b - a))
        p = step_chain(model, xi, u[0::2])
        x[a:b], y[a:b], xi = p[:-1], u[1::2] < model.R[p[:-1], p[1:]], int(p[-1])
    return x, y


def simulate_split(process, n: int, seed: int) -> SplitTrajectory:
    """Simulate the split chain for t = 0..n.

    `process` is a FiniteMarkovModel, a FINITE_PRODUCT spec (compound flag
    y = y_x y_w), or a random-walk ProcessSpec (flags from the walk's atom;
    the disturbance rides along).  Identical inputs give identical output."""
    if n < 0:
        raise InvalidSpec("n must be >= 0")
    if isinstance(process, FiniteMarkovModel):
        x, y = _split_chain(process, n, keyed_rng(seed))
        return SplitTrajectory(x=x, y=y, tau=np.flatnonzero(y), seed=seed,
                               states=process.states)

    if not isinstance(process, ProcessSpec):
        raise UnknownProcessFamily(f"cannot split-simulate {type(process).__name__}")

    if process.family == "FINITE_PRODUCT":
        rng = keyed_rng(seed)
        x, y1 = _split_chain(process.x_chain, n, rng)
        w, y2 = _split_chain(process.w_chain, n, rng)
        y = (y1 & y2).astype(np.uint8)
        return SplitTrajectory(x=x, y=y, tau=np.flatnonzero(y), seed=seed,
                               w=w, states=process.x_chain.states,
                               w_states=process.w_chain.states, y_x=y1, y_w=y2)

    if process.sigma_e != 1.0:
        raise InvalidSpec("the shipped walk atom assumes standard-normal increments "
                          f"(sigma_e = 1), got {process.sigma_e!r}")
    atom = gaussian_rw_atom(process.halfwidth)
    x_ext, w = _driving_pair(process, n + 1, seed)  # generate's path, without its z
    u = keyed_rng(seed, KEY_SPLIT_FLAGS).random(n + 1)
    in_c = (x_ext >= atom.lo) & (x_ext <= atom.hi)
    # The ratio is zero unless both ends of the step lie in the atom.
    both = np.flatnonzero(in_c[:-1] & in_c[1:])
    dx = x_ext[both + 1] - x_ext[both]
    y = np.zeros(n + 1, dtype=np.uint8)
    y[both] = u[both] < atom.s_level * atom.nu_density / _norm_pdf(dx)
    return SplitTrajectory(x=x_ext[:n + 1], y=y, tau=np.flatnonzero(y), seed=seed,
                           w=w[:n + 1])


def regeneration_stats(traj: SplitTrajectory) -> RegenStats:
    """Number of regenerations in [0, n] (zero when none), their indices, and
    the successive gaps with the tau_{-1} = -1 convention."""
    tau = traj.tau
    if len(tau) == 0:
        return RegenStats(0, tau, np.array([], dtype=np.int64))
    lengths = np.diff(np.concatenate([[-1], tau]))
    return RegenStats(int(len(tau)), tau, lengths)


def occupation_count(traj: SplitTrajectory, C) -> int:
    """Visits to C up to time n: an interval (lo, hi) for continuous paths, a
    collection of states for finite ones.  A member of C that is one of the
    state labels means that state; any other member is a state index.  So
    with states (5, 0, 1), C = [0] counts the state labelled 0 (index 1),
    and C = [2] the state at index 2."""
    x = traj.x
    if traj.states is None:
        lo, hi = C
        return int(((x >= lo) & (x <= hi)).sum())
    index_of = {lab: i for i, lab in enumerate(traj.states)}
    members = {index_of.get(c, c) for c in C}
    idxs = [i for i in range(len(traj.states)) if i in members]
    if not idxs:
        return 0
    return int(np.isin(x, idxs).sum())


def _takes_two_positional(g) -> bool:
    """Whether the callable g can be called as g(x, w)."""
    if isinstance(g, np.ufunc):
        return g.nin >= 2
    try:
        params = signature(g).parameters.values()
    except (TypeError, ValueError):  # no introspectable signature
        return False
    positional = (Parameter.POSITIONAL_ONLY, Parameter.POSITIONAL_OR_KEYWORD)
    return (any(p.kind is Parameter.VAR_POSITIONAL for p in params)
            or sum(p.kind in positional for p in params) >= 2)


def _evaluate(traj: SplitTrajectory, g) -> np.ndarray:
    if callable(g):
        if traj.w is not None and _takes_two_positional(g):
            return np.asarray(g(traj.x, traj.w), dtype=float)
        return np.asarray(g(traj.x), dtype=float)
    arr = np.asarray(g, dtype=float)
    if traj.states is None:
        raise ValueError("array-valued g requires a finite-state trajectory")
    return arr[traj.x]


def block_sums(traj: SplitTrajectory, g) -> BlockDecomposition:
    """Partition the path sum of g at the regeneration indices.

    g is a per-state array on finite chains, or a callable g(x) / g(x, w);
    a callable that takes two positional arguments is given w when the
    trajectory has one, and any error it raises propagates.
    u0 + sum(blocks) + tail recombines to the direct sum."""
    vals = _evaluate(traj, g)
    prefix = np.concatenate([[0.0], np.cumsum(vals)])
    tau = traj.tau
    if len(tau) == 0:
        return BlockDecomposition(float(prefix[-1]), np.array([]), 0.0,
                                  np.array([], dtype=np.int64))
    ends = prefix[tau + 1]
    u0 = float(ends[0])
    blocks = np.diff(ends)
    tail = float(prefix[-1] - ends[-1])
    lengths = np.diff(np.concatenate([[-1], tau]))
    return BlockDecomposition(u0, blocks, tail, lengths)


# --- vectorized Monte Carlo samplers ------------------------------------------

def _draw_step(model: FiniteMarkovModel, states: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Next state per replica from its row of P: the count of table entries
    <= u, as in :func:`nullrec.processes.step_chain`, read column by column.
    The last column is all 1.0 and never counts, not even as the first.
    take casts its indices to intp on every call, so the states are cast
    once; the result keeps their dtype."""
    cols = model.cum_P.T
    idx = states.astype(np.intp, copy=False)
    nxt = (cols[0].take(idx) <= u).astype(states.dtype)
    for col in cols[1:-1]:
        nxt += col.take(idx) <= u
    return nxt


def _split_ratio(model: FiniteMarkovModel, states: np.ndarray, nxt: np.ndarray) -> np.ndarray:
    """R[states, nxt], looked up in the flat table by an intp index built
    in place."""
    idx = states.astype(np.intp)
    idx *= model.d
    idx += nxt
    return model.R.ravel().take(idx)


def _per_state(g, model: FiniteMarkovModel, name: str) -> np.ndarray:
    """g as one float per state of `model`."""
    g = np.asarray(g, dtype=float)
    if g.shape != (model.d,):
        raise ValueError(f"{name} must have length {model.d}, got shape {g.shape}")
    return g


def _check_block_count(n_blocks: int) -> None:
    """Block indices are int32, so n_blocks must lie in [0, 2**31]."""
    if not 0 <= n_blocks <= 1 << 31:
        raise InvalidSpec(f"n_blocks must lie in [0, 2**31], got {n_blocks!r}")


def sample_blocks(model: FiniteMarkovModel, g, n_blocks: int,
                  seed: int) -> tuple[np.ndarray, np.ndarray]:
    """n_blocks i.i.d. regeneration blocks of the split chain started from nu,
    returning (block sums of g, block lengths).  All replicas step in
    lockstep; each stops at its first regeneration, when its sum and length
    are written.  Live replicas are kept compacted in block order: a round's
    k-th uniform goes to the k-th one.

    The live state (block index, state, running sum) is int32, int32 and
    float64, and each array of a round is dropped once it has been read, so
    a round holds the live state and the draws of one step.  Indices are cast
    to intp where they index: take and fancy indexing are slower on int32."""
    g = _per_state(g, model, "g")
    _check_block_count(n_blocks)
    rng = keyed_rng(seed)

    x = draw_start(model, rng.random(n_blocks)).astype(np.int32)
    U = np.empty(n_blocks)
    L = np.empty(n_blocks, dtype=np.int64)
    block = np.arange(n_blocks, dtype=np.int32)
    u = g.take(x)
    for length in range(1, _MAX_BLOCK_ROUNDS + 1):
        if block.size == 0:
            return U, L
        nx = _draw_step(model, x, rng.random(block.size))
        stay = rng.random(block.size) >= _split_ratio(model, x, nx)
        del x
        end = np.flatnonzero(~stay)
        done = block.take(end).astype(np.intp)
        U[done] = u.take(end)
        L[done] = length
        live = np.flatnonzero(stay)
        del stay, end, done
        block, x = block.take(live), nx.take(live)
        del nx
        u = u.take(live)
        u += g.take(x)
    raise SamplingStalled("block sampling did not terminate; model may not regenerate")


def sample_compound_block_sums(x_model: FiniteMarkovModel, w_model: FiniteMarkovModel,
                               gX, gW, orders, n_blocks: int,
                               seed: int) -> dict[int, np.ndarray]:
    """For n_blocks i.i.d. compound regeneration blocks of the independent
    product chain, the per-block sums over X-subblocks of V^m, where V is the
    subblock sum of gX(X) gW(W).  Returns one array per requested order m.
    Each round draws X steps, W steps, X flags, W flags, one per live block.
    The live state (block index, X and W states, V) is kept as in
    :func:`sample_blocks`."""
    gX = _per_state(gX, x_model, "gX")
    gW = _per_state(gW, w_model, "gW")
    orders = tuple(orders)
    _check_block_count(n_blocks)
    rng = keyed_rng(seed)

    x = draw_start(x_model, rng.random(n_blocks)).astype(np.int32)
    w = draw_start(w_model, rng.random(n_blocks)).astype(np.int32)
    V = gX.take(x) * gW.take(w)
    S = {m: np.zeros(n_blocks) for m in orders}
    block = np.arange(n_blocks, dtype=np.int32)
    for _ in range(_MAX_BLOCK_ROUNDS):
        if block.size == 0:
            return S
        nx = _draw_step(x_model, x, rng.random(block.size))
        nw = _draw_step(w_model, w, rng.random(block.size))
        y1 = rng.random(block.size) < _split_ratio(x_model, x, nx)
        del x
        y2 = rng.random(block.size) < _split_ratio(w_model, w, nw)
        del w
        sub_end = np.flatnonzero(y1)
        ended, v_end = block.take(sub_end).astype(np.intp), V.take(sub_end)
        for m in orders:
            S[m][ended] += v_end ** m
        # -0.0 is the exact additive identity (-0.0 + x == x bit for bit,
        # x = +-0.0 included), so a fresh X-subblock starts at its first step.
        V[sub_end] = -0.0
        live = np.flatnonzero(~(y1 & y2))
        del y1, y2, sub_end, ended, v_end
        block, x, w = block.take(live), nx.take(live), nw.take(live)
        del nx, nw
        V = V.take(live)
        V += gX.take(x) * gW.take(w)
    raise SamplingStalled("compound block sampling did not terminate")


def sample_embedded_counts(x_model: FiniteMarkovModel, w_model: FiniteMarkovModel,
                           n_pairs: int, seed: int) -> np.ndarray:
    """Transition counts of the W-chain observed at X-regeneration times,
    pooled over _EMBEDDED_REPLICAS independently evolving replicas, until at
    least n_pairs embedded steps have been recorded."""
    if n_pairs < 0:
        raise InvalidSpec(f"n_pairs must be >= 0, got {n_pairs!r}")
    rng = keyed_rng(seed)

    x = draw_start(x_model, rng.random(_EMBEDDED_REPLICAS))
    w = draw_start(w_model, rng.random(_EMBEDDED_REPLICAS))
    last_w = np.full(_EMBEDDED_REPLICAS, -1, dtype=np.int64)
    counts = np.zeros((w_model.d, w_model.d), dtype=np.int64)
    total = 0
    for _ in range(_MAX_EMBEDDED_ROUNDS):
        nx = _draw_step(x_model, x, rng.random(_EMBEDDED_REPLICAS))
        y1 = rng.random(_EMBEDDED_REPLICAS) < _split_ratio(x_model, x, nx)
        nw = _draw_step(w_model, w, rng.random(_EMBEDDED_REPLICAS))
        hit = np.flatnonzero(y1)
        if hit.size:
            prev = last_w[hit]
            cur = w[hit]
            valid = prev >= 0
            np.add.at(counts, (prev[valid], cur[valid]), 1)
            total += int(valid.sum())
            last_w[hit] = cur
        x = nx
        w = nw
        if total >= n_pairs:
            return counts
    raise SamplingStalled("embedded sampling did not reach the requested pair count")
