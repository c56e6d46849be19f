"""Stochastic iterative rotation averaging.

Three interchangeable algorithms estimate per-node orientations from
relative-rotation edges:

- ``so3``: tangent-space updates R_i <- R_i expm(gamma * r), with
  r = logm(R_i^T R(q_i_j) R_j) the displacement toward the pair target.
- ``quaternion``: ambient R^4 descent on 1 - <q_i, q_i_j x q_j>^2
  followed by renormalization.
- ``mrp``: descent on the squared distance in the stereographically
  projected space, choosing per pair whichever antipode of the target
  projects nearer, with the step norm clamped to ``eta``.

A batch step samples b = ``batch_size`` distinct nodes, one uniformly
random neighbor each, from 2b doubles of the run's stream: b pick the
nodes by Floyd's algorithm, b their neighbor slots.  Runs draw blocks of
steps at once, and the block size changes no output.  Every update comes
from the pre-step state and all apply together; the neighbor values are
anchors and never receive gradients.  The so3 and quaternion baselines
mean-reduce over the batch (each sampled node moves by gamma / b times
its pair gradient, standard SGD batching); mrp applies its per-sample
rule at full strength, clamping each pair gradient to eta and scaling by
gamma, since the clamp bounds per-update motion in the distorted
projective space and its calibration is per sample.  At b = 1 all three
reduce to the plain per-sample algorithms.  Runs are deterministic given
the config seed.  ``run_averaging`` also steps several runs as one
array program; each member's estimates and trace equal those of its lone run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, partial
from typing import Callable

import numpy as np

from . import metrics, rotmath

# Runs draw from the stream family (seed, _RUN_STREAM) so a run seeded s
# on an environment generated with the same integer s never starts from
# the environment's own ground-truth draw.
_RUN_STREAM = 0x524F5441
# Steps of batches an ensemble draws at once; no output depends on it.
_BLOCK = 256
# Shape of one node's value in each parameterization.
VALUE_SHAPES = {"so3_matrix": (3, 3), "quaternion": (4,), "mrp": (3,)}
INIT_MODES = ("identity", "haar")


@dataclass
class OptimizerConfig:
    """Knobs for one optimization run.

    gamma is the learning rate; eta caps the norm of an MRP pair gradient
    before it is scaled by gamma (clamp first, then scale).  ``init``
    selects identity or Haar-random initial estimates; the Haar draw
    comes from the run seed.
    """

    algorithm: str
    gamma: float = 0.5
    eta: float = 0.1
    batch_size: int = 8
    max_iters: int = 300_000
    seed: int = 0
    checkpoint_every: int = 1000
    init: str = "haar"

    def validate(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if not (np.isfinite(self.gamma) and self.gamma > 0.0):
            raise ValueError("gamma must be finite and > 0")
        if not (np.isfinite(self.eta) and self.eta > 0.0):
            raise ValueError("eta must be finite and > 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.init not in INIT_MODES:
            raise ValueError(f"unknown init mode {self.init!r}")


@dataclass
class StepReport:
    """What one batch step did: sampled pairs, per-pair losses, and the
    update vector applied to each sampled node.

    ``updates`` is the actual increment in the algorithm's own space: the
    applied tangent vector for so3, the R^4 delta added before
    renormalization for quaternion, and the clamped, gamma-scaled MRP
    delta.  ``antipodes`` is only populated by the mrp step.  Pair k is
    node ``nodes[k]`` with its sampled neighbor ``neighbors[k]``.
    """

    nodes: np.ndarray
    neighbors: np.ndarray
    losses: np.ndarray
    updates: np.ndarray
    antipodes: np.ndarray | None = None


class EstimateSet:
    """Per-node orientation estimates in one parameterization.

    ``values`` has shape (N, 3, 3) for so3_matrix, (N, 4) for quaternion
    ([w, x, y, z]), or (N, 3) for mrp.  Batch steps mutate it in place.
    """

    def __init__(self, parameterization: str, values):
        if parameterization not in VALUE_SHAPES:
            raise ValueError(f"unknown parameterization {parameterization!r}")
        values = np.array(values, dtype=float, copy=True)
        expected = values.shape[:1] + VALUE_SHAPES[parameterization]
        if values.shape != expected:
            raise ValueError(
                f"values shape {values.shape} does not match "
                f"{parameterization} (want {expected})"
            )
        self.parameterization = parameterization
        self.values = values

    @property
    def n_nodes(self) -> int:
        return self.values.shape[0]

    @classmethod
    def identity(cls, n: int, parameterization: str) -> "EstimateSet":
        return cls.from_quaternions(np.tile([1.0, 0.0, 0.0, 0.0], (n, 1)), parameterization)

    @classmethod
    def from_quaternions(cls, quats, parameterization: str) -> "EstimateSet":
        quats = rotmath.quat_normalize(quats)
        if parameterization == "so3_matrix":
            return cls(parameterization, rotmath.quat_to_matrix(quats))
        if parameterization == "quaternion":
            return cls(parameterization, quats)
        # keep MRPs inside the unit ball (and off the south pole) by
        # projecting the w >= 0 antipode
        canon = quats * np.where(quats[:, :1] < 0.0, -1.0, 1.0)
        return cls(parameterization, rotmath.mrp_project(canon))

    def to_matrices(self) -> np.ndarray:
        if self.parameterization == "so3_matrix":
            return self.values.copy()
        if self.parameterization == "quaternion":
            return rotmath.quat_to_matrix(rotmath.quat_normalize(self.values))
        return rotmath.quat_to_matrix(rotmath.mrp_unproject(self.values))


def _so3_pair_grads(r_i, r_j, rel):
    """Per-pair so3 loss |r|^2 and displacement r = log(R_i^T R(q_i_j) R_j),
    the tangent vector at R_i toward the pair target."""
    r = rotmath.log_so3(np.swapaxes(r_i, -1, -2) @ rel @ r_j)
    return np.vecdot(r, r), r, None


def _quaternion_pair_grads(q_i, q_j, q_ij):
    """Per-pair loss 1 - <q_i, t>^2 and its R^4 gradient -2 <q_i, t> t,
    where t = q_i_j x q_j."""
    q_t = rotmath.quat_mul(q_ij, q_j)
    dot = np.vecdot(q_i, q_t)
    return 1.0 - dot * dot, (-2.0 * dot)[..., None] * q_t, None


def _mrp_pair_grads(psi_i, psi_j, q_ij):
    """Vectorized per-pair MRP loss/gradient with antipode selection.

    The target is q_i_j x phi^-1(psi_j), and phi^-1(psi_j) is
    (1 - |psi_j|^2, 2 psi_j) / r with r = 1 + |psi_j|^2, a unit quaternion
    since (1 - |psi_j|^2)^2 + 4 |psi_j|^2 = r^2.  So the step builds the
    unnormalized t = q_i_j x (1 - |psi_j|^2, 2 psi_j), of norm r, and
    projects both antipodes +-t / r as phi(+-t / r) = +-t_v / (r +- t_w),
    with no unprojection and no renormalization.  It keeps the candidate
    nearer to psi_i; an antipode inside the south-pole guard band,
    +-t_w <= (-1 + SOUTH_POLE_TOL) r, is never selected.  Returns
    (loss, grad, sign) where grad = psi_i - phi(sign * t / r); the constant
    factor 2 of the true gradient is folded into the learning rate.
    """
    n2 = np.vecdot(psi_j, psi_j)
    r = 1.0 + n2
    t = rotmath.quat_product(q_ij, np.concatenate([(1.0 - n2)[..., None], 2.0 * psi_j], axis=-1))
    both = np.array([t, -t])  # the target and its antipode, each of norm r
    w = both[..., 0]
    ok = w > (-1.0 + rotmath.SOUTH_POLE_TOL) * r
    d = psi_i - both[..., 1:] / np.where(ok, r + w, 1.0)[..., None]
    loss = np.where(ok, np.vecdot(d, d), np.inf)
    use_plus = loss[0] < loss[1]
    return (np.where(use_plus, loss[0], loss[1]), np.where(use_plus[..., None], d[0], d[1]),
            np.where(use_plus, 1, -1))


def _join(arrays):
    """The arrays concatenated, or the one array itself (no copy)."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


class _JoinedGraph:
    """Disjoint union of several runs' neighborhood graphs.

    Member r owns nodes start_r .. start_r + N_r - 1 of the joint
    estimates.  The neighbor slot arrays hold each distinct environment
    once, with its node ids kept local: members on one environment share
    them, and a single shared environment is not copied at all.  Counts
    and offsets are per joint node, each shifted by its environment's first slot;
    ``bounds`` and ``starts`` are each member's Floyd bounds and start_r."""

    def __init__(self, envs, batch_size: int):
        self._distinct = list({id(env): env for env in envs}.values())
        slots = np.cumsum([0] + [env.nbr_ids.size for env in self._distinct[:-1]])
        shift = {id(env): slot for env, slot in zip(self._distinct, slots)}
        sizes = np.array([env.n_nodes for env in envs])
        self.starts = (np.cumsum(sizes) - sizes)[:, None, None]
        self.bounds = np.array([_floyd_bounds(n, batch_size) for n in sizes])[:, None]
        self.nbr_ids = _join([env.nbr_ids for env in self._distinct])
        self.nbr_quats = _join([env.nbr_quats for env in self._distinct])
        self.nbr_counts = np.concatenate([env.nbr_counts for env in envs])
        self.nbr_offsets = np.concatenate([env.nbr_offsets[:-1] + shift[id(env)] for env in envs])

    @cached_property
    def nbr_mats(self) -> np.ndarray:
        return _join([env.nbr_mats for env in self._distinct])


def _floyd_bounds(n_nodes: int, batch_size: int) -> np.ndarray:
    """Floyd's pick t of b distinct nodes out of N is drawn below N - b + t + 1."""
    return np.arange(n_nodes - batch_size + 1, n_nodes + 1)


def _floyd(u, bounds):
    """Floyd's algorithm (Bentley & Floyd, CACM 1987) along the last axis:
    pick t is floor(u[t] * bounds[t]), or bounds[t] - 1 if its row took
    that already, so rows are uniform b-subsets.  One row runs on Python
    scalars, which cost less than numpy calls and give the same picks."""
    if u.size == u.shape[-1]:
        picks = {}  # an ordered set
        for x, bound in zip(u.ravel().tolist(), bounds.ravel().tolist()):
            pick = int(x * bound)
            picks[bound - 1 if pick in picks else pick] = None
        return np.fromiter(picks, np.int64).reshape(u.shape)
    # pick t of row r is key r * width + pick in one flat "seen" mask
    b, width = u.shape[-1], int(bounds.max())
    base = np.arange(u.size // b)[:, None] * width
    keys = ((u * bounds).astype(np.int64).reshape(-1, b) + base).T.copy()
    last = (np.broadcast_to(bounds - 1, u.shape).reshape(-1, b) + base).T
    seen = np.zeros(base.size * width, dtype=bool)
    for t in range(b):
        np.copyto(keys[t], last[t], where=seen[keys[t]])
        seen[keys[t]] = True
    return (keys.T - base).reshape(u.shape)


def _draw(env, u, bounds, starts):
    """(nodes, neighbors, neighbor slots) drawn by doubles ``u`` (..., 2b): b
    pick distinct nodes by Floyd's algorithm below ``bounds``, b a uniform
    neighbor slot each; ``starts`` shift members' nodes to joint ids."""
    b = bounds.shape[-1]
    idx = _floyd(u[..., :b], bounds) + starts
    sel = env.nbr_offsets[idx] + (u[..., b:] * env.nbr_counts[idx]).astype(np.int64)
    return idx, env.nbr_ids[sel] + starts, sel


def _batches(graph, rngs, steps):
    """Yield the joint batches of ``steps`` steps, drawn _BLOCK at a time.
    A member-step takes 2b doubles of its run stream, as a direct step call
    does; random fills row by row, so no batch depends on the block size."""
    b = graph.bounds.shape[-1]
    for done in range(0, steps, _BLOCK):
        k = min(_BLOCK, steps - done)
        u = _join([g.random((1, k, 2 * b)) for g in rngs])
        block = _draw(graph, u, graph.bounds, graph.starts)
        yield from zip(*(a.swapaxes(0, 1).reshape(k, -1) for a in block))


def _so3_apply(r_i, r_delta, cfg):
    """Move along the mean-reduced displacement: R_i expm(gamma / b * r)."""
    applied = (cfg.gamma / cfg.batch_size) * r_delta
    return r_i @ rotmath.exp_so3(applied), applied


def _quaternion_apply(q_i, grad, cfg):
    """Mean-reduced descent step in R^4, then renormalization."""
    applied = (-cfg.gamma / cfg.batch_size) * grad
    return rotmath.quat_normalize(q_i + applied), applied


def _mrp_apply(psi_i, grad, cfg):
    """The per-sample rule at full strength: each pair gradient is clamped
    to norm eta, then scaled by gamma, so the applied step never exceeds
    gamma * eta regardless of batch size.  The clamp is what keeps steps
    sane where the projection distorts scale, and its calibration is tied
    to the per-sample rate."""
    scale = cfg.eta / np.maximum(np.sqrt(np.vecdot(grad, grad)), cfg.eta)
    applied = (-cfg.gamma) * scale[:, None] * grad
    return psi_i + applied, applied


@dataclass(frozen=True)
class Algorithm:
    """What sets one update rule apart: the parameterization it steps in,
    the neighbor array its pair targets come from, its per-pair
    ``(loss, grad, antipodes or None)`` and its apply rule
    ``(x_i, grad, cfg) -> (new x_i, applied update)``."""

    parameterization: str
    targets: str
    pair_grads: Callable
    apply: Callable


# The one place an update rule is defined; a new algorithm is one entry.
ALGORITHM_TABLE = {
    "so3": Algorithm("so3_matrix", "nbr_mats", _so3_pair_grads, _so3_apply),
    "quaternion": Algorithm("quaternion", "nbr_quats", _quaternion_pair_grads, _quaternion_apply),
    "mrp": Algorithm("mrp", "nbr_quats", _mrp_pair_grads, _mrp_apply),
}
ALGORITHMS = tuple(ALGORITHM_TABLE)


def _rule(name: str, estimates: EstimateSet) -> Algorithm:
    """Algorithm ``name``'s table row, once ``estimates`` are in its parameterization."""
    algo = ALGORITHM_TABLE[name]
    if estimates.parameterization != algo.parameterization:
        raise ValueError(f"{name} step requires {algo.parameterization}-parameterized estimates")
    return algo


def _step(name: str, estimates: EstimateSet, env, cfg: OptimizerConfig, rng) -> StepReport:
    """One synchronous batch update of algorithm ``name``: every sampled
    pair's gradient comes from the pre-step values, then all apply.
    ``rng`` is a Generator to draw the batch from, or the ensemble loop's
    iterator of drawn batches."""
    algo = _rule(name, estimates)
    b = cfg.batch_size
    idx, j, sel = (_draw(env, rng.random(2 * b), _floyd_bounds(env.n_nodes, b), 0)
                   if isinstance(rng, np.random.Generator) else next(rng))
    x = estimates.values
    x_i = x[idx]
    loss, grad, antipodes = algo.pair_grads(x_i, x[j], getattr(env, algo.targets)[sel])
    x[idx], applied = algo.apply(x_i, grad, cfg)
    return StepReport(idx, j, loss, applied, antipodes)


# _step bound to each table row, the one step API; the loop calls steps through this dict
STEP_FUNCTIONS = {name: partial(_step, name) for name in ALGORITHM_TABLE}


def initial_estimates(env, cfg: OptimizerConfig, rng) -> EstimateSet:
    """Initial EstimateSet in the algorithm's parameterization; Haar
    draws come from ``rng``, the run's stream."""
    param = ALGORITHM_TABLE[cfg.algorithm].parameterization
    if cfg.init == "identity":
        return EstimateSet.identity(env.n_nodes, param)
    quats = rotmath.sample_uniform_rotation(rng, env.n_nodes)
    return EstimateSet.from_quaternions(quats, param)


def check_run(env, cfg: OptimizerConfig) -> None:
    """Raise ValueError unless cfg is valid and its batch fits env."""
    cfg.validate()
    if cfg.batch_size > env.n_nodes:
        raise ValueError(
            f"batch_size {cfg.batch_size} exceeds node count {env.n_nodes}"
        )


def run_averaging(env, cfg):
    """Run one optimization, or several as one array program.

    Given one environment and one OptimizerConfig, returns (final
    EstimateSet, trace).  The trace holds a TraceRecord at step 0, at
    every checkpoint_every steps, and at the final step.  Given
    equal-length sequences of environments and configs, returns one
    (EstimateSet, trace) per member, in order.  The members share the
    algorithm and every OptimizerConfig field but the seed; their
    environments, and node counts, may differ.  Their estimates live in
    one joint array over the disjoint union of their graphs.  Each step,
    every member draws its batch from its own run stream exactly as a lone
    run does, and one step call updates all members' pairs, so each member
    ends with the estimates and trace of its lone run.  An exception while
    stepping ends every member, and so does a member whose estimates are
    not finite at a checkpoint (ValueError naming the step and node).
    """
    if isinstance(cfg, OptimizerConfig):
        return run_averaging([env], [cfg])[0]
    envs, cfgs = list(env), list(cfg)
    if not envs or len(envs) != len(cfgs):
        raise ValueError("run_averaging needs one config per environment")
    base = cfgs[0]
    for env, cfg in zip(envs, cfgs):
        check_run(env, cfg)
        if replace(cfg, seed=base.seed) != base:
            raise ValueError("ensemble members may differ only in their seed")

    rngs = [np.random.default_rng([cfg.seed, _RUN_STREAM]) for cfg in cfgs]
    members = [
        initial_estimates(env, cfg, rng) for env, cfg, rng in zip(envs, cfgs, rngs)
    ]
    graph = _JoinedGraph(envs, base.batch_size)
    joint = EstimateSet(members[0].parameterization, np.concatenate([m.values for m in members]))
    for m, start in zip(members, graph.starts.ravel()):  # each member's slice of the joint
        m.values = joint.values[start:start + m.n_nodes]
    batches = _batches(graph, rngs, base.max_iters)

    step_fn = STEP_FUNCTIONS[base.algorithm]
    traces = [[metrics.evaluate(m, env, 0)] for m, env in zip(members, envs)]
    for t in range(1, base.max_iters + 1):
        step_fn(joint, graph, base, batches)
        if t % base.checkpoint_every == 0 or t == base.max_iters:
            for m, env, cfg, trace in zip(members, envs, cfgs, traces):
                _check_finite(m, cfg, t)
                trace.append(metrics.evaluate(m, env, t))
    return list(zip(members, traces))


def _check_finite(estimates: EstimateSet, cfg: OptimizerConfig, step: int) -> None:
    """Stop a diverged run: ValueError naming the step and the first node
    with a non-finite value."""
    finite = np.isfinite(estimates.values.reshape(estimates.n_nodes, -1)).all(axis=1)
    if not finite.all():
        raise ValueError(
            f"run seed {cfg.seed} diverged: node {np.argmin(finite)} has a "
            f"non-finite estimate at step {step} (gamma {cfg.gamma:g})"
        )


def expected_update(estimates: EstimateSet, env, i: int, algorithm: str) -> np.ndarray:
    """Exact expectation of node i's raw update over its neighbors.

    Averages the unclamped, unscaled per-pair gradient direction under
    uniform neighbor sampling, in the algorithm's tangent/ambient space.
    Zero norm here means the node sits at a critical point of the
    stochastic scheme.  The estimates must be in the algorithm's
    parameterization, as for its step, and i a node of env (ValueError
    otherwise).
    """
    if algorithm not in ALGORITHM_TABLE:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if not 0 <= i < env.n_nodes:
        raise ValueError(f"node i = {i} is outside [0, N) for N = {env.n_nodes}")
    lo, hi = env.nbr_offsets[i], env.nbr_offsets[i + 1]
    algo = _rule(algorithm, estimates)
    x = estimates.values
    targets = getattr(env, algo.targets)[lo:hi]
    _, grad, _ = algo.pair_grads(x[i][None], x[env.nbr_ids[lo:hi]], targets)
    return grad.mean(axis=0)
