"""Rotation-averaging problem instances.

A :class:`RotationEnvironment` holds N nodes, a set of relative-rotation
edges, per-node neighborhoods derived from those edges, and (optionally)
ground-truth orientations.  Stored edges are directed records
``(i, j, q_i_j)`` with the convention ``R(q_i_j) @ R_j = R_i``; the
neighborhood structure is the symmetrized view, so node ``j`` sees node
``i`` through the conjugate quaternion.

Environments are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import rotmath

# Seed derivation for connectivity retries: seed' = seed * GOLDEN + attempt.
_GOLDEN = 0x9E3779B9
_MAX_CONNECTIVITY_ATTEMPTS = 100
NEIGHBORHOOD_MODES = ("knn", "epsilon")


class ConnectivityFailure(RuntimeError):
    """Generation could not produce a single-component graph."""


@dataclass(frozen=True)
class GeneratorConfig:
    """Parameters for synthetic uniform-rotation environments."""

    n_nodes: int
    k_neighbors: int = 3
    seed: int = 0
    neighborhood_mode: str = "knn"  # one of NEIGHBORHOOD_MODES
    epsilon: float = 0.0            # ball radius in radians (epsilon mode)

    def validate(self) -> None:
        if self.n_nodes < 2:
            raise ValueError("n_nodes must be >= 2")
        if self.k_neighbors < 1:
            raise ValueError("k_neighbors must be >= 1")
        if not 0 <= self.seed < 1 << 64:  # seeds are derived mod 2**64
            raise ValueError(f"seed must be >= 0 and < 2**64, got {self.seed}")
        if self.neighborhood_mode not in NEIGHBORHOOD_MODES:
            raise ValueError(f"unknown neighborhood_mode {self.neighborhood_mode!r}")
        if self.neighborhood_mode == "epsilon" and not self.epsilon > 0.0:
            raise ValueError("epsilon mode requires epsilon > 0")


def connected_components(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Component label per node (smallest member id), vectorized union-find."""
    parent = np.arange(n, dtype=np.int64)
    while True:
        ps, pd = parent[src], parent[dst]
        hi = np.maximum(ps, pd)
        lo = np.minimum(ps, pd)
        if np.all(hi == lo):
            break
        np.minimum.at(parent, hi, lo)
        while True:
            pp = parent[parent]
            if np.array_equal(pp, parent):
                break
            parent = pp
    return parent


class RotationEnvironment:
    """Nodes, relative-rotation edges, neighborhoods, optional ground truth.

    Parameters
    ----------
    n_nodes : int
        Node count N (>= 2).
    edge_index : (E, 2) int array
        Directed edge endpoints (i, j); no self loops, one record per
        unordered pair.
    edge_quats : (E, 4) float array
        Relative rotations q_i_j as [w, x, y, z], unit within
        rotmath.UNIT_QUAT_TOL.
    ground_truth : optional, (N, 4) float array
        Reference orientations R_i as unit quaternions [w, x, y, z].

    The edge graph must form a single connected component.
    """

    def __init__(self, n_nodes, edge_index, edge_quats, ground_truth=None):
        n = int(n_nodes)
        if n < 2:
            raise ValueError("an environment needs at least 2 nodes")
        edge_index = np.array(edge_index, dtype=np.int64, copy=True)
        edge_quats = np.array(edge_quats, dtype=float, copy=True)
        if edge_index.ndim != 2 or edge_index.shape[1] != 2:
            raise ValueError("edge_index must have shape (E, 2)")
        if edge_quats.shape != (edge_index.shape[0], 4):
            raise ValueError("edge_quats must have shape (E, 4)")
        if edge_index.shape[0] == 0:
            raise ValueError("an environment needs at least one edge")

        i, j = edge_index[:, 0], edge_index[:, 1]
        if i.min() < 0 or j.min() < 0 or i.max() >= n or j.max() >= n:
            raise ValueError("edge endpoint out of range")
        if np.any(i == j):
            raise ValueError("self loops are not allowed")
        key = np.minimum(i, j) * n + np.maximum(i, j)
        if np.unique(key).size != key.size:
            raise ValueError("duplicate edge for an unordered node pair")
        if np.any(rotmath.not_unit_quat(edge_quats)):
            raise ValueError("non-unit edge quaternion")

        if n > i.size + 1:  # fewer edges than a tree needs; checked before sizing by n
            raise ValueError(f"environment graph is not connected: node count {n} "
                             f"exceeds edge count {i.size} + 1")
        labels = connected_components(n, i, j)
        if np.unique(labels).size != 1:
            raise ValueError("environment graph is not connected")

        self.n_nodes = n
        self.edge_index = edge_index
        self.edge_quats = edge_quats

        self.ground_truth_quats = None
        self.ground_truth = None
        if ground_truth is not None:
            self.ground_truth_quats = np.array(ground_truth, dtype=float, copy=True)
            if self.ground_truth_quats.shape != (n, 4):
                raise ValueError("ground_truth must have shape (N, 4)")
            if np.any(rotmath.not_unit_quat(self.ground_truth_quats)):
                raise ValueError("non-unit ground-truth quaternion")
            self.ground_truth = rotmath.quat_to_matrix(self.ground_truth_quats)

        # Symmetrized CSR neighborhoods: node i sees j through q_i_j,
        # node j sees i through its conjugate.
        src = np.concatenate([i, j])
        dst = np.concatenate([j, i])
        qs = np.concatenate([edge_quats, rotmath.quat_conjugate(edge_quats)])
        order = np.lexsort((dst, src))
        self.nbr_ids = dst[order]
        self.nbr_quats = qs[order]
        self.nbr_counts = np.bincount(src, minlength=n)
        self.nbr_offsets = np.concatenate([[0], np.cumsum(self.nbr_counts)])

        for arr in (self.edge_index, self.edge_quats, self.nbr_ids,
                    self.nbr_quats, self.nbr_counts, self.nbr_offsets):
            arr.setflags(write=False)
        if self.ground_truth is not None:
            self.ground_truth_quats.setflags(write=False)
            self.ground_truth.setflags(write=False)

    @property
    def n_edges(self) -> int:
        return self.edge_index.shape[0]

    @cached_property
    def nbr_mats(self) -> np.ndarray:
        """Neighborhood relative rotations as matrices, computed once."""
        mats = rotmath.quat_to_matrix(self.nbr_quats)
        mats.setflags(write=False)
        return mats

    @cached_property
    def edge_mats(self) -> np.ndarray:
        """Edge relative rotations as matrices, computed once."""
        mats = rotmath.quat_to_matrix(self.edge_quats)
        mats.setflags(write=False)
        return mats


def generate_uniform_env(cfg: GeneratorConfig) -> RotationEnvironment:
    """Synthetic environment with Haar-uniform ground truth and exact edges.

    Neighborhoods are the k nearest rotations by geodesic distance (union
    over both directions), or all pairs within `epsilon` radians in epsilon
    mode.  If the resulting graph is disconnected the sample is discarded
    and regenerated from a derived seed; after 100 attempts the config is
    considered pathological and ConnectivityFailure is raised.
    """
    cfg.validate()
    n = cfg.n_nodes
    k = min(cfg.k_neighbors, n - 1)

    for attempt in range(_MAX_CONNECTIVITY_ATTEMPTS):
        derived = (cfg.seed * _GOLDEN + attempt) % (1 << 64)
        rng = np.random.default_rng(derived)
        quats = rotmath.sample_uniform_rotation(rng, n)
        mats = rotmath.quat_to_matrix(quats)
        flat = mats.reshape(n, 9)
        # no angle exceeds pi, so a radius of pi or more takes every pair
        threshold = 1.0 + 2.0 * np.cos(cfg.epsilon) if cfg.epsilon < np.pi else -np.inf
        # trace(R_i R_j^T) = 1 + 2 cos(angle): the nearest pairs have the largest
        # traces.  They are ranked a panel of rows at a time, so no N x N array is made.
        panel, row_parts, col_parts = 256, [], []
        for i0 in range(0, n, panel):
            trace = flat[i0:i0 + panel] @ flat.T
            local = np.arange(len(trace))
            trace[local, i0 + local] = -np.inf
            if cfg.neighborhood_mode == "knn":
                row_parts.append(np.repeat(i0 + local, k))
                col_parts.append(np.argpartition(trace, n - k, axis=1)[:, n - k:].reshape(-1))
            else:
                r, c = np.nonzero(trace > threshold)
                row_parts.append(i0 + r)
                col_parts.append(c)
        rows = np.concatenate(row_parts)
        cols = np.concatenate(col_parts)
        lo = np.minimum(rows, cols)
        hi = np.maximum(rows, cols)
        pairs = np.unique(lo * n + hi)
        i = pairs // n
        j = pairs % n

        labels = connected_components(n, i, j)
        if np.unique(labels).size != 1:
            continue

        rel = rotmath.matrix_to_quat(mats[i] @ np.swapaxes(mats[j], -1, -2))
        return RotationEnvironment(
            n, np.stack([i, j], axis=1), rel, ground_truth=quats
        )

    setting = f"epsilon={cfg.epsilon}" if cfg.neighborhood_mode == "epsilon" \
        else f"k_neighbors={cfg.k_neighbors}"
    raise ConnectivityFailure(
        f"no connected graph after {_MAX_CONNECTIVITY_ATTEMPTS} attempts "
        f"(n_nodes={cfg.n_nodes}, {setting}, "
        f"mode={cfg.neighborhood_mode}); the config is likely too sparse"
    )
