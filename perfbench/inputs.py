"""Benchmark inputs: the workload table and the input generators.

Everything here is a pure function of the workload seed.  The program
under test only ever sees the files (or the ``rotavg gen`` flags) these
functions produce; nothing in this module imports ``rotavg``, so the
stand-in scene does not depend on the code it is used to measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: how its environments are made and which
    ``rotavg bench`` grid runs on them.

    ``source`` is ``"gen"`` (synthetic kNN environments from ``rotavg
    gen``) or ``"sfm"`` (a 1DSfM-format stand-in scene written here and
    read by ``rotavg import``).  ``check_algo`` names the grid cell that
    is re-run with ``rotavg run --save-estimates`` and evaluated; it is a
    cell whose final errors are degrees, not round-off, so comparing two
    formulas for the pairwise error to 1e-9 degrees is well conditioned.
    """

    name: str
    source: str
    n_nodes: int
    algos: tuple[str, ...]
    batch: int
    iters: int
    checkpoint_every: int
    check_algo: str
    k: int = 3
    envs: int = 1
    sfm_edges: int = 0
    sfm_noise_deg: float = 0.0
    sfm_outlier_frac: float = 0.0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="table_n100",
            source="gen", n_nodes=100, algos=("so3", "quat", "mrp"), batch=8,
            iters=12_000, checkpoint_every=1000, envs=2,
            check_algo="so3",
        ),
        Workload(
            name="sfm_n577",
            source="sfm", n_nodes=577, algos=("mrp", "quat"), batch=64,
            iters=4000, checkpoint_every=200,
            sfm_edges=20_000, sfm_noise_deg=3.0, sfm_outlier_frac=0.05,
            check_algo="mrp",
        ),
        Workload(
            name="scale_n2000",
            source="gen", n_nodes=2000, algos=("mrp",), batch=64,
            iters=4000, checkpoint_every=200,
            check_algo="mrp",
            # kNN(3) graphs at N=2000 are often disconnected and regenerated,
            # which makes setup time and peak memory depend on the seed
            k=4,
        ),
    )
}


def workload_seeds(seed: int) -> tuple[int, int]:
    """First environment seed and the run seed of one workload seed.

    They are spread apart so that neighbouring workload seeds share
    neither.
    """
    return 1000 * seed + 1, 1000 * seed + 500


def _haar_quats(rng: np.random.Generator, n: int) -> np.ndarray:
    q = rng.standard_normal((n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    return q * np.where(q[:, :1] < 0.0, -1.0, 1.0)


def quat_matrices(q: np.ndarray) -> np.ndarray:
    """(N, 4) unit quaternions [w, x, y, z] as (N, 3, 3) rotation matrices."""
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    return np.stack(
        [
            1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
            2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
            2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
        ],
        axis=1,
    ).reshape(-1, 3, 3)


def _axis_angle_matrices(rng: np.random.Generator, n: int, sigma_rad: float) -> np.ndarray:
    """Rotations about uniform axes by angles drawn from N(0, sigma)."""
    axis = rng.standard_normal((n, 3))
    axis /= np.linalg.norm(axis, axis=1, keepdims=True)
    half = 0.5 * sigma_rad * rng.standard_normal(n)
    q = np.concatenate([np.cos(half)[:, None], np.sin(half)[:, None] * axis], axis=1)
    return quat_matrices(q)


def write_sfm_scene(workload: Workload, seed: int, out_dir: Path) -> tuple[Path, Path]:
    """Write a 1DSfM-format stand-in scene and return (edge list, gt file).

    Ground truth is ``n_nodes`` Haar rotations.  The view graph is
    ``sfm_edges`` node pairs drawn uniformly without replacement, each
    written once in a random direction as ``i j m11 .. m33 t1 t2 t3`` with
    ``R_ij @ R_j = R_i``.  Every relative rotation is perturbed by a
    rotation of ``N(0, sfm_noise_deg)`` degrees about a uniform axis, and a
    ``sfm_outlier_frac`` share of them is replaced by a Haar rotation.
    Ground-truth rows are ``i q_w q_x q_y q_z``.
    """
    rng = np.random.default_rng([seed, 0x5F4D])
    n = workload.n_nodes
    gt_q = _haar_quats(rng, n)
    gt = quat_matrices(gt_q)

    n_pairs = n * (n - 1) // 2
    flat = np.sort(rng.choice(n_pairs, size=workload.sfm_edges, replace=False))
    # unrank flat upper-triangle indices into (i, j), i < j
    row_start = np.concatenate([[0], np.cumsum(np.arange(n - 1, 0, -1))])
    i = np.searchsorted(row_start, flat, side="right") - 1
    j = flat - row_start[i] + i + 1
    swap = rng.random(flat.size) < 0.5
    i, j = np.where(swap, j, i), np.where(swap, i, j)

    rel = gt[i] @ np.swapaxes(gt[j], 1, 2)
    rel = _axis_angle_matrices(rng, flat.size, np.radians(workload.sfm_noise_deg)) @ rel
    outlier = rng.random(flat.size) < workload.sfm_outlier_frac
    rel[outlier] = quat_matrices(_haar_quats(rng, int(outlier.sum())))
    trans = rng.standard_normal((flat.size, 3))

    out_dir.mkdir(parents=True, exist_ok=True)
    eg_path = out_dir / "EGs.txt"
    gt_path = out_dir / "gt_rotations.txt"
    with open(eg_path, "w", encoding="utf-8", newline="\n") as fh:
        for a, b, m, t in zip(i, j, rel.reshape(-1, 9), trans):
            fh.write(f"{a} {b} " + " ".join(repr(float(x)) for x in m) + " "
                     + " ".join(repr(float(x)) for x in t) + "\n")
    with open(gt_path, "w", encoding="utf-8", newline="\n") as fh:
        for a, q in enumerate(gt_q):
            fh.write(f"{a} " + " ".join(repr(float(x)) for x in q) + "\n")
    return eg_path, gt_path
