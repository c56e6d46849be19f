import numpy as np
import pytest

from rotavg import rotmath
from rotavg.averaging import EstimateSet
from rotavg.envgraph import RotationEnvironment


@pytest.fixture
def rng():
    return np.random.default_rng(20240809)


def random_quats(rng, n):
    return rotmath.sample_uniform_rotation(rng, n)


def random_matrices(rng, n):
    return rotmath.quat_to_matrix(random_quats(rng, n))


def random_unit_vectors(rng, n=None):
    v = rng.normal(size=(3,) if n is None else (n, 3))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def quat_from_axis_angle(axis, angle) -> np.ndarray:
    """Unit quaternion for a rotation of `angle` radians about `axis`."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis, axis=-1, keepdims=True)
    angle = np.asarray(angle, dtype=float)
    half = 0.5 * angle
    out = np.empty(np.broadcast_shapes(axis.shape[:-1], angle.shape) + (4,))
    out[..., 0] = np.cos(half)
    out[..., 1:] = np.sin(half)[..., None] * axis
    return out


def geodesic_distance(a, b) -> np.ndarray:
    """Angle in [0, pi] of the relative rotation a^T b (radians)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.linalg.norm(rotmath.log_so3(np.swapaxes(a, -1, -2) @ b), axis=-1)


def neighborhood_of(env: RotationEnvironment, i: int) -> list[tuple[int, np.ndarray]]:
    """Neighbors of node i as (j, q_i_j) pairs, sorted by j."""
    if not 0 <= i < env.n_nodes:
        raise IndexError(f"node id {i} out of range")
    lo, hi = env.nbr_offsets[i], env.nbr_offsets[i + 1]
    return [(int(j), q) for j, q in zip(env.nbr_ids[lo:hi], env.nbr_quats[lo:hi])]


def evenly_spaced_rotations(omega0, theta0: float, n: int = 3) -> np.ndarray:
    """Rotations exp((theta0 - i*2pi/n) * omega0) for i = 0..n-1."""
    omega0 = np.asarray(omega0, dtype=float)
    omega0 = omega0 / np.linalg.norm(omega0)
    angles = theta0 - np.arange(n) * 2.0 * np.pi / n
    return rotmath.exp_so3(angles[:, None] * omega0)


def build_critical_env(omega0, theta0: float, r0, ground_truth, n_nodes: int = 3):
    """Fully connected environment plus the phased initial estimates.

    Ground truth is taken as given; the initial estimate of node i is
    R_i @ r0 @ exp((theta0 + i*2pi/n) * omega0), i.e. a constant offset r0
    followed by an extra rotation about omega0 whose angle advances by
    2pi/n per node.  Returns (environment, EstimateSet) with the estimates
    in the so3_matrix parameterization.
    """
    gt = np.asarray(ground_truth, dtype=float)
    n = int(n_nodes)
    if gt.shape != (n, 3, 3):
        raise ValueError(f"ground_truth must have shape ({n}, 3, 3)")
    omega0 = np.asarray(omega0, dtype=float)
    omega0 = omega0 / np.linalg.norm(omega0)
    r0 = np.asarray(r0, dtype=float)

    ii, jj = np.triu_indices(n, 1)
    rel = rotmath.matrix_to_quat(gt[ii] @ np.swapaxes(gt[jj], -1, -2))
    env = RotationEnvironment(
        n, np.stack([ii, jj], axis=1), rel, ground_truth=rotmath.matrix_to_quat(gt)
    )

    angles = theta0 + np.arange(n) * 2.0 * np.pi / n
    offsets = rotmath.exp_so3(angles[:, None] * omega0)
    estimates = EstimateSet("so3_matrix", gt @ r0 @ offsets)
    return env, estimates


def reparameterized(estimates: EstimateSet, parameterization: str) -> EstimateSet:
    """The same rotations as ``estimates`` in another parameterization."""
    to_quaternions = {"so3_matrix": rotmath.matrix_to_quat, "quaternion": rotmath.quat_normalize,
                      "mrp": rotmath.mrp_unproject}[estimates.parameterization]
    return EstimateSet.from_quaternions(to_quaternions(estimates.values), parameterization)
