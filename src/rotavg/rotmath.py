"""Rotation arithmetic on quaternions, matrices, rotation vectors, and MRPs.

Conventions used throughout the package:

- Quaternions are ndarrays of shape (..., 4) ordered [w, x, y, z], i.e.
  scalar part first.  ``w`` is the real part (rho), ``xyz`` the imaginary
  vector part (nu).  ``q`` and ``-q`` encode the same rotation; no global
  sign is enforced (``matrix_to_quat`` returns the w >= 0 antipode, the
  other is reachable by negation).
- Rotation matrices are (..., 3, 3) arrays acting on column vectors.
- Rotation vectors (tangent vectors) are (..., 3) arrays whose norm is the
  rotation angle in radians; ``log_so3`` always returns norms in [0, pi].
- Modified Rodrigues Parameters (MRP) are (..., 3) arrays obtained by
  stereographic projection of the quaternion 3-sphere from its south pole
  [-1, 0, 0, 0]: psi = nu / (1 + rho).

All functions are pure, broadcast over leading dimensions, and compute in
float64.
"""

from __future__ import annotations

import numpy as np

# Rotations with rho at or below this offset from the south pole cannot be
# stereographically projected.
SOUTH_POLE_TOL = 1e-9

# Largest deviation of a quaternion's norm from 1 accepted as a rotation.
UNIT_QUAT_TOL = 1e-6

_EXP_TAYLOR_EPS = 1e-8  # small-angle switch for exp_so3

# Largest entry of m^T m - I from which two Newton-Schulz steps reach round-off
_POLAR_TOL = 1e-4

# Near-pi switch for log_so3.  arccos of a rounded trace cannot resolve
# angles closer to pi than ~1.5e-8, and the antisymmetric-part formula
# loses accuracy as 1/sin^2; the symmetric-part extraction is accurate to
# ~2e-8 across this whole window.
_LOG_PI_EPS = 1e-4

# Hamilton product: component k of a * b adds sign * a[m] * b[n] for m = 0..3;
# b @ _QMUL_TERMS holds those signed b[n], (k, m) flattened.  One nonzero
# per column makes that matmul exact, and so does it for _HAT and _VEE.
_QMUL_TERMS = np.zeros((4, 16))
_QMUL_TERMS[[0, 1, 2, 3, 1, 0, 3, 2, 2, 3, 0, 1, 3, 2, 1, 0], np.arange(16)] = [
    1, -1, -1, -1, 1, 1, 1, -1, 1, -1, 1, 1, 1, 1, -1, 1]
# v @ _HAT is the cross-product matrix of v, flattened; m.reshape(9) @ _VEE
# is the vector of m's antisymmetric part.
_HAT = np.array([[0, 0, 0, 0, 0, -1, 0, 1, 0],
                 [0, 0, 1, 0, 0, 0, -1, 0, 0],
                 [0, -1, 0, 1, 0, 0, 0, 0, 0]], dtype=float)
_VEE = 0.5 * _HAT.T
_EYE3 = np.eye(3)  # exp_so3 adds it to every batch; building it costs a numpy call


class SouthPoleSingularity(ValueError):
    """Raised when projecting a quaternion too close to [-1, 0, 0, 0]."""


def quat_normalize(q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    return q / np.sqrt(np.add.reduce(q * q, axis=-1, keepdims=True))


def not_unit_quat(q) -> np.ndarray:
    """True where q is not a unit quaternion within UNIT_QUAT_TOL; a
    non-finite entry always counts as not unit.  The norm comes from
    hypot, which overflows only where the norm itself would."""
    return ~(np.abs(np.hypot.reduce(q, axis=-1) - 1.0) <= UNIT_QUAT_TOL)


def quat_product(a, b) -> np.ndarray:
    """Hamilton product a * b, not renormalized: its norm is |a| |b|."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    # component k is one vecdot of a with its signed b terms, as in
    # aw*bw - ax*bx - ay*by - az*bz for w.  vecdot may order or fuse those adds
    # its own way, so a last bit can differ from that formula written out; each
    # pair's product is still computed alone, whatever the batch around it
    return np.vecdot(a[..., None, :], (b @ _QMUL_TERMS).reshape(b.shape[:-1] + (4, 4)))


def quat_mul(a, b) -> np.ndarray:
    """Hamilton product a * b, renormalized to unit length."""
    out = quat_product(a, b)
    return out / np.sqrt(np.vecdot(out, out))[..., None]


def quat_conjugate(q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    out = q.copy()
    out[..., 1:] = -out[..., 1:]
    return out


def quat_to_matrix(q) -> np.ndarray:
    q = quat_normalize(q)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    xx, yy, zz = x * x, y * y, z * z
    xy, xz, yz = x * y, x * z, y * z
    wx, wy, wz = w * x, w * y, w * z
    m = np.empty(q.shape[:-1] + (3, 3), dtype=float)
    m[..., 0, 0] = 1.0 - 2.0 * (yy + zz)
    m[..., 0, 1] = 2.0 * (xy - wz)
    m[..., 0, 2] = 2.0 * (xz + wy)
    m[..., 1, 0] = 2.0 * (xy + wz)
    m[..., 1, 1] = 1.0 - 2.0 * (xx + zz)
    m[..., 1, 2] = 2.0 * (yz - wx)
    m[..., 2, 0] = 2.0 * (xz - wy)
    m[..., 2, 1] = 2.0 * (yz + wx)
    m[..., 2, 2] = 1.0 - 2.0 * (xx + yy)
    return m


def matrix_to_quat(m) -> np.ndarray:
    """Rotation matrix to unit quaternion, canonicalized to w >= 0.

    Shepperd's method: branch on the largest of the trace and the diagonal
    entries so the divisor is always well away from zero.  Row p of the
    symmetric table below is 4 q_p q, so the pivot row divided by
    s = 4 |q_p| gives q, whose pivot entry is s / 4.
    """
    m = np.asarray(m, dtype=float)
    m00, m11, m22 = m[..., 0, 0], m[..., 1, 1], m[..., 2, 2]
    tr = m00 + m11 + m22
    pivot = np.asarray(np.argmax(np.stack([tr, m00, m11, m22], axis=-1), axis=-1))

    # batch axes last, so that each entry is written contiguously
    t = np.empty((4, 4) + tr.shape, dtype=float)
    t[0, 0] = 1.0 + tr
    t[1, 1] = 1.0 + m00 - m11 - m22
    t[2, 2] = 1.0 - m00 + m11 - m22
    t[3, 3] = 1.0 - m00 - m11 + m22
    t[0, 1] = t[1, 0] = m[..., 2, 1] - m[..., 1, 2]
    t[0, 2] = t[2, 0] = m[..., 0, 2] - m[..., 2, 0]
    t[0, 3] = t[3, 0] = m[..., 1, 0] - m[..., 0, 1]
    t[1, 2] = t[2, 1] = m[..., 0, 1] + m[..., 1, 0]
    t[1, 3] = t[3, 1] = m[..., 0, 2] + m[..., 2, 0]
    t[2, 3] = t[3, 2] = m[..., 1, 2] + m[..., 2, 1]

    row = np.moveaxis(np.take_along_axis(t, pivot[None, None], axis=0)[0], 0, -1)
    s = np.sqrt(np.maximum(np.take_along_axis(row, pivot[..., None], axis=-1), 0.0)) * 2.0
    s = np.where(s == 0.0, 1.0, s)
    q = row / s
    np.put_along_axis(q, pivot[..., None], 0.25 * s, axis=-1)
    q = q / np.linalg.norm(q, axis=-1, keepdims=True)
    return q * np.where(q[..., :1] < 0.0, -1.0, 1.0)


def exp_so3(v) -> np.ndarray:
    """Rodrigues formula: rotation vector to rotation matrix,
    I + a K + b K^2 for K the cross-product matrix of v."""
    v = np.asarray(v, dtype=float)
    theta2 = np.add.reduce(v * v, axis=-1)
    theta = np.sqrt(theta2)
    # a = sin(t)/t and b = (1-cos(t))/t^2 with second-order Taylor fallback,
    # whose np.where runs only when some row needs it; the other rows' bits agree
    if theta.min(initial=np.inf) < _EXP_TAYLOR_EPS:
        small = theta < _EXP_TAYLOR_EPS
        safe = np.where(small, 1.0, theta)
        a = np.where(small, 1.0 - theta2 / 6.0, np.sin(safe) / safe)
        b = np.where(small, 0.5 - theta2 / 24.0, (1.0 - np.cos(safe)) / (safe * safe))
    else:
        a = np.sin(theta) / theta
        b = (1.0 - np.cos(theta)) / (theta * theta)
    k = (v @ _HAT).reshape(v.shape[:-1] + (3, 3))
    return _EYE3 + a[..., None, None] * k + b[..., None, None] * (k @ k)


def nearest_rotation(m) -> np.ndarray:
    """Rotation(s) nearest in Frobenius norm to finite 3x3 matrices.  A
    near-rotation (det m > 0, every entry of m^T m - I within _POLAR_TOL)
    takes two Newton-Schulz steps x <- x (3 I - x^T x) / 2 to its polar
    factor (Higham 1986); any other m takes the SVD U S V^T and one step
    from U diag(1, 1, det U V^T) V^T, the polar factor when det m > 0, else
    that factor with its weakest singular direction flipped."""
    m = np.asarray(m, dtype=float)
    flat = m.reshape(-1, 3, 3)
    # all take the steps, near-rotations keep them; a contiguous x^T is 3x faster
    with np.errstate(over="ignore", invalid="ignore"):
        gram = np.swapaxes(flat, -1, -2).copy() @ flat
        det = np.einsum("...i,...i", np.cross(flat[:, 0], flat[:, 1]), flat[:, 2])
        near = np.all(np.abs(gram - np.eye(3)) <= _POLAR_TOL, axis=(1, 2)) & (det > 0.0)
        x = flat @ (1.5 * np.eye(3) - 0.5 * gram)
        x = x @ (1.5 * np.eye(3) - 0.5 * (np.swapaxes(x, -1, -2).copy() @ x))
    if not near.all():
        u, _, vt = np.linalg.svd(flat[~near])
        u[..., :, 2] *= np.sign(np.linalg.det(u @ vt))[..., None]
        y = u @ vt  # orthogonal to about 4e-16, and to 2e-16 after its step
        x[~near] = y @ (1.5 * np.eye(3) - 0.5 * np.swapaxes(y, -1, -2) @ y)
    return x.reshape(m.shape)


def log_so3(m) -> np.ndarray:
    """Principal matrix logarithm of SO(3), norm in [0, pi].

    The generic branch uses the antisymmetric part; near pi the axis is
    recovered from the symmetric part to avoid catastrophic cancellation,
    and near zero a Taylor expansion of theta/sin(theta) is used.
    """
    m = np.asarray(m, dtype=float)
    tr = m[..., 0, 0] + m[..., 1, 1] + m[..., 2, 2]
    theta = np.arccos(np.minimum(np.maximum((tr - 1.0) / 2.0, -1.0), 1.0))
    # antisymmetric part, = sin(theta) * axis
    a = m.reshape(m.shape[:-2] + (9,)) @ _VEE
    if not (theta.min(initial=np.inf) < 1e-4 or theta.max(initial=0.0) > np.pi - _LOG_PI_EPS):
        # no row needs a fix-up; the generic rows' bits match the path below
        return a * (theta / np.sin(theta))[..., None]
    small = theta < 1e-4
    near_pi = theta > np.pi - _LOG_PI_EPS
    theta2 = theta * theta
    sin_theta = np.sin(theta)
    factor = np.where(small, 1.0 + theta2 * (1.0 / 6.0 + theta2 * (7.0 / 360.0)),
                      theta / np.where(sin_theta < 1e-12, 1.0, sin_theta))
    out = a * factor[..., None]
    if near_pi.any():
        flat = out.reshape(-1, 3)
        mats = m.reshape(-1, 3, 3)
        angs = theta.reshape(-1)
        asym = a.reshape(-1, 3)
        for idx in np.nonzero(near_pi.reshape(-1))[0]:
            flat[idx] = _log_near_pi(mats[idx], angs[idx], asym[idx])
        out = flat.reshape(out.shape)
    return out


def _log_near_pi(m, theta, asym):
    # outer(w, w) = (S - cos(theta) I) / (1 - cos(theta)) for S the symmetric part
    c = np.cos(theta)
    ww = ((m + m.T) / 2.0 - c * np.eye(3)) / (1.0 - c)
    k = int(np.argmax(np.diag(ww)))
    w = ww[:, k] / np.sqrt(max(ww[k, k], 1e-300))
    w = w / np.linalg.norm(w)
    if np.dot(asym, w) < 0.0:
        w = -w
    elif np.dot(asym, w) == 0.0 and w[np.argmax(np.abs(w))] < 0.0:
        # exactly pi: either sign is valid, pick a deterministic one
        w = -w
    return theta * w


def mrp_project(q) -> np.ndarray:
    """Stereographic projection psi = nu / (1 + rho).

    Raises SouthPoleSingularity if any input quaternion has
    rho <= -1 + SOUTH_POLE_TOL; the caller should project the other
    antipode instead.
    """
    q = np.asarray(q, dtype=float)
    w = q[..., 0]
    if np.any(w <= -1.0 + SOUTH_POLE_TOL):
        raise SouthPoleSingularity(
            "quaternion too close to the south pole [-1, 0, 0, 0]; "
            "project the negated antipode instead"
        )
    return q[..., 1:] / (1.0 + w[..., None])


def mrp_unproject(psi) -> np.ndarray:
    """Inverse stereographic projection; exact unit quaternion."""
    psi = np.asarray(psi, dtype=float)
    n2 = np.add.reduce(psi * psi, axis=-1, keepdims=True)
    return np.concatenate([1.0 - n2, 2.0 * psi], axis=-1) / (1.0 + n2)


def sample_uniform_rotation(rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, 4) Haar-uniform unit quaternions: normalized 4D Gaussian draws.
    Deterministic given the generator state."""
    g = rng.standard_normal((n, 4))
    return g / np.linalg.norm(g, axis=-1, keepdims=True)
