import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import (geodesic_distance, quat_from_axis_angle, random_matrices, random_quats,
                      random_unit_vectors)
from rotavg import rotmath

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


def unit_quat_strategy():
    # quaternion from axis-angle, covering both hemispheres
    return st.builds(
        lambda ax, ang: quat_from_axis_angle(ax, ang),
        st.tuples(
            st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)
        ).filter(lambda t: 0.1 < np.linalg.norm(t) < 1.7),
        st.floats(-np.pi + 1e-3, np.pi - 1e-3),
    )


class TestQuatMul:
    def test_identity_left(self, rng):
        q = random_quats(rng, 20)
        assert_allclose(rotmath.quat_mul(IDENTITY, q), q, atol=1e-12)

    def test_inverse_gives_identity(self, rng):
        q = random_quats(rng, 20)
        prod = rotmath.quat_mul(q, rotmath.quat_conjugate(q))
        assert_allclose(prod, np.tile(IDENTITY, (20, 1)), atol=1e-12)

    def test_composition_matches_matrix_product(self):
        qz = quat_from_axis_angle([0, 0, 1], np.pi / 2)
        qx = quat_from_axis_angle([1, 0, 0], np.pi / 2)
        composed = rotmath.quat_to_matrix(rotmath.quat_mul(qz, qx))
        expected = rotmath.quat_to_matrix(qz) @ rotmath.quat_to_matrix(qx)
        assert_allclose(composed, expected, atol=1e-12)

    def test_composition_random(self, rng):
        a, b = random_quats(rng, 100), random_quats(rng, 100)
        lhs = rotmath.quat_to_matrix(rotmath.quat_mul(a, b))
        rhs = rotmath.quat_to_matrix(a) @ rotmath.quat_to_matrix(b)
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_output_unit(self, rng):
        a, b = random_quats(rng, 100), random_quats(rng, 100)
        norms = np.linalg.norm(rotmath.quat_mul(a, b), axis=-1)
        assert np.max(np.abs(norms - 1.0)) < 1e-9

    @pytest.mark.parametrize("n", [1, 16, 64, 640, 4000])
    def test_matches_hamilton_product_term_by_term(self, rng, n):
        # one term-array form at every n; n = 4000 is past any batch a caller sends
        a, b = random_quats(rng, n), random_quats(rng, n)
        (aw, ax, ay, az), (bw, bx, by, bz) = a.T, b.T
        want = np.stack([aw * bw - ax * bx - ay * by - az * bz,
                         aw * bx + ax * bw + ay * bz - az * by,
                         aw * by - ax * bz + ay * bw + az * bx,
                         aw * bz + ax * by - ay * bx + az * bw], axis=-1)
        want /= np.linalg.norm(want, axis=-1, keepdims=True)
        got = rotmath.quat_mul(a, b)
        assert np.max(np.abs(got - want)) <= 4.5e-16
        # a pair's product does not depend on the batch around it
        assert np.array_equal(rotmath.quat_mul(a[:1], b[:1]), got[:1])
        assert np.array_equal(rotmath.quat_mul(a[0], b[0]), got[0])


class TestExpLog:
    def test_exp_zero_is_identity(self):
        assert_allclose(rotmath.exp_so3(np.zeros(3)), np.eye(3), atol=1e-15)

    def test_exp_quarter_turn_about_x(self):
        got = rotmath.exp_so3(np.array([np.pi / 2, 0.0, 0.0]))
        want = np.array([[1, 0, 0], [0, 0, -1], [0, 1, 0]], dtype=float)
        assert_allclose(got, want, atol=1e-15)

    def test_exp_log_roundtrip_on_matrices(self, rng):
        mats = random_matrices(rng, 1000)
        again = rotmath.exp_so3(rotmath.log_so3(mats))
        assert np.max(np.abs(again - mats)) < 1e-9

    def test_log_identity_is_zero(self):
        assert_allclose(rotmath.log_so3(np.eye(3)), np.zeros(3), atol=1e-15)

    def test_log_half_turn_about_z(self):
        v = rotmath.log_so3(np.diag([-1.0, -1.0, 1.0]))
        assert abs(np.linalg.norm(v) - np.pi) < 1e-12
        axis = v / np.linalg.norm(v)
        assert min(np.linalg.norm(axis - [0, 0, 1]), np.linalg.norm(axis + [0, 0, 1])) < 1e-12

    def test_log_exp_roundtrip(self, rng):
        axes = random_unit_vectors(rng, 2000)
        angles = rng.uniform(0.0, np.pi - 1e-3, 2000)
        v = axes * angles[:, None]
        assert np.max(np.abs(rotmath.log_so3(rotmath.exp_so3(v)) - v)) < 1e-9

    def test_log_near_pi_branch(self, rng):
        # angles strictly below pi keep the axis sign well defined
        axes = random_unit_vectors(rng, 200)
        angles = np.pi - 10 ** rng.uniform(-12, -3, 200)
        v = axes * angles[:, None]
        back = rotmath.log_so3(rotmath.exp_so3(v))
        assert np.max(np.linalg.norm(back - v, axis=-1)) < 1e-6

    def test_log_exact_half_turn_picks_the_positive_sign(self):
        # a half turn about (1, -1, 1)/sqrt(3) has an antisymmetric part of exactly 0,
        # so either axis sign is valid; the tie-break flips the axis the symmetric part
        # gives, making the component largest in magnitude positive
        a = np.array([1.0, -1.0, 1.0]) / np.sqrt(3.0)
        m = 2.0 * np.outer(a, a) - np.eye(3)
        assert np.array_equal(m, m.T)
        r = rotmath.log_so3(m)
        assert abs(np.linalg.norm(r) - np.pi) < 1e-7
        assert np.max(np.abs(rotmath.exp_so3(r) - m)) < 1e-7
        assert r[np.argmax(np.abs(r))] > 0.0

    def test_exp_small_angle(self):
        v = np.array([1e-10, -2e-10, 5e-11])
        m = rotmath.exp_so3(v)
        assert_allclose(rotmath.log_so3(m), v, atol=1e-18)

    # exp and log skip their fix-ups when no row needs them; one row that does
    # sends the batch down the full path, and the other rows keep their bits
    def test_exp_generic_rows_equal_with_a_zero_row(self, rng):
        v = random_unit_vectors(rng, 50) * rng.uniform(0.0, np.pi, 50)[:, None]
        with_zero = rotmath.exp_so3(np.concatenate([v, np.zeros((1, 3))]))
        assert np.array_equal(with_zero[:-1], rotmath.exp_so3(v))
        assert np.array_equal(with_zero[-1], np.eye(3))

    @pytest.mark.parametrize("angle", [1e-6, np.pi - 1e-6])
    def test_log_generic_rows_equal_with_an_edge_row(self, rng, angle):
        mats = random_matrices(rng, 50)
        edge = rotmath.exp_so3(random_unit_vectors(rng) * angle)
        with_edge = rotmath.log_so3(np.concatenate([mats, edge[None]]))
        assert np.array_equal(with_edge[:-1], rotmath.log_so3(mats))
        assert abs(np.linalg.norm(with_edge[-1]) - angle) < 1e-9


class TestGeodesicDistance:
    def test_self_distance_zero(self, rng):
        mats = random_matrices(rng, 10)
        assert np.max(geodesic_distance(mats, mats)) < 1e-12

    def test_angle_definition(self, rng):
        for theta in (0.01, 0.5, 1.5, 2.5, np.pi - 0.01):
            axis = random_unit_vectors(rng)
            m = rotmath.exp_so3(axis * theta)
            assert abs(geodesic_distance(np.eye(3), m) - theta) < 1e-9

    def test_symmetry_and_bi_invariance(self, rng):
        a, b, s = (random_matrices(rng, 200) for _ in range(3))
        d_ab = geodesic_distance(a, b)
        d_ba = geodesic_distance(b, a)
        d_sab = geodesic_distance(s @ a, s @ b)
        assert np.max(np.abs(d_ab - d_ba)) < 1e-9
        assert np.max(np.abs(d_ab - d_sab)) < 1e-9

    def test_triangle_inequality(self, rng):
        a, b, c = (random_matrices(rng, 500) for _ in range(3))
        d_ac = geodesic_distance(a, c)
        d_ab = geodesic_distance(a, b)
        d_bc = geodesic_distance(b, c)
        assert np.all(d_ac <= d_ab + d_bc + 1e-9)


class TestMrpProjection:
    def test_identity_projects_to_origin(self):
        assert_allclose(rotmath.mrp_project(IDENTITY), np.zeros(3), atol=1e-15)

    def test_third_turn_values(self, rng):
        # a 120-degree rotation projects to omega/sqrt(3), its antipode
        # to -sqrt(3)*omega
        omega = random_unit_vectors(rng)
        q = np.concatenate([[np.cos(np.pi / 3)], np.sin(np.pi / 3) * omega])
        assert_allclose(rotmath.mrp_project(q), omega / np.sqrt(3), atol=1e-12)
        assert_allclose(rotmath.mrp_project(-q), -np.sqrt(3) * omega, atol=1e-12)

    def test_south_pole_raises(self):
        with pytest.raises(rotmath.SouthPoleSingularity):
            rotmath.mrp_project(np.array([-1.0, 0.0, 0.0, 0.0]))
        with pytest.raises(rotmath.SouthPoleSingularity):
            rotmath.mrp_project(np.array([-1.0 + 1e-10, 1e-5, 0.0, 0.0]))

    def test_unproject_origin_is_identity(self):
        assert_allclose(rotmath.mrp_unproject(np.zeros(3)), IDENTITY, atol=1e-15)

    def test_roundtrip_positive_hemisphere(self, rng):
        q = random_quats(rng, 1000)
        q *= np.where(q[:, :1] < 0, -1.0, 1.0)
        back = rotmath.mrp_unproject(rotmath.mrp_project(q))
        assert np.max(np.abs(back - q)) < 1e-10

    def test_unit_norm_is_half_turn(self, rng):
        psi = random_unit_vectors(rng, 50)
        w = rotmath.mrp_unproject(psi)[:, 0]
        assert np.max(np.abs(w)) < 1e-15

    def test_unproject_is_unit(self, rng):
        psi = rng.normal(scale=30.0, size=(500, 3))
        norms = np.linalg.norm(rotmath.mrp_unproject(psi), axis=-1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12

    def test_antipode_norms_multiply_to_one(self, rng):
        q = random_quats(rng, 1000)
        keep = np.abs(np.abs(q[:, 0]) - 1.0) > 1e-6  # rho not at the poles
        q = q[keep]
        p_plus = rotmath.mrp_project(np.where(q[:, :1] < 0, -q, q))
        p_minus = rotmath.mrp_project(np.where(q[:, :1] < 0, q, -q))
        prod = np.linalg.norm(p_plus, axis=-1) * np.linalg.norm(p_minus, axis=-1)
        assert np.max(np.abs(prod - 1.0)) < 1e-9
        assert np.min(np.linalg.norm(p_plus - p_minus, axis=-1)) > 1e-8


class TestConversions:
    def test_matrix_quat_roundtrip(self, rng):
        mats = random_matrices(rng, 1000)
        back = rotmath.quat_to_matrix(rotmath.matrix_to_quat(mats))
        assert np.max(np.abs(back - mats)) < 1e-12

    def test_matrix_to_quat_canonical_sign(self, rng):
        q = rotmath.matrix_to_quat(random_matrices(rng, 500))
        assert np.all(q[:, 0] >= 0.0)

    def test_matrix_to_quat_each_pivot(self):
        # the identity pivots on the trace, a half turn about an axis on
        # that axis's diagonal entry; each is exact in floating point
        mats = np.stack([np.eye(3), np.diag([1.0, -1.0, -1.0]),
                         np.diag([-1.0, 1.0, -1.0]), np.diag([-1.0, -1.0, 1.0])])
        assert np.array_equal(rotmath.matrix_to_quat(mats), np.eye(4))
        for m, q in zip(mats, np.eye(4)):
            assert np.array_equal(rotmath.matrix_to_quat(m), q)

    def test_conjugate_inverts(self, rng):
        q = random_quats(rng, 50)
        m = rotmath.quat_to_matrix(q)
        m_conj = rotmath.quat_to_matrix(rotmath.quat_conjugate(q))
        assert np.max(np.abs(m_conj - np.swapaxes(m, -1, -2))) < 1e-12


def svd_nearest(m):
    """The SVD projection that every matrix took before near-rotations got
    their Newton-Schulz steps."""
    u, _, vt = np.linalg.svd(m)
    u[..., :, 2] *= np.sign(np.linalg.det(u @ vt))[..., None]
    x = u @ vt
    return x @ (1.5 * np.eye(3) - 0.5 * np.swapaxes(x, -1, -2) @ x)


def polar_reference(m):
    """The orthogonal polar factor of near-rotations, by Newton-Schulz
    steps in extended precision until they stop moving."""
    x = np.asarray(m, dtype=np.longdouble)
    for _ in range(8):
        x = x @ (1.5 * np.eye(3, dtype=np.longdouble) - 0.5 * np.swapaxes(x, -1, -2) @ x)
    return x


EXTENDED = np.finfo(np.longdouble).eps < np.finfo(float).eps


class TestNearestRotation:
    """Near-rotations take two Newton-Schulz steps; reflections, scaled and
    rank-deficient matrices keep the SVD projection bit for bit."""

    def near_rotations(self, rng, eps):
        return random_matrices(rng, 2000) + eps * rng.normal(size=(2000, 3, 3))

    @pytest.mark.parametrize("eps", [0.0, 1e-15, 1e-8])
    def test_near_rotation_reaches_the_polar_factor(self, rng, eps):
        m = self.near_rotations(rng, eps)
        out = rotmath.nearest_rotation(m)
        assert np.max(np.abs(np.linalg.det(out) - 1.0)) <= 1e-15
        assert np.max(np.abs(np.swapaxes(out, -1, -2) @ out - np.eye(3))) <= 1e-15
        # the SVD's U V^T is itself up to 6e-15 from the polar factor
        assert np.max(np.abs(out - svd_nearest(m))) <= 1e-14
        if not EXTENDED:
            pytest.skip("long double is no wider than double here")
        assert np.max(np.abs(out - polar_reference(m))) <= 1e-15

    def test_two_steps_suffice_at_the_tolerance(self, rng):
        # singular values 1 -+ 4.99e-5 put every entry of m^T m - I just inside it
        q = random_matrices(rng, 2 * 500).reshape(2, 500, 3, 3)
        m = q[0] * (1.0 + np.array([-4.99e-5, 0.0, 4.99e-5])) @ q[1]
        gram = np.swapaxes(m, -1, -2) @ m - np.eye(3)
        assert 0.95 * rotmath._POLAR_TOL < np.max(np.abs(gram)) < rotmath._POLAR_TOL
        if not EXTENDED:
            pytest.skip("long double is no wider than double here")
        assert np.max(np.abs(rotmath.nearest_rotation(m) - polar_reference(m))) <= 1e-15

    def test_other_matrices_keep_the_svd_bits(self, rng):
        r = random_matrices(rng, 4)
        flip = np.diag([1.0, 1.0, -1.0])
        m = np.stack([r[0] @ flip, 2.0 * r[1], 1.001 * r[2],
                      np.outer([1.0, 2.0, 3.0], [0.5, -1.0, 2.0]),  # rank 1
                      r[3] * np.array([1.0, 1.0, 0.0]),  # rank 2
                      r[3] + 1e-3 * np.ones((3, 3))])
        out = rotmath.nearest_rotation(m)
        assert np.array_equal(out, svd_nearest(m))
        assert np.max(np.abs(np.linalg.det(out) - 1.0)) <= 1e-15
        assert np.max(np.abs(out[1:3] - r[1:3])) <= 1e-15

    def test_mixed_batch_is_each_matrix_alone(self, rng):
        r = random_matrices(rng, 6)
        m = np.stack([r[0], 3.0 * r[1], r[2] + 1e-9, r[3] @ np.diag([-1.0, 1.0, 1.0]),
                      np.zeros((3, 3)) + np.diag([1.0, 1.0, 0.0]), r[5]])
        out = rotmath.nearest_rotation(m)
        for k in range(len(m)):
            assert np.array_equal(out[k], rotmath.nearest_rotation(m[k]))
        far = [1, 3, 4]
        assert np.array_equal(out[far], svd_nearest(m[far]))
        assert np.max(np.abs(np.linalg.det(out) - 1.0)) <= 1e-15
        assert rotmath.nearest_rotation(m[:0]).shape == (0, 3, 3)


class TestHaarSampling:
    def test_determinism(self):
        a = rotmath.sample_uniform_rotation(np.random.default_rng(7), 10)
        b = rotmath.sample_uniform_rotation(np.random.default_rng(7), 10)
        assert np.array_equal(a, b)

    def test_unit_norm(self, rng):
        q = rotmath.sample_uniform_rotation(rng, 10000)
        assert np.max(np.abs(np.linalg.norm(q, axis=-1) - 1.0)) < 1e-12

    def test_mean_angle_matches_haar(self):
        # Haar angle density (1 - cos t) / pi has mean pi/2 + 2/pi
        q = rotmath.sample_uniform_rotation(np.random.default_rng(3), 100_000)
        angles = 2.0 * np.arccos(np.clip(np.abs(q[:, 0]), 0.0, 1.0))
        expected = np.degrees(np.pi / 2 + 2 / np.pi)
        assert abs(np.degrees(angles.mean()) - expected) < 1.0


@settings(max_examples=200, deadline=None)
@given(q=unit_quat_strategy())
def test_mrp_roundtrip_property(q):
    if q[0] <= -1.0 + 1e-6:
        return
    back = rotmath.mrp_unproject(rotmath.mrp_project(q))
    assert np.max(np.abs(back - q)) < 1e-10


@settings(max_examples=200, deadline=None)
@given(q=unit_quat_strategy())
def test_quat_matrix_rotation_action_property(q):
    # rotating a vector through the matrix equals the quaternion sandwich
    v = np.array([0.3, -1.2, 0.7])
    qv = np.concatenate([[0.0], v])
    sandwich = rotmath.quat_mul(
        np.asarray(q), rotmath.quat_mul(qv, rotmath.quat_conjugate(q))
    ) * np.linalg.norm(qv)
    assert_allclose(rotmath.quat_to_matrix(q) @ v, sandwich[1:], atol=1e-9)
