import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import (build_critical_env, evenly_spaced_rotations, neighborhood_of,
                      random_matrices, random_quats, random_unit_vectors, reparameterized)
from rotavg import averaging, metrics, rotmath
from rotavg.averaging import (
    ALGORITHM_TABLE,
    ALGORITHMS,
    EstimateSet,
    _JoinedGraph,
    OptimizerConfig,
    expected_update,
    STEP_FUNCTIONS,
    initial_estimates,
    run_averaging,
)
from rotavg.envgraph import GeneratorConfig, RotationEnvironment, generate_uniform_env

# a NaN from a zero divisor or an invalid comparison fails the test it happens in
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

mrp_loss_and_grad = ALGORITHM_TABLE["mrp"].pair_grads  # (loss, grad, antipode sign) of pairs
target_quaternion = rotmath.quat_mul  # q_i_j x qhat_j: where node i sits relative to j


def small_env(seed=0, n=12, k=3):
    return generate_uniform_env(GeneratorConfig(n_nodes=n, k_neighbors=k, seed=seed))


def two_node_env(rng):
    quats = random_quats(rng, 2)
    gt = rotmath.quat_to_matrix(quats)
    rel = rotmath.matrix_to_quat(gt[0] @ gt[1].T)
    return RotationEnvironment(2, [[0, 1]], rel[None], ground_truth=quats)


def mrp_critical_fixture(rng, r0=None, theta=None):
    """Evenly spaced ground truth about a random axis; estimates built so
    that r0 = I places them exactly at the identity (the analyzed
    configuration)."""
    omega = random_unit_vectors(rng)
    theta = rng.uniform(-np.pi, np.pi) if theta is None else theta
    gt = evenly_spaced_rotations(omega, theta, 3)
    env, est = build_critical_env(
        omega, -theta, np.eye(3) if r0 is None else r0, gt
    )
    return env, reparameterized(est, "mrp"), omega


class TestTargetQuaternion:
    def test_identity_relative(self, rng):
        q = random_quats(rng, 10)
        ident = np.array([1.0, 0, 0, 0])
        assert_allclose(target_quaternion(ident, q), q, atol=1e-12)

    def test_exact_env_at_ground_truth(self, rng):
        env = small_env()
        q_gt = env.ground_truth_quats
        for i in range(env.n_nodes):
            for j, q_ij in neighborhood_of(env, i):
                target = target_quaternion(q_ij, q_gt[j])
                assert min(
                    np.linalg.norm(target - q_gt[i]),
                    np.linalg.norm(target + q_gt[i]),
                ) < 1e-9


class TestMrpLossAndGrad:
    def test_zero_at_target(self, rng):
        psi_j = rng.normal(size=3)
        q_ij = random_quats(rng, 1)[0]
        target = rotmath.quat_mul(q_ij, rotmath.mrp_unproject(psi_j))
        if target[0] < 0:
            target = -target
        psi_i = rotmath.mrp_project(target)
        loss, grad, _ = mrp_loss_and_grad(psi_i, psi_j, q_ij)
        assert loss < 1e-28
        assert np.linalg.norm(grad) < 1e-14

    def test_critical_fixture_values(self, rng):
        # per-pair candidate losses are exactly {1/3, 3}; the chosen
        # gradient is -/+ omega / sqrt(3)
        env, est, omega = mrp_critical_fixture(rng)
        psi = est.values
        for i in range(3):
            for j, q_ij in neighborhood_of(env, i):
                loss, grad, sign = mrp_loss_and_grad(psi[i], psi[j], q_ij)
                assert abs(loss - 1.0 / 3.0) < 1e-12
                target = rotmath.quat_mul(q_ij, rotmath.mrp_unproject(psi[j]))
                other = rotmath.mrp_project(-sign * target)
                assert abs(np.linalg.norm(psi[i] - other) ** 2 - 3.0) < 1e-12
                assert abs(np.linalg.norm(grad) - 1.0 / np.sqrt(3)) < 1e-12
                axis_alignment = abs(np.dot(grad, omega)) / np.linalg.norm(grad)
                assert abs(axis_alignment - 1.0) < 1e-9

    def test_gradient_matches_finite_differences(self, rng):
        kept = 0
        h = 1e-6
        while kept < 200:
            psi_i = rng.normal(scale=1.2, size=3)
            psi_j = rng.normal(scale=1.2, size=3)
            q_ij = random_quats(rng, 1)[0]
            loss, grad, sign = mrp_loss_and_grad(psi_i, psi_j, q_ij)
            target = rotmath.quat_mul(q_ij, rotmath.mrp_unproject(psi_j))
            both = []
            for s in (1.0, -1.0):
                try:
                    both.append(
                        np.sum((psi_i - rotmath.mrp_project(s * target)) ** 2)
                    )
                except rotmath.SouthPoleSingularity:
                    both.append(np.inf)
            if abs(both[0] - both[1]) < 1e-3:  # too close to the branch switch
                continue
            kept += 1
            fd = np.empty(3)
            for k in range(3):
                e = np.zeros(3)
                e[k] = h
                lp = mrp_loss_and_grad(psi_i + e, psi_j, q_ij)[0]
                lm = mrp_loss_and_grad(psi_i - e, psi_j, q_ij)[0]
                fd[k] = (lp - lm) / (2 * h)
            # returned gradient omits the constant factor 2
            assert np.linalg.norm(fd - 2.0 * grad) <= 1e-6 * max(
                np.linalg.norm(2.0 * grad), 1e-9
            )

    def test_south_pole_fallback(self, rng):
        psi_j = rng.normal(size=3)
        q_hat_j = rotmath.mrp_unproject(psi_j)
        q_ij = -rotmath.quat_conjugate(q_hat_j)  # target is the south pole
        psi_i = rng.normal(size=3)
        loss, grad, sign = mrp_loss_and_grad(psi_i, psi_j, q_ij)
        assert sign == -1
        assert_allclose(grad, psi_i, atol=1e-9)
        assert abs(loss - np.dot(psi_i, psi_i)) < 1e-9


def unproject_reference(psi_i, psi_j, q_ij):
    """The mrp pair losses by the unproject path: unproject psi_j, take the
    unit target q_i_j x phi^-1(psi_j) and project both antipodes; returns the
    (plus, minus) candidate losses and gradients, inf inside the guard band."""
    target = rotmath.quat_mul(q_ij, rotmath.mrp_unproject(psi_j))
    losses, grads = [], []
    for s in (1.0, -1.0):
        w, v = s * target[..., 0], s * target[..., 1:]
        ok = w > -1.0 + rotmath.SOUTH_POLE_TOL
        d = psi_i - v / np.where(ok, 1.0 + w, 1.0)[..., None]
        losses.append(np.where(ok, np.sum(d * d, axis=-1), np.inf))
        grads.append(d)
    return losses, grads


class TestMrpAgainstUnprojectReference:
    """The kernel projects t = q_i_j x (1 - |psi_j|^2, 2 psi_j) without
    normalizing it; that changes only round-off against the reference."""

    def check(self, psi_i, psi_j, q_ij):
        loss, grad, sign = mrp_loss_and_grad(psi_i, psi_j, q_ij)
        (lp, lm), (gp, gm) = unproject_reference(psi_i, psi_j, q_ij)
        plus = lp < lm
        want_loss = np.where(plus, lp, lm)
        want_grad = np.where(plus[..., None], gp, gm)
        assert np.all(np.isfinite(loss))
        assert_allclose(loss, want_loss, rtol=1e-12, atol=0.0)
        err = np.linalg.norm(grad - want_grad, axis=-1)
        assert np.all(err <= 1e-12 * np.linalg.norm(want_grad, axis=-1))
        clear = np.abs(lp - lm) > 1e-9 * np.minimum(lp, lm)
        assert np.array_equal(np.where(plus, 1, -1)[clear], np.asarray(sign)[clear])
        return np.count_nonzero(clear)

    def test_random_batched_and_unbatched(self, rng):
        n = 2000
        psi_i = rng.normal(scale=1.2, size=(n, 3))
        psi_j = rng.normal(scale=1.2, size=(n, 3))
        q_ij = random_quats(rng, n)
        assert self.check(psi_i, psi_j, q_ij) > n - 5
        for k in range(50):
            self.check(psi_i[k], psi_j[k], q_ij[k])

    def test_targets_at_the_south_pole_guard_band(self, rng):
        # unit targets with 1 + w within 1e-6 of the band edge SOUTH_POLE_TOL,
        # for either antipode; q_ij is solved from the target and psi_j
        n = 400
        psi_i = rng.normal(scale=1.2, size=(n, 3))
        psi_j = rng.normal(scale=1.2, size=(n, 3))
        gap = rotmath.SOUTH_POLE_TOL + rng.uniform(-1e-6, 1e-6, n)
        w = -1.0 + np.maximum(gap, 0.0)
        axis = random_unit_vectors(rng, n)
        target = np.concatenate([w[:, None], np.sqrt(1.0 - w * w)[:, None] * axis], axis=1)
        target *= np.where(np.arange(n) % 2 == 0, 1.0, -1.0)[:, None]
        q_ij = rotmath.quat_mul(target, rotmath.quat_conjugate(rotmath.mrp_unproject(psi_j)))
        self.check(psi_i, psi_j, q_ij)
        for k in range(20):
            self.check(psi_i[k], psi_j[k], q_ij[k])


def nearer_antipode(psi_i, psi_j, q_ij):
    """The mrp kernel's antipode sign by comparing both candidates'
    distances to psi_i, inf inside the guard band, as the kernel did before
    it took the sign in closed form."""
    n2 = np.vecdot(psi_j, psi_j)
    r = 1.0 + n2
    t = rotmath.quat_product(q_ij, np.concatenate([(1.0 - n2)[..., None], 2.0 * psi_j], axis=-1))
    both = np.array([t, -t])
    w = both[..., 0]
    ok = w > (-1.0 + rotmath.SOUTH_POLE_TOL) * r
    d = psi_i - both[..., 1:] / np.where(ok, r + w, 1.0)[..., None]
    loss = np.where(ok, np.vecdot(d, d), np.inf)
    return np.where(loss[0] < loss[1], 1, -1)


class TestMrpClosedFormAntipode:
    """The kernel keeps the + antipode exactly where t_w + <psi_i, t_v> > 0."""

    def test_sign_equals_the_distance_comparison(self, rng):
        n = 100_000
        psi_i = random_unit_vectors(rng, n) * 10.0 ** rng.uniform(-1.0, 3.0, n)[:, None]
        psi_j = rng.normal(scale=1.2, size=(n, 3))
        q_ij = random_quats(rng, n)
        _, _, sign = mrp_loss_and_grad(psi_i, psi_j, q_ij)
        want = nearer_antipode(psi_i, psi_j, q_ij)
        assert np.array_equal(sign, want)
        assert 0 < np.count_nonzero(want == 1) < n

    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_an_antipode_in_the_guard_band_is_never_selected(self, rng, side):
        # target t = side * (-(1 - 1e-12), sqrt(2e-12) axis) r puts the antipode
        # side * t inside the band; psi_i far out along side * t_v makes the
        # closed form prefer it, so the guard must flip the choice
        psi_j = rng.normal(scale=1.2, size=3)
        axis = random_unit_vectors(rng)
        w = -(1.0 - 1e-12)
        target = side * np.concatenate([[w], np.sqrt(1.0 - w * w) * axis])
        q_ij = rotmath.quat_mul(target, rotmath.quat_conjugate(rotmath.mrp_unproject(psi_j)))
        psi_i = 1e7 * axis
        loss, grad, sign = mrp_loss_and_grad(psi_i, psi_j, q_ij)
        assert sign == -side
        assert sign == nearer_antipode(psi_i, psi_j, q_ij)
        assert np.isfinite(loss) and np.all(np.isfinite(grad))


class TestMrpStep:
    def test_no_change_at_target(self, rng):
        env = two_node_env(rng)
        est = EstimateSet.from_quaternions(env.ground_truth_quats, "mrp")
        before = est.values.copy()
        cfg = OptimizerConfig("mrp", batch_size=1, seed=0)
        report = STEP_FUNCTIONS["mrp"](est, env, cfg, np.random.default_rng(0))
        assert np.max(np.abs(est.values - before)) < 1e-12
        assert np.max(report.losses) < 1e-20

    def test_clamp_definition(self, rng):
        # a pair gradient of norm 10 must produce a step of norm gamma*eta
        env = two_node_env(rng)
        est = EstimateSet.from_quaternions(env.ground_truth_quats, "mrp")
        gamma, eta = 0.7, 0.1
        cfg = OptimizerConfig("mrp", gamma=gamma, eta=eta, batch_size=1, seed=0)
        step_rng = np.random.default_rng(5)
        probe = STEP_FUNCTIONS["mrp"](EstimateSet("mrp", est.values), env, cfg,
                                      np.random.default_rng(5))
        i = probe.nodes[0]
        j = probe.neighbors[0]
        q_ij = dict(neighborhood_of(env, int(i)))[int(j)]
        target = rotmath.quat_mul(q_ij, rotmath.mrp_unproject(est.values[j]))
        if target[0] < 0:
            target = -target
        direction = random_unit_vectors(rng)
        est.values[i] = rotmath.mrp_project(target) + 10.0 * direction
        report = STEP_FUNCTIONS["mrp"](est, env, cfg, step_rng)
        assert abs(np.linalg.norm(report.updates[0]) - gamma * eta) < 1e-12

    def test_clamp_bounds_every_update(self):
        env = small_env(3)
        cfg = OptimizerConfig("mrp", gamma=0.5, eta=0.1, batch_size=4, seed=9)
        rng = np.random.default_rng(cfg.seed)
        est = initial_estimates(env, cfg, rng)
        for _ in range(500):
            report = STEP_FUNCTIONS["mrp"](est, env, cfg, rng)
            norms = np.linalg.norm(report.updates, axis=-1)
            assert np.all(norms <= cfg.gamma * cfg.eta + 1e-15)

    def test_antipode_field_reported(self):
        env = small_env(4)
        cfg = OptimizerConfig("mrp", batch_size=6, seed=2)
        rng = np.random.default_rng(cfg.seed)
        est = initial_estimates(env, cfg, rng)
        report = STEP_FUNCTIONS["mrp"](est, env, cfg, rng)
        assert report.antipodes.shape == (6,)
        assert set(np.unique(report.antipodes)) <= {-1, 1}

    def test_critical_expectation_zero(self, rng):
        env, est, _ = mrp_critical_fixture(rng)
        for i in range(3):
            u = expected_update(est, env, i, "mrp")
            assert np.linalg.norm(u) < 1e-12

    def test_synchronous_batch_uses_prestep_values(self, rng):
        env = small_env(1)
        cfg = OptimizerConfig("mrp", batch_size=env.n_nodes, seed=4)
        rng1 = np.random.default_rng(2)
        est = initial_estimates(env, cfg, np.random.default_rng(8))
        before = est.values.copy()
        report = STEP_FUNCTIONS["mrp"](est, env, cfg, rng1)
        # recompute every update against the frozen pre-step state
        for i, j, upd in zip(report.nodes, report.neighbors, report.updates):
            q_ij = dict(neighborhood_of(env, int(i)))[int(j)]
            _, grad, _ = mrp_loss_and_grad(before[i], before[j], q_ij)
            norm = np.linalg.norm(grad)
            scale = cfg.eta / norm if norm > cfg.eta else 1.0
            assert_allclose(upd, -cfg.gamma * scale * grad, atol=1e-15)


class TestSo3Step:
    def test_no_change_at_target(self, rng):
        env = two_node_env(rng)
        est = EstimateSet.from_quaternions(env.ground_truth_quats, "so3_matrix")
        before = est.values.copy()
        cfg = OptimizerConfig("so3", batch_size=1, seed=0)
        STEP_FUNCTIONS["so3"](est, env, cfg, np.random.default_rng(0))
        assert np.max(np.abs(est.values - before)) < 1e-12

    def test_two_node_full_step_lands_on_target(self, rng):
        env = two_node_env(rng)
        cfg = OptimizerConfig("so3", gamma=1.0, batch_size=1, seed=0)
        step_rng = np.random.default_rng(3)
        est = initial_estimates(env, cfg, np.random.default_rng(1))
        report = STEP_FUNCTIONS["so3"](est, env, cfg, step_rng)
        i, j = report.nodes[0], report.neighbors[0]
        q_ij = dict(neighborhood_of(env, int(i)))[int(j)]
        target = rotmath.quat_to_matrix(q_ij) @ est.values[j]
        assert np.max(np.abs(est.values[i] - target)) < 1e-12

    def test_critical_point_r_delta_wraps_to_zero(self, rng):
        # arbitrary gt, offset, axis, phase: the two per-neighbor tangent
        # updates cancel exactly
        gt = random_matrices(rng, 3)
        r0 = random_matrices(rng, 1)[0]
        omega = random_unit_vectors(rng)
        theta = rng.uniform(-np.pi, np.pi)
        env, est = build_critical_env(omega, theta, r0, gt)
        for i in range(3):
            total = np.zeros(3)
            for j, q_ij in neighborhood_of(env, i):
                r = rotmath.log_so3(
                    est.values[i].T @ rotmath.quat_to_matrix(q_ij) @ est.values[j]
                )
                total += r
            assert np.linalg.norm(total) < 1e-9
            assert np.linalg.norm(expected_update(est, env, i, "so3")) < 1e-9


    def test_cached_edge_matrices_match_quaternions(self):
        env = small_env(5)
        direct = rotmath.quat_to_matrix(env.nbr_quats)
        assert np.max(np.abs(env.nbr_mats - direct)) == 0.0

class TestQuaternionStep:
    def test_fixed_point_at_target(self, rng):
        env = two_node_env(rng)
        est = EstimateSet.from_quaternions(env.ground_truth_quats, "quaternion")
        before = est.values.copy()
        cfg = OptimizerConfig("quaternion", batch_size=1, seed=0)
        report = STEP_FUNCTIONS["quaternion"](est, env, cfg, np.random.default_rng(0))
        assert np.max(np.abs(np.abs(np.sum(est.values * before, axis=1)) - 1.0)) < 1e-12
        assert np.max(report.losses) < 1e-15

    def test_loss_antipode_invariant(self, rng):
        q_i, q_j, q_ij = (random_quats(rng, 100) for _ in range(3))
        q_t = rotmath.quat_mul(q_ij, q_j)
        loss = 1.0 - np.sum(q_i * q_t, axis=1) ** 2
        loss_neg = 1.0 - np.sum(-q_i * q_t, axis=1) ** 2
        assert_allclose(loss, loss_neg, atol=1e-15)

    def test_gradient_matches_finite_differences(self, rng):
        h = 1e-6
        kept = 0
        while kept < 200:
            q_i = random_quats(rng, 1)[0]
            q_t = random_quats(rng, 1)[0]
            d = np.dot(q_i, q_t)
            if abs(d) < 1e-3:  # antipodal saddle: gradient vanishes
                continue
            kept += 1
            grad = -2.0 * d * q_t
            fd = np.empty(4)
            for k in range(4):
                e = np.zeros(4)
                e[k] = h
                fd[k] = (
                    (1 - np.dot(q_i + e, q_t) ** 2) - (1 - np.dot(q_i - e, q_t) ** 2)
                ) / (2 * h)
            assert np.linalg.norm(fd - grad) <= 1e-6 * np.linalg.norm(grad)


class TestDescentProperty:
    N = 10_000

    def test_mrp_pair_descent(self, rng):
        from rotavg.averaging import _mrp_pair_grads

        psi_i = rng.normal(scale=1.5, size=(self.N, 3))
        psi_j = rng.normal(scale=1.5, size=(self.N, 3))
        q_ij = random_quats(rng, self.N)
        loss0, grad, _ = _mrp_pair_grads(psi_i, psi_j, q_ij)
        norms = np.linalg.norm(grad, axis=-1)
        scale = np.where(norms > 0.1, 0.1 / np.where(norms > 0.1, norms, 1.0), 1.0)
        stepped = psi_i - 1e-3 * scale[:, None] * grad
        loss1, _, _ = _mrp_pair_grads(stepped, psi_j, q_ij)
        assert np.all(loss1 <= loss0 + 1e-12)

    def test_so3_pair_descent(self, rng):
        r_i = random_matrices(rng, self.N)
        r_j = random_matrices(rng, self.N)
        rel = rotmath.quat_to_matrix(random_quats(rng, self.N))
        r = rotmath.log_so3(np.swapaxes(r_i, -1, -2) @ rel @ r_j)
        loss0 = np.sum(r * r, axis=-1)
        stepped = r_i @ rotmath.exp_so3(1e-3 * r)
        r1 = rotmath.log_so3(np.swapaxes(stepped, -1, -2) @ rel @ r_j)
        loss1 = np.sum(r1 * r1, axis=-1)
        assert np.all(loss1 <= loss0 + 1e-12)

    def test_quaternion_pair_descent(self, rng):
        q_i = random_quats(rng, self.N)
        q_t = random_quats(rng, self.N)
        d = np.sum(q_i * q_t, axis=-1)
        loss0 = 1.0 - d * d
        stepped = q_i + 1e-3 * 2.0 * d[:, None] * q_t
        stepped /= np.linalg.norm(stepped, axis=-1, keepdims=True)
        d1 = np.sum(stepped * q_t, axis=-1)
        assert np.all(1.0 - d1 * d1 <= loss0 + 1e-12)


class TestGaugeCovariance:
    def transformed_env(self, env, s):
        s_mat = rotmath.quat_to_matrix(s)
        rel = rotmath.quat_to_matrix(env.edge_quats)
        rel_t = rotmath.matrix_to_quat(
            np.einsum("ab,ebc,dc->ead", s_mat, rel, s_mat)
        )
        return RotationEnvironment(
            env.n_nodes,
            env.edge_index,
            rel_t,
            ground_truth=rotmath.quat_mul(s, env.ground_truth_quats),
        )

    def test_so3_step_commutes_with_global_rotation(self, rng):
        env = small_env(2)
        s = random_quats(rng, 1)[0]
        s_mat = rotmath.quat_to_matrix(s)
        env_t = self.transformed_env(env, s)
        cfg = OptimizerConfig("so3", batch_size=4, seed=1)
        est = initial_estimates(env, cfg, np.random.default_rng(11))
        est_t = EstimateSet("so3_matrix", np.einsum("ab,nbc->nac", s_mat, est.values))
        STEP_FUNCTIONS["so3"](est, env, cfg, np.random.default_rng(42))
        STEP_FUNCTIONS["so3"](est_t, env_t, cfg, np.random.default_rng(42))
        assert np.max(np.abs(est_t.values - s_mat @ est.values)) < 1e-9

    def test_quaternion_step_commutes_with_global_rotation(self, rng):
        env = small_env(2)
        s = random_quats(rng, 1)[0]
        env_t = self.transformed_env(env, s)
        cfg = OptimizerConfig("quaternion", batch_size=4, seed=1)
        est = initial_estimates(env, cfg, np.random.default_rng(11))
        est_t = EstimateSet("quaternion", rotmath.quat_mul(s, est.values))
        STEP_FUNCTIONS["quaternion"](est, env, cfg, np.random.default_rng(42))
        STEP_FUNCTIONS["quaternion"](est_t, env_t, cfg, np.random.default_rng(42))
        rotated = rotmath.quat_mul(s, est.values)
        dots = np.abs(np.sum(est_t.values * rotated, axis=1))
        assert np.max(np.abs(dots - 1.0)) < 1e-9


class TestAntipodeGeometry:
    def directions(self, psi_i, target):
        d_plus = rotmath.mrp_project(target) - psi_i
        d_minus = rotmath.mrp_project(-target) - psi_i
        return d_plus, d_minus

    def test_generic_configurations_not_antiparallel(self, rng):
        # the two candidate targets are collinear with the origin; away
        # from that line the pull directions are never exactly opposed
        for _ in range(100):
            psi_i = rng.normal(size=3)
            target = random_quats(rng, 1)[0]
            if min(1 + target[0], 1 - target[0]) < 1e-3:
                continue
            d_plus, d_minus = self.directions(psi_i, target)
            cross = np.linalg.norm(np.cross(d_plus, d_minus))
            if np.linalg.norm(np.cross(psi_i, rotmath.mrp_project(target))) > 1e-6:
                assert cross > 1e-12

    def test_between_candidates_is_antiparallel(self, rng):
        target = random_quats(rng, 1)[0]
        if target[0] < 0:
            target = -target
        t_plus = rotmath.mrp_project(target)
        t_minus = rotmath.mrp_project(-target)
        psi_i = 0.3 * t_plus + 0.7 * t_minus  # segment crosses the origin
        d_plus, d_minus = self.directions(psi_i, target)
        cos = np.dot(d_plus, d_minus) / (
            np.linalg.norm(d_plus) * np.linalg.norm(d_minus)
        )
        assert cos < -1.0 + 1e-12

    def test_outside_candidates_is_parallel(self, rng):
        target = random_quats(rng, 1)[0]
        if target[0] < 0:
            target = -target
        t_plus = rotmath.mrp_project(target)
        t_minus = rotmath.mrp_project(-target)
        psi_i = t_plus + 0.5 * (t_plus - t_minus)  # beyond the near candidate
        d_plus, d_minus = self.directions(psi_i, target)
        cos = np.dot(d_plus, d_minus) / (
            np.linalg.norm(d_plus) * np.linalg.norm(d_minus)
        )
        assert cos > 1.0 - 1e-12


class TestExpectedUpdate:
    def test_so3_critical_random_fixtures(self, rng):
        for _ in range(20):
            gt = random_matrices(rng, 3)
            r0 = random_matrices(rng, 1)[0]
            omega = random_unit_vectors(rng)
            theta = rng.uniform(-np.pi, np.pi)
            env, est = build_critical_env(omega, theta, r0, gt)
            for i in range(3):
                assert np.linalg.norm(expected_update(est, env, i, "so3")) < 1e-9

    def test_mrp_critical_only_at_identity_offset(self, rng):
        env, est, _ = mrp_critical_fixture(rng)
        assert all(
            np.linalg.norm(expected_update(est, env, i, "mrp")) < 1e-12
            for i in range(3)
        )
        hits = 0
        for _ in range(20):
            axis = random_unit_vectors(rng)
            angle = rng.uniform(np.radians(10), np.radians(170))
            env, est, _ = mrp_critical_fixture(rng, r0=rotmath.exp_so3(axis * angle))
            if max(
                np.linalg.norm(expected_update(est, env, i, "mrp")) for i in range(3)
            ) > 1e-3:
                hits += 1
        assert hits == 20

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_requires_the_algorithms_parameterization(self, algorithm):
        # the same ValueError its step raises; estimates are never converted
        env = small_env()
        other = "mrp" if algorithm == "so3" else "so3_matrix"
        est = EstimateSet.identity(env.n_nodes, other)
        with pytest.raises(ValueError, match="-parameterized estimates"):
            expected_update(est, env, 0, algorithm)
        with pytest.raises(ValueError, match="-parameterized estimates"):
            STEP_FUNCTIONS[algorithm](est, env, OptimizerConfig(algorithm),
                                      np.random.default_rng(0))

    def test_requires_known_algorithm(self, rng):
        env = small_env()
        est = EstimateSet.identity(env.n_nodes, "mrp")
        with pytest.raises(ValueError):
            expected_update(est, env, 0, "bogus")

    @pytest.mark.parametrize("i", [-1, 12])
    def test_node_outside_the_graph_is_value_error(self, i):
        # i = -1 once averaged an empty neighbor slice to nan, and i = N raised IndexError
        env = small_env()
        est = EstimateSet.identity(env.n_nodes, "mrp")
        with pytest.raises(ValueError, match=rf"i = {i} .* N = 12"):
            expected_update(est, env, i, "mrp")


class TestRunAveraging:
    def test_zero_iters_gives_initial_checkpoint_only(self):
        env = small_env()
        cfg = OptimizerConfig("mrp", max_iters=0, seed=1)
        _, trace = run_averaging(env, cfg)
        assert len(trace) == 1 and trace[0].step == 0

    def test_deterministic(self):
        env = small_env()
        cfg = OptimizerConfig("so3", max_iters=500, seed=3, checkpoint_every=100)
        est_a, trace_a = run_averaging(env, cfg)
        est_b, trace_b = run_averaging(env, cfg)
        assert np.array_equal(est_a.values, est_b.values)
        for ra, rb in zip(trace_a, trace_b):
            assert ra == rb

    def test_final_step_recorded(self):
        env = small_env()
        cfg = OptimizerConfig("quaternion", max_iters=250, seed=3, checkpoint_every=100)
        _, trace = run_averaging(env, cfg)
        assert [r.step for r in trace] == [0, 100, 200, 250]

    def test_identity_init(self):
        env = small_env()
        cfg = OptimizerConfig("mrp", max_iters=0, init="identity")
        est, _ = run_averaging(env, cfg)
        assert np.all(est.values == 0.0)

    def test_batch_size_capped_by_nodes(self):
        env = small_env()
        cfg = OptimizerConfig("mrp", batch_size=env.n_nodes + 1)
        with pytest.raises(ValueError, match="batch_size"):
            run_averaging(env, cfg)

    @pytest.mark.slow
    def test_mrp_regression_n10(self):
        # frozen baseline: on exact N=10 environments the mean pairwise
        # error never rises between checkpoints past 1K steps and ends
        # below a degree well before 50K; the ten runs step as one
        # ensemble, whose members equal their solo runs (TestRunEnsemble)
        envs = [generate_uniform_env(GeneratorConfig(n_nodes=10, k_neighbors=3, seed=seed))
                for seed in range(10)]
        cfgs = [OptimizerConfig("mrp", max_iters=50_000, seed=seed, checkpoint_every=1000)
                for seed in range(10)]
        good = 0
        for _, trace in run_averaging(envs, cfgs):
            errs = [r.ape_mean_deg for r in trace if r.step >= 1000]
            nonincreasing = all(
                errs[k + 1] <= errs[k] + 1e-6 for k in range(len(errs) - 1)
            )
            if nonincreasing and trace[-1].ape_mean_deg < 1.0:
                good += 1
        assert good >= 9


class TestRunEnsemble:
    @pytest.mark.parametrize("algorithm", ["so3", "quaternion", "mrp"])
    def test_members_equal_solo_runs(self, algorithm):
        # mixed node counts, three seeds on every environment
        envs = [small_env(0, n=12), small_env(1, n=20), small_env(2, n=9)]
        members = [(env, seed) for env in envs for seed in (0, 1, 2)]
        cfgs = [
            OptimizerConfig(algorithm, batch_size=4, max_iters=700, seed=seed,
                            checkpoint_every=200)
            for _, seed in members
        ]
        results = run_averaging([env for env, _ in members], cfgs)
        assert len(results) == len(members)
        for (env, _), cfg, (est, trace) in zip(members, cfgs, results):
            solo_est, solo_trace = run_averaging(env, cfg)
            assert np.array_equal(est.values, solo_est.values)
            assert trace == solo_trace

    def test_run_averaging_takes_an_ensemble(self):
        # interleaved members: two environments, each shared by two seeds
        a, b = small_env(0, n=12), small_env(1, n=20)
        envs = [a, b, a, b]
        cfgs = [
            OptimizerConfig("mrp", batch_size=4, max_iters=300, seed=seed,
                            checkpoint_every=100)
            for seed in (3, 4, 5, 6)
        ]
        results = run_averaging(envs, cfgs)
        assert len(results) == len(envs)
        for env, cfg, (est, trace) in zip(envs, cfgs, results):
            solo_est, solo_trace = run_averaging(env, cfg)
            assert np.array_equal(est.values, solo_est.values)
            assert trace == solo_trace

    def test_shared_environment_is_not_copied(self):
        env = small_env(0, n=12)
        graph = _JoinedGraph([env, env, env], batch_size=4)
        assert graph.nbr_ids is env.nbr_ids
        assert graph.nbr_quats is env.nbr_quats
        assert graph.nbr_mats is env.nbr_mats

    def test_members_differ_only_in_seed(self):
        env = small_env()
        cfgs = [OptimizerConfig("mrp", seed=0), OptimizerConfig("mrp", gamma=0.25, seed=1)]
        with pytest.raises(ValueError, match="seed"):
            run_averaging([env, env], cfgs)

    def test_one_config_per_environment(self):
        env = small_env()
        with pytest.raises(ValueError, match="one config"):
            run_averaging([env, env], [OptimizerConfig("mrp")])

    def test_batch_checked_for_every_member(self):
        big, tiny = small_env(0, n=12), small_env(1, n=4, k=2)
        cfgs = [OptimizerConfig("so3", batch_size=8, seed=s) for s in (0, 1)]
        with pytest.raises(ValueError, match="exceeds node count 4"):
            run_averaging([big, tiny], cfgs)


class TestBlockDraws:
    @pytest.mark.parametrize("batch_size", [1, 4, 9])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_member_does_not_depend_on_block_or_ensemble_size(
            self, algorithm, batch_size, monkeypatch):
        # block size 1 draws a lone run's batches one row at a time, the
        # others through the vectorized form; 250 steps end on a partial block;
        # batch 9 takes every node of the 9-node member, so Floyd's picks collide
        envs = [small_env(0, n=12), small_env(1, n=20), small_env(2, n=9),
                small_env(0, n=12), small_env(3, n=15)]
        cfgs = [OptimizerConfig(algorithm, batch_size=batch_size, max_iters=250, seed=seed,
                                checkpoint_every=100) for seed in (7, 1, 2, 3, 4)]
        runs = []
        for block in (1, 7, averaging._BLOCK):
            monkeypatch.setattr(averaging, "_BLOCK", block)
            runs += [run_averaging(envs[:size], cfgs[:size])[0] for size in (1, 2, 5)]
        (first_est, first_trace), *rest = runs
        for est, trace in rest:
            assert np.array_equal(est.values, first_est.values)
            assert trace == first_trace

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_direct_step_calls_draw_as_the_loop_does(self, algorithm):
        env = small_env(1, n=20)
        cfg = OptimizerConfig(algorithm, batch_size=3, max_iters=120, seed=5)
        rng = np.random.default_rng([cfg.seed, averaging._RUN_STREAM])
        est = initial_estimates(env, cfg, rng)
        for _ in range(cfg.max_iters):
            averaging.STEP_FUNCTIONS[algorithm](est, env, cfg, rng)
        assert np.array_equal(est.values, run_averaging(env, cfg)[0].values)

    @staticmethod
    def draws(n, b, steps):
        """Batches of two members on copies of one environment; the targets
        gathered are the neighbor slots themselves."""
        env = small_env(0, n=n)
        graph = _JoinedGraph([env, env], b)
        rngs = [np.random.default_rng(seed) for seed in (0, 1)]
        batches = averaging._batches(graph, rngs, steps, np.arange(graph.nbr_ids.size))
        ids, sel = (np.array(a) for a in zip(*batches))
        idx, j = np.split(ids, 2, axis=1)
        return env, idx.reshape(steps, 2, b), j.reshape(steps, 2, b), sel.reshape(steps, 2, b)

    @pytest.mark.parametrize("n, b", [(4, 4), (100, 8), (577, 64)])
    def test_batches_are_distinct_nodes_with_one_neighbor_each(self, n, b):
        env, idx, j, sel = self.draws(n, b, 2000)
        local = idx - np.array([[0], [n]])
        assert local.min() >= 0 and local.max() < n
        assert np.all(np.diff(np.sort(local, axis=-1), axis=-1) > 0)
        slot = sel - env.nbr_offsets[local]
        assert np.all(slot >= 0) and np.all(slot < env.nbr_counts[local])
        assert np.array_equal(j - np.array([[0], [n]]), env.nbr_ids[sel])

    @pytest.mark.parametrize("n, b, steps", [(100, 8, 20_000), (577, 64, 5000)])
    def test_node_inclusion_is_uniform(self, n, b, steps):
        _, idx, _, _ = self.draws(n, b, steps)
        counts = np.bincount(idx[:, 0].ravel(), minlength=n)
        # a node is in a batch with probability p = b / n; the counts'
        # variance is steps * p * (1 - p), so the scaled statistic is
        # about chi-square with n - 1 degrees of freedom
        p = b / n
        expected = steps * p
        stat = np.sum((counts - expected) ** 2) / (expected * (1.0 - p))
        df = n - 1
        # Wilson-Hilferty upper quantile at 1e-4 (z = 3.719)
        bound = df * (1.0 - 2.0 / (9 * df) + 3.719 * np.sqrt(2.0 / (9 * df))) ** 3
        assert stat < bound


class TestStepTable:
    @pytest.mark.parametrize("members", [1, 3])
    def test_loop_calls_the_table_entry_once_per_step(self, members, monkeypatch):
        # perfbench times steps by patching STEP_FUNCTIONS and counts
        # max_iters calls per run
        calls = []
        step = averaging.STEP_FUNCTIONS["quaternion"]

        def counting_step(*args):
            calls.append(args)
            return step(*args)

        monkeypatch.setitem(averaging.STEP_FUNCTIONS, "quaternion", counting_step)
        env = small_env()
        cfgs = [OptimizerConfig("quaternion", max_iters=37, seed=seed, checkpoint_every=10)
                for seed in range(members)]
        run_averaging([env] * members, cfgs)
        assert len(calls) == 37


@pytest.mark.slow
class TestDrift:
    # a million individual pair updates must not erode the representation
    # invariants
    STEPS = 500_000
    BATCH = 2

    def run_steps(self, algorithm, step_fn):
        env = small_env(0, n=4, k=2)
        cfg = OptimizerConfig(algorithm, batch_size=self.BATCH, seed=0)
        rng = np.random.default_rng(cfg.seed)
        est = initial_estimates(env, cfg, rng)
        for _ in range(self.STEPS):
            step_fn(est, env, cfg, rng)
        return est

    def test_so3_orthonormality(self):
        est = self.run_steps("so3", STEP_FUNCTIONS["so3"])
        mats = est.values
        gram = np.swapaxes(mats, -1, -2) @ mats
        assert np.max(np.abs(gram - np.eye(3))) < 1e-6
        assert np.max(np.abs(np.linalg.det(mats) - 1.0)) < 1e-6

    def test_quaternion_unit_norm(self):
        est = self.run_steps("quaternion", STEP_FUNCTIONS["quaternion"])
        assert np.max(np.abs(np.linalg.norm(est.values, axis=1) - 1.0)) < 1e-9

    def test_mrp_finite(self):
        est = self.run_steps("mrp", STEP_FUNCTIONS["mrp"])
        assert np.all(np.isfinite(est.values))


class TestEstimateSet:
    def test_roundtrip_between_parameterizations(self, rng):
        quats = random_quats(rng, 20)
        for param in ("so3_matrix", "quaternion", "mrp"):
            est = EstimateSet.from_quaternions(quats, param)
            mats = est.to_matrices()
            assert np.max(np.abs(mats - rotmath.quat_to_matrix(quats))) < 1e-12

    def test_mrp_values_inside_unit_ball(self, rng):
        est = EstimateSet.from_quaternions(random_quats(rng, 500), "mrp")
        assert np.max(np.linalg.norm(est.values, axis=1)) <= 1.0 + 1e-12

    def test_identity(self):
        for param in ("so3_matrix", "quaternion", "mrp"):
            est = EstimateSet.identity(5, param)
            assert np.max(np.abs(est.to_matrices() - np.eye(3))) < 1e-15

    def test_bad_parameterization(self):
        with pytest.raises(ValueError):
            EstimateSet("euler", np.zeros((3, 3)))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig("mrp", gamma=0.0).validate()
        with pytest.raises(ValueError):
            OptimizerConfig("mrp", eta=-1.0).validate()
        with pytest.raises(ValueError):
            OptimizerConfig("nope").validate()
        with pytest.raises(ValueError):
            OptimizerConfig("mrp", init="zeros").validate()
