import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import (build_critical_env, evenly_spaced_rotations, geodesic_distance,
                      neighborhood_of, random_matrices, random_unit_vectors)
from rotavg import rotmath
from rotavg.envgraph import (
    ConnectivityFailure,
    GeneratorConfig,
    RotationEnvironment,
    generate_uniform_env,
)


def env_arrays(env):
    return (env.edge_index, env.edge_quats, env.ground_truth_quats)


class TestGenerator:
    def test_deterministic(self):
        cfg = GeneratorConfig(n_nodes=100, k_neighbors=3, seed=7)
        a, b = generate_uniform_env(cfg), generate_uniform_env(cfg)
        for x, y in zip(env_arrays(a), env_arrays(b)):
            assert np.array_equal(x, y)

    def test_two_nodes_single_edge(self):
        env = generate_uniform_env(GeneratorConfig(n_nodes=2, k_neighbors=1, seed=1))
        assert env.n_edges == 1
        r = env.ground_truth
        rel = rotmath.quat_to_matrix(env.edge_quats[0])
        i, j = env.edge_index[0]
        assert_allclose(rel, r[i] @ r[j].T, atol=1e-12)
        assert len(neighborhood_of(env, 0)) == 1
        assert len(neighborhood_of(env, 1)) == 1

    @pytest.mark.parametrize("seed", range(50))
    def test_invariants_sweep(self, seed):
        env = generate_uniform_env(GeneratorConfig(n_nodes=30, k_neighbors=3, seed=seed))
        n = env.n_nodes
        i, j = env.edge_index[:, 0], env.edge_index[:, 1]
        assert i.min() >= 0 and j.min() >= 0 and max(i.max(), j.max()) < n
        assert np.all(i != j)
        # exact edge consistency: R(q_i_j) R_j = R_i
        rel = rotmath.quat_to_matrix(env.edge_quats)
        assert np.max(np.abs(rel @ env.ground_truth[j] - env.ground_truth[i])) < 1e-9
        # reverse lookup is the conjugate
        for a, b, q in list(zip(i, j, env.edge_quats))[:10]:
            back = dict(
                (nbr, quat) for nbr, quat in neighborhood_of(env, int(b))
            )[int(a)]
            assert_allclose(back, rotmath.quat_conjugate(q), atol=1e-12)

    def test_edges_are_union_of_directed_knn(self):
        cfg = GeneratorConfig(n_nodes=40, k_neighbors=3, seed=11)
        env = generate_uniform_env(cfg)
        mats = env.ground_truth
        d = geodesic_distance(mats[:, None], mats[None, :])
        np.fill_diagonal(d, np.inf)
        k = cfg.k_neighbors
        expected = set()
        for a in range(cfg.n_nodes):
            for b in np.argpartition(d[a], k - 1)[:k]:
                expected.add((min(a, int(b)), max(a, int(b))))
        got = {(int(a), int(b)) for a, b in env.edge_index}
        assert got == expected

    def test_knn_distance_dominance(self):
        cfg = GeneratorConfig(n_nodes=25, k_neighbors=3, seed=2)
        env = generate_uniform_env(cfg)
        mats = env.ground_truth
        d = geodesic_distance(mats[:, None], mats[None, :])
        np.fill_diagonal(d, np.inf)
        for a in range(cfg.n_nodes):
            near = np.argpartition(d[a], cfg.k_neighbors - 1)[: cfg.k_neighbors]
            rest = np.setdiff1d(np.arange(cfg.n_nodes), np.append(near, a))
            assert d[a, near].max() <= d[a, rest].min() + 1e-12

    def test_neighborhood_symmetry(self):
        env = generate_uniform_env(GeneratorConfig(n_nodes=30, k_neighbors=3, seed=5))
        for a in range(env.n_nodes):
            for b, _ in neighborhood_of(env, a):
                assert a in [x for x, _ in neighborhood_of(env, b)]

    def test_neighborhood_orientation(self):
        env = generate_uniform_env(GeneratorConfig(n_nodes=20, k_neighbors=3, seed=9))
        r = env.ground_truth
        for a in range(env.n_nodes):
            for b, q in neighborhood_of(env, a):
                assert_allclose(rotmath.quat_to_matrix(q) @ r[b], r[a], atol=1e-9)

    def test_neighborhood_of_range_check(self):
        env = generate_uniform_env(GeneratorConfig(n_nodes=5, k_neighbors=2, seed=1))
        with pytest.raises(IndexError):
            neighborhood_of(env, 5)

    def test_connectivity_failure(self):
        # 1-NN union graphs on 60 nodes splinter into many components
        with pytest.raises(ConnectivityFailure):
            generate_uniform_env(GeneratorConfig(n_nodes=60, k_neighbors=1, seed=3))

    def test_epsilon_mode_complete_graph(self):
        cfg = GeneratorConfig(
            n_nodes=12, seed=4, neighborhood_mode="epsilon", epsilon=np.pi + 0.1
        )
        env = generate_uniform_env(cfg)
        assert env.n_edges == 12 * 11 // 2

    def test_epsilon_mode_filters_by_distance(self):
        cfg = GeneratorConfig(
            n_nodes=40, seed=8, neighborhood_mode="epsilon", epsilon=1.9
        )
        env = generate_uniform_env(cfg)
        mats = env.ground_truth
        i, j = env.edge_index[:, 0], env.edge_index[:, 1]
        d = geodesic_distance(mats[i], mats[j])
        assert np.all(d < cfg.epsilon)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GeneratorConfig(n_nodes=1).validate()
        with pytest.raises(ValueError):
            GeneratorConfig(n_nodes=5, k_neighbors=0).validate()
        with pytest.raises(ValueError):
            GeneratorConfig(n_nodes=5, neighborhood_mode="epsilon").validate()


def angle_rule_pairs(cfg, mats):
    """Neighbor pairs by the angle rule, the oracle for the generator: the
    k smallest pair angles of each node, or every pair angle below epsilon."""
    n = len(mats)
    flat = mats.reshape(n, 9)
    angle = np.arccos(np.minimum(np.maximum((flat @ flat.T - 1.0) / 2.0, -1.0), 1.0))
    np.fill_diagonal(angle, np.inf)
    if cfg.neighborhood_mode == "knn":
        k = min(cfg.k_neighbors, n - 1)
        rows = np.repeat(np.arange(n), k)
        cols = np.argpartition(angle, k - 1, axis=1)[:, :k].reshape(-1)
    else:
        rows, cols = np.nonzero(angle < cfg.epsilon)
    return {(min(a, b), max(a, b)) for a, b in zip(rows.tolist(), cols.tolist())}


class TestNeighborRule:
    """The generator ranks pairs by trace; its edges are the angle rule's."""

    @pytest.mark.parametrize("n, k, seed", [
        (2, 1, 0), (6, 1, 0), (6, 1, 1), (12, 1, 3), (12, 1, 7),
        *((n, k, seed) for n in (30, 100, 577) for k in (3, 4) for seed in range(3)),
    ])
    def test_knn(self, n, k, seed):
        cfg = GeneratorConfig(n_nodes=n, k_neighbors=k, seed=seed)
        env = generate_uniform_env(cfg)
        assert {tuple(e) for e in env.edge_index.tolist()} == \
            angle_rule_pairs(cfg, env.ground_truth)

    @pytest.mark.parametrize("n, epsilon", [
        (2000, 0.45), (200, 0.9), (40, 1.9), (40, np.pi), (12, np.pi), (40, 4.0),
    ])
    @pytest.mark.parametrize("seed", range(2))
    def test_epsilon(self, n, epsilon, seed):
        cfg = GeneratorConfig(n_nodes=n, seed=seed, neighborhood_mode="epsilon",
                              epsilon=epsilon)
        env = generate_uniform_env(cfg)
        expected = angle_rule_pairs(cfg, env.ground_truth)
        assert {tuple(e) for e in env.edge_index.tolist()} == expected
        if epsilon >= np.pi:
            assert len(expected) == n * (n - 1) // 2

    def test_connectivity_failure_names_the_sizing_setting(self):
        cfg = GeneratorConfig(n_nodes=30, seed=0, neighborhood_mode="epsilon", epsilon=0.9)
        with pytest.raises(ConnectivityFailure) as info:
            generate_uniform_env(cfg)
        assert "(n_nodes=30, epsilon=0.9, mode=epsilon)" in str(info.value)
        assert "k_neighbors" not in str(info.value)
        with pytest.raises(ConnectivityFailure) as info:
            generate_uniform_env(GeneratorConfig(n_nodes=60, k_neighbors=1, seed=3))
        assert str(info.value) == (
            "no connected graph after 100 attempts (n_nodes=60, k_neighbors=1, mode=knn); "
            "the config is likely too sparse")

    def test_edgeless_attempts_end_in_connectivity_failure(self):
        # no pair lies within 1e-300 rad, so every attempt draws no edge at all
        cfg = GeneratorConfig(n_nodes=10, seed=1, neighborhood_mode="epsilon", epsilon=1e-300)
        with pytest.raises(ConnectivityFailure) as info:
            generate_uniform_env(cfg)
        assert "(n_nodes=10, epsilon=1e-300, mode=epsilon)" in str(info.value)


class TestEnvironmentValidation:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.quats = rotmath.sample_uniform_rotation(rng, 4)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self loop"):
            RotationEnvironment(3, [[0, 0], [0, 1], [1, 2]], self.quats[:3])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            RotationEnvironment(3, [[0, 3], [0, 1], [1, 2]], self.quats[:3])

    def test_rejects_duplicate_pair(self):
        with pytest.raises(ValueError, match="duplicate"):
            RotationEnvironment(3, [[0, 1], [1, 0], [1, 2]], self.quats[:3])

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError, match="not connected"):
            RotationEnvironment(4, [[0, 1], [2, 3]], self.quats[:2])

    def test_node_count_beyond_edges_named_before_allocation(self):
        # numpy refuses an 8 TB arange at once, so a missing check fails fast
        with pytest.raises(ValueError, match=f"node count {10**12} exceeds edge count 1 "):
            RotationEnvironment(10**12, [[0, 1]], [[1.0, 0.0, 0.0, 0.0]])

    def test_rejects_non_unit_quaternion(self):
        bad = self.quats[:2].copy()
        bad[0] *= 0.9
        with pytest.raises(ValueError, match="non-unit"):
            RotationEnvironment(3, [[0, 1], [1, 2]], bad)

    def test_ground_truth_is_quaternions_only(self):
        mats = rotmath.quat_to_matrix(self.quats[:3])
        with pytest.raises(ValueError, match=r"ground_truth must have shape \(N, 4\)"):
            RotationEnvironment(3, [[0, 1], [1, 2]], self.quats[:2], ground_truth=mats)

    def test_arrays_frozen(self):
        env = RotationEnvironment(3, [[0, 1], [1, 2]], self.quats[:2])
        with pytest.raises(ValueError):
            env.edge_quats[0, 0] = 2.0

    def test_edge_mats_cached_and_frozen(self):
        env = RotationEnvironment(3, [[0, 1], [1, 2]], self.quats[:2])
        mats = env.edge_mats
        assert np.array_equal(mats, rotmath.quat_to_matrix(env.edge_quats))
        assert env.edge_mats is mats
        with pytest.raises(ValueError):
            mats[0, 0, 0] = 2.0


class TestCriticalEnv:
    def test_construction_identity(self, rng):
        # estimates differ from ground truth by exactly r0 * exp(...)
        gt = random_matrices(rng, 3)
        r0 = random_matrices(rng, 1)[0]
        omega = random_unit_vectors(rng)
        theta = 0.37
        env, est = build_critical_env(omega, theta, r0, gt)
        assert est.parameterization == "so3_matrix"
        for i in range(3):
            offset = rotmath.exp_so3((theta + i * 2 * np.pi / 3) * omega)
            assert_allclose(est.values[i], gt[i] @ r0 @ offset, atol=1e-12)

    def test_full_pairwise_edges(self, rng):
        gt = random_matrices(rng, 3)
        env, _ = build_critical_env(
            random_unit_vectors(rng), 0.1, np.eye(3), gt
        )
        assert env.n_edges == 3
        assert all(len(neighborhood_of(env, i)) == 2 for i in range(3))
        i, j = env.edge_index[:, 0], env.edge_index[:, 1]
        rel = rotmath.quat_to_matrix(env.edge_quats)
        assert np.max(np.abs(rel @ env.ground_truth[j] - env.ground_truth[i])) < 1e-9

    def test_evenly_spaced_rotations(self, rng):
        omega = random_unit_vectors(rng)
        theta = -0.8
        got = evenly_spaced_rotations(omega, theta, 3)
        for i in range(3):
            want = rotmath.exp_so3((theta - i * 2 * np.pi / 3) * omega)
            assert_allclose(got[i], want, atol=1e-13)
