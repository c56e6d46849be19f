import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_matrices, random_quats, random_unit_vectors
from rotavg import metrics, rotmath
from rotavg.averaging import EstimateSet, OptimizerConfig, run_averaging
from rotavg.envgraph import GeneratorConfig, RotationEnvironment, generate_uniform_env
from rotavg.metrics import (
    DegenerateAlignment,
    TraceRecord,
    absolute_error,
    align_gauge,
    avg_pairwise_error,
    evaluate,
    nauc,
    relative_edge_error,
    steps_to_threshold,
)


def record(step, ape):
    return TraceRecord(step, ape, ape, 0.0, 0.0)


def pair_loop(est, gt):
    """Reference pairwise error: the angle of every pair i < j, one row of
    pairs at a time."""
    angles = []
    for i in range(len(est) - 1):
        rel_est = est[i] @ np.swapaxes(est[i + 1:], 1, 2)
        rel_gt = gt[i] @ np.swapaxes(gt[i + 1:], 1, 2)
        tr = np.einsum("nab,nab->n", rel_est, rel_gt)
        angles.append(np.degrees(np.arccos(np.clip((tr - 1.0) / 2.0, -1.0, 1.0))))
    ang = np.concatenate(angles)
    return np.mean(ang), np.median(ang)


def edge_loop(est, env):
    """Reference relative error: each directed edge's angle, one at a time."""
    ang = [np.degrees(np.arccos(np.clip((np.trace(est[i].T @ q @ est[j]) - 1) / 2, -1, 1)))
           for (i, j), q in zip(env.edge_index, env.edge_mats)]
    return np.mean(ang), np.median(ang)


def node_loop(est, gt):
    """Reference absolute error: each node's angle after align_gauge, one at a time."""
    s = align_gauge(est, gt)
    ang = [np.degrees(np.arccos(np.clip((np.trace((e @ s).T @ r) - 1) / 2, -1, 1)))
           for e, r in zip(est, gt)]
    return np.mean(ang), np.median(ang)


def path_env(rng, n, quats=None):
    """An n-node path with n - 1 edges (Haar unless ``quats`` is given)."""
    edges = [[i, i + 1] for i in range(n - 1)]
    return RotationEnvironment(n, edges, random_quats(rng, n - 1) if quats is None else quats)


def dense_pairwise(est, gt):
    """Reference pairwise error from the full N x N trace matrix."""
    n = len(est)
    g = (np.swapaxes(est, 1, 2) @ gt).reshape(n, 9)
    iu, ju = np.triu_indices(n, 1)
    tr = (g @ g.T)[iu, ju]
    ang = np.degrees(np.arccos(np.clip((tr - 1.0) / 2.0, -1.0, 1.0)))
    return np.mean(ang), np.median(ang)


@pytest.fixture
def partition_sizes(monkeypatch):
    """Sizes of the arrays handed to np.partition while the fixture is live."""
    sizes = []
    partition = np.partition

    def spy(a, kth, *args, **kwargs):
        sizes.append(np.size(a))
        return partition(a, kth, *args, **kwargs)

    monkeypatch.setattr(np, "partition", spy)
    return sizes


class TestAvgPairwiseError:
    def test_gauge_rotated_truth_is_exact(self, rng):
        gt = random_matrices(rng, 20)
        s = random_matrices(rng, 1)[0]
        mean, median = avg_pairwise_error(gt @ s, gt)
        assert mean < 1e-6 and median < 1e-6

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_nodes_is_value_error(self, n):
        with pytest.raises(ValueError, match=f"at least 2 nodes, got {n}"):
            avg_pairwise_error(np.zeros((n, 3, 3)), np.zeros((n, 3, 3)))

    def test_two_node_closed_form(self, rng):
        gt = random_matrices(rng, 2)
        theta = 0.4
        est = gt.copy()
        est[1] = rotmath.exp_so3(theta * random_unit_vectors(rng)) @ est[1]
        mean, median = avg_pairwise_error(est, gt)
        assert abs(mean - np.degrees(theta)) < 1e-9
        assert abs(median - np.degrees(theta)) < 1e-9

    def test_invariant_under_global_rotation(self, rng):
        gt = random_matrices(rng, 15)
        est = random_matrices(rng, 15)
        s = random_matrices(rng, 1)[0]
        a = avg_pairwise_error(est, gt)
        b = avg_pairwise_error(est @ s, gt)
        assert_allclose(a, b, atol=1e-9)

    def test_accepts_estimate_set(self, rng):
        quats = random_quats(rng, 8)
        est = EstimateSet.from_quaternions(quats, "mrp")
        gt = rotmath.quat_to_matrix(quats)
        mean, _ = avg_pairwise_error(est, gt)
        assert mean < 1e-6

    # 300 and 302 nodes span several row panels and give an even and an odd
    # pair count; 2 and 3 nodes have one and three pairs; 181 nodes are the
    # most whose pairs all fit the median sample, 182 the fewest that do not
    @pytest.mark.parametrize("n", [2, 3, 181, 182, 300, 302])
    def test_matches_pair_loop(self, rng, n):
        est = random_matrices(rng, n)
        gt = random_matrices(rng, n)
        want = pair_loop(est, gt)
        assert_allclose(avg_pairwise_error(est, gt), want, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("n", [300, 302])
    def test_missed_bracket_takes_a_second_pass(self, rng, monkeypatch, n):
        # with no margin around the sampled middle rank, the bracket holds about
        # one cosine and misses the middle rank of all the pairs, so every pair
        # is read again; 300 and 302 nodes give an even and an odd pair count
        passes = []
        panels = metrics._cosine_panels
        monkeypatch.setattr(metrics, "_SAMPLE_MARGIN", 0)
        monkeypatch.setattr(metrics, "_cosine_panels", lambda *a: passes.append(None) or panels(*a))
        est = random_matrices(rng, n)
        gt = random_matrices(rng, n)
        got = avg_pairwise_error(est, gt)
        assert len(passes) == 2
        assert_allclose(got, pair_loop(est, gt), rtol=0, atol=1e-9)

    def test_median_selected_inside_bracket(self, rng, partition_sizes):
        # Haar estimates (start 0), estimates near convergence (start n), and
        # estimates whose error depends on the node index (start n // 2)
        for n in (302, 2000):
            for start in (0, n, n // 2):
                gt = random_matrices(rng, n)
                est = rotmath.exp_so3(1e-3 * random_unit_vectors(rng, n)) @ gt
                est[start:] = random_matrices(rng, n - start)
                partition_sizes.clear()
                avg_pairwise_error(est @ random_matrices(rng, 1)[0], gt)
                assert len(partition_sizes) == 1, (n, start)
                assert 0 < partition_sizes[0] < n * (n - 1) // 20, (n, start)

    def test_memory_stays_within_panels(self, rng):
        # the N(N-1)/2 pair values alone would take 16 MB
        est, gt = random_matrices(rng, 2000), random_matrices(rng, 2000)
        tracemalloc.start()
        try:
            avg_pairwise_error(est, gt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20

    @pytest.mark.parametrize("n", [100, 577, 2000])
    def test_matches_dense_formula(self, rng, n):
        est = random_matrices(rng, n)
        gt = random_matrices(rng, n)
        want = dense_pairwise(est, gt)
        assert_allclose(avg_pairwise_error(est, gt), want, rtol=0, atol=1e-12)

    def test_round_off_convergence_takes_one_pass(self, rng, monkeypatch):
        # 1e-8 rad from the truth, the pair cosines tie within a few ulps of 1,
        # where the sample's einsum and the panels' matmul round them apart
        passes = []
        panels = metrics._cosine_panels
        monkeypatch.setattr(metrics, "_cosine_panels", lambda *a: passes.append(None) or panels(*a))
        for n in (577, 2000):
            gt = random_matrices(rng, n)
            est = rotmath.exp_so3(1e-8 * random_unit_vectors(rng, n)) @ gt
            passes.clear()
            got = avg_pairwise_error(est, gt)
            assert len(passes) == 1, n
            assert_allclose(got, dense_pairwise(est, gt), rtol=0, atol=1e-9)
            # the loop's relative rotations round each near-zero angle on their own
            assert_allclose(got, pair_loop(est, gt), rtol=0, atol=1e-7)

    def test_equal_traces_fall_back_to_whole_array(self, partition_sizes):
        # a quarter turn and the identity have exact entries, so every
        # pair trace is exactly 3 and the bracket around the median is empty
        n = 200
        quarter = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        gt = np.tile(np.eye(3), (n, 1, 1))
        est = gt @ quarter
        want = pair_loop(est, gt)
        got = avg_pairwise_error(est, gt)
        assert partition_sizes == [n * (n - 1) // 2]
        assert_allclose(got, want, rtol=0, atol=1e-9)
        assert got == (0.0, 0.0)

    def test_non_finite_estimate_gives_nan(self, rng):
        for n in (20, 300):  # every pair in one bracket, and a sampled bracket
            est = random_matrices(rng, n)
            gt = random_matrices(rng, n)
            est[7, 1, 2] = np.nan
            mean, median = avg_pairwise_error(est, gt)
            assert np.isnan(mean) and np.isnan(median)
            assert all(np.isnan(pair_loop(est, gt)))


class TestRelativeEdgeError:
    def test_exact_env_at_truth_is_zero(self):
        env = generate_uniform_env(GeneratorConfig(n_nodes=15, k_neighbors=3, seed=2))
        mean, median = relative_edge_error(env.ground_truth, env)
        assert mean < 1e-6 and median < 1e-6

    def test_single_edge_perturbation(self, rng):
        quats = random_quats(rng, 2)
        gt = rotmath.quat_to_matrix(quats)
        rel = rotmath.matrix_to_quat(gt[0] @ gt[1].T)
        env = RotationEnvironment(2, [[0, 1]], rel[None], ground_truth=quats)
        theta = 0.25
        est = gt.copy()
        est[0] = est[0] @ rotmath.exp_so3(theta * random_unit_vectors(rng))
        mean, median = relative_edge_error(est, env)
        assert abs(mean - np.degrees(theta)) < 1e-9
        assert abs(median - np.degrees(theta)) < 1e-9

    @pytest.mark.parametrize("n", [40, 41])  # 39 and 40 edges
    def test_matches_edge_loop(self, rng, n):
        env = path_env(rng, n)
        est = random_matrices(rng, n)
        assert_allclose(relative_edge_error(est, env), edge_loop(est, env), rtol=0, atol=1e-12)

    def test_np_take_gathers_give_the_fancy_index_bits(self, rng):
        env = generate_uniform_env(GeneratorConfig(n_nodes=300, k_neighbors=4, seed=6))
        est = random_matrices(rng, 300)
        i, j = env.edge_index.T
        cosines = np.einsum("eab,eab->e", est[i], env.edge_mats @ est[j]) / 2 - 0.5
        assert relative_edge_error(est, env) == metrics._mean_median([cosines])

    def test_tied_angles_match_edge_loop(self, rng):
        # at the identity, 20 edges share each of two angles, and the median
        # is the mean of the two
        quats = random_quats(rng, 2)
        env = path_env(rng, 41, np.repeat(quats, 20, axis=0))
        est = np.tile(np.eye(3), (41, 1, 1))
        want = edge_loop(est, env)
        m = rotmath.quat_to_matrix(quats)
        tr = m[:, 0, 0] + m[:, 1, 1] + m[:, 2, 2]
        angles = np.degrees(np.arccos(np.minimum(np.maximum((tr - 1.0) / 2.0, -1.0), 1.0)))
        assert want[1] == pytest.approx(angles.mean())
        assert_allclose(relative_edge_error(est, env), want, rtol=0, atol=1e-12)

    def test_invariant_under_global_rotation(self, rng):
        env = generate_uniform_env(GeneratorConfig(n_nodes=15, k_neighbors=3, seed=4))
        est = random_matrices(rng, 15)
        s = random_matrices(rng, 1)[0]
        assert_allclose(
            relative_edge_error(est, env),
            relative_edge_error(est @ s, env),
            atol=1e-9,
        )

    def test_zero_iff_pairwise_zero_on_exact_env(self, rng):
        env = generate_uniform_env(GeneratorConfig(n_nodes=12, k_neighbors=3, seed=6))
        s = random_matrices(rng, 1)[0]
        est = env.ground_truth @ s
        assert relative_edge_error(est, env)[0] < 1e-6
        assert avg_pairwise_error(est, env.ground_truth)[0] < 1e-6
        est = random_matrices(rng, 12)
        assert relative_edge_error(est, env)[0] > 1e-3
        assert avg_pairwise_error(est, env.ground_truth)[0] > 1e-3


class TestAlignGauge:
    def test_identity_for_perfect_estimates(self, rng):
        gt = random_matrices(rng, 10)
        assert np.max(np.abs(align_gauge(gt, gt) - np.eye(3))) < 1e-12

    def test_recovers_known_gauge(self, rng):
        gt = random_matrices(rng, 10)
        s0 = random_matrices(rng, 1)[0]
        est = gt @ s0.T
        assert np.max(np.abs(align_gauge(est, gt) - s0)) < 1e-9

    def test_chordal_optimality_against_random_search(self, rng):
        gt = random_matrices(rng, 3)
        est = np.stack([
            m @ rotmath.exp_so3(0.3 * random_unit_vectors(rng)) for m in gt
        ])
        s = align_gauge(est, gt)

        def chordal(rot):
            return np.sum((gt - est @ rot) ** 2)

        best = chordal(s)
        candidates = random_matrices(rng, 1000)
        values = np.array([chordal(c) for c in candidates])
        assert best <= values.min() + 1e-9

    def test_degenerate_accumulator_raises(self):
        gt = np.stack([np.eye(3), np.eye(3)])
        est = np.stack([np.eye(3), rotmath.exp_so3(np.array([np.pi, 0, 0]))])
        # M = I + diag(1,-1,-1) is rank one
        with pytest.raises(DegenerateAlignment):
            align_gauge(est, gt)


class TestAbsoluteError:
    def test_zero_up_to_gauge(self, rng):
        gt = random_matrices(rng, 12)
        s = random_matrices(rng, 1)[0]
        mean, median = absolute_error(gt @ s, gt)
        assert mean < 1e-6 and median < 1e-6

    def test_single_perturbed_node(self, rng):
        gt = random_matrices(rng, 100)
        est = gt.copy()
        theta = np.radians(10.0)
        est[0] = rotmath.exp_so3(theta * random_unit_vectors(rng)) @ est[0]
        mean, median = absolute_error(est, gt)
        assert abs(mean - 10.0 / 100.0) < 0.2
        assert median < 0.2

    @pytest.mark.parametrize("n", [40, 41])
    def test_matches_node_loop(self, rng, n):
        est, gt = random_matrices(rng, n), random_matrices(rng, n)
        assert_allclose(absolute_error(est, gt), node_loop(est, gt), rtol=0, atol=1e-12)

    def test_tied_angles_match_node_loop(self, rng):
        # G_i takes two values, 20 nodes each, so the angles take two values
        gt = np.tile(np.eye(3), (40, 1, 1))
        est = np.repeat(random_matrices(rng, 2), 20, axis=0)
        assert_allclose(absolute_error(est, gt), node_loop(est, gt), rtol=0, atol=1e-12)

    def test_invariant_to_estimate_gauge(self, rng):
        gt = random_matrices(rng, 9)
        est = np.stack([
            m @ rotmath.exp_so3(0.1 * random_unit_vectors(rng)) for m in gt
        ])
        s = random_matrices(rng, 1)[0]
        assert_allclose(absolute_error(est, gt), absolute_error(est @ s, gt), atol=1e-9)

    def test_falls_back_to_identity_on_degenerate(self):
        gt = np.stack([np.eye(3), np.eye(3)])
        half_turn = rotmath.exp_so3(np.array([np.pi, 0, 0]))
        est = np.stack([np.eye(3), half_turn])
        mean, median = absolute_error(est, gt)
        assert abs(mean - 90.0) < 1e-9  # S = I leaves errors {0, 180}


class TestNauc:
    def test_constant_curve(self):
        trace = [record(s, 7.5) for s in (0, 100, 200, 400)]
        assert abs(nauc(trace) - 7.5) < 1e-12

    def test_linear_decay(self):
        trace = [record(s, 12.0 * (1 - s / 1000)) for s in range(0, 1001, 100)]
        assert abs(nauc(trace) - 6.0) < 1e-12

    def test_linear_in_curve(self, rng):
        steps = np.arange(0, 2001, 100)
        errs = rng.uniform(0.1, 30.0, steps.size)
        t1 = [record(s, e) for s, e in zip(steps, errs)]
        t3 = [record(s, 3.0 * e) for s, e in zip(steps, errs)]
        assert abs(nauc(t3) - 3.0 * nauc(t1)) < 1e-9

    def test_refinement_stability_on_benchmark_trace(self):
        # trapezoids are exact on a chord: a midpoint inserted on the chord
        # between consecutive checkpoints of a real trace leaves nAUC as it is
        env = generate_uniform_env(GeneratorConfig(n_nodes=20, k_neighbors=3, seed=1))
        cfg = OptimizerConfig("mrp", max_iters=4000, seed=1, checkpoint_every=50)
        _, dense = run_averaging(env, cfg)
        sparse = dense[::2]
        if sparse[-1].step != dense[-1].step:
            sparse = sparse + [dense[-1]]
        refined = [sparse[0]]
        for a, b in zip(sparse, sparse[1:]):
            refined += [record((a.step + b.step) / 2, (a.ape_mean_deg + b.ape_mean_deg) / 2), b]
        assert len(refined) == 2 * len(sparse) - 1
        assert abs(nauc(refined) - nauc(sparse)) <= 1e-12 * nauc(sparse)

    def test_single_checkpoint_is_constant(self):
        assert nauc([record(0, 3.0)]) == 3.0

    def test_requires_ground_truth(self):
        with pytest.raises(ValueError):
            nauc([TraceRecord(0, None, None, 1.0, 1.0)])


class TestStepsToThreshold:
    def test_starts_below(self):
        trace = [record(0, 2.0), record(10, 1.0)]
        assert steps_to_threshold(trace) == 0

    def test_crossing(self):
        trace = [record(0, 50.0), record(100, 8.0), record(200, 4.9), record(300, 1.0)]
        assert steps_to_threshold(trace) == 200

    def test_never(self):
        trace = [record(s, 10.0) for s in range(0, 500, 100)]
        assert steps_to_threshold(trace) is None
        assert abs(nauc(trace) - 10.0) < 1e-12


class TestEvaluate:
    def test_with_ground_truth(self):
        env = generate_uniform_env(GeneratorConfig(n_nodes=10, k_neighbors=3, seed=3))
        rec = evaluate(env.ground_truth, env, step=17)
        assert rec.step == 17
        assert rec.ape_mean_deg < 1e-6
        assert rec.rel_mean_deg < 1e-6
        assert rec.abs_mean_deg < 1e-6

    def test_without_ground_truth(self, rng):
        env = generate_uniform_env(GeneratorConfig(n_nodes=10, k_neighbors=3, seed=3))
        bare = RotationEnvironment(env.n_nodes, env.edge_index, env.edge_quats)
        rec = evaluate(random_matrices(rng, 10), bare, step=0)
        assert rec.ape_mean_deg is None
        assert rec.abs_mean_deg is None
        assert rec.rel_mean_deg > 0
