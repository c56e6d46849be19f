"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The 1DSfM-dependent checks need the downloaded dataset and are skipped
with a notice when it is absent; point ROTAVG_1DSFM_DIR at a directory
holding per-scene edge lists (see README)."""

import importlib.util
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from conftest import (build_critical_env, evenly_spaced_rotations, random_matrices,
                      random_quats, random_unit_vectors, reparameterized)
from rotavg import io as envio
from rotavg import metrics, rotmath
from rotavg.averaging import (
    ALGORITHM_TABLE,
    EstimateSet,
    OptimizerConfig,
    expected_update,
    run_averaging,
)
from rotavg.cli import main as cli_main
from rotavg.envgraph import GeneratorConfig, generate_uniform_env

mrp_loss_and_grad = ALGORITHM_TABLE["mrp"].pair_grads

BUDGET = 300_000


def report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def test_criterion_1_projection_identities():
    rng = np.random.default_rng(1)
    q = rotmath.sample_uniform_rotation(rng, 100_000)
    q *= np.where(q[:, :1] < 0.0, -1.0, 1.0)
    q = q[q[:, 0] > 0.0]

    back = rotmath.mrp_unproject(rotmath.mrp_project(q))
    roundtrip = np.max(np.abs(back - q))

    keep = q[:, 0] < 1.0 - 1e-12  # antipode norm undefined at identity
    qk = q[keep]
    norms_pos = np.linalg.norm(rotmath.mrp_project(qk), axis=1)
    norms_neg = np.linalg.norm(qk[:, 1:] / (1.0 - qk[:, :1]), axis=1)
    product = np.max(np.abs(norms_pos * norms_neg - 1.0))

    report(
        1,
        "projection identities",
        roundtrip < 1e-10 and product < 1e-9,
        f"roundtrip {roundtrip:.2e}, antipode-product {product:.2e}",
    )


def test_criterion_2_so3_critical_points():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        gt = random_matrices(rng, 3)
        r0 = random_matrices(rng, 1)[0]
        omega = random_unit_vectors(rng)
        theta = rng.uniform(-np.pi, np.pi)
        env, est = build_critical_env(omega, theta, r0, gt)
        for i in range(3):
            worst = max(worst, np.linalg.norm(expected_update(est, env, i, "so3")))
    report(2, "so3 critical points", worst < 1e-9, f"worst norm {worst:.2e}")


def test_criterion_3_mrp_critical_points():
    rng = np.random.default_rng(3)

    worst_expect = 0.0
    worst_loss = 0.0
    for _ in range(25):
        omega = random_unit_vectors(rng)
        theta = rng.uniform(-np.pi, np.pi)
        gt = evenly_spaced_rotations(omega, theta, 3)
        env, est = build_critical_env(omega, -theta, np.eye(3), gt)
        est = reparameterized(est, "mrp")
        psi = est.values
        for i in range(3):
            worst_expect = max(
                worst_expect, np.linalg.norm(expected_update(est, env, i, "mrp"))
            )
            lo, hi = env.nbr_offsets[i], env.nbr_offsets[i + 1]
            for j, q_ij in zip(env.nbr_ids[lo:hi], env.nbr_quats[lo:hi]):
                loss, _, sign = mrp_loss_and_grad(psi[i], psi[j], q_ij)
                target = rotmath.quat_mul(q_ij, rotmath.mrp_unproject(psi[j]))
                other = np.sum(
                    (psi[i] - rotmath.mrp_project(-sign * target)) ** 2
                )
                worst_loss = max(
                    worst_loss, abs(loss - 1.0 / 3.0), abs(other - 3.0)
                )

    off_critical = 0
    for _ in range(100):
        omega = random_unit_vectors(rng)
        theta = rng.uniform(-np.pi, np.pi)
        axis = random_unit_vectors(rng)
        angle = rng.uniform(np.radians(10.0), np.radians(170.0))
        gt = evenly_spaced_rotations(omega, theta, 3)
        env, est = build_critical_env(omega, -theta, rotmath.exp_so3(axis * angle), gt)
        est = reparameterized(est, "mrp")
        if max(
            np.linalg.norm(expected_update(est, env, i, "mrp")) for i in range(3)
        ) > 1e-3:
            off_critical += 1

    report(
        3,
        "mrp critical points",
        worst_expect < 1e-12 and worst_loss < 1e-12 and off_critical >= 99,
        f"expect {worst_expect:.2e}, losses {worst_loss:.2e}, "
        f"off-critical {off_critical}/100",
    )


def _mrp_losses(psi_i, psi_j, q_ij):
    from rotavg.averaging import _mrp_pair_grads

    loss, _, _ = _mrp_pair_grads(psi_i, psi_j, q_ij)
    return loss


def test_criterion_4_gradient_correctness():
    rng = np.random.default_rng(4)
    h = 1e-6
    n = 0
    worst_mrp = 0.0
    while n < 10_000:
        m = 20_000
        psi_i = rng.normal(scale=1.2, size=(m, 3))
        psi_j = rng.normal(scale=1.2, size=(m, 3))
        q_ij = rotmath.sample_uniform_rotation(rng, m)
        target = rotmath.quat_mul(q_ij, rotmath.mrp_unproject(psi_j))
        w = target[:, 0]
        v = target[:, 1:]
        ok = (np.abs(1 + w) > 1e-3) & (np.abs(1 - w) > 1e-3)
        lp = np.sum((psi_i - v / (1 + w)[:, None]) ** 2, axis=1)
        lm = np.sum((psi_i + v / (1 - w)[:, None]) ** 2, axis=1)
        ok &= np.abs(lp - lm) > 1e-3  # stay off the antipode switch
        psi_i, psi_j, q_ij = psi_i[ok], psi_j[ok], q_ij[ok]

        from rotavg.averaging import _mrp_pair_grads

        _, grad, _ = _mrp_pair_grads(psi_i, psi_j, q_ij)
        fd = np.empty_like(grad)
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            fd[:, k] = (
                _mrp_losses(psi_i + e, psi_j, q_ij)
                - _mrp_losses(psi_i - e, psi_j, q_ij)
            ) / (2 * h)
        rel = np.linalg.norm(fd - 2.0 * grad, axis=1) / np.maximum(
            np.linalg.norm(2.0 * grad, axis=1), 1e-12
        )
        worst_mrp = max(worst_mrp, rel.max())
        n += len(psi_i)

    n = 0
    worst_quat = 0.0
    while n < 10_000:
        m = 20_000
        q_i = rotmath.sample_uniform_rotation(rng, m)
        q_t = rotmath.sample_uniform_rotation(rng, m)
        d = np.sum(q_i * q_t, axis=1)
        keep = np.abs(d) > 1e-3  # gradient vanishes at the antipodal saddle
        q_i, q_t, d = q_i[keep], q_t[keep], d[keep]
        grad = -2.0 * d[:, None] * q_t
        fd = np.empty_like(grad)
        for k in range(4):
            e = np.zeros(4)
            e[k] = h
            dp = np.sum((q_i + e) * q_t, axis=1)
            dm = np.sum((q_i - e) * q_t, axis=1)
            fd[:, k] = ((1 - dp * dp) - (1 - dm * dm)) / (2 * h)
        rel = np.linalg.norm(fd - grad, axis=1) / np.linalg.norm(grad, axis=1)
        worst_quat = max(worst_quat, rel.max())
        n += len(q_i)

    report(
        4,
        "gradient finite differences",
        worst_mrp < 1e-5 and worst_quat < 1e-5,
        f"mrp {worst_mrp:.2e}, quaternion {worst_quat:.2e}",
    )


@pytest.mark.slow
def test_criterion_5_scaled_table_reproduction():
    seeds = range(10)
    envs = [generate_uniform_env(GeneratorConfig(n_nodes=100, k_neighbors=3, seed=seed))
            for seed in seeds]
    results = {}
    for algo in ("mrp", "quaternion", "so3"):
        cfgs = [
            OptimizerConfig(
                algorithm=algo, gamma=0.5, eta=0.1, batch_size=8,
                max_iters=BUDGET, seed=seed, checkpoint_every=1000,
            )
            for seed in seeds
        ]
        results[algo] = [
            (metrics.steps_to_threshold(trace), trace[-1].ape_mean_deg)
            for _, trace in run_averaging(envs, cfgs)
        ]

    # runs that never crossed 5 degrees count at the full budget
    def mean_steps(algo):
        return float(np.mean([s if s is not None else BUDGET
                              for s, _ in results[algo]]))

    mrp_within = sum(
        1 for s, _ in results["mrp"] if s is not None and s <= 200_000
    )
    mrp_mean = mean_steps("mrp")
    so3_mean = mean_steps("so3")
    quat_mean = mean_steps("quaternion")
    mrp_final_median = float(np.median([f for _, f in results["mrp"]]))

    ok = (
        mrp_within >= 9
        and mrp_mean < so3_mean
        and mrp_mean < quat_mean
        and mrp_final_median <= 0.1
    )
    report(
        5,
        "scaled table 1/2 reproduction",
        ok,
        f"mrp<=200K in {mrp_within}/10; mean steps mrp {mrp_mean:.0f} "
        f"vs so3 {so3_mean:.0f} vs quat {quat_mean:.0f}; "
        f"mrp median final {mrp_final_median:.2e} deg",
    )


def _find_scene(root, names):
    """Locate an edge-list file (and optional gt file) for a scene."""
    root = Path(root)
    for name in names:
        for pattern in (
            f"{name}/EGs.txt", f"{name}/eg.txt", f"{name}_EG.txt",
            f"{name}_eg.txt", f"{name}.txt",
        ):
            hits = sorted(root.glob(pattern))
            if hits:
                eg = hits[0]
                gt_hits = sorted(root.glob(f"{name}/gt*.txt")) + sorted(
                    root.glob(f"{name}_gt*.txt")
                )
                return eg, (gt_hits[0] if gt_hits else None)
    return None, None


def _dsfm_cell(args):
    env_path, gt_path, algo, seed = args
    env, _ = envio.import_1dsfm(env_path, gt_path=gt_path)
    cfg = OptimizerConfig(
        algorithm=algo, batch_size=64, max_iters=20_000,
        seed=seed, checkpoint_every=200,
    )
    _, trace = run_averaging(env, cfg)
    last = trace[-1]
    return algo, last.abs_mean_deg, last.rel_mean_deg


def test_criterion_6_1dsfm_protocol():
    root = os.environ.get("ROTAVG_1DSFM_DIR", "data/1dsfm")
    alamo_eg, alamo_gt = _find_scene(root, ["Alamo", "alamo"])
    ellis_eg, ellis_gt = _find_scene(
        root, ["EllisIsland", "Ellis_Island", "ellis_island"]
    )
    if alamo_eg is None or alamo_gt is None:
        print("ACCEPTANCE 6 1dsfm protocol: SKIPPED (dataset not found; "
              f"set ROTAVG_1DSFM_DIR, looked under {root!r})")
        pytest.skip("1DSfM dataset not available")

    cells = [(str(alamo_eg), str(alamo_gt), algo, seed)
             for algo in ("mrp", "quaternion") for seed in range(5)]
    with ProcessPoolExecutor(max_workers=min(2, os.cpu_count() or 1)) as pool:
        results = list(pool.map(_dsfm_cell, cells))
    by_algo = {}
    for algo, abs_mean, rel_mean in results:
        by_algo.setdefault(algo, []).append((abs_mean, rel_mean))
    alamo_mrp_abs = float(np.mean([a for a, _ in by_algo["mrp"]]))
    alamo_mrp_rel = float(np.mean([r for _, r in by_algo["mrp"]]))
    alamo_quat_rel = float(np.mean([r for _, r in by_algo["quaternion"]]))

    ok = alamo_mrp_abs <= 12.0 and alamo_mrp_rel < alamo_quat_rel
    detail = (f"Alamo mrp abs {alamo_mrp_abs:.2f} deg, "
              f"mrp rel {alamo_mrp_rel:.2f} vs quat rel {alamo_quat_rel:.2f}")

    if ellis_eg is not None and ellis_gt is not None:
        cells = [(str(ellis_eg), str(ellis_gt), "mrp", seed) for seed in range(5)]
        with ProcessPoolExecutor(max_workers=min(2, os.cpu_count() or 1)) as pool:
            ellis = list(pool.map(_dsfm_cell, cells))
        ellis_abs = float(np.mean([a for _, a, _ in ellis]))
        ok = ok and ellis_abs <= 10.0
        detail += f"; Ellis Island mrp abs {ellis_abs:.2f} deg"

    report(6, "1dsfm protocol", ok, detail)


# criterion 6's configs on the in-repo stand-in: 2,000 steps covers mrp's
# 800-1,200 steps to 5 degrees with a margin, where quaternion needs 7,200+
STANDIN_BUDGET = 2000
STANDIN_MRP_STEPS = 1600


def _perfbench_inputs():
    """perfbench/inputs.py, which writes the 1DSfM-format stand-in scenes."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_criterion_6_standin_regime(tmp_path):
    """Batch 64 on noisy edges with outliers: the regime criterion 6 gates
    on 1DSfM, here on stand-in scenes 101-103 with run seeds 0-4.  Every
    mrp run reaches 5 degrees by STANDIN_MRP_STEPS and before every
    quaternion run (a run that never does counts at the budget), and ends
    within criterion 6's 12 degrees of absolute error."""
    inputs = _perfbench_inputs()
    envs = []
    for scene in (101, 102, 103):
        eg, gt = inputs.write_sfm_scene(inputs.WORKLOADS["sfm_n577"], scene, tmp_path / str(scene))
        envs.append(envio.import_1dsfm(eg, gt_path=gt)[0])
    members = [(env, seed) for env in envs for seed in range(5)]
    steps, final_abs = {}, {}
    for algo in ("mrp", "quaternion"):
        cfgs = [OptimizerConfig(algorithm=algo, batch_size=64, max_iters=STANDIN_BUDGET,
                                seed=seed, checkpoint_every=200) for _, seed in members]
        traces = [trace for _, trace in run_averaging([env for env, _ in members], cfgs)]
        steps[algo] = [STANDIN_BUDGET if (s := metrics.steps_to_threshold(trace)) is None else s
                       for trace in traces]
        final_abs[algo] = [trace[-1].abs_mean_deg for trace in traces]

    ok = (max(steps["mrp"]) <= STANDIN_MRP_STEPS
          and max(steps["mrp"]) < min(steps["quaternion"])
          and max(final_abs["mrp"]) <= 12.0)
    report(6, "1dsfm stand-in regime", ok,
           f"steps to 5 deg: mrp {min(steps['mrp'])}-{max(steps['mrp'])}, quaternion "
           f"{min(steps['quaternion'])}-{max(steps['quaternion'])} (budget {STANDIN_BUDGET}); "
           f"mrp abs <= {max(final_abs['mrp']):.2f} deg")


def test_criterion_7_metric_properties():
    rng = np.random.default_rng(7)
    gt = random_matrices(rng, 30)
    est = random_matrices(rng, 30)
    env = generate_uniform_env(GeneratorConfig(n_nodes=30, k_neighbors=3, seed=7))

    ape0 = metrics.avg_pairwise_error(est, gt)
    rel0 = metrics.relative_edge_error(est, env)
    worst = 0.0
    for _ in range(100):
        s = random_matrices(rng, 1)[0]
        ape1 = metrics.avg_pairwise_error(est @ s, gt)
        rel1 = metrics.relative_edge_error(est @ s, env)
        worst = max(
            worst,
            abs(ape1[0] - ape0[0]), abs(ape1[1] - ape0[1]),
            abs(rel1[0] - rel0[0]), abs(rel1[1] - rel0[1]),
        )

    # dyadic checkpoint spacing makes the constant-curve area exact
    trace = [metrics.TraceRecord(s, 7.25, 7.25, 1.0, 1.0)
             for s in (0, 1000, 2000, 4000, 8000)]
    nauc_exact = metrics.nauc(trace) == 7.25

    s0 = random_matrices(rng, 1)[0]
    recovered = metrics.align_gauge(gt @ s0.T, gt)
    gauge_err = np.max(np.abs(recovered - s0))

    ok = worst < 1e-9 and nauc_exact and gauge_err < 1e-9
    report(
        7,
        "metric properties",
        ok,
        f"gauge drift {worst:.2e}, nauc exact {nauc_exact}, "
        f"recovery {gauge_err:.2e}",
    )


def test_criterion_8_determinism(tmp_path):
    args = ["run", "--env", "gen:n=20,k=3,seed=11", "--algo", "mrp",
            "--iters", "2000", "--checkpoint-every", "500", "--seed", "3"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(args + ["--out", str(out_a)]) == 0
    assert cli_main(args + ["--out", str(out_b)]) == 0
    trace_same = (out_a / "trace_mrp_3.csv").read_bytes() == (
        out_b / "trace_mrp_3.csv"
    ).read_bytes()

    bench_out = tmp_path / "bench"
    rc = cli_main([
        "bench", "--envs", "gen:n=15,seed=0", "gen:n=15,seed=1",
        "--algos", "mrp,so3", "--seeds", "0-1", "--iters", "500",
        "--checkpoint-every", "250", "--out", str(bench_out),
    ])
    redo = tmp_path / "redo"
    rc2 = cli_main(["aggregate", "--summary", str(bench_out / "summary.csv"),
                    "--iters", "500", "--out", str(redo)])
    agg_same = (
        rc == 0 and rc2 == 0
        and (bench_out / "aggregate.txt").read_bytes() == (redo / "aggregate.txt").read_bytes()
        and (bench_out / "aggregate.csv").read_bytes() == (redo / "aggregate.csv").read_bytes()
    )
    report(8, "determinism", trace_same and agg_same,
           f"trace byte-identical {trace_same}, aggregate recomputable {agg_same}")


def test_criterion_9_io_roundtrips(tmp_path):
    ok = True
    for seed in range(100):
        env = generate_uniform_env(
            GeneratorConfig(n_nodes=12, k_neighbors=3, seed=seed)
        )
        p1 = tmp_path / f"env_{seed}.txt"
        p2 = tmp_path / f"env_{seed}_resaved.txt"
        envio.save_env(env, p1)
        loaded = envio.load_env(p1)
        envio.save_env(loaded, p2)
        same = p1.read_bytes() == p2.read_bytes()
        fields = (
            np.array_equal(loaded.edge_index, env.edge_index)
            and np.array_equal(loaded.edge_quats, env.edge_quats)
            and np.array_equal(loaded.ground_truth_quats, env.ground_truth_quats)
        )
        ok = ok and same and fields

    detail = "100 environments byte-identical"
    root = os.environ.get("ROTAVG_1DSFM_DIR", "data/1dsfm")
    alamo_eg, alamo_gt = _find_scene(root, ["Alamo", "alamo"])
    if alamo_eg is not None and alamo_gt is not None:
        env, _ = envio.import_1dsfm(alamo_eg, gt_path=alamo_gt)
        ok = ok and env.n_nodes == 577
        detail += f"; Alamo nodes {env.n_nodes} (want 577)"
    else:
        detail += "; 1DSfM node-count check skipped (dataset not found)"

    report(9, "io round trips", ok, detail)
