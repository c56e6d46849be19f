"""Bad input ends with the documented error, never with NaN output, an
internal error or an allocation sized by an unchecked header count."""

import numpy as np
import pytest

from rotavg import io as envio
from rotavg.averaging import EstimateSet, OptimizerConfig, run_averaging
from rotavg.cli import main
from rotavg.envgraph import GeneratorConfig, RotationEnvironment, generate_uniform_env

# a count numpy refuses to allocate at once (terabytes), never one it would
HUGE = 10**12


def run_cli(*args):
    return main([str(a) for a in args])


def make_env(seed=0, n=10):
    return generate_uniform_env(GeneratorConfig(n_nodes=n, k_neighbors=3, seed=seed))


def saved_lines(tmp_path, env):
    path = tmp_path / "saved.txt"
    envio.save_env(env, path)
    return path.read_text().splitlines()


def write_unchecked(path, lines):
    """Write lines without their checksum line, so edits still parse."""
    path.write_text("\n".join(l for l in lines if not l.startswith("checksum")) + "\n")
    return path


def replace_first(lines, prefix, make):
    k = next(k for k, line in enumerate(lines) if line.startswith(prefix))
    lines[k] = make(lines[k].split())
    return lines


class TestNonFiniteQuaternions:
    def test_nan_edge_in_env_file_is_parse_error(self, tmp_path):
        lines = replace_first(saved_lines(tmp_path, make_env()), "edge ",
                              lambda t: " ".join(t[:3] + ["nan"] * 4))
        path = write_unchecked(tmp_path / "nan.txt", lines)
        with pytest.raises(envio.ParseError, match="non-unit quaternion"):
            envio.load_env(path)

    def test_run_on_nan_edge_env_exits_2(self, tmp_path, capsys):
        lines = replace_first(saved_lines(tmp_path, make_env()), "edge ",
                              lambda t: " ".join(t[:3] + ["nan"] * 4))
        path = write_unchecked(tmp_path / "nan.txt", lines)
        assert run_cli("run", "--env", path, "--algo", "mrp", "--iters", 20,
                       "--out", tmp_path / "out") == 2
        assert "non-unit quaternion" in capsys.readouterr().err
        assert not (tmp_path / "out" / "trace_mrp_0.csv").exists()

    def test_import_nan_ground_truth_exits_2(self, tmp_path, capsys):
        gt = make_env().ground_truth
        rows = [f"{i} {j} " + " ".join(f"{x:.17g}" for x in (gt[i] @ gt[j].T).reshape(-1))
                for i, j in ((0, 1), (1, 2))]
        (tmp_path / "eg.txt").write_text("\n".join(rows) + "\n")
        (tmp_path / "gt.txt").write_text("0 nan nan nan nan\n1 1 0 0 0\n2 1 0 0 0\n")
        with pytest.raises(envio.ParseError, match="non-unit quaternion"):
            envio.import_1dsfm(tmp_path / "eg.txt", gt_path=tmp_path / "gt.txt")
        assert run_cli("import", "--in", tmp_path / "eg.txt", "--gt", tmp_path / "gt.txt",
                       "--out", tmp_path / "env.txt") == 2
        assert "non-unit quaternion" in capsys.readouterr().err
        assert not (tmp_path / "env.txt").exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_environment_rejects_non_finite_quaternions(self, value):
        env = make_env()
        quats = env.edge_quats.copy()
        quats[1] = value
        with pytest.raises(ValueError, match="non-unit edge quaternion"):
            RotationEnvironment(env.n_nodes, env.edge_index, quats)
        gt = env.ground_truth_quats.copy()
        gt[0] = value
        with pytest.raises(ValueError, match="non-unit ground-truth quaternion"):
            RotationEnvironment(env.n_nodes, env.edge_index, env.edge_quats, ground_truth=gt)


class TestDivergence:
    @pytest.mark.parametrize("algo", ["so3", "quat", "mrp"])
    def test_run_exits_2_naming_step_and_node(self, tmp_path, capsys, algo):
        assert run_cli("run", "--env", "gen:n=20,k=3,seed=1", "--algo", algo,
                       "--gamma", "1e300", "--iters", 200, "--out", tmp_path) == 2
        err = capsys.readouterr().err
        assert "non-finite estimate at step 200" in err and "node" in err
        assert not (tmp_path / f"trace_{algo}_0.csv").exists()

    def test_library_raises_value_error(self):
        cfg = OptimizerConfig(algorithm="mrp", gamma=1e300, max_iters=50, checkpoint_every=10)
        with pytest.raises(ValueError, match="step 10"):
            run_averaging(make_env(1, n=20), cfg)

    def test_bench_fails_the_cells_of_that_ensemble(self, tmp_path):
        out = tmp_path / "bench"
        assert run_cli("bench", "--envs", "gen:n=20,k=3,seed=1", "--algos", "mrp",
                       "--seeds", "0,1", "--gamma", "1e300", "--iters", 100,
                       "--out", out) == 2
        failures = (out / "failures.txt").read_text().splitlines()
        assert [line.split(": ", 1)[0] for line in failures] == [
            "gen:n=20,k=3,seed=1 mrp seed=0", "gen:n=20,k=3,seed=1 mrp seed=1"]
        assert all("non-finite estimate" in line for line in failures)
        assert (out / "summary.csv").read_text().count("\n") == 1  # header only


class TestHeaderCounts:
    def test_edge_count_beyond_file(self, tmp_path):
        lines = replace_first(saved_lines(tmp_path, make_env()), "edges ",
                              lambda t: f"edges {HUGE}")
        path = write_unchecked(tmp_path / "env.txt", lines)
        with pytest.raises(envio.ParseError, match=str(HUGE)):
            envio.load_env(path)

    def test_node_count_beyond_edges(self, tmp_path):
        env = make_env()
        bare = RotationEnvironment(env.n_nodes, env.edge_index, env.edge_quats)
        lines = replace_first(saved_lines(tmp_path, bare), "nodes ", lambda t: f"nodes {HUGE}")
        path = write_unchecked(tmp_path / "env.txt", lines)
        with pytest.raises(envio.ParseError, match=f"node count {HUGE}"):
            envio.load_env(path)

    def test_estimate_count_beyond_file(self, tmp_path):
        path = tmp_path / "est.txt"
        envio.save_estimates(EstimateSet.identity(5, "quaternion"), path)
        lines = replace_first(path.read_text().splitlines(), "nodes ", lambda t: f"nodes {HUGE}")
        write_unchecked(path, lines)
        with pytest.raises(envio.ParseError, match=str(HUGE)):
            envio.load_estimates(path)

    def test_run_and_eval_exit_2(self, tmp_path):
        env = make_env()
        lines = replace_first(saved_lines(tmp_path, env), "edges ", lambda t: f"edges {HUGE}")
        bad_env = write_unchecked(tmp_path / "env.txt", lines)
        good_env = tmp_path / "good.txt"
        envio.save_env(env, good_env)
        est = tmp_path / "est.txt"
        envio.save_estimates(EstimateSet.identity(env.n_nodes, "mrp"), est)
        assert run_cli("run", "--env", bad_env, "--algo", "mrp", "--iters", 10,
                       "--out", tmp_path / "out") == 2
        assert run_cli("eval", "--env", bad_env, "--estimates", est) == 2
        lines = replace_first(est.read_text().splitlines(), "nodes ", lambda t: f"nodes {HUGE}")
        write_unchecked(est, lines)
        assert run_cli("eval", "--env", good_env, "--estimates", est) == 2


class TestBenchGridRepeats:
    @pytest.mark.parametrize("flags, repeat", [
        (["--envs", "gen:n=10,seed=0", "gen:n=10,seed=0"], "environment 'gen:n=10,seed=0'"),
        (["--envs", "gen:n=10,seed=0", "--algos", "mrp,so3,mrp"], "algorithm 'mrp'"),
        (["--envs", "gen:n=10,seed=0", "--seeds", "0,0"], "seed 0"),
        (["--envs", "gen:n=10,seed=0", "--seeds", "0-2,1"], "seed 1"),
        (["--envs", "gen:n=10,seed=0", "--seeds", "0-19999,7"], "seed 7"),
    ])
    def test_flags(self, tmp_path, capsys, flags, repeat):
        assert run_cli("bench", *flags, "--iters", 10, "--out", tmp_path / "out") == 1
        assert f"{repeat} is repeated" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
