import csv
import os
import re
import shlex
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import rotavg
from rotavg import averaging, cli, envgraph
from rotavg import io as envio
from rotavg import rotmath
from rotavg.averaging import EstimateSet, OptimizerConfig
from rotavg.cli import (ALGO_TOKENS, _GEN_KEYS, _RUN_PARAMS, _build_config,
                        _parse_gen_spec, _parse_seeds, aggregate_table, build_parser, main)
from rotavg.envgraph import GeneratorConfig
from conftest import random_quats


def run_cli(*args):
    return main([str(a) for a in args])


class TestGen:
    def test_writes_count_files(self, tmp_path):
        assert run_cli("gen", "--n", 12, "--k", 3, "--seed", 5, "--count", 3,
                       "--out", tmp_path) == 0
        names = sorted(p.name for p in tmp_path.glob("env_*.txt"))
        assert names == ["env_5.txt", "env_6.txt", "env_7.txt"]

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("gen", "--n", 10, "--seed", 2, "--out", out) == 0
        assert (a / "env_2.txt").read_bytes() == (b / "env_2.txt").read_bytes()

    def test_minimal_env(self, tmp_path):
        assert run_cli("gen", "--n", 2, "--k", 1, "--out", tmp_path) == 0
        env = envio.load_env(tmp_path / "env_0.txt")
        assert env.n_nodes == 2 and env.n_edges == 1

    def test_n_below_two_is_usage_error(self, tmp_path, capsys):
        assert run_cli("gen", "--n", 1, "--out", tmp_path) == 1
        assert "usage error" in capsys.readouterr().err

    def test_connectivity_failure_is_data_error(self, tmp_path, capsys):
        assert run_cli("gen", "--n", 60, "--k", 1, "--seed", 3,
                       "--out", tmp_path) == 2
        assert "seed=3" in capsys.readouterr().err

    @pytest.mark.parametrize("seed, count", [(-1, 1), (2**64, 1), (2**64 - 1, 2)])
    def test_seed_outside_64_bits_is_usage_error_before_output(self, tmp_path, capsys,
                                                               seed, count):
        # generator seeds are derived mod 2**64, so these would repeat in-range seeds' files
        out = tmp_path / "gen"
        assert run_cli("gen", "--n", 10, "--seed", seed, "--count", count, "--out", out) == 1
        assert "seed must be" in capsys.readouterr().err
        assert not out.exists()
        assert run_cli("bench", "--envs", f"gen:n=10,seed={seed + count - 1}",
                       "--out", out) == 1
        assert "seed must be" in capsys.readouterr().err
        assert not out.exists()

    def test_largest_seed_is_its_own_environment(self, tmp_path):
        top = 2**64 - 1
        assert run_cli("gen", "--n", 10, "--seed", top, "--out", tmp_path) == 0
        assert run_cli("gen", "--n", 10, "--seed", 0, "--out", tmp_path) == 0
        env = (tmp_path / f"env_{top}.txt").read_bytes()
        assert env != (tmp_path / "env_0.txt").read_bytes()


class TestRun:
    def test_outputs_and_determinism(self, tmp_path):
        env_spec = "gen:n=12,k=3,seed=4"
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            rc = run_cli("run", "--env", env_spec, "--algo", "mrp",
                         "--iters", 800, "--checkpoint-every", 200,
                         "--seed", 1, "--out", out)
            assert rc == 0
        assert (a / "trace_mrp_1.csv").read_bytes() == (b / "trace_mrp_1.csv").read_bytes()
        assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()
        with open(a / "trace_mrp_1.csv", newline="") as f:
            assert [int(r["step"]) for r in csv.DictReader(f)] == [0, 200, 400, 600, 800]

    def test_zero_iters_trace(self, tmp_path):
        rc = run_cli("run", "--env", "gen:n=8,seed=1", "--algo", "so3",
                     "--iters", 0, "--out", tmp_path)
        assert rc == 0
        with open(tmp_path / "trace_so3_0.csv", newline="") as f:
            trace = list(csv.DictReader(f))
        assert len(trace) == 1 and trace[0]["step"] == "0"

    def test_env_file_input(self, tmp_path):
        assert run_cli("gen", "--n", 10, "--seed", 6, "--out", tmp_path) == 0
        rc = run_cli("run", "--env", tmp_path / "env_6.txt", "--algo", "quat",
                     "--iters", 300, "--out", tmp_path / "run")
        assert rc == 0
        rows = envio.load_summary(tmp_path / "run" / "summary.csv")
        assert rows[0].algorithm == "quat" and rows[0].seed == 0

    def test_inert_clamp_warning(self, tmp_path, capsys):
        # run warns once; bench warns once per mrp config, never for quat
        for argv in (["run", "--algo", "mrp", "--env"],
                     ["bench", "--algos", "mrp,quat", "--seeds", "0,1", "--envs"]):
            rc = run_cli(*argv, "gen:n=8,seed=1", "--eta", 1e9, "--iters", 10,
                         "--out", tmp_path / argv[0])
            assert rc == 0
            assert capsys.readouterr().err.count("clamp") == 1

    def test_batch_beyond_the_node_count_makes_no_out(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = run_cli("run", "--env", "gen:n=10,k=3,seed=1", "--algo", "mrp", "--batch", 11,
                     "--iters", 5, "--out", out)
        assert rc == 2
        assert "batch_size 11 exceeds node count 10" in capsys.readouterr().err
        assert not out.exists()

    def test_save_estimates(self, tmp_path):
        rc = run_cli("run", "--env", "gen:n=8,seed=1", "--algo", "mrp",
                     "--iters", 50, "--out", tmp_path, "--save-estimates")
        assert rc == 0
        est = envio.load_estimates(tmp_path / "estimates_mrp_0.txt")
        assert est.parameterization == "mrp" and est.n_nodes == 8

    def test_run_without_ground_truth(self, tmp_path, capsys):
        env = rotavg.generate_uniform_env(GeneratorConfig(10, seed=2))
        envio.save_env(rotavg.RotationEnvironment(env.n_nodes, env.edge_index, env.edge_quats),
                       tmp_path / "nogt.txt")
        assert run_cli("run", "--env", tmp_path / "nogt.txt", "--algo", "mrp", "--iters", 100,
                       "--out", tmp_path) == 0
        out = capsys.readouterr().out
        assert out.startswith("finished; final mean relative error ")
        assert out.endswith(" deg (no ground truth)\n")
        [row] = envio.load_summary(tmp_path / "summary.csv")
        assert row.nauc is row.steps_to_5deg is None
        assert [row.final_ape_mean_deg, row.final_ape_median_deg, row.final_abs_mean_deg,
                row.final_abs_median_deg] == [None] * 4
        assert row.final_rel_mean_deg is not None

    def test_missing_env_is_data_error(self, tmp_path, capsys):
        rc = run_cli("run", "--env", tmp_path / "nope.txt", "--algo", "mrp",
                     "--out", tmp_path)
        assert rc == 2

    def test_bad_gamma_is_usage_error(self, tmp_path):
        rc = run_cli("run", "--env", "gen:n=8,seed=1", "--algo", "mrp",
                     "--gamma", 0, "--out", tmp_path)
        assert rc == 1

    @pytest.mark.parametrize("gamma", ["inf", "nan"])
    def test_non_finite_gamma_is_usage_error(self, tmp_path, capsys, gamma):
        rc = run_cli("run", "--env", "gen:n=8,seed=1", "--algo", "mrp",
                     "--gamma", gamma, "--out", tmp_path)
        assert rc == 1
        assert "gamma" in capsys.readouterr().err
        assert not (tmp_path / "trace_mrp_0.csv").exists()

    @pytest.mark.parametrize("field", ["n=abc", "epsilon=wide"])
    def test_bad_gen_spec_value_is_usage_error(self, tmp_path, capsys, field):
        rc = run_cli("run", "--env", f"gen:{field},seed=1", "--algo", "mrp",
                     "--out", tmp_path)
        assert rc == 1
        key, value = field.split("=")
        err = capsys.readouterr().err
        assert key in err and value in err

    @pytest.mark.parametrize("flag, value, named", [("--checkpoint-every", 0, "checkpoint_every"),
                                                    ("--seed", -1, "seed")])
    def test_zero_cadence_or_negative_seed_is_usage_error(self, tmp_path, capsys, flag, value,
                                                          named):
        rc = run_cli("run", "--env", "gen:n=10,seed=0", "--algo", "mrp", "--iters", 400,
                     flag, value, "--out", tmp_path / "run")
        assert rc == 1
        assert f"{named} must be" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_cadence_default_follows_the_budget(self):
        flags = vars(build_parser().parse_args(["run", "--env", "e", "--algo", "mrp",
                                                "--out", "o"]))
        for iters, cadence in ((400, 200), (99_999, 200), (100_000, 1000)):
            assert _build_config("mrp", {**flags, "iters": iters}).checkpoint_every == cadence


class TestBench:
    def test_grid_and_aggregate_recompute(self, tmp_path):
        out = tmp_path / "bench"
        rc = run_cli(
            "bench", "--envs", "gen:n=10,seed=0", "gen:n=10,seed=1",
            "--algos", "mrp,quat", "--seeds", "0-1", "--iters", 400,
            "--checkpoint-every", 100, "--out", out,
        )
        assert rc == 0
        rows = envio.load_summary(out / "summary.csv")
        assert len(rows) == 8
        assert (out / "aggregate.txt").exists()
        assert (out / "aggregate.csv").exists()
        # per-env trace files live in per-source subdirectories
        assert (out / "gen_n_10_seed_0" / "trace_mrp_0.csv").exists()

        # aggregates are a pure function of the summary file
        redo = tmp_path / "redo"
        rc = run_cli("aggregate", "--summary", out / "summary.csv",
                     "--iters", 400, "--out", redo)
        assert rc == 0
        assert (redo / "aggregate.txt").read_bytes() == (out / "aggregate.txt").read_bytes()
        assert (redo / "aggregate.csv").read_bytes() == (out / "aggregate.csv").read_bytes()

    def test_single_run_plan_matches_summary(self, tmp_path):
        out = tmp_path / "bench"
        rc = run_cli("bench", "--envs", "gen:n=10,seed=3", "--algos", "mrp", "--seeds", 2,
                     "--iters", 300, "--checkpoint-every", 100, "--out", out)
        assert rc == 0
        rows = envio.load_summary(out / "summary.csv")
        assert len(rows) == 1
        header, [cells] = aggregate_table(rows, 300)
        cell = dict(zip(header, cells))
        assert cell["runs"] == "1"
        if rows[0].steps_to_5deg is not None:
            assert float(cell["steps_mean"]) == rows[0].steps_to_5deg

    def test_parallel_jobs_same_summary(self, tmp_path):
        outs = []
        for jobs, name in ((1, "serial"), (2, "parallel")):
            out = tmp_path / name
            rc = run_cli("bench", "--envs", "gen:n=10,seed=0",
                         "--algos", "mrp,so3", "--seeds", "0,1",
                         "--iters", 200, "--jobs", jobs, "--out", out)
            assert rc == 0
            outs.append((out / "summary.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_no_more_workers_than_ensembles(self, tmp_path, monkeypatch):
        sizes = []

        def pool(max_workers):
            sizes.append(max_workers)
            return ThreadPoolExecutor(max_workers)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", pool)
        grid = ["--envs", "gen:n=10,seed=0", "--iters", 20, "--jobs", 64, "--out", tmp_path]
        assert run_cli("bench", "--algos", "mrp,so3", "--seeds", "0-2", *grid) == 0
        assert sizes == [6]  # three one-seed ensembles per algorithm
        assert run_cli("bench", "--algos", "mrp", "--seeds", 0, *grid) == 0
        assert sizes == [6]  # one ensemble runs in-process

    def test_failed_cell_recorded_grid_continues(self, tmp_path, capsys):
        out = tmp_path / "bench"
        rc = run_cli("bench", "--envs", "gen:n=10,seed=0",
                     str(tmp_path / "missing.txt"),
                     "--algos", "mrp", "--seeds", "0", "--iters", 100,
                     "--out", out)
        assert rc == 2
        rows = envio.load_summary(out / "summary.csv")
        assert len(rows) == 1  # the good env still ran
        assert (out / "failures.txt").exists()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_oversized_batch_fails_only_its_cells(self, tmp_path, jobs):
        out = tmp_path / "bench"
        good = {"gen:n=12,seed=0": "gen_n_12_seed_0", "gen:n=16,seed=2": "gen_n_16_seed_2"}
        flags = ["--batch", 6, "--iters", 300, "--checkpoint-every", 100]
        rc = run_cli("bench", "--envs", "gen:n=12,seed=0", "gen:n=5,k=2,seed=1",
                     "gen:n=16,seed=2", "--algos", "mrp,so3", "--seeds", "0-2",
                     "--jobs", jobs, "--out", out, *flags)
        assert rc == 2
        assert (out / "failures.txt").read_text().splitlines() == [
            f"gen:n=5,k=2,seed=1 {algo} seed={seed}: "
            "ValueError: batch_size 6 exceeds node count 5"
            for algo in ("mrp", "so3") for seed in range(3)
        ]
        assert len(envio.load_summary(out / "summary.csv")) == 12
        for env, stem in good.items():
            for algo in ("mrp", "so3"):
                for seed in range(3):
                    solo = tmp_path / "solo"
                    assert run_cli("run", "--env", env, "--algo", algo,
                                   "--seed", seed, "--out", solo, *flags) == 0
                    name = f"trace_{algo}_{seed}.csv"
                    assert (out / stem / name).read_bytes() == (solo / name).read_bytes()

    def test_zero_cadence_is_usage_error(self, tmp_path, capsys):
        assert run_cli("bench", "--envs", "gen:n=10,seed=0", "--algos", "mrp", "--iters", 400,
                       "--checkpoint-every", 0, "--out", tmp_path / "bench") == 1
        assert "checkpoint_every must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "bench").exists()

    @pytest.mark.parametrize("spec, named", [("gen:n=abc", "n='abc'"),
                                             ("gen:n=10,k=0", "k_neighbors"),
                                             ("gen:size=10", "'size'"),
                                             ("gen:n=10,k", "bad gen spec field 'k'")])
    def test_malformed_gen_spec_is_usage_error_before_any_cell(self, tmp_path, capsys,
                                                               spec, named):
        out = tmp_path / "bench"
        rc = run_cli("bench", "--envs", "gen:n=10,seed=0", spec, "--algos", "mrp",
                     "--iters", 10, "--out", out)
        assert rc == 1
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_gen_spec_that_fails_to_generate_fails_only_its_cells(self, tmp_path):
        out = tmp_path / "bench"
        rc = run_cli("bench", "--envs", "gen:n=60,k=1,seed=3", "gen:n=10,seed=0",
                     "--algos", "mrp", "--seeds", "0,1", "--iters", 10, "--out", out)
        assert rc == 2
        failed = (out / "failures.txt").read_text().splitlines()
        assert [line.split(": ")[0] for line in failed] == [
            "gen:n=60,k=1,seed=3 mrp seed=0", "gen:n=60,k=1,seed=3 mrp seed=1"]
        assert all("ConnectivityFailure" in line for line in failed)
        assert [r.env for r in envio.load_summary(out / "summary.csv")] == ["gen:n=10,seed=0"] * 2

    def test_error_while_stepping_fails_the_whole_ensemble(self, tmp_path, monkeypatch):
        def broken_step(*args):
            raise FloatingPointError("step blew up")

        monkeypatch.setitem(averaging.STEP_FUNCTIONS, "mrp", broken_step)
        out = tmp_path / "bench"
        rc = run_cli("bench", "--envs", "gen:n=10,seed=0", "gen:n=12,seed=1",
                     "--algos", "mrp,quat", "--seeds", "0,1", "--iters", 100,
                     "--out", out)
        assert rc == 2
        failed = (out / "failures.txt").read_text().splitlines()
        assert len(failed) == 4
        assert all(" mrp seed=" in line and "step blew up" in line for line in failed)
        assert [r.algorithm for r in envio.load_summary(out / "summary.csv")] == ["quat"] * 4

    def test_bad_jobs_is_usage_error(self, tmp_path, capsys):
        # 0 is a value, not a missing flag: it must not fall through to the default
        assert run_cli("bench", "--envs", "gen:n=10,seed=0", "--jobs", 0,
                       "--out", tmp_path / "zero") == 1
        assert "--jobs" in capsys.readouterr().err
        assert not (tmp_path / "zero").exists()
        assert run_cli("bench", "--envs", "gen:n=10,seed=0", "--jobs", -1,
                       "--out", tmp_path) == 1

    @pytest.mark.parametrize("files, dirs", [
        (["a/env.txt", "b/env.txt"], ["env", "env__2"]),
        (["a/env.txt", "b/env.txt", "c/env__2.txt"], ["env", "env__3", "env__2"]),
    ])
    def test_each_source_gets_its_own_directory(self, tmp_path, files, dirs):
        for seed, name in enumerate(files):
            run_cli("gen", "--n", 10, "--seed", seed, "--out", tmp_path / "gen")
            (tmp_path / name).parent.mkdir()
            (tmp_path / "gen" / f"env_{seed}.txt").rename(tmp_path / name)
        out = tmp_path / "bench"
        rc = run_cli("bench", "--envs", *(tmp_path / name for name in files), "--algos", "mrp",
                     "--seeds", 0, "--iters", 50, "--out", out)
        assert rc == 0
        assert sorted(p.name for p in out.iterdir() if p.is_dir()) == sorted(dirs)
        for name, d in zip(files, dirs):  # each trace is its own source's run
            assert run_cli("run", "--env", tmp_path / name, "--algo", "mrp", "--iters", 50,
                           "--out", tmp_path / "run" / d) == 0
            trace = (out / d / "trace_mrp_0.csv").read_bytes()
            assert trace == (tmp_path / "run" / d / "trace_mrp_0.csv").read_bytes()

    def test_runs_without_ground_truth_are_left_out_of_convergence(self, tmp_path):
        env = rotavg.generate_uniform_env(GeneratorConfig(10, seed=2))
        envio.save_env(env, tmp_path / "gt.txt")
        envio.save_env(rotavg.RotationEnvironment(env.n_nodes, env.edge_index, env.edge_quats),
                       tmp_path / "nogt.txt")

        def aggregate(*envs):
            out = tmp_path / "bench" / "-".join(envs)
            assert run_cli("bench", "--envs", *(tmp_path / e for e in envs), "--algos",
                           "mrp,quat", "--seeds", "0-1", "--iters", 300, "--out", out) == 0
            assert run_cli("aggregate", "--summary", out / "summary.csv", "--iters", 300,
                           "--out", out / "redo") == 0
            for name in ("aggregate.txt", "aggregate.csv"):
                assert (out / "redo" / name).read_bytes() == (out / name).read_bytes()
            header, *rows = [line.split(",") for line in
                             (out / "aggregate.csv").read_text().splitlines()]
            return header, {row[0]: dict(zip(header, row)) for row in rows}

        header, alone = aggregate("nogt.txt")
        _, truth = aggregate("gt.txt")
        _, mixed = aggregate("nogt.txt", "gt.txt")
        measured = [h for h in header if h.startswith(("conv%", "steps_"))]
        for algo in ("mrp", "quat"):
            assert (alone[algo]["runs"], mixed[algo]["runs"]) == ("2", "4")
            assert [alone[algo][h] for h in measured] == [""] * len(measured)
            assert [mixed[algo][h] for h in measured] == [truth[algo][h] for h in measured]

    def test_reused_out_keeps_nothing_of_an_earlier_grid(self, tmp_path, capsys):
        out = tmp_path / "bench"

        def bench(*envs, iters=20):
            return run_cli("bench", "--envs", *envs, "--algos", "mrp", "--iters", iters,
                           "--out", out)

        missing = tmp_path / "missing.txt"
        assert bench("gen:n=10,seed=0", missing) == 2
        assert (out / "failures.txt").exists()
        assert bench("gen:n=10,seed=0") == 0
        assert not (out / "failures.txt").exists()
        capsys.readouterr()
        # every cell fails: the aggregate is over 0 runs, and still a function of the summary
        assert bench(missing, iters=30) == 2
        assert capsys.readouterr().out.startswith("# aggregate over 0 runs, budget 30 steps\n")
        assert envio.load_summary(out / "summary.csv") == []
        assert (out / "failures.txt").read_text().startswith(f"{missing} mrp seed=0: ")
        assert run_cli("aggregate", "--summary", out / "summary.csv", "--iters", 30,
                       "--out", tmp_path / "redo") == 0
        for name in ("aggregate.txt", "aggregate.csv"):
            assert (tmp_path / "redo" / name).read_bytes() == (out / name).read_bytes()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_source_with_no_cell_run_gets_no_directory(self, tmp_path, jobs):
        # folders are made when their first trace is written, in a worker at --jobs 2
        out = tmp_path / "bench"
        rc = run_cli("bench", "--envs", "gen:n=5,k=2,seed=1", "gen:n=12,k=3,seed=2",
                     "--algos", "mrp", "--seeds", "0,1", "--batch", 6, "--iters", 10,
                     "--jobs", jobs, "--out", out)
        assert rc == 2
        assert sorted(p.name for p in out.iterdir() if p.is_dir()) == ["gen_n_12_k_3_seed_2"]

    def test_reused_out_drops_the_traces_its_earlier_summary_names(self, tmp_path):
        out = tmp_path / "bench"
        grid = ["--seeds", "0", "--iters", 20, "--out", out]
        assert run_cli("bench", "--envs", "gen:n=10,seed=0", "gen:n=12,seed=1",
                       "--algos", "mrp,quat", *grid) == 0
        first, second = out / "gen_n_10_seed_0", out / "gen_n_12_seed_1"
        (second / "notes.txt").write_text("kept\n")
        (out / "trace_mrp_0.csv").write_text("not named by the summary\n")
        # the FOUND repro: the next grid's only source is a missing file
        assert run_cli("bench", "--envs", tmp_path / "missing.txt", "--algos", "mrp",
                       *grid) == 2
        assert not first.exists()  # its traces were all it held
        assert sorted(p.name for p in second.iterdir()) == ["notes.txt"]
        assert (out / "trace_mrp_0.csv").exists()
        # a grid that rewrites its own traces keeps them
        assert run_cli("bench", "--envs", "gen:n=10,seed=0", "--algos", "mrp", *grid) == 0
        assert sorted(p.name for p in first.iterdir()) == ["trace_mrp_0.csv"]
        assert run_cli("bench", "--envs", "gen:n=10,seed=0", "--algos", "mrp", *grid) == 0
        assert sorted(p.name for p in first.iterdir()) == ["trace_mrp_0.csv"]

    def test_reused_out_drops_a_trace_whose_stem_suffix_a_failed_source_pushed_up(
            self, tmp_path):
        for seed, name in enumerate(["b/env.txt", "c/other.txt"]):
            assert run_cli("gen", "--n", 10, "--seed", seed, "--out", tmp_path / "gen") == 0
            (tmp_path / name).parent.mkdir()
            (tmp_path / "gen" / f"env_{seed}.txt").rename(tmp_path / name)
        (tmp_path / "a").mkdir()
        (tmp_path / "a" / "env.txt").write_text("not an environment\n")
        out = tmp_path / "o"
        grid = ["--algos", "mrp", "--seeds", 0, "--iters", 20, "--batch", 2, "--out", out]
        # a/env.txt fails in every cell, so the summary lists only b/env.txt, under env__2
        assert run_cli("bench", "--envs", tmp_path / "a" / "env.txt",
                       tmp_path / "b" / "env.txt", *grid) == 2
        assert (out / "env__2" / "trace_mrp_0.csv").exists()
        assert run_cli("bench", "--envs", tmp_path / "c" / "other.txt", *grid) == 0
        assert sorted(p.name for p in out.iterdir() if p.is_dir()) == ["other"]

    def test_all_dot_stems_get_their_own_subdirectories_of_out(self, tmp_path):
        sources = tmp_path / "in"
        assert run_cli("gen", "--n", 10, "--seed", 1, "--out", sources) == 0
        for name in ("...txt", "..txt"):  # stems '..' and '.'
            shutil.copyfile(sources / "env_1.txt", sources / name)

        def written():
            return sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")
                          if p.is_file() and sources not in p.parents)

        out = tmp_path / "o" / "b"
        grid = ["--algos", "mrp", "--seeds", 0, "--iters", 20, "--batch", 2, "--out", out]
        assert run_cli("bench", "--envs", sources / "...txt", sources / "..txt", *grid) == 0
        assert written() == ["o/b/_/trace_mrp_0.csv", "o/b/__/trace_mrp_0.csv",
                             "o/b/aggregate.csv", "o/b/aggregate.txt", "o/b/summary.csv"]
        # a later grid into the same --out deletes those traces and their folders
        assert run_cli("bench", "--envs", "gen:n=10,seed=1", *grid) == 0
        assert written() == ["o/b/aggregate.csv", "o/b/aggregate.txt",
                             "o/b/gen_n_10_seed_1/trace_mrp_0.csv", "o/b/summary.csv"]

    def test_unknown_algorithm_is_usage_error(self, tmp_path, capsys):
        rc = run_cli("bench", "--envs", "gen:n=10,seed=0", "--algos", "euler",
                     "--out", tmp_path)
        assert rc == 1
        err = capsys.readouterr().err
        assert all(name in err for name in ("'euler'", *ALGO_TOKENS)), err


class TestGridUsageErrors:
    @pytest.mark.parametrize("seeds, named", [
        ("abc", "bad seed 'abc'"), ("0-x", "bad seed '0-x'"), ("0,3-1", "seed range '3-1'"),
        ("1-2-3", "bad seed '1-2-3'"), ("2-", "bad seed '2-'"), ("-1", "bad seed '-1'"),
        (",", "empty seed list"),
    ])
    def test_bad_seed_list_names_the_token(self, tmp_path, capsys, seeds, named):
        assert run_cli("bench", "--envs", "gen:n=10,seed=0", "--algos", "mrp",
                       "--seeds", seeds, "--iters", 10, "--out", tmp_path) == 1
        assert named in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, named", [
        (["run"], "the following arguments are required: --env, --algo, --out"),
        (["run", "--env", "gen:n=10", "--algo", "bogus", "--out", "OUT"],
         "argument --algo: invalid choice: 'bogus'"),
        (["gen", "--count", 0, "--out", "OUT"], "--count must be >= 1"),
        (["bench", "--algos", "mrp", "--out", "OUT"],
         "the following arguments are required: --envs"),
        (["bench", "--envs", "gen:n=10", "--algos", ",", "--out", "OUT"], "empty algorithm list"),
        (["bench", "--envs", "gen:n=10", "--seeds", ",", "--out", "OUT"], "empty seed list"),
        (["bench", "--envs", "gen:n=10"], "the following arguments are required: --out"),
        (["run", "--env", "gen:n=10,k=3,seed=1", "--algo", "mrp", "--eta", "inf",
          "--iters", 50, "--batch", 2, "--out", "OUT"], "eta must be finite and > 0"),
        (["bench", "--envs", "gen:n=10,k=3,seed=1", "--algos", "mrp", "--eta", "inf",
          "--out", "OUT"], "eta must be finite and > 0"),
    ])
    def test_usage_error_names_the_problem(self, tmp_path, capsys, argv, named):
        out = tmp_path / "out"
        argv = [out if a == "OUT" else a for a in argv]
        assert run_cli(*argv) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_seed_lists_and_ranges(self):
        assert _parse_seeds("0-2, 5,7-7,") == [0, 1, 2, 5, 7]

    def test_negative_aggregate_budget_is_usage_error(self, tmp_path, capsys):
        summary = tmp_path / "summary.csv"
        # a run that did not converge, so no step in it exceeds a budget of 0
        envio.export_summary([envio.SummaryRow("env", "mrp", 0, 1.0, None, *[1.0] * 6)], summary)
        assert run_cli("aggregate", "--summary", summary, "--iters", -5,
                       "--out", tmp_path / "agg") == 1
        assert "--iters must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "agg").exists()
        assert run_cli("aggregate", "--summary", summary, "--iters", 0,
                       "--out", tmp_path / "agg") == 0


class TestSettingTables:
    """Each run parameter and gen key is named in its tables and flags
    together, so none can be added in only one place."""

    @staticmethod
    def dests(*argv):
        return set(vars(build_parser().parse_args(list(argv))))

    def test_run_parameters_are_config_fields_and_flags(self):
        names = {f.name for f in fields(OptimizerConfig)} - {"algorithm", "seed"}
        assert set(_RUN_PARAMS.values()) == names
        run = self.dests("run", "--env", "e", "--algo", "mrp", "--out", "o")
        bench = self.dests("bench", "--envs", "e", "--out", "o")
        assert set(_RUN_PARAMS) <= run & bench

    @staticmethod
    def choices(command, dest):
        sub = next(a for a in build_parser()._actions if a.dest == "command").choices[command]
        return next(a for a in sub._actions if a.dest == dest).choices

    def test_algorithm_registry_and_choice_lists_have_one_owner(self):
        table = list(averaging.ALGORITHM_TABLE)
        assert list(averaging.STEP_FUNCTIONS) == list(averaging.ALGORITHMS) == table
        assert sorted(ALGO_TOKENS.values()) == sorted(table)
        assert self.choices("run", "algo") == tuple(ALGO_TOKENS)
        assert {a.parameterization for a in averaging.ALGORITHM_TABLE.values()} \
            <= set(averaging.VALUE_SHAPES)
        bench = build_parser().parse_args(["bench", "--envs", "e", "--out", "o"])
        assert bench.algos == list(ALGO_TOKENS)
        assert self.choices("gen", "mode") == envgraph.NEIGHBORHOOD_MODES
        assert self.choices("run", "init") == self.choices("bench", "init") \
            == averaging.INIT_MODES

    def test_gen_keys_are_generator_fields_and_gen_flags(self):
        names = {f.name for f in fields(GeneratorConfig)}
        assert {field for field, _ in _GEN_KEYS.values()} == names
        assert set(_GEN_KEYS) <= self.dests("gen", "--out", "o")
        flags = vars(build_parser().parse_args(["gen", "--out", "o"]))
        defaults = GeneratorConfig(n_nodes=flags["n"])
        assert {key: flags[key] for key in _GEN_KEYS} \
            == {key: getattr(defaults, field) for key, (field, _) in _GEN_KEYS.items()}
        assert _parse_gen_spec("gen:") == defaults  # a spec's keys default as the flags do


README = Path(__file__).resolve().parent.parent / "README.md"


class TestReadmeCli:
    """README's CLI text names only what the parser takes."""

    @staticmethod
    def cli_text():
        text = README.read_text(encoding="utf-8")
        return text[text.index("\n## CLI\n"):]

    def test_examples_parse(self):
        block = self.cli_text().split("```bash\n", 1)[1].split("\n```", 1)[0]
        commands = [line for line in block.replace("\\\n", " ").splitlines()
                    if line.startswith("rotavg ")]
        assert commands
        for line in commands:
            build_parser().parse_args(shlex.split(line)[1:])

    def test_every_flag_named_is_a_flag(self):
        sub = next(a for a in build_parser()._actions if a.dest == "command").choices
        flags = {opt for p in sub.values() for a in p._actions for opt in a.option_strings}
        named = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", self.cli_text()))
        assert named and named <= flags, named - flags


class TestAggregateLogic:
    def row(self, algo, seed, steps):
        return envio.SummaryRow(
            "env", algo, seed, 10.0, steps, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0
        )

    def table(self, rows, max_iters):
        """aggregate_table's rows as {column: cell} dicts."""
        header, table = aggregate_table(rows, max_iters)
        return [dict(zip(header, cells)) for cells in table]

    def test_milestones_scale_with_budget(self):
        for max_iters, milestones in ((300_000, [30_000, 70_000, 100_000, 150_000, 300_000]),
                                      (3000, [300, 700, 1000, 1500, 3000])):
            [cells] = self.table([self.row("mrp", 0, 10)], max_iters)
            assert [c for c in cells if c.startswith("conv%@")] == \
                [f"conv%@{m}" for m in milestones]

    def test_threshold_semantics_at_milestones(self):
        # converged at 80K: not yet at the 70K column, done by 100K
        [cells] = self.table([self.row("mrp", 0, 80_000)], 300_000)
        assert cells["conv%@70000"] == "0%"
        assert cells["conv%@100000"] == "100%"

    def test_not_converged_propagates(self):
        rows = [self.row("so3", 0, 50_000), self.row("so3", 1, None)]
        [cells] = self.table(rows, 300_000)
        assert cells["conv%@300000"] == "50%"  # one converged run of two
        assert cells["steps_max"] == envio.NOT_CONVERGED
        assert cells["steps_min"] == "50000"


class TestAggregateCsv:
    def test_names_with_commas_and_quotes_stay_one_cell(self, tmp_path):
        names = ["a,b", 'say "hi"']
        rows = [envio.SummaryRow("env", name, 0, 10.0, 50, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
                for name in names]
        envio.export_summary(rows, tmp_path / "summary.csv")
        assert run_cli("aggregate", "--summary", tmp_path / "summary.csv", "--iters", 300,
                       "--out", tmp_path) == 0
        with open(tmp_path / "aggregate.csv", newline="", encoding="utf-8") as fh:
            header, *table = csv.reader(fh)
        assert all(len(row) == len(header) for row in table)
        assert sorted(row[0] for row in table) == sorted(names)

    def test_only_the_conv_cells_drop_their_percent_sign(self, tmp_path):
        row = envio.SummaryRow("env", "mrp%", 0, 10.0, 5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        envio.export_summary([row], tmp_path / "summary.csv")
        assert run_cli("aggregate", "--summary", tmp_path / "summary.csv", "--iters", 100,
                       "--out", tmp_path) == 0
        with open(tmp_path / "aggregate.csv", newline="", encoding="utf-8") as fh:
            header, cells = csv.reader(fh)
        conv = [c for h, c in zip(header, cells) if h.startswith("conv%@")]
        assert cells[0] == "mrp%" and conv == ["100"] * 5
        assert (tmp_path / "aggregate.txt").read_text().splitlines()[2].startswith("mrp%  ")


class TestAggregateGolden:
    """Both aggregate files and the printed table, byte for byte, from a fixed
    summary: all runs converged (mrp), one run not converged (so3), no ground
    truth (quat), an empty nauc under a name that needs CSV quoting, and no run
    converged (b).  Each budget has its own steps to 5 deg, all within it."""

    SUMMARY = (
        ",".join(envio.SUMMARY_COLUMNS) + "\n"
        "e,mrp,0,0.125,{0},1.5,1.25,2.5,2.25,1.75,1.5\n"
        "e,mrp,1,0.375,{1},0.5,0.25,1.5,1.25,0.75,0.5\n"
        "e,so3,0,0.5,{2},3.25,3,4.5,4,3.5,3.25\n"
        "e,so3,1,2.75,NotConverged,12.5,11,14,13.5,12.75,12\n"
        "e,quat,0,,,,,6.5,6.25,,\n"
        "e,quat,1,,,,,7.5,7.25,,\n"
        'e,"a,b ""x""%",0,,{3},2,2,3,3,2,2\n'
        "e,b,0,3.5,NotConverged,20,20,21,21,20,20\n"
    )
    STEPS = {400: (3, 120, 50, 6), 7: (3, 6, 2, 7)}
    EXPECTED = {
        400: (
            "# aggregate over 8 runs, budget 400 steps\n"
            "algorithm  runs  conv%@40  conv%@93  conv%@133  conv%@200  conv%@400  steps_mean  "
            "steps_max     steps_min     nauc_mean  nauc_max  nauc_min  final_mean_deg  "
            "final_median_deg\n"
            "so3        2     0%        50%       50%        50%        50%        225         "
            "NotConverged  50            1.625      2.75      0.5       7.875           "
            "7.875           \n"
            "quat       2" + " " * 161 + "\n"
            "mrp        2     50%       50%       100%       100%       100%       61.5        "
            "120           3             0.25       0.375     0.125     1               "
            "1               \n"
            'a,b "x"%   1     100%      100%      100%       100%       100%       6           '
            "6             6                                            2               "
            "2               \n"
            "b          1     0%        0%        0%         0%         0%         400         "
            "NotConverged  NotConverged  3.5        3.5       3.5       20              "
            "20              \n",
            "algorithm,runs,conv%@40,conv%@93,conv%@133,conv%@200,conv%@400,steps_mean,"
            "steps_max,steps_min,nauc_mean,nauc_max,nauc_min,final_mean_deg,final_median_deg\n"
            "so3,2,0,50,50,50,50,225,NotConverged,50,1.625,2.75,0.5,7.875,7.875\n"
            "quat,2,,,,,,,,,,,,,\n"
            "mrp,2,50,50,100,100,100,61.5,120,3,0.25,0.375,0.125,1,1\n"
            '"a,b ""x""%",1,100,100,100,100,100,6,6,6,,,,2,2\n'
            "b,1,0,0,0,0,0,400,NotConverged,NotConverged,3.5,3.5,3.5,20,20\n",
        ),
        # milestones fold to 1, 2, 4 and 7
        7: (
            "# aggregate over 8 runs, budget 7 steps\n"
            "algorithm  runs  conv%@1  conv%@2  conv%@4  conv%@7  steps_mean  steps_max     "
            "steps_min     nauc_mean  nauc_max  nauc_min  final_mean_deg  final_median_deg\n"
            "so3        2     0%       50%      50%      50%      4.5         NotConverged  "
            "2             1.625      2.75      0.5       7.875           7.875           \n"
            "quat       2" + " " * 144 + "\n"
            "mrp        2     0%       0%       50%      100%     4.5         6             "
            "3             0.25       0.375     0.125     1               1               \n"
            'a,b "x"%   1     0%       0%       0%       100%     7           7             '
            "7                                            2               2               \n"
            "b          1     0%       0%       0%       0%       7           NotConverged  "
            "NotConverged  3.5        3.5       3.5       20              20              \n",
            "algorithm,runs,conv%@1,conv%@2,conv%@4,conv%@7,steps_mean,steps_max,steps_min,"
            "nauc_mean,nauc_max,nauc_min,final_mean_deg,final_median_deg\n"
            "so3,2,0,50,50,50,4.5,NotConverged,2,1.625,2.75,0.5,7.875,7.875\n"
            "quat,2,,,,,,,,,,,,\n"
            "mrp,2,0,0,50,100,4.5,6,3,0.25,0.375,0.125,1,1\n"
            '"a,b ""x""%",1,0,0,0,100,7,7,7,,,,2,2\n'
            "b,1,0,0,0,0,7,NotConverged,NotConverged,3.5,3.5,3.5,20,20\n",
        ),
    }

    @pytest.mark.parametrize("iters", [400, 7])
    def test_files_and_stdout_match_the_golden_bytes(self, tmp_path, capsys, iters):
        (tmp_path / "summary.csv").write_text(self.SUMMARY.format(*self.STEPS[iters]))
        assert run_cli("aggregate", "--summary", tmp_path / "summary.csv", "--iters", iters,
                       "--out", tmp_path / "out") == 0
        text, csv_text = self.EXPECTED[iters]
        assert (tmp_path / "out" / "aggregate.txt").read_bytes() == text.encode()
        assert (tmp_path / "out" / "aggregate.csv").read_bytes() == csv_text.encode()
        assert capsys.readouterr().out == text

    def test_a_budget_below_the_steps_in_the_summary_is_a_usage_error(self, tmp_path, capsys):
        # mrp converged at step 120, so3 at 50: a budget of 7 cannot hold them
        (tmp_path / "summary.csv").write_text(self.SUMMARY.format(*self.STEPS[400]))
        assert run_cli("aggregate", "--summary", tmp_path / "summary.csv", "--iters", 7,
                       "--out", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert "--iters 7" in err and "120" in err
        assert not (tmp_path / "out").exists()


class TestImportEval:
    def make_scene(self, tmp_path, rng):
        gt = rotmath.quat_to_matrix(random_quats(rng, 4))
        lines = []
        for i, j in ((0, 1), (1, 2), (2, 3), (0, 3)):
            m = gt[i] @ gt[j].T
            lines.append(" ".join([str(i), str(j)] + [f"{x:.17g}" for x in m.reshape(-1)]))
        eg = tmp_path / "scene_eg.txt"
        eg.write_text("\n".join(lines) + "\n")
        quats = rotmath.matrix_to_quat(gt)
        gt_file = tmp_path / "scene_gt.txt"
        gt_file.write_text(
            "\n".join(
                f"{i} " + " ".join(f"{x:.17g}" for x in quats[i]) for i in range(4)
            )
            + "\n"
        )
        return eg, gt_file

    def test_import_then_eval_ground_truth_is_zero(self, tmp_path, rng, capsys):
        eg, gt_file = self.make_scene(tmp_path, rng)
        env_file = tmp_path / "env.txt"
        assert run_cli("import", "--in", eg, "--gt", gt_file, "--out", env_file) == 0
        env = envio.load_env(env_file)
        est = EstimateSet("so3_matrix", env.ground_truth)
        est_file = tmp_path / "est.txt"
        envio.save_estimates(est, est_file)
        report = tmp_path / "report.txt"
        assert run_cli("eval", "--env", env_file, "--estimates", est_file,
                       "--out", report) == 0
        values = dict(
            line.split() for line in report.read_text().strip().splitlines()
        )
        assert float(values["rel_mean_deg"]) < 1e-6
        assert float(values["ape_mean_deg"]) < 1e-6
        assert float(values["abs_mean_deg"]) < 1e-6

    def test_eval_reads_a_gen_spec_as_run_does(self, tmp_path):
        spec, out = "gen:n=20,k=3,seed=7", tmp_path / "run"
        assert run_cli("run", "--env", spec, "--algo", "mrp", "--iters", 200,
                       "--save-estimates", "--out", out) == 0
        report = tmp_path / "eval.txt"
        assert run_cli("eval", "--env", spec, "--estimates", out / "estimates_mrp_0.txt",
                       "--out", report) == 0
        with open(out / "trace_mrp_0.csv", newline="") as f:
            last = list(csv.DictReader(f))[-1]
        values = dict(line.split() for line in report.read_text().splitlines())
        assert values == {k: v for k, v in last.items() if k != "step"}

    def test_eval_out_makes_its_folder_once_the_report_is_computed(self, tmp_path):
        spec, out = "gen:n=10,k=3,seed=1", tmp_path / "run"
        assert run_cli("run", "--env", spec, "--algo", "mrp", "--iters", 20,
                       "--save-estimates", "--out", out) == 0
        est_file = out / "estimates_mrp_0.txt"
        report = tmp_path / "nodir" / "sub" / "eval.txt"
        assert run_cli("eval", "--env", "gen:n=11,k=3,seed=1", "--estimates", est_file,
                       "--out", report) == 1
        assert not (tmp_path / "nodir").exists()
        assert run_cli("eval", "--env", spec, "--estimates", est_file, "--out", report) == 0
        assert report.read_text().startswith("rel_mean_deg ")

    def test_eval_mismatched_n_is_usage_error(self, tmp_path, rng, capsys):
        eg, gt_file = self.make_scene(tmp_path, rng)
        env_file = tmp_path / "env.txt"
        run_cli("import", "--in", eg, "--gt", gt_file, "--out", env_file)
        est = EstimateSet.identity(7, "quaternion")
        est_file = tmp_path / "est.txt"
        envio.save_estimates(est, est_file)
        assert run_cli("eval", "--env", env_file, "--estimates", est_file) == 1
        assert "does not match" in capsys.readouterr().err

    def test_eval_zero_quaternion_is_data_error(self, tmp_path, rng, capsys):
        eg, gt_file = self.make_scene(tmp_path, rng)
        env_file = tmp_path / "env.txt"
        assert run_cli("import", "--in", eg, "--gt", gt_file, "--out", env_file) == 0
        est = EstimateSet.identity(4, "quaternion")
        est.values[1] = 0.0
        est_file = tmp_path / "est.txt"
        envio.save_estimates(est, est_file)
        assert run_cli("eval", "--env", env_file, "--estimates", est_file) == 2
        assert "node 1" in capsys.readouterr().err

    def test_import_missing_file_is_data_error(self, tmp_path):
        assert run_cli("import", "--in", tmp_path / "nope.txt",
                       "--out", tmp_path / "env.txt") == 2


class TestHelp:
    def test_help_exits_zero(self, capsys):
        assert run_cli("--help") == 0
        assert "rotavg" in capsys.readouterr().out

    @pytest.mark.parametrize("module", ["rotavg", "rotavg.cli"])
    def test_python_m_runs_without_warnings(self, module):
        src = str(Path(rotavg.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-m", module, "--help"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert "rotavg" in proc.stdout
