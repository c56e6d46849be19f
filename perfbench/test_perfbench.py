"""Tests of the benchmark itself (not of rotavg).

    python3 -m pytest perfbench -q

They run shrunken copies of the workloads, so they take seconds rather
than the minutes a full benchmark run does.
"""

from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workload
from inputs import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent

SMALL = {
    "table_n100": dict(iters=1000, envs=1),
    "sfm_n577": dict(n_nodes=120, sfm_edges=1500, iters=400),
    "scale_n2000": dict(n_nodes=300, iters=400),
}


def small(name):
    return dataclasses.replace(WORKLOADS[name], **SMALL[name])


@pytest.mark.parametrize("name", sorted(SMALL))
def test_smoke_run_of_each_workload(name, tmp_path):
    result = workload.run_workload(small(name), 3, 0.0, True, tmp_path)
    assert result["failed_checks"] == []
    assert result["correct"] and result["attempted"] > 0
    assert set(run.metric_units("end_to_end")) <= set(result["end_to_end"])
    assert set(run.metric_units("per_layer")) <= set(result["per_layer"])
    assert result["per_layer"]["averaging.step.calls"] == \
        result["manifest"]["params"]["iters"] * (result["per_layer"]["averaging.run.calls"])


def test_run_ends_within_its_time_budget(tmp_path):
    result = workload.run_workload(small("table_n100"), 3, 3.0, False, tmp_path)
    durations = result["pass_duration_s"]
    assert len(durations) >= 2
    assert sum(durations) <= 3.0 + max(durations)
    assert all(p["bench"] > 0 for p in result["pass_cpu_s"])


def test_corrupted_estimate_file_counts_as_failed(tmp_path, monkeypatch):
    from rotavg import io as envio

    save = envio.save_estimates

    def save_corrupted(estimates, path):
        save(estimates, path)
        lines = Path(path).read_text().splitlines()
        est = next(k for k, line in enumerate(lines) if line.startswith("est 0 "))
        tokens = lines[est].split()
        tokens[2] = repr(float(tokens[2]) + 0.25)
        lines[est] = " ".join(tokens)
        # drop the checksum so the file still loads and only the values are wrong
        Path(path).write_text("\n".join(lines[:-1]) + "\n")

    monkeypatch.setattr(envio, "save_estimates", save_corrupted)
    result = workload.run_workload(small("sfm_n577"), 3, 0.0, False, tmp_path)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["end_to_end"]["ok_frac"] < 1.0
    assert any(c["name"].startswith("eval reproduces") for c in result["failed_checks"])


def test_same_seed_repeats_deterministic_metrics_exactly(tmp_path):
    first = workload.run_workload(small("sfm_n577"), 5, 0.0, True, tmp_path / "a")
    second = workload.run_workload(small("sfm_n577"), 5, 0.0, True, tmp_path / "b")
    assert first["end_to_end"]["steps_to_5deg_mean"] == second["end_to_end"]["steps_to_5deg_mean"]
    for key in ("nauc_mean", "final_abs_deg"):
        assert first[key] == second[key], key
    exact = [k for k in first["per_layer"]
             if k.endswith(".calls") or k in ("rotmath.calls_per_step", "io.bytes_read",
                                               "io.bytes_written")]
    assert len(exact) >= 6
    for key in exact:
        assert first["per_layer"][key] == second["per_layer"][key], key


def test_exits_without_result_when_sources_are_missing(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table_n100", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
