"""Workload process: runs one benchmark workload through the rotavg CLI.

A pass drives ``rotavg.cli.main(argv)`` in-process through the commands a
user runs: ``gen`` or ``import``, then ``bench``, then ``run
--save-estimates`` on one grid cell, then ``eval`` on its estimates.  The
same seed gives the same pass, so passes repeat while another one fits in
the time budget, and the timings are medians over passes.  They are CPU
seconds: the process is single-threaded, and on a shared host wall time
also counts the time the host gives the CPU to others.  After each pass
the outputs are checked against the workload's expectations and against
the first pass byte for byte; every failed check counts as a failed
operation.

In a traced run passes alternate between untraced and traced, so the
tracing overhead is measured in the same process.

Usage (normally started by run.py):
    python3 perfbench/workload.py --workload table_n100 --seed 1 \
        --seconds 20 --trace 0 --work-dir DIR --result FILE
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import rotavg  # noqa: E402
from rotavg import averaging, cli, metrics  # noqa: E402
from rotavg import io as envio  # noqa: E402

import tracing  # noqa: E402
from inputs import (  # noqa: E402
    WORKLOADS, Workload, quat_matrices, workload_seeds, write_sfm_scene,
)

MAX_DEG = 180.0
PAIRWISE_TOL_DEG = 1e-9
PROBE_STEPS = 300
PROBE_BLOCKS = 5
SETUP_REPEATS = 5


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Clock:
    """Wall and CPU seconds of each command of a pass."""
    wall: dict[str, float] = field(default_factory=dict)
    cpu: dict[str, float] = field(default_factory=dict)


@dataclass
class PassResult:
    clock: Clock
    steps: int
    hashes: dict[str, str]
    checks: list[Check]
    steps_to_5deg_mean: float
    nauc_mean: float
    final_abs_deg: float
    env_path: Path
    est_path: Path
    tracer: tracing.Tracer | None = None

    @property
    def wall_s(self) -> float:
        return sum(self.clock.wall.values())

    @property
    def cpu_s(self) -> float:
        return sum(self.clock.cpu.values())


def cpu_seconds() -> float:
    """CPU seconds of this process and of the children it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _cli(name: str, argv: list, clock: Clock, checks: list, tracer) -> None:
    """Run one CLI command, record its wall and CPU seconds and its
    exit-code check."""
    out = io.StringIO()
    span = tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out), span:
        t0, c0 = time.perf_counter(), cpu_seconds()
        code = cli.main([str(a) for a in argv])
        clock.wall[name] = time.perf_counter() - t0
        clock.cpu[name] = cpu_seconds() - c0
    checks.append(Check(f"exit code of {name}", code == 0, out.getvalue()[-400:]))


def _read_trace(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split(",") for line in fh]
    return rows[1:]


def _check_trace(path: Path, iters: int) -> Check:
    """Every cell finite and in [0, 180] degrees; last row at the budget."""
    name = f"trace {path.parent.name}/{path.name}"
    if not path.is_file():
        return Check(name, False, "missing")
    rows = _read_trace(path)
    try:
        vals = np.array([[float(c) for c in r[1:]] for r in rows])
    except ValueError as exc:
        return Check(name, False, f"unparsable cell: {exc}")
    ok = (rows and int(rows[-1][0]) == iters and np.all(np.isfinite(vals))
          and np.all((vals >= 0.0) & (vals <= MAX_DEG)))
    return Check(name, bool(ok), "" if ok else "non-finite, out of range or short")


def _read_rows(path: Path, tag: str) -> list[list[float]]:
    with open(path, encoding="utf-8") as fh:
        return [[float(t) for t in line.split()[2:]]
                for line in fh if line.startswith(tag + " ")]


def _estimate_matrices(path: Path) -> np.ndarray:
    """Estimates as (N, 3, 3) matrices, parsed without rotavg."""
    with open(path, encoding="utf-8") as fh:
        param = next(line.split()[1] for line in fh if line.startswith("parameterization"))
    vals = np.array(_read_rows(path, "est"))
    if param == "so3_matrix":
        return vals.reshape(-1, 3, 3)
    if param == "quaternion":
        return quat_matrices(vals / np.linalg.norm(vals, axis=1, keepdims=True))
    sq = np.sum(vals * vals, axis=1, keepdims=True)  # MRP -> unit quaternion
    return quat_matrices(np.concatenate([1.0 - sq, 2.0 * vals], axis=1) / (1.0 + sq))


def pairwise_reference(est: np.ndarray, gt: np.ndarray) -> tuple[float, float]:
    """Mean and median over pairs i < j of the angle between the estimated
    and the true relative rotation, one row of pairs at a time."""
    angles = []
    for i in range(len(est) - 1):
        rel_est = est[i] @ np.swapaxes(est[i + 1:], 1, 2)
        rel_gt = gt[i] @ np.swapaxes(gt[i + 1:], 1, 2)
        tr = np.sum(rel_est * rel_gt, axis=(1, 2))
        angles.append(np.degrees(np.arccos(np.clip((tr - 1.0) / 2.0, -1.0, 1.0))))
    ang = np.concatenate(angles)
    return float(np.mean(ang)), float(np.median(ang))


def _env_nodes(path: Path) -> int | None:
    """Node count from an environment file's header."""
    with open(path, encoding="utf-8") as fh:
        return next((int(line.split()[1]) for line in fh if line.startswith("nodes ")), None)


def _summary_stats(path: Path, iters: int) -> tuple[int, float, float, float]:
    """Row count, censored steps-to-5-degree mean, nAUC mean and the
    median final absolute error of the mrp rows, parsed without rotavg."""
    with open(path, encoding="utf-8") as fh:
        header, *rows = [line.rstrip("\n").split(",") for line in fh]
    col = {c: k for k, c in enumerate(header)}
    steps = [iters if r[col["steps_to_5deg"]] == "NotConverged" else int(r[col["steps_to_5deg"]])
             for r in rows]
    nauc = [float(r[col["nauc"]]) for r in rows]
    mrp_abs = [float(r[col["final_abs_median_deg"]]) for r in rows if r[col["algorithm"]] == "mrp"]
    nan = float("nan")
    return (len(rows), float(np.mean(steps)) if rows else nan,
            float(np.mean(nauc)) if rows else nan,
            float(np.median(mrp_abs)) if mrp_abs else nan)


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_pass(w: Workload, seed: int, inputs: dict, pass_dir: Path,
             tracer: tracing.Tracer | None = None, check_eval: bool = True) -> PassResult:
    """One pass of workload ``w`` in a fresh ``pass_dir``.  ``check_eval``
    runs the pairwise reference loop against ``rotavg eval``; a pass
    whose outputs match the first pass byte for byte can skip it."""
    shutil.rmtree(pass_dir, ignore_errors=True)
    pass_dir.mkdir(parents=True)
    env_seed, run_seed = workload_seeds(seed)
    clock = Clock()
    checks: list[Check] = []
    env_dir = pass_dir / "envs"
    grid = ["--batch", w.batch, "--iters", w.iters, "--checkpoint-every", w.checkpoint_every]

    if w.source == "gen":
        setup = ["gen", "--n", w.n_nodes, "--k", w.k, "--count", w.envs,
                 "--seed", env_seed, "--out", env_dir]
        envs = [env_dir / f"env_{env_seed + e}.txt" for e in range(w.envs)]
    else:
        setup = ["import", "--in", inputs["edges"], "--gt", inputs["gt"],
                 "--out", env_dir / "scene.txt"]
        envs = [env_dir / "scene.txt"]
    # setup is short, so it is repeated (rewriting the same files) and
    # the pass counts its median once
    setup_wall, setup_cpu = [], []
    for _ in range(SETUP_REPEATS):
        _cli("setup", setup, clock, checks, tracer)
        setup_wall.append(clock.wall["setup"])
        setup_cpu.append(clock.cpu["setup"])
    clock.wall["setup"] = statistics.median(setup_wall)
    clock.cpu["setup"] = statistics.median(setup_cpu)
    bench_dir = pass_dir / "bench"
    _cli("bench", ["bench", "--envs", *envs, "--algos", ",".join(w.algos),
                   "--seeds", run_seed, *grid, "--jobs", 1,
                   "--out", bench_dir], clock, checks, tracer)
    run_dir = pass_dir / "run"
    _cli("run", ["run", "--env", envs[0], "--algo", w.check_algo, "--seed", run_seed,
                 *grid, "--out", run_dir, "--save-estimates"], clock, checks, tracer)
    est_path = run_dir / f"estimates_{w.check_algo}_{run_seed}.txt"
    eval_path = pass_dir / "eval.txt"
    _cli("eval", ["eval", "--env", envs[0], "--estimates", est_path, "--out", eval_path],
         clock, checks, tracer)

    for env in envs:
        nodes = _env_nodes(env) if env.is_file() else None
        checks.append(Check(f"{env.name} has {w.n_nodes} nodes", nodes == w.n_nodes,
                            f"{nodes} nodes"))
    n_cells = len(envs) * len(w.algos)
    summary = bench_dir / "summary.csv"
    rows, steps_mean, nauc_mean, final_abs = (
        _summary_stats(summary, w.iters) if summary.is_file() else (0, *[float("nan")] * 3))
    checks.append(Check("summary row count", rows == n_cells, f"{rows} of {n_cells}"))
    checks.append(Check("no failures.txt", not (bench_dir / "failures.txt").exists()))
    traces = [bench_dir / env.stem / f"trace_{algo}_{run_seed}.csv"
              for env in envs for algo in w.algos]
    checks += [_check_trace(p, w.iters) for p in traces]

    bench_trace = bench_dir / envs[0].stem / f"trace_{w.check_algo}_{run_seed}.csv"
    if check_eval:
        checks.append(_check_eval(eval_path, bench_trace, est_path, envs[0]))

    outputs = [summary, *traces, run_dir / bench_trace.name, est_path, eval_path, *envs]
    hashes = {str(p.relative_to(pass_dir)): _digest(p) for p in outputs if p.is_file()}
    return PassResult(clock, n_cells * w.iters, hashes, checks, steps_mean, nauc_mean,
                      final_abs, envs[0], est_path, tracer)


def _check_eval(eval_path: Path, bench_trace: Path, est_path: Path, env: Path) -> Check:
    """``rotavg eval`` on the saved estimates reproduces the bench trace's
    last row exactly, and its pairwise error matches the reference loop."""
    name = "eval reproduces the trace and the reference pairwise error"
    if not (eval_path.is_file() and bench_trace.is_file() and est_path.is_file()):
        return Check(name, False, "missing eval, trace or estimate file")
    with open(eval_path, encoding="utf-8") as fh:
        report = dict(line.split() for line in fh if line.strip())
    header = "step,ape_mean_deg,ape_median_deg,rel_mean_deg,rel_median_deg," \
             "abs_mean_deg,abs_median_deg".split(",")
    last = dict(zip(header, _read_trace(bench_trace)[-1]))
    mismatched = [k for k in report if report[k] != last.get(k)]
    if mismatched:
        return Check(name, False, f"eval differs from the trace in {mismatched}")
    est = _estimate_matrices(est_path)
    gt = quat_matrices(np.array(_read_rows(env, "gt")))
    ref_mean, ref_median = pairwise_reference(est, gt)
    err = max(abs(ref_mean - float(report["ape_mean_deg"])),
              abs(ref_median - float(report["ape_median_deg"])))
    return Check(name, err <= PAIRWISE_TOL_DEG, f"pairwise differs by {err:.3g} deg")


def probe(w: Workload, env_path: Path, est_path: Path) -> dict[str, float]:
    """Untraced per-step time of each algorithm on this workload's
    environment and batch, and the peak memory of one pairwise-metric
    call on the final estimates."""
    env = envio.load_env(env_path)
    out = {}
    for algo in averaging.ALGORITHMS:
        cfg = averaging.OptimizerConfig(algo, batch_size=w.batch, seed=0)
        rng = np.random.default_rng(0)
        est = averaging.initial_estimates(env, cfg, rng)
        step = averaging.STEP_FUNCTIONS[algo]
        blocks = []
        for _ in range(PROBE_BLOCKS):
            t0 = time.perf_counter()
            for _ in range(PROBE_STEPS):
                step(est, env, cfg, rng)
            blocks.append((time.perf_counter() - t0) / PROBE_STEPS)
        out[f"averaging.step.{algo}.us"] = 1e6 * statistics.median(blocks)
    est = envio.load_estimates(est_path)
    tracemalloc.start()
    try:
        metrics.avg_pairwise_error(est, env.ground_truth)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    out["metrics.pairwise.peak_mb"] = peak / 2**20
    return out


def _git_commit() -> str | None:
    """The checkout's commit, or None outside a git repository."""
    if not (ROOT / ".git").exists():  # not the commit of an enclosing repository
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def manifest(w: Workload, seed: int, passes: int, traced_passes: int) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": w.name,
        "params": {k: v for k, v in vars(w).items() if k != "name"},
        "seed": seed,
        "passes": passes,
        "traced_passes": traced_passes,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "rotavg": rotavg.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": _git_commit(),
    }


def _median(values) -> float:
    return float(statistics.median(values))


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 work_dir: Path) -> dict:
    """Repeat passes for ``seconds`` and summarize them."""
    inputs = {}
    if w.source == "sfm":
        inputs["edges"], inputs["gt"] = write_sfm_scene(w, seed, work_dir / "inputs")
    passes: list[PassResult] = []
    durations: list[float] = []  # wall seconds of each pass, checks included
    t_start = time.perf_counter()

    def another_pass_fits() -> bool:
        # a run ends within ``seconds`` unless it needs a pass that does not fit
        if len(passes) < (2 if trace else 1):
            return True
        return time.perf_counter() - t_start + statistics.median(durations) <= seconds

    while another_pass_fits():
        t_pass = time.perf_counter()
        tracer = tracing.Tracer() if trace and len(passes) % 2 == 1 else None
        with tracing.installed(tracer) if tracer else contextlib.nullcontext():
            result = run_pass(w, seed, inputs, work_dir / "pass", tracer,
                              check_eval=not passes)
        if passes:
            same = result.hashes == passes[0].hashes
            result.checks.append(Check("outputs byte-identical to the first pass", same))
        passes.append(result)
        durations.append(time.perf_counter() - t_pass)
        print(f"{w.name} pass {len(passes)}{' traced' if tracer else ''}: "
              f"{result.wall_s:.3f} s, {result.cpu_s:.3f} s CPU", file=sys.stderr)

    plain = [p for p in passes if p.tracer is None]
    traced = [p for p in passes if p.tracer is not None]
    checks = [c for p in passes for c in p.checks]
    failed = [c for c in checks if not c.ok]
    first = passes[0]
    end_to_end = {
        "pass_cpu_s": _median(p.cpu_s for p in plain),
        "steps_per_cpu_s": _median(p.steps / p.clock.cpu["bench"] for p in plain),
        "setup_s": _median(p.clock.cpu["setup"] for p in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (len(checks) - len(failed)) / len(checks),
        "steps_to_5deg_mean": first.steps_to_5deg_mean,
    }
    result = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "failed_checks": [vars(c) for c in failed],
        "end_to_end": end_to_end,
        "nauc_mean": first.nauc_mean,
        "final_abs_deg": first.final_abs_deg,
        "pass_duration_s": durations,
        "pass_wall_s": [p.clock.wall for p in passes],
        "pass_cpu_s": [p.clock.cpu for p in passes],
        "manifest": manifest(w, seed, len(passes), len(traced)),
    }
    if traced:
        per_pass = [tracing.layer_metrics(p.tracer) for p in traced]
        layers = {k: _median(m[k] for m in per_pass) for k in per_pass[0]}
        layers.update(probe(w, passes[-1].env_path, passes[-1].est_path))
        layers["trace.overhead_frac"] = (
            _median(p.cpu_s for p in traced) / end_to_end["pass_cpu_s"] - 1.0)
        result["per_layer"] = layers
        result["spans"] = [p.tracer.arrays() for p in traced]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)

    if Path(rotavg.__file__).resolve().parent != ROOT / "src" / "rotavg":
        print(f"rotavg imported from {rotavg.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    result = run_workload(w, args.seed, args.seconds, bool(args.trace), args.work_dir)
    spans = result.pop("spans", None)
    if spans:
        np.savez_compressed(
            args.result.with_suffix(".spans.npz"),
            **{f"pass{k}_{key}": v for k, arrs in enumerate(spans) for key, v in arrs.items()},
        )
    args.result.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
