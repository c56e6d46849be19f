"""Command-line driver: generate environments, run and benchmark the
averaging algorithms, import edge lists, evaluate stored estimates.

Exit codes: 0 success, 1 usage error, 2 data error (unreadable or
inconsistent inputs), 3 internal error.  Every command is deterministic
given its flags; rerunning overwrites its outputs byte-identically.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import suppress
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import io as envio
from . import envgraph, metrics
from .averaging import INIT_MODES, OptimizerConfig, check_run, run_averaging
from .envgraph import ConnectivityFailure, GeneratorConfig, generate_uniform_env

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

# CLI algorithm tokens (used in flags and filenames) -> library names
ALGO_TOKENS = {"so3": "so3", "quat": "quaternion", "mrp": "mrp"}

# Convergence milestones as fractions of the iteration budget; at the
# 300K budget these are the familiar 30K/70K/100K/150K/300K columns.
MILESTONE_FRACTIONS = (0.1, 7.0 / 30.0, 1.0 / 3.0, 0.5, 1.0)

# An MRP clamp this large never fires on sane problems; warn instead of
# silently running unclamped.
_INERT_ETA = 100.0


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _checked(cfg):
    """``cfg`` once its validate() passes; a bad value is a usage error."""
    try:
        cfg.validate()
    except ValueError as exc:
        raise UsageError(str(exc))
    return cfg


# gen spec keys, which are also the gen command's flags -> (GeneratorConfig field, type);
# a key left out takes its value from _GEN_DEFAULTS: GeneratorConfig's defaults, at 100 nodes
_GEN_KEYS = {"n": ("n_nodes", int), "k": ("k_neighbors", int), "seed": ("seed", int),
             "mode": ("neighborhood_mode", str), "epsilon": ("epsilon", float)}
_GEN_DEFAULTS = GeneratorConfig(n_nodes=100)


def _gen_config(**values) -> GeneratorConfig:
    """A checked GeneratorConfig from gen spec keys."""
    return _checked(replace(_GEN_DEFAULTS, **{_GEN_KEYS[k][0]: v for k, v in values.items()}))


def _parse_gen_spec(spec: str) -> GeneratorConfig:
    body = spec[len("gen:"):]
    values = {}
    if body:
        for part in body.split(","):
            if "=" not in part:
                raise UsageError(f"bad gen spec field {part!r} (want key=value)")
            key, value = part.split("=", 1)
            if key not in _GEN_KEYS:
                raise UsageError(f"unknown gen spec key {key!r}")
            try:
                values[key] = _GEN_KEYS[key][1](value)
            except ValueError:
                raise UsageError(f"bad gen spec value {key}={value!r}") from None
    return _gen_config(**values)


def _load_env_source(source: str):
    if source.startswith("gen:"):
        return generate_uniform_env(_parse_gen_spec(source))
    return envio.load_env(source)


def _env_stem(source: str) -> str:
    if source.startswith("gen:"):
        return re.sub(r"[^A-Za-z0-9_.-]+", "_", source).strip("_")
    stem = Path(source).stem
    # '', '.' and '..' name no subdirectory of --out
    return "_" * max(len(stem), 1) if stem in ("", ".", "..") else stem


# run parameters: run and bench flags -> OptimizerConfig fields
_RUN_PARAMS = {"gamma": "gamma", "eta": "eta", "batch": "batch_size", "iters": "max_iters",
               "checkpoint_every": "checkpoint_every", "init": "init"}


def _build_config(algo_token: str, settings: dict, seed: int = 0) -> OptimizerConfig:
    fields = {field: settings[key] for key, field in _RUN_PARAMS.items()}
    if fields["checkpoint_every"] is None:
        # dense logging for short budgets, coarser for long synthetic runs
        fields["checkpoint_every"] = 1000 if fields["max_iters"] >= 100_000 else 200
    cfg = _checked(OptimizerConfig(ALGO_TOKENS[algo_token], seed=seed, **fields))
    if cfg.algorithm == "mrp" and cfg.eta >= _INERT_ETA:
        print(f"warning: eta={cfg.eta:g} is so large the MRP gradient "
              "clamp will never fire", file=sys.stderr)
    return cfg


def _record_run(out_dir, env_label, algo_token, cfg, trace) -> envio.SummaryRow:
    """Write a run's trace to ``out_dir``, made here, as trace_<algo>_<seed>.csv
    and return the run's summary row."""
    os.makedirs(out_dir, exist_ok=True)
    envio.export_trace(trace, Path(out_dir) / f"trace_{algo_token}_{cfg.seed}.csv")
    # nAUC needs ground truth; each final_<metric> column is <metric> of the last record
    nauc = metrics.nauc(trace) if trace[-1].ape_mean_deg is not None else None
    finals = [getattr(trace[-1], name.removeprefix("final_"))
              for name in envio.SUMMARY_COLUMNS if name.startswith("final_")]
    return envio.SummaryRow(env_label, algo_token, cfg.seed, nauc,
                            metrics.steps_to_threshold(trace), *finals)


def cmd_gen(args) -> int:
    if args.count < 1:
        raise UsageError("--count must be >= 1")
    base = _gen_config(**{key: getattr(args, key) for key in _GEN_KEYS})
    _checked(replace(base, seed=args.seed + args.count - 1))  # the last seed is in range too
    os.makedirs(args.out, exist_ok=True)
    failures = 0
    for seed in range(args.seed, args.seed + args.count):
        cfg = replace(base, seed=seed)
        try:
            env = generate_uniform_env(cfg)
        except ConnectivityFailure as exc:
            print(f"env seed={seed}: {exc}", file=sys.stderr)
            failures += 1
            continue
        path = Path(args.out) / f"env_{seed}.txt"
        envio.save_env(env, path)
        print(f"wrote {path} ({env.n_nodes} nodes, {env.n_edges} edges)")
    return EXIT_DATA if failures else EXIT_OK


def cmd_run(args) -> int:
    cfg = _build_config(args.algo, vars(args), args.seed)
    env = _load_env_source(args.env)
    check_run(env, cfg)  # a batch the env cannot fill makes no --out
    os.makedirs(args.out, exist_ok=True)  # an unusable --out fails before the run

    estimates, trace = run_averaging(env, cfg)

    row = _record_run(args.out, args.env, args.algo, cfg, trace)
    envio.export_summary([row], Path(args.out) / "summary.csv")
    if args.save_estimates:
        envio.save_estimates(
            estimates, Path(args.out) / f"estimates_{args.algo}_{args.seed}.txt"
        )

    if row.steps_to_5deg is not None:
        print(f"converged below 5 deg at step {row.steps_to_5deg}")
    elif row.final_ape_mean_deg is not None:
        print(f"not converged; final mean pairwise error "
              f"{row.final_ape_mean_deg:.3f} deg")
    else:
        print(f"finished; final mean relative error "
              f"{row.final_rel_mean_deg:.3f} deg (no ground truth)")
    return EXIT_OK


def _failure_message(exc) -> str:
    return f"{type(exc).__name__}: {exc}"


def _bench_ensemble(task):
    """Run grid cells of one algorithm as one ensemble and write their
    traces; return each cell's summary row, or the ensemble's failure message.

    The ensemble goes through run_averaging, as ``rotavg run`` does, so
    every optimization loop of the CLI is one call of that name (the
    traced benchmark run counts and times loops there).
    """
    cells, envs, cfgs, cell_dirs = task
    try:
        results = run_averaging(envs, cfgs)
        return {(source, algo, seed): _record_run(cell_dir, source, algo, cfg, trace)
                for (source, algo, seed), (_, trace), cfg, cell_dir
                in zip(cells, results, cfgs, cell_dirs)}
    except Exception as exc:  # every cell of the ensemble fails; the grid goes on
        return dict.fromkeys(cells, _failure_message(exc))


def _unique_stems(envs):
    """Per-source output directory names, no two alike: a repeated stem
    gets the first suffix __2, __3, ... that is no source's own stem."""
    own = {_env_stem(env) for env in envs}
    stems = {}
    for env in envs:
        name = base = _env_stem(env)
        k = 1
        while name in stems.values() or (k > 1 and name in own):
            k += 1
            name = f"{base}__{k}"
        stems[env] = name
    return stems


def _remove_earlier_traces(out: Path) -> None:
    """Delete the traces an earlier summary.csv in ``out`` names, then their empty
    folders.  A trace is looked for under every __k suffix of its source's stem: a
    source that failed in every cell is not in the summary, yet took a suffix."""
    with suppress(OSError, envio.ParseError):  # no earlier summary: nothing to delete
        rows = envio.load_summary(out / "summary.csv")
        folders = [p for p in out.iterdir() if p.is_dir()]
        cells = [(d, r) for r in rows for d in folders
                 if re.fullmatch(re.escape(_env_stem(r.env)) + "(__[0-9]+)?", d.name)]
        for cell_dir, r in cells:
            if r.algorithm in ALGO_TOKENS:
                (cell_dir / f"trace_{r.algorithm}_{r.seed}.csv").unlink(missing_ok=True)
        for cell_dir in {cell_dir for cell_dir, _ in cells}:
            with suppress(OSError):  # it still holds other files
                cell_dir.rmdir()


def _parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            lo, hi = map(int, part.split("-")) if "-" in part else (int(part), int(part))
        except ValueError:
            raise UsageError(f"bad seed {part!r} (want a non-negative integer "
                             "or a range lo-hi)") from None
        if hi < lo:
            raise UsageError(f"seed range {part!r} runs backwards")
        seeds.extend(range(lo, hi + 1))
    if not seeds:
        raise UsageError("empty seed list")
    return seeds


def aggregate_table(rows, max_iters: int):
    """The aggregate table's header and its string cells, one row per algorithm.

    Pure function of the summary rows, so the aggregate files can be
    recomputed offline from summary.csv.  Convergence is undefined without
    ground truth, so the conv% and steps cells are over the runs that have
    it, and empty when none does.  steps_mean counts a run that did not
    converge at the full budget (censored mean); steps_max reads
    NotConverged when any run did not converge, steps_min when none did.
    """
    milestones = sorted({max(1, round(f * max_iters)) for f in MILESTONE_FRACTIONS})
    header = ["algorithm", "runs", *(f"conv%@{m}" for m in milestones), "steps_mean",
              "steps_max", "steps_min", "nauc_mean", "nauc_max", "nauc_min",
              "final_mean_deg", "final_median_deg"]

    def cells(values, *stats):
        return [f"{float(stat(values)):.4g}" if values else "" for stat in stats]

    order = [t for t in ALGO_TOKENS if any(r.algorithm == t for r in rows)]
    order += sorted({r.algorithm for r in rows} - set(order))
    table = []
    for algo in order:
        algo_rows = [r for r in rows if r.algorithm == algo]
        truth_rows = [r for r in algo_rows if r.final_ape_mean_deg is not None]
        truth_steps = [r.steps_to_5deg for r in truth_rows]
        steps = [s for s in truth_steps if s is not None]
        conv, extremes = [""] * len(milestones), ["", ""]  # no ground truth, no convergence
        if truth_rows:
            conv = [f"{100.0 * sum(s <= m for s in steps) / len(truth_rows):.0f}%"
                    for m in milestones]
            extremes = [str(max(steps)) if len(steps) == len(truth_rows) else envio.NOT_CONVERGED,
                        str(min(steps)) if steps else envio.NOT_CONVERGED]
        table.append([algo, str(len(algo_rows)), *conv,
                      *cells([max_iters if s is None else s for s in truth_steps], np.mean),
                      *extremes, *cells([r.nauc for r in algo_rows if r.nauc is not None],
                                        np.mean, np.max, np.min),
                      *cells([r.final_ape_mean_deg for r in truth_rows], np.mean, np.median)])
    return header, table


def _write_aggregate(rows, max_iters, out_dir) -> None:
    """Write the aggregate table as fixed-width aggregate.txt and aggregate.csv; print the text."""
    header, table = aggregate_table(rows, max_iters)
    widths = [max(map(len, column)) for column in zip(header, *table)]
    lines = [f"# aggregate over {len(rows)} runs, budget {max_iters} steps"]
    lines += ["  ".join(c.ljust(w) for c, w in zip(row, widths)) for row in [header, *table]]
    text = "\n".join(lines) + "\n"
    envio.write_text(Path(out_dir) / "aggregate.txt", text)
    # the CSV's conv% cells drop their "%"; the algorithm name is kept whole
    csv_rows = [[row[0], *(cell.rstrip("%") for cell in row[1:])] for row in table]
    envio.write_text(Path(out_dir) / "aggregate.csv", envio.csv_text(header, csv_rows))
    print(text, end="")


def _run_grid(cells, configs, jobs, stems, out_dir):
    """Each bench grid cell's summary row, or its failure message.

    Each environment is loaded once.  A failure found before stepping
    (loading, a batch larger than the node count) fails only its own
    cells; each algorithm's other cells run as at most ``jobs``
    ensembles, in worker processes when jobs > 1 and there are several.
    """
    outcomes = {}
    loaded = {}
    for source in dict.fromkeys(source for source, _, _ in cells):
        try:
            loaded[source] = _load_env_source(source)
        except Exception as exc:  # record and continue the grid
            outcomes.update((c, _failure_message(exc)) for c in cells if c[0] == source)
    groups = {algo: [] for algo in configs}
    for cell in cells:
        source, algo, seed = cell
        if source not in loaded:
            continue
        cfg = replace(configs[algo], seed=seed)
        try:
            check_run(loaded[source], cfg)
        except ValueError as exc:
            outcomes[cell] = _failure_message(exc)
            continue
        groups[algo].append((cell, cfg))

    tasks = []
    for group in groups.values():
        n = min(jobs, len(group))
        for k in range(n):
            part_cells, cfgs = zip(*group[k * len(group) // n:(k + 1) * len(group) // n])
            tasks.append((part_cells, [loaded[c[0]] for c in part_cells], cfgs,
                          [Path(out_dir) / stems[c[0]] for c in part_cells]))
    if jobs > 1 and len(tasks) > 1:  # no more workers than ensembles
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            results = list(pool.map(_bench_ensemble, tasks))
    else:
        results = list(map(_bench_ensemble, tasks))
    for ensemble_outcomes in results:
        outcomes.update(ensemble_outcomes)
    return outcomes


def cmd_bench(args) -> int:
    envs, algos, seeds, out_dir = args.envs, args.algos, args.seeds, args.out
    if not algos:
        raise UsageError("empty algorithm list")
    for algo in algos:
        if algo not in ALGO_TOKENS:
            raise UsageError(f"unknown algorithm {algo!r} (want {', '.join(ALGO_TOKENS)})")
    for what, values in (("environment", envs), ("algorithm", algos), ("seed", seeds)):
        seen = set()
        for v in values:
            if v in seen:
                raise UsageError(f"{what} {v!r} is repeated in the bench grid")
            seen.add(v)
    configs = {algo: _build_config(algo, vars(args)) for algo in algos}
    # a malformed spec is a usage error; one that fails to generate fails its own cells
    for env in envs:
        if env.startswith("gen:"):
            _parse_gen_spec(env)
    if args.jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {args.jobs}")
    os.makedirs(out_dir, exist_ok=True)
    _remove_earlier_traces(Path(out_dir))

    stems = _unique_stems(envs)
    cells = [(env, algo, seed) for env in envs for algo in algos for seed in seeds]

    outcomes = _run_grid(cells, configs, args.jobs, stems, out_dir)
    rows = [outcomes[c] for c in cells if not isinstance(outcomes[c], str)]
    envio.export_summary(rows, Path(out_dir) / "summary.csv")
    failure_lines = [
        f"{env} {algo} seed={seed}: {outcomes[env, algo, seed]}"
        for env, algo, seed in cells
        if isinstance(outcomes[env, algo, seed], str)
    ]
    failures = Path(out_dir) / "failures.txt"
    failures.unlink(missing_ok=True)  # a reused --out keeps no earlier grid's failures
    if failure_lines:
        envio.write_text(failures, "\n".join(failure_lines) + "\n")
        for line in failure_lines:
            print(f"failed: {line}", file=sys.stderr)
    _write_aggregate(rows, args.iters, out_dir)
    return EXIT_DATA if failure_lines else EXIT_OK


def cmd_aggregate(args) -> int:
    if args.iters < 0:
        raise UsageError(f"--iters must be >= 0, got {args.iters}")
    rows = envio.load_summary(args.summary)
    # conv% and steps_mean fold runs at the budget; a later step would contradict them
    last = max((row.steps_to_5deg or 0 for row in rows), default=0)
    if last > args.iters:
        raise UsageError(f"--iters {args.iters} is below step {last}, "
                         "the largest steps_to_5deg in the summary")
    os.makedirs(args.out, exist_ok=True)
    _write_aggregate(rows, args.iters, args.out)
    return EXIT_OK


def cmd_import(args) -> int:
    env, report = envio.import_1dsfm(args.infile, gt_path=args.gt, strict=args.strict)
    out = Path(args.out)
    os.makedirs(out.parent, exist_ok=True)
    envio.save_env(env, out)
    for line in report.lines():
        print(line)
    print(f"wrote {out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    env = _load_env_source(args.env)
    estimates = envio.load_estimates(args.estimates)
    if estimates.n_nodes != env.n_nodes:
        raise UsageError(
            f"estimate count {estimates.n_nodes} does not match "
            f"environment node count {env.n_nodes}"
        )
    rec = metrics.evaluate(estimates, env, 0)
    names = [f"{kind}_{stat}_deg" for kind in ("rel", "ape", "abs") for stat in ("mean", "median")]
    # without ground truth only the relative errors are defined
    lines = [f"{name} {envio.format_float(getattr(rec, name))}"
             for name in names if getattr(rec, name) is not None]
    report = "\n".join(lines) + "\n"
    if args.out:
        os.makedirs(Path(args.out).parent, exist_ok=True)  # after the report: a failure makes none
        envio.write_text(args.out, report)
    print(report, end="")
    return EXIT_OK


def _add_run_params(p: argparse.ArgumentParser) -> None:
    defaults = OptimizerConfig(algorithm="mrp")
    p.add_argument("--gamma", type=float, default=defaults.gamma, help="learning rate")
    p.add_argument("--eta", type=float, default=defaults.eta, help="max MRP gradient norm")
    p.add_argument("--batch", type=int, default=defaults.batch_size, help="batch size")
    p.add_argument("--iters", type=int, default=defaults.max_iters, help="batch steps to run")
    p.add_argument("--checkpoint-every", type=int, default=None,
                   dest="checkpoint_every",
                   help="metric cadence (default: 1000 for budgets >= 100K, else 200)")
    p.add_argument("--init", choices=INIT_MODES, default=defaults.init,
                   help="initial estimates")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rotavg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate synthetic environments")
    p.add_argument("--n", type=int, default=_GEN_DEFAULTS.n_nodes, help="nodes per environment")
    p.add_argument("--k", type=int, default=_GEN_DEFAULTS.k_neighbors, help="nearest neighbors")
    p.add_argument("--seed", type=int, default=_GEN_DEFAULTS.seed, help="first seed")
    p.add_argument("--count", type=int, default=1, help="number of environments")
    p.add_argument("--mode", choices=envgraph.NEIGHBORHOOD_MODES,
                   default=_GEN_DEFAULTS.neighborhood_mode)
    p.add_argument("--epsilon", type=float, default=_GEN_DEFAULTS.epsilon,
                   help="neighborhood radius in radians (epsilon mode)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("run", help="run one optimization")
    p.add_argument("--env", required=True,
                   help="environment file or gen:n=...,k=...,seed=... spec")
    p.add_argument("--algo", required=True, choices=tuple(ALGO_TOKENS))
    p.add_argument("--seed", type=int, default=0, help="run seed")
    _add_run_params(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--save-estimates", action="store_true", dest="save_estimates")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("bench", help="run a benchmark grid")
    p.add_argument("--envs", nargs="+", required=True, help="environment files or gen: specs")
    p.add_argument("--algos", default=",".join(ALGO_TOKENS),
                   type=lambda text: [a.strip() for a in text.split(",") if a.strip()],
                   help="comma-separated algorithms")
    p.add_argument("--seeds", type=_parse_seeds, default="0",
                   help="seed list, e.g. 0,1,2 or 0-9")
    _add_run_params(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes; each algorithm's cells run as at "
                        "most this many ensembles")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("aggregate", help="recompute aggregate tables from a summary")
    p.add_argument("--summary", required=True, help="summary.csv path")
    p.add_argument("--iters", type=int, required=True,
                   help="iteration budget the summary was produced with")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser("import", help="import a 1DSfM-style edge list")
    p.add_argument("--in", dest="infile", required=True, help="edge-list file")
    p.add_argument("--gt", default=None, help="ground-truth rotations file")
    p.add_argument("--strict", action="store_true",
                   help="reject rows with unknown trailing columns")
    p.add_argument("--out", required=True, help="canonical environment file to write")
    p.set_defaults(func=cmd_import)

    p = sub.add_parser("eval", help="evaluate stored estimates on an environment")
    p.add_argument("--env", required=True,
                   help="environment file or gen:n=...,k=...,seed=... spec")
    p.add_argument("--estimates", required=True, help="estimate-set file")
    p.add_argument("--out", default=None, help="optional report file")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, ConnectivityFailure, OSError) as exc:  # io's errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # pragma: no cover - invariant violations
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
