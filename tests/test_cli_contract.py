"""Property test of the CLI contract for numeric flags and source names.

``rotavg run`` and ``rotavg bench`` get flag values drawn from the edges
of their types (zero, subnormals, 1e308, inf, nan, negatives, integers up
to 10**30) and sources named with dots, path separators and gen-spec
characters.  Whatever is drawn, the command exits 0, 1 or 2; at 0 every
summary float is finite, or empty where there is no ground truth; at 1 or
2 stderr names a flag drawn, its config field, a source or the step; and
no file is written outside ``--out``.  Every run is small (10 nodes, at
most 20 steps): flags that size an allocation or a loop by their value
(``--iters``, ``gen:n``, ``--count``, wide seed ranges) are not drawn large.
"""

import contextlib
import csv
import io
import math
import re
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rotavg import io as envio
from rotavg.cli import _GEN_KEYS, main
from rotavg.envgraph import GeneratorConfig, RotationEnvironment, generate_uniform_env

CONTRACT = settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

SPEC = "gen:n=10,k=3,seed=1"
ENV = generate_uniform_env(GeneratorConfig(n_nodes=10, k_neighbors=3, seed=1))
NO_GT_ENV = RotationEnvironment(ENV.n_nodes, ENV.edge_index, ENV.edge_quats)

FLOATS = st.sampled_from(["0", "5e-324", "-5e-324", "1e308", "-1e308", "inf", "-inf",
                          "nan", "-1", "0.5", "0.1"])
INTS = st.one_of(st.sampled_from([0, -1, 1, 2, 10, 11, 2**63, 10**30, -10**30]),
                 st.integers(-10**30, 10**30))
ITERS = st.integers(-2, 20)
# gen specs, well- and ill-formed, with no more than 10 nodes: the last two
# generate no connected graph (epsilon 5e-324) and every pair (epsilon 1e308)
SPECS = st.sampled_from([
    SPEC, "gen:n=10,k=4,seed=18446744073709551615", "gen:n=10,k=3,seed=-1",
    "gen:n=10,k=3,seed=18446744073709551616", "gen:n=10,,k=3", "gen:n=10,k=3,seed=1=2",
    "gen:n=1e1", "gen:n=1", "gen:n=10,k=0", "gen:n=10,k=3,mode=epsilon", "gen:n=10,x=3",
    "gen:n=10,mode=epsilon,epsilon=nan", "gen:n=10,seed=2,mode=epsilon,epsilon=5e-324",
    "gen:n=10,seed=3,mode=epsilon,epsilon=1e308"])
# a path below the sources folder: one or two components of dots, separators'
# neighbours and gen-spec characters, or a name whose stem is '', '.' or '..',
# as file, missing file or no-ground-truth file
NAMES = st.one_of(
    st.sampled_from(["..txt", "...txt", ".txt", "a/..txt", "a/...", "gen:n=10.txt", "-.txt"]),
    st.lists(st.text(alphabet=".-_,=:ag1", min_size=1, max_size=6), min_size=1,
             max_size=2).map("/".join).flatmap(
                 lambda name: st.sampled_from([name, name + ".txt"])))
FILE_SOURCES = st.tuples(NAMES, st.sampled_from(["gt", "no_gt", "missing"]))


def _names(flags, sources) -> list[str]:
    """Words a failure message may name: each drawn flag, whose first word
    also begins its config field (--batch, batch_size), the step, and for
    a gen spec the words 'gen spec' and the keys it sets with their
    GeneratorConfig fields."""
    words = [flag[2:].split("-")[0] for flag in flags]
    names = ["step"] + [{"seeds": "seed"}.get(word, word) for word in words]
    for source in sources:
        if source.startswith("gen:"):
            names += ["gen spec"] + [name for key, (field, _) in _GEN_KEYS.items()
                                     if f"{key}=" in source for name in (key, field)]
    return names


def _snapshot(root: Path, out: Path) -> dict:
    """Every path under ``root`` but ``out``, its contents and its parents,
    with each file's bytes."""
    return {p: p.read_bytes() if p.is_file() else None for p in root.rglob("*")
            if p != out and out not in p.parents and p not in out.parents}


def _place_sources(root: Path, drawn) -> tuple[list[str], dict]:
    """Write the drawn file sources; return the source strings and, per
    source, whether it has ground truth."""
    sources, has_gt = [], {}
    for kind, value in drawn:
        if kind == "spec":
            sources.append(value)
            has_gt[value] = True
            continue
        name, content = value
        path = root / "in" / name
        if content != "missing":
            with contextlib.suppress(OSError):  # a component names a folder or '..'
                path.parent.mkdir(parents=True, exist_ok=True)
                envio.save_env(ENV if content == "gt" else NO_GT_ENV, path)
        sources.append(str(path))
        has_gt[str(path)] = content == "gt"
    return sources, has_gt


SOURCES = st.one_of(st.tuples(st.just("spec"), SPECS), st.tuples(st.just("file"), FILE_SOURCES))


def _check_summary(summary: Path, has_gt: dict) -> None:
    with open(summary, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        truth = has_gt[row["env"]]
        for column, cell in row.items():
            if column in ("env", "algorithm", "seed"):
                continue
            if cell == "":
                # relative errors are always defined; the others need ground truth
                assert not truth and "rel" not in column, (column, row)
            elif column == "steps_to_5deg":
                assert cell == envio.NOT_CONVERGED or int(cell) >= 0, row
            else:
                assert math.isfinite(float(cell)), (column, row)


def _check_contract(argv, flags, sources, has_gt, root, out):
    before = _snapshot(root, out)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    message = err.getvalue()
    assert code in (0, 1, 2), (argv, message)
    if code == 0 or (out / "summary.csv").exists():
        _check_summary(out / "summary.csv", has_gt)
    if code != 0:
        assert any(source in message for source in sources) or any(
            re.search(rf"(?<![A-Za-z]){name}(?![A-Za-z])", message)
            for name in _names(flags, sources)), (argv, message)
    assert _snapshot(root, out) == before, argv


@st.composite
def flag_values(draw, seed_flag):
    """Flags each drawn or left at its default, as (flag, value) pairs."""
    drawn = [("--gamma", draw(FLOATS)), ("--eta", draw(FLOATS)), ("--batch", draw(INTS)),
             ("--checkpoint-every", draw(INTS)), seed_flag(draw)]
    pairs = [pair for pair in drawn if draw(st.integers(0, 3)) == 0]
    return [("--iters", draw(ITERS))] + pairs


def _run_seed(draw):
    return "--seed", draw(INTS)


def _bench_seeds(draw):
    lo = draw(INTS)
    return "--seeds", draw(st.sampled_from([str(lo), f"{lo}-{lo + draw(st.integers(0, 2))}"]))


@CONTRACT
@given(flags=flag_values(_run_seed), source=SOURCES,
       algo=st.sampled_from(["so3", "quat", "mrp"]), save=st.booleans())
def test_run_contract(flags, source, algo, save):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        out = root / "o" / "b"
        sources, has_gt = _place_sources(root, [source])
        argv = ["run", "--env", sources[0], "--algo", algo, "--out", out]
        argv += [f"{flag}={value}" for flag, value in flags]
        _check_contract(argv + (["--save-estimates"] if save else []),
                        [flag for flag, _ in flags], sources, has_gt, root, out)


@CONTRACT
@given(flags=flag_values(_bench_seeds), drawn=st.lists(SOURCES, min_size=1, max_size=3),
       algos=st.sets(st.sampled_from(["so3", "quat", "mrp"]), min_size=1))
def test_bench_contract(flags, drawn, algos):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        out = root / "o" / "b"
        sources, has_gt = _place_sources(root, drawn)
        argv = ["bench", "--envs", *sources, "--algos", ",".join(sorted(algos)), "--out", out]
        argv += [f"{flag}={value}" for flag, value in flags]
        _check_contract(argv, [flag for flag, _ in flags], sources, has_gt, root, out)


@CONTRACT
@given(drawn=st.lists(st.tuples(st.just("file"), FILE_SOURCES), min_size=1, max_size=3),
       algos=st.sets(st.sampled_from(["so3", "quat", "mrp"]), min_size=1))
def test_bench_source_names_contract(drawn, algos):
    # valid flags, so that the grid runs and each source's name picks its folder
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        out = root / "o" / "b"
        sources, has_gt = _place_sources(root, drawn)
        argv = ["bench", "--envs", *sources, "--algos", ",".join(sorted(algos)),
                "--iters", 4, "--batch", 2, "--out", out]
        _check_contract(argv, [], sources, has_gt, root, out)
