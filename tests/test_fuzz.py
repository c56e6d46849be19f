"""Mutation fuzzing of the file parsers and of the commands that read files.

Each test starts from a valid file, applies byte and line mutations drawn
by Hypothesis (optionally after dropping the checksum line, so that the
mutated content reaches the parser proper), and checks that the parser
either accepts the result or raises one of the documented data errors,
and that ``rotavg eval`` and ``rotavg import`` never report an internal
error (exit 3) on it.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rotavg import io as envio
from rotavg import rotmath
from rotavg.averaging import EstimateSet
from rotavg.cli import main
from rotavg.envgraph import GeneratorConfig, generate_uniform_env

DATA_ERRORS = (envio.ParseError, envio.ChecksumMismatch, envio.EmptyGraph)

FUZZ = settings(
    max_examples=120,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

# tokens that hit the parsers' edge cases: non-finite and extreme numbers,
# negative and huge counts (numpy refuses 10^12 rows at once), junk
TOKENS = [b"nan", b"inf", b"-inf", b"1e308", b"1e-320", b"-1", b"0", b"1",
          b"1000000000000", b"99999999999999999999999", b"x", b"", b"#", b"\x00", b"\xff"]


@st.composite
def mutations(draw, data: bytes) -> bytes:
    lines = data.split(b"\n")
    if draw(st.booleans()):
        lines = [line for line in lines if not line.startswith(b"checksum")]
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["byte", "insert", "delete", "drop_line",
                                   "dup_line", "swap_lines", "token", "count"]))
        k = draw(st.integers(0, len(lines) - 1))
        if op == "drop_line" and len(lines) > 1:
            del lines[k]
        elif op == "dup_line":
            lines.insert(k, lines[k])
        elif op == "swap_lines":
            m = draw(st.integers(0, len(lines) - 1))
            lines[k], lines[m] = lines[m], lines[k]
        elif op == "count":  # the header-count mutation: a count no file can back
            k = draw(st.integers(0, min(3, len(lines) - 1)))
            lines[k] = b" ".join(lines[k].split(b" ")[:-1] + [b"1000000000000"])
        elif op == "token":
            tokens = lines[k].split(b" ")
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(TOKENS))
            lines[k] = b" ".join(tokens)
        else:
            line = bytearray(lines[k])
            pos = draw(st.integers(0, len(line)))
            if op == "insert":
                line[pos:pos] = bytes([draw(st.integers(0, 255))])
            elif line:
                pos = min(pos, len(line) - 1)
                if op == "byte":
                    line[pos] = draw(st.integers(0, 255))
                else:
                    del line[pos:pos + draw(st.integers(1, 8))]
            lines[k] = bytes(line)
    return b"\n".join(lines)


_TMP = tempfile.TemporaryDirectory()


def _write(data: bytes, name: str) -> Path:
    path = Path(_TMP.name) / name
    path.write_bytes(data)
    return path


def _saved(save, obj, name: str) -> bytes:
    path = Path(_TMP.name) / f"valid_{name}"
    save(obj, path)
    return path.read_bytes()


ENV = generate_uniform_env(GeneratorConfig(n_nodes=6, k_neighbors=2, seed=3))
ENV_BYTES = _saved(envio.save_env, ENV, "env.txt")
EST_BYTES = {
    param: _saved(envio.save_estimates,
                  EstimateSet.from_quaternions(ENV.ground_truth_quats, param), f"{param}.txt")
    for param in ("so3_matrix", "quaternion", "mrp")
}
SUMMARY_BYTES = _saved(envio.export_summary, [
    envio.SummaryRow("env_0.txt", "mrp", 0, 5.08, 37000, 1.0, 0.5, 0.25, 0.2, 0.9, 0.4),
    envio.SummaryRow("env_0.txt", "so3", 1, 24.47, None, 30.0, 20.0, 10.0, 5.0, 40.0, 30.0),
    envio.SummaryRow("scene.txt", "quat", 2, None, None, None, None, 3.0, 2.0, None, None),
], "summary.csv")


def _eg_bytes():
    gt = ENV.ground_truth
    rows = [f"{i} {j} " + " ".join(f"{x:.17g}" for x in (gt[i] @ gt[j].T).reshape(-1))
            + " 0.5 -1 2" for i, j in ENV.edge_index]
    quats = rotmath.matrix_to_quat(gt)
    gt_rows = [f"{i} " + " ".join(f"{x:.17g}" for x in q) for i, q in enumerate(quats)]
    return ("\n".join(rows) + "\n").encode(), ("\n".join(gt_rows) + "\n").encode()


EG_BYTES, GT_BYTES = _eg_bytes()


def _loads_or_data_error(load, path):
    try:
        load(path)
    except DATA_ERRORS:
        pass


def _exit_code(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main([str(a) for a in argv])


@FUZZ
@given(st.data())
def test_env_parser(data):
    _loads_or_data_error(envio.load_env, _write(data.draw(mutations(ENV_BYTES)), "env.txt"))


@pytest.mark.parametrize("param", sorted(EST_BYTES))
@FUZZ
@given(st.data())
def test_estimate_parser(param, data):
    mutated = data.draw(mutations(EST_BYTES[param]))
    _loads_or_data_error(envio.load_estimates, _write(mutated, "est.txt"))


@FUZZ
@given(st.data())
def test_summary_parser(data):
    _loads_or_data_error(envio.load_summary, _write(data.draw(mutations(SUMMARY_BYTES)), "s.csv"))


@pytest.mark.parametrize("strict", [False, True])
@FUZZ
@given(st.data())
def test_1dsfm_parser(strict, data):
    eg = _write(data.draw(mutations(EG_BYTES)), "eg.txt")
    gt = _write(data.draw(mutations(GT_BYTES)) if data.draw(st.booleans()) else GT_BYTES, "gt.txt")
    try:
        envio.import_1dsfm(eg, gt_path=gt, strict=strict)
    except DATA_ERRORS:
        pass


@settings(FUZZ, max_examples=60)
@given(st.data())
def test_eval_never_exits_internal(data):
    env = _write(data.draw(mutations(ENV_BYTES)), "env.txt")
    param = data.draw(st.sampled_from(sorted(EST_BYTES)))
    est = _write(data.draw(mutations(EST_BYTES[param])), "est.txt")
    assert _exit_code("eval", "--env", env, "--estimates", est) in (0, 1, 2)


@settings(FUZZ, max_examples=60)
@given(st.data())
def test_import_never_exits_internal(data):
    eg = _write(data.draw(mutations(EG_BYTES)), "eg.txt")
    gt = _write(data.draw(mutations(GT_BYTES)), "gt.txt")
    out = Path(_TMP.name) / "imported.txt"
    assert _exit_code("import", "--in", eg, "--gt", gt, "--out", out) in (0, 2)


def test_unmutated_inputs_parse():
    # the fixtures themselves parse, so every failure above comes from a mutation
    envio.load_env(_write(ENV_BYTES, "env.txt"))
    for raw in EST_BYTES.values():
        envio.load_estimates(_write(raw, "est.txt"))
    assert len(envio.load_summary(_write(SUMMARY_BYTES, "s.csv"))) == 3
    env, _ = envio.import_1dsfm(_write(EG_BYTES, "eg.txt"), gt_path=_write(GT_BYTES, "gt.txt"))
    assert env.n_nodes == ENV.n_nodes and np.isfinite(env.edge_quats).all()
