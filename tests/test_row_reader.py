"""The one numeric row reader, io._read_table: chunks of lines parsed by
np.loadtxt and, where it rejects a chunk, line by line.  Either way a file
gives the same rows to the bit, names the same first bad line with the same
message, and a lenient import drops and counts the same rows."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotavg import io as envio
from rotavg.averaging import EstimateSet
from rotavg.envgraph import GeneratorConfig, generate_uniform_env

CHUNK = 8  # the chunk size of most tests here, so that small files span chunks


@pytest.fixture
def small_chunks(monkeypatch):
    monkeypatch.setattr(envio, "_CHUNK_ROWS", CHUNK)


def line_by_line(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with every chunk rejected by np.loadtxt, so that
    every line takes the per-line parse."""
    with mock.patch.object(np, "loadtxt", side_effect=ValueError("rejected")):
        return fn(*args, **kwargs)


def outcome(fn, *args, **kwargs):
    """What ``fn`` returns, or the data error it raises as (type, message, line)."""
    try:
        return fn(*args, **kwargs)
    except (envio.ParseError, envio.EmptyGraph) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line_no", None)


def write(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def env_lines(n):
    """A path graph on n nodes with identity rotations, without checksum;
    gt row k is line 5 + k and edge row k is line 5 + n + k."""
    return (["ROTAVG-ENV 1", f"nodes {n}", "ground-truth 1", f"edges {n - 1}"]
            + [f"gt {k} 1 0 0 0" for k in range(n)]
            + [f"edge {k} {k + 1} 1 0 0 0" for k in range(n - 1)])


def est_lines(n):
    """An mrp estimate set without checksum; row k is line 4 + k."""
    return ["ROTAVG-EST 1", "parameterization mrp", f"nodes {n}"] \
        + [f"est {k} 0.5 -0.25 0" for k in range(n)]


def eg_lines(n, columns=14):
    """A 1DSfM edge list of a path graph with identity rotations; row k is line 1 + k."""
    extra = " 0.5 1 2" if columns == 14 else ""
    return [f"{k} {k + 1} 1 0 0 0 1 0 0 0 1{extra}" for k in range(n - 1)]


def same_env(a, b):
    return a.n_nodes == b.n_nodes and np.array_equal(a.edge_index, b.edge_index) \
        and a.edge_quats.tobytes() == b.edge_quats.tobytes() \
        and (a.ground_truth is None) == (b.ground_truth is None) \
        and (a.ground_truth is None or a.ground_truth.tobytes() == b.ground_truth.tobytes())


def replace_token(line, k, token):
    tokens = line.split()
    tokens[k] = token
    return " ".join(tokens)


# edge row faults: the message each raises, and how it breaks a row
ENV_FAULTS = {
    "malformed number": ("malformed number", lambda line: replace_token(line, -2, "0x1p3")),
    "extra column": ("expected 'edge", lambda line: line + " 0"),
    "other tag": ("expected 'edge", lambda line: replace_token(line, 0, "edgy")),
    # a string field reads a trailing NUL as padding: "edge\0" would pass for "edge"
    "NUL in tag": ("expected 'edge", lambda line: line.replace("edge", "edge\x00", 1)),
    "endpoint": ("malformed edge endpoint", lambda line: replace_token(line, 1, "1.0")),
    "non-unit": ("non-unit quaternion", lambda line: replace_token(line, -4, "2")),
    "checksum": ("unexpected end of file", lambda line: "checksum 00"),
}
# rows inside the first chunk, its last and the next chunk's first, and past them
POSITIONS = [3, CHUNK - 1, CHUNK, 2 * CHUNK + 5]


class TestFaultsAcrossChunks:
    @pytest.mark.parametrize("fault", ENV_FAULTS)
    @pytest.mark.parametrize("row", POSITIONS)
    def test_env_edge_rows(self, tmp_path, small_chunks, fault, row):
        n = 3 * CHUNK + 4
        lines = env_lines(n)
        message, broken = ENV_FAULTS[fault]
        lines[4 + n + row] = broken(lines[4 + n + row])
        path = write(tmp_path / "env.txt", lines)
        got = outcome(envio.load_env, path)
        assert got == line_by_line(outcome, envio.load_env, path)
        assert got[2] == 5 + n + row and message in got[1]

    @pytest.mark.parametrize("row", POSITIONS)
    def test_env_gt_rows(self, tmp_path, small_chunks, row):
        n = 3 * CHUNK + 4
        lines = env_lines(n)
        lines[4 + row] = replace_token(lines[4 + row], 1, f"0{row}")  # written, not dense
        lines[5 + row] = replace_token(lines[5 + row], 1, f"{row + 1}\x00")
        path = write(tmp_path / "env.txt", lines)
        got = outcome(envio.load_env, path)
        assert got == line_by_line(outcome, envio.load_env, path)
        assert got[1:] == (f"{path}:{5 + row}: ground-truth ids must be dense: "
                           f"expected {row}, got '0{row}'", 5 + row)
        # ids are compared as numpy text, which drops trailing NULs
        lines[4 + row] = replace_token(lines[4 + row], 1, str(row))
        lines[6 + row] = replace_token(lines[6 + row], 1, f"{row + 2}\x00x")
        write(path, lines)
        got = outcome(envio.load_env, path)
        assert got == line_by_line(outcome, envio.load_env, path)
        assert got[2] == 7 + row

    def test_a_later_parse_fault_wins_over_an_earlier_value_fault(self, tmp_path, small_chunks):
        n = 3 * CHUNK + 4
        lines = env_lines(n)
        lines[4 + n + 1] = ENV_FAULTS["non-unit"][1](lines[4 + n + 1])
        lines[4 + n + 2 * CHUNK] = ENV_FAULTS["malformed number"][1](lines[4 + n + 2 * CHUNK])
        path = write(tmp_path / "env.txt", lines)
        got = outcome(envio.load_env, path)
        assert got == line_by_line(outcome, envio.load_env, path)
        assert got[2] == 5 + n + 2 * CHUNK and "malformed number" in got[1]

    @pytest.mark.parametrize("fault, broken", [
        ("malformed number in estimate values", lambda line: replace_token(line, 2, "1_0x")),
        ("expected 'est", lambda line: replace_token(line, 1, "+1")),
        ("has a non-finite value", lambda line: replace_token(line, 2, "1e400")),
    ])
    @pytest.mark.parametrize("row", POSITIONS)
    def test_estimate_rows(self, tmp_path, small_chunks, fault, broken, row):
        lines = est_lines(3 * CHUNK + 4)
        lines[3 + row] = broken(lines[3 + row])
        path = write(tmp_path / "est.txt", lines)
        got = outcome(envio.load_estimates, path)
        assert got == line_by_line(outcome, envio.load_estimates, path)
        assert got[2] == 4 + row and fault in got[1]

    @pytest.mark.parametrize("fault, broken", [
        ("malformed number", lambda line: replace_token(line, 5, "1.5d3")),
        ("malformed number", lambda line: replace_token(line, 0, "-9223372036854775808")),
        ("expected 11 or 14 columns, got 13", lambda line: line.rsplit(" ", 1)[0]),
    ])
    @pytest.mark.parametrize("row", POSITIONS)
    def test_strict_import_rows(self, tmp_path, small_chunks, fault, broken, row):
        lines = eg_lines(3 * CHUNK + 4)
        lines[row] = broken(lines[row])
        path = write(tmp_path / "eg.txt", lines)
        got = outcome(envio.import_1dsfm, path, strict=True)
        assert got == line_by_line(outcome, envio.import_1dsfm, path, strict=True)
        assert got[2] == 1 + row and fault in got[1]

    def test_at_the_real_chunk_size(self, tmp_path):
        n = envio._CHUNK_ROWS + 100
        for row in (5, envio._CHUNK_ROWS - 1, envio._CHUNK_ROWS, envio._CHUNK_ROWS + 50):
            lines = env_lines(n)
            lines[4 + n + row] = ENV_FAULTS["malformed number"][1](lines[4 + n + row])
            path = write(tmp_path / "env.txt", lines)
            got = outcome(envio.load_env, path)
            assert got == line_by_line(outcome, envio.load_env, path)
            assert got[2] == 5 + n + row


class TestLenientImport:
    def test_drops_and_counts_the_same_rows(self, tmp_path, small_chunks):
        lines = eg_lines(6 * CHUNK, columns=11)
        lines[2] = "2 3 1 0 0"  # too few columns
        lines[CHUNK - 1] = replace_token(lines[CHUNK - 1], 4, "nan(1)")  # float() rejects it
        lines[CHUNK] = replace_token(lines[CHUNK], 1, "1_0")  # int() reads it as 10
        lines[2 * CHUNK] = replace_token(lines[2 * CHUNK], 0, "-9223372036854775808")
        lines[2 * CHUNK + 1] = replace_token(lines[2 * CHUNK + 1], 1, str(2 * CHUNK + 1))
        lines[3 * CHUNK] += " 7 8 9 10"  # extra columns are ignored
        lines[4 * CHUNK] = replace_token(lines[4 * CHUNK], 2, "2")  # not a rotation
        lines.insert(5 * CHUNK, "# a comment")
        path = write(tmp_path / "eg.txt", lines)
        (env, report), (ref_env, ref_report) = (
            envio.import_1dsfm(path), line_by_line(envio.import_1dsfm, path))
        assert report == ref_report and same_env(env, ref_env)
        assert (report.source_edges, report.dropped_malformed, report.dropped_self_loops,
                report.dropped_not_rotation) == (len(lines) - 1, 3, 1, 1)


class TestGroundTruthTable:
    @pytest.mark.parametrize("row", POSITIONS)
    def test_repeated_id_after_a_parse_fault_names_the_parse_fault(self, tmp_path,
                                                                   small_chunks, row):
        lines = [f"{k} 1 0 0 0" for k in range(3 * CHUNK + 4)]
        lines[row + 1] = replace_token(lines[row + 1], 0, "0")  # repeats row 0's id
        lines[row] = replace_token(lines[row], 2, "x")
        path = write(tmp_path / "gt.txt", lines)
        got = outcome(envio._load_gt_table, path)
        assert got == line_by_line(outcome, envio._load_gt_table, path)
        assert got[2] == 1 + row and "malformed number" in got[1]
        lines[row] = replace_token(lines[row], 2, "0")
        write(path, lines)
        assert outcome(envio._load_gt_table, path)[1:] == (
            f"{path}:{row + 2}: node 0 is listed again (first at line 1)", row + 2)


SPECIAL = ["+1", "-0.0", "0.0", "nan", "-nan", "NaN", "inf", "-inf", "+Infinity", "1e400",
           "-1e400", "4.9e-324", "-5e-324", "2.2250738585072009e-308", "1e-320", "1E+5", ".5",
           "5.", "00017"]
FLOAT_TOKENS = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(allow_nan=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: f"{x:.17g}"),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: f"{x:+.6e}"),
)
ID_TOKENS = st.one_of(
    st.integers(-2**63, 2**63 - 1).map(str),
    st.integers(0, 999).map(lambda i: f"+{i}"),
    st.integers(0, 999).map(lambda i: f"00{i}"),
    st.just("-0"),
)
EDGE_ROWS = st.lists(st.tuples(ID_TOKENS, ID_TOKENS, st.lists(FLOAT_TOKENS, min_size=4,
                                                              max_size=4)),
                     min_size=1, max_size=3 * CHUNK + 3)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(rows=EDGE_ROWS)
def test_valid_rows_read_bit_identical_to_the_per_line_parse(rows):
    lines = [(k + 1, f"edge {i} {j} " + " ".join(v)) for k, (i, j, v) in enumerate(rows)]

    def read():
        return envio._read_rows(iter(lines), "rows.txt", "edge", len(lines), 2, 4, "form {k}")

    with mock.patch.object(envio, "_CHUNK_ROWS", CHUNK):
        (ids, vals, line_nos), (ref_ids, ref_vals, ref_line_nos) = read(), line_by_line(read)
    assert line_nos == ref_line_nos == [n for n, _ in lines]
    assert ids.tolist() == ref_ids.tolist() == [[int(i), int(j)] for i, j, _ in rows]
    want = np.array([[float(t) for t in v] for _, _, v in rows])
    for got in (vals, ref_vals):
        assert np.ascontiguousarray(got).tobytes() == want.tobytes()


def test_loaders_raise_no_warning(tmp_path):
    """A warning from numpy's C reader (a deprecation, say) fails this test
    rather than changing how a file parses without notice."""
    env = generate_uniform_env(GeneratorConfig(n_nodes=300, k_neighbors=3, seed=1))
    envio.save_env(env, tmp_path / "env.txt")
    envio.save_estimates(EstimateSet.from_quaternions(env.ground_truth_quats, "so3_matrix"),
                         tmp_path / "est.txt")
    write(tmp_path / "eg.txt", eg_lines(envio._CHUNK_ROWS + 10))
    write(tmp_path / "gt.txt", [f"{k} 1 0 0 0" for k in range(envio._CHUNK_ROWS + 10)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        envio.load_env(tmp_path / "env.txt")
        envio.load_estimates(tmp_path / "est.txt")
        envio._load_gt_table(tmp_path / "gt.txt")
        envio.import_1dsfm(tmp_path / "eg.txt", gt_path=tmp_path / "gt.txt")
