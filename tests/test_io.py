import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import geodesic_distance, random_quats
from rotavg import io as envio
from rotavg import rotmath
from rotavg.averaging import EstimateSet
from rotavg.envgraph import GeneratorConfig, RotationEnvironment, generate_uniform_env
from rotavg.metrics import TraceRecord


def make_env(seed=0, n=12):
    return generate_uniform_env(GeneratorConfig(n_nodes=n, k_neighbors=3, seed=seed))


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def eg_line(i, j, m, extra=()):
    cells = [str(i), str(j)] + [f"{x:.17g}" for x in m.reshape(-1)] + [str(x) for x in extra]
    return " ".join(cells)


class TestEnvRoundTrip:
    def test_save_load_resave_byte_identical(self, tmp_path):
        env = make_env(3)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        envio.save_env(env, p1)
        loaded = envio.load_env(p1)
        envio.save_env(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_fields_survive(self, tmp_path):
        env = make_env(4)
        path = tmp_path / "env.txt"
        envio.save_env(env, path)
        loaded = envio.load_env(path)
        assert loaded.n_nodes == env.n_nodes
        assert np.array_equal(loaded.edge_index, env.edge_index)
        assert np.max(np.abs(loaded.edge_quats - env.edge_quats)) < 1e-12
        assert np.max(np.abs(loaded.ground_truth - env.ground_truth)) < 1e-12

    def test_without_ground_truth(self, tmp_path):
        env = make_env(5)
        from rotavg.envgraph import RotationEnvironment

        bare = RotationEnvironment(env.n_nodes, env.edge_index, env.edge_quats)
        path = tmp_path / "bare.txt"
        envio.save_env(bare, path)
        loaded = envio.load_env(path)
        assert loaded.ground_truth is None
        assert np.array_equal(loaded.edge_index, bare.edge_index)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        env = make_env(6)
        path = tmp_path / "env.txt"
        envio.save_env(env, path)
        lines = path.read_text().splitlines()
        lines.insert(1, "# a comment")
        lines.insert(3, "")
        write_lines(path, lines)
        loaded = envio.load_env(path)  # checksum still verifies
        assert loaded.n_nodes == env.n_nodes


class TestEnvParseErrors:
    def good_lines(self):
        env = make_env(7, n=4)
        import io as sio
        import tempfile, os

        fd, name = tempfile.mkstemp()
        os.close(fd)
        envio.save_env(env, name)
        with open(name) as fh:
            lines = fh.read().splitlines()
        os.unlink(name)
        return lines

    def test_truncated_file(self, tmp_path):
        lines = self.good_lines()
        path = tmp_path / "trunc.txt"
        write_lines(path, lines[: len(lines) // 2])
        with pytest.raises(envio.ParseError) as err:
            envio.load_env(path)
        assert "expected" in str(err.value)

    def test_non_unit_quaternion(self, tmp_path):
        lines = self.good_lines()
        idx = next(i for i, l in enumerate(lines) if l.startswith("gt "))
        tokens = lines[idx].split()
        tokens[2:] = [f"{0.9 * float(t):.17g}" for t in tokens[2:]]
        lines[idx] = " ".join(tokens)
        path = tmp_path / "nonunit.txt"
        write_lines(path, [l for l in lines if not l.startswith("checksum")])
        with pytest.raises(envio.ParseError, match="non-unit quaternion"):
            envio.load_env(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        write_lines(path, ["WHAT 1", "nodes 2"])
        with pytest.raises(envio.ParseError, match="header"):
            envio.load_env(path)

    def test_unknown_version(self, tmp_path):
        lines = self.good_lines()
        lines[0] = "ROTAVG-ENV 99"
        path = tmp_path / "v99.txt"
        write_lines(path, [l for l in lines if not l.startswith("checksum")])
        with pytest.raises(envio.ParseError, match="version"):
            envio.load_env(path)

    def test_checksum_mismatch(self, tmp_path):
        lines = self.good_lines()
        idx = next(i for i, l in enumerate(lines) if l.startswith("edge "))
        a, b = lines[idx], lines[idx + 1]
        # swap two edge lines: content changes, checksum stays
        lines[idx], lines[idx + 1] = b, a
        path = tmp_path / "sum.txt"
        write_lines(path, lines)
        with pytest.raises(envio.ChecksumMismatch):
            envio.load_env(path)

    def test_out_of_range_edge(self, tmp_path):
        lines = [l for l in self.good_lines() if not l.startswith("checksum")]
        idx = next(i for i, l in enumerate(lines) if l.startswith("edge "))
        tokens = lines[idx].split()
        tokens[2] = "99"
        lines[idx] = " ".join(tokens)
        path = tmp_path / "range.txt"
        write_lines(path, lines)
        with pytest.raises(envio.ParseError, match="out of range"):
            envio.load_env(path)

    def test_error_carries_line_number(self, tmp_path):
        lines = self.good_lines()[:3]
        path = tmp_path / "short.txt"
        write_lines(path, lines)
        with pytest.raises(envio.ParseError) as err:
            envio.load_env(path)
        assert err.value.line_no == 4

    # a graph fault that the rows alone do not show is named at the file's last line
    @pytest.mark.parametrize("nodes, pairs, line_no, reason", [
        (3, ["0 x", "1 2"], 5, "malformed edge endpoint"),
        (3, ["0 1", "1 0", "1 2"], 7, "duplicate edge for an unordered node pair"),
        (4, ["0 1", "0 2", "1 2"], 7, "environment graph is not connected"),
        (1, ["0 1"], 4, "node count must be >= 2"),
        (2, [], 4, "edge count must be >= 1"),
    ])
    def test_fault_names_its_line(self, tmp_path, nodes, pairs, line_no, reason):
        path = tmp_path / "env.txt"
        write_lines(path, ["ROTAVG-ENV 1", f"nodes {nodes}", "ground-truth 0",
                           f"edges {len(pairs)}", *(f"edge {p} 1 0 0 0" for p in pairs)])
        with pytest.raises(envio.ParseError, match=reason) as err:
            envio.load_env(path)
        assert err.value.line_no == line_no


class TestEstimates:
    @pytest.mark.parametrize("param", ["so3_matrix", "quaternion", "mrp"])
    def test_roundtrip(self, tmp_path, param, rng):
        est = EstimateSet.from_quaternions(random_quats(rng, 9), param)
        path = tmp_path / "est.txt"
        envio.save_estimates(est, path)
        loaded = envio.load_estimates(path)
        assert loaded.parameterization == param
        assert np.array_equal(loaded.values, est.values)

    def test_byte_identical_resave(self, tmp_path, rng):
        est = EstimateSet.from_quaternions(random_quats(rng, 5), "mrp")
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        envio.save_estimates(est, p1)
        envio.save_estimates(envio.load_estimates(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestEstimateValidation:
    def test_content_after_checksum_rejected(self, tmp_path, rng):
        path = tmp_path / "est.txt"
        envio.save_estimates(EstimateSet.from_quaternions(random_quats(rng, 4), "mrp"), path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("est 4 0 0 0\n")
        with pytest.raises(envio.ParseError, match="after checksum"):
            envio.load_estimates(path)

    @pytest.mark.parametrize("param, bad", [
        ("quaternion", [0.0, 0.0, 0.0, 0.0]),
        ("quaternion", [np.nan, 0.0, 0.0, 1.0]),
        ("quaternion", [np.inf, 0.0, 0.0, 0.0]),
        ("mrp", [np.nan, 0.0, 0.0]),
        ("mrp", [0.0, -np.inf, 0.0]),
        ("so3_matrix", np.diag([1.0, 1.0, 1.001])),
        ("so3_matrix", np.diag([1.0, 1.0, -1.0])),
        ("so3_matrix", np.full((3, 3), np.nan)),
    ])
    def test_unusable_values_name_the_node(self, tmp_path, rng, param, bad):
        est = EstimateSet.from_quaternions(random_quats(rng, 5), param)
        est.values[2] = np.reshape(bad, est.values[2].shape)
        path = tmp_path / "est.txt"
        envio.save_estimates(est, path)
        with pytest.raises(envio.ParseError, match="node 2") as err:
            envio.load_estimates(path)
        assert err.value.line_no == 6  # the 'est 2' line

    def test_matrix_within_tolerance_accepted(self, tmp_path, rng):
        est = EstimateSet.from_quaternions(random_quats(rng, 5), "so3_matrix")
        est.values[1] *= 1.0 + 0.25 * envio.EST_MAX_GRAM_ERROR
        path = tmp_path / "est.txt"
        envio.save_estimates(est, path)
        assert np.array_equal(envio.load_estimates(path).values, est.values)


class TestTraceFiles:
    def records(self):
        return [
            TraceRecord(0, 120.0, 118.5, 60.2, 59.0, 80.0, 75.5),
            TraceRecord(1000, 5.25, 4.5, 2.5, 2.25, 3.125, 3.0),
            TraceRecord(2000, 0.125, 0.1, 0.05, 0.04, 0.08, 0.0725),
        ]

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "trace.csv"
        envio.export_trace(self.records(), path)
        assert path.read_text() == (
            "step,ape_mean_deg,ape_median_deg,rel_mean_deg,rel_median_deg,"
            "abs_mean_deg,abs_median_deg\n"
            "0,120,118.5,60.200000000000003,59,80,75.5\n"
            "1000,5.25,4.5,2.5,2.25,3.125,3\n"
            "2000,0.125,0.10000000000000001,0.050000000000000003,0.040000000000000001,"
            "0.080000000000000002,0.072499999999999995\n")

    def test_empty_trace_is_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        envio.export_trace([], path)
        text = path.read_text().strip().splitlines()
        assert len(text) == 1
        assert text[0] == ",".join(envio.TRACE_COLUMNS)

    def test_missing_ground_truth_cells(self, tmp_path):
        rec = TraceRecord(5, None, None, 1.5, 1.25)
        path = tmp_path / "nogt.csv"
        envio.export_trace([rec], path)
        row = path.read_text().splitlines()[1]
        assert row == "5,,,1.5,1.25,,"


class TestSummaryFiles:
    def rows(self):
        return [
            envio.SummaryRow("env_0.txt", "mrp", 0, 5.08, 37000,
                             0.004, 0.004, 0.002, 0.002, 0.003, 0.003),
            envio.SummaryRow("env_0.txt", "so3", 0, 24.47, None,
                             12.056, 0.10, 8.0, 6.0, 10.0, 9.0),
            envio.SummaryRow("scene.txt", "quat", 1, None, None,
                             None, None, 9.5, 8.0, None, None),
        ]

    def test_not_converged_token(self, tmp_path):
        path = tmp_path / "summary.csv"
        envio.export_summary(self.rows(), path)
        lines = path.read_text().splitlines()
        assert lines[2].split(",")[4] == envio.NOT_CONVERGED
        # no ground truth at all: cell is empty, not NotConverged
        assert lines[3].split(",")[4] == ""

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "summary.csv"
        envio.export_summary(self.rows(), path)
        assert envio.load_summary(path) == self.rows()

    def test_oversized_cell_names_its_line(self, tmp_path):
        path = tmp_path / "summary.csv"
        write_lines(path, [",".join(envio.SUMMARY_COLUMNS), "x" * 200_000])
        with pytest.raises(envio.ParseError, match="malformed CSV: field larger than field limit") \
                as err:
            envio.load_summary(path)
        assert err.value.line_no == 2


# hand-picked doubles for the golden-bytes tests: signed zero, the least
# subnormal, 0.1, 1/3 and the largest double below 1
THIRD, BELOW_ONE, TINY = 1 / 3, 1 - 2**-53, 5e-324


class TestGoldenBytes:
    """Every writer's bytes are pinned by a literal text, so the 17-digit
    float format holds however the writers build their lines."""

    def test_env_with_ground_truth(self, tmp_path):
        env = RotationEnvironment(
            3, [[0, 1], [2, 1]],
            [[THIRD, -2 * THIRD, 2 * THIRD, 0.0], [-0.0, 0.6, -0.8, TINY]],
            ground_truth=[[BELOW_ONE, -0.0, TINY, 0.0], [THIRD, 2 * THIRD, -2 * THIRD, -0.0],
                          [0.1, 0.7, 0.1, 0.7]])
        envio.save_env(env, tmp_path / "env.txt")
        assert (tmp_path / "env.txt").read_text() == (
            "ROTAVG-ENV 1\nnodes 3\nground-truth 1\nedges 2\n"
            "gt 0 0.99999999999999989 -0 4.9406564584124654e-324 0\n"
            "gt 1 0.33333333333333331 0.66666666666666663 -0.66666666666666663 -0\n"
            "gt 2 0.10000000000000001 0.69999999999999996 0.10000000000000001 "
            "0.69999999999999996\n"
            "edge 0 1 0.33333333333333331 -0.66666666666666663 0.66666666666666663 0\n"
            "edge 2 1 -0 0.59999999999999998 -0.80000000000000004 4.9406564584124654e-324\n"
            "checksum 6d1e81d667be081b23d4624e5f4cd9c2dae16867464ba7cca4717c9de920929d\n")

    def test_env_without_ground_truth(self, tmp_path):
        env = RotationEnvironment(2, [[1, 0]], [[BELOW_ONE, TINY, -0.0, 0.0]])
        envio.save_env(env, tmp_path / "env.txt")
        assert (tmp_path / "env.txt").read_text() == (
            "ROTAVG-ENV 1\nnodes 2\nground-truth 0\nedges 1\n"
            "edge 1 0 0.99999999999999989 4.9406564584124654e-324 -0 0\n"
            "checksum 4d2779eb4aaaa559fc6f07a0c2646204b9926ee7fd4989184e299c7e15cbd036\n")

    @pytest.mark.parametrize("param, values, expected", [
        ("quaternion", [[-0.0, TINY, 0.1, THIRD], [BELOW_ONE, -THIRD, 0.0, -0.1]],
         "nodes 2\n"
         "est 0 -0 4.9406564584124654e-324 0.10000000000000001 0.33333333333333331\n"
         "est 1 0.99999999999999989 -0.33333333333333331 0 -0.10000000000000001\n"
         "checksum aa6e190174ff06e87b82d9af271f249d5280ff07b1ab979c87ad9d4f6f0616bd\n"),
        ("mrp", [[-0.0, TINY, 0.1], [THIRD, BELOW_ONE, -1e300]],
         "nodes 2\n"
         "est 0 -0 4.9406564584124654e-324 0.10000000000000001\n"
         "est 1 0.33333333333333331 0.99999999999999989 -1.0000000000000001e+300\n"
         "checksum d12b2454f172d806df1813858d0d0549627babe65b37b069f1f74c2a78b6466d\n"),
        ("so3_matrix", [[[-0.0, TINY, 0.1], [THIRD, BELOW_ONE, -THIRD], [0.0, 1.0, -1.0]]],
         "nodes 1\n"
         "est 0 -0 4.9406564584124654e-324 0.10000000000000001 0.33333333333333331 "
         "0.99999999999999989 -0.33333333333333331 0 1 -1\n"
         "checksum cd748b6f947f1182752769b6bfd47678978d04a00c159212c0a0c7a8333fbb5e\n"),
    ])
    def test_estimates(self, tmp_path, param, values, expected):
        envio.save_estimates(EstimateSet(param, values), tmp_path / "est.txt")
        assert (tmp_path / "est.txt").read_text() == (
            f"ROTAVG-EST 1\nparameterization {param}\n" + expected)

    def test_summary_converged_not_converged_and_no_ground_truth(self, tmp_path):
        rows = [
            envio.SummaryRow("env_0.txt", "mrp", 0, THIRD, 37000,
                             0.1, TINY, BELOW_ONE, -0.0, 4.25, 2.0),
            envio.SummaryRow("gen:n=20,k=3", "so3", 1, 24.5, None,
                             12.0, 0.1, 8.0, 6.0, 10.0, 9.0),
            envio.SummaryRow("scene, v2.txt", "quat", 2, None, None,
                             None, None, 9.5, THIRD, None, None),
        ]
        envio.export_summary(rows, tmp_path / "summary.csv")
        assert (tmp_path / "summary.csv").read_text() == (
            "env,algorithm,seed,nauc,steps_to_5deg,final_ape_mean_deg,final_ape_median_deg,"
            "final_rel_mean_deg,final_rel_median_deg,final_abs_mean_deg,final_abs_median_deg\n"
            "env_0.txt,mrp,0,0.33333333333333331,37000,0.10000000000000001,"
            "4.9406564584124654e-324,0.99999999999999989,-0,4.25,2\n"
            '"gen:n=20,k=3",so3,1,24.5,NotConverged,12,0.10000000000000001,8,6,10,9\n'
            '"scene, v2.txt",quat,2,,,,,9.5,0.33333333333333331,,\n')
        assert envio.load_summary(tmp_path / "summary.csv") == rows


class TestCountBeyondRows:
    """A header count larger than the rows that follow is reported at the
    line where the rows end, with or without the checksum line."""

    @pytest.mark.parametrize("keep_checksum", [True, False])
    def test_env_edges(self, tmp_path, keep_checksum):
        path = tmp_path / "env.txt"
        envio.save_env(make_env(3, n=6), path)
        lines = path.read_text().splitlines()
        n_edges = int(lines[3].split()[1])
        lines[3] = f"edges {n_edges + 5}"
        write_lines(path, lines if keep_checksum else lines[:-1])
        with pytest.raises(envio.ParseError, match=f"after {n_edges} 'edge' lines, "
                                                   f"where the header counts {n_edges + 5}") as err:
            envio.load_env(path)
        assert err.value.line_no == len(lines)  # the checksum line, or the end without it

    @pytest.mark.parametrize("keep_checksum", [True, False])
    def test_estimates(self, tmp_path, rng, keep_checksum):
        path = tmp_path / "est.txt"
        envio.save_estimates(EstimateSet.from_quaternions(random_quats(rng, 6), "mrp"), path)
        lines = path.read_text().splitlines()
        lines[2] = "nodes 1000000000000"
        write_lines(path, lines if keep_checksum else lines[:-1])
        with pytest.raises(envio.ParseError, match="after 6 'est' lines, "
                                                   "where the header counts 1000000000000") as err:
            envio.load_estimates(path)
        assert err.value.line_no == 10  # the checksum line, or the end of the file without it


class TestImport1dsfm:
    def three_node_rows(self, rng):
        gt = rotmath.quat_to_matrix(random_quats(rng, 3))
        rows = []
        for i, j in ((0, 1), (1, 2), (0, 2)):
            rows.append(eg_line(i, j, gt[i] @ gt[j].T))
        return gt, rows

    def test_exact_three_edge_file(self, tmp_path, rng):
        gt, rows = self.three_node_rows(rng)
        path = tmp_path / "eg.txt"
        write_lines(path, rows)
        env, report = envio.import_1dsfm(path)
        assert env.n_nodes == 3 and env.n_edges == 3
        assert report.kept_edges == 3 and report.dropped_not_rotation == 0
        i, j = env.edge_index[:, 0], env.edge_index[:, 1]
        rel = rotmath.quat_to_matrix(env.edge_quats)
        # edges must satisfy rel @ R_j = R_i against the source rotations
        assert np.max(np.abs(rel - gt[i] @ np.swapaxes(gt[j], -1, -2))) < 1e-9

    def test_translation_columns_ignored(self, tmp_path, rng):
        gt, _ = self.three_node_rows(rng)
        rows = [
            eg_line(0, 1, gt[0] @ gt[1].T, extra=(0.5, -1.0, 2.0)),
            eg_line(1, 2, gt[1] @ gt[2].T, extra=(0.1, 0.2, 0.3)),
        ]
        path = tmp_path / "eg.txt"
        write_lines(path, rows)
        env, _ = envio.import_1dsfm(path)
        assert env.n_edges == 2

    def test_noisy_matrix_reorthonormalized(self, tmp_path, rng):
        gt, _ = self.three_node_rows(rng)
        noisy = gt[0] @ gt[1].T + 3e-3 * rng.normal(size=(3, 3))
        path = tmp_path / "eg.txt"
        write_lines(path, [eg_line(0, 1, noisy), eg_line(1, 2, gt[1] @ gt[2].T)])
        env, report = envio.import_1dsfm(path)
        assert report.dropped_not_rotation == 0
        rel = rotmath.quat_to_matrix(env.edge_quats)
        eye = np.swapaxes(rel, -1, -2) @ rel
        assert np.max(np.abs(eye - np.eye(3))) < 1e-12

    def test_garbage_matrix_dropped(self, tmp_path, rng):
        gt, rows = self.three_node_rows(rng)
        rows.append(eg_line(0, 1, np.ones((3, 3))))  # duplicate AND garbage
        rows.append(eg_line(1, 0, 2.0 * np.eye(3)))
        path = tmp_path / "eg.txt"
        write_lines(path, rows)
        env, report = envio.import_1dsfm(path)
        assert report.dropped_not_rotation == 2
        assert env.n_edges == 3

    def test_self_loops_and_duplicates_dropped(self, tmp_path, rng):
        gt, rows = self.three_node_rows(rng)
        rows.append(eg_line(1, 1, np.eye(3)))
        rows.append(eg_line(1, 0, gt[1] @ gt[0].T))  # reverse duplicate
        path = tmp_path / "eg.txt"
        write_lines(path, rows)
        env, report = envio.import_1dsfm(path)
        assert report.dropped_self_loops == 1
        assert report.dropped_duplicates == 1
        assert env.n_edges == 3

    def test_strict_mode_rejects_unknown_columns(self, tmp_path, rng):
        gt, _ = self.three_node_rows(rng)
        path = tmp_path / "eg.txt"
        write_lines(path, [eg_line(0, 1, gt[0] @ gt[1].T, extra=(1.0,))])
        with pytest.raises(envio.ParseError, match="columns"):
            envio.import_1dsfm(path, strict=True)
        env, report = envio.import_1dsfm(path, strict=False)
        assert env.n_edges == 1

    def test_largest_component_kept(self, tmp_path, rng):
        gt = rotmath.quat_to_matrix(random_quats(rng, 7))
        rows = [
            eg_line(0, 1, gt[0] @ gt[1].T),
            eg_line(1, 2, gt[1] @ gt[2].T),
            eg_line(2, 3, gt[2] @ gt[3].T),
            eg_line(5, 6, gt[5] @ gt[6].T),  # smaller component
        ]
        path = tmp_path / "eg.txt"
        write_lines(path, rows)
        env, report = envio.import_1dsfm(path)
        assert env.n_nodes == 4
        assert report.n_components == 2
        assert report.dropped_nodes_disconnected == 2
        assert report.dropped_edges_disconnected == 1

    def test_ground_truth_restriction(self, tmp_path, rng):
        gt = rotmath.quat_to_matrix(random_quats(rng, 4))
        quats = rotmath.matrix_to_quat(gt)
        rows = [
            eg_line(0, 1, gt[0] @ gt[1].T),
            eg_line(1, 2, gt[1] @ gt[2].T),
            eg_line(2, 3, gt[2] @ gt[3].T),
        ]
        eg = tmp_path / "eg.txt"
        write_lines(eg, rows)
        gt_file = tmp_path / "gt.txt"
        write_lines(
            gt_file,
            [f"{i} " + " ".join(f"{x:.17g}" for x in quats[i]) for i in (0, 1, 2)],
        )
        env, report = envio.import_1dsfm(eg, gt_path=gt_file)
        assert env.n_nodes == 3  # node 3 has no reference rotation
        assert report.dropped_without_ground_truth == 1
        assert env.ground_truth is not None
        mean_err = np.max(geodesic_distance(env.ground_truth, gt[:3]))
        assert mean_err < 1e-9

    def test_duplicate_ground_truth_id_names_both_lines(self, tmp_path, rng):
        gt = rotmath.quat_to_matrix(random_quats(rng, 3))
        eg = tmp_path / "eg.txt"
        write_lines(eg, [eg_line(0, 1, gt[0] @ gt[1].T), eg_line(1, 2, gt[1] @ gt[2].T)])
        quats = rotmath.matrix_to_quat(gt)
        gt_file = tmp_path / "gt.txt"
        write_lines(gt_file, ["# id w x y z"] + [f"{i} " + " ".join(f"{x:.17g}" for x in quats[k])
                                                 for i, k in ((0, 0), (1, 1), (2, 2), (0, 1))])
        with pytest.raises(envio.ParseError, match=r"node 0 is listed again \(first at line 2\)") \
                as err:
            envio.import_1dsfm(eg, gt_path=gt_file)
        assert err.value.line_no == 5

    def test_ground_truth_file_without_rows_is_parse_error(self, tmp_path, rng):
        eg, gt = tmp_path / "eg.txt", tmp_path / "gt.txt"
        write_lines(eg, self.three_node_rows(rng)[1])
        write_lines(gt, ["# no rows"])
        with pytest.raises(envio.ParseError, match="gt.txt:1: no ground-truth rows"):
            envio.import_1dsfm(eg, gt_path=gt)
        write_lines(gt, ["# no rows", "", "# still none"])
        with pytest.raises(envio.ParseError, match="gt.txt:3: no ground-truth rows"):
            envio.import_1dsfm(eg, gt_path=gt)

    def test_empty_graph_raises(self, tmp_path):
        path = tmp_path / "junk.txt"
        write_lines(path, ["# nothing but comments"])
        with pytest.raises(envio.EmptyGraph):
            envio.import_1dsfm(path)

    def test_all_rows_garbage_raises(self, tmp_path):
        path = tmp_path / "junk.txt"
        write_lines(path, [eg_line(0, 1, np.zeros((3, 3)))])
        with pytest.raises(envio.EmptyGraph):
            envio.import_1dsfm(path)

    def test_import_save_load_identical(self, tmp_path, rng):
        gt, rows = self.three_node_rows(rng)
        src = tmp_path / "eg.txt"
        write_lines(src, rows)
        env, _ = envio.import_1dsfm(src)
        saved = tmp_path / "env.txt"
        envio.save_env(env, saved)
        loaded = envio.load_env(saved)
        assert np.array_equal(loaded.edge_index, env.edge_index)
        assert np.array_equal(loaded.edge_quats, env.edge_quats)

    def test_keep_and_drop_counts_on_both_projection_paths(self, tmp_path, rng):
        # a path of 8 nodes: exact and 1e-8-noisy rotations take Newton-Schulz
        # steps, the rest the SVD; 1.001 R is kept (gap 1.7e-3), the others are not
        gt = rotmath.quat_to_matrix(random_quats(rng, 8))
        rel = [gt[k] @ gt[k + 1].T for k in range(7)]
        mats = [rel[0], rel[1] + 1e-8 * rng.normal(size=(3, 3)), rel[2] + 3e-3,
                1.001 * rel[3], 1.01 * rel[4], rel[5] @ np.diag([1.0, 1.0, -1.0]),
                np.outer([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])]
        path = tmp_path / "eg.txt"
        write_lines(path, [eg_line(k, k + 1, m) for k, m in enumerate(mats)])
        env, report = envio.import_1dsfm(path)
        assert report.dropped_not_rotation == 3
        assert (report.n_components, report.kept_nodes, report.kept_edges) == (1, 5, 4)
        assert np.max(np.abs(rotmath.quat_to_matrix(env.edge_quats)
                             - np.stack([gt[k] @ gt[k + 1].T for k in range(4)]))) < 5e-3


class TestRandomEnvRoundTrips:
    @pytest.mark.parametrize("seed", range(10))
    def test_roundtrip_sweep(self, tmp_path, seed):
        env = make_env(seed, n=10)
        p1 = tmp_path / "a.txt"
        p2 = tmp_path / "b.txt"
        envio.save_env(env, p1)
        envio.save_env(envio.load_env(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestStreamedReading:
    """Every reader takes its lines from one stream, gathers a section's
    rows, then checks their values together."""

    def saved(self, tmp_path):
        path = tmp_path / "env.txt"
        envio.save_env(make_env(8), path)
        return path

    def test_crlf_copy_loads_equal_arrays(self, tmp_path):
        path = self.saved(tmp_path)
        crlf = tmp_path / "crlf.txt"
        crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        a, b = envio.load_env(path), envio.load_env(crlf)  # the checksum verifies on both
        assert np.array_equal(a.edge_index, b.edge_index)
        assert np.array_equal(a.edge_quats, b.edge_quats)
        assert np.array_equal(a.ground_truth_quats, b.ground_truth_quats)

    @pytest.mark.parametrize("kind", ["env", "estimates", "summary"])
    def test_invalid_utf8_is_parse_error(self, tmp_path, kind):
        path = tmp_path / kind
        if kind == "env":
            envio.save_env(make_env(8), path)
            load = envio.load_env
        elif kind == "estimates":
            envio.save_estimates(EstimateSet.identity(5, "mrp"), path)
            load = envio.load_estimates
        else:
            envio.export_summary([envio.SummaryRow("env.txt", "mrp", seed, 5.0, 200, 1.0, 0.5,
                                                   0.25, 0.2, 0.9, 0.4) for seed in range(3)], path)
            load = envio.load_summary
        lines = path.read_bytes().split(b"\n")
        lines[2] += b" \xff"
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(envio.ParseError, match="invalid UTF-8") as err:
            load(path)
        assert 1 <= err.value.line_no <= 3

    def edge_lines(self, tmp_path):
        lines = [l for l in self.saved(tmp_path).read_text().splitlines()
                 if not l.startswith("checksum")]
        return lines, [k for k, l in enumerate(lines) if l.startswith("edge ")]

    def test_non_unit_quaternion_on_last_edge_names_its_line(self, tmp_path):
        lines, edges = self.edge_lines(tmp_path)
        tokens = lines[edges[-1]].split()
        lines[edges[-1]] = " ".join(tokens[:3] + ["0.5"] * 3 + ["0.25"])
        path = tmp_path / "bad.txt"
        write_lines(path, lines)
        with pytest.raises(envio.ParseError, match="non-unit quaternion 0.5 0.5 0.5 0.25") as err:
            envio.load_env(path)
        assert err.value.line_no == edges[-1] + 1

    def test_two_value_faults_name_the_earlier_line(self, tmp_path):
        lines, edges = self.edge_lines(tmp_path)
        late = lines[edges[5]].split()
        lines[edges[5]] = " ".join(late[:1] + ["0", "0"] + late[3:])  # self loop
        early = lines[edges[2]].split()
        lines[edges[2]] = " ".join(early[:3] + ["2", "0", "0", "0"])  # non-unit
        path = tmp_path / "bad.txt"
        write_lines(path, lines)
        with pytest.raises(envio.ParseError, match="non-unit quaternion") as err:
            envio.load_env(path)
        assert err.value.line_no == edges[2] + 1

    def test_edge_id_beyond_int64_is_parse_error(self, tmp_path):
        lines, edges = self.edge_lines(tmp_path)
        tokens = lines[edges[0]].split()
        lines[edges[0]] = " ".join(tokens[:1] + ["99999999999999999999999"] + tokens[2:])
        path = tmp_path / "big.txt"
        write_lines(path, lines)
        with pytest.raises(envio.ParseError,
                           match=r"out of range: \(99999999999999999999999, ") as err:
            envio.load_env(path)
        assert err.value.line_no == edges[0] + 1

    def test_cr_only_edge_list_imports_like_its_lf_copy(self, tmp_path, rng):
        gt = rotmath.quat_to_matrix(random_quats(rng, 4))
        rows = [eg_line(i, j, gt[i] @ gt[j].T) for i, j in ((0, 1), (1, 2), (2, 3), (0, 3))]
        lf, cr = tmp_path / "lf.txt", tmp_path / "cr.txt"
        write_lines(lf, rows)
        cr.write_bytes(lf.read_bytes().replace(b"\n", b"\r"))
        (a, report_a), (b, report_b) = envio.import_1dsfm(lf), envio.import_1dsfm(cr)
        assert report_a == report_b and report_a.kept_edges == 4
        assert np.array_equal(a.edge_index, b.edge_index)
        assert np.array_equal(a.edge_quats, b.edge_quats)
