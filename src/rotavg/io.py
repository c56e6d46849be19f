"""Text serialization for environments, estimates, traces, and summaries,
plus import of 1DSfM-style relative-rotation edge lists.

All files are UTF-8 with LF line endings; lines starting with '#' are
comments and ignored (they are also excluded from checksums, so annotating
a file by hand does not invalidate it).  Floats are written with 17
significant digits, which round-trips IEEE doubles exactly and makes
save -> load -> save byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass

import numpy as np

from . import rotmath
from .averaging import PARAMETERIZATIONS, EstimateSet
from .envgraph import RotationEnvironment
from .metrics import TraceRecord

ENV_MAGIC = "ROTAVG-ENV"
EST_MAGIC = "ROTAVG-EST"
FORMAT_VERSION = 1

TRACE_COLUMNS = (
    "step",
    "ape_mean_deg",
    "ape_median_deg",
    "rel_mean_deg",
    "rel_median_deg",
    "abs_mean_deg",
    "abs_median_deg",
)

SUMMARY_COLUMNS = (
    "env",
    "algorithm",
    "seed",
    "nauc",
    "steps_to_5deg",
    "final_ape_mean_deg",
    "final_ape_median_deg",
    "final_rel_mean_deg",
    "final_rel_median_deg",
    "final_abs_mean_deg",
    "final_abs_median_deg",
)

NOT_CONVERGED = "NotConverged"

# Frobenius distance beyond which an imported matrix is rejected as
# not-a-rotation rather than silently repaired.
IMPORT_MAX_FROBENIUS = 1e-2

_POLAR_ITERS = 60

# Largest entry of R^T R - I accepted for a stored so3_matrix estimate.
EST_MAX_GRAM_ERROR = 1e-6


class ParseError(ValueError):
    """A file could not be parsed; carries path, line number, and reason."""

    def __init__(self, path, line_no: int, reason: str):
        self.path = str(path)
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"{path}:{line_no}: {reason}")


class ChecksumMismatch(ValueError):
    """The trailing digest of a file disagrees with its content."""


class EmptyGraph(ValueError):
    """An import yielded no usable edges."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _digest(lines: list[str]) -> str:
    payload = "".join(line + "\n" for line in lines)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class _LineReader:
    """Iterates content lines of a text file, tracking line numbers and the
    exact lines consumed (for checksum verification)."""

    def __init__(self, path):
        self.path = path
        with open(path, "r", encoding="utf-8", newline="") as fh:
            raw = fh.read()
        self._lines = raw.split("\n")
        if self._lines and self._lines[-1] == "":
            self._lines.pop()
        self._pos = 0
        self.line_no = 0
        self.consumed: list[str] = []

    def next_content_line(self) -> str | None:
        while self._pos < len(self._lines):
            line = self._lines[self._pos].rstrip("\r")
            self._pos += 1
            self.line_no += 1
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            return line
        return None

    def record(self, line: str) -> None:
        self.consumed.append(line)

    def fail(self, reason: str):
        raise ParseError(self.path, self.line_no, reason)


def _expect(reader: _LineReader, what: str) -> str:
    line = reader.next_content_line()
    if line is None:
        raise ParseError(reader.path, reader.line_no + 1, f"unexpected end of file, expected {what}")
    return line


def _parse_quat(tokens, reader: _LineReader) -> np.ndarray:
    try:
        q = np.array([float(t) for t in tokens], dtype=float)
    except ValueError:
        reader.fail(f"malformed number in {tokens!r}")
    if abs(np.linalg.norm(q) - 1.0) > 1e-6:
        reader.fail("non-unit quaternion")
    return q


def _check_trailer(reader: _LineReader) -> None:
    """Verify the optional checksum line and that nothing follows it."""
    trailer = reader.next_content_line()
    if trailer is None:
        return
    tokens = trailer.split()
    if len(tokens) != 2 or tokens[0] != "checksum":
        reader.fail(f"unexpected trailing line {trailer!r}")
    if tokens[1] != _digest(reader.consumed):
        raise ChecksumMismatch(f"{reader.path}: checksum does not match content")
    if reader.next_content_line() is not None:
        reader.fail("content after checksum line")


def save_env(env: RotationEnvironment, path) -> None:
    """Write an environment in the canonical text format (with checksum)."""
    lines = [
        f"{ENV_MAGIC} {FORMAT_VERSION}",
        f"nodes {env.n_nodes}",
        f"ground-truth {1 if env.ground_truth is not None else 0}",
        f"edges {env.n_edges}",
    ]
    if env.ground_truth is not None:
        for i, q in enumerate(env.ground_truth_quats):
            lines.append(f"gt {i} " + " ".join(_fmt(x) for x in q))
    for (i, j), q in zip(env.edge_index, env.edge_quats):
        lines.append(f"edge {i} {j} " + " ".join(_fmt(x) for x in q))
    lines.append(f"checksum {_digest(lines)}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_env(path) -> RotationEnvironment:
    """Read an environment written by :func:`save_env`.

    Raises ParseError with the offending line on malformed input and
    ChecksumMismatch when the trailing digest disagrees.
    """
    reader = _LineReader(path)

    header = _expect(reader, "format header")
    tokens = header.split()
    if len(tokens) != 2 or tokens[0] != ENV_MAGIC:
        reader.fail(f"expected '{ENV_MAGIC} <version>' header")
    if tokens[1] != str(FORMAT_VERSION):
        reader.fail(f"unrecognized format version {tokens[1]!r}")
    reader.record(header)

    def _int_field(name):
        line = _expect(reader, f"'{name} <value>'")
        tokens = line.split()
        if len(tokens) != 2 or tokens[0] != name or not tokens[1].lstrip("-").isdigit():
            reader.fail(f"expected '{name} <integer>'")
        reader.record(line)
        return int(tokens[1])

    n_nodes = _int_field("nodes")
    has_gt = _int_field("ground-truth")
    if has_gt not in (0, 1):
        reader.fail("ground-truth flag must be 0 or 1")
    n_edges = _int_field("edges")
    if n_nodes < 2:
        reader.fail("node count must be >= 2")
    if n_edges < 1:
        reader.fail("edge count must be >= 1")

    gt = None
    if has_gt:
        gt = np.empty((n_nodes, 4), dtype=float)
        for want in range(n_nodes):
            line = _expect(reader, f"'gt {want} ...'")
            tokens = line.split()
            if len(tokens) != 6 or tokens[0] != "gt":
                reader.fail("expected 'gt <id> <w> <x> <y> <z>'")
            if tokens[1] != str(want):
                reader.fail(f"ground-truth ids must be dense: expected {want}, got {tokens[1]!r}")
            gt[want] = _parse_quat(tokens[2:], reader)
            reader.record(line)

    edge_index = np.empty((n_edges, 2), dtype=np.int64)
    edge_quats = np.empty((n_edges, 4), dtype=float)
    for e in range(n_edges):
        line = _expect(reader, "'edge <i> <j> <w> <x> <y> <z>'")
        tokens = line.split()
        if len(tokens) != 7 or tokens[0] != "edge":
            reader.fail("expected 'edge <i> <j> <w> <x> <y> <z>'")
        try:
            i, j = int(tokens[1]), int(tokens[2])
        except ValueError:
            reader.fail("malformed edge endpoint")
        if not (0 <= i < n_nodes and 0 <= j < n_nodes):
            reader.fail(f"edge endpoint out of range: ({i}, {j})")
        if i == j:
            reader.fail(f"self loop on node {i}")
        edge_index[e] = (i, j)
        edge_quats[e] = _parse_quat(tokens[3:], reader)
        reader.record(line)

    _check_trailer(reader)
    return RotationEnvironment(n_nodes, edge_index, edge_quats, ground_truth=gt)


def save_estimates(estimates: EstimateSet, path) -> None:
    """Write an estimate set; values are stored verbatim per
    parameterization (4, 3, or 9 numbers per node)."""
    vals = estimates.values.reshape(estimates.n_nodes, -1)
    lines = [
        f"{EST_MAGIC} {FORMAT_VERSION}",
        f"parameterization {estimates.parameterization}",
        f"nodes {estimates.n_nodes}",
    ]
    for i, row in enumerate(vals):
        lines.append(f"est {i} " + " ".join(_fmt(x) for x in row))
    lines.append(f"checksum {_digest(lines)}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _check_estimate_values(param, vals, line_nos, path) -> None:
    """Raise ParseError at the first node whose values are not a usable
    rotation: non-finite, a quaternion of zero or overflowing norm, an
    MRP whose squared norm overflows, or a matrix farther than
    EST_MAX_GRAM_ERROR from orthonormal or with determinant <= 0."""
    if param == "so3_matrix":
        mats = vals.reshape(-1, 3, 3)
        with np.errstate(invalid="ignore", over="ignore"):
            gram = np.swapaxes(mats, -1, -2) @ mats - np.eye(3)
            ok = (np.max(np.abs(gram), axis=(1, 2)) <= EST_MAX_GRAM_ERROR) \
                & (np.linalg.det(mats) > 0.0)
        reason = f"is not a rotation matrix (tolerance {EST_MAX_GRAM_ERROR:g})"
    else:
        with np.errstate(over="ignore"):
            norm2 = np.sum(vals * vals, axis=1)
        ok = np.isfinite(norm2)
        reason = "has a non-finite value or norm"
        if param == "quaternion":
            ok &= norm2 > 0.0
            reason = "is a zero quaternion or has a non-finite value or norm"
    bad = np.flatnonzero(~ok)
    if bad.size:
        raise ParseError(path, int(line_nos[bad[0]]), f"estimate for node {bad[0]} {reason}")


def load_estimates(path) -> EstimateSet:
    """Read an estimate set written by :func:`save_estimates`.

    Raises ParseError naming the line (and, for bad values, the node) on
    malformed input and ChecksumMismatch when the trailing digest
    disagrees.
    """
    reader = _LineReader(path)
    header = _expect(reader, "format header")
    tokens = header.split()
    if len(tokens) != 2 or tokens[0] != EST_MAGIC:
        reader.fail(f"expected '{EST_MAGIC} <version>' header")
    if tokens[1] != str(FORMAT_VERSION):
        reader.fail(f"unrecognized format version {tokens[1]!r}")
    reader.record(header)

    line = _expect(reader, "'parameterization <name>'")
    tokens = line.split()
    if len(tokens) != 2 or tokens[0] != "parameterization":
        reader.fail("expected 'parameterization <name>'")
    param = tokens[1]
    if param not in PARAMETERIZATIONS:
        reader.fail(f"unknown parameterization {param!r}")
    reader.record(line)

    line = _expect(reader, "'nodes <count>'")
    tokens = line.split()
    if len(tokens) != 2 or tokens[0] != "nodes" or not tokens[1].isdigit():
        reader.fail("expected 'nodes <integer>'")
    n = int(tokens[1])
    reader.record(line)

    width = {"so3_matrix": 9, "quaternion": 4, "mrp": 3}[param]
    vals = np.empty((n, width), dtype=float)
    line_nos = np.empty(n, dtype=np.int64)
    for want in range(n):
        line = _expect(reader, f"'est {want} ...'")
        tokens = line.split()
        if len(tokens) != 2 + width or tokens[0] != "est" or tokens[1] != str(want):
            reader.fail(f"expected 'est {want}' with {width} values")
        try:
            vals[want] = [float(t) for t in tokens[2:]]
        except ValueError:
            reader.fail("malformed number in estimate values")
        line_nos[want] = reader.line_no
        reader.record(line)

    _check_trailer(reader)
    _check_estimate_values(param, vals, line_nos, reader.path)
    shape = {"so3_matrix": (n, 3, 3), "quaternion": (n, 4), "mrp": (n, 3)}[param]
    return EstimateSet(param, vals.reshape(shape))


@dataclass
class ImportReport:
    """What an edge-list import kept and dropped."""

    source_nodes: int
    source_edges: int
    dropped_malformed: int
    dropped_self_loops: int
    dropped_duplicates: int
    dropped_not_rotation: int
    dropped_without_ground_truth: int
    n_components: int
    dropped_nodes_disconnected: int
    dropped_edges_disconnected: int
    kept_nodes: int
    kept_edges: int

    def lines(self) -> list[str]:
        return [
            f"source: {self.source_nodes} nodes, {self.source_edges} edge rows",
            f"dropped: {self.dropped_malformed} malformed, "
            f"{self.dropped_self_loops} self loops, "
            f"{self.dropped_duplicates} duplicate pairs, "
            f"{self.dropped_not_rotation} non-rotation matrices, "
            f"{self.dropped_without_ground_truth} rows touching nodes without ground truth",
            f"components: {self.n_components}; outside largest: "
            f"{self.dropped_nodes_disconnected} nodes, "
            f"{self.dropped_edges_disconnected} edges",
            f"kept: {self.kept_nodes} nodes, {self.kept_edges} edges",
        ]


def _project_to_rotations(mats: np.ndarray):
    """Nearest rotations to a batch of 3x3 matrices plus Frobenius gaps.

    Rows whose polar iteration cannot proceed (singular) get an infinite
    gap rather than raising.
    """
    n = len(mats)
    proj = np.empty_like(mats)
    gap = np.full(n, np.inf)
    dets = np.linalg.det(mats)
    ok = np.abs(dets) > 1e-12

    x = mats[ok]
    if x.size == 0:
        return proj, gap
    for _ in range(_POLAR_ITERS):
        mu = np.abs(np.linalg.det(x)) ** (-1.0 / 3.0)
        xs = mu[:, None, None] * x
        x_next = 0.5 * (xs + np.swapaxes(np.linalg.inv(xs), -1, -2))
        if np.max(np.abs(x_next - x)) < 1e-14:
            x = x_next
            break
        x = x_next

    neg = np.linalg.det(x) < 0.0
    if np.any(neg):
        h = np.swapaxes(x[neg], -1, -2) @ mats[ok][neg]
        _, vecs = np.linalg.eigh(0.5 * (h + np.swapaxes(h, -1, -2)))
        v = vecs[..., 0]
        refl = np.broadcast_to(np.eye(3), x[neg].shape) - 2.0 * v[:, :, None] * v[:, None, :]
        x[neg] = x[neg] @ refl

    proj[ok] = x
    gap[ok] = np.linalg.norm((mats[ok] - x).reshape(-1, 9), axis=1)
    return proj, gap


def import_1dsfm(path, gt_path=None, strict: bool = False):
    """Build an environment from a whitespace-delimited edge list.

    Rows are ``i j m11 m12 m13 m21 m22 m23 m31 m32 m33 [t1 t2 t3]`` with a
    row-major relative rotation satisfying R @ R_j = R_i; optional trailing
    translation columns are ignored (strict mode only accepts exactly 11
    or 14 columns).  Matrices are re-orthonormalized by polar projection;
    rows farther than ``IMPORT_MAX_FROBENIUS`` from their projection, self
    loops, and duplicate unordered pairs are dropped and counted.  When a
    ground-truth file (rows ``i q_w q_x q_y q_z``) is given, nodes without
    a reference rotation are dropped first so absolute errors are defined
    everywhere.  Only the largest connected component is kept.

    Returns (environment, ImportReport).
    """
    raw_i: list[int] = []
    raw_j: list[int] = []
    raw_m: list[list[float]] = []
    dropped_malformed = 0
    dropped_self = 0

    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            tokens = stripped.split()
            if strict and len(tokens) not in (11, 14):
                raise ParseError(path, line_no, f"expected 11 or 14 columns, got {len(tokens)}")
            if len(tokens) < 11:
                if strict:
                    raise ParseError(path, line_no, f"expected 11 or 14 columns, got {len(tokens)}")
                dropped_malformed += 1
                continue
            try:
                i, j = int(tokens[0]), int(tokens[1])
                m = [float(t) for t in tokens[2:11]]
            except ValueError:
                if strict:
                    raise ParseError(path, line_no, "malformed number")
                dropped_malformed += 1
                continue
            if i == j:
                dropped_self += 1
                continue
            raw_i.append(i)
            raw_j.append(j)
            raw_m.append(m)

    source_edges = len(raw_i) + dropped_malformed + dropped_self
    if not raw_i:
        raise EmptyGraph(f"{path}: no usable edge rows")

    src = np.array(raw_i, dtype=np.int64)
    dst = np.array(raw_j, dtype=np.int64)
    mats = np.array(raw_m, dtype=float).reshape(-1, 3, 3)
    source_nodes = np.unique(np.concatenate([src, dst])).size

    proj, gap = _project_to_rotations(mats)
    rot_ok = gap <= IMPORT_MAX_FROBENIUS
    dropped_not_rotation = int(np.count_nonzero(~rot_ok))
    src, dst, proj = src[rot_ok], dst[rot_ok], proj[rot_ok]

    gt_map = None
    if gt_path is not None:
        gt_map = _load_gt_table(gt_path)
        has_gt = np.isin(src, list(gt_map)) & np.isin(dst, list(gt_map))
        dropped_without_gt = int(np.count_nonzero(~has_gt))
        src, dst, proj = src[has_gt], dst[has_gt], proj[has_gt]
    else:
        dropped_without_gt = 0

    # duplicate unordered pairs: keep the first occurrence
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    _, first = np.unique(lo * (hi.max() + 1 if hi.size else 1) + hi, return_index=True)
    first = np.sort(first)
    dropped_dup = src.size - first.size
    src, dst, proj = src[first], dst[first], proj[first]

    if src.size == 0:
        raise EmptyGraph(f"{path}: no usable edges survived filtering")

    # largest connected component on the surviving nodes
    node_ids = np.unique(np.concatenate([src, dst]))
    compact = {int(v): k for k, v in enumerate(node_ids)}
    ci = np.array([compact[int(v)] for v in src], dtype=np.int64)
    cj = np.array([compact[int(v)] for v in dst], dtype=np.int64)
    from .envgraph import _union_find_labels

    labels = _union_find_labels(node_ids.size, ci, cj)
    roots, counts = np.unique(labels, return_counts=True)
    n_components = roots.size
    keep_root = roots[np.argmax(counts)]
    node_keep = labels == keep_root
    edge_keep = node_keep[ci] & node_keep[cj]

    kept_ids = node_ids[node_keep]
    remap = np.full(node_ids.size, -1, dtype=np.int64)
    remap[node_keep] = np.arange(node_keep.sum())
    fi = remap[ci[edge_keep]]
    fj = remap[cj[edge_keep]]
    fq = rotmath.matrix_to_quat(proj[edge_keep])

    gt = None
    if gt_map is not None:
        gt = np.stack([gt_map[int(v)] for v in kept_ids])

    env = RotationEnvironment(
        kept_ids.size, np.stack([fi, fj], axis=1), fq, ground_truth=gt
    )
    report = ImportReport(
        source_nodes=source_nodes,
        source_edges=source_edges,
        dropped_malformed=dropped_malformed,
        dropped_self_loops=dropped_self,
        dropped_duplicates=int(dropped_dup),
        dropped_not_rotation=dropped_not_rotation,
        dropped_without_ground_truth=dropped_without_gt,
        n_components=int(n_components),
        dropped_nodes_disconnected=int(node_ids.size - kept_ids.size),
        dropped_edges_disconnected=int(np.count_nonzero(~edge_keep)),
        kept_nodes=int(kept_ids.size),
        kept_edges=int(fi.size),
    )
    return env, report


def _load_gt_table(path) -> dict[int, np.ndarray]:
    table: dict[int, np.ndarray] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            tokens = stripped.split()
            if len(tokens) != 5:
                raise ParseError(path, line_no, f"expected 'i q_w q_x q_y q_z', got {len(tokens)} columns")
            try:
                i = int(tokens[0])
                q = np.array([float(t) for t in tokens[1:]], dtype=float)
            except ValueError:
                raise ParseError(path, line_no, "malformed number")
            if abs(np.linalg.norm(q) - 1.0) > 1e-6:
                raise ParseError(path, line_no, "non-unit quaternion")
            table[i] = q
    if not table:
        raise ParseError(path, 0, "no ground-truth rows")
    return table


def export_trace(trace, path) -> None:
    """Write checkpoint records as CSV; empty cells where a metric is
    unavailable (no ground truth)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_COLUMNS)
        for rec in trace:
            writer.writerow(
                [rec.step]
                + [
                    "" if v is None else _fmt(v)
                    for v in (
                        rec.ape_mean_deg,
                        rec.ape_median_deg,
                        rec.rel_mean_deg,
                        rec.rel_median_deg,
                        rec.abs_mean_deg,
                        rec.abs_median_deg,
                    )
                ]
            )


def load_trace(path) -> list[TraceRecord]:
    records = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != TRACE_COLUMNS:
            raise ParseError(path, 1, "bad or missing trace header")
        for line_no, row in enumerate(reader, 2):
            if len(row) != len(TRACE_COLUMNS):
                raise ParseError(path, line_no, f"expected {len(TRACE_COLUMNS)} cells")
            try:
                step = int(row[0])
                vals = [None if cell == "" else float(cell) for cell in row[1:]]
            except ValueError:
                raise ParseError(path, line_no, "malformed number")
            if vals[2] is None or vals[3] is None:
                raise ParseError(path, line_no, "relative errors must be present")
            if records and step < records[-1].step:
                raise ParseError(path, line_no, "steps must be non-decreasing")
            records.append(TraceRecord(step, *vals))
    return records


@dataclass
class SummaryRow:
    """One benchmark run's headline results (one CSV row)."""

    env: str
    algorithm: str
    seed: int
    nauc: float | None
    steps_to_5deg: int | None
    final_ape_mean_deg: float | None
    final_ape_median_deg: float | None
    final_rel_mean_deg: float | None
    final_rel_median_deg: float | None
    final_abs_mean_deg: float | None
    final_abs_median_deg: float | None


def export_summary(rows, path) -> None:
    """Write one row per run; a run that never crossed the convergence
    threshold carries the literal NotConverged token."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SUMMARY_COLUMNS)
        for row in rows:
            if row.steps_to_5deg is not None:
                steps = str(row.steps_to_5deg)
            elif row.final_ape_mean_deg is not None:
                steps = NOT_CONVERGED
            else:
                steps = ""  # no ground truth: convergence is undefined
            writer.writerow(
                [
                    row.env,
                    row.algorithm,
                    str(row.seed),
                    "" if row.nauc is None else _fmt(row.nauc),
                    steps,
                ]
                + [
                    "" if v is None else _fmt(v)
                    for v in (
                        row.final_ape_mean_deg,
                        row.final_ape_median_deg,
                        row.final_rel_mean_deg,
                        row.final_rel_median_deg,
                        row.final_abs_mean_deg,
                        row.final_abs_median_deg,
                    )
                ]
            )


def load_summary(path) -> list[SummaryRow]:
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != SUMMARY_COLUMNS:
            raise ParseError(path, 1, "bad or missing summary header")
        for line_no, row in enumerate(reader, 2):
            if len(row) != len(SUMMARY_COLUMNS):
                raise ParseError(path, line_no, f"expected {len(SUMMARY_COLUMNS)} cells")
            try:
                steps_cell = row[4]
                if steps_cell in ("", NOT_CONVERGED):
                    steps = None
                else:
                    steps = int(steps_cell)
                floats = [None if cell == "" else float(cell) for cell in row[5:]]
                nauc_val = None if row[3] == "" else float(row[3])
                rows.append(
                    SummaryRow(row[0], row[1], int(row[2]), nauc_val, steps, *floats)
                )
            except ValueError:
                raise ParseError(path, line_no, "malformed number")
    return rows
