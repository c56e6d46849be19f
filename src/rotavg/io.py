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
import math
import re
from dataclasses import dataclass, fields
from io import StringIO
from pathlib import Path

import numpy as np

from . import rotmath
from .averaging import VALUE_SHAPES, EstimateSet
from .envgraph import RotationEnvironment, connected_components
from .metrics import TraceRecord

ENV_MAGIC = "ROTAVG-ENV"
EST_MAGIC = "ROTAVG-EST"
FORMAT_VERSION = 1


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


# CSV columns are the record fields, in order
TRACE_COLUMNS = tuple(f.name for f in fields(TraceRecord))
SUMMARY_COLUMNS = tuple(f.name for f in fields(SummaryRow))

NOT_CONVERGED = "NotConverged"

# Frobenius distance beyond which an imported matrix is rejected as
# not-a-rotation rather than silently repaired.
IMPORT_MAX_FROBENIUS = 1e-2

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


def format_float(x: float) -> str:
    """17 significant digits: round-trips an IEEE double exactly."""
    return format(float(x), ".17g")


def _cell(value) -> str:
    """A CSV cell: empty for None, format_float for a float."""
    if value is None:
        return ""
    return format_float(value) if isinstance(value, float) else str(value)


def _decode(path) -> str:
    """The file's text; ParseError at the line of its first non-UTF-8 byte."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(path, data.count(b"\n", 0, exc.start) + 1, "invalid UTF-8") from None


def _digest(lines: list[str]) -> str:
    payload = "".join(line + "\n" for line in lines)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _is_content(line: str) -> bool:
    stripped = line.strip()
    return bool(stripped) and stripped[0] != "#"


class _LineReader:
    """Iterates content lines of a text file, tracking line numbers and the
    exact lines consumed (for checksum verification)."""

    def __init__(self, path):
        self.path = path
        self._lines = _decode(path).split("\n")
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
            if _is_content(line):
                return line
        return None

    def check_lines_left(self, need: int, counts: str) -> None:
        """Reject header counts that promise more content lines than the
        file holds, before anything is allocated for them."""
        left = sum(map(_is_content, self._lines[self._pos:]))
        if need > left:
            self.fail(f"header counts ({counts}) expected {need} more lines; the file has {left}")

    def fail(self, reason: str):
        raise ParseError(self.path, self.line_no, reason)


def _expect(reader: _LineReader, what: str) -> str:
    """The next content line, recorded for the checksum."""
    line = reader.next_content_line()
    if line is None:
        raise ParseError(reader.path, reader.line_no + 1, f"unexpected end of file, expected {what}")
    reader.consumed.append(line)
    return line


def _read_header(reader: _LineReader, magic: str) -> None:
    header = _expect(reader, "format header")
    tokens = header.split()
    if len(tokens) != 2 or tokens[0] != magic:
        reader.fail(f"expected '{magic} <version>' header")
    if tokens[1] != str(FORMAT_VERSION):
        reader.fail(f"unrecognized format version {tokens[1]!r}")


def _read_count(reader: _LineReader, name: str) -> int:
    """The count on the next content line, which must be '<name> <count>'."""
    line = _expect(reader, f"'{name} <count>'")
    tokens = line.split()
    if len(tokens) != 2 or tokens[0] != name or not re.fullmatch("[0-9]+", tokens[1]):
        reader.fail(f"expected '{name} <count>' with a non-negative integer count")
    return int(tokens[1])


def _parse_quat(tokens, path, line_no: int) -> np.ndarray:
    try:
        q = np.array([float(t) for t in tokens], dtype=float)
    except ValueError:
        raise ParseError(path, line_no, f"malformed number in {tokens!r}") from None
    if rotmath.not_unit_quat(q):
        raise ParseError(path, line_no, f"non-unit quaternion {' '.join(tokens)}")
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
            lines.append(f"gt {i} " + " ".join(format_float(x) for x in q))
    for (i, j), q in zip(env.edge_index, env.edge_quats):
        lines.append(f"edge {i} {j} " + " ".join(format_float(x) for x in q))
    lines.append(f"checksum {_digest(lines)}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_env(path) -> RotationEnvironment:
    """Read an environment written by :func:`save_env`.

    Raises ParseError with the offending line on malformed input and
    ChecksumMismatch when the trailing digest disagrees.
    """
    reader = _LineReader(path)
    _read_header(reader, ENV_MAGIC)
    n_nodes = _read_count(reader, "nodes")
    has_gt = _read_count(reader, "ground-truth")
    if has_gt not in (0, 1):
        reader.fail("ground-truth flag must be 0 or 1")
    n_edges = _read_count(reader, "edges")
    if n_nodes < 2:
        reader.fail("node count must be >= 2")
    if n_edges < 1:
        reader.fail("edge count must be >= 1")
    if n_nodes > n_edges + 1:
        reader.fail(f"node count {n_nodes} exceeds edge count {n_edges} + 1, "
                    "so the graph cannot be connected")
    reader.check_lines_left(n_edges + has_gt * n_nodes, f"nodes {n_nodes}, edges {n_edges}")

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
            gt[want] = _parse_quat(tokens[2:], path, reader.line_no)

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
        edge_quats[e] = _parse_quat(tokens[3:], path, reader.line_no)

    _check_trailer(reader)
    try:
        return RotationEnvironment(n_nodes, edge_index, edge_quats, ground_truth=gt)
    except ValueError as exc:  # a duplicate pair, a disconnected graph
        reader.fail(str(exc))


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
        lines.append(f"est {i} " + " ".join(format_float(x) for x in row))
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
    _read_header(reader, EST_MAGIC)
    line = _expect(reader, "'parameterization <name>'")
    tokens = line.split()
    if len(tokens) != 2 or tokens[0] != "parameterization":
        reader.fail("expected 'parameterization <name>'")
    param = tokens[1]
    if param not in VALUE_SHAPES:
        reader.fail(f"unknown parameterization {param!r}")
    n = _read_count(reader, "nodes")
    reader.check_lines_left(n, f"nodes {n}")

    width = math.prod(VALUE_SHAPES[param])
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

    _check_trailer(reader)
    _check_estimate_values(param, vals, line_nos, reader.path)
    return EstimateSet(param, vals.reshape(n, *VALUE_SHAPES[param]))


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


def _streamed_content_lines(path):
    """(line number, line) of each content line of a file read as a stream,
    so that a large edge list is never held in memory whole."""
    line_no = 0
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, 1):
                if _is_content(line):
                    yield line_no, line
    except UnicodeDecodeError:
        raise ParseError(path, line_no + 1, "invalid UTF-8 at or after this line") from None


def import_1dsfm(path, gt_path=None, strict: bool = False):
    """Build an environment from a whitespace-delimited edge list.

    Rows are ``i j m11 m12 m13 m21 m22 m23 m31 m32 m33 [t1 t2 t3]`` with a
    row-major relative rotation satisfying R @ R_j = R_i; optional trailing
    translation columns are ignored (strict mode only accepts exactly 11
    or 14 columns).  Matrices are re-orthonormalized to their nearest
    rotation (SVD); rows farther than ``IMPORT_MAX_FROBENIUS`` from it
    (or with a non-finite entry), self loops, and duplicate unordered
    pairs are dropped and counted.  When a
    ground-truth file (rows ``i q_w q_x q_y q_z``) is given, nodes without
    a reference rotation are dropped first so absolute errors are defined
    everywhere.  Only the largest connected component is kept.

    Returns (environment, ImportReport).
    """
    raw_ids: list[tuple[int, int]] = []
    raw_m: list[float] = []  # the nine matrix entries of each row, in turn
    dropped_malformed = 0
    dropped_self = 0

    for line_no, line in _streamed_content_lines(path):
        tokens = line.split()
        if strict and len(tokens) not in (11, 14):
            raise ParseError(path, line_no, f"expected 11 or 14 columns, got {len(tokens)}")
        if len(tokens) < 11:
            dropped_malformed += 1
            continue
        try:
            i, j = int(tokens[0]), int(tokens[1])
            m = [float(t) for t in tokens[2:11]]
            if max(abs(i), abs(j)).bit_length() > 63:
                raise ValueError("node id does not fit int64")
        except ValueError:
            if strict:
                raise ParseError(path, line_no, "malformed number")
            dropped_malformed += 1
            continue
        if i == j:
            dropped_self += 1
            continue
        raw_ids.append((i, j))
        raw_m.extend(m)

    source_edges = len(raw_ids) + dropped_malformed + dropped_self
    if not raw_ids:
        raise EmptyGraph(f"{path}: no usable edge rows")

    src, dst = np.array(raw_ids, dtype=np.int64).T
    mats = np.array(raw_m, dtype=float).reshape(-1, 3, 3)
    source_nodes = np.unique(np.concatenate([src, dst])).size

    # np.linalg.svd raises on NaN or inf: such rows keep a zero projection,
    # and their non-finite gap (like an overflowing one) fails the test below
    finite = np.all(np.isfinite(mats), axis=(1, 2))
    proj = np.zeros_like(mats)
    proj[finite] = rotmath.nearest_rotation(mats[finite])
    with np.errstate(over="ignore"):
        gap = np.linalg.norm((mats - proj).reshape(-1, 9), axis=1)
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
    pairs = np.stack([np.minimum(src, dst), np.maximum(src, dst)], axis=1)
    _, first = np.unique(pairs, axis=0, return_index=True)
    first = np.sort(first)
    dropped_dup = src.size - first.size
    src, dst, proj = src[first], dst[first], proj[first]

    if src.size == 0:
        raise EmptyGraph(f"{path}: no usable edges survived filtering")

    # largest connected component on the surviving nodes
    node_ids = np.unique(np.concatenate([src, dst]))
    ci = np.searchsorted(node_ids, src)
    cj = np.searchsorted(node_ids, dst)
    labels = connected_components(node_ids.size, ci, cj)
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
    for line_no, line in _streamed_content_lines(path):
        tokens = line.split()
        if len(tokens) != 5:
            raise ParseError(path, line_no, f"expected 'i q_w q_x q_y q_z', got {len(tokens)} columns")
        try:
            i = int(np.int64(tokens[0]))
        except (ValueError, OverflowError):  # ids must fit int64
            raise ParseError(path, line_no, "malformed node id") from None
        table[i] = _parse_quat(tokens[1:], path, line_no)
    if not table:
        raise ParseError(path, 0, "no ground-truth rows")
    return table


def _csv_rows(path, columns, what: str):
    """(line number, cells) of each row of a CSV file whose header row
    must be ``columns``; ParseError on any other header or cell count."""
    reader = csv.reader(StringIO(_decode(path), newline=""))
    try:
        header = next(reader, None)
        if header is None or tuple(header) != columns:
            raise ParseError(path, 1, f"bad or missing {what} header")
        for row in reader:
            if len(row) != len(columns):
                raise ParseError(path, reader.line_num, f"expected {len(columns)} cells")
            yield reader.line_num, row
    except csv.Error as exc:
        raise ParseError(path, reader.line_num, f"malformed CSV: {exc}") from None


def export_trace(trace, path) -> None:
    """Write checkpoint records as CSV; empty cells where a metric is
    unavailable (no ground truth)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_COLUMNS)
        for rec in trace:
            writer.writerow([_cell(getattr(rec, name)) for name in TRACE_COLUMNS])


def load_trace(path) -> list[TraceRecord]:
    records = []
    for line_no, row in _csv_rows(path, TRACE_COLUMNS, "trace"):
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


def export_summary(rows, path) -> None:
    """Write one row per run; a run that never crossed the convergence
    threshold carries the literal NotConverged token, and a run without
    ground truth, whose convergence is undefined, an empty cell."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SUMMARY_COLUMNS)
        for row in rows:
            cells = [_cell(getattr(row, name)) for name in SUMMARY_COLUMNS]
            if row.steps_to_5deg is None and row.final_ape_mean_deg is not None:
                cells[SUMMARY_COLUMNS.index("steps_to_5deg")] = NOT_CONVERGED
            writer.writerow(cells)


def load_summary(path) -> list[SummaryRow]:
    rows = []
    for line_no, row in _csv_rows(path, SUMMARY_COLUMNS, "summary"):
        try:
            steps = None if row[4] in ("", NOT_CONVERGED) else int(row[4])
            nauc, *finals = [None if cell == "" else float(cell) for cell in [row[3], *row[5:]]]
            rows.append(SummaryRow(row[0], row[1], int(row[2]), nauc, steps, *finals))
        except ValueError:
            raise ParseError(path, line_no, "malformed number")
    return rows
