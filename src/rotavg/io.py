"""Text serialization for environments, estimates, traces, and summaries,
plus import of 1DSfM-style relative-rotation edge lists.

All files are written as UTF-8 with LF line endings and read as streams
of lines; lines starting with '#' are comments and ignored (they are also
excluded from checksums, so annotating a file by hand does not invalidate
it).  Floats are written with 17 significant digits, which round-trips
IEEE doubles exactly and makes save -> load -> save byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
import math
import re
from contextlib import suppress
from dataclasses import astuple, dataclass, fields, replace
from io import StringIO
from itertools import islice

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

_CHUNK_ROWS = 4096  # lines per np.loadtxt call of the row reader, _read_table


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


# 17 significant digits: round-trips an IEEE double exactly
_FLOAT = "%.17g"


def format_float(x: float) -> str:
    return _FLOAT % float(x)


def _cell(value) -> str:
    """A CSV cell: empty for None, format_float for a float, else str."""
    if value is None:
        return ""
    return format_float(value) if isinstance(value, float) else str(value)


def _streamed_lines(path, newline=None):
    """(line number, line) of each line of a UTF-8 text file, read as a
    stream so that no file is ever held in memory whole.  ``newline`` is
    open()'s: by default a line ends at LF, CRLF or a lone CR and reads with
    an LF end.  This is io's one file reader."""
    line_no = 0
    try:
        with open(path, "r", encoding="utf-8", newline=newline) as fh:
            for line_no, line in enumerate(fh, 1):
                yield line_no, line
    except UnicodeDecodeError:
        raise ParseError(path, line_no + 1, "invalid UTF-8 at or after this line") from None


def write_text(path, text: str) -> None:
    """Write ``text`` as UTF-8 with LF line ends: rotavg's one file writer."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_checksummed(lines: list[str], path) -> None:
    """Write ``lines`` and then the checksum line: the SHA-256 of the UTF-8
    of those lines, each ended by LF."""
    payload = "".join(line + "\n" for line in lines)
    write_text(path, f"{payload}checksum {hashlib.sha256(payload.encode()).hexdigest()}\n")


def _is_content(line: str) -> bool:
    stripped = line.strip()
    return bool(stripped) and stripped[0] != "#"


def _records(path, sha):
    """(line number, line without its end) of each content line of an
    environment or estimate file, each added to ``sha`` as it is taken, the
    way _write_checksummed digests it; then (last line number + 1, None).
    Lines end at LF; CRs before an LF are dropped."""
    line_no = 0
    for line_no, line in _streamed_lines(path, newline="\n"):
        if _is_content(line):
            line = line.rstrip("\r\n")
            sha.update(line.encode("utf-8") + b"\n")
            yield line_no, line
    yield line_no + 1, None


def _read_field(records, path, tag: str, what: str, form: str) -> tuple[int, str]:
    """(line number, value) of the next record, which must be '<tag> <value>';
    ``form`` is the message for a line of another shape."""
    line_no, line = next(records)
    if line is None:
        raise ParseError(path, line_no, f"unexpected end of file, expected {what}")
    tokens = line.split()
    if len(tokens) != 2 or tokens[0] != tag:
        raise ParseError(path, line_no, form)
    return line_no, tokens[1]


def _read_header(records, path, magic: str) -> None:
    line_no, version = _read_field(records, path, magic, "format header",
                                   f"expected '{magic} <version>' header")
    if version != str(FORMAT_VERSION):
        raise ParseError(path, line_no, f"unrecognized format version {version!r}")


def _read_count(records, path, name: str) -> tuple[int, int]:
    """(line number, count) of the next record, which must be '<name> <count>'."""
    form = f"expected '{name} <count>' with a non-negative integer count"
    line_no, count = _read_field(records, path, name, f"'{name} <count>'", form)
    if not re.fullmatch("[0-9]+", count):
        raise ParseError(path, line_no, form)
    return line_no, int(count)


def _read_table(numbered, dtype, parse_line, accept, usecols=None):
    """(rows of the structured ``dtype``, line numbers) of (line number, line)
    pairs: the one numeric row reader.  np.loadtxt parses _CHUNK_ROWS lines
    at a time, rejecting what int() or float() rejects and reading the same
    bits.  A chunk it rejects, holding a NUL (a string field drops it) or the
    end-of-file marker (line None), or refused by ``accept(rows, line_nos,
    lines)`` goes line by line through ``parse_line(k, line_no, line)`` (k
    from 0): it returns a row tuple, or None to drop the line, or raises."""
    parts, kept_nos, start = [], [], 0
    while chunk := list(islice(numbered, _CHUNK_ROWS)):
        line_nos, lines = map(list, zip(*chunk))  # loadtxt reads a list faster than a tuple
        rows = None
        if lines[-1] is not None and "\x00" not in "".join(lines):
            with suppress(ValueError):
                rows = np.loadtxt(lines, dtype=dtype, comments=None, usecols=usecols, ndmin=1)
        if rows is None or not accept(rows, line_nos, lines):
            kept = [(n, row) for k, (n, line) in enumerate(chunk, start)
                    if (row := parse_line(k, n, line)) is not None]
            line_nos = [n for n, _ in kept]
            rows = np.array([row for _, row in kept], dtype=dtype)
        parts.append(rows)
        kept_nos += line_nos
        start += len(chunk)
    return (np.concatenate(parts) if parts else np.zeros(0, dtype)), kept_nos


def _read_rows(records, path, tag: str, count: int, n_ids: int, width: int, form: str,
               values: str | None = None, dense: bool = False):
    """The next ``count`` records, each '<tag> <id>×n_ids <float>×width', as
    (ids (count, n_ids), values (count, width), line numbers), gathered before
    anything is sized by ``count``.  ``form``, formatted with the row index
    ``k``, is the message for a line of another shape; ``values`` names the
    values of a malformed number (default: its row's tokens).  ``dense`` ids
    are text, to match the row index; other ids that are no integer or do not
    fit int64 read as -1, which every section's range check rejects."""
    id_type = f"U{len(str(count)) + 1}" if dense else "i8"  # longer text cannot match
    dtype = [("tag", f"U{len(tag) + 1}"), ("id", id_type, (n_ids,)), ("v", "f8", (width,))]

    def parse_line(k, line_no, line):
        if line is None or line.split(None, 1)[0] == "checksum":  # content ends short of count
            raise ParseError(path, line_no, f"unexpected end of file after {k} '{tag}' lines, "
                                            f"where the header counts {count}")
        tokens = line.split()
        if len(tokens) != 1 + n_ids + width or tokens[0] != tag:
            raise ParseError(path, line_no, form.format(k=k))
        ids = tokens[1:1 + n_ids]
        if dense:  # the verdict of a numpy text compare, which drops trailing NULs
            ids = [str(k) if t.rstrip("\x00") == str(k) else "-" for t in ids]
        else:
            try:
                ids = [i if -2**63 <= i < 2**63 else -1 for i in map(int, ids)]
            except ValueError:
                ids = [-1] * n_ids
        try:
            return tag, ids, [float(t) for t in tokens[1 + n_ids:]]
        except ValueError:
            raise ParseError(path, line_no, "malformed number in "
                                            f"{values or repr(tokens[1 + n_ids:])}") from None

    rows, line_nos = _read_table(islice(records, count), dtype, parse_line,
                                 accept=lambda rows, *_: np.all(rows["tag"] == tag))
    return rows["id"], rows["v"], line_nos


def _rows(tag: str, ids, values) -> list[str]:
    """The lines '<tag> <int>×n_ids <float>×width' that _read_rows reads,
    one per row of ``ids`` (count, n_ids) and ``values`` (count, width)."""
    template = " ".join([tag] + ["%d"] * ids.shape[1] + [_FLOAT] * values.shape[1])
    return [template % (*i, *v) for i, v in zip(ids.tolist(), values.tolist())]


def _raise_first(path, line_nos, checks, newline="\n") -> None:
    """Raise ParseError at the earliest row that a check flags.  ``checks``
    pairs a boolean mask over the rows with a function of the row index and
    line (read again, with _streamed_lines' ``newline``) to the message; at
    one row the first listed check wins, as it would line by line."""
    firsts = [(int(np.argmax(bad)), c) for c, (bad, _) in enumerate(checks) if np.any(bad)]
    if firsts:
        k, c = min(firsts)
        line = next(text for n, text in _streamed_lines(path, newline) if n == line_nos[k])
        raise ParseError(path, line_nos[k], checks[c][1](k, line))


def _non_unit(quats):
    """The unit-quaternion check over rows whose last four tokens are a
    quaternion, naming those tokens as written."""
    return (rotmath.not_unit_quat(quats),
            lambda k, line: "non-unit quaternion " + " ".join(line.split()[-4:]))


def _check_trailer(records, path, sha) -> int:
    """Verify the optional checksum line and that nothing follows it;
    return the number of the file's last line."""
    digest = sha.hexdigest()  # of the lines taken before the checksum line
    line_no, trailer = next(records)
    if trailer is not None:
        tokens = trailer.split()
        if len(tokens) != 2 or tokens[0] != "checksum":
            raise ParseError(path, line_no, f"unexpected trailing line {trailer!r}")
        if tokens[1] != digest:
            raise ChecksumMismatch(f"{path}: checksum does not match content")
        line_no, extra = next(records)
        if extra is not None:
            raise ParseError(path, line_no, "content after checksum line")
    return line_no - 1


def save_env(env: RotationEnvironment, path) -> None:
    """Write an environment in the canonical text format (with checksum)."""
    lines = [
        f"{ENV_MAGIC} {FORMAT_VERSION}",
        f"nodes {env.n_nodes}",
        f"ground-truth {1 if env.ground_truth is not None else 0}",
        f"edges {env.n_edges}",
    ]
    if env.ground_truth is not None:
        lines += _rows("gt", np.arange(env.n_nodes)[:, None], env.ground_truth_quats)
    lines += _rows("edge", env.edge_index, env.edge_quats)
    _write_checksummed(lines, path)


def load_env(path) -> RotationEnvironment:
    """Read an environment written by :func:`save_env`.

    Raises ParseError with the offending line on malformed input and
    ChecksumMismatch when the trailing digest disagrees.
    """
    sha = hashlib.sha256()
    records = _records(path, sha)
    _read_header(records, path, ENV_MAGIC)
    _, n_nodes = _read_count(records, path, "nodes")
    line_no, has_gt = _read_count(records, path, "ground-truth")
    if has_gt not in (0, 1):
        raise ParseError(path, line_no, "ground-truth flag must be 0 or 1")
    line_no, n_edges = _read_count(records, path, "edges")
    if n_nodes < 2:
        raise ParseError(path, line_no, "node count must be >= 2")
    if n_edges < 1:
        raise ParseError(path, line_no, "edge count must be >= 1")
    if n_nodes > n_edges + 1:
        raise ParseError(path, line_no, f"node count {n_nodes} exceeds edge count {n_edges} + 1, "
                                        "so the graph cannot be connected")

    gt = None
    if has_gt:
        ids, gt, line_nos = _read_rows(records, path, "gt", n_nodes, 1, 4,
                                       "expected 'gt <id> <w> <x> <y> <z>'", dense=True)
        _raise_first(path, line_nos, [
            (ids[:, 0] != np.arange(n_nodes).astype(str), lambda k, line: "ground-truth ids "
             f"must be dense: expected {k}, got {line.split()[1]!r}"),
            _non_unit(gt),
        ])

    edge_index, edge_quats, line_nos = _read_rows(
        records, path, "edge", n_edges, 2, 4, "expected 'edge <i> <j> <w> <x> <y> <z>'")
    i, j = edge_index.T

    def bad_endpoint(k, line):  # -1 stands for an endpoint that is no integer or beyond int64
        try:
            return "edge endpoint out of range: ({}, {})".format(*map(int, line.split()[1:3]))
        except ValueError:
            return "malformed edge endpoint"

    _raise_first(path, line_nos, [
        ((i < 0) | (i >= n_nodes) | (j < 0) | (j >= n_nodes), bad_endpoint),
        (i == j, lambda k, _: f"self loop on node {i[k]}"),
        _non_unit(edge_quats),
    ])

    last_line = _check_trailer(records, path, sha)
    try:
        return RotationEnvironment(n_nodes, edge_index, edge_quats, ground_truth=gt)
    except ValueError as exc:  # a duplicate pair, a disconnected graph
        raise ParseError(path, last_line, str(exc)) from None


def save_estimates(estimates: EstimateSet, path) -> None:
    """Write an estimate set; values are stored verbatim per
    parameterization (4, 3, or 9 numbers per node)."""
    n = estimates.n_nodes
    lines = [
        f"{EST_MAGIC} {FORMAT_VERSION}",
        f"parameterization {estimates.parameterization}",
        f"nodes {n}",
    ]
    lines += _rows("est", np.arange(n)[:, None], estimates.values.reshape(n, -1))
    _write_checksummed(lines, path)


def _estimate_faults(param, vals):
    """(mask, reason) of the nodes whose values are not a usable rotation:
    non-finite, a quaternion of zero or overflowing norm, an MRP whose
    squared norm overflows, or a matrix farther than EST_MAX_GRAM_ERROR
    from orthonormal or with determinant <= 0."""
    if param == "so3_matrix":
        mats = vals.reshape(-1, 3, 3)
        with np.errstate(invalid="ignore", over="ignore"):
            gram = np.swapaxes(mats, -1, -2) @ mats - np.eye(3)
            ok = (np.max(np.abs(gram), axis=(1, 2)) <= EST_MAX_GRAM_ERROR) \
                & (np.linalg.det(mats) > 0.0)
        return ~ok, f"is not a rotation matrix (tolerance {EST_MAX_GRAM_ERROR:g})"
    with np.errstate(over="ignore"):
        norm2 = np.sum(vals * vals, axis=1)
    ok = np.isfinite(norm2)
    if param == "quaternion":
        return ~(ok & (norm2 > 0.0)), "is a zero quaternion or has a non-finite value or norm"
    return ~ok, "has a non-finite value or norm"


def load_estimates(path) -> EstimateSet:
    """Read an estimate set written by :func:`save_estimates`.

    Raises ParseError naming the line (and, for bad values, the node) on
    malformed input and ChecksumMismatch when the trailing digest
    disagrees.
    """
    sha = hashlib.sha256()
    records = _records(path, sha)
    _read_header(records, path, EST_MAGIC)
    line_no, param = _read_field(records, path, "parameterization", "'parameterization <name>'",
                                 "expected 'parameterization <name>'")
    if param not in VALUE_SHAPES:
        raise ParseError(path, line_no, f"unknown parameterization {param!r}")
    _, n = _read_count(records, path, "nodes")

    width = math.prod(VALUE_SHAPES[param])
    form = f"expected 'est {{k}}' with {width} values"
    ids, vals, line_nos = _read_rows(records, path, "est", n, 1, width, form,
                                     "estimate values", dense=True)
    bad, reason = _estimate_faults(param, vals)
    _raise_first(path, line_nos, [
        (ids[:, 0] != np.arange(n).astype(str), lambda k, _: form.format(k=k)),
        (bad, lambda k, _: f"estimate for node {k} {reason}"),
    ])
    _check_trailer(records, path, sha)
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
            f"dropped: {self.dropped_malformed} malformed, {self.dropped_self_loops} self loops, "
            f"{self.dropped_duplicates} duplicate pairs, "
            f"{self.dropped_not_rotation} non-rotation matrices, "
            f"{self.dropped_without_ground_truth} rows touching nodes without ground truth",
            f"components: {self.n_components}; outside largest: "
            f"{self.dropped_nodes_disconnected} nodes, {self.dropped_edges_disconnected} edges",
            f"kept: {self.kept_nodes} nodes, {self.kept_edges} edges",
        ]


def import_1dsfm(path, gt_path=None, strict: bool = False):
    """Build an environment from a whitespace-delimited edge list.

    Rows are ``i j m11 m12 m13 m21 m22 m23 m31 m32 m33 [t1 t2 t3]`` with a
    row-major relative rotation satisfying R @ R_j = R_i; optional trailing
    translation columns are ignored (strict mode only accepts exactly 11
    or 14 columns).  Matrices are projected to their nearest rotation;
    rows farther than ``IMPORT_MAX_FROBENIUS`` from it (or with a
    non-finite entry), self loops, and duplicate unordered pairs are
    dropped and counted.  When a
    ground-truth file (rows ``i q_w q_x q_y q_z``) is given, nodes without
    a reference rotation are dropped first so absolute errors are defined
    everywhere.  Only the largest connected component is kept.

    Returns (environment, ImportReport).
    """
    dropped_malformed = 0

    def parse_line(k, line_no, line):
        nonlocal dropped_malformed
        tokens = line.split()
        if strict and len(tokens) not in (11, 14):
            raise ParseError(path, line_no, f"expected 11 or 14 columns, got {len(tokens)}")
        try:
            i, j, *m = int(tokens[0]), int(tokens[1]), *map(float, tokens[2:11])
            if len(m) < 9 or max(abs(i), abs(j)).bit_length() > 63:
                raise ValueError("too few columns, or a node id beyond int64")
        except (ValueError, IndexError):
            if strict:
                raise ParseError(path, line_no, "malformed number") from None
            dropped_malformed += 1
            return None
        return (i, j), m

    def accept(rows, line_nos, lines):  # -2**63 fits int64 but not in 63 bits
        return rows["ij"].min() > np.iinfo(np.int64).min and not (
            strict and any(len(line.split()) not in (11, 14) for line in lines))

    content = ((n, line) for n, line in _streamed_lines(path) if _is_content(line))
    rows, _ = _read_table(content, [("ij", "i8", 2), ("m", "f8", 9)], parse_line,
                          usecols=range(11), accept=accept)
    source_edges = rows.size + dropped_malformed
    keep = rows["ij"][:, 0] != rows["ij"][:, 1]
    dropped_self = rows.size - int(np.count_nonzero(keep))
    if not keep.any():
        raise EmptyGraph(f"{path}: no usable edge rows")
    src, dst = rows["ij"][keep].T
    mats = rows["m"][keep].reshape(-1, 3, 3)
    source_nodes = np.unique(np.concatenate([src, dst])).size

    # nearest_rotation raises on NaN or inf: such rows keep a zero projection,
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
    node_ids, inverse = np.unique(np.concatenate([src, dst]), return_inverse=True)
    ci, cj = inverse[:src.size], inverse[src.size:]
    labels = connected_components(node_ids.size, ci, cj)
    roots, counts = np.unique(labels, return_counts=True)
    n_components = roots.size
    keep_root = roots[np.argmax(counts)]
    node_keep = labels == keep_root
    edge_keep = node_keep[ci]  # both ends of an edge share its component

    kept_ids = node_ids[node_keep]
    remap = np.full(node_ids.size, -1, dtype=np.int64)
    remap[node_keep] = np.arange(node_keep.sum())
    fi = remap[ci[edge_keep]]
    fj = remap[cj[edge_keep]]
    fq = rotmath.matrix_to_quat(proj[edge_keep])

    gt = None
    if gt_map is not None:
        gt = np.stack([gt_map[int(v)] for v in kept_ids])

    env = RotationEnvironment(kept_ids.size, np.stack([fi, fj], axis=1), fq, ground_truth=gt)
    report = ImportReport(  # in the order of its fields
        source_nodes, source_edges, dropped_malformed, dropped_self, int(dropped_dup),
        dropped_not_rotation, dropped_without_gt, int(n_components),
        int(node_ids.size - kept_ids.size), int(np.count_nonzero(~edge_keep)),
        int(kept_ids.size), int(fi.size))
    return env, report


def _load_gt_table(path) -> dict[int, np.ndarray]:
    line_of = {}  # node id -> the line that lists it

    def parse_line(k, line_no, line):
        tokens = line.split()
        if len(tokens) != 5:
            raise ParseError(path, line_no,
                             f"expected 'i q_w q_x q_y q_z', got {len(tokens)} columns")
        try:
            node = int(np.int64(tokens[0]))
        except (ValueError, OverflowError):  # ids must fit int64
            raise ParseError(path, line_no, "malformed node id") from None
        if line_of.setdefault(node, line_no) != line_no:
            raise ParseError(path, line_no, f"node {node} is listed again "
                                            f"(first at line {line_of[node]})")
        try:
            return node, [float(t) for t in tokens[1:]]
        except ValueError:
            raise ParseError(path, line_no, f"malformed number in {tokens[1:]!r}") from None

    def new_ids(rows, line_nos, lines):  # else parse_line names the first repeat
        ids = rows["i"].tolist()
        fresh = len(set(ids)) == len(ids) and line_of.keys().isdisjoint(ids)
        line_of.update(zip(ids, line_nos) if fresh else ())
        return fresh

    content = ((n, line) for n, line in _streamed_lines(path) if _is_content(line))
    rows, line_nos = _read_table(content, [("i", "i8"), ("q", "f8", 4)], parse_line,
                                 accept=new_ids)
    if not line_nos:  # named at the file's last line, an empty file at line 1
        raise ParseError(path, max((n for n, _ in _streamed_lines(path)), default=1),
                         "no ground-truth rows")
    _raise_first(path, line_nos, [_non_unit(rows["q"])], newline=None)
    return dict(zip(rows["i"].tolist(), rows["q"]))


def _csv_rows(path, columns, what: str):
    """(line number, cells) of each row of a CSV file whose header row
    must be ``columns``; ParseError on any other header or cell count."""
    reader = csv.reader(line for _, line in _streamed_lines(path, newline=""))
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


def csv_text(columns, rows) -> str:
    """The CSV text of the header row ``columns`` and then of each row of
    values as cells, with LF row ends: the one CSV dialect rotavg writes."""
    buf = StringIO()
    csv.writer(buf, lineterminator="\n").writerows([columns, *(map(_cell, row) for row in rows)])
    return buf.getvalue()


def export_trace(trace, path) -> None:
    """Write checkpoint records as CSV; empty cells where a metric is
    unavailable (no ground truth)."""
    write_text(path, csv_text(TRACE_COLUMNS, map(astuple, trace)))


def export_summary(rows, path) -> None:
    """Write one row per run; a run that never crossed the convergence
    threshold carries the literal NotConverged token, and a run without
    ground truth, whose convergence is undefined, an empty cell."""
    def values(row):
        if row.steps_to_5deg is None and row.final_ape_mean_deg is not None:
            row = replace(row, steps_to_5deg=NOT_CONVERGED)
        return astuple(row)

    write_text(path, csv_text(SUMMARY_COLUMNS, map(values, rows)))


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
