"""Evaluation quantities for rotation-averaging runs.

All errors are reported in degrees.  Under the edge convention
R(q_i_j) R_j = R_i the averaging objective is unchanged when every
estimate is post-multiplied by one constant rotation; pairwise and
relative errors are invariant under that gauge, and absolute errors first
resolve it with a chordal-L2 alignment.  Everything here is a pure
function of its snapshot arguments, computed single-threaded with numpy's
pairwise summation, so results do not depend on any reduction order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rotmath

_RANK_TOL = 1e-9

# The pairwise metric forms pair traces a panel of rows at a time, turns
# them into angles a chunk at a time, and brackets the median trace by
# the ranks within _SAMPLE_MARGIN of the middle of a strided sample.
_PANEL_ROWS = 128
_CHUNK = 1 << 16
_SAMPLE = 1 << 14
_SAMPLE_MARGIN = 256


class DegenerateAlignment(RuntimeError):
    """The gauge-alignment accumulator is rank deficient; S is ambiguous."""


@dataclass
class TraceRecord:
    """Metric snapshot at one checkpoint.

    Fields needing ground truth (ape_*, abs_*) are None when the
    environment has none.
    """

    step: int
    ape_mean_deg: float | None
    ape_median_deg: float | None
    rel_mean_deg: float
    rel_median_deg: float
    abs_mean_deg: float | None = None
    abs_median_deg: float | None = None


def _as_matrices(estimates) -> np.ndarray:
    if hasattr(estimates, "to_matrices"):
        return estimates.to_matrices()
    est = np.asarray(estimates, dtype=float)
    if est.ndim != 3 or est.shape[-2:] != (3, 3):
        raise ValueError("estimates must be an EstimateSet or an (N, 3, 3) array")
    return est


def _angles_deg_from_traces(traces) -> np.ndarray:
    return np.degrees(rotmath.angle_from_trace(traces))


def _pair_traces(g: np.ndarray) -> np.ndarray:
    """<g_i, g_j> for every pair i < j, in np.triu_indices order."""
    n = g.shape[0]
    out = np.empty(n * (n - 1) // 2)
    pos = 0
    for i0 in range(0, n - 1, _PANEL_ROWS):
        i1 = min(i0 + _PANEL_ROWS, n - 1)
        # row r is node i0 + r, column c is node i0 + 1 + c
        panel = g[i0:i1] @ g[i0 + 1:].T
        for r in range(i1 - i0):
            row = panel[r, r:]
            out[pos:pos + row.size] = row
            pos += row.size
    return out


def avg_pairwise_error(estimates, ground_truth) -> tuple[float, float]:
    """Mean and median, over all unordered pairs, of the angle between the
    estimated and true relative rotation of the pair.

    Gauge-invariant by construction: each term compares Rhat_i Rhat_j^T
    with R_i R_j^T, and a global gauge rotation cancels inside every
    pair product.  Costs O(N^2) time and holds the N(N-1)/2 pair traces
    (8 bytes a pair) plus O(N) floats per row of a fixed-size panel.
    """
    est = _as_matrices(estimates)
    gt = np.asarray(ground_truth, dtype=float)
    n = est.shape[0]
    if gt.shape != (n, 3, 3):
        raise ValueError("ground truth shape does not match estimates")
    # G_i = Rhat_i^T R_i; pair angle ij has cos = (<G_i, G_j>_F - 1) / 2
    g = (np.swapaxes(est, -1, -2) @ gt).reshape(n, 9)
    traces = _pair_traces(g)
    m = traces.size

    # The angle falls as the trace grows, so the median angle is the
    # angle of the middle trace, or the mean of the two middle ones.
    k_lo, k_hi = (m - 1) // 2, m // 2
    sample = np.sort(traces[::max(1, m // _SAMPLE)])
    mid = k_lo * sample.size // m
    lo = sample[max(mid - _SAMPLE_MARGIN, 0)]
    hi = sample[min(mid + _SAMPLE_MARGIN, sample.size - 1)]

    total, below, inside = 0.0, 0, []
    for s in range(0, m, _CHUNK):
        chunk = traces[s:s + _CHUNK]
        total += float(np.sum(_angles_deg_from_traces(chunk)))
        below += int(np.count_nonzero(chunk < lo))
        inside.append(chunk[(chunk >= lo) & (chunk < hi)])
    mean = total / m
    if np.isnan(mean):  # a NaN trace fails every bracket comparison
        return mean, mean

    bracket = np.concatenate(inside)
    if below <= k_lo and k_hi < below + bracket.size:
        ks = [k_lo - below, k_hi - below]
        middle = np.partition(bracket, ks)[ks]
    else:  # the half-open bracket [lo, hi) missed a middle rank
        ks = [k_lo, k_hi]
        middle = np.partition(traces, ks)[ks]
    return mean, float(np.mean(_angles_deg_from_traces(middle)))


def relative_edge_error(estimates, env) -> tuple[float, float]:
    """Mean and median angle d(Rhat_i, R(q_i_j) Rhat_j) over the stored
    directed edges (each measured constraint exactly once)."""
    est = _as_matrices(estimates)
    i = env.edge_index[:, 0]
    j = env.edge_index[:, 1]
    target = env.edge_mats @ est[j]
    traces = np.einsum("eab,eab->e", est[i], target)
    ang = _angles_deg_from_traces(traces)
    return float(np.mean(ang)), float(np.median(ang))


def align_gauge(estimates, ground_truth) -> np.ndarray:
    """Rotation S minimizing sum_i ||R_i - Rhat_i S||_F^2.

    S acts on the right because that is the residual freedom of the
    averaging objective under the edge convention R(q_i_j) R_j = R_i: a
    converged estimate set satisfies Rhat_i = R_i G for one global G, so
    the chordal-optimal S recovers G^-1 and zeroes the per-node error.
    Computed as the nearest rotation to M = sum Rhat_i^T R_i (see
    rotmath.nearest_rotation).  Raises DegenerateAlignment when M is
    zero or rank deficient beyond tolerance and S is ambiguous.
    """
    est = _as_matrices(estimates)
    gt = np.asarray(ground_truth, dtype=float)
    if gt.shape != est.shape:
        raise ValueError("ground truth shape does not match estimates")
    m = np.einsum("nba,nbc->ac", est, gt)

    scale = np.linalg.norm(m)
    if not scale > 0.0:
        raise DegenerateAlignment("alignment accumulator is zero")
    m = m / scale
    sq = np.linalg.eigvalsh(m.T @ m)
    if np.sqrt(max(sq[0], 0.0)) <= _RANK_TOL * np.sqrt(sq[-1]):
        raise DegenerateAlignment("alignment accumulator is rank deficient")

    return rotmath.nearest_rotation(m)


def absolute_error(estimates, ground_truth) -> tuple[float, float]:
    """Mean and median per-node angle after optimal gauge alignment.

    Falls back to S = I when the alignment is degenerate.
    """
    est = _as_matrices(estimates)
    gt = np.asarray(ground_truth, dtype=float)
    try:
        s = align_gauge(est, gt)
    except DegenerateAlignment:
        s = np.eye(3)
    traces = np.einsum("nab,nab->n", est @ s, gt)
    ang = _angles_deg_from_traces(traces)
    return float(np.mean(ang)), float(np.median(ang))


def nauc(trace) -> float:
    """Area under the mean-pairwise-error curve over normalized steps.

    Trapezoidal integration of ape_mean_deg against step / max(step) on
    [0, 1]; a single-checkpoint trace integrates as a constant curve.
    """
    if len(trace) == 0:
        raise ValueError("nauc needs at least one checkpoint")
    errs = [r.ape_mean_deg for r in trace]
    if any(e is None for e in errs):
        raise ValueError("nauc needs ground-truth pairwise errors")
    if len(trace) == 1 or trace[-1].step == 0:
        return float(errs[0])
    steps = np.array([r.step for r in trace], dtype=float)
    return float(np.trapezoid(np.array(errs), steps / steps[-1]))


def steps_to_threshold(trace, threshold_deg: float = 5.0) -> int | None:
    """Step of the first checkpoint with mean pairwise error below the
    threshold; None when no checkpoint qualifies."""
    if len(trace) == 0:
        raise ValueError("empty trace")
    for rec in trace:
        if rec.ape_mean_deg is not None and rec.ape_mean_deg < threshold_deg:
            return rec.step
    return None


def evaluate(estimates, env, step: int) -> TraceRecord:
    """TraceRecord for the current estimates of an environment."""
    est = _as_matrices(estimates)
    rel_mean, rel_median = relative_edge_error(est, env)
    if env.ground_truth is None:
        return TraceRecord(step, None, None, rel_mean, rel_median)
    ape_mean, ape_median = avg_pairwise_error(est, env.ground_truth)
    abs_mean, abs_median = absolute_error(est, env.ground_truth)
    return TraceRecord(
        step, ape_mean, ape_median, rel_mean, rel_median, abs_mean, abs_median
    )
