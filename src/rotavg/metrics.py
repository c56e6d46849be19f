"""Evaluation quantities for rotation-averaging runs.

All errors are reported in degrees.  Under the edge convention
R(q_i_j) R_j = R_i the averaging objective is unchanged when every
estimate is post-multiplied by one constant rotation; pairwise and
relative errors are invariant under that gauge, and absolute errors first
resolve it with a chordal-L2 alignment.  Every error's mean and exact
median come from one reducer, which sums angles in a fixed order (numpy's
pairwise summation per block, blocks in order), so results are pure
functions of the snapshot and never depend on the call's history.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import rotmath

_RANK_TOL = 1e-9

# Pair cosines come _PANEL_ROWS rows at a time (at N = 2000 a 64-row block
# fits a 2 MB L2 cache with its masks, a 128-row one does not); the median is
# bracketed by the ranks _SAMPLE_MARGIN around the middle of ~_SAMPLE pairs.
_PANEL_ROWS = 64
_SAMPLE = 1 << 14
_SAMPLE_MARGIN = 256
_UPPER = np.triu(np.ones((_PANEL_ROWS, _PANEL_ROWS), dtype=bool), 1)


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


def _gauge_products(estimates, ground_truth) -> np.ndarray:
    """G_i = Rhat_i^T R_i of every node, flattened to (N, 9) rows."""
    est, gt = _as_matrices(estimates), np.asarray(ground_truth, dtype=float)
    if gt.shape != est.shape:
        raise ValueError("ground truth shape does not match estimates")
    return (np.swapaxes(est, -1, -2) @ gt).reshape(-1, 9)


def _cosine_panels(ga, ha):
    """Per panel of rows i0..i1-1, the flat cosines <ga_i, ha_j> of its pairs
    i < j (diagonal block's upper triangle, then columns i1..N-1), as a view
    of one buffer that the next panel overwrites."""
    n = ga.shape[0]
    diag, buf = np.empty(_PANEL_ROWS ** 2), np.empty(_PANEL_ROWS * n)
    for i0 in range(0, n - 1, _PANEL_ROWS):
        i1 = min(i0 + _PANEL_ROWS, n)
        r, c, t = i1 - i0, n - i1, (i1 - i0) * (i1 - i0 - 1) // 2
        block = np.matmul(ga[i0:i1], ha[i0:i1].T, out=diag[:r * r].reshape(r, r))
        np.compress(_UPPER[:r, :r].ravel(), block, out=buf[:t])
        np.matmul(ga[i0:i1], ha[i1:].T, out=buf[t:t + r * c].reshape(r, c))
        yield buf[:t + r * c]


def _angle_sum(cos: np.ndarray):
    """Sum of the angles (radians) of cosines ``cos``, computed in place."""
    return np.add.reduce(np.arccos(np.clip(cos, -1.0, 1.0, out=cos), out=cos))


def _mean_median(blocks, lo=-np.inf, hi=np.inf) -> tuple[float, float] | None:
    """Mean and exact median, in degrees, of the angles of the cosine blocks
    ``blocks`` (overwritten); None when the kept cosines, those in [lo, hi],
    miss a middle rank.  As the cosine falls when the angle grows, the median
    angle is the middle cosine's angle, or the mean of the two middle ones."""
    total, m, below, inside, masks = 0.0, 0, 0, [], np.empty((2, 0), dtype=bool)
    for cos in blocks:
        masks = masks if masks.shape[1] >= cos.size else np.empty((2, cos.size), dtype=bool)
        lt_lo, in_range = masks[:, :cos.size]
        below += np.count_nonzero(np.less(cos, lo, out=lt_lo))
        # c < lo implies c <= hi, so the masks differ exactly where lo <= c <= hi
        np.not_equal(lt_lo, np.less_equal(cos, hi, out=in_range), out=in_range)
        inside.append(cos.take(np.flatnonzero(in_range)))
        total += _angle_sum(cos)
        m += cos.size
    mean = float(np.degrees(total) / m)
    if np.isnan(mean):  # a NaN cosine fails every bracket comparison
        return mean, mean
    bracket, k_lo, k_hi = np.concatenate(inside), (m - 1) // 2, m // 2
    del inside  # np.partition copies the bracket; hold the kept blocks no longer
    if not (below <= k_lo and k_hi < below + bracket.size):
        return None
    k = k_hi - below  # one single-rank partition (numpy's fast form), then the max below it
    part = np.partition(bracket, k)
    middle = np.array([part[:k].max() if k_lo < k_hi else part[k], part[k]])
    return mean, float(np.degrees(_angle_sum(middle))) / 2


def avg_pairwise_error(estimates, ground_truth) -> tuple[float, float]:
    """Mean and median, over all unordered pairs, of the angle between the
    estimated and true relative rotation of the pair.

    Gauge-invariant by construction: each term compares Rhat_i Rhat_j^T
    with R_i R_j^T, and a global gauge rotation cancels inside every
    pair product.  Costs O(N^2) time and O(N * panel) memory: one pass
    over row panels keeps only the cosines near the median, and a second
    pass, which holds all N(N-1)/2, runs only if those miss a middle rank.
    """
    g = _gauge_products(estimates, ground_truth)
    n = g.shape[0]
    if n < 2:
        raise ValueError(f"the pairwise error needs at least 2 nodes, got {n}")
    # pair ij has cos = (<G_i, G_j>_F - 1) / 2 = <ga_i, ha_j>, ga = [G / 2, -1/2], ha = [G, 1]
    ga, ha = np.hstack([g * 0.5, np.full((n, 1), -0.5)]), np.hstack([g, np.ones((n, 1))])
    m = n * (n - 1) // 2
    lo, hi = -np.inf, np.inf  # up to _SAMPLE pairs, the bracket keeps every one
    if m > _SAMPLE:  # pairs (i, i + d mod N), d = 1, 2, ..., in a fixed node shuffle
        order = np.random.default_rng(0).permutation(n)
        # window d holds ha_{(i + d) mod N} at column i, so no gathers
        windows = sliding_window_view(np.concatenate([ha[order]] * 2).T, n, axis=1)
        count = min(-(-_SAMPLE // n), (n - 1) // 2)
        sample = np.sort(np.einsum("ki,kdi->di", ga[order].T, windows[:, 1:count + 1]), None)
        ranks = ((m - 1) // 2) * sample.size // m + np.array([-_SAMPLE_MARGIN, _SAMPLE_MARGIN])
        # widened by 1e-15: this einsum and the panels' matmul round cosines up to 5.6e-16 apart
        lo, hi = sample[np.clip(ranks, 0, sample.size - 1)] + [-1e-15, 1e-15]
    return _mean_median(_cosine_panels(ga, ha), lo, hi) or _mean_median(_cosine_panels(ga, ha))


def relative_edge_error(estimates, env) -> tuple[float, float]:
    """Mean and median angle d(Rhat_i, R(q_i_j) Rhat_j) over the stored
    directed edges (each measured constraint exactly once)."""
    est = _as_matrices(estimates)
    i, j = env.edge_index.T
    # np.take gathers in half est[j]'s time; j before i: the other order took 25% longer
    target = env.edge_mats @ np.take(est, j, axis=0)
    return _mean_median([np.einsum("eab,eab->e", np.take(est, i, axis=0), target) / 2 - 0.5])


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
    return _nearest_gauge(_gauge_products(estimates, ground_truth))


def _nearest_gauge(g: np.ndarray) -> np.ndarray:
    """align_gauge's S from the gauge products ``g`` (see _gauge_products)."""
    m = np.add.reduce(g).reshape(3, 3)
    scale = np.linalg.norm(m)
    if not scale > 0.0:
        raise DegenerateAlignment("alignment accumulator is zero")
    m = m / scale
    sq = np.linalg.eigvalsh(m.T @ m)
    if np.sqrt(max(sq[0], 0.0)) <= _RANK_TOL * np.sqrt(sq[-1]):
        raise DegenerateAlignment("alignment accumulator is rank deficient")
    return rotmath.nearest_rotation(m)


def absolute_error(estimates, ground_truth) -> tuple[float, float]:
    """Mean and median per-node angle after optimal gauge alignment S, or
    S = I when the alignment is degenerate; node i's angle has cosine
    (tr((Rhat_i S)^T R_i) - 1) / 2 = (<S, G_i>_F - 1) / 2."""
    g = _gauge_products(estimates, ground_truth)
    try:
        s = _nearest_gauge(g)
    except DegenerateAlignment:
        s = np.eye(3)
    return _mean_median([g @ (s.ravel() / 2) - 0.5])


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


def steps_to_threshold(trace) -> int | None:
    """Step of the first checkpoint with mean pairwise error below 5
    degrees, the summary's steps_to_5deg; None when no checkpoint qualifies."""
    if len(trace) == 0:
        raise ValueError("empty trace")
    for rec in trace:
        if rec.ape_mean_deg is not None and rec.ape_mean_deg < 5.0:
            return rec.step
    return None


def evaluate(estimates, env, step: int) -> TraceRecord:
    """TraceRecord for the current estimates of an environment."""
    est = _as_matrices(estimates)
    rel = relative_edge_error(est, env)
    if env.ground_truth is None:
        return TraceRecord(step, None, None, *rel)
    gt = env.ground_truth
    return TraceRecord(step, *avg_pairwise_error(est, gt), *rel, *absolute_error(est, gt))
