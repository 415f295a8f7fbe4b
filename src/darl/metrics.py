"""Grade-threshold fitting and classification metrics.

The scorer emits a single probability per sample; two thresholds fitted on
validation data carve it into the three relevance grades.  Metrics are
macro-averaged over grades so the rare middle grade counts as much as the
dominant ones.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import RelevanceGrade
from .errors import ConfigError, DataFormatError, DimensionMismatchError, NonFiniteValueError
from .util import order_stat_quantile

GRID_PERCENTILES = tuple(range(1, 100))
DEGENERATE_THRESHOLDS = (1.0 / 3.0, 2.0 / 3.0)
# open score band counted as the weak-relevance middle
WR_MID_BAND = (0.5, 0.95)
# equal-width bins over [0, 1] of each per-grade score histogram
HISTOGRAM_BINS = 40


@dataclass(frozen=True)
class GradeThresholds:
    """Two cut points splitting a score in [0, 1] into three grades.

    score < t_wr is irrelevant, t_wr <= score < t_sr is weak relevance,
    score >= t_sr is strong relevance.
    """

    t_wr: float
    t_sr: float

    def __post_init__(self) -> None:
        if not (0.0 < self.t_wr < self.t_sr < 1.0):
            raise ConfigError(
                "thresholds", f"need 0 < t_wr < t_sr < 1, got "
                f"({self.t_wr}, {self.t_sr})"
            )


def _check_pair(scores, grades) -> tuple[np.ndarray, np.ndarray]:
    s = np.asarray(scores, dtype=np.float64).ravel()
    g = np.asarray(grades).ravel()
    if s.shape != g.shape:
        raise DimensionMismatchError(
            f"{s.size} scores vs {g.size} grades"
        )
    if s.size == 0:
        raise DataFormatError("empty score array")
    if not np.all(np.isfinite(s)):
        raise NonFiniteValueError("non-finite score")
    if g.size and (g.min() < 0 or g.max() > 2):
        raise DataFormatError("grade outside the three-grade range")
    return s, g.astype(np.int8)


def fit_grade_thresholds(val_scores, val_grades) -> GradeThresholds:
    """Exhaustive percentile-grid search maximizing validation macro F1.

    Candidates are the distinct 1..99 percentile order statistics of the
    validation scores that lie strictly inside (0, 1).  Every pair
    t_wr < t_sr is scored at once; the best macro F1 wins, ties go to the
    wider middle band, then to the smaller t_wr.  Fewer than two candidates
    (identical scores give at most one) carry no signal and fall back to
    (1/3, 2/3) with a warning.
    """
    scores, grades = _check_pair(val_scores, val_grades)
    true_counts = np.bincount(grades, minlength=3)
    if not true_counts.all():
        missing = [RelevanceGrade(v).name for v in np.flatnonzero(true_counts == 0)]
        raise DataFormatError(
            f"threshold fitting needs all three grades; missing {missing}"
        )
    cand = np.unique(order_stat_quantile(scores, np.asarray(GRID_PERCENTILES) / 100.0))
    cand = cand[(cand > 0.0) & (cand < 1.0)]
    if cand.size < 2:
        warnings.warn(
            "score spread too small for a threshold grid, e.g. identical scores; using defaults",
            stacklevel=2,
        )
        return GradeThresholds(*DEGENERATE_THRESHOLDS)
    # below[c, g] = number of grade-g samples with score < candidate c
    below = np.stack(
        [np.searchsorted(np.sort(scores[grades == v]), cand) for v in range(3)],
        axis=1,
    )
    i, j = np.triu_indices(cand.size, 1)
    # counts[pair, predicted grade, true grade]
    counts = np.stack([below[i], below[j] - below[i], true_counts - below[j]], axis=1)
    tp = np.diagonal(counts, axis1=1, axis2=2)
    denom = counts.sum(axis=2) + true_counts
    f1 = np.where(denom > 0, 2.0 * tp / np.maximum(denom, 1), 0.0).mean(axis=1)
    # the stable sort keeps (i, j) order among exact ties, so the first pair
    # wins after best F1, widest band and smallest t_wr
    best = np.lexsort((cand[i], -(cand[j] - cand[i]), -f1))[0]
    return GradeThresholds(float(cand[i[best]]), float(cand[j[best]]))


@dataclass(frozen=True)
class Metrics:
    """Classification quality over the three grades; ``per_grade`` maps each
    grade to its F1."""

    macro_f1: float
    accuracy: float
    per_grade: dict[RelevanceGrade, float]
    n: int


def compute_metrics(scores, grades, thresholds: GradeThresholds) -> Metrics:
    """Threshold the scores and compare predicted grades to the labels, from
    one count of the rows per (predicted, true) grade."""
    s, g = _check_pair(scores, grades)
    pred = np.searchsorted([thresholds.t_wr, thresholds.t_sr], s, side="right")
    counts = np.bincount(3 * pred + g, minlength=9).reshape(3, 3)
    tp = np.diagonal(counts)
    n_pred, n_true = counts.sum(axis=1), counts.sum(axis=0)
    precision = np.divide(tp, n_pred, out=np.zeros(3), where=n_pred > 0)
    recall = np.divide(tp, n_true, out=np.zeros(3), where=n_true > 0)
    # 2PR / (P + R): 2tp / (n_pred + n_true) is the same F1 but rounds differently
    f1 = np.divide(2.0 * precision * recall, precision + recall, out=np.zeros(3),
                   where=precision + recall > 0)
    return Metrics(
        macro_f1=float(f1.mean()),
        accuracy=float(tp.sum() / s.size),
        per_grade={grade: float(f1[grade.value]) for grade in RelevanceGrade},
        n=int(s.size),
    )


@dataclass(frozen=True)
class HistogramReport:
    """Per-grade normalized score histograms over [0, 1]."""

    bin_edges: np.ndarray
    by_grade: dict[RelevanceGrade, np.ndarray]
    overlap_wr_sr: float


def score_histogram(scores, grades) -> HistogramReport:
    """Normalized per-grade histograms plus the WR/SR overlap statistic.

    Each grade's histogram sums to 1 over the ``HISTOGRAM_BINS`` bins (zeros
    when the grade is absent); the overlap is the summed bin-wise minimum of
    the WR and SR histograms, 1.0 for identical score multisets and 0.0 for
    disjoint supports.
    """
    s, g = _check_pair(scores, grades)
    edges = np.linspace(0.0, 1.0, HISTOGRAM_BINS + 1)
    by_grade: dict[RelevanceGrade, np.ndarray] = {}
    for grade in RelevanceGrade:
        values = np.clip(s[g == grade.value], 0.0, 1.0)
        counts, _ = np.histogram(values, bins=edges)
        total = counts.sum()
        by_grade[grade] = (
            counts / total if total else np.zeros(HISTOGRAM_BINS, dtype=np.float64)
        )
    overlap = float(
        np.minimum(by_grade[RelevanceGrade.WR], by_grade[RelevanceGrade.SR]).sum()
    )
    return HistogramReport(bin_edges=edges, by_grade=by_grade,
                           overlap_wr_sr=overlap)


def wr_mid_fraction(scores, grades) -> float:
    """Fraction of weak-relevance scores strictly inside ``WR_MID_BAND``."""
    s, g = _check_pair(scores, grades)
    wr = s[g == RelevanceGrade.WR.value]
    if wr.size == 0:
        return 0.0
    low, high = WR_MID_BAND
    return float(np.mean((wr > low) & (wr < high)))


def write_histogram(report: HistogramReport, path) -> None:
    lines = ["# bin_left\tbin_right\th_SR\th_WR\th_IR"]
    h_sr = report.by_grade[RelevanceGrade.SR]
    h_wr = report.by_grade[RelevanceGrade.WR]
    h_ir = report.by_grade[RelevanceGrade.IR]
    for i in range(len(h_sr)):
        lines.append(
            f"{report.bin_edges[i]:.6g}\t{report.bin_edges[i + 1]:.6g}\t"
            f"{h_sr[i]:.6g}\t{h_wr[i]:.6g}\t{h_ir[i]:.6g}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
