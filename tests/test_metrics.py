"""Grade thresholding, classification metrics, and score histograms."""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from darl import metrics
from darl.dataset import RelevanceGrade
from darl.errors import ConfigError, DataFormatError, NonFiniteValueError
from darl.metrics import (
    DEGENERATE_THRESHOLDS,
    GRID_PERCENTILES,
    WR_MID_BAND,
    GradeThresholds,
    compute_metrics,
    fit_grade_thresholds,
    score_histogram,
    wr_mid_fraction,
    write_histogram,
)
from darl.util import order_stat_quantile

IR, WR, SR = 0, 1, 2

# ---------------------------------------------------------------------------
# thresholds


def test_threshold_validation():
    GradeThresholds(0.25, 0.75)
    for pair in ((0.0, 0.5), (0.5, 0.5), (0.7, 0.3), (0.5, 1.0), (-0.1, 0.5)):
        with pytest.raises(ConfigError):
            GradeThresholds(*pair)


def graded(scores, thr):
    """Each score's predicted grade: the one label ``compute_metrics`` counts
    as correct for it alone."""
    return [
        next(v for v in (IR, WR, SR) if compute_metrics([s], [v], thr).accuracy == 1.0)
        for s in scores
    ]


def test_metrics_band_edges():
    # a score equal to t_wr is WR, and one equal to t_sr is SR
    thr = GradeThresholds(0.4, 0.7)
    scores = np.array([0.0, 0.39, 0.4, 0.5, 0.69, 0.7, 1.0])
    assert graded(scores, thr) == [IR, IR, WR, WR, WR, SR, SR]


def test_fit_on_cleanly_banded_scores_is_perfect():
    scores = np.array([0.1] * 10 + [0.5] * 10 + [0.9] * 10)
    grades = np.array([IR] * 10 + [WR] * 10 + [SR] * 10)
    thr = fit_grade_thresholds(scores, grades)
    metrics = compute_metrics(scores, grades, thr)
    assert metrics.macro_f1 == 1.0
    assert metrics.accuracy == 1.0


def test_fit_on_continuous_bands_is_near_perfect():
    rng = np.random.default_rng(0)
    scores = np.concatenate(
        [
            rng.uniform(0.05, 0.25, 120),
            rng.uniform(0.40, 0.60, 90),
            rng.uniform(0.75, 0.95, 90),
        ]
    )
    grades = np.array([IR] * 120 + [WR] * 90 + [SR] * 90)
    thr = fit_grade_thresholds(scores, grades)
    assert compute_metrics(scores, grades, thr).macro_f1 >= 0.98


def test_fit_requires_all_grades():
    scores = np.linspace(0.1, 0.9, 60)
    grades = np.array([IR, WR] * 30)
    with pytest.raises(DataFormatError, match="SR"):
        fit_grade_thresholds(scores, grades)


def test_fit_identical_scores_warns_and_defaults():
    scores = np.full(30, 0.5)
    grades = np.array([IR, WR, SR] * 10)
    with pytest.warns(UserWarning, match="identical"):
        thr = fit_grade_thresholds(scores, grades)
    assert (thr.t_wr, thr.t_sr) == DEGENERATE_THRESHOLDS


def test_fit_uninformative_scores_sit_near_chance():
    rng = np.random.default_rng(1)
    n = 3000
    scores = rng.random(n)
    grades = np.repeat([IR, WR, SR], n // 3)
    thr = fit_grade_thresholds(scores, grades)
    metrics = compute_metrics(scores, grades, thr)
    assert abs(metrics.accuracy - 1.0 / 3.0) <= 0.04


@given(
    st.integers(0, 2**32 - 1),
    st.floats(0.3, 0.9),
    st.floats(0.02, 0.08),
)
def test_fit_is_invariant_to_increasing_affine_maps(seed, scale, shift):
    rng = np.random.default_rng(seed)
    scores = rng.integers(20, 81, size=60) / 100.0
    grades = rng.integers(0, 3, size=60).astype(np.int8)
    grades[:3] = [IR, WR, SR]
    base = graded(scores, fit_grade_thresholds(scores, grades))
    moved_scores = scale * scores + shift
    assert graded(moved_scores, fit_grade_thresholds(moved_scores, grades)) == base


def _grid(scores):
    return sorted({order_stat_quantile(scores, p / 100.0) for p in GRID_PERCENTILES})


def _pair_loop(scores, grades, candidates):
    """Reference fit: the candidate-pair loop used before the array pass.

    Returns the winning (t_wr, t_sr) over ``candidates``, or None when there
    are fewer than two.
    """
    order = np.argsort(scores, kind="stable")
    sorted_scores, sorted_grades = scores[order], grades[order]
    true_counts = np.array([np.count_nonzero(grades == v) for v in range(3)])
    positions = np.searchsorted(sorted_scores, candidates, side="left")
    cum = np.zeros((scores.size + 1, 3), dtype=np.int64)
    for v in range(3):
        cum[1:, v] = np.cumsum(sorted_grades == v)
    below = cum[positions]
    best_key = best_pair = None
    for i in range(len(candidates)):
        for j in range(i + 1, len(candidates)):
            t_wr, t_sr = candidates[i], candidates[j]
            low, mid = below[i], below[j]
            pred_ir, pred_wr, pred_sr = low, mid - low, true_counts - mid
            tp = np.array([pred_ir[0], pred_wr[1], pred_sr[2]], dtype=np.int64)
            pred_totals = np.array(
                [pred_ir.sum(), pred_wr.sum(), pred_sr.sum()], dtype=np.int64
            )
            denom = pred_totals + true_counts
            f1 = float(np.where(denom > 0, 2.0 * tp / np.maximum(denom, 1), 0.0).mean())
            key = (f1, t_sr - t_wr, -t_wr)
            if best_key is None or key > best_key:
                best_key, best_pair = key, (t_wr, t_sr)
    return best_pair


@given(
    st.integers(0, 2**32 - 1),
    st.integers(3, 3000),
    st.integers(1, 2),
    st.tuples(st.integers(1, 20), st.integers(1, 20), st.integers(1, 20)),
    st.floats(0.0, 4.0),
)
def test_fit_matches_the_pair_loop(seed, n, decimals, mix, signal):
    rng = np.random.default_rng(seed)
    grades = rng.choice(3, size=n, p=np.array(mix) / sum(mix)).astype(np.int8)
    grades[:3] = [IR, WR, SR]
    logits = signal * (grades - 1.0) + rng.standard_normal(n)
    # rounding makes heavy ties, and strong signals saturate at 0 and 1
    scores = np.round(1.0 / (1.0 + np.exp(-logits)), decimals)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = fit_grade_thresholds(scores, grades)
    grid = _grid(scores)
    inside = [c for c in grid if 0.0 < c < 1.0]
    want = _pair_loop(scores, grades, inside)
    assert (got.t_wr, got.t_sr) == (want or DEGENERATE_THRESHOLDS)
    if len(inside) < len(grid):
        # where the whole grid gave a valid pair, dropping 0 and 1 keeps it
        full = _pair_loop(scores, grades, grid)
        if full is not None and 0.0 < full[0] < full[1] < 1.0:
            assert full == want


def test_fit_tie_goes_to_the_smaller_t_wr():
    # (0.5, 0.6) and (0.6, 0.7) have the same macro F1 and band width
    scores = np.array([0.7, 0.6, 0.6, 0.5, 0.5])
    grades = np.array([IR, WR, SR, IR, WR])
    thr = fit_grade_thresholds(scores, grades)
    assert (thr.t_wr, thr.t_sr) == (0.5, 0.6) == _pair_loop(scores, grades, _grid(scores))


def test_fit_skips_saturated_candidates():
    rng = np.random.default_rng(2)
    scores = np.concatenate(
        [rng.uniform(0.05, 0.3, 40), rng.uniform(0.4, 0.7, 30), np.ones(30)]
    )
    grades = np.array([IR] * 40 + [WR] * 30 + [SR] * 30)
    # the whole grid puts t_sr at 1.0, which is not a valid threshold
    assert _pair_loop(scores, grades, _grid(scores))[1] == 1.0
    thr = fit_grade_thresholds(scores, grades)
    assert 0.0 < thr.t_wr < thr.t_sr < 1.0
    assert compute_metrics(scores, grades, thr).macro_f1 >= 0.95


@pytest.mark.parametrize(
    "scores",
    [np.array([0.1] + [0.5] * 299), np.array([0.0] * 40 + [1.0] * 60)],
    ids=["one-outlier", "saturated"],
)
def test_fit_spread_too_small_warns_and_defaults(scores):
    grades = np.resize([IR, WR, SR], scores.size)
    with pytest.warns(UserWarning, match="spread too small"):
        thr = fit_grade_thresholds(scores, grades)
    assert (thr.t_wr, thr.t_sr) == DEGENERATE_THRESHOLDS


# ---------------------------------------------------------------------------
# metrics


def hand_confusion_case():
    # true IR: 5 at 0.1; true WR: 5 at 0.5 plus 2 at 0.9; true SR: 8 at 0.9,
    # 2 at 0.1; thresholds (1/3, 2/3)
    scores = np.array([0.1] * 5 + [0.5] * 5 + [0.9] * 2 + [0.9] * 8 + [0.1] * 2)
    grades = np.array([IR] * 5 + [WR] * 5 + [WR] * 2 + [SR] * 8 + [SR] * 2)
    return scores, grades, GradeThresholds(1.0 / 3.0, 2.0 / 3.0)


def test_metrics_hand_confusion():
    scores, grades, thr = hand_confusion_case()
    m = compute_metrics(scores, grades, thr)
    assert m.n == 22
    # each F1 is 2PR / (P + R) from precision P and recall R, bit for bit
    def f1(precision, recall):
        return 2.0 * precision * recall / (precision + recall)

    assert m.per_grade == {
        RelevanceGrade.IR: f1(5 / 7, 5 / 5),
        RelevanceGrade.WR: f1(5 / 5, 5 / 7),
        RelevanceGrade.SR: f1(8 / 10, 8 / 10),
    }
    assert m.per_grade[RelevanceGrade.SR] == pytest.approx(0.8)
    assert m.accuracy == pytest.approx(18.0 / 22.0)
    assert m.macro_f1 == pytest.approx((5.0 / 6.0 + 5.0 / 6.0 + 0.8) / 3.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_scores_are_rejected(bad):
    # searchsorted would put a NaN past both thresholds, as SR
    scores, grades, thr = hand_confusion_case()
    scores[7] = bad
    with pytest.raises(NonFiniteValueError):
        fit_grade_thresholds(scores, grades)
    with pytest.raises(NonFiniteValueError):
        compute_metrics(scores, grades, thr)


def per_grade_loop(scores, grades, thr):
    """Reference: each grade's masks counted on their own, F1 from 2PR / (P + R)."""
    pred = np.where(scores < thr.t_wr, IR, np.where(scores >= thr.t_sr, SR, WR))
    f1 = []
    for v in (IR, WR, SR):
        tp = np.count_nonzero((pred == v) & (grades == v))
        n_pred, n_true = np.count_nonzero(pred == v), np.count_nonzero(grades == v)
        p, r = (tp / n_pred if n_pred else 0.0), (tp / n_true if n_true else 0.0)
        f1.append(2.0 * p * r / (p + r) if p + r > 0 else 0.0)
    return float(np.mean(f1)), float(np.mean(pred == grades)), f1


@given(st.integers(0, 2**32 - 1), st.integers(1, 500), st.integers(1, 3))
def test_metrics_match_the_per_grade_loop(seed, n, decimals):
    rng = np.random.default_rng(seed)
    scores = np.round(rng.random(n), decimals)
    grades = rng.integers(0, 3, size=n)
    # on the 2-decimal grid, so scores land on the thresholds too
    thr = GradeThresholds(*sorted(rng.choice(np.arange(1, 100) / 100.0, 2, replace=False)))
    m = compute_metrics(scores, grades, thr)
    assert (m.macro_f1, m.accuracy, list(m.per_grade.values())) == per_grade_loop(
        scores, grades, thr
    )


def test_macro_f1_is_mean_of_per_grade_f1():
    scores, grades, thr = hand_confusion_case()
    m = compute_metrics(scores, grades, thr)
    per = [m.per_grade[g] for g in RelevanceGrade]
    assert m.macro_f1 == pytest.approx(np.mean(per))


def test_perfect_predictions_score_one():
    scores = np.array([0.1, 0.5, 0.9] * 7)
    grades = np.array([IR, WR, SR] * 7)
    m = compute_metrics(scores, grades, GradeThresholds(0.3, 0.7))
    assert m.macro_f1 == 1.0 and m.accuracy == 1.0


def test_metrics_are_row_order_invariant():
    scores, grades, thr = hand_confusion_case()
    perm = np.random.default_rng(2).permutation(scores.size)
    a = compute_metrics(scores, grades, thr)
    b = compute_metrics(scores[perm], grades[perm], thr)
    assert a.macro_f1 == b.macro_f1
    assert a.accuracy == b.accuracy
    for g in RelevanceGrade:
        assert a.per_grade[g] == b.per_grade[g]


def test_absent_grade_scores_zero_f1():
    scores = np.array([0.1, 0.9] * 10)
    grades = np.array([IR, SR] * 10)
    m = compute_metrics(scores, grades, GradeThresholds(0.3, 0.7))
    assert m.per_grade[RelevanceGrade.WR] == 0.0
    assert m.macro_f1 == pytest.approx(2.0 / 3.0)


# ---------------------------------------------------------------------------
# histograms


def test_histogram_rows_sum_to_one(monkeypatch):
    monkeypatch.setattr(metrics, "HISTOGRAM_BINS", 20)
    rng = np.random.default_rng(3)
    scores = rng.random(600)
    grades = rng.integers(0, 3, size=600)
    report = score_histogram(scores, grades)
    for g in RelevanceGrade:
        assert report.by_grade[g].sum() == pytest.approx(1.0)
    assert report.bin_edges.shape == (21,)


def test_histogram_absent_grade_is_all_zero(monkeypatch):
    monkeypatch.setattr(metrics, "HISTOGRAM_BINS", 10)
    scores = np.array([0.2, 0.8] * 15)
    grades = np.array([IR, SR] * 15)
    report = score_histogram(scores, grades)
    np.testing.assert_array_equal(report.by_grade[RelevanceGrade.WR], 0.0)
    assert report.by_grade[RelevanceGrade.WR].shape == (10,)
    assert report.overlap_wr_sr == 0.0


def test_histogram_identical_wr_sr_multisets_overlap_fully(monkeypatch):
    monkeypatch.setattr(metrics, "HISTOGRAM_BINS", 8)
    values = np.array([0.3, 0.5, 0.5, 0.7])
    scores = np.concatenate([values, values])
    grades = np.array([WR] * 4 + [SR] * 4)
    report = score_histogram(scores, grades)
    assert report.overlap_wr_sr == pytest.approx(1.0)


def test_histogram_disjoint_wr_sr_do_not_overlap(monkeypatch):
    monkeypatch.setattr(metrics, "HISTOGRAM_BINS", 10)
    scores = np.array([0.1, 0.2, 0.15, 0.85, 0.9, 0.95])
    grades = np.array([WR, WR, WR, SR, SR, SR])
    report = score_histogram(scores, grades)
    assert report.overlap_wr_sr == 0.0


def test_histogram_clips_out_of_range_scores(monkeypatch):
    monkeypatch.setattr(metrics, "HISTOGRAM_BINS", 4)
    scores = np.array([-0.5, 1.5])
    grades = np.array([WR, WR])
    report = score_histogram(scores, grades)
    h = report.by_grade[RelevanceGrade.WR]
    assert h[0] == pytest.approx(0.5) and h[-1] == pytest.approx(0.5)


def test_wr_mid_fraction_hand_values(monkeypatch):
    scores = np.array([0.2, 0.6, 0.7, 0.95, 0.5, 0.94])
    grades = np.array([WR, WR, WR, WR, WR, SR])
    # strict interior of (0.5, 0.95): 0.6 and 0.7 of five WR rows
    assert WR_MID_BAND == (0.5, 0.95)
    assert wr_mid_fraction(scores, grades) == pytest.approx(2.0 / 5.0)
    # widening to (0.1, 0.9) keeps 0.2/0.5/0.6/0.7 but excludes 0.95
    monkeypatch.setattr(metrics, "WR_MID_BAND", (0.1, 0.9))
    assert wr_mid_fraction(scores, grades) == pytest.approx(0.8)


def test_wr_mid_fraction_no_wr_rows():
    assert wr_mid_fraction(np.array([0.5]), np.array([SR])) == 0.0


def test_write_histogram_format(tmp_path, monkeypatch):
    monkeypatch.setattr(metrics, "HISTOGRAM_BINS", 5)
    rng = np.random.default_rng(4)
    report = score_histogram(rng.random(100), rng.integers(0, 3, 100))
    path = tmp_path / "hist.tsv"
    write_histogram(report, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# bin_left\tbin_right\th_SR\th_WR\th_IR"
    assert len(lines) == 6
    first = lines[1].split("\t")
    assert len(first) == 5
    assert float(first[0]) == 0.0 and float(first[1]) == pytest.approx(0.2)
