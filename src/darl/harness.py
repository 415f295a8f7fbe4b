"""Experiment harness: grading, blend sweep, ladder, budget sweep, and
calibration-effect runs.

One ``ExperimentConfig`` fixes everything a seed run needs; ``prepare`` does
the shared work (corpus splits, pretrained backbone, selector calibration,
pool selection) once per seed and caches it, so the ablation ladder, the
budget sweep, and the calibration-effect report all reuse the same
artifacts.  The generated pool itself is not kept: only its splits are.

Pool rows are split once per seed into a selection split and a held-out
evaluation split; shifted-distribution validation and test sets are carved
from the evaluation split's true out-of-distribution rows, so no row ever
serves both selection and evaluation.

The selection stages (``split_pool``, ``fit_space``, ``calibrate``,
``select_rows``) are pure in-memory functions that the CLI shares: each
subcommand loads its inputs from the run directory, calls one stage, and
saves what it returns, while ``prepare`` chains them in memory.

``evaluate_model`` is the one grading rule, and every results row is an
``EvalPair`` plus its key fields.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import lru_cache, partial
from pathlib import Path

import numpy as np

from . import __version__
from .dataset import (
    LabeledDataset,
    Origin,
    SyntheticConfig,
    generate_pretrain_superset,
    generate_synthetic,
    merge_datasets,
)
from .errors import ConfigError, DataFormatError, DimensionMismatchError
from .lpft import (
    StagePlan,
    full_finetune,
    linear_probe,
    pretrain_backbone,
    run_training,
)
from .metrics import Metrics, compute_metrics, fit_grade_thresholds, score_histogram, wr_mid_fraction
from .model import CalibrationPrior, ModelParams, interpolate, predict_scores, representations
from .ood_select import (
    KNN_CHUNK,
    GaussianStats,
    NeighborIndex,
    OodThresholds,
    SelectionReport,
    ThresholdPolicy,
    build_index,
    calibrate_thresholds,
    dasa_order,
    fit_gaussian,
    knn_distance_batch,
    mahalanobis_batch,
    select_ood,
)
from .util import BLOCK_ROWS, bounded, check_config, config_hash, parallel, row_blocks, sub_rng

TREND_SEEDS = (11, 12, 13, 14, 15)
DEFAULT_BUDGETS = (0.25, 0.5, 0.75, 1.0)
LADDER_LABELS = ("base-ft", "+occ", "+occ+dasa", "+occ+dasa+lpft")


@dataclass(frozen=True)
class ExperimentConfig:
    """Seed-agnostic description of one experiment family.

    ``alpha_fpr`` here governs the selector used by the harness runs; it is
    deliberately looser than the conservative flagging default, trading a
    little selection precision for recall of the shifted rows that the
    augmentation stages feed on.
    """

    corpus: SyntheticConfig = SyntheticConfig()
    plan: StagePlan = StagePlan()
    rho: float = bounded(0.1, CalibrationPrior.RHO)
    policy: ThresholdPolicy = ThresholdPolicy(mode="fpr", alpha_fpr=0.12)
    eval_fraction: float = bounded(0.2, "(0, 1)")

    def __post_init__(self) -> None:
        check_config(self)

    def for_seed(self, seed: int) -> "ExperimentConfig":
        return dataclasses.replace(
            self,
            corpus=dataclasses.replace(self.corpus, seed=int(seed)),
            plan=dataclasses.replace(self.plan, seed=int(seed)),
        )

    def prior(self) -> CalibrationPrior:
        return CalibrationPrior(self.rho)

    def descriptor(self) -> dict:
        """The experiment fields as plain data; a subclass's own fields (the
        CLI's run-level settings) stay out, so they do not change the hash."""
        values = dataclasses.asdict(self)
        return {f.name: values[f.name] for f in dataclasses.fields(ExperimentConfig)}


def table_header(config: ExperimentConfig, seeds) -> str:
    """The leading comment line every emitted table carries."""
    seed_list = ",".join(str(s) for s in seeds)
    return (
        f"darl {__version__} config {config_hash(config.descriptor())} "
        f"seeds {seed_list} (f1 = macro over SR/WR/IR)"
    )


@dataclass(frozen=True)
class PreparedCorpus:
    """Everything downstream stages share for one (config, seed) pair: the
    corpus splits, never the pool they were taken from."""

    train_id: LabeledDataset
    val_id: LabeledDataset
    test_id: LabeledDataset
    backbone: ModelParams
    thresholds: OodThresholds
    select_truth: LabeledDataset
    val_ood: LabeledDataset
    test_ood: LabeledDataset
    report: SelectionReport
    d_aug: LabeledDataset


def split_pool(
    pool_truth: LabeledDataset, eval_fraction: float, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pool row indices of (select_truth, val_ood, test_ood).

    A seeded ``eval_fraction`` of the pool is held out from selection; its
    true out-of-distribution rows are halved into the shifted validation and
    test sets.  Indices, not copies, so a caller that only writes the splits
    never holds the pool twice.
    """
    n_pool = pool_truth.rows
    perm = sub_rng(seed, "pool-eval-split").permutation(n_pool)
    n_eval = int(round(eval_fraction * n_pool))
    held_out = perm[:n_eval]
    ood_rows = held_out[pool_truth.origin[held_out] == int(Origin.OOD)]
    if ood_rows.size < 2:
        raise DataFormatError(
            "evaluation split holds fewer than 2 true out-of-distribution rows "
            "(raise eval_fraction, corpus.pool_size or corpus.pool_ood_fraction)"
        )
    half = ood_rows.size // 2
    return perm[n_eval:], ood_rows[:half], ood_rows[half:]


def fit_space(
    backbone: ModelParams, train_id: LabeledDataset
) -> tuple[GaussianStats, NeighborIndex]:
    """Gaussian statistics and neighbor index of the ID training representations."""
    reps = representations(backbone, train_id.embeddings.data)
    return fit_gaussian(reps), build_index(reps, train_id.ids)


def _distances(backbone, stats, index, data: LabeledDataset):
    """(Mahalanobis, kNN) distances of each row's representation.

    The only scorer.  The float64 representations are computed a block at
    a time, once per distance, and never held whole; ``representations``
    keeps their products on OpenBLAS's calling thread.  The two distances
    run in two passes because numpy and scipy each load their own OpenBLAS,
    whose worker threads keep spinning after a threaded call: switching
    libraries per block set the two thread pools against each other on the
    same cores and ran about 1.5x slower.  So scipy solves every Mahalanobis
    block while numpy's pool sleeps, and then numpy runs every kNN block.
    Each row's distances do not depend on the blocks, at any index size
    (lone rows are doubled; ``ood_select.SMALL_PRODUCT_ENTRIES``).
    """
    if stats.dims != index.dims:
        raise DimensionMismatchError(
            f"dims disagree: gaussian {stats.dims}, index {index.dims}"
        )
    x = data.embeddings.data
    mahal, knn = np.empty(len(x)), np.empty(len(x))
    for part in row_blocks(len(x), BLOCK_ROWS):
        mahal[part] = mahalanobis_batch(stats, representations(backbone, x[part]))
    # whole kNN query chunks per block, so only the last block's chunks overlap
    for part in row_blocks(len(x), KNN_CHUNK * max(1, BLOCK_ROWS // KNN_CHUNK)):
        knn[part] = knn_distance_batch(index, representations(backbone, x[part]))
    return mahal, knn


def calibrate(
    backbone: ModelParams,
    stats: GaussianStats,
    index: NeighborIndex,
    val_id: LabeledDataset,
    val_ood: LabeledDataset,
    policy: ThresholdPolicy,
) -> OodThresholds:
    """Selection thresholds from ID validation distances (and, for the f1
    policy, the shifted validation set's distances)."""
    id_scores = _distances(backbone, stats, index, val_id)
    ood_scores = _distances(backbone, stats, index, val_ood) if policy.mode == "f1" else ()
    return calibrate_thresholds(*id_scores, policy, *ood_scores)


def select_rows(
    backbone: ModelParams,
    stats: GaussianStats,
    index: NeighborIndex,
    thresholds: OodThresholds,
    select_truth: LabeledDataset,
) -> tuple[SelectionReport, LabeledDataset]:
    """Score the selection split; the selected rows keep their true grades
    (oracle labeling) and form the augmentation set."""
    mahal, knn = _distances(backbone, stats, index, select_truth)
    report = select_ood(mahal, knn, thresholds, select_truth.ids)
    return report, select_truth.take(report.selected_indices)


@lru_cache(maxsize=8)
def prepare(config: ExperimentConfig, seed: int) -> PreparedCorpus:
    """Generate, pretrain, calibrate, and select for one seed (cached)."""
    cfg = config.for_seed(seed)
    corpus = generate_synthetic(cfg.corpus)
    select_truth, val_ood, test_ood = map(
        corpus.pool_truth.take, split_pool(corpus.pool_truth, config.eval_fraction, seed)
    )
    train_id, val_id, test_id = corpus.train_id, corpus.val_id, corpus.test_id
    del corpus  # the pool's last reference: it goes before anything trains or scores
    backbone, _ = pretrain_backbone(generate_pretrain_superset(cfg.corpus), cfg.plan)
    stats, index = fit_space(backbone, train_id)
    thresholds = calibrate(backbone, stats, index, val_id, val_ood, config.policy)
    report, d_aug = select_rows(backbone, stats, index, thresholds, select_truth)
    return PreparedCorpus(
        train_id=train_id,
        val_id=val_id,
        test_id=test_id,
        backbone=backbone,
        thresholds=thresholds,
        select_truth=select_truth,
        val_ood=val_ood,
        test_ood=test_ood,
        report=report,
        d_aug=d_aug,
    )


@dataclass(frozen=True)
class EvalPair:
    """ID and shifted-set metrics for one model under one threshold fit; the
    graded record every results row extends with its key fields."""

    id_metrics: Metrics
    ood_metrics: Metrics

    @property
    def f1_id(self) -> float:
        return self.id_metrics.macro_f1

    @property
    def f1_ood(self) -> float:
        return self.ood_metrics.macro_f1

    @property
    def acc_id(self) -> float:
        return self.id_metrics.accuracy

    @property
    def acc_ood(self) -> float:
        return self.ood_metrics.accuracy

    @property
    def combined(self) -> float:
        return 0.5 * (self.f1_id + self.f1_ood)


def evaluate_model(
    model: ModelParams,
    val_id: LabeledDataset,
    test_id: LabeledDataset,
    test_ood: LabeledDataset,
) -> EvalPair:
    """Fit grade thresholds on ID validation, report on both test sets."""
    val_scores = predict_scores(model, val_id.embeddings.data)
    thresholds = fit_grade_thresholds(val_scores, val_id.grades)
    id_metrics = compute_metrics(
        predict_scores(model, test_id.embeddings.data), test_id.grades, thresholds
    )
    ood_metrics = compute_metrics(
        predict_scores(model, test_ood.embeddings.data), test_ood.grades, thresholds
    )
    return EvalPair(id_metrics=id_metrics, ood_metrics=ood_metrics)


@dataclass(frozen=True)
class AlphaRow(EvalPair):
    alpha: float


@dataclass(frozen=True)
class AlphaSweepResult:
    rows: tuple[AlphaRow, ...]
    best: AlphaRow


def alpha_sweep(
    phi_lp: ModelParams,
    phi_ft: ModelParams,
    plan: StagePlan,
    val_id: LabeledDataset,
    val_ood: LabeledDataset,
) -> AlphaSweepResult:
    """Grade every blend coefficient of ``plan.alpha_grid`` on both validation sets.

    Each blend is graded by ``evaluate_model`` with the ID validation set as
    its own test set.  The best coefficient maximizes the mean of the two
    macro F1 scores; ties go to the smaller coefficient.
    """
    if val_id.embeddings.rows == 0 or val_ood.embeddings.rows == 0:
        raise DataFormatError("alpha sweep needs nonempty validation sets")
    rows = []
    for alpha in plan.alpha_grid:
        pair = evaluate_model(interpolate(phi_lp, phi_ft, alpha), val_id, val_id, val_ood)
        rows.append(AlphaRow(**vars(pair), alpha=alpha))
    best = max(rows, key=lambda r: (r.combined, -r.alpha))
    return AlphaSweepResult(rows=tuple(rows), best=best)


def write_alpha_table(result: AlphaSweepResult, path, meta: str) -> None:
    """Sweep table as TSV with 4-decimal metrics under a ``# meta`` line."""
    lines = [f"# {meta}", "alpha\tf1_id\tf1_ood\tacc_id\tacc_ood"]
    for row in result.rows:
        lines.append(
            f"{row.alpha:g}\t{row.f1_id:.4f}\t{row.f1_ood:.4f}\t"
            f"{row.acc_id:.4f}\t{row.acc_ood:.4f}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@lru_cache(maxsize=8)
def ladder_models(
    config: ExperimentConfig, seed: int
) -> tuple[tuple[ModelParams, ...], AlphaSweepResult]:
    """The four ladder configurations, trained once per seed (cached).

    Rung 1 trains on ID data alone without the calibration term, using the
    plan's fine-tune budget; rung 2 adds the term; rung 3 adds the selected
    augmentation rows; rung 4 keeps rung 3's data and loss but replaces the
    single stage with probe, fine-tune, and the validation-chosen blend.
    Rungs 1-3 and rung 4's probe-then-finetune chain train side by side.
    """
    prep = prepare(config, seed)
    plan = config.for_seed(seed).plan
    prior = config.prior()
    train_id = prep.train_id
    merged = merge_datasets(train_id, prep.d_aug)

    def single_stages():
        return tuple(
            run_training(prep.backbone, data, rung_prior, plan, "single-stage")[0]
            for data, rung_prior in ((train_id, None), (train_id, prior), (merged, prior))
        )

    def probe_then_finetune():
        phi_lp, _ = linear_probe(prep.backbone, merged, prior, plan)
        phi_ft, _ = full_finetune(phi_lp, merged, prior, plan)
        return phi_lp, phi_ft

    (row1, row2, row3), (phi_lp, phi_ft) = parallel(single_stages, probe_then_finetune)
    sweep = alpha_sweep(phi_lp, phi_ft, plan, prep.val_id, prep.val_ood)
    row4 = interpolate(phi_lp, phi_ft, sweep.best.alpha)
    return (row1, row2, row3, row4), sweep


@dataclass(frozen=True)
class AblationRow(EvalPair):
    rung: int
    label: str


@dataclass(frozen=True)
class AblationTable:
    seed: int
    rows: tuple[AblationRow, ...]


def run_ablation(config: ExperimentConfig, seed: int) -> AblationTable:
    """Train and evaluate the four-rung ladder for one seed."""
    prep = prepare(config, seed)
    models, _ = ladder_models(config, seed)
    rows = []
    for rung, (label, model) in enumerate(zip(LADDER_LABELS, models), start=1):
        pair = evaluate_model(model, prep.val_id, prep.test_id, prep.test_ood)
        rows.append(AblationRow(**vars(pair), rung=rung, label=label))
    return AblationTable(seed=seed, rows=tuple(rows))


def _write_seed_table(path, config: ExperimentConfig, by_seed, columns, keys, scores) -> None:
    """Long-format TSV: each seed's rows, then one mean row per row position.

    ``by_seed`` lists (seed, rows) in table order.  ``keys`` formats the key
    ``columns`` from a group of rows: one row, or the rows at one position
    across seeds.  Each of the ``scores`` is a 4-decimal mean over the group.
    """

    def line(lead: str, group) -> str:
        means = (np.mean([getattr(r, name) for r in group]) for name in scores)
        return "\t".join([lead, keys(group), *(f"{m:.4f}" for m in means)])

    lines = [f"# {table_header(config, [seed for seed, _ in by_seed])}"]
    lines.append("\t".join(["seed", *columns, *scores]))
    lines += [line(str(seed), (r,)) for seed, rows in by_seed for r in rows]
    lines += [line("mean", group) for group in zip(*(rows for _, rows in by_seed))]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_ablation_tables(tables, path, config: ExperimentConfig) -> None:
    """Long-format ladder TSV: per-seed rows followed by mean rows."""
    _write_seed_table(
        path, config, [(t.seed, t.rows) for t in tables],
        ("rung", "label"), lambda g: f"{g[0].rung}\t{g[0].label}",
        ("f1_id", "f1_ood", "acc_id", "acc_ood"),
    )


@dataclass(frozen=True)
class BudgetRow(EvalPair):
    budget: float
    strategy: str
    n_aug: int


def budget_sweep(
    config: ExperimentConfig,
    seed: int,
    budgets=DEFAULT_BUDGETS,
) -> tuple[BudgetRow, ...]:
    """Equal-budget comparison of ranked selection against random draws.

    Budgets are fractions in [0, 1] of the selected-set size.  The ranked
    strategy fills its budget by the weaker-rank ordering within the
    selected set; the random strategy draws the same number of rows
    uniformly from the whole selection split (nested across budgets), so
    both strategies add equally many rows and differ only in which rows.
    Every budget is checked before anything trains; the models then train
    side by side.
    """
    budgets = tuple(map(float, budgets))
    for b in budgets:
        if not 0.0 <= b <= 1.0:
            raise ConfigError("budgets", f"must lie in [0, 1], got {b:g}")
    prep = prepare(config, seed)
    plan = config.for_seed(seed).plan
    prior = config.prior()
    sel = prep.report.selected_indices
    if sel.size == 0:
        raise DataFormatError("selection is empty; nothing to sweep")
    n_pool = prep.select_truth.rows
    ranked = sel[dasa_order(prep.report.mahal[sel], prep.report.knn[sel])]
    random_order = sub_rng(seed, "budget-random").permutation(n_pool)

    def row(budget: float, strategy: str, picked: np.ndarray) -> BudgetRow:
        d_aug = prep.select_truth.take(picked)
        merged = merge_datasets(prep.train_id, d_aug)
        model, _ = run_training(prep.backbone, merged, prior, plan, "budget")
        pair = evaluate_model(model, prep.val_id, prep.test_id, prep.test_ood)
        return BudgetRow(
            **vars(pair), budget=budget, strategy=strategy, n_aug=int(picked.size)
        )

    tasks = []
    for b in budgets:
        take = int(round(b * sel.size))
        tasks.append(partial(row, b, "dasa", ranked[:take]))
        tasks.append(partial(row, b, "random", random_order[:take]))
    return tuple(parallel(*tasks))


def write_budget_table(rows_by_seed: dict, path, config: ExperimentConfig) -> None:
    """Long-format sweep TSV: per-seed rows followed by mean rows."""
    _write_seed_table(
        path, config, [(seed, rows_by_seed[seed]) for seed in sorted(rows_by_seed)],
        ("budget", "strategy", "n_aug"),
        lambda g: f"{g[0].budget:g}\t{g[0].strategy}\t{int(np.mean([r.n_aug for r in g]))}",
        ("f1_id", "f1_ood"),
    )


@dataclass(frozen=True)
class OccEffect:
    """Score-shape statistics with and without the calibration term."""

    seed: int
    overlap_with: float
    overlap_without: float
    wr_mid_with: float
    wr_mid_without: float

    @property
    def overlap_drop(self) -> float:
        return self.overlap_without - self.overlap_with

    @property
    def wr_mid_gain(self) -> float:
        return self.wr_mid_with - self.wr_mid_without


@lru_cache(maxsize=8)
def _occ_models(config: ExperimentConfig, seed: int) -> tuple[ModelParams, ModelParams]:
    """A matched pair differing only in the calibration term.

    Trained on the probe stage's larger budget rather than the ladder's
    fine-tune budget: the score-shape comparison needs converged scorers,
    otherwise both shapes are dominated by undertraining.
    """
    prep = prepare(config, seed)
    train = partial(
        run_training, prep.backbone, prep.train_id,
        plan=config.for_seed(seed).plan, stage="occ",
    )
    pair = parallel(partial(train, None), partial(train, config.prior()))
    return tuple(model for model, _ in pair)


def occ_effect(config: ExperimentConfig, seed: int) -> OccEffect:
    """Compare matched KL-off and KL-on score shapes on the ID test split."""
    prep = prepare(config, seed)
    model_without, model_with = _occ_models(config, seed)
    x = prep.test_id.embeddings.data
    grades = prep.test_id.grades
    without = predict_scores(model_without, x)
    with_term = predict_scores(model_with, x)
    return OccEffect(
        seed=seed,
        overlap_with=score_histogram(with_term, grades).overlap_wr_sr,
        overlap_without=score_histogram(without, grades).overlap_wr_sr,
        wr_mid_with=wr_mid_fraction(with_term, grades),
        wr_mid_without=wr_mid_fraction(without, grades),
    )
