"""Experiment orchestration: prepared corpora, ladders, sweeps, tables."""

import dataclasses
import pickle
import re
from functools import partial

import numpy as np
import pytest
from conftest import (
    TINY_ARCH,
    TINY_CONFIG,
    TINY_PLAN,
    assert_no_child_left,
    graded,
    make_dataset,
    traced_peak,
    traced_retained,
)

from darl import harness, model, util
from darl.dataset import Origin, SyntheticConfig, generate_synthetic
from darl.errors import ConfigError, DimensionMismatchError, DivergenceError
from darl.harness import (
    DEFAULT_BUDGETS,
    LADDER_LABELS,
    TREND_SEEDS,
    AblationRow,
    AblationTable,
    BudgetRow,
    ExperimentConfig,
    budget_sweep,
    fit_space,
    occ_effect,
    prepare,
    run_ablation,
    select_rows,
    split_pool,
    table_header,
    write_ablation_tables,
    write_budget_table,
)
from darl.lpft import StagePlan, run_training
from darl.model import ModelArch, StageObjective, init_model, predict_scores, representations
from darl.ood_select import (
    OodThresholds,
    ThresholdPolicy,
    build_index,
    calibrate_thresholds,
    fit_gaussian,
    knn_distance_batch,
    mahalanobis_batch,
    select_ood,
)

CONFIG = ExperimentConfig()
SMALL = ExperimentConfig(corpus=TINY_CONFIG, plan=TINY_PLAN)

# ---------------------------------------------------------------------------
# configuration


def test_experiment_defaults():
    assert CONFIG.rho == 0.1
    assert CONFIG.policy == ThresholdPolicy(mode="fpr", alpha_fpr=0.12)
    assert CONFIG.eval_fraction == 0.2
    assert TREND_SEEDS == (11, 12, 13, 14, 15)
    assert DEFAULT_BUDGETS == (0.25, 0.5, 0.75, 1.0)
    assert len(LADDER_LABELS) == 4


def test_experiment_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(rho=0.5)
    with pytest.raises(ConfigError):
        ExperimentConfig(eval_fraction=0.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(eval_fraction=1.0)


def test_for_seed_slaves_both_seeds():
    derived = CONFIG.for_seed(99)
    assert derived.corpus.seed == 99
    assert derived.plan.seed == 99
    assert derived.corpus.dims == CONFIG.corpus.dims
    assert CONFIG.corpus.seed == 7


def test_table_header_format():
    header = table_header(CONFIG, (11, 12))
    assert re.fullmatch(
        r"darl \d+\.\d+\.\d+ config [0-9a-f]{12} seeds 11,12 "
        r"\(f1 = macro over SR/WR/IR\)",
        header,
    )
    assert table_header(CONFIG, (11, 12)) == header
    assert table_header(CONFIG, (11,)) != header


def test_config_hash_tracks_settings():
    other = ExperimentConfig(rho=0.2)
    assert table_header(CONFIG, (11,)) != table_header(other, (11,))


# ---------------------------------------------------------------------------
# prepared corpora (cached across the test run)


@pytest.mark.slow
def test_prepare_split_sizes():
    prep = prepare(CONFIG, 11)
    n_pool = CONFIG.corpus.pool_size
    n_eval = int(round(CONFIG.eval_fraction * n_pool))
    assert prep.select_truth.rows == n_pool - n_eval == 40_000
    assert prep.val_ood.rows + prep.test_ood.rows <= n_eval
    assert abs(prep.val_ood.rows - prep.test_ood.rows) <= 1
    assert np.all(prep.val_ood.origin == int(Origin.OOD))
    assert np.all(prep.test_ood.origin == int(Origin.OOD))
    assert set(prep.val_ood.ids).isdisjoint(prep.test_ood.ids)
    assert set(prep.val_ood.ids).isdisjoint(prep.select_truth.ids)


@pytest.mark.slow
def test_prepare_selection_is_internally_consistent():
    prep = prepare(CONFIG, 11)
    assert prep.d_aug.ids == tuple(prep.report.ids[i] for i in prep.report.selected_indices)
    assert set(prep.d_aug.ids).issubset(set(prep.select_truth.ids))
    assert prep.thresholds.policy == "fpr"
    assert prep.backbone.arch.input_dims == CONFIG.corpus.dims
    # cache returns the identical object
    assert prepare(CONFIG, 11) is prep


def test_prepare_no_shift_corpus_selects_near_nothing():
    # with zero mean shift and no concept shift the pool is exchangeable
    # with training data, so a 10% flagging policy grabs at most ~10%
    corpus_cfg = SyntheticConfig(
        dims=8,
        id_cluster_count=3,
        ood_cluster_count=2,
        ood_shift_norm=0.0,
        ood_concept_shift=False,
        train_size=600,
        val_size=300,
        test_size=200,
        pool_size=1_000,
        pretrain_size=150,
        pretrain_extra_clusters=2,
        seed=3,
    )
    corpus = generate_synthetic(corpus_cfg)
    stats = fit_gaussian(corpus.train_id.embeddings.data)
    index = build_index(corpus.train_id.embeddings.data)
    alpha = 0.1
    thresholds = calibrate_thresholds(
        *_distances(stats, index, corpus.val_id.embeddings.data),
        ThresholdPolicy(mode="fpr", alpha_fpr=alpha),
    )
    report = select_ood(
        *_distances(stats, index, corpus.pool_truth.embeddings.data), thresholds,
        ids=corpus.pool_truth.ids,
    )
    assert report.selected.mean() <= 2 * alpha


def _distances(stats, index, x):
    return mahalanobis_batch(stats, x), knn_distance_batch(index, x)


# ---------------------------------------------------------------------------
# the fused scorer

SMALL_BLOCK = 8


@pytest.mark.parametrize("rows", [1, 2, SMALL_BLOCK - 1, SMALL_BLOCK + 1, 2 * SMALL_BLOCK + 7])
def test_fused_distances_match_whole_array_scoring(monkeypatch, rows):
    # small blocks and a small single-thread product cutoff, so every
    # row count meets several blocks, overlapping last blocks and several
    # representation products per block
    monkeypatch.setattr(harness, "BLOCK_ROWS", SMALL_BLOCK)
    monkeypatch.setattr(harness, "KNN_CHUNK", 3)
    widest = max(a * b for a, b in TINY_ARCH.layer_shapes()[:-1])
    monkeypatch.setattr(model, "_SOLO_PRODUCT_MACS", 3 * widest)
    backbone = init_model(TINY_ARCH, 4)
    stats, index = fit_space(backbone, make_dataset(60, TINY_ARCH.input_dims, seed=5))
    data = make_dataset(rows, TINY_ARCH.input_dims, seed=rows)
    mahal, knn = harness._distances(backbone, stats, index, data)
    # the whole-array path: every representation at once, then each distance
    reps = representations(backbone, data.embeddings.data)
    assert mahal.tobytes() == mahalanobis_batch(stats, reps).tobytes()
    assert knn.tobytes() == knn_distance_batch(index, reps).tobytes()


def test_every_representation_product_stays_under_the_thread_cutoff(monkeypatch):
    """fit_space, the fused scorer, a head-only stage and predict_scores run
    every hidden layer product with at most ``model._SOLO_PRODUCT_MACS``
    multiply-adds."""
    arch = ModelArch()
    widest = max(a * b for a, b in arch.layer_shapes()[:-1])
    hidden, blocks = model._hidden, []

    def counted(views, a, outs):
        blocks[-1].append(len(a))
        return hidden(views, a, outs)

    monkeypatch.setattr(model, "_hidden", counted)
    backbone = init_model(arch, 0)
    train, pool = (make_dataset(5_000, arch.input_dims, seed=s) for s in (1, 2))
    blocks.append([])
    stats, index = fit_space(backbone, train)
    blocks.append([])
    harness._distances(backbone, stats, index, pool)
    blocks.append([])
    StageObjective(backbone, train.embeddings.data, train.grades, None, "head", batch_size=512)
    blocks.append([])
    predict_scores(backbone, train.embeddings.data)
    largest = [max(rows) for rows in blocks]  # one per step, each of which ran
    assert max(largest) * widest <= model._SOLO_PRODUCT_MACS, largest


def test_distances_reject_a_gaussian_and_index_of_different_widths():
    backbone = init_model(TINY_ARCH, 4)
    stats, _ = fit_space(backbone, make_dataset(60, TINY_ARCH.input_dims, seed=5))
    index = build_index(np.ones((3, TINY_ARCH.rep_dims - 1)))
    with pytest.raises(DimensionMismatchError, match="dims disagree"):
        harness._distances(backbone, stats, index, make_dataset(4, TINY_ARCH.input_dims, seed=6))


def test_select_rows_never_holds_the_pool_representations():
    arch = ModelArch()
    backbone = init_model(arch, 3)
    stats, index = fit_space(backbone, make_dataset(1_000, arch.input_dims, seed=1))
    pool = make_dataset(20_000, arch.input_dims, seed=2, prefix="pool")
    # thresholds at the pool's own 90th percentiles select under a tenth of it
    mahal, knn = harness._distances(backbone, stats, index, pool)  # loads scipy untraced
    thresholds = OodThresholds(float(np.quantile(mahal, 0.9)), float(np.quantile(knn, 0.9)), "q")
    reps_bytes = pool.rows * arch.rep_dims * 8
    assert traced_peak(select_rows, backbone, stats, index, thresholds, pool) < reps_bytes


# a pool that dwarfs the ID splits, beside an index whose kNN buffers are
# several MB (a 3.84 MB float32 screen, then a 1.54 MB float64 buffer)
POOL_HEAVY = ExperimentConfig(
    corpus=dataclasses.replace(TINY_CONFIG, dims=64, train_size=5_000, pool_size=40_000),
    plan=TINY_PLAN,
)


def test_a_prepared_seed_holds_no_pool_and_scores_without_it():
    """``prepare`` keeps the pool's splits, not the pool: a cached seed holds
    less than the pool and its selection split together.  Training and
    scoring run after the pool is gone, so ``prepare`` peaks no higher than
    generating and splitting the corpus alone (1 MiB of slack)."""
    import scipy.linalg  # noqa: F401  (loaded untraced)

    cfg = POOL_HEAVY.for_seed(5)

    def corpus_and_splits():
        corpus = generate_synthetic(cfg.corpus)
        rows = split_pool(corpus.pool_truth, cfg.eval_fraction, 5)
        return corpus, [corpus.pool_truth.take(part) for part in rows]

    corpus, (select_truth, _, _) = corpus_and_splits()
    held = [
        data.embeddings.data.nbytes + data.grades.nbytes + data.origin.nbytes
        for data in (corpus.pool_truth, select_truth)
    ]
    assert traced_retained(prepare.__wrapped__, POOL_HEAVY, 5) < sum(held)
    split_peak = traced_peak(corpus_and_splits)
    assert traced_peak(prepare.__wrapped__, POOL_HEAVY, 5) < split_peak + 2**20


# ---------------------------------------------------------------------------
# ablation ladder


@pytest.mark.slow
def test_run_ablation_table_shape():
    table = run_ablation(CONFIG, 11)
    assert table.seed == 11
    assert [r.rung for r in table.rows] == [1, 2, 3, 4]
    assert tuple(r.label for r in table.rows) == LADDER_LABELS
    for r in table.rows:
        for value in (r.f1_id, r.f1_ood, r.acc_id, r.acc_ood):
            assert 0.0 <= value <= 1.0
    _, sweep = harness.ladder_models(CONFIG, 11)
    assert sweep.best.alpha in CONFIG.plan.alpha_grid


# ---------------------------------------------------------------------------
# budget sweep


@pytest.mark.slow
def test_budget_zero_makes_strategies_identical():
    rows = budget_sweep(CONFIG, 11, budgets=(0.0,))
    assert [r.strategy for r in rows] == ["dasa", "random"]
    dasa, random_row = rows
    assert dasa.n_aug == random_row.n_aug == 0
    assert dasa.f1_id == random_row.f1_id
    assert dasa.f1_ood == random_row.f1_ood


@pytest.mark.slow
def test_budget_sweep_validation():
    with pytest.raises(ConfigError, match="budgets"):
        budget_sweep(CONFIG, 11, budgets=(-0.25,))


def test_budget_sweep_checks_every_budget_before_training(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[-1])
        return run_training(*args, **kwargs)

    monkeypatch.setattr(util, "available_cpus", lambda: 1)  # train in this process
    monkeypatch.setattr(harness, "run_training", counted)
    with pytest.raises(ConfigError, match="budgets"):
        budget_sweep(SMALL, 5, budgets=(0.5, -0.25))
    with pytest.raises(ConfigError, match="budgets"):
        budget_sweep(SMALL, 5, budgets=(0.5, 1e6))
    assert calls == []


def test_budget_sweep_rejects_a_budget_above_one():
    # the ranked strategy draws only from the selected set, so a budget
    # above 1 would give the two strategies unequal row counts
    with pytest.raises(ConfigError, match="budgets"):
        budget_sweep(SMALL, 5, budgets=(1.5,))


# ---------------------------------------------------------------------------
# forked workers


@pytest.fixture
def uncached(monkeypatch):
    # a cached ladder or calibration pair would hand the second run the first's models
    for name in ("ladder_models", "_occ_models"):
        monkeypatch.setattr(harness, name, getattr(harness, name).__wrapped__)


def test_forked_workers_match_a_serial_run_bitwise(monkeypatch, uncached):
    runs = []
    for cpus in (1, 2):
        monkeypatch.setattr(util, "available_cpus", lambda n=cpus: n)
        models, sweep = harness.ladder_models(SMALL, 5)
        pair = harness._occ_models(SMALL, 5)
        runs.append(pickle.dumps((
            [model.values.tobytes() for model in (*models, *pair)],
            sweep,
            run_ablation(SMALL, 5),
            occ_effect(SMALL, 5),
            # each row on its own: rows unpickled apart share no pickle memo
            [pickle.dumps(row) for row in budget_sweep(SMALL, 5)],
        )))
    assert runs[0] == runs[1]
    assert_no_child_left()


def test_a_diverging_stage_in_a_worker_raises_in_the_parent(monkeypatch):
    prep = prepare(SMALL, 5)
    plan = SMALL.for_seed(5).plan
    train = partial(run_training, prep.backbone, prep.train_id, None, stage="single-stage")
    diverging = partial(train, plan=dataclasses.replace(plan, ft_lr=1e308))
    monkeypatch.setattr(util, "available_cpus", lambda: 2)
    with np.errstate(invalid="ignore"):
        with pytest.raises(DivergenceError) as serial:
            diverging()
        with pytest.raises(DivergenceError) as forked:
            util.parallel(partial(train, plan=plan), diverging)
    assert str(forked.value) == str(serial.value) == "non-finite model parameter"
    assert_no_child_left()


# ---------------------------------------------------------------------------
# calibration-term effect


@pytest.mark.slow
def test_occ_effect_reports_bounded_statistics():
    effect = occ_effect(CONFIG, 11)
    assert effect.seed == 11
    for value in (
        effect.overlap_with,
        effect.overlap_without,
        effect.wr_mid_with,
        effect.wr_mid_without,
    ):
        assert 0.0 <= value <= 1.0
    assert effect.overlap_drop == effect.overlap_without - effect.overlap_with
    assert effect.wr_mid_gain == effect.wr_mid_with - effect.wr_mid_without


# ---------------------------------------------------------------------------
# table files


def hand_tables():
    rows_a = tuple(
        AblationRow(rung=i + 1, label=LADDER_LABELS[i],
                    **graded(0.8 + 0.01 * i, 0.5 + 0.02 * i, 0.85, 0.6))
        for i in range(4)
    )
    rows_b = tuple(
        AblationRow(rung=i + 1, label=LADDER_LABELS[i],
                    **graded(0.82 + 0.01 * i, 0.54 + 0.02 * i, 0.87, 0.62))
        for i in range(4)
    )
    return (
        AblationTable(seed=11, rows=rows_a),
        AblationTable(seed=12, rows=rows_b),
    )


def test_write_ablation_tables_layout(tmp_path):
    path = tmp_path / "ablation.tsv"
    write_ablation_tables(hand_tables(), path, CONFIG)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# darl ")
    assert lines[1] == "seed\trung\tlabel\tf1_id\tf1_ood\tacc_id\tacc_ood"
    # 2 seeds x 4 rungs + 4 mean rows
    assert len(lines) == 2 + 8 + 4
    assert lines[2] == "11\t1\tbase-ft\t0.8000\t0.5000\t0.8500\t0.6000"
    mean_rows = [ln for ln in lines if ln.startswith("mean\t")]
    assert len(mean_rows) == 4
    # mean of 0.80 and 0.82
    assert mean_rows[0] == "mean\t1\tbase-ft\t0.8100\t0.5200\t0.8600\t0.6100"


def test_write_ablation_tables_is_deterministic(tmp_path):
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    write_ablation_tables(hand_tables(), a, CONFIG)
    write_ablation_tables(hand_tables(), b, CONFIG)
    assert a.read_bytes() == b.read_bytes()


def test_write_budget_table_layout(tmp_path):
    rows_by_seed = {
        11: (
            BudgetRow(budget=0.5, strategy="dasa", n_aug=100, **graded(0.8, 0.6)),
            BudgetRow(budget=0.5, strategy="random", n_aug=100, **graded(0.79, 0.55)),
        ),
        12: (
            BudgetRow(budget=0.5, strategy="dasa", n_aug=110, **graded(0.82, 0.62)),
            BudgetRow(budget=0.5, strategy="random", n_aug=110, **graded(0.81, 0.57)),
        ),
    }
    path = tmp_path / "budget.tsv"
    write_budget_table(rows_by_seed, path, CONFIG)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# darl ")
    assert lines[1] == "seed\tbudget\tstrategy\tn_aug\tf1_id\tf1_ood"
    assert lines[2] == "11\t0.5\tdasa\t100\t0.8000\t0.6000"
    assert lines[-1] == "mean\t0.5\trandom\t105\t0.8000\t0.5600"
    assert len(lines) == 2 + 4 + 2


def _old_ablation_table(tables, config) -> str:
    """The ladder table writer as it was before the shared seed-table writer."""
    seeds = [t.seed for t in tables]
    lines = [f"# {table_header(config, seeds)}"]
    lines.append("seed\trung\tlabel\tf1_id\tf1_ood\tacc_id\tacc_ood")
    for t in tables:
        for r in t.rows:
            lines.append(
                f"{t.seed}\t{r.rung}\t{r.label}\t{r.f1_id:.4f}\t{r.f1_ood:.4f}"
                f"\t{r.acc_id:.4f}\t{r.acc_ood:.4f}"
            )
    for rung in range(len(LADDER_LABELS)):
        rows = [t.rows[rung] for t in tables]
        lines.append(
            f"mean\t{rung + 1}\t{rows[0].label}"
            f"\t{np.mean([r.f1_id for r in rows]):.4f}"
            f"\t{np.mean([r.f1_ood for r in rows]):.4f}"
            f"\t{np.mean([r.acc_id for r in rows]):.4f}"
            f"\t{np.mean([r.acc_ood for r in rows]):.4f}"
        )
    return "\n".join(lines) + "\n"


def _old_budget_table(rows_by_seed, config) -> str:
    """The budget table writer as it was before the shared seed-table writer."""
    seeds = sorted(rows_by_seed)
    lines = [f"# {table_header(config, seeds)}"]
    lines.append("seed\tbudget\tstrategy\tn_aug\tf1_id\tf1_ood")
    for seed in seeds:
        for r in rows_by_seed[seed]:
            lines.append(
                f"{seed}\t{r.budget:g}\t{r.strategy}\t{r.n_aug}"
                f"\t{r.f1_id:.4f}\t{r.f1_ood:.4f}"
            )
    first = rows_by_seed[seeds[0]]
    for i, template in enumerate(first):
        group = [rows_by_seed[s][i] for s in seeds]
        lines.append(
            f"mean\t{template.budget:g}\t{template.strategy}"
            f"\t{int(np.mean([r.n_aug for r in group]))}"
            f"\t{np.mean([r.f1_id for r in group]):.4f}"
            f"\t{np.mean([r.f1_ood for r in group]):.4f}"
        )
    return "\n".join(lines) + "\n"


def test_seed_tables_match_the_old_writers_at_five_seeds(tmp_path):
    rng = np.random.default_rng(21)
    # unsorted seeds: the ladder keeps its input order, the budget table sorts
    seeds = (14, 11, 15, 12, 13)
    tables = [
        AblationTable(
            seed=seed,
            rows=tuple(
                AblationRow(rung=i + 1, label=label, **graded(*rng.uniform(0, 1, 4)))
                for i, label in enumerate(LADDER_LABELS)
            ),
        )
        for seed in seeds
    ]
    rows_by_seed = {
        seed: tuple(
            BudgetRow(budget=b, strategy=strategy, n_aug=int(rng.integers(1, 997)),
                      **graded(*rng.uniform(0, 1, 2)))
            for b in (0.25, 1 / 3, 1.0)
            for strategy in ("dasa", "random")
        )
        for seed in seeds
    }
    write_ablation_tables(tables, tmp_path / "ablation.tsv", SMALL)
    write_budget_table(rows_by_seed, tmp_path / "budget.tsv", SMALL)
    assert (tmp_path / "ablation.tsv").read_text(encoding="utf-8") == _old_ablation_table(
        tables, SMALL
    )
    assert (tmp_path / "budget.tsv").read_text(encoding="utf-8") == _old_budget_table(
        rows_by_seed, SMALL
    )
