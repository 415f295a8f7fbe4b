"""Staged training: pretraining, linear probe, fine-tune, interpolation sweep."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import TINY_CONFIG, TINY_PLAN, graded
from darl.dataset import EmbeddingMatrix, LabeledDataset, generate_pretrain_superset
from darl.errors import (
    CheckpointError,
    ConfigError,
    DataFormatError,
    DivergenceError,
)
from darl import lpft
from darl.harness import (
    AlphaRow,
    AlphaSweepResult,
    ExperimentConfig,
    alpha_sweep,
    prepare,
    write_alpha_table,
)
from darl.lpft import (
    DEFAULT_ALPHA_GRID,
    StagePlan,
    full_finetune,
    linear_probe,
    pretrain_backbone,
    run_training,
)
from darl.metrics import compute_metrics, fit_grade_thresholds
from darl.model import (
    CalibrationPrior,
    LossValues,
    ModelArch,
    ModelParams,
    StageObjective,
    adam_step,
    init_model,
    init_opt,
    predict_scores,
)
from darl.util import sub_rng

# ---------------------------------------------------------------------------
# plan validation


def test_default_plan_budgets():
    plan = StagePlan()
    assert plan.pretrain_epochs == 30 and plan.pretrain_lr == 1e-3
    assert plan.lp_epochs == 30 and plan.lp_lr == 5e-4
    assert plan.ft_epochs == 15 and plan.ft_lr == 1e-4
    assert plan.batch_size == 64
    assert plan.alpha_grid == DEFAULT_ALPHA_GRID
    assert len(DEFAULT_ALPHA_GRID) == 11
    assert DEFAULT_ALPHA_GRID[0] == 0.0 and DEFAULT_ALPHA_GRID[-1] == 1.0


@pytest.mark.parametrize(
    "field,value",
    [
        ("pretrain_epochs", 0),
        ("lp_epochs", 0),
        ("ft_epochs", -1),
        ("pretrain_lr", 0.0),
        ("lp_lr", -1e-4),
        ("ft_lr", 0.0),
        ("batch_size", 0),
        ("head_boost", 0.0),
        ("alpha_grid", ()),
        ("alpha_grid", (0.0, 1.5)),
        ("alpha_grid", (0.5, 0.2)),
        ("alpha_grid", (0.2, 0.2, 0.5)),
    ],
)
def test_plan_validation(field, value):
    with pytest.raises(ConfigError) as err:
        StagePlan(**{field: value})
    assert err.value.field == field


def test_zero_ft_epochs_is_allowed():
    assert StagePlan(ft_epochs=0).ft_epochs == 0


# ---------------------------------------------------------------------------
# training loop


def toy_binary_task(n=400, seed=0):
    """Two well-separated clusters graded IR / SR."""
    rng = np.random.default_rng(seed)
    half = n // 2
    x = np.concatenate(
        [
            rng.standard_normal((half, 2)) * 0.3 + [-3.0, 0.0],
            rng.standard_normal((n - half, 2)) * 0.3 + [3.0, 0.0],
        ]
    )
    grades = np.array([0] * half + [2] * (n - half), dtype=np.int8)
    return x, grades


def as_dataset(x, grades):
    ids = tuple(f"t{i:04d}" for i in range(x.shape[0]))
    return LabeledDataset(
        EmbeddingMatrix(x.astype(np.float32), ids),
        grades,
        np.zeros(x.shape[0], dtype=np.int8),
    )


UNIT_PLAN = StagePlan(lp_epochs=3, lp_lr=1e-3, ft_epochs=3, ft_lr=1e-3, batch_size=32, seed=9)


def test_run_training_is_deterministic():
    data = as_dataset(*toy_binary_task())
    params = init_model(ModelArch(2, (8, 4)), seed=1)

    def run():
        out, trace = run_training(params, data, None, UNIT_PLAN, "ft")
        return out.values, trace

    va, ta = run()
    vb, tb = run()
    np.testing.assert_array_equal(va, vb)
    assert ta == tb
    assert len(ta) == 3


def test_run_training_stage_tag_changes_batch_order():
    # both stages train every parameter on the fine-tune budget
    data = as_dataset(*toy_binary_task())
    params = init_model(ModelArch(2, (8, 4)), seed=2)
    a, _ = run_training(params, data, None, UNIT_PLAN, "single-stage")
    b, _ = run_training(params, data, None, UNIT_PLAN, "budget")
    assert not np.array_equal(a.values, b.values)


@pytest.mark.parametrize("stage", sorted(lpft.STAGES))
def test_each_stage_trains_its_budget_and_region(stage):
    budget, trainable = lpft.STAGES[stage]
    plan = StagePlan(pretrain_epochs=1, lp_epochs=2, ft_epochs=3, batch_size=32, seed=9)
    params = init_model(ModelArch(2, (8, 4)), seed=1)
    out, trace = run_training(params, as_dataset(*toy_binary_task()), None, plan, stage)
    assert len(trace) == getattr(plan, f"{budget}_epochs")
    moved = out.values != params.values
    count = params.arch.backbone_count
    assert moved[count:].any()
    assert moved[:count].any() == (trainable == "all")


def test_run_training_rejects_empty_data():
    params = init_model(ModelArch(2, (4,)), seed=3)
    with pytest.raises(DataFormatError, match="empty"):
        run_training(params, as_dataset(*toy_binary_task()).take([]), None, UNIT_PLAN, "ft")


@pytest.mark.parametrize("stage", sorted(lpft.STAGES))
def test_run_training_rejects_a_width_mismatch(stage):
    data = as_dataset(*toy_binary_task())
    with pytest.raises(CheckpointError, match="expects 3-dim inputs, dataset has 2"):
        run_training(init_model(ModelArch(3, (4,)), 0), data, None, UNIT_PLAN, stage)


def test_run_training_leaves_its_input_untouched():
    data = as_dataset(*toy_binary_task())
    params = init_model(ModelArch(2, (8, 4)), seed=5)
    before = params.values.copy()
    plan = dataclasses.replace(UNIT_PLAN, ft_epochs=2, ft_lr=1e-2)
    out, _ = run_training(params, data, None, plan, "ft")
    np.testing.assert_array_equal(params.values, before)
    assert not params.values.flags.writeable
    assert not np.array_equal(out.values, before)


def test_run_training_rejects_a_diverging_stage():
    data = as_dataset(*toy_binary_task())
    params = init_model(ModelArch(2, (8, 4)), seed=6)
    plan = dataclasses.replace(UNIT_PLAN, ft_epochs=1, ft_lr=1e308)
    with pytest.raises(DivergenceError, match="non-finite model parameter"):
        run_training(params, data, None, plan, "ft")


def _reference_training(
    params, x, grades, prior, epochs, lr, trainable, batch_size, seed, stage
):
    """The loop ``run_training`` must reproduce: one fresh objective per batch."""
    arch = params.arch
    opt = init_opt(arch, lr=lr, trainable=trainable)
    vec = params.values.copy()
    rng = sub_rng(seed, "batch-order", stage)
    n = x.shape[0]
    trace = []
    for _ in range(epochs):
        perm = rng.permutation(n)
        total = np.zeros(3)
        for start in range(0, n, batch_size):
            take = perm[start : start + batch_size]
            objective = StageObjective(
                ModelParams(arch, vec.view()), x[take], grades[take], prior, trainable
            )
            values = objective()
            adam_step(opt, vec, objective.grad)
            total += np.array(values) * take.size
        trace.append(LossValues(*(total / n)))
    return ModelParams(arch, vec), trace


ORACLE_SIZES = sorted(
    {(bs, n) for bs in (1, 7, 64) for n in (1, 2, bs, bs + 1, 2 * bs + 1)}
)


@pytest.mark.parametrize("trainable", ["head", "all"])
@pytest.mark.parametrize("use_prior", [False, True], ids=["no-prior", "prior"])
@pytest.mark.parametrize("batch_size,n", ORACLE_SIZES)
def test_run_training_matches_the_per_batch_loop(
    monkeypatch, trainable, use_prior, batch_size, n
):
    # bit for bit, including head stages whose last batch holds one row:
    # that row must not be read from representations computed for all rows.
    # A table entry added here runs each region the objective supports.
    monkeypatch.setitem(lpft.STAGES, "oracle", ("ft", trainable))
    arch = ModelArch()
    rng = np.random.default_rng(1000 * batch_size + n)
    x = rng.standard_normal((n, arch.input_dims)).astype(np.float32)
    grades = rng.integers(0, 3, size=n).astype(np.int8)
    prior = CalibrationPrior(rho=0.1) if use_prior else None
    params = init_model(arch, seed=n)
    plan = StagePlan(ft_epochs=2, ft_lr=1e-2, batch_size=batch_size, seed=3)
    got, got_trace = run_training(params, as_dataset(x, grades), prior, plan, "oracle")
    want, want_trace = _reference_training(
        params, x.astype(np.float64), grades, prior, 2, 1e-2, trainable, batch_size, 3,
        "oracle",
    )
    assert got.values.tobytes() == want.values.tobytes()
    assert np.array(got_trace).tobytes() == np.array(want_trace).tobytes()


@pytest.mark.parametrize("n,batch_size", [(130, 32), (128, 32), (5, 1), (3, 64)])
def test_run_training_takes_one_adam_step_per_batch(monkeypatch, n, batch_size):
    calls = []

    def counting_step(opt, values, grad):
        calls.append(opt.step)
        adam_step(opt, values, grad)

    monkeypatch.setattr(lpft, "adam_step", counting_step)
    data = as_dataset(*toy_binary_task(n))
    params = init_model(ModelArch(2, (8, 4)), seed=1)
    plan = dataclasses.replace(UNIT_PLAN, batch_size=batch_size)
    run_training(params, data, None, plan, "lp")
    assert calls == list(range(3 * math.ceil(n / batch_size)))


# ---------------------------------------------------------------------------
# pretraining


@pytest.fixture(scope="module")
def tiny_superset():
    return generate_pretrain_superset(TINY_CONFIG)


def test_pretrain_returns_zero_head(tiny_superset):
    backbone, trace = pretrain_backbone(tiny_superset, TINY_PLAN)
    assert backbone.arch.input_dims == TINY_CONFIG.dims
    np.testing.assert_array_equal(backbone.values[backbone.arch.backbone_count :], 0)
    assert np.any(backbone.backbone != 0.0)
    assert len(trace) == TINY_PLAN.pretrain_epochs


def test_pretrain_is_deterministic(tiny_superset):
    a, _ = pretrain_backbone(tiny_superset, TINY_PLAN)
    b, _ = pretrain_backbone(tiny_superset, TINY_PLAN)
    np.testing.assert_array_equal(a.values, b.values)


def test_pretrain_head_boost_shapes_the_backbone(tiny_superset):
    base, _ = pretrain_backbone(tiny_superset, TINY_PLAN)
    boosted, _ = pretrain_backbone(
        tiny_superset, dataclasses.replace(TINY_PLAN, head_boost=12.0)
    )
    assert not np.array_equal(base.backbone, boosted.backbone)


# ---------------------------------------------------------------------------
# probe and finetune


def probe_inputs(seed=4):
    data = as_dataset(*toy_binary_task(seed=seed))
    theta = init_model(ModelArch(2, (8, 4)), seed=seed)
    cleared = theta.values.copy()
    cleared[theta.arch.backbone_count :] = 0.0
    return data, theta.replace_values(cleared)


def test_probe_freezes_backbone_and_trains_head():
    data, theta = probe_inputs()
    plan = StagePlan(lp_epochs=10, lp_lr=5e-3, batch_size=32, seed=4)
    phi_lp, trace = linear_probe(theta, data, None, plan)
    np.testing.assert_array_equal(phi_lp.backbone, theta.backbone)
    assert np.any(phi_lp.values[phi_lp.arch.backbone_count :] != 0.0)
    assert len(trace) == 10
    assert trace[-1].total < trace[0].total


def test_probe_separates_wide_margin_clusters():
    data, theta = probe_inputs()
    plan = StagePlan(lp_epochs=60, lp_lr=5e-3, batch_size=32, seed=4)
    phi_lp, _ = linear_probe(theta, data, None, plan)
    scores = predict_scores(phi_lp, data.embeddings.data.astype(np.float64))
    predicted_positive = scores > 0.5
    assert np.mean(predicted_positive == (data.grades == 2)) >= 0.99


def test_probe_rejects_dims_mismatch():
    data, _ = probe_inputs()
    with pytest.raises(CheckpointError):
        linear_probe(init_model(ModelArch(3, (4,)), 0), data, None, StagePlan())


def test_finetune_zero_epochs_copies_probe():
    data, theta = probe_inputs()
    plan = StagePlan(lp_epochs=5, lp_lr=5e-3, ft_epochs=0, batch_size=32, seed=4)
    phi_lp, _ = linear_probe(theta, data, None, plan)
    phi_ft, trace = full_finetune(phi_lp, data, None, plan)
    np.testing.assert_array_equal(phi_ft.values, phi_lp.values)
    assert phi_ft.values is not phi_lp.values
    assert trace == []


def test_finetune_moves_backbone_and_lowers_loss():
    data, theta = probe_inputs()
    plan = StagePlan(
        lp_epochs=20, lp_lr=5e-3, ft_epochs=20, ft_lr=1e-3, batch_size=32, seed=4
    )
    phi_lp, _ = linear_probe(theta, data, None, plan)
    phi_ft, trace = full_finetune(phi_lp, data, None, plan)
    assert not np.array_equal(phi_ft.backbone, phi_lp.backbone)
    assert len(trace) == 20
    x = data.embeddings.data.astype(np.float64)
    full_lp = StageObjective(phi_lp, x, data.grades, None)().total
    full_ft = StageObjective(phi_ft, x, data.grades, None)().total
    assert full_ft <= full_lp + 1e-6


# ---------------------------------------------------------------------------
# pretraining transfer, measured through the harness corpora


@pytest.mark.slow
def test_pretrained_backbone_beats_random_init_for_probing():
    gaps = []
    for seed in (11, 12, 13):
        prep = prepare(ExperimentConfig(), seed)
        plan = ExperimentConfig().plan
        train_id = prep.train_id
        val = prep.val_id
        x_val = val.embeddings.data.astype(np.float64)

        random_theta = init_model(prep.backbone.arch, seed)
        cleared = random_theta.values.copy()
        cleared[random_theta.arch.backbone_count :] = 0.0
        random_theta = random_theta.replace_values(cleared)

        accs = {}
        for tag, theta in (("pre", prep.backbone), ("rand", random_theta)):
            phi, _ = linear_probe(theta, train_id, None, plan)
            scores = predict_scores(phi, x_val)
            thresholds = fit_grade_thresholds(scores, val.grades)
            accs[tag] = compute_metrics(scores, val.grades, thresholds).accuracy
        gaps.append(accs["pre"] - accs["rand"])
    assert float(np.mean(gaps)) >= 0.05


# ---------------------------------------------------------------------------
# interpolation sweep


def sweep_inputs():
    data, theta = probe_inputs(seed=6)
    plan = StagePlan(
        lp_epochs=15, lp_lr=5e-3, ft_epochs=10, ft_lr=1e-3, batch_size=32, seed=6
    )
    phi_lp, _ = linear_probe(theta, data, None, plan)
    phi_ft, _ = full_finetune(phi_lp, data, None, plan)
    # grade all three ways so threshold fitting has every class
    rng = np.random.default_rng(7)
    n = 120
    x = rng.standard_normal((n, 2)).astype(np.float32) * 2.0
    grades = rng.integers(0, 3, size=n).astype(np.int8)
    grades[:3] = [0, 1, 2]
    val = LabeledDataset(
        EmbeddingMatrix(x, tuple(f"v{i}" for i in range(n))),
        grades,
        np.zeros(n, dtype=np.int8),
    )
    val_ood = val.take(list(range(0, n, 2)))
    return phi_lp, phi_ft, val, val_ood


def grid(*alphas):
    return StagePlan(alpha_grid=alphas)


def test_alpha_sweep_covers_grid_in_order():
    phi_lp, phi_ft, val, val_ood = sweep_inputs()
    result = alpha_sweep(phi_lp, phi_ft, grid(0.0, 0.25, 0.5, 0.75, 1.0), val, val_ood)
    assert [row.alpha for row in result.rows] == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert result.best in result.rows
    assert result.best.combined == max(row.combined for row in result.rows)


def test_alpha_sweep_endpoints_match_direct_evaluation():
    phi_lp, phi_ft, val, val_ood = sweep_inputs()
    result = alpha_sweep(phi_lp, phi_ft, grid(0.0, 1.0), val, val_ood)
    for row, params in zip(result.rows, (phi_lp, phi_ft)):
        scores = predict_scores(params, val.embeddings.data.astype(np.float64))
        thr = fit_grade_thresholds(scores, val.grades)
        m_id = compute_metrics(scores, val.grades, thr)
        ood_scores = predict_scores(params, val_ood.embeddings.data.astype(np.float64))
        m_ood = compute_metrics(ood_scores, val_ood.grades, thr)
        assert row.f1_id == m_id.macro_f1
        assert row.f1_ood == m_ood.macro_f1
        assert row.acc_id == m_id.accuracy
        assert row.acc_ood == m_ood.accuracy


def test_alpha_sweep_single_point_grid():
    phi_lp, phi_ft, val, val_ood = sweep_inputs()
    result = alpha_sweep(phi_lp, phi_ft, grid(0.6), val, val_ood)
    assert result.best.alpha == 0.6
    assert len(result.rows) == 1


def test_alpha_sweep_ties_prefer_smaller_alpha():
    phi_lp, _, val, val_ood = sweep_inputs()
    result = alpha_sweep(phi_lp, phi_lp, grid(0.0, 0.5, 1.0), val, val_ood)
    combined = [row.combined for row in result.rows]
    assert combined[0] == combined[1] == combined[2]
    assert result.best is result.rows[0]


def test_alpha_sweep_validation():
    phi_lp, phi_ft, val, val_ood = sweep_inputs()
    empty = val.take([])
    with pytest.raises(DataFormatError):
        alpha_sweep(phi_lp, phi_ft, grid(0.5), empty, val_ood)


def test_combined_score_is_mean_of_f1s():
    row = AlphaRow(alpha=0.3, **graded(0.8, 0.6, 0.9, 0.7))
    assert row.combined == pytest.approx(0.7)


def test_write_alpha_table_format(tmp_path):
    rows = (
        AlphaRow(alpha=0.0, **graded(0.81234, 0.61111, 0.9, 0.7)),
        AlphaRow(alpha=0.5, **graded(0.85, 0.66, 0.92, 0.72)),
    )
    result = AlphaSweepResult(rows=rows, best=rows[1])
    path = tmp_path / "sweep.tsv"
    write_alpha_table(result, path, meta="best 0.5")
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# best 0.5"
    assert lines[1] == "alpha\tf1_id\tf1_ood\tacc_id\tacc_ood"
    assert lines[2] == "0\t0.8123\t0.6111\t0.9000\t0.7000"
    assert len(lines) == 4
