"""Staged training: backbone pretraining, linear probe, fine-tune.

The probe trains only the head on top of frozen pretrained features; the
fine-tune stage unlocks everything from that warm start; the deployed model
is a linear blend of the two checkpoints, whose coefficient the harness's
blend sweep picks on validation data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import LabeledDataset
from .errors import CheckpointError, ConfigError, DataFormatError
from .model import (
    CalibrationPrior,
    LossValues,
    ModelArch,
    ModelParams,
    StageObjective,
    adam_step,
    init_model,
    init_opt,
)
from .util import bounded, check_config, sub_rng

DEFAULT_ALPHA_GRID = tuple(round(0.1 * i, 1) for i in range(11))


@dataclass(frozen=True)
class StagePlan:
    """Epoch/learning-rate budgets for the three stages plus the sweep grid.

    Fine-tuning may be skipped outright with ft_epochs=0, in which case the
    fine-tuned checkpoint equals the probe checkpoint.
    """

    pretrain_epochs: int = bounded(30, "[1, inf)")
    pretrain_lr: float = bounded(1e-3, "(0, inf)")
    lp_epochs: int = bounded(30, "[1, inf)")
    lp_lr: float = bounded(5e-4, "(0, inf)")
    ft_epochs: int = bounded(15, "[0, inf)")
    ft_lr: float = bounded(1e-4, "(0, inf)")
    batch_size: int = bounded(64, "[1, inf)")
    alpha_grid: tuple[float, ...] = bounded(DEFAULT_ALPHA_GRID, "[0, 1]", nonempty=True)
    head_boost: float = bounded(4.0, "(0, inf)")
    seed: int = 7

    def __post_init__(self) -> None:
        check_config(self)
        object.__setattr__(self, "alpha_grid", grid := tuple(map(float, self.alpha_grid)))
        if list(grid) != sorted(set(grid)):
            raise ConfigError("alpha_grid", "values must be sorted and unique")


# stage name -> (plan budget, trainable region); a stage trains for the
# plan's ``<budget>_epochs`` at ``<budget>_lr``
STAGES = {
    "pretrain": ("pretrain", "all"),
    "lp": ("lp", "head"),
    "ft": ("ft", "all"),
    "single-stage": ("ft", "all"),
    "budget": ("ft", "all"),
    "occ": ("lp", "all"),
}


def run_training(
    params: ModelParams,
    data: LabeledDataset,
    prior: CalibrationPrior | None,
    plan: StagePlan,
    stage: str,
) -> tuple[ModelParams, list[LossValues]]:
    """Seeded minibatch Adam loop of one ``STAGES`` entry; returns final
    params and per-epoch loss.

    Batch order is a fresh permutation per epoch, seeded by the plan seed
    and the stage name; an epoch's trace entry is the size-weighted mean of
    its batch losses.  Adam updates a copy of the parameters in place, which
    the objective reads through a view, and raises where training diverges.
    """
    if params.arch.input_dims != data.embeddings.dims:
        raise CheckpointError(
            f"checkpoint expects {params.arch.input_dims}-dim inputs, "
            f"dataset has {data.embeddings.dims}"
        )
    n = data.rows
    if n == 0:
        raise DataFormatError(f"stage {stage!r} received an empty dataset")
    budget, trainable = STAGES[stage]
    arch = params.arch
    opt = init_opt(arch, lr=getattr(plan, f"{budget}_lr"), trainable=trainable)
    vec = params.values.copy()
    objective = StageObjective(
        ModelParams(arch, vec.view()), data.embeddings.data, data.grades, prior,
        trainable, plan.batch_size,
    )
    rng = sub_rng(plan.seed, "batch-order", stage)
    trace: list[LossValues] = []
    for _ in range(getattr(plan, f"{budget}_epochs")):
        perm = rng.permutation(n)
        total = np.zeros(3)
        for start in range(0, n, plan.batch_size):
            take = perm[start : start + plan.batch_size]
            values = objective(take)
            adam_step(opt, vec, objective.grad)
            total += np.array(values) * take.size
        trace.append(LossValues(*(total / n)))
    return ModelParams(arch, vec), trace


def pretrain_backbone(
    superset: LabeledDataset, plan: StagePlan
) -> tuple[ModelParams, list[LossValues]]:
    """Supervised pretraining on the broad superset; head is discarded.

    Trains a fresh model end-to-end with plain cross-entropy, then zeroes
    the head slice: the returned checkpoint carries only backbone signal
    and later stages grow their own head.

    The throwaway head is scaled up by ``plan.head_boost`` at init.  With a
    small head the loss can only reach its operating logit scale by growing
    backbone features, which warps the representation geometry the
    distance-based selector depends on; a boosted head absorbs that scale
    instead, keeping representations close to the input geometry.
    """
    arch = ModelArch(input_dims=superset.embeddings.dims)
    boosted = init_model(arch, plan.seed).values.copy()
    boosted[arch.backbone_count :] *= plan.head_boost
    params, trace = run_training(ModelParams(arch, boosted), superset, None, plan, "pretrain")
    values = params.values.copy()
    values[arch.backbone_count :] = 0.0
    return params.replace_values(values), trace


def linear_probe(
    theta: ModelParams,
    d_aug: LabeledDataset,
    prior: CalibrationPrior | None,
    plan: StagePlan,
) -> tuple[ModelParams, list[LossValues]]:
    """Head-only training on frozen backbone features.

    The backbone slice of the result is bitwise identical to ``theta``; the
    head starts from zero (the pretraining head was discarded) and is the
    only thing the optimizer touches.
    """
    phi_lp, trace = run_training(theta, d_aug, prior, plan, "lp")
    if not np.array_equal(phi_lp.backbone, theta.backbone):
        raise CheckpointError("probe stage modified frozen backbone weights")
    return phi_lp, trace


def full_finetune(
    phi_lp: ModelParams,
    d_aug: LabeledDataset,
    prior: CalibrationPrior | None,
    plan: StagePlan,
) -> tuple[ModelParams, list[LossValues]]:
    """All-parameter training warm-started at the probe checkpoint."""
    return run_training(phi_lp, d_aug, prior, plan, "ft")
