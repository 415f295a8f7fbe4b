"""Command-line pipeline: every stage as a subcommand over one run directory.

A run directory accumulates the artifacts of a single configuration: data
files under ``data/``, checkpoints and tables at the top level, a resolved
``config.json``, and a ``manifest.json`` mapping every artifact to its
content hash.  Each subcommand reads its prerequisites from the run
directory and fails with the name of the producing subcommand when one is
missing.  Given identical config and seed, every subcommand is
deterministic down to the byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .dataset import (
    LabeledDataset,
    Origin,
    generate_pretrain_superset,
    generate_synthetic,
    load_labeled_dataset,
    merge_datasets,
    write_embeddings,
    write_labels,
)
from .errors import (
    ConfigError,
    DarlError,
    DataFormatError,
    MissingArtifactError,
    RunDirError,
)
from .harness import (
    DEFAULT_BUDGETS,
    TREND_SEEDS,
    ExperimentConfig,
    budget_sweep,
    calibrate,
    evaluate_model,
    fit_space,
    occ_effect,
    run_ablation,
    select_rows,
    split_pool,
    table_header,
    write_ablation_tables,
    write_budget_table,
)
from .lpft import (
    alpha_sweep,
    full_finetune,
    linear_probe,
    pretrain_backbone,
    write_alpha_table,
)
from .metrics import score_histogram, write_histogram
from .model import (
    interpolate,
    load_checkpoint,
    predict_scores,
    save_checkpoint,
)
from .ood_select import (
    load_thresholds,
    save_thresholds,
    write_score_report,
)
from .util import canonical_json, sha256_file


@dataclass(frozen=True)
class RunConfig(ExperimentConfig):
    """Fully resolved run settings: the experiment plus the run-level fields.

    Precedence: built-in defaults, then the ``--config`` JSON file, then
    individual flags.  The resolved result is written into the run
    directory so any run can be replayed from one file.
    """

    seed: int = 7
    alpha: float = 0.6
    budgets: tuple[float, ...] = DEFAULT_BUDGETS
    trend_seeds: tuple[int, ...] = TREND_SEEDS

    def __post_init__(self) -> None:
        super().__post_init__()
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ConfigError("seed", f"must be an integer, got {self.seed!r}")
        if not (isinstance(self.alpha, (int, float)) and 0.0 <= self.alpha <= 1.0):
            raise ConfigError("alpha", f"must be a number in [0, 1], got {self.alpha!r}")


def _typed(key: str, value, default):
    """``value`` checked against the JSON type of ``default``; lists become tuples."""
    if isinstance(default, tuple):
        if not isinstance(value, list):
            raise ConfigError(key, f"must be a list, got {value!r}")
        return tuple(_typed(key, item, default[0]) for item in value)
    if isinstance(default, bool):
        ok, kind = isinstance(value, bool), "true or false"
    elif isinstance(default, int):
        ok, kind = isinstance(value, int) and not isinstance(value, bool), "an integer"
    elif isinstance(default, float):
        ok = isinstance(value, float) and math.isfinite(value) or (
            isinstance(value, int) and not isinstance(value, bool)
        )
        kind = "a finite number"
    else:
        ok, kind = isinstance(value, str), "a string"
    if not ok:
        raise ConfigError(key, f"must be {kind}, got {value!r}")
    return value


def _build_config(file_values: dict, overrides: dict) -> RunConfig:
    """Merge defaults, config-file values, and flag overrides.

    A section given in the file starts from the run default of that
    section, so keys it leaves out keep their run defaults.
    """
    defaults = RunConfig()
    known = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = set(file_values) - known
    if unknown:
        raise ConfigError(sorted(unknown)[0], "unknown config key")
    kwargs: dict = {}
    for name, value in file_values.items():
        default = getattr(defaults, name)
        if dataclasses.is_dataclass(default):
            if not isinstance(value, dict):
                raise ConfigError(name, "must be a JSON object")
            valid = {f.name for f in dataclasses.fields(default)}
            bad = set(value) - valid
            if bad:
                raise ConfigError(f"{name}.{sorted(bad)[0]}", "unknown config key")
            typed = {
                k: _typed(f"{name}.{k}", v, getattr(default, k))
                for k, v in value.items()
            }
            kwargs[name] = dataclasses.replace(default, **typed)
        else:
            kwargs[name] = _typed(name, value, default)
    config = RunConfig(**kwargs)
    seed = config.seed if overrides.get("seed") is None else overrides["seed"]
    config = dataclasses.replace(config.for_seed(seed), seed=seed)
    if overrides.get("rho") is not None:
        config = dataclasses.replace(config, rho=overrides["rho"])
    if overrides.get("fpr") is not None:
        config = dataclasses.replace(
            config, policy=dataclasses.replace(config.policy, alpha_fpr=overrides["fpr"])
        )
    if overrides.get("alpha") is not None:
        config = dataclasses.replace(config, alpha=overrides["alpha"])
    config.corpus.validate()
    return config


class _Run:
    """Paths, manifest bookkeeping, and artifact loading for one run dir."""

    def __init__(self, run_dir: str | Path, config: RunConfig):
        self.root = Path(run_dir)
        self.config = config
        self.data = self.root / "data"

    def path(self, name: str) -> Path:
        return self.root / name

    def require(self, name: str, producer: str) -> Path:
        p = self.path(name)
        if not p.exists():
            raise MissingArtifactError(p, producer)
        return p

    def read_json(self, name: str) -> dict:
        """A JSON object this CLI wrote; a corrupt file is named in the error."""
        path = self.path(name)
        try:
            value = json.loads(path.read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataFormatError(f"{path} is not valid JSON: {exc}") from exc
        if not isinstance(value, dict):
            raise DataFormatError(f"{path} must hold a JSON object")
        return value

    def record(self, *names: str) -> None:
        """Add the artifacts' hashes to the manifest, replacing it atomically."""
        manifest = {}
        if self.path("manifest.json").exists():
            manifest = self.read_json("manifest.json")
        for name in names:
            manifest[name] = sha256_file(self.path(name))
        partial = self.path("manifest.json.tmp")
        partial.write_text(
            json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
        os.replace(partial, self.path("manifest.json"))

    def make_dir(self, path: Path) -> None:
        try:
            path.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise RunDirError(f"cannot create run directory {path}: {exc}") from exc

    def write_config(self) -> None:
        self.make_dir(self.root)
        self.path("config.json").write_text(
            canonical_json(dataclasses.asdict(self.config)) + "\n", encoding="utf-8"
        )
        self.record("config.json")

    def save_dataset(self, dataset: LabeledDataset, stem: str) -> None:
        write_embeddings(dataset.embeddings, self.data / f"{stem}.emb")
        write_labels(dataset, self.data / f"{stem}.tsv")
        self.record(f"data/{stem}.emb", f"data/{stem}.tsv")

    def load_dataset(self, stem: str, producer: str) -> LabeledDataset:
        self.require(f"data/{stem}.emb", producer)
        self.require(f"data/{stem}.tsv", producer)
        return load_labeled_dataset(self.data / f"{stem}.emb", self.data / f"{stem}.tsv")

    def load_backbone(self):
        return load_checkpoint(self.require("backbone.ckpt", "train --stage pretrain"))

    def header(self) -> str:
        return table_header(self.config, [self.config.seed])


def _representation_setup(run: _Run):
    """Backbone, ID statistics, and neighbor index shared by fit/select."""
    backbone = run.load_backbone()
    return (backbone, *fit_space(backbone, run.load_dataset("train_id", "gen-data")))


def cmd_gen_data(run: _Run, args) -> None:
    config = run.config
    corpus = generate_synthetic(config.corpus)
    # split before anything is written, so a pool that cannot feed the
    # shifted evaluation sets leaves no run directory behind
    select_truth, val_ood, test_ood = split_pool(
        corpus.pool_truth, config.eval_fraction, config.seed
    )
    superset = generate_pretrain_superset(config.corpus)
    run.write_config()
    run.make_dir(run.data)
    run.save_dataset(corpus.train_id, "train_id")
    run.save_dataset(corpus.val_id, "val_id")
    run.save_dataset(corpus.test_id, "test_id")
    run.save_dataset(superset, "superset")
    write_embeddings(corpus.pool_unlabeled, run.data / "pool.emb")
    write_labels(corpus.pool_truth, run.data / "pool_truth.tsv")
    run.record("data/pool.emb", "data/pool_truth.tsv")
    run.save_dataset(select_truth, "select_truth")
    run.save_dataset(val_ood, "val_ood")
    run.save_dataset(test_ood, "test_ood")
    n_pool = corpus.pool_truth.rows
    print(f"gen-data: wrote corpus (pool {n_pool} rows, eval split "
          f"{n_pool - select_truth.rows}) to {run.data}")


def cmd_train(run: _Run, args) -> None:
    plan = run.config.plan
    prior = run.config.prior()
    if args.stage == "pretrain":
        superset = run.load_dataset("superset", "gen-data")
        theta, trace = pretrain_backbone(superset, plan)
        save_checkpoint(theta, run.path("backbone.ckpt"))
        run.record("backbone.ckpt")
        print(f"pretrain: {plan.pretrain_epochs} epochs, "
              f"final loss {trace[-1].total:.4f} -> backbone.ckpt")
        return
    train = run.load_dataset("train_id", "gen-data")
    d_aug_path = run.data / "d_aug.emb"
    if d_aug_path.exists():
        data = merge_datasets(train, run.load_dataset("d_aug", "select"))
    else:
        data = train
    if args.stage == "lp":
        theta = run.load_backbone()
        phi_lp, trace = linear_probe(theta, data, prior, plan)
        save_checkpoint(phi_lp, run.path("phi_lp.ckpt"))
        run.record("phi_lp.ckpt")
        print(f"lp: {plan.lp_epochs} epochs on {data.rows} rows, "
              f"final loss {trace[-1].total:.4f} -> phi_lp.ckpt")
    else:
        phi_lp = load_checkpoint(run.require("phi_lp.ckpt", "train --stage lp"))
        phi_ft, trace = full_finetune(phi_lp, data, prior, plan)
        save_checkpoint(phi_ft, run.path("phi_ft.ckpt"))
        run.record("phi_ft.ckpt")
        final = trace[-1].total if trace else float("nan")
        print(f"ft: {plan.ft_epochs} epochs on {data.rows} rows, "
              f"final loss {final:.4f} -> phi_ft.ckpt")


def cmd_fit_ood(run: _Run, args) -> None:
    backbone, stats, index = _representation_setup(run)
    policy = run.config.policy
    thresholds = calibrate(
        backbone, stats, index,
        run.load_dataset("val_id", "gen-data"),
        run.load_dataset("val_ood", "gen-data"),
        policy,
    )
    save_thresholds(thresholds, run.path("thresholds.json"))
    run.record("thresholds.json")
    print(f"fit-ood: policy {policy.mode} -> d1 {thresholds.d1:.6g} "
          f"d2 {thresholds.d2:.6g} -> thresholds.json")


def cmd_select(run: _Run, args) -> None:
    thresholds = load_thresholds(run.require("thresholds.json", "fit-ood"))
    backbone, stats, index = _representation_setup(run)
    select_truth = run.load_dataset("select_truth", "gen-data")
    report, d_aug = select_rows(backbone, stats, index, thresholds, select_truth)
    write_score_report(report, run.path("score_report.tsv"))
    run.save_dataset(d_aug, "d_aug")
    run.record("score_report.tsv")
    n_ood = int(np.count_nonzero(d_aug.origin == int(Origin.OOD)))
    print(f"select: {d_aug.rows} of {select_truth.rows} rows selected "
          f"({n_ood} true shifted) -> score_report.tsv, data/d_aug.*")


def cmd_interpolate(run: _Run, args) -> None:
    phi_lp = load_checkpoint(run.require("phi_lp.ckpt", "train --stage lp"))
    phi_ft = load_checkpoint(run.require("phi_ft.ckpt", "train --stage ft"))
    alpha = run.config.alpha
    blended = interpolate(phi_lp, phi_ft, alpha)
    name = f"phi_alpha_{alpha:g}.ckpt"
    save_checkpoint(blended, run.path(name))
    run.record(name)
    print(f"interpolate: alpha {alpha:g} -> {name}")


def cmd_sweep_alpha(run: _Run, args) -> None:
    phi_lp = load_checkpoint(run.require("phi_lp.ckpt", "train --stage lp"))
    phi_ft = load_checkpoint(run.require("phi_ft.ckpt", "train --stage ft"))
    val_id = run.load_dataset("val_id", "gen-data")
    val_ood = run.load_dataset("val_ood", "gen-data")
    result = alpha_sweep(phi_lp, phi_ft, run.config.plan.alpha_grid, val_id, val_ood)
    write_alpha_table(result, run.path("alpha_sweep.tsv"), meta=run.header())
    run.path("best_alpha.json").write_text(
        json.dumps({"best_alpha": result.best_alpha}) + "\n", encoding="utf-8"
    )
    run.record("alpha_sweep.tsv", "best_alpha.json")
    print(f"sweep-alpha: best alpha {result.best_alpha:g} "
          f"(combined f1 {result.best_row.combined:.4f}) -> alpha_sweep.tsv")


def _deployed_checkpoint(run: _Run):
    """The blend the run deploys: sweep-selected if present, else config alpha."""
    best_path = run.path("best_alpha.json")
    if best_path.exists():
        alpha = run.read_json("best_alpha.json").get("best_alpha")
        if type(alpha) not in (int, float) or not 0.0 <= alpha <= 1.0:
            raise DataFormatError(
                f"{best_path}: best_alpha must be a number in [0, 1], got {alpha!r}"
            )
    else:
        alpha = run.config.alpha
    name = f"phi_alpha_{alpha:g}.ckpt"
    if run.path(name).exists():
        return load_checkpoint(run.path(name)), alpha
    phi_lp = load_checkpoint(run.require("phi_lp.ckpt", "train --stage lp"))
    phi_ft = load_checkpoint(run.require("phi_ft.ckpt", "train --stage ft"))
    return interpolate(phi_lp, phi_ft, alpha), alpha


def cmd_eval(run: _Run, args) -> None:
    model, alpha = _deployed_checkpoint(run)
    pair = evaluate_model(
        model,
        run.load_dataset("val_id", "gen-data"),
        run.load_dataset("test_id", "gen-data"),
        run.load_dataset("test_ood", "gen-data"),
    )
    lines = [f"# {run.header()} alpha {alpha:g}"]
    lines.append("split\tmacro_f1\taccuracy\tf1_ir\tf1_wr\tf1_sr\tn")
    for split, m in (("id", pair.id_metrics), ("ood", pair.ood_metrics)):
        grade_f1 = {g.name: s.f1 for g, s in m.per_grade.items()}
        lines.append(
            f"{split}\t{m.macro_f1:.4f}\t{m.accuracy:.4f}"
            f"\t{grade_f1['IR']:.4f}\t{grade_f1['WR']:.4f}\t{grade_f1['SR']:.4f}"
            f"\t{m.n}"
        )
    run.path("metrics.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    run.record("metrics.tsv")
    print("\n".join(lines[1:]))
    print("eval: -> metrics.tsv")


def cmd_hist(run: _Run, args) -> None:
    model, _ = _deployed_checkpoint(run)
    test_id = run.load_dataset("test_id", "gen-data")
    scores = predict_scores(model, test_id.embeddings.data)
    report = score_histogram(scores, test_id.grades)
    write_histogram(report, run.path("hist.tsv"))
    run.record("hist.tsv")
    print(f"hist: overlap(WR,SR) {report.overlap_wr_sr:.4f} -> hist.tsv")


def cmd_ablate(run: _Run, args) -> None:
    config = run.config
    seeds = config.trend_seeds
    tables = [run_ablation(config, seed) for seed in seeds]
    run.make_dir(run.root)
    write_ablation_tables(tables, run.path("ablation.tsv"), config)
    run.record("ablation.tsv")
    effects = [occ_effect(config, seed) for seed in seeds]
    drop = float(np.mean([e.overlap_drop for e in effects]))
    gain = float(np.mean([e.wr_mid_gain for e in effects]))
    print(f"ablate: {len(seeds)} seeds -> ablation.tsv "
          f"(calibration effect: overlap {drop:+.4f}, wr mid {gain:+.4f})")


def cmd_sweep_budget(run: _Run, args) -> None:
    config = run.config
    seeds = config.trend_seeds
    rows = {seed: budget_sweep(config, seed, config.budgets) for seed in seeds}
    run.make_dir(run.root)
    write_budget_table(rows, run.path("budget_sweep.tsv"), config)
    run.record("budget_sweep.tsv")
    print(f"sweep-budget: {len(seeds)} seeds x {len(config.budgets)} budgets "
          f"-> budget_sweep.tsv")


def cmd_pipeline(run: _Run, args) -> None:
    cmd_gen_data(run, args)
    args.stage = "pretrain"
    cmd_train(run, args)
    cmd_fit_ood(run, args)
    cmd_select(run, args)
    args.stage = "lp"
    cmd_train(run, args)
    args.stage = "ft"
    cmd_train(run, args)
    cmd_sweep_alpha(run, args)
    cmd_eval(run, args)
    cmd_hist(run, args)
    print(f"pipeline: complete in {run.root}")


_COMMANDS = {
    "gen-data": cmd_gen_data,
    "fit-ood": cmd_fit_ood,
    "select": cmd_select,
    "train": cmd_train,
    "interpolate": cmd_interpolate,
    "sweep-alpha": cmd_sweep_alpha,
    "eval": cmd_eval,
    "hist": cmd_hist,
    "ablate": cmd_ablate,
    "sweep-budget": cmd_sweep_budget,
    "pipeline": cmd_pipeline,
}


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage failures exit with code 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="darl", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"darl {__version__}")
    common = _Parser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON config file")
    common.add_argument("--seed", type=int, help="master seed override")
    common.add_argument("--run-dir", default="runs/darl", metavar="PATH",
                        help="artifact directory (default: %(default)s)")
    common.add_argument("--alpha", type=float, help="blend coefficient override")
    common.add_argument("--rho", type=float, help="calibration prior mass override")
    common.add_argument("--fpr", type=float,
                        help="selector false-positive rate override")
    common.add_argument("--print-config", action="store_true",
                        help="print the resolved config as JSON and exit")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    helps = {
        "gen-data": "generate the synthetic corpus and all data splits",
        "fit-ood": "calibrate the two selection thresholds",
        "select": "score the pool and emit the selected, oracle-labeled rows",
        "train": "run one training stage (pretrain, lp, or ft)",
        "interpolate": "blend the probe and fine-tune checkpoints",
        "sweep-alpha": "evaluate every blend coefficient on validation data",
        "eval": "metrics for the deployed blend on both test sets",
        "hist": "per-grade score histogram of the deployed blend",
        "ablate": "four-rung ablation ladder over the trend seeds",
        "sweep-budget": "ranked-versus-random augmentation budget sweep",
        "pipeline": "run every stage end to end",
    }
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=helps[name])
        if name == "train":
            p.add_argument("--stage", choices=("pretrain", "lp", "ft"),
                           required=True, help="which training stage to run")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 1
    try:
        file_values = {}
        if args.config:
            try:
                file_values = json.loads(Path(args.config).read_text(encoding="utf-8"))
            except FileNotFoundError:
                raise ConfigError("config", f"file not found: {args.config}") from None
            except (OSError, ValueError) as exc:
                raise ConfigError("config", f"cannot read {args.config} as JSON: {exc}") from None
            if not isinstance(file_values, dict):
                raise ConfigError("config", "top level must be a JSON object")
        overrides = {
            "seed": args.seed, "alpha": args.alpha,
            "rho": args.rho, "fpr": args.fpr,
        }
        config = _build_config(file_values, overrides)
        if args.print_config:
            print(canonical_json(dataclasses.asdict(config)))
            return 0
        run = _Run(args.run_dir, config)
        _COMMANDS[args.command](run, args)
        return 0
    except DarlError as exc:
        print(f"darl: error: {exc}", file=sys.stderr)
        return int(exc.exit_code)


if __name__ == "__main__":
    sys.exit(main())
