"""Command-line pipeline: every stage as a subcommand over one run directory.

A run directory accumulates the artifacts of a single configuration: data
files under ``data/``, checkpoints and tables at the top level, a resolved
``config.json``, and a ``manifest.json`` mapping every artifact to its
content hash.  ``_PRODUCERS`` names the subcommand that writes each
artifact.  A subcommand whose prerequisite is missing names that producer,
a load that fails names the file, and every artifact is written to a
``.tmp`` file and renamed into place.  Given identical config and seed,
every subcommand is deterministic down to the byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
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
    load_embeddings,
    load_labels,
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
    alpha_sweep,
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
    write_alpha_table,
    write_budget_table,
)
from .lpft import full_finetune, linear_probe, pretrain_backbone
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
from .util import bounded, canonical_json, sha256_file


@dataclass(frozen=True)
class RunConfig(ExperimentConfig):
    """Fully resolved run settings: the experiment plus the run-level fields.

    Precedence: built-in defaults, then the ``--config`` JSON file, then
    individual flags.  The resolved result is written into the run
    directory so any run can be replayed from one file.
    """

    seed: int = 7
    alpha: float = bounded(0.6, "[0, 1]")
    budgets: tuple[float, ...] = bounded(DEFAULT_BUDGETS, "[0, 1]", nonempty=True)
    trend_seeds: tuple[int, ...] = bounded(TREND_SEEDS, "(-inf, inf)", nonempty=True)


def _section(name: str, section, values: dict):
    """``section`` with ``values`` replaced; an error names ``name.field``."""
    try:
        return dataclasses.replace(section, **values)
    except ConfigError as exc:
        raise ConfigError(f"{name}.{exc.field}", exc.message) from None


def _build_config(file_values: dict, overrides: dict) -> RunConfig:
    """Merge defaults, config-file values, and flag overrides.

    A section given in the file starts from the run default of that
    section, so keys it leaves out keep their run defaults.  The top-level
    seed drives every section, so a section seed must repeat it.
    """
    defaults = RunConfig()
    known = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = set(file_values) - known
    if unknown:
        raise ConfigError(sorted(unknown)[0], "unknown config key")
    kwargs = dict(file_values)
    for name, value in file_values.items():
        default = getattr(defaults, name)
        if dataclasses.is_dataclass(default):
            if not isinstance(value, dict):
                raise ConfigError(name, "must be a JSON object")
            bad = set(value) - {f.name for f in dataclasses.fields(default)}
            if bad:
                raise ConfigError(f"{name}.{sorted(bad)[0]}", "unknown config key")
            kwargs[name] = _section(name, default, value)
    config = RunConfig(**kwargs)
    for name in ("corpus", "plan"):
        nested = file_values.get(name, {}).get("seed", config.seed)
        if nested != config.seed:
            raise ConfigError(
                f"{name}.seed", f"is {nested}, but the top-level seed is {config.seed}"
            )
    seed = config.seed if overrides.get("seed") is None else overrides["seed"]
    config = dataclasses.replace(config.for_seed(seed), seed=seed)
    if overrides.get("rho") is not None:
        config = dataclasses.replace(config, rho=overrides["rho"])
    if overrides.get("fpr") is not None:
        policy = _section("policy", config.policy, {"alpha_fpr": overrides["fpr"]})
        config = dataclasses.replace(config, policy=policy)
    if overrides.get("alpha") is not None:
        config = dataclasses.replace(config, alpha=overrides["alpha"])
    return config


# artifact (or data/ stem) -> the subcommand that writes it; `darl pipeline`
# runs these subcommands in this order
_PRODUCERS = {
    **dict.fromkeys(("config.json", "train_id", "val_id", "test_id", "superset", "pool",
                     "pool_truth", "select_truth", "val_ood", "test_ood"), "gen-data"),
    "backbone.ckpt": "train --stage pretrain",
    "thresholds.json": "fit-ood",
    **dict.fromkeys(("score_report.tsv", "d_aug"), "select"),
    "phi_lp.ckpt": "train --stage lp",
    "phi_ft.ckpt": "train --stage ft",
    **dict.fromkeys(("alpha_sweep.tsv", "best_alpha.json"), "sweep-alpha"),
    "metrics.tsv": "eval",
    "hist.tsv": "hist",
}


def _json_object(path: Path) -> dict:
    value = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(value, dict):
        raise DataFormatError("must hold a JSON object")
    return value


def _best_alpha(path: Path) -> float:
    alpha = _json_object(path).get("best_alpha")
    if type(alpha) not in (int, float) or not 0.0 <= alpha <= 1.0:
        raise DataFormatError(f"best_alpha must be a number in [0, 1], got {alpha!r}")
    return alpha


class _Run:
    """One run directory: checked artifact loads, atomic saves, the manifest."""

    def __init__(self, run_dir: str | Path, config: RunConfig):
        self.root = Path(run_dir)
        self.config = config

    def path(self, name: str) -> Path:
        return self.root / name

    def load(self, name: str, read):
        """``read(path)`` of an artifact that a listed producer wrote.

        Anything but a regular file is missing (exit 1, naming the
        producer); a failed read names the file (exit 2).
        """
        path = self.path(name)
        if not path.is_file():
            producer = _PRODUCERS.get(name) or _PRODUCERS[Path(name).stem]
            raise MissingArtifactError(path, producer)
        return self._read(path, read)

    @staticmethod
    def _read(path: Path, read):
        try:
            return read(path)
        except (DarlError, ValueError, OSError) as exc:
            raise DataFormatError(f"{path}: {exc}") from exc

    def save(self, name: str, write, obj, *extra) -> None:
        """``write(obj, path, *extra)`` through ``name.tmp`` + rename, then record."""
        path = self.path(name)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise RunDirError(f"cannot create run directory {path.parent}: {exc}") from exc
        self._replace(path, write, obj, *extra)
        manifest_path = self.path("manifest.json")
        manifest = self._read(manifest_path, _json_object) if manifest_path.exists() else {}
        manifest[name] = sha256_file(path)
        text = json.dumps(manifest, sort_keys=True, indent=2) + "\n"
        self._replace(manifest_path, self.text_file, text)

    @staticmethod
    def _replace(path: Path, write, obj, *extra) -> None:
        partial = path.with_name(path.name + ".tmp")
        try:
            write(obj, partial, *extra)
            os.replace(partial, path)
        finally:
            partial.unlink(missing_ok=True)

    @staticmethod
    def text_file(text: str, path: Path) -> None:
        path.write_text(text, encoding="utf-8")

    def save_dataset(self, stem: str, dataset: LabeledDataset, rows=None) -> None:
        """Write ``dataset``'s rows at ``rows`` (default: all) as ``data/stem.*``."""
        self.save(f"data/{stem}.emb", write_embeddings, dataset.embeddings, rows)
        self.save(f"data/{stem}.tsv", write_labels, dataset, rows)

    def load_dataset(self, stem: str) -> LabeledDataset:
        matrix = self.load(f"data/{stem}.emb", load_embeddings)
        return self.load(f"data/{stem}.tsv", lambda path: load_labels(path, matrix))

    def header(self) -> str:
        return table_header(self.config, [self.config.seed])


def _representation_setup(run: _Run):
    """Backbone, ID statistics, and neighbor index shared by fit/select."""
    backbone = run.load("backbone.ckpt", load_checkpoint)
    return (backbone, *fit_space(backbone, run.load_dataset("train_id")))


def cmd_gen_data(run: _Run, args) -> None:
    """Generate the synthetic corpus and all data splits."""
    config = run.config
    corpus = generate_synthetic(config.corpus)
    pool = corpus.pool_truth
    # split before anything is written, so a pool that cannot feed the
    # shifted evaluation sets leaves no run directory behind; the splits are
    # written straight from the pool, which is never held twice
    splits = split_pool(pool, config.eval_fraction, config.seed)
    superset = generate_pretrain_superset(config.corpus)
    run.save("config.json", run.text_file, canonical_json(dataclasses.asdict(config)) + "\n")
    run.save_dataset("train_id", corpus.train_id)
    run.save_dataset("val_id", corpus.val_id)
    run.save_dataset("test_id", corpus.test_id)
    run.save_dataset("superset", superset)
    run.save("data/pool.emb", write_embeddings, pool.embeddings)
    run.save("data/pool_truth.tsv", write_labels, pool)
    for stem, rows in zip(("select_truth", "val_ood", "test_ood"), splits):
        run.save_dataset(stem, pool, rows)
    print(f"gen-data: wrote corpus (pool {pool.rows} rows, eval split "
          f"{pool.rows - len(splits[0])}) to {run.path('data')}")


def cmd_train(run: _Run, args) -> None:
    """Run one training stage (pretrain, lp, or ft)."""
    plan = run.config.plan
    if args.stage == "pretrain":
        theta, trace = pretrain_backbone(run.load_dataset("superset"), plan)
        run.save("backbone.ckpt", save_checkpoint, theta)
        print(f"pretrain: {len(trace)} epochs, "
              f"final loss {trace[-1].total:.4f} -> backbone.ckpt")
        return
    data = run.load_dataset("train_id")
    if run.path("data/d_aug.emb").exists():
        data = merge_datasets(data, run.load_dataset("d_aug"))
    start, train = {"lp": ("backbone.ckpt", linear_probe),
                    "ft": ("phi_lp.ckpt", full_finetune)}[args.stage]
    model, trace = train(run.load(start, load_checkpoint), data, run.config.prior(), plan)
    name = f"phi_{args.stage}.ckpt"
    run.save(name, save_checkpoint, model)
    final = trace[-1].total if trace else float("nan")
    print(f"{args.stage}: {len(trace)} epochs on {data.rows} rows, "
          f"final loss {final:.4f} -> {name}")


def cmd_fit_ood(run: _Run, args) -> None:
    """Calibrate the two selection thresholds."""
    backbone, stats, index = _representation_setup(run)
    policy = run.config.policy
    val_id, val_ood = run.load_dataset("val_id"), run.load_dataset("val_ood")
    thresholds = calibrate(backbone, stats, index, val_id, val_ood, policy)
    run.save("thresholds.json", save_thresholds, thresholds)
    print(f"fit-ood: policy {policy.mode} -> d1 {thresholds.d1:.6g} "
          f"d2 {thresholds.d2:.6g} -> thresholds.json")


def cmd_select(run: _Run, args) -> None:
    """Score the pool and emit the selected, oracle-labeled rows."""
    thresholds = run.load("thresholds.json", load_thresholds)
    backbone, stats, index = _representation_setup(run)
    select_truth = run.load_dataset("select_truth")
    report, d_aug = select_rows(backbone, stats, index, thresholds, select_truth)
    run.save("score_report.tsv", write_score_report, report)
    run.save_dataset("d_aug", d_aug)
    n_ood = int(np.count_nonzero(d_aug.origin == int(Origin.OOD)))
    print(f"select: {d_aug.rows} of {select_truth.rows} rows selected "
          f"({n_ood} true shifted) -> score_report.tsv, data/d_aug.*")


def _stage_checkpoints(run: _Run):
    return run.load("phi_lp.ckpt", load_checkpoint), run.load("phi_ft.ckpt", load_checkpoint)


def _blend(run: _Run, alpha: float):
    return interpolate(*_stage_checkpoints(run), alpha)


def cmd_interpolate(run: _Run, args) -> None:
    """Blend the probe and fine-tune checkpoints."""
    alpha = run.config.alpha
    name = f"phi_alpha_{alpha:g}.ckpt"
    run.save(name, save_checkpoint, _blend(run, alpha))
    print(f"interpolate: alpha {alpha:g} -> {name}")


def cmd_sweep_alpha(run: _Run, args) -> None:
    """Evaluate every blend coefficient on validation data."""
    phi_lp, phi_ft = _stage_checkpoints(run)
    val_id, val_ood = run.load_dataset("val_id"), run.load_dataset("val_ood")
    result = alpha_sweep(phi_lp, phi_ft, run.config.plan.alpha_grid, val_id, val_ood)
    run.save("alpha_sweep.tsv", write_alpha_table, result, run.header())
    text = json.dumps({"best_alpha": result.best_alpha}) + "\n"
    run.save("best_alpha.json", run.text_file, text)
    print(f"sweep-alpha: best alpha {result.best_alpha:g} "
          f"(combined f1 {result.best_row.combined:.4f}) -> alpha_sweep.tsv")


def _deployed_checkpoint(run: _Run):
    """The blend the run deploys: sweep-selected if present, else config alpha."""
    alpha = run.config.alpha
    if run.path("best_alpha.json").exists():
        alpha = run.load("best_alpha.json", _best_alpha)
    return _blend(run, alpha), alpha


def cmd_eval(run: _Run, args) -> None:
    """Metrics for the deployed blend on both test sets."""
    model, alpha = _deployed_checkpoint(run)
    pair = evaluate_model(
        model,
        run.load_dataset("val_id"),
        run.load_dataset("test_id"),
        run.load_dataset("test_ood"),
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
    run.save("metrics.tsv", run.text_file, "\n".join(lines) + "\n")
    print("\n".join(lines[1:]))
    print("eval: -> metrics.tsv")


def cmd_hist(run: _Run, args) -> None:
    """Per-grade score histogram of the deployed blend."""
    model, _ = _deployed_checkpoint(run)
    test_id = run.load_dataset("test_id")
    scores = predict_scores(model, test_id.embeddings.data)
    report = score_histogram(scores, test_id.grades)
    run.save("hist.tsv", write_histogram, report)
    print(f"hist: overlap(WR,SR) {report.overlap_wr_sr:.4f} -> hist.tsv")


def cmd_ablate(run: _Run, args) -> None:
    """Four-rung ablation ladder over the trend seeds."""
    config = run.config
    seeds = config.trend_seeds
    tables = [run_ablation(config, seed) for seed in seeds]
    run.save("ablation.tsv", write_ablation_tables, tables, config)
    effects = [occ_effect(config, seed) for seed in seeds]
    drop = float(np.mean([e.overlap_drop for e in effects]))
    gain = float(np.mean([e.wr_mid_gain for e in effects]))
    print(f"ablate: {len(seeds)} seeds -> ablation.tsv "
          f"(calibration effect: overlap {drop:+.4f}, wr mid {gain:+.4f})")


def cmd_sweep_budget(run: _Run, args) -> None:
    """Ranked-versus-random augmentation budget sweep."""
    config = run.config
    seeds = config.trend_seeds
    rows = {seed: budget_sweep(config, seed, config.budgets) for seed in seeds}
    run.save("budget_sweep.tsv", write_budget_table, rows, config)
    print(f"sweep-budget: {len(seeds)} seeds x {len(config.budgets)} budgets "
          f"-> budget_sweep.tsv")


def cmd_pipeline(run: _Run, args) -> None:
    """Run every stage end to end."""
    for producer in dict.fromkeys(_PRODUCERS.values()):
        command, _, stage = producer.partition(" --stage ")
        _COMMANDS[command](run, argparse.Namespace(stage=stage))
    print(f"pipeline: complete in {run.root}")


# subcommand name -> function: cmd_sweep_alpha is `sweep-alpha`
_COMMANDS = {
    fn.__name__[4:].replace("_", "-"): fn
    for fn in (cmd_gen_data, cmd_fit_ood, cmd_select, cmd_train, cmd_interpolate,
               cmd_sweep_alpha, cmd_eval, cmd_hist, cmd_ablate, cmd_sweep_budget,
               cmd_pipeline)
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
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=fn.__doc__)
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
