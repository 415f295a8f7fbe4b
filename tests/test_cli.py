"""End-to-end command-line runs against a small corpus."""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darl import cli, harness, util
from darl.cli import RunConfig, main

TINY_JSON = {
    "seed": 5,
    "corpus": {
        "dims": 8,
        "id_cluster_count": 3,
        "ood_cluster_count": 2,
        "train_size": 400,
        "val_size": 200,
        "test_size": 200,
        "pool_size": 1200,
        "pretrain_size": 150,
        "pretrain_extra_clusters": 2,
    },
    "plan": {
        "pretrain_epochs": 4,
        "lp_epochs": 6,
        "ft_epochs": 3,
        "batch_size": 32,
    },
    "trend_seeds": [5, 6],
    "budgets": [0.5, 1.0],
}


@pytest.fixture(scope="module")
def tiny_config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "tiny.json"
    path.write_text(json.dumps(TINY_JSON), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def pipeline_run(tiny_config_path, tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("run") / "r1"
    code = main(
        ["pipeline", "--config", tiny_config_path, "--run-dir", str(run_dir)]
    )
    assert code == 0
    return run_dir


def tree_hashes(root: Path) -> dict:
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(
                path.read_bytes()
            ).hexdigest()
    return out


# ---------------------------------------------------------------------------
# defaults and config resolution


def test_run_defaults():
    config = RunConfig()
    assert config.alpha == 0.6
    assert config.seed == 7
    assert config.rho == 0.1
    assert config.policy.alpha_fpr == 0.12
    assert config.eval_fraction == 0.2


def test_print_config_round_trips(tiny_config_path, capsys):
    code = main(
        ["gen-data", "--config", tiny_config_path, "--seed", "9", "--print-config"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["seed"] == 9
    assert payload["corpus"]["seed"] == 9
    assert payload["plan"]["seed"] == 9
    assert payload["corpus"]["dims"] == 8
    assert payload["trend_seeds"] == [5, 6]


@pytest.mark.parametrize(
    "section",
    [{"policy": {"grid_points": 31}}, {"policy": {"mode": "f1"}}, {"plan": {"lp_epochs": 3}}],
)
def test_partial_section_keeps_run_defaults(tmp_path, capsys, section):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(section), encoding="utf-8")
    assert main(["gen-data", "--config", str(path), "--print-config"]) == 0
    payload = json.loads(capsys.readouterr().out)
    (name, given), = section.items()
    expected = json.loads(json.dumps(dataclasses.asdict(getattr(RunConfig(), name))))
    expected.update(given)
    assert payload[name] == expected


def test_print_config_is_canonical(tiny_config_path, capsys):
    main(["gen-data", "--config", tiny_config_path, "--print-config"])
    first = capsys.readouterr().out
    main(["gen-data", "--config", tiny_config_path, "--print-config"])
    assert capsys.readouterr().out == first
    assert '": ' not in first  # compact separators


# ---------------------------------------------------------------------------
# exit codes


def test_no_command_prints_help(capsys):
    assert main([]) == 1
    assert "COMMAND" in capsys.readouterr().out


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 1


def test_train_requires_stage(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["train", "--run-dir", str(tmp_path)])
    assert err.value.code == 1


def test_missing_config_file(tmp_path, capsys):
    code = main(
        ["gen-data", "--config", str(tmp_path / "nope.json"), "--run-dir", str(tmp_path)]
    )
    assert code == 2
    assert "not found" in capsys.readouterr().err


def test_invalid_config_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["gen-data", "--config", str(bad), "--run-dir", str(tmp_path)]) == 2
    assert "JSON" in capsys.readouterr().err
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"seed": 5, "note": "caf\xe9"}')
    for path in (latin1, tmp_path):  # not UTF-8; a directory
        code = main(["gen-data", "--config", str(path), "--run-dir", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert code == 2
        assert "config" in err and str(path) in err
        assert "Traceback" not in err
    assert not (tmp_path / "r").exists()


def test_unknown_config_keys(tmp_path, capsys):
    for payload in ({"bogus": 1}, {"corpus": {"bogus": 1}}):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["gen-data", "--config", str(path), "--run-dir", str(tmp_path)]) == 2
        assert "bogus" in capsys.readouterr().err


def test_invalid_rho_override(tmp_path, capsys):
    code = main(["gen-data", "--run-dir", str(tmp_path), "--rho", "0.5", "--print-config"])
    assert code == 2
    assert "rho" in capsys.readouterr().err


def test_invalid_fpr_override_names_the_section(tmp_path, capsys):
    code = main(["gen-data", "--run-dir", str(tmp_path), "--fpr", "1.5", "--print-config"])
    assert code == 2
    assert capsys.readouterr().err == "darl: error: policy.alpha_fpr: must be in [0, 1), got 1.5\n"


@pytest.mark.parametrize(
    "payload, field",
    [
        ({"eval_fraction": 1.5}, "eval_fraction"),
        ({"eval_fraction": 0}, "eval_fraction"),
        ({"corpus": {**TINY_JSON["corpus"], "pool_ood_fraction": 0}}, "pool_ood_fraction"),
        ({"seed": "x"}, "seed"),
        ({"alpha": 2}, "alpha"),
        ({"budgets": 5}, "budgets"),
        ({"plan": {"batch_size": "64"}}, "plan.batch_size"),
        ({"corpus": {"ood_shift_norm": float("nan")}}, "corpus.ood_shift_norm"),
        ({"budgets": [float("nan")]}, "budgets"),
        ({"plan": {"lp_lr": float("nan")}}, "plan.lp_lr"),
        ({"plan": {"head_boost": float("inf")}}, "plan.head_boost"),
        ({"plan": {"alpha_grid": [0.0, float("-inf")]}}, "plan.alpha_grid"),
        ({"plan": {"seed": 99}}, "plan.seed"),
        ({"plan": {"seed": 99}, "corpus": {"seed": 5}}, "corpus.seed"),
        ({"corpus": {"dims": 0}}, "corpus.dims"),
        ({"plan": {"lp_lr": -1}}, "plan.lp_lr"),
        ({"policy": {"grid_points": 1}}, "policy.grid_points"),
        ({"budgets": [0.5, 1.5]}, "budgets"),
        ({"trend_seeds": []}, "trend_seeds"),
        ({"budgets": []}, "budgets"),
    ],
    ids=[
        "eval_fraction-above-1", "eval_fraction-zero", "no-pool-ood", "seed",
        "alpha", "budgets-not-list", "batch_size-string", "shift-norm-nan",
        "budget-nan", "lp_lr-nan", "head_boost-inf", "alpha_grid-minus-inf",
        "plan-seed-differs", "corpus-seed-differs", "corpus-dims-zero",
        "plan-lp_lr-negative", "policy-grid_points-one", "budget-above-1",
        "trend_seeds-empty", "budgets-empty",
    ],
)
def test_bad_config_is_rejected_before_any_file(tmp_path, capsys, payload, field):
    path = tmp_path / "cfg.json"
    # json.dumps writes NaN and Infinity literals, which json.loads accepts
    path.write_text(json.dumps(payload), encoding="utf-8")
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    assert main(["gen-data", "--config", str(path), "--run-dir", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert field in err
    assert "Traceback" not in err
    assert list(run_dir.iterdir()) == []


_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**6), 10**6)
    | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)


def _config_strategy():
    defaults = RunConfig()
    optional = {}
    for field in dataclasses.fields(RunConfig):
        value = getattr(defaults, field.name)
        if dataclasses.is_dataclass(value):
            keys = [f.name for f in dataclasses.fields(value)]
            optional[field.name] = _JSON_VALUES | st.dictionaries(
                st.sampled_from(keys), _JSON_VALUES, max_size=3
            )
        else:
            optional[field.name] = _JSON_VALUES
    return st.fixed_dictionaries({}, optional=optional)


@settings(max_examples=200)
@given(payload=_config_strategy())
def test_any_json_config_resolves_or_exits_cleanly(tmp_path_factory, payload):
    path = tmp_path_factory.mktemp("fuzz") / "cfg.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        # main catches DarlError only, so any other exception fails the test
        code = main(["gen-data", "--config", str(path), "--print-config"])
    assert code in (0, 2)
    if code == 0:
        # a resolved config is strict JSON: no NaN or Infinity got through
        json.loads(out.getvalue(), parse_constant=pytest.fail)


@pytest.mark.parametrize("seed", [None, 9], ids=["as-written", "seed-override"])
def test_written_config_replays(pipeline_run, capsys, seed):
    config = pipeline_run / "config.json"
    flags = [] if seed is None else ["--seed", str(seed)]
    assert main(["gen-data", "--config", str(config), *flags, "--print-config"]) == 0
    out = capsys.readouterr().out
    if seed is None:
        assert out == config.read_text(encoding="utf-8")
    else:
        payload = json.loads(out)
        assert payload["seed"] == payload["corpus"]["seed"] == payload["plan"]["seed"] == seed


def test_select_before_fit_ood(tmp_path, capsys):
    code = main(["select", "--run-dir", str(tmp_path / "empty")])
    assert code == 1
    err = capsys.readouterr().err
    assert "fit-ood" in err
    assert "missing artifact" in err


# ---------------------------------------------------------------------------
# pipeline artifacts


EXPECTED_ARTIFACTS = (
    "config.json",
    "manifest.json",
    "backbone.ckpt",
    "phi_lp.ckpt",
    "phi_ft.ckpt",
    "thresholds.json",
    "score_report.tsv",
    "alpha_sweep.tsv",
    "best_alpha.json",
    "metrics.tsv",
    "hist.tsv",
    "data/train_id.emb",
    "data/train_id.tsv",
    "data/val_id.emb",
    "data/test_id.emb",
    "data/superset.emb",
    "data/pool.emb",
    "data/pool_truth.tsv",
    "data/select_truth.emb",
    "data/val_ood.emb",
    "data/test_ood.emb",
)


def test_pipeline_products_exist(pipeline_run):
    for name in EXPECTED_ARTIFACTS:
        assert (pipeline_run / name).is_file(), name
    assert not list(pipeline_run.rglob("*.tmp"))


def test_manifest_hashes_match_files(pipeline_run):
    manifest = json.loads((pipeline_run / "manifest.json").read_text(encoding="utf-8"))
    assert "config.json" in manifest and "metrics.tsv" in manifest
    for name, digest in manifest.items():
        path = pipeline_run / name
        assert path.is_file(), name
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, name


def test_metrics_table_has_both_splits(pipeline_run):
    lines = (pipeline_run / "metrics.tsv").read_text(encoding="utf-8").splitlines()
    assert lines[1] == "split\tmacro_f1\taccuracy\tf1_ir\tf1_wr\tf1_sr\tn"
    splits = [ln.split("\t")[0] for ln in lines[2:]]
    assert splits == ["id", "ood"]
    for ln in lines[2:]:
        fields = ln.split("\t")
        assert len(fields) == 7
        assert 0.0 <= float(fields[1]) <= 1.0


def test_best_alpha_lands_on_the_grid(pipeline_run):
    payload = json.loads((pipeline_run / "best_alpha.json").read_text(encoding="utf-8"))
    assert payload["best_alpha"] in [round(0.1 * i, 1) for i in range(11)]


def test_pipeline_is_bitwise_reproducible(tiny_config_path, pipeline_run, tmp_path):
    second = tmp_path / "r2"
    code = main(["pipeline", "--config", tiny_config_path, "--run-dir", str(second)])
    assert code == 0
    assert tree_hashes(pipeline_run) == tree_hashes(second)


def test_interpolate_endpoints_reproduce_stage_checkpoints(
    tiny_config_path, pipeline_run
):
    for alpha, stage_file in (("0", "phi_lp.ckpt"), ("1", "phi_ft.ckpt")):
        code = main(
            [
                "interpolate",
                "--config", tiny_config_path,
                "--run-dir", str(pipeline_run),
                "--alpha", alpha,
            ]
        )
        assert code == 0
        blended = (pipeline_run / f"phi_alpha_{alpha}.ckpt").read_bytes()
        assert blended == (pipeline_run / stage_file).read_bytes()


@pytest.mark.parametrize(
    "name, text",
    [
        ("best_alpha.json", '{"alpha": 0.5}'),
        ("best_alpha.json", '{"best_alpha": "x"}'),
        ("best_alpha.json", '{"best_alpha": 1.5}'),
        ("best_alpha.json", "[1]"),
        ("best_alpha.json", '{"best_alpha": 0.'),
        ("manifest.json", '{"config.json": "ab'),
        ("manifest.json", "[]"),
    ],
    ids=[
        "alpha-key-missing", "alpha-string", "alpha-out-of-range", "alpha-list",
        "alpha-truncated", "manifest-truncated", "manifest-list",
    ],
)
def test_corrupt_run_json_names_the_file(
    tiny_config_path, pipeline_run, tmp_path, capsys, name, text
):
    run_dir = tmp_path / "run"
    shutil.copytree(pipeline_run, run_dir)
    (run_dir / name).write_text(text, encoding="utf-8")
    code = main(["eval", "--config", tiny_config_path, "--run-dir", str(run_dir)])
    err = capsys.readouterr().err
    assert code == 2
    assert name in err
    assert "Traceback" not in err
    assert "config is not valid JSON" not in err


@pytest.mark.parametrize(
    "command, name",
    [("select", "thresholds.json"), ("eval", "data/test_id.tsv")],
    ids=["thresholds", "labels"],
)
def test_non_utf8_run_file_names_the_file(
    tiny_config_path, pipeline_run, tmp_path, capsys, command, name
):
    run_dir = tmp_path / "run"
    shutil.copytree(pipeline_run, run_dir)
    path = run_dir / name
    path.write_bytes(b"\xff\xfe" + path.read_bytes())
    code = main([command, "--config", tiny_config_path, "--run-dir", str(run_dir)])
    err = capsys.readouterr().err
    assert code == 2
    assert name in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, name",
    [("select", "thresholds.json"), ("eval", "data/test_id.tsv"), ("eval", "best_alpha.json")],
    ids=["thresholds", "labels", "best-alpha"],
)
def test_directory_in_place_of_an_artifact_is_missing(
    tiny_config_path, pipeline_run, tmp_path, capsys, command, name
):
    run_dir = tmp_path / "run"
    shutil.copytree(pipeline_run, run_dir)
    path = run_dir / name
    path.unlink()
    path.mkdir()
    code = main([command, "--config", tiny_config_path, "--run-dir", str(run_dir)])
    err = capsys.readouterr().err
    assert code == 1
    assert str(path) in err
    assert "missing artifact" in err
    assert "Traceback" not in err


def _replaced(blob: bytes, **fields) -> bytes:
    """A JSON artifact with some fields set to other values."""
    return json.dumps({**json.loads(blob), **fields}).encode()


@pytest.mark.parametrize(
    "argv, name, corrupt",
    [
        (["sweep-alpha"], "phi_lp.ckpt", lambda blob: blob[:2]),
        (["eval"], "phi_ft.ckpt", lambda blob: blob[:-1] + bytes([blob[-1] ^ 1])),
        (["train", "--stage", "lp"], "data/train_id.emb", lambda blob: blob[:20]),
        (["eval"], "phi_ft.ckpt", lambda blob: b"XXXX" + blob[4:]),
        (["fit-ood"], "data/train_id.emb", lambda blob: b"XXXX" + blob[4:]),
        (["eval"], "data/test_id.tsv", lambda blob: b"x" + blob),
        (["eval"], "data/test_id.tsv", lambda blob: blob + b"\xff"),
        (["select"], "thresholds.json", lambda blob: blob[:-3]),
        (["select"], "thresholds.json", lambda blob: b"{}"),
        (["select"], "thresholds.json", lambda blob: _replaced(blob, d1=True)),
        (["select"], "thresholds.json", lambda blob: _replaced(blob, d2="0.5")),
        (["select"], "thresholds.json", lambda blob: _replaced(blob, alpha_fpr="0.12")),
        (["select"], "thresholds.json", lambda blob: _replaced(blob, policy=7)),
        (["select"], "thresholds.json", lambda blob: _replaced(blob, policy="bogus")),
    ],
    ids=[
        "checkpoint-2-bytes", "checkpoint-crc-bit", "embeddings-20-bytes",
        "checkpoint-magic", "embeddings-magic", "labels-header", "labels-not-utf8",
        "thresholds-json", "thresholds-fields", "thresholds-bool-d1", "thresholds-text-d2",
        "thresholds-text-alpha", "thresholds-number-policy", "thresholds-unknown-policy",
    ],
)
def test_load_error_names_the_file(
    tiny_config_path, pipeline_run, tmp_path, capsys, argv, name, corrupt
):
    run_dir = tmp_path / "run"
    shutil.copytree(pipeline_run, run_dir)
    path = run_dir / name
    path.write_bytes(corrupt(path.read_bytes()))
    code = main([*argv, "--config", tiny_config_path, "--run-dir", str(run_dir)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count(str(path)) == 1
    assert "Traceback" not in err


def test_label_rows_out_of_embedding_order_name_the_line(
    tiny_config_path, pipeline_run, tmp_path, capsys
):
    run_dir = tmp_path / "run"
    shutil.copytree(pipeline_run, run_dir)
    path = run_dir / "data" / "select_truth.tsv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[1], lines[2] = lines[2], lines[1]
    path.write_text("".join(lines), encoding="utf-8")
    code = main(["select", "--config", tiny_config_path, "--run-dir", str(run_dir)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{path}: line 2: id " in err
    assert "out of order" in err
    assert "Traceback" not in err


def test_interrupted_write_keeps_the_old_artifact(
    tiny_config_path, pipeline_run, tmp_path, monkeypatch
):
    run_dir = tmp_path / "run"
    shutil.copytree(pipeline_run, run_dir)
    before = (run_dir / "hist.tsv").read_bytes()

    def half_written(report, path):
        Path(path).write_bytes(before[: len(before) // 2])
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "write_histogram", half_written)
    with pytest.raises(KeyboardInterrupt):
        main(["hist", "--config", tiny_config_path, "--run-dir", str(run_dir)])
    assert (run_dir / "hist.tsv").read_bytes() == before
    assert not list(run_dir.rglob("*.tmp"))


def test_run_dir_that_is_a_file_is_named(tiny_config_path, tmp_path, capsys):
    not_a_dir = tmp_path / "run"
    not_a_dir.write_text("", encoding="utf-8")
    code = main(["gen-data", "--config", tiny_config_path, "--run-dir", str(not_a_dir)])
    err = capsys.readouterr().err
    assert code == 1
    assert str(not_a_dir) in err
    assert "Traceback" not in err


def test_interrupted_record_keeps_the_old_manifest(
    tiny_config_path, pipeline_run, tmp_path, monkeypatch
):
    run_dir = tmp_path / "run"
    shutil.copytree(pipeline_run, run_dir)
    before = (run_dir / "manifest.json").read_bytes()

    def interrupted(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr(os, "replace", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["hist", "--config", tiny_config_path, "--run-dir", str(run_dir)])
    assert (run_dir / "manifest.json").read_bytes() == before


def test_eval_redeploys_after_interpolate(tiny_config_path, pipeline_run, capsys):
    # eval prefers the sweep-selected blend recorded in best_alpha.json
    code = main(
        ["eval", "--config", tiny_config_path, "--run-dir", str(pipeline_run)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "metrics.tsv" in out


# ---------------------------------------------------------------------------
# experiment table commands


@pytest.mark.slow
def test_cli_ablate_writes_table(tiny_config_path, pipeline_run, capsys):
    code = main(
        ["ablate", "--config", tiny_config_path, "--run-dir", str(pipeline_run)]
    )
    assert code == 0
    lines = (pipeline_run / "ablation.tsv").read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# darl ")
    assert "seeds 5,6" in lines[0]
    assert lines[1].startswith("seed\trung\tlabel")
    assert sum(1 for ln in lines if ln.startswith("mean\t")) == 4


def test_a_stage_diverging_in_a_worker_exits_3(tmp_path, capsys, monkeypatch):
    # rung 4's probe (lp_lr) trains in a forked worker beside rungs 1-3
    monkeypatch.setattr(util, "available_cpus", lambda: 2)
    config = {**TINY_JSON, "plan": {**TINY_JSON["plan"], "lp_lr": 1e307}, "trend_seeds": [5]}
    path = tmp_path / "diverge.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    with np.errstate(all="ignore"):
        code = main(["ablate", "--config", str(path), "--run-dir", str(tmp_path / "run")])
    assert code == 3
    assert capsys.readouterr().err == "darl: error: non-finite model parameter\n"


def test_a_worker_dying_during_ablate_exits_1(tmp_path, capsys, monkeypatch):
    parent = os.getpid()

    def dying_probe(*args):
        assert os.getpid() != parent, "the probe ran in the test process"
        os._exit(9)

    # rung 4's probe trains in a forked worker beside rungs 1-3
    monkeypatch.setattr(util, "available_cpus", lambda: 2)
    monkeypatch.setattr(harness, "ladder_models", harness.ladder_models.__wrapped__)
    monkeypatch.setattr(harness, "linear_probe", dying_probe)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**TINY_JSON, "trend_seeds": [5]}), encoding="utf-8")
    code = main(["ablate", "--config", str(path), "--run-dir", str(tmp_path / "run")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("darl: error: ")
    assert "Traceback" not in err


def test_sweep_budget_rejects_a_budget_above_one(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**TINY_JSON, "budgets": [1.5]}), encoding="utf-8")
    code = main(["sweep-budget", "--config", str(path), "--run-dir", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("darl: error: budgets:")
    assert "Traceback" not in err


@pytest.mark.slow
def test_cli_budget_sweep_writes_table(tiny_config_path, pipeline_run):
    code = main(
        ["sweep-budget", "--config", tiny_config_path, "--run-dir", str(pipeline_run)]
    )
    assert code == 0
    lines = (pipeline_run / "budget_sweep.tsv").read_text(encoding="utf-8").splitlines()
    assert lines[1] == "seed\tbudget\tstrategy\tn_aug\tf1_id\tf1_ood"
    budgets = {ln.split("\t")[1] for ln in lines[2:]}
    assert budgets == {"0.5", "1"}
