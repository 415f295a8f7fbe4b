"""Golden pins: exact artifact hashes of small CLI runs, and CLI/harness agreement.

For each selector policy (``fpr`` and ``f1``) one run directory gets a
``darl pipeline`` run of the small ``TINY_JSON`` config, then ``darl ablate``
and ``darl sweep-budget``.  Every ``manifest.json`` entry of that directory is
pinned by sha256, which covers each pipeline artifact, the resolved
``config.json``, ``ablation.tsv`` and ``budget_sweep.tsv``.  A refactor that
keeps these pins keeps the program's outputs byte for byte.

The hashes were recorded with numpy 2.4.6 and scipy-openblas 0.3.31 on
x86_64.  Another BLAS build or CPU can round differently; rerecord them
there only after the agreement and reproducibility tests pass.
"""

import json

import pytest

from test_cli import TINY_JSON
from darl.cli import main
from darl.dataset import SyntheticConfig, load_embeddings
from darl.harness import ExperimentConfig, prepare
from darl.lpft import StagePlan
from darl.ood_select import ThresholdPolicy

POLICIES = ("fpr", "f1")

GOLDEN = {
    "fpr": {
        "ablation.tsv":
            "c98eb2eb5212e2deca19414bd4a116b81e7bff6ed71835b653acb29e2eb4ee21",
        "alpha_sweep.tsv":
            "d9e10042232950c0cfa961e773747a8c8ba6437a3c795360e5856acde243e681",
        "backbone.ckpt":
            "d702520cbe334527200f68fb0012621e821cc17281b94cd4bffc9ef3c6c54d05",
        "best_alpha.json":
            "7c3cb15ba38b5051fc5c4059eebce7b03941f6cc3dca8e57aedfd4356b648dd4",
        "budget_sweep.tsv":
            "c12a2a05beb445b3cd994aec8c5893d4d17926284566280b4f4a670e0ee7a7fe",
        "config.json":
            "e054ac17a1c3567e54665bf76fbc51bd38d5813cd4be07b485cf9d8cefe04c24",
        "data/d_aug.emb":
            "dc3645b85e864fa08439baa33ba5eaef9b7840ed0f9152afe26ac321252de9b5",
        "data/d_aug.tsv":
            "4056a3c3296cb497c3d787fd5d505fe840323b0eecf1a31b1c59cd94547a82e8",
        "data/pool.emb":
            "3a7584ed5818da6df6b380fde86270594bf141aece11fac6ce0576ce52b887ef",
        "data/pool_truth.tsv":
            "5df40d74c618678b0c0b5d5e88eb37527163e326cfdc447ef25f7539386fc2dc",
        "data/select_truth.emb":
            "050f35f541a38b65f434e4a66f9cc848bc26562d54c86785858e465d10e2dbd5",
        "data/select_truth.tsv":
            "3c6bf5a856f236025dd0087ea311714d4c8f78e6ccfa2a24ee402351b3d85e98",
        "data/superset.emb":
            "2c773e0d9cf177add482a7799dc84fc1b2f66b05502bb9bd9e2d210bf42c4b86",
        "data/superset.tsv":
            "07f7b715195d82e9be3c493c2bb9835e6bfb2b79853a7abf7d22685d56018ec0",
        "data/test_id.emb":
            "d683eb4a5f8ae11fe83a0e17d0cad8f017a97e8506845d828a2eb08b6935cb31",
        "data/test_id.tsv":
            "1b3165ec86abfd360659160a32aaebc248f274203b2e87e773a38eac51821e4a",
        "data/test_ood.emb":
            "99632db3ada0cb12b87b8f3311feafd9f0dfc85f828205ae5ebf30ecc437808f",
        "data/test_ood.tsv":
            "9aeec9d396cd5d772b2019c780e821c1480cdeb7602d10269e3631d9d1524e6d",
        "data/train_id.emb":
            "703d8e3d045157bbecd96dadbcf69dbca43ab2286855f10c2a0645f751a0cab8",
        "data/train_id.tsv":
            "46a7958f698c0e9005482de3259ee07574145dd2207ce213dbcb030558cd4603",
        "data/val_id.emb":
            "8509132cf62b378dc36cc6657b01f46a12513045939a4cb8f02933496501dc6d",
        "data/val_id.tsv":
            "f7db9d96a32f8902a481197139d47dc27905afea137d36e97a05e19568531c74",
        "data/val_ood.emb":
            "a2d703571bcff92f1447aa42b8f7064a3704061a4b6872b61819adfe6afe1494",
        "data/val_ood.tsv":
            "0dfc1d4207e2d3de81467120738dcf24d68801b7a4b6abb811e274f95b961853",
        "hist.tsv":
            "4b67c8879ac4592a542a96b7795378e85e6e035e84759e25d90b6b7888411274",
        "metrics.tsv":
            "0e40b60d78100737743d56e555eb16fb1f23d29cf3ed48a4463b3b257f036605",
        "phi_ft.ckpt":
            "8968dfb7802b30f4ba69230f93779808d630de1cac634cea58a0aac8fb3486b9",
        "phi_lp.ckpt":
            "d81c80c91119e68f52820b7c1c251a86c291cab74effedf1789586f3611a4a09",
        "score_report.tsv":
            "1f55f4b414bd7a97f341704b861c748d396295b3b359d07ea27496319fbe709b",
        "thresholds.json":
            "3d06fd9fd7ad9fe070590fc1cf392a72731bf074ef7bd1200fb5c96cc8822620",
    },
    "f1": {
        "ablation.tsv":
            "7c9c76030bcfd91e17f659d32c427a5f95b8c090b42d8cb93a2010ae2a2e08c5",
        "alpha_sweep.tsv":
            "c634d004d514ecf9dbbeb42b423fb62ac89c3b4dedf1271e4a78dc5d5e79e46f",
        "backbone.ckpt":
            "d702520cbe334527200f68fb0012621e821cc17281b94cd4bffc9ef3c6c54d05",
        "best_alpha.json":
            "7c3cb15ba38b5051fc5c4059eebce7b03941f6cc3dca8e57aedfd4356b648dd4",
        "budget_sweep.tsv":
            "3c30156a0cb9745251288cd0a9e8d22c28cbb33effc4180da0ccf54fb5596f57",
        "config.json":
            "d05655519f608f4823518c34ba3d98fddf2e9ed3b4d2793574da41fa36757717",
        "data/d_aug.emb":
            "f7fdf466e79ed07a53a4db1bc5a9c9f554367da3d3a3f400befec47ca24fa397",
        "data/d_aug.tsv":
            "e9b6fabfb319e7a7bd80e86c68e2c2100c9d2e93cd28665aa199ef0a02489ae9",
        "data/pool.emb":
            "3a7584ed5818da6df6b380fde86270594bf141aece11fac6ce0576ce52b887ef",
        "data/pool_truth.tsv":
            "5df40d74c618678b0c0b5d5e88eb37527163e326cfdc447ef25f7539386fc2dc",
        "data/select_truth.emb":
            "050f35f541a38b65f434e4a66f9cc848bc26562d54c86785858e465d10e2dbd5",
        "data/select_truth.tsv":
            "3c6bf5a856f236025dd0087ea311714d4c8f78e6ccfa2a24ee402351b3d85e98",
        "data/superset.emb":
            "2c773e0d9cf177add482a7799dc84fc1b2f66b05502bb9bd9e2d210bf42c4b86",
        "data/superset.tsv":
            "07f7b715195d82e9be3c493c2bb9835e6bfb2b79853a7abf7d22685d56018ec0",
        "data/test_id.emb":
            "d683eb4a5f8ae11fe83a0e17d0cad8f017a97e8506845d828a2eb08b6935cb31",
        "data/test_id.tsv":
            "1b3165ec86abfd360659160a32aaebc248f274203b2e87e773a38eac51821e4a",
        "data/test_ood.emb":
            "99632db3ada0cb12b87b8f3311feafd9f0dfc85f828205ae5ebf30ecc437808f",
        "data/test_ood.tsv":
            "9aeec9d396cd5d772b2019c780e821c1480cdeb7602d10269e3631d9d1524e6d",
        "data/train_id.emb":
            "703d8e3d045157bbecd96dadbcf69dbca43ab2286855f10c2a0645f751a0cab8",
        "data/train_id.tsv":
            "46a7958f698c0e9005482de3259ee07574145dd2207ce213dbcb030558cd4603",
        "data/val_id.emb":
            "8509132cf62b378dc36cc6657b01f46a12513045939a4cb8f02933496501dc6d",
        "data/val_id.tsv":
            "f7db9d96a32f8902a481197139d47dc27905afea137d36e97a05e19568531c74",
        "data/val_ood.emb":
            "a2d703571bcff92f1447aa42b8f7064a3704061a4b6872b61819adfe6afe1494",
        "data/val_ood.tsv":
            "0dfc1d4207e2d3de81467120738dcf24d68801b7a4b6abb811e274f95b961853",
        "hist.tsv":
            "0de2f22fdeaca91d2c8adfe4be0d999a7342d57bd5aa9ad51d0e8b7c63669d52",
        "metrics.tsv":
            "3e356e4dbc7a02b411ffd0e10ccd55d217e5279dd607194631847240318f03d3",
        "phi_ft.ckpt":
            "f805dd83aa2ec2b455baf1f65da7b4b385850347de722bfbf733c32ae35526de",
        "phi_lp.ckpt":
            "a10f0e406deef97815a63e18db44b75f6defb48c0a0bdad0f9e3856e5c8b8601",
        "score_report.tsv":
            "180159b48dc9c54722f2941fadb48e9b5053722ab867bd376237d020b988cdf8",
        "thresholds.json":
            "087da2c8528ebc29ba6e147c930486d87b9abe671acfdeab7604e67d94824b89",
    },
}


@pytest.fixture(scope="module")
def golden_runs(tmp_path_factory):
    """Run directory per policy after pipeline, ablate and sweep-budget."""
    root = tmp_path_factory.mktemp("golden")
    runs = {}
    for mode in POLICIES:
        config = dict(TINY_JSON, policy={"mode": mode, "alpha_fpr": 0.12})
        config_path = root / f"{mode}.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        run_dir = root / mode
        for command in ("pipeline", "ablate", "sweep-budget"):
            code = main(
                [command, "--config", str(config_path), "--run-dir", str(run_dir)]
            )
            assert code == 0, command
        runs[mode] = run_dir
    return runs


def _manifest(run_dir):
    return json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("mode", POLICIES)
def test_artifact_hashes_are_pinned(golden_runs, mode):
    assert _manifest(golden_runs[mode]) == GOLDEN[mode]


@pytest.mark.parametrize("mode", POLICIES)
def test_cli_selection_agrees_with_harness(golden_runs, mode):
    run_dir = golden_runs[mode]
    resolved = json.loads((run_dir / "config.json").read_text(encoding="utf-8"))
    config = ExperimentConfig(
        corpus=SyntheticConfig(**resolved["corpus"]),
        plan=StagePlan(**resolved["plan"]),
        rho=resolved["rho"],
        policy=ThresholdPolicy(**resolved["policy"]),
        eval_fraction=resolved["eval_fraction"],
    )
    prep = prepare(config, resolved["seed"])
    thresholds = json.loads((run_dir / "thresholds.json").read_text(encoding="utf-8"))
    assert thresholds["policy"] == mode
    assert (thresholds["d1"], thresholds["d2"]) == (prep.thresholds.d1, prep.thresholds.d2)
    d_aug_ids = load_embeddings(run_dir / "data" / "d_aug.emb").ids
    assert d_aug_ids == prep.d_aug.ids
    assert len(d_aug_ids) > 0
