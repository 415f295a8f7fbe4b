"""Scorer architecture, losses, optimizer, interpolation, checkpoints."""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from darl import model
from darl.errors import (
    BadMagicError,
    CheckpointError,
    ConfigError,
    DataFormatError,
    DimensionMismatchError,
    NonFiniteValueError,
    TruncatedPayloadError,
)
from darl.model import (
    CalibrationPrior,
    ModelArch,
    ModelParams,
    StageObjective,
    adam_step,
    forward_batch,
    init_model,
    init_opt,
    interpolate,
    load_checkpoint,
    predict_scores,
    representations,
    save_checkpoint,
    trainable_slice,
)

SMALL = ModelArch(input_dims=4, hidden=(5, 3))


def small_batch(n=6, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, SMALL.input_dims))
    grades = rng.integers(0, 3, size=n)
    return x, grades


# ---------------------------------------------------------------------------
# architecture


def test_default_arch_parameter_count():
    arch = ModelArch()
    assert arch.input_dims == 32 and arch.hidden == (64, 32)
    # 32*64+64 weights+biases, 64*32+32, then a 32+1 head
    assert arch.backbone_count == (32 * 64 + 64) + (64 * 32 + 32)
    assert arch.head_count == 33
    assert arch.param_count == 4225
    assert arch.rep_dims == 32


def test_layer_shapes_cover_every_parameter():
    total = sum(i * o + o for i, o in SMALL.layer_shapes())
    assert total == SMALL.param_count == 47


def test_arch_validation():
    with pytest.raises(ConfigError):
        ModelArch(input_dims=0)
    with pytest.raises(ConfigError):
        ModelArch(hidden=())
    with pytest.raises(ConfigError):
        ModelArch(hidden=(8, 0))


def test_fingerprint_tracks_shape():
    assert ModelArch().fingerprint() != SMALL.fingerprint()
    assert len(SMALL.fingerprint()) == 64
    assert SMALL.fingerprint() == ModelArch(4, (5, 3)).fingerprint()


def test_trainable_slices_partition_the_vector():
    # the head is the tail of the vector; the hidden layers alone never train
    head = trainable_slice(SMALL, "head")
    assert head == slice(SMALL.backbone_count, SMALL.param_count)
    assert trainable_slice(SMALL, "all") == slice(0, SMALL.param_count)
    for region in ("frozen", "backbone"):
        with pytest.raises(ConfigError):
            trainable_slice(SMALL, region)


def test_params_validation():
    with pytest.raises(DimensionMismatchError):
        ModelParams(SMALL, np.zeros(46))
    with pytest.raises(NonFiniteValueError):
        ModelParams(SMALL, np.full(47, np.nan))
    params = ModelParams(SMALL, np.zeros(47))
    with pytest.raises(ValueError):
        params.values[0] = 1.0


# ---------------------------------------------------------------------------
# initialization and forward pass


def test_init_is_deterministic_and_seed_sensitive():
    a = init_model(SMALL, seed=3)
    b = init_model(SMALL, seed=3)
    c = init_model(SMALL, seed=4)
    np.testing.assert_array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_init_biases_zero_and_weights_bounded():
    params = init_model(ModelArch(9, (7,)), seed=1)
    offset = 0
    for fan_in, fan_out in params.arch.layer_shapes():
        w = params.values[offset : offset + fan_in * fan_out]
        offset += fan_in * fan_out
        b = params.values[offset : offset + fan_out]
        offset += fan_out
        assert np.all(np.abs(w) <= 1.0 / np.sqrt(fan_in))
        assert np.all(b == 0.0)


def test_forward_matches_manual_network():
    arch = ModelArch(2, (2,))
    # identity first layer, then head [1, -1] with bias 0.25
    vec = np.array([1.0, 0.0, 0.0, 1.0, 0.5, -0.5, 1.0, -1.0, 0.25])
    params = ModelParams(arch, vec)
    x = np.array([[0.3, 0.7], [-1.0, 2.0]])
    hidden = np.tanh(x + [0.5, -0.5])
    want_logits = hidden[:, 0] - hidden[:, 1] + 0.25
    np.testing.assert_allclose(forward_batch(params, x), want_logits, rtol=1e-15)
    np.testing.assert_allclose(representations(params, x), hidden, rtol=1e-15)
    want_probs = 1.0 / (1.0 + np.exp(-want_logits))
    np.testing.assert_allclose(predict_scores(params, x), want_probs, rtol=1e-12)


def test_zero_params_score_one_half():
    params = ModelParams(SMALL, np.zeros(47))
    x, _ = small_batch()
    np.testing.assert_array_equal(predict_scores(params, x), 0.5)


def test_scores_are_probabilities():
    params = init_model(SMALL, seed=5)
    x, _ = small_batch(50, seed=6)
    p = predict_scores(params, x)
    assert np.all((p > 0.0) & (p < 1.0))


def test_extreme_logits_stay_finite():
    arch = ModelArch(1, (1,))
    for bias in (500.0, -500.0):
        # saturated tanh unit feeding a huge-bias head
        params = ModelParams(arch, np.array([1.0, 0.0, 0.0, bias]))
        p = predict_scores(params, np.array([[3.0]]))
        assert np.isfinite(p).all()
        assert 0.0 <= p[0] <= 1.0


def test_representations_have_last_hidden_width():
    params = init_model(SMALL, seed=7)
    x, _ = small_batch(4)
    assert representations(params, x).shape == (4, 3)
    assert representations(init_model(ModelArch(), 0), np.zeros((2, 32))).shape == (2, 32)


@pytest.mark.parametrize("n", [1, 2, 4097, 8193, 160_001, 200_000])
def test_representations_match_one_unblocked_pass_bitwise(monkeypatch, n):
    # representations runs in fixed row blocks; no block size may change a
    # row, nor the logits forward_batch computes from them
    params = init_model(ModelArch(), seed=n)
    x = np.random.default_rng(n).standard_normal((n, 32)).astype(np.float32)
    reps, logits = representations(params, x), forward_batch(params, x)
    assert reps.dtype == np.float64
    # a cutoff that fits every row in one block
    widest = max(a * b for a, b in params.arch.layer_shapes()[:-1])
    monkeypatch.setattr(model, "_SOLO_PRODUCT_MACS", n * widest)
    assert reps.tobytes() == representations(params, x).tobytes()
    assert logits.tobytes() == forward_batch(params, x).tobytes()


def test_forward_rejects_bad_inputs():
    params = init_model(SMALL, seed=8)
    with pytest.raises(DimensionMismatchError):
        forward_batch(params, np.zeros((2, 5)))
    with pytest.raises(NonFiniteValueError):
        forward_batch(params, np.full((1, 4), np.inf))


# ---------------------------------------------------------------------------
# prior and loss


def test_prior_table_values():
    # (q0, q1) per grade value: IR, WR, SR
    q1 = CalibrationPrior(rho=0.1).positive_mass()
    assert [(1.0 - q, q) for q in q1] == [
        pytest.approx(pair, rel=1e-12) for pair in ((0.9, 0.1), (0.2, 0.8), (0.1, 0.9))
    ]


def test_prior_rho_bounds():
    CalibrationPrior(rho=1e-6)
    CalibrationPrior(rho=0.333)
    for rho in (0.0, 1.0 / 3.0, -0.2, 0.5):
        with pytest.raises(ConfigError):
            CalibrationPrior(rho=rho)


def test_ce_matches_hand_formula():
    arch = ModelArch(1, (1,))
    params = ModelParams(arch, np.array([1.0, 0.0, 2.0, 0.0]))
    x = np.array([[5.0], [-5.0]])
    logits = 2.0 * np.tanh(x[:, 0])
    grades = np.array([2, 0])  # SR -> target 1, IR -> target 0
    y = np.array([1.0, 0.0])
    want = float(np.mean(np.logaddexp(0.0, logits) - y * logits))
    got = StageObjective(params, x, grades, None)()
    assert got.ce == pytest.approx(want, rel=1e-14)
    assert got.kl == 0.0
    assert got.total == got.ce


def test_kl_zero_when_prediction_matches_prior():
    # score 0.5 against the WR prior (0.5, 0.5) at rho = 0.25
    params = ModelParams(SMALL, np.zeros(47))
    x, _ = small_batch(5)
    values = StageObjective(params, x, np.full(5, 1), CalibrationPrior(rho=0.25))()
    assert abs(values.kl) < 1e-15


def test_kl_worked_value():
    # score 0.5 vs the IR prior (0.9, 0.1): KL = ln(5/3)
    params = ModelParams(SMALL, np.zeros(47))
    x, _ = small_batch(3)
    values = StageObjective(params, x, np.zeros(3, dtype=int), CalibrationPrior(rho=0.1))()
    assert values.kl == pytest.approx(np.log(5.0 / 3.0), abs=1e-5)
    assert values.kl == pytest.approx(0.5108256, abs=1e-5)


def test_total_is_ce_plus_kl():
    params = init_model(SMALL, seed=9)
    x, grades = small_batch(12, seed=10)
    values = StageObjective(params, x, grades, CalibrationPrior(rho=0.1))()
    assert values.total == values.ce + values.kl
    assert values.kl > 0.0


def test_loss_rejects_bad_batches():
    params = init_model(SMALL, seed=11)
    with pytest.raises(DataFormatError):
        StageObjective(params, np.zeros((0, 4)), np.zeros(0, dtype=int), None)
    with pytest.raises(DataFormatError):
        StageObjective(params, np.zeros((2, 4)), np.array([0, 3]), None)
    with pytest.raises(DimensionMismatchError):
        StageObjective(params, np.zeros((2, 4)), np.array([0]), None)


@given(st.integers(0, 2**32 - 1), st.floats(0.01, 0.32))
def test_kl_is_nonnegative(seed, rho):
    rng = np.random.default_rng(seed)
    params = ModelParams(SMALL, rng.standard_normal(47))
    x = rng.standard_normal((8, 4))
    grades = rng.integers(0, 3, size=8)
    values = StageObjective(params, x, grades, CalibrationPrior(rho=float(rho)))()
    assert values.kl >= -1e-12
    assert values.total == values.ce + values.kl


# ---------------------------------------------------------------------------
# gradients


def gradient(params, x, grades, prior, trainable="all"):
    """Gradient of the mean loss over every row, from a fresh objective."""
    objective = StageObjective(params, x, grades, prior, trainable)
    objective()
    return objective.grad


def finite_difference(params, x, grades, prior, h=1e-5):
    base = params.values
    grad = np.zeros_like(base)

    def at(i, delta):
        bumped = base.copy()
        bumped[i] += delta
        return StageObjective(params.replace_values(bumped), x, grades, prior)().total

    for i in range(base.size):
        grad[i] = (at(i, h) - at(i, -h)) / (2.0 * h)
    return grad


@pytest.mark.parametrize("use_prior", [False, True])
def test_gradient_matches_finite_differences(use_prior):
    prior = CalibrationPrior(rho=0.1) if use_prior else None
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        params = ModelParams(SMALL, 0.5 * rng.standard_normal(47))
        x = rng.standard_normal((6, 4))
        grades = rng.integers(0, 3, size=6)
        grad = gradient(params, x, grades, prior)
        fd = finite_difference(params, x, grades, prior)
        np.testing.assert_allclose(grad, fd, atol=1e-7, rtol=1e-5)


def test_head_only_gradient_masks_backbone():
    params = init_model(SMALL, seed=12)
    x, grades = small_batch(8, seed=13)
    full, head = (gradient(params, x, grades, None, trainable) for trainable in ("all", "head"))
    cut = SMALL.backbone_count
    assert np.all(head[:cut] == 0.0)
    np.testing.assert_array_equal(head[cut:], full[cut:])


def test_kl_gradient_vanishes_at_the_prior():
    # prediction 0.5 equals the WR prior at rho 0.25, so the kl term
    # contributes nothing to the gradient there
    params = ModelParams(SMALL, np.zeros(47))
    x, _ = small_batch(6, seed=14)
    grades = np.full(6, 1)
    with_prior = gradient(params, x, grades, CalibrationPrior(rho=0.25))
    without = gradient(params, x, grades, None)
    np.testing.assert_allclose(with_prior, without, atol=1e-14)


@pytest.mark.parametrize("use_prior", [False, True])
def test_loss_equals_loss_and_grad_loss(use_prior):
    # a head stage's loss from its cached representations is exactly the loss
    # of a stage that runs the hidden layers per call, and writing the
    # gradient leaves a repeated call's loss unchanged
    prior = CalibrationPrior(rho=0.1) if use_prior else None
    params = init_model(SMALL, seed=27)
    x, grades = small_batch(9, seed=28)
    objective = StageObjective(params, x, grades, prior)
    first = objective()
    assert StageObjective(params, x, grades, prior, "head")() == first == objective()


def test_gradient_descent_decreases_loss():
    rng = np.random.default_rng(15)
    params = init_model(SMALL, seed=16)
    x = rng.standard_normal((32, 4))
    grades = rng.integers(0, 3, size=32)
    prev = np.inf
    for _ in range(12):
        objective = StageObjective(params, x, grades, None)
        values = objective()
        assert values.total < prev
        prev = values.total
        params = params.replace_values(params.values - 0.5 * objective.grad)


# ---------------------------------------------------------------------------
# optimizer


def test_adam_zero_gradient_keeps_params():
    values = init_model(SMALL, seed=17).values.copy()
    before = values.copy()
    opt = init_opt(SMALL, lr=1e-3)
    assert adam_step(opt, values, np.zeros(47)) is None
    np.testing.assert_array_equal(values, before)
    assert opt.step == 1


def test_adam_first_step_size_is_learning_rate():
    values = np.zeros(47)
    rng = np.random.default_rng(18)
    grad = rng.standard_normal(47)
    grad[np.abs(grad) < 1e-2] = 1e-2
    lr = 7e-4
    adam_step(init_opt(SMALL, lr=lr), values, grad)
    # first bias-corrected step moves each coordinate by ~lr against the sign
    np.testing.assert_allclose(np.abs(values), lr, rtol=1e-4)
    assert np.all(np.sign(values) == -np.sign(grad))


def test_adam_respects_trainable_slice():
    values = init_model(SMALL, seed=19).values.copy()
    before = values.copy()
    opt = init_opt(SMALL, lr=1e-2, trainable="head")
    assert opt.region == trainable_slice(SMALL, "head")
    adam_step(opt, values, np.ones(47))
    cut = SMALL.backbone_count
    np.testing.assert_array_equal(values[:cut], before[:cut])
    assert np.all(values[cut:] != before[cut:])


def test_adam_is_deterministic():
    params = init_model(SMALL, seed=20)
    x, grades = small_batch(16, seed=21)

    def run():
        opt, values = init_opt(SMALL, lr=1e-3), params.values.copy()
        objective = StageObjective(ModelParams(SMALL, values.view()), x, grades, None)
        for _ in range(5):
            objective()
            adam_step(opt, values, objective.grad)
        return values

    np.testing.assert_array_equal(run(), run())


# ---------------------------------------------------------------------------
# interpolation


def test_interpolate_endpoints_are_exact_copies():
    lp = init_model(SMALL, seed=22)
    ft = init_model(SMALL, seed=23)
    at0 = interpolate(lp, ft, 0.0)
    at1 = interpolate(lp, ft, 1.0)
    np.testing.assert_array_equal(at0.values, lp.values)
    np.testing.assert_array_equal(at1.values, ft.values)
    assert at0.values is not lp.values


def test_interpolate_midpoint_hand_values():
    arch = ModelArch(1, (1,))
    lp = ModelParams(arch, np.array([1.0, 2.0, 3.0, 4.0]))
    ft = ModelParams(arch, np.array([3.0, 6.0, 9.0, 12.0]))
    mid = interpolate(lp, ft, 0.5)
    np.testing.assert_array_equal(mid.values, [2.0, 4.0, 6.0, 8.0])


def test_interpolate_equal_inputs_is_identity():
    p = init_model(SMALL, seed=24)
    blended = interpolate(p, p, 0.37)
    np.testing.assert_allclose(blended.values, p.values, rtol=1e-12)


def test_interpolate_validation():
    lp = init_model(SMALL, seed=25)
    ft = init_model(SMALL, seed=26)
    for alpha in (-0.1, 1.1, float("nan")):
        with pytest.raises(ConfigError):
            interpolate(lp, ft, alpha)
    other = init_model(ModelArch(4, (5, 4)), seed=27)
    with pytest.raises(DimensionMismatchError):
        interpolate(lp, other, 0.5)


def test_doubling_head_doubles_logit():
    params = init_model(SMALL, seed=28)
    doubled_vec = params.values.copy()
    doubled_vec[SMALL.backbone_count :] *= 2.0
    doubled = params.replace_values(doubled_vec)
    x, _ = small_batch(5, seed=29)
    np.testing.assert_allclose(
        forward_batch(doubled, x), 2.0 * forward_batch(params, x), rtol=1e-12
    )


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip(tmp_path):
    params = init_model(SMALL, seed=30)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)
    header = 4 + 4 + (8 + 4 * len(SMALL.hidden) + 1 + 32) + 8
    assert path.stat().st_size == header + 8 * SMALL.param_count + 4
    back = load_checkpoint(path)
    assert back.arch == SMALL
    np.testing.assert_array_equal(back.values, params.values)


def _saved_blob(tmp_path) -> bytearray:
    params = init_model(SMALL, seed=32)
    path = tmp_path / "base.ckpt"
    save_checkpoint(params, path)
    return bytearray(path.read_bytes())


def test_checkpoint_crc_detects_payload_corruption(tmp_path):
    blob = _saved_blob(tmp_path)
    payload_start = 4 + 4 + (8 + 4 * len(SMALL.hidden) + 1 + 32) + 8
    blob[payload_start] ^= 0xFF
    path = tmp_path / "corrupt.ckpt"
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="CRC"):
        load_checkpoint(path)


def test_checkpoint_bad_magic(tmp_path):
    blob = _saved_blob(tmp_path)
    blob[:4] = b"XXXX"
    path = tmp_path / "magic.ckpt"
    path.write_bytes(bytes(blob))
    with pytest.raises(BadMagicError):
        load_checkpoint(path)


def test_checkpoint_unknown_version(tmp_path):
    blob = _saved_blob(tmp_path)
    blob[4:8] = struct.pack("<I", 2)
    path = tmp_path / "version.ckpt"
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_checkpoint_fingerprint_tamper(tmp_path):
    blob = _saved_blob(tmp_path)
    fp_start = 4 + 4 + 8 + 4 * len(SMALL.hidden) + 1
    blob[fp_start] ^= 0x01
    path = tmp_path / "print.ckpt"
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="fingerprint"):
        load_checkpoint(path)


def test_checkpoint_activation_tag(tmp_path):
    # every hidden layer is tanh, recorded as tag 1; any other tag is refused
    blob = _saved_blob(tmp_path)
    tag_at = 4 + 4 + 8 + 4 * len(SMALL.hidden)
    assert blob[tag_at] == 1
    assert SMALL.descriptor()["activation"] == "tanh"
    path = tmp_path / "tag.ckpt"
    for tag in (0, 2):
        blob[tag_at] = tag
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="activation tag"):
            load_checkpoint(path)


def test_checkpoint_count_mismatch(tmp_path):
    blob = _saved_blob(tmp_path)
    count_at = 4 + 4 + 8 + 4 * len(SMALL.hidden) + 1 + 32
    blob[count_at : count_at + 8] = struct.pack("<Q", 46)
    path = tmp_path / "count.ckpt"
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="parameters"):
        load_checkpoint(path)


def test_checkpoint_truncations(tmp_path):
    blob = _saved_blob(tmp_path)
    path = tmp_path / "trunc.ckpt"
    for cut in (0, 3, 20, len(blob) - 4, len(blob) - 1):
        path.write_bytes(bytes(blob[:cut]))
        with pytest.raises(TruncatedPayloadError):
            load_checkpoint(path)


def test_checkpoint_trailing_bytes(tmp_path):
    blob = _saved_blob(tmp_path)
    path = tmp_path / "trail.ckpt"
    path.write_bytes(bytes(blob) + b"\x00")
    with pytest.raises(DataFormatError, match="trailing"):
        load_checkpoint(path)
