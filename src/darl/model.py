"""Small feedforward relevance scorer trained from scratch in numpy.

The model maps an embedding to a single relevance logit through a stack of
tanh hidden layers.  The penultimate activation doubles as the representation
used for distribution-aware sample selection.  Everything is kept in one flat
float64 parameter vector so checkpoints, interpolation, and partial-freeze
training stay trivial to reason about.
"""

from __future__ import annotations

import functools
import hashlib
import struct
import zlib
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    BadMagicError,
    CheckpointError,
    ConfigError,
    DataFormatError,
    DimensionMismatchError,
    DivergenceError,
    NonFiniteValueError,
    TruncatedPayloadError,
)
from .util import bounded, canonical_json, check_config, finite_rows, row_blocks, sub_rng

CHECKPOINT_MAGIC = b"DARL"
CHECKPOINT_VERSION = 1

# every hidden layer is tanh; checkpoints record it as activation tag 1
ACTIVATION = "tanh"
_ACTIVATION_TAG = 1

# Hard cross-entropy target per grade: irrelevant maps to 0, both weak and
# strong relevance map to the positive side; the KL prior separates the two.
_BINARY_TARGET = np.array([0.0, 1.0, 1.0], dtype=np.float64)

# Adam moment decay rates and denominator floor
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8

# multiply-adds up to which an OpenBLAS 0.3 matrix product stays on the
# calling thread (it woke a second thread between 0.98 and 1.02 million on
# a 2-core Haswell build); half of that leaves a margin
_SOLO_PRODUCT_MACS = 1 << 19


@dataclass(frozen=True)
class ModelArch:
    """Shape of the scorer: input width and hidden widths."""

    input_dims: int = bounded(32, "[1, inf)")
    hidden: tuple[int, ...] = bounded((64, 32), "[1, inf)", nonempty=True)

    def __post_init__(self) -> None:
        check_config(self)

    @property
    def rep_dims(self) -> int:
        """Width of the representation (last hidden layer)."""
        return self.hidden[-1]

    def layer_shapes(self) -> list[tuple[int, int]]:
        """(fan_in, fan_out) per layer, hidden layers first, head last."""
        widths = (self.input_dims, *self.hidden)
        shapes = [(widths[i], widths[i + 1]) for i in range(len(self.hidden))]
        shapes.append((self.rep_dims, 1))
        return shapes

    @functools.cached_property
    def backbone_count(self) -> int:
        shapes = self.layer_shapes()[:-1]
        return sum(fan_in * fan_out + fan_out for fan_in, fan_out in shapes)

    @property
    def head_count(self) -> int:
        return self.rep_dims + 1

    @functools.cached_property
    def param_count(self) -> int:
        return self.backbone_count + self.head_count

    def descriptor(self) -> dict:
        return {
            "activation": ACTIVATION,
            "hidden": list(self.hidden),
            "input_dims": self.input_dims,
        }

    def fingerprint(self) -> str:
        digest = hashlib.sha256(canonical_json(self.descriptor()).encode("utf-8"))
        return digest.hexdigest()


@dataclass(frozen=True)
class ModelParams:
    """Flat float64 parameter vector partitioned into backbone and head."""

    arch: ModelArch
    values: np.ndarray

    def __post_init__(self) -> None:
        vec = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if vec.ndim != 1 or vec.size != self.arch.param_count:
            raise DimensionMismatchError(
                f"parameter vector has {vec.size} values, arch needs "
                f"{self.arch.param_count}"
            )
        if not np.all(np.isfinite(vec)):
            raise NonFiniteValueError("non-finite model parameter")
        vec.flags.writeable = False
        object.__setattr__(self, "values", vec)

    @property
    def backbone(self) -> np.ndarray:
        return self.values[: self.arch.backbone_count]

    def replace_values(self, values: np.ndarray) -> "ModelParams":
        return ModelParams(self.arch, values)


def trainable_slice(arch: ModelArch, trainable: str) -> slice:
    """Region of the flat vector a stage trains: ``"head"`` or ``"all"``."""
    if trainable == "head":
        return slice(arch.backbone_count, arch.param_count)
    if trainable == "all":
        return slice(0, arch.param_count)
    raise ConfigError("trainable", f"must be 'head' or 'all', got {trainable!r}")


def _layer_views(arch: ModelArch, vec: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Reshape the flat vector into per-layer (weights, bias) views."""
    views = []
    offset = 0
    for fan_in, fan_out in arch.layer_shapes():
        w = vec[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out)
        offset += fan_in * fan_out
        b = vec[offset : offset + fan_out]
        offset += fan_out
        views.append((w, b))
    return views


def init_model(arch: ModelArch, seed: int) -> ModelParams:
    """Fan-in scaled uniform weights, zero biases, deterministic in seed."""
    rng = sub_rng(seed, "model-init")
    vec = np.zeros(arch.param_count, dtype=np.float64)
    offset = 0
    for fan_in, fan_out in arch.layer_shapes():
        bound = 1.0 / np.sqrt(fan_in)
        count = fan_in * fan_out
        vec[offset : offset + count] = rng.uniform(-bound, bound, size=count)
        offset += count + fan_out  # biases stay zero
    return ModelParams(arch, vec)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    p = e / d
    np.divide(1.0, d, out=p, where=z >= 0)
    return p


def _hidden(views, a: np.ndarray, outs: list[np.ndarray]) -> np.ndarray:
    """Run the hidden layers on rows ``a``; layer i's activation goes to ``outs[i]``."""
    for (w, b), out in zip(views[:-1], outs):
        np.matmul(a, w, out=out)
        out += b
        a = np.tanh(out, out=out)
    return a


def representations(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Penultimate-layer activations, the space used for OOD scoring.

    Only the hidden layers run, in ``util.row_blocks`` small enough that
    every product stays under ``_SOLO_PRODUCT_MACS`` (256 rows at the
    default arch): larger products wake BLAS worker threads, whose spinning
    slows the small products that follow.  A one-row call runs its row
    doubled, so at the default arch a row gets the same bits in any call; a
    narrow layer (hidden (10, 6) on 32 inputs) can still round by block size.
    """
    arch = params.arch
    rows = finite_rows(x, arch.input_dims, "model input", widen=False)
    n = rows.shape[0]
    if n == 1:  # BLAS's one-row kernel rounds differently
        rows = np.repeat(rows, 2, axis=0)
    widest = max(fan_in * fan_out for fan_in, fan_out in arch.layer_shapes()[:-1])
    block = max(2, _SOLO_PRODUCT_MACS // widest)
    views = _layer_views(arch, params.values)
    reps = np.empty((len(rows), arch.rep_dims))
    outs = [np.empty((min(len(rows), block), w)) for w in arch.hidden[:-1]]
    for part in row_blocks(len(rows), block):
        _hidden(views, np.asarray(rows[part], dtype=np.float64), [*outs, reps[part]])
    return reps[:n]


def forward_batch(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Relevance logits: the head over ``representations``, in one product,
    which rounds a row by its position in the call (exact per call only)."""
    head_w, head_b = _layer_views(params.arch, params.values)[-1]
    return (representations(params, x) @ head_w + head_b)[:, 0]


def predict_scores(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Sigmoid of ``forward_batch``: exact per call only, like the logits."""
    return _sigmoid(forward_batch(params, x))


@dataclass(frozen=True)
class CalibrationPrior:
    """Grade-conditional Bernoulli priors smoothed by a single factor.

    With smoothing factor rho, the prior over {0, 1} is [1-rho, rho] for
    irrelevant samples, [2*rho, 1-2*rho] for weak relevance, and
    [rho, 1-rho] for strong relevance.  rho < 1/3 keeps the weak prior on
    the positive side and every entry strictly positive.
    """

    RHO = "(0, 1/3)"  # also bounds ExperimentConfig.rho
    rho: float = bounded(0.1, RHO)

    def __post_init__(self) -> None:
        check_config(self)

    def positive_mass(self) -> np.ndarray:
        """Prior mass on the positive outcome, indexed by grade value."""
        r = self.rho
        return np.array([r, 1.0 - 2.0 * r, 1.0 - r], dtype=np.float64)

    def target_logits(self) -> np.ndarray:
        """logit of the positive prior mass, indexed by grade value."""
        q1 = self.positive_mass()
        return np.log(q1) - np.log1p(-q1)


class LossValues(NamedTuple):
    total: float
    ce: float
    kl: float


class StageObjective:
    """Mean calibrated loss and its exact gradient over one stage's rows.

    total = ce + kl, where ce is binary cross-entropy against the hard
    target and kl is the divergence from the predicted Bernoulli to the
    grade prior (natural log); no prior drops the kl term.

    Built once per stage: it checks the rows and grades, looks up each row's
    loss targets and allocates buffers for ``batch_size`` rows.  It reads the
    weights through views of ``params.values``, so it sees in-place updates.
    A call evaluates a batch of rows and leaves the gradient in ``grad``.  A
    head-only stage computes all frozen representations once; a one-row batch
    runs its own forward pass, since BLAS rounds a one-row product differently.
    """

    def __init__(
        self, params: ModelParams, x: np.ndarray, grades: np.ndarray,
        prior: CalibrationPrior | None, trainable: str = "all",
        batch_size: int | None = None,
    ) -> None:
        arch = params.arch
        region = trainable_slice(arch, trainable)
        self._x = finite_rows(x, arch.input_dims, "model input")
        n = self._x.shape[0]
        if n == 0:
            raise DataFormatError("loss needs a nonempty batch")
        g = np.asarray(grades)
        if g.shape != (n,):
            raise DimensionMismatchError(f"grades have shape {g.shape}, expected ({n},)")
        if g.min() < 0 or g.max() > 2:
            bad = int(g[(g < 0) | (g > 2)][0])
            raise DataFormatError(f"grade value {bad} has no prior table row")
        g = g.astype(np.intp)
        # per-row hard target, then the prior's log q1, log q0 and logit q1
        tables = [_BINARY_TARGET[g]]
        if prior is not None:
            q1 = prior.positive_mass()[g]
            tables += [np.log(q1), np.log(1.0 - q1), prior.target_logits()[g]]
        self._tables = np.stack(tables, axis=1)
        self._backbone_grad = region.start == 0
        self._views = _layer_views(arch, params.values)
        self.grad = np.zeros(arch.param_count, dtype=np.float64)
        self._grad_views = _layer_views(arch, self.grad)
        rows = n if batch_size is None else min(batch_size, n)
        self._batch = np.empty((rows, arch.input_dims))
        self._acts = [np.empty((rows, w)) for w in arch.hidden]
        self._reps = None
        if not self._backbone_grad and rows > 1:
            self._reps = representations(params, self._x)

    def __call__(self, take: np.ndarray | None = None) -> LossValues:
        """Mean loss over the in-range row indices ``take`` (default: all rows);
        ``grad`` becomes the gradient of that mean.  The gathers use
        ``mode="clip"``: ``"raise"`` copies through a temporary.
        """
        take = np.arange(len(self._x)) if take is None else take
        m = take.size
        acts = [a[:m] for a in self._acts]
        batch = None
        if self._reps is not None and m > 1:
            reps = self._reps.take(take, axis=0, out=acts[-1], mode="clip")
        else:
            batch = self._x.take(take, axis=0, out=self._batch[:m], mode="clip")
            reps = _hidden(self._views, batch, acts)
        head_w, head_b = self._views[-1]
        z = (reps @ head_w + head_b)[:, 0]
        p = _sigmoid(z)
        targets = self._tables[take]
        y = targets[:, 0]
        # binary cross-entropy from logits: softplus(z) - y*z; each mean is
        # np.mean's own sum / count, without its Python-level dispatch
        softplus = np.logaddexp(0.0, z)
        ce = float(np.add.reduce(softplus - y * z)) / m
        dz = p - y
        kl = 0.0
        if targets.shape[1] > 1:
            log_q1, log_q0, target_logit = targets[:, 1], targets[:, 2], targets[:, 3]
            log_p = -np.logaddexp(0.0, -z)
            kl_each = p * (log_p - log_q1) + (1.0 - p) * (-softplus - log_q0)
            kl = float(np.add.reduce(kl_each)) / m
            # d KL / dz = p(1-p) * (z - logit(q1))
            dz = dz + p * (1.0 - p) * (z - target_logit)
        self._backward(batch, acts, dz / m)
        return LossValues(total=ce + kl, ce=ce, kl=kl)

    def _backward(self, batch, acts: list[np.ndarray], dz: np.ndarray) -> None:
        """Write the gradient of the batch mean; ``dz`` is dL/dlogit per row."""
        gw, gb = self._grad_views[-1]
        np.matmul(acts[-1].T, dz, out=gw[:, 0])
        gb[0] = np.add.reduce(dz)
        if self._backbone_grad:
            head_w, _ = self._views[-1]
            delta = dz[:, None] * head_w[:, 0][None, :]
            for layer in range(len(acts) - 1, -1, -1):
                a = acts[layer]
                delta *= 1.0 - a * a
                below = batch if layer == 0 else acts[layer - 1]
                gw, gb = self._grad_views[layer]
                np.matmul(below.T, delta, out=gw)
                np.add.reduce(delta, axis=0, out=gb)
                if layer > 0:
                    delta = delta @ self._views[layer][0].T


@dataclass
class OptState:
    """Adam step count and moments over one region of the parameter vector."""

    region: slice
    m: np.ndarray
    v: np.ndarray
    lr: float
    step: int = 0


def init_opt(arch: ModelArch, lr: float = 5e-4, trainable: str = "all") -> OptState:
    region = trainable_slice(arch, trainable)
    size = region.stop - region.start
    return OptState(region, np.zeros(size), np.zeros(size), lr)


def adam_step(opt: OptState, values: np.ndarray, grad_vec: np.ndarray) -> None:
    """One bias-corrected Adam update of ``values[opt.region]`` in place; raises if
    it leaves a non-finite value, so a diverging stage stops at that step."""
    if grad_vec.shape != values.shape:
        raise DimensionMismatchError(
            f"gradient has shape {grad_vec.shape}, expected {values.shape}"
        )
    g = grad_vec[opt.region]
    t = opt.step + 1
    opt.m *= _BETA1
    opt.m += (1.0 - _BETA1) * g
    opt.v *= _BETA2
    opt.v += (1.0 - _BETA2) * g * g
    # lr * m_hat / (sqrt(v_hat) + eps), in that order
    m_hat = opt.m / (1.0 - _BETA1**t)
    m_hat *= opt.lr
    m_hat /= np.sqrt(opt.v / (1.0 - _BETA2**t)) + _EPS
    region = values[opt.region]
    region -= m_hat
    if not np.all(np.isfinite(region)):
        raise DivergenceError("non-finite model parameter")
    opt.step = t


def interpolate(phi_lp: ModelParams, phi_ft: ModelParams, alpha: float) -> ModelParams:
    """Elementwise blend alpha * fine-tuned + (1 - alpha) * probe."""
    if phi_lp.arch != phi_ft.arch:
        raise DimensionMismatchError("checkpoints have different architectures")
    alpha = float(alpha)
    if not np.isfinite(alpha) or not (0.0 <= alpha <= 1.0):
        raise ConfigError("alpha", "must lie in [0, 1]")
    if alpha == 0.0:
        return phi_lp.replace_values(phi_lp.values.copy())
    if alpha == 1.0:
        return phi_ft.replace_values(phi_ft.values.copy())
    blended = alpha * phi_ft.values + (1.0 - alpha) * phi_lp.values
    return phi_lp.replace_values(blended)


def _arch_blob(arch: ModelArch) -> bytes:
    parts = [struct.pack("<II", arch.input_dims, len(arch.hidden))]
    parts.append(struct.pack(f"<{len(arch.hidden)}I", *arch.hidden))
    parts.append(struct.pack("<B", _ACTIVATION_TAG))
    parts.append(bytes.fromhex(arch.fingerprint()))
    return b"".join(parts)


def save_checkpoint(params: ModelParams, path) -> None:
    """Write magic, version, arch descriptor, count, float64 payload, CRC32."""
    header = CHECKPOINT_MAGIC + struct.pack("<I", CHECKPOINT_VERSION)
    header += _arch_blob(params.arch)
    header += struct.pack("<Q", params.arch.param_count)
    payload = np.ascontiguousarray(params.values, dtype="<f8").tobytes()
    body = header + payload
    crc = zlib.crc32(body) & 0xFFFFFFFF
    with open(path, "wb") as fh:
        fh.write(body + struct.pack("<I", crc))


def load_checkpoint(path) -> ModelParams:
    """Read a checkpoint back, verifying CRC, shape, and fingerprint."""
    with open(path, "rb") as fh:
        blob = fh.read()

    def need(offset: int, count: int) -> None:
        if offset + count > len(blob):
            raise TruncatedPayloadError(
                f"checkpoint needs {count} bytes at offset {offset}, file "
                f"has {len(blob)}",
                offset=len(blob),
            )

    need(0, 4)
    if blob[:4] != CHECKPOINT_MAGIC:
        raise BadMagicError("bad checkpoint magic", offset=0)
    need(4, 4)
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    need(8, 8)
    input_dims, n_hidden = struct.unpack_from("<II", blob, 8)
    need(16, 4 * n_hidden + 1 + 32)
    hidden = struct.unpack_from(f"<{n_hidden}I", blob, 16)
    offset = 16 + 4 * n_hidden
    (act_tag,) = struct.unpack_from("<B", blob, offset)
    offset += 1
    if act_tag != _ACTIVATION_TAG:
        raise CheckpointError(f"unknown activation tag {act_tag}")
    stored_print = blob[offset : offset + 32].hex()
    offset += 32
    try:
        arch = ModelArch(input_dims, hidden)
    except ConfigError as exc:
        raise CheckpointError(f"invalid checkpoint architecture: {exc}") from exc
    if stored_print != arch.fingerprint():
        raise CheckpointError("architecture fingerprint does not match descriptor")
    need(offset, 8)
    (count,) = struct.unpack_from("<Q", blob, offset)
    offset += 8
    if count != arch.param_count:
        raise CheckpointError(
            f"checkpoint declares {count} parameters, architecture needs "
            f"{arch.param_count}"
        )
    need(offset, 8 * count)
    values = np.frombuffer(blob, dtype="<f8", count=count, offset=offset).copy()
    offset += 8 * count
    need(offset, 4)
    (stored_crc,) = struct.unpack_from("<I", blob, offset)
    actual_crc = zlib.crc32(blob[:offset]) & 0xFFFFFFFF
    if stored_crc != actual_crc:
        raise CheckpointError(
            f"checkpoint CRC mismatch (stored {stored_crc:#010x}, "
            f"computed {actual_crc:#010x})"
        )
    if offset + 4 != len(blob):
        raise DataFormatError(
            f"{len(blob) - offset - 4} trailing bytes after checkpoint CRC",
            offset=offset + 4,
        )
    if not np.all(np.isfinite(values)):
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise NonFiniteValueError(f"non-finite parameter at index {bad}")
    return ModelParams(arch, values)
