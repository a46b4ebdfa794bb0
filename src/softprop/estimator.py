"""Strain-to-shape estimator: per-finger strain encoder + vertex decoder.

One encoder maps a finger's 4 corrected strains to a 128-d latent code;
one decoder maps (rest vertex position / finger length) concatenated with
the latent to that vertex's displacement in mm. Both nets are shared
across the three fingers, so each finger's shape comes from the same
function applied to its own strain quadruple. Predicted absolute surface
is rest + displacement, preserving vertex correspondence.

The decoder runs through nn.forward_conditioned / backward_conditioned:
the rest vertices are shared by every sample and the latent by every
vertex, so its first layer adds a (V, 128) vertex term to a (B, 128)
latent term instead of reading a tiled (B*V, 131) input. Every decoder
pass, in training steps as in inference, evaluation and the head refit,
covers at most DECODE_CHUNK samples; a training step encodes its whole
minibatch at once and sums the decoder's sub-batch gradients. A training
step of at least _POOL_ROWS decoder rows runs its sub-batches in the
hand's pool workers, one contiguous share per worker
(pool.map_tasks), and sums them in sub-batch order, so training
with one BLAS thread per process gives the same bits on any number of
CPUs. Every other pass runs in the calling process.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import nn, pool
from .datafiles import artifact_file, config_hash, read_manifest, write_manifest
from .errors import NonFiniteError, TrainingError
from .geometry import mean_nn_distance
from .seeding import STAGE_TRAIN_SHAPE, child_rng
from .simulator import N_FINGERS, HandModel

LATENT = 128
ENCODER_SIZES = (4, 64, LATENT)
DECODER_SIZES = (3 + LATENT, 128, 64, 3)
# Samples per decoder pass, in training steps and everywhere else: 8 x 230
# vertices is 1,840 rows, and the largest activation, (1840, 128), is 1.9 MB.
# Whole 64-sample minibatches made (14720, 128) temporaries of 7.5-15 MB
# that glibc's malloc returned to the kernel and faulted in again on every
# minibatch. malloc also trims a free heap top larger than twice the largest
# mmap block it has freed, and one pass's cache plus its gradients come to
# three of its largest arrays, so each process that runs training passes
# holds its last sub-batch cache from one step to the next (_held, filled by
# _decode_share in the caller or in a pool worker). Minor faults per epoch
# of the benchmark's learn inputs on the paper hand, in one process: 12k at
# whole minibatches, 4.6k with in-place activations alone, 5.9k with
# 8-sample passes alone, 5.0k with both but no hold and 0.8-1.2k with all
# three, with 3 ms of system time per epoch against 57 ms. With the passes
# in two pool workers, the workers faulted 2-4 times per epoch together
# with their held caches and, in 3 of 6 runs, 5.3k-7.1k times without.
# Passes of 16 or 32 samples faulted about 2.4k times; passes of 4 were no
# faster on a shared 2-vCPU host (104 against 106 ms of CPU per epoch) and
# would split the 5-sample decodes of an alignment objective in two.
DECODE_CHUNK = 8
# Decoder rows (samples x V) from which a training step runs its sub-batches
# in the pool (see _forward_backward). Each sub-batch sends back a 200 KB
# decoder gradient whatever V is, so only wide sub-batches pay for the trip.
# Median step times on a shared 2-vCPU host, one BLAS thread, in-process
# against two workers: paper hand (V = 230) at 16 samples (3,680 rows)
# 11.1 against 16.8 ms, at 24 (5,520) 18.9 against 23.1 ms in one pass and
# 17.7 against 14.2 ms in another, at 28 (6,440) 21.0 against 17.5 ms, at
# 32 (7,360) 18.7-24.0 against 15.4-18.4 ms and at 64 (14,720) 42.7 against
# 30.3 ms; test hand (V = 62) 1.4-1.5x slower pooled at 32-96 samples (up to
# 5,952 rows) and no faster at 104-192 (6,448-11,904 rows). Training on
# 15-sample minibatches of the paper hand (3,450 rows) stays in-process.
_POOL_ROWS = 7000


@dataclass(frozen=True)
class ShapeModel:
    """Immutable encoder/decoder pair plus the normalization constants."""

    enc_spec: nn.MlpSpec
    enc_params: np.ndarray
    dec_spec: nn.MlpSpec
    dec_params: np.ndarray
    finger_length_mm: float
    n_vertices: int

    def __post_init__(self):
        if self.enc_spec.sizes[-1] != LATENT:
            raise ValueError(f"ShapeModel: latent width must be {LATENT}")
        if self.dec_spec.sizes[0] != 3 + LATENT or self.dec_spec.sizes[-1] != 3:
            raise ValueError("ShapeModel: decoder must map 131 -> 3")
        if self.finger_length_mm <= 0 or self.n_vertices < 4:
            raise ValueError("ShapeModel: bad normalization constants")
        object.__setattr__(
            self, "enc_params", np.ascontiguousarray(self.enc_params, dtype=np.float64)
        )
        object.__setattr__(
            self, "dec_params", np.ascontiguousarray(self.dec_params, dtype=np.float64)
        )


def _shape_specs():
    """(encoder, decoder) architectures of every shape model."""
    return nn.MlpSpec.dense(list(ENCODER_SIZES)), nn.MlpSpec.dense(list(DECODER_SIZES))


def init_shape_model(finger_length_mm, n_vertices, rng):
    """Fresh model whose decoder head is zeroed: it predicts rest exactly."""
    enc_spec, dec_spec = _shape_specs()
    enc_params = nn.init_params(enc_spec, rng)
    dec_params = nn.init_params(dec_spec, rng)
    w_last, b_last = nn.unpack_params(dec_spec, dec_params)[-1]
    w_last[:] = 0.0
    b_last[:] = 0.0
    return ShapeModel(
        enc_spec, enc_params, dec_spec, dec_params, float(finger_length_mm), int(n_vertices)
    )


def strains_from_lengths(sensor_lengths, rest_lengths):
    """Engineering strain per sensor: length / rest - 1."""
    lengths = np.asarray(sensor_lengths, dtype=np.float64)
    rest = np.asarray(rest_lengths, dtype=np.float64)
    return lengths / rest - 1.0


def _decode_batch(model: ShapeModel, z, rest_scaled):
    """z (B, 128) + rest_scaled (V, 3) -> displacements (B, V, 3).

    Decodes DECODE_CHUNK samples per decoder pass, so the activations held
    at once stay at DECODE_CHUNK x V rows whatever B is.
    """
    out = np.empty((z.shape[0], rest_scaled.shape[0], 3))
    for s in range(0, z.shape[0], DECODE_CHUNK):
        out[s : s + DECODE_CHUNK] = nn.forward_conditioned(
            model.dec_spec, model.dec_params, rest_scaled, z[s : s + DECODE_CHUNK]
        )[0]
    return out


def predict_displacements(model: ShapeModel, strains, rest_vertices):
    """(B, 4) strains + (V, 3) rest vertices -> (B, V, 3) displacements."""
    strains = np.asarray(strains, dtype=np.float64)
    squeeze = strains.ndim == 1
    strains = np.atleast_2d(strains)
    if strains.shape[1] != 4:
        raise ValueError(f"predict_displacements: need 4 strains, got {strains.shape}")
    rest_vertices = np.asarray(rest_vertices, dtype=np.float64)
    if rest_vertices.shape != (model.n_vertices, 3):
        raise ValueError(
            f"rest mesh has {rest_vertices.shape[0]} vertices; the model was "
            f"trained on {model.n_vertices}"
        )
    z = nn.forward(model.enc_spec, model.enc_params, strains)
    disp = _decode_batch(model, z, rest_vertices / model.finger_length_mm)
    return disp[0] if squeeze else disp


def predict(model: ShapeModel, hand: HandModel, strains):
    """Hand-level decoding: strains (12,) or (B, 12) -> displacements of every
    finger's surface, (3, V, 3) or (B, 3, V, 3).

    One predict_displacements call per finger on its strain quadruple, all
    against the finger model's rest surface, so a batch of B readings costs
    three decodes of B samples each (in passes of at most DECODE_CHUNK
    samples).
    """
    strains = np.asarray(strains, dtype=np.float64)
    if strains.ndim not in (1, 2) or strains.shape[-1] != 4 * N_FINGERS:
        raise ValueError(
            f"predict: expected (12,) or (B, 12) strains, got {strains.shape}"
        )
    rest = hand.fingers[0].surface.vertices
    disp = np.stack(
        [
            predict_displacements(model, strains[..., 4 * j : 4 * j + 4], rest)
            for j in range(N_FINGERS)
        ],
        axis=-3,
    )
    if not np.isfinite(disp).all():
        raise ValueError("predict: non-finite displacements")
    return disp


# ---------------------------------------------------------------------------
# Training.


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 40
    batch: int = 64
    lr: float = 1e-3
    lr_decay: float = 1.0  # multiplicative per-epoch decay
    val_fraction: float = 0.1
    min_frames: int = 20
    refit_head: bool = False  # closed-form decoder-head refit after Adam

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("TrainConfig: epochs must be >= 1")
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError("TrainConfig: val_fraction must be in (0, 1)")
        if self.batch < 1 or self.lr <= 0:
            raise ValueError("TrainConfig: bad batch or learning rate")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ValueError("TrainConfig: lr_decay must be in (0, 1]")


@dataclass(frozen=True)
class TrainReport:
    train_mse: tuple  # mm^2 per epoch
    val_mse: tuple  # mm^2 per epoch
    best_epoch: int
    heldout_mean_mm: float
    seed: int
    config_hash: str

    def __post_init__(self):
        if len(self.train_mse) < 1 or len(self.train_mse) != len(self.val_mse):
            raise ValueError("TrainReport: epoch series empty or mismatched")
        if not np.isfinite(self.train_mse).all() or not np.isfinite(self.val_mse).all():
            raise ValueError("TrainReport: non-finite losses")


def samples_from_frames(frames, hand: HandModel):
    """Flatten hand frames into per-finger (strains, displacement) samples.

    Returns (X (N, 4), Y (N, V, 3), frame_index (N,), has_force (F,)).
    """
    rests = hand.rest_surfaces
    rest_lengths = hand.sensor_rest_lengths
    xs, ys, frame_ix = [], [], []
    has_force = np.zeros(len(frames), dtype=bool)
    for i, frame in enumerate(frames):
        has_force[i] = any(len(evs) > 0 for evs in frame.forces)
        strains = strains_from_lengths(frame.sensor_lengths, rest_lengths)
        xs.extend(strains.reshape(N_FINGERS, 4))
        ys.extend(frame.surfaces(hand) - rests)
        frame_ix.extend([i] * N_FINGERS)
    return (
        np.array(xs),
        np.array(ys),
        np.array(frame_ix, dtype=np.int64),
        has_force,
    )


def split_frames(n_frames, has_force, val_fraction, rng):
    """Frame-level 90/10 style split, stratified by force-event presence."""
    val = []
    for mask in (has_force, ~has_force):
        idx = np.flatnonzero(mask)
        if idx.size == 0:
            continue
        perm = rng.permutation(idx)
        k = max(1, int(round(val_fraction * idx.size)))
        val.extend(perm[:k].tolist())
    val = np.array(sorted(val), dtype=np.int64)
    train = np.setdiff1d(np.arange(n_frames), val)
    if train.size == 0 or val.size == 0:
        raise TrainingError("split left an empty train or validation set")
    return train, val


# This process's last decoder sub-batch cache, kept from one training step
# to the next by whichever process runs the passes (see DECODE_CHUNK) and
# released by train() in the calling process.
_held = None


def _decode_share(hand, task):
    """Decoder forward and backward passes over one contiguous share of a
    training step's sub-batches, task (dec_spec, dec_params, rest_scaled,
    z, y, scale): [(squared error sum, decoder gradient, latent gradient
    rows)], one entry per DECODE_CHUNK sub-batch in order."""
    global _held
    dec_spec, dec_params, rest_scaled, z, y, scale = task
    out = []
    for s in range(0, z.shape[0], DECODE_CHUNK):
        pred, dec_cache = nn.forward_conditioned(
            dec_spec, dec_params, rest_scaled, z[s : s + DECODE_CHUNK]
        )
        diff = pred - y[s : s + DECODE_CHUNK]
        sq = float(np.sum(diff * diff))
        diff *= scale
        g_dec, _, g_z = nn.backward_conditioned(dec_spec, dec_params, dec_cache, diff)
        out.append((sq, g_dec, g_z))
    _held = dec_cache
    return out


def _forward_backward(model, x, y, rest_scaled, hand):
    """Loss (mm^2) and encoder/decoder gradients for one minibatch.

    The loss is the mean squared error over the whole minibatch, as
    nn.mse_loss would give it, but the decoder runs forward and backward
    one DECODE_CHUNK sub-batch at a time: each sub-batch gives its squared
    errors, its parameter gradient and its rows of the latent gradient,
    which are summed and stacked here in sub-batch order. The encoder runs
    once on the whole minibatch, here. A step of at least _POOL_ROWS decoder
    rows cuts its sub-batches into one contiguous share per worker of the
    hand's pool (pool.map_tasks); a smaller one runs them here as one
    share. Either way the sums are taken in the same order, so with one
    BLAS thread here, as in the workers, the result does not depend on the
    number of CPUs.
    """
    z, enc_cache = nn.forward_cache(model.enc_spec, model.enc_params, x)
    n = x.shape[0]
    chunks = -(-n // DECODE_CHUNK)
    rows = n * rest_scaled.shape[0]
    cuts = pool.share_cuts(chunks) if rows >= _POOL_ROWS else [0, chunks]
    cuts = [min(DECODE_CHUNK * c, n) for c in cuts]
    scale = 2.0 / y.size
    sq_sum = 0.0
    grad_dec = np.zeros_like(model.dec_params)
    grad_z = []
    for share in pool.map_tasks(hand, _decode_share, [
        (model.dec_spec, model.dec_params, rest_scaled, z[a:b], y[a:b], scale)
        for a, b in zip(cuts, cuts[1:])
    ]):
        for sq, g_dec, g_z in share:
            sq_sum += sq
            grad_dec += g_dec
            grad_z.append(g_z)
    grad_enc, _ = nn.backward(
        model.enc_spec, model.enc_params, enc_cache, np.concatenate(grad_z)
    )
    return sq_sum / y.size, grad_enc, grad_dec


def _refit_decoder_head(model: ShapeModel, x, y, rest_scaled):
    """Exact least-squares solve for the decoder's final linear layer.

    Adam handles the nonlinear features; the head is a linear problem, so
    finishing with its closed-form optimum is free precision. The (N V, 65)
    matrix of [hidden features | 1] is never formed: each DECODE_CHUNK
    samples' [features | 1 | targets] rows are stacked under the running
    R factor of a QR and reduced again, so memory does not grow with N.
    The final R's leading columns and its target columns form a small
    least-squares problem with the same solutions as the whole one.
    """
    n_feats = model.dec_spec.sizes[-2] + 1
    r = np.zeros((0, n_feats + 3))
    for s in range(0, x.shape[0], DECODE_CHUNK):
        z = nn.forward(model.enc_spec, model.enc_params, x[s : s + DECODE_CHUNK])
        _, (_, _, (acts, _)) = nn.forward_conditioned(
            model.dec_spec, model.dec_params, rest_scaled, z
        )
        h = acts[-2]
        chunk = [h, np.ones((h.shape[0], 1)), y[s : s + DECODE_CHUNK].reshape(-1, 3)]
        r = np.linalg.qr(np.concatenate([r, np.concatenate(chunk, axis=1)]), mode="r")
    # The cutoff lstsq would use on the whole (N V, n_feats) problem.
    rows = x.shape[0] * rest_scaled.shape[0]
    sol, *_ = np.linalg.lstsq(
        r[:, :n_feats], r[:, n_feats:], rcond=np.finfo(np.float64).eps * max(rows, n_feats)
    )
    params = model.dec_params.copy()
    w_last, b_last = nn.unpack_params(model.dec_spec, params)[-1]
    w_last[:] = sol[:-1]
    b_last[:] = sol[-1]
    return ShapeModel(
        model.enc_spec, model.enc_params, model.dec_spec, params,
        model.finger_length_mm, model.n_vertices,
    )


def _val_loss(model, x, y, rest_scaled):
    z = nn.forward(model.enc_spec, model.enc_params, x)
    return float(((_decode_batch(model, z, rest_scaled) - y) ** 2).mean())


def train(frames, hand: HandModel, cfg: TrainConfig, seed):
    """Adam on displacement MSE; returns (best-epoch ShapeModel, TrainReport)."""
    global _held
    if len(frames) < cfg.min_frames:
        raise TrainingError(
            f"dataset holds {len(frames)} frames; training needs {cfg.min_frames}"
        )
    x, y, frame_ix, has_force = samples_from_frames(frames, hand)
    finger_length = hand.fingers[0].length_mm
    rest_scaled = hand.fingers[0].surface.vertices / finger_length
    n_vertices = rest_scaled.shape[0]

    rng = child_rng(seed, STAGE_TRAIN_SHAPE, 0)
    model = init_shape_model(finger_length, n_vertices, rng)
    train_f, val_f = split_frames(len(frames), has_force, cfg.val_fraction, rng)
    train_mask = np.isin(frame_ix, train_f)
    tr = np.flatnonzero(train_mask)
    va = np.flatnonzero(~train_mask)

    enc_adam = nn.AdamState.for_params(model.enc_params.size, lr=cfg.lr)
    dec_adam = nn.AdamState.for_params(model.dec_params.size, lr=cfg.lr)

    train_curve, val_curve = [], []
    best = (np.inf, None, None, -1)
    for epoch in range(cfg.epochs):
        enc_adam.lr = cfg.lr * cfg.lr_decay**epoch
        dec_adam.lr = enc_adam.lr
        order = rng.permutation(tr)
        epoch_loss = 0.0
        seen = 0
        for s in range(0, order.size, cfg.batch):
            batch = order[s : s + cfg.batch]
            try:
                loss, g_enc, g_dec = _forward_backward(
                    model, x[batch], y[batch], rest_scaled, hand
                )
            except NonFiniteError as exc:
                raise TrainingError(f"training diverged at epoch {epoch}") from exc
            if not np.isfinite(loss):
                raise TrainingError(f"loss diverged at epoch {epoch}")
            new_enc = nn.adam_step(enc_adam, model.enc_params, g_enc)
            new_dec = nn.adam_step(dec_adam, model.dec_params, g_dec)
            model = ShapeModel(
                model.enc_spec, new_enc, model.dec_spec, new_dec,
                finger_length, n_vertices,
            )
            epoch_loss += loss * batch.size
            seen += batch.size
        train_curve.append(epoch_loss / seen)
        vloss = _val_loss(model, x[va], y[va], rest_scaled)
        val_curve.append(vloss)
        if not np.isfinite(vloss):
            raise TrainingError(f"validation loss diverged at epoch {epoch}")
        if vloss < best[0]:
            best = (vloss, model.enc_params.copy(), model.dec_params.copy(), epoch)
    # The steps are done: this process's held cache would only add to the
    # caller's later peak memory. Pool workers keep theirs for the next call.
    _held = None

    model = ShapeModel(
        model.enc_spec, best[1], model.dec_spec, best[2], finger_length, n_vertices
    )
    if cfg.refit_head:
        refit = _refit_decoder_head(model, x[tr], y[tr], rest_scaled)
        if _val_loss(refit, x[va], y[va], rest_scaled) < best[0]:
            model = refit
    disp = _decode_batch(
        model, nn.forward(model.enc_spec, model.enc_params, x[va]), rest_scaled
    )
    heldout = float(np.linalg.norm(disp - y[va], axis=2).mean())
    report = TrainReport(
        train_mse=tuple(train_curve),
        val_mse=tuple(val_curve),
        best_epoch=best[3],
        heldout_mean_mm=heldout,
        seed=int(seed),
        config_hash=config_hash(asdict(cfg)),
    )
    return model, report


# ---------------------------------------------------------------------------
# Evaluation and checkpoints.


def evaluate(model: ShapeModel, frames, hand: HandModel):
    """Held-out metrics: {mean_mm, std_mm, per_frame[]} on vertex error.

    per_frame entries average the per-vertex error across all fingers of
    one frame; mean_nn_mm additionally reports the correspondence-free
    nearest-neighbour metric.
    """
    x, y, frame_ix, _ = samples_from_frames(frames, hand)
    rest_scaled = hand.fingers[0].surface.vertices / model.finger_length_mm
    z = nn.forward(model.enc_spec, model.enc_params, x)
    disp = _decode_batch(model, z, rest_scaled)
    per_sample_vert = np.linalg.norm(disp - y, axis=2).mean(axis=1)
    rest = rest_scaled * model.finger_length_mm
    per_sample_nn = [
        float(mean_nn_distance(rest + d, rest + t)) for d, t in zip(disp, y)
    ]
    per_frame = [
        float(per_sample_vert[frame_ix == i].mean()) for i in range(len(frames))
    ]
    return {
        "metric": "mean_vertex_error_mm",
        "mean_mm": float(per_sample_vert.mean()),
        "std_mm": float(per_sample_vert.std()),
        "per_frame": per_frame,
        "mean_nn_mm": float(np.mean(per_sample_nn)),
    }


ENCODER_FILE = "encoder.ksnn"
DECODER_FILE = "decoder.ksnn"
SHAPE_FORMAT = "shape/1"


def save_shape_model(directory, model: ShapeModel, meta=None):
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    nn.save_checkpoint(directory / ENCODER_FILE, model.enc_spec, model.enc_params)
    nn.save_checkpoint(directory / DECODER_FILE, model.dec_spec, model.dec_params)
    return write_manifest(directory, {
        "format": SHAPE_FORMAT,
        "finger_length_mm": model.finger_length_mm,
        "n_vertices": model.n_vertices,
        "meta": meta or {},
    })


def load_shape_model(directory):
    doc = read_manifest(directory, SHAPE_FORMAT, "train-shape")
    enc_spec, dec_spec = _shape_specs()
    enc_params, dec_params = (
        nn.load_checkpoint(artifact_file(directory, name, "train-shape"), spec)
        for name, spec in ((ENCODER_FILE, enc_spec), (DECODER_FILE, dec_spec))
    )
    model = ShapeModel(
        enc_spec,
        enc_params,
        dec_spec,
        dec_params,
        float(doc["finger_length_mm"]),
        int(doc["n_vertices"]),
    )
    return model, doc.get("meta", {})
