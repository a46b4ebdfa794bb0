"""Strain-to-shape estimator tests.

Covers the prediction contracts (zero-init rest reproduction, weight
sharing, correspondence), the training loop (stratified split, loss
descent, determinism, divergence guard), the identical-frame
memorization oracle, and checkpoint round trips. Training-behaviour
bounds were frozen from smoke runs of this exact configuration.
"""

import os
import tracemalloc

import numpy as np
import pytest

from softprop import estimator, nn, pool
from softprop.errors import MissingArtifactError, NonFiniteError, TrainingError
from softprop.estimator import (
    DECODE_CHUNK,
    TrainConfig,
    TrainReport,
    evaluate,
    init_shape_model,
    load_shape_model,
    predict,
    predict_displacements,
    samples_from_frames,
    save_shape_model,
    split_frames,
    strains_from_lengths,
    train,
)
from softprop.seeding import STAGE_TRAIN_SHAPE, child_rng
from softprop.simulator import (
    DatasetConfig,
    ExternalForceEvent,
    HandModel,
    generate_dataset,
    solve_hand,
)

from conftest import assert_served_by, pid_task, worker_pids

SMOKE_CFG = TrainConfig(epochs=25, batch=64, lr=3e-3)


@pytest.fixture(scope="module")
def hand():
    return HandModel.build_standard(segments=4, length_mm=24.0)


@pytest.fixture(scope="module")
def smoke_frames(hand):
    cfg = DatasetConfig(
        frames=50, force_prob=0.5, force_mag_mn=(5.0, 25.0), max_command=0.8
    )
    return generate_dataset(hand, cfg, seed=7)


@pytest.fixture(scope="module")
def smoke_trained(smoke_frames, hand):
    return train(smoke_frames, hand, SMOKE_CFG, seed=11)


def _fresh_model(hand, seed=0):
    verts = hand.fingers[0].surface.vertices
    return init_shape_model(
        hand.fingers[0].length_mm, verts.shape[0], child_rng(seed, STAGE_TRAIN_SHAPE, 0)
    )


def _random_head_model(hand, head_seed):
    """A fresh model whose zeroed decoder head is redrawn, so outputs are nonzero."""
    model = _fresh_model(hand)
    rng = np.random.default_rng(head_seed)
    dec_params = model.dec_params.copy()
    w_last, b_last = nn.unpack_params(model.dec_spec, dec_params)[-1]
    w_last[:] = 0.1 * rng.standard_normal(w_last.shape)
    b_last[:] = 0.1 * rng.standard_normal(b_last.shape)
    return type(model)(
        model.enc_spec, model.enc_params, model.dec_spec, dec_params,
        model.finger_length_mm, model.n_vertices,
    )


def _tiled_decoder_input(z, rest_scaled):
    """Oracle layout: decoder rows (B*V, 131) = concat(rest row, latent), sample-major."""
    return np.concatenate(
        [np.tile(rest_scaled, (z.shape[0], 1)), np.repeat(z, rest_scaled.shape[0], axis=0)],
        axis=1,
    )


def _tiled_predict(model, strains, rest):
    """predict_displacements through nn.forward on the tiled decoder input."""
    z = nn.forward(model.enc_spec, model.enc_params, strains)
    rows = _tiled_decoder_input(z, rest / model.finger_length_mm)
    out = nn.forward(model.dec_spec, model.dec_params, rows)
    return out.reshape(strains.shape[0], rest.shape[0], 3)


# ---------------------------------------------------------------------------
# Prediction contracts.


def test_zero_init_predicts_rest(hand):
    model = _fresh_model(hand)
    rng = np.random.default_rng(3)
    strains = 0.1 * rng.standard_normal((5, 4))
    disp = predict_displacements(model, strains, hand.fingers[0].surface.vertices)
    assert disp.shape == (5, model.n_vertices, 3)
    assert np.all(disp == 0.0)

    fields = predict(model, hand, 0.1 * rng.standard_normal(12))
    assert fields.shape == (3, model.n_vertices, 3)
    assert np.all(fields == 0.0)


def test_identical_strains_give_identical_fields(hand):
    # Fingers fed the same strain quadruple get the same field.
    model = _random_head_model(hand, 11)

    quad = np.array([0.02, -0.01, 0.015, -0.005])
    strains = np.concatenate([quad, np.array([0.05, 0.0, -0.02, 0.01]), quad])
    fields = predict(model, hand, strains)
    assert np.array_equal(fields[0], fields[2])
    assert np.any(fields[0] != 0.0)
    assert np.any(fields[1] != fields[0])
    batch = predict(model, hand, np.stack([strains, 0.5 * strains]))
    assert batch.shape == (2,) + fields.shape
    np.testing.assert_allclose(batch[0], fields, rtol=0.0, atol=1e-12)


def test_predict_is_pure(hand):
    model = _fresh_model(hand, seed=4)
    strains = np.array([0.01, 0.02, -0.01, 0.0])
    before = strains.copy()
    a = predict_displacements(model, strains, hand.fingers[0].surface.vertices)
    b = predict_displacements(model, strains, hand.fingers[0].surface.vertices)
    assert np.array_equal(a, b)
    assert np.array_equal(strains, before)


def test_predict_validation(hand):
    model = _fresh_model(hand)
    rest = hand.fingers[0].surface.vertices
    with pytest.raises(ValueError):
        predict_displacements(model, np.zeros(5), rest)
    with pytest.raises(ValueError, match="vertices"):
        predict_displacements(model, np.zeros(4), rest[:-1])
    with pytest.raises(ValueError):
        predict(model, hand, np.zeros(11))
    with pytest.raises(ValueError):
        predict(model, hand, np.zeros((2, 3, 12)))
    dec_params = model.dec_params.copy()
    nn.unpack_params(model.dec_spec, dec_params)[-1][1][:] = np.inf
    blown = type(model)(
        model.enc_spec, model.enc_params, model.dec_spec, dec_params,
        model.finger_length_mm, model.n_vertices,
    )
    with pytest.raises(ValueError, match="non-finite"):
        predict(blown, hand, np.zeros(12))


def test_predict_matches_tiled_oracle_and_checkpoint(tmp_path, hand):
    # More samples than one decoder pass holds, so the chunk seam is covered.
    model = _random_head_model(hand, 16)
    rest = hand.fingers[0].surface.vertices
    strains = 0.05 * np.random.default_rng(8).standard_normal((DECODE_CHUNK + 6, 4))
    expected = _tiled_predict(model, strains, rest)
    assert np.abs(expected).max() > 0.01
    got = predict_displacements(model, strains, rest)
    np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12)
    save_shape_model(tmp_path / "shape", model)
    loaded, _ = load_shape_model(tmp_path / "shape")
    np.testing.assert_allclose(
        predict_displacements(loaded, strains, rest), expected, rtol=0.0, atol=1e-12
    )


def test_forward_backward_matches_tiled_path(hand):
    # Two full decoder sub-batches and a partial one against one whole-batch
    # float64 pass on the tiled input. The step's decoder passes run in
    # float32, so the bound is a float32 one: 1e-5 relative, about 80
    # float32 epsilons, against measured errors of 2.8e-9 on the loss and
    # 1.1e-7 and 1.6e-7 on the encoder and decoder gradients. The float64
    # passes are pinned exactly in test_nn.
    model = _random_head_model(hand, 12)
    rng = np.random.default_rng(4)
    rest_scaled = hand.fingers[0].surface.vertices / model.finger_length_mm
    n_b = 2 * DECODE_CHUNK + 3
    x = 0.05 * rng.standard_normal((n_b, 4))
    y = 0.1 * rng.standard_normal((n_b, model.n_vertices, 3))
    loss, g_enc, g_dec = estimator._forward_backward(model, x, y, rest_scaled, hand)

    z, enc_cache = nn.forward_cache(model.enc_spec, model.enc_params, x)
    pred, dec_cache = nn.forward_cache(
        model.dec_spec, model.dec_params, _tiled_decoder_input(z, rest_scaled)
    )
    loss_t, grad_pred = nn.mse_loss(pred, y.reshape(-1, 3))
    g_dec_t, g_in = nn.backward(model.dec_spec, model.dec_params, dec_cache, grad_pred)
    g_z = g_in[:, 3:].reshape(n_b, rest_scaled.shape[0], -1).sum(axis=1)
    g_enc_t, _ = nn.backward(model.enc_spec, model.enc_params, enc_cache, g_z)

    assert abs(loss - loss_t) <= 1e-5 * loss_t
    for got, want in ((g_enc, g_enc_t), (g_dec, g_dec_t)):
        assert got.dtype == np.float64
        assert np.abs(want).max() > 0.0
        assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()


def test_forward_backward_peak_memory_does_not_grow_with_the_minibatch(hand, one_cpu):
    # Whole-minibatch decoder passes held several (B V, 128) activations at
    # once; sub-batched passes hold DECODE_CHUNK x V rows whatever B is.
    # On one CPU every pass runs here, where tracemalloc sees it.
    model = _random_head_model(hand, 14)
    rng = np.random.default_rng(5)
    rest_scaled = hand.fingers[0].surface.vertices / model.finger_length_mm
    n_v = model.n_vertices

    def peak(n_b):
        x = 0.05 * rng.standard_normal((n_b, 4))
        y = 0.1 * rng.standard_normal((n_b, n_v, 3))
        tracemalloc.start()
        try:
            estimator._forward_backward(model, x, y, rest_scaled, hand)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(16)  # first-call set-up stays out of the comparison
    assert peak(64) - peak(16) < 64 * n_v * 128 * 8


def test_decoding_is_chunked(monkeypatch, smoke_frames, hand, one_cpu):
    # No decoder pass, forward or backward, inside a training step or out
    # of it, sees more than DECODE_CHUNK samples, and evaluate's per-sample
    # errors match one-sample decodes. On one CPU every pass runs here,
    # where the spies see it.
    widths = []
    backward_widths = []
    conditioned = nn.forward_conditioned
    conditioned_backward = nn.backward_conditioned

    def spy(spec, params, points, codes):
        widths.append(codes.shape[0])
        return conditioned(spec, params, points, codes)

    def backward_spy(spec, params, cache, grad_y):
        backward_widths.append(grad_y.shape[0])
        return conditioned_backward(spec, params, cache, grad_y)

    model = _random_head_model(hand, 13)
    monkeypatch.setattr(nn, "forward_conditioned", spy)
    monkeypatch.setattr(nn, "backward_conditioned", backward_spy)
    scores = evaluate(model, smoke_frames, hand)
    cfg = TrainConfig(epochs=1, val_fraction=0.5, refit_head=True)
    train(smoke_frames, hand, cfg, seed=3)
    assert len(smoke_frames) * 3 > DECODE_CHUNK and max(widths) == DECODE_CHUNK
    # Training minibatches are wider than one pass, and are split.
    assert cfg.batch > DECODE_CHUNK and max(backward_widths) == DECODE_CHUNK

    x, y, _, _ = samples_from_frames(smoke_frames, hand)
    rest = hand.fingers[0].surface.vertices
    per_sample = [
        np.linalg.norm(_tiled_predict(model, x[s : s + 1], rest)[0] - y[s], axis=1).mean()
        for s in range(x.shape[0])
    ]
    assert abs(scores["mean_mm"] - np.mean(per_sample)) <= 1e-12


def test_strains_from_lengths():
    rest = np.array([10.0, 10.0, 10.0, 10.0])
    lengths = np.array([10.1, 9.9, 10.0, 10.05])
    strains = strains_from_lengths(lengths, rest)
    assert np.allclose(strains, [0.01, -0.01, 0.0, 0.005], atol=1e-12)


# ---------------------------------------------------------------------------
# Sample extraction and splitting.


def test_samples_from_frames_layout(hand):
    rest_frame, _ = solve_hand(hand, np.zeros(6), ((), (), ()))
    event = ExternalForceEvent((4.8, 0.0, 18.0), 8.0, (-10.0, 0.0, 0.0))
    forced_frame, _ = solve_hand(hand, np.zeros(6), ((), (event,), ()))

    x, y, frame_ix, has_force = samples_from_frames([rest_frame, forced_frame], hand)
    v = hand.fingers[0].surface.vertices.shape[0]
    assert x.shape == (6, 4) and y.shape == (6, v, 3)
    assert frame_ix.tolist() == [0, 0, 0, 1, 1, 1]
    assert has_force.tolist() == [False, True]
    # Rest frame: zero strain, zero displacement, exactly.
    assert np.all(x[:3] == 0.0) and np.all(y[:3] == 0.0)
    # The forced finger moved; its neighbours in the same frame did not.
    assert np.abs(y[4]).max() > 0.01
    assert np.all(y[3] == 0.0) and np.all(y[5] == 0.0)


def test_split_is_stratified():
    rng = np.random.default_rng(5)
    has_force = rng.permutation(np.array([True] * 30 + [False] * 20))
    train_f, val_f = split_frames(50, has_force, 0.1, rng)
    assert val_f.size == 5  # 3 forced + 2 force-free
    assert np.intersect1d(train_f, val_f).size == 0
    assert np.array_equal(np.sort(np.concatenate([train_f, val_f])), np.arange(50))
    assert has_force[val_f].any() and (~has_force[val_f]).any()


def test_split_rejects_empty_side():
    rng = np.random.default_rng(0)
    with pytest.raises(TrainingError):
        split_frames(1, np.array([True]), 0.5, rng)
    with pytest.raises(TrainingError):
        # One frame per stratum: both go to validation, leaving no train.
        split_frames(2, np.array([True, False]), 0.5, rng)


def test_train_rejects_short_dataset(smoke_frames, hand):
    with pytest.raises(TrainingError, match="frames"):
        train(smoke_frames[:3], hand, TrainConfig(), seed=0)


def test_train_config_validation():
    for bad in (
        dict(epochs=0),
        dict(val_fraction=0.0),
        dict(val_fraction=1.0),
        dict(batch=0),
        dict(lr=0.0),
        dict(lr_decay=0.0),
        dict(lr_decay=1.5),
    ):
        with pytest.raises(ValueError):
            TrainConfig(**bad)


def test_report_validation():
    with pytest.raises(ValueError):
        TrainReport((1.0,), (1.0, 2.0), 0, 0.1, 0, "ab")
    with pytest.raises(ValueError):
        TrainReport((1.0, np.nan), (1.0, 2.0), 0, 0.1, 0, "ab")
    with pytest.raises(ValueError):
        TrainReport((), (), 0, 0.1, 0, "ab")


# ---------------------------------------------------------------------------
# Training behaviour on the smoke set.


def test_smoke_training_descends(smoke_trained):
    _, report = smoke_trained
    assert len(report.train_mse) == len(report.val_mse) == SMOKE_CFG.epochs
    assert report.train_mse[-1] < report.train_mse[0]
    assert all(m <= report.train_mse[0] for m in report.train_mse[1:])
    assert 0 <= report.best_epoch < SMOKE_CFG.epochs
    assert np.isfinite(report.heldout_mean_mm) and report.heldout_mean_mm > 0
    assert len(report.config_hash) == 64


def test_trained_model_and_its_predictions_are_float64(smoke_trained, smoke_frames, hand):
    # Only the training passes run in float32: the model train returns and
    # everything decoded from it stay float64, equal to the float64 tiled
    # oracle.
    model, _ = smoke_trained
    assert model.enc_params.dtype == model.dec_params.dtype == np.float64
    x, _, _, _ = samples_from_frames(smoke_frames[:2], hand)
    disp = predict(model, hand, x.reshape(2, 12))
    assert disp.dtype == np.float64
    rest = hand.fingers[0].surface.vertices
    np.testing.assert_allclose(
        disp[1, 2], _tiled_predict(model, x[5:6], rest)[0], rtol=0.0, atol=1e-12
    )


def test_trained_beats_rest_prediction(smoke_trained, smoke_frames, hand):
    model, _ = smoke_trained
    scores = evaluate(model, smoke_frames, hand)
    rest_scores = evaluate(_fresh_model(hand), smoke_frames, hand)
    assert scores["mean_mm"] < rest_scores["mean_mm"]
    assert scores["mean_mm"] < 1.0  # frozen from the smoke run (0.64 mm)


def test_evaluate_zero_model_matches_direct_average(smoke_frames, hand):
    scores = evaluate(_fresh_model(hand), smoke_frames, hand)
    x, y, _, _ = samples_from_frames(smoke_frames, hand)
    expected = float(np.linalg.norm(y, axis=2).mean(axis=1).mean())
    assert np.isclose(scores["mean_mm"], expected, rtol=1e-12)
    assert scores["metric"] == "mean_vertex_error_mm"
    assert len(scores["per_frame"]) == len(smoke_frames)
    assert scores["std_mm"] >= 0.0 and scores["mean_nn_mm"] > 0.0


def test_same_seed_reproduces_training(smoke_trained, smoke_frames, hand):
    model_a, report_a = smoke_trained
    model_b, report_b = train(smoke_frames, hand, SMOKE_CFG, seed=11)
    assert report_a == report_b
    assert np.array_equal(model_a.enc_params, model_b.enc_params)
    assert np.array_equal(model_a.dec_params, model_b.dec_params)


def test_different_seed_changes_training(smoke_frames, hand):
    cfg = TrainConfig(epochs=2)
    model_a, _ = train(smoke_frames, hand, cfg, seed=1)
    model_b, _ = train(smoke_frames, hand, cfg, seed=2)
    assert not np.array_equal(model_a.enc_params, model_b.enc_params)


def test_divergence_raises(smoke_frames, hand):
    cfg = TrainConfig(epochs=4, lr=1e80, min_frames=10)
    with np.errstate(all="ignore"):
        with pytest.raises(TrainingError, match="diverged"):
            train(smoke_frames[:12], hand, cfg, seed=1)


def test_shape_bug_is_not_reported_as_divergence(smoke_frames, hand, monkeypatch):
    # Only non-finite values mean divergence; any other ValueError is a bug.
    bug = ValueError("shapes (5, 3) and (4, 3) not aligned")

    def broken(*args):
        raise bug

    monkeypatch.setattr(estimator, "_forward_backward", broken)
    with pytest.raises(ValueError) as exc:
        train(smoke_frames[:12], hand, TrainConfig(epochs=1, min_frames=10), seed=1)
    assert exc.value is bug


# ---------------------------------------------------------------------------
# Training steps whose decoder sub-batches run in the pool.

# A minibatch of 14 full sub-batches and a partial one: 117 x 62 = 7,254
# decoder rows on the test hand, above the pooling threshold, in shares of
# 7 and 8 sub-batches.
POOLED_BATCH = 14 * DECODE_CHUNK + 5


def test_pooled_training_equals_one_cpu_training(smoke_frames, hand, two_cpus,
                                                 one_blas_thread, monkeypatch):
    # 45 train frames give 135 samples an epoch: one pooled minibatch and
    # one of 18 samples that runs in-process.
    assert POOLED_BATCH * hand.fingers[0].surface.vertices.shape[0] >= estimator._POOL_ROWS
    cfg = TrainConfig(epochs=3, batch=POOLED_BATCH, lr=3e-3, refit_head=True)
    pooled_model, pooled = train(smoke_frames, hand, cfg, seed=5)
    assert len(worker_pids()) == 2
    monkeypatch.setattr(pool.os, "sched_getaffinity", lambda pid: {0})
    model, report = train(smoke_frames, hand, cfg, seed=5)
    assert pooled.train_mse == report.train_mse
    assert pooled.val_mse == report.val_mse
    assert pooled.best_epoch == report.best_epoch
    assert pooled.heldout_mean_mm == report.heldout_mean_mm
    assert np.array_equal(pooled_model.enc_params, model.enc_params)
    assert np.array_equal(pooled_model.dec_params, model.dec_params)


def test_pooled_training_runs_decoder_passes_in_workers(smoke_frames, hand, two_cpus,
                                                        monkeypatch, tmp_path):
    # One minibatch of all 135 train samples an epoch; every backward pass
    # is a training pass, and each appends its process id to a file.
    log = tmp_path / "pids"
    conditioned_backward = nn.backward_conditioned

    def backward_spy(spec, params, cache, grad_y):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return conditioned_backward(spec, params, cache, grad_y)

    monkeypatch.setattr(nn, "backward_conditioned", backward_spy)
    train(smoke_frames, hand, TrainConfig(epochs=2, batch=1000), seed=5)
    pids = [int(line) for line in log.read_text().split()]
    workers = worker_pids()
    assert len(workers) == 2 and os.getpid() not in workers
    assert len(pids) == 2 * -(-135 // DECODE_CHUNK)
    assert set(pids) <= set(workers)


def test_training_below_the_threshold_forks_no_pool(smoke_frames, hand, two_cpus):
    # 64 samples are 3,968 decoder rows on the test hand.
    assert 64 * hand.fingers[0].surface.vertices.shape[0] < estimator._POOL_ROWS
    assert pool._pool is None
    train(smoke_frames, hand, TrainConfig(epochs=1, batch=64), seed=5)
    assert pool._pool is None


def test_non_finite_pass_in_a_worker_is_divergence(smoke_frames, hand, two_cpus,
                                                   monkeypatch):
    parent = os.getpid()
    conditioned_backward = nn.backward_conditioned

    def blow_up(spec, params, cache, grad_y):
        if os.getpid() != parent:
            raise NonFiniteError("planted non-finite gradient")
        return conditioned_backward(spec, params, cache, grad_y)

    monkeypatch.setattr(nn, "backward_conditioned", blow_up)
    with pytest.raises(TrainingError, match="training diverged at epoch 0") as exc:
        train(smoke_frames, hand, TrainConfig(epochs=1, batch=1000), seed=5)
    assert isinstance(exc.value.__cause__, NonFiniteError)
    assert "planted" in str(exc.value.__cause__)
    # The pool survives its task's error and still answers.
    workers = worker_pids()
    assert len(workers) == 2
    assert_served_by(pool.map_tasks(hand, pid_task, range(4)), hand, workers)
    assert worker_pids() == workers


# ---------------------------------------------------------------------------
# Memorization oracle: a dataset of identical frames is fit almost exactly.


def test_memorizes_identical_frames(hand):
    # Gentle pure-bend frame: smooth displacement fields stay in the small
    # decoder's reach, so an annealed run plus the closed-form head refit
    # drives the fit to ~3.5e-7 mm^2. Deformation (0.17 mm) is still ~170x
    # the RMS equivalent of the 1e-6 mm^2 bar, so the fit is not trivial.
    command = np.array([0.02, 0.0075, 0.0, 0.0125, 0.015, 0.0])
    frame, _ = solve_hand(hand, command, ((), (), ()))
    frames = [frame] * 5
    cfg = TrainConfig(
        epochs=4500, batch=64, lr=1e-2, lr_decay=0.99865, min_frames=5,
        refit_head=True,
    )
    model, report = train(frames, hand, cfg, seed=2)
    assert min(report.val_mse) < 1e-6

    # The returned model (post-refit) fits the whole set below the bar too.
    x, y, _, _ = samples_from_frames(frames, hand)
    disp = predict_displacements(model, x, hand.fingers[0].surface.vertices)
    assert float(((disp - y) ** 2).mean()) < 1e-6


def test_head_refit_improves_memorization(hand):
    # After one epoch the decoder head is far from optimal; the refit run
    # must come back strictly better on the same identical-frame set.
    command = np.array([0.02, 0.0075, 0.0, 0.0125, 0.015, 0.0])
    frame, _ = solve_hand(hand, command, ((), (), ()))
    frames = [frame] * 5
    x, y, _, _ = samples_from_frames(frames, hand)
    rest = hand.fingers[0].surface.vertices

    def final_mse(refit):
        cfg = TrainConfig(epochs=1, lr=1e-3, min_frames=5, refit_head=refit)
        model, _ = train(frames, hand, cfg, seed=3)
        disp = predict_displacements(model, x, rest)
        return float(((disp - y) ** 2).mean())

    assert final_mse(True) < final_mse(False)


def _refit_problem(hand, n_samples, seed):
    rng = np.random.default_rng(seed)
    rest_scaled = hand.fingers[0].surface.vertices / hand.fingers[0].length_mm
    x = 0.05 * rng.standard_normal((n_samples, 4))
    y = rng.standard_normal((n_samples, rest_scaled.shape[0], 3))
    return x, y, rest_scaled


@pytest.mark.parametrize("n_samples", [10, 3 * DECODE_CHUNK + 7])
def test_head_refit_matches_whole_lstsq(hand, n_samples):
    # The chunked QR reduction solves the same least-squares problem as
    # lstsq on the whole (N V, 65) feature matrix; the heads agree to 1e-9
    # of their largest entry (seen: 1e-14 to 2e-13).
    model = _random_head_model(hand, 13)
    x, y, rest_scaled = _refit_problem(hand, n_samples, n_samples)
    z = nn.forward(model.enc_spec, model.enc_params, x)
    _, (_, _, (acts, _)) = nn.forward_conditioned(
        model.dec_spec, model.dec_params, rest_scaled, z
    )
    feats = np.concatenate([acts[-2], np.ones((acts[-2].shape[0], 1))], axis=1)
    want, *_ = np.linalg.lstsq(feats, y.reshape(-1, 3), rcond=None)

    refit = estimator._refit_decoder_head(model, x, y, rest_scaled)
    w_last, b_last = nn.unpack_params(refit.dec_spec, refit.dec_params)[-1]
    got = np.concatenate([w_last, b_last[None]])
    assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()
    # Every other parameter is the model's own.
    n_head = w_last.size + b_last.size
    assert np.array_equal(refit.dec_params[:-n_head], model.dec_params[:-n_head])
    assert np.array_equal(refit.enc_params, model.enc_params)


def test_head_refit_memory_does_not_grow_with_samples(hand):
    import tracemalloc

    model = _random_head_model(hand, 13)
    peaks = []
    for n_samples in (2 * DECODE_CHUNK, 8 * DECODE_CHUNK):
        x, y, rest_scaled = _refit_problem(hand, n_samples, 1)
        tracemalloc.start()
        try:
            estimator._refit_decoder_head(model, x, y, rest_scaled)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # The whole feature matrix alone would add 6 x 64 x V x 65 x 8 bytes.
    assert peaks[1] <= 1.01 * peaks[0]


# ---------------------------------------------------------------------------
# Checkpoints.


def test_save_load_round_trip(tmp_path, smoke_trained, hand):
    model, report = smoke_trained
    save_shape_model(tmp_path / "shape", model, meta={"config_hash": report.config_hash})
    loaded, meta = load_shape_model(tmp_path / "shape")
    assert np.array_equal(loaded.enc_params, model.enc_params)
    assert np.array_equal(loaded.dec_params, model.dec_params)
    assert loaded.finger_length_mm == model.finger_length_mm
    assert loaded.n_vertices == model.n_vertices
    assert meta == {"config_hash": report.config_hash}

    strains = np.array([0.01, -0.02, 0.03, 0.0])
    rest = hand.fingers[0].surface.vertices
    assert np.array_equal(
        predict_displacements(loaded, strains, rest),
        predict_displacements(model, strains, rest),
    )


def test_load_missing_names_producer(tmp_path):
    with pytest.raises(MissingArtifactError, match="train-shape"):
        load_shape_model(tmp_path / "absent")


def test_load_missing_decoder_names_producer(tmp_path, smoke_trained):
    save_shape_model(tmp_path / "shape", smoke_trained[0])
    (tmp_path / "shape" / "decoder.ksnn").unlink()
    with pytest.raises(MissingArtifactError, match="train-shape") as exc:
        load_shape_model(tmp_path / "shape")
    assert exc.value.path.endswith("decoder.ksnn")


def test_saved_directory_holds_only_what_load_reads(tmp_path, hand):
    save_shape_model(tmp_path / "shape", _fresh_model(hand))
    assert sorted(p.name for p in (tmp_path / "shape").iterdir()) == [
        "decoder.ksnn", "encoder.ksnn", "manifest.json"]


def test_load_rejects_foreign_format(tmp_path, smoke_trained):
    root = save_shape_model(tmp_path / "shape", smoke_trained[0])
    manifest = root / "manifest.json"
    manifest.write_text(manifest.read_text().replace("shape/1", "shape/9"))
    with pytest.raises(ValueError, match="format"):
        load_shape_model(root)
