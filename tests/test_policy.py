"""Tests for the diffusion policy: training, sampling, checkpoints and rollout."""

import dataclasses
import math

import numpy as np
import pytest

from softprop import nn
from softprop.controller import fit_actuation_directions
from softprop.datafiles import _encode_frame, save_dataset
from softprop.errors import MissingArtifactError, TrainingError
from softprop.estimator import init_shape_model
from softprop.policy import (
    NORM_HEADROOM,
    DiffusionSchedule,
    PolicyConfig,
    RolloutTask,
    build_policy_dataset,
    encode_state,
    load_demonstration,
    load_policy,
    rollout,
    sample_actions,
    save_demonstration,
    save_policy,
    synthetic_object_cloud,
    train_policy,
)
from softprop.seeding import STAGE_TRAIN_SHAPE, child_rng
from softprop.simulator import (
    Demonstration,
    ExternalForceEvent,
    HandModel,
    collect_demonstration,
)

CFG = PolicyConfig(
    horizon=2, exec_horizon=2, control_count=4, shape_feature=8, cloud_feature=8,
    time_feature=8, shape_hidden=(16,), cloud_hidden=(16,), denoiser_hidden=(16,),
    epochs=2, batch=4,
)


@pytest.fixture(scope="module")
def hand():
    return HandModel.build_standard(segments=4, length_mm=24.0)


@pytest.fixture(scope="module")
def model(hand):
    # A fresh model with a random decoder head: cheap, and its estimated
    # shapes move with the strains, so the demo's actions are nonzero.
    rest = hand.fingers[0].surface.vertices
    model = init_shape_model(hand.fingers[0].length_mm, rest.shape[0],
                             child_rng(5, STAGE_TRAIN_SHAPE, 0))
    dec_params = model.dec_params.copy()
    w_last, b_last = nn.unpack_params(model.dec_spec, dec_params)[-1]
    rng = np.random.default_rng(2)
    w_last[:] = 0.1 * rng.standard_normal(w_last.shape)
    b_last[:] = 0.1 * rng.standard_normal(b_last.shape)
    return type(model)(model.enc_spec, model.enc_params, model.dec_spec, dec_params,
                       model.finger_length_mm, model.n_vertices)


def _push(steps):
    event = ExternalForceEvent(np.array([8.0, 0.0, 20.0]), 6.0,
                               np.array([-12.0, 0.0, 0.0]), (0, steps))
    return [(0, event)]


@pytest.fixture(scope="module")
def points():
    return synthetic_object_cloud([0.0, 0.0, 40.0], count=32)


@pytest.fixture(scope="module")
def demo(hand):
    return collect_demonstration(hand, _push(6), steps=6, ramp_steps=3, seed=9)


@pytest.fixture(scope="module")
def dataset(hand, model, points, demo):
    return build_policy_dataset([(demo, points)], model, hand, CFG)


@pytest.fixture(scope="module")
def trained(dataset):
    return train_policy(dataset, seed=4)


def _state(dataset, params):
    vertices = dataset.rest_control + dataset.shape_inputs[0].reshape(
        (3,) + dataset.rest_control.shape)
    return encode_state(vertices, dataset.clouds[0], dataset.poses[0], params)


def test_train_policy_reports_every_epoch_and_repeats(dataset, trained):
    params, report = trained
    assert len(dataset) == 4
    assert report.epochs == CFG.epochs
    assert report.samples == len(dataset)
    assert len(report.losses) == len(report.recon_losses) == CFG.epochs
    assert all(math.isfinite(v) for v in report.losses + report.recon_losses)
    again, report2 = train_policy(dataset, seed=4)
    assert report2.losses == report.losses
    assert report2.recon_losses == report.recon_losses
    for name in ("shape_params", "cloud_params", "denoiser_params"):
        assert np.array_equal(getattr(again, name), getattr(params, name))
    other, _ = train_policy(dataset, seed=5)
    assert not np.array_equal(other.denoiser_params, params.denoiser_params)


def test_default_schedule_ends_near_the_prior():
    sched = DiffusionSchedule.default()
    assert sched.t_diff == 50
    assert sched.betas[0] == 1e-4 and sched.betas[-1] == 0.12
    assert np.all(np.diff(sched.betas) >= 0.0)
    assert sched.alpha_bars[-1] < 0.05


def test_train_policy_uses_the_default_schedule(trained):
    params, _ = trained
    assert np.array_equal(params.schedule.betas, DiffusionSchedule.default().betas)


def test_train_policy_recon_losses_descend(dataset):
    # One minibatch per epoch: the DDPM objective is noisy epoch to epoch,
    # so compare the means of the first and last ten epochs.
    cfg = dataclasses.replace(CFG, epochs=200)
    for seed in range(4):
        _, report = train_policy(dataset, cfg=cfg, seed=seed)
        assert np.mean(report.recon_losses[-10:]) < np.mean(report.recon_losses[:10])


def test_train_policy_divergence_is_a_training_error(dataset):
    cfg = dataclasses.replace(CFG, lr=1e80)
    with np.errstate(all="ignore"):
        with pytest.raises(TrainingError, match="diverged"):
            train_policy(dataset, cfg=cfg, seed=4)


def test_sample_actions_is_deterministic_and_bounded(dataset, trained):
    params, _ = trained
    state = _state(dataset, params)
    chunk = sample_actions(params, state, seed=3)
    assert np.array_equal(chunk.vector(), sample_actions(params, state, seed=3).vector())
    assert not np.array_equal(chunk.vector(), sample_actions(params, state, seed=4).vector())
    assert chunk.vertex_deltas.shape == (CFG.horizon, 3, CFG.control_count, 3)
    assert np.abs(chunk.vertex_deltas).max() <= CFG.dv_bound_mm
    assert np.abs(chunk.pose_deltas[:, :3]).max() <= CFG.dp_translation_bound_mm
    assert np.abs(chunk.pose_deltas[:, 3:]).max() <= CFG.dp_rotation_bound_rad


def test_policy_checkpoint_round_trip(tmp_path, dataset, trained):
    params, _ = trained
    save_policy(tmp_path / "policy", params)
    loaded = load_policy(tmp_path / "policy")
    assert loaded.config == params.config
    for name in ("shape", "cloud", "denoiser"):
        assert np.array_equal(getattr(loaded, f"{name}_params"),
                              getattr(params, f"{name}_params"))
    for name in ("control_indices", "rest_control", "norm_scale"):
        assert np.array_equal(getattr(loaded, name), getattr(params, name))
    assert np.array_equal(loaded.schedule.betas, params.schedule.betas)
    assert loaded.shape_input_scale == params.shape_input_scale
    state = _state(dataset, params)
    assert np.array_equal(sample_actions(loaded, state, seed=3).vector(),
                          sample_actions(params, state, seed=3).vector())


def test_load_policy_missing_net_names_producer(tmp_path, trained):
    save_policy(tmp_path / "policy", trained[0])
    (tmp_path / "policy" / "denoiser.ksnn").unlink()
    with pytest.raises(MissingArtifactError, match="train-policy") as exc:
        load_policy(tmp_path / "policy")
    assert exc.value.path.endswith("denoiser.ksnn")


def test_saved_policy_directory_holds_only_what_load_reads(tmp_path, trained):
    manifest = save_policy(tmp_path / "policy", trained[0])
    assert sorted(p.name for p in (tmp_path / "policy").iterdir()) == sorted(
        ["manifest.json", *manifest["nets"].values()])
    assert sorted(manifest["nets"].values()) == [
        "cloud.ksnn", "denoiser.ksnn", "shape.ksnn"]


def test_demonstration_round_trip(tmp_path, hand, demo):
    save_demonstration(tmp_path / "demo", hand, demo)
    loaded = load_demonstration(tmp_path / "demo", hand)
    assert (loaded.ramp_steps, loaded.seed) == (3, 9)
    assert len(loaded) == len(demo)
    n_nodes = demo.frames[0].nodes.shape[1]
    for got, want in zip(loaded.frames, demo.frames):
        assert _encode_frame(got, n_nodes, True) == _encode_frame(want, n_nodes, True)


def test_load_demonstration_rejects_other_roles(tmp_path, hand, demo):
    save_dataset(tmp_path / "data", hand, demo.frames, demo.seed, role="training")
    with pytest.raises(ValueError, match="role"):
        load_demonstration(tmp_path / "data", hand)


def test_load_demonstration_needs_ramp_steps(tmp_path, hand, demo):
    save_dataset(tmp_path / "demo", hand, demo.frames, demo.seed, role="demo")
    with pytest.raises(ValueError, match=r"demo/manifest\.json: .*ramp_steps"):
        load_demonstration(tmp_path / "demo", hand)


def test_build_policy_dataset_rejects_short_demo(hand, model, points):
    short = collect_demonstration(hand, _push(2), steps=2, ramp_steps=3)
    with pytest.raises(ValueError, match="horizon"):
        build_policy_dataset([(short, points)], model, hand, CFG)


def test_build_policy_dataset_rejects_action_over_bound(hand, model, points, dataset):
    dv_width = 3 * CFG.control_count * 3
    per_step = dataset.chunks.reshape(len(dataset), CFG.horizon, -1)
    largest = float(np.abs(per_step[:, :, :dv_width]).max())
    assert largest > 0.0
    tight = dataclasses.replace(CFG, dv_bound_mm=0.5 * largest)
    still = collect_demonstration(hand, [], steps=6, ramp_steps=3)
    build_policy_dataset([(still, points)], model, hand, tight)
    pushed = collect_demonstration(hand, _push(6), steps=6, ramp_steps=3)
    with pytest.raises(ValueError, match=r"demo 1 action magnitude .* exceeds the bound"):
        build_policy_dataset([(still, points), (pushed, points)], model, hand, tight)


def test_norm_scale_is_headroom_times_groupwise_max(dataset, trained):
    params, _ = trained
    per_step = np.abs(dataset.chunks.reshape(len(dataset), CFG.horizon, CFG.step_dim))
    dv_width = 3 * CFG.control_count * 3
    groups = (slice(0, dv_width), slice(dv_width, dv_width + 3),
              slice(dv_width + 3, dv_width + 6))
    step_scale = np.empty(CFG.step_dim)
    for sl in groups:
        step_scale[sl] = NORM_HEADROOM * max(per_step[:, :, sl].max(), 1e-6)
    # The demo has no pose changes, so only the vertex group is above the floor.
    assert per_step[:, :, groups[0]].max() > 1e-6
    np.testing.assert_array_equal(params.norm_scale, np.tile(step_scale, CFG.horizon))


def test_rollout_task_steps_default_to_the_first_demo(points, demo):
    assert RolloutTask(points, demos=(demo,)).steps == len(demo) - 1
    assert RolloutTask(points, demos=(demo,), steps=2).steps == 2
    with pytest.raises(ValueError, match="need steps"):
        RolloutTask(points)
    with pytest.raises(ValueError, match=">= 1"):
        RolloutTask(points, steps=0)
    # A one-frame demo has no action, so it cannot set the step budget.
    still = Demonstration(demo.frames[:1], demo.ramp_steps, demo.seed)
    with pytest.raises(ValueError, match=">= 1"):
        RolloutTask(points, demos=(still,))


def test_rollout_completes_and_repeats(hand, model, points, trained):
    params, _ = trained
    demo = collect_demonstration(hand, _push(6), steps=6, ramp_steps=3)
    directions = fit_actuation_directions(hand)
    task = RolloutTask(points, demos=(demo,), steps=4)
    report = rollout(params, hand, model, directions, task, seed=6)
    assert not report.aborted and report.fail_step is None
    assert report.steps == 4
    assert report.replans == 2  # exec_horizon 2 per replan
    assert len(report.per_step_ref_error_mm) == 4
    assert all(math.isfinite(v) for v in report.per_step_ref_error_mm)
    assert math.isfinite(report.deviation_mm) and report.path_length_mm > 0
    assert report.nearest_demo == 0
    assert report.seed == 6
    again = rollout(params, hand, model, directions, task, seed=6)
    assert again == report
