"""Closed-loop controller tests: direction fitting, step laws, tracking."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from softprop import pool
from softprop.controller import (
    ActuationDirections,
    ControllerConfig,
    ReferenceTrajectory,
    fit_actuation_directions,
    load_reference,
    save_reference,
    shape_step,
    strain_step,
    track_trajectory,
)
from softprop.datafiles import save_dataset
from softprop.errors import (
    DegenerateDataError,
    MissingArtifactError,
    SolverFailure,
)
from softprop.estimator import TrainConfig, train
from softprop.simulator import (
    DatasetConfig,
    HandModel,
    build_canonical_finger,
    generate_dataset,
    rollout_commands,
    solve_equilibrium,
    solve_hand,
)


@pytest.fixture(scope="module")
def hand():
    return HandModel.build_standard(segments=4, length_mm=24.0)


@pytest.fixture(scope="module")
def model(hand):
    frames = generate_dataset(
        hand,
        DatasetConfig(frames=50, force_prob=0.5, force_mag_mn=(5.0, 25.0),
                      max_command=0.8),
        seed=7,
    )
    trained, _ = train(frames, hand, TrainConfig(epochs=25, batch=64, lr=3e-3),
                       seed=11)
    return trained


@pytest.fixture(scope="module")
def directions(hand):
    return fit_actuation_directions(hand, probe_amplitude=0.2)


def smoothstep(x):
    return x * x * (3.0 - 2.0 * x)


@pytest.fixture(scope="module")
def ramp_ref(hand):
    # one tendon target approached along a smoothstep, then held
    target = np.array([0.55, 0.1, 0.3, 0.0, 0.0, 0.45])
    commands = [target * smoothstep(min(1.0, (t + 1) / 40.0)) for t in range(60)]
    return ReferenceTrajectory.from_frames(
        rollout_commands(hand, commands), hand, source="tendon"
    )


@pytest.fixture(scope="module")
def hold_ref(hand):
    target = np.array([0.55, 0.1, 0.3, 0.0, 0.0, 0.45])
    return ReferenceTrajectory.from_frames(
        rollout_commands(hand, [target] * 40), hand, source="tendon"
    )


def axis_directions():
    """Synthetic directions: descriptor plane = xy, channels = x and y."""
    basis = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    return ActuationDirections(basis, np.eye(2), 0.2)


def test_controller_config_validation():
    cfg = ControllerConfig()
    assert cfg.k_p > 0 and cfg.clip > 0 and cfg.rate_hz > 0
    for kwargs in ({"k_p": 0.0}, {"clip": -0.1}, {"rate_hz": 0.0},
                   {"strain_gain": -1.0}):
        with pytest.raises(ValueError):
            ControllerConfig(**kwargs)


def test_actuation_directions_validation():
    good = axis_directions()
    assert good.basis.shape == (2, 3) and good.dirs.shape == (2, 2)
    bad_basis = good.basis.copy()
    bad_basis[1] *= 2.0
    with pytest.raises(ValueError, match="unit norm"):
        ActuationDirections(bad_basis, good.dirs, 0.2)
    with pytest.raises(ValueError, match="shapes"):
        ActuationDirections(good.basis[:1], good.dirs[:1], 0.2)


def test_fit_rejects_bad_amplitude(hand):
    for amp in (0.0, -0.2, 1.5):
        with pytest.raises(ValueError, match="amplitude"):
            fit_actuation_directions(hand, probe_amplitude=amp)


def test_fitted_directions_are_lateral_units(directions):
    # responses live in the lateral plane and the two channels of the
    # finger probe nearly perpendicular directions
    assert np.abs(directions.basis[:, 2]).max() == 0.0
    norms = np.linalg.norm(directions.basis, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-12
    assert abs(directions.basis[0] @ directions.basis[1]) < 0.1
    assert abs(directions.dirs[0] @ directions.dirs[1]) < 0.1


def test_probe_amplitude_barely_moves_basis(hand, directions):
    # fitted directions are a property of the finger, not the probe size
    bigger = fit_actuation_directions(hand, probe_amplitude=0.4)
    cosines = (directions.basis * bigger.basis).sum(axis=1)
    assert cosines.min() > np.cos(np.deg2rad(1.0))


def test_limp_tendon_is_degenerate():
    limp = build_canonical_finger(segments=4, length_mm=24.0,
                                  tendon_stiffness=0.0)
    mounts = HandModel.build_standard(segments=4, length_mm=24.0).mounts
    with pytest.raises(DegenerateDataError) as info:
        fit_actuation_directions(HandModel((limp,) * 3, mounts))
    assert info.value.sensor_indices == (0,)


def test_fit_probes_the_one_finger_once_per_channel(hand, one_cpu, monkeypatch):
    # One solve_hand probes both channels, one per finger; the third finger
    # stays at rest and converges at once. One allowed CPU keeps the solves
    # in this process, where they are counted.
    calls = []

    def counting_solve(finger, u2, *args, **kwargs):
        out = solve_equilibrium(finger, u2, *args, **kwargs)
        calls.append((finger, np.asarray(u2).tolist(), out.stats.iterations))
        return out

    monkeypatch.setattr("softprop.simulator.solve_equilibrium", counting_solve)
    fit_actuation_directions(hand)
    assert all(f is hand.fingers[0] for f, _, _ in calls)
    assert [u2 for _, u2, _ in calls] == [[0.2, 0.0], [0.0, 0.2], [0.0, 0.0]]
    assert calls[2][2] == 0


def test_pooled_fit_equals_in_process_fit(hand, two_cpus, monkeypatch):
    pooled = fit_actuation_directions(hand)
    monkeypatch.setattr(pool.os, "sched_getaffinity", lambda pid: {0})
    serial = fit_actuation_directions(hand)
    assert np.array_equal(pooled.basis, serial.basis)
    assert np.array_equal(pooled.dirs, serial.dirs)
    assert pooled.probe_amplitude == serial.probe_amplitude


def test_shape_step_zero_error_is_zero():
    cfg = ControllerConfig()
    field = np.zeros((3, 5, 3))
    assert np.all(shape_step(field, field, axis_directions(), cfg) == 0.0)


def test_shape_step_projects_onto_channel_directions():
    cfg = ControllerConfig(k_p=0.02, clip=10.0)
    current = np.zeros((3, 5, 3))
    desired = np.zeros((3, 5, 3))
    desired[0, :, 0] = 0.25  # summed error (1.25, 0, 0) on finger 0
    du = shape_step(current, desired, axis_directions(), cfg)
    assert du[0] == cfg.k_p * 1.25
    assert np.all(du[1:] == 0.0)
    desired[:] = 0.0
    desired[2, :, 1] = -0.25  # finger 2, second channel, negative way
    du = shape_step(current, desired, axis_directions(), cfg)
    assert du[5] == -cfg.k_p * 1.25
    assert np.all(du[:5] == 0.0)


def test_shape_step_clips_componentwise():
    cfg = ControllerConfig(k_p=0.02, clip=0.05)
    current = np.zeros((3, 4, 3))
    desired = np.zeros((3, 4, 3))
    desired[0, :, 0] = 100.0
    desired[1, :, 1] = -100.0
    du = shape_step(current, desired, axis_directions(), cfg)
    assert du[0] == cfg.clip
    assert du[3] == -cfg.clip
    assert np.abs(du).max() <= cfg.clip


def test_shape_step_is_linear_below_clip():
    cfg = ControllerConfig(k_p=0.01, clip=1e9)
    rng = np.random.default_rng(3)
    current = np.zeros((3, 6, 3))  # doubling the target is then exact
    desired = rng.normal(scale=0.1, size=(3, 6, 3))
    du = shape_step(current, desired, axis_directions(), cfg)
    doubled = shape_step(current, 2.0 * desired, axis_directions(), cfg)
    assert np.array_equal(doubled, 2.0 * du)


def test_shape_step_rejects_mismatched_fields():
    cfg = ControllerConfig()
    with pytest.raises(ValueError, match="correspond"):
        shape_step(np.zeros((3, 5, 3)), np.zeros((3, 6, 3)),
                   axis_directions(), cfg)
    with pytest.raises(ValueError, match="expected"):
        shape_step(np.zeros((2, 5, 3)), np.zeros((2, 5, 3)),
                   axis_directions(), cfg)


@pytest.mark.parametrize("sensor", range(12))
def test_strain_step_single_sensor_drives_one_channel(sensor):
    cfg = ControllerConfig(strain_gain=0.5, clip=10.0)
    desired = np.zeros(12)
    desired[sensor] = 0.04
    du = strain_step(np.zeros(12), desired, cfg)
    finger, ring = divmod(sensor, 4)
    channel = 2 * finger + (ring % 2)
    sign = 1.0 if ring >= 2 else -1.0
    assert du[channel] == sign * cfg.strain_gain * 0.02
    others = np.delete(du, channel)
    assert np.all(others == 0.0)


def test_strain_step_clips_and_validates():
    cfg = ControllerConfig(strain_gain=3.0, clip=0.05)
    desired = np.zeros(12)
    desired[2] = 1.0
    du = strain_step(np.zeros(12), desired, cfg)
    assert du[0] == cfg.clip
    with pytest.raises(ValueError, match="12"):
        strain_step(np.zeros(11), np.zeros(11), cfg)


def test_reference_trajectory_validation():
    t = np.arange(3.0)
    vertices = np.zeros((3, 3, 4, 3))
    strains = np.zeros((3, 12))
    rest = np.zeros((3, 4, 3))
    ReferenceTrajectory(t, vertices, strains, rest)
    with pytest.raises(ValueError, match="increasing"):
        ReferenceTrajectory(t[::-1].copy(), vertices, strains, rest)
    with pytest.raises(ValueError, match="increasing"):
        ReferenceTrajectory(np.array([0.0, 0.0, 1.0]), vertices, strains, rest)
    with pytest.raises(ValueError, match="at least one"):
        ReferenceTrajectory(np.zeros(0), vertices[:0], strains[:0], rest)
    with pytest.raises(ValueError, match="vertices"):
        ReferenceTrajectory(t, vertices[:, :2], strains, rest)
    with pytest.raises(ValueError, match=r"\(T, 12\)"):
        ReferenceTrajectory(t, vertices, strains[:, :7], rest)
    with pytest.raises(ValueError, match="rest_vertices"):
        ReferenceTrajectory(t, vertices, strains, rest[:, :3])
    bad = strains.copy()
    bad[1, 4] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        ReferenceTrajectory(t, vertices, bad, rest)


def test_reference_from_frames_matches_surfaces(hand):
    commands = [np.zeros(6), np.full(6, 0.3)]
    frames = rollout_commands(hand, commands)
    ref = ReferenceTrajectory.from_frames(frames, hand, source="tendon")
    assert len(ref) == 2
    assert np.array_equal(ref.times, np.arange(2.0))
    assert ref.source == "tendon"
    for j in range(3):
        assert np.array_equal(ref.vertices[1, j],
                              frames[1].nodes[j][hand.fingers[j].rest.surface_map])
        assert np.array_equal(ref.rest_vertices[j],
                              hand.fingers[j].surface.vertices)
    rest_lengths = np.concatenate([f.sensor_rest_lengths for f in hand.fingers])
    expected = frames[0].sensor_lengths / rest_lengths - 1.0
    assert np.array_equal(ref.strains[0], expected)
    deltas = ref.vertices - ref.rest_vertices[None]
    assert ref.peak_deflection_mm == np.sqrt(
        (deltas ** 2).sum(axis=3)
    ).max()


def test_reference_round_trip(tmp_path, hand):
    commands = [np.full(6, 0.2), np.full(6, 0.4), np.full(6, 0.5)]
    frames = rollout_commands(hand, commands)
    save_reference(tmp_path / "ref", hand, frames, seed=3)
    loaded = load_reference(tmp_path / "ref", hand)
    direct = ReferenceTrajectory.from_frames(frames, hand)
    assert loaded.source == "reference"
    assert np.array_equal(loaded.vertices, direct.vertices)
    assert np.array_equal(loaded.strains, direct.strains)
    with pytest.raises(MissingArtifactError, match="track"):
        load_reference(tmp_path / "absent", hand)
    other = HandModel.build_standard(segments=5, length_mm=24.0)
    with pytest.raises(ValueError):
        load_reference(tmp_path / "ref", other)


def test_load_reference_rejects_training_data(tmp_path, hand):
    frames = rollout_commands(hand, [np.full(6, 0.2)])
    save_dataset(tmp_path / "train", hand, frames, seed=1, role="training")
    with pytest.raises(ValueError, match="role"):
        load_reference(tmp_path / "train", hand)


def test_track_rest_reference_is_exact(hand, model, directions):
    # already at the reference: estimator bias never enters because the
    # solved surface, not the estimate, is scored
    frames = rollout_commands(hand, [np.zeros(6)] * 8)
    ref = ReferenceTrajectory.from_frames(frames, hand, source="tendon")
    report = track_trajectory(hand, model, directions, ref, mode="shape")
    assert report.final_mm == 0.0
    assert max(report.per_step_error_mm) == 0.0
    assert not report.aborted


def test_track_tendon_ramp_shape_mode(hand, model, directions, ramp_ref):
    report = track_trajectory(hand, model, directions, ramp_ref, mode="shape")
    assert len(report.per_step_error_mm) == len(ramp_ref)
    assert report.peak_deflection_mm > 5.0
    assert report.final_mm <= 0.05 * report.peak_deflection_mm
    assert report.final_mm < 0.25
    assert report.mode == "shape" and report.ref_source == "tendon"


def test_track_strain_mode_reaches_tendon_reference(hand, model, directions,
                                                    hold_ref):
    report = track_trajectory(hand, model, directions, hold_ref, mode="strain")
    errors = np.array(report.per_step_error_mm)
    assert report.final_mm < 0.02
    tail = errors[len(errors) // 5:]
    assert np.all(tail[1:] <= tail[:-1] * 1.05 + 1e-12)


def test_track_shape_mode_settles_without_oscillation(hand, model, directions,
                                                      hold_ref):
    cfg = ControllerConfig(k_p=0.01)
    report = track_trajectory(hand, model, directions, hold_ref, cfg,
                              mode="shape")
    errors = np.array(report.per_step_error_mm)
    assert report.final_mm < 0.2
    tail = errors[len(errors) // 5:]
    assert np.all(tail[1:] <= tail[:-1] * 1.05 + 1e-12)


def test_track_is_deterministic(hand, model, directions, hold_ref):
    first = track_trajectory(hand, model, directions, hold_ref, mode="shape")
    second = track_trajectory(hand, model, directions, hold_ref, mode="shape")
    assert first.per_step_error_mm == second.per_step_error_mm
    assert first.final_mm == second.final_mm


def test_track_rejects_unknown_mode(hand, model, directions, hold_ref):
    with pytest.raises(ValueError, match="mode"):
        track_trajectory(hand, model, directions, hold_ref, mode="velocity")


def test_track_rejects_foreign_reference(hand, model, directions, hold_ref):
    shaved = ReferenceTrajectory(
        hold_ref.times,
        hold_ref.vertices[:, :, :-1],
        hold_ref.strains,
        hold_ref.rest_vertices[:, :-1],
        hold_ref.source,
    )
    with pytest.raises(ValueError, match="vertex count"):
        track_trajectory(hand, model, directions, shaved, mode="strain")


def test_track_partial_abort(hand, model, directions, hold_ref, monkeypatch):
    calls = {"n": 0}

    def failing_solve(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 4:  # initial solve + two steps succeed
            raise SolverFailure("forced failure")
        return solve_hand(*args, **kwargs)

    monkeypatch.setattr("softprop.controller.solve_hand", failing_solve)
    report = track_trajectory(hand, model, directions, hold_ref, mode="strain")
    assert report.aborted
    assert report.fail_step == 2
    assert len(report.per_step_error_mm) == 2
    assert report.final_mm == report.per_step_error_mm[-1]


def test_track_immediate_failure_raises(hand, model, directions, hold_ref,
                                        monkeypatch):
    def failing_solve(*args, **kwargs):
        if kwargs.get("x0s") is not None:
            raise SolverFailure("forced failure")
        return solve_hand(*args, **kwargs)

    monkeypatch.setattr("softprop.controller.solve_hand", failing_solve)
    with pytest.raises(SolverFailure, match="single step"):
        track_trajectory(hand, model, directions, hold_ref, mode="strain")


def test_track_passes_the_previous_command(hand, model, directions, hold_ref,
                                           monkeypatch):
    # Each control step's solve starts from the last frame's nodes and names
    # that frame's command, so the solver's first step is the tangent
    # predictor from the old command to the new one.
    calls = []

    def spy(*args, **kwargs):
        out = solve_hand(*args, **kwargs)
        calls.append((kwargs.get("x0s"), kwargs.get("u0"), out[0]))
        return out

    monkeypatch.setattr("softprop.controller.solve_hand", spy)
    short = ReferenceTrajectory(hold_ref.times[:4], hold_ref.vertices[:4],
                                hold_ref.strains[:4], hold_ref.rest_vertices,
                                hold_ref.source)
    track_trajectory(hand, model, directions, short, mode="shape")
    assert len(calls) == 5  # the rest frame, then one solve per step
    assert calls[0][0] is None and calls[0][1] is None
    for (_, _, prev), (x0s, u0, frame) in zip(calls, calls[1:]):
        assert x0s is prev.nodes
        assert u0 is prev.command
        assert not np.array_equal(frame.command, prev.command)


def test_track_report_as_dict_is_json_ready(hand, model, directions):
    frames = rollout_commands(hand, [np.zeros(6)] * 2)
    ref = ReferenceTrajectory.from_frames(frames, hand)
    report = track_trajectory(hand, model, directions, ref, mode="strain")
    payload = json.loads(json.dumps(asdict(report)))
    assert payload == {**asdict(report),
                       "per_step_error_mm": list(report.per_step_error_mm)}
    assert payload["aborted"] is False and payload["fail_step"] is None
    assert payload["per_step_error_mm"] == list(report.per_step_error_mm)
