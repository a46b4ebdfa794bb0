"""Tests for the derivative-free optimizer and domain alignment."""

import math
import multiprocessing
import os

import numpy as np
import pytest

from softprop import calibration, simulator
from softprop.calibration import (
    CALSET_PAYLOAD,
    AlignParams,
    CalibrationSample,
    CalibrationSet,
    CmaConfig,
    align_domains,
    alignment_loss,
    alignment_report,
    cma_es_minimize,
    load_calibration_set,
    predict_observed_cloud,
    save_calibration_set,
    synthesize_calibration_set,
)
from softprop.errors import MissingArtifactError, OptimizationError
from softprop.estimator import TrainConfig, train
from softprop.sensors import ResistanceFrame, SensorCalibration
from softprop.simulator import DatasetConfig, HandModel, generate_dataset, solve_hand


def sphere(x):
    return float(x @ x)


def rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


# ---------------------------------------------------------------------------
# Optimizer.


def test_cma_config_validation():
    with pytest.raises(ValueError, match="sigma0"):
        CmaConfig(sigma0=0.0)
    with pytest.raises(ValueError, match="max_evals"):
        CmaConfig(max_evals=0)
    with pytest.raises(ValueError, match="population"):
        CmaConfig(popsize=3)
    with pytest.raises(ValueError, match="finite"):
        CmaConfig(mean0=np.array([1.0, np.nan]))
    with pytest.raises(ValueError, match="dim"):
        cma_es_minimize(sphere, 0, CmaConfig(), seed=0)
    with pytest.raises(ValueError, match="mean0"):
        cma_es_minimize(sphere, 3, CmaConfig(mean0=np.ones(5)), seed=0)


def test_cma_sphere_benchmark():
    # 10-d sphere started from the all-ones point: reaches 1e-10 well
    # inside a 4000-evaluation budget for every seed.
    for seed in range(5):
        cfg = CmaConfig(
            sigma0=0.5, mean0=np.ones(10), max_evals=4000, target_loss=1e-10
        )
        x, f, history = cma_es_minimize(sphere, 10, cfg, seed)
        assert f < 1e-10
        assert history[-1]["evaluations"] <= 4000
        assert np.abs(x).max() < 1e-4


def test_cma_rosenbrock_benchmark():
    # 2-d Rosenbrock valley: reaches 1e-6 well inside 20000 evaluations.
    for seed in range(5):
        cfg = CmaConfig(sigma0=0.5, max_evals=20000, target_loss=1e-6)
        x, f, history = cma_es_minimize(rosenbrock, 2, cfg, seed)
        assert f < 1e-6
        assert history[-1]["evaluations"] <= 20000
        assert np.abs(x - 1.0).max() < 1e-2


def test_cma_constant_objective_runs_to_budget():
    # No descent direction exists; the run must still terminate at the
    # evaluation budget (generation-granular, so up to one population of
    # overshoot) with the initial point still the incumbent.
    cfg = CmaConfig(sigma0=0.3, max_evals=500)
    x, f, history = cma_es_minimize(lambda x: 7.5, 5, cfg, seed=0)
    assert f == 7.5
    assert np.array_equal(x, np.zeros(5))
    lam = 4 + int(3 * math.log(5))
    assert 500 <= history[-1]["evaluations"] < 500 + lam


def test_cma_is_deterministic():
    cfg = CmaConfig(sigma0=0.5, mean0=np.ones(6), max_evals=800)
    x1, f1, h1 = cma_es_minimize(sphere, 6, cfg, seed=3)
    x2, f2, h2 = cma_es_minimize(sphere, 6, cfg, seed=3)
    assert np.array_equal(x1, x2) and f1 == f2 and h1 == h2
    x3, f3, _ = cma_es_minimize(sphere, 6, cfg, seed=4)
    assert not np.array_equal(x1, x3)


def test_cma_errored_candidates_become_inf():
    # A region where the objective raises must not kill the run; those
    # candidates simply rank last.
    def partial(x):
        if x[0] > 0.5:
            raise RuntimeError("sensor unplugged")
        return float(x @ x)

    cfg = CmaConfig(sigma0=0.4, mean0=np.full(3, -1.0), max_evals=3000, target_loss=1e-8)
    x, f, history = cma_es_minimize(partial, 3, cfg, seed=1)
    assert f < 1e-8
    assert x[0] <= 0.5


def test_cma_objective_bug_propagates():
    # Only numerical and package errors score +inf; a programming error in
    # the objective must surface rather than rank last.
    calls = []

    def buggy(x):
        calls.append(x)
        if len(calls) == 3:
            raise TypeError("unsupported operand")
        return float(x @ x)

    with pytest.raises(TypeError, match="unsupported operand"):
        cma_es_minimize(buggy, 3, CmaConfig(max_evals=100), seed=0)


def test_cma_all_errors_raise():
    def broken(x):
        raise RuntimeError("no data")

    with pytest.raises(OptimizationError, match="generation"):
        cma_es_minimize(broken, 4, CmaConfig(max_evals=100), seed=0)


def test_cma_nonfinite_loss_counts_as_error():
    with pytest.raises(OptimizationError):
        cma_es_minimize(lambda x: math.nan, 4, CmaConfig(max_evals=100), seed=0)


def test_cma_degenerate_axis_keeps_running():
    # Objective flat along x[1]: the covariance collapses along that axis
    # and the eigenvalue floor must keep sampling valid to the end.
    cfg = CmaConfig(sigma0=0.5, mean0=np.array([2.0, 2.0]), max_evals=2000)
    x, f, history = cma_es_minimize(lambda x: x[0] ** 2, 2, cfg, seed=0)
    assert math.isfinite(f)
    assert f < 1e-8
    assert all(math.isfinite(h["sigma"]) for h in history)


def test_cma_history_is_elitist():
    cfg = CmaConfig(sigma0=0.5, mean0=np.ones(4), max_evals=600)
    _, f, history = cma_es_minimize(sphere, 4, cfg, seed=2)
    best = [h["best_so_far"] for h in history]
    assert all(b >= a for a, b in zip(best[1:], best[:-1]))
    assert best[-1] == f
    assert [h["generation"] for h in history] == list(range(1, len(history) + 1))


# ---------------------------------------------------------------------------
# Alignment parameter plumbing.


def test_align_params_validation():
    with pytest.raises(ValueError, match="kappa"):
        AlignParams(np.ones(12), np.zeros(3))
    with pytest.raises(ValueError, match="phi"):
        AlignParams(np.ones(24), np.zeros(2))
    with pytest.raises(ValueError, match="positive"):
        AlignParams(np.concatenate([[0.0], np.ones(23)]), np.zeros(3))
    with pytest.raises(ValueError, match="positive"):
        AlignParams(np.full(24, np.nan), np.zeros(3))
    with pytest.raises(ValueError, match="angles"):
        AlignParams(np.ones(24), np.array([0.0, 4.0, 0.0]))


def test_align_params_identity_and_vectors():
    ident = AlignParams.identity()
    assert np.array_equal(ident.kappa, np.ones(24))
    assert np.array_equal(ident.phi, np.zeros(3))
    theta = ident.vector()
    assert theta.shape == (27,)
    back = AlignParams.from_vector(theta)
    assert np.array_equal(back.kappa, ident.kappa)
    assert np.array_equal(back.phi, ident.phi)

    # Out-of-range angles wrap onto [-pi, pi] preserving the rotation.
    wrapped = AlignParams.from_vector(
        np.concatenate([np.full(24, 0.8), [3.5, -3.5, 0.1]])
    )
    assert np.all(np.abs(wrapped.phi) <= math.pi)
    np.testing.assert_allclose(np.cos(wrapped.phi), np.cos([3.5, -3.5, 0.1]), atol=1e-12)
    np.testing.assert_allclose(np.sin(wrapped.phi), np.sin([3.5, -3.5, 0.1]), atol=1e-12)

    cal = ident.sensor_calibration(np.full(12, 50.0))
    assert isinstance(cal, SensorCalibration)
    assert np.array_equal(cal.r0, np.full(12, 50.0))


def test_calibration_set_validation():
    reading = ResistanceFrame(np.full(12, 100.0))
    mounts = HandModel.build_standard(segments=4, length_mm=12.0).mounts
    sample = CalibrationSample(reading, np.zeros((5, 3)), mounts)
    with pytest.raises(ValueError, match="at least one"):
        CalibrationSet(())
    with pytest.raises(ValueError, match="baseline_index"):
        CalibrationSet((sample,), baseline_index=1)
    with pytest.raises(ValueError, match="mount"):
        CalibrationSample(reading, np.zeros((5, 3)), mounts[:2])
    with pytest.raises(ValueError, match="cloud"):
        CalibrationSample(reading, np.zeros((0, 3)), mounts)
    calset = CalibrationSet((sample, sample))
    assert len(calset) == 2
    assert np.array_equal(calset.r0, reading.r)


# ---------------------------------------------------------------------------
# Alignment on synthesized domains (small hand, quickly trained model).


@pytest.fixture(scope="module")
def smoke_hand():
    return HandModel.build_standard(segments=4, length_mm=24.0)


@pytest.fixture(scope="module")
def smoke_model(smoke_hand):
    frames = generate_dataset(
        smoke_hand,
        DatasetConfig(
            frames=50, force_prob=0.5, force_mag_mn=(5.0, 25.0), max_command=0.8
        ),
        seed=7,
    )
    model, _ = train(
        frames, smoke_hand, TrainConfig(epochs=25, batch=64, lr=3e-3), seed=11
    )
    return model


@pytest.fixture(scope="module")
def cal_frames(smoke_hand):
    commands = [
        np.zeros(6),
        np.array([0.6, 0.0, 0.0, 0.0, 0.0, 0.0]),
        np.array([0.0, 0.0, 0.5, 0.2, 0.0, 0.0]),
        np.array([0.2, 0.1, 0.0, 0.0, 0.6, 0.0]),
        np.array([0.4, 0.0, 0.3, 0.0, 0.1, 0.2]),
    ]
    return [solve_hand(smoke_hand, c)[0] for c in commands]


@pytest.fixture(scope="module")
def phi_calset(smoke_hand, cal_frames):
    # Identity sensors, one finger mounted 0.2 rad off nominal.
    return synthesize_calibration_set(
        smoke_hand,
        cal_frames,
        SensorCalibration.ideal(),
        np.array([0.2, 0.0, 0.0]),
        seed=6,
    )


@pytest.fixture(scope="module")
def phi_align_result(smoke_model, smoke_hand, phi_calset):
    return align_domains(
        smoke_model,
        smoke_hand,
        phi_calset,
        CmaConfig(sigma0=0.3, max_evals=400),
        seed=0,
    )


def test_synthesized_baseline_reads_rest_resistance(smoke_hand, cal_frames):
    true_cal = SensorCalibration(
        np.full(12, 70.0), np.full(12, 1.3), np.full(12, 0.8)
    )
    calset = synthesize_calibration_set(
        smoke_hand, cal_frames[:2], true_cal, np.zeros(3), seed=1
    )
    # The first frame is rest: zero strain reads exactly R0 regardless of
    # the planted correction factors.
    assert np.array_equal(calset.r0, np.full(12, 70.0))
    assert calset.samples[0].cloud.shape == (1500, 3)
    assert calset.samples[1].resistances.timestamp == 1.0


def test_alignment_loss_invariant_to_sample_order(smoke_model, smoke_hand, phi_calset):
    params = AlignParams.identity()
    base = alignment_loss(smoke_model, smoke_hand, phi_calset, params)
    # Keep the rest sample in front (it defines R0), shuffle the rest.
    reordered = CalibrationSet(
        (phi_calset.samples[0],) + phi_calset.samples[1:][::-1]
    )
    swapped = alignment_loss(smoke_model, smoke_hand, reordered, params)
    assert math.isclose(base, swapped, rel_tol=1e-12)


def test_alignment_loss_is_brute_force_chamfer(smoke_model, smoke_hand, phi_calset):
    rng = np.random.default_rng(31)
    for _ in range(3):
        params = AlignParams(rng.uniform(0.7, 1.3, size=24), rng.uniform(-0.3, 0.3, size=3))
        clouds = calibration._sample_clouds(smoke_model, smoke_hand, phi_calset, params)
        want = 0.0
        for sample, predicted in zip(phi_calset.samples, clouds):
            diff = sample.cloud[:, None, :] - predicted[None]
            term = 0.0
            for value in (diff * diff).sum(axis=2).min(axis=1).tolist():
                term += value
            want += term
        assert alignment_loss(smoke_model, smoke_hand, phi_calset, params) == want


def test_identity_domain_alignment_never_worse(smoke_model, smoke_hand, cal_frames):
    calset = synthesize_calibration_set(
        smoke_hand, cal_frames[:3], SensorCalibration.ideal(), np.zeros(3), seed=8
    )
    init_loss = alignment_loss(smoke_model, smoke_hand, calset, AlignParams.identity())
    result = align_domains(
        smoke_model, smoke_hand, calset, CmaConfig(sigma0=0.3, max_evals=150), seed=0
    )
    assert result.loss <= init_loss


def test_planted_domain_alignment_improves(smoke_model, smoke_hand, phi_calset,
                                           phi_align_result):
    init_loss = alignment_loss(
        smoke_model, smoke_hand, phi_calset, AlignParams.identity()
    )
    assert phi_align_result.loss < init_loss
    # The planted offset is on finger 0; the fit must move decisively
    # toward it even with a small evaluation budget.
    assert abs(phi_align_result.params.phi[0] - 0.2) < 0.1


def test_alignment_result_is_deterministic(smoke_model, smoke_hand, phi_calset,
                                           phi_align_result):
    again = align_domains(
        smoke_model,
        smoke_hand,
        phi_calset,
        CmaConfig(sigma0=0.3, max_evals=400),
        seed=0,
    )
    assert np.array_equal(again.params.kappa, phi_align_result.params.kappa)
    assert np.array_equal(again.params.phi, phi_align_result.params.phi)
    assert again.loss == phi_align_result.loss


def test_alignment_report_contract(smoke_model, smoke_hand, phi_calset,
                                   phi_align_result):
    before = AlignParams.identity()
    report = alignment_report(
        smoke_model, smoke_hand, phi_calset, before, phi_align_result
    )
    curve = report["loss_curve"]
    assert len(curve) == report["generations"] == len(phi_align_result.history)
    assert all(b >= a for a, b in zip(curve[1:], curve[:-1]))
    assert report["after_loss"] == phi_align_result.loss
    assert report["after_loss"] < report["before_loss"]
    assert len(report["before_mean_nn_mm"]) == len(phi_calset)
    assert len(report["kappa"]) == 24 and len(report["phi"]) == 3
    assert report["evaluations"] == phi_align_result.history[-1]["evaluations"]


def test_predict_observed_cloud_is_posed_union(smoke_model, smoke_hand, phi_calset):
    sample = phi_calset.samples[0]
    cloud = predict_observed_cloud(
        smoke_model,
        smoke_hand,
        AlignParams.identity(),
        phi_calset.r0,
        sample.resistances.r,
        sample.mounts,
    )
    verts_per_finger = smoke_hand.fingers[0].surface.vertices.shape[0]
    assert cloud.shape == (3 * verts_per_finger, 3)
    assert np.isfinite(cloud).all()
    # Fingers are mounted apart; the union must not collapse onto one mount.
    spans = cloud[:, 0].max() - cloud[:, 0].min()
    assert spans > smoke_hand.fingers[0].radius_mm


# ---------------------------------------------------------------------------
# Generations scored in the pool.

# 9 candidates a generation: shares of 4 and 5 on two workers.
POOLED_CFG = CmaConfig(sigma0=0.3, popsize=9, max_evals=1 + 2 * 9)


def _worker_pids():
    return sorted(p.pid for p in multiprocessing.active_children())


def _record_generations(monkeypatch):
    """(candidates, losses) of every generation align_domains scores from
    now on, as the search receives them."""
    real, generations = calibration.cma_es_minimize, []

    def spy(objective, dim, cfg, seed, score_generation):
        def recorded(candidates):
            losses = score_generation(candidates)
            generations.append((candidates.copy(), list(losses)))
            return losses

        return real(objective, dim, cfg, seed, score_generation=recorded)

    monkeypatch.setattr(calibration, "cma_es_minimize", spy)
    return generations


def test_pooled_alignment_equals_one_cpu_alignment(smoke_model, smoke_hand, phi_calset,
                                                   two_cpus, one_blas_thread,
                                                   monkeypatch):
    generations = _record_generations(monkeypatch)
    pooled = align_domains(smoke_model, smoke_hand, phi_calset, POOLED_CFG, seed=2)
    assert len(_worker_pids()) == 2
    pooled_losses = [losses for _, losses in generations]
    generations.clear()
    monkeypatch.setattr(simulator.os, "sched_getaffinity", lambda pid: {0})
    serial = align_domains(smoke_model, smoke_hand, phi_calset, POOLED_CFG, seed=2)
    assert pooled_losses == [losses for _, losses in generations]
    assert np.array_equal(pooled.params.kappa, serial.params.kappa)
    assert np.array_equal(pooled.params.phi, serial.params.phi)
    assert pooled.loss == serial.loss
    assert pooled.history == serial.history


def test_alignment_scores_only_the_initial_mean_in_the_caller(smoke_model, smoke_hand,
                                                              phi_calset, two_cpus,
                                                              monkeypatch, tmp_path):
    log = tmp_path / "pids"
    real = calibration.alignment_loss

    def spy(*args):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(*args)

    monkeypatch.setattr(calibration, "alignment_loss", spy)
    generations = _record_generations(monkeypatch)
    align_domains(smoke_model, smoke_hand, phi_calset, POOLED_CFG, seed=0)
    pids = [int(line) for line in log.read_text().split()]
    workers = _worker_pids()
    assert len(workers) == 2 and os.getpid() not in workers
    # A candidate with a non-positive factor scores +inf unevaluated.
    scored = sum(int((thetas[:, :24].min(axis=1) > 0).sum()) for thetas, _ in generations)
    assert len(generations) == 2 and scored > 0
    assert len(pids) == 1 + scored
    assert pids[0] == os.getpid()
    assert set(pids[1:]) <= set(workers)


def test_value_error_in_a_worker_scores_inf_and_is_never_selected(
        smoke_model, smoke_hand, phi_calset, two_cpus, monkeypatch):
    generations = _record_generations(monkeypatch)
    reference = align_domains(smoke_model, smoke_hand, phi_calset, POOLED_CFG, seed=0)
    candidates, losses = generations[0]
    best = int(np.argmin(losses))
    planted = candidates[best, :24].copy()  # generation 1's best
    simulator._drop_pool()  # the next pool forks with the planted error
    parent = os.getpid()
    real = calibration.alignment_loss

    def planted_error(model, hand, calset, params):
        if os.getpid() != parent and np.array_equal(params.kappa, planted):
            raise ValueError("planted")
        return real(model, hand, calset, params)

    monkeypatch.setattr(calibration, "alignment_loss", planted_error)
    generations.clear()
    result = align_domains(smoke_model, smoke_hand, phi_calset, POOLED_CFG, seed=0)
    again, planted_losses = generations[0]
    assert np.array_equal(again, candidates)
    assert planted_losses[best] == math.inf
    assert np.delete(planted_losses, best).tolist() == np.delete(losses, best).tolist()
    assert result.history[0]["gen_best"] > reference.history[0]["gen_best"]
    assert not any(np.array_equal(thetas[:, :24], planted[None])
                   for thetas, _ in generations[1:])
    assert not np.array_equal(result.params.kappa, planted)


def test_uncaught_error_in_a_worker_reaches_the_caller_and_the_pool_stays(
        smoke_model, smoke_hand, phi_calset, two_cpus, monkeypatch, tmp_path):
    flag = tmp_path / "fail"
    flag.touch()
    parent = os.getpid()
    real = calibration.alignment_loss

    def flagged_error(*args):
        if os.getpid() != parent and flag.exists():
            raise KeyError("planted")
        return real(*args)

    monkeypatch.setattr(calibration, "alignment_loss", flagged_error)
    with pytest.raises(KeyError, match="planted"):
        align_domains(smoke_model, smoke_hand, phi_calset, POOLED_CFG, seed=0)
    workers = _worker_pids()
    assert len(workers) == 2
    flag.unlink()
    result = align_domains(smoke_model, smoke_hand, phi_calset, POOLED_CFG, seed=0)
    assert result.history[-1]["evaluations"] == POOLED_CFG.max_evals
    assert _worker_pids() == workers


# ---------------------------------------------------------------------------
# Calibration-set persistence.


def test_calibration_set_round_trip(tmp_path, smoke_hand, cal_frames):
    true_cal = SensorCalibration(
        np.full(12, 90.0), np.full(12, 1.2), np.full(12, 0.7)
    )
    calset = synthesize_calibration_set(
        smoke_hand, cal_frames[:3], true_cal, np.array([0.1, -0.1, 0.0]), seed=9
    )
    save_calibration_set(tmp_path / "calset", calset)
    loaded = load_calibration_set(tmp_path / "calset")
    assert len(loaded) == len(calset)
    assert loaded.baseline_index == calset.baseline_index
    for got, want in zip(loaded.samples, calset.samples):
        assert np.array_equal(got.cloud, want.cloud)
        assert np.array_equal(got.resistances.r, want.resistances.r)
        assert got.resistances.timestamp == want.resistances.timestamp
        for pg, pw in zip(got.mounts, want.mounts):
            assert np.array_equal(pg.rotation, pw.rotation)
            assert np.array_equal(pg.translation, pw.translation)


def test_load_missing_calibration_set_names_producer(tmp_path):
    with pytest.raises(MissingArtifactError, match="calibrate"):
        load_calibration_set(tmp_path / "nope")


def test_load_missing_cloud_names_producer(tmp_path, smoke_hand, cal_frames):
    calset = synthesize_calibration_set(
        smoke_hand, cal_frames[:2], SensorCalibration.ideal(), np.zeros(3), seed=2
    )
    root = save_calibration_set(tmp_path / "calset", calset)
    (root / CALSET_PAYLOAD).unlink()
    with pytest.raises(MissingArtifactError, match="calibrate") as exc:
        load_calibration_set(root)
    assert exc.value.path.endswith(CALSET_PAYLOAD)


def test_saved_calibration_set_holds_only_what_load_reads(tmp_path, smoke_hand, cal_frames):
    calset = synthesize_calibration_set(
        smoke_hand, cal_frames[:2], SensorCalibration.ideal(), np.zeros(3), seed=2
    )
    root = save_calibration_set(tmp_path / "calset", calset)
    assert sorted(p.name for p in root.iterdir()) == sorted(["manifest.json", CALSET_PAYLOAD])


# Bytes of one sample before its cloud: timestamp, 12 resistances, 3 poses.
_HEAD_BYTES = 8 * (1 + 12 + 3 * 12)


@pytest.mark.parametrize("cut", ["sample_boundary", "inside_cloud", "trailing"])
def test_load_rejects_payload_of_wrong_size(tmp_path, smoke_hand, cal_frames, cut):
    calset = synthesize_calibration_set(
        smoke_hand, cal_frames[:2], SensorCalibration.ideal(), np.zeros(3), seed=2,
        points_per_finger=10,
    )
    root = save_calibration_set(tmp_path / "calset", calset)
    payload = root / CALSET_PAYLOAD
    blob = payload.read_bytes()
    first = _HEAD_BYTES + 8 * calset.samples[0].cloud.size
    assert len(blob) == first + _HEAD_BYTES + 8 * calset.samples[1].cloud.size
    payload.write_bytes({
        "sample_boundary": blob[:first],
        "inside_cloud": blob[:-24],
        "trailing": blob + bytes(8),
    }[cut])
    with pytest.raises(ValueError, match=CALSET_PAYLOAD):
        load_calibration_set(root)


def test_load_rejects_foreign_manifest(tmp_path, smoke_hand, cal_frames):
    calset = synthesize_calibration_set(
        smoke_hand, cal_frames[:2], SensorCalibration.ideal(), np.zeros(3), seed=2
    )
    root = save_calibration_set(tmp_path / "calset", calset)
    manifest = root / "manifest.json"
    manifest.write_text(manifest.read_text().replace("calset/2", "calset/9"))
    with pytest.raises(ValueError, match="format"):
        load_calibration_set(root)
