"""The four benchmark workloads: datagen, servo, calib and learn.

Each workload has a set-up (build the hand and the workload's inputs), a
timed phase (the calls whose wall time the end-to-end metrics report), a
check of the program's outputs against `oracles`, and a fingerprint of
the work done. A run is split over WORKERS fresh processes; the plan gives
one worker's share of the work. It is derived from `--seconds` alone, so
every run with the same seed and seconds does exactly the same work; a
faster program finishes sooner rather than doing more.

The program is called through its module attributes (`simulator.solve_hand`,
never a name imported from it), so that a traced run sees the same calls.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles
from softprop import calibration, controller, datafiles, estimator, simulator
from softprop.errors import SolverFailure, TrainingError
from softprop.sensors import SensorCalibration

# Paper-default hand: 18 segments, 230 surface vertices and 702 free DOFs
# per finger. The test hand is the 4-segment hand of the unit tests.
HANDS = {
    "paper": {},
    "test": {"segments": 4, "length_mm": 24.0},
}

# Seconds per op measured on the reference host (2 cores, one BLAS thread);
# they only size the work from --seconds and never enter a metric.
NOMINAL_OP_S = {"datagen": 1.45, "servo": 0.26, "calib": 0.28, "learn": 0.45}

WORKERS = 3  # fresh processes per run, each with its own set-up

DATAGEN_BATCH = 3  # frames per generate_dataset call
DATAGEN_SEED_BASE = 1000  # batch k draws dataset seed BASE + k, k < WORKERS
SERVO_KEYFRAMES = 6  # per worker; each worker records its own walk
SERVO_WALK_SEED_BASE = 2000  # worker walks come from seeds BASE + k, k < WORKERS
CALIB_WALK = 5  # commanded frames after the rest frame
CALIB_WALK_SEED_BASE = 3000  # worker walks come from seeds BASE + k, k < WORKERS
CALIB_POINTS_PER_FINGER = 500  # 5 samples x 1500 observed points
CALIB_POPSIZE = 8  # the default for 27 parameters is 13; 8 fits two generations
CALIB_GENERATIONS = 2  # per align_domains call
# train() holds out round(0.1 * 71) = 7 of the 71 frames for validation,
# which leaves 64 frames x 3 fingers: three full minibatches of 64 an epoch.
LEARN_TRAIN_FRAMES = 71
LEARN_HELDOUT_FRAMES = 4
LEARN_STEP = 0.01  # command walk step; smaller steps solve faster in set-up
LEARN_EPOCHS = 4  # per train call


def build_hand(kind):
    return simulator.HandModel.build_standard(**HANDS[kind])


def plan(workload, seconds, worker=0):
    """One worker's share of a run of about `seconds` on the reference host."""
    ops = max(1.0, seconds / NOMINAL_OP_S[workload] / WORKERS)
    if workload == "datagen":
        return {"worker": worker, "batch": DATAGEN_BATCH,
                "rounds": max(1, round(ops / DATAGEN_BATCH))}
    if workload == "servo":
        return {"worker": worker, "keyframes": SERVO_KEYFRAMES,
                "hold": max(1, round(ops / SERVO_KEYFRAMES)), "train_epochs": 30}
    if workload == "calib":
        evals = 1 + CALIB_GENERATIONS * CALIB_POPSIZE
        return {"worker": worker, "walk": CALIB_WALK, "points": CALIB_POINTS_PER_FINGER,
                "max_evals": evals, "calls": max(1, round(ops / evals)),
                "train_epochs": 20}
    if workload == "learn":
        return {"worker": worker, "train_frames": LEARN_TRAIN_FRAMES,
                "heldout_frames": LEARN_HELDOUT_FRAMES, "epochs": LEARN_EPOCHS,
                "calls": max(1, round(ops / LEARN_EPOCHS))}
    raise KeyError(workload)


def _rng(seed, stream):
    return np.random.default_rng([int(seed), stream])


def command_walk(rng, steps, step, u_max=0.8):
    """Tendon commands that wander from rest by at most `step` per channel per step."""
    u = np.zeros(6)
    walk = []
    for _ in range(steps):
        u = np.clip(u + rng.uniform(-step, step, size=6), 0.0, u_max)
        walk.append(u.copy())
    return walk


def _quick_model(frames, hand, epochs, seed):
    """A shape model fitted to the given frames, as the servo and calib inputs."""
    cfg = estimator.TrainConfig(epochs=epochs, lr=3e-3, min_frames=len(frames),
                                refit_head=True)
    model, _ = estimator.train(frames, hand, cfg, seed)
    return model


def _call_seed(seed, plan, call):
    """Seed of a worker's call-th program call: distinct across the run's calls."""
    return int(seed) * 1000 + plan["worker"] * plan["calls"] + call


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()[:16]


class Timer:
    """Times the timed phase's program calls; a traced run also spans each."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.calls = []  # (wall seconds, ops completed)

    def call(self, ops_of, fn, *args, **kwargs):
        t0 = time.perf_counter()
        if self.tracer is None:
            out = fn(*args, **kwargs)
        else:
            out = self.tracer.record("bench.op", fn, args, kwargs)
        self.calls.append((time.perf_counter() - t0, ops_of(out)))
        return out


@dataclass
class Outcome:
    attempted: int
    failed: int
    data: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# datagen: the gen-data stage, cold staged Newton solves.


def datagen_setup(hand_kind, seed, plan, workdir):
    hand = build_hand(hand_kind)
    cfg = simulator.DatasetConfig(frames=plan["batch"])
    # The frames come from a fixed pool so every seed does the same solver
    # work; the seed only decides which worker solves which batch. Frames
    # drawn per seed took 1.0 to 1.9 s each, which nine frames do not
    # average out. One round is one batch per worker.
    order = [(seed + plan["worker"]) % WORKERS] * plan["rounds"]
    return {"hand": hand, "cfg": cfg, "order": order, "workdir": Path(workdir)}


def _datagen_batch(hand, cfg, dataset_seed, directory):
    frames = simulator.generate_dataset(hand, cfg, dataset_seed)
    datafiles.save_dataset(directory, hand, frames, dataset_seed)
    loaded, _ = datafiles.load_dataset(directory)
    return frames, loaded


def datagen_run(inputs, plan, seed, timer):
    hand, cfg = inputs["hand"], inputs["cfg"]
    batches = []
    for k in inputs["order"]:
        dataset_seed = DATAGEN_SEED_BASE + k
        directory = inputs["workdir"] / f"batch{len(batches)}"
        try:
            frames, loaded = timer.call(lambda out: len(out[0]), _datagen_batch,
                                        hand, cfg, dataset_seed, directory)
        except SolverFailure:  # every frame of the batch failed
            frames, loaded = [], []
        batches.append((dataset_seed, directory, frames, loaded))
    attempted = plan["batch"] * len(batches)
    done = sum(len(b[2]) for b in batches)
    return Outcome(attempted, attempted - done, {"batches": batches})


def datagen_check(inputs, outcome):
    hand = inputs["hand"]
    problems = []
    for dataset_seed, directory, frames, loaded in outcome.data["batches"]:
        if not frames:
            continue
        if not oracles.same_frames(frames, loaded):
            problems.append(f"dataset {dataset_seed}: load_dataset differs from the saved frames")
        again = directory.with_name(directory.name + "-again")
        datafiles.save_dataset(again, hand, loaded, dataset_seed)
        for name in (datafiles.MANIFEST_NAME, datafiles.BLOB_NAME):
            if (directory / name).read_bytes() != (again / name).read_bytes():
                problems.append(f"dataset {dataset_seed}: rewriting {name} changed its bytes")
        for i, frame in enumerate(loaded):
            for j, finger in enumerate(hand.fingers):
                where = f"dataset {dataset_seed} frame {i} finger {j}"
                x = frame.nodes[j]
                if oracles.tet_volumes(x, finger.rest.tets).min() <= 0.0:
                    problems.append(f"{where}: inverted tet")
                base = finger.base_fixed
                if not np.array_equal(x[base], finger.rest.nodes[base]):
                    problems.append(f"{where}: base nodes moved off rest")
                warm = simulator.solve_equilibrium(
                    finger, frame.command[2 * j: 2 * j + 2], forces=frame.forces[j],
                    e_scale=float(frame.e_scales[j]), x0=x,
                )
                if warm.stats.iterations != 0:
                    problems.append(
                        f"{where}: warm re-solve took {warm.stats.iterations} Newton "
                        "iterations, so the state is not an equilibrium"
                    )
    return problems


def datagen_fingerprint(outcome, inputs):
    frames = [f for b in outcome.data["batches"] for f in b[2]]
    h = hashlib.sha256(b"".join(oracles.frame_bytes(f) for f in frames))
    return {"frames": len(frames), "digest": h.hexdigest()[:16]}


# ---------------------------------------------------------------------------
# servo: the track stage, one shape-mode control step per call.


def servo_setup(hand_kind, seed, plan, workdir):
    hand = build_hand(hand_kind)
    directions = controller.fit_actuation_directions(hand)
    # Each worker tracks its own walk from a fixed pool of WORKERS walks; the
    # seed only decides which worker tracks which. The Newton iterations of
    # one worker's steps vary by 10% from walk to walk (CV over 6 walks),
    # which would add to the host's own run-to-run noise.
    pool_index = (seed + plan["worker"]) % WORKERS
    walk = command_walk(_rng(SERVO_WALK_SEED_BASE + pool_index, 1), plan["keyframes"],
                        step=0.15)
    keyframes = simulator.rollout_commands(hand, walk)
    controller.save_reference(Path(workdir) / "reference", hand, keyframes, seed)
    reference = controller.load_reference(Path(workdir) / "reference", hand)
    model = _quick_model(keyframes, hand, plan["train_epochs"], seed)
    # Each recorded keyframe is held for `hold` control steps.
    steps = [
        controller.ReferenceTrajectory(
            np.array([float(t)]), reference.vertices[t // plan["hold"]][None],
            reference.strains[t // plan["hold"]][None], reference.rest_vertices,
            source=reference.source,
        )
        for t in range(plan["keyframes"] * plan["hold"])
    ]
    state = controller.TrackState.at_rest(hand, trace=True)
    return {"hand": hand, "model": model, "directions": directions,
            "steps": steps, "state": state, "cfg": controller.ControllerConfig()}


def servo_run(inputs, plan, seed, timer):
    errors, failed = [], 0
    for ref in inputs["steps"]:
        try:
            report = timer.call(
                lambda r: 0 if r.aborted else len(r.per_step_error_mm),
                controller.track_trajectory, inputs["hand"], inputs["model"],
                inputs["directions"], ref, inputs["cfg"], "shape",
                state=inputs["state"],
            )
        except SolverFailure:
            failed += 1
            continue
        failed += int(report.aborted)
        errors.append(report.per_step_error_mm)
    return Outcome(len(inputs["steps"]), failed, {"errors": errors})


def servo_check(inputs, outcome):
    hand, cfg = inputs["hand"], inputs["cfg"]
    trace = inputs["state"].trace
    errors = outcome.data["errors"]
    problems = []
    if len(trace) != len(errors) or any(len(e) != 1 for e in errors):
        return [f"{len(errors)} error series for {len(trace)} solved steps"]
    previous = np.zeros(6)
    for t, (frame, (error,)) in enumerate(zip(trace, errors)):
        expected = oracles.surface_error(hand, frame, inputs["steps"][t].vertices[0])
        if abs(error - expected) > 1e-9:
            problems.append(f"step {t}: reported error {error!r} mm, oracle {expected!r} mm")
        u = frame.command
        if u.min() < 0.0 or u.max() > 1.0:
            problems.append(f"step {t}: command {u.tolist()} leaves [0, 1]")
        if np.abs(u - previous).max() > cfg.clip + 1e-12:
            problems.append(f"step {t}: command moved more than the clip {cfg.clip}")
        previous = u
    return problems


def servo_fingerprint(outcome, inputs):
    commands = np.array([f.command for f in inputs["state"].trace])
    errors = np.array([e[0] for e in outcome.data["errors"]])
    return {"steps": len(errors), "digest": _digest(commands, errors)}


# ---------------------------------------------------------------------------
# calib: the calibrate stage, CMA-ES over a planted calibration set.


def calib_setup(hand_kind, seed, plan, workdir):
    hand = build_hand(hand_kind)
    # The walk's warm solves are most of the set-up, and their Newton
    # iterations depend on the walk: with walks drawn per seed, some seeds
    # set up 20% slower than others in every set. So, as in servo, each
    # worker takes its walk from a fixed pool and the seed only decides
    # which; the planted gap and everything else still come from the seed.
    pool_index = (seed + plan["worker"]) % WORKERS
    walk = command_walk(_rng(CALIB_WALK_SEED_BASE + pool_index, 2), plan["walk"],
                        step=0.2)
    rng = _rng(seed, 2)
    frames = simulator.rollout_commands(hand, [np.zeros(6)] + walk)
    model = _quick_model(frames, hand, plan["train_epochs"], seed)
    # Planted domain gap: mis-scaled sensors and mounts turned by known angles.
    true_cal = SensorCalibration(
        np.full(12, 100.0), rng.uniform(0.85, 1.2, 12), rng.uniform(0.85, 1.2, 12)
    )
    phi_true = rng.uniform(-0.2, 0.2, 3)
    calset = calibration.synthesize_calibration_set(
        hand, frames[:5], true_cal, phi_true, seed,
        points_per_finger=plan["points"],
    )
    return {"hand": hand, "model": model, "calset": calset}


def calib_run(inputs, plan, seed, timer):
    results = []
    for c in range(plan["calls"]):
        cfg = calibration.CmaConfig(sigma0=0.3, max_evals=plan["max_evals"],
                                    popsize=CALIB_POPSIZE)
        results.append(timer.call(
            lambda r: r.history[-1]["evaluations"] if r.history else 1,
            calibration.align_domains, inputs["model"], inputs["hand"],
            inputs["calset"], cfg, seed=_call_seed(seed, plan, c),
        ))
    evals = sum(r.history[-1]["evaluations"] for r in results)
    return Outcome(evals, 0, {"results": results})


def calib_check(inputs, outcome):
    model, hand, calset = inputs["model"], inputs["hand"], inputs["calset"]
    identity = calibration.alignment_loss(model, hand, calset,
                                          calibration.AlignParams.identity())
    problems = []
    for c, result in enumerate(outcome.data["results"]):
        if not result.loss <= identity:
            problems.append(f"call {c}: final loss {result.loss} above identity {identity}")
        best = [h["best_so_far"] for h in result.history]
        if any(b > a for a, b in zip(best, best[1:])):
            problems.append(f"call {c}: best_so_far increased: {best}")
        expected = sum(
            oracles.chamfer(s.cloud, calibration.predict_observed_cloud(
                model, hand, result.params, calset.r0, s.resistances.r, s.mounts))
            for s in calset.samples
        )
        if abs(result.loss - expected) > 1e-9 * max(1.0, abs(expected)):
            problems.append(f"call {c}: loss {result.loss!r}, oracle Chamfer {expected!r}")
    return problems


def calib_fingerprint(outcome, inputs):
    results = outcome.data["results"]
    return {
        "evals": outcome.attempted,
        "generations": sum(len(r.history) for r in results),
        "digest": _digest(*[r.params.vector() for r in results],
                          [r.loss for r in results]),
    }


# ---------------------------------------------------------------------------
# learn: the train-shape stage, Adam epochs on fixed simulated frames.


def learn_setup(hand_kind, seed, plan, workdir):
    hand = build_hand(hand_kind)
    n_train, n_held = plan["train_frames"], plan["heldout_frames"]
    walk = command_walk(_rng(seed, 3), n_train + n_held, step=LEARN_STEP)
    frames = simulator.rollout_commands(hand, walk)
    # The frames reach training the way gen-data output does: through disk.
    directory = Path(workdir) / "frames"
    datafiles.save_dataset(directory, hand, frames[:n_train], seed)
    train_frames, _ = datafiles.load_dataset(directory)
    return {"hand": hand, "train": train_frames, "heldout": frames[n_train:]}


def learn_run(inputs, plan, seed, timer):
    runs, failed = [], 0
    cfg = estimator.TrainConfig(epochs=plan["epochs"], lr=3e-3,
                                min_frames=plan["train_frames"])
    for c in range(plan["calls"]):
        try:
            runs.append(timer.call(lambda out: len(out[1].train_mse), estimator.train,
                                   inputs["train"], inputs["hand"], cfg,
                                   _call_seed(seed, plan, c)))
        except TrainingError:
            failed += plan["epochs"]
    return Outcome(plan["epochs"] * plan["calls"], failed, {"runs": runs})


def learn_check(inputs, outcome):
    hand = inputs["hand"]
    problems = []
    for c, (model, report) in enumerate(outcome.data["runs"]):
        if not report.train_mse[-1] < report.train_mse[0]:
            problems.append(f"call {c}: training loss did not fall: {report.train_mse}")
    if not outcome.data["runs"]:
        return problems + ["no train call completed"]
    model = outcome.data["runs"][-1][0]
    for label, frames in (("held-out", inputs["heldout"]),
                          ("all", inputs["train"] + inputs["heldout"])):
        reported = estimator.evaluate(model, frames, hand)["mean_mm"]
        expected = oracles.vertex_error(model, frames, hand,
                                        estimator.predict_displacements)
        if abs(reported - expected) > 1e-9:
            problems.append(f"{label} frames: evaluate {reported!r} mm, oracle {expected!r} mm")
    return problems


def learn_fingerprint(outcome, inputs):
    runs = outcome.data["runs"]
    return {
        "epochs": sum(len(r.train_mse) for _, r in runs),
        "digest": _digest(*[r.train_mse for _, r in runs],
                          *[m.dec_params for m, _ in runs]),
    }


@dataclass(frozen=True)
class Workload:
    setup: object
    run: object
    check: object
    fingerprint: object


WORKLOADS = {
    "datagen": Workload(datagen_setup, datagen_run, datagen_check, datagen_fingerprint),
    "servo": Workload(servo_setup, servo_run, servo_check, servo_fingerprint),
    "calib": Workload(calib_setup, calib_run, calib_check, calib_fingerprint),
    "learn": Workload(learn_setup, learn_run, learn_check, learn_fingerprint),
}
