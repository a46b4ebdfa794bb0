"""Domain alignment between the training simulator and an "observed" sensor
domain.

An observed domain differs from the training domain in two ways: each of
the 12 strain sensors responds with its own slope per sign branch (24
correction factors), and each finger is mounted with a small angular
offset about its local y axis (3 angles). Neither is differentiable
through the measurement path, so both are fit together by CMA-ES: sample
candidate parameter vectors, score each by the summed unidirectional
Chamfer distance between the observed point clouds and the shape model's
predicted surfaces, and adapt the search distribution from the ranking.

The CMA-ES here is the standard (mu/mu_w, lambda) strategy with weighted
recombination, cumulative step-size adaptation, and rank-one plus
rank-mu covariance updates, written against plain numpy. A generation's
candidates are scored independently before the update, so align_domains
scores them in the hand's pool of forked workers (pool.map_tasks),
one contiguous share per CPU, and gathers the losses in candidate order.
With one BLAS thread in the caller, as in the workers, the search is bit
for bit the one a single process runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import pool
from .datafiles import (
    artifact_file,
    pose_from_floats,
    pose_to_floats,
    read_manifest,
    write_manifest,
)
from .errors import OptimizationError, SoftpropError
from .estimator import ShapeModel, predict, strains_from_lengths
from .geometry import (
    RigidPose,
    as_cloud,
    chamfer_ucd,
    mean_nn_distance,
    rotation_about_y,
    sample_surface_points,
)
from .seeding import STAGE_CALIBRATION, STAGE_CALSET, child_rng
from .sensors import (
    N_SENSORS,
    ResistanceFrame,
    SensorCalibration,
    resistance_array_from_strain,
    strain_array_from_resistance,
)
from .simulator import N_FINGERS, HandModel

N_ALIGN_PARAMS = 2 * N_SENSORS + N_FINGERS  # 24 correction factors + 3 angles


# ---------------------------------------------------------------------------
# CMA-ES.


@dataclass(frozen=True)
class CmaConfig:
    """Search settings; population sizing defaults follow the standard rule."""

    sigma0: float = 0.3
    mean0: np.ndarray = None  # None = zeros(dim)
    popsize: int = 0  # 0 = 4 + floor(3 ln dim)
    max_evals: int = 10000
    target_loss: float = -math.inf

    def __post_init__(self):
        if self.sigma0 <= 0:
            raise ValueError("CmaConfig: sigma0 must be positive")
        if self.max_evals < 1:
            raise ValueError("CmaConfig: max_evals must be >= 1")
        if self.popsize and self.popsize < 4:
            raise ValueError("CmaConfig: population must be >= 4")
        if self.mean0 is not None:
            mean0 = np.ascontiguousarray(self.mean0, dtype=np.float64).reshape(-1)
            if not np.isfinite(mean0).all():
                raise ValueError("CmaConfig: mean0 must be finite")
            object.__setattr__(self, "mean0", mean0)


def _safe_loss(objective, x):
    """Objective wrapper: numerical and package errors and non-finite values
    become +inf; any other exception is a bug and propagates."""
    try:
        value = float(objective(x))
    except (ArithmeticError, ValueError, RuntimeError, SoftpropError):
        return math.inf
    return value if math.isfinite(value) else math.inf


def cma_es_minimize(objective, dim, cfg: CmaConfig, seed, score_generation=None):
    """Minimize a black-box function; returns (best x, best loss, history).

    Deterministic per seed. The initial mean is evaluated first, so the
    result is never worse than the starting point. Candidates whose
    objective raises an ArithmeticError, ValueError, RuntimeError or
    SoftpropError, or returns a non-finite value, count as +inf; a
    generation where every candidate does so aborts the run. Any other
    exception propagates.

    score_generation(candidates) scores a generation's (lambda, dim)
    candidates, returning their losses in candidate order as _safe_loss of
    the objective would; by default it does exactly that here, one
    candidate after another. The initial mean is always scored here.
    """
    if score_generation is None:
        def score_generation(candidates):
            return [_safe_loss(objective, c) for c in candidates]

    if dim < 1:
        raise ValueError("cma_es_minimize: dim must be >= 1")
    n = int(dim)
    lam = cfg.popsize or 4 + int(3 * math.log(n))
    if lam < 4:
        raise ValueError("cma_es_minimize: population must be >= 4")
    mu = lam // 2

    # Selection: log-decreasing recombination weights over the mu parents.
    weights = np.log(lam / 2 + 0.5) - np.log(np.arange(1, mu + 1))
    weights /= weights.sum()
    mueff = 1.0 / float(weights @ weights)

    # Adaptation constants (standard settings for the given dim).
    cc = (4 + mueff / n) / (n + 4 + 2 * mueff / n)
    cs = (mueff + 2) / (n + mueff + 5)
    c1 = 2 / ((n + 1.3) ** 2 + mueff)
    cmu = min(1 - c1, 2 * (mueff - 2 + 1 / mueff) / ((n + 2) ** 2 + mueff))
    damps = 2 * mueff / lam + 0.3 + cs

    if cfg.mean0 is None:
        mean = np.zeros(n)
    else:
        if cfg.mean0.shape != (n,):
            raise ValueError(
                f"cma_es_minimize: mean0 has {cfg.mean0.shape[0]} entries for dim {n}"
            )
        mean = cfg.mean0.copy()
    sigma = float(cfg.sigma0)
    cov = np.eye(n)
    p_sigma = np.zeros(n)
    p_cov = np.zeros(n)

    rng = child_rng(seed, STAGE_CALIBRATION, 0)
    best_x = mean.copy()
    best_f = _safe_loss(objective, mean)
    evals = 1
    generation = 0
    history = []

    while evals < cfg.max_evals and best_f > cfg.target_loss:
        # Re-condition: keep the sampler positive definite.
        eigvals, basis = np.linalg.eigh(0.5 * (cov + cov.T))
        eigvals = np.maximum(eigvals, 1e-14)
        scales = np.sqrt(eigvals)

        z = rng.standard_normal((lam, n))
        steps = (z * scales) @ basis.T
        candidates = mean + sigma * steps
        losses = np.array(score_generation(candidates), dtype=np.float64)
        if losses.shape != (lam,):
            raise ValueError(
                f"cma_es_minimize: {losses.size} losses for {lam} candidates"
            )
        evals += lam
        generation += 1
        if np.isinf(losses).all():
            raise OptimizationError(
                f"every candidate failed at generation {generation}"
            )

        order = np.argsort(losses, kind="stable")
        if losses[order[0]] < best_f:
            best_f = float(losses[order[0]])
            best_x = candidates[order[0]].copy()

        old_mean = mean
        parents = candidates[order[:mu]]
        mean = weights @ parents

        # Cumulative step-size adaptation.
        shift = (mean - old_mean) / sigma
        whitened = basis @ ((basis.T @ shift) / scales)
        p_sigma = (1 - cs) * p_sigma + math.sqrt(cs * (2 - cs) * mueff) * whitened
        ps_norm2 = float(p_sigma @ p_sigma)
        h_sigma = ps_norm2 / n / (1 - (1 - cs) ** (2 * generation)) < 2 + 4 / (n + 1)
        p_cov = (1 - cc) * p_cov + h_sigma * math.sqrt(cc * (2 - cc) * mueff) * shift

        # Rank-one + rank-mu covariance update.
        c1a = c1 * (1 - (1 - h_sigma) * cc * (2 - cc))
        deltas = (parents - old_mean) / sigma
        cov = (
            (1 - c1a - cmu) * cov
            + c1 * np.outer(p_cov, p_cov)
            + cmu * (deltas.T * weights) @ deltas
        )
        sigma *= math.exp(min(1.0, (cs / damps) * (ps_norm2 / n - 1) / 2))

        history.append(
            {
                "generation": generation,
                "evaluations": evals,
                "gen_best": float(losses[order[0]]),
                "best_so_far": best_f,
                "sigma": sigma,
            }
        )

    return best_x, best_f, tuple(history)


# ---------------------------------------------------------------------------
# Alignment parameters and the calibration data they are fit against.


@dataclass(frozen=True)
class AlignParams:
    """24 sensor correction factors plus 3 per-finger mount angles.

    kappa packs the 12 tension-branch factors first, then the 12
    compression-branch factors; phi is radians about each finger's local
    y axis.
    """

    kappa: np.ndarray  # (24,) positive
    phi: np.ndarray  # (3,) in [-pi, pi]

    def __post_init__(self):
        kappa = np.ascontiguousarray(self.kappa, dtype=np.float64).reshape(-1)
        phi = np.ascontiguousarray(self.phi, dtype=np.float64).reshape(-1)
        if kappa.shape != (2 * N_SENSORS,):
            raise ValueError(f"AlignParams: kappa needs {2 * N_SENSORS} entries")
        if phi.shape != (N_FINGERS,):
            raise ValueError(f"AlignParams: phi needs {N_FINGERS} entries")
        if not np.isfinite(kappa).all() or kappa.min() <= 0:
            raise ValueError("AlignParams: correction factors must be positive")
        if not np.isfinite(phi).all() or np.abs(phi).max() > math.pi:
            raise ValueError("AlignParams: angles must lie in [-pi, pi]")
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "phi", phi)

    @staticmethod
    def identity():
        """Unit correction factors, zero mount offsets."""
        return AlignParams(np.ones(2 * N_SENSORS), np.zeros(N_FINGERS))

    def vector(self):
        return np.concatenate([self.kappa, self.phi])

    @classmethod
    def from_vector(cls, theta):
        theta = np.asarray(theta, dtype=np.float64).reshape(-1)
        if theta.shape != (N_ALIGN_PARAMS,):
            raise ValueError(f"AlignParams: vector needs {N_ALIGN_PARAMS} entries")
        phi = np.mod(theta[2 * N_SENSORS :] + math.pi, 2 * math.pi) - math.pi
        return cls(theta[: 2 * N_SENSORS], phi)

    def sensor_calibration(self, r0):
        return SensorCalibration(r0, self.kappa[:N_SENSORS], self.kappa[N_SENSORS:])


@dataclass(frozen=True)
class CalibrationSample:
    """One observation: a resistance reading, a point cloud, mount poses."""

    resistances: ResistanceFrame
    cloud: np.ndarray  # (P, 3) observed points in the hand frame
    mounts: tuple  # one RigidPose per finger

    def __post_init__(self):
        cloud = as_cloud(self.cloud, "CalibrationSample.cloud")
        if len(self.mounts) != N_FINGERS:
            raise ValueError(f"CalibrationSample: needs {N_FINGERS} mount poses")
        if not all(isinstance(m, RigidPose) for m in self.mounts):
            raise ValueError("CalibrationSample: mounts must be RigidPose instances")
        object.__setattr__(self, "cloud", cloud)
        object.__setattr__(self, "mounts", tuple(self.mounts))


@dataclass(frozen=True)
class CalibrationSet:
    """Observation list; the baseline sample's resistances define R0."""

    samples: tuple
    baseline_index: int = 0

    def __post_init__(self):
        samples = tuple(self.samples)
        if not samples:
            raise ValueError("CalibrationSet: needs at least one sample")
        if not 0 <= self.baseline_index < len(samples):
            raise ValueError("CalibrationSet: baseline_index out of range")
        object.__setattr__(self, "samples", samples)

    @property
    def r0(self):
        return self.samples[self.baseline_index].resistances.r

    def __len__(self):
        return len(self.samples)


# ---------------------------------------------------------------------------
# Objective and alignment.


def _finger_poses(mounts, phi):
    """Per mount tuple, each finger's (rotation, translation): its mount
    after the angular offset phi[j] about its local y axis.

    The arithmetic is RigidPose.compose's, so points mapped by a pair equal
    mount.compose(RigidPose(rotation_about_y(phi[j]), 0)).apply bit for bit;
    no RigidPose is built or validated per call: the mounts are RigidPose
    instances already (CalibrationSample and HandModel check it), and a
    rotation about y is a proper rotation by construction.
    """
    turns = [rotation_about_y(angle) for angle in phi]
    zero = np.zeros(3)
    return [[(m.rotation @ turn, m.rotation @ zero + m.translation)
             for m, turn in zip(sample_mounts, turns)]
            for sample_mounts in mounts]


def _posed_clouds(model: ShapeModel, hand: HandModel, params: AlignParams, r0,
                  readings, mounts):
    """Posed hand-frame surface predictions, one cloud per reading.

    readings holds S resistance vectors of 12 and mounts one per-finger
    pose tuple per reading; every reading is decoded in one pass per finger,
    and each finger is posed by its _finger_poses pair (mount after the
    angle params.phi[j]).
    """
    strains = strain_array_from_resistance(np.asarray(readings),
                                           params.sensor_calibration(r0))
    disp = predict(model, hand, strains)  # (S, 3, V, 3)
    rest = hand.fingers[0].surface.vertices
    return [
        np.concatenate([(rest + disp[i, j]) @ rot.T + trans
                        for j, (rot, trans) in enumerate(poses)])
        for i, poses in enumerate(_finger_poses(mounts, params.phi))
    ]


def predict_observed_cloud(model: ShapeModel, hand: HandModel, params: AlignParams,
                           r0, resistances, mounts):
    """Posed hand-frame surface prediction for one resistance reading."""
    return _posed_clouds(model, hand, params, r0, [resistances], [mounts])[0]


def _sample_clouds(model: ShapeModel, hand: HandModel, calset: CalibrationSet,
                   params: AlignParams):
    """Posed predictions for every sample of a calibration set, in order."""
    return _posed_clouds(model, hand, params, calset.r0,
                         [s.resistances.r for s in calset.samples],
                         [s.mounts for s in calset.samples])


def alignment_loss(model: ShapeModel, hand: HandModel, calset: CalibrationSet,
                   params: AlignParams):
    """Summed unidirectional Chamfer distance over all samples (mm^2).

    Each sample contributes chamfer_ucd(observed cloud, predicted cloud),
    the predicted cloud being the union of the three posed finger
    surfaces under the candidate correction factors and mount angles.
    """
    return _summed_ucd(calset, _sample_clouds(model, hand, calset, params))


def _summed_ucd(calset: CalibrationSet, clouds):
    """chamfer_ucd of each sample's observed cloud against its predicted
    cloud, added in sample order."""
    total = 0.0
    for sample, predicted in zip(calset.samples, clouds):
        total += chamfer_ucd(sample.cloud, predicted)
    return total


@dataclass(frozen=True)
class AlignResult:
    """Best parameters with their loss and the per-generation history."""

    params: AlignParams
    loss: float
    history: tuple


def _objective(model: ShapeModel, hand: HandModel, calset: CalibrationSet, theta):
    """The alignment objective of a parameter vector: +inf for a
    non-positive correction factor, otherwise alignment_loss."""
    if theta[: 2 * N_SENSORS].min() <= 0.0:
        return math.inf
    return alignment_loss(model, hand, calset, AlignParams.from_vector(theta))


def _score_share(hand: HandModel, task):
    """_safe_loss of each candidate of one contiguous share of a CMA-ES
    generation, in order; task (model, calset, thetas). Runs in a pool
    worker of the hand (pool.map_tasks) or in the caller."""
    model, calset, thetas = task
    objective = partial(_objective, model, hand, calset)
    return [_safe_loss(objective, theta) for theta in thetas]


def align_domains(model: ShapeModel, hand: HandModel, calset: CalibrationSet,
                  cfg: CmaConfig = None, seed=0):
    """Fit correction factors and mount angles to the observed clouds.

    The search starts at the identity correction (unit factors, zero
    angles); candidates with a non-positive factor score +inf and are
    never selected. The initial mean is scored in this process. Each
    generation's candidates are cut into one contiguous share per CPU
    this process may use, scored in the hand's pool workers
    (pool.map_tasks) and gathered in candidate order; with one CPU they
    are scored here. Returns an AlignResult whose loss is never above the
    identity-initialization loss.
    """
    if cfg is None:
        cfg = CmaConfig(sigma0=0.3, max_evals=2600)
    if cfg.mean0 is None:
        cfg = replace(cfg, mean0=AlignParams.identity().vector())

    def score_generation(candidates):
        cuts = pool.share_cuts(len(candidates))
        shares = pool.map_tasks(hand, _score_share, [
            (model, calset, candidates[a:b]) for a, b in zip(cuts, cuts[1:])
        ])
        return [loss for share in shares for loss in share]

    best_theta, best_loss, history = cma_es_minimize(
        partial(_objective, model, hand, calset), N_ALIGN_PARAMS, cfg, seed,
        score_generation=score_generation,
    )
    return AlignResult(AlignParams.from_vector(best_theta), float(best_loss), history)


def alignment_report(model: ShapeModel, hand: HandModel, calset: CalibrationSet,
                     before: AlignParams, result: AlignResult):
    """Before/after comparison plus the optimizer's convergence curve.

    Each parameter set is decoded once: before_loss (alignment_loss of
    before, summed as alignment_loss sums) and the per-sample mean NN
    distances come from the same predicted clouds; after_loss is the
    search's own result.loss.
    """
    before_clouds = _sample_clouds(model, hand, calset, before)
    after_clouds = _sample_clouds(model, hand, calset, result.params)

    def per_sample_nn(clouds):
        return [float(mean_nn_distance(s.cloud, c))
                for s, c in zip(calset.samples, clouds)]

    return {
        "metric": "summed_ucd_mm2",
        "before_loss": float(_summed_ucd(calset, before_clouds)),
        "after_loss": float(result.loss),
        "loss_curve": [h["best_so_far"] for h in result.history],
        "generations": len(result.history),
        "evaluations": result.history[-1]["evaluations"] if result.history else 1,
        "before_mean_nn_mm": per_sample_nn(before_clouds),
        "after_mean_nn_mm": per_sample_nn(after_clouds),
        "kappa": result.params.kappa.tolist(),
        "phi": result.params.phi.tolist(),
    }


# ---------------------------------------------------------------------------
# Synthesizing an "observed" domain from simulated frames.


def synthesize_calibration_set(hand: HandModel, frames, true_cal: SensorCalibration,
                               phi_true, seed, points_per_finger=500):
    """Generate clouds + resistances as a planted ground-truth domain.

    Resistances come from the forward sensor model under `true_cal`
    (noise-free); clouds are uniform-by-area samples of each deformed
    finger surface, posed by the hand mounts composed with the planted
    `phi_true` offsets. Pass the rest frame first so the baseline reading
    is meaningful.
    """
    phi_true = np.asarray(phi_true, dtype=np.float64).reshape(N_FINGERS)
    rest_lengths = hand.sensor_rest_lengths
    poses = _finger_poses([hand.mounts], phi_true)[0]
    rest_surface = hand.fingers[0].surface
    samples = []
    for i, frame in enumerate(frames):
        rng = child_rng(seed, STAGE_CALSET, i)
        strains = strains_from_lengths(frame.sensor_lengths, rest_lengths)
        resistances = resistance_array_from_strain(strains, true_cal)
        parts = []
        for (rot, trans), surface in zip(poses, frame.surfaces(hand)):
            deformed = rest_surface.with_vertices(surface)
            pts = sample_surface_points(deformed, points_per_finger, rng)
            parts.append(pts @ rot.T + trans)
        samples.append(
            CalibrationSample(
                ResistanceFrame(resistances, timestamp=float(i)),
                np.concatenate(parts),
                tuple(hand.mounts),
            )
        )
    return CalibrationSet(tuple(samples), baseline_index=0)


# ---------------------------------------------------------------------------
# On-disk form: manifest + one little-endian float64 payload. Per sample it
# holds the timestamp, the 12 resistances, the 3 mount poses (12 floats
# each, datafiles' pose codec) and then the cloud's points; the manifest
# lists every sample's point count, which fixes the payload's size.

CALSET_FORMAT = "calset/2"
CALSET_PAYLOAD = "samples.f64"
_SAMPLE_HEAD = 1 + N_SENSORS + 12 * N_FINGERS


def save_calibration_set(directory, calset: CalibrationSet):
    """Write manifest.json and the float64 payload of every sample."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    values = []
    for sample in calset.samples:
        values += [[sample.resistances.timestamp], sample.resistances.r,
                   *map(pose_to_floats, sample.mounts), sample.cloud.ravel()]
    (directory / CALSET_PAYLOAD).write_bytes(np.concatenate(values).astype("<f8").tobytes())
    return write_manifest(directory, {
        "format": CALSET_FORMAT,
        "baseline_index": calset.baseline_index,
        "points": [len(sample.cloud) for sample in calset.samples],
    })


def load_calibration_set(directory):
    """Read a calibration-set directory written by save_calibration_set."""
    manifest = read_manifest(directory, CALSET_FORMAT, "calibrate")
    path = artifact_file(directory, CALSET_PAYLOAD, "calibrate")
    sizes = [_SAMPLE_HEAD + 3 * int(p) for p in manifest["points"]]
    blob = path.read_bytes()
    if len(blob) != 8 * sum(sizes):
        raise ValueError(
            f"{path}: {len(blob)} bytes, the manifest's point counts need "
            f"{8 * sum(sizes)}"
        )
    values = np.frombuffer(blob, dtype="<f8").astype(np.float64)
    samples = []
    for record in np.split(values, np.cumsum(sizes)[:-1]):
        t, r, poses, cloud = np.split(record, [1, 1 + N_SENSORS, _SAMPLE_HEAD])
        mounts = tuple(pose_from_floats(v) for v in poses.reshape(N_FINGERS, 12))
        samples.append(CalibrationSample(ResistanceFrame(r, t[0]), cloud.reshape(-1, 3), mounts))
    return CalibrationSet(tuple(samples), baseline_index=manifest["baseline_index"])
