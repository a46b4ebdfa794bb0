"""Closed-loop tendon control that tracks reference finger shapes.

Two proportional controllers share one loop: the shape mode reduces the
error between estimated and desired surface vertices to a per-finger
two-component lateral descriptor and projects it onto actuation
directions fitted from probe solves; the baseline strain mode servos the
raw sensor strains through the diametral sensor pairing. Both clip the
per-step command adjustment and hard-project commands onto [0, 1].

Shape descriptor: per finger, the vertex error field is summed over
vertices with equal weights and projected onto the two lateral unit
directions the finger's tendons bend it toward (measured by probing each
channel of the hand's one finger model from rest, so all three fingers
share one basis). That makes the descriptor a 2-vector in mm and the
update du = k_p * (descriptor . d_channel) dimensionally coherent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import estimator
from .datafiles import load_role, save_dataset
from .errors import DegenerateDataError, SolverFailure
from .geometry import mean_nn_distance
from .sensors import N_SENSORS
from .simulator import N_FINGERS, HandModel, solve_hand

N_CHANNELS = 2 * N_FINGERS


@dataclass(frozen=True)
class ControllerConfig:
    """Gain, per-step command clip, and the nominal loop rate."""

    k_p: float = 0.02  # command per mm of summed lateral descriptor error
    clip: float = 0.05  # max |du| per channel per step
    rate_hz: float = 100.0  # nominal; quasi-static sim reports, never sleeps
    strain_gain: float = 3.0  # command per unit differential strain error

    def __post_init__(self):
        if self.k_p <= 0:
            raise ValueError("ControllerConfig: k_p must be positive")
        if self.clip <= 0:
            raise ValueError("ControllerConfig: clip must be positive")
        if self.rate_hz <= 0:
            raise ValueError("ControllerConfig: rate_hz must be positive")
        if self.strain_gain <= 0:
            raise ValueError("ControllerConfig: strain_gain must be positive")


@dataclass(frozen=True)
class ActuationDirections:
    """The finger's fitted lateral basis and per-channel unit directions.

    basis holds two unit 3-vectors spanning the finger-local descriptor
    plane; dirs holds the two channels' unit 2-vectors within it. All
    three fingers are one finger model, so they share both.
    """

    basis: np.ndarray  # (2, 3)
    dirs: np.ndarray  # (2, 2)
    probe_amplitude: float

    def __post_init__(self):
        basis = np.ascontiguousarray(self.basis, dtype=np.float64)
        dirs = np.ascontiguousarray(self.dirs, dtype=np.float64)
        if basis.shape != (2, 3) or dirs.shape != (2, 2):
            raise ValueError("ActuationDirections: wrong field shapes")
        if np.abs(np.linalg.norm(dirs, axis=1) - 1.0).max() > 1e-9:
            raise ValueError("ActuationDirections: directions must be unit norm")
        if np.abs(np.linalg.norm(basis, axis=1) - 1.0).max() > 1e-9:
            raise ValueError("ActuationDirections: basis rows must be unit norm")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "dirs", dirs)


def fit_actuation_directions(hand: HandModel, probe_amplitude=0.2):
    """Probe each channel from rest and fit its lateral response direction.

    The hand's three fingers are one finger model, so its two channels are
    probed once and the fitted basis serves every finger. Tendons only
    pull, so the probe is one-sided: solve at u = amplitude on one channel,
    subtract the rest surface, sum the vertex displacements, and drop the
    axial component. Both probes are one solve_hand: finger c gets
    amplitude on channel c only, and finger 2 stays at rest (its solve
    converges at iteration 0). A channel whose lateral response vanishes
    cannot be servoed and raises DegenerateDataError.
    """
    amp = float(probe_amplitude)
    if not 0.0 < amp <= 1.0:
        raise ValueError("fit_actuation_directions: amplitude must be in (0, 1]")
    rest = hand.fingers[0].surface.vertices
    probes, _ = solve_hand(hand, [amp, 0.0, 0.0, amp, 0.0, 0.0])
    basis = np.zeros((2, 3))
    for c, surface in enumerate(probes.surfaces(hand)[:2]):
        response = (surface - rest).sum(axis=0)
        response[2] = 0.0  # descriptor plane is lateral
        norm = float(np.linalg.norm(response))
        if norm <= 1e-9 * rest.shape[0]:
            raise DegenerateDataError(
                f"channel {c}: no lateral response to probing",
                sensor_indices=(c,),
            )
        basis[c] = response / norm
    dirs = np.zeros((2, 2))
    for c in range(2):
        d = np.array([basis[c] @ basis[0], basis[c] @ basis[1]])
        dirs[c] = d / np.linalg.norm(d)
    return ActuationDirections(basis, dirs, amp)


def _descriptor(error_field, basis):
    """Equal-weight vertex error sum projected onto the lateral basis."""
    summed = error_field.sum(axis=0)
    return basis @ summed


def shape_step(current, desired, directions: ActuationDirections,
               cfg: ControllerConfig):
    """Proportional command adjustment from a vertex-space shape error.

    current/desired: (3, V, 3) per-finger vertex arrays in finger-local
    frames, index-corresponded. Returns a (6,) per-channel delta, clipped
    componentwise to +-cfg.clip.
    """
    current = np.asarray(current, dtype=np.float64)
    desired = np.asarray(desired, dtype=np.float64)
    if current.shape != desired.shape:
        raise ValueError(
            f"shape_step: current {current.shape} and desired {desired.shape} "
            "must correspond"
        )
    if current.ndim != 3 or current.shape[0] != N_FINGERS or current.shape[2] != 3:
        raise ValueError(f"shape_step: expected (3, V, 3) arrays, got {current.shape}")
    du = np.zeros(N_CHANNELS)
    for j in range(N_FINGERS):
        descriptor = _descriptor(desired[j] - current[j], directions.basis)
        du[2 * j] = cfg.k_p * (descriptor @ directions.dirs[0])
        du[2 * j + 1] = cfg.k_p * (descriptor @ directions.dirs[1])
    return np.clip(du, -cfg.clip, cfg.clip)


# Diametral sensor pairs within a finger's 4-sensor ring (45/135/225/315
# degrees): pair A = (45, 225) drives the first channel, pair B =
# (315, 135) the second. Positive differential = bend the pair axis way.
_PAIR_A = (2, 0)
_PAIR_B = (3, 1)


def strain_step(current, desired, cfg: ControllerConfig):
    """Baseline: proportional control on raw per-sensor strain errors.

    Each finger's two channels are driven by the differential strain
    error of one diametral sensor pair each, so a single-sensor error
    moves exactly one channel. Clipped like shape_step.
    """
    current = np.asarray(current, dtype=np.float64).reshape(-1)
    desired = np.asarray(desired, dtype=np.float64).reshape(-1)
    if current.shape != (N_SENSORS,) or desired.shape != (N_SENSORS,):
        raise ValueError("strain_step: expected 12 current and desired strains")
    error = desired - current
    du = np.zeros(N_CHANNELS)
    for j in range(N_FINGERS):
        e4 = error[4 * j : 4 * j + 4]
        du[2 * j] = cfg.strain_gain * (e4[_PAIR_A[0]] - e4[_PAIR_A[1]]) / 2.0
        du[2 * j + 1] = cfg.strain_gain * (e4[_PAIR_B[0]] - e4[_PAIR_B[1]]) / 2.0
    return np.clip(du, -cfg.clip, cfg.clip)


# ---------------------------------------------------------------------------
# Reference trajectories.


def select_vertices(vertices, indices):
    """Per-finger vertex subset: (..., 3, V, 3) with (3, K) indices -> (..., 3, K, 3).

    The result is C-ordered, so reductions over it sum in the same order as
    over a stack of per-finger subsets.
    """
    rows = np.arange(N_FINGERS)[:, None]
    return np.ascontiguousarray(vertices[..., rows, indices, :])


@dataclass(frozen=True)
class ReferenceTrajectory:
    """Timestamped desired surface vertices (and strains) per finger.

    vertex_indices selects a per-finger subset of the full surface mesh
    (one row of indices per finger); None means the reference covers the
    full mesh. Subset references let a planner hand the controller a
    sparse set of control vertices to chase.
    """

    times: np.ndarray  # (T,) strictly increasing
    vertices: np.ndarray  # (T, 3, V, 3) finger-local desired surfaces
    strains: np.ndarray  # (T, 12) desired sensor strains
    rest_vertices: np.ndarray  # (3, V, 3) the fingers' rest surfaces
    source: str = "recorded"
    vertex_indices: np.ndarray = None  # (3, V) rows into the full mesh, or None

    def __post_init__(self):
        times = np.ascontiguousarray(self.times, dtype=np.float64).reshape(-1)
        vertices = np.ascontiguousarray(self.vertices, dtype=np.float64)
        strains = np.ascontiguousarray(self.strains, dtype=np.float64)
        rest = np.ascontiguousarray(self.rest_vertices, dtype=np.float64)
        t = times.shape[0]
        if t < 1:
            raise ValueError("ReferenceTrajectory: needs at least one step")
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("ReferenceTrajectory: times must be strictly increasing")
        if vertices.ndim != 4 or vertices.shape[:2] != (t, N_FINGERS):
            raise ValueError(
                f"ReferenceTrajectory: vertices must be (T, 3, V, 3), got "
                f"{vertices.shape}"
            )
        if strains.shape != (t, N_SENSORS):
            raise ValueError("ReferenceTrajectory: strains must be (T, 12)")
        if rest.shape != vertices.shape[1:]:
            raise ValueError(
                "ReferenceTrajectory: rest_vertices must match the per-step "
                "vertex layout"
            )
        for name, arr in (("times", times), ("vertices", vertices),
                          ("strains", strains)):
            if not np.isfinite(arr).all():
                raise ValueError(f"ReferenceTrajectory: non-finite {name}")
        indices = self.vertex_indices
        if indices is not None:
            indices = np.ascontiguousarray(indices, dtype=np.int64)
            if indices.shape != (N_FINGERS, vertices.shape[2]):
                raise ValueError(
                    "ReferenceTrajectory: vertex_indices must be one row of "
                    f"{vertices.shape[2]} indices per finger"
                )
            if indices.min() < 0:
                raise ValueError("ReferenceTrajectory: negative vertex index")
            for row in indices:
                if np.unique(row).shape[0] != row.shape[0]:
                    raise ValueError(
                        "ReferenceTrajectory: repeated vertex index in a finger"
                    )
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "strains", strains)
        object.__setattr__(self, "rest_vertices", rest)
        object.__setattr__(self, "vertex_indices", indices)

    def __len__(self):
        return self.times.shape[0]

    @property
    def peak_deflection_mm(self):
        """Largest vertex excursion from rest anywhere in the trajectory."""
        deltas = self.vertices - self.rest_vertices[None]
        return float(np.sqrt((deltas * deltas).sum(axis=3)).max())

    @classmethod
    def from_frames(cls, frames, hand: HandModel, source="recorded"):
        frames = list(frames)
        if not frames:
            raise ValueError("ReferenceTrajectory: no frames")
        vertices = np.stack([f.surfaces(hand) for f in frames])
        strains = estimator.strains_from_lengths(
            np.stack([f.sensor_lengths for f in frames]), hand.sensor_rest_lengths
        )
        times = np.arange(len(frames), dtype=np.float64)
        return cls(times, vertices, strains, hand.rest_surfaces, source)


def save_reference(directory, hand: HandModel, frames, seed, config=None):
    """Persist reference frames in the dataset container, tagged as such."""
    return save_dataset(directory, hand, frames, seed, role="reference",
                        config=config)


def load_reference(directory, hand: HandModel):
    """Load a reference trajectory saved by save_reference."""
    frames, _ = load_role(directory, hand, "reference", "track")
    return ReferenceTrajectory.from_frames(frames, hand, source="reference")


# ---------------------------------------------------------------------------
# Closed-loop tracking.


@dataclass(frozen=True)
class TrackReport:
    """Per-step surface errors for one tracking run; JSON-ready via asdict."""

    mode: str
    ref_source: str
    per_step_error_mm: tuple
    final_mm: float
    mean_mm: float
    peak_deflection_mm: float
    rate_hz: float
    aborted: bool = False
    fail_step: int = None


def _surface_error(hand, frame, ref_vertices, indices=None):
    """Mean over fingers of mean NN distance to the reference surface."""
    surfaces = frame.surfaces(hand)
    if indices is not None:
        surfaces = select_vertices(surfaces, indices)
    values = [mean_nn_distance(surfaces[j], ref_vertices[j]) for j in range(N_FINGERS)]
    return float(np.mean(values))


@dataclass
class TrackState:
    """Resumable controller state threaded through track_trajectory calls.

    Owning the state lets a planner execute a long trajectory in chunks:
    each call continues from the last solved frame, whose command is the
    current tendon command and whose nodes warm-start the next solve. When
    trace is a list, every solved frame is appended to it.
    """

    frame: object  # last solved SimFrame
    trace: list = None

    @classmethod
    def at_rest(cls, hand: HandModel, trace=False):
        frame, _ = solve_hand(hand, np.zeros(N_CHANNELS))
        return cls(frame, [] if trace else None)


def track_trajectory(hand: HandModel, model, directions: ActuationDirections,
                     ref: ReferenceTrajectory, cfg: ControllerConfig = None,
                     mode="shape", state: TrackState = None):
    """Run the estimate-command-solve loop over a reference trajectory.

    Shape mode feeds the strain-estimated surface into shape_step; strain
    mode servos raw strains. Errors are measured between the true
    simulated surface and the reference, one value per step. A solver
    failure stops the loop and returns the partial report flagged
    aborted. Passing a TrackState resumes from (and updates, in place)
    that state instead of starting at rest.
    """
    if mode not in ("shape", "strain"):
        raise ValueError(f"track_trajectory: unknown mode {mode!r}")
    if cfg is None:
        cfg = ControllerConfig()
    rest_lengths = hand.sensor_rest_lengths
    rests = hand.rest_surfaces
    if mode == "shape" and model.n_vertices != rests[0].shape[0]:
        raise ValueError(
            "track_trajectory: the shape model was trained on a different mesh"
        )
    indices = ref.vertex_indices
    if indices is None:
        if ref.vertices.shape[2] != rests[0].shape[0]:
            raise ValueError(
                "track_trajectory: reference vertex count does not match the hand"
            )
    elif indices.max() >= rests[0].shape[0]:
        raise ValueError(
            "track_trajectory: reference vertex indices exceed the mesh"
        )

    if state is None:
        state = TrackState.at_rest(hand)
    frame = state.frame
    u = frame.command
    errors = []
    aborted = False
    fail_step = None
    for t in range(len(ref)):
        strains = estimator.strains_from_lengths(frame.sensor_lengths, rest_lengths)
        if mode == "shape":
            estimated = rests + estimator.predict(model, hand, strains)
            if indices is not None:
                estimated = select_vertices(estimated, indices)
            du = shape_step(estimated, ref.vertices[t], directions, cfg)
        else:
            du = strain_step(strains, ref.strains[t], cfg)
        u = np.clip(u + du, 0.0, 1.0)
        try:
            frame, _ = solve_hand(hand, u, x0s=frame.nodes, u0=frame.command)
        except SolverFailure:
            aborted = True
            fail_step = t
            break
        state.frame = frame
        if state.trace is not None:
            state.trace.append(frame)
        errors.append(_surface_error(hand, frame, ref.vertices[t], indices))
    if not errors:
        raise SolverFailure("tracking failed before completing a single step")
    return TrackReport(
        mode=mode,
        ref_source=ref.source,
        per_step_error_mm=tuple(errors),
        final_mm=errors[-1],
        mean_mm=float(np.mean(errors)),
        peak_deflection_mm=ref.peak_deflection_mm,
        rate_hz=cfg.rate_hz,
        aborted=aborted,
        fail_step=fail_step,
    )
