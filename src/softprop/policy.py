"""Denoising-diffusion imitation policy over estimated finger shapes.

The policy consumes a compact state — an MLP feature of the estimated
control-vertex positions, a max-pooled per-point MLP feature of a
synthetic scene cloud, and the palm pose — and emits short horizons of
vertex-space actions {per-step control-vertex deltas, palm-pose deltas}.
Training is standard DDPM noise prediction on action chunks cut from
demonstrations; execution is receding-horizon: sample a chunk, convert
its first few steps into a subset reference trajectory, hand it to the
shape controller, re-encode, repeat.

Actions are normalized per component group (vertex deltas / translation
/ rotation) by their demo-set max magnitude before diffusion so the
terminal corruption actually reaches the unit prior; emitted chunks are
de-normalized and clipped to the configured physical bounds.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import estimator, nn
from .controller import (
    ReferenceTrajectory,
    TrackState,
    track_trajectory,
)
from .datafiles import (
    MANIFEST_NAME,
    artifact_file,
    load_role,
    read_manifest,
    save_dataset,
    write_manifest,
)
from .errors import NonFiniteError, SolverFailure, TrainingError
from .geometry import (
    RigidPose,
    axis_angle_to_matrix,
    farthest_point_indices,
    matrix_to_axis_angle,
)
from .seeding import STAGE_POLICY, STAGE_ROLLOUT, child_int, child_rng
from .simulator import Demonstration, HandModel, N_FINGERS

N_POSE = 6  # translation mm + axis-angle rad
CLOUD_INPUT_SCALE = 0.02  # mm of scene geometry -> net input
NORM_HEADROOM = 1.25  # demo max-abs -> normalization scale
POLICY_FORMAT = "policy/2"
_NETS = ("shape", "cloud", "denoiser")  # one .ksnn checkpoint each


@dataclass(frozen=True)
class PolicyConfig:
    """Architecture widths, action bounds, and training knobs."""

    horizon: int = 8  # predicted chunk length (steps)
    exec_horizon: int = 4  # steps executed before replanning
    control_count: int = 16  # control vertices per finger
    shape_feature: int = 64
    cloud_feature: int = 64
    time_feature: int = 32  # sinusoidal embedding width, even
    shape_hidden: tuple = (128,)
    cloud_hidden: tuple = (64,)
    denoiser_hidden: tuple = (512, 512)
    dv_bound_mm: float = 5.0  # per-step |vertex delta| bound
    dp_translation_bound_mm: float = 2.0
    dp_rotation_bound_rad: float = 0.2
    epochs: int = 300
    batch: int = 64
    lr: float = 1e-3

    def __post_init__(self):
        if self.horizon < 1 or self.exec_horizon < 1:
            raise ValueError("PolicyConfig: horizons must be >= 1")
        if self.exec_horizon > self.horizon:
            raise ValueError("PolicyConfig: exec_horizon cannot exceed horizon")
        if self.control_count < 2:
            raise ValueError("PolicyConfig: need at least 2 control vertices")
        for name in ("shape_feature", "cloud_feature", "time_feature"):
            if getattr(self, name) < 2:
                raise ValueError(f"PolicyConfig: {name} must be >= 2")
        if self.time_feature % 2:
            raise ValueError("PolicyConfig: time_feature must be even")
        for name in ("dv_bound_mm", "dp_translation_bound_mm",
                     "dp_rotation_bound_rad", "lr"):
            if getattr(self, name) <= 0:
                raise ValueError(f"PolicyConfig: {name} must be positive")
        if self.epochs < 1 or self.batch < 1:
            raise ValueError("PolicyConfig: epochs and batch must be >= 1")
        for name in ("shape_hidden", "cloud_hidden", "denoiser_hidden"):
            widths = tuple(int(w) for w in getattr(self, name))
            if not widths or any(w < 1 for w in widths):
                raise ValueError(f"PolicyConfig: bad widths in {name}")
            object.__setattr__(self, name, widths)

    @property
    def step_dim(self):
        return N_FINGERS * self.control_count * 3 + N_POSE

    @property
    def chunk_dim(self):
        return self.horizon * self.step_dim

    @property
    def state_dim(self):
        return self.shape_feature + self.cloud_feature + N_POSE

    def step_scale_groups(self):
        """Per-step slice -> bound pairs for normalization and clipping."""
        dv = N_FINGERS * self.control_count * 3
        return (
            (slice(0, dv), self.dv_bound_mm),
            (slice(dv, dv + 3), self.dp_translation_bound_mm),
            (slice(dv + 3, dv + 6), self.dp_rotation_bound_rad),
        )


@dataclass(frozen=True)
class DiffusionSchedule:
    """Forward-corruption noise levels and their cumulative products."""

    betas: np.ndarray  # (T,) nondecreasing in (0, 1)

    def __post_init__(self):
        betas = np.ascontiguousarray(self.betas, dtype=np.float64).reshape(-1)
        if betas.shape[0] < 2:
            raise ValueError(
                "DiffusionSchedule: need at least 2 steps (a 1-step schedule "
                "degenerates to deterministic copying)"
            )
        if betas[0] <= 0.0 or betas[-1] >= 1.0:
            raise ValueError("DiffusionSchedule: betas must lie in (0, 1)")
        if np.any(np.diff(betas) < 0.0):
            raise ValueError("DiffusionSchedule: betas must be nondecreasing")
        alpha_bars = np.cumprod(1.0 - betas)
        if np.any(np.diff(alpha_bars) >= 0.0) or alpha_bars[-1] <= 0.0:
            raise ValueError("DiffusionSchedule: alpha-bar must decrease in (0, 1)")
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "alpha_bars", alpha_bars)

    @property
    def t_diff(self):
        return self.betas.shape[0]

    @staticmethod
    def default():
        """50 linear betas from 1e-4 to 0.12; alpha_bar_T is below 0.05."""
        return DiffusionSchedule(np.linspace(1e-4, 0.12, 50))


@dataclass(frozen=True)
class ActionChunk:
    """One predicted horizon of control-vertex and palm-pose deltas."""

    vertex_deltas: np.ndarray  # (H, 3, K, 3) mm per step
    pose_deltas: np.ndarray  # (H, 6) translation mm + axis-angle rad

    def __post_init__(self):
        vd = np.ascontiguousarray(self.vertex_deltas, dtype=np.float64)
        pd = np.ascontiguousarray(self.pose_deltas, dtype=np.float64)
        if vd.ndim != 4 or vd.shape[1] != N_FINGERS or vd.shape[3] != 3:
            raise ValueError(f"ActionChunk: vertex_deltas shape {vd.shape}")
        if pd.shape != (vd.shape[0], N_POSE):
            raise ValueError(f"ActionChunk: pose_deltas shape {pd.shape}")
        if not (np.isfinite(vd).all() and np.isfinite(pd).all()):
            raise ValueError("ActionChunk: non-finite action")
        object.__setattr__(self, "vertex_deltas", vd)
        object.__setattr__(self, "pose_deltas", pd)

    def __len__(self):
        return self.vertex_deltas.shape[0]

    def vector(self):
        h = len(self)
        return np.concatenate(
            [self.vertex_deltas.reshape(h, -1), self.pose_deltas], axis=1
        ).reshape(-1)

    @staticmethod
    def from_vector(vec, horizon, control_count):
        dv = N_FINGERS * control_count * 3
        steps = np.asarray(vec, dtype=np.float64).reshape(horizon, dv + N_POSE)
        return ActionChunk(
            steps[:, :dv].reshape(horizon, N_FINGERS, control_count, 3),
            steps[:, dv:].copy(),
        )

    def clipped(self, cfg: PolicyConfig):
        """Hard-project every step into the configured action bounds."""
        steps = self.vector().reshape(len(self), cfg.step_dim)
        for sl, bound in cfg.step_scale_groups():
            steps[:, sl] = np.clip(steps[:, sl], -bound, bound)
        return ActionChunk.from_vector(steps, len(self), cfg.control_count)


def control_vertex_indices(hand: HandModel, count):
    """Farthest-point control-vertex subset of the finger, (count,) indices.

    Seeded at the fingertip (largest axial coordinate) so the tip is
    always a control vertex; greedy FPS then spreads the rest over the
    surface. Deterministic. The fingers are one model, so one row serves
    all three.
    """
    verts = hand.fingers[0].surface.vertices
    if count > verts.shape[0]:
        raise ValueError(
            f"control_vertex_indices: {count} requested, mesh has {verts.shape[0]}"
        )
    tip = int(np.argmax(verts[:, 2]))
    return farthest_point_indices(verts, count, start_index=tip)


def synthetic_object_cloud(center, radius_mm=10.0, height_mm=30.0, count=256,
                           seed=0):
    """Uniform surface samples of an upright cylinder (side plus caps).

    Stands in for a depth-camera view of the manipulated object; the
    cloud is generated once in the world frame and re-expressed in the
    palm frame as the palm moves.
    """
    center = np.asarray(center, dtype=np.float64).reshape(3)
    if radius_mm <= 0 or height_mm <= 0 or count < 1:
        raise ValueError("synthetic_object_cloud: bad cylinder parameters")
    rng = child_rng(seed, STAGE_POLICY, 3)
    side = 2.0 * np.pi * radius_mm * height_mm
    caps = 2.0 * np.pi * radius_mm**2
    on_side = rng.random(count) < side / (side + caps)
    theta = rng.uniform(0.0, 2.0 * np.pi, count)
    points = np.empty((count, 3))
    # side points at full radius, cap points at sqrt-uniform radius
    r = np.where(on_side, radius_mm, radius_mm * np.sqrt(rng.random(count)))
    points[:, 0] = r * np.cos(theta)
    points[:, 1] = r * np.sin(theta)
    z_side = rng.uniform(-height_mm / 2.0, height_mm / 2.0, count)
    z_cap = np.where(rng.random(count) < 0.5, -height_mm / 2.0, height_mm / 2.0)
    points[:, 2] = np.where(on_side, z_side, z_cap)
    return points + center


@dataclass(frozen=True)
class PolicyState:
    """Encoded observation: shape feature, scene feature, palm pose."""

    shape_feature: np.ndarray
    cloud_feature: np.ndarray
    pose: np.ndarray  # (6,)

    def __post_init__(self):
        sf = np.ascontiguousarray(self.shape_feature, dtype=np.float64).reshape(-1)
        cf = np.ascontiguousarray(self.cloud_feature, dtype=np.float64).reshape(-1)
        pose = np.ascontiguousarray(self.pose, dtype=np.float64).reshape(-1)
        if pose.shape != (N_POSE,):
            raise ValueError("PolicyState: pose must have 6 components")
        for name, arr in (("shape_feature", sf), ("cloud_feature", cf),
                          ("pose", pose)):
            if not np.isfinite(arr).all():
                raise ValueError(f"PolicyState: non-finite {name}")
        if np.linalg.norm(pose[3:]) > np.pi + 1e-9:
            raise ValueError("PolicyState: rotation angle exceeds pi")
        object.__setattr__(self, "shape_feature", sf)
        object.__setattr__(self, "cloud_feature", cf)
        object.__setattr__(self, "pose", pose)

    def vector(self):
        return np.concatenate([self.shape_feature, self.cloud_feature, self.pose])


@dataclass(frozen=True)
class PolicyParams:
    """Trained policy: three nets plus the geometry they were fit to.

    The nets' architectures follow from the config (_policy_specs).
    """

    config: PolicyConfig
    schedule: DiffusionSchedule
    shape_params: np.ndarray
    cloud_params: np.ndarray
    denoiser_params: np.ndarray
    control_indices: np.ndarray  # (K,) rows of the finger's surface mesh
    rest_control: np.ndarray  # (K, 3) the finger's rest control vertices
    norm_scale: np.ndarray  # (chunk_dim,) action normalization
    shape_input_scale: float  # mm of control-vertex displacement -> net input

    def __post_init__(self):
        cfg = self.config
        idx = np.ascontiguousarray(self.control_indices, dtype=np.int64)
        rest = np.ascontiguousarray(self.rest_control, dtype=np.float64)
        scale = np.ascontiguousarray(self.norm_scale, dtype=np.float64).reshape(-1)
        if idx.shape != (cfg.control_count,):
            raise ValueError("PolicyParams: control_indices shape mismatch")
        if rest.shape != (cfg.control_count, 3):
            raise ValueError("PolicyParams: rest_control shape mismatch")
        if scale.shape != (cfg.chunk_dim,) or np.any(scale <= 0.0):
            raise ValueError("PolicyParams: norm_scale must be positive per entry")
        s = float(self.shape_input_scale)
        if not (math.isfinite(s) and s > 0.0):
            raise ValueError("PolicyParams: shape_input_scale must be positive")
        object.__setattr__(self, "shape_input_scale", s)
        for name, spec in zip(_NETS, _policy_specs(cfg)):
            params = np.ascontiguousarray(
                getattr(self, f"{name}_params"), dtype=np.float64
            ).reshape(-1)
            if params.shape[0] != spec.n_params:
                raise ValueError(f"PolicyParams: {name} parameter count mismatch")
            object.__setattr__(self, f"{name}_params", params)
        object.__setattr__(self, "control_indices", idx)
        object.__setattr__(self, "rest_control", rest)
        object.__setattr__(self, "norm_scale", scale)


def _policy_specs(cfg: PolicyConfig):
    """The shape, cloud and denoiser architectures, in _NETS order."""
    shape_in = N_FINGERS * cfg.control_count * 3
    shape = nn.MlpSpec.dense((shape_in,) + cfg.shape_hidden + (cfg.shape_feature,))
    cloud = nn.MlpSpec.dense((3,) + cfg.cloud_hidden + (cfg.cloud_feature,))
    den_in = cfg.chunk_dim + cfg.state_dim + cfg.time_feature
    denoiser = nn.MlpSpec.dense(
        (den_in,) + cfg.denoiser_hidden + (cfg.chunk_dim,)
    )
    return shape, cloud, denoiser


def time_embedding(t, dim):
    """Sinusoidal embedding of (1-indexed) diffusion steps; t scalar or (B,)."""
    t = np.asarray(t, dtype=np.float64)
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / half)
    ang = t[..., None] * freqs
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=-1)


def encode_state(vertices, cloud, pose, params: PolicyParams) -> PolicyState:
    """Encode control vertices, a scene cloud, and the palm pose.

    The cloud branch max-pools per-point features, so the result is
    invariant to point order and duplication. Pure and deterministic.
    """
    layout = (N_FINGERS,) + params.rest_control.shape
    vertices = np.asarray(vertices, dtype=np.float64)
    if vertices.shape != layout:
        raise ValueError(
            f"encode_state: vertices {vertices.shape} do not match the "
            f"{layout} control layout"
        )
    cloud = np.asarray(cloud, dtype=np.float64)
    if cloud.ndim != 2 or cloud.shape[1] != 3 or cloud.shape[0] < 1:
        raise ValueError("encode_state: cloud must be a nonempty (P, 3) array")
    shape_in = ((vertices - params.rest_control)
                * params.shape_input_scale).reshape(-1)
    shape_spec, cloud_spec, _ = _policy_specs(params.config)
    shape_feature = nn.forward(shape_spec, params.shape_params, shape_in)
    rows = nn.forward(cloud_spec, params.cloud_params, cloud * CLOUD_INPUT_SCALE)
    pooled, _ = nn.set_max_pool(rows)
    return PolicyState(shape_feature, pooled, pose)


# ---------------------------------------------------------------------------
# Demonstrations -> training pairs.


@dataclass(frozen=True)
class PolicyDataset:
    """Flattened (state, action-chunk) pairs cut from demonstrations."""

    shape_inputs: np.ndarray  # (N, 3*K*3) control-vertex displacements, mm
    clouds: np.ndarray  # (N, P, 3) palm-frame scene points
    poses: np.ndarray  # (N, 6)
    chunks: np.ndarray  # (N, chunk_dim) physical action vectors
    demo_index: np.ndarray  # (N,)
    step_index: np.ndarray  # (N,)
    control_indices: np.ndarray  # (K,)
    rest_control: np.ndarray  # (K, 3)
    config: PolicyConfig

    def __post_init__(self):
        n = self.shape_inputs.shape[0]
        if n < 1:
            raise ValueError("PolicyDataset: empty")
        for name in ("clouds", "poses", "chunks", "demo_index", "step_index"):
            if getattr(self, name).shape[0] != n:
                raise ValueError(f"PolicyDataset: {name} row count mismatch")
        cfg = self.config
        if self.chunks.shape[1] != cfg.chunk_dim:
            raise ValueError("PolicyDataset: chunk width mismatch")
        # The checks PolicyParams makes, before train_policy runs any epoch.
        if self.shape_inputs.shape[1:] != (N_FINGERS * cfg.control_count * 3,):
            raise ValueError("PolicyDataset: shape_inputs width mismatch")
        if np.shape(self.control_indices) != (cfg.control_count,):
            raise ValueError("PolicyDataset: control_indices shape mismatch")
        if np.shape(self.rest_control) != (cfg.control_count, 3):
            raise ValueError("PolicyDataset: rest_control shape mismatch")

    def __len__(self):
        return self.shape_inputs.shape[0]


def _pose_vector(pose):
    if pose is None:
        return np.zeros(N_POSE)
    return np.concatenate([pose.translation, matrix_to_axis_angle(pose.rotation)])


def _pose_delta(before, after):
    """Global frame delta d with after = d o before, as a 6-vector."""
    before = before if before is not None else RigidPose.identity()
    after = after if after is not None else RigidPose.identity()
    rel = after.compose(before.inverse())
    return np.concatenate([rel.translation, matrix_to_axis_angle(rel.rotation)])


def _estimate_control_vertices(model, hand: HandModel, strains, indices):
    """Estimated control-vertex positions, (3, K, 3) or (T, 3, K, 3)."""
    full = hand.fingers[0].surface.vertices + estimator.predict(model, hand, strains)
    return np.take(full, indices, axis=-2)


def build_policy_dataset(pairs, model, hand: HandModel,
                         cfg: PolicyConfig = None):
    """Cut (state, chunk) training pairs from demonstrations.

    pairs: sequence of (Demonstration, world-frame object points). The
    per-step actions finite-difference the *estimated* shapes — the
    policy never sees ground truth. Raises if any action exceeds the
    configured bounds or a demo is shorter than the horizon.
    """
    if cfg is None:
        cfg = PolicyConfig()
    pairs = list(pairs)
    if not pairs:
        raise ValueError("build_policy_dataset: no demonstrations")
    indices = control_vertex_indices(hand, cfg.control_count)
    rest_control = hand.fingers[0].surface.vertices[indices]
    rest_lengths = hand.sensor_rest_lengths
    groups = cfg.step_scale_groups()

    shape_inputs, clouds, poses, chunks = [], [], [], []
    demo_idx, step_idx = [], []
    for d, (demo, points) in enumerate(pairs):
        frames = demo.frames
        steps = len(frames) - 1
        if steps < cfg.horizon:
            raise ValueError(
                f"build_policy_dataset: demo {d} has {steps} actions, "
                f"horizon needs {cfg.horizon}"
            )
        points = np.asarray(points, dtype=np.float64)
        strains = estimator.strains_from_lengths(
            np.stack([f.sensor_lengths for f in frames]), rest_lengths
        )
        est = _estimate_control_vertices(model, hand, strains, indices)
        pose_objs = [f.pose for f in frames]
        actions = np.empty((steps, cfg.step_dim))
        dv_width = N_FINGERS * cfg.control_count * 3
        for t in range(steps):
            actions[t, :dv_width] = (est[t + 1] - est[t]).reshape(-1)
            actions[t, dv_width:] = _pose_delta(pose_objs[t], pose_objs[t + 1])
        for sl, bound in groups:
            worst = float(np.abs(actions[:, sl]).max())
            if worst > bound:
                raise ValueError(
                    f"build_policy_dataset: demo {d} action magnitude "
                    f"{worst:.3g} exceeds the bound {bound:.3g}"
                )
        for t in range(steps - cfg.horizon + 1):
            pose_t = (pose_objs[t] if pose_objs[t] is not None
                      else RigidPose.identity())
            shape_inputs.append((est[t] - rest_control).reshape(-1))
            clouds.append(pose_t.inverse().apply(points))
            poses.append(_pose_vector(pose_objs[t]))
            chunks.append(actions[t : t + cfg.horizon].reshape(-1))
            demo_idx.append(d)
            step_idx.append(t)
    return PolicyDataset(
        shape_inputs=np.stack(shape_inputs),
        clouds=np.stack(clouds),
        poses=np.stack(poses),
        chunks=np.stack(chunks),
        demo_index=np.array(demo_idx, dtype=np.int64),
        step_index=np.array(step_idx, dtype=np.int64),
        control_indices=indices,
        rest_control=rest_control,
        config=cfg,
    )


def _norm_scale(dataset: PolicyDataset):
    """Per-entry normalization from group-wise demo max magnitudes."""
    cfg = dataset.config
    per_step = dataset.chunks.reshape(len(dataset), cfg.horizon, cfg.step_dim)
    scale_step = np.empty(cfg.step_dim)
    for sl, _ in cfg.step_scale_groups():
        scale_step[sl] = NORM_HEADROOM * max(
            float(np.abs(per_step[:, :, sl]).max()), 1e-6
        )
    return np.tile(scale_step, cfg.horizon)


def _shape_input_scale(dataset: PolicyDataset):
    """Shape-input gain putting demo displacements at unit order.

    Without this the conditioning signal shrinks with the workspace:
    sub-0.1 mm estimated displacements would be invisible to the
    denoiser and sampling would collapse toward the prior.
    """
    worst = float(np.abs(dataset.shape_inputs).max())
    return 1.0 / max(NORM_HEADROOM * worst, 1e-6)


def save_demonstration(directory, hand: HandModel, demo: Demonstration,
                       config=None):
    """Persist one demonstration in the dataset container, role 'demo'."""
    cfg = dict(config or {})
    cfg["ramp_steps"] = demo.ramp_steps
    return save_dataset(directory, hand, demo.frames, demo.seed, role="demo",
                        config=cfg)


def load_demonstration(directory, hand: HandModel):
    """Load a demonstration saved by save_demonstration."""
    frames, manifest = load_role(directory, hand, "demo", "collect-demo")
    ramp = (manifest.get("config") or {}).get("ramp_steps")
    if ramp is None:
        raise ValueError(
            f"{Path(directory) / MANIFEST_NAME}: config has no ramp_steps"
        )
    return Demonstration(tuple(frames), int(ramp), int(manifest["seed"]))


# ---------------------------------------------------------------------------
# DDPM training and sampling.


@dataclass(frozen=True)
class PolicyTrainReport:
    """Per-epoch training curves.

    losses: mean noise-prediction MSE (the optimized objective; heavy-
    tailed across epochs because low-step draws carry large algebraic
    weights). recon_losses: mean clean-chunk MSE in normalized units —
    the stable progress signal.
    """

    losses: tuple
    recon_losses: tuple
    samples: int
    epochs: int


def train_policy(dataset: PolicyDataset, cfg: PolicyConfig = None, seed=0):
    """DDPM noise-prediction training, encoders learned jointly.

    Per batch: draw a timestep and Gaussian noise per sample, corrupt the
    normalized chunk, and regress the denoiser output directly against the
    drawn noise with MSE; gradients flow through the denoiser into both
    state encoders. sample_actions reads the output as the noise estimate
    eps_hat. The report's recon_losses track the clean chunk recovered from
    that estimate, (a_t - sqrt(1 - abar_t) * eps_hat) / sqrt(abar_t),
    against the true normalized chunk. Deterministic per seed. Returns
    (PolicyParams, PolicyTrainReport).
    """
    if cfg is None:
        cfg = dataset.config
    if cfg.chunk_dim != dataset.config.chunk_dim:
        raise ValueError("train_policy: config disagrees with the dataset")
    schedule = DiffusionSchedule.default()
    shape_spec, cloud_spec, denoiser_spec = _policy_specs(cfg)
    rng_init = child_rng(seed, STAGE_POLICY, 0)
    rng_batch = child_rng(seed, STAGE_POLICY, 1)
    shape_p = nn.init_params(shape_spec, rng_init)
    cloud_p = nn.init_params(cloud_spec, rng_init)
    den_p = nn.init_params(denoiser_spec, rng_init)
    adam_s = nn.AdamState.for_params(shape_spec.n_params, lr=cfg.lr)
    adam_c = nn.AdamState.for_params(cloud_spec.n_params, lr=cfg.lr)
    adam_d = nn.AdamState.for_params(denoiser_spec.n_params, lr=cfg.lr)

    scale = _norm_scale(dataset)
    in_scale = _shape_input_scale(dataset)
    shape_in_all = dataset.shape_inputs * in_scale
    a0 = dataset.chunks / scale
    n = len(dataset)
    n_points = dataset.clouds.shape[1]
    fs, fc = cfg.shape_feature, cfg.cloud_feature
    da = cfg.chunk_dim
    losses, recon_losses = [], []
    for epoch in range(cfg.epochs):
        order = rng_batch.permutation(n)
        total = recon_total = 0.0
        for lo in range(0, n, cfg.batch):
            rows = order[lo : lo + cfg.batch]
            b = rows.shape[0]
            t = rng_batch.integers(1, schedule.t_diff + 1, size=b)
            eps = rng_batch.standard_normal((b, da))
            abar = schedule.alpha_bars[t - 1][:, None]
            noisy = np.sqrt(abar) * a0[rows] + np.sqrt(1.0 - abar) * eps

            try:
                sf, s_cache = nn.forward_cache(shape_spec, shape_p,
                                               shape_in_all[rows])
                cloud_rows = (dataset.clouds[rows] * CLOUD_INPUT_SCALE).reshape(
                    b * n_points, 3
                )
                hf, c_cache = nn.forward_cache(cloud_spec, cloud_p, cloud_rows)
                pooled, argmax = nn.set_max_pool(hf.reshape(b, n_points, fc))
                x = np.concatenate(
                    [noisy, sf, pooled, dataset.poses[rows],
                     time_embedding(t, cfg.time_feature)],
                    axis=1,
                )
                pred, d_cache = nn.forward_cache(denoiser_spec, den_p, x)
                loss, grad = nn.mse_loss(pred, eps)
                if not math.isfinite(loss):
                    raise TrainingError(f"non-finite loss at epoch {epoch}")
                g_den, g_x = nn.backward(denoiser_spec, den_p, d_cache, grad)
                g_shape, _ = nn.backward(shape_spec, shape_p, s_cache,
                                         g_x[:, da : da + fs])
                g_rows = nn.set_max_pool_grad(
                    g_x[:, da + fs : da + fs + fc], argmax, n_points
                ).reshape(b * n_points, fc)
                g_cloud, _ = nn.backward(cloud_spec, cloud_p, c_cache, g_rows)
                den_p = nn.adam_step(adam_d, den_p, g_den)
                shape_p = nn.adam_step(adam_s, shape_p, g_shape)
                cloud_p = nn.adam_step(adam_c, cloud_p, g_cloud)
            except NonFiniteError as exc:
                raise TrainingError(
                    f"policy training diverged at epoch {epoch}"
                ) from exc
            total += loss * b
            clean = (noisy - np.sqrt(1.0 - abar) * pred) / np.sqrt(abar)
            recon_total += float(np.mean((clean - a0[rows]) ** 2)) * b
        losses.append(total / n)
        recon_losses.append(recon_total / n)
    params = PolicyParams(
        config=cfg,
        schedule=schedule,
        shape_params=shape_p,
        cloud_params=cloud_p,
        denoiser_params=den_p,
        control_indices=dataset.control_indices,
        rest_control=dataset.rest_control,
        norm_scale=scale,
        shape_input_scale=in_scale,
    )
    return params, PolicyTrainReport(tuple(losses), tuple(recon_losses), n, cfg.epochs)


def reverse_step_mean(chunk_t, eps_hat, schedule: DiffusionSchedule, t):
    """Reverse-process mean under the noise-prediction parameterization.

    t is 1-indexed; returns (chunk_t - beta_t/sqrt(1-alpha_bar_t) *
    eps_hat) / sqrt(alpha_t).
    """
    if not 1 <= t <= schedule.t_diff:
        raise ValueError(f"reverse_step_mean: t={t} outside the schedule")
    beta = schedule.betas[t - 1]
    abar = schedule.alpha_bars[t - 1]
    chunk_t = np.asarray(chunk_t, dtype=np.float64)
    eps_hat = np.asarray(eps_hat, dtype=np.float64)
    return (chunk_t - beta / np.sqrt(1.0 - abar) * eps_hat) / np.sqrt(1.0 - beta)


def sample_actions(params: PolicyParams, state: PolicyState, seed=0) -> ActionChunk:
    """Ancestral reverse-process sampling of one action chunk.

    sigma_t = sqrt(beta_t), no noise injected at the last step; the
    de-normalized chunk is clipped to the configured bounds.
    Deterministic per seed.
    """
    cfg = params.config
    schedule = params.schedule
    rng = child_rng(seed, STAGE_POLICY, 2)
    sv = state.vector()
    if sv.shape[0] != cfg.state_dim:
        raise ValueError("sample_actions: state width does not match the policy")
    denoiser_spec = _policy_specs(cfg)[2]
    x = rng.standard_normal(cfg.chunk_dim)
    for t in range(schedule.t_diff, 0, -1):
        net_in = np.concatenate(
            [x, sv, time_embedding(float(t), cfg.time_feature)]
        )
        eps_hat = nn.forward(denoiser_spec, params.denoiser_params, net_in)
        x = reverse_step_mean(x, eps_hat, schedule, t)
        if t > 1:
            x = x + np.sqrt(schedule.betas[t - 1]) * rng.standard_normal(
                cfg.chunk_dim
            )
        if not np.isfinite(x).all():
            raise ValueError(f"sample_actions: non-finite chunk at step {t}")
    chunk = ActionChunk.from_vector(x * params.norm_scale, cfg.horizon,
                                    cfg.control_count)
    return chunk.clipped(cfg)


# ---------------------------------------------------------------------------
# Closed-loop receding-horizon rollout.


@dataclass(frozen=True)
class RolloutTask:
    """Scene points, optional reference demos, and the step budget."""

    object_points: np.ndarray  # (P, 3) world frame
    demos: tuple = ()  # Demonstrations to measure deviation against
    steps: int = None  # default: first demo's action count

    def __post_init__(self):
        points = np.ascontiguousarray(self.object_points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 3 or points.shape[0] < 1:
            raise ValueError("RolloutTask: object_points must be (P, 3)")
        if not np.isfinite(points).all():
            raise ValueError("RolloutTask: non-finite object points")
        demos = tuple(self.demos)
        if self.steps is None and not demos:
            raise ValueError("RolloutTask: need steps or at least one demo")
        steps = len(demos[0]) - 1 if self.steps is None else self.steps
        if steps < 1:
            raise ValueError(
                "RolloutTask: steps must be >= 1 (a demo has one action "
                "fewer than frames)"
            )
        object.__setattr__(self, "object_points", points)
        object.__setattr__(self, "demos", demos)
        object.__setattr__(self, "steps", steps)


@dataclass(frozen=True)
class RolloutReport:
    """Closed-loop rollout metrics, JSON-ready via dataclasses.asdict."""

    steps: int
    replans: int
    per_step_ref_error_mm: tuple
    deviation_mm: float = None
    path_length_mm: float = None
    deviation_ratio: float = None
    nearest_demo: int = None
    per_step_deviation_mm: tuple = None
    aborted: bool = False
    fail_step: int = None
    seed: int = 0


def _control_trajectory(frames, hand: HandModel, indices):
    """True control-vertex positions per frame, (T, 3, K, 3)."""
    return np.take(np.stack([f.surfaces(hand) for f in frames]), indices, axis=-2)


def rollout(params: PolicyParams, hand: HandModel, model, directions,
            task: RolloutTask, seed=0):
    """Receding-horizon policy execution through the shape controller.

    Each replan encodes the live estimated state, samples a chunk, and
    tracks the first exec_horizon steps as a control-vertex reference.
    Deviation is measured between the true executed control vertices and
    the nearest demonstration, normalized by that demo's path length.
    """
    cfg = params.config
    steps = task.steps
    rest_lengths = hand.sensor_rest_lengths
    if int(params.control_indices.max()) >= hand.fingers[0].surface.vertices.shape[0]:
        raise ValueError("rollout: policy control vertices exceed the hand mesh")

    state = TrackState.at_rest(hand, trace=True)
    pose = RigidPose.identity()
    ref_errors = []
    aborted = False
    fail_step = None
    executed = 0
    replans = 0
    while executed < steps and not aborted:
        n_exec = min(cfg.exec_horizon, steps - executed)
        strains = estimator.strains_from_lengths(state.frame.sensor_lengths,
                                                 rest_lengths)
        est = _estimate_control_vertices(model, hand, strains,
                                         params.control_indices)
        cloud = pose.inverse().apply(task.object_points)
        enc = encode_state(est, cloud, _pose_vector(pose), params)
        chunk = sample_actions(params, enc,
                               seed=child_int(seed, STAGE_ROLLOUT, replans))
        replans += 1
        desired = est[None] + np.cumsum(chunk.vertex_deltas[:n_exec], axis=0)
        ref = ReferenceTrajectory(
            times=np.arange(executed + 1, executed + n_exec + 1, dtype=np.float64),
            vertices=desired,
            strains=np.tile(strains, (n_exec, 1)),
            rest_vertices=params.rest_control,
            source="policy",
            vertex_indices=params.control_indices,
        )
        try:
            rep = track_trajectory(hand, model, directions, ref, state=state)
        except SolverFailure:
            aborted = True
            fail_step = executed
            break
        ref_errors.extend(rep.per_step_error_mm)
        done = len(rep.per_step_error_mm)
        for dp in chunk.pose_deltas[:done]:
            delta = RigidPose(axis_angle_to_matrix(dp[3:]), dp[:3])
            pose = delta.compose(pose)
        executed += done
        if rep.aborted:
            aborted = True
            fail_step = executed
            break

    deviation = path_length = ratio = nearest = per_step_dev = None
    trace = state.trace
    if task.demos and trace:
        rolled = _control_trajectory(trace, hand, params.control_indices)
        best = None
        for d, demo in enumerate(task.demos):
            truth = _control_trajectory(demo.frames, hand, params.control_indices)
            n = min(rolled.shape[0], truth.shape[0] - 1)
            per_step = np.linalg.norm(
                rolled[:n] - truth[1 : n + 1], axis=3
            ).mean(axis=(1, 2))
            mean_dev = float(per_step.mean())
            if best is None or mean_dev < best[0]:
                best = (mean_dev, d, tuple(float(v) for v in per_step), truth)
        deviation, nearest, per_step_dev, truth = best
        # The nearest demo's summed mean per-vertex step distance, in mm.
        demo_steps = np.linalg.norm(np.diff(truth, axis=0), axis=3)
        path_length = float(demo_steps.mean(axis=(1, 2)).sum())
        ratio = deviation / path_length if path_length > 0 else math.inf
    return RolloutReport(
        steps=executed,
        replans=replans,
        per_step_ref_error_mm=tuple(ref_errors),
        deviation_mm=deviation,
        path_length_mm=path_length,
        deviation_ratio=ratio,
        nearest_demo=nearest,
        per_step_deviation_mm=per_step_dev,
        aborted=aborted,
        fail_step=fail_step,
        seed=int(seed),
    )


# ---------------------------------------------------------------------------
# Persistence: one directory, three net checkpoints plus a manifest.


def save_policy(directory, params: PolicyParams):
    """Write the policy checkpoint directory; returns the manifest dict."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    nets = {}
    for name, spec in zip(_NETS, _policy_specs(params.config)):
        file_name = f"{name}.ksnn"
        nn.save_checkpoint(directory / file_name, spec,
                           getattr(params, f"{name}_params"))
        nets[name] = file_name
    manifest = {
        "format": POLICY_FORMAT,
        "config": asdict(params.config),
        "betas": [float(b) for b in params.schedule.betas],
        "control_indices": params.control_indices.tolist(),
        "rest_control": params.rest_control.tolist(),
        "norm_scale": [float(s) for s in params.norm_scale],
        "shape_input_scale": params.shape_input_scale,
        "nets": nets,
    }
    write_manifest(directory, manifest)
    return manifest


def load_policy(directory) -> PolicyParams:
    """Load a policy checkpoint directory written by save_policy."""
    manifest = read_manifest(directory, POLICY_FORMAT, "train-policy")
    cfg = PolicyConfig(**manifest["config"])
    nets = {}
    for name, spec in zip(_NETS, _policy_specs(cfg)):
        path = artifact_file(directory, manifest["nets"][name], "train-policy")
        nets[f"{name}_params"] = nn.load_checkpoint(path, spec)
    return PolicyParams(
        config=cfg,
        schedule=DiffusionSchedule(np.array(manifest["betas"])),
        **nets,
        control_indices=np.array(manifest["control_indices"], dtype=np.int64),
        rest_control=np.array(manifest["rest_control"]),
        norm_scale=np.array(manifest["norm_scale"]),
        shape_input_scale=float(manifest["shape_input_scale"]),
    )
