"""Shape-estimation baselines: constant curvature, direct point
regression, and a plain linear readout.

The constant-curvature model explains the four sensor strains with a
single arc (bending magnitude + plane) and sweeps the rest cross-section
along it. The direct-points model regresses a fixed-size point cloud
from strains with a chamfer loss and carries no vertex correspondence.
The linear readout maps strains straight to vertex displacements by
least squares. All three exist to be beaten by the shape estimator on
force-perturbed data, and to prove it on the same metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nn
from .errors import NonFiniteError, TrainingError
from .geometry import farthest_point_indices, mean_nn_distance
from .seeding import STAGE_BASELINE, child_rng
from .simulator import N_FINGERS, FingerModel, HandModel


# ---------------------------------------------------------------------------
# Constant-curvature baseline.


@dataclass(frozen=True)
class CurvatureState:
    """One arc: radius, swept angle, bending-plane azimuth, arc length.

    r_curve * theta_curve must equal L_curve; the straight configuration
    is the analytic theta -> 0 limit, stored as (inf, 0).
    """

    r_curve: float  # mm
    theta_curve: float  # rad
    phi_curve: float  # rad, direction the finger bends toward
    L_curve: float  # mm

    def __post_init__(self):
        if self.L_curve <= 0:
            raise ValueError("CurvatureState: arc length must be positive")
        if self.theta_curve == 0.0:
            if not math.isinf(self.r_curve):
                raise ValueError("CurvatureState: straight state needs r = inf")
        elif abs(self.r_curve * self.theta_curve - self.L_curve) > 1e-9:
            raise ValueError(
                f"CurvatureState: r*theta = {self.r_curve * self.theta_curve!r} "
                f"does not equal L = {self.L_curve!r}"
            )

    @property
    def curvature(self):
        return 0.0 if self.theta_curve == 0.0 else 1.0 / self.r_curve


def sensor_cross_section(finger: FingerModel):
    """Rest (x, y) offsets of each sensor fiber from the finger axis."""
    return np.array(
        [p.positions(finger.rest.nodes)[0, :2] for p in finger.sensor_paths]
    )


def fit_constant_curvature(strains, finger: FingerModel):
    """Least-squares arc from one finger's 4 strains.

    A fiber at cross-section offset p under curvature kappa toward unit
    direction d has axial strain -kappa (p . d), so the strains are linear
    in (A, B) = -kappa (cos phi, sin phi) with features = sensor (x, y).
    """
    strains = np.asarray(strains, dtype=np.float64).reshape(-1)
    if strains.shape[0] != len(finger.sensor_paths):
        raise ValueError(
            f"fit_constant_curvature: {strains.shape[0]} strains for "
            f"{len(finger.sensor_paths)} sensors"
        )
    feats = sensor_cross_section(finger)
    coef, *_ = np.linalg.lstsq(feats, strains, rcond=None)
    a, b = coef
    kappa = math.hypot(a, b)
    length = float(finger.length_mm)
    if kappa * length < 1e-12:
        return CurvatureState(math.inf, 0.0, 0.0, length)
    phi = math.atan2(-b, -a)
    theta = kappa * length
    return CurvatureState(1.0 / kappa, theta, phi, length)


def curvature_surface_points(state: CurvatureState, rest_vertices):
    """Sweep rest vertices along the arc; theta = 0 returns rest exactly.

    Each vertex (x, y, z) keeps its cross-section offset (x, y) but the
    cross-section frame rotates about the bending axis by kappa*z while
    the centerline follows the arc.
    """
    verts = np.asarray(rest_vertices, dtype=np.float64)
    if state.theta_curve == 0.0:
        return verts.copy()
    kappa = state.curvature
    d = np.array([math.cos(state.phi_curve), math.sin(state.phi_curve), 0.0])
    w = np.array([-math.sin(state.phi_curve), math.cos(state.phi_curve), 0.0])
    z = verts[:, 2]
    ang = kappa * z
    r = state.r_curve
    center = d * (r * (1.0 - np.cos(ang)))[:, None]
    center[:, 2] = r * np.sin(ang)
    p = verts.copy()
    p[:, 2] = 0.0
    cos_a = np.cos(ang)[:, None]
    sin_a = np.sin(ang)[:, None]
    wxp = np.cross(np.broadcast_to(w, p.shape), p)
    wdp = (p @ w)[:, None]
    rotated = p * cos_a + wxp * sin_a + w * wdp * (1.0 - cos_a)
    return center + rotated


def predict_constant_curvature(strains, finger: FingerModel):
    """Strains (4,) -> predicted surface cloud for one finger."""
    state = fit_constant_curvature(strains, finger)
    return curvature_surface_points(state, finger.surface.vertices)


# ---------------------------------------------------------------------------
# Direct point-cloud regression baseline.


@dataclass(frozen=True)
class DirectPointsModel:
    """MLP straight from 4 strains to a fixed-size finger point cloud."""

    spec: nn.MlpSpec
    params: np.ndarray
    n_points: int

    def __post_init__(self):
        if self.spec.sizes[-1] != 3 * self.n_points:
            raise ValueError("DirectPointsModel: head width must be 3 * n_points")
        object.__setattr__(
            self, "params", np.ascontiguousarray(self.params, dtype=np.float64)
        )


def init_direct_points(rest_vertices, n_points, rng):
    """Head starts at a farthest-point subset of the rest surface."""
    verts = np.asarray(rest_vertices, dtype=np.float64)
    if n_points > verts.shape[0]:
        raise ValueError("init_direct_points: more points than rest vertices")
    spec = nn.MlpSpec.dense([4, 128, 256, 3 * n_points])
    params = nn.init_params(spec, rng)
    w_last, b_last = nn.unpack_params(spec, params)[-1]
    w_last[:] = 0.0
    b_last[:] = verts[farthest_point_indices(verts, n_points)].ravel()
    return DirectPointsModel(spec, params, int(n_points))


def predict_direct_points(model: DirectPointsModel, strains):
    """Strains (4,) or (B, 4) -> cloud (K, 3) or (B, K, 3)."""
    strains = np.asarray(strains, dtype=np.float64)
    squeeze = strains.ndim == 1
    out = nn.forward(model.spec, model.params, np.atleast_2d(strains))
    clouds = out.reshape(-1, model.n_points, 3)
    return clouds[0] if squeeze else clouds


def _chamfer_loss_grad(pred, target):
    """Symmetric chamfer (squared) between one predicted and one observed
    cloud; returns (loss, dloss/dpred)."""
    k = pred.shape[0]
    v = target.shape[0]
    d2 = ((pred[:, None, :] - target[None, :, :]) ** 2).sum(axis=2)
    fwd_ix = d2.argmin(axis=1)
    bwd_ix = d2.argmin(axis=0)
    fwd = pred - target[fwd_ix]
    bwd = target - pred[bwd_ix]
    loss = float((fwd**2).sum()) / k + float((bwd**2).sum()) / v
    grad = (2.0 / k) * fwd
    np.add.at(grad, bwd_ix, (-2.0 / v) * bwd)
    return loss, grad


def train_direct_points(frames, hand: HandModel, seed, n_points=128, epochs=40,
                        batch=32, lr=1e-3, val_fraction=0.1):
    """Chamfer-trained cloud regressor; returns (model, report dict)."""
    from .estimator import samples_from_frames, split_frames

    x, y, frame_ix, has_force = samples_from_frames(frames, hand)
    rest = hand.fingers[0].surface.vertices
    clouds = rest[None] + y  # (N, V, 3) absolute observed surfaces

    rng = child_rng(seed, STAGE_BASELINE, 0)
    model = init_direct_points(rest, n_points, rng)
    train_f, val_f = split_frames(len(frames), has_force, val_fraction, rng)
    tr = np.flatnonzero(np.isin(frame_ix, train_f))
    va = np.flatnonzero(np.isin(frame_ix, val_f))

    adam = nn.AdamState.for_params(model.params.size, lr=lr)
    curve = []
    for epoch in range(epochs):
        order = rng.permutation(tr)
        epoch_loss = 0.0
        for s in range(0, order.size, batch):
            ix = order[s : s + batch]
            pred, cache = nn.forward_cache(model.spec, model.params, x[ix])
            pred_pts = pred.reshape(ix.size, n_points, 3)
            grad_out = np.zeros_like(pred_pts)
            batch_loss = 0.0
            for b, i in enumerate(ix):
                loss, grad = _chamfer_loss_grad(pred_pts[b], clouds[i])
                batch_loss += loss
                grad_out[b] = grad / ix.size
            if not np.isfinite(batch_loss):
                raise TrainingError(f"chamfer loss diverged at epoch {epoch}")
            try:
                grads, _ = nn.backward(
                    model.spec, model.params, cache, grad_out.reshape(ix.size, -1)
                )
            except NonFiniteError as exc:
                raise TrainingError(
                    f"chamfer training diverged at epoch {epoch}"
                ) from exc
            new_params = nn.adam_step(adam, model.params, grads)
            model = DirectPointsModel(model.spec, new_params, n_points)
            epoch_loss += batch_loss
        curve.append(epoch_loss / tr.size)
    val_nn = [
        float(mean_nn_distance(predict_direct_points(model, x[i]), clouds[i]))
        for i in va
    ]
    report = {
        "train_chamfer_mm2": curve,
        "val_mean_nn_mm": float(np.mean(val_nn)),
        "n_points": int(n_points),
        "seed": int(seed),
    }
    return model, report


# ---------------------------------------------------------------------------
# Linear readout baseline: strains -> stacked displacements by least squares.


@dataclass(frozen=True)
class LinearReadout:
    """Affine map from one finger's 4 strains to its vertex displacements."""

    weights: np.ndarray  # (5, V*3); row 0 is the bias
    n_vertices: int


def fit_linear_readout(frames, hand: HandModel):
    from .estimator import samples_from_frames

    x, y, _, _ = samples_from_frames(frames, hand)
    feats = np.concatenate([np.ones((x.shape[0], 1)), x], axis=1)
    targets = y.reshape(y.shape[0], -1)
    weights, *_ = np.linalg.lstsq(feats, targets, rcond=None)
    return LinearReadout(weights, y.shape[1])


def predict_linear(model: LinearReadout, strains):
    """Strains (4,) -> displacement field (V, 3)."""
    strains = np.asarray(strains, dtype=np.float64).reshape(4)
    feats = np.concatenate([[1.0], strains])
    return (feats @ model.weights).reshape(model.n_vertices, 3)


# ---------------------------------------------------------------------------
# Shared cloud evaluation.


def evaluate_cloud_baseline(predict_fn, frames, hand: HandModel):
    """{mean_mm, std_mm, per_frame[]} on mean_nn_distance to the true surface.

    predict_fn(strains4, finger_index) must return a finger-local cloud.
    """
    from .estimator import samples_from_frames

    x, y, frame_ix, _ = samples_from_frames(frames, hand)
    rest = hand.fingers[0].surface.vertices
    vals = np.array(
        [
            float(
                mean_nn_distance(
                    predict_fn(x[s], s % N_FINGERS), rest + y[s]
                )
            )
            for s in range(x.shape[0])
        ]
    )
    per_frame = [float(vals[frame_ix == i].mean()) for i in range(len(frames))]
    return {
        "metric": "mean_nn_distance_mm",
        "mean_mm": float(vals.mean()),
        "std_mm": float(vals.std()),
        "per_frame": per_frame,
    }
