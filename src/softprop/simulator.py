"""Quasi-static tendon-driven soft-finger simulator.

A finger is a capped solid cylinder of near-incompressible hyperelastic
material (stable Neo-Hookean energy per tet), clamped at its base, with
four tendon polylines and four strain-sensor polylines embedded inside.
Two servo channels per finger each drive an antagonistic tendon pair:
channel value u in [0, 1] pulls one tendon's path-length target down to
(1 - c u) L0 and releases the opposite one to (1 + c u) L0, both through
stiff quadratic penalties. External "contact-like" forces are dead loads
spread over surface nodes with a Gaussian falloff computed on the rest
shape.

Equilibria come from damped Newton with backtracking line search on the
total energy; there are no dynamics. Every solve is a continuation step:
its start state balances known tendon targets (rest balances the zero
command, each later cold stage starts at the previous stage's end state,
a warm start names the command it was solved for), and the first Newton
matrix is taken at those targets. With the gradient at the new targets,
that first step is the Euler (tangent) predictor of the equilibrium path;
the later iterations are the Newton corrector (Allgower and Georg,
"Introduction to Numerical Continuation Methods", SIAM 2003), which only
the last stage of a cold ramp runs to the tolerance. A converged
state with an inverted tet is a SolverFailure. The Newton matrix splits into a
banded local part C (elastic plus tendon curvature, symmetric, assembled
as its lower band only from precomputed per-entry stencils, and factorized
by banded Cholesky with diagonal damping raised until it succeeds) and one
rank-1 term per tendon handled by the Woodbury identity; that split is what
makes dataset-scale solving cheap. Each state the solver visits gets one
kinematics evaluation (per-tet F from one sparse operator, cofactor and J,
plus the segments of all four tendons from one more sparse operator),
shared by its energy, gradient and Newton matrix.
Solves that do not depend on each other (the three fingers of a hand
frame, the fingers of dataset frames, and each finger's warm-started chain
through an open-loop schedule) run in one pool of forked workers per
process, one per CPU this process may use, each pinned to its own CPU and
with one BLAS thread. The pool is kept across calls, so a control step's
three warm solves share both cores without paying for a fork; the
estimator's training steps and the calibration's CMA-ES generations run
their contiguous shares in the same pool.
Units: mm, kPa, mN (1 kPa mm^2 = 1 mN), energies in mN mm.
"""

from __future__ import annotations

import ctypes
import logging
import math
import os
import signal
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing import get_context

import numpy as np
from scipy.linalg import LinAlgError, solveh_banded
from scipy.sparse import csr_matrix

from .errors import SolverFailure
from .geometry import (
    EmbeddedPath,
    RigidPose,
    SurfaceMesh,
    TetraMesh,
    embed_point,
    rotation_about_z,
    sample_surface_points,
    signed_volumes,
)
from .seeding import STAGE_DATASET, child_rng

log = logging.getLogger("softprop.simulator")

N_FINGERS = 3
TENDONS_PER_FINGER = 4
SENSORS_PER_FINGER = 4

# Fraction of tendon rest length removed (added) at full channel command.
TENDON_SHORTENING = 0.25

# Newton iterations allowed per solve stage before SolverFailure.
_MAX_NEWTON_ITERS = 100

# Cold starts ramp the command in stages of at most this channel increment;
# each stage warm-starts the next. Every stage but the last stops after at
# most _STAGE_ITERS Newton iterations: its state only starts the next stage's
# predictor, so only the last stage must reach the tolerance (a capped ramp
# that fails runs again with every stage converged). Pure solver aid,
# invisible in results beyond the tolerance.
_STAGE_STEP = 0.25
_STAGE_ITERS = 4

# Diagonal damping tried in turn when Cholesky fails or a Newton step is
# not a descent direction, in units of the mean |diagonal|. Scaling by 8 is
# exact in binary floating point.
_DAMPING = (0.0,) + tuple(1e-7 * 8.0**k for k in range(23))

# Index rolls i -> i + 1 and i -> i + 2 (mod 3) of the cofactor products.
_NEXT = np.array([1, 2, 0])
_AFTER_NEXT = np.array([2, 0, 1])

_RING = 12  # angular sectors of the canonical mesh; multiple of 4 keeps the
# build exactly symmetric under 90-degree rotation, which the
# controller's direction fitting relies on.


@dataclass(frozen=True)
class MaterialParams:
    """Hyperelastic material constants plus the dataset randomization range."""

    youngs_modulus_kpa: float = 125.0
    poisson_ratio: float = 0.45
    e_range: float = 0.3  # dataset draws E scaled by uniform(1 - r, 1 + r)

    def __post_init__(self):
        if self.youngs_modulus_kpa <= 0:
            raise ValueError("MaterialParams: Young's modulus must be positive")
        if not 0.0 <= self.poisson_ratio < 0.5:
            raise ValueError("MaterialParams: Poisson ratio must be in [0, 0.5)")
        if not 0.0 <= self.e_range < 1.0:
            raise ValueError("MaterialParams: e_range must be in [0, 1)")

    def lame(self):
        e, nu = self.youngs_modulus_kpa, self.poisson_ratio
        mu = e / (2.0 * (1.0 + nu))
        lam = e * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
        return mu, lam


@dataclass(frozen=True)
class ExternalForceEvent:
    """Dead load spread around a surface point with Gaussian falloff.

    The window is a half-open step interval [start, stop) used by
    trajectory generators; single solves apply the event regardless.
    """

    center: np.ndarray  # (3,) mm, finger-local
    radius_mm: float
    force_mn: np.ndarray  # (3,)
    window: tuple = (0, 1)

    def __post_init__(self):
        c = np.ascontiguousarray(self.center, dtype=np.float64).reshape(3)
        f = np.ascontiguousarray(self.force_mn, dtype=np.float64).reshape(3)
        if not (np.isfinite(c).all() and np.isfinite(f).all()):
            raise ValueError("ExternalForceEvent: non-finite fields")
        if self.radius_mm <= 0:
            raise ValueError("ExternalForceEvent: radius must be positive")
        w = (int(self.window[0]), int(self.window[1]))
        if w[1] <= w[0]:
            raise ValueError("ExternalForceEvent: empty step window")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "force_mn", f)
        object.__setattr__(self, "radius_mm", float(self.radius_mm))
        object.__setattr__(self, "window", w)

    def scaled(self, factor):
        return ExternalForceEvent(
            self.center, self.radius_mm, self.force_mn * factor, self.window
        )


@dataclass(frozen=True)
class TendonCommand:
    """Six servo channel values in [0, 1]: two per finger, three fingers."""

    u: np.ndarray

    def __post_init__(self):
        u = np.ascontiguousarray(self.u, dtype=np.float64).reshape(-1)
        if u.shape != (6,):
            raise ValueError(f"TendonCommand: expected 6 channels, got {u.shape}")
        if not np.isfinite(u).all() or u.min() < 0.0 or u.max() > 1.0:
            raise ValueError(f"TendonCommand: channels must lie in [0, 1], got {u}")
        object.__setattr__(self, "u", u)

    @staticmethod
    def rest():
        return TendonCommand(np.zeros(6))

    def finger(self, j):
        return self.u[2 * j : 2 * j + 2]


@dataclass(frozen=True)
class FingerModel:
    """Rest geometry, embedded tendon/sensor polylines, clamp set, material."""

    rest: TetraMesh
    surface: SurfaceMesh
    tendon_paths: tuple
    sensor_paths: tuple
    base_fixed: np.ndarray
    material: MaterialParams
    radius_mm: float
    length_mm: float
    tendon_stiffness: float = 5000.0  # mN/mm, well above the elastic scale E A / L

    def __post_init__(self):
        if len(self.tendon_paths) != TENDONS_PER_FINGER:
            raise ValueError("FingerModel: exactly 4 tendon paths required")
        if len(self.sensor_paths) != SENSORS_PER_FINGER:
            raise ValueError("FingerModel: exactly 4 sensor paths required")
        base = np.ascontiguousarray(self.base_fixed, dtype=np.int64)
        if base.size == 0:
            raise ValueError("FingerModel: base clamp set is empty")
        for p in self.tendon_paths + self.sensor_paths:
            if len(p) < 2:
                raise ValueError("FingerModel: embedded paths need at least 2 points")
        object.__setattr__(self, "base_fixed", base)
        object.__setattr__(self, "_cache_slot", [None])

    @property
    def sensor_rest_lengths(self):
        return np.array([p.length(self.rest.nodes) for p in self.sensor_paths])

    @property
    def tendon_rest_lengths(self):
        return np.array([p.length(self.rest.nodes) for p in self.tendon_paths])

    @property
    def tip_node(self):
        # Center node of the last layer in the canonical build.
        return self.rest.n_nodes - (_RING + 1)

    def solver_cache(self):
        slot = self._cache_slot
        if slot[0] is None:
            slot[0] = _SolverCache(self)
        return slot[0]


def build_canonical_finger(
    segments=18,
    radius_mm=8.0,
    length_mm=80.0,
    material=None,
    tendon_stiffness=5000.0,
):
    """Capped solid cylinder along +z with embedded tendon and sensor lines.

    Layers of (center + ring of 12) nodes; every wedge prism splits into 3
    tets with rotation-equivariant diagonals, so the mesh maps onto itself
    under 90-degree rotations about the axis. Tendons run at 0.7 r and
    angles 0/90/180/270 degrees from base plane to tip cap; sensors run at
    0.55 r and 45-degree offsets, strictly inside the volume.
    """
    if segments < 4:
        raise ValueError("build_canonical_finger: segments must be >= 4")
    if radius_mm <= 0 or length_mm <= 0:
        raise ValueError("build_canonical_finger: dimensions must be positive")
    material = material or MaterialParams()

    k = _RING
    layers = segments + 1
    dz = length_mm / segments
    angles = 2.0 * np.pi * np.arange(k) / k

    nodes = np.zeros((layers * (k + 1), 3))
    for i in range(layers):
        base = i * (k + 1)
        nodes[base] = (0.0, 0.0, i * dz)
        nodes[base + 1 : base + 1 + k, 0] = radius_mm * np.cos(angles)
        nodes[base + 1 : base + 1 + k, 1] = radius_mm * np.sin(angles)
        nodes[base + 1 : base + 1 + k, 2] = i * dz

    tets = []
    for i in range(segments):
        lo = i * (k + 1)
        hi = (i + 1) * (k + 1)
        for s in range(k):
            a = lo + 1 + s
            b = lo + 1 + (s + 1) % k
            ap = hi + 1 + s
            bp = hi + 1 + (s + 1) % k
            tets.append((lo, a, b, bp))
            tets.append((lo, a, bp, ap))
            tets.append((lo, ap, bp, hi))
    tets = np.array(tets, dtype=np.int64)

    surface_nodes, faces = _boundary_surface(nodes, tets)
    mesh = TetraMesh(nodes, tets, surface_nodes)
    surface = SurfaceMesh(nodes[surface_nodes], faces)

    def radial_path(r_frac, angle_deg, zs):
        r = r_frac * radius_mm
        th = math.radians(angle_deg)
        pts = [
            embed_point(mesh, (r * math.cos(th), r * math.sin(th), z), tol_mm=1e-6)
            for z in zs
        ]
        return EmbeddedPath.from_points(mesh, pts)

    # Interior samples sit at mid-slab heights so every segment stencil spans
    # at most two tet slabs (keeps the Newton matrix bandwidth small); the
    # endpoints still reach the base plane and the tip cap.
    tendon_z = np.concatenate(
        [[0.0], (np.arange(segments) + 0.5) * dz, [length_mm]]
    )
    tendons = tuple(radial_path(0.7, ang, tendon_z) for ang in (0, 90, 180, 270))
    sensor_z = np.linspace(0.5 * dz, length_mm - 0.5 * dz, segments)
    sensors = tuple(radial_path(0.55, ang, sensor_z) for ang in (45, 135, 225, 315))

    return FingerModel(
        rest=mesh,
        surface=surface,
        tendon_paths=tendons,
        sensor_paths=sensors,
        base_fixed=np.arange(k + 1, dtype=np.int64),
        material=material,
        radius_mm=float(radius_mm),
        length_mm=float(length_mm),
        tendon_stiffness=float(tendon_stiffness),
    )


def _boundary_surface(nodes, tets):
    """Faces used by exactly one tet, plus the sorted node set they touch."""
    # Outward-oriented faces of a positive tet (n0, n1, n2, n3).
    face_ids = np.concatenate(
        [
            tets[:, [1, 2, 3]],
            tets[:, [0, 3, 2]],
            tets[:, [0, 1, 3]],
            tets[:, [0, 2, 1]],
        ]
    )
    keys = np.sort(face_ids, axis=1)
    _, first, counts = np.unique(keys, axis=0, return_index=True, return_counts=True)
    boundary = face_ids[first[counts == 1]]
    surf_nodes = np.unique(boundary)
    remap = np.full(nodes.shape[0], -1, dtype=np.int64)
    remap[surf_nodes] = np.arange(surf_nodes.size)
    return surf_nodes, remap[boundary]


@dataclass(frozen=True)
class HandModel:
    """One FingerModel at three mounts around a palm frame.

    fingers holds the same FingerModel object three times, so every
    per-finger constant (rest surface, sensor rest lengths, actuation
    directions) is "the" finger's, hand.fingers[0].
    """

    fingers: tuple
    mounts: tuple

    def __post_init__(self):
        if len(self.fingers) != N_FINGERS or len(self.mounts) != N_FINGERS:
            raise ValueError("HandModel: exactly 3 fingers and 3 mounts required")
        if any(f is not self.fingers[0] for f in self.fingers):
            raise ValueError("HandModel: the three fingers must be one FingerModel")
        for m in self.mounts:
            if not isinstance(m, RigidPose):
                raise ValueError("HandModel: mounts must be RigidPose instances")

    @property
    def sensor_rest_lengths(self):
        """(12,) rest lengths of all sensors, finger by finger."""
        return np.tile(self.fingers[0].sensor_rest_lengths, N_FINGERS)

    @property
    def rest_surfaces(self):
        """(3, V, 3) finger-local rest surface vertices of all fingers."""
        return np.stack((self.fingers[0].surface.vertices,) * N_FINGERS)

    @staticmethod
    def build_standard(
        segments=18,
        radius_mm=8.0,
        length_mm=80.0,
        material=None,
        mount_radius_mm=30.0,
        tendon_stiffness=5000.0,
    ):
        finger = build_canonical_finger(
            segments, radius_mm, length_mm, material, tendon_stiffness
        )
        mounts = []
        for j in range(N_FINGERS):
            rot = rotation_about_z(2.0 * np.pi * j / N_FINGERS)
            mounts.append(RigidPose(rot, rot @ np.array([mount_radius_mm, 0.0, 0.0])))
        return HandModel((finger,) * N_FINGERS, tuple(mounts))


@dataclass(frozen=True)
class SolveStats:
    iterations: int
    energies: tuple  # total energy after each accepted step, first entry = start
    residual: float
    stages: int
    cholesky_failures: int  # damped factorizations that were not positive definite


@dataclass(frozen=True)
class FingerFrame:
    """Equilibrium of one finger: nodes, sensor lengths, and solve diagnostics."""

    nodes: np.ndarray  # (M, 3)
    sensor_lengths: np.ndarray  # (4,)
    command: np.ndarray  # (2,)
    stats: SolveStats


@dataclass(frozen=True)
class SimFrame:
    """One hand-level sample: all finger equilibria under one command."""

    command: np.ndarray  # (6,)
    nodes: np.ndarray  # (3, M, 3) finger-local
    sensor_lengths: np.ndarray  # (12,)
    forces: tuple  # per finger: tuple of applied ExternalForceEvents
    e_scales: np.ndarray  # (3,) material scale used per finger
    pose: RigidPose = None  # palm pose, set on demonstration frames
    stats: tuple = None  # per finger: its SolveStats; not stored, None when loaded

    def __post_init__(self):
        lengths = np.ascontiguousarray(self.sensor_lengths, dtype=np.float64).reshape(-1)
        if lengths.shape != (12,) or lengths.min() <= 0:
            raise ValueError("SimFrame: needs 12 positive sensor lengths")
        object.__setattr__(self, "sensor_lengths", lengths)
        object.__setattr__(
            self, "command", np.ascontiguousarray(self.command, dtype=np.float64).reshape(6)
        )
        object.__setattr__(
            self, "e_scales", np.ascontiguousarray(self.e_scales, dtype=np.float64).reshape(3)
        )

    def surfaces(self, hand: HandModel):
        """(3, V, 3) finger-local surface vertices of all fingers, C-ordered."""
        return np.take(self.nodes, hand.fingers[0].rest.surface_map, axis=1)


# ---------------------------------------------------------------------------
# Solver internals.


@dataclass(frozen=True)
class _Kinematics:
    """One state's per-tet F, cofactor and J, plus the segments of all four
    tendons (in tendon order), their lengths and each tendon's length."""

    x: np.ndarray  # (M, 3)
    f: np.ndarray  # (T, 3, 3)
    cof: np.ndarray  # (T, 3, 3)
    jdet: np.ndarray  # (T,)
    seg: np.ndarray  # (S, 3)
    seg_len: np.ndarray  # (S,)
    tendon_lengths: np.ndarray  # (4,)


def _lower_pairs(dofs, dof_map):
    """Free (rows, cols) of the lower-triangle (row >= col) dof pairs of
    each stencil row of dofs (K, d), and their flat indices in (K, d, d)."""
    d = dofs.shape[1]
    rows = dof_map[np.repeat(dofs[:, :, None], d, axis=2).ravel()]
    cols = dof_map[np.repeat(dofs[:, None, :], d, axis=1).ravel()]
    keep = (rows >= 0) & (cols >= 0) & (rows >= cols)
    return rows[keep], cols[keep], np.flatnonzero(keep)


class _SolverCache:
    """Everything precomputable for Newton solves on one finger mesh."""

    def __init__(self, finger: FingerModel):
        mesh = finger.rest
        self.finger = finger
        self.rest = mesh.nodes.copy()
        self.tets = mesh.tets
        t0 = self.rest[self.tets[:, 0]]
        dm = np.stack(
            [self.rest[self.tets[:, e + 1]] - t0 for e in range(3)], axis=2
        )  # (T, 3, 3), columns are rest edges
        bm = np.linalg.inv(dm)
        self.vol = signed_volumes(self.rest, self.tets)  # (T,)
        g = np.empty((self.tets.shape[0], 4, 3))
        g[:, 1:, :] = bm
        g[:, 0, :] = -bm.sum(axis=1)
        self.shape_grad = g  # f_c = sum_n G[n, c] x_n

        n_tets = self.tets.shape[0]
        self.n_nodes = mesh.n_nodes
        # vec F = F_OP x.ravel(): F[t, i, c] = sum_n G[t, n, c] x[tets[t, n], i]
        # sits in row 9t + 3i + c.
        t, n, i, c = np.indices((n_tets, 4, 3, 3)).reshape(4, -1)
        self.f_op = csr_matrix(
            (g[t, n, c], (9 * t + 3 * i + c, 3 * self.tets[t, n] + i)),
            shape=(9 * n_tets, 3 * self.n_nodes),
        )

        fixed = np.zeros(self.n_nodes, dtype=bool)
        fixed[finger.base_fixed] = True
        self.free_nodes = np.flatnonzero(~fixed)
        self.n_free = self.free_nodes.size * 3
        self.free_dofs = (3 * self.free_nodes[:, None] + np.arange(3)).ravel()
        dof_map = np.full(self.n_nodes * 3, -1, dtype=np.int64)
        dof_map[self.free_dofs] = np.arange(self.n_free)

        dofs12 = (3 * self.tets[:, :, None] + np.arange(3)).reshape(-1, 12)
        el_rows, el_cols, kept = _lower_pairs(dofs12, dof_map)

        mu, lam = finger.material.lame()
        self.mu, self.lam = mu, lam
        self.alpha = 1.0 + mu / lam
        self.psi_rest = 0.5 * mu * mu / lam  # energy offset so rest sits at 0

        # Kept entry [(n, i), (m, j)] of tet t's 12x12 Hessian block, over
        # e_scale, is vol (mu (G G^T)[n, m] d_ij + lam gJ[n, i] gJ[m, j]
        # + eps_ijk X[k, n, m]) with gJ = G cof^T and X[:, n, m] = s F (G_n x G_m),
        # s = lam (J - alpha): the stable Neo-Hookean Hessian in F, pushed
        # through vec F = F_OP x. Per entry: two coefficients and the gather
        # indices of gJ (T, 4, 3) and X (T, 3, 4, 4); lam vol scales gJ per tet.
        t, n, i, m, j = np.unravel_index(kept, (n_tets, 4, 3, 4, 3))
        k = (3 - i - j) % 3  # the third index when i != j
        vol = self.vol[t]
        self.el_mu = mu * vol * np.einsum("tnc,tmc->tnm", g, g)[t, n, m] * (i == j)
        self.lam_vol = lam * self.vol
        self.el_eps = vol * ((i - j) * (j - k) * (k - i) // 2)  # Levi-Civita
        self.el_a = (12 * t + 3 * n + i).astype(np.int32)
        self.el_b = (12 * t + 3 * m + j).astype(np.int32)
        self.el_x = (48 * t + 16 * k + 4 * n + m).astype(np.int32)
        cross_g = np.cross(g[:, :, None], g[:, None, :]).reshape(n_tets, 16, 3)
        self.cross_g = np.ascontiguousarray(cross_g.transpose(0, 2, 1))

        # The segments of all four tendons, in tendon order, come from one sparse
        # operator like F_OP: segment s = sum_m ws[s, m] x[ns[s, m]] joins the
        # barycentric supports of its endpoints and fills rows 3s..3s+2 of T_OP x.
        paths = finger.tendon_paths
        ns = np.vstack([np.hstack([p.node_index[:-1], p.node_index[1:]]) for p in paths])
        ws = np.vstack([np.hstack([-p.weights[:-1], p.weights[1:]]) for p in paths])
        self.seg_tendon = np.repeat(np.arange(len(paths)), [len(p) - 1 for p in paths])
        n_seg = ns.shape[0]
        s, m, c = np.indices((n_seg, 8, 3)).reshape(3, -1)
        self.t_op = csr_matrix((ws[s, m], (3 * s + c, 3 * ns[s, m] + c)),
                               shape=(3 * n_seg, 3 * self.n_nodes))
        # Free rows of T_OP^T times the (3S, 4) array with each segment's unit
        # vector in its tendon's column (flat slots unit_slot): the four tendon
        # length gradients in one product.
        self.t_op_free_t = self.t_op[:, self.free_dofs].T.tocsr()
        self.unit_slot = (TENDONS_PER_FINGER * np.arange(3 * n_seg)
                          + np.repeat(self.seg_tendon, 3))
        # Kept entry [(s, m, i), (s, n, j)] of d2L/dx2 is ws[s, m] ws[s, n]
        # proj[s, i, j]: a weight and a projector index, scaled by the stretch
        # of tendon h_tendon.
        dofs24 = (3 * ns[:, :, None] + np.arange(3)).reshape(n_seg, 24)
        h_rows, h_cols, kept = _lower_pairs(dofs24, dof_map)
        s, m, i, n, j = np.unravel_index(kept, (n_seg, 8, 3, 8, 3))
        self.h_w = ws[s, m] * ws[s, n]
        self.h_pix = (9 * s + 3 * i + j).astype(np.int32)
        self.h_tendon = self.seg_tendon[s]
        self.tendon_rest = finger.tendon_rest_lengths
        self.k_tendon = finger.tendon_stiffness

        # Elastic and tendon-curvature entries (lower triangle, r >= c) land
        # in one LAPACK lower symmetric-band array ab[r - c, c] through a
        # single bincount; the upper triangle is never stored.
        rows = np.concatenate([el_rows, h_rows])
        cols = np.concatenate([el_cols, h_cols])
        band = int((rows - cols).max(initial=0))
        self.bandwidth = band
        self.ab_index = ((rows - cols) * self.n_free + cols).astype(np.int32)
        self.ab_shape = (band + 1, self.n_free)

        self.surface_nodes = mesh.surface_map
        self.surface_rest = self.rest[self.surface_nodes]

        # Residual tolerance: 1e-6 of the finger's force scale E V / L.
        e_kpa = finger.material.youngs_modulus_kpa
        self.base_tol = 1e-6 * e_kpa * float(self.vol.sum()) / finger.length_mm

    # -- kinematics and its consumers ---------------------------------------

    def kinematics(self, x):
        f = (self.f_op @ x.reshape(-1)).reshape(-1, 3, 3)
        # cof[:, i, k] = f[:, i+1, k+1] f[:, i+2, k+2] - f[:, i+2, k+1] f[:, i+1, k+2]
        # (indices mod 3): np.cross of F's columns k+1 and k+2, term by term.
        fa, fb = f[:, _NEXT], f[:, _AFTER_NEXT]
        cof = (fa[:, :, _NEXT] * fb[:, :, _AFTER_NEXT]
               - fb[:, :, _NEXT] * fa[:, :, _AFTER_NEXT])
        jdet = np.einsum("ti,ti->t", f[:, :, 0], cof[:, :, 0])
        seg = (self.t_op @ x.reshape(-1)).reshape(-1, 3)
        seg_len = np.linalg.norm(seg, axis=1)
        lengths = np.bincount(self.seg_tendon, weights=seg_len)
        return _Kinematics(x, f, cof, jdet, seg, seg_len, lengths)

    def elastic_energy(self, kin, e_scale):
        ic = np.einsum("tic,tic->t", kin.f, kin.f)
        psi = (
            0.5 * self.mu * (ic - 3.0)
            + 0.5 * self.lam * (kin.jdet - self.alpha) ** 2
            - self.psi_rest
        )
        return e_scale * float(np.dot(self.vol, psi))

    def energy(self, kin, targets, force_field, e_scale):
        stretch = kin.tendon_lengths - targets
        e = self.elastic_energy(kin, e_scale) + 0.5 * self.k_tendon * float(
            stretch @ stretch
        )
        if force_field is not None:
            e -= float(np.einsum("ni,ni->", force_field, kin.x))
        return e

    def gradient(self, kin, targets, force_field, e_scale):
        """Free-DOF energy gradient (nf,) and tendon length gradients (nf, 4)."""
        p = self.mu * kin.f + self.lam * (kin.jdet - self.alpha)[:, None, None] * kin.cof
        p *= (self.vol * e_scale)[:, None, None]
        grad = self.f_op.T @ p.reshape(-1)
        if force_field is not None:
            grad -= force_field.reshape(-1)
        units = np.zeros((self.t_op.shape[0], TENDONS_PER_FINGER))
        units.flat[self.unit_slot] = (kin.seg / kin.seg_len[:, None]).ravel()
        directions = self.t_op_free_t @ units
        grad = grad[self.free_dofs]
        grad += directions @ (self.k_tendon * (kin.tendon_lengths - targets))
        return grad, directions

    def tendon_curvature(self, kin, targets):
        """Values of sum_t k (L_t - L*_t) d2L_t/dx2 at the band entries of
        h_w/h_pix/h_tendon, the last ones of ab_index."""
        u = kin.seg / kin.seg_len[:, None]
        proj = (np.eye(3) - u[:, :, None] * u[:, None, :]) / kin.seg_len[:, None, None]
        stretch = self.k_tendon * (kin.tendon_lengths - targets)
        return stretch[self.h_tendon] * (self.h_w * np.take(proj, self.h_pix))

    def newton_matrix(self, kin, targets, e_scale):
        """Lower band (b+1, nf) of the banded part C of the Newton matrix, in
        the layout solveh_banded(lower=True) reads (ab[r - c, c] = C[r, c]):
        elastic Hessian plus sum_t k (L - L*) d2L/dx2 (indefinite when slack;
        the damping ladder copes, and leaving it out degrades convergence to
        a crawl). Both parts are gathered entry by entry from stencils
        precomputed in __init__; no per-tet block is formed."""
        g_j = np.matmul(self.shape_grad, kin.cof.transpose(0, 2, 1))
        lam_g_j = self.lam_vol[:, None, None] * g_j
        s = self.lam * (kin.jdet - self.alpha)
        x = np.matmul(s[:, None, None] * kin.f, self.cross_g)
        elastic = (
            self.el_mu
            + np.take(lam_g_j, self.el_a) * np.take(g_j, self.el_b)
            + self.el_eps * np.take(x, self.el_x)
        )
        curvature = self.tendon_curvature(kin, targets)
        ab = np.bincount(
            self.ab_index, weights=np.concatenate([e_scale * elastic, curvature]),
            minlength=math.prod(self.ab_shape),
        )
        return ab.reshape(self.ab_shape)

    # -- tendons and external forces ----------------------------------------

    def tendon_targets(self, u2):
        """Per-tendon target lengths for one finger's 2-channel command."""
        u2 = np.asarray(u2, dtype=np.float64).reshape(2)
        if u2.min() < 0.0 or u2.max() > 1.0:
            raise ValueError(f"channel command out of [0, 1]: {u2}")
        t = self.tendon_rest.copy()
        # Channel 0 drives tendons 0 (pull) and 2 (release); channel 1 drives
        # 1 (pull) and 3 (release).
        t[0] *= 1.0 - TENDON_SHORTENING * u2[0]
        t[2] *= 1.0 + TENDON_SHORTENING * u2[0]
        t[1] *= 1.0 - TENDON_SHORTENING * u2[1]
        t[3] *= 1.0 + TENDON_SHORTENING * u2[1]
        return t

    def force_field(self, events):
        """Per-node dead-load forces (M, 3) from Gaussian surface falloff."""
        field_ = np.zeros((self.n_nodes, 3))
        for ev in events:
            d2 = ((self.surface_rest - ev.center) ** 2).sum(axis=1)
            sigma = 0.5 * ev.radius_mm
            w = np.exp(-0.5 * d2 / (sigma * sigma))
            total = w.sum()
            if total <= 1e-12:
                raise ValueError(
                    "force event too far from the surface: no node receives load"
                )
            field_[self.surface_nodes] += (w / total)[:, None] * ev.force_mn
        return field_


def _newton_solve(cache: _SolverCache, targets, start_targets, force_field,
                  e_scale, x0, budget=None):
    """Damped Newton with Armijo backtracking; returns (x, stats).

    The Newton matrix is C + sum_t k v_t v_t^T with C banded (elastic +
    tendon curvature + damping); only C's lower band is assembled, and the
    tendon rank-1 terms enter through the Woodbury identity. C + τ I is
    factored by banded Cholesky alone, walking up the damping ladder τ of
    _DAMPING: a factorization that is not positive definite (slack tendons
    make C indefinite) or a step that is not a descent direction moves on
    to the next τ, the "Cholesky with added multiple of the identity" of
    Nocedal and Wright (Numerical Optimization, 2nd ed., §3.4). Kinematics
    are evaluated once per visited state (the start point and each
    line-search trial); the accepted trial's evaluation feeds the next
    gradient and matrix.

    Iteration 0 takes its matrix at start_targets, the targets x0
    balances, rather than at targets. Its curvature term k (L - L*) d2L
    then sees the start state's own tendon stretch, not the jump of the
    targets, so with the gradient at targets the first step is the tangent
    (Euler) predictor of the equilibrium path. Later iterations, the
    damping and the line search are plain Newton, so every accepted step
    is still a checked descent step. Passing start_targets = targets gives
    the plain warm start. A converged state with an inverted tet (J <= 0),
    a state with a tendon segment of length 0 (whose direction the
    gradient needs) or a non-finite residual raises SolverFailure.

    budget caps the iterations of an intermediate ramp stage: after that
    many steps the state is returned as it stands, converged or not (its
    stats carry the residual before the last step). Without it,
    _MAX_NEWTON_ITERS steps short of tolerance raise SolverFailure.
    """
    x = cache.rest.copy() if x0 is None else np.array(x0, dtype=np.float64)
    x[cache.finger.base_fixed] = cache.rest[cache.finger.base_fixed]
    tol = cache.base_tol * e_scale
    free = cache.free_nodes

    kin = cache.kinematics(x)
    energy = cache.energy(kin, targets, force_field, e_scale)
    energies = [energy]
    residual = math.inf
    cholesky_failures = 0

    for it in range(_MAX_NEWTON_ITERS if budget is None else budget):
        shortest = int(np.argmin(kin.seg_len))
        if kin.seg_len[shortest] <= 0.0:
            # The gradient divides by every segment length; the line search
            # only checks the energy, which stays finite.
            raise SolverFailure(
                f"tendon {int(cache.seg_tendon[shortest])} has a collapsed "
                f"segment (length 0) at iteration {it}",
                residual=residual,
                step=it,
            )
        g, vmat = cache.gradient(kin, targets, force_field, e_scale)
        residual = float(np.linalg.norm(g))
        if not math.isfinite(residual):
            # A NaN or inf reaches no factorization: the band is handed to
            # LAPACK unchecked.
            raise SolverFailure(
                f"non-finite residual at iteration {it}", residual=residual, step=it
            )
        if residual <= tol:
            worst = int(np.argmin(kin.jdet))
            if kin.jdet[worst] <= 0.0:
                raise SolverFailure(
                    f"converged state inverts tet {worst} (min J "
                    f"{kin.jdet[worst]:.3e}) after {it} iterations",
                    residual=residual,
                    step=it,
                )
            stats = SolveStats(it, tuple(energies), residual, 1, cholesky_failures)
            return kin.x, stats

        ab = cache.newton_matrix(kin, start_targets if it == 0 else targets, e_scale)
        diag = ab[0].copy()
        diag_scale = max(float(np.abs(diag).mean()), 1e-12)
        rhs = np.concatenate([-g[:, None], vmat], axis=1)

        for tau in _DAMPING:
            # solveh_banded factorizes a copy, so ab keeps its values.
            ab[0] = diag + tau * diag_scale
            try:
                sol = solveh_banded(ab, rhs, lower=True, check_finite=False)
            except LinAlgError:
                cholesky_failures += 1
                continue
            core = np.eye(4) / cache.k_tendon + vmat.T @ sol[:, 1:]
            coeff = np.linalg.solve(core, vmat.T @ sol[:, 0])
            d = sol[:, 0] - sol[:, 1:] @ coeff
            gd = float(g @ d)
            if not np.isfinite(d).all() or gd >= 0.0:
                continue
            alpha = 1.0
            for _ in range(30):
                xn = kin.x.copy()
                xn[free] += alpha * d.reshape(-1, 3)
                kn = cache.kinematics(xn)
                en = cache.energy(kn, targets, force_field, e_scale)
                if np.isfinite(en) and en <= energy + 1e-4 * alpha * gd:
                    break
                alpha *= 0.5
            else:
                continue
            kin, energy = kn, en
            energies.append(energy)
            break
        else:
            raise SolverFailure(
                f"no descent step found at iteration {it} (residual {residual:.3e} mN)",
                residual=residual,
                step=it,
            )

    if budget is not None:
        return kin.x, SolveStats(budget, tuple(energies), residual, 1, cholesky_failures)
    raise SolverFailure(
        f"Newton did not reach tolerance {tol:.3e} mN in {_MAX_NEWTON_ITERS} "
        f"iterations (residual {residual:.3e} mN)",
        residual=residual,
        step=_MAX_NEWTON_ITERS,
    )


def solve_equilibrium(
    finger: FingerModel,
    u2,
    forces=(),
    e_scale=1.0,
    x0=None,
    u0=None,
):
    """Static equilibrium of one finger under a 2-channel command and forces.

    Cold starts with a command above _STAGE_STEP are ramped in stages of at
    most _STAGE_STEP per channel, purely as a solver aid. Each intermediate
    stage runs at most _STAGE_ITERS Newton iterations and hands its state,
    converged or not, to the next stage's tangent predictor; only the last
    stage must reach the tolerance (a predictor-corrector continuation,
    Allgower and Georg 2003). If the capped ramp fails after its first
    stage, the same ramp runs again from rest with every stage converged,
    and its stats are the ones returned. The returned state is the equilibrium of the full command,
    and its stats sum the iterations over the stages.

    A warm start x0 may name u0, the command x0 is an equilibrium of; the
    first Newton step is then the tangent predictor from u0 to u2 (see
    _newton_solve). Without u0 the first matrix is taken at u2's targets.
    Warm starts take one full stage. Returns a FingerFrame.
    """
    if e_scale <= 0:
        raise ValueError("solve_equilibrium: e_scale must be positive")
    if u0 is not None and x0 is None:
        raise ValueError("solve_equilibrium: u0 names the command of x0; pass x0 too")
    cache = finger.solver_cache()
    u2 = np.asarray(u2, dtype=np.float64).reshape(2)
    force_field = cache.force_field(forces) if forces else None

    stages = 1
    if x0 is None:
        stages = max(1, int(math.ceil(float(u2.max()) / _STAGE_STEP)))
    x, stats = _ramp(cache, u2, stages, force_field, e_scale, x0, u0, _STAGE_ITERS)
    lengths = np.array([p.length(x) for p in finger.sensor_paths])
    return FingerFrame(nodes=x, sensor_lengths=lengths, command=u2.copy(), stats=stats)


def _ramp(cache: _SolverCache, u2, stages, force_field, e_scale, x0, u0, budget):
    """Newton over the command ramp u2 * s / stages, s = 1..stages; returns
    (x, SolveStats). Every stage but the last runs at most budget
    iterations (None: to the tolerance); the last always converges or
    raises SolverFailure. A failure after a capped stage reruns the ramp
    with budget None."""
    x = x0
    total_iters = 0
    cholesky_failures = 0
    energies = ()
    residual = 0.0
    for s in range(1, stages + 1):
        targets = cache.tendon_targets(u2 * (s / stages))
        if x0 is None:
            # Rest balances the zero command; stage s - 1 balances its own,
            # to within what its iterations reached.
            start_targets = cache.tendon_targets(u2 * ((s - 1) / stages))
        else:
            start_targets = targets if u0 is None else cache.tendon_targets(u0)
        try:
            x, stats = _newton_solve(
                cache, targets, start_targets, force_field, e_scale, x,
                budget if s < stages else None,
            )
        except SolverFailure:
            if s == 1 or budget is None:
                raise  # stage 1 runs the same either way: it would fail again
            # A capped stage can leave the path far enough (a tet close to
            # inverting, a tendon segment close to collapsing) that a later
            # stage stalls; converged stages stay on it.
            return _ramp(cache, u2, stages, force_field, e_scale, x0, u0, None)
        total_iters += stats.iterations
        cholesky_failures += stats.cholesky_failures
        energies = energies + stats.energies
        residual = stats.residual
    return x, SolveStats(total_iters, energies, residual, stages, cholesky_failures)


def solve_hand(
    hand: HandModel,
    command,
    forces_per_finger=((), (), ()),
    e_scales=(1.0, 1.0, 1.0),
    x0s=None,
    u0=None,
):
    """Solve all three fingers; returns (SimFrame, [FingerFrame x3]).

    x0s warm-starts each finger; u0, the (6,) command x0s is an
    equilibrium of, gives each finger its slice (see solve_equilibrium).
    The three solves are independent, so they run in the process's pool
    (see _map_solves); the first SolverFailure in finger order is raised,
    as a serial loop would.
    """
    command = _command_array(command)
    frames = _map_solves(hand, _solve_hand_finger, [
        (j, command[2 * j : 2 * j + 2], forces_per_finger[j], float(e_scales[j]),
         None if x0s is None else x0s[j], None if u0 is None else u0[2 * j : 2 * j + 2])
        for j in range(N_FINGERS)
    ])
    failure = next((f for f in frames if isinstance(f, SolverFailure)), None)
    if failure is not None:
        raise failure
    return _hand_frame(command, frames, forces_per_finger, e_scales), frames


def _solve_hand_finger(hand: HandModel, task):
    """Finger j's solve_equilibrium for task (j, u2, forces, e_scale, x0, u0);
    a SolverFailure is returned, not raised."""
    j, u2, forces, e_scale, x0, u0 = task
    try:
        return solve_equilibrium(hand.fingers[j], u2, forces, e_scale, x0, u0)
    except SolverFailure as err:
        return err


def _command_array(command):
    """Validated (6,) channel values of a TendonCommand or array-like."""
    command = command.u if isinstance(command, TendonCommand) else np.asarray(command, float)
    return TendonCommand(command).u


def _hand_frame(command, finger_frames, forces_per_finger, e_scales, pose=None):
    """The SimFrame of three solved fingers."""
    return SimFrame(
        command=command,
        nodes=np.stack([f.nodes for f in finger_frames]),
        sensor_lengths=np.concatenate([f.sensor_lengths for f in finger_frames]),
        forces=tuple(tuple(f) for f in forces_per_finger),
        e_scales=np.asarray(e_scales, dtype=np.float64),
        pose=pose,
        stats=tuple(f.stats for f in finger_frames),
    )


# ---------------------------------------------------------------------------
# Independent solves, decoder shares of a training step and candidate shares
# of a CMA-ES generation, on every CPU this process may use.

# The hand a pool worker was forked with; set only in workers.
_worker_hand = None

# This process's pool and the hand its workers were forked with (see
# _map_solves).
_pool = None
_pool_hand = None

_PR_SET_PDEATHSIG = 1  # linux/prctl.h


def _openblas_functions(action):
    """One ctypes function `action` (e.g. "set_num_threads") per OpenBLAS
    library mapped into this process. numpy and scipy each bundle their
    own copy, under different symbol prefixes."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = sorted({
            parts[5] for parts in (line.rstrip("\n").split(maxsplit=5) for line in maps)
            if len(parts) == 6 and "openblas" in os.path.basename(parts[5])
        })
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in (f"openblas_{action}", f"scipy_openblas_{action}",
                     f"scipy_openblas_{action}64_"):
            fn = getattr(lib, name, None)
            if fn is not None:
                found.append(fn)
                break
    return found


def _start_worker(hand, parent_pid, cpus, next_cpu):
    global _worker_hand
    _worker_hand = hand
    # The pool outlives single calls, so a parent killed without running its
    # exit hooks must not leave idle workers behind: the kernel kills each
    # worker when the thread that forked it exits (_map_solves forks from
    # the caller's thread). A parent that died before prctl is caught by
    # the parent-pid check.
    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
    if prctl(_PR_SET_PDEATHSIG, signal.SIGKILL) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG) failed")
    if os.getppid() != parent_pid:
        os._exit(1)
    # One BLAS thread per worker: with two workers of two OpenBLAS threads
    # each on two cores, a dataset frame took 1.4-2.0 s against 0.7-0.9 s
    # serial.
    for set_threads in _openblas_functions("set_num_threads"):
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(1)
    # One CPU per worker, each the next of the parent's allowed CPUs. Left
    # to the scheduler, a pool's workers sometimes shared one core, and a
    # CMA-ES generation's shares then ran one after the other.
    with next_cpu.get_lock():
        cpu = cpus[next_cpu.value % len(cpus)]
        next_cpu.value += 1
    os.sched_setaffinity(0, {cpu})


def _run_in_worker(fn, task):
    return fn(_worker_hand, task)


def _drop_pool():
    """Shut this process's pool down, cancelling the tasks not yet started;
    the next _map_solves forks a fresh one."""
    global _pool, _pool_hand
    pool, _pool, _pool_hand = _pool, None, None
    if pool is not None:
        pool.shutdown(cancel_futures=True)


def _workers():
    """How many tasks _map_solves runs at once: one per CPU this process may
    use, or 1 inside a pool worker (whose siblings already hold the other
    CPUs)."""
    return 1 if _worker_hand is not None else len(os.sched_getaffinity(0))


def _share_cuts(count, shares):
    """Bounds of `shares` contiguous shares of `count` items, as even as
    they come: share k holds items cuts[k]:cuts[k + 1]."""
    return [count * k // shares for k in range(shares + 1)]


def _map_solves(hand: HandModel, fn, tasks):
    """[fn(hand, t) for t in tasks], spread over the CPUs this process may use.

    The tasks are finger solves, finger chains, channel probes, shares of
    a training step's decoder sub-batches (estimator._forward_backward) or
    shares of a CMA-ES generation's candidates (calibration.align_domains).
    With one CPU, a single task, or inside a pool worker they run here (see
    _workers). Otherwise they run in this process's pool: one forked worker
    per CPU, each pinned to its own CPU and with BLAS pinned to one thread;
    this process stays unpinned. The pool is forked on first use and kept
    while calls pass the same hand; a call with another hand shuts it down
    and forks a new one. Workers inherit the hand through fork and keep its
    solver caches from call to call; only fn, which must be a module-level
    function, the tasks and the results are pickled.
    Results come back in task order, so the output equals the in-process
    run's. A task's exception is raised here with its type and the pool
    stays; any other failure of the map (a broken pool, an interrupt)
    drops the pool. On a normal exit concurrent.futures joins the workers;
    if this process is killed, the kernel kills them (see _start_worker).
    """
    global _pool, _pool_hand
    tasks = list(tasks)
    workers = _workers()
    if workers <= 1 or len(tasks) <= 1:
        return [fn(hand, t) for t in tasks]
    if _pool_hand is not hand:
        _drop_pool()
    if _pool is None:
        context = get_context("fork")
        _pool = ProcessPoolExecutor(workers, mp_context=context,
                                    initializer=_start_worker,
                                    initargs=(hand, os.getpid(),
                                              sorted(os.sched_getaffinity(0)),
                                              context.Value("i", 0)))
        _pool_hand = hand
    try:
        return list(_pool.map(_run_in_worker, [fn] * len(tasks), tasks))
    except BaseException as err:
        if isinstance(err, BrokenProcessPool) or not isinstance(err, Exception):
            _drop_pool()
        raise


# ---------------------------------------------------------------------------
# Dataset generation.


@dataclass(frozen=True)
class DatasetConfig:
    """Randomized-frame generation settings (independent equilibria)."""

    frames: int = 2000
    force_prob: float = 0.5  # chance each finger sees one contact-like event
    force_mag_mn: tuple = (10.0, 60.0)
    force_radius_frac: tuple = (0.25, 0.45)  # of finger length; floor 0.25
    max_command: float = 1.0

    def __post_init__(self):
        if self.frames < 1:
            raise ValueError("DatasetConfig: frames must be >= 1")
        if not 0.0 <= self.force_prob <= 1.0:
            raise ValueError("DatasetConfig: force_prob must be in [0, 1]")
        if self.force_radius_frac[0] < 0.25:
            raise ValueError(
                "DatasetConfig: force radius below 25% of finger length gives "
                "non-smooth dents; raise force_radius_frac"
            )
        if not 0.0 < self.max_command <= 1.0:
            raise ValueError("DatasetConfig: max_command must be in (0, 1]")


def _sample_force_event(rng, finger: FingerModel, cfg: DatasetConfig):
    center = sample_surface_points(finger.surface, 1, rng)[0]
    radius = rng.uniform(*cfg.force_radius_frac) * finger.length_mm
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    magnitude = rng.uniform(*cfg.force_mag_mn)
    return ExternalForceEvent(center, radius, magnitude * direction)


def _dataset_frame_inputs(hand: HandModel, cfg: DatasetConfig, seed, i):
    """Frame i's (command (6,), forces per finger, e_scales (3,)) from its stream."""
    finger = hand.fingers[0]
    r = finger.material.e_range
    rng = child_rng(seed, STAGE_DATASET, i)
    command = rng.uniform(0.0, cfg.max_command, size=6)
    e_scales = np.ones(3)
    forces = []
    for j in range(N_FINGERS):
        e_scales[j] = rng.uniform(1.0 - r, 1.0 + r)
        if rng.random() < cfg.force_prob:
            forces.append((_sample_force_event(rng, finger, cfg),))
        else:
            forces.append(())
    return command, tuple(forces), e_scales


def generate_dataset(hand: HandModel, cfg: DatasetConfig, seed):
    """Independent randomized frames; deterministic given the root seed.

    Each frame draws from its own (seed, STAGE_DATASET, index) stream, and
    its three finger solves are independent, so all 3 x frames cold finger
    solves are mapped at once through the process's pool (see
    _map_solves). Frames are assembled in index order, so the result
    equals a serial run's, solve records (SimFrame.stats) included. A frame
    with a failed finger solve is skipped, never silently included: each
    failed finger logs one warning, in frame then finger order, whose extra
    fields are frame, finger and the failure's residual and step.
    """
    inputs = [_dataset_frame_inputs(hand, cfg, seed, i) for i in range(cfg.frames)]
    solved = _map_solves(hand, _solve_hand_finger, [
        (j, command[2 * j : 2 * j + 2], forces[j], float(e_scales[j]), None, None)
        for command, forces, e_scales in inputs for j in range(N_FINGERS)
    ])
    frames = []
    for i, (command, forces, e_scales) in enumerate(inputs):
        fingers = solved[N_FINGERS * i : N_FINGERS * (i + 1)]
        failures = [(j, f) for j, f in enumerate(fingers) if isinstance(f, SolverFailure)]
        for j, failure in failures:
            log.warning("frame %d skipped: finger %d: %s", i, j, failure, extra={
                "frame": i, "finger": j, "residual": failure.residual,
                "step": failure.step,
            })
        if failures:
            continue
        frames.append(_hand_frame(command, fingers, forces, e_scales))
    if not frames:
        raise SolverFailure("every frame in the dataset failed to solve")
    return frames


def _solve_finger_chain(hand: HandModel, task):
    """Finger j's warm-started solves over a schedule of (u2, forces).

    Each solve starts from the previous one's nodes and names its command
    (x0, u0). Returns (FingerFrames, None), or the frames before the first
    failed step and that step's SolverFailure.
    """
    j, schedule = task
    frames = []
    for u2, forces in schedule:
        prev = frames[-1] if frames else None
        try:
            frames.append(solve_equilibrium(
                hand.fingers[j], u2, forces,
                x0=None if prev is None else prev.nodes,
                u0=None if prev is None else prev.command,
            ))
        except SolverFailure as err:
            return frames, err
    return frames, None


def _solve_open_loop(hand: HandModel, commands, forces, poses, what):
    """SimFrames of an open-loop schedule: one warm-started chain per finger.

    commands[t] is the (6,) command of step t, forces[t] its per-finger
    events and poses[t] its palm pose. No finger's chain depends on another
    finger, so the three chains are mapped through the process's pool (see
    _map_solves). The first failure in (step, finger) order is raised, as a
    serial walk would.
    """
    chains = _map_solves(hand, _solve_finger_chain, [
        (j, [(u[2 * j : 2 * j + 2], f[j]) for u, f in zip(commands, forces)])
        for j in range(N_FINGERS)
    ])
    failed = [(len(frames), j, err) for j, (frames, err) in enumerate(chains)
              if err is not None]
    if failed:
        t, _, err = min(failed, key=lambda f: f[:2])
        raise SolverFailure(
            f"{what} solve failed at step {t}: {err}", residual=err.residual, step=t
        ) from err
    return [
        _hand_frame(u, [frames[t] for frames, _ in chains], f, (1.0,) * N_FINGERS, pose)
        for t, (u, f, pose) in enumerate(zip(commands, forces, poses))
    ]


def rollout_commands(hand: HandModel, commands):
    """Solve a command schedule with warm starts.

    commands: iterable of (6,) tendon commands. Each finger walks its own
    warm-started chain (x0 and u0 from its previous step); the open-loop
    schedule makes the three chains independent, so they run in parallel
    in the process's pool (see _map_solves). Returns the SimFrame list;
    useful for recording tendon-reachable reference trajectories.
    """
    commands = [_command_array(c) for c in commands]
    if not commands:
        raise ValueError("rollout_commands: empty command schedule")
    steps = len(commands)
    return _solve_open_loop(
        hand, commands, [((),) * N_FINGERS] * steps, [None] * steps, "rollout"
    )


# ---------------------------------------------------------------------------
# Demonstrations: externally forced trajectories with u = 0 throughout.


def smoothstep(t):
    t = np.clip(t, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


@dataclass(frozen=True)
class Demonstration:
    """Forced trajectory standing in for a human deforming the fingers."""

    frames: tuple  # SimFrames with pose set
    ramp_steps: int
    seed: int = 0  # provenance only; the solve itself is deterministic

    def __len__(self):
        return len(self.frames)


def collect_demonstration(
    hand: HandModel,
    script,
    pose_script=None,
    seed=0,
    steps=None,
    ramp_steps=10,
):
    """Roll a schedule of force events (u = 0) into a pose-tagged trajectory.

    script: iterable of (finger_index, ExternalForceEvent); each event's
    force ramps in with a smoothstep over ramp_steps from its window start,
    so deformations drift smoothly toward equilibrium instead of jumping.
    pose_script: optional per-step palm RigidPose list (default identity).
    The seed is only recorded with the result; the solve itself is
    deterministic. Each finger's step warm-starts from its previous step;
    the script is open-loop, so the three fingers' chains run in parallel
    in the process's pool (see _map_solves).
    """
    script = tuple(script)
    for j, _ in script:
        if not 0 <= j < N_FINGERS:
            raise ValueError(f"script references finger {j}")
    if steps is None:
        if pose_script is not None:
            steps = len(pose_script)
        elif script:
            steps = max(ev.window[1] for _, ev in script)
        else:
            raise ValueError("collect_demonstration: need steps, poses, or events")
    if pose_script is not None and len(pose_script) != steps:
        raise ValueError("pose_script length must equal the step count")
    if steps < 1:
        raise ValueError("collect_demonstration: steps must be >= 1")
    if ramp_steps < 1:
        raise ValueError("collect_demonstration: ramp_steps must be >= 1")

    forces = []
    for t in range(steps):
        step_forces = [[] for _ in range(N_FINGERS)]
        for j, ev in script:
            if ev.window[0] <= t < ev.window[1]:
                scale = float(smoothstep((t - ev.window[0] + 1) / ramp_steps))
                step_forces[j].append(ev.scaled(scale))
        forces.append(tuple(tuple(f) for f in step_forces))
    if pose_script is None:
        pose_script = [RigidPose.identity() for _ in range(steps)]
    frames = _solve_open_loop(
        hand, [np.zeros(6) for _ in range(steps)], forces, pose_script, "demonstration"
    )
    return Demonstration(tuple(frames), ramp_steps, int(seed))
