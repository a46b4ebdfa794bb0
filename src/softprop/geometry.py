"""Meshes, point clouds, rigid transforms, barycentric embedding, and cloud metrics.

Everything here treats coordinates as millimeters and is immutable after
construction; the functions are pure and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import NotEmbeddableError

# Tree candidates per obs point before the exact recomputation. Any k >= 2
# gives the exact result: a brute-force minimum outside the candidates puts
# the tree's k-th distance within rounding of its first, and such rows fall
# back to brute force. So k trades only speed. On the calib benchmark's
# objective (5 samples of 1,500 points against 690-point posed hands, one
# process, one BLAS thread, 2-vCPU x86 host), an evaluation took a median
# 10.9 ms at k = 2 against 12.9 ms at k = 4 (6 alternating passes of 25
# candidates), and no row fell back to brute force at either k.
_KD_CANDIDATES = 2


def as_cloud(points, name="cloud"):
    """Validate and return an (N, 3) float64 point array."""
    arr = np.ascontiguousarray(points, dtype=np.float64)
    if arr.ndim == 1 and arr.shape == (3,):
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"{name}: expected an (N, 3) array, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise ValueError(f"{name}: point cloud is empty")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name}: contains non-finite coordinates")
    return arr


def _nearest_sq(obs, pred):
    """Exact squared nearest distance from each obs point to pred, shape (n,).

    Every value is bitwise the brute-force row minimum of
    ((o - p) * (o - p)).sum(): a k-d tree proposes the k nearest pred points
    of each obs point, their squared distances are recomputed with that
    formula, and the minimum is taken. The tree rounds distances its own
    way, so the brute-force minimum can sit outside the candidates only
    when the tree's k-th distance is within rounding of its first; such
    rows take their brute-force row minimum instead.
    """
    k = min(_KD_CANDIDATES, pred.shape[0])
    dist, index = cKDTree(pred).query(obs, k=k)
    dist = dist.reshape(-1, k)
    diff = obs[:, None, :] - pred[index.reshape(-1, k)]
    best = (diff * diff).sum(axis=2).min(axis=1)
    tied = np.flatnonzero(dist[:, -1] <= dist[:, 0] * (1.0 + 1e-9) + 1e-12)
    best[tied] = _brute_nearest_sq(obs[tied], pred)
    return best


def _brute_nearest_sq(obs, pred):
    """Brute-force squared nearest distance of each obs row, one row at a time."""
    out = np.empty(obs.shape[0])
    for i, point in enumerate(obs):
        row = point - pred
        out[i] = (row * row).sum(axis=1).min()
    return out


def chamfer_ucd(obs, pred):
    """Unidirectional Chamfer distance: sum over obs of squared nearest distance to pred.

    Each term is the exact brute-force minimum (see _nearest_sq: k-d tree
    candidates, exact recomputation, brute force for rows with a possible
    tie), and the terms are added one by one in obs order, so the result is
    bitwise identical to a plain double loop.
    """
    total = 0.0
    for value in _nearest_sq(as_cloud(obs, "obs"), as_cloud(pred, "pred")).tolist():
        total += value
    return total


def nn_distances(obs, pred):
    """Euclidean nearest-neighbor distance from each obs point to pred.

    The square root of the exact brute-force squared minimum per obs point
    (k-d tree candidates, exact recomputation, brute force for rows with a
    possible tie; see _nearest_sq).
    """
    return np.sqrt(_nearest_sq(as_cloud(obs, "obs"), as_cloud(pred, "pred")))


def mean_nn_distance(obs, pred):
    """Mean non-squared nearest-neighbor distance (mm), obs -> pred."""
    return float(np.mean(nn_distances(obs, pred)))


@dataclass(frozen=True)
class SurfaceMesh:
    """Triangle mesh with a stable vertex ordering (frame-to-frame correspondence)."""

    vertices: np.ndarray  # (N, 3) mm
    faces: np.ndarray  # (F, 3) int

    def __post_init__(self):
        v = np.ascontiguousarray(self.vertices, dtype=np.float64)
        f = np.ascontiguousarray(self.faces, dtype=np.int64)
        if v.ndim != 2 or v.shape[1] != 3 or v.shape[0] == 0:
            raise ValueError(f"SurfaceMesh: bad vertex array shape {v.shape}")
        if not np.isfinite(v).all():
            raise ValueError("SurfaceMesh: non-finite vertex coordinates")
        if f.ndim != 2 or f.shape[1] != 3:
            raise ValueError(f"SurfaceMesh: bad face array shape {f.shape}")
        if f.size and (f.min() < 0 or f.max() >= v.shape[0]):
            raise ValueError("SurfaceMesh: face index out of range")
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "faces", f)

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    def face_areas(self):
        a = self.vertices[self.faces[:, 0]]
        b = self.vertices[self.faces[:, 1]]
        c = self.vertices[self.faces[:, 2]]
        return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)

    def with_vertices(self, vertices):
        return SurfaceMesh(vertices, self.faces)


@dataclass(frozen=True)
class RigidPose:
    """Rotation-then-translation map. R must be a proper rotation."""

    rotation: np.ndarray  # (3, 3)
    translation: np.ndarray  # (3,) mm

    def __post_init__(self):
        r = np.ascontiguousarray(self.rotation, dtype=np.float64)
        t = np.ascontiguousarray(self.translation, dtype=np.float64).reshape(3)
        if r.shape != (3, 3):
            raise ValueError(f"RigidPose: rotation shape {r.shape}")
        if np.abs(r.T @ r - np.eye(3)).max() > 1e-9:
            raise ValueError("RigidPose: rotation is not orthonormal")
        if abs(np.linalg.det(r) - 1.0) > 1e-9:
            raise ValueError("RigidPose: rotation determinant is not +1")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @staticmethod
    def identity():
        return RigidPose(np.eye(3), np.zeros(3))

    def apply(self, points):
        pts = np.asarray(points, dtype=np.float64)
        return pts @ self.rotation.T + self.translation

    def compose(self, other: "RigidPose"):
        """self after other: (self @ other)(p) = self(other(p))."""
        return RigidPose(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def inverse(self):
        rt = self.rotation.T
        return RigidPose(rt, -rt @ self.translation)


def rotation_about_y(phi):
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rotation_about_z(phi):
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def axis_angle_to_matrix(v):
    """Rodrigues map of a rotation vector (axis * angle, rad)."""
    v = np.asarray(v, dtype=np.float64).reshape(3)
    angle = np.linalg.norm(v)
    if angle < 1e-12:
        return np.eye(3)
    axis = v / angle
    k = np.array(
        [
            [0.0, -axis[2], axis[1]],
            [axis[2], 0.0, -axis[0]],
            [-axis[1], axis[0], 0.0],
        ]
    )
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def matrix_to_axis_angle(r):
    """Inverse of the Rodrigues map; angle in [0, pi]."""
    r = np.asarray(r, dtype=np.float64)
    cos_a = np.clip((np.trace(r) - 1.0) / 2.0, -1.0, 1.0)
    angle = np.arccos(cos_a)
    if angle < 1e-12:
        return np.zeros(3)
    if np.pi - angle < 1e-6:
        # Near pi the off-diagonal extraction degenerates; use the symmetric part.
        m = (r + np.eye(3)) / 2.0
        axis = np.sqrt(np.clip(np.diag(m), 0.0, None))
        # Fix signs from the largest component.
        i = int(np.argmax(axis))
        if axis[i] > 0:
            sign = np.sign(m[i])
            sign[sign == 0] = 1.0
            axis = axis * sign
            axis[i] = abs(axis[i])
        return axis / np.linalg.norm(axis) * angle
    ax = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    return ax / (2.0 * np.sin(angle)) * angle


@dataclass(frozen=True)
class EmbeddedPoint:
    """Location inside one tetrahedron given by barycentric weights."""

    tet_index: int
    barycentric: np.ndarray  # (4,) nonneg, sums to 1

    def __post_init__(self):
        w = np.ascontiguousarray(self.barycentric, dtype=np.float64).reshape(4)
        if w.min() < -1e-12:
            raise ValueError(f"EmbeddedPoint: negative barycentric weight {w.min()}")
        if abs(w.sum() - 1.0) > 1e-9:
            raise ValueError(f"EmbeddedPoint: weights sum to {w.sum()}, not 1")
        object.__setattr__(self, "barycentric", w)
        object.__setattr__(self, "tet_index", int(self.tet_index))


@dataclass(frozen=True)
class TetraMesh:
    """Tetrahedral mesh with positive rest volumes and a surface-node map."""

    nodes: np.ndarray  # (M, 3) mm
    tets: np.ndarray  # (T, 4) int
    surface_map: np.ndarray  # (S,) node indices of the surface vertices, in order

    def __post_init__(self):
        nodes = np.ascontiguousarray(self.nodes, dtype=np.float64)
        tets = np.ascontiguousarray(self.tets, dtype=np.int64)
        smap = np.ascontiguousarray(self.surface_map, dtype=np.int64)
        if nodes.ndim != 2 or nodes.shape[1] != 3:
            raise ValueError(f"TetraMesh: bad node array shape {nodes.shape}")
        if tets.ndim != 2 or tets.shape[1] != 4:
            raise ValueError(f"TetraMesh: bad tet array shape {tets.shape}")
        if tets.min() < 0 or tets.max() >= nodes.shape[0]:
            raise ValueError("TetraMesh: tet index out of range")
        if smap.size and (smap.min() < 0 or smap.max() >= nodes.shape[0]):
            raise ValueError("TetraMesh: surface_map index out of range")
        vols = signed_volumes(nodes, tets)
        if vols.min() <= 0:
            raise ValueError(
                f"TetraMesh: non-positive rest volume (min {vols.min():.3e})"
            )
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "tets", tets)
        object.__setattr__(self, "surface_map", smap)

    @property
    def n_nodes(self):
        return self.nodes.shape[0]


def signed_volumes(nodes, tets):
    a = nodes[tets[:, 0]]
    d1 = nodes[tets[:, 1]] - a
    d2 = nodes[tets[:, 2]] - a
    d3 = nodes[tets[:, 3]] - a
    return np.einsum("ij,ij->i", d1, np.cross(d2, d3)) / 6.0


def _all_barycentric(mesh: TetraMesh, p):
    """Barycentric weights of p w.r.t. every tet, shape (T, 4)."""
    a = mesh.nodes[mesh.tets[:, 0]]
    edges = np.stack(
        [
            mesh.nodes[mesh.tets[:, 1]] - a,
            mesh.nodes[mesh.tets[:, 2]] - a,
            mesh.nodes[mesh.tets[:, 3]] - a,
        ],
        axis=2,
    )  # (T, 3, 3) columns are edge vectors
    rhs = p[None, :] - a
    w123 = np.linalg.solve(edges, rhs[..., None])[..., 0]
    w0 = 1.0 - w123.sum(axis=1)
    return np.concatenate([w0[:, None], w123], axis=1)


def embed_point(mesh: TetraMesh, p, tol_mm=1e-6):
    """Locate p inside the mesh; returns the containing tet and barycentric weights.

    Accepts points up to tol_mm outside a tet face (weights are clamped and
    renormalized). Raises NotEmbeddableError when no tet is close enough.
    """
    p = np.asarray(p, dtype=np.float64).reshape(3)
    bary = _all_barycentric(mesh, p)
    worst = bary.min(axis=1)
    best = int(np.argmax(worst))
    # Convert the mm tolerance to a barycentric one through the tet's extent.
    tet_nodes = mesh.nodes[mesh.tets[best]]
    scale = max(np.ptp(tet_nodes, axis=0).max(), 1e-12)
    if worst[best] < -(tol_mm / scale + 1e-12):
        raise NotEmbeddableError(
            f"point {p.tolist()} lies outside all tets "
            f"(closest violation {worst[best]:.3e} barycentric)"
        )
    w = np.clip(bary[best], 0.0, None)
    w /= w.sum()
    return EmbeddedPoint(best, w)


@dataclass(frozen=True)
class EmbeddedPath:
    """A polyline of embedded points, flattened for vectorized interpolation."""

    points: tuple  # tuple[EmbeddedPoint]
    node_index: np.ndarray = field(repr=False)  # (P, 4)
    weights: np.ndarray = field(repr=False)  # (P, 4)

    @staticmethod
    def from_points(mesh: TetraMesh, points):
        points = tuple(points)
        idx = np.stack([mesh.tets[e.tet_index] for e in points])
        w = np.stack([e.barycentric for e in points])
        return EmbeddedPath(points, idx, w)

    def positions(self, nodes):
        nodes = np.asarray(nodes, dtype=np.float64)
        return np.einsum("pk,pkc->pc", self.weights, nodes[self.node_index])

    def length(self, nodes):
        pos = self.positions(nodes)
        return float(np.linalg.norm(np.diff(pos, axis=0), axis=1).sum())

    def __len__(self):
        return len(self.points)


def sample_surface_points(mesh: SurfaceMesh, count, rng):
    """Uniform-by-area point sample of a triangle mesh."""
    if count < 1:
        raise ValueError("sample_surface_points: count must be >= 1")
    areas = mesh.face_areas()
    total = areas.sum()
    if total <= 0:
        raise ValueError("sample_surface_points: mesh has no area")
    faces = rng.choice(len(areas), size=count, p=areas / total)
    u = rng.random(count)
    v = rng.random(count)
    flip = u + v > 1.0
    u[flip] = 1.0 - u[flip]
    v[flip] = 1.0 - v[flip]
    a = mesh.vertices[mesh.faces[faces, 0]]
    b = mesh.vertices[mesh.faces[faces, 1]]
    c = mesh.vertices[mesh.faces[faces, 2]]
    return a + u[:, None] * (b - a) + v[:, None] * (c - a)


def farthest_point_indices(points, count, start_index=0):
    """Greedy farthest-point subsample; deterministic given the start index."""
    pts = as_cloud(points, "points")
    n = pts.shape[0]
    count = min(count, n)
    chosen = [int(start_index)]
    dist = np.linalg.norm(pts - pts[chosen[0]], axis=1)
    for _ in range(count - 1):
        nxt = int(np.argmax(dist))
        chosen.append(nxt)
        dist = np.minimum(dist, np.linalg.norm(pts - pts[nxt], axis=1))
    return np.array(chosen, dtype=np.int64)
