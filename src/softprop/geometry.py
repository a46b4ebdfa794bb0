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

# EmbeddedPath.locate accepts points this far (mm) outside their tet.
_EMBED_TOL_MM = 1e-6

# Rounding-error margin of the point locator's screen, in units of each
# tet's condition number (see _locate).
_SCREEN_EPS = 2.0**-30

# Points per screen in EmbeddedPath.locate: a screen holds 3 floats per
# point and tet, 0.5 MB for 32 points against the 648-tet finger mesh.
_LOCATE_BATCH = 32


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
class TetraMesh:
    """Tetrahedral mesh with positive rest volumes and a surface-node map.

    edge_inverses[t] inverts tet t's rest edge matrix, whose columns are the
    edges from its first node. It and the point locator's per-mesh operands
    are computed once, here.
    """

    nodes: np.ndarray  # (M, 3) mm
    tets: np.ndarray  # (T, 4) int
    surface_map: np.ndarray  # (S,) node indices of the surface vertices, in order
    edge_inverses: np.ndarray = field(init=False, repr=False, compare=False)  # (T, 3, 3)
    # The point locator's screen offsets, [r T + t] = (E_t^-1 a_t)_r for the
    # edge matrix E_t and first node a_t, and its error margin per tet at
    # the origin and per mm of |p| (see _locate).
    _screen_offsets: np.ndarray = field(init=False, repr=False, compare=False)  # (3 T,)
    _margin_base: np.ndarray = field(init=False, repr=False, compare=False)  # (T,)
    _margin_slope: np.ndarray = field(init=False, repr=False, compare=False)  # (T,)

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
        origin = nodes[tets[:, 0]]
        edges = np.stack([nodes[tets[:, e + 1]] - origin for e in range(3)], axis=2)
        inv = np.linalg.inv(edges)
        # Infinity norms of each inverse and its condition number (see _locate).
        inv_norm = np.abs(inv).sum(axis=2).max(axis=1)
        cond = inv_norm * np.abs(edges).sum(axis=2).max(axis=1)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "tets", tets)
        object.__setattr__(self, "surface_map", smap)
        object.__setattr__(self, "edge_inverses", inv)
        object.__setattr__(
            self, "_screen_offsets", np.einsum("trc,tc->rt", inv, origin).reshape(-1)
        )
        object.__setattr__(self, "_margin_base",
                           _SCREEN_EPS * cond * (1.0 + inv_norm * np.abs(origin).max(axis=1)))
        object.__setattr__(self, "_margin_slope", _SCREEN_EPS * cond * inv_norm)

    @property
    def n_nodes(self):
        return self.nodes.shape[0]


def signed_volumes(nodes, tets):
    a = nodes[tets[:, 0]]
    d1 = nodes[tets[:, 1]] - a
    d2 = nodes[tets[:, 2]] - a
    d3 = nodes[tets[:, 3]] - a
    return np.einsum("ij,ij->i", d1, np.cross(d2, d3)) / 6.0


def _locate(mesh: TetraMesh, points):
    """The containing tet (P,) and clamped weights (P, 4) of each point.

    A tet's weights are (1 - w1 - w2 - w3, w1, w2, w3), w = E^-1 (p - a)
    for its edge matrix E and first node a; a point belongs to the first
    tet, in tet order, with the largest minimum weight. One GEMM screens
    every point against every tet through the precomputed inverses. The
    exact weights come from np.linalg.solve, as one per-point batched
    solve over all tets would give them, but only for each point's
    candidates: the tets whose screened minimum lies within the error
    margin of the best.
    """
    # screen[p, r, t] = (E_t^-1 p)_r - (E_t^-1 a_t)_r
    screen = points @ mesh.edge_inverses.transpose(2, 1, 0).reshape(3, -1)
    screen -= mesh._screen_offsets
    w1, w2, w3 = screen.reshape(len(points), 3, -1).transpose(1, 0, 2)
    screen_min = np.minimum(np.minimum(w1, w2), np.minimum(w3, 1.0 - (w1 + w2 + w3)))
    # Rounding moves the screened and the solved weights of tet t by at most
    # c u cond_t (1 + |E_t^-1| (|p| + |a_t|)) each (infinity norms, unit
    # roundoff u = 2^-53, c a small constant; Higham, "Accuracy and
    # Stability of Numerical Algorithms", 2002, ch. 9 and 14). _SCREEN_EPS
    # allows c up to 2^22, so the exact best is always a candidate.
    margin = mesh._margin_base + np.abs(points).max(axis=1)[:, None] * mesh._margin_slope
    cand = screen_min + margin >= (screen_min - margin).max(axis=1, keepdims=True)
    pi, ti = np.nonzero(cand)  # by point, then in tet order
    corners = mesh.nodes[mesh.tets[ti]]
    edges = (corners[:, 1:] - corners[:, :1]).transpose(0, 2, 1)
    w123 = np.linalg.solve(edges, (points[pi] - corners[:, 0])[..., None])[..., 0]
    bary = np.concatenate([(1.0 - w123.sum(axis=1))[:, None], w123], axis=1)
    worst = bary.min(axis=1)
    # Per point, the first candidate with the largest minimum (stable sort).
    order = np.lexsort((-worst, pi))
    pick = order[np.flatnonzero(np.diff(pi[order], prepend=-1))]
    tet, bary, worst = ti[pick], bary[pick], worst[pick]
    # The mm tolerance in barycentric units, through each tet's extent.
    scale = np.maximum(np.ptp(corners[pick], axis=1).max(axis=1), 1e-12)
    outside = np.flatnonzero(worst < -(_EMBED_TOL_MM / scale + 1e-12))
    if outside.size:
        i = outside[0]
        raise NotEmbeddableError(
            f"point {points[i].tolist()} lies outside all tets "
            f"(closest violation {worst[i]:.3e} barycentric)"
        )
    bary = np.clip(bary, 0.0, None)
    bary /= bary.sum(axis=1, keepdims=True)
    return tet, bary


@dataclass(frozen=True)
class EmbeddedPath:
    """A polyline of points embedded in a tet mesh: point p is the
    barycentric combination weights[p] of the nodes node_index[p]."""

    node_index: np.ndarray  # (P, 4) the nodes of each point's tet
    weights: np.ndarray  # (P, 4) nonnegative, each row sums to 1

    @staticmethod
    def locate(mesh: TetraMesh, points):
        """Embed the (P, 3) points, in order, in their containing tets.

        A point up to _EMBED_TOL_MM outside its tet's faces is accepted with
        its weights clamped to zero and renormalized. Raises
        NotEmbeddableError, naming the first such point, when a point lies
        farther outside every tet. Points are screened in batches of
        _LOCATE_BATCH to bound the screen's memory.
        """
        points = as_cloud(points, "points")
        tets, weights = [], []
        for start in range(0, len(points), _LOCATE_BATCH):
            tet, w = _locate(mesh, points[start : start + _LOCATE_BATCH])
            tets.append(tet)
            weights.append(w)
        return EmbeddedPath(mesh.tets[np.concatenate(tets)], np.concatenate(weights))

    def positions(self, nodes):
        nodes = np.asarray(nodes, dtype=np.float64)
        return np.einsum("pk,pkc->pc", self.weights, nodes[self.node_index])

    def length(self, nodes):
        pos = self.positions(nodes)
        return float(np.linalg.norm(np.diff(pos, axis=0), axis=1).sum())

    def __len__(self):
        return self.node_index.shape[0]


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
