"""Reference computations the benchmark checks the program against.

Each one is written apart from the `softprop` code it checks: nearest
neighbours come from `scipy.spatial.cKDTree`, tet volumes from an explicit
3x3 determinant, vertex errors from plain numpy, and the dataset round
trip is compared byte for byte. Only data classes and the function under
test are taken from the program.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree


def nearest_sq_distances(obs, pred):
    """Squared distance from each obs point to its nearest pred point."""
    obs = np.asarray(obs, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    _, index = cKDTree(pred).query(obs, k=1)
    diff = obs - pred[index]
    return (diff * diff).sum(axis=1)


def chamfer(obs, pred):
    """Unidirectional Chamfer distance: summed squared nearest distance (mm^2)."""
    return float(nearest_sq_distances(obs, pred).sum())


def mean_nn(obs, pred):
    """Mean Euclidean nearest-neighbour distance from obs to pred (mm)."""
    return float(np.sqrt(nearest_sq_distances(obs, pred)).mean())


def surface_error(hand, frame, ref_vertices):
    """Per-step tracking error: mean over fingers of the surface-to-reference mean NN."""
    values = []
    for j, finger in enumerate(hand.fingers):
        surface = frame.nodes[j][finger.rest.surface_map]
        values.append(mean_nn(surface, ref_vertices[j]))
    return float(np.mean(values))


def tet_volumes(nodes, tets):
    """Signed tet volumes from the expanded 3x3 determinant of the edge vectors."""
    p = np.asarray(nodes, dtype=np.float64)[np.asarray(tets)]
    a = p[:, 1] - p[:, 0]
    b = p[:, 2] - p[:, 0]
    c = p[:, 3] - p[:, 0]
    det = (a[:, 0] * (b[:, 1] * c[:, 2] - b[:, 2] * c[:, 1])
           - a[:, 1] * (b[:, 0] * c[:, 2] - b[:, 2] * c[:, 0])
           + a[:, 2] * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0]))
    return det / 6.0


def frame_bytes(frame):
    """Every stored field of a SimFrame as one byte string, for bitwise comparison."""
    parts = [np.ascontiguousarray(a, dtype="<f8").tobytes()
             for a in (frame.command, frame.e_scales, frame.nodes, frame.sensor_lengths)]
    for j, events in enumerate(frame.forces):
        for ev in events:
            parts.append(repr(j).encode())
            parts.append(np.ascontiguousarray(
                np.concatenate([ev.center, [ev.radius_mm], ev.force_mn]), dtype="<f8"
            ).tobytes())
            parts.append(np.asarray(ev.window, dtype="<i8").tobytes())
        parts.append(b"|")
    if frame.pose is not None:
        parts.append(np.ascontiguousarray(frame.pose.rotation, dtype="<f8").tobytes())
        parts.append(np.ascontiguousarray(frame.pose.translation, dtype="<f8").tobytes())
    return b"".join(parts)


def same_frames(a, b):
    """True when two frame lists hold bitwise identical data."""
    return len(a) == len(b) and all(frame_bytes(x) == frame_bytes(y) for x, y in zip(a, b))


def vertex_error(model, frames, hand, predict, chunk=64):
    """Mean per-vertex displacement error over frames x fingers, in plain numpy.

    Strains come from sensor lengths over rest lengths, targets from the
    frame's surface nodes minus rest; predict(model, strains, rest) is the
    program's predict_displacements, called in batches of `chunk` samples.
    """
    finger = hand.fingers[0]
    rest = finger.surface.vertices
    strains, targets = [], []
    for frame in frames:
        for j, f in enumerate(hand.fingers):
            strains.append(frame.sensor_lengths[4 * j: 4 * j + 4] / f.sensor_rest_lengths - 1.0)
            targets.append(frame.nodes[j][f.rest.surface_map] - f.surface.vertices)
    strains = np.array(strains)
    targets = np.array(targets)
    errors = []
    for s in range(0, len(strains), chunk):
        disp = predict(model, strains[s: s + chunk], rest)
        errors.append(np.sqrt(((disp - targets[s: s + chunk]) ** 2).sum(axis=2)))
    return float(np.concatenate(errors).mean())
