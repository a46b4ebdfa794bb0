"""On-disk artifacts: one manifest directory per stage output.

Every artifact a stage hands to the next one is a directory holding
`manifest.json` plus the payload files the manifest names. The manifest
is canonical JSON (sorted keys, no whitespace, ASCII, one trailing
newline; never timestamps, so reruns are byte-identical) and carries a
`format` tag. This module owns that convention: `write_manifest` writes
it, `read_manifest` reads it and checks the tag, and `artifact_file`
resolves a payload file. The manifest is the only JSON file: network
checkpoints (`nn.save_checkpoint`) and every other payload are binary.
A missing manifest or payload raises `MissingArtifactError` naming the
stage that produces it; a foreign format raises `ValueError`.

The frame container is the first such artifact. Its manifest holds
configuration, seed, units and finger topology hash, and `frames.ksd` is
a flat little-endian binary blob:

    header:  magic "KSD1" | version u32 | frame count u64
    frame:   command 6xf64 | e_scales 3xf64 | nodes (3*M*3)xf64
             | sensor lengths 12xf64 | [pose 12xf64 if manifest has_pose]
             | force count u32 | force records
    force:   finger u32 | center 3xf64 | radius f64 | force 3xf64
             | window 2xi64

The same container stores training frames, controller reference
trajectories, and demonstrations; the manifest `role` field says which,
and `load_role` checks it together with the hand's topology.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from .errors import MissingArtifactError
from .geometry import RigidPose
from .simulator import ExternalForceEvent, HandModel, SimFrame

DATASET_MAGIC = b"KSD1"
DATASET_VERSION = 1
MANIFEST_NAME = "manifest.json"
BLOB_NAME = "frames.ksd"

UNITS = {"length": "mm", "force": "mN", "pressure": "kPa"}


def canonical_json_bytes(obj):
    """Stable serialization used for hashing and manifests."""
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    ).encode("ascii")


def write_manifest(directory, manifest):
    """Create the artifact directory and write its canonical manifest."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / MANIFEST_NAME).write_bytes(canonical_json_bytes(manifest) + b"\n")
    return directory


def artifact_file(directory, name, producer):
    """Path of one file of an artifact; missing files name their producer."""
    path = Path(directory) / name
    if not path.is_file():
        raise MissingArtifactError(path, producer=producer)
    return path


def read_manifest(directory, fmt, producer):
    """Parsed manifest of an artifact directory whose format tag is `fmt`."""
    path = artifact_file(directory, MANIFEST_NAME, producer)
    manifest = json.loads(path.read_text())
    if manifest.get("format") != fmt:
        raise ValueError(
            f"{path}: format {manifest.get('format')!r}, expected {fmt!r}"
        )
    return manifest


def config_hash(config):
    return hashlib.sha256(canonical_json_bytes(config)).hexdigest()


def topology_hash(hand: HandModel):
    """Digest of every finger's mesh and embedded-path layout."""
    h = hashlib.sha256()
    for finger in hand.fingers:
        h.update(np.ascontiguousarray(finger.rest.nodes, dtype="<f8").tobytes())
        h.update(np.ascontiguousarray(finger.rest.tets, dtype="<i8").tobytes())
        h.update(np.ascontiguousarray(finger.rest.surface_map, dtype="<i8").tobytes())
        for path in finger.tendon_paths + finger.sensor_paths:
            h.update(np.ascontiguousarray(path.node_index, dtype="<i8").tobytes())
            h.update(np.ascontiguousarray(path.weights, dtype="<f8").tobytes())
    for mount in hand.mounts:
        h.update(np.ascontiguousarray(mount.rotation, dtype="<f8").tobytes())
        h.update(np.ascontiguousarray(mount.translation, dtype="<f8").tobytes())
    return h.hexdigest()


def pose_to_floats(pose: RigidPose):
    """The 12 floats a pose is stored as: row-major rotation, then translation."""
    return np.concatenate([pose.rotation.reshape(9), pose.translation])


def pose_from_floats(vals):
    vals = np.asarray(vals, dtype=np.float64)
    return RigidPose(vals[:9].reshape(3, 3), vals[9:12])


def _encode_frame(frame: SimFrame, n_nodes, has_pose):
    parts = [
        np.ascontiguousarray(frame.command, dtype="<f8").tobytes(),
        np.ascontiguousarray(frame.e_scales, dtype="<f8").tobytes(),
        np.ascontiguousarray(frame.nodes, dtype="<f8").tobytes(),
        np.ascontiguousarray(frame.sensor_lengths, dtype="<f8").tobytes(),
    ]
    if frame.nodes.shape != (3, n_nodes, 3):
        raise ValueError(
            f"frame node block {frame.nodes.shape} does not match manifest "
            f"shape (3, {n_nodes}, 3)"
        )
    if has_pose:
        if frame.pose is None:
            raise ValueError("pose-tagged dataset contains a frame without a pose")
        parts.append(
            np.ascontiguousarray(pose_to_floats(frame.pose), dtype="<f8").tobytes()
        )
    elif frame.pose is not None:
        raise ValueError("frame carries a pose but the dataset role does not")
    events = [(j, ev) for j, evs in enumerate(frame.forces) for ev in evs]
    parts.append(struct.pack("<I", len(events)))
    for j, ev in events:
        parts.append(struct.pack("<I", j))
        parts.append(np.ascontiguousarray(ev.center, dtype="<f8").tobytes())
        parts.append(struct.pack("<d", ev.radius_mm))
        parts.append(np.ascontiguousarray(ev.force_mn, dtype="<f8").tobytes())
        parts.append(struct.pack("<qq", ev.window[0], ev.window[1]))
    return b"".join(parts)


class _Reader:
    """Sequential reads from a blob; a read past its end raises ValueError."""

    def __init__(self, blob, path):
        self.blob = blob
        self.path = path
        self.at = 0

    def _advance(self, size):
        at = self.at
        if at + size > len(self.blob):
            raise ValueError(
                f"{self.path}: blob ends early: {size} bytes needed at offset "
                f"{at}, {len(self.blob) - at} left"
            )
        self.at = at + size
        return at

    def floats(self, n):
        at = self._advance(8 * n)
        return np.frombuffer(self.blob, dtype="<f8", count=n, offset=at).astype(np.float64)

    def unpack(self, fmt):
        return struct.unpack_from(fmt, self.blob, self._advance(struct.calcsize(fmt)))


def _decode_frame(r: _Reader, n_nodes, has_pose):
    command = r.floats(6)
    e_scales = r.floats(3)
    nodes = r.floats(3 * n_nodes * 3).reshape(3, n_nodes, 3)
    lengths = r.floats(12)
    pose = pose_from_floats(r.floats(12)) if has_pose else None
    (n_events,) = r.unpack("<I")
    forces = [[], [], []]
    for _ in range(n_events):
        (j,) = r.unpack("<I")
        center = r.floats(3)
        (radius,) = r.unpack("<d")
        force = r.floats(3)
        window = r.unpack("<qq")
        if not 0 <= j < 3:
            raise ValueError(f"force record references finger {j}")
        forces[j].append(ExternalForceEvent(center, radius, force, window))
    return SimFrame(
        command=command,
        nodes=nodes,
        sensor_lengths=lengths,
        forces=tuple(tuple(f) for f in forces),
        e_scales=e_scales,
        pose=pose,
    )


def save_dataset(directory, hand, frames, seed, role="training", config=None):
    """Write manifest + blob; rewriting identical inputs is byte-identical."""
    frames = list(frames)
    if not frames:
        raise ValueError("save_dataset: no frames")
    n_nodes = frames[0].nodes.shape[1]
    has_pose = frames[0].pose is not None
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    manifest = {
        "format": DATASET_MAGIC.decode("ascii"),
        "version": DATASET_VERSION,
        "role": str(role),
        "seed": int(seed),
        "frames": len(frames),
        "units": UNITS,
        "topology_hash": topology_hash(hand),
        "nodes_per_finger": int(n_nodes),
        "has_pose": bool(has_pose),
        "config": config,
        "config_hash": config_hash(config) if config is not None else None,
    }
    blob = [DATASET_MAGIC, struct.pack("<IQ", DATASET_VERSION, len(frames))]
    for frame in frames:
        blob.append(_encode_frame(frame, n_nodes, has_pose))
    (directory / BLOB_NAME).write_bytes(b"".join(blob))
    return write_manifest(directory, manifest)


def load_dataset(directory, producer="gen-data"):
    """Read a dataset directory back into (frames, manifest)."""
    manifest = read_manifest(directory, DATASET_MAGIC.decode("ascii"), producer)
    blob_path = artifact_file(directory, BLOB_NAME, producer)
    blob = blob_path.read_bytes()
    if blob[:4] != DATASET_MAGIC:
        raise ValueError(f"{blob_path}: bad magic {blob[:4]!r}")
    r = _Reader(blob, blob_path)
    r.at = 4
    version, count = r.unpack("<IQ")
    if version != DATASET_VERSION:
        raise ValueError(f"{blob_path}: unsupported version {version}")
    if count != manifest.get("frames"):
        raise ValueError(
            f"{blob_path}: blob holds {count} frames, manifest says "
            f"{manifest.get('frames')}"
        )
    n_nodes = int(manifest["nodes_per_finger"])
    has_pose = bool(manifest["has_pose"])
    frames = [_decode_frame(r, n_nodes, has_pose) for _ in range(count)]
    if r.at != len(blob):
        raise ValueError(f"{blob_path}: {len(blob) - r.at} trailing bytes")
    return frames, manifest


def require_same_topology(manifest, hand: HandModel, context):
    digest = topology_hash(hand)
    if manifest.get("topology_hash") != digest:
        raise ValueError(
            f"{context}: dataset topology {manifest.get('topology_hash')!r} "
            f"does not match the current hand build {digest!r}"
        )


def load_role(directory, hand: HandModel, role, producer):
    """Load a frame container that must carry `role` and the hand's topology."""
    frames, manifest = load_dataset(directory, producer=producer)
    if manifest.get("role") != role:
        raise ValueError(
            f"{directory}: dataset role is {manifest.get('role')!r}, "
            f"expected {role!r}"
        )
    require_same_topology(manifest, hand, str(directory))
    return frames, manifest
