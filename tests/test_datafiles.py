"""Dataset directory round trips and header validation."""

import struct

import numpy as np
import pytest

from softprop.datafiles import (
    BLOB_NAME,
    MANIFEST_NAME,
    canonical_json_bytes,
    config_hash,
    load_dataset,
    require_same_topology,
    save_dataset,
    topology_hash,
)
from softprop.errors import MissingArtifactError
from softprop.geometry import RigidPose, rotation_about_z
from softprop.simulator import (
    DatasetConfig,
    ExternalForceEvent,
    HandModel,
    collect_demonstration,
    generate_dataset,
)


@pytest.fixture(scope="module")
def hand():
    return HandModel.build_standard(segments=5, length_mm=30.0)


@pytest.fixture(scope="module")
def frames(hand):
    cfg = DatasetConfig(frames=3, force_prob=0.8, force_mag_mn=(4.0, 15.0))
    return generate_dataset(hand, cfg, seed=21)


def test_round_trip_exact(tmp_path, hand, frames):
    save_dataset(tmp_path / "d", hand, frames, seed=21, config={"frames": 3})
    loaded, manifest = load_dataset(tmp_path / "d")
    assert manifest["frames"] == len(frames)
    assert manifest["seed"] == 21
    assert manifest["role"] == "training"
    assert manifest["units"]["length"] == "mm"
    assert manifest["config_hash"] == config_hash({"frames": 3})
    for a, b in zip(frames, loaded):
        assert np.array_equal(a.nodes, b.nodes)
        assert np.array_equal(a.command, b.command)
        assert np.array_equal(a.sensor_lengths, b.sensor_lengths)
        assert np.array_equal(a.e_scales, b.e_scales)
        assert b.pose is None
        for fa, fb in zip(a.forces, b.forces):
            assert len(fa) == len(fb)
            for ea, eb in zip(fa, fb):
                assert np.array_equal(ea.center, eb.center)
                assert np.array_equal(ea.force_mn, eb.force_mn)
                assert ea.radius_mm == eb.radius_mm
                assert ea.window == eb.window


def test_rewrite_is_byte_identical(tmp_path, hand, frames):
    save_dataset(tmp_path / "a", hand, frames, seed=21, config={"x": 1})
    save_dataset(tmp_path / "b", hand, frames, seed=21, config={"x": 1})
    for name in (MANIFEST_NAME, BLOB_NAME):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()


def test_pose_tagged_round_trip(tmp_path, hand):
    ev = ExternalForceEvent((6.0, 0.0, 20.0), 12.0, (-10.0, 0.0, 0.0), window=(0, 4))
    poses = [
        RigidPose(rotation_about_z(0.2 * t), np.array([t / 2, 0.0, 1.0 * t]))
        for t in range(4)
    ]
    demo = collect_demonstration(hand, [(0, ev)], pose_script=poses, seed=9)
    save_dataset(tmp_path / "demo", hand, demo.frames, seed=9, role="demonstration")
    loaded, manifest = load_dataset(tmp_path / "demo")
    assert manifest["role"] == "demonstration"
    assert manifest["has_pose"] is True
    for a, b in zip(demo.frames, loaded):
        assert np.array_equal(a.pose.rotation, b.pose.rotation)
        assert np.array_equal(a.pose.translation, b.pose.translation)


def test_missing_directory_names_producer(tmp_path):
    with pytest.raises(MissingArtifactError) as exc:
        load_dataset(tmp_path / "nope", producer="gen-data")
    assert "gen-data" in str(exc.value)


def test_missing_blob_names_producer(tmp_path, hand, frames):
    save_dataset(tmp_path / "d", hand, frames, seed=21)
    (tmp_path / "d" / BLOB_NAME).unlink()
    with pytest.raises(MissingArtifactError, match="gen-data") as exc:
        load_dataset(tmp_path / "d")
    assert exc.value.path.endswith(BLOB_NAME)


def test_foreign_format_rejected(tmp_path, hand, frames):
    save_dataset(tmp_path / "d", hand, frames, seed=21)
    manifest = tmp_path / "d" / MANIFEST_NAME
    manifest.write_text(manifest.read_text().replace('"KSD1"', '"KSD9"'))
    with pytest.raises(ValueError, match="format"):
        load_dataset(tmp_path / "d")


def test_corrupt_magic_rejected(tmp_path, hand, frames):
    save_dataset(tmp_path / "d", hand, frames, seed=21)
    blob = (tmp_path / "d" / BLOB_NAME).read_bytes()
    (tmp_path / "d" / BLOB_NAME).write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(ValueError, match="magic"):
        load_dataset(tmp_path / "d")


def test_frame_count_mismatch_rejected(tmp_path, hand, frames):
    save_dataset(tmp_path / "d", hand, frames, seed=21)
    blob = bytearray((tmp_path / "d" / BLOB_NAME).read_bytes())
    blob[8:16] = struct.pack("<Q", 99)
    (tmp_path / "d" / BLOB_NAME).write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="frames"):
        load_dataset(tmp_path / "d")


def test_truncated_blob_rejected(tmp_path, hand, frames):
    save_dataset(tmp_path / "d", hand, frames, seed=21)
    blob = (tmp_path / "d" / BLOB_NAME).read_bytes()
    (tmp_path / "d" / BLOB_NAME).write_bytes(blob + b"\x00" * 8)
    with pytest.raises(ValueError, match="trailing"):
        load_dataset(tmp_path / "d")


def _event_count_offset(n_nodes):
    # Header, then the first frame's command, e_scales, nodes and lengths.
    return 16 + 8 * (6 + 3 + 9 * n_nodes + 12)


@pytest.mark.parametrize("cut", [
    lambda n, size: 10,  # inside the header's frame count
    lambda n, size: 16 + 100,  # inside the first frame's nodes
    lambda n, size: _event_count_offset(n) + 2,  # inside a <I event count
    lambda n, size: size - 1,  # inside the last frame's last record
], ids=["header", "nodes", "event-count", "last-byte"])
def test_short_blob_rejected(tmp_path, hand, frames, cut):
    save_dataset(tmp_path / "d", hand, frames, seed=21)
    path = tmp_path / "d" / BLOB_NAME
    blob = path.read_bytes()
    path.write_bytes(blob[:cut(frames[0].nodes.shape[1], len(blob))])
    with pytest.raises(ValueError, match=rf"{BLOB_NAME}: blob ends early: \d+ bytes needed at offset"):
        load_dataset(tmp_path / "d")


def test_manifest_has_no_timestamps(tmp_path, hand, frames):
    save_dataset(tmp_path / "d", hand, frames, seed=21)
    text = (tmp_path / "d" / MANIFEST_NAME).read_text().lower()
    for needle in ("time", "date", "clock"):
        assert needle not in text


def test_topology_hash_tracks_geometry(hand):
    other = HandModel.build_standard(segments=6, length_mm=30.0)
    assert topology_hash(hand) != topology_hash(other)
    assert topology_hash(hand) == topology_hash(hand)
    require_same_topology({"topology_hash": topology_hash(hand)}, hand, "test")
    with pytest.raises(ValueError, match="topology"):
        require_same_topology({"topology_hash": "bogus"}, hand, "test")


def test_topology_hash_of_benchmark_hands_is_pinned():
    # Saved datasets, references and demonstrations carry this digest; a
    # hand refactor that moves it orphans every artifact on disk.
    paper = HandModel.build_standard()
    test_hand = HandModel.build_standard(segments=4, length_mm=24.0)
    assert topology_hash(paper) == (
        "17838eb3e64f83f0880e86f81b62eb80dbabbe48cf69f5b01bca31cfbfe27ce5"
    )
    assert topology_hash(test_hand) == (
        "4d4b565b90fe4c0e2560266f6747d7ea5ca53955dc3d9562d49a77b2cc6ebc8e"
    )


def test_canonical_json_is_sorted_and_stable():
    a = canonical_json_bytes({"b": 1, "a": [2, 3]})
    assert a == b'{"a":[2,3],"b":1}'
    assert config_hash({"b": 1, "a": [2, 3]}) == config_hash({"a": [2, 3], "b": 1})


def test_save_rejects_inconsistent_pose_usage(tmp_path, hand, frames):
    posed = frames[0]
    object.__setattr__(posed, "pose", RigidPose.identity())
    with pytest.raises(ValueError, match="pose"):
        save_dataset(tmp_path / "d", hand, [posed, frames[1]], seed=0)
    object.__setattr__(posed, "pose", None)


def test_save_rejects_empty(tmp_path, hand):
    with pytest.raises(ValueError, match="no frames"):
        save_dataset(tmp_path / "d", hand, [], seed=0)
