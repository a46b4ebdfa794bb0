import math

import numpy as np
import pytest

from softprop import geometry
from softprop.errors import NotEmbeddableError
from softprop.geometry import (
    EmbeddedPath,
    RigidPose,
    SurfaceMesh,
    TetraMesh,
    axis_angle_to_matrix,
    chamfer_ucd,
    farthest_point_indices,
    matrix_to_axis_angle,
    mean_nn_distance,
    nn_distances,
    rotation_about_y,
    sample_surface_points,
    signed_volumes,
)
from softprop.simulator import build_canonical_finger


def chamfer_oracle(obs, pred):
    """Plain double loop, no vectorization beyond length-3 sums."""
    total = 0.0
    for p in obs:
        best = math.inf
        for q in pred:
            d = (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 + (p[2] - q[2]) ** 2
            if d < best:
                best = d
        total += best
    return total


def nearest_sq_oracle(obs, pred):
    """Vectorised brute force: every pairwise squared distance, row minima."""
    diff = np.asarray(obs, dtype=np.float64)[:, None, :] - np.asarray(pred)[None]
    return (diff * diff).sum(axis=2).min(axis=1)


def sequential_sum(values):
    total = 0.0
    for value in values.tolist():
        total += value
    return total


def assert_nearest_bitwise(obs, pred):
    """chamfer_ucd, nn_distances and mean_nn_distance match brute force exactly."""
    assert chamfer_ucd(obs, pred) == chamfer_oracle(obs, pred)
    want = np.sqrt(nearest_sq_oracle(obs, pred))
    assert np.array_equal(nn_distances(obs, pred), want)
    assert mean_nn_distance(obs, pred) == float(np.mean(want))


def unit_tet_mesh():
    nodes = np.array(
        [
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [1.0, 1.0, 1.0],
        ]
    )
    tets = np.array([[0, 1, 2, 3], [1, 2, 3, 4]])
    return TetraMesh(nodes, tets, np.array([0, 1, 2, 3, 4]))


class TestChamfer:
    def test_matches_double_loop_bitwise(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(1, 60))
            m = int(rng.integers(1, 60))
            obs = rng.normal(size=(n, 3)) * rng.uniform(0.1, 50.0)
            pred = rng.normal(size=(m, 3)) * rng.uniform(0.1, 50.0)
            fast = chamfer_ucd(obs, pred)
            slow = chamfer_oracle(obs, pred)
            assert fast == slow  # bitwise, not approx

    def test_chunk_boundary_bitwise(self):
        # Cross the internal chunk edge to prove chunking changes nothing.
        rng = np.random.default_rng(11)
        obs = rng.normal(size=(1100, 3))
        pred = rng.normal(size=(37, 3))
        assert chamfer_ucd(obs, pred) == chamfer_oracle(obs, pred)

    def test_zero_on_identical_clouds(self):
        rng = np.random.default_rng(3)
        cloud = rng.normal(size=(50, 3))
        assert chamfer_ucd(cloud, cloud) == 0.0

    def test_asymmetry(self):
        # A second faraway pred point never increases the one-sided sum.
        obs = np.array([[0.0, 0.0, 0.0]])
        pred = np.array([[1.0, 0.0, 0.0], [100.0, 0.0, 0.0]])
        assert chamfer_ucd(obs, pred) == 1.0
        assert chamfer_ucd(pred, obs) == 1.0 + 100.0**2

    def test_single_point_pair(self):
        assert chamfer_ucd([[1.0, 2.0, 2.0]], [[1.0, 0.0, 0.0]]) == 8.0

    def test_hand_cases(self):
        assert chamfer_ucd([[0.0, 0.0, 0.0]], [[3.0, 4.0, 0.0]]) == 25.0
        assert (
            chamfer_ucd([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]], [[0.0, 0.0, 0.0]]) == 3.0
        )
        both = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        assert chamfer_ucd(both, both) == 0.0

    def test_pose_invariance(self):
        rng = np.random.default_rng(13)
        obs = rng.normal(size=(80, 3)) * 20
        pred = rng.normal(size=(60, 3)) * 20
        pose = RigidPose(axis_angle_to_matrix(rng.normal(size=3)), rng.normal(size=3) * 5)
        a = chamfer_ucd(obs, pred)
        b = chamfer_ucd(pose.apply(obs), pose.apply(pred))
        assert abs(a - b) <= 1e-6 * max(a, 1.0)

    def test_mean_nn_hand_cases(self):
        assert mean_nn_distance([[0.0, 0.0, 0.0]], [[0.0, 0.0, 2.0]]) == 2.0
        assert (
            mean_nn_distance([[0.0, 0.0, 0.0], [0.0, 0.0, 4.0]], [[0.0, 0.0, 0.0]])
            == 2.0
        )

    def test_mean_nn_distance_not_squared(self):
        obs = np.array([[3.0, 0.0, 0.0], [0.0, 4.0, 0.0]])
        pred = np.array([[0.0, 0.0, 0.0]])
        assert mean_nn_distance(obs, pred) == pytest.approx(3.5, abs=1e-15)

    def test_lattice_ties_and_duplicates_bitwise(self):
        # Lattice points sit at many exactly or nearly equal distances, and
        # half the pred points appear twice.
        rng = np.random.default_rng(17)
        for scale in (1.0, 0.1, 1.0 / 3.0):
            for _ in range(20):
                pred = rng.integers(-3, 4, size=(int(rng.integers(2, 40)), 3)) * scale
                pred = np.concatenate([pred, pred[: len(pred) // 2]])
                obs = rng.integers(-6, 7, size=(int(rng.integers(1, 60)), 3)) * (0.5 * scale)
                assert_nearest_bitwise(obs, pred)

    def test_pred_smaller_than_candidate_count_bitwise(self):
        rng = np.random.default_rng(19)
        obs = rng.normal(size=(50, 3)) * 5.0
        for m in range(1, geometry._KD_CANDIDATES + 1):
            assert_nearest_bitwise(obs, rng.normal(size=(m, 3)) * 5.0)

    def test_paper_size_bitwise(self):
        # One calibration sample against a posed three-finger surface:
        # 1500 observed points, 690 predicted, most of them close by.
        rng = np.random.default_rng(23)
        pred = rng.normal(size=(690, 3)) * 15.0
        near = pred[rng.integers(0, 690, size=1000)] + rng.normal(size=(1000, 3)) * 0.05
        obs = np.concatenate([near, rng.normal(size=(500, 3)) * 30.0])
        want = nearest_sq_oracle(obs, pred)
        assert chamfer_ucd(obs, pred) == sequential_sum(want)
        assert np.array_equal(nn_distances(obs, pred), np.sqrt(want))
        assert mean_nn_distance(obs, pred) == float(np.mean(np.sqrt(want)))

    def test_tied_rows_fall_back_to_brute_force(self, monkeypatch):
        # A tree reporting a tie on every row, with candidates that are all
        # wrong, must still give the brute-force minima.
        class TiedTree:
            def __init__(self, pred):
                pass

            def query(self, obs, k):
                return np.ones((len(obs), k)), np.zeros((len(obs), k), dtype=np.int64)

        monkeypatch.setattr(geometry, "cKDTree", TiedTree)
        rng = np.random.default_rng(29)
        assert_nearest_bitwise(rng.normal(size=(40, 3)), rng.normal(size=(30, 3)))

    def test_planted_first_place_tie_falls_back_at_two_candidates(self, monkeypatch):
        # Obs point 0 is equidistant from pred points 0 and 1, with pred
        # point 2 just farther: the two tree candidates tie, so that row
        # alone must take the brute-force path. Obs point 1 has one clear
        # nearest neighbor and must not.
        monkeypatch.setattr(geometry, "_KD_CANDIDATES", 2)
        brute = geometry._brute_nearest_sq
        seen = []

        def spy(obs, pred):
            seen.append(obs.copy())
            return brute(obs, pred)

        monkeypatch.setattr(geometry, "_brute_nearest_sq", spy)
        obs = np.array([[0.5, 0.25, 0.125], [10.0, 10.0, 10.0]])
        pred = np.array([
            [1.5, 0.25, 0.125],
            [-0.5, 0.25, 0.125],
            [0.5, 1.2500001, 0.125],
            [9.0, 10.0, 10.0],
            [20.0, 20.0, 20.0],
        ])
        got = geometry._nearest_sq(obs, pred)
        assert len(seen) == 1 and np.array_equal(seen[0], obs[:1])
        assert np.array_equal(got, nearest_sq_oracle(obs, pred))
        seen.clear()
        assert_nearest_bitwise(obs, pred)
        assert len(seen) == 3  # once per public function

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            chamfer_ucd(np.zeros((0, 3)), np.zeros((1, 3)))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            chamfer_ucd(np.zeros((4, 2)), np.zeros((1, 3)))


class TestRigidPose:
    def test_identity_is_noop(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(10, 3))
        assert np.array_equal(RigidPose.identity().apply(pts), pts)

    def test_rejects_non_rotation(self):
        with pytest.raises(ValueError):
            RigidPose(np.eye(3) * 2.0, np.zeros(3))
        with pytest.raises(ValueError):
            RigidPose(np.diag([1.0, 1.0, -1.0]), np.zeros(3))  # det = -1

    def test_compose_matches_sequential_application(self):
        rng = np.random.default_rng(5)
        a = RigidPose(axis_angle_to_matrix(rng.normal(size=3)), rng.normal(size=3))
        b = RigidPose(axis_angle_to_matrix(rng.normal(size=3)), rng.normal(size=3))
        pts = rng.normal(size=(6, 3))
        np.testing.assert_allclose(
            a.compose(b).apply(pts), a.apply(b.apply(pts)), atol=1e-12
        )

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(6)
        pose = RigidPose(axis_angle_to_matrix(rng.normal(size=3)), rng.normal(size=3))
        pts = rng.normal(size=(8, 3))
        np.testing.assert_allclose(pose.inverse().apply(pose.apply(pts)), pts, atol=1e-12)

    def test_rotation_about_y_quarter_turn(self):
        # R_y(pi/2) maps +x to -z and +z to +x.
        r = rotation_about_y(np.pi / 2)
        np.testing.assert_allclose(r @ [1.0, 0.0, 0.0], [0.0, 0.0, -1.0], atol=1e-15)
        np.testing.assert_allclose(r @ [0.0, 0.0, 1.0], [1.0, 0.0, 0.0], atol=1e-15)

    def test_axis_angle_round_trip(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            v = rng.normal(size=3) * rng.uniform(0.01, 3.0)
            r = axis_angle_to_matrix(v)
            np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)
            back = matrix_to_axis_angle(r)
            angle = np.linalg.norm(v)
            if angle <= np.pi:
                np.testing.assert_allclose(back, v, atol=1e-9)


class TestMeshTypes:
    def test_surface_mesh_validation(self):
        with pytest.raises(ValueError):
            SurfaceMesh(np.zeros((3, 3)), np.array([[0, 1, 5]]))
        with pytest.raises(ValueError):
            SurfaceMesh(np.array([[0.0, 0.0, np.nan]]), np.zeros((0, 3), dtype=int))

    def test_face_areas(self):
        mesh = SurfaceMesh(
            np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 2.0, 0.0]]),
            np.array([[0, 1, 2]]),
        )
        assert mesh.face_areas()[0] == pytest.approx(2.0)

    def test_tetra_mesh_rejects_inverted(self):
        nodes = np.array(
            [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        )
        TetraMesh(nodes, np.array([[0, 1, 2, 3]]), np.arange(4))  # fine
        with pytest.raises(ValueError):
            TetraMesh(nodes, np.array([[0, 2, 1, 3]]), np.arange(4))  # flipped

    def test_signed_volume_unit_tet(self):
        # Volume of the unit right tet is 1/6.
        nodes = np.array(
            [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        )
        assert signed_volumes(nodes, np.array([[0, 1, 2, 3]]))[0] == pytest.approx(1 / 6)


def locate_oracle(mesh, p):
    """The per-point locator: p solved against every tet in one batched
    np.linalg.solve, the first tet with the largest minimum weight, the 1e-6
    mm tolerance through that tet's extent, then clamp and renormalize.
    Returns (tet index, weights); raises NotEmbeddableError."""
    p = np.asarray(p, dtype=np.float64).reshape(3)
    a = mesh.nodes[mesh.tets[:, 0]]
    edges = np.stack([mesh.nodes[mesh.tets[:, e]] - a for e in (1, 2, 3)], axis=2)
    w123 = np.linalg.solve(edges, (p[None, :] - a)[..., None])[..., 0]
    bary = np.concatenate([(1.0 - w123.sum(axis=1))[:, None], w123], axis=1)
    worst = bary.min(axis=1)
    best = int(np.argmax(worst))
    scale = max(np.ptp(mesh.nodes[mesh.tets[best]], axis=0).max(), 1e-12)
    if worst[best] < -(1e-6 / scale + 1e-12):
        raise NotEmbeddableError(
            f"point {p.tolist()} lies outside all tets "
            f"(closest violation {worst[best]:.3e} barycentric)"
        )
    w = np.clip(bary[best], 0.0, None)
    w /= w.sum()
    return best, w


def assert_located_as_oracle(mesh, points):
    """EmbeddedPath.locate equals the per-point oracle bit for bit, and on
    failure names the oracle's first failing point with its message."""
    want_tets, want_weights = [], []
    for p in points:
        try:
            tet, w = locate_oracle(mesh, p)
        except NotEmbeddableError as err:
            with pytest.raises(NotEmbeddableError) as got:
                EmbeddedPath.locate(mesh, points)
            assert str(got.value) == str(err)
            return False
        want_tets.append(tet)
        want_weights.append(w)
    path = EmbeddedPath.locate(mesh, points)
    assert path.node_index.tobytes() == mesh.tets[want_tets].tobytes()
    assert path.weights.tobytes() == np.stack(want_weights).tobytes()
    return True


def located(mesh, p):
    """Tet nodes and weights of one located point."""
    path = EmbeddedPath.locate(mesh, [p])
    return path.node_index[0], path.weights[0]


def embedded_position(mesh, p, nodes):
    return EmbeddedPath.locate(mesh, [p]).positions(nodes)[0]


def cylinder_mesh():
    return build_canonical_finger(segments=6, radius_mm=5.0, length_mm=30.0).rest


def tet_points(mesh, weights):
    """weights (T, 4) of every tet, as points."""
    return np.einsum("tk,tkc->tc", weights, mesh.nodes[mesh.tets])


class TestEmbedding:
    def test_vertex_and_centroid(self):
        mesh = unit_tet_mesh()
        np.testing.assert_allclose(
            embedded_position(mesh, [0.0, 0.0, 0.0], mesh.nodes), [0.0, 0.0, 0.0], atol=1e-12
        )
        centroid = mesh.nodes[mesh.tets[0]].mean(axis=0)
        nodes, weights = located(mesh, centroid)
        assert np.array_equal(nodes, mesh.tets[0])
        np.testing.assert_allclose(weights, 0.25)

    def test_interior_round_trip(self):
        mesh = unit_tet_mesh()
        rng = np.random.default_rng(2)
        for _ in range(100):
            w = rng.dirichlet(np.ones(4))
            t = int(rng.integers(0, 2))
            p = w @ mesh.nodes[mesh.tets[t]]
            np.testing.assert_allclose(
                embedded_position(mesh, p, mesh.nodes), p, atol=1e-9
            )

    def test_outside_raises(self):
        mesh = unit_tet_mesh()
        with pytest.raises(NotEmbeddableError):
            EmbeddedPath.locate(mesh, [[5.0, 5.0, 5.0]])

    def test_edge_midpoint_weights(self):
        mesh = unit_tet_mesh()
        _, weights = located(mesh, [0.5, 0.0, 0.0])  # midpoint of nodes 0 and 1
        w = np.sort(weights)
        np.testing.assert_allclose(w, [0.0, 0.0, 0.5, 0.5], atol=1e-12)

    def test_affine_maps_commute_with_interpolation(self):
        mesh = unit_tet_mesh()
        p = np.array([0.3, 0.2, 0.2])
        np.testing.assert_allclose(
            embedded_position(mesh, p, mesh.nodes * 2.0), p * 2.0, atol=1e-12
        )

    def test_tolerance_accepts_face_neighborhood(self):
        mesh = unit_tet_mesh()
        # Just below the z=0 face of tet 0, inside the 1e-6 mm tolerance.
        _, weights = located(mesh, [0.25, 0.25, -1e-8])
        assert weights.min() >= 0.0
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_embedded_point_follows_deformation(self):
        mesh = unit_tet_mesh()
        p = np.array([0.2, 0.3, 0.1])
        moved = mesh.nodes + np.array([1.0, -2.0, 0.5])
        np.testing.assert_allclose(
            embedded_position(mesh, p, moved),
            p + np.array([1.0, -2.0, 0.5]),
            atol=1e-12,
        )

    def test_embedded_path_positions_and_length(self):
        mesh = unit_tet_mesh()
        pts = [np.array([0.1, 0.1, 0.1]), np.array([0.2, 0.2, 0.2]), np.array([0.6, 0.6, 0.6])]
        path = EmbeddedPath.locate(mesh, pts)
        pos = path.positions(mesh.nodes)
        np.testing.assert_allclose(pos, np.array(pts), atol=1e-9)
        expected = sum(
            np.linalg.norm(np.array(pts[i + 1]) - np.array(pts[i])) for i in range(2)
        )
        assert path.length(mesh.nodes) == pytest.approx(expected, abs=1e-9)


class TestLocateAgainstOracle:
    # Every case is bitwise the per-point oracle; the batches of
    # geometry._LOCATE_BATCH points split the longer point lists.

    def test_random_interior_points(self):
        rng = np.random.default_rng(5)
        for mesh in (unit_tet_mesh(), cylinder_mesh()):
            tets = rng.integers(0, len(mesh.tets), size=100)
            weights = rng.dirichlet(np.ones(4), size=100)
            points = np.einsum("pk,pkc->pc", weights, mesh.nodes[mesh.tets[tets]])
            assert assert_located_as_oracle(mesh, points)

    def test_shared_faces_edges_and_vertices(self):
        # Nodes, edge midpoints and face centroids tie across every tet
        # that shares them; the first tet, in tet order, wins.
        mesh = cylinder_mesh()
        pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        faces = [(1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)]
        points = [mesh.nodes]
        for corners in pairs + faces:
            w = np.zeros((len(mesh.tets), 4))
            w[:, corners] = 1.0 / len(corners)
            points.append(tet_points(mesh, w))
        assert assert_located_as_oracle(mesh, np.concatenate(points))
        # The paper finger's tendon and sensor points lie on shared faces.
        finger = build_canonical_finger()
        paths = finger.tendon_paths + finger.sensor_paths
        assert assert_located_as_oracle(
            finger.rest, np.concatenate([p.positions(finger.rest.nodes) for p in paths])
        )

    def test_just_outside_a_face_within_tolerance(self):
        # Boundary face centroids moved off the mesh along the outward normal.
        finger = build_canonical_finger(segments=6, radius_mm=5.0, length_mm=30.0)
        v = finger.surface.vertices[finger.surface.faces]
        normal = np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0])
        normal /= np.linalg.norm(normal, axis=1, keepdims=True)
        for offset in (1e-9, 1e-8, 1e-7):
            assert assert_located_as_oracle(finger.rest, v.mean(axis=1) + offset * normal)
        # 1e-6 mm off a face is past the tolerance.
        assert not assert_located_as_oracle(finger.rest, v.mean(axis=1) + 1e-6 * normal)
        assert assert_located_as_oracle(unit_tet_mesh(), [[0.25, 0.25, -1e-8]])

    def test_far_outside_names_the_first_failing_point(self):
        mesh = cylinder_mesh()
        inside = tet_points(mesh, np.full((len(mesh.tets), 4), 0.25))[:50]
        for first_bad in (0, 3, 40):
            points = inside.copy()
            points[first_bad] = [40.0, 0.0, 10.0]
            points[first_bad + 5] = [0.0, 0.0, -9.0]
            assert not assert_located_as_oracle(mesh, points)
            with pytest.raises(NotEmbeddableError, match=r"point \[40\.0, 0\.0, 10\.0\]"):
                EmbeddedPath.locate(mesh, points)

    def test_near_degenerate_tet(self):
        # A sliver of height 1e-9 under the base face of the unit tet.
        nodes = np.array(
            [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
             [0.3, 0.3, -1e-9]]
        )
        mesh = TetraMesh(nodes, np.array([[0, 1, 2, 3], [0, 2, 1, 4]]), np.arange(5))
        rng = np.random.default_rng(7)
        weights = rng.dirichlet(np.ones(4), size=60)
        points = np.concatenate([
            weights @ nodes[[0, 1, 2, 3]],
            weights @ nodes[[0, 2, 1, 4]],
            np.c_[weights[:, :2] * 0.5, np.zeros(60)],  # on the shared face
        ])
        assert assert_located_as_oracle(mesh, points)


class TestSampling:
    def test_area_weighting(self):
        # Two triangles, one with 9x the area: expect ~90% of samples on it.
        verts = np.array(
            [
                [0.0, 0.0, 0.0],
                [1.0, 0.0, 0.0],
                [0.0, 1.0, 0.0],
                [10.0, 0.0, 0.0],
                [13.0, 0.0, 0.0],
                [10.0, 3.0, 0.0],
            ]
        )
        mesh = SurfaceMesh(verts, np.array([[0, 1, 2], [3, 4, 5]]))
        pts = sample_surface_points(mesh, 4000, np.random.default_rng(0))
        frac_big = np.mean(pts[:, 0] >= 5.0)
        assert abs(frac_big - 0.9) < 0.03

    def test_points_lie_on_plane(self):
        verts = np.array([[0.0, 0.0, 2.0], [1.0, 0.0, 2.0], [0.0, 1.0, 2.0]])
        mesh = SurfaceMesh(verts, np.array([[0, 1, 2]]))
        pts = sample_surface_points(mesh, 500, np.random.default_rng(1))
        assert np.allclose(pts[:, 2], 2.0)
        assert (pts[:, 0] >= -1e-12).all() and (pts[:, 1] >= -1e-12).all()
        assert (pts[:, 0] + pts[:, 1] <= 1.0 + 1e-12).all()

    def test_deterministic_under_seed(self):
        verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        mesh = SurfaceMesh(verts, np.array([[0, 1, 2]]))
        a = sample_surface_points(mesh, 64, np.random.default_rng(42))
        b = sample_surface_points(mesh, 64, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_farthest_point_spread(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(200, 3))
        idx = farthest_point_indices(pts, 16)
        assert len(set(idx.tolist())) == 16
        # First pick is the requested start, second is the true farthest point.
        assert idx[0] == 0
        d = np.linalg.norm(pts - pts[0], axis=1)
        assert idx[1] == int(np.argmax(d))
