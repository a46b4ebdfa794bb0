"""Finger statics: mesh construction, energies, equilibria, datasets."""

import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from softprop import simulator
from softprop.errors import SolverFailure
from softprop.geometry import RigidPose, rotation_about_z, signed_volumes
from softprop.simulator import (
    DatasetConfig,
    Demonstration,
    ExternalForceEvent,
    HandModel,
    MaterialParams,
    TendonCommand,
    build_canonical_finger,
    collect_demonstration,
    generate_dataset,
    smoothstep,
    solve_equilibrium,
    solve_hand,
)

RING = 12


@pytest.fixture(scope="module")
def tiny():
    # 4 segments, short: cheap enough for finite-difference sweeps.
    return build_canonical_finger(segments=4, length_mm=20.0)


@pytest.fixture(scope="module")
def finger():
    return build_canonical_finger(segments=12)


@pytest.fixture(scope="module")
def small_hand():
    return HandModel.build_standard(segments=6, length_mm=40.0)


@pytest.fixture(scope="module")
def four_hand():
    return HandModel.build_standard(segments=4, length_mm=24.0)


@pytest.fixture(scope="module")
def paper_hand():
    return HandModel.build_standard()


# -- construction -----------------------------------------------------------


def test_canonical_counts(finger):
    layers = 13
    assert finger.rest.n_nodes == layers * (RING + 1)
    assert finger.rest.tets.shape[0] == 12 * 3 * RING
    assert np.all(signed_volumes(finger.rest.nodes, finger.rest.tets) > 0)


def test_mesh_volume_matches_prism_formula(finger):
    # Polygonal cylinder: V = 0.5 k r^2 sin(2 pi / k) * L.
    vol = signed_volumes(finger.rest.nodes, finger.rest.tets).sum()
    exact = 0.5 * RING * 8.0**2 * math.sin(2 * math.pi / RING) * 80.0
    assert vol == pytest.approx(exact, rel=1e-12)


def test_surface_area_matches_prism_formula(finger):
    side = 2 * RING * 8.0 * math.sin(math.pi / RING) * 80.0
    caps = RING * 8.0**2 * math.sin(2 * math.pi / RING)
    assert finger.surface.face_areas().sum() == pytest.approx(side + caps, rel=1e-12)


def test_embedded_path_extents(finger):
    for p in finger.tendon_paths:
        z = p.positions(finger.rest.nodes)[:, 2]
        assert z[0] == pytest.approx(0.0, abs=1e-9)
        assert z[-1] == pytest.approx(80.0, abs=1e-9)
    for p in finger.sensor_paths:
        z = p.positions(finger.rest.nodes)[:, 2]
        assert z.min() > 0.0 and z.max() < 80.0


def test_rest_lengths_are_straight_lines(finger):
    # All embedded polylines are axial lines at rest, so rest length = span.
    assert finger.tendon_rest_lengths == pytest.approx([80.0] * 4, abs=1e-9)
    span = finger.sensor_paths[0].positions(finger.rest.nodes)[:, 2]
    expected = span[-1] - span[0]
    assert finger.sensor_rest_lengths == pytest.approx([expected] * 4, abs=1e-9)


def test_build_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_canonical_finger(segments=2)
    with pytest.raises(ValueError):
        build_canonical_finger(radius_mm=-1.0)
    with pytest.raises(ValueError):
        MaterialParams(poisson_ratio=0.5)
    with pytest.raises(ValueError):
        MaterialParams(youngs_modulus_kpa=0.0)


def test_lame_constants():
    mu, lam = MaterialParams(youngs_modulus_kpa=125.0, poisson_ratio=0.45).lame()
    assert mu == pytest.approx(125.0 / 2.9, rel=1e-12)
    assert lam == pytest.approx(125.0 * 0.45 / (1.45 * 0.1), rel=1e-12)


def test_command_validation():
    with pytest.raises(ValueError):
        TendonCommand(np.full(6, 1.2))
    with pytest.raises(ValueError):
        TendonCommand(np.zeros(5))
    c = TendonCommand.rest()
    assert c.finger(2).shape == (2,)


def test_tendon_targets_mapping(finger):
    cache = finger.solver_cache()
    t = cache.tendon_targets((1.0, 0.0))
    assert t == pytest.approx([60.0, 80.0, 100.0, 80.0], abs=1e-9)
    t = cache.tendon_targets((0.0, 0.4))
    assert t == pytest.approx([80.0, 72.0, 80.0, 88.0], abs=1e-9)
    with pytest.raises(ValueError):
        cache.tendon_targets((1.2, 0.0))


# -- energy derivatives against finite differences ---------------------------


def _random_state(cache, rng, scale=0.05):
    x = cache.rest + scale * rng.normal(size=cache.rest.shape)
    x[cache.finger.base_fixed] = cache.rest[cache.finger.base_fixed]
    assert cache.kinematics(x).jdet.min() > 0.5
    return x


def _newton_system(cache, x, targets, force_field, e_scale):
    """Reduced gradient and dense reduced Hessian (small meshes only).

    A dense view of the solver's own assembly, C + sum_t k v_t v_t^T, with
    C's lower band (newton_matrix) mirrored into its upper triangle by an
    index map, independently of _dense_from_lower_band's diagonal loop.
    """
    kin = cache.kinematics(x)
    g, vmat = cache.gradient(kin, targets, force_field, e_scale)
    ab = cache.newton_matrix(kin, targets, e_scale)
    k, c = np.indices(ab.shape)
    r = c + k
    inside = r < cache.n_free
    h = np.zeros((cache.n_free, cache.n_free))
    h[r[inside], c[inside]] = ab[inside]
    h += np.tril(h, -1).T
    h += cache.k_tendon * (vmat @ vmat.T)
    return g, h


def test_gradient_matches_finite_differences(tiny):
    cache = tiny.solver_cache()
    rng = np.random.default_rng(3)
    x = _random_state(cache, rng)
    targets = cache.tendon_targets((0.6, 0.2))
    field = cache.force_field(
        [ExternalForceEvent((4.0, 0.0, 12.0), 6.0, (-15.0, 5.0, 0.0))]
    )
    g, _ = _newton_system(cache, x, targets, field, 1.1)
    free_dofs = (3 * cache.free_nodes[:, None] + np.arange(3)).ravel()
    h = 1e-6
    for d in rng.choice(cache.n_free, 25, replace=False):
        xp = x.copy()
        xp.reshape(-1)[free_dofs[d]] += h
        xm = x.copy()
        xm.reshape(-1)[free_dofs[d]] -= h
        fd = (
            cache.energy(cache.kinematics(xp), targets, field, 1.1)
            - cache.energy(cache.kinematics(xm), targets, field, 1.1)
        ) / (2 * h)
        assert abs(fd - g[d]) / max(abs(fd), 1.0) < 1e-5


def test_hessian_matches_finite_differences(tiny):
    cache = tiny.solver_cache()
    rng = np.random.default_rng(7)
    x = _random_state(cache, rng)
    targets = cache.tendon_targets((0.3, 0.8))
    field = cache.force_field(
        [ExternalForceEvent((0.0, 4.0, 15.0), 6.0, (0.0, -20.0, 5.0))]
    )
    _, hess = _newton_system(cache, x, targets, field, 0.9)
    assert np.abs(hess - hess.T).max() < 1e-8
    free_dofs = (3 * cache.free_nodes[:, None] + np.arange(3)).ravel()
    h = 1e-6
    for _ in range(5):
        w = rng.normal(size=cache.n_free)
        w /= np.linalg.norm(w)
        xp = x.copy()
        xp.reshape(-1)[free_dofs] += h * w
        xm = x.copy()
        xm.reshape(-1)[free_dofs] -= h * w
        gp, _ = _newton_system(cache, xp, targets, field, 0.9)
        gm, _ = _newton_system(cache, xm, targets, field, 0.9)
        fd = (gp - gm) / (2 * h)
        assert np.abs(fd - hess @ w).max() / max(np.abs(fd).max(), 1.0) < 1e-6


# -- the Newton kernel: lower band, Cholesky on a damping ladder -------------


def _dense_from_lower_band(lower):
    """Dense symmetric matrix of a LAPACK lower band lower[r - c, c],
    mirrored here; the cells that fall outside the matrix must be zero."""
    n = lower.shape[1]
    h = np.zeros((n, n))
    for k in range(lower.shape[0]):
        h[np.arange(k, n), np.arange(n - k)] = lower[k, : n - k]
        assert not lower[k, n - k :].any()
    return h + np.tril(h, -1).T


def test_mirrored_newton_matrix_is_symmetric(tiny):
    # _newton_system's index-map mirror of the lower band equals the
    # diagonal-loop mirror plus the tendon rank-1 terms (one product
    # k V V^T), bit for bit, and is exactly symmetric.
    cache = tiny.solver_cache()
    rng = np.random.default_rng(0)
    for _ in range(3):
        x = _random_state(cache, rng)
        targets = cache.tendon_targets(rng.uniform(0.0, 1.0, 2))
        kin = cache.kinematics(x)
        lower = cache.newton_matrix(kin, targets, 1.2)
        assert lower.shape == (cache.bandwidth + 1, cache.n_free)
        want = _dense_from_lower_band(lower)
        _, vmat = cache.gradient(kin, targets, None, 1.2)
        want += cache.k_tendon * (vmat @ vmat.T)
        _, h = _newton_system(cache, x, targets, None, 1.2)
        assert np.array_equal(h, want)
        assert np.array_equal(h, h.T)


def test_mirrored_newton_matrix_is_the_banded_part_of_newton_system(tiny):
    cache = tiny.solver_cache()
    x = _random_state(cache, np.random.default_rng(11))
    targets = cache.tendon_targets((0.7, 0.4))
    field = cache.force_field(
        [ExternalForceEvent((4.0, 0.0, 12.0), 6.0, (-15.0, 5.0, 0.0))]
    )
    kin = cache.kinematics(x)
    # Dense C from its lower band alone, mirrored here.
    c = _dense_from_lower_band(cache.newton_matrix(kin, targets, 0.8))
    _, h = _newton_system(cache, x, targets, field, 0.8)
    _, vmat = cache.gradient(kin, targets, field, 0.8)
    rank1 = sum(cache.k_tendon * np.outer(v, v) for v in vmat.T)
    assert np.abs(h - rank1 - c).max() <= 1e-12 * np.abs(h).max()


def test_cholesky_step_matches_banded_lu_on_an_spd_band(tiny):
    # With each tendon's target at its current length the curvature term
    # vanishes, and the elastic Hessian of a mildly deformed clamped finger
    # is positive definite, so Cholesky must succeed. Its solution matches
    # an LU solve (np.linalg.solve) of the dense band mirrored here.
    cache = tiny.solver_cache()
    rng = np.random.default_rng(13)
    x = _random_state(cache, rng)
    kin = cache.kinematics(x)
    targets = kin.tendon_lengths
    lower = cache.newton_matrix(kin, targets, 1.0)
    rhs = rng.normal(size=(cache.n_free, 5))
    chol = simulator.solveh_banded(lower, rhs, lower=True)
    lu = np.linalg.solve(_dense_from_lower_band(lower), rhs)
    assert np.abs(chol - lu).max() <= 1e-10 * np.abs(lu).max()


def test_failed_cholesky_escalates_the_damping(finger, monkeypatch):
    # A factorization that is not positive definite moves on to the next τ
    # of the ladder: the same band with τ times the mean |diagonal| added.
    # cholesky_failures counts every failure, the forced one included.
    # The band reaches LAPACK unchecked (check_finite=False): the residual
    # test before assembly already refuses non-finite states.
    real = simulator.solveh_banded
    diagonals, failures, checked = [], [], []

    def first_fails(ab, b, lower, check_finite=True):
        diagonals.append(ab[0].copy())
        checked.append(check_finite)
        try:
            if len(diagonals) == 1:
                raise simulator.LinAlgError("not positive definite")
            return real(ab, b, lower=lower, check_finite=check_finite)
        except simulator.LinAlgError:
            failures.append(len(diagonals))
            raise

    monkeypatch.setattr(simulator, "solveh_banded", first_fails)
    fr = solve_equilibrium(finger, (0.45, 0.2))
    assert fr.stats.iterations > 0
    assert fr.stats.cholesky_failures == len(failures) >= 1
    assert not any(checked)
    scale = float(np.abs(diagonals[0]).mean())
    assert np.array_equal(diagonals[1], diagonals[0] + simulator._DAMPING[1] * scale)

    # No other solver stands behind Cholesky: when every τ fails, the
    # iteration has no step.
    calls = []

    def failing(ab, b, lower, check_finite=True):
        calls.append(ab[0].copy())
        raise simulator.LinAlgError("not positive definite")

    monkeypatch.setattr(simulator, "solveh_banded", failing)
    with pytest.raises(SolverFailure, match=r"^no descent step found at iteration 0 "):
        solve_equilibrium(finger, (0.9, 0.2))
    assert len(calls) == len(simulator._DAMPING)
    assert all((b > a).all() for a, b in zip(calls, calls[1:]))


# -- stencil assembly against the per-tet products it replaced ---------------


_LEVI_CIVITA = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _LEVI_CIVITA[_i, _j, _k], _LEVI_CIVITA[_i, _k, _j] = 1.0, -1.0


def _stencil_states(cache):
    rng = np.random.default_rng(17)
    return [_random_state(cache, rng) for _ in range(4)]


def test_sparse_f_operator_matches_the_einsum_kinematics(tiny):
    cache = tiny.solver_cache()
    g = cache.shape_grad
    for x in _stencil_states(cache):
        kin = cache.kinematics(x)
        f = np.einsum("tnc,tni->tic", g, x[cache.tets])
        # Four products and three additions, in any order, stay within
        # 4 eps of the sum of the terms' magnitudes.
        bound = 4 * np.finfo(float).eps * np.einsum(
            "tnc,tni->tic", np.abs(g), np.abs(x[cache.tets])
        )
        assert (np.abs(kin.f - f) <= bound).all()
        cof = np.stack(
            [np.cross(kin.f[:, :, 1], kin.f[:, :, 2]),
             np.cross(kin.f[:, :, 2], kin.f[:, :, 0]),
             np.cross(kin.f[:, :, 0], kin.f[:, :, 1])],
            axis=2,
        )
        assert np.array_equal(kin.cof, cof)
        jdet = np.einsum("ti,ti->t", kin.f[:, :, 0], cof[:, :, 0])
        assert np.array_equal(kin.jdet, jdet)


def test_curvature_gather_equals_the_einsum_bit_for_bit(tiny):
    # Reference per tendon from its EmbeddedPath alone: the segment stencil
    # joins the barycentric supports of consecutive points, d2L/dx2 is
    # ws ws proj per segment, and only free lower-triangle entries are kept.
    # The band receives, after the elastic entries, each tendon's kept
    # entries scaled by k (L - L*), in tendon order.
    cache = tiny.solver_cache()
    dof_map = np.full(3 * cache.n_nodes, -1)
    dof_map[cache.free_dofs] = np.arange(cache.n_free)
    targets = cache.tendon_targets((0.6, 0.3))
    for x in _stencil_states(cache):
        kin = cache.kinematics(x)
        stretch = cache.k_tendon * (kin.tendon_lengths - targets)
        index, values, first = [], [], 0
        for t, path in enumerate(tiny.tendon_paths):
            ns = np.concatenate([path.node_index[:-1], path.node_index[1:]], axis=1)
            ws = np.concatenate([-path.weights[:-1], path.weights[1:]], axis=1)
            mine = slice(first, first + len(ns))
            seg, lens = kin.seg[mine], kin.seg_len[mine]
            first += len(ns)
            assert np.allclose(seg, np.einsum("sm,smc->sc", ws, x[ns]), rtol=0, atol=1e-12)
            units = seg / lens[:, None]
            proj = (np.eye(3)[None] - units[:, :, None] * units[:, None, :]) / lens[
                :, None, None
            ]
            h = np.einsum("sm,sn,sij->sminj", ws, ws, proj)
            dofs = (3 * ns[:, :, None] + np.arange(3)).reshape(-1, 24)
            rows = dof_map[np.repeat(dofs[:, :, None], 24, axis=2)].ravel()
            cols = dof_map[np.repeat(dofs[:, None, :], 24, axis=1)].ravel()
            keep = (rows >= 0) & (cols >= 0) & (rows >= cols)
            index.append((rows[keep] - cols[keep]) * cache.n_free + cols[keep])
            values.append(stretch[t] * h.reshape(-1)[keep])
        assert first == len(kin.seg)
        index, values = np.concatenate(index), np.concatenate(values)
        assert np.array_equal(cache.ab_index[-len(index):], index)
        assert np.array_equal(cache.tendon_curvature(kin, targets), values)


def test_tendon_lengths_and_directions_are_per_tendon(tiny):
    # Each tendon's length and length gradient against its own
    # EmbeddedPath: a segment credited to the wrong tendon fails here even
    # when energy and gradient stay consistent with each other.
    cache = tiny.solver_cache()
    kin = cache.kinematics(cache.rest)
    assert np.allclose(kin.tendon_lengths, tiny.tendon_rest_lengths, rtol=1e-12, atol=0)
    targets = cache.tendon_targets((0.5, 0.2))
    h = 1e-6
    for x in _stencil_states(cache):
        kin = cache.kinematics(x)
        want = [p.length(x) for p in tiny.tendon_paths]
        assert np.allclose(kin.tendon_lengths, want, rtol=1e-12, atol=0)
        _, directions = cache.gradient(kin, targets, None, 1.0)
        assert directions.shape == (cache.n_free, 4)
        for t, path in enumerate(tiny.tendon_paths):
            fd = np.empty(cache.n_free)
            for d, dof in enumerate(cache.free_dofs):
                xp = x.copy()
                xp.reshape(-1)[dof] += h
                xm = x.copy()
                xm.reshape(-1)[dof] -= h
                fd[d] = (path.length(xp) - path.length(xm)) / (2 * h)
            assert np.abs(directions[:, t] - fd).max() < 1e-6


def test_elastic_stencil_matches_dense_block_products(tiny):
    # Reference: every tet's 12x12 block K^T hf K, with vec F = K x_local
    # (row 3c + i, column 3n + i) and hf the Hessian of the stable
    # Neo-Hookean energy in F, summed densely over the tets.
    cache = tiny.solver_cache()
    g, n_tets = cache.shape_grad, cache.tets.shape[0]
    kmat = np.zeros((n_tets, 9, 12))
    for c in range(3):
        for n in range(4):
            for i in range(3):
                kmat[:, 3 * c + i, 3 * n + i] = g[:, n, c]
    dofs = (3 * cache.tets[:, :, None] + np.arange(3)).reshape(-1, 12)
    free = cache.free_dofs
    e_scale = 1.3
    for x in _stencil_states(cache):
        kin = cache.kinematics(x)
        vecg = kin.cof.transpose(0, 2, 1).reshape(-1, 9)
        # d2J/dF_ic dF_jd = eps_ijk eps_cdl F_kl
        d2j = np.einsum("ijk,cdl,tkl->tcidj", _LEVI_CIVITA, _LEVI_CIVITA, kin.f)
        s = cache.lam * (kin.jdet - cache.alpha)
        hf = (
            cache.mu * np.eye(9)
            + cache.lam * vecg[:, :, None] * vecg[:, None, :]
            + s[:, None, None] * d2j.reshape(-1, 9, 9)
        )
        blocks = kmat.transpose(0, 2, 1) @ hf @ kmat
        blocks *= (cache.vol * e_scale)[:, None, None]
        dense = np.zeros((3 * cache.n_nodes,) * 2)
        np.add.at(dense, (dofs[:, :, None], dofs[:, None, :]), blocks)
        want = dense[np.ix_(free, free)]
        # With each tendon's target at its current length the curvature
        # term is exactly zero, so the band holds the elastic part alone.
        targets = kin.tendon_lengths
        got = _dense_from_lower_band(cache.newton_matrix(kin, targets, e_scale))
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_elastic_energy_zero_at_rest(tiny):
    cache = tiny.solver_cache()
    kin = cache.kinematics(cache.rest)
    assert cache.elastic_energy(kin, 1.0) == pytest.approx(0.0, abs=1e-9)
    assert cache.elastic_energy(kin, 1.3) == pytest.approx(0.0, abs=1e-9)


# -- equilibria ---------------------------------------------------------------


def test_rest_command_is_exact_equilibrium(finger):
    fr = solve_equilibrium(finger, (0.0, 0.0))
    assert fr.stats.iterations == 0
    assert np.array_equal(fr.nodes, finger.rest.nodes)
    assert fr.sensor_lengths == pytest.approx(finger.sensor_rest_lengths, abs=1e-12)


def test_base_stays_clamped(finger):
    fr = solve_equilibrium(finger, (0.8, 0.3))
    base = finger.base_fixed
    assert np.array_equal(fr.nodes[base], finger.rest.nodes[base])


def test_bend_direction_and_monotonicity(finger):
    tips = []
    for u in (0.25, 0.5, 1.0):
        fr = solve_equilibrium(finger, (u, 0.0))
        tips.append(fr.nodes[finger.tip_node])
    xs = [t[0] for t in tips]
    zs = [t[2] for t in tips]
    assert xs[0] > 5.0  # channel 0 bends toward +x
    assert xs[0] < xs[1] < xs[2]  # deflection grows with command
    assert zs[0] > zs[1] > zs[2]  # tip drops as the finger curls


def test_sensor_response_signs(finger):
    fr = solve_equilibrium(finger, (0.5, 0.0))
    rest = finger.sensor_rest_lengths
    # Bend toward +x: sensors on the +x side (45 and 315 deg) shorten, the
    # -x side (135, 225 deg) lengthens.
    assert fr.sensor_lengths[0] < rest[0] and fr.sensor_lengths[3] < rest[3]
    assert fr.sensor_lengths[1] > rest[1] and fr.sensor_lengths[2] > rest[2]


def test_achieved_tendon_lengths_near_targets(finger):
    fr = solve_equilibrium(finger, (0.5, 0.0))
    cache = finger.solver_cache()
    targets = cache.tendon_targets((0.5, 0.0))
    achieved = cache.kinematics(fr.nodes).tendon_lengths
    # Stiff penalty pulls within a fraction of a millimetre of the target.
    assert np.abs(achieved - targets).max() < 1.0


def test_ninety_degree_equivariance(finger):
    # The mesh, tendons, and sensors map onto themselves under a 90-degree
    # rotation, so driving channel 1 must reproduce channel 0 rotated.
    layers = 13
    perm = np.zeros(finger.rest.n_nodes, dtype=int)
    for i in range(layers):
        base = i * (RING + 1)
        perm[base] = base
        for s in range(RING):
            perm[base + 1 + s] = base + 1 + (s + 3) % RING
    r90 = rotation_about_z(np.pi / 2)
    assert np.abs(finger.rest.nodes[perm] - finger.rest.nodes @ r90.T).max() < 1e-12
    a = solve_equilibrium(finger, (0.55, 0.0)).nodes
    b = solve_equilibrium(finger, (0.0, 0.55)).nodes
    assert np.abs(b[perm] - a @ r90.T).max() < 1e-9


def test_energy_decreases_along_accepted_steps(finger):
    # Single ramp stage (no channel above _STAGE_STEP): one objective, so
    # the whole sequence is monotone.
    fr = solve_equilibrium(finger, (0.25, 0.2))
    assert fr.stats.stages == 1
    en = np.array(fr.stats.energies)
    assert np.all(np.diff(en) <= 1e-9)
    # Multi-stage solves switch tendon targets between stages, so the energy
    # may jump up at most once per stage boundary, never within a stage.
    fr = solve_equilibrium(finger, (0.9, 0.2))
    up = int(np.sum(np.diff(np.array(fr.stats.energies)) > 1e-9))
    assert up <= fr.stats.stages - 1


def test_returned_state_matches_last_evaluation(finger):
    # The residual and the last energy belong to the returned nodes: an
    # accepted step must carry its own kinematics into the next iteration,
    # and a capped ramp stage's stats must not leak into the result's.
    cache = finger.solver_cache()
    for u, stages in [((0.25, 0.2), 1), ((0.45, 0.2), 2)]:
        fr = solve_equilibrium(finger, u)
        assert fr.stats.stages == stages and fr.stats.iterations > 0
        targets = cache.tendon_targets(u)
        kin = cache.kinematics(fr.nodes)
        g, _ = cache.gradient(kin, targets, None, 1.0)
        assert float(np.linalg.norm(g)) == fr.stats.residual
        assert cache.energy(kin, targets, None, 1.0) == fr.stats.energies[-1]


def test_solve_is_deterministic(finger):
    a = solve_equilibrium(finger, (0.43, 0.81))
    b = solve_equilibrium(finger, (0.43, 0.81))
    assert np.array_equal(a.nodes, b.nodes)
    assert np.array_equal(a.sensor_lengths, b.sensor_lengths)


def test_warm_start_converges_fast(finger):
    base = solve_equilibrium(finger, (0.5, 0.5))
    fr = solve_equilibrium(finger, (0.52, 0.5), x0=base.nodes)
    assert fr.stats.iterations <= 10
    assert fr.stats.stages == 1


# -- cold-start ramp: capped intermediate stages ---------------------------


def _chain(finger, u, forces=(), e_scale=1.0):
    """The fully converged two-step path to u from public calls: a cold
    solve at u / 2, then the predictor warm solve from it to u."""
    u = np.asarray(u, dtype=np.float64)
    half = solve_equilibrium(finger, u / 2, forces, e_scale)
    return half, solve_equilibrium(finger, u, forces, e_scale, x0=half.nodes, u0=u / 2)


def _record_stages(monkeypatch):
    """(budget, iterations) of every _newton_solve call from now on, with
    iterations None for a call that raised SolverFailure."""
    real, calls = simulator._newton_solve, []

    def spy(*args):
        try:
            x, stats = real(*args)
        except SolverFailure:
            calls.append((args[-1], None))
            raise
        calls.append((args[-1], stats.iterations))
        return x, stats

    monkeypatch.setattr(simulator, "_newton_solve", spy)
    return calls


@pytest.mark.parametrize(
    "u, with_force, e_scale, stages",
    [((0.2, 0.1), False, 1.0, 1), ((0.45, 0.3), True, 0.8, 2), ((0.9, 0.35), True, 1.2, 4)],
)
def test_capped_ramp_reaches_the_converged_chain(four_hand, monkeypatch, u, with_force,
                                                 e_scale, stages):
    # Every stage but the last stops after at most _STAGE_ITERS iterations;
    # the last is uncapped. The result is the equilibrium the converged
    # chain reaches: two states whose residuals are within tol differ by at
    # most about 2 tol / λ_min of the Newton matrix there.
    f = four_hand.fingers[0]
    cache = f.solver_cache()
    forces = (ExternalForceEvent((8.0, 0.0, 18.0), 10.0, (-10.0, 0.0, 0.0)),) if with_force else ()
    calls = _record_stages(monkeypatch)
    fr = solve_equilibrium(f, u, forces, e_scale)
    monkeypatch.undo()
    assert fr.stats.stages == stages == len(calls)
    assert [b for b, _ in calls] == [simulator._STAGE_ITERS] * (stages - 1) + [None]
    assert all(it <= simulator._STAGE_ITERS for _, it in calls[:-1])
    assert fr.stats.iterations == sum(it for _, it in calls)

    _, chained = _chain(f, u, forces, e_scale)
    field = cache.force_field(forces) if forces else None
    _, h = _newton_system(cache, chained.nodes, cache.tendon_targets(u), field, e_scale)
    lam_min = float(np.linalg.eigvalsh(h)[0])
    assert lam_min > 0.0
    tol = cache.base_tol * e_scale
    assert np.linalg.norm(fr.nodes - chained.nodes) <= 2.0 * tol / lam_min
    for state in (fr, chained):
        again = solve_equilibrium(f, u, forces, e_scale, x0=state.nodes)
        assert again.stats.iterations == 0


def test_failed_capped_ramp_falls_back_to_converged_stages(paper_hand, monkeypatch):
    # Frame 70 of dataset seed 2000, finger 1: command (0.511, 0.728), E
    # scale 0.821 and a force. After two capped stages the last one reaches
    # a state with a collapsed tendon segment. The ramp then runs again from
    # rest with every stage converged, and that is the solve returned.
    calls = _record_stages(monkeypatch)
    fr = _dataset_finger_solve(paper_hand, 2000, 70, 1)
    monkeypatch.undo()
    cap = simulator._STAGE_ITERS
    assert [b for b, _ in calls] == [cap, cap, None, None, None, None]
    assert calls[2][1] is None and all(it is not None for _, it in calls[3:])
    assert fr.stats.stages == 3
    assert fr.stats.iterations == sum(it for _, it in calls[3:])
    assert paper_hand.fingers[0].solver_cache().kinematics(fr.nodes).jdet.min() > 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_collapsed_tendon_segment_fails_before_the_gradient(paper_hand, monkeypatch):
    # The same frame: the last capped stage's line search accepts a state
    # in which a segment of tendon 1 has length 0. That stage fails at the
    # next iteration, naming the tendon, before the gradient divides by the
    # length; the converged rerun is returned as before.
    real, failures = simulator._newton_solve, []

    def spy(*args):
        try:
            return real(*args)
        except SolverFailure as err:
            failures.append(err)
            raise

    monkeypatch.setattr(simulator, "_newton_solve", spy)
    fr = _dataset_finger_solve(paper_hand, 2000, 70, 1)
    assert len(failures) == 1
    match = re.fullmatch(r"tendon 1 has a collapsed segment \(length 0\) at iteration (\d+)",
                         str(failures[0]))
    assert match and int(match[1]) == failures[0].step
    assert fr.stats.stages == 3


def test_capped_ramp_takes_fewer_iterations_than_the_chain(paper_hand):
    # On the paper finger a fully converged intermediate stage costs many
    # iterations that only feed the next predictor. (On the 4-segment hand
    # each stage converges in about 4 anyway, and the capped ramp is no
    # cheaper.)
    f = paper_hand.fingers[0]
    ramp = chain = 0
    for u in [(0.9, 0.35), (1.0, 1.0), (0.3, 0.95), (0.8, 0.6)]:
        ramp += solve_equilibrium(f, u).stats.iterations
        half, full = _chain(f, u)
        chain += half.stats.iterations + full.stats.iterations
    assert ramp < chain


# -- continuation predictor -------------------------------------------------


def test_u0_equal_to_the_command_is_the_plain_warm_start(four_hand):
    f = four_hand.fingers[0]
    x = solve_equilibrium(f, (0.3, 0.2)).nodes
    plain = solve_equilibrium(f, (0.34, 0.17), x0=x)
    same = solve_equilibrium(f, (0.34, 0.17), x0=x, u0=(0.34, 0.17))
    assert plain.stats.iterations > 0
    assert np.array_equal(plain.nodes, same.nodes)
    assert plain.stats == same.stats


def test_predictor_saves_iterations_on_a_warm_walk(four_hand):
    f = four_hand.fingers[0]
    rng = np.random.default_rng(5)
    u = np.array([0.3, 0.2])
    plain = pred = solve_equilibrium(f, u)
    iters_plain = iters_pred = 0
    for _ in range(12):
        un = np.clip(u + rng.uniform(-0.05, 0.05, 2), 0.0, 1.0)
        plain = solve_equilibrium(f, un, x0=plain.nodes)
        pred = solve_equilibrium(f, un, x0=pred.nodes, u0=u)
        iters_plain += plain.stats.iterations
        iters_pred += pred.stats.iterations
        # Each end state is an equilibrium of the other's solve, and the
        # two agree to far below the mesh scale.
        assert solve_equilibrium(f, un, x0=pred.nodes).stats.iterations == 0
        assert solve_equilibrium(f, un, x0=plain.nodes).stats.iterations == 0
        assert np.abs(plain.nodes - pred.nodes).max() < 1e-3
        u = un
    assert iters_pred < iters_plain


def test_u0_needs_x0(four_hand):
    with pytest.raises(ValueError, match="u0"):
        solve_equilibrium(four_hand.fingers[0], (0.2, 0.1), u0=(0.0, 0.0))


def _assert_warm_chain(hand, frames):
    # Frame t of every finger is bit for bit the warm solve from frame t - 1
    # that names its command: solve_equilibrium(..., x0=prev.nodes[j],
    # u0=prev.command[2j:2j+2]). Dropping x0 or u0 changes the bits.
    for t, frame in enumerate(frames):
        prev = frames[t - 1] if t else None
        for j in range(3):
            want = solve_equilibrium(
                hand.fingers[j], frame.command[2 * j : 2 * j + 2], frame.forces[j],
                x0=None if prev is None else prev.nodes[j],
                u0=None if prev is None else prev.command[2 * j : 2 * j + 2],
            )
            assert np.array_equal(frame.nodes[j], want.nodes)
            assert np.array_equal(frame.sensor_lengths[4 * j : 4 * j + 4],
                                  want.sensor_lengths)


def test_rollout_passes_the_previous_command(four_hand, two_cpus):
    commands = [np.full(6, 0.1), np.full(6, 0.14), np.full(6, 0.12)]
    frames = simulator.rollout_commands(four_hand, commands)
    assert [f.command.tolist() for f in frames] == [c.tolist() for c in commands]
    _assert_warm_chain(four_hand, frames)
    # The chain is sensitive to u0: the plain warm start lands elsewhere.
    plain = solve_equilibrium(four_hand.fingers[0], commands[1][:2], x0=frames[0].nodes[0])
    assert not np.array_equal(plain.nodes, frames[1].nodes[0])


def test_demonstration_passes_the_previous_command(four_hand, two_cpus):
    ev = ExternalForceEvent((8.0, 0.0, 18.0), 10.0, (-10.0, 0.0, 0.0), window=(0, 3))
    demo = collect_demonstration(four_hand, [(0, ev)], steps=3, ramp_steps=2)
    assert len(demo) == 3 and len(demo.frames[1].forces[0]) == 1
    _assert_warm_chain(four_hand, demo.frames)


def _dataset_finger_solve(hand, seed, i, j):
    command, forces, e_scales = simulator._dataset_frame_inputs(
        hand, DatasetConfig(), seed, i
    )
    return solve_equilibrium(
        hand.fingers[j], command[2 * j : 2 * j + 2], forces[j], float(e_scales[j])
    )


def test_dataset_frame_that_stalled_converges(paper_hand):
    # Frame 0 of dataset seed 1001, finger 0: command (0.485, 0.981), E scale
    # 0.756 and an 18 mN force. Under the two-stage ramp, taking stage 2's
    # first matrix at its own targets left the state with an inverted tet
    # and a kinked tendon, and Newton stalled at a residual of 9.66e3 mN.
    # The frame must still be ramped, now in ceil(0.981 / 0.25) = 4 stages.
    fr = _dataset_finger_solve(paper_hand, 1001, 0, 0)
    assert fr.stats.stages == math.ceil(0.981 / simulator._STAGE_STEP) == 4
    kin = paper_hand.fingers[0].solver_cache().kinematics(fr.nodes)
    assert kin.jdet.min() > 0.0


def test_converged_inverted_state_is_loud(paper_hand):
    # Frame 7 of dataset seed 2003 holds fingers whose Newton iterations
    # pass through states with inverted tets (finger 0 converged inverted
    # under banded-LU steps; see the next test). A balanced state with an
    # inverted tet must be raised as a SolverFailure; none may come back.
    cache = paper_hand.fingers[0].solver_cache()
    for j in range(3):
        try:
            fr = _dataset_finger_solve(paper_hand, 2003, 7, j)
        except SolverFailure as err:
            assert "inverts tet" in str(err)
            continue
        assert cache.kinematics(fr.nodes).jdet.min() > 0.0


@pytest.mark.parametrize(
    "seed, frame, j", [(2001, 0, 0), (2001, 0, 1), (2002, 8, 1), (2003, 7, 0)]
)
def test_solves_that_converged_inverted_under_lu_steps_converge(
    paper_hand, seed, frame, j
):
    # Cold dataset finger solves that, when banded LU stepped wherever
    # Cholesky failed, converged to a balanced state with an inverted tet.
    # Raising τ until Cholesky succeeds keeps every step a descent step of a
    # positive definite model, and they converge with J > 0.
    fr = _dataset_finger_solve(paper_hand, seed, frame, j)
    assert paper_hand.fingers[0].solver_cache().kinematics(fr.nodes).jdet.min() > 0.0


def _reflect_free_node(cache, x, tet):
    """x with one free node of `tet` mirrored through the tet's opposite face."""
    nodes = cache.tets[tet]
    k = int(np.flatnonzero(np.isin(nodes, cache.free_nodes))[0])
    face = x[np.delete(nodes, k)]
    normal = np.cross(face[1] - face[0], face[2] - face[0])
    normal /= np.linalg.norm(normal)
    out = x.copy()
    out[nodes[k]] -= 2.0 * ((out[nodes[k]] - face[0]) @ normal) * normal
    return out


def test_converged_inverted_state_raises(four_hand, monkeypatch):
    # A state with one tet turned inside out (J = -1), accepted as converged
    # by an infinite tolerance: the J <= 0 check must refuse it.
    f = four_hand.fingers[0]
    cache = f.solver_cache()
    tet = cache.tets.shape[0] - 1
    x0 = _reflect_free_node(cache, cache.rest, tet)
    assert cache.kinematics(x0).jdet[tet] == pytest.approx(-1.0)
    monkeypatch.setattr(cache, "base_tol", math.inf)
    with pytest.raises(
        SolverFailure, match=r"^converged state inverts tet \d+ \(min J -.*after 0 iterations"
    ):
        solve_equilibrium(f, (0.0, 0.0), x0=x0)


def test_non_finite_warm_start_raises_solver_failure(four_hand):
    # One NaN free node makes the residual NaN. The band reaches LAPACK
    # unchecked, so this must surface as a typed SolverFailure before any
    # matrix is assembled, not as scipy's ValueError.
    f = four_hand.fingers[0]
    cache = f.solver_cache()
    x0 = cache.rest.copy()
    x0[cache.free_nodes[0]] = np.nan
    with pytest.raises(SolverFailure, match="^non-finite residual at iteration 0") as exc:
        solve_equilibrium(f, (0.2, 0.1), x0=x0)
    assert exc.value.step == 0


def test_warm_servo_step_factors_by_cholesky_only(paper_hand):
    # A control step moves each channel by at most 0.05 and names the
    # command its warm start balances; C stays positive definite.
    f = paper_hand.fingers[0]
    base = solve_equilibrium(f, (0.4, 0.3))
    fr = solve_equilibrium(f, (0.43, 0.26), x0=base.nodes, u0=(0.4, 0.3))
    assert fr.stats.iterations > 0
    assert fr.stats.cholesky_failures == 0


def test_cold_dataset_solve_counts_cholesky_failures(paper_hand):
    # Frame 2 of dataset seed 1001 (a datagen pool frame), finger 1: its
    # cold solve passes through states where a tendon goes slack and C is
    # indefinite, so some factorizations fail and τ rises. The solve
    # returns, so it reached its tolerance.
    fr = _dataset_finger_solve(paper_hand, 1001, 2, 1)
    assert fr.stats.cholesky_failures > 0
    assert paper_hand.fingers[0].solver_cache().kinematics(fr.nodes).jdet.min() > 0.0


def test_push_force_deflects_and_registers(finger):
    ev = ExternalForceEvent((8.0, 0.0, 60.0), 22.0, (-40.0, 0.0, 0.0))
    fr = solve_equilibrium(finger, (0.0, 0.0), forces=(ev,))
    tip = fr.nodes[finger.tip_node]
    assert tip[0] < -0.5  # pushed toward -x
    rest = finger.sensor_rest_lengths
    # +x side is now the outside of the bend: sensors 0 and 3 lengthen.
    assert fr.sensor_lengths[0] > rest[0] and fr.sensor_lengths[3] > rest[3]
    assert fr.sensor_lengths[1] < rest[1] and fr.sensor_lengths[2] < rest[2]


def test_stiffer_material_deflects_less(finger):
    ev = ExternalForceEvent((8.0, 0.0, 60.0), 22.0, (-30.0, 0.0, 0.0))
    soft = solve_equilibrium(finger, (0.0, 0.0), forces=(ev,), e_scale=0.8)
    stiff = solve_equilibrium(finger, (0.0, 0.0), forces=(ev,), e_scale=1.4)
    assert abs(stiff.nodes[finger.tip_node][0]) < abs(soft.nodes[finger.tip_node][0])


def test_sensor_lengths_rigid_motion_invariant(finger):
    fr = solve_equilibrium(finger, (0.6, 0.1))
    pose = RigidPose(rotation_about_z(0.7), np.array([5.0, -2.0, 3.0]))
    moved = pose.apply(fr.nodes)
    for path, ln in zip(finger.sensor_paths, fr.sensor_lengths):
        assert path.length(moved) == pytest.approx(ln, abs=1e-9)


def test_solver_failure_carries_diagnostics(finger, monkeypatch):
    # The iteration cap is read at each solve, so patching it takes effect.
    monkeypatch.setattr(simulator, "_MAX_NEWTON_ITERS", 2)
    with pytest.raises(SolverFailure) as exc:
        solve_equilibrium(finger, (1.0, 0.0))
    assert exc.value.residual is not None and exc.value.residual > 0
    assert exc.value.step == 2
    assert "in 2 iterations" in str(exc.value)


def test_force_field_sums_to_applied_force(finger):
    cache = finger.solver_cache()
    ev1 = ExternalForceEvent((8.0, 0.0, 40.0), 20.0, (-10.0, 4.0, 2.0))
    ev2 = ExternalForceEvent((0.0, -8.0, 70.0), 20.0, (0.0, 12.0, -3.0))
    field = cache.force_field([ev1, ev2])
    assert field.sum(axis=0) == pytest.approx(
        ev1.force_mn + ev2.force_mn, abs=1e-9
    )
    with pytest.raises(ValueError):
        cache.force_field(
            [ExternalForceEvent((500.0, 0.0, 40.0), 20.0, (1.0, 0.0, 0.0))]
        )


def test_force_event_validation():
    with pytest.raises(ValueError):
        ExternalForceEvent((0, 0, 0), -1.0, (1, 0, 0))
    with pytest.raises(ValueError):
        ExternalForceEvent((0, 0, 0), 5.0, (1, 0, 0), window=(3, 3))
    ev = ExternalForceEvent((0, 0, 0), 5.0, (2, 0, 0))
    assert ev.scaled(0.5).force_mn == pytest.approx([1.0, 0.0, 0.0])


# -- hand + dataset ------------------------------------------------------------


def test_solve_hand_collects_all_fingers(small_hand):
    frame, finger_frames = solve_hand(small_hand, np.array([0.4, 0, 0, 0, 0, 0.3]))
    assert frame.sensor_lengths.shape == (12,)
    assert frame.nodes.shape[0] == 3
    assert len(finger_frames) == 3
    # Unactuated finger 1 stays at rest.
    assert np.array_equal(frame.nodes[1], small_hand.fingers[1].rest.nodes)


def test_hand_rejects_distinct_finger_models():
    f1 = build_canonical_finger(segments=4, length_mm=24.0)
    f2 = build_canonical_finger(segments=4, length_mm=24.0)
    mounts = HandModel.build_standard(segments=4, length_mm=24.0).mounts
    with pytest.raises(ValueError, match="one FingerModel"):
        HandModel((f1, f2, f2), mounts)
    assert HandModel((f2,) * 3, mounts).fingers[2] is f2


def test_surfaces_are_c_ordered_per_finger_gathers(small_hand):
    # C order keeps reductions over the surfaces summing in the same order
    # as over a stack of per-finger gathers.
    frame, _ = solve_hand(small_hand, np.array([0.4, 0, 0, 0, 0, 0.3]))
    surfaces = frame.surfaces(small_hand)
    smap = small_hand.fingers[0].rest.surface_map
    assert surfaces.flags.c_contiguous
    assert np.array_equal(surfaces, np.stack([frame.nodes[j][smap] for j in range(3)]))


def test_dataset_reproducible_and_prefix_stable(small_hand):
    cfg = DatasetConfig(frames=4, force_prob=0.7, force_mag_mn=(5.0, 25.0))
    a = generate_dataset(small_hand, cfg, seed=11)
    b = generate_dataset(small_hand, cfg, seed=11)
    assert len(a) == len(b)
    for fa, fb in zip(a, b):
        assert np.array_equal(fa.nodes, fb.nodes)
        assert np.array_equal(fa.sensor_lengths, fb.sensor_lengths)
        assert np.array_equal(fa.command, fb.command)
    # Frames draw from per-index streams: a shorter run is a prefix.
    c = generate_dataset(small_hand, DatasetConfig(frames=2, force_prob=0.7,
                                                   force_mag_mn=(5.0, 25.0)), seed=11)
    for fa, fc in zip(a[:2], c):
        assert np.array_equal(fa.nodes, fc.nodes)
    d = generate_dataset(small_hand, cfg, seed=12)
    assert not np.array_equal(a[0].command, d[0].command)


def test_dataset_respects_config():
    # e_range = 0 draws every E scale from uniform(1, 1), which is exactly 1.
    hand = HandModel.build_standard(
        segments=6, length_mm=40.0, material=MaterialParams(e_range=0.0)
    )
    cfg = DatasetConfig(frames=3, force_prob=0.0, max_command=0.5)
    frames = generate_dataset(hand, cfg, seed=5)
    for fr in frames:
        assert fr.command.max() <= 0.5
        assert fr.e_scales == pytest.approx([1.0, 1.0, 1.0])
        assert all(len(f) == 0 for f in fr.forces)


def test_dataset_resolve_matches_recorded_frame(small_hand):
    cfg = DatasetConfig(frames=2, force_prob=1.0, force_mag_mn=(5.0, 20.0))
    frames = generate_dataset(small_hand, cfg, seed=3)
    fr = frames[1]
    redo, _ = solve_hand(small_hand, fr.command, fr.forces, fr.e_scales)
    assert np.array_equal(redo.nodes, fr.nodes)
    assert np.array_equal(redo.sensor_lengths, fr.sensor_lengths)


def test_dataset_config_validation():
    with pytest.raises(ValueError):
        DatasetConfig(frames=0)
    with pytest.raises(ValueError):
        DatasetConfig(force_radius_frac=(0.1, 0.4))
    with pytest.raises(ValueError):
        DatasetConfig(max_command=0.0)


# -- independent solves in a worker pool ---------------------------------------

POOL_CFG = DatasetConfig(frames=4, force_prob=0.7, force_mag_mn=(5.0, 25.0))


def _patch_solve(monkeypatch, fn):
    """Patch simulator.solve_equilibrium, then drop the pool so that the next
    map forks workers that see the patch."""
    monkeypatch.setattr(simulator, "solve_equilibrium", fn)
    simulator._drop_pool()


def _assert_same_frame(a, b):
    for name in ("command", "nodes", "sensor_lengths", "e_scales"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.stats == b.stats
    assert len(a.forces) == len(b.forces) == 3
    for fa, fb in zip(a.forces, b.forces):
        assert len(fa) == len(fb)
        for ea, eb in zip(fa, fb):
            assert np.array_equal(ea.center, eb.center)
            assert np.array_equal(ea.force_mn, eb.force_mn)
            assert (ea.radius_mm, ea.window) == (eb.radius_mm, eb.window)


def _oracle_dataset_frame(hand, seed, i):
    """Frame i of a POOL_CFG dataset, its fingers solved one by one here."""
    command, forces, e_scales = simulator._dataset_frame_inputs(hand, POOL_CFG, seed, i)
    fingers = [
        solve_equilibrium(hand.fingers[j], command[2 * j : 2 * j + 2], forces[j],
                          float(e_scales[j]))
        for j in range(3)
    ]
    return simulator.SimFrame(
        command, np.stack([f.nodes for f in fingers]),
        np.concatenate([f.sensor_lengths for f in fingers]), forces, e_scales,
        stats=tuple(f.stats for f in fingers),
    )


def test_pooled_dataset_equals_per_frame_solves(four_hand, two_cpus):
    # Frames carry their fingers' solve records, equal to in-process solves'.
    frames = generate_dataset(four_hand, POOL_CFG, seed=31)
    assert len(frames) == POOL_CFG.frames
    for i, frame in enumerate(frames):
        _assert_same_frame(frame, _oracle_dataset_frame(four_hand, 31, i))
        assert all(isinstance(st, simulator.SolveStats) for st in frame.stats)


def test_pooled_dataset_skips_failed_frames_in_order(four_hand, two_cpus, monkeypatch,
                                                     caplog):
    inputs = [simulator._dataset_frame_inputs(four_hand, POOL_CFG, 32, i) for i in range(4)]
    oracle = [_oracle_dataset_frame(four_hand, 32, i) for i in (0, 2)]
    planted = {(1, 2), (3, 0), (3, 1)}
    real = simulator.solve_equilibrium

    def failing(finger, u2, *args, **kwargs):
        for i, (command, _, _) in enumerate(inputs):
            for j in range(3):
                if (i, j) in planted and np.array_equal(u2, command[2 * j : 2 * j + 2]):
                    raise SolverFailure(f"planted at finger {j}", residual=0.5 + j,
                                        step=10 * i + j)
        return real(finger, u2, *args, **kwargs)

    _patch_solve(monkeypatch, failing)
    with caplog.at_level("WARNING", logger="softprop.simulator"):
        frames = generate_dataset(four_hand, POOL_CFG, seed=32)
    # One record per failed finger, in frame then finger order.
    assert [r.getMessage() for r in caplog.records] == [
        "frame 1 skipped: finger 2: planted at finger 2",
        "frame 3 skipped: finger 0: planted at finger 0",
        "frame 3 skipped: finger 1: planted at finger 1",
    ]
    assert [(r.frame, r.finger, r.residual, r.step) for r in caplog.records] == [
        (1, 2, 2.5, 12), (3, 0, 0.5, 30), (3, 1, 1.5, 31),
    ]
    assert len(frames) == 2
    for frame, want in zip(frames, oracle):
        _assert_same_frame(frame, want)


def _pid(hand, task):
    return os.getpid(), id(hand)


def _pool_pids():
    return sorted(p.pid for p in multiprocessing.active_children())


def _assert_served_by(results, hand, workers):
    # Workers inherit the hand through fork: same object, same address.
    assert {pid for pid, _ in results} <= set(workers)
    assert all(hand_id == id(hand) for _, hand_id in results)


def test_pool_is_kept_while_calls_pass_the_same_hand(four_hand, small_hand, two_cpus):
    results = simulator._map_solves(four_hand, _pid, range(4))
    workers = _pool_pids()
    assert len(workers) == 2 and os.getpid() not in workers
    _assert_served_by(results, four_hand, workers)
    results = simulator._map_solves(four_hand, _pid, range(4))
    assert _pool_pids() == workers
    _assert_served_by(results, four_hand, workers)
    # Another hand shuts the pool down and forks new workers.
    results = simulator._map_solves(small_hand, _pid, range(4))
    fresh = _pool_pids()
    assert len(fresh) == 2 and not set(fresh) & set(workers)
    _assert_served_by(results, small_hand, fresh)


def _slow_pid(hand, task):
    time.sleep(0.2)
    return os.getpid(), id(hand)


def test_broken_pool_is_dropped_and_forked_again(four_hand, two_cpus):
    simulator._map_solves(four_hand, _pid, range(4))
    workers = _pool_pids()
    os.kill(workers[0], signal.SIGKILL)
    # The surviving worker cannot finish 0.8 s of tasks before the pool
    # notices its sibling died.
    with pytest.raises(BrokenProcessPool):
        simulator._map_solves(four_hand, _slow_pid, range(4))
    results = simulator._map_solves(four_hand, _pid, range(4))
    fresh = _pool_pids()
    assert len(fresh) == 2 and not set(fresh) & set(workers)
    _assert_served_by(results, four_hand, fresh)


def test_worker_error_reaches_caller_with_its_type(four_hand, two_cpus, monkeypatch):
    def broken(*args, **kwargs):
        raise ZeroDivisionError("not a solver failure")

    _patch_solve(monkeypatch, broken)
    with pytest.raises(ZeroDivisionError, match="not a solver failure"):
        generate_dataset(four_hand, POOL_CFG, seed=33)
    workers = _pool_pids()
    assert len(workers) == 2
    with pytest.raises(ZeroDivisionError):
        simulator.rollout_commands(four_hand, [np.full(6, 0.1)] * 2)
    with pytest.raises(ZeroDivisionError):
        solve_hand(four_hand, np.full(6, 0.1))
    # The pool survives its tasks' errors and still answers.
    _assert_served_by(simulator._map_solves(four_hand, _pid, range(4)), four_hand, workers)
    assert _pool_pids() == workers


def test_open_loop_raises_the_first_failure_by_step_then_finger(four_hand, two_cpus,
                                                                 monkeypatch):
    # Channel values 0.1 t + 0.01 j name step t and finger j.
    commands = [np.repeat(0.1 * t + 0.01 * np.arange(3), 2) for t in range(4)]
    planted = {(2, 0), (1, 2), (1, 1), (3, 0)}
    real = simulator.solve_equilibrium

    def failing(finger, u2, *args, **kwargs):
        t, j = round(u2[0] * 10), round(u2[0] * 100) % 10
        if (t, j) in planted:
            raise SolverFailure(f"planted at step {t} finger {j}", residual=1.5)
        return real(finger, u2, *args, **kwargs)

    _patch_solve(monkeypatch, failing)
    with pytest.raises(SolverFailure) as exc:
        simulator.rollout_commands(four_hand, commands)
    assert str(exc.value) == "rollout solve failed at step 1: planted at step 1 finger 1"
    assert (exc.value.step, exc.value.residual) == (1, 1.5)


def test_pooled_solve_hand_equals_in_process_solves(four_hand, two_cpus):
    command = np.array([0.3, 0.1, 0.0, 0.5, 0.2, 0.2])
    ev = ExternalForceEvent((8.0, 0.0, 18.0), 10.0, (-6.0, 2.0, 0.0))
    forces, e_scales = ((), (ev,), ()), (1.1, 0.9, 1.0)
    cold = solve_hand(four_hand, command, forces, e_scales)
    step = command + np.array([0.04, -0.05, 0.05, 0.0, -0.03, 0.02])
    warm = solve_hand(four_hand, step, forces, e_scales, x0s=cold[0].nodes, u0=command)
    for (frame, fingers), u, prev in ((cold, command, None), (warm, step, cold[0])):
        for j in range(3):
            want = solve_equilibrium(
                four_hand.fingers[j], u[2 * j : 2 * j + 2], forces[j], e_scales[j],
                x0=None if prev is None else prev.nodes[j],
                u0=None if prev is None else prev.command[2 * j : 2 * j + 2],
            )
            assert np.array_equal(fingers[j].nodes, want.nodes)
            assert np.array_equal(fingers[j].sensor_lengths, want.sensor_lengths)
            assert fingers[j].stats == want.stats
            assert np.array_equal(frame.nodes[j], want.nodes)
            assert np.array_equal(frame.sensor_lengths[4 * j : 4 * j + 4],
                                  want.sensor_lengths)
            assert frame.stats[j] == want.stats
    assert all(st.iterations > 0 for st in warm[0].stats)


def test_pooled_solve_hand_raises_the_first_failed_finger(four_hand, two_cpus,
                                                          monkeypatch):
    # Channel 0 of finger j is 0.1 (j + 1); fingers 1 and 2 fail.
    real = simulator.solve_equilibrium

    def failing(finger, u2, *args, **kwargs):
        j = round(u2[0] * 10) - 1
        if j in (1, 2):
            raise SolverFailure(f"planted at finger {j}", residual=float(j), step=j)
        return real(finger, u2, *args, **kwargs)

    _patch_solve(monkeypatch, failing)
    with pytest.raises(SolverFailure) as exc:
        solve_hand(four_hand, np.repeat([0.1, 0.2, 0.3], 2))
    assert str(exc.value) == "planted at finger 1"
    assert (exc.value.residual, exc.value.step) == (1.0, 1)


def _blas_threads(hand, task):
    return os.getpid(), [f() for f in simulator._openblas_functions("get_num_threads")]


def test_pool_workers_run_one_blas_thread(four_hand, two_cpus):
    if not simulator._openblas_functions("get_num_threads"):
        pytest.skip("no OpenBLAS library is loaded")
    results = simulator._map_solves(four_hand, _blas_threads, range(4))
    assert all(pid != os.getpid() for pid, _ in results)
    assert all(counts and set(counts) == {1} for _, counts in results)


# The real call: two_cpus patches os.sched_getaffinity.
_allowed_cpus = os.sched_getaffinity
# Set before a test's pool forks, so its workers inherit it.
_both_workers = None


def _pinned_cpus(hand, task):
    # Two tasks that each wait for the other run on both workers.
    _both_workers.wait(timeout=60)
    return os.getpid(), _allowed_cpus(0)


def test_pool_workers_are_pinned_to_distinct_cpus(four_hand, two_cpus, monkeypatch):
    if not {0, 1} <= _allowed_cpus(0):
        pytest.skip("this process may not use both CPUs 0 and 1")
    allowed = _allowed_cpus(0)
    monkeypatch.setattr(sys.modules[__name__], "_both_workers", multiprocessing.Barrier(2))
    results = simulator._map_solves(four_hand, _pinned_cpus, range(2))
    assert sorted(pid for pid, _ in results) == _pool_pids()
    assert sorted(tuple(cpus) for _, cpus in results) == [(0,), (1,)]
    assert _allowed_cpus(0) == allowed  # this process stays unpinned


def _inner(hand, task):
    return os.getpid()


def _outer(hand, task):
    return os.getpid(), simulator._map_solves(hand, _inner, range(3))


def test_nested_map_solves_run_in_the_worker(four_hand, two_cpus):
    # A pool worker that maps solves itself runs them in-process: its
    # siblings already hold the other CPUs.
    results = simulator._map_solves(four_hand, _outer, range(2))
    assert all(pid != os.getpid() for pid, _ in results)
    assert all(inner_pids == [pid] * 3 for pid, inner_pids in results)


def test_one_cpu_solves_in_process(four_hand, monkeypatch):
    monkeypatch.setattr(simulator.os, "sched_getaffinity", lambda pid: {0})

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started on one CPU")

    monkeypatch.setattr(simulator, "ProcessPoolExecutor", no_pool)
    me = (os.getpid(), id(four_hand))
    assert simulator._map_solves(four_hand, _pid, range(3)) == [me] * 3
    frames = generate_dataset(four_hand, POOL_CFG, seed=31)
    _assert_same_frame(frames[0], _oracle_dataset_frame(four_hand, 31, 0))
    assert len(simulator.rollout_commands(four_hand, [np.full(6, 0.1)] * 2)) == 2


# A child process that solves a hand frame on two workers, prints their
# pids, and then either exits normally (printing, from an atexit handler,
# the workers still alive by then) or waits to be killed.
_CHILD = """
import atexit, multiprocessing, os, sys, time
import numpy as np
from softprop import simulator
simulator.os.sched_getaffinity = lambda pid: {0, 1}
hand = simulator.HandModel.build_standard(segments=4, length_mm=24.0)
simulator.solve_hand(hand, np.full(6, 0.1))
print(" ".join(str(p.pid) for p in multiprocessing.active_children()), flush=True)
if sys.argv[1] == "exit":
    atexit.register(lambda: print(len(multiprocessing.active_children()), flush=True))
else:
    time.sleep(120)
"""


def _alive(pid):
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
            state = stat.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state not in ("Z", "X")


@pytest.mark.parametrize("end", ["exit", "kill"])
def test_no_pool_worker_outlives_its_process(end):
    src = os.path.dirname(os.path.dirname(os.path.abspath(simulator.__file__)))
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    child = subprocess.Popen([sys.executable, "-c", _CHILD, end], stdout=subprocess.PIPE,
                             text=True, env=env)
    try:
        workers = [int(pid) for pid in child.stdout.readline().split()]
        assert len(workers) == 2
        if end == "kill":
            child.kill()
            assert child.wait(timeout=60) == -signal.SIGKILL
        else:
            # concurrent.futures' exit hook joined the workers before the
            # interpreter ran its atexit handlers.
            assert child.stdout.read().split() == ["0"]
            assert child.wait(timeout=60) == 0
    finally:
        if child.poll() is None:
            child.kill()
            child.wait(timeout=60)
        child.stdout.close()
    deadline = time.monotonic() + 10.0
    while any(map(_alive, workers)) and time.monotonic() < deadline:
        time.sleep(0.05)
    survivors = [pid for pid in workers if _alive(pid)]
    for pid in survivors:
        os.kill(pid, signal.SIGKILL)
    assert survivors == []


# -- demonstrations -------------------------------------------------------------


def test_smoothstep_shape():
    assert smoothstep(0.0) == 0.0
    assert smoothstep(1.0) == 1.0
    assert smoothstep(0.5) == pytest.approx(0.5)
    assert smoothstep(-2.0) == 0.0 and smoothstep(3.0) == 1.0


def test_demo_without_events_stays_at_rest(small_hand):
    demo = collect_demonstration(small_hand, script=(), steps=3)
    assert len(demo) == 3
    for fr in demo.frames:
        assert np.array_equal(fr.nodes[0], small_hand.fingers[0].rest.nodes)
        assert fr.pose is not None


def test_demo_ramped_push_drifts_monotonically(small_hand):
    ev = ExternalForceEvent((8.0, 0.0, 30.0), 16.0, (-25.0, 0.0, 0.0), window=(0, 10))
    demo = collect_demonstration(small_hand, [(0, ev)], steps=14, ramp_steps=10)
    tip = small_hand.fingers[0].tip_node
    xs = np.array([fr.nodes[0][tip][0] for fr in demo.frames])
    assert np.all(np.diff(xs[:10]) < 1e-9)  # deeper every ramp step
    assert xs[13] > xs[9]  # relaxes back once the event window closes
    assert abs(xs[13]) < 1e-6  # fully released: returns to rest
    # Other fingers never move.
    assert np.array_equal(demo.frames[5].nodes[2], small_hand.fingers[2].rest.nodes)


def test_demo_with_pose_script(small_hand):
    poses = [
        RigidPose(rotation_about_z(0.1 * t), np.array([0.0, 0.0, 2.0 * t]))
        for t in range(3)
    ]
    demo = collect_demonstration(small_hand, script=(), pose_script=poses)
    assert len(demo) == 3
    assert demo.frames[2].pose.translation[2] == pytest.approx(4.0)


def test_demo_is_deterministic(small_hand):
    ev = ExternalForceEvent((0.0, 8.0, 25.0), 16.0, (0.0, -20.0, 0.0), window=(0, 6))
    a = collect_demonstration(small_hand, [(1, ev)], steps=6)
    b = collect_demonstration(small_hand, [(1, ev)], steps=6)
    for fa, fb in zip(a.frames, b.frames):
        assert np.array_equal(fa.nodes, fb.nodes)
    assert isinstance(a, Demonstration)


def test_demo_argument_validation(small_hand):
    with pytest.raises(ValueError):
        collect_demonstration(small_hand, script=())
    ev = ExternalForceEvent((0, 0, 10), 16.0, (1, 0, 0))
    with pytest.raises(ValueError):
        collect_demonstration(small_hand, [(7, ev)], steps=2)
    with pytest.raises(ValueError):
        collect_demonstration(
            small_hand, script=(), pose_script=[RigidPose.identity()], steps=2
        )


def test_demo_rejects_ramp_without_length(small_hand):
    ev = ExternalForceEvent((8.0, 0.0, 30.0), 16.0, (-25.0, 0.0, 0.0), window=(0, 3))
    for ramp in (0, -2):
        with pytest.raises(ValueError, match="ramp_steps"):
            collect_demonstration(small_hand, [(0, ev)], steps=3, ramp_steps=ramp)
