import numpy as np
import pytest

from softprop.errors import NonFiniteError
from softprop.nn import (
    AdamState,
    MlpSpec,
    adam_step,
    backward,
    backward_conditioned,
    forward,
    forward_cache,
    forward_conditioned,
    init_params,
    load_checkpoint,
    mse_loss,
    save_checkpoint,
    set_max_pool,
    set_max_pool_grad,
    unpack_params,
)


class TestSpec:
    def test_dense_constructor(self):
        spec = MlpSpec.dense((4, 8, 3))
        assert spec.activations == ("relu", "linear")
        assert spec.n_params == 4 * 8 + 8 + 8 * 3 + 3

    def test_rejects_nonlinear_output(self):
        with pytest.raises(ValueError):
            MlpSpec((4, 3), ("relu",))

    def test_rejects_unknown_activation(self):
        with pytest.raises(ValueError):
            MlpSpec((4, 8, 3), ("sigmoid", "linear"))

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            MlpSpec((4, 8, 3), ("linear",))

    def test_digest_distinguishes_architectures(self):
        a = MlpSpec.dense((4, 8, 3))
        b = MlpSpec.dense((4, 9, 3))
        c = MlpSpec.dense((4, 8, 3), hidden="tanh")
        assert a.digest() != b.digest()
        assert a.digest() != c.digest()

    def test_unpack_shapes(self):
        spec = MlpSpec.dense((5, 7, 2))
        params = init_params(spec, np.random.default_rng(0))
        assert params.shape == (spec.n_params,)
        layers = unpack_params(spec, params)
        assert layers[0][0].shape == (5, 7) and layers[0][1].shape == (7,)
        assert layers[1][0].shape == (7, 2) and layers[1][1].shape == (2,)
        # Views alias the flat vector.
        layers[0][0][0, 0] = 123.0
        assert params[0] == 123.0


class TestForwardBackward:
    def test_single_linear_layer_analytic(self):
        # y = x W + b: dL/dW = x^T g, dL/db = sum g, dL/dx = g W^T.
        spec = MlpSpec((3, 2), ("linear",))
        rng = np.random.default_rng(1)
        params = init_params(spec, rng)
        x = rng.normal(size=(4, 3))
        g = rng.normal(size=(4, 2))
        y, cache = forward_cache(spec, params, x)
        (w, b) = unpack_params(spec, params)[0]
        np.testing.assert_allclose(y, x @ w + b, atol=1e-14)
        gp, gx = backward(spec, params, cache, g)
        gw, gb = unpack_params(spec, gp)[0]
        np.testing.assert_allclose(gw, x.T @ g, atol=1e-14)
        np.testing.assert_allclose(gb, g.sum(axis=0), atol=1e-14)
        np.testing.assert_allclose(gx, g @ w.T, atol=1e-14)

    def test_zero_upstream_gradient(self):
        spec = MlpSpec.dense((4, 6, 2))
        rng = np.random.default_rng(2)
        params = init_params(spec, rng)
        x = rng.normal(size=(3, 4))
        _, cache = forward_cache(spec, params, x)
        gp, gx = backward(spec, params, cache, np.zeros((3, 2)))
        assert np.all(gp == 0.0) and np.all(gx == 0.0)

    def test_relu_subgradient_zero_at_kink(self):
        # Unit 0's preactivation is exactly 0; no gradient may flow through it.
        spec = MlpSpec.dense((2, 2, 1))
        params = np.zeros(spec.n_params)
        layers = unpack_params(spec, params)
        layers[0][0][:, 0] = [1.0, 1.0]  # z0 = x0 + x1
        layers[0][0][:, 1] = [1.0, 0.0]  # z1 = x0
        layers[1][0][:, 0] = [1.0, 1.0]
        x = np.array([1.0, -1.0])  # z = (0, 1)
        y, cache = forward_cache(spec, params, x)
        assert y[0] == 1.0
        gp, gx = backward(spec, params, cache, np.array([1.0]))
        gw1 = unpack_params(spec, gp)[0][0]
        assert np.all(gw1[:, 0] == 0.0)  # the kink unit passes nothing
        np.testing.assert_allclose(gx, [1.0, 0.0], atol=1e-15)

    def test_1d_and_2d_inputs_agree(self):
        spec = MlpSpec.dense((4, 5, 3))
        rng = np.random.default_rng(3)
        params = init_params(spec, rng)
        x = rng.normal(size=4)
        y1 = forward(spec, params, x)
        y2 = forward(spec, params, x[None, :])
        assert y1.shape == (3,)
        assert np.array_equal(y1, y2[0])

    def test_forward_is_pure(self):
        spec = MlpSpec.dense((4, 8, 2), hidden="tanh")
        rng = np.random.default_rng(4)
        params = init_params(spec, rng)
        x = rng.normal(size=(5, 4))
        assert np.array_equal(forward(spec, params, x), forward(spec, params, x))

    @pytest.mark.parametrize("hidden", ["relu", "tanh"])
    def test_backward_leaves_its_inputs_and_cache_alone(self, hidden):
        # Activations and their gradients are applied in place, but only to
        # arrays nn allocated: two backward calls on one cache return the
        # same bits and leave the input, grad_y and the cache unchanged.
        spec = MlpSpec.dense((4, 8, 6, 2), hidden=hidden)
        rng = np.random.default_rng(6)
        params = init_params(spec, rng)
        x = rng.normal(size=(5, 4))
        grad_y = rng.normal(size=(5, 2))
        x0, grad_y0 = x.copy(), grad_y.copy()
        _, cache = forward_cache(spec, params, x)
        acts0 = [a.copy() for a in cache[0]]
        first = backward(spec, params, cache, grad_y)
        second = backward(spec, params, cache, grad_y)
        for a, b in zip(first, second):
            assert a.tobytes() == b.tobytes()
        assert np.array_equal(x, x0) and np.array_equal(grad_y, grad_y0)
        for a, a0 in zip(cache[0], acts0):
            assert a.tobytes() == a0.tobytes()

    def test_rejects_nan_input(self):
        spec = MlpSpec.dense((2, 2))
        params = init_params(spec, np.random.default_rng(0))
        with pytest.raises(ValueError):
            forward(spec, params, np.array([np.nan, 0.0]))

    def test_rejects_shape_mismatch(self):
        spec = MlpSpec.dense((3, 2))
        params = init_params(spec, np.random.default_rng(0))
        with pytest.raises(ValueError):
            forward(spec, params, np.zeros((4, 5)))
        _, cache = forward_cache(spec, params, np.zeros((4, 3)))
        with pytest.raises(ValueError):
            backward(spec, params, cache, np.zeros((4, 3)))


def grad_check(spec: MlpSpec, seed=0, h=1e-5, batch=3):
    """Max relative mismatch between backward and central finite differences.

    Random params and inputs from the seed; the probe loss is a random
    linear functional of the outputs. The denominator is floored at 1 so
    near-zero gradients are compared absolutely.
    """
    rng = np.random.default_rng(seed)
    params = init_params(spec, rng)
    x = rng.normal(size=(batch, spec.d_in))
    probe = rng.normal(size=(batch, spec.d_out))

    def loss_at(p, xv):
        return float(np.sum(forward(spec, p, xv) * probe))

    _, cache = forward_cache(spec, params, x)
    g_params, g_x = backward(spec, params, cache, probe)

    worst = 0.0
    for i in range(params.size):
        p = params.copy()
        p[i] += h
        up = loss_at(p, x)
        p[i] -= 2 * h
        dn = loss_at(p, x)
        num = (up - dn) / (2 * h)
        ana = g_params[i]
        worst = max(worst, abs(ana - num) / max(1.0, abs(ana), abs(num)))
    flat = x.ravel()
    for i in range(flat.size):
        xv = x.copy().ravel()
        xv[i] += h
        up = loss_at(params, xv.reshape(x.shape))
        xv[i] -= 2 * h
        dn = loss_at(params, xv.reshape(x.shape))
        num = (up - dn) / (2 * h)
        ana = g_x.ravel()[i]
        worst = max(worst, abs(ana - num) / max(1.0, abs(ana), abs(num)))
    return worst


class TestGradCheck:
    def test_three_layer_relu_matches_central_differences(self):
        spec = MlpSpec.dense((6, 12, 10, 4))
        assert grad_check(spec, seed=0) < 1e-4

    def test_identity_net_near_exact(self):
        # A purely linear net: central differences are analytically exact.
        spec = MlpSpec((4, 4), ("linear",))
        assert grad_check(spec, seed=1) < 1e-8

    def test_tanh_net_tighter_bound(self):
        spec = MlpSpec.dense((5, 8, 8, 3), hidden="tanh")
        assert grad_check(spec, seed=2) < 1e-5

    def test_multiple_seeds(self):
        spec = MlpSpec.dense((4, 9, 3))
        for seed in range(5):
            assert grad_check(spec, seed=seed) < 1e-4


def _tiled(points, codes):
    """The (B*V, d_p + d_c) input forward_conditioned never builds."""
    return np.concatenate(
        [np.tile(points, (codes.shape[0], 1)), np.repeat(codes, points.shape[0], axis=0)],
        axis=1,
    )


class TestConditioned:
    SPEC = MlpSpec.dense((5, 6, 4, 2))  # 2-d points, 3-d codes

    def _case(self, seed, n_codes=3, n_points=4):
        rng = np.random.default_rng(seed)
        params = init_params(self.SPEC, rng)
        unpack_params(self.SPEC, params)[0][1][:] = 0.1 * rng.normal(size=6)
        points = rng.normal(size=(n_points, 2))
        codes = rng.normal(size=(n_codes, 3))
        probe = rng.normal(size=(n_codes, n_points, 2))
        return params, points, codes, probe

    def test_matches_tiled_forward_and_backward(self):
        params, points, codes, probe = self._case(1)
        y, cache = forward_conditioned(self.SPEC, params, points, codes)
        y_t, cache_t = forward_cache(self.SPEC, params, _tiled(points, codes))
        np.testing.assert_allclose(y.reshape(-1, 2), y_t, rtol=0, atol=1e-14)
        gp, g_points, g_codes = backward_conditioned(self.SPEC, params, cache, probe)
        gp_t, gx_t = backward(self.SPEC, params, cache_t, probe.reshape(-1, 2))
        gx_t = gx_t.reshape(3, 4, 5)
        np.testing.assert_allclose(gp, gp_t, rtol=0, atol=1e-14)
        np.testing.assert_allclose(g_points, gx_t[:, :, :2].sum(axis=0), rtol=0, atol=1e-14)
        np.testing.assert_allclose(g_codes, gx_t[:, :, 2:].sum(axis=1), rtol=0, atol=1e-14)

    def test_float32_params_run_in_float32(self):
        # float64 inputs and upstream gradients are cast to the parameters'
        # float32; every output and gradient comes out float32, within a
        # float32 bound of the float64 passes: 1e-5 of the largest value,
        # about 80 float32 epsilons.
        params, points, codes, probe = self._case(2)
        p32 = params.astype(np.float32)
        tiled = _tiled(points, codes)

        def close(got, want):
            assert got.dtype == np.float32
            assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()

        y, cache = forward_conditioned(self.SPEC, p32, points, codes)
        y64, cache64 = forward_conditioned(self.SPEC, params, points, codes)
        close(y, y64)
        for got, want in zip(backward_conditioned(self.SPEC, p32, cache, probe),
                             backward_conditioned(self.SPEC, params, cache64, probe)):
            close(got, want)
        y, cache = forward_cache(self.SPEC, p32, tiled)
        y64, cache64 = forward_cache(self.SPEC, params, tiled)
        close(y, y64)
        for got, want in zip(backward(self.SPEC, p32, cache, probe.reshape(-1, 2)),
                             backward(self.SPEC, params, cache64, probe.reshape(-1, 2))):
            close(got, want)

    @pytest.mark.parametrize("seed", [0, 3, 8])
    def test_matches_central_differences(self, seed):
        # Every parameter (W_p, W_c and b1 are the first layer's), every
        # point and every code, against central differences of a random
        # linear functional of the outputs.
        params, points, codes, probe = self._case(seed)
        h = 1e-5

        def loss(p, pts, cds):
            return float(np.sum(forward_conditioned(self.SPEC, p, pts, cds)[0] * probe))

        _, cache = forward_conditioned(self.SPEC, params, points, codes)
        grads = backward_conditioned(self.SPEC, params, cache, probe)
        args = (params, points, codes)
        worst = 0.0
        for k, ana in enumerate(grads):
            flat = args[k].ravel()
            for i in range(flat.size):
                shifted = [a.copy() for a in args]
                shifted[k].ravel()[i] = flat[i] + h
                up = loss(*shifted)
                shifted[k].ravel()[i] = flat[i] - h
                dn = loss(*shifted)
                num = (up - dn) / (2 * h)
                a = ana.ravel()[i]
                worst = max(worst, abs(a - num) / max(1.0, abs(a), abs(num)))
        assert worst < 1e-7

    def test_relu_subgradient_zero_at_kink(self):
        # Units 0, 2 and 4 have a pre-activation of exactly 0 on every row;
        # like backward, no gradient may flow through them.
        params, points, codes, probe = self._case(5)
        w1, b1 = unpack_params(self.SPEC, params)[0]
        kink = [0, 2, 4]
        w1[:, kink] = 0.0
        b1[kink] = 0.0
        y, cache = forward_conditioned(self.SPEC, params, points, codes)
        gp, g_points, g_codes = backward_conditioned(self.SPEC, params, cache, probe)
        gw1, gb1 = unpack_params(self.SPEC, gp)[0]
        assert np.all(gw1[:, kink] == 0.0) and np.all(gb1[kink] == 0.0)
        assert np.all(gw1[:, [1, 3, 5]] != 0.0)
        _, cache_t = forward_cache(self.SPEC, params, _tiled(points, codes))
        gp_t, gx_t = backward(self.SPEC, params, cache_t, probe.reshape(-1, 2))
        gw1_t, gb1_t = unpack_params(self.SPEC, gp_t)[0]
        assert np.all(gw1_t[:, kink] == 0.0) and np.all(gb1_t[kink] == 0.0)
        np.testing.assert_allclose(gp, gp_t, rtol=0, atol=1e-14)
        np.testing.assert_allclose(g_codes, gx_t.reshape(3, 4, 5)[:, :, 2:].sum(axis=1),
                                   rtol=0, atol=1e-14)

    @pytest.mark.parametrize("hidden", ["relu", "tanh"])
    def test_backward_leaves_its_inputs_and_cache_alone(self, hidden):
        spec = MlpSpec.dense(self.SPEC.sizes, hidden=hidden)
        params, points, codes, probe = self._case(7)
        saved = [a.copy() for a in (points, codes, probe)]
        _, cache = forward_conditioned(spec, params, points, codes)
        acts0 = [a.copy() for a in cache[2][0]]
        first = backward_conditioned(spec, params, cache, probe)
        second = backward_conditioned(spec, params, cache, probe)
        for a, b in zip(first, second):
            assert a.tobytes() == b.tobytes()
        for a, a0 in zip((points, codes, probe), saved):
            assert np.array_equal(a, a0)
        for a, a0 in zip(cache[2][0], acts0):
            assert a.tobytes() == a0.tobytes()

    def test_rejects_bad_inputs(self):
        params, points, codes, probe = self._case(2)
        with pytest.raises(ValueError, match="d_in"):
            forward_conditioned(self.SPEC, params, points, codes[:, :2])
        with pytest.raises(ValueError, match="d_in"):
            forward_conditioned(self.SPEC, params, points[0], codes)
        bad = codes.copy()
        bad[1, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            forward_conditioned(self.SPEC, params, points, bad)
        _, cache = forward_conditioned(self.SPEC, params, points, codes)
        with pytest.raises(ValueError, match="upstream gradient"):
            backward_conditioned(self.SPEC, params, cache, probe[:, :3])
        single = MlpSpec.dense((5, 2))
        with pytest.raises(ValueError, match="two layers"):
            forward_conditioned(single, np.zeros(single.n_params), points, codes)

    @pytest.mark.parametrize("layer, part", [(0, 0), (0, 1), (1, 0), (2, 1)])
    def test_non_finite_weight_raises(self, layer, part):
        # The layer-1 output is not scanned on its own; a NaN weight or bias
        # in any layer must still reach the output check.
        params, points, codes, _ = self._case(4)
        unpack_params(self.SPEC, params)[layer][part].flat[0] = np.nan
        with pytest.raises(NonFiniteError, match="network output"):
            forward_conditioned(self.SPEC, params, points, codes)


class TestMaxPool:
    def test_forward_and_backward_single_set(self):
        h = np.array([[1.0, 5.0], [3.0, 2.0], [2.0, 4.0]])
        pooled, idx = set_max_pool(h)
        np.testing.assert_array_equal(pooled, [3.0, 5.0])
        np.testing.assert_array_equal(idx, [1, 0])
        g = set_max_pool_grad(np.array([10.0, 20.0]), idx, 3)
        expected = np.zeros((3, 2))
        expected[1, 0] = 10.0
        expected[0, 1] = 20.0
        np.testing.assert_array_equal(g, expected)

    def test_ties_route_to_first_index(self):
        h = np.array([[7.0], [7.0]])
        pooled, idx = set_max_pool(h)
        assert pooled[0] == 7.0 and idx[0] == 0

    def test_batched(self):
        rng = np.random.default_rng(5)
        h = rng.normal(size=(4, 10, 6))
        pooled, idx = set_max_pool(h)
        assert pooled.shape == (4, 6) and idx.shape == (4, 6)
        np.testing.assert_array_equal(pooled, h.max(axis=1))
        g = set_max_pool_grad(np.ones((4, 6)), idx, 10)
        assert g.shape == h.shape
        np.testing.assert_array_equal(g.sum(axis=1), np.ones((4, 6)))

    def test_finite_difference_through_pool(self):
        # Pool is piecewise linear; FD matches away from ties.
        rng = np.random.default_rng(6)
        h = rng.normal(size=(5, 3))
        w = rng.normal(size=3)
        _, idx = set_max_pool(h)
        g = set_max_pool_grad(w, idx, 5)
        eps = 1e-6
        for i in range(5):
            for j in range(3):
                hp = h.copy()
                hp[i, j] += eps
                hm = h.copy()
                hm[i, j] -= eps
                num = (set_max_pool(hp)[0] @ w - set_max_pool(hm)[0] @ w) / (2 * eps)
                assert abs(num - g[i, j]) < 1e-8


class TestAdam:
    def test_zero_gradient_is_noop(self):
        rng = np.random.default_rng(7)
        params = rng.normal(size=20)
        st = AdamState.for_params(20, lr=0.05)
        out = adam_step(st, params, np.zeros(20))
        np.testing.assert_array_equal(out, params)

    def test_first_step_magnitude_is_lr_times_sign(self):
        # Bias-corrected first step: m_hat = g, v_hat = g^2, so the move is
        # lr * g / (|g| + eps) ~= lr * sign(g).
        g = np.array([3.0, -0.5, 10.0, -2e-3])
        params = np.zeros(4)
        st = AdamState.for_params(4, lr=0.01)
        out = adam_step(st, params, g)
        np.testing.assert_allclose(out, -0.01 * np.sign(g), rtol=1e-4)

    def test_quadratic_bowl_strictly_decreases(self):
        x = np.array([3.0, -2.0, 1.5, -4.0])
        st = AdamState.for_params(4, lr=0.01)
        prev = float(np.sum(x * x))
        for _ in range(100):
            x = adam_step(st, x, 2.0 * x)
            cur = float(np.sum(x * x))
            assert cur < prev
            prev = cur

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        g = rng.normal(size=(10, 6))
        runs = []
        for _ in range(2):
            p = np.zeros(6)
            st = AdamState.for_params(6, lr=0.02)
            for k in range(10):
                p = adam_step(st, p, g[k])
            runs.append(p)
        assert np.array_equal(runs[0], runs[1])

    def test_rejects_nan_grads_and_bad_shapes(self):
        st = AdamState.for_params(3)
        with pytest.raises(ValueError):
            adam_step(st, np.zeros(3), np.array([1.0, np.nan, 0.0]))
        with pytest.raises(ValueError):
            adam_step(st, np.zeros(4), np.zeros(4))


class TestMseLoss:
    def test_value_and_gradient(self):
        pred = np.array([[1.0, 2.0], [3.0, 4.0]])
        target = np.array([[0.0, 2.0], [3.0, 2.0]])
        loss, grad = mse_loss(pred, target)
        assert loss == pytest.approx((1.0 + 0.0 + 0.0 + 4.0) / 4.0)
        np.testing.assert_allclose(grad, 2.0 / 4.0 * (pred - target))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        pred = rng.normal(size=(3, 5))
        target = rng.normal(size=(3, 5))
        _, grad = mse_loss(pred, target)
        eps = 1e-6
        p = pred.copy()
        p[1, 2] += eps
        up, _ = mse_loss(p, target)
        p[1, 2] -= 2 * eps
        dn, _ = mse_loss(p, target)
        assert abs((up - dn) / (2 * eps) - grad[1, 2]) < 1e-9


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        spec = MlpSpec.dense((6, 16, 8, 3), hidden="tanh")
        rng = np.random.default_rng(10)
        params = init_params(spec, rng)
        path = tmp_path / "net.ksnn"
        save_checkpoint(path, spec, params)
        params2 = load_checkpoint(path, spec)
        assert np.array_equal(params2, params)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["net.ksnn"]

    def test_bad_magic_rejected(self, tmp_path):
        spec = MlpSpec.dense((2, 2))
        params = init_params(spec, np.random.default_rng(0))
        path = tmp_path / "net.ksnn"
        save_checkpoint(path, spec, params)
        blob = bytearray(path.read_bytes())
        blob[0] = ord("X")
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path, spec)

    @pytest.mark.parametrize("size", [0, 6, 39])
    def test_truncated_header_rejected(self, tmp_path, size):
        spec = MlpSpec.dense((2, 2))
        path = tmp_path / "net.ksnn"
        save_checkpoint(path, spec, init_params(spec, np.random.default_rng(0)))
        path.write_bytes(path.read_bytes()[:size])
        with pytest.raises(ValueError, match="header"):
            load_checkpoint(path, spec)

    def test_architecture_hash_mismatch_rejected(self, tmp_path):
        spec = MlpSpec.dense((2, 3, 2))
        params = init_params(spec, np.random.default_rng(0))
        path = tmp_path / "net.ksnn"
        save_checkpoint(path, spec, params)
        # Another architecture with the same parameter count.
        other = MlpSpec.dense((2, 3, 2), hidden="tanh")
        assert other.n_params == spec.n_params
        with pytest.raises(ValueError, match="hash"):
            load_checkpoint(path, other)

    def test_param_count_guard(self, tmp_path):
        spec = MlpSpec.dense((2, 2))
        with pytest.raises(ValueError):
            save_checkpoint(tmp_path / "n.ksnn", spec, np.zeros(3))


class TestDeterminism:
    def test_init_reproducible(self):
        spec = MlpSpec.dense((8, 32, 4))
        a = init_params(spec, np.random.default_rng(123))
        b = init_params(spec, np.random.default_rng(123))
        assert np.array_equal(a, b)

    def test_small_training_loop_bitwise(self):
        spec = MlpSpec.dense((3, 8, 2))
        rng = np.random.default_rng(11)
        x = rng.normal(size=(32, 3))
        t = rng.normal(size=(32, 2))

        def train():
            params = init_params(spec, np.random.default_rng(99))
            st = AdamState.for_params(spec.n_params, lr=1e-2)
            for _ in range(40):
                y, cache = forward_cache(spec, params, x)
                _, grad = mse_loss(y, t)
                gp, _ = backward(spec, params, cache, grad)
                params = adam_step(st, params, gp)
            return params

        assert np.array_equal(train(), train())
