"""Small dense-network engine: MLP forward/backward, Adam, and checkpoints.

Only the primitives the pipeline needs gradients for live here: affine
layers with relu/tanh, a point decoder conditioned on a per-sample code
(forward_conditioned / backward_conditioned, which never tiles the
point-code input), max-pool over a set axis, and concatenation (which
needs no code, just slicing the upstream gradient). Everything is float64
and allocation order is fixed, so training is bitwise reproducible for a
given seed, architecture, and data stream.

The ReLU subgradient at exactly 0 is taken to be 0.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError

_ACTIVATIONS = ("relu", "tanh", "linear")

_MAGIC = b"KSNN"
_VERSION = 1


@dataclass(frozen=True)
class MlpSpec:
    """Architecture of a feedforward net: layer widths plus one activation per layer."""

    sizes: tuple  # (d_in, h1, ..., d_out), len >= 2
    activations: tuple  # len(sizes) - 1 entries; the last must be "linear"

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
        acts = tuple(str(a) for a in self.activations)
        if len(sizes) < 2:
            raise ValueError("MlpSpec: need at least input and output widths")
        if any(s <= 0 for s in sizes):
            raise ValueError(f"MlpSpec: non-positive width in {sizes}")
        if len(acts) != len(sizes) - 1:
            raise ValueError(
                f"MlpSpec: {len(sizes) - 1} layers but {len(acts)} activations"
            )
        for a in acts:
            if a not in _ACTIVATIONS:
                raise ValueError(f"MlpSpec: unknown activation {a!r}")
        if acts[-1] != "linear":
            raise ValueError("MlpSpec: output layer must be linear")
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "activations", acts)

    @staticmethod
    def dense(sizes, hidden="relu"):
        """Uniform hidden activation, linear output."""
        sizes = tuple(sizes)
        return MlpSpec(sizes, tuple([hidden] * (len(sizes) - 2)) + ("linear",))

    @property
    def n_layers(self):
        return len(self.sizes) - 1

    @property
    def d_in(self):
        return self.sizes[0]

    @property
    def d_out(self):
        return self.sizes[-1]

    @property
    def n_params(self):
        return sum(
            self.sizes[i] * self.sizes[i + 1] + self.sizes[i + 1]
            for i in range(self.n_layers)
        )

    def digest(self):
        """sha256 of the canonical JSON form; pins checkpoints to architectures."""
        doc = {"sizes": list(self.sizes), "activations": list(self.activations)}
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).digest()


def init_params(spec: MlpSpec, rng) -> np.ndarray:
    """He-style init (variance 2/fan_in for relu, 1/fan_in otherwise), zero biases.

    Returns one flat float64 vector; layout is per layer W (row-major,
    shape fan_in x fan_out) then b.
    """
    chunks = []
    for i in range(spec.n_layers):
        fan_in, fan_out = spec.sizes[i], spec.sizes[i + 1]
        gain = 2.0 if spec.activations[i] == "relu" else 1.0
        w = rng.normal(size=(fan_in, fan_out)) * np.sqrt(gain / fan_in)
        chunks.append(w.ravel())
        chunks.append(np.zeros(fan_out))
    return np.concatenate(chunks)


def unpack_params(spec: MlpSpec, params):
    """Views (W, b) per layer into the flat parameter vector."""
    params = np.asarray(params)
    if params.shape != (spec.n_params,):
        raise ValueError(
            f"parameter vector has {params.shape}, spec needs ({spec.n_params},)"
        )
    out = []
    off = 0
    for i in range(spec.n_layers):
        fan_in, fan_out = spec.sizes[i], spec.sizes[i + 1]
        w = params[off : off + fan_in * fan_out].reshape(fan_in, fan_out)
        off += fan_in * fan_out
        b = params[off : off + fan_out]
        off += fan_out
        out.append((w, b))
    return out


def _check_finite(arr, what):
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"non-finite values in {what}")


def _activate(z, kind):
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "tanh":
        return np.tanh(z)
    return z


def _activation_grad(g, out, kind):
    """Upstream gradient g through an activation, given its output."""
    if kind == "relu":
        return g * (out > 0.0)  # subgradient 0 at the kink
    if kind == "tanh":
        return g * (1.0 - out * out)
    return g


def forward(spec: MlpSpec, params, x):
    """Run the net; accepts (d_in,) or (batch, d_in) and matches the shape out."""
    y, _ = forward_cache(spec, params, x)
    return y


def forward_cache(spec: MlpSpec, params, x):
    """Forward pass keeping per-layer activations for backward.

    The cache holds the 2D input and every post-activation; `backward`
    consumes it together with the same params.
    """
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 1
    a = x[None, :] if squeeze else x
    if a.ndim != 2 or a.shape[1] != spec.d_in:
        raise ValueError(f"input shape {x.shape} does not match d_in={spec.d_in}")
    _check_finite(a, "network input")
    layers = unpack_params(spec, params)
    acts = [a]
    for (w, b), kind in zip(layers, spec.activations):
        a = _activate(a @ w + b, kind)
        acts.append(a)
    _check_finite(a, "network output")
    y = a[0] if squeeze else a
    return y, (acts, squeeze)


def backward(spec: MlpSpec, params, cache, grad_y):
    """Reverse accumulation through the cached forward pass.

    Returns (grad_params flat, grad_x). Parameter gradients are summed over
    the batch; fold any 1/batch factor into grad_y.
    """
    acts, squeeze = cache
    g = np.asarray(grad_y, dtype=np.float64)
    if squeeze:
        g = g[None, :]
    if g.shape != acts[-1].shape:
        raise ValueError(
            f"upstream gradient shape {grad_y.shape} does not match output "
            f"{acts[-1].shape}"
        )
    layers = unpack_params(spec, params)
    grad_params = np.empty_like(np.asarray(params, dtype=np.float64))
    grads = unpack_params(spec, grad_params)
    for i in range(spec.n_layers - 1, -1, -1):
        g = _activation_grad(g, acts[i + 1], spec.activations[i])
        w, _ = layers[i]
        gw, gb = grads[i]
        np.matmul(acts[i].T, g, out=gw)
        np.sum(g, axis=0, out=gb)
        g = g @ w.T
    _check_finite(grad_params, "parameter gradients")
    grad_x = g[0] if squeeze else g
    return grad_params, grad_x


# ---------------------------------------------------------------------------
# Point decoding conditioned on a per-sample code (as in DeepSDF): input row
# (b, v) is concat(points[v], codes[b]). Only the first layer sees that
# input, so its weights split into [W_p; W_c] and its pre-activation is
# (points @ W_p + b1)[None] + (codes @ W_c)[:, None]; the tiled (B*V, d_in)
# input is never built. Layers 2..n run through forward_cache / backward on
# the tail spec sizes[1:], whose parameters are the flat vector past layer 1.


def _split_first_layer(spec: MlpSpec, params):
    """(W1, b1) views, the tail spec, and the tail's parameter slice."""
    if spec.n_layers < 2:
        raise ValueError("conditioned decoding needs at least two layers")
    params = np.asarray(params, dtype=np.float64)
    w, b = unpack_params(spec, params)[0]
    tail = MlpSpec(spec.sizes[1:], spec.activations[1:])
    return w, b, tail, params[w.size + b.size :]


def forward_conditioned(spec: MlpSpec, params, points, codes):
    """Run the net on every (point, code) pair: points (V, d_p) shared by all
    samples, codes (B, d_c) one per sample, d_p + d_c = d_in.

    Returns (outputs (B, V, d_out), cache). Equals forward on the tiled
    input concat(tile(points, (B, 1)), repeat(codes, V, axis=0)), reshaped,
    up to rounding.
    """
    points = np.asarray(points, dtype=np.float64)
    codes = np.asarray(codes, dtype=np.float64)
    if (points.ndim != 2 or codes.ndim != 2
            or points.shape[1] + codes.shape[1] != spec.d_in):
        raise ValueError(
            f"points {points.shape} and codes {codes.shape} do not match "
            f"d_in={spec.d_in}"
        )
    _check_finite(points, "network input points")
    _check_finite(codes, "network input codes")
    w, b, tail, tail_params = _split_first_layer(spec, params)
    d_p = points.shape[1]
    pre = (points @ w[:d_p] + b)[None] + (codes @ w[d_p:])[:, None]
    h = _activate(pre, spec.activations[0]).reshape(-1, spec.sizes[1])
    y, tail_cache = forward_cache(tail, tail_params, h)
    return y.reshape(codes.shape[0], points.shape[0], spec.d_out), (points, codes, tail_cache)


def backward_conditioned(spec: MlpSpec, params, cache, grad_y):
    """Reverse pass of forward_conditioned.

    Returns (grad_params flat, grad_points (V, d_p), grad_codes (B, d_c)).
    Parameter gradients are summed over every (sample, point) row: with g
    the first layer's pre-activation gradient, dW_p = points^T sum_b g,
    dW_c = codes^T sum_v g and db1 = sum_{b,v} g.
    """
    points, codes, tail_cache = cache
    n_b, n_v = codes.shape[0], points.shape[0]
    g = np.asarray(grad_y, dtype=np.float64)
    if g.shape != (n_b, n_v, spec.d_out):
        raise ValueError(
            f"upstream gradient shape {g.shape} does not match output "
            f"{(n_b, n_v, spec.d_out)}"
        )
    w, _, tail, tail_params = _split_first_layer(spec, params)
    grad_tail, grad_h = backward(tail, tail_params, tail_cache, g.reshape(n_b * n_v, -1))
    h = tail_cache[0][0]
    g = _activation_grad(grad_h, h, spec.activations[0]).reshape(n_b, n_v, -1)
    g_points = g.sum(axis=0)
    g_codes = g.sum(axis=1)
    grad_params = np.empty(spec.n_params)
    gw, gb = unpack_params(spec, grad_params)[0]
    grad_params[gw.size + gb.size :] = grad_tail
    d_p = points.shape[1]
    np.matmul(points.T, g_points, out=gw[:d_p])
    np.matmul(codes.T, g_codes, out=gw[d_p:])
    np.sum(g_points, axis=0, out=gb)
    _check_finite(grad_params, "parameter gradients")
    return grad_params, g_points @ w[:d_p].T, g_codes @ w[d_p:].T


# ---------------------------------------------------------------------------
# Set pooling (the only non-MLP primitive the point encoder needs).


def set_max_pool(h):
    """Channel-wise max over the second-to-last axis.

    (n, d) -> ((d,), argmax (d,)); (b, n, d) -> ((b, d), argmax (b, d)).
    Gradient flows only to the argmax row per channel (first index on ties).
    """
    h = np.asarray(h, dtype=np.float64)
    if h.ndim not in (2, 3):
        raise ValueError(f"set_max_pool: expected 2D or 3D input, got {h.shape}")
    idx = h.argmax(axis=-2)
    pooled = np.take_along_axis(h, idx[..., None, :], axis=-2).squeeze(-2)
    return pooled, idx


def set_max_pool_grad(grad_pooled, argmax, n_points):
    """Scatter the pooled gradient back to the winning rows."""
    grad_pooled = np.asarray(grad_pooled, dtype=np.float64)
    if grad_pooled.shape != argmax.shape:
        raise ValueError("set_max_pool_grad: gradient/argmax shape mismatch")
    out = np.zeros(grad_pooled.shape[:-1] + (n_points, grad_pooled.shape[-1]))
    np.put_along_axis(out, argmax[..., None, :], grad_pooled[..., None, :], axis=-2)
    return out


# ---------------------------------------------------------------------------
# Losses (tiny helpers shared by the trainers).


def mse_loss(pred, target):
    """Mean squared error over every entry, with its gradient w.r.t. pred."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"mse_loss: shapes {pred.shape} vs {target.shape}")
    diff = pred - target
    loss = float(np.mean(diff * diff))
    return loss, (2.0 / diff.size) * diff


# ---------------------------------------------------------------------------
# Adam, with Kingma & Ba's moment decay rates and denominator floor.

_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Moment buffers and step counter for one flat parameter vector."""

    m: np.ndarray
    v: np.ndarray
    step: int
    lr: float

    @staticmethod
    def for_params(n_params, lr=1e-3):
        if n_params <= 0:
            raise ValueError("AdamState: empty parameter vector")
        return AdamState(np.zeros(n_params), np.zeros(n_params), 0, lr)


def adam_step(state: AdamState, params, grads):
    """One bias-corrected Adam update; mutates state, returns new params."""
    params = np.asarray(params, dtype=np.float64)
    grads = np.asarray(grads, dtype=np.float64)
    if params.shape != state.m.shape or grads.shape != state.m.shape:
        raise ValueError(
            f"adam_step: shapes params {params.shape} grads {grads.shape} "
            f"state {state.m.shape}"
        )
    _check_finite(grads, "gradients")
    state.step += 1
    state.m = _ADAM_BETA1 * state.m + (1.0 - _ADAM_BETA1) * grads
    state.v = _ADAM_BETA2 * state.v + (1.0 - _ADAM_BETA2) * grads * grads
    m_hat = state.m / (1.0 - _ADAM_BETA1**state.step)
    v_hat = state.v / (1.0 - _ADAM_BETA2**state.step)
    return params - state.lr * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)


# ---------------------------------------------------------------------------
# Checkpoints: 4-byte magic, u32 version, 32-byte architecture digest, then
# the flat float64 parameter vector, little-endian. The file does not carry
# the architecture itself: the loader is handed the spec its caller builds
# and checks the digest against it.


def save_checkpoint(path, spec: MlpSpec, params):
    params = np.ascontiguousarray(params, dtype=np.float64)
    if params.shape != (spec.n_params,):
        raise ValueError(
            f"checkpoint: {params.shape} does not match spec ({spec.n_params},)"
        )
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _VERSION))
        fh.write(spec.digest())
        fh.write(params.astype("<f8").tobytes())


def load_checkpoint(path, spec: MlpSpec):
    """Parameters of a checkpoint of `spec`; checks magic, version, digest and size."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 40:
        raise ValueError(f"{path}: {len(blob)} bytes, shorter than a checkpoint header")
    if blob[:4] != _MAGIC:
        raise ValueError(f"{path}: bad checkpoint magic {blob[:4]!r}")
    (version,) = struct.unpack("<I", blob[4:8])
    if version != _VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    if blob[8:40] != spec.digest():
        raise ValueError(f"{path}: architecture hash does not match {spec}")
    params = np.frombuffer(blob[40:], dtype="<f8").astype(np.float64)
    if params.size != spec.n_params:
        raise ValueError(
            f"{path}: {params.size} parameters on disk, spec needs {spec.n_params}"
        )
    return params
