"""Shared test oracles.

Everything here recomputes expected values through a route independent of the
library's own path (dense QP solvers, exhaustive search, finite differences,
a scipy.signal convolution, an unbanded one-GEMM correlation, a ``numpy.fft``
overlap-save correlation, reshape/transpose phase planes for the
blur-downsample operator, a per-tap strided-slice weight gradient, full weight
banks that make the final pool average every orientation, a TV dual loop that
recomputes and reallocates everything each iteration, an ISTA loop that
computes every step, a trainer that chains every image's gradient on its own,
a synthetic field evaluated at every point of the grid, inside its taper disk
or not), so agreement is evidence rather than tautology.
It also holds the code that only the tests use: the one-filter sampling API
(``ParamFilter``, ``sample_filter``), ``param_count``, the rotation action on
group feature maps (``act_on_feature_map``), the mesh-refinement study
behind acceptance criterion 4 (``refinement_errors``) and the ISTA objective
(``regularizer``, ``tv_value_aniso``, read through ``plain_ista``), and the
prox equivariance check (``check_prox_equivariance``).
"""

from __future__ import annotations

import collections
import itertools
import json
import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np
import scipy.optimize
import scipy.signal
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from rotprox import (
    Bias,
    FourierBasis,
    Lift,
    NetworkSpec,
    OrientationPool,
    PlanarImage,
    ReLU,
    SoftThreshold,
    TVProx,
    UnfoldingConfig,
    backward,
    basis_stack,
    chain_grads,
    estimate_lipschitz,
    forward,
    forward_with_tape,
    init_network,
    ista_step,
    make_audit_net,
    make_denoiser_net,
    measure_equivariance,
    mse_loss,
    parameters,
    relative_difference,
    rotate_image,
    sample_field,
    synthetic_field,
    weight_banks,
)
from rotprox.cli import AUDIT_EQ_DEFAULTS
from rotprox.filters import init_coefficients, quintic_falloff
from rotprox.layers import GroupConv, correlate_stack
from rotprox.synthetic import _DISK_INNER, _DISK_OUTER

GRAD_CHECK_FAMILIES = ("plain_conv", "lift", "group_conv", "pooled", "residual")


@dataclass(frozen=True)
class ParamFilter:
    """One continuous filter: a coefficient per basis function."""

    basis: FourierBasis
    coefficients: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=np.float64)
        if coeffs.shape != (self.basis.size,):
            raise ValueError(
                f"expected {self.basis.size} coefficients, got shape {coeffs.shape}"
            )
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("non-finite filter coefficients")
        coeffs = np.ascontiguousarray(coeffs)
        coeffs.flags.writeable = False
        object.__setattr__(self, "coefficients", coeffs)


def sample_filter(f: ParamFilter, theta: float) -> np.ndarray:
    """Tap array of the filter rotated by theta: taps[u,v] = phi(A_{-theta} x_uv)."""
    if not math.isfinite(theta):
        raise ValueError(f"rotation angle must be finite, got {theta}")
    stack = basis_stack(f.basis, theta)
    return np.tensordot(f.coefficients, stack, axes=([0], [0]))


@dataclass
class PlainConv:
    """Ordinary (non-equivariant) planar convolution, as an oracle for t=1 nets.

    It implements the forward half of the layer protocol (check, reads,
    forward, params, init) plus what a first layer needs of the reverse half
    (record, grads, chain; its grads are already coefficient gradients), and
    shares no convolution code with the library: the taps
    coeffs . basis_stack(basis, 0) are correlated channel pair by channel pair
    with scipy.signal, zero padding, SAME size.
    """

    in_channels: int
    out_channels: int
    basis: FourierBasis
    coeffs: np.ndarray  # (out, in, basis size)

    kind = "plain_conv"
    reads = ()

    @property
    def fan_in(self) -> int:
        return self.in_channels

    def params(self):
        return [("coeffs", self.coeffs)]

    def init(self, rng) -> None:
        self.coeffs = init_coefficients(rng, self.coeffs.shape, self.fan_in, self.basis.filter_size)

    def check(self, states, t, last):
        kind, c = states[-1]
        if kind != "planar":
            raise ValueError("PlainConv needs a planar input")
        if c is not None and c != self.in_channels:
            raise ValueError(f"PlainConv expects {self.in_channels} channels, chain has {c}")
        return ("planar", self.out_channels)

    def forward(self, value, activations):
        taps = np.tensordot(self.coeffs, basis_stack(self.basis, 0.0), axes=([2], [0]))
        out = np.zeros(value.shape[:2] + (self.out_channels,))
        for o in range(self.out_channels):
            for i in range(self.in_channels):
                out[:, :, o] += scipy.signal.correlate2d(value[:, :, i], taps[o, i], mode="same")
        return out

    def record(self, value, activations):
        return self.forward(value, activations), value

    def grads(self, g, saved):
        m = self.basis.filter_size // 2
        xp = np.pad(saved, ((m, m), (m, m), (0, 0)))
        dtaps = np.array(
            [
                [scipy.signal.correlate2d(xp[:, :, i], g[:, :, o], mode="valid") for i in range(self.in_channels)]
                for o in range(self.out_channels)
            ]
        )
        return {"coeffs": np.tensordot(dtaps, basis_stack(self.basis, 0.0), axes=([2, 3], [1, 2]))}

    def chain(self, name, local):
        return local


def make_plain_net(seed: int = 0, channels: int = 4, n_conv: int = 3, p: int = 5, cutoff: int = 2):
    """PlainConv chain wired like make_audit_net, without the orientation fiber.

    init_network draws its coefficients in the same order, with the same shapes
    and fan-in, as it does for make_audit_net(1, ...) at the same seed.
    """
    basis = FourierBasis(p, cutoff)
    nb = basis.size
    layers: list = [PlainConv(1, channels, basis, np.zeros((channels, 1, nb)))]
    for _ in range(n_conv - 1):
        conv = PlainConv(channels, channels, basis, np.zeros((channels, channels, nb)))
        layers += [Bias(np.zeros(channels)), ReLU(), conv]
    return init_network(NetworkSpec(layers), seed)


def full_banks(net: NetworkSpec) -> dict[int, np.ndarray]:
    """Every conv's full (n*Cin, p, p, t*Cout) bank, ``weights()``, including the
    conv that the final pool reads. Patched in for ``rotprox.layers.weight_banks``,
    they make ``forward`` and ``forward_with_tape`` run the net without the
    orientation-mean bank: that conv computes all t orientations, and the pool
    averages them (and spreads g / t over them on the reverse pass)."""
    return {idx: layer.weights() for idx, layer in enumerate(net.layers) if isinstance(layer, (Lift, GroupConv))}


def one_shot_correlate(arr: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Zero-padded SAME correlation as one GEMM over the whole (H*W, Cin*p*p) patch matrix.

    The unbanded im2col route, as an oracle for correlate_stack's row bands.
    """
    p = weights.shape[1]
    m = (p - 1) // 2
    win = sliding_window_view(np.pad(arr, ((m, m), (m, m), (0, 0))), (p, p), axis=(0, 1))
    return np.tensordot(win, weights, axes=([2, 3, 4], [0, 1, 2]))


def fft_overlap_save_correlate(arr: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Zero-padded SAME correlation by ``numpy.fft`` overlap-save over n x n tiles, n = 3(p - 1).

    The FFT route as it was before its transforms became DFT-matrix GEMMs, kept
    as an oracle for them: one row of tiles at a time, the tiles are
    ``rfftn``'d, each frequency is one (tiles x Cin) @ (Cin x Cout) product with
    the conjugate tap spectrum (here ``rfftn``'d too), and the ``irfftn``'d
    tiles keep their first s = n - p + 1 rows and columns, which never wrap.
    """
    h, w, ci = arr.shape
    p, co = weights.shape[1], weights.shape[3]
    m = (p - 1) // 2
    n = 3 * (p - 1)
    s = n - p + 1
    cols = -(-w // s)
    taps = np.zeros((ci, n, n, co))
    taps[:, :p, :p] = weights
    spec = np.conj(np.fft.rfftn(taps, axes=(2, 1))).transpose(1, 2, 0, 3)  # (n//2 + 1, n, Cin, Cout)
    strip = np.zeros((n, cols * s + p - 1, ci))
    st = strip.strides
    tiles = as_strided(strip, (n, cols, n, ci), (st[0], s * st[1], st[1], st[2]))  # (row, tile, col, Cin)
    out = np.empty((h, w, co))
    for r0 in range(0, h, s):
        lo, hi = max(m - r0, 0), min(h + m - r0, n)  # strip rows that fall inside the image
        strip[:lo] = 0.0
        strip[lo:hi, m : m + w] = arr[r0 - m + lo : r0 - m + hi]
        strip[hi:] = 0.0
        freq = np.fft.rfftn(tiles, axes=(2, 0))
        prod = np.matmul(freq.transpose(0, 2, 1, 3), spec).transpose(0, 2, 1, 3)
        y = np.fft.irfftn(prod, s=(n, n), axes=(2, 0))
        r1 = min(r0 + s, h)
        out[r0:r1] = y[: r1 - r0, :, :s].reshape(r1 - r0, cols * s, co)[:, :w]
    return out


def reshape_blur_downsample(op, x: np.ndarray) -> np.ndarray:
    """``BlurDownsample.apply`` by one 5-D reshape/transpose/reshape to all
    channels' (C, H/s, W/s, s*s) phase planes, then one correlation per channel
    with the operator's own bank: an oracle for the strided phase copies."""
    h, w, c = x.shape
    s = op.scale
    phases = x.reshape(h // s, s, w // s, s, c).transpose(4, 0, 2, 1, 3).reshape(c, h // s, w // s, s * s)
    return np.stack([correlate_stack(phases[ch], op._bank)[:, :, 0] for ch in range(c)], axis=-1)


def reshape_blur_downsample_adjoint(op, y: np.ndarray) -> np.ndarray:
    """``BlurDownsample.adjoint`` with each channel's s*s output planes put
    back by one reshape/transpose into an (H, s, W, s, C) array."""
    h, w, c = y.shape
    s = op.scale
    out = np.empty((h, s, w, s, c))
    for ch in range(c):
        phases = correlate_stack(y[:, :, ch : ch + 1], op._adjoint_bank)
        out[:, :, :, :, ch] = phases.reshape(h, w, s, s).transpose(0, 2, 1, 3)
    return out.reshape(h * s, w * s, c)


def strided_conv_backward_weights(x_flat: np.ndarray, g_flat: np.ndarray, p: int) -> np.ndarray:
    """(S, p, p, Co) tap gradient of a SAME correlation, one GEMM per tap over a
    strided (H, W, S) slice of the zero-padded input.

    The per-tap strided-copy route, as an oracle for the library's weight gradient.
    """
    pad = p // 2
    h, wd = x_flat.shape[:2]
    slices = x_flat.shape[2]
    xp = np.pad(x_flat, ((pad, pad), (pad, pad), (0, 0)))
    gm = g_flat.reshape(-1, g_flat.shape[2])
    dw = np.empty((slices, p, p, g_flat.shape[2]))
    for u in range(p):
        for v in range(p):
            dw[:, u, v, :] = xp[u : u + h, v : v + wd, :].reshape(-1, slices).T @ gm
    return dw


def with_eqck_header(blob: bytes, header) -> bytes:
    """EQCK bytes with the JSON header replaced by `header` and a valid CRC."""
    (header_len,) = struct.unpack("<I", blob[8:12])
    header_bytes = json.dumps(header).encode("utf-8")
    body = blob[:4] + struct.pack("<II", 1, len(header_bytes)) + header_bytes + blob[12 + header_len : -4]
    return body + struct.pack("<I", zlib.crc32(body))


def eqck_header(blob: bytes) -> dict:
    (header_len,) = struct.unpack("<I", blob[8:12])
    return json.loads(blob[12 : 12 + header_len])


def difference_matrix(h: int, w: int) -> np.ndarray:
    """Dense D with one row per horizontal/vertical neighbor pair: (Du)_e = u_b - u_a."""
    edges = []
    for i in range(h):
        for j in range(w - 1):
            edges.append((i * w + j, i * w + j + 1))
    for i in range(h - 1):
        for j in range(w):
            edges.append((i * w + j, (i + 1) * w + j))
    d = np.zeros((len(edges), h * w))
    for e, (a, b) in enumerate(edges):
        d[e, a] = -1.0
        d[e, b] = 1.0
    return d


def tv_prox_dual_qp(f: np.ndarray, weight: float, method: str = "trf") -> np.ndarray:
    """Anisotropic TV prox of one (H, W) plane via its box-constrained dual QP.

    min_u 1/2||u - f||^2 + weight * ||Du||_1 dualizes to
    min_{|q| <= weight} 1/2||f - D^T q||^2 with u* = f - D^T q*; u* is unique
    even though q* is not. BVLS is exact on a path graph (1-row images); trf
    handles the rank-deficient 2D incidence to high accuracy.
    """
    h, w = f.shape
    dt = difference_matrix(h, w).T
    res = scipy.optimize.lsq_linear(
        dt, f.ravel(), bounds=(-weight, weight), method=method, tol=1e-14
    )
    return (f.ravel() - dt @ res.x).reshape(h, w)


def tv_objective(u: np.ndarray, f: np.ndarray, weight: float) -> float:
    d = difference_matrix(*f.shape)
    return 0.5 * float(np.sum((u - f) ** 2)) + weight * float(np.sum(np.abs(d @ u.ravel())))


# The TV dual loop as first written: each iteration rebuilds the primal and its
# forward differences twice (once for the dual step, once for the objective),
# allocating fresh arrays for every intermediate. rotprox.tv_prox must match it
# bit for bit: the arithmetic is elementwise numpy plus pairwise sums over
# C-contiguous arrays, with no BLAS, so no reordering is allowed.
REFERENCE_TV_DUAL_STEP = 0.125


def reference_forward_diff(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    gx = np.zeros_like(u)
    gy = np.zeros_like(u)
    gx[:, :-1] = u[:, 1:] - u[:, :-1]
    gy[:-1, :] = u[1:, :] - u[:-1, :]
    return gx, gy


def reference_neg_divergence_adjoint(px: np.ndarray, py: np.ndarray) -> np.ndarray:
    out = np.zeros_like(px)
    out[:, :-1] -= px[:, :-1]
    out[:, 1:] += px[:, :-1]
    out[:-1, :] -= py[:-1, :]
    out[1:, :] += py[:-1, :]
    return out


def _reference_tv_objective(u: np.ndarray, f: np.ndarray, w: float) -> float:
    gx, gy = reference_forward_diff(u)
    tv = float(np.sum(np.abs(gx)) + np.sum(np.abs(gy)))
    return 0.5 * float(np.sum((u - f) ** 2)) + w * tv


def reference_tv_prox_plane(f: np.ndarray, w: float, tol: float, max_iter: int):
    px = np.zeros_like(f)
    py = np.zeros_like(f)
    best_u = f
    best_obj = _reference_tv_objective(f, f, w)
    for it in range(1, max_iter + 1):
        u = f - w * reference_neg_divergence_adjoint(px, py)
        gx, gy = reference_forward_diff(u)
        px_new = np.clip(px + (REFERENCE_TV_DUAL_STEP / w) * gx, -1.0, 1.0)
        py_new = np.clip(py + (REFERENCE_TV_DUAL_STEP / w) * gy, -1.0, 1.0)
        change = max(np.max(np.abs(px_new - px)), np.max(np.abs(py_new - py)))
        px, py = px_new, py_new
        u = f - w * reference_neg_divergence_adjoint(px, py)
        obj = _reference_tv_objective(u, f, w)
        if obj < best_obj:
            best_u, best_obj = u, obj
        if change < tol:
            return best_u, True, it
    return best_u, False, max_iter


def reference_tv_prox(data: np.ndarray, w: float, tol: float, max_iter: int):
    """(H, W, C) -> (prox image data, converged, iterations), channel by channel."""
    out = np.empty_like(data)
    converged = True
    iterations = 0
    for c in range(data.shape[2]):
        plane, ok, it = reference_tv_prox_plane(data[:, :, c], w, tol, max_iter)
        out[:, :, c] = plane
        converged = converged and ok
        iterations = max(iterations, it)
    return out, converged, iterations


def sweep_args(**overrides) -> dict:
    """`order_sweep` keyword arguments from `AUDIT_EQ_DEFAULTS` with `overrides`
    applied, mapped as `rotprox audit-equivariance` maps its config."""
    cfg = {**AUDIT_EQ_DEFAULTS, **overrides}
    names = ("t_list", "image_count", "image_size", "mesh", "angles", "net_seed", "image_seed", "channels")
    return {**{name: cfg[name] for name in names}, "angle_seed": cfg["seed"]}


def bound_reference(layers, F0, G0, H0, p, h, t, side) -> float:
    """Layer-cascade bound restated with explicit per-layer loops.

    `layers` is a list of (slices, F, G, H) tuples and `side` the longer image
    side. The inner prefix sum is recomputed from scratch for every layer, so
    the arithmetic path shares nothing with the library's accumulator version.
    """
    import math

    n_layers = len(layers)
    f_script = 1.0
    for slices, f_sup, _, _ in layers:
        f_script = f_script * (slices * p * p * f_sup)
    total = 0.0
    for i in range(n_layers):
        _, f_i, g_i, h_i = layers[i]
        earlier = 0.0
        for m in range(i):
            _, f_m, g_m, _ = layers[m]
            earlier += g_m * F0 / f_m
        total += h_i * F0 / f_i + 2.0 * (g_i / f_i) * earlier + 2.0 * g_i * G0 / f_i + H0
    c1 = 2.0 * n_layers * f_script * total
    c2 = 2.0 * math.pi * G0 * f_script * (2.0 * side / p + 2.0 * n_layers)
    return c1 * h * h + c2 * p * h / t


def best_subset_support(y: np.ndarray, k: int) -> frozenset[int]:
    """Exhaustive best k-sparse least-squares support for the identity operator.

    For A = I the residual of fitting on support S is sum of y^2 off S, so the
    full combinations loop is cheap enough to stay exhaustive.
    """
    flat = y.ravel()
    sq = flat**2
    total = float(sq.sum())
    best, best_cost = frozenset(), np.inf
    for combo in itertools.combinations(range(flat.size), k):
        cost = total - float(sq[list(combo)].sum())
        if cost < best_cost:
            best, best_cost = frozenset(combo), cost
    return best


def tv_value_aniso(u: np.ndarray) -> float:
    """Anisotropic TV of one plane: sum |forward differences| over both axes."""
    gx, gy = reference_forward_diff(u)
    return float(np.abs(gx).sum() + np.abs(gy).sum())


def regularizer(prox):
    """The unweighted regularizer R(x) that `prox` is the prox of (with its
    weight folded in), when R has a closed form: ||x||_1 for SoftThreshold,
    anisotropic TV summed over channels for TVProx; None otherwise."""
    if isinstance(prox, SoftThreshold):
        return lambda x: float(np.sum(np.abs(x.data)))
    if isinstance(prox, TVProx):
        return lambda x: sum(tv_value_aniso(x.data[:, :, c]) for c in range(x.channels))
    return None


def plain_ista(y: PlanarImage, op, cfg: UnfoldingConfig):
    """Every iterate x_0..x_T and the objective at each, by T calls of ista_step.

    The step size is resolved as ista_solve resolves it. The objective is
    1/2 ||Ax - y||^2 plus lambda * R(x) when R has a closed form; prox weights
    fold the trade-off as w = lambda * eta, so lambda = w / eta.
    """
    lip = estimate_lipschitz(op, y)
    eta = cfg.step_size if cfg.step_size is not None else (1.0 / lip if lip > 0 else 1.0)
    cfg = UnfoldingConfig(cfg.steps, eta, cfg.prox)
    reg = regularizer(cfg.prox)

    def objective(x: PlanarImage) -> float:
        fit = 0.5 * float(np.sum((op.apply(x).data - y.data) ** 2))
        return fit + ((cfg.prox.weight / eta) * reg(x) if reg is not None else 0.0)

    xs = [op.adjoint(y)]
    for _ in range(cfg.steps):
        xs.append(ista_step(xs[-1], xs[0], op, cfg))
    return xs, [objective(x) for x in xs]


def check_prox_equivariance(p, x: PlanarImage, theta: float, crop: int = 0) -> float:
    """relative_difference(p(rotate(x)), rotate(p(x))) with `crop` border pixels
    left out: 0 for the pointwise and TV proxes, a network's receptive radius
    for a neural prox."""
    a = p(rotate_image(x, theta))
    b = rotate_image(p(x), theta)
    return relative_difference(a, b, crop=crop)


def param_count(net: NetworkSpec) -> int:
    return sum(arr.size for _, _, arr in parameters(net))


def act_on_feature_map(f: np.ndarray, theta: float, k: int) -> np.ndarray:
    """Apply the feature-map rotation action to an (H, W, t, C) array: rotate every
    (o, c) slice spatially by theta and shift the orientation fiber o -> (o + k) mod t.

    Convention (pinned by tests): rotating the network input by +2*pi/t corresponds
    to k = +1 here.
    """
    h, w, t, c = f.shape
    if not (isinstance(k, (int, np.integer)) and 0 <= k < t):
        raise ValueError(f"orientation shift k={k} out of range for group order {t}")
    rotated = rotate_image(PlanarImage(f.reshape(h, w, t * c)), theta).data.reshape(h, w, t, c)
    return np.roll(rotated, shift=int(k), axis=2)


def refinement_errors(p_list=(5, 9, 17), image_count: int = 3, base_size: int = 32) -> list[float]:
    """Single-layer equivariance error under mesh refinement at fixed physical support.

    One continuous filter bank (4 channels, cutoff 1, coefficients shared across
    p, seed 0) and continuous 4-patch image fields are sampled at meshes scaled
    so the p-tap footprint (p-1)*h stays fixed: p_list[0] taps at mesh 0.25, and
    each doubling of taps halves the mesh. At the group angle 2*pi/8 of t = 8 the
    orientation term drops out, leaving the quadratic sampling term.
    """
    t, channels, cutoff, base_mesh = 8, 4, 1, 0.25
    base_p = p_list[0]
    nb = FourierBasis(base_p, cutoff).size
    coeffs = init_coefficients(np.random.default_rng(0), (channels, 1, nb), 1, base_p)
    radius = base_size * base_mesh / 2.0
    fields = [synthetic_field(s, radius, n_patches=4) for s in np.random.SeedSequence(0).spawn(image_count)]
    means = []
    for p in p_list:
        if (p - 1) % (base_p - 1):
            raise ValueError(f"{p - 1} taps must be a multiple of the base {base_p - 1}")
        scale = (p - 1) // (base_p - 1)
        h = base_mesh / scale
        size = base_size * scale
        images = [sample_field(f, size, size, h) for f in fields]
        net = NetworkSpec([Lift(1, channels, t, FourierBasis(p, cutoff), coeffs), OrientationPool()])
        report = measure_equivariance(net, images, angles=[2.0 * math.pi / t])
        means.append(report.mean_error)
    return means


def full_grid_field(field, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """A synthetic field's terms at every point (x, y), scaled and then tapered,
    so points outside the taper disk read terms * 0.0, which may be -0.0."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    r = np.hypot(x, y)
    out = field._terms(x, y, r)
    out *= field.scale
    return out * quintic_falloff(r, _DISK_INNER * field.domain_radius, _DISK_OUTER * field.domain_radius)


def count_conv_calls(monkeypatch, name: str) -> collections.Counter:
    """Count calls of conv method `name` per layer (keyed by id). It is patched
    on Lift and GroupConv, where callers, and a span tracer, look it up."""
    calls = collections.Counter()
    for cls in (Lift, GroupConv):
        original = getattr(cls, name)

        def counted(self, *args, original=original):
            calls[id(self)] += 1
            return original(self, *args)

        monkeypatch.setattr(cls, name, counted)
    return calls


def per_image_train(net: NetworkSpec, pairs, opt, epochs: int) -> list[float]:
    """train_denoiser's loss trace by the per-image route: every image's local
    gradient is chained onto the coefficients before the images' gradients are
    summed. Updates `net` in place.
    """

    def epoch_pass() -> tuple[float, dict]:
        total, acc = 0.0, {}
        for clean, noisy in pairs:
            out, tape = forward_with_tape(net, noisy)
            loss, dpred = mse_loss(noisy.data + out.data, clean.data)
            total += loss
            for key, val in chain_grads(net.layers, backward(tape, dpred)).items():
                acc[key] = acc.get(key, 0.0) + val
        return total / len(pairs), {k: v / len(pairs) for k, v in acc.items()}

    trace = []
    for _ in range(epochs):
        loss, grads = epoch_pass()
        trace.append(loss)
        opt.apply(net, grads)
    trace.append(sum(mse_loss(n.data + forward(net, n).data, c.data)[0] for c, n in pairs) / len(pairs))
    return trace


def net_loss(net, x: PlanarImage, target: np.ndarray) -> float:
    return mse_loss(forward(net, x).data, target)[0]


def directional_grad_check(net, x: PlanarImage, target: np.ndarray, rng, step: float = 1e-5):
    """Relative error between backward() and a central finite difference along
    one random parameter direction. Returns (relative_error, analytic, numeric)."""
    out, tape = forward_with_tape(net, x)
    _, dpred = mse_loss(out.data, target)
    grads = chain_grads(net.layers, backward(tape, dpred))

    params = parameters(net)
    direction = {}
    norm_sq = 0.0
    for idx, name, arr in params:
        d = rng.standard_normal(arr.shape)
        direction[(idx, name)] = d
        norm_sq += float(np.sum(d * d))
    scale = 1.0 / np.sqrt(norm_sq)

    analytic = 0.0
    for key, d in direction.items():
        if key in grads:
            analytic += float(np.sum(grads[key] * d)) * scale

    def shifted_loss(sign: float) -> float:
        for idx, name, arr in params:
            arr += sign * step * scale * direction[(idx, name)]
        try:
            return net_loss(net, x, target)
        finally:
            for idx, name, arr in params:
                arr -= sign * step * scale * direction[(idx, name)]

    numeric = (shifted_loss(+1.0) - shifted_loss(-1.0)) / (2.0 * step)
    denom = max(abs(analytic), abs(numeric), 1e-12)
    return abs(analytic - numeric) / denom, analytic, numeric


def sample_grad_config(family: str, rng):
    """One random (net, input, target) triple for a gradient check of `family`.

    Inputs are resampled while any ReLU pre-activation sits within 1e-3 of its
    kink, where a central difference would straddle the nondifferentiable point.
    """
    size = int(rng.integers(7, 11))
    if family == "plain_conv":
        # the t=1 chain: no orientation fiber, the map of a plain CNN
        c = int(rng.integers(1, 4))
        basis = FourierBasis(3, 1)
        net = NetworkSpec(
            [
                Lift(1, c, 1, basis, 0.5 * rng.standard_normal((c, 1, basis.size))),
                Bias(0.1 * rng.standard_normal(c)),
                ReLU(),
                GroupConv(c, 1, basis, 0.5 * rng.standard_normal((1, c, 1, basis.size))),
                OrientationPool(),
            ]
        )
        out_shape = (size, size, 1)
    elif family == "lift":
        t = int(rng.choice([1, 2, 3, 4, 6]))
        c = int(rng.integers(1, 4))
        p, cutoff = (3, 1) if rng.random() < 0.5 else (5, 2)
        basis = FourierBasis(p, cutoff)
        net = NetworkSpec([Lift(1, c, t, basis, 0.5 * rng.standard_normal((c, 1, basis.size))), OrientationPool()])
        out_shape = (size, size, c)
    elif family == "group_conv":
        t = int(rng.choice([1, 2, 3, 4]))
        c = int(rng.integers(1, 3))
        basis = FourierBasis(3, 1)
        net = NetworkSpec(
            [
                Lift(1, c, t, basis, 0.5 * rng.standard_normal((c, 1, basis.size))),
                Bias(0.1 * rng.standard_normal(c)),
                ReLU(),
                GroupConv(c, c, basis, 0.5 * rng.standard_normal((c, c, t, basis.size))),
                OrientationPool(),
            ]
        )
        out_shape = (size, size, c)
    elif family == "pooled":
        t = int(rng.choice([1, 2, 4]))
        c = int(rng.integers(2, 4))
        net = make_audit_net(t, channels=c, n_conv=2, p=3, cutoff=1, seed=int(rng.integers(2**31)))
        out_shape = (size, size, c)
    elif family == "residual":
        t = int(rng.choice([1, 2, 4]))
        net = init_network(
            make_denoiser_net(t, channels=2, p=3, cutoff=1), seed=int(rng.integers(2**31))
        )
        out_shape = (size, size, 1)
    else:
        raise ValueError(f"unknown family {family}")

    for layer in net.layers:
        # factory nets come with zero biases; a nonzero shift keeps border
        # pre-activations (exact zeros from dead-ReLU patches) off the kink
        if isinstance(layer, Bias):
            layer.values[:] = 0.05 * rng.standard_normal(layer.values.shape)

    best_x, best_gap = None, -np.inf
    for _ in range(50):
        x = PlanarImage(rng.standard_normal((size, size, 1)))
        gap = min_relu_gap(net, x)
        if gap > best_gap:
            best_x, best_gap = x, gap
        if gap >= 1e-3:
            break
    return net, best_x, rng.standard_normal(out_shape)


def min_relu_gap(net, x: PlanarImage) -> float:
    """Smallest |pre-activation| any ReLU in the net sees on input x."""
    value = x.data
    activations = []
    banks = weight_banks(net)
    gap = np.inf
    for idx, layer in enumerate(net.layers):
        if isinstance(layer, ReLU):
            gap = min(gap, float(np.min(np.abs(value))))
        value = layer.forward(value, activations, *([banks[idx]] if idx in banks else []))
        activations.append(value)
    return gap
