"""Rotation-equivariant network layers over a cyclic group of order t.

A lifting convolution correlates a planar image with t rotated copies of each
continuous filter, producing an orientation fiber. Group convolutions mix
orientations with filters sampled at relative angles, storing 1/t of the
parameters of the equivalent plain convolution. Orientation pooling (mean)
returns to the planar domain. All convolutions are stride-1 correlations with
zero padding (SAME size); equivariance metrics crop the receptive ring.

Each layer kind is one class that carries all of its rules; the chain check,
forward pass (taped or not), reverse pass, parameter list, init and EQCK
serialization are plain loops over these methods:

- ``check(states, t, last)``: the chain state ("planar"|"group", channels)
  after this layer, given the states so far (``states[0]`` is the network
  input, ``states[-1]`` this layer's input); raises ValueError on a bad chain.
- ``reads``: the indices of earlier layers whose outputs this layer reads
  (default none); a pass keeps a layer's output beyond the next layer only
  when some layer lists it here.
- ``forward(value, activations)``: ``(output, saved)``, given the layer input
  and the kept outputs of earlier layers (``activations[i]`` for each i in
  ``reads``); ``saved`` holds exactly what ``grads`` and ``backward`` need (a
  conv's input and bank, a ReLU's output, the pooled orientation count, else
  None). A convolution also takes its weight bank as a third argument.
- ``grads(g, saved)``: ``{param name: local gradient}`` given the output
  gradient (default none). The local gradient is linear in ``g``; for a
  convolution it is the gradient w.r.t. its weight bank (the taps), for a bias
  the gradient w.r.t. its values.
- ``chain(name, local)``: the parameter gradient from a local gradient, or from
  a sum of them (default: the local gradient itself); a convolution chains its
  taps through the sampled basis onto its Fourier coefficients.
- ``backward(g, saved, pending)``: the gradient w.r.t. the layer input; a
  residual also adds its gradient to ``pending[skip]``. The reverse pass asks
  every layer but the first for it: nothing reads the network-input gradient.
- ``params()`` and ``init(rng)``: the trainable arrays as (name, array) and
  their He-style initialization.
- ``kind``, ``to_header()`` and ``from_header(spec, payload, offset)``: the
  layer's EQCK v1 header entry; ``from_header`` returns the layer and the
  payload offset after its arrays.

``NetworkSpec(layers)`` is the one place that knows what a prox network is: a
nonempty chain that maps images to images, so a group chain ends in an
``OrientationPool``. Its order t (the ``check`` argument) is its ``Lift``'s
order, or 1 without a ``Lift``; every ``GroupConv`` must match it.

Inside a pass, values are bare float64 arrays: (H, W, C) for a planar map and
(H, W, t, C) for a group map. Only the pass itself (``_pass``) knows about
``PlanarImage``: it checks the input's channel count, checks every layer output
for non-finite entries, and wraps the final output.

Convolutions also carry ``basis``, ``coeffs``, ``fan_in`` and ``weights()``;
their channel counts are the shape of ``coeffs``.
A weight bank is a function of the coefficients alone, so a net builds its
banks on first use and again after any coefficient change (``weight_banks``),
when it also checks its chain again; every pass takes them from there. A bank
is the conv's (n*Cin, p, p, t*Cout) ``weights()``, except that the conv the
final ``OrientationPool`` reads gets the (n*Cin, p, p, Cout) mean of its t
output-orientation blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .filters import FourierBasis, basis_stack, init_coefficients
from .grids import NonFiniteError, PlanarImage, _check_int


# Floor, in bytes, on one band's im2col patch matrix in _correlate_im2col.
# Cache-sized: each band is copied into a buffer and read back by its GEMM while
# it still sits in the per-core L2 (2 MiB), instead of the GEMM streaming a patch
# matrix of several MiB back from memory. The 16-channel, p = 5 convs at 32x32
# and 64x64 lower 200 KiB per band; a patch matrix under twice the floor (sr's
# blur-downsample, the 32x32 lift) stays one band. Floors from 160 to 384 KiB
# trained at the same speed, and the gain fell away from 512 KiB up.
_BAND_BYTES = 160 * 2**10


def correlate_stack(arr: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Correlate (H, W, Cin) with a (Cin, p, p, Cout) weight bank, zero padding, SAME size.

    Two routes, chosen by the weight bank's shape alone: tiled DFT-matrix
    overlap-save (``_correlate_fft``) when Cin > 1 and p >= 9, where it needs
    far fewer flops than im2col, and banded im2col (``_correlate_im2col``)
    otherwise, where the tile transforms cost more than the GEMM they save.
    """
    if weights.shape[0] > 1 and weights.shape[1] >= 9:
        return _correlate_fft(arr, weights)
    return _correlate_im2col(arr, weights)


def _correlate_im2col(arr: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Banded im2col lowering: output rows are lowered a band at a time, and each
    band is one GEMM over K = p*p*Cin in (u, v, Cin) order, written into the
    matching rows of one preallocated output. The input is channels-last, so
    each patch row is p runs of p*Cin contiguous values. When the full (H*W, K)
    patch matrix holds n = bytes // ``_BAND_BYTES`` floors, there are
    ``H // ceil(H / n)`` bands of near-equal row count (one band when n <= 1),
    each at least ``ceil(H / n)`` rows, so every band's patch matrix holds at
    least ``_BAND_BYTES`` and no band is a sliver. The working set is one band
    buffer, allocated once per call for the largest band and refilled for each
    band; it is under 3 * ``_BAND_BYTES`` (or one image row's patches, when one
    row alone is larger), not the whole matrix. A band's GEMM may take a
    different BLAS kernel than one GEMM over the whole matrix, so the output can
    differ from it in low bits; repeat calls are bit-identical.
    """
    p = weights.shape[1]
    m = (p - 1) // 2
    h, w, ci = arr.shape
    padded = np.zeros((h + 2 * m, w + 2 * m, ci), dtype=arr.dtype)
    padded[m : m + h, m : m + w] = arr
    s0, s1, s2 = padded.strides
    win = as_strided(padded, (h, w, p, p, ci), (s0, s1, s0, s1, s2), writeable=False)  # (H, W, u, v, Cin)
    k = ci * p * p
    n = h * w * k * win.itemsize // _BAND_BYTES
    bands = h // -(-h // n) if n > 1 else 1
    wk = weights.transpose(1, 2, 0, 3).reshape(k, -1)
    out = np.empty((h, w, wk.shape[1]), dtype=np.result_type(win, wk))
    edges = [i * h // bands for i in range(bands + 1)]
    buf = np.empty((-(-h // bands), w, p, p, ci), dtype=win.dtype)
    for r0, r1 in zip(edges, edges[1:]):
        band = buf[: r1 - r0]
        np.copyto(band, win[r0:r1])
        np.dot(band.reshape(-1, k), wk, out=out[r0:r1].reshape(-1, wk.shape[1]))
    return out


def _tap_spectrum(weights: np.ndarray, dft: np.ndarray) -> np.ndarray:
    """Conjugate n x n DFT of each zero-padded tap plane, as (n//2 + 1, n, Cin, Cout).

    `dft` is the n x n DFT matrix with the + sign, exp(2*pi*i*j*k/n). The
    leading axis holds row frequencies 0..n/2, the next one column frequencies
    0..n-1. Two GEMMs against the first p columns of `dft`, over rows then
    columns; its twiddles carry the + sign, so the conjugate that turns a
    convolution into a correlation costs nothing.
    """
    ci, p, _, co = weights.shape
    n = dft.shape[0]
    taps = dft[:, :p]
    rows = taps[: n // 2 + 1] @ weights.transpose(1, 2, 0, 3).reshape(p, -1)  # (kr, v * Cin * Cout)
    return np.matmul(taps, rows.reshape(-1, p, ci * co)).reshape(-1, n, ci, co)


def _correlate_fft(arr: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Overlap-save correlation over n x n input tiles, n = 3(p - 1), with every
    transform a GEMM against the n x n DFT matrix.

    Each tile yields s = n - p + 1 output rows and columns, the part of its
    circular correlation with the taps that never wraps. The input is processed
    one row of tiles (n image rows, zero-padded) at a time, in four steps:

    - row transform: one real GEMM of the tile row's image rows onto the
      n/2 + 1 row frequencies, before tiling, so the columns that neighbouring
      tiles share are transformed once; rows outside the image are left out of
      the GEMM, and only the zero columns of the padding are written;
    - column transform: one complex GEMM per tile (overlapping views of the
      transformed rows) onto all n column frequencies;
    - per frequency, one (tiles x Cin) @ (Cin x Cout) complex product with the
      tap spectrum;
    - a pruned inverse: one complex GEMM onto the s kept columns, then the
      complex-to-real row inverse onto the s kept rows, with the Hermitian
      weights 1/n (frequencies 0 and n/2) and 2/n (the others), whose real part
      is copied into the preallocated output.

    The transforms write into two buffers allocated once per call, which the
    steps use in turn, so the working set is the tap spectrum
    ((n/2 + 1) * n * Cin * Cout complex values, built from ``weights`` on every
    call), the output and two tile-row buffers. Outputs agree with im2col to
    rounding (about 1e-15 relative), and repeat calls are bit-identical.
    """
    h, w, ci = arr.shape
    p, co = weights.shape[1], weights.shape[3]
    m = (p - 1) // 2
    n = 3 * (p - 1)
    s = n - p + 1
    kr = n // 2 + 1
    cols = -(-w // s)
    k = np.arange(n)
    # j*k is reduced mod n so each twiddle is exp of an exact multiple of 2*pi/n
    dft = np.exp(2j * np.pi * (np.outer(k, k) % n) / n)  # + sign: the inverse DFT times n
    spec = _tap_spectrum(weights, dft)  # (kr, kc, Cin, Cout)
    fwd = dft.conj()  # the forward DFT
    # forward row frequencies 0..n/2 as real columns (Re, Im interleaved), so a
    # real GEMM writes them straight into a complex array
    row_fwd = np.ascontiguousarray(fwd[:kr].T).view(np.float64)  # (n, 2 * kr)
    col_inv = dft[:s] / n  # (s, kc)
    row_inv = dft[:s, :kr] * np.where(2 * k[:kr] % n, 2.0, 1.0) / n  # (s, kr)
    # two buffers, used in turn: each step reads one and writes the other
    wide = cols * s + p - 1  # zero-padded tile row width
    buf_a = np.empty(max(w * ci * kr, cols * n * kr * ci, s * kr * cols * co), dtype=complex)
    buf_b = np.empty(max(wide * kr * ci, n * kr * cols * co, s * s * cols * co), dtype=complex)
    half = buf_a[: w * ci * kr].reshape(w, ci, kr)  # row transform, (image col, Cin, kr)
    rows = buf_b[: wide * kr * ci].reshape(wide, kr, ci)  # the same, zero-padded and reordered
    rs = rows.strides
    tiles = as_strided(rows, (cols, n, kr * ci), (s * rs[0], rs[0], rs[2]))  # (tile, col, kr * Cin)
    freq = buf_a[: cols * n * kr * ci].reshape(cols, n, kr, ci)  # (tile, kc, kr, Cin)
    prod = buf_b[: n * kr * cols * co].reshape(n, kr, cols, co)  # (kc, kr, tile, Cout)
    y_cols = buf_a[: s * kr * cols * co].reshape(s, kr, cols * co)  # (out col, kr, tile * Cout)
    y = buf_b[: s * s * cols * co].reshape(s, s, cols * co)  # (out col, out row, tile * Cout)
    y_real = y.real.reshape(s, s, cols, co)
    out = np.empty((h, w, co))
    full, rem = divmod(w, s)  # whole tiles inside the image, and the last one's width
    for r0 in range(0, h, s):
        lo, hi = max(m - r0, 0), min(h + m - r0, n)  # tile rows that fall inside the image
        image_rows = arr[r0 - m + lo : r0 - m + hi].reshape(hi - lo, w * ci)
        np.matmul(image_rows.T, row_fwd[lo:hi], out=half.view(np.float64).reshape(w * ci, 2 * kr))
        rows[:m] = 0.0
        np.copyto(rows[m : m + w], half.transpose(0, 2, 1))
        rows[m + w :] = 0.0
        np.matmul(fwd, tiles, out=freq.reshape(cols, n, kr * ci))
        np.matmul(freq.transpose(2, 1, 0, 3), spec, out=prod.transpose(1, 0, 2, 3))
        np.matmul(col_inv, prod.reshape(n, -1), out=y_cols.reshape(s, -1))
        np.matmul(row_inv, y_cols, out=y)
        r1 = min(r0 + s, h)
        band, kept = out[r0:r1], y_real[:, : r1 - r0]
        band[:, : full * s].reshape(r1 - r0, full, s, co)[...] = kept[:, :, :full].transpose(1, 2, 0, 3)
        if rem:
            band[:, full * s :] = kept[:rem, :, full].transpose(1, 0, 2)
    return out


def _angle(o: int, t: int) -> float:
    # 0.0 at o=0 exactly, so slice 0 samples the unrotated basis
    return 2.0 * np.pi * o / t if o else 0.0


def _conv_backward_weights(x: np.ndarray, g: np.ndarray, p: int) -> np.ndarray:
    """(S, p, p, Co) tap gradient of a SAME correlation of (H, W, S) by a (S, p, p, Co) bank.

    x is zero-padded to rows of Wp = W + 2m values (plus one spare row) and g is
    zero-extended to Wp columns, both flattened over pixels. Tap (u, v) is then
    one GEMM over a contiguous slice of x, starting u*Wp + v pixels in; the
    extra columns meet a zero gradient.
    """
    m = p // 2
    h, wd, slices = x.shape
    wp = wd + 2 * m
    xp = np.zeros((h + 2 * m + 1, wp, slices), dtype=x.dtype)
    xp[m : m + h, m : m + wd] = x
    gp = np.zeros((h, wp, g.shape[2]), dtype=g.dtype)
    gp[:, :wd] = g
    xf = xp.reshape(-1, slices)
    gf = gp.reshape(-1, g.shape[2])
    dw = np.empty((slices, p, p, g.shape[2]))
    for u in range(p):
        for v in range(p):
            o = u * wp + v
            dw[:, u, v, :] = xf[o : o + h * wp].T @ gf
    return dw


def _header_ints(spec: dict, *keys: str) -> list[int]:
    """Integer fields of one EQCK layer entry; a missing, non-integer or negative field is a ValueError."""
    values = [spec.get(key) for key in keys]
    for key, v in zip(keys, values):
        _check_int(f"checkpoint {spec['kind']} layer: {key!r}", v, 0)
    return values


def _take(payload: np.ndarray, offset: int, shape: tuple[int, ...]) -> tuple[np.ndarray, int]:
    n = math.prod(shape)
    if payload.size - offset < n:
        raise ValueError("checkpoint payload truncated")
    return payload[offset : offset + n].reshape(shape).copy(), offset + n


class Layer:
    """Defaults for the layer protocol (see the module docstring): no parameters, nothing taped."""

    kind = ""
    reads: tuple[int, ...] = ()

    def params(self) -> list[tuple[str, np.ndarray]]:
        return []

    def init(self, rng: np.random.Generator) -> None:
        pass

    def grads(self, g, saved) -> dict[str, np.ndarray]:
        return {}

    def chain(self, name: str, local: np.ndarray) -> np.ndarray:
        return local

    def to_header(self) -> dict:
        return {"kind": self.kind}

    @classmethod
    def from_header(cls, spec: dict, payload: np.ndarray, offset: int):
        return cls(), offset


class _Conv(Layer):
    """One body for Lift (a group conv with n = 1 input orientation) and GroupConv (n = t).

    Coefficients are viewed as (Co, Ci, n, nb); output orientation o_out reads input
    orientation o_in through offset (o_in - o_out) mod n, sampled at o_out's angle.
    """

    def __post_init__(self):
        self.coeffs = np.ascontiguousarray(self.coeffs, dtype=np.float64)
        shape, axes = self.coeffs.shape, self.coeff_axes
        if len(shape) != len(axes) or shape[-1] != self.basis.size or 0 in shape:
            raise ValueError(
                f"{self.kind} coeffs shape {shape}: need ({', '.join(axes)}) axes, "
                f"each >= 1, the last of basis size {self.basis.size}"
            )

    @property
    def out_channels(self) -> int:
        return self.coeffs.shape[0]

    @property
    def in_channels(self) -> int:
        return self.coeffs.shape[1]

    @property
    def fan_in(self) -> int:
        return self.in_orientations * self.in_channels

    def params(self) -> list[tuple[str, np.ndarray]]:
        return [("coeffs", self.coeffs)]

    def init(self, rng: np.random.Generator) -> None:
        self.coeffs = init_coefficients(rng, self.coeffs.shape, self.fan_in, self.basis.filter_size)

    def weights(self) -> np.ndarray:
        """(n*Cin, p, p, t*Cout), both channel axes flattened orientation-major."""
        n, t, co, ci = self.in_orientations, self.group_order, self.out_channels, self.in_channels
        p = self.basis.filter_size
        coeffs = self.coeffs.reshape(co, ci, n, -1)
        out = np.empty((n * ci, p, p, t * co))
        offsets = np.arange(n)
        for o_out in range(t):
            stack = basis_stack(self.basis, _angle(o_out, t))
            sel = coeffs[:, :, (offsets - o_out) % n, :]  # (Co, Ci, n, nb)
            taps = np.tensordot(sel, stack, axes=([3], [0]))  # (Co, Ci, n, p, p)
            block = taps.transpose(2, 1, 3, 4, 0).reshape(n * ci, p, p, co)
            out[:, :, :, o_out * co : (o_out + 1) * co] = block
        return out

    def forward(self, value, activations, bank):
        # looked up at call time: a span tracer patches these module globals
        conv = lift_conv if isinstance(self, Lift) else group_conv
        return conv(value, self, bank), (value, bank)

    def grads(self, g, saved):
        x, _ = saved
        flat = x.reshape(*x.shape[:2], -1)
        return {"coeffs": _conv_backward_weights(flat, g.reshape(*g.shape[:2], -1), self.basis.filter_size)}

    def chain(self, name, dw):
        """Chain tap gradients through the sampled basis onto Fourier coefficients.

        `dw` is the gradient w.r.t. either bank ``weight_banks`` builds: the full
        (n*Cin, p, p, t*Cout) one, or the orientation-mean (n*Cin, p, p, Cout)
        one, whose gradient reaches every output-orientation block as dw / t.
        """
        n, t, co, ci = self.in_orientations, self.group_order, self.out_channels, self.in_channels
        p = self.basis.filter_size
        if dw.shape[3] != t * co:
            dw = np.tile(dw / t, t)
        offsets = np.arange(n)
        grad = np.zeros((co, ci, n, self.basis.size))
        for o_out in range(t):
            stack = basis_stack(self.basis, _angle(o_out, t))
            dblock = dw[:, :, :, o_out * co : (o_out + 1) * co]
            dtaps = dblock.reshape(n, ci, p, p, co).transpose(4, 1, 0, 2, 3)
            dsel = np.tensordot(dtaps, stack, axes=([3, 4], [1, 2]))  # (Co, Ci, n, nb)
            grad[:, :, (offsets - o_out) % n, :] += dsel
        return grad.reshape(self.coeffs.shape)

    def backward(self, g, saved, pending):
        # the adjoint of a correlation is the correlation with the flipped, transposed bank
        x, w = saved
        flat = g.reshape(*g.shape[:2], -1)
        return correlate_stack(flat, w[:, ::-1, ::-1, :].transpose(3, 1, 2, 0)).reshape(x.shape)

    def to_header(self) -> dict:
        return {
            "kind": self.kind,
            "in_channels": self.in_channels,
            "out_channels": self.out_channels,
            "group_order": self.group_order,
            "filter_size": self.basis.filter_size,
            "cutoff": self.basis.cutoff,
        }

    @staticmethod
    def _header_fields(spec: dict) -> tuple[int, int, int, FourierBasis]:
        keys = ("in_channels", "out_channels", "group_order", "filter_size", "cutoff")
        ci, co, t, p, cutoff = _header_ints(spec, *keys)
        return ci, co, t, FourierBasis(p, cutoff)


@dataclass(eq=False)
class Lift(_Conv):
    """Planar -> group feature map; orientation slice o uses filters rotated by 2*pi*o/t."""

    group_order: int
    basis: FourierBasis
    coeffs: np.ndarray  # (out, in, basis size)

    kind = "lift"
    coeff_axes = ("out", "in", "basis")
    in_orientations = 1

    def __post_init__(self):
        _check_int("group order", self.group_order, 1)
        self.group_order = int(self.group_order)
        super().__post_init__()

    def check(self, states, t, last):
        kind, c = states[-1]
        if kind != "planar":  # only a Lift leaves the planar domain, and only a final pool returns
            raise ValueError("second Lift in one network")
        if c is not None and c != self.in_channels:
            raise ValueError(f"Lift expects {self.in_channels} channels, chain has {c}")
        return ("group", self.out_channels)

    @classmethod
    def from_header(cls, spec, payload, offset):
        ci, co, t, basis = cls._header_fields(spec)
        coeffs, offset = _take(payload, offset, (co, ci, basis.size))
        return cls(t, basis, coeffs), offset


@dataclass(eq=False)
class GroupConv(_Conv):
    """Group -> group feature map via cyclic group correlation.

    coeffs[c_out, c_in, d, :] parametrizes the filter applied to input orientation
    o_in = (o_out + d) mod t when producing output orientation o_out, sampled at
    the output orientation's angle.
    """

    basis: FourierBasis
    coeffs: np.ndarray  # (out, in, t, basis size)

    kind = "group_conv"
    coeff_axes = ("out", "in", "t", "basis")

    @property
    def group_order(self) -> int:
        return self.coeffs.shape[2]

    @property
    def in_orientations(self) -> int:
        return self.group_order

    def check(self, states, t, last):
        kind, c = states[-1]
        if kind != "group":
            raise ValueError("GroupConv needs a group feature map (add a Lift first)")
        if c != self.in_channels:
            raise ValueError(f"GroupConv expects {self.in_channels} channels, chain has {c}")
        if self.group_order != t:
            raise ValueError(f"GroupConv group order {self.group_order} != network order {t}")
        return ("group", self.out_channels)

    @classmethod
    def from_header(cls, spec, payload, offset):
        ci, co, t, basis = cls._header_fields(spec)
        coeffs, offset = _take(payload, offset, (co, ci, t, basis.size))
        return cls(basis, coeffs), offset


@dataclass(eq=False)
class Bias(Layer):
    """One scalar per base channel, shared across the orientation fiber."""

    values: np.ndarray

    kind = "bias"

    def __post_init__(self):
        self.values = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if self.values.ndim != 1:
            raise ValueError(f"bias values must be 1D, got shape {self.values.shape}")

    @property
    def channels(self) -> int:
        return self.values.shape[0]

    def params(self) -> list[tuple[str, np.ndarray]]:
        return [("values", self.values)]

    def init(self, rng: np.random.Generator) -> None:
        self.values = np.zeros_like(self.values)

    def check(self, states, t, last):
        c = states[-1][1]
        if c is None:
            raise ValueError("Bias before any convolution")
        if self.channels != c:
            raise ValueError(f"Bias has {self.channels} values, chain has {c} channels")
        return states[-1]

    def forward(self, value, activations):
        # one add over the (H, W, t*C) view, the values tiled over the fiber: a
        # broadcast over a group map's short C axis is about 3x slower
        flat = value.reshape(*value.shape[:2], -1)
        return (flat + np.tile(self.values, flat.shape[2] // self.channels)).reshape(value.shape), None

    def grads(self, g, saved):
        return {"values": g.sum(axis=tuple(range(g.ndim - 1)))}

    def backward(self, g, saved, pending):
        return g

    def to_header(self) -> dict:
        return {"kind": self.kind, "channels": self.channels}

    @classmethod
    def from_header(cls, spec, payload, offset):
        values, offset = _take(payload, offset, tuple(_header_ints(spec, "channels")))
        return cls(values), offset


@dataclass(eq=False)
class ReLU(Layer):
    kind = "relu"

    def check(self, states, t, last):
        if states[-1][1] is None:
            raise ValueError("ReLU before any convolution")
        return states[-1]

    def forward(self, value, activations):
        out = np.maximum(value, 0.0)
        return out, out

    def backward(self, g, saved, pending):
        # the output is positive exactly where the input is
        return g * (saved > 0.0)


@dataclass(eq=False)
class ResidualAdd(Layer):
    """Adds the output of earlier layer `skip`."""

    skip: int

    kind = "residual_add"

    @property
    def reads(self) -> tuple[int, ...]:
        return (self.skip,)

    def check(self, states, t, last):
        state = states[-1]
        if not 0 <= self.skip < len(states) - 1:
            raise ValueError(f"residual skip {self.skip} out of range")
        if states[self.skip + 1] != state:
            raise ValueError(f"residual shapes differ, {states[self.skip + 1]} vs {state}")
        return state

    def forward(self, value, activations):
        return value + activations[self.skip], None

    def backward(self, g, saved, pending):
        pending[self.skip] = pending.get(self.skip, 0.0) + g
        return g

    def to_header(self) -> dict:
        return {"kind": self.kind, "skip": self.skip}

    @classmethod
    def from_header(cls, spec, payload, offset):
        return cls(*_header_ints(spec, "skip")), offset


@dataclass(eq=False)
class OrientationPool(Layer):
    """Mean over the orientation axis; group feature map -> planar image."""

    kind = "orientation_pool"

    def check(self, states, t, last):
        kind, c = states[-1]
        if kind != "group":
            raise ValueError("OrientationPool needs a group feature map")
        if not last:
            raise ValueError("OrientationPool must be the last layer")
        return ("planar", c)

    def forward(self, value, activations):
        return value.mean(axis=2), value.shape[2]

    def backward(self, g, saved, pending):
        t = saved
        return np.repeat((g / t)[:, :, None, :], t, axis=2)


LAYER_KINDS = {cls.kind: cls for cls in (Lift, GroupConv, Bias, ReLU, ResidualAdd, OrientationPool)}


@dataclass(eq=False)
class NetworkSpec:
    """Validated layer chain from images to images; checked here, not at forward time."""

    layers: list

    def __post_init__(self):
        _validate_chain(self.layers, self.group_order)
        self._banks = (None, {})  # (coefficient shapes and bytes, banks); see weight_banks

    @property
    def group_order(self) -> int:
        """The Lift's group order; 1 for a chain without a Lift."""
        return next((l.group_order for l in self.layers if isinstance(l, Lift)), 1)

    @property
    def receptive_radius(self) -> int:
        return sum((l.basis.filter_size - 1) // 2 for l in self.conv_layers)

    @property
    def conv_layers(self) -> list:
        return [l for l in self.layers if hasattr(l, "basis")]

    @property
    def out_channels(self) -> int:
        # only a conv changes the channel count
        return self.conv_layers[-1].out_channels

    def read_outputs(self) -> frozenset[int]:
        """Indices of the layers whose outputs a later layer reads."""
        return frozenset(i for layer in self.layers for i in layer.reads)


def _validate_chain(layers, t: int) -> None:
    """Check the chain states, the network input's (channels fixed by the first conv) and then
    each layer's; a ValueError names the first layer that breaks the chain."""
    if not layers:
        raise ValueError("a network needs at least one layer")
    states = [("planar", None)]
    for idx, layer in enumerate(layers):
        if not hasattr(layer, "check"):
            raise ValueError(f"layer {idx}: unknown layer {layer!r}")
        try:
            states.append(layer.check(states, t, idx == len(layers) - 1))
        except ValueError as exc:
            raise ValueError(f"layer {idx}: {exc}") from None
    if states[-1][0] != "planar":
        raise ValueError("a network maps images to images: end a group chain with an OrientationPool")


def lift_conv(x: np.ndarray, layer: Lift, weights: np.ndarray) -> np.ndarray:
    """(H, W, Cin) planar map -> (H, W, t, Cout) group map, with weight bank `weights`
    (layer.weights()); an orientation-mean bank (see ``weight_banks``) gives (H, W, 1, Cout)."""
    return correlate_stack(x, weights).reshape(*x.shape[:2], -1, layer.out_channels)


def group_conv(f: np.ndarray, layer: GroupConv, weights: np.ndarray) -> np.ndarray:
    """(H, W, t, Cin) group map -> (H, W, t, Cout), with weight bank `weights`
    (layer.weights()); an orientation-mean bank (see ``weight_banks``) gives (H, W, 1, Cout)."""
    return correlate_stack(f.reshape(*f.shape[:2], -1), weights).reshape(*f.shape[:2], -1, layer.out_channels)


def weight_banks(net: NetworkSpec) -> dict[int, np.ndarray]:
    """Each conv's weight bank by layer index, for the net's current coefficients.

    A conv's bank is ``layer.weights()``, (n*Cin, p, p, t*Cout), except for the
    conv the final ``OrientationPool`` reads: its bank is the mean of the t
    output-orientation blocks, (n*Cin, p, p, Cout). The pool is linear and every
    block reads the same input, so mean_o(x * W_o) = x * mean_o(W_o); that conv
    computes Cout channels instead of t*Cout, and the pool averages a fiber of
    one. The net keeps the banks, read-only, with the shapes and bytes of the
    coefficients they were built from, and builds new ones when any of those
    differ: after an optimizer step, ``init_network`` or an assignment to
    ``coeffs``. It checks the chain again first, so an assignment that breaks it
    raises a ValueError naming the layer.
    """
    convs = [(idx, layer) for idx, layer in enumerate(net.layers) if isinstance(layer, _Conv)]
    key = tuple((layer.coeffs.shape, layer.coeffs.tobytes()) for _, layer in convs)
    if net._banks[0] == key:
        return net._banks[1]
    _validate_chain(net.layers, net.group_order)
    last = len(net.layers) - 1
    banks = {}
    for idx, layer in convs:
        w = layer.weights()
        if idx == last - 1 and isinstance(net.layers[last], OrientationPool):
            w = w.reshape(*w.shape[:3], layer.group_order, layer.out_channels).mean(axis=3)
        w.flags.writeable = False
        banks[idx] = w
    net._banks = (key, banks)
    return banks


def _pass(net: NetworkSpec, x: PlanarImage, entries: list | None = None):
    """The layer loop of ``forward`` and ``training.forward_with_tape``: with an
    `entries` list, each layer's (layer, saved) is appended to it; without one,
    each ``saved`` is dropped before the next layer runs.

    Layers see bare arrays; a layer output with a NaN or an infinite entry
    raises NonFiniteError naming the layer, and the final output is wrapped
    once, on the input's mesh.
    """
    if x.channels != net.layers[0].in_channels:
        raise ValueError(f"image has {x.channels} channels, network expects {net.layers[0].in_channels}")
    value = x.data
    keep = net.read_outputs()
    activations = {}
    banks = weight_banks(net)
    for idx, layer in enumerate(net.layers):
        value, saved = layer.forward(value, activations, *([banks[idx]] if idx in banks else []))
        if entries is not None:
            entries.append((layer, saved))
        if not np.isfinite(value).all():
            raise NonFiniteError(f"layer {idx} ({layer.kind}) output contains non-finite entries")
        if idx in keep:
            activations[idx] = value
        del saved  # an untaped pass holds no layer's input into the next layer
    return PlanarImage(value, mesh=x.mesh)


def forward(net: NetworkSpec, x: PlanarImage) -> PlanarImage:
    """Run the network on an image."""
    return _pass(net, x)


def parameters(net: NetworkSpec) -> list[tuple[int, str, np.ndarray]]:
    """Trainable arrays as (layer index, name, array) in a fixed order."""
    return [(idx, name, arr) for idx, layer in enumerate(net.layers) for name, arr in layer.params()]


def init_network(net: NetworkSpec, seed: int) -> NetworkSpec:
    """He-style coefficient init (variance 2/(fan-in slices * p^2)); biases start at 0."""
    rng = np.random.default_rng(seed)
    for layer in net.layers:
        layer.init(rng)
    return net


def make_audit_net(
    t: int,
    channels: int = 4,
    n_conv: int = 3,
    p: int = 5,
    cutoff: int = 2,
    seed: int = 0,
) -> NetworkSpec:
    """Lift -> (Bias, ReLU, GroupConv) x (n_conv - 1) -> OrientationPool, random weights."""
    _check_int("channels", channels, 1)
    _check_int("n_conv", n_conv, 1)
    basis = FourierBasis(p, cutoff)
    nb = basis.size
    layers: list = [Lift(t, basis, np.zeros((channels, 1, nb)))]
    for _ in range(n_conv - 1):
        layers.append(Bias(np.zeros(channels)))
        layers.append(ReLU())
        layers.append(GroupConv(basis, np.zeros((channels, channels, t, nb))))
    layers.append(OrientationPool())
    return init_network(NetworkSpec(layers), seed)


def make_sweep_net(
    t: int,
    channels: int = 3,
    seed: int = 0,
) -> NetworkSpec:
    """Audit net for group-order sweeps: the filter bandwidth widens with depth
    (cutoff 2 lift, then two cutoff-4 group convs) so the cascade's compounded
    angular selectivity reaches past the finest audited group order. Narrow-band
    nets are blind to the gap between large t values; this family is not.

    For a fixed seed, nets at different t share their coefficient draws: group
    conv coefficients are drawn once at 24 orientation offsets (the master
    order) and each t keeps the offsets on its own angle grid. Sweeps across t
    then compare structurally nested nets instead of independent random draws,
    which removes most net-to-net jitter from the comparison. Requires t to
    divide 24; any other t falls back to independent draws.
    """
    _check_int("channels", channels, 1)
    b_lift = FourierBasis(5, 2)
    b_deep = FourierBasis(9, 4)
    c = channels
    rng = np.random.default_rng(seed)
    lift_coeffs = init_coefficients(rng, (c, 1, b_lift.size), 1, 5)
    lift = Lift(t, b_lift, lift_coeffs)  # rejects t < 1 before the 24 % t below
    if 24 % t == 0:
        gc_shape = (c, c, 24, b_deep.size)
        gc1 = init_coefficients(rng, gc_shape, t * c, 9)[:, :, :: 24 // t, :]
        gc2 = init_coefficients(rng, gc_shape, t * c, 9)[:, :, :: 24 // t, :]
    else:
        gc1 = init_coefficients(rng, (c, c, t, b_deep.size), t * c, 9)
        gc2 = init_coefficients(rng, (c, c, t, b_deep.size), t * c, 9)
    layers: list = [
        lift,
        Bias(np.zeros(c)),
        ReLU(),
        GroupConv(b_deep, gc1),
        Bias(np.zeros(c)),
        ReLU(),
        GroupConv(b_deep, gc2),
        OrientationPool(),
    ]
    return NetworkSpec(layers)


def make_denoiser_net(
    t: int = 4,
    channels: int = 4,
    p: int = 5,
    cutoff: int = 2,
    seed: int = 0,
) -> NetworkSpec:
    """Residual-block equivariant denoiser body, one channel in and out; final conv
    zero-init so the NeuralProx wrapper (identity + correction) starts as the
    identity map. ``init_network`` redraws that conv too, so a net passed through
    it (as by ``rotprox train``) does not start as the identity."""
    _check_int("channels", channels, 1)
    basis = FourierBasis(p, cutoff)
    nb = basis.size
    c = channels
    layers: list = [
        Lift(t, basis, np.zeros((c, 1, nb))),
        Bias(np.zeros(c)),
        ReLU(),
        GroupConv(basis, np.zeros((c, c, t, nb))),
        Bias(np.zeros(c)),
        ReLU(),
        GroupConv(basis, np.zeros((c, c, t, nb))),
        ResidualAdd(skip=2),
        Bias(np.zeros(c)),
        ReLU(),
        GroupConv(basis, np.zeros((1, c, t, nb))),
        OrientationPool(),
    ]
    net = init_network(NetworkSpec(layers), seed)
    net.layers[10].coeffs = np.zeros_like(net.layers[10].coeffs)
    return net
