"""Reverse-mode automatic differentiation over numpy arrays.

A minimal engine sized for the small convolutional models in this package.
``Tensor`` wraps an ndarray; every operation records the vector-Jacobian
products needed to backpropagate, and ``Tensor.backward`` walks the graph
once in reverse topological order. Broadcasting follows numpy; ``matmul``
is restricted to 2-D operands.

Structured ops used by the models live here too: 1-D convolution and the
decoder's upsampling convolution, each one graph node; the three nodes of an
affine coupling block (conditioning network, log-scale and affine join); row
gather with scatter-add backward; run-length column repetition; and the STFT
magnitude that the log-mel chain of :mod:`pptts.features` is built on.

A fused node computes the expressions of the op chain it replaces, in the
chain's order, and lists its parents in the order the chain's depth-first
walk reached them, so ``backward`` sums every gradient in the chain's order
and every bit matches it.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Sequence

import numpy as np

MAG_GRAD_EPS = 1e-12  # guards d|X|/dX at zero magnitude (backward only)

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the context."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """An ndarray plus the bookkeeping needed for reverse-mode autodiff.

    ``_vjps`` holds one vector-Jacobian product per parent, or, for a fused
    node (:func:`_make_fused`), one callable that returns the gradients of
    all parents at once.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjps", "_op")

    def __init__(self, data, requires_grad: bool = False):
        self.data = data if type(data) is np.ndarray else np.asarray(data)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._vjps: tuple[Callable[[np.ndarray], np.ndarray], ...] | Callable = ()
        self._op = ""

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        grad = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{grad})"

    def item(self) -> float:
        return float(self.data)

    # -- graph construction and backward -------------------------------------

    def _coerce(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(np.asarray(other, dtype=self.data.dtype))

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Accumulate gradients of ``self`` into every reachable parameter."""
        if not self.requires_grad:
            raise ValueError("backward on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward without grad requires a scalar")
            grad = np.ones_like(self.data)
        order: list[Tensor] = []
        seen = {id(self)}
        stack = [(self, iter(self._parents))]
        while stack:
            node, parents = stack[-1]
            advanced = False
            for p in parents:
                if p.requires_grad and id(p) not in seen:
                    seen.add(id(p))
                    stack.append((p, iter(p._parents)))
                    advanced = True
                    break
            if not advanced:
                order.append(node)
                stack.pop()
        self._accumulate(np.asarray(grad))
        for node in reversed(order):
            g = node.grad
            if g is None:
                continue
            vjps = node._vjps
            if callable(vjps):
                for parent, pg in zip(node._parents, vjps(g)):
                    if pg is not None:
                        parent._accumulate(pg)
                continue
            for parent, vjp in zip(node._parents, vjps):
                if parent.requires_grad:
                    parent._accumulate(vjp(g))

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            # Copy: vjps may hand back views aliasing other grads.
            self.grad = np.array(g, dtype=self.data.dtype, copy=True)
        else:
            self.grad += g

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        return _make(
            self.data + other.data,
            [
                (self, lambda g: _unbroadcast(g, self.data.shape)),
                (other, lambda g: _unbroadcast(g, other.data.shape)),
            ],
            "add",
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return _make(
            self.data - other.data,
            [
                (self, lambda g: _unbroadcast(g, self.data.shape)),
                (other, lambda g: _unbroadcast(-g, other.data.shape)),
            ],
            "sub",
        )

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        other = self._coerce(other)
        return _make(
            self.data * other.data,
            [
                (self, lambda g: _unbroadcast(g * other.data, self.data.shape)),
                (other, lambda g: _unbroadcast(g * self.data, other.data.shape)),
            ],
            "mul",
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        return _make(
            self.data / other.data,
            [
                (self, lambda g: _unbroadcast(g / other.data, self.data.shape)),
                (
                    other,
                    lambda g: _unbroadcast(
                        -g * self.data / np.square(other.data), other.data.shape
                    ),
                ),
            ],
            "div",
        )

    def __rtruediv__(self, other):
        return self._coerce(other).__truediv__(self)

    def __neg__(self):
        return _make(-self.data, [(self, lambda g: -g)], "neg")

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out = self.data**exponent
        return _make(
            out,
            [(self, lambda g: g * exponent * self.data ** (exponent - 1))],
            "pow",
        )

    def __matmul__(self, other):
        other = self._coerce(other)
        if self.data.ndim != 2 or other.data.ndim != 2:
            raise ValueError("matmul supports 2-D operands only")
        a, b = self.data, other.data
        return _make(
            a @ b,
            [(self, lambda g: g @ b.T), (other, lambda g: a.T @ g)],
            "matmul",
        )

    # -- elementwise functions ---------------------------------------------

    def exp(self):
        out = np.exp(self.data)
        return _make(out, [(self, lambda g: g * out)], "exp")

    def log(self):
        return _make(
            np.log(self.data), [(self, lambda g: g / self.data)], "log"
        )

    def tanh(self):
        out = np.tanh(self.data)
        return _make(out, [(self, lambda g: g * (1.0 - np.square(out)))], "tanh")

    def relu(self):
        out, mask = _relu(self.data)
        return _make(out, [(self, lambda g: g * mask)], "relu")

    def abs(self):
        return _make(
            np.abs(self.data), [(self, lambda g: g * np.sign(self.data))], "abs"
        )

    def clamp(self, min_value=None, max_value=None):
        """Clip values; gradient passes where min <= x <= max (inclusive)."""
        x = self.data

        def vjp(g: np.ndarray) -> np.ndarray:
            mask = np.ones(x.shape, dtype=bool)
            if min_value is not None:
                mask &= x >= min_value
            if max_value is not None:
                mask &= x <= max_value
            return g * mask

        return _make(np.clip(x, min_value, max_value), [(self, vjp)], "clamp")

    # -- reductions and shape ------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        out = self.data.sum(axis=axis, keepdims=keepdims)

        def vjp(g: np.ndarray) -> np.ndarray:
            if axis is None:
                return np.broadcast_to(g, self.data.shape)
            gg = g
            if not keepdims:
                gg = np.expand_dims(g, axis)
            return np.broadcast_to(gg, self.data.shape)

        return _make(out, [(self, vjp)], "sum")

    def mean(self, axis=None, keepdims: bool = False):
        count = self.data.size if axis is None else np.prod(
            [self.data.shape[a] for a in np.atleast_1d(axis)]
        )
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(count))

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return _make(
            self.data.reshape(shape),
            [(self, lambda g: g.reshape(self.data.shape))],
            "reshape",
        )

    def t(self):
        """2-D transpose."""
        if self.data.ndim != 2:
            raise ValueError("t() requires a 2-D tensor")
        return _make(self.data.T, [(self, lambda g: g.T)], "t")

    def __getitem__(self, key):
        if isinstance(key, (np.ndarray, list)):
            raise TypeError("use take_rows for integer-array indexing")
        if isinstance(key, tuple) and any(
            isinstance(k, (np.ndarray, list)) for k in key
        ):
            raise TypeError("use take_rows for integer-array indexing")
        out = self.data[key]

        def vjp(g: np.ndarray) -> np.ndarray:
            gx = np.zeros_like(self.data)
            gx[key] += g
            return gx

        return _make(out, [(self, vjp)], "getitem")


def _make(data, parent_vjps, op: str) -> Tensor:
    out = Tensor(data)
    if _grad_enabled:
        parents, vjps = [], []
        for p, f in parent_vjps:
            if p.requires_grad:
                parents.append(p)
                vjps.append(f)
        if parents:
            out.requires_grad = True
            out._parents = tuple(parents)
            out._vjps = tuple(vjps)
            out._op = op
    return out


def _make_fused(data, parents: Sequence[Tensor], vjp, op: str) -> Tensor:
    """A node with one VJP for all ``parents``: ``vjp(g)`` returns one
    gradient per parent, None for a parent that does not require grad."""
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjps = vjp
        out._op = op
    return out


def _relu(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ReLU and its gradient mask. The bytes of ``np.where(x > 0, x, 0.0)``
    without its data-dependent branch: fmax maps NaN to 0 as the mask does,
    and ``+= 0.0`` turns the -0.0 that fmax may keep into 0.0."""
    mask = data > 0
    out = np.fmax(data, 0.0)
    out += 0.0
    return out, mask


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate along an axis; backward slices the gradient apart."""
    tensors = list(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    parent_vjps = []
    for i, t in enumerate(tensors):
        lo, hi = int(offsets[i]), int(offsets[i + 1])

        def vjp(g: np.ndarray, lo=lo, hi=hi) -> np.ndarray:
            index = [slice(None)] * g.ndim
            index[axis] = slice(lo, hi)
            return g[tuple(index)]

        parent_vjps.append((t, vjp))
    return _make(data, parent_vjps, "concat")


def take_rows(x: Tensor, ids: np.ndarray) -> Tensor:
    """Gather ``x[ids]`` along the leading axis; scatter-add backward."""
    ids = np.asarray(ids)
    if ids.ndim != 1 or not np.issubdtype(ids.dtype, np.integer):
        raise TypeError("ids must be a 1-D integer array")
    out = x.data[ids]

    def vjp(g: np.ndarray) -> np.ndarray:
        gx = np.zeros_like(x.data)
        np.add.at(gx, ids, g)
        return gx

    return _make(out, [(x, vjp)], "take_rows")


def repeat_cols(x: Tensor, repeats: np.ndarray) -> Tensor:
    """Repeat each column of a [C, N] tensor by its count (>= 0)."""
    repeats = np.asarray(repeats, dtype=np.int64)
    if x.data.ndim != 2 or repeats.shape != (x.data.shape[1],):
        raise ValueError("repeat_cols needs a 2-D tensor and per-column counts")
    col_ids = np.repeat(np.arange(x.data.shape[1]), repeats)
    out = x.data[:, col_ids]

    def vjp(g: np.ndarray) -> np.ndarray:
        gx = np.zeros_like(x.data)
        np.add.at(gx.T, col_ids, g.T)
        return gx

    return _make(out, [(x, vjp)], "repeat_cols")


def _pad_data(data: np.ndarray, left: int, right: int, mode: str) -> np.ndarray:
    """``np.pad`` of the time axis of [C, T] data, with zeros or wrapped.

    Like ``np.pad``, the buffer is F-ordered when the input is F- and not
    C-contiguous: the gradient buffers built to its layout decide the
    summation order of later reductions, so bits depend on it.
    """
    if min(left, right) < 0:
        raise ValueError("pad sizes must be >= 0")
    if mode not in ("zeros", "circular"):
        raise ValueError(f"unknown pad mode {mode!r}")
    channels, width = data.shape
    if mode == "circular" and (left > width or right > width):
        raise ValueError("circular pad wider than the tensor")
    order = "F" if data.flags.fnc else "C"
    out = np.zeros((channels, left + width + right), dtype=data.dtype, order=order)
    out[:, left : left + width] = data
    if mode == "circular":
        out[:, :left] = data[:, width - left :]
        out[:, left + width :] = data[:, :right]
    return out


def _unpad_grad(g: np.ndarray, left: int, right: int, mode: str) -> np.ndarray:
    """Adjoint of :func:`_pad_data`: crop, folding wrapped columns back."""
    width = g.shape[1] - left - right
    if mode == "zeros":
        return g[:, left : left + width]
    core = np.array(g[:, left : left + width], copy=True)
    if left:
        core[:, width - left :] += g[:, :left]
    if right:
        core[:, :right] += g[:, left + width :]
    return core


def _im2col(data: np.ndarray, kernel: int) -> np.ndarray:
    """[C, T] -> [C * kernel, T - kernel + 1]; column t is the flattened
    window data[:, t : t + kernel]. Windows are gathered from a C-ordered
    copy of an F-ordered or strided input, which is several times faster
    than gathering them across its strides."""
    channels, width = data.shape
    count = width - kernel + 1
    if count < 1:
        raise ValueError(f"input width {width} shorter than kernel {kernel}")
    data = np.ascontiguousarray(data)
    s0, s1 = data.strides
    windows = np.lib.stride_tricks.as_strided(
        data, shape=(channels, count, kernel), strides=(s0, s1, s1)
    )
    return np.ascontiguousarray(windows.transpose(0, 2, 1)).reshape(
        channels * kernel, count
    )


def _col2im(g: np.ndarray, like: np.ndarray, kernel: int) -> np.ndarray:
    """Adjoint of :func:`_im2col`: scatter-add each tap's row of ``g`` into
    zeros with the shape and memory layout of ``like``.

    The layout decides the summation order of later reductions of the
    result, so it is kept; when it is not C order, the adds run in a C
    buffer (same values, same order) that is then copied into it.
    """
    count = g.shape[1]
    g3 = g.reshape(like.shape[0], kernel, count)
    gx = np.zeros(like.shape, like.dtype)
    for j in range(kernel):
        gx[:, j : j + count] += g3[:, j, :]
    if like.flags.c_contiguous:
        return gx
    out = np.empty_like(like)
    out[...] = gx
    return out


def _conv_forward(
    x: np.ndarray, w: np.ndarray, b: np.ndarray, kernel: int, padding: int,
    pad_mode: str = "zeros",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Output of :func:`conv1d` on arrays, with the padded input and the
    im2col columns that its gradients read."""
    src = _pad_data(x, padding, padding, pad_mode) if padding else x
    cols = _im2col(src, kernel)
    return w @ cols + b.reshape(w.shape[0], 1), src, cols


def _conv_grad_x(
    g: np.ndarray, w: np.ndarray, src: np.ndarray, kernel: int, padding: int,
    pad_mode: str = "zeros",
) -> np.ndarray:
    """Input gradient of :func:`conv1d` from its output gradient ``g``."""
    # With one output channel ``w.T @ g`` is an outer product: each element
    # is one rounded product either way, and the broadcast skips a GEMM of
    # inner dimension 1. Its -0.0 where the GEMM gives 0.0 is added into
    # zeros by _col2im, which makes it 0.0 again.
    gc = w.T * g if w.shape[0] == 1 else w.T @ g
    gx = _col2im(gc, src, kernel)
    return _unpad_grad(gx, padding, padding, pad_mode) if padding else gx


def _bias_grad(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    return g.sum(axis=(1,), keepdims=True).reshape(shape)


def conv1d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor,
    kernel: int,
    padding: int = 0,
    pad_mode: str = "zeros",
) -> Tensor:
    """1-D convolution of a [C_in, T] tensor as one graph node.

    ``weight`` is [C_out, C_in * kernel] and ``bias`` is [C_out]. Forward
    and gradients compute the expressions of the chain pad -> im2col ->
    ``weight @ cols`` -> bias add (a test oracle), in its order, so every
    bit matches it; its four intermediate nodes and their gradient copies
    go away. The parents are listed as (weight, x, bias), the order in
    which the chain's depth-first walk reached them, so a computed weight
    would also get its gradient terms summed in the chain's order.
    """
    w = weight.data
    out, src, cols = _conv_forward(x.data, w, bias.data, kernel, padding, pad_mode)
    return _make(
        out,
        [
            (weight, lambda g: g @ cols.T),
            (x, lambda g: _conv_grad_x(g, w, src, kernel, padding, pad_mode)),
            (bias, lambda g: _bias_grad(g, bias.data.shape)),
        ],
        "conv1d",
    )


# A convolution of a coupling network: (weight, bias, kernel, padding), with
# zero padding.
ConvLayer = tuple[Tensor, Tensor, int, int]


def _coupling_rows(half: int, parity: int) -> tuple[slice, slice]:
    """Rows of the half that a coupling block keeps and of the half it moves."""
    if parity == 0:
        return slice(None, half), slice(half, None)
    return slice(half, None), slice(None, half)


def coupling_net(
    x: Tensor,
    half: int,
    parity: int,
    layers: Sequence[ConvLayer],
    speaker: Tensor | None = None,
    speaker_layer: ConvLayer | None = None,
    join_grads: list | None = None,
) -> Tensor:
    """Conditioning network of an affine coupling block as one graph node.

    Reads the half of ``x`` that the block keeps (rows ``[:half]`` at parity
    0, ``[half:]`` at parity 1) and computes conv1, plus ``speaker_layer``
    of ``speaker`` if given, relu, conv2, relu and proj, the three
    ``layers`` in that order. Rows ``[:half]`` of the [channels, T] output
    are the raw log-scales, the rest the shifts.

    The parents are (x, proj weight, conv2 weight, conv1 weight, conv1 bias,
    speaker weight, speaker, speaker bias, conv2 bias, proj bias), the order
    in which the depth-first walk of the chain of :func:`affine_coupling`
    reaches them. ``join_grads`` is filled by that join's backward with the
    gradients of the kept and moved halves of ``x``: the chain summed the
    kept half's two terms in its slice node before ``x`` saw them, so this
    node, whose backward runs after the join's, adds its own term there and
    hands ``x`` the whole gradient.
    """
    kept_rows, moved_rows = _coupling_rows(half, parity)
    (w1, b1, k1, p1), (w2, b2, k2, p2), (wp, bp, kp, pp) = layers
    w1d, w2d, wpd = w1.data, w2.data, wp.data
    h1, src1, cols1 = _conv_forward(x.data[kept_rows, :], w1d, b1.data, k1, p1)
    speaker_parents: tuple[Tensor, ...] = ()
    if speaker is not None:
        ws, bs, ks, ps = speaker_layer
        hs, src_s, cols_s = _conv_forward(speaker.data, ws.data, bs.data, ks, ps)
        h1 = h1 + hs
        speaker_parents = (ws, speaker, bs)
    r1, mask1 = _relu(h1)
    h2, src2, cols2 = _conv_forward(r1, w2d, b2.data, k2, p2)
    r2, mask2 = _relu(h2)
    out, src_p, cols_p = _conv_forward(r2, wpd, bp.data, kp, pp)

    def vjp(g: np.ndarray) -> list:
        g_h2 = _conv_grad_x(g, wpd, src_p, kp, pp) * mask2
        g_h1 = _conv_grad_x(g_h2, w2d, src2, k2, p2) * mask1
        gx = None
        if x.requires_grad:
            g_kept = _conv_grad_x(g_h1, w1d, src1, k1, p1)
            gx = np.zeros_like(x.data)
            if join_grads:
                kept, moved = join_grads.pop()
                kept += g_kept
                gx[kept_rows, :] += kept
                gx[moved_rows, :] += moved
            else:
                gx[kept_rows, :] += g_kept
        grads = [
            gx,
            g @ cols_p.T if wp.requires_grad else None,
            g_h2 @ cols2.T if w2.requires_grad else None,
            g_h1 @ cols1.T if w1.requires_grad else None,
            _bias_grad(g_h1, b1.data.shape) if b1.requires_grad else None,
        ]
        if speaker is not None:
            g_s = _unbroadcast(g_h1, hs.shape)
            grads += [
                g_s @ cols_s.T if ws.requires_grad else None,
                _conv_grad_x(g_s, ws.data, src_s, ks, ps) if speaker.requires_grad else None,
                _bias_grad(g_s, bs.data.shape) if bs.requires_grad else None,
            ]
        grads += [
            _bias_grad(g_h2, b2.data.shape) if b2.requires_grad else None,
            _bias_grad(g, bp.data.shape) if bp.requires_grad else None,
        ]
        return grads

    parents = (x, wp, w2, w1, b1, *speaker_parents, b2, bp)
    return _make_fused(out, parents, vjp, "coupling_net")


def coupling_log_scale(net: Tensor, half: int, cap: float) -> Tensor:
    """``tanh(net[:half]) * cap``: the bounded log-scales of a coupling
    block from its :func:`coupling_net` output, as one graph node."""
    t = np.tanh(net.data[:half, :])
    c = np.asarray(cap, dtype=t.dtype)

    def vjp(g: np.ndarray) -> np.ndarray:
        gx = np.zeros_like(net.data)
        gx[:half, :] += g * c * (1.0 - np.square(t))
        return gx

    return _make(t * c, [(net, vjp)], "coupling_log_scale")


def affine_coupling(
    x: Tensor,
    half: int,
    parity: int,
    layers: Sequence[ConvLayer],
    cap: float,
    speaker: Tensor | None = None,
    speaker_layer: ConvLayer | None = None,
) -> tuple[Tensor, Tensor]:
    """Forward map of an affine coupling block and its log-scales.

    The kept half of ``x`` passes through; the moved half becomes
    ``moved * exp(log_s) + shift``, with ``log_s`` and ``shift`` from
    :func:`coupling_net` and :func:`coupling_log_scale`. Records three
    nodes, the network, the log-scales and this join, where the chain of
    slices, tanh, scale, exp, product, sum and concat recorded about 17.
    The join's parents are (log-scales, network); the gradient of ``x``
    reaches ``x`` through the network node (see :func:`coupling_net`).
    """
    kept_rows, moved_rows = _coupling_rows(half, parity)
    join_grads: list = []
    net = coupling_net(x, half, parity, layers, speaker, speaker_layer, join_grads)
    log_s = coupling_log_scale(net, half, cap)
    e = np.exp(log_s.data)
    moved = x.data[moved_rows, :]
    changed = moved * e + net.data[half:, :]
    kept = x.data[kept_rows, :]
    y = np.concatenate([kept, changed] if parity == 0 else [changed, kept], axis=0)

    def vjp(g: np.ndarray) -> list:
        g_changed = g[moved_rows, :]
        if x.requires_grad:
            join_grads.append((np.array(g[kept_rows, :], copy=True), g_changed * e))
        g_net = np.zeros_like(net.data)
        g_net[half:, :] += g_changed
        return [g_changed * moved * e, g_net]

    return _make_fused(y, (log_s, net), vjp, "affine_coupling"), log_s


def conv1d_upsampled(x: Tensor, weight: Tensor, bias: Tensor, factor: int) -> Tensor:
    """``conv1d`` with ``2 * factor + 1`` taps and zero padding ``factor``
    of ``x`` zero-stuffed by ``factor``, as one node that never builds the
    stuffed zeros: output column ``factor * t + r`` reads only input columns
    ``t - 1 .. t + 1``, so one GEMM of their windows with the weight's taps
    regathered per phase (zeros where a tap does not exist) gives all of
    them. The expressions and their order, F-ordered [C_out, W * factor]
    output included, are those of the twelve-node chain of a test oracle,
    so every bit matches it.
    """
    channels, width = x.shape
    kernel, w = 2 * factor + 1, weight.data
    out_channels = w.shape[0]
    # Row (c, j, r) of the phases holds tap ``factor * j - r`` of input
    # channel c, or the appended zero row where that tap does not exist.
    taps = factor * np.arange(3)[:, None] - np.arange(factor)
    ids = np.arange(channels)[:, None, None] * kernel + taps
    ids = np.where(taps >= 0, ids, channels * kernel).ravel()
    weight_t = np.concatenate([w.T, np.zeros((1, out_channels), w.dtype)])
    phases = weight_t[ids].reshape(3 * channels, -1)
    src = _pad_data(x.data, 1, 1, "zeros")
    cols = _im2col(src, 3)
    out = (cols.T @ phases).reshape(width * factor, out_channels).T
    out = out + bias.data.reshape(out_channels, 1)

    def vjp_weight(g: np.ndarray) -> np.ndarray:
        gp = (cols @ g.T.reshape(width, -1)).reshape(len(ids), out_channels)
        gwt = np.zeros_like(weight_t)
        # Every real tap is gathered once and the zero row is dropped, so a
        # plain scatter does; ``+ 0.0`` turns -0.0 into 0.0, as adding into
        # zeros does.
        gwt[ids] = gp + 0.0
        return gwt[:-1].T

    def vjp_x(g: np.ndarray) -> np.ndarray:
        gc = (g.T.reshape(width, -1) @ phases.T).T
        return _unpad_grad(_col2im(gc, src, 3), 1, 1, "zeros")

    return _make(
        out,
        [
            (weight, vjp_weight),
            (x, vjp_x),
            (bias, lambda g: _bias_grad(g, bias.data.shape)),
        ],
        "conv1d_upsampled",
    )


def frame_rows(x: Tensor, frame_length: int, hop: int) -> Tensor:
    """Slice a 1-D tensor into overlapping [frames, frame_length] rows."""
    if x.data.ndim != 1:
        raise ValueError("frame_rows requires a 1-D tensor")
    count = (x.data.shape[0] - frame_length) // hop + 1
    if count < 1:
        raise ValueError(
            f"signal too short: {x.data.shape[0]} samples < one frame of {frame_length}"
        )
    stride = x.data.strides[0]
    frames = np.lib.stride_tricks.as_strided(
        x.data, shape=(count, frame_length), strides=(hop * stride, stride)
    )
    out = np.ascontiguousarray(frames)

    def vjp(g: np.ndarray) -> np.ndarray:
        gx = np.zeros_like(x.data)
        for t in range(count):
            gx[t * hop : t * hop + frame_length] += g[t]
        return gx

    return _make(out, [(x, vjp)], "frame_rows")


def stft_mag(frames: Tensor) -> Tensor:
    """Magnitude rFFT of windowed [T, n_fft] frames.

    Forward is ``np.abs(np.fft.rfft(...))`` at whatever precision numpy
    picks for the input dtype, cast back to that dtype. The backward pass is
    the exact adjoint of |rfft| away from zero magnitude, with a small guard
    where the magnitude vanishes.
    """
    if frames.data.ndim != 2:
        raise ValueError("stft_mag requires [frames, n_fft] input")
    n = frames.data.shape[1]
    spectrum = np.fft.rfft(frames.data, axis=1)
    mag64 = np.abs(spectrum)
    out = mag64.astype(frames.data.dtype)

    def vjp(g: np.ndarray) -> np.ndarray:
        weights = np.full(n // 2 + 1, 0.5)
        weights[0] = 1.0
        if n % 2 == 0:
            weights[-1] = 1.0
        scale = g / np.maximum(mag64, MAG_GRAD_EPS)
        adjoint = scale * spectrum.real + 1j * (scale * spectrum.imag)
        grad = np.fft.irfft(adjoint * weights, n=n, axis=1) * n
        return grad.astype(frames.data.dtype)

    return _make(out, [(frames, vjp)], "stft_mag")
