"""Reverse-mode autodiff engine: every op against central finite differences."""

import numpy as np
import pytest

from pptts import tensor as tz
from pptts.tensor import Tensor


def numeric_grad(fn, x, h=1e-6):
    """Central-difference gradient of scalar fn() w.r.t. array x (in place)."""
    grad = np.zeros_like(x)
    flat, gflat = x.ravel(), grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = fn()
        flat[i] = orig - h
        fm = fn()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * h)
    return grad


def check_grads(build, *arrays, h=1e-6, rtol=1e-5, atol=1e-7):
    """build(*tensors) -> scalar Tensor; FD-checks every input array."""
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    loss = build(*leaves)
    assert loss.size == 1
    loss.backward()
    for leaf, arr in zip(leaves, arrays):
        assert leaf.grad is not None, "missing gradient"
        num = numeric_grad(lambda: float(build(*[Tensor(a) for a in arrays]).item()), arr, h)
        np.testing.assert_allclose(leaf.grad, num, rtol=rtol, atol=atol)


def rand(*shape, seed=0, lo=-1.0, hi=1.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, size=shape).astype(np.float64)


class TestArithmetic:
    def test_add(self):
        check_grads(lambda a, b: (a + b).sum(), rand(3, 4, seed=1), rand(3, 4, seed=2))

    def test_add_broadcast(self):
        check_grads(lambda a, b: (a + b).sum(), rand(3, 4, seed=1), rand(3, 1, seed=2))

    def test_add_scalar(self):
        check_grads(lambda a: (a + 2.5).sum(), rand(4, seed=3))

    def test_radd(self):
        check_grads(lambda a: (1.5 + a).sum(), rand(4, seed=3))

    def test_sub(self):
        check_grads(lambda a, b: (a - b).sum(), rand(2, 5, seed=4), rand(2, 5, seed=5))

    def test_rsub(self):
        check_grads(lambda a: (3.0 - a).sum(), rand(6, seed=6))

    def test_mul(self):
        check_grads(lambda a, b: (a * b).sum(), rand(3, 3, seed=7), rand(3, 3, seed=8))

    def test_mul_broadcast_row(self):
        check_grads(lambda a, b: (a * b).sum(), rand(3, 4, seed=9), rand(1, 4, seed=10))

    def test_div(self):
        check_grads(
            lambda a, b: (a / b).sum(),
            rand(3, 3, seed=11),
            rand(3, 3, seed=12, lo=0.5, hi=2.0),
        )

    def test_rdiv(self):
        check_grads(lambda a: (2.0 / a).sum(), rand(5, seed=13, lo=0.5, hi=2.0))

    def test_neg(self):
        check_grads(lambda a: (-a).sum(), rand(4, seed=14))

    def test_pow(self):
        check_grads(lambda a: (a**3).sum(), rand(4, seed=15, lo=0.5, hi=1.5))

    def test_matmul(self):
        check_grads(
            lambda a, b: (a @ b).sum(), rand(3, 4, seed=16), rand(4, 2, seed=17)
        )


class TestElementwise:
    def test_exp(self):
        check_grads(lambda a: a.exp().sum(), rand(3, 3, seed=20))

    def test_log(self):
        check_grads(lambda a: a.log().sum(), rand(3, 3, seed=21, lo=0.5, hi=3.0))

    def test_tanh(self):
        check_grads(lambda a: a.tanh().sum(), rand(3, 4, seed=23))

    def test_relu_away_from_kink(self):
        a = rand(4, 4, seed=25)
        a[np.abs(a) < 0.05] = 0.5
        check_grads(lambda x: x.relu().sum(), a)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("values", ["special", "random bits"])
    def test_relu_bytes_match_where(self, dtype, layout, values):
        """Forward bytes, dtype and layout of ``np.where(x > 0, x, 0.0)`` on
        signed zeros, NaN, infinities, subnormals, the dtype's extremes and
        random bit patterns; the gradient passes where ``x > 0``. Small and
        strided inputs take numpy's scalar loops, where fmax can keep -0.0."""
        info = np.finfo(dtype)
        data = np.array(
            [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, info.max, -info.max,
             info.tiny, -info.tiny, info.smallest_subnormal, -info.smallest_subnormal,
             info.eps, -info.eps, 1.0, -1.0],
            dtype=dtype,
        )
        if values == "random bits":
            bits = np.random.default_rng(7).integers(
                0, np.iinfo(np.uint64).max, size=4096, dtype=np.uint64, endpoint=True
            )
            data = np.concatenate([data, bits.view(dtype)])
        data = data[: data.size // 16 * 16].reshape(16, -1)
        if layout == "F":
            data = np.asfortranarray(data)
        elif layout == "strided":  # every other row of a C array
            wide = np.zeros((32, data.shape[1]), dtype)
            wide[::2] = data
            data = wide[::2]
        want = np.where(data > 0, data, 0.0).astype(dtype)
        x = Tensor(data, requires_grad=True)
        out = x.relu()
        assert out.data.dtype == want.dtype
        assert out.data.flags.f_contiguous == want.flags.f_contiguous
        assert out.data.tobytes(order="A") == want.tobytes(order="A")
        out.backward(np.ones_like(data))
        assert np.array_equal(x.grad, (data > 0).astype(dtype))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_of_negative_zero_is_zero_at_any_length(self, dtype):
        """numpy's fmax keeps -0.0 in some elements, depending on where they
        fall in its vector loop (numpy 2.4 on x86-64, float64: the first
        element past a multiple of 8), so every length up to 64 is checked."""
        for n in range(1, 65):
            out = Tensor(np.full(n, -0.0, dtype)).relu().data
            assert out.dtype == dtype and not np.signbit(out).any(), n

    def test_abs_away_from_zero(self):
        a = rand(4, 4, seed=26)
        a[np.abs(a) < 0.05] = -0.5
        check_grads(lambda x: x.abs().sum(), a)

    def test_clamp_interior_and_blocked(self):
        a = np.array([-2.0, -0.5, 0.5, 2.0])
        t = Tensor(a, requires_grad=True)
        t.clamp(-1.0, 1.0).sum().backward()
        assert t.grad.tolist() == [0.0, 1.0, 1.0, 0.0]

    def test_clamp_grad_fd(self):
        a = rand(8, seed=27)
        a[np.abs(np.abs(a) - 0.6) < 0.05] = 0.0  # keep away from the clamp edges
        check_grads(lambda x: x.clamp(-0.6, 0.6).sum(), a)


class TestReductionsAndShape:
    def test_sum_axis(self):
        check_grads(lambda a: (a.sum(axis=0) * rand(4, seed=30)).sum(), rand(3, 4, seed=31))

    def test_sum_keepdims(self):
        check_grads(lambda a: (a.sum(axis=1, keepdims=True) * 2.0).sum(), rand(3, 4, seed=32))

    def test_mean(self):
        check_grads(lambda a: a.mean(), rand(5, 3, seed=33))

    def test_mean_axis(self):
        check_grads(lambda a: (a.mean(axis=1) ** 2).sum(), rand(4, 6, seed=34))

    def test_reshape(self):
        check_grads(lambda a: (a.reshape(6) * rand(6, seed=35)).sum(), rand(2, 3, seed=36))

    def test_transpose(self):
        check_grads(lambda a: (a.t() @ rand(2, 3, seed=37)).sum(), rand(2, 5, seed=38))

    def test_getitem_slice(self):
        check_grads(lambda a: a[1:3, ::2].sum(), rand(4, 6, seed=39))

    def test_getitem_rejects_arrays(self):
        t = Tensor(rand(4, 4, seed=40), requires_grad=True)
        with pytest.raises(TypeError):
            t[np.array([0, 1])]


class TestStructuredOps:
    def test_concat(self):
        check_grads(
            lambda a, b: tz.concat([a, b], axis=1).sum(),
            rand(3, 2, seed=50),
            rand(3, 4, seed=51),
        )

    def test_take_rows(self):
        ids = np.array([0, 2, 2, 1])
        check_grads(lambda a: (tz.take_rows(a, ids) * rand(4, 3, seed=52)).sum(), rand(3, 3, seed=53))

    def test_repeat_cols(self):
        reps = np.array([2, 1, 3])
        check_grads(
            lambda a: (tz.repeat_cols(a, reps) * rand(2, 6, seed=54)).sum(),
            rand(2, 3, seed=55),
        )

    # The pad and im2col ops below are the test oracles' own (conftest);
    # tensor.conv1d fuses the same arithmetic into one node.
    def test_pad_cols_zeros(self, pad_cols):
        check_grads(
            lambda a: (pad_cols(a, 2, 1) * rand(3, 7, seed=56)).sum(),
            rand(3, 4, seed=57),
        )

    def test_pad_cols_circular(self, pad_cols):
        check_grads(
            lambda a: (pad_cols(a, 2, 2, mode="circular") * rand(2, 9, seed=58)).sum(),
            rand(2, 5, seed=59),
        )

    def test_conv1d_circular_rejects_wide_pad(self):
        x = Tensor(rand(2, 3, seed=60))
        w, b = Tensor(rand(2, 2, seed=61)), Tensor(np.zeros(2))
        with pytest.raises(ValueError, match="circular pad wider"):
            tz.conv1d(x, w, b, 1, 4, "circular")

    def test_frame_cols(self, frame_cols):
        check_grads(
            lambda a: (frame_cols(a, 3) * rand(6, 5, seed=61)).sum(),
            rand(2, 7, seed=62),
        )

    def test_frame_cols_stride_one(self, frame_cols):
        check_grads(
            lambda a: (frame_cols(a, 2) * rand(6, 4, seed=63)).sum(),
            rand(3, 5, seed=64),
        )

    @pytest.mark.parametrize("padding,pad_mode", [(2, "zeros"), (1, "circular")])
    def test_conv1d(self, padding, pad_mode):
        t_out = 7 + 2 * padding - 2
        check_grads(
            lambda x, w, b: (
                tz.conv1d(x, w, b, 3, padding, pad_mode) * rand(4, t_out, seed=80)
            ).sum(),
            rand(2, 7, seed=81),
            rand(4, 6, seed=82),
            rand(4, seed=83),
        )

    @pytest.mark.parametrize("factor", [1, 2, 3])
    def test_conv1d_upsampled(self, factor):
        taps = 2 * factor + 1
        check_grads(
            lambda x, w, b: (
                tz.conv1d_upsampled(x, w, b, factor) * rand(3, 4 * factor, seed=84)
            ).sum(),
            rand(2, 4, seed=85),
            rand(3, 2 * taps, seed=86),
            rand(3, seed=87),
        )

    def test_frame_rows(self):
        check_grads(
            lambda a: (tz.frame_rows(a, 4, 2) * rand(4, 4, seed=65)).sum(),
            rand(10, seed=66),
        )

    def test_upsample_cols(self, upsample_cols):
        check_grads(
            lambda a: (upsample_cols(a, 3) * rand(2, 9, seed=67)).sum(),
            rand(2, 3, seed=68),
        )

    def test_upsample_layout(self, upsample_cols):
        x = Tensor(np.array([[1.0, 2.0]]))
        up = upsample_cols(x, 2)
        assert up.data.tolist() == [[1.0, 0.0, 2.0, 0.0]]

    def test_stft_mag(self):
        frames = rand(3, 8, seed=69)
        check_grads(
            lambda a: (tz.stft_mag(a) * rand(3, 5, seed=70)).sum(),
            frames,
            rtol=1e-4,
            atol=1e-6,
        )

    def test_stft_mag_odd_length(self):
        frames = rand(2, 7, seed=71)
        check_grads(
            lambda a: (tz.stft_mag(a) * rand(2, 4, seed=72)).sum(),
            frames,
            rtol=1e-4,
            atol=1e-6,
        )

    def test_stft_mag_matches_numpy(self):
        # Forward is numpy's |rfft|, bit for bit, cast to the input dtype.
        for dtype in (np.float32, np.float64):
            frames = rand(4, 16, seed=73).astype(dtype)
            got = tz.stft_mag(Tensor(frames)).data
            want = np.abs(np.fft.rfft(frames, axis=1)).astype(dtype)
            assert got.dtype == dtype
            assert np.array_equal(got, want)


class TestGraphSemantics:
    def test_aliased_operand(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        (x + x).sum().backward()
        assert x.grad.tolist() == [2.0]

    def test_square_via_mul(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        (x * x).sum().backward()
        assert x.grad.tolist() == [6.0]

    def test_diamond(self):
        check_grads(
            lambda a: ((a * a) + a.exp() * a).sum(),
            rand(3, 3, seed=80),
        )

    def test_deep_chain_iterative_topo(self):
        # Deep graphs must not hit the recursion limit.
        x = Tensor(np.ones(2), requires_grad=True)
        y = x
        for _ in range(5000):
            y = y + 1.0
        y.sum().backward()
        assert x.grad.tolist() == [1.0, 1.0]

    def test_grad_accumulates_across_backward_calls(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        (x * 3.0).sum().backward()
        (x * 3.0).sum().backward()
        assert x.grad.tolist() == [6.0]

    def test_detach_blocks(self):
        # A tensor made from another's data is a constant: no graph, no grad.
        x = Tensor(np.array([2.0]), requires_grad=True)
        (Tensor(x.data) * x).sum().backward()
        assert x.grad.tolist() == [2.0]

    def test_no_grad_blocks_graph(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        with tz.no_grad():
            y = x * 5.0
        assert not y.requires_grad
        assert y._parents == ()

    def test_no_grad_restores_on_exception(self, grad_enabled):
        try:
            with tz.no_grad():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert grad_enabled()

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2.0).backward()

    def test_backward_on_nograd_tensor(self):
        with pytest.raises(ValueError):
            Tensor(np.ones(1)).backward()

    def test_grad_dtype_follows_data(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        (x * 2.0).sum().backward()
        assert x.grad.dtype == np.float32

    def test_matmul_requires_2d(self):
        with pytest.raises(ValueError):
            Tensor(np.ones(3)) @ Tensor(np.ones(3))

    def test_pow_requires_scalar_exponent(self):
        with pytest.raises(TypeError):
            Tensor(np.ones(3)) ** Tensor(np.ones(3))
