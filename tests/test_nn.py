"""Layers and optimizer against straightforward numpy oracles."""

import numpy as np
import pytest

from pptts import tensor as tz
from pptts.nn import AdamW, Conv1d, Embedding, Module, ModuleList
from pptts.tensor import Tensor


def conv1d_oracle(x, weight, bias, kernel, padding, pad_mode):
    """Direct triple-loop convolution oracle. [C_in, T] -> [C_out, T_out]."""
    c_in, t = x.shape
    if padding:
        if pad_mode == "zeros":
            x = np.pad(x, ((0, 0), (padding, padding)))
        else:
            x = np.concatenate([x[:, -padding:], x, x[:, :padding]], axis=1)
    t_pad = x.shape[1]
    c_out = weight.shape[0]
    t_out = t_pad - kernel + 1
    out = np.zeros((c_out, t_out), dtype=x.dtype)
    for o in range(c_out):
        for pos in range(t_out):
            acc = bias[o]
            for i in range(c_in):
                for k in range(kernel):
                    acc += weight[o, i * kernel + k] * x[i, pos + k]
            out[o, pos] = acc
    return out


class TestConv1d:
    @pytest.mark.parametrize(
        "kernel,padding,pad_mode",
        [
            (1, 0, "zeros"),
            (3, 1, "zeros"),
            (5, 2, "zeros"),
            (3, 1, "circular"),
            (4, 0, "zeros"),
        ],
    )
    def test_matches_oracle(self, kernel, padding, pad_mode):
        rng = np.random.default_rng(0)
        conv = Conv1d(3, 2, kernel, padding=padding, pad_mode=pad_mode, rng=rng,
                      dtype=np.float64)
        x = rng.normal(size=(3, 11))
        got = conv(Tensor(x)).data
        want = conv1d_oracle(x, conv.weight.data, conv.bias.data, kernel, padding, pad_mode)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_zero_init(self):
        conv = Conv1d(2, 3, 3, padding=1, zero_init=True, dtype=np.float64)
        x = np.random.default_rng(1).normal(size=(2, 6))
        assert np.all(conv(Tensor(x)).data == 0.0)

    def test_rng_required_without_zero_init(self):
        with pytest.raises(ValueError):
            Conv1d(2, 3, 3)

    def test_bad_pad_mode(self):
        with pytest.raises(ValueError):
            Conv1d(2, 3, 3, pad_mode="reflect", rng=np.random.default_rng(0))

    def test_gradients_flow(self):
        rng = np.random.default_rng(2)
        conv = Conv1d(2, 2, 3, padding=1, rng=rng, dtype=np.float64)
        x = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        conv(x).sum().backward()
        assert conv.weight.grad is not None
        assert conv.bias.grad is not None
        assert x.grad is not None

    @pytest.mark.parametrize(
        "factor,c_in,c_out,width", [(1, 2, 3, 5), (2, 3, 4, 1), (3, 2, 2, 4), (8, 4, 5, 6)]
    )
    def test_upsampled_matches_zero_stuffed_convolution(
        self, factor, c_in, c_out, width, upsample_cols
    ):
        rng = np.random.default_rng(factor * 10 + width)
        conv = Conv1d(
            c_in, c_out, 2 * factor + 1, padding=factor, rng=rng, dtype=np.float64
        )
        conv.bias.data = rng.normal(size=c_out)
        x_data = rng.normal(size=(c_in, width))
        upstream = Tensor(rng.normal(size=(c_out, width * factor)))
        results = []
        for path in ("stuffed", "upsampled"):
            x = Tensor(x_data.copy(), requires_grad=True)
            conv.zero_grad()
            if path == "stuffed":
                y = conv(upsample_cols(x, factor))
            else:
                y = conv.upsampled(x, factor)
            (y * upstream).sum().backward()
            results.append((y.data, x.grad, conv.weight.grad, conv.bias.grad))
        for want, got in zip(*results):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_upsampled_rejects_other_geometry(self):
        conv = Conv1d(2, 2, 5, padding=2, rng=np.random.default_rng(3))
        with pytest.raises(ValueError):
            conv.upsampled(Tensor(np.zeros((2, 4), np.float32)), 3)


def _layout(data, layout):
    if layout == "F":
        return np.asfortranarray(data)
    if layout == "strided":  # every other row of a C array: neither C nor F
        wide = np.zeros((2 * data.shape[0], data.shape[1]), data.dtype)
        wide[::2] = data
        return wide[::2]
    return np.ascontiguousarray(data)


def _conv_run(call, conv, x_data, x_grad, upstream):
    """Forward and backward of ``call(conv, x)``; returns output and grads."""
    conv.zero_grad()
    x = Tensor(x_data, requires_grad=x_grad)
    out = call(conv, x)
    (out * Tensor(upstream)).relu().sum().backward()
    return out.data, [t.grad for t in (conv.weight, x, conv.bias)]


def _assert_same_bits(got, want):
    assert (got is None) == (want is None)
    if want is not None:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.flags.f_contiguous == want.flags.f_contiguous
        assert got.tobytes() == want.tobytes()


class TestConv1dFusedOp:
    """``tensor.conv1d`` against the chain of ops ``Conv1d`` used to record."""

    GEOMETRIES = [
        # kernel, padding, pad_mode, input channels, output channels
        (3, 1, "zeros", 3, 4),
        (7, 3, "zeros", 3, 4),
        (5, 2, "circular", 3, 4),
        (4, 0, "zeros", 3, 4),
        (1, 0, "zeros", 3, 4),
        (5, 2, "zeros", 3, 4),
        (4, 1, "circular", 3, 4),
        # One output channel, whose input gradient skips the GEMM of inner
        # dimension 1; the first is the decoder's ``post`` layer.
        (7, 3, "zeros", 16, 1),
        (3, 1, "zeros", 3, 1),
        (1, 0, "zeros", 3, 1),
        (5, 2, "circular", 3, 1),
    ]

    def _case(self, geometry, dtype, layout, seed=0):
        kernel, padding, pad_mode, c_in, c_out = geometry
        rng = np.random.default_rng(seed)
        conv = Conv1d(c_in, c_out, kernel, padding=padding, pad_mode=pad_mode, rng=rng, dtype=dtype)
        conv.bias.data[...] = rng.normal(size=c_out)
        x = _layout(rng.normal(size=(c_in, 23)).astype(dtype), layout)
        t_out = 23 + 2 * padding - kernel + 1
        upstream = _layout(rng.normal(size=(c_out, t_out)).astype(dtype), layout)
        return conv, x, upstream

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_bytes_match_op_chain(self, geometry, dtype, layout, conv1d_chain):
        conv, x, upstream = self._case(geometry, dtype, layout)
        want_out, want = _conv_run(conv1d_chain, conv, x, True, upstream)
        got_out, got = _conv_run(Conv1d.__call__, conv, x, True, upstream)
        _assert_same_bits(got_out, want_out)
        for g, w in zip(got, want):
            assert w is not None
            _assert_same_bits(g, w)

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    @pytest.mark.parametrize("frozen", ["input", "weight"])
    def test_bytes_match_without_some_gradients(self, geometry, frozen, conv1d_chain):
        conv, x, upstream = self._case(geometry, np.float32, "F", seed=1)
        conv.weight.requires_grad = frozen != "weight"
        x_grad = frozen != "input"
        want_out, want = _conv_run(conv1d_chain, conv, x, x_grad, upstream)
        got_out, got = _conv_run(Conv1d.__call__, conv, x, x_grad, upstream)
        _assert_same_bits(got_out, want_out)
        for g, w in zip(got, want):
            _assert_same_bits(g, w)
        assert sum(g is None for g in got) == 1

    @pytest.mark.parametrize("geometry", GEOMETRIES[7:9])
    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_one_output_channel_negative_zero_upstream(self, geometry, layout, conv1d_chain):
        """An upstream gradient of signed zeros: the broadcast product gives
        -0.0 where the GEMM gives 0.0, and adding into zeros removes it."""
        conv, x, upstream = self._case(geometry, np.float64, layout, seed=2)
        # Positive weights make every product with -0.0 a -0.0, so input
        # columns that only see signed zeros get nothing else.
        conv.weight.data[...] = np.abs(conv.weight.data)
        upstream[:, ::2] = -0.0
        upstream[:, 4:16] = -0.0
        x[0] = 0.0
        want_out, want = _conv_run(conv1d_chain, conv, x, True, upstream)
        got_out, got = _conv_run(Conv1d.__call__, conv, x, True, upstream)
        _assert_same_bits(got_out, want_out)
        for g, w in zip(got, want):
            _assert_same_bits(g, w)
        assert not any(np.signbit(g[g == 0]).any() for g in got)

    def test_one_graph_node_per_call(self):
        conv = Conv1d(2, 3, 3, padding=1, rng=np.random.default_rng(3))
        x = Tensor(np.ones((2, 5), np.float32), requires_grad=True)
        out = conv(x)
        assert out._op == "conv1d"
        assert [id(p) for p in out._parents] == [id(conv.weight), id(x), id(conv.bias)]
        assert all(not p._parents for p in out._parents)


def _upsampled_run(call, conv, x_data, x_grad, upstream, factor):
    """Forward and backward of ``call(conv, x, factor)``; returns output and
    grads."""
    return _conv_run(lambda c, x: call(c, x, factor), conv, x_data, x_grad, upstream)


class TestConv1dUpsampledOp:
    """``tensor.conv1d_upsampled`` against the chain of ops
    ``Conv1d.upsampled`` used to record."""

    def _case(self, factor, dtype, layout, seed=0):
        rng = np.random.default_rng(seed)
        conv = Conv1d(3, 4, 2 * factor + 1, padding=factor, rng=rng, dtype=dtype)
        conv.bias.data[...] = rng.normal(size=4)
        x = _layout(rng.normal(size=(3, 7)).astype(dtype), layout)
        upstream = _layout(rng.normal(size=(4, 7 * factor)).astype(dtype), layout)
        return conv, x, upstream

    @pytest.mark.parametrize("factor", [1, 2, 3, 8])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_bytes_match_op_chain(self, factor, dtype, layout, upsampled_chain):
        conv, x, upstream = self._case(factor, dtype, layout)
        want_out, want = _upsampled_run(upsampled_chain, conv, x, True, upstream, factor)
        got_out, got = _upsampled_run(Conv1d.upsampled, conv, x, True, upstream, factor)
        assert got_out.flags.f_contiguous
        _assert_same_bits(got_out, want_out)
        for g, w in zip(got, want):
            assert w is not None
            _assert_same_bits(g, w)

    @pytest.mark.parametrize("factor", [1, 3])
    @pytest.mark.parametrize("frozen", ["input", "weight"])
    def test_bytes_match_without_some_gradients(self, factor, frozen, upsampled_chain):
        conv, x, upstream = self._case(factor, np.float32, "F", seed=1)
        conv.weight.requires_grad = frozen != "weight"
        x_grad = frozen != "input"
        want_out, want = _upsampled_run(upsampled_chain, conv, x, x_grad, upstream, factor)
        got_out, got = _upsampled_run(Conv1d.upsampled, conv, x, x_grad, upstream, factor)
        _assert_same_bits(got_out, want_out)
        for g, w in zip(got, want):
            _assert_same_bits(g, w)
        assert sum(g is None for g in got) == 1

    @pytest.mark.parametrize("factor", [2, 3])
    def test_negative_zero_upstream_matches_scatter_add(self, factor, upsampled_chain):
        """An upstream gradient of signed zeros: the plain scatter of the
        phase gradients gives the bytes of a scatter-add into zeros, so no
        gradient holds a -0.0."""
        conv, x, upstream = self._case(factor, np.float64, "C", seed=2)
        upstream[:, ::2] = -0.0
        upstream[1] = -0.0
        x[0] = 0.0
        runs = [
            _upsampled_run(Conv1d.upsampled, conv, x, True, upstream, factor),
            _upsampled_run(upsampled_chain, conv, x, True, upstream, factor),
            _upsampled_run(
                lambda c, t, f: upsampled_chain(c, t, f, take_rows=tz.take_rows),
                conv, x, True, upstream, factor,
            ),
        ]
        (got_out, got), *oracles = runs
        for want_out, want in oracles:
            _assert_same_bits(got_out, want_out)
            for g, w in zip(got, want):
                _assert_same_bits(g, w)
        assert not any(np.signbit(g[g == 0]).any() for g in got)

    def test_one_graph_node_per_call(self):
        conv = Conv1d(2, 3, 5, padding=2, rng=np.random.default_rng(3))
        x = Tensor(np.ones((2, 5), np.float32), requires_grad=True)
        out = conv.upsampled(x, 2)
        assert out.shape == (3, 10)
        assert out._op == "conv1d_upsampled"
        assert [id(p) for p in out._parents] == [id(conv.weight), id(x), id(conv.bias)]
        assert all(not p._parents for p in out._parents)


class TestLinear:
    """A 1-tap ``Conv1d`` is the columnwise affine map of the model's
    speaker and reference projections."""

    def test_matches_matmul(self):
        rng = np.random.default_rng(3)
        lin = Conv1d(4, 3, 1, rng=rng, dtype=np.float64)
        x = rng.normal(size=(4, 7))
        want = lin.weight.data @ x + lin.bias.data[:, None]
        np.testing.assert_allclose(lin(Tensor(x)).data, want, rtol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_initial_weights_match_linear_draw(self, dtype):
        """The draw of the dense layer these projections used to be, so
        checkpoints written before keep their meaning."""
        lin = Conv1d(6, 5, 1, rng=np.random.default_rng(12), dtype=dtype)
        bound = 1.0 / np.sqrt(6)
        want = np.random.default_rng(12).uniform(-bound, bound, size=(5, 6)).astype(dtype)
        assert lin.weight.data.tobytes() == want.tobytes()
        assert lin.weight.shape == (5, 6) and lin.bias.shape == (5,)
        assert not lin.bias.data.any()


class TestEmbedding:
    def test_lookup(self):
        rng = np.random.default_rng(4)
        emb = Embedding(10, 5, rng=rng)
        ids = np.array([3, 3, 7])
        out = emb(ids)
        assert np.array_equal(out.data, emb.weight.data[ids])

    def test_out_of_range(self):
        emb = Embedding(4, 2, rng=np.random.default_rng(5))
        with pytest.raises(ValueError, match="out of range"):
            emb(np.array([4]))
        with pytest.raises(ValueError, match="out of range"):
            emb(np.array([-1]))

    def test_repeated_id_grads_accumulate(self):
        emb = Embedding(3, 2, rng=np.random.default_rng(6), dtype=np.float64)
        emb(np.array([1, 1])).sum().backward()
        assert np.allclose(emb.weight.grad[1], 2.0)
        assert np.allclose(emb.weight.grad[0], 0.0)


class TestModule:
    def test_named_parameters_dotted(self):
        class Net(Module):
            def __init__(self):
                super().__init__()
                rng = np.random.default_rng(7)
                self.first = Conv1d(2, 2, 1, rng=rng)
                self.blocks = ModuleList([Conv1d(2, 2, 1, rng=rng) for _ in range(2)])

        names = [n for n, _ in Net().named_parameters()]
        assert names == [
            "first.weight",
            "first.bias",
            "blocks.0.weight",
            "blocks.0.bias",
            "blocks.1.weight",
            "blocks.1.bias",
        ]

    def test_zero_grad(self):
        lin = Conv1d(2, 2, 1, rng=np.random.default_rng(8), dtype=np.float64)
        lin(Tensor(np.ones((2, 3)))).sum().backward()
        assert lin.weight.grad is not None
        lin.zero_grad()
        assert lin.weight.grad is None and lin.bias.grad is None


class TestAdamW:
    def test_hand_computed_step(self):
        w = Tensor(np.array([1.0]), requires_grad=True)
        opt = AdamW([("layer.weight", w)], lr=0.1, betas=(0.9, 0.99),
                    eps=1e-8, weight_decay=0.1)
        w.grad = np.array([0.5])
        opt.step()
        m = 0.1 * 0.5
        v = 0.01 * 0.25
        mhat, vhat = m / 0.1, v / 0.01
        want = 1.0 - 0.1 * 0.1 * 1.0 - 0.1 * (mhat / (np.sqrt(vhat) + 1e-8))
        np.testing.assert_allclose(w.data, [want], rtol=1e-12)

    def test_two_steps_hand_computed(self):
        w = Tensor(np.array([2.0]), requires_grad=True)
        opt = AdamW([("p.weight", w)], lr=0.01, betas=(0.9, 0.99), eps=1e-8)
        ref = 2.0
        m = v = 0.0
        for step, g in enumerate([0.3, -0.7], start=1):
            w.grad = np.array([g])
            opt.step()
            m = 0.9 * m + 0.1 * g
            v = 0.99 * v + 0.01 * g * g
            ref -= 0.01 * (m / (1 - 0.9**step)) / (
                np.sqrt(v / (1 - 0.99**step)) + 1e-8
            )
            np.testing.assert_allclose(w.data, [ref], rtol=1e-9)

    def test_bias_skips_weight_decay(self):
        b = Tensor(np.array([1.0]), requires_grad=True)
        opt = AdamW([("layer.bias", b)], lr=0.1, weight_decay=0.5)
        b.grad = np.array([0.0])
        opt.step()
        # Zero grad means zero Adam update; decay must also be skipped.
        np.testing.assert_allclose(b.data, [1.0])

    def test_weight_gets_decay(self):
        w = Tensor(np.array([1.0]), requires_grad=True)
        opt = AdamW([("layer.weight", w)], lr=0.1, weight_decay=0.5)
        w.grad = np.array([0.0])
        opt.step()
        np.testing.assert_allclose(w.data, [1.0 - 0.1 * 0.5])

    def test_none_grad_skipped(self):
        w = Tensor(np.array([1.0]), requires_grad=True)
        opt = AdamW([("layer.weight", w)], lr=0.1, weight_decay=0.5)
        opt.step()
        np.testing.assert_allclose(w.data, [1.0])

    def test_duplicate_names_rejected(self):
        w = Tensor(np.array([1.0]), requires_grad=True)
        with pytest.raises(ValueError, match="duplicate"):
            AdamW([("a", w), ("a", w)])

    def test_state_dict_round_trip(self):
        rng = np.random.default_rng(10)
        w1 = Tensor(rng.normal(size=(3,)), requires_grad=True)
        w2 = Tensor(rng.normal(size=(3,)), requires_grad=True)
        opt1 = AdamW([("x.weight", w1)], lr=0.05)
        for _ in range(3):
            w1.grad = rng.normal(size=(3,))
            opt1.step()
        state = opt1.state_dict()

        opt2 = AdamW([("x.weight", w2)], lr=0.05)
        opt2.load_state_dict(state)
        assert opt2.step_count == opt1.step_count
        np.testing.assert_array_equal(opt2._m["x.weight"], opt1._m["x.weight"])
        np.testing.assert_array_equal(opt2._v["x.weight"], opt1._v["x.weight"])

    def test_deterministic_updates(self):
        def run():
            rng = np.random.default_rng(11)
            w = Tensor(np.ones(4), requires_grad=True)
            opt = AdamW([("w.weight", w)], lr=0.01, weight_decay=0.01)
            for _ in range(5):
                w.grad = rng.normal(size=4)
                opt.step()
            return w.data.copy()

        assert np.array_equal(run(), run())
