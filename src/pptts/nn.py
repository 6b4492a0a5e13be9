"""Layers and optimizer built on the autodiff engine.

Modules register parameters and submodules on attribute assignment, so
``named_parameters`` yields dotted names like ``flow.blocks.0.conv.weight``.
Every layer takes an explicit ``numpy.random.Generator`` for initialization,
which keeps model construction reproducible without global RNG state.

The layers are ``Conv1d``, whose every call (upsampling stages and 1-tap
projections included) records one graph node, and ``Embedding``; ``AdamW``
is the optimizer.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from . import tensor as T
from .tensor import Tensor


class Module:
    """Base class: tracks parameters and child modules by attribute name."""

    def __init__(self) -> None:
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_children", {})

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Tensor):
            self._params[name] = value
        elif isinstance(value, Module):
            self._children[name] = value
        object.__setattr__(self, name, value)

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        for name, param in self._params.items():
            yield prefix + name, param
        for name, child in self._children.items():
            yield from child.named_parameters(prefix + name + ".")

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None


class ModuleList(Module):
    """A sequence of child modules addressed by index."""

    def __init__(self, modules: Iterable[Module] = ()) -> None:
        super().__init__()
        self._items: list[Module] = []
        for module in modules:
            self.append(module)

    def append(self, module: Module) -> None:
        self._children[str(len(self._items))] = module
        self._items.append(module)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]


def _uniform(rng: np.random.Generator, bound: float, shape, dtype) -> np.ndarray:
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class Conv1d(Module):
    """1-D convolution over [C_in, T] inputs via im2col and one matmul,
    recorded as one graph node (:func:`pptts.tensor.conv1d`).

    ``padding`` pads both sides of the time axis before framing; the pad is
    zeros by default or circular (wrap-around) for translation-invariant
    pooling stacks.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        padding: int = 0,
        pad_mode: str = "zeros",
        rng: np.random.Generator | None = None,
        dtype=np.float32,
        zero_init: bool = False,
    ) -> None:
        super().__init__()
        if pad_mode not in ("zeros", "circular"):
            raise ValueError(f"unknown pad_mode {pad_mode!r}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.padding = padding
        self.pad_mode = pad_mode
        fan_in = in_channels * kernel_size
        if zero_init:
            weight = np.zeros((out_channels, fan_in), dtype=dtype)
        else:
            if rng is None:
                raise ValueError("rng is required unless zero_init")
            weight = _uniform(rng, 1.0 / np.sqrt(fan_in), (out_channels, fan_in), dtype)
        self.weight = Tensor(weight, requires_grad=True)
        self.bias = Tensor(np.zeros(out_channels, dtype=dtype), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.conv1d(x, self.weight, self.bias, self.kernel_size, self.padding, self.pad_mode)

    def upsampled(self, x: Tensor, factor: int) -> Tensor:
        """This convolution of ``x`` zero-stuffed by ``factor`` (each column
        followed by ``factor - 1`` zero columns), without the stuffed zeros.

        For a zero-padded convolution of ``2 * factor + 1`` taps and
        padding ``factor``, output column ``factor * t + r`` reads only
        the input columns ``t - 1``, ``t`` and ``t + 1``, so the work of
        :func:`pptts.tensor.conv1d_upsampled` is proportional to the input
        width rather than to the upsampled width.
        """
        f = factor
        if (self.kernel_size, self.padding, self.pad_mode) != (2 * f + 1, f, "zeros"):
            raise ValueError("upsampled() needs kernel 2*factor+1, padding factor")
        return T.conv1d_upsampled(x, self.weight, self.bias, f)


class Embedding(Module):
    """Token id lookup into a [vocab, dim] table."""

    def __init__(
        self,
        vocab_size: int,
        dim: int,
        rng: np.random.Generator,
        dtype=np.float32,
    ) -> None:
        super().__init__()
        self.vocab_size = vocab_size
        self.dim = dim
        self.weight = Tensor(
            rng.standard_normal((vocab_size, dim)).astype(dtype), requires_grad=True
        )

    def __call__(self, ids: np.ndarray) -> Tensor:
        ids = np.asarray(ids)
        if ids.size and (ids.min() < 0 or ids.max() >= self.vocab_size):
            raise ValueError(
                f"token id out of range for vocabulary of {self.vocab_size}"
            )
        return T.take_rows(self.weight, ids.astype(np.int64))


class AdamW:
    """Adam with decoupled weight decay.

    Parameters with ``grad is None`` are skipped; biases and any parameter
    whose registered name ends in ``.bias`` are excluded from weight decay.
    ``lr_scales`` multiplies the learning rate (and decay) for individual
    parameters by name, e.g. to train fresh heads faster than carried-over
    weights inside one optimizer.
    """

    def __init__(
        self,
        named_params: Iterable[tuple[str, Tensor]],
        lr: float = 2e-4,
        betas: tuple[float, float] = (0.9, 0.99),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
        lr_scales: dict[str, float] | None = None,
    ) -> None:
        self.params = [(name, p) for name, p in named_params]
        names = [name for name, _ in self.params]
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names")
        self.lr = lr
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.lr_scales = dict(lr_scales or {})
        unknown = set(self.lr_scales) - set(names)
        if unknown:
            raise ValueError(f"lr_scales for unknown parameters: {sorted(unknown)}")
        self.step_count = 0
        self._m = {name: np.zeros_like(p.data) for name, p in self.params}
        self._v = {name: np.zeros_like(p.data) for name, p in self.params}

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.grad = None

    def step(self) -> None:
        self.step_count += 1
        b1, b2 = self.betas
        correct1 = 1.0 - b1**self.step_count
        correct2 = 1.0 - b2**self.step_count
        for name, p in self.params:
            if p.grad is None:
                continue
            lr = self.lr * self.lr_scales.get(name, 1.0)
            g = p.grad
            m = self._m[name]
            v = self._v[name]
            m += (1.0 - b1) * (g - m)
            v += (1.0 - b2) * (np.square(g) - v)
            if self.weight_decay and not name.endswith(".bias"):
                p.data -= lr * self.weight_decay * p.data
            update = (m / correct1) / (np.sqrt(v / correct2) + self.eps)
            p.data -= lr * update.astype(p.data.dtype)

    def state_dict(self) -> dict:
        return {
            "step": self.step_count,
            "m": {name: self._m[name] for name, _ in self.params},
            "v": {name: self._v[name] for name, _ in self.params},
        }

    def load_state_dict(self, state: dict) -> None:
        self.step_count = int(state["step"])
        for name, _ in self.params:
            if name in state["m"]:
                self._m[name] = np.array(state["m"][name], copy=True)
                self._v[name] = np.array(state["v"][name], copy=True)
