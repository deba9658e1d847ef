"""Core layers: Linear, Conv2d, norms, activations, pooling, reshape.

``Linear`` and ``Conv2d`` are the *quantizable* layers: they carry two
optional inference-time overrides used by :mod:`repro.quant` —

* ``weight_fq`` — a fake-quantized copy of the weight to use instead of
  the FP weight (weights stay untouched, so quantization is reversible);
* ``input_fq`` — a callable applied to the input activation tensor,
  modelling activation quantization at the layer boundary.

Both are ignored by ``backward`` (quantized models are inference-only).
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from . import functional as F
from .module import Module
from .tensor import Parameter, init_rng

__all__ = [
    "QuantizableMixin",
    "Linear",
    "Conv2d",
    "BatchNorm2d",
    "LayerNorm",
    "ReLU",
    "GELU",
    "MaxPool2d",
    "GlobalAvgPool",
    "Flatten",
    "Dropout",
    "Add",
]


class QuantizableMixin:
    """Adds inference-time weight/activation override hooks to a layer."""

    weight: Parameter

    def init_quant_hooks(self) -> None:
        self.weight_fq: np.ndarray | None = None
        self.input_fq: Callable[[np.ndarray], np.ndarray] | None = None

    def effective_weight(self) -> np.ndarray:
        return self.weight.data if self.weight_fq is None else self.weight_fq

    def maybe_quantize_input(self, x: np.ndarray) -> np.ndarray:
        return x if self.input_fq is None else self.input_fq(x)

    def clear_quant(self) -> None:
        self.weight_fq = None
        self.input_fq = None


class Linear(Module, QuantizableMixin):
    """Affine map on the last axis: ``y = x @ W.T + b``."""

    _forward_state = ("_cache_x",)

    def __init__(self, in_features: int, out_features: int, bias: bool = True) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        bound = float(np.sqrt(2.0 / in_features))
        rng = init_rng()
        self.weight = Parameter(rng.normal(0.0, bound, (out_features, in_features)))
        self.bias = Parameter(np.zeros(out_features)) if bias else None
        self.init_quant_hooks()
        self._cache_x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = self.maybe_quantize_input(x)
        self._cache_x = x
        out = x @ self.effective_weight().T
        if self.bias is not None:
            out = out + self.bias.data
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        x = self._cache_x
        assert x is not None, "backward called before forward"
        gm = grad.reshape(-1, self.out_features)
        xm = x.reshape(-1, self.in_features)
        self.weight.accumulate(gm.T @ xm)
        if self.bias is not None:
            self.bias.accumulate(gm.sum(axis=0))
        return (grad @ self.weight.data).reshape(x.shape)


class Conv2d(Module, QuantizableMixin):
    """Grouped 2-D convolution on NCHW tensors."""

    _forward_state = ("_cache",)

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        groups: int = 1,
        bias: bool = True,
    ) -> None:
        super().__init__()
        if in_channels % groups or out_channels % groups:
            raise ValueError("channels must be divisible by groups")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.groups = groups
        fan_in = (in_channels // groups) * kernel_size * kernel_size
        bound = float(np.sqrt(2.0 / fan_in))
        rng = init_rng()
        self.weight = Parameter(
            rng.normal(
                0.0,
                bound,
                (out_channels, in_channels // groups, kernel_size, kernel_size),
            )
        )
        self.bias = Parameter(np.zeros(out_channels)) if bias else None
        self.init_quant_hooks()
        self._cache: tuple[np.ndarray, tuple[int, int, int, int]] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = self.maybe_quantize_input(x)
        out, xp = F.conv2d_forward(
            x,
            self.effective_weight(),
            None if self.bias is None else self.bias.data,
            self.stride,
            self.padding,
            self.groups,
        )
        self._cache = (xp, x.shape)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._cache is not None, "backward called before forward"
        xp, x_shape = self._cache
        dx, dw, db = F.conv2d_backward(
            grad,
            xp,
            self.weight.data,
            x_shape,
            self.stride,
            self.padding,
            self.groups,
        )
        self.weight.accumulate(dw)
        if self.bias is not None:
            self.bias.accumulate(db)
        return dx


class BatchNorm2d(Module):
    """Per-channel batch normalization with running statistics."""

    _forward_state = ("_cache",)

    def __init__(self, channels: int, eps: float = 1e-5, momentum: float = 0.1) -> None:
        super().__init__()
        self.channels = channels
        self.eps = eps
        self.momentum = momentum
        self.gamma = Parameter(np.ones(channels))
        self.beta = Parameter(np.zeros(channels))
        from .tensor import get_default_dtype

        self.running_mean = np.zeros(channels, dtype=get_default_dtype())
        self.running_var = np.ones(channels, dtype=get_default_dtype())
        self._buffer_names = ["running_mean", "running_var"]
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.training:
            mean = x.mean(axis=(0, 2, 3))
            d = x - mean[None, :, None, None]
            var = (d * d).mean(axis=(0, 2, 3))  # x.var's ops: the same bits
            self.running_mean = (
                (1 - self.momentum) * self.running_mean + self.momentum * mean
            )
            self.running_var = (
                (1 - self.momentum) * self.running_var + self.momentum * var
            )
        else:
            mean, var = self.running_mean, self.running_var
            d = x - mean[None, :, None, None]
        inv_std = 1.0 / np.sqrt(var + self.eps)
        # d is fresh, and no operand is wider than it: in place, same bits
        xhat = np.multiply(d, inv_std[None, :, None, None], out=d)
        self._cache = (xhat, inv_std)
        out = self.gamma.data[None, :, None, None] * xhat
        out += self.beta.data[None, :, None, None]
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._cache is not None
        xhat, inv_std = self._cache
        n = grad.shape[0] * grad.shape[2] * grad.shape[3]
        self.gamma.accumulate((grad * xhat).sum(axis=(0, 2, 3)))
        self.beta.accumulate(grad.sum(axis=(0, 2, 3)))
        g = grad * self.gamma.data[None, :, None, None]
        if not self.training:
            return g * inv_std[None, :, None, None]
        sum_g = g.sum(axis=(0, 2, 3), keepdims=True)
        sum_gx = (g * xhat).sum(axis=(0, 2, 3), keepdims=True)
        return inv_std[None, :, None, None] / n * (n * g - sum_g - xhat * sum_gx)


class LayerNorm(Module):
    """Normalization over the last axis (transformer-style)."""

    _forward_state = ("_cache",)

    def __init__(self, dim: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.gamma = Parameter(np.ones(dim))
        self.beta = Parameter(np.zeros(dim))
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        mean = x.mean(axis=-1, keepdims=True)
        d = x - mean
        var = (d * d).mean(axis=-1, keepdims=True)  # x.var's ops: the same bits
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat = np.multiply(d, inv_std, out=d)
        self._cache = (xhat, inv_std)
        out = self.gamma.data * xhat
        out += self.beta.data
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._cache is not None
        xhat, inv_std = self._cache
        d = self.dim
        axes = tuple(range(grad.ndim - 1))
        self.gamma.accumulate((grad * xhat).sum(axis=axes))
        self.beta.accumulate(grad.sum(axis=axes))
        g = grad * self.gamma.data
        sum_g = g.sum(axis=-1, keepdims=True)
        sum_gx = (g * xhat).sum(axis=-1, keepdims=True)
        return inv_std / d * (d * g - sum_g - xhat * sum_gx)


class ReLU(Module):
    _forward_state = ("_out",)

    def __init__(self) -> None:
        super().__init__()
        self._out: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        # np.where(x > 0, x, 0.0) bit for bit: fmax maps NaN to 0 but may
        # keep a -0.0, which adding +0.0 turns into +0.0
        out = np.fmax(x, 0.0)
        out += 0.0
        self._out = out
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._out is not None
        return grad * (self._out > 0)  # out > 0 exactly where x > 0


class GELU(Module):
    _forward_state = ("_x",)

    def __init__(self) -> None:
        super().__init__()
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return F.gelu(x)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._x is not None
        return grad * F.gelu_grad(self._x)


class MaxPool2d(Module):
    """Non-overlapping max pooling (kernel == stride)."""

    _forward_state = ("_cache",)

    def __init__(self, kernel_size: int) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        k = self.kernel_size
        b, c, h, w = x.shape
        if h % k or w % k:
            raise ValueError(f"spatial dims {h}x{w} not divisible by pool {k}")
        # k² strided maxima, the values a multi-axis .max gives; only the
        # sign of a NaN and which zero of a ±0 tie survives may differ,
        # as they do between numpy's own scalar and SIMD loops
        views = [x[:, :, i::k, j::k] for i in range(k) for j in range(k)]
        out = views[0].copy()
        for v in views[1:]:
            np.maximum(out, v, out=out)
        self._cache = (x, out)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._cache is not None
        x, out = self._cache
        b, c, oh, ow = out.shape
        k = self.kernel_size
        mask = x.reshape(b, c, oh, k, ow, k) == out[:, :, :, None, :, None]
        # break ties: route the gradient to the first max per window only
        flat = mask.transpose(0, 1, 2, 4, 3, 5).reshape(b, c, oh, ow, k * k)
        flat = flat & (np.cumsum(flat, axis=-1) == 1)
        mask = flat.reshape(b, c, oh, ow, k, k).transpose(0, 1, 2, 4, 3, 5)
        g = grad[:, :, :, None, :, None] * mask
        return g.reshape(x.shape)


class GlobalAvgPool(Module):
    """NCHW -> NC global average pooling."""

    def __init__(self) -> None:
        super().__init__()
        self._shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._shape is not None
        b, c, h, w = self._shape
        return np.broadcast_to(grad[:, :, None, None], (b, c, h, w)) / (h * w)


class Flatten(Module):
    def __init__(self) -> None:
        super().__init__()
        self._shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._shape is not None
        return grad.reshape(self._shape)


class Dropout(Module):
    _forward_state = ("_mask",)

    def __init__(self, p: float = 0.1) -> None:
        super().__init__()
        if not 0 <= p < 1:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p
        self._mask: np.ndarray | None = None
        self._rng = np.random.default_rng()

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training or self.p == 0:
            self._mask = None
            return x
        keep = 1.0 - self.p
        self._mask = (self._rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad if self._mask is None else grad * self._mask


class Add(Module):
    """Residual join: stores nothing, backward fans the gradient out.

    Used by blocks that manage their own two-branch structure; calling
    convention is ``forward((a, b))`` — kept as an explicit module so the
    module tree mirrors the network graph.
    """

    def forward(self, x):  # type: ignore[override]
        a, b = x
        return a + b

    def backward(self, grad: np.ndarray):  # type: ignore[override]
        return grad, grad
