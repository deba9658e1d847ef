"""Multi-head self-attention with explicit backward (ViT/DeiT/Swin).

``MultiHeadSelfAttention`` operates on (B, N, D) token tensors.
``WindowAttention`` adds Swin-style (optionally shifted) local windows on
(B, H, W, D) feature maps, including the attention mask that prevents
tokens wrapped by the cyclic shift from attending across the boundary.
"""

from __future__ import annotations

import numpy as np

from .functional import softmax
from .layers import Linear
from .module import Module

__all__ = ["MultiHeadSelfAttention", "WindowAttention"]


class MultiHeadSelfAttention(Module):
    """Standard MHSA: qkv projection, scaled dot-product, output proj."""

    _forward_state = ("_cache",)

    def __init__(self, dim: int, num_heads: int) -> None:
        super().__init__()
        if dim % num_heads:
            raise ValueError("dim must be divisible by num_heads")
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.scale = self.head_dim**-0.5
        self.qkv = Linear(dim, dim * 3)
        self.proj = Linear(dim, dim)
        self._cache: tuple | None = None

    def _split_heads(self, x: np.ndarray) -> np.ndarray:
        b, n, _ = x.shape
        return x.reshape(b, n, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def _merge_heads(self, x: np.ndarray) -> np.ndarray:
        b, h, n, d = x.shape
        return x.transpose(0, 2, 1, 3).reshape(b, n, h * d)

    def forward(
        self, x: np.ndarray, attn_mask: np.ndarray | None = None
    ) -> np.ndarray:
        b, n, d = x.shape
        qkv = self.qkv(x)  # (B, N, 3D)
        q, k, v = np.split(qkv, 3, axis=-1)
        qh, kh, vh = map(self._split_heads, (q, k, v))  # (B, H, N, hd)
        logits = (qh @ kh.transpose(0, 1, 3, 2)) * self.scale  # (B, H, N, N)
        if attn_mask is not None:
            logits = logits + attn_mask
        attn = softmax(logits, axis=-1)
        ctx = attn @ vh  # (B, H, N, hd)
        out = self.proj(self._merge_heads(ctx))
        self._cache = (qh, kh, vh, attn)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._cache is not None
        qh, kh, vh, attn = self._cache
        g_ctx_flat = self.proj.backward(grad)  # (B, N, D)
        g_ctx = self._split_heads(g_ctx_flat)  # (B, H, N, hd)
        g_attn = g_ctx @ vh.transpose(0, 1, 3, 2)  # (B, H, N, N)
        g_v = attn.transpose(0, 1, 3, 2) @ g_ctx
        # softmax backward: dL/dz = a * (da - sum(da * a))
        tmp = (g_attn * attn).sum(axis=-1, keepdims=True)
        g_logits = attn * (g_attn - tmp)
        g_q = (g_logits @ kh) * self.scale
        g_k = (g_logits.transpose(0, 1, 3, 2) @ qh) * self.scale
        g_qkv = np.concatenate(
            [self._merge_heads(g) for g in (g_q, g_k, g_v)], axis=-1
        )
        return self.qkv.backward(g_qkv)


class WindowAttention(Module):
    """Swin-style windowed MHSA over (B, H, W, D) maps with optional shift.

    The feature map is partitioned into ``window × window`` tiles, each
    attending only within itself.  With ``shift > 0`` the map is cyclically
    rolled before partitioning and an additive mask blocks attention
    between tokens that came from opposite sides of the wrap boundary.
    """

    def __init__(self, dim: int, num_heads: int, window: int, shift: int = 0) -> None:
        super().__init__()
        if not 0 <= shift < window:
            raise ValueError("shift must be in [0, window)")
        self.window = window
        self.shift = shift
        self.attn = MultiHeadSelfAttention(dim, num_heads)
        self._shape: tuple[int, ...] | None = None
        self._mask_cache: dict[tuple[int, int], np.ndarray] = {}

    def _window_mask(self, h: int, w: int) -> np.ndarray | None:
        """Additive (-inf) mask for shifted windows, one per window tile."""
        if self.shift == 0:
            return None
        key = (h, w)
        if key not in self._mask_cache:
            win, s = self.window, self.shift
            # Region bands are assigned in the *rolled* coordinate frame
            # (as in the Swin reference): the last `s` rows/cols of the
            # rolled map are tokens that wrapped around the boundary.
            img = np.zeros((h, w), dtype=np.int64)
            region = 0
            for hs in (slice(0, -win), slice(-win, -s), slice(-s, None)):
                for ws in (slice(0, -win), slice(-win, -s), slice(-s, None)):
                    img[hs, ws] = region
                    region += 1
            tiles = img.reshape(h // win, win, w // win, win)
            tiles = tiles.transpose(0, 2, 1, 3).reshape(-1, win * win)
            same = tiles[:, :, None] == tiles[:, None, :]
            mask = np.where(same, 0.0, -1e9).astype(np.float32)
            self._mask_cache[key] = mask[:, None, :, :]  # head broadcast dim
        return self._mask_cache[key]

    def _partition(self, x: np.ndarray) -> np.ndarray:
        b, h, w, d = x.shape
        win = self.window
        t = x.reshape(b, h // win, win, w // win, win, d)
        t = t.transpose(0, 1, 3, 2, 4, 5)
        return t.reshape(b * (h // win) * (w // win), win * win, d)

    def _unpartition(self, x: np.ndarray, b: int, h: int, w: int) -> np.ndarray:
        win = self.window
        d = x.shape[-1]
        t = x.reshape(b, h // win, w // win, win, win, d)
        t = t.transpose(0, 1, 3, 2, 4, 5)
        return t.reshape(b, h, w, d)

    def forward(self, x: np.ndarray) -> np.ndarray:
        b, h, w, d = x.shape
        if h % self.window or w % self.window:
            raise ValueError(
                f"feature map {h}x{w} not divisible by window {self.window}"
            )
        self._shape = x.shape
        if self.shift:
            x = np.roll(x, (-self.shift, -self.shift), axis=(1, 2))
        tokens = self._partition(x)  # (B*nW, win^2, D)
        mask = self._window_mask(h, w)
        if mask is not None:
            nw = (h // self.window) * (w // self.window)
            mask = np.tile(mask, (b, 1, 1, 1))
            assert mask.shape[0] == tokens.shape[0] == b * nw
        out = self.attn.forward(tokens, attn_mask=mask)
        out = self._unpartition(out, b, h, w)
        if self.shift:
            out = np.roll(out, (self.shift, self.shift), axis=(1, 2))
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._shape is not None
        b, h, w, d = self._shape
        if self.shift:
            grad = np.roll(grad, (-self.shift, -self.shift), axis=(1, 2))
        g_tokens = self._partition(grad)
        g = self.attn.backward(g_tokens)
        g = self._unpartition(g, b, h, w)
        if self.shift:
            g = np.roll(g, (self.shift, self.shift), axis=(1, 2))
        return g
