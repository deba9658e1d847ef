"""Tiny deterministic models for spec files, CI smoke runs, and docs.

These are the smallest models that still exercise the full LPQ
pipeline (BatchNorm recalibration, multi-layer block search, activation
derivation).  Each registry entry is a *loader*: it seeds the parameter
RNG itself, so resolving ``"tiny:resnet"`` from a JSON spec yields the
same weights in every process — the property the spec layer's
bitwise-reproducibility contract rests on.
"""

from __future__ import annotations

from .. import nn
from ..nn.tensor import _seeded
from ..spec import registry

__all__ = ["tiny_resnet", "tiny_mlp", "TINY_SEED"]

#: parameter-init seed used by every tiny loader
TINY_SEED = 0


class TinyResNet(nn.Module):
    """Four quantizable layers: Conv-BN-ReLU ×2 (strided), pool, head."""

    def __init__(self, channels: int = 6, num_classes: int = 8) -> None:
        super().__init__()
        self.features = nn.Sequential(
            nn.Conv2d(3, channels, 3, padding=1, bias=False),
            nn.BatchNorm2d(channels),
            nn.ReLU(),
            nn.MaxPool2d(2),
            nn.Conv2d(channels, channels, 3, padding=1, bias=False),
            nn.BatchNorm2d(channels),
            nn.ReLU(),
            nn.Conv2d(channels, channels, 3, padding=1, bias=False),
            nn.BatchNorm2d(channels),
            nn.ReLU(),
        )
        self.pool = nn.GlobalAvgPool()
        self.head = nn.Linear(channels, num_classes)

    def forward(self, x):
        return self.head(self.pool(self.features(x)))


class TinyMLP(nn.Module):
    """BN-free pooled MLP: the cheapest end-to-end search there is."""

    def __init__(self, hidden: int = 12, num_classes: int = 8) -> None:
        super().__init__()
        self.pool = nn.GlobalAvgPool()
        self.fc1 = nn.Linear(3, hidden)
        self.act = nn.ReLU()
        self.fc2 = nn.Linear(hidden, num_classes)

    def forward(self, x):
        return self.fc2(self.act(self.fc1(self.pool(x))))


def tiny_resnet() -> nn.Module:
    """Deterministic TinyResNet instance (seeded, eval mode)."""
    with _seeded(TINY_SEED):
        model = TinyResNet()
    model.eval()
    return model


def tiny_mlp() -> nn.Module:
    """Deterministic TinyMLP instance (seeded, eval mode)."""
    with _seeded(TINY_SEED):
        model = TinyMLP()
    model.eval()
    return model


registry.register("model", "tiny:resnet", tiny_resnet)
registry.register("model", "tiny:mlp", tiny_mlp)
