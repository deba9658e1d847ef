"""Test models for the parallel executor suite.

Lives in a real module (not conftest) so ``EvaluatorSpec`` can pickle
the builder by reference for process workers.
"""

from repro import nn


class ParBNCNN(nn.Module):
    """Small BN CNN used across the executor tests (fast to evaluate)."""

    def __init__(self):
        super().__init__()
        self.features = nn.Sequential(
            nn.Conv2d(3, 6, 3, padding=1, bias=False),
            nn.BatchNorm2d(6),
            nn.ReLU(),
            nn.Conv2d(6, 6, 3, padding=1, bias=False),
            nn.BatchNorm2d(6),
            nn.ReLU(),
            nn.MaxPool2d(2),
            nn.Conv2d(6, 8, 3, padding=1, bias=False),
            nn.BatchNorm2d(8),
            nn.ReLU(),
        )
        self.pool = nn.GlobalAvgPool()
        self.head = nn.Linear(8, 8)

    def forward(self, x):
        return self.head(self.pool(self.features(x)))


def build_par_model() -> nn.Module:
    """Module-level builder so EvaluatorSpec can pickle it by reference."""
    return ParBNCNN()


class WidthBNCNN(nn.Module):
    """BN CNN whose width is a required constructor argument.

    The wire codec cannot rebuild it from its class name, so the process
    backend ships its :class:`~repro.parallel.EvaluatorSpec` pickled.
    """

    def __init__(self, width):
        super().__init__()
        self.features = nn.Sequential(
            nn.Conv2d(3, width, 3, padding=1, bias=False),
            nn.BatchNorm2d(width),
            nn.ReLU(),
            nn.MaxPool2d(2),
            nn.Conv2d(width, width, 3, padding=1, bias=False),
            nn.BatchNorm2d(width),
            nn.ReLU(),
        )
        self.pool = nn.GlobalAvgPool()
        self.head = nn.Linear(width, 8)

    def forward(self, x):
        return self.head(self.pool(self.features(x)))
