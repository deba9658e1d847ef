"""Activation capture for intermediate-representation (IR) objectives.

LPQ's fitness function compares intermediate layer outputs of the FP and
quantized models (paper Section 4.1).  ``record_activations`` attaches
forward hooks to the chosen layers and collects their outputs by name.

Recording composes with prefix-reuse forward passes
(:class:`repro.nn.replay.ForwardCache`): hooks fire for every module
whose ``__call__`` runs, including individually replayed layers — but a
layer inside a wholesale-skipped container never reaches ``__call__``,
so callers replaying a prefix should only request names at or after the
first recomputed layer (their earlier fingerprints are unchanged by
definition).
"""

from __future__ import annotations

import contextlib
from collections.abc import Iterator

import numpy as np

from .layers import Conv2d, Linear
from .module import Module

__all__ = ["quantizable_layers", "record_activations"]


def quantizable_layers(model: Module) -> list[tuple[str, Module]]:
    """All (name, layer) pairs that hold a weight tensor to quantize.

    Order follows the module tree, which our models construct in forward
    execution order — the "layer l" index of the paper.
    """
    return [
        (name, mod)
        for name, mod in model.named_modules()
        if isinstance(mod, (Conv2d, Linear))
    ]


@contextlib.contextmanager
def record_activations(
    model: Module, layer_names: list[str] | None = None
) -> Iterator[dict[str, np.ndarray]]:
    """Context manager yielding a dict that fills with layer outputs.

    >>> with record_activations(model) as acts:
    ...     model(x)
    >>> acts["features.0"].shape
    """
    with _recording(quantizable_layers(model), layer_names) as store:
        yield store


@contextlib.contextmanager
def _recording(
    layers: list[tuple[str, Module]], layer_names: list[str] | None
) -> Iterator[dict[str, np.ndarray]]:
    """:func:`record_activations` over a ``quantizable_layers`` list the
    caller already holds (evaluators build theirs once)."""
    store: dict[str, np.ndarray] = {}
    removers = []
    wanted = None if layer_names is None else set(layer_names)
    for name, layer in layers:
        if wanted is not None and name not in wanted:
            continue

        def hook(_mod: Module, out: np.ndarray, _name: str = name) -> None:
            store[_name] = out

        removers.append(layer.add_forward_hook(hook))
    try:
        yield store
    finally:
        for remove in removers:
            remove()
