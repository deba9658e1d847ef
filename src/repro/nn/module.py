"""Module base class: parameter registry, training mode, forward hooks.

The framework uses explicit layer-wise backward (each module caches what
its backward pass needs during forward) rather than a tape-based autograd;
this keeps kernels in plain numpy and the control flow obvious.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Iterator

import numpy as np

from .tensor import Parameter

__all__ = ["Module", "Sequential"]


class _ReplayState(threading.local):
    """Holder for the active prefix-reuse forward cache.

    Thread-local on purpose: parallel population evaluation runs one
    replica model per thread, each with its own ForwardCache — a plain
    module global would let one thread's cached pass capture another
    thread's module calls (corrupting both records).  ``active`` is
    rebound by repro.nn.replay while a cached pass is running; None
    keeps __call__ on the zero-overhead path.
    """

    active = None


_REPLAY = _ReplayState()


class Module:
    """Base class for all layers and models.

    Subclasses implement ``forward(x)`` and ``backward(grad)``; both must
    be matched one-to-one (backward consumes the cache the immediately
    preceding forward stored).  Parameters and sub-modules registered as
    attributes are discovered automatically.
    """

    #: attributes where ``forward`` keeps what ``backward`` needs
    _forward_state: tuple[str, ...] = ()

    def __init__(self) -> None:
        self.training = True
        #: callables invoked as hook(module, output) after forward
        self._forward_hooks: list[Callable[["Module", np.ndarray], None]] = []
        #: attribute names of non-trainable state saved in state_dict
        #: (e.g. BatchNorm running statistics)
        self._buffer_names: list[str] = []

    # -- registry -----------------------------------------------------------
    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        yield prefix, self
        for name, attr in vars(self).items():
            if isinstance(attr, Module):
                sub = f"{prefix}.{name}" if prefix else name
                yield from attr.named_modules(sub)
            elif isinstance(attr, (list, tuple)):
                for i, item in enumerate(attr):
                    if isinstance(item, Module):
                        sub = f"{prefix}.{name}.{i}" if prefix else f"{name}.{i}"
                        yield from item.named_modules(sub)

    def named_parameters(self) -> Iterator[tuple[str, Parameter]]:
        for mod_name, mod in self.named_modules():
            for name, attr in vars(mod).items():
                if isinstance(attr, Parameter):
                    yield (f"{mod_name}.{name}" if mod_name else name), attr

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def drop_forward_state(self) -> None:
        """Forget what every module's last ``forward`` kept for its
        ``backward`` (inputs, activations, normalized tensors): a model
        that only runs forward again holds just its parameters and
        buffers."""
        for _, m in self.named_modules():
            for name in m._forward_state:
                setattr(m, name, None)

    # -- training mode ------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        for _, m in self.named_modules():
            m.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # -- state dict ---------------------------------------------------------
    def named_buffers(self) -> Iterator[tuple[str, np.ndarray]]:
        for mod_name, mod in self.named_modules():
            for name in mod._buffer_names:
                full = f"{mod_name}.{name}" if mod_name else name
                yield full, getattr(mod, name)

    def state_dict(self) -> dict[str, np.ndarray]:
        state = {name: p.data.copy() for name, p in self.named_parameters()}
        state.update({name: b.copy() for name, b in self.named_buffers()})
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        own: dict[str, np.ndarray] = {
            name: p.data for name, p in self.named_parameters()
        }
        own.update(dict(self.named_buffers()))
        missing = set(own) - set(state)
        extra = set(state) - set(own)
        if missing or extra:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)[:5]} "
                f"extra={sorted(extra)[:5]}"
            )
        for name, arr in own.items():
            if arr.shape != state[name].shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"{arr.shape} vs {state[name].shape}"
                )
            arr[...] = state[name]

    # -- forward/backward ---------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        replay = _REPLAY.active
        if replay is None:
            out = self.forward(x)
        else:
            # prefix-reuse mode: the cache decides whether this call's
            # subtree is unchanged (replay its recorded output) or must
            # recompute; hooks fire either way so activation recording
            # sees every module whose __call__ ran
            out = replay.call(self, x)
        for hook in self._forward_hooks:
            hook(self, out)
        return out

    def add_forward_hook(
        self, hook: Callable[["Module", np.ndarray], None]
    ) -> Callable[[], None]:
        """Attach a post-forward hook; returns a detach callable."""
        self._forward_hooks.append(hook)

        def remove() -> None:
            if hook in self._forward_hooks:
                self._forward_hooks.remove(hook)

        return remove


class Sequential(Module):
    """Chain of modules; backward runs them in reverse."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self.layers = list(layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer(x)
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, idx: int) -> Module:
        return self.layers[idx]
