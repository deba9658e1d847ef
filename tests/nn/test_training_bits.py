"""Training through the rewritten layer kernels gives the old bits.

A few SGD steps on a Conv-BN-ReLU-MaxPool net with a LayerNorm head run
twice: once with the library's modules, once with the same network whose
ReLU, MaxPool2d, BatchNorm2d and LayerNorm run the verbatim kernels those
modules replaced (the references in ``test_pool_norm_kernels``; the norms'
backward passes did not change).  Following the gradient-checker pattern
(roll every parameter of every layer into one list and compare), the
parameters, the BatchNorm running statistics and the input gradients of
each step must match bit for bit, so checkpoints trained with the new
kernels are byte-equal to the old ones.
"""

import copy

import numpy as np
import pytest

from repro import nn

from .._bits import assert_bits_equal
from .test_pool_norm_kernels import (
    reference_batchnorm_eval,
    reference_batchnorm_train,
    reference_layernorm,
    reference_maxpool,
    reference_maxpool_backward,
    reference_relu,
)


# -- the replaced modules ------------------------------------------------
class OldReLU(nn.ReLU):
    def forward(self, x):
        out, self._mask = reference_relu(x)
        return out

    def backward(self, grad):
        return grad * self._mask


class OldMaxPool2d(nn.MaxPool2d):
    def forward(self, x):
        out, self._mask = reference_maxpool(x, self.kernel_size)
        return out

    def backward(self, grad):
        return reference_maxpool_backward(grad, self._mask)


class OldBatchNorm2d(nn.BatchNorm2d):
    def forward(self, x):
        if self.training:
            return reference_batchnorm_train(self, x)
        return reference_batchnorm_eval(self, x)


class OldLayerNorm(nn.LayerNorm):
    def forward(self, x):
        return reference_layernorm(self, x)


OLD = {
    nn.ReLU: OldReLU,
    nn.MaxPool2d: OldMaxPool2d,
    nn.BatchNorm2d: OldBatchNorm2d,
    nn.LayerNorm: OldLayerNorm,
}


# -- helpers -------------------------------------------------------------
def _net():
    nn.seed(0)
    return nn.Sequential(
        nn.Conv2d(3, 8, 3, padding=1),
        nn.BatchNorm2d(8),
        nn.ReLU(),
        nn.MaxPool2d(2),
        nn.Conv2d(8, 8, 3, padding=1, groups=2),
        nn.BatchNorm2d(8),
        nn.ReLU(),
        nn.MaxPool2d(2),
        nn.Flatten(),
        nn.LayerNorm(32),
        nn.Linear(32, 5),
    )


def _with_old_modules(model):
    old = copy.deepcopy(model)
    for _, m in old.named_modules():
        if type(m) in OLD:
            m.__class__ = OLD[type(m)]
    return old


def roll_state(model):
    """Every parameter and buffer, by name: the state a checkpoint holds."""
    return {
        **{name: p.data for name, p in model.named_parameters()},
        **dict(model.named_buffers()),
    }


def _sgd_step(model, opt, x, labels):
    opt.zero_grad()
    logits = model(x)
    loss, grad = nn.cross_entropy(logits, labels)
    dx = model.backward(grad)
    opt.step()
    return loss, dx


# -- the test ------------------------------------------------------------
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
def test_sgd_steps_match_old_modules(dtype):
    nn.set_default_dtype(dtype)
    new = _net()
    old = _with_old_modules(new)
    assert sum(type(m) in OLD.values() for _, m in old.named_modules()) == 7
    new_opt = nn.SGD(new.parameters(), lr=0.05, momentum=0.9)
    old_opt = nn.SGD(old.parameters(), lr=0.05, momentum=0.9)
    rng = np.random.default_rng(11)
    for _ in range(4):
        x = rng.standard_normal((6, 3, 8, 8)).astype(dtype)
        x[:, 0, :4] = 0.0  # all-zero windows: max ties through the net
        labels = rng.integers(0, 5, 6)
        new_loss, new_dx = _sgd_step(new, new_opt, x, labels)
        old_loss, old_dx = _sgd_step(old, old_opt, x, labels)
        assert new_loss == old_loss
        assert_bits_equal(new_dx, old_dx)
        new_state, old_state = roll_state(new), roll_state(old)
        assert new_state.keys() == old_state.keys()
        for name in new_state:
            assert_bits_equal(new_state[name], old_state[name])
    # the trained net in eval mode: running statistics in use
    new.eval()
    old.eval()
    x = rng.standard_normal((4, 3, 8, 8)).astype(dtype)
    assert_bits_equal(new(x), old(x))
