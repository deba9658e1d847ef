"""Model zoo: build, train, cache, and reload the six benchmark models.

The paper evaluates ResNet18, ResNet50, MobileNetV2, ViT-B, DeiT-S and
Swin-T pre-trained on ImageNet (from pytorchcv).  Here each analogue is
trained once on the synthetic dataset and its weights cached to
``.zoo/<name>.npz`` so every experiment starts from the same checkpoint,
mirroring the role of a pre-trained model hub.
"""

from __future__ import annotations

import json
import os
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .. import nn
from ..data import make_dataset
from ..nn.tensor import _seeded
from ..spec import registry
from .mobilenet import mobilenetv2_mini
from .resnet import resnet18_mini, resnet50_mini
from .swin import swin_t_mini
from .vit import deit_s_mini, vit_b_mini

__all__ = ["MODEL_REGISTRY", "TrainRecipe", "get_model", "train_model",
           "evaluate", "zoo_dir", "fp_model_size_mb"]


@dataclass(frozen=True)
class TrainRecipe:
    """Hyper-parameters used to produce a zoo checkpoint."""

    builder: Callable[[], nn.Module]
    epochs: int
    batch_size: int
    lr: float
    optimizer: str  # "sgd" | "adam"
    train_size: int = 3072
    weight_decay: float = 1e-4
    label_smoothing: float = 0.0
    seed: int = 0


MODEL_REGISTRY: dict[str, TrainRecipe] = {
    "resnet18": TrainRecipe(resnet18_mini, epochs=6, batch_size=64, lr=0.05,
                            optimizer="sgd"),
    "resnet50": TrainRecipe(resnet50_mini, epochs=6, batch_size=64, lr=0.05,
                            optimizer="sgd"),
    "mobilenetv2": TrainRecipe(mobilenetv2_mini, epochs=5, batch_size=64,
                               lr=0.05, optimizer="sgd"),
    "vit_b": TrainRecipe(vit_b_mini, epochs=4, batch_size=64, lr=1e-3,
                         optimizer="adam", label_smoothing=0.1),
    "deit_s": TrainRecipe(deit_s_mini, epochs=6, batch_size=64, lr=1e-3,
                          optimizer="adam", label_smoothing=0.1),
    "swin_t": TrainRecipe(swin_t_mini, epochs=8, batch_size=64, lr=1e-3,
                          optimizer="adam", label_smoothing=0.1),
}

CNN_MODELS = ("resnet18", "resnet50", "mobilenetv2")
VIT_MODELS = ("vit_b", "deit_s", "swin_t")


def zoo_dir() -> Path:
    """Checkpoint directory (override with REPRO_ZOO_DIR)."""
    root = os.environ.get("REPRO_ZOO_DIR")
    if root is None:
        root = Path(__file__).resolve().parents[3] / ".zoo"
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def evaluate(model: nn.Module, images: np.ndarray, labels: np.ndarray,
             batch_size: int = 128) -> float:
    """Top-1 accuracy (%) of a model in eval mode."""
    model.eval()
    hits = 0
    for start in range(0, len(labels), batch_size):
        logits = model(images[start : start + batch_size])
        hits += int((logits.argmax(axis=-1) == labels[start : start + batch_size]).sum())
    return 100.0 * hits / len(labels)


def train_model(name: str, verbose: bool = False) -> tuple[nn.Module, dict]:
    """Train a registry model from scratch; returns (model, metadata)."""
    recipe = MODEL_REGISTRY[name]
    rng = np.random.default_rng(recipe.seed)
    train = make_dataset("train", recipe.train_size, seed=recipe.seed)
    val = make_dataset("val", 512, seed=recipe.seed)
    with _seeded(recipe.seed + 0x5EED):  # deterministic parameter init
        model = recipe.builder()
    if recipe.optimizer == "sgd":
        opt = nn.SGD(model.parameters(), lr=recipe.lr, momentum=0.9,
                     weight_decay=recipe.weight_decay)
    else:
        opt = nn.Adam(model.parameters(), lr=recipe.lr,
                      weight_decay=recipe.weight_decay)
    t0 = time.time()
    for epoch in range(recipe.epochs):
        model.train()
        losses = []
        # simple cosine decay
        scale = 0.5 * (1 + np.cos(np.pi * epoch / recipe.epochs))
        opt.lr = recipe.lr * max(scale, 0.05)
        for xb, yb in train.batches(recipe.batch_size, rng):
            opt.zero_grad()
            logits = model(xb)
            loss, grad = nn.cross_entropy(logits, yb,
                                          label_smoothing=recipe.label_smoothing)
            model.backward(grad)
            opt.step()
            losses.append(loss)
        if verbose:
            acc = evaluate(model, val.images, val.labels)
            print(f"[{name}] epoch {epoch + 1}/{recipe.epochs} "
                  f"loss={np.mean(losses):.3f} val={acc:.1f}%")
    meta = {
        "name": name,
        "val_top1": evaluate(model, val.images, val.labels),
        "train_seconds": round(time.time() - t0, 1),
        "params": model.num_parameters(),
        "epochs": recipe.epochs,
    }
    return model, meta


def get_model(name: str, retrain: bool = False, verbose: bool = False) -> nn.Module:
    """Load a cached checkpoint, training and caching it on first use.

    Returned models carry a ``wire_builder`` tag — the ``(module,
    qualname)`` of their zero-arg architecture builder — so
    :mod:`repro.spec.wire` can name them on the serve pool's JSON wire
    (architecture by builder reference, weights as the live state dict).
    """
    if name not in MODEL_REGISTRY:
        raise KeyError(f"unknown model {name!r}; choose from {sorted(MODEL_REGISTRY)}")
    builder = MODEL_REGISTRY[name].builder
    ckpt = zoo_dir() / f"{name}.npz"
    meta_path = zoo_dir() / f"{name}.json"
    if ckpt.exists() and not retrain:
        model = builder()
        with np.load(ckpt) as data:
            model.load_state_dict({k: data[k] for k in data.files})
    else:
        model, meta = train_model(name, verbose=verbose)
        np.savez_compressed(ckpt, **model.state_dict())
        meta_path.write_text(json.dumps(meta, indent=2))
    model.eval()
    model.wire_builder = (builder.__module__, builder.__qualname__)
    return model


def fp_model_size_mb(model: nn.Module) -> float:
    """FP32 model size in MB (4 bytes/param), the Table 1 'Model Size'."""
    return model.num_parameters() * 4 / 1e6


def _zoo_loader(name: str):
    """Spec-registry loader for a trained checkpoint (trains + caches on
    first use, so resolving ``zoo:<name>`` is deterministic)."""

    def load() -> nn.Module:
        return get_model(name)

    load.__name__ = f"load_zoo_{name}"
    return load


for _name in MODEL_REGISTRY:
    registry.register("model", f"zoo:{_name}", _zoo_loader(_name))
