"""Applying LP quantization solutions to models (fake-quantization).

Weights are replaced by their LP-quantized values through each layer's
``weight_fq`` override; activations are quantized at layer inputs through
``input_fq``.  The FP weights are never modified, so quantization can be
applied/removed freely — the standard fake-quantization simulation used
by PTQ frameworks (the paper's LPQ is implemented the same way on
PyTorch).
"""

from __future__ import annotations

import contextlib
from collections import OrderedDict
from collections.abc import Iterator

import numpy as np

from ..nn import Module, quantizable_layers, record_activations
from ..numerics import LPParams, lp_quantize, lp_quantize_many, tensor_log_center
from .params import QuantSolution, clamp_lp_params

__all__ = [
    "ActQuantCache",
    "LayerStats",
    "WeightQuantCache",
    "collect_layer_stats",
    "derive_activation_params",
    "apply_quantization",
    "clear_quantization",
    "quantized",
    "bn_batch_stats",
    "bn_recalibrated",
]


class WeightQuantCache:
    """LRU cache of fake-quantized weight tensors keyed by (layer, params).

    During a block-wise LPQ search, consecutive candidates share the
    parameters of every layer outside the regenerated block, so the
    corresponding ``lp_quantize(weight)`` results recur constantly.  The
    cache is valid as long as the underlying FP weights are frozen (the
    search never trains); call :meth:`clear` if weights are mutated.

    ``stats``, when given, must expose ``hit()``/``miss()``/``evict()``
    (see :class:`repro.perf.CacheStats`).
    """

    def __init__(self, max_entries: int = 1024, stats=None) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self.stats = stats
        # entries pin the layer object: a live reference means its id can
        # never be recycled for a different layer, so an id-keyed hit is
        # always the layer it claims to be
        self._data: OrderedDict[
            tuple[int, LPParams], tuple[Module, np.ndarray]
        ] = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def quantized_weight(self, layer: Module, params: LPParams) -> np.ndarray:
        key = (id(layer), params)
        entry = self._data.get(key)
        if entry is not None:
            self._data.move_to_end(key)
            if self.stats is not None:
                self.stats.hit()
            return entry[1]
        if self.stats is not None:
            self.stats.miss()
        w = layer.weight.data
        wq = lp_quantize(w, params, dtype=w.dtype)
        self._data[key] = (layer, wq)
        while len(self._data) > self.max_entries:
            self._data.popitem(last=False)
            if self.stats is not None:
                self.stats.evict()
        return wq

    def prefill(self, pairs) -> int:
        """Batch-compute missing entries, one LUT lookup per format.

        ``pairs`` is an iterable of ``(layer, params)``; pairs already
        cached (or duplicated within the batch) are skipped, the rest go
        through :func:`repro.numerics.lp_quantize_many` — pairs sharing
        a clamped format share one LUT lookup, bitwise identical to the
        per-pair path.
        Each computed entry counts as a *miss* (it is the same compute a
        later :meth:`quantized_weight` miss would have done); the later
        lookups then count as hits.  Returns the number of entries
        computed.
        """
        missing: list[tuple[Module, LPParams]] = []
        seen: set[tuple[int, LPParams]] = set()
        for layer, params in pairs:
            key = (id(layer), params)
            if key in self._data or key in seen:
                continue
            seen.add(key)
            missing.append((layer, params))
        if not missing:
            return 0
        weights = [layer.weight.data for layer, _ in missing]
        quantized = lp_quantize_many(
            weights,
            [params for _, params in missing],
            dtype=np.result_type(*{w.dtype for w in weights}),
        )
        for (layer, params), wq in zip(missing, quantized):
            if self.stats is not None:
                self.stats.miss()
            self._data[(id(layer), params)] = (
                layer,
                wq.astype(layer.weight.data.dtype, copy=False),
            )
            while len(self._data) > self.max_entries:
                self._data.popitem(last=False)
                if self.stats is not None:
                    self.stats.evict()
        return len(missing)

    def clear(self) -> None:
        self._data.clear()


class ActQuantCache:
    """LRU cache of quantized activation tensors keyed by
    ``(layer, act-params, input identity)``.

    During a prefix-reuse search the input of the first recomputed layer
    is served from the forward cache, so across consecutive candidates it
    is the *same array object*; when that layer's activation parameters
    did not change either, ``input_fq`` used to re-run ``lp_quantize`` on
    identical data every pass.  The cache memoises those results.

    Correctness rests on identity, not equality: an entry is returned
    only when the stored input *is* the requested array (``is``), and the
    entry pins both the input and the layer so their ids can never be
    recycled while the entry lives.  Layers never mutate their outputs in
    place, so a pinned input's contents are stable.  The cached tensor is
    the verbatim result of ``lp_quantize`` on the same array — reuse is
    bitwise-identical by construction.
    """

    def __init__(self, max_entries: int = 64, stats=None) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self.stats = stats
        self._data: OrderedDict[
            tuple[int, LPParams, int], tuple[Module, np.ndarray, np.ndarray]
        ] = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def quantize(
        self, layer: Module, x: np.ndarray, params: LPParams
    ) -> np.ndarray:
        key = (id(layer), params, id(x))
        entry = self._data.get(key)
        if entry is not None and entry[1] is x:
            self._data.move_to_end(key)
            if self.stats is not None:
                self.stats.hit()
            return entry[2]
        if self.stats is not None:
            self.stats.miss()
        qx = lp_quantize(x, params, dtype=x.dtype)
        self._data[key] = (layer, x, qx)
        while len(self._data) > self.max_entries:
            self._data.popitem(last=False)
            if self.stats is not None:
                self.stats.evict()
        return qx

    def clear(self) -> None:
        self._data.clear()


class LayerStats:
    """Per-layer calibration statistics needed to derive LP parameters."""

    def __init__(
        self,
        names: list[str],
        param_counts: list[int],
        weight_log_centers: list[float],
        act_log_centers: list[float],
    ) -> None:
        self.names = names
        self.param_counts = param_counts
        self.weight_log_centers = weight_log_centers
        self.act_log_centers = act_log_centers

    def __len__(self) -> int:
        return len(self.names)


def collect_layer_stats(model: Module, calib_images: np.ndarray) -> LayerStats:
    """One FP calibration pass: weight/activation log-centres per layer."""
    layers = quantizable_layers(model)
    names = [name for name, _ in layers]
    param_counts = [int(layer.weight.size) for _, layer in layers]
    weight_centers = [tensor_log_center(layer.weight.data) for _, layer in layers]
    model.eval()
    with record_activations(model, names) as acts:
        model(calib_images)
    act_centers = [tensor_log_center(acts[name]) for name in names]
    return LayerStats(names, param_counts, weight_centers, act_centers)


def derive_activation_params(
    solution: QuantSolution,
    stats: LayerStats,
    mode: str = "calibrated",
    input_log_center: float = 0.0,
) -> list[LPParams]:
    """Activation LP parameters from weight parameters (Section 4).

    Paper rules: ``n_act = min(8, 2·n_w)``, ``es_act = min(5, 2·es_w)``,
    ``rs_act = rs_w``, and the scale factor either follows the paper's
    recurrence ``sf_act^l = sf_act^{l-1} + sf_w^l`` (``mode="recurrence"``)
    or is re-centred on the calibration activations (``mode="calibrated"``,
    the default — equivalent to the PPU computing activation scale factors
    at runtime, which LPA's post-processing unit does in Section 5.1).

    The returned params describe the *output* activation of each layer;
    layer ``l``'s input quantizer therefore uses entry ``l − 1``.
    """
    if mode not in ("calibrated", "recurrence"):
        raise ValueError(f"unknown activation sf mode {mode!r}")
    out: list[LPParams] = []
    sf_prev = input_log_center
    for i, wp in enumerate(solution.layer_params):
        n_act = min(8, wp.n * 2)
        # floor es/rs so the activation format keeps enough dynamic range
        # even when a 2-bit weight layer (es_w = 0) feeds it: activations
        # span several octaves regardless of the weight precision.
        es_act = min(5, max(wp.es * 2, 1))
        rs_act = max(wp.rs, 2)
        if mode == "recurrence":
            sf_act = sf_prev + wp.sf
            sf_prev = sf_act
        else:
            sf_act = stats.act_log_centers[i]
        out.append(clamp_lp_params(n_act, es_act, rs_act, sf_act))
    return out


def apply_quantization(
    model: Module,
    solution: QuantSolution,
    act_params: list[LPParams] | None = None,
    cache: WeightQuantCache | None = None,
    act_cache: ActQuantCache | None = None,
) -> None:
    """Install weight (and optionally activation) fake-quantization.

    ``act_params[l]`` describes layer ``l``'s *output*; it is installed as
    the *input* quantizer of layer ``l + 1``.  Layer 0's input (the image)
    stays unquantized, matching the usual PTQ convention of an 8-bit-or-
    better input pipeline.

    With a :class:`WeightQuantCache`, layers whose parameters were seen
    before reuse the cached quantized tensor instead of re-running
    ``lp_quantize`` — the per-candidate cost of a block-wise search drops
    to quantizing only the regenerated block.  With an
    :class:`ActQuantCache`, the installed ``input_fq`` additionally
    memoises quantized activations by input identity, which pays off when
    a prefix-reuse forward feeds the same cached tensor to the first
    recomputed layer across candidates.
    """
    _install(quantizable_layers(model), solution, act_params, cache, act_cache)


def _install(layers, solution, act_params, cache, act_cache) -> None:
    """:func:`apply_quantization` over a ``quantizable_layers`` list the
    caller already holds (evaluators build theirs once)."""
    if len(layers) != len(solution):
        raise ValueError(
            f"solution has {len(solution)} layers, model has {len(layers)}"
        )
    for i, (_, layer) in enumerate(layers):
        wp = solution[i]
        if cache is not None:
            layer.weight_fq = cache.quantized_weight(layer, wp)
        else:
            w = layer.weight.data
            layer.weight_fq = lp_quantize(w, wp, dtype=w.dtype)
        if act_params is not None and i > 0:
            ap = act_params[i - 1]
            layer.input_fq = _make_act_quantizer(ap, layer, act_cache)
        else:
            layer.input_fq = None


def _make_act_quantizer(
    params: LPParams,
    layer: Module | None = None,
    cache: ActQuantCache | None = None,
):
    if cache is not None and layer is not None:
        def quantize(x: np.ndarray) -> np.ndarray:
            return cache.quantize(layer, x, params)
    else:
        def quantize(x: np.ndarray) -> np.ndarray:
            return lp_quantize(x, params, dtype=x.dtype)

    return quantize


def clear_quantization(model: Module) -> None:
    _clear(quantizable_layers(model))


def _clear(layers) -> None:
    for _, layer in layers:
        layer.clear_quant()


@contextlib.contextmanager
def quantized(
    model: Module,
    solution: QuantSolution,
    act_params: list[LPParams] | None = None,
) -> Iterator[Module]:
    """Context manager: model is quantized inside, restored on exit."""
    apply_quantization(model, solution, act_params)
    try:
        yield model
    finally:
        clear_quantization(model)


def _save_bn_state(bns: list) -> list:
    return [
        (bn.running_mean.copy(), bn.running_var.copy(), bn.momentum)
        for bn in bns
    ]


def _restore_bn_state(bns: list, saved: list) -> None:
    for bn, (mean, var, momentum) in zip(bns, saved):
        bn.running_mean[...] = mean
        bn.running_var[...] = var
        bn.momentum = momentum


@contextlib.contextmanager
def bn_batch_stats(model: Module, bns: list | None = None) -> Iterator[list]:
    """Training-mode window with BN momentum 1: every BatchNorm inside
    normalises by (and stores) the statistics of the current batch.

    With momentum 1 the stored running statistics *equal* the batch
    statistics, so outputs computed inside this window are bit-for-bit
    what an eval pass under recalibrated statistics would produce — the
    incremental fitness engine fuses recalibration and fingerprinting
    into one pass on this basis.  Statistics, momenta, and eval mode are
    all restored on exit.
    """
    from ..nn import BatchNorm2d

    modules = [m for _, m in model.named_modules()]
    if bns is None:
        bns = [m for m in modules if isinstance(m, BatchNorm2d)]
    with _batch_stats_window(modules, bns):
        yield bns


@contextlib.contextmanager
def _batch_stats_window(modules: list, bns: list) -> Iterator[list]:
    """:func:`bn_batch_stats` over the model's module and BatchNorm lists
    that the caller already holds (evaluators build theirs once)."""
    saved = _save_bn_state(bns)
    for bn in bns:
        bn.momentum = 1.0
    _set_training(modules, True)
    try:
        yield bns
    finally:
        _set_training(modules, False)
        _restore_bn_state(bns, saved)


def _set_training(modules: list, mode: bool) -> None:
    """``Module.train(mode)`` over a precomputed ``named_modules`` list."""
    for m in modules:
        m.training = mode


@contextlib.contextmanager
def bn_recalibrated(model: Module, calib_images: np.ndarray) -> Iterator[Module]:
    """Re-estimate BatchNorm running statistics under the *current*
    weights (deployment-time PTQ practice).

    Quantized conv weights shift pre-BN statistics; running stats
    collected during FP training are then systematically wrong.  One
    calibration pass with momentum 1 replaces them with the statistics
    of the quantized network.  Original stats (and momenta) are restored
    on exit.  A no-op for BN-free (LayerNorm) models.
    """
    from ..nn import BatchNorm2d

    bns = [m for _, m in model.named_modules() if isinstance(m, BatchNorm2d)]
    saved = _save_bn_state(bns)
    if bns:
        for bn in bns:
            bn.momentum = 1.0
        model.train()
        model(calib_images)
        model.eval()
        for bn, (_, _, momentum) in zip(bns, saved):
            bn.momentum = momentum
    try:
        yield model
    finally:
        _restore_bn_state(bns, saved)
        model.eval()
