"""Quantization solution encoding (the Δ vector of paper Section 4).

A :class:`QuantSolution` holds one :class:`~repro.numerics.LPParams` per
quantizable layer — the encoded vector Δ of length 4N, where each group of
4 values ⟨n_l, es_l, rs_l, sf_l⟩ configures layer ``l``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..numerics import LPParams
from ..numerics.logposit import ES_MIN, N_MAX, N_MIN, RS_MIN

__all__ = ["QuantSolution", "clamp_lp_params", "random_solution"]


def clamp_lp_params(
    n: int, es: int, rs: int, sf: float, hw_widths: tuple[int, ...] | None = None
) -> LPParams:
    """Project arbitrary (possibly mutated) field values into the search
    space of Section 4 Step 1: n ∈ [2,8], es ∈ [0, n−3], rs ∈ [2, n−1].

    ``hw_widths`` optionally restricts ``n`` to hardware-packable widths
    (powers of two for LPA's MODE-A/B/C weight packing, Section 5.1).
    """
    n = int(min(max(n, N_MIN), N_MAX))
    if hw_widths is not None:
        n = min(hw_widths, key=lambda w: (abs(w - n), w))
    es = int(min(max(es, ES_MIN), max(n - 3, 0)))
    rs = int(min(max(rs, RS_MIN), max(n - 1, RS_MIN)))
    return LPParams(n=n, es=es, rs=rs, sf=float(sf))


@dataclass(frozen=True)
class QuantSolution:
    """Per-layer LP parameters for a model's quantizable layers."""

    layer_params: tuple[LPParams, ...]

    def __len__(self) -> int:
        return len(self.layer_params)

    def __getitem__(self, idx: int) -> LPParams:
        return self.layer_params[idx]

    def replace_layer(self, idx: int, params: LPParams) -> "QuantSolution":
        items = list(self.layer_params)
        items[idx] = params
        return QuantSolution(tuple(items))

    def encode(self) -> np.ndarray:
        """Flatten to the Δ vector of length 4N."""
        return np.array(
            [v for p in self.layer_params for v in (p.n, p.es, p.rs, p.sf)],
            dtype=np.float64,
        )

    @staticmethod
    def decode(
        delta: np.ndarray, hw_widths: tuple[int, ...] | None = None
    ) -> "QuantSolution":
        delta = np.asarray(delta, dtype=np.float64)
        if delta.size % 4:
            raise ValueError("Δ length must be a multiple of 4")
        params = []
        for i in range(0, delta.size, 4):
            n, es, rs, sf = delta[i : i + 4]
            params.append(
                clamp_lp_params(round(n), round(es), round(rs), sf, hw_widths)
            )
        return QuantSolution(tuple(params))

    def mean_weight_bits(self) -> float:
        """Average n over layers (unweighted) — the headline 'MP x.y'."""
        return float(np.mean([p.n for p in self.layer_params]))

    def weighted_bits(self, param_counts: list[int]) -> float:
        """Parameter-weighted average bit-width (drives model size)."""
        total = sum(param_counts)
        return float(
            sum(p.n * c for p, c in zip(self.layer_params, param_counts)) / total
        )

    def model_size_mb(self, param_counts: list[int]) -> float:
        """Quantized model size in MB (bit-packed weights)."""
        bits = sum(p.n * c for p, c in zip(self.layer_params, param_counts))
        return bits / 8 / 1e6


def random_solution(
    rng: np.random.Generator,
    num_layers: int,
    layer_log_centers: list[float],
    hw_widths: tuple[int, ...] | None = None,
) -> QuantSolution:
    """Step 1 candidate initialization.

    n, es, rs are sampled uniformly from the constrained space; sf is
    sampled from a small ball around each layer's weight-distribution
    centre (Section 4: "a uniform ball ... centered around the mean weight
    distribution of that layer"), interpreted in the log domain where LP's
    scale factor lives (see :func:`repro.numerics.tensor_log_center`).
    """
    params = []
    for center in layer_log_centers:
        n = int(rng.integers(N_MIN, N_MAX + 1))
        if hw_widths is not None:
            n = int(rng.choice(hw_widths))
        es = int(rng.integers(0, max(n - 3, 0) + 1))
        rs = int(rng.integers(RS_MIN, max(n - 1, RS_MIN) + 1))
        sf = center + float(rng.uniform(-1e-3, 1e-3))
        params.append(clamp_lp_params(n, es, rs, sf, hw_widths))
    if len(params) != num_layers:
        raise ValueError("one log-centre per layer required")
    return QuantSolution(tuple(params))
