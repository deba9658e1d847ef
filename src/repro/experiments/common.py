"""Shared plumbing for the experiment harnesses.

Effort levels keep the benchmarks tractable on CPU: ``fast`` shrinks the
GA budget and calibration batch (minutes per model), ``paper`` uses the
published search parameters (K=20, P=10, C=4, 128 calibration images).
Every harness accepts an effort label so EXPERIMENTS.md can be
regenerated at full fidelity when time permits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data import calibration_batch, make_dataset
from ..models import get_model, zoo_dir
from ..models.zoo import evaluate
from ..numerics import LPParams
from ..quant import (
    FitnessConfig,
    LPQConfig,
    QuantSolution,
    collect_layer_stats,
    derive_activation_params,
    lpq_quantize,
)
from ..serve.store import ResultStore, result_record
from ..spec import CalibSpec, SearchSpec
from ..spec.wire import decode_solution

__all__ = ["EFFORTS", "Effort", "get_lpq_result", "eval_quantized",
           "test_set", "format_table"]


@dataclass(frozen=True)
class Effort:
    """Search/evaluation budget of one experiment run."""

    name: str
    calib: int
    eval_images: int
    config: LPQConfig


EFFORTS: dict[str, Effort] = {
    "smoke": Effort(
        "smoke", calib=16, eval_images=128,
        config=LPQConfig(population=4, passes=1, cycles=1, block_size=8,
                         diversity_parents=2),
    ),
    # The fast effort cannot afford the paper's 1400+ fitness
    # evaluations, so it searches the safer (4, 8) width set — at the
    # published budget the GA has enough signal to keep 2-bit layers only
    # where they are harmless (use effort="paper" for the full space).
    "fast": Effort(
        "fast", calib=64, eval_images=512,
        config=LPQConfig(population=10, passes=2, cycles=1, block_size=6,
                         diversity_parents=3, hw_widths=(4, 8)),
    ),
    "paper": Effort(
        "paper", calib=128, eval_images=512,
        config=LPQConfig(population=20, passes=10, cycles=4, block_size=4),
    ),
}


def test_set(n: int = 512, seed: int = 0):
    ds = make_dataset("test", n, seed=seed)
    return ds.images, ds.labels


def _paper_spec(model_name: str, effort: str) -> SearchSpec:
    """The paper's LPQ search on zoo model ``model_name`` at ``effort``,
    as the :class:`SearchSpec` whose digest keys its stored result."""
    eff = EFFORTS[effort]
    # λ is re-calibrated to this reproduction's L_CO scale (our
    # cosine-normalised contrastive loss spans a smaller range than
    # the paper's unnormalised one); 0.15 here plays the role the
    # paper's 0.4 plays on ImageNet models. See docs/design.md §6.
    return SearchSpec(
        model=f"zoo:{model_name}",
        calib=CalibSpec(batch=eff.calib, seed=1),
        config=eff.config,
        fitness=FitnessConfig(lam=0.15),
    )


def get_lpq_result(
    model_name: str, effort: str = "fast"
) -> tuple[object, QuantSolution, list[LPParams], dict]:
    """LPQ-quantize a zoo model, replaying the search from the result
    store when an identical spec already ran.

    The search is :func:`_paper_spec`'s :class:`SearchSpec`; its record
    lives in the :class:`~repro.serve.store.ResultStore` at
    ``zoo_dir()/"results"``, keyed by the spec's digest — the store that
    ``run_search.py --cache-dir`` and a daemon started with
    ``--data-dir`` on the zoo directory fill too.

    Returns (model, weight solution, activation params, result record).
    """
    spec = _paper_spec(model_name, effort)
    store = ResultStore(zoo_dir() / "results")
    rec = store.load(spec.digest())
    if rec is None:
        rec = result_record(spec, lpq_quantize(spec=spec))
        store.store(spec.digest(), rec)
    model = get_model(model_name)
    solution = decode_solution(rec["solution"])
    stats = collect_layer_stats(model, spec.build_calib())
    act = derive_activation_params(solution, stats, mode=spec.act_sf_mode)
    return model, solution, act, rec


def eval_quantized(model, solution, act_params, images, labels,
                   bn_calib: np.ndarray | None = None) -> float:
    """Top-1 (%) with the solution applied; model restored afterwards.

    BatchNorm statistics are re-estimated on a calibration batch under
    the quantized weights (standard PTQ deployment practice; see
    docs/design.md §6) — a no-op for LayerNorm-based transformers.
    """
    from ..quant import bn_recalibrated, quantized

    if bn_calib is None:
        bn_calib = calibration_batch(64, seed=1)
    with quantized(model, solution, act_params):
        with bn_recalibrated(model, bn_calib):
            return evaluate(model, images, labels)


def format_table(headers: list[str], rows: list[list]) -> str:
    """Plain-text table for harness printouts (matches the paper rows)."""
    cols = [max(len(str(h)), *(len(str(r[i])) for r in rows)) + 2
            for i, h in enumerate(headers)]
    def fmt(row):
        return "".join(str(v).ljust(c) for v, c in zip(row, cols))
    lines = [fmt(headers), "-" * sum(cols)]
    lines += [fmt(r) for r in rows]
    return "\n".join(lines)
