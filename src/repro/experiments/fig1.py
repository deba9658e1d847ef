"""Fig. 1 — (a) layer-wise weight-distribution variance, (b) LP's
distribution-aware relative accuracy vs AdaptivFloat's flat profile."""

from __future__ import annotations

import numpy as np

from ..models import get_model
from ..nn import quantizable_layers
from ..numerics import make_format, relative_decimal_accuracy

__all__ = ["weight_distributions", "accuracy_profiles", "run_fig1"]


def weight_distributions(model_names=("resnet50", "vit_b")) -> dict:
    """Fig. 1(a): per-layer |w| percentiles showing orders-of-magnitude
    spread across layers and models."""
    out: dict[str, list[dict]] = {}
    for name in model_names:
        model = get_model(name)
        rows = []
        for lname, layer in quantizable_layers(model):
            w = np.abs(np.asarray(layer.weight.data, dtype=np.float64))
            w = w[w > 0]
            rows.append(
                {
                    "layer": lname,
                    "p1": float(np.percentile(w, 1)),
                    "p50": float(np.percentile(w, 50)),
                    "p99": float(np.percentile(w, 99)),
                    "std": float(w.std()),
                }
            )
        out[name] = rows
    return out


def accuracy_profiles(n: int = 8, points: int = 129) -> dict:
    """Fig. 1(b): relative decimal accuracy vs magnitude for LP variants
    and AdaptivFloat."""
    mags = np.logspace(-6, 6, points) * 1.0173  # dodge exact code points
    curves = {
        "LP rs=3": relative_decimal_accuracy(
            make_format(f"lp:{n},1,3,0.0"), mags
        ),
        "LP rs=5 (more taper)": relative_decimal_accuracy(
            make_format(f"lp:{n},1,5,0.0"), mags
        ),
        "LP sf=8 (shifted)": relative_decimal_accuracy(
            make_format(f"lp:{n},1,3,8.0"), mags
        ),
        "AdaptivFloat": relative_decimal_accuracy(
            make_format(f"afloat:{n},4,7"), mags
        ),
    }
    return {"magnitudes": mags, "curves": curves}


def run_fig1() -> dict:
    """Headline checks: (a) ≥3 orders of magnitude across layer medians;
    (b) LP tapers (peaked) while AdaptivFloat is flat."""
    dists = weight_distributions()
    spreads = {}
    for name, rows in dists.items():
        medians = np.array([r["p50"] for r in rows])
        spreads[name] = float(np.log10(medians.max() / medians.min()))
    prof = accuracy_profiles()

    def taper_range(curve: np.ndarray) -> float:
        """Accuracy spread over the central 60% of the covered region.

        The edge trim excludes boundary effects common to all formats
        (clamping at the range limits, float subnormals) so the statistic
        isolates the *shape* inside the usable range — tapered for LP,
        flat for floats (Fig. 1(b)).
        """
        idx = np.where((curve > 0) & (curve < 16))[0]
        trim = max(1, len(idx) // 5)
        core = curve[idx[trim:-trim]]
        return float(core.max() - core.min())

    return {
        "distributions": dists,
        "median_log10_spread": spreads,
        "lp_taper_range": taper_range(prof["curves"]["LP rs=5 (more taper)"]),
        "af_taper_range": taper_range(prof["curves"]["AdaptivFloat"]),
        "profiles": prof,
    }
