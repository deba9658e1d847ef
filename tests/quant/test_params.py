"""Tests for the Δ-vector solution encoding and search-space clamping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.numerics import LPParams
from repro.numerics.logposit import ES_MIN, N_MAX, N_MIN, RS_MIN
from repro.quant import QuantSolution, clamp_lp_params, random_solution


def reference_clamp(n, es, rs, sf, hw_widths=None):
    """The np.clip version ``clamp_lp_params`` replaced (verbatim)."""
    n = int(np.clip(n, N_MIN, N_MAX))
    if hw_widths is not None:
        n = min(hw_widths, key=lambda w: (abs(w - n), w))
    es = int(np.clip(es, ES_MIN, max(n - 3, 0)))
    rs = int(np.clip(rs, RS_MIN, max(n - 1, RS_MIN)))
    return LPParams(n=n, es=es, rs=rs, sf=float(sf))


class TestClamp:
    @pytest.mark.parametrize("hw_widths", [None, (2, 4, 8)], ids=["any", "hw"])
    @pytest.mark.parametrize("kind", [int, np.int64, np.int32])
    def test_matches_np_clip_table(self, hw_widths, kind):
        sf = np.float32(0.375) if kind is np.int32 else -1.25
        for n in range(-2, 13):
            for es in range(-2, 13):
                for rs in range(-2, 13):
                    got = clamp_lp_params(kind(n), kind(es), kind(rs), sf, hw_widths)
                    assert got == reference_clamp(n, es, rs, sf, hw_widths)
                    assert type(got.n) is int and type(got.es) is int
                    assert type(got.rs) is int and type(got.sf) is float

    def test_clamps_n_range(self):
        assert clamp_lp_params(0, 0, 2, 0.0).n == 2
        assert clamp_lp_params(12, 0, 2, 0.0).n == 8

    def test_clamps_es_to_n_minus_3(self):
        p = clamp_lp_params(6, 9, 2, 0.0)
        assert p.es == 3

    def test_clamps_rs_to_n_minus_1(self):
        p = clamp_lp_params(6, 0, 9, 0.0)
        assert p.rs == 5
        assert clamp_lp_params(6, 0, 0, 0.0).rs == 2

    def test_hw_widths_snap_to_powers_of_two(self):
        # equidistant n (e.g. 6) snaps to the cheaper width
        for n, want in [(2, 2), (3, 2), (5, 4), (6, 4), (7, 8), (8, 8)]:
            assert clamp_lp_params(n, 0, 2, 0.0, hw_widths=(2, 4, 8)).n == want

    @given(
        st.integers(-5, 20), st.integers(-5, 20), st.integers(-5, 20),
        st.floats(-10, 10),
    )
    @settings(max_examples=200, deadline=None)
    def test_always_valid(self, n, es, rs, sf):
        p = clamp_lp_params(n, es, rs, sf)
        assert 2 <= p.n <= 8
        assert 0 <= p.es <= max(p.n - 3, 0)
        assert 2 <= p.rs <= max(p.n - 1, 2)


class TestQuantSolution:
    def _sol(self):
        return QuantSolution(
            (LPParams(8, 2, 3, 0.5), LPParams(4, 1, 2, -1.0), LPParams(2, 0, 1, 0.0))
        )

    def test_encode_decode_roundtrip(self):
        sol = self._sol()
        back = QuantSolution.decode(sol.encode())
        # decode clamps; the first two layers are already feasible
        assert back[0] == sol[0].clamped()
        assert back[1] == sol[1].clamped()

    def test_encode_length_4n(self):
        assert self._sol().encode().shape == (12,)

    def test_decode_rejects_bad_length(self):
        with pytest.raises(ValueError):
            QuantSolution.decode(np.zeros(7))

    def test_mean_weight_bits(self):
        assert self._sol().mean_weight_bits() == pytest.approx((8 + 4 + 2) / 3)

    def test_weighted_bits_respects_param_counts(self):
        sol = self._sol()
        wb = sol.weighted_bits([100, 100, 800])
        assert wb == pytest.approx((8 * 100 + 4 * 100 + 2 * 800) / 1000)

    def test_model_size(self):
        sol = self._sol()
        size = sol.model_size_mb([1000, 1000, 1000])
        assert size == pytest.approx((8 + 4 + 2) * 1000 / 8 / 1e6)

    def test_replace_layer(self):
        sol = self._sol()
        new = sol.replace_layer(1, LPParams(6, 1, 3, 0.0))
        assert new[1].n == 6
        assert sol[1].n == 4  # original untouched


class TestRandomSolution:
    def test_respects_search_space(self):
        rng = np.random.default_rng(0)
        centers = [0.0, 2.0, -3.0, 4.0]
        for _ in range(50):
            sol = random_solution(rng, 4, centers)
            for i, p in enumerate(sol.layer_params):
                assert 2 <= p.n <= 8
                assert abs(p.sf - centers[i]) <= 1e-3 + 1e-9

    def test_hw_widths(self):
        rng = np.random.default_rng(0)
        sol = random_solution(rng, 8, [0.0] * 8, hw_widths=(2, 4, 8))
        assert all(p.n in (2, 4, 8) for p in sol.layer_params)

    def test_rejects_center_mismatch(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            random_solution(rng, 3, [0.0, 1.0])
