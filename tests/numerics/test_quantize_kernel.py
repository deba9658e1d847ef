"""Differential tests of the bucketed LP/posit quantize kernel.

The kernel (``PositTable`` in ``repro.numerics.posit``) replaces a
``searchsorted`` over the log-domain rounding midpoints with a uniform
cell index.  Its output must be byte-for-byte what the searchsorted
implementations produced.  Those implementations live on here, copied
verbatim into this file, as the reference:

* the projection ``searchsorted(midpoints, log2(clip(mag)), "left")``;
* ``lp_quantize``, ``lp_quantize_many``, ``lp_encode``, ``posit_encode``
  and the LUT branch of ``BitLevelFormat.quantize``, each with its
  boolean-mask gather/scatter of zeros, signs and NaNs;
* ``FlintFormat.quantize``, the same search in the linear domain.

Inputs cover every code point, every midpoint's ``exp2`` and its float
neighbours, ±0, ±inf, NaN and subnormals, in float32 and float64, over
every LP table up to 8 bits and every posit up to 16 bits with es <= 3.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.numerics import FlintFormat
from repro.numerics import posit as posit_mod
from repro.numerics.logposit import (
    LPParams,
    _lp_positive_table,
    lp_encode,
    lp_quantize,
    lp_quantize_many,
)
from repro.numerics.posit import PositFormat, _positive_table, posit_encode

# float32 copies of the float64 probes, and huge inputs scaled by 2^sf,
# overflow to ±inf on purpose (in the kernel and the reference alike)
pytestmark = [
    pytest.mark.filterwarnings("ignore:overflow encountered in cast"),
    pytest.mark.filterwarnings("ignore:overflow encountered in multiply"),
]

# -- the searchsorted reference ---------------------------------------------


def ref_project(table, mag):
    clipped = np.clip(mag, table.values[0], table.values[-1])
    return np.searchsorted(table.midpoints, np.log2(clipped), side="left")


def ref_lp_quantize(x, params):
    p = params.clamped()
    x = np.asarray(x, dtype=np.float64)
    table = _lp_positive_table(p.n, p.es_eff, p.rs_eff)
    scaled = np.abs(x) * np.exp2(p.sf)
    out = np.zeros(x.shape, dtype=np.float64)
    pos = scaled > 0
    out[pos] = table.values[ref_project(table, scaled[pos])] * np.exp2(-p.sf)
    out = np.where(x < 0, -out, out)
    out[np.isnan(x)] = np.nan
    return out


def ref_lp_quantize_many(tensors, params_list):
    results = [None] * len(tensors)
    groups = {}
    for idx, params in enumerate(params_list):
        p = params.clamped()
        groups.setdefault((p.n, p.es_eff, p.rs_eff), []).append(idx)
    for (n, es, rs), idxs in groups.items():
        if len(idxs) == 1:
            i = idxs[0]
            results[i] = ref_lp_quantize(tensors[i], params_list[i])
            continue
        table = _lp_positive_table(n, es, rs)
        xs = [np.asarray(tensors[i], dtype=np.float64) for i in idxs]
        scaled = np.concatenate(
            [(np.abs(x) * np.exp2(params_list[i].sf)).ravel()
             for x, i in zip(xs, idxs)]
        )
        flat = np.zeros(scaled.shape, dtype=np.float64)
        pos = scaled > 0
        flat[pos] = table.values[ref_project(table, scaled[pos])]
        offset = 0
        for x, i in zip(xs, idxs):
            seg = flat[offset:offset + x.size].reshape(x.shape)
            offset += x.size
            out = seg * np.exp2(-params_list[i].sf)
            out = np.where(x < 0, -out, out)
            out[np.isnan(x)] = np.nan
            results[i] = out
    return results


def ref_lp_encode(x, params):
    p = params.clamped()
    x = np.asarray(x, dtype=np.float64)
    table = _lp_positive_table(p.n, p.es_eff, p.rs_eff)
    mag = np.abs(x) * np.exp2(p.sf)
    out = np.zeros(x.shape, dtype=np.int64)
    pos = mag > 0
    out[pos] = table.patterns[ref_project(table, mag[pos])]
    neg = x < 0
    out[neg] = ((1 << p.n) - out[neg]) & ((1 << p.n) - 1)
    out[np.isnan(x)] = 1 << (p.n - 1)
    return out


def ref_posit_encode(x, n, es):
    x = np.asarray(x, dtype=np.float64)
    table = _positive_table(n, es, n - 1)
    mag = np.abs(x)
    full = np.zeros(x.shape, dtype=np.int64)
    pos = mag > 0
    full[pos] = table.patterns[ref_project(table, mag[pos])]
    neg = x < 0
    full[neg] = ((1 << n) - full[neg]) & ((1 << n) - 1)
    full[np.isnan(x)] = 1 << (n - 1)
    return full


def ref_posit_quantize(x, n, es):
    table = _positive_table(n, es, n - 1)
    x = np.asarray(x, dtype=np.float64)
    mag = np.abs(x)
    out = np.zeros(x.shape, dtype=np.float64)
    pos = mag > 0
    out[pos] = table.values[ref_project(table, mag[pos])]
    out = np.where(x < 0, -out, out)
    out[np.isnan(x)] = np.nan
    return out


# -- inputs -------------------------------------------------------------------

SPECIALS = np.array(
    [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
     1e-310, -1e-310, 1e-45, -1e-45, 1e-300, 1e300, 3.4e38, -3.4e38]
)

#: every distinct clamped LP table up to 8 bits
LP_TABLES = [
    (n, es, rs)
    for n in range(2, 9)
    for es in range(max(n - 3, 0) + 1)
    for rs in range(1, n)
]
#: every posit up to 16 bits with es <= 3
POSIT_TABLES = [(n, es) for n in range(2, 17) for es in range(4)]
SFS = (0.0, 0.3712, -2.75)


def probe_inputs(table, sf=0.0):
    """Code points, midpoint thresholds and their neighbours one ulp
    away (float64 and float32 ulps), as seen after the kernel's ``2^sf``
    scaling, plus the specials."""
    pts = np.concatenate([
        table.values, np.exp2(table.midpoints),
        table.values[:1] / 3, table.values[-1:] * 3,
    ]) * np.exp2(-sf)
    inputs = []
    for p in (pts, pts.astype(np.float32)):
        p = np.concatenate([p, np.nextafter(p, 0), np.nextafter(p, np.inf)])
        inputs.append(np.concatenate([p, -p, SPECIALS.astype(p.dtype)]))
    return inputs


def same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# -- the projection -----------------------------------------------------------


@pytest.mark.parametrize(
    "table_of, key",
    [(_lp_positive_table, k) for k in LP_TABLES]
    + [(_positive_table, (n, es, n - 1)) for n, es in POSIT_TABLES],
)
def test_projection_is_searchsorted_left(table_of, key):
    table = table_of(*key)
    for x in probe_inputs(table):
        mag = np.abs(x.astype(np.float64))
        mag = mag[mag > 0]  # the projection's domain
        idx = ref_project(table, mag)
        assert same(table.quantize(mag), table.values[idx])
        assert same(table.encode(mag), table.patterns[idx])


def test_wide_tables_share_cells_within_the_cap():
    """Posits past 13 bits need more than one candidate per cell to stay
    under the cell cap; LP search tables never do."""
    for key in LP_TABLES:
        assert _lp_positive_table(*key).stride == 1
    wide = _positive_table(16, 1, 15)
    assert wide.stride > 1
    assert wide.candidates.shape[1] <= posit_mod._MAX_CELLS


# -- the five entry points against the seed implementations ------------------


@pytest.mark.parametrize("key", LP_TABLES)
def test_lp_entry_points_match_reference(key):
    n, es, rs = key
    for sf in SFS:
        p = LPParams(n, es, rs, sf)
        for x in probe_inputs(_lp_positive_table(n, es, rs), sf):
            ref = ref_lp_quantize(x, p)
            assert same(lp_quantize(x, p), ref)
            assert same(lp_quantize(x, p, dtype=np.float32),
                        ref.astype(np.float32))
            assert same(lp_encode(x, p), ref_lp_encode(x, p))
            assert same(lp_quantize_many([x], [p])[0], ref)


@pytest.mark.parametrize("n,es", POSIT_TABLES)
def test_posit_entry_points_match_reference(n, es):
    fmt = PositFormat(n, es)
    for x in probe_inputs(_positive_table(n, es, n - 1)):
        assert same(posit_encode(x, n, es), ref_posit_encode(x, n, es))
        assert same(fmt.encode(x), ref_posit_encode(x, n, es))
        assert same(fmt.quantize(x), ref_posit_quantize(x, n, es))


def test_many_matches_reference_on_shared_groups():
    rng = np.random.default_rng(7)
    params = [LPParams(6, 1, 3, sf) for sf in SFS] + [LPParams(8, 2, 4, 1.5)]
    tensors = [
        np.concatenate([rng.normal(0, 4, 40), SPECIALS]).reshape(8, 7)
        for _ in params
    ]
    tensors[1] = tensors[1].astype(np.float32)
    got = lp_quantize_many(tensors, params)
    for g, r in zip(got, ref_lp_quantize_many(tensors, params)):
        assert same(g, r)
    got32 = lp_quantize_many(tensors, params, dtype=np.float32)
    for g, r in zip(got32, ref_lp_quantize_many(tensors, params)):
        assert same(g, r.astype(np.float32))


def test_chunk_boundaries_and_shapes(monkeypatch):
    """Passes of any length, non-contiguous inputs and 0-d / empty
    arrays give the reference's bytes and shape."""
    p = LPParams(7, 2, 3, -0.61)
    x, x32 = probe_inputs(_lp_positive_table(7, 2, 3), p.sf)
    for chunk in (1, 7, 1000):
        monkeypatch.setattr(posit_mod, "_CHUNK", chunk)
        for arr in (x, x32, x[::-3], x[: 6 * 11].reshape(6, 11).T):
            assert same(lp_quantize(arr, p), ref_lp_quantize(arr, p))
            assert same(lp_encode(arr, p), ref_lp_encode(arr, p))
    monkeypatch.undo()
    for arr in (np.float64(-2.5), np.array(-0.0), np.zeros((0, 3))):
        assert same(lp_quantize(arr, p), ref_lp_quantize(arr, p))
    big = np.repeat(x32, 1 + 3 * posit_mod._CHUNK // x32.size)
    assert same(lp_quantize(big, p, dtype=np.float32),
                ref_lp_quantize(big, p).astype(np.float32))


# -- property -----------------------------------------------------------------

finite_or_special = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
)


@given(
    st.sampled_from(LP_TABLES),
    st.floats(min_value=-40, max_value=40),
    st.lists(finite_or_special, min_size=1, max_size=40),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_kernel_matches_reference_property(key, sf, xs, single):
    p = LPParams(*key, sf)
    x = np.array(xs, dtype=np.float32 if single else np.float64)
    ref = ref_lp_quantize(x, p)
    assert same(lp_quantize(x, p), ref)
    assert same(lp_quantize(x, p, dtype=np.float32), ref.astype(np.float32))
    assert same(lp_encode(x, p), ref_lp_encode(x, p))


# -- flint: the same kernel in the linear domain ------------------------------


def ref_flint_quantize(fmt, x):
    x = np.asarray(x, dtype=np.float64)
    vals = fmt._values()
    mids = 0.5 * (vals[:-1] + vals[1:])
    mag = np.abs(x)
    idx = np.searchsorted(mids, np.clip(mag, vals[0], vals[-1]), side="left")
    return np.sign(x) * vals[idx]


@pytest.mark.parametrize("n", range(3, 10))
@pytest.mark.parametrize("scale", [1.0, 0.37, 3e-5, 2e6])
def test_flint_matches_reference(n, scale):
    """Flint rounds to nearest in the linear domain, keeps the sign of
    its zero results, and passes a NaN's own sign through."""
    fmt = FlintFormat(n, scale)
    vals = fmt._values()
    mids = 0.5 * (vals[:-1] + vals[1:])
    pts = np.concatenate([
        vals, mids, np.nextafter(mids, 0.0), np.nextafter(mids, np.inf),
        vals * 3, vals / 3,
    ])
    x = np.concatenate([pts, -pts, SPECIALS])
    for arr in (x, x.astype(np.float32)):
        assert same(fmt.quantize(arr), ref_flint_quantize(fmt, arr))
