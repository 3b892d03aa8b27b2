"""inverse_parse against the one-candle-at-a-time oracle, on random and damaged charts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from candlekit import Candle, CandleWindow, RenderSpec, inverse_parse, render_window
from candlekit.errors import BadParams, CandlekitError
from candlekit.raster import RasterImage, row_to_price
from oracles import oracle_inverse_parse

DAMAGE = (None, "foreign_pixel", "cleared_body_column", "wick_row", "flat_axis", "reversed_axis")


@st.composite
def specs(draw):
    margin = draw(st.integers(0, 6))
    colors = draw(
        st.lists(st.tuples(*[st.integers(0, 255)] * 3), min_size=5, max_size=5, unique=True)
    )
    return RenderSpec(
        candle_px=draw(st.sampled_from([3, 5, 7])),
        gap_px=draw(st.integers(1, 3)),
        margin_px=margin,
        height_px=draw(st.integers(2 * margin + 3, 2 * margin + 100)),
        up_color=colors[0],
        down_color=colors[1],
        wick_color=colors[2],
        background=colors[3],
        annotation_tint=colors[4],
    )


@st.composite
def candles(draw, n):
    """n candles; about 10% of windows are flat and 15% of bodies zero-height."""
    scale = draw(st.sampled_from([0.01, 1.0, 37.5]))
    if draw(st.integers(0, 9)) == 0:
        p = scale * draw(st.integers(1, 1000))
        return tuple(Candle(t, p, p, p, p) for t in range(n))
    out = []
    for t in range(n):
        o = draw(st.integers(200, 1200))
        c = o if draw(st.integers(0, 99)) < 15 else draw(st.integers(200, 1200))
        hi = max(o, c) + draw(st.integers(0, 150))
        lo = min(o, c) - draw(st.integers(0, 150))
        out.append(Candle(t, scale * o, scale * hi, scale * lo, scale * c))
    return tuple(out)


@st.composite
def charts(draw):
    """(pixels, spec, price_axis): a rendered window, half of them damaged one way."""
    spec = draw(specs())
    n = draw(st.integers(1, 40))
    cs = draw(candles(n))
    pixels = render_window(CandleWindow(cs, n - 1), spec).pixels
    axis = (min(c.low for c in cs), max(c.high for c in cs))
    height, width = pixels.shape[:2]
    damage = draw(st.sampled_from(DAMAGE)) if draw(st.booleans()) else None
    if damage == "foreign_pixel":
        palette = {spec.background, spec.annotation_tint, spec.up_color, spec.down_color,
                   spec.wick_color}
        color = draw(st.tuples(*[st.integers(0, 255)] * 3).filter(lambda c: c not in palette))
        pixels[draw(st.integers(0, height - 1)), draw(st.integers(0, width - 1))] = color
    elif damage == "cleared_body_column":
        i = draw(st.integers(0, n - 1))
        x0 = spec.margin_px + i * (spec.candle_px + spec.gap_px)
        pixels[:, x0] = draw(st.sampled_from([spec.background, spec.annotation_tint]))
    elif damage == "wick_row":
        pixels[draw(st.integers(0, height - 1))] = spec.wick_color
    elif damage == "flat_axis":
        axis = (axis[0], axis[0])
    elif damage == "reversed_axis":
        axis = (axis[1] + 1.0, axis[0])
    return pixels, spec, axis


@settings(max_examples=300, deadline=None)
@given(charts())
def test_inverse_parse_matches_the_per_candle_oracle(chart):
    pixels, spec, axis = chart
    try:
        want = oracle_inverse_parse(pixels, spec, axis)
    except CandlekitError as err:
        with pytest.raises(CandlekitError) as got:
            inverse_parse(RasterImage(pixels), spec, axis)
        assert type(got.value) is type(err)
        return
    got = inverse_parse(RasterImage(pixels), spec, axis)
    assert [(c.open, c.high, c.low, c.close, c.direction.value) for c in got] == want


def test_row_to_price_takes_a_row_or_an_array():
    spec = RenderSpec()
    rows = np.arange(spec.height_px)
    for axis in ((10.0, 37.25), (0.3, 0.3)):
        got = row_to_price(rows, *axis, spec)
        assert got.dtype == np.float64 and got.shape == rows.shape
        assert got.tolist() == [row_to_price(int(y), *axis, spec) for y in rows]


@pytest.mark.parametrize("axis", [(2.0, 1.0), (float("nan"), 1.0), (1.0, float("nan")),
                                  (0.0, float("inf")), (-float("inf"), 1.0),
                                  (-1e308, 1e308), (-8e307, 8e307), (np.float64(-1e308), np.float64(1e308))])
def test_reversed_or_non_finite_axis_is_bad_params(axis):
    w = CandleWindow(tuple(Candle(t, 10.0 + t, 12.0 + t, 9.0 + t, 11.0 + t) for t in range(3)), 2)
    with pytest.raises(BadParams):
        inverse_parse(render_window(w), RenderSpec(), axis)
