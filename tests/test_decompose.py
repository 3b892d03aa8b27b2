import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from candlekit import (
    CandleWindow,
    RenderSpec,
    inverse_parse,
    pixel_quantum,
    render_window,
    segment_columns,
    subcharts,
    synth_series,
    window,
)
from candlekit.decompose import ParsedDirection
from candlekit.errors import (
    DegenerateAxis,
    NoCandlesFound,
    TooFewCandles,
    UnknownColor,
)
from candlekit.raster import RasterImage
from oracles import oracle_segment_columns

SPEC = RenderSpec()
PALETTE = (SPEC.background, SPEC.annotation_tint, SPEC.up_color, SPEC.down_color, SPEC.wick_color)


@st.composite
def palette_columns(draw):
    """Columns (lists of PALETTE indices, one per row): all background, all tint, or mixed."""
    h = draw(st.integers(1, 4))
    column = st.one_of(
        st.just([0] * h), st.just([1] * h), st.lists(st.integers(0, 4), min_size=h, max_size=h)
    )
    return draw(st.lists(column, min_size=1, max_size=24))


def axis_of(w: CandleWindow) -> tuple[float, float]:
    return min(c.low for c in w.candles), max(c.high for c in w.candles)


class TestSegmentColumns:
    @pytest.mark.parametrize("n", [1, 3, 30])
    def test_extents_match_layout_formula(self, n):
        s = synth_series(11, 40)
        img = render_window(window(s, 39, n))
        extents = segment_columns(img)
        assert len(extents) == n
        for i, ext in enumerate(extents):
            x0 = SPEC.margin_px + i * (SPEC.candle_px + SPEC.gap_px)
            assert (ext.x_start, ext.x_end, ext.index) == (x0, x0 + SPEC.candle_px - 1, i)

    def test_all_background_raises(self):
        blank = RasterImage(np.full((16, 16, 3), 255, dtype=np.uint8))
        with pytest.raises(NoCandlesFound):
            segment_columns(blank)

    def test_tinted_background_counts_as_empty(self):
        tint = np.array(SPEC.annotation_tint, dtype=np.uint8)
        blank = RasterImage(np.tile(tint, (16, 16, 1)))
        with pytest.raises(NoCandlesFound):
            segment_columns(blank)

    @settings(max_examples=300, deadline=None)
    @given(palette_columns())
    @example([[2]])  # width 1
    @example([[0]])
    @example([[2], [0], [1], [3]])  # runs touch column 0 and the last column
    @example([[2, 4], [3, 3], [4, 0]])  # fully occupied
    def test_extents_match_longhand_oracle(self, columns):
        pixels = np.array(PALETTE, dtype=np.uint8)[np.array(columns).T]
        want = oracle_segment_columns(pixels.tolist(), {SPEC.background, SPEC.annotation_tint})
        if not want:
            with pytest.raises(NoCandlesFound):
                segment_columns(RasterImage(pixels))
            return
        got = segment_columns(RasterImage(pixels))
        assert [(e.x_start, e.x_end, e.index) for e in got] == [
            (x0, x1, i) for i, (x0, x1) in enumerate(want)
        ]


class TestSubcharts:
    def test_30_candles_give_28(self):
        s = synth_series(4, 60)
        img = render_window(window(s, 40, 30))
        crops = subcharts(img)
        assert len(crops) == 28
        for crop in crops:
            assert len(segment_columns(crop)) == 3
            assert crop.height_px == img.height_px

    def test_exact_k_gives_one(self):
        s = synth_series(4, 10)
        img = render_window(window(s, 5, 3))
        crops = subcharts(img, k=3)
        assert len(crops) == 1

    def test_too_few_candles(self):
        s = synth_series(4, 10)
        img = render_window(window(s, 5, 2))
        with pytest.raises(TooFewCandles):
            subcharts(img, k=3)

    @pytest.mark.parametrize("n,k,stride,expected", [(30, 3, 1, 28), (30, 3, 2, 14), (10, 4, 3, 3)])
    def test_count_law(self, n, k, stride, expected):
        s = synth_series(5, 40)
        img = render_window(window(s, 35, n))
        assert len(subcharts(img, k=k, stride=stride)) == expected == (n - k) // stride + 1


class TestInverseParse:
    def test_round_trip_small(self):
        for seed in range(25):
            w = window(synth_series(seed, 40), 35, 30)
            img = render_window(w)
            axis = axis_of(w)
            parsed = inverse_parse(img, SPEC, axis)
            q = pixel_quantum(axis, SPEC)
            assert len(parsed) == 30
            for got, truth in zip(parsed, w.candles):
                assert abs(got.open - truth.open) <= q
                assert abs(got.high - truth.high) <= q
                assert abs(got.low - truth.low) <= q
                assert abs(got.close - truth.close) <= q
                if truth.open != truth.close:
                    want = ParsedDirection.UP if truth.close > truth.open else ParsedDirection.DOWN
                    assert got.direction is want

    def test_flat_candle(self, constant_series):
        w = window(constant_series, 30, 1)
        img = render_window(w)
        parsed = inverse_parse(img, SPEC, (100.0, 100.0))
        (candle,) = parsed
        assert candle.open == candle.high == candle.low == candle.close == 100.0
        assert candle.direction is ParsedDirection.UP

    def test_direction_from_color(self):
        from conftest import make_series

        s = make_series([(102.0, 103.0, 99.0, 100.0)])
        w = window(s, 0, 1)
        parsed = inverse_parse(render_window(w), SPEC, axis_of(w))
        assert parsed[0].direction is ParsedDirection.DOWN

    def test_unknown_color(self):
        w = window(synth_series(2, 40), 35, 5)
        img = render_window(w)
        img.pixels[0, 0] = (1, 2, 3)
        with pytest.raises(UnknownColor):
            inverse_parse(img, SPEC, axis_of(w))

    def test_degenerate_axis_rejects_tall_charts(self):
        w = window(synth_series(2, 40), 35, 5)
        img = render_window(w)
        with pytest.raises(DegenerateAxis):
            inverse_parse(img, SPEC, (100.0, 100.0))
