import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from candlekit import (
    Candle,
    CandleWindow,
    PatternKind,
    RenderSpec,
    detect_all,
    match_at,
    read_ppm,
    render_pattern,
    render_window,
    resize_nearest,
    synth_series,
    window,
    write_ppm,
)
from candlekit.errors import (
    BadSpec,
    CandlekitError,
    EmptyWindow,
    MalformedHeader,
    SpanMismatch,
    TruncatedPixelData,
)
from candlekit.raster import RasterImage, price_to_row

from conftest import LONG_INT, make_series, mutated

SPEC = RenderSpec()


def flat_window(n=1, price=100.0):
    candles = tuple(
        Candle(timestamp=t, open=price, high=price, low=price, close=price) for t in range(n)
    )
    return CandleWindow(candles=candles, source_end_index=n - 1)


class TestRenderSpec:
    def test_defaults_valid(self):
        SPEC.validate()

    def test_rejects_even_or_thin_candles(self):
        with pytest.raises(BadSpec):
            RenderSpec(candle_px=4).validate()
        with pytest.raises(BadSpec):
            RenderSpec(candle_px=1).validate()

    def test_rejects_duplicate_colors(self):
        with pytest.raises(BadSpec):
            RenderSpec(up_color=(200, 0, 0)).validate()  # collides with down

    def test_rejects_small_height(self):
        with pytest.raises(BadSpec):
            RenderSpec(height_px=12, margin_px=5).validate()


class TestRenderWindow:
    def test_width_formula_30_candles(self, walk_series):
        img = render_window(window(walk_series, 40, 30))
        assert img.width_px == 2 * 5 + 30 * 5 + 29 * 2 == 218
        assert img.height_px == 128

    def test_flat_candle_one_row_body(self):
        img = render_window(flat_window())
        row = SPEC.height_px // 2
        body = img.pixels[row, 5:10]
        assert (body == np.array(SPEC.up_color, dtype=np.uint8)).all()
        # nothing above or below that row
        others = np.delete(img.pixels, row, axis=0)
        assert (others == 255).all()

    def test_body_center_color_rule(self):
        up = make_series([(100.0, 103.0, 99.0, 102.0)])
        down = make_series([(102.0, 103.0, 99.0, 100.0)])
        for series, color in ((up, SPEC.up_color), (down, SPEC.down_color)):
            img = render_window(window(series, 0, 1))
            lo, hi = series[0].low, series[0].high
            mid_price = (series[0].open + series[0].close) / 2
            y = price_to_row(mid_price, lo, hi, SPEC)
            assert tuple(img.pixels[y, 7]) == color

    def test_deterministic_bytes(self, walk_series):
        w = window(walk_series, 60, 30)
        assert write_ppm(render_window(w)) == write_ppm(render_window(w))

    def test_empty_window(self):
        with pytest.raises(EmptyWindow):
            render_window(CandleWindow(candles=(), source_end_index=0))

    def test_y_map_monotone_and_pinned_to_margins(self):
        lo, hi = 90.0, 110.0
        ys = [price_to_row(p, lo, hi, SPEC) for p in np.linspace(lo, hi, 200)]
        assert all(b <= a for a, b in zip(ys, ys[1:]))
        assert price_to_row(hi, lo, hi, SPEC) == SPEC.margin_px
        assert price_to_row(lo, lo, hi, SPEC) == SPEC.height_px - SPEC.margin_px - 1

    def test_color_partition_and_coverage(self, walk_series):
        img = render_window(window(walk_series, 99, 30))
        palette = {SPEC.background, SPEC.up_color, SPEC.down_color, SPEC.wick_color}
        seen = {tuple(px) for px in img.pixels.reshape(-1, 3)}
        assert seen <= palette
        # non-background pixels live only inside candle x-extents
        non_bg_cols = np.nonzero(
            (img.pixels != np.array(SPEC.background, np.uint8)).any(axis=(0, 2))
        )[0]
        for x in non_bg_cols:
            offset = (x - SPEC.margin_px) % (SPEC.candle_px + SPEC.gap_px)
            assert offset < SPEC.candle_px


class TestRenderPattern:
    def test_width_for_span3(self, walk_series):
        m = next(m for m in detect_all(walk_series) if m.span == 3 and m.end_index >= 29)
        img = render_pattern(window(walk_series, m.end_index, 30), m)
        assert img.width_px == 2 * 5 + 3 * 5 + 2 * 2 == 29

    def test_background_is_tint(self, walk_series):
        m = next(m for m in detect_all(walk_series) if m.end_index >= 29)
        img = render_pattern(window(walk_series, m.end_index, 30), m)
        corners = [img.pixels[0, 0], img.pixels[-1, -1]]
        for px in corners:
            assert tuple(px) == SPEC.annotation_tint
        assert not (img.pixels == np.array(SPEC.background, np.uint8)).all(axis=2).any()

    def test_byte_identical_re_render(self, walk_series):
        m = next(m for m in detect_all(walk_series) if m.end_index >= 29)
        w = window(walk_series, m.end_index, 30)
        assert write_ppm(render_pattern(w, m)) == write_ppm(render_pattern(w, m))

    def test_span_mismatch(self, constant_series):
        m = match_at(constant_series, 40, PatternKind.DOJI)
        with pytest.raises(SpanMismatch):
            render_pattern(window(constant_series, 39, 30), m)


class TestPpm:
    def test_exact_bytes_for_2x1_white(self):
        img = RasterImage(np.full((1, 2, 3), 255, dtype=np.uint8))
        assert write_ppm(img) == b"P6\n2 1\n255\n" + b"\xff" * 6

    def test_round_trip(self, walk_series):
        img = render_window(window(walk_series, 45, 30))
        assert read_ppm(write_ppm(img)) == img

    def test_truncated_pixels(self):
        with pytest.raises(TruncatedPixelData):
            read_ppm(b"P6\n4 4\n255\n" + b"\x00" * 10)

    def test_malformed_header(self):
        with pytest.raises(MalformedHeader):
            read_ppm(b"P5\n2 1\n255\n" + b"\x00" * 6)
        with pytest.raises(MalformedHeader):
            read_ppm(b"P6\nx 1\n255\n")

    def test_comments_tolerated(self):
        img = RasterImage(np.zeros((1, 1, 3), dtype=np.uint8))
        data = b"P6\n# a comment\n1 1\n255\n\x00\x00\x00"
        assert read_ppm(data) == img

    @settings(max_examples=300, deadline=None)
    @given(
        size=st.one_of(st.none(), st.tuples(st.integers(1, 4), st.integers(1, 4))),
        tail=st.binary(max_size=64),
    )
    def test_arbitrary_bytes_give_image_or_candlekit_error(self, size, tail):
        head = b"" if size is None else f"P6\n{size[0]} {size[1]}\n255\n".encode()
        try:
            img = read_ppm(head + tail)
        except CandlekitError:
            return
        assert img.pixels.dtype == np.uint8 and img.pixels.shape[2] == 3
        if size is not None:
            assert img.pixels.shape == (size[1], size[0], 3)

    @settings(max_examples=300, deadline=None)
    @given(data=mutated(b"P6\n3 2\n255\n" + bytes(range(18)),
                        chunks=(LONG_INT, b"#", b"# c\n", b" ", b"\n", b"0"), spots=(2, 3, 5, 7)))
    def test_mutated_stream_gives_image_or_candlekit_error(self, data):
        try:
            assert isinstance(read_ppm(data), RasterImage)
        except CandlekitError:
            pass


class TestResize:
    def test_identity_when_same_size(self):
        img = render_window(flat_window(3))
        assert resize_nearest(img, img.height_px, img.width_px) == img

    def test_downsample_shape(self, walk_series):
        img = render_window(window(walk_series, 50, 30))
        small = resize_nearest(img, 64, 64)
        assert (small.height_px, small.width_px) == (64, 64)

    def test_pinned_index_map(self):
        px = np.arange(4 * 4 * 3, dtype=np.uint8).reshape(4, 4, 3)
        out = resize_nearest(RasterImage(px), 2, 2)
        # source index floor(i * 4 / 2) -> rows/cols 0 and 2
        assert np.array_equal(out.pixels, px[[0, 2]][:, [0, 2]])
