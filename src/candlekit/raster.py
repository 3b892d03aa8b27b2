"""Deterministic candle-chart rasterization.

Charts are drawn with no axes, gridlines, or anti-aliasing so that every
pixel is attributable to exactly one candle, the property the decomposer
relies on. Layout for an n-candle window:

    width  = 2*margin_px + n*candle_px + (n-1)*gap_px
    candle i occupies columns [margin + i*(candle_px+gap_px), +candle_px)

The price-to-row map over the window's [min_low, max_high] is

    y(p) = round_half_up((max_high - p) * (height - 2*margin - 1)
                         / (max_high - min_low)) + margin

(rows grow downward; round half up = floor(x + 0.5), pinned to avoid
platform drift). A flat window (max_high == min_low) maps every price to
row height_px // 2. The wick is a 1-px column at the candle's center; the
body rectangle is drawn after it, so the body overdraws the wick. A
zero-height body is a 1-px line in up_color (close >= open convention).

Pattern crops are rendered with the same geometry over their own price
scale, with the background replaced by ``annotation_tint``, the marker
that distinguishes pattern images from history images.

Canonical bit-exact interchange format is binary PPM (P6).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadSpec,
    EmptyWindow,
    MalformedHeader,
    SpanMismatch,
    TruncatedPixelData,
)
from .market_data import Candle, CandleWindow
from .patterns import PatternMatch

RGB = tuple[int, int, int]

_HEADER_INT = re.compile(rb"\d+")


@dataclass(frozen=True)
class RenderSpec:
    candle_px: int = 5
    gap_px: int = 2
    margin_px: int = 5
    height_px: int = 128
    up_color: RGB = (0, 168, 0)
    down_color: RGB = (200, 0, 0)
    wick_color: RGB = (0, 0, 0)
    background: RGB = (255, 255, 255)
    annotation_tint: RGB = (255, 235, 160)

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.candle_px < 3 or self.candle_px % 2 == 0:
            raise BadSpec(f"candle_px must be odd and >= 3, got {self.candle_px}")
        if self.gap_px < 1:
            raise BadSpec("gap_px must be >= 1 (segmentation needs a background gap)")
        if self.margin_px < 0:
            raise BadSpec("margin_px must be >= 0")
        if self.height_px <= 2 * self.margin_px + 2:
            raise BadSpec(
                f"height_px {self.height_px} too small for margin {self.margin_px}"
            )
        colors = (
            self.up_color,
            self.down_color,
            self.wick_color,
            self.background,
            self.annotation_tint,
        )
        for c in colors:
            if len(c) != 3 or any(type(v) is not int or not 0 <= v <= 255 for v in c):
                raise BadSpec(f"bad RGB triple {c}")
        if len(set(colors)) != len(colors):
            raise BadSpec("up/down/wick/background/tint colors must be pairwise distinct")

    def chart_width(self, n_candles: int) -> int:
        return 2 * self.margin_px + n_candles * self.candle_px + (n_candles - 1) * self.gap_px


class RasterImage:
    """RGB8 bitmap, row-major, origin top-left."""

    __slots__ = ("pixels",)

    def __init__(self, pixels: np.ndarray) -> None:
        if pixels.ndim != 3 or pixels.shape[2] != 3 or pixels.dtype != np.uint8:
            raise BadSpec(f"pixel buffer must be (H, W, 3) uint8, got {pixels.shape}")
        self.pixels = pixels

    @property
    def width_px(self) -> int:
        return self.pixels.shape[1]

    @property
    def height_px(self) -> int:
        return self.pixels.shape[0]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RasterImage) and np.array_equal(self.pixels, other.pixels)

    def copy(self) -> "RasterImage":
        return RasterImage(self.pixels.copy())


def round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def price_to_row(p: float, min_low: float, max_high: float, spec: RenderSpec) -> int:
    if max_high == min_low:
        return spec.height_px // 2
    inner = spec.height_px - 2 * spec.margin_px - 1
    return round_half_up((max_high - p) * inner / (max_high - min_low)) + spec.margin_px


def row_to_price(y, min_low: float, max_high: float, spec: RenderSpec):
    """Price at row ``y``: a float for an int row, a float array for an int array of rows."""
    if max_high == min_low:
        return np.full(np.shape(y), min_low)[()]
    inner = spec.height_px - 2 * spec.margin_px - 1
    return max_high - (y - spec.margin_px) * (max_high - min_low) / inner


def _render(candles: tuple[Candle, ...], spec: RenderSpec, background: RGB) -> RasterImage:
    n = len(candles)
    width = spec.chart_width(n)
    img = np.empty((spec.height_px, width, 3), dtype=np.uint8)
    img[:, :] = background

    min_low = min(c.low for c in candles)
    max_high = max(c.high for c in candles)

    for i, c in enumerate(candles):
        x0 = spec.margin_px + i * (spec.candle_px + spec.gap_px)
        xc = x0 + spec.candle_px // 2
        y_high = price_to_row(c.high, min_low, max_high, spec)
        y_low = price_to_row(c.low, min_low, max_high, spec)
        img[y_high : y_low + 1, xc] = spec.wick_color
        body_color = spec.up_color if c.close >= c.open else spec.down_color
        y_top = price_to_row(max(c.open, c.close), min_low, max_high, spec)
        y_bot = price_to_row(min(c.open, c.close), min_low, max_high, spec)
        img[y_top : y_bot + 1, x0 : x0 + spec.candle_px] = body_color
    return RasterImage(img)


def render_window(window: CandleWindow, spec: RenderSpec = RenderSpec()) -> RasterImage:
    """History chart of a candle window on the plain background."""
    if len(window.candles) == 0:
        raise EmptyWindow("cannot render an empty window")
    return _render(window.candles, spec, spec.background)


def render_pattern(
    window: CandleWindow, match: PatternMatch, spec: RenderSpec = RenderSpec()
) -> RasterImage:
    """Pattern crop: only the match's candles, tinted background.

    The crop gets its own price scale over just those candles; geometry is
    otherwise identical to :func:`render_window`.
    """
    if len(window.candles) < match.span:
        raise SpanMismatch(
            f"window of {len(window.candles)} candles cannot hold span {match.span}"
        )
    if window.source_end_index != match.end_index:
        raise SpanMismatch(
            f"window ends at {window.source_end_index} but match ends at {match.end_index}"
        )
    return _render(window.candles[-match.span :], spec, spec.annotation_tint)


def write_ppm(image: RasterImage) -> bytes:
    """Binary PPM: ``P6\\n{w} {h}\\n255\\n`` + raw RGB bytes."""
    header = f"P6\n{image.width_px} {image.height_px}\n255\n".encode("ascii")
    return header + image.pixels.tobytes()


def read_ppm(data: bytes) -> RasterImage:
    """Inverse of :func:`write_ppm`; tolerates extra whitespace and comments."""
    if not data.startswith(b"P6"):
        raise MalformedHeader("not a P6 stream")
    # header = magic + three ASCII integers, '#' comments allowed
    pos = 2
    fields: list[int] = []
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        m = _HEADER_INT.match(data, pos)
        if not m:
            raise MalformedHeader("expected integer in PPM header")
        fields.append(int(m.group(0)))
        pos = m.end()
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise MalformedHeader("missing whitespace after maxval")
    pos += 1
    width, height, maxval = fields
    if maxval != 255 or width < 1 or height < 1:
        raise MalformedHeader(f"unsupported PPM dimensions/maxval {fields}")
    expected = width * height * 3
    if len(data) - pos < expected:
        raise TruncatedPixelData(f"expected {expected} pixel bytes, got {len(data) - pos}")
    pixels = np.frombuffer(data, dtype=np.uint8, count=expected, offset=pos)
    return RasterImage(pixels.reshape(height, width, 3).copy())


def resize_nearest(image: RasterImage, out_h: int, out_w: int) -> RasterImage:
    """Nearest-neighbor resize; source index = floor(i * src / out)."""
    rows = nearest_index(image.height_px, out_h)
    cols = nearest_index(image.width_px, out_w)
    return RasterImage(image.pixels[rows][:, cols].copy())


def nearest_index(n_src, n_out: int) -> np.ndarray:
    """Source indices floor(i * n_src / n_out), i < n_out; one row per entry of an array n_src."""
    if n_out < 1:
        raise BadSpec("resize target must be positive")
    return np.multiply.outer(n_src, np.arange(n_out)) // n_out
