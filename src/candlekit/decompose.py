"""Chart decomposition and inverse parsing.

Works only on images produced by :mod:`candlekit.raster` (or
pixel-compatible ones): the five-color palette and the guaranteed
background gap between candles make column-run segmentation exact, so
sub-chart extraction and OHLC recovery need no learned components.

Sub-charts keep the original pixel scale: crops are taken from the parent
image without re-scaling prices, so vertical geometry stays comparable
across the sub-charts of one window.

Inverse parsing requires the window's true price axis (charts carry no
axis labels); every recovered price is within one pixel-quantum

    (max_high - min_low) / (height_px - 2*margin_px - 1)

of the truth, and direction is exact whenever open != close.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    BadParams,
    DegenerateAxis,
    NoCandlesFound,
    TooFewCandles,
    UnknownColor,
)
from .raster import RasterImage, RenderSpec, row_to_price


@dataclass(frozen=True)
class CandleExtent:
    """Inclusive pixel-column extent of one candle."""

    x_start: int
    x_end: int
    index: int


class ParsedDirection(Enum):
    UP = "up"
    DOWN = "down"


@dataclass(frozen=True)
class ParsedCandle:
    open: float
    high: float
    low: float
    close: float
    direction: ParsedDirection


def _pack(rgb: np.ndarray) -> np.ndarray:
    """RGB8 (..., 3) -> packed uint32 for fast palette comparisons."""
    return (rgb[..., 0].astype(np.uint32) << 16) | (rgb[..., 1].astype(np.uint32) << 8) | rgb[..., 2]


def _pack_color(c: tuple[int, int, int]) -> int:
    return (c[0] << 16) | (c[1] << 8) | c[2]


def _empty(packed: np.ndarray, spec: RenderSpec) -> np.ndarray:
    """Mask of the packed pixels that are background or annotation tint."""
    return (packed == _pack_color(spec.background)) | (packed == _pack_color(spec.annotation_tint))


def _runs(empty: np.ndarray) -> np.ndarray:
    """(n, 2) inclusive first and last columns of each :func:`segment_columns` run,
    from the chart's :func:`_empty` mask."""
    occupied = ~empty.all(axis=0)
    if not occupied.any():
        raise NoCandlesFound("image has no occupied columns")
    # occupancy flips at each run's first column and just past its last
    edges = np.diff(occupied, prepend=False, append=False).nonzero()[0]
    return edges.reshape(-1, 2) - (0, 1)


def segment_columns(image: RasterImage, spec: RenderSpec = RenderSpec()) -> list[CandleExtent]:
    """Maximal runs of columns holding any non-background, non-tint pixel."""
    runs = _runs(_empty(_pack(image.pixels), spec))
    return [CandleExtent(int(x0), int(x1), i) for i, (x0, x1) in enumerate(runs)]


def subcharts(
    image: RasterImage,
    spec: RenderSpec = RenderSpec(),
    k: int = 3,
    stride: int = 1,
) -> list[RasterImage]:
    """Sliding k-candle crops, full height, left-to-right.

    Produces exactly floor((n - k) / stride) + 1 crops for an n-candle
    chart; each crop re-segments into exactly k extents.
    """
    spans = subchart_spans(image, spec, k, stride)
    return [RasterImage(image.pixels[:, x0 : x1 + 1].copy()) for x0, x1 in spans]


def subchart_spans(image: RasterImage, spec: RenderSpec = RenderSpec(), k: int = 3,
                   stride: int = 1) -> np.ndarray:
    """(S, 2) inclusive first and last columns of each :func:`subcharts` crop.

    A crop spans its k candles plus half a gap each side, clamped to the image.
    """
    if k < 1 or stride < 1:
        raise BadParams("k and stride must be >= 1")
    empty = _empty(_pack(image.pixels), spec)
    runs = _runs(empty)
    n = len(runs)
    if n < k:
        raise TooFewCandles(f"chart has {n} candles, need at least {k}")
    pad = spec.gap_px // 2
    x0 = np.maximum(runs[: n - k + 1 : stride, 0] - pad, 0)
    x1 = np.minimum(runs[k - 1 :: stride, 1] + pad, image.width_px - 1)
    return np.stack([x0, x1], axis=1)


def inverse_parse(
    image: RasterImage,
    spec: RenderSpec,
    price_axis: tuple[float, float],
) -> list[ParsedCandle]:
    """Recover OHLC values from a rendered chart.

    ``price_axis`` must be the window's true (min_low, max_high). Per
    candle, the center column gives the wick top/bottom, the leftmost body
    column gives the body rows and color, and the row-to-price map inverts
    the renderer's quantization.
    """
    min_low, max_high = price_axis
    if max_high < min_low:
        raise BadParams(f"price_axis must be (min, max), got {price_axis}")

    packed = _pack(image.pixels)
    palette = {
        _pack_color(spec.background),
        _pack_color(spec.annotation_tint),
        _pack_color(spec.up_color),
        _pack_color(spec.down_color),
        _pack_color(spec.wick_color),
    }
    foreign = ~np.isin(packed, list(palette))
    if foreign.any():
        y, x = np.argwhere(foreign)[0]
        raise UnknownColor(f"pixel at ({y}, {x}) = {tuple(image.pixels[y, x])} not in palette")

    empty = _empty(packed, spec)
    if max_high == min_low:
        occupied_rows = np.nonzero(~empty.all(axis=1))[0]
        if len(occupied_rows) > 1:
            raise DegenerateAxis(
                f"flat price axis but {len(occupied_rows)} occupied rows"
            )

    up = _pack_color(spec.up_color)
    down = _pack_color(spec.down_color)
    parsed: list[ParsedCandle] = []
    for i, (x0, x1) in enumerate(_runs(empty)):
        wick_rows = np.nonzero(~empty[:, (x0 + x1) // 2])[0]
        y_high, y_low = int(wick_rows[0]), int(wick_rows[-1])

        body_col = packed[:, x0]
        body_rows = np.nonzero((body_col == up) | (body_col == down))[0]
        if len(body_rows) == 0:
            raise UnknownColor(f"no body pixels in extent {i}")
        y_top, y_bot = int(body_rows[0]), int(body_rows[-1])
        direction = ParsedDirection.UP if body_col[y_top] == up else ParsedDirection.DOWN

        high = row_to_price(y_high, min_low, max_high, spec)
        low = row_to_price(y_low, min_low, max_high, spec)
        top_price = row_to_price(y_top, min_low, max_high, spec)
        bot_price = row_to_price(y_bot, min_low, max_high, spec)
        if direction is ParsedDirection.UP:
            opn, close = bot_price, top_price
        else:
            opn, close = top_price, bot_price
        parsed.append(
            ParsedCandle(open=opn, high=high, low=low, close=close, direction=direction)
        )
    return parsed


def pixel_quantum(price_axis: tuple[float, float], spec: RenderSpec) -> float:
    """Price covered by one pixel row; the round-trip error bound."""
    inner = spec.height_px - 2 * spec.margin_px - 1
    return (price_axis[1] - price_axis[0]) / inner
