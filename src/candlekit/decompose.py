"""Chart decomposition and inverse parsing.

Works only on images produced by :mod:`candlekit.raster` (or
pixel-compatible ones): the five-color palette and the guaranteed
background gap between candles make column-run segmentation exact, so
sub-chart extraction and OHLC recovery need no learned components.

Sub-charts keep the original pixel scale: crops are taken from the parent
image without re-scaling prices, so vertical geometry stays comparable
across the sub-charts of one window.

Inverse parsing reads every candle of a chart in one array pass over its
column runs. It requires the window's true price axis (charts carry no
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


def _first_last(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and last True row of each column; every column must hold one."""
    return mask.argmax(axis=0), len(mask) - 1 - mask[::-1].argmax(axis=0)


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

    ``price_axis`` must be the window's true (min_low, max_high), with every row's price finite.
    One array pass over the column runs reads every candle at once: each run's center
    column gives the wick top/bottom, its leftmost column the body rows and color,
    and the row-to-price map inverts the renderer's quantization.
    """
    min_low, max_high = price_axis
    if not -np.inf < min_low <= max_high < np.inf:
        raise BadParams(f"price_axis must be finite (min, max), got {price_axis}")
    # every step of row_to_price on this image's rows stays within |max_high| + (rows + margin) * span
    if not abs(float(max_high)) + (image.height_px + spec.margin_px) * (float(max_high) - float(min_low)) < np.inf:
        raise BadParams(f"price_axis {price_axis} is too wide for every row's price to be finite")

    packed = _pack(image.pixels)
    palette = (spec.background, spec.annotation_tint, spec.up_color, spec.down_color, spec.wick_color)
    foreign = ~np.isin(packed, [_pack_color(c) for c in palette])
    if foreign.any():
        y, x = np.argwhere(foreign)[0]
        raise UnknownColor(f"pixel at ({y}, {x}) = {tuple(image.pixels[y, x])} not in palette")

    empty = _empty(packed, spec)
    if max_high == min_low:
        occupied_rows = np.count_nonzero(~empty.all(axis=1))
        if occupied_rows > 1:
            raise DegenerateAxis(f"flat price axis but {occupied_rows} occupied rows")

    runs = _runs(empty)
    body_cols = packed[:, runs[:, 0]]
    is_up = body_cols == _pack_color(spec.up_color)
    body = is_up | (body_cols == _pack_color(spec.down_color))
    bare = ~body.any(axis=0)
    if bare.any():
        raise UnknownColor(f"no body pixels in extent {bare.argmax()}")
    y_top, y_bot = _first_last(body)
    rows = np.stack([*_first_last(~empty[:, runs.sum(axis=1) // 2]), y_top, y_bot])
    high, low, top, bot = row_to_price(rows, min_low, max_high, spec).tolist()
    ups = is_up[y_top, np.arange(len(runs))].tolist()
    return [
        ParsedCandle(open=b if u else t, high=h, low=lo, close=t if u else b,
                     direction=ParsedDirection.UP if u else ParsedDirection.DOWN)
        for h, lo, t, b, u in zip(high, low, top, bot, ups)
    ]


def pixel_quantum(price_axis: tuple[float, float], spec: RenderSpec) -> float:
    """Price covered by one pixel row; the round-trip error bound."""
    inner = spec.height_px - 2 * spec.margin_px - 1
    return (price_axis[1] - price_axis[0]) / inner
