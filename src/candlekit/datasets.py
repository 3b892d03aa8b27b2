"""Turning rendered charts into training arrays.

One gather reads each PPM once and writes its crops, resized
nearest-neighbor to the model's input size, as uint8 C x H x W pixels: the
whole chart for the history and pattern streams, k-candle sub-charts for
the Decomposer; ``models.model_input`` scales them per minibatch or chunk.
Dataset directories follow the layout written by the experiment builder:
``manifest.jsonl`` plus ``history/`` and ``pattern/`` PPM files, with paths
stored relative to the directory.

``planted_signal_set`` builds the synthetic sanity-check dataset: windows
whose last candle has a bimodal body-to-range fraction (alternating
samples draw from a small-body and a large-body regime), labeled by
whether that fraction exceeds the dataset median. The two regimes are
separated by a wide gap, so the label is visually obvious in the rendered
chart and a small CNN must be able to learn it.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .decompose import subchart_spans
from .errors import EmptyDataset, ManifestError, ShapeMismatch
from .fileio import parse_json, read_input
from .market_data import Candle, CandleWindow
from .models import TrainingSet, model_input
from .raster import RasterImage, RenderSpec, nearest_index, read_ppm, render_window
from .rng import Rng, derive_seed


def image_to_array(img: RasterImage) -> np.ndarray:
    """(H, W, 3) uint8 -> (3, H, W) float32 in [0, 1], scaled by ``model_input`` as a model's input is."""
    return model_input(img.pixels).transpose(2, 0, 1)


_ROW_KEYS = ("end_index", "strength", "history_image_path", "pattern_image_path")


def load_manifest_rows(dataset_dir: str | Path) -> list[dict]:
    """The rows of ``manifest.jsonl``; ManifestError for a line that is not a full row."""
    path = Path(dataset_dir) / "manifest.jsonl"
    data = read_input(path, "dataset manifest", Path.read_bytes)
    lines = [line for line in data.splitlines() if line.strip()]
    rows = []
    for n, line in enumerate(lines, start=1):
        row = parse_json(line, f"{path} row {n}")
        if not (isinstance(row, dict) and set(_ROW_KEYS) <= row.keys()
                and type(row["end_index"]) is int
                and row["strength"] in ("strong", "weak")
                and isinstance(row["history_image_path"], str)
                and isinstance(row["pattern_image_path"], str)):
            raise ManifestError(
                f"{path} row {n} needs keys {_ROW_KEYS}, an int end_index, "
                "a strength of 'strong' or 'weak' and str image paths"
            )
        rows.append(row)
    if not rows:
        raise EmptyDataset(f"{path} holds no samples")
    return rows


def _read_rows(dataset_dirs: list[Path]):
    """((dir, row) pairs, labels, order, member) over every directory's rows.

    A strong row is labeled 1.0 and a weak one 0.0; ``member`` is the
    directory's position, or None for a single directory.
    """
    pairs: list[tuple[Path, dict]] = []
    member: list[int] = []
    for m, d in enumerate(map(Path, dataset_dirs)):
        for row in load_manifest_rows(d):
            pairs.append((d, row))
            member.append(m)
    labels = np.asarray([1.0 if r["strength"] == "strong" else 0.0 for _, r in pairs], dtype=np.float32)
    order = np.asarray([r["end_index"] for _, r in pairs], dtype=np.int64)
    return pairs, labels, order, np.asarray(member, dtype=np.int64) if len(dataset_dirs) > 1 else None


def _whole(img: RasterImage) -> np.ndarray:
    return np.array([[0, img.width_px - 1]])


def _gather(pairs, key: str, hw: tuple[int, int], spans) -> np.ndarray:
    """Each row's ``key`` chart cut into S crops, as one C-order (N, S, 3, h, w) uint8 pixel array.

    ``spans(img)`` gives a chart's (S, 2) inclusive crop columns; each crop is
    resized as by ``resize_nearest``. A chart whose S differs from the first's raises ShapeMismatch.
    """
    h, w = hw
    out = None
    for i, (d, row) in enumerate(pairs):
        img = read_ppm(read_input(d / row[key], "image", Path.read_bytes))
        x0, x1 = spans(img).T
        cols = x0[:, None] + nearest_index(x1 - x0 + 1, w)
        crops = img.pixels[nearest_index(img.height_px, h)][:, cols]  # (h, S, w, 3)
        if out is None:
            out = np.empty((len(pairs), len(x0), 3, h, w), dtype=np.uint8)
        elif len(x0) != out.shape[1]:
            raise ShapeMismatch(f"{d / row[key]} gives {len(x0)} crops, the first chart {out.shape[1]}")
        out[i] = crops.transpose(1, 3, 0, 2)
    return out


def assemble_training_set(
    dataset_dirs: list[Path],
    hist_hw: tuple[int, int],
    pattern_hw: tuple[int, int],
    include_pattern: bool,
) -> TrainingSet:
    """A training set of the uint8 ``history`` stream, and of ``pattern`` if ``include_pattern``.

    Multiple directories form a merged dataset: samples keep a member id so
    the chronological split stays within each member.
    """
    pairs, labels, order, member = _read_rows(dataset_dirs)
    history = _gather(pairs, "history_image_path", hist_hw, _whole)[:, 0]
    pattern = _gather(pairs, "pattern_image_path", pattern_hw, _whole)[:, 0] if include_pattern else None
    return TrainingSet(labels=labels, order=order, history=history, pattern=pattern, member=member)


def assemble_subchart_dataset(
    dataset_dirs: list[Path],
    sub_hw: tuple[int, int],
    render_spec: RenderSpec,
    k: int = 3,
    stride: int = 1,
) -> TrainingSet:
    """A training set whose uint8 ``subcharts`` stream holds the history charts cut into
    (N, S, 3, h, w) k-candle sub-charts; ShapeMismatch if S varies."""
    pairs, labels, order, member = _read_rows(dataset_dirs)
    subcharts = _gather(pairs, "history_image_path", sub_hw,
                        lambda img: subchart_spans(img, render_spec, k=k, stride=stride))
    return TrainingSet(labels=labels, order=order, subcharts=subcharts, member=member)


def _candle(t: int, level: float, crange: float, body_frac: float, bullish: bool) -> Candle:
    low = level
    high = level + crange
    mid = level + crange / 2.0
    half = body_frac * crange / 2.0
    if bullish:
        opn, close = mid - half, mid + half
    else:
        opn, close = mid + half, mid - half
    return Candle(timestamp=t, open=opn, high=high, low=low, close=close)


def planted_signal_set(
    n_samples: int = 500,
    seed: int = 7,
    n_candles: int = 4,
    spec: RenderSpec = RenderSpec(candle_px=5, gap_px=2, margin_px=3, height_px=32),
) -> TrainingSet:
    """Separable fixture: label = last candle's body fraction above median.

    With the default spec and four candles the chart is natively 32x32, so
    no resize blurs the signal. Sample i draws the last candle's body
    fraction from U(0.02, 0.30) when i is even and U(0.60, 0.95) when i is
    odd, which pins the median inside the gap and balances the classes.
    ``history`` holds the charts' (3, 32, 32) uint8 pixels, as the assemblers' streams do.
    """
    rng = Rng(derive_seed(seed, "planted-signal"))
    images = np.empty((n_samples, 3, spec.height_px, spec.chart_width(n_candles)), dtype=np.uint8)
    fracs: list[float] = []
    for i in range(n_samples):
        candles = []
        level = 100.0
        for t in range(n_candles - 1):
            crange = 0.8 + 1.2 * rng.uniform()
            frac = 0.2 + 0.5 * rng.uniform()
            bullish = rng.uniform() < 0.5
            candles.append(_candle(t, level, crange, frac, bullish))
            level += 1.2 * (rng.uniform() - 0.5)
        if i % 2 == 0:
            frac = 0.02 + 0.28 * rng.uniform()
        else:
            frac = 0.60 + 0.35 * rng.uniform()
        bullish = rng.uniform() < 0.5
        candles.append(_candle(n_candles - 1, level, 4.0, frac, bullish))
        fracs.append(frac)
        window = CandleWindow(candles=tuple(candles), source_end_index=n_candles - 1)
        images[i] = render_window(window, spec).pixels.transpose(2, 0, 1)

    median = float(np.median(fracs))
    labels = np.asarray([1.0 if f > median else 0.0 for f in fracs], dtype=np.float32)
    return TrainingSet(labels=labels, order=np.arange(n_samples, dtype=np.int64), history=images)
