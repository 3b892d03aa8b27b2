"""Independent straight-line oracles used to cross-check the library.

Everything here is written longhand from plain OHLC tuples (and, for the
convolution, max-pool and upsample oracles, nested lists; for the optimizer
oracle, lists of float32 scalars) on purpose: no shared
helpers with the package, no enum dispatch, no vectorization. If the
library and these functions agree, the agreement is between two
separately written routes.
"""

from __future__ import annotations

import numpy as np


def _mean(xs):
    return sum(xs) / len(xs)


def oracle_match(candles, end_index, kind, p) -> bool:
    """Evaluate one pattern predicate; candles are (o, h, l, c) tuples."""
    o, h, l, c = candles[end_index]
    body = abs(c - o)
    rng = h - l
    upper = h - max(o, c)
    lower = min(o, c) - l

    if kind == "doji":
        return rng == 0 or body <= p.doji_body_frac * rng

    if kind in ("hammer", "inverted_hammer", "shooting_star"):
        if rng == 0:
            return False
        first = end_index
        closes_before = [candles[i][3] for i in range(first - p.trend_lookback, first)]
        first_open = candles[first][0]
        down = _mean(closes_before) - first_open >= p.trend_min_slope_frac * first_open
        up = first_open - _mean(closes_before) >= p.trend_min_slope_frac * first_open
        if kind == "hammer":
            return (
                down
                and body > 0
                and lower >= p.long_wick_mult * body
                and upper <= p.short_wick_frac * rng
            )
        shape = upper >= p.long_wick_mult * body and lower <= p.short_wick_frac * rng
        return shape and (down if kind == "inverted_hammer" else up)

    if kind in ("bullish_engulfing", "bearish_engulfing"):
        po, ph, pl, pc = candles[end_index - 1]
        prev_lo, prev_hi = min(po, pc), max(po, pc)
        cur_lo, cur_hi = min(o, c), max(o, c)
        contains = cur_lo < prev_lo and cur_hi > prev_hi
        if kind == "bullish_engulfing":
            return pc < po and c > o and contains
        return pc > po and c < o and contains

    o1, h1, l1, c1 = candles[end_index - 2]
    o2, h2, l2, c2 = candles[end_index - 1]
    o3, h3, l3, c3 = candles[end_index]

    if kind in ("morning_star", "evening_star"):
        first = end_index - 2
        closes_before = [candles[i][3] for i in range(first - p.trend_lookback, first)]
        first_open = candles[first][0]
        down = _mean(closes_before) - first_open >= p.trend_min_slope_frac * first_open
        up = first_open - _mean(closes_before) >= p.trend_min_slope_frac * first_open
        small = abs(c2 - o2) <= p.star_gap_frac * abs(c1 - o1)
        mid = (o1 + c1) / 2.0
        if kind == "morning_star":
            return down and c1 < o1 and small and c3 > o3 and c3 > mid
        return up and c1 > o1 and small and c3 < o3 and c3 < mid

    if kind == "three_white_soldiers":
        return (
            c1 > o1
            and c2 > o2
            and c3 > o3
            and c2 > c1
            and c3 > c2
            and min(o1, c1) <= o2 <= max(o1, c1)
            and min(o2, c2) <= o3 <= max(o2, c2)
        )

    if kind == "three_black_crows":
        return (
            c1 < o1
            and c2 < o2
            and c3 < o3
            and c2 < c1
            and c3 < c2
            and min(o1, c1) <= o2 <= max(o1, c1)
            and min(o2, c2) <= o3 <= max(o2, c2)
        )

    raise ValueError(f"unknown kind {kind!r}")


ORACLE_SPANS = {
    "doji": 1,
    "hammer": 1,
    "inverted_hammer": 1,
    "shooting_star": 1,
    "bullish_engulfing": 2,
    "bearish_engulfing": 2,
    "morning_star": 3,
    "evening_star": 3,
    "three_white_soldiers": 3,
    "three_black_crows": 3,
}

ORACLE_KIND_ORDER = list(ORACLE_SPANS)


def oracle_detect_all(candles, p) -> list[tuple[int, str]]:
    """Brute-force scan over every index and kind, (end_index, kind) pairs."""
    out = []
    for end_index in range(len(candles)):
        for kind in ORACLE_KIND_ORDER:
            span = ORACLE_SPANS[kind]
            if end_index < span - 1 + p.trend_lookback:
                continue
            if oracle_match(candles, end_index, kind, p):
                out.append((end_index, kind))
    return out


def oracle_metrics(probs, labels, threshold=0.5):
    """Confusion counts by iteration, AUC by full pair enumeration."""
    tp = fp = tn = fn = 0
    for prob, label in zip(probs, labels):
        predicted_positive = prob >= threshold
        if label == 1:
            if predicted_positive:
                tp += 1
            else:
                fn += 1
        else:
            if predicted_positive:
                fp += 1
            else:
                tn += 1
    n = len(probs)
    accuracy = (tp + tn) / n
    f1 = 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) > 0 else 0.0

    pos_scores = [p for p, y in zip(probs, labels) if y == 1]
    neg_scores = [p for p, y in zip(probs, labels) if y == 0]
    if not pos_scores or not neg_scores:
        auc = None
    else:
        credit = 0.0
        for ps in pos_scores:
            for ns in neg_scores:
                if ps > ns:
                    credit += 1.0
                elif ps == ns:
                    credit += 0.5
        auc = credit / (len(pos_scores) * len(neg_scores))
    return {"accuracy": accuracy, "f1": f1, "auc": auc, "tp": tp, "fp": fp, "tn": tn, "fn": fn}


def oracle_average_ranks(values):
    """1-based ranks by a stable sort and a walk over runs of equal values; a
    NaN equals nothing, so each is its own run, in index order after every number."""
    def key(i):
        v = float(values[i])
        return (1, 0.0) if v != v else (0, v)  # NaN sorts last

    order = sorted(range(len(values)), key=key)  # sorted() is stable
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def oracle_conv(x, w, b, stride, pad, grad_out):
    """Cross-correlation with zero padding, and its gradients, by loop nest.

    ``x`` is N x C x H x W, ``w`` is O x C x KH x KW, ``b`` has O entries and
    ``pad`` is (rows, columns); a 1-D convolution is the case H = KH = 1 with
    no row padding. ``grad_out`` is the gradient of the output. Returns
    (output, input gradient, weight gradient, bias gradient) as nested lists.
    """
    n_count, c_count, height, width = len(x), len(x[0]), len(x[0][0]), len(x[0][0][0])
    o_count, kh, kw = len(w), len(w[0][0]), len(w[0][0][0])
    pad_rows, pad_cols = pad
    out_h = (height + 2 * pad_rows - kh) // stride + 1
    out_w = (width + 2 * pad_cols - kw) // stride + 1

    out = [[[[0.0] * out_w for _ in range(out_h)] for _ in range(o_count)] for _ in range(n_count)]
    dx = [[[[0.0] * width for _ in range(height)] for _ in range(c_count)] for _ in range(n_count)]
    dw = [[[[0.0] * kw for _ in range(kh)] for _ in range(c_count)] for _ in range(o_count)]
    db = [0.0] * o_count
    for n in range(n_count):
        for o in range(o_count):
            for oy in range(out_h):
                for ox in range(out_w):
                    total = float(b[o])
                    g = float(grad_out[n][o][oy][ox])
                    db[o] += g
                    for c in range(c_count):
                        for i in range(kh):
                            for j in range(kw):
                                iy = oy * stride + i - pad_rows
                                ix = ox * stride + j - pad_cols
                                if iy < 0 or iy >= height or ix < 0 or ix >= width:
                                    continue  # a zero from the padding
                                total += float(w[o][c][i][j]) * float(x[n][c][iy][ix])
                                dx[n][c][iy][ix] += float(w[o][c][i][j]) * g
                                dw[o][c][i][j] += float(x[n][c][iy][ix]) * g
                    out[n][o][oy][ox] = total
    return out, dx, dw, db


def oracle_maxpool(x, kh, kw, stride, grad_out):
    """Max-pool over KH x KW windows, and its input gradient, by loop nest.

    ``x`` is N x C x H x W (a 1-D pool is the case H = KH = 1). Ties go to
    the first maximum in row-major window order, and the whole gradient of
    an output goes to that one input. Returns (output, input gradient).
    """
    n_count, c_count, height, width = len(x), len(x[0]), len(x[0][0]), len(x[0][0][0])
    out_h = (height - kh) // stride + 1
    out_w = (width - kw) // stride + 1

    out = [[[[0.0] * out_w for _ in range(out_h)] for _ in range(c_count)] for _ in range(n_count)]
    dx = [[[[0.0] * width for _ in range(height)] for _ in range(c_count)] for _ in range(n_count)]
    for n in range(n_count):
        for c in range(c_count):
            for oy in range(out_h):
                for ox in range(out_w):
                    best_y, best_x = oy * stride, ox * stride
                    for i in range(kh):
                        for j in range(kw):
                            iy, ix = oy * stride + i, ox * stride + j
                            if x[n][c][iy][ix] > x[n][c][best_y][best_x]:
                                best_y, best_x = iy, ix
                    out[n][c][oy][ox] = float(x[n][c][best_y][best_x])
                    dx[n][c][best_y][best_x] += float(grad_out[n][c][oy][ox])
    return out, dx


def oracle_upsample_grad(grad_out, f):
    """Input gradient of an f-fold nearest-neighbor upsample, by loop nest.

    ``grad_out`` is N x C x (H*f) x (W*f). Input pixel (y, x) was copied to
    the f x f block whose corner is (y*f, x*f), so its gradient is the sum
    of ``grad_out`` over that block. Returns the N x C x H x W gradient.
    """
    n_count, c_count = len(grad_out), len(grad_out[0])
    height, width = len(grad_out[0][0]) // f, len(grad_out[0][0][0]) // f
    dx = [[[[0.0] * width for _ in range(height)] for _ in range(c_count)] for _ in range(n_count)]
    for n in range(n_count):
        for c in range(c_count):
            for y in range(height):
                for x in range(width):
                    for i in range(f):
                        for j in range(f):
                            dx[n][c][y][x] += float(grad_out[n][c][y * f + i][x * f + j])
    return dx


def oracle_segment_columns(pixels, empty_colors):
    """(x_start, x_end) of each maximal run of columns holding a non-empty pixel.

    ``pixels`` is rows of (r, g, b) triples; a pixel is empty when its
    triple is in ``empty_colors``. Ends are inclusive.
    """
    width = len(pixels[0])
    occupied = [any(tuple(row[x]) not in empty_colors for row in pixels) for x in range(width)]
    extents = []
    x = 0
    while x < width:
        if occupied[x]:
            start = x
            while x + 1 < width and occupied[x + 1]:
                x += 1
            extents.append((start, x))
        x += 1
    return extents


def oracle_optimizer(kind, weight, bias, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """SGD or Adam steps in float32, element by element, on weight and bias apart.

    ``weight`` and ``bias`` are flat lists of np.float32 and ``grads`` a list
    of (weight gradient, bias gradient) pairs, one per step, in the same
    form. Each element follows w -= lr * g (SGD), or Adam's
    m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
    w -= lr * (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps), with every
    constant rounded to float32 before it meets an array value. Returns the
    final (weight, bias).
    """
    f32 = np.float32
    out = []
    for which, values in enumerate((weight, bias)):
        w = list(values)
        m = [f32(0.0)] * len(w)
        v = [f32(0.0)] * len(w)
        for t, pair in enumerate(grads, start=1):
            g = pair[which]
            for i in range(len(w)):
                if kind == "sgd":
                    w[i] = w[i] - f32(lr) * g[i]
                    continue
                m[i] = f32(beta1) * m[i] + f32(1.0 - beta1) * g[i]
                v[i] = f32(beta2) * v[i] + f32(1.0 - beta2) * g[i] * g[i]
                m_hat = m[i] / f32(1.0 - beta1**t)
                v_hat = v[i] / f32(1.0 - beta2**t)
                w[i] = w[i] - f32(lr) * m_hat / (np.sqrt(v_hat) + f32(eps))
        out.append(w)
    return out[0], out[1]
