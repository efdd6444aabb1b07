"""Independent reference implementations used as test oracles.

Everything here is written the slow, obvious way (plain loops, float64) and
deliberately shares no code with the package internals, so the two sides
can check each other. The exception is the last four sections: the
package's earlier vectorised kernels, its earlier decode, its earlier
training engine and its earlier dead-unit closure, kept as exact
references for the current ones.
"""

from __future__ import annotations

import math

import numpy as np


def naive_conv2d(x, kernel, bias, stride=1, pad=0):
    """Direct windowed-sum cross-correlation in float64."""
    x = np.asarray(x, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    c, h, w = x.shape
    f, _, kh, kw = kernel.shape
    xp = np.zeros((c, h + 2 * pad, w + 2 * pad))
    xp[:, pad:pad + h, pad:pad + w] = x
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    out = np.empty((f, ho, wo))
    for fi in range(f):
        for oy in range(ho):
            for ox in range(wo):
                patch = xp[:, oy * stride:oy * stride + kh, ox * stride:ox * stride + kw]
                out[fi, oy, ox] = np.sum(patch * kernel[fi]) + bias[fi]
    return out


def naive_activation(z, name, alpha=0.1):
    z = np.asarray(z, dtype=np.float64)
    if name == "linear":
        return z
    if name in ("leaky", "leaky-relu"):
        return np.where(z >= 0, z, alpha * z)
    if name == "sigmoid":
        return 1.0 / (1.0 + np.exp(-z))
    if name == "tanh":
        return np.tanh(z)
    if name == "abs":
        return np.abs(z)
    if name == "clamp01":
        return np.clip(z, 0.0, 1.0)
    raise ValueError(name)


def naive_maxpool2(x):
    x = np.asarray(x, dtype=np.float64)
    c, h, w = x.shape
    out = np.empty((c, h // 2, w // 2))
    for ci in range(c):
        for y in range(h // 2):
            for xx in range(w // 2):
                out[ci, y, xx] = x[ci, 2 * y:2 * y + 2, 2 * xx:2 * xx + 2].max()
    return out


def naive_forward(net, weights, x):
    """Float64 layer-by-layer forward; weights is {index: (kernel, bias)}."""
    out = np.asarray(x, dtype=np.float64)
    for i, layer in enumerate(net.layers):
        if layer.kind == "conv":
            k, b = weights[i]
            out = naive_conv2d(out, k, b, layer.stride, layer.pad)
            out = naive_activation(out, layer.activation, layer.alpha)
        elif layer.kind == "maxpool2":
            out = naive_maxpool2(out)
        elif layer.kind == "pointwise":
            out = naive_activation(out, layer.fn, layer.alpha)
        # detect-head: identity
    return out


def _row_spans(mask):
    """``mask`` with each run of rows that hold a True filled out to the
    columns from its first True to its last."""
    rows = np.concatenate([[False], mask.any(axis=1), [False]])
    edges = np.flatnonzero(rows[1:] != rows[:-1])
    filled = np.zeros_like(mask)
    for a, b in zip(edges[0::2], edges[1::2]):
        cols = np.flatnonzero(mask[a:b].any(axis=0))
        filled[a:b, cols[0]:cols[-1] + 1] = True
    return filled


def reached_mask(net, changed):
    """Per layer, a boolean [H, W] mask of the output positions that a
    change at the input positions marked in ``changed`` reaches, propagated
    densely: a conv's output position is reached when any input position in
    its padded window is, a 2x2 pool's when any of its four is; other
    layers keep the mask. Each run of reached rows, the input's included,
    is filled out to the columns from its first reached one to its last, as
    a walk that keeps one column span per run of rows reaches them."""
    mask = _row_spans(np.asarray(changed, dtype=bool))
    masks = []
    for layer in net.layers:
        if layer.kind == "conv":
            k, s, p = layer.kernel_size, layer.stride, layer.pad
            windows = np.lib.stride_tricks.sliding_window_view(np.pad(mask, p), (k, k))
            mask = windows[::s, ::s].any(axis=(2, 3))
        elif layer.kind == "maxpool2":
            mask = mask[0::2, 0::2] | mask[0::2, 1::2] | mask[1::2, 0::2] | mask[1::2, 1::2]
        mask = _row_spans(mask)
        masks.append(mask)
    return masks


def computed_mask(net, reached):
    """Per conv index, the output positions a reused forward computes, from
    ``reached_mask``'s masks: a conv's own reached positions, or, for a
    conv that a 2x2 pool reads next, the pool's reached positions doubled
    in rows and columns, the whole windows the pool reads."""
    layers = net.layers
    masks = {}
    for i, layer in enumerate(layers):
        if layer.kind != "conv":
            continue
        if i + 1 < len(layers) and layers[i + 1].kind == "maxpool2":
            masks[i] = reached[i + 1].repeat(2, axis=0).repeat(2, axis=1)
        else:
            masks[i] = reached[i]
    return masks


def naive_composite_loss(pred, target, anchors, classes):
    """Slot-by-slot detection loss in float64, same definition as production."""
    ch = 5 + classes
    s = pred.shape[-1]
    r = np.asarray(pred, dtype=np.float64).reshape(anchors, ch, s, s)
    t = np.asarray(target, dtype=np.float64).reshape(anchors, ch, s, s)
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    total = 0.0
    for a in range(anchors):
        for i in range(s):
            for j in range(s):
                so = sig(r[a, 4, i, j])
                if t[a, 4, i, j] == 1.0:
                    total += 5.0 * ((sig(r[a, 0, i, j]) - t[a, 0, i, j]) ** 2
                                    + (sig(r[a, 1, i, j]) - t[a, 1, i, j]) ** 2
                                    + (r[a, 2, i, j] - t[a, 2, i, j]) ** 2
                                    + (r[a, 3, i, j] - t[a, 3, i, j]) ** 2)
                    total += (so - 1.0) ** 2
                    z = r[a, 5:, i, j]
                    e = np.exp(z - z.max())
                    sm = e / e.sum()
                    total += ((sm - t[a, 5:, i, j]) ** 2).sum()
                else:
                    total += 0.5 * so ** 2
    return total


def naive_loss(net, weights, dataset, loss):
    """Mean float64 loss over (input, target) pairs of numpy arrays."""
    values = []
    for x, t in dataset:
        out = naive_forward(net, weights, x)
        if loss == "squared-error":
            values.append(float(np.mean((out - np.asarray(t, dtype=np.float64)) ** 2)))
        else:
            head = net.detect_head()
            values.append(naive_composite_loss(out, t, head.anchors, head.classes))
    return float(np.mean(values))


def fd_loss_gradients(net, weights, dataset, loss, step=1e-3):
    """Central finite differences of naive_loss w.r.t. every kernel and bias."""
    grads = {}
    for idx, (kernel, bias) in weights.items():
        karr = np.array(kernel, dtype=np.float64)
        barr = np.array(bias, dtype=np.float64)
        work = dict(weights)
        gk = np.empty_like(karr)
        for pos in range(karr.size):
            kp = karr.copy().ravel(); kp[pos] += step
            km = karr.copy().ravel(); km[pos] -= step
            work[idx] = (kp.reshape(karr.shape), barr)
            fp = naive_loss(net, work, dataset, loss)
            work[idx] = (km.reshape(karr.shape), barr)
            fm = naive_loss(net, work, dataset, loss)
            gk.ravel()[pos] = (fp - fm) / (2 * step)
        gb = np.empty_like(barr)
        for pos in range(barr.size):
            bp = barr.copy(); bp[pos] += step
            bm = barr.copy(); bm[pos] -= step
            work[idx] = (karr, bp)
            fp = naive_loss(net, work, dataset, loss)
            work[idx] = (karr, bm)
            fm = naive_loss(net, work, dataset, loss)
            gb[pos] = (fp - fm) / (2 * step)
        work[idx] = (karr, barr)
        grads[idx] = (gk, gb)
    return grads


def max_relative_error(analytic, reference, floor=1e-4):
    """Worst |a - r| / max(|a|, |r|, floor) over two matching grad dicts."""
    worst = 0.0
    for idx, (ak, ab) in analytic.items():
        rk, rb = reference[idx]
        for a, r in ((ak, rk), (ab, rb)):
            a = np.asarray(a, dtype=np.float64)
            denom = np.maximum(np.maximum(np.abs(a), np.abs(r)), floor)
            worst = max(worst, float((np.abs(a - r) / denom).max()))
    return worst


# ---------------------------------------------------------------------------
# Detection oracles.
# ---------------------------------------------------------------------------

def naive_iou(a, b):
    """IOU from explicit corner/area arithmetic."""
    ax0, ay0 = a.cx - a.w / 2, a.cy - a.h / 2
    ax1, ay1 = a.cx + a.w / 2, a.cy + a.h / 2
    bx0, by0 = b.cx - b.w / 2, b.cy - b.h / 2
    bx1, by1 = b.cx + b.w / 2, b.cy + b.h / 2
    ix = max(0.0, min(ax1, bx1) - max(ax0, bx0))
    iy = max(0.0, min(ay1, by1) - max(ay0, by0))
    inter = ix * iy
    if inter == 0.0:
        return 0.0
    area_a = (ax1 - ax0) * (ay1 - ay0)
    area_b = (bx1 - bx0) * (by1 - by0)
    return inter / (area_a + area_b - inter)


def naive_nms(boxes, threshold):
    """Keep-set from the definition: a box survives iff no stronger surviving
    box of its class overlaps it beyond the threshold. No sorting shortcut:
    priorities are compared pairwise, strength ties broken by input order.
    """
    n = len(boxes)

    def stronger(i, j):
        si, sj = boxes[i].objectness * boxes[i].class_score, boxes[j].objectness * boxes[j].class_score
        return si > sj or (si == sj and i < j)

    alive = [True] * n
    changed = True
    # Iterate until stable: deactivate any box dominated by a live stronger box.
    while changed:
        changed = False
        for i in range(n):
            dominated = False
            for j in range(n):
                if i == j or boxes[i].class_id != boxes[j].class_id:
                    continue
                if stronger(j, i) and alive[j] and naive_iou(boxes[i], boxes[j]) > threshold:
                    dominated = True
            if alive[i] == dominated:
                alive[i] = not dominated
                changed = True
    order = sorted([i for i in range(n) if alive[i]],
                   key=lambda i: (-(boxes[i].objectness * boxes[i].class_score), i))
    return [boxes[i] for i in order]


def naive_decode_slot(t_x, t_y, t_w, t_h, t_obj, cls_raw, i, j, grid, anchor_w, anchor_h):
    """The grid decode formulas evaluated directly for a single slot."""
    sig = lambda v: 1.0 / (1.0 + math.exp(-v))
    e = np.exp(np.asarray(cls_raw, dtype=np.float64) - np.max(cls_raw))
    softmax = e / e.sum()
    cls = int(np.argmax(softmax))
    return {
        "cx": (j + sig(t_x)) / grid,
        "cy": (i + sig(t_y)) / grid,
        "w": anchor_w * math.exp(t_w) / grid,
        "h": anchor_h * math.exp(t_h) / grid,
        "objectness": sig(t_obj),
        "class_id": cls,
        "class_score": float(softmax[cls]),
    }


# ---------------------------------------------------------------------------
# Gather/scatter convolution, argmax pooling, select-based leaky relu and
# the sign-split sigmoid.
#
# These are the package's earlier kernels, kept with their arithmetic
# unchanged so the current ones can be required to match them bit for bit.
# Their per-geometry plan caches are left out; caching never changed a value.
# ---------------------------------------------------------------------------

def where_leaky_relu(arr, alpha):
    """Leaky relu as a select between ``arr`` and ``alpha * arr``."""
    return np.where(arr >= 0, arr, np.float32(alpha) * arr)


def where_leaky_relu_grad(pre, alpha):
    """Leaky relu's derivative factor: 1 where ``pre >= 0``, else ``alpha``."""
    return np.where(pre >= 0, np.float32(1.0), np.float32(alpha))


def gather_im2col_plan(c, h, w, kh, kw, stride, pad):
    """Gather indices ``[C*kh*kw, ho*wo]`` into a flattened padded image."""
    hp, wp = h + 2 * pad, w + 2 * pad
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    ci = np.repeat(np.arange(c), kh * kw)
    ky = np.tile(np.repeat(np.arange(kh), kw), c)
    kx = np.tile(np.arange(kw), c * kh)
    oy = stride * np.repeat(np.arange(ho), wo)
    ox = stride * np.tile(np.arange(wo), ho)
    idx = ((ci * hp + ky)[:, None] * wp + kx[:, None]) + (oy * wp + ox)[None, :]
    return idx.astype(np.int64), ho, wo, hp, wp


def gather_im2col_batch(x, kh, kw, stride, pad):
    b, c, h, w = x.shape
    idx, ho, wo, _, _ = gather_im2col_plan(c, h, w, kh, kw, stride, pad)
    xp = x if pad == 0 else np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cols = np.take(xp.reshape(b, -1), idx.reshape(-1), axis=1)
    return cols.reshape(b, idx.shape[0], idx.shape[1]), ho, wo


def call_product(kernel, cols, bias, width):
    """``kernel @ cols + bias`` for [F,K] ``kernel`` and [B,K,N] ``cols``,
    made the way the conv rule cuts a product: one float32 matmul per item
    and per ``width`` columns counted from column 0, each from a fresh
    contiguous buffer zero-padded to whole 16-column groups."""
    b, k, n = cols.shape
    out = np.empty((b, kernel.shape[0], n), np.float32)
    for i in range(b):
        for c0 in range(0, n, width):
            c1 = min(c0 + width, n)
            fresh = np.zeros((k, -(-(c1 - c0) // 16) * 16), np.float32)
            fresh[:, :c1 - c0] = cols[i, :, c0:c1]
            out[i, :, c0:c1] = np.matmul(kernel, fresh)[:, :c1 - c0]
    return out + bias[None, :, None]


def bincount_col2im_batch(dcols, c, h, w, kh, kw, stride, pad):
    b = dcols.shape[0]
    idx, _, _, hp, wp = gather_im2col_plan(c, h, w, kh, kw, stride, pad)
    span = c * hp * wp
    offsets = (np.arange(b, dtype=np.int64) * span)[:, None, None]
    flat_idx = (idx[None, :, :] + offsets).ravel()
    acc = np.bincount(flat_idx, weights=dcols.ravel(), minlength=b * span)
    grad = acc.reshape(b, c, hp, wp).astype(np.float32)
    if pad:
        grad = grad[:, :, pad:pad + h, pad:pad + w]
    return grad


def running_max_maxpool2_batch(x):
    """One strided pass per window position, the running maximum second so
    that on a -0.0/+0.0 tie the first maximum in row-major order wins."""
    out = x[:, :, 0::2, 0::2]
    for dy, dx in ((0, 1), (1, 0), (1, 1)):
        out = np.maximum(x[:, :, dy::2, dx::2], out)
    return out


def argmax_maxpool2_batch(x):
    """Returns (out, argmax); the first maximum in row-major order wins."""
    b, c, h, w = x.shape
    v = x.reshape(b, c, h // 2, 2, w // 2, 2)
    v = v.transpose(0, 1, 2, 4, 3, 5).reshape(b, c, h // 2, w // 2, 4)
    am = np.argmax(v, axis=-1)
    out = np.take_along_axis(v, am[..., None], axis=-1)[..., 0]
    return out, am


def argmax_maxpool2_backward(grad_out, am, in_shape):
    b, c, h, w = in_shape
    scattered = np.zeros((b, c, h // 2, w // 2, 4), dtype=np.float32)
    np.put_along_axis(scattered, am[..., None], grad_out[..., None], axis=-1)
    v = scattered.reshape(b, c, h // 2, w // 2, 2, 2)
    return v.transpose(0, 1, 2, 4, 3, 5).reshape(b, c, h, w)


def split_sigmoid(arr):
    """Sigmoid split by sign into two masked halves, each with its own exp."""
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    ez = np.exp(arr[~pos])
    out[~pos] = ez / (1.0 + ez)
    out[out < 1e-30] = 0.0
    return out


def channel_sum_motion_map(stack, kernel, bias):
    """The gate with its channels summed by ``sum(axis=0)`` into a fresh
    array and a separate ``isfinite`` scan before ``abs`` and the clamp."""
    c = stack.shape[0] // 2
    w = kernel[0, :, 0, 0]
    paired = w[:c, None, None] * stack[:c]
    paired += w[c:, None, None] * stack[c:]
    raw = paired.sum(axis=0, keepdims=True)
    raw += bias[0]
    if not np.isfinite(raw).all():
        raise ValueError("motion map values must be finite")
    return np.minimum(np.abs(raw, out=raw), 1.0, out=raw)


def path_list_frame_files(directory):
    """Frame files found and ordered as ``pathlib.Path`` objects: the suffix
    test, the sort and the stem are Path's."""
    import re
    from pathlib import Path

    directory = Path(directory)
    paths = sorted(p for p in directory.iterdir() if p.suffix.lower() in (".ppm", ".pgm"))
    by_index = {}
    for n, p in enumerate(paths, start=1):
        numbers = re.findall(r"(\d+)", p.stem)
        index = int(numbers[-1]) if numbers else n
        if index in by_index:
            raise ValueError(f"{by_index[index]} and {p} both have frame index {index}")
        by_index[index] = p
    return list(by_index.items())


# ---------------------------------------------------------------------------
# The package's earlier decode: every slot goes through the Python loop,
# with no early return when no slot reaches the objectness bar.
# ---------------------------------------------------------------------------

def loop_decode(cmap, anchors, obj_threshold):
    from skipdet.detector import LOG_SCALE_LIMIT, DetectionBox
    from skipdet.tensor import _sigmoid

    s, a_count, c_count = cmap.grid, cmap.anchors, cmap.classes
    v = cmap.values.data.reshape(a_count, 5 + c_count, s, s)
    sig = _sigmoid(v[:, :2])
    obj = _sigmoid(v[:, 4])
    cls_raw = v[:, 5:]
    shifted = cls_raw - cls_raw.max(axis=1, keepdims=True)
    ez = np.exp(shifted)
    softmax = ez / ez.sum(axis=1, keepdims=True)
    boxes = []
    for i in range(s):
        for j in range(s):
            for a in range(a_count):
                objectness = float(obj[a, i, j])
                if objectness < obj_threshold:
                    continue
                cls = int(np.argmax(softmax[a, :, i, j]))
                t_w = min(max(float(v[a, 2, i, j]), -LOG_SCALE_LIMIT), LOG_SCALE_LIMIT)
                t_h = min(max(float(v[a, 3, i, j]), -LOG_SCALE_LIMIT), LOG_SCALE_LIMIT)
                boxes.append(DetectionBox(
                    cx=(j + float(sig[a, 0, i, j])) / s,
                    cy=(i + float(sig[a, 1, i, j])) / s,
                    w=anchors[a].w * math.exp(t_w) / s,
                    h=anchors[a].h * math.exp(t_h) / s,
                    objectness=objectness,
                    class_id=cls,
                    class_score=float(softmax[a, cls, i, j]),
                ))
    return boxes


# ---------------------------------------------------------------------------
# The package's earlier training engine: what backward needs kept as a list
# of kind-tagged tuples in four shapes, each with its layer index, and a
# placeholder for the detect head. Kept unchanged as the bit-exact reference
# for the engine that keeps one (input, cols, pre, post) record per layer.
# ---------------------------------------------------------------------------

def _tagged_conv_fn(layer):
    if layer.activation == "linear":
        return None
    return "leaky-relu" if layer.activation == "leaky" else layer.activation


def tagged_forward_batch(net, weights, xb, caches=None):
    from skipdet.tensor import _conv2d_batch, _maxpool2_batch, _pointwise_raw

    out = xb
    for i, layer in enumerate(net.layers):
        if layer.kind == "conv":
            kernel, bias = weights[i]
            fn = _tagged_conv_fn(layer)
            if caches is None:
                out = _conv2d_batch(out, kernel, bias, layer.stride, layer.pad)[0]
                if fn is not None:
                    _pointwise_raw(out, fn, layer.alpha, in_place=True)
            else:
                pre, cols = _conv2d_batch(out, kernel, bias, layer.stride, layer.pad)
                post = pre if fn is None else _pointwise_raw(pre, fn, layer.alpha)
                caches.append(("conv", i, out.shape, cols, pre, post))
                out = post
        elif layer.kind == "maxpool2":
            pooled = _maxpool2_batch(out)
            if caches is not None:
                caches.append(("maxpool2", i, out, pooled))
            out = pooled
        elif layer.kind == "pointwise":
            post = _pointwise_raw(out, layer.fn, layer.alpha)
            if caches is not None:
                caches.append(("pointwise", i, out, post))
            out = post
        elif caches is not None:  # detect-head
            caches.append(("detect-head", i))
    return out


def tagged_backward_batch(net, weights, caches, grad_out):
    from skipdet.tensor import _col2im_batch, _maxpool2_backward, _pointwise_grad

    grads = {}
    g = grad_out
    for pos, cache in enumerate(reversed(caches)):
        is_first = pos == len(caches) - 1
        kind = cache[0]
        if kind == "conv":
            _, i, in_shape, cols, pre, post = cache
            layer = net.layers[i]
            fn = _tagged_conv_fn(layer)
            if fn is not None:
                g = g * _pointwise_grad(pre, post, fn, layer.alpha)
            b, f = g.shape[0], g.shape[1]
            g2 = g.reshape(b, f, -1)
            dk = np.matmul(g2, cols.transpose(0, 2, 1)).sum(axis=0)
            db = g2.sum(axis=(0, 2))
            kernel, _ = weights[i]
            grads[i] = (dk.reshape(kernel.shape), db)
            if not is_first:
                dcols = np.matmul(kernel.reshape(f, -1).T, g2)
                g = _col2im_batch(dcols, in_shape[1], in_shape[2], in_shape[3],
                                  layer.kernel_size, layer.kernel_size,
                                  layer.stride, layer.pad)
        elif kind == "maxpool2":
            _, i, x, pooled = cache
            if not is_first:
                g = _maxpool2_backward(g, x, pooled)
        elif kind == "pointwise":
            _, i, pre, post = cache
            layer = net.layers[i]
            if not is_first:
                g = g * _pointwise_grad(pre, post, layer.fn, layer.alpha)
    return grads


# ---------------------------------------------------------------------------
# The package's earlier dead-unit closure: layer-order passes repeated
# until one changes nothing.
# ---------------------------------------------------------------------------

def looped_dead_unit_closure(masks):
    """Zero the outgoing synapses of units with no incoming ones, pass after
    pass, until a pass changes nothing."""
    masks = {idx: mask.copy() for idx, mask in masks.items()}
    order = sorted(masks)
    changed = True
    while changed:
        changed = False
        for prev, nxt in zip(order, order[1:]):
            dead = masks[prev].reshape(masks[prev].shape[0], -1).sum(axis=1) == 0
            if dead.any() and masks[nxt][:, dead].any():
                masks[nxt][:, dead] = 0
                changed = True
    return masks
