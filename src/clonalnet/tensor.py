"""Dense numeric kernels for the network: valid 2-D convolution, 2x2
max-pooling with argmax capture, and dense (affine) products.

Tensors are plain ``numpy.ndarray`` values in C (row-major) order, float64
throughout. Convolution is cross-correlation: no kernel flip on the forward
pass, and the backward pass is derived consistently from that convention.

Each fast kernel has a brute-force twin (``*_naive``) written as the most
literal loop possible. The naive versions are the reference oracles for the
test suite and are never called by the training path.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import CorruptionError, DimensionError


def _as_matrix(x, name: str) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {a.shape}")
    return a


def _as_vector(x, name: str) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 1:
        raise DimensionError(f"{name} must be 1-D, got shape {a.shape}")
    return a


# ---------------------------------------------------------------------------
# valid cross-correlation
# ---------------------------------------------------------------------------

def conv2d_valid(input: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Valid-mode cross-correlation of a 2-D input with a 2-D kernel.

    out[y, x] = sum_{i, j} input[y + i, x + j] * kernel[i, j]
    """
    inp = _as_matrix(input, "input")
    ker = _as_matrix(kernel, "kernel")
    h, w = inp.shape
    kh, kw = ker.shape
    if kh > h or kw > w:
        raise DimensionError(
            f"kernel shape {ker.shape} exceeds input shape {inp.shape}"
        )
    windows = sliding_window_view(inp, (kh, kw))
    return np.einsum("yxij,ij->yx", windows, ker, optimize=True)


def conv2d_valid_naive(input: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Quadruple-loop reference for :func:`conv2d_valid`."""
    inp = _as_matrix(input, "input")
    ker = _as_matrix(kernel, "kernel")
    h, w = inp.shape
    kh, kw = ker.shape
    if kh > h or kw > w:
        raise DimensionError(
            f"kernel shape {ker.shape} exceeds input shape {inp.shape}"
        )
    out = np.zeros((h - kh + 1, w - kw + 1))
    for y in range(out.shape[0]):
        for x in range(out.shape[1]):
            acc = 0.0
            for i in range(kh):
                for j in range(kw):
                    acc += inp[y + i, x + j] * ker[i, j]
            out[y, x] = acc
    return out


# ---------------------------------------------------------------------------
# 2x2 max-pooling
# ---------------------------------------------------------------------------

def maxpool2(input: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Max over disjoint 2x2 blocks.

    Returns ``(output, argmax)`` where argmax holds, per block, the flat
    row-major index into ``input`` of the winning element. Ties go to the
    first element in row-major order within the block.
    """
    inp = _as_matrix(input, "input")
    h, w = inp.shape
    if h % 2 or w % 2:
        raise DimensionError(f"input extents must be even, got {inp.shape}")
    # blocks[by, bx, k] lists each 2x2 block in row-major order, so argmax's
    # first-max rule implements the tie-break directly
    blocks = inp.reshape(h // 2, 2, w // 2, 2).transpose(0, 2, 1, 3).reshape(
        h // 2, w // 2, 4
    )
    local = blocks.argmax(axis=2)
    out = np.take_along_axis(blocks, local[:, :, None], axis=2)[:, :, 0]
    by, bx = np.meshgrid(
        np.arange(h // 2), np.arange(w // 2), indexing="ij"
    )
    rows = 2 * by + local // 2
    cols = 2 * bx + local % 2
    argmax = rows * w + cols
    return out, argmax.astype(np.int64)


def maxpool2_naive(input: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-block scan reference for :func:`maxpool2`."""
    inp = _as_matrix(input, "input")
    h, w = inp.shape
    if h % 2 or w % 2:
        raise DimensionError(f"input extents must be even, got {inp.shape}")
    out = np.zeros((h // 2, w // 2))
    argmax = np.zeros((h // 2, w // 2), dtype=np.int64)
    for by in range(h // 2):
        for bx in range(w // 2):
            best = -np.inf
            best_idx = -1
            for dy in range(2):
                for dx in range(2):
                    r, c = 2 * by + dy, 2 * bx + dx
                    if inp[r, c] > best:
                        best = inp[r, c]
                        best_idx = r * w + c
            out[by, bx] = best
            argmax[by, bx] = best_idx
    return out, argmax


def maxpool2_backward(argmax: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Route grad_out entries to the argmax positions; zeros elsewhere."""
    am = np.asarray(argmax)
    g = _as_matrix(grad_out, "grad_out")
    if am.shape != g.shape:
        raise DimensionError(
            f"argmax shape {am.shape} does not match grad_out shape {g.shape}"
        )
    h, w = 2 * am.shape[0], 2 * am.shape[1]
    flat_idx = am.ravel()
    if flat_idx.size and (flat_idx.min() < 0 or flat_idx.max() >= h * w):
        raise CorruptionError(
            f"argmax indices out of range for input of shape {(h, w)}"
        )
    grad_input = np.zeros(h * w)
    grad_input[flat_idx] = g.ravel()
    return grad_input.reshape(h, w)


# ---------------------------------------------------------------------------
# dense (affine)
# ---------------------------------------------------------------------------

def dense(weights: np.ndarray, bias: np.ndarray, x: np.ndarray) -> np.ndarray:
    """y = W @ x + b."""
    w = _as_matrix(weights, "weights")
    b = _as_vector(bias, "bias")
    v = _as_vector(x, "x")
    if w.shape[0] != b.shape[0] or w.shape[1] != v.shape[0]:
        raise DimensionError(
            f"dense shapes disagree: weights {w.shape}, bias {b.shape}, "
            f"x {v.shape}"
        )
    return w @ v + b


def dense_naive(weights: np.ndarray, bias: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Double-loop reference for :func:`dense`."""
    w = _as_matrix(weights, "weights")
    b = _as_vector(bias, "bias")
    v = _as_vector(x, "x")
    if w.shape[0] != b.shape[0] or w.shape[1] != v.shape[0]:
        raise DimensionError(
            f"dense shapes disagree: weights {w.shape}, bias {b.shape}, "
            f"x {v.shape}"
        )
    out = np.zeros(w.shape[0])
    for i in range(w.shape[0]):
        acc = 0.0
        for j in range(w.shape[1]):
            acc += w[i, j] * v[j]
        out[i] = acc + b[i]
    return out


def dense_backward(
    weights: np.ndarray, x: np.ndarray, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of ``sum(dense(W, b, x) * grad_out)``.

    Returns ``(grad_weights, grad_bias, grad_x)``.
    """
    w = _as_matrix(weights, "weights")
    v = _as_vector(x, "x")
    g = _as_vector(grad_out, "grad_out")
    if w.shape[0] != g.shape[0] or w.shape[1] != v.shape[0]:
        raise DimensionError(
            f"dense_backward shapes disagree: weights {w.shape}, x {v.shape}, "
            f"grad_out {g.shape}"
        )
    return np.outer(g, v), g.copy(), w.T @ g
