"""Dense numeric kernels for the network: valid 2-D convolution, 2x2
max-pooling with argmax capture, and dense (affine) products.

Tensors are plain ``numpy.ndarray`` values in C (row-major) order, float64
throughout. Convolution is cross-correlation: no kernel flip on the forward
pass, and the backward pass is derived consistently from that convention.

The fast kernels take stacks: any leading axes in front of an ``(H, W)``
map or a vector, each row computed bit for bit as its own call would be,
except in ``dense`` and ``dense_backward``. Those make one matrix product
over all the rows of a stack, so a row equals its own call up to rounding;
the same rows give the same bytes under any leading axes, and a vector
those of a one-row stack.
:class:`Windows` is the im2col of a stack for one kernel shape; built once,
it serves any number of ``conv2d_valid`` calls with kernels of that shape,
each the product that a call on the maps would make from its own copy.
``maxpool2`` picks each block's winner with strict comparisons over
contiguous copies of the block corners and reads the output from the
winner, so ties keep the first element and its bits, and a block holding a
NaN pools to its first NaN. ``dense_backward``'s weight and bias sums over
the rows are a matrix product and a numpy sum, and its input gradients one
matrix product over all rows, each equal to the row-by-row result up to
rounding.

Each fast kernel has a brute-force twin (``*_naive``) for one map or vector,
written as the most literal loop possible. The naive versions are the
reference oracles for the test suite and are never called by the training
path.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import CorruptionError, DimensionError


def _as_array(x, name: str, ndim: int, stack: bool = False) -> np.ndarray:
    """``x`` as float64 with ``ndim`` axes, or more when it is a stack."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim < ndim or (a.ndim > ndim and not stack):
        raise DimensionError(f"{name} must have {ndim} axes"
                             f"{' or more' if stack else ''}, got shape {a.shape}")
    return a


def _check_fits(inp: np.ndarray, kernel_shape) -> None:
    if kernel_shape[0] > inp.shape[-2] or kernel_shape[1] > inp.shape[-1]:
        raise DimensionError(
            f"kernel shape {kernel_shape} exceeds input shape {inp.shape}"
        )


def _dense_operands(weights, bias, x, stack: bool):
    w = _as_array(weights, "weights", 2)
    b = _as_array(bias, "bias", 1)
    v = _as_array(x, "x", 1, stack)
    if w.shape[0] != b.shape[0] or w.shape[1] != v.shape[-1]:
        raise DimensionError(
            f"dense shapes disagree: weights {w.shape}, bias {b.shape}, "
            f"x {v.shape}"
        )
    return w, b, v


# ---------------------------------------------------------------------------
# valid cross-correlation
# ---------------------------------------------------------------------------

class Windows:
    """The im2col of a ``(..., H, W)`` stack for a ``(kh, kw)`` kernel.

    ``cols`` is a read-only ``(..., kh·kw, oh·ow)`` array with
    cols[..., i·kw + j, y·ow + x] = input[..., y + i, x + j], and ``shape``
    is the ``(..., oh, ow)`` shape of a convolution over it. ``cols`` is a
    view of the input only where the input is C-contiguous and no two
    windows overlap; otherwise it is a copy. The network's
    forward pass unfolds its images once into a ``Windows`` for every
    kernel's ``conv2d_valid``, and its trace keeps it: the backward pass
    multiplies the convolution error by ``cols`` transposed in place and
    makes no im2col of its own.
    """

    def __init__(self, input: np.ndarray, kernel_shape: tuple[int, int]):
        inp = _as_array(input, "input", 2, stack=True)
        if len(kernel_shape) != 2:
            raise DimensionError(f"kernel shape must have 2 axes, got {kernel_shape}")
        kh, kw = self.kernel_shape = tuple(kernel_shape)
        _check_fits(inp, self.kernel_shape)
        # the ndarray constructor makes the strided view without
        # as_strided's Python-level wrapping; it needs a C-contiguous buffer
        inp = np.ascontiguousarray(inp)
        *lead, h, w = inp.shape
        oh, ow = h - kh + 1, w - kw + 1
        *lead_strides, sy, sx = inp.strides
        view = np.ndarray((*lead, kh, kw, oh, ow), inp.dtype, inp, 0,
                          (*lead_strides, sy, sx, sy, sx))
        self.cols = view.reshape(*lead, kh * kw, oh * ow)
        self.cols.flags.writeable = False
        self.shape = (*lead, oh, ow)


def conv2d_valid(input, kernel: np.ndarray) -> np.ndarray:
    """Valid-mode cross-correlation of each map in a ``(..., H, W)`` stack
    with one 2-D kernel; ``input`` is the maps or their :class:`Windows`.

    out[..., y, x] = sum_{i, j} input[..., y + i, x + j] * kernel[i, j]
    """
    ker = _as_array(kernel, "kernel", 2)
    windows = input if isinstance(input, Windows) else Windows(input, ker.shape)
    if ker.shape != windows.kernel_shape:
        raise DimensionError(f"kernel shape {ker.shape} does not match "
                             f"windows of {windows.kernel_shape}")
    # the matmul broadcasts the kernel row, so each map gets its own product
    out = ker.reshape(1, ker.size) @ windows.cols
    return out.reshape(windows.shape)


def conv2d_valid_naive(input: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Quadruple-loop reference for :func:`conv2d_valid` on one map."""
    inp = _as_array(input, "input", 2)
    ker = _as_array(kernel, "kernel", 2)
    _check_fits(inp, ker.shape)
    h, w = inp.shape
    kh, kw = ker.shape
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
    """Max over disjoint 2x2 blocks of each map in a ``(..., H, W)`` stack.

    Returns ``(output, argmax)`` of shape ``(..., H/2, W/2)``, where argmax
    holds, per block, the flat row-major index (int64) into the winning
    element's own ``(H, W)`` map. Ties go to the first element in row-major
    order within the block; a block that holds a NaN pools to NaN, with its
    argmax at its first NaN in row-major order.

    The block corners are copied into contiguous pairs, and three strict
    comparisons pick the winner: right over left in the upper row, the same
    in the lower row, and the lower row's maximum over the upper row's. A
    later entry wins only when it is greater, or NaN against a number, so
    the earlier of tied entries stays the winner whatever the sign of a
    zero. Each output is then read from its winning element, which keeps
    its bits, sign of zero included.
    """
    inp = _as_array(input, "input", 2, stack=True)
    *lead, h, w = inp.shape
    if h % 2 or w % 2:
        raise DimensionError(f"input extents must be even, got {inp.shape}")
    maps, ph, pw = math.prod(lead), h // 2, w // 2
    if not inp.size:
        return np.zeros((*lead, ph, pw)), np.zeros((*lead, ph, pw), np.int64)
    # pairs[0, p] and pairs[1, p] are the earlier and later entries of pair p
    # in every block, each a contiguous run: p = 0 the upper row, p = 1 the
    # lower row, p = 2 the maxima of those two rows (NaN where one holds NaN)
    pairs = np.empty((2, 3, maps, ph, pw))
    np.copyto(pairs[:, :2], inp.reshape(maps, ph, 2, pw, 2).transpose(4, 2, 0, 1, 3))
    earlier, later = pairs
    np.maximum(earlier[:2], later[:2], out=pairs[:, 2])
    # the earlier entry is a number and the later one is not at most it
    later_wins = ((earlier == earlier) > (later <= earlier)).view(np.uint8)
    # bit 2 picks the row, and that row's own bit picks the column
    code = later_wins[2] << 2
    code |= later_wins[1] << 1
    code |= later_wins[0]
    winners, corners, map_starts = _pool_tables(maps, h, w)
    argmax = winners.take(code)
    argmax += corners
    out = inp.reshape(-1).take(argmax + map_starts)
    return out.reshape(*lead, ph, pw), argmax.reshape(*lead, ph, pw)


@functools.lru_cache(maxsize=32)
def _pool_tables(maps: int, h: int, w: int) -> tuple[np.ndarray, ...]:
    """The read-only constants of :func:`maxpool2` for ``maps`` maps of
    ``(h, w)``, kept for the next call of that shape: the winner's offset in
    its block for each winner code, each block's upper-left corner in its
    map (``(h/2, w/2)``), and each map's start in the stack
    (``(maps, 1, 1)``)."""
    winners = np.array((0, 1, 0, 1, w, w, w + 1, w + 1))
    corners = 2 * w * np.arange(h // 2)[:, None] + 2 * np.arange(w // 2)
    map_starts = h * w * np.arange(maps).reshape(maps, 1, 1)
    for table in (winners, corners, map_starts):
        table.flags.writeable = False
    return winners, corners, map_starts


def maxpool2_naive(input: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-block scan reference for :func:`maxpool2` on one map."""
    inp = _as_array(input, "input", 2)
    h, w = inp.shape
    if h % 2 or w % 2:
        raise DimensionError(f"input extents must be even, got {inp.shape}")
    out = np.zeros((h // 2, w // 2))
    argmax = np.zeros((h // 2, w // 2), dtype=np.int64)
    for by in range(h // 2):
        for bx in range(w // 2):
            best = inp[2 * by, 2 * bx]
            best_idx = 2 * by * w + 2 * bx
            for dy in range(2):
                for dx in range(2):
                    r, c = 2 * by + dy, 2 * bx + dx
                    # a later element wins when it is greater, or when it
                    # is NaN and the best so far is not
                    if not math.isnan(best) and (inp[r, c] > best
                                                 or math.isnan(inp[r, c])):
                        best = inp[r, c]
                        best_idx = r * w + c
            out[by, bx] = best
            argmax[by, bx] = best_idx
    return out, argmax


def _winner_index(argmax) -> np.ndarray:
    """Flat index into a whole ``(..., H, W)`` stack of each winner in a
    ``(..., H/2, W/2)`` stack of :func:`maxpool2` argmaxes."""
    am = np.asarray(argmax)
    *lead, ph, pw = am.shape
    size = 4 * ph * pw
    if am.size and (am.dtype.kind not in "iu"
                    or np.minimum.reduce(am, axis=None) < 0
                    or np.maximum.reduce(am, axis=None) >= size):
        raise CorruptionError(
            f"argmax must hold integer indices into maps of shape {(2 * ph, 2 * pw)}"
        )
    map_starts = _pool_tables(math.prod(lead), 2 * ph, 2 * pw)[2]
    return am + map_starts.reshape(*lead, 1, 1)


def maxpool2_backward(argmax: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Route grad_out entries to the argmax positions; zeros elsewhere.

    Takes the ``(..., H/2, W/2)`` stacks of :func:`maxpool2` and returns the
    ``(..., H, W)`` gradient of its input.
    """
    g = _as_array(grad_out, "grad_out", 2, stack=True)
    am = np.asarray(argmax)
    if am.shape != g.shape:
        raise DimensionError(
            f"argmax shape {am.shape} does not match grad_out shape {g.shape}"
        )
    index = _winner_index(am)
    *lead, ph, pw = g.shape
    grad_input = np.zeros((*lead, 2 * ph, 2 * pw))
    grad_input.reshape(-1)[index] = g
    return grad_input


# ---------------------------------------------------------------------------
# dense (affine)
# ---------------------------------------------------------------------------

def dense(weights: np.ndarray, bias: np.ndarray, x: np.ndarray) -> np.ndarray:
    """y = W @ x + b for each vector in a ``(..., p)`` stack.

    The input, a vector or a stack, is one ``(n, p) @ (p, d)`` product over
    all its rows. That product sees the rows, not how the leading axes
    group them: the same rows give the same bytes under any leading axes,
    and a vector those of a one-row stack, but a row of a larger stack may
    differ from its own call in the last bits.
    """
    w, b, v = _dense_operands(weights, bias, x, stack=True)
    # the row count comes from the leading axes, so a vector is one row and
    # a width of 0 fits too
    out = v.reshape(math.prod(v.shape[:-1]), w.shape[1]) @ w.T
    out += b
    return out.reshape(*v.shape[:-1], w.shape[0])


def dense_naive(weights: np.ndarray, bias: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Double-loop reference for :func:`dense` on one vector."""
    w, b, v = _dense_operands(weights, bias, x, stack=False)
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
    """Gradients of ``sum(dense(W, b, x) * grad_out)`` for ``(..., p)`` and
    ``(..., d)`` stacks of rows.

    Returns ``(grad_weights, grad_bias, grad_x)``: weight and bias gradients
    summed over the rows, the weights as one ``(d, n) @ (n, p)`` product, so
    in BLAS's order rather than row order, and the ``(..., p)`` input
    gradients as one ``(n, d) @ (d, p)`` product. That product sees the
    rows, not how the leading axes group them: the same rows give the same
    bytes under any leading axes, and a vector those of a one-row stack,
    but a row of a larger stack may differ from its own call in the last
    bits.
    """
    w = _as_array(weights, "weights", 2)
    v = _as_array(x, "x", 1, stack=True)
    g = _as_array(grad_out, "grad_out", 1, stack=True)
    if (v.shape[:-1] != g.shape[:-1] or w.shape[0] != g.shape[-1]
            or w.shape[1] != v.shape[-1]):
        raise DimensionError(
            f"dense_backward shapes disagree: weights {w.shape}, x {v.shape}, "
            f"grad_out {g.shape}"
        )
    # the row count comes from the leading axes, so a width of 0 fits too
    rows = math.prod(v.shape[:-1])
    rows_v = v.reshape(rows, w.shape[1])
    rows_g = g.reshape(rows, w.shape[0])
    return (rows_g.T @ rows_v, np.add.reduce(rows_g, axis=0),
            (rows_g @ w).reshape(v.shape))
