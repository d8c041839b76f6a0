"""Machine-speed calibration against fixed reference tasks.

The 2-core x86 VM (Xeon, 2.0 GHz) this benchmark was defined on shares
its cores with other tenants, and the speed of a core drifts by up to 2x
within seconds while the process keeps running (CPU time equals wall time
throughout). Raw wall times of identical runs then spread by 20-40%. The
benchmark therefore runs a short reference task next to every measured
operation and reports times scaled to the reference's nominal speed:
``seconds * nominal / reference seconds``. On a machine where the
reference takes its nominal time this is the wall time itself.

The references are benchmark code and never change with the program. Each
is a frozen copy of the program's hot path on one workload kind, so that
it exercises the same numpy primitives and interpreter paths and slows down
with them:

- ``forward``: one per-sample forward pass (sliding-window convolution,
  2x2 max-pooling with argmax, a dense layer, tanh), for training;
- ``affinity``: a loop of the scalar cosine affinity that two-phase
  classification evaluates per pool member.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# median reference times on the 2-core VM where the benchmark was defined
NOMINAL_S = {"forward": 1.2e-3, "affinity": 1.7e-3}


class Speedometer:
    def __init__(self, reference: str):
        self.nominal_s = NOMINAL_S[reference]
        self._reference = {"forward": self._forward,
                           "affinity": self._affinity}[reference]
        rng = np.random.default_rng(7)
        self._image = rng.random((28, 28))
        self._kernels = rng.uniform(-0.3, 0.3, (8, 5, 5))
        self._weights = rng.uniform(-0.05, 0.05, (64, 1152))
        self._vectors = rng.normal(size=(150, 64))

    def _forward(self) -> float:
        maps = []
        for kernel in self._kernels:
            conv = np.tanh(np.einsum("yxij,ij->yx", sliding_window_view(
                self._image, (5, 5)), kernel, optimize=True))
            blocks = conv.reshape(12, 2, 12, 2).transpose(0, 2, 1, 3).reshape(12, 12, 4)
            maps.append(np.take_along_axis(
                blocks, blocks.argmax(axis=2)[:, :, None], axis=2)[:, :, 0])
        return float(np.tanh(self._weights @ np.stack(maps).ravel()).sum())

    def _affinity(self) -> float:
        total = 0.0
        query = self._vectors[0]
        for member in self._vectors:
            a = np.asarray(query, dtype=np.float64)
            b = np.asarray(member, dtype=np.float64)
            if a.ndim != 1 or a.shape != b.shape or not a.any() or not b.any():
                continue
            denom_sq = float(np.dot(a, a)) * float(np.dot(b, b))
            cos = float(np.dot(a, b) / np.sqrt(denom_sq))
            total += (1.0 + min(1.0, max(-1.0, cos))) / 2.0
        return total

    def probe(self) -> float:
        """Seconds the reference task takes now."""
        start = perf_counter()
        self._reference()
        return perf_counter() - start

    def scale_each(self, seconds, reference_s, reach: int = 4) -> list[float]:
        """Each of ``seconds`` at nominal speed, given the reference time
        measured right after each: scaled by the median reference of it and
        ``reach`` neighbours on each side, which damps the jitter of a
        single probe but follows drifts longer than a few operations."""
        refs = np.asarray(reference_s)
        return [s * self.nominal_s / float(np.median(refs[max(0, i - reach):i + reach + 1]))
                for i, s in enumerate(seconds)]

    def scale(self, seconds, reference_s) -> float:
        """``seconds`` at nominal machine speed, given the reference's time
        (or times, whose median is used) measured alongside."""
        return seconds * self.nominal_s / float(np.median(reference_s))
