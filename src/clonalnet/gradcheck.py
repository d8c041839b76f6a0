"""Finite-difference verification of the analytic gradients.

Central differences with step 1e-5 at 64-bit precision, compared against
:func:`clonalnet.nn.batch_gradients`, the function training uses, on
randomly seeded parameter/input instances: a one-row batch, and the same
row plus one clone, passed as one-row clone feature and parent arrays; the
clone takes its parent's label. Coordinates are sampled per parameter
array; relative error uses a small denominator floor so exact-zero
gradients compare cleanly against finite-difference noise.

The loss is smooth everywhere except where a pooling winner changes. A
coordinate whose probe interval straddles such a change has no defined
derivative there, so the difference quotient says nothing about the analytic
gradient; those coordinates are detected (the argmax maps at +step and -step
differ) and replaced by a fresh draw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .errors import CorruptionError, check_count

STEP = 1e-5
REL_FLOOR = 1e-6


def relative_error(analytic: float, numeric: float) -> float:
    denom = max(REL_FLOOR, abs(analytic), abs(numeric))
    return abs(analytic - numeric) / denom


def _probe(params: nn.LayerStack, image: np.ndarray, label: int,
           offset: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """Sample loss, plus the loss of its clone when ``offset`` is given.

    The clone follows the additive-offset model: the offset between clone
    and parent feature is held constant while parameters vary.
    """
    feature, trace = nn.forward_features(params, image)
    loss = nn.cross_entropy(nn.forward_output(params, feature), label)
    if offset is not None:
        loss += nn.cross_entropy(nn.forward_output(params, feature + offset),
                                 label)
    return loss, trace.argmax


@dataclass
class CheckResult:
    seed: int
    max_rel_error_plain: float
    max_rel_error_clone: float

    @property
    def max_rel_error(self) -> float:
        return max(self.max_rel_error_plain, self.max_rel_error_clone)


def _max_error_over_coords(params, analytic: nn.LayerStack, probe_fn, rng,
                           coords_per_array: int) -> float:
    worst = 0.0
    for name in nn.LayerStack.ARRAYS:
        array = getattr(params, name)
        grad = getattr(analytic, name)
        flat = array.ravel()
        want = min(coords_per_array, flat.size)
        checked = 0
        for k in rng.permutation(flat.size):
            if checked == want:
                break
            original = flat[k]
            flat[k] = original + STEP
            up, up_state = probe_fn(params)
            flat[k] = original - STEP
            down, down_state = probe_fn(params)
            flat[k] = original
            if not np.array_equal(up_state, down_state):
                continue
            numeric = (up - down) / (2.0 * STEP)
            worst = max(worst, relative_error(grad.ravel()[k], numeric))
            checked += 1
        if checked == 0:
            raise CorruptionError(
                f"no differentiable coordinate found in {name}"
            )
    return worst


def check_instance(seed: int, arch: nn.ArchConfig | None = None,
                   coords_per_array: int = 6) -> CheckResult:
    """Full-stack gradient check on one seeded random instance.

    Checks ``batch_gradients`` on a one-row batch against the sample
    loss, and on that sample plus one clone against the sum of both losses,
    by central finite differences on sampled coordinates of every parameter
    array. ``seed`` and ``coords_per_array`` follow the integer rule.
    """
    check_count(seed, "seed", 0)
    check_count(coords_per_array, "coords_per_array")
    arch = arch or nn.ArchConfig()
    rng = np.random.default_rng(seed)
    params = nn.init_params(int(rng.integers(2**31)), arch)
    image = rng.normal(scale=0.5, size=(arch.image_size, arch.image_size))
    label = int(rng.integers(arch.num_classes))
    offset = rng.normal(scale=0.1, size=arch.feature_width)

    features, trace = nn.forward_features(params, image[None])
    probs = nn.forward_output(params, features)
    plain = nn.batch_gradients(params, trace, probs, [label])
    clone = nn.batch_gradients(params, trace, probs, [label],
                               features[:1] + offset, np.zeros(1, np.intp))

    err_plain = _max_error_over_coords(
        params, plain, lambda p: _probe(p, image, label),
        rng, coords_per_array,
    )
    err_clone = _max_error_over_coords(
        params, clone, lambda p: _probe(p, image, label, offset),
        rng, coords_per_array,
    )
    return CheckResult(seed, err_plain, err_clone)


def run_gradient_audit(num_instances: int = 20, arch: nn.ArchConfig | None = None,
                       coords_per_array: int = 6) -> list[CheckResult]:
    """``check_instance`` on seeds 0 .. num_instances - 1; a count below 1
    raises ConfigurationError before any instance is checked."""
    check_count(num_instances, "num_instances")
    return [check_instance(seed, arch, coords_per_array)
            for seed in range(num_instances)]
