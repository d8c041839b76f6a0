"""Five-layer network stack: convolution, 2x2 max-pool, a first fully
connected layer producing the feature vector that the clonal layer operates
on, and a softmax output layer. Trained with plain stochastic gradient
descent on cross-entropy loss.

The forward functions take one image (or feature vector) or a batch along
a leading axis through the same code; ``train_epoch`` forwards each batch in
one call, and ``evaluate`` makes one ``predict`` call per chunk of
``EVAL_CHUNK`` images. ``forward_features`` unfolds its images into one
:class:`~clonalnet.tensor.Windows` that every kernel's ``conv2d_valid``
reads, and pools the pre-activations before the tanh: tanh is monotone, so
the pooled values are the same, and only a quarter of the map goes through
it. Each dense layer is one matrix product over a batch's rows (see
:func:`~clonalnet.tensor.dense`), so a batch row equals its image's own
forward bit for bit up to the pooled features, and from fc1 on up to
rounding.

The clonal layer itself lives in :mod:`clonalnet.clonal`; ``train_epoch``
accepts it as an optional hook that expands each batch's feature vectors
into a :class:`~clonalnet.clonal.Clones`. ``batch_gradients`` is the one
backward pass: one output-layer pass over the original and clone rows, then
one pass through the batch trace. The clones come as two arrays, their
features (k, d) and their parents' batch indices (k,); a clone takes its
parent's label and adds its error to its parent's row with the mutation
offset treated as an additive constant (identity Jacobian), so clone
gradients reach the convolution kernels. Each dense layer's weight
gradient and input error is one matrix product over its rows. The backward
reads the forward's ``Windows`` and tanh values from the trace and makes no
im2col of its own: the kernel gradient is one stacked product of each
image's convolution error with its ``Windows`` columns, transposed in
place, summed over the batch, and tanh' at fc1 and at the pool winners
(only they receive error) is formed from the kept tanh values by
``tanh_prime_from``.

A training batch calls numpy's C entry points only (ufunc ``reduce``,
ndarray methods, array constructors): the Python-level helpers behind
``np.sum``, ``ndarray.sum()`` and the like cost more per batch than the
arithmetic they wrap, and the C calls give the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import (ConfigurationError, CorruptionError, DimensionError,
                     DivergenceError, check_array, check_count, check_indices,
                     check_real)
from .tensor import (Windows, conv2d_valid, dense, dense_backward, maxpool2,
                     maxpool2_backward)

TANH_SCALE = 1.7159
TANH_SLOPE = 2.0 / 3.0


def scaled_tanh(x):
    """1.7159 * tanh(2x/3), the classic symmetric sigmoid."""
    return TANH_SCALE * np.tanh(TANH_SLOPE * check_array(x, "x"))


def tanh_prime_from(t):
    """The derivative of :func:`scaled_tanh` at x, from
    ``t = tanh(TANH_SLOPE * x)``."""
    return TANH_SCALE * TANH_SLOPE * (1.0 - t * t)


@dataclass(frozen=True)
class ArchConfig:
    """Dimensions of the stack. Defaults give 28x28 -> conv5x5 (8 maps)
    -> 24x24 -> pool -> 12x12 -> feature width 64 -> class scores."""

    image_size: int = 28
    num_maps: int = 8
    kernel_size: int = 5
    feature_width: int = 64
    num_classes: int = 10

    @property
    def conv_out(self) -> int:
        return self.image_size - self.kernel_size + 1

    @property
    def pool_out(self) -> int:
        return self.conv_out // 2

    @property
    def flat_size(self) -> int:
        return self.num_maps * self.pool_out * self.pool_out

    def __post_init__(self):
        for field in fields(self):
            check_count(getattr(self, field.name), field.name)
        if self.kernel_size > self.image_size:
            raise ConfigurationError(
                f"kernel {self.kernel_size} exceeds image {self.image_size}"
            )
        if self.conv_out % 2:
            raise ConfigurationError(
                f"conv output extent {self.conv_out} must be even for 2x2 pooling"
            )


@dataclass
class LayerStack:
    """The network's parameters; a gradient is a LayerStack of the same
    shapes."""

    conv_kernels: np.ndarray   # (f, k, k)
    conv_bias: np.ndarray      # (f,)
    fc1_weights: np.ndarray    # (d, p)
    fc1_bias: np.ndarray       # (d,)
    out_weights: np.ndarray    # (c, d)
    out_bias: np.ndarray       # (c,)

    ARRAYS = ("conv_kernels", "conv_bias", "fc1_weights", "fc1_bias",
              "out_weights", "out_bias")

    def scale_(self, factor: float) -> "LayerStack":
        for name in self.ARRAYS:
            getattr(self, name).__imul__(factor)
        return self

    @property
    def num_maps(self) -> int:
        return self.conv_kernels.shape[0]

    @property
    def feature_width(self) -> int:
        return self.fc1_weights.shape[0]

    @property
    def num_classes(self) -> int:
        return self.out_weights.shape[0]


@dataclass
class ForwardTrace:
    """Everything backprop needs to replay the stack, per image of an
    ``(N, H, W)`` batch; a single ``(H, W)`` image has no leading axis.
    The backward reads the forward's unfolding and tanh values from here
    and recomputes neither."""

    windows: Windows         # the images' im2col, kernel-gradient operand
    argmax: np.ndarray       # (N, f, oh/2, ow/2), flat winners per map
    pool_tanh: np.ndarray    # (N, f, oh/2, ow/2), tanh(TANH_SLOPE * winner)
    pooled_flat: np.ndarray  # (N, p), TANH_SCALE * pool_tanh, flattened
    fc1_tanh: np.ndarray     # (N, d), tanh(TANH_SLOPE * fc1 pre-activation)
    feature: np.ndarray      # (N, d), TANH_SCALE * fc1_tanh


def init_params(seed: int, dims: ArchConfig) -> LayerStack:
    """Uniform +/- sqrt(6 / (fan_in + fan_out)) weights, zero biases."""
    rng = np.random.default_rng(check_count(seed, "seed", 0))
    k, f = dims.kernel_size, dims.num_maps

    def uniform(fan_in, fan_out, shape):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=shape)

    return LayerStack(
        conv_kernels=uniform(k * k, f * k * k, (f, k, k)),
        conv_bias=np.zeros(f),
        fc1_weights=uniform(dims.flat_size, dims.feature_width,
                            (dims.feature_width, dims.flat_size)),
        fc1_bias=np.zeros(dims.feature_width),
        out_weights=uniform(dims.feature_width, dims.num_classes,
                            (dims.num_classes, dims.feature_width)),
        out_bias=np.zeros(dims.num_classes),
    )


def forward_features(params: LayerStack, image: np.ndarray) -> tuple[np.ndarray, ForwardTrace]:
    """Run an ``(H, W)`` image or an ``(N, H, W)`` batch up to the feature
    layer; return the ``(d,)`` or ``(N, d)`` features and the full trace."""
    img = check_array(image, "image", (2, 3))
    windows = Windows(img, params.conv_kernels.shape[1:])
    conv_pre = np.empty((*img.shape[:-2], params.num_maps, *windows.shape[-2:]))
    for m, (kernel, bias) in enumerate(zip(params.conv_kernels,
                                           params.conv_bias)):
        np.add(conv2d_valid(windows, kernel), bias, out=conv_pre[..., m, :, :])
    # tanh is monotone, so pooling first keeps the pooled values; where tanh
    # rounds distinct pre-activations to one value, the winner is the
    # largest of them rather than the first
    pool_pre, argmax = maxpool2(conv_pre)
    # scaled_tanh in two steps, keeping the tanh for the backward's tanh'
    pool_tanh = np.tanh(TANH_SLOPE * pool_pre)
    pooled = TANH_SCALE * pool_tanh
    # the width spelled out, so that an empty batch reshapes too
    pooled_flat = pooled.reshape(*img.shape[:-2], math.prod(pooled.shape[-3:]))
    if pooled_flat.shape[-1] != params.fc1_weights.shape[1]:
        raise DimensionError(
            f"flattened pool size {pooled_flat.shape[-1]} does not match "
            f"fc1 input width {params.fc1_weights.shape[1]}"
        )
    fc1_tanh = np.tanh(TANH_SLOPE * dense(params.fc1_weights, params.fc1_bias,
                                          pooled_flat))
    feature = TANH_SCALE * fc1_tanh
    trace = ForwardTrace(
        windows=windows,
        argmax=argmax,
        pool_tanh=pool_tanh,
        pooled_flat=pooled_flat,
        fc1_tanh=fc1_tanh,
        feature=feature,
    )
    return feature, trace


def forward_output(params: LayerStack, feature: np.ndarray) -> np.ndarray:
    """Class probabilities of each row of a ``(..., d)`` feature stack:
    softmax over the output layer's scores."""
    feat = check_array(feature, "feature", (1, math.inf))
    if feat.shape[-1] != params.feature_width:
        raise DimensionError(
            f"feature shape {feat.shape} does not match width {params.feature_width}"
        )
    logits = dense(params.out_weights, params.out_bias, feat)
    shifted = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.add.reduce(exp, axis=-1, keepdims=True)


def cross_entropy(probabilities: np.ndarray, true_label: int) -> float:
    """-log p[true_label] of a ``(c,)`` vector; ``inf`` when that is 0. A
    label that is not one integer class, or an entry outside [0, 1] or
    NaN, raises ConfigurationError."""
    probabilities = check_array(probabilities, "probabilities", 1)
    check_indices(true_label, "label", len(probabilities), 0)
    if not ((probabilities >= 0) & (probabilities <= 1)).all():
        raise ConfigurationError(
            f"probabilities must lie in [0, 1], got {probabilities.tolist()}")
    p = probabilities[true_label]
    return float("inf") if p == 0 else float(-np.log(p))


def batch_gradients(params: LayerStack, trace: ForwardTrace, probabilities,
                    labels, clone_features=None,
                    clone_parents=None) -> LayerStack:
    """Cross-entropy gradients summed over a batch and its clones.

    ``trace`` and the ``(N, c)`` ``probabilities`` are the forward pass of
    an ``(N, H, W)`` batch, and ``labels`` its ``(N,)`` integer labels.
    The clones are two arrays, ``clone_features`` (k, d) and
    ``clone_parents`` (k,), the batch index of each clone's parent; a
    clone's label is its parent's, and without them there are none. Each
    clone's feature-layer error is added to its parent's row, holding the
    clone-parent offset constant, before one pass through the batch trace,
    so clone gradients reach every layer. Weight gradients are summed over
    the rows by matrix products, so the order of their sums is BLAS's, not
    the batch order; the kernel gradient's per-image products are added in
    batch order.
    """
    n = len(trace.feature)
    width = params.feature_width
    probs = check_array(probabilities, "probabilities")
    try:
        labels = check_indices(labels, "label", params.num_classes, 1)
    except ConfigurationError:
        # a count misfit is the trace's first, even for [] (a float array)
        if len(labels) == n:
            raise
    if probs.shape != (n, params.num_classes) or len(labels) != n:
        raise CorruptionError(
            f"probabilities {probs.shape} and {len(labels)} labels do not "
            f"match {n} traced samples of {params.num_classes} classes"
        )
    if clone_features is None:
        clone_features = np.empty((0, width))
        clone_parents = np.empty(0, np.intp)
    clone_features = check_array(clone_features, "clone features", 2)
    parents = check_indices(clone_parents, "clone parent", n, 1)
    if clone_features.shape[1] != width or len(parents) != len(clone_features):
        raise DimensionError(
            f"clone features {clone_features.shape} and parents "
            f"{parents.shape} must be (k, {width}) and (k,)")

    row_labels = np.concatenate([labels, labels[parents]])

    # output layer over the original and clone rows
    delta = np.concatenate([probs, forward_output(params, clone_features)])
    delta[np.arange(len(delta)), row_labels] -= 1.0
    grad_out_w, grad_out_b, drows = dense_backward(
        params.out_weights, np.concatenate([trace.feature, clone_features]),
        delta,
    )
    feature_error = drows[:n]
    np.add.at(feature_error, parents, drows[n:])

    # fc1, pooling and convolution over the batch trace; the error is linear
    # in feature_error, which is what lets clones be summed per parent first
    dz1 = feature_error * tanh_prime_from(trace.fc1_tanh)
    grad_fc1_w, grad_fc1_b, dpool_flat = dense_backward(
        params.fc1_weights, trace.pooled_flat, dz1
    )
    # only the pool winners get error, so tanh' is needed at them only
    dpool = dpool_flat.reshape(trace.argmax.shape)
    dconv_pre = maxpool2_backward(trace.argmax,
                                  dpool * tanh_prime_from(trace.pool_tanh))
    # kernel gradient: each image's (f, oh·ow) error against its (oh·ow, k²)
    # windows, the forward's (k², oh·ow) cols transposed without a copy,
    # then summed over the batch
    cols = trace.windows.cols
    grad_conv_k = np.add.reduce(
        dconv_pre.reshape(n, params.num_maps, cols.shape[-1])
        @ cols.swapaxes(-1, -2), axis=0)
    return LayerStack(grad_conv_k.reshape(params.conv_kernels.shape),
                      np.add.reduce(np.add.reduce(dconv_pre, axis=(2, 3)),
                                    axis=0),
                      grad_fc1_w, grad_fc1_b, grad_out_w, grad_out_b)


def sgd_step(params: LayerStack, gradients: LayerStack, learning_rate: float) -> LayerStack:
    """theta <- theta - lr * g, returning a fresh parameter set; neither
    input is modified."""
    updated = {}
    for name in LayerStack.ARRAYS:
        # one temporary per array: the step, overwritten by the result
        step = np.multiply(learning_rate, getattr(gradients, name))
        updated[name] = np.subtract(getattr(params, name), step, out=step)
    return LayerStack(**updated)


def predict(params: LayerStack, image: np.ndarray) -> int | np.ndarray:
    """The most probable class of an ``(H, W)`` image as an ``int``, or of
    each image of an ``(N, H, W)`` stack as an ``(N,)`` integer array. The
    stack's class scores come from one matrix product per dense layer, so
    each image's scores equal its own call's up to rounding."""
    feature, _ = forward_features(params, image)
    classes = forward_output(params, feature).argmax(axis=-1)
    return int(classes) if classes.ndim == 0 else classes


# images per ``predict`` call in ``evaluate``. On a 2-core x86 VM (4 MiB
# L2 per core) with one BLAS thread, evaluating the 1500-image test subset
# after a 3-epoch, 50-per-class training cell took (median of 7, two runs)
# 101-112 ms at chunk 8, 114-126 ms at 16, 129-145 ms at 50, 135-143 ms at
# 100, 207-212 ms at 200 and 214 ms one image at a time; a chunk's forward
# pass copies one chunk x k² x oh·ow im2col, 5.8 MB at 50 for the default
# stack. Smaller chunks read faster here, but not in the benchmark's
# ``train_cnn`` passes: 4 paired runs at 16 against 50 gave ``run_s`` 0.488
# against 0.493 s, within the spread of the runs at 50 (IQR 0.021 s).
# The constant is not speed alone: a chunk's rows share one product per
# dense layer, so another chunk size may move the scores' last bits and flip
# a near-tied class, and with it error rows, CSV and fingerprints.
EVAL_CHUNK = 50


def evaluate(params: LayerStack, images: np.ndarray, labels: np.ndarray) -> float:
    """Misclassification rate over a sample set, one ``predict`` per chunk
    of ``EVAL_CHUNK`` ``(N, H, W)`` images. Labels that are not one
    integer in [0, num_classes) per image raise a typed error."""
    images = check_array(images, "images", 3)
    labels = check_indices(labels, "label", params.num_classes, 1)
    if len(images) != len(labels):
        raise DimensionError(f"{len(images)} images but {len(labels)} labels")
    if not len(labels):
        raise ConfigurationError("evaluate requires at least one sample")
    wrong = 0
    for start in range(0, len(labels), EVAL_CHUNK):
        chunk = slice(start, start + EVAL_CHUNK)
        wrong += int(np.count_nonzero(predict(params, images[chunk])
                                      != labels[chunk]))
    return wrong / len(labels)


def train_epoch(params: LayerStack, batches, learning_rate: float,
                clonal_hook=None) -> tuple[LayerStack, float]:
    """One pass over ``batches``: list of (images, labels) pairs.

    Per batch: one forward pass over the batch's images; when a clonal hook
    is present, it maps the (N, d) features and the labels to a
    :class:`~clonalnet.clonal.Clones` (or any object with ``features``
    (k, d) and ``parents`` (k,) arrays and a ``len``), whose arrays go to
    ``batch_gradients`` as they are. Original and clone gradients are
    averaged together before a single SGD step. Returns the updated
    parameters and the misclassification rate over the originals. A bad
    ``learning_rate`` raises before any batch; a batch whose images are not
    ``(N, H, W)`` or whose labels are not one integer in [0, num_classes)
    per image, or a step that leaves any parameter non-finite, raises an
    error naming the 1-based batch. A batch is checked before its forward
    pass, so a bad label reaches neither the hook nor the parameters.
    """
    check_real(learning_rate, "learning_rate", 0, math.inf)
    batches = list(batches)
    if not batches:
        raise ConfigurationError("train_epoch requires at least one batch")
    mistakes = total = 0
    for number, (images, labels) in enumerate(batches, start=1):
        try:
            images = check_array(images, "images", 3)
            labels = check_indices(labels, "label", params.num_classes, 1)
        except (ConfigurationError, DimensionError) as err:
            raise type(err)(f"batch {number}: {err}") from None
        n = len(labels)
        if len(images) != n:
            raise DimensionError(f"batch {number}: {len(images)} images but {n} labels")
        if n == 0:
            raise ConfigurationError("empty batch")
        features, trace = forward_features(params, images)
        probs = forward_output(params, features)
        mistakes += int(np.add.reduce(probs.argmax(axis=1) != labels))

        if clonal_hook is None:
            grads = batch_gradients(params, trace, probs, labels)
            rows = n
        else:
            clones = clonal_hook(features, labels)
            grads = batch_gradients(params, trace, probs, labels,
                                    clones.features, clones.parents)
            rows = n + len(clones)
        grads.scale_(1.0 / rows)
        params = sgd_step(params, grads, learning_rate)
        if not all(np.logical_and.reduce(np.isfinite(getattr(params, name)),
                                         axis=None)
                   for name in LayerStack.ARRAYS):
            raise DivergenceError(
                f"batch {number}: SGD step left a parameter non-finite"
            )
        total += n
    return params, mistakes / total
