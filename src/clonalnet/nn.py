"""Five-layer network stack: convolution, 2x2 max-pool, a first fully
connected layer producing the feature vector that the clonal layer operates
on, and a softmax output layer. Trained with plain stochastic gradient
descent on cross-entropy loss.

The clonal layer itself lives in :mod:`clonalnet.clonal`; ``train_epoch``
accepts it as an optional hook that expands each batch's feature vectors.
``batch_gradients`` is the one backward pass: clone error is routed back
through the parent sample's cached trace, with the mutation offset treated
as an additive constant (identity Jacobian), so clone gradients reach the
convolution kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ConfigurationError, CorruptionError, DimensionError,
                     DivergenceError)
from .tensor import conv2d_valid, dense, dense_backward, maxpool2, maxpool2_backward

TANH_SCALE = 1.7159
TANH_SLOPE = 2.0 / 3.0


def scaled_tanh(x):
    """1.7159 * tanh(2x/3), the classic symmetric sigmoid."""
    return TANH_SCALE * np.tanh(TANH_SLOPE * np.asarray(x, dtype=np.float64))


def scaled_tanh_prime(x):
    t = np.tanh(TANH_SLOPE * np.asarray(x, dtype=np.float64))
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

    def validate(self) -> None:
        if min(self.image_size, self.num_maps, self.kernel_size,
               self.feature_width, self.num_classes) < 1:
            raise ConfigurationError(f"non-positive dimension in {self}")
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

    @classmethod
    def zeros_like(cls, params: "LayerStack") -> "LayerStack":
        return cls(*(np.zeros_like(getattr(params, name)) for name in cls.ARRAYS))

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
    """Per-sample cache: everything backprop needs to replay the stack."""

    image: np.ndarray        # (H, W)
    conv_pre: np.ndarray     # (f, oh, ow), pre-activation
    argmax: np.ndarray       # (f, oh/2, ow/2), flat winners per map
    pooled_flat: np.ndarray  # (p,)
    fc1_pre: np.ndarray      # (d,)
    feature: np.ndarray      # (d,)


def init_params(seed: int, dims: ArchConfig) -> LayerStack:
    """Uniform +/- sqrt(6 / (fan_in + fan_out)) weights, zero biases."""
    dims.validate()
    rng = np.random.default_rng(seed)
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
    """Run the stack up to the feature vector; cache the full trace."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise DimensionError(f"image must be 2-D, got shape {img.shape}")
    conv_pre = (np.stack([conv2d_valid(img, k) for k in params.conv_kernels])
                + params.conv_bias[:, None, None])
    pooled, argmax = maxpool2(scaled_tanh(conv_pre))
    pooled_flat = pooled.ravel()
    if pooled_flat.shape[0] != params.fc1_weights.shape[1]:
        raise DimensionError(
            f"flattened pool size {pooled_flat.shape[0]} does not match "
            f"fc1 input width {params.fc1_weights.shape[1]}"
        )
    fc1_pre = dense(params.fc1_weights, params.fc1_bias, pooled_flat)
    feature = scaled_tanh(fc1_pre)
    trace = ForwardTrace(
        image=img,
        conv_pre=conv_pre,
        argmax=argmax,
        pooled_flat=pooled_flat,
        fc1_pre=fc1_pre,
        feature=feature,
    )
    return feature, trace


def forward_output(params: LayerStack, feature: np.ndarray) -> np.ndarray:
    """Class probabilities: softmax over the output layer's scores."""
    feat = np.asarray(feature, dtype=np.float64)
    if feat.shape != (params.feature_width,):
        raise DimensionError(
            f"feature shape {feat.shape} does not match width {params.feature_width}"
        )
    logits = dense(params.out_weights, params.out_bias, feat)
    shifted = logits - logits.max()
    exp = np.exp(shifted)
    return exp / exp.sum()


def cross_entropy(probabilities: np.ndarray, true_label: int) -> float:
    """-log p[true_label]; ``inf`` when that probability is 0."""
    if not 0 <= true_label < len(probabilities):
        raise ConfigurationError(
            f"label {true_label} outside [0, {len(probabilities)})"
        )
    p = probabilities[true_label]
    return float("inf") if p == 0 else float(-np.log(p))


def _feature_error(params: LayerStack, feature: np.ndarray,
                   probabilities: np.ndarray, true_label: int):
    """Output-layer gradients plus the error signal at the feature layer."""
    delta = probabilities.astype(np.float64).copy()
    delta[true_label] -= 1.0
    grad_out_w, grad_out_b, dfeature = dense_backward(
        params.out_weights, feature, delta
    )
    return grad_out_w, grad_out_b, dfeature


def _lower_grads(params: LayerStack, trace: ForwardTrace, dfeature: np.ndarray):
    """Backprop a feature-layer error signal through fc1, pooling, conv.

    Linear in ``dfeature`` for a fixed trace, which is what lets clone
    error signals be summed per parent before a single pass.
    """
    dz1 = dfeature * scaled_tanh_prime(trace.fc1_pre)
    grad_fc1_w, grad_fc1_b, dpool_flat = dense_backward(
        params.fc1_weights, trace.pooled_flat, dz1
    )
    dpool = dpool_flat.reshape(trace.argmax.shape)
    dconv_pre = (maxpool2_backward(trace.argmax, dpool)
                 * scaled_tanh_prime(trace.conv_pre))
    grad_conv_k = np.stack([conv2d_valid(trace.image, d) for d in dconv_pre])
    return grad_conv_k, dconv_pre.sum(axis=(1, 2)), grad_fc1_w, grad_fc1_b


def batch_gradients(params: LayerStack, traces, probabilities, labels,
                    clones=()) -> LayerStack:
    """Cross-entropy gradients summed over a batch and its clones.

    ``traces`` and ``probabilities`` are the originals' forward passes;
    ``clones`` holds (clone_feature, label, parent_index) tuples. Each
    clone's feature-layer error is added to its parent's, and every parent
    then makes one pass through its own trace (the offset between clone and
    parent feature is held constant), so clone gradients reach every layer.
    """
    grads = LayerStack.zeros_like(params)
    feat_err = [np.zeros(params.feature_width) for _ in traces]
    for i, (trace, probs, label) in enumerate(zip(traces, probabilities, labels)):
        if probs.shape != (params.num_classes,):
            raise CorruptionError(
                f"probabilities shape {probs.shape} does not match "
                f"{params.num_classes} classes"
            )
        gw, gb, df = _feature_error(params, trace.feature, probs, int(label))
        grads.out_weights += gw
        grads.out_bias += gb
        feat_err[i] += df

    for clone_feat, label, parent in clones:
        gw, gb, df = _feature_error(
            params, clone_feat, forward_output(params, clone_feat), int(label),
        )
        grads.out_weights += gw
        grads.out_bias += gb
        feat_err[parent] += df

    for trace, err in zip(traces, feat_err):
        gck, gcb, gfw, gfb = _lower_grads(params, trace, err)
        grads.conv_kernels += gck
        grads.conv_bias += gcb
        grads.fc1_weights += gfw
        grads.fc1_bias += gfb
    return grads


def sgd_step(params: LayerStack, gradients: LayerStack, learning_rate: float) -> LayerStack:
    """theta <- theta - lr * g, returning a fresh parameter set."""
    updated = {
        name: getattr(params, name) - learning_rate * getattr(gradients, name)
        for name in LayerStack.ARRAYS
    }
    return LayerStack(**updated)


def predict(params: LayerStack, image: np.ndarray) -> int:
    feature, _ = forward_features(params, image)
    return int(np.argmax(forward_output(params, feature)))


def evaluate(params: LayerStack, images: np.ndarray, labels: np.ndarray) -> float:
    """Misclassification rate over a sample set."""
    wrong = sum(predict(params, img) != int(lab) for img, lab in zip(images, labels))
    return wrong / len(labels)


def train_epoch(params: LayerStack, batches, learning_rate: float,
                clonal_hook=None) -> tuple[LayerStack, float]:
    """One pass over ``batches``: list of (images, labels) pairs.

    Per batch: forward every sample; when a clonal hook is present, it maps
    (features, labels) to a list of (clone_feature, label, parent_index)
    tuples. Original and clone gradients are averaged together before a
    single SGD step. Returns the updated parameters and the misclassification
    rate over the originals; a step that leaves any parameter non-finite
    raises DivergenceError naming the 1-based batch.
    """
    batches = list(batches)
    if not batches:
        raise ConfigurationError("train_epoch requires at least one batch")
    mistakes = 0
    total = 0
    for number, (images, labels) in enumerate(batches, start=1):
        n = len(labels)
        if n == 0:
            raise ConfigurationError("empty batch")
        features, traces, probs = [], [], []
        for img in images:
            feat, trace = forward_features(params, img)
            features.append(feat)
            traces.append(trace)
            probs.append(forward_output(params, feat))
        mistakes += sum(int(np.argmax(p)) != int(label)
                        for p, label in zip(probs, labels))

        clones = [] if clonal_hook is None else clonal_hook(features, labels)
        grads = batch_gradients(params, traces, probs, labels, clones)
        grads.scale_(1.0 / (n + len(clones)))
        params = sgd_step(params, grads, learning_rate)
        if not all(np.isfinite(getattr(params, name)).all()
                   for name in LayerStack.ARRAYS):
            raise DivergenceError(
                f"batch {number}: SGD step left a parameter non-finite"
            )
        total += n
    return params, mistakes / total
