import dataclasses
import re
import warnings

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import given, settings
from hypothesis import strategies as st

from clonalnet import nn
from clonalnet.clonal import CloneConfig, ClonalExpander, Clones
from clonalnet.errors import (ConfigurationError, CorruptionError,
                              DimensionError, DivergenceError)
from clonalnet.gradcheck import check_instance
from clonalnet.tensor import (conv2d_valid, conv2d_valid_naive, dense,
                              dense_backward, dense_naive, maxpool2,
                              maxpool2_backward, maxpool2_naive)

SMALL = nn.ArchConfig(image_size=10, num_maps=2, kernel_size=3,
                      feature_width=6, num_classes=3)


def central_diff(f, x, step=1e-6):
    return (f(x + step) - f(x - step)) / (2 * step)


def zeros_like(params):
    return nn.LayerStack(*(np.zeros_like(getattr(params, name))
                           for name in nn.LayerStack.ARRAYS))


def conv_pre(params, trace):
    """The convolution's pre-activation, (N, f, oh, ow) or (f, oh, ow):
    ``conv2d_valid`` of the trace's windows per kernel, plus its bias."""
    return np.stack([conv2d_valid(trace.windows, kernel) + bias
                     for kernel, bias in zip(params.conv_kernels,
                                             params.conv_bias)], axis=-3)


def scaled_tanh_prime(x):
    """The derivative of ``nn.scaled_tanh``, the oracle for
    ``nn.tanh_prime_from``: tanh' from the pre-activations themselves."""
    t = np.tanh(nn.TANH_SLOPE * np.asarray(x, dtype=np.float64))
    return nn.TANH_SCALE * nn.TANH_SLOPE * (1.0 - t * t)


def forward_batch(params, images):
    """Features, trace and output probabilities of an (N, H, W) batch."""
    features, trace = nn.forward_features(params, images)
    return features, trace, nn.forward_output(params, features)


class TestScaledTanh:
    def test_zero(self):
        assert nn.scaled_tanh(0.0) == 0.0

    def test_saturation(self):
        assert abs(nn.scaled_tanh(20.0) - 1.7159) < 1e-6
        assert abs(nn.scaled_tanh(-20.0) + 1.7159) < 1e-6

    def test_derivative_matches_finite_difference(self):
        for x in (-2.0, 0.5, 3.0):
            numeric = central_diff(nn.scaled_tanh, x)
            assert abs(scaled_tanh_prime(x) - numeric) < 1e-8

    def test_odd_symmetry(self):
        xs = np.linspace(-4, 4, 17)
        assert np.allclose(nn.scaled_tanh(-xs), -nn.scaled_tanh(xs), atol=1e-15)


class TestArchConfig:
    def test_default_dimensions(self):
        arch = nn.ArchConfig()
        assert arch.conv_out == 24
        assert arch.pool_out == 12
        assert arch.flat_size == 8 * 12 * 12

    def test_odd_conv_output_rejected(self):
        with pytest.raises(ConfigurationError):
            nn.ArchConfig(image_size=28, kernel_size=6)

    def test_kernel_larger_than_image_rejected(self):
        with pytest.raises(ConfigurationError):
            nn.ArchConfig(image_size=4, kernel_size=5)


class TestInitParams:
    def test_deterministic(self):
        a = nn.init_params(7, SMALL)
        b = nn.init_params(7, SMALL)
        for name in nn.LayerStack.ARRAYS:
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_seed_changes_weights(self):
        a = nn.init_params(1, SMALL)
        b = nn.init_params(2, SMALL)
        assert not np.array_equal(a.conv_kernels, b.conv_kernels)

    def test_biases_zero(self):
        p = nn.init_params(0, SMALL)
        assert not p.conv_bias.any()
        assert not p.fc1_bias.any()
        assert not p.out_bias.any()

    def test_bounds_and_mean(self):
        arch = nn.ArchConfig()
        p = nn.init_params(123, arch)
        k = arch.kernel_size
        lim_conv = np.sqrt(6.0 / (k * k + arch.num_maps * k * k))
        lim_fc1 = np.sqrt(6.0 / (arch.flat_size + arch.feature_width))
        assert np.abs(p.conv_kernels).max() <= lim_conv
        assert np.abs(p.fc1_weights).max() <= lim_fc1
        # uniform(-b, b): mean 0, sd b/sqrt(3); check sample mean within 3 SE
        draws = p.fc1_weights.ravel()
        assert draws.size >= 10000
        se = lim_fc1 / np.sqrt(3 * draws.size)
        assert abs(draws.mean()) < 3 * se


class TestForward:
    def test_zero_image_zero_feature(self):
        p = nn.init_params(3, SMALL)
        feature, _ = nn.forward_features(p, np.zeros((10, 10)))
        assert np.array_equal(feature, np.zeros(6))

    def test_matches_naive_pipeline(self):
        rng = np.random.default_rng(11)
        p = nn.init_params(5, SMALL)
        image = rng.normal(size=(10, 10))
        feature, trace = nn.forward_features(p, image)

        maps = []
        for m in range(SMALL.num_maps):
            pre = conv2d_valid_naive(image, p.conv_kernels[m]) + p.conv_bias[m]
            act = nn.scaled_tanh(pre)
            pooled, _ = maxpool2_naive(act)
            maps.append(pooled)
        flat = np.stack(maps).ravel()
        expected = nn.scaled_tanh(dense_naive(p.fc1_weights, p.fc1_bias, flat))
        assert np.allclose(feature, expected, atol=1e-12, rtol=0)

    def test_trace_argmax_matches_naive_pool_per_map(self):
        rng = np.random.default_rng(12)
        p = nn.init_params(6, SMALL)
        # a constant image makes every window equal, so each block is a tie
        for image in (rng.normal(size=(10, 10)), np.full((10, 10), 0.5)):
            _, trace = nn.forward_features(p, image)
            for m in range(SMALL.num_maps):
                act = nn.scaled_tanh(conv_pre(p, trace)[m])
                assert np.array_equal(trace.argmax[m], maxpool2_naive(act)[1])

    @given(st.integers(0, 2**31 - 1), st.sampled_from([None, 0, 1, 5]),
           st.sampled_from([0.1, 1.0, 30.0, 1e3]))
    @settings(max_examples=30, deadline=None)
    def test_pooling_before_tanh_keeps_the_pooled_values(self, seed, n,
                                                         scale):
        # tanh is monotone, so tanh of the pooled pre-activations is, bit for
        # bit, the pool of the activations; large scales saturate tanh, and
        # constant image rows tie whole pooling blocks
        rng = np.random.default_rng(seed)
        p = nn.init_params(seed, SMALL)
        p.conv_kernels *= scale
        p.conv_bias[:] = rng.normal(scale=scale, size=SMALL.num_maps)
        images = rng.normal(size=(1 if n is None else n, 10, 10))
        images[:, :5] = rng.choice([-1.0, 0.0, 1.0])
        feature, trace = nn.forward_features(p, images[0] if n is None
                                             else images)
        pre = conv_pre(p, trace)
        pool_pre, argmax = maxpool2(pre)
        assert np.array_equal(trace.argmax, argmax)
        pooled = nn.scaled_tanh(pool_pre)
        assert pooled.tobytes() == \
            maxpool2(nn.scaled_tanh(pre))[0].tobytes()
        assert pooled.tobytes() == trace.pooled_flat.tobytes()
        # the kept tanh values are those the activations are scaled from
        assert trace.pool_tanh.tobytes() == \
            np.tanh(nn.TANH_SLOPE * pool_pre).tobytes()
        fc1_pre = dense(p.fc1_weights, p.fc1_bias, trace.pooled_flat)
        assert trace.fc1_tanh.tobytes() == \
            np.tanh(nn.TANH_SLOPE * fc1_pre).tobytes()
        assert feature.tobytes() == nn.scaled_tanh(fc1_pre).tobytes()

    def test_disconnected_map_is_bias_only(self):
        # a zero kernel disconnects its map from the image
        p = nn.init_params(4, SMALL)
        p.conv_kernels[1] = 0.0
        p.conv_bias[1] = 0.25
        rng = np.random.default_rng(0)
        _, trace = nn.forward_features(p, rng.normal(size=(10, 10)))
        assert np.allclose(conv_pre(p, trace)[1], 0.25)

    def test_rejects_non_2d_image(self):
        # an (H, W) image and an (N, H, W) batch are the only accepted shapes.
        # Each row of a batch forward is its own image's forward, bit for bit
        # up to the pooled features; fc1 and the output layer are one matrix
        # product over the batch, so from there on a row is its own image's
        # forward up to rounding
        p = nn.init_params(0, SMALL)
        for shape in [(10,), (2, 2, 10, 10)]:
            with pytest.raises(DimensionError):
                nn.forward_features(p, np.zeros(shape))
        images = np.random.default_rng(3).normal(size=(4, 10, 10))
        features, trace = nn.forward_features(p, images)
        probs = nn.forward_output(p, features)
        rounded = {"fc1_tanh", "feature"}
        for i, image in enumerate(images):
            feature, row = nn.forward_features(p, image)
            for field in dataclasses.fields(nn.ForwardTrace):
                if field.name == "windows":
                    assert (trace.windows.kernel_shape
                            == row.windows.kernel_shape)
                    assert np.array_equal(trace.windows.cols[i],
                                          row.windows.cols)
                    continue
                got = getattr(trace, field.name)[i]
                want = getattr(row, field.name)
                if field.name in rounded:
                    assert np.allclose(got, want, rtol=1e-12, atol=1e-14), \
                        field.name
                else:
                    assert got.tobytes() == want.tobytes(), field.name
            assert np.allclose(probs[i], nn.forward_output(p, feature),
                               rtol=1e-12, atol=1e-14)

    def test_empty_batch_gives_no_rows(self):
        p = nn.init_params(0, SMALL)
        features, trace = nn.forward_features(p, np.zeros((0, 10, 10)))
        assert features.shape == (0, SMALL.feature_width)
        assert trace.pooled_flat.shape == (0, p.fc1_weights.shape[1])


class TestForwardOutput:
    def test_probabilities_normalized(self):
        p = nn.init_params(9, SMALL)
        rng = np.random.default_rng(2)
        probs = nn.forward_output(p, rng.normal(size=6))
        assert abs(probs.sum() - 1.0) < 1e-12
        assert np.all(probs > 0) and np.all(probs < 1)

    def test_shift_invariance_and_stability(self):
        p = nn.init_params(9, SMALL)
        p.out_weights[:] = 0.0
        p.out_bias[:] = np.array([1000.0, 1000.5, 999.0])
        probs = nn.forward_output(p, np.zeros(6))
        assert np.all(np.isfinite(probs))
        small = np.exp([0.0, 0.5, -1.0])
        assert np.allclose(probs, small / small.sum(), atol=1e-12)

    def test_feature_width_checked(self):
        p = nn.init_params(0, SMALL)
        with pytest.raises(DimensionError):
            nn.forward_output(p, np.zeros(7))


class TestCrossEntropy:
    def test_certain_prediction_zero_loss(self):
        assert nn.cross_entropy(np.array([0.0, 1.0, 0.0]), 1) == 0.0

    def test_uniform_prediction(self):
        probs = np.full(4, 0.25)
        assert abs(nn.cross_entropy(probs, 2) - np.log(4)) < 1e-12
        assert (nn.cross_entropy(probs, np.int64(2))
                == nn.cross_entropy(probs, 2))

    @pytest.mark.parametrize("label", [-1, 3, 7])
    def test_label_outside_classes_rejected(self, label):
        with pytest.raises(ConfigurationError):
            nn.cross_entropy(np.array([0.2, 0.3, 0.5]), label)

    @pytest.mark.parametrize("label", [0.5, 1.0, True, np.float64(1.0),
                                       np.bool_(False)],
                             ids=["fraction", "whole-float", "bool",
                                  "numpy-float", "numpy-bool"])
    def test_label_that_is_not_an_integer_rejected(self, label):
        # a float used to raise numpy's bare IndexError and True to score
        # class 1
        with pytest.raises(ConfigurationError, match="integer"):
            nn.cross_entropy(np.array([0.5, 0.5]), label)

    def test_zero_probability_is_infinite_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert nn.cross_entropy(np.array([0.0, 1.0]), 0) == np.inf

    @pytest.mark.parametrize("probs", [[-0.5, 1.5], [0.5, np.nan],
                                       [1.5, 0.0], [np.inf, 0.0],
                                       [0.5, -1e-300]],
                             ids=["negative", "nan", "above-one", "inf",
                                  "tiny-negative"])
    @pytest.mark.parametrize("label", [0, 1])
    def test_entry_outside_zero_one_rejected(self, probs, label):
        # [-0.5, 1.5] used to give NaN with only a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError,
                               match=r"probabilities must lie in \[0, 1\]"):
                nn.cross_entropy(probs, label)


def clones_near(features, parents, rng):
    """Clone features (k, d), each its parent's row plus a small offset,
    and the parents (k,) as an index array."""
    parents = np.asarray(parents, dtype=np.intp)
    offsets = rng.normal(scale=0.2, size=(len(parents), features.shape[1]))
    return features[parents] + offsets, parents


def conv_error(p, trace, probs, labels, clone_features, parents):
    """Loss gradient at the conv pre-activations of a batch and its clones,
    built one row at a time from the naive kernels."""
    feature_error = np.zeros_like(trace.feature)
    rows = [(prob, label, n)
            for n, (prob, label) in enumerate(zip(probs, labels))]
    rows += [(nn.forward_output(p, f), labels[parent], parent)
             for f, parent in zip(clone_features, parents)]
    for prob, label, parent in rows:
        delta = prob.copy()
        delta[label] -= 1.0
        feature_error[parent] += dense_naive(p.out_weights.T,
                                             np.zeros(p.feature_width), delta)
    pre = conv_pre(p, trace)
    dconv = np.zeros_like(pre)
    for n, error in enumerate(feature_error):
        fc1_pre = dense_naive(p.fc1_weights, p.fc1_bias, trace.pooled_flat[n])
        dz1 = error * scaled_tanh_prime(fc1_pre)
        dpool = dense_naive(p.fc1_weights.T, np.zeros(p.fc1_weights.shape[1]),
                            dz1).reshape(trace.argmax.shape[1:])
        for (m, y, x), winner in np.ndenumerate(trace.argmax[n]):
            dconv[n, m].flat[winner] = dpool[m, y, x]
    return dconv * scaled_tanh_prime(pre)


def full_map_gradients(p, images, trace, probs, labels, clone_features,
                       parents):
    """All six gradients with tanh' taken by ``scaled_tanh_prime`` of the
    pre-activations, over the whole conv map
    (``maxpool2_backward(argmax, dpool) * scaled_tanh_prime(conv_pre)``),
    and the kernel gradient's im2col rebuilt from ``images`` in
    ``Windows.cols``' (n, k², oh·ow) layout; otherwise by the same
    operations in the same order as ``batch_gradients``."""
    n = len(trace.feature)
    row_labels = np.concatenate([labels, labels[parents]]).astype(int)
    delta = np.concatenate([probs, nn.forward_output(p, clone_features)])
    delta[np.arange(len(delta)), row_labels] -= 1.0
    out_w, out_b, drows = dense_backward(
        p.out_weights, np.concatenate([trace.feature, clone_features]), delta)
    feature_error = drows[:n]
    np.add.at(feature_error, parents, drows[n:])
    fc1_pre = dense(p.fc1_weights, p.fc1_bias, trace.pooled_flat)
    dz1 = feature_error * scaled_tanh_prime(fc1_pre)
    fc1_w, fc1_b, dpool = dense_backward(p.fc1_weights, trace.pooled_flat, dz1)
    dconv = (maxpool2_backward(trace.argmax, dpool.reshape(trace.argmax.shape))
             * scaled_tanh_prime(conv_pre(p, trace)))
    k = p.conv_kernels.shape[-1]
    windows = sliding_window_view(images, (k, k), axis=(-2, -1))
    cols = np.moveaxis(windows, (-2, -1), (1, 2)).reshape(n, k * k, -1)
    kernels = np.add.reduce(
        dconv.reshape(n, p.num_maps, -1) @ cols.swapaxes(-1, -2), axis=0)
    return nn.LayerStack(kernels.reshape(p.conv_kernels.shape),
                         dconv.sum(axis=(2, 3)).sum(axis=0),
                         fc1_w, fc1_b, out_w, out_b)


def assert_same_bytes(got, want):
    for name in nn.LayerStack.ARRAYS:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), \
            name


class TestBackward:
    @given(st.integers(0, 2**31 - 1), st.sampled_from([1, 3, 8]),
           st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_conv_gradients_equal_the_full_map_formula(self, seed, n,
                                                       with_clones):
        # tanh' at the pool winners only, formed from the forward's tanh
        # values, and the forward's Windows as the im2col must change no
        # bit of any gradient
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 5))
        arch = nn.ArchConfig(
            image_size=2 * int(rng.integers(1, 5)) + k - 1,
            num_maps=int(rng.integers(1, 4)), kernel_size=k,
            feature_width=int(rng.integers(1, 6)),
            num_classes=int(rng.integers(1, 5)))
        p = nn.init_params(seed, arch)
        images = rng.normal(size=(n, arch.image_size, arch.image_size))
        labels = rng.integers(0, arch.num_classes, size=n)
        features, trace, probs = forward_batch(p, images)
        clones = clones_near(
            features, rng.integers(0, n, size=2 * n) if with_clones else [],
            rng)
        assert_same_bytes(
            nn.batch_gradients(p, trace, probs, labels, *clones),
            full_map_gradients(p, images, trace, probs, labels, *clones))

    @given(st.integers(0, 2**31 - 1), st.sampled_from([1, 3, 8]),
           st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_saturated_and_tied_gradients_equal_the_full_map_formula(
            self, seed, n, with_clones):
        # pre-activations beyond +-30, where tanh rounds to +-1 and tanh' is
        # 0, and constant image rows whose pooling blocks tie: the winners
        # of the pre-activations still give the full-map gradients
        rng = np.random.default_rng(seed)
        p = nn.init_params(seed, SMALL)
        p.conv_kernels *= 100.0
        p.conv_bias[:] = rng.choice([-40.0, 0.0, 40.0], size=SMALL.num_maps)
        images = rng.normal(size=(n, 10, 10))
        images[:, :5] = rng.choice([-1.0, 1.0], size=(n, 1, 1))
        labels = rng.integers(0, SMALL.num_classes, size=n)
        features, trace, probs = forward_batch(p, images)
        pre = conv_pre(p, trace)
        assert (np.abs(maxpool2(pre)[0]) > 30).any()
        assert (pre[:, :, 0, 0] == pre[:, :, 1, 1]).all()
        clones = clones_near(
            features, rng.integers(0, n, size=2 * n) if with_clones else [],
            rng)
        assert_same_bytes(
            nn.batch_gradients(p, trace, probs, labels, *clones),
            full_map_gradients(p, images, trace, probs, labels, *clones))

    @given(st.integers(0, 2**31 - 1), st.sampled_from([1, 3, 8]),
           st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_kernel_gradient_matches_per_image_oracle(self, seed, n,
                                                      with_clones):
        # the kernel gradient is the sum over images of each image
        # cross-correlated with its map's conv error
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 5))
        arch = nn.ArchConfig(
            image_size=2 * int(rng.integers(1, 5)) + k - 1,
            num_maps=int(rng.integers(1, 4)), kernel_size=k,
            feature_width=int(rng.integers(1, 6)),
            num_classes=int(rng.integers(1, 5)))
        p = nn.init_params(seed, arch)
        images = rng.normal(size=(n, arch.image_size, arch.image_size))
        labels = rng.integers(0, arch.num_classes, size=n)
        features, trace, probs = forward_batch(p, images)
        parents = rng.integers(0, n, size=rng.integers(1, 2 * n + 1))
        clones = clones_near(features, parents if with_clones else [], rng)
        grads = nn.batch_gradients(p, trace, probs, labels, *clones)
        dconv = conv_error(p, trace, probs, labels, *clones)
        for m in range(arch.num_maps):
            want = sum(conv2d_valid_naive(image, dconv[i, m])
                       for i, image in enumerate(images))
            magnitude = sum(conv2d_valid_naive(abs(image), abs(dconv[i, m]))
                            for i, image in enumerate(images))
            assert np.all(abs(grads.conv_kernels[m] - want)
                          <= 1e-12 * magnitude), m

    def test_one_hot_probabilities_give_zero_gradients(self):
        p = nn.init_params(1, SMALL)
        rng = np.random.default_rng(1)
        _, trace = nn.forward_features(p, rng.normal(size=(1, 10, 10)))
        onehot = np.zeros((1, 3))
        onehot[0, 2] = 1.0
        grads = nn.batch_gradients(p, trace, onehot, [2])
        for name in nn.LayerStack.ARRAYS:
            assert not getattr(grads, name).any()

    def test_out_bias_gradient_is_probability_residual(self):
        p = nn.init_params(6, SMALL)
        rng = np.random.default_rng(6)
        _, trace, probs = forward_batch(p, rng.normal(size=(1, 10, 10)))
        grads = nn.batch_gradients(p, trace, probs, [0])
        expected = probs[0].copy()
        expected[0] -= 1.0
        assert np.allclose(grads.out_bias, expected, atol=1e-15)

    def test_shape_mismatch_detected(self):
        p = nn.init_params(1, SMALL)
        rng = np.random.default_rng(1)
        _, trace = nn.forward_features(p, rng.normal(size=(1, 10, 10)))
        with pytest.raises(CorruptionError):
            nn.batch_gradients(p, trace, np.ones((1, 4)) / 4, [1])
        with pytest.raises(CorruptionError):   # one label short
            nn.batch_gradients(p, trace, np.ones((1, 3)) / 3, [])

    @pytest.mark.parametrize("label", [1, np.int64(1), np.array(1)],
                             ids=["int", "numpy-int", "0-d-array"])
    def test_scalar_label_is_the_label_rule_error(self, label):
        # a scalar used to raise a bare TypeError from len()
        p = nn.init_params(1, SMALL)
        rng = np.random.default_rng(1)
        _, trace, probs = forward_batch(p, rng.normal(size=(1, 10, 10)))
        with pytest.raises(DimensionError,
                           match=re.escape("labels must have 1 axes, got "
                                           "shape ()")):
            nn.batch_gradients(p, trace, probs, label)

    def test_label_count_misfit_comes_before_the_dtype(self):
        p = nn.init_params(1, SMALL)
        rng = np.random.default_rng(1)
        _, trace, probs = forward_batch(p, rng.normal(size=(2, 10, 10)))
        with pytest.raises(CorruptionError, match="1 labels do not match 2"):
            nn.batch_gradients(p, trace, probs, [0.5])
        with pytest.raises(ConfigurationError, match="must be integers"):
            nn.batch_gradients(p, trace, probs, [0.5, 1.0])

    def test_gradcheck_small_instances(self):
        for seed in range(3):
            result = check_instance(seed, arch=SMALL, coords_per_array=4)
            assert result.max_rel_error < 1e-4, (seed, result)

    def test_gradcheck_resamples_across_pooling_flips(self):
        # at the default step this instance has conv coordinates whose probe
        # interval changes a pooling winner; the checker must draw past them
        # instead of comparing a difference quotient taken across the kink
        result = check_instance(14, coords_per_array=6)
        assert result.max_rel_error < 1e-4, result


class TestBackwardFromFeature:
    def test_clone_equal_to_parent_matches_backward(self):
        # a clone identical to its parent contributes exactly the parent's
        # own gradient, so the batch gradient doubles (bit for bit)
        p = nn.init_params(8, SMALL)
        rng = np.random.default_rng(8)
        features, trace, probs = forward_batch(p, rng.normal(size=(1, 10, 10)))
        plain = nn.batch_gradients(p, trace, probs, [1])
        doubled = nn.batch_gradients(p, trace, probs, [1],
                                     features[:1].copy(), np.array([0]))
        for name in nn.LayerStack.ARRAYS:
            assert np.array_equal(2.0 * getattr(plain, name),
                                  getattr(doubled, name))

    def test_width_mismatch(self):
        p = nn.init_params(8, SMALL)
        rng = np.random.default_rng(8)
        _, trace, probs = forward_batch(p, rng.normal(size=(1, 10, 10)))
        with pytest.raises(DimensionError):
            nn.batch_gradients(p, trace, probs, [0], np.zeros((1, 5)),
                               np.array([0]))
        with pytest.raises(DimensionError):   # one parent short
            nn.batch_gradients(p, trace, probs, [0], np.zeros((2, 6)),
                               np.array([0]))

    @pytest.mark.parametrize("parent", [-1, 2])
    def test_parent_outside_batch_rejected(self, parent):
        # parent -1 used to be added into the last row; parent 2 raised
        # IndexError from np.add.at
        p = nn.init_params(8, SMALL)
        rng = np.random.default_rng(8)
        features, trace, probs = forward_batch(p, rng.normal(size=(2, 10, 10)))
        with pytest.raises(ConfigurationError, match=f"parent {parent} "):
            nn.batch_gradients(p, trace, probs, [0, 1],
                               features[1:].copy(), np.array([parent]))

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_no_clones_equal_empty_clone_arrays(self, n):
        # without clones the gradients are those of empty clone arrays, and
        # of the full-map reference, byte for byte; the caller's
        # probabilities stay as they were
        p = nn.init_params(n, SMALL)
        rng = np.random.default_rng(n)
        images = rng.normal(size=(n, 10, 10))
        features, trace, probs = forward_batch(p, images)
        labels = rng.integers(0, SMALL.num_classes, size=n)
        empty = clones_near(features, [], rng)
        kept = probs.copy()
        want = full_map_gradients(p, images, trace, probs, labels, *empty)
        assert_same_bytes(nn.batch_gradients(p, trace, probs, labels), want)
        assert_same_bytes(nn.batch_gradients(p, trace, probs, labels, *empty),
                          want)
        assert probs.tobytes() == kept.tobytes()

    def test_confident_clone_nearly_zero_gradient(self):
        p = nn.init_params(2, SMALL)
        rng = np.random.default_rng(2)
        _, trace = nn.forward_features(p, rng.normal(size=(1, 10, 10)))
        # scale the output weights so the clone is classified with certainty
        p.out_weights *= 50.0
        feature = trace.feature[0]
        probs = nn.forward_output(p, trace.feature)
        label = int(np.argmax(probs))
        grads = nn.batch_gradients(p, trace, probs, [label],
                                   feature[None], np.array([0]))
        assert np.abs(grads.out_bias).max() < 1e-6


class TestSgdStep:
    def test_zero_rate_is_identity(self):
        p = nn.init_params(4, SMALL)
        g = zeros_like(p)
        g.fc1_weights += 1.0
        q = nn.sgd_step(p, g, 0.0)
        for name in nn.LayerStack.ARRAYS:
            assert np.array_equal(getattr(p, name), getattr(q, name))

    def test_scalar_arithmetic(self):
        p = nn.init_params(4, SMALL)
        p.out_bias[:] = 1.0
        g = zeros_like(p)
        g.out_bias[:] = 2.0
        q = nn.sgd_step(p, g, 0.1)
        assert np.allclose(q.out_bias, 0.8, atol=1e-15)

    def test_does_not_mutate_input(self):
        p = nn.init_params(4, SMALL)
        rng = np.random.default_rng(4)
        g = nn.LayerStack(*(rng.normal(size=getattr(p, name).shape)
                            for name in nn.LayerStack.ARRAYS))
        before = [getattr(s, name).copy() for s in (p, g)
                  for name in nn.LayerStack.ARRAYS]
        nn.sgd_step(p, g, 0.5)
        after = [getattr(s, name) for s in (p, g)
                 for name in nn.LayerStack.ARRAYS]
        for old, new in zip(before, after):
            assert old.tobytes() == new.tobytes()

    @given(st.integers(0, 2**31 - 1),
           st.sampled_from([0.0, 0.1, 0.37, 1e-3, -2.5]))
    @settings(max_examples=20, deadline=None)
    def test_equals_the_formula_bit_for_bit(self, seed, rate):
        rng = np.random.default_rng(seed)
        p = nn.init_params(seed, SMALL)
        g = nn.LayerStack(*(rng.normal(scale=10.0, size=getattr(p, name).shape)
                            for name in nn.LayerStack.ARRAYS))
        q = nn.sgd_step(p, g, rate)
        for name in nn.LayerStack.ARRAYS:
            want = getattr(p, name) - rate * getattr(g, name)
            assert getattr(q, name).tobytes() == want.tobytes(), name

    def test_descends_quadratic(self):
        # repeated steps on loss 0.5*||w||^2 must shrink the parameters
        p = nn.init_params(4, SMALL)
        for _ in range(50):
            g = nn.LayerStack(*[np.array(getattr(p, n), copy=True)
                                for n in nn.LayerStack.ARRAYS])
            p = nn.sgd_step(p, g, 0.1)
        assert np.abs(p.fc1_weights).max() < 1e-2


def tiny_batch(arch, n, seed):
    rng = np.random.default_rng(seed)
    images = rng.normal(scale=0.5, size=(n, arch.image_size, arch.image_size))
    labels = rng.integers(0, arch.num_classes, size=n).astype(np.int64)
    return images, labels


class TestTrainEpoch:
    def test_zero_learning_rate_never_changes_parameters(self):
        p = nn.init_params(10, SMALL)
        images, labels = tiny_batch(SMALL, 8, 0)
        batches = [(images[:4], labels[:4]), (images[4:], labels[4:])]
        q, err1 = nn.train_epoch(p, batches, 0.0)
        _, err2 = nn.train_epoch(q, batches, 0.0)
        for name in nn.LayerStack.ARRAYS:
            assert np.array_equal(getattr(p, name), getattr(q, name))
        assert err1 == err2

    def test_empty_batches_rejected(self):
        p = nn.init_params(10, SMALL)
        with pytest.raises(ConfigurationError):
            nn.train_epoch(p, [], 0.1)

    def test_deterministic(self):
        images, labels = tiny_batch(SMALL, 8, 3)
        out = []
        for _ in range(2):
            p = nn.init_params(11, SMALL)
            q, err = nn.train_epoch(p, [(images, labels)], 0.05)
            out.append((q, err))
        assert out[0][1] == out[1][1]
        for name in nn.LayerStack.ARRAYS:
            assert np.array_equal(getattr(out[0][0], name),
                                  getattr(out[1][0], name))

    def test_disabled_cloning_hook_equals_no_hook(self):
        images, labels = tiny_batch(SMALL, 8, 5)
        p1 = nn.init_params(12, SMALL)
        p2 = nn.init_params(12, SMALL)
        hook = ClonalExpander(CloneConfig(eta=0.0, memory_capacity=4, rng_seed=0))
        q1, e1 = nn.train_epoch(p1, [(images, labels)], 0.05)
        q2, e2 = nn.train_epoch(p2, [(images, labels)], 0.05, hook)
        assert e1 == e2
        for name in nn.LayerStack.ARRAYS:
            assert np.array_equal(getattr(q1, name), getattr(q2, name))

    def test_fused_clone_pass_matches_per_clone_backward(self):
        # summing clone errors per parent before one lower pass must equal
        # averaging a separate backward pass for every contribution
        arch = SMALL
        images, labels = tiny_batch(arch, 4, 7)
        rng = np.random.default_rng(7)
        offsets = {0: [rng.normal(scale=0.2, size=arch.feature_width)],
                   2: [rng.normal(scale=0.2, size=arch.feature_width),
                       rng.normal(scale=0.2, size=arch.feature_width)]}

        def hook(features, labs):
            parents = [parent for parent, offs in offsets.items()
                       for _ in offs]
            rows = [features[parent] + off
                    for parent, offs in offsets.items() for off in offs]
            return Clones(np.array(rows), np.array(parents),
                          np.zeros(len(parents)))

        p = nn.init_params(13, arch)
        fused, _ = nn.train_epoch(p, [(images, labels)], 0.2, hook)

        # one 1-row backward pass per contribution: a clone replays its
        # parent's trace with its own feature fed to the output layer
        contributions = []   # (1-row trace, label)
        for img, lab in zip(images, labels):
            _, trace = nn.forward_features(p, img[None])
            contributions.append((trace, int(lab)))
        for parent, offs in offsets.items():
            trace, lab = contributions[parent]
            contributions += [
                (dataclasses.replace(trace, feature=trace.feature + off), lab)
                for off in offs]

        total = zeros_like(p)
        for trace, lab in contributions:
            grads = nn.batch_gradients(p, trace,
                                       nn.forward_output(p, trace.feature), [lab])
            for name in nn.LayerStack.ARRAYS:
                getattr(total, name)[...] += getattr(grads, name)
        total.scale_(1.0 / len(contributions))
        manual = nn.sgd_step(p, total, 0.2)

        for name in nn.LayerStack.ARRAYS:
            assert np.allclose(getattr(fused, name), getattr(manual, name),
                               atol=1e-12, rtol=0), name

    @pytest.mark.parametrize("num_images", [2, 4])
    def test_batch_count_mismatch_names_the_batch(self, num_images):
        # 3 labels with 4 images used to train on the first 3 pairs, and with
        # 2 images counted the missing third as a mistake
        p = nn.init_params(18, SMALL)
        images, labels = tiny_batch(SMALL, 8, 11)
        batches = [(images[:4], labels[:4]),
                   (images[4:4 + num_images], labels[4:7])]
        with pytest.raises(DimensionError, match=r"^batch 2: "):
            nn.train_epoch(p, batches, 0.1)

    @pytest.mark.parametrize("label", [-1, 3])
    def test_label_outside_classes_rejected(self, label):
        # label -1 used to train silently as the last class
        p = nn.init_params(19, SMALL)
        images, labels = tiny_batch(SMALL, 4, 12)
        labels[2] = label
        with pytest.raises(ConfigurationError):
            nn.train_epoch(p, [(images, labels)], 0.1)

    def test_bad_label_changes_no_pool_draw_or_parameter(self):
        # a label outside the classes used to reach the clonal hook before
        # any check: the hook bootstrapped a pool for it and advanced its
        # generator, and only then did the backward raise
        p = nn.init_params(20, SMALL)
        images, labels = tiny_batch(SMALL, 6, 13)
        hook = ClonalExpander(CloneConfig(memory_capacity=4, rng_seed=2))
        p, _ = nn.train_epoch(p, [(images, labels)], 0.1, hook)
        pools = dict(hook.pools)
        state = hook.rng.bit_generator.state
        before = {name: getattr(p, name).copy()
                  for name in nn.LayerStack.ARRAYS}
        with pytest.raises(ConfigurationError, match="label outside") as err:
            nn.train_epoch(p, [(images[:2], np.array([0, 7]))], 0.1, hook)
        assert hook.pools.keys() == pools.keys()
        assert all(hook.pools[label] is pools[label] for label in pools)
        assert hook.rng.bit_generator.state == state
        for name, array in before.items():
            assert getattr(p, name).tobytes() == array.tobytes(), name
        assert str(err.value).startswith("batch 1: ")

    @pytest.mark.parametrize("labels", [
        np.array([0.0, 1.7]), np.array([0.0, 1.0]), [0.0, 1.0],
        np.array([False, True]),
    ], ids=["fraction", "whole-floats", "float-list", "bool"])
    def test_non_integer_labels_rejected(self, labels):
        # float labels used to be cast to intp, so 1.7 trained as class 1
        p = nn.init_params(21, SMALL)
        images, _ = tiny_batch(SMALL, 2, 14)
        message = "labels must be integers"
        with pytest.raises(ConfigurationError, match=message):
            nn.train_epoch(p, [(images, labels)], 0.1)
        _, trace, probs = forward_batch(p, images)
        with pytest.raises(ConfigurationError, match=message):
            nn.batch_gradients(p, trace, probs, labels)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int8, np.uint16, np.int32,
                                       np.uint64, np.intp])
    def test_integer_labels_of_any_width_train_alike(self, dtype):
        # the IDX files' labels are uint8
        images, labels = tiny_batch(SMALL, 8, 15)
        want, want_err = nn.train_epoch(nn.init_params(22, SMALL),
                                        [(images, labels)], 0.1)
        got, got_err = nn.train_epoch(nn.init_params(22, SMALL),
                                      [(images, labels.astype(dtype))], 0.1)
        assert got_err == want_err
        assert_same_bytes(got, want)

    @pytest.mark.parametrize("with_hook", [False, True],
                             ids=["plain", "clonal"])
    def test_steady_batch_enters_no_numpy_python_helpers(
            self, with_hook, numpy_helpers_entered):
        # numpy helpers written in Python (np.sum, np.moveaxis, the
        # ndarray.sum/all/max wrappers, np.full, np.flatnonzero) cost more
        # per batch than the arithmetic they wrap, so the training step
        # keeps to C entry points
        arch = nn.ArchConfig()
        images, labels = tiny_batch(arch, 8, 16)
        hook = (ClonalExpander(CloneConfig(rng_seed=3)) if with_hook
                else None)
        # the first batch bootstraps the pools of every label in the batch
        p, _ = nn.train_epoch(nn.init_params(23, arch), [(images, labels)],
                              0.05, hook)
        _, entered = numpy_helpers_entered(
            lambda: nn.train_epoch(p, [(images, labels)], 0.05, hook))
        assert entered == set()

    def test_divergence_names_the_batch(self):
        p = nn.init_params(17, SMALL)
        images, labels = tiny_batch(SMALL, 24, 10)
        batches = [(images[i:i + 8], labels[i:i + 8]) for i in (0, 8, 16)]
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DivergenceError, match=r"^batch [123]:"):
            nn.train_epoch(p, batches, 1e308)

    def test_error_rate_counts_pre_update_mistakes(self):
        p = nn.init_params(14, SMALL)
        images, labels = tiny_batch(SMALL, 6, 9)
        expected = np.mean([nn.predict(p, img) != int(lab)
                            for img, lab in zip(images, labels)])
        _, err = nn.train_epoch(p, [(images, labels)], 0.05)
        assert err == expected

    def test_loss_decreases_on_tiny_problem(self):
        arch = SMALL
        images, labels = tiny_batch(arch, 12, 21)
        p = nn.init_params(15, arch)
        first = None
        for _ in range(25):
            p, err = nn.train_epoch(p, [(images, labels)], 0.1)
            if first is None:
                first = err
        assert err <= first


class TestEvaluate:
    @pytest.mark.parametrize("n", [
        1, nn.EVAL_CHUNK - 1, nn.EVAL_CHUNK, nn.EVAL_CHUNK + 1,
        2 * nn.EVAL_CHUNK + 3,
    ], ids=["one", "chunk-1", "chunk", "chunk+1", "2chunks+3"])
    def test_matches_predict(self, n):
        p = nn.init_params(16, SMALL)
        images, labels = tiny_batch(SMALL, n, 1)
        oracle = np.array([
            np.argmax(nn.forward_output(p, nn.forward_features(p, img)[0]))
            for img in images])
        singles = [nn.predict(p, img) for img in images]
        assert all(type(label) is int for label in singles)
        assert singles == oracle.tolist()
        stacked = nn.predict(p, images)
        assert stacked.shape == (n,) and stacked.dtype.kind == "i"
        assert np.array_equal(stacked, oracle)
        assert nn.evaluate(p, images, labels) == np.mean(oracle != labels)
        # every image is scored once, against its own label
        assert nn.evaluate(p, images, oracle) == 0.0
        assert nn.evaluate(p, images, (oracle + 1) % SMALL.num_classes) == 1.0

    def test_empty_sample_set_rejected(self):
        p = nn.init_params(16, SMALL)
        with pytest.raises(ConfigurationError):
            nn.evaluate(p, np.zeros((0, 10, 10)), np.zeros(0, dtype=np.int64))

    @pytest.mark.parametrize("num_images", [2, 4])
    def test_count_mismatch_rejected(self, num_images):
        p = nn.init_params(16, SMALL)
        images, labels = tiny_batch(SMALL, 4, 2)
        with pytest.raises(DimensionError):
            nn.evaluate(p, images[:num_images], labels[:3])

    @pytest.mark.parametrize("bad", [[SMALL.num_classes, 1], [-1, 1],
                                     [0.5, 1.0]],
                             ids=["above", "negative", "fractional"])
    def test_labels_outside_the_classes_rejected(self, bad):
        # each used to count as a miss without a word
        p = nn.init_params(16, SMALL)
        images, _ = tiny_batch(SMALL, 2, 3)
        with pytest.raises(ConfigurationError, match="label"):
            nn.evaluate(p, images, bad)
