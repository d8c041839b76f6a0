import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from clonalnet import tensor
from clonalnet.errors import CorruptionError, DimensionError
from clonalnet.tensor import (
    Windows,
    conv2d_valid,
    conv2d_valid_naive,
    dense,
    dense_backward,
    dense_naive,
    maxpool2,
    maxpool2_backward,
    maxpool2_naive,
)


def central_diff(f, x, step=1e-5):
    """Central finite differences of scalar f at every coordinate of x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp = x.copy()
        xm = x.copy()
        xp[idx] += step
        xm[idx] -= step
        grad[idx] = (f(xp) - f(xm)) / (2 * step)
    return grad


def rel_err(a, b, floor=1e-8):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(floor, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


class TestConv2dValid:
    def test_all_ones(self):
        out = conv2d_valid(np.ones((3, 3)), np.ones((2, 2)))
        assert out.shape == (2, 2)
        assert np.all(out == 4.0)

    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        img = rng.normal(size=(5, 5))
        out = conv2d_valid(img, np.array([[1.0]]))
        np.testing.assert_array_equal(out, img)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(7)
        img = rng.normal(size=(6, 6))
        ker = rng.normal(size=(3, 3))
        fast = conv2d_valid(img, ker)
        slow = conv2d_valid_naive(img, ker)
        assert rel_err(fast, slow) < 1e-12

    def test_kernel_too_large(self):
        with pytest.raises(DimensionError, match=r"\(4, 4\).*\(3, 3\)"):
            conv2d_valid(np.ones((3, 3)), np.ones((4, 4)))

    def test_windows_reject_bad_shapes(self):
        with pytest.raises(DimensionError, match=r"\(4, 4\).*\(3, 3\)"):
            Windows(np.ones((3, 3)), (4, 4))
        with pytest.raises(DimensionError):
            Windows(np.ones(3), (1, 1))
        with pytest.raises(DimensionError):
            Windows(np.ones((3, 3)), (2,))

    @given(st.integers(0, 2**31 - 1), st.floats(-3, 3))
    @settings(max_examples=30, deadline=None)
    def test_bilinear(self, seed, scale):
        rng = np.random.default_rng(seed)
        x1 = rng.normal(size=(5, 6))
        x2 = rng.normal(size=(5, 6))
        k = rng.normal(size=(3, 2))
        lhs = conv2d_valid(scale * x1 + x2, k)
        rhs = scale * conv2d_valid(x1, k) + conv2d_valid(x2, k)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestConv2dBackward:
    # the kernel gradient of sum(conv2d_valid(img, k) * g) is
    # conv2d_valid(img, g); the network's backward pass relies on it

    def test_zero_grad_out(self):
        rng = np.random.default_rng(1)
        img = rng.normal(size=(5, 5))
        assert np.all(conv2d_valid(img, np.zeros((4, 4))) == 0)

    def test_scalar_kernel(self):
        rng = np.random.default_rng(2)
        img = rng.normal(size=(4, 4))
        g = rng.normal(size=(4, 4))
        gk = conv2d_valid(img, g)
        assert gk.shape == (1, 1)
        assert np.isclose(gk[0, 0], np.sum(g * img))

    def test_finite_differences(self):
        rng = np.random.default_rng(3)
        img = rng.normal(size=(6, 6))
        ker = rng.normal(size=(3, 3))
        g = rng.normal(size=(4, 4))
        num_gk = central_diff(lambda k: np.sum(conv2d_valid(img, k) * g), ker)
        assert rel_err(conv2d_valid(img, g), num_gk) < 1e-6


class TestMaxpool2:
    def test_single_block(self):
        out, argmax = maxpool2(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert out[0, 0] == 4.0
        assert argmax[0, 0] == 3

    def test_constant_tie_break(self):
        out, argmax = maxpool2(np.full((4, 4), 7.0))
        assert np.all(out == 7.0)
        # top-left of each block, flat indices in a 4-wide array
        np.testing.assert_array_equal(argmax, [[0, 2], [8, 10]])

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(11)
        img = rng.normal(size=(8, 8))
        out, argmax = maxpool2(img)
        out_n, argmax_n = maxpool2_naive(img)
        np.testing.assert_array_equal(out, out_n)
        np.testing.assert_array_equal(argmax, argmax_n)

    def test_odd_extent_rejected(self):
        with pytest.raises(DimensionError):
            maxpool2(np.ones((5, 4)))

    # (map, pooled value, argmax) with the block's first NaN, or first of the
    # tied infinities, winning
    NON_FINITE_BLOCKS = {
        "nan_upper_left": ([[np.nan, 1.0], [2.0, 0.0]], [np.nan], [0]),
        "nan_upper_right": ([[1.0, np.nan], [2.0, 0.0]], [np.nan], [1]),
        "nan_lower_left": ([[1.0, 3.0], [np.nan, 0.0]], [np.nan], [2]),
        "nan_lower_right": ([[1.0, 3.0], [2.0, np.nan]], [np.nan], [3]),
        "nan_after_the_max": ([[np.inf, 1.0], [np.nan, np.nan]], [np.nan], [2]),
        "all_nan": ([[np.nan, np.nan], [np.nan, np.nan]], [np.nan], [0]),
        "all_minus_inf": ([[-np.inf, -np.inf], [-np.inf, -np.inf]], [-np.inf], [0]),
        "all_inf_then_all_minus_inf": ([[np.inf, np.inf, -np.inf, -np.inf],
                                        [np.inf, np.inf, -np.inf, -np.inf]],
                                       [np.inf, -np.inf], [0, 2]),
    }

    @pytest.mark.parametrize("case", sorted(NON_FINITE_BLOCKS))
    def test_non_finite_blocks_on_both_kernels(self, case):
        image, value, index = self.NON_FINITE_BLOCKS[case]
        for kernel in (maxpool2, maxpool2_naive):
            out, argmax = kernel(np.array(image))
            np.testing.assert_array_equal(out, [value], err_msg=kernel.__name__)
            np.testing.assert_array_equal(argmax, [index], err_msg=kernel.__name__)
            # the argmax is one that the backward pass takes
            maxpool2_backward(argmax, np.ones(argmax.shape))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_outputs_are_input_entries(self, seed):
        rng = np.random.default_rng(seed)
        img = rng.normal(size=(6, 8))
        out, argmax = maxpool2(img)
        np.testing.assert_array_equal(out.ravel(), img.ravel()[argmax.ravel()])


class TestMaxpool2Backward:
    def test_ones_route_one_per_block(self):
        rng = np.random.default_rng(4)
        img = rng.normal(size=(6, 6))
        _, argmax = maxpool2(img)
        gi = maxpool2_backward(argmax, np.ones((3, 3)))
        assert gi.shape == (6, 6)
        assert np.sum(gi != 0) == 9
        blocks = gi.reshape(3, 2, 3, 2).sum(axis=(1, 3))
        np.testing.assert_array_equal(blocks, np.ones((3, 3)))

    def test_zero_grad(self):
        _, argmax = maxpool2(np.arange(16.0).reshape(4, 4))
        assert np.all(maxpool2_backward(argmax, np.zeros((2, 2))) == 0)

    def test_finite_differences(self):
        rng = np.random.default_rng(5)
        img = rng.normal(size=(6, 6))
        g = rng.normal(size=(3, 3))
        _, argmax = maxpool2(img)
        gi = maxpool2_backward(argmax, g)
        num = central_diff(lambda x: np.sum(maxpool2(x)[0] * g), img)
        assert rel_err(gi, num) < 1e-6

    def test_corrupt_indices(self):
        _, argmax = maxpool2(np.ones((4, 4)))
        bad = argmax.copy()
        bad[0, 0] = 99
        with pytest.raises(CorruptionError):
            maxpool2_backward(bad, np.ones((2, 2)))


# leading axes of the stacks the kernels are fed: one map, a batch, and
# two stack axes
LEADS = st.sampled_from([(1,), (8,), (2, 3)])


def random_stack(rng, lead):
    """A map stack of small integers, half of them jittered, so many 2x2
    blocks hold ties; a third of the entries are 0.0, -0.0, inf or -inf, so
    zeros of either sign and equal infinities tie too; its first map is
    constant, so all its blocks tie."""
    h, w = 2 * rng.integers(1, 7), 2 * rng.integers(1, 7)
    stack = rng.integers(-2, 2, size=(*lead, h, w)).astype(np.float64)
    jitter = rng.random(stack.shape) < 0.5
    stack[jitter] += rng.normal(scale=0.1, size=jitter.sum())
    special = rng.random(stack.shape) < 1 / 3
    stack[special] = rng.choice([0.0, -0.0, np.inf, -np.inf], size=special.sum())
    stack.reshape(-1, h, w)[0] = 1.5
    return stack


# non-contiguous views equal to a stack, one per way a layout can differ
VIEWS = {
    "transposed": lambda s: np.swapaxes(s, -1, -2),
    "reversed_rows": lambda s: s[..., ::-1, :],
    "every_other_column": lambda s: np.repeat(s, 2, axis=-1)[..., ::2],
    "fortran_order": np.asfortranarray,
}


def read_only(a):
    a.flags.writeable = False
    return a


# the layouts a Windows input may come in, equal to the stack each is built
# from
WINDOW_LAYOUTS = {
    "c_contiguous": lambda s: s,
    "sliced": VIEWS["every_other_column"],
    "fortran_order": VIEWS["fortran_order"],
    "read_only": read_only,
}


def naive_per_map(stack):
    maps = stack.reshape(-1, *stack.shape[-2:])
    out, argmax = zip(*(maxpool2_naive(m) for m in maps))
    lead = stack.shape[:-2]
    return (np.stack(out).reshape(*lead, *out[0].shape),
            np.stack(argmax).reshape(*lead, *argmax[0].shape))


class TestMaxpool2Stack:
    @given(st.integers(0, 2**31 - 1), LEADS)
    @settings(max_examples=30, deadline=None)
    def test_matches_naive_per_map(self, seed, lead):
        stack = random_stack(np.random.default_rng(seed), lead)
        out, argmax = maxpool2(stack)
        out_n, argmax_n = naive_per_map(stack)
        assert out.tobytes() == out_n.tobytes()
        assert argmax.dtype == np.int64
        np.testing.assert_array_equal(argmax, argmax_n)

    @given(st.integers(0, 2**31 - 1), LEADS)
    @settings(max_examples=30, deadline=None)
    def test_backward_routes_per_map(self, seed, lead):
        rng = np.random.default_rng(seed)
        stack = random_stack(rng, lead)
        _, argmax_n = naive_per_map(stack)
        g = rng.normal(size=argmax_n.shape)
        h, w = stack.shape[-2:]
        expected = np.zeros((stack.size // (h * w), h * w))
        for row, am, gm in zip(expected, argmax_n.reshape(len(expected), -1),
                               g.reshape(len(expected), -1)):
            row[am] = gm
        gi = maxpool2_backward(maxpool2(stack)[1], g)
        assert gi.tobytes() == expected.reshape(stack.shape).tobytes()

    @given(st.integers(0, 2**31 - 1), LEADS)
    @settings(max_examples=30, deadline=None)
    def test_nan_blocks_match_naive_per_map(self, seed, lead):
        rng = np.random.default_rng(seed)
        stack = random_stack(rng, lead)
        nan = rng.random(stack.shape) < 0.2
        stack[nan] = rng.choice([np.nan, -np.nan], size=nan.sum())
        out, argmax = maxpool2(stack)
        out_n, argmax_n = naive_per_map(stack)
        assert out.tobytes() == out_n.tobytes()
        np.testing.assert_array_equal(argmax, argmax_n)
        blocks = np.isnan(stack).reshape(*argmax.shape[:-1], 2, argmax.shape[-1], 2)
        np.testing.assert_array_equal(np.isnan(out), blocks.any(axis=(-3, -1)))

    @given(st.integers(0, 2**31 - 1), LEADS, st.sampled_from(sorted(VIEWS)))
    @settings(max_examples=30, deadline=None)
    def test_non_contiguous_input_pools_as_its_copy(self, seed, lead, view):
        stack = VIEWS[view](random_stack(np.random.default_rng(seed), lead))
        one_map = stack[(0,) * (stack.ndim - 2)]
        for maps in (stack, one_map):
            assert not maps.flags.c_contiguous
            out, argmax = maxpool2(maps)
            out_c, argmax_c = maxpool2(np.ascontiguousarray(maps))
            assert out.tobytes() == out_c.tobytes()
            assert argmax.tobytes() == argmax_c.tobytes()

    @pytest.mark.parametrize("shape", [(0, 4, 6), (4, 0), (0, 4), (3, 0, 0)])
    def test_empty_stacks_pool_to_empty_arrays(self, shape):
        out, argmax = maxpool2(np.ones(shape))
        expected = (*shape[:-2], shape[-2] // 2, shape[-1] // 2)
        assert out.shape == argmax.shape == expected
        assert out.dtype == np.float64 and argmax.dtype == np.int64

    @pytest.mark.parametrize("shape", [(0, 4, 6), (3, 0, 0), (2, 4, 0)])
    def test_empty_stacks_route_to_empty_gradients(self, shape):
        _, argmax = maxpool2(np.ones(shape))
        grad = maxpool2_backward(argmax, np.ones(argmax.shape))
        assert grad.shape == shape and grad.dtype == np.float64

    @given(st.integers(0, 2**31 - 1),
           st.lists(st.sampled_from([(8, 24, 24), (1, 4, 6), (2, 3, 6, 2),
                                     (64, 24, 24), (6, 8)]),
                    min_size=2, max_size=5))
    @settings(max_examples=20, deadline=None)
    def test_alternating_shapes_match_naive_per_map(self, seed, shapes):
        # each shape's constants come back from the cache between calls of
        # other shapes; every call still pools each map as its oracle does
        rng = np.random.default_rng(seed)
        for shape in shapes + shapes[::-1]:
            stack = rng.integers(-2, 2, size=shape).astype(np.float64)
            out, argmax = maxpool2(stack)
            out_n, argmax_n = naive_per_map(stack)
            assert out.tobytes() == out_n.tobytes()
            assert argmax.tobytes() == argmax_n.tobytes()

    def test_cached_tables_are_read_only_and_results_are_not(self):
        stack = random_stack(np.random.default_rng(5), (2, 3))
        maps, (h, w) = 6, stack.shape[-2:]
        out, argmax = maxpool2(stack)
        for table in tensor._pool_tables(maps, h, w):
            assert not table.flags.writeable
        # a caller owns what it gets back: changing it changes no later call
        assert out.flags.writeable and argmax.flags.writeable
        argmax += 1
        out[...] = np.nan
        again, argmax_again = maxpool2(stack)
        out_n, argmax_n = naive_per_map(stack)
        assert again.tobytes() == out_n.tobytes()
        assert argmax_again.tobytes() == argmax_n.tobytes()

    @pytest.mark.parametrize("shape", [(4,), (3, 5, 4), (2, 4, 3)])
    def test_bad_input_shape_rejected(self, shape):
        with pytest.raises(DimensionError):
            maxpool2(np.ones(shape))

    def test_backward_shape_mismatch_rejected(self):
        _, argmax = maxpool2(np.ones((3, 4, 4)))
        with pytest.raises(DimensionError):
            maxpool2_backward(argmax, np.ones((2, 2, 2)))
        with pytest.raises(DimensionError):
            maxpool2_backward(argmax[0, 0], np.ones(2))

    def test_index_into_the_next_map_rejected(self):
        # 16 is a valid position in the flattened stack but not in a 4x4 map
        _, argmax = maxpool2(np.ones((2, 4, 4)))
        bad = argmax.copy()
        bad[0, 1, 1] = 16
        with pytest.raises(CorruptionError):
            maxpool2_backward(bad, np.ones((2, 2, 2)))

    def test_non_integer_argmax_rejected(self):
        _, argmax = maxpool2(np.ones((2, 4, 4)))
        with pytest.raises(CorruptionError):
            maxpool2_backward(argmax.astype(np.float64), np.ones((2, 2, 2)))


def rows(stack, tail):
    """The rows of a stack as a list, each with the trailing ``tail`` axes."""
    return list(stack.reshape(-1, *stack.shape[len(stack.shape) - tail:]))


def assert_rounding_close(fast, slow, magnitude):
    """Equal up to rounding: within 1e-12 of the sum of |terms| per entry,
    so a cancelling sum is not held to a relative bound."""
    assert np.all(np.abs(fast - slow) <= 1e-12 * magnitude)


class TestStackedKernels:
    # the stack forms the network trains with: each row bit for bit equal to
    # its own call, but for dense_backward's sums and input gradients, and
    # close to the naive oracle

    @given(st.integers(0, 2**31 - 1), LEADS)
    @settings(max_examples=30, deadline=None)
    def test_conv_rows_match_per_map_calls(self, seed, lead):
        rng = np.random.default_rng(seed)
        h, w = rng.integers(1, 13, size=2)
        ker = rng.normal(size=(rng.integers(1, h + 1), rng.integers(1, w + 1)))
        stack = rng.normal(size=(*lead, h, w))
        out = conv2d_valid(stack, ker)
        assert out.shape == (*lead, h - ker.shape[0] + 1, w - ker.shape[1] + 1)
        for row, image in zip(rows(out, 2), rows(stack, 2)):
            assert row.tobytes() == conv2d_valid(image, ker).tobytes()
            assert_rounding_close(row, conv2d_valid_naive(image, ker),
                                  conv2d_valid_naive(abs(image), abs(ker)))

    @given(st.integers(0, 2**31 - 1), LEADS)
    @settings(max_examples=30, deadline=None)
    def test_conv_over_windows_matches_conv_over_maps(self, seed, lead):
        # one Windows serves several kernels of its shape, each product
        # bit for bit the call on the maps and on each map alone
        rng = np.random.default_rng(seed)
        h, w = rng.integers(1, 13, size=2)
        shape = (rng.integers(1, h + 1), rng.integers(1, w + 1))
        stack = rng.normal(size=(*lead, h, w))
        windows = Windows(stack, shape)
        assert not windows.cols.flags.writeable
        for ker in rng.normal(size=(3, *shape)):
            out = conv2d_valid(windows, ker)
            assert out.shape == windows.shape
            assert out.tobytes() == conv2d_valid(stack, ker).tobytes()
            for row, image in zip(rows(out, 2), rows(stack, 2)):
                assert row.tobytes() == conv2d_valid(image, ker).tobytes()

    @given(st.integers(0, 2**31 - 1),
           st.sampled_from([(), (1,), (3,), (2, 3), (0,), (2, 0)]),
           st.sampled_from([(5, 5), (3, 2), (1, 1)]),
           st.sampled_from(sorted(WINDOW_LAYOUTS)))
    @settings(max_examples=60, deadline=None)
    def test_windows_equal_the_sliding_window_reference(self, seed, lead,
                                                        shape, layout):
        # cols holds the sliding-window values byte for byte
        # whatever the input's layout; cols is read-only, and a view of a
        # C-contiguous input when the windows do not overlap
        rng = np.random.default_rng(seed)
        h, w = (int(e) for e in rng.integers(shape, (13, 13)))
        images = WINDOW_LAYOUTS[layout](rng.normal(size=(*lead, h, w)))
        windows = Windows(images, shape)
        oh, ow = h - shape[0] + 1, w - shape[1] + 1
        ref = sliding_window_view(images, shape, axis=(-2, -1))
        want_cols = np.moveaxis(ref, (-2, -1), (-4, -3)).reshape(
            *lead, shape[0] * shape[1], oh * ow)
        assert windows.shape == (*lead, oh, ow)
        assert windows.cols.shape == want_cols.shape
        assert not windows.cols.flags.writeable
        assert (np.ascontiguousarray(windows.cols).tobytes()
                == want_cols.tobytes())
        if shape == (1, 1) and images.flags.c_contiguous and images.size:
            assert np.shares_memory(windows.cols, images)

    @given(st.integers(0, 2**31 - 1), LEADS)
    @settings(max_examples=30, deadline=None)
    def test_kernel_not_of_the_windows_shape_rejected(self, seed, lead):
        rng = np.random.default_rng(seed)
        h, w = rng.integers(2, 13, size=2)
        shape = (int(rng.integers(1, h + 1)), int(rng.integers(1, w + 1)))
        windows = Windows(rng.normal(size=(*lead, h, w)), shape)
        for other in ((shape[0] % h + 1, shape[1]), (shape[0], shape[1] % w + 1),
                      (shape[1], shape[0])):
            if other != shape:
                with pytest.raises(DimensionError, match="does not match"):
                    conv2d_valid(windows, np.ones(other))
        with pytest.raises(DimensionError):
            conv2d_valid(windows, np.ones(shape[0] * shape[1]))

    @given(st.integers(0, 2**31 - 1), LEADS)
    @settings(max_examples=30, deadline=None)
    def test_dense_rows_match_per_vector_calls(self, seed, lead):
        rng = np.random.default_rng(seed)
        d, p = rng.integers(1, 40, size=2)
        w, b = rng.normal(size=(d, p)), rng.normal(size=d)
        stack = rng.normal(size=(*lead, p))
        out = dense(w, b, stack)
        assert out.shape == (*lead, d)
        for row, x in zip(rows(out, 1), rows(stack, 1)):
            assert row.tobytes() == dense(w, b, x).tobytes()
            assert_rounding_close(row, dense_naive(w, b, x),
                                  dense_naive(abs(w), abs(b), abs(x)))

    @given(st.integers(0, 2**31 - 1), LEADS)
    @settings(max_examples=30, deadline=None)
    def test_dense_backward_sums_rows_in_order(self, seed, lead):
        rng = np.random.default_rng(seed)
        d, p = rng.integers(1, 40, size=2)
        w = rng.normal(size=(d, p))
        xs, gs = rng.normal(size=(*lead, p)), rng.normal(size=(*lead, d))
        gw, gb, gx = dense_backward(w, xs, gs)
        per_row = [dense_backward(w, x, g)
                   for x, g in zip(rows(xs, 1), rows(gs, 1))]
        # the weight sum is one matrix product and the bias sum one numpy
        # sum, so both may add the rows in another order than row by row
        for got, part in ((gw, 0), (gb, 1)):
            terms = [row[part] for row in per_row]
            assert_rounding_close(got, sum(terms), sum(map(abs, terms)))
        # the input gradients are one matrix product over all rows, so a
        # row may differ from its own call in the last bits
        assert gx.shape == xs.shape
        for row, g in zip(rows(gx, 1), rows(gs, 1)):
            assert_rounding_close(row, dense_naive(w.T, np.zeros(p), g),
                                  dense_naive(abs(w.T), np.zeros(p), abs(g)))
        # a vector is a one-row stack, and the product sees the rows, not
        # how the leading axes group them
        x0, g0 = rows(xs, 1)[0], rows(gs, 1)[0]
        assert (dense_backward(w, x0, g0)[2].tobytes()
                == dense_backward(w, x0[None], g0[None])[2].tobytes())
        six_x, six_g = rng.normal(size=(6, p)), rng.normal(size=(6, d))
        assert (dense_backward(w, six_x.reshape(2, 3, p),
                               six_g.reshape(2, 3, d))[2].tobytes()
                == dense_backward(w, six_x, six_g)[2].tobytes())
        assert_rounding_close(
            gw, sum(np.outer(g, x) for x, g in zip(rows(xs, 1), rows(gs, 1))),
            sum(abs(np.outer(g, x)) for x, g in zip(rows(xs, 1), rows(gs, 1))))

    def test_bad_stack_shapes_rejected(self):
        with pytest.raises(DimensionError):
            conv2d_valid(np.ones(5), np.ones((1, 1)))
        with pytest.raises(DimensionError):
            conv2d_valid(np.ones((2, 3, 3)), np.ones((2, 2, 2)))
        with pytest.raises(DimensionError):
            dense(np.ones((2, 3)), np.ones(2), np.ones((4, 2)))
        with pytest.raises(DimensionError):   # rows of x and grad_out differ
            dense_backward(np.ones((2, 3)), np.ones((4, 3)), np.ones((5, 2)))
        with pytest.raises(DimensionError):
            dense_backward(np.ones((2, 3)), np.ones(3), np.ones(3))


class TestDense:
    def test_identity(self):
        x = np.array([1.0, -2.0, 3.0])
        y = dense(np.eye(3), np.zeros(3), x)
        np.testing.assert_array_equal(y, x)

    def test_zero_input_gives_bias(self):
        b = np.array([0.5, -1.5])
        y = dense(np.ones((2, 4)), b, np.zeros(4))
        np.testing.assert_array_equal(y, b)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(12)
        w = rng.normal(size=(5, 7))
        b = rng.normal(size=5)
        x = rng.normal(size=7)
        assert rel_err(dense(w, b, x), dense_naive(w, b, x)) < 1e-12

    def test_mismatch(self):
        with pytest.raises(DimensionError):
            dense(np.ones((2, 3)), np.ones(2), np.ones(4))

    def test_backward_finite_differences(self):
        rng = np.random.default_rng(13)
        w = rng.normal(size=(4, 6))
        b = rng.normal(size=4)
        x = rng.normal(size=6)
        g = rng.normal(size=4)
        gw, gb, gx = dense_backward(w, x, g)
        num_gw = central_diff(lambda m: np.sum(dense(m, b, x) * g), w)
        num_gb = central_diff(lambda v: np.sum(dense(w, v, x) * g), b)
        num_gx = central_diff(lambda v: np.sum(dense(w, b, v) * g), x)
        assert rel_err(gw, num_gw) < 1e-6
        assert rel_err(gb, num_gb) < 1e-6
        assert rel_err(gx, num_gx) < 1e-6

    @pytest.mark.parametrize("lead", [(), (2, 4)], ids=["vector", "stack"])
    def test_backward_of_a_layer_with_no_outputs(self, lead):
        # dense gives an empty vector per row; the backward used to raise
        # numpy's ValueError reshaping the empty gradient
        w, x, g = np.ones((0, 3)), np.ones(lead + (3,)), np.ones(lead + (0,))
        assert dense(w, np.ones(0), x).shape == g.shape
        gw, gb, gx = dense_backward(w, x, g)
        assert gw.shape == (0, 3) and gb.shape == (0,)
        assert gx.shape == x.shape and not gx.any()


def test_all_ops_finite_on_finite_inputs():
    rng = np.random.default_rng(21)
    img = rng.normal(size=(8, 8)) * 1e3
    ker = rng.normal(size=(3, 3)) * 1e3
    assert np.all(np.isfinite(conv2d_valid(img, ker)))
    out, argmax = maxpool2(img)
    assert np.all(np.isfinite(out))
    assert np.all(np.isfinite(maxpool2_backward(argmax, out)))
