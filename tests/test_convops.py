import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnet import convops
from dnet.errors import ShapeError
from dnet.model import DNet, DNetConfig
from dnet.convops import (
    ConvKernel,
    bilinear_upsample,
    conv2d,
    depthwise_conv2d,
    dilated_kernel_extent,
    global_avg_pool,
    max_pool,
    same_pads,
    transposed_conv,
    using_deterministic,
)
from dnet.tensor import Tensor, backward, multiply, recording, sum_all, tensor, using_dtype

from conftest import conv2d_naive, fd_full_grad, max_rel_err, zero_insert_kernel


def row(values, channels=1):
    arr = np.asarray(values, dtype=np.float32).reshape(1, 1, -1, channels)
    return tensor(arr, shape=arr.shape)


def kernel1d(values, **kw):
    w = np.asarray(values, dtype=np.float32).reshape(1, -1, 1, 1)
    return ConvKernel(tensor(w, shape=w.shape), None, **kw)


class TestConv2d:
    def test_sliding_window_hand_example(self):
        y = conv2d(row([1, 2, 3, 4, 5]), kernel1d([1, 0, -1]))
        assert y.data.ravel().tolist() == [-2.0, -2.0, -2.0]

    def test_dilated_taps_hand_example(self):
        y = conv2d(row([1, 2, 3, 4, 5]), kernel1d([1, 0, -1], dilation=2))
        assert y.data.ravel().tolist() == [-4.0]

    @pytest.mark.parametrize("dilation", [1, 2, 3, 5])
    def test_identity_kernel_any_dilation(self, dilation, rng):
        x = tensor(rng.normal(size=(1, 4, 6, 3)))
        w = np.zeros((1, 1, 3, 3), dtype=np.float32)
        w[0, 0] = np.eye(3)
        k = ConvKernel(tensor(w, shape=w.shape), None, dilation=dilation)
        assert np.array_equal(conv2d(x, k).data, x.data)

    def test_channel_mismatch_rejected(self, rng):
        x = tensor(rng.normal(size=(1, 4, 4, 2)))
        k = ConvKernel(tensor(rng.normal(size=(3, 3, 3, 1))), None)
        with pytest.raises(ShapeError):
            conv2d(x, k)

    def test_non_positive_output_rejected(self, rng):
        x = tensor(rng.normal(size=(1, 2, 2, 1)))
        k = ConvKernel(tensor(rng.normal(size=(5, 5, 1, 1))), None)
        with pytest.raises(ShapeError):
            conv2d(x, k)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical_to_naive_loop(self, dtype, rng):
        with using_dtype(dtype):
            for trial in range(20):
                h, w = rng.integers(1, 7, size=2)
                cin = int(rng.integers(1, 4))
                cout = int(rng.integers(1, 4))
                k = int(rng.integers(1, min(h, w) + 1))
                stride = int(rng.integers(1, 3))
                pads = same_pads(k)
                x = tensor(rng.normal(size=(2, h, w, cin)))
                wk = tensor(rng.normal(size=(k, k, cin, cout)))
                bias = tensor(rng.normal(size=(1, 1, 1, cout)))
                if (h + pads[0] + pads[1] - k) // stride < 0:
                    continue
                kern = ConvKernel(wk, bias, stride, 1, pads)
                got = conv2d(x, kern).data
                want = conv2d_naive(x.data, wk.data, bias.data, stride, 1, pads)
                assert np.array_equal(got, want), f"trial {trial} diverged"

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_zero_insertion_oracle_exact(self, d, rng):
        for _ in range(10):
            h, w = rng.integers(3, 7, size=2)
            cin = int(rng.integers(1, 4))
            cout = int(rng.integers(1, 3))
            x = tensor(rng.normal(size=(1, h, w, cin)))
            wk = tensor(rng.normal(size=(3, 3, cin, cout)))
            bias = tensor(rng.normal(size=(1, 1, 1, cout)))
            dilated = conv2d(x, ConvKernel(wk, bias, 1, d, same_pads(3, d)))
            inserted = tensor(zero_insert_kernel(wk.data, d))
            expanded = conv2d(x, ConvKernel(inserted, bias, 1, 1, same_pads(3, d)))
            assert np.abs(dilated.data - expanded.data).max() == 0.0

    def test_linearity_without_bias(self, rng):
        with using_dtype(np.float64):
            x = tensor(rng.normal(size=(1, 5, 5, 2)))
            y = tensor(rng.normal(size=(1, 5, 5, 2)))
            wk = ConvKernel(tensor(rng.normal(size=(3, 3, 2, 3))), None, 1, 1, same_pads(3))
            alpha, beta = 0.7, -1.3
            mixed = Tensor(alpha * x.data + beta * y.data)
            lhs = conv2d(mixed, wk).data
            rhs = alpha * conv2d(x, wk).data + beta * conv2d(y, wk).data
            assert np.abs(lhs - rhs).max() / np.abs(rhs).max() < 1e-12

    def test_fast_path_matches_to_tolerance(self, rng):
        with using_dtype(np.float64):
            x = tensor(rng.normal(size=(2, 6, 6, 3)))
            wk = ConvKernel(
                tensor(rng.normal(size=(3, 3, 3, 4))),
                tensor(rng.normal(size=(1, 1, 1, 4))),
                1, 2, same_pads(3, 2),
            )
            det = conv2d(x, wk).data
            with using_deterministic(False):
                fast = conv2d(x, wk).data
            assert np.abs(det - fast).max() < 1e-12

    def test_gradients_match_finite_differences(self, rng):
        with using_dtype(np.float64):
            for dilation in (1, 2):
                x = tensor(rng.normal(size=(1, 5, 6, 2)), requires_grad=True)
                wk = tensor(rng.normal(size=(3, 3, 2, 3)), requires_grad=True)
                bias = tensor(rng.normal(size=(1, 1, 1, 3)), requires_grad=True)
                kern = ConvKernel(wk, bias, 1, dilation, same_pads(3, dilation))
                weigh = tensor(rng.normal(size=(1, 5, 6, 3)))

                def loss_fn():
                    return sum_all(multiply(conv2d(x, kern), weigh)).item()

                with recording() as g:
                    grads = backward(sum_all(multiply(conv2d(x, kern), weigh)), g)
                for t in (x, wk, bias):
                    fd = fd_full_grad(loss_fn, t)
                    assert max_rel_err(grads[t], fd) < 1e-4

    @pytest.mark.parametrize("deterministic", [True, False])
    @pytest.mark.parametrize("k, pads", [(3, (1, 0, 2, 1)), (1, (0, 0, 0, 0))])
    def test_constant_input_gets_no_gradient(self, k, pads, deterministic, rng):
        # The rule skips the input gradient of an input that needs none; the
        # parameter gradients are the same bits either way.
        x = rng.normal(size=(2, 6, 5, 3)).astype(np.float32)
        w = tensor(rng.normal(size=(k, k, 3, 4)), requires_grad=True)
        bias = tensor(rng.normal(size=(1, 1, 1, 4)), requires_grad=True)
        kern = ConvKernel(w, bias, 1, 1, pads)
        rules = {}
        with using_deterministic(deterministic):
            for input_grad in (True, False):
                with recording() as g:
                    y = conv2d(tensor(x, requires_grad=input_grad), kern)
                rules[input_grad] = g.nodes[-1].backward
        u = rng.normal(size=y.shape).astype(np.float32)
        gx, gw, gb = rules[True](u)
        none, gw_const, gb_const = rules[False](u)
        assert gx.shape == x.shape and none is None
        assert np.array_equal(gw, gw_const) and np.array_equal(gb, gb_const)


class TestExactLayouts:
    """Both helpers of the tap-ordered forward are the naive loop, bit for bit."""

    LAYOUTS = (convops._exact_stacked, convops._exact_channel_first)

    @staticmethod
    def assert_naive_bits(exact, x, wk, bias, s, d, pads):
        want = conv2d_naive(x, wk, bias, s, d, pads)
        got = np.empty_like(want)
        got[...] = bias
        exact(convops._pad_input(x, pads), wk, d, s, got)
        assert got.dtype == want.dtype
        # Bits, not values: a negative zero must keep its sign.
        assert np.array_equal(got, want, equal_nan=True), exact.__name__
        assert np.array_equal(np.signbit(got), np.signbit(want)), exact.__name__

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical_to_naive_loop(self, dtype, rng):
        sides = set()  # whether cout < wo, over the trials
        long_sums = 0  # trials whose output elements sum more than 8 products
        for trial in range(60):
            n = int(rng.integers(1, 4))
            k, d, s = (int(v) for v in rng.integers(1, [4, 5, 3]))
            pads = tuple(int(v) for v in rng.integers(0, 3, size=4))
            kd = dilated_kernel_extent(k, d)
            h, w = (int(v) for v in rng.integers(max(kd - 4, 1), kd + 5, size=2))
            ho = (h + pads[0] + pads[1] - kd) // s + 1
            wo = (w + pads[2] + pads[3] - kd) // s + 1
            if ho < 1 or wo < 1:
                continue
            # numpy sums a contiguous run of more than 8 pairwise, so an
            # order slip shows only past 8 products per output element.
            cin = int(rng.integers(1, 17))
            cout = int(rng.integers(max(wo - 3, 1), wo + 3))
            sides.add(cout < wo)
            long_sums += k * k * cin > 8
            x = rng.normal(size=(n, h, w, cin)).astype(dtype)
            if trial % 4 == 0:
                x[tuple(rng.integers(0, x.shape))] = [np.nan, np.inf, -np.inf][trial % 3]
            wk = rng.normal(size=(k, k, cin, cout)).astype(dtype)
            bias = rng.normal(size=(1, 1, 1, cout)).astype(dtype)
            if trial % 5 == 1:  # every sum of an all-zero window is -0.0
                x[x < 1.0] = 0.0
                wk = -np.abs(wk)
                bias[...] = -0.0
            for exact in self.LAYOUTS:
                self.assert_naive_bits(exact, x, wk, bias, s, d, pads)
        assert sides == {True, False}
        assert long_sums >= 20

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "shape, k, cout",
        [
            ((1, 1, 1, 9), 1, 1),  # one output element, 9 products
            ((1, 1, 1, 40), 1, 1),  # one output element, 40 products
            ((1, 3, 3, 11), 3, 1),  # 3x3 "valid" onto one element, 99 products
            ((2, 5, 7, 12), 3, 1),  # cout == 1 over a grid
        ],
    )
    def test_single_channel_and_single_element_outputs(self, shape, k, cout, dtype, rng):
        x = (rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape[3])).astype(dtype)
        wk = rng.normal(size=(k, k, shape[3], cout)).astype(dtype)
        bias = rng.normal(size=(1, 1, 1, cout)).astype(dtype)
        for exact in self.LAYOUTS:
            self.assert_naive_bits(exact, x, wk, bias, 1, 1, (0, 0, 0, 0))

    @pytest.mark.parametrize("budget", [60, 150, 3300])
    def test_bands_and_folds_keep_the_bits(self, budget, rng, monkeypatch):
        # The (2, 5, 5, 3) output has 30 elements per row and 54 products
        # (3x3 taps x 6 channels) per element, so a stack holding every
        # product needs 55 rows. A 60-element budget makes one-row bands
        # whose 2-row stacks fold after every product; 150 makes 5-row
        # stacks that fold in the middle of a tap's channels; 3300 makes
        # bands of 2, 2 and 1 rows that each fold once. The strided, dilated
        # geometry checks the input window of each band.
        x = rng.normal(size=(2, 5, 5, 6)).astype(np.float32)
        wk = rng.normal(size=(3, 3, 6, 3)).astype(np.float32)
        bias = rng.normal(size=(1, 1, 1, 3)).astype(np.float32)
        monkeypatch.setattr(convops, "_BAND_ELEMENTS", budget)
        self.assert_naive_bits(convops._exact_stacked, x, wk, bias, 1, 1, (1, 1, 1, 1))
        self.assert_naive_bits(convops._exact_stacked, x, wk, bias, 2, 2, (3, 2, 2, 1))

    @pytest.mark.parametrize(
        "shape, cout, dilation, layout",
        [
            ((4, 64, 64, 4), 4, 1, "_exact_channel_first"),  # decoder, full resolution
            ((4, 32, 32, 16), 8, 1, "_exact_channel_first"),  # decoder, 1/2 resolution
            ((4, 8, 8, 32), 16, 1, "_exact_stacked"),  # decoder, 1/8 resolution
            ((4, 4, 4, 32), 32, 4, "_exact_stacked"),  # block 5 spatial
        ],
    )
    def test_conv2d_picks_layout_by_shape(self, shape, cout, dilation, layout, rng, monkeypatch):
        taken = []
        for exact in self.LAYOUTS:
            def spy(*args, exact=exact):
                taken.append(exact.__name__)
                exact(*args)

            monkeypatch.setattr(convops, exact.__name__, spy)
        x = tensor(rng.normal(size=shape))
        kern = ConvKernel(tensor(rng.normal(size=(3, 3, shape[3], cout))), None, 1, dilation,
                          same_pads(3, dilation))
        conv2d(x, kern)
        assert taken == [layout]


class TestDilatedKernelExtent:
    def test_rate2_extent_of_3x3(self):
        assert dilated_kernel_extent(3, 2) == 5

    def test_no_dilation_is_identity(self):
        for k in range(1, 9):
            assert dilated_kernel_extent(k, 1) == k

    def test_formula_by_hand(self):
        assert dilated_kernel_extent(3, 4) == 9

    def test_rejects_bad_input(self):
        with pytest.raises(ShapeError):
            dilated_kernel_extent(0, 1)


class TestDepthwiseSeparable:
    def test_identity_composition(self, rng):
        x = tensor(rng.normal(size=(1, 4, 4, 2)))
        dw_w = np.zeros((1, 1, 2, 1), dtype=np.float32)
        dw_w[0, 0, :, 0] = 1.0
        pw_w = np.zeros((1, 1, 2, 2), dtype=np.float32)
        pw_w[0, 0] = np.eye(2)
        dw = ConvKernel(tensor(dw_w), None)
        pw = ConvKernel(tensor(pw_w), None)
        assert np.array_equal(conv2d(depthwise_conv2d(x, dw), pw).data, x.data)

    def test_two_channel_hand_composition(self, rng):
        # dw kernels [1,1] and [1,-1]; pw sums channels.
        x = tensor(rng.normal(size=(1, 1, 5, 2)))
        dw_w = np.zeros((1, 2, 2, 1), dtype=np.float32)
        dw_w[0, :, 0, 0] = [1, 1]
        dw_w[0, :, 1, 0] = [1, -1]
        pw_w = np.ones((1, 1, 2, 1), dtype=np.float32)
        dw = ConvKernel(tensor(dw_w), None)
        pw = ConvKernel(tensor(pw_w), None)
        got = conv2d(depthwise_conv2d(x, dw), pw).data

        c0 = conv2d_naive(x.data[:, :, :, :1], dw_w[:, :, :1], None, 1, 1, (0, 0, 0, 0))
        c1 = conv2d_naive(x.data[:, :, :, 1:], dw_w[:, :, 1:], None, 1, 1, (0, 0, 0, 0))
        assert np.allclose(got[..., 0], (c0 + c1)[..., 0], atol=1e-6)

    def test_matches_diagonal_full_convolution_bitwise(self, rng):
        cin = 3
        x = tensor(rng.normal(size=(1, 5, 5, cin)))
        dw_w = tensor(rng.normal(size=(3, 3, cin, 1)))
        dw = ConvKernel(dw_w, None, 1, 1, same_pads(3))
        # Same computation as a full conv whose channel structure is diagonal.
        diag = np.zeros((3, 3, cin, cin), dtype=dw_w.dtype)
        for c in range(cin):
            diag[:, :, c, c] = dw_w.data[:, :, c, 0]
        full = ConvKernel(tensor(diag), None, 1, 1, same_pads(3))
        assert np.array_equal(depthwise_conv2d(x, dw).data, conv2d(x, full).data)

    def test_parameter_count_reduction(self):
        k, cin, cout = 3, 256, 256
        separable = k * k * cin + cin * cout
        standard = k * k * cin * cout
        assert separable == 67_840
        assert standard == 589_824
        assert separable < standard

    def test_gradients(self, rng):
        with using_dtype(np.float64):
            x = tensor(rng.normal(size=(1, 4, 4, 2)), requires_grad=True)
            dw_w = tensor(rng.normal(size=(3, 3, 2, 1)), requires_grad=True)
            dw_b = tensor(rng.normal(size=(1, 1, 1, 2)), requires_grad=True)
            pw_w = tensor(rng.normal(size=(1, 1, 2, 3)), requires_grad=True)
            dw = ConvKernel(dw_w, dw_b, 1, 2, same_pads(3, 2))
            pw = ConvKernel(pw_w, None)
            weigh = tensor(rng.normal(size=(1, 4, 4, 3)))

            def loss_fn():
                return sum_all(multiply(conv2d(depthwise_conv2d(x, dw), pw), weigh)).item()

            with recording() as g:
                grads = backward(
                    sum_all(multiply(conv2d(depthwise_conv2d(x, dw), pw), weigh)), g
                )
            for t in (x, dw_w, dw_b, pw_w):
                assert max_rel_err(grads[t], fd_full_grad(loss_fn, t)) < 1e-4


class TestMaxPool:
    def test_hand_windows(self):
        y = max_pool(row([1, 5, 2, 0, 4]), 3, 2)
        assert y.data.ravel().tolist() == [5.0, 4.0]

    def test_constant_input(self):
        x = tensor(np.full((1, 4, 4, 2), 3.25))
        assert np.all(max_pool(x, 3, 1).data == 3.25)

    def test_degenerate_window_is_identity(self, rng):
        x = tensor(rng.normal(size=(1, 3, 5, 2)))
        assert np.array_equal(max_pool(x, 1, 1).data, x.data)

    def test_tie_routes_gradient_to_first_occurrence(self):
        x = tensor([2.0, 2.0, 1.0], shape=(1, 1, 3, 1), requires_grad=True)
        with recording() as g:
            grads = backward(sum_all(max_pool(x, 3, 1)), g)
        assert grads[x].ravel().tolist() == [1.0, 0.0, 0.0]

    def test_empty_window_rejected(self, rng):
        for shape, stride in (((1, 1, 1, 1), 1), ((1, 4, 4, 2), 1), ((1, 4, 4, 2), 2)):
            with pytest.raises(ShapeError):
                max_pool(tensor(rng.normal(size=shape)), 3, stride, (0, 4, 0, 4))

    def test_empty_window_is_geometric(self, rng):
        # Rejected exactly when some window holds no data position, counted
        # by brute force over a mask of the padded extent.
        for _ in range(200):
            k, stride = (int(v) for v in rng.integers(1, [5, 4]))
            pads = tuple(int(v) for v in rng.integers(0, 6, size=4))
            h, w = (int(v) for v in rng.integers(1, 7, size=2))
            pt, pb, pl, pr = pads
            mask = np.pad(np.ones((h, w), dtype=bool), ((pt, pb), (pl, pr)))
            kh, kw = min(k, mask.shape[0]), min(k, mask.shape[1])
            ho = (mask.shape[0] - kh) // stride + 1
            wo = (mask.shape[1] - kw) // stride + 1
            empty = any(
                not mask[i * stride : i * stride + kh, j * stride : j * stride + kw].any()
                for i in range(ho) for j in range(wo)
            )
            x = tensor(np.zeros((1, h, w, 1)))
            if empty:
                with pytest.raises(ShapeError):
                    max_pool(x, k, stride, pads)
            else:
                assert max_pool(x, k, stride, pads).shape == (1, ho, wo, 1)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_passes_through(self, value):
        data = np.arange(16, dtype=np.float32).reshape(1, 4, 4, 1)
        data[0, 1, 2, 0] = value
        got = max_pool(tensor(data), 3, 1, (1, 1, 1, 1)).data
        want = np.array([[data[0, max(i - 1, 0) : i + 2, max(j - 1, 0) : j + 2].max()
                          for j in range(4)] for i in range(4)])
        assert np.array_equal(got[0, :, :, 0], want, equal_nan=True)
        assert np.isnan(value) == np.isnan(got).any()
        assert (value == np.inf) == np.isposinf(got).any()

    def test_gradient_finite_differences(self, rng):
        with using_dtype(np.float64):
            # Well-separated values keep the argmax stable under perturbation.
            values = rng.permutation(np.arange(48, dtype=np.float64)) * 0.25
            x = tensor(values.reshape(1, 6, 8, 1), requires_grad=True)
            weigh = tensor(rng.normal(size=(1, 3, 4, 1)))

            def loss_fn():
                return sum_all(multiply(max_pool(x, 3, 2, (0, 1, 0, 1)), weigh)).item()

            with recording() as g:
                grads = backward(
                    sum_all(multiply(max_pool(x, 3, 2, (0, 1, 0, 1)), weigh)), g
                )
            assert max_rel_err(grads[x], fd_full_grad(loss_fn, x, eps=1e-5)) < 1e-4

    def test_forward_matches_stack_reference(self, rng):
        # The running maximum equals taking the first maximum of the stacked
        # window taps; small integer values make ties common.
        for _ in range(40):
            k, stride = (int(v) for v in rng.integers(1, [5, 4]))
            pads = tuple(int(v) for v in rng.integers(0, k, size=4))
            h, w = (int(v) for v in rng.integers(1, 9, size=2))
            data = rng.integers(-2, 3, size=(2, h, w, 3)).astype(np.float32)
            if rng.random() < 0.5:
                data = data + rng.normal(size=data.shape).astype(np.float32)
            pt, pb, pl, pr = pads
            xp = np.pad(data, ((0, 0), (pt, pb), (pl, pr), (0, 0)), constant_values=-np.inf)
            kh, kw = min(k, xp.shape[1]), min(k, xp.shape[2])
            ho = (xp.shape[1] - kh) // stride + 1
            wo = (xp.shape[2] - kw) // stride + 1
            stack = np.stack([t for _, _, t in _taps(xp, kh, kw, 1, stride, ho, wo)], axis=-1)
            want = np.take_along_axis(stack, stack.argmax(axis=-1)[..., None], axis=-1)[..., 0]
            got = max_pool(tensor(data), k, stride, pads).data
            assert got.dtype == want.dtype and np.array_equal(got, want)


class TestTransposedConv:
    def test_hand_scatter(self):
        y = transposed_conv(row([1, 2]), kernel1d([1, 1], stride=2))
        assert y.data.ravel().tolist() == [1.0, 1.0, 2.0, 2.0]

    def test_identity(self, rng):
        x = tensor(rng.normal(size=(1, 3, 3, 1)))
        assert np.array_equal(transposed_conv(x, kernel1d([1.0])).data, x.data)

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 6, 7])
    def test_doubles_all_sizes(self, size, rng):
        x = tensor(rng.normal(size=(1, size, size, 2)))
        k = ConvKernel(tensor(rng.normal(size=(2, 2, 2, 3))), None, stride=2)
        assert transposed_conv(x, k).shape == (1, 2 * size, 2 * size, 3)

    def test_adjoint_of_conv2d(self, rng):
        # forward(transposed_conv) must equal the input gradient of conv2d
        # with the same kernel, elementwise.
        with using_dtype(np.float64):
            x = tensor(rng.normal(size=(1, 6, 6, 2)), requires_grad=True)
            w = tensor(rng.normal(size=(3, 3, 2, 4)))
            kern = ConvKernel(w, None, stride=2, padding=(1, 0, 1, 0))
            with recording() as g:
                y = conv2d(x, kern)
                upstream = tensor(rng.normal(size=y.shape))
                grads = backward(sum_all(multiply(y, upstream)), g)
            swapped = tensor(np.swapaxes(w.data, 2, 3))
            tkern = ConvKernel(swapped, None, stride=2, padding=(1, 0, 1, 0))
            adjoint = transposed_conv(upstream, tkern)
            assert adjoint.shape == x.shape
            assert np.abs(adjoint.data - grads[x]).max() < 1e-12

    def test_gradients(self, rng):
        with using_dtype(np.float64):
            x = tensor(rng.normal(size=(1, 3, 4, 2)), requires_grad=True)
            w = tensor(rng.normal(size=(2, 2, 2, 3)), requires_grad=True)
            b = tensor(rng.normal(size=(1, 1, 1, 3)), requires_grad=True)
            kern = ConvKernel(w, b, stride=2)
            weigh = tensor(rng.normal(size=(1, 6, 8, 3)))

            def loss_fn():
                return sum_all(multiply(transposed_conv(x, kern), weigh)).item()

            with recording() as g:
                grads = backward(sum_all(multiply(transposed_conv(x, kern), weigh)), g)
            for t in (x, w, b):
                assert max_rel_err(grads[t], fd_full_grad(loss_fn, t)) < 1e-4


class TestGlobalAvgPool:
    def test_hand_mean(self):
        x = tensor([1, 2, 3, 4], shape=(1, 2, 2, 1))
        assert global_avg_pool(x).item() == pytest.approx(2.5)

    def test_constant(self):
        x = tensor(np.full((2, 3, 5, 4), -1.5))
        out = global_avg_pool(x)
        assert out.shape == (2, 1, 1, 4)
        assert np.all(out.data == -1.5)

    def test_backward_uniform(self, rng):
        with using_dtype(np.float64):
            x = tensor(rng.normal(size=(1, 3, 4, 2)), requires_grad=True)
            with recording() as g:
                grads = backward(sum_all(global_avg_pool(x)), g)
            assert np.allclose(grads[x], 1.0 / 12.0)
            fd = fd_full_grad(lambda: sum_all(global_avg_pool(x)).item(), x)
            assert max_rel_err(grads[x], fd) < 1e-6


class TestBilinearUpsample:
    def test_single_pixel_constant(self):
        x = tensor([7.5], shape=(1, 1, 1, 1))
        out = bilinear_upsample(x, 4, 5)
        assert out.shape == (1, 4, 5, 1)
        assert np.all(out.data == 7.5)

    def test_same_size_identity(self, rng):
        x = tensor(rng.normal(size=(3, 1, 1, 4)))
        assert np.array_equal(bilinear_upsample(x, 1, 1).data, x.data)

    def test_gradient_finite_differences(self, rng):
        with using_dtype(np.float64):
            x = tensor(rng.normal(size=(1, 1, 1, 2)), requires_grad=True)
            weigh = tensor(rng.normal(size=(1, 6, 5, 2)))

            def loss_fn():
                return sum_all(multiply(bilinear_upsample(x, 6, 5), weigh)).item()

            with recording() as g:
                grads = backward(sum_all(multiply(bilinear_upsample(x, 6, 5), weigh)), g)
            assert max_rel_err(grads[x], fd_full_grad(loss_fn, x)) < 1e-4

    def test_rejects_unpooled_input(self):
        x = tensor([0, 2, 4, 6], shape=(1, 2, 2, 1))
        with pytest.raises(ShapeError, match=r"\(1, 2, 2, 1\)"):
            bilinear_upsample(x, 3, 3)


def corner_bilinear(x, out_h, out_w, g):
    """Bilinear resampling as four corner gathers, and its gradient for the
    upstream ``g`` as four ``np.add.at`` corner scatters."""
    def coords(n_in, n_out):
        if n_in == 1 or n_out == 1:
            return np.zeros(n_out, dtype=np.intp), np.zeros(n_out, dtype=np.intp), np.zeros(n_out)
        pos = np.arange(n_out) * (n_in - 1) / (n_out - 1)
        lo = np.minimum(np.floor(pos).astype(np.intp), n_in - 2)
        return lo, lo + 1, pos - lo

    (ylo, yhi, fy), (xlo, xhi, fx) = coords(x.shape[1], out_h), coords(x.shape[2], out_w)
    wy = ((1.0 - fy).astype(x.dtype)[:, None], fy.astype(x.dtype)[:, None])
    wx = ((1.0 - fx).astype(x.dtype)[None, :], fx.astype(x.dtype)[None, :])
    corners = [(yi, xi, (wy[a] * wx[b])[None, :, :, None])
               for a, yi in enumerate((ylo, yhi)) for b, xi in enumerate((xlo, xhi))]
    terms = [x[:, yi][:, :, xi] * w for yi, xi, w in corners]
    out = terms[0] + terms[1] + terms[2] + terms[3]
    gx = np.zeros_like(x)
    rows, cols = np.meshgrid(np.arange(out_h), np.arange(out_w), indexing="ij")
    for yi, xi, w in corners:
        np.add.at(gx, (slice(None), yi[rows], xi[cols], slice(None)), g * w)
    return out, gx


class TestBilinearMatchesCornerReference:
    """The broadcast rule against the four-corner rule."""

    @staticmethod
    def _run(data, out_h, out_w, rng):
        x = Tensor(data, requires_grad=True)
        with recording() as graph:
            y = bilinear_upsample(x, out_h, out_w)
            u = rng.normal(size=y.shape).astype(data.dtype)
            grads = backward(sum_all(multiply(y, Tensor(u))), graph)
        return (y.data, grads[x]), corner_bilinear(data, out_h, out_w, u)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_pooled_map_bit_identical(self, dtype, rng):
        # The model upsamples an (n, 1, 1, c) pooled map: every output is one
        # term and every gradient one sequential sum, so the bits agree.
        for _ in range(40):
            n, c = rng.integers(1, 4), rng.integers(1, 9)
            out_h, out_w = rng.integers(1, 40, size=2)
            data = (rng.normal(size=(n, 1, 1, c)) * 10.0 ** rng.integers(-3, 4)).astype(dtype)
            got, want = self._run(data, int(out_h), int(out_w), rng)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b)


class TestSamePads:
    def test_stride1_preserves_resolution(self, rng):
        for k in (1, 3, 5):
            for d in (1, 2, 3):
                x = tensor(rng.normal(size=(1, 6, 6, 1)))
                kern = ConvKernel(
                    tensor(rng.normal(size=(k, k, 1, 1))), None, 1, d, same_pads(k, d)
                )
                assert conv2d(x, kern).shape == x.shape

    def test_stride2_halves_even_inputs(self, rng):
        x = tensor(rng.normal(size=(1, 8, 12, 1)))
        kern = ConvKernel(
            tensor(rng.normal(size=(3, 3, 1, 1))), None, 2, 1, same_pads(3, 1, 2)
        )
        assert conv2d(x, kern).shape == (1, 4, 6, 1)


def _taps(xp: np.ndarray, kh: int, kw: int, d: int, s: int, ho: int, wo: int):
    """(a, b, view of xp read by tap (a, b)) over a kh x kw kernel."""
    for a in range(kh):
        for b in range(kw):
            yield a, b, xp[:, a * d : a * d + (ho - 1) * s + 1 : s,
                           b * d : b * d + (wo - 1) * s + 1 : s]


def _pad(x: np.ndarray, pads) -> np.ndarray:
    pt, pb, pl, pr = pads
    return np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0)))


def reference_conv2d_grads(x, w, g, stride, dilation, pads):
    """conv2d's former per-tap backward: the input gradient scatters the
    broadcast product g @ w[a, b].T of the 4-D upstream g, and the weight
    gradient is a tensordot of each tap view with g."""
    kh, kw = w.shape[:2]
    _, ho, wo, _ = g.shape
    xp = _pad(x, pads)
    gxp = np.zeros_like(xp)
    gw = np.empty_like(w)
    for (a, b, xs), (_, _, gs) in zip(_taps(xp, kh, kw, dilation, stride, ho, wo),
                                      _taps(gxp, kh, kw, dilation, stride, ho, wo)):
        gs += g @ w[a, b].T
        gw[a, b] = np.tensordot(xs, g, axes=([0, 1, 2], [0, 1, 2]))
    pt, _, pl, _ = pads
    return gxp[:, pt : pt + x.shape[1], pl : pl + x.shape[2]], gw


def reference_transposed_conv_grads(x, w, g, stride, dilation, pads):
    """The same per-tap loop for transposed_conv, conv2d's adjoint: the input
    gradient gathers tap(g) @ w[a, b].T, and gw[a, b] = x^T tap(g)."""
    kh, kw = w.shape[:2]
    _, h, wd, _ = x.shape
    gx = np.zeros_like(x)
    gw = np.empty_like(w)
    for a, b, gs in _taps(_pad(g, pads), kh, kw, dilation, stride, h, wd):
        gx += gs @ w[a, b].T
        gw[a, b] = np.tensordot(x, gs, axes=([0, 1, 2], [0, 1, 2]))
    return gx, gw


class TestGradientsMatchPerTapLoop:
    """The GEMM-shaped backward rules against the per-tap loop they replaced.

    Each element agrees with the loop to ``100 * eps`` of its dtype, relative
    to the same loop run on |x|, |w| and |g| (the sum of absolute products
    that element adds up), in both convolution modes.
    """

    # name -> (kernel, stride, dilation, pads, input shape)
    CONV2D = {
        "1x1 unit stride unpadded": (1, 1, 1, (0, 0, 0, 0), (2, 5, 6, 4)),
        "1x1 stride 2": (1, 2, 1, (0, 0, 0, 0), (2, 5, 6, 4)),
        "1x1 padded": (1, 1, 1, (1, 0, 0, 2), (2, 5, 6, 4)),
        "3x3 dilation 4 on 4x4 (block 5)": (3, 1, 4, same_pads(3, 4), (2, 4, 4, 8)),
        "3x3 stride 2 asymmetric pads": (3, 2, 1, (0, 1, 0, 1), (2, 7, 8, 3)),
        "3x3 dilation 2": (3, 1, 2, same_pads(3, 2), (1, 6, 6, 3)),
        # Padded grids at most 1.25x the output grid, so the shifted rule
        # serves these 3x3 kernels; with batch 2, some slice rows cross
        # from one image into the next.
        "3x3 batch 2 (shifted)": (3, 1, 1, same_pads(3), (2, 18, 19, 3)),
        "3x3 asymmetric pads (shifted)": (3, 1, 1, (2, 0, 0, 1), (2, 20, 20, 2)),
        "3x3 dilation 2 batch 2 (shifted)": (3, 1, 2, same_pads(3, 2), (2, 38, 40, 2)),
    }
    # The cases whose backward runs on shifted row slices: stride 1 and a
    # padded grid at most 1.25x the output grid. The others take im2col.
    SHIFTED = {
        "1x1 unit stride unpadded", "1x1 padded", "3x3 batch 2 (shifted)",
        "3x3 asymmetric pads (shifted)", "3x3 dilation 2 batch 2 (shifted)",
    }
    # name -> (kernel, stride, dilation, pads, input shape)
    TRANSPOSED = {
        "2x2 stride 2 (decoder)": (2, 2, 1, (0, 0, 0, 0), (2, 3, 4, 4)),
        "1x1 unit stride": (1, 1, 1, (0, 0, 0, 0), (2, 3, 4, 4)),
        "1x1 stride 2": (1, 2, 1, (0, 0, 0, 0), (2, 3, 4, 4)),
        "3x3 stride 2 padded": (3, 2, 1, (1, 0, 1, 1), (2, 3, 3, 2)),
        "2x2 stride 2 dilation 2": (2, 2, 2, (0, 1, 1, 0), (1, 3, 2, 3)),
    }

    @staticmethod
    def _check(op, reference, x, w, rng):
        with recording() as graph:
            y = op(x, w)
            u = tensor(rng.normal(size=y.shape))
            grads = backward(sum_all(multiply(y, u)), graph)
        expected = reference(x.data, w.data, u.data)
        scale = reference(np.abs(x.data), np.abs(w.data), np.abs(u.data))
        tol = 100 * np.finfo(x.dtype).eps
        for t, ref, bound in zip((x, w), expected, scale):
            assert grads[t].shape == ref.shape and grads[t].dtype == x.dtype
            assert np.all(np.abs(grads[t] - ref) <= tol * bound)

    @pytest.mark.parametrize("deterministic", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", sorted(CONV2D))
    def test_conv2d(self, case, dtype, deterministic, rng, monkeypatch):
        k, stride, dilation, pads, shape = self.CONV2D[case]
        taken = []
        for route in ("_shifted_grads", "_im2col_grads"):
            monkeypatch.setattr(convops, route, lambda *args, f=getattr(convops, route), r=route:
                                taken.append(r) or f(*args))
        with using_dtype(dtype), using_deterministic(deterministic):
            x = tensor(rng.normal(size=shape), requires_grad=True)
            w = tensor(rng.normal(size=(k, k, shape[3], 5)), requires_grad=True)
            self._check(
                lambda x, w: conv2d(x, ConvKernel(w, None, stride, dilation, pads)),
                lambda x, w, g: reference_conv2d_grads(x, w, g, stride, dilation, pads),
                x, w, rng,
            )
        assert taken == ["_shifted_grads" if case in self.SHIFTED else "_im2col_grads"]

    @pytest.mark.parametrize("deterministic", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", sorted(TRANSPOSED))
    def test_transposed_conv(self, case, dtype, deterministic, rng):
        k, stride, dilation, pads, shape = self.TRANSPOSED[case]
        with using_dtype(dtype), using_deterministic(deterministic):
            x = tensor(rng.normal(size=shape), requires_grad=True)
            w = tensor(rng.normal(size=(k, k, shape[3], 5)), requires_grad=True)
            self._check(
                lambda x, w: transposed_conv(x, ConvKernel(w, None, stride, dilation, pads)),
                lambda x, w, g: reference_transposed_conv_grads(x, w, g, stride, dilation, pads),
                x, w, rng,
            )


def reference_im2col_conv2d(x, w, bias, stride, dilation, pads):
    """conv2d as one GEMM over the whole im2col column matrix."""
    kh, kw, cin, cout = w.shape
    xp = _pad(x, pads)
    ho = (xp.shape[1] - dilated_kernel_extent(kh, dilation)) // stride + 1
    wo = (xp.shape[2] - dilated_kernel_extent(kw, dilation)) // stride + 1
    cols = np.concatenate([t for _, _, t in _taps(xp, kh, kw, dilation, stride, ho, wo)],
                          axis=-1)
    return (cols.reshape(-1, kh * kw * cin) @ w.reshape(-1, cout)).reshape(
        x.shape[0], ho, wo, cout
    ) + bias


def counting_row_bands(lowered: list):
    """``convops._row_bands`` that also appends each band's row count to
    ``lowered``."""
    row_bands = convops._row_bands

    def bands(ho, rows):
        for i0, i1 in row_bands(ho, rows):
            lowered.append(i1 - i0)
            yield i0, i1

    return bands


class TestBandedGemmForward:
    """The GEMM forward lowers bounded bands of output rows, one GEMM each."""

    # name -> (kernel, stride, dilation, pads, input shape); every output
    # height leaves a partial last band of three rows. A unit-stride 1x1
    # kernel reads all of the padded input, a reshape: one GEMM, no band.
    CASES = {
        "3x3 stride 2 asymmetric pads": (3, 2, 1, (0, 1, 0, 1), (2, 9, 8, 3)),
        "3x3 dilation 4 on 4x4 (block 5)": (3, 1, 4, same_pads(3, 4), (2, 4, 4, 8)),
        "3x3 dilation 2 asymmetric pads": (3, 1, 2, (2, 0, 1, 2), (1, 7, 6, 3)),
        "1x1 stride 2 batch 4": (1, 2, 1, (0, 0, 0, 0), (4, 7, 6, 4)),
        "1x1 padded batch 4": (1, 1, 1, (1, 1, 0, 2), (4, 5, 6, 4)),
        "1x1 unpadded batch 4": (1, 1, 1, (0, 0, 0, 0), (4, 5, 6, 4)),
    }

    @pytest.mark.parametrize("band_rows", [0, 3])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_whole_matrix_reference(self, case, band_rows, rng, monkeypatch):
        k, stride, dilation, pads, shape = self.CASES[case]
        n, _, _, cin = shape
        with using_dtype(np.float64):
            x = tensor(rng.normal(size=shape))
            w = tensor(rng.normal(size=(k, k, cin, 5)))
            bias = tensor(rng.normal(size=(1, 1, 1, 5)))
        kern = ConvKernel(w, bias, stride, dilation, pads)
        want = reference_im2col_conv2d(x.data, w.data, bias.data, stride, dilation, pads)
        _, ho, wo, _ = want.shape
        # band_rows 0 sets a budget below one row, which still lowers one row.
        monkeypatch.setattr(convops, "_BAND_ELEMENTS", band_rows * n * wo * k * k * cin)
        lowered = []  # output rows of each band, whichever GEMM helper runs
        monkeypatch.setattr(convops, "_row_bands", counting_row_bands(lowered))
        with using_deterministic(False):
            fast = conv2d(x, kern).data
        exact = conv2d(x, kern).data
        if k == 1 and stride == 1:
            assert lowered == []
        else:
            assert len(lowered) == math.ceil(ho / max(band_rows, 1)) and sum(lowered) == ho
        assert np.all(np.abs(fast - want) <= 1e-12 * np.abs(want).max())
        assert np.abs(exact - fast).max() < 1e-12

    def test_peak_below_half_the_whole_column_matrix(self, rng):
        x = tensor(rng.normal(size=(1, 128, 128, 64)))
        kern = ConvKernel(tensor(rng.normal(size=(3, 3, 64, 64))), None, 1, 1, same_pads(3))
        whole = 128 * 128 * 9 * 64 * x.data.itemsize
        with using_deterministic(False):
            tracemalloc.start()
            try:
                conv2d(x, kern)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < whole / 2

    def test_strided_peak_below_half_the_whole_column_matrix(self, rng, monkeypatch):
        # Stride 2 takes the im2col bands. Unpadded, so the input is not copied.
        x = tensor(rng.normal(size=(1, 257, 257, 64)))
        kern = ConvKernel(tensor(rng.normal(size=(3, 3, 64, 64))), None, 2, 1, (0, 0, 0, 0))
        whole = 128 * 128 * 9 * 64 * x.data.itemsize
        banded = []
        monkeypatch.setattr(convops, "_banded_gemm",
                            lambda *args, f=convops._banded_gemm: banded.append(f(*args)))
        with using_deterministic(False):
            tracemalloc.start()
            try:
                conv2d(x, kern)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert len(banded) == 1
        assert peak < whole / 2


class TestShiftedGemmForward:
    """The stride-1 GEMM forward reads shifted row slices of the flat padded
    input, one GEMM per tap and band, and matches the whole-matrix GEMM."""

    def test_matches_whole_matrix_reference(self, rng, monkeypatch):
        one_row = partial = 0  # trials with one-row bands, with a short last band
        lowered = []  # output rows of each band of the trial
        counting_bands = counting_row_bands(lowered)
        for trial in range(60):
            n = int(rng.integers(1, 4))
            k, d = int(rng.integers(1, 4)), int(rng.integers(1, 5))
            pads = tuple(int(v) for v in rng.integers(0, 4, size=4))
            kd = dilated_kernel_extent(k, d)
            h, w = (int(v) for v in rng.integers(max(kd - 4, 1), kd + 6, size=2))
            ho, wo = h + pads[0] + pads[1] - kd + 1, w + pads[2] + pads[3] - kd + 1
            if ho < 1 or wo < 1:
                continue
            cin, cout = (int(v) for v in rng.choice([1, 2, 3, 5, 8], size=2))
            with using_dtype(np.float64):
                x = tensor(rng.normal(size=(n, h, w, cin)))
                wk = tensor(rng.normal(size=(k, k, cin, cout)))
                bias = tensor(rng.normal(size=(1, 1, 1, cout)))
            want = reference_im2col_conv2d(x.data, wk.data, bias.data, 1, d, pads)
            # Band rows (0 stands for a budget below one row, which still
            # makes one-row bands), from the padded width the bands span.
            rows = int(rng.integers(0, 4)) if trial % 3 else ho
            wp = w + pads[2] + pads[3]
            monkeypatch.setattr(convops, "_BAND_ELEMENTS", 4 * rows * wp * cout)
            band = max(rows, 1)
            one_row += band == 1 and ho > 1
            partial += band > 1 and ho % band != 0
            got = np.empty_like(want)
            got[...] = bias.data
            lowered.clear()
            with monkeypatch.context() as m:
                m.setattr(convops, "_row_bands", counting_bands)
                convops._shifted_gemm(convops._pad_input(x.data, pads), wk.data, d, got)
            assert len(lowered) == n * math.ceil(ho / band) and sum(lowered) == n * ho
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want).max())
            exact = conv2d(x, ConvKernel(wk, bias, 1, d, pads)).data
            assert np.abs(exact - got).max() < 1e-12
        assert one_row >= 5 and partial >= 5


class TestGemmForwardRoute:
    """Which GEMM forward each conv2d of the two benchmarked GEMM-mode
    forwards takes: a full-width 576x576 predict and a full-width 64x64
    training step (batch 4). Unpadded unit-stride 1x1 kernels are one GEMM
    on a reshape; shifted row slices serve stride-1 kernels whose padded
    grid is at most 1.25x the output grid; im2col bands serve the rest:
    the strided kernels and, at 576x576, the two dilation-4 kernels on
    44x44 padded grids (1.49x), at 64x64 every layer from 1/4 resolution
    down."""

    # (ho, k, stride, dilation, cin, cout) -> conv2d calls
    SHIFTED_576 = {
        (576, 3, 1, 1, 32, 32): 2,  # decoder.refine1, refine2
        (288, 3, 1, 1, 32, 32): 1, (288, 3, 1, 1, 32, 64): 1, (288, 3, 1, 1, 128, 64): 1,
        (144, 3, 1, 1, 64, 64): 3, (144, 3, 1, 1, 128, 64): 1,
        (72, 3, 1, 1, 64, 64): 2, (72, 3, 1, 1, 256, 128): 1,
        (36, 3, 1, 1, 128, 128): 3, (36, 3, 1, 1, 256, 256): 1,
        (36, 3, 1, 2, 128, 128): 1, (36, 3, 1, 2, 256, 256): 1,
    }
    SHIFTED_64 = {
        (64, 3, 1, 1, 32, 32): 2,
        (32, 3, 1, 1, 32, 32): 1, (32, 3, 1, 1, 32, 64): 1, (32, 3, 1, 1, 128, 64): 1,
    }

    @pytest.mark.parametrize(
        "size, batch, shifted, banded", [(576, 1, SHIFTED_576, 7), (64, 4, SHIFTED_64, 20)]
    )
    def test_full_width_forwards(self, size, batch, shifted, banded, monkeypatch):
        taken = []  # [route, shape] per conv2d call
        dense = convops._dense

        def spy(xp, w, d, s, out):
            taken.append(["reshape", (out.shape[1], w.shape[0], s, d, *w.shape[2:])])
            dense(xp, w, d, s, out)

        def stub(route):  # records the route and skips the work
            return lambda *args: taken[-1].__setitem__(0, route)

        monkeypatch.setattr(convops, "_dense", spy)
        monkeypatch.setattr(convops, "_shifted_gemm", stub("shifted"))
        monkeypatch.setattr(convops, "_banded_gemm", stub("banded"))
        net = DNet(DNetConfig(channels_scale=1.0))
        with using_deterministic(False):
            net(tensor(np.zeros((batch, size, size, 3), dtype=np.float32)))
        routes = {route: Counter(shape for r, shape in taken if r == route)
                  for route in ("shifted", "banded", "reshape")}
        assert routes["shifted"] == shifted
        assert routes["banded"].total() == banded
        assert routes["reshape"].total() == 40
        assert all(k == 1 and s == 1 for _, k, s, _, _, _ in routes["reshape"])


class TestConvBackwardRoute:
    """Which backward rule each conv2d of a 64x64 training step (batch 4)
    takes, at desk scale (channels_scale 0.125, exact mode) and at full
    width (GEMM mode). The rule is the GEMM forward's shape rule, so it is
    the same in both modes. Shifted row slices serve every stride-1 kernel
    whose padded grid is at most 1.25x the output grid: the 40 unit-stride
    1x1 kernels, whose padded grid is their output grid, and the 3x3
    kernels at 1/2 and full resolution. The im2col rule serves the rest:
    the strided kernels and every 3x3 kernel from 1/4 resolution down."""

    # (ho, k, stride, dilation, cin, cout) -> conv2d calls, at full width
    SHIFTED_3X3 = {
        (64, 3, 1, 1, 32, 32): 2,  # decoder.refine1, refine2
        (32, 3, 1, 1, 32, 32): 1, (32, 3, 1, 1, 32, 64): 1, (32, 3, 1, 1, 128, 64): 1,
    }

    @pytest.mark.parametrize("scale, deterministic", [(0.125, True), (1.0, False)])
    def test_training_step(self, scale, deterministic, monkeypatch):
        taken = []  # (route, (ho, k, stride, dilation, cin, cout)) per backward rule

        def zeros(w, g, shape):  # skips the work
            return None if shape is None else np.zeros(shape, g.dtype), np.zeros_like(w)

        def spy_shifted(xp, w, d, g, shape, pads):
            taken.append(("shifted", (g.shape[1], w.shape[0], 1, d, *w.shape[2:])))
            return zeros(w, g, shape)

        def spy_im2col(xp, w, d, s, g, shape, pads):
            taken.append(("im2col", (g.shape[1], w.shape[0], s, d, *w.shape[2:])))
            return zeros(w, g, shape)

        monkeypatch.setattr(convops, "_shifted_grads", spy_shifted)
        monkeypatch.setattr(convops, "_im2col_grads", spy_im2col)
        net = DNet(DNetConfig(channels_scale=scale))
        with using_deterministic(deterministic), recording() as graph:
            backward(sum_all(net(tensor(np.zeros((4, 64, 64, 3), dtype=np.float32)))), graph)
        routes = {route: Counter(shape for r, shape in taken if r == route)
                  for route in ("shifted", "im2col")}
        shifted_3x3 = Counter({key: n for key, n in routes["shifted"].items() if key[1] == 3})
        scaled = {(*key[:4], int(key[4] * scale), int(key[5] * scale)): n
                  for key, n in self.SHIFTED_3X3.items()}
        assert shifted_3x3 == scaled
        assert routes["shifted"].total() - shifted_3x3.total() == 40
        assert all(s == 1 for _, _, s, _, _, _ in routes["shifted"])
        assert routes["im2col"].total() == 20
        assert all(s == 2 or (k == 3 and ho <= 16)
                   for ho, k, s, _, _, _ in routes["im2col"])

    def test_peak_below_half_the_whole_column_matrix(self, rng):
        x = tensor(rng.normal(size=(1, 128, 128, 32)), requires_grad=True)
        kern = ConvKernel(tensor(rng.normal(size=(3, 3, 32, 32)), requires_grad=True),
                          None, 1, 1, same_pads(3))
        whole = 128 * 128 * 9 * 32 * x.data.itemsize
        with recording() as graph:
            y = conv2d(x, kern)
        rule = graph.nodes[-1].backward
        g = rng.normal(size=y.shape).astype(y.dtype)
        tracemalloc.start()
        try:
            gx, gw = rule(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert gx.shape == x.shape and gw.shape == kern.weight.shape
        assert peak < whole / 2


def _dot(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Inner product <a, b> and the sum of |a * b|, its rounding scale."""
    prod = a * b
    return float(prod.sum()), float(np.abs(prod).sum())


class TestTapEngineAdjoint:
    """Dot-product tests of the shared tap scatter over every geometry.

    Each operator is linear in its input and in its weight, so for an
    upstream u the backward rule must satisfy <op(x; w), u> = <x, dx(u)>
    and <op(x; w), u> = <w, dw(u)>. Both sides agree to 1e-10 of the sum
    of absolute products, in float64 and in both convolution modes.
    """

    geometry = dict(
        k=st.integers(1, 3),
        stride=st.integers(1, 2),
        dilation=st.integers(1, 3),
        pads=st.tuples(*[st.integers(0, 2)] * 4),
        extra=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
        deterministic=st.booleans(),
    )

    @staticmethod
    def _assert_adjoint(op, x, w, rng):
        with recording() as g:
            y = op(x, w)
            u = tensor(rng.normal(size=y.shape))
            grads = backward(sum_all(multiply(y, u)), g)
        lhs, scale = _dot(y.data, u.data)
        for t in (x, w):
            rhs, _ = _dot(t.data, grads[t])
            assert abs(lhs - rhs) <= 1e-10 * scale

    @staticmethod
    def _input_extent(k, dilation, pads, extra):
        """Smallest input extent with a valid output, plus ``extra``."""
        return max(1, dilated_kernel_extent(k, dilation) - pads[0] - pads[1]) + extra

    @settings(deadline=None, max_examples=60)
    @given(**geometry)
    def test_conv2d(self, k, stride, dilation, pads, extra, seed, deterministic):
        rng = np.random.default_rng(seed)
        h = self._input_extent(k, dilation, pads, extra)
        w_ = self._input_extent(k, dilation, pads[2:], extra)
        with using_dtype(np.float64), using_deterministic(deterministic):
            x = tensor(rng.normal(size=(2, h, w_, 2)), requires_grad=True)
            w = tensor(rng.normal(size=(k, k, 2, 3)), requires_grad=True)
            self._assert_adjoint(
                lambda x, w: conv2d(x, ConvKernel(w, None, stride, dilation, pads)), x, w, rng
            )

    @settings(deadline=None, max_examples=60)
    @given(**geometry)
    def test_depthwise_conv2d(self, k, stride, dilation, pads, extra, seed, deterministic):
        rng = np.random.default_rng(seed)
        h = self._input_extent(k, dilation, pads, extra)
        w_ = self._input_extent(k, dilation, pads[2:], extra)
        with using_dtype(np.float64), using_deterministic(deterministic):
            x = tensor(rng.normal(size=(2, h, w_, 3)), requires_grad=True)
            w = tensor(rng.normal(size=(k, k, 3, 1)), requires_grad=True)
            self._assert_adjoint(
                lambda x, w: depthwise_conv2d(x, ConvKernel(w, None, stride, dilation, pads)),
                x, w, rng,
            )

    @settings(deadline=None, max_examples=60)
    @given(**geometry)
    def test_transposed_conv(self, k, stride, dilation, pads, extra, seed, deterministic):
        rng = np.random.default_rng(seed)
        kd = dilated_kernel_extent(k, dilation)
        # Input extents whose output is positive.
        h = max(1, -((kd - pads[0] - pads[1] - 1) // stride) + 1) + extra
        w_ = max(1, -((kd - pads[2] - pads[3] - 1) // stride) + 1) + extra
        with using_dtype(np.float64), using_deterministic(deterministic):
            x = tensor(rng.normal(size=(2, h, w_, 2)), requires_grad=True)
            w = tensor(rng.normal(size=(k, k, 2, 3)), requires_grad=True)
            self._assert_adjoint(
                lambda x, w: transposed_conv(x, ConvKernel(w, None, stride, dilation, pads)),
                x, w, rng,
            )

    @settings(deadline=None, max_examples=60)
    @given(**geometry)
    def test_transposed_conv_is_conv2d_adjoint(
        self, k, stride, dilation, pads, extra, seed, deterministic
    ):
        # <conv2d(x; w), u> = <x, transposed_conv(u; w with channels swapped)>.
        # Extents are rounded up to ones conv2d's strides cover exactly:
        # transposed_conv maps an output back onto such an extent only.
        rng = np.random.default_rng(seed)
        kd = dilated_kernel_extent(k, dilation)
        h = self._input_extent(k, dilation, pads, extra)
        w_ = self._input_extent(k, dilation, pads[2:], extra)
        h += -(h + pads[0] + pads[1] - kd) % stride
        w_ += -(w_ + pads[2] + pads[3] - kd) % stride
        with using_dtype(np.float64), using_deterministic(deterministic):
            x = tensor(rng.normal(size=(2, h, w_, 2)))
            w = tensor(rng.normal(size=(k, k, 2, 3)))
            y = conv2d(x, ConvKernel(w, None, stride, dilation, pads))
            u = tensor(rng.normal(size=y.shape))
            swapped = ConvKernel(tensor(np.swapaxes(w.data, 2, 3)), None, stride, dilation, pads)
            adjoint = transposed_conv(u, swapped)
        assert adjoint.shape == x.shape
        lhs, scale = _dot(y.data, u.data)
        rhs, _ = _dot(x.data, adjoint.data)
        assert abs(lhs - rhs) <= 1e-10 * scale
