import math
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnet import convops
from dnet.errors import ShapeError
from dnet.model import DNet, DNetConfig
from dnet.convops import (
    ConvKernel,
    conv2d,
    depthwise_conv2d,
    dilated_kernel_extent,
    global_avg_pool,
    max_pool,
    same_pads,
    transposed_conv,
    using_deterministic,
)
from dnet.tensor import Tensor, backward, recording, using_dtype

from conftest import (
    bilinear_upsample, concat_channels, conv2d_naive, depthwise_padded, elementwise_add, fd_full_grad,
    max_pool_padded, max_rel_err, multiply, relu, sum_all, tensor, zero_insert_kernel,
)


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
        exact((x,), wk, d, s, pads, got)
        assert got.dtype == want.dtype
        # Bits, not values: a negative zero must keep its sign.
        assert np.array_equal(got, want, equal_nan=True), exact.__name__
        assert np.array_equal(np.signbit(got), np.signbit(want)), exact.__name__

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical_to_naive_loop(self, dtype, rng):
        sides = set()  # which helper conv2d would pick, over the trials
        long_sums = 0  # trials whose output elements sum more than 8 products
        for trial in range(60):
            n = int(rng.integers(1, 4))
            k, d, s = (int(v) for v in rng.integers(1, [4, 5, 3]))
            pads = tuple(int(v) for v in rng.integers(0, 3, size=4))
            kd = dilated_kernel_extent(k, d)
            h, w = (int(v) for v in rng.integers(max(kd - 4, 1), kd + 5, size=2))
            big = trial % 10 == 9  # 3 images of at least 21 x 21 output pixels
            if big:
                n, h, w = 3, kd + 20 * s, kd + 20 * s
            ho = (h + pads[0] + pads[1] - kd) // s + 1
            wo = (w + pads[2] + pads[3] - kd) // s + 1
            if ho < 1 or wo < 1:
                continue
            # numpy sums a contiguous run of more than 8 pairwise, so an
            # order slip shows only past 8 products per output element.
            cin = int(rng.integers(1, 4 if big else 17))
            cout = int(rng.integers(1, 4) if big else rng.integers(max(wo - 3, 1), wo + 3))
            sides.add(n * ho * wo >= convops._CHANNEL_FIRST_PIXELS)
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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "shape, k, d, s, pads",
        [
            # padded 11x12 onto 3x4: stride 3, phase rows 4, 4 and 3
            ((2, 9, 10, 3), 3, 1, 3, (1, 1, 1, 1)),
            # padded 10x10 onto 2x2: stride 3, the taps read phases 0, 2, 1
            ((2, 7, 8, 4), 3, 2, 3, (2, 1, 0, 2)),
            # padded 15x14 onto 5x4: s=2, d=3, the taps read phases 0, 1, 0
            ((3, 9, 8, 5), 3, 3, 2, (3, 3, 3, 3)),
            # padded 9x9 onto 4x4: unequal stride-2 phases on both axes
            ((2, 8, 7, 3), 3, 1, 2, (1, 0, 1, 1)),
            # one output row per image, each tap's slice crossing into the next
            ((2, 1, 12, 6), 3, 1, 1, (1, 1, 1, 1)),
            # one output column over three images, s=2, d=3
            ((3, 12, 6, 6), 3, 3, 2, (2, 2, 1, 0)),
            # one output row, stride 3 on a padded 5x10 grid
            ((2, 5, 9, 4), 2, 3, 3, (0, 0, 1, 0)),
        ],
    )
    def test_stride_phase_geometries(self, shape, k, d, s, pads, dtype, rng):
        # The channel-first helper reads each tap from one flat run of an
        # s x s stride phase of the padded batch; these are the geometries
        # where phases differ in size, taps alternate between phases, and
        # a run crosses a row end or an image boundary.
        for cout in (2, 5):
            x = rng.normal(size=shape).astype(dtype)
            wk = rng.normal(size=(k, k, shape[3], cout)).astype(dtype)
            bias = rng.normal(size=(1, 1, 1, cout)).astype(dtype)
            x[tuple(rng.integers(0, shape))] = np.nan
            x[tuple(rng.integers(0, shape))] = np.inf
            for exact in self.LAYOUTS:
                self.assert_naive_bits(exact, x, wk, bias, s, d, pads)
            # every sum of an all-zero window is -0.0
            x[x < 1.0] = 0.0
            wk, bias[...] = -np.abs(wk), -0.0
            for exact in self.LAYOUTS:
                self.assert_naive_bits(exact, x, wk, bias, s, d, pads)

    @pytest.mark.parametrize("budget", [240, 600, 3000])
    def test_stack_folds_keep_the_bits(self, budget, rng, monkeypatch):
        # The stack gets a quarter of the budget. The (2, 5, 5, 3) output
        # has 150 elements and 54 products (3x3 taps x 6 channels) per
        # element, so a stack holding every product needs 55 rows. Budgets
        # of 240 and 600 make 2-row stacks that fold after every product;
        # 3000 makes 5-row stacks that fold in the middle of a tap's
        # channels. The strided, dilated geometry's (2, 3, 2, 3) output
        # gets 2-, 4- and 20-row stacks.
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
            ((4, 4, 4, 32), 32, 4, "_exact_stacked"),  # block 5 spatial, its centre tap
            ((4, 8, 8, 32), 32, 4, "_exact_stacked"),  # the same, every tap reading the input
            ((4, 32, 32, 128), 64, 1, "_exact_channel_first"),  # full width, 1/2 resolution
            ((4, 32, 32, 32), 64, 1, "_exact_channel_first"),  # the same, second conv
            ((4, 8, 8, 64), 64, 1, "_exact_stacked"),  # full width, 1/8 resolution
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


class TestWindowedForwards:
    """The depthwise and max-pool forwards read each tap's in-range window
    of the unpadded input in place: the same bytes as their forwards over a
    whole padded copy (conftest's references), on random geometries with
    NaN and infinite inputs, over several row bands and over parts."""

    @staticmethod
    def _input(rng, shape, dtype):
        x = rng.normal(size=shape).astype(dtype)
        flat = x.reshape(-1)
        picks = rng.choice(flat.size, size=min(3, flat.size), replace=False)
        flat[picks] = rng.choice([np.nan, np.inf, -np.inf], size=picks.size)
        return x

    def test_depthwise_matches_padded_reference(self, rng, monkeypatch):
        checked = 0
        for trial in range(200):
            if trial == 100:  # bands of one row
                monkeypatch.setattr(convops, "_BAND_ELEMENTS", 1)
            dtype = (np.float32, np.float64)[trial % 2]
            k, d, s = int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(1, 3))
            extent = dilated_kernel_extent(k, d)
            pads = tuple(int(v) for v in rng.integers(0, extent, size=4))
            n, h, w, c = (int(v) for v in rng.integers(1, [3, 9, 9, 5]))
            if h + pads[0] + pads[1] < extent or w + pads[2] + pads[3] < extent:
                continue
            x = self._input(rng, (n, h, w, c), dtype)
            wt = rng.normal(size=(k, k, c, 1)).astype(dtype)
            bias = None if trial % 3 == 0 else rng.normal(size=(1, 1, 1, c)).astype(dtype)
            kernel = ConvKernel(Tensor(wt), None if bias is None else Tensor(bias), s, d, pads)
            with np.errstate(invalid="ignore"):  # inf - inf
                want = depthwise_padded(x, wt, bias, s, d, pads).tobytes()
                assert depthwise_conv2d(Tensor(x), kernel).data.tobytes() == want
                if c > 1:
                    cut = int(rng.integers(1, c))
                    parts = (Tensor(x[..., :cut]), Tensor(x[..., cut:]))
                    assert depthwise_conv2d(parts, kernel).data.tobytes() == want
            checked += 1
        assert checked > 100

    def test_max_pool_matches_padded_reference(self, rng):
        checked = 0
        for trial in range(300):
            dtype = (np.float32, np.float64)[trial % 2]
            k, stride = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            pads = tuple(int(v) for v in rng.integers(0, 4, size=4))
            n, h, w, c = (int(v) for v in rng.integers(1, [3, 8, 8, 4]))
            # Small integers make ties common.
            x = self._input(rng, (n, h, w, c), dtype).round()
            try:
                got = max_pool(Tensor(x), k, stride, pads).data
            except ShapeError:  # a window holds no input position
                continue
            assert got.tobytes() == max_pool_padded(x, k, stride, pads).tobytes()
            checked += 1
        assert checked > 60

    def test_non_finite_weight_on_partly_padded_tap_spares_the_border(self):
        # Tap (0, 0) of a same-padded 3x3 kernel reads padding at the top row
        # and left column of outputs: there its NaN contributes nothing.
        w = np.ones((3, 3, 1, 1), dtype=np.float32)
        w[0, 0] = np.nan
        kernel = ConvKernel(tensor(w), None, 1, 1, same_pads(3))
        out = depthwise_conv2d(tensor(np.ones((1, 5, 5, 1))), kernel).data[0, :, :, 0]
        assert np.isnan(out[1:, 1:]).all()
        assert np.isfinite(out[0]).all() and np.isfinite(out[:, 0]).all()

    @pytest.mark.parametrize("op", ["depthwise", "max_pool"])
    def test_peak_holds_no_padded_copy(self, op, rng):
        # A padded copy of the 36x36 input at dilation 12 is 2.8 outputs, of
        # the 64x64 one 4.1; the depthwise forward holds its output and one
        # band of products, the max-pool forward its output alone, each
        # beside numpy's buffers for strided operands (under 128 KB).
        if op == "depthwise":
            x = tensor(rng.normal(size=(1, 36, 36, 64)))
            kernel = ConvKernel(tensor(rng.normal(size=(3, 3, 64, 1))), None, 1, 12,
                                same_pads(3, 12))
            run, held = (lambda: depthwise_conv2d(x, kernel)), 2
        else:
            x = tensor(rng.normal(size=(1, 64, 64, 64)))
            run, held = (lambda: max_pool(x, 3, 2, same_pads(3, 1, 2))), 1
        out_bytes = run().data.nbytes
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < held * out_bytes + (1 << 17)


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

    def test_all_minus_inf_window_keeps_its_gradient(self):
        # Padding never claims a window, even one whose inputs are all -inf.
        x = tensor(np.full((1, 2, 2, 1), -np.inf), requires_grad=True)
        with recording() as graph:
            y = max_pool(x, 3, 2, (1, 1, 1, 1))
        g = np.ones(y.shape, y.dtype)
        (gx,) = graph.nodes[-1].backward(g)
        assert gx.sum() == g.sum()

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
        # window taps, and the gradient goes to that tap of the window's
        # input positions; small integer values make ties common, and NaN
        # and -inf entries make NaN and all -inf windows, whose first NaN or
        # first input position takes the gradient, never a padding tap.
        non_finite = 0  # trials with a NaN or -inf entry
        for trial in range(60):
            k, stride = (int(v) for v in rng.integers(1, [5, 4]))
            pads = tuple(int(v) for v in rng.integers(0, k, size=4))
            h, w = (int(v) for v in rng.integers(1, 9, size=2))
            data = rng.integers(-2, 3, size=(2, h, w, 3)).astype(np.float32)
            if rng.random() < 0.5:
                data = data + rng.normal(size=data.shape).astype(np.float32)
            if trial % 3:
                data[rng.random(size=data.shape) < 0.1] = np.nan
                data[rng.random(size=data.shape) < 0.3] = -np.inf
            pt, pb, pl, pr = pads
            xp = np.pad(data, ((0, 0), (pt, pb), (pl, pr), (0, 0)), constant_values=-np.inf)
            kh, kw = min(k, xp.shape[1]), min(k, xp.shape[2])
            ho = (xp.shape[1] - kh) // stride + 1
            wo = (xp.shape[2] - kw) // stride + 1
            stack = np.stack([t for _, _, t in _taps(xp, kh, kw, 1, stride, ho, wo)], axis=-1)
            inputs = _pad(np.ones(data.shape, dtype=bool), pads)
            valid = np.stack([t for _, _, t in _taps(inputs, kh, kw, 1, stride, ho, wo)], axis=-1)
            argmax = stack.argmax(axis=-1)
            want = np.take_along_axis(stack, argmax[..., None], axis=-1)[..., 0]
            # Padding is -inf, so only an all -inf window can pick it.
            argmax = np.where(np.isneginf(want), valid.argmax(axis=-1), argmax)
            x = tensor(data, requires_grad=True)
            try:
                with recording() as graph:
                    y = max_pool(x, k, stride, pads)
            except ShapeError:  # a window wholly in the padding
                continue
            non_finite += not np.isfinite(data).all()
            assert y.dtype == want.dtype and np.array_equal(y.data, want, equal_nan=True)
            u = rng.normal(size=y.shape).astype(np.float32)
            (got,) = graph.nodes[-1].backward(u)
            gxp = np.zeros_like(xp)
            for a, b, view in _taps(gxp, kh, kw, 1, stride, ho, wo):
                view += u * (argmax == a * kw + b)
            assert got.tobytes() == gxp[:, pt : pt + h, pl : pl + w].tobytes()
        assert non_finite >= 30


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
    # padded grid at most 1.25x the output grid, once the taps that read
    # only padding are trimmed; the dilation-4 kernel on a 4x4 map runs its
    # centre tap, an unpadded 1x1 kernel. The others take im2col.
    SHIFTED = {
        "1x1 unit stride unpadded", "1x1 padded", "3x3 batch 2 (shifted)",
        "3x3 asymmetric pads (shifted)", "3x3 dilation 2 batch 2 (shifted)",
        "3x3 dilation 4 on 4x4 (block 5)",
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


def counting_row_blocks(lowered: list):
    """``convops._row_blocks`` that also appends each block's row count to
    ``lowered``."""
    row_blocks = convops._row_blocks

    def blocks(height, rows):
        cuts = row_blocks(height, rows)
        lowered.extend(i1 - i0 for i0, i1 in cuts)
        return cuts

    return blocks


class TestIm2colGemmForward:
    """The GEMM forward of a kernel off the shifted-slice rule is one GEMM
    over the whole im2col column matrix, with no bands."""

    # name -> (kernel, stride, dilation, pads, input shape). A unit-stride
    # 1x1 kernel reads all of the padded input, a reshape: one GEMM.
    CASES = {
        "3x3 stride 2 asymmetric pads": (3, 2, 1, (0, 1, 0, 1), (2, 9, 8, 3)),
        "3x3 dilation 4 on 4x4 (block 5)": (3, 1, 4, same_pads(3, 4), (2, 4, 4, 8)),
        # On 4x4 only the centre tap reads the input; on 8x8 every tap does.
        "3x3 dilation 4 on 8x8": (3, 1, 4, same_pads(3, 4), (2, 8, 8, 8)),
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
        _, _, wo, _ = want.shape
        # A budget of band_rows output rows (0: below one row) bands no route.
        monkeypatch.setattr(convops, "_BAND_ELEMENTS", band_rows * n * wo * k * k * cin)
        lowered = []  # output rows of each band, if any helper cut bands
        monkeypatch.setattr(convops, "_row_blocks", counting_row_blocks(lowered))
        with using_deterministic(False):
            fast = conv2d(x, kern).data
        assert lowered == []
        exact = conv2d(x, kern).data
        assert np.all(np.abs(fast - want) <= 1e-12 * np.abs(want).max())
        assert np.abs(exact - fast).max() < 1e-12

    def test_peak_below_columns_output_and_a_quarter_of_the_input(self, rng):
        # The column matrix is filled from the unpadded input: no padded copy.
        x = tensor(rng.normal(size=(1, 128, 128, 16)))
        kern = ConvKernel(tensor(rng.normal(size=(3, 3, 16, 16))), None, 2, 1, same_pads(3, 1, 2))
        columns = 64 * 64 * 9 * 16 * x.data.itemsize
        with using_deterministic(False):
            tracemalloc.start()
            try:
                y = conv2d(x, kern)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < columns + y.data.nbytes + x.data.nbytes / 4


def shifted_budget(rows: int, wp: int, halo: int, cin: int, cout: int) -> int:
    """A ``_BAND_ELEMENTS`` under which ``_shifted_gemm`` cuts bands of
    ``rows`` output rows over a ``wp``-wide padded grid whose kernel spans
    ``halo`` extra rows; 0 stands for a budget below one row, which still
    makes one-row bands."""
    return -(-8 * (rows * wp * (cin + 2 * cout) + halo * wp * cin) // 3) if rows else 0


class TestShiftedGemmForward:
    """The stride-1 GEMM forward fills bands of padded rows from the unpadded
    input, reads shifted row slices of them, one GEMM per tap and band, and
    matches the whole-matrix GEMM."""

    def test_matches_whole_matrix_reference(self, rng, monkeypatch):
        one_row = partial = 0  # trials with one-row bands, with bands a row short
        lowered = []  # output rows of each band of the trial
        counting_bands = counting_row_blocks(lowered)
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
            rows = int(rng.integers(0, 4)) if trial % 3 else ho
            wp = w + pads[2] + pads[3]
            monkeypatch.setattr(convops, "_BAND_ELEMENTS",
                                shifted_budget(rows, wp, kd - 1, cin, cout))
            band = max(rows, 1)
            one_row += band == 1 and ho > 1
            partial += band > 1 and ho % band != 0
            got = np.empty_like(want)
            lowered.clear()
            with monkeypatch.context() as m:
                m.setattr(convops, "_row_blocks", counting_bands)
                convops._shifted_gemm((x.data,), wk.data, d, pads, got, bias.data)
            assert len(lowered) == n * math.ceil(ho / band) and sum(lowered) == n * ho
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want).max())
            exact = conv2d(x, ConvKernel(wk, bias, 1, d, pads)).data
            assert np.abs(exact - got).max() < 1e-12
        assert one_row >= 5 and partial >= 5

    # name -> (input shape, cout, dilation, pads); each has a 3x3 kernel
    # whose padded grid is at most 1.25x its output grid.
    BANDED = {
        "batch 2, same pads": ((2, 20, 20, 5), 7, 1, same_pads(3)),
        "dilation 2, asymmetric pads": ((1, 41, 40, 3), 4, 2, (3, 1, 2, 2)),
    }

    @pytest.mark.parametrize("fused", [False, True])
    @pytest.mark.parametrize("case", sorted(BANDED))
    def test_band_cuts_keep_the_bytes(self, case, fused, rng, monkeypatch):
        # One-row bands, and bands of at most 3 rows, some a row short, give the
        # bytes of one band over the whole output, with and without a
        # residual and a ReLU in the band's epilogue.
        shape, cout, d, pads = self.BANDED[case]
        n, h, w, cin = shape
        x = tensor(rng.normal(size=shape))
        kern = ConvKernel(tensor(rng.normal(size=(3, 3, cin, cout))),
                          tensor(rng.normal(size=(1, 1, 1, cout))), 1, d, pads, relu=fused)
        ho, wp = h + pads[0] + pads[1] - 2 * d, w + pads[2] + pads[3]
        residual = tensor(rng.normal(size=(n, ho, wp - 2 * d, cout)))
        assert ho % 3 != 0
        outputs = {}
        lowered = []  # output rows of each band of the run
        monkeypatch.setattr(convops, "_row_blocks", counting_row_blocks(lowered))
        for rows in (ho, 1, 3):
            lowered.clear()
            monkeypatch.setattr(convops, "_BAND_ELEMENTS",
                                shifted_budget(rows, wp, 2 * d, cin, cout))
            with using_deterministic(False):
                outputs[rows] = conv2d(x, kern, residual if fused else None).data.tobytes()
            assert len(lowered) == n * math.ceil(ho / rows)
        assert outputs[1] == outputs[ho] and outputs[3] == outputs[ho]

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

    def test_peak_below_output_and_a_quarter_of_the_input(self, rng):
        # No padded copy of the input: only the bounded band buffers and
        # the output are allocated.
        x = tensor(rng.normal(size=(1, 256, 256, 32)))
        kern = ConvKernel(tensor(rng.normal(size=(3, 3, 32, 32))),
                          tensor(rng.normal(size=(1, 1, 1, 32))), 1, 1, same_pads(3), relu=True)
        residual = tensor(rng.normal(size=x.shape))
        with using_deterministic(False):
            tracemalloc.start()
            try:
                y = conv2d(x, kern, residual)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < y.data.nbytes + x.data.nbytes / 4


class TestRecordedConvHoldsNoPaddedCopy:
    """A recorded conv2d or depthwise conv holds its output and nothing the
    size of its input: only the shifted rule pads the input again, when it
    runs; the others read the unpadded input through its tap windows."""

    # name -> (op, kernel, stride, dilation); the input is 1x64x64x16
    CASES = {
        "conv2d shifted": (conv2d, 3, 1, 1),
        "conv2d im2col": (conv2d, 3, 2, 1),
        "depthwise_conv2d": (depthwise_conv2d, 3, 1, 2),
    }

    @pytest.mark.parametrize("deterministic", [True, False])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_holds_the_output_only(self, case, deterministic, rng):
        op, k, stride, dilation = self.CASES[case]
        x = tensor(rng.normal(size=(1, 64, 64, 16)), requires_grad=True)
        cout = 1 if op is depthwise_conv2d else 16
        kern = ConvKernel(tensor(rng.normal(size=(k, k, 16, cout)), requires_grad=True),
                          tensor(rng.normal(size=(1, 1, 1, 16)), requires_grad=True),
                          stride, dilation, same_pads(k, dilation, stride), relu=True)
        with using_deterministic(deterministic):
            tracemalloc.start()
            try:
                with recording() as graph:
                    y = op(x, kern)
                held, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert held <= y.data.nbytes + 64 * 1024
        gx, gw, _ = graph.nodes[-1].backward(np.ones(y.shape, y.dtype))
        assert gx.shape == x.shape and gw.shape == kern.weight.shape

    @pytest.mark.parametrize("case", ["conv2d im2col", "depthwise_conv2d", "max_pool"])
    def test_input_gradient_owns_its_data(self, case, rng):
        # Written into an array of the input's shape, not a view into a
        # padded buffer that it would keep alive.
        x = tensor(rng.normal(size=(1, 16, 16, 4)), requires_grad=True)
        with recording() as graph:
            if case == "max_pool":
                y = max_pool(x, 3, 2, same_pads(3, 1, 2))
            else:
                op, k, stride, dilation = self.CASES[case]
                cout = 1 if op is depthwise_conv2d else 4
                y = op(x, ConvKernel(tensor(rng.normal(size=(k, k, 4, cout))), None, stride,
                                     dilation, same_pads(k, dilation, stride)))
        gx = graph.nodes[-1].backward(np.ones(y.shape, y.dtype))[0]
        assert gx.shape == x.shape and gx.flags.c_contiguous and gx.flags.owndata


class TestExactForwardHoldsNoPaddedCopy:
    """The channel-first exact forward fills its stride phases from the
    unpadded input: 1 MB in, out and per phase grid, with no padded copy of
    the input (another 1.08 MB at stride 1) beside them."""

    @pytest.mark.parametrize("stride, limit_mb", [(1, 4.5), (2, 2.3)])
    def test_peak(self, stride, limit_mb, rng):
        x = Tensor(rng.normal(size=(1, 128, 128, 16)).astype(np.float32))
        kern = ConvKernel(Tensor(rng.normal(size=(3, 3, 16, 16)).astype(np.float32)), None,
                          stride, 1, same_pads(3, 1, stride))
        tracemalloc.start()
        try:
            conv2d(x, kern)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < limit_mb * 2**20


class TestPadInput:
    def test_bytes_of_np_pad(self, rng):
        for trial in range(60):
            dtype = (np.float32, np.float64, np.float16, np.int32)[trial % 4]
            shape = tuple(int(v) for v in rng.integers(1, 5, size=4))
            pads = tuple(int(v) for v in rng.integers(0, 4, size=4))
            x = (rng.normal(size=shape) * 10).astype(dtype)
            got = convops._pad_input(x, pads)
            want = np.pad(x, ((0, 0), pads[:2], pads[2:], (0, 0)))
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert convops._pad_input(x, (0, 0, 0, 0)) is x


class TestGemmForwardRoute:
    """Which GEMM forward each conv2d of the two benchmarked GEMM-mode
    forwards takes: a full-width 576x576 predict and a full-width 64x64
    training step (batch 4). Unpadded unit-stride 1x1 kernels are one GEMM
    on a reshape; shifted row slices serve stride-1 kernels whose padded
    grid is at most 1.25x the output grid; one GEMM over the whole im2col
    column matrix serves the rest: the strided kernels and, at 576x576, the
    two dilation-4 kernels on 44x44 padded grids (1.49x), at 64x64 every
    layer from 1/4 resolution down but the two dilation-4 kernels on 4x4
    maps, which run their centre tap as unpadded 1x1 kernels. The column
    matrix, which grows with the image area, is pinned in bytes.

    Without a tape the decoder runs its third fuse, refine1, refine2 and
    head in nine blocks of 64 output rows at 576x576, each conv over the
    rows the next one reads, so those convs are counted per block: 64 rows
    of refine2, 64 plus a halo row on each side inside the map of refine1,
    and 32 plus one halo row at 1/2 resolution of fuse3. At 64x64 one block
    is the whole map."""

    # (ho, k, stride, dilation, cin, cout) -> conv2d calls
    SHIFTED_576 = {
        # decoder.refine2, then refine1 in the first and last blocks and the
        # seven inner ones, then fuse3 likewise
        (64, 3, 1, 1, 32, 32): 9, (65, 3, 1, 1, 32, 32): 2, (66, 3, 1, 1, 32, 32): 7,
        (33, 3, 1, 1, 128, 64): 2, (34, 3, 1, 1, 128, 64): 7,
        (288, 3, 1, 1, 32, 32): 1, (288, 3, 1, 1, 32, 64): 1,
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
        "size, batch, shifted, im2col, im2col_max_bytes, reshape",
        # 576x576: 39 unpadded 1x1 convs and the decoder head once per block
        [(576, 1, SHIFTED_576, 7, 11_943_936, 39 + 9), (64, 4, SHIFTED_64, 18, 4_718_592, 42)],
    )
    def test_full_width_forwards(self, size, batch, shifted, im2col, im2col_max_bytes, reshape,
                                 monkeypatch):
        taken = []  # [route, shape] per conv2d call
        im2col_bytes = []  # column-matrix bytes per im2col-route call
        dense, lower = convops._dense, convops._im2col

        def spy(x, w, d, s, pads, out, *args):
            taken.append(["reshape", (out.shape[1], w.shape[0], s, d, *w.shape[2:])])
            dense(x, w, d, s, pads, out, *args)

        def skip_shifted(x, w, d, pads, out, *args):  # records the route, writes zeros
            taken[-1][0] = "shifted"
            out[...] = 0.0

        def spy_im2col(*args):
            taken[-1][0] = "im2col"
            cols = lower(*args)
            im2col_bytes.append(cols.nbytes)
            return cols

        monkeypatch.setattr(convops, "_dense", spy)
        monkeypatch.setattr(convops, "_shifted_gemm", skip_shifted)
        monkeypatch.setattr(convops, "_im2col", spy_im2col)
        net = DNet(DNetConfig(channels_scale=1.0))
        with using_deterministic(False):
            net(tensor(np.zeros((batch, size, size, 3), dtype=np.float32)))
        routes = {route: Counter(shape for r, shape in taken if r == route)
                  for route in ("shifted", "im2col", "reshape")}
        assert routes["shifted"] == shifted
        assert routes["im2col"].total() == len(im2col_bytes) == im2col
        assert max(im2col_bytes) == im2col_max_bytes
        assert routes["reshape"].total() == reshape
        assert all(k == 1 and s == 1 for _, k, s, _, _, _ in routes["reshape"])


class TestConvBackwardRoute:
    """Which backward rule each conv2d of a 64x64 training step (batch 4)
    takes, at desk scale (channels_scale 0.125, exact mode) and at full
    width (GEMM mode). The rule is the GEMM forward's shape rule, so it is
    the same in both modes. Shifted row slices serve every stride-1 kernel
    whose padded grid is at most 1.25x the output grid: the 40 unit-stride
    1x1 kernels, whose padded grid is their output grid, the two
    dilation-4 3x3 kernels on 4x4 maps, which run their centre tap as such
    a 1x1 kernel, and the 3x3 kernels at 1/2 and full resolution. The
    im2col rule serves the rest: the strided kernels and every other 3x3
    kernel from 1/4 resolution down."""

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
        assert routes["shifted"].total() - shifted_3x3.total() == 42
        assert all(s == 1 for _, _, s, _, _, _ in routes["shifted"])
        assert routes["im2col"].total() == 18
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


class TestFusedRelu:
    """A ``relu`` kernel gives relu(op(x, the same kernel without relu)):
    the output and every gradient byte for byte, in one tape node.

    The input's second image is all -0.0, and channel 0 of the weight is
    positive, so its products there are -0.0; one input element is NaN.
    With a bias whose channel 0 is -0.0 and channel 1 is +0.0, the
    pre-activation holds exact zeros and NaN in every case, and in exact
    mode conv2d and depthwise_conv2d, which add one -0.0 product at a time
    to the bias, also hold -0.0 away from the padding. transposed_conv adds
    into a +0.0 buffer, so it never yields -0.0.
    """

    # (op, input shape, kernel size, stride, dilation, conv2d route)
    CASES = {
        "conv2d_1x1": (conv2d, (2, 6, 6, 3), 1, 1, 1, "shifted"),
        "conv2d_shifted": (conv2d, (2, 20, 20, 3), 3, 1, 1, "shifted"),
        "conv2d_im2col": (conv2d, (2, 12, 12, 3), 3, 2, 1, "im2col"),
        "depthwise_conv2d": (depthwise_conv2d, (2, 12, 12, 3), 3, 1, 2, None),
        "transposed_conv": (transposed_conv, (2, 6, 6, 3), 2, 2, 1, None),
    }

    @staticmethod
    def _kernel(op, cin, k, stride, dilation, with_bias, rng):
        cout = cin if op is depthwise_conv2d else 4
        w = rng.normal(size=(k, k, cin, 1 if op is depthwise_conv2d else cout))
        if op is depthwise_conv2d:
            w[:, :, 0] = np.abs(w[:, :, 0])
        else:
            w[..., 0] = np.abs(w[..., 0])
        bias = None
        if with_bias:
            b = rng.normal(size=(1, 1, 1, cout))
            b[..., 0], b[..., 1] = -0.0, 0.0
            bias = tensor(b, requires_grad=True)
        pads = (0, 0, 0, 0) if op is transposed_conv else same_pads(k, dilation, stride)
        return ConvKernel(tensor(w, requires_grad=True), bias, stride, dilation, pads, relu=True)

    @staticmethod
    def _run(op, x, kernel, u, fused, residual=None):
        """Output, leaf gradients and tape ops of op(x, kernel[, residual]),
        fused, or as relu([add(residual,] op(x, plain kernel)[)])."""
        extra = () if residual is None else (residual,)
        with recording() as g:
            if fused:
                y = op(x, kernel, *extra)
            else:
                y = op(x, replace(kernel, relu=False))
                y = relu(y if residual is None else elementwise_add(residual, y))
            grads = backward(sum_all(multiply(y, u)), g)
        leaves = [x, kernel.weight] + ([kernel.bias] if kernel.bias is not None else [])
        return y.data, [grads[t] for t in [*leaves, *extra]], [node.op for node in g.nodes]

    @pytest.mark.parametrize("deterministic", [True, False])
    @pytest.mark.parametrize("with_bias", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", list(CASES))
    def test_equals_relu_of_the_plain_op(self, case, dtype, with_bias, deterministic, rng):
        op, shape, k, stride, dilation, route = self.CASES[case]
        with using_dtype(dtype), using_deterministic(deterministic):
            x_data = rng.normal(size=shape)
            x_data[1] = -0.0
            x_data[0, 2, 3, 0] = np.nan
            x = tensor(x_data, requires_grad=True)
            kernel = self._kernel(op, shape[3], k, stride, dilation, with_bias, rng)
            pre = op(x, replace(kernel, relu=False)).data
            u = tensor(rng.normal(size=pre.shape))
            got, got_grads, got_ops = self._run(op, x, kernel, u, fused=True)
            want, want_grads, want_ops = self._run(op, x, kernel, u, fused=False)
        if route is not None:
            padded = (shape[1] + sum(kernel.padding[:2]), shape[2] + sum(kernel.padding[2:]))
            assert convops._shifts(stride, padded, *pre.shape[1:3]) == (route == "shifted")
        assert np.isnan(pre).any() and (pre == 0).any()
        if deterministic and with_bias and op is not transposed_conv:
            assert np.signbit(pre[pre == 0]).any()
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()
        assert len(got_grads) == len(want_grads) == (3 if with_bias else 2)
        for a, b in zip(got_grads, want_grads):
            assert a.dtype == b.dtype == dtype and a.tobytes() == b.tobytes()
        assert got_ops == [op.__name__, "mul", "sum_all"]
        assert want_ops == [op.__name__, "relu", "mul", "sum_all"]

    @pytest.mark.parametrize("nan_in", ["x", "residual"])
    @pytest.mark.parametrize("deterministic", [True, False])
    @pytest.mark.parametrize("with_bias", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", ["conv2d_1x1", "conv2d_shifted", "conv2d_im2col"])
    def test_residual_equals_relu_of_the_plain_sum(
        self, case, dtype, with_bias, deterministic, nan_in, rng
    ):
        # conv2d(x, kernel, r) against relu(add(r, conv2d(x, plain kernel))).
        # The residual's second image is all -0.0 as well, and its last
        # output row cancels the plain output, so the sum holds exact zeros,
        # and -0.0 where the plain output does; exactly one operand of the
        # sum holds a NaN.
        op, shape, k, stride, dilation, route = self.CASES[case]
        with using_dtype(dtype), using_deterministic(deterministic):
            x_data = rng.normal(size=shape)
            x_data[1] = -0.0
            if nan_in == "x":
                x_data[0, 2, 3, 0] = np.nan
            x = tensor(x_data, requires_grad=True)
            kernel = self._kernel(op, shape[3], k, stride, dilation, with_bias, rng)
            pre = op(x, replace(kernel, relu=False)).data
            r_data = rng.normal(size=pre.shape)
            r_data[1] = -0.0
            r_data[0, -1] = -pre[0, -1]
            if nan_in == "residual":
                r_data[0, 1, 2, 0] = np.nan
            r = tensor(r_data, requires_grad=True)
            u = tensor(rng.normal(size=pre.shape))
            got, got_grads, got_ops = self._run(op, x, kernel, u, True, r)
            want, want_grads, want_ops = self._run(op, x, kernel, u, False, r)
        padded = (shape[1] + sum(kernel.padding[:2]), shape[2] + sum(kernel.padding[2:]))
        assert convops._shifts(stride, padded, *pre.shape[1:3]) == (route == "shifted")
        total = r.data + pre
        assert np.isnan(pre).any() != np.isnan(r.data).any()
        assert np.isnan(total).any() and (total == 0).any()
        if deterministic and with_bias:
            assert np.signbit(total[total == 0]).any()
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()
        assert len(got_grads) == len(want_grads) == (4 if with_bias else 3)
        for a, b in zip(got_grads, want_grads):
            assert a.dtype == b.dtype == dtype and a.tobytes() == b.tobytes()
        assert got_ops == ["conv2d", "mul", "sum_all"]
        assert want_ops == ["conv2d", "add", "relu", "mul", "sum_all"]

    def test_residual_of_another_shape_is_rejected(self, rng):
        x = tensor(rng.normal(size=(1, 4, 4, 2)))
        kernel = ConvKernel(tensor(rng.normal(size=(1, 1, 2, 3))), None, relu=True)
        with pytest.raises(ShapeError, match=r"conv2d: residual shape \(1, 4, 4, 2\)"):
            conv2d(x, kernel, tensor(rng.normal(size=(1, 4, 4, 2))))


def live_taps(n: int, k: int, lead: int, trail: int, s: int, d: int) -> list[int]:
    """The taps of a k-tap axis that read one of ``n`` input positions at
    some output, by brute force over the outputs."""
    out = (n + lead + trail - dilated_kernel_extent(k, d)) // s + 1
    return [a for a in range(k) if any(0 <= i * s + a * d - lead < n for i in range(out))]


def diagonal(w: np.ndarray) -> np.ndarray:
    """The (kh, kw, c, c) conv2d weight of a (kh, kw, c, 1) depthwise weight."""
    kh, kw, c, _ = w.shape
    full = np.zeros((kh, kw, c, c), dtype=w.dtype)
    full[:, :, range(c), range(c)] = w[..., 0]
    return full


class TestDeadTaps:
    """conv2d and depthwise_conv2d run only the kernel taps that read the
    input (``_live_window``). A dropped tap's products are exact zeros, so
    exact-mode outputs keep the naive loop's bytes, gradients match the
    per-tap loop, and the dead taps' weight gradient is exactly 0."""

    # name -> (kernel, stride, dilation, pads, input shape)
    CASES = {
        # The 1/16 map of a 64x64 crop, where only the centre tap reads it.
        "3x3 dilation 4 on 4x4 (block 4, 5)": (3, 1, 4, same_pads(3, 4), (2, 4, 4, 3)),
        "3x3 dilation 6 on 4x4 (msif branch 2)": (3, 1, 6, same_pads(3, 6), (2, 4, 4, 3)),
        "3x3 dilation 12 on 4x4 (msif branch 3)": (3, 1, 12, same_pads(3, 12), (2, 4, 4, 3)),
        # The first kernel row reads only the top padding; every column lives.
        "3x3 dilation 2 asymmetric pads": (3, 1, 2, (4, 0, 1, 3), (2, 3, 5, 3)),
        # The first row and column are dead; the window keeps 2 pads a side.
        "3x3 dilation 3 stride 2": (3, 2, 3, (3, 3, 3, 3), (2, 4, 4, 3)),
        # Both taps of each axis read padding only: the output is the bias.
        "2x2 dilation 2 no live tap": (2, 1, 2, (1, 1, 1, 1), (2, 1, 1, 3)),
        # Tap 0 is dead, but the window of tap 1 alone would need a lead pad
        # of -2, so the whole kernel runs.
        "2x2 stride 4 negative window pad": (2, 4, 3, (1, 4, 1, 4), (2, 3, 3, 3)),
    }
    # name -> the (rows, cols) window that runs
    WINDOWS = {
        "3x3 dilation 4 on 4x4 (block 4, 5)": ((1, 2), (1, 2)),
        "3x3 dilation 6 on 4x4 (msif branch 2)": ((1, 2), (1, 2)),
        "3x3 dilation 12 on 4x4 (msif branch 3)": ((1, 2), (1, 2)),
        "3x3 dilation 2 asymmetric pads": ((1, 3), (0, 3)),
        "3x3 dilation 3 stride 2": ((1, 3), (1, 3)),
        "2x2 dilation 2 no live tap": ((0, 0), (0, 0)),
        "2x2 stride 4 negative window pad": ((0, 2), (0, 2)),
    }

    @staticmethod
    def _dead(k, stride, dilation, pads, shape) -> np.ndarray:
        """(k, k) mask of the taps that read no input pixel."""
        rows = live_taps(shape[1], k, *pads[:2], stride, dilation)
        cols = live_taps(shape[2], k, *pads[2:], stride, dilation)
        dead = np.ones((k, k), dtype=bool)
        dead[np.ix_(rows, cols)] = False
        return dead

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_window(self, case):
        k, stride, dilation, pads, shape = self.CASES[case]
        kern = ConvKernel(tensor(np.zeros((k, k, 1, 1))), None, stride, dilation, pads)
        rows, cols, _ = convops._live_window(shape[1], shape[2], kern)
        assert (rows.indices(k)[:2], cols.indices(k)[:2]) == self.WINDOWS[case]

    def test_window_is_the_hull_of_the_live_taps(self, rng):
        # Against brute force: no live tap is left out, a trimmed window is
        # the hull of the live taps, and its padding gives every kept tap
        # the same input positions and the kernel's output extent.
        trimmed = fallback = 0
        for _ in range(400):
            k, s, d = (int(v) for v in rng.integers(1, [5, 5, 7]))
            pads = tuple(int(v) for v in rng.integers(0, 8, size=4))
            h, w = (int(v) for v in rng.integers(1, 8, size=2))
            kd = dilated_kernel_extent(k, d)
            if h + pads[0] + pads[1] < kd or w + pads[2] + pads[3] < kd:
                continue
            kern = ConvKernel(tensor(np.zeros((k, k, 1, 1))), None, s, d, pads)
            rows, cols, window_pads = convops._live_window(h, w, kern)
            live = [live_taps(h, k, *pads[:2], s, d), live_taps(w, k, *pads[2:], s, d)]
            if not live[0] or not live[1]:
                assert (rows, cols, window_pads) == (slice(0, 0), slice(0, 0), pads)
                continue
            for n, taps, (a0, a1), lead, trail, lo, hi in zip(
                (h, w), live, (rows.indices(k)[:2], cols.indices(k)[:2]),
                pads[::2], pads[1::2], window_pads[::2], window_pads[1::2],
            ):
                assert a0 <= taps[0] and taps[-1] < a1 and lo >= 0 and hi >= 0
                assert lead - lo == a0 * d
                out = (n + lead + trail - kd) // s + 1
                assert (n + lo + hi - dilated_kernel_extent(a1 - a0, d)) // s + 1 == out
                if (a0, a1) == (0, k):
                    fallback += (taps[0], taps[-1] + 1) != (0, k)
                    assert (lo, hi) == (lead, trail)
                else:
                    trimmed += 1
                    assert (a0, a1) == (taps[0], taps[-1] + 1)
        assert trimmed >= 50 and fallback >= 5

    @pytest.mark.parametrize("fused", [False, True])
    @pytest.mark.parametrize("with_bias", [False, True])
    @pytest.mark.parametrize("deterministic", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("op", [conv2d, depthwise_conv2d])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_outputs_and_gradients(self, case, op, dtype, deterministic, with_bias, fused, rng):
        # ``fused`` adds the ReLU and, for conv2d, a residual. The depthwise
        # convolution is checked as conv2d with its diagonal weight, whose
        # extra products are exact zeros.
        k, stride, dilation, pads, shape = self.CASES[case]
        n, h, w_, c = shape
        depthwise = op is depthwise_conv2d
        cout = c if depthwise else 2
        ho = (h + pads[0] + pads[1] - dilated_kernel_extent(k, dilation)) // stride + 1
        wo = (w_ + pads[2] + pads[3] - dilated_kernel_extent(k, dilation)) // stride + 1
        with using_dtype(dtype), using_deterministic(deterministic):
            x = tensor(rng.normal(size=shape), requires_grad=True)
            w = tensor(rng.normal(size=(k, k, c, 1 if depthwise else cout)), requires_grad=True)
            bias = tensor(rng.normal(size=(1, 1, 1, cout)), requires_grad=True) if with_bias else None
            kern = ConvKernel(w, bias, stride, dilation, pads, relu=fused)
            extra = ()
            if fused and not depthwise:
                extra = (tensor(rng.normal(size=(n, ho, wo, cout)), requires_grad=True),)
            u = tensor(rng.normal(size=(n, ho, wo, cout)))

            def loss():
                return sum_all(multiply(op(x, kern, *extra), u))

            with recording() as graph:
                y = op(x, kern, *extra)
                grads = backward(sum_all(multiply(y, u)), graph)
            if dtype is np.float64 and deterministic:
                fd = fd_full_grad(lambda: loss().item(), w)
        wd = diagonal(w.data) if depthwise else w.data
        b = None if bias is None else bias.data
        want = conv2d_naive(x.data, wd, b, stride, dilation, pads)
        scale = conv2d_naive(np.abs(x.data), np.abs(wd), None if b is None else np.abs(b),
                             stride, dilation, pads)
        if extra:
            want = extra[0].data + want
            scale = np.abs(extra[0].data) + scale
        if fused:
            want = np.maximum(want, 0)
        tol = 100 * np.finfo(dtype).eps
        assert y.dtype == dtype and y.shape == want.shape
        if deterministic:
            assert y.data.tobytes() == want.tobytes()
        else:
            assert np.all(np.abs(y.data - want) <= tol * scale)

        g = u.data * (y.data > 0) if fused else u.data
        expected = reference_conv2d_grads(x.data, wd, g, stride, dilation, pads)
        bounds = reference_conv2d_grads(np.abs(x.data), np.abs(wd), np.abs(g), stride,
                                        dilation, pads)
        if depthwise:
            expected, bounds = ((gx, gw[:, :, range(c), range(c)][..., None])
                                for gx, gw in (expected, bounds))
        for t, ref, bound in zip((x, w), expected, bounds):
            assert grads[t].shape == ref.shape and grads[t].dtype == dtype
            assert np.all(np.abs(grads[t] - ref) <= tol * bound)
        if bias is not None:
            assert np.allclose(grads[bias], g.sum(axis=(0, 1, 2)).reshape(bias.shape))
        if extra:
            assert np.array_equal(grads[extra[0]], g)
        dead = self._dead(k, stride, dilation, pads, shape)
        assert dead.any() and np.all(grads[w][dead] == 0)
        if dtype is np.float64 and deterministic:
            assert np.all(fd[dead] == 0)
            assert max_rel_err(grads[w], fd) < 1e-4

    @pytest.mark.parametrize("deterministic", [True, False])
    @pytest.mark.parametrize("op", [conv2d, depthwise_conv2d])
    def test_non_finite_weight_on_a_dead_tap(self, op, deterministic, rng):
        # A tap that reads only padding contributes nothing, as conv2d's
        # docstring states, even with a NaN or infinite weight: the output
        # and gradients are those of the kernel with that tap zeroed, where
        # a gather over all nine taps gives NaN (0 * inf). On the centre tap,
        # which reads the 4x4 input, a NaN still reaches the output.
        x = tensor(rng.normal(size=(2, 4, 4, 3)), requires_grad=True)
        cout = 1 if op is depthwise_conv2d else 2
        w = rng.normal(size=(3, 3, 3, cout)).astype(np.float32)
        bias = tensor(rng.normal(size=(1, 1, 1, 3 if op is depthwise_conv2d else cout)))
        zeroed = w.copy()
        w[0, 0], w[2, 1] = np.nan, np.inf
        zeroed[0, 0] = zeroed[2, 1] = 0.0
        results = []
        with using_deterministic(deterministic):
            for weight in (w, zeroed):
                wt = tensor(weight, requires_grad=True)
                kern = ConvKernel(wt, bias, 1, 4, same_pads(3, 4), relu=True)
                with recording() as graph:
                    y = op(x, kern)
                    grads = backward(sum_all(y), graph)
                results.append((y.data, grads[x], grads[wt]))
            assert np.isfinite(results[0][0]).all()
            for got, want in zip(*results):
                assert got.tobytes() == want.tobytes()
            w[1, 1, 0] = np.nan
            assert np.isnan(op(x, ConvKernel(tensor(w), bias, 1, 4, same_pads(3, 4))).data).any()

    # name -> (kernel size, dilation) of the kernels a 64x64 crop trims to
    # their centre tap: dilation 4 on the 4x4 map, and the MSIF rates 6 and 12.
    TRIMMED_AT_64 = {
        "block4.unit3.spatial.w": (3, 4), "block5.unit3.spatial.w": (3, 4),
        "msif.branch2.dw.w": (3, 6), "msif.branch3.dw.w": (3, 12),
    }

    @pytest.mark.parametrize("size, scale", [(64, 0.125), (576, 0.0625)])
    def test_model_forward_trims(self, size, scale, monkeypatch):
        # At 576x576 the 1/16 map is 36x36, wider than any tap's reach.
        net = DNet(DNetConfig(channels_scale=scale))
        names = {id(t): name for name, t in net.parameters().items()}
        windows = {}  # weight name -> (rows, cols) that ran, if trimmed
        live_window = convops._live_window

        def spy(h, w, kernel):
            rows, cols, pads = live_window(h, w, kernel)
            if kernel.weight.data[rows, cols].shape != kernel.weight.shape:
                windows[names[id(kernel.weight)]] = (rows, cols)
            return rows, cols, pads

        monkeypatch.setattr(convops, "_live_window", spy)
        with using_deterministic(False):
            net(tensor(np.zeros((1, size, size, 3), dtype=np.float32)))
        want = self.TRIMMED_AT_64 if size == 64 else {}
        assert windows == {name: (slice(1, 2), slice(1, 2)) for name in want}
        params = net.parameters()
        assert all(params[name].shape[:2] == (k, k) for name, (k, _) in want.items())


class TestConvOverParts:
    """conv2d, depthwise_conv2d and transposed_conv over a tuple of parts,
    one of them a broadcast (n, 1, 1, c) part, give the bytes of the same
    operator over the parts' concatenation with that part upsampled, built
    from the separate reference nodes: output and every gradient."""

    # route -> (deterministic, map (n, h, w), kernel, dilation, stride, pads, cout)
    ROUTES = {
        "exact channel-first": (True, (2, 24, 24), 3, 1, 1, (1, 1, 1, 1), 2),
        "exact channel-first s2": (True, (2, 48, 48), 3, 1, 2, (1, 1, 1, 1), 2),
        "exact stacked": (True, (2, 4, 3), 3, 1, 1, (1, 1, 1, 1), 5),
        "1x1 reshape": (False, (2, 5, 6), 1, 1, 1, (0, 0, 0, 0), 3),
        "shifted": (False, (2, 20, 20), 3, 1, 1, (1, 1, 1, 1), 3),
        "im2col": (False, (2, 7, 6), 3, 1, 2, (1, 1, 1, 1), 3),
        # dilation 4 on a 4x4 map keeps the centre tap, an unpadded 1x1
        "trimmed exact": (True, (2, 4, 4), 3, 4, 1, same_pads(3, 4), 5),
        "trimmed gemm": (False, (2, 4, 4), 3, 4, 1, same_pads(3, 4), 3),
    }
    # route -> the forward helpers that run
    HELPERS = {
        "exact channel-first": ["_exact_channel_first"],
        "exact channel-first s2": ["_exact_channel_first"],
        "exact stacked": ["_exact_stacked"],
        "1x1 reshape": [],
        "shifted": ["_shifted_gemm"],
        "im2col": ["_im2col"],
        "trimmed exact": ["_exact_stacked"],
        "trimmed gemm": [],
    }
    WIDTHS = (2, 3, 1)  # the middle part is the broadcast one

    @classmethod
    def _parts(cls, n, h, w, rng):
        return tuple(tensor(rng.normal(size=(n, 1, 1, c) if i == 1 else (n, h, w, c)),
                            requires_grad=True) for i, c in enumerate(cls.WIDTHS))

    @staticmethod
    def _run(op, x, kern, extra, u, leaves):
        """Output and leaf gradients of op(x(), kern, *extra) weighed by u."""
        with recording() as graph:
            y = op(x(), kern, *extra)
            grads = backward(sum_all(multiply(y, u)), graph)
        return [y.data] + [grads[t] for t in leaves]

    @staticmethod
    def _reference(parts, h, w):
        a, b, c = parts
        return concat_channels((a, bilinear_upsample(b, h, w), c))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_conv2d_routes(self, route, dtype, rng, monkeypatch):
        deterministic, (n, h, w), k, dilation, stride, pads, cout = self.ROUTES[route]
        # A small band budget cuts the shifted forward into several bands.
        monkeypatch.setattr(convops, "_BAND_ELEMENTS", 1 << 12)
        ran, spans = [], []
        for name in ("_exact_channel_first", "_exact_stacked", "_shifted_gemm", "_im2col"):
            helper = getattr(convops, name)

            def spy(xs, *a, _h=helper, _n=name, **kw):
                ran.append(_n)
                spans.extend(x.shape[:3] for x in xs)  # every array spans the map
                return _h(xs, *a, **kw)

            monkeypatch.setattr(convops, name, spy)
        with using_dtype(dtype), using_deterministic(deterministic):
            parts = self._parts(n, h, w, rng)
            kern = ConvKernel(tensor(rng.normal(size=(k, k, sum(self.WIDTHS), cout)),
                                     requires_grad=True),
                              tensor(rng.normal(size=(1, 1, 1, cout)), requires_grad=True),
                              stride, dilation, pads, relu=True)
            ho, wo = convops._gather_frame("conv2d", (n, h, w), kern)
            residual = tensor(rng.normal(size=(n, ho, wo, cout)), requires_grad=True)
            u = tensor(rng.normal(size=(n, ho, wo, cout)))
            leaves = (*parts, kern.weight, kern.bias, residual)
            want = self._run(conv2d, lambda: self._reference(parts, h, w), kern, (residual,), u,
                             leaves)
            ran.clear()
            with recording():
                conv2d(parts, kern, residual)
            assert ran == self.HELPERS[route]
            got = self._run(conv2d, lambda: parts, kern, (residual,), u, leaves)
        assert set(spans) <= {(n, h, w)}
        trimmed = convops._live_window(h, w, kern)[0].indices(k) != (0, k, 1)
        assert trimmed == route.startswith("trimmed")
        for g, r, t in zip(got, want, (None, *leaves)):
            assert g.dtype == dtype and g.shape == (r.shape if t is None else t.shape)
            assert g.tobytes() == r.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("op", [transposed_conv, depthwise_conv2d])
    def test_transposed_and_depthwise(self, op, dtype, rng):
        n, h, w, cin = 2, 3, 4, sum(self.WIDTHS)
        with using_dtype(dtype):
            parts = self._parts(n, h, w, rng)
            if op is transposed_conv:
                kern = ConvKernel(tensor(rng.normal(size=(2, 2, cin, 3)), requires_grad=True),
                                  tensor(rng.normal(size=(1, 1, 1, 3)), requires_grad=True),
                                  2, relu=True)
                shape = (n, 2 * h, 2 * w, 3)
            else:
                kern = ConvKernel(tensor(rng.normal(size=(3, 3, cin, 1)), requires_grad=True),
                                  tensor(rng.normal(size=(1, 1, 1, cin)), requires_grad=True),
                                  1, 2, same_pads(3, 2), relu=True)
                shape = (n, h, w, cin)
            u = tensor(rng.normal(size=shape))
            leaves = (*parts, kern.weight, kern.bias)
            want = self._run(op, lambda: self._reference(parts, h, w), kern, (), u, leaves)
            got = self._run(op, lambda: parts, kern, (), u, leaves)
        for g, r in zip(got, want):
            assert g.dtype == dtype and g.tobytes() == r.tobytes()

    @pytest.mark.parametrize("op", [conv2d, depthwise_conv2d, transposed_conv])
    def test_parts_must_fit_one_map(self, op, rng):
        kern = ConvKernel(tensor(rng.normal(size=(1, 1, 4, 1 if op is depthwise_conv2d else 2))))
        a = tensor(rng.normal(size=(1, 4, 4, 2)))
        for other in (tensor(rng.normal(size=(1, 2, 2, 2))), tensor(rng.normal(size=(2, 4, 4, 2))),
                      Tensor(rng.normal(size=(1, 4, 4, 2)))):  # float64 beside float32
            with pytest.raises(ShapeError, match=r"do not fit one map"):
                op((a, other), kern)
        with pytest.raises(ShapeError, match=r"no parts"):
            op((), kern)
        with pytest.raises(ShapeError, match=r"input has 2 channels but kernel expects 4"):
            op((a,), kern)


class TestErrorsNameTheLayer:
    """A named kernel's shape errors read ``<op> <name>: ...``; an unnamed
    kernel's read ``<op>: ...``, word for word as before names existed."""

    @pytest.mark.parametrize("name, label", [("", "conv2d"),
                                             ("block4.unit2.spatial", "conv2d block4.unit2.spatial")])
    def test_conv2d(self, rng, name, label):
        kern = ConvKernel(tensor(rng.normal(size=(3, 3, 4, 2))), name=name)
        with pytest.raises(ShapeError, match=rf"^{label}: input has 2 channels but kernel "
                                             r"expects 4$"):
            conv2d(tensor(rng.normal(size=(1, 4, 4, 2))), kern)
        with pytest.raises(ShapeError, match=rf"^{label}: non-positive output size "):
            conv2d(tensor(rng.normal(size=(1, 2, 2, 4))), kern)
        with pytest.raises(ShapeError, match=rf"^{label}: residual shape \(1, 4, 4, 4\) "
                                             r"differs from the output's \(1, 2, 2, 2\)$"):
            conv2d(tensor(rng.normal(size=(1, 4, 4, 4))), kern,
                   tensor(rng.normal(size=(1, 4, 4, 4))))

    @pytest.mark.parametrize("name, label", [("", "depthwise_conv2d"),
                                             ("msif.branch1.dw", "depthwise_conv2d msif.branch1.dw")])
    def test_depthwise(self, rng, name, label):
        kern = ConvKernel(tensor(rng.normal(size=(3, 3, 4, 2))), name=name)
        with pytest.raises(ShapeError, match=rf"^{label}: channel multiplier must be 1, got 2$"):
            depthwise_conv2d(tensor(rng.normal(size=(1, 4, 4, 4))), kern)
        kern = replace(kern, weight=tensor(rng.normal(size=(3, 3, 4, 1))))
        with pytest.raises(ShapeError, match=rf"^{label}: input has 3 channels"):
            depthwise_conv2d(tensor(rng.normal(size=(1, 4, 4, 3))), kern)
