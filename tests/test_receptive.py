import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnet.convops import ConvKernel, conv2d, dilated_kernel_extent, same_pads
from dnet.errors import ShapeError
from dnet.model import DOWNSAMPLE_FACTOR, DNet, DNetConfig, encoder_layer_specs
from dnet.tensor import Tensor
from dnet.receptive import CoverageReport, LayerSpec, coverage_map, rf_single, rf_stack


def conv_layers(*specs):
    return [LayerSpec("conv", k, s, r) for (k, s, r) in specs]


class TestRFSingle:
    def test_worked_value(self):
        assert rf_single(3, 4) == 9

    def test_no_dilation(self):
        for k in range(1, 9):
            assert rf_single(k, 1) == k

    def test_formula_by_hand(self):
        assert rf_single(5, 3) == 13

    def test_coincides_with_dilated_extent_on_grid(self):
        for k in range(1, 9):
            for r in range(1, 9):
                assert rf_single(k, r) == dilated_kernel_extent(k, r)


def brute_force_rf(layers) -> int:
    """Span of the bottom positions reachable from one top unit.

    Independent route: propagate an explicit index set through the stack,
    layer by layer, using only each layer's tap geometry.
    """
    positions = {0}
    for layer in reversed(list(layers)):
        positions = {
            p * layer.s + i * layer.r for p in positions for i in range(layer.k)
        }
    return max(positions) - min(positions) + 1


class TestRFStack:
    def test_two_layer_worked_example(self):
        report = rf_stack(conv_layers((5, 1, 1), (9, 1, 1)))
        assert report.final_rf == 13

    def test_two_3x3_convs(self):
        assert rf_stack(conv_layers((3, 1, 1), (3, 1, 1))).final_rf == 5

    def test_stride_jump_example(self):
        layers = [
            LayerSpec("conv", 3, 1, 1),
            LayerSpec("pool", 2, 2, 1),
            LayerSpec("conv", 3, 1, 1),
        ]
        assert rf_stack(layers).final_rf == 8

    def test_all_stride1_two_layers_reduce_to_sum_rule(self):
        for k1 in range(1, 6):
            for k2 in range(1, 6):
                report = rf_stack(conv_layers((k1, 1, 1), (k2, 1, 1)))
                assert report.final_rf == k1 + k2 - 1

    def test_empty_stack_rejected(self):
        with pytest.raises(ShapeError):
            rf_stack([])

    def test_monotone_through_stack(self):
        report = rf_stack(conv_layers((3, 2, 1), (3, 1, 2), (3, 2, 1), (3, 1, 4)))
        rfs = [row.rf for row in report.layers]
        jumps = [row.jump for row in report.layers]
        assert rfs == sorted(rfs)
        assert jumps == sorted(jumps)

    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(
            st.tuples(st.integers(1, 4), st.integers(1, 3), st.integers(1, 4)),
            min_size=1,
            max_size=4,
        )
    )
    def test_matches_brute_force_dependency_trace(self, specs):
        layers = conv_layers(*specs)
        assert rf_stack(layers).final_rf == brute_force_rf(layers)

    def test_tconv_uses_fractional_jump(self):
        layers = [LayerSpec("conv", 3, 2, 1), LayerSpec("tconv", 2, 2, 1)]
        report = rf_stack(layers)
        assert report.final_jump == 1
        assert report.coverage is None  # not an integral dependency trace


def coverage_oracle_numeric(dilations, k=3):
    """Reachability by actual 1-D convolutions with all-ones dilated kernels."""
    influence = np.ones(1)
    for d in dilations:
        taps = np.zeros(dilated_kernel_extent(k, d))
        taps[::d] = 1.0
        influence = np.convolve(influence, taps, mode="full")
    reachable = influence > 0
    holes = tuple(int(i) for i in np.nonzero(~reachable)[0])
    return bool(reachable.all()), holes


class TestCoverage:
    def test_equal_rates_leave_holes(self):
        assert coverage_map((2, 2, 2)).dense is False

    def test_increasing_rates_dense(self):
        assert coverage_map((1, 2, 3)).dense is True

    def test_plain_convolutions_dense(self):
        assert coverage_map((1, 1, 1)).dense is True

    def test_all_triples_match_numeric_oracle(self):
        for triple in itertools.product(range(1, 5), repeat=3):
            report = coverage_map(triple)
            dense, holes = coverage_oracle_numeric(triple)
            assert report.dense == dense, triple
            assert report.holes == holes, triple

    @settings(deadline=None, max_examples=40)
    @given(
        st.lists(st.integers(1, 4), min_size=1, max_size=4),
        st.sampled_from([2, 3, 5]),
    )
    def test_random_cascades_match_numeric_oracle(self, dilations, k):
        report = coverage_map(dilations, k=k)
        dense, holes = coverage_oracle_numeric(dilations, k=k)
        assert report.dense == dense
        assert report.holes == holes

    @pytest.mark.parametrize("dilations, dense", [
        ((2, 4, 8), False), ((2, 2, 2), False), ((1, 2, 3), True), ((1, 2, 5), True),
    ])
    def test_nan_reach_through_conv2d_cascade(self, dilations, dense):
        # One NaN pixel at the centre of a 1x128 row, through three 3x3
        # conv2d kernels: the outputs it turns NaN, as offsets from the
        # pixel, are the positions one output reads, holes and all.
        rng = np.random.default_rng(0)
        x = np.zeros((1, 1, 128, 1), dtype=np.float32)
        x[0, 0, 64, 0] = np.nan
        h = Tensor(x)
        for d in dilations:
            w = rng.uniform(0.5, 1.0, size=(3, 3, 1, 1)).astype(np.float32)
            h = conv2d(h, ConvKernel(Tensor(w), None, 1, d, same_pads(3, d)))
        offsets = {64 - int(o) for o in np.flatnonzero(np.isnan(h.data[0, 0, :, 0]))}
        lo, hi = min(offsets), max(offsets)
        holes = tuple(q - lo for q in range(lo, hi + 1) if q not in offsets)
        assert coverage_map(dilations) == CoverageReport(dense=not holes, holes=holes)
        assert dense == (not holes)
        assert hi - lo + 1 == rf_stack(conv_layers(*((3, 1, d) for d in dilations))).final_rf

    def test_sufficient_condition_for_density(self):
        # d1 = 1 and d_{i+1} <= d_i * (k - 1) + 1 guarantees no holes (k = 3).
        k = 3
        for triple in itertools.product(range(1, 5), repeat=3):
            d1, d2, d3 = triple
            if d1 == 1 and d2 <= d1 * (k - 1) + 1 and d3 <= d2 * (k - 1) + 1:
                assert coverage_map(triple, k=k).dense, triple

    @settings(deadline=None, max_examples=40)
    @given(
        st.lists(st.integers(1, 4), min_size=1, max_size=3),
        st.integers(0, 2),
        st.integers(1, 3),
    )
    def test_monotonicity_in_any_single_dilation(self, dilations, pos, bump):
        pos = pos % len(dilations)
        bumped = list(dilations)
        bumped[pos] += bump
        base = rf_stack(conv_layers(*((3, 1, d) for d in dilations)))
        more = rf_stack(conv_layers(*((3, 1, d) for d in bumped)))
        assert more.final_rf >= base.final_rf


def nan_probe_extent(cfg: DNetConfig) -> int:
    """The encoder's receptive field, measured on the network itself: one
    NaN input row per offset over one output period, the NaN rows of stage
    5's output collected as row - 16 * output row, and the extent of that
    set returned. max_pool and every conv (ReLU included) carry a NaN from
    any input they read."""
    encoder = DNet(cfg, seed=0).encoder
    x = np.random.default_rng(1).uniform(size=(1, 1280, 16, 3)).astype(np.float32)
    offsets = set()
    for j in range(DOWNSAMPLE_FACTOR):
        probe = x.copy()
        probe[0, 640 + j] = np.nan
        stage5 = encoder(Tensor(probe)).deep[2].data
        assert stage5.shape[1] == 1280 // DOWNSAMPLE_FACTOR
        rows = np.flatnonzero(np.isnan(stage5).any(axis=(0, 2, 3)))
        offsets |= {640 + j - DOWNSAMPLE_FACTOR * int(o) for o in rows}
    return max(offsets) - min(offsets) + 1


class TestNetworkRF:
    @pytest.mark.parametrize("dilations, field", [
        ((1, 1, 1), 351), ((1, 2, 3), 543), ((1, 2, 4), 607),
    ])
    def test_nan_propagation_measures_the_derived_field(self, dilations, field):
        cfg = DNetConfig(dilations=dilations, channels_scale=0.0625)
        report = rf_stack(encoder_layer_specs(cfg))
        assert nan_probe_extent(cfg) == report.final_rf == field
        assert report.final_jump == DOWNSAMPLE_FACTOR

    def test_single_root_conv(self):
        report = rf_stack([LayerSpec("conv", 3, 2, 1, "root")])
        assert report.final_rf == 3
        assert report.final_jump == 2

    def test_dilation_strictly_widens_encoder_rf(self):
        rfs = []
        for dil in ((1, 1, 1), (1, 2, 3), (1, 2, 4)):
            cfg = DNetConfig(dilations=dil, channels_scale=0.125)
            rfs.append(rf_stack(encoder_layer_specs(cfg)).final_rf)
        assert rfs[0] < rfs[1] < rfs[2]

    def test_same_arch_twice_identical(self):
        cfg = DNetConfig(channels_scale=0.125)
        a = rf_stack(encoder_layer_specs(cfg))
        b = rf_stack(encoder_layer_specs(cfg))
        assert a == b

    def test_rejects_non_layerspec_path(self):
        with pytest.raises(ShapeError):
            rf_stack([("conv", 3, 1, 1)])

    def test_encoder_path_is_dense_for_increasing_rates(self):
        cfg = DNetConfig(dilations=(1, 2, 4))
        report = rf_stack(encoder_layer_specs(cfg))
        assert report.coverage is not None and report.coverage.dense
