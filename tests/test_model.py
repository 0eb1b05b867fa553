import dataclasses
import os
import re
import struct
import tracemalloc

import numpy as np
import pytest

from dnet.errors import CheckpointError, ConfigError, ShapeError
from dnet import model as model_module
from dnet.convops import ConvKernel, conv2d, same_pads, using_deterministic
from dnet.model import (
    BLOCK_WIDTHS,
    CHECKPOINT_MAGIC,
    DECODER_WIDTHS,
    DNet,
    DNetConfig,
    EncoderFeatures,
    ResidualBottleneck,
    _Builder,
    encoder_layer_specs,
    load_checkpoint,
    save_checkpoint,
)
from dnet.tensor import Tensor, backward, recording, using_dtype
from dnet.losses import sigmoid, total_loss
from dnet.training import predict_probs

from conftest import concat_channels, conv2d_naive, fd_grad_entries, max_rel_err, tensor

TINY = dict(channels_scale=0.125)


def make_builder(seed=0):
    return _Builder(np.random.default_rng(seed))


class TestConfig:
    def test_defaults_valid(self):
        cfg = DNetConfig()
        assert cfg.dilations == (1, 2, 4)
        assert cfg.msif_rates == (3, 6, 12)

    def test_dilations_must_increase_or_be_ones(self):
        DNetConfig(dilations=(1, 1, 1))
        DNetConfig(dilations=(1, 2, 3))
        with pytest.raises(ConfigError):
            DNetConfig(dilations=(2, 2, 2))
        with pytest.raises(ConfigError):
            DNetConfig(dilations=(1, 3, 2))
        with pytest.raises(ConfigError):
            DNetConfig(dilations=(0, 1, 2))

    def test_msif_rates_same_rule(self):
        DNetConfig(msif_rates=(1, 1, 1))
        with pytest.raises(ConfigError):
            DNetConfig(msif_rates=(3, 3, 3))

    def test_scale_must_be_storable(self):
        DNetConfig(channels_scale=0.125)
        with pytest.raises(ConfigError):
            DNetConfig(channels_scale=1e-9)

    def test_width_floor_is_one(self):
        cfg = DNetConfig(channels_scale=0.001)
        assert cfg.width(64) == 1


class TestResidualBottleneck:
    def test_zero_weights_identity_shortcut_gives_relu(self, rng):
        builder = make_builder()
        block = ResidualBottleneck(builder, "b", cin=4, widths=(2, 2, 4))
        assert block.project is None
        for name, p in builder.params.items():
            p.data = np.zeros_like(p.data)
        v = tensor(rng.normal(size=(1, 3, 3, 4)))
        out = block(v)
        assert np.array_equal(out.data, np.maximum(v.data, 0.0))

    def test_scalar_hand_chain(self):
        builder = make_builder()
        block = ResidualBottleneck(builder, "b", cin=1, widths=(1, 1, 1))
        p = builder.params
        p["b.reduce.w"].data = np.full((1, 1, 1, 1), 3.0, np.float32)
        p["b.reduce.b"].data = np.full((1, 1, 1, 1), 1.0, np.float32)
        p["b.spatial.w"].data = np.ones((3, 3, 1, 1), np.float32)
        p["b.spatial.b"].data = np.zeros((1, 1, 1, 1), np.float32)
        p["b.restore.w"].data = np.full((1, 1, 1, 1), 0.5, np.float32)
        p["b.restore.b"].data = np.zeros((1, 1, 1, 1), np.float32)
        v = tensor([2.0], shape=(1, 1, 1, 1))
        # reduce: 2*3+1=7, relu 7; spatial (center tap only on 1x1): 7; restore: 3.5
        # shortcut identity: relu(2 + 3.5) = 5.5
        assert block(v).item() == pytest.approx(5.5)

    def test_projection_present_when_channels_change(self):
        builder = make_builder()
        block = ResidualBottleneck(builder, "b", cin=4, widths=(2, 2, 8))
        assert block.project is not None

    def test_block3_output_channels_full_scale(self, rng):
        builder = make_builder()
        block = ResidualBottleneck(builder, "b3", cin=128, widths=BLOCK_WIDTHS[3])
        v = tensor(rng.normal(size=(1, 2, 2, 128)))
        assert block(v).shape[3] == 256

    def test_channel_mismatch_rejected(self, rng):
        builder = make_builder()
        block = ResidualBottleneck(builder, "b", cin=4, widths=(2, 2, 4))
        with pytest.raises(ShapeError):
            block(tensor(rng.normal(size=(1, 2, 2, 3))))


class TestEncoder:
    def test_shape_contract_full_scale(self, rng):
        enc = DNet(DNetConfig(), seed=0).encoder
        x = tensor(rng.uniform(size=(1, 64, 64, 3)))
        feats = enc(x)
        b3, b4, b5 = feats.deep
        assert b3.shape == (1, 4, 4, 256)
        assert b4.shape == (1, 4, 4, 512)
        assert b5.shape == (1, 4, 4, 256)
        assert feats.skip2.shape[1:3] == (32, 32)
        assert feats.skip4.shape[1:3] == (16, 16)
        assert feats.skip8.shape[1:3] == (8, 8)

    def test_indivisible_input_rejected(self, rng):
        enc = DNet(DNetConfig(**TINY), seed=0).encoder
        with pytest.raises(ShapeError):
            enc(tensor(rng.uniform(size=(1, 60, 64, 3))))

    def test_plain_triple_has_no_dilation(self):
        cfg = DNetConfig(dilations=(1, 1, 1), msif_rates=(1, 1, 1), **TINY)
        model = DNet(cfg, seed=0)
        kernels = _collect_kernels(model)
        assert kernels, "expected to find convolution kernels"
        assert all(k.dilation == 1 for k in kernels)

    def test_every_conv_passes_d1_oracle_on_plain_triple(self, rng):
        # With all rates 1, spot-check actual network kernels against the
        # naive direct-loop oracle, bit for bit.
        cfg = DNetConfig(dilations=(1, 1, 1), msif_rates=(1, 1, 1), **TINY)
        model = DNet(cfg, seed=0)
        kernels = [k for k in _collect_kernels(model) if k.weight.shape[3] > 1]
        for kern in kernels[:: max(1, len(kernels) // 6)]:
            kh, kw, cin, cout = kern.weight.shape
            x = tensor(rng.normal(size=(1, 8, 8, cin)))
            got = conv2d(x, kern).data
            bias = kern.bias.data if kern.bias is not None else None
            want = conv2d_naive(
                x.data, kern.weight.data, bias, kern.stride, kern.dilation, kern.padding
            )
            assert np.array_equal(got, np.maximum(want, 0) if kern.relu else want)

    def test_relu_rides_every_kernel_but_the_linear_ones(self):
        # The projections feed the restore conv's residual sum, the
        # depthwise convs feed their pointwise mix and the head emits
        # logits; every other kernel carries its ReLU, the restores after
        # their shortcut sum.
        model = DNet(DNetConfig(**TINY), seed=0)
        names = {id(t): name for name, t in model.parameters().items()}
        linear = sorted(names[id(k.weight)] for k in _collect_kernels(model) if not k.relu)
        suffixes = (".project.w", ".dw.w", "decoder.head.w")
        assert linear == sorted(n for n in names.values() if n.endswith(suffixes))


def _collect_kernels(model) -> list[ConvKernel]:
    kernels = []
    enc = model.encoder
    kernels.extend([enc.root1, enc.root2, enc.root3])
    for stage in enc.blocks:
        for block in stage:
            kernels.extend([block.reduce, block.spatial, block.restore])
            if block.project is not None:
                kernels.append(block.project)
    if model.msif is not None:
        kernels.append(model.msif.point)
        for dw, pw in model.msif.sep_branches:
            kernels.extend([dw, pw])
        kernels.extend([model.msif.gap_conv, model.msif.fuse])
    dec = model.decoder
    for up, fuse in dec.stages:
        kernels.extend([up, fuse])
    kernels.extend([dec.up4, dec.refine1, dec.refine2, dec.head])
    return kernels


class TestEncoderConcat:
    def test_channel_sum(self, rng):
        parts = [tensor(rng.normal(size=(1, 4, 4, c))) for c in (256, 512, 256)]
        assert concat_channels(parts).shape == (1, 4, 4, 1024)

    def test_constant_layout(self):
        b3 = tensor(np.full((1, 2, 2, 256), 1.0))
        b4 = tensor(np.full((1, 2, 2, 512), 2.0))
        b5 = tensor(np.full((1, 2, 2, 256), 3.0))
        g = concat_channels((b3, b4, b5))
        assert np.all(g.data[..., :256] == 1.0)
        assert np.all(g.data[..., 256:768] == 2.0)
        assert np.all(g.data[..., 768:] == 3.0)

    def test_spatial_mismatch_rejected(self, rng):
        with pytest.raises(ShapeError):
            concat_channels(
                (
                    tensor(rng.normal(size=(1, 4, 4, 2))),
                    tensor(rng.normal(size=(1, 2, 2, 2))),
                    tensor(rng.normal(size=(1, 4, 4, 2))),
                )
            )


class TestMSIF:
    def test_output_width_full_scale(self, rng):
        model = DNet(DNetConfig(), seed=0)
        g = tensor(rng.normal(size=(1, 4, 4, 1024)))
        u = model.msif(g)
        assert u.shape == (1, 4, 4, 256)

    def test_branch_count_and_fused_input_width(self):
        model = DNet(DNetConfig(), seed=0)
        assert len(model.msif.sep_branches) == 3
        assert model.msif.fuse.in_channels == 5 * 256  # M = 1280 channels

    def test_constant_input_gap_branch(self, rng):
        model = DNet(DNetConfig(**TINY), seed=0)
        cin = model.msif.point.in_channels
        g = tensor(np.full((1, 4, 4, cin), 0.75))
        branches = model.msif.branch_outputs(g)
        from dnet.convops import global_avg_pool

        # spatial mean of a constant map is that constant, per channel
        pooled = global_avg_pool(g)
        assert np.allclose(pooled.data, 0.75)
        # pointwise and gap branches see no borders: spatially constant
        for branch in (branches[0], branches[-1]):
            flat = branch.data.reshape(branch.shape[0], -1, branch.shape[3])
            assert np.allclose(flat, flat[:, :1, :], atol=1e-6)

    def test_disabled_config_builds_no_module(self):
        model = DNet(DNetConfig(msif_enabled=False, **TINY), seed=0)
        assert model.msif is None

    def test_separable_branches_cheaper_than_standard(self):
        model = DNet(DNetConfig(), seed=0)
        separable = 0
        standard = 0
        for dw, pw in model.msif.sep_branches:
            kh, kw, cin, _ = dw.weight.shape
            cout = pw.weight.shape[3]
            separable += kh * kw * cin + cin * cout
            standard += kh * kw * cin * cout
        assert separable < standard


class TestDecoder:
    def test_full_pipeline_shapes(self, rng):
        model = DNet(DNetConfig(**TINY), seed=0)
        x = tensor(rng.uniform(size=(1, 64, 64, 3)))
        logits = model(x)
        assert logits.shape == (1, 64, 64, 1)

    def test_zero_weights_constant_logits(self, rng):
        model = DNet(DNetConfig(**TINY), seed=0)
        for p in model.parameters().values():
            p.data = np.zeros_like(p.data)
        x = tensor(rng.uniform(size=(1, 32, 32, 3)))
        logits = model(x)
        assert np.all(logits.data == 0.0)  # everything collapses to the head bias

    @pytest.mark.parametrize("msif", [True, False])
    def test_decoder_takes_its_input_and_skips_out_of_feats(self, msif, rng):
        # The decoder empties the container, so no caller holds MSIF's output
        # or, without MSIF, the deep stage outputs past their last reader.
        model = DNet(DNetConfig(msif_enabled=msif, **TINY), seed=0)
        feats = model.encoder(tensor(rng.uniform(size=(1, 32, 32, 3))))
        if msif:
            feats.deep = model.msif(feats.deep)
        assert model.decoder(feats).shape == (1, 32, 32, 1)
        assert feats == EncoderFeatures(None, None, None, None)

    def test_permuted_skips_rejected(self, rng):
        model = DNet(DNetConfig(**TINY), seed=0)
        x = tensor(rng.uniform(size=(1, 64, 64, 3)))
        feats = model.encoder(x)
        u = model.msif(concat_channels(feats.deep))
        with pytest.raises(ShapeError):
            model.decoder(dataclasses.replace(feats, deep=u, skip8=feats.skip4, skip4=feats.skip8))


class TestDNetForward:
    def test_probability_range_and_shape(self, rng):
        model = DNet(DNetConfig(**TINY), seed=0)
        p = sigmoid(model(tensor(rng.uniform(size=(1, 64, 64, 3)))).data)
        assert p.shape == (1, 64, 64, 1)
        assert p.min() > 0.0 and p.max() < 1.0

    def test_non_square_input(self, rng):
        model = DNet(DNetConfig(**TINY), seed=0)
        assert model(tensor(rng.uniform(size=(1, 32, 48, 3)))).shape == (1, 32, 48, 1)

    def test_deterministic_forward(self, rng):
        model = DNet(DNetConfig(**TINY), seed=0)
        x = tensor(rng.uniform(size=(2, 32, 32, 3)))
        assert np.array_equal(model(x).data, model(x).data)

    def test_bad_input_size_rejected(self, rng):
        model = DNet(DNetConfig(**TINY), seed=0)
        with pytest.raises(ShapeError):
            model(tensor(rng.uniform(size=(1, 30, 30, 3))))

    def test_msif_disabled_end_to_end(self, rng):
        model = DNet(DNetConfig(msif_enabled=False, **TINY), seed=0)
        p = model(tensor(rng.uniform(size=(1, 32, 32, 3))))
        assert p.shape == (1, 32, 32, 1)

    def test_stages_compose_to_forward_and_predict_probs(self, rng):
        # The encoder, fusion and decoder are the forward's stages; running
        # them by hand reproduces the forward and predict_probs bit for bit.
        model = DNet(DNetConfig(**TINY), seed=0)
        image = rng.uniform(size=(32, 48, 3))
        x = tensor(image[None])
        with using_deterministic(True):
            f = model.encoder(x)
            f.deep = model.msif(concat_channels(f.deep))
            staged = model.decoder(f)
            assert np.array_equal(staged.data, model(x).data)
            probs = predict_probs(model, image)
        assert np.array_equal(probs, sigmoid(staged.data)[0, :, :, 0])

    def test_full_width_predict_holds_no_full_resolution_map(self):
        # The whole-map decoder holds the last doubling's map and refine1's
        # output, two full-resolution 32-channel maps, at once: 18.6 MB at
        # 256x256. The streamed decoder's blocks hold under a quarter of one
        # each, beside skip2 (half of one), so the peak is set by the encoder
        # and MSIF, under one and a half such maps.
        size = 256
        net = DNet(DNetConfig(), seed=0)
        image = np.random.default_rng(0).uniform(size=(size, size, 3)).astype(np.float32)
        with using_deterministic(False):
            tracemalloc.start()
            try:
                probs = predict_probs(net, image)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        largest = size * size * DECODER_WIDTHS[-1] * 4
        assert probs.shape == (size, size)
        assert peak < largest + largest // 2


class TestStreamedDecoder:
    """Without a tape the decoder runs its 1/2- and full-resolution stages in
    blocks of output rows (``_STREAM_ROWS``, made small here); with one it
    runs them over the whole map. Both give the same bytes, in both modes."""

    @pytest.mark.parametrize("deterministic, shape, rows, scale, msif", [
        (True, (2, 64, 64), 24, 0.125, True),  # blocks of 22, 21 and 21 rows
        (True, (1, 48, 80), 16, 0.25, False),
        (True, (1, 96, 32), 40, 0.125, True),
        (False, (2, 64, 64), 24, 0.125, True),
        (False, (1, 128, 96), 48, 0.125, False),  # 43, 43 and 42 rows
        (False, (1, 128, 64), 56, 1.0, True),
    ])
    def test_blocks_give_the_whole_map_bytes(self, deterministic, shape, rows, scale, msif,
                                             rng, monkeypatch):
        monkeypatch.setattr(model_module, "_STREAM_ROWS", rows)
        net = DNet(DNetConfig(channels_scale=scale, msif_enabled=msif), seed=0)
        x = tensor(rng.uniform(size=(*shape, 3)))
        blocks = model_module._row_blocks(shape[1], rows)
        assert len(blocks) > 1 and blocks[-1][1] - blocks[-1][0] <= rows
        heads = []
        conv = model_module.conv2d

        def spy(x, kernel, *args):
            y = conv(x, kernel, *args)
            if kernel is net.decoder.head:
                heads.append(y.shape[1])
            return y

        monkeypatch.setattr(model_module, "conv2d", spy)
        with using_deterministic(deterministic):
            with recording() as tape:
                whole = net(x).data
            assert heads == [shape[1]]
            streamed = net(x).data
        assert heads[1:] == [r1 - r0 for r0, r1 in blocks]
        assert streamed.tobytes() == whole.tobytes()
        assert len(tape) == (76 if msif else 64)  # MSIF: 9 convs and 3 pools

    def test_row_blocks_are_few_and_even(self):
        for height in range(1, 200):
            for rows in (1, 7, 16, 64):
                blocks = model_module._row_blocks(height, rows)
                sizes = [r1 - r0 for r0, r1 in blocks]
                assert blocks[0][0] == 0 and blocks[-1][1] == height
                assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
                assert len(blocks) == -(-height // rows) and max(sizes) <= rows
                assert sizes == sorted(sizes, reverse=True) and sizes[0] - sizes[-1] <= 1


class TestEndToEndGradients:
    def test_sampled_parameters_match_finite_differences(self, rng):
        with using_dtype(np.float64):
            cfg = DNetConfig(**TINY)
            model = DNet(cfg, seed=3)
            x = tensor(rng.uniform(0.2, 0.8, size=(1, 16, 16, 3)))
            target = tensor((rng.uniform(size=(1, 16, 16, 1)) > 0.7).astype(np.float64))
            reg = model.kernel_parameters()

            def loss_fn():
                return total_loss(model(x), target, reg, 1e-3, 1.0).item()

            with recording() as g:
                grads = backward(total_loss(model(x), target, reg, 1e-3, 1.0), g)

            picks = [
                "root.conv1.w", "block2.unit1.spatial.w", "block4.unit2.spatial.w",
                "block5.unit3.restore.w", "msif.branch2.dw.w", "msif.fuse.w",
                "decoder.up2.w", "decoder.head.b",
            ]
            for name in picks:
                p = model.parameters()[name]
                entries = rng.choice(p.data.size, size=min(4, p.data.size), replace=False)
                # eps below the typical distance to relu/argmax kinks
                fd = fd_grad_entries(loss_fn, p, entries, eps=1e-5)
                analytic = grads[p].reshape(-1)[entries]
                assert max_rel_err(analytic, fd) < 1e-3, name


def _split_checkpoint(data: bytes):
    """Header bytes (magic included) and the (name, dims, payload) records."""
    off = len(CHECKPOINT_MAGIC) + 11 * 4
    header, records = data[:off], []
    while off < len(data):
        (name_len,) = struct.unpack_from("<I", data, off)
        name = data[off + 4 : off + 4 + name_len].decode("utf-8")
        off += 4 + name_len
        dims = struct.unpack_from("<4I", data, off)
        size = 4 * int(np.prod(dims))
        records.append((name, dims, data[off + 16 : off + 16 + size]))
        off += 16 + size
    return header, records


def _join_checkpoint(header: bytes, records) -> bytes:
    out = bytearray(header)
    struct.pack_into("<I", out, len(out) - 4, len(records))  # n_params, last header word
    for name, dims, payload in records:
        encoded = name.encode("utf-8")
        out += struct.pack("<I", len(encoded)) + encoded + struct.pack("<4I", *dims) + payload
    return bytes(out)


def _edit_records(edit):
    """A defect that rewrites the parameter records with ``edit``."""

    def defect(data: bytes) -> bytes:
        header, records = _split_checkpoint(data)
        return _join_checkpoint(header, edit(records))

    return defect


def _reshape_first(records):
    name, (kh, kw, cin, cout), payload = records[0]
    return [(name, (1, kh * kw, cin, cout), payload)] + records[1:]


# defect -> (file edit, what the message must say after the path)
CHECKPOINT_DEFECTS = {
    "bad magic": (lambda data: b"NOTDN" + data[5:], "bad magic"),
    "truncated": (lambda data: data[: len(data) // 2], "truncated"),
    "trailing data": (lambda data: data + b"\x00", "trailing data"),
    "zero dilation": (lambda data: data[:5] + b"\x00" * 4 + data[9:], "dilations"),
    "unknown parameter": (
        _edit_records(lambda r: [("no.such.param", *r[0][1:])] + r[1:]), "unknown parameter"
    ),
    "shape mismatch": (_edit_records(_reshape_first), "has shape"),
    "missing parameter": (_edit_records(lambda r: r[:-1]), "missing parameters"),
    # the first record's name length, read before anything is allocated for it
    "name length": (
        lambda data: data[:49] + b"\xff" * 4 + data[53:],
        r"truncated: 4294967295 bytes wanted, \d+ left",
    ),
}


class TestCheckpoint:
    @pytest.mark.parametrize("defect", sorted(CHECKPOINT_DEFECTS))
    def test_defect_names_the_file(self, defect, tmp_path):
        model = DNet(DNetConfig(**TINY), seed=0)
        path = tmp_path / "under-test.dnet"
        save_checkpoint(model, path)
        assert _join_checkpoint(*_split_checkpoint(path.read_bytes())) == path.read_bytes()
        edit, says = CHECKPOINT_DEFECTS[defect]
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(CheckpointError, match=re.escape(f"{path}: ") + ".*" + says):
            load_checkpoint(path)

    def test_round_trip_bit_exact(self, tmp_path, rng):
        model = DNet(DNetConfig(dilations=(1, 2, 3), msif_rates=(3, 6, 8), **TINY), seed=7)
        first = tmp_path / "a.dnet"
        second = tmp_path / "b.dnet"
        save_checkpoint(model, first)
        reloaded = load_checkpoint(first)
        save_checkpoint(reloaded, second)
        assert first.read_bytes() == second.read_bytes()
        assert reloaded.cfg == model.cfg
        for name, p in model.parameters().items():
            assert np.array_equal(p.data, reloaded.parameters()[name].data)

    def test_load_draws_no_random_numbers(self, tmp_path, monkeypatch):
        model = DNet(DNetConfig(**TINY), seed=5)
        first = tmp_path / "a.dnet"
        second = tmp_path / "b.dnet"
        save_checkpoint(model, first)

        def no_draws(*args, **kwargs):
            raise AssertionError("load_checkpoint drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        reloaded = load_checkpoint(first)
        save_checkpoint(reloaded, second)
        assert first.read_bytes() == second.read_bytes()
        assert list(reloaded.parameters()) == list(model.parameters())
        for name, p in model.parameters().items():
            assert np.array_equal(p.data, reloaded.parameters()[name].data), name

    def test_failed_save_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "m.dnet"
        save_checkpoint(DNet(DNetConfig(**TINY), seed=0), path)
        before = path.read_bytes()
        model = DNet(DNetConfig(**TINY), seed=1)
        last = list(model.parameters().values())[-1]
        last.data = last.data.reshape(-1)  # packing its 4 dims fails after the other tensors
        with pytest.raises(struct.error):
            save_checkpoint(model, path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_save_is_on_disk_before_it_replaces_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "m.dnet"
        calls = []
        fsync, replace = os.fsync, os.replace

        def spy_fsync(fd):
            calls.append(("fsync", os.fstat(fd).st_size))
            fsync(fd)

        def spy_replace(src, dst):
            calls.append(("replace", os.path.getsize(src)))
            replace(src, dst)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        monkeypatch.setattr(os, "replace", spy_replace)
        save_checkpoint(DNet(DNetConfig(**TINY), seed=0), path)
        # The whole file was flushed to the descriptor that fsync synced.
        size = path.stat().st_size
        assert calls == [("fsync", size), ("replace", size)]

    def test_forward_identical_after_reload(self, tmp_path, rng):
        model = DNet(DNetConfig(**TINY), seed=1)
        path = tmp_path / "m.dnet"
        save_checkpoint(model, path)
        reloaded = load_checkpoint(path)
        x = tensor(rng.uniform(size=(1, 32, 32, 3)))
        assert np.array_equal(model(x).data, reloaded(x).data)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.dnet"
        path.write_bytes(b"NOTDN" + b"\x00" * 64)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncated_rejected(self, tmp_path):
        model = DNet(DNetConfig(**TINY), seed=0)
        path = tmp_path / "m.dnet"
        save_checkpoint(model, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    # Header words: the eighth is in_ch (always 3), the tenth the retired
    # batch-norm flag (always 0).
    @pytest.mark.parametrize(
        "word, written, message",
        [(9, 0, "batch-norm flag is set"), (7, 3, "1 input channels")],
        ids=["bn", "in_ch"],
    )
    def test_nonzero_batchnorm_slot_rejected(self, tmp_path, word, written, message):
        model = DNet(DNetConfig(**TINY), seed=0)
        path = tmp_path / "m.dnet"
        save_checkpoint(model, path)
        data = bytearray(path.read_bytes())
        slot = len(CHECKPOINT_MAGIC) + word * 4
        assert data[slot : slot + 4] == written.to_bytes(4, "little")
        data[slot] = 1
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match=f"m.dnet: {message}"):
            load_checkpoint(path)


class TestEncoderLayerSpecs:
    def test_deepest_path_length(self):
        layers = encoder_layer_specs(DNetConfig())
        # 4 root layers + 5 stages * 3 units * 3 convs
        assert len(layers) == 4 + 45

    def test_dilations_land_on_late_spatial_convs(self):
        layers = encoder_layer_specs(DNetConfig(dilations=(1, 2, 4)))
        spatial_rates = [
            l.r for l in layers if l.name.endswith(".spatial") and "block4" in l.name
        ]
        assert spatial_rates == [1, 2, 4]

    def test_kernel_names_are_checkpoint_prefixes(self):
        model = DNet(DNetConfig(channels_scale=0.0625), seed=0)
        params = model.parameters()
        kernels = _collect_kernels(model)
        assert sorted(f"{k.name}.{p}" for k in kernels for p in "wb") == sorted(params)
        for k in kernels:
            assert params[f"{k.name}.w"] is k.weight and params[f"{k.name}.b"] is k.bias
        convs = [l.name for l in encoder_layer_specs(model.cfg) if l.kind == "conv"]
        assert set(convs) <= {k.name for k in kernels} and len(set(convs)) == len(convs) == 48

    def test_a_shape_error_names_the_layer(self):
        model = DNet(DNetConfig(channels_scale=0.0625), seed=0)
        image = Tensor(np.zeros((1, 16, 16, 4), dtype=np.float32))
        with pytest.raises(ShapeError, match=r"^conv2d root\.conv1: input has 4 channels but "
                                             r"kernel expects 3$"):
            model.forward(image)
