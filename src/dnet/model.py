"""Assembly of the dilated multi-scale segmentation network.

The encoder is a residual backbone with a total downsampling factor of 16:
a strided root block, then five stages of three bottleneck units each. The
3x3 convolutions inside the last two stages are dilated with a per-unit
rate triple (d1, d2, d3) so the receptive field grows without further
striding; the outputs of stages 3, 4 and 5 (all at 1/16 resolution) form
one feature map, their channels concatenated. A multi-scale fusion module
pools that map through five parallel branches (a 1x1 convolution, three
dilated depthwise 3x3 convolutions each mixed by a 1x1 convolution, and a
global-average branch broadcast back over the map), concatenates them, and
fuses to a fixed width. The decoder doubles resolution four times with
transposed convolutions, concatenating an encoder skip feature after each of
the first three doublings, and ends in two 3x3 refinement convolutions and a
1x1 head. The network returns that head's per-pixel logits: the training
loss takes them as they are, and ``losses.sigmoid`` of them is the vessel
probability. Each concatenation is a tuple of parts that its convolutions
read in place, and the forwards hold no map past its last reader. Without
a tape, the decoder runs its 1/2- and full-resolution stages one block of
output rows at a time, with the same bytes, so none of those maps is ever
whole.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, replace
from pathlib import Path
import numpy as np

from .errors import CheckpointError, ConfigError, ShapeError
from .tensor import Tensor, default_dtype, is_recording
from .convops import (
    ConvKernel,
    _row_blocks,
    conv2d,
    depthwise_conv2d,
    global_avg_pool,
    max_pool,
    same_pads,
    transposed_conv,
)
from .receptive import LayerSpec

__all__ = [
    "DNetConfig",
    "ResidualBottleneck",
    "Encoder",
    "EncoderFeatures",
    "MSIF",
    "Decoder",
    "DNet",
    "encoder_layer_specs",
    "save_checkpoint",
    "load_checkpoint",
    "CHECKPOINT_MAGIC",
]

DOWNSAMPLE_FACTOR = 16
IN_CHANNELS = 3  # RGB input; graymaps are repeated to three channels

# Backbone channel plan: root convs, then (reduce, spatial, restore) per
# stage. Stages 1 and 2 intentionally share one width plan and stage 5
# narrows below stage 4.
ROOT_WIDTHS = (32, 32, 64)
BLOCK_WIDTHS = {
    1: (64, 64, 128),
    2: (64, 64, 128),
    3: (128, 128, 256),
    4: (256, 256, 512),
    5: (128, 128, 256),
}
BLOCK_ENTRY_STRIDE = {1: 1, 2: 2, 3: 2, 4: 1, 5: 1}
ROOT_POOL = (3, 2)  # (k, stride) of the max pool that ends the root block
MSIF_WIDTH = 256
DECODER_WIDTHS = (128, 64, 64, 32)


def _is_valid_triple(t: tuple[int, int, int]) -> bool:
    return all(v >= 1 for v in t) and (
        t == (1, 1, 1) or (t[0] < t[1] < t[2])
    )


@dataclass(frozen=True)
class DNetConfig:
    """Architecture knobs.

    ``dilations`` is the per-unit rate triple of the last two encoder
    stages; it must be strictly increasing, except for the all-ones baseline
    used in ablations. The same rule applies to ``msif_rates``.
    ``channels_scale`` scales every width in the plan (minimum 1 channel),
    which is how desk-scale models are built.
    """

    dilations: tuple[int, int, int] = (1, 2, 4)
    msif_rates: tuple[int, int, int] = (3, 6, 12)
    msif_enabled: bool = True
    channels_scale: float = 1.0

    def __post_init__(self) -> None:
        if not _is_valid_triple(tuple(self.dilations)):
            raise ConfigError(
                f"dilations must be strictly increasing or (1,1,1), got {self.dilations}"
            )
        if not _is_valid_triple(tuple(self.msif_rates)):
            raise ConfigError(
                f"msif_rates must be strictly increasing or (1,1,1), got {self.msif_rates}"
            )
        if not (0.0 < self.channels_scale <= 64.0):
            raise ConfigError(f"channels_scale out of range: {self.channels_scale}")
        scale_micro = round(self.channels_scale * 1_000_000)
        if abs(self.channels_scale - scale_micro / 1_000_000) > 1e-12:
            raise ConfigError(
                "channels_scale must be a multiple of 1e-6 so checkpoints can store it"
            )

    def width(self, channels: int) -> int:
        return max(1, int(round(channels * self.channels_scale)))


class _Builder:
    """Seeded parameter factory with an ordered name registry.

    Initialization is fan-in-scaled uniform (bound sqrt(6 / fan_in)) for
    weights and zero for biases, keeping activations bounded without
    normalization layers. Without a generator the weights are left unset
    (``np.empty``), for a checkpoint to fill.
    """

    def __init__(self, rng: np.random.Generator | None):
        self.rng = rng
        self.params: dict[str, Tensor] = {}

    def _register(self, name: str, t: Tensor) -> Tensor:
        if name in self.params:
            raise ConfigError(f"duplicate parameter name {name!r}")
        self.params[name] = t
        return t

    def _weight(self, name: str, shape: tuple[int, ...], fan_in: int) -> Tensor:
        if self.rng is None:
            data = np.empty(shape, dtype=default_dtype())
        else:
            bound = np.sqrt(6.0 / fan_in)
            data = self.rng.uniform(-bound, bound, size=shape).astype(default_dtype())
        return self._register(name, Tensor(data, requires_grad=True))

    def _bias(self, name: str, cout: int) -> Tensor:
        t = Tensor(np.zeros((1, 1, 1, cout), dtype=default_dtype()), requires_grad=True)
        return self._register(name, t)

    def conv(
        self,
        name: str,
        k: int,
        cin: int,
        cout: int,
        stride: int = 1,
        dilation: int = 1,
        relu: bool = False,
    ) -> ConvKernel:
        w = self._weight(f"{name}.w", (k, k, cin, cout), fan_in=k * k * cin)
        b = self._bias(f"{name}.b", cout)
        return ConvKernel(w, b, stride, dilation, same_pads(k, dilation, stride), relu, name)

    def depthwise(self, name: str, k: int, c: int, dilation: int) -> ConvKernel:
        w = self._weight(f"{name}.w", (k, k, c, 1), fan_in=k * k)
        b = self._bias(f"{name}.b", c)
        return ConvKernel(w, b, 1, dilation, same_pads(k, dilation, 1), name=name)


class ResidualBottleneck:
    """1x1 reduce -> 3x3 spatial -> 1x1 restore with an additive shortcut.

    The spatial convolution carries the unit's stride and dilation. The
    shortcut is the identity unless channels or resolution change, in which
    case a 1x1 projection (with the unit's stride) aligns it. Every kernel
    but the projection carries its ReLU (``relu=True``): the restore conv
    takes the shortcut as its residual, so relu(restore(h) + shortcut) is
    its one tape node.
    """

    def __init__(
        self,
        builder: _Builder,
        name: str,
        cin: int,
        widths: tuple[int, int, int],
        stride: int = 1,
        dilation: int = 1,
    ):
        c_reduce, c_spatial, c_out = widths
        self.reduce = builder.conv(f"{name}.reduce", 1, cin, c_reduce, relu=True)
        self.spatial = builder.conv(
            f"{name}.spatial", 3, c_reduce, c_spatial, stride, dilation, relu=True
        )
        self.restore = builder.conv(f"{name}.restore", 1, c_spatial, c_out, relu=True)
        self.project = None
        if cin != c_out or stride != 1:
            self.project = builder.conv(f"{name}.project", 1, cin, c_out, stride)
        self.out_channels = c_out

    def forward(self, v: Tensor) -> Tensor:
        h = conv2d(conv2d(v, self.reduce), self.spatial)
        # Recorded here, the projection keeps the order, and so the bits, of
        # v's gradient sum as with a separate residual add: a later consumer's
        # (a stage output's concat), then the projection's, then the reduce's.
        shortcut = conv2d(v, self.project) if self.project is not None else v
        return conv2d(h, self.restore, shortcut)

    __call__ = forward


@dataclass
class EncoderFeatures:
    """What the decoder reads, each field None once handed on: ``deep``, the
    1/16 map it starts from (the encoder's deep stage outputs as parts,
    which ``DNet.forward`` replaces with MSIF's fusion of them), and the
    skips."""

    deep: Tensor | tuple[Tensor, ...] | None  # stage 3, 4 and 5 outputs, 1/16
    skip2: Tensor | None  # root output before pooling, 1/2 resolution
    skip4: Tensor | None  # pooled root output, 1/4 resolution
    skip8: Tensor | None  # stage-2 output, 1/8 resolution


class Encoder:
    """Root block plus five residual stages, total downsampling 16."""

    def __init__(self, builder: _Builder, cfg: DNetConfig):
        w = cfg.width
        c1, c2, c3 = (w(c) for c in ROOT_WIDTHS)
        self.root1 = builder.conv("root.conv1", 3, IN_CHANNELS, c1, 2, relu=True)
        self.root2 = builder.conv("root.conv2", 3, c1, c2, relu=True)
        self.root3 = builder.conv("root.conv3", 3, c2, c3, relu=True)

        self.blocks: list[list[ResidualBottleneck]] = []
        cin = c3
        for stage in range(1, 6):
            widths = tuple(w(c) for c in BLOCK_WIDTHS[stage])
            units = []
            for unit in range(3):
                block = ResidualBottleneck(
                    builder, f"block{stage}.unit{unit + 1}", cin, widths,
                    stride=BLOCK_ENTRY_STRIDE[stage] if unit == 0 else 1,
                    dilation=cfg.dilations[unit] if stage in (4, 5) else 1,
                )
                units.append(block)
                cin = block.out_channels
            self.blocks.append(units)
        self.out_channels = {
            stage: self.blocks[stage - 1][-1].out_channels for stage in range(1, 6)
        }

    def forward(self, x: Tensor) -> EncoderFeatures:
        n, h, w, c = x.shape
        if h % DOWNSAMPLE_FACTOR or w % DOWNSAMPLE_FACTOR:
            raise ShapeError(
                f"encoder input spatial dims must be divisible by {DOWNSAMPLE_FACTOR}, "
                f"got {h}x{w}"
            )
        h1 = conv2d(conv2d(conv2d(x, self.root1), self.root2), self.root3)  # 1/2
        k, s = ROOT_POOL
        pooled = max_pool(h1, k, s, same_pads(k, 1, s))  # 1/4
        stage_out = pooled
        outputs = {}
        for stage, units in enumerate(self.blocks, start=1):
            for unit in units:
                stage_out = unit(stage_out)
            outputs[stage] = stage_out
        return EncoderFeatures(
            deep=(outputs[3], outputs[4], outputs[5]),
            skip2=h1, skip4=pooled, skip8=outputs[2],
        )

    __call__ = forward


class MSIF:
    """Multi-scale fusion: five parallel branches concatenated and fused.

    The input is a Tensor or a tuple of parts (the deep stage outputs),
    read in place. Branches: a 1x1 convolution keeping the current scale,
    three dilated 3x3 depthwise convolutions at the configured rates, each
    mixed across channels by a 1x1 convolution, and a global-average branch
    (mean per part, then a 1x1 convolution to an (n, 1, 1, width) map). The
    fuse, a 1x1 convolution back to that width, reads the branches as parts
    and broadcasts the pooled one, its corner-aligned bilinear upsample.
    Each 1x1 convolution's kernel carries its ReLU; the depthwise ones none.
    """

    def __init__(self, builder: _Builder, cfg: DNetConfig, cin: int):
        width = cfg.width(MSIF_WIDTH)
        self.point = builder.conv("msif.point", 1, cin, width, relu=True)
        self.sep_branches = []
        for i, rate in enumerate(cfg.msif_rates, start=1):
            dw = builder.depthwise(f"msif.branch{i}.dw", 3, cin, rate)
            pw = builder.conv(f"msif.branch{i}.pw", 1, cin, width, relu=True)
            self.sep_branches.append((dw, pw))
        self.gap_conv = builder.conv("msif.gap", 1, cin, width, relu=True)
        self.fuse = builder.conv("msif.fuse", 1, 5 * width, width, relu=True)
        self.out_channels = width

    def branch_outputs(self, g: Tensor | tuple[Tensor, ...]) -> list[Tensor]:
        """The five branch outputs; the last is the pooled (n, 1, 1, width) map."""
        parts = (g,) if isinstance(g, Tensor) else tuple(g)
        outs = [conv2d(parts, self.point)]
        for dw, pw in self.sep_branches:
            outs.append(conv2d(depthwise_conv2d(parts, dw), pw))
        outs.append(conv2d(tuple(global_avg_pool(p) for p in parts), self.gap_conv))
        return outs

    def forward(self, g: Tensor | tuple[Tensor, ...]) -> Tensor:
        return conv2d(tuple(self.branch_outputs(g)), self.fuse)

    __call__ = forward


class Decoder:
    """Four transposed-conv doublings back to input resolution.

    The first three doublings each fuse the encoder skip of the matching
    resolution (``skip8``, ``skip4``, ``skip2``), read as a second part, by
    a 3x3 convolution; the last is followed by two 3x3 refinement
    convolutions and a 1x1 head producing single-channel logits. Each
    doubling's kernel is a 2x2 stride-2 convolution kernel, whose
    same-padding is zero. Every kernel but the head's carries its ReLU.

    The decoder takes its input and skips out of ``feats``, so each map is
    freed once read. Without a tape, the stages from the third doubling on
    run one block of ``_STREAM_ROWS`` output rows at a time (``_row_blocks``),
    and each layer makes only the rows the next one reads: a 3x3
    convolution reads one more row on each side, clipped to the map and
    padded only at its edges, and a doubling half as many rows. The halo
    rows are made again by the next block, and the head's rows are written
    into one logits array, so no 1/2- or full-resolution map is ever whole.
    Every output element sees the same products in the same order as over
    the whole map. While a tape records, the block is the whole map.
    """

    def __init__(self, builder: _Builder, cfg: DNetConfig, cin: int,
                 skip_channels: tuple[int, int, int]):
        *widths, w4 = (cfg.width(c) for c in DECODER_WIDTHS)
        # (doubling, fuse) per skip stage, registered up1, fuse1, up2, ...
        self.stages: list[tuple[ConvKernel, ConvKernel]] = []
        for i, (width, skip) in enumerate(zip(widths, skip_channels), start=1):
            up = builder.conv(f"decoder.up{i}", 2, cin, width, 2, relu=True)
            fuse = builder.conv(f"decoder.fuse{i}", 3, width + skip, width, relu=True)
            self.stages.append((up, fuse))
            cin = width
        self.up4 = builder.conv("decoder.up4", 2, cin, w4, 2, relu=True)
        self.refine1 = builder.conv("decoder.refine1", 3, w4, w4, relu=True)
        self.refine2 = builder.conv("decoder.refine2", 3, w4, w4, relu=True)
        self.head = builder.conv("decoder.head", 1, w4, 1)

    def forward(self, feats: EncoderFeatures) -> Tensor:
        h, feats.deep = feats.deep, None
        for (up, fuse), name in zip(self.stages[:2], ("skip8", "skip4")):
            h = transposed_conv(h, up)
            h = conv2d((h, getattr(feats, name)), fuse)
            setattr(feats, name, None)
        (up3, fuse3), skip2 = self.stages[2], feats.skip2
        feats.skip2 = None
        height = 4 * h.shape[1]
        blocks = _row_blocks(height, height if is_recording() else _STREAM_ROWS)
        logits = None if len(blocks) == 1 else np.empty(
            (h.shape[0], height, 4 * h.shape[2], self.head.out_channels), dtype=h.dtype)
        for r0, r1 in blocks:
            # The rows each layer makes, from the head back.
            a = _reads(self.refine2, r0, r1, height)
            b = _reads(self.refine1, *a, height)
            c = b[0] // 2, -(-b[1] // 2)
            d = _reads(fuse3, *c, height // 2)
            e = d[0] // 2, -(-d[1] // 2)
            x = transposed_conv(_rows(h, 0, *e), up3)
            x = _conv_rows(((x, 2 * e[0]), (skip2, 0)), fuse3, *c, height // 2)
            x = transposed_conv(x, self.up4)
            x = _conv_rows(((x, 2 * c[0]),), self.refine1, *a, height)
            x = _conv_rows(((x, a[0]),), self.refine2, r0, r1, height)
            x = conv2d(x, self.head)
            if logits is None:
                return x
            logits[:, r0:r1] = x.data
        return Tensor(logits)

    __call__ = forward


# Output rows per block of the decoder's streamed stages. At full width a
# 64-row block's maps are 4.7 MB each at 576 columns, against 42.5 MB for a
# whole 576x576 map. ``_row_blocks`` cuts no block under half of 64 rows
# tall, which keeps every block's convolutions on the GEMM route they take
# over the whole map (``convops._shifts``), so GEMM mode too keeps its
# bytes: checked on the row arithmetic for every pair of sides that are
# multiples of 16 up to 4096.
_STREAM_ROWS = 64


def _reads(kernel: ConvKernel, r0: int, r1: int, height: int) -> tuple[int, int]:
    """The input rows that output rows [r0, r1) of a stride-1, same-padded
    ``kernel`` read in a map ``height`` rows tall."""
    return max(r0 - kernel.padding[0], 0), min(r1 + kernel.padding[1], height)


def _rows(t: Tensor, first: int, r0: int, r1: int) -> Tensor:
    """Rows [r0, r1) of a map of which ``t`` holds the rows from ``first``
    on: ``t`` itself when those are all its rows, else an untracked view."""
    if r0 == first and r1 - first == t.shape[1]:
        return t
    return Tensor(t.data[:, r0 - first : r1 - first])


def _conv_rows(parts, kernel: ConvKernel, r0: int, r1: int, height: int) -> Tensor:
    """Output rows [r0, r1) of ``conv2d`` over a map ``height`` rows tall
    whose parts are (tensor, first row) pairs (``_rows``): the rows they
    read, with the kernel's top or bottom padding only at the map's edge."""
    i0, i1 = _reads(kernel, r0, r1, height)
    pt, pb, pl, pr = kernel.padding
    if (i0, i1) != (r0, r1):
        kernel = replace(kernel, padding=(pt - (r0 - i0), pb - (i1 - r1), pl, pr))
    return conv2d(tuple([_rows(t, first, i0, i1) for t, first in parts]), kernel)


class DNet:
    """Encoder, optional fusion and decoder; returns the logits ``total_loss`` takes."""

    def __init__(self, cfg: DNetConfig, seed: int = 0):
        self._build(cfg, _Builder(np.random.default_rng(seed)))

    def _build(self, cfg: DNetConfig, builder: _Builder) -> None:
        self.cfg = cfg
        self.encoder = Encoder(builder, cfg)
        concat_width = sum(self.encoder.out_channels[s] for s in (3, 4, 5))
        if cfg.msif_enabled:
            self.msif: MSIF | None = MSIF(builder, cfg, concat_width)
            decoder_in = self.msif.out_channels
        else:
            self.msif = None
            decoder_in = concat_width
        root = self.encoder.root3.out_channels  # skip2, and pooled, skip4
        self.decoder = Decoder(
            builder, cfg, decoder_in, (self.encoder.out_channels[2], root, root)
        )
        self._params = builder.params

    def forward(self, image: Tensor) -> Tensor:
        """Per-pixel vessel logits, same spatial size as the input."""
        feats = self.encoder(image)
        if self.msif is not None:
            feats.deep = self.msif(feats.deep)
        return self.decoder(feats)

    __call__ = forward

    def parameters(self) -> dict[str, Tensor]:
        return self._params

    def kernel_parameters(self) -> list[Tensor]:
        """Convolution weights only (the ``*.w`` parameters, no biases), in
        registration order; the L2-regularized set."""
        return [t for name, t in self._params.items() if name.endswith(".w")]


def encoder_layer_specs(cfg: DNetConfig) -> list[LayerSpec]:
    """The deepest serial path through the encoder, for RF analysis: the
    root convs, the root pool, then each unit's reduce, spatial and restore
    conv, read off the kernels of an encoder built with no weights drawn."""
    enc = Encoder(_Builder(None), cfg)
    units = [u for stage in enc.blocks for u in stage]
    convs = [enc.root1, enc.root2, enc.root3,
             *(k for u in units for k in (u.reduce, u.spatial, u.restore))]
    specs = [LayerSpec("conv", k.weight.shape[0], k.stride, k.dilation, k.name) for k in convs]
    return [*specs[:3], LayerSpec("pool", *ROOT_POOL, 1, "root.pool"), *specs[3:]]


CHECKPOINT_MAGIC = b"DNET1"
# d1 d2 d3 msif r1 r2 r3 in_ch scale_micro bn n_params; in_ch is always
# IN_CHANNELS, and the bn slot is a retired batch-norm flag, always written
# as 0. Any other value in either slot is rejected.
_HEADER = struct.Struct("<11I")


def save_checkpoint(model: DNet, path) -> None:
    """Flat binary container: magic, config header, then named tensors.

    Each tensor is stored as (name length, name bytes, 4 dims, little-endian
    32-bit floats); save -> load -> save reproduces the file byte for byte.
    It is written to a sibling ``.tmp`` file first and flushed to disk before
    it replaces ``path``, so neither a failed save nor a system crash loses
    the old one.
    """
    cfg = model.cfg
    params = model.parameters()
    tmp = Path(f"{os.fspath(path)}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(
                _HEADER.pack(
                    *cfg.dilations,
                    1 if cfg.msif_enabled else 0,
                    *cfg.msif_rates,
                    IN_CHANNELS,
                    round(cfg.channels_scale * 1_000_000),
                    0,
                    len(params),
                )
            )
            for name, t in params.items():
                encoded = name.encode("utf-8")
                fh.write(struct.pack("<I", len(encoded)))
                fh.write(encoded)
                fh.write(struct.pack("<4I", *t.shape))
                fh.write(np.ascontiguousarray(t.data, dtype="<f4").tobytes())
            fh.flush()
            os.fsync(fh.fileno())
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


def _read_exact(fh, count: int) -> bytes:
    """``count`` bytes, if the file has that many left: a corrupt count is
    rejected before anything is allocated for it."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    data = fh.read(count) if count <= left else b""
    if len(data) != count:
        raise CheckpointError(f"checkpoint truncated: {count} bytes wanted, {left} left")
    return data


def load_checkpoint(path) -> DNet:
    """Rebuild a model from a checkpoint; parameter sets must match exactly.

    Every defect of the file raises ``CheckpointError`` naming ``path``.
    """
    with open(path, "rb") as fh:
        try:
            return _read_model(fh)
        except (CheckpointError, ConfigError) as exc:
            raise CheckpointError(f"{path}: {exc}") from exc


def _read_model(fh) -> DNet:
    if _read_exact(fh, len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
        raise CheckpointError("bad magic; not a checkpoint file")
    (d1, d2, d3, msif, r1, r2, r3, in_ch, scale_micro, bn, n_params) = _HEADER.unpack(
        _read_exact(fh, _HEADER.size)
    )
    if in_ch != IN_CHANNELS:
        raise CheckpointError(f"{in_ch} input channels; the model takes {IN_CHANNELS}")
    if bn:
        raise CheckpointError("batch-norm flag is set; batch norm is not supported")
    cfg = DNetConfig(
        dilations=(d1, d2, d3),
        msif_rates=(r1, r2, r3),
        msif_enabled=bool(msif),
        channels_scale=scale_micro / 1_000_000,
    )
    # Built with unset weights, none drawn: the check that every parameter
    # is read from the file guarantees that none stays unset.
    model = DNet.__new__(DNet)
    model._build(cfg, _Builder(None))
    params = model.parameters()
    seen = set()
    for _ in range(n_params):
        (name_len,) = struct.unpack("<I", _read_exact(fh, 4))
        name = _read_exact(fh, name_len).decode("utf-8", errors="replace")
        dims = struct.unpack("<4I", _read_exact(fh, 16))
        target = params.get(name)
        if target is None:
            raise CheckpointError(f"unknown parameter {name!r} in checkpoint")
        if target.shape != dims:
            raise CheckpointError(
                f"parameter {name!r} has shape {dims} but model expects {target.shape}"
            )
        raw = np.frombuffer(_read_exact(fh, 4 * target.data.size), dtype="<f4")
        target.data = raw.reshape(dims).astype(default_dtype())
        seen.add(name)
    if len(seen) != len(params):
        missing = sorted(set(params) - seen)
        raise CheckpointError(f"checkpoint missing parameters: {missing[:5]} ...")
    if fh.read(1):
        raise CheckpointError("trailing data after checkpoint payload")
    return model
