"""Receptive-field arithmetic and sampling-coverage analysis for layer stacks.

A single dilated convolution with kernel k and rate r sees (k-1)(r-1)+k
input positions; stacks accumulate receptive field with the standard jump
product, which reduces to k1 + k2 - 1 for two stride-1 layers. Coverage
analysis traces, in 1-D, which bottom positions a single top unit can reach
through a cascade; equal-rate cascades leave periodic holes while gradually
increasing rates keep the sampling dense.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ShapeError
from .convops import dilated_kernel_extent

__all__ = [
    "LayerSpec",
    "LayerRF",
    "RFReport",
    "CoverageReport",
    "rf_single",
    "rf_stack",
    "coverage_map",
]

_KINDS = ("conv", "pool", "tconv")


@dataclass(frozen=True)
class LayerSpec:
    """One layer on a serial path: kind, kernel k, stride s, dilation r."""

    kind: str
    k: int
    s: int = 1
    r: int = 1
    name: str = ""

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ShapeError(f"unknown layer kind {self.kind!r}; expected one of {_KINDS}")
        if self.k < 1 or self.s < 1 or self.r < 1:
            raise ShapeError(f"layer parameters must be >= 1, got k={self.k} s={self.s} r={self.r}")

    @property
    def k_eff(self) -> int:
        return dilated_kernel_extent(self.k, self.r)


@dataclass(frozen=True)
class LayerRF:
    name: str
    k_eff: int
    jump: Fraction
    rf: Fraction


@dataclass(frozen=True)
class CoverageReport:
    """Whether one top unit reaches every bottom position inside its span.

    ``holes`` lists missed offsets relative to the leftmost reachable
    position.
    """

    dense: bool
    holes: tuple[int, ...]


@dataclass(frozen=True)
class RFReport:
    layers: tuple[LayerRF, ...]
    coverage: CoverageReport | None = None

    @property
    def final_rf(self) -> Fraction:
        return self.layers[-1].rf

    @property
    def final_jump(self) -> Fraction:
        return self.layers[-1].jump


def rf_single(k: int, r: int) -> int:
    """Receptive field of one dilated convolution: (k - 1)(r - 1) + k."""
    return dilated_kernel_extent(k, r)


def rf_stack(layers) -> RFReport:
    """Per-layer receptive field and jump through a serial stack.

    rf += (k_eff - 1) * jump, then jump *= s; transposed-conv layers use the
    exact fractional generalization (jump /= s). For two stride-1 layers the
    final value reduces to k1 + k2 - 1.
    """
    layers = list(layers)
    if not layers:
        raise ShapeError("rf_stack: empty layer list")
    rows: list[LayerRF] = []
    rf = Fraction(1)
    jump = Fraction(1)
    for idx, layer in enumerate(layers):
        if not isinstance(layer, LayerSpec):
            raise ShapeError(f"rf_stack: expected LayerSpec, got {type(layer).__name__}")
        if layer.kind == "tconv":
            jump = jump / layer.s
            rf = rf + (layer.k_eff - 1) * jump
        else:
            rf = rf + (layer.k_eff - 1) * jump
            jump = jump * layer.s
        rows.append(LayerRF(layer.name or f"layer{idx}", layer.k_eff, jump, rf))
    positions = _reachable_positions(layers)
    if positions is None:
        return RFReport(tuple(rows))
    lo, hi = min(positions), max(positions)
    holes = tuple(q - lo for q in range(lo, hi + 1) if q not in positions)
    return RFReport(tuple(rows), coverage=CoverageReport(dense=not holes, holes=holes))


def _reachable_positions(layers) -> set[int] | None:
    """Bottom-layer positions one top unit depends on; None if not integral."""
    positions = {0}
    for layer in reversed(layers):
        if layer.kind == "tconv":
            return None
        taps = [i * layer.r for i in range(layer.k)]
        positions = {p * layer.s + t for p in positions for t in taps}
    return positions


def coverage_map(dilations, k: int = 3) -> CoverageReport:
    """Coverage of a cascade of stride-1 dilated convolutions (1-D trace).

    Equal rates such as (2, 2, 2) sample a grid with holes; rates like
    (1, 2, 3) reach every position. 2-D coverage is the product of the axis
    traces for these separable tap grids.
    """
    dilations = tuple(dilations)
    if not dilations:
        raise ShapeError("coverage_map: need at least one dilation rate")
    return rf_stack(LayerSpec("conv", k, 1, d) for d in dilations).coverage

