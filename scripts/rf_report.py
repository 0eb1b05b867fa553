#!/usr/bin/env python3
"""Receptive-field derivations for the encoder across the ablation grid.

Prints, for each dilation triple, the per-layer jump/RF table (the full
derivation, not just the endpoint) plus the coverage verdict of the layer
cascade. These are first-principles values from the jump-product rule; the
table is the documentation of how each number arises.
"""

import sys

from dnet.model import DNetConfig, encoder_layer_specs
from dnet.receptive import rf_stack

TRIPLES = [(1, 1, 1), (1, 2, 3), (1, 2, 4)]


def main() -> int:
    summary = []
    for triple in TRIPLES:
        cfg = DNetConfig(dilations=triple)
        report = rf_stack(encoder_layer_specs(cfg))
        print(f"== encoder with dilations {triple} ==")
        print("layer,k_eff,jump,rf")
        for row in report.layers:
            print(f"{row.name},{row.k_eff},{row.jump},{row.rf}")
        cov = report.coverage
        verdict = "dense" if cov and cov.dense else f"holes:{cov.holes if cov else 'n/a'}"
        print(f"coverage={verdict}")
        print()
        summary.append((triple, report.final_rf, verdict))

    print("== summary ==")
    for triple, rf, verdict in summary:
        print(f"dilations {triple}: final receptive field {rf}, coverage {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
