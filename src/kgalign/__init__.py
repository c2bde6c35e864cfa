"""Knowledge graph entity alignment with a (weightless) GCN encoder.

The package covers the full pipeline: dataset loading and splitting,
propagation-matrix construction, the encoder with hand-derived
gradients, margin-rank training with negative sampling, closed-world
ranking evaluation, and experiment orchestration (single runs, grid
search, seed-aggregated ablations). Callers import from the layer
modules (kgalign.runner, kgalign.training, ...); the package root holds
only the version.
"""

__version__ = "0.1.0"
